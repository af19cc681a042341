"""Acceptance criteria.

Each test exercises one criterion end to end at its stated tolerance and
prints a single PASS line (run with -s to see them).  Reaching the print
implies every assertion above it held.
"""

import math
import random
import time

from adkit.catalog import ADD, CATALOG, DIV, MUL, SUB, DomainError, RealAlgebra, pow_fn
from adkit.counting import cost_compare
from adkit.dual import Dual, DualAlgebra
from adkit.engine import (
    SeedSpec,
    backprop,
    forward_directional,
    record,
)
from adkit.expr import eval_generic, parse
from adkit.jets import (
    BERZ,
    STANDARD,
    Jet,
    JetAlgebra,
    jet_convert_basis,
    jet_shape,
    jet_variable,
)
from adkit.towers import Tower, TowerAlgebra, tower_df, tower_take, tower_var
from adkit.trace import compile_program, forward_derivative, reverse_derivative
from adkit.trace import forward_derivative_trace

from conftest import random_program
from oracles import central_diff_order, partial_diff, poly_mul_truncated


def _close(a, b, tol):
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def test_criterion_1_dual_example_closed_form():
    start = time.perf_counter()
    fdef = parse("f(x1,x2) = x2*cos(x1*x1+3)")
    rng = random.Random(1001)
    for _ in range(100):
        c1, c2, d1, d2 = (rng.uniform(-2.5, 2.5) for _ in range(4))
        value, tangent = forward_directional(
            fdef, SeedSpec.forward([c1, c2], [d1, d2])
        )
        want = -2 * c1 * c2 * math.sin(c1 * c1 + 3) * d1 + math.cos(c1 * c1 + 3) * d2
        assert _close(tangent[0], want, 1e-12)
        assert _close(value[0], c2 * math.cos(c1 * c1 + 3), 1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS - forward mode matches the closed-form "
          f"directional derivative at 1e-12 over 100 random seeds ({elapsed:.3f}s)")


def test_criterion_2_trace_state_sequences():
    fdef = parse("f(x1,x2) = (exp(x1)*sin(x1+x2), x2)")
    program = compile_program(fdef)
    rng = random.Random(1002)
    for _ in range(100):
        c1, c2, d1, d2 = (rng.uniform(-2, 2) for _ in range(4))
        rec = forward_derivative_trace(program, [c1, c2], [d1, d2])
        e, s, co = math.exp(c1), math.sin(c1 + c2), math.cos(c1 + c2)
        v5 = [c1, c2, e, c1 + c2, s, e * s, c2]
        vdot5 = [d1, d2, e * d1, d1 + d2, co * (d1 + d2),
                 s * e * d1 + e * co * (d1 + d2), d2]
        for got, want in zip(rec.states[-1], v5):
            assert _close(got, want, 1e-12)
        for got, want in zip(rec.derivative_states[-1], vdot5):
            assert _close(got, want, 1e-12)
        out = forward_derivative(program, [c1, c2], [d1, d2])
        assert _close(out[0], (s * e + e * co) * d1 + e * co * d2, 1e-12)
        assert _close(out[1], d2, 1e-12)
    print("\nACCEPTANCE 2 PASS - dense trace reproduces the displayed state and "
          "derivative vectors at 1e-12 over 100 random points")


def test_criterion_3_reverse_example():
    fdef = parse("f(x) = (x, exp(x)*sin(x))")
    out = backprop(record(fdef, [5.0]), [1.0, 1.0])
    want = 1.0 + math.exp(5.0) * (math.sin(5.0) + math.cos(5.0))
    assert _close(out[0], want, 1e-12)

    rng = random.Random(1003)
    for _ in range(100):
        c, y1, y2 = rng.uniform(-2.5, 2.5), rng.uniform(-2, 2), rng.uniform(-2, 2)
        got = backprop(record(fdef, [c]), [y1, y2])[0]
        closed = y1 + y2 * math.exp(c) * (math.sin(c) + math.cos(c))
        assert _close(got, closed, 1e-12)
    print("\nACCEPTANCE 3 PASS - reverse mode reproduces the covector product "
          "closed form at 1e-12 (test case c=5, seed (1,1) included)")


def test_criterion_4_cost_table_exact():
    start = time.perf_counter()
    for n in range(1, 51):
        chain = cost_compare("chain", n)
        assert chain.symbolic == n * (n + 1) // 2 and chain.ad == 2 * n
        product = cost_compare("product", n)
        assert product.symbolic == n * n and product.ad == 2 * n
        shared = cost_compare("shared", n)
        assert shared.ad == 2 * n + 2
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 4 PASS - operation counts are exactly n(n+1)/2 vs 2n, "
          f"n^2 vs 2n, and 2n+2 for n=1..50 ({elapsed:.3f}s)")


def test_criterion_5_oracle_equivalence_500_programs():
    rng = random.Random(1005)
    duality_checked = 0
    for _ in range(500):
        fdef, point = random_program(rng, max_vars=4, max_outputs=3, max_ops=25)
        program = compile_program(fdef)
        assert program.mu <= 30  # <= 25 operations + 2 constants + 3 copies
        xdot = [rng.uniform(-2, 2) for _ in range(fdef.n)]
        ybar = [rng.uniform(-2, 2) for _ in range(fdef.m)]

        _, tangent = forward_directional(fdef, SeedSpec.forward(point, xdot))
        dense_tangent = forward_derivative(program, point, xdot)
        for a, b in zip(tangent, dense_tangent):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

        gradient = backprop(record(fdef, point), ybar)
        dense_gradient = reverse_derivative(program, point, ybar)
        for a, b in zip(gradient, dense_gradient):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

        lhs = sum(y * t for y, t in zip(ybar, tangent))
        rhs = sum(g * x for g, x in zip(gradient, xdot))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs), abs(rhs))
        duality_checked += 1
    assert duality_checked == 500
    print("\nACCEPTANCE 5 PASS - engine forward/reverse match the dense matrix "
          "oracle at 1e-12 and duality holds at 1e-10 over 500 random programs")


def test_criterion_6_finite_difference_suite():
    rng = random.Random(1006)
    compositions = 0
    while compositions < 200:
        fdef, point = random_program(
            rng, max_vars=3, max_outputs=1, max_ops=10, value_cap=50.0
        )
        grad_fwd = [
            forward_directional(
                fdef,
                SeedSpec.forward(point, [1.0 if i == j else 0.0 for i in range(fdef.n)]),
            )[1][0]
            for j in range(fdef.n)
        ]
        grad_rev = backprop(record(fdef, point), [1.0])

        def f_at(args):
            return eval_generic(fdef, list(args), RealAlgebra())[0]

        ok = False
        for j in range(fdef.n):
            fd = partial_diff(f_at, point, j)
            assert math.isclose(grad_fwd[j], fd, rel_tol=1e-5, abs_tol=1e-6)
            assert math.isclose(grad_rev[j], fd, rel_tol=1e-5, abs_tol=1e-6)
            ok = True
        compositions += 1 if ok else 0
    print("\nACCEPTANCE 6 PASS - forward and reverse derivatives match central "
          "differences (h=1e-6) at 1e-5 on 200 random compositions")


def test_criterion_7_jet_correctness():
    rng = random.Random(1007)

    # (a) univariate jets agree with towers to 1e-9 and with order-matched
    #     stencils to 1e-3
    agree = fd_checked = 0
    while agree < 400:
        fdef, point = random_program(
            rng, max_vars=1, max_outputs=1, max_ops=6, value_cap=50.0
        )
        order = rng.randint(1, 6)
        shape = jet_shape(1, order)
        try:
            jet_out = eval_generic(
                fdef, [jet_variable(shape, 1, point[0], BERZ)], JetAlgebra(shape, BERZ)
            )[0]
        except DomainError:
            continue
        tower_out = eval_generic(fdef, [tower_var(point[0])], TowerAlgebra())[0]
        prefix = tower_take(tower_out, order + 1)
        for t, j in zip(prefix, jet_out.coeffs):
            assert abs(t - j) <= 1e-9 * max(1.0, abs(t), abs(j))
        agree += 1

        def f(x):
            return eval_generic(fdef, [x], RealAlgebra())[0]

        try:
            fd_coarse = central_diff_order(f, point[0], order)
            fd = central_diff_order(
                f, point[0], order, h=0.5 * (2.3e-16) ** (1.0 / (order + 2))
            )
        except (DomainError, ValueError, OverflowError):
            continue
        # only trust the stencil where halving h confirms it has converged
        if abs(fd_coarse - fd) > 1e-4 * max(1.0, abs(fd)):
            continue
        got = jet_out.coeffs[order]
        if max(abs(got), abs(fd)) > 1e-2:
            assert abs(got - fd) <= 1e-3 * max(1.0, abs(got), abs(fd))
            fd_checked += 1
    assert fd_checked > 60

    # (b) products equal naive truncated polynomial multiplication exactly
    for _ in range(150):
        n = rng.randint(1, 3)
        order = rng.randint(1, 4)
        shape = jet_shape(n, order)
        av = [float(rng.randint(-9, 9)) for _ in range(shape.size)]
        bv = [float(rng.randint(-9, 9)) for _ in range(shape.size)]
        prod = Jet(shape, av) * Jet(shape, bv)
        naive = poly_mul_truncated(
            {k: av[i] for i, k in enumerate(shape.monomials)},
            {k: bv[i] for i, k in enumerate(shape.monomials)},
            order,
        )
        for i, k in enumerate(shape.monomials):
            assert prod.coeffs[i] == naive.get(k, 0.0)

    # (c) order-1 jets reproduce dual numbers bit for bit
    shape1 = jet_shape(1, 1)
    count = 0
    while count < 100:
        fdef, point = random_program(rng, max_vars=1, max_outputs=1, max_ops=8)
        seed = rng.uniform(-2, 2)
        try:
            dual_out = eval_generic(fdef, [Dual(point[0], seed)], DualAlgebra())[0]
            jet_out = eval_generic(
                fdef, [Jet(shape1, [point[0], seed])], JetAlgebra(shape1)
            )[0]
        except DomainError:
            continue
        assert jet_out.coeffs[0] == dual_out.primal
        assert jet_out.coeffs[1] == dual_out.tangent
        count += 1
    print("\nACCEPTANCE 7 PASS - jets match towers (1e-9) and stencils (1e-3), "
          "products equal the naive polynomial oracle exactly, and order-1 "
          "jets reproduce dual results bit for bit")


def test_criterion_8_taylor_identity():
    # the first-degree Taylor polynomial of a lifted function, evaluated at
    # the dual point in dual arithmetic: the nilpotent epsilon kills every
    # term beyond degree one, leaving f(c) + (grad f(c) . d) eps
    def taylor_first_degree(fn, point, direction):
        total = Dual(fn.value(point), 0.0)
        for p, d in zip(fn.partials(point), direction):
            total = total + Dual(0.0, d) * Dual(p, 0.0)
        return total

    rng = random.Random(1008)
    ranges = {"exp": (-2, 2), "ln": (0.2, 4), "sqrt": (0.2, 4),
              "sin": (-4, 4), "cos": (-4, 4), "tan": (-1.2, 1.2)}
    cases = 0
    while cases < 100:
        kind = rng.random()
        if kind < 0.55:
            name = rng.choice(list(ranges))
            fn = CATALOG[name]
            lo, hi = ranges[name]
            point = [rng.uniform(lo, hi)]
        elif kind < 0.85:
            fn = rng.choice([ADD, SUB, MUL, DIV])
            point = [rng.uniform(-3, 3), rng.uniform(-3, 3)]
            if fn.name == "div" and abs(point[1]) < 0.2:
                continue
        else:
            fn = pow_fn(rng.randint(0, 5))
            point = [rng.uniform(-2, 2)]
        direction = [rng.uniform(-2, 2) for _ in range(fn.arity)]
        taylor = taylor_first_degree(fn, point, direction)
        lifted = DualAlgebra().apply(fn, [Dual(c, d) for c, d in zip(point, direction)])
        assert _close(taylor.primal, lifted.primal, 1e-12)
        assert _close(taylor.tangent, lifted.tangent, 1e-12)
        cases += 1
    print("\nACCEPTANCE 8 PASS - the first-degree Taylor evaluation equals the "
          "dual lift within 1e-12 on 100 random catalogue applications")


def test_criterion_9_algebra_law_suites():
    rng = random.Random(1009)

    # dual ring laws, 1000 cases
    for _ in range(1000):
        a, b, c = (Dual(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(3))
        ab, ba = a * b, b * a
        assert ab.primal == ba.primal and ab.tangent == ba.tangent
        scale = 1.0
        for z in (a, b, c):
            scale *= max(1.0, abs(z.primal), abs(z.tangent))
        tol = 8e-12 * scale
        lhs, rhs = (a * b) * c, a * (b * c)
        assert abs(lhs.primal - rhs.primal) <= tol
        assert abs(lhs.tangent - rhs.tangent) <= tol
        lhs = a * (b + c)
        rhs = a * b + a * c
        assert abs(lhs.primal - rhs.primal) <= tol
        assert abs(lhs.tangent - rhs.tangent) <= tol

    # nilpotency, exact, 1000 cases
    for _ in range(1000):
        eps = Dual(0.0, rng.uniform(-1e6, 1e6))
        sq = eps * eps
        assert sq.primal == 0.0 and sq.tangent == 0.0

    # tower Leibniz law at orders <= 8, 1000 cases
    def tower_from(entries):
        def node(i):
            return Tower(
                entries[i] if i < len(entries) else 0.0, lambda: node(i + 1)
            )

        return node(0)

    for _ in range(1000):
        xs = [rng.uniform(-10, 10) for _ in range(9)]
        ys = [rng.uniform(-10, 10) for _ in range(9)]
        order = rng.randint(0, 8)
        got = tower_take(tower_from(xs) * tower_from(ys), order + 1)[order]
        want = 0.0
        for i in range(order + 1):
            coeff = math.factorial(order) // (
                math.factorial(i) * math.factorial(order - i)
            )
            want += coeff * xs[i] * ys[order - i]
        assert got == want

    # tower shift-derivation product rule, 1000 cases
    for _ in range(1000):
        xs = [rng.uniform(-10, 10) for _ in range(10)]
        ys = [rng.uniform(-10, 10) for _ in range(10)]
        a, b = tower_from(xs), tower_from(ys)
        lhs = tower_take(tower_df(a * b), 8)
        rhs = tower_take(tower_df(a) * b + a * tower_df(b), 8)
        for k, (x, y) in enumerate(zip(lhs, rhs)):
            bound = sum(
                math.comb(k + 1, i) * abs(xs[i]) * abs(ys[k + 1 - i])
                for i in range(k + 2)
            )
            assert abs(x - y) <= 4e-12 * max(1.0, bound)

    # jet basis conversion round-trip, 1000 cases (coefficients chosen so the
    # factorial scalings are exact in binary floating point)
    for _ in range(1000):
        n = rng.randint(1, 3)
        order = rng.randint(1, 6)
        shape = jet_shape(n, order)
        coeffs = [rng.randint(-(2**30), 2**30) / 1024.0 for _ in range(shape.size)]
        j = Jet(shape, coeffs)
        back = jet_convert_basis(jet_convert_basis(j, BERZ), STANDARD)
        assert back.coeffs == j.coeffs
    print("\nACCEPTANCE 9 PASS - ring laws, nilpotency, Leibniz and shift "
          "derivation laws, and basis round-trips hold over 1000 cases each")
