"""Truncated polynomial (jet) arithmetic and lifting."""

import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from adkit.catalog import CATALOG, MUL, DomainError, UnsupportedOrderError, ElementaryFn
from adkit.cli import main
from adkit.counting import EvalCounter, counted_variant
from adkit.dual import Dual, DualAlgebra
from adkit.engine import SeedSpec, backprop, forward_directional, record
from adkit.expr import Apply, FunctionDef, Variable, eval_generic, parse, unparse
from adkit import jets
from adkit.jets import (
    BERZ,
    MAX_ORDER,
    MAX_SIZE,
    STANDARD,
    Jet,
    JetAlgebra,
    JetShape,
    jet_constant,
    jet_convert_basis,
    jet_extract_partial,
    jet_shape,
    jet_variable,
)

from adkit.towers import TowerAlgebra, tower_take, tower_var

from conftest import EDGE_POINTS, random_program
from oracles import (
    LoopJet,
    LoopJetAlgebra,
    central_diff_order,
    jet_long_division,
    mp_taylor,
    nested_partial,
    packed,
    poly_mul_truncated,
    scanned_monomials,
    scanned_pair_table,
    step_eval,
)


def test_shape_table():
    shape = jet_shape(2, 2)
    assert shape.monomials[0] == (0, 0)
    assert shape.size == math.comb(2 + 2, 2)
    shape = jet_shape(3, 4)
    assert shape.size == math.comb(3 + 4, 4)
    assert shape.monomials[0] == (0, 0, 0)


def test_variable_seeding():
    shape = jet_shape(2, 2)
    j = jet_variable(shape, 1, 3.0)
    assert jet_extract_partial(j, (0, 0)) == 3.0
    assert jet_extract_partial(j, (1, 0)) == 1.0
    assert sum(1 for c in j.coeffs if c != 0.0) == 2

    shape = jet_shape(2, 3)
    j = jet_variable(shape, 2, 0.0)
    assert [c for c in j.coeffs] == [
        1.0 if k == (0, 1) else 0.0 for k in shape.monomials
    ]

    with pytest.raises(IndexError):
        jet_variable(shape, 3, 0.0)


def test_a_variable_index_that_is_not_an_integer_is_refused():
    # 1.5 matched no unit monomial, so the seed's 1.0 overwrote the point
    # and gave the constant jet 1; an integral float is refused as well.
    shape = jet_shape(2, 3)
    for i, kind in ((1.5, "float"), (1.0, "float"), ("1", "str"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"jet_variable's i must be an integer, not {kind}"):
            jet_variable(shape, i, 0.5)
    assert jet_variable(shape, True, 0.5) == jet_variable(shape, 1, 0.5)


def test_degree_one_jet_is_a_dual_number():
    # one variable truncated at order one: exactly the dual numbers
    shape = jet_shape(1, 1)
    x, xp, y, yp = 1.3, -0.7, 0.4, 2.2
    prod = Jet(shape, [x, xp]) * Jet(shape, [y, yp])
    d = Dual(x, xp) * Dual(y, yp)
    assert prod.coeffs == [d.primal, d.tangent]


def test_mul_examples():
    shape = jet_shape(1, 2)
    sq = Jet(shape, [3.0, 1.0, 0.0]) * Jet(shape, [3.0, 1.0, 0.0])
    assert sq.coeffs == [9.0, 6.0, 1.0]

    c = 1.7
    tower = Jet(shape, [c, 1.0, 0.0], BERZ)
    sq = tower * tower
    # oracle: (c + X)^2 = c^2 + 2cX + X^2, rescaled by k! per slot
    naive = poly_mul_truncated({(0,): c, (1,): 1.0}, {(0,): c, (1,): 1.0}, 2)
    expected = [naive.get((k,), 0.0) * math.factorial(k) for k in range(3)]
    assert sq.coeffs == expected == [c * c, 2 * c, 2.0]


def test_mul_matches_naive_polynomial_oracle_exactly():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.randint(1, 3)
        order = rng.randint(1, 4)
        shape = jet_shape(n, order)
        av = [float(rng.randint(-9, 9)) for _ in range(shape.size)]
        bv = [float(rng.randint(-9, 9)) for _ in range(shape.size)]
        prod = Jet(shape, av) * Jet(shape, bv)
        pa = {k: av[i] for i, k in enumerate(shape.monomials)}
        pb = {k: bv[i] for i, k in enumerate(shape.monomials)}
        naive = poly_mul_truncated(pa, pb, order)
        for i, k in enumerate(shape.monomials):
            assert prod.coeffs[i] == naive.get(k, 0.0)


def test_berz_mul_consistent_with_standard():
    rng = random.Random(55)
    for _ in range(100):
        n = rng.randint(1, 3)
        order = rng.randint(1, 4)
        shape = jet_shape(n, order)
        a = Jet(shape, [rng.uniform(-2, 2) for _ in range(shape.size)])
        b = Jet(shape, [rng.uniform(-2, 2) for _ in range(shape.size)])
        via_standard = jet_convert_basis(a * b, BERZ)
        via_berz = jet_convert_basis(a, BERZ) * jet_convert_basis(b, BERZ)
        for x, y in zip(via_standard.coeffs, via_berz.coeffs):
            assert math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12)


def test_vector_space_operations():
    shape = jet_shape(2, 2)
    a = Jet(shape, [float(i) for i in range(shape.size)])
    zero = jet_constant(shape, 0.0)
    assert (a + zero).coeffs == a.coeffs
    assert (a + a * -1.0).coeffs == [0.0] * shape.size
    assert (a * 1.0).coeffs == a.coeffs


def test_shape_and_basis_mismatch_rejected():
    a = Jet(jet_shape(1, 2), [1.0, 2.0, 3.0])
    b = Jet(jet_shape(1, 3), [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ValueError):
        a * b
    c = Jet(jet_shape(1, 2), [1.0, 2.0, 3.0], BERZ)
    with pytest.raises(ValueError):
        a + c


def test_lift_sin_maclaurin():
    shape = jet_shape(1, 2)
    out = JetAlgebra(shape).apply(CATALOG["sin"], [jet_variable(shape, 1, 0.0)])
    assert out.coeffs == [0.0, 1.0, 0.0]


def test_lift_exp_berz_partials():
    shape = jet_shape(1, 3)
    out = JetAlgebra(shape, BERZ).apply(CATALOG["exp"], [jet_variable(shape, 1, 1.0, BERZ)])
    e = math.exp(1.0)
    for c in out.coeffs:
        assert math.isclose(c, e, rel_tol=1e-14)


def test_lift_degenerates_to_dual_exactly():
    # order-1 jets in any number of variables reproduce the dual lift per slot
    rng = random.Random(31)
    for name in ("exp", "ln", "sqrt", "sin", "cos", "tan"):
        fn = CATALOG[name]
        for n in (1, 2, 3):
            shape = jet_shape(n, 1)
            x = rng.uniform(0.4, 1.4)
            seeds = [rng.uniform(-2, 2) for _ in range(n)]
            coeffs = [x] + seeds
            out = JetAlgebra(shape).apply(fn, [Jet(shape, coeffs)])
            assert out.coeffs[0] == fn.value([x])
            for j in range(n):
                dual = Dual(x, seeds[j])
                lifted = eval_generic(
                    parse(f"g(t) = {name}(t)"), [dual], DualAlgebra()
                )[0]
                assert out.coeffs[1 + j] == lifted.tangent


def test_unsupported_order_rule():
    custom = ElementaryFn("sigmoid", 1, lambda a: 1 / (1 + math.exp(-a[0])),
                          lambda a: [0.25], lambda a: True)
    shape = jet_shape(1, 2)
    with pytest.raises(UnsupportedOrderError):
        JetAlgebra(shape).apply(custom, [jet_variable(shape, 1, 0.0)])
    with pytest.raises(UnsupportedOrderError):  # when built, not when forced
        TowerAlgebra().apply(custom, [tower_var(0.0)])


def _sigmoid(a):
    return 1.0 / (1.0 + math.exp(-a[0]))


def test_registered_first_order_rule_lifts_in_jets_and_towers():
    # Registered functions that carry only their first-order rule: a sigmoid,
    # and a line whose rule returns a float, promoted like an operand.
    sigmoid = ElementaryFn(
        "sigmoid", 1, _sigmoid,
        lambda a: [_sigmoid(a) * (1.0 - _sigmoid(a))],
        lambda a: True,
        derivative=lambda a, f, lift: f * (1.0 - f),
    )
    line = ElementaryFn("line", 1, lambda a: 2.5 * a[0] - 1.0, lambda a: [2.5],
                        lambda a: True, derivative=lambda a, f, lift: 2.5)
    for fn in (sigmoid, line):
        rng = random.Random(17)
        for _ in range(20):
            x = rng.uniform(-4.0, 4.0)
            for n in (1, 2, 3):
                seeds = [rng.uniform(-2, 2) for _ in range(n)]
                shape = jet_shape(n, 1)
                out = JetAlgebra(shape).apply(fn, [Jet(shape, [x] + seeds)])
                assert out.coeffs[0] == fn.value([x])
                for j in range(n):
                    dual = DualAlgebra().apply(fn, [Dual(x, seeds[j])])
                    assert out.coeffs[1 + j] == dual.tangent
            order = 8
            shape = jet_shape(1, order)
            jet = JetAlgebra(shape, BERZ).apply(fn, [jet_variable(shape, 1, x, BERZ)]).coeffs
            tower = tower_take(TowerAlgebra().apply(fn, [tower_var(x)]), order + 1)
            assert tower[:2] == jet[:2]
            for r in range(2, order + 1):
                scale = math.factorial(r) * max(abs(c) / math.factorial(k)
                                                for k, c in enumerate(jet[:r + 1]))
                assert abs(tower[r] - jet[r]) <= 1e-14 * scale, (x, r)


def test_catalogue_names_are_reserved():
    # A hand-built 2-ary "mul" computing a*sin(b) would be swept as a product
    # by the dual modes and through its own partials by backprop.
    def a_sin_b(name):
        return ElementaryFn(name, 2, lambda a: a[0] * math.sin(a[1]),
                            lambda a: [math.sin(a[1]), a[0] * math.cos(a[1])],
                            lambda a: True)

    for name in ("add", "sub", "neg", "mul", "div", "copy", "const", "pow0", "pow7",
                 "exp", "ln", "sqrt", "sin", "cos", "tan"):
        with pytest.raises(ValueError, match=f"name '{name}' is reserved"):
            a_sin_b(name)
    assert a_sin_b("mul_sin").name == "mul_sin"
    assert a_sin_b("power").name == "power"

    # counted_variant copies a catalogue function in its own class, so its
    # copies keep their names and every mode dispatches them alike.
    counter = EvalCounter()
    mul, sin = counted_variant(MUL, counter), counted_variant(CATALOG["sin"], counter)
    assert (mul.name, sin.name) == ("mul", "sin")
    fdef = FunctionDef("f", ("a", "b"), (Apply(mul, (Variable(1), Apply(sin, (Variable(2),)))),))
    value, tangent = forward_directional(fdef, SeedSpec.forward([2.0, 0.5], [0.0, 1.0]))
    dual = eval_generic(fdef, [Dual(2.0), Dual(0.5, 1.0)], DualAlgebra())[0]
    gradient = backprop(record(fdef, [2.0, 0.5]), [1.0])
    assert value == [dual.primal] == [2.0 * math.sin(0.5)]
    assert tangent == [dual.tangent] == [gradient[1]] == [pytest.approx(2.0 * math.cos(0.5))]
    assert gradient[0] == math.sin(0.5)
    assert counter.count > 0


def test_order_12_lifts_match_a_60_digit_series():
    # f(p(x)) for seeded cubics p.  Their coefficients and points are dyadic,
    # so p's jet is exact and only the lift of f rounds.  The worst error is
    # 0.18 of this bound; a Taylor-sum lift, sum_k (p - p(x))^k f^(k)(p(x)) / k!,
    # cancels large terms here and missed it by up to 24 times (ln).
    rng = random.Random(12)
    order = 12
    shape = jet_shape(1, order)
    for name in ("exp", "ln", "sqrt", "sin", "cos", "tan"):
        checked = 0
        while checked < 20:
            coeffs = [rng.randint(-24, 24) / 8 for _ in range(4)]
            fdef = parse("f(x) = {}({})".format(
                name, " + ".join(f"{c} * x^{i}" for i, c in enumerate(coeffs))))
            x = rng.randint(-24, 24) / 16
            try:
                jet = eval_generic(
                    fdef, [jet_variable(shape, 1, x, BERZ)], JetAlgebra(shape, BERZ)
                )[0].coeffs
            except DomainError:
                continue
            want, _ = mp_taylor(fdef, x, order)
            for r in range(order + 1):
                # r! times the largest Taylor coefficient up to order r
                scale = math.factorial(r) * max(abs(float(c)) for c in want[:r + 1])
                err = abs(float(jet[r] - want[r] * math.factorial(r)))
                assert err <= 2e-14 * scale, (name, coeffs, x, r)
            checked += 1


def test_lift_domain_checked_on_constant_term():
    shape = jet_shape(1, 2)
    with pytest.raises(DomainError):
        JetAlgebra(shape).apply(CATALOG["ln"], [jet_variable(shape, 1, -1.0)])


def test_a_jet_lift_refuses_what_is_not_a_jet():
    algebra = JetAlgebra(jet_shape(2, 3), BERZ)
    for bad in (2.0, None, Dual(1.0, 1.0)):
        with pytest.raises(TypeError, match=f"a jet lift needs a Jet, not {type(bad).__name__}"):
            algebra.apply(CATALOG["sin"], [bad])


def test_extract_examples():
    shape = jet_shape(1, 2)
    x = jet_variable(shape, 1, 3.0)
    sq = x * x
    assert jet_extract_partial(sq, (2,)) == 2.0  # d^2/dx^2 x^2
    assert jet_extract_partial(sq, (0,)) == 9.0
    with pytest.raises(IndexError):
        jet_extract_partial(sq, (3,))


def test_a_multi_index_entry_that_is_not_an_integer_is_refused():
    # int() read (1.7, 0) and ("1", 0) as the (1, 0) partial.
    j = jet_variable(jet_shape(2, 2), 1, 3.0)
    for k, kind in (((1.7, 0), "float"), (("1", 0), "str"), ((1, 0.0), "float"), ((1, None), "NoneType")):
        with pytest.raises(TypeError, match=f"a multi-index entry must be an integer, not {kind}"):
            jet_extract_partial(j, k)
    assert jet_extract_partial(j, (True, 0)) == jet_extract_partial(j, (1, 0)) == 1.0


def test_extract_example_function_gradient():
    # f(x1,x2) = x2 cos(x1^2 + 3): d/dx1 = -2 c1 c2 sin(c1^2 + 3)
    c1, c2 = 5.0, 2.0
    fdef = parse("f(x1,x2) = x2*cos(x1*x1+3)")
    shape = jet_shape(2, 1)
    inputs = [jet_variable(shape, 1, c1), jet_variable(shape, 2, c2)]
    out = eval_generic(fdef, inputs, JetAlgebra(shape))[0]
    expected = -2.0 * c1 * c2 * math.sin(c1 * c1 + 3.0)
    assert math.isclose(jet_extract_partial(out, (1, 0)), expected, rel_tol=1e-13)
    assert math.isclose(
        jet_extract_partial(out, (0, 1)), math.cos(c1 * c1 + 3.0), rel_tol=1e-13
    )


def test_convert_basis_examples():
    shape = jet_shape(1, 2)
    std = Jet(shape, [9.0, 6.0, 1.0])
    berz = jet_convert_basis(std, BERZ)
    assert berz.coeffs == [9.0, 6.0, 2.0]
    zero = jet_constant(shape, 0.0)
    assert jet_convert_basis(zero, BERZ).coeffs == [0.0, 0.0, 0.0]


dyadic = st.integers(min_value=-(2**30), max_value=2**30).map(lambda k: k / 1024.0)


@settings(max_examples=1000, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_convert_basis_round_trip_exact(n, order, data):
    # coefficients whose factorial multiples are exactly representable
    shape = jet_shape(n, order)
    coeffs = data.draw(
        st.lists(dyadic, min_size=shape.size, max_size=shape.size)
    )
    j = Jet(shape, coeffs)
    back = jet_convert_basis(jet_convert_basis(j, BERZ), STANDARD)
    assert back.coeffs == j.coeffs
    assert back.basis == STANDARD


def _jet_partials(fdef, point, order, basis=STANDARD):
    shape = jet_shape(fdef.n, order)
    inputs = [
        jet_variable(shape, i + 1, point[i], basis) for i in range(fdef.n)
    ]
    out = eval_generic(fdef, inputs, JetAlgebra(shape, basis))[0]
    return shape, out


def test_partials_match_nested_forward_and_finite_differences():
    rng = random.Random(2024)
    checked_fd = 0
    for _ in range(60):
        fdef, point = random_program(rng, max_vars=2, max_outputs=1, max_ops=8)
        order = rng.randint(1, 3)
        try:
            shape, out = _jet_partials(fdef, point, order)
        except DomainError:
            continue
        for k in shape.monomials:
            got = jet_extract_partial(out, k)
            want = nested_partial(fdef, point, k)
            assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), (k, point)
        # spot-check pure partials against order-matched stencils
        from adkit.catalog import RealAlgebra

        for var in range(fdef.n):
            k = tuple(order if i == var else 0 for i in range(fdef.n))

            def f_along(t, var=var):
                args = list(point)
                args[var] = t
                return eval_generic(fdef, args, RealAlgebra())[0]

            try:
                fd = central_diff_order(f_along, point[var], order)
            except (DomainError, ValueError, OverflowError):
                continue
            got = jet_extract_partial(out, k)
            if abs(fd) > 1e-3 or abs(got) > 1e-3:
                checked_fd += 1
                assert math.isclose(got, fd, rel_tol=1e-4, abs_tol=1e-3 * max(1, abs(got))), (
                    k,
                    point,
                )
    assert checked_fd > 20


def test_mixed_partial_symmetry():
    # swapping the roles of the two variables transposes the multi-index
    rng = random.Random(77)
    for _ in range(40):
        fdef, point = random_program(rng, max_vars=2, max_outputs=1, max_ops=8)
        if fdef.n != 2:
            continue
        swapped_src = None
        try:
            _, out = _jet_partials(fdef, point, 2)
        except DomainError:
            continue
        from adkit.expr import Apply, Constant, Variable, FunctionDef

        def swap(node, memo={}):
            if isinstance(node, Variable):
                return Variable(3 - node.index)
            if isinstance(node, Constant):
                return node
            if id(node) in memo:
                return memo[id(node)]
            new = Apply(node.fn, tuple(swap(a) for a in node.args))
            memo[id(node)] = new
            return new

        swapped = FunctionDef("f", fdef.params, (swap(fdef.outputs[0]),))
        _, out_swapped = _jet_partials(swapped, [point[1], point[0]], 2)
        lhs = jet_extract_partial(out, (1, 1))
        rhs = jet_extract_partial(out_swapped, (1, 1))
        assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)


def test_division_round_trip():
    rng = random.Random(13)
    for basis in (STANDARD, BERZ):
        for _ in range(50):
            n = rng.randint(1, 2)
            order = rng.randint(1, 4)
            shape = jet_shape(n, order)
            a = Jet(shape, [rng.uniform(-2, 2) for _ in range(shape.size)], basis)
            b_coeffs = [rng.uniform(-2, 2) for _ in range(shape.size)]
            b_coeffs[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
            b = Jet(shape, b_coeffs, basis)
            q = a / b
            back = q * b
            for x, y in zip(back.coeffs, a.coeffs):
                assert math.isclose(x, y, rel_tol=1e-10, abs_tol=1e-10)


def test_division_matches_per_coefficient_long_division_bit_for_bit():
    # The split table only regroups the splits the long division enumerates,
    # in the same order and with the same weights, so no bit may change.
    rng = random.Random(17)
    for basis in (STANDARD, BERZ):
        for n in range(1, 5):
            for order in range(1, 7):
                shape = jet_shape(n, order)
                for _ in range(3):
                    a = Jet(shape, [rng.uniform(-2, 2) for _ in range(shape.size)], basis)
                    b_coeffs = [rng.uniform(-2, 2) for _ in range(shape.size)]
                    b_coeffs[0] = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)
                    b = Jet(shape, b_coeffs, basis)
                    assert (a / b).coeffs == jet_long_division(a, b), (n, order, basis)


def test_pair_table_equals_the_pair_scan():
    # Every shape of at most 100 coefficients, and every shape in at most
    # four variables of at most 500, (4, 8) among them: the graded build
    # equals the scan of all pairs of monomials, entry for entry.  Where the
    # (N+1)^n scan is cheap, the layout equals the scanned one too.
    shapes = [(n, order) for order in range(1, MAX_ORDER + 1) for n in range(1, 100)
              if math.comb(n + order, order) <= (500 if n <= 4 else 100)]
    assert (4, 8) in shapes and (99, 1) in shapes
    for n, order in shapes:
        shape = jet_shape(n, order)
        if (order + 1) ** n <= 10**5:
            assert shape.monomials == scanned_monomials(n, order), (n, order)
        table = shape.pair_table()
        assert table == scanned_pair_table(shape), (n, order)
        # equal weights are one float object and each position one int object,
        # so an entry costs little beyond its tuple
        for part in (slice(0, 2), slice(2, 4)):
            values = [x for row in table for entry in row for x in entry[part]]
            assert len(set(map(id, values))) == len(set(values)), (n, order, part)


def test_the_standard_table_weighs_by_one_and_the_degree_and_berz_is_the_default():
    # The standard basis runs the same loops on the Berz table's splits with
    # w = 1.0 and e = float(|r|): 1.0 * x is x, and |r| * x converts |r|.
    # With no basis named, pair_table() is still the Berz table.
    for n, order in ((1, 1), (1, 12), (2, 5), (4, 8), (30, 2)):
        shape = jet_shape(n, order)
        berz, standard = shape.pair_table(BERZ), shape.pair_table(STANDARD)
        assert shape.pair_table() is berz and berz == scanned_pair_table(shape)
        assert len(standard) == len(berz) and standard is not berz
        for row, berz_row in zip(standard, berz):
            assert [entry[:2] for entry in row] == [entry[:2] for entry in berz_row]
            for r, s, w, e in row:
                assert type(w) is float and type(e) is float
                assert (w, e) == (1.0, float(shape.degrees[r])), (n, order, r, s)
        assert shape.pair_table(STANDARD) is standard
    with pytest.raises(ValueError, match="unknown basis 'bogus'"):
        jet_shape(1, 2).pair_table("bogus")


def test_jet_algebra_refuses_an_unknown_basis():
    # A basis chooses the weights, so an unknown one is refused when the
    # algebra is built, not taken for the standard basis, whether or not the
    # program has a constant in it.
    shape = jet_shape(1, 2)
    x = jet_variable(shape, 1, 1.0)
    for source in ("f(x) = x*x", "f(x) = x*x + 1"):
        with pytest.raises(ValueError, match="unknown basis 'bogus'"):
            eval_generic(parse(source), [x], JetAlgebra(shape, "bogus"))
    assert JetAlgebra(shape, STANDARD).basis == STANDARD


def test_a_lift_reads_prefixes_of_its_own_shape():
    # A cold (5, 7) evaluation lifts exp, sin and cos through degree 7, each
    # degree reading the lower ones of its own shape's layout, and adds only
    # that shape to the cache.
    before = jets._shapes.cache_info().currsize
    shape = jet_shape(5, 7)
    fdef = parse("f(a,b,c,d,e) = exp(a*b)/(1+c^2)+sin(d*e)")
    seeds = [jet_variable(shape, i + 1, 0.25 * (i + 1), BERZ) for i in range(5)]
    out = eval_generic(fdef, seeds, JetAlgebra(shape, BERZ))[0]
    assert jets._shapes.cache_info().currsize == before + 1
    assert out.coeffs[0] == math.exp(0.125) / (1 + 0.75**2) + math.sin(1.25)


def test_jets_match_the_loops_that_tested_the_basis_in_every_split():
    # The per-basis loops, the trusted constructor and the lift weight e = |r| w
    # read from the index table change no bit: products, quotients and lifts
    # equal the former loops, whose lift rules ran again at every degree on
    # separate JetShape(n, d - 1) objects, at each program's point, at that
    # point times -3, where some lifts leave their domain, and at edge points
    # (each program takes the next ones in turn, one per variable).
    rng = random.Random(2525)
    errors = cases = 0
    for order in range(1, 7):
        for k in range(25):
            fdef, point = random_program(rng, max_vars=4)
            shape = jet_shape(fdef.n, order)
            edges = [EDGE_POINTS[(k + i) % len(EDGE_POINTS)] for i in range(fdef.n)]
            for basis in (STANDARD, BERZ):
                for x in (point, [-3.0 * c for c in point], edges):
                    jets = [jet_variable(shape, i + 1, c, basis) for i, c in enumerate(x)]
                    loops = [LoopJet(shape, list(j.coeffs), basis) for j in jets]
                    got = packed(lambda: [j.coeffs for j in eval_generic(
                        fdef, jets, JetAlgebra(shape, basis))])
                    want = packed(lambda: [j.coeffs for j in step_eval(
                        fdef, loops, LoopJetAlgebra(shape, basis))])
                    assert got == want, (unparse(fdef), order, basis, x)
                    errors += got[0] == "DomainError"
                    cases += 1
    assert 0 < errors < cases


def test_values_from_registered_functions_enter_as_floats():
    # A registered function whose value, partials and rule give ints: every
    # coefficient of its lift is a float all the same, in both bases and in
    # towers, as Jet(...) makes it of every coefficient it is given.
    twice = ElementaryFn("twice", 1, lambda a: 2 * int(a[0]), lambda a: [2],
                         lambda a: True, derivative=lambda a, f, lift: 2)
    for basis in (STANDARD, BERZ):
        for n, order in ((1, 1), (1, 2), (2, 3)):
            shape = jet_shape(n, order)
            seed = jet_variable(shape, 1, 3.0, basis)
            out = JetAlgebra(shape, basis).apply(twice, [seed])
            assert all(type(c) is float for c in out.coeffs), (basis, n, order, out)
            assert jet_extract_partial(out, (0,) * n) == 6.0
            assert jet_extract_partial(out, (1,) + (0,) * (n - 1)) == 2.0
    assert all(type(c) is float for c in Jet(jet_shape(1, 2), [6, 2, 0]).coeffs)
    tower = tower_take(TowerAlgebra().apply(twice, [tower_var(3.0)]), 6)
    assert tower == [6.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    assert all(type(c) is float for c in tower)


def _max_variables(order):
    """The most variables a jet of this order may have under MAX_SIZE."""
    n = 1
    while math.comb(n + 1 + order, order) <= MAX_SIZE:
        n += 1
    return n


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=MAX_ORDER).flatmap(
    lambda order: st.tuples(st.integers(1, _max_variables(order)), st.just(order))))
def test_layout_is_graded_lex_under_the_bound(shape_args):
    n, order = shape_args
    shape = JetShape(n, order)  # uncached: up to 2000 tuples of 1999 entries
    assert shape.size == math.comb(n + order, order)
    keys = [(sum(k), k) for k in shape.monomials]
    assert keys == sorted(keys) and len(set(keys)) == shape.size
    assert all(len(k) == n and min(k) >= 0 and sum(k) <= order for k in shape.monomials)
    assert shape.degrees == tuple(d for d, _ in keys)
    assert all(shape.position[k] == i for i, k in enumerate(shape.monomials))
    assert len(shape.position) == shape.size


def test_many_variable_shapes_build_promptly():
    # Shapes the (N+1)^n scan never finished: (30, 2) would have tested 3^30
    # index tuples, (1999, 1) 2^1999.
    for build, n, order in ((jet_shape, 30, 2), (JetShape, 1999, 1)):
        start = time.perf_counter()
        shape = build(n, order)
        table = shape.pair_table()
        assert time.perf_counter() - start < 5.0, (n, order)
        assert shape.size == math.comb(n + order, order) <= MAX_SIZE
        assert sum(map(len, table)) == math.comb(2 * n + order, order) - shape.size
    with pytest.raises(ValueError, match="2001 coefficients, more than 2000"):
        JetShape(2000, 1)
    names = [f"x{i}" for i in range(1, 31)]
    source = "f({}) = {}".format(",".join(names), " + ".join(f"{v}*{v}" for v in names))
    argv = ["diff", source, "--at", ",".join(["0.5"] * 30), "--mode", "jet", "--order", "2"]
    assert main(argv) == 0


def test_too_large_a_jet_is_refused_promptly():
    # (8, 12) would enumerate 13**8 index tuples; the size check runs first.
    assert jet_shape(4, 12).size == 1820
    start = time.perf_counter()
    with pytest.raises(ValueError, match="125970 coefficients, more than 2000"):
        jet_shape(8, 12)
    assert time.perf_counter() - start < 1.0
    source = "f(a,b,c,d,e,f,g,h) = a*b*c*d*e*f*g*h"
    argv = ["diff", source, "--at", ",".join(["1"] * 8), "--mode", "jet", "--order", "12"]
    assert main(argv) == 3


def test_orders_and_variable_counts_that_are_not_integers_are_refused():
    # Refused by name before the shape cache is read, so a float equal to a
    # cached shape's n or order is refused too.
    jet_shape(2, 2)
    before = jets._shapes.cache_info()
    for n, order, name in ((2, 2.5, "order"), (2.0, 2, "n"), (2, 2.0, "order"),
                           ("2", 2, "n"), (2, None, "order")):
        with pytest.raises(TypeError, match=f"jet_shape's {name} must be an integer"):
            jet_shape(n, order)
    assert jets._shapes.cache_info() == before
    assert jet_shape(True, 2) is jet_shape(1, 2)  # what operator.index takes


def test_max_order_enforced():
    with pytest.raises(ValueError):
        jet_shape(1, 13)
    with pytest.raises(ValueError):
        jet_shape(0, 2)
