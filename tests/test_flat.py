"""Flat constants in jets and towers: a product with a flat factor (a finite
head, then signed zeros), a quotient by one and a lift of one skip the
general kernels, and must give their bits exactly."""

import math
import random

from hypothesis import given, settings, strategies as st

from adkit.catalog import CATALOG, ElementaryFn, pow_fn
from adkit.expr import eval_generic, parse
from adkit.jets import BERZ, STANDARD, Jet, JetAlgebra, jet_shape, jet_variable
from adkit import taylor
from adkit.towers import Tower, TowerAlgebra, tower_const, tower_take, tower_var

from conftest import EDGE_POINTS
from oracles import LoopJet, LoopJetAlgebra, LoopTower, LoopTowerAlgebra, packed, step_eval

#: Constant-rich programs, each with its own point.  exp(10 x) at 70 has
#: coefficients 10^t e^700 that overflow mid-series; at x = inf every
#: product below has a factor with a non-finite head (x * 2.883 there is the
#: case that checking only the current entry gets wrong).
PROGRAMS = [
    ("f(x) = 2*x", 0.7), ("f(x) = x*3", -1.2), ("f(x) = x/4", 0.3),
    ("f(x) = sin(2)*x", 0.9), ("f(x) = x*exp(ln(1.5))", 1.1), ("f(x) = (1/3)*x^3", 0.4),
    ("f(x, y) = tan(1.2)*x*y", 0.6), ("f(x) = -(2.5)*x", 1.3), ("f(x) = 1e300*x", 2.0),
    ("f(x) = x*1e308", 1.5), ("f(x) = x/1e-300", 0.8), ("f(x) = exp(x)*2", 709.0),
    ("f(x) = sqrt(2)/x", 0.5), ("f(x) = x * 2.883", 0.25), ("f(x) = exp(10*x)*2", 70.0),
    ("f(x) = 0.5*exp(10*x)/3", 70.0), ("f(x, y, z) = (x + ln(2)*y)/(cos(1)*z)", 0.2),
    ("f(x) = sin(3*sqrt(2))*x^2/(2*cos(0.5)) + tan(1/7)", -0.7),
    ("f(x) = 1e300*1e300*2*x", 0.5), ("f(x) = x*(1e300*1e300)/3", 0.5),
]

_CONSTANTS = ("2", "0.5", "3", "1.5", "7", "1e300", "1e-300", "0", "(-0.25)")
_FUNCTIONS = ("exp", "ln", "sqrt", "sin", "cos", "tan")


def constant_rich_program(rng: random.Random):
    """A seeded program over 1-3 variables where many subexpressions read
    only constants, and its point."""
    names = "xyz"[:rng.randint(1, 3)]

    def term(depth: int) -> str:
        roll = rng.random()
        if depth == 0 or roll < 0.3:
            return rng.choice(names) if rng.random() < 0.4 else rng.choice(_CONSTANTS)
        if roll < 0.5:
            return f"{rng.choice(_FUNCTIONS)}({term(depth - 1)})"
        if roll < 0.6:
            return f"({term(depth - 1)})^{rng.randint(0, 4)}"
        return f"({term(depth - 1)} {rng.choice('+-**//')} {term(depth - 1)})"

    source = f"f({', '.join(names)}) = {' * '.join(term(3) for _ in range(2))}"
    return parse(source), [rng.uniform(0.2, 1.5) for _ in names]


def _corpus():
    rng = random.Random(2727)
    corpus = [(parse(source), [c] * parse(source).n) for source, c in PROGRAMS]
    return corpus + [constant_rich_program(rng) for _ in range(24)]


def test_constant_rich_jets_match_the_general_kernels():
    # Byte for byte, DomainError text and path included, at each program's
    # point and at every edge point, in both bases for N = 1..6.
    errors = cases = 0
    for fdef, point in _corpus():
        for order in range(1, 7):
            shape = jet_shape(fdef.n, order)
            for basis in (STANDARD, BERZ):
                for x in (point, *([e] * fdef.n for e in EDGE_POINTS)):
                    jets = [jet_variable(shape, i + 1, c, basis) for i, c in enumerate(x)]
                    loops = [LoopJet(shape, list(j.coeffs), basis) for j in jets]
                    got = packed(lambda: [j.coeffs for j in eval_generic(
                        fdef, jets, JetAlgebra(shape, basis))])
                    want = packed(lambda: [j.coeffs for j in step_eval(
                        fdef, loops, LoopJetAlgebra(shape, basis))])
                    assert got == want, (fdef, order, basis, x)
                    errors += got[0] == "DomainError"
                    cases += 1
    assert 0 < errors < cases / 2


def test_constant_rich_towers_match_the_formulas_evaluated_eagerly():
    order, loops = 24, LoopTowerAlgebra(24)
    errors = cases = 0
    for fdef, point in _corpus():
        if fdef.n != 1:
            continue
        for c in (point[0], *EDGE_POINTS):
            got = packed(lambda: [tower_take(t, order + 1) for t in eval_generic(
                fdef, [tower_var(c)], TowerAlgebra())])
            want = packed(lambda: [t.entries for t in step_eval(
                fdef, [loops.variable(c)], loops)])
            assert got == want, (fdef, c)
            errors += got[0] == "DomainError"
            cases += 1
    assert 0 < errors < cases / 2


_SPECIAL = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e305,
                            1.7e308, -1.7e308, math.inf, -math.inf, math.nan, -math.nan])
_ANY = st.one_of(_SPECIAL, st.floats(allow_nan=True, allow_infinity=True),
                 st.floats(-1e3, 1e3))
_HEAD = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                  st.sampled_from([0.0, -0.0, 5e-324, 1.7e308, 3.0]))


def _flat_tower(head: float, z1: float, z: float) -> Tower:
    """The flat tower (head, z1, z, z, ...) for signed zeros z1 and z, built
    by the operators: a quotient by -1 negates a flat tower, and pow1's lift
    keeps entries 0 and 1 and sets +0.0 after them."""
    def negated(c):
        return c / -1.0

    def lifted(c):
        return TowerAlgebra().apply(pow_fn(1), [c])

    signs = math.copysign(1.0, z1), math.copysign(1.0, z)
    if signs == (1.0, 1.0):
        return tower_const(head)
    if signs == (1.0, -1.0):
        return negated(lifted(negated(tower_const(head))))
    if signs == (-1.0, -1.0):
        return negated(tower_const(-head))
    return lifted(negated(tower_const(-head)))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_flat_arithmetic_matches_the_loop_oracles(data):
    # c is flat: a finite head, then random signed zeros; y is anything.
    # c * y, y * c, y / c and c / y equal the general kernels byte for byte,
    # as jets in both bases and as towers forced to order 12.
    n, order = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    shape = jet_shape(n, order)
    head = data.draw(_HEAD)
    zeros = data.draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=shape.size - 1,
                               max_size=shape.size - 1))
    ys = data.draw(st.lists(_ANY, min_size=shape.size, max_size=shape.size))
    for basis in (STANDARD, BERZ):
        c, y = Jet(shape, [head, *zeros], basis), Jet(shape, ys, basis)
        lc, ly = LoopJet(shape, c.coeffs, basis), LoopJet(shape, y.coeffs, basis)
        for op in (lambda a, b: a * b, lambda a, b: b * a, lambda a, b: b / a,
                   lambda a, b: a / b):
            got = packed(lambda: [op(c, y).coeffs])
            assert got == packed(lambda: [op(lc, ly).coeffs]), (basis, shape)

    z1, z = zeros[0], data.draw(st.sampled_from([0.0, -0.0]))
    entries = [head, z1] + [z] * 11
    ys = data.draw(st.lists(_ANY, min_size=13, max_size=13))
    c = _flat_tower(head, z1, z)
    assert packed(lambda: [tower_take(c, 13)]) == packed(lambda: [entries])
    assert taylor.flat(c)
    y = Tower(ys[0], lambda: _leaf(ys, 1))
    for op in (lambda a, b: a * b, lambda a, b: b * a, lambda a, b: b / a,
               lambda a, b: a / b):
        got = packed(lambda: [tower_take(op(c, y), 13)])
        assert got == packed(lambda: [op(LoopTower(entries), LoopTower(ys)).entries])


def _leaf(entries: list, k: int) -> Tower:
    head = entries[k] if k < len(entries) else 0.0
    return Tower(head, lambda: _leaf(entries, k + 1))


def test_a_flat_lift_runs_its_rule_inside_tower_take_once(monkeypatch):
    # sin(2) builds g = cos(2) when its entry 1 is taken, not when built,
    # runs sin's rule and cos's rule once each, and reads zeros after.
    rules = []
    wrapped = {name: type(fn)(name, 1, fn.value, fn.partials, fn.domain, derivative=(
        lambda a, f, lift, fn=fn: rules.append(fn.name) or fn.derivative(a, f, lift)))
               for name, fn in ((n, CATALOG[n]) for n in ("sin", "cos"))}
    monkeypatch.setattr(taylor, "lookup", wrapped.__getitem__)
    t = TowerAlgebra().apply(wrapped["sin"], [tower_const(2.0)])
    assert rules == []
    assert tower_take(t, 2) == [math.sin(2.0), 0.0]
    assert rules == ["sin", "cos"] and taylor.flat(t)  # settled, g never filled
    assert tower_take(t * tower_var(0.5), 25)[:3] == [0.5 * math.sin(2.0), math.sin(2.0), 0.0]
    assert rules == ["sin", "cos"]
    shape = jet_shape(2, 4)
    jet = JetAlgebra(shape, BERZ).apply(wrapped["sin"], [JetAlgebra(shape, BERZ).constant(2.0)])
    assert jet.coeffs == [math.sin(2.0)] + [0.0] * (shape.size - 1)
    assert rules == ["sin", "cos", "sin", "cos"]


def test_a_flat_lift_settles_only_on_finite_partials_and_heads():
    # Registered rules may lift ln, whose own g = 1/u overflows at a
    # subnormal u while ln(u) is finite, or pow3, whose value overflows at
    # 1e103; and a jet's first partial may be inf where its rule reads only
    # f: the lifts then read nan, as the general kernels give them.
    fns = [ElementaryFn("via_ln", 1, lambda a: 0.0, lambda a: [1.0], lambda a: True,
                        derivative=lambda a, f, lift: 2.0 * lift("ln")),
           ElementaryFn("via_pow", 1, lambda a: 0.0, lambda a: [1.0], lambda a: True,
                        derivative=lambda a, f, lift: 2.0 * lift("pow3")),
           ElementaryFn("spike", 1, lambda a: 1.0, lambda a: [math.inf], lambda a: True,
                        derivative=lambda a, f, lift: f)]
    for fn in fns:
        for c in (5e-324, 2.5, 1e100, 1e300):
            for order in (1, 2, 5):
                for basis in (STANDARD, BERZ):
                    shape = jet_shape(2, order)
                    got = packed(lambda: [JetAlgebra(shape, basis).apply(
                        fn, [Jet(shape, [c] + [0.0] * (shape.size - 1), basis)]).coeffs])
                    loops = LoopJetAlgebra(shape, basis)
                    want = packed(lambda: [loops.apply(fn, [loops.constant(c)]).coeffs])
                    assert got == want, (fn.name, c, order, basis)
            got = packed(lambda: [tower_take(TowerAlgebra().apply(fn, [tower_const(c)]), 9)])
            loops = LoopTowerAlgebra(8)
            assert got == packed(lambda: [loops.apply(fn, [loops.constant(c)]).entries])
