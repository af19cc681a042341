"""Dual-number algebra: arithmetic rules, ring laws, lifting, and the float
promotion shared by every lifted scalar."""

import math
import operator
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from adkit.catalog import ADD, CATALOG, DIV, MUL, DomainError, pow_fn
from adkit.dual import Dual, DualAlgebra
from adkit.jets import BERZ, STANDARD, Jet, jet_constant, jet_shape
from adkit.towers import Tower, tower_const, tower_take

from oracles import central_diff

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
duals = st.builds(Dual, finite, finite)


def test_add_componentwise():
    assert Dual(1, 2) + Dual(3, 4) == Dual(4, 6)
    assert Dual(1.5, -0.25) + Dual(0, 0) == Dual(1.5, -0.25)
    assert Dual(2, -1) + Dual(-2, 1) == Dual(0, 0)


def test_mul_rule():
    assert Dual(1, 2) * Dual(3, 4) == Dual(3, 10)
    assert Dual(0, 1) * Dual(0, 1) == Dual(0, 0)  # eps * eps = 0
    assert Dual(1.25, -3.5) * Dual(1, 0) == Dual(1.25, -3.5)


def test_div_rule():
    # 1/(x + x'e) = 1/x - (x'/x^2) e
    x, xp = 1.7, -0.6
    inv = Dual(1, 0) / Dual(x, xp)
    assert math.isclose(inv.primal, 1 / x, rel_tol=1e-15)
    assert math.isclose(inv.tangent, -xp / x**2, rel_tol=1e-14)

    z = Dual(2.5, 0.7)
    assert z / z == Dual(1.0, 0.0)

    # oracle: d/dt[(6+t)/2] at t=0 is 0.5
    assert Dual(6, 1) / Dual(2, 0) == Dual(3.0, 0.5)


def test_div_by_zero_primal_rejected():
    with pytest.raises(DomainError):
        Dual(1, 0) / Dual(0.0, 5.0)


def test_from_real():
    assert DualAlgebra.constant(5) == Dual(5, 0)
    assert DualAlgebra.constant(0) == Dual(0, 0)
    assert DualAlgebra.constant(math.pi) == Dual(math.pi, 0)


def test_lift_examples():
    out = DualAlgebra().apply(CATALOG["sin"], [Dual(0.0, 1.0)])
    assert out == Dual(0.0, 1.0)
    out = DualAlgebra().apply(CATALOG["exp"], [Dual(1.0, 0.0)])
    assert out == Dual(math.e, 0.0)


def test_lift_domain_error_names_function():
    with pytest.raises(DomainError) as err:
        DualAlgebra().apply(CATALOG["ln"], [Dual(-1.0, 1.0)])
    assert "ln" in str(err.value)
    assert "-1.0" in str(err.value)


def test_a_dual_lift_refuses_what_is_not_a_dual():
    for bad in (2.0, None, jet_constant(jet_shape(1, 2), 1.0), tower_const(1.0)):
        with pytest.raises(TypeError, match=f"a dual lift needs Duals, not {type(bad).__name__}"):
            DualAlgebra().apply(CATALOG["sin"], [bad])


def test_operators_match_functions():
    a, b = Dual(1.5, 2.0), Dual(-0.5, 3.0)
    apply = DualAlgebra().apply
    assert a + b == apply(ADD, [a, b])
    assert a * b == apply(MUL, [a, b])
    assert a / b == apply(DIV, [a, b])
    assert a - b == Dual(2.0, -1.0)
    assert -a == Dual(-1.5, -2.0)
    assert 2.0 * a == Dual(3.0, 4.0)


@settings(max_examples=1000, deadline=None)
@given(duals, duals, duals)
def test_ring_laws(a, b, c):
    # commutativity is exact; associativity/distributivity up to roundoff
    # scaled by the operand magnitudes
    ab, ba = a * b, b * a
    assert ab.primal == ba.primal and ab.tangent == ba.tangent

    scale = 1.0
    for z in (a, b, c):
        scale *= max(1.0, abs(z.primal), abs(z.tangent))
    tol = 1e-12 * 8.0 * scale

    lhs = (a * b) * c
    rhs = a * (b * c)
    assert abs(lhs.primal - rhs.primal) <= tol
    assert abs(lhs.tangent - rhs.tangent) <= tol

    lhs = a * (b + c)
    rhs = a * b + a * c
    assert abs(lhs.primal - rhs.primal) <= tol
    assert abs(lhs.tangent - rhs.tangent) <= tol


@settings(max_examples=1000, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_nilpotency_exact(xp):
    eps = Dual(0.0, xp)
    sq = eps * eps
    assert sq.primal == 0.0 and sq.tangent == 0.0


def _bits(d: Dual) -> bytes:
    # Bit for bit: equal NaNs match, 0.0 and -0.0 do not.
    return struct.pack("<2d", d.primal, d.tangent)


@settings(max_examples=500, deadline=None)
@given(duals, duals)
@example(Dual(1.0, 0.0), Dual(2.225073858507e-311, 0.0))  # quotient (inf, nan)
def test_lift_compatible_with_arithmetic(a, b):
    # lifting +, *, / must agree exactly with the dual operations
    apply = DualAlgebra().apply
    assert _bits(apply(ADD, [a, b])) == _bits(a + b)
    assert _bits(apply(MUL, [a, b])) == _bits(a * b)
    if b.primal != 0.0:
        assert _bits(apply(DIV, [a, b])) == _bits(a / b)


UNARY_POINTS = {
    "exp": (-3.0, 3.0),
    "ln": (0.1, 5.0),
    "sqrt": (0.1, 5.0),
    "sin": (-5.0, 5.0),
    "cos": (-5.0, 5.0),
    "tan": (-1.2, 1.2),
}


def test_tangent_linearity():
    rng = random.Random(7)
    for name, (lo, hi) in UNARY_POINTS.items():
        fn = CATALOG[name]
        for _ in range(50):
            x = rng.uniform(lo, hi)
            u, v = rng.uniform(-2, 2), rng.uniform(-2, 2)
            alpha, beta = rng.uniform(-2, 2), rng.uniform(-2, 2)
            combined = DualAlgebra().apply(fn, [Dual(x, alpha * u + beta * v)])
            split = (
                alpha * DualAlgebra().apply(fn, [Dual(x, u)]).tangent
                + beta * DualAlgebra().apply(fn, [Dual(x, v)]).tangent
            )
            assert math.isclose(combined.tangent, split, rel_tol=1e-12, abs_tol=1e-12)


def test_finite_difference_all_unary():
    rng = random.Random(11)
    for name, (lo, hi) in UNARY_POINTS.items():
        fn = CATALOG[name]
        for _ in range(100):
            x = rng.uniform(lo, hi)
            ad = DualAlgebra().apply(fn, [Dual(x, 1.0)]).tangent
            fd = central_diff(lambda t: fn.value([t]), x)
            assert math.isclose(ad, fd, rel_tol=1e-5, abs_tol=1e-7), (name, x)


def test_pow_lift():
    for k in range(5):
        fn = pow_fn(k)
        out = DualAlgebra().apply(fn, [Dual(1.5, 1.0)])
        assert math.isclose(out.primal, 1.5**k, rel_tol=1e-15)
        expected = 0.0 if k == 0 else k * 1.5 ** (k - 1)
        assert math.isclose(out.tangent, expected, rel_tol=1e-14)


def test_hash_agrees_with_equality():
    assert Dual(2.0) == 2.0 and hash(Dual(2.0)) == hash(2.0)
    assert len({Dual(2.0), 2.0}) == 1
    assert len({Dual(2.0, 1.0), Dual(2.0), Dual(-0.0), 0.0}) == 3
    assert {Dual(1.5, 0.25): "x"}[Dual(1.5, 0.25)] == "x"


#: Entries that make shortcuts visible: signed zeros, a subnormal,
#: infinities and NaNs of either sign (x86 keeps the first NaN of a sum).
SPECIAL = [1.5, -0.0, 5e-324, math.inf, math.nan, -math.inf, -2.0, -math.nan]


def _outcome(f, bits_of):
    try:
        return bits_of(f())
    except DomainError as err:  # a zero divisor: both sides must refuse alike
        return type(err).__name__, str(err)


def test_a_float_operand_is_promoted_to_the_algebras_constant():
    # c op x must be const(c) op x bit for bit, and x op c must be
    # x op const(c): no scaling of coefficients, no swapping of operands.
    ops = (operator.add, operator.sub, operator.mul, operator.truediv)
    floats = [0.0, -0.0, 5e-324, math.inf, -math.inf, 2.5, -math.nan]
    rotations = [SPECIAL[k:] + SPECIAL[:k] for k in range(len(SPECIAL))]

    def leaf(entries):  # a tower with the given entries, then zeros
        return Tower(entries[0], lambda: leaf(entries[1:] + [0.0]))

    kinds = [
        ("dual", Dual, [Dual(r[0], r[1]) for r in rotations],
         lambda d: struct.pack("2d", d.primal, d.tangent)),
        ("tower", tower_const, [leaf(r) for r in rotations],
         lambda t: struct.pack("6d", *tower_take(t, 6))),
    ]
    for basis in (STANDARD, BERZ):
        for shape in (jet_shape(1, 4), jet_shape(2, 2)):
            kinds.append((
                f"jet {shape} {basis}",
                lambda c, shape=shape, basis=basis: jet_constant(shape, c, basis),
                [Jet(shape, (r * 2)[:shape.size], basis) for r in rotations],
                lambda j: struct.pack(f"{len(j.coeffs)}d", *j.coeffs),
            ))
    for name, const, xs, bits_of in kinds:
        for x in xs:
            for c in floats:
                for op in ops:
                    where = (name, op.__name__, c)
                    assert (_outcome(lambda: op(c, x), bits_of)
                            == _outcome(lambda: op(const(c), x), bits_of)), where
                    assert (_outcome(lambda: op(x, c), bits_of)
                            == _outcome(lambda: op(x, const(c)), bits_of)), where
