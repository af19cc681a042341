"""Dual-number algebra: arithmetic rules, ring laws, lifting."""

import math
import random
import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from adkit.catalog import ADD, CATALOG, DIV, MUL, DomainError, pow_fn
from adkit.dual import Dual, dual_add, dual_div, dual_from_real, dual_mul, lift_elementary

from oracles import central_diff

finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
duals = st.builds(Dual, finite, finite)


def test_add_componentwise():
    assert dual_add(Dual(1, 2), Dual(3, 4)) == Dual(4, 6)
    assert dual_add(Dual(1.5, -0.25), Dual(0, 0)) == Dual(1.5, -0.25)
    assert dual_add(Dual(2, -1), Dual(-2, 1)) == Dual(0, 0)


def test_mul_rule():
    assert dual_mul(Dual(1, 2), Dual(3, 4)) == Dual(3, 10)
    assert dual_mul(Dual(0, 1), Dual(0, 1)) == Dual(0, 0)  # eps * eps = 0
    assert dual_mul(Dual(1.25, -3.5), Dual(1, 0)) == Dual(1.25, -3.5)


def test_div_rule():
    # 1/(x + x'e) = 1/x - (x'/x^2) e
    x, xp = 1.7, -0.6
    inv = dual_div(Dual(1, 0), Dual(x, xp))
    assert math.isclose(inv.primal, 1 / x, rel_tol=1e-15)
    assert math.isclose(inv.tangent, -xp / x**2, rel_tol=1e-14)

    z = Dual(2.5, 0.7)
    assert dual_div(z, z) == Dual(1.0, 0.0)

    # oracle: d/dt[(6+t)/2] at t=0 is 0.5
    assert dual_div(Dual(6, 1), Dual(2, 0)) == Dual(3.0, 0.5)


def test_div_by_zero_primal_rejected():
    with pytest.raises(DomainError):
        dual_div(Dual(1, 0), Dual(0.0, 5.0))


def test_from_real():
    assert dual_from_real(5) == Dual(5, 0)
    assert dual_from_real(0) == Dual(0, 0)
    assert dual_from_real(math.pi) == Dual(math.pi, 0)


def test_lift_examples():
    out = lift_elementary(CATALOG["sin"], [Dual(0.0, 1.0)])
    assert out == Dual(0.0, 1.0)
    out = lift_elementary(CATALOG["exp"], [Dual(1.0, 0.0)])
    assert out == Dual(math.e, 0.0)


def test_lift_domain_error_names_function():
    with pytest.raises(DomainError) as err:
        lift_elementary(CATALOG["ln"], [Dual(-1.0, 1.0)])
    assert "ln" in str(err.value)
    assert "-1.0" in str(err.value)


def test_operators_match_functions():
    a, b = Dual(1.5, 2.0), Dual(-0.5, 3.0)
    assert a + b == dual_add(a, b)
    assert a * b == dual_mul(a, b)
    assert a / b == dual_div(a, b)
    assert a - b == Dual(2.0, -1.0)
    assert -a == Dual(-1.5, -2.0)
    assert 2.0 * a == Dual(3.0, 4.0)


@settings(max_examples=1000, deadline=None)
@given(duals, duals, duals)
def test_ring_laws(a, b, c):
    # commutativity is exact; associativity/distributivity up to roundoff
    # scaled by the operand magnitudes
    ab, ba = dual_mul(a, b), dual_mul(b, a)
    assert ab.primal == ba.primal and ab.tangent == ba.tangent

    scale = 1.0
    for z in (a, b, c):
        scale *= max(1.0, abs(z.primal), abs(z.tangent))
    tol = 1e-12 * 8.0 * scale

    lhs = dual_mul(dual_mul(a, b), c)
    rhs = dual_mul(a, dual_mul(b, c))
    assert abs(lhs.primal - rhs.primal) <= tol
    assert abs(lhs.tangent - rhs.tangent) <= tol

    lhs = dual_mul(a, dual_add(b, c))
    rhs = dual_add(dual_mul(a, b), dual_mul(a, c))
    assert abs(lhs.primal - rhs.primal) <= tol
    assert abs(lhs.tangent - rhs.tangent) <= tol


@settings(max_examples=1000, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
def test_nilpotency_exact(xp):
    eps = Dual(0.0, xp)
    sq = dual_mul(eps, eps)
    assert sq.primal == 0.0 and sq.tangent == 0.0


def _bits(d: Dual) -> bytes:
    # Bit for bit: equal NaNs match, 0.0 and -0.0 do not.
    return struct.pack("<2d", d.primal, d.tangent)


@settings(max_examples=500, deadline=None)
@given(duals, duals)
@example(Dual(1.0, 0.0), Dual(2.225073858507e-311, 0.0))  # quotient (inf, nan)
def test_lift_compatible_with_arithmetic(a, b):
    # lifting +, *, / must agree exactly with the dual operations
    assert _bits(lift_elementary(ADD, [a, b])) == _bits(dual_add(a, b))
    assert _bits(lift_elementary(MUL, [a, b])) == _bits(dual_mul(a, b))
    if b.primal != 0.0:
        assert _bits(lift_elementary(DIV, [a, b])) == _bits(dual_div(a, b))


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
            combined = lift_elementary(fn, [Dual(x, alpha * u + beta * v)])
            split = (
                alpha * lift_elementary(fn, [Dual(x, u)]).tangent
                + beta * lift_elementary(fn, [Dual(x, v)]).tangent
            )
            assert math.isclose(combined.tangent, split, rel_tol=1e-12, abs_tol=1e-12)


def test_finite_difference_all_unary():
    rng = random.Random(11)
    for name, (lo, hi) in UNARY_POINTS.items():
        fn = CATALOG[name]
        for _ in range(100):
            x = rng.uniform(lo, hi)
            ad = lift_elementary(fn, [Dual(x, 1.0)]).tangent
            fd = central_diff(lambda t: fn.value([t]), x)
            assert math.isclose(ad, fd, rel_tol=1e-5, abs_tol=1e-7), (name, x)


def test_pow_lift():
    for k in range(5):
        fn = pow_fn(k)
        out = lift_elementary(fn, [Dual(1.5, 1.0)])
        assert math.isclose(out.primal, 1.5**k, rel_tol=1e-15)
        expected = 0.0 if k == 0 else k * 1.5 ** (k - 1)
        assert math.isclose(out.tangent, expected, rel_tol=1e-14)
