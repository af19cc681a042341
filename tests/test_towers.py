"""Lazy derivative towers: arithmetic, Leibniz law, laziness."""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from adkit.algebras import DualAlgebra, TowerAlgebra
from adkit.catalog import CATALOG, DomainError
from adkit.counting import EvalCounter, counted_variant
from adkit.dual import Dual
from adkit.expr import eval_generic, parse
from adkit.jets import BERZ, jet_shape, jet_variable
from adkit.algebras import JetAlgebra
from adkit.towers import (
    Tower,
    tower_add,
    tower_const,
    tower_df,
    tower_div,
    tower_lift_elementary,
    tower_mul,
    tower_take,
    tower_var,
)

from conftest import random_program


def tower_from(entries):
    """A tower with the given finite prefix, zero beyond."""

    def node(i):
        head = entries[i] if i < len(entries) else 0.0
        return Tower(head, lambda: node(i + 1))

    return node(0)


def test_var_and_const():
    assert tower_take(tower_var(5.0), 4) == [5.0, 1.0, 0.0, 0.0]
    assert tower_take(tower_var(0.0), 3) == [0.0, 1.0, 0.0]
    assert tower_take(tower_df(tower_var(7.0)), 3) == [1.0, 0.0, 0.0]
    assert tower_take(tower_const(3.0), 3) == [3.0, 0.0, 0.0]
    assert tower_take(tower_df(tower_const(3.0)), 2) == [0.0, 0.0]
    a = tower_var(1.5)
    assert tower_take(tower_add(a, tower_const(0.0)), 4) == tower_take(a, 4)


def test_add():
    assert tower_take(tower_add(tower_var(2.0), tower_const(3.0)), 3) == [5.0, 1.0, 0.0]
    s = eval_generic(parse("f(x) = sin(x)"), [tower_var(0.0)], TowerAlgebra())[0]
    c = eval_generic(parse("f(x) = cos(x)"), [tower_var(0.0)], TowerAlgebra())[0]
    assert tower_take(tower_add(s, c), 4) == [1.0, 1.0, -1.0, -1.0]


def test_mul_examples():
    x = tower_var(3.0)
    assert tower_take(tower_mul(x, x), 4) == [9.0, 6.0, 2.0, 0.0]

    a = tower_from([1.5, -2.0, 0.5])
    b = tower_from([0.5, 3.0, -1.0])
    entry1 = tower_take(tower_mul(a, b), 2)[1]
    assert entry1 == a.head * 3.0 + (-2.0) * b.head  # a db + da b

    # exp * sin and its first three derivatives at c
    c = 0.7
    e, s, co = math.exp(c), math.sin(c), math.cos(c)
    prod = tower_mul(
        tower_lift_elementary(CATALOG["exp"], tower_var(c)),
        tower_lift_elementary(CATALOG["sin"], tower_var(c)),
    )
    got = tower_take(prod, 3)
    want = [e * s, e * s + e * co, 2 * e * co]  # product rule, twice
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=1e-13)


def test_div_examples():
    a = tower_from([1.2, 0.4, -0.3, 2.0])
    assert tower_take(tower_div(a, a), 4) == [1.0, 0.0, 0.0, 0.0]

    c = 1.7
    inv = tower_div(tower_const(1.0), tower_var(c))
    got = tower_take(inv, 3)
    want = [1 / c, -1 / c**2, 2 / c**3]
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=1e-13)


def test_div_defining_property():
    rng = random.Random(5)
    for _ in range(30):
        a = tower_from([rng.uniform(-2, 2) for _ in range(9)])
        # keep the inversion well-conditioned: |b0| >= 1, higher entries small
        b_entries = [rng.uniform(-1, 1) for _ in range(9)]
        b_entries[0] = rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0)
        b = tower_from(b_entries)
        back = tower_take(tower_mul(tower_div(a, b), b), 8)
        for x, y in zip(back, tower_take(a, 8)):
            assert math.isclose(x, y, rel_tol=1e-10, abs_tol=1e-10)


def test_div_by_zero_head():
    with pytest.raises(DomainError):
        tower_div(tower_var(1.0), tower_const(0.0))


def test_df_shift():
    t = tower_lift_elementary(CATALOG["exp"], tower_var(0.0))
    assert tower_df(tower_df(tower_df(t))).head == 1.0
    rng = random.Random(3)
    a = tower_from([rng.uniform(-3, 3) for _ in range(10)])
    assert tower_take(tower_df(tower_df(a)), 5) == tower_take(a, 7)[2:]
    assert tower_take(tower_df(a), 4) == tower_take(a, 5)[1:]


def test_take_prefix_monotone():
    t = eval_generic(parse("f(x) = exp(sin(x))"), [tower_var(0.4)], TowerAlgebra())[0]
    assert tower_take(t, 3) == tower_take(t, 5)[:3]
    with pytest.raises(ValueError):
        tower_take(t, 0)


def test_lift_maclaurin_prefixes():
    assert tower_take(
        tower_lift_elementary(CATALOG["exp"], tower_var(0.0)), 4
    ) == [1.0, 1.0, 1.0, 1.0]
    assert tower_take(
        tower_lift_elementary(CATALOG["sin"], tower_var(0.0)), 4
    ) == [0.0, 1.0, 0.0, -1.0]


def test_lift_domain_error_on_head():
    with pytest.raises(DomainError):
        tower_lift_elementary(CATALOG["ln"], tower_var(-2.0))


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=9, max_size=9),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=9, max_size=9),
    st.integers(min_value=0, max_value=8),
)
def test_leibniz_law_exact(xs, ys, order):
    a, b = tower_from(xs), tower_from(ys)
    got = tower_take(tower_mul(a, b), order + 1)[order]
    expected = 0.0
    for i in range(order + 1):
        weight = math.factorial(order) // (
            math.factorial(i) * math.factorial(order - i)
        )
        expected += weight * xs[i] * ys[order - i]
    assert got == expected


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(st.floats(min_value=-50, max_value=50), min_size=10, max_size=10),
    st.lists(st.floats(min_value=-50, max_value=50), min_size=10, max_size=10),
)
def test_df_product_rule(xs, ys):
    a, b = tower_from(xs), tower_from(ys)
    lhs = tower_take(tower_df(tower_mul(a, b)), 8)
    rhs = tower_take(
        tower_add(tower_mul(tower_df(a), b), tower_mul(a, tower_df(b))), 8
    )
    for k, (x, y) in enumerate(zip(lhs, rhs)):
        bound = sum(
            math.comb(k + 1, i) * abs(xs[i]) * abs(ys[k + 1 - i])
            for i in range(k + 2)
        )
        assert abs(x - y) <= 1e-12 * 4.0 * max(1.0, bound)


def test_dual_degeneration_on_random_compositions():
    rng = random.Random(99)
    for _ in range(60):
        fdef, point = random_program(rng, max_vars=1, max_outputs=1, max_ops=8)
        try:
            dual_out = eval_generic(fdef, [Dual(point[0], 1.0)], DualAlgebra())[0]
            tower_out = eval_generic(fdef, [tower_var(point[0])], TowerAlgebra())[0]
        except DomainError:
            continue
        prefix = tower_take(tower_out, 2)
        assert prefix[0] == dual_out.primal
        assert prefix[1] == dual_out.tangent


def test_jet_agreement_univariate():
    rng = random.Random(42)
    checked = 0
    for _ in range(40):
        fdef, point = random_program(rng, max_vars=1, max_outputs=1, max_ops=6)
        order = rng.randint(1, 6)
        shape = jet_shape(1, order)
        try:
            jet_out = eval_generic(
                fdef, [jet_variable(shape, 1, point[0], BERZ)], JetAlgebra(shape, BERZ)
            )[0]
            tower_out = eval_generic(fdef, [tower_var(point[0])], TowerAlgebra())[0]
        except DomainError:
            continue
        prefix = tower_take(tower_out, order + 1)
        for t, j in zip(prefix, jet_out.coeffs):
            assert math.isclose(t, j, rel_tol=1e-9, abs_tol=1e-9), (point, prefix)
        checked += 1
    assert checked > 25


def test_single_elementary_matches_jet_entry():
    rng = random.Random(8)
    points = {"exp": (0.0, 2.0), "ln": (0.5, 3.0), "sqrt": (0.5, 3.0),
              "sin": (-3.0, 3.0), "cos": (-3.0, 3.0), "tan": (-1.0, 1.0)}
    for name, (lo, hi) in points.items():
        for order in range(1, 7):
            c = rng.uniform(lo, hi)
            tower = tower_lift_elementary(CATALOG[name], tower_var(c))
            shape = jet_shape(1, order)
            jet = eval_generic(
                parse(f"g(x) = {name}(x)"),
                [jet_variable(shape, 1, c, BERZ)],
                JetAlgebra(shape, BERZ),
            )[0]
            got = tower_take(tower, order + 1)[order]
            assert math.isclose(got, jet.coeffs[order], rel_tol=1e-9, abs_tol=1e-12)


def test_laziness_forces_only_requested_depth():
    counter = EvalCounter()
    wrapped = {
        name: counted_variant(CATALOG[name], counter) for name in ("sin", "cos")
    }

    def resolve(name):
        return wrapped[name]

    t = tower_lift_elementary(wrapped["sin"], tower_var(0.3), resolve=resolve)
    assert counter.count == 1  # building the head is one value evaluation
    counts = []
    for k in range(1, 5):
        tower_take(t, k)
        counts.append(counter.count)
    # each extra depth forces exactly one more trig evaluation, never ahead
    assert counts == [1, 2, 3, 4]
    # re-taking an already-forced prefix costs nothing
    tower_take(t, 4)
    assert counter.count == 4


def test_tail_returns_the_tail_a_racing_caller_just_forced():
    # Deterministic interleaving: the second caller reads `_tail` as None,
    # and the first caller runs its whole tail() before that read returns.
    class Interleaved(Tower):
        __slots__ = ("racer",)

        @property
        def _tail(self):
            seen = Tower._tail.__get__(self)
            racer, self.racer = self.racer, None
            if racer is not None:
                racer()
            return seen

        @_tail.setter
        def _tail(self, value):
            Tower._tail.__set__(self, value)

    forced = []

    def force():
        forced.append(tower_const(2.0))
        return forced[-1]

    tower = Interleaved(1.0, force)
    first = []
    tower.racer = lambda: first.append(Tower.tail(tower))
    second = tower.tail()
    assert len(forced) == 1
    assert first == [forced[0]] and second is forced[0]
