"""Lazy derivative towers: arithmetic, Leibniz law, laziness."""

import gc
import math
import random
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from adkit.catalog import CATALOG, COPY, DomainError, lookup
from adkit.counting import EvalCounter, counted_variant
from adkit.dual import Dual, DualAlgebra
from adkit.expr import eval_generic, parse, unparse
from adkit.jets import BERZ, JetAlgebra, jet_shape, jet_variable
from adkit import taylor, towers
from adkit.towers import (
    MAX_TOWER_ORDER,
    Tower,
    TowerAlgebra,
    tower_const,
    tower_df,
    tower_take,
    tower_var,
)

from conftest import EDGE_POINTS, random_program
from oracles import LoopTowerAlgebra, packed, step_eval


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
    assert tower_take(a + tower_const(0.0), 4) == tower_take(a, 4)


def test_add():
    assert tower_take(tower_var(2.0) + tower_const(3.0), 3) == [5.0, 1.0, 0.0]
    s = eval_generic(parse("f(x) = sin(x)"), [tower_var(0.0)], TowerAlgebra())[0]
    c = eval_generic(parse("f(x) = cos(x)"), [tower_var(0.0)], TowerAlgebra())[0]
    assert tower_take(s + c, 4) == [1.0, 1.0, -1.0, -1.0]


def test_mul_examples():
    x = tower_var(3.0)
    assert tower_take(x * x, 4) == [9.0, 6.0, 2.0, 0.0]

    a = tower_from([1.5, -2.0, 0.5])
    b = tower_from([0.5, 3.0, -1.0])
    entry1 = tower_take(a * b, 2)[1]
    assert entry1 == a.head * 3.0 + (-2.0) * b.head  # a db + da b

    # exp * sin and its first three derivatives at c
    c = 0.7
    e, s, co = math.exp(c), math.sin(c), math.cos(c)
    prod = (
        TowerAlgebra().apply(CATALOG["exp"], [tower_var(c)])
        * TowerAlgebra().apply(CATALOG["sin"], [tower_var(c)])
    )
    got = tower_take(prod, 3)
    want = [e * s, e * s + e * co, 2 * e * co]  # product rule, twice
    for g, w in zip(got, want):
        assert math.isclose(g, w, rel_tol=1e-13)


def test_div_examples():
    a = tower_from([1.2, 0.4, -0.3, 2.0])
    assert tower_take(a / a, 4) == [1.0, 0.0, 0.0, 0.0]

    c = 1.7
    inv = tower_const(1.0) / tower_var(c)
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
        back = tower_take(a / b * b, 8)
        for x, y in zip(back, tower_take(a, 8)):
            assert math.isclose(x, y, rel_tol=1e-10, abs_tol=1e-10)


def test_div_by_zero_head():
    with pytest.raises(DomainError):
        tower_var(1.0) / tower_const(0.0)


def test_df_shift():
    t = TowerAlgebra().apply(CATALOG["exp"], [tower_var(0.0)])
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
        TowerAlgebra().apply(CATALOG["exp"], [tower_var(0.0)]), 4
    ) == [1.0, 1.0, 1.0, 1.0]
    assert tower_take(
        TowerAlgebra().apply(CATALOG["sin"], [tower_var(0.0)]), 4
    ) == [0.0, 1.0, 0.0, -1.0]


def test_lift_domain_error_on_head():
    with pytest.raises(DomainError):
        TowerAlgebra().apply(CATALOG["ln"], [tower_var(-2.0)])


@settings(max_examples=1000, deadline=None)
@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=9, max_size=9),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=9, max_size=9),
    st.integers(min_value=0, max_value=8),
)
def test_leibniz_law_exact(xs, ys, order):
    a, b = tower_from(xs), tower_from(ys)
    got = tower_take(a * b, order + 1)[order]
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
    lhs = tower_take(tower_df(a * b), 8)
    rhs = tower_take(tower_df(a) * b + a * tower_df(b), 8)
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
        # a tower is the n = 1 Berz jet, read through the same split table
        assert tower_take(tower_out, order + 1) == jet_out.coeffs, (unparse(fdef), point)
        checked += 1
    assert checked > 25


def test_jet_agreement_to_order_12_with_divisions():
    # Towers and the order-12 Berz jet run the same loops over equal split
    # tables, so they agree to the last bit through order 12, quotients too.
    rng = random.Random(1212)
    order = 12
    shape = jet_shape(1, order)
    checked = 0
    while checked < 40:
        fdef, point = random_program(rng, max_vars=1, max_outputs=1, max_ops=12)
        if not any(op[0] == "div" for op in fdef.program.ops):
            continue
        try:
            jet = eval_generic(
                fdef, [jet_variable(shape, 1, point[0], BERZ)], JetAlgebra(shape, BERZ)
            )[0].coeffs
            tower = eval_generic(fdef, [tower_var(point[0])], TowerAlgebra())[0]
        except DomainError:
            continue
        assert tower_take(tower, order + 1) == jet, (unparse(fdef), point)
        checked += 1


def test_closed_forms_to_order_24():
    rel = 1e-14  # 1/x accumulates one rounding per order; exp and sin none
    for c in (0.3, 1.7, -2.5):
        inv = tower_take(tower_const(1.0) / tower_var(c), 25)
        for k, got in enumerate(inv):
            want = (-1) ** k * math.factorial(k) / c ** (k + 1)
            assert math.isclose(got, want, rel_tol=rel), (c, k)
        exp = tower_take(TowerAlgebra().apply(CATALOG["exp"], [tower_var(c)]), 25)
        for got in exp:
            assert math.isclose(got, math.exp(c), rel_tol=rel), c
        sin = tower_take(TowerAlgebra().apply(CATALOG["sin"], [tower_var(c)]), 25)
        cycle = (math.sin(c), math.cos(c), -math.sin(c), -math.cos(c))
        for k, got in enumerate(sin):
            assert math.isclose(got, cycle[k % 4], rel_tol=rel), (c, k)


def test_concurrent_forcing_gives_the_single_thread_prefix():
    fdef = parse("f(x) = exp(sin(x)) / sqrt(1 + x * x) + sin(x) / (2 + x)")
    order = 30
    want = tower_take(eval_generic(fdef, [tower_var(0.7)], TowerAlgebra())[0], order + 1)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            shared = eval_generic(fdef, [tower_var(0.7)], TowerAlgebra())[0]
            barrier = threading.Barrier(4)
            seen = []

            def force(step):
                barrier.wait(timeout=30)
                for k in range(1, order + 2, step):
                    seen.append((k, tower_take(shared, k)))
                seen.append((order + 1, tower_take(shared, order + 1)))

            threads = [threading.Thread(target=force, args=(s,)) for s in (1, 2, 3, 7)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(seen) == sum(len(range(1, order + 2, s)) + 1 for s in (1, 2, 3, 7))
            for k, prefix in seen:
                assert prefix == want[:k], k
    finally:
        sys.setswitchinterval(old_interval)


def test_single_elementary_matches_jet_entry():
    rng = random.Random(8)
    points = {"exp": (0.0, 2.0), "ln": (0.5, 3.0), "sqrt": (0.5, 3.0),
              "sin": (-3.0, 3.0), "cos": (-3.0, 3.0), "tan": (-1.0, 1.0)}
    points.update({f"pow{k}": (-2.0, 2.0) for k in range(5)}, copy=(-2.0, 2.0))
    for name, (lo, hi) in points.items():
        fn = COPY if name == "copy" else lookup(name)
        for order in range(1, 7):
            c = rng.uniform(lo, hi)
            tower = TowerAlgebra().apply(fn, [tower_var(c)])
            shape = jet_shape(1, order)
            jet = JetAlgebra(shape, BERZ).apply(fn, [jet_variable(shape, 1, c, BERZ)])
            got = tower_take(tower, order + 1)[order]
            assert math.isclose(got, jet.coeffs[order], rel_tol=1e-9, abs_tol=1e-12)


def test_orders_past_the_bound_are_refused_before_any_forcing():
    # From entry 1021 a lift's weight r * binom(d, r) overflows, and exp's
    # tower, e^c in every entry, would read nan.
    t = TowerAlgebra().apply(lookup("exp"), [tower_var(0.5)])
    with pytest.raises(ValueError, match="exceeds 1020"):
        tower_take(t, MAX_TOWER_ORDER + 2)
    assert t.entries == [math.exp(0.5)]  # nothing was forced

    shifted = tower_var(0.5)  # the shift derivation meets the bound too
    for _ in range(MAX_TOWER_ORDER):
        shifted = tower_df(shifted)
    assert shifted.head == 0.0
    with pytest.raises(ValueError, match="exceeds 1020"):
        tower_df(shifted)

    # An order that is not an integer is refused by name, before the split
    # table grows or anything is forced.
    splits = len(towers._SPLITS)
    for k in (2.5, "3", 3.0, None, float(splits + 5)):
        with pytest.raises(TypeError, match="tower_take's k must be an integer"):
            tower_take(t, k)
    assert len(towers._SPLITS) == splits and t.entries == [math.exp(0.5)]


def test_a_leaf_without_a_callable_tail_is_refused():
    for tail_fn in (None, 5.0, tower_const(1.0)):
        with pytest.raises(TypeError, match="tail_fn must be callable"):
            Tower(1.0, tail_fn)


def test_a_tail_that_is_not_a_tower_is_refused_when_read():
    for bad in (5.0, None, [2.0, 3.0]):
        leaf = Tower(1.0, lambda bad=bad: bad)
        with pytest.raises(TypeError, match="not a Tower"):
            tower_take(leaf, 3)
        with pytest.raises(TypeError, match="not a Tower"):
            tower_df(leaf)
        with pytest.raises(TypeError, match="not a Tower"):
            tower_take(leaf * tower_var(2.0), 2)
    assert tower_take(Tower(1.0, lambda: tower_var(3.0)), 3) == [1.0, 3.0, 1.0]


def test_tower_take_refuses_what_is_not_a_tower():
    for bad in (2.0, 3, None, [1.0, 0.0]):
        with pytest.raises(TypeError, match="tower_take needs a Tower"):
            tower_take(bad, 3)


def test_binomial_rows_are_exact_and_an_order_1020_tower_forces_promptly():
    start = time.perf_counter()
    t = TowerAlgebra().apply(lookup("exp"), [tower_var(0.5)])
    entries = tower_take(t, MAX_TOWER_ORDER + 1)
    assert time.perf_counter() - start < 5.0
    assert len(entries) == 1021
    assert all(math.isclose(e, math.exp(0.5), rel_tol=1e-12) for e in entries)
    # The split table is built by Pascal's rule on integers, each binomial
    # rounded once, and its lift weight r binom(d, r) formed from that float.
    for d in (0, 1, 2, 57, 500, 1020):
        want = [float(math.comb(d, r)) for r in range(1, d + 1)]
        assert towers._SPLITS[d] == [(r, d - r, c, r * c) for r, c in enumerate(want, 1)], d
    # Through order 12 it is the n = 1 Berz jet's table, entry for entry.
    assert towers._SPLITS[:13] == jet_shape(1, 12).pair_table(BERZ)


def test_laziness_forces_only_requested_depth(monkeypatch):
    counter = EvalCounter()
    wrapped = {
        name: counted_variant(CATALOG[name], counter) for name in ("sin", "cos")
    }

    def resolve(name):
        return wrapped[name]

    monkeypatch.setattr(taylor, "lookup", resolve)  # the lifts a rule names
    t = TowerAlgebra().apply(wrapped["sin"], [tower_var(0.3)])
    assert counter.count == 1  # building the head is one value evaluation
    counts = []
    for k in range(1, 5):
        tower_take(t, k)
        counts.append(counter.count)
    # the first tail builds the one cos tower; deeper entries reuse it and
    # the sin tower itself, and nothing is evaluated ahead
    assert counts == [1, 2, 2, 2]
    # re-taking an already-forced prefix costs nothing
    tower_take(t, 4)
    assert counter.count == 2


def test_lift_family_evaluates_each_function_once(monkeypatch):
    counter = EvalCounter()
    wrapped = {
        name: counted_variant(CATALOG[name], counter)
        for name in ("exp", "sin", "cos")
    }
    per_name = {}

    def resolve(name):
        per_name[name] = per_name.get(name, 0) + 1
        return wrapped[name]

    monkeypatch.setattr(taylor, "lookup", resolve)  # the lifts a rule names
    inner = TowerAlgebra().apply(wrapped["sin"], [tower_var(0.3)])
    t = TowerAlgebra().apply(wrapped["exp"], [inner])
    prefix = tower_take(t, 25)
    # exp and sin for the heads, cos once for sin's whole tail
    assert counter.count == 3
    assert per_name == {"cos": 1}
    monkeypatch.undo()
    plain = TowerAlgebra().apply(
        CATALOG["exp"], [TowerAlgebra().apply(CATALOG["sin"], [tower_var(0.3)])]
    )
    assert prefix == tower_take(plain, 25)

    # Jets build g once too: a jet lift runs its rule once at N = 6, where
    # re-running it per degree took 5 runs, and not at all at N = 1, and
    # sin's lift evaluates cos's value once.
    sin, cos = CATALOG["sin"], CATALOG["cos"]
    rules, cos_values = [], []
    wrapped = {
        "sin": type(sin)("sin", 1, sin.value, sin.partials, sin.domain, derivative=(
            lambda a, f, lift: rules.append(f) or sin.derivative(a, f, lift))),
        "cos": type(cos)("cos", 1, lambda a: cos_values.append(a) or cos.value(a),
                         cos.partials, cos.domain, derivative=cos.derivative),
    }
    monkeypatch.setattr(taylor, "lookup", wrapped.__getitem__)
    for order, runs in ((6, 1), (1, 0)):
        rules.clear()
        cos_values.clear()
        shape = jet_shape(2, order)
        seed = jet_variable(shape, 1, 0.3, BERZ) * jet_variable(shape, 2, 0.5, BERZ)
        jet = JetAlgebra(shape, BERZ).apply(wrapped["sin"], [seed])
        assert (len(rules), len(cos_values)) == (runs, runs), order
        assert jet == JetAlgebra(shape, BERZ).apply(sin, [seed])


def test_two_threads_reading_one_unforced_leaf_run_its_tail_fn_once():
    # tail_fn waits for a second call.  Unlocked, both readers run it and get
    # different tails; memoised under the forcing lock, the second reader
    # waits for the first, whose wait times out, and reads its tail.
    barrier = threading.Barrier(2, timeout=1)
    calls = []

    def tail_fn():
        tail = tower_const(2.0)
        calls.append(tail)
        try:
            barrier.wait()
        except threading.BrokenBarrierError:
            pass
        return tail

    leaf = Tower(1.0, tail_fn)
    tails = [None, None]

    def read(i):
        tails[i] = leaf.tail()

    threads = [threading.Thread(target=read, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert len(calls) == 1
    assert tails[0] is tails[1] is calls[0]


def test_tower_df_refuses_what_is_not_a_tower():
    for bad in (2.0, None, Dual(1.0, 1.0)):
        with pytest.raises(TypeError, match=f"tower_df needs a Tower, not {type(bad).__name__}"):
            tower_df(bad)


def test_a_tower_lift_refuses_what_is_not_a_tower():
    sin = CATALOG["sin"]
    for bad in (2.0, None, Dual(1.0, 1.0)):
        want = f"a tower lift needs a Tower, not {type(bad).__name__}"
        with pytest.raises(TypeError, match=want):
            TowerAlgebra().apply(sin, [bad])
        with pytest.raises(TypeError, match=want):
            towers.lift(sin, [bad])


def _tower_jet_dual(fdef, c, order):
    shape = jet_shape(1, order)
    tower = eval_generic(fdef, [tower_var(c)], TowerAlgebra())[0]
    jet = eval_generic(fdef, [jet_variable(shape, 1, c, BERZ)], JetAlgebra(shape, BERZ))[0]
    dual = eval_generic(fdef, [Dual(c, 1.0)], DualAlgebra())[0]
    return tower_take(tower, order + 1), jet.coeffs, dual


def test_towers_are_n1_berz_jets_to_order_12():
    # One lift formula for both modes, so every entry is the jet's
    # coefficient; identically constant outputs (rounding noise only) too.
    rng = random.Random(613)
    corpus = []
    while len(corpus) < 300:
        fdef, point = random_program(rng, max_vars=1, max_outputs=1, max_ops=12)
        corpus.append((fdef, point[0]))
    for body in ("-(v*v)/v + v", "v*v/v - v", "(v + v)/2 - v"):
        for fn in ("sin", "exp", "tan", "ln", "sqrt", "cos"):
            fdef = parse(f"f(x) = let v = {fn}(x) in {body}")
            corpus += [(fdef, c) for c in (0.3, 0.7, 1.1)]
    names, checked = set(), 0
    for fdef, c in corpus:
        try:
            tower, jet, _ = _tower_jet_dual(fdef, c, 12)
        except DomainError:
            continue
        assert tower == jet, (fdef, c)
        names.update(fn.name for *_, fn in fdef.program.ops if fn is not None)
        checked += 1
    assert checked > 250
    assert {"div", "exp", "ln", "sqrt", "sin", "cos", "tan"} <= names


def test_towers_match_the_formulas_evaluated_eagerly():
    # Byte for byte, so signed zeros and NaN payloads count, which `==`
    # does not see: every entry to order 24 equals the tower formulas
    # evaluated eagerly, with each lift's rule run again at every degree, at
    # each program's point and at the edge points, DomainErrors included.
    rng = random.Random(2626)
    order, loops = 24, LoopTowerAlgebra(24)
    errors = cases = 0
    for _ in range(40):
        fdef, point = random_program(rng, max_vars=1, max_ops=12)
        for c in (point[0], *EDGE_POINTS):
            got = packed(lambda: [tower_take(t, order + 1) for t in eval_generic(
                fdef, [tower_var(c)], TowerAlgebra())])
            want = packed(lambda: [t.entries for t in step_eval(
                fdef, [loops.variable(c)], loops)])
            assert got == want, (unparse(fdef), c)
            errors += got[0] == "DomainError"
            cases += 1
    assert 0 < errors < cases


def test_entries_0_and_1_are_the_dual_value_and_tangent():
    # Entry 0 is the dual's value bit for bit.  Entry 1 equals the tangent
    # and may differ from it only in the sign of a zero: the dual sums its
    # tangent from +0.0, and the tower keeps the sign of a zero product.
    rng = random.Random(617)
    signed_zeros = 0
    for _ in range(300):
        fdef, point = random_program(rng, max_vars=1, max_outputs=1, max_ops=12)
        try:
            tower, _, dual = _tower_jet_dual(fdef, point[0], 1)
        except DomainError:
            continue
        assert tower[0].hex() == dual.primal.hex()
        assert tower[1] == dual.tangent
        if tower[1].hex() != dual.tangent.hex():
            assert tower[1] == 0.0
            signed_zeros += 1
    assert signed_zeros > 0  # the corpus reaches the case the rule is about


def test_forced_towers_leave_no_cyclic_garbage():
    fdef = parse("f(x) = exp(sin(x))*tan(x)/sqrt(1+x*x)")

    def leaf_reading_itself():
        leaf = Tower(0.7, lambda: tower_const(leaf.head))
        return leaf

    gc.collect()
    gc.disable()
    try:
        for _ in range(50):
            tower_take(eval_generic(fdef, [tower_var(0.7)], TowerAlgebra())[0], 17)
            tower_take(leaf_reading_itself(), 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_forcing_inside_forcing_gives_the_same_entries():
    # A shifted view of an operation is a leaf whose tails force that
    # operation, so forcing can re-enter while another forcing is under way.
    rng = random.Random(3)
    checked = 0
    while checked < 60:
        fdef, point = random_program(rng, max_vars=1, max_outputs=1, max_ops=10)

        def build():
            return eval_generic(fdef, [tower_var(point[0])], TowerAlgebra())[0]

        try:
            ref = tower_take(build(), 14)
        except DomainError:
            continue
        leaf = tower_from(ref)
        want = tower_take(tower_df(leaf) * leaf + tower_df(tower_df(leaf)), 11)
        for primed in (0, 2, 3):
            t = build()
            if primed:
                tower_take(tower_df(t), primed)
            got = tower_df(t) * t + tower_df(tower_df(t))
            assert tower_take(got, 11) == want
            assert tower_take(t, 14) == ref
        checked += 1
    # A leaf read before a lift whose first tail forces the lift's entry 1:
    # the lift's derivative is then built outside the outer fill order.
    later = []
    leaf = Tower(0.0, lambda: (tower_take(later[0], 2), tower_const(0.0))[1])
    negated = -leaf
    later.append(TowerAlgebra().apply(CATALOG["sin"], [tower_var(0.4)]))
    got = tower_take(negated + later[0], 9)
    assert got == tower_take(TowerAlgebra().apply(CATALOG["sin"], [tower_var(0.4)]), 9)
