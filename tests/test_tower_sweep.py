"""Towers by one sweep of the op table into a program state, whose lifts
replay their functions' plans (`TowerAlgebra.sweep`, `taylor.plan`): byte
for byte, DomainError texts and paths included, against `eval_generic`'s
own loop (one `Tower` per step, forced by `taylor.force`), and against the
tower formulas evaluated eagerly (`oracles.LoopTowerAlgebra`) up to which
NaN a NaN entry is.  The towers and the loops differ there already: in
CPython 3.11 a ``*`` or ``+`` of two NaNs keeps the second operand's while
its bytecode is generic and the first once it is specialized, and the
loops' operator sites warm up apart from the towers'.
"""

import math
import random
import struct
import sys
import threading

import pytest

from adkit import taylor, towers
from adkit.catalog import CATALOG, EXP, MUL, SIN, ElementaryFn, pow_fn
from adkit.counting import EvalCounter, counted_variant
from adkit.expr import Apply, FunctionDef, Variable, eval_generic, parse
from adkit.towers import Tower, TowerAlgebra, tower_const, tower_df, tower_take, tower_var

from conftest import random_program
from oracles import LoopTowerAlgebra, packed, step_eval
from test_flat import PROGRAMS, constant_rich_program

#: Signed zeros, the smallest subnormal, tiny and huge magnitudes, exp's
#: domain bound and the next float above it, tan's pole, infinities, NaN.
POINTS = (0.0, -0.0, 5e-324, 1e-200, -1e-200, 1e300, -1e300, 709.782712893384,
          math.nextafter(709.782712893384, math.inf), math.pi / 2, math.inf, -math.inf,
          math.nan, 0.5, -2.5)


class GraphAlgebra(TowerAlgebra):
    """`TowerAlgebra` without its sweep: `eval_generic`'s own loop, one
    `Tower` node per step, forced by `taylor.force`."""

    sweep = None


def _forced(fdef, point, algebra, takes, order=None):
    """The outputs at point, each forced to every k in `takes` in turn, all
    outputs (in `order`, if given) at one k before the next; every take,
    struct-packed."""
    def run():
        outs = eval_generic(fdef, [tower_var(c) for c in point], algebra)
        got = {}
        for k in takes:
            for i in order or range(len(outs)):
                got[k, i] = tower_take(outs[i], k)
        return [got[key] for key in sorted(got)]
    return packed(run)


def _loops(fdef, point, k):
    loops = LoopTowerAlgebra(k - 1)
    return packed(lambda: [t.entries for t in step_eval(
        fdef, [loops.variable(c) for c in point], loops)])


def _any_nan(outcome):
    """A packed outcome with every NaN entry made the same NaN."""
    if outcome[0] == "DomainError":
        return outcome
    return [struct.pack(f"{len(b) // 8}d", *[math.nan if x != x else x for x in
                                              struct.unpack(f"{len(b) // 8}d", b)])
            for b in outcome]


def _corpus():
    """Seeded programs in 1-3 variables with 1-3 outputs, the flat-constant
    test's programs, and constant-rich ones, each with its point."""
    rng = random.Random(3636)
    corpus = [random_program(rng, max_vars=3, max_ops=16) for _ in range(60)]
    corpus += [(parse(source), [c] * parse(source).n) for source, c in PROGRAMS]
    return corpus + [constant_rich_program(rng) for _ in range(30)]


def test_sweeps_match_the_graph_and_the_loops_at_edge_points():
    errors = cases = 0
    for fdef, point in _corpus():
        for x in (point, *([c] * fdef.n for c in POINTS)):
            got = _forced(fdef, x, TowerAlgebra(), [13])
            assert got == _forced(fdef, x, GraphAlgebra(), [13]), (fdef, x)
            assert _any_nan(got) == _any_nan(_loops(fdef, x, 13)), (fdef, x)
            errors += got[0] == "DomainError"
            cases += 1
    assert 0 < errors < cases / 2


def test_incremental_forcing_and_either_output_order_give_the_graph_s_bits():
    rng = random.Random(3637)
    checked = 0
    for fdef, point in _corpus()[::3]:
        for x in (point, [rng.choice(POINTS) for _ in point]):
            for takes in ([3, 9], [5, 3, 12], [1, 12], [12, 2]):
                want = _forced(fdef, x, GraphAlgebra(), takes)
                assert _forced(fdef, x, TowerAlgebra(), takes) == want, (fdef, x, takes)
            want = _forced(fdef, x, GraphAlgebra(), [4, 12])
            for order in (list(range(fdef.m)), list(reversed(range(fdef.m)))):
                assert _forced(fdef, x, TowerAlgebra(), [4, 12], order) == want, (fdef, x)
            checked += want[0] != "DomainError"
    assert checked > 30


def test_outputs_that_are_inputs_constants_and_copies():
    fdef = parse("f(x, y) = let v = sin(x*y) in (x, 2, v, v*y, v, 2*3, 1/3*3)")
    inputs = [tower_var(0.4), tower_var(-1.1)]
    outs = eval_generic(fdef, inputs, TowerAlgebra())
    graph = eval_generic(fdef, [tower_var(0.4), tower_var(-1.1)], GraphAlgebra())
    assert outs[0] is inputs[0]  # the input itself, as the loop returns it
    assert outs[2] is outs[4]  # one node per slot, as the loop's copies share theirs
    assert outs[1].fill is towers._zero and outs[1].entries == [2.0]  # a constant, flat
    assert [tower_take(t, 7) for t in outs] == [tower_take(t, 7) for t in graph]
    assert outs[5].fill is towers._zero  # a settled product reads as flat from then on
    assert outs[6].fill is towers._swept  # a product by a quotient does not settle


def test_operators_and_tower_df_on_swept_outputs():
    rng = random.Random(3638)
    checked = 0
    while checked < 25:
        fdef, point = random_program(rng, max_vars=1, max_outputs=1, max_ops=12)
        results = []
        for algebra in (TowerAlgebra(), GraphAlgebra()):
            def run():
                out = eval_generic(fdef, [tower_var(point[0])], algebra)[0]
                tower_take(out, 3)
                mixed = tower_df(out) * out + out / tower_const(3.0) - tower_df(tower_df(out))
                return [tower_take(mixed, 9), tower_take(TowerAlgebra().apply(SIN, [out]), 9),
                        tower_take(out.tail(4), 5)]
            results.append(packed(run))
        assert results[0] == results[1], fdef
        checked += results[0][0] != "DomainError"


def test_domain_errors_keep_their_texts_and_paths():
    cases = [
        ("f(x, y) = (sin(x), y + ln(x*y))", [-1.0, 2.0], "ln undefined on (-2.0,) (at out1.1)"),
        ("f(x, y) = exp(x)/(y - y)", [0.5, 2.0], "div undefined on (1.6487212707001282, 0.0) (at out0)"),
        ("f(x) = tan(x) + sqrt(x - 2)", [math.pi / 2], None),
        ("f(x) = exp(x*x)", [27.0], "exp undefined on (729.0,) (at out0)"),
    ]
    for source, point, text in cases:
        fdef = parse(source)
        got = _forced(fdef, point, TowerAlgebra(), [6])
        assert got == _forced(fdef, point, GraphAlgebra(), [6]) == _loops(fdef, point, 6)
        assert got[0] == "DomainError"
        if text is not None:
            assert got[1:] == (text, text.split("at ")[-1][:-1])


def test_registered_functions_and_counted_copies_replay_plans_recorded_per_lift(monkeypatch):
    # The sweep lifts them too, each by a plan recorded for that lift and
    # not cached, with the loop's bits and counts.
    def sigma(a):
        return 1.0 / (1.0 + math.exp(-a[0]))

    monkeypatch.setitem(CATALOG, "sigmoid", ElementaryFn(
        "sigmoid", 1, sigma, partials=lambda a: [(s := sigma(a)) * (1.0 - s)],
        domain=lambda a: True, derivative=lambda a, f, lift: f * (1.0 - f)))
    sigmoid = parse("f(x, y) = sigmoid(x*y) + sigmoid(sin(y))")
    counter = EvalCounter()
    sin, exp, cube = (counted_variant(fn, counter) for fn in (SIN, EXP, pow_fn(3)))
    mul = counted_variant(MUL, counter)
    x, y = Variable(1), Variable(2)
    counted = FunctionDef("g", ("x", "y"), (
        Apply(mul, (Apply(sin, (x,)), Apply(exp, (Apply(cube, (y,)),)))),))
    big = FunctionDef("h", ("x",), (Apply(pow_fn(1001), (Apply(SIN, (x,)),)),))
    for fdef in (sigmoid, counted, big):
        inputs = [tower_var(c) for c in (0.4, -1.1)[:fdef.n]]
        assert TowerAlgebra.sweep(fdef.program, inputs, []) is not None
        ticks, outcomes = [], []
        for algebra in (TowerAlgebra(), GraphAlgebra()):
            before = counter.count
            outcomes.append(_forced(fdef, [0.4, -1.1][:fdef.n], algebra, [5]))
            ticks.append(counter.count - before)
        assert outcomes[0] == outcomes[1] == _loops(fdef, [0.4, -1.1][:fdef.n], 5)
        assert ticks[0] == ticks[1]
        assert all(plan.rows[0][3] not in (sin, exp, cube) for plan in taylor._PLANS.values())
        assert "sigmoid" not in taylor._PLANS and "pow1001" not in taylor._PLANS
    assert ticks[0] == 0 and counter.count > 0


def test_an_input_that_is_not_a_flat_leaf_takes_the_loop():
    fdef = parse("f(x, y) = x*y + sin(x) / (2 + y)")
    leaf = Tower(0.5, lambda: tower_var(2.0))
    swept = eval_generic(parse("f(x) = sin(x)*x"), [tower_var(0.3)], TowerAlgebra())[0]
    for inputs in ([leaf, tower_var(0.25)], [swept, tower_const(1.5)], [0.5, tower_var(0.25)]):
        slots = []
        assert TowerAlgebra.sweep(fdef.program, inputs, slots) is None and slots == []
    got = tower_take(eval_generic(fdef, [leaf, tower_var(0.25)], TowerAlgebra())[0], 6)
    want = tower_take(eval_generic(fdef, [Tower(0.5, lambda: tower_var(2.0)), tower_var(0.25)],
                                   GraphAlgebra())[0], 6)
    assert got == want


def test_four_threads_forcing_one_output_get_the_single_thread_entries():
    fdef = parse("f(x) = exp(sin(x)) / sqrt(1 + x * x) + tan(x/3)^3 / (2 + x) - ln(2 + cos(x))")
    order = 24
    want = tower_take(eval_generic(fdef, [tower_var(0.7)], GraphAlgebra())[0], order + 1)
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            shared = eval_generic(fdef, [tower_var(0.7)], TowerAlgebra())[0]
            barrier, seen = threading.Barrier(4), []

            def force(step):
                barrier.wait(timeout=30)
                for k in range(1, order + 2, step):
                    seen.append((k, tower_take(shared, k)))

            threads = [threading.Thread(target=force, args=(s,)) for s in (1, 2, 5, 7)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(seen) == sum(len(range(1, order + 2, s)) for s in (1, 2, 5, 7))
            assert all(prefix == want[:k] for k, prefix in seen)
    finally:
        sys.setswitchinterval(old_interval)


def test_forcing_to_k_fills_only_what_the_output_reads_below_k():
    # Slots hold at most k entries; a lift's rule nodes, one fewer; the
    # slots of the other output only their heads.
    fdef = parse("f(x) = (sin(x)^3 * tan(x) / 3 + ln(2 + x), exp(x) * cos(x))")
    for k in (1, 2, 5, 9):
        slots = []
        outs = TowerAlgebra.sweep(fdef.program, [tower_var(0.3)], slots)
        assert tower_take(outs[0], k) == tower_take(
            eval_generic(fdef, [tower_var(0.3)], GraphAlgebra())[0], k)
        _, codes, reads = outs[0].extra
        assert len(slots[reads[-1]]) == k and all(len(e) <= k for e in slots[fdef.n:])
        assert all(len(slots[s]) == 1 for s in range(len(slots)) if s not in reads)
        runs = [c for c in codes if c is not None and c[0] is towers._run and len(c) == 7]
        assert len(runs) == (4 if k > 1 else 0)  # sin, pow3, tan and ln started at entry 1
        for run in runs:
            assert max(map(len, run[3][2:]), default=0) <= k - 1


def test_plans_are_recorded_once_per_function_and_close():
    fdef = parse("f(x) = sin(x) + cos(x) + tan(x) + exp(x) + ln(x) + sqrt(x) + x^4 + x^0")
    tower_take(eval_generic(fdef, [tower_var(0.6)], TowerAlgebra())[0], 2)
    plans = {name: taylor._PLANS[name] for name in
             ("sin", "cos", "tan", "exp", "ln", "sqrt", "pow4", "pow0")}
    tower_take(eval_generic(fdef, [tower_var(0.9)], TowerAlgebra())[0], 8)
    assert all(taylor._PLANS[name] is plan for name, plan in plans.items())
    # exp's g is w itself, sin's is cos's lift, whose g negates sin's, and
    # pow4's rule lifts pow3 ... pow0, whose rule is the constant 0.0:
    # every rule is recorded, round by round.
    assert plans["exp"].rows == [("unary", 0, 1, CATALOG["exp"])]
    assert [row[0] for row in plans["sin"].rows] == ["unary", "unary", "neg"]
    assert plans["sin"].ends == [1, 2, 3]
    assert [row[3].name for row in plans["pow4"].rows if row[0] == "unary"] == [
        "pow4", "pow3", "pow2", "pow1", "pow0"]


@pytest.mark.parametrize("name", ["sum", "nested", "let"])
def test_deep_programs_force_to_order_8(name):
    n = 10**4
    body = {
        "sum": " + ".join(["sin(x)"] * n),
        "nested": "sin(" * n + "x" + ")" * n,
        "let": "".join(f"let v{i} = sin({'x' if i == 0 else f'v{i - 1}'}) in "
                       for i in range(n)) + f"v{n - 1}",
    }[name]
    fdef = parse(f"f(x) = {body}")
    got = _forced(fdef, [0.3], TowerAlgebra(), [9])
    assert got == _forced(fdef, [0.3], GraphAlgebra(), [9])
    assert all(math.isfinite(e) for e in tower_take(
        eval_generic(fdef, [tower_var(0.3)], TowerAlgebra())[0], 9))
