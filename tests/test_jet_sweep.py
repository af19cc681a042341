"""Jets by one sweep of the op table over coefficient lists, and lifts by
their functions' recorded plans (`JetAlgebra.sweep`, `taylor.plan`): byte
for byte, DomainError texts and paths included, against the loops that
tested the basis in every split (`oracles.LoopJetAlgebra`)."""

import copy
import math
import pickle
import random
import sys
import threading

import pytest

from adkit import jets, taylor
from adkit.catalog import ADD, CATALOG, EXP, MUL, SIN, ElementaryFn, pow_fn
from adkit.counting import EvalCounter, counted_variant
from adkit.expr import Apply, FunctionDef, Variable, eval_generic, parse
from adkit.jets import BERZ, STANDARD, JetAlgebra, JetShape, jet_shape, jet_variable
from adkit.towers import TowerAlgebra, tower_take, tower_var

from conftest import random_program
from oracles import LoopJet, LoopJetAlgebra, LoopTowerAlgebra, packed, step_eval
from test_flat import constant_rich_program

#: Signed zeros, tiny and infinite magnitudes, NaN, exp's domain bound and
#: the next float above it, and tan's pole.
POINTS = (0.0, -0.0, 1e-200, -1e-200, math.inf, -math.inf, math.nan,
          709.782712893384, math.nextafter(709.782712893384, math.inf), math.pi / 2)


class GraphAlgebra(JetAlgebra):
    """`JetAlgebra` without its sweep: `eval_generic`'s own loop, one Jet
    and one `apply` per step."""

    sweep = None


class TowerLoop(TowerAlgebra):
    """`TowerAlgebra` without its sweep: one `Tower` and one `apply` per step."""

    sweep = None


def _pair(fdef, point, shape, basis):
    """The sweep's packed outputs and the loop oracle's at point."""
    seeds = [jet_variable(shape, i + 1, c, basis) for i, c in enumerate(point)]
    loops = [LoopJet(shape, list(j.coeffs), basis) for j in seeds]
    got = packed(lambda: [j.coeffs for j in eval_generic(fdef, seeds, JetAlgebra(shape, basis))])
    want = packed(lambda: [j.coeffs for j in step_eval(fdef, loops, LoopJetAlgebra(shape, basis))])
    return got, want


def _corpus():
    """Seeded programs in 1-4 variables, and constant-rich ones, each with
    its point."""
    rng = random.Random(3535)
    seeded = {}
    while len(seeded) < 48:
        fdef, point = random_program(rng, max_vars=4, max_ops=16)
        if sum(k[0] == fdef.n for k in seeded) < 12:
            seeded[(fdef.n, len(seeded))] = (fdef, point)
    return [*seeded.values(), *(constant_rich_program(rng) for _ in range(32))]


def test_sweeps_match_the_loops_at_edge_points_in_both_bases(monkeypatch):
    # Each (n, N, basis) runs on a fresh shape, and the plan cache starts
    # empty: the first lift of each function records its plan, and every
    # lift after, on any shape and basis, replays it.
    monkeypatch.setattr(taylor, "_PLANS", {})
    errors = cases = 0
    for fdef, point in _corpus():
        for order in range(1, 6):
            for basis in (STANDARD, BERZ):
                shape = JetShape(fdef.n, order)
                for x in (point, *([c] * fdef.n for c in POINTS), point):
                    got, want = _pair(fdef, x, shape, basis)
                    assert got == want, (fdef, order, basis, x)
                    errors += got[0] == "DomainError"
                    cases += 1
    assert 0 < errors < cases / 2
    assert {"exp", "ln", "sqrt", "sin", "cos", "tan", "pow2", "pow4"} <= set(taylor._PLANS)


def test_flat_arguments_settle_by_the_schedules_heads():
    # Lifts of flat jets (a finite head, then signed zeros) by the plan, the
    # schedule that non-flat ones replay, against the loops: some settle,
    # and some (a non-finite partial or head) do not.  At N = 1 no rule runs.
    fns = [CATALOG[name] for name in ("exp", "ln", "sqrt", "sin", "cos", "tan")]
    fns += [pow_fn(k) for k in (0, 1, 2, 5)]
    heads = (0.5, -0.0, 0.0, 5e-324, 1e-200, 1e300, -1e300, 709.0, 700.5, math.pi / 2, -3.0)
    settled = unsettled = 0
    for n, order in ((1, 1), (1, 2), (2, 3), (3, 4), (1, 5)):
        for basis in (STANDARD, BERZ):
            shape, loops = JetShape(n, order), LoopJetAlgebra(jet_shape(n, order), basis)
            for fn in fns:
                algebra = JetAlgebra(shape, basis)
                algebra.apply(fn, [jet_variable(shape, 1, 0.75, basis)])
                assert order == 1 or taylor._PLANS[fn.name].rows[0][3] is fn
                for c in heads:
                    for tail in (0.0, -0.0):
                        coeffs = [c] + [tail] * (shape.size - 1)
                        got = packed(lambda: [algebra.apply(
                            fn, [jets.Jet(shape, coeffs, basis)]).coeffs])
                        want = packed(lambda: [loops.apply(
                            fn, [LoopJet(jet_shape(n, order), coeffs, basis)]).coeffs])
                        assert got == want, (fn, n, order, basis, c, tail)
                        if got[0] != "DomainError" and order > 1:
                            rest = set(got[0][8:])
                            settled += rest == {0}
                            unsettled += rest != {0}
    assert settled and unsettled


def test_one_program_at_fifty_points_after_its_schedules_exist():
    rng = random.Random(77)
    fdef = parse("f(x, y) = sin(x*y)/(1 + x^2) + exp(-y)*tan(x/3) - sqrt(x*x + y*y)^3")
    names = ("sin", "pow2", "exp", "tan", "sqrt", "pow3")
    for basis in (STANDARD, BERZ):
        shape = JetShape(2, 5)
        eval_generic(fdef, [jet_variable(shape, i, 0.5, basis) for i in (1, 2)],
                     JetAlgebra(shape, basis))
        recorded = {name: taylor._PLANS[name] for name in names}
        for _ in range(50):
            got, want = _pair(fdef, [rng.uniform(-2, 2), rng.uniform(-2, 2)], shape, basis)
            assert got == want
        # replayed, not recorded again
        assert all(taylor._PLANS[name] is plan for name, plan in recorded.items())


def test_a_jet_pickles_and_copies_with_a_fresh_shape():
    # A shape pickles and deep-copies as its (n, order), a fresh shape
    # whose tables are derived again.
    shape = JetShape(2, 3)
    fdef = parse("f(x, y) = sin(x*y) + exp(y)^2")
    out = eval_generic(fdef, [jet_variable(shape, i, 0.5, BERZ) for i in (1, 2)],
                       JetAlgebra(shape, BERZ))[0]
    for clone in (pickle.loads(pickle.dumps(out)), copy.deepcopy(out)):
        assert clone.coeffs == out.coeffs and clone.basis == BERZ
        assert clone.shape is not shape and clone.shape.monomials == shape.monomials
        assert clone * clone == jets._jet(clone.shape, (out * out).coeffs, BERZ)


def test_domain_errors_keep_their_texts_and_paths():
    # A lift's domain, a zero divisor in a step and one inside a registered
    # function's rule, as the loops and as eval_generic's own loop report
    # them, on the first evaluation and on the next.
    inverse = ElementaryFn("inverse_rule", 1, lambda a: a[0], lambda a: [1.0],
                           lambda a: True, derivative=lambda a, f, lift: 1.0 / a)
    x, y = Variable(1), Variable(2)
    cases = [
        (parse("f(x, y) = (sin(x), y + ln(x*y))"), [-1.0, 2.0], "ln undefined on (-2.0,) (at out1.1)"),
        (parse("f(x, y) = exp(x)/(y - y)"), [0.5, 2.0], "div undefined on (1.6487212707001282, 0.0) (at out0)"),
        (FunctionDef("f", ("x", "y"), (Apply(inverse, (Apply(CATALOG["sin"], (x,)),)),)),
         [0.0, 1.0], "div undefined on (1.0, 0.0) (at out0)"),
    ]
    for fdef, point, text in cases:
        for order in (2, 4):
            for basis in (STANDARD, BERZ):
                shape = jet_shape(2, order)
                for _ in range(2):
                    got, want = _pair(fdef, point, shape, basis)
                    assert got == want == ("DomainError", text, text.split("at ")[-1][:-1])
                    seeds = [jet_variable(shape, i + 1, c, basis) for i, c in enumerate(point)]
                    assert packed(lambda: [j.coeffs for j in eval_generic(
                        fdef, seeds, GraphAlgebra(shape, basis))]) == got


def test_registered_functions_and_counted_copies_replay_plans_recorded_per_lift(monkeypatch):
    # The README's sigmoid and counted copies of sin, exp, a power and mul
    # are lifted by plans recorded for that lift, none cached, and tick
    # their counter as eval_generic's own loop does.
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
    for fdef in (sigmoid, counted):
        for order in (1, 3):
            for basis in (STANDARD, BERZ):
                shape = JetShape(2, order)
                got, want = _pair(fdef, [0.4, -1.1], shape, basis)
                assert got == want
                ticks = []
                for algebra in (JetAlgebra(shape, basis), GraphAlgebra(shape, basis)):
                    before = counter.count
                    seeds = [jet_variable(shape, i, c, basis) for i, c in ((1, 0.4), (2, -1.1))]
                    out = packed(lambda: [j.coeffs for j in eval_generic(fdef, seeds, algebra)])
                    assert out == got
                    ticks.append(counter.count - before)
                # sin and exp take a value and a first partial each; powers
                # and mul cost nothing
                assert ticks == ([4, 4] if fdef is counted else [0, 0])
                assert "sigmoid" not in taylor._PLANS
                assert all(plan.rows[0][3] not in (sin, exp, cube) for plan in taylor._PLANS.values())


def test_inputs_of_another_shape_or_basis_take_eval_generic_s_own_loop():
    fdef = parse("f(x, y) = x*y + sin(x) + 2")
    shape, other = jet_shape(2, 3), jet_shape(2, 2)
    cases = [
        [jet_variable(shape, 1, 0.5, STANDARD), jet_variable(shape, 2, 0.5, STANDARD)],
        [jet_variable(other, 1, 0.5, BERZ), jet_variable(other, 2, 0.5, BERZ)],
        [jet_variable(shape, 1, 0.5, BERZ), jet_variable(other, 2, 0.5, BERZ)],
        [0.5, 0.25],
    ]
    for inputs in cases:
        outcomes = []
        for algebra in (JetAlgebra(shape, BERZ), GraphAlgebra(shape, BERZ)):
            slots = []
            assert algebra.sweep is None or algebra.sweep(fdef.program, inputs, slots) is None
            assert slots == []
            with pytest.raises((ValueError, TypeError)) as err:
                eval_generic(fdef, inputs, algebra)
            outcomes.append((type(err.value), str(err.value)))
        assert outcomes[0] == outcomes[1]


def test_threads_recording_and_replaying_one_shape_get_the_loops_bits(monkeypatch):
    # Four threads (more than this host's cores) sweep one program on a fresh
    # shape, with no plan cached, at once, so two may record the same plan
    # and others replay it while it is stored; every result must still
    # equal the loops'.
    fdef = parse("f(x, y) = sin(x*y) * cos(y) / (2 + exp(x)) + tan(y/4)^3 - sqrt(1 + x*x)")
    points = [[0.1 * k - 0.7, 0.05 * k + 0.3] for k in range(16)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
            monkeypatch.setattr(taylor, "_PLANS", {})
            shape = JetShape(2, 4)
            want = [_pair(fdef, p, JetShape(2, 4), BERZ)[1] for p in points]
            barrier, seen = threading.Barrier(4), []

            def sweep(k):
                barrier.wait(timeout=30)
                for i in range(k, len(points), 4):
                    seen.append((i, _pair(fdef, points[i], shape, BERZ)[0]))

            threads = [threading.Thread(target=sweep, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert sorted(i for i, _ in seen) == list(range(len(points)))
            assert all(got == want[i] for i, got in seen)
            assert set(taylor._PLANS) == {"sin", "cos", "exp", "tan", "pow3", "sqrt"}
    finally:
        sys.setswitchinterval(old_interval)


def test_a_rule_that_lifts_two_functions_in_one_round_matches_the_loops():
    # A registered rule whose round lifts sin and exp, then divides by
    # a - 1.0: their rules are recorded in the next round in creation order,
    # and at 1.0 the division's DomainError is the one raised, as jets in
    # both bases, as the tower sweep, `eval_generic`'s own loop over towers
    # and a library lift, and as the loops.
    fn = ElementaryFn("two_lifts", 1, lambda a: 0.5 * a[0], lambda a: [0.5], lambda a: True,
                      derivative=lambda a, f, lift: lift("sin") * lift("exp") / (a - 1.0))
    x, y = Variable(1), Variable(2)
    fdef = FunctionDef("f", ("x", "y"), (
        Apply(ADD, (Apply(fn, (Apply(MUL, (x, y)),)), y)),))
    rng = random.Random(3737)
    points = [[rng.uniform(-2, 2), rng.uniform(0.2, 2)] for _ in range(6)] + [[1.0, 1.0]]
    errors = 0
    for point in points:
        for order in range(1, 6):
            for basis in (STANDARD, BERZ):
                got, want = _pair(fdef, point, JetShape(2, order), basis)
                assert got == want, (point, order, basis)
                errors += got[0] == "DomainError"
        u = point[0] * point[1]
        loops = LoopTowerAlgebra(5)
        want = packed(lambda: [loops.apply(fn, [loops.variable(u)]).entries])
        lifted = packed(lambda: [tower_take(TowerAlgebra().apply(fn, [tower_var(u)]), 6)])
        assert lifted[:2] == want[:2]
        one = FunctionDef("g", ("x",), (Apply(fn, (x,)),))
        for algebra in (TowerAlgebra(), TowerLoop()):
            assert packed(lambda: [tower_take(eval_generic(one, [tower_var(u)], algebra)[0], 6)]) == lifted
    assert errors == 8  # N = 2..5 in both bases at 1.0; N = 1 runs no rule
    assert lifted[:2] == ("DomainError", "div undefined on (2.2873552871788423, 0.0)")


def test_flat_lifts_replay_one_plan_per_function(monkeypatch):
    # sin(2) and exp(0.5) lift flat constants: over jets of three shapes in
    # both bases and over towers, each function's plan is recorded once,
    # and every lift replays that one object.
    monkeypatch.setattr(taylor, "_PLANS", {})
    recorded, replayed = [], {}
    record, plan = taylor.record, taylor.plan
    monkeypatch.setattr(taylor, "record", lambda fn, *rounds: recorded.append(fn.name) or record(fn, *rounds))
    monkeypatch.setattr(taylor, "plan", lambda fn, *rounds: replayed.setdefault(fn.name, []).append(
        plan(fn, *rounds)) or replayed[fn.name][-1])
    fdef = parse("f(x, y) = x*sin(2) + y*exp(0.5)")
    rng = random.Random(2020)
    points = [[rng.uniform(-2, 2), rng.uniform(-2, 2)] for _ in range(20)]
    for point in points:
        for order in (2, 3, 5):
            for basis in (STANDARD, BERZ):
                got, want = _pair(fdef, point, JetShape(2, order), basis)
                assert got == want
        out = eval_generic(fdef, [tower_var(c) for c in point], TowerAlgebra())[0]
        loops = LoopTowerAlgebra(7)
        assert packed(lambda: [tower_take(out, 8)]) == packed(lambda: [step_eval(
            fdef, [loops.variable(c) for c in point], loops)[0].entries])
    assert sorted(recorded) == ["exp", "sin"]
    assert {name: len(plans) for name, plans in replayed.items()} == {"sin": 140, "exp": 140}
    assert all(len(set(map(id, plans))) == 1 for plans in replayed.values())
