"""Jets by one sweep of the op table over coefficient lists, and catalogue
lifts by their recorded schedules (`JetAlgebra.sweep`, `jets._Schedule`):
byte for byte, DomainError texts and paths included, against the loops
that tested the basis in every split (`oracles.LoopJetAlgebra`)."""

import copy
import math
import pickle
import random
import sys
import threading

import pytest

from adkit import jets
from adkit.catalog import CATALOG, EXP, MUL, SIN, ElementaryFn, pow_fn
from adkit.counting import EvalCounter, counted_variant
from adkit.expr import Apply, FunctionDef, Variable, eval_generic, parse
from adkit.jets import BERZ, STANDARD, JetAlgebra, JetShape, jet_shape, jet_variable

from conftest import random_program
from oracles import LoopJet, LoopJetAlgebra, packed, step_eval
from test_flat import constant_rich_program

#: Signed zeros, tiny and infinite magnitudes, NaN, exp's domain bound and
#: the next float above it, and tan's pole.
POINTS = (0.0, -0.0, 1e-200, -1e-200, math.inf, -math.inf, math.nan,
          709.782712893384, math.nextafter(709.782712893384, math.inf), math.pi / 2)


class GraphAlgebra(JetAlgebra):
    """`JetAlgebra` without its sweep: `eval_generic`'s own loop, one Jet
    and one `apply` per step."""

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


def test_sweeps_match_the_loops_at_edge_points_in_both_bases():
    # Each (n, N, basis) runs on a fresh shape: its first lifts build the
    # graph and record schedules, and the points after replay them.
    errors = cases = recorded = 0
    for fdef, point in _corpus():
        for order in range(1, 6):
            for basis in (STANDARD, BERZ):
                shape = JetShape(fdef.n, order)
                for x in (point, *([c] * fdef.n for c in POINTS), point):
                    got, want = _pair(fdef, x, shape, basis)
                    assert got == want, (fdef, order, basis, x)
                    errors += got[0] == "DomainError"
                    cases += 1
                recorded += bool(shape.schedules)
    assert 0 < errors < cases / 2
    assert recorded > 300  # of 800 (program, N, basis)


def test_flat_arguments_settle_by_the_schedules_heads():
    # Lifts of flat jets (a finite head, then signed zeros) by a schedule
    # recorded from a non-flat one, against the graph on a shape with no
    # schedule: some settle, and some (a non-finite partial or head) do not.
    fns = [CATALOG[name] for name in ("exp", "ln", "sqrt", "sin", "cos", "tan")]
    fns += [pow_fn(k) for k in (0, 1, 2, 5)]
    heads = (0.5, -0.0, 0.0, 5e-324, 1e-200, 1e300, -1e300, 709.0, 700.5, math.pi / 2, -3.0)
    settled = unsettled = 0
    for n, order in ((1, 1), (1, 2), (2, 3), (3, 4), (1, 5)):
        for basis in (STANDARD, BERZ):
            scheduled, graph = JetShape(n, order), JetShape(n, order)
            for fn in fns:
                algebra = JetAlgebra(scheduled, basis)
                algebra.apply(fn, [jet_variable(scheduled, 1, 0.75, basis)])
                assert scheduled.schedules[(fn.name, basis)].fn is fn
                for c in heads:
                    for tail in (0.0, -0.0):
                        coeffs = [c] + [tail] * (scheduled.size - 1)
                        got = packed(lambda: [algebra.apply(
                            fn, [jets.Jet(scheduled, coeffs, basis)]).coeffs])
                        want = packed(lambda: [JetAlgebra(graph, basis).apply(
                            fn, [jets.Jet(graph, coeffs, basis)]).coeffs])
                        assert got == want, (fn, n, order, basis, c, tail)
                        if got[0] != "DomainError" and order > 1:
                            rest = set(got[0][8:])
                            settled += rest == {0}
                            unsettled += rest != {0}
            assert not graph.schedules  # flat lifts record nothing
    assert settled and unsettled


def test_one_program_at_fifty_points_after_its_schedules_exist():
    rng = random.Random(77)
    fdef = parse("f(x, y) = sin(x*y)/(1 + x^2) + exp(-y)*tan(x/3) - sqrt(x*x + y*y)^3")
    for basis in (STANDARD, BERZ):
        shape = JetShape(2, 5)
        eval_generic(fdef, [jet_variable(shape, i, 0.5, basis) for i in (1, 2)],
                     JetAlgebra(shape, basis))
        recorded = dict(shape.schedules)
        assert {name for name, _ in recorded} == {"sin", "pow2", "exp", "tan", "sqrt", "pow3"}
        for _ in range(50):
            got, want = _pair(fdef, [rng.uniform(-2, 2), rng.uniform(-2, 2)], shape, basis)
            assert got == want
        assert shape.schedules == recorded  # replayed, not recorded again


def test_a_jet_whose_shape_holds_schedules_pickles_and_copies():
    # A shape pickles and deep-copies as its (n, order), a fresh shape, so
    # the schedules' catalogue functions, whose callables are lambdas, are
    # not pickled.
    shape = JetShape(2, 3)
    fdef = parse("f(x, y) = sin(x*y) + exp(y)^2")
    out = eval_generic(fdef, [jet_variable(shape, i, 0.5, BERZ) for i in (1, 2)],
                       JetAlgebra(shape, BERZ))[0]
    assert shape.schedules
    for clone in (pickle.loads(pickle.dumps(out)), copy.deepcopy(out)):
        assert clone.coeffs == out.coeffs and clone.basis == BERZ
        assert clone.shape is not shape and clone.shape.monomials == shape.monomials
        assert not clone.shape.schedules
        assert clone * clone == jets._jet(clone.shape, (out * out).coeffs, BERZ)


def test_domain_errors_keep_their_texts_and_paths():
    # A lift's domain, a zero divisor in a step and one inside a registered
    # function's rule, as the loops and as eval_generic's own loop report
    # them, before and after the shape holds schedules.
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


def test_registered_functions_and_counted_copies_keep_the_graph_and_their_counts(monkeypatch):
    # The README's sigmoid and counted copies of sin, exp, a power and mul
    # are lifted by the graph, get no schedule, and tick their counter as
    # eval_generic's own loop does.
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
                assert not {name for name, _ in shape.schedules} & {"sigmoid"}
                assert all(s.fn is not fn for s in shape.schedules.values()
                           for fn in (sin, exp, cube))


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


def test_threads_recording_and_replaying_one_shape_get_the_loops_bits():
    # Four threads (more than this host's cores) sweep one program on a fresh
    # shape at once, so two may record the same key and others replay
    # while it is stored; every result must still equal the loops'.
    fdef = parse("f(x, y) = sin(x*y) * cos(y) / (2 + exp(x)) + tan(y/4)^3 - sqrt(1 + x*x)")
    points = [[0.1 * k - 0.7, 0.05 * k + 0.3] for k in range(16)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(3):
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
            assert {name for name, _ in shape.schedules} == {"sin", "cos", "exp", "tan", "pow3", "sqrt"}
    finally:
        sys.setswitchinterval(old_interval)
