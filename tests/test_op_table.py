"""The sweeps over the op table, by the loops and by a program's compiled
kernels, against the per-step dispatch they replaced (`oracles.step_record`,
`step_tangents`, `step_backprop` and `step_eval`): the same values,
partials, tangents and adjoints bit for bit, the same generic evaluation in
every algebra, the same DomainErrors and the same evaluation counts.  Then
which programs get kernels, and last the benchmark's own workload checks,
run untimed."""

import contextlib
import math
import random
import struct

from adkit.algebras import CountingAlgebra, DualAlgebra, RealAlgebra
from adkit.catalog import (
    ADD, CATALOG, COPY, DIV, EXP, MUL, NEG, SIN, DomainError, ElementaryFn, pow_fn,
)
from adkit.counting import EvalCounter, counted_variant
from adkit.dual import Dual
from adkit.engine import (
    _CAP, _WARM, SeedSpec, _tangents, backprop, forward_directional, jacobian, record,
)
from adkit.expr import Apply, FunctionDef, Variable, arg_slots, eval_generic, parse
from adkit.kernels import build
from adkit.jets import BERZ, STANDARD, JetAlgebra, jet_shape, jet_variable
from adkit.towers import TowerAlgebra, tower_take, tower_var

from conftest import PERFBENCH, perfbench_module, random_program
from oracles import step_backprop, step_eval, step_record, step_tangents

gen = perfbench_module("gen")

#: A quiet NaN with a payload of its own, so that payloads are compared too.
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0]
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5, -1e308,
            math.inf, -math.inf, math.nan, PAYLOAD_NAN)


def bits(xs) -> bytes:
    return struct.pack(f"<{len(xs)}d", *xs)


def _basis(k: int, j: int) -> list[float]:
    return [1.0 if i == j else 0.0 for i in range(k)]


def on_loops(fdef: FunctionDef) -> FunctionDef:
    """fdef, its program held to the loops, as a program above the cap is."""
    object.__setattr__(fdef.program, "kernels", None)
    return fdef


def on_kernels(fdef: FunctionDef) -> FunctionDef:
    """A new definition of fdef's expression whose program has warm kernels.
    A kernel's first calls run unspecialised bytecode, which can give a NaN
    another sign or payload than the warm loops do, so each kernel is first
    called sixteen times (CPython 3.11 specialises it by the eighth)."""
    clone = FunctionDef(fdef.name, fdef.params, fdef.outputs)
    program = clone.program
    record_kernel, tangent, adjoint = build(program)
    values = (1.0,) * program.dim
    partials = tuple((1.0,) * len(arg_slots(op)) for op in program.ops)
    for _ in range(16):
        with contextlib.suppress(DomainError):
            record_kernel(clone, [1.0] * program.n)
        tangent(values, partials, [1.0] * program.n)
        adjoint(partials, [1.0] * program.m)
    return clone


def outcome(fdef: FunctionDef, point, directions=(), covectors=()):
    """What the op-table sweeps give at point, and what the per-step
    dispatch gives: bit patterns, or a DomainError's message and path."""
    try:
        tape = record(fdef, point)
    except DomainError as err:
        new = ("error", str(err), err.path)
    else:
        new = (bits(tape.values), [bits(p) for p in tape.partials],
               [bits(_tangents(tape, d)) for d in directions],
               [bits(backprop(tape, y)) for y in covectors])
    try:
        values, partials = step_record(fdef, point)
    except DomainError as err:
        old = ("error", str(err), err.path)
    else:
        old = (bits(values), [bits(p) for p in partials],
               [bits(step_tangents(fdef, values, partials, d)) for d in directions],
               [bits(step_backprop(fdef, values, partials, y)) for y in covectors])
    return new, old


def _seeds(rng: random.Random, k: int) -> list[list[float]]:
    return [_basis(k, j) for j in range(k)] + [[rng.uniform(-1, 1) for _ in range(k)]]


def test_sweeps_match_the_per_step_dispatch_on_generated_programs():
    rng = random.Random(1807)
    cases = []
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        p = gen.random_program(rng, n, m, rng.randint(5, 200))
        cases.append((parse(p.source), p.point(rng)))
    cases += [random_program(rng, max_ops=40) for _ in range(100)]
    for fdef, point in cases:
        seeds = _seeds(rng, fdef.n), _seeds(rng, fdef.m)
        for path in (on_loops(fdef), on_kernels(fdef)):
            new, old = outcome(path, point, *seeds)
            assert new[0] != "error" and new == old


def test_sweeps_match_the_per_step_dispatch_on_edge_cases():
    x, y = Variable(1), Variable(2)
    seven = ElementaryFn("seven", 0, lambda a: 7.0, lambda a: [], lambda a: True)
    hypot = ElementaryFn("hypot", 2, lambda a: math.hypot(*a),
                         lambda a: [a[0] / math.hypot(*a), a[1] / math.hypot(*a)],
                         lambda a: math.hypot(*a) != 0.0)
    fma = ElementaryFn("fma", 3, lambda a: a[0] * a[1] + a[2],
                       lambda a: [a[1], a[0], 1.0], lambda a: True)
    counter = EvalCounter()
    registered = FunctionDef("f", ("x", "y"), (
        Apply(ADD, (Apply(seven, ()), Apply(hypot, (x, y)))),
        Apply(fma, (x, y, x)),
        Apply(counted_variant(MUL, counter), (x, Apply(fma, (y, y, Apply(seven, ()))))),
    ))
    programs = [
        parse("f(x, y) = (x*x, x/x, x - x, x + x, -x, x)"),    # one slot as both arguments
        parse("f(x, y) = (x*y, x/y, y - x, x + y, -y, 2*x - 0.5/y)"),
        parse("f(x, y) = let a = x*y in (exp(a), ln(x), sqrt(y), sin(a), cos(x), tan(y))"),
        parse("f(x, y) = x^3 * y^0 + (x + 1)^2 / (y*y + 1)"),
        parse("f(x, y) = (x / 1e-200, 1e-200 / y, (x*y) / (y * 1e-200))"),
        registered,
    ]
    seeds = [[1.0, 0.0], [0.0, 1.0], [math.inf, -0.0], [math.nan, 5e-324]]
    for fdef in programs:
        covectors = [_basis(fdef.m, i) for i in range(fdef.m)]
        covectors.append([(-1.0) ** i * SPECIALS[i % len(SPECIALS)] for i in range(fdef.m)])
        for path in (on_loops(fdef), on_kernels(fdef)):
            for a in SPECIALS:
                for b in SPECIALS:
                    new, old = outcome(path, [a, b], seeds, covectors)
                    assert new == old, (fdef, a, b)


def test_domain_errors_match_the_per_step_dispatch():
    cases = [
        ("f(x) = sin(x) + x/0", [1.0], "div undefined on (1.0, 0.0) (at out0.1)"),
        ("f(x) = (x, 2 * ln(x))", [-1.0], "ln undefined on (-1.0,) (at out1.1)"),
        ("f(x) = x * tan(x)", [math.inf], "tan undefined on (inf,) (at out0.1)"),
        ("f(x) = exp(x)", [709.7827128933841], "exp undefined on (709.7827128933841,) (at out0)"),
        ("f(x) = 1 + sqrt(x)", [-0.0], "sqrt undefined on (-0.0,) (at out0.1)"),
        ("f(x) = ln(x) * x", [0.0], "ln undefined on (0.0,) (at out0.0)"),
        ("f(x) = cos(x)", [-math.inf], "cos undefined on (-inf,) (at out0)"),
        ("f(x, y) = (y, x / y)", [1.0, -0.0], "div undefined on (1.0, -0.0) (at out1)"),
        ("f(x) = x * ln(0)", [2.0], "ln undefined on (0.0,) (at out0.1)"),  # a constant slot
    ]
    for source, point, message in cases:
        fdef = parse(source)
        for path in (on_loops(fdef), on_kernels(fdef)):
            new, old = outcome(path, point)
            assert new == old == ("error", message, message.split("(at ")[1][:-1])


def test_evaluation_counts_match_the_per_step_dispatch():
    x, y = Variable(1), Variable(2)
    counts = []
    for path, sweep in ((on_loops, record), (on_kernels, record), (lambda f: f, step_record)):
        counter = EvalCounter()
        mul, exp = counted_variant(MUL, counter), counted_variant(EXP, counter)
        sin = counted_variant(SIN, counter)
        fdef = path(FunctionDef("f", ("x", "y"), (
            Apply(mul, (Apply(exp, (x,)), Apply(mul, (y, Apply(exp, (y,)))))),
            Apply(sin, (Apply(SIN, (x,)),)))))
        before = counter.count  # warming kernels charges too
        sweep(fdef, [0.5, -0.25])
        counts.append(counter.count - before)
    assert counts == [6, 6, 6]  # each counted exp's and sin's value and partials


def test_kernels_write_the_rows_inline_and_call_every_other_function():
    """A record kernel holds no callable of a catalogue function with a row,
    and calls a copy of one, a registered function and a power."""
    rows = parse("f(x, y) = (exp(x), ln(y), sqrt(y), sin(x), cos(x), tan(x), x / y)")
    own = {id(c) for fn in (*CATALOG.values(), DIV) for c in (fn.value, fn.partials, fn.domain)}
    assert not own & set(map(id, build(rows.program)[0].__globals__.values()))
    x = Variable(1)
    twice = ElementaryFn("twice", 1, lambda a: 2.0 * a[0], lambda a: [2.0], lambda a: True)
    mixed = FunctionDef("f", ("x",), (
        Apply(counted_variant(SIN, EvalCounter()), (Apply(twice, (Apply(pow_fn(3), (x,)),)),)),))
    called = set(map(id, build(mixed.program)[0].__globals__.values()))
    for fn in (op[3] for op in mixed.program.ops):
        assert {id(fn.value), id(fn.partials), id(fn.domain)} <= called, fn


class RecordingAlgebra(RealAlgebra):
    """RealAlgebra that logs the name of every function it applies."""

    def __init__(self):
        self.log = []

    def apply(self, fn, args):
        self.log.append(fn.name)
        return super().apply(fn, args)


def eval_outcomes(fdef: FunctionDef, point) -> list[tuple]:
    """`eval_generic` and `step_eval` at point in the real, counting,
    recording, dual, jet (both bases, order 3) and tower (order 8) algebras:
    per algebra, a pair of results, each the outputs' bit patterns or the
    error's message and path, paired with the count or the log where the
    algebra keeps one."""
    n = len(point)
    shape = jet_shape(n, 3)
    cases = [
        (RealAlgebra, point, lambda v: [v]),
        (lambda: CountingAlgebra(EvalCounter()), point, lambda v: [v]),
        (RecordingAlgebra, point, lambda v: [v]),
        (DualAlgebra, [Dual(c, 1.0 - i) for i, c in enumerate(point)],
         lambda d: [d.primal, d.tangent]),
        *((lambda basis=basis: JetAlgebra(shape, basis),
           [jet_variable(shape, i + 1, c, basis) for i, c in enumerate(point)],
           lambda j: j.coeffs) for basis in (STANDARD, BERZ)),
        (TowerAlgebra, [tower_var(c) for c in point], lambda t: tower_take(t, 9)),
    ]
    pairs = []
    for make, inputs, read in cases:
        pair = []
        for evaluate in (eval_generic, step_eval):
            algebra = make()
            try:
                got = [bits(read(v)) for v in evaluate(fdef, inputs, algebra)]
            except DomainError as err:
                got = ("error", str(err), err.path)
            if isinstance(algebra, CountingAlgebra):
                got = (got, algebra.counter.count)
            elif isinstance(algebra, RecordingAlgebra):
                got = (got, algebra.log)
            pair.append(got)
        pairs.append(tuple(pair))
    return pairs


def test_eval_generic_matches_the_step_sweep_on_generated_programs():
    rng = random.Random(2207)
    programs = []
    for _ in range(60):
        p = gen.random_program(rng, rng.randint(1, 3), rng.randint(1, 3), rng.randint(5, 60))
        programs.append((parse(p.source), p.point(rng)))
    programs += [random_program(rng, max_ops=25) for _ in range(60)]
    for fdef, point in programs:
        edge = [rng.choice(SPECIALS) for _ in point]
        for at in (point, edge):
            for new, old in eval_outcomes(fdef, at):
                assert new == old, (fdef, at)
        # inside the sampling box, the real algebra evaluates
        assert isinstance(eval_outcomes(fdef, point)[0][0], list)


def test_eval_generic_matches_the_step_sweep_on_edge_cases():
    x, y = Variable(1), Variable(2)
    seven = ElementaryFn("seven", 0, lambda a: 7.0, lambda a: [], lambda a: True)
    copy = counted_variant(COPY, EvalCounter())
    programs = [
        FunctionDef("f", ("x", "y"), (Apply(seven, ()),)),  # a zero-argument apply
        FunctionDef("f", ("x", "y"), (Apply(MUL, (Apply(seven, ()), x)), Apply(copy, (y,)))),
        FunctionDef("f", ("x", "y"), (Apply(copy, (Apply(EXP, (x,)),)), Apply(COPY, (x,)))),
        parse("f(x, y) = let a = sin(x) in (x, 3, y * -0.0, a, a * 2)"),
    ]
    for fdef in programs:
        for a in SPECIALS:
            for b in (1.5, -0.0, math.nan):
                for new, old in eval_outcomes(fdef, [a, b]):
                    assert new == old, (fdef, a, b)
    # constants and zero-argument applies go to `constant`; a copy by COPY
    # itself reuses its source, and a copy by any other function is applied
    for fdef, log in zip(programs, ([], ["mul", "copy"], ["exp", "copy"])):
        algebra = RecordingAlgebra()
        eval_generic(fdef, [0.5, 2.0], algebra)
        assert algebra.log == log
    assert eval_generic(programs[0], [0.5, 2.0], RealAlgebra()) == [7.0]


def test_eval_generic_domain_errors_match_the_step_sweep():
    cases = [
        ("f(x) = sin(x) + x/0", [1.0], "div undefined on (1.0, 0.0) (at out0.1)"),
        ("f(x) = (x, 2 * ln(x))", [-1.0], "ln undefined on (-1.0,) (at out1.1)"),
        ("f(x) = x * tan(x)", [math.inf], "tan undefined on (inf,) (at out0.1)"),
        ("f(x, y) = let a = sqrt(x - y) in (a, a * y)", [1.0, 2.0],
         "sqrt undefined on (-1.0,) (at out0)"),
    ]
    for source, point, message in cases:
        outcomes = eval_outcomes(parse(source), point)
        assert all(new == old for new, old in outcomes)
        assert outcomes[0][0] == ("error", message, message.split("(at ")[1][:-1])


def test_a_program_builds_its_kernels_at_its_warm_th_linearization():
    fdef = parse("f(x, y) = let s = sin(x * y) in (s / y, s * s - x)")
    program = fdef.program
    assert program.kernels == 0
    tape = record(fdef, [0.5, 1.5])
    assert program.kernels == 1
    # the memo hits of every mode at the same point do not count
    forward_directional(fdef, SeedSpec.forward([0.5, 1.5], [1.0, 0.0]))
    jacobian(fdef, [0.5, 1.5], mode="reverse")
    assert record(fdef, [0.5, 1.5]) is tape and program.kernels == 1
    for k in range(2, _WARM):
        record(fdef, [0.5, 1.5 + k])
    assert program.kernels == _WARM - 1
    record(fdef, [0.5, 0.25])
    kernels = program.kernels
    assert isinstance(kernels, tuple) and len(kernels) == 3
    record(fdef, [0.5, 0.75])
    assert program.kernels is kernels


def test_a_definition_linearized_once_builds_no_kernels():
    rng = random.Random(3)
    for _ in range(20):
        p = gen.random_program(rng, rng.randint(1, 4), rng.randint(1, 4), rng.randint(5, 120))
        fdef, point = parse(p.source), p.point(rng)
        forward_directional(fdef, SeedSpec.forward(point, [1.0] * fdef.n))
        jacobian(fdef, point, mode="forward")
        jacobian(fdef, point, mode="reverse")
        backprop(record(fdef, point), [1.0] * fdef.m)
        assert fdef.program.kernels == 1


def test_a_program_above_the_cap_never_builds_kernels():
    for steps, built in ((_CAP, True), (_CAP + 1, False)):
        node = Variable(1)
        for _ in range(steps):
            node = Apply(NEG, (node,))
        fdef = FunctionDef("f", ("x",), (node,))
        assert fdef.program.mu == steps
        for k in range(_WARM + 1):
            record(fdef, [float(k)])
        kernels = fdef.program.kernels
        assert isinstance(kernels, tuple) if built else kernels is None


def test_benchmark_workload_checks_pass():
    """Untimed operations of fo-reuse, past the linearization at which its
    programs build kernels, of fresh-programs and of one block of
    higher-order, each verified by the benchmark's own `check`.  Nothing is
    written under perfbench/."""
    before = sorted((p, p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*"))
    workloads = perfbench_module("workloads")
    untimed = perfbench_module("spans").Direct
    fo_reuse = len(workloads.FoReuse.SHAPES) * (_WARM + 2)
    for workload, count in ((workloads.FoReuse, fo_reuse), (workloads.FreshPrograms, 60),
                            (workloads.HigherOrder, workloads.HigherOrder.BLOCK)):
        wl = workload(1807)
        wl.setup()
        for i in range(count):
            inp = wl.make(i)
            assert wl.check(inp, wl.run(inp, untimed)) == [], (workload.name, i)
        if workload is workloads.FoReuse:
            assert all(isinstance(f.program.kernels, tuple) for f in wl.fdefs)
    assert sorted((p, p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*")) == before
