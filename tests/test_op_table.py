"""The tape sweeps over the op table against the per-step dispatch they
replaced (`oracles.step_record`, `step_tangents`, `step_backprop`): the same
values, partials, tangents and adjoints bit for bit, the same DomainErrors
and the same evaluation counts.  Last, the benchmark's own workload checks,
run untimed."""

import math
import random
import struct

from adkit.catalog import ADD, EXP, MUL, DomainError, ElementaryFn
from adkit.counting import EvalCounter, counted_variant
from adkit.engine import _tangents, backprop, record
from adkit.expr import Apply, FunctionDef, Variable, parse

from conftest import PERFBENCH, perfbench_module, random_program
from oracles import step_backprop, step_record, step_tangents

gen = perfbench_module("gen")

#: A quiet NaN with a payload of its own, so that payloads are compared too.
PAYLOAD_NAN = struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000123))[0]
SPECIALS = (0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.5, -1e308,
            math.inf, -math.inf, math.nan, PAYLOAD_NAN)


def bits(xs) -> bytes:
    return struct.pack(f"<{len(xs)}d", *xs)


def _basis(k: int, j: int) -> list[float]:
    return [1.0 if i == j else 0.0 for i in range(k)]


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
    for _ in range(300):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        p = gen.random_program(rng, n, m, rng.randint(5, 200))
        fdef, point = parse(p.source), p.point(rng)
        new, old = outcome(fdef, point, _seeds(rng, n), _seeds(rng, m))
        assert new[0] != "error" and new == old
    for _ in range(100):
        fdef, point = random_program(rng, max_ops=40)
        new, old = outcome(fdef, point, _seeds(rng, fdef.n), _seeds(rng, fdef.m))
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
        registered,
    ]
    for fdef in programs:
        for a in SPECIALS:
            for b in SPECIALS:
                seeds = [[1.0, 0.0], [0.0, 1.0], [math.inf, -0.0], [math.nan, 5e-324]]
                covectors = [_basis(fdef.m, i) for i in range(fdef.m)]
                covectors.append([(-1.0) ** i * SPECIALS[i % len(SPECIALS)]
                                  for i in range(fdef.m)])
                new, old = outcome(fdef, [a, b], seeds, covectors)
                assert new == old


def test_domain_errors_match_the_per_step_dispatch():
    cases = [
        ("f(x) = sin(x) + x/0", [1.0], "div undefined on (1.0, 0.0) (at out0.1)"),
        ("f(x) = (x, 2 * ln(x))", [-1.0], "ln undefined on (-1.0,) (at out1.1)"),
        ("f(x) = x * tan(x)", [math.inf], "tan undefined on (inf,) (at out0.1)"),
    ]
    for source, point, message in cases:
        new, old = outcome(parse(source), point)
        assert new == old == ("error", message, message.split("(at ")[1][:-1])


def test_evaluation_counts_match_the_per_step_dispatch():
    x, y = Variable(1), Variable(2)
    counts = []
    for sweep in (lambda f, c: record(f, c), step_record):
        counter = EvalCounter()
        mul, exp = counted_variant(MUL, counter), counted_variant(EXP, counter)
        fdef = FunctionDef("f", ("x", "y"), (
            Apply(mul, (Apply(exp, (x,)), Apply(mul, (y, Apply(exp, (y,)))))),))
        sweep(fdef, [0.5, -0.25])
        counts.append(counter.count)
    assert counts == [4, 4]


def test_benchmark_workload_checks_pass():
    """Untimed operations of fo-reuse and fresh-programs, each verified by
    the benchmark's own `check`.  Nothing is written under perfbench/."""
    before = sorted((p, p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*"))
    workloads = perfbench_module("workloads")
    untimed = perfbench_module("spans").Direct
    for workload, count in ((workloads.FoReuse, 144), (workloads.FreshPrograms, 60)):
        wl = workload(1807)
        wl.setup()
        for i in range(count):
            inp = wl.make(i)
            assert wl.check(inp, wl.run(inp, untimed)) == [], (workload.name, i)
    assert sorted((p, p.stat().st_mtime_ns) for p in PERFBENCH.rglob("*")) == before
