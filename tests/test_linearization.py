"""One linearization per point: the flat tape that forward and reverse mode
both sweep, its bits against the dual-number sweep and the per-entry tape
loop, and the one-tape memo on the compiled program."""

import math
import random
import struct
import sys
import threading

from adkit.algebras import CountingAlgebra, DualAlgebra
from adkit.catalog import ADD, CATALOG, DIV, MUL, NEG, SUB, pow_fn
from adkit.counting import EvalCounter
from adkit.dual import Dual
from adkit.engine import _WARM, SeedSpec, backprop, forward_directional, jacobian, record
from adkit.expr import Apply, Constant, FunctionDef, Variable, eval_generic, parse
from adkit.trace import compile_program, forward_derivative, reverse_derivative

from conftest import random_program
from oracles import decode, entry_gradient


def bits(xs) -> bytes:
    return struct.pack(f"{len(xs)}d", *xs)


def outcome(f):
    """f()'s result as bits, or its exception's type and message."""
    try:
        result = f()
    except Exception as err:  # compared across both sides, never swallowed
        return type(err).__name__, str(err)
    if isinstance(result, tuple):
        return tuple(bits(r) for r in result)
    return [bits(r) for r in result] if result and isinstance(result[0], list) else bits(result)


def dual_sweep(fdef, point, direction):
    inputs = [Dual(c, d) for c, d in zip(point, direction)]
    out = eval_generic(fdef, inputs, DualAlgebra())
    return [o.primal for o in out], [o.tangent for o in out]


def fresh(fdef: FunctionDef) -> FunctionDef:
    """The same expression as a new definition, with its own program."""
    return FunctionDef(fdef.name, fdef.params, fdef.outputs)


def _signed_zero_defs() -> list[FunctionDef]:
    x, y = Variable(1), Variable(2)
    zero, nzero = Constant(0.0), Constant(-0.0)
    sin, ln = CATALOG["sin"], CATALOG["ln"]
    outputs = (
        Apply(MUL, (nzero, x)),
        Apply(ADD, (x, zero)),
        Apply(SUB, (nzero, Apply(sin, (y,)))),
        Apply(DIV, (nzero, Apply(ADD, (x, Constant(3.0))))),
        Apply(NEG, (Apply(MUL, (zero, y)),)),
        Apply(pow_fn(0), (x,)),
        Apply(pow_fn(3), (Apply(MUL, (x, y)),)),
        Apply(ln, (Apply(ADD, (Apply(MUL, (x, x)), Constant(1.0))),)),
        nzero,
    )
    return [FunctionDef("z", ("x", "y"), outputs)]


def corpus(seed: int, programs: int = 300):
    """(definition, point) pairs: seeded random programs at their own point
    and with inputs swapped for 0.0 or -0.0 (a domain error is then an
    outcome like any other), and signed-zero constants at signed-zero and
    ordinary points."""
    rng = random.Random(seed)
    for _ in range(programs):
        fdef, point = random_program(rng)
        yield fdef, point
        yield fdef, [rng.choice([0.0, -0.0, c]) for c in point]
    for fdef in _signed_zero_defs():
        for point in ([0.0, -0.0], [-0.0, 0.0], [1.5, -0.25], [-2.0, 0.5]):
            yield fdef, point


def test_corpus_covers_every_step_kind_and_signed_zeros():
    names, zeros = set(), set()
    for fdef, point in corpus(71):
        steps = decode(fdef.program)
        names.update(fn.name if slots else "const" for fn, slots, _ in steps)
        zeros.update(str(c) for c in point if c == 0.0)
        zeros.update(str(fn) for fn, slots, _ in steps if not slots)
    kinds = {"add", "sub", "mul", "div", "neg", "const", "exp", "ln", "sqrt", "sin", "cos", "tan"}
    assert kinds <= names
    assert {"pow0", "pow1", "pow2", "pow3", "pow4"} <= names
    assert {"0.0", "-0.0"} <= zeros


def test_forward_is_the_dual_sweep_bit_for_bit():
    rng = random.Random(72)
    for fdef, point in corpus(71):
        direction = [rng.choice([rng.uniform(-2, 2), 1.0, 0.0, -0.0]) for _ in point]
        want = outcome(lambda: dual_sweep(fresh(fdef), point, direction))
        got = outcome(lambda: forward_directional(fdef, SeedSpec.forward(point, direction)))
        assert got == want, (fdef, point, direction)


def test_forward_jacobian_is_per_column_dual_sweeps():
    for fdef, point in corpus(73):
        n, m = fdef.n, fdef.m

        def columns():
            cols = [dual_sweep(fdef, point, [float(i == j) for i in range(n)])[1]
                    for j in range(n)]
            return [[cols[j][i] for j in range(n)] for i in range(m)]

        want = outcome(columns)
        assert outcome(lambda: jacobian(fdef, point, mode="forward")) == want, fdef


def test_backprop_is_the_entry_loop_bit_for_bit():
    rng = random.Random(74)
    for fdef, point in corpus(75):
        ybar = [rng.choice([rng.uniform(-2, 2), 1.0, 0.0]) for _ in range(fdef.m)]
        want = outcome(lambda: entry_gradient(fdef, point, ybar))
        # the per-entry loop has no node path in its domain errors
        got = outcome(lambda: backprop(record(fresh(fdef), point), ybar))
        if isinstance(want, tuple) and want[0] == "DomainError":
            assert got[0] == "DomainError" and got[1].startswith(want[1] + " (at out")
            continue
        assert got == want, fdef
        rows = [entry_gradient(fdef, point, [float(i == k) for k in range(fdef.m)])
                for i in range(fdef.m)]
        assert outcome(lambda: jacobian(fdef, point, mode="reverse")) == outcome(lambda: rows)


def test_entries_are_a_view_of_the_flat_tuples():
    tape = record(parse("f(x, y) = (x * y, sin(x) / y)"), [0.5, 2.0])
    entries = tape.entries
    assert entries is not tape.entries and entries == tape.entries  # built per read
    assert [e.primal for e in entries] == list(tape.values[tape.n:])
    assert [e.local_partials for e in entries] == list(tape.partials)
    assert [(e.fn, e.arg_refs) for e in entries] == [
        (fn if slots else None, slots) for fn, slots, _ in decode(tape.program)]


def test_quotient_whose_divisor_square_underflows():
    # b*b underflows to 0, so -a/(b*b) is taken as -(a/b)/b, the form of the
    # dual tangent: both modes give the same Jacobian, and a finite partial
    # stays finite.
    fdef = parse("f(x, y) = x / y")
    for point in ([1.0, 1e-200], [0.0, 1e-200], [1e-170, 1e-170], [-3.0, -1e-180]):
        forward = jacobian(fdef, point, mode="forward")
        assert bits(jacobian(fdef, point, mode="reverse")[0]) == bits(forward[0]), point
    assert jacobian(fdef, [1e-170, 1e-170], mode="reverse") == [[1e170, -1e170]]
    assert jacobian(fdef, [1.0, 1e-200], mode="reverse")[0][1] == -math.inf
    # The dense trace and the counting sweep read the same partials.  (The
    # trace's x entry is NaN in reverse: its embedding multiplies 0 by -inf.)
    program = compile_program(fdef)
    assert forward_derivative(program, [1.0, 1e-200], [0.0, 1.0]) == [-math.inf]
    assert reverse_derivative(program, [1.0, 1e-200], [1.0])[1] == -math.inf
    counter = EvalCounter()
    algebra = CountingAlgebra(counter)
    out = eval_generic(fdef, [algebra.constant(1.0), algebra.constant(1e-200)], algebra)
    assert (out[0], counter.count) == (1e200, 0)


# --- the memo ---


def test_signed_zero_points_never_share_a_tape():
    fdef = parse("f(x) = x * 1")
    value, tangent = forward_directional(fdef, SeedSpec.forward([0.0], [1.0]))
    assert str(value[0]) == "0.0"
    value, tangent = forward_directional(fdef, SeedSpec.forward([-0.0], [1.0]))
    assert str(value[0]) == "-0.0"
    assert [str(v) for v in record(fdef, [0.0]).values] == ["0.0", "1.0", "0.0"]


def test_interleaved_points_give_the_single_call_results():
    rng = random.Random(76)
    for _ in range(40):
        fdef, a = random_program(rng)
        b = [c + 0.125 for c in a]
        want = {}
        for name, point in (("a", a), ("b", b)):
            want[name] = (
                outcome(lambda: forward_directional(fresh(fdef), SeedSpec.forward(point, point))),
                outcome(lambda: backprop(record(fresh(fdef), point), [1.0] * fdef.m)),
                outcome(lambda: jacobian(fresh(fdef), point, mode="forward")),
            )
        for name, point in (("a", a), ("b", b), ("a", a), ("a", a), ("b", b)):
            got = (
                outcome(lambda: forward_directional(fdef, SeedSpec.forward(point, point))),
                outcome(lambda: backprop(record(fdef, point), [1.0] * fdef.m)),
                outcome(lambda: jacobian(fdef, point, mode="forward")),
            )
            assert got == want[name]


def test_nan_point_gives_the_fresh_definition_result():
    fdef = parse("f(x, y) = (x * y + sin(x), y / 2, exp(y))")
    nan = [math.nan, 0.5]
    forward_directional(fdef, SeedSpec.forward([1.0, 0.5], [1.0, 0.0]))
    want = outcome(lambda: forward_directional(fresh(fdef), SeedSpec.forward(nan, [1.0, 1.0])))
    for _ in range(2):  # a miss, then a hit on the same NaN bits
        got = outcome(lambda: forward_directional(fdef, SeedSpec.forward(nan, [1.0, 1.0])))
        assert got == want
    assert record(fdef, nan) is record(fdef, nan)
    assert outcome(lambda: backprop(record(fdef, nan), [1.0, 1.0, 1.0])) == outcome(
        lambda: backprop(record(fresh(fdef), nan), [1.0, 1.0, 1.0])
    )


def test_a_held_tape_is_never_mutated():
    fdef = parse("f(x, y) = let s = sin(x * y) in (s / y, s * s - x)")
    tape = record(fdef, [0.3, 1.5])
    held = (bits(tape.values), [bits(p) for p in tape.partials], tape.entries)
    assert record(fdef, [0.3, 1.5]) is tape
    forward_directional(fdef, SeedSpec.forward([-0.7, 2.5], [1.0, 1.0]))
    other = record(fdef, [2.0, -1.0])
    assert other is not tape and bits(other.values) != held[0]
    assert (bits(tape.values), [bits(p) for p in tape.partials], tape.entries) == held


def test_threads_at_distinct_points_get_their_single_thread_results():
    rng = random.Random(77)
    fdef, point = random_program(rng, max_ops=25)
    points = [[c + 0.01 * k for c in point] for k in range(4)]
    directions = [[rng.uniform(-1, 1) for _ in point] for _ in points]

    def results(f, point, direction):
        return (
            outcome(lambda: forward_directional(f, SeedSpec.forward(point, direction))),
            outcome(lambda: backprop(record(f, point), [1.0] * f.m)),
            outcome(lambda: jacobian(f, point, mode="forward")),
            outcome(lambda: jacobian(f, point, mode="reverse")),
        )

    want = [results(fresh(fdef), p, d) for p, d in zip(points, directions)]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            shared = fresh(fdef)
            barrier = threading.Barrier(4)
            seen = []

            def sweep(k):
                barrier.wait(timeout=30)
                for _ in range(10):
                    seen.append((k, results(shared, points[k], directions[k])))

            threads = [threading.Thread(target=sweep, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(seen) == 40
            for k, got in seen:
                assert got == want[k], k
    finally:
        sys.setswitchinterval(old_interval)


def test_two_threads_sweeping_one_definition_past_its_kernel_build_get_the_loops_bits():
    rng = random.Random(78)
    fdef, point = random_program(rng, max_ops=25)
    points = [[c + 0.001 * k for c in point] for k in range(2 * _WARM)]
    direction = [rng.uniform(-1, 1) for _ in point]

    def results(f, point):
        return (
            outcome(lambda: forward_directional(f, SeedSpec.forward(point, direction))),
            outcome(lambda: backprop(record(f, point), [1.0] * f.m)),
            outcome(lambda: jacobian(f, point, mode="forward")),
        )

    loops = fresh(fdef)
    object.__setattr__(loops.program, "kernels", None)  # as above the cap
    want = [results(loops, p) for p in points]
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            shared = fresh(fdef)
            barrier = threading.Barrier(2)
            seen = []

            def sweep(k):
                barrier.wait(timeout=30)
                for i in range(k, len(points), 2):
                    seen.append((i, results(shared, points[i])))

            threads = [threading.Thread(target=sweep, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
            assert len(seen) == len(points)
            for i, got in seen:
                assert got == want[i], i
            assert isinstance(shared.program.kernels, tuple)
    finally:
        sys.setswitchinterval(old_interval)
