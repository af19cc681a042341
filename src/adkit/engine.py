"""The first-order differentiation drivers.

Both first-order modes read one linearization of the program at a point.
`record` sweeps the compiled program once and keeps two parallel tuples:
every slot's primal value (the n inputs, then one per step) and every
step's local partials.  Together they are the chain of step Jacobians.
All three sweeps read the program's op table (`StateProgram.ops`), which
the compiler emits with each step's kind, looked up by function name.
Forward mode multiplies that chain by a direction from the right:
`forward_directional` sweeps tangents only, with the dual-number formulas of
`dual.py`, so its bits equal those of a dual sweep.  Reverse mode multiplies
it by a covector from the left: `backprop` sweeps the same tuples
backwards, summing each step's adjoint into its arguments - the summation
is what accounts for fan-out.  A full Jacobian takes n tangent sweeps or m
adjoint sweeps over one tape.

The definition keeps the last tape `record` built, as one immutable
(point key, tape) pair, so every direction and covector asked for at one
point shares one linearization.  A tape refers to its program, and the
program to nothing that refers back, so the memo makes no reference cycle.
The key is the bit pattern of the floated point, so 0.0 and -0.0, or two
NaN payloads, never share a tape.  The pair is replaced in one assignment
and a tape is never changed, so threads sharing a definition can only miss
the memo.

The three sweeps are loops that dispatch on each step's kind.  On a
program's `_WARM`-th linearization at a distinct point, `record` compiles
it, in one call, into straight-line record, tangent and adjoint kernels
(`kernels.build`), which the sweeps then call.  Their results equal the
loops' bit for bit (a NaN's sign and payload are unspecified either way).
At 300 steps a build takes about 18 ms and 3.5 MB of transient memory, so
a program above `_CAP` steps, or linearized once, as in a CLI call, never
pays for one.  The kernels are the program's memo, `StateProgram.kernels`,
replaced whole, so threads sharing a program can only miss them or build
them twice.
"""

from __future__ import annotations

import struct
from typing import NamedTuple, Optional, Sequence

from .catalog import DomainError, ElementaryFn
from .expr import FunctionDef, StateProgram, _path_of, arg_slots


class SeedSpec(NamedTuple):
    """A point plus one seed: a direction (forward) or a covector (reverse)."""

    point: tuple[float, ...]
    direction: Optional[tuple[float, ...]] = None
    covector: Optional[tuple[float, ...]] = None

    @staticmethod
    def forward(point: Sequence[float], direction: Sequence[float]) -> "SeedSpec":
        return SeedSpec(tuple(point), direction=tuple(direction))

    @staticmethod
    def reverse(point: Sequence[float], covector: Sequence[float]) -> "SeedSpec":
        return SeedSpec(tuple(point), covector=tuple(covector))


class TapeEntry(NamedTuple):
    fn: Optional[ElementaryFn]  # None for a constant, as in the op table
    arg_refs: tuple[int, ...]  # slot indices: 0..n-1 inputs, then entries
    primal: float
    local_partials: tuple[float, ...]


class Tape(NamedTuple):
    """A program linearized at one point, ready for any number of tangent
    and adjoint sweeps.

    `values[s]` is slot s's primal: the n inputs, then step k's value at
    n + k.  `partials[k]` holds step k's local partials, one per slot that
    `program.ops[k]` reads (`expr.arg_slots`).  `n` and `output_refs` are
    read from `program`, which the tape shares; the sweeps read its `ops`.
    """

    program: StateProgram
    values: tuple[float, ...]
    partials: tuple[tuple[float, ...], ...]

    @property
    def n(self) -> int:
        return self.program.n

    @property
    def m(self) -> int:
        return self.program.m

    @property
    def output_refs(self) -> tuple[int, ...]:
        return self.program.output_slots

    @property
    def entries(self) -> tuple[TapeEntry, ...]:
        """Step k as one TapeEntry, built afresh on every read."""
        n, values = self.n, self.values
        return tuple(
            TapeEntry(op[3], arg_slots(op), values[n + k], parts)
            for k, (op, parts) in enumerate(zip(self.program.ops, self.partials))
        )


# The constant local partials of add, sub, neg and copy, shared by every tape.
_ADD, _SUB, _NEG, _COPY = (1.0, 1.0), (1.0, -1.0), (-1.0,), (1.0,)

#: The linearization of a program at which `record` builds its kernels.
#: Building took as long as 51 to 83 interpreted linearizations, each with
#: one tangent and one adjoint sweep, at 38 to 1036 steps (76 at 300), so a
#: program that gets this far has mostly paid for its kernels already.
_WARM = 80

#: The most steps a program with kernels has.  Compiling a kernel holds
#: about 10 KB of transient memory per step: 10 MB at the cap.
_CAP = 1024


def record(fdef: FunctionDef, c: Sequence[float]) -> Tape:
    """Linearize the program at c in one sweep of its op table, with
    arithmetic other than division inline: every primal and every step's
    local partials.  A call at the point of the definition's last tape (the
    same float bits) returns that tape.  A domain error names the failing
    node's path, as `eval_generic` does."""
    if len(c) != fdef.n:
        raise ValueError(f"expected {fdef.n} inputs, got {len(c)}")
    values = [float(x) for x in c]
    key = struct.pack(f"{len(values)}d", *values)
    program = fdef.program
    memo = fdef.last_tape
    if memo is not None and memo[0] == key:
        return memo[1]
    kernels = program.kernels
    if kernels.__class__ is int:
        kernels = _count(program, kernels)
    if kernels is not None:
        tape = Tape(program, *kernels[0](fdef, values))
        object.__setattr__(fdef, "last_tape", (key, tape))
        return tape
    partials = []
    put, note = values.append, partials.append
    for kind, a, b, fn in program.ops:
        if kind == "mul":
            put(values[a] * values[b])
            note((values[b], values[a]))
        elif kind == "add":
            put(values[a] + values[b])
            note(_ADD)
        elif kind == "sub":
            put(values[a] - values[b])
            note(_SUB)
        elif kind == "const":
            put(a)
            note(())
        elif kind == "neg":
            put(-values[a])
            note(_NEG)
        elif kind == "copy":
            put(values[a])
            note(_COPY)
        else:  # div, unary and other steps: through the function itself
            args = ([values[r] for r in a] if kind == "other" else
                    [values[a]] if b is None else [values[a], values[b]])
            if not fn.domain(args):  # a compiled step's arity always matches
                raise _domain_error(fdef, len(values), args)
            put(fn.value(args))
            note(tuple(fn.partials(args)))
    tape = Tape(program, tuple(values), tuple(partials))
    object.__setattr__(fdef, "last_tape", (key, tape))
    return tape


def _count(program: StateProgram, seen: int) -> Optional[tuple]:
    """Count one more linearization of the program, `seen` before it, and
    return its kernels if this one builds them."""
    if len(program.ops) > _CAP:
        object.__setattr__(program, "kernels", None)
    elif seen + 1 < _WARM:
        object.__setattr__(program, "kernels", seen + 1)
    else:
        from .kernels import build  # loaded by the first build only

        return build(program)
    return None


def _domain_error(fdef: FunctionDef, slot: int, args: list) -> DomainError:
    """The error `record` raises, by the loop or a kernel, when the step
    filling `slot` is out of its domain at `args`."""
    fn = fdef.program.ops[slot - fdef.n][3]
    return DomainError(fn.name, args, _path_of(fdef, slot))


def _tangents(tape: Tape, direction: Sequence[float]) -> list[float]:
    """J_f(c) . direction from one tangent sweep over the tape.  Each step
    uses the formula its dual-number lift uses, so the bits are the same."""
    kernels = tape.program.kernels
    if kernels.__class__ is tuple:
        return kernels[1](tape.values, tape.partials, direction)
    n, v, partials = tape.n, tape.values, tape.partials
    t = [float(d) for d in direction]
    add = t.append
    for kind, a, b, _ in tape.program.ops:  # step len(t) - n writes slot len(t)
        if kind == "mul":
            add(v[a] * t[b] + t[a] * v[b])
        elif kind == "add":
            add(t[a] + t[b])
        elif kind == "sub":
            add(t[a] - t[b])
        elif kind == "unary":
            add(0.0 + partials[len(t) - n][0] * t[a])
        elif kind == "const":
            add(0.0)
        elif kind == "div":
            add((t[a] - v[len(t)] * t[b]) / v[b])  # v[len(t)] is the quotient
        elif kind == "neg":
            add(-t[a])
        elif kind == "copy":
            add(t[a])
        else:  # any other function: grad f . tangents
            tangent = 0.0
            for ref, p in zip(a, partials[len(t) - n]):
                tangent += p * t[ref]
            add(tangent)
    return [t[r] for r in tape.output_refs]


def forward_directional(
    fdef: FunctionDef, seed: SeedSpec
) -> tuple[list[float], list[float]]:
    """(f(c), J_f(c) . x') from the tape at c and one tangent sweep."""
    if seed.direction is None:
        raise ValueError("forward mode needs a direction seed")
    if len(seed.point) != fdef.n or len(seed.direction) != fdef.n:
        raise ValueError(f"point and direction must have length {fdef.n}")
    tape = record(fdef, seed.point)
    return [tape.values[r] for r in tape.output_refs], _tangents(tape, seed.direction)


def backprop(tape: Tape, ybar: Sequence[float]) -> list[float]:
    """One reverse sweep: seed the output adjoints, then push each step's
    adjoint into its arguments weighted by the recorded local partials.
    Contributions into the same slot add up, which realises fan-out."""
    if len(ybar) != tape.m:
        raise ValueError(f"expected a covector of length {tape.m}")
    kernels = tape.program.kernels
    if kernels.__class__ is tuple:
        return kernels[2](tape.partials, ybar)
    adjoint = [0.0] * len(tape.values)
    for ref, y in zip(tape.output_refs, ybar):
        adjoint[ref] += float(y)
    n, ops, partials = tape.n, tape.program.ops, tape.partials
    for k in range(len(ops) - 1, -1, -1):
        adj = adjoint[n + k]
        if adj == 0.0:
            # zero adjoints still distribute zeros; skipping them changes
            # nothing but avoids needless work on wide tapes
            continue
        kind, a, b, _ = ops[k]
        if b is not None:
            pa, pb = partials[k]
            adjoint[a] += adj * pa
            adjoint[b] += adj * pb
        elif kind == "other":
            for ref, p in zip(a, partials[k]):
                adjoint[ref] += adj * p
        elif kind != "const":
            adjoint[a] += adj * partials[k][0]
    return adjoint[:n]


def reverse_gradient(fdef: FunctionDef, seed: SeedSpec) -> list[float]:
    """ybar . J_f(c) by recording a tape and sweeping it once."""
    if seed.covector is None:
        raise ValueError("reverse mode needs a covector seed")
    tape = record(fdef, seed.point)
    return backprop(tape, seed.covector)


def _basis(k: int, j: int) -> list[float]:
    e = [0.0] * k
    e[j] = 1.0
    return e


def jacobian(fdef: FunctionDef, c: Sequence[float], mode: str = "forward"):
    """The full m x n Jacobian from basis-seeded sweeps over one tape:
    n tangent sweeps (forward) or m adjoint sweeps (reverse)."""
    if mode not in ("forward", "reverse"):
        raise ValueError(f"unknown jacobian mode {mode!r}")
    tape = record(fdef, c)
    n, m = fdef.n, fdef.m
    if mode == "forward":
        cols = [_tangents(tape, _basis(n, j)) for j in range(n)]
        return [[col[i] for col in cols] for i in range(m)]
    return [backprop(tape, _basis(m, i)) for i in range(m)]
