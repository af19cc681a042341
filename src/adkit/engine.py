"""Production differentiation drivers.

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

`cost_compare` instruments three function families with the shared
evaluation counter and reports exact integer operation counts for a
symbolic-style re-evaluation pattern next to the forward-mode sweep.
"""

from __future__ import annotations

import math
import struct
from typing import NamedTuple, Optional, Sequence

from .algebras import CountingAlgebra
from .catalog import ADD, MUL, DomainError, ElementaryFn, Record
from .counting import EvalCounter, counted_variant
from .expr import (
    Apply, Expr, FunctionDef, StateProgram, Variable, _path_of, arg_slots, eval_generic,
)


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
                raise DomainError(fn.name, args, _path_of(fdef, len(values)))
            put(fn.value(args))
            note(tuple(fn.partials(args)))
    tape = Tape(program, tuple(values), tuple(partials))
    object.__setattr__(fdef, "last_tape", (key, tape))
    return tape


def _tangents(tape: Tape, direction: Sequence[float]) -> list[float]:
    """J_f(c) . direction from one tangent sweep over the tape.  Each step
    uses the formula its dual-number lift uses, so the bits are the same."""
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


# --- operation-count comparisons ---


class CostReport(Record):
    """Exact integer counts for one scenario size, with the closed forms;
    equality ignores `details`."""

    __slots__ = _fields = ("scenario", "n", "symbolic", "ad", "closed_form_symbolic",
                           "closed_form_ad", "details")
    _compared = _fields[:-1]

    def __init__(self, scenario: str, n: int, symbolic: int, ad: int,
                 closed_form_symbolic: int, closed_form_ad: int,
                 details: Optional[dict] = None) -> None:
        self._set(scenario, n, symbolic, ad, closed_form_symbolic, closed_form_ad,
                  {} if details is None else details)


def _phi(i: int) -> ElementaryFn:
    """A generic costed unary elementary (any smooth total function works;
    only the counts matter)."""
    shift = float(i)
    return ElementaryFn(
        f"phi{i}",
        1,
        lambda a, s=shift: math.sin(a[0] + s),
        lambda a, s=shift: [math.cos(a[0] + s)],
        lambda a: True,
        unit_cost=1,
    )


_PSI = ElementaryFn(
    "psi", 1, lambda a: math.cos(a[0]), lambda a: [-math.sin(a[0])],
    lambda a: True, unit_cost=1,
)

SCENARIOS = ("chain", "product", "shared")


def _chain_def(phis: list[ElementaryFn]) -> FunctionDef:
    node: Expr = Variable(1)
    for fn in phis:
        node = Apply(fn, (node,))
    return FunctionDef("chain", ("x",), (node,))


def _product_def(phis: list[ElementaryFn]) -> FunctionDef:
    x = Variable(1)
    node: Expr = Apply(phis[0], (x,))
    for fn in phis[1:]:
        node = Apply(MUL, (Apply(fn, (x,)), node))
    return FunctionDef("product", ("x",), (node,))


def _shared_def(phis: list[ElementaryFn]) -> FunctionDef:
    z = Apply(_PSI, (Variable(1),))  # one shared inner node
    node: Expr = Apply(phis[0], (z,))
    for fn in phis[1:]:
        node = Apply(ADD, (Apply(fn, (z,)), node))
    return FunctionDef("shared", ("x",), (node,))


def cost_compare(scenario: str, n: int, at: float = 0.3) -> CostReport:
    """Exact operation counts: symbolic re-evaluation pattern vs forward AD.

    chain   : f = phi_n o ... o phi_1          -> n(n+1)/2 vs 2n
    product : f = phi_n * ... * phi_1          -> n^2      vs 2n
    shared  : f = phi_1(psi x) + ... + phi_n(psi x)
              symbolic derivative costs 2n+1 with psi' factored out (3n
              otherwise); AD gets value and derivative for 2n+2.
    """
    if n < 1:
        raise ValueError("scenario size must be >= 1")
    if scenario not in SCENARIOS:
        raise ValueError(f"unknown scenario {scenario!r}")
    phis = [_phi(i + 1) for i in range(n)]
    details: dict = {}

    # The symbolic patterns call counted copies of phi_i and psi directly:
    # each .value and each .partials costs 1.
    sym = EvalCounter()
    phi = [counted_variant(fn, sym) for fn in phis]
    psi = counted_variant(_PSI, sym)

    if scenario == "chain":
        # every chain-rule factor re-evaluates its whole prefix
        for i in range(1, n + 1):
            v = at
            for j in range(i - 1):
                v = phi[j].value([v])
            phi[i - 1].partials([v])
        fdef = _chain_def(phis)
        closed_sym, closed_ad = n * (n + 1) // 2, 2 * n
    elif scenario == "product":
        # every product-rule summand evaluates one derivative and the n-1
        # other factor values afresh
        for i in range(n):
            phi[i].partials([at])
            for j in range(n):
                if j != i:
                    phi[j].value([at])
        fdef = _product_def(phis)
        closed_sym, closed_ad = n * n, 2 * n
    else:
        # factored form: the inner value re-evaluated per summand, its
        # derivative once; the unfactored variant pays that derivative n times
        for i in range(n):
            phi[i].partials([psi.value([at])])
        psi.partials([at])
        unfactored = EvalCounter()
        psi_u = counted_variant(_PSI, unfactored)
        for i in range(n):
            counted_variant(phis[i], unfactored).partials([psi_u.value([at])])
            psi_u.partials([at])
        details["symbolic_unfactored"] = unfactored.count
        fdef = _shared_def(phis)
        closed_sym, closed_ad = 2 * n + 1, 2 * n + 2

    ad = EvalCounter()
    algebra = CountingAlgebra(ad, include_derivative=True)
    eval_generic(fdef, [algebra.constant(at)], algebra)
    return CostReport(scenario, n, sym.count, ad.count, closed_sym, closed_ad, details)
