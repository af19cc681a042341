"""Production differentiation drivers.

Forward mode evaluates the expression once over dual numbers and reads the
directional derivative out of the tangent slots.  Reverse mode records a
compact tape during one value sweep (operations, argument references, cached
local partials) and then sweeps it backwards, summing each entry's adjoint
into its arguments - the summation is what accounts for fan-out.  Full
Jacobians are assembled from basis-seeded passes in either mode.

`cost_compare` instruments three function families with the shared
evaluation counter and reports exact integer operation counts for a
symbolic-style re-evaluation pattern next to the forward-mode sweep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .algebras import CountingAlgebra, DualAlgebra
from .catalog import ADD, MUL, ElementaryFn
from .counting import CountingScalar, EvalCounter, counting_eval, counting_partials
from .dual import Dual
from .expr import Apply, Expr, FunctionDef, Variable, eval_generic


@dataclass(frozen=True)
class SeedSpec:
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


def forward_directional(
    fdef: FunctionDef, seed: SeedSpec
) -> tuple[list[float], list[float]]:
    """(f(c), J_f(c) . x') from one dual-number sweep."""
    if seed.direction is None:
        raise ValueError("forward mode needs a direction seed")
    if len(seed.point) != fdef.n or len(seed.direction) != fdef.n:
        raise ValueError(f"point and direction must have length {fdef.n}")
    inputs = [Dual(c, d) for c, d in zip(seed.point, seed.direction)]
    outputs = eval_generic(fdef, inputs, DualAlgebra())
    return [o.primal for o in outputs], [o.tangent for o in outputs]


@dataclass(frozen=True)
class TapeEntry:
    fn: ElementaryFn
    arg_refs: tuple[int, ...]  # slot indices: 0..n-1 inputs, then entries
    primal: float
    local_partials: tuple[float, ...]


@dataclass(frozen=True)
class Tape:
    """A recorded forward sweep, ready for any number of reverse sweeps."""

    n: int
    entries: tuple[TapeEntry, ...]
    output_refs: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.output_refs)


def record(fdef: FunctionDef, c: Sequence[float]) -> Tape:
    """Evaluate once, caching every entry's primal and local partials.

    The tape is the compiled program with values attached: entry k is step
    k, its `arg_refs` are the step's argument slots.
    """
    if len(c) != fdef.n:
        raise ValueError(f"expected {fdef.n} inputs, got {len(c)}")
    program = fdef.program
    values = [float(x) for x in c]
    entries: list[TapeEntry] = []
    for step in program.steps:
        fn = step.fn
        args = [values[r] for r in step.arg_slots]
        fn.check_domain(args)
        primal = fn.value(args)
        values.append(primal)
        entries.append(TapeEntry(fn, step.arg_slots, primal, tuple(fn.partials(args))))
    return Tape(fdef.n, tuple(entries), program.output_slots)


def backprop(tape: Tape, ybar: Sequence[float]) -> list[float]:
    """One reverse sweep: seed the output adjoints, then push each entry's
    adjoint into its arguments weighted by the cached local partials.
    Contributions into the same slot add up, which realises fan-out."""
    if len(ybar) != tape.m:
        raise ValueError(f"expected a covector of length {tape.m}")
    adjoint = [0.0] * (tape.n + len(tape.entries))
    for ref, y in zip(tape.output_refs, ybar):
        adjoint[ref] += float(y)
    for j in range(len(tape.entries) - 1, -1, -1):
        entry = tape.entries[j]
        a = adjoint[tape.n + j]
        if a == 0.0:
            # zero adjoints still distribute zeros; skipping them changes
            # nothing but avoids needless work on wide tapes
            continue
        for ref, p in zip(entry.arg_refs, entry.local_partials):
            adjoint[ref] += a * p
    return adjoint[: tape.n]


def reverse_gradient(fdef: FunctionDef, seed: SeedSpec) -> list[float]:
    """ybar . J_f(c) by recording a tape and sweeping it once."""
    if seed.covector is None:
        raise ValueError("reverse mode needs a covector seed")
    tape = record(fdef, seed.point)
    return backprop(tape, seed.covector)


def jacobian(fdef: FunctionDef, c: Sequence[float], mode: str = "forward"):
    """The full m x n Jacobian from basis-seeded passes."""
    n, m = fdef.n, fdef.m
    if mode == "forward":
        cols = []
        for j in range(n):
            e = [0.0] * n
            e[j] = 1.0
            _, tangent = forward_directional(fdef, SeedSpec.forward(c, e))
            cols.append(tangent)
        return [[cols[j][i] for j in range(n)] for i in range(m)]
    if mode == "reverse":
        tape = record(fdef, c)
        rows = []
        for i in range(m):
            e = [0.0] * m
            e[i] = 1.0
            rows.append(backprop(tape, e))
        return rows
    raise ValueError(f"unknown jacobian mode {mode!r}")


# --- operation-count comparisons ---


@dataclass(frozen=True)
class CostReport:
    """Exact integer counts for one scenario size, with the closed forms."""

    scenario: str
    n: int
    symbolic: int
    ad: int
    closed_form_symbolic: int
    closed_form_ad: int
    details: dict = field(default_factory=dict, compare=False)


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

    sym = EvalCounter()

    def value_of(fn: ElementaryFn, x: float, counter: EvalCounter) -> float:
        return counting_eval(fn, [CountingScalar(x, counter)]).value

    if scenario == "chain":
        # every chain-rule factor re-evaluates its whole prefix
        for i in range(1, n + 1):
            v = at
            for j in range(i - 1):
                v = value_of(phis[j], v, sym)
            counting_partials(phis[i - 1], [v], sym)
        fdef = _chain_def(phis)
        closed_sym, closed_ad = n * (n + 1) // 2, 2 * n
    elif scenario == "product":
        # every product-rule summand evaluates one derivative and the n-1
        # other factor values afresh
        for i in range(n):
            counting_partials(phis[i], [at], sym)
            for j in range(n):
                if j != i:
                    value_of(phis[j], at, sym)
        fdef = _product_def(phis)
        closed_sym, closed_ad = n * n, 2 * n
    else:
        # factored form: the inner value re-evaluated per summand, its
        # derivative once; the unfactored variant pays that derivative n times
        for i in range(n):
            z = value_of(_PSI, at, sym)
            counting_partials(phis[i], [z], sym)
        counting_partials(_PSI, [at], sym)
        unfactored = EvalCounter()
        for i in range(n):
            z = value_of(_PSI, at, unfactored)
            counting_partials(phis[i], [z], unfactored)
            counting_partials(_PSI, [at], unfactored)
        details["symbolic_unfactored"] = unfactored.count
        fdef = _shared_def(phis)
        closed_sym, closed_ad = 2 * n + 1, 2 * n + 2

    ad = EvalCounter()
    algebra = CountingAlgebra(ad, include_derivative=True)
    eval_generic(fdef, [algebra.constant(at)], algebra)
    return CostReport(scenario, n, sym.count, ad.count, closed_sym, closed_ad, details)
