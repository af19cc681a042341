"""Exact operation counting (Griewank & Walther, *Evaluating Derivatives*,
ch. 4): an evaluation of a genuine elementary function, or of its
derivative, costs the function's `unit_cost` of 1; arithmetic on
already-computed values and constants are free.  `CountingAlgebra`
charges a sweep over plain floats, and `counted_variant` a function's direct
calls.  Counts are exact integers, so a counter must stay on one thread per
run or be incremented under a lock.

`cost_compare` instruments three function families with the shared
evaluation counter and reports exact integer operation counts for a
symbolic-style re-evaluation pattern next to the forward-mode sweep.
"""

from __future__ import annotations

import math
from typing import Optional

from .catalog import ADD, MUL, ElementaryFn, RealAlgebra, Record
from .expr import Apply, Expr, FunctionDef, Variable, eval_generic


class EvalCounter:
    """Shared mutable tally of elementary-function evaluations."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, k: int) -> None:
        self.count += k

    def __repr__(self) -> str:
        return f"EvalCounter({self.count})"


def counted_variant(fn: ElementaryFn, counter: EvalCounter) -> ElementaryFn:
    """A clone of fn whose plain value/partials calls tick the counter.

    Useful for instrumenting code paths that consume ElementaryFn directly
    (for instance, to observe how far a lazy structure was forced).  The
    clone is of fn's own class, so a catalogue function's clone keeps its
    reserved name.
    """

    def value(a):
        counter.add(fn.unit_cost)
        return fn.value(a)

    def partials(a):
        counter.add(fn.unit_cost)
        return fn.partials(a)

    return type(fn)(fn.name, fn.arity, value, partials, fn.domain, fn.unit_cost, fn.derivative)


class CountingAlgebra(RealAlgebra):
    """RealAlgebra, charging `counter` a step's `unit_cost` before its value
    is taken (so a value that raises is charged); with `include_derivative`,
    a forward value-plus-derivative sweep: once more, and its partials."""

    def __init__(self, counter: EvalCounter, include_derivative: bool = True):
        self.counter = counter
        self.include_derivative = include_derivative

    def apply(self, fn: ElementaryFn, args: list[float]) -> float:
        fn.check_domain(args)
        self.counter.add(fn.unit_cost)
        value = fn.value(args)
        if self.include_derivative:
            self.counter.add(fn.unit_cost)
            fn.partials(args)
        return value


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
