"""Exact operation counting.

The cost convention: each evaluation of a genuine elementary function, and
each evaluation of its derivative, costs 1; additions, multiplications and
other arithmetic on already-computed values are free, as are constants.
Counts are exact integers, so the counter must either stay on one thread per
run or be incremented under a lock.
"""

from __future__ import annotations

from dataclasses import replace

from .catalog import ElementaryFn


class EvalCounter:
    """Shared mutable tally of elementary-function evaluations."""

    __slots__ = ("count",)

    def __init__(self) -> None:
        self.count = 0

    def add(self, k: int) -> None:
        self.count += k

    def __repr__(self) -> str:
        return f"EvalCounter({self.count})"


class CountingScalar:
    """A real value tied to a shared evaluation counter."""

    __slots__ = ("value", "counter")

    def __init__(self, value: float, counter: EvalCounter):
        self.value = float(value)
        self.counter = counter

    def __repr__(self) -> str:
        return f"CountingScalar({self.value!r})"


def counting_eval(
    fn: ElementaryFn,
    args: list[CountingScalar],
    include_derivative: bool = False,
    counter: EvalCounter | None = None,
) -> CountingScalar:
    """Evaluate fn on counting scalars, charging its unit cost for the value
    and once more for the derivative when requested."""
    fn.check_arity(args)
    if counter is None:
        counter = args[0].counter
    primals = [a.value for a in args]
    fn.check_domain(primals)
    counter.add(fn.unit_cost)
    value = fn.value(primals)
    if include_derivative:
        counter.add(fn.unit_cost)
        fn.partials(primals)
    return CountingScalar(value, counter)


def counting_partials(
    fn: ElementaryFn, args: list[float], counter: EvalCounter
) -> list[float]:
    """Evaluate just the gradient of fn, charging one derivative evaluation."""
    fn.check_domain(args)
    counter.add(fn.unit_cost)
    return fn.partials(args)


def counted_variant(fn: ElementaryFn, counter: EvalCounter) -> ElementaryFn:
    """A clone of fn whose plain value/partials calls tick the counter.

    Useful for instrumenting code paths that consume ElementaryFn directly
    (for instance, to observe how far a lazy structure was forced).
    """

    def value(a):
        counter.add(fn.unit_cost)
        return fn.value(a)

    def partials(a):
        counter.add(fn.unit_cost)
        return fn.partials(a)

    return replace(fn, value=value, partials=partials)
