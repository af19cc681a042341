"""Exact operation counting (Griewank & Walther, *Evaluating Derivatives*,
ch. 4): an evaluation of a genuine elementary function, or of its
derivative, costs the function's `unit_cost` of 1; arithmetic on
already-computed values and constants are free.  `algebras.CountingAlgebra`
charges a sweep over plain floats, and `counted_variant` a function's direct
calls.  Counts are exact integers, so a counter must stay on one thread per
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
