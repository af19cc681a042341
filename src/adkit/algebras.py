"""Scalar algebras pluggable into the generic evaluator.

Each algebra supplies `constant` and `apply`; evaluating a FunctionDef over
an algebra propagates whatever that algebra's scalars carry (plain values,
with or without operation counts charged to a counter, one directional
derivative, all partials to order N, or a whole derivative tower).  The
lifted algebras (dual numbers, jets, towers) share one `apply`: arithmetic
through `catalog.OPERATORS` and their scalars' operators, every other
function through the algebra's own `lift(fn, args)`.  The jet and tower
algebras live beside their scalars, as `jets.JetAlgebra` and
`towers.TowerAlgebra`, so that plain and first-order evaluation load
neither module.
"""

from __future__ import annotations

from .catalog import OPERATORS, ElementaryFn
from .counting import EvalCounter
from .dual import Dual


class RealAlgebra:
    """Plain float evaluation."""

    @staticmethod
    def constant(c: float) -> float:
        return float(c)

    @staticmethod
    def apply(fn: ElementaryFn, args: list[float]) -> float:
        fn.check_domain(args)
        return fn.value(args)


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


class _LiftedAlgebra:
    """Arithmetic by its operator, any other function by `self.lift`."""

    def apply(self, fn: ElementaryFn, args: list):
        fn.check_arity(args)
        op = OPERATORS.get(fn.name)
        if op is not None:
            return op(*args)
        return self.lift(fn, args)


class DualAlgebra(_LiftedAlgebra):
    """Forward mode: scalars are dual numbers, and f lifts to
    (f(x), grad f(x) . x')."""

    @staticmethod
    def constant(c: float) -> Dual:
        return Dual(c, 0.0)

    @staticmethod
    def lift(fn: ElementaryFn, args: list[Dual]) -> Dual:
        for a in args:
            if not isinstance(a, Dual):
                raise TypeError(f"a dual lift needs Duals, not {type(a).__name__}")
        primals = [a.primal for a in args]
        fn.check_domain(primals)
        value = fn.value(primals)
        tangent = 0.0
        for p, a in zip(fn.partials(primals), args):
            tangent += p * a.tangent
        return Dual(value, tangent)

