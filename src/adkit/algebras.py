"""Scalar algebras pluggable into the generic evaluator.

Each algebra supplies `constant` and `apply`; evaluating a FunctionDef over
an algebra propagates whatever that algebra's scalars carry (plain values,
one directional derivative, operation counts, all partials to order N, or a
whole derivative tower).
"""

from __future__ import annotations

from typing import Callable, Optional

from .catalog import ElementaryFn
from .counting import CountingScalar, EvalCounter, counting_eval
from .dual import Dual, lift_elementary
from .jets import STANDARD, Jet, JetShape, jet_constant, jet_lift_elementary
from .towers import _ARITHMETIC as _TOWER_ARITHMETIC
from .towers import Tower, tower_const, tower_lift_elementary


class RealAlgebra:
    """Plain float evaluation."""

    @staticmethod
    def constant(c: float) -> float:
        return float(c)

    @staticmethod
    def apply(fn: ElementaryFn, args: list[float]) -> float:
        fn.check_domain(args)
        return fn.value(args)


class DualAlgebra:
    """Forward mode: scalars are dual numbers."""

    @staticmethod
    def constant(c: float) -> Dual:
        return Dual(c, 0.0)

    apply = staticmethod(lift_elementary)


class CountingAlgebra:
    """Cost accounting; with `include_derivative` the run models a forward
    value-plus-derivative sweep."""

    def __init__(self, counter: EvalCounter, include_derivative: bool = True):
        self.counter = counter
        self.include_derivative = include_derivative

    def constant(self, c: float) -> CountingScalar:
        return CountingScalar(c, self.counter)

    def apply(self, fn: ElementaryFn, args: list[CountingScalar]) -> CountingScalar:
        return counting_eval(fn, args, self.include_derivative, counter=self.counter)


class JetAlgebra:
    """Higher-order forward mode over truncated polynomials."""

    def __init__(self, shape: JetShape, basis: str = STANDARD):
        self.shape = shape
        self.basis = basis

    def constant(self, c: float) -> Jet:
        return jet_constant(self.shape, c, self.basis)

    apply = staticmethod(jet_lift_elementary)


class TowerAlgebra:
    """Univariate derivative towers of unbounded order."""

    def __init__(self, resolve: Optional[Callable[[str], ElementaryFn]] = None):
        self.resolve = resolve

    constant = staticmethod(tower_const)

    def apply(self, fn: ElementaryFn, args: list[Tower]) -> Tower:
        op = _TOWER_ARITHMETIC.get(fn.name)
        if op is not None:
            return op(*args)
        return tower_lift_elementary(fn, args[0], self.resolve)
