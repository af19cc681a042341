"""Scalar algebras pluggable into the generic evaluator.

Each algebra supplies `constant` and `apply`; evaluating a FunctionDef over
an algebra propagates whatever that algebra's scalars carry (plain values,
one directional derivative, operation counts, all partials to order N, or a
whole derivative tower).  The lifted algebras (dual numbers, jets, towers)
share one `apply`: arithmetic through `catalog.OPERATORS` and their scalars'
operators, every other function through the algebra's own `lift(fn, args)`.
"""

from __future__ import annotations

from typing import Callable, Optional

from . import jets, towers
from .catalog import OPERATORS, ElementaryFn
from .counting import CountingScalar, EvalCounter, counting_eval
from .dual import Dual
from .jets import STANDARD, Jet, JetShape, jet_constant
from .towers import Tower, tower_const


class RealAlgebra:
    """Plain float evaluation."""

    @staticmethod
    def constant(c: float) -> float:
        return float(c)

    @staticmethod
    def apply(fn: ElementaryFn, args: list[float]) -> float:
        fn.check_domain(args)
        return fn.value(args)


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
        primals = [a.primal for a in args]
        fn.check_domain(primals)
        value = fn.value(primals)
        tangent = 0.0
        for p, a in zip(fn.partials(primals), args):
            tangent += p * a.tangent
        return Dual(value, tangent)


class JetAlgebra(_LiftedAlgebra):
    """Higher-order forward mode over truncated polynomials."""

    def __init__(self, shape: JetShape, basis: str = STANDARD):
        self.shape = shape
        self.basis = basis

    def constant(self, c: float) -> Jet:
        return jet_constant(self.shape, c, self.basis)

    lift = staticmethod(jets.lift)


class TowerAlgebra(_LiftedAlgebra):
    """Univariate derivative towers of unbounded order; `resolve` replaces
    the table that looks up the lifts a rule names."""

    def __init__(self, resolve: Optional[Callable[[str], ElementaryFn]] = None):
        self.resolve = resolve

    constant = staticmethod(tower_const)

    def lift(self, fn: ElementaryFn, args: list[Tower]) -> Tower:
        return towers.lift(fn, args[0], self.resolve)
