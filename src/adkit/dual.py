"""Dual numbers: (value, derivative) pairs with forward-mode arithmetic.

A dual number x + x'e with e*e = 0 carries one directional derivative through
any composition of catalogue functions.  Arithmetic is the operators
``+ - * /`` and unary ``-``, with other duals and with floats (a float c is
the dual c + 0e); `DualAlgebra` lifts every other elementary f to
(f(x), grad f(x) . x'), so evaluating a whole expression on duals yields the
exact directional derivative alongside the value.  No CLI command loads this
module: the engine's tangent sweep uses the same formulas on its tape.
"""

from __future__ import annotations

from .catalog import DomainError, ElementaryFn, Lifted, _LiftedAlgebra


class Dual(Lifted):
    """x + x'e with e nilpotent of order two; unit is (1, 0).

    Treated as an immutable value: safe to share and send between threads.
    """

    __slots__ = ("primal", "tangent")

    def __init__(self, primal: float, tangent: float = 0.0):
        self.primal = float(primal)
        self.tangent = float(tangent)

    def __repr__(self) -> str:
        return f"Dual({self.primal!r}, {self.tangent!r})"

    def __eq__(self, other) -> bool:
        if isinstance(other, Dual):
            return self.primal == other.primal and self.tangent == other.tangent
        if isinstance(other, (int, float)):
            return self.primal == other and self.tangent == 0.0
        return NotImplemented

    def __hash__(self):
        # Values that compare equal have equal primals (a float equals the
        # dual with zero tangent), so the primal alone agrees with `==`.
        return hash(self.primal)

    @staticmethod
    def _promote(b):
        if isinstance(b, Dual):
            return b
        if isinstance(b, (int, float)):
            return Dual(b, 0.0)
        return NotImplemented

    def _add(self, b: Dual) -> Dual:
        return Dual(self.primal + b.primal, self.tangent + b.tangent)

    def _sub(self, b: Dual) -> Dual:
        return Dual(self.primal - b.primal, self.tangent - b.tangent)

    def _mul(self, b: Dual) -> Dual:
        # (x + x'e)(y + y'e) = xy + (xy' + x'y)e
        return Dual(self.primal * b.primal, self.primal * b.tangent + self.tangent * b.primal)

    def _div(self, b: Dual) -> Dual:
        # Quotient q = a/b satisfies q*b = a, hence q' = (a' - q b')/b.  The
        # same long-division form is used by the jet and tower algebras, which
        # keeps the three implementations equal to the last bit under the
        # degree-1 identification.
        if b.primal == 0.0:
            raise DomainError("div", (self.primal, b.primal))
        q = self.primal / b.primal
        return Dual(q, (self.tangent - q * b.tangent) / b.primal)

    def __neg__(self) -> Dual:
        return Dual(-self.primal, -self.tangent)


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
