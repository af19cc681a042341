"""Dual numbers: (value, derivative) pairs with forward-mode arithmetic.

A dual number x + x'e with e*e = 0 carries one directional derivative through
any composition of catalogue functions.  Lifting an elementary f produces
(f(x), grad f(x) . x'), so evaluating a whole expression on duals yields the
exact directional derivative alongside the value.
"""

from __future__ import annotations

from .catalog import DomainError, ElementaryFn


class Dual:
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
        return hash((self.primal, self.tangent))

    def __add__(self, other):
        return dual_add(self, _as_dual(other))

    __radd__ = __add__

    def __sub__(self, other):
        return dual_sub(self, _as_dual(other))

    def __rsub__(self, other):
        return dual_sub(_as_dual(other), self)

    def __mul__(self, other):
        return dual_mul(self, _as_dual(other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        return dual_div(self, _as_dual(other))

    def __rtruediv__(self, other):
        return dual_div(_as_dual(other), self)

    def __neg__(self):
        return Dual(-self.primal, -self.tangent)


def _as_dual(x) -> Dual:
    if isinstance(x, Dual):
        return x
    return Dual(x, 0.0)


def dual_from_real(x: float) -> Dual:
    """Lift a real to the dual with zero derivative part."""
    return Dual(x, 0.0)


def dual_add(a: Dual, b: Dual) -> Dual:
    return Dual(a.primal + b.primal, a.tangent + b.tangent)


def dual_sub(a: Dual, b: Dual) -> Dual:
    return Dual(a.primal - b.primal, a.tangent - b.tangent)


def dual_mul(a: Dual, b: Dual) -> Dual:
    # (x + x'e)(y + y'e) = xy + (xy' + x'y)e
    return Dual(a.primal * b.primal, a.primal * b.tangent + a.tangent * b.primal)


def dual_div(a: Dual, b: Dual) -> Dual:
    # Quotient q = a/b satisfies q*b = a, hence q' = (a' - q b')/b.  The same
    # long-division form is used by the jet and tower algebras, which keeps
    # the three implementations equal to the last bit under the degree-1
    # identification.
    if b.primal == 0.0:
        raise DomainError("div", (a.primal, b.primal))
    q = a.primal / b.primal
    return Dual(q, (a.tangent - q * b.tangent) / b.primal)


#: Arithmetic by name: the dual-number operations themselves.
_ARITHMETIC = {
    "add": dual_add,
    "sub": dual_sub,
    "neg": Dual.__neg__,
    "mul": dual_mul,
    "div": dual_div,
    "copy": lambda a: Dual(a.primal, a.tangent),
}


def lift_elementary(fn: ElementaryFn, args: list[Dual]) -> Dual:
    """Apply a catalogue function to dual arguments.

    Arithmetic is dispatched to the dual-number operations themselves;
    everything else, constants included, uses (f(x), grad f(x) . x').
    """
    fn.check_arity(args)
    op = _ARITHMETIC.get(fn.name)
    if op is not None:
        return op(*args)
    primals = [a.primal for a in args]
    fn.check_domain(primals)
    value = fn.value(primals)
    parts = fn.partials(primals)
    tangent = 0.0
    for p, a in zip(parts, args):
        tangent += p * a.tangent
    return Dual(value, tangent)
