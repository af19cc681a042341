"""Truncated multivariate polynomial arithmetic ("jets").

A jet over n variables truncated at total degree N is a dense coefficient
vector over all monomials X1^k1 ... Xn^kn with k1 + ... + kn <= N.  Products
simply drop every term of total degree above N, which makes the degree >= 1
part nilpotent and lets a Taylor sum of N+1 terms lift any smooth catalogue
function exactly.  Evaluating f on the jets (x1 + X1, ..., xn + Xn) then packs
every partial derivative of f at x up to order N into one coefficient vector.

Two coefficient conventions are supported: in the ``standard`` basis the slot
for multi-index k holds the coefficient of X^k (the order-k partial is
k1!...kn! times it); in the ``berz`` basis the monomials are X^k/k1!...kn!, so
slots hold partial derivatives directly.

Jets are immutable values; every operation is pure.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product as _cartesian

from .catalog import DomainError, ElementaryFn, UnsupportedOrderError

#: Largest supported truncation order: 12! is the last factorial exactly
#: representable alongside its multinomial weights without drift.
MAX_ORDER = 12

STANDARD = "standard"
BERZ = "berz"


class JetShape:
    """Index bookkeeping for n variables truncated at total degree N.

    Monomial multi-indices are laid out in graded lexicographic order, so
    position 0 is the constant term and the table has C(n+N, N) entries.
    Obtain instances through :func:`jet_shape` (they are cached and compared
    by identity).
    """

    __slots__ = ("n", "order", "monomials", "position", "_pair_table", "factorials")

    def __init__(self, n: int, order: int):
        if n < 1:
            raise ValueError("need at least one variable")
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"truncation order must be in 1..{MAX_ORDER}")
        self.n = n
        self.order = order
        monos = [
            k
            for k in _cartesian(range(order + 1), repeat=n)
            if sum(k) <= order
        ]
        monos.sort(key=lambda k: (sum(k), k))
        self.monomials: tuple[tuple[int, ...], ...] = tuple(monos)
        self.position: dict[tuple[int, ...], int] = {
            k: i for i, k in enumerate(monos)
        }
        self.factorials: tuple[float, ...] = tuple(
            float(math.prod(math.factorial(ki) for ki in k)) for k in monos
        )
        self._pair_table = None

    @property
    def size(self) -> int:
        return len(self.monomials)

    def pair_table(self):
        """For each position i: list of (j, target, multinomial weight) with
        deg(i) + deg(j) <= N."""
        if self._pair_table is None:
            table = []
            for ki in self.monomials:
                row = []
                for j, kj in enumerate(self.monomials):
                    k = tuple(a + b for a, b in zip(ki, kj))
                    if sum(k) > self.order:
                        continue
                    w = float(
                        math.prod(math.comb(a + b, a) for a, b in zip(ki, kj))
                    )
                    row.append((j, self.position[k], w))
                table.append(row)
            self._pair_table = table
        return self._pair_table

    def __repr__(self) -> str:
        return f"JetShape(n={self.n}, order={self.order})"


@lru_cache(maxsize=None)
def jet_shape(n: int, order: int) -> JetShape:
    return JetShape(n, order)


class Jet:
    """Dense coefficient vector over a JetShape, in one of the two bases."""

    __slots__ = ("shape", "coeffs", "basis")

    def __init__(self, shape: JetShape, coeffs: list[float], basis: str = STANDARD):
        if len(coeffs) != shape.size:
            raise ValueError("coefficient vector does not match shape")
        if basis not in (STANDARD, BERZ):
            raise ValueError(f"unknown basis {basis!r}")
        self.shape = shape
        self.coeffs = [float(c) for c in coeffs]
        self.basis = basis

    def __repr__(self) -> str:
        return f"Jet({self.shape!r}, {self.coeffs!r}, basis={self.basis!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return (
            self.shape is other.shape
            and self.basis == other.basis
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((id(self.shape), self.basis, tuple(self.coeffs)))


def _require_compatible(a: Jet, b: Jet) -> None:
    if a.shape is not b.shape:
        raise ValueError("jet shape mismatch")
    if a.basis != b.basis:
        raise ValueError("jet basis mismatch")


def jet_constant(shape: JetShape, c: float, basis: str = STANDARD) -> Jet:
    coeffs = [0.0] * shape.size
    coeffs[0] = float(c)
    return Jet(shape, coeffs, basis)


def jet_variable(shape: JetShape, i: int, c: float, basis: str = STANDARD) -> Jet:
    """The jet c + X_i seeding variable i (1-based) at the point c.

    Identical in both bases: degree-one monomials carry no factorial weight.
    """
    if not 1 <= i <= shape.n:
        raise IndexError(f"variable index {i} out of range 1..{shape.n}")
    coeffs = [0.0] * shape.size
    coeffs[0] = float(c)
    unit = tuple(1 if j == i - 1 else 0 for j in range(shape.n))
    coeffs[shape.position[unit]] = 1.0
    return Jet(shape, coeffs, basis)


def jet_add(a: Jet, b: Jet) -> Jet:
    _require_compatible(a, b)
    return Jet(a.shape, [x + y for x, y in zip(a.coeffs, b.coeffs)], a.basis)


def jet_sub(a: Jet, b: Jet) -> Jet:
    _require_compatible(a, b)
    return Jet(a.shape, [x - y for x, y in zip(a.coeffs, b.coeffs)], a.basis)


def jet_neg(a: Jet) -> Jet:
    return Jet(a.shape, [-x for x in a.coeffs], a.basis)


def jet_scale(a: Jet, s: float) -> Jet:
    return Jet(a.shape, [x * s for x in a.coeffs], a.basis)


def jet_mul(a: Jet, b: Jet) -> Jet:
    """Coefficient convolution, discarding all terms of total degree > N.

    In the berz basis each contribution is weighted by the multinomial
    k!/(r! s!) forced by multiplying factorial-scaled monomials.
    """
    _require_compatible(a, b)
    out = [0.0] * a.shape.size
    berz = a.basis == BERZ
    ac, bc = a.coeffs, b.coeffs
    for i, row in enumerate(a.shape.pair_table()):
        ai = ac[i]
        for j, target, w in row:
            if berz:
                out[target] += w * ai * bc[j]
            else:
                out[target] += ai * bc[j]
    return Jet(a.shape, out, a.basis)


def jet_div(a: Jet, b: Jet) -> Jet:
    """Long division: solve q * b = a coefficient by coefficient in graded
    order.  Defined iff the constant term of b is nonzero."""
    _require_compatible(a, b)
    b0 = b.coeffs[0]
    if b0 == 0.0:
        raise DomainError("div", (a.coeffs[0], b0))
    shape = a.shape
    berz = a.basis == BERZ
    q = [0.0] * shape.size
    monos = shape.monomials
    pos = shape.position
    q[0] = a.coeffs[0] / b0
    for t in range(1, shape.size):
        k = monos[t]
        acc = 0.0
        # every split k = r + s with r != 0; s is then strictly lower degree
        for r_pos in range(1, shape.size):
            r = monos[r_pos]
            if sum(r) > sum(k):
                break
            s = tuple(a_ - b_ for a_, b_ in zip(k, r))
            if any(x < 0 for x in s):
                continue
            if berz:
                w = float(math.prod(math.comb(a_ + b_, a_) for a_, b_ in zip(r, s)))
                acc += w * b.coeffs[r_pos] * q[pos[s]]
            else:
                acc += b.coeffs[r_pos] * q[pos[s]]
        q[t] = (a.coeffs[t] - acc) / b0
    return Jet(shape, q, a.basis)


_FACT = [float(math.factorial(k)) for k in range(MAX_ORDER + 1)]

#: Arithmetic by name: jet arithmetic directly.
_ARITHMETIC = {
    "add": jet_add,
    "sub": jet_sub,
    "neg": jet_neg,
    "mul": jet_mul,
    "div": jet_div,
    "copy": lambda a: Jet(a.shape, list(a.coeffs), a.basis),
}


def jet_lift_elementary(fn: ElementaryFn, args: list[Jet]) -> Jet:
    """Apply a catalogue function to jet arguments.

    Arithmetic uses jet arithmetic directly.  A unary f with an order-N
    derivative rule is lifted through its truncated Taylor sum
    sum_k (u^k / k!) f^(k)(x) with u the nilpotent part of the argument,
    which is finite and exact in the quotient.
    """
    fn.check_arity(args)
    op = _ARITHMETIC.get(fn.name)
    if op is not None:
        return op(*args)
    if fn.arity != 1 or fn.derivs is None:
        raise UnsupportedOrderError(f"{fn.name} has no unary derivative rule to lift")
    arg = args[0]
    x0 = arg.coeffs[0]
    fn.check_domain([x0])
    n = arg.shape.order
    d = fn.derivs(x0, n)
    total = jet_constant(arg.shape, d[0], arg.basis)
    u = jet_sub(arg, jet_constant(arg.shape, x0, arg.basis))
    p = None
    for k in range(1, n + 1):
        p = u if k == 1 else jet_mul(p, u)
        total = jet_add(total, jet_scale(p, d[k] / _FACT[k]))
    return total


def jet_extract_partial(j: Jet, k: tuple[int, ...]) -> float:
    """The order-k partial derivative stored in the jet: k! times the
    standard-basis coefficient, or the berz coefficient directly."""
    k = tuple(int(x) for x in k)
    pos = j.shape.position.get(k)
    if pos is None:
        raise IndexError(f"multi-index {k} out of range for {j.shape!r}")
    if j.basis == BERZ:
        return j.coeffs[pos]
    return j.shape.factorials[pos] * j.coeffs[pos]


def jet_convert_basis(j: Jet, target: str) -> Jet:
    """Rescale slot k by k! (standard -> berz) or 1/k! (berz -> standard)."""
    if target not in (STANDARD, BERZ):
        raise ValueError(f"unknown basis {target!r}")
    if j.basis == target:
        return Jet(j.shape, list(j.coeffs), j.basis)
    if target == BERZ:
        coeffs = [c * f for c, f in zip(j.coeffs, j.shape.factorials)]
    else:
        coeffs = [c / f for c, f in zip(j.coeffs, j.shape.factorials)]
    return Jet(j.shape, coeffs, target)
