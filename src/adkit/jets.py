"""Truncated multivariate polynomial arithmetic ("jets").

A jet over n variables truncated at total degree N is a dense coefficient
vector over all monomials X1^k1 ... Xn^kn with k1 + ... + kn <= N.  Jets
carry the operators ``+ - * /`` and unary ``-``, with each other and with
floats, and products simply drop every term of total degree above N.  A
unary catalogue function is lifted degree by degree from its first-order
rule: with E = sum_i X_i d/dX_i the Euler operator, the chain rule
E f(u) = f'(u) E u fixes the degree-d part of f(u) from f'(u) truncated at
degree d - 1 (Griewank & Walther, *Evaluating Derivatives*, ch. 13).  Evaluating f on the jets (x1 + X1, ..., xn + Xn) then
packs every partial derivative of f at x up to order N into one coefficient
vector.

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

from .catalog import DomainError, ElementaryFn, Lifted, derivative_rule, lookup

#: Largest supported truncation order: 12! is the last factorial exactly
#: representable alongside its multinomial weights without drift.
MAX_ORDER = 12

#: Largest jet, in coefficients C(n+N, N): (4, 12) holds 1820, while
#: (8, 12) would hold 125,970 and take hours to tabulate.
MAX_SIZE = 2000

STANDARD = "standard"
BERZ = "berz"


class JetShape:
    """Index bookkeeping for n variables truncated at total degree N.

    Monomial multi-indices are laid out in graded lexicographic order, so
    position 0 is the constant term and the table has C(n+N, N) entries.
    Obtain instances through :func:`jet_shape` (they are cached and compared
    by identity).
    """

    __slots__ = (
        "n", "order", "monomials", "position", "_pair_table", "_split_table",
        "factorials", "degrees",
    )

    def __init__(self, n: int, order: int):
        if n < 1:
            raise ValueError("need at least one variable")
        if not 1 <= order <= MAX_ORDER:
            raise ValueError(f"truncation order must be in 1..{MAX_ORDER}")
        size = math.comb(n + order, order)  # checked before any enumeration
        if size > MAX_SIZE:
            raise ValueError(f"a jet in {n} variables to order {order} holds "
                             f"{size} coefficients, more than {MAX_SIZE}")
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
        self.degrees: tuple[int, ...] = tuple(sum(k) for k in monos)
        self._pair_table = None
        self._split_table = None

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

    def split_table(self):
        """For each position t: list of (r, s, multinomial weight) with
        monomials r + s = t and r != 0, in ascending r.  These are the pair
        table's entries with i != 0, regrouped by target."""
        if self._split_table is None:
            table = [[] for _ in self.monomials]
            pairs = self.pair_table()
            for r in range(1, self.size):
                for s, t, w in pairs[r]:
                    table[t].append((r, s, w))
            self._split_table = table
        return self._split_table

    def __repr__(self) -> str:
        return f"JetShape(n={self.n}, order={self.order})"


@lru_cache(maxsize=None)
def jet_shape(n: int, order: int) -> JetShape:
    return JetShape(n, order)


class Jet(Lifted):
    """Dense coefficient vector over a JetShape, in one of the two bases.
    Its operators take jets of the same shape and basis, and floats (a float
    c is the constant jet c)."""

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

    def _promote(self, b):
        if isinstance(b, Jet):
            if b.shape is not self.shape:
                raise ValueError("jet shape mismatch")
            if b.basis != self.basis:
                raise ValueError("jet basis mismatch")
            return b
        if isinstance(b, (int, float)):
            return jet_constant(self.shape, b, self.basis)
        return NotImplemented

    def _add(self, b: Jet) -> Jet:
        return Jet(self.shape, [x + y for x, y in zip(self.coeffs, b.coeffs)], self.basis)

    def _sub(self, b: Jet) -> Jet:
        return Jet(self.shape, [x - y for x, y in zip(self.coeffs, b.coeffs)], self.basis)

    def __neg__(self) -> Jet:
        return Jet(self.shape, [-x for x in self.coeffs], self.basis)

    def _mul(self, b: Jet) -> Jet:
        """Coefficient convolution, discarding all terms of total degree > N.

        In the berz basis each contribution is weighted by the multinomial
        k!/(r! s!) forced by multiplying factorial-scaled monomials.
        """
        out = [0.0] * self.shape.size
        berz = self.basis == BERZ
        ac, bc = self.coeffs, b.coeffs
        for i, row in enumerate(self.shape.pair_table()):
            ai = ac[i]
            for j, target, w in row:
                if berz:
                    out[target] += w * ai * bc[j]
                else:
                    out[target] += ai * bc[j]
        return Jet(self.shape, out, self.basis)

    def _div(self, b: Jet) -> Jet:
        """Long division: solve q * b = self coefficient by coefficient in
        graded order.  Defined iff the constant term of b is nonzero."""
        b0 = b.coeffs[0]
        if b0 == 0.0:
            raise DomainError("div", (self.coeffs[0], b0))
        shape = self.shape
        ac, bc = self.coeffs, b.coeffs
        q = [0.0] * shape.size
        q[0] = ac[0] / b0
        splits = shape.split_table()
        berz = self.basis == BERZ
        # every split t = r + s with r != 0; s is then strictly lower degree
        for t in range(1, shape.size):
            acc = 0.0
            for r, s, w in splits[t]:
                acc += (w * bc[r] if berz else bc[r]) * q[s]
            q[t] = (ac[t] - acc) / b0
        return Jet(shape, q, self.basis)


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


def lift(fn: ElementaryFn, args: list[Jet]) -> Jet:
    """A unary catalogue function with a first-order rule (else
    UnsupportedOrderError), lifted degree by degree onto the jet args[0].

    w = f(u) has the constant term f(u_0), and its degree-d coefficients are
    w_t = sum |r| u_r v_s / d over the splits t = r + s, where v = f'(u) is
    the rule evaluated at truncation d - 1, or at d = 1 the first partial
    f'(u_0) from `partials` (in the berz basis each term carries the split's
    multinomial weight).  The lifts f' needs on the same argument (cos for
    sin, pow{k-1} for pow{k}) form one family: each is built once and filled
    alongside.
    """
    derivative_rule(fn)
    arg = args[0]
    return Jet(arg.shape, _Family(arg).fill(fn, arg.shape.order), arg.basis)


class _Family:
    """The lifts of catalogue functions on one jet argument, each built once.

    A lift is stored by name as [coefficients, degree filled]; its
    coefficients above that degree are still zero.
    """

    __slots__ = ("arg", "lifts")

    def __init__(self, arg: Jet):
        self.arg = arg
        self.lifts: dict[str, list] = {}

    def fill(self, fn: ElementaryFn, degree: int) -> list[float]:
        """The coefficients of fn(arg), filled through total degree `degree`."""
        lift = self.lifts.get(fn.name)
        if lift is None:
            derivative_rule(fn)
            x0 = self.arg.coeffs[0]
            fn.check_domain([x0])
            coeffs = [0.0] * self.arg.shape.size
            coeffs[0] = fn.value([x0])
            lift = self.lifts[fn.name] = [coeffs, 0]
        for d in range(lift[1] + 1, degree + 1):
            self._fill_degree(fn, lift[0], d)
            lift[1] = d
        return lift[0]

    def _fill_degree(self, fn: ElementaryFn, w: list[float], d: int) -> None:
        arg = self.arg
        n, basis = arg.shape.n, arg.basis
        if d == 1:
            # The first partial, as dual numbers take it.
            v = fn.partials([arg.coeffs[0]])
        else:
            # The graded layout of order d - 1 is a prefix of the full one.
            low = jet_shape(n, d - 1)

            def view(coeffs: list[float]) -> Jet:
                return Jet(low, coeffs[:low.size], basis)

            a = view(arg.coeffs)
            v = a._promote(fn.derivative(
                a, view(w), lambda name: view(self.fill(lookup(name), d - 1)),
            )).coeffs
        u, shape = arg.coeffs, arg.shape
        splits, degrees = shape.split_table(), shape.degrees
        berz = basis == BERZ
        for t in range(math.comb(n + d - 1, n), math.comb(n + d, n)):
            acc = 0.0
            for r, s, wt in splits[t]:
                acc += degrees[r] * (wt if berz else 1.0) * u[r] * v[s]
            w[t] = acc / d


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
