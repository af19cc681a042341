"""Truncated multivariate polynomial arithmetic ("jets").

A jet over n variables truncated at total degree N is a dense coefficient
vector over all monomials X1^k1 ... Xn^kn with k1 + ... + kn <= N.  Jets
carry the operators ``+ - * /`` and unary ``-``, with each other and with
floats, and products drop every term of total degree above N.  A unary
catalogue function is lifted on the Taylor engine (`adkit.taylor`): with
E = sum_i X_i d/dX_i, the chain rule E f(u) = f'(u) E u fixes the degree-d
part of f(u) from f'(u) through degree d - 1.  Evaluating f on the jets
(x1 + X1, ..., xn + Xn) packs every partial derivative of f at x up to
order N into one vector; `JetAlgebra` is that evaluation's algebra.

In the ``standard`` basis the slot for multi-index k holds the coefficient
of X^k (the order-k partial is k1!...kn! times it); in the ``berz`` basis
the monomials are X^k/k1!...kn!, so slots hold partial derivatives.  The
basis only picks the weights: products, quotients and lifts run the Taylor
engine's loops over the split table `JetShape.pair_table(basis)`.  Jets
are immutable values; every operation is pure.

A product runs the general loop whatever its factors.  A lift of a flat
jet (`taylor.flat`: a finite head, then signed zeros, as constants are)
costs only its rule's heads: see `taylor.grow`.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import combinations_with_replacement

from . import taylor
from .catalog import DomainError, ElementaryFn, Lifted, _LiftedAlgebra, integer

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
    Each degree is enumerated on its own, by stars and bars, and `ends[d]`
    is the number of monomials of degree at most d.  Obtain instances
    through :func:`jet_shape` (cached, compared by identity).
    """

    __slots__ = ("n", "order", "size", "ends", "monomials", "position", "_tables",
                 "factorials", "degrees")

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
        self.size = size
        self.ends = tuple(math.comb(n + d, n) for d in range(order + 1))
        monos = [k for d in range(order + 1) for k in _degree(n, d)]
        self.monomials: tuple[tuple[int, ...], ...] = tuple(monos)
        self.position: dict[tuple[int, ...], int] = {
            k: i for i, k in enumerate(monos)
        }
        self.factorials: tuple[float, ...] = tuple(
            float(math.prod(map(math.factorial, k))) for k in monos
        )
        self.degrees: tuple[int, ...] = tuple(map(sum, monos))
        self._tables: dict[str, list] = {}

    def pair_table(self, basis: str = BERZ):
        """The basis's split table (see `adkit.taylor`): for each position t,
        the (r, s, w, e) with monomials r + s = t and r != 0, in ascending r.
        In the berz basis w = t! / (r! s!) is the multinomial weight and
        e = |r| w the lift's; in the standard basis w = 1.0 and e = float(|r|).

        The partners s of r are the first C(n + N - deg r, n) positions of
        the graded layout, so visiting r in ascending order lists each
        target's splits in ascending r.  The weight t! / (r! s!) is exact,
        since every factorial involved is at most 12!.  Equal weights are
        one float object and each position one int object, so an entry
        costs little beyond its tuple.
        """
        if basis not in self._tables:
            _check_basis(basis)
            e = [float(d) for d in range(self.order + 1)]
            self._tables[basis] = self._berz_table() if basis == BERZ else [
                [(r, s, 1.0, e[self.degrees[r]]) for r, s, _, _ in splits]
                for splits in self.pair_table()]
        return self._tables[basis]

    def _berz_table(self) -> list:
        monos, position, fact = self.monomials, self.position, self.factorials
        table = [[] for _ in monos]
        interned: dict[float, float] = {}
        index = list(range(self.size))
        for r in index[1:]:
            kr, fr, dr = monos[r], fact[r], self.degrees[r]
            for s in index[:math.comb(self.n + self.order - dr, self.n)]:
                t = position[tuple(map(operator.add, kr, monos[s]))]
                w = fact[t] / (fr * fact[s])
                w = interned.setdefault(w, w)
                e = dr * w
                table[t].append((r, s, w, interned.setdefault(e, e)))
        return table

    def __repr__(self) -> str:
        return f"JetShape(n={self.n}, order={self.order})"


def _degree(n: int, d: int):
    """The multi-indices of total degree d in n variables, in lexicographic
    order, by stars and bars: the gaps between cuts 0 <= c_1 <= ... <= d."""
    for cuts in combinations_with_replacement(range(d + 1), n - 1):
        edges = (0, *cuts, d)
        yield tuple(map(operator.sub, edges[1:], edges))


def jet_shape(n: int, order: int) -> JetShape:
    return _shapes(integer(n, "jet_shape's n"), integer(order, "jet_shape's order"))


_shapes = lru_cache(maxsize=None)(JetShape)  # one shape object per (n, order)


def _check_basis(basis: str) -> None:
    if basis not in (STANDARD, BERZ):
        raise ValueError(f"unknown basis {basis!r}")


class Jet(Lifted):
    """Dense coefficient vector over a JetShape, in one of the two bases.
    Its operators take jets of the same shape and basis, and floats (a float
    c is the constant jet c).

    ``Jet(shape, coeffs, basis)`` checks the length and the basis and takes
    a float of every coefficient.  The jets this module computes itself
    (sums, products, quotients, lifts) are built by `_jet`, which trusts
    them and skips those checks.
    """

    __slots__ = ("shape", "coeffs", "basis")

    def __init__(self, shape: JetShape, coeffs: list[float], basis: str = STANDARD):
        if len(coeffs) != shape.size:
            raise ValueError("coefficient vector does not match shape")
        _check_basis(basis)
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

    @property
    def table(self) -> list:
        """The split table of the jet's shape and basis."""
        return self.shape.pair_table(self.basis)

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
        return _jet(self.shape, [x + y for x, y in zip(self.coeffs, b.coeffs)], self.basis)

    def _sub(self, b: Jet) -> Jet:
        return _jet(self.shape, [x - y for x, y in zip(self.coeffs, b.coeffs)], self.basis)

    def __neg__(self) -> Jet:
        return _jet(self.shape, [-x for x in self.coeffs], self.basis)

    def _mul(self, b: Jet) -> Jet:
        """Coefficient convolution, discarding all terms of total degree > N."""
        out: list[float] = []
        taylor.product(out, self.coeffs, b.coeffs, self.table, range(self.shape.size))
        return _jet(self.shape, out, self.basis)

    def _div(self, b: Jet) -> Jet:
        """Long division: solve q * b = self coefficient by coefficient in
        graded order.  Defined iff the constant term of b is nonzero."""
        b0 = b.coeffs[0]
        if b0 == 0.0:
            raise DomainError("div", (self.coeffs[0], b0))
        q = [self.coeffs[0] / b0]
        taylor.quotient(q, self.coeffs, b.coeffs, self.table, range(1, self.shape.size))
        return _jet(self.shape, q, self.basis)


def _jet(shape: JetShape, coeffs: list[float], basis: str) -> Jet:
    """The jet of coefficients this module computed: a list of floats of
    the shape's size, in a known basis.  Jet's checks are skipped."""
    j = object.__new__(Jet)
    j.shape, j.coeffs, j.basis = shape, coeffs, basis
    return j


def jet_constant(shape: JetShape, c: float, basis: str = STANDARD) -> Jet:
    _check_basis(basis)
    coeffs = [0.0] * shape.size
    coeffs[0] = float(c)
    return _jet(shape, coeffs, basis)


def jet_variable(shape: JetShape, i: int, c: float, basis: str = STANDARD) -> Jet:
    """The jet c + X_i seeding variable i (1-based) at the point c.

    Identical in both bases: degree-one monomials carry no factorial weight.
    """
    if not 1 <= i <= shape.n:
        raise IndexError(f"variable index {i} out of range 1..{shape.n}")
    _check_basis(basis)
    coeffs = [0.0] * shape.size
    coeffs[0] = float(c)
    unit = tuple(1 if j == i - 1 else 0 for j in range(shape.n))
    coeffs[shape.position[unit]] = 1.0
    return _jet(shape, coeffs, basis)


def _each(node: _Node, d: int, levels: list, j: int) -> None:
    """Degree d of `extra` (add, sub or neg) applied to the inputs."""
    lo, hi = node.ends[d - 1], node.ends[d]
    node.entries += map(node.extra, *[x.entries[lo:hi] for x in node.inputs])


def _split(node: _Node, d: int, levels: list, j: int) -> None:
    """Degree d of a product or quotient (`extra`: `taylor.product`, `taylor.quotient`)."""
    x, y = node.inputs
    node.extra(node.entries, x.entries, y.entries, node.table,
               range(node.ends[d - 1], node.ends[d]))


def _chain(node: _Node, d: int, levels: list, j: int) -> None:
    """Degree d of a lift w = f(u): the Euler sum (`taylor.euler`), with v
    the first partial f'(u_0) at d = 1, as dual numbers take it, and
    g = f'(u) after (see `taylor.grow`)."""
    u = node.inputs[0].entries
    v = ([float(p) for p in node.extra[0].partials([u[0]])] if d == 1
         else node.inputs[1].entries)
    taylor.euler(node.entries, u, v, node.table, range(node.ends[d - 1], node.ends[d]), d)
    if d == 1 and j + 1 < len(levels):  # w is filled beyond degree 1
        taylor.grow(node, levels, j)


def _zero(node: _Node, d: int, levels: list, j: int) -> None:
    node.entries += [0.0] * (node.ends[d] - node.ends[d - 1])


class _Node(Lifted):
    """A jet in a lift: a Taylor engine node, built by a rule's operators on
    the shape and split table of `like`, a jet or node."""

    __slots__ = ("entries", "inputs", "fill", "extra", "serial", "shape", "table", "ends")
    chain, zero = staticmethod(_chain), staticmethod(_zero)

    def __init__(self, entries: list[float], inputs: tuple, fill, extra, like):
        self.entries, self.inputs, self.fill, self.extra = entries, inputs, fill, extra
        self.shape, self.table, self.ends = like.shape, like.table, like.shape.ends
        self.serial = next(taylor.serial)

    def _promote(self, b):
        if isinstance(b, (int, float)):
            return _Node(jet_constant(self.shape, b).coeffs, (), None, None, self)
        return b if isinstance(b, _Node) else NotImplemented

    def _add(self, b: _Node) -> _Node:
        return _Node([self.entries[0] + b.entries[0]], (self, b), _each, operator.add, self)

    def _sub(self, b: _Node) -> _Node:
        return _Node([self.entries[0] - b.entries[0]], (self, b), _each, operator.sub, self)

    def __neg__(self) -> _Node:
        return _Node([-self.entries[0]], (self,), _each, operator.neg, self)

    def _mul(self, b: _Node) -> _Node:
        return _Node([0.0 + self.entries[0] * b.entries[0]], (self, b), _split, taylor.product, self)

    def _div(self, b: _Node) -> _Node:
        x0, y0 = self.entries[0], b.entries[0]
        if y0 == 0.0:
            raise DomainError("div", (x0, y0))
        return _Node([x0 / y0], (self, b), _split, taylor.quotient, self)


_Node.make = _Node  # the constructor `taylor.lift` calls


def lift(fn: ElementaryFn, args: list[Jet]) -> Jet:
    """A unary catalogue function with a first-order rule (else
    UnsupportedOrderError) lifted onto the jet args[0] (see `_chain`).  Its
    value, first partial and a float its rule returns enter as floats."""
    arg = args[0]
    if not isinstance(arg, Jet):
        raise TypeError(f"a jet lift needs a Jet, not {type(arg).__name__}")
    w = taylor.lift(fn, (_Node(arg.coeffs, (), _zero, None, arg), {}))
    return _jet(arg.shape, taylor.force(w, arg.shape.order + 1), arg.basis)


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
    _check_basis(target)
    if j.basis == target:
        return _jet(j.shape, list(j.coeffs), j.basis)
    if target == BERZ:
        coeffs = [c * f for c, f in zip(j.coeffs, j.shape.factorials)]
    else:
        coeffs = [c / f for c, f in zip(j.coeffs, j.shape.factorials)]
    return _jet(j.shape, coeffs, target)


class JetAlgebra(_LiftedAlgebra):
    """Higher-order forward mode over truncated polynomials."""

    def __init__(self, shape: JetShape, basis: str = STANDARD):
        _check_basis(basis)
        self.shape = shape
        self.basis = basis

    def constant(self, c: float) -> Jet:
        return jet_constant(self.shape, c, self.basis)

    lift = staticmethod(lift)
