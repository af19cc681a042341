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
vector; `JetAlgebra` is that evaluation's algebra.

Two coefficient conventions are supported: in the ``standard`` basis the slot
for multi-index k holds the coefficient of X^k (the order-k partial is
k1!...kn! times it); in the ``berz`` basis the monomials are X^k/k1!...kn!, so
slots hold partial derivatives directly.

Jets are immutable values; every operation is pure.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import combinations_with_replacement

from .algebras import _LiftedAlgebra
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
    Each degree is enumerated on its own, by stars and bars.  Obtain
    instances through :func:`jet_shape` (cached, compared by identity); a
    lift's rule sees jets over the prefix `truncated(d - 1)` of this shape.
    """

    __slots__ = ("n", "order", "size", "monomials", "position", "_pair_table", "factorials",
                 "degrees", "_views")

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
        monos = [k for d in range(order + 1) for k in _degree(n, d)]
        self.monomials: tuple[tuple[int, ...], ...] = tuple(monos)
        self.position: dict[tuple[int, ...], int] = {
            k: i for i, k in enumerate(monos)
        }
        self.factorials: tuple[float, ...] = tuple(
            float(math.prod(map(math.factorial, k))) for k in monos
        )
        self.degrees: tuple[int, ...] = tuple(map(sum, monos))
        self._pair_table = None
        self._views: dict[int, JetShape] = {}

    def pair_table(self):
        """For each position t: list of (r, s, w, e) with monomials
        r + s = t and r != 0, in ascending r, where w = t! / (r! s!) is the
        multinomial weight and e = |r| w the berz lift's weight.

        The partners s of r are the first C(n + N - deg r, n) positions of
        the graded layout, so visiting r in ascending order lists each
        target's splits in ascending r.  The weight t! / (r! s!) is exact,
        since every factorial involved is at most 12!.  Equal weights are
        one float object and each position one int object, so an entry
        costs little beyond its tuple.
        """
        if self._pair_table is None:
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
            self._pair_table = table
        return self._pair_table

    def truncated(self, d: int) -> JetShape:
        """The shape of order d <= N, built once per d (truncated(N) is self):
        this layout's first C(n + d, d) positions, sharing their monomials,
        factorials, degrees and index-table rows, and the position map."""
        if not 1 <= d <= self.order:
            raise ValueError(f"truncation order must be in 1..{self.order}")
        view = self if d == self.order else self._views.get(d)
        if view is None:
            view, size = object.__new__(JetShape), math.comb(self.n + d, d)
            view.n, view.order, view.size = self.n, d, size
            view.position, view._views = self.position, {}
            self.pair_table()
            for name in ("monomials", "factorials", "degrees", "_pair_table"):
                setattr(view, name, getattr(self, name)[:size])
            view = self._views.setdefault(d, view)
        return view

    def __repr__(self) -> str:
        return f"JetShape(n={self.n}, order={self.order})"


def _degree(n: int, d: int):
    """The multi-indices of total degree d in n variables, in lexicographic
    order, by stars and bars: the gaps between cuts 0 <= c_1 <= ... <= d."""
    for cuts in combinations_with_replacement(range(d + 1), n - 1):
        edges = (0, *cuts, d)
        yield tuple(map(operator.sub, edges[1:], edges))


@lru_cache(maxsize=None)
def jet_shape(n: int, order: int) -> JetShape:
    return JetShape(n, order)


def _check_basis(basis: str) -> None:
    if basis not in (STANDARD, BERZ):
        raise ValueError(f"unknown basis {basis!r}")


class Jet(Lifted):
    """Dense coefficient vector over a JetShape, in one of the two bases.
    Its operators take jets of the same shape and basis, and floats (a float
    c is the constant jet c).

    ``Jet(shape, coeffs, basis)`` checks the length and the basis and takes
    a float of every coefficient.  The jets this module computes itself
    (sums, products, quotients, lifts, the views a rule sees) are built by
    `_jet`, which trusts them and skips those checks.
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
        """Coefficient convolution, discarding all terms of total degree > N.

        Target t sums a_0 b_t and then its splits t = r + s in ascending r,
        from +0.0.  In the berz basis each split is weighted by the
        multinomial t!/(r! s!) forced by multiplying factorial-scaled
        monomials (1 for r = 0).
        """
        ac, bc = self.coeffs, b.coeffs
        a0 = ac[0]
        out = []
        if self.basis == BERZ:
            for t, row in enumerate(self.shape.pair_table()):
                acc = 0.0 + a0 * bc[t]
                for r, s, w, _ in row:
                    acc += w * ac[r] * bc[s]
                out.append(acc)
        else:
            for t, row in enumerate(self.shape.pair_table()):
                acc = 0.0 + a0 * bc[t]
                for r, s, _, _ in row:
                    acc += ac[r] * bc[s]
                out.append(acc)
        return _jet(self.shape, out, self.basis)

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
        splits = shape.pair_table()
        # every split t = r + s with r != 0; s is then strictly lower degree
        if self.basis == BERZ:
            for t in range(1, shape.size):
                acc = 0.0
                for r, s, w, _ in splits[t]:
                    acc += w * bc[r] * q[s]
                q[t] = (ac[t] - acc) / b0
        else:
            for t in range(1, shape.size):
                acc = 0.0
                for r, s, _, _ in splits[t]:
                    acc += bc[r] * q[s]
                q[t] = (ac[t] - acc) / b0
        return _jet(shape, q, self.basis)


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


def lift(fn: ElementaryFn, args: list[Jet]) -> Jet:
    """A unary catalogue function with a first-order rule (else
    UnsupportedOrderError), lifted degree by degree onto the jet args[0].

    w = f(u) has the constant term f(u_0), and its degree-d coefficients are
    w_t = sum |r| u_r v_s / d over the splits t = r + s, where v = f'(u) is
    the rule evaluated on jets over the prefix `shape.truncated(d - 1)`, or
    at d = 1 the first partial f'(u_0) from `partials` (in the berz basis
    each term carries the split's weight e = |r| t!/(r! s!) from the index
    table).  The lifts f' needs on the same argument (cos for sin, pow{k-1}
    for pow{k}) form one family: each is built once and filled alongside.
    What the function returns enters as floats: its value, its first
    partial, and a float the rule returns (as a constant jet).
    """
    arg = args[0]
    return _jet(arg.shape, _Family(arg).fill(fn, arg.shape.order), arg.basis)


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
            coeffs[0] = float(fn.value([x0]))
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
            v = [float(p) for p in fn.partials([arg.coeffs[0]])]
        else:
            # The graded layout of order d - 1 is a prefix of the full one.
            low = arg.shape.truncated(d - 1)

            def view(coeffs: list[float]) -> Jet:
                return _jet(low, coeffs[:low.size], basis)

            a = view(arg.coeffs)
            v = a._promote(fn.derivative(
                a, view(w), lambda name: view(self.fill(lookup(name), d - 1)),
            )).coeffs
        u, shape = arg.coeffs, arg.shape
        splits, degrees = shape.pair_table(), shape.degrees
        targets = range(math.comb(n + d - 1, n), math.comb(n + d, n))
        if basis == BERZ:
            for t in targets:
                acc = 0.0
                for r, s, _, e in splits[t]:
                    acc += e * u[r] * v[s]
                w[t] = acc / d
        else:
            for t in targets:
                acc = 0.0
                for r, s, _, _ in splits[t]:
                    acc += degrees[r] * u[r] * v[s]
                w[t] = acc / d


def jet_extract_partial(j: Jet, k: tuple[int, ...]) -> float:
    """The order-k partial derivative stored in the jet: k! times the
    standard-basis coefficient, or the berz coefficient directly."""
    k = tuple(int(x) for x in k)
    pos = j.shape.position.get(k)
    if pos is None or pos >= j.shape.size:  # a truncated shape shares the map
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
        self.shape = shape
        self.basis = basis

    def constant(self, c: float) -> Jet:
        return jet_constant(self.shape, c, self.basis)

    lift = staticmethod(lift)
