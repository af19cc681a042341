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

A product runs the general loop whatever its factors.  A lift replays its
function's plan (`taylor.plan`, `_lifted`), so a lift of a flat jet (a
finite head, then signed zeros, as constants are) costs only the plan's
heads when it settles.  `JetAlgebra.sweep` runs `eval_generic` over plain
coefficient lists.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import combinations_with_replacement, islice
from math import isfinite
from typing import Sequence

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

    def __reduce__(self):  # a copy is built afresh from (n, order), its tables derived again
        return JetShape, (self.n, self.order)


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

    def __neg__(self) -> Jet:
        return _jet(self.shape, [-x for x in self.coeffs], self.basis)

    def _arithmetic(kind: str):
        def method(self, b: Jet) -> Jet:
            return _jet(self.shape, _BINARY[kind](self.coeffs, b.coeffs, self.table), self.basis)
        return method

    _add, _sub, _mul, _div = map(_arithmetic, ("add", "sub", "mul", "div"))
    del _arithmetic


def _product(x: list, y: list, table: list) -> list:
    """Coefficient convolution, discarding all terms of total degree > N."""
    out: list[float] = []
    taylor.product(out, x, y, table, range(len(x)))
    return out


def _quotient(x: list, y: list, table: list) -> list:
    """Long division: solve q * y = x coefficient by coefficient in graded
    order.  Defined iff the constant term of y is nonzero."""
    y0 = y[0]
    if y0 == 0.0:
        raise DomainError("div", (x[0], y0))
    q = [x[0] / y0]
    taylor.quotient(q, x, y, table, range(1, len(x)))
    return q


#: Binary arithmetic on coefficient lists, for `Jet`'s operators and the sweep.
_BINARY = {"add": lambda x, y, table: [a + b for a, b in zip(x, y)],
           "sub": lambda x, y, table: [a - b for a, b in zip(x, y)],
           "mul": _product, "div": _quotient}
_KIND = operator.itemgetter(0)  # an op-table step's kind


def _jet(shape: JetShape, coeffs: list[float], basis: str) -> Jet:
    """The jet of coefficients this module computed: a list of floats of
    the shape's size, in a known basis.  Jet's checks are skipped."""
    j = object.__new__(Jet)
    j.shape, j.coeffs, j.basis = shape, coeffs, basis
    return j


def jet_constant(shape: JetShape, c: float, basis: str = STANDARD) -> Jet:
    _check_basis(basis)
    return _jet(shape, _constant(shape.size, c), basis)


def _constant(size: int, c: float) -> list:
    coeffs = [0.0] * size
    coeffs[0] = float(c)
    return coeffs


def jet_variable(shape: JetShape, i: int, c: float, basis: str = STANDARD) -> Jet:
    """The jet c + X_i seeding variable i (1-based) at the point c.

    Identical in both bases: degree-one monomials carry no factorial weight.
    """
    i = integer(i, "jet_variable's i")
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
    UnsupportedOrderError) lifted onto the jet args[0] (see `_lifted`)."""
    arg = args[0]
    if not isinstance(arg, Jet):
        raise TypeError(f"a jet lift needs a Jet, not {type(arg).__name__}")
    return _jet(arg.shape, _lifted(fn, arg.coeffs, arg.shape, arg.basis), arg.basis)


def _lifted(fn: ElementaryFn, u: list, shape: JetShape, basis: str) -> list:
    """fn lifted on the jet u by its plan (`taylor.plan`): its value, its
    degree 1 from its first partial, as dual numbers take it, then, at
    N >= 2, the plan's heads with their domain and zero-divisor checks and
    its rows degree by degree.  Degree d fills w, then the rows of rounds
    1..N - d in row order, so round r is read through degree N - r, and a
    nested lift's degree 1 is its own first partial.  A flat u (a finite
    head, then signed zeros) settles to its head and +0.0 if the value, the
    first partial and the heads through round N are finite."""
    point, order = [u[0]], shape.order
    w = [taylor.head([u], "unary", 0, None, fn)]
    v = [float(p) for p in fn.partials(point)]
    table, ends = shape.pair_table(basis), shape.ends
    if order == 1:  # no rule runs
        taylor.euler(w, u, v, table, range(1, ends[1]), 1)
        return w
    plan = taylor.plan(fn, order)
    rows, flat = plan.rows, isfinite(u[0]) and not any(islice(u, 1, None))
    regs = [u, w]
    for kind, a, b, f in islice(rows, 1, plan.end(order if flat else order - 1)):
        if kind == "unary":
            f.check_domain(point)
            regs.append([float(f.value(point))])
        elif kind == "const":
            regs.append(_constant(len(u), a))
        else:  # a jet product's head is 0.0 + x0 y0, as its kernel writes it
            h = taylor.head(regs, kind, a, b, f)
            regs.append([0.0 + h if kind == "mul" else h])
    if flat and isfinite(v[0]) and all(isfinite(r[0]) for r in regs):
        return w + [0.0] * (len(u) - 1)
    g = regs[rows[0][2]]
    for d, fills in enumerate(_fills(plan, order), 1):
        lo, hi = ends[d - 1], ends[d]
        targets = range(lo, hi)
        taylor.euler(w, u, g if d > 1 else v, table, targets, d)
        for r, kind, a, b, f in fills:
            out = regs[r]
            if kind == "unary":
                taylor.euler(out, u, regs[b] if d > 1 else [float(p) for p in f.partials(point)],
                             table, targets, d)
            elif kind == "mul":
                taylor.product(out, regs[a], regs[b], table, targets)
            elif kind == "add":
                out += map(operator.add, regs[a][lo:hi], regs[b][lo:hi])
            elif kind == "sub":
                out += map(operator.sub, regs[a][lo:hi], regs[b][lo:hi])
            elif kind == "div":
                taylor.quotient(out, regs[a], regs[b], table, targets)
            elif kind == "neg":
                out += map(operator.neg, regs[a][lo:hi])
    return w


def _fills(plan: taylor.Plan, order: int) -> list:
    """For each degree d through `order`, the rows but constants of rounds
    1..order - d, each as (register, *row), derived once per order."""
    fills = plan.memo.get(order)
    if fills is None:
        fills = plan.memo[order] = [
            [(r, *plan.rows[r - 1]) for r in range(2, plan.end(order - d) + 1)
             if plan.rows[r - 1][0] != "const"] for d in range(1, order + 1)]
    return fills


def jet_extract_partial(j: Jet, k: tuple[int, ...]) -> float:
    """The order-k partial derivative stored in the jet: k! times the
    standard-basis coefficient, or the berz coefficient directly."""
    k = tuple(integer(x, "a multi-index entry") for x in k)
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

    def sweep(self, program, inputs: Sequence, slots: list) -> list[Jet] | None:
        """`expr.eval_generic` over jets of this shape and basis as one sweep
        over coefficient lists, one per slot in `slots`, by the code `Jet`'s
        operators and `lift` run, with no Jet per step.  None, with nothing
        done, if an input is not such a jet or a step is an ``other`` one."""
        shape, basis = self.shape, self.basis
        if "other" in map(_KIND, program.ops) or not all(
                type(x) is Jet and x.shape is shape and x.basis == basis for x in inputs):
            return None
        size, table = shape.size, shape.pair_table(basis)
        slots += [x.coeffs for x in inputs]
        put = slots.append
        for kind, a, b, fn in program.ops:  # this step fills slot len(slots)
            if kind == "const":
                put(_constant(size, a))
            elif kind == "unary":
                put(_lifted(fn, slots[a], shape, basis))
            elif kind == "copy":
                put(slots[a])
            elif kind == "neg":
                put([-x for x in slots[a]])
            else:
                put(_BINARY[kind](slots[a], slots[b], table))
        return [_jet(shape, slots[s], basis) for s in program.output_slots]
