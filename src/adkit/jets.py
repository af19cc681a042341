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
costs only its rule's heads: see `taylor.grow`.  `JetAlgebra.sweep` runs
`eval_generic` over plain coefficient lists.  A lift of one of the
catalogue's own functions replays the `_Schedule` recorded from the first
graph of its (fn, shape, basis) on a non-flat jet; only other lifts, and
flat ones before that, build the graph.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from itertools import chain, combinations_with_replacement, islice
from math import isfinite
from typing import Sequence

from . import taylor
from .catalog import (_ROW_FNS, DomainError, ElementaryFn, Lifted, _LiftedAlgebra, integer,
                      is_pow, pow_exponent, pow_fn)

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
                 "factorials", "degrees", "schedules")

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
        #: (fn name, basis) -> the `_Schedule` of that catalogue function's lift
        self.schedules: dict[tuple[str, str], _Schedule] = {}

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

    def __reduce__(self):  # a copy is built afresh: schedules hold unpicklable rules
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
    UnsupportedOrderError) lifted onto the jet args[0] (see `_lifted`)."""
    arg = args[0]
    if not isinstance(arg, Jet):
        raise TypeError(f"a jet lift needs a Jet, not {type(arg).__name__}")
    return _jet(arg.shape, _lifted(fn, arg.coeffs, arg.shape, arg.basis), arg.basis)


def _lifted(fn: ElementaryFn, u: list, shape: JetShape, basis: str) -> list:
    """fn lifted on the jet u by its schedule, else by the graph (`_chain`),
    which records the schedule of a catalogue function's own lift of a
    non-flat u.  Its value, first partial and rule's floats enter as floats."""
    key = (fn.name, basis)
    schedule = shape.schedules.get(key)
    if schedule is not None and schedule.fn is fn:
        return schedule.replay(u, shape.pair_table(basis), shape.ends)
    root = _Node(u, (), _zero, None, _jet(shape, u, basis))
    w = taylor.lift(fn, (root, {}))
    coeffs = taylor.force(w, shape.order + 1)
    if schedule is None and not _flat(u) and _own(fn):
        # Threads that race here record schedules that replay alike.
        shape.schedules[key] = _Schedule(fn, w, root)
    return coeffs


def _own(fn: ElementaryFn) -> bool:
    """Whether fn is the catalogue's own row function or cached power, not a
    registered function or a `counted_variant` copy."""
    name = fn.name
    return fn is (pow_fn(pow_exponent(name)) if is_pow(name) else _ROW_FNS.get(name))


def _flat(u: list) -> bool:
    """`taylor.flat` of a complete jet: a finite head, then signed zeros."""
    return isfinite(u[0]) and not any(islice(u, 1, None))


def _reached(w: _Node) -> dict:
    """The nodes w reads, itself included, each mapped to its creation number."""
    seen, stack = {}, [w]
    while stack:
        node = stack.pop()
        if node not in seen:
            seen[node] = node.serial
            stack.extend(node.inputs)
    return seen


class _Schedule:
    """A catalogue function's jet lift for one (fn, shape, basis), read off
    the graph of its lift on a non-flat jet, which never settles and so is
    the same at every point.  The argument is register 0, the lift 1, and
    each other node (a view is its lift's) one more, in creation order.
    A node is (kernel, x, y): `taylor.euler`, its function and g's register
    for a lift, None and the coefficients for a constant, else `extra` and
    its inputs' registers.  `heads` holds the nodes; `deeper`, those of the
    lifts' rules one level deeper, which only `_flat_graph` reads.
    `fills[d - 1]` holds (register, *node) for each node filled through
    degree d or beyond, in creation order, the order `force` fills them in.
    """

    __slots__ = ("fn", "heads", "deeper", "fills")

    def __init__(self, fn: ElementaryFn, w: _Node, root: _Node):
        self.fn, order = fn, len(w.ends) - 1
        nodes, deeper = _reached(w), next(taylor.serial)
        if order > 1:  # build the rules `_flat_graph` would
            for node in list(nodes):
                if node.fill is _chain and len(node.inputs) == 1:
                    taylor.build(node)
            nodes = _reached(w)
        lifts = {id(x.entries): x for x in nodes if x.fill is _chain}
        made = [x for x in sorted(nodes, key=nodes.get)
                if x is not root and (x.fill or id(x.entries) not in lifts)]
        reg = {x: r for r, x in enumerate([root, *made])}
        reg.update((x, reg[lifts[id(x.entries)]]) for x in nodes if x not in reg)  # views
        steps = []
        for x in made:
            ins = [reg[i] for i in x.inputs] + [None]
            steps.append((None, x.entries, None) if x.fill is None else
                         (taylor.euler, x.extra[0], ins[1]) if x.fill is _chain else
                         (x.extra, ins[0], ins[1]))
        self.fills = [[(r, *steps[r - 1]) for r, x in enumerate(made, 1)
                       if x.fill and len(x.entries) > x.ends[d]] for d in range(order)]
        normal = sum(x.serial < deeper for x in made)
        self.heads, self.deeper = steps[:normal], steps[normal:]

    def replay(self, u: list, table: list, ends: tuple) -> list:
        """The lift on u, of the schedule's shape and basis: the heads, with
        their domain and zero-divisor checks, then the fills.  A flat u at
        N >= 2 settles to its head and +0.0, as `taylor.grow` does, if its
        first partial and every head `_flat_graph` reads are finite."""
        point, regs = [u[0]], [u]
        flat = len(self.fills) > 1 and _flat(u)
        for code, x, y in chain(self.heads, self.deeper) if flat else self.heads:
            if code is taylor.euler:  # a lift of x
                x.check_domain(point)
                regs.append([float(x.value(point))])
            elif code is None:
                regs.append(x)
            elif code is taylor.product:
                regs.append([0.0 + regs[x][0] * regs[y][0]])
            elif code is taylor.quotient:
                x0, y0 = regs[x][0], regs[y][0]
                if y0 == 0.0:
                    raise DomainError("div", (x0, y0))
                regs.append([x0 / y0])
            elif code is operator.add:  # the operators `_Node` writes, not calls
                regs.append([regs[x][0] + regs[y][0]])
            elif code is operator.sub:
                regs.append([regs[x][0] - regs[y][0]])
            else:
                regs.append([-regs[x][0]])
        if flat and isfinite(float(self.fn.partials(point)[0])) and all(isfinite(r[0]) for r in regs):
            return [regs[1][0]] + [0.0] * (len(u) - 1)
        for d, steps in enumerate(self.fills, 1):
            lo, hi = ends[d - 1], ends[d]
            targets = range(lo, hi)
            for out, kernel, x, y in steps:
                if kernel is taylor.euler:
                    v = regs[y] if d > 1 else [float(p) for p in x.partials(point)]
                    kernel(regs[out], u, v, table, targets, d)
                elif kernel is taylor.product or kernel is taylor.quotient:
                    kernel(regs[out], regs[x], regs[y], table, targets)
                elif y is None:
                    regs[out] += map(kernel, regs[x][lo:hi])
                else:
                    regs[out] += map(kernel, regs[x][lo:hi], regs[y][lo:hi])
        return regs[1]


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
