"""Lazy univariate derivative towers, filled degree by degree.

A tower is the sequence (f, f', f'', ...) of derivatives at a point.  An
operation node keeps its inputs and its entries filled so far.
`tower_take(t, k)` orders t's ancestors with fewer than k entries by creation
(a topological order) and fills entry d of each for d = 1 ... k-1 in loops:
nothing recurses, and no entry is computed ahead of the one requested.
The operators ``+ - * /`` build nodes: products take the Leibniz sum, and
division solves it for the quotient.  A lift w = f(u) has entry 1 g_0 u_1, with g = f'(u) built from fn's rule when
that entry is first filled, and from entry 2 up the n = 1 Berz jet's form,
w_d = (sum_{r=1..d} r binom(d, r) u_r g_{d-r}) / d in ascending r (Griewank &
Walther, *Evaluating Derivatives*, ch. 13): towers and jets share one lift.
g reads the lift and its family (cos for sin) through views of their entry
lists, so towers hold no reference cycles.  A leaf `Tower(head, tail_fn)` is
read through its tails.  Forcing holds one lock, so threads agree on entries.
`TowerAlgebra` evaluates a definition over towers.
"""

from __future__ import annotations

import operator
import threading
from functools import partial
from itertools import count
from typing import Callable, Optional

from .algebras import _LiftedAlgebra
from .catalog import DomainError, ElementaryFn, Lifted, derivative_rule, lookup


class Tower(Lifted):
    """A leaf of a lazy derivative sequence: a head and a memoised tail.

    Towers carry the operators ``+ - * /`` and unary ``-``, with each other
    and with floats (a float c is the constant tower (c, 0, 0, ...)).
    """

    __slots__ = ("head", "_tail_fn", "_tail")

    def __init__(self, head: float, tail_fn: Optional[Callable[[], "Tower"]]):
        self.head = float(head)
        self._tail_fn = tail_fn
        self._tail: Optional[Tower] = None

    def tail(self) -> "Tower":
        tail = self._tail
        if tail is None:
            # Another thread may finish forcing between the read above and
            # this one; it stores `_tail` before clearing `_tail_fn`.
            tail_fn = self._tail_fn
            if tail_fn is None:
                return self._tail
            tail = tail_fn()
            self._tail = tail
            self._tail_fn = None
        return tail

    def __repr__(self) -> str:
        return f"Tower(head={self.head!r}, ...)"

    @staticmethod
    def _promote(b):
        if isinstance(b, Tower):
            return b
        if isinstance(b, (int, float)):
            return tower_const(b)
        return NotImplemented

    def _add(self, b: Tower) -> Tower:
        return _Node([self.head + b.head], (self, b), _binary, operator.add)

    def _sub(self, b: Tower) -> Tower:
        return _Node([self.head - b.head], (self, b), _binary, operator.sub)

    def __neg__(self) -> Tower:
        return _Node([-self.head], (self,), _neg)

    def _mul(self, b: Tower) -> Tower:
        """Entry n is the Leibniz sum: sum_i binom(n, i) a_i b_{n-i}."""
        return _Node([self.head * b.head], (self, b), _leibniz)

    def _div(self, b: Tower) -> Tower:
        """The q with q * b = self, from the Leibniz sum solved for its last
        term: q_n = (a_n - sum_{i>=1} binom(n, i) b_i q_{n-i}) / b_0."""
        if b.head == 0.0:
            raise DomainError("div", (self.head, b.head))
        return _Node([self.head / b.head], (self, b), _quotient)


_serial = count()
_LOCK = threading.RLock()

#: The highest entry a tower fills: from order 1021 the lift's weight
#: r * binom(d, r) overflows a float, and from 1030 binom(d, r) does.
MAX_TOWER_ORDER = 1020


class _Node(Tower):
    """An operation: `fill(node, d, order)` appends entry d from the inputs and
    `extra` (an operator, a leaf's next tail, a lift's rule).  Views have none."""

    __slots__ = ("entries", "inputs", "fill", "extra", "serial")

    def __init__(self, entries: list[float], inputs: tuple, fill, extra=None):
        self.head = entries[0]
        self.entries = entries
        self.inputs = tuple(map(_node, inputs))
        self.fill = fill
        self.extra = extra
        self.serial = next(_serial)

    def tail(self, k: int = 1) -> Tower:
        """The entries from entry k on, as a leaf."""
        return Tower(_force(self, k + 1)[k], lambda: self.tail(k + 1))


def _force(t: _Node, k: int) -> list[float]:
    """t's entry list, filled through at least entry k - 1."""
    if k > MAX_TOWER_ORDER + 1:
        raise ValueError(f"tower order {k - 1} exceeds {MAX_TOWER_ORDER}")
    if len(t.entries) < k:
        with _LOCK:
            order = _unfilled(t, k)
            for d in range(1, k):
                for node in order:  # grows: a lift's entry 1 appends g's nodes
                    if len(node.entries) == d:
                        node.fill(node, d, order)
    return t.entries


def _unfilled(t: _Node, k: int) -> list[_Node]:
    """t and its ancestors with fewer than k entries, in creation order."""
    seen, stack = set(), [t]
    while stack:
        node = stack.pop()
        if node.fill is None or len(node.entries) >= k or node in seen:
            continue
        seen.add(node)
        stack.extend(node.inputs)
    return sorted(seen, key=lambda node: node.serial)


def _node(a: Tower) -> _Node:
    """a itself, or a node that reads the leaf a through its tails."""
    if isinstance(a, _Node):
        return a
    return _Node([a.head], (), _read_tail, a)


def _read_tail(node: _Node, d: int, order: list) -> None:
    node.extra = tail = node.extra.tail()
    node.entries.append(tail.head)


def _zero(node: _Node, d: int, order: list) -> None:
    node.entries.append(0.0)


def tower_const(c: float) -> Tower:
    """(c, 0, 0, ...)"""
    return _Node([float(c)], (), _zero)


def tower_var(c: float) -> Tower:
    """The identity's tower at c: (c, 1, 0, 0, ...)"""
    return _Node([float(c), 1.0], (), _zero)


def tower_take(a: Tower, k: int) -> list[float]:
    """The first k entries; computes none beyond them."""
    if k < 1:
        raise ValueError("need k >= 1")
    return _force(_node(a), k)[:k]


def tower_df(a: Tower) -> Tower:
    """The shift derivation: drop the head, exposing the derivative stream."""
    return a.tail()


def _binary(node: _Node, d: int, order: list) -> None:
    a, b = node.inputs
    node.entries.append(node.extra(a.entries[d], b.entries[d]))


def _neg(node: _Node, d: int, order: list) -> None:
    node.entries.append(-node.inputs[0].entries[d])


_ROWS = [((1.0,), (0.0,))]
_LAST = [1]  # binom(d, r) as exact integers for the last row in _ROWS


def _rows(d: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """binom(d, r) and r * binom(d, r), formed as the Berz jet forms it.

    Rows are built in order by Pascal's rule on exact integers, and each
    entry is rounded to a float once; callers hold the forcing lock."""
    while len(_ROWS) <= d:
        _LAST[:] = [1, *map(operator.add, _LAST, _LAST[1:]), 1]
        row = tuple(map(float, _LAST))
        _ROWS.append((row, tuple(r * c for r, c in enumerate(row))))
    return _ROWS[d]


def _leibniz(node: _Node, d: int, order: list) -> None:
    x, y = node.inputs[0].entries, node.inputs[1].entries
    total = 0.0
    for i, c in enumerate(_rows(d)[0]):
        total += c * x[i] * y[d - i]
    node.entries.append(total)


def _quotient(node: _Node, d: int, order: list) -> None:
    x, y, q = node.inputs[0].entries, node.inputs[1].entries, node.entries
    row = _rows(d)[0]
    total = 0.0
    for i in range(1, d + 1):
        total += row[i] * y[i] * q[d - i]
    q.append((x[d] - total) / y[0])


def lift(fn: ElementaryFn, args: list[Tower]) -> Tower:
    """Lift a unary catalogue function with a rule (else UnsupportedOrderError)
    onto the tower args[0]."""
    return _lift(fn, (_node(args[0]), {}))


def _member(family: tuple, name: str) -> _Node:
    """The family's lift of `name`: a view if it is built, else a new lift."""
    return family[1].get(name) or _lift(lookup(name), family)


def _lift(fn: ElementaryFn, family: tuple) -> _Node:
    """fn lifted on family[0]; a family is (argument, views)."""
    rule = derivative_rule(fn)
    a = family[0]
    fn.check_domain([a.head])
    entries = [float(fn.value([a.head]))]
    family[1][fn.name] = view = _Node(entries, (), None)
    return _Node(entries, (a,), _chain, (rule, family, view))


def _chain(node: _Node, d: int, order: list) -> None:
    """Entry d of a lift: g_0 u_1 at d = 1, the Euler form from d = 2."""
    u = node.inputs[0].entries
    if d == 1:  # build g; its new nodes are filled after the lift
        rule, family, view = node.extra
        a = node.inputs[0]
        g = _node(a._promote(rule(a, view, partial(_member, family))))
        node.inputs, node.extra = (node.inputs[0], g), None
        order += _unfilled(g, 2)
        node.entries.append(g.entries[0] * u[1])
        return
    v = node.inputs[1].entries
    if len(v) < d:  # g was built by a nested forcing, outside this order
        v = _force(node.inputs[1], d)
    row = _rows(d)[1]
    total = 0.0
    for r in range(1, d + 1):
        total += row[r] * u[r] * v[d - r]
    node.entries.append(total / d)


class TowerAlgebra(_LiftedAlgebra):
    """Univariate derivative towers of unbounded order."""

    constant = staticmethod(tower_const)
    lift = staticmethod(lift)
