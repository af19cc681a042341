"""Lazy univariate derivative towers (f, f', f'', ...) at a point, one entry
per degree on the Taylor engine (`adkit.taylor`).  The operators ``+ - * /``
build nodes: products take the Leibniz sum, and division solves it for the
quotient.  A lift w = f(u) has entry 1 g_0 u_1, and from entry 2 the n = 1
Berz jet's form w_d = (sum_{r=1..d} r binom(d, r) u_r g_{d-r}) / d in
ascending r, so towers and jets share one lift.  A leaf `Tower(head,
tail_fn)` is read through its tails.  `TowerAlgebra` evaluates over towers.

A constant is flat (a finite head, then signed zeros), as are products
and lifts of flat towers.  An entry of a product with one costs a
multiply, and its lift only its rule's heads: while the entries read are
finite, every other term of the general sum is a signed zero, and 0.0 + p,
bit for bit, is the sum.
"""

from __future__ import annotations

import operator
import threading
from math import isfinite
from typing import Callable, Optional

from . import taylor
from .algebras import _LiftedAlgebra
from .catalog import DomainError, ElementaryFn, Lifted


class Tower(Lifted):
    """A leaf of a lazy derivative sequence: a head and a memoised tail.

    Towers carry the operators ``+ - * /`` and unary ``-``, with each other
    and with floats (a float c is the constant tower (c, 0, 0, ...)).
    """

    __slots__ = ("head", "_tail_fn", "_tail")

    def __init__(self, head: float, tail_fn: Callable[[], "Tower"]):
        if not callable(tail_fn):
            raise TypeError(f"a tower's tail_fn must be callable, not {type(tail_fn).__name__}")
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
            if not isinstance(tail, Tower):
                raise TypeError(f"a tower's tail_fn returned {type(tail).__name__}, not a Tower")
            self._tail = tail
            self._tail_fn = None
        return tail

    def __repr__(self) -> str:
        return f"Tower(head={self.head!r}, ...)"

    @staticmethod
    def _promote(b):
        if isinstance(b, Tower):
            return _node(b)
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
        return _Node([self.head * b.head], (self, b), _times)

    def _div(self, b: Tower) -> Tower:
        """The q with q * b = self, from the Leibniz sum solved for its last
        term: q_n = (a_n - sum_{i>=1} binom(n, i) b_i q_{n-i}) / b_0."""
        if b.head == 0.0:
            raise DomainError("div", (self.head, b.head))
        return _Node([self.head / b.head], (self, b), _quotient)


#: The highest entry a tower fills: from order 1021 the lift's weight
#: r * binom(d, r) overflows a float, and from 1030 binom(d, r) does.
MAX_TOWER_ORDER = 1020

_LOCK = threading.RLock()  # held while forcing, so threads agree on entries


def _node(a: Tower) -> _Node:
    """a itself, or a node that reads the leaf a through its tails."""
    if isinstance(a, _Node):
        return a
    return _Node([a.head], (), _read_tail, a)


def _read_tail(node: _Node, d: int, levels: list, j: int) -> None:
    node.extra = tail = node.extra.tail()
    node.entries.append(tail.head)


def _zero(node: _Node, d: int, levels: list, j: int) -> None:
    node.entries.append(0.0)


def tower_const(c: float) -> Tower:
    """(c, 0, 0, ...)"""
    return _Node([float(c)], (), _zero)


def tower_var(c: float) -> Tower:
    """The identity's tower at c: (c, 1, 0, 0, ...)"""
    return _Node([float(c), 1.0], (), _zero)


def tower_take(a: Tower, k: int) -> list[float]:
    """The first k entries; computes none beyond them."""
    if not isinstance(a, Tower):
        raise TypeError(f"tower_take needs a Tower, not {type(a).__name__}")
    if k < 1:
        raise ValueError("need k >= 1")
    if k > MAX_TOWER_ORDER + 1:
        raise ValueError(f"tower order {k - 1} exceeds {MAX_TOWER_ORDER}")
    with _LOCK:
        return taylor.force(_node(a), k)[:k]


def tower_df(a: Tower) -> Tower:
    """The shift derivation: drop the head, exposing the derivative stream."""
    return a.tail()


def _binary(node: _Node, d: int, levels: list, j: int) -> None:
    a, b = node.inputs
    node.entries.append(node.extra(a.entries[d], b.entries[d]))


def _neg(node: _Node, d: int, levels: list, j: int) -> None:
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


def _times(node: _Node, d: int, levels: list, j: int) -> None:
    """Entry d of x * y, by a kernel chosen at d = 1, once lifts settled."""
    x, y = node.inputs
    c, v = (x, y) if taylor.flat(x) else (y, x)
    if not taylor.flat(c):
        node.fill = _leibniz
    elif taylor.flat(v):
        taylor.settle(node)
    else:
        node.fill, node.extra = _scaled, (c.head, v.entries, 0.0)
    node.fill(node, d, levels, j)


def _scaled(node: _Node, d: int, levels: list, j: int) -> None:
    """Entry d of c * v or v * c, c flat: 0.0 + c_0 v_d while no binom(d, i)
    v_i overflows (2^d times the sum of |v_i| over i < d is finite)."""
    c, v, total = node.extra
    node.extra = c, v, total + abs(v[d - 1])
    if isfinite(node.extra[2] * 2.0 ** d):
        node.entries.append(0.0 + c * v[d])
    else:
        node.fill = _leibniz
        _leibniz(node, d, levels, j)


def _leibniz(node: _Node, d: int, levels: list, j: int) -> None:
    x, y = node.inputs[0].entries, node.inputs[1].entries
    total = 0.0
    for i, c in enumerate(_rows(d)[0]):
        total += c * x[i] * y[d - i]
    node.entries.append(total)


def _quotient(node: _Node, d: int, levels: list, j: int) -> None:
    x, y, q = node.inputs[0].entries, node.inputs[1].entries, node.entries
    row = _rows(d)[0]
    total = 0.0
    for i in range(1, d + 1):
        total += row[i] * y[i] * q[d - i]
    q.append((x[d] - total) / y[0])


def _chain(node: _Node, d: int, levels: list, j: int) -> None:
    """Entry d of a lift: g_0 u_1 at d = 1, the Euler form from d = 2."""
    u = node.inputs[0].entries
    if d == 1:
        node.entries.append(taylor.grow(node, levels, j).entries[0] * u[1])
        return
    v = node.inputs[1].entries
    if len(v) < d:  # g was built by a nested forcing, outside this one
        v = taylor.force(node.inputs[1], d)
    row = _rows(d)[1]
    total = 0.0
    for r in range(1, d + 1):
        total += row[r] * u[r] * v[d - r]
    node.entries.append(total / d)


class _Node(Tower):
    """An operation, whose kernel appends entry d from `inputs` and `extra`."""

    __slots__ = ("entries", "inputs", "fill", "extra", "serial")
    ends = range(1, MAX_TOWER_ORDER + 2)
    chain, zero = staticmethod(_chain), staticmethod(_zero)

    # `like` is the node `taylor.lift` builds from; towers are of one kind.
    def __init__(self, entries: list[float], inputs: tuple, fill, extra=None, like=None):
        self.head, self.entries, self.fill, self.extra = entries[0], entries, fill, extra
        self.inputs = tuple(map(_node, inputs))
        self.serial = next(taylor.serial)

    def tail(self, k: int = 1) -> Tower:
        """The entries from entry k on, as a leaf."""
        return Tower(tower_take(self, k + 1)[k], lambda: self.tail(k + 1))


def lift(fn: ElementaryFn, args: list[Tower]) -> Tower:
    """Lift a unary catalogue function with a rule (else UnsupportedOrderError)
    onto the tower args[0]."""
    return taylor.lift(fn, (_node(args[0]), {}))


class TowerAlgebra(_LiftedAlgebra):
    """Univariate derivative towers of unbounded order."""

    constant = staticmethod(tower_const)
    lift = staticmethod(lift)
