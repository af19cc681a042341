"""Lazy univariate derivative towers.

A tower is the infinite sequence (f, f', f'', ...) of derivative values at a
point, materialised on demand: each node holds a concrete head and a deferred
tail, and the tail is computed at most once.  Multiplication realises entry n
as the binomial Leibniz sum over the first n+1 entries of each factor;
division solves that sum for the quotient's entry n, over the quotient's own
memoised entries.  A lift's tail is f'(a) * a', with f'(a) given by the
function's first-order rule in catalogue terms (the same rule the jets lift
through), and the lifts f' needs on the same argument are built once and
shared.  Every operation reads its inputs through a prefix reader that walks
each input's tails once, so forcing K entries costs O(K^2) arithmetic per
operation (the cost of the Taylor recurrences in Griewank & Walther,
*Evaluating Derivatives*, ch. 13).

Towers are immutable once forced; forcing is pure, so concurrent first access
at worst duplicates work, never changes a value: every memoised entry is
stored under its index, never appended.

Self-referential lifts form reference cycles, which only the cyclic garbage
collector frees: exp's tail is res * a', sqrt's and tan's derivatives are
built from res, sin and cos refer to each other, and an unforced lift's tail
thunk refers to its own node.  Division and the arithmetic nodes form none.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Optional

from .catalog import DomainError, ElementaryFn, derivative_rule, lookup


class Tower:
    """One node of a lazy derivative sequence: a head and a memoised tail."""

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


_ZERO = Tower(0.0, None)
_ZERO._tail = _ZERO


def tower_const(c: float) -> Tower:
    """(c, 0, 0, ...)"""
    if c == 0.0:
        return _ZERO
    return Tower(c, lambda: _ZERO)


def tower_var(c: float) -> Tower:
    """The identity's tower at c: (c, 1, 0, 0, ...)"""
    return Tower(c, lambda: tower_const(1.0))


def tower_take(a: Tower, k: int) -> list[float]:
    """The first k entries; forces exactly the first k-1 tails."""
    if k < 1:
        raise ValueError("need k >= 1")
    out = [a.head]
    t = a
    for _ in range(k - 1):
        t = t.tail()
        out.append(t.head)
    return out


def tower_df(a: Tower) -> Tower:
    """The shift derivation: drop the head, exposing the derivative stream."""
    return a.tail()


def tower_add(a: Tower, b: Tower) -> Tower:
    return Tower(a.head + b.head, lambda: tower_add(a.tail(), b.tail()))


def tower_sub(a: Tower, b: Tower) -> Tower:
    return Tower(a.head - b.head, lambda: tower_sub(a.tail(), b.tail()))


def tower_neg(a: Tower) -> Tower:
    return Tower(-a.head, lambda: tower_neg(a.tail()))


def _from_entry_fn(entry: Callable[[int], float], k: int) -> Tower:
    return Tower(entry(k), lambda: _from_entry_fn(entry, k + 1))


@lru_cache(maxsize=None)
def _binomials(n: int) -> tuple[float, ...]:
    """Row n of Pascal's triangle: binom(n, 0), ..., binom(n, n)."""
    return tuple(float(math.comb(n, i)) for i in range(n + 1))


class _Prefix:
    """The entries of an input tower read so far, stored by index.

    Reading on walks the memoised `Tower.tail` from the furthest node
    reached.  Racing readers store the same value under the same index; a
    stale `_reached` only makes a later read walk again.
    """

    __slots__ = ("entries", "_reached")

    def __init__(self, a: Tower):
        self.entries = {0: a.head}
        self._reached = (0, a)

    def upto(self, n: int) -> dict[int, float]:
        """A mapping that holds at least entries 0..n."""
        k, node = self._reached
        if k < n:
            entries = self.entries
            while k < n:
                node = node.tail()
                k += 1
                entries[k] = node.head
            self._reached = (k, node)
        return self.entries


def tower_mul(a: Tower, b: Tower) -> Tower:
    """Entry n is the Leibniz sum over splittings n = i + (n-i):
    sum_i binom(n, i) a_i b_{n-i}."""
    xs, ys = _Prefix(a), _Prefix(b)

    def entry(n: int) -> float:
        x, y = xs.upto(n), ys.upto(n)
        if n == 0:
            return x[0] * y[0]
        total = 0.0
        for i, c in enumerate(_binomials(n)):
            total += c * x[i] * y[n - i]
        return total

    return _from_entry_fn(entry, 0)


def tower_div(a: Tower, b: Tower) -> Tower:
    """The unique q with q * b = a prefix-wise: the Leibniz sum for entry n
    of q * b, solved for its last unknown,
    q_n = (a_n - sum_{i>=1} binom(n, i) b_i q_{n-i}) / b_0."""
    b0 = b.head
    if b0 == 0.0:
        raise DomainError("div", (a.head, b0))
    xs, ys = _Prefix(a), _Prefix(b)
    q: dict[int, float] = {}

    def entry(n: int) -> float:
        x, y = xs.upto(n), ys.upto(n)
        row = _binomials(n)
        total = 0.0
        for i in range(1, n + 1):
            total += row[i] * y[i] * q[n - i]
        q[n] = value = (x[n] - total) / b0
        return value

    return _from_entry_fn(entry, 0)


#: Arithmetic by name: the tower operations themselves.  Towers are
#: immutable, so a copy is the tower itself.
_ARITHMETIC = {
    "add": tower_add,
    "sub": tower_sub,
    "neg": tower_neg,
    "mul": tower_mul,
    "div": tower_div,
    "copy": lambda a: a,
}


def tower_lift_elementary(
    fn: ElementaryFn, a: Tower, resolve: Optional[Callable[[str], ElementaryFn]] = None
) -> Tower:
    """Lift a unary catalogue function onto a tower.

    The head is f(a0); the tail is defined corecursively by the chain rule
    df(result) = f'(a) * df(a), with f'(a) from fn's first-order rule, in
    catalogue terms so the construction stays closed.  A function without a
    rule raises UnsupportedOrderError here, not when the tail is forced.  The
    lifts that f' needs on the same argument (cos for sin, sin for cos,
    pow{k-1} for pow{k}) form one family: each is built once and shared, so
    sin and cos refer to each other.  `resolve` substitutes the function
    table used for those lookups (instrumented clones, for instance).
    """
    return _Family(a, resolve if resolve is not None else lookup).lift(fn)


class _Family:
    """The lifts of catalogue functions on one argument, each built once."""

    __slots__ = ("arg", "table", "towers")

    def __init__(self, arg: Tower, table: Callable[[str], ElementaryFn]):
        self.arg = arg
        self.table = table
        self.towers: dict[str, Tower] = {}

    def get(self, name: str) -> Tower:
        tower = self.towers.get(name)
        return tower if tower is not None else self.lift(self.table(name))

    def lift(self, fn: ElementaryFn) -> Tower:
        rule = derivative_rule(fn)
        a = self.arg
        fn.check_domain([a.head])
        res = Tower(fn.value([a.head]), None)
        self.towers[fn.name] = res
        res._tail_fn = lambda: tower_mul(
            rule(a, res, self.get, _ARITHMETIC, tower_const), tower_df(a)
        )
        return res
