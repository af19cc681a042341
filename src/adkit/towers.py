"""Lazy univariate derivative towers.

A tower is the infinite sequence (f, f', f'', ...) of derivative values at a
point, materialised on demand: each node holds a concrete head and a deferred
tail, and the tail is computed at most once.  Multiplication realises entry n
as the binomial Leibniz sum over the first n+1 entries of each factor;
division is the unique Leibniz-compatible inverse, obtained corecursively
from (a/b)' = (a' - (a/b) b')/b.

Towers are immutable once forced; forcing is pure, so concurrent first access
at worst duplicates work, never changes a value.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

from .catalog import CATALOG, DomainError, ElementaryFn, is_pow, pow_exponent, pow_fn


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


def tower_mul(a: Tower, b: Tower) -> Tower:
    """Entry n is the Leibniz sum over splittings n = i + (n-i):
    sum_i binom(n, i) a_i b_{n-i}."""

    def entry(n: int) -> float:
        if n == 0:
            return a.head * b.head
        xs = tower_take(a, n + 1)
        ys = tower_take(b, n + 1)
        total = 0.0
        for i in range(n + 1):
            total += math.comb(n, i) * xs[i] * ys[n - i]
        return total

    return _from_entry_fn(entry, 0)


def tower_div(a: Tower, b: Tower) -> Tower:
    """The unique q with q * b = a prefix-wise: q' = (a' - q b')/b."""
    if b.head == 0.0:
        raise DomainError("div", (a.head, b.head))
    q = Tower(a.head / b.head, None)
    q._tail_fn = lambda: tower_div(
        tower_sub(a.tail(), tower_mul(q, b.tail())), b
    )
    return q


def _base_resolver(name: str) -> ElementaryFn:
    if name in CATALOG:
        return CATALOG[name]
    if is_pow(name):
        return pow_fn(pow_exponent(name))
    raise KeyError(name)


def _derivative_tower(fn: ElementaryFn, a: Tower, result: Tower, lift) -> Tower:
    """The tower of f'(a), expressed in catalogue terms.  `result` is the
    already-built tower of f(a), reused where f' involves f itself."""
    name = fn.name
    if name == "exp":
        return result
    if name == "ln":
        return tower_div(tower_const(1.0), a)
    if name == "sqrt":
        return tower_div(tower_const(0.5), result)
    if name == "sin":
        return lift("cos", a)
    if name == "cos":
        return tower_neg(lift("sin", a))
    if name == "tan":
        return tower_add(tower_const(1.0), tower_mul(result, result))
    if name == "copy":
        return tower_const(1.0)
    if is_pow(name):
        k = pow_exponent(name)
        if k == 0:
            return _ZERO
        return tower_mul(tower_const(float(k)), lift(f"pow{k - 1}", a))
    raise KeyError(f"no tower derivative rule for {name}")


def tower_lift_elementary(
    fn: ElementaryFn, a: Tower, resolve: Optional[Callable[[str], ElementaryFn]] = None
) -> Tower:
    """Lift a unary catalogue function onto a tower.

    The head is f(a0); the tail is defined corecursively by the chain rule
    df(result) = f'(a) * df(a), with f' drawn from the catalogue so the
    construction stays closed.  `resolve` substitutes the function table used
    for derivative lookups (instrumented clones, for instance).
    """
    table = resolve if resolve is not None else _base_resolver
    fn.check_domain([a.head])
    res = Tower(fn.value([a.head]), None)

    def lift(name: str, arg: Tower) -> Tower:
        return tower_lift_elementary(table(name), arg, resolve)

    res._tail_fn = lambda: tower_mul(
        _derivative_tower(fn, a, res, lift), tower_df(a)
    )
    return res
