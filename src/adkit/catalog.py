"""Catalogue of elementary functions.

Every differentiation mode in this package is driven by the same closed set of
primitives: arithmetic (+, -, unary -, *, /, integer powers) plus exp, ln,
sqrt, sin, cos and tan, each shipped with its value, first partials, an open
domain predicate, and (for the unary transcendentals and powers) a rule for
derivatives of every order.  Additional primitives can be registered by
constructing :class:`ElementaryFn` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence


class DomainError(ValueError):
    """An elementary function was applied outside its differentiable domain."""

    def __init__(self, fn_name: str, arg_values: Sequence[float], path: str | None = None):
        self.fn_name = fn_name
        self.arg_values = tuple(arg_values)
        self.path = path
        where = f" (at {path})" if path else ""
        super().__init__(f"{fn_name} undefined on {self.arg_values}{where}")

    def at(self, path: str) -> "DomainError":
        return DomainError(self.fn_name, self.arg_values, path)


class UnsupportedOrderError(ValueError):
    """A lift to derivative order N was requested for a function without an
    order-N rule."""


@dataclass(frozen=True)
class ElementaryFn:
    """A differentiable primitive.

    `value` and `partials` map an argument vector to the function value and
    its gradient; both are only defined where `domain` holds.  `derivs`, for
    unary functions, returns ``[f(x), f'(x), ..., f^(N)(x)]`` and backs the
    higher-order lifts.  `unit_cost` is the price of one value (or one
    derivative) evaluation in the operation-count model: arithmetic on
    already-computed values is free, genuine function evaluations cost 1.

    Instances are immutable and safe to share between threads.
    """

    name: str
    arity: int
    value: Callable[[Sequence[float]], float]
    partials: Callable[[Sequence[float]], list[float]]
    domain: Callable[[Sequence[float]], bool]
    unit_cost: int = 1
    derivs: Optional[Callable[[float, int], list[float]]] = None

    def check_arity(self, args: Sequence) -> None:
        if len(args) != self.arity:
            raise ValueError(
                f"{self.name} expects {self.arity} argument(s), got {len(args)}"
            )

    def check_domain(self, args: Sequence[float]) -> None:
        self.check_arity(args)
        if not self.domain(args):
            raise DomainError(self.name, args)

    def __repr__(self) -> str:  # dataclass default would dump the callables
        return f"ElementaryFn({self.name!r}, arity={self.arity})"


def _always(args: Sequence[float]) -> bool:
    return True


def ipow(x: float, k: int) -> float:
    """x**k for k >= 0 by repeated multiplication (left fold)."""
    r = 1.0
    for _ in range(k):
        r *= x
    return r


def _polyval(coeffs: Sequence[float], x: float) -> float:
    # Horner on ascending coefficients.
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# --- derivative tables for the unary transcendentals ---


def _exp_derivs(x: float, n: int) -> list[float]:
    e = math.exp(x)
    return [e] * (n + 1)


def _ln_derivs(x: float, n: int) -> list[float]:
    # d/dx ln = 1/x, thereafter d_{j+1} = d_j * (-j) / x.
    out = [math.log(x)]
    if n >= 1:
        d = 1.0 / x
        out.append(d)
        for j in range(1, n):
            d = d * (-j) / x
            out.append(d)
    return out


def _sqrt_derivs(x: float, n: int) -> list[float]:
    s = math.sqrt(x)
    out = [s]
    if n >= 1:
        d = 0.5 / s
        out.append(d)
        for j in range(1, n):
            d = d * (0.5 - j) / x
            out.append(d)
    return out


def _sin_derivs(x: float, n: int) -> list[float]:
    s, c = math.sin(x), math.cos(x)
    cycle = (s, c, -s, -c)
    return [cycle[j % 4] for j in range(n + 1)]


def _cos_derivs(x: float, n: int) -> list[float]:
    s, c = math.sin(x), math.cos(x)
    cycle = (c, -s, -c, s)
    return [cycle[j % 4] for j in range(n + 1)]


def _tan_derivs(x: float, n: int) -> list[float]:
    # Every derivative of tan is a polynomial in t = tan(x):
    # p0(t) = t, p_{k+1} = p_k' * (1 + t^2).
    t = math.tan(x)
    out = [t]
    poly = [0.0, 1.0]
    for _ in range(n):
        dp = [i * poly[i] for i in range(1, len(poly))]
        nxt = [0.0] * (len(dp) + 2)
        for i, c in enumerate(dp):
            nxt[i] += c
            nxt[i + 2] += c
        poly = nxt
        out.append(_polyval(poly, t))
    return out


ADD = ElementaryFn(
    "add", 2, lambda a: a[0] + a[1], lambda a: [1.0, 1.0], _always, unit_cost=0
)
SUB = ElementaryFn(
    "sub", 2, lambda a: a[0] - a[1], lambda a: [1.0, -1.0], _always, unit_cost=0
)
NEG = ElementaryFn("neg", 1, lambda a: -a[0], lambda a: [-1.0], _always, unit_cost=0)
MUL = ElementaryFn(
    "mul", 2, lambda a: a[0] * a[1], lambda a: [a[1], a[0]], _always, unit_cost=0
)
DIV = ElementaryFn(
    "div",
    2,
    lambda a: a[0] / a[1],
    lambda a: [1.0 / a[1], -a[0] / (a[1] * a[1])],
    lambda a: a[1] != 0.0,
    unit_cost=0,
)
COPY = ElementaryFn(
    "copy",
    1,
    lambda a: a[0],
    lambda a: [1.0],
    _always,
    unit_cost=0,
    derivs=lambda x, n: [x] + [1.0] * (1 if n >= 1 else 0) + [0.0] * (n - 1),
)

EXP = ElementaryFn(
    "exp", 1, lambda a: math.exp(a[0]), lambda a: [math.exp(a[0])], _always,
    derivs=_exp_derivs,
)
LN = ElementaryFn(
    "ln", 1, lambda a: math.log(a[0]), lambda a: [1.0 / a[0]],
    lambda a: a[0] > 0.0, derivs=_ln_derivs,
)
SQRT = ElementaryFn(
    "sqrt", 1, lambda a: math.sqrt(a[0]), lambda a: [0.5 / math.sqrt(a[0])],
    lambda a: a[0] > 0.0, derivs=_sqrt_derivs,
)
SIN = ElementaryFn(
    "sin", 1, lambda a: math.sin(a[0]), lambda a: [math.cos(a[0])], _always,
    derivs=_sin_derivs,
)
COS = ElementaryFn(
    "cos", 1, lambda a: math.cos(a[0]), lambda a: [-math.sin(a[0])], _always,
    derivs=_cos_derivs,
)
TAN = ElementaryFn(
    "tan", 1, lambda a: math.tan(a[0]),
    lambda a: [1.0 + math.tan(a[0]) * math.tan(a[0])],
    lambda a: math.cos(a[0]) != 0.0, derivs=_tan_derivs,
)


@lru_cache(maxsize=None)
def pow_fn(k: int) -> ElementaryFn:
    """The unary power x -> x**k for a fixed integer exponent k >= 0.

    Values use repeated multiplication, so powers are free in the cost model
    (they are nothing but multiplications of an already-computed value).
    """
    if k < 0:
        raise ValueError("integer power exponent must be >= 0")

    def value(a: Sequence[float]) -> float:
        return ipow(a[0], k)

    def partials(a: Sequence[float]) -> list[float]:
        if k == 0:
            return [0.0]
        return [float(k) * ipow(a[0], k - 1)]

    def derivs(x: float, n: int) -> list[float]:
        out = [ipow(x, k)]
        fall = 1.0
        for j in range(1, n + 1):
            if j > k:
                out.append(0.0)
                continue
            fall = fall * float(k - j + 1)
            out.append(fall * ipow(x, k - j))
        return out

    return ElementaryFn(f"pow{k}", 1, value, partials, _always, unit_cost=0,
                        derivs=derivs)


def const_fn(c: float) -> ElementaryFn:
    """A zero-argument elementary producing the constant c (free of charge).

    Not cached: a cache keyed by value would grow with every constant ever
    compiled, and would merge 0.0 with -0.0, which compare equal.
    """
    return ElementaryFn(
        "const", 0, lambda a, c=c: c, lambda a: [], _always, unit_cost=0
    )


#: Functions callable by name from the expression language.
CATALOG: dict[str, ElementaryFn] = {
    f.name: f for f in (EXP, LN, SQRT, SIN, COS, TAN)
}


def is_pow(name: str) -> bool:
    """Whether `name` is that of a :func:`pow_fn` power (``pow0``, ``pow1``, ...)."""
    return name.startswith("pow") and name[3:].isdigit()


def pow_exponent(name: str) -> int:
    return int(name[3:])
