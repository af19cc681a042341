"""Catalogue of elementary functions.

Every differentiation mode in this package is driven by the same closed set of
primitives: arithmetic (+, -, unary -, *, /, integer powers) plus exp, ln,
sqrt, sin, cos and tan, each shipped with its value, first partials and an
open domain predicate.  The unary transcendentals and powers also carry one
first-order rule, f'(a) in catalogue terms (cos for sin, 1 + f*f for tan),
from which jets and towers both derive every higher order through the chain
rule.  exp, ln, sqrt, sin, cos, tan and division are written once each, as
a row (`_ROWS`) from which they are generated.  Additional primitives can
be registered by constructing :class:`ElementaryFn` directly, under a name
of their own.

Lifted scalars (dual numbers, jets, towers) are :class:`Lifted`: they carry
the Python operators, and `OPERATORS` maps each arithmetic function's name
to its operator, so one table applies arithmetic in every lifted mode.

An algebra (`constant` and `apply`) plugs scalars into `expr.eval_generic`
and lives beside its scalar: `RealAlgebra`, for floats, and the lifted
algebras' one `apply` (`_LiftedAlgebra`: arithmetic by `OPERATORS`, any
other function by the algebra's `lift(fn, args)`) are here.

`Record` is the small `__slots__` record class that `ElementaryFn` and the
package's other records build on.
"""

from __future__ import annotations

import math
import operator
import re
from functools import lru_cache
from typing import Any, Callable, Optional, Sequence


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
    """A higher-order lift (jet or tower) was requested for a function with no
    derivative rule."""


_RESERVED = frozenset("add sub neg mul div copy const exp ln sqrt sin cos tan".split())


class Record:
    """An immutable record whose `_fields`, in constructor order, are its
    `__slots__`.  `__init__` sets them once through `_set`; equality and the
    hash compare the class and the fields named in `_compared`."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()
    _compared: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, *value) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    __delattr__ = __setattr__

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self._compared)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._compared)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):  # copy and pickle set the fields as __init__ does
        return _rebuild, (type(self), tuple(getattr(self, name) for name in self._fields))


def _rebuild(cls: type, values: tuple) -> Record:
    record = cls.__new__(cls)
    record._set(*values)
    return record


class ElementaryFn(Record):
    """A differentiable primitive.

    `value` and `partials` map an argument vector to the function value and
    its gradient; both are only defined where `domain` holds.  `unit_cost` is
    the price of one value (or one derivative) evaluation in the
    operation-count model: arithmetic on already-computed values is free,
    genuine function evaluations cost 1.

    `derivative`, for unary functions, backs the jet and tower lifts: called
    as ``derivative(a, f, lift)`` it returns f'(a) in catalogue terms, where
    `a` is the lifted argument, `f` the lifted result and `lift(name)` the
    lift of another catalogue function on the same argument.  It is written
    with the operators of lifted scalars (a float is a lifted constant), and
    it may return a float: ``pow0``'s is ``0.0``.  Jets take degree 1 from
    `partials`, as dual numbers do, and towers entry 1 from the rule.  The
    Taylor engine (`adkit.taylor`) records the rule as a plan, once per
    process for the catalogue's own functions, and for the rest once per
    lift, when a tower lift's entry 1 or a jet lift's degree 1 at N >= 2 is
    filled.
    The catalogue's transcendentals and division are generated from rows.

    The modes dispatch on a function's name, so the names of the catalogue's
    own functions (``add sub neg mul div copy``, ``pow<k>`` and the CATALOG
    names) are reserved for those functions and for copies of them made by
    their own class (as `counting.counted_variant` makes), and so is
    ``const``, the op table's kind for a constant.  Constructing any other
    function under such a name raises ValueError.

    Instances are immutable and safe to share between threads.
    """

    __slots__ = _fields = _compared = (
        "name", "arity", "value", "partials", "domain", "unit_cost", "derivative")

    def __init__(
        self,
        name: str,
        arity: int,
        value: Callable[[Sequence[float]], float],
        partials: Callable[[Sequence[float]], list[float]],
        domain: Callable[[Sequence[float]], bool],
        unit_cost: int = 1,
        derivative: Optional[Callable[..., Any]] = None,
    ) -> None:
        if (name in _RESERVED or is_pow(name)) and not isinstance(self, _Builtin):
            raise ValueError(f"the name {name!r} is reserved for the catalogue's own function")
        self._set(name, arity, value, partials, domain, unit_cost, derivative)

    def check_arity(self, args: Sequence) -> None:
        if len(args) != self.arity:
            raise ValueError(
                f"{self.name} expects {self.arity} argument(s), got {len(args)}"
            )

    def check_domain(self, args: Sequence[float]) -> None:
        self.check_arity(args)
        if not self.domain(args):
            raise DomainError(self.name, args)

    def __repr__(self) -> str:  # the Record default would dump the callables
        return f"ElementaryFn({self.name!r}, arity={self.arity})"


class _Builtin(ElementaryFn):
    """The class of the catalogue's own functions.  A copy made in this
    class (`counting.counted_variant`) may carry a reserved name too."""

    __slots__ = ()


def _always(args: Sequence[float]) -> bool:
    return True


def integer(value, name: str) -> int:
    """value by `operator.index`, else a TypeError that names it."""
    if not hasattr(type(value), "__index__"):
        raise TypeError(f"{name} must be an integer, not {type(value).__name__}")
    return operator.index(value)


def ipow(x: float, k: int) -> float:
    """x**k for k >= 0 by repeated multiplication (left fold)."""
    r = 1.0
    for _ in range(k):
        r *= x
    return r


ADD = _Builtin(
    "add", 2, lambda a: a[0] + a[1], lambda a: [1.0, 1.0], _always, unit_cost=0
)
SUB = _Builtin(
    "sub", 2, lambda a: a[0] - a[1], lambda a: [1.0, -1.0], _always, unit_cost=0
)
NEG = _Builtin("neg", 1, lambda a: -a[0], lambda a: [-1.0], _always, unit_cost=0)
MUL = _Builtin(
    "mul", 2, lambda a: a[0] * a[1], lambda a: [a[1], a[0]], _always, unit_cost=0
)
COPY = _Builtin(
    "copy",
    1,
    lambda a: a[0],
    lambda a: [1.0],
    _always,
    unit_cost=0,
)


#: Arithmetic by name, as the operators of lifted scalars.  Lifted scalars
#: are immutable, so a copy is the value itself.
OPERATORS: dict[str, Callable[..., Any]] = {
    "add": operator.add, "sub": operator.sub, "neg": operator.neg,
    "mul": operator.mul, "div": operator.truediv, "copy": lambda a: a,
}


def _operators(method: str):
    """The operator pair (x op b, a op x) that promotes the other operand and
    calls `method` on the two scalars in the written order."""
    def forward(self, b):
        b = self._promote(b)
        return NotImplemented if b is NotImplemented else getattr(self, method)(b)

    def reflected(self, a):
        a = self._promote(a)
        return NotImplemented if a is NotImplemented else getattr(a, method)(self)

    return forward, reflected


class Lifted:
    """The operators ``+ - * /`` of a lifted scalar type, with its own kind
    and with floats; the subclass defines unary ``-``.

    A subclass defines `_promote(b)`, which returns b itself if it is of its
    kind, the lifted constant if it is a float, else NotImplemented, and the
    methods `_add _sub _mul _div` on two scalars of its kind.  A float is
    promoted and the operation keeps the written order, so ``c * x`` has the
    bits of ``_promote(c) * x``, NaN payloads included: jet and tower
    products sum their terms in operand order.
    """

    __slots__ = ()
    __add__, __radd__ = _operators("_add")
    __sub__, __rsub__ = _operators("_sub")
    __mul__, __rmul__ = _operators("_mul")
    __truediv__, __rtruediv__ = _operators("_div")


class RealAlgebra:
    """Plain float evaluation."""

    @staticmethod
    def constant(c: float) -> float:
        return float(c)

    @staticmethod
    def apply(fn: ElementaryFn, args: list[float]) -> float:
        fn.check_domain(args)
        return fn.value(args)


class _LiftedAlgebra:
    """Arithmetic by its operator, any other function by `self.lift`."""

    def apply(self, fn: ElementaryFn, args: list):
        fn.check_arity(args)
        op = OPERATORS.get(fn.name)
        if op is not None:
            return op(*args)
        return self.lift(fn, args)


#: The catalogue's functions given by formula, one row each: the domain, the
#: value and the first partials, Python expressions in `math`'s names over
#: the arguments x (and y), where f stands for the value.  A row is the one
#: source of its function's callables, of its first-order rule (`_generate`)
#: and of the lines `kernels.build` writes for its steps.
_ROWS = {
    # exp is undefined above math.log(sys.float_info.max), the largest
    # argument whose exp is a finite float, and sin, cos and tan at +-inf;
    # NaN passes both tests.
    "exp": ("not x > 709.782712893384", "exp(x)", "f"),
    "ln": ("x > 0.0", "log(x)", "1.0 / x"),
    "sqrt": ("x > 0.0", "sqrt(x)", "0.5 / f"),
    "sin": ("abs(x) != inf", "sin(x)", "cos(x)"),
    "cos": ("abs(x) != inf", "cos(x)", "-sin(x)"),
    "tan": ("abs(x) != inf and cos(x) != 0.0", "tan(x)", "1.0 + f * f"),
    # where y*y underflows, -x/(y*y) is taken as -(x/y)/y, the form of the
    # dual tangent (x' - f y')/y, which then overflows at worst
    "div": ("y != 0.0", "x / y", "1.0 / y, -x / s if (s := y * y) != 0.0 else -f / y"),
}

#: `math`'s public names, the globals of the rows' code.
_MATH = {name: value for name, value in vars(math).items() if not name.startswith("_")}

#: Each row with its names x, y and f as the fields {x}, {y} and {f}, for
#: the text of the arguments and of the value.
_TEMPLATES = {name: tuple(re.sub(r"\b[xyf]\b", lambda m: f"{{{m[0]}}}", e) for e in row)
              for name, row in _ROWS.items()}


def _generate() -> dict[str, "_Builtin"]:
    """The row functions by name, compiled by one `eval` over `_MATH`.  A
    callable is its row's expression on ``a[0]`` (and ``a[1]``), and the
    partials bind the value to f where they first read it.  A unary
    function's rule is its partial, a catalogue call on x being that lift."""
    lifts = {value: f"lift({name!r})" for name, (_, value, _) in _ROWS.items()}
    source = []
    on = {"x": "a[0]", "y": "a[1]", "f": "f"}
    for name, (domain, value, partials) in _TEMPLATES.items():
        partials = partials.replace("{f}", f"(f := {value})", 1)
        rule = re.sub(r"\b\w+\(x\)", lambda m: lifts[m[0]], _ROWS[name][2])
        head = "2, unit_cost=0" if name == "div" else f"1, derivative=lambda x, f, lift: {rule}"
        source.append(f"{name!r}: _Builtin({name!r}, {head}, value=lambda a: {value.format(**on)}, "
                      f"partials=lambda a: [{partials.format(**on)}], "
                      f"domain=lambda a: {domain.format(**on)}),")
    return eval(f"{{{''.join(source)}}}", dict(_MATH, _Builtin=_Builtin, __name__=__name__))


_ROW_FNS = _generate()
EXP, LN, SQRT, SIN, COS, TAN, DIV = _ROW_FNS.values()


#: The largest exponent `^` accepts.  A power is that many multiplications
#: (`ipow`), so one evaluation of x^1000 costs about as much as a
#: thousand-step program.
MAX_EXPONENT = 1000


def pow_fn(k: int) -> ElementaryFn:
    """The unary power x -> x**k for a fixed integer exponent k >= 0.

    Values use repeated multiplication, so powers are free in the cost model
    (they are nothing but multiplications of an already-computed value).
    The powers the parser accepts (k <= MAX_EXPONENT) are built once each;
    a larger, hand-built exponent gets a new function on every call.
    """
    return _cached_power(k) if k <= MAX_EXPONENT else _power(k)


def _power(k: int) -> ElementaryFn:
    if k < 0:
        raise ValueError("integer power exponent must be >= 0")

    def value(a: Sequence[float]) -> float:
        return ipow(a[0], k)

    def partials(a: Sequence[float]) -> list[float]:
        if k == 0:
            return [0.0]
        return [float(k) * ipow(a[0], k - 1)]

    def derivative(a, f, lift):
        if k == 0:
            return 0.0
        return float(k) * lift(f"pow{k - 1}")

    return _Builtin(f"pow{k}", 1, value, partials, _always, unit_cost=0,
                        derivative=derivative)


_cached_power = lru_cache(maxsize=None)(_power)


#: Functions callable by name from the expression language.
CATALOG: dict[str, ElementaryFn] = {
    f.name: f for f in (EXP, LN, SQRT, SIN, COS, TAN)
}


def is_pow(name: str) -> bool:
    """Whether `name` is that of a :func:`pow_fn` power (``pow0``, ``pow1``, ...)."""
    return name.startswith("pow") and name[3:].isdigit()


def pow_exponent(name: str) -> int:
    return int(name[3:])


def lookup(name: str) -> ElementaryFn:
    """The catalogue function called `name`: a CATALOG entry or a power."""
    if name in CATALOG:
        return CATALOG[name]
    if is_pow(name):
        return pow_fn(pow_exponent(name))
    raise KeyError(name)


def derivative_rule(fn: ElementaryFn) -> Callable[..., Any]:
    """fn's first-order rule, or UnsupportedOrderError if it has none."""
    if fn.arity != 1 or fn.derivative is None:
        raise UnsupportedOrderError(f"{fn.name} has no derivative rule to lift")
    return fn.derivative
