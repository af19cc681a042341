"""The catalogue functions generated from their rows (`catalog._ROWS`)
against reference formulas written out here literally: the same
domain, value and partials, bit for bit, NaN payloads, signed zeros and
infinities included, the same exceptions outside the domain, and the same
first-order rule on dual numbers, jets and towers.  Then which names the
rows hold and use."""

import ast
import math
import random

from adkit.algebras import DualAlgebra
from adkit.catalog import _ROW_FNS, _ROWS, CATALOG, DIV
from adkit.dual import Dual
from adkit.jets import BERZ, JetAlgebra, jet_shape, jet_variable
from adkit.towers import TowerAlgebra, tower_take, tower_var

from test_op_table import SPECIALS, bits


def _div_partials(a):
    x, y = a
    square = y * y
    if square == 0.0:
        return [1.0 / y, -(x / y) / y]
    return [1.0 / y, -x / square]


def _not_infinite(a):
    return abs(a[0]) != math.inf


#: Per function: value, partials, domain and first-order rule, each its own
#: Python function over `math`.
FORMULAS = {
    "exp": (lambda a: math.exp(a[0]), lambda a: [math.exp(a[0])],
            lambda a: not a[0] > 709.782712893384, lambda a, f, lift: f),
    "ln": (lambda a: math.log(a[0]), lambda a: [1.0 / a[0]],
           lambda a: a[0] > 0.0, lambda a, f, lift: 1.0 / a),
    "sqrt": (lambda a: math.sqrt(a[0]), lambda a: [0.5 / math.sqrt(a[0])],
             lambda a: a[0] > 0.0, lambda a, f, lift: 0.5 / f),
    "sin": (lambda a: math.sin(a[0]), lambda a: [math.cos(a[0])], _not_infinite,
            lambda a, f, lift: lift("cos")),
    "cos": (lambda a: math.cos(a[0]), lambda a: [-math.sin(a[0])], _not_infinite,
            lambda a, f, lift: -lift("sin")),
    "tan": (lambda a: math.tan(a[0]), lambda a: [1.0 + math.tan(a[0]) * math.tan(a[0])],
            lambda a: _not_infinite(a) and math.cos(a[0]) != 0.0,
            lambda a, f, lift: 1.0 + f * f),
    "div": (lambda a: a[0] / a[1], _div_partials, lambda a: a[1] != 0.0, None),
}

EXP_EDGE = 709.782712893384


def result(call, args):
    """call(args) as bit patterns (or a truth value), or the exception's type."""
    try:
        out = call(args)
    except (ArithmeticError, ValueError) as err:
        return type(err)
    if isinstance(out, bool):
        return out
    return bits(out if isinstance(out, list) else [out])


def test_generated_callables_give_the_formulas_bits():
    rng = random.Random(3107)
    unary = [*SPECIALS, EXP_EDGE, math.nextafter(EXP_EDGE, math.inf), 1e-200, -1e-200,
             math.pi / 2, -math.pi / 2, *(rng.uniform(-20.0, 20.0) for _ in range(200)),
             *(rng.uniform(0.0, 1e-3) for _ in range(50))]
    binary = [(a, b) for a in SPECIALS for b in SPECIALS]
    binary += [(1.0, 1e-200), (-1.0, 1e-200), (1.0, -1e-200), (1e-300, 1e-170),
               *((rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) for _ in range(200))]
    for name, formulas in FORMULAS.items():
        fn = _ROW_FNS[name]
        points = binary if name == "div" else [(c,) for c in unary]
        for point in points:
            for generated, written in zip((fn.value, fn.partials, fn.domain), formulas):
                assert result(generated, list(point)) == result(written, list(point)), (
                    name, point)


def _lifts(c: float):
    """Per algebra: the lifted argument at c, how to lift a function on it,
    and how to read a lifted scalar's bits."""
    shape = jet_shape(1, 5)
    dual, jet, tower = DualAlgebra(), JetAlgebra(shape, BERZ), TowerAlgebra()
    return [
        (dual, Dual(c, 1.0), lambda d: bits([d.primal, d.tangent])),
        (jet, jet_variable(shape, 1, c, BERZ), lambda j: bits(j.coeffs)),
        (tower, tower_var(c), lambda t: bits(tower_take(t, 7))),
    ]


def test_generated_rules_give_the_formulas_bits_when_lifted():
    rng = random.Random(3108)
    points = [0.25, 1.5, -2.0, 1e-3, *(rng.uniform(-3.0, 3.0) for _ in range(20))]
    for name, formulas in FORMULAS.items():
        fn = _ROW_FNS[name]
        if fn.arity != 1:
            assert fn.derivative is None
            continue
        for c in points:
            if not fn.domain([c]):
                continue
            for algebra, a, read in _lifts(c):
                f = algebra.apply(fn, [a])
                lift = lambda other: algebra.apply(CATALOG[other], [a])
                assert read(fn.derivative(a, f, lift)) == read(formulas[3](a, f, lift)), (
                    name, c, algebra)


def test_rows_are_the_catalogue_and_division_and_name_only_math():
    assert set(_ROWS) == set(CATALOG) | {"div"}
    assert all(_ROW_FNS[name] is CATALOG[name] for name in CATALOG) and _ROW_FNS["div"] is DIV
    # the rows' code runs over a copy of math's names, so math gains none
    assert not {"__builtins__", "_Builtin"} & set(vars(math))
    for name, row in _ROWS.items():
        assert len(row) == 3
        for expression in row:
            tree = ast.parse(expression, mode="eval")
            bound = {node.target.id for node in ast.walk(tree) if isinstance(node, ast.NamedExpr)}
            names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} - bound
            allowed = {"x", "f", "abs"} | ({"y"} if name == "div" else set())
            assert all(n in allowed or hasattr(math, n) for n in names), (name, expression)
