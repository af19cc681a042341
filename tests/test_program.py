"""The compiled program: one straight-line layout read by every mode."""

import gc
import math
import random

import pytest

from adkit.algebras import DualAlgebra, RealAlgebra
from adkit.catalog import DomainError
from adkit.dual import Dual
from adkit.engine import _WARM, SeedSpec, backprop, forward_directional, record
from adkit.expr import (
    Constant,
    FunctionDef,
    eval_generic,
    parse,
    schedule,
    to_dot,
    unparse,
)
from adkit.trace import compile_program

from conftest import perfbench_module, random_program
from oracles import decode
from test_expr import assert_valid_dot

gen = perfbench_module("gen")

TERMS = 10_000


def flat_sum(first: str = "x") -> str:
    """x + y + x + y + ... with TERMS terms: a left-deep chain of adds."""
    terms = [first] + ["y" if i % 2 else "x" for i in range(1, TERMS)]
    return "f(x,y) = " + " + ".join(terms)


@pytest.fixture(scope="module")
def deep():
    return parse(flat_sum())


POINT = [0.25, 0.5]
N_X, N_Y = (TERMS + 1) // 2, TERMS // 2


def _want() -> float:
    total = 0.0
    for i in range(TERMS):
        total += POINT[i % 2]
    return total


def test_flat_sum_eval_real(deep):
    assert eval_generic(deep, POINT, RealAlgebra()) == [_want()]


def test_flat_sum_eval_dual(deep):
    out = eval_generic(deep, [Dual(0.25, 1.0), Dual(0.5, 0.0)], DualAlgebra())[0]
    assert (out.primal, out.tangent) == (_want(), float(N_X))


def test_flat_sum_forward_directional(deep):
    value, tangent = forward_directional(deep, SeedSpec.forward(POINT, [0.0, 1.0]))
    assert value == [_want()] and tangent == [float(N_Y)]


def test_flat_sum_record_backprop(deep):
    assert backprop(record(deep, POINT), [1.0]) == [float(N_X), float(N_Y)]


def test_flat_sum_schedule(deep):
    assert len(schedule(deep)) == TERMS - 1


def test_flat_sum_to_dot(deep):
    nodes, edges = assert_valid_dot(to_dot(deep))
    assert (nodes, edges) == (2 + TERMS - 1, 2 * (TERMS - 1))


def _layout(fdef: FunctionDef) -> list:
    return [(fn.name if slots else fn, slots) for fn, slots, _ in decode(fdef.program)]


@pytest.mark.parametrize(
    "source",
    [flat_sum(), "f(x,y) = " + " * ".join(["x", "y", "1.5"] * 1000)],
    ids=["sum-10000", "product-3000"],
)
def test_long_chain_unparse_round_trips(source):
    fdef = parse(source)
    text = unparse(fdef)
    again = parse(text)
    assert _layout(again) == _layout(fdef)
    assert unparse(again) == text


DEPTH = 10_000


def _nested_calls() -> tuple[str, float, float]:
    """sin(sin(...sin(x)...)) DEPTH deep, with its value and derivative at 0.3."""
    value, tangent = 0.3, 1.0
    for _ in range(DEPTH):
        value, tangent = math.sin(value), math.cos(value) * tangent
    return "f(x) = " + "sin(" * DEPTH + "x" + ")" * DEPTH, value, tangent


def _nested_parentheses() -> tuple[str, float, float]:
    return "f(x) = " + "(" * DEPTH + "x * x" + ")" * DEPTH, 0.3 * 0.3, 0.3 + 0.3


def _let_chain() -> tuple[str, float, float]:
    """let a1 = x + x in let a2 = a1 + x in ...: DEPTH bindings, a DEPTH + 1
    term sum."""
    lets = "let a1 = x + x in " + "".join(
        f"let a{i} = a{i - 1} + x in " for i in range(2, DEPTH + 1)
    )
    value = 0.3
    for _ in range(DEPTH):
        value += 0.3
    return f"f(x) = {lets}a{DEPTH}", value, float(DEPTH + 1)


@pytest.mark.parametrize(
    "make", [_nested_calls, _nested_parentheses, _let_chain],
    ids=["calls", "parentheses", "let-chain"],
)
def test_deep_sources_parse_without_recursion(make):
    source, value, tangent = make()
    fdef = parse(source)
    text = unparse(fdef)
    again = parse(text)
    assert _layout(again) == _layout(fdef)
    assert unparse(again) == text
    assert forward_directional(fdef, SeedSpec.forward([0.3], [1.0])) == (
        [value],
        [tangent],
    )


def test_domain_error_path_at_the_bottom_of_a_deep_chain():
    fdef = parse(flat_sum(first="ln(x)"))
    with pytest.raises(DomainError) as err:
        eval_generic(fdef, [-1.0, 0.5], RealAlgebra())
    assert err.value.fn_name == "ln"
    assert err.value.path == "out0" + ".0" * (TERMS - 1)


def test_tape_is_the_compiled_program():
    rng = random.Random(53)
    for _ in range(200):
        fdef, point = random_program(rng)
        program = compile_program(fdef)
        tape = record(fdef, point)
        # a constant's entry holds no function, as its op holds none
        assert [(e.fn, e.arg_refs) for e in tape.entries] == [
            (fn if slots else None, slots) for fn, slots, _ in decode(program)
        ]
        assert tape.output_refs == program.output_slots


def test_program_is_built_once_per_definition():
    fdef = parse("f(x) = (x, exp(x)*sin(x))")
    assert compile_program(fdef) is fdef.program
    record(fdef, [0.5])
    eval_generic(fdef, [0.5], RealAlgebra())
    assert fdef.program is compile_program(fdef)
    # a structurally equal definition compiles its own program
    assert parse("f(x) = (x, exp(x)*sin(x))").program is not fdef.program


def test_definitions_swept_in_every_mode_leave_no_cyclic_garbage():
    # A definition keeps its program and its last tape, and the tape keeps
    # the program, which keeps its kernels once it has swept `_WARM` points,
    # so all of it must be freed by reference counting alone.
    rng = random.Random(2104)
    cases = []
    for _ in range(60):
        p = gen.random_program(rng, rng.randint(1, 6), rng.randint(1, 6), rng.randint(5, 120))
        cases.append((p.source, [p.point(rng) for _ in range(_WARM if len(cases) % 6 else 1)]))
    gc.collect()
    gc.disable()
    try:
        for source, points in cases:
            fdef = parse(source)
            for point in points:
                forward_directional(fdef, SeedSpec.forward(point, [1.0] * fdef.n))
                backprop(record(fdef, point), [1.0] * fdef.m)
            eval_generic(fdef, point, RealAlgebra())
            assert isinstance(fdef.program.kernels, tuple) is (len(points) == _WARM)
        assert gc.collect() == 0
    finally:
        gc.enable()


MULTI_OUTPUT_DOMAIN_CASES = [
    # output 1's interior sqrt is scheduled before output 0's root ln,
    # so it is the step reported
    ("f(x) = (ln(x), sin(sqrt(x)))", [-1.0], "sqrt", "out1.0"),
    ("f(x) = (exp(x), 2 * sqrt(x - 3))", [1.0], "sqrt", "out1.1"),
    # a shared node is named by the first path that reaches it
    ("f(x) = let s = sqrt(x) in (exp(x), s + 1, s)", [-4.0], "sqrt", "out1.0"),
    ("f(x, y) = (x * y, y / (x - x))", [1.0, 2.0], "div", "out1"),
]


def test_multi_output_domain_error_names_the_failing_output():
    for source, point, fn_name, path in MULTI_OUTPUT_DOMAIN_CASES:
        with pytest.raises(DomainError) as err:
            eval_generic(parse(source), point, RealAlgebra())
        assert (err.value.fn_name, err.value.path) == (fn_name, path), source


def test_both_modes_name_the_failing_output():
    for source, point, fn_name, path in MULTI_OUTPUT_DOMAIN_CASES:
        fdef = parse(source)
        modes = [
            lambda: forward_directional(fdef, SeedSpec.forward(point, [1.0] * fdef.n)),
            lambda: backprop(record(fdef, point), [1.0] * fdef.m),
        ]
        for mode in modes:
            with pytest.raises(DomainError) as err:
                mode()
            assert (err.value.fn_name, err.value.path) == (fn_name, path), source


def test_signed_zero_constants_stay_distinct():
    fdef = FunctionDef("f", ("x",), (Constant(0.0), Constant(-0.0)))
    values = eval_generic(fdef, [1.0], RealAlgebra())
    assert [str(v) for v in values] == ["0.0", "-0.0"]
    tape = record(fdef, [1.0])
    primals = [tape.entries[r - tape.n].primal for r in tape.output_refs]
    assert [str(v) for v in primals] == ["0.0", "-0.0"]
