"""Dense state-space trace: compilation, sweeps, matrix products."""

import math
import random

import pytest

from adkit.catalog import DomainError, CATALOG
from adkit.expr import Apply, FunctionDef, Variable, parse
from adkit.trace import (
    StateProgram,
    compile_program,
    forward_derivative,
    forward_derivative_trace,
    forward_trace,
    reverse_derivative,
    reverse_derivative_trace,
    step_jacobian,
)

from conftest import random_program
from oracles import central_diff, decode

GRIEWANK = "f(x1,x2) = (exp(x1)*sin(x1+x2), x2)"
REVERSE_EXAMPLE = "f(x) = (x, exp(x)*sin(x))"


def test_compile_two_output_example():
    program = compile_program(parse(GRIEWANK))
    assert program.mu == 5
    assert program.dim == 7
    steps = decode(program)
    assert [fn.name for fn, _, _ in steps] == ["exp", "add", "sin", "mul", "copy"]
    assert program.output_slots == (5, 6)
    # argument wiring: exp reads x1, add reads (x1, x2), mul reads (exp, sin)
    assert [slots for _, slots, _ in steps] == [(0,), (0, 1), (3,), (2, 4), (1,)]


def test_compile_identity_and_reverse_example():
    program = compile_program(parse("f(x) = x"))
    assert program.mu == 1
    assert decode(program)[0][0].name == "copy"

    program = compile_program(parse(REVERSE_EXAMPLE))
    assert program.mu == 4
    assert program.dim == 5
    assert [fn.name for fn, _, _ in decode(program)] == ["exp", "sin", "copy", "mul"]
    assert program.output_slots == (3, 4)


def test_forward_trace_state_sequence():
    c1, c2 = 1.3, -0.4
    program = compile_program(parse(GRIEWANK))
    record = forward_trace(program, [c1, c2])
    assert len(record.states) == 6
    expected_final = [
        c1,
        c2,
        math.exp(c1),
        c1 + c2,
        math.sin(c1 + c2),
        math.exp(c1) * math.sin(c1 + c2),
        c2,
    ]
    for got, want in zip(record.states[-1], expected_final):
        assert math.isclose(got, want, rel_tol=1e-15, abs_tol=1e-300)


def test_forward_trace_zero_step_program():
    program = StateProgram(n=2, m=1, ops=(), output_slots=(0,))
    assert (decode(program), program.mu) == ([], 0)
    record = forward_trace(program, [4.0, 5.0])
    assert record.states == [[4.0, 5.0]]


def test_forward_trace_reverse_example_states():
    c = 0.8
    program = compile_program(parse(REVERSE_EXAMPLE))
    record = forward_trace(program, [c])
    want = [c, math.exp(c), math.sin(c), c, math.exp(c) * math.sin(c)]
    for got, expected in zip(record.states[-1], want):
        assert math.isclose(got, expected, rel_tol=1e-15)


def test_forward_trace_domain_error_names_step():
    program = compile_program(parse("f(x) = ln(x - 10)"))
    with pytest.raises(DomainError) as err:
        forward_trace(program, [1.0])
    assert "ln" in str(err.value) and "step" in str(err.value)


def test_forward_derivative_example():
    rng = random.Random(1)
    program = compile_program(parse(GRIEWANK))
    for _ in range(25):
        c1, c2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        d1, d2 = rng.uniform(-2, 2), rng.uniform(-2, 2)
        out = forward_derivative(program, [c1, c2], [d1, d2])
        first = (
            math.sin(c1 + c2) * math.exp(c1) + math.exp(c1) * math.cos(c1 + c2)
        ) * d1 + math.exp(c1) * math.cos(c1 + c2) * d2
        assert math.isclose(out[0], first, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(out[1], d2, rel_tol=1e-15)
    assert forward_derivative(program, [0.3, 0.4], [0.0, 0.0]) == [0.0, 0.0]


def test_forward_derivative_matches_finite_differences():
    rng = random.Random(67)
    checked = 0
    for _ in range(100):
        fdef, point = random_program(rng, max_vars=1, max_outputs=1, max_ops=8)
        program = compile_program(fdef)

        def f(x):
            return forward_trace(program, [x]).states[-1][program.output_slots[0]]

        seed = rng.uniform(-2, 2)
        got = forward_derivative(program, point, [seed])[0]
        fd = central_diff(f, point[0]) * seed
        if abs(fd) < 1e-4 and abs(got) < 1e-4:
            continue
        checked += 1
        assert math.isclose(got, fd, rel_tol=1e-5, abs_tol=1e-6 * max(1, abs(got)))
    assert checked > 30


def test_reverse_derivative_example():
    rng = random.Random(2)
    program = compile_program(parse(REVERSE_EXAMPLE))
    for _ in range(25):
        c, y1, y2 = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)
        out = reverse_derivative(program, [c], [y1, y2])
        want = y1 + y2 * math.exp(c) * (math.sin(c) + math.cos(c))
        assert math.isclose(out[0], want, rel_tol=1e-12, abs_tol=1e-12)
    assert reverse_derivative(program, [1.1], [0.0, 0.0]) == [0.0]


def test_reverse_figure_test_case():
    program = compile_program(parse(REVERSE_EXAMPLE))
    out = reverse_derivative(program, [5.0], [1.0, 1.0])
    want = 1.0 + math.exp(5.0) * (math.sin(5.0) + math.cos(5.0))
    assert math.isclose(out[0], want, rel_tol=1e-12)


def test_trace_pair_slots_match_local_rule_exactly():
    # slot n+i of the i-th state/derivative pair is exactly the elementary's
    # value and directional derivative of its stored arguments
    rng = random.Random(3)
    for _ in range(40):
        fdef, point = random_program(rng, max_ops=12)
        program = compile_program(fdef)
        xdot = [rng.uniform(-2, 2) for _ in range(program.n)]
        record = forward_derivative_trace(program, point, xdot)
        for i, (fn, slots, out) in enumerate(decode(program)):
            prev_v = record.states[i]
            prev_d = record.derivative_states[i]
            args = [prev_v[s] for s in slots]
            value = fn if not slots else fn.value(args)  # a constant's fn is its value
            deriv = 0.0
            for partial, s in zip(fn.partials(args) if slots else [], slots):
                deriv += partial * prev_d[s]
            assert record.states[i + 1][out] == value
            assert record.derivative_states[i + 1][out] == deriv


def test_overwrite_safety():
    rng = random.Random(4)
    for _ in range(30):
        fdef, point = random_program(rng, max_ops=12)
        program = compile_program(fdef)
        record = forward_trace(program, point)
        for i, (_, _, out) in enumerate(decode(program)):
            before, after = record.states[i], record.states[i + 1]
            for s in range(program.dim):
                if s != out:
                    assert before[s] == after[s]


def test_adjoint_tangent_duality():
    rng = random.Random(6)
    for _ in range(60):
        fdef, point = random_program(rng)
        program = compile_program(fdef)
        xdot = [rng.uniform(-2, 2) for _ in range(program.n)]
        ybar = [rng.uniform(-2, 2) for _ in range(program.m)]
        forward = forward_derivative(program, point, xdot)
        reverse = reverse_derivative(program, point, ybar)
        lhs = sum(y * f for y, f in zip(ybar, forward))
        rhs = sum(r * x for r, x in zip(reverse, xdot))
        scale = max(1.0, abs(lhs), abs(rhs))
        assert abs(lhs - rhs) <= 1e-10 * scale


def test_step_jacobian_shape():
    program = compile_program(parse("f(x1,x2) = x1*x2"))
    record = forward_trace(program, [3.0, 4.0])
    mat = step_jacobian(program, 0, record.states[0])
    assert len(mat) == program.dim
    assert all(len(row) == program.dim for row in mat)
    out = decode(program)[0][2]
    assert mat[out][out] == 0.0  # gradient row, zero diagonal
    assert mat[out][0] == 4.0 and mat[out][1] == 3.0
    for s in range(program.dim):
        if s != out:
            assert mat[s] == [1.0 if c == s else 0.0 for c in range(program.dim)]


def test_reverse_trace_adjoint_sequence():
    # the reverse example, adjoints checked against the hand recurrence
    c, y1, y2 = 0.9, 1.3, -0.7
    program = compile_program(parse(REVERSE_EXAMPLE))
    record = reverse_derivative_trace(program, [c], [y1, y2])
    vbar_final = record.derivative_states[-1]
    assert vbar_final == [0.0, 0.0, 0.0, y1, y2]
    vbar3 = record.derivative_states[3]
    assert math.isclose(vbar3[1], y2 * math.sin(c), rel_tol=1e-15)
    assert math.isclose(vbar3[2], y2 * math.exp(c), rel_tol=1e-15)
    assert vbar3[3] == y1 and vbar3[4] == 0.0


def test_csv_dump_round_trips():
    program = compile_program(parse(GRIEWANK))
    record = forward_derivative_trace(program, [1.25, -0.5], [1.0, 0.25])
    text = record.to_csv()
    lines = text.strip().split("\n")
    assert lines[0].startswith("vector,slot0")
    assert len(lines) == 1 + 2 * len(record.states)
    for line, state in zip(lines[1:], record.states):
        cells = line.split(",")
        assert [float(cell) for cell in cells[1:]] == state


def test_dimension_cap():
    node = Variable(1)
    for _ in range(600):
        node = Apply(CATALOG["sin"], (node,))
    fdef = FunctionDef("f", ("x",), (node,))
    with pytest.raises(ValueError, match="exceeds"):
        compile_program(fdef)
