"""Production drivers: forward mode, tape reverse mode, Jacobians, counts."""

import math
import random

import pytest

from adkit.engine import (
    SeedSpec,
    backprop,
    forward_directional,
    jacobian,
    record,
    reverse_gradient,
)
from adkit.counting import cost_compare
from adkit.expr import FunctionDef, parse
from adkit.trace import compile_program, forward_derivative, reverse_derivative

from conftest import random_program
from oracles import partial_diff

DUAL_EXAMPLE = "f(x1,x2) = x2*cos(x1*x1+3)"
REVERSE_EXAMPLE = "f(x) = (x, exp(x)*sin(x))"


def closed_form_tangent(c1, c2, d1, d2):
    return -2 * c1 * c2 * math.sin(c1 * c1 + 3) * d1 + math.cos(c1 * c1 + 3) * d2


def test_forward_directional_closed_form():
    fdef = parse(DUAL_EXAMPLE)
    rng = random.Random(10)
    for _ in range(50):
        c1, c2, d1, d2 = (rng.uniform(-2, 2) for _ in range(4))
        value, tangent = forward_directional(fdef, SeedSpec.forward([c1, c2], [d1, d2]))
        assert math.isclose(value[0], c2 * math.cos(c1 * c1 + 3), rel_tol=1e-14)
        want = closed_form_tangent(c1, c2, d1, d2)
        assert math.isclose(tangent[0], want, rel_tol=1e-12, abs_tol=1e-13)


def test_forward_zero_seed():
    fdef = parse(DUAL_EXAMPLE)
    value, tangent = forward_directional(fdef, SeedSpec.forward([0.7, 1.1], [0.0, 0.0]))
    assert tangent == [0.0]
    assert value[0] == 1.1 * math.cos(0.7 * 0.7 + 3)


def test_record_reverse_example_entries():
    c = 1.4
    tape = record(parse(REVERSE_EXAMPLE), [c])
    assert [e.fn.name for e in tape.entries] == ["exp", "sin", "copy", "mul"]
    primals = [e.primal for e in tape.entries]
    want = [math.exp(c), math.sin(c), c, math.exp(c) * math.sin(c)]
    for got, expected in zip(primals, want):
        assert math.isclose(got, expected, rel_tol=1e-15)
    assert tape.output_refs == (3, 4)


def test_record_identity_and_chain():
    tape = record(parse("f(x) = x"), [2.0])
    assert len(tape.entries) == 1 and tape.entries[0].fn.name == "copy"

    tape = record(parse("f(x) = sin(cos(exp(x)))"), [0.3])
    assert len(tape.entries) == 3
    for entry in tape.entries:
        assert len(entry.local_partials) == 1


def test_backprop_closed_form():
    fdef = parse(REVERSE_EXAMPLE)
    rng = random.Random(20)
    for _ in range(50):
        c, y1, y2 = rng.uniform(-2, 2), rng.uniform(-2, 2), rng.uniform(-2, 2)
        tape = record(fdef, [c])
        out = backprop(tape, [y1, y2])
        want = y1 + y2 * math.exp(c) * (math.sin(c) + math.cos(c))
        assert math.isclose(out[0], want, rel_tol=1e-12, abs_tol=1e-12)


def test_backprop_figure_case():
    out = reverse_gradient(
        parse(REVERSE_EXAMPLE), SeedSpec.reverse([5.0], [1.0, 1.0])
    )
    want = 1.0 + math.exp(5.0) * (math.sin(5.0) + math.cos(5.0))
    assert math.isclose(out[0], want, rel_tol=1e-12)


def test_backprop_fan_out():
    fdef = parse("f(x) = x*x")
    tape = record(fdef, [3.0])
    assert backprop(tape, [1.0]) == [6.0]
    # oracle: the dense transposed product
    program = compile_program(fdef)
    assert reverse_derivative(program, [3.0], [1.0]) == [6.0]


def test_jacobian_example_and_modes_agree():
    fdef = parse("f(x1,x2) = (exp(x1)*sin(x1+x2), x2)")
    c = [0.4, -1.2]
    jf = jacobian(fdef, c, mode="forward")
    jr = jacobian(fdef, c, mode="reverse")
    assert jf[1] == [0.0, 1.0]
    e, s, co = math.exp(c[0]), math.sin(c[0] + c[1]), math.cos(c[0] + c[1])
    assert math.isclose(jf[0][0], e * s + e * co, rel_tol=1e-13)
    assert math.isclose(jf[0][1], e * co, rel_tol=1e-13)
    for rf, rr in zip(jf, jr):
        for a, b in zip(rf, rr):
            assert math.isclose(a, b, rel_tol=1e-10, abs_tol=1e-12)

    linear = parse("f(x1,x2) = 3*x1 - 2*x2")
    assert jacobian(linear, [0.0, 0.0]) == jacobian(linear, [5.0, -7.0]) == [[3.0, -2.0]]

    with pytest.raises(ValueError):
        jacobian(linear, [0.0, 0.0], mode="sideways")


def test_tape_determinism():
    rng = random.Random(30)
    for _ in range(20):
        fdef, point = random_program(rng)
        # a second definition has its own program, so nothing is memoised
        again = FunctionDef(fdef.name, fdef.params, fdef.outputs)
        tape, other = record(fdef, point), record(again, point)
        assert (tape.values, tape.partials) == (other.values, other.partials)
        assert record(fdef, point) == tape


def test_engine_matches_trace_oracle():
    rng = random.Random(40)
    for _ in range(100):
        fdef, point = random_program(rng)
        program = compile_program(fdef)
        xdot = [rng.uniform(-2, 2) for _ in range(fdef.n)]
        ybar = [rng.uniform(-2, 2) for _ in range(fdef.m)]

        _, tangent = forward_directional(fdef, SeedSpec.forward(point, xdot))
        dense = forward_derivative(program, point, xdot)
        for a, b in zip(tangent, dense):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))

        tape = record(fdef, point)
        grad = backprop(tape, ybar)
        dense_grad = reverse_derivative(program, point, ybar)
        for a, b in zip(grad, dense_grad):
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a), abs(b))


def test_gradient_matches_finite_differences():
    from adkit.catalog import RealAlgebra
    from adkit.expr import eval_generic

    rng = random.Random(50)
    checked = 0
    for _ in range(80):
        fdef, point = random_program(rng, max_outputs=1, max_ops=10)
        grad = jacobian(fdef, point, mode="reverse")[0]

        def f_at(args):
            return eval_generic(fdef, list(args), RealAlgebra())[0]

        for j in range(fdef.n):
            fd = partial_diff(f_at, point, j)
            if abs(fd) < 1e-4 and abs(grad[j]) < 1e-4:
                continue
            checked += 1
            assert math.isclose(grad[j], fd, rel_tol=1e-5, abs_tol=1e-6 * max(1, abs(grad[j])))
    assert checked > 50


def test_cost_compare_examples():
    chain = cost_compare("chain", 10)
    assert (chain.symbolic, chain.ad) == (55, 20)
    product = cost_compare("product", 10)
    assert (product.symbolic, product.ad) == (100, 20)
    shared = cost_compare("shared", 10)
    assert shared.ad == 22
    assert shared.symbolic == 21  # derivative factored out
    assert shared.details["symbolic_unfactored"] == 30

    tiny = cost_compare("chain", 1)
    assert (tiny.symbolic, tiny.ad) == (1, 2)

    with pytest.raises(ValueError):
        cost_compare("chain", 0)
    with pytest.raises(ValueError):
        cost_compare("loop", 3)


def test_cost_compare_closed_forms_full_range():
    for n in range(1, 51):
        chain = cost_compare("chain", n)
        assert chain.symbolic == n * (n + 1) // 2
        assert chain.ad == 2 * n
        product = cost_compare("product", n)
        assert product.symbolic == n * n
        assert product.ad == 2 * n
        shared = cost_compare("shared", n)
        assert shared.ad == 2 * n + 2
        assert shared.symbolic == 2 * n + 1
        assert shared.details["symbolic_unfactored"] == 3 * n


def test_seed_validation():
    fdef = parse(DUAL_EXAMPLE)
    with pytest.raises(ValueError):
        forward_directional(fdef, SeedSpec.reverse([1.0, 2.0], [1.0]))
    with pytest.raises(ValueError):
        forward_directional(fdef, SeedSpec.forward([1.0], [1.0]))
    with pytest.raises(ValueError):
        backprop(record(fdef, [1.0, 2.0]), [1.0, 2.0])
