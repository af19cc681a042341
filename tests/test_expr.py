"""Expression front-end: parsing, evaluation, scheduling, DOT export."""

import gc
import math
import random
import re
import tracemalloc

import pytest

from adkit.catalog import MAX_EXPONENT, DomainError, RealAlgebra, pow_fn
from adkit.counting import CountingAlgebra, EvalCounter
from adkit.dual import Dual, DualAlgebra
from adkit.expr import (
    Apply,
    Constant,
    ParseError,
    Variable,
    eval_generic,
    parse,
    schedule,
    to_dot,
    unparse,
)

from conftest import random_program, structurally_equal


def test_parse_example_function():
    fdef = parse("f(x1,x2) = sin(x2) + 5*cos(x1*x1)")
    assert fdef.params == ("x1", "x2")
    root = fdef.outputs[0]
    assert root.fn.name == "add"
    sin_node, mul_node = root.args
    assert sin_node.fn.name == "sin"
    assert isinstance(sin_node.args[0], Variable) and sin_node.args[0].index == 2
    assert mul_node.fn.name == "mul"
    assert isinstance(mul_node.args[0], Constant) and mul_node.args[0].value == 5.0
    cos_node = mul_node.args[1]
    assert cos_node.fn.name == "cos"
    inner = cos_node.args[0]
    assert inner.fn.name == "mul"
    assert inner.args[0] is inner.args[1]  # repeated variable, same node


def test_parse_identity_and_tuple():
    fdef = parse("f(x) = x")
    assert fdef.m == 1 and isinstance(fdef.outputs[0], Variable)

    fdef = parse("f(x1,x2) = (exp(x1)*sin(x1+x2), x2)")
    assert fdef.m == 2
    assert fdef.outputs[0].fn.name == "mul"
    assert isinstance(fdef.outputs[1], Variable)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("f(x) = x + ")
    assert err.value.line == 1 and err.value.column == 12

    with pytest.raises(ParseError, match="unknown function"):
        parse("f(x) = sinh(x)")
    with pytest.raises(ParseError, match="unbound variable"):
        parse("f(x) = y")
    with pytest.raises(ParseError, match="unexpected character"):
        parse("f(x) = x ? 2")
    with pytest.raises(ParseError, match="integer"):
        parse("f(x) = x^2.5")
    for exponent in ("9" * 5000, "10000000", "1001", "0" * 5000 + "1001"):
        with pytest.raises(ParseError) as err:
            parse(f"f(x) =\n  x ^ {exponent}")
        assert str(err.value) == "exponent exceeds the ceiling 1000 (line 2, column 7)"
    assert unparse(parse("f(x) = x^" + "0" * 5000 + "1000")) == "f(x) = x^1000"

    cases = [
        ("f(x) =\n  let a = sin(x) in\n  a + ", "expected an expression, found 'end of input'",
         3, 7),
        ("f(x) = x^2^3", "expected 'end of input', found '^'", 1, 11),
        ("f(x) = sin((x, x))", "expected ')', found ','", 1, 14),
        ("f(x)=x)", "expected 'end of input', found ')'", 1, 7),
        ("f(x)=(x", "expected ')', found 'end of input'", 1, 8),
        ("f(x) = sinh(x +)", "expected an expression, found ')'", 1, 16),
        ("f(x) = x + \n\n   sinh(\n x)", "unknown function 'sinh'", 3, 4),
        ("f(x, y) =\n  (x,\n   y ?)", "unexpected character '?'", 3, 6),
    ]
    for source, message, line, column in cases:
        with pytest.raises(ParseError) as err:
            parse(source)
        assert str(err.value) == f"{message} (line {line}, column {column})", source
        assert (err.value.line, err.value.column) == (line, column), source


def test_only_the_parsers_powers_are_kept():
    # Every exponent `^` accepts is one function for the life of the process;
    # a larger, hand-built exponent is built afresh and freed with its last use.
    assert all(pow_fn(k) is pow_fn(k) for k in range(MAX_EXPONENT + 1))
    assert parse("f(x) = x^1000").outputs[0].fn is pow_fn(1000)
    assert pow_fn(MAX_EXPONENT + 1) is not pow_fn(MAX_EXPONENT + 1)
    assert pow_fn(20000).name == "pow20000"
    with pytest.raises(ValueError):
        pow_fn(-1)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(20000, 22000):
            pow_fn(k)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 50_000  # a cached power holds about 850 bytes


def test_precedence_and_unary_minus():
    fdef = parse("f(x) = -x^2 + 2*x/4 - 1")
    x = 3.0
    expected = -(x**2) + 2 * x / 4 - 1
    assert eval_generic(fdef, [x], RealAlgebra())[0] == expected

    fdef = parse("f(x) = 2^3")  # power binds to the literal
    assert eval_generic(fdef, [1.0], RealAlgebra())[0] == 8.0


def test_let_sharing_counts_once():
    counter = EvalCounter()
    algebra = CountingAlgebra(counter)
    shared = parse("f(x) = let z = sin(x) in z + z*z + exp(z)")
    eval_generic(shared, [algebra.constant(0.5)], algebra)
    assert counter.count == 4  # sin once, exp once, two each

    counter2 = EvalCounter()
    algebra2 = CountingAlgebra(counter2)
    unshared = parse("f(x) = sin(x) + sin(x)*sin(x) + exp(sin(x))")
    eval_generic(unshared, [algebra2.constant(0.5)], algebra2)
    assert counter2.count == 10  # four sin evaluations plus exp


def test_let_chaining_and_shadowing():
    fdef = parse("f(x) = let a = x + 1 in let b = a * a in b - a")
    x = 2.0
    a = x + 1
    assert eval_generic(fdef, [x], RealAlgebra())[0] == a * a - a


def test_round_trip_examples():
    sources = [
        "f(x1,x2) = sin(x2) + 5*cos(x1*x1)",
        "f(x) = x",
        "f(x1,x2) = (exp(x1)*sin(x1+x2), x2)",
        "g(x) = let z = sin(x) in z + z*z",
        "h(u,v) = -u^3 / (v - 2) + sqrt(u + 4)",
        "f(x) = (x, x, x + 1)",
    ]
    for src in sources:
        first = parse(src)
        second = parse(unparse(first))
        assert structurally_equal(first, second), src


def test_round_trip_random_programs():
    rng = random.Random(17)
    for _ in range(150):
        fdef, _ = random_program(rng, max_ops=10)
        assert structurally_equal(fdef, parse(unparse(fdef)))


def test_eval_real_matches_direct_recursion():
    def direct(node, inputs):
        if isinstance(node, Variable):
            return inputs[node.index - 1]
        if isinstance(node, Constant):
            return node.value
        return node.fn.value([direct(a, inputs) for a in node.args])

    rng = random.Random(23)
    for _ in range(100):
        fdef, point = random_program(rng)
        got = eval_generic(fdef, point, RealAlgebra())
        want = [direct(root, point) for root in fdef.outputs]
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-15, abs_tol=1e-300)


def test_eval_dual_zero_seed():
    rng = random.Random(29)
    for _ in range(50):
        fdef, point = random_program(rng)
        outs = eval_generic(fdef, [Dual(c, 0.0) for c in point], DualAlgebra())
        values = eval_generic(fdef, point, RealAlgebra())
        for o, v in zip(outs, values):
            assert o.primal == v and o.tangent == 0.0


def test_eval_domain_error_carries_path():
    fdef = parse("f(x) = 1 + ln(-x)")
    with pytest.raises(DomainError) as err:
        eval_generic(fdef, [2.0], RealAlgebra())
    assert err.value.path is not None
    assert err.value.path.startswith("out0")
    assert err.value.fn_name == "ln"


def test_schedule_example_order():
    fdef = parse("f(x1,x2) = (exp(x1)*sin(x1+x2), x2)")
    names = [step.fn.name for step in schedule(fdef)]
    assert names == ["exp", "add", "sin", "mul", "copy"]

    fdef = parse("f(x) = (x, exp(x)*sin(x))")
    names = [step.fn.name for step in schedule(fdef)]
    assert names == ["exp", "sin", "copy", "mul"]

    fdef = parse("f(x) = sin(x)")
    assert [s.fn.name for s in schedule(fdef)] == ["sin"]

    fdef = parse("f(x) = exp(sin(cos(x)))")
    assert [s.fn.name for s in schedule(fdef)] == ["cos", "sin", "exp"]

    fdef = parse("f(x) = x")
    assert [s.fn.name for s in schedule(fdef)] == ["copy"]


def test_schedule_valid_on_random_dags():
    rng = random.Random(41)
    for _ in range(1000):
        fdef, _ = random_program(rng, max_ops=12)
        order = schedule(fdef)
        position = {id(step): i for i, step in enumerate(order)}
        for i, step in enumerate(order):
            for child in step.args:
                if isinstance(child, Apply):
                    assert position[id(child)] < i
        # the last m steps produce the outputs in order
        tails = order[-fdef.m :]
        for root, tail in zip(fdef.outputs, tails):
            assert tail is root or (tail.fn.name == "copy" and tail.args[0] is root)


DOT_NODE = re.compile(r'^  n\d+ \[label=(".*"|<.*>)\];$')
DOT_EDGE = re.compile(r"^  n\d+ -> n\d+;$")


def assert_valid_dot(text: str) -> tuple[int, int]:
    lines = text.strip().split("\n")
    assert lines[0] == "digraph {"
    assert lines[1] == "  node [shape=box];"
    assert lines[-1] == "}"
    nodes = edges = 0
    declared = set()
    referenced = set()
    for line in lines[2:-1]:
        if DOT_NODE.match(line):
            nodes += 1
            declared.add(line.split()[0])
        elif DOT_EDGE.match(line):
            edges += 1
            a, _, b = line.strip().rstrip(";").split()
            referenced.update((a, b))
        else:
            raise AssertionError(f"unexpected DOT line: {line!r}")
    assert referenced <= declared
    return nodes, edges


def test_dot_identity_is_single_node():
    text = to_dot(parse("f(x) = x"))
    nodes, edges = assert_valid_dot(text)
    assert nodes == 1 and edges == 0


def test_dot_example_has_seven_nodes():
    text = to_dot(parse("f(x1,x2) = (exp(x1)*sin(x1+x2), x2)"))
    nodes, _ = assert_valid_dot(text)
    assert nodes == 7


def test_dot_random_programs_valid():
    rng = random.Random(47)
    for _ in range(100):
        fdef, _ = random_program(rng, max_ops=10)
        assert_valid_dot(to_dot(fdef))


def test_dot_annotations():
    fdef = parse("f(x) = exp(x)")
    text = to_dot(fdef, [(1.0, 0.5), (math.e, math.e * 0.5)])
    assert_valid_dot(text)
    assert 'FONT COLOR="blue"' in text and 'FONT COLOR="red"' in text
    with pytest.raises(ValueError):
        to_dot(fdef, [(1.0, 0.5)])
