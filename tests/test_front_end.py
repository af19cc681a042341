"""The one-scan tokenizer and the two-pass compile against the front end they
replaced (`oracles.match_tokenize`, `oracles.four_pass_compile`): the same
tokens, the same ParseErrors, the same programs and the same schedules."""

import math
import random
import struct

import pytest

from adkit.catalog import ADD, COPY, MUL, SIN, RealAlgebra, pow_fn
from adkit.engine import record
from adkit.expr import (
    Apply,
    Constant,
    FunctionDef,
    ParseError,
    Variable,
    _compile,
    _error,
    _tokenize,
    eval_generic,
    parse,
    schedule,
    unparse,
)

from conftest import perfbench_module, random_program
from oracles import (
    OffsetParser,
    four_pass_compile,
    four_pass_schedule,
    match_tokenize,
    offset_error,
)

gen = perfbench_module("gen")

HAND_WRITTEN = [
    "f(x) = ٣ * x",                  # a non-ASCII decimal digit is a number
    "f(x) = ٣.٤e٥ * x + ١٢",
    "f(x) = x ^ ٣",
    "f(x) = x * .5 + .25e-1",
    "f(x) = x * .",                       # a lone "." is a bad character
    "f(x) = x.5",
    "f(x) = 1.e3 * x",
    "f(x) = 1e * x",
    "f(x) = 1..5",
    "f(x)=\tx\n+\t1",
    "f(x,\n\ty) =\n\n  let a = x in\r\n  (a, y)\n",
    "f(x) =\u00a0x\u2003+\u30001",        # Unicode spaces are whitespace
    "f(x) = x ? 2",
    "f(x) = x é",
    "f(x) = x²",
    "f(x) = x + \n\n   sinh(\n x)",
    "f(x) = 1e400",
    "f(x) =\n  x * 1e-400",
    "f(x) = " + "9" * 400,
    "",
    "   \n\t",
    "f",
    "f(x) = x +",
    "f(x) = x +   ",
    "f(x) = x ^ " + "0" * 50 + "1001",
    "f(x, x) = x",
    "f(x) = let in x",
    "f(x)=(x,",
    "٣(x) = x",
    "f(x) = x;",
    "f(x) = x # comment",
]

MUTATION_ALPHABET = list("()+-*/^,=.eE_x19 \t\n?;é٣²\u00a0") + ["let", "in", "sin("]


def _mutant(rng: random.Random, source: str) -> str:
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(source) + 1)
        roll = rng.random()
        if roll < 0.4:
            source = source[:i] + rng.choice(MUTATION_ALPHABET) + source[i:]
        elif roll < 0.7:
            source = source[:i] + source[i + 1:]
        else:
            source = source[:i] + rng.choice(MUTATION_ALPHABET) + source[i + 1:]
    return source


def _sources() -> list[str]:
    rng = random.Random(1201)
    programs = [gen.random_program(rng, rng.randint(1, 4), rng.randint(1, 4),
                                   rng.randint(3, 40)).source for _ in range(1500)]
    programs += [gen.nested_chain(rng, rng.randint(1, 40)).source for _ in range(150)]
    programs += [gen.flat_fold(rng, rng.randint(1, 3), rng.randint(2, 60), bool(k % 2)).source
                 for k in range(150)]
    mutants = [_mutant(rng, rng.choice(programs[:300] + HAND_WRITTEN)) for _ in range(3300)]
    return HAND_WRITTEN + programs + mutants


def _outcome(attempt):
    try:
        return attempt()
    except ParseError as err:
        return str(err), err.line, err.column


def test_tokens_and_parse_errors_match_the_match_per_token_scan():
    sources = _sources()
    assert len(sources) >= 5000
    rng = random.Random(1202)
    failures = 0
    for source in sources:
        tokens = _outcome(lambda: _tokenize(source))
        reference = _outcome(lambda: match_tokenize(source))
        if isinstance(reference, tuple):
            assert tokens == reference, source
        else:
            assert [tok[:2] for tok in tokens] == [tok[:2] for tok in reference], source
            assert [tok[2] for tok in tokens] == list(range(len(tokens)))
            # an index becomes the offset the reference token carries
            for i in {0, len(tokens) - 1, *rng.sample(range(len(tokens)), min(3, len(tokens)))}:
                new, old = _error(source, i, "here"), offset_error(source, reference[i][2], "here")
                assert (str(new), new.line, new.column) == (str(old), old.line, old.column)
        parsed = _outcome(lambda: unparse(parse(source)))
        assert parsed == _outcome(lambda: unparse(OffsetParser(source).parse_def())), source
        failures += isinstance(parsed, tuple)
    assert failures > 2000  # the mutants reach the error paths


def test_number_overflow_is_a_positioned_parse_error():
    with pytest.raises(ParseError) as err:
        parse("f(x) =\n  x * 1e400")
    assert str(err.value) == "number is too large for a float (line 2, column 7)"
    with pytest.raises(ParseError, match=r"too large for a float \(line 1, column 8\)"):
        parse("f(x) = " + "9" * 400)
    assert unparse(parse("f(x) = x * 1e-400")) == "f(x) = x * 0"
    assert unparse(parse("f(x) = 1.7976931348623157e308")) == "f(x) = 1.7976931348623157e+308"


def test_unparse_refuses_nodes_the_grammar_cannot_write():
    x = Variable(1)
    cases = [
        (Apply(MUL, (x, Apply(pow_fn(2000), (x,)))), "cannot unparse pow2000: its exponent"),
        (Apply(ADD, (x, Constant(math.inf))), "cannot unparse the constant inf"),
        (Apply(ADD, (x, Constant(-math.inf))), "cannot unparse the constant -inf"),
        (Apply(ADD, (x, Constant(math.nan))), "cannot unparse the constant nan"),
        (Constant(math.nan), "cannot unparse the constant nan"),
        (Apply(COPY, (x,)), "cannot unparse copy: the grammar has no such function"),
    ]
    for root, message in cases:
        with pytest.raises(ValueError, match=message):
            unparse(FunctionDef("f", ("x",), (root,)))
    assert unparse(FunctionDef("f", ("x",), (Apply(pow_fn(1000), (x,)),))) == "f(x) = x^1000"


def test_unparse_binds_shared_nodes_under_names_no_parameter_has():
    source = "f(_v1, x, _v3) = let y = x*x in let z = sin(x) in y + y + _v1 + z + z + _v3"
    fdef = parse(source)
    text = unparse(fdef)
    assert text == ("f(_v1, x, _v3) = let _v2 = x * x in let _v4 = sin(x) in "
                    "_v2 + _v2 + _v1 + _v4 + _v4 + _v3")
    point = [10.0, 2.0, 0.5]
    want = eval_generic(fdef, point, RealAlgebra())
    assert want == [10.0 + 8.0 + 2 * math.sin(2.0) + 0.5]
    assert eval_generic(parse(text), point, RealAlgebra()) == want
    assert unparse(parse("f(_v1, x) = let y = x*x in y + y + _v1")).startswith("f(_v1, x) = let _v2 =")


def test_let_names_no_parameter_and_unparse_refuses_names_it_cannot_write():
    for source, column in (("f(let)=(let)+1", 3), ("f(x, let) = x", 6)):
        with pytest.raises(ParseError) as err:
            parse(source)
        assert (str(err.value), err.value.column) == (
            f"'let' cannot name a parameter (line 1, column {column})", column)
    body = (Apply(ADD, (Variable(1), Constant(1.0))),)
    for name, params in (("f", ("let",)), ("f", ("x", "let")), ("f g", ("x",)),
                         ("f", ("1x",)), ("f", ("x²",)), ("", ("x",))):
        with pytest.raises(ValueError, match="parser would not read it back"):
            unparse(FunctionDef(name, params, body))
    for params in ((), ("x", "x")):
        with pytest.raises(ValueError, match="cannot unparse the parameters"):
            unparse(FunctionDef("f", params, (Constant(1.0),)))
    assert unparse(FunctionDef("let", ("x",), body)) == "let(x) = x + 1"
    assert parse("let(x) = x + 1").name == "let"


def test_unparse_keeps_the_sign_of_a_zero_constant():
    x = Variable(1)
    for root in (Apply(pow_fn(2), (Constant(-0.0),)), Apply(ADD, (x, Constant(-0.0)))):
        fdef = FunctionDef("f", ("x",), (root,))
        back = parse(unparse(fdef))
        for c in (0.0, -0.0, 1.5):
            want = eval_generic(fdef, [c], RealAlgebra())[0]
            assert eval_generic(back, [c], RealAlgebra())[0].hex() == want.hex(), (unparse(fdef), c)


def _bits(op) -> bytes:
    """A constant op's value as its bit pattern."""
    assert op[0] == "const"
    return struct.pack("<d", op[1])


def _assert_same_program(fdef: FunctionDef) -> None:
    program, reference = _compile(fdef), four_pass_compile(fdef)
    assert (program.n, program.m, program.output_slots) == (
        reference.n, reference.m, reference.output_slots)
    assert len(program.ops) == len(reference.ops)
    for op, ref in zip(program.ops, reference.ops):
        if op[0] == "const":
            assert op[2:] == ref[2:] == (None, None) and _bits(op) == _bits(ref)
        else:
            assert op[:3] == ref[:3] and op[3] is ref[3]
    order, ref_order = schedule(fdef), four_pass_schedule(fdef)
    assert len(order) == len(ref_order)
    for node, ref in zip(order, ref_order):
        assert node is ref or (node.fn is ref.fn is COPY and node.args[0] is ref.args[0])


def test_compiled_programs_and_schedules_match_the_four_pass_compile():
    rng = random.Random(1203)
    for _ in range(200):
        _assert_same_program(random_program(rng, max_ops=30)[0])
    for _ in range(200):
        _assert_same_program(parse(gen.random_program(
            rng, rng.randint(1, 6), rng.randint(1, 6), rng.randint(5, 120)).source))


def test_compile_edge_cases_match_the_four_pass_compile():
    x, y = Variable(1), Variable(2)
    sin_x = Apply(SIN, (x,))
    two, zero, minus_zero = Constant(2.0), Constant(0.0), Constant(-0.0)
    edge_cases = [
        parse("f(x) = let c = 2 in x * c + c * sin(c)"),        # a constant shared by let
        parse("f(x, y) = (x, 3, y * 3, x)"),                     # variable and constant roots
        parse("f(x) = let a = sin(x) in (a, a * 2)"),            # a root another output consumes
        parse("f(x) = let a = sin(x) in (a * 2, a)"),
        parse("f(x) = let a = sin(x) in (a, a, cos(x))"),        # a repeated root
        parse("f(x) = (x * 2, sin(x * 3))"),                     # constants numbered in schedule order
        FunctionDef("f", ("x",), (Apply(ADD, (Variable(1), Variable(1))),)),  # two Variable(1)s
        FunctionDef("f", ("x", "y"), (two, Apply(MUL, (two, sin_x)), sin_x, two, y)),
        FunctionDef("f", ("x",), (Apply(ADD, (Apply(MUL, (x, minus_zero)), zero)), minus_zero)),
        FunctionDef("f", ("x",), (Apply(MUL, (sin_x, sin_x)), sin_x, Apply(SIN, (sin_x,)))),
    ]
    for fdef in edge_cases:
        _assert_same_program(fdef)
    program = _compile(edge_cases[8])
    assert [_bits(op) for op in program.ops[:2]] == [
        struct.pack("<d", -0.0), struct.pack("<d", 0.0)]
    for fdef in edge_cases:  # a tape reads its definition's program
        assert record(fdef, [0.5] * fdef.n).program is fdef.program
