"""The one-scan tokenizer and the two-pass compile against the front end they
replaced (`oracles.match_tokenize`, `oracles.four_pass_compile`): the same
tokens, the same ParseErrors, the same programs and the same schedules."""

import math
import random
import struct

import pytest

from adkit.algebras import RealAlgebra
from adkit.catalog import ADD, COPY, MUL, SIN, pow_fn
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


def test_unparse_keeps_the_sign_of_a_zero_constant():
    x = Variable(1)
    for root in (Apply(pow_fn(2), (Constant(-0.0),)), Apply(ADD, (x, Constant(-0.0)))):
        fdef = FunctionDef("f", ("x",), (root,))
        back = parse(unparse(fdef))
        for c in (0.0, -0.0, 1.5):
            want = eval_generic(fdef, [c], RealAlgebra())[0]
            assert eval_generic(back, [c], RealAlgebra())[0].hex() == want.hex(), (unparse(fdef), c)


def _bits(step) -> bytes:
    return struct.pack("<d", step.fn.value(()))


def _assert_same_program(fdef: FunctionDef) -> None:
    program, reference = _compile(fdef), four_pass_compile(fdef)
    assert (program.n, program.m, program.output_slots) == (
        reference.n, reference.m, reference.output_slots)
    assert len(program.steps) == len(reference.steps)
    for step, ref in zip(program.steps, reference.steps):
        assert (step.arg_slots, step.out_slot) == (ref.arg_slots, ref.out_slot)
        if step.arg_slots:
            assert step.fn is ref.fn
        else:
            assert step.fn.name == ref.fn.name == "const" and _bits(step) == _bits(ref)
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
    assert [_bits(step) for step in program.steps[:2]] == [
        struct.pack("<d", -0.0), struct.pack("<d", 0.0)]
