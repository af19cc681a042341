"""The package's records keep their contracts: constructors with their
defaults, fields that cannot be assigned, and equality and hashing over a
fixed set of fields.  `ElementaryFn`, `FunctionDef`, `StateProgram` and
`CostReport` are immutable `__slots__` records, `TraceRecord` a mutable one,
and `SeedSpec`, `TapeEntry` and `Tape` named tuples."""

import copy
import math
import pickle

import pytest

from adkit.catalog import CATALOG, MUL, ElementaryFn, _Builtin
from adkit.counting import EvalCounter, counted_variant
from adkit.engine import _WARM, CostReport, SeedSpec, Tape, TapeEntry, cost_compare, record
from adkit.expr import Apply, FunctionDef, StateProgram, Variable, parse
from adkit.trace import TraceRecord


def value(a):
    return math.sin(a[0])


def partials(a):
    return [math.cos(a[0])]


def domain(a):
    return True


def assert_frozen(obj, field):
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        delattr(obj, field)


def assert_same(a, b):
    assert a == b and hash(a) == hash(b) and not a != b


def test_elementary_fn():
    fn = ElementaryFn("phi", 1, value, partials, domain)
    assert (fn.unit_cost, fn.derivative) == (1, None)
    rule = lambda a, f, lift: lift("cos")  # noqa: E731
    by_keyword = ElementaryFn(name="phi", arity=1, value=value, partials=partials,
                              domain=domain, unit_cost=0, derivative=rule)
    assert (by_keyword.unit_cost, by_keyword.derivative) == (0, rule)
    assert_same(fn, ElementaryFn("phi", 1, value, partials, domain, 1, None))
    assert fn != by_keyword and fn != ElementaryFn("psi", 1, value, partials, domain)
    assert fn != ElementaryFn("phi", 1, value, partials, lambda a: True)
    for field in ("name", "arity", "value", "unit_cost", "derivative"):
        assert_frozen(fn, field)
    assert repr(fn) == "ElementaryFn('phi', arity=1)"

    class Sub(ElementaryFn):
        __slots__ = ()

    assert Sub("phi", 1, value, partials, domain) != fn  # the class is compared too


def test_counted_variant_keeps_the_class_and_the_reserved_names():
    counter = EvalCounter()
    for fn in (MUL, CATALOG["sin"]):
        clone = counted_variant(fn, counter)
        assert type(clone) is _Builtin and clone.name == fn.name
        assert (clone.arity, clone.domain, clone.unit_cost, clone.derivative) == (
            fn.arity, fn.domain, fn.unit_cost, fn.derivative)
        assert clone != fn  # value and partials are the counting ones
    clone.value([0.5])
    clone.partials([0.5])
    assert counter.count == 2
    with pytest.raises(ValueError, match="'mul' is reserved"):
        ElementaryFn("mul", 2, lambda a: a[0] * a[1], lambda a: [a[1], a[0]], domain)
    plain = counted_variant(ElementaryFn("phi", 1, value, partials, domain), counter)
    assert type(plain) is ElementaryFn


def test_function_def():
    x = Variable(1)
    fdef = FunctionDef("f", ("x",), (x,))
    assert FunctionDef(name="f", params=("x",), outputs=(x,)) == fdef
    assert fdef.last_tape is None
    with pytest.raises(TypeError):
        FunctionDef("f", ("x",), (x,), None)  # the memo is not a constructor field
    for field in ("name", "params", "outputs", "last_tape", "program"):
        assert_frozen(fdef, field)
    assert fdef.program is fdef.program
    # equality and the hash ignore the memo
    other = FunctionDef("f", ("x",), (x,))
    tape = record(fdef, [2.0])
    assert fdef.last_tape[1] is tape and other.last_tape is None
    assert_same(fdef, other)
    assert fdef != FunctionDef("g", ("x",), (x,))
    assert fdef != FunctionDef("f", ("x",), (Variable(1),))  # nodes compare by identity
    assert repr(fdef) == "FunctionDef(name='f', params=('x',), outputs=(Variable(1),))"


def test_state_program():
    fdef = parse("f(x)=sin(x)")
    program = fdef.program
    assert_same(program, StateProgram(1, 1, program.ops, (1,)))
    assert_same(program, StateProgram(n=1, m=1, ops=program.ops, output_slots=(1,)))
    assert program != StateProgram(1, 1, program.ops, (0,))
    assert (program.mu, program.dim, program.kernels) == (1, 2, 0)
    with pytest.raises(TypeError):
        StateProgram(1, 1, program.ops, (1,), None)  # the memo is not a constructor field
    for field in ("n", "ops", "output_slots", "kernels"):
        assert_frozen(program, field)
    assert repr(program) == f"StateProgram(n=1, m=1, ops={program.ops!r}, output_slots=(1,))"
    # equality, the hash, copy and pickle ignore the memo: a copy has no
    # kernels (this program's function pickles by reference)
    phi = ElementaryFn("phi", 1, value, partials, domain)
    fdef = FunctionDef("f", ("x",), (Apply(phi, (Variable(1),)),))
    program = fdef.program
    for k in range(_WARM):
        record(fdef, [0.5 + k])
    assert isinstance(program.kernels, tuple)
    for clone in (copy.copy(program), copy.deepcopy(program), pickle.loads(pickle.dumps(program))):
        assert_same(clone, program)
        assert clone.kernels == 0


def test_cost_report():
    report = CostReport("chain", 2, 3, 4, 3, 4)
    assert report.details == {} and report.details is not CostReport("chain", 2, 3, 4, 3, 4).details
    keyed = CostReport(scenario="chain", n=2, symbolic=3, ad=4, closed_form_symbolic=3,
                       closed_form_ad=4, details={"symbolic_unfactored": 9})
    assert_same(report, keyed)  # equality and the hash ignore the details
    assert report != CostReport("chain", 2, 3, 5, 3, 4)
    for field in ("scenario", "ad", "details"):
        assert_frozen(report, field)
    shared = cost_compare("shared", 3)
    for clone in (copy.copy(shared), pickle.loads(pickle.dumps(shared))):
        assert_same(clone, shared)
        assert clone.details == shared.details == {"symbolic_unfactored": 9}


def test_trace_record_is_mutable_and_unhashable():
    rec = TraceRecord([[1.0]])
    assert (rec.derivative_states, rec.kind) == (None, None)
    assert rec == TraceRecord(states=[[1.0]], derivative_states=None, kind=None)
    rec.derivative_states, rec.kind = [[2.0]], "forward"
    assert rec == TraceRecord([[1.0]], [[2.0]], "forward") != TraceRecord([[1.0]])
    with pytest.raises(TypeError):
        hash(rec)
    assert repr(rec) == "TraceRecord(states=[[1.0]], derivative_states=[[2.0]], kind='forward')"


def test_named_tuple_records():
    seed = SeedSpec((1.0,), direction=(0.5,))
    assert seed.covector is None and seed == SeedSpec.forward([1.0], [0.5])
    assert_same(seed, SeedSpec(point=(1.0,), direction=(0.5,), covector=None))
    assert SeedSpec.reverse([1.0], [2.0]) == SeedSpec((1.0,), None, (2.0,))
    assert_frozen(seed, "point")

    tape = record(parse("f(x)=sin(x)"), [0.5])
    assert_same(tape, Tape(program=tape.program, values=tape.values, partials=tape.partials))
    assert (tape.n, tape.m, tape.output_refs) == (1, 1, (1,))
    assert_frozen(tape, "values")

    [entry] = tape.entries
    assert_same(entry, TapeEntry(CATALOG["sin"], (0,), math.sin(0.5), (math.cos(0.5),)))
    assert_frozen(entry, "primal")
