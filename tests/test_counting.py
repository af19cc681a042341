"""The exact-count cost model."""

from adkit.algebras import CountingAlgebra
from adkit.catalog import ADD, CATALOG, MUL
from adkit.counting import EvalCounter, counted_variant
from adkit.expr import eval_generic, parse


def test_unary_chain_with_derivatives_costs_two_per_node():
    counter = EvalCounter()
    algebra = CountingAlgebra(counter, include_derivative=True)
    v = 0.5
    for name in ("sin", "exp", "cos"):
        v = algebra.apply(CATALOG[name], [v])
    assert counter.count == 6


def test_constants_are_free():
    # four constants (the two 3s are separate nodes) and arithmetic on them:
    # nothing is charged
    fdef = parse("f(x) = (x * 3 + 2, 0.5 - x * 3)")
    counter = EvalCounter()
    algebra = CountingAlgebra(counter, include_derivative=True)
    assert eval_generic(fdef, [1.5], algebra) == [6.5, -4.0]
    assert counter.count == 0
    assert sum(op[0] == "const" for op in fdef.program.ops) == 4


def test_arithmetic_on_computed_values_is_free():
    counter = EvalCounter()
    values = CountingAlgebra(counter, include_derivative=False)
    a = values.apply(CATALOG["sin"], [0.3])
    b = values.apply(CATALOG["cos"], [0.3])
    assert counter.count == 2
    sweep = CountingAlgebra(counter, include_derivative=True)
    s = sweep.apply(ADD, [a, b])
    p = sweep.apply(MUL, [a, b])
    assert counter.count == 2
    assert s == a + b
    assert p == a * b


def test_value_only_costs_one():
    counter = EvalCounter()
    CountingAlgebra(counter, include_derivative=False).apply(CATALOG["sin"], [0.3])
    assert counter.count == 1


def test_counted_variant_ticks_on_direct_calls():
    counter = EvalCounter()
    fn = counted_variant(CATALOG["sin"], counter)
    fn.value([0.2])
    fn.value([0.4])
    fn.partials([0.2])
    assert counter.count == 3
    assert fn.name == "sin"
