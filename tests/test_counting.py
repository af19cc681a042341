"""The exact-count cost model."""

from adkit.catalog import ADD, CATALOG, MUL
from adkit.counting import CountingAlgebra, EvalCounter, counted_variant
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


def test_generated_partials_evaluate_the_function_value_once(monkeypatch):
    # the partials of exp, sqrt and tan read the value (f in their rows); tan
    # reads it twice, as 1 + f * f, and must still call math.tan once
    for name, partial in (("exp", lambda f: f), ("sqrt", lambda f: 0.5 / f),
                          ("tan", lambda f: 1.0 + f * f)):
        fn = CATALOG[name]
        real, calls = fn.partials.__globals__[name], []
        monkeypatch.setitem(fn.partials.__globals__, name, lambda x: calls.append(x) or real(x))
        assert fn.partials([0.5]) == [partial(real(0.5))]
        assert calls == [0.5], name
