"""Run `adkit.cli.main` the way `python -m adkit.cli` does, timing it.

Usage: python perfbench/cli_probe.py <adkit cli arguments>

Spans (see spans.py) for the import, for `main`, and for each call
`adkit.cli` makes into a layer function are printed as the last line of
stderr, prefixed with PERFBENCH-SPANS, as [name, parent, start, end] with
`time.perf_counter` times (parent -1 is the process itself).
"""

import json
import sys
from time import perf_counter

T0 = perf_counter()

from spans import Tracer  # this script's directory is on sys.path

TRACER = Tracer()

# The names adkit.cli imported from each layer, and the span each gets.
LAYERS = {
    "parse": "expr.parse", "to_dot": "expr.to_dot",
    "forward_directional": "dual.sweep", "jacobian": "dual.sweep",
    "record": "engine.record", "backprop": "engine.backprop",
    "tower_take": "towers.force",
    "compile_program": "trace.compile", "forward_derivative_trace": "trace.forward",
    "cost_compare": "counting.cost_compare",
}
# eval_generic serves three layers; its span is named after the algebra.
EVAL_SPANS = {"JetAlgebra": "jets.eval", "TowerAlgebra": "towers.build"}


def _span(name, fn):
    return lambda *args, **kwargs: TRACER.call(name, fn, *args, **kwargs)


def _eval_span(fn):
    def wrapper(fdef, inputs, algebra):
        name = EVAL_SPANS.get(type(algebra).__name__, "expr.eval")
        return TRACER.call(name, fn, fdef, inputs, algebra)

    return wrapper


def main() -> int:
    index = TRACER.open("cli.import")
    import adkit.cli as cli

    TRACER.close(index)
    for attr, name in LAYERS.items():
        setattr(cli, attr, _span(name, getattr(cli, attr)))
    cli.eval_generic = _eval_span(cli.eval_generic)
    code = TRACER.call("cli.main", cli.main, sys.argv[1:])
    sys.stdout.flush()
    sys.stderr.write("PERFBENCH-SPANS " + json.dumps({"t0": T0, "spans": TRACER.spans}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
