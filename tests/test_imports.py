"""The package's import surface: numpy is loaded only by the dense trace
oracle, and `adkit` exports exactly a written list of names.

Each numpy case runs in a fresh interpreter, since this test process may
already have imported numpy.
"""

import ast
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Every name `adkit/__init__.py` imports, sorted.  A new export edits this.
EXPORTS = """
Apply BERZ CATALOG Constant CostReport CountingAlgebra
DomainError Dual DualAlgebra ElementaryFn EvalCounter Expr FunctionDef Jet
JetAlgebra JetShape ParseError RealAlgebra STANDARD SeedSpec StateProgram
Tape Tower TowerAlgebra TraceRecord UnsupportedOrderError Variable backprop
compile_program const_fn cost_compare counted_variant
eval_generic forward_derivative forward_derivative_trace forward_directional
forward_trace jacobian jet_constant jet_convert_basis jet_extract_partial
jet_shape jet_variable parse pow_fn record reverse_derivative
reverse_derivative_trace reverse_gradient schedule to_dot tower_const
tower_df tower_take tower_var unparse
""".split()

#: Run in the child: optionally block numpy, run the body, then report the
#: body's result and whether numpy got loaded on the last line of stderr.
CHILD = """
import sys
if {blocked}:
    sys.modules["numpy"] = None  # any `import numpy` now raises ImportError
{body}
sys.stderr.write(f"\\n{{result!r}} {{sys.modules.get('numpy') is not None}}\\n")
"""


def run_child(body: str, blocked: bool = False) -> tuple[str, bool]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD.format(blocked=blocked, body=body)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result, loaded = proc.stderr.rstrip("\n").rsplit("\n", 1)[-1].rsplit(" ", 1)
    return result, loaded == "True"


def run_cli(argv: list[str], blocked: bool = False) -> tuple[int, bool]:
    body = f"from adkit.cli import main\nresult = main({argv!r})"
    result, loaded = run_child(body, blocked)
    return int(result), loaded


NON_TRACE = {
    "forward": ["diff", "f(x,y)=x*exp(y)", "--at", "1,2", "--mode", "forward", "--dir", "1,0"],
    "reverse": ["diff", "f(x)=(x, sin(x))", "--at", "1", "--mode", "reverse", "--cov", "1,1"],
    "jet": ["diff", "f(x,y)=x*exp(y)", "--at", "1,2", "--mode", "jet", "--order", "3"],
    "tower": ["diff", "f(x)=exp(sin(x))", "--at", "0.5", "--mode", "tower", "--order", "4"],
    "jacobian": ["diff", "f(x,y)=(x*y, x/y)", "--at", "1,2", "--mode", "jacobian", "--json"],
    "graph": ["graph", "f(x,y)=(exp(x)*sin(x+y), y)"],
    "bench": ["bench", "--scenario", "chain", "--max-n", "5", "--json"],
}


def test_importing_adkit_does_not_load_numpy():
    assert run_child("import adkit, adkit.cli\nresult = 0") == ("0", False)


@pytest.mark.parametrize("blocked", [False, True], ids=["numpy", "numpy-blocked"])
@pytest.mark.parametrize("argv", NON_TRACE.values(), ids=NON_TRACE.keys())
def test_commands_without_the_trace_do_not_load_numpy(argv, blocked):
    assert run_cli(argv, blocked) == (0, False)


def test_graph_annotate_loads_numpy():
    argv = ["graph", "f(x,y)=(exp(x)*sin(x+y), y)", "--annotate", "at=1,1,dir=1,0"]
    assert run_cli(argv) == (0, True)


def test_trace_forward_derivative_loads_numpy():
    body = (
        "from adkit.trace import compile_program, forward_derivative\n"
        "from adkit.expr import parse\n"
        "result = forward_derivative(compile_program(parse('f(x)=x*x')), [3.0], [1.0])"
    )
    assert run_child(body) == ("[6.0]", True)


def test_annotate_size_check_runs_before_numpy():
    source = "f(x) = " + " + ".join(["x"] * 600)
    assert run_cli(["graph", source, "--annotate", "at=1,dir=1"], blocked=True) == (3, False)


def test_exports_are_the_written_list():
    with open(os.path.join(SRC, "adkit", "__init__.py")) as handle:
        tree = ast.parse(handle.read())
    names = sorted(
        alias.asname or alias.name
        for node in tree.body if isinstance(node, ast.ImportFrom)
        for alias in node.names
    )
    assert EXPORTS == sorted(EXPORTS)
    assert names == EXPORTS
    assert len(names) == 56
