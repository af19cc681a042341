"""The package's import surface: no module loads numpy, every command and
the dense trace oracle run with it blocked, `adkit` exports exactly a
written list of names, each loaded on first use, and each command loads
only the modules it runs.

Each numpy case runs in a fresh interpreter, since this test process may
already have imported numpy.
"""

import ast
import importlib
import os
import subprocess
import sys

import pytest

import adkit

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Every name `adkit/__init__.py` exports, sorted.  A new export edits this.
EXPORTS = """
Apply BERZ CATALOG Constant CostReport CountingAlgebra
DomainError Dual DualAlgebra ElementaryFn EvalCounter Expr FunctionDef Jet
JetAlgebra JetShape ParseError RealAlgebra STANDARD SeedSpec StateProgram
Tape Tower TowerAlgebra TraceRecord UnsupportedOrderError Variable backprop
compile_program cost_compare counted_variant
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


ANNOTATE = ["graph", "f(x,y)=(exp(x)*sin(x+y), y)", "--annotate", "at=1,1,dir=1,0"]


def test_graph_annotate_runs_with_numpy_blocked():
    assert run_cli(ANNOTATE, blocked=True) == (0, False)


def test_trace_forward_derivative_runs_with_numpy_blocked():
    body = (
        "from adkit.trace import compile_program, forward_derivative\n"
        "from adkit.expr import parse\n"
        "result = forward_derivative(compile_program(parse('f(x)=x*x')), [3.0], [1.0])"
    )
    assert run_child(body, blocked=True) == ("[6.0]", False)


def test_annotate_size_check_exits_3():
    source = "f(x) = " + " + ".join(["x"] * 600)
    assert run_cli(["graph", source, "--annotate", "at=1,dir=1"], blocked=True) == (3, False)


def test_every_command_and_the_trace_run_with_numpy_blocked():
    body = f"""
from adkit.cli import main
from adkit.expr import parse
from adkit.trace import compile_program, forward_derivative, reverse_derivative
codes = [main(argv) for argv in {[*NON_TRACE.values(), ANNOTATE]!r}]
program = compile_program(parse("f(x,y)=(x*y, sin(x))"))
result = (codes, forward_derivative(program, [2.0, 3.0], [1.0, 0.0]),
          reverse_derivative(program, [2.0, 3.0], [1.0, 0.0]))
"""
    want = ([0] * 8, [3.0, -0.4161468365471424], [3.0, 2.0])  # cos(2) = -0.416...
    assert run_child(body, blocked=True) == (repr(want), False)


def test_no_module_imports_numpy():
    imported = []
    for name in sorted(os.listdir(os.path.join(SRC, "adkit"))):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(SRC, "adkit", name)) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported += [(name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.append((name, node.module))
    assert imported  # the scan sees the standard-library imports
    assert [(f, m) for f, m in imported if m.split(".")[0] == "numpy"] == []


def test_every_module_parses_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10.
    names = [name for name in os.listdir(os.path.join(SRC, "adkit")) if name.endswith(".py")]
    assert names
    for name in names:
        with open(os.path.join(SRC, "adkit", name)) as handle:
            ast.parse(handle.read(), name, feature_version=(3, 10))


def test_exports_are_the_written_list():
    assert EXPORTS == sorted(EXPORTS)
    assert sorted(adkit._HOME) == EXPORTS
    assert adkit.__all__ == EXPORTS
    assert len(EXPORTS) == 55


def test_lazy_exports_resolve_to_their_modules():
    for name in EXPORTS:
        module = importlib.import_module(f"adkit.{adkit._HOME[name]}")
        assert getattr(adkit, name) is getattr(module, name), name
        defined_in = getattr(getattr(module, name), "__module__", module.__name__)
        assert defined_in == module.__name__, name
    assert set(EXPORTS) <= set(dir(adkit))
    namespace: dict = {}
    exec("from adkit import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == EXPORTS
    with pytest.raises(AttributeError, match="no attribute 'jet_lift'"):
        adkit.jet_lift


def test_importing_adkit_loads_no_module_of_it():
    body = "import adkit, sys\nresult = sorted(m for m in sys.modules if m.startswith('adkit.'))"
    assert run_child(body) == ("[]", False)


#: Run in the child: each command's output is discarded, and the result is,
#: per command, its exit code and the modules loaded since the child started.
SURFACE = """
import contextlib, io, json
before = set(sys.modules)
from adkit.cli import main
result = []
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    result.append((code, sorted(set(sys.modules) - before)))
"""

#: Modules that no first-order command, graph or error exit loads.
HEAVY = {"adkit.dual", "adkit.jets", "adkit.kernels", "adkit.taylor", "adkit.towers",
         "adkit.trace", "dataclasses", "inspect", "csv"}


def surface(argvs: list[list[str]]) -> list[tuple[int, set[str]]]:
    result, _ = run_child(SURFACE.format(argvs=argvs))
    return [(code, set(loaded)) for code, loaded in ast.literal_eval(result)]


def test_each_command_loads_only_what_it_runs(tmp_path):
    light = [NON_TRACE["forward"], NON_TRACE["reverse"], NON_TRACE["jacobian"],
             NON_TRACE["graph"], ["diff", "f(x)=x+", "--at", "1"]]
    bench = ["bench", "--scenario", "chain", "--max-n", "3", "--csv", str(tmp_path / "c.csv")]
    runs = surface([*light, NON_TRACE["jet"], ANNOTATE, bench])
    assert [code for code, _ in runs] == [0, 0, 0, 0, 1, 0, 0, 0]
    for _, loaded in runs[:5]:
        assert "adkit.engine" in loaded and loaded & HEAVY == set()
    jet, annotate, bench = (loaded for _, loaded in runs[5:])
    assert {"adkit.jets", "adkit.taylor"} <= jet and jet & {"adkit.towers", "adkit.trace"} == set()
    assert "adkit.trace" in annotate and "csv" not in annotate
    assert "csv" in bench and bench & {"adkit.towers", "dataclasses", "inspect"} == set()
    [(code, tower)] = surface([NON_TRACE["tower"]])
    assert code == 0 and {"adkit.towers", "adkit.taylor"} <= tower
    assert tower & {"adkit.jets", "adkit.trace", "dataclasses", "inspect", "csv"} == set()
