"""Command-line surface: modes, exit codes, JSON/CSV reports."""

import contextlib
import errno
import io
import json
import math
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from adkit import cli
from adkit.cli import main
from adkit.catalog import RealAlgebra
from adkit.dual import Dual, DualAlgebra
from adkit.engine import SeedSpec, backprop, forward_directional, jacobian, record
from adkit.expr import eval_generic, parse, unparse
from adkit.towers import TowerAlgebra, tower_take, tower_var

from conftest import perfbench_module, random_program
from test_expr import assert_valid_dot

DUAL_EXAMPLE = "f(x1,x2)=x2*cos(x1*x1+3)"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text: str):
    def reject(token):
        raise AssertionError(f"{token} is not JSON")

    return json.loads(text, parse_constant=reject)


def test_diff_forward_example(capsys):
    code, out, err = run(
        capsys,
        ["diff", DUAL_EXAMPLE, "--at", "5,2", "--mode", "forward", "--dir", "1,0"],
    )
    assert code == 0 and err == ""
    tangent = float(out.strip().split("\n")[1].split("[")[1].rstrip("]"))
    assert math.isclose(tangent, -20.0 * math.sin(28.0), rel_tol=1e-13)


def test_diff_forward_zero_direction(capsys):
    code, out, _ = run(
        capsys,
        ["diff", DUAL_EXAMPLE, "--at", "5,2", "--mode", "forward", "--dir", "0,0"],
    )
    assert code == 0
    assert "tangent: [0.0]" in out


def test_diff_reverse_example(capsys):
    code, out, _ = run(
        capsys,
        [
            "diff",
            "f(x)=(x, exp(x)*sin(x))",
            "--at",
            "5",
            "--mode",
            "reverse",
            "--cov",
            "1,1",
        ],
    )
    assert code == 0
    gradient = float(out.strip().split("\n")[1].split("[")[1].rstrip("]"))
    want = 1.0 + math.exp(5.0) * (math.sin(5.0) + math.cos(5.0))
    assert math.isclose(gradient, want, rel_tol=1e-13)


def test_json_report_round_trips_bit_for_bit(capsys):
    source = "f(x1,x2)=x2*cos(x1*x1+3)"
    code, out, _ = run(
        capsys,
        ["diff", source, "--at", "5,2", "--mode", "forward", "--dir", "1,0", "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "forward"
    assert report["point"] == [5.0, 2.0]
    value, tangent = forward_directional(
        parse(source), SeedSpec.forward([5.0, 2.0], [1.0, 0.0])
    )
    assert report["value"] == value
    assert report["derivative"] == [tangent]
    # shortest round-trip printing: re-serialising is byte-identical
    assert json.dumps(report) == out.strip()


def test_json_reverse_matches_library(capsys):
    source = "f(x)=(x, exp(x)*sin(x))"
    code, out, _ = run(
        capsys,
        ["diff", source, "--at", "5", "--mode", "reverse", "--cov", "1,1", "--json"],
    )
    assert code == 0
    report = json.loads(out)
    tape = record(parse(source), [5.0])
    assert report["derivative"] == [backprop(tape, [1.0, 1.0])]


def test_jacobian_mode_matches_library(capsys):
    source = "f(x1,x2)=(exp(x1)*sin(x1+x2), x2)"
    code, out, _ = run(
        capsys, ["diff", source, "--at", "0.4,-1.2", "--mode", "jacobian", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    assert report["derivative"] == jacobian(parse(source), [0.4, -1.2])


def test_jet_mode(capsys):
    code, out, _ = run(
        capsys,
        ["diff", "f(x)=exp(x)", "--at", "0", "--mode", "jet", "--order", "3", "--json"],
    )
    assert code == 0
    report = json.loads(out)
    rows = {tuple(r["multi_index"]): r["value"] for r in report["derivative"]}
    for k in range(4):
        assert math.isclose(rows[(k,)], 1.0, rel_tol=1e-12)

    # bit-for-bit with the library jet evaluation
    from adkit.expr import eval_generic
    from adkit.jets import BERZ, JetAlgebra, jet_shape, jet_variable

    shape = jet_shape(1, 3)
    lib = eval_generic(
        parse("f(x)=exp(x)"),
        [jet_variable(shape, 1, 0.0, BERZ)],
        JetAlgebra(shape, BERZ),
    )[0]
    assert [rows[k] for k in shape.monomials] == lib.coeffs


def test_tower_mode(capsys):
    code, out, _ = run(
        capsys,
        ["diff", "f(x)=sin(x)", "--at", "0", "--mode", "tower", "--order", "3", "--json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["derivative"] == [[0.0, 1.0, 0.0, -1.0]]


@pytest.mark.parametrize(
    "source, at",
    [("f(x)=x", "1e400"), ("f(x)=x", "nan"), ("f(x)=x*x", "1e200")],
    ids=["inf-point", "nan-point", "overflowing-value"],
)
def test_json_writes_non_finite_numbers_as_text_mode_does(capsys, source, at):
    argv = ["diff", source, "--at", at, "--mode", "forward", "--dir", "1"]
    code, text, _ = run(capsys, argv)
    assert code == 0
    code, out, err = run(capsys, argv + ["--json"])
    assert (code, err) == (0, "")
    report = strict_json(out)
    strings = [v for v in report["point"] + report["value"] if isinstance(v, str)]
    assert strings and set(strings) <= {"inf", "-inf", "nan"}
    assert all(not math.isfinite(float(v)) for v in strings)
    lines = dict(line.split(": ", 1) for line in text.strip().split("\n"))
    assert lines["value"] == "[" + ", ".join(map(str, report["value"])) + "]"
    assert lines["tangent"] == "[" + ", ".join(map(str, report["derivative"][0])) + "]"


def test_exit_code_parse_error(capsys):
    code, out, err = run(capsys, ["diff", "f(x) = x +", "--at", "1"])
    assert code == 1 and out == "" and "parse error" in err


def test_exit_code_domain_error(capsys):
    code, _, err = run(
        capsys, ["diff", "f(x)=ln(x)", "--at", "-1", "--mode", "forward", "--dir", "1"]
    )
    assert code == 2 and "domain error" in err


@pytest.mark.parametrize("name", ["sin", "cos", "tan"])
@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "forward", "--dir", "1"],
        ["--mode", "reverse", "--cov", "1"],
        ["--mode", "jet", "--order", "3"],
        ["--mode", "tower", "--order", "3"],
        None,  # the dense trace, through graph --annotate
    ],
    ids=["forward", "reverse", "jet", "tower", "trace"],
)
def test_trigonometric_functions_at_infinity_are_domain_errors(capsys, name, argv):
    source = f"f(x)={name}(x)"
    for at in ("inf", "-inf"):
        if argv is None:
            command = ["graph", source, "--annotate", f"at={at},dir=1"]
        else:
            command = ["diff", source, "--at", at, *argv]
        code, out, err = run(capsys, command)
        assert (code, out) == (2, "")
        assert err == f"adkit: domain error: {name} undefined on ({float(at)},) (at out0)\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["--mode", "forward", "--dir", "1"],
        ["--mode", "reverse", "--cov", "1"],
        ["--mode", "jacobian"],
        ["--mode", "jet", "--order", "3"],
        ["--mode", "tower", "--order", "3"],
        None,  # the dense trace, through graph --annotate
    ],
    ids=["forward", "reverse", "jacobian", "jet", "tower", "trace"],
)
def test_exp_past_the_float_range_is_a_domain_error(capsys, argv):
    last = "709.782712893384"  # the largest argument whose exp is finite
    for at, code in ((last, 0), (repr(math.nextafter(float(last), math.inf)), 2), ("1000", 2)):
        if argv is None:
            command = ["graph", "f(x)=exp(x)", "--annotate", f"at={at},dir=1"]
        else:
            command = ["diff", "f(x)=exp(x)", "--at", at, *argv]
        got = run(capsys, command)
        if code == 0:
            assert got[0] == 0 and got[2] == ""
        else:
            assert got == (2, "", f"adkit: domain error: exp undefined on ({float(at)},) (at out0)\n")


def test_reverse_domain_error_names_its_location(capsys):
    source = "f(x)=sqrt(x)*2"
    forward = run(capsys, ["diff", source, "--at", "-1", "--mode", "forward", "--dir", "1"])
    reverse = run(capsys, ["diff", source, "--at", "-1", "--mode", "reverse", "--cov", "1"])
    assert forward == reverse == (2, "", "adkit: domain error: sqrt undefined on (-1.0,) (at out0.0)\n")


def test_exponent_past_the_ceiling_is_a_parse_error(capsys):
    for exponent in ("9" * 5000, "10000000", "1001"):
        code, out, err = run(capsys, ["diff", f"f(x)=x^{exponent}", "--at", "1", "--mode",
                                      "forward", "--dir", "1"])
        assert (code, out) == (1, "")
        assert err == "adkit: parse error: exponent exceeds the ceiling 1000 (line 1, column 8)\n"
    code, out, _ = run(capsys, ["diff", "f(x)=x^1000", "--at", "1", "--mode", "forward",
                                "--dir", "1"])
    assert (code, out) == (0, "value: [1.0]\ntangent: [1000.0]\n")


def test_exit_code_flag_misuse(capsys):
    cases = [
        ["diff", "f(x)=x", "--at", "1", "--mode", "sideways"],
        ["diff", "f(x)=x", "--at", "1", "--mode", "forward"],  # missing --dir
        ["diff", "f(x)=x", "--at", "1,2", "--mode", "forward", "--dir", "1"],
        ["diff", "f(x)=x", "--at", "one", "--mode", "forward", "--dir", "1"],
        ["diff", "f(x)=x", "--at", "1", "--mode", "tower"],  # missing --order
        ["diff", "f(x1,x2)=x1+x2", "--at", "1,2", "--mode", "tower", "--order", "2"],
        ["diff", "f(x)=(x, x + 1)", "--at", "1", "--mode", "jet", "--order", "2"],
        ["bench", "--scenario", "spiral", "--max-n", "3"],
        ["bench", "--scenario", "chain"],
    ]
    for argv in cases:
        code, _, err = run(capsys, argv)
        assert code == 3, argv
        assert err != ""


def test_graph_output_is_valid_dot(capsys):
    code, out, _ = run(capsys, ["graph", "f(x1,x2)=(exp(x1)*sin(x1+x2), x2)"])
    assert code == 0
    nodes, edges = assert_valid_dot(out)
    assert nodes == 7

    code, out, _ = run(capsys, ["graph", "f(x)=x"])
    assert code == 0
    nodes, _ = assert_valid_dot(out)
    assert nodes == 1


def test_graph_annotated_matches_trace(capsys):
    from adkit.trace import compile_program, forward_derivative_trace

    source = "f(x1,x2)=(exp(x1)*sin(x1+x2), x2)"
    code, out, _ = run(capsys, ["graph", source, "--annotate", "at=1,1,dir=1,0"])
    assert code == 0
    assert_valid_dot(out)
    assert 'FONT COLOR="blue"' in out and 'FONT COLOR="red"' in out
    # every state-slot value and tangent from the dense trace is on a node
    program = compile_program(parse(source))
    rec = forward_derivative_trace(program, [1.0, 1.0], [1.0, 0.0])
    for value, tangent in zip(rec.states[-1], rec.derivative_states[-1]):
        assert f'<FONT COLOR="blue">{value!r}</FONT>' in out
        assert f'<FONT COLOR="red">{tangent!r}</FONT>' in out


def test_graph_annotates_a_quotient_whose_divisor_square_underflows():
    # y*y underflows to 0 at y = 1e-200; the quotient's partial is -(x/y)/y.
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "adkit.cli", "graph", "f(x,y)=x/y", "--annotate", "at=1,1e-200,dir=0,1"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert_valid_dot(proc.stdout)
    assert '<FONT COLOR="red">-inf</FONT>' in proc.stdout


@pytest.mark.parametrize(
    "source, annotation, output",
    [
        ("f(x,y)=x+y", "at=1,1,dir=1e308,1e308", ("2.0", "inf")),  # the row sum overflows
        ("f(x,y)=x/y", "at=1,1e-200,dir=1e200,1", ("1e+200", "nan")),  # a row holds inf and -inf
        ("f(x,y)=x/y", "at=1,1e-200,dir=1,0", ("1e+200", "nan")),  # a product is 0 * inf
    ],
    ids=["overflow", "inf-minus-inf", "zero-times-inf"],
)
def test_graph_annotates_non_finite_row_sums(source, annotation, output):
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "adkit.cli", "graph", source, "--annotate", annotation],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert_valid_dot(proc.stdout)
    value, tangent = output  # the output node's labels, as text mode prints them
    assert f'<FONT COLOR="blue">{value}</FONT>' in proc.stdout
    assert f'<FONT COLOR="red">{tangent}</FONT>' in proc.stdout


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
JET8 = ["diff", "f(a,b,c,d)=exp(a*b)/(1+c^2)+sin(d*a)", "--at", "1,2,3,4",
        "--mode", "jet", "--order", "8"]
FORWARD_SIN = ["diff", "f(x)=sin(x)", "--at", "1", "--mode", "forward", "--dir", "1"]


def run_process(argv, stdout, unbuffered):
    """`python -m adkit.cli argv` writing its stdout to `stdout`, unbuffered
    (each write fails at once) or block-buffered (a flush fails)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-m", "adkit.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, text=True, env=env, timeout=120)


BUFFERING = pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])


@BUFFERING
@pytest.mark.parametrize("argv", [FORWARD_SIN, JET8, ["--help"], ["diff", "--help"]],
                         ids=["forward", "jet-order-8", "help", "diff-help"])
def test_a_closed_pipe_on_stdout_exits_4(argv, unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child starts: every write fails
    try:
        proc = run_process(argv, write_end, unbuffered)
    finally:
        os.close(write_end)
    # nothing after the message: the closing flush goes to os.devnull
    assert (proc.returncode, proc.stderr) == (
        4, f"adkit: cannot write output: {os.strerror(errno.EPIPE)}\n")


@BUFFERING
@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_full_device_on_stdout_exits_4(unbuffered):
    for argv in (FORWARD_SIN, ["--help"], ["diff", "--help"]):
        with open("/dev/full", "w") as full:
            proc = run_process(argv, full, unbuffered)
        assert (proc.returncode, proc.stderr) == (
            4, f"adkit: cannot write output: {os.strerror(errno.ENOSPC)}\n"), argv


class FailingStdout(io.StringIO):
    """A stdout whose write or flush raises `error`; it has no descriptor."""

    def __init__(self, error: OSError, on: str):
        super().__init__()
        self.error, self.on = error, on

    def write(self, text):
        if self.on == "write":
            raise self.error
        return super().write(text)

    def flush(self):
        if self.on == "flush":
            raise self.error


@pytest.mark.parametrize("on", ["write", "flush"])
@pytest.mark.parametrize("error", [BrokenPipeError(errno.EPIPE, "Broken pipe"),
                                   OSError(errno.ENOSPC, "No space left on device")],
                         ids=["broken-pipe", "no-space"])
@pytest.mark.parametrize("argv", [FORWARD_SIN, ["graph", "f(x)=sin(x)"],
                                  ["bench", "--scenario", "chain", "--max-n", "2"]],
                         ids=["diff", "graph", "bench"])
def test_a_failed_write_to_stdout_exits_4_in_process(monkeypatch, capsys, argv, error, on):
    monkeypatch.setattr(sys, "stdout", FailingStdout(error, on))
    code = main(argv)
    assert (code, capsys.readouterr().err) == (
        cli.EXIT_OUTPUT, f"adkit: cannot write output: {error.strerror}\n")


def test_every_layer_the_cli_probe_wraps_is_called_through_the_cli_module(
    monkeypatch, capsys, tmp_path
):
    # perfbench/cli_probe.py times the traced `cli` workload by replacing
    # these names on adkit.cli, and names eval_generic's span by algebra.
    perfbench_module("spans")
    probe = perfbench_module("cli_probe")
    calls = dict.fromkeys([*probe.LAYERS, "eval_generic"], 0)
    algebras = set()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if name == "eval_generic":
                algebras.add(type(args[2]).__name__)
            return fn(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    commands = [
        FORWARD_SIN,
        ["diff", "f(x)=(x, sin(x))", "--at", "1", "--mode", "reverse", "--cov", "1,1"],
        ["diff", "f(x,y)=(x*y, x/y)", "--at", "1,2", "--mode", "jacobian"],
        ["diff", "f(x,y)=x*exp(y)", "--at", "1,2", "--mode", "jet", "--order", "2"],
        ["diff", "f(x)=exp(sin(x))", "--at", "0.5", "--mode", "tower", "--order", "4"],
        ["graph", "f(x)=sin(x)", "--annotate", "at=1,dir=1"],
        ["bench", "--scenario", "chain", "--max-n", "2", "--csv", str(tmp_path / "c.csv")],
    ]
    assert [main(argv) for argv in commands] == [0] * len(commands)
    capsys.readouterr()
    assert [name for name, count in calls.items() if count == 0] == []
    assert set(probe.EVAL_SPANS) == {"JetAlgebra", "TowerAlgebra"} <= algebras


def test_bench_table_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "counts.csv"
    code, out, _ = run(
        capsys,
        ["bench", "--scenario", "chain", "--max-n", "5", "--csv", str(csv_path)],
    )
    assert code == 0
    rows = [line.split() for line in out.strip().split("\n")[2:]]
    assert [int(r[1]) for r in rows] == [1, 3, 6, 10, 15]
    assert [int(r[2]) for r in rows] == [2, 4, 6, 8, 10]

    text = csv_path.read_text().strip().split("\n")
    assert text[0] == "n,symbolic,ad,closed_form_symbolic,closed_form_ad"
    assert text[1] == "1,1,2,1,2"
    assert text[5] == "5,15,10,15,10"


def test_bench_csv_path_that_cannot_be_written_is_flag_misuse(tmp_path, capsys):
    for path in (tmp_path / "missing" / "x.csv", tmp_path):  # no such directory; a directory
        code, out, err = run(
            capsys, ["bench", "--scenario", "chain", "--max-n", "3", "--csv", str(path)])
        assert (code, out) == (3, "")
        assert err.startswith("adkit: --csv: cannot write") and repr(str(path)) in err
    assert list(tmp_path.iterdir()) == []


def test_bench_max_n_ceiling(capsys, monkeypatch):
    code, out, _ = run(capsys, ["bench", "--scenario", "shared", "--max-n", "200", "--json"])
    assert code == 0
    rows = json.loads(out)["counts"]["rows"]
    assert (len(rows), rows[-1]["n"], rows[-1]["ad"]) == (200, 200, 402)

    def no_work(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(cli, "cost_compare", no_work)
    for max_n in ("201", "100000", "0"):
        code, out, err = run(capsys, ["bench", "--scenario", "product", "--max-n", max_n])
        assert (code, out, err) == (3, "", "adkit: --max-n must be in 1..200\n")


def test_bench_product_small(capsys):
    code, out, _ = run(capsys, ["bench", "--scenario", "product", "--max-n", "3"])
    assert code == 0
    rows = [line.split() for line in out.strip().split("\n")[2:]]
    assert [int(r[1]) for r in rows] == [1, 4, 9]
    assert [int(r[2]) for r in rows] == [2, 4, 6]


def test_bench_json(capsys):
    code, out, _ = run(
        capsys, ["bench", "--scenario", "shared", "--max-n", "4", "--json"]
    )
    assert code == 0
    report = json.loads(out)
    rows = report["counts"]["rows"]
    assert [r["ad"] for r in rows] == [4, 6, 8, 10]
    assert [r["symbolic"] for r in rows] == [3, 5, 7, 9]
    assert [r["symbolic_unfactored"] for r in rows] == [3, 6, 9, 12]


@pytest.mark.parametrize(
    "argv",
    [
        ["diff", "f(x,y)=x*y", "--at", "-0.5,1", "--mode", "forward", "--dir", "1,0"],
        ["diff", "f(x,y)=x*y", "--at", "0.5,1", "--mode", "forward", "--dir", "-1,0"],
        ["diff", "f(x)=(x, x*x)", "--at", "3", "--mode", "reverse", "--cov", "-1,0.5"],
    ],
    ids=["at", "dir", "cov"],
)
def test_vector_flags_take_negative_values(capsys, argv):
    joined = argv[:2] + [
        f"{flag}={value}" for flag, value in zip(argv[2::2], argv[3::2])
    ]
    code, out, err = run(capsys, argv)
    assert (code, err) == (0, "")
    assert run(capsys, joined) == (0, out, "")


@pytest.mark.parametrize("bad", ["1,,2", "1,2,", ",1,0"])
@pytest.mark.parametrize(
    "argv",
    [
        ["diff", "f(x,y)=x*y", "--at", "{}", "--mode", "forward", "--dir", "1,0"],
        ["diff", "f(x,y)=x*y", "--at", "1,2", "--mode", "forward", "--dir", "{}"],
        ["diff", "f(x)=(x, x*x)", "--at", "3", "--mode", "reverse", "--cov", "{}"],
        ["graph", "f(x,y)=x*y", "--annotate", "at={},dir=1,0"],
        ["graph", "f(x,y)=x*y", "--annotate", "at=1,2,dir={}"],
    ],
    ids=["at", "dir", "cov", "annotate-at", "annotate-dir"],
)
def test_vector_with_an_empty_component_is_refused(capsys, argv, bad):
    argv = [arg.format(bad) for arg in argv]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert err.startswith("adkit: ") and repr(bad) in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--mode", "jet", "--order", "0"], "--order in 1..12"),
        (["--mode", "jet", "--order", "13"], "--order in 1..12"),
        (["--mode", "tower", "--order", "-1"], "--order >= 0"),
        (["--mode", "tower", "--order", "1021"], "and <= 1020"),
    ],
    ids=["jet-0", "jet-13", "tower-minus-1", "tower-1021"],
)
def test_out_of_range_order_is_flag_misuse(capsys, argv, message):
    code, out, err = run(capsys, ["diff", "f(x)=exp(x)", "--at", "1", *argv])
    assert (code, out) == (3, "")
    assert err.startswith("adkit: ") and message in err


def test_annotating_too_large_a_program_is_flag_misuse(capsys):
    source = "f(x) = " + " + ".join(["x"] * 600)  # 1 input + 599 steps
    code, out, err = run(capsys, ["graph", source, "--annotate", "at=1,dir=1"])
    assert (code, out) == (3, "")
    assert err == "adkit: --annotate: state dimension 600 exceeds 512\n"


def test_tower_mode_forces_deep_programs(capsys):
    # Forcing fills entries degree by degree in loops, so neither the width
    # nor the depth of a program limits it.
    n = 10**4
    let_chain = "".join(
        f"let v{i} = sin({'x' if i == 0 else f'v{i - 1}'}) in " for i in range(n)
    ) + f"v{n - 1}"
    programs = {
        "sum": " + ".join(["sin(x)"] * n),
        "nested": "sin(" * n + "x" + ")" * n,
        "let": let_chain,
    }
    for name, body in programs.items():
        source = f"f(x) = {body}"
        fdef = parse(source)
        entries = tower_take(eval_generic(fdef, [tower_var(0.3)], TowerAlgebra())[0], 9)
        assert entries[0] == eval_generic(fdef, [0.3], RealAlgebra())[0], name
        assert entries[1] == eval_generic(fdef, [Dual(0.3, 1.0)], DualAlgebra())[0].tangent
        assert all(math.isfinite(e) for e in entries), name
        argv = ["diff", source, "--at", "0.3", "--mode", "tower", "--order", "8", "--json"]
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, ""), name
        assert json.loads(out)["derivative"] == [entries], name

    # x^1000 lifts a chain of 1000 powers, each built when first forced
    fdef = parse("f(x) = x^1000")
    entries = tower_take(eval_generic(fdef, [tower_var(1.0001)], TowerAlgebra())[0], 9)
    for k, got in enumerate(entries):
        want = math.perm(1000, k) * 1.0001 ** (1000 - k)
        assert math.isclose(got, want, rel_tol=1e-12), k


def test_exp_higher_derivatives_overflow_before_the_true_values(capsys):
    # A documented limit: a lift forms r * binom(d, r) * u_r * g_(d-r) before
    # it divides by d, so exp's higher derivatives overflow near the top of
    # the float range although each equals the finite value exp(x).
    for at, finite in (("709", 3), ("709.782712893384", 2)):
        value = math.exp(float(at))
        for mode in ("tower", "jet"):
            argv = ["diff", "f(x)=exp(x)", "--at", at, "--mode", mode, "--order", "3", "--json"]
            code, out, err = run(capsys, argv)
            assert (code, err) == (0, ""), (at, mode)
            derivative = strict_json(out)["derivative"]
            got = derivative[0] if mode == "tower" else [row["value"] for row in derivative]
            assert got == [value] * finite + ["inf"] * (4 - finite), (at, mode)


#: Points and seeds at the edges of the float range, and exp's last finite
#: integer argument.
EDGES = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan, 709.0)


def _vector_text(values) -> str:
    return ",".join(map(repr, values))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cli_ends_every_generated_call_in_a_typed_exit(data):
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    fdef, safe = random_program(rng, max_vars=data.draw(st.sampled_from((1, 3))),
                                max_outputs=data.draw(st.sampled_from((1, 2))), max_ops=12)
    source = unparse(fdef)
    edge = st.sampled_from(EDGES)
    point = [data.draw(st.just(c) | edge) for c in safe]
    direction = data.draw(st.lists(edge | st.just(1.0), min_size=fdef.n, max_size=fdef.n))
    command = data.draw(st.sampled_from(
        ("forward", "reverse", "jacobian", "jet", "tower", "graph", "annotate")))
    as_json = command not in ("graph", "annotate") and data.draw(st.booleans())
    if command == "graph":
        argv = ["graph", source]
    elif command == "annotate":
        argv = ["graph", source, "--annotate",
                f"at={_vector_text(point)},dir={_vector_text(direction)}"]
    else:
        argv = ["diff", source, "--at", _vector_text(point), "--mode", command]
        if command == "forward":
            argv += ["--dir", _vector_text(direction)]
        elif command == "reverse":
            covector = data.draw(st.lists(edge | st.just(1.0), min_size=fdef.m, max_size=fdef.m))
            argv += ["--cov", _vector_text(covector)]
        elif command == "jet":
            argv += ["--order", str(data.draw(st.integers(1, 3)))]
        elif command == "tower":
            argv += ["--order", str(data.draw(st.integers(0, 8)))]
        if as_json:
            argv.append("--json")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    if code != 0:
        assert out == "" and err.startswith("adkit: "), argv
    elif as_json:
        strict_json(out)
    elif command in ("graph", "annotate"):
        assert_valid_dot(out)
