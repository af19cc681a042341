"""Command-line surface: modes, exit codes, JSON/CSV reports."""

import json
import math

import pytest

from adkit.cli import main
from adkit.engine import SeedSpec, backprop, forward_directional, jacobian, record
from adkit.expr import parse

from test_expr import assert_valid_dot

DUAL_EXAMPLE = "f(x1,x2)=x2*cos(x1*x1+3)"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    from adkit.algebras import JetAlgebra
    from adkit.expr import eval_generic
    from adkit.jets import BERZ, jet_shape, jet_variable

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


def test_exit_code_parse_error(capsys):
    code, out, err = run(capsys, ["diff", "f(x) = x +", "--at", "1"])
    assert code == 1 and out == "" and "parse error" in err


def test_exit_code_domain_error(capsys):
    code, _, err = run(
        capsys, ["diff", "f(x)=ln(x)", "--at", "-1", "--mode", "forward", "--dir", "1"]
    )
    assert code == 2 and "domain error" in err


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
