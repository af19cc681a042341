"""Command-line interface.

    adkit diff  "f(x1,x2)=x2*cos(x1*x1+3)" --at 5,2 --mode forward --dir 1,0
    adkit graph "f(x1,x2)=(exp(x1)*sin(x1+x2), x2)" --annotate at=1,1,dir=1,0
    adkit bench --scenario chain --max-n 10 --csv counts.csv

Exit codes: 0 success, 1 expression parse error, 2 domain error, 3 flag
misuse.  Diagnostics go to stderr; all numbers print with their shortest
round-trip decimal representation.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from typing import Optional, Sequence

from .algebras import JetAlgebra, TowerAlgebra
from .catalog import DomainError
from .engine import SCENARIOS, SeedSpec, cost_compare, forward_directional, jacobian, record, backprop
from .expr import ParseError, eval_generic, parse, to_dot
from .jets import BERZ, MAX_ORDER, jet_shape, jet_variable
from .towers import tower_take, tower_var
from .trace import compile_program, forward_derivative_trace

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_FLAGS = 3

MODES = ("forward", "reverse", "jet", "tower", "jacobian")


class FlagError(Exception):
    pass


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route everything through
    # FlagError so flag misuse maps to exit code 3.
    def error(self, message):
        raise FlagError(message)


#: Options whose value is a comma-separated vector.
_VECTOR_FLAGS = ("--at", "--dir", "--cov")


def _attach_vector_values(argv: list[str]) -> list[str]:
    """Rewrite ``--at -0.5,1`` as ``--at=-0.5,1``: argparse takes a separate
    value that starts with "-" and is not a plain number for an option."""
    out: list[str] = []
    for arg in argv:
        takes_value = out and out[-1] in _VECTOR_FLAGS
        if takes_value and arg.startswith("-") and not arg.startswith("--"):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def _vector(text: str, what: str) -> list[float]:
    try:
        # float("") raises too, so an empty component is refused.
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise FlagError(f"could not parse {what} {text!r} as comma-separated reals")


def _fmt_vector(values: Sequence[float]) -> str:
    return "[" + ", ".join(repr(float(v)) for v in values) + "]"


def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(prog="adkit", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    diff = sub.add_parser("diff", help="differentiate an expression at a point")
    diff.add_argument("expression")
    diff.add_argument("--at", required=True, help="evaluation point c1,...,cn")
    diff.add_argument("--mode", choices=MODES, default="forward")
    diff.add_argument("--dir", dest="direction", help="forward seed x'1,...,x'n")
    diff.add_argument("--cov", dest="covector", help="reverse seed y'1,...,y'm")
    diff.add_argument("--order", type=int, help="truncation/derivative order")
    diff.add_argument("--json", action="store_true", help="emit the JSON report")

    graph = sub.add_parser("graph", help="emit the computational graph as DOT")
    graph.add_argument("expression")
    graph.add_argument(
        "--annotate",
        help="at=c1,...,cn,dir=d1,...,dn: label nodes with values and tangents",
    )

    bench = sub.add_parser("bench", help="operation-count comparison table")
    bench.add_argument("--scenario", choices=SCENARIOS, required=True)
    bench.add_argument("--max-n", type=int, required=True)
    bench.add_argument("--csv", dest="csv_path", help="also write rows to this file")
    bench.add_argument("--json", action="store_true", help="emit the JSON report")
    return parser


def _report(fdef_source, mode, point, seed, value, derivative, counts=None) -> dict:
    report = {
        "function": fdef_source,
        "mode": mode,
        "point": list(point),
        "seed": list(seed),
        "value": list(value),
        "derivative": derivative,
    }
    if counts is not None:
        report["counts"] = counts
    return report


def _cmd_diff(args) -> int:
    fdef = parse(args.expression)
    point = _vector(args.at, "--at")
    if len(point) != fdef.n:
        raise FlagError(f"--at must supply {fdef.n} value(s), got {len(point)}")
    mode = args.mode

    if mode == "forward":
        if args.direction is None:
            raise FlagError("--mode forward requires --dir")
        direction = _vector(args.direction, "--dir")
        if len(direction) != fdef.n:
            raise FlagError(f"--dir must supply {fdef.n} value(s)")
        value, tangent = forward_directional(fdef, SeedSpec.forward(point, direction))
        report = _report(args.expression, mode, point, direction, value, [tangent])
        if not args.json:
            print(f"value: {_fmt_vector(value)}")
            print(f"tangent: {_fmt_vector(tangent)}")

    elif mode == "reverse":
        if args.covector is None:
            raise FlagError("--mode reverse requires --cov")
        covector = _vector(args.covector, "--cov")
        if len(covector) != fdef.m:
            raise FlagError(f"--cov must supply {fdef.m} value(s)")
        tape = record(fdef, point)
        gradient = backprop(tape, covector)
        value = [tape.values[r] for r in tape.output_refs]
        report = _report(args.expression, mode, point, covector, value, [gradient])
        if not args.json:
            print(f"value: {_fmt_vector(value)}")
            print(f"gradient: {_fmt_vector(gradient)}")

    elif mode == "jet":
        if args.order is None:
            raise FlagError("--mode jet requires --order")
        if fdef.m != 1:
            raise FlagError("--mode jet supports single-output functions")
        if not 1 <= args.order <= MAX_ORDER:
            raise FlagError(f"--mode jet requires --order in 1..{MAX_ORDER}")
        try:
            shape = jet_shape(fdef.n, args.order)
        except ValueError as err:  # too many coefficients
            raise FlagError(f"--mode jet: {err}")
        algebra = JetAlgebra(shape, BERZ)
        inputs = [
            jet_variable(shape, i + 1, point[i], BERZ) for i in range(fdef.n)
        ]
        out = eval_generic(fdef, inputs, algebra)[0]
        partials = [
            {"multi_index": list(k), "value": out.coeffs[pos]}
            for pos, k in enumerate(shape.monomials)
        ]
        value = [out.coeffs[0]]
        report = _report(args.expression, mode, point, [], value, partials)
        if not args.json:
            print(f"value: {_fmt_vector(value)}")
            for row in partials:
                k = ",".join(str(x) for x in row["multi_index"])
                print(f"d[{k}]: {row['value']!r}")

    elif mode == "tower":
        if args.order is None:
            raise FlagError("--mode tower requires --order")
        if fdef.n != 1 or fdef.m != 1:
            raise FlagError("--mode tower supports univariate single-output functions")
        if args.order < 0:
            raise FlagError("--mode tower requires --order >= 0")
        out = eval_generic(fdef, [tower_var(point[0])], TowerAlgebra())[0]
        entries = tower_take(out, args.order + 1)
        report = _report(args.expression, mode, point, [], [entries[0]], [entries])
        if not args.json:
            print(f"value: {_fmt_vector(entries[:1])}")
            print(f"derivatives 0..{args.order}: {_fmt_vector(entries)}")

    else:  # jacobian
        tape = record(fdef, point)  # the tape `jacobian` sweeps at this point
        matrix = jacobian(fdef, point, mode="forward")
        value = [tape.values[r] for r in tape.output_refs]
        report = _report(args.expression, mode, point, [], value, matrix)
        if not args.json:
            print(f"value: {_fmt_vector(value)}")
            for row in matrix:
                print(f"jacobian row: {_fmt_vector(row)}")

    if args.json:
        print(json.dumps(report))
    return EXIT_OK


def _parse_annotation(text: str) -> tuple[list[float], list[float]]:
    if not text.startswith("at=") or ",dir=" not in text:
        raise FlagError("--annotate expects at=c1,...,dir=d1,...")
    at_part, dir_part = text[len("at=") :].split(",dir=", 1)
    return _vector(at_part, "--annotate at"), _vector(dir_part, "--annotate dir")


def _cmd_graph(args) -> int:
    fdef = parse(args.expression)
    annotations = None
    if args.annotate:
        point, direction = _parse_annotation(args.annotate)
        if len(point) != fdef.n or len(direction) != fdef.n:
            raise FlagError(f"--annotate vectors must have length {fdef.n}")
        try:
            program = compile_program(fdef)
        except ValueError as err:  # too many state slots for dense matrices
            raise FlagError(f"--annotate: {err}")
        rec = forward_derivative_trace(program, point, direction)
        values = rec.states[-1]
        tangents = rec.derivative_states[-1]
        annotations = list(zip(values, tangents))
    sys.stdout.write(to_dot(fdef, annotations))
    return EXIT_OK


#: The bench columns: the CSV header and each JSON row's leading keys.
_BENCH_COLUMNS = ("n", "symbolic", "ad", "closed_form_symbolic", "closed_form_ad")


def _cmd_bench(args) -> int:
    if args.max_n < 1:
        raise FlagError("--max-n must be >= 1")
    reports = [cost_compare(args.scenario, n) for n in range(1, args.max_n + 1)]
    rows = [[getattr(r, column) for column in _BENCH_COLUMNS] for r in reports]
    if args.json:
        keyed = [{**dict(zip(_BENCH_COLUMNS, row)), **r.details} for row, r in zip(rows, reports)]
        counts = {"scenario": args.scenario, "rows": keyed}
        print(json.dumps(_report(args.scenario, "bench", [], [], [], [], counts)))
    else:
        print(f"scenario: {args.scenario}")
        print(f"{'n':>4} {'symbolic':>10} {'ad':>8} {'closed sym':>11} {'closed ad':>10}")
        for n, symbolic, ad, cs, ca in rows:
            print(f"{n:>4} {symbolic:>10} {ad:>8} {cs:>11} {ca:>10}")
    if args.csv_path:
        with open(args.csv_path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_BENCH_COLUMNS)
            writer.writerows(rows)
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = parser.parse_args(_attach_vector_values(argv))
        if args.command == "diff":
            return _cmd_diff(args)
        if args.command == "graph":
            return _cmd_graph(args)
        return _cmd_bench(args)
    except FlagError as err:
        print(f"adkit: {err}", file=sys.stderr)
        return EXIT_FLAGS
    except ParseError as err:
        print(f"adkit: parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as err:
        print(f"adkit: domain error: {err}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
