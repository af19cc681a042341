"""Command-line interface.

    adkit diff  "f(x1,x2)=x2*cos(x1*x1+3)" --at 5,2 --mode forward --dir 1,0
    adkit graph "f(x1,x2)=(exp(x1)*sin(x1+x2), x2)" --annotate at=1,1,dir=1,0
    adkit bench --scenario chain --max-n 10 --csv counts.csv

Exit codes: 0 success, 1 expression parse error, 2 domain error, 3 flag
misuse, 4 the output (help text included) could not be written (a closed
pipe, a full disk).  Diagnostics go to stderr; all numbers print with their
shortest round-trip decimal representation.

A command loads only the modules it runs: jets, towers, the dense trace and
`csv` are imported in the branches that use them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .catalog import DomainError
from .counting import SCENARIOS, cost_compare
from .engine import SeedSpec, backprop, forward_directional, jacobian, record
from .expr import ParseError, eval_generic, parse, to_dot

EXIT_OK = 0
EXIT_PARSE = 1
EXIT_DOMAIN = 2
EXIT_FLAGS = 3
EXIT_OUTPUT = 4

#: The largest `bench --max-n`.  The table re-runs every size from 1, and
#: the product scenario's counts take cubic time: 1 s to n = 200, 12 s to 400.
MAX_BENCH_N = 200


class FlagError(Exception):
    pass


# The layer functions of modules that only some commands load, imported on
# first call.  `main` reaches every layer function through a name of this
# module, so a caller can wrap it there.
def tower_take(a, k: int) -> list[float]:
    from .towers import tower_take
    return tower_take(a, k)


def compile_program(fdef):
    from .trace import compile_program
    return compile_program(fdef)


def forward_derivative_trace(program, point, direction):
    from .trace import forward_derivative_trace
    return forward_derivative_trace(program, point, direction)


class _ArgumentParser(argparse.ArgumentParser):
    # argparse exits with status 2 by default; route everything through
    # FlagError so flag misuse maps to exit code 3.
    def error(self, message):
        raise FlagError(message)

    # argparse drops a failed write of its help, then exits before `main`
    # flushes stdout: write and flush here, so that a failure ends in exit 4.
    def _print_message(self, message, file=None):
        file.write(message)
        file.flush()


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
    diff.add_argument("--mode", choices=_MODES, default="forward")
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


def _print_json(report: dict) -> None:
    """Strict JSON: a non-finite number goes out as the text that text mode
    prints for it ("inf", "-inf", "nan"), which float() reads back."""
    loose = json.dumps(report)  # writes them as Infinity, -Infinity and NaN
    strict = json.loads(loose, parse_constant=lambda token: repr(float(token)))
    print(json.dumps(strict, allow_nan=False))


def _seed(text: Optional[str], flag: str, mode: str, size: int) -> list[float]:
    """The seed vector `flag`, which `--mode mode` requires, of `size` values."""
    if text is None:
        raise FlagError(f"--mode {mode} requires {flag}")
    seed = _vector(text, flag)
    if len(seed) != size:
        raise FlagError(f"{flag} must supply {size} value(s)")
    return seed


#: The `diff` flags that only some modes read, by their argparse destination.
_MODE_FLAGS = {"--dir": "direction", "--cov": "covector", "--order": "order"}


def _refuse_unread(args, *reads: str) -> None:
    """Refuse a flag of `_MODE_FLAGS` that was given but that the mode does
    not read: every flag it does read is in `reads`."""
    for flag, dest in _MODE_FLAGS.items():
        if flag not in reads and getattr(args, dest) is not None:
            raise FlagError(f"--mode {args.mode} does not take {flag}")


# Each `diff` mode checks its own flags, then refuses those it does not
# read, runs its layers and returns (seed, value, derivative, the lines text
# mode prints after the value).
def _forward(args, fdef, point):
    direction = _seed(args.direction, "--dir", "forward", fdef.n)
    _refuse_unread(args, "--dir")
    value, tangent = forward_directional(fdef, SeedSpec.forward(point, direction))
    return direction, value, [tangent], [f"tangent: {_fmt_vector(tangent)}"]


def _reverse(args, fdef, point):
    covector = _seed(args.covector, "--cov", "reverse", fdef.m)
    _refuse_unread(args, "--cov")
    tape = record(fdef, point)
    gradient = backprop(tape, covector)
    value = [tape.values[r] for r in tape.output_refs]
    return covector, value, [gradient], [f"gradient: {_fmt_vector(gradient)}"]


def _jet(args, fdef, point):
    from .jets import BERZ, MAX_ORDER, JetAlgebra, jet_shape, jet_variable

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
    _refuse_unread(args, "--order")
    inputs = [jet_variable(shape, i + 1, c, BERZ) for i, c in enumerate(point)]
    coeffs = eval_generic(fdef, inputs, JetAlgebra(shape, BERZ))[0].coeffs
    terms = list(zip(shape.monomials, coeffs))
    partials = [{"multi_index": list(k), "value": c} for k, c in terms]
    lines = [f"d[{','.join(map(str, k))}]: {c!r}" for k, c in terms]
    return [], coeffs[:1], partials, lines


def _tower(args, fdef, point):
    from .towers import MAX_TOWER_ORDER, TowerAlgebra, tower_var

    if args.order is None:
        raise FlagError("--mode tower requires --order")
    if fdef.n != 1 or fdef.m != 1:
        raise FlagError("--mode tower supports univariate single-output functions")
    if not 0 <= args.order <= MAX_TOWER_ORDER:
        raise FlagError(f"--mode tower requires --order >= 0 and <= {MAX_TOWER_ORDER}")
    _refuse_unread(args, "--order")
    out = eval_generic(fdef, [tower_var(point[0])], TowerAlgebra())[0]
    entries = tower_take(out, args.order + 1)
    return [], entries[:1], [entries], [f"derivatives 0..{args.order}: {_fmt_vector(entries)}"]


def _jacobian(args, fdef, point):
    _refuse_unread(args)
    tape = record(fdef, point)  # the tape `jacobian` sweeps at this point
    matrix = jacobian(fdef, point, mode="forward")
    value = [tape.values[r] for r in tape.output_refs]
    return [], value, matrix, [f"jacobian row: {_fmt_vector(row)}" for row in matrix]


#: The `diff` modes, in the order `--help` lists them.
_MODES = {"forward": _forward, "reverse": _reverse, "jet": _jet, "tower": _tower,
          "jacobian": _jacobian}


def _cmd_diff(args) -> int:
    fdef = parse(args.expression)
    point = _vector(args.at, "--at")
    if len(point) != fdef.n:
        raise FlagError(f"--at must supply {fdef.n} value(s), got {len(point)}")
    seed, value, derivative, lines = _MODES[args.mode](args, fdef, point)
    if args.json:
        _print_json(_report(args.expression, args.mode, point, seed, value, derivative))
    else:
        print(f"value: {_fmt_vector(value)}", *lines, sep="\n")
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
        record(fdef, point)  # a domain error names its node, as `diff` does
        rec = forward_derivative_trace(program, point, direction)
        values = rec.states[-1]
        tangents = rec.derivative_states[-1]
        annotations = list(zip(values, tangents))
    sys.stdout.write(to_dot(fdef, annotations))
    return EXIT_OK


#: The bench columns: the CSV header and each JSON row's leading keys.
_BENCH_COLUMNS = ("n", "symbolic", "ad", "closed_form_symbolic", "closed_form_ad")


def _cmd_bench(args) -> int:
    if not 1 <= args.max_n <= MAX_BENCH_N:
        raise FlagError(f"--max-n must be in 1..{MAX_BENCH_N}")
    reports = [cost_compare(args.scenario, n) for n in range(1, args.max_n + 1)]
    rows = [[getattr(r, column) for column in _BENCH_COLUMNS] for r in reports]
    if args.csv_path:
        # written before any output, so a path that cannot be written ends
        # as flag misuse with nothing printed
        import csv

        try:
            with open(args.csv_path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(_BENCH_COLUMNS)
                writer.writerows(rows)
        except OSError as err:
            raise FlagError(f"--csv: cannot write {args.csv_path!r}: {err.strerror or err}")
    if args.json:
        keyed = [{**dict(zip(_BENCH_COLUMNS, row)), **r.details} for row, r in zip(rows, reports)]
        counts = {"scenario": args.scenario, "rows": keyed}
        _print_json(_report(args.scenario, "bench", [], [], [], [], counts))
    else:
        print(f"scenario: {args.scenario}")
        print(f"{'n':>4} {'symbolic':>10} {'ad':>8} {'closed sym':>11} {'closed ad':>10}")
        for n, symbolic, ad, cs, ca in rows:
            print(f"{n:>4} {symbolic:>10} {ad:>8} {cs:>11} {ca:>10}")
    return EXIT_OK


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = parser.parse_args(_attach_vector_values(argv))
        command = {"diff": _cmd_diff, "graph": _cmd_graph}.get(args.command, _cmd_bench)
        code = command(args)
        sys.stdout.flush()
        return code
    except FlagError as err:
        print(f"adkit: {err}", file=sys.stderr)
        return EXIT_FLAGS
    except ParseError as err:
        print(f"adkit: parse error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except DomainError as err:
        print(f"adkit: domain error: {err}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as err:  # writing stdout: a CSV that fails is a FlagError
        return _output_failed(err)


def _output_failed(err: OSError) -> int:
    """Report a failed write to stdout on stderr, if stderr still takes it,
    and point stdout's descriptor at os.devnull, so that the interpreter's
    closing flush of what stdout still holds cannot fail again."""
    try:
        print(f"adkit: cannot write output: {err.strerror or err}", file=sys.stderr)
    except OSError:
        pass
    try:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except (OSError, ValueError):  # a stdout without a descriptor of its own
        pass
    return EXIT_OUTPUT


if __name__ == "__main__":
    sys.exit(main())
