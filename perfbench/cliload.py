"""The `cli` workload: one fresh interpreter per operation.

The untraced run starts `python -m adkit.cli` (the console script may not be
installed).  The traced run starts `cli_probe.py` instead, which times the
import and `main` and wraps the layer functions `adkit.cli` calls; the
benchmark stitches those spans under the operation's root.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter

import gen
from workloads import _evals, _op_rng, near

KINDS = ("forward-json", "forward-text", "reverse-json", "jet-json", "tower-json",
         "jacobian-json", "graph", "graph-annotate", "bench", "parse-error",
         "domain-error", "flag-misuse", "nonfinite-text")
EXPECTED_EXIT = {"parse-error": 1, "domain-error": 2, "flag-misuse": 3}
PROBE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_probe.py")
MARK = "PERFBENCH-SPANS "


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _flags(argv: list[str]) -> dict:
    """Options after the command and expression: --flag=value, --flag value,
    or a bare --json."""
    out: dict = {}
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--json":
            out[token] = True
        elif token.startswith("--"):
            key, eq, value = token.partition("=")
            out[key] = value if eq else next(tokens)
    return out


def _text_vectors(stdout: str) -> dict:
    """'name: [a, b]' lines of the text report, parsed back to floats."""
    out = {}
    for line in stdout.splitlines():
        key, _, rest = line.partition(": ")
        if rest.startswith("[") and rest.endswith("]"):
            out[key] = [float(v) for v in rest[1:-1].split(", ") if v]
    return out


class Cli:
    """Every `diff` mode, `graph` with and without `--annotate`, `bench`,
    and the error exits users hit, in a fixed rotation."""

    name = "cli"
    BLOCK = len(KINDS)  # operations per throughput block: one of each kind

    def __init__(self, seed: int, root: str, out_dir: str):
        self.seed = seed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [os.path.join(root, "src"), os.environ.get("PYTHONPATH")]))
        self.csv_path = os.path.join(out_dir, f"bench-{seed}.csv")

    def setup(self) -> None:
        import adkit as ak

        self.ak = ak
        warm = ["diff", "f(x)=x", "--at", "1", "--mode", "forward", "--dir", "1"]
        proc = subprocess.run([sys.executable, "-m", "adkit.cli", *warm],
                              capture_output=True, text=True, env=self.env, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"adkit.cli does not start: {proc.stderr.strip()}")

    def make(self, i: int):
        rng = _op_rng(self.seed, self.name, i)
        kind = KINDS[i % len(KINDS)]
        n = 1 if kind == "tower-json" else rng.randint(1, 3)
        m = 1 if kind in ("jet-json", "tower-json") else rng.randint(1, 3)
        p = gen.random_program(rng, n, m, rng.randint(5, 25))
        x = p.point(rng)
        # Vectors go in the --flag=value form: argparse takes a separate
        # "-0.5,1.0" for an unknown option and exits 3.
        argv = ["diff", p.source, f"--at={_csv(x)}"]
        if kind in ("forward-json", "forward-text"):
            argv += ["--mode", "forward", f"--dir={_csv(rng.uniform(-1, 1) for _ in range(n))}"]
        elif kind == "reverse-json":
            argv += ["--mode", "reverse", f"--cov={_csv(rng.uniform(-1, 1) for _ in range(m))}"]
        elif kind == "jet-json":
            argv += ["--mode", "jet", "--order", str(rng.randint(2, 4))]
        elif kind == "tower-json":
            argv += ["--mode", "tower", "--order", str(rng.randint(4, 8))]
        elif kind == "jacobian-json":
            argv += ["--mode", "jacobian"]
        elif kind == "graph":
            argv = ["graph", p.source]
        elif kind == "graph-annotate":
            direction = [rng.uniform(-1, 1) for _ in range(n)]
            argv = ["graph", p.source, f"--annotate=at={_csv(x)},dir={_csv(direction)}"]
        elif kind == "bench":
            argv = ["bench", "--scenario", rng.choice(("chain", "product", "shared")),
                    "--max-n", str(rng.randint(4, 12)), "--json", "--csv", self.csv_path]
        elif kind == "parse-error":
            cut = rng.randrange(len(p.source) // 2, len(p.source))
            argv[1] = p.source[:cut] + rng.choice((" *)", " + ,", " ^ x1", " $")) + p.source[cut:]
        elif kind == "domain-error":
            fn = rng.choice(("ln", "sqrt"))
            c = round(rng.uniform(1.5, 3.0), 3)
            argv = ["diff", f"f(x) = sin(x) * {fn}(x - {c})", f"--at={c - 1.0!r}",
                    "--mode", "forward", "--dir=1"]
        elif kind == "flag-misuse":
            argv = rng.choice((
                argv + ["--mode", "forward"],                        # no --dir
                ["diff", p.source, f"--at={_csv(x + [1.0])}", "--mode", "jacobian"],
                argv + ["--mode", "sideways"],
                ["bench", "--scenario", "chain", "--max-n", "0"],
            ))
        else:  # nonfinite-text: the value overflows to inf, the tangent stays finite
            argv = ["diff", "f(x) = x * x", f"--at={rng.uniform(1e200, 9e200)!r}",
                    "--mode", "forward", "--dir=1"]
        if kind.endswith("-json"):
            argv.append("--json")
        return kind, argv, x

    def run(self, inp, tr):
        argv = inp[1]
        command = [PROBE] if tr.traced else ["-m", "adkit.cli"]
        start = perf_counter()
        proc = subprocess.run([sys.executable, *command, *argv], capture_output=True,
                              text=True, env=self.env, timeout=120)
        end = perf_counter()
        if tr.traced:
            self._stitch(tr, proc, start, end)
        return proc

    def _stitch(self, tr, proc, start: float, end: float) -> None:
        """Hang the probe's spans under a cli.process span of this op."""
        root = tr.add("cli.process", start, end, tr.current())
        lines = proc.stderr.splitlines()
        if not lines or not lines[-1].startswith(MARK):
            return
        report = json.loads(lines[-1][len(MARK):])
        proc.stderr = "\n".join(lines[:-1]) + ("\n" if len(lines) > 1 else "")
        tr.add("cli.interpreter", start, report["t0"], root)
        parents = {-1: root}
        for k, (name, parent, s, e) in enumerate(report["spans"]):
            parents[k] = tr.add(name, s, e, parents[parent])

    def check(self, inp, proc) -> list[str]:
        kind, argv, _ = inp
        problems = []
        if proc.returncode not in (0, 1, 2, 3):
            problems.append(f"exit code {proc.returncode}")
        if "Traceback" in proc.stderr:
            problems.append("traceback on stderr: " + proc.stderr.strip().splitlines()[-1])
        want = EXPECTED_EXIT.get(kind, 0)
        if proc.returncode != want:
            problems.append(f"{kind}: exit {proc.returncode}, expected {want}")
        if problems:
            return problems
        if want:
            return [] if proc.stderr.startswith("adkit: ") else ["error without a diagnostic"]
        try:
            return self._check_output(kind, argv, proc.stdout)
        except ValueError as err:  # malformed JSON or numbers in the report
            return [f"{kind}: unreadable output: {err}"]

    def _check_output(self, kind, argv, stdout) -> list[str]:
        ak = self.ak
        if kind == "bench":
            return self._check_bench(argv, _strict_json(stdout))
        fdef = ak.parse(argv[1])
        if kind.startswith("graph"):
            annotations = None
            if kind == "graph-annotate":
                at, direction = _flags(argv)["--annotate"][3:].split(",dir=")
                point = [float(v) for v in at.split(",")]
                direction = [float(v) for v in direction.split(",")]
                rec = ak.forward_derivative_trace(ak.compile_program(fdef), point, direction)
                annotations = list(zip(rec.states[-1], rec.derivative_states[-1]))
                _, tangent = ak.forward_directional(fdef, ak.SeedSpec.forward(point, direction))
                dense = [rec.derivative_states[-1][r] for r in
                         ak.compile_program(fdef).output_slots]
                scale = max(abs(v) for v in dense + tangent)
                if not all(near(a, b, scale) for a, b in zip(dense, tangent)):
                    return ["dense trace disagrees with the dual tangent"]
            return [] if stdout == ak.to_dot(fdef, annotations) else ["DOT output differs"]
        flags = _flags(argv)
        point = [float(v) for v in flags["--at"].split(",")]
        mode = flags["--mode"]
        if mode == "forward":
            seed = [float(v) for v in flags["--dir"].split(",")]
            value, tangent = ak.forward_directional(fdef, ak.SeedSpec.forward(point, seed))
            derivative = [tangent]
        elif mode == "reverse":
            seed = [float(v) for v in flags["--cov"].split(",")]
            tape = ak.record(fdef, point)
            derivative = [ak.backprop(tape, seed)]
            value = [tape.entries[r - tape.n].primal for r in tape.output_refs]
        elif mode == "jet":
            seed = []
            shape = ak.jet_shape(fdef.n, int(flags["--order"]))
            seeds = [ak.jet_variable(shape, i + 1, c, ak.BERZ) for i, c in enumerate(point)]
            jet = ak.eval_generic(fdef, seeds, ak.JetAlgebra(shape, ak.BERZ))[0]
            value = [jet.coeffs[0]]
            derivative = [{"multi_index": list(k), "value": c}
                          for k, c in zip(shape.monomials, jet.coeffs)]
        elif mode == "tower":
            seed = []
            tower = ak.eval_generic(fdef, [ak.tower_var(point[0])], ak.TowerAlgebra())[0]
            entries = ak.tower_take(tower, int(flags["--order"]) + 1)
            value, derivative = [entries[0]], [entries]
        else:
            seed = []
            derivative = ak.jacobian(fdef, point, mode="forward")
            value = ak.eval_generic(fdef, point, ak.RealAlgebra())
        if kind.endswith("-json"):
            want = {"function": argv[1], "mode": mode, "point": point, "seed": seed,
                    "value": value, "derivative": derivative}
            return [] if _strict_json(stdout) == want else [f"{kind}: report differs"]
        got = _text_vectors(stdout)
        if got.get("value") != value or got.get("tangent") != derivative[0]:
            return [f"{kind}: printed values differ"]
        return []

    def _check_bench(self, argv, report) -> list[str]:
        flags = _flags(argv)
        scenario, max_n = flags["--scenario"], int(flags["--max-n"])
        rows = []
        for n in range(1, max_n + 1):
            r = self.ak.cost_compare(scenario, n)
            if (r.symbolic, r.ad) != (r.closed_form_symbolic, r.closed_form_ad):
                return [f"{scenario} n={n}: counts differ from the closed forms"]
            rows.append({"n": n, "symbolic": r.symbolic, "ad": r.ad,
                         "closed_form_symbolic": r.closed_form_symbolic,
                         "closed_form_ad": r.closed_form_ad, **r.details})
        if report["counts"] != {"scenario": scenario, "rows": rows}:
            return ["bench JSON differs from cost_compare"]
        with open(self.csv_path) as handle:
            lines = handle.read().splitlines()
        want = ["n,symbolic,ad,closed_form_symbolic,closed_form_ad"] + [
            f"{r['n']},{r['symbolic']},{r['ad']},{r['closed_form_symbolic']},{r['closed_form_ad']}"
            for r in rows]
        return [] if lines == want else ["bench CSV differs"]

    def fdef(self, inp, out):
        return None

    def work(self, inp, out, steps: int) -> dict:
        return {}

    def counts(self, i: int) -> dict:
        ak = self.ak
        kind, argv, point = self.make(i)
        if kind == "bench":
            flags = _flags(argv)
            return {"counting.evals": sum(
                r.symbolic + r.ad for r in (ak.cost_compare(flags["--scenario"], n)
                                            for n in range(1, int(flags["--max-n"]) + 1)))}
        if kind in EXPECTED_EXIT or kind == "nonfinite-text":
            return {}
        fdef = ak.parse(argv[1])
        return {"expr.steps": len(ak.schedule(fdef)), "counting.evals": _evals(ak, fdef, point)}

    def oracle(self) -> list[str]:
        # graph --annotate operations compare the dense trace with dual
        # tangents as part of their check
        return []

    def stats(self) -> dict:
        return {"kinds": list(KINDS)}
