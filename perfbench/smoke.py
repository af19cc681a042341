"""Smoke check of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload for one second, untraced and traced, and checks that the
last line of output is the result object with every metric BENCHMARK.json
lists.  Then runs the benchmark from a copy holding only BENCHMARK.json and
perfbench/, where it must exit non-zero without printing a result.
Output files go under perfbench/out/.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fo-reuse", "fresh-programs", "higher-order", "cli")


def run(root: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, timeout=180)


def check_result(proc, workload: str, trace: int, spec: dict) -> list[str]:
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(result)}")
    if not result["correct"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} attempted={result['attempted']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != wanted:
        problems.append(f"{where}: metrics {got} != {wanted}")
    return problems


def check_without_sources() -> list[str]:
    bare = os.path.join(HERE, "out", "bare-checkout")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = run(bare, "fo-reuse", 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"without sources: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            problems += check_result(run(ROOT, workload, trace), workload, trace, spec)
            print(f"{workload} --trace {trace}: done", flush=True)
    problems += check_without_sources()
    for problem in problems:
        print(problem)
    print("smoke check", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
