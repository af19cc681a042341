"""adkit's benchmark.

    python3 perfbench/run.py --workload fo-reuse --seed 1 --trace 0
    python3 perfbench/run.py --workload all          # every workload in turn

Runs one workload (see BENCHMARK.json) in its own process for --seconds
(default: run_seconds in BENCHMARK.json), checks every operation's result,
and prints each metric by name with its unit, then one JSON line:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 they are the per-layer ones from a
traced run.  Set-up time is measured in SETUP_RUNS separate processes
before the measuring one, and the median reported.

Times are reported scaled to a nominal host speed (see calib.py): each
operation's time and each set-up's is multiplied by the nominal time of a
reference run over the measured time of the reference runs either side of
it.  The measured times are printed beside the scaled ones.

Exits 0 when every check passed, 1 when any failed (the result line is still
printed), and 2 without a result when the checkout has no adkit sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import calib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
SETUP_RUNS = 7
WORKLOADS = ("fo-reuse", "fresh-programs", "higher-order", "cli")
TIMEOUT = 170  # seconds for any one process


def spawn(args: list[str]) -> tuple[float, dict]:
    """Start a worker; return its start time and its JSON result line."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, WORKER, ROOT, *args], stdout=subprocess.PIPE,
                          text=True, timeout=TIMEOUT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return start, json.loads(lines[-1])


def setup_seconds(start: float, result: dict) -> float:
    """Process start to first timed operation, less input generation."""
    return result["t_ready"] - start - result["gen_s"]


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest-ranked sample with at least ten samples beyond it, and
    its percentile."""
    ordered = sorted(latencies)
    k = max(0, len(ordered) - 11)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def throughput(latencies: list[float], block: int) -> float:
    """Operations per second: the median over consecutive blocks of `block`
    operations, each holding the same mix, so that a slow spell of the host
    moves only the blocks it falls in."""
    rates = [block / sum(latencies[k:k + block])
             for k in range(0, len(latencies) - block + 1, block)]
    return statistics.median(rates) if rates else len(latencies) / sum(latencies)


def scaled(result: dict) -> list[float]:
    return [t * s for t, s in zip(result["latencies"], result["scales"])]


def measure_setup(args: list[str]) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_RUNS processes that only set up, measured and
    scaled by a reference process run before and after each."""
    gauge = calib.fresh_process()
    gauge.tick()
    measured = []
    for _ in range(SETUP_RUNS):
        measured.append(setup_seconds(*spawn(args + ["setup-only"])))
        gauge.tick()
    return measured, [t * gauge.scale(k) for k, t in enumerate(measured)]


def end_to_end(setups: list[float], result: dict) -> dict:
    lat = scaled(result)
    value, _ = tail(lat)
    attempted = result["attempted"]
    return {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": throughput(lat, result["block"]),
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_tail_ms": 1e3 * value,
        "peak_rss_mb": result["peak_rss_mb"],
        "success_ratio": (attempted - result["failed"]) / attempted,
    }


def run_workload(name: str, seed: int, seconds: int, trace: bool, spec: dict) -> dict:
    args = [name, str(seed), str(seconds), "1" if trace else "0"]
    # set-up is an end-to-end metric only; a traced run skips the extra processes
    setup_measured, setups = measure_setup(args) if not trace else ([], [])
    _, result = spawn(args)
    values = result["per_layer"] if trace else end_to_end(setups, result)
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    fail_ratio = result["failed"] / result["attempted"]
    print(f"{name} seed {seed}: {result['attempted']} operations, {result['failed']} failed "
          f"(fail_ratio {fail_ratio:.6g}), {result['problems']} other check failures")
    for key, metric in metrics.items():
        print(f"  {key:34s} {metric['value']:.6g} {metric['unit']}")
    if not trace:
        _, pct = tail(result["latencies"])
        print(f"  latency_tail_ms is p{pct:.2f} of {len(result['latencies'])} samples; "
              f"setup_s is the median of {len(setups)} processes")
        print(f"  measured, before scaling: setup_s {statistics.median(setup_measured):.6g} s, "
              f"latency_p50_ms {1e3 * statistics.median(result['latencies']):.6g} ms, "
              f"reference {result['reference_ms']:.6g} ms "
              f"(nominal {calib.PROCESS_MS if name == 'cli' else calib.KERNEL_MS} ms)")
    print(f"  programs: {json.dumps(result['stats'])}")
    return {"correct": result["failed"] == 0 and result["problems"] == 0,
            "attempted": result["attempted"], "failed": result["failed"], "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "adkit", "__init__.py")):
        print(f"no adkit sources under {ROOT}/src; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    os.makedirs(os.path.join(ROOT, "perfbench", "out"), exist_ok=True)

    seconds = args.seconds or spec["run_seconds"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: run_workload(name, args.seed, seconds, bool(args.trace), spec)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{key}": metric for name, r in results.items()
                             for key, metric in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
