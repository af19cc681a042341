"""One workload in one single-threaded process.

Usage: python perfbench/worker.py <root> <workload> <seed> <seconds> <trace> [setup-only]

Builds the inputs, does the set-up, then runs a closed loop with one caller
for `seconds`: each operation starts when the previous one has returned and
been checked.  Prints one JSON line with the raw results for run.py.

An in-process operation is timed by the CPU clock of its thread: it runs on
that one thread, so the clock leaves out only the time the thread was not
running.  A `cli` operation and the set-up are timed by the wall clock,
because they span several threads (numpy starts its BLAS pool on import)
whose CPU times would add up where the threads overlap.  Right after each
operation a reference run (calib.py) is timed by the same clock; run.py
scales each operation's time by the references either side of it.

In a traced run every input is run twice, once traced and once not, in
alternating order; the per-layer numbers come from the traced runs and the
tracing overhead is the difference between the two medians.
"""

import gc
import hashlib
import json
import os
import resource
import statistics
import sys
from time import perf_counter, thread_time

import calib
import limits
import workloads
from cliload import Cli
from spans import Direct, Tracer

IN_PROCESS = {"fo-reuse": workloads.FoReuse, "fresh-programs": workloads.FreshPrograms,
              "higher-order": workloads.HigherOrder}
MAX_PROBLEMS = 10  # failures described on stderr; all are counted

# span name -> (per-operation metric, per-unit metric)
LAYER_METRICS = {
    "expr.parse": ("expr.parse.ms", "expr.parse.us_per_step"),
    "dual.sweep": ("dual.sweep.ms", "dual.sweep.us_per_step"),
    "engine.record": ("engine.record.ms", "engine.record.us_per_step"),
    "engine.backprop": ("engine.backprop.ms", "engine.backprop.us_per_entry"),
    "jets.eval": ("jets.eval.ms", "jets.eval.us_per_step_coeff"),
    "towers.build": ("towers.build.ms", None),
    "towers.force": ("towers.force.ms", "towers.force.us_per_entry"),
    "trace.compile": ("trace.compile.ms", None),
    "trace.forward": ("trace.forward.ms", None),
    "counting.cost_compare": ("counting.cost_compare.ms", None),
    "cli.interpreter": ("cli.interpreter_ms", None),
    "cli.import": ("cli.import_ms", None),
    "cli.main": ("cli.main_ms", None),
}


def source_digest(root: str) -> str:
    """A digest of the adkit sources and of the benchmark's own, so that
    results kept in `out/` are only ever compared between runs of the same
    code on the same inputs."""
    digest = hashlib.sha256()
    for top in (os.path.join(root, "src", "adkit"), os.path.join(root, "perfbench")):
        for dirpath, dirnames, files in os.walk(top):
            dirnames.sort()
            for name in sorted(f for f in files if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, root).encode() + b"\0")
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


class GcClock:
    """Collector pauses that fall inside timed operations."""

    def __init__(self) -> None:
        self.timing = False
        self.total = 0.0
        self._start = None

    def __call__(self, phase, info) -> None:
        if phase == "start":
            self._start = thread_time() if self.timing else None
        elif self._start is not None:
            self.total += thread_time() - self._start


def build(name: str, seed: int, root: str, out_dir: str):
    if name == "cli":
        return Cli(seed, root, out_dir)
    return IN_PROCESS[name](seed)


def exact_counts(wl) -> dict:
    total = dict.fromkeys(workloads.COUNT_KEYS, 0)
    for i in range(workloads.COUNT_PREFIX):
        for key, value in wl.counts(i).items():
            total[key] += value
    return total


def check_counts(wl, out_dir: str, digest: str) -> tuple[dict, list[str]]:
    """Counts over the fixed prefix, twice here and once against any earlier
    run of the same sources with this seed in this checkout; any difference
    is a failure.  A change to the sources may change the counts on purpose."""
    first, second = exact_counts(wl), exact_counts(wl)
    problems = [] if first == second else [f"counts differ within a run: {first} {second}"]
    path = os.path.join(out_dir, f"counts-{wl.name}-{wl.seed}-{digest}.json")
    if os.path.exists(path):
        with open(path) as handle:
            earlier = json.load(handle)
        if earlier != first:
            problems.append(f"counts differ from an earlier run with this seed: {earlier} {first}")
    else:
        with open(path, "w") as handle:
            json.dump(first, handle)
    return first, problems


def loop(wl, seconds: float, tracer, gc_clock, gauge):
    """The closed loop.  Returns untraced latencies with their host-speed
    scales, traced latencies, attempts, failures, the span roots of traced
    operations and of schedule probes, and work units per layer."""
    lat, scales, traced_lat = [], [], []
    attempted = failed = 0
    op_roots, probe_roots, work = set(), set(), {}
    clock = gauge.clock
    deadline = perf_counter() + seconds
    gauge.tick()
    i = 0
    while perf_counter() < deadline:
        inp = wl.make(i)
        paths = [Direct] if tracer is None else [Direct, tracer][:: 1 if i % 2 else -1]
        for tr in paths:
            root = tracer.open("op") if tr.traced else None
            gc_clock.timing = True
            t0 = clock()
            try:
                out, problems = wl.run(inp, tr), []
            except Exception as err:  # every failure is counted, none skipped
                out, problems = None, [f"{type(err).__name__}: {err}"]
            t1 = clock()
            gc_clock.timing = False
            if tr.traced:
                tracer.close(root)
                op_roots.add(root)
            gauge.tick()
            if tr.traced:
                traced_lat.append(t1 - t0)
            else:
                lat.append(t1 - t0)
                scales.append(gauge.scale(len(gauge.times) - 2))
            attempted += 1
            if not problems:
                try:
                    problems = wl.check(inp, out)
                except Exception as err:  # a check that cannot run is a failure
                    problems = [f"check raised {type(err).__name__}: {err}"]
            if problems:
                failed += 1
                if failed <= MAX_PROBLEMS:
                    print(f"{wl.name} op {i}: {'; '.join(problems)[:500]}", file=sys.stderr)
            elif tr.traced:
                fdef = wl.fdef(inp, out)
                steps = 0
                if fdef is not None:
                    probe = tracer.open("probe")
                    steps = len(tracer.call("expr.schedule", wl.ak.schedule, fdef))
                    tracer.close(probe)
                    probe_roots.add(probe)
                for key, units in wl.work(inp, out, steps).items():
                    work[key] = work.get(key, 0) + units
        i += 1
    return lat, scales, traced_lat, attempted, failed, op_roots, probe_roots, work


def layer_metrics(tracer, lat, traced_lat, op_roots, probe_roots, work, attempted, gc_clock):
    ops = len(traced_lat)
    own = tracer.totals(op_roots)
    out = {}
    for span, (per_op, per_unit) in LAYER_METRICS.items():
        seconds = own.get(span, 0.0)
        out[per_op] = 1e3 * seconds / ops
        if per_unit:
            out[per_unit] = 1e6 * seconds / work[span] if work.get(span) else 0.0
    out["expr.schedule.ms"] = 1e3 * tracer.totals(probe_roots).get("expr.schedule", 0.0) / ops
    out["cli.process_ms"] = 1e3 * sum(
        end - start for name, _, start, end in tracer.spans if name == "cli.process") / ops
    out["gc.pause_ms"] = 1e3 * gc_clock.total / attempted
    out["tracing.overhead_ms"] = 1e3 * (statistics.median(traced_lat) - statistics.median(lat))
    return out


def probe_limits(ak, out_dir: str, digest: str) -> dict:
    """limits.probe, which depends only on the sources: run once per
    version of them and kept in `out/`."""
    path = os.path.join(out_dir, f"limits-{digest}.json")
    if os.path.exists(path):
        with open(path) as handle:
            return json.load(handle)
    found = limits.probe(ak)
    with open(path, "w") as handle:
        json.dump(found, handle)
    return found


def main(argv: list[str]) -> int:
    root, name, seed, seconds, trace = argv[:5]
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    out_dir = os.path.join(root, "perfbench", "out")
    g0 = perf_counter()
    wl = build(name, seed, root, out_dir)
    gen_s = perf_counter() - g0

    sys.path.insert(0, os.path.join(root, "src"))
    wl.setup()
    t_ready = perf_counter()
    # the program under test must be this checkout's, never an installed copy
    source = os.path.dirname(os.path.dirname(os.path.abspath(wl.ak.__file__)))
    if source != os.path.join(root, "src"):
        print(f"adkit was imported from {source}, not from this checkout", file=sys.stderr)
        return 2
    result = {"t_ready": t_ready, "gen_s": gen_s}
    if argv[5:] == ["setup-only"]:
        print(json.dumps(result))
        return 0

    tracer = Tracer() if trace else None
    gc.collect()  # every run starts the loop with set-up garbage gone
    gc_clock = GcClock()
    gc.callbacks.append(gc_clock)
    gauge = calib.fresh_process() if name == "cli" else calib.in_process()
    lat, scales, traced_lat, attempted, failed, op_roots, probe_roots, work = loop(
        wl, seconds, tracer, gc_clock, gauge)
    gc.callbacks.remove(gc_clock)

    try:
        problems = wl.oracle()
    except Exception as err:  # the oracle check must not end the run silently
        problems = [f"oracle raised {type(err).__name__}: {err}"]
    digest = source_digest(root)
    counts, count_problems = check_counts(wl, out_dir, digest)
    problems += count_problems
    for problem in problems:
        print(f"{name}: {problem}", file=sys.stderr)

    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    result.update({
        "latencies": lat, "scales": scales, "reference_ms": gauge.median_ms(),
        "block": wl.BLOCK, "attempted": attempted, "failed": failed,
        "problems": len(problems), "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        "stats": wl.stats(),
    })
    if trace:
        layers = layer_metrics(tracer, lat, traced_lat, op_roots, probe_roots, work,
                               attempted, gc_clock)
        layers.update(counts)
        layers.update(probe_limits(wl.ak, out_dir, digest))
        result["per_layer"] = layers
        tracer.write(os.path.join(out_dir, f"spans-{name}-{seed}.jsonl"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
