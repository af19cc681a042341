"""Known robustness limits, probed outside the timed loop of a traced run.

The timed workloads hold only operations that succeed today.  The shapes
and inputs below are the ones that do not: each should end in a result or a
typed error (exit 1-3), and today ends in a Python exception or invalid
JSON.  Their counts show when that changes.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import gen

CEILING = 2_000  # largest size searched for: twice the largest deep shape


def _differentiates(ak, p) -> bool:
    """Parse, one forward sweep and one reverse sweep, or False on any
    exception (RecursionError is the expected one)."""
    try:
        fdef = ak.parse(p.source)
        point = p.point(random.Random(0))
        ak.forward_directional(fdef, ak.SeedSpec.forward(point, [1.0] * p.n))
        ak.backprop(ak.record(fdef, point), [1.0])
    except Exception:  # every kind of failure is what is being measured
        return False
    return True


def _largest(ok) -> int:
    """The largest size in 1..CEILING for which ok(size) holds, assuming
    ok is monotone."""
    lo, hi = 0, CEILING
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if ok(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def _cases() -> list[list[str]]:
    rng = random.Random(0)
    big = gen.random_program(rng, 2, 1, 600)
    nested = gen.nested_chain(rng, 400).source
    wide_sum = gen.flat_fold(rng, 2, 1000, product=False).source
    wide_product = gen.flat_fold(rng, 2, 1000, product=True).source
    fwd = ["--mode", "forward", "--dir", "1"]
    return [
        ["diff", "f(x)=exp(x)", "--at", "1000", *fwd],                 # overflow
        ["diff", "f(x)=sin(x)", "--at", "inf", *fwd],                  # math domain
        ["diff", "f(x)=x", "--at", "1e400", *fwd, "--json"],           # Infinity
        ["diff", "f(x)=x", "--at", "nan", *fwd, "--json"],             # NaN
        ["diff", "f(x)=x*1e400", "--at", "1", "--mode", "reverse", "--cov", "1", "--json"],
        ["diff", "f(x)=x*x", "--at", "1e200", *fwd, "--json"],
        ["diff", "f(x)=exp(x)", "--at", "1", "--mode", "jet", "--order", "0"],
        ["diff", "f(x)=exp(x)", "--at", "1", "--mode", "jet", "--order", "13"],
        ["graph", big.source, "--annotate", "at=0.1,0.2,dir=1,0"],   # > 512 slots
        ["diff", nested, "--at", "0.3", *fwd],
        ["diff", wide_sum, "--at", "0.3,0.4", "--mode", "reverse", "--cov", "1"],
        ["diff", wide_product, "--at", "0.3,0.4", "--mode", "forward", "--dir", "1,0"],
    ]


def _untyped(cli, argv) -> bool:
    """True if the CLI ends in an exception, or exits 0 with --json output
    that strict JSON parsing rejects."""
    out = io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception:  # an escaping exception is exactly the defect counted
        return True
    if code == 0 and "--json" in argv:
        def reject(token):
            raise ValueError(token)

        try:
            json.loads(out.getvalue(), parse_constant=reject)
        except ValueError:
            return True
    return False


def probe(ak) -> dict:
    import adkit.cli as cli

    rng = random.Random(0)
    return {
        "limits.nested_depth": _largest(
            lambda d: _differentiates(ak, gen.nested_chain(rng, d))),
        "limits.flat_terms": _largest(
            lambda t: _differentiates(ak, gen.flat_fold(rng, 1, t, product=False))),
        "robustness.untyped_failures": sum(_untyped(cli, argv) for argv in _cases()),
    }
