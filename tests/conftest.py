"""Shared test helpers: a domain-safe random program generator, edge
points to run its programs at, structural comparison of expression DAGs,
and the benchmark's modules loaded by path."""

from __future__ import annotations

import math
import random
import sys
import types
from pathlib import Path

from adkit.catalog import ADD, CATALOG, DIV, MUL, NEG, SUB, pow_fn
from adkit.expr import Apply, Constant, Expr, FunctionDef, Variable

UNARY_FNS = [CATALOG[name] for name in ("exp", "ln", "sqrt", "sin", "cos", "tan")]
BINARY_FNS = [ADD, SUB, MUL, DIV]

#: Arguments at the edges of the catalogue's domains and of the float range:
#: signed zeros and subnormals, exp's domain bound (709.78...), overflowing
#: magnitudes, infinities, NaN, and points where ln and sqrt are undefined.
EDGE_POINTS = (0.0, -0.0, 5e-324, -5e-324, 1e-200, -1e-200, 709.0, 710.0,
               1e300, -1e300, math.inf, -math.inf, math.nan, -1.5, -0.5, 2.5)


def random_program(
    rng: random.Random,
    max_vars: int = 4,
    max_outputs: int = 3,
    max_ops: int = 25,
    value_cap: float = 1e5,
) -> tuple[FunctionDef, list[float]]:
    """A random catalogue composition plus a point where every intermediate
    stays comfortably inside its domain (margins ~0.2, values capped).

    The margins leave room for finite-difference probes at h = 1e-6.
    """
    n = rng.randint(1, max_vars)
    point = [rng.uniform(-2.0, 2.0) for _ in range(n)]
    pool: list[tuple[Expr, float]] = [
        (Variable(i + 1), point[i]) for i in range(n)
    ]
    for _ in range(rng.randint(0, 2)):
        c = rng.uniform(0.3, 3.0)
        pool.append((Constant(c), c))

    n_ops = rng.randint(1, max_ops)
    for _ in range(n_ops):
        for _attempt in range(50):
            roll = rng.random()
            if roll < 0.40:
                fn = rng.choice(UNARY_FNS)
                node, v = rng.choice(pool)
                if fn.name in ("ln", "sqrt") and v < 0.2:
                    continue
                if fn.name == "exp" and v > 6.0:
                    continue
                if fn.name == "tan" and (abs(math.cos(v)) < 0.3 or abs(v) > 20.0):
                    continue
                new_node = Apply(fn, (node,))
                new_value = fn.value([v])
            elif roll < 0.80:
                fn = rng.choice(BINARY_FNS)
                a, va = rng.choice(pool)
                b, vb = rng.choice(pool)
                if fn.name == "div" and (abs(vb) < 0.2 or a is b):
                    continue
                new_node = Apply(fn, (a, b))
                new_value = fn.value([va, vb])
            elif roll < 0.92:
                k = rng.randint(0, 4)
                node, v = rng.choice(pool)
                if abs(v) > 25.0:
                    continue
                fn = pow_fn(k)
                new_node = Apply(fn, (node,))
                new_value = fn.value([v])
            else:
                node, v = rng.choice(pool)
                new_node = Apply(NEG, (node,))
                new_value = -v
            if not math.isfinite(new_value) or abs(new_value) > value_cap:
                continue
            pool.append((new_node, new_value))
            break

    m = rng.randint(1, max_outputs)
    # bias outputs towards computed nodes but allow bare inputs/constants
    outputs = []
    for _ in range(m):
        if rng.random() < 0.85:
            outputs.append(rng.choice(pool[n:])[0] if len(pool) > n else pool[0][0])
        else:
            outputs.append(rng.choice(pool)[0])
    params = tuple(f"x{i + 1}" for i in range(n))
    return FunctionDef("f", params, tuple(outputs)), point


def structurally_equal(a: FunctionDef, b: FunctionDef) -> bool:
    """Same params and the same DAG shape: node kinds, function names,
    constants, and the sharing structure of operation nodes."""
    if a.params != b.params or a.m != b.m:
        return False
    pairs: dict[int, int] = {}

    def eq(x: Expr, y: Expr) -> bool:
        if type(x) is not type(y):
            return False
        if isinstance(x, Variable):
            return x.index == y.index
        if isinstance(x, Constant):
            return x.value == y.value
        if id(x) in pairs:
            return pairs[id(x)] == id(y)
        if id(y) in set(pairs.values()):
            return False
        pairs[id(x)] = id(y)
        if x.fn.name != y.fn.name or len(x.args) != len(y.args):
            return False
        return all(eq(xa, ya) for xa, ya in zip(x.args, y.args))

    return all(eq(xr, yr) for xr, yr in zip(a.outputs, b.outputs))


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name: str) -> types.ModuleType:
    """perfbench/<name>.py, loaded once by path under its own name, so that
    the benchmark's own imports (``import gen``) find it.  It is compiled
    from source in memory, so nothing is written under perfbench/."""
    if name not in sys.modules:
        path = PERFBENCH / f"{name}.py"
        module = sys.modules[name] = types.ModuleType(name)
        module.__file__ = str(path)
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return sys.modules[name]
