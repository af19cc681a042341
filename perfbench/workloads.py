"""The four benchmark workloads.

Each workload builds its inputs from the seed alone (`__init__` and `make`),
does its one-time work in `setup`, and then runs operations one at a time:
`run` is the timed part, `check` verifies its result without being timed.
adkit is imported inside `setup`, so the import counts as set-up time and
input generation does not.

Every call into adkit inside `run` goes through `tr.call(name, fn, *args)`,
which records a span named after the layer when the run is traced.
"""

from __future__ import annotations

import math
import random

import gen

# Forward and reverse sweeps sum in different orders; results agree to a
# few ulps of the largest term involved.
TOL = 1e-9
COUNT_PREFIX = 24  # operations whose exact work counts are recorded

COUNT_KEYS = ("expr.steps", "engine.tape_entries", "jets.coeffs",
              "towers.entries", "counting.evals")


def near(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, scale)


def tower_tol(r: int) -> float:
    """Allowed |tower - jet| at order r, as a share of _natural_scale.

    Over 2160 tower operations (seeds 101-160) the worst differences were
    2.4e-7 at order 11 and 3.8e-6 at order 12.  Against a 60-digit Taylor
    reference the tower stayed within 3e-8 and the jet's Taylor-sum lift
    was off by up to 4e-4 of the entry, so this bound follows the jet's
    rounding, which grows about fivefold per order.
    """
    return 1e-11 * 5.0 ** r


def _natural_scale(sizes: list[float], r: int) -> float:
    """r! * max_k (|f^(k)| / k!)^(r/k) over k <= r: the size an order-r
    derivative has when nothing cancels, extrapolated from the growth of
    the lower ones (at least 1 and |f|).  Worked in logarithms, capped
    below overflow."""
    logs = [math.log(max(1.0, sizes[0]))]
    for k in range(1, r + 1):
        if sizes[k] > 0.0:
            logs.append(math.lgamma(r + 1)
                        + (r / k) * (math.log(sizes[k]) - math.lgamma(k + 1)))
    return math.exp(min(max(logs), 700.0))


def _basis(k: int, j: int) -> list[float]:
    e = [0.0] * k
    e[j] = 1.0
    return e


def _op_rng(seed: int, name: str, i: int) -> random.Random:
    return random.Random(f"{name}/{seed}/{i}")


def _evals(ak, fdef, point) -> int:
    """Elementary evaluations of one value-plus-derivative sweep."""
    counter = ak.EvalCounter()
    algebra = ak.CountingAlgebra(counter, include_derivative=True)
    ak.eval_generic(fdef, [algebra.constant(v) for v in point], algebra)
    return counter.count


STAT_KEYS = ("steps", "depth", "shared", "n", "m")


def _summary(rows: list[tuple]) -> dict:
    """[min, mean, max] of each program statistic."""
    out: dict = {"programs": len(rows)}
    for key, values in zip(STAT_KEYS, zip(*rows)):
        out[key] = [round(v, 3) for v in (min(values), sum(values) / len(values), max(values))]
    return out


def _dual_agrees(ak, fdef, point, direction, want) -> list[str]:
    """The dense trace oracle against a dual sweep, untimed."""
    program = ak.compile_program(fdef)
    dense = ak.forward_derivative(program, point, direction)
    scale = max(abs(v) for v in dense + want)
    if all(near(a, b, scale) for a, b in zip(dense, want)):
        return []
    return [f"dense trace {dense} != dual tangent {want}"]


class FoReuse:
    """Nine 300-step programs parsed once; each operation takes the full
    Jacobian at a fresh point both ways: n dual sweeps, and one record plus
    m backprops."""

    name = "fo-reuse"
    BLOCK = 144  # operations per throughput block: sixteen of each program
    SHAPES = ((1, 8), (8, 1), (2, 6), (6, 2), (3, 5), (5, 3), (4, 4), (7, 3), (3, 7))
    STEPS = 300

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"{self.name}/{seed}")
        self.programs = [gen.random_program(rng, n, m, self.STEPS) for n, m in self.SHAPES]

    def setup(self) -> None:
        import adkit as ak

        self.ak = ak
        self.fdefs = [ak.parse(p.source) for p in self.programs]
        for p, fdef in zip(self.programs, self.fdefs):
            center = [(lo + hi) / 2 for lo, hi in p.box]
            ak.forward_directional(fdef, ak.SeedSpec.forward(center, _basis(p.n, 0)))
            ak.backprop(ak.record(fdef, center), _basis(p.m, 0))

    def make(self, i: int):
        rng = _op_rng(self.seed, self.name, i)
        p = self.programs[i % len(self.programs)]
        point = p.point(rng)
        xdot = [rng.uniform(-1, 1) for _ in range(p.n)]
        ybar = [rng.uniform(-1, 1) for _ in range(p.m)]
        return i % len(self.programs), point, xdot, ybar

    def run(self, inp, tr):
        k, point, _, _ = inp
        ak, fdef = self.ak, self.fdefs[k]
        cols = []
        for j in range(fdef.n):
            value, tangent = tr.call("dual.sweep", ak.forward_directional, fdef,
                                     ak.SeedSpec.forward(point, _basis(fdef.n, j)))
            cols.append(tangent)
        tape = tr.call("engine.record", ak.record, fdef, point)
        rows = [tr.call("engine.backprop", ak.backprop, tape, _basis(fdef.m, i))
                for i in range(fdef.m)]
        return value, cols, tape, rows

    def check(self, inp, out) -> list[str]:
        k, point, xdot, ybar = inp
        value, cols, tape, rows = out
        ak, fdef = self.ak, self.fdefs[k]
        problems = []
        if value != self.programs[k].evaluate(point):
            problems.append("forward values differ from the reference evaluation")
        if [tape.entries[r - tape.n].primal for r in tape.output_refs] != value:
            problems.append("tape outputs differ from forward values")
        scale = max(abs(v) for row in rows for v in row)
        for i, row in enumerate(rows):
            for j, v in enumerate(row):
                if not near(v, cols[j][i], scale):
                    problems.append(f"J[{i}][{j}]: reverse {v!r} != forward {cols[j][i]!r}")
        _, ydot = ak.forward_directional(fdef, ak.SeedSpec.forward(point, xdot))
        xbar = ak.backprop(tape, ybar)
        problems += _duality(ybar, ydot, xbar, xdot)
        return problems

    def fdef(self, inp, out):
        return self.fdefs[inp[0]]

    def work(self, inp, out, steps: int) -> dict:
        fdef, tape = self.fdefs[inp[0]], out[2]
        return {"dual.sweep": fdef.n * steps, "engine.record": steps,
                "engine.backprop": fdef.m * len(tape.entries)}

    def counts(self, i: int) -> dict:
        ak = self.ak
        k, point, _, _ = self.make(i)
        fdef = self.fdefs[k]
        return {"expr.steps": len(ak.schedule(fdef)),
                "engine.tape_entries": len(ak.record(fdef, point).entries),
                "counting.evals": _evals(ak, fdef, point)}

    def oracle(self) -> list[str]:
        rng = random.Random(f"{self.name}/{self.seed}/oracle")
        k = rng.randrange(len(self.programs))
        p, fdef = self.programs[k], self.fdefs[k]
        point, direction = p.point(rng), _basis(p.n, rng.randrange(p.n))
        _, want = self.ak.forward_directional(fdef, self.ak.SeedSpec.forward(point, direction))
        return _dual_agrees(self.ak, fdef, point, direction, want)

    def stats(self) -> dict:
        return {f"program{k}": {"steps": p.steps, "depth": p.depth,
                                "shared": round(p.shared, 3), "n": p.n, "m": p.m}
                for k, p in enumerate(self.programs)}


def _duality(ybar, ydot, xbar, xdot) -> list[str]:
    """<ybar, J xdot> == <ybar J, xdot>."""
    lhs = [a * b for a, b in zip(ybar, ydot)]
    rhs = [a * b for a, b in zip(xbar, xdot)]
    scale = max(abs(v) for v in lhs + rhs)
    if near(math.fsum(lhs), math.fsum(rhs), scale):
        return []
    return [f"duality: {math.fsum(lhs)!r} != {math.fsum(rhs)!r}"]


class FreshPrograms:
    """A stream of distinct programs as text, 10-1000 steps log-uniform; each
    operation parses one and runs one forward sweep and one reverse
    gradient.  Every tenth is a deep shape written by hand."""

    name = "fresh-programs"
    BLOCK = 200  # operations per throughput block: twenty deep shapes

    def __init__(self, seed: int):
        self.seed = seed
        # a seeded offset into a low-discrepancy sequence: every run sees
        # the same spread of sizes, only the programs differ
        self.offset = random.Random(f"{self.name}/{seed}").random()
        self.seen: list = []

    def setup(self) -> None:
        import adkit as ak

        self.ak = ak

    def program(self, i: int, rng: random.Random):
        if i % 10 == 9:
            # Held below today's recursion ceilings (nested calls ~197 deep,
            # sums ~495 terms), which the traced run reports as limits.*.
            # Shapes rotate and sizes follow the same sequence as below, so
            # the largest operations, which set the tail, do not vary by seed.
            k = i // 10
            shape = ("nested", "sum", "product")[k % 3]
            u = (self.offset + k * gen.GOLDEN) % 1.0
            if shape == "nested":
                return gen.nested_chain(rng, 100 + round(80 * u))
            return gen.flat_fold(rng, rng.randint(1, 4), 200 + round(250 * u),
                                 product=shape == "product")
        u = (self.offset + i * gen.GOLDEN) % 1.0
        size = round(10 * 100 ** u)
        return gen.random_program(rng, rng.randint(1, 8), rng.randint(1, 8), size)

    def make(self, i: int):
        rng = _op_rng(self.seed, self.name, i)
        p = self.program(i, rng)
        point = p.point(rng)
        xdot = [rng.uniform(-1, 1) for _ in range(p.n)]
        ybar = [rng.uniform(-1, 1) for _ in range(p.m)]
        return p, point, xdot, ybar

    def run(self, inp, tr):
        p, point, xdot, ybar = inp
        ak = self.ak
        fdef = tr.call("expr.parse", ak.parse, p.source)
        value, ydot = tr.call("dual.sweep", ak.forward_directional, fdef,
                              ak.SeedSpec.forward(point, xdot))
        tape = tr.call("engine.record", ak.record, fdef, point)
        xbar = tr.call("engine.backprop", ak.backprop, tape, ybar)
        return fdef, value, ydot, tape, xbar

    def check(self, inp, out) -> list[str]:
        p, point, xdot, ybar = inp
        _, value, ydot, tape, xbar = out
        self.seen.append(tuple(getattr(p, key) for key in STAT_KEYS))
        problems = []
        if value != p.evaluate(point):
            problems.append("forward values differ from the reference evaluation")
        if [tape.entries[r - tape.n].primal for r in tape.output_refs] != value:
            problems.append("tape outputs differ from forward values")
        return problems + _duality(ybar, ydot, xbar, xdot)

    def fdef(self, inp, out):
        return out[0]

    def work(self, inp, out, steps: int) -> dict:
        return {"expr.parse": steps, "dual.sweep": steps, "engine.record": steps,
                "engine.backprop": len(out[3].entries)}

    def counts(self, i: int) -> dict:
        ak = self.ak
        p, point, _, _ = self.make(i)
        fdef = ak.parse(p.source)
        return {"expr.steps": len(ak.schedule(fdef)),
                "engine.tape_entries": len(ak.record(fdef, point).entries),
                "counting.evals": _evals(ak, fdef, point)}

    def oracle(self) -> list[str]:
        rng = random.Random(f"{self.name}/{self.seed}/oracle")
        p = gen.random_program(rng, rng.randint(1, 8), rng.randint(1, 8), 100)
        fdef = self.ak.parse(p.source)
        point = p.point(rng)
        direction = [rng.uniform(-1, 1) for _ in range(p.n)]
        _, want = self.ak.forward_directional(fdef, self.ak.SeedSpec.forward(point, direction))
        return _dual_agrees(self.ak, fdef, point, direction, want)

    def stats(self) -> dict:
        return _summary(self.seen) if self.seen else {}


def _divided_program(rng: random.Random, n: int, size: int):
    """A program that holds every division its size plans for.  A Berz jet
    division with n = 4, N = 5 costs about 200 multiplications, so a program
    that left its division out would make its seed's run far cheaper."""
    want = gen.planned("div", size)
    for _ in range(100):
        p = gen.random_program(rng, n, 1, size)
        if p.divisions == want:
            return p
    raise RuntimeError(f"no {size}-step program with {want} divisions in 100 draws")


class HigherOrder:
    """96 small programs (15-50 steps).  Operations alternate between a
    Berz-basis jet with all partials (n = 2-4, N = 2-5) and a univariate
    derivative tower forced to order 8-24."""

    name = "higher-order"
    BLOCK = 192  # operations per throughput block: every program twice
    SIZES = (15, 18, 21, 24, 27, 31, 34, 37, 40, 43, 47, 50)
    ORDERS = (8, 9, 11, 12, 14, 15, 17, 18, 20, 21, 23, 24)
    # Tower cost depends on a program's shape, so each setting gets several
    # programs, which keeps the cost of a run nearly the same across seeds.
    VARIANTS = 4
    CHECK_ORDER = 12  # towers are compared with an n = 1 jet up to here

    def __init__(self, seed: int):
        self.seed = seed
        rng = random.Random(f"{self.name}/{seed}")
        # The costliest settings get the smallest programs, so that no one
        # kind of operation dominates the run.
        jets = sorted(((n, N) for n in (2, 3, 4) for N in (2, 3, 4, 5)),
                      key=lambda c: (math.comb(c[0] + c[1], c[1]), c))
        sizes = sorted(self.SIZES, reverse=True)
        self.configs = []
        for _ in range(self.VARIANTS):
            for (n, order), size, k in zip(jets, sizes, self.ORDERS):
                self.configs.append(("jet", n, order, _divided_program(rng, n, size)))
                self.configs.append(("tower", 1, k, _divided_program(rng, 1, size)))

    def setup(self) -> None:
        import adkit as ak

        self.ak = ak
        self.fdefs = [ak.parse(c[3].source) for c in self.configs]
        for (kind, n, order, p), fdef in zip(self.configs, self.fdefs):
            ak.eval_generic(fdef, [(lo + hi) / 2 for lo, hi in p.box], ak.RealAlgebra())
            if kind == "jet":
                ak.jet_shape(n, order).pair_table()

    def make(self, i: int):
        rng = _op_rng(self.seed, self.name, i)
        k = i % len(self.configs)
        return k, self.configs[k][3].point(rng)

    def run(self, inp, tr):
        k, point = inp
        ak, fdef = self.ak, self.fdefs[k]
        kind, n, order, _ = self.configs[k]
        if kind == "jet":
            shape = ak.jet_shape(n, order)
            seeds = [ak.jet_variable(shape, j + 1, c, ak.BERZ) for j, c in enumerate(point)]
            return tr.call("jets.eval", ak.eval_generic, fdef, seeds,
                           ak.JetAlgebra(shape, ak.BERZ))[0]
        tower = tr.call("towers.build", ak.eval_generic, fdef, [ak.tower_var(point[0])],
                        ak.TowerAlgebra())[0]
        return tr.call("towers.force", ak.tower_take, tower, order + 1)

    def check(self, inp, out) -> list[str]:
        k, point = inp
        ak, fdef = self.ak, self.fdefs[k]
        kind, n, order, p = self.configs[k]
        value = p.evaluate(point)[0]
        if kind == "jet":
            problems = [] if out.coeffs[0] == value else ["jet value differs from the reference"]
            shape = out.shape
            for j in range(n):
                _, tangent = ak.forward_directional(fdef, ak.SeedSpec.forward(point, _basis(n, j)))
                unit = tuple(1 if i == j else 0 for i in range(n))
                if out.coeffs[shape.position[unit]] != tangent[0]:
                    problems.append(f"jet d/dx{j + 1} differs from the dual tangent")
            return problems
        problems = [] if out[0] == value else ["tower value differs from the reference"]
        top = min(order, self.CHECK_ORDER)
        shape = ak.jet_shape(1, top)
        jet = ak.eval_generic(fdef, [ak.jet_variable(shape, 1, point[0], ak.BERZ)],
                              ak.JetAlgebra(shape, ak.BERZ))[0]
        sizes = [max(abs(t), abs(j)) for t, j in zip(out, jet.coeffs)]
        for r, (t, j) in enumerate(zip(out, jet.coeffs)):
            if abs(t - j) > tower_tol(r) * _natural_scale(sizes, r):
                problems.append(f"tower entry {r} {t!r} != jet {j!r}")
        return problems

    def fdef(self, inp, out):
        return self.fdefs[inp[0]]

    def work(self, inp, out, steps: int) -> dict:
        kind, _, order, _ = self.configs[inp[0]]
        if kind == "jet":
            return {"jets.eval": steps * out.shape.size}
        return {"towers.force": order + 1}

    def counts(self, i: int) -> dict:
        ak = self.ak
        k, point = self.make(i)
        kind, n, order, _ = self.configs[k]
        fdef = self.fdefs[k]
        steps = len(ak.schedule(fdef))
        out = {"expr.steps": steps, "counting.evals": _evals(ak, fdef, point)}
        if kind == "jet":
            out["jets.coeffs"] = steps * ak.jet_shape(n, order).size
        else:
            out["towers.entries"] = order + 1
        return out

    def oracle(self) -> list[str]:
        rng = random.Random(f"{self.name}/{self.seed}/oracle")
        k = 2 * rng.randrange(len(self.configs) // 2)  # a jet program
        _, n, order, p = self.configs[k]
        point = p.point(rng)
        j = rng.randrange(n)
        shape = self.ak.jet_shape(n, order)
        seeds = [self.ak.jet_variable(shape, i + 1, c, self.ak.BERZ) for i, c in enumerate(point)]
        jet = self.ak.eval_generic(self.fdefs[k], seeds, self.ak.JetAlgebra(shape, self.ak.BERZ))[0]
        unit = tuple(1 if i == j else 0 for i in range(n))
        return _dual_agrees(self.ak, self.fdefs[k], point, _basis(n, j),
                            [jet.coeffs[shape.position[unit]]])

    def stats(self) -> dict:
        return {kind: _summary([tuple(getattr(p, key) for key in STAT_KEYS)
                                for k, _, _, p in self.configs if k == kind])
                for kind in ("jet", "tower")}
