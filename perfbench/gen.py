"""Seeded inputs for the benchmark: programs as source text, their sampling
boxes, and an evaluator that does not use adkit.

Every program is built on an intermediate form whose nodes carry an interval
enclosing their value over the whole sampling box.  An operation is only
emitted when its argument intervals keep it well inside its domain (ln/sqrt
arguments >= 0.25, divisors at least 0.25 away from zero, exp arguments
<= 3, tan arguments in [-1.2, 1.2]) and every value stays within 100 in
magnitude (1e4 in the long flat sums).  So every point drawn from the box
is safe, and a DomainError raised there is a defect of the program under
test.

`Program.evaluate` repeats the library's floating-point operations in the
same order (left folds, powers by repeated multiplication), so its values
must equal the library's bit for bit.
"""

from __future__ import annotations

import math
import random

MARGIN = 0.25
CAP = 100.0
RADIUS = 0.25  # half-width of each input's sampling interval
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0  # step of a low-discrepancy sequence

UNARY = ("exp", "ln", "sqrt", "sin", "cos", "tan")
# Fixed shares of each kind of step, so programs of one size cost about the
# same whatever the seed (jets and towers cost very differently per kind).
MIX = tuple((f, 0.05) for f in UNARY) + (
    ("add", 0.15), ("sub", 0.15), ("mul", 0.25), ("div", 0.07),
    ("pow2", 0.02), ("pow3", 0.02), ("neg", 0.04))
LOOKAHEAD = 8  # pending kinds tried when the next one does not fit

_BINARY_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _mul_iv(a, b):
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return min(ps), max(ps)


def interval(kind: str, ivs, cap: float = CAP):
    """The value interval of `kind` applied to argument intervals, or None
    when the operation is not safe on all of them."""
    a = ivs[0]
    if kind == "add":
        out = (a[0] + ivs[1][0], a[1] + ivs[1][1])
    elif kind == "sub":
        out = (a[0] - ivs[1][1], a[1] - ivs[1][0])
    elif kind == "mul":
        out = _mul_iv(a, ivs[1])
    elif kind == "div":
        b = ivs[1]
        if not (b[0] >= MARGIN or b[1] <= -MARGIN):
            return None
        out = _mul_iv(a, (1.0 / b[1], 1.0 / b[0]))
    elif kind == "neg":
        out = (-a[1], -a[0])
    elif kind.startswith("pow"):
        k = int(kind[3:])
        ends = (a[0] ** k, a[1] ** k)
        out = (min(ends), max(ends))
        if k % 2 == 0 and a[0] < 0.0 < a[1]:
            out = (0.0, out[1])
    elif kind == "exp":
        if a[1] > 3.0:
            return None
        out = (math.exp(a[0]), math.exp(a[1]))
    elif kind in ("ln", "sqrt"):
        if a[0] < MARGIN:
            return None
        f = math.log if kind == "ln" else math.sqrt
        out = (f(a[0]), f(a[1]))
    elif kind in ("sin", "cos"):
        out = (-1.0, 1.0)
    elif kind == "tan":
        if a[0] < -1.2 or a[1] > 1.2:
            return None
        out = (math.tan(a[0]), math.tan(a[1]))
    else:
        raise ValueError(kind)
    if max(abs(out[0]), abs(out[1])) > cap:
        return None
    return out


def _ipow(x: float, k: int) -> float:
    r = 1.0
    for _ in range(k):
        r *= x
    return r


_UNARY_FN = {"exp": math.exp, "ln": math.log, "sqrt": math.sqrt,
             "sin": math.sin, "cos": math.cos, "tan": math.tan}


def _apply(kind: str, args: list) -> float:
    if kind == "add":
        return args[0] + args[1]
    if kind == "sub":
        return args[0] - args[1]
    if kind == "mul":
        return args[0] * args[1]
    if kind == "div":
        return args[0] / args[1]
    if kind == "neg":
        return -args[0]
    if kind.startswith("pow"):
        return _ipow(args[0], int(kind[3:]))
    return _UNARY_FN[kind](args[0])


class Program:
    """One generated function: source text, sampling box, and the node list
    it was rendered from (inputs, constants and operations in creation
    order, which is a topological order)."""

    def __init__(self, n: int, outputs: list, nodes: list, source: str, box: list):
        self.n = n
        self.m = len(outputs)
        self.outputs = outputs
        self.nodes = nodes  # (kind, arg ids, constant or input index, depth)
        self.source = source
        self.box = box
        self._stats()

    def _stats(self) -> None:
        refs: dict[int, int] = {}
        reach: set[int] = set()
        stack = list(self.outputs)
        while stack:
            i = stack.pop()
            if i in reach:
                continue
            reach.add(i)
            for a in self.nodes[i][1]:
                refs[a] = refs.get(a, 0) + 1
                stack.append(a)
        ops = [i for i in reach if self.nodes[i][0] not in ("var", "const")]
        self.steps = len(ops)
        self.depth = max(self.nodes[i][3] for i in self.outputs)
        self.shared = sum(1 for i in ops if refs.get(i, 0) > 1) / max(1, len(ops))
        self.divisions = sum(1 for i in ops if self.nodes[i][0] == "div")

    def point(self, rng: random.Random) -> list[float]:
        return [rng.uniform(lo, hi) for lo, hi in self.box]

    def evaluate(self, point) -> list[float]:
        vals: list[float] = []
        for kind, args, extra, _depth in self.nodes:
            if kind == "var":
                vals.append(float(point[extra]))
            elif kind == "const":
                vals.append(extra)
            else:
                vals.append(_apply(kind, [vals[a] for a in args]))
        return [vals[i] for i in self.outputs]


class _Draft:
    """Accumulates nodes, their intervals and their rendered text."""

    def __init__(self, rng: random.Random, n: int, cap: float = CAP):
        self.rng = rng
        self.n = n
        self.cap = cap
        centers = [round(rng.uniform(-1.0, 1.0), 3) for _ in range(n)]
        self.box = [(c - RADIUS, c + RADIUS) for c in centers]
        self.nodes: list = []
        self.ivs: list = []
        self.texts: list[str] = []
        for i in range(n):
            self._add(("var", (), i, 0), self.box[i], f"x{i + 1}")

    def _add(self, node, iv, text) -> int:
        self.nodes.append(node)
        self.ivs.append(iv)
        self.texts.append(text)
        return len(self.nodes) - 1

    def const(self, lo: float = 0.5, hi: float = 2.0) -> int:
        c = round(self.rng.uniform(lo, hi), 3)
        return self._add(("const", (), c, 0), (c, c), repr(c))

    def op(self, kind: str, args: tuple):
        """Append kind(args) if it is safe on the box; return its id or None."""
        iv = interval(kind, [self.ivs[a] for a in args], self.cap)
        if iv is None:
            return None
        t = [self.texts[a] for a in args]
        if kind in _BINARY_SYMBOL:
            text = f"({t[0]} {_BINARY_SYMBOL[kind]} {t[1]})"
        elif kind == "neg":
            text = f"(-{t[0]})"
        elif kind.startswith("pow"):
            # the grammar allows one exponent per atom
            base = f"({t[0]})" if "^" in t[0] else t[0]
            text = f"{base}^{kind[3:]}"
        else:
            text = f"{kind}({t[0]})"
        depth = 1 + max(self.nodes[a][3] for a in args)
        return self._add((kind, tuple(args), None, depth), iv, text)

    def rename(self, node: int, name: str) -> None:
        self.texts[node] = name

    def program(self, outputs: list, lets: list) -> Program:
        params = ",".join(f"x{i + 1}" for i in range(self.n))
        body = "".join(f"  let {name} = {text} in\n" for name, text in lets)
        outs = [self.texts[o] for o in outputs]
        tail = outs[0] if len(outs) == 1 else "(" + ", ".join(outs) + ")"
        source = f"f({params}) =\n{body}  {tail}"
        return Program(self.n, outputs, list(self.nodes), source, self.box)


def planned(kind: str, steps: int) -> int:
    """How many steps of `kind` a program of about `steps` steps is given."""
    return max(1, round(dict(MIX)[kind] * steps))


def _kind_sequence(rng: random.Random, steps: int) -> list[str]:
    seq = []
    for kind, _ in MIX:
        seq += [kind] * planned(kind, steps)
    rng.shuffle(seq)
    return seq


def random_program(rng: random.Random, n: int, m: int, steps: int,
                   max_depth: int = 60) -> Program:
    """About `steps` operations in `let` bindings of 2-5 operations each.

    Operands are drawn mostly from bindings nobody has used yet (so every
    binding ends up reachable) and otherwise from any earlier binding
    (which makes fan-out).  Outputs sum whatever is still unused.
    """
    b = _Draft(rng, n)
    pool = list(range(n))  # inputs and bindings shallow enough to extend
    in_pool = set(pool)
    unused = list(range(n))
    lets: list = []
    pending = _kind_sequence(rng, steps)

    def leaf() -> int:
        r = rng.random()
        if r < 0.08:
            return b.const()
        fresh = [i for i in unused if b.nodes[i][3] < max_depth - 4]
        if fresh and r < 0.8:
            return rng.choice(fresh)
        return rng.choice(pool)

    def attempt(kind: str, cur):
        for _ in range(6):
            a = leaf() if cur is None else cur
            if kind in _BINARY_SYMBOL:
                other = leaf()
                args = (a, other) if kind == "div" or rng.random() < 0.5 else (other, a)
            else:
                args = (a,)
            node = b.op(kind, args)
            if node is not None:
                return node
        return None

    def emit(cur):
        """One step, consuming `cur` (the expression built so far in this
        binding) when there is one.  Takes the first pending kind that fits,
        so each program gets its shares of kinds."""
        for k, kind in enumerate(pending[:LOOKAHEAD]):
            node = attempt(kind, cur)
            if node is not None:
                del pending[k]
                return node
        # nothing fits: sin is safe on any argument
        return b.op("sin", (b.const() if cur is None else cur,))

    made = 0
    # outputs add one step per unused binding beyond m
    while made + max(len(unused) - m, 0) < steps:
        cur = None
        for _ in range(rng.randint(2, 5)):
            if not pending:
                # past the planned mix: linear steps only, so that no program
                # gets more than its share of a costly kind (a Berz jet
                # division costs about 200 multiplications)
                pending = [rng.choice(("add", "sub"))]
            cur = emit(cur)
            made += 1
        lets.append((f"v{len(lets) + 1}", b.texts[cur]))
        b.rename(cur, lets[-1][0])
        used = _leaves(b, cur, in_pool)
        unused = [i for i in unused if i not in used]
        unused.append(cur)
        if b.nodes[cur][3] < max_depth - 4:
            pool.append(cur)
            in_pool.add(cur)

    groups: list[list[int]] = [[] for _ in range(m)]
    for k, node in enumerate(unused):
        groups[k % m].append(node)
    outputs = []
    for group in groups:
        if not group:
            outputs.append(emit(rng.choice(pool)))
            continue
        acc = group[0]
        for node in group[1:]:
            acc = _add_bounded(b, acc, node)
        outputs.append(acc)
    return b.program(outputs, lets)


def _add_bounded(b: _Draft, acc: int, node: int) -> int:
    """acc + node, squashing either side through sin if the sum could
    leave the value cap."""
    for x in (node, b.op("sin", (node,))):
        total = b.op("add", (acc, x))
        if total is not None:
            return total
    return b.op("add", (b.op("sin", (acc,)), b.op("sin", (node,))))


def _leaves(b: _Draft, root: int, pool: set) -> set[int]:
    """Pool nodes used inside the expression just bound at `root`."""
    out: set[int] = set()
    stack = list(b.nodes[root][1])
    while stack:
        i = stack.pop()
        if i in pool:
            out.add(i)
        else:
            stack.extend(b.nodes[i][1])
    return out


def nested_chain(rng: random.Random, depth: int) -> Program:
    """f(x1) = g_depth(...g_1(x1)...): one call nested inside the next."""
    b = _Draft(rng, 1)
    cur = 0
    for _ in range(depth):
        for kind in rng.sample(UNARY, len(UNARY)):
            node = b.op(kind, (cur,))
            if node is not None:
                cur = node
                break
    return b.program([cur], [])


def flat_fold(rng: random.Random, n: int, terms: int, product: bool) -> Program:
    """t1 + t2 + ... (or t1 * t2 * ...) written without parentheses, the way
    users write long sums; the parser folds it to the left."""
    # A long sum may grow past CAP; its magnitude matters to no domain.
    b = _Draft(rng, n, cap=1e4)

    def term() -> int:
        x = rng.randrange(n)
        c = b.const(0.001, 0.003) if product else b.const()
        if product:
            kind = rng.choice(("exp", "cos"))
            return b.op(kind, (b.op("mul", (c, x)),))
        kind = rng.choice(("sin", "cos", "mul"))
        return b.op("mul", (c, x)) if kind == "mul" else b.op(kind, (x,))

    texts = []
    acc = term()
    texts.append(b.texts[acc])
    for _ in range(terms - 1):
        t = term()
        texts.append(b.texts[t])
        acc = b.op("mul" if product else "add", (acc, t))
        # The partial sums' texts are never used; keeping them would take
        # memory quadratic in the number of terms.
        b.rename(acc, "")
    # The source is the flat form of the terms, without parentheses.
    b.rename(acc, (" * " if product else " + ").join(
        t[1:-1] if (t.startswith("(") and not product) else t for t in texts))
    return b.program([acc], [])
