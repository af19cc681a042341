"""Independent numerical oracles used by the test suite.

Nothing in here goes through the library's jet/tower/trace code paths: the
nested-dual evaluator differentiates by recursive (value, derivative) pairs,
polynomial products are dict-based convolution, and the stencil module is
plain central finite differences.  The jet section keeps the exhaustive
scans that built the monomial layout and the pair table, as references
that the graded build must equal, and `LoopJetAlgebra`, the jet kernels
that tested the basis inside every split, as a bit-for-bit reference for
the per-basis loops.  `LoopTowerAlgebra` evaluates the tower formulas
eagerly to a fixed order, re-running each lift's rule at every degree, as a
bit-for-bit reference for the lazy towers.  `packed` packs their results for a
byte-for-byte comparison.  `decode` turns a program's op table
into one (fn, arg_slots, out_slot) step per op.  `step_eval` and the tape
section sweep those steps, decoding every step on every pass, as
references that `eval_generic` and the sweeps over the op table must match
bit for bit.  The front-end section keeps the
tokenizer that matched every token and whitespace run, and the four-pass
compile, as references that the one-scan tokenizer and the two-pass
compile must match.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
import struct

from adkit.catalog import COPY, OPERATORS, DomainError, Lifted, derivative_rule, lookup
from adkit.expr import (
    Apply,
    Constant,
    FunctionDef,
    ParseError,
    StateProgram,
    Variable,
    _Parser,
    _path_of,
)

# --- nested first-order duals (forward-over-forward-over-...) ---


class ND:
    """A (value, derivative) pair whose components are floats or NDs of one
    smaller depth."""

    __slots__ = ("v", "d")

    def __init__(self, v, d):
        self.v = v
        self.d = d


def nd_depth(x) -> int:
    k = 0
    while isinstance(x, ND):
        k += 1
        x = x.v
    return k


def nd_const(c: float, depth: int):
    if depth == 0:
        return float(c)
    return ND(nd_const(c, depth - 1), nd_const(0.0, depth - 1))


def nd_add(a, b):
    if isinstance(a, ND):
        return ND(nd_add(a.v, b.v), nd_add(a.d, b.d))
    return a + b


def nd_sub(a, b):
    if isinstance(a, ND):
        return ND(nd_sub(a.v, b.v), nd_sub(a.d, b.d))
    return a - b


def nd_neg(a):
    if isinstance(a, ND):
        return ND(nd_neg(a.v), nd_neg(a.d))
    return -a


def nd_mul(a, b):
    if isinstance(a, ND):
        return ND(nd_mul(a.v, b.v), nd_add(nd_mul(a.v, b.d), nd_mul(a.d, b.v)))
    return a * b


def nd_div(a, b):
    if isinstance(a, ND):
        q = nd_div(a.v, b.v)
        return ND(q, nd_div(nd_sub(a.d, nd_mul(q, b.d)), b.v))
    return a / b


def nd_pow(a, k: int):
    if k == 0:
        return nd_const(1.0, nd_depth(a))
    r = a
    for _ in range(k - 1):
        r = nd_mul(r, a)
    return r


_REAL = {
    "exp": math.exp,
    "ln": math.log,
    "sqrt": math.sqrt,
    "sin": math.sin,
    "cos": math.cos,
    "tan": math.tan,
}


def nd_fn(name: str, a):
    """Unary catalogue function on nested duals via the chain rule."""
    if not isinstance(a, ND):
        return _REAL[name](a)
    value = nd_fn(name, a.v)
    if name == "exp":
        deriv = value
    elif name == "ln":
        deriv = nd_div(nd_const(1.0, nd_depth(a.v)), a.v)
    elif name == "sqrt":
        deriv = nd_div(nd_const(0.5, nd_depth(a.v)), value)
    elif name == "sin":
        deriv = nd_fn("cos", a.v)
    elif name == "cos":
        deriv = nd_neg(nd_fn("sin", a.v))
    elif name == "tan":
        deriv = nd_add(nd_const(1.0, nd_depth(a.v)), nd_mul(value, value))
    else:
        raise KeyError(name)
    return ND(value, nd_mul(deriv, a.d))


def nd_apply(fn_name: str, args):
    if fn_name == "add":
        return nd_add(args[0], args[1])
    if fn_name == "sub":
        return nd_sub(args[0], args[1])
    if fn_name == "neg":
        return nd_neg(args[0])
    if fn_name == "mul":
        return nd_mul(args[0], args[1])
    if fn_name == "div":
        return nd_div(args[0], args[1])
    if fn_name == "copy":
        return args[0]
    if fn_name.startswith("pow") and fn_name[3:].isdigit():
        return nd_pow(args[0], int(fn_name[3:]))
    return nd_fn(fn_name, args[0])


def nd_eval(fdef: FunctionDef, inputs):
    memo = {}

    def ev(node):
        key = id(node)
        if key in memo:
            return memo[key]
        if isinstance(node, Variable):
            out = inputs[node.index - 1]
        elif isinstance(node, Constant):
            out = nd_const(node.value, nd_depth(inputs[0]))
        else:
            out = nd_apply(node.fn.name, [ev(a) for a in node.args])
        memo[key] = out
        return out

    return [ev(root) for root in fdef.outputs]


def nested_partial(fdef: FunctionDef, point, multi_index) -> float:
    """The mixed partial d^|k| f / dx^k at the point, by |k|-fold nesting of
    first-order duals (single-output definitions)."""
    levels: list[int] = []
    for var, k in enumerate(multi_index, start=1):
        levels.extend([var] * k)
    depth = len(levels)

    def seed(x: float, var_i: int, lv):
        if not lv:
            return float(x)
        inner = seed(x, var_i, lv[1:])
        tangent = nd_const(1.0 if lv[0] == var_i else 0.0, len(lv) - 1)
        return ND(inner, tangent)

    inputs = [seed(point[i], i + 1, levels) for i in range(len(point))]
    out = nd_eval(fdef, inputs)[0]
    for _ in range(depth):
        out = out.d
    return out


# --- naive dense polynomial multiplication (dict over multi-indices) ---


def poly_mul_truncated(a: dict, b: dict, order: int) -> dict:
    """Product of multi-index -> coefficient maps, dropping terms of total
    degree above `order`."""
    out: dict = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            if sum(k) > order:
                continue
            out[k] = out.get(k, 0.0) + ca * cb
    return out


# --- jet index tables by exhaustive scans (the construction before the
# graded build) ---


def scanned_monomials(n: int, order: int) -> tuple:
    """The graded lexicographic layout, from a scan of all (order + 1)^n
    index tuples sorted by (degree, tuple)."""
    monos = [k for k in itertools.product(range(order + 1), repeat=n) if sum(k) <= order]
    monos.sort(key=lambda k: (sum(k), k))
    return tuple(monos)


def scanned_pair_table(shape) -> list:
    """For each position t, the (r, s, weight, |r| weight) with monomials
    r + s = t and r != 0 in ascending r: every pair of the shape's monomials
    is tested, weighted by the exact product of binomials, and regrouped by
    target."""
    position = {k: i for i, k in enumerate(shape.monomials)}
    table = [[] for _ in shape.monomials]
    for r, kr in enumerate(shape.monomials[1:], 1):
        for s, ks in enumerate(shape.monomials):
            k = tuple(a + b for a, b in zip(kr, ks))
            if sum(k) > shape.order:
                continue
            w = float(math.prod(math.comb(a + b, a) for a, b in zip(kr, ks)))
            table[position[k]].append((r, s, w, sum(kr) * w))
    return table


# --- per-coefficient jet long division (split enumeration per call) ---


def jet_long_division(a, b) -> list[float]:
    """Coefficients of the quotient a / b of two jets, solving q * b = a in
    graded order.  Every split t = r + s of each target monomial, and its
    multinomial weight, is enumerated afresh for every coefficient: no
    precomputed table is read, only the shape's monomial list."""
    shape = a.shape
    berz = a.basis == "berz"
    b0 = b.coeffs[0]
    q = [0.0] * shape.size
    monos = shape.monomials
    pos = {k: i for i, k in enumerate(monos)}
    q[0] = a.coeffs[0] / b0
    for t in range(1, shape.size):
        k = monos[t]
        acc = 0.0
        for r_pos in range(1, shape.size):
            r = monos[r_pos]
            if sum(r) > sum(k):
                break
            s = tuple(x - y for x, y in zip(k, r))
            if any(x < 0 for x in s):
                continue
            if berz:
                w = float(math.prod(math.comb(x + y, x) for x, y in zip(r, s)))
                acc += w * b.coeffs[r_pos] * q[pos[s]]
            else:
                acc += b.coeffs[r_pos] * q[pos[s]]
        q[t] = (a.coeffs[t] - acc) / b0
    return q


# --- the jet kernels that tested the basis in every split ---


class LoopJet(Lifted):
    """A jet whose product, quotient and lift are the loops that tested the
    basis inside every split and formed each lift term's weight
    |r| (w or 1.0) there, and whose lift evaluates the rule on jets over a
    separate JetShape(n, d - 1), not on a prefix view.  Kept, with
    `LoopJetAlgebra`, as a bit-for-bit reference for `adkit.jets`."""

    __slots__ = ("shape", "coeffs", "basis")

    def __init__(self, shape, coeffs: list[float], basis: str):
        self.shape, self.coeffs, self.basis = shape, coeffs, basis

    def _promote(self, b):
        if isinstance(b, LoopJet):
            if b.shape is not self.shape or b.basis != self.basis:
                raise ValueError("jet shape or basis mismatch")
            return b
        if isinstance(b, (int, float)):
            return loop_jet_constant(self.shape, b, self.basis)
        return NotImplemented

    def _add(self, b):
        return LoopJet(self.shape, [x + y for x, y in zip(self.coeffs, b.coeffs)], self.basis)

    def _sub(self, b):
        return LoopJet(self.shape, [x - y for x, y in zip(self.coeffs, b.coeffs)], self.basis)

    def __neg__(self):
        return LoopJet(self.shape, [-x for x in self.coeffs], self.basis)

    def _mul(self, b):
        berz = self.basis == "berz"
        ac, bc = self.coeffs, b.coeffs
        a0 = ac[0]
        out = []
        for t, row in enumerate(self.shape.pair_table()):
            acc = 0.0 + a0 * bc[t]
            for r, s, w, _ in row:
                acc += (w * ac[r] if berz else ac[r]) * bc[s]
            out.append(acc)
        return LoopJet(self.shape, out, self.basis)

    def _div(self, b):
        b0 = b.coeffs[0]
        if b0 == 0.0:
            raise DomainError("div", (self.coeffs[0], b0))
        shape = self.shape
        ac, bc = self.coeffs, b.coeffs
        q = [0.0] * shape.size
        q[0] = ac[0] / b0
        splits = shape.pair_table()
        berz = self.basis == "berz"
        for t in range(1, shape.size):
            acc = 0.0
            for r, s, w, _ in splits[t]:
                acc += (w * bc[r] if berz else bc[r]) * q[s]
            q[t] = (ac[t] - acc) / b0
        return LoopJet(shape, q, self.basis)


def loop_jet_constant(shape, c: float, basis: str) -> LoopJet:
    coeffs = [0.0] * shape.size
    coeffs[0] = float(c)
    return LoopJet(shape, coeffs, basis)


@functools.lru_cache(maxsize=None)
def separate_shape(n: int, order: int):
    """A JetShape(n, order) of the oracle's own, never a view of a larger
    shape nor the object `jet_shape` caches."""
    from adkit.jets import JetShape

    return JetShape(n, order)


def loop_lift(fn, args) -> LoopJet:
    """fn lifted degree by degree onto the LoopJet args[0]."""
    arg = args[0]
    return LoopJet(arg.shape, _LoopFamily(arg).fill(fn, arg.shape.order), arg.basis)


class _LoopFamily:
    """The lifts of catalogue functions on one LoopJet argument, each built
    once and stored by name as [coefficients, degree filled]."""

    def __init__(self, arg: LoopJet):
        self.arg = arg
        self.lifts: dict = {}

    def fill(self, fn, degree: int) -> list[float]:
        lift = self.lifts.get(fn.name)
        if lift is None:
            derivative_rule(fn)
            x0 = self.arg.coeffs[0]
            fn.check_domain([x0])
            coeffs = [0.0] * self.arg.shape.size
            coeffs[0] = fn.value([x0])
            lift = self.lifts[fn.name] = [coeffs, 0]
        for d in range(lift[1] + 1, degree + 1):
            self._fill_degree(fn, lift[0], d)
            lift[1] = d
        return lift[0]

    def _fill_degree(self, fn, w: list[float], d: int) -> None:
        arg = self.arg
        n, basis = arg.shape.n, arg.basis
        if d == 1:
            v = fn.partials([arg.coeffs[0]])
        else:
            low = separate_shape(n, d - 1)

            def view(coeffs):
                return LoopJet(low, coeffs[:low.size], basis)

            a = view(arg.coeffs)
            v = a._promote(fn.derivative(
                a, view(w), lambda name: view(self.fill(lookup(name), d - 1)),
            )).coeffs
        u, shape = arg.coeffs, arg.shape
        splits, degrees = shape.pair_table(), shape.degrees
        berz = basis == "berz"
        for t in range(math.comb(n + d - 1, n), math.comb(n + d, n)):
            acc = 0.0
            for r, s, wt, _ in splits[t]:
                acc += degrees[r] * (wt if berz else 1.0) * u[r] * v[s]
            w[t] = acc / d


class LoopJetAlgebra:
    """`JetAlgebra` over LoopJets: arithmetic by the operators, any other
    function by `loop_lift`."""

    def __init__(self, shape, basis: str):
        self.shape, self.basis = shape, basis

    def constant(self, c: float) -> LoopJet:
        return loop_jet_constant(self.shape, c, self.basis)

    def apply(self, fn, args):
        fn.check_arity(args)
        op = OPERATORS.get(fn.name)
        return loop_lift(fn, args) if op is None else op(*args)


# --- the tower formulas, evaluated eagerly to a fixed order ---


class LoopTower(Lifted):
    """The first K + 1 entries of a univariate derivative tower, computed
    eagerly by the tower formulas: heads x0 y0 and x0 / y0, the Leibniz and
    quotient sums from 0.0 over rows of binomials, and a lift w = f(u) with
    entry 1 g0 u1 and entry d >= 2 the Euler form
    (sum_{r=1..d} r binom(d, r) u_r g_{d-r}) / d, where g = f'(u) is the rule
    run again at every degree d on towers cut to their first d entries.
    Kept, with `LoopTowerAlgebra`, as a bit-for-bit reference for
    `adkit.towers`."""

    __slots__ = ("entries",)

    def __init__(self, entries: list[float]):
        self.entries = entries

    def _promote(self, b):
        if isinstance(b, LoopTower):
            return b
        if isinstance(b, (int, float)):
            return LoopTower([float(b)] + [0.0] * (len(self.entries) - 1))
        return NotImplemented

    def _add(self, b):
        return LoopTower([x + y for x, y in zip(self.entries, b.entries)])

    def _sub(self, b):
        return LoopTower([x - y for x, y in zip(self.entries, b.entries)])

    def __neg__(self):
        return LoopTower([-x for x in self.entries])

    def _mul(self, b):
        x, y = self.entries, b.entries
        out = [x[0] * y[0]]
        for d in range(1, len(x)):
            total = 0.0
            for i, c in enumerate(binomial_row(d)):
                total += c * x[i] * y[d - i]
            out.append(total)
        return LoopTower(out)

    def _div(self, b):
        x, y = self.entries, b.entries
        if y[0] == 0.0:
            raise DomainError("div", (x[0], y[0]))
        q = [x[0] / y[0]]
        for d in range(1, len(x)):
            row = binomial_row(d)
            total = 0.0
            for i in range(1, d + 1):
                total += row[i] * y[i] * q[d - i]
            q.append((x[d] - total) / y[0])
        return LoopTower(q)


def binomial_row(d: int) -> list[float]:
    """binom(d, r) for r = 0..d, each rounded to a float once."""
    return [float(math.comb(d, r)) for r in range(d + 1)]


def loop_tower_lift(fn, args) -> LoopTower:
    """fn lifted entry by entry onto the LoopTower args[0]."""
    u = args[0].entries
    return LoopTower(_LoopTowerFamily(u).fill(fn, len(u) - 1))


class _LoopTowerFamily:
    """The lifts of catalogue functions on one argument's entries, each built
    once and stored by name as its entries filled so far."""

    def __init__(self, u: list[float]):
        self.u = u
        self.lifts: dict = {}

    def fill(self, fn, order: int) -> list[float]:
        u, w = self.u, self.lifts.get(fn.name)
        if w is None:
            derivative_rule(fn)
            fn.check_domain([u[0]])
            w = self.lifts[fn.name] = [float(fn.value([u[0]]))]
        for d in range(len(w), order + 1):
            a, f = LoopTower(u[:d]), LoopTower(w[:d])
            v = a._promote(fn.derivative(
                a, f, lambda name: LoopTower(self.fill(lookup(name), d - 1)[:d]),
            )).entries
            if d == 1:
                w.append(v[0] * u[1])
                continue
            total = 0.0
            for r, c in enumerate(binomial_row(d)[1:], 1):
                total += r * c * u[r] * v[d - r]
            w.append(total / d)
        return w


class LoopTowerAlgebra:
    """`TowerAlgebra` over LoopTowers of `order + 1` entries: arithmetic by
    the operators, any other function by `loop_tower_lift`."""

    def __init__(self, order: int):
        self.order = order

    def constant(self, c: float) -> LoopTower:
        return LoopTower([float(c)] + [0.0] * self.order)

    def variable(self, c: float) -> LoopTower:
        return LoopTower([float(c), 1.0] + [0.0] * (self.order - 1))

    def apply(self, fn, args):
        fn.check_arity(args)
        op = OPERATORS.get(fn.name)
        return loop_tower_lift(fn, args) if op is None else op(*args)


# --- central finite differences ---


def central_diff(f, x: float, h: float = 1e-6) -> float:
    return (f(x + h) - f(x - h)) / (2.0 * h)


def central_diff_order(f, x: float, k: int, h: float | None = None) -> float:
    """Order-k derivative by the k-th central difference (half-integer
    offsets for odd k)."""
    if k == 0:
        return f(x)
    if h is None:
        # balance truncation O(h^2) against rounding ~ eps / h^k
        h = (2.3e-16) ** (1.0 / (k + 2))
    total = 0.0
    for i in range(k + 1):
        offset = (k / 2.0 - i) * h
        total += (-1.0) ** i * math.comb(k, i) * f(x + offset)
    return total / h**k


def partial_diff(f, point, j: int, h: float = 1e-6) -> float:
    """Central difference in coordinate j of a multivariate callable."""
    up = list(point)
    dn = list(point)
    up[j] += h
    dn[j] -= h
    return (f(up) - f(dn)) / (2.0 * h)


def be_close(x: float, y: float, rel: float, scale: float = 1.0) -> bool:
    """|x - y| within rel, relative to max(1, |x|, |y|, scale)."""
    return abs(x - y) <= rel * max(1.0, abs(x), abs(y), abs(scale))


# --- power series in 60-digit arithmetic (mpmath) ---


def _mp_series(name: str, args, order: int, mp):
    """Taylor coefficients of a catalogue function of series arguments, by
    the classic recurrences (Knuth, TAOCP vol. 2, 4.7)."""
    ks = range(order + 1)
    if name in ("add", "sub"):
        sign = 1 if name == "add" else -1
        return [p + sign * q for p, q in zip(*args)]
    if name == "neg":
        return [-p for p in args[0]]
    if name == "copy":
        return list(args[0])
    if name == "mul":
        a, b = args
        return [mp.fsum(a[j] * b[k - j] for j in range(k + 1)) for k in ks]
    if name == "div":
        a, b = args
        q = []
        for k in ks:
            q.append((a[k] - mp.fsum(b[j] * q[k - j] for j in range(1, k + 1))) / b[0])
        return q
    if name.startswith("pow") and name[3:].isdigit():
        out = [mp.mpf(1)] + [mp.mpf(0)] * order
        for _ in range(int(name[3:])):
            out = _mp_series("mul", [out, args[0]], order, mp)
        return out
    u = args[0]
    if name == "exp":
        w = [mp.exp(u[0])]
        for k in ks[1:]:
            w.append(mp.fsum(j * u[j] * w[k - j] for j in range(1, k + 1)) / k)
        return w
    if name == "ln":
        w = [mp.log(u[0])]
        for k in ks[1:]:
            w.append((u[k] - mp.fsum(j * w[j] * u[k - j] for j in range(1, k)) / k) / u[0])
        return w
    if name == "sqrt":
        w = [mp.sqrt(u[0])]
        for k in ks[1:]:
            w.append((u[k] - mp.fsum(w[j] * w[k - j] for j in range(1, k))) / (2 * w[0]))
        return w
    if name in ("sin", "cos", "tan"):
        s, c = [mp.sin(u[0])], [mp.cos(u[0])]
        for k in ks[1:]:
            s.append(mp.fsum(j * u[j] * c[k - j] for j in range(1, k + 1)) / k)
            c.append(-mp.fsum(j * u[j] * s[k - j] for j in range(1, k + 1)) / k)
        if name == "tan":
            return _mp_series("div", [s, c], order, mp)
        return s if name == "sin" else c
    raise KeyError(name)


def mp_taylor(fdef: FunctionDef, x: float, order: int, digits: int = 60):
    """Taylor coefficients c_0..c_order at x of every node of a univariate
    definition, in `digits`-digit arithmetic: (first output's, [every
    node's]).  The exact x is the expansion point, so no input rounding."""
    import mpmath

    with mpmath.workdps(digits):
        zero = [mpmath.mpf(0)] * order
        memo = {}

        def ev(node):
            if id(node) in memo:
                return memo[id(node)]
            if isinstance(node, Variable):
                out = [mpmath.mpf(x), mpmath.mpf(1)] + zero[1:]
            elif isinstance(node, Constant):
                out = [mpmath.mpf(node.value)] + zero
            else:
                out = _mp_series(node.fn.name, [ev(a) for a in node.args], order, mpmath)
            memo[id(node)] = out
            return out

        return ev(fdef.outputs[0]), list(memo.values())


# --- the program as one (fn, arg_slots, out_slot) step per op ---


def packed(run) -> list | tuple:
    """The struct-packed coefficients of every output of `run()` (each a
    list of floats), so that signed zeros and NaN payloads count, which
    `==` does not see; or the text and path of the DomainError it raises."""
    try:
        outputs = run()
    except DomainError as err:
        return ("DomainError", str(err), err.path)
    return [struct.pack(f"{len(c)}d", *c) for c in outputs]


def decode(program: StateProgram) -> list[tuple]:
    """Each op-table entry as the step (fn, arg_slots, out_slot) that the
    sweeps below read, decoded here, not by the library.  A constant's step
    holds its value (a float) as fn, and no argument slots."""
    steps = []
    for slot, (kind, a, b, fn) in enumerate(program.ops, program.n):
        if kind == "const":
            steps.append((a, (), slot))
        else:
            steps.append((fn, a if kind == "other" else (a,) if b is None else (a, b), slot))
    return steps


def step_eval(fdef: FunctionDef, inputs, algebra) -> list:
    """`eval_generic` by the loop that swept one decoded step at a time: a
    copy reuses its source, a step without arguments calls ``constant``,
    any other calls ``apply``.  Kept as a bit-for-bit reference for the
    sweep over the op table."""
    if len(inputs) != fdef.n:
        raise ValueError(f"expected {fdef.n} inputs, got {len(inputs)}")
    slots = list(inputs)
    for fn, refs, out in decode(fdef.program):
        if fn is COPY:
            slots.append(slots[refs[0]])
        elif not refs:
            slots.append(algebra.constant(fn if isinstance(fn, float) else fn.value(())))
        else:
            try:
                slots.append(algebra.apply(fn, [slots[s] for s in refs]))
            except DomainError as err:
                if err.path is None:
                    raise err.at(_path_of(fdef, out)) from None
                raise
    return [slots[s] for s in fdef.program.output_slots]


# --- the reverse sweep over one TapeEntry per step ---


def entry_gradient(fdef: FunctionDef, c, ybar) -> list[float]:
    """ybar . J_f(c) by the tape loop that built one frozen `TapeEntry` per
    step and swept the entries backwards, kept as a bit-for-bit reference
    for the flat tape."""
    from adkit.engine import TapeEntry

    n = fdef.n
    values = [float(x) for x in c]
    entries = []
    for fn, refs, _ in decode(fdef.program):
        if isinstance(fn, float):  # a constant
            values.append(fn)
            entries.append(TapeEntry(None, (), fn, ()))
            continue
        args = [values[r] for r in refs]
        fn.check_domain(args)
        primal = fn.value(args)
        values.append(primal)
        entries.append(TapeEntry(fn, refs, primal, tuple(fn.partials(args))))
    adjoint = [0.0] * (n + len(entries))
    for ref, y in zip(fdef.program.output_slots, ybar):
        adjoint[ref] += float(y)
    for j in range(len(entries) - 1, -1, -1):
        entry = entries[j]
        a = adjoint[n + j]
        if a == 0.0:
            continue
        for ref, p in zip(entry.arg_refs, entry.local_partials):
            adjoint[ref] += a * p
    return adjoint[:n]


# --- the tape sweeps that decoded every step on every sweep ---


def step_record(fdef: FunctionDef, c) -> tuple[tuple, tuple]:
    """(values, partials) by the `record` loop that called every step's
    domain, value and partials, kept as a bit-for-bit reference for the
    sweeps over the op table."""
    values = [float(x) for x in c]
    partials = []
    for fn, refs, out in decode(fdef.program):
        if isinstance(fn, float):  # a constant
            values.append(fn)
            partials.append(())
            continue
        args = [values[r] for r in refs]
        if not fn.domain(args):
            raise DomainError(fn.name, args, _path_of(fdef, out))
        values.append(fn.value(args))
        partials.append(tuple(fn.partials(args)))
    return tuple(values), tuple(partials)


def step_tangents(fdef: FunctionDef, values, partials, direction) -> list[float]:
    """J_f(c) . direction by the tangent sweep that dispatched on each
    step's function name."""
    v = values
    t = [float(d) for d in direction]
    add = t.append
    for (fn, refs, _), parts in zip(decode(fdef.program), partials):
        name = fn.name if refs else "const"
        if len(refs) == 1:
            if name == "neg":
                add(-t[refs[0]])
            elif name == "copy":
                add(t[refs[0]])
            else:
                add(0.0 + parts[0] * t[refs[0]])
        elif name == "mul":
            a, b = refs
            add(v[a] * t[b] + t[a] * v[b])
        elif name == "add":
            a, b = refs
            add(t[a] + t[b])
        elif name == "sub":
            a, b = refs
            add(t[a] - t[b])
        elif name == "div":
            a, b = refs
            add((t[a] - v[len(t)] * t[b]) / v[b])
        else:
            tangent = 0.0
            for ref, p in zip(refs, parts):
                tangent += p * t[ref]
            add(tangent)
    return [t[r] for r in fdef.program.output_slots]


def step_backprop(fdef: FunctionDef, values, partials, ybar) -> list[float]:
    """ybar . J_f(c) by the adjoint sweep that zipped each step's argument
    slots with its partials."""
    n, steps = fdef.n, decode(fdef.program)
    adjoint = [0.0] * len(values)
    for ref, y in zip(fdef.program.output_slots, ybar):
        adjoint[ref] += float(y)
    for k in range(len(steps) - 1, -1, -1):
        a = adjoint[n + k]
        if a == 0.0:
            continue
        for ref, p in zip(steps[k][1], partials[k]):
            adjoint[ref] += a * p
    return adjoint[:n]


# --- the front end that matched every token and whitespace run, and compiled
# --- in four passes ---

_MATCH_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<symbol>[()+\-*/^,=])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


def offset_error(source: str, offset: int, message: str) -> ParseError:
    """A ParseError at source `offset`, which gets its 1-based line and column."""
    line = source.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - source.rfind("\n", 0, offset))


def match_tokenize(source: str) -> list[tuple[str, str, int]]:
    """(kind, text, offset) triples, ending with ("end", "", len(source)),
    from one match object per token and per run of whitespace."""
    tokens = []
    for match in _MATCH_TOKEN_RE.finditer(source):
        kind, text = match.lastgroup, match.group()
        if kind == "bad":
            raise offset_error(source, match.start(), f"unexpected character {text!r}")
        if kind != "ws":
            tokens.append((text if kind == "symbol" else kind, text, match.start()))
    tokens.append(("end", "", len(source)))
    return tokens


class OffsetParser(_Parser):
    """The parser over `match_tokenize`'s tokens, which carry their source
    offset, so every error is placed without a second scan."""

    def __init__(self, source: str):
        self.source = source
        self.tokens = match_tokenize(source)
        self.pos = 0

    def error(self, message: str, tok: tuple | None = None) -> ParseError:
        return offset_error(self.source, (tok or self.peek())[2], message)


def four_pass_schedule(fdef: FunctionDef) -> list[Apply]:
    """`schedule` from a post-order walk that collects every argument in a
    set, then a second pass that moves the unconsumed roots to the end."""
    order: list[Apply] = []
    consumed: set = set()
    visited: set = set()
    for root in fdef.outputs:
        if not isinstance(root, Apply) or root in visited:
            continue
        visited.add(root)
        stack = [(root, iter(root.args))]
        while stack:
            node, children = stack[-1]
            for child in children:
                consumed.add(child)
                if isinstance(child, Apply) and child not in visited:
                    visited.add(child)
                    stack.append((child, iter(child.args)))
                    break
            else:
                stack.pop()
                order.append(node)
    tails: list[Apply] = []
    claimed: set = set()
    for root in fdef.outputs:
        if isinstance(root, Apply) and root not in consumed and root not in claimed:
            claimed.add(root)
            tails.append(root)
        else:
            tails.append(Apply(COPY, (root,)))
    return [node for node in order if node not in claimed] + tails


def four_pass_compile(fdef: FunctionDef) -> StateProgram:
    """The compiled program from `four_pass_schedule`, a scan of every
    argument for constants, and a last pass that decodes each operation
    into its op-table entry."""
    order = four_pass_schedule(fdef)
    n = fdef.n
    slot_of: dict = {}
    consts: list[Constant] = []
    for node in order:
        for child in node.args:
            if isinstance(child, Constant) and child not in slot_of:
                slot_of[child] = n + len(consts)
                consts.append(child)
    ops = [("const", c.value, None, None) for c in consts]
    for node in order:
        arg_slots = tuple(
            child.index - 1 if isinstance(child, Variable) else slot_of[child]
            for child in node.args
        )
        slot_of[node] = n + len(ops)
        ops.append(_decode_step(node.fn, arg_slots))
    dim = n + len(ops)
    return StateProgram(n, fdef.m, tuple(ops), tuple(range(dim - fdef.m, dim)))


def _decode_step(fn, slots: tuple) -> tuple:
    """An operation step's (kind, a, b, fn), decoded from its function's
    name and its slots."""
    if fn.name in ("mul", "add", "sub", "div", "neg", "copy"):
        return (fn.name, slots[0], slots[1] if len(slots) == 2 else None, fn)
    if len(slots) == 1:
        return ("unary", slots[0], None, fn)
    return ("other", slots, None, fn)
