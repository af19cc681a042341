"""Independent numerical oracles used by the test suite.

Nothing in here goes through the library's jet/tower/trace code paths: the
nested-dual evaluator differentiates by recursive (value, derivative) pairs,
polynomial products are dict-based convolution, and the stencil module is
plain central finite differences.  The tape section keeps the sweeps that
decoded every step on every pass, as references that the sweeps over the
op table must match bit for bit.  The front-end section keeps the
tokenizer that matched every token and whitespace run, and the four-pass
compile, as references that the one-scan tokenizer and the two-pass
compile must match.
"""

from __future__ import annotations

import math
import re

from adkit.catalog import COPY, DomainError, const_fn
from adkit.expr import (
    Apply,
    Constant,
    FunctionDef,
    ParseError,
    StateProgram,
    Step,
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


# --- the reverse sweep over one TapeEntry per step ---


def entry_gradient(fdef: FunctionDef, c, ybar) -> list[float]:
    """ybar . J_f(c) by the tape loop that built one frozen `TapeEntry` per
    step and swept the entries backwards, kept as a bit-for-bit reference
    for the flat tape."""
    from adkit.engine import TapeEntry

    n = fdef.n
    values = [float(x) for x in c]
    entries = []
    for step in fdef.program.steps:
        fn = step.fn
        args = [values[r] for r in step.arg_slots]
        fn.check_domain(args)
        primal = fn.value(args)
        values.append(primal)
        entries.append(TapeEntry(fn, step.arg_slots, primal, tuple(fn.partials(args))))
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
    for step in fdef.program.steps:
        fn = step.fn
        args = [values[r] for r in step.arg_slots]
        if not fn.domain(args):
            raise DomainError(fn.name, args, _path_of(fdef, step.out_slot))
        values.append(fn.value(args))
        partials.append(tuple(fn.partials(args)))
    return tuple(values), tuple(partials)


def step_tangents(fdef: FunctionDef, values, partials, direction) -> list[float]:
    """J_f(c) . direction by the tangent sweep that dispatched on each
    step's function name."""
    v = values
    t = [float(d) for d in direction]
    add = t.append
    for step, parts in zip(fdef.program.steps, partials):
        refs, name = step.arg_slots, step.fn.name
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
    n, steps = fdef.n, fdef.program.steps
    adjoint = [0.0] * len(values)
    for ref, y in zip(fdef.program.output_slots, ybar):
        adjoint[ref] += float(y)
    for k in range(len(steps) - 1, -1, -1):
        a = adjoint[n + k]
        if a == 0.0:
            continue
        for ref, p in zip(steps[k].arg_slots, partials[k]):
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
    argument for constants, and a last pass that builds the steps."""
    order = four_pass_schedule(fdef)
    n = fdef.n
    slot_of: dict = {}
    consts: list[Constant] = []
    for node in order:
        for child in node.args:
            if isinstance(child, Constant) and child not in slot_of:
                slot_of[child] = n + len(consts)
                consts.append(child)
    steps = [Step(const_fn(c.value), (), slot_of[c]) for c in consts]
    for node in order:
        arg_slots = tuple(
            child.index - 1 if isinstance(child, Variable) else slot_of[child]
            for child in node.args
        )
        slot = slot_of[node] = n + len(steps)
        steps.append(Step(node.fn, arg_slots, slot))
    dim = n + len(steps)
    return StateProgram(n, fdef.m, tuple(steps), tuple(range(dim - fdef.m, dim)))
