"""One Taylor engine for towers and jets (Griewank & Walther, *Evaluating
Derivatives*, ch. 13): each lift replays a plan recorded once, and towers
fill lazily, one entry at a time.

A lift w = f(u) fixes degree d from g = f'(u) through degree d - 1
(E w = g E u).  `record` writes f's rule down as its evaluation procedure,
a plan: op-table rows (kind, a, b, fn) over registers, u being register 0
and rows[i] filling register i + 1, so w is register 1.  The recorder
(`_Recorder`) is a lifted scalar whose operators append rows; a float is a
``const`` row and `lift(name)` one ``unary`` row per name on u, the lift's
own name reading register 1 (cos for sin, then sin for cos).  A unary row
keeps its g's register as b.  Rules close round by round in creation
order: round 0 is w, round r the rules of round r - 1's lifts, and
pow{k}'s chain ends at pow0's 0.0.  Recording evaluates no function and
needs no point, so one plan serves every point, shape, basis and order.
`plan` caches it per function for the catalogue's own functions, and
records it again per lift, through round N for a jet of order N, for
registered functions, `counted_variant` copies and hand-built powers above
`MAX_EXPONENT`.  `head` takes a row's head, with its checks.

Jets in both bases and towers fill their products, quotients and lifts by
the same three loops (`product`, `quotient`, `euler`).  Each reads a split
table: for each target t, its splits t = r + s with r != 0 in ascending r,
as tuples (r, s, w, e) of positions, the product's weight w and the Euler
sum's weight e.  A Berz jet's table carries w = t!/(r! s!) and e = |r| w,
a standard jet's w = 1.0 and e = float(|r|), and a tower's is the n = 1
Berz table, entry d splitting into (r, d - r, binom(d, r), r binom(d, r)).

A tower is a node: its entries so far, its inputs, and the kernel
`fill(node, d, top)` that appends entry d while `force` fills the nodes it
needs through `top`.  `flat` is the one flatness test of a node.
"""

from __future__ import annotations

from itertools import count, islice
from math import isfinite
from typing import NamedTuple

from .catalog import (_ROW_FNS, DomainError, ElementaryFn, Lifted, derivative_rule, is_pow, lookup,
                      pow_exponent, pow_fn)

#: Creation numbers of nodes.
serial = count()


def force(t, k: int) -> list[float]:
    """t's entries, filled through at least entry k - 1: entry d of every
    node it needs, for d = 1, 2, ..., in creation order, which is
    topological, so nothing recurses."""
    if len(t.entries) < k:
        nodes = _unfilled(t, k)
        for d in range(1, k):
            for node in nodes:
                if len(node.entries) == d:
                    node.fill(node, d, k - 1)
    return t.entries


def _unfilled(t, k: int) -> list:
    """t and its ancestors not filled through entry k - 1, in creation order."""
    seen, stack = {}, [t]
    while stack:
        node = stack.pop()
        if len(node.entries) >= k or node in seen:
            continue
        seen[node] = node.serial
        stack.extend(node.inputs)
    return sorted(seen, key=seen.get)


def flat(node) -> bool:
    """Whether node is filled by its class's `zero` kernel past a finite head
    and holds only signed zeros there so far."""
    return (node.fill is node.zero and not node.entries[1] and isfinite(node.entries[0])
            and not any(islice(node.entries, 2, None)))


def settle(node) -> None:
    """From its next entry on, node is +0.0 in every entry."""
    node.fill, node.inputs, node.extra = node.zero, (), None


class Plan(NamedTuple):
    """A lift's recorded rule (see the module): its rows, `ends[r]`, the
    number of rows in rounds 0..r, and `memo`, where jets (by order) and
    towers (under "towers") keep what they derive from the rows, so that a
    cached plan is derived once."""

    rows: list
    ends: list
    memo: dict

    def end(self, r: int) -> int:
        """The rows of rounds 0..r, r clipped to the plan's last round."""
        return self.ends[min(r, len(self.ends) - 1)]


class _Recorder(Lifted):
    """A register of the plan being recorded, whose operators append rows."""

    __slots__ = ("rows", "reg")

    def __init__(self, rows: list, reg: int):
        self.rows, self.reg = rows, reg

    def _row(self, kind: str, a, b=None, fn=None) -> _Recorder:
        self.rows.append((kind, a, b, fn))
        return _Recorder(self.rows, len(self.rows))

    def _promote(self, b):
        if isinstance(b, (int, float)):
            return self._row("const", float(b))
        return b if isinstance(b, _Recorder) else NotImplemented

    def __neg__(self) -> _Recorder:
        return self._row("neg", self.reg)

    def _binary(kind: str):
        return lambda self, b: self._row(kind, self.reg, b.reg)

    _add, _sub, _mul, _div = map(_binary, ("add", "sub", "mul", "div"))
    del _binary


def record(fn: ElementaryFn, rounds: int = -1) -> Plan:
    """fn's plan, closed through round `rounds`, or, for rounds < 0, until
    no lift is left unclosed: every catalogue rule closes."""
    rows = [("unary", 0, None, fn)]
    names = {fn.name: 1}
    u = _Recorder(rows, 0)

    def lift(name: str) -> _Recorder:
        if name not in names:
            u._row("unary", 0, None, lookup(name))
            names[name] = len(rows)
        return _Recorder(rows, names[name])

    ends, lifts = [1], [1]
    while lifts and rounds:
        start = len(rows)
        for r in lifts:
            kind, a, _, f = rows[r - 1]
            g = u._promote(derivative_rule(f)(u, _Recorder(rows, r), lift))
            rows[r - 1] = (kind, a, g.reg, f)
        ends.append(len(rows))
        lifts = [r for r in range(start + 1, len(rows) + 1) if rows[r - 1][0] == "unary"]
        rounds -= 1
    return Plan(rows, ends, {})


def own(fn: ElementaryFn) -> bool:
    """Whether fn is the catalogue's own row function or cached power, not a
    registered function or a `counted_variant` copy."""
    name = fn.name
    return fn is (pow_fn(pow_exponent(name)) if is_pow(name) else _ROW_FNS.get(name))


#: The catalogue's own functions' plans, by name, each recorded on first use.
_PLANS: dict[str, Plan] = {}


def plan(fn: ElementaryFn, rounds: int = -1) -> Plan:
    """fn's plan: cached and closed for the catalogue's own functions, else
    recorded now through round `rounds`.  Threads that race record equal
    plans."""
    found = _PLANS.get(fn.name)
    if found is not None and found.rows[0][3] is fn:
        return found
    if not own(fn):
        return record(fn, rounds)
    found = _PLANS[fn.name] = record(fn)
    return found


def head(regs: list, kind: str, a, b, fn) -> float:
    """The head of a row (an op on registers, each an entry list), with the
    checks of its operator or lift: a lift's arguments are u's head."""
    if kind == "const":
        return float(a)
    x0 = regs[a][0]
    if kind == "unary":
        derivative_rule(fn)
        fn.check_domain([x0])
        return float(fn.value([x0]))
    if kind == "neg":
        return -x0
    y0 = regs[b][0]
    if kind == "div":
        if y0 == 0.0:
            raise DomainError("div", (x0, y0))
        return x0 / y0
    return x0 + y0 if kind == "add" else x0 - y0 if kind == "sub" else x0 * y0


def product(out: list, a: list, b: list, table: list, targets: range) -> None:
    """Append a * b at each target t: a_0 b_t, then its splits in ascending
    r, from +0.0, each term w a_r b_s."""
    a0 = a[0]
    for t in targets:
        acc = 0.0 + a0 * b[t]
        for r, s, w, _ in table[t]:
            acc += w * a[r] * b[s]
        out.append(acc)


def quotient(q: list, a: list, b: list, table: list, targets: range) -> None:
    """Append a / b at each target t > 0, solving q * b = a for q_t: its
    splits have r != 0, so they read q_s already appended."""
    b0 = b[0]
    for t in targets:
        acc = 0.0
        for r, s, w, _ in table[t]:
            acc += w * b[r] * q[s]
        q.append((a[t] - acc) / b0)


def euler(out: list, u: list, v: list, table: list, targets: range, d: int) -> None:
    """Append degree d of a lift w = f(u) at each target t of that degree:
    the Euler sum of e u_r v_s over its splits, from +0.0, over d, with v
    the coefficients of g = f'(u) through degree d - 1 (E w = g E u)."""
    for t in targets:
        acc = 0.0
        for r, s, _, e in table[t]:
            acc += e * u[r] * v[s]
        out.append(acc / d)
