"""Lazy univariate derivative towers (f, f', f'', ...) at a point: n = 1
Berz jets of unbounded order on the Taylor engine (`adkit.taylor`), one
entry per degree.  Every tower is an engine node.  A leaf `Tower(head,
tail_fn)` appends the heads of its memoised tails, and the operators
``+ - * /`` build nodes whose products, quotients and lifts run the
engine's loops over the n = 1 split table, entry d splitting into
(r, d - r, binom(d, r), r binom(d, r)): a lift w = f(u) has entry 1 g_0 u_1
and, from entry 2, w_d = (sum_{r=1..d} r binom(d, r) u_r g_{d-r}) / d.

Products and lifts of flat towers (`taylor.flat`: a finite head, then
signed zeros, as constants are) are flat.  An entry of a product with a
flat factor costs a multiply, and a flat tower's lift only its rule's
heads: while the entries read are finite, every other term of the general
sum is a signed zero, and 0.0 + p, bit for bit, is the sum.

A lift replays its function's plan (`taylor.plan`) over registers of its
own, u's entries, w's and one entry list per row (`_run`), as `force`
filled the rule graph that the plan replaces: round r's rows lag r
entries behind w, and their heads, with their checks, are taken at entry
r, or all at entry 1 to decide whether a flat u settles, so a lift fills
only what its forcing reads.  A plan's codes and fill order are derived
once per plan (`_prepared`); with its rows they hold about 0.27 KB per row
(pow1000: 3002 rows, 0.8 MB), kept for the life of the process for the
catalogue's own functions.

`eval_generic` over towers makes no node per step: `TowerAlgebra.sweep`
writes each step's head, with its checks, into a program state of one
entry list per slot, and its outputs are nodes that fill the slots they
read, in op order and in blocks, as they are forced.  `eval_generic`'s
loop takes programs with an ``other`` step, or an input not filled with
zeros, and builds one node per step.
"""

from __future__ import annotations

import operator
import threading
from itertools import islice
from math import isfinite
from typing import Callable, Sequence

from . import taylor
from .catalog import DomainError, ElementaryFn, Lifted, _LiftedAlgebra, integer

#: The highest entry a tower fills: from order 1021 the lift's weight
#: r * binom(d, r) overflows a float, and from 1030 binom(d, r) does.
MAX_TOWER_ORDER = 1020

_LOCK = threading.RLock()  # held while forcing, so threads agree on entries


def _read_tail(node: Tower, d: int, top: int) -> None:
    """Entry d of a leaf: the head of its d-th tail, reached from the last
    one read (`extra`), which is empty before entry 1: no leaf refers to itself."""
    node.extra = tail = (node.extra or node).tail()
    node.entries.append(tail.entries[0])


def _zero(node: Tower, d: int, top: int) -> None:
    node.entries.append(0.0)


def tower_const(c: float) -> Tower:
    """(c, 0, 0, ...)"""
    return Tower.make([float(c)], (), _zero)


def tower_var(c: float) -> Tower:
    """The identity's tower at c: (c, 1, 0, 0, ...)"""
    return Tower.make([float(c), 1.0], (), _zero)


def _tower(a, caller: str) -> Tower:
    """a, which `caller` refuses unless it is a tower."""
    if not isinstance(a, Tower):
        raise TypeError(f"{caller} needs a Tower, not {type(a).__name__}")
    return a


def tower_take(a: Tower, k: int) -> list[float]:
    """The first k entries; computes none beyond them."""
    k = integer(k, "tower_take's k")
    _tower(a, "tower_take")
    if k < 1:
        raise ValueError("need k >= 1")
    if k > MAX_TOWER_ORDER + 1:
        raise ValueError(f"tower order {k - 1} exceeds {MAX_TOWER_ORDER}")
    with _LOCK:
        _grow(k - 1)
        return taylor.force(a, k)[:k]


def tower_df(a: Tower) -> Tower:
    """The shift derivation: drop the head, exposing the derivative stream."""
    return _tower(a, "tower_df").tail()


def _binary(node: Tower, d: int, top: int) -> None:
    a, b = node.inputs
    node.entries.append(node.extra(a.entries[d], b.entries[d]))


def _neg(node: Tower, d: int, top: int) -> None:
    node.entries.append(-node.inputs[0].entries[d])


#: The n = 1 split table (see `adkit.taylor`) through the highest entry
#: forced so far: entry d holds (r, d - r, binom(d, r), r binom(d, r)) for
#: r = 1..d, as `jet_shape(1, N).pair_table()` does through N.
_SPLITS: list[list[tuple]] = [[]]
_LAST = [1]  # binom(d, r) as exact integers for the last entry of _SPLITS
_INDEX = list(range(MAX_TOWER_ORDER + 1))  # each position one int object


def _grow(order: int) -> None:
    """Extend _SPLITS through `order`, by Pascal's rule on exact integers,
    each binomial rounded to a float once; equal weights in an entry are
    one float object.  Callers hold the forcing lock."""
    while len(_SPLITS) <= order:
        _LAST[:] = [1, *map(operator.add, _LAST, _LAST[1:]), 1]
        d, splits, interned = len(_LAST) - 1, [], {}
        for r in _INDEX[1:d + 1]:
            w = float(_LAST[r])
            e = r * w
            splits.append((r, _INDEX[d - r], interned.setdefault(w, w),
                           interned.setdefault(e, e)))
        _SPLITS.append(splits)


def _times(node: Tower, d: int, top: int) -> None:
    """Entry d of x * y, by a kernel chosen at d = 1, once lifts settled."""
    x, y = node.inputs
    c, v = (x, y) if taylor.flat(x) else (y, x)
    if not taylor.flat(c):
        node.fill, node.extra = _split, taylor.product
    elif taylor.flat(v):
        taylor.settle(node)
    else:
        node.fill, node.extra = _scaled, (c.entries[0], v.entries, 0.0)
    node.fill(node, d, top)


def _scaled(node: Tower, d: int, top: int) -> None:
    """Entry d of c * v or v * c, c flat: 0.0 + c_0 v_d while no binom(d, i)
    v_i overflows (2^d times the sum of |v_i| over i < d is finite)."""
    c, v, total = node.extra
    node.extra = c, v, total + abs(v[d - 1])
    if isfinite(node.extra[2] * 2.0 ** d):
        node.entries.append(0.0 + c * v[d])
    else:
        node.fill, node.extra = _split, taylor.product
        _split(node, d, top)


def _split(node: Tower, d: int, top: int) -> None:
    """Entry d of a product or quotient (`extra`: `taylor.product`, `taylor.quotient`)."""
    x, y = node.inputs
    node.extra(node.entries, x.entries, y.entries, _SPLITS, range(d, d + 1))


class Tower(Lifted):
    """A lazy derivative sequence, as a node whose kernel `fill` appends
    entry d from `inputs` and `extra`.  ``Tower(head, tail_fn)`` is a leaf,
    a head and a memoised tail; operations build their nodes by `make`.

    Towers carry the operators ``+ - * /`` and unary ``-``, with each other
    and with floats (a float c is the constant tower (c, 0, 0, ...)).
    """

    __slots__ = ("entries", "inputs", "fill", "extra", "serial", "_tail")
    zero = staticmethod(_zero)

    def __init__(self, head: float, tail_fn: Callable[[], "Tower"]):
        if not callable(tail_fn):
            raise TypeError(f"a tower's tail_fn must be callable, not {type(tail_fn).__name__}")
        self.entries, self.inputs, self.fill, self.extra = [float(head)], (), _read_tail, None
        self._tail, self.serial = tail_fn, next(taylor.serial)

    @staticmethod
    def make(entries: list[float], inputs: tuple, fill, extra=None) -> Tower:
        """An operation's node."""
        t = object.__new__(Tower)
        t.entries, t.inputs, t.fill, t.extra, t._tail = entries, inputs, fill, extra, None
        t.serial = next(taylor.serial)
        return t

    @property
    def head(self) -> float:
        return self.entries[0]

    def tail(self, k: int = 1) -> Tower:
        """The entries from entry k >= 0 on: a leaf's tail at k = 1,
        `tail_fn()` run once under the lock that forcing holds, else a leaf
        over them."""
        k = integer(k, "a tower's tail k")
        if k < 0:
            raise ValueError(f"Tower.tail needs k >= 0, not {k}")
        with _LOCK:
            if k != 1 or self._tail is None:
                return Tower(tower_take(self, k + 1)[k], lambda: self.tail(k + 1))
            if callable(self._tail):
                tail = self._tail()
                if not isinstance(tail, Tower):
                    raise TypeError(f"a tower's tail_fn returned {type(tail).__name__}, not a Tower")
                self._tail = tail  # a tail_fn may refer to its leaf
            return self._tail

    def __repr__(self) -> str:
        return f"Tower(head={self.entries[0]!r}, ...)"

    def _promote(self, b):
        if isinstance(b, (int, float)):
            return tower_const(b)
        return b if isinstance(b, Tower) else NotImplemented

    def _add(self, b: Tower) -> Tower:
        return Tower.make([self.entries[0] + b.entries[0]], (self, b), _binary, operator.add)

    def _sub(self, b: Tower) -> Tower:
        return Tower.make([self.entries[0] - b.entries[0]], (self, b), _binary, operator.sub)

    def __neg__(self) -> Tower:
        return Tower.make([-self.entries[0]], (self,), _neg)

    def _mul(self, b: Tower) -> Tower:
        """Entry n is the Leibniz sum: sum_i binom(n, i) a_i b_{n-i}."""
        return Tower.make([self.entries[0] * b.entries[0]], (self, b), _times)

    def _div(self, b: Tower) -> Tower:
        """The q with q * b = self, from the Leibniz sum solved for its last
        term: q_n = (a_n - sum_{i>=1} binom(n, i) b_i q_{n-i}) / b_0."""
        if b.entries[0] == 0.0:
            raise DomainError("div", (self.entries[0], b.entries[0]))
        return Tower.make([self.entries[0] / b.entries[0]], (self, b), _split, taylor.quotient)


def lift(fn: ElementaryFn, args: list[Tower]) -> Tower:
    """Lift a unary catalogue function with a rule (else UnsupportedOrderError)
    onto the tower args[0], as a node that replays fn's plan (`_lifted`)."""
    a = _tower(args[0], "a tower lift")
    return Tower.make([taylor.head([a.entries], "unary", 0, None, fn)], (a,), _lifted, fn)


def _lifted(node: Tower, d: int, top: int) -> None:
    """Entry d of a lift (`extra`: its function, then the state of `_run`
    over the registers u and w); once it settles, a constant."""
    if d == 1:
        u = node.inputs[0]
        node.extra = ([u.entries, node.entries],
                      [_ZEROS if u.fill is _zero else None, (_run, 0, None, node.extra)])
    regs, codes = node.extra
    _run(regs, codes, 1, d, d)
    if codes[1] is _ZEROS:
        taylor.settle(node)


# A program's sweep state, and a lift's under its plan, is a list of
# registers, each an entry list, with one code per register, (kernel, x, y,
# ...): `kernel(registers, codes, i, lo, hi)` appends register i's entries
# lo..hi from the registers x and y (or None), which hold them already.


def _zeros(regs: list, codes: list, i: int, lo: int, hi: int) -> None:
    regs[i] += [0.0] * (hi + 1 - lo)


#: The code of a register filled with +0.0: an input, a constant, or a
#: product or lift that settled.
_ZEROS = (_zeros, None, None)


def _each(regs: list, codes: list, i: int, lo: int, hi: int) -> None:
    """x + y, x - y or -x, entry by entry (`code[3]`: the operator)."""
    _, x, y, op = codes[i]
    if y is None:
        regs[i] += map(op, regs[x][lo:hi + 1])
    else:
        regs[i] += map(op, regs[x][lo:hi + 1], regs[y][lo:hi + 1])


def _kernel(regs: list, codes: list, i: int, lo: int, hi: int) -> None:
    """x * y or x / y (`code[3]`: `taylor.product` or `taylor.quotient`)."""
    _, x, y, kernel = codes[i]
    kernel(regs[i], regs[x], regs[y], _SPLITS, range(lo, hi + 1))


def _mul(regs: list, codes: list, i: int, lo: int, hi: int) -> None:
    """x * y, by the kernel that `_times` picks at entry 1."""
    _, x, y = codes[i]
    c, v = (x, y) if _flat(regs, codes, x) else (y, x)
    codes[i] = ((_kernel, x, y, taylor.product) if not _flat(regs, codes, c) else _ZEROS
                if _flat(regs, codes, v) else [_scale, x, y, regs[c][0], v, 0.0])
    codes[i][0](regs, codes, i, lo, hi)


def _scale(regs: list, codes: list, i: int, lo: int, hi: int) -> None:
    """c * v or v * c, c flat, as `_scaled` fills it (`code[3:]`: c_0, v and
    the sum it keeps)."""
    code = codes[i]
    out, c, v, total = regs[i], code[3], regs[code[4]], code[5]
    for d in range(lo, hi + 1):
        total += abs(v[d - 1])
        if not isfinite(total * 2.0 ** d):
            codes[i] = (_kernel, code[1], code[2], taylor.product)
            return _kernel(regs, codes, i, d, hi)
        out.append(0.0 + c * v[d])
    code[5] = total


def _div(regs: list, codes: list, i: int, lo: int, hi: int) -> None:
    """x / y, by `_divided` if y is flat at entry 1, else by `taylor.quotient`."""
    _, x, y = codes[i]
    codes[i] = (_divided, x, y) if _flat(regs, codes, y) else (_kernel, x, y, taylor.quotient)
    codes[i][0](regs, codes, i, lo, hi)


def _divided(regs: list, codes: list, i: int, lo: int, hi: int) -> None:
    """x / y, y flat: q_t = x_t / y_0 while q's entries are finite, every
    term w y_r q_s of `taylor.quotient` then being a signed zero, so its sum
    +0.0 and x_t - 0.0 x_t; from the first that is not, `taylor.quotient`."""
    _, x, y = codes[i]
    out, a, b0 = regs[i], regs[x], regs[y][0]
    for t in range(lo, hi + 1):
        if not isfinite(out[t - 1]):
            codes[i] = (_kernel, x, y, taylor.quotient)
            return _kernel(regs, codes, i, t, hi)
        out.append(a[t] / b0)


def _flat(regs: list, codes: list, i: int) -> bool:
    """`taylor.flat` of register i."""
    e = regs[i]
    return codes[i] is _ZEROS and not e[1] and isfinite(e[0]) and not any(islice(e, 2, None))


def _lift(regs: list, codes: list, i: int, lo: int, hi: int) -> None:
    """Entry hi (= lo) of a lift of register 0, whose g (`code[2]`) holds
    entries through hi - 1: g_0 u_1, then the Euler sum."""
    u, g = regs[0], regs[codes[i][2]]
    if hi == 1:
        regs[i].append(g[0] * u[1])
        return
    acc = 0.0  # `taylor.euler` at one entry
    for r, s, _, e in _SPLITS[hi]:
        acc += e * u[r] * g[s]
    regs[i].append(acc / hi)


def _run(regs: list, codes: list, i: int, lo: int, hi: int) -> None:
    """A lift of x by its function's plan (`taylor.plan`), filled as `force`
    filled the rule graph: round r's rows lag r entries behind the lift, and
    their heads, with their checks, are taken once it is forced to entry r.
    At entry 1 the lift settles if x is flat and every head of the plan is
    finite.  At entry d the rounds below d are filled deepest first, each
    in row order, as a lift's entry e reads its g through e - 1, then the
    lift's entry d; constants are filled in a block.  `code[3]` is the
    function before entry 1, then the registers, their codes, the plan and
    the rest of `_prepared`."""
    code = codes[i]
    if lo == 1:
        x, plan = code[1], taylor.plan(code[3])
        template, prepared = _prepared(plan)
        lregs = [regs[x], regs[i]]
        flat = _flat(regs, codes, x)
        lcodes = [_ZEROS if flat else None, *template]
        codes[i] = code = (_run, x, None, lregs, lcodes, plan, prepared)
        _heads(lregs, plan.rows, plan.end(-1 if flat else hi))
        _lift(lregs, lcodes, 1, 1, 1)
        if flat and all(isfinite(e[0]) for e in lregs):
            codes[i] = _ZEROS
            return _zeros(regs, codes, i, 2, hi)
        lo = 2
    _, _, _, lregs, lcodes, plan, (order, starts, consts) = code
    if len(lregs) <= plan.ends[-1]:  # rows without heads are left
        _heads(lregs, plan.rows, plan.end(hi))
    for r in consts:
        if r < len(lregs):
            lregs[r] += [0.0] * (hi - len(lregs[r]))
    last = len(starts) - 1
    u, w, g = lregs[0], lregs[1], lregs[lcodes[1][2]]
    for d in range(lo, hi + 1):
        for reg, r in order if d > last else islice(order, starts[d - 1], None):
            e = d - r
            lcodes[reg][0](lregs, lcodes, reg, e, e)
        acc = 0.0  # `_lift`, inline
        for p, q, _, e in _SPLITS[d]:
            acc += e * u[p] * g[q]
        w.append(acc / d)


def _prepared(plan: taylor.Plan) -> tuple:
    """The codes of the plan's registers from w on; the (register, round)
    pairs of its rows past w but constants, deepest round first and each
    round in row order; where each round r starts among them (`starts[r]`);
    and its constants' registers."""
    prepared = plan.memo.get("towers")
    if prepared is None:
        ends, rows, order, starts = plan.ends, plan.rows, [], [0] * len(plan.ends)
        for r in range(len(ends) - 1, 0, -1):
            starts[r] = len(order)
            order += [(reg, r) for reg in range(ends[r - 1] + 1, ends[r] + 1)
                      if rows[reg - 1][0] != "const"]
        consts = [reg for reg, row in enumerate(rows, 1) if row[0] == "const"]
        prepared = plan.memo["towers"] = ([_code(*row) for row in rows], (order, starts, consts))
    return prepared


def _heads(regs: list, rows: list, end: int) -> None:
    """The heads of the rows before `end` that have none yet."""
    for row in islice(rows, len(regs) - 1, end):
        regs.append([taylor.head(regs, *row)])


def _code(kind: str, a, b, fn) -> tuple:
    """A step's code before entry 1: a program's lift is run by its plan,
    a plan's nested lift (b: its g) by `_lift`."""
    if kind == "const":
        return _ZEROS
    if kind == "unary":
        return (_run, a, None, fn) if b is None else (_lift, a, b)
    if kind == "mul" or kind == "div":
        return (_mul if kind == "mul" else _div, a, b)
    return (_each, a, b, getattr(operator, kind))


def _swept(node: Tower, d: int, top: int) -> None:
    """Fill an output of `TowerAlgebra.sweep` (`extra`: its program's slots
    and codes, and the slots it reads in op order, itself last) through
    `top`, the entry `force` fills to; once its slot settles, a constant."""
    slots, codes, reads = node.extra
    for s in reads:
        if len(slots[s]) <= top:
            codes[s][0](slots, codes, s, len(slots[s]), top)
    if codes[reads[-1]] is _ZEROS:
        node.fill, node.extra = _zero, None


class TowerAlgebra(_LiftedAlgebra):
    """Univariate derivative towers of unbounded order."""

    constant = staticmethod(tower_const)
    lift = staticmethod(lift)

    @staticmethod
    def sweep(program, inputs: Sequence, slots: list) -> list[Tower] | None:
        """`expr.eval_generic` over towers as one sweep of the op table into
        a program state, one entry list per slot in `slots`: each step's
        head now, with its checks, the rest as outputs are forced (`_swept`).
        None, with nothing done, if an input is not a leaf filled with zeros
        (`tower_var`, `tower_const`), or a step is an ``other`` one."""
        ops, n = program.ops, program.n
        if not all(type(x) is Tower and x.fill is _zero and not x.inputs for x in inputs) or any(
                kind == "other" for kind, _, _, _ in ops):
            return None
        slots += [x.entries for x in inputs]
        codes, canon = [_ZEROS] * n, list(range(n))  # canon: the slot a copy copies
        for kind, a, b, fn in ops:  # this step fills slot len(slots)
            if kind == "copy":
                canon.append(canon[a])
                slots.append(slots[a])
                codes.append(None)
                continue
            if kind != "const":
                a, b = canon[a], b if b is None else canon[b]
            canon.append(len(slots))
            slots.append([taylor.head(slots, kind, a, b, fn)])
            codes.append(_code(kind, a, b, fn))
        outputs: dict[int, Tower] = {}
        for c in {canon[s] for s in program.output_slots}:
            reads = {c}
            for s in range(c, n - 1, -1):
                if s in reads:
                    reads.update(codes[s][1:3])
            reads.discard(None)
            outputs[c] = (inputs[c] if c < n else Tower.make(slots[c], (), _zero)
                          if codes[c] is _ZEROS else
                          Tower.make(slots[c], (), _swept, (slots, codes, sorted(reads))))
        return [outputs[canon[s]] for s in program.output_slots]
