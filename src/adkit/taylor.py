"""One Taylor engine for towers and jets (Griewank & Walther, *Evaluating
Derivatives*, ch. 13): lazy nodes filled one degree block at a time.

A node keeps its inputs, its coefficients so far in graded order, and the
kernel `fill(node, d, levels, j)` that appends its degree-d block, unless
it is complete or a view sharing a lift's list; it is filled through degree
d - 1 when it holds `ends[d - 1]` coefficients.  `force` fills degree d of
the nodes it needs for d = 1, 2, ... in creation order, which is
topological, so nothing recurses.  A lift w = f(u) builds g = f'(u) once,
from f's rule, when its degree 1 is filled; g reads w and the lifts its
rule names on u (cos for sin) through views, so the graph has no cycles.
A lift of a flat u settles (`grow`): its class's `zero` kernel fills the
rest with +0.0, and g is never filled.  `flat` is the one flatness test.

Jets in both bases and towers fill their products, quotients and lifts by
the same three loops (`product`, `quotient`, `euler`).  Each reads a split
table: for each target t, its splits t = r + s with r != 0 in ascending r,
as tuples (r, s, w, e) of positions, the product's weight w and the Euler
sum's weight e.  A Berz jet's table carries w = t!/(r! s!) and e = |r| w,
a standard jet's w = 1.0 and e = float(|r|), and a tower's is the n = 1
Berz table, entry d splitting into (r, d - r, binom(d, r), r binom(d, r)).

Towers build and force this graph on every evaluation.  A jet lift of one
of the catalogue's own functions builds it once per (function, shape,
basis) and records it (`jets._Schedule`): its later lifts replay the
nodes' heads and these kernels in the order `force` runs them, and decide
a flat argument's settling from the heads `_flat_graph` reads.
"""

from __future__ import annotations

from itertools import count, islice
from math import isfinite

from .catalog import ElementaryFn, derivative_rule, lookup

#: Creation numbers of nodes.
serial = count()


def force(t, k: int) -> list[float]:
    """t's coefficients, filled through at least degree k - 1."""
    if len(t.entries) < t.ends[k - 1]:
        # levels[j] holds the nodes to fill through degree k - 1 - j.
        levels = [_unfilled(t, k)] + [None] * (k - 2)
        for d in range(1, k):
            end = t.ends[d - 1]
            for j in range(k - d):
                if not levels[j]:
                    break
                for node in levels[j]:  # grows: a lift's g joins the next level
                    if len(node.entries) == end:
                        node.fill(node, d, levels, j)
    return t.entries


def _unfilled(t, k: int) -> list:
    """t and its ancestors not filled through degree k - 1, in creation order."""
    end, seen, stack = t.ends[k - 1], {}, [t]
    while stack:
        node = stack.pop()
        if node.fill is None or len(node.entries) >= end or node in seen:
            continue
        seen[node] = node.serial
        stack.extend(node.inputs)
    return sorted(seen, key=seen.get)


def lift(fn: ElementaryFn, family: tuple):
    """fn lifted on a node a, in the family (a, views of its lifts by name),
    as nodes `a.make(entries, inputs, fill, extra, a)` with kernel a.chain
    (or a.zero, once settled)."""
    derivative_rule(fn)
    a, views = family
    fn.check_domain([a.entries[0]])
    entries = [float(fn.value([a.entries[0]]))]
    views[fn.name] = view = a.make(entries, (), None, None, a)
    return a.make(entries, (a,), a.chain, (fn, family, view), a)


def grow(node, levels: list, j: int):
    """The lift node's g = f'(u), built once from its rule as its second
    input.  If u and g's graph are flat, the lift settles to +0.0 and g is
    never filled.  Else its degree d reads g below d, so g's new nodes (not
    filled at degree 1, unlike u; none if g is complete or a view) join the
    level below."""
    if len(node.inputs) == 1:
        build(node)
    u, g = node.inputs
    if flat(u) and _flat_graph(node):
        settle(node)
    elif j + 1 < len(levels) and g.fill:
        levels[j + 1] = (levels[j + 1] or []) + _unfilled(g, 2)
    return g


def flat(node) -> bool:
    """Whether node is filled by its class's `zero` kernel past a finite head
    and holds only signed zeros there so far."""
    return (node.fill is node.zero and not node.entries[1] and isfinite(node.entries[0])
            and not any(islice(node.entries, 2, None)))


def settle(node) -> None:
    """From its next degree on, node is +0.0 in every coefficient."""
    node.fill, node.inputs, node.extra = node.zero, (), None


def build(node) -> None:
    """Give the unbuilt lift node its g = f'(u), from its rule, as its second input."""
    fn, family, view = node.extra
    a, views = family
    g = a._promote(fn.derivative(
        a, view, lambda name: views.get(name) or lift(lookup(name), family)))
    node.inputs = (a, g)


def _flat_graph(w) -> bool:
    """Whether w's entries so far and the heads of g's graph are finite.  A
    rule builds g from u, w, lifts on u and floats; arithmetic keeps signed
    zeros past finite heads, and a lift read past its head does if its own
    g graph does, so that is built and walked too, read one degree lower (a
    jet lift's degree 1, its first partial, is its g's head for the
    catalogue's functions).  `need` maps a node to the degrees read."""
    if not all(map(isfinite, w.entries)):
        return False
    need, stack = {}, [(w.inputs[1], len(w.ends) - 2)]
    while stack:
        node, m = stack.pop()
        if need.get(node, -1) < m:
            need[node] = m
            if not isfinite(node.entries[0]):
                return False
            lifted = node.fill is node.chain
            if lifted and m and len(node.inputs) == 1:
                build(node)
            stack += [(x, m - lifted) for x in node.inputs]
    return True


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
