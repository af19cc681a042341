"""Dense state-space evaluation traces: the brute-force differentiation oracle.

A function in n variables built from mu elementary steps is modelled on the
state space R^(n+mu): inputs are embedded into the first n slots, step i
fills slot n+i from earlier slots, and a final projection selects the m
output slots.  Differentiation is then literal linear algebra: the Jacobian
of step i is the identity with row n+i replaced by the step's gradient
(spread over its argument slots, zero elsewhere, including the diagonal),
and directional derivatives / adjoints are right-to-left products of those
materialised matrices against embedded seed vectors.

Everything here favours transparency over speed; matrices are dense and the
state-space dimension is capped.  Row sums use exact (correctly rounded)
accumulation so results do not depend on summation order; a row that
overflows on the way, or holds both infinities, takes the plain IEEE sum.
A matrix is a list of rows of Python floats, and its transpose is
``zip(*rows)``.
"""

from __future__ import annotations

import io
import math
from operator import mul
from typing import Iterable, Optional, Sequence

from .catalog import DomainError, Record
from .expr import FunctionDef, StateProgram, arg_slots

#: Dense matrices only exist for validation; refuse absurd state spaces.
MAX_STATE_DIM = 512

FORWARD = "forward"
REVERSE = "reverse"


class TraceRecord(Record):
    """The mu+1 state vectors of a run, optionally paired with forward
    derivative states or reverse adjoint states.

    `derivative_states[i]` is the derivative state after i steps (forward)
    or the adjoint state with mu-i reverse steps applied (reverse), so both
    sequences align index-for-index with `states`.  Unlike other records,
    its fields can be assigned, so it has no hash.
    """

    __slots__ = _fields = _compared = ("states", "derivative_states", "kind")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, states: list[list[float]],
                 derivative_states: Optional[list[list[float]]] = None,
                 kind: Optional[str] = None) -> None:
        self._set(states, derivative_states, kind)

    def to_csv(self) -> str:
        """One row per state vector; exact shortest round-trip decimals."""
        import csv  # here, so that `graph --annotate` does not load it

        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        dim = len(self.states[0])
        writer.writerow(["vector"] + [f"slot{i}" for i in range(dim)])
        for i, state in enumerate(self.states):
            writer.writerow([f"v{i}"] + [repr(x) for x in state])
        if self.derivative_states is not None:
            label = "vdot" if self.kind == FORWARD else "vbar"
            for i, state in enumerate(self.derivative_states):
                writer.writerow([f"{label}{i}"] + [repr(x) for x in state])
        return buf.getvalue()


def compile_program(fdef: FunctionDef) -> StateProgram:
    """The definition's compiled program (`FunctionDef.program`), refused
    when its state space is too large for dense matrices."""
    program = fdef.program
    if program.dim > MAX_STATE_DIM:
        raise ValueError(f"state dimension {program.dim} exceeds {MAX_STATE_DIM}")
    return program


def forward_trace(p: StateProgram, c: Sequence[float]) -> TraceRecord:
    """Run the value sweep, recording every state vector."""
    if len(c) != p.n:
        raise ValueError(f"expected {p.n} inputs, got {len(c)}")
    state = [float(x) for x in c] + [0.0] * p.mu
    states = [list(state)]
    for i, op in enumerate(p.ops):
        fn = op[3]
        if fn is None:  # a constant
            state[p.n + i] = op[1]
        else:
            args = [state[s] for s in arg_slots(op)]
            try:
                fn.check_domain(args)
            except DomainError as err:
                raise err.at(f"step {i + 1} ({fn.name})") from None
            state[p.n + i] = fn.value(args)
        states.append(list(state))
    return TraceRecord(states)


def step_jacobian(p: StateProgram, i: int, state: Sequence[float]) -> list[list[float]]:
    """The dense Jacobian of transition i at the given pre-state: identity
    with row n+i replaced by the step's gradient (zero diagonal included)."""
    op = p.ops[i]
    mat = _unit_rows(p.dim, range(p.dim))
    row = mat[p.n + i % p.mu] = [0.0] * p.dim  # a negative i counts from the end
    slots = arg_slots(op)
    if slots:
        for s, d in zip(slots, op[3].partials([state[s] for s in slots])):
            row[s] += d
    return mat


def _unit_rows(width: int, cols: Iterable[int]) -> list[list[float]]:
    """One row of `width` zeros per entry c of `cols`, holding 1.0 at column
    c when c < width: rows of the identity, picked and cropped."""
    rows = [[0.0] * width for _ in cols]
    for row, c in zip(rows, cols):
        if c < width:
            row[c] = 1.0
    return rows


def _matvec(rows: Iterable[Sequence[float]], vec: Sequence[float]) -> list[float]:
    """Each row's products with vec (0 * inf is NaN here), summed exactly
    rounded so immune to accumulation order; where fsum refuses (an
    intermediate overflow, or inf + -inf), the plain IEEE sum."""
    out = []
    for row in rows:
        try:
            out.append(math.fsum(map(mul, vec, row)))
        except (OverflowError, ValueError):
            out.append(sum(map(mul, vec, row)))
    return out


def forward_derivative_trace(
    p: StateProgram, c: Sequence[float], xdot: Sequence[float]
) -> TraceRecord:
    """Forward sweep carrying both the states and the derivative states."""
    if len(xdot) != p.n:
        raise ValueError(f"expected a direction of length {p.n}")
    record = forward_trace(p, c)
    vdot = _matvec(_unit_rows(p.n, range(p.dim)), xdot)
    derivative_states = [vdot]
    for i in range(p.mu):
        mat = step_jacobian(p, i, record.states[i])
        vdot = _matvec(mat, vdot)
        derivative_states.append(vdot)
    record.derivative_states = derivative_states
    record.kind = FORWARD
    return record


def forward_derivative(
    p: StateProgram, c: Sequence[float], xdot: Sequence[float]
) -> list[float]:
    """J_f(c) . xdot via the right-to-left dense matrix product."""
    record = forward_derivative_trace(p, c, xdot)
    return _matvec(_unit_rows(p.dim, p.output_slots), record.derivative_states[-1])


def reverse_derivative_trace(
    p: StateProgram, c: Sequence[float], ybar: Sequence[float]
) -> TraceRecord:
    """Value sweep, then the transposed Jacobians applied last step first."""
    if len(ybar) != p.m:
        raise ValueError(f"expected a covector of length {p.m}")
    record = forward_trace(p, c)
    vbar = _matvec(zip(*_unit_rows(p.dim, p.output_slots)), ybar)
    adjoints = [vbar]
    for i in range(p.mu - 1, -1, -1):
        mat = step_jacobian(p, i, record.states[i])
        vbar = _matvec(zip(*mat), vbar)
        adjoints.append(vbar)
    adjoints.reverse()  # align index i with "i steps of the value sweep done"
    record.derivative_states = adjoints
    record.kind = REVERSE
    return record


def reverse_derivative(
    p: StateProgram, c: Sequence[float], ybar: Sequence[float]
) -> list[float]:
    """ybar . J_f(c), computed through the transposed product."""
    record = reverse_derivative_trace(p, c, ybar)
    return _matvec(zip(*_unit_rows(p.n, range(p.dim))), record.derivative_states[0])
