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

numpy is imported by the functions that build or multiply matrices, not by
this module, so importing adkit (and every mode but this oracle) does not
load it.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from .catalog import DomainError
from .expr import FunctionDef, StateProgram

if TYPE_CHECKING:
    import numpy as np

#: Dense matrices only exist for validation; refuse absurd state spaces.
MAX_STATE_DIM = 512

FORWARD = "forward"
REVERSE = "reverse"


@dataclass
class TraceRecord:
    """The mu+1 state vectors of a run, optionally paired with forward
    derivative states or reverse adjoint states.

    `derivative_states[i]` is the derivative state after i steps (forward)
    or the adjoint state with mu-i reverse steps applied (reverse), so both
    sequences align index-for-index with `states`.
    """

    states: list[list[float]]
    derivative_states: Optional[list[list[float]]] = None
    kind: Optional[str] = None

    def to_csv(self) -> str:
        """One row per state vector; exact shortest round-trip decimals."""
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
    for i, step in enumerate(p.steps):
        args = [state[s] for s in step.arg_slots]
        try:
            step.fn.check_domain(args)
        except DomainError as err:
            raise err.at(f"step {i + 1} ({step.fn.name})") from None
        state[step.out_slot] = step.fn.value(args)
        states.append(list(state))
    return TraceRecord(states)


def step_jacobian(p: StateProgram, i: int, state: Sequence[float]) -> np.ndarray:
    """The dense Jacobian of transition i at the given pre-state: identity
    with row n+i replaced by the step's gradient (zero diagonal included)."""
    import numpy as np

    step = p.steps[i]
    mat = np.eye(p.dim)
    row = np.zeros(p.dim)
    args = [state[s] for s in step.arg_slots]
    for s, d in zip(step.arg_slots, step.fn.partials(args)):
        row[s] += d
    mat[step.out_slot, :] = row
    return mat


def _matvec(mat: np.ndarray, vec: Sequence[float]) -> list[float]:
    import numpy as np

    with np.errstate(over="ignore", invalid="ignore"):  # 0 * inf is NaN here
        prods = mat * np.asarray(vec)
    return [_row_sum(row.tolist()) for row in prods]  # one row of floats at a time


def _row_sum(row: list[float]) -> float:
    """Exactly rounded, so immune to accumulation order; where fsum refuses
    (an intermediate overflow, or inf + -inf), the plain IEEE sum."""
    try:
        return math.fsum(row)
    except (OverflowError, ValueError):
        return sum(row)


def _embed_matrix(p: StateProgram) -> np.ndarray:
    import numpy as np

    px = np.zeros((p.dim, p.n))
    for i in range(p.n):
        px[i, i] = 1.0
    return px


def _project_matrix(p: StateProgram) -> np.ndarray:
    import numpy as np

    py = np.zeros((p.m, p.dim))
    for j, s in enumerate(p.output_slots):
        py[j, s] = 1.0
    return py


def forward_derivative_trace(
    p: StateProgram, c: Sequence[float], xdot: Sequence[float]
) -> TraceRecord:
    """Forward sweep carrying both the states and the derivative states."""
    if len(xdot) != p.n:
        raise ValueError(f"expected a direction of length {p.n}")
    record = forward_trace(p, c)
    vdot = _matvec(_embed_matrix(p), xdot)
    derivative_states = [list(vdot)]
    for i in range(p.mu):
        mat = step_jacobian(p, i, record.states[i])
        vdot = _matvec(mat, vdot)
        derivative_states.append(list(vdot))
    record.derivative_states = derivative_states
    record.kind = FORWARD
    return record


def forward_derivative(
    p: StateProgram, c: Sequence[float], xdot: Sequence[float]
) -> list[float]:
    """J_f(c) . xdot via the right-to-left dense matrix product."""
    record = forward_derivative_trace(p, c, xdot)
    return _matvec(_project_matrix(p), record.derivative_states[-1])


def reverse_derivative_trace(
    p: StateProgram, c: Sequence[float], ybar: Sequence[float]
) -> TraceRecord:
    """Value sweep, then the transposed Jacobians applied last step first."""
    if len(ybar) != p.m:
        raise ValueError(f"expected a covector of length {p.m}")
    record = forward_trace(p, c)
    vbar = _matvec(_project_matrix(p).T, ybar)
    adjoints = [list(vbar)]
    for i in range(p.mu - 1, -1, -1):
        mat = step_jacobian(p, i, record.states[i])
        vbar = _matvec(mat.T, vbar)
        adjoints.append(list(vbar))
    adjoints.reverse()  # align index i with "i steps of the value sweep done"
    record.derivative_states = adjoints
    record.kind = REVERSE
    return record


def reverse_derivative(
    p: StateProgram, c: Sequence[float], ybar: Sequence[float]
) -> list[float]:
    """ybar . J_f(c), computed through the transposed product."""
    record = reverse_derivative_trace(p, c, ybar)
    return _matvec(_embed_matrix(p).T, record.derivative_states[0])
