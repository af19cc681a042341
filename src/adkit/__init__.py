"""adkit: multi-mode scalar automatic differentiation.

Forward mode over dual numbers, tape-based reverse mode, truncated
polynomial jets for all partials up to order N, lazy derivative towers of
unbounded order, a dense state-space trace oracle for cross-checking, an
expression front-end with DOT export, and exact operation counting.
"""

from .algebras import (
    CountingAlgebra,
    DualAlgebra,
    JetAlgebra,
    RealAlgebra,
    TowerAlgebra,
)
from .catalog import (
    CATALOG,
    DomainError,
    ElementaryFn,
    UnsupportedOrderError,
    pow_fn,
)
from .counting import EvalCounter, counted_variant
from .dual import Dual
from .engine import (
    CostReport,
    SeedSpec,
    Tape,
    backprop,
    cost_compare,
    forward_directional,
    jacobian,
    record,
    reverse_gradient,
)
from .expr import (
    Apply,
    Constant,
    Expr,
    FunctionDef,
    ParseError,
    Variable,
    eval_generic,
    parse,
    schedule,
    to_dot,
    unparse,
)
from .jets import (
    BERZ,
    STANDARD,
    Jet,
    JetShape,
    jet_constant,
    jet_convert_basis,
    jet_extract_partial,
    jet_shape,
    jet_variable,
)
from .towers import (
    Tower,
    tower_const,
    tower_df,
    tower_take,
    tower_var,
)
from .trace import (
    StateProgram,
    TraceRecord,
    compile_program,
    forward_derivative,
    forward_derivative_trace,
    forward_trace,
    reverse_derivative,
    reverse_derivative_trace,
)

__version__ = "0.1.0"
