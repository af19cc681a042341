"""adkit: multi-mode scalar automatic differentiation.

Forward mode over dual numbers, tape-based reverse mode, truncated
polynomial jets for all partials up to order N, lazy derivative towers of
unbounded order, a dense state-space trace oracle for cross-checking, an
expression front-end with DOT export, and exact operation counting.

Each exported name is loaded from its module on first use (PEP 562), so
importing the package, or one module of it, loads only what that needs.
"""

from importlib import import_module

#: The exports, by the module that defines them.
_MODULES = {
    "catalog": "CATALOG DomainError ElementaryFn RealAlgebra UnsupportedOrderError pow_fn",
    "counting": "CostReport CountingAlgebra EvalCounter cost_compare counted_variant",
    "dual": "Dual DualAlgebra",
    "engine": "SeedSpec Tape backprop forward_directional jacobian record reverse_gradient",
    "expr": "Apply Constant Expr FunctionDef ParseError StateProgram Variable eval_generic"
            " parse schedule to_dot unparse",
    "jets": "BERZ STANDARD Jet JetAlgebra JetShape jet_constant jet_convert_basis"
            " jet_extract_partial jet_shape jet_variable",
    "towers": "Tower TowerAlgebra tower_const tower_df tower_take tower_var",
    "trace": "TraceRecord compile_program forward_derivative forward_derivative_trace"
             " forward_trace reverse_derivative reverse_derivative_trace",
}
_HOME = {name: module for module, names in _MODULES.items() for name in names.split()}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
