"""Expression front-end: grammar, AST, compiled program, generic evaluation,
DOT export.

The surface language is a small infix grammar::

    def    := ident "(" ident ("," ident)* ")" "=" body
    body   := "let" ident "=" sum "in" body | tuple
    tuple  := "(" sum ("," sum)+ ")" | sum
    sum    := prod (("+"|"-") prod)*
    prod   := unary (("*"|"/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" integer)?
    atom   := number | ident | ident "(" sum ("," sum)* ")" | "(" sum ")"

Callable idents are the catalogue transcendentals (exp, ln, sqrt, sin, cos,
tan).  A parenthesised, comma-separated body defines a multi-output function.
``let`` is the sharing mechanism: the bound expression becomes a single DAG
node no matter how often the name is used.  Nothing else is merged, so an
expression written twice is evaluated twice.

Each definition is compiled once into a straight-line program over the state
space R^(n+mu) (`FunctionDef.program`); generic evaluation, the reverse-mode
tape, the dense trace oracle and the DOT export all read that one program.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .catalog import (
    ADD,
    CATALOG,
    COPY,
    DIV,
    MUL,
    NEG,
    SUB,
    DomainError,
    ElementaryFn,
    const_fn,
    is_pow,
    pow_exponent,
    pow_fn,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        self.line = line
        self.column = column
        super().__init__(f"{message} (line {line}, column {column})")


class Expr:
    __slots__ = ()


class Variable(Expr):
    __slots__ = ("index",)

    def __init__(self, index: int):
        self.index = index  # 1-based

    def __repr__(self) -> str:
        return f"Variable({self.index})"


class Constant(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = float(value)

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"


class Apply(Expr):
    __slots__ = ("fn", "args")

    def __init__(self, fn: ElementaryFn, args: Sequence[Expr]):
        fn.check_arity(args)
        self.fn = fn
        self.args = tuple(args)

    def __repr__(self) -> str:
        return f"Apply({self.fn.name}, {list(self.args)!r})"


@dataclass(frozen=True)
class FunctionDef:
    """A named function: m expression roots over shared nodes in n variables."""

    name: str
    params: tuple[str, ...]
    outputs: tuple[Expr, ...]

    @property
    def n(self) -> int:
        return len(self.params)

    @property
    def m(self) -> int:
        return len(self.outputs)

    @cached_property
    def program(self) -> "StateProgram":
        """The compiled straight-line program that every mode sweeps.  It is
        built on first use and kept on this definition, so the expression
        nodes must not be changed afterwards."""
        return _compile(self)


# --- tokenizer ---

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<symbol>[()+\-*/^,=])
  | (?P<ws>\s+)
  | (?P<bad>.)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "ident" | one of the symbol characters | "end"
    text: str
    line: int
    column: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    for match in _TOKEN_RE.finditer(source):
        kind = match.lastgroup
        text = match.group()
        if kind == "bad":
            raise ParseError(f"unexpected character {text!r}", line, col)
        if kind != "ws":
            tk = kind if kind in ("number", "ident") else text
            tokens.append(_Token(tk, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
    tokens.append(_Token("end", "", line, col))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "end":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            found = tok.text or "end of input"
            raise ParseError(
                f"expected {what or kind!r}, found {found!r}", tok.line, tok.column
            )
        return self.advance()

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    # def := ident "(" ident ("," ident)* ")" "=" body
    def parse_def(self) -> FunctionDef:
        name = self.expect("ident", "function name").text
        self.expect("(")
        params = [self.expect("ident", "parameter name").text]
        while self.peek().kind == ",":
            self.advance()
            params.append(self.expect("ident", "parameter name").text)
        self.expect(")")
        self.expect("=")
        if len(set(params)) != len(params):
            raise self.error(f"duplicate parameter name in {params}")
        env = {p: Variable(i + 1) for i, p in enumerate(params)}
        outputs = self.parse_body(env)
        self.expect("end", "end of input")
        return FunctionDef(name, tuple(params), tuple(outputs))

    def parse_body(self, env: dict) -> list[Expr]:
        tok = self.peek()
        if tok.kind == "ident" and tok.text == "let":
            self.advance()
            name = self.expect("ident", "binding name").text
            self.expect("=")
            bound = self.parse_sum(env)
            in_tok = self.peek()
            if not (in_tok.kind == "ident" and in_tok.text == "in"):
                raise self.error("expected 'in' after let binding")
            self.advance()
            inner = dict(env)
            inner[name] = bound
            return self.parse_body(inner)
        return self.parse_tuple(env)

    def parse_tuple(self, env: dict) -> list[Expr]:
        # "(" sum ("," sum)+ ")" is a tuple only if a comma follows; otherwise
        # the parenthesis belongs to an ordinary atom.
        if self.peek().kind == "(":
            mark = self.pos
            self.advance()
            first = self.parse_sum(env)
            if self.peek().kind == ",":
                outs = [first]
                while self.peek().kind == ",":
                    self.advance()
                    outs.append(self.parse_sum(env))
                self.expect(")")
                return outs
            self.pos = mark  # plain parenthesised expression; reparse as sum
        return [self.parse_sum(env)]

    def parse_sum(self, env: dict) -> Expr:
        node = self.parse_prod(env)
        while self.peek().kind in ("+", "-"):
            op = self.advance().kind
            rhs = self.parse_prod(env)
            node = Apply(CATALOG_BIN[op], (node, rhs))
        return node

    def parse_prod(self, env: dict) -> Expr:
        node = self.parse_unary(env)
        while self.peek().kind in ("*", "/"):
            op = self.advance().kind
            rhs = self.parse_unary(env)
            node = Apply(CATALOG_BIN[op], (node, rhs))
        return node

    def parse_unary(self, env: dict) -> Expr:
        if self.peek().kind == "-":
            self.advance()
            return Apply(NEG, (self.parse_unary(env),))
        return self.parse_power(env)

    def parse_power(self, env: dict) -> Expr:
        node = self.parse_atom(env)
        if self.peek().kind == "^":
            self.advance()
            tok = self.expect("number", "integer exponent")
            if not tok.text.isdigit():
                raise ParseError(
                    f"exponent must be a nonnegative integer, found {tok.text!r}",
                    tok.line,
                    tok.column,
                )
            node = Apply(pow_fn(int(tok.text)), (node,))
        return node

    def parse_atom(self, env: dict) -> Expr:
        tok = self.peek()
        if tok.kind == "number":
            self.advance()
            return Constant(float(tok.text))
        if tok.kind == "ident":
            self.advance()
            if self.peek().kind == "(":
                self.advance()
                args = [self.parse_sum(env)]
                while self.peek().kind == ",":
                    self.advance()
                    args.append(self.parse_sum(env))
                self.expect(")")
                fn = CATALOG.get(tok.text)
                if fn is None:
                    raise ParseError(
                        f"unknown function {tok.text!r}", tok.line, tok.column
                    )
                if fn.arity != len(args):
                    raise ParseError(
                        f"{tok.text} expects {fn.arity} argument(s), got {len(args)}",
                        tok.line,
                        tok.column,
                    )
                return Apply(fn, args)
            node = env.get(tok.text)
            if node is None:
                raise ParseError(
                    f"unbound variable {tok.text!r}", tok.line, tok.column
                )
            return node
        if tok.kind == "(":
            self.advance()
            node = self.parse_sum(env)
            self.expect(")")
            return node
        found = tok.text or "end of input"
        raise ParseError(f"expected an expression, found {found!r}", tok.line, tok.column)


CATALOG_BIN = {"+": ADD, "-": SUB, "*": MUL, "/": DIV}


def parse(source: str) -> FunctionDef:
    """Parse a function definition; raises ParseError with line/column."""
    return _Parser(source).parse_def()


# --- the compiled program ---


@dataclass(frozen=True, slots=True)
class Step:
    """One elementary transition: fn applied to earlier slots, writing
    slot `out_slot` (all indices 0-based)."""

    fn: ElementaryFn
    arg_slots: tuple[int, ...]
    out_slot: int


@dataclass(frozen=True)
class StateProgram:
    """A straight-line program over the state space R^(n+mu).

    Slots 0..n-1 hold the inputs.  Steps fill the following slots in order:
    first one zero-argument ``const`` step per constant, in first-use order,
    then the scheduled operations.  The last m steps produce the outputs in
    order, so the output projection is a pure slot selection.
    """

    n: int
    m: int
    steps: tuple[Step, ...]
    output_slots: tuple[int, ...]

    @property
    def mu(self) -> int:
        return len(self.steps)

    @property
    def dim(self) -> int:
        return self.n + self.mu


def schedule(fdef: FunctionDef) -> list[Apply]:
    """A deterministic linear order of the operation nodes.

    Interior applications appear in left-to-right depth-first post-order;
    the step producing output j is the (mu - m + j)-th, in output order.
    Output roots that are plain variables/constants, or that are consumed
    elsewhere in the DAG, get an explicit trailing copy step.
    """
    order: list[Apply] = []  # every operation node, post-order
    consumed: set[Expr] = set()
    visited: set[Expr] = set()
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
    claimed: set[Expr] = set()
    for root in fdef.outputs:
        if isinstance(root, Apply) and root not in consumed and root not in claimed:
            claimed.add(root)
            tails.append(root)
        else:
            tails.append(Apply(COPY, (root,)))
    return [node for node in order if node not in claimed] + tails


def _compile(fdef: FunctionDef) -> StateProgram:
    order = schedule(fdef)
    n = fdef.n
    slot_of: dict[Expr, int] = {}
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


# --- generic evaluation ---


def eval_generic(fdef: FunctionDef, inputs: Sequence, algebra) -> list:
    """Evaluate the definition over any scalar algebra in one sweep of its
    compiled program.

    `algebra` supplies ``constant(c)`` and ``apply(fn, args)``.  Constant
    steps call ``constant``, copy steps reuse their source's value without
    calling the algebra, and every other step calls ``apply`` once, so every
    shared node is evaluated exactly once.  A domain error is re-raised with
    the failing node's path from its output root (``out1.0`` is argument 0
    of output 1's root).  When several steps are out of domain, the first in
    schedule order is reported.
    """
    if len(inputs) != fdef.n:
        raise ValueError(f"expected {fdef.n} inputs, got {len(inputs)}")
    program = fdef.program
    slots = list(inputs)
    constant, apply = algebra.constant, algebra.apply
    for step in program.steps:
        fn = step.fn
        if fn is COPY:
            slots.append(slots[step.arg_slots[0]])
        elif not step.arg_slots:
            slots.append(constant(fn.value(())))
        else:
            try:
                slots.append(apply(fn, [slots[s] for s in step.arg_slots]))
            except DomainError as err:
                if err.path is None:
                    raise err.at(_path_of(fdef, step.out_slot)) from None
                raise
    return [slots[s] for s in program.output_slots]


def _path_of(fdef: FunctionDef, slot: int) -> str:
    """The tree path by which a depth-first walk from the outputs first
    reaches the operation node that fills `slot`."""
    order = schedule(fdef)
    target = order[slot - fdef.program.dim + len(order)]
    stack: list[tuple[Expr, str]] = [
        (root, f"out{j}") for j, root in reversed(list(enumerate(fdef.outputs)))
    ]
    seen: set[Expr] = set()
    while True:  # the target is reachable, so it is found before the stack empties
        node, path = stack.pop()
        if node is target:
            return path
        if isinstance(node, Apply) and node not in seen:
            seen.add(node)
            stack.extend(
                (child, f"{path}.{i}")
                for i, child in reversed(list(enumerate(node.args)))
            )


# --- DOT export ---


def to_dot(fdef: FunctionDef, annotations: Optional[Sequence] = None) -> str:
    """Render the computational graph as a DOT digraph.

    Nodes are the slots of the compiled program: the n inputs, the
    constants, and the scheduled operations.  A trailing copy step whose
    source leaf has no other consumer collapses into a single node (so the
    identity function is one node, not an input wired to a copy).
    `annotations`, when given, is one (value, derivative) pair per slot (or
    None); values are tagged blue, derivatives red.
    """
    n = fdef.n
    steps = fdef.program.steps
    labels: list[str] = list(fdef.params)
    labels += [_op_label(s.fn) if s.arg_slots else repr(s.fn.value(())) for s in steps]
    if annotations is not None and len(annotations) != len(labels):
        raise ValueError(
            f"expected {len(labels)} annotation entries, got {len(annotations)}"
        )

    consumers = [0] * len(labels)
    for step in steps:
        for src in step.arg_slots:
            consumers[src] += 1

    hidden: set[int] = set()
    for step in steps:
        if step.fn.name == "copy":
            src = step.arg_slots[0]
            is_leaf = src < n or not steps[src - n].arg_slots
            if is_leaf and consumers[src] == 1:
                hidden.add(src)
                labels[step.out_slot] = labels[src]

    lines = ["digraph {", "  node [shape=box];"]
    for i, label in enumerate(labels):
        if i in hidden:
            continue
        attrs = [f'label="{label}"']
        if annotations is not None and annotations[i] is not None:
            value, deriv = annotations[i]
            attrs[0] = (
                f'label=<{_dot_escape(label)}'
                f'<BR/><FONT COLOR="blue">{value!r}</FONT>'
                f'<BR/><FONT COLOR="red">{deriv!r}</FONT>>'
            )
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    for step in steps:
        if step.fn.name == "copy" and step.arg_slots[0] in hidden:
            continue
        for src in step.arg_slots:
            lines.append(f"  n{src} -> n{step.out_slot};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


_OP_SYMBOLS = {"add": "+", "sub": "-", "mul": "*", "div": "/", "neg": "-", "copy": "copy"}


def _op_label(fn: ElementaryFn) -> str:
    if fn.name in _OP_SYMBOLS:
        return _OP_SYMBOLS[fn.name]
    if is_pow(fn.name):
        return f"^{pow_exponent(fn.name)}"
    return fn.name


# --- unparsing ---

_PREC_SUM, _PREC_PROD, _PREC_UNARY, _PREC_POWER, _PREC_ATOM = 1, 2, 3, 4, 5


def unparse(fdef: FunctionDef) -> str:
    """Render a definition back to source.  Operation nodes referenced more
    than once are emitted as let bindings, preserving the sharing structure
    through a reparse."""
    refs: dict[int, int] = {}
    order: list[Apply] = []  # post-order: dependencies before dependents
    seen: set[int] = set()

    def count(node: Expr) -> None:
        if isinstance(node, Apply):
            refs[id(node)] = refs.get(id(node), 0) + 1
            if id(node) in seen:
                return
            seen.add(id(node))
            for child in node.args:
                count(child)
            order.append(node)

    for root in fdef.outputs:
        count(root)

    shared = [node for node in order if refs[id(node)] > 1]
    names = {id(node): f"_v{i + 1}" for i, node in enumerate(shared)}

    def render(node: Expr, bound_ok: bool = True) -> tuple[str, int]:
        if isinstance(node, Variable):
            return fdef.params[node.index - 1], _PREC_ATOM
        if isinstance(node, Constant):
            return _render_number(node.value), _PREC_ATOM
        if bound_ok and id(node) in names:
            return names[id(node)], _PREC_ATOM
        fn = node.fn
        if fn.name == "add" or fn.name == "sub":
            sym = "+" if fn.name == "add" else "-"
            lhs = _wrap(render(node.args[0]), _PREC_SUM, strict=False)
            rhs = _wrap(render(node.args[1]), _PREC_SUM, strict=True)
            return f"{lhs} {sym} {rhs}", _PREC_SUM
        if fn.name == "mul" or fn.name == "div":
            sym = "*" if fn.name == "mul" else "/"
            lhs = _wrap(render(node.args[0]), _PREC_PROD, strict=False)
            rhs = _wrap(render(node.args[1]), _PREC_PROD, strict=True)
            return f"{lhs} {sym} {rhs}", _PREC_PROD
        if fn.name == "neg":
            inner = _wrap(render(node.args[0]), _PREC_UNARY, strict=False)
            return f"-{inner}", _PREC_UNARY
        if is_pow(fn.name):
            base = _wrap(render(node.args[0]), _PREC_POWER, strict=True)
            return f"{base}^{pow_exponent(fn.name)}", _PREC_POWER
        args = ", ".join(render(a)[0] for a in node.args)
        return f"{fn.name}({args})", _PREC_ATOM

    body_parts = [render(root)[0] for root in fdef.outputs]
    body = body_parts[0] if len(body_parts) == 1 else "(" + ", ".join(body_parts) + ")"
    for node in reversed(shared):
        defn = render(node, bound_ok=False)[0]
        body = f"let {names[id(node)]} = {defn} in {body}"
    return f"{fdef.name}({', '.join(fdef.params)}) = {body}"


def _wrap(rendered: tuple[str, int], parent_prec: int, strict: bool) -> str:
    text, prec = rendered
    if prec < parent_prec or (strict and prec == parent_prec):
        return f"({text})"
    return text


def _render_number(value: float) -> str:
    if value < 0:
        # negative constants do not exist in the grammar; render via unary minus
        return f"(-{_render_number(-value)})"
    text = repr(value)
    if text.endswith(".0"):
        text = text[:-2]
    return text
