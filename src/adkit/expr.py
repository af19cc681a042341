"""Expression front-end: grammar, AST, compiled program, generic evaluation,
DOT export.

The surface language is a small infix grammar::

    def    := ident "(" ident ("," ident)* ")" "=" body
    body   := "let" ident "=" sum "in" body | tuple
    tuple  := "(" sum ("," sum)+ ")" | sum
    sum    := prod (("+"|"-") prod)*
    prod   := unary (("*"|"/") unary)*
    unary  := "-" unary | power
    power  := atom ("^" integer)?          integer <= MAX_EXPONENT (1000)
    atom   := number | ident | ident "(" sum ("," sum)* ")" | "(" sum ")"

A number literal must be finite as a float: one that overflows (``1e400``)
is a ParseError at the literal, while one that underflows reads as 0.

Callable idents are the catalogue transcendentals (exp, ln, sqrt, sin, cos,
tan).  A parenthesised, comma-separated body defines a multi-output function.
``let`` is the sharing mechanism: the bound expression becomes a single DAG
node no matter how often the name is used.  It cannot name a parameter,
since a body that starts with it reads as a binding.  Nothing else is
merged, so an expression written twice is evaluated twice.

Source text becomes a program in few Python-level passes.  The tokenizer is
one ``findall`` scan that returns every token's text; kinds come from each
token's first character, and a token carries its index, not its offset,
which is computed by a second scan only when a ParseError is raised.  Each
definition is compiled once into a straight-line program over the state
space R^(n+mu) (`FunctionDef.program`) by one walk of the DAG (post-order,
consumed output roots, the number of constants) and one pass that emits its
op table, one (kind, a, b, fn) per step.  That table is the program's only
compiled form: the tape that both first-order modes sweep, generic
evaluation, the dense trace oracle and the DOT export all read it.
"""

from __future__ import annotations

import math
import re
from functools import cached_property
from itertools import chain, count, filterfalse, islice
from operator import itemgetter
from typing import Iterator, Optional, Sequence

from .catalog import (
    ADD,
    CATALOG,
    COPY,
    DIV,
    MAX_EXPONENT,
    MUL,
    NEG,
    SUB,
    DomainError,
    ElementaryFn,
    Record,
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


class FunctionDef(Record):
    """A named function: m expression roots over shared nodes in n variables.

    `last_tape` is the memo of `engine.record`: the last (point key, tape)
    pair it built from this definition's program, None before.  It is
    replaced whole, never changed, and equality ignores it.  The tape refers
    to the program, which refers to nothing here, so the memo makes no
    reference cycle.
    """

    _fields = ("name", "params", "outputs", "last_tape")
    __slots__ = (*_fields, "__dict__")  # the dict holds the cached `program`
    _compared = _fields[:-1]

    def __init__(self, name: str, params: tuple[str, ...], outputs: tuple[Expr, ...]) -> None:
        self._set(name, params, outputs, None)

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

#: An identifier: a function, parameter or binding name.
_IDENT = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")

#: One token after optional whitespace: an identifier, a number (``\d`` is
#: any Unicode decimal digit), or any other single character.
_TOKEN_RE = re.compile(
    rf"\s*({_IDENT.pattern}|\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\S)"
)

#: Token kind by first character, for every ASCII character that starts one.
_KIND = {c: c for c in "()+-*/^,="} | dict.fromkeys("0123456789", "number")
_KIND |= dict.fromkeys("_ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz", "ident")


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    """(kind, text, index) triples from one scan of the source, ending with
    an ("end", "", index) token.  Kind is "number", "ident", or a symbol's
    own character.  A token's source offset is found only when an error
    needs it (`_error`)."""
    texts = _TOKEN_RE.findall(source)
    kinds = list(map(_KIND.get, map(itemgetter(0), texts)))
    if None in kinds:  # numbers led by "." or a non-ASCII digit, or bad characters
        for i, text in enumerate(texts):
            if kinds[i] is None:
                if len(text) == 1 and not text.isdecimal():
                    raise _error(source, i, f"unexpected character {text!r}")
                kinds[i] = "number"
    return list(zip([*kinds, "end"], [*texts, ""], range(len(texts) + 1)))


def _error(source: str, index: int, message: str) -> ParseError:
    """A ParseError at token `index`, which gets its 1-based line and column
    from a second scan of the source."""
    match = next(islice(_TOKEN_RE.finditer(source), index, None), None)
    offset = len(source) if match is None else match.start(1)
    line = source.count("\n", 0, offset) + 1
    return ParseError(message, line, offset - source.rfind("\n", 0, offset))


_PREC_SUM, _PREC_PROD, _PREC_UNARY, _PREC_POWER, _PREC_ATOM = 1, 2, 3, 4, 5

#: Binary operators by symbol: precedence and function.
CATALOG_BIN = {"+": (_PREC_SUM, ADD), "-": (_PREC_SUM, SUB),
               "*": (_PREC_PROD, MUL), "/": (_PREC_PROD, DIV)}
_NEGATE = (_PREC_UNARY, NEG)
_PAREN = (0, None, 0)


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = _tokenize(source)
        self.pos = 0

    def peek(self) -> tuple[str, str, int]:
        return self.tokens[self.pos]

    def advance(self) -> tuple[str, str, int]:
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect(self, kind: str, what: str | None = None) -> tuple[str, str, int]:
        if self.peek()[0] != kind:
            raise self.unexpected(repr(what or kind))
        return self.advance()

    def error(self, message: str, tok: tuple | None = None) -> ParseError:
        return _error(self.source, (tok or self.peek())[2], message)

    def unexpected(self, what: str, tok: tuple | None = None) -> ParseError:
        tok = tok or self.peek()
        return self.error(f"expected {what}, found {tok[1] or 'end of input'!r}", tok)

    # def := ident "(" ident ("," ident)* ")" "=" ("let" ident "=" sum "in")* tuple
    def parse_def(self) -> FunctionDef:
        name = self.expect("ident", "function name")[1]
        self.expect("(")
        params = [self.parameter()]
        while self.peek()[0] == ",":
            self.advance()
            params.append(self.parameter())
        self.expect(")")
        self.expect("=")
        if len(set(params)) != len(params):
            raise self.error(f"duplicate parameter name in {params}")
        env = {p: Variable(i + 1) for i, p in enumerate(params)}
        # A binding's scope runs to the end of the body, so the chain
        # updates one environment in place.
        while self.peek()[1] == "let":
            self.advance()
            bound = self.expect("ident", "binding name")[1]
            self.expect("=")
            node = self.parse_sum(env)
            if self.peek()[1] != "in":
                raise self.error("expected 'in' after let binding")
            self.advance()
            env[bound] = node
        outputs = self.parse_tuple(env)
        self.expect("end", "end of input")
        return FunctionDef(name, tuple(params), tuple(outputs))

    def parameter(self) -> str:
        tok = self.expect("ident", "parameter name")
        if tok[1] == "let":
            raise self.error("'let' cannot name a parameter", tok)
        return tok[1]

    def parse_tuple(self, env: dict) -> list[Expr]:
        # "(" sum ("," sum)+ ")" is a tuple only if a comma follows; otherwise
        # the parenthesis belongs to an ordinary atom.
        if self.peek()[0] == "(":
            mark = self.pos
            self.advance()
            first = self.parse_sum(env)
            if self.peek()[0] == ",":
                outs = [first]
                while self.peek()[0] == ",":
                    self.advance()
                    outs.append(self.parse_sum(env))
                self.expect(")")
                return outs
            self.pos = mark  # plain parenthesised expression; reparse as sum
        return [self.parse_sum(env)]

    def parse_sum(self, env: dict) -> Expr:
        """One sum, in a single loop over an operand stack and an operator
        stack.  The operator stack holds pending operators as (precedence,
        fn), unary minus included, and open brackets as frames
        (0, call, base): `call` is a call's name token (None for a
        parenthesis) and `base` the operand count before its arguments.
        Stops at the first token outside every bracket that cannot continue
        the sum."""
        tokens, pos = self.tokens, self.pos
        operands: list[Expr] = []
        ops: list[tuple] = []
        while True:
            # An operand: unary minuses and opening brackets, then an atom.
            tok = tokens[pos]
            kind = tok[0]
            pos += 1
            if kind == "-" or kind == "(":
                ops.append(_NEGATE if kind == "-" else _PAREN)
                continue
            if kind == "ident" and tokens[pos][0] == "(":
                ops.append((0, tok, len(operands)))
                pos += 1
                continue
            if kind == "number":
                value = float(tok[1])
                if math.isinf(value):
                    raise self.error("number is too large for a float", tok)
                operands.append(Constant(value))
            elif kind == "ident":
                node = env.get(tok[1])
                if node is None:
                    raise self.error(f"unbound variable {tok[1]!r}", tok)
                operands.append(node)
            else:
                raise self.unexpected("an expression", tok)
            # The top operand is a finished atom, as is each bracket closed here.
            while True:
                if tokens[pos][0] == "^":
                    tok = tokens[pos + 1]
                    if tok[0] != "number":
                        raise self.unexpected("'integer exponent'", tok)
                    if not tok[1].isdigit():
                        raise self.error(
                            f"exponent must be a nonnegative integer, found {tok[1]!r}", tok
                        )
                    # leading zeros stripped, so int() never sees a long string
                    digits = tok[1].lstrip("0") or "0"
                    if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                        raise self.error(f"exponent exceeds the ceiling {MAX_EXPONENT}", tok)
                    operands[-1] = Apply(pow_fn(int(digits)), (operands[-1],))
                    pos += 2
                tok = tokens[pos]
                binary = CATALOG_BIN.get(tok[0])
                # Apply the pending operators that bind at least as tightly;
                # anything but a binary operator ends the innermost sum.
                floor = binary[0] if binary else _PREC_SUM
                while ops and ops[-1][0] >= floor:
                    fn = ops.pop()[1]
                    rhs = operands.pop()
                    operands.append(Apply(fn, (rhs,) if fn is NEG else (operands.pop(), rhs)))
                if binary:
                    ops.append(binary)
                    pos += 1
                    break
                if not ops:
                    self.pos = pos
                    return operands[0]
                _, call, base = ops[-1]
                if tok[0] == "," and call:
                    pos += 1  # the call's next argument
                    break
                if tok[0] != ")":
                    raise self.unexpected("')'", tok)
                pos += 1
                ops.pop()
                if call:
                    fn, args = CATALOG.get(call[1]), operands[base:]
                    if fn is None:
                        raise self.error(f"unknown function {call[1]!r}", call)
                    if fn.arity != len(args):
                        raise self.error(
                            f"{call[1]} expects {fn.arity} argument(s), got {len(args)}", call
                        )
                    operands[base:] = [Apply(fn, args)]


def parse(source: str) -> FunctionDef:
    """Parse a function definition; raises ParseError with line/column."""
    return _Parser(source).parse_def()


# --- the compiled program ---


class StateProgram(Record):
    """A straight-line program over the state space R^(n+mu).

    Slots 0..n-1 hold the inputs.  Steps fill the following slots in order:
    first one ``const`` step per constant, in first-use order, then the
    scheduled operations.  The last m steps produce the outputs in order, so
    the output projection is a pure slot selection.

    `ops` holds the steps, one (kind, a, b, fn) each; step k fills slot
    n + k.  kind is an arithmetic function's name, a and b its slots (b None
    for neg and copy); or "const", a the value and fn None; "unary", a the
    slot; "other", a the slots.  `arg_slots` gives any step's slots.

    `kernels` is the memo of `engine.record`: how many times the program
    was linearized, then the straight-line kernels it built for the program
    (None when it never builds them).  It is replaced whole, never changed;
    equality, the hash, `copy` and `pickle` ignore it, so a copy starts
    with no kernels.
    """

    _fields = ("n", "m", "ops", "output_slots", "kernels")
    __slots__ = _fields
    _compared = _fields[:-1]

    def __init__(self, n: int, m: int, ops: tuple[tuple, ...],
                 output_slots: tuple[int, ...]) -> None:
        self._set(n, m, ops, output_slots, 0)

    def __reduce__(self):  # a copy starts without the memo
        return StateProgram, self._key()

    @property
    def mu(self) -> int:
        return len(self.ops)

    @property
    def dim(self) -> int:
        return self.n + self.mu


def _walk(outputs: Sequence[Expr]) -> tuple[list[Apply], Iterator[Apply], int]:
    """Every operation node reachable from the outputs, in left-to-right
    depth-first post-order; the schedule (see `schedule`), as an iterator
    over those nodes and the output copies; and the number of distinct
    constants."""
    order: list[Apply] = []
    roots = set(outputs)
    consumed: set[Expr] = set()
    seen: set[Expr] = set()
    constants = 0
    for root in outputs:
        if root in seen:
            continue
        seen.add(root)
        constants += isinstance(root, Constant)
        if not isinstance(root, Apply):
            continue
        # the node being expanded, and the ones waiting under it
        node, children, stack = root, iter(root.args), []
        while True:
            for child in children:
                if child in roots:
                    consumed.add(child)
                if child not in seen:
                    seen.add(child)
                    if isinstance(child, Apply):
                        stack.append((node, children))
                        node, children = child, iter(child.args)
                        break
                    constants += isinstance(child, Constant)
            else:
                order.append(node)
                if not stack:
                    break
                node, children = stack.pop()
    tails: list[Apply] = []
    claimed: set[Expr] = set()
    for root in outputs:
        if isinstance(root, Apply) and root not in consumed and root not in claimed:
            claimed.add(root)
            tails.append(root)
        else:
            tails.append(Apply(COPY, (root,)))
    return order, chain(filterfalse(claimed.__contains__, order), tails), constants


def schedule(fdef: FunctionDef) -> list[Apply]:
    """A deterministic linear order of the operation nodes.

    Interior applications appear in left-to-right depth-first post-order;
    the step producing output j is the (mu - m + j)-th, in output order.
    Output roots that are plain variables/constants, or that are consumed
    elsewhere in the DAG, get an explicit trailing copy step.
    """
    return list(_walk(fdef.outputs)[1])


#: The op-table kind of each arithmetic function, looked up by name, so a
#: `counted_variant` copy decodes as its original.
_ARITHMETIC = {name: name for name in ("mul", "add", "sub", "div", "neg", "copy")}


def arg_slots(op: tuple) -> tuple[int, ...]:
    """The slots an op-table step reads, in argument order: () for a
    constant."""
    kind, a, b, _ = op
    if kind == "other":
        return a
    if kind == "const":
        return ()
    return (a,) if b is None else (a, b)


def _compile(fdef: FunctionDef) -> StateProgram:
    """One pass over the schedule that emits the op table: the k-th constant
    to be used takes slot n + k, and the operations follow the constants."""
    _, nodes, constants = _walk(fdef.outputs)
    n = fdef.n
    slot_of: dict[Expr, int] = {}
    const_ops: list[tuple] = []
    ops: list[tuple] = []
    slot = n + constants
    for node in nodes:
        slots = []
        for child in node.args:
            arg = slot_of.get(child)
            if arg is None:  # a leaf's first use
                if isinstance(child, Variable):
                    arg = slot_of[child] = child.index - 1
                else:
                    arg = slot_of[child] = n + len(const_ops)
                    const_ops.append(("const", child.value, None, None))
            slots.append(arg)
        fn = node.fn
        kind = _ARITHMETIC.get(fn.name)
        if kind is not None:
            ops.append((kind, slots[0], slots[1] if len(slots) == 2 else None, fn))
        elif len(slots) == 1:
            ops.append(("unary", slots[0], None, fn))
        else:
            ops.append(("other", tuple(slots), None, fn))
        slot_of[node] = slot
        slot += 1
    return StateProgram(n, fdef.m, (*const_ops, *ops), tuple(range(slot - fdef.m, slot)))


# --- generic evaluation ---


def eval_generic(fdef: FunctionDef, inputs: Sequence, algebra) -> list:
    """Evaluate the definition over any scalar algebra in one sweep of its
    compiled program.

    `algebra` supplies ``constant(c)`` and ``apply(fn, args)``.  Constant
    steps call ``constant``, copy steps reuse their source's value without
    calling the algebra, and every other step calls ``apply`` once, so every
    shared node is evaluated exactly once.  An algebra may also supply
    ``sweep(program, inputs, slots)``, which runs the whole sweep itself,
    appending one value per slot to `slots`, and returns the outputs, or
    None to leave the sweep to this loop (`JetAlgebra.sweep`).  A domain
    error is re-raised with the failing node's path from its output root
    (``out1.0`` is argument 0 of output 1's root).  When several steps are
    out of domain, the first in schedule order is reported.
    """
    if len(inputs) != fdef.n:
        raise ValueError(f"expected {fdef.n} inputs, got {len(inputs)}")
    program = fdef.program
    slots: list = []
    sweep = getattr(algebra, "sweep", None)
    if sweep is not None:
        try:
            outputs = sweep(program, inputs, slots)
        except DomainError as err:
            raise _located(err, fdef, len(slots)) from None
        if outputs is not None:
            return outputs
    slots += inputs
    put = slots.append
    constant, apply = algebra.constant, algebra.apply
    for kind, a, b, fn in program.ops:  # this step fills slot len(slots)
        if fn is COPY:
            put(slots[a])
        elif kind == "const" or kind == "other" and not a:  # or a zero-argument function
            put(constant(a if fn is None else fn.value(())))
        else:
            try:
                put(apply(fn, [slots[a], slots[b]] if b is not None else
                          [slots[s] for s in a] if kind == "other" else [slots[a]]))
            except DomainError as err:
                raise _located(err, fdef, len(slots)) from None
    return [slots[s] for s in program.output_slots]


def _located(err: DomainError, fdef: FunctionDef, slot: int) -> DomainError:
    """err, with the path of the node that fills `slot` if it has none."""
    return err if err.path is not None else err.at(_path_of(fdef, slot))


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
    ops = fdef.program.ops
    reads = [arg_slots(op) for op in ops]
    labels: list[str] = list(fdef.params)
    for (_, a, _, fn), slots in zip(ops, reads):
        labels.append(_op_label(fn) if slots else repr(a if fn is None else fn.value(())))
    if annotations is not None and len(annotations) != len(labels):
        raise ValueError(
            f"expected {len(labels)} annotation entries, got {len(annotations)}"
        )

    consumers = [0] * len(labels)
    for slots in reads:
        for src in slots:
            consumers[src] += 1

    hidden: set[int] = set()
    for out, (kind, a, _, _) in enumerate(ops, n):
        if kind == "copy":
            is_leaf = a < n or not reads[a - n]
            if is_leaf and consumers[a] == 1:
                hidden.add(a)
                labels[out] = labels[a]

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
    for out, ((kind, a, _, _), slots) in enumerate(zip(ops, reads), n):
        if kind == "copy" and a in hidden:
            continue
        for src in slots:
            lines.append(f"  n{src} -> n{out};")
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

#: Binary operators by function name: symbol and precedence.
_INFIX = {fn.name: (sym, prec) for sym, (prec, fn) in CATALOG_BIN.items()}


def unparse(fdef: FunctionDef) -> str:
    """Render a definition back to source.  Operation nodes referenced more
    than once are emitted as let bindings, under names no parameter has,
    preserving the sharing structure through a reparse.  Names or a node the
    grammar cannot write (names the parser would not read back, a
    non-finite constant, a power above MAX_EXPONENT, a call to a function
    outside CATALOG) raise ValueError."""
    for name in (fdef.name, *fdef.params):
        if not _IDENT.fullmatch(name) or (name == "let" and name in fdef.params):
            raise ValueError(f"cannot unparse the name {name!r}: the parser would not read it back")
    if not fdef.params or len(set(fdef.params)) < len(fdef.params):
        raise ValueError(f"cannot unparse the parameters {fdef.params}: none, or a repeat")
    order = _walk(fdef.outputs)[0]
    refs = dict.fromkeys(order, 0)
    for node in order:
        for child in node.args:
            if isinstance(child, Apply):
                refs[child] += 1
    for root in fdef.outputs:
        if isinstance(root, Apply):
            refs[root] += 1
    shared = [node for node in order if refs[node] > 1]
    fresh = filterfalse(set(fdef.params).__contains__, (f"_v{i}" for i in count(1)))
    names = dict(zip(shared, fresh))

    def prec(node: Expr) -> int:
        """The precedence of the node's rendering as an argument."""
        if not isinstance(node, Apply) or node in names:
            return _PREC_ATOM
        name = node.fn.name
        if name in _INFIX:
            return _INFIX[name][1]
        return _PREC_UNARY if name == "neg" else _PREC_POWER if is_pow(name) else _PREC_ATOM

    def operand(node: Expr, parent_prec: int, strict: bool) -> list:
        p = prec(node)
        if p < parent_prec or (strict and p == parent_prec):
            return ["(", node, ")"]
        return [node]

    def pieces(node: Apply) -> list:
        """The node's own text, with its arguments left as nodes."""
        name = node.fn.name
        if name in _INFIX:
            sym, p = _INFIX[name]
            lhs, rhs = node.args
            return [*operand(lhs, p, False), f" {sym} ", *operand(rhs, p, True)]
        if name == "neg":
            return ["-", *operand(node.args[0], _PREC_UNARY, False)]
        if is_pow(name) and pow_exponent(name) <= MAX_EXPONENT:
            return [*operand(node.args[0], _PREC_POWER, True), f"^{pow_exponent(name)}"]
        if name not in CATALOG:
            why = (f"its exponent exceeds the ceiling {MAX_EXPONENT}" if is_pow(name)
                   else "the grammar has no such function")
            raise ValueError(f"cannot unparse {name}: {why}")
        out: list = [f"{name}("]
        for i, arg in enumerate(node.args):
            out += [", ", arg] if i else [arg]
        return out + [")"]

    def render(node: Expr, bound_ok: bool = True) -> str:
        # An explicit stack of pending strings and nodes, so the nesting
        # depth of the expression does not reach Python's recursion limit.
        out: list[str] = []
        stack = [node] if bound_ok else pieces(node)[::-1]
        while stack:
            item = stack.pop()
            if isinstance(item, str):
                out.append(item)
            elif isinstance(item, Variable):
                out.append(fdef.params[item.index - 1])
            elif isinstance(item, Constant):
                out.append(_render_number(item.value))
            elif item in names:
                out.append(names[item])
            else:
                stack += pieces(item)[::-1]
        return "".join(out)

    body_parts = [render(root) for root in fdef.outputs]
    body = body_parts[0] if len(body_parts) == 1 else "(" + ", ".join(body_parts) + ")"
    lets = [f"let {names[node]} = {render(node, bound_ok=False)} in " for node in shared]
    return f"{fdef.name}({', '.join(fdef.params)}) = {''.join(lets)}{body}"


def _render_number(value: float) -> str:
    if not math.isfinite(value):
        raise ValueError(f"cannot unparse the constant {value!r}: the grammar has no such number")
    if math.copysign(1.0, value) < 0:
        # negative constants (-0.0 too) do not exist in the grammar; render
        # via unary minus
        return f"(-{_render_number(-value)})"
    text = repr(value)
    if text.endswith(".0"):
        text = text[:-2]
    return text
