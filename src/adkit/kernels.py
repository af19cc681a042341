"""Straight-line kernels: a program's record, tangent and adjoint sweeps
compiled from its op table into Python functions.

`engine.record` calls `build` on a program's `engine._WARM`-th
linearization, and from then on the sweeps call the three functions it
returns in place of their loops.  Each kernel writes each step as the
loop's own expression for that step's kind, in the loop's order, with
every slot in a local variable.  A step of a catalogue function that has a
row (`catalog._ROWS`) is that row on the step's slots, where the loop calls
the callables generated from it, and any other function step calls its
function, so the kernels give the loops' results bit for bit, raise the
loop's DomainError and keep its counts.  Compiling costs about 10 KB of
transient memory per step and, at 300 steps, about 18 ms.  This module is
loaded by the first build, so a process that builds none, such as a CLI
call, does not compile it.
"""

from __future__ import annotations

from .catalog import _MATH, _ROW_FNS, _TEMPLATES
from .engine import _ADD, _COPY, _NEG, _SUB, _domain_error
from .expr import StateProgram, arg_slots

#: Per arithmetic kind computed inline: the record kernel's value, the
#: step's partials and the tangent kernel's expression, the loops' own, over
#: the names of its argument slots (see `build`).
_INLINE = {
    "mul": ("{va} * {vb}", "({vb}, {va})", "v[{a}] * {tb} + {ta} * v[{b}]"),
    "add": ("{va} + {vb}", "_ADD", "{ta} + {tb}"),
    "sub": ("{va} - {vb}", "_SUB", "{ta} - {tb}"),
    "neg": ("-{va}", "_NEG", "-{ta}"),
    "copy": ("{va}", "_COPY", "{ta}"),
}


def build(program: StateProgram) -> tuple:
    """Compile the program's record, tangent and adjoint kernels, keep
    them as its memo and return them.  A slot is a local (v, t or a, then
    the slot), except that a constant's value is a global (c), its tangent
    the literal 0.0, and its adjoint, which nothing reads, is not summed.
    Compiling one kernel at a time bounds the transient memory by the
    largest.  Each is popped out of the globals it was defined in, so it
    makes no reference cycle."""
    n, ops, outputs = program.n, program.ops, program.output_slots
    dim, inputs = n + len(ops), range(n)
    env = {**_MATH, "_domain_error": _domain_error,
           "_ADD": _ADD, "_SUB": _SUB, "_NEG": _NEG, "_COPY": _COPY}
    const = [False] * n + [op[0] == "const" for op in ops]
    val = [f"c{s}" if const[s] else f"v{s}" for s in range(dim)]
    tan = ["0.0" if const[s] else f"t{s}" for s in range(dim)]
    rec = [f"[{''.join(f'v{s}, ' for s in inputs)}] = values"]
    tng = [f"[{''.join(f't{s}, ' for s in inputs)}] = map(float, d)"]
    adj, notes = [], []
    for k, op in enumerate(ops):
        (kind, a, b, fn), s, reads = op, n + k, arg_slots(op)
        if kind == "const":
            env[f"c{s}"] = a
            notes.append("()")
            continue
        if kind in _INLINE:
            names = dict(a=a, b=b, va=val[a], ta=tan[a])
            if b is not None:
                names.update(vb=val[b], tb=tan[b])
            value, note, tangent = (line.format(**names) for line in _INLINE[kind])
            rec.append(f"v{s} = {value}")
        else:
            args = ", ".join(val[r] for r in reads)
            if _ROW_FNS.get(fn.name) is fn:  # its row, inline
                fill = dict(zip("xy", (val[r] for r in reads)), f=f"v{s}")
                lines = [t.format(**fill) for t in _TEMPLATES[fn.name]] + [f"[{args}]"]
            else:  # through its callables, the globals d, e and g
                env.update({f"d{s}": fn.domain, f"e{s}": fn.value, f"g{s}": fn.partials})
                lines = [f"d{s}(x := [{args}])", f"e{s}(x)", f"*g{s}(x)", "x"]
            domain, value, partials, at = lines
            rec += [f"if not ({domain}): raise _domain_error(fdef, {s}, {at})",
                    f"v{s} = {value}", f"p{s} = ({partials},)"]
            note = f"p{s}"
            tangent = (f"({tan[a]} - v[{s}] * {tan[b]}) / v[{b}]" if kind == "div" else
                       "0.0" + "".join(f" + P[{k}][{i}] * {tan[r]}" for i, r in enumerate(reads)))
        notes.append(note)
        tng.append(f"t{s} = {tangent}")
        pushes = [f"; a{r} += a{s} * p{i}" for i, r in enumerate(reads) if not const[r]]
        if pushes:
            unpack = "".join(f"p{i}, " for i in range(len(reads)))
            adj.append(f"if a{s} != 0.0: {unpack}= P[{k}]{''.join(pushes)}")
    rec.append(f"return ({''.join(f'{v}, ' for v in val)}), ({''.join(f'{p}, ' for p in notes)})")
    tng.append(f"return [{', '.join(f't{r}' for r in outputs)}]")
    zeros = "".join(f"a{s} = " for s in range(dim) if not const[s] and s not in outputs)
    adj = [f"{zeros}0.0", *(f"a{r} = 0.0 + float(y[{j}])" for j, r in enumerate(outputs)),
           *reversed(adj), f"return [{', '.join(f'a{s}' for s in inputs)}]"]
    kernels = []
    for name, params, body in (("record", "fdef, values", rec), ("tangent", "v, P, d", tng),
                               ("adjoint", "P, y", adj)):
        source = f"def {name}({params}):\n    " + "\n    ".join(body)
        exec(compile(source, f"<{name} kernel>", "exec"), env)
        kernels.append(env.pop(name))
    kernels = tuple(kernels)
    object.__setattr__(program, "kernels", kernels)
    return kernels
