"""Tiny expression language for the command line.

Two evaluation contexts share one grammar:

* supernumber mode (no bosonic coordinates): identifiers ``x1..xN`` are
  the Grassmann generators, matching the text serialization; calls are
  ``berezin(e)``, ``lift[seed](e)``, ``inverse(e)``, ``body(e)``,
  ``soul(e)``, ``even(e)``, ``odd(e)``, ``conj(e)``, ``conj[dewitt](e)``.
* form mode (bosonic coordinates present): identifiers ``x<a>``,
  ``xi<alpha>``, ``dx<a>``, ``dxi<alpha>``; calls are ``d(w)``,
  ``e[f](w)``, ``i[x1](w)``, ``L[xi2](w)`` with coordinate names naming
  the basis vector fields.

``*`` and ``^`` both denote the graded product (the wedge); ``+``/``-``
and parentheses behave as usual, and numeric literals are exact
rationals with an optional trailing ``i``, read by `scalars.parse_crat`.

A literal and the identifier ``i`` evaluate to a bare `CRat`, and two
scalars combine as `CRat` arithmetic; a scalar meets an element through
the element's own (or reflected) ``+``, ``-`` and ``*``.  A value that is
still a bare scalar is lifted into the mode's algebra by
`Context.as_element` in two places only: each call argument, and the
result of `evaluate`.  So ``2*3 - 1/2i`` builds no element until the end,
and ``inverse(2)`` or ``e[2](dx1)`` see elements.

A ``[...]`` parameter is the source text up to the closing bracket, so
``lift[polynomial:1,2i]`` reads the seed ``polynomial:1,2i``; only
``lift``, ``conj``, ``e``, ``i`` and ``L`` accept one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from .analytic import lift, seed_by_name
from .berezin import berezin_integral
from .forms import (
    CoordinateSystem,
    SuperVectorField,
    op_d_form,
    op_e_form,
    op_i_form,
    op_lie_form,
)
from .graded_poly import GradedPoly
from .grassmann import Convention, Supernumber
from .scalars import CRat, parse_crat


_I = CRat(0, 1)


class ExprError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.reason = message
        self.position = position


_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:/\d+)?i?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*^()\[\],:]))"
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token; kind is the name of the
    `_TOKEN` group that matched."""
    out = []
    pos = 0
    end = len(text)
    match = _TOKEN.match
    while pos < end:
        m = match(text, pos)
        if not m:
            bad = end - len(text[pos:].lstrip())  # the first character that is not blank
            if bad == end:
                break
            raise ExprError(f"unexpected character {text[bad]!r}", bad)
        k = m.lastindex
        out.append((m.lastgroup, m[k], m.start(k)))
        pos = m.end()
    return out


# Deepest nesting of parentheses and calls; each level costs four Python
# frames, so this stays well inside the interpreter's recursion limit.
MAX_NESTING = 100


@dataclass
class _Parser:
    """`tokens` ends with one ("end", "", len(text)) sentinel, which no
    rule consumes without raising."""

    text: str
    tokens: list[tuple[str, str, int]]
    pos: int = 0
    depth: int = 0

    def peek(self):
        return self.tokens[self.pos]

    def next(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, text, at = self.next()
        if text != value:
            found = "end of input" if kind == "end" else repr(text)
            raise ExprError(f"expected {value!r}, found {found}", at)

    def enter(self, at: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprError(f"nesting deeper than {MAX_NESTING} levels", at)


class Context:
    """Name resolution and function dispatch for one evaluation mode."""

    def __init__(self, n: int, nu: int, bindings: dict[str, object] | None = None):
        self.n = n
        self.nu = nu
        self.bindings = bindings or {}
        self.form_mode = n > 0
        self.coords = CoordinateSystem(n, nu) if self.form_mode else None

    # -- atoms ---------------------------------------------------------

    def scalar(self, c: CRat):
        if self.form_mode:
            return GradedPoly.scalar(self.coords.forms, c)
        return Supernumber.scalar(self.nu, c)

    def as_element(self, value):
        """`value` as an element of this mode: a bare scalar is lifted."""
        return self.scalar(value) if type(value) is CRat else value

    def identifier(self, name: str, at: int):
        if name in self.bindings:
            return self.bindings[name]
        if name == "i":
            return _I
        if self.form_mode:
            for prefix, maker in (
                ("dxi", lambda k: self.coords.dxi(k)),
                ("dx", lambda k: self.coords.dx(k)),
                ("xi", lambda k: self.coords.xi(k).with_carrier(self.coords.forms)),
                ("x", lambda k: self.coords.x(k).with_carrier(self.coords.forms)),
            ):
                if name.startswith(prefix) and name[len(prefix):].isdigit():
                    k = int(name[len(prefix):])
                    limit = self.nu if "xi" in prefix else self.n
                    if not 1 <= k <= limit:
                        raise ExprError(f"{name}: index outside 1..{limit}", at)
                    return maker(k)
            raise ExprError(f"unknown identifier {name!r}", at)
        if name.startswith("x") and name[1:].isdigit():
            k = int(name[1:])
            if not 1 <= k <= self.nu:
                raise ExprError(f"{name}: generator index outside 1..{self.nu}", at)
            return Supernumber.generator(self.nu, k)
        raise ExprError(f"unknown identifier {name!r}", at)

    def field_by_name(self, name: str, at: int) -> SuperVectorField:
        for kind, limit in (("xi", self.nu), ("x", self.n)):
            if name.startswith(kind) and name[len(kind):].isdigit():
                k = int(name[len(kind):])
                if not 1 <= k <= limit:
                    raise ExprError(f"{name}: index outside 1..{limit}", at)
                return SuperVectorField.coordinate_basis(self.coords, (kind, k))
        raise ExprError(f"{name!r} does not name a coordinate direction", at)

    # -- calls -----------------------------------------------------------

    def call(self, name: str, param, args: list, at: int, param_at: int):
        if self.form_mode:
            return self._call_form(name, param, args, at, param_at)
        return self._call_super(name, param, args, at)

    def _call_super(self, name: str, param, args, at):
        if len(args) != 1:
            raise ExprError(f"{name} takes one argument", at)
        if param is not None and name in ("berezin", "inverse", "body", "soul", "even", "odd"):
            raise ExprError(f"{name} takes no [...] parameter", at)
        (arg,) = args
        if name == "berezin":
            return Supernumber.scalar(self.nu, berezin_integral(arg))
        if name == "lift":
            if param is None:
                raise ExprError("lift needs a seed, e.g. lift[exp](...)", at)
            try:
                seed = seed_by_name(param)
            except ValueError as exc:
                # a polynomial seed's own fault names the parameter; an unknown name speaks for itself
                reason = f"lift[{param}]: {exc}" if param.startswith("polynomial:") else str(exc)
                raise ExprError(reason, at) from None
            return lift(seed, arg)
        if name == "inverse":
            return arg.inverse()
        if name == "body":
            return Supernumber.scalar(self.nu, arg.body())
        if name == "soul":
            return arg.soul()
        if name == "even":
            return arg.even_part()
        if name == "odd":
            return arg.odd_part()
        if name == "conj":
            if param not in (None, "dewitt"):
                raise ExprError(f"conj takes [dewitt] or no parameter, not [{param}]", at)
            conv = Convention.DEWITT if param == "dewitt" else Convention.KOSZUL
            return arg.conjugate(conv)
        raise ExprError(f"unknown function {name!r}", at)

    def _call_form(self, name: str, param, args, at, param_at):
        if len(args) != 1:
            raise ExprError(f"{name} takes one argument", at)
        (arg,) = args
        if name == "d":
            if param is not None:
                raise ExprError("d takes no [...] parameter", at)
            return op_d_form(self.coords)(arg)
        if name == "e":
            if param is None:
                raise ExprError("e needs a function parameter: e[x1](w)", at)
            f = evaluate(param, self, param_at)
            return op_e_form(self.coords, f.coefficient_function())(arg)
        if name in ("i", "L"):
            if param is None:
                raise ExprError(f"{name} needs a coordinate direction: {name}[x1](w)", at)
            field = self.field_by_name(param, at)
            op = op_i_form(field) if name == "i" else op_lie_form(field)
            return op(arg)
        raise ExprError(f"unknown function {name!r}", at)


def _parse_expr(p: _Parser, ctx: Context):
    value = _parse_term(p, ctx)
    while p.peek()[1] in ("+", "-"):
        _, op, _ = p.next()
        rhs = _parse_term(p, ctx)
        value = value + rhs if op == "+" else value - rhs
    return value


def _parse_term(p: _Parser, ctx: Context):
    value = _parse_factor(p, ctx)
    while p.peek()[1] in ("*", "^"):
        p.next()
        rhs = _parse_factor(p, ctx)
        value = value * rhs
    return value


def _parse_factor(p: _Parser, ctx: Context):
    negate = False
    while p.peek()[1] in ("+", "-"):
        negate ^= p.next()[1] == "-"
    value = _parse_atom(p, ctx)
    return -value if negate else value


def _parse_atom(p: _Parser, ctx: Context):
    kind, text, at = p.next()
    if kind == "num":
        try:
            return parse_crat(text)
        except ValueError as exc:
            raise ExprError(str(exc), at) from None
    if text == "(":
        p.enter(at)
        value = _parse_expr(p, ctx)
        p.expect(")")
        p.depth -= 1
        return value
    if kind == "name":
        nxt = p.peek()[1]
        if nxt in ("[", "("):
            param, param_at = None, 0
            if nxt == "[":
                param, param_at = _parse_param(p)
            p.expect("(")
            p.enter(at)
            args = [ctx.as_element(_parse_expr(p, ctx))]
            while p.peek()[1] == ",":
                p.next()
                args.append(ctx.as_element(_parse_expr(p, ctx)))
            p.expect(")")
            p.depth -= 1
            return ctx.call(text, param, args, at, param_at)
        return ctx.identifier(text, at)
    raise ExprError("unexpected end of input" if kind == "end" else f"unexpected token {text!r}", at)


def _parse_param(p: _Parser) -> tuple[str, int]:
    """The source text between '[' and its ']' without outer spaces, and
    the position where that text starts."""
    _, _, at = p.next()
    while p.peek()[1] != "]":
        if p.next()[0] == "end":
            raise ExprError("'[' is never closed", at)
    raw = p.text[at + 1:p.next()[2]]
    param = raw.strip()
    if not param:
        raise ExprError("empty [...] parameter", at)
    return param, at + 1 + len(raw) - len(raw.lstrip())


def evaluate(text: str, ctx: Context, column: int = 0):
    """`column` is where `text` starts in an enclosing expression; error columns count from there."""
    tokens = tokenize(text)
    tokens.append(("end", "", len(text)))
    p = _Parser(text, tokens)
    try:
        value = _parse_expr(p, ctx)
        if p.peek()[0] != "end":
            raise ExprError(f"trailing input {p.peek()[1]!r}", p.peek()[2])
    except ExprError as exc:
        raise ExprError(exc.reason, exc.position + column) from None
    return ctx.as_element(value)


def evaluate_supernumber_text(text: str, nu: int) -> Supernumber:
    return evaluate(text, Context(0, nu))
