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
rationals with an optional trailing ``i``.

`tokenize` reads the text in one `findall` pass of `_TOKEN` and adds
up the lengths of the blanks and tokens for the positions.  `_parse_expr`
reads one sum, such as sum_I z_I xi^I, into one element.  Each term is
one loop over its factors:

* unary signs fold into one sign of the term;
* literals, read by `scalars.unsigned_literal`, and ``i`` multiply
  into one `CRat` coefficient;
* a generator name (one that is no ``--let`` binding and is not followed
  by ``[`` or ``(``) is its kernel key, from `Context.generator_key` on
  its first use and from the context's name table after that; a run of
  them folds into one pending monomial, an int key and a sign, by the
  kernel's rules: keys add, a repeated odd generator makes the run zero,
  and `merge_sign` of the odd bits gives the sign;
* a parenthesised sum, a call or a binding that is an element enters the
  term's numerators through `graded_poly._product`, after the carrier
  check that element arithmetic makes; a pending run enters the same way
  just before it, or at the end of the term, under the exponent guard.
  A term that is scalars times one run is one numerator and no product.

A sum collects its element terms as (numerators, denominator) pairs and
adds them once over the lcm of their denominators, with one
`graded_poly._accumulate` pass; `graded_poly._element` divides out the
content.  The result takes the carrier and class of the first element term, as element
arithmetic would: a `Supernumber` in supernumber mode and a `GradedPoly`
of the form carrier in form mode, unless a binding brings its own.  A
sum that is one factor and nothing else is that factor itself, so a bare
binding or call result comes back unchanged.

A sum of scalars only, such as ``2*3 - 1/2i``, is a bare `CRat`.  It is
lifted into the mode's algebra by `Context.as_element` in two places
only: each call argument, and the result of `evaluate`; so
``inverse(2)`` or ``e[2](dx1)`` see elements.

A ``[...]`` parameter is the source text up to the closing bracket, so
``lift[polynomial:1,2i]`` reads the seed ``polynomial:1,2i``; only
``lift``, ``conj``, ``e``, ``i`` and ``L`` accept one.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import lcm

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
from .graded_poly import (
    FIELD,
    GradedPoly,
    _accumulate,
    _check_exponents,
    _element,
    _pair,
    _product,
    carrier_mismatch,
    function_carrier,
    merge_sign,
)
from .grassmann import Convention, Supernumber
from .scalars import CRat, unsigned_literal


_I = CRat(0, 1)


class ExprError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at column {position + 1})")
        self.reason = message
        self.position = position


# leading blanks, then one token or a character that no token reads
_TOKEN = re.compile(
    r"(\s*)(?:(?P<op>[-+*^()\[\],:])|(?P<num>\d+(?:/\d+)?i?)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<bad>\S))"
)


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) of each token; kind is the name of the
    `_TOKEN` group that matched.  Blanks after the last token end the
    input; the first other character that no token reads is an error."""
    out = []
    end = 0
    for blank, op, num, name, bad in _TOKEN.findall(text):
        at = end + len(blank)
        if op:
            out.append(("op", op, at))
            end = at + 1
        elif num:
            out.append(("num", num, at))
            end = at + len(num)
        elif name:
            out.append(("name", name, at))
            end = at + len(name)
        else:
            raise ExprError(f"unexpected character {bad!r}", at)
    return out


# Deepest nesting of parentheses and calls; each level costs two Python
# frames (`_parse_expr` and `_parse_group`), and an `e[...]` parameter,
# which cannot hold brackets, at most one more run of levels, so this
# stays well inside the interpreter's recursion limit.
MAX_NESTING = 100


@dataclass
class _Parser:
    """`tokens` ends with one ("end", "", len(text)) sentinel, which no
    rule consumes without raising."""

    text: str
    tokens: list[tuple[str, str, int]]
    pos: int = 0
    depth: int = 0

    def expect(self, value: str):
        kind, text, at = self.tokens[self.pos]
        self.pos += 1
        if text != value:
            found = "end of input" if kind == "end" else repr(text)
            raise ExprError(f"expected {value!r}, found {found}", at)

    def enter(self, at: int):
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ExprError(f"nesting deeper than {MAX_NESTING} levels", at)


def _index(digits: str) -> int:
    """The index that a name's digits spell, leading zeros ignored, or 0,
    which no range admits, past 18 significant digits: `int` refuses
    strings of more than 4300 digits."""
    if len(digits) < 19:
        return int(digits)
    digits = digits.lstrip("0")
    return int(digits) if 0 < len(digits) < 19 else 0


class Context:
    """Name resolution and function dispatch for one evaluation mode."""

    def __init__(self, n: int, nu: int, bindings: dict[str, object] | None = None):
        self.n = n
        self.nu = nu
        self.bindings = bindings or {}
        self.name_keys: dict[str, int] = {}  # of the generator names read, from `generator_key`
        self.form_mode = n > 0
        self.coords = CoordinateSystem(n, nu) if self.form_mode else None
        # the carrier and class of a generator, and so of what arithmetic on generators gives
        self.carrier = self.coords.forms if self.form_mode else function_carrier(0, nu)
        self.element_class = GradedPoly if self.form_mode else Supernumber

    # -- atoms ---------------------------------------------------------

    def scalar(self, c: CRat):
        if self.form_mode:
            return GradedPoly.scalar(self.coords.forms, c)
        return Supernumber.scalar(self.nu, c)

    def as_element(self, value):
        """`value` as an element of this mode: a bare scalar is lifted."""
        return self.scalar(value) if type(value) is CRat else value

    def generator_key(self, name: str, at: int) -> int:
        """The kernel key of the generator `name` on `self.carrier`: the
        bit of an odd generator, xi_k and then dx_k, or the low bit of the
        exponent field of an even one, x_k and then dxi_k."""
        if self.form_mode:
            n, nu, shift = self.n, self.nu, self.carrier.shift
            for prefix, limit, start, step in (
                ("dxi", nu, shift(n + 1), FIELD),
                ("dx", n, nu, 1),
                ("xi", nu, 0, 1),
                ("x", n, shift(1), FIELD),
            ):
                if name.startswith(prefix) and name[len(prefix):].isdigit():
                    k = _index(name[len(prefix):])
                    if not 1 <= k <= limit:
                        raise ExprError(f"{name}: index outside 1..{limit}", at)
                    return 1 << start + step * (k - 1)
            raise ExprError(f"unknown identifier {name!r}", at)
        if name.startswith("x") and name[1:].isdigit():
            k = _index(name[1:])
            if not 1 <= k <= self.nu:
                raise ExprError(f"{name}: generator index outside 1..{self.nu}", at)
            return 1 << (k - 1)
        raise ExprError(f"unknown identifier {name!r}", at)

    def field_by_name(self, name: str, at: int) -> SuperVectorField:
        for kind, limit in (("xi", self.nu), ("x", self.n)):
            if name.startswith(kind) and name[len(kind):].isdigit():
                k = _index(name[len(kind):])
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
            try:
                f = f.coefficient_function()
            except ValueError:  # f holds a differential
                raise ExprError(f"e[{param}]: parameter is not a superfunction", param_at) from None
            return op_e_form(self.coords, f)(arg)
        if name in ("i", "L"):
            if param is None:
                raise ExprError(f"{name} needs a coordinate direction: {name}[x1](w)", at)
            field = self.field_by_name(param, param_at)
            op = op_i_form(field) if name == "i" else op_lie_form(field)
            return op(arg)
        raise ExprError(f"unknown function {name!r}", at)


def _parse_expr(p: _Parser, ctx: Context):
    """sum := term (("+" | "-") term)*, term := factor (("*" | "^") factor)*,
    factor := ("+" | "-")* atom, read into one value as the module
    docstring says."""
    tokens = p.tokens
    bindings = ctx.bindings
    name_keys = ctx.name_keys
    odd = ctx.carrier.odd
    scalar = None  # the sum of the scalar terms
    parts = []  # (nums, den) of each element term
    carrier = cls = None  # those of the first element term
    single = None  # the factor of a term that is one element factor
    neg = False  # the sign of the term, from the operator before it
    while True:
        coef = None  # the product of the term's scalar factors
        nums = None  # the product of its element factors, over den
        den = 1
        first = None  # its first element factor
        key = None  # a pending run of generators: one monomial, times sign (0 once an odd one repeats)
        while True:
            kind, text, at = tokens[p.pos]
            p.pos += 1
            while text == "-" or text == "+":
                neg ^= text == "-"
                kind, text, at = tokens[p.pos]
                p.pos += 1
            if kind == "num":
                try:
                    value = unsigned_literal(text)
                except ValueError as exc:
                    raise ExprError(str(exc), at) from None
            elif kind == "name" and tokens[p.pos][1] not in ("[", "("):
                value = bindings[text] if text in bindings else _I if text == "i" else None
            else:
                value = _parse_group(p, ctx, kind, text, at)
            if value is None:
                g = name_keys.get(text)
                if g is None:
                    g = name_keys[text] = ctx.generator_key(text, at)
                if key is None:
                    if nums is None:
                        tcarrier, tcls = ctx.carrier, ctx.element_class
                    elif ctx.carrier is not tcarrier and ctx.carrier != tcarrier:
                        raise carrier_mismatch(tcarrier, ctx.carrier)
                    key, sign = g, 1
                elif sign:  # fold g into the run, as `_product` would
                    og, ok = g & odd, key & odd
                    if ok & og:
                        sign = 0
                    else:
                        if ok and og and merge_sign(ok, og) < 0:
                            sign = -sign
                        key += g
                first = None
            elif type(value) is CRat:
                coef = value if coef is None else coef * value
            else:
                fcarrier = value.carrier
                if nums is None and key is None:
                    nums, den, tcarrier, first = value.nums, value.den, fcarrier, value
                    tcls = type(value) if value._keeps_type else GradedPoly
                else:
                    if fcarrier is not tcarrier and fcarrier != tcarrier:
                        raise carrier_mismatch(tcarrier, fcarrier)
                    if key is not None:
                        nums = _times_monomial(nums, key, sign, tcarrier)
                        key = None
                    nums = _product(nums, value.nums, tcarrier)
                    den *= value.den
                    first = None
            op = tokens[p.pos][1]
            if op != "*" and op != "^":
                break
            p.pos += 1
        if nums is None and key is None:
            if neg:
                coef = -coef
            scalar = coef if scalar is None else scalar + coef
        else:
            c, d = (1, 1) if coef is None else _pair(coef)
            if neg:
                c = -c
            den *= d
            if key is not None:
                nums = _times_monomial(nums, key, c * sign, tcarrier)
            elif c != 1:
                nums = {k: v * c for k, v in nums.items()} if c else {}
            if coef is not None or neg:
                first = None
            if carrier is None:
                carrier, cls, single = tcarrier, tcls, first
            elif tcarrier is not carrier and tcarrier != carrier:
                raise carrier_mismatch(carrier, tcarrier)
            parts.append((nums, den))
        op = tokens[p.pos][1]
        if op != "+" and op != "-":
            break
        p.pos += 1
        neg = op == "-"
    if not parts:
        return scalar
    if len(parts) == 1 and scalar is None:
        if single is not None:
            return single
        nums, den = parts[0]
    else:
        if scalar is not None:
            c, d = _pair(scalar)
            if c:
                parts.append(({0: c}, d))
        den = 1
        for _, d in parts:  # lcm(*generator) left allocator memory behind on CPython 3.11
            den = lcm(den, d)
        nums = {}
        for terms, d in parts:
            f = den // d
            _accumulate(nums, terms.items() if f == 1 else ((k, c * f) for k, c in terms.items()))
    return _element(cls, carrier, nums, den)


def _times_monomial(nums: dict | None, key: int, c, carrier) -> dict:
    """`nums` (None for 1) times c times the monomial `key`, which may not
    run past an exponent guard."""
    _check_exponents(carrier, (key,))
    if not c:
        return {}
    return {key: c} if nums is None else _product(nums, {key: c}, carrier)


def _parse_group(p: _Parser, ctx: Context, kind: str, text: str, at: int):
    """A parenthesised sum or a call, whose first token (kind, text, at)
    is read; any other token here is an error."""
    if text == "(":
        p.enter(at)
        value = _parse_expr(p, ctx)
        p.expect(")")
        p.depth -= 1
        return value
    if kind == "name":
        param, param_at = None, 0
        if p.tokens[p.pos][1] == "[":
            param, param_at = _parse_param(p)
        p.expect("(")
        p.enter(at)
        args = [ctx.as_element(_parse_expr(p, ctx))]
        while p.tokens[p.pos][1] == ",":
            p.pos += 1
            args.append(ctx.as_element(_parse_expr(p, ctx)))
        p.expect(")")
        p.depth -= 1
        return ctx.call(text, param, args, at, param_at)
    raise ExprError("unexpected end of input" if kind == "end" else f"unexpected token {text!r}", at)


def _parse_param(p: _Parser) -> tuple[str, int]:
    """The source text between '[' and its ']' without outer spaces, and
    the position where that text starts."""
    tokens = p.tokens
    at = tokens[p.pos][2]
    p.pos += 1
    while tokens[p.pos][1] != "]":
        if tokens[p.pos][0] == "end":
            raise ExprError("'[' is never closed", at)
        p.pos += 1
    raw = p.text[at + 1:tokens[p.pos][2]]
    p.pos += 1
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
        kind, rest, at = tokens[p.pos]
        if kind != "end":
            raise ExprError(f"trailing input {rest!r}", at)
    except ExprError as exc:
        raise ExprError(exc.reason, exc.position + column) from None
    return ctx.as_element(value)
