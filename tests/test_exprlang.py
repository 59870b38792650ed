"""The `eval` expression reader against supernumbers built directly.

Seeded random supernumbers on up to six generators, with rational and
Gaussian coefficients, are written out with each monomial's generators
in a shuffled order and its literal and ``i`` factors at random places,
as in ``x3*2/5*x1*i``.  The sign of a shuffled monomial is counted here
from the inversions of the written order, so the check shares no sign
code with the kernel.  The reader must give `Supernumber.from_indices`
of the terms.

A second, differential check draws seeded expression trees in both
modes: nested parentheses, products of sums, chains of unary signs,
``*`` and ``^``, the calls ``inverse``, ``soul``, ``even``, ``odd`` and
``conj`` on supernumbers, the generators ``x``, ``xi``, ``dx`` and
``dxi`` of forms (repeated, so that an even one reaches exponent 2 and
an odd one gives zero), and a binding that shadows a generator name.
Each tree is written out as text and also evaluated with the element
operators alone; the reader must return an equal element of the same
class that prints the same bytes.
"""

import random
from fractions import Fraction

import pytest

from supercalc.cli import main
from supercalc.exprlang import Context, ExprError, evaluate
from supercalc.forms import CoordinateSystem
from supercalc.graded_poly import MAX_EXPONENT, GeneratorMismatch, GradedPoly, form_carrier
from supercalc.grassmann import Convention, Supernumber, format_supernumber
from supercalc.scalars import CRat, format_crat


def inversions(order: list[int]) -> int:
    return sum(a > b for i, a in enumerate(order) for b in order[i + 1:])


def rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 9), rng.randint(1, 6))


def write_term(rng: random.Random, gens: list[int]) -> tuple[str, CRat]:
    """One monomial's text with its generators in `gens` order, and the
    coefficient that the text's scalar factors multiply to."""
    coeff = CRat(1)
    factors = [f"x{k}" for k in gens]
    for _ in range(rng.randint(0, 3)):
        kind = rng.random()
        if kind < 0.4:
            r = rational(rng)
            literal = f"{r.numerator}/{r.denominator}" if rng.random() < 0.5 else str(r)
            coeff *= CRat(r)
        elif kind < 0.6:
            literal = "i"
            coeff *= CRat(0, 1)
        elif kind < 0.8:
            r = rational(rng)
            literal = f"{r}i"
            coeff *= CRat(0, r)
        else:
            re, im = rational(rng), rational(rng)
            literal = f"({re} - {im}i)"
            coeff *= CRat(re, -im)
        factors.insert(rng.randint(0, len(factors)), literal)
    return "*".join(factors) or "1", coeff


def draw(rng: random.Random, nu: int) -> tuple[str, dict]:
    """Text of a random supernumber and its terms by sorted index tuple."""
    chunks, terms = [], {}
    for _ in range(rng.randint(1, 6)):
        gens = rng.sample(range(1, nu + 1), rng.randint(0, nu))
        text, coeff = write_term(rng, gens)
        sign = -1 if inversions(gens) % 2 else 1
        if rng.random() < 0.3:
            text, sign = "-" + text, -sign
        key = tuple(sorted(gens))
        terms[key] = terms.get(key, 0) + coeff * sign
        chunks.append(text)
    text = chunks[0]
    for chunk in chunks[1:]:
        if chunk.startswith("-") and rng.random() < 0.5:
            text += " - " + chunk[1:]
        else:
            text += " + " + chunk
    return text, terms


def test_reader_matches_direct_construction():
    rng = random.Random(1601)
    for _ in range(300):
        nu = rng.randint(1, 6)
        text, terms = draw(rng, nu)
        got = evaluate(text, Context(0, nu))
        assert type(got) is Supernumber and got.carrier.nu == nu, text
        assert got == Supernumber.from_indices(nu, terms), text


def test_repeated_generator_gives_zero():
    assert evaluate("x2*3*x1*i*x2", Context(0, 2)) == Supernumber.scalar(2, 0)
    assert evaluate("x3*2/5*x1*i", Context(0, 3)) == Supernumber.from_indices(3, {(1, 3): CRat(0, Fraction(-2, 5))})
    # a group between two runs of generators ends the first run
    assert evaluate("x2*(x1 + 1)*x2", Context(0, 2)) == Supernumber.scalar(2, 0)
    assert evaluate("0/3*x1*x2", Context(0, 2)) == Supernumber.scalar(2, 0)
    # an even generator may repeat inside a run of form generators
    for text, out in (("x1*dx1*x1", "(1)*x1^2*dx1"), ("dxi1*dxi1*xi1", "(1)*xi1*dxi1^2")):
        assert show(evaluate(text, Context(1, 1))) == out, text
        assert show(evaluate(text, Context(2, 2))) == out, text


@pytest.mark.parametrize("n, nu", [(1, 0), (1, 3), (3, 1), (2, 2)])
def test_form_generator_keys_are_the_packed_monomials(n, nu):
    ctx = Context(n, nu)
    for k in range(1, n + 1):
        assert ctx.generator_key(f"x{k}", 0) == ctx.carrier.pack((((k, 1),), 0, 0, ()))
        assert ctx.generator_key(f"dx{k}", 0) == ctx.carrier.pack(((), 0, 1 << (k - 1), ()))
    for k in range(1, nu + 1):
        assert ctx.generator_key(f"xi{k}", 0) == ctx.carrier.pack(((), 1 << (k - 1), 0, ()))
        assert ctx.generator_key(f"dxi{k}", 0) == ctx.carrier.pack(((), 0, 0, ((k, 1),)))


TOP = GradedPoly(form_carrier(1, 0), {MAX_EXPONENT << form_carrier(1, 0).shift(1): 1})  # x1^MAX_EXPONENT


@pytest.mark.parametrize(
    "text, ctx, error, message",
    [
        # a name is looked up even after its run of generators is zero
        ("x1*x1*x9", Context(0, 2), ExprError, "x9: generator index outside 1..2 (at column 7)"),
        ("x1*x1*w", Context(0, 2, {"w": Supernumber.generator(3, 1)}), GeneratorMismatch, "carriers differ"),
        ("w*x1*x1", Context(0, 2, {"w": Supernumber.generator(3, 1)}), GeneratorMismatch, "carriers differ"),
        ("x1*x1*w", Context(1, 0, {"w": Supernumber.generator(3, 1)}), GeneratorMismatch, "carriers differ"),
        ("w*x1", Context(1, 0, {"w": TOP}), ValueError, f"exponent {MAX_EXPONENT + 1} exceeds {MAX_EXPONENT}"),
        ("x1*w", Context(1, 0, {"w": TOP}), ValueError, f"exponent {MAX_EXPONENT + 1} exceeds {MAX_EXPONENT}"),
        ("x1*x1*x1*w*x1", Context(1, 0, {"w": TOP}), ValueError, f"exponent {MAX_EXPONENT + 3} exceeds {MAX_EXPONENT}"),
        # a run after an element multiplies in whole, so the whole run's exponent is named
        ("w*x1*x1", Context(1, 0, {"w": TOP}), ValueError, f"exponent {MAX_EXPONENT + 2} exceeds {MAX_EXPONENT}"),
    ],
)
def test_runs_of_generators_keep_their_errors(text, ctx, error, message):
    with pytest.raises(error) as info:
        evaluate(text, ctx)
    assert message in str(info.value), text


LONG = "1" * 5000  # more digits than int() reads from a string


@pytest.mark.parametrize(
    "text, ctx, message",
    [
        (f"x{LONG}", Context(0, 2), f"x{LONG}: generator index outside 1..2 (at column 1)"),
        (f"dx{LONG}", Context(1, 1), f"dx{LONG}: index outside 1..1 (at column 1)"),
        (f"L[x{LONG}](x1)", Context(1, 1), f"x{LONG}: index outside 1..1 (at column 3)"),
    ],
    ids=["generator", "form-generator", "field"],
)
def test_a_name_with_thousands_of_digits_is_out_of_range(text, ctx, message):
    with pytest.raises(ExprError) as info:
        evaluate(text, ctx)
    assert str(info.value) == message


def test_leading_zeros_name_the_same_generator():
    ctx = Context(0, 2)
    assert evaluate("x01*x002", ctx) == evaluate("x1*x2", ctx)
    assert evaluate(f"x{'0' * 5000}2", ctx) == evaluate("x2", ctx)
    assert evaluate("L[x01](x1*dx01)", Context(1, 1)) == evaluate("L[x1](x1*dx1)", Context(1, 1))
    with pytest.raises(ExprError, match=r"x0: generator index outside 1\.\.2 \(at column 1\)"):
        evaluate("x0", ctx)


def test_scalar_only_input_is_an_element():
    got = evaluate("2*3 - 1/2i", Context(0, 3))
    assert type(got) is Supernumber and got == Supernumber.scalar(3, CRat(6, Fraction(-1, 2)))
    assert got.carrier == Supernumber.generator(3, 1).carrier
    assert format_crat(got.body()) == "6-1/2i"
    ctx = Context(2, 0)
    for text, value in (("3", 3), ("i*i", -1), ("-1/2 + 0", Fraction(-1, 2))):
        got = evaluate(text, ctx)
        assert isinstance(got, GradedPoly) and got.carrier == ctx.coords.forms
        assert got == GradedPoly.scalar(ctx.coords.forms, value)


def test_scalar_call_arguments_print_as_before(capsys):
    for args, out in [
        (("eval", "inverse(2)", "--nu", "2"), "1/2\n"),
        (("eval", "berezin(3)", "--nu", "2"), "0\n"),
        (("eval", "body(1/2)", "--nu", "2"), "1/2\n"),
        (("eval", "lift[exp](0)", "--nu", "2"), "1\n"),
        (("eval", "e[2](dx1)", "--n", "1"), "0\n"),
        (("eval", "2*dx1 - 3", "--n", "1"), "(-3)*1 + (2)*dx1\n"),
        (("eval", "i*i", "--n", "1"), "(-1)*1\n"),
        (("eval", "i*i", "--nu", "1"), "-1\n"),
    ]:
        assert main(list(args)) == 0
        assert capsys.readouterr().out == out, args


# -- differential check on expression trees ---------------------------------
#
# A tree is (text, value): the text the reader sees and the value built
# from the element operators.  A factor's text is an atom with optional
# signs in front; a sum is wrapped in parentheses before it is used as a
# factor or as the right operand of a sum.


class Trees:
    """Seeded trees over one mode: `Context(n, nu, bindings)`."""

    def __init__(self, rng: random.Random, n: int, nu: int):
        self.rng = rng
        self.n, self.nu = n, nu
        if n:
            forms = CoordinateSystem(n, nu).forms
            self.generators = [(f"x{a}", GradedPoly.coordinate(forms, a)) for a in range(1, n + 1)]
            self.generators += [(f"dx{a}", GradedPoly.aux_odd(forms, a)) for a in range(1, n + 1)]
            self.generators += [(f"xi{b}", GradedPoly.odd_coordinate(forms, b)) for b in range(1, nu + 1)]
            self.generators += [(f"dxi{b}", GradedPoly.aux_even(forms, b)) for b in range(1, nu + 1)]
            self.lift = lambda c: GradedPoly.scalar(forms, c)
            shadowed = self.generators[-1][0]
            self.bindings = {shadowed: GradedPoly.coordinate(forms, 1) * 3 - GradedPoly.aux_odd(forms, 1)}
        else:
            self.generators = [(f"x{k}", Supernumber.generator(nu, k)) for k in range(1, nu + 1)]
            self.lift = lambda c: Supernumber.scalar(nu, c)
            shadowed = f"x{nu}"
            self.bindings = {shadowed: Supernumber.from_indices(nu, {(): CRat(2, 1), (1,): Fraction(1, 3)})}
        self.generators = [(name, self.bindings.get(name, value)) for name, value in self.generators]

    def as_element(self, value):
        return self.lift(value) if isinstance(value, CRat) else value

    def space(self) -> str:
        return " " if self.rng.random() < 0.3 else ""

    def literal(self):
        rng = self.rng
        p, q = rng.randint(0, 7), rng.randint(1, 4)
        text = str(p) if q == 1 or rng.random() < 0.3 else f"{p}/{q}"
        value = CRat(Fraction(p, q if "/" in text else 1))
        if rng.random() < 0.3:
            return text + "i", value * CRat(0, 1)
        return text, value

    def atom(self, depth: int):
        rng = self.rng
        roll = rng.random()
        if depth <= 0 or roll < 0.45:
            kind = rng.random()
            if kind < 0.3:
                return self.literal()
            if kind < 0.4:
                return "i", CRat(0, 1)
            return rng.choice(self.generators)
        if roll < 0.65:
            text, value = self.sum(depth - 1)
            return f"({self.space()}{text}{self.space()})", value
        return self.call(depth - 1)

    def call(self, depth: int):
        """A supernumber call on a sum, its argument lifted to an element;
        form mode puts the sum in parentheses instead."""
        rng = self.rng
        text, value = self.sum(depth)
        if self.n:
            return f"({text})", value
        name = rng.choice(["inverse", "soul", "even", "odd", "conj", "conj[dewitt]"])
        arg = self.as_element(value)
        if name == "inverse":
            # a nonzero body makes the argument invertible
            body = rng.randint(1, 4)
            arg = self.lift(CRat(body)) + arg.soul()
            return f"inverse({body} + soul({text}))", arg.inverse()
        result = {
            "soul": lambda: arg.soul(),
            "even": lambda: arg.even_part(),
            "odd": lambda: arg.odd_part(),
            "conj": lambda: arg.conjugate(Convention.KOSZUL),
            "conj[dewitt]": lambda: arg.conjugate(Convention.DEWITT),
        }[name]()
        return f"{name}({text})", result

    def factor(self, depth: int):
        text, value = self.atom(depth)
        signs = "".join(self.rng.choice("+-") for _ in range(self.rng.choice([0, 0, 0, 1, 2, 3])))
        for sign in signs:
            if sign == "-":
                value = -value
        return signs + text, value

    def term(self, depth: int):
        rng = self.rng
        text, value = self.factor(depth)
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            if rng.random() < 0.15:
                rhs_text, rhs = rng.choice(self.generators)  # a repeated generator
                rhs_text = f"{rhs_text}*{rhs_text}"
                rhs = rhs * rhs
            else:
                rhs_text, rhs = self.factor(depth)
            op = rng.choice("*^")
            text, value = f"{text}{self.space()}{op}{self.space()}{rhs_text}", value * rhs
        return text, value

    def sum(self, depth: int):
        rng = self.rng
        text, value = self.term(depth)
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            rhs_text, rhs = self.term(depth)
            if rng.random() < 0.5:
                text, value = f"{text} + {rhs_text}", value + rhs
            else:
                text, value = f"{text} - {rhs_text}", value - rhs
        return text, value


def show(value) -> str:
    """The bytes `supercalc eval` prints for an element."""
    return format_supernumber(value) if isinstance(value, Supernumber) else repr(value)


@pytest.mark.parametrize("n, nu", [(0, 1), (0, 3), (0, 4), (1, 1), (2, 1), (1, 2)])
def test_reader_matches_element_operators(n, nu):
    rng = random.Random(1801 + 10 * n + nu)
    trees = Trees(rng, n, nu)
    for _ in range(200):
        text, value = trees.sum(2)
        expected = trees.as_element(value)
        got = evaluate(text, Context(n, nu, trees.bindings))
        assert type(got) is type(expected), text
        assert got == expected, text
        assert show(got) == show(expected), text


def test_a_lone_binding_comes_back_unchanged():
    trees = Trees(random.Random(0), 0, 2)
    ctx = Context(0, 2, trees.bindings)
    assert evaluate("x2", ctx) is trees.bindings["x2"]
    assert evaluate("((+--x2))", ctx) is trees.bindings["x2"]
    assert evaluate("x1 * x2", ctx) == trees.generators[0][1] * trees.bindings["x2"]


# -- literals and names, read once per token ---------------------------------


def _int_limit_message(digits: str) -> str:
    """What `int()` says of a digit string past the interpreter's limit."""
    try:
        int(digits)
    except ValueError as exc:
        return str(exc)
    pytest.skip("this interpreter reads digit strings of any length")


@pytest.mark.parametrize(
    "args, code, out, err",
    [
        (("eval", "٣", "--nu", "0"), 0, "3\n", ""),
        (("eval", "١٢/٣", "--nu", "0", "--json"), 0, '{"result": "4"}\n', ""),
        (("eval", "٣*x1", "--n", "1", "--nu", "1"), 0, "(3)*x1\n", ""),
        (("eval", "3/0", "--nu", "0"), 2, "", "error: zero denominator in scalar literal '3/0' (at column 1)\n"),
        (("eval", "1 + 3/٠i", "--nu", "1"), 2, "", "error: zero denominator in scalar literal '3/٠i' (at column 5)\n"),
        (("eval", "3/0x", "--nu", "1"), 2, "", "error: zero denominator in scalar literal '3/0' (at column 1)\n"),
        (("eval", "x1 # x2", "--nu", "2"), 2, "", "error: unexpected character '#' (at column 4)\n"),
        (("eval", "1/2/3", "--nu", "1"), 2, "", "error: unexpected character '/' (at column 4)\n"),
        (("eval", "x1 *x1 + 1 )", "--nu", "2"), 2, "", "error: trailing input ')' (at column 12)\n"),
        (("eval", "(1 +", "--nu", "2"), 2, "", "error: unexpected end of input (at column 5)\n"),
    ],
)
def test_cli_reads_literals_as_before(capsys, args, code, out, err):
    """Exit code, stdout and the `error:` line, with its column, for
    literals and characters that the reader reads or refuses."""
    assert main(list(args)) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize(
    "text, column",
    [(LONG, 1), (f"2*{LONG}", 3), (f"{LONG}/3", 1), (f"3/{LONG}i", 1), (f"x1 - {LONG}i*x1", 6)],
)
def test_a_literal_past_the_digit_limit_keeps_int_s_message(capsys, text, column):
    reason = _int_limit_message(LONG)
    assert main(["eval", text, "--nu", "1"]) == 2
    assert capsys.readouterr() == ("", f"error: {reason} (at column {column})\n")


def test_the_name_table_keeps_only_keys_that_were_read():
    ctx = Context(0, 3)
    assert evaluate("x3*x1 + x3", ctx) == Supernumber.from_indices(3, {(1, 3): -1, (3,): 1})
    assert ctx.name_keys == {"x3": 4, "x1": 1}
    small = Context(0, 2)
    for _ in range(2):  # a refused name is not stored, so it is refused again with its column
        with pytest.raises(ExprError) as info:
            evaluate("x1 + 2*x3", small)
        assert str(info.value) == "x3: generator index outside 1..2 (at column 8)"
        assert small.name_keys == {"x1": 1}


def test_form_names_go_through_the_table():
    ctx = Context(1, 1)
    got = evaluate("x1*xi1*dx1 + dxi1*x1 - xi1*dxi1*x1", ctx)
    names = ("x1", "xi1", "dx1", "dxi1")
    assert ctx.name_keys == {name: ctx.generator_key(name, 0) for name in names}
    forms = ctx.coords.forms
    x, xi = GradedPoly.coordinate(forms, 1), GradedPoly.odd_coordinate(forms, 1)
    dx, dxi = GradedPoly.aux_odd(forms, 1), GradedPoly.aux_even(forms, 1)
    assert got == x * xi * dx + dxi * x - xi * dxi * x
    with pytest.raises(ExprError, match=r"^dxi2: index outside 1\.\.1 \(at column 6\)$"):
        evaluate("dxi1*dxi2", ctx)
    assert "dxi2" not in ctx.name_keys


def test_a_binding_shadows_a_generator_name(tmp_path, capsys):
    binding = Supernumber.from_indices(2, {(): 2, (2,): Fraction(1, 3)})
    ctx = Context(0, 2, {"x1": binding})
    assert evaluate("x1*x2 + x2", ctx) == binding * Supernumber.generator(2, 2) + Supernumber.generator(2, 2)
    assert ctx.name_keys == {"x2": 2}
    path = tmp_path / "w.json"
    path.write_text('{"": "2", "2": "1/3"}', encoding="utf-8")
    assert main(["eval", "x1*x1 + x2", "--nu", "2", "--let", f"x1={path}"]) == 0
    assert capsys.readouterr().out == "4 + 7/3*x2\n"
