"""The `eval` expression reader against supernumbers built directly.

Seeded random supernumbers on up to six generators, with rational and
Gaussian coefficients, are written out with each monomial's generators
in a shuffled order and its literal and ``i`` factors at random places,
as in ``x3*2/5*x1*i``.  The sign of a shuffled monomial is counted here
from the inversions of the written order, so the check shares no sign
code with the kernel.  The reader must give `Supernumber.from_indices`
of the terms.
"""

import random
from fractions import Fraction

from supercalc.cli import main
from supercalc.exprlang import Context, evaluate
from supercalc.graded_poly import GradedPoly
from supercalc.grassmann import Supernumber
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
