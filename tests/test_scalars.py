"""CRat against a reference that keeps a scalar as a pair of Fractions."""

import random
from fractions import Fraction
from math import gcd

import pytest

from supercalc.exprlang import Context, evaluate
from supercalc.grassmann import Supernumber
from supercalc.scalars import CRat, format_crat, parse_crat, unsigned_literal

# -- the reference: (re, im) pairs of Fractions ----------------------------


def ref_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def ref_div(x, y):
    n = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n, (x[1] * y[0] - x[0] * y[1]) / n)


def ref_pow(x, k):
    out = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        out = ref_mul(out, x)
    return ref_div((Fraction(1), Fraction(0)), out) if k < 0 else out


def ref_format(re: Fraction, im: Fraction) -> str:
    def rat(q):
        return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"

    if im == 0:
        return rat(re)
    im_part = "i" if abs(im) == 1 else rat(abs(im)) + "i"
    if re == 0:
        return ("-" if im < 0 else "") + im_part
    return f"{rat(re)}{'-' if im < 0 else '+'}{im_part}"


# -- helpers ----------------------------------------------------------------


def pair(c: CRat):
    return (c.re, c.im)


def canonical(c: CRat) -> bool:
    a, b, d = c._a, c._b, c._d
    return all(type(v) is int for v in (a, b, d)) and d > 0 and gcd(a, b, d) == 1


def random_pairs(seed: int, count: int):
    """Mostly the suites' range (numerators -4..4, denominators 1..3), some
    large numerators and denominators, some zero parts."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        span, den = (4, 3) if rng.random() < 0.7 else (10**12, 10**6)
        parts = [Fraction(rng.randint(-span, span), rng.randint(1, den)) for _ in range(2)]
        if rng.random() < 0.3:
            parts[rng.randrange(2)] = Fraction(0)
        out.append(tuple(parts))
    return out


CASES = list(zip(random_pairs(1, 300), random_pairs(2, 300)))


def test_construction_matches_the_pair():
    for x, _ in CASES:
        c = CRat(*x)
        assert pair(c) == x and canonical(c)
        assert pair(CRat(x[0])) == (x[0], 0) and canonical(CRat(x[0]))
    for a, b in [(0, 0), (3, -2), (-7, 0), (0, 5)]:
        c = CRat(a, b)
        assert pair(c) == (a, b) and canonical(c)
    assert canonical(CRat(True)) and CRat(True) == 1


@pytest.mark.parametrize(
    "op, ref",
    [
        (lambda c, e: c + e, lambda x, y: (x[0] + y[0], x[1] + y[1])),
        (lambda c, e: c - e, lambda x, y: (x[0] - y[0], x[1] - y[1])),
        (lambda c, e: c * e, ref_mul),
    ],
    ids=["add", "sub", "mul"],
)
def test_binary_operations(op, ref):
    for x, y in CASES:
        got = op(CRat(*x), CRat(*y))
        assert pair(got) == ref(x, y) and canonical(got)
        # an int or Fraction operand on either side
        for scalar in (y[0], int(y[0])):
            s = (Fraction(scalar), Fraction(0))
            for got, want in [
                (op(CRat(*x), scalar), ref(x, s)),
                (op(scalar, CRat(*x)), ref(s, x)),
            ]:
                assert pair(got) == want and canonical(got)


def test_division():
    for x, y in CASES:
        if y == (0, 0):
            continue
        got = CRat(*x) / CRat(*y)
        assert pair(got) == ref_div(x, y) and canonical(got)
        if y[0]:
            got = CRat(*x) / y[0]
            assert pair(got) == ref_div(x, (y[0], Fraction(0))) and canonical(got)
        if x != (0, 0):
            got = y[0] / CRat(*x)
            assert pair(got) == ref_div((y[0], Fraction(0)), x) and canonical(got)


def test_division_by_zero():
    x = CRat(Fraction(1, 2), 3)
    for zero in (0, Fraction(0), CRat(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero
    with pytest.raises(ZeroDivisionError):
        1 / CRat(0)
    with pytest.raises(ZeroDivisionError):
        CRat(0) ** -2


def test_powers():
    for x, _ in CASES[:100]:
        for k in range(-3, 5):
            if k < 0 and x == (0, 0):
                continue
            got = CRat(*x) ** k
            assert pair(got) == ref_pow(x, k) and canonical(got)
    with pytest.raises(TypeError):
        CRat(2) ** Fraction(1, 2)


def test_unary_operations():
    for x, _ in CASES:
        c = CRat(*x)
        for got, want in [(-c, (-x[0], -x[1])), (c.conjugate(), (x[0], -x[1]))]:
            assert pair(got) == want and canonical(got)
        assert c.abs2() == x[0] * x[0] + x[1] * x[1]
        assert type(c.abs2()) is Fraction
        assert c.is_zero() == (x == (0, 0)) == (not c)
        assert c.is_real() == (x[1] == 0)
        assert complex(c) == complex(float(x[0]), float(x[1]))
        if x[1] == 0:
            assert float(c) == float(x[0])
        else:
            with pytest.raises(ValueError):
                float(c)


def test_equality_and_hash_against_int_and_fraction():
    for x, _ in CASES:
        c = CRat(*x)
        if x[1] == 0:
            assert c == x[0] and x[0] == c and hash(c) == hash(x[0])
            if x[0].denominator == 1:
                n = int(x[0])
                assert c == n and n == c and hash(c) == hash(n)
        else:
            assert c != x[0] and c != int(x[0])
            assert hash(c) == hash(x)
    assert CRat(Fraction(6, 3)) == 2 and hash(CRat(Fraction(6, 3))) == hash(2)
    assert CRat(Fraction(1, 2)) != 1 and CRat(1) != Fraction(1, 2)
    assert CRat(1) != "1" and CRat(1) != 1.0
    assert {CRat(2): "a"}[2] == "a" and {Fraction(1, 2): "b"}[CRat(Fraction(1, 2))] == "b"


def test_equality_and_hash_across_constructions():
    half, third = Fraction(1, 2), Fraction(1, 3)
    ways = [
        CRat(half, third),
        parse_crat("1/2+1/3i"),
        CRat(1) / 2 + CRat(0, 1) / 3,
        CRat(Fraction(3, 6), Fraction(-2, -6)),
        (CRat(3, 2) * CRat(1, 0)) / 6 - CRat(0, Fraction(0, 5)),
        CRat(5, 0) / 6 + CRat(-2, 2) / 6,
        CRat(half, -third).conjugate(),
        -CRat(-half, -third),
    ]
    for w in ways:
        assert w == ways[0] and hash(w) == hash(ways[0]) and canonical(w)
    assert CRat(Fraction(2, 4)) == CRat(half)
    assert CRat(1) / 3 * 3 == 1 and CRat(0, 1) ** 4 == 1 and CRat(0, 1) ** 2 == -1


@pytest.mark.parametrize(
    "text",
    ["0", "3", "-3", "1/2", "-1/2", "i", "-i", "2i", "-2/3i", "1+i", "1-i", "1+2i",
     "1/2-3/4i", "-7/3+5/2i", "123456789012345678901/2-i"],
)
def test_format_parse_round_trip(text):
    c = parse_crat(text)
    assert canonical(c)
    assert format_crat(c) == text == str(c)
    assert format_crat(c) == ref_format(c.re, c.im)


def test_format_matches_the_pair_format():
    for x, y in CASES:
        c = CRat(*x) * CRat(*y)
        text = format_crat(c)
        assert text == ref_format(*ref_mul(x, y))
        assert parse_crat(text) == c and format_crat(parse_crat(text)) == text


# Unsigned rationals as the tokenizer's `num` token writes them: leading
# zeros, zero numerators, a long numerator and digits outside ASCII, which
# both `\d` and int() accept.
RATIONALS = ["0", "7", "007", "12", "0/5", "007/010", "3/4", "10/4", "١٢", "١٢/٣",
             "123456789012345678901/3"]


def ref_literal(text: str) -> CRat:
    """A literal read part by part with Fraction(str)."""
    if not text.endswith("i"):
        return CRat(Fraction(text))
    body = text[:-1]
    cut = max(body.rfind("+", 1), body.rfind("-", 1))
    re, im = (body[:cut], body[cut:]) if cut > 0 else ("0", body)
    if im in ("", "+", "-"):
        im += "1"
    return CRat(Fraction(re), Fraction(im))


def test_parse_matches_the_fraction_reader():
    for r in RATIONALS:
        for text in (r, r + "i"):  # every shape of the tokenizer's num token
            assert parse_crat(text) == ref_literal(text) and canonical(parse_crat(text))
        for sign in ("+", "-"):
            for text in (sign + r, sign + r + "i", sign + "i", r + sign + "i"):
                assert parse_crat(text) == ref_literal(text)
            for q in RATIONALS[::3]:
                for text in (r + sign + q + "i", "-" + r + sign + q + "i", f" {r}{sign}{q}i "):
                    c = parse_crat(text)
                    assert c == ref_literal(text.strip()) and canonical(c)
    assert parse_crat("007/010i") == CRat(0, Fraction(7, 10)) and parse_crat("0i") == 0


def test_the_reader_reads_literals_as_the_fraction_reader():
    """The expression reader's number tokens, non-ASCII digits included,
    go to `unsigned_literal`; a signed one reads as a negated sum."""
    for r in RATIONALS:
        for text in (r, r + "i"):
            want = Supernumber.scalar(1, ref_literal(text))
            assert evaluate(text, Context(0, 1)) == want, text
            assert unsigned_literal(text) == ref_literal(text) and canonical(unsigned_literal(text)), text
            assert evaluate(f"-{text}*x1", Context(0, 1)) == -want * Supernumber.generator(1, 1), text
            assert evaluate(text, Context(1, 0)) == ref_literal(text), text  # form mode


@pytest.mark.parametrize("text", ["3/0", "3/00", "0/0i", "1/0-i", "1+2/0i", "3/0x", "3/\u0660"])
def test_parse_zero_denominator_message(text):
    with pytest.raises(ValueError) as info:
        parse_crat(text)
    assert str(info.value) == f"zero denominator in scalar literal {text!r}"


@pytest.mark.parametrize("text", ["", "i2", "1/", "/2", "1.5", "1_0", "++1", "1+-2i", "1+2", "ii", "1/2/3"])
def test_parse_bad_literal_message(text):
    with pytest.raises(ValueError) as info:
        parse_crat(text)
    assert str(info.value) == f"bad scalar literal: {text!r}"


def test_immutable():
    c = CRat(1, 2)
    for name in ("re", "im", "_a", "_b", "_d", "other"):
        with pytest.raises(AttributeError):
            setattr(c, name, 5)
    assert c == CRat(1, 2)


def test_coerce():
    c = CRat(1)
    assert CRat.coerce(c) is c
    assert CRat.coerce(Fraction(4, 6)) == CRat(Fraction(2, 3)) and canonical(CRat.coerce(Fraction(4, 6)))
    assert pair(CRat.coerce(True)) == (1, 0) and type(CRat.coerce(True)._a) is int
    for bad in (1.5, "1", None):
        with pytest.raises(TypeError):
            CRat.coerce(bad)
        with pytest.raises(TypeError):
            CRat(1) + bad


def test_cube_takes_two_multiplications(monkeypatch):
    calls = []
    mul = CRat.__mul__

    def counting(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(CRat, "__mul__", counting)
    x = CRat(Fraction(2, 3), 1)
    cube = x ** 3
    assert len(calls) == 2
    monkeypatch.undo()
    assert cube == x * x * x


def test_int_operands_match_the_pair():
    """CRat op int and int op CRat for + - * / take the int paths: each
    result is a canonical CRat equal, hash included, to the reference."""
    rng = random.Random(6)
    ints = [0, 1, -1, 2, -3, 6] + [rng.randint(-10**9, 10**9) for _ in range(6)]
    refs = [
        (lambda c, e: c + e, lambda x, y: (x[0] + y[0], x[1] + y[1])),
        (lambda c, e: c - e, lambda x, y: (x[0] - y[0], x[1] - y[1])),
        (lambda c, e: c * e, ref_mul),
        (lambda c, e: c / e, ref_div),
    ]
    for x, _ in CASES:
        for k in ints:
            s = (Fraction(k), Fraction(0))
            for i, (op, ref) in enumerate(refs):
                cases = []
                if i < 3 or k:
                    cases.append((op(CRat(*x), k), ref(x, s)))
                if i < 3 or x != (0, 0):
                    cases.append((op(k, CRat(*x)), ref(s, x)))
                for got, want in cases:
                    assert type(got) is CRat and canonical(got)
                    assert pair(got) == want and got == CRat(*want)
                    assert hash(got) == hash(want[0] if not want[1] else want)
    half = CRat(1) / 2
    for got in (half * 2, 2 * half, half * 4 - 1, 3 - half * 6, half + 0, CRat(2, 4) / 2 * 0):
        assert canonical(got) and type(got) is CRat
    assert half * 2 == 1 and CRat(Fraction(1, 3), Fraction(2, 3)) * 3 == CRat(1, 2)
