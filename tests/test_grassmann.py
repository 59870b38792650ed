import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from supercalc import randomgen as rg
from supercalc.grassmann import (
    Convention,
    GeneratorMismatch,
    NotInvertible,
    Parity,
    Supernumber,
    format_supernumber,
    from_json_terms,
    reversal,
)
from supercalc.exprlang import Context, evaluate
from supercalc.graded_poly import indices_of
from supercalc.scalars import CRat, format_crat, parse_crat


def gens(n):
    return Supernumber.generators(n)


def test_generator_anticommutation():
    x1, x2 = gens(2)
    assert x1 * x2 == -(x2 * x1)
    assert (x1 * x1).is_zero()
    assert (x2 * x2).is_zero()


def test_unit_cancellation():
    x1, _ = gens(2)
    one = Supernumber.unit(2)
    assert (one + x1) * (one - x1) == one


def test_body_soul():
    x1, x2, _ = gens(3)
    z = Supernumber.scalar(3, 3) + x1 * x2 * 2
    assert z.body() == CRat(3)
    assert z.soul() == x1 * x2 * 2
    assert Supernumber.scalar(3, z.body()) + z.soul() == z


def test_soul_nilpotency_exhaustive_n3():
    rng = random.Random(1)
    for _ in range(20):
        z = rg.supernumber(rng, 3)
        assert (z.soul() ** 4).is_zero()


def test_even_odd_parity():
    x1, x2, x3 = gens(3)
    one = Supernumber.unit(3)
    z = one + x1 + x1 * x2
    assert z.even_part() == one + x1 * x2
    assert z.odd_part() == x1
    assert (x1 * x2 * x3).parity() is Parity.ODD
    assert (one + x1).parity() is Parity.MIXED
    assert (x1 * x2).parity() is Parity.EVEN


def test_inverse_example_by_direct_expansion():
    # oracle: multiply out (2 + x1x2)(1/2 - 1/4 x1x2) by hand:
    # 1 - 1/2 x1x2 + 1/2 x1x2 - 1/4 (x1x2)^2 = 1
    x1, x2 = gens(2)
    z = Supernumber.scalar(2, 2) + x1 * x2
    expected = Supernumber.from_indices(2, {(): Fraction(1, 2), (1, 2): Fraction(-1, 4)})
    assert z.inverse() == expected
    assert z * z.inverse() == Supernumber.unit(2)


def test_inverse_identity_and_errors():
    assert Supernumber.unit(2).inverse() == Supernumber.unit(2)
    with pytest.raises(NotInvertible):
        Supernumber.generator(2, 1).inverse()


def test_inverse_random():
    rng = random.Random(7)
    for k in range(50):
        n = 2 + k % 5
        z = rg.supernumber(rng, n, ensure_body=True)
        assert z * z.inverse() == Supernumber.unit(n)


def test_conjugation_examples():
    x1, x2 = gens(2)
    iz = x1 * CRat(0, 1)
    assert iz.conjugate() == x1 * CRat(0, -1)
    assert (x1 * x2).conjugate() == x1 * x2  # real stays real
    # reversing convention: (x1 x2)* = x2* x1* = x2 x1 = -x1 x2,
    # so the product of two real odd supernumbers is purely imaginary
    dewitt = (x1 * x2).conjugate(Convention.DEWITT)
    assert dewitt == -(x1 * x2)
    assert dewitt == x2 * x1
    # DeWitt scales degree p by (-1)^{p(p-1)/2} after conjugating: degrees
    # 0, 1 and 4 keep their sign and degree 3 flips, where the reversal
    # composed with the parity automorphism would flip degree 1 and keep 3
    for indices, sign in (((), 1), ((1,), 1), ((1, 2, 3), -1), ((1, 2, 3, 4), 1)):
        z = Supernumber.from_indices(4, {indices: CRat(2, 3)})
        assert z.conjugate(Convention.DEWITT) == Supernumber.from_indices(4, {indices: CRat(2, -3) * sign})
        assert z.conjugate(Convention.DEWITT) == reversal(z.conjugate())


def test_conjugation_rules_random():
    rng = random.Random(9)
    for k in range(60):
        n = 2 + k % 4
        z, w = rg.supernumber(rng, n), rg.supernumber(rng, n)
        assert (z + w).conjugate() == z.conjugate() + w.conjugate()
        assert z.conjugate().conjugate() == z
        assert (z * w).conjugate() == z.conjugate() * w.conjugate()
        pa, pb = k % 2, (k // 2) % 2
        a = rg.homogeneous_supernumber(rng, n, pa)
        b = rg.homogeneous_supernumber(rng, n, pb)
        sign = -1 if pa * pb else 1
        assert (a * b).conjugate(Convention.DEWITT) == a.conjugate(
            Convention.DEWITT
        ) * b.conjugate(Convention.DEWITT) * sign


@st.composite
def small_supernumbers(draw, n=3):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        mask = draw(st.integers(0, (1 << n) - 1))
        num = draw(st.integers(-4, 4))
        den = draw(st.integers(1, 3))
        terms[mask] = CRat(Fraction(num, den))
    return Supernumber(n, terms)


@settings(max_examples=60, deadline=None)
@given(small_supernumbers(), small_supernumbers(), small_supernumbers())
def test_associativity_distributivity_property(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=60, deadline=None)
@given(small_supernumbers(), small_supernumbers())
def test_graded_commutativity_property(a, b):
    for pa in (0, 1):
        for pb in (0, 1):
            ha = a.even_part() if pa == 0 else a.odd_part()
            hb = b.even_part() if pb == 0 else b.odd_part()
            sign = -1 if pa * pb else 1
            assert ha * hb == hb * ha * sign


def test_generator_count_mismatch():
    with pytest.raises(GeneratorMismatch):
        Supernumber.generator(2, 1) * Supernumber.generator(3, 1)


def test_text_serialization_round_trip():
    x1, x2, x3 = gens(3)
    z = Supernumber.scalar(3, 3) + x1 * x2 * 2 - x3 * CRat(Fraction(1, 2), Fraction(5))
    text = format_supernumber(z)
    assert evaluate(text, Context(0, 3)) == z
    assert format_supernumber(Supernumber.zero(3)) == "0"
    assert format_supernumber(Supernumber.scalar(2, 3) + gens(2)[0] * gens(2)[1] * 2) == "3 + 2*x1^x2"


def ref_format_supernumber(z: Supernumber) -> str:
    """The text form printed from the `.terms` view, by degree and then
    multi-index: `str` of each coefficient, parenthesised when it holds an
    inner sign."""
    if z.is_zero():
        return "0"
    chunks = []
    for _, indices, coeff in sorted((m.bit_count(), indices_of(m), c) for m, c in z.terms.items()):
        mono = "^".join(f"x{i}" for i in indices)
        if not indices:
            text = str(coeff)
        elif coeff == 1:
            text = mono
        elif coeff == -1:
            text = f"-{mono}"
        else:
            c = str(coeff)
            if "+" in c[1:] or "-" in c[1:]:
                c = f"({c})"
            text = f"{c}*{mono}"
        chunks.append(text)
    out = chunks[0]
    for chunk in chunks[1:]:
        out += " - " + chunk[1:] if chunk.startswith("-") else " + " + chunk
    return out


COEFFICIENTS = [1, -1, CRat(0, 1), CRat(0, -1), CRat(2, -3), CRat(Fraction(-1, 2), Fraction(3, 4)),
                Fraction(5, 7), Fraction(-6, 4), 7, -12, CRat(0, Fraction(-2, 3)), CRat(Fraction(9, 3), 1)]


def test_the_text_form_matches_the_terms_view_printer():
    """`format_supernumber` prints from the numerators over one
    denominator; products give Gaussian numerators whose imaginary part
    cancels, which print as reals."""
    rng = random.Random(30)
    real_gaussian = 0
    for n in range(9):
        samples = [Supernumber.zero(n), Supernumber.scalar(n, CRat(0, Fraction(-1, 3)))]
        for _ in range(40):
            masks = rng.sample(range(1 << n), min(1 << n, rng.randint(1, 6)))
            z = Supernumber(n, {m: rng.choice(COEFFICIENTS) for m in masks})
            samples += [z, Supernumber.scalar(n, rng.choice(COEFFICIENTS)), z * rg.supernumber(rng, n)]
        for z in samples:
            assert format_supernumber(z) == ref_format_supernumber(z), z.terms
            real_gaussian += any(type(c) is CRat and not c._b for c in z.nums.values())
    assert real_gaussian


def test_json_round_trip():
    """`from_json_terms` reads the README's term map, and reads back a map
    written from the `.terms` view with `str` of each coefficient."""
    assert from_json_terms({"": "3", "1,2": "2"}, 2) == Supernumber.from_indices(2, {(): 3, (1, 2): 2})
    data = {"2,3": "-1/2+3/4i", "": "-i", "1": "5/3"}
    want = {(2, 3): CRat(Fraction(-1, 2), Fraction(3, 4)), (): CRat(0, -1), (1,): Fraction(5, 3)}
    assert from_json_terms(data, 3) == Supernumber.from_indices(3, want)
    rng = random.Random(3)
    for _ in range(20):
        z = rg.supernumber(rng, 4)
        data = {",".join(map(str, indices_of(m))): str(c) for m, c in z.terms.items()}
        assert from_json_terms(data, 4) == z


def test_scalar_literal_round_trip():
    rng = random.Random(4)
    for _ in range(40):
        c = rg.crat(rng)
        assert parse_crat(format_crat(c)) == c
    for text, want in [("3", CRat(3)), ("-1/2", CRat(Fraction(-1, 2))), ("2i", CRat(0, 2)),
                       ("1+2i", CRat(1, 2)), ("1/2-3/4i", CRat(Fraction(1, 2), Fraction(-3, 4))),
                       ("i", CRat(0, 1)), ("-i", CRat(0, -1))]:
        assert parse_crat(text) == want


def test_arithmetic_stays_in_supernumbers():
    x1, x2 = gens(2)
    assert type(x1 * x2) is Supernumber and (x1 * x2).terms == {0b11: CRat(1)}
    z = 2 + x1 * x2 - x1
    for result in (z ** 0, -z, 3 - z, z - 3, z + 1, 1 + z, z * 2, 2 * z, z * z, z.soul(), z.even_part()):
        assert type(result) is Supernumber and result.n == 2
    assert (z ** 0).terms == {0: CRat(1)} and 3 - z == -(z - 3)


def test_negative_mask_is_refused_at_once():
    """A negative mask once sent the constructor's error message into an
    endless loop; a child process bounds the wait."""
    code = "from supercalc.grassmann import Supernumber\nSupernumber(1, {-1: 1})"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=20)
    assert proc.returncode == 1 and proc.stderr.strip().endswith("ValueError: mask -1 outside 0..1 for 1 generators")
    with pytest.raises(ValueError):
        Supernumber(1, {-1: 1})
