"""Seeded random instance builders shared by the invariant suites and
the test suite.  Everything is driven by a caller-supplied
``random.Random`` so identical seeds give identical trials.

Superfunctions, forms and densities are written straight into the
kernel's packed term dicts: each drawn factor adds its odd bit, or one
exponent at its `Carrier.shift` offset, to a key, and its reordering
sign, the parity of the odd factors already drawn above it, is tracked
as it arrives.  The draws, and so every downstream trial, are those of
multiplying one-term ring elements together, which
``tests/test_builders.py`` keeps as the reference.  Every drawn
coefficient is a numerator over the one denominator 6, the lcm of the
drawn denominators, and each element divides out its content once.
Integer draws consume the generator exactly as `randint` does: through
`_randint`, or, in the form and density builders that feed every trial
of the complexes suite, as its getrandbits rejection loop written out
on a bound `rng.getrandbits`.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache

from . import exactmat
from .forms import CoordinateSystem, SuperDensity, SuperForm, SuperVectorField
from .graded_poly import GradedPoly, _accumulate, _element, function_carrier, join_xi
from .grassmann import Supernumber
from .matrices import GradedMatrix, ParitySignature
from .scalars import CRat, _crat


_DEN = 6  # the lcm of the drawn denominators 1, 2 and 3
_SPAN = 4  # drawn numerators lie in -_SPAN.._SPAN
_BLADES = 3  # blades drawn per random form or density
_ENTRY_TERMS = 3  # terms drawn per graded-matrix entry
_MIXED_TERMS, _MIXED_DEGREE = 4, 2  # xi masks drawn per mixed function, and its degree in x
_MAX_SIGNATURE = 4  # rows of a random parity signature


def _randint(rng: random.Random, a: int, b: int) -> int:
    """`rng.randint(a, b)` with the same draws: the getrandbits rejection
    loop of CPython's `Random._randbelow_with_getrandbits`, without the
    argument handling of `randint` and `randrange`."""
    n = b - a + 1
    k = n.bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return a + r


def rational(rng: random.Random, span: int = 4, den: int = 3) -> Fraction:
    return Fraction(_randint(rng, -span, span), _randint(rng, 1, den))


def crat(rng: random.Random, complex_ok: bool = True) -> CRat:
    c = _draw(rng, complex_ok)
    return _crat(c, 0, _DEN) if type(c) is int else _crat(c._a, c._b, _DEN)


def _draw(rng: random.Random, complex_ok: bool = True) -> int | CRat:
    """The draws of `crat` as a numerator over _DEN: (a/d) + (b/e) i from
    two `rational` draws, the second on 40% of complex_ok draws; an int
    for a real value, else a Gaussian-integer CRat."""
    a, d = _randint(rng, -_SPAN, _SPAN), _randint(rng, 1, 3)
    if complex_ok and rng.random() < 0.4:
        b, e = _randint(rng, -_SPAN, _SPAN), _randint(rng, 1, 3)
        if b:
            return _crat(a * (_DEN // d), b * (_DEN // e), 1)
    return a * (_DEN // d)


def _over_den(cls, carrier, nums: dict):
    """The element of class cls with the numerators nums over _DEN; zero
    numerators are dropped."""
    return _element(cls, carrier, {k: c for k, c in nums.items() if c}, _DEN)


def supernumber(
    rng: random.Random,
    n: int,
    terms: int = 6,
    complex_ok: bool = True,
    ensure_body: bool = False,
) -> Supernumber:
    data: dict = {}
    for _ in range(terms):
        mask = _randint(rng, 0, (1 << n) - 1)
        data[mask] = data.get(mask, 0) + _draw(rng, complex_ok=complex_ok)
    if ensure_body and not data.get(0):
        data[0] = _randint(rng, 1, 4) * _DEN
    return _over_den(Supernumber, function_carrier(0, n), data)


def homogeneous_supernumber(rng: random.Random, n: int, parity: int, terms: int = 4) -> Supernumber:
    data: dict = {}
    masks = [m for m in range(1 << n) if m.bit_count() % 2 == parity]
    for _ in range(terms):
        data[rng.choice(masks)] = _draw(rng)
    return _over_den(Supernumber, function_carrier(0, n), data)


def _polynomial_nums(rng: random.Random, n: int, max_degree: int, terms: int) -> dict:
    """Numerators over _DEN of a polynomial in n variables: `terms` draws
    of an exponent tuple and a coefficient, a repeated tuple keeping the
    last."""
    carrier = function_carrier(n, 0)
    data = {}
    for _ in range(terms):
        exps = tuple(_randint(rng, 0, max_degree) for _ in range(n))
        data[carrier.pack((tuple((i, e) for i, e in enumerate(exps, 1) if e), 0, 0, ()))] = _draw(
            rng, complex_ok=False
        )
    return data


def mixed_function(rng: random.Random, n: int, nu: int) -> GradedPoly:
    """sum_I f_I(x) xi^I on `function_carrier(n, nu)`: _MIXED_TERMS draws
    of a xi mask and a polynomial, summed."""
    data: dict = {}
    for _ in range(_MIXED_TERMS):
        mask = _randint(rng, 0, (1 << nu) - 1)
        poly = _polynomial_nums(rng, n, _MIXED_DEGREE, 3)
        _accumulate(data, ((join_xi(mask, key, nu), c) for key, c in poly.items() if c))
    return _over_den(GradedPoly, function_carrier(n, nu), data)


def superfunction(
    rng: random.Random,
    coords: CoordinateSystem,
    terms: int = 4,
    max_degree: int = 2,
    parity: int | None = None,
) -> GradedPoly:
    fc = coords.functions
    out = _over_den(GradedPoly, fc, _function_terms(rng, coords, terms, max_degree))
    if parity is not None:
        out = out.parity_part(parity)
        if out.is_zero() and parity == 0:
            out = GradedPoly.scalar(fc, _randint(rng, 1, 3))
        if out.is_zero() and parity == 1 and coords.nu:
            out = GradedPoly.odd_coordinate(fc, _randint(rng, 1, coords.nu))
    return out


@cache
def _layout(n: int, nu: int) -> tuple:
    """The key steps of x_a and of the even auxiliary of xi_alpha on the
    patch (n, nu), and the bit lengths that `_randint` draws 1..n and 1..nu
    with: a memo of the key layout, like the carriers."""
    fc = function_carrier(n, nu)
    return tuple(1 << fc.shift(a) for a in range(1, n + nu + 1)), n.bit_length(), nu.bit_length()


def _function_terms(
    rng: random.Random, coords: CoordinateSystem, terms: int = 4, max_degree: int = 2,
    out: dict | None = None, offset: int = 0, negative: int = 0,
) -> dict:
    """Numerators over _DEN of a sum of `terms` random monomials
    c * x_a ... * xi_alpha ..., each factor drawn in turn and added to the
    key at its `Carrier.shift` offset or odd bit; a repeated xi kills its
    monomial, whose remaining factors are still drawn.  The terms go into
    `out` (a new dict by default) at key + offset, negated if `negative`."""
    n, nu = coords.n, coords.nu
    steps, k_n, k_nu = _layout(n, nu)
    bits = rng.getrandbits
    n_deg, n_xi = max_degree + 1, min(nu, 2) + 1
    k_deg, k_xi = n_deg.bit_length(), n_xi.bit_length()
    out = {} if out is None else out
    for _ in range(terms):
        a = bits(4)  # _draw(rng, complex_ok=False): a in -4..4 over d in 1..3
        while a >= 9:
            a = bits(4)
        d = bits(2)
        while d >= 3:
            d = bits(2)
        c = (a - 4) * (_DEN // (d + 1))
        key, xi, sign = offset, 0, negative
        count = bits(k_deg)
        while count >= n_deg:
            count = bits(k_deg)
        for _ in range(count if n else 0):
            a = bits(k_n)
            while a >= n:
                a = bits(k_n)
            key += steps[a]
        dead = not c
        if nu:
            count = bits(k_xi)
            while count >= n_xi:
                count = bits(k_xi)
            for _ in range(count):
                j = bits(k_nu)
                while j >= nu:
                    j = bits(k_nu)
                dead = dead or xi >> j & 1
                sign ^= (xi >> j + 1).bit_count() & 1
                xi |= 1 << j
        if not dead:
            c = out.get(key + xi, 0) + (-c if sign else c)
            if c:
                out[key + xi] = c
            else:
                del out[key + xi]
    return out


def form(rng: random.Random, coords: CoordinateSystem, degree: int) -> SuperForm:
    return _homogeneous(rng, coords, degree, SuperForm)


def density(rng: random.Random, coords: CoordinateSystem, degree: int) -> SuperDensity:
    return _homogeneous(rng, coords, degree, SuperDensity)


def _homogeneous(rng: random.Random, coords: CoordinateSystem, degree: int, cls):
    """A sum over _BLADES random blades of the given degree, each times a
    random superfunction, in the form or density algebra of ``cls``.  A blade is an
    odd-auxiliary mask, even-auxiliary exponents and a sign, kept as the
    key offset it adds to a function key of the patch; every xi sits
    below every auxiliary, so a function term times a blade takes the
    blade's sign alone, and `_function_terms` adds it straight into the
    sum."""
    n, nu = coords.n, coords.nu
    steps, k_n, k_nu = _layout(n, nu)
    bits, uniform = rng.getrandbits, rng.random
    acc: dict = {}
    for _ in range(_BLADES):
        ao = blade = negative = d = guard = 0
        while d < degree and guard < 30:
            guard += 1
            if nu and (not n or uniform() < 0.5):
                a = bits(k_nu)
                while a >= nu:
                    a = bits(k_nu)
                blade += steps[n + a]
                d += 1
            elif n:
                j = bits(k_n)
                while j >= n:
                    j = bits(k_n)
                if ao >> j & 1:
                    continue  # repeated bosonic differential
                negative ^= (ao >> j + 1).bit_count() & 1
                ao |= 1 << j
                d += 1
        if d < degree:
            continue
        _function_terms(rng, coords, out=acc, offset=blade + (ao << nu), negative=negative)
    return cls(coords, _over_den(GradedPoly, cls.carrier_of(coords), acc))


def vector_field(rng: random.Random, coords: CoordinateSystem, parity: int) -> SuperVectorField:
    bose = tuple(superfunction(rng, coords, parity=parity) for _ in range(coords.n))
    fermi = tuple(superfunction(rng, coords, parity=(parity + 1) % 2) for _ in range(coords.nu))
    return SuperVectorField(coords, bose, fermi, parity)


def invertible_rational_matrix(rng: random.Random, size: int) -> list[list[Fraction]]:
    return _invertible(rng, size, lambda a: a)


def symmetric_invertible_matrix(rng: random.Random, size: int) -> list[list[Fraction]]:
    return _invertible(rng, size, lambda a: [[a[i][j] + a[j][i] for j in range(size)] for i in range(size)])


def _invertible(rng: random.Random, size: int, shape) -> list[list[Fraction]]:
    """shape(a) for random rational a, redrawn until it is invertible."""
    while True:
        rows = shape([[rational(rng, 3, 2) for _ in range(size)] for _ in range(size)])
        if exactmat.det(exactmat.from_rows(rows)):
            return rows


def parity_signature(rng: random.Random) -> ParitySignature:
    even = _randint(rng, 0, _MAX_SIGNATURE - 1)
    odd = _randint(rng, max(0, 1 - even), _MAX_SIGNATURE - even)
    return ParitySignature.of(even, odd)


def graded_matrix(
    rng: random.Random,
    row_sig: ParitySignature,
    col_sig: ParitySignature,
    n_gen: int,
    parity: int,
) -> GradedMatrix:
    entries = []
    for pr in row_sig.parities:
        row = []
        for pc in col_sig.parities:
            want = (parity + pr + pc) % 2
            row.append(homogeneous_supernumber(rng, n_gen, want, _ENTRY_TERMS))
        entries.append(row)
    return GradedMatrix(row_sig, col_sig, entries)


def homogeneous_entry_matrix(
    rng: random.Random, rows: int, cols: int, n_gen: int, entry_parity: int
) -> list[list[Supernumber]]:
    return [
        [homogeneous_supernumber(rng, n_gen, entry_parity, _ENTRY_TERMS) for _ in range(cols)]
        for _ in range(rows)
    ]
