"""Exterior calculus of forms and weight-one densities over mixed
coordinates (x^a, xi^alpha).

Forms are elements of the graded-commutative algebra generated by the
coordinates together with their differentials; dx_a is odd and dxi_alpha
is even, so bosonic differentials anticommute while fermionic ones
commute, and the ascending complex is unbounded once nu > 0.  Densities
live in the mirror algebra generated by contravariant slots with the
same parities, which is why the divergence obeys bb = 0 by the same
cancellation that gives dd = 0.  Both are one kernel pass,
`graded_poly._differential_nums`, whose moves the carrier kind selects:
d trades x_a for dx_a and xi_alpha for dxi_alpha, and b removes x_a and
xi_alpha each together with its slot.

`SuperForm` and `SuperDensity` are `GradedPoly` elements of the form and
density carriers of a patch that hold one degree; their constructors
check both, and arithmetic on them returns plain `GradedPoly` elements,
which the public operations below wrap again.

An `Operator` maps the numerators and denominator of an element of its
carrier to those of the image, content kept, and carries a parity tag so
that graded commutators are formed uniformly.  Sums, composites P @ Q
and brackets combine these maps, and applying an operator divides out
the content once, building one element.  L(X) on forms is the derivation of
parity |X| fixed by its values on the generators, one `_derivation_sum`
pass of L(X)w = sum_A X^A dw/dy^A + (-1)^|X| sum_A dX^A dw/d(dy^A),
not the bracket [i(X), d] that the Cartan formula equates it with
(Kolar, Michor and Slovak 1993, section 8); on densities it stays the
bracket [b, i(X)], as b is not a derivation.  The table of graded Cartan
relations that these operators obey is checked in the suites layer
(`supercalc.suites.IDENTITIES`); this module holds no oracle code.
A scalar density integrates through `berezin.mixed_integral` alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm, prod
from typing import Callable, Sequence

from .berezin import Domain, mixed_integral
from .graded_poly import (
    Carrier,
    GeneratorMismatch,
    GradedPoly,
    Kind,
    Parity,
    _degree_of_key,
    _derivation_sum,
    _derivation_terms,
    _differential_nums,
    _element,
    _init,
    _product,
    _sum,
    density_carrier,
    form_carrier,
    function_carrier,
)
from .scalars import CRat


@dataclass(frozen=True)
class CoordinateSystem:
    """A single patch with n bosonic and nu fermionic coordinates."""

    n: int
    nu: int

    @property
    def functions(self) -> Carrier:
        return function_carrier(self.n, self.nu)

    @property
    def forms(self) -> Carrier:
        return form_carrier(self.n, self.nu)

    @property
    def densities(self) -> Carrier:
        return density_carrier(self.n, self.nu)

    # generators, 1-based
    def x(self, a: int) -> GradedPoly:
        return GradedPoly.coordinate(self.functions, a)

    def xi(self, alpha: int) -> GradedPoly:
        return GradedPoly.odd_coordinate(self.functions, alpha)

    def dx(self, a: int) -> GradedPoly:
        return GradedPoly.aux_odd(self.forms, a)

    def dxi(self, alpha: int) -> GradedPoly:
        return GradedPoly.aux_even(self.forms, alpha)


# -- wrappers ----------------------------------------------------------


def _as_function(coords: CoordinateSystem, f) -> GradedPoly:
    if isinstance(f, GradedPoly):
        if f.carrier.kind is not Kind.FUNCTION:
            f = f.coefficient_function()
        if (f.carrier.n, f.carrier.nu) != (coords.n, coords.nu):
            raise GeneratorMismatch("superfunction over a different patch")
        return f
    if isinstance(f, (int, Fraction, CRat, str)):
        return GradedPoly.scalar(coords.functions, f)
    raise TypeError(f"cannot treat {type(f).__name__} as a superfunction")


class _Homogeneous(GradedPoly):
    """Degree-homogeneous element of the form or density algebra of a
    patch; subclasses name the carrier kind.  The degree is read off the
    first term, 0 for zero.  `__init__` validates a caller's payload;
    library builders whose terms hold one degree by construction, such as
    the random draws, use `_element`.  Arithmetic on it gives plain
    `GradedPoly` elements of the same carrier, and equality is carrier
    plus terms."""

    __slots__ = ()
    _kind: Kind

    def __init__(self, coords: CoordinateSystem, poly: GradedPoly):
        carrier = self.carrier_of(coords)
        if poly.carrier != carrier:
            raise GeneratorMismatch(f"payload is not a {self._kind.value} over these coordinates")
        if len(poly.degrees()) > 1:
            raise ValueError(f"inhomogeneous degrees {sorted(poly.degrees())}")
        _init(self, carrier, poly.nums, poly.den)

    @property
    def degree(self) -> int:
        return _degree_of_key(self.carrier, next(iter(self.nums), 0))

    @property
    def coords(self) -> CoordinateSystem:
        return CoordinateSystem(self.carrier.n, self.carrier.nu)

    @classmethod
    def carrier_of(cls, coords: CoordinateSystem) -> Carrier:
        return coords.forms if cls._kind is Kind.FORM else coords.densities

    @classmethod
    def from_function(cls, coords: CoordinateSystem, f):
        return cls(coords, _as_function(coords, f).with_carrier(cls.carrier_of(coords)))

    def scale(self, c):
        return type(self)(self.coords, self * c)

    def components(self) -> dict[int, GradedPoly]:
        """Components keyed by their auxiliary key as stored, the key with
        its x and xi bits cleared (form and density keys of a patch
        agree); values are superfunctions."""
        fn = self.coords.functions
        coordinates = fn.allowed
        groups: dict = {}
        for key, c in self.nums.items():
            groups.setdefault(key & ~coordinates, {})[key & coordinates] = c
        return {aux: _element(GradedPoly, fn, nums, self.den) for aux, nums in groups.items()}

    def __repr__(self):
        return f"{type(self).__name__}(deg {self.degree}: {super().__repr__()})"


class SuperForm(_Homogeneous):
    """Degree-homogeneous exterior form with polynomial coefficients."""

    __slots__ = ()
    _kind = Kind.FORM


class SuperDensity(_Homogeneous):
    """Degree-homogeneous weight-one density (graded antisymmetric
    contravariant tensor) with polynomial coefficients."""

    __slots__ = ()
    _kind = Kind.DENSITY


@dataclass(frozen=True)
class SuperVectorField:
    """X = sum_A (component_A) d/dx^A, components stored basis-first.

    ``parity`` is validated: the component along an even (odd) coordinate
    must have parity equal (opposite) to the field's.
    """

    coords: CoordinateSystem
    bose: tuple[GradedPoly, ...]
    fermi: tuple[GradedPoly, ...]
    parity: int

    def __post_init__(self):
        if len(self.bose) != self.coords.n or len(self.fermi) != self.coords.nu:
            raise ValueError("component count mismatch")
        want_bose = Parity.EVEN if self.parity == 0 else Parity.ODD
        want_fermi = Parity.ODD if self.parity == 0 else Parity.EVEN
        if any(comp.carrier != self.coords.functions for comp in self.bose + self.fermi):
            raise GeneratorMismatch("component is not a superfunction over this patch")
        for comp in self.bose:
            if not comp.is_zero() and comp.parity() is not want_bose:
                raise ValueError("bosonic component parity inconsistent with field parity")
        for comp in self.fermi:
            if not comp.is_zero() and comp.parity() is not want_fermi:
                raise ValueError("fermionic component parity inconsistent with field parity")

    @staticmethod
    def make(coords: CoordinateSystem, bose: Sequence, fermi: Sequence, parity: int) -> "SuperVectorField":
        return SuperVectorField(
            coords,
            tuple(_as_function(coords, b) for b in bose),
            tuple(_as_function(coords, f) for f in fermi),
            parity,
        )

    @staticmethod
    def coordinate_basis(coords: CoordinateSystem, label: tuple[str, int]) -> "SuperVectorField":
        """d/dx_a as ('x', a), d/dxi_alpha as ('xi', alpha)."""
        kind, idx = label
        if kind not in ("x", "xi"):
            raise ValueError(f"unknown coordinate kind {kind!r}")
        zero = GradedPoly.zero(coords.functions)
        slots = {"x": [zero] * coords.n, "xi": [zero] * coords.nu}
        if not 1 <= idx <= len(slots[kind]):
            raise ValueError(f"{kind} index {idx} outside 1..{len(slots[kind])}")
        slots[kind][idx - 1] = GradedPoly.unit(coords.functions)
        return SuperVectorField(coords, tuple(slots["x"]), tuple(slots["xi"]), int(kind == "xi"))

    def apply(self, f: GradedPoly) -> GradedPoly:
        """Directional derivative on a superfunction."""
        f = _as_function(self.coords, f)
        fc = self.coords.functions
        terms = _derivation_terms(fc, _coordinate_pairs(fc, self.bose, self.fermi))
        return _element(GradedPoly, fc, *_derivation_sum(f.nums, f.den, terms))

    def bracket(self, other: "SuperVectorField") -> "SuperVectorField":
        """Graded Lie bracket [X, Y] = XY - (-1)^{parities} YX."""
        sign = -1 if (self.parity * other.parity) & 1 else 1
        bose = tuple(
            self.apply(cy) - sign * other.apply(cx)
            for cx, cy in zip(self.bose, other.bose)
        )
        fermi = tuple(
            self.apply(cy) - sign * other.apply(cx)
            for cx, cy in zip(self.fermi, other.fermi)
        )
        return SuperVectorField(self.coords, bose, fermi, (self.parity + other.parity) % 2)

    def coordinate_divergence(self) -> GradedPoly:
        """sum_A d(component_A)/dx^A (used by the scalar-density checks)."""
        out = GradedPoly.zero(self.coords.functions)
        for a, comp in enumerate(self.bose, start=1):
            out = out + comp.partial_x(a)
        for alpha, comp in enumerate(self.fermi, start=1):
            out = out + comp.partial_xi(alpha)
        return out


# -- operators ----------------------------------------------------------


@dataclass(frozen=True)
class Operator:
    """Linear operator on one carrier, `fn(nums, den)` giving the image's
    (nums, den) with the content kept; the parity tag is None on a sum of
    an even and an odd operator.  A call checks the operand's carrier."""

    parity: int | None
    carrier: Carrier
    fn: Callable[[dict, int], tuple[dict, int]]

    def __call__(self, w: GradedPoly) -> GradedPoly:
        if w.carrier is not self.carrier and w.carrier != self.carrier:
            raise GeneratorMismatch(f"operand is not a {self.carrier.kind.value} over this patch")
        return _element(GradedPoly, self.carrier, *self.fn(w.nums, w.den))

    def _join(self, other: "Operator", parity: int | None, fn) -> "Operator":
        """The operator `fn` of this one and `other`, on their one carrier."""
        if other.carrier != self.carrier:
            raise GeneratorMismatch(f"operators on different carriers: {self.carrier} vs {other.carrier}")
        return Operator(parity, self.carrier, fn)

    def __add__(self, other: "Operator", sign: int = 1) -> "Operator":
        p, q = self.fn, other.fn
        parity = self.parity if self.parity == other.parity else None
        return self._join(other, parity, lambda nums, den: _sum(*p(nums, den), *q(nums, den), sign))

    def __sub__(self, other: "Operator") -> "Operator":
        return self.__add__(other, -1)

    def __neg__(self) -> "Operator":
        p = self.fn
        return Operator(self.parity, self.carrier, lambda nums, den: _sum({}, 1, *p(nums, den), -1))

    def __matmul__(self, other: "Operator") -> "Operator":
        """The composite P @ Q, which applies Q first."""
        p, q = self.fn, other.fn
        parity = None if None in (self.parity, other.parity) else (self.parity + other.parity) % 2
        return self._join(other, parity, lambda nums, den: p(*q(nums, den)))

    def graded_bracket(self, other: "Operator") -> "Operator":
        """[P, Q] = PQ - (-1)^{parity P * parity Q} QP."""
        p, q = self.fn, other.fn
        sign = 1 if (_definite(self) * _definite(other)) & 1 else -1
        parity = (self.parity + other.parity) % 2
        return self._join(other, parity, lambda nums, den: _sum(*p(*q(nums, den)), *q(*p(nums, den)), sign))


def _definite(op: Operator) -> int:
    """The parity of an operator that a bracket can grade: a sum of an even
    and an odd operator has none."""
    if op.parity is None:
        raise ValueError("graded bracket of an operator of mixed parity (a sum of an even and an odd operator)")
    return op.parity


def _parity_of(f: GradedPoly) -> int:
    p = f.parity()
    if p is Parity.MIXED:
        raise ValueError("operator argument must have homogeneous parity")
    return p.value if p is not Parity.EVEN else 0


def _left(parity: int, a: GradedPoly) -> Operator:
    """Left multiplication by the element a, of the given parity."""
    carrier = a.carrier
    return Operator(parity, carrier, lambda nums, den: (_product(a.nums, nums, carrier), a.den * den))


def _contraction(parity: int, carrier: Carrier, pairs) -> Operator:
    """sum of comp * (derivative along a generator) over the (comp, bit,
    shift) pairs of `_derivation_terms`, in one `_derivation_sum` pass."""
    terms = _derivation_terms(carrier, pairs)
    return Operator(parity, carrier, lambda nums, den: _derivation_sum(nums, den, terms))


def _coordinate_pairs(carrier: Carrier, bose, fermi) -> list:
    """The nonzero components against the coordinate they differentiate:
    x_a for the bosonic ones, xi_alpha for the fermionic ones."""
    pairs = [(c, 0, carrier.shift(a)) for a, c in enumerate(bose, start=1) if c.nums]
    return pairs + [(c, 1 << (alpha - 1), 0) for alpha, c in enumerate(fermi, start=1) if c.nums]


def _aux_pairs(carrier: Carrier, bose, fermi) -> list:
    """The nonzero components against the auxiliary they contract: dx_a
    (the x_a slot) for the bosonic ones, dxi_alpha (the xi_alpha slot)
    for the fermionic ones."""
    n, nu = carrier.n, carrier.nu
    pairs = [(c, 1 << (nu + a - 1), 0) for a, c in enumerate(bose, start=1) if c.nums]
    return pairs + [(c, 0, carrier.shift(n + alpha)) for alpha, c in enumerate(fermi, start=1) if c.nums]


# operators on the form algebra


def op_mult(coords: CoordinateSystem, f) -> Operator:
    f = _as_function(coords, f)
    return _left(_parity_of(f), f.with_carrier(coords.forms))


def total_differential(coords: CoordinateSystem, f) -> GradedPoly:
    """dF = sum_A dx^A (dF/dx^A) as an element of the form algebra."""
    f = _as_function(coords, f)
    return _element(GradedPoly, coords.forms, _differential_nums(f.nums, coords.forms), f.den)


def op_e_form(coords: CoordinateSystem, f) -> Operator:
    """e(F): left wedge by dF; raises form degree by one."""
    return _left((_parity_of(_as_function(coords, f)) + 1) % 2, total_differential(coords, f))


def op_d_form(coords: CoordinateSystem) -> Operator:
    """Exterior differential, an odd derivation with dd = 0."""
    forms = coords.forms
    return Operator(1, forms, lambda nums, den: (_differential_nums(nums, forms), den))


def op_i_form(x: SuperVectorField) -> Operator:
    """Contraction i(X): components act from the left on the derivative
    along the matching differential."""
    forms = x.coords.forms
    return _contraction((x.parity + 1) % 2, forms, _aux_pairs(forms, x.bose, x.fermi))


def op_lie_form(x: SuperVectorField) -> Operator:
    """Lie derivative on forms, L(X)w = sum_A X^A dw/dy^A + (-1)^|X| sum_A
    dX^A dw/d(dy^A), in one `_derivation_sum` pass; each dX^A is taken
    once per operator, and only for the nonzero components."""
    forms = x.coords.forms
    d_comps = []
    for comp in x.bose + x.fermi:
        nums = _differential_nums(comp.nums, forms) if comp.nums else {}
        d_comps.append(_element(GradedPoly, forms, {k: -c for k, c in nums.items()} if x.parity else nums, comp.den))
    n = x.coords.n
    pairs = _coordinate_pairs(forms, x.bose, x.fermi) + _aux_pairs(forms, d_comps[:n], d_comps[n:])
    return _contraction(x.parity, forms, pairs)


# operators on the density algebra


def op_mult_density(coords: CoordinateSystem, f) -> Operator:
    f = _as_function(coords, f)
    return _left(_parity_of(f), f.with_carrier(coords.densities))


def op_divergence(coords: CoordinateSystem) -> Operator:
    """Divergence b = sum_A d/dx^A applied to the first slot; odd, bb = 0."""
    densities = coords.densities
    return Operator(1, densities, lambda nums, den: (_differential_nums(nums, densities), den))


def slot_element(x: SuperVectorField) -> GradedPoly:
    """The density-algebra element representing X, slots times components,
    in one pass over the numerators over the lcm of their denominators:
    the odd slot of d/dx_a passes a term's xi factors with their sign."""
    densities = x.coords.densities
    nu = densities.nu
    den = 1
    for comp in x.bose + x.fermi:
        den = lcm(den, comp.den)
    nums: dict = {}
    for a, comp in enumerate(x.bose):
        bit, f = 1 << (nu + a), den // comp.den
        nums.update((k + bit, -c * f if (k & (bit - 1)).bit_count() & 1 else c * f) for k, c in comp.nums.items())
    for alpha, comp in enumerate(x.fermi, start=1):
        step, f = 1 << densities.shift(densities.n + alpha), den // comp.den
        nums.update((k + step, c * f) for k, c in comp.nums.items())
    return _element(GradedPoly, densities, nums, den)


def op_i_density(x: SuperVectorField) -> Operator:
    """Insertion on densities: multiplication by the slot element, which
    performs the partial (anti)symmetrization automatically."""
    return _left((x.parity + 1) % 2, slot_element(x))


def op_e_density(coords: CoordinateSystem, f) -> Operator:
    """e(F) on densities: contract the first slot with dF."""
    f = _as_function(coords, f)
    bose = [f.partial_x(a) for a in range(1, coords.n + 1)]
    fermi = [f.partial_xi(alpha) for alpha in range(1, coords.nu + 1)]
    return _contraction((_parity_of(f) + 1) % 2, coords.densities, _aux_pairs(coords.densities, bose, fermi))


def op_lie_density(x: SuperVectorField) -> Operator:
    """Lie derivative on densities: the graded bracket of the divergence
    with the insertion, ordered so that coordinate fields transport
    components positively (L(d/dx^A) acts as d/dx^A).  For even fields
    this is the usual anticommutator i(X) nabla + nabla i(X)."""
    return op_divergence(x.coords).graded_bracket(op_i_density(x))


# -- public operations on forms and densities -----------------------------


def wedge(a: SuperForm, b: SuperForm) -> SuperForm:
    if a.coords != b.coords:
        raise GeneratorMismatch("forms over different coordinate systems")
    return SuperForm(a.coords, a * b)


def exterior_d(w: SuperForm) -> SuperForm:
    return SuperForm(w.coords, op_d_form(w.coords)(w))


def divergence(f: SuperDensity) -> SuperDensity:
    if f.nums and f.degree < 1:
        raise ValueError("divergence needs density degree >= 1")
    return SuperDensity(f.coords, op_divergence(f.coords)(f))


def contract_iX(x: SuperVectorField, w: SuperForm) -> SuperForm:
    if w.nums and w.degree < 1:
        raise ValueError("contraction needs form degree >= 1")
    return SuperForm(w.coords, op_i_form(x)(w))


def insert_iX(x: SuperVectorField, f: SuperDensity) -> SuperDensity:
    return SuperDensity(f.coords, op_i_density(x)(f))


def lie_derivative(x: SuperVectorField, target):
    if isinstance(target, SuperForm):
        return SuperForm(target.coords, op_lie_form(x)(target))
    if isinstance(target, SuperDensity):
        return SuperDensity(target.coords, op_lie_density(x)(target))
    if isinstance(target, GradedPoly) and target.carrier.kind is Kind.FUNCTION:
        return x.apply(target)
    raise TypeError(f"cannot Lie-differentiate {type(target).__name__}")


def pairing(density: SuperDensity, form: SuperForm) -> GradedPoly:
    """Full contraction of matching-degree components; the result is a
    superfunction (a scalar density).  Degree mismatch gives zero.

    Components with one auxiliary key contribute the product of their
    coefficient functions weighted by the factorials of the even-auxiliary
    exponents, the fermionic multiplicities (the 1/p! tensor normalization
    against p!/multiplicity orderings)."""
    if density.coords != form.coords:
        raise GeneratorMismatch("density and form over different coordinates")
    coords = density.coords
    out = GradedPoly.zero(coords.functions)
    if density.degree != form.degree:
        return out
    dens_parts = density.components()
    for key, fcomp in form.components().items():
        dcomp = dens_parts.get(key)
        if dcomp is not None:
            weight = prod(factorial(e) for _, e in coords.forms.unpack(key)[3])
            out = out + dcomp * fcomp * weight
    return out


def integrate_density(f, bounds: Sequence[tuple]) -> CRat:
    """Integrate a scalar density F(x, xi), a degree-zero SuperDensity or
    a bare superfunction, over the box: `berezin.mixed_integral` of its
    coefficient function."""
    if isinstance(f, SuperDensity) and f.degree != 0:
        raise ValueError("integration applies to scalar densities")
    if f.carrier.kind is not Kind.FUNCTION:
        f = f.coefficient_function()
    return mixed_integral(f, Domain(tuple(bounds)))
