"""Supersymmetric Fock space realized three ways.

The same occupation-number content is written as

  holomorphic  polynomials in commuting z_i and anticommuting zeta_j,
               with annihilation = differentiation, creation =
               multiplication;
  form         exterior forms on a patch whose fermionic coordinates
               match the bosonic modes (their differentials commute) and
               whose bosonic coordinates match the fermionic modes
               (differentials anticommute):  b = i(d/dxi_i), b+ = e(xi_i),
               f = i(d/dx_j), f+ = e(x_j);
  density      contravariant densities on the same patch, where the
               creation/annihilation roles of e and i swap: b = e(xi_i),
               b+ = i(d/dxi_i), f = e(x_j), f+ = i(d/dx_j).

A `FockState` is a `GradedPoly` on the carrier of its representation:
the function carrier with n = n_bose and nu = n_fermi, or the form or
density carrier of the patch with n = n_fermi and nu = n_bose, where a
state has no x or xi factor.  ``apply`` and ``translate`` are each one
pass over the packed keys: boson i moves one exponent field (x_i, or the
even auxiliary i), fermion j one odd bit (xi_j, or the odd auxiliary j),
and ``translate`` relabels generators, so it intertwines every ladder
operator exactly.  Neither adds an x or xi factor, so their results skip
the constant check that arithmetic results get.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import factorial

from .forms import CoordinateSystem, SuperDensity, SuperForm, pairing
from .graded_poly import (
    FIELD,
    _FIELD_MASK,
    Carrier,
    GradedPoly,
    Kind,
    _check_exponents,
    _element,
    _has_coordinates,
    _init,
    function_carrier,
)
from .scalars import CRat

REPRESENTATIONS = ("holomorphic", "form", "density")


@dataclass(frozen=True)
class FockAlgebraSpec:
    """Mode counts for the commuting and anticommuting ladder pairs."""

    n_bose: int
    n_fermi: int

    def geometry(self) -> CoordinateSystem:
        # bosonic modes ride on fermionic coordinates (even differentials
        # and slots), fermionic modes on bosonic ones
        return CoordinateSystem(self.n_fermi, self.n_bose)

    def carrier(self, rep: str) -> Carrier:
        if rep == "holomorphic":
            return function_carrier(self.n_bose, self.n_fermi)
        if rep == "form":
            return self.geometry().forms
        if rep == "density":
            return self.geometry().densities
        raise ValueError(f"unknown representation {rep!r}")


class FockState(GradedPoly):
    """A state: `FockState(spec, rep, element)` for an element of
    `spec.carrier(rep)`.  The representation is read from the carrier kind
    and the mode counts from (n, nu), swapped on geometric carriers.
    Arithmetic keeps the type, and equality is carrier plus terms."""

    __slots__ = ()
    _keeps_type = True

    def __init__(self, spec: FockAlgebraSpec, rep: str, poly: GradedPoly):
        carrier = spec.carrier(rep)
        if poly.carrier != carrier:
            raise ValueError("payload does not live in the representation carrier")
        _check_constant(carrier, poly.nums)
        _init(self, carrier, poly.nums, poly.den)

    def _new(self, nums: dict, den: int = 1) -> "FockState":
        _check_constant(self.carrier, nums)
        return super()._new(nums, den)

    @property
    def rep(self) -> str:
        kind = self.carrier.kind
        return "holomorphic" if kind is Kind.FUNCTION else kind.value

    @property
    def spec(self) -> FockAlgebraSpec:
        n, nu = self.carrier.n, self.carrier.nu
        return FockAlgebraSpec(n, nu) if self.carrier.kind is Kind.FUNCTION else FockAlgebraSpec(nu, n)

    @staticmethod
    def vacuum(spec: FockAlgebraSpec, rep: str = "holomorphic") -> "FockState":
        return FockState(spec, rep, GradedPoly.unit(spec.carrier(rep)))

    def scale(self, c) -> "FockState":
        return self * c

    def total_occupation(self) -> set[int]:
        return translate(self, "form").degrees()

    def __repr__(self):
        return f"FockState({self.rep}, {super().__repr__()})"


def _check_constant(carrier: Carrier, terms) -> None:
    """Geometric states carry only auxiliaries: no x or xi factor."""
    if carrier.kind is not Kind.FUNCTION and _has_coordinates(carrier, terms):
        raise ValueError("geometric states must have constant coefficients")


class ModeError(IndexError):
    pass


def _check_mode(i: int, count: int, kind: str):
    if not 1 <= i <= count:
        raise ModeError(f"{kind} mode {i} outside 1..{count}")


def apply(op: tuple[str, int], s: FockState) -> FockState:
    """Apply a ladder operator, named ('b', i), ('b+', i), ('f', j) or
    ('f+', j) with 1-based mode indices, in one pass over the packed keys.
    b lowers the field of boson i (x_i holomorphic, the even auxiliary i
    on forms and densities) as d/dx_i does, b+ raises it; f drops the bit
    of fermion j (xi_j, or the odd auxiliary j) as the left derivative
    does, f+ sets it, each signed by the odd bits below it.  On densities
    e and i swap roles, but the action on the element is the same."""
    name, i = op
    if name not in ("b", "b+", "f", "f+"):
        raise ValueError(f"unknown ladder operator {name!r}")
    if not isinstance(s, FockState):
        raise TypeError(f"ladder operators act on a FockState, not {type(s).__name__}")
    carrier = s.carrier
    n, nu = carrier.n, carrier.nu
    holomorphic = carrier.kind is Kind.FUNCTION
    items = s.nums.items()
    if name[0] == "b":
        _check_mode(i, n if holomorphic else nu, "bosonic")
        shift = carrier.shift(i if holomorphic else n + i)
        step = 1 << shift
        if name == "b":
            nums = {k - step: c * e for k, c in items if (e := k >> shift & _FIELD_MASK)}
        else:
            nums = {k + step: c for k, c in items}
            _check_exponents(carrier, nums)
    else:
        _check_mode(i, nu if holomorphic else n, "fermionic")
        bit = 1 << (i - 1 if holomorphic else nu + i - 1)
        low = bit - 1
        if name == "f":
            nums = {k ^ bit: -c if (k & low).bit_count() & 1 else c for k, c in items if k & bit}
        else:
            nums = {k | bit: -c if (k & low).bit_count() & 1 else c for k, c in items if not k & bit}
    return _element(FockState, carrier, nums, s.den)


# -- translation between representations -----------------------------------


def translate(s: FockState, to: str) -> FockState:
    """Relabel monomials between representations in one pass over the
    packed keys.  Every carrier of a spec has n_bose + n_fermi odd bits:
    the zeta bits move up past the n_bose empty xi bits to the odd
    auxiliaries, the z fields past the n_fermi empty x fields to the even
    auxiliaries, and form and density keys agree.  Coefficients never
    change: odd generators keep their relative order."""
    if to not in REPRESENTATIONS:
        raise ValueError(f"unknown representation {to!r}")
    source = s.rep
    if to == source:
        return s
    spec = s.spec
    nb, nf = spec.n_bose, spec.n_fermi
    base, zeta = nb + nf, (1 << nf) - 1
    aux = base + FIELD * nf  # the first even-auxiliary field
    items = s.nums.items()
    if source == "holomorphic":
        nums = {(k & zeta) << nb | (k >> base) << aux: c for k, c in items}
    elif to == "holomorphic":
        nums = {k >> nb & zeta | (k >> aux) << base: c for k, c in items}
    else:
        nums = s.nums
    return _element(FockState, spec.carrier(to), nums, s.den)


# -- inner and dual products -----------------------------------------------


def inner_product(f: FockState, g: FockState) -> CRat:
    """Holomorphic scalar product, realized combinatorially: monomials
    are orthogonal, a bosonic mode of occupation k contributes k!, and
    the first argument enters complex conjugated."""
    if f.rep != "holomorphic" or g.rep != "holomorphic":
        raise ValueError("inner product is defined on the holomorphic representation")
    if f.spec != g.spec:
        raise ValueError("states over different mode counts")
    total = CRat(0)
    g_terms = g.terms
    for mono, cf in f.terms.items():
        cg = g_terms.get(mono)
        if cg is None:
            continue
        weight = 1
        for _, e in f.carrier.unpack(mono)[0]:
            weight *= factorial(e)
        total = total + cf.conjugate() * cg * weight
    return total


def dual_product(density_state: FockState, form_state: FockState, volume: CRat | int = 1) -> CRat:
    """Pair a density state against a form state: contract matching
    components to a scalar density and integrate it against the
    configured volume normalization (default one over a unit box).
    Vanishes unless the degrees agree."""
    if density_state.rep != "density" or form_state.rep != "form":
        raise ValueError("dual product pairs a density state with a form state")
    if density_state.spec != form_state.spec:
        raise ValueError("states over different mode counts")
    coords = density_state.spec.geometry()
    degrees_d = density_state.degrees() or {0}
    degrees_f = form_state.degrees() or {0}
    total = CRat(0)
    for p in degrees_d & degrees_f:
        paired = pairing(
            SuperDensity(coords, density_state.degree_part(p)),
            SuperForm(coords, form_state.degree_part(p)),
        )
        for key, c in paired.terms.items():
            if key:
                raise ValueError("pairing of constant states must be constant")
            total = total + c
    return total * CRat.coerce(volume)


# -- spanning sets -----------------------------------------------------------


def spanning_states(
    spec: FockAlgebraSpec, rep: str = "holomorphic", max_occupation: int = 4
) -> list[FockState]:
    """All monomial states with bosonic occupations <= max_occupation."""
    states: list[FockState] = []
    carrier = spec.carrier("holomorphic")
    for bose in product(range(max_occupation + 1), repeat=spec.n_bose):
        for fermi_mask in range(1 << spec.n_fermi):
            mono = (tuple((i + 1, e) for i, e in enumerate(bose) if e), fermi_mask, 0, ())
            state = FockState(spec, "holomorphic", GradedPoly(carrier, {carrier.pack(mono): 1}))
            states.append(state if rep == "holomorphic" else translate(state, rep))
    return states
