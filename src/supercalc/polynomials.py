"""Sparse exact polynomials in n real variables over Q(i).

Used as the commuting-coefficient ring for mixed superfunctions: term
keys are exponent tuples, values exact complex rationals.  Supports the
operations the integration layer needs: ring arithmetic, partial
derivatives, evaluation and exact definite integrals over boxes.

Ring arithmetic runs through the shared sparse term routines of
`grassmann`; the monomial rule here, `_exps_mono`, adds dense exponent
tuples with sign +1.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Sequence

from .grassmann import GeneratorMismatch, _SCALARS, _hash, _neg, _product, _scale, _sum
from .scalars import CRat, _power

Expts = tuple[int, ...]


def _exps_mono(a: Expts, b: Expts, nu: int) -> tuple[Expts, int]:
    """Monomial rule of dense exponent tuples: add exponents, no sign."""
    return tuple(map(add, a, b)), 1


class Polynomial:
    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Expts, CRat] | None = None, _canonical=False):
        object.__setattr__(self, "n", n)
        if terms is None:
            clean: dict[Expts, CRat] = {}
        elif _canonical:
            clean = terms  # a fresh dict, or the terms of another immutable element
        else:
            clean = {}
            for exps, c in terms.items():
                if len(exps) != n or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps} for {n} variables")
                c = CRat.coerce(c)
                if not c.is_zero():
                    clean[tuple(exps)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @staticmethod
    def constant(n: int, value) -> "Polynomial":
        return Polynomial(n, {(0,) * n: CRat.coerce(value)})

    @staticmethod
    def variable(n: int, index: int) -> "Polynomial":
        """The coordinate x_index (1-based)."""
        exps = [0] * n
        exps[index - 1] = 1
        return Polynomial(n, {tuple(exps): CRat(1)})

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other: "Polynomial") -> None:
        if self.n != other.n:
            raise GeneratorMismatch(f"operands over {self.n} vs {other.n} variables")

    def __eq__(self, other):
        if isinstance(other, _SCALARS):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return _hash(self.n, self.terms)

    def __add__(self, other):
        if isinstance(other, _SCALARS):
            other = Polynomial.constant(self.n, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return Polynomial(self.n, _sum(self.terms, other.terms), _canonical=True)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.n, _neg(self.terms), _canonical=True)

    def __sub__(self, other):
        if isinstance(other, _SCALARS):
            other = Polynomial.constant(self.n, other)
        return self + (-other)

    def __rsub__(self, other):
        return Polynomial.constant(self.n, other) - self

    def __mul__(self, other):
        if isinstance(other, _SCALARS):
            return Polynomial(self.n, _scale(self.terms, CRat.coerce(other)), _canonical=True)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check(other)
        return Polynomial(self.n, _product(self.terms, other.terms, _exps_mono, 0), _canonical=True)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        return _power(self, k, Polynomial.constant(self.n, 1))

    def partial(self, index: int) -> "Polynomial":
        """d/dx_index (1-based)."""
        i = index - 1
        out: dict[Expts, CRat] = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            ne = list(e)
            ne[i] -= 1
            out[tuple(ne)] = c * e[i]
        return Polynomial(self.n, out, _canonical=True)

    def evaluate(self, point: Sequence) -> CRat:
        values = [CRat.coerce(Fraction(v) if isinstance(v, str) else v) for v in point]
        total = CRat(0)
        for e, c in self.terms.items():
            term = c
            for v, k in zip(values, e):
                if k:
                    term = term * v ** k
            total = total + term
        return total

    def integrate_box(self, bounds: Sequence[tuple]) -> CRat:
        """Exact definite integral over a product of intervals."""
        if len(bounds) != self.n:
            raise ValueError("bounds/variable count mismatch")
        los = [Fraction(lo) for lo, _ in bounds]
        his = [Fraction(hi) for _, hi in bounds]
        total = CRat(0)
        for e, c in self.terms.items():
            factor = CRat(1)
            for i, k in enumerate(e):
                width = (Fraction(his[i]) ** (k + 1) - Fraction(los[i]) ** (k + 1)) / (k + 1)
                factor = factor * width
            total = total + c * factor
        return total

    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def sorted_terms(self) -> list[tuple[Expts, CRat]]:
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        bits = []
        for e, c in self.sorted_terms():
            mono = "*".join(f"t{i+1}^{k}" if k > 1 else f"t{i+1}" for i, k in enumerate(e) if k)
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Polynomial(" + " + ".join(bits) + ")"


def to_json_poly(p: Polynomial) -> dict[str, str]:
    return {",".join(str(k) for k in e): str(c) for e, c in p.sorted_terms()}


def from_json_poly(data: Mapping[str, str], n: int) -> Polynomial:
    from .scalars import parse_crat

    terms: dict[Expts, CRat] = {}
    for key, val in data.items():
        exps = tuple(int(tok) for tok in key.split(",")) if key else (0,) * n
        if len(exps) != n:
            raise ValueError(f"exponent key {key!r} does not have {n} entries")
        terms[exps] = parse_crat(val)
    return Polynomial(n, terms)
