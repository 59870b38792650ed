"""Graded vectors and matrices over supernumbers.

Row and column parities are explicit data (never inferred from entries,
since zero entries make inference ambiguous), with even indices listed
before odd ones.  A matrix has parity 0 (1) when every entry's parity
plus its row and column parities is even (odd); sums of the two kinds
carry no parity and must be split before taking a supertranspose.
`matmul` is the one product: K v is K times v's one-column matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .grassmann import Convention, GeneratorMismatch, Parity, Supernumber
from .scalars import CRat


class ParityError(ValueError):
    """Raised when an operation needs a parity the object does not have."""


@dataclass(frozen=True)
class ParitySignature:
    """Sequence over {0, 1} with all even entries first."""

    parities: tuple[int, ...]

    def __post_init__(self):
        ps = tuple(int(p) for p in self.parities)
        if any(p not in (0, 1) for p in ps):
            raise ValueError("parities must be 0 or 1")
        if any(a > b for a, b in zip(ps, ps[1:])):
            raise ValueError("even indices must be listed before odd ones")
        object.__setattr__(self, "parities", ps)

    @staticmethod
    def of(n_even: int, n_odd: int) -> "ParitySignature":
        return ParitySignature((0,) * n_even + (1,) * n_odd)

    def __len__(self):
        return len(self.parities)

    def __getitem__(self, i: int) -> int:
        return self.parities[i]


def _common_parity(pairs) -> int | None:
    """The parity shared by every nonzero entry once shifted by its
    basis parity, from (shift, entry) pairs: 0, 1, or None when no parity
    can be assigned.  All entries zero counts as even."""
    found = set()
    for shift, z in pairs:
        if z.is_zero():
            continue
        pz = z.parity()
        if pz is Parity.MIXED:
            return None
        found.add((pz.value + shift) % 2)
    return None if len(found) > 1 else (found.pop() if found else 0)


@dataclass(frozen=True, repr=False)
class GradedVector:
    """Coordinates together with a basis parity signature.

    Coordinates are stored in the basis-first convention (the components
    written to the right of the basis vectors).
    """

    sig: ParitySignature
    coords: tuple[Supernumber, ...]

    def __post_init__(self):
        if len(self.coords) != len(self.sig):
            raise ValueError("coordinate/signature length mismatch")
        object.__setattr__(self, "coords", tuple(self.coords))

    def parity(self) -> int | None:
        """0, 1, or None when no parity can be assigned."""
        return _common_parity(zip(self.sig.parities, self.coords))

    def __repr__(self):
        return f"GradedVector({self.sig!r}, {[str(c) for c in self.coords]})"


@dataclass(frozen=True, repr=False)
class GradedMatrix:
    row_sig: ParitySignature
    col_sig: ParitySignature
    entries: tuple[tuple[Supernumber, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(row) for row in self.entries)
        if len(rows) != len(self.row_sig) or any(len(r) != len(self.col_sig) for r in rows):
            raise ValueError("entry shape does not match signatures")
        ns = {z.n for row in rows for z in row}
        if len(ns) > 1:
            raise GeneratorMismatch("entries over different Grassmann algebras")
        object.__setattr__(self, "entries", rows)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_sig), len(self.col_sig)

    def parity(self) -> int | None:
        return _common_parity(
            (pr + pc, z)
            for pr, row in zip(self.row_sig.parities, self.entries)
            for pc, z in zip(self.col_sig.parities, row)
        )

    def __add__(self, other: "GradedMatrix") -> "GradedMatrix":
        if self.row_sig != other.row_sig or self.col_sig != other.col_sig:
            raise ValueError("signature mismatch")
        return GradedMatrix(
            self.row_sig,
            self.col_sig,
            [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(self.entries, other.entries)],
        )

    def __neg__(self):
        return GradedMatrix(
            self.row_sig, self.col_sig, [[-a for a in row] for row in self.entries]
        )

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "GradedMatrix":
        c = CRat.coerce(Fraction(c) if isinstance(c, str) else c)
        return GradedMatrix(
            self.row_sig, self.col_sig, [[a * c for a in row] for row in self.entries]
        )

    def __repr__(self):
        return f"GradedMatrix({self.shape[0]}x{self.shape[1]})"


def matmul(k: GradedMatrix, m: GradedMatrix) -> GradedMatrix:
    """Entry-wise sums of supernumber products, K's entries on the left."""
    if k.col_sig != m.row_sig:
        raise ValueError("signature mismatch: K columns must match L rows")
    rows, inner, cols = len(k.row_sig), len(k.col_sig), len(m.col_sig)
    n_gen = k.entries[0][0].n if rows and inner else (m.entries[0][0].n if inner else 0)
    out = []
    for i in range(rows):
        row = []
        for j in range(cols):
            acc = Supernumber.zero(n_gen)
            for t in range(inner):
                acc = acc + k.entries[i][t] * m.entries[t][j]
            row.append(acc)
        out.append(row)
    return GradedMatrix(k.row_sig, m.col_sig, out)


def apply_to_vector(k: GradedMatrix, v: GradedVector) -> GradedVector:
    """K v: `matmul` of K with the one even column of v's coordinates."""
    if k.col_sig != v.sig:
        raise ValueError("signature mismatch")
    column = matmul(k, GradedMatrix(v.sig, ParitySignature((0,)), [[c] for c in v.coords]))
    return GradedVector(k.row_sig, [row[0] for row in column.entries])


def supertranspose(k: GradedMatrix) -> GradedMatrix:
    """Graded transpose: entry (r, c) of the result is
    (-1)^{(pK + c')(r' + c')} times entry (c, r), where r' and c' are the
    parities of r in K's column signature and of c in K's row signature.
    Row and column signatures swap."""
    pk = k.parity()
    if pk is None:
        raise ParityError("supertranspose needs an assigned matrix parity")
    rows_out, cols_out = len(k.col_sig), len(k.row_sig)
    out = []
    for r in range(rows_out):
        pr = k.col_sig[r]
        row = []
        for c in range(cols_out):
            pc = k.row_sig[c]
            entry = k.entries[c][r]
            if ((pk + pc) * (pr + pc)) % 2:
                entry = -entry
            row.append(entry)
        out.append(row)
    return GradedMatrix(k.col_sig, k.row_sig, out)


def conjugate_matrix(k: GradedMatrix, convention: Convention = Convention.KOSZUL) -> GradedMatrix:
    return GradedMatrix(
        k.row_sig,
        k.col_sig,
        [[z.conjugate(convention) for z in row] for row in k.entries],
    )


def superhermitian(k: GradedMatrix, convention: Convention = Convention.KOSZUL) -> GradedMatrix:
    """Conjugate supertranspose; the two composition orders agree."""
    return conjugate_matrix(supertranspose(k), convention)
