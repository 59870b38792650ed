import random

import pytest

from supercalc import randomgen as rg
from supercalc.grassmann import Convention, Supernumber
from supercalc.matrices import (
    GradedMatrix,
    GradedVector,
    ParityError,
    ParitySignature,
    apply_to_vector,
    conjugate_matrix,
    matmul,
    superhermitian,
    supertranspose,
)
from supercalc.scalars import CRat

N_GEN = 4


def _transpose(k: GradedMatrix) -> GradedMatrix:
    """The plain transpose, with no sign: the row and column signatures swap."""
    return GradedMatrix(k.col_sig, k.row_sig, [list(col) for col in zip(*k.entries)])


def _identity(sig: ParitySignature) -> GradedMatrix:
    """The identity matrix of a signature, with entries in Lambda_N_GEN."""
    size = len(sig)
    return GradedMatrix(sig, sig, [[Supernumber.scalar(N_GEN, int(i == j)) for j in range(size)] for i in range(size)])


def test_parity_signature_ordering():
    ParitySignature((0, 0, 1))
    with pytest.raises(ValueError):
        ParitySignature((1, 0))


def test_identity_and_scalar_case():
    rng = random.Random(1)
    sig = ParitySignature.of(1, 1)
    m = rg.graded_matrix(rng, sig, sig, N_GEN, 0)
    ident = _identity(sig)
    assert matmul(ident, m) == m
    assert matmul(m, ident) == m
    # 1x1 matrices multiply like supernumbers
    one = ParitySignature.of(1, 0)
    a = rg.supernumber(rng, N_GEN)
    b = rg.supernumber(rng, N_GEN)
    ma = GradedMatrix(one, one, [[a]])
    mb = GradedMatrix(one, one, [[b]])
    assert matmul(ma, mb).entries[0][0] == a * b


def test_even_preserves_odd_flips_vector_parity():
    rng = random.Random(2)
    sig = ParitySignature.of(2, 1)
    for matrix_parity in (0, 1):
        m = rg.graded_matrix(rng, sig, sig, N_GEN, matrix_parity)
        for vec_parity in (0, 1):
            coords = tuple(
                rg.homogeneous_supernumber(rng, N_GEN, (vec_parity + p) % 2, 2)
                for p in sig.parities
            )
            v = GradedVector(sig, coords)
            image = apply_to_vector(m, v)
            if any(not z.is_zero() for z in image.coords):
                assert image.parity() == (matrix_parity + vec_parity) % 2


def test_supertranspose_purely_even_is_plain_transpose():
    rng = random.Random(3)
    sig = ParitySignature.of(3, 0)
    m = rg.graded_matrix(rng, sig, sig, N_GEN, 0)
    assert supertranspose(m) == _transpose(m)


def test_supertranspose_block_example():
    # even 2x2 blocks (a, c; d, b) map to (a, -d; c, b)
    rng = random.Random(4)
    sig = ParitySignature.of(1, 1)
    m = rg.graded_matrix(rng, sig, sig, N_GEN, 0)
    a, c = m.entries[0]
    d, b = m.entries[1]
    st = supertranspose(m)
    assert st.entries[0][0] == a
    assert st.entries[0][1] == -d
    assert st.entries[1][0] == c
    assert st.entries[1][1] == b


def _sign_rule(k: GradedMatrix) -> GradedMatrix:
    # direct evaluation of the component sign rule, independent of the
    # library routine
    pk = k.parity()
    out = []
    for r in range(len(k.col_sig)):
        row = []
        for c in range(len(k.row_sig)):
            sign = (-1) ** (((pk + k.row_sig[c]) * (k.col_sig[r] + k.row_sig[c])) % 2)
            row.append(k.entries[c][r] * sign)
        out.append(row)
    return GradedMatrix(k.col_sig, k.row_sig, out)


def test_double_supertranspose_against_sign_rule():
    rng = random.Random(5)
    for k in range(40):
        sig_r, sig_c = rg.parity_signature(rng), rg.parity_signature(rng)
        m = rg.graded_matrix(rng, sig_r, sig_c, N_GEN, k % 2)
        assert supertranspose(m) == _sign_rule(m)
        assert supertranspose(supertranspose(m)) == _sign_rule(_sign_rule(m))


def test_supertranspose_requires_parity():
    rng = random.Random(6)
    sig = ParitySignature.of(1, 1)
    mixed = rg.graded_matrix(rng, sig, sig, N_GEN, 0) + rg.graded_matrix(
        rng, sig, sig, N_GEN, 1
    )
    assert mixed.parity() is None
    with pytest.raises(ParityError):
        supertranspose(mixed)


def test_product_rules_random():
    rng = random.Random(7)
    for k in range(60):
        sig_a, sig_b, sig_c = (rg.parity_signature(rng) for _ in range(3))
        pk, pl = k % 2, (k // 2) % 2
        km = rg.graded_matrix(rng, sig_a, sig_b, N_GEN, pk)
        lm = rg.graded_matrix(rng, sig_b, sig_c, N_GEN, pl)
        kl = matmul(km, lm)
        sign = CRat(-1 if pk * pl else 1)
        assert supertranspose(kl) == matmul(supertranspose(lm), supertranspose(km)).scale(sign)
        assert conjugate_matrix(kl) == matmul(conjugate_matrix(km), conjugate_matrix(lm))
        assert superhermitian(kl) == matmul(superhermitian(lm), superhermitian(km)).scale(sign)
        assert superhermitian(km) == supertranspose(conjugate_matrix(km))
        if any(not z.is_zero() for row in kl.entries for z in row):
            assert kl.parity() == (pk + pl) % 2


def test_real_even_superhermitian_is_transpose():
    rng = random.Random(8)
    sig = ParitySignature.of(2, 0)
    entries = [
        [rg.homogeneous_supernumber(rng, N_GEN, 0, 3).conjugate() for _ in range(2)]
        for _ in range(2)
    ]
    real_entries = [[(z + z.conjugate()).even_part() for z in row] for row in entries]
    m = GradedMatrix(sig, sig, real_entries)
    assert superhermitian(m) == _transpose(m)


def test_dewitt_convention_available():
    rng = random.Random(9)
    sig = ParitySignature.of(1, 1)
    m = rg.graded_matrix(rng, sig, sig, N_GEN, 1)
    assert superhermitian(m, Convention.DEWITT) == conjugate_matrix(
        supertranspose(m), Convention.DEWITT
    )

