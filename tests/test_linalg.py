"""Exact matrix algebra over the scalar towers, including quaternions."""

import random
from fractions import Fraction

import pytest

from paradoxcert.errors import SingularMatrixError
from paradoxcert.linalg import (
    Matrix,
    block_embed_matrix,
    cayley_unitary,
    conj_transpose,
    is_unitary,
    kernel,
    mat_inverse,
    mat_vec,
    matmul,
    matrix_from_json,
    matrix_to_json,
    max_abs_diff,
    normalize_leading,
    projector_of_basis,
    rank,
    ray_canonical,
    to_float_matrix,
)
from paradoxcert.sampling import random_unitary, rng_for
from paradoxcert.scalars import (
    RING_GAUSS_SQRT5,
    RING_QSQRT2,
    RING_QUAT_SQRT5,
    RING_RATIONAL,
)

RINGS = (RING_RATIONAL, RING_QSQRT2, RING_GAUSS_SQRT5, RING_QUAT_SQRT5)


def _rand_matrix(n, ring, rng):
    lift = ring.from_rational
    return Matrix(tuple(lift(Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                        for _ in range(n)) for _ in range(n))


def test_identity_is_neutral():
    rng = random.Random(3)
    for ring in RINGS:
        ident = Matrix.identity(3, ring)
        m = _rand_matrix(3, ring, rng)
        assert matmul(m, ident) == m
        assert matmul(ident, m) == m


def test_matmul_is_associative_over_quaternions():
    rng = random.Random(5)
    for _ in range(20):
        a = _rand_matrix(2, RING_QUAT_SQRT5, rng)
        b = _rand_matrix(2, RING_QUAT_SQRT5, rng)
        c = _rand_matrix(2, RING_QUAT_SQRT5, rng)
        assert matmul(matmul(a, b), c) == matmul(a, matmul(b, c))


def test_conj_transpose_reverses_products():
    rng = random.Random(7)
    for ring in RINGS:
        a = _rand_matrix(3, ring, rng)
        b = _rand_matrix(3, ring, rng)
        assert conj_transpose(matmul(a, b)) == \
            matmul(conj_transpose(b), conj_transpose(a))


def test_inverse_round_trip():
    rng = random.Random(11)
    for ring in RINGS:
        ident = Matrix.identity(3, ring)
        found = 0
        while found < 5:
            m = _rand_matrix(3, ring, rng)
            try:
                inv = mat_inverse(m)
            except SingularMatrixError:
                continue
            found += 1
            assert matmul(m, inv) == ident
            assert matmul(inv, m) == ident


def test_singular_matrix_raises():
    m = Matrix([(Fraction(1), Fraction(2)), (Fraction(2), Fraction(4))])
    with pytest.raises(SingularMatrixError):
        mat_inverse(m)


def test_kernel_vectors_are_annihilated():
    rng = random.Random(13)
    for ring in RINGS:
        for _ in range(10):
            m = _rand_matrix(3, ring, rng)
            # force rank deficiency: third row = first + second
            rows = list(m.data)
            rows[2] = tuple(x + y for x, y in zip(rows[0], rows[1]))
            m = Matrix(rows)
            ker = kernel(m)
            assert len(ker) >= 1
            zero = tuple(ring.zero for _ in range(3))
            for v in ker:
                assert mat_vec(m, v) == zero
            assert rank(m) + len(ker) == 3


def test_projector_of_basis_properties():
    rng = random.Random(17)
    for ring in RINGS:
        for _ in range(10):
            m = _rand_matrix(3, ring, rng)
            cols = [tuple(r[j] for r in m.data) for j in range(2)]
            if rank(Matrix.from_columns(cols)) != 2:
                continue
            p = projector_of_basis(Matrix.from_columns(cols))
            assert matmul(p, p) == p
            assert conj_transpose(p) == p
            assert rank(p) == 2
            # projector fixes the basis it was built from
            for v in cols:
                assert mat_vec(p, v) == tuple(v)


def test_projector_is_basis_independent():
    e1 = (Fraction(1), Fraction(0), Fraction(0))
    e2 = (Fraction(0), Fraction(1), Fraction(0))
    s = (Fraction(1), Fraction(1), Fraction(0))
    d = (Fraction(1), Fraction(-1), Fraction(0))
    assert projector_of_basis(Matrix.from_columns([e1, e2])) == \
        projector_of_basis(Matrix.from_columns([s, d]))


def test_cayley_unitary_is_exactly_unitary():
    for ring in RINGS:
        for i in range(8):
            rng = rng_for(99, "cayley", ring.name, i)
            u = random_unitary(3, ring, rng)
            assert is_unitary(u)


def test_block_embed_preserves_unitarity():
    rng = rng_for(7, "embed")
    u = random_unitary(2, RING_QSQRT2, rng)
    big = block_embed_matrix(u, 4)
    assert big.rows == 4
    assert is_unitary(big)
    # the embedded block acts as before, the new coordinates are fixed
    v = (RING_QSQRT2.zero, RING_QSQRT2.zero, RING_QSQRT2.one, RING_QSQRT2.zero)
    assert mat_vec(big, v) == v


def test_normalize_leading_gives_leading_one():
    v = (Fraction(0), Fraction(-3), Fraction(6))
    w = normalize_leading(v)
    assert w[1] == 1
    # right-scalar rescalings normalize to the same representative
    v2 = (Fraction(0), Fraction(1, 2), Fraction(-1))
    assert normalize_leading(v2) == w


def test_normalize_leading_right_multiplies_for_quaternions():
    from paradoxcert.scalars import QSqrt5, Quaternion
    z, o = QSqrt5(0, 0), QSqrt5(1, 0)
    i, j = Quaternion(z, o, z, z), Quaternion(z, z, o, z)
    v = (i, j)                       # leading entry i
    w = normalize_leading(v)
    assert w[0] == Quaternion(o, z, z, z)
    # v * i^-1 = (1, j * (-i)) = (1, k); left-multiplying would give -k
    assert w[1] == i * j


def test_ray_canonical_needs_an_ordered_ring():
    from paradoxcert.scalars import GaussSqrt5, QSqrt2
    v = (QSqrt2(0), QSqrt2(-3, 2), QSqrt2(1))
    sign, d = ray_canonical(v)
    assert sign == -1 and d[1] == 1  # -3 + 2*sqrt2 < 0
    # Q(sqrt5, i) has no ordering, even where the pivot happens to be real
    with pytest.raises(TypeError):
        ray_canonical((GaussSqrt5(-3, 0, 0, 0, 1), GaussSqrt5(0, 0, 1, 0, 1)))


def test_to_float_matrix_and_max_abs_diff():
    m = Matrix([(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(2))])
    f = to_float_matrix(m)
    assert f.data[0][0] == 0.5
    assert max_abs_diff(f, f) == 0.0


def test_matrix_json_round_trip():
    rng = random.Random(23)
    for ring in RINGS:
        m = _rand_matrix(3, ring, rng)
        assert matrix_from_json(matrix_to_json(m)) == m
