"""Exact matrix algebra over the scalar towers, including quaternions."""

import random
from fractions import Fraction

import pytest

from paradoxcert.errors import BackendMismatchError, SingularMatrixError
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
    normalize_leading,
    projector_of_basis,
    rank,
    ray_canonical,
    rref,
)
from paradoxcert.sampling import random_unitary, rng_for
from paradoxcert.scalars import (
    RING_GAUSS_SQRT5,
    RING_QSQRT2,
    RING_QUAT_SQRT5,
    RING_RATIONAL,
    RINGS as RINGS_BY_NAME,
    GaussSqrt5,
    QSqrt2,
    QSqrt5,
    Quaternion,
    rational_value,
    ring_of,
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


def test_an_int_pivot_reduces_like_its_fraction():
    # row 1 supplies the first pivot, as the int 3 in the mixed copy
    rows = [[Fraction(0), Fraction(1, 2), Fraction(1, 3)],
            [Fraction(3), Fraction(1, 5), Fraction(2, 7)],
            [Fraction(1, 4), Fraction(1), Fraction(5)]]
    mixed = [list(r) for r in rows]
    mixed[1][0] = 3
    for op in (lambda m: rref(m)[0], mat_inverse):
        want, got = op(Matrix(rows)), op(Matrix(mixed))
        assert got == want
        assert all(type(x) is Fraction for r in got.data for x in r)
    assert rref(Matrix(mixed))[1] == rref(Matrix(rows))[1]


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


def test_matrix_json_round_trip():
    rng = random.Random(23)
    for ring in RINGS:
        m = _rand_matrix(3, ring, rng)
        assert matrix_from_json(matrix_to_json(m)) == m


@pytest.mark.parametrize("m,ring", [
    (Matrix([(Fraction(1), QSqrt2(0)), (QSqrt2(0), QSqrt2(1))]), "qsqrt2"),
    (Matrix([(QSqrt2(1), Fraction(0)), (Fraction(0), QSqrt2(1))]), "qsqrt2"),
    (Matrix([(Quaternion(*map(Fraction, (0, 1, 0, 0))), Fraction(2)),
             (Fraction(0), Quaternion(*map(Fraction, (1, 0, 0, 0))))]),
     "quat_rational"),
], ids=["rational-first", "rational-after", "quaternion-with-rational"])
def test_a_matrix_of_mixed_entries_is_written_in_their_shared_ring(m, ring):
    # the ring is the one every entry shares, not the first entry's, and
    # every entry is written in it, so the reader takes the literal back
    blob = matrix_to_json(m)
    assert blob["ring"] == ring
    back = matrix_from_json(blob)
    assert back == m
    assert {ring_of(x).name for r in back.data for x in r} == {ring}


def test_entries_from_fields_that_do_not_mix_have_no_literal():
    quat_one = Quaternion(*map(Fraction, (1, 0, 0, 0)))
    for m in (Matrix([(QSqrt2(1), QSqrt5(1))]),
              Matrix([(QSqrt2(1), quat_one)])):
        with pytest.raises(BackendMismatchError, match="do not mix"):
            matrix_to_json(m)


# -- fused kernels against the plain left-to-right ``*``/``+`` loop ---------

def _rand_fraction(rng):
    if rng.random() < 0.25:  # zeros exercise the skipped row-update entries
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 9, 25)))


_ENTRY = {
    "rational": _rand_fraction,
    "qsqrt2": lambda rng: QSqrt2(_rand_fraction(rng), _rand_fraction(rng)),
    "qsqrt5": lambda rng: QSqrt5(_rand_fraction(rng), _rand_fraction(rng)),
    "gauss_sqrt5": lambda rng: GaussSqrt5(
        *(rng.randint(-9, 9) for _ in range(4)), rng.choice((1, 2, 5, 9))),
    "quat_rational": lambda rng: Quaternion(
        *(_rand_fraction(rng) for _ in range(4))),
    "quat_sqrt5": lambda rng: Quaternion(
        *(QSqrt5(_rand_fraction(rng), _rand_fraction(rng))
          for _ in range(4))),
    # a rational written over Q(sqrt5), whose field does not mix with
    # Q(sqrt2): a product reads it as the rational it is, and so does the
    # reference
    "rational_over_sqrt5": lambda rng: QSqrt5(_rand_fraction(rng)),
}


def _rand_rows(kind, m, n, rng):
    return tuple(tuple(_ENTRY[kind](rng) for _ in range(n)) for _ in range(m))


def _mixed_rows(m, n, rng, odd):
    """Rational rows with one ``odd`` entry, so not all of one class."""
    rows = [list(r) for r in _rand_rows("rational", m, n, rng)]
    rows[rng.randrange(m)][rng.randrange(n)] = odd
    return tuple(tuple(r) for r in rows)


def _exact_form(x):
    """Type and integer components of a scalar, so equal forms mean the
    same class and the same canonical representation."""
    if isinstance(x, Quaternion):
        return ("quaternion",) + tuple(
            _exact_form(c) for c in (x.w, x.x, x.y, x.z))
    if isinstance(x, Fraction):
        return (Fraction, x.numerator, x.denominator)
    if isinstance(x, int):
        return (int, x)
    return (type(x), x.a, x.b, x.c, x.d, x.den)


def _forms(rows):
    return [[_exact_form(x) for x in r] for r in rows]


def _ref_dot(r, c):
    s = r[0] * c[0]
    for k in range(1, len(r)):
        s = s + r[k] * c[k]
    return s


def _ref_matmul(a, b):
    return [tuple(_ref_dot(r, c) for c in zip(*b)) for r in a]


def _ref_rref(rows):
    """Exact row reduction with the operators alone: (rows, pivots)."""
    rows = [list(r) for r in rows]
    m, n = len(rows), len(rows[0])
    pivots, r = [], 0
    for j in range(n):
        if r == m:
            break
        p = next((i for i in range(r, m) if rows[i][j]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        x = rows[r][j]
        pinv = 1 / x if isinstance(x, Fraction) else x.inverse()
        rows[r] = [pinv * e for e in rows[r]]
        for i in range(m):
            if i != r and rows[i][j]:
                f = rows[i][j]
                rows[i] = [rows[i][k] - f * rows[r][k] for k in range(n)]
        pivots.append(j)
        r += 1
    return rows, pivots


_KINDS = tuple(k for k in _ENTRY if k in RINGS_BY_NAME)
_MIXED_PAIRS = (("rational", "qsqrt2"), ("qsqrt2", "rational"),
                ("rational", "gauss_sqrt5"), ("gauss_sqrt5", "rational"),
                ("qsqrt5", "gauss_sqrt5"), ("gauss_sqrt5", "qsqrt5"),
                ("quat_sqrt5", "rational"), ("rational", "quat_sqrt5"),
                ("quat_rational", "quat_sqrt5"),
                ("rational_over_sqrt5", "qsqrt2"))


def _by_value(rows):
    """The rows with each entry read by value, as the reference loop is
    given a rational written over Q(sqrt5)."""
    return tuple(tuple(map(rational_value, r)) for r in rows)


@pytest.mark.parametrize("left,right",
                         [(k, k) for k in _KINDS] + list(_MIXED_PAIRS))
def test_matmul_and_mat_vec_match_the_operator_loop(left, right):
    rng = random.Random(f"{left}*{right}")
    for _ in range(12):
        m, k, n = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = _rand_rows(left, m, k, rng)
        b = _rand_rows(right, k, n, rng)
        ref_a = _by_value(a) if left == "rational_over_sqrt5" else a
        assert _forms(matmul(Matrix(a), Matrix(b)).data) == \
            _forms(_ref_matmul(ref_a, b))
        v = tuple(r[0] for r in b)
        assert _forms([mat_vec(Matrix(a), v)]) == \
            _forms([tuple(_ref_dot(r, v) for r in ref_a)])


def test_a_quaternion_product_adds_no_quaternions(monkeypatch):
    # every entry is made from integer sums of components, so a product
    # and a row reduction over the quaternions never add two of them
    rng = random.Random(43)
    a = Matrix(_rand_rows("quat_sqrt5", 3, 4, rng))
    b = Matrix(_rand_rows("quat_sqrt5", 4, 2, rng))

    def refuse(self, other):
        raise AssertionError("a quaternion sum outside the kernels")

    monkeypatch.setattr(Quaternion, "__add__", refuse)
    monkeypatch.setattr(Quaternion, "__radd__", refuse)
    assert matmul(a, b).rows == 3
    assert len(mat_vec(a, b.column(0))) == 3
    assert rref(a)[0].rows == 3
    monkeypatch.undo()
    assert _forms(matmul(a, b).data) == _forms(_ref_matmul(a.data, b.data))


def test_a_mixed_operand_matches_the_operator_loop():
    rng = random.Random(23)
    for _ in range(12):
        for odd in (QSqrt2(1, 1), 3):
            a = _mixed_rows(3, 3, rng, odd)
            b = _rand_rows("qsqrt2", 3, 2, rng)
            for x, y in ((a, b), (tuple(zip(*b)), a)):
                assert _forms(matmul(Matrix(x), Matrix(y)).data) == \
                    _forms(_ref_matmul(x, y))
            v = tuple(r[0] for r in b)
            assert _forms([mat_vec(Matrix(a), v)]) == \
                _forms([tuple(_ref_dot(r, v) for r in a)])
        a = _mixed_rows(3, 4, rng, QSqrt2(1, 1))
        got, pivots = rref(Matrix(a))
        ref_rows, ref_pivots = _ref_rref(a)
        assert _forms(got.data) == _forms(ref_rows)
        assert list(pivots) == ref_pivots


@pytest.mark.parametrize("kind", _KINDS)
def test_rref_inverse_and_kernel_match_the_operator_loop(kind):
    rng = random.Random(kind)
    ring = RINGS_BY_NAME[kind]
    for _ in range(6):
        # rref and kernel of a wide matrix with a repeated row
        a = _rand_rows(kind, 3, 5, rng)
        a = a[:2] + (tuple(x + y for x, y in zip(a[0], a[1])),)
        got, pivots = rref(Matrix(a))
        ref_rows, ref_pivots = _ref_rref(a)
        assert _forms(got.data) == _forms(ref_rows)
        assert list(pivots) == ref_pivots
        ref_kernel = []
        for f in (j for j in range(5) if j not in ref_pivots):
            v = [ring.zero] * 5
            v[f] = ring.one
            for row, p in enumerate(ref_pivots):
                v[p] = -ref_rows[row][f]
            ref_kernel.append(tuple(v))
        assert _forms(kernel(Matrix(a))) == _forms(ref_kernel)
        # inverse of a square matrix, through [a | I]
        sq = _rand_rows(kind, 3, 3, rng)
        ident = Matrix.identity(3, ring).data
        ref_rows, ref_pivots = _ref_rref(
            [r + i for r, i in zip(sq, ident)])
        if ref_pivots != [0, 1, 2]:
            with pytest.raises(SingularMatrixError):
                mat_inverse(Matrix(sq))
            continue
        assert _forms(mat_inverse(Matrix(sq)).data) == \
            _forms([r[3:] for r in ref_rows])
