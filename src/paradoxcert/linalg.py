"""Matrices and vectors over the scalar backends.

Vector spaces here are right modules: scalars multiply vectors on the right
and matrices act on the left, so g(v*q) = (g v)*q stays true over the
quaternions. All elimination uses left row operations only and no
determinants, which keeps every routine valid over noncommutative backends.

Vectors are plain tuples of scalars; ``Matrix`` is an immutable tuple of row
tuples.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    BackendMismatchError,
    DimensionMismatchError,
    NotAntiHermitianError,
    RankDeficientError,
    SingularMatrixError,
)
from .scalars import (
    Quaternion,
    Ring,
    common_class,
    dot_products,
    quaternion_parts,
    ring_of,
    scalar_from_json,
    scalar_to_json,
    sub_scaled,
)


def _inv(x):
    if isinstance(x, int):
        return Fraction(1, x)
    if isinstance(x, Fraction):
        return 1 / x
    return x.inverse()


def _conj(x):
    return x.conjugate()


class Matrix:
    __slots__ = ("data", "rows", "cols")

    def __init__(self, rows_iterable):
        data = tuple(tuple(r) for r in rows_iterable)
        if not data or not data[0]:
            raise DimensionMismatchError("empty matrix")
        ncols = len(data[0])
        if any(len(r) != ncols for r in data):
            raise DimensionMismatchError("ragged rows")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, *args):
        raise AttributeError("immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the rows, not the slots; an n x 0
        # matrix (the zero subspace's basis) has no entry to validate
        return Matrix._of_rows, (self.data,)

    @classmethod
    def _of_rows(cls, data):
        """Matrix over a nonempty tuple of equal-length row tuples that the
        caller built, without validating them again."""
        m = object.__new__(cls)
        object.__setattr__(m, "data", data)
        object.__setattr__(m, "rows", len(data))
        object.__setattr__(m, "cols", len(data[0]))
        return m

    @classmethod
    def identity(cls, n, ring: Ring):
        z, o = ring.zero, ring.one
        return cls(tuple(o if i == j else z for j in range(n))
                   for i in range(n))

    @classmethod
    def from_columns(cls, columns):
        cols = [tuple(c) for c in columns]
        n = len(cols[0])
        if any(len(c) != n for c in cols):
            raise DimensionMismatchError("ragged columns")
        return cls(tuple(c[i] for c in cols) for i in range(n))

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def row(self, i):
        return self.data[i]

    def column(self, j):
        return tuple(r[j] for r in self.data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def __add__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix add shape mismatch")
        return Matrix(tuple(a + b for a, b in zip(ra, rb))
                      for ra, rb in zip(self.data, other.data))

    def __sub__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatchError("matrix sub shape mismatch")
        return Matrix(tuple(a - b for a, b in zip(ra, rb))
                      for ra, rb in zip(self.data, other.data))

    def __neg__(self):
        return Matrix(tuple(-a for a in r) for r in self.data)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        body = "; ".join(" ".join(str(e) for e in r) for r in self.data)
        return f"Matrix[{body}]"

    def transpose(self):
        return Matrix(self.column(j) for j in range(self.cols))

    def scalar_ring(self) -> Ring:
        return ring_of(self.data[0][0])


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if a.cols != b.rows:
        raise DimensionMismatchError(
            f"matmul shape mismatch: {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    return Matrix._of_rows(tuple(dot_products(a.data, tuple(zip(*b.data)))))


def mat_vec(a: Matrix, v) -> tuple:
    if a.cols != len(v):
        raise DimensionMismatchError("mat_vec shape mismatch")
    return tuple([r[0] for r in dot_products(a.data, (v,))])


def conj_transpose(a: Matrix) -> Matrix:
    return Matrix._of_rows(tuple(tuple(_conj(x) for x in col)
                                 for col in zip(*a.data)))


def vec_scale_right(v, s):
    return tuple(a * s for a in v)


def _rref_rows(rows):
    """In-place reduced row echelon form. Returns pivot column list."""
    m, n = len(rows), len(rows[0])
    pivots = []
    r = 0
    for j in range(n):
        if r == m:
            break
        p = None
        for i in range(r, m):
            if rows[i][j]:
                p = i
                break
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        pinv = _inv(rows[r][j])
        rows[r] = [pinv * e for e in rows[r]]
        for i in range(m):
            if i != r and rows[i][j]:
                rows[i] = sub_scaled(rows[i], rows[i][j], rows[r])
        pivots.append(j)
        r += 1
    return pivots


def rref(a: Matrix):
    """Reduced row echelon form and pivot columns (left row ops only)."""
    rows = [list(r) for r in a.data]
    pivots = _rref_rows(rows)
    return Matrix._of_rows(tuple(map(tuple, rows))), tuple(pivots)


def rank(a: Matrix) -> int:
    return len(rref(a)[1])


def kernel(a: Matrix):
    """Basis of {v : a v = 0} as a list of column vectors.

    Solutions form a right submodule; the basis vectors returned here span it
    under right scalar combinations.
    """
    ring = a.scalar_ring()
    r, pivots = rref(a)
    pivot_set = set(pivots)
    free = [j for j in range(a.cols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [ring.zero] * a.cols
        v[f] = ring.one
        for row_idx, p in enumerate(pivots):
            v[p] = -r.data[row_idx][f]
        basis.append(tuple(v))
    return basis


def mat_inverse(a: Matrix) -> Matrix:
    if a.rows != a.cols:
        raise DimensionMismatchError("inverse of non-square matrix")
    ring = a.scalar_ring()
    n = a.rows
    ident = Matrix.identity(n, ring)
    rows = [list(a.data[i]) + list(ident.data[i]) for i in range(n)]
    pivots = _rref_rows(rows)
    if len(pivots) < n or any(p != i for i, p in enumerate(pivots)):
        raise SingularMatrixError("matrix is singular")
    return Matrix._of_rows(tuple(tuple(r[n:]) for r in rows))


def projector_of_basis(b: Matrix) -> Matrix:
    """Orthogonal projector onto the right span of the columns of b.

    P = B (B* B)^-1 B*. Canonical for the subspace: independent of the
    choice of basis, P^2 = P and P* = P.
    """
    bs = conj_transpose(b)
    gram = matmul(bs, b)
    try:
        ginv = mat_inverse(gram)
    except SingularMatrixError:
        raise RankDeficientError("basis columns are linearly dependent")
    return matmul(matmul(b, ginv), bs)


def cayley_unitary(x: Matrix) -> Matrix:
    """Cayley transform (I - X)(I + X)^-1 of an anti-Hermitian X over an
    exact ring.

    Always defined: I + X is invertible when X* = -X over a formally real
    backend, and the result is unitary with exact entries.
    """
    if x.rows != x.cols:
        raise DimensionMismatchError("cayley of non-square matrix")
    if conj_transpose(x) != -x:
        raise NotAntiHermitianError("X* != -X")
    ident = Matrix.identity(x.rows, x.scalar_ring())
    return matmul(ident - x, mat_inverse(ident + x))


def is_unitary(a: Matrix) -> bool:
    """Exact g* g = I test (use only on exact backends)."""
    if a.rows != a.cols:
        return False
    ring = a.scalar_ring()
    return matmul(conj_transpose(a), a) == Matrix.identity(a.rows, ring)


def block_embed_matrix(a: Matrix, n: int) -> Matrix:
    """diag(a, I) embedding into n x n; fixes the trailing coordinates."""
    if a.rows != a.cols or n < a.rows:
        raise DimensionMismatchError("bad block embed target size")
    ring = a.scalar_ring()
    z, o = ring.zero, ring.one
    m = a.rows
    out = []
    for i in range(n):
        if i < m:
            out.append(tuple(a.data[i]) + tuple(z for _ in range(n - m)))
        else:
            out.append(tuple(o if j == i else z for j in range(n)))
    return Matrix(out)


def _is_positive(x) -> bool:
    from .scalars import RealQuadExt
    if isinstance(x, (Fraction, int)):
        return x > 0
    if isinstance(x, RealQuadExt):
        return x.is_positive()
    raise TypeError(f"no real ordering for {x!r}")


def normalize_leading(v):
    """Scale a nonzero vector on the right so its first nonzero entry is 1.

    Canonical for the right line v*K: (v q)_i ((v q)_j)^-1 = v_i v_j^-1, so
    the result is scaling-invariant even over the quaternions.
    """
    pivot = None
    for e in v:
        if e:
            pivot = e
            break
    if pivot is None:
        raise ValueError("zero vector has no direction")
    return vec_scale_right(v, _inv(pivot))


def ray_canonical(v):
    """(sign, direction) with direction leading-1 and sign in {+1, -1}.

    The ray through v equals sign * (positive multiples of direction); only
    meaningful over ordered backends (rationals and real quadratic fields).
    """
    pivot = None
    for e in v:
        if e:
            pivot = e
            break
    if pivot is None:
        raise ValueError("zero vector has no direction")
    sign = 1 if _is_positive(pivot) else -1
    return sign, vec_scale_right(v, _inv(pivot))


def matrix_to_json(a: Matrix):
    """The literal of a matrix over the ring its entries share, each entry
    written in that ring: a rational entry of a Q(sqrt2) matrix, or a real
    entry of a quaternion matrix, included. BackendMismatchError for
    entries from fields that do not mix."""
    entries = [x for r in a.data for x in r]
    zero = common_class([c for x in entries for c in quaternion_parts(x)])(0)
    try:
        ring = ring_of(Quaternion(zero, zero, zero, zero)
                       if any(isinstance(x, Quaternion) for x in entries)
                       else zero)
    except BackendMismatchError:  # quaternions over Q(sqrt2) or with i
        raise BackendMismatchError("entries from fields that do not mix")
    return {
        "ring": ring.name,
        "entries": [[scalar_to_json(e * ring.one) for e in r]
                    for r in a.data],
    }


def matrix_from_json(obj) -> Matrix:
    """The matrix of a literal over one of the exact rings."""
    from .scalars import RINGS
    ring = RINGS.get(obj["ring"])
    if ring is None:
        raise BackendMismatchError(f"unknown exact ring '{obj['ring']}'")
    return Matrix(tuple(scalar_from_json(e, ring) for e in r)
                  for r in obj["entries"])
