"""Space descriptors, points, subspaces, flags, and group actions.

Descriptor grammar (K in {R, C, H}):

    sphere(n)            unit sphere in R^{n+1},             n >= 2
    proj(K,n)            lines in K^n,                       n >= n_K
    grass(K,n,k)         k-dim subspaces of K^n,             n >= n_K, 1<=k<=n-1
    flag(K;d1,...,dk)    nested subspaces of dims d1<...<dk
                         inside K^{dk}; needs a proper component

with n_R = 3 and n_C = n_H = 2. grass(K,n,1) is the projective space and a
flag with exactly one proper component is the Grassmannian; both are
normalized at parse time.

All vector spaces are right K-modules: scalars act on the right of vectors,
group matrices on the left. A k-dimensional subspace is stored as its
reduced column-echelon basis (rows at k pivot indices form the identity),
which is canonical for the subspace, and every subspace operation reads that
basis. A line is the one-column case, its leading-1 vector (first nonzero
entry 1). The orthogonal projector is formed on first read, for float
comparisons only. Sphere points are stored as signed rays with a leading-1
representative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import (
    BackendMismatchError,
    DescriptorError,
    DimensionMismatchError,
    RankDeficientError,
)
from .linalg import (
    Matrix,
    conj_transpose,
    kernel,
    line_projector,
    mat_vec,
    matmul,
    max_abs_diff,
    normalize_leading,
    projector_of_basis,
    ray_canonical,
    rref,
    to_float_matrix,
    to_float_vector,
)
from .scalars import (
    RING_GAUSS_SQRT5,
    RING_QSQRT2,
    RING_QUAT_SQRT5,
    Ring,
    ring_of,
)

FIELDS = ("R", "C", "H")

_N_MIN = {"R": 3, "C": 2, "H": 2}

_EXACT_RING = {"R": RING_QSQRT2, "C": RING_GAUSS_SQRT5, "H": RING_QUAT_SQRT5}


def n_min(field: str) -> int:
    """Smallest ambient dimension with a paradoxical projective action."""
    return _N_MIN[field]


def exact_ring_for_field(field: str) -> Ring:
    return _EXACT_RING[field]


# --------------------------------------------------------------------------
# descriptors
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Sphere:
    n: int
    field = "R"

    @property
    def text(self):
        return f"sphere({self.n})"

    @property
    def ambient_dim(self):
        return self.n + 1


@dataclass(frozen=True)
class Projective:
    field: str
    n: int

    @property
    def text(self):
        return f"proj({self.field},{self.n})"

    @property
    def ambient_dim(self):
        return self.n


@dataclass(frozen=True)
class Grassmann:
    field: str
    n: int
    k: int

    @property
    def text(self):
        return f"grass({self.field},{self.n},{self.k})"

    @property
    def ambient_dim(self):
        return self.n


@dataclass(frozen=True)
class Flag:
    field: str
    dims: tuple  # strictly increasing, last entry = ambient dimension

    @property
    def text(self):
        return f"flag({self.field};{','.join(str(d) for d in self.dims)})"

    @property
    def ambient_dim(self):
        return self.dims[-1]


_DESC_RE = re.compile(
    r"^\s*(sphere|proj|grass|flag)\s*\(\s*([^)]*)\s*\)\s*$")


def _check_field(tag: str, text: str) -> str:
    if tag not in FIELDS:
        raise DescriptorError(
            f"{text}: unknown field {tag!r}, expected R, C, or H")
    return tag


def parse_descriptor(text: str):
    """Parse and validate a space descriptor; normalizes known identities."""
    m = _DESC_RE.match(text)
    if not m:
        raise DescriptorError(
            f"cannot parse {text!r}: expected sphere(n) | proj(K,n) | "
            f"grass(K,n,k) | flag(K;d1,...,dk)")
    head, body = m.group(1), m.group(2)
    try:
        if head == "sphere":
            n = int(body)
            if n < 2:
                raise DescriptorError(
                    f"{text}: sphere(n) requires n >= 2; SO(2) is abelian, "
                    f"so the circle carries no free rank-2 subgroup")
            return Sphere(n)
        if head == "flag":
            field_part, _, dims_part = body.partition(";")
            field = _check_field(field_part.strip(), text)
            dims = tuple(int(d) for d in dims_part.split(","))
            return _validate_flag(field, dims, text)
        parts = [p.strip() for p in body.split(",")]
        if head == "proj":
            field = _check_field(parts[0], text)
            n = int(parts[1])
            if n < n_min(field):
                raise DescriptorError(
                    f"{text}: proj({field},n) requires n >= "
                    f"{n_min(field)} (the n_K bound for K={field})")
            return Projective(field, n)
        field = _check_field(parts[0], text)
        n, k = int(parts[1]), int(parts[2])
        if n < n_min(field):
            raise DescriptorError(
                f"{text}: grass({field},n,k) requires n >= "
                f"{n_min(field)} (the n_K bound for K={field})")
        if not 1 <= k <= n - 1:
            raise DescriptorError(
                f"{text}: grass requires a proper subspace dimension "
                f"1 <= k <= n-1, got k={k}")
        if k == 1:
            return Projective(field, n)
        return Grassmann(field, n, k)
    except DescriptorError:
        raise
    except (ValueError, IndexError):
        raise DescriptorError(f"cannot parse {text!r}: bad arguments")


def _validate_flag(field, dims, text):
    if not dims or any(d <= 0 for d in dims):
        raise DescriptorError(f"{text}: flag dimensions must be positive")
    if any(a >= b for a, b in zip(dims, dims[1:])):
        raise DescriptorError(
            f"{text}: flag dimensions must be strictly increasing")
    n = dims[-1]
    proper = dims[:-1]
    if not proper:
        raise DescriptorError(
            f"{text}: a flag needs at least one proper component "
            f"(0 < d < n); with none it is a single point and every "
            f"group action on it is trivial")
    if n < n_min(field):
        raise DescriptorError(
            f"{text}: ambient dimension must satisfy n >= {n_min(field)} "
            f"(the n_K bound for K={field})")
    if len(proper) == 1:
        k = proper[0]
        return Projective(field, n) if k == 1 else Grassmann(field, n, k)
    return Flag(field, dims)


# --------------------------------------------------------------------------
# group tags and elements
# --------------------------------------------------------------------------

_FAMILY_BY_FIELD = {"R": "O", "C": "U", "H": "Sp"}


@dataclass(frozen=True)
class GroupTag:
    family: str      # SO | O | U | Sp | free
    n: int
    star_ambient: int | None = None  # block-embedded diag(G, I) copy
    pair: str | None = None          # generator pair name when family=free

    @property
    def text(self):
        if self.family == "free":
            return f"F2({self.pair})"
        base = f"{self.family}({self.n})"
        if self.star_ambient is not None:
            return f"{base}*@{self.star_ambient}"
        return base

    @property
    def matrix_dim(self):
        if self.star_ambient is not None:
            return self.star_ambient
        return self.n


def natural_group(desc) -> GroupTag:
    """The acting group the certificate targets for a descriptor."""
    if isinstance(desc, Sphere):
        return GroupTag("SO", desc.n + 1)
    return GroupTag(_FAMILY_BY_FIELD[desc.field], desc.ambient_dim)


# --------------------------------------------------------------------------
# points
# --------------------------------------------------------------------------

class SpherePoint:
    """A point of S^n as a signed ray.

    Exact backend: stored as (sign, direction) with the direction scaled so
    its first nonzero coordinate is 1 -- a canonical form (integer-content
    reduction is not canonical over Q(sqrt2), whose units rescale integer
    vectors). Float backend: stored as the unit vector itself.
    """

    __slots__ = ("sign", "direction", "exact")

    def __init__(self, sign, direction, exact):
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "direction", tuple(direction))
        object.__setattr__(self, "exact", exact)

    def __setattr__(self, *args):
        raise AttributeError("immutable")

    @classmethod
    def from_vector(cls, v):
        v = tuple(v)
        if not v:
            raise DimensionMismatchError("empty vector")
        if isinstance(v[0], float):
            norm = sum(x * x for x in v) ** 0.5
            if norm == 0:
                raise ValueError("zero vector is not a ray")
            return cls(1, tuple(x / norm for x in v), exact=False)
        sign, direction = ray_canonical(v)
        return cls(sign, direction, exact=True)

    # antipode and apply_matrix move exact points only: a float sphere
    # point is read (``to_float_vector``), never moved
    def antipode(self):
        return SpherePoint(-self.sign, self.direction, True)

    def apply_matrix(self, m: Matrix):
        s, d = ray_canonical(mat_vec(m, self.direction))
        return SpherePoint(self.sign * s, d, True)

    def to_float_vector(self):
        if not self.exact:
            return self.direction
        fv = to_float_vector(self.direction)
        norm = sum(x * x for x in fv) ** 0.5
        return tuple(self.sign * x / norm for x in fv)

    def key(self):
        if not self.exact:
            raise BackendMismatchError("float points are not hashable keys")
        return (self.sign, self.direction)

    def __eq__(self, other):
        if not isinstance(other, SpherePoint):
            return NotImplemented
        if self.exact and other.exact:
            return self.key() == other.key()
        return NotImplemented

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        s = "+" if self.sign >= 0 else "-"
        return f"SpherePoint({s}[{', '.join(str(x) for x in self.direction)}])"


class Subspace:
    """A k-dimensional right subspace of K^n, stored as its reduced
    column-echelon basis.

    ``basis`` is an n x k matrix whose columns span the subspace and whose
    rows at ``pivots`` form the identity: the conjugate transpose of the
    reduced row echelon form of B* for any basis B.  Left row operations on
    B* are right column operations on B, so the form is canonical for the
    right span over R, C and H alike, and two exact subspaces are equal
    exactly when their bases are.  The orthogonal projector is formed on
    first read and kept; only float comparisons read it.
    """

    __slots__ = ("basis", "pivots", "_projector")

    def __init__(self, basis: Matrix, pivots):
        """The subspace of a reduced column-echelon basis with k != 1
        columns (``from_basis`` takes any basis)."""
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, *args):
        raise AttributeError("immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the echelon basis, not the slots
        return Subspace.from_echelon, (self.basis, self.pivots)

    @classmethod
    def from_basis(cls, columns):
        """The right span of linearly independent columns; one column spans
        a line."""
        cols = [tuple(c) for c in columns]
        if not cols:
            raise DimensionMismatchError("empty basis")
        if len(cols) == 1:
            return ProjectivePoint.from_vector(cols[0])
        r, pivots = rref(conj_transpose(Matrix.from_columns(cols)))
        if len(pivots) < len(cols):
            raise RankDeficientError("basis columns are linearly dependent")
        return Subspace(conj_transpose(r), pivots)

    @classmethod
    def from_echelon(cls, basis: Matrix, pivots):
        """The subspace of a basis already in reduced column-echelon form:
        a line when it has one column."""
        if basis.cols == 1:
            return ProjectivePoint(basis.column(0))
        return Subspace(basis, pivots)

    @classmethod
    def coordinate(cls, n: int, indices, ring: Ring):
        """span{e_i : i in indices} inside K^n."""
        idx = sorted(set(indices))
        z, o = ring.zero, ring.one
        return Subspace.from_echelon(Matrix.from_columns(
            tuple(o if i == j else z for i in range(n)) for j in idx), idx)

    @property
    def dim(self):
        return self.basis.cols

    @property
    def ambient_dim(self):
        return self.basis.rows

    @property
    def exact(self):
        # the zero subspace has no entry and is the same in every lane
        return not self.dim or self.basis.scalar_ring().exact

    @property
    def projector(self) -> Matrix:
        """The orthogonal projector B (B*B)^-1 B*, formed on first read."""
        try:
            return self._projector
        except AttributeError:
            b = self.basis
            p = (line_projector(b.column(0)) if b.cols == 1
                 else projector_of_basis(b))
            object.__setattr__(self, "_projector", p)
            return p

    def contains_vector(self, v) -> bool:
        """v lies in the span iff v = B v[pivots]."""
        v = tuple(v)
        return mat_vec(self.basis, tuple(v[i] for i in self.pivots)) == v

    def contains(self, other: "Subspace") -> bool:
        """Exact containment, column by column of the other basis."""
        b = other.basis
        return matmul(self.basis, _rows(b, self.pivots)) == b

    def apply_matrix(self, m: Matrix):
        return Subspace.from_basis(matmul(m, self.basis).columns())

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.basis == other.basis

    def __hash__(self):
        return hash(self.basis)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.ambient_dim})"


class ProjectivePoint(Subspace):
    """A line in K^n: the one-column subspace of its leading-1 vector.

    The vector (first nonzero entry 1, see ``normalize_leading``) is the
    line's echelon basis, so it is the line's key.
    """

    __slots__ = ("vector",)

    def __init__(self, vector):
        """The line of a leading-1 vector (``from_vector`` takes any)."""
        v = tuple(vector)
        object.__setattr__(self, "vector", v)
        Subspace.__init__(self, Matrix._of_rows(tuple((x,) for x in v)),
                          (next(i for i, x in enumerate(v) if x),))

    @classmethod
    def from_vector(cls, v):
        """The line through a nonzero vector."""
        return cls(normalize_leading(tuple(v)))


def _rows(m: Matrix, indices) -> Matrix:
    """The rows of m at the given indices, in order."""
    return Matrix._of_rows(tuple(m.data[i] for i in indices))


class FlagPoint:
    """A nested chain of subspaces with strictly increasing dimensions."""

    __slots__ = ("components",)

    def __init__(self, components):
        comps = tuple(components)
        if not comps:
            raise DimensionMismatchError("empty flag")
        for a, b in zip(comps, comps[1:]):
            if a.dim >= b.dim:
                raise DimensionMismatchError(
                    "flag components must have increasing dimensions")
            if a.exact and b.exact and not b.contains(a):
                raise DimensionMismatchError(
                    "flag components must be nested")
        object.__setattr__(self, "components", comps)

    def __setattr__(self, *args):
        raise AttributeError("immutable")

    @property
    def exact(self):
        return self.components[0].exact

    def __eq__(self, other):
        if not isinstance(other, FlagPoint):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        dims = ",".join(str(c.dim) for c in self.components)
        return f"FlagPoint(dims=({dims}), n={self.components[0].ambient_dim})"


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def act(m, point):
    """Apply a matrix to a point of any space type.

    A float subspace is moved by the float copy of the matrix and an exact
    point by the exact matrix; a float sphere point cannot be moved. Exact
    entries mix by value whatever their class, so a rational matrix moves a
    point over any field; entries from fields that do not mix raise
    BackendMismatchError.
    """
    if isinstance(point, FlagPoint):
        return FlagPoint(act(m, c) for c in point.components)
    if isinstance(point, Subspace) and not point.exact:
        return point.apply_matrix(to_float_matrix(m))
    if not isinstance(point, (SpherePoint, Subspace)) or not point.exact:
        raise BackendMismatchError(f"cannot act on {point!r}")
    try:
        return point.apply_matrix(m)
    except TypeError:
        raise BackendMismatchError(
            f"cannot act on {point!r} with a matrix over "
            f"{m.scalar_ring().name}: their fields do not mix") from None


def equals(p, q, tol: float = 0.0) -> bool:
    """Point equality: exact when both sides are exact, else within tol.

    Sphere points compare only when both are exact; a float sphere point
    cannot be compared.
    """
    if (isinstance(p, SpherePoint) and isinstance(q, SpherePoint)
            and p.exact and q.exact):
        return p.key() == q.key()
    if isinstance(p, Subspace) and isinstance(q, Subspace):
        if p.dim != q.dim:
            return False
        if p.exact and q.exact:
            return p == q
        return max_abs_diff(p.projector, q.projector) <= tol
    if isinstance(p, FlagPoint) and isinstance(q, FlagPoint):
        if len(p.components) != len(q.components):
            return False
        return all(equals(a, b, tol)
                   for a, b in zip(p.components, q.components))
    raise BackendMismatchError(f"cannot compare {p!r} with {q!r}")


def block_embed_point(point, n: int):
    """Zero-pad a point of K^m into K^n (the starred copy): an exact sphere
    point, or a subspace or flag in either lane."""
    if isinstance(point, SpherePoint) and point.exact:
        ring = ring_of(point.direction[0])
        pad = (ring.zero,) * (n - len(point.direction))
        return SpherePoint(point.sign, point.direction + pad, True)
    if isinstance(point, Subspace):
        # zero rows below an echelon basis keep it echelon, pivots and all
        b = point.basis
        if n < b.rows:
            raise DimensionMismatchError("embedding must not shrink")
        pad = ((b.scalar_ring().zero,) * b.cols,) * (n - b.rows)
        return Subspace.from_echelon(Matrix._of_rows(b.data + pad),
                                     point.pivots)
    if isinstance(point, FlagPoint):
        return FlagPoint(block_embed_point(c, n) for c in point.components)
    raise BackendMismatchError(f"cannot embed {point!r}")


def orthogonal_complement(sub: Subspace) -> Subspace:
    """The kernel of B*."""
    return Subspace.from_basis(kernel(conj_transpose(sub.basis)))


def intersect(v: Subspace, w: Subspace) -> Subspace:
    """V n W as the vectors B_V c with c in the kernel of
    B_V - B_W B_V[pivots_W]: x = B_V c lies in W iff x = B_W x[pivots_W].
    """
    if v.ambient_dim != w.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    bv = v.basis
    cs = kernel(bv - matmul(w.basis, _rows(bv, w.pivots)))
    if not cs:
        # the zero subspace: an n x 0 basis
        return Subspace(Matrix._of_rows(((),) * bv.rows), ())
    return Subspace.from_basis(mat_vec(bv, c) for c in cs)
