"""Space descriptors and expressions, points, subspaces, flags, and group
actions.

Descriptor grammar (K in {R, C, H}):

    sphere(n)            unit sphere in R^{n+1},             n >= 2
    proj(K,n)            lines in K^n,                       n >= n_K
    grass(K,n,k)         k-dim subspaces of K^n,             n >= n_K, 1<=k<=n-1
    flag(K;d1,...,dk)    nested subspaces of dims d1<...<dk
                         inside K^{dk}; needs a proper component

with n_R = 3 and n_C = n_H = 2. grass(K,n,1) is the projective space and a
flag with exactly one proper component is the Grassmannian; both are
normalized at parse time.

A space expression (``SpaceExpr``) is a base space, its zero-padded copy
inside a larger ambient space, or the space minus a removed thin set: what
a certificate node concludes about, and what a catalog map states as its
source and target.

All vector spaces are right K-modules: scalars act on the right of vectors,
group matrices on the left. A k-dimensional subspace is stored as its
reduced column-echelon basis (rows at k pivot indices form the identity),
which is canonical for the subspace, and every subspace operation reads that
basis. A line is the one-column case, its leading-1 vector (first nonzero
entry 1). Sphere points are stored as signed rays with a leading-1
representative.

Every point is exact, and it is decided once, where a point is built from a
new vector: ``SpherePoint.from_vector`` and ``SpherePoint.apply_matrix``,
``ProjectivePoint.from_vector`` and ``Subspace.from_basis`` (which
``Subspace.apply_matrix`` calls) refuse any coordinate that ``ring_of``
does not name, in any position, with BackendMismatchError; an int counts
as exact.  The other constructors take an echelon basis or a leading-1
vector that one of those built, so no check reads a point's scalars again.
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
    mat_vec,
    matmul,
    normalize_leading,
    ray_canonical,
    rref,
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
# space expressions: a space, padded or with a thin set removed
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class RemovedExceptional:
    """The fixed locus D of a generator pair (or its line image)."""
    pair: str
    projective: bool

    @property
    def text(self):
        return f"pi(D[{self.pair}])" if self.projective else f"D[{self.pair}]"


@dataclass(frozen=True)
class RemovedPoles:
    """The two points {+-e_last} of a sphere."""

    @property
    def text(self):
        return "poles"


@dataclass(frozen=True)
class RemovedAxis:
    """The coordinate line span{e_last} of a projective space."""

    @property
    def text(self):
        return "axis"


@dataclass(frozen=True)
class RemovedStar:
    """The zero-padded copy of a smaller space sitting inside the base."""
    sub: object  # descriptor

    @property
    def text(self):
        return f"star({self.sub.text})"


@dataclass(frozen=True)
class SpaceExpr:
    base: object                 # descriptor, or the free group itself
    star_ambient: int | None = None
    removed: object | None = None

    @property
    def text(self):
        t = self.base.text
        if self.star_ambient is not None:
            t = f"{t}*@{self.star_ambient}"
        if self.removed is not None:
            t = f"{t} minus {self.removed.text}"
        return t


# --------------------------------------------------------------------------
# points
# --------------------------------------------------------------------------

def _exact(v) -> tuple:
    """The coordinates v, once each is an int or a scalar of an exact ring;
    BackendMismatchError otherwise."""
    try:
        for x in v:
            if type(x) is not int:
                ring_of(x)
    except BackendMismatchError:
        raise BackendMismatchError(
            f"{v!r} is not exact: a point has exact coordinates") from None
    return v


class SpherePoint:
    """A point of S^n as a signed ray.

    Stored as (sign, direction) with the direction scaled so its first
    nonzero coordinate is 1 -- a canonical form (integer-content reduction
    is not canonical over Q(sqrt2), whose units rescale integer vectors).
    """

    __slots__ = ("sign", "direction")

    def __init__(self, sign, direction):
        object.__setattr__(self, "sign", sign)
        object.__setattr__(self, "direction", tuple(direction))

    def __setattr__(self, *args):
        raise AttributeError("immutable")

    @classmethod
    def from_vector(cls, v):
        v = tuple(v)
        if not v:
            raise DimensionMismatchError("empty vector")
        return cls(*ray_canonical(_exact(v)))

    def apply_matrix(self, m: Matrix):
        s, d = ray_canonical(_exact(mat_vec(m, self.direction)))
        return SpherePoint(self.sign * s, d)

    def key(self):
        return (self.sign, self.direction)

    def __eq__(self, other):
        if not isinstance(other, SpherePoint):
            return NotImplemented
        return self.key() == other.key()

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
    exactly when their bases are.
    """

    __slots__ = ("basis", "pivots")

    def __init__(self, basis: Matrix, pivots):
        """The subspace of a reduced column-echelon basis with k != 1
        columns (``from_basis`` takes any basis)."""
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, *args):
        raise AttributeError("immutable")

    def __reduce__(self):
        # copy and pickle rebuild from the echelon basis
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
        for c in cols:
            _exact(c)
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

    @property
    def dim(self):
        return self.basis.cols

    @property
    def ambient_dim(self):
        return self.basis.rows

    def contains(self, other: "Subspace") -> bool:
        """Exact containment, column by column of the other basis."""
        b = other.basis
        return matmul(self.basis, _rows(b, self.pivots)) == b

    def inside_head(self, m: int) -> bool:
        """Whether the subspace lies in K^m, the span of the first m
        coordinates: whether rows m.. of its echelon basis are zero."""
        return not any(x for r in self.basis.data[m:] for x in r)

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
        return cls(normalize_leading(_exact(tuple(v))))


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
            if not b.contains(a):
                raise DimensionMismatchError(
                    "flag components must be nested")
        object.__setattr__(self, "components", comps)

    def __setattr__(self, *args):
        raise AttributeError("immutable")


# --------------------------------------------------------------------------
# operations
# --------------------------------------------------------------------------

def act(m, point):
    """Apply a matrix to a point of any space type.

    Exact entries mix by value whatever their class, so a rational matrix
    moves a point over any field; entries from fields that do not mix, and
    a matrix entry that is not exact, raise BackendMismatchError.
    """
    if isinstance(point, FlagPoint):
        return FlagPoint(act(m, c) for c in point.components)
    if not isinstance(point, (SpherePoint, Subspace)):
        raise BackendMismatchError(f"cannot act on {point!r}")
    try:
        return point.apply_matrix(m)
    except TypeError:
        raise BackendMismatchError(
            f"cannot act on {point!r} with a matrix over "
            f"{m.scalar_ring().name}: their fields do not mix") from None


def equals(p, q) -> bool:
    """Exact equality of two points of one space type."""
    if isinstance(p, SpherePoint) and isinstance(q, SpherePoint):
        return p == q
    if isinstance(p, Subspace) and isinstance(q, Subspace):
        return p.dim == q.dim and p == q
    if isinstance(p, FlagPoint) and isinstance(q, FlagPoint):
        if len(p.components) != len(q.components):
            return False
        return all(equals(a, b) for a, b in zip(p.components, q.components))
    raise BackendMismatchError(f"cannot compare {p!r} with {q!r}")


def block_embed_point(point, n: int):
    """Zero-pad a point of K^m into K^n (the starred copy): a sphere point
    or a subspace."""
    if isinstance(point, SpherePoint):
        ring = ring_of(point.direction[0])
        pad = (ring.zero,) * (n - len(point.direction))
        return SpherePoint(point.sign, point.direction + pad)
    if isinstance(point, Subspace):
        # zero rows below an echelon basis keep it echelon, pivots and all
        b = point.basis
        if n < b.rows:
            raise DimensionMismatchError("embedding must not shrink")
        pad = ((b.scalar_ring().zero,) * b.cols,) * (n - b.rows)
        return Subspace.from_echelon(Matrix._of_rows(b.data + pad),
                                     point.pivots)
    raise BackendMismatchError(f"cannot embed {point!r}")


def orthogonal_complement(sub: Subspace) -> Subspace:
    """The kernel of B*."""
    return Subspace.from_basis(kernel(conj_transpose(sub.basis)))
