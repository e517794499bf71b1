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
group matrices on the left. Subspaces are stored as their orthogonal
projectors, which are basis-independent; sphere points are stored as signed
rays with a leading-1 representative.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import BackendMismatchError, DescriptorError, DimensionMismatchError
from .linalg import (
    Matrix,
    conj_transpose,
    kernel,
    lift_matrix,
    lift_vector,
    mat_vec,
    matmul,
    max_abs_diff,
    max_abs_diff_vec,
    projector_of_basis,
    ray_canonical,
    stack_rows,
    to_float_matrix,
    to_float_vector,
)
from .scalars import (
    RING_FLOAT,
    RING_GAUSS_SQRT5,
    RING_QSQRT2,
    RING_QUAT_SQRT5,
    RING_RATIONAL,
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


SpaceDescriptor = (Sphere, Projective, Grassmann, Flag)

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


@dataclass(frozen=True)
class GroupElement:
    matrix: Matrix
    tag: GroupTag

    def __post_init__(self):
        if self.matrix.rows != self.tag.matrix_dim:
            raise DimensionMismatchError(
                f"{self.tag.text} element must be "
                f"{self.tag.matrix_dim}x{self.tag.matrix_dim}")


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
        if isinstance(v[0], int):
            v = tuple(Fraction(x) for x in v)
        sign, direction = ray_canonical(v)
        return cls(sign, direction, exact=True)

    @property
    def dim(self):
        return len(self.direction) - 1

    def antipode(self):
        if self.exact:
            return SpherePoint(-self.sign, self.direction, True)
        return SpherePoint(1, tuple(-x for x in self.direction), False)

    def apply_matrix(self, m: Matrix):
        if self.exact:
            v = mat_vec(m, self.direction)
            s, d = ray_canonical(v)
            return SpherePoint(self.sign * s, d, True)
        return SpherePoint(1, mat_vec(m, self.direction), False)

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
    """A k-dimensional right subspace of K^n, stored as its projector.

    The orthogonal projector P = B (B*B)^-1 B* is basis-independent, so two
    subspaces are equal exactly when their projectors match entrywise.
    """

    __slots__ = ("projector", "dim")

    def __init__(self, projector: Matrix, dim: int):
        object.__setattr__(self, "projector", projector)
        object.__setattr__(self, "dim", dim)

    def __setattr__(self, *args):
        raise AttributeError("immutable")

    @classmethod
    def from_basis(cls, columns):
        cols = [tuple(c) for c in columns]
        if not cols:
            raise DimensionMismatchError("empty basis")
        b = Matrix.from_columns(cols)
        return cls(projector_of_basis(b), len(cols))

    @classmethod
    def coordinate(cls, n: int, indices, ring: Ring):
        """span{e_i : i in indices} inside K^n."""
        z, o = ring.zero, ring.one
        idx = set(indices)
        proj = Matrix(tuple(o if (i == j and i in idx) else z
                            for j in range(n)) for i in range(n))
        return cls(proj, len(idx))

    @property
    def ambient_dim(self):
        return self.projector.rows

    @property
    def exact(self):
        return self.projector.scalar_ring().exact

    def basis(self):
        """Some orthogonal-projection-compatible basis: pivot columns of P."""
        from .linalg import column_space
        return column_space(self.projector)

    def contains_vector(self, v) -> bool:
        return mat_vec(self.projector, v) == tuple(v)

    def contains(self, other: "Subspace") -> bool:
        """Exact subspace containment via P_big P_small = P_small."""
        return matmul(self.projector, other.projector) == other.projector

    def apply_matrix(self, m: Matrix):
        p = matmul(matmul(m, self.projector), conj_transpose(m))
        return Subspace(p, self.dim)

    def to_float(self):
        return Subspace(to_float_matrix(self.projector), self.dim)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self.dim == other.dim and self.projector == other.projector

    def __hash__(self):
        return hash((self.dim, self.projector))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.ambient_dim})"


class ProjectivePoint(Subspace):
    """A line in K^n: the dim-1 case of Subspace with vector constructors."""

    __slots__ = ()

    def __init__(self, projector: Matrix, dim: int = 1):
        if dim != 1:
            raise DimensionMismatchError("projective points have dim 1")
        super().__init__(projector, 1)

    @classmethod
    def from_vector(cls, v, ring: Ring | None = None):
        v = tuple(v)
        if isinstance(v[0], (int, Fraction)) and ring is not None:
            v = lift_vector(v, ring)
        elif isinstance(v[0], int):
            v = tuple(Fraction(x) for x in v)
        b = Matrix.from_columns([v])
        return cls(projector_of_basis(b))

    def apply_matrix(self, m: Matrix):
        p = matmul(matmul(m, self.projector), conj_transpose(m))
        return ProjectivePoint(p)

    def representative(self):
        """A nonzero vector spanning the line (leading-1 normalized)."""
        from .linalg import column_space, normalize_leading
        return normalize_leading(column_space(self.projector)[0])


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

    def apply_matrix(self, m: Matrix):
        return FlagPoint(c.apply_matrix(m) for c in self.components)

    @property
    def exact(self):
        return self.components[0].exact

    def to_float(self):
        return FlagPoint(c.to_float() for c in self.components)

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

def _lift_point_matrix(point_ring: Ring, mat: Matrix):
    """Reconcile backends: rational lifts into any exact ring."""
    mring = mat.scalar_ring()
    if point_ring is mring:
        return mat, None
    if mring is RING_RATIONAL:
        return lift_matrix(mat, point_ring), None
    if point_ring is RING_RATIONAL:
        return mat, mring  # lift the point instead
    raise BackendMismatchError(
        f"cannot act: matrix over {mring.name}, point over {point_ring.name}")


def act(g, point):
    """Apply a group element (or bare matrix) to a point of any space type."""
    m = g.matrix if isinstance(g, GroupElement) else g
    if isinstance(point, SpherePoint):
        pring = (ring_of(point.direction[0]) if point.exact else RING_FLOAT)
        if not point.exact:
            m2 = to_float_matrix(m)
            return point.apply_matrix(m2)
        m2, lift_to = _lift_point_matrix(pring, m)
        if lift_to is not None:
            # lifting preserves the canonical leading-1 form; keep the sign
            point = SpherePoint(point.sign,
                                lift_vector(point.direction, lift_to), True)
        return point.apply_matrix(m2)
    if isinstance(point, (ProjectivePoint, Subspace)):
        pring = point.projector.scalar_ring()
        if not pring.exact:
            return point.apply_matrix(to_float_matrix(m))
        m2, lift_to = _lift_point_matrix(pring, m)
        if lift_to is not None:
            point = Subspace(lift_matrix(point.projector, lift_to), point.dim) \
                if not isinstance(point, ProjectivePoint) else \
                ProjectivePoint(lift_matrix(point.projector, lift_to))
        return point.apply_matrix(m2)
    if isinstance(point, FlagPoint):
        return FlagPoint(act(m, c) for c in point.components)
    raise BackendMismatchError(f"cannot act on {point!r}")


def equals(p, q, tol: float = 0.0) -> bool:
    """Point equality: exact when both sides are exact, else within tol."""
    if isinstance(p, SpherePoint) and isinstance(q, SpherePoint):
        if p.exact and q.exact:
            return p.key() == q.key()
        return max_abs_diff_vec(p.to_float_vector(), q.to_float_vector()) <= tol
    if isinstance(p, Subspace) and isinstance(q, Subspace):
        if p.dim != q.dim:
            return False
        if p.exact and q.exact:
            return p.projector == q.projector
        return max_abs_diff(p.projector, q.projector) <= tol
    if isinstance(p, FlagPoint) and isinstance(q, FlagPoint):
        if len(p.components) != len(q.components):
            return False
        return all(equals(a, b, tol)
                   for a, b in zip(p.components, q.components))
    raise BackendMismatchError(f"cannot compare {p!r} with {q!r}")


def block_embed_point(point, n: int):
    """Zero-pad a point of K^m into K^n (the starred copy)."""
    if isinstance(point, SpherePoint):
        if not point.exact:
            pad = (0.0,) * (n - len(point.direction))
            return SpherePoint(1, point.direction + pad, False)
        ring = ring_of(point.direction[0])
        pad = (ring.zero,) * (n - len(point.direction))
        return SpherePoint(point.sign, point.direction + pad, True)
    if isinstance(point, Subspace):
        p = point.projector
        if n < p.rows:
            raise DimensionMismatchError("embedding must not shrink")
        ring = p.scalar_ring()
        z = ring.zero
        rows = []
        for i in range(n):
            if i < p.rows:
                rows.append(tuple(p.data[i]) + (z,) * (n - p.cols))
            else:
                rows.append((z,) * n)
        newp = Matrix(rows)
        if isinstance(point, ProjectivePoint):
            return ProjectivePoint(newp)
        return Subspace(newp, point.dim)
    if isinstance(point, FlagPoint):
        return FlagPoint(block_embed_point(c, n) for c in point.components)
    raise BackendMismatchError(f"cannot embed {point!r}")


def orthogonal_complement(sub: Subspace) -> Subspace:
    p = sub.projector
    ident = Matrix.identity(p.rows, p.scalar_ring())
    dim = p.rows - sub.dim
    if dim == 1:
        return ProjectivePoint(ident - p)
    return Subspace(ident - p, dim)


def intersect(v: Subspace, w: Subspace) -> Subspace:
    """Intersection as the kernel of the stacked complement projectors.

    x in V and x in W iff (I-P_V)x = 0 and (I-P_W)x = 0.
    """
    if v.ambient_dim != w.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    ring = v.projector.scalar_ring()
    ident = Matrix.identity(v.ambient_dim, ring)
    stacked = stack_rows(ident - v.projector, ident - w.projector)
    basis = kernel(stacked)
    if not basis:
        return Subspace(Matrix.zero(v.ambient_dim, v.ambient_dim, ring), 0)
    sub = Subspace.from_basis(basis)
    if sub.dim == 1:
        return ProjectivePoint(sub.projector)
    return sub
