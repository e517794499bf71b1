"""Catalog of equivariant maps between the spaces, plus a selftest harness.

Each map instance knows how to apply itself, how to draw candidate points
and compatible acting-group pairs, and how to lift target points back
through a section. ``apply`` is a map's only domain test: it raises
DomainError (or GapCaseError, for a slice that meets the hyperplane in the
wrong dimension) on a point outside the domain, so a sample point is the
first draw it accepts, and a section's lift is checked by applying the map
to it. The selftest draws (point, group element) samples and checks
f(g x) == g f(x) exactly, with f(x) the image that accepted x: every map in
the catalog is exact.

``CATALOG`` is the one table of the maps a certificate may name, each with
its constructor and the kinds of its arguments. Each constructor states its
map's shape on the instance it returns: the space a node through the map
concludes about (``source``), the space of that node's one child
(``target``) and the group acting on both (``group``). ``certificates``
derives and checks nodes from those shapes, and ``verification`` builds
the maps it replays from the same table. A catalog map's pairs are (s, s)
for s drawn from ``sampling.generating_set`` of the group's block, padded
to the group's matrix size, so the group a map states is the group its
selftest draws from; the chart's pairs are (s, R(s)) for s in the set of
the 2x2 unitaries and R the induced rotation.

Why a finite set suffices. arccos(3/5) is no rational multiple of pi
(Niven's theorem), so the closure of the group <S> contains every
one-parameter subgroup an element of S lies on, and <S> is dense in SO(n),
U(n) or Sp(n), the group a Cayley draw reaches. Each catalog map is
continuous on its domain, and the group preserves that domain. So
f(s x) = s' f(x) for every s in S extends, by induction on word length, to
<S>, and by continuity to the whole group. For the chart this rests on the
induced rotation being a homomorphism, which its own selftest still checks
on Cayley draws: an identity checked on generators says nothing about
their products.

That includes the stereographic chart identifying the projective line over
C (resp. H) with S^2 (resp. S^4), and the induced rotation carrying a 2x2
unitary to the orthogonal matrix it acts by on that sphere. The chart is
one integer quadratic form: the line [v1 : v2] goes to N(v) / |v|^2, where
N(v) = (2 v1 conj(v2), |v1|^2 - |v2|^2) is a vector of real quadratic
forms in the real coordinates of v. Each coordinate is read by value
(``rational_value``, ``quaternion_parts``, ``scalars._components``) as an
integer pair (a, b) for (a + b sqrt5) / den over one common den, and a C
entry is a quaternion with zero j and k parts, so one Hamilton product
serves C and H. ``stereographic_apply`` is the signed ray of N(v), the
positive |v|^2 dropped, so its one inversion is the ray's leading-entry
scaling; column j of ``induced_rotation(g)`` is N(g l_j) / |g l_j|^2, one
real inversion a column. Any line over Q(sqrt5, i) or the quaternions over
Q(sqrt5), a rational one included, charts into Q(sqrt5). The inverse
chart, ``stereographic_lift``, is exact too wherever a ray's unit vector
lies in Q(sqrt5), as every chart image of an exact line does: it reads
the norm |d| of the ray's leading-1 direction d through
``scalars.exact_sqrt``, returns None when that root leaves the field, and
otherwise the line [s d_c : |d| - s d_h] for the ray s (d_c, d_h), with
no division by the norm or by 1 - h. Both take exact input only: a point
refuses a coordinate that is not exact when it is built (``spaces``), and
a float unitary does not multiply the exact lines the induced rotation
moves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache

from .errors import DomainError, GapCaseError, ParadoxError
from .linalg import (
    Matrix,
    block_embed_matrix,
    kernel,
    mat_vec,
    matmul,
    rank,
)
from .sampling import (
    generating_set,
    random_flag,
    random_projective_point,
    random_sphere_point,
    random_subspace,
    random_unitary,
    rng_for,
)
from .scalars import (
    GaussSqrt5,
    QuadExt,
    Quaternion,
    RING_QUAT_SQRT5,
    RING_RATIONAL,
    QSqrt5,
    _components,
    _dot_real,
    exact_sqrt,
    quaternion_parts,
    rational_value,
    real_positive,
    ring_of,
)
from .spaces import (
    Flag,
    FlagPoint,
    Grassmann,
    GroupTag,
    Projective,
    ProjectivePoint,
    RemovedAxis,
    RemovedPoles,
    RemovedStar,
    Sphere,
    SpaceExpr,
    SpherePoint,
    Subspace,
    act,
    equals,
    exact_ring_for_field,
    natural_group,
    orthogonal_complement,
)


@dataclass
class MapInstance:
    """One concrete equivariant map with its sampling recipe.

    A catalog map states its shape: ``source``, ``target`` and ``group``
    (see the module docstring); the chart maps state none.
    """

    name: str
    apply: callable
    section: callable | None
    draw: callable                   # rng -> candidate point
    sample_pair: callable | None     # rng -> (g_source, g_target) matrices
    kind: str = "equivariant"        # equivariant | homomorphism
    source: SpaceExpr | None = None
    target: SpaceExpr | None = None
    group: GroupTag | None = None
    exact = True                     # every catalog map is exact

    def __repr__(self):
        return f"MapInstance({self.name})"

    def sample_source(self, rng):
        """A domain point: the first draw that apply accepts."""
        return _draw_accepted(self.apply, self.draw, rng)[0]


def _draw_accepted(apply, draw, rng):
    """(x, apply(x)) for the first of up to 100 points x of draw(rng) that
    apply accepts."""
    for _ in range(100):
        x = draw(rng)
        try:
            return x, apply(x)
        except (DomainError, GapCaseError):
            continue
    raise ParadoxError("could not sample a domain point")


def _catalog_map(name, shape, ring, apply, section, draw) -> MapInstance:
    """The catalog map of the given (source, target, group) shape: its
    pairs (s, s) pick s from the generating set of the group's block over
    the ring, padded to the group's matrix size on first use."""
    source, target, group = shape
    padded = cache(lambda: tuple(block_embed_matrix(s, group.matrix_dim)
                                 for s in generating_set(group.n, ring)))

    def sample_pair(rng):
        s = rng.choice(padded())
        return s, s

    return MapInstance(name, apply, section, draw, sample_pair,
                       source=source, target=target, group=group)


def _grass(field: str, n: int, k: int):
    """grass(K,n,k), which is proj(K,n) when k = 1."""
    return Projective(field, n) if k == 1 else Grassmann(field, n, k)


def _block(field: str, n: int, ambient: int | None = None) -> GroupTag:
    """O(n), U(n) or Sp(n), the isometries of K^n over the field, padded
    into K^ambient when one is given."""
    return replace(natural_group(Projective(field, n)), star_ambient=ambient)


# --------------------------------------------------------------------------
# sphere_drop: S^{k+1} minus poles -> equator copy of S^k (zero-padded)
# --------------------------------------------------------------------------

def sphere_drop(k: int) -> MapInstance:
    ambient = k + 2

    def apply(p: SpherePoint):
        if len(p.direction) != ambient:
            raise DomainError(f"expected a point of S^{k + 1}")
        head = p.direction[:-1]
        if not any(head):
            raise DomainError("poles have no equator image")
        zero = head[0] - head[0]
        # leading-1 form survives: the first nonzero entry is retained
        return SpherePoint(p.sign, head + (zero,))

    def section(q: SpherePoint):
        # the equator copy embeds in the source sphere as itself
        if q.direction[-1]:
            raise DomainError("section expects a zero last coordinate")
        return q

    return _catalog_map(
        f"sphere_drop({k + 1})",
        (SpaceExpr(Sphere(k + 1), removed=RemovedPoles()),
         SpaceExpr(Sphere(k), star_ambient=ambient),
         GroupTag("SO", k + 1, star_ambient=ambient)),
        RING_RATIONAL, apply, section,
        lambda rng: random_sphere_point(ambient, rng))


# --------------------------------------------------------------------------
# proj_drop: lines in K^n minus the e_n axis -> lines in K^{n-1} (padded)
# --------------------------------------------------------------------------

def proj_drop(field: str, n: int) -> MapInstance:
    ring = exact_ring_for_field(field)

    def apply(p: ProjectivePoint):
        if p.ambient_dim != n:
            raise DomainError(f"expected a line in K^{n}")
        if not any(p.vector[:-1]):
            raise DomainError("the dropped coordinate axis has no image")
        # the leading 1 lies in the head, so the image stays leading-1
        head = p.vector[:-1]
        return ProjectivePoint(head + (head[0] - head[0],))

    def section(q: ProjectivePoint):
        # the hyperplane copy embeds in the source as itself
        if q.vector[-1]:
            raise DomainError("section expects a line inside the hyperplane")
        return q

    return _catalog_map(
        f"proj_drop({field},{n})",
        (SpaceExpr(Projective(field, n), removed=RemovedAxis()),
         SpaceExpr(Projective(field, n - 1), star_ambient=n),
         _block(field, n - 1, n)),
        ring, apply, section,
        lambda rng: random_projective_point(n, ring, rng))


# --------------------------------------------------------------------------
# grass_slice: V -> V n K^m for V not inside the coordinate hyperplane K^m
# --------------------------------------------------------------------------

def grass_slice(field: str, n: int, k: int) -> MapInstance:
    """Meet a k-plane V of K^n with the coordinate hyperplane K^m, leaving
    out the k-planes inside it.

    Both are read off the tail rows T (rows m..n-1) of V's echelon basis B:
    V lies in K^m iff T is zero, and V n K^m is B c for c in the kernel of
    T, a (n-m) x k system. The echelon form is canonical, so the line is
    the one any other basis of V would give."""
    ring = exact_ring_for_field(field)
    m = n + 1 - k  # so dim(V n K^m) >= k + m - n = 1

    def apply(v: Subspace):
        if v.ambient_dim != n or v.dim != k:
            raise DomainError(f"expected a {k}-plane in K^{n}")
        if v.inside_head(m):
            raise DomainError(
                "subspaces inside the hyperplane copy are excluded")
        b = v.basis
        cs = kernel(Matrix._of_rows(b.data[m:]))
        if len(cs) != 1:
            raise GapCaseError(
                f"slice intersection has dimension {len(cs)}, not 1")
        return ProjectivePoint.from_vector(mat_vec(b, cs[0]))

    def section(line: ProjectivePoint):
        rep = line.vector
        if any(rep[m:]):
            raise DomainError("section expects a line inside the hyperplane")
        cols = [rep]
        pad = ring_of(rep[0])
        z, o = pad.zero, pad.one
        for j in range(m, n):
            cols.append(tuple(o if i == j else z for i in range(n)))
        return Subspace.from_basis(cols)

    return _catalog_map(
        f"grass_slice({field},{n},{k})",
        (SpaceExpr(Grassmann(field, n, k),
                   removed=RemovedStar(_grass(field, m, k))),
         SpaceExpr(Projective(field, m), star_ambient=n),
         _block(field, m, n)),
        ring, apply, section,
        lambda rng: random_subspace(n, k, ring, rng))


# --------------------------------------------------------------------------
# duality: V -> orthogonal complement, an involution Gr_k -> Gr_{n-k}
# --------------------------------------------------------------------------

def duality(field: str, n: int, k: int) -> MapInstance:
    """The complement of a k-plane. A transfer through it concludes about
    the (n-k)-planes (the source) from its child on the k-planes (the
    target), which apply carries there; the section, the complement of an
    (n-k)-plane, is the way back."""
    ring = exact_ring_for_field(field)

    def apply(v: Subspace):
        if v.ambient_dim != n or v.dim != k:
            raise DomainError(f"expected a {k}-plane in K^{n}")
        return orthogonal_complement(v)

    return _catalog_map(
        f"duality({field},{n},{k})",
        (SpaceExpr(_grass(field, n, n - k)), SpaceExpr(_grass(field, n, k)),
         _block(field, n)),
        ring, apply, orthogonal_complement,
        lambda rng: random_subspace(n, k, ring, rng))


# --------------------------------------------------------------------------
# flag_to_grass: a flag to its i-th component
# --------------------------------------------------------------------------

def flag_to_grass(field: str, dims, i: int) -> MapInstance:
    ring = exact_ring_for_field(field)
    dims = tuple(dims)
    n = dims[-1]
    proper = dims[:-1]
    if not 0 <= i < len(proper):
        raise ParadoxError(f"component index {i} out of range")

    def apply(f: FlagPoint):
        return f.components[i]

    def section(v: Subspace):
        """Deterministic flag completion around the given component."""
        basis = v.basis.columns()
        comps = []
        for d in proper[:i]:
            comps.append(Subspace.from_basis(basis[:d]))
        comps.append(v)
        # extend upward with coordinate vectors that increase the rank
        current = list(basis)
        pad = v.basis.scalar_ring()
        z, o = pad.zero, pad.one
        for d in proper[i + 1:]:
            j = 0
            while len(current) < d:
                if j >= n:
                    raise ParadoxError("flag completion ran out of vectors")
                e = tuple(o if r == j else z for r in range(n))
                m = Matrix.from_columns(current + [e])
                if rank(m) == len(current) + 1:
                    current.append(e)
                j += 1
            comps.append(Subspace.from_basis(current[:d]))
        return FlagPoint(comps)

    dims_text = ",".join(str(d) for d in dims)
    return _catalog_map(
        f"flag_to_grass({field};{dims_text};i={i})",
        (SpaceExpr(Flag(field, dims)), SpaceExpr(_grass(field, n, proper[i])),
         _block(field, n)),
        ring, apply, section,
        lambda rng: random_flag(proper, n, ring, rng))


# the maps a Pullback or an EquidecompTransfer may name: each name's
# constructor, and the kind of each of its arguments (a field, a tuple of
# dimensions, or an int)
CATALOG = {
    "sphere_drop": (sphere_drop, ("k",)),
    "proj_drop": (proj_drop, ("field", "n")),
    "grass_slice": (grass_slice, ("field", "n", "k")),
    "flag_to_grass": (flag_to_grass, ("field", "dims", "i")),
    "duality": (duality, ("field", "n", "k")),
}


# --------------------------------------------------------------------------
# stereographic chart: projective line over C/H to S^2/S^4
# --------------------------------------------------------------------------

# the real dimension of the field an entry of a charted line lies in
_REAL_DIM = {"C": 2, "H": 4}

# the terms (i, j, sign) of each part 1, i, j, k of p conj(q) for
# quaternions p and q: sum of sign p_i q_j. A C number is a quaternion with
# zero j and k parts, and its product is the first two terms of the first
# two rows
_CONJ_PRODUCT = (
    ((0, 0, 1), (1, 1, 1), (2, 2, 1), (3, 3, 1)),
    ((1, 0, 1), (0, 1, -1), (3, 2, 1), (2, 3, -1)),
    ((2, 0, 1), (0, 2, -1), (1, 3, 1), (3, 1, -1)),
    ((3, 0, 1), (0, 3, -1), (2, 1, 1), (1, 2, -1)),
)


def _sqrt5_components(x):
    """(a, b, c, d, den) with x = (a + b sqrt5 + (c + d sqrt5) i) / den,
    for a scalar x of Q(sqrt5, i) read by value, or None off that field."""
    if isinstance(x, QuadExt) and x.D != 5:
        x = rational_value(x)  # a rational of another field is that rational
        if isinstance(x, QuadExt):
            return None
    return _components(x)


def _parts(e):
    """The parts of a scalar e along 1, i, j, k, each a triple (a, b, den)
    for (a + b sqrt5) / den, or None when one leaves Q(sqrt5). A scalar
    that is no quaternion, an element of Q(sqrt5, i) or a real one, has
    zero j and k parts."""
    if isinstance(e, Quaternion):
        read = list(map(_sqrt5_components, quaternion_parts(e)))
        # a quaternion's components are real
        if None in read or any(c or d for _, _, c, d, _ in read):
            return None
        return [(a, b, den) for a, b, _, _, den in read]
    read = _sqrt5_components(e)
    if read is None:
        return None
    a, b, c, d, den = read
    return [(a, b, den), (c, d, den), (0, 0, 1), (0, 0, 1)]


def _integer_pairs(triples):
    """The integer pairs (a * den / e, b * den / e) of triples (a, b, e),
    den the least common denominator: the reals (a + b sqrt5) / e, all
    over den."""
    den = math.lcm(*[e for _, _, e in triples])
    return [(a * (den // e), b * (den // e)) for a, b, e in triples]


def _chart_coords(field: str, vec) -> tuple:
    """The real coordinates of each entry of vec = (v1, v2), its parts
    along 1 and i (and j, k over H), as integer pairs (a, b) for
    (a + b sqrt5) / den over one common den, which the chart leaves out:
    its forms are homogeneous, and it reads only their ratios. DomainError
    for a coordinate off Q(sqrt5), and over C for a j or k part.
    """
    width = _REAL_DIM[field]
    triples = []
    for e in vec:
        parts = _parts(e)
        if parts is None:
            raise DomainError(f"the chart reads Q(sqrt5, i) or "
                              f"quaternions over Q(sqrt5), not {e!r}")
        if any(a or b for a, b, _ in parts[width:]):
            raise DomainError(f"{e!r} has a j or k part, outside C")
        triples += parts[:width]
    pairs = _integer_pairs(triples)
    return pairs[:width], pairs[width:]


def _chart_form(field: str, vec):
    """(N(v), |v|^2) for v = (v1, v2) = vec, with
    N(v) = (2 v1 conj(v2), |v1|^2 - |v2|^2): the chart image of the line
    of v is N(v) / |v|^2. Each real is an integer pair (A, B) for
    A + B sqrt5, all over the square of the common den of
    ``_chart_coords``."""
    p, q = _chart_coords(field, vec)
    width = len(p)
    n = []
    for terms in _CONJ_PRODUCT[:width]:
        x = y = 0
        for i, j, sign in terms[:width]:
            (a1, b1), (a2, b2) = p[i], q[j]
            x += sign * (a1 * a2 + 5 * b1 * b2)
            y += sign * (a1 * b2 + b1 * a2)
        n.append((2 * x, 2 * y))
    (s1, t1), (s2, t2) = _dot_real(p, p, 5), _dot_real(q, q, 5)
    n.append((s1 - s2, t1 - t2))
    return n, (s1 + s2, t1 + t2)


def _divided(n, divisor):
    """(numerators, den): the reals x / divisor for the integer pairs x of
    n and a nonzero divisor, each (A, B) for A + B sqrt5, as integer pairs
    over one integer den: one inverse of the divisor, by its conjugate,
    for the lot."""
    c, d = divisor
    return ([(a * c - 5 * b * d, b * c - a * d) for a, b in n],
            c * c - 5 * d * d)  # nonzero: sqrt5 is irrational


def _quotients(n, divisor) -> list:
    """The reals x / divisor of ``_divided``, in Q(sqrt5)."""
    nums, den = _divided(n, divisor)
    return [QuadExt.__new__(QSqrt5, a, b, 0, 0, den) for a, b in nums]


def stereographic_apply(field: str, line: ProjectivePoint) -> SpherePoint:
    """The chart: the line [v1 : v2] over the field goes to the ray of
    N(v) = (2 v1 conj(v2), |v1|^2 - |v2|^2), the unit vector N(v) / |v|^2
    without its positive factor. The ray's leading-entry scaling is its
    only inversion. Any line over Q(sqrt5, i) (or the quaternions over
    Q(sqrt5)) is charted, a rational one included; DomainError for any
    other."""
    if line.ambient_dim != 2:
        raise DomainError("expected a line in K^2")
    n, _ = _chart_form(field, line.vector)
    lead = next(x for x in n if x[0] or x[1])  # N(v) != 0 for v != 0
    return SpherePoint(1 if real_positive(*lead, 5) else -1,
                       _quotients(n, lead))


def stereographic_lift(field: str, p: SpherePoint):
    """Inverse chart: the exact line the chart puts on the ray p, or None
    when p's unit vector leaves Q(sqrt5), the real field of the chart.

    With p = s (d_c, d_h), s its sign and |d| = ``exact_sqrt(|d|^2)``, the
    line is [s d_c : |d| - s d_h]: the chart puts it on (c, h) = s d / |d|,
    since 1 - h = (|d| - s d_h) / |d|. Its leading-1 vector is
    [1 : s conj(d_c) / (|d| + s d_h)], because
    |d_c|^2 = (|d| - s d_h) (|d| + s d_h); the north pole s d_h = |d| is
    [1 : 0] and the south pole s d_h = -|d| is [0 : 1]. So the lift
    divides by neither the norm nor 1 - h, but once by the real
    |d| + s d_h.
    """
    width = _REAL_DIM[field]
    if len(p.direction) != width + 1:
        raise DomainError(f"expected a point of S^{width}")
    read = list(map(_parts, p.direction))
    if None in read or any(a or b for r in read for a, b, _ in r[1:]):
        return None
    d = _integer_pairs([r[0] for r in read])
    root = exact_sqrt(QuadExt.__new__(QSqrt5, *_dot_real(d, d, 5), 0, 0, 1))
    if root is None:
        return None
    *dc, (ha, hb) = d
    s, r = p.sign, root.den
    # r (|d| + s d_h), with |d| = (root.a + root.b sqrt5) / r
    divisor = (root.a + s * ha * r, root.b + s * hb * r)
    ring = exact_ring_for_field(field)
    if not any(divisor):
        return ProjectivePoint((ring.zero, ring.one))
    # s conj(d_c) / (|d| + s d_h) = s r conj(d_c) / divisor, and conj
    # negates the i, j, k parts
    u = s * r
    nums, den = _divided([(a * u, b * u) if k == 0 else (-a * u, -b * u)
                          for k, (a, b) in enumerate(dc)], divisor)
    if field == "C":
        (a, b), (c, d) = nums
        return ProjectivePoint((ring.one, GaussSqrt5(a, b, c, d, den)))
    return ProjectivePoint((ring.one, Quaternion(
        *[QuadExt.__new__(QSqrt5, a, b, 0, 0, den) for a, b in nums])))


def _chart_preimages(field: str) -> list:
    """Vectors of the lines the chart puts on e_1, ..., e_{d+1}:
    [1 : 1], [i : 1] (then [j : 1], [k : 1] over H) and [1 : 0]."""
    if field == "C":
        one = GaussSqrt5(1)
        units = [one, GaussSqrt5(0, 0, 1)]
    else:
        one = RING_QUAT_SQRT5.one
        o, z = one.w, one.x
        units = [Quaternion(*(o if k == u else z for k in range(4)))
                 for u in range(4)]
    return [(u, one) for u in units] + [(one, one - one)]


def induced_rotation(field: str, g: Matrix) -> Matrix:
    """The orthogonal matrix by which a 2x2 unitary acts on S^2 / S^4.

    The rotation is linear and carries the chart image of a line to that of
    its g-translate, so its column j is the chart image of g l_j, where l_j
    is the line the chart puts on e_j: N(v) / |v|^2 for v = g l_j, one real
    inversion a column.  Exact over Q(sqrt5).
    """
    if g.rows != 2 or g.cols != 2:
        raise DomainError("expected a 2x2 unitary")
    cols = [_quotients(*_chart_form(field, mat_vec(g, v)))
            for v in _chart_preimages(field)]
    return Matrix(zip(*cols))


def _random_su2_like(field: str, rng) -> Matrix:
    ring = exact_ring_for_field(field)
    return random_unitary(2, ring, rng)


def stereographic(field: str) -> MapInstance:
    """The chart, with pairs (s, induced_rotation(s)) for s in the
    generating set of the 2x2 unitaries, each rotation built on first
    use."""
    if field not in ("C", "H"):
        raise ParadoxError("stereographic charts exist for C and H only")
    ring = exact_ring_for_field(field)
    pairs = cache(lambda: tuple((s, induced_rotation(field, s))
                                for s in generating_set(2, ring)))

    def draw(rng):
        return random_projective_point(2, ring, rng)

    def sample_pair(rng):
        return rng.choice(pairs())

    def apply(line):
        return stereographic_apply(field, line)

    return MapInstance(
        name=f"stereographic({field})",
        apply=apply, section=None,
        draw=draw, sample_pair=sample_pair)


def induced_rotation_map(field: str) -> MapInstance:
    """Homomorphism checks for the induced rotation itself."""
    if field not in ("C", "H"):
        raise ParadoxError("induced rotations exist for C and H only")

    def apply(g):
        return induced_rotation(field, g)

    def draw(rng):
        return _random_su2_like(field, rng)

    return MapInstance(
        name=f"induced_rotation({field})",
        apply=apply, section=None,
        draw=draw, sample_pair=None,
        kind="homomorphism")


# --------------------------------------------------------------------------
# selftest harness
# --------------------------------------------------------------------------

def _check_equivariance_once(m: MapInstance, rng):
    """f(g x) == g f(x) on one sample, with f(x) the image that accepted
    the draw x; None when g x leaves the domain."""
    x, fx = _draw_accepted(m.apply, m.draw, rng)
    g_src, g_tgt = m.sample_pair(rng)
    try:
        lhs = m.apply(act(g_src, x))
    except (DomainError, GapCaseError):
        return None  # g moved x out of the domain; counted, not a failure
    return equals(lhs, act(g_tgt, fx))


def _check_homomorphism_once(m: MapInstance, rng):
    """R(gh) == R(g) R(h) and R(g)^T R(g) == I on one sample, g and h
    Cayley draws."""
    g, rg = _draw_accepted(m.apply, m.draw, rng)
    h, rh = _draw_accepted(m.apply, m.draw, rng)
    ident = Matrix.identity(rg.rows, rg.scalar_ring())
    return (m.apply(matmul(g, h)) == matmul(rg, rh)
            and matmul(rg.transpose(), rg) == ident)


def selftest(m: MapInstance, samples: int, seed) -> dict:
    """Sampled equivariance (or homomorphism) checks for one map.

    Every check is exact, so ``max_deviation`` is 0.0 when all of them
    hold and infinite otherwise.
    """
    check = (_check_homomorphism_once if m.kind == "homomorphism"
             else _check_equivariance_once)
    failures = 0
    skipped = 0
    ran = 0
    for i in range(samples):
        ok = check(m, rng_for(seed, "selftest", m.name, i))
        if ok is None:
            skipped += 1
            continue
        ran += 1
        if not ok:
            failures += 1
    return {
        "map": m.name,
        "samples": ran,
        "skipped": skipped,
        "failures": failures,
        "max_deviation": float("inf") if failures else 0.0,
        "ok": failures == 0,
    }


def corrupted(m: MapInstance) -> MapInstance:
    """Negative control: post-compose with a fixed nontrivial motion."""
    import copy

    def bad_apply(x):
        y = m.apply(x)
        if isinstance(y, SpherePoint):
            # swap two coordinates: almost never commutes with the action
            return SpherePoint(y.sign, (y.direction[1], y.direction[0])
                               + y.direction[2:])
        if isinstance(y, Subspace):
            # swap two basis rows, i.e. two coordinates of the subspace
            rows = y.basis.data
            swapped = Matrix._of_rows((rows[1], rows[0]) + rows[2:])
            return Subspace.from_basis(swapped.columns())
        if isinstance(y, FlagPoint):
            raise ParadoxError("corrupt a component map instead")
        return y

    out = copy.copy(m)
    out.name = f"corrupted:{m.name}"
    out.apply = bad_apply
    return out


def default_catalog() -> list:
    """Representative instances used by the bulk selftest."""
    return [
        sphere_drop(2),
        sphere_drop(3),
        proj_drop("R", 4),
        proj_drop("C", 3),
        proj_drop("H", 3),
        grass_slice("R", 4, 2),
        grass_slice("C", 4, 2),
        duality("R", 4, 2),
        duality("R", 4, 3),
        duality("C", 3, 1),
        duality("H", 3, 1),
        flag_to_grass("R", (1, 2, 3), 0),
        flag_to_grass("C", (1, 2, 3), 1),
        stereographic("C"),
        stereographic("H"),
        induced_rotation_map("C"),
        induced_rotation_map("H"),
    ]
