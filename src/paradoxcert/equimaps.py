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
unitary to the orthogonal matrix it acts by on that sphere: both are
rational, so they stay inside Q(sqrt5) on exact input.  The inverse chart,
``stereographic_lift``, is exact too wherever a ray's unit vector lies in
Q(sqrt5), as every chart image of an exact line does: it reads the norm
of the ray's leading-1 direction through ``scalars.exact_sqrt`` and
returns None when that root leaves the field.  Both take exact input
only: a point refuses a coordinate that is not exact when it is built
(``spaces``), and a float unitary does not multiply the exact lines the
induced rotation moves.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cache

from .errors import DomainError, GapCaseError, ParadoxError
from .linalg import (
    Matrix,
    _inv,
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
    Quaternion,
    RING_QUAT_SQRT5,
    RING_RATIONAL,
    QSqrt5,
    exact_sqrt,
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

def _real_coords(q):
    """Real coordinates of an element of Q(sqrt5, i) or of a quaternion;
    DomainError for any other scalar."""
    if isinstance(q, GaussSqrt5):
        return list(q.real_imag())
    if isinstance(q, Quaternion):
        return [q.w, q.x, q.y, q.z]
    raise DomainError(f"the chart reads Q(sqrt5, i) or quaternions, "
                      f"not {q!r}")


def _chart_vector(v1, v2) -> tuple:
    """The chart image of the line [v1 : v2] as a unit vector.

    [q : 1] goes to (2q, |q|^2 - 1) / (|q|^2 + 1) and [1 : 0] to the north
    pole, in the real backend of the entries: Q(sqrt5). DomainError when q
    (or v1, at the pole) is neither in Q(sqrt5, i) nor a quaternion.
    """
    if not v2:
        coords = _real_coords(v1)
        zero = coords[0] - coords[0]
        return (zero,) * len(coords) + (zero + 1,)
    q = v1 * _inv(v2)
    coords = _real_coords(q)
    norm_sq = sum(c * c for c in coords)
    scale = 1 / (norm_sq + 1)
    return tuple(2 * c * scale for c in coords) + ((norm_sq - 1) * scale,)


def stereographic_apply(line: ProjectivePoint) -> SpherePoint:
    """The chart, on an exact line."""
    if line.ambient_dim != 2:
        raise DomainError("expected a line in K^2")
    return SpherePoint.from_vector(_chart_vector(*line.vector))


def stereographic_lift(field: str, p: SpherePoint):
    """Inverse chart: the exact line the chart puts on the ray p, or None
    when p's unit vector leaves Q(sqrt5), the real field of the chart.

    The unit vector (c, h) of p is its direction over the norm, an exact
    root in Q(sqrt5) (``exact_sqrt``); its line is [1 : 0] at the north
    pole h = 1 and [c / (1 - h) : 1] elsewhere, with c read as an element
    of Q(sqrt5, i) or as a quaternion over Q(sqrt5).
    """
    norm = exact_sqrt(sum((x * x for x in p.direction), QSqrt5(0)))
    if norm is None:
        return None
    *c, h = (p.sign * x / norm for x in p.direction)
    one = GaussSqrt5(1) if field == "C" else RING_QUAT_SQRT5.one
    if h == 1:
        return ProjectivePoint.from_vector((one, one - one))
    c = [x / (1 - h) for x in c]
    q = c[0] + GaussSqrt5(0, 0, 1) * c[1] if field == "C" else Quaternion(*c)
    return ProjectivePoint.from_vector((q, one))


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
    is the line the chart puts on e_j.  Exact over Q(sqrt5).
    """
    if g.rows != 2 or g.cols != 2:
        raise DomainError("expected a 2x2 unitary")
    cols = [_chart_vector(*mat_vec(g, v)) for v in _chart_preimages(field)]
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

    return MapInstance(
        name=f"stereographic({field})",
        apply=stereographic_apply, section=None,
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
