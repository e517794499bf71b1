"""Catalog of equivariant maps between the spaces, plus a selftest harness.

Each map instance knows how to apply itself, how to sample domain points and
compatible acting-group pairs, and how to lift target points back through a
section. The selftest draws (point, group element) samples and checks
f(g x) == g f(x) exactly: every map in the catalog is exact.

That includes the stereographic chart identifying the projective line over
C (resp. H) with S^2 (resp. S^4), and the induced rotation carrying a 2x2
unitary to the orthogonal matrix it acts by on that sphere: both are
rational, so they stay inside Q(sqrt5) on exact input.  Only the inverse
chart, ``stereographic_lift``, is float: the unit vector of a ray needs a
square root outside the field.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, GapCaseError, ParadoxError
from .linalg import (
    Matrix,
    mat_vec,
    matmul,
    to_float_matrix,
)
from .sampling import (
    random_flag,
    random_projective_point,
    random_sphere_point,
    random_star_unitary,
    random_subspace,
    random_unitary,
    rng_for,
)
from .scalars import (
    GaussSqrt5,
    Quaternion,
    RING_QUAT_FLOAT,
    RING_QUAT_SQRT5,
    RING_RATIONAL,
    abs_float,
    ring_of,
)
from .spaces import (
    FlagPoint,
    ProjectivePoint,
    SpherePoint,
    Subspace,
    act,
    equals,
    exact_ring_for_field,
    intersect,
    orthogonal_complement,
)


@dataclass
class MapInstance:
    """One concrete equivariant map with its sampling recipe."""

    name: str
    source: str
    target: str
    apply: callable
    in_domain: callable
    section: callable | None
    sample_source: callable          # rng -> point
    sample_pair: callable            # rng -> (g_source, g_target) matrices
    kind: str = "equivariant"        # equivariant | homomorphism
    exact = True                     # every catalog map is exact

    def __repr__(self):
        return f"MapInstance({self.name}: {self.source} -> {self.target})"


def _resample(f, rng, tries=100):
    for _ in range(tries):
        try:
            return f(rng)
        except (DomainError, GapCaseError):
            continue
    raise ParadoxError("could not sample a domain point")


# --------------------------------------------------------------------------
# sphere_drop: S^{k+1} minus poles -> equator copy of S^k (zero-padded)
# --------------------------------------------------------------------------

def sphere_drop(k: int) -> MapInstance:
    ambient = k + 2

    def apply(p: SpherePoint):
        if len(p.direction) != ambient:
            raise DomainError(f"expected a point of S^{k + 1}")
        head = p.direction[:-1]
        if p.exact:
            if not any(head):
                raise DomainError("poles have no equator image")
            zero = head[0] - head[0]
            # leading-1 form survives: the first nonzero entry is retained
            return SpherePoint(p.sign, head + (zero,), True)
        if all(abs(x) < 1e-12 for x in head):
            raise DomainError("poles have no equator image")
        return SpherePoint.from_vector(head + (0.0,))

    def in_domain(p):
        if p.exact:
            return any(p.direction[:-1])
        return any(abs(x) >= 1e-12 for x in p.direction[:-1])

    def section(q: SpherePoint):
        # the equator copy embeds in the source sphere as itself
        if q.exact and q.direction[-1]:
            raise DomainError("section expects a zero last coordinate")
        return q

    def sample_source(rng):
        return random_sphere_point(ambient, rng, avoid_zero_prefix=ambient - 1)

    def sample_pair(rng):
        g = random_star_unitary(k + 1, ambient, RING_RATIONAL, rng)
        return g, g

    return MapInstance(
        name=f"sphere_drop({k + 1})",
        source=f"sphere({k + 1}) minus poles",
        target=f"sphere({k})* in R^{ambient}",
        apply=apply, in_domain=in_domain, section=section,
        sample_source=sample_source, sample_pair=sample_pair)


# --------------------------------------------------------------------------
# proj_drop: lines in K^n minus the e_n axis -> lines in K^{n-1} (padded)
# --------------------------------------------------------------------------

def proj_drop(field: str, n: int) -> MapInstance:
    ring = exact_ring_for_field(field)

    def apply(p: ProjectivePoint):
        if p.ambient_dim != n:
            raise DomainError(f"expected a line in K^{n}")
        rep = p.representative()
        head = rep[:-1]
        if p.exact:
            if not any(head):
                raise DomainError("the dropped coordinate axis has no image")
            zero = rep[0] - rep[0]
            return ProjectivePoint.from_vector(head + (zero,))
        if all(abs_float(x) < 1e-12 for x in head):
            raise DomainError("the dropped coordinate axis has no image")
        return ProjectivePoint.from_vector(head + (0.0 * rep[0],))

    def in_domain(p):
        rep = p.representative()
        if p.exact:
            return any(rep[:-1])
        return any(abs_float(x) >= 1e-12 for x in rep[:-1])

    def section(q: ProjectivePoint):
        rep = q.representative()
        if q.exact and rep[-1]:
            raise DomainError("section expects a line inside the hyperplane")
        return ProjectivePoint.from_vector(rep)

    def sample_source(rng):
        def draw(r):
            p = random_projective_point(n, ring, r)
            if not in_domain(p):
                raise DomainError("resample")
            return p
        return _resample(draw, rng)

    def sample_pair(rng):
        g = random_star_unitary(n - 1, n, ring, rng)
        return g, g

    return MapInstance(
        name=f"proj_drop({field},{n})",
        source=f"proj({field},{n}) minus the e_{n} axis",
        target=f"proj({field},{n - 1})* in K^{n}",
        apply=apply, in_domain=in_domain, section=section,
        sample_source=sample_source, sample_pair=sample_pair)


# --------------------------------------------------------------------------
# grass_slice: V -> V n H_m for V not inside H_m, m = n0 + 1 - k
# --------------------------------------------------------------------------

def grass_slice(field: str, n0: int, k: int) -> MapInstance:
    ring = exact_ring_for_field(field)
    m = n0 + 1 - k
    hyper = Subspace.coordinate(n0, range(m), ring)
    hyper_float = Subspace(to_float_matrix(hyper.projector), hyper.dim)

    def _hyper_for(v):
        return hyper if v.exact else hyper_float

    def apply(v: Subspace):
        if v.ambient_dim != n0 or v.dim != k:
            raise DomainError(f"expected a {k}-plane in K^{n0}")
        h = _hyper_for(v)
        if h.contains(v):
            raise DomainError(
                "subspaces inside the hyperplane copy are excluded")
        x = intersect(v, h)
        if x.dim != 1:
            raise GapCaseError(
                f"slice intersection has dimension {x.dim}, not 1")
        return ProjectivePoint(x.projector)

    def in_domain(v):
        h = _hyper_for(v)
        if h.contains(v):
            return False
        return intersect(v, h).dim == 1

    def section(line: ProjectivePoint):
        rep = line.representative()
        if line.exact:
            inside = not any(rep[m:])
        else:
            inside = all(abs_float(x) < 1e-9 for x in rep[m:])
        if not inside:
            raise DomainError("section expects a line inside the hyperplane")
        cols = [rep]
        pad = ring_of(rep[0])
        z, o = pad.zero, pad.one
        for j in range(m, n0):
            cols.append(tuple(o if i == j else z for i in range(n0)))
        return Subspace.from_basis(cols)

    def sample_source(rng):
        def draw(r):
            v = random_subspace(n0, k, ring, r)
            x = intersect(v, hyper)
            if hyper.contains(v) or x.dim != 1:
                raise DomainError("resample")
            return v
        return _resample(draw, rng)

    def sample_pair(rng):
        g = random_star_unitary(m, n0, ring, rng)
        return g, g

    return MapInstance(
        name=f"grass_slice({field},{n0},{k})",
        source=f"grass({field},{n0},{k}) minus the hyperplane copy",
        target=f"proj({field},{m})* in K^{n0}",
        apply=apply, in_domain=in_domain, section=section,
        sample_source=sample_source, sample_pair=sample_pair)


# --------------------------------------------------------------------------
# duality: V -> orthogonal complement, an involution Gr_k -> Gr_{n-k}
# --------------------------------------------------------------------------

def duality(field: str, n: int, k: int) -> MapInstance:
    ring = exact_ring_for_field(field)

    def apply(v: Subspace):
        if v.ambient_dim != n or v.dim != k:
            raise DomainError(f"expected a {k}-plane in K^{n}")
        return orthogonal_complement(v)

    def section(w: Subspace):
        return orthogonal_complement(w)

    def sample_source(rng):
        return random_subspace(n, k, ring, rng)

    def sample_pair(rng):
        g = random_unitary(n, ring, rng)
        return g, g

    return MapInstance(
        name=f"duality({field},{n},{k})",
        source=f"grass({field},{n},{k})",
        target=f"grass({field},{n},{n - k})",
        apply=apply, in_domain=lambda v: True, section=section,
        sample_source=sample_source, sample_pair=sample_pair)


# --------------------------------------------------------------------------
# flag_to_grass: a flag to its i-th component
# --------------------------------------------------------------------------

def flag_to_grass(field: str, dims: tuple, i: int) -> MapInstance:
    ring = exact_ring_for_field(field)
    n = dims[-1]
    proper = dims[:-1]
    if not 0 <= i < len(proper):
        raise ParadoxError(f"component index {i} out of range")
    di = proper[i]

    def apply(f: FlagPoint):
        return f.components[i]

    def section(v: Subspace):
        """Deterministic flag completion around the given component."""
        from .linalg import column_space
        basis = list(column_space(v.projector))
        comps = []
        for d in proper[:i]:
            comps.append(Subspace.from_basis(basis[:d]))
        comps.append(v)
        # extend upward with coordinate vectors that increase the rank
        current = list(basis)
        pad = ring_of(basis[0][0]) if basis else ring
        z, o = pad.zero, pad.one
        for d in proper[i + 1:]:
            j = 0
            while len(current) < d:
                if j >= n:
                    raise ParadoxError("flag completion ran out of vectors")
                e = tuple(o if r == j else z for r in range(n))
                m = Matrix.from_columns(current + [e])
                from .linalg import rank
                if rank(m) == len(current) + 1:
                    current.append(e)
                j += 1
            comps.append(Subspace.from_basis(current[:d]))
        return FlagPoint(comps)

    def sample_source(rng):
        return random_flag(proper, n, ring, rng)

    def sample_pair(rng):
        g = random_unitary(n, ring, rng)
        return g, g

    dims_text = ",".join(str(d) for d in dims)
    return MapInstance(
        name=f"flag_to_grass({field};{dims_text};i={i})",
        source=f"flag({field};{dims_text})",
        target=f"grass({field},{n},{di})",
        apply=apply, in_domain=lambda f: True, section=section,
        sample_source=sample_source, sample_pair=sample_pair)


# --------------------------------------------------------------------------
# stereographic chart: projective line over C/H to S^2/S^4
# --------------------------------------------------------------------------

def _real_coords(q):
    """Real coordinates of a complex or quaternionic scalar."""
    if isinstance(q, GaussSqrt5):
        return list(q.real_imag())
    if isinstance(q, complex):
        return [q.real, q.imag]
    return [q.w, q.x, q.y, q.z]


def _chart_vector(v1, v2) -> tuple:
    """The chart image of the line [v1 : v2] as a unit vector.

    [q : 1] goes to (2q, |q|^2 - 1) / (|q|^2 + 1) and [1 : 0] to the north
    pole, in the real backend of the entries: Q(sqrt5) for exact lines.
    """
    if ring_of(v2).exact:
        at_pole = not v2
    else:
        at_pole = abs_float(v2) < 1e-14 * max(1.0, abs_float(v1))
    if at_pole:
        coords = _real_coords(v1)
        zero = coords[0] - coords[0]
        return (zero,) * len(coords) + (zero + 1,)
    q = v1 / v2 if isinstance(v2, complex) else v1 * v2.inverse()
    coords = _real_coords(q)
    norm_sq = sum(c * c for c in coords)
    scale = 1 / (norm_sq + 1)
    return tuple(2 * c * scale for c in coords) + ((norm_sq - 1) * scale,)


def _sphere_dim(field: str) -> int:
    return 2 if field == "C" else 4


def stereographic_apply(field: str, line: ProjectivePoint) -> SpherePoint:
    """The chart: exact on an exact line, float on a float one."""
    if line.ambient_dim != 2:
        raise DomainError("expected a line in K^2")
    vec = _chart_vector(*line.representative())
    if line.exact:
        return SpherePoint.from_vector(vec)
    return SpherePoint(1, vec, exact=False)


def stereographic_lift(field: str, p: SpherePoint) -> ProjectivePoint:
    """Inverse chart: a float sphere point to the float line through it."""
    vec = p.to_float_vector()
    h = vec[-1]
    if 1.0 - h < 1e-14:
        if field == "C":
            v = (complex(1.0), complex(0.0))
        else:
            v = (RING_QUAT_FLOAT.one, RING_QUAT_FLOAT.zero)
        return ProjectivePoint.from_vector(v)
    scale = 1.0 / (1.0 - h)
    coords = [c * scale for c in vec[:-1]]
    if field == "C":
        q = complex(coords[0], coords[1])
        v = (q, complex(1.0))
    else:
        q = Quaternion(coords[0], coords[1], coords[2], coords[3])
        v = (q, RING_QUAT_FLOAT.one)
    return ProjectivePoint.from_vector(v)


def _chart_preimages(field: str, exact: bool) -> list:
    """Vectors of the lines the chart puts on e_1, ..., e_{d+1}:
    [1 : 1], [i : 1] (then [j : 1], [k : 1] over H) and [1 : 0]."""
    if field == "C":
        one, i = (GaussSqrt5(1), GaussSqrt5(0, 0, 1)) if exact else (1 + 0j, 1j)
        units = [one, i]
    else:
        one = (RING_QUAT_SQRT5 if exact else RING_QUAT_FLOAT).one
        o, z = one.w, one.x
        units = [Quaternion(*(o if k == u else z for k in range(4)))
                 for u in range(4)]
    return [(u, one) for u in units] + [(one, one - one)]


def induced_rotation(field: str, g: Matrix) -> Matrix:
    """The orthogonal matrix by which a 2x2 unitary acts on S^2 / S^4.

    The rotation is linear and carries the chart image of a line to that of
    its g-translate, so its column j is the chart image of g l_j, where l_j
    is the line the chart puts on e_j.  Exact over Q(sqrt5) for an exact g,
    float for a float g.
    """
    if g.rows != 2 or g.cols != 2:
        raise DomainError("expected a 2x2 unitary")
    cols = [_chart_vector(*mat_vec(g, v))
            for v in _chart_preimages(field, g.scalar_ring().exact)]
    return Matrix(zip(*cols))


def _random_su2_like(field: str, rng) -> Matrix:
    ring = exact_ring_for_field(field)
    return random_unitary(2, ring, rng)


def stereographic(field: str) -> MapInstance:
    if field not in ("C", "H"):
        raise ParadoxError("stereographic charts exist for C and H only")
    ring = exact_ring_for_field(field)
    d = _sphere_dim(field)

    def apply(line):
        return stereographic_apply(field, line)

    def sample_source(rng):
        return random_projective_point(2, ring, rng)

    def sample_pair(rng):
        g = _random_su2_like(field, rng)
        return g, induced_rotation(field, g)

    return MapInstance(
        name=f"stereographic({field})",
        source=f"proj({field},2)",
        target=f"sphere({d})",
        apply=apply, in_domain=lambda p: True, section=None,
        sample_source=sample_source, sample_pair=sample_pair)


def induced_rotation_map(field: str) -> MapInstance:
    """Homomorphism checks for the induced rotation itself."""
    if field not in ("C", "H"):
        raise ParadoxError("induced rotations exist for C and H only")
    d = _sphere_dim(field)

    def apply(g):
        return induced_rotation(field, g)

    def sample_source(rng):
        return _random_su2_like(field, rng)

    return MapInstance(
        name=f"induced_rotation({field})",
        source=f"U(2)-like over {field}",
        target=f"SO({d + 1})",
        apply=apply, in_domain=lambda g: True, section=None,
        sample_source=sample_source, sample_pair=None,
        kind="homomorphism")


# --------------------------------------------------------------------------
# selftest harness
# --------------------------------------------------------------------------

def _check_equivariance_once(m: MapInstance, rng):
    """f(g x) == g f(x) on one sample; None when g x leaves the domain."""
    x = _resample(m.sample_source, rng)
    g_src, g_tgt = m.sample_pair(rng)
    try:
        lhs = m.apply(act(g_src, x))
    except (DomainError, GapCaseError):
        return None  # g moved x out of the domain; counted, not a failure
    return equals(lhs, act(g_tgt, m.apply(x)))


def _check_homomorphism_once(m: MapInstance, rng):
    """R(gh) == R(g) R(h) and R(g)^T R(g) == I on one sample."""
    g = m.sample_source(rng)
    h = m.sample_source(rng)
    rg, rh = m.apply(g), m.apply(h)
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
        "exact": m.exact,
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
                               + y.direction[2:], True)
        if isinstance(y, ProjectivePoint):
            rep = y.representative()
            v = (rep[1], rep[0]) + rep[2:]
            return ProjectivePoint.from_vector(v)
        if isinstance(y, Subspace):
            p = y.projector
            perm = list(range(p.rows))
            perm[0], perm[1] = perm[1], perm[0]
            newp = Matrix(tuple(p.data[perm[i]][perm[j]]
                                for j in range(p.cols))
                          for i in range(p.rows))
            return Subspace(newp, y.dim)
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
