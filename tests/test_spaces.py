"""Space descriptors, canonical point forms, and the isometry actions."""

import copy
import pickle
from fractions import Fraction

import pytest

from paradoxcert.equimaps import grass_slice
from paradoxcert.errors import (
    BackendMismatchError,
    DescriptorError,
    DimensionMismatchError,
    DomainError,
    GapCaseError,
    RankDeficientError,
)
from paradoxcert.freegroup import get_pair
from paradoxcert.linalg import (
    Matrix,
    kernel,
    mat_vec,
    matmul,
    normalize_leading,
    projector_of_basis,
    rank,
)
from paradoxcert.sampling import (
    random_flag,
    random_projective_point,
    random_scalar,
    random_sphere_point,
    random_subspace,
    random_unitary,
    rng_for,
)
from paradoxcert.scalars import (
    GaussSqrt5,
    QSqrt2,
    QSqrt5,
    Quaternion,
    RING_GAUSS_SQRT5,
    RING_QSQRT2,
    RING_QUAT_SQRT5,
    RING_RATIONAL,
)
from paradoxcert.spaces import (
    FlagPoint,
    ProjectivePoint,
    SpherePoint,
    Subspace,
    act,
    block_embed_point,
    equals,
    exact_ring_for_field,
    natural_group,
    orthogonal_complement,
    parse_descriptor,
)
from paradoxcert.verification import _contained_in
from paradoxcert.words import B


# ----------------------------------------------------------------- grammar

def test_descriptor_round_trip():
    for text in ("sphere(2)", "proj(R,3)", "proj(C,2)", "proj(H,2)",
                 "grass(R,4,2)", "grass(C,4,2)", "flag(R;1,2,3)",
                 "flag(R;1,3,4)"):
        assert parse_descriptor(text).text == text


def test_descriptor_normalizations():
    # one-step flags and 1-dimensional Grassmannians are named canonically
    assert parse_descriptor("grass(R,4,1)").text == "proj(R,4)"
    assert parse_descriptor("flag(C;1,2)").text == "proj(C,2)"
    assert parse_descriptor("flag(H;1,2)").text == "proj(H,2)"
    assert parse_descriptor("flag(R;2,4)").text == "grass(R,4,2)"


@pytest.mark.parametrize("text,fragment", [
    ("sphere(1)", "n >= 2"),
    ("proj(R,2)", "n >= 3"),
    ("proj(C,1)", "n >= 2"),
    ("proj(H,1)", "n >= 2"),
    ("flag(R;3)", "proper component"),
    ("grass(R,4,0)", "1 <= k <= n-1"),
    ("grass(R,4,4)", "1 <= k <= n-1"),
    ("flag(R;2,1,3)", "strictly increasing"),
    ("proj(Q,3)", "field"),
    ("nonsense", "expected"),
])
def test_invalid_descriptors_name_the_violated_hypothesis(text, fragment):
    with pytest.raises(DescriptorError) as err:
        parse_descriptor(text)
    assert fragment in str(err.value)


def test_natural_groups():
    assert natural_group(parse_descriptor("sphere(2)")).text == "SO(3)"
    assert natural_group(parse_descriptor("proj(R,3)")).text == "O(3)"
    assert natural_group(parse_descriptor("grass(C,4,2)")).text == "U(4)"
    assert natural_group(parse_descriptor("flag(H;1,2)")).text == "Sp(2)"


# ------------------------------------------------------------ sphere points

def test_sphere_point_scaling_invariance():
    p = SpherePoint.from_vector((Fraction(2), Fraction(4), Fraction(6)))
    q = SpherePoint.from_vector((Fraction(1), Fraction(2), Fraction(3)))
    assert equals(p, q)
    assert p.key() == q.key()


def test_sphere_points_are_signed_rays():
    p = SpherePoint.from_vector((Fraction(1), Fraction(0), Fraction(0)))
    m = SpherePoint.from_vector((Fraction(-1), Fraction(0), Fraction(0)))
    assert not equals(p, m)
    assert equals(SpherePoint(-p.sign, p.direction), m)


def test_a_float_sphere_point_is_neither_compared_nor_embedded():
    # every sphere point is exact: a float vector is refused as a ray
    # before any check could compare, pad or move it
    with pytest.raises(BackendMismatchError,
                       match="is not exact: a point has exact coordinates"):
        SpherePoint.from_vector((1.0, 2.0, 2.0))


_BUILDS = {
    "sphere point": SpherePoint.from_vector,
    "line": ProjectivePoint.from_vector,
    "plane": lambda v: Subspace.from_basis(
        [v, (Fraction(0), Fraction(0), Fraction(0), Fraction(1))]),
}


@pytest.mark.parametrize("place", [0, 2, 3], ids=["first", "middle", "last"])
@pytest.mark.parametrize("build", sorted(_BUILDS))
def test_a_float_coordinate_is_refused_in_any_place(build, place):
    # each point reads every coordinate once, when it is built; an int
    # counts as exact
    v = [Fraction(1), 2, Fraction(-3), Fraction(5)]
    _BUILDS[build](tuple(v))
    v[place] = float(v[place])
    with pytest.raises(BackendMismatchError, match="is not exact"):
        _BUILDS[build](tuple(v))


@pytest.mark.parametrize("point", [
    SpherePoint.from_vector((Fraction(1), Fraction(2), Fraction(2))),
    ProjectivePoint.from_vector((Fraction(1), Fraction(2), Fraction(2))),
], ids=["sphere point", "line"])
def test_act_refuses_a_float_rotation(point):
    # the quarter turn about e_3, in floats: its image is refused as a
    # point, where it would have carried a float coordinate
    quarter = Matrix([(0.0, -1.0, 0.0), (1.0, 0.0, 0.0), (0.0, 0.0, 1.0)])
    with pytest.raises(BackendMismatchError, match="is not exact"):
        act(quarter, point)


# -------------------------------------------------------- projective points

def test_projective_right_scalar_equivalence():
    one, i = GaussSqrt5(1), GaussSqrt5(0, 0, 1, 0)
    p = ProjectivePoint.from_vector((one, i))
    q = ProjectivePoint.from_vector((i, -one))   # (1, i) * i
    assert equals(p, q)


def test_projective_right_scalar_equivalence_quaternionic():
    from paradoxcert.scalars import QSqrt5, Quaternion
    z, o = QSqrt5(0, 0), QSqrt5(1, 0)
    one = Quaternion(o, z, z, z)
    j = Quaternion(z, z, o, z)
    p = ProjectivePoint.from_vector((one, j))
    q = ProjectivePoint.from_vector((j, -one))   # right-multiplied by j
    assert equals(p, q)


def _quat(*parts):
    return Quaternion(*(QSqrt5(*p) for p in parts))


_F = Fraction


@pytest.mark.parametrize("v", [
    (_F(0), _F(2), _F(-3)),
    (QSqrt2(1, 1), QSqrt2(0, _F(2, 3)), QSqrt2(3, 0)),
    (GaussSqrt5(0), GaussSqrt5(1, 0, 2, 0, 3), GaussSqrt5(0, 1, 0, 0, 1)),
    (_quat((0, 1), (2, 0), (0, 0), (_F(1, 2), 0)),
     _quat((1, 0), (0, 0), (-1, 1), (0, 0))),
], ids=["rational", "qsqrt2", "gauss_sqrt5", "quat_sqrt5"])
def test_a_line_is_its_leading_one_vector(v):
    p = ProjectivePoint.from_vector(v)
    assert p.vector == normalize_leading(v)
    assert p.basis.columns() == [p.vector] and p.dim == 1
    # any other spanning vector gives the same line, equal and hashed alike
    s = next(x for x in v if x)
    q = Subspace.from_basis([tuple(x * s for x in v)])
    assert p == q and hash(p) == hash(q)


def test_act_refuses_fields_that_do_not_mix():
    # entries mix by value, so the check is the multiplication itself:
    # 2 sqrt2 / 3 times i sqrt5 has no field to live in
    b = get_pair("so3-ab").letter_matrix(B)
    i = GaussSqrt5(0, 0, 1, 0, 1)
    line = ProjectivePoint.from_vector((GaussSqrt5(1), i, i))
    with pytest.raises(BackendMismatchError):
        act(b, line)


def test_distinct_lines_differ():
    p = ProjectivePoint.from_vector((Fraction(1), Fraction(0)))
    q = ProjectivePoint.from_vector((Fraction(1), Fraction(1)))
    assert not equals(p, q)


# ---------------------------------------------------------------- subspaces

def test_subspace_is_basis_independent():
    e1 = (Fraction(1), Fraction(0), Fraction(0))
    e2 = (Fraction(0), Fraction(1), Fraction(0))
    s = (Fraction(1), Fraction(1), Fraction(0))
    d = (Fraction(1), Fraction(-1), Fraction(0))
    assert Subspace.from_basis([e1, e2]) == Subspace.from_basis([s, d])


def test_subspace_projector_properties():
    rng = rng_for(5, "sub")
    for ring in (RING_RATIONAL, RING_GAUSS_SQRT5, RING_QUAT_SQRT5):
        v = random_subspace(4, 2, ring, rng)
        p = projector_of_basis(v.basis)
        assert matmul(p, p) == p
        assert v.dim == 2 and v.ambient_dim == 4


def test_orthogonal_complement_involution_and_dim():
    rng = rng_for(7, "comp")
    for ring in (RING_RATIONAL, RING_GAUSS_SQRT5, RING_QUAT_SQRT5):
        for k in (1, 2, 3):
            v = random_subspace(4, k, ring, rng)
            w = orthogonal_complement(v)
            assert w.dim == 4 - k
            assert _proj(orthogonal_complement(w)) == _proj(v)


_ECHELON_RINGS = [RING_RATIONAL, RING_QSQRT2, RING_GAUSS_SQRT5,
                  RING_QUAT_SQRT5]


def _random_full_rank(rows, cols, ring, rng):
    """A random rows x cols matrix of rank min(rows, cols)."""
    while True:
        m = Matrix(tuple(random_scalar(rng, ring) for _ in range(cols))
                   for _ in range(rows))
        if rank(m) == min(rows, cols):
            return m


def _contains_vector(sub, v) -> bool:
    """v lies in the span iff v = B v[pivots]."""
    v = tuple(v)
    return mat_vec(sub.basis, tuple(v[i] for i in sub.pivots)) == v


@pytest.mark.parametrize("ring", _ECHELON_RINGS, ids=lambda r: r.name)
def test_the_echelon_basis_is_canonical(ring):
    rng = rng_for(29, "echelon", ring.name)
    for n, k in ((4, 2), (4, 3), (3, 2)):
        b = _random_full_rank(n, k, ring, rng)
        a = _random_full_rank(k, k, ring, rng)   # right column operations
        v = Subspace.from_basis(b.columns())
        w = Subspace.from_basis(matmul(b, a).columns())
        assert v == w and hash(v) == hash(w)
        assert v.dim == k and v.ambient_dim == n
        pivot_rows = tuple(v.basis.row(i) for i in v.pivots)
        assert pivot_rows == Matrix.identity(k, ring).data
        assert all(_contains_vector(v, c) for c in b.columns())


def _proj(sub):
    """The reference projector, formed from the echelon basis."""
    return projector_of_basis(sub.basis)


def intersect(v: Subspace, w: Subspace) -> Subspace:
    """V n W as the vectors B_V c with c in the kernel of
    B_V - B_W B_V[pivots_W]: x = B_V c lies in W iff x = B_W x[pivots_W].
    The generic intersection, the reference the tail-row slice of
    ``grass_slice`` is compared against."""
    if v.ambient_dim != w.ambient_dim:
        raise DimensionMismatchError("ambient dimensions differ")
    bv = v.basis
    head = Matrix._of_rows(tuple(bv.data[i] for i in w.pivots))
    cs = kernel(bv - matmul(w.basis, head))
    if not cs:
        # the zero subspace: an n x 0 basis
        return Subspace(Matrix._of_rows(((),) * bv.rows), ())
    return Subspace.from_basis(mat_vec(bv, c) for c in cs)


def coordinate(n: int, indices, ring) -> Subspace:
    """span{e_i : i in indices} inside K^n, a fixture and a reference: the
    slice and the split read K^m off tail rows, with no coordinate
    subspace."""
    idx = sorted(set(indices))
    z, o = ring.zero, ring.one
    return Subspace.from_echelon(Matrix.from_columns(
        tuple(o if i == j else z for i in range(n)) for j in idx), idx)


def _reference_intersection(v, w):
    """Projector of V n W as the kernel of the stacked I - P_V, I - P_W."""
    n = v.ambient_dim
    ident = Matrix.identity(n, v.basis.scalar_ring())
    basis = kernel(Matrix((ident - _proj(v)).data + (ident - _proj(w)).data))
    return projector_of_basis(Matrix.from_columns(basis)) if basis else None


@pytest.mark.parametrize("field,n", [("R", 4), ("C", 4), ("H", 3)])
def test_subspace_operations_agree_with_projectors(field, n):
    ring = exact_ring_for_field(field)
    rng = rng_for(31, "ops", field)
    for _ in range(3):
        v = random_subspace(n, 2, ring, rng)
        w = random_subspace(n, 2, ring, rng)
        x = random_projective_point(n, ring, rng)
        u = random_unitary(n, ring, rng)
        # a line of V and a plane that shares it with W's first column
        inner = ProjectivePoint.from_vector(
            mat_vec(v.basis, (random_scalar(rng, ring), ring.one)))
        shared = Subspace.from_basis([inner.vector, w.basis.column(0)])
        for big, small in ((v, inner), (v, x), (v, w), (shared, inner),
                           (v, shared), (act(u, v), act(u, inner))):
            pb, ps = _proj(big), _proj(small)
            assert big.contains(small) == (matmul(pb, ps) == ps)
        for a, b in ((v, w), (v, shared), (w, shared), (v, x), (v, inner)):
            got = intersect(a, b)
            want = _reference_intersection(a, b)
            assert got.dim == (0 if want is None else rank(want))
            if want is not None:
                assert _proj(got) == want
        for a in (v, x, shared):
            comp = orthogonal_complement(a)
            assert comp.dim == n - a.dim
            assert _proj(comp) == Matrix.identity(n, ring) - _proj(a)
            assert orthogonal_complement(comp) == a


def test_a_zero_dimensional_intersection_has_dim_0():
    ring = RING_RATIONAL
    x = intersect(coordinate(4, (0, 1), ring),
                  coordinate(4, (2, 3), ring))
    assert x.dim == 0 and x.ambient_dim == 4
    assert x.pivots == ()
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is Subspace
        assert (y.basis, y.pivots) == (x.basis, x.pivots)
        assert y == x and hash(y) == hash(x)
    rng = rng_for(37, "zero")
    v = random_subspace(4, 2, RING_GAUSS_SQRT5, rng)
    w = random_subspace(4, 2, RING_GAUSS_SQRT5, rng)
    assert intersect(v, w).dim == 0


def test_a_one_dimensional_coordinate_subspace_is_a_line():
    e2 = coordinate(3, (2,), RING_RATIONAL)
    assert isinstance(e2, ProjectivePoint)
    assert e2 == ProjectivePoint.from_vector((Fraction(0), Fraction(0),
                                              Fraction(5)))


_PICKLED = {
    "exact line": lambda: ProjectivePoint.from_vector(
        (Fraction(0), Fraction(2), Fraction(-3))),
    "exact 2-plane over Q(sqrt5, i)": lambda: random_subspace(
        4, 2, RING_GAUSS_SQRT5, rng_for(41, "pickle")),
}


@pytest.mark.parametrize("name", sorted(_PICKLED))
def test_subspaces_copy_and_pickle(name):
    p = _PICKLED[name]()
    for q in (copy.copy(p), copy.deepcopy(p),
              pickle.loads(pickle.dumps(p))):
        assert type(q) is type(p)
        assert q.basis == p.basis and q.pivots == p.pivots
        assert q == p and hash(q) == hash(p)


def test_no_float_line_is_built_to_copy_or_pickle():
    # a complex coordinate is refused where the line is built, so no
    # copy or pickle can rebuild a float line
    with pytest.raises(BackendMismatchError, match="is not exact"):
        ProjectivePoint.from_vector(
            (complex(0.5, 0.5), complex(2.0), complex(0.0, 1.0)))


def test_intersect_of_complementary_coordinate_planes():
    ring = RING_RATIONAL
    v = coordinate(4, (0, 1, 2), ring)
    w = coordinate(4, (2, 3), ring)
    x = intersect(v, w)
    assert x.dim == 1
    assert _contains_vector(x, tuple(
        ring.one if i == 2 else ring.zero for i in range(4)))


# -------------------------------------------------------------------- flags

def test_flag_nesting_is_validated():
    ring = RING_RATIONAL
    v1 = coordinate(3, (0,), ring)
    v2 = coordinate(3, (0, 1), ring)
    bad = coordinate(3, (1, 2), ring)
    FlagPoint([v1, v2])      # nested: fine
    with pytest.raises(Exception):
        FlagPoint([v1, bad])  # v1 is not inside bad


def test_flags_are_equal_component_by_component():
    ring = RING_RATIONAL
    v1 = coordinate(3, (0,), ring)
    w1 = coordinate(3, (1,), ring)
    v2 = coordinate(3, (0, 1), ring)
    flag = FlagPoint([v1, v2])
    assert equals(flag, FlagPoint([coordinate(3, (0,), ring), v2]))
    # the same plane with another line in it, and the plane alone
    assert not equals(flag, FlagPoint([w1, v2]))
    assert not equals(flag, FlagPoint([v2]))


def test_a_flag_is_not_embedded():
    # no starred node embeds a flag: block_embed_point pads sphere points
    # and subspaces only
    ring = RING_RATIONAL
    flag = FlagPoint([coordinate(3, (0,), ring),
                      coordinate(3, (0, 1), ring)])
    with pytest.raises(BackendMismatchError, match="cannot embed"):
        block_embed_point(flag, 4)


# ------------------------------------------------------------------ actions

def test_action_is_associative_on_every_space_type():
    rng = rng_for(13, "assoc")
    ring = RING_GAUSS_SQRT5
    g = random_unitary(3, ring, rng)
    h = random_unitary(3, ring, rng)
    gh = matmul(g, h)
    points = [
        random_projective_point(3, ring, rng),
        random_subspace(3, 2, ring, rng),
        random_flag((1, 2), 3, ring, rng),
    ]
    for p in points:
        assert equals(act(gh, p), act(g, act(h, p)))


def test_action_of_identity():
    rng = rng_for(17, "ident")
    p = random_sphere_point(3, rng)
    ident = Matrix.identity(3, RING_QSQRT2)
    assert equals(act(ident, p), p)


def test_action_dimension_mismatch():
    rng = rng_for(19, "dim")
    p = random_projective_point(3, RING_RATIONAL, rng)
    g = Matrix.identity(4, RING_RATIONAL)
    with pytest.raises(DimensionMismatchError):
        act(g, p)


def test_so3_action_example():
    # image of the ray through e1 under the generator a
    from paradoxcert.scalars import QSqrt2
    pair = get_pair("so3-ab")
    a = pair.letter_matrix(0)
    p = SpherePoint.from_vector((Fraction(1), Fraction(0), Fraction(0)))
    q = act(a, p)
    expect = (QSqrt2(1, 0), QSqrt2(0, 2), QSqrt2(0, 0))
    assert q.direction == expect and q.sign == 1


def test_block_embed_point_fixes_new_coordinates():
    rng = rng_for(23, "embed")
    p = random_projective_point(2, RING_GAUSS_SQRT5, rng)
    big = block_embed_point(p, 4)
    assert big.ambient_dim == 4
    rep = big.vector
    assert all(x == RING_GAUSS_SQRT5.zero for x in rep[2:])


def test_exact_ring_for_field():
    assert exact_ring_for_field("R") is RING_QSQRT2
    assert exact_ring_for_field("C") is RING_GAUSS_SQRT5
    assert exact_ring_for_field("H") is RING_QUAT_SQRT5


def _slice_cases(field, n, k, rng):
    """Random k-planes of K^n, k-planes inside K^m (m = n + 1 - k), and
    k-planes meeting K^m in two dimensions (the gap case), with m."""
    ring = exact_ring_for_field(field)
    m = n + 1 - k

    def head_vector():
        return tuple(random_scalar(rng, ring) if i < m else ring.zero
                     for i in range(n))

    def vector():
        return tuple(random_scalar(rng, ring) for _ in range(n))

    cases = [random_subspace(n, k, ring, rng) for _ in range(4)]
    for heads in (k, 2):
        if heads > m or (heads == 2 and k < 3):
            continue
        while True:
            cols = [head_vector() for _ in range(heads)]
            cols += [vector() for _ in range(k - heads)]
            try:
                cases.append(Subspace.from_basis(cols))
                break
            except RankDeficientError:
                continue
    return m, cases


def _reference_slice(v, hyper):
    """V n K^m by the generic intersection, or the error class and text
    the slice map must raise."""
    if hyper.contains(v):
        return DomainError, "subspaces inside the hyperplane copy are excluded"
    x = intersect(v, hyper)
    if x.dim != 1:
        return GapCaseError, f"slice intersection has dimension {x.dim}, not 1"
    return x


@pytest.mark.parametrize("field", ["R", "C", "H"])
def test_the_tail_row_slice_equals_the_generic_intersection(field):
    rng = rng_for(89, "tail", field)
    ring = exact_ring_for_field(field)
    seen = set()
    for n, k in ((3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)):
        m, cases = _slice_cases(field, n, k, rng)
        hyper = coordinate(n, range(m), ring)
        apply = grass_slice(field, n, k).apply
        for v in cases:
            inside = hyper.contains(v)
            assert v.inside_head(m) is inside
            assert _contained_in(m, v) is inside
            want = _reference_slice(v, hyper)
            if isinstance(want, Subspace):
                got = apply(v)
                assert got == want and repr(got.vector) == repr(want.vector)
                seen.add("line")
                continue
            with pytest.raises(DomainError) as err:
                apply(v)
            assert (type(err.value), str(err.value)) == want
            seen.add(want[0].__name__)
    assert seen == {"line", "DomainError", "GapCaseError"}
