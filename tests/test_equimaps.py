"""The equivariant map catalog: domain predicates, sections, selftests."""

import dataclasses
from fractions import Fraction

import pytest

from paradoxcert.equimaps import (
    _chart_preimages,
    corrupted,
    default_catalog,
    duality,
    flag_to_grass,
    grass_slice,
    induced_rotation,
    proj_drop,
    selftest,
    sphere_drop,
    stereographic,
    stereographic_apply,
    stereographic_lift,
)
from paradoxcert.errors import DomainError, GapCaseError
from paradoxcert.linalg import (
    Matrix,
    block_embed_matrix,
    conj_transpose,
    is_unitary,
    mat_vec,
    matmul,
    projector_of_basis,
)
from paradoxcert.sampling import (
    generating_set,
    random_projective_point,
    random_subspace,
    random_unitary,
    rng_for,
)
from paradoxcert.scalars import (
    RING_QUAT_SQRT5,
    RINGS,
    GaussSqrt5,
    QSqrt2,
    Quaternion,
    QSqrt5,
    exact_sqrt,
    ring_of,
)
from paradoxcert.spaces import (
    ProjectivePoint,
    Sphere,
    SpherePoint,
    Subspace,
    act,
    equals,
    exact_ring_for_field,
    orthogonal_complement,
)
from test_spaces import coordinate


def test_catalog_covers_every_space_family():
    names = [m.name for m in default_catalog()]
    assert len(names) == len(set(names))
    for prefix in ("sphere_drop", "proj_drop", "grass_slice", "duality",
                   "flag_to_grass", "stereographic", "induced_rotation"):
        assert any(n.startswith(prefix) for n in names)


def test_every_catalog_map_is_equivariant():
    for m in default_catalog():
        result = selftest(m, 12, seed=2024)
        assert result["ok"], result
        assert m.exact and result["max_deviation"] == 0.0


def test_corrupted_maps_fail_the_selftest():
    for m in default_catalog()[:4]:
        result = selftest(corrupted(m), 12, seed=2024)
        assert not result["ok"], f"corrupted {m.name} still passed"


def test_sphere_drop_section_is_a_right_inverse():
    m = sphere_drop(3)
    rng = rng_for(41, "sd")
    for i in range(20):
        x = m.sample_source(rng)
        y = m.apply(x)
        assert equals(m.apply(m.section(y)), y)


def test_proj_drop_rejects_the_dropped_axis():
    m = proj_drop("R", 4)
    ring = exact_ring_for_field("R")
    e4 = ProjectivePoint.from_vector(
        tuple(ring.one if i == 3 else ring.zero for i in range(4)))
    with pytest.raises(DomainError):
        m.apply(e4)


def test_grass_slice_excludes_the_hyperplane_copy():
    m = grass_slice("R", 4, 2)
    ring = exact_ring_for_field("R")
    inside = coordinate(4, (0, 1), ring)   # contained in the slice
    with pytest.raises(DomainError):
        m.apply(inside)


def test_grass_slice_gap_case():
    # a 3-plane meeting the hyperplane in dimension 2 is neither inside it
    # nor a legal input: the slice map reports the gap explicitly
    m = grass_slice("R", 5, 3)
    ring = exact_ring_for_field("R")
    v = coordinate(5, (0, 1, 3), ring)
    with pytest.raises(GapCaseError):
        m.apply(v)


def test_grass_slice_section_round_trip():
    m = grass_slice("C", 4, 2)
    ring = exact_ring_for_field("C")
    rng = rng_for(43, "gs")
    for i in range(10):
        v = m.sample_source(rng)
        line = m.apply(v)
        again = m.apply(m.section(line))
        assert equals(line, again)


def _proj(sub):
    """The orthogonal projector of a subspace, from its echelon basis."""
    return projector_of_basis(sub.basis)


def test_duality_involution_dim_equivariance():
    rng = rng_for(47, "dual")
    for field, n in (("R", 4), ("C", 3), ("H", 3)):
        ring = exact_ring_for_field(field)
        for k in range(1, n):
            v = random_subspace(n, k, ring, rng)
            w = orthogonal_complement(v)
            assert w.dim == n - k
            assert _proj(orthogonal_complement(w)) == _proj(v)
            g = random_unitary(n, ring, rng)
            assert _proj(act(g, w)) == \
                _proj(orthogonal_complement(act(g, v)))


def test_duality_map_instance_round_trip():
    m = duality("R", 4, 2)
    rng = rng_for(53, "dm")
    v = m.sample_source(rng)
    w = m.apply(v)
    assert w.dim == 2
    assert _proj(m.apply(w)) == _proj(v)


def test_flag_to_grass_section_completes_a_flag():
    m = flag_to_grass("R", (1, 2, 3), 0)
    rng = rng_for(59, "fg")
    f = m.sample_source(rng)
    v1 = m.apply(f)
    g = m.section(v1)
    assert _proj(m.apply(g)) == _proj(v1)
    dims = tuple(c.dim for c in g.components)
    assert dims == (1, 2)


def test_stereographic_round_trip():
    # the chart image of an exact line is a unit vector over Q(sqrt5), and
    # the exact lift recovers the line; a ray whose unit vector needs
    # sqrt2 leaves the field and has no lift
    for field in ("C", "H"):
        ring = exact_ring_for_field(field)
        rng = rng_for(61, "st", field)
        for i in range(25):
            line = random_projective_point(2, ring, rng)
            p = stereographic_apply(field, line)
            back = stereographic_lift(field, p)
            assert back == line
            assert stereographic_apply(field, back) == p
        d = 3 if field == "C" else 5
        for vec in ((1, 1) + (0,) * (d - 2), (0,) * (d - 1) + (1,),
                    (0,) * (d - 1) + (-1,)):
            p = SpherePoint.from_vector(tuple(map(QSqrt5, vec)))
            back = stereographic_lift(field, p)
            if vec[0]:
                assert back is None
            else:
                assert stereographic_apply(field, back) == p


def _chart_basis_lines(field):
    """The lines [1 : 1], [i : 1] (, [j : 1], [k : 1]) and [1 : 0]."""
    if field == "C":
        one, zero = GaussSqrt5(1), GaussSqrt5(0)
        units = [one, GaussSqrt5(0, 0, 1)]
    else:
        o, z = QSqrt5(1), QSqrt5(0)
        one, zero = Quaternion(o, z, z, z), Quaternion(z, z, z, z)
        units = [one, Quaternion(z, o, z, z), Quaternion(z, z, o, z),
                 Quaternion(z, z, z, o)]
    return [(u, one) for u in units] + [(one, zero)]


def test_the_chart_puts_each_basis_line_on_its_basis_vector():
    for field in ("C", "H"):
        lines = _chart_basis_lines(field)
        for j, v in enumerate(lines):
            e = tuple(QSqrt5(int(i == j)) for i in range(len(lines)))
            p = stereographic_apply(field, ProjectivePoint.from_vector(v))
            assert p == SpherePoint.from_vector(e)


def test_the_exact_induced_rotation_is_an_orthogonal_homomorphism():
    for field in ("C", "H"):
        ring = exact_ring_for_field(field)
        rng = rng_for(71, "exact-ir", field)
        gs = [random_unitary(2, ring, rng) for _ in range(6)]
        for g, h in zip(gs, gs[1:]):
            r = induced_rotation(field, g)
            ident = Matrix.identity(r.rows, r.scalar_ring())
            assert matmul(r.transpose(), r) == ident
            assert induced_rotation(field, matmul(g, h)) == \
                matmul(r, induced_rotation(field, h))
            # column j is the chart image of g l_j
            for j, v in enumerate(_chart_basis_lines(field)):
                image = ProjectivePoint.from_vector(mat_vec(g, v))
                assert SpherePoint.from_vector(r.column(j)) == \
                    stereographic_apply(field, image)


def test_the_exact_chart_commutes_with_the_action():
    for field in ("C", "H"):
        ring = exact_ring_for_field(field)
        rng = rng_for(73, "exact-chart", field)
        for _ in range(8):
            line = random_projective_point(2, ring, rng)
            g = random_unitary(2, ring, rng)
            lhs = stereographic_apply(field, act(g, line))
            rhs = act(induced_rotation(field, g),
                      stereographic_apply(field, line))
            assert lhs == rhs


def test_corrupted_charts_fail_the_selftest():
    for field in ("C", "H"):
        result = selftest(corrupted(stereographic(field)), 6, seed=2024)
        assert not result["ok"], result


def test_selftest_reports_gap_skips():
    m = grass_slice("R", 4, 2)
    result = selftest(m, 10, seed=7)
    assert result["samples"] + result["skipped"] == 10


# phases per coordinate: none over the real rings, (3 +- 4i)/5 over
# Q(sqrt5, i), and (3 +- 4i)/5, (3 +- 4j)/5 over the quaternions
_PHASES = {"rational": 0, "qsqrt2": 0, "qsqrt5": 0, "gauss_sqrt5": 2,
           "quat_rational": 4, "quat_sqrt5": 4}


@pytest.mark.parametrize("ring_name", sorted(RINGS))
def test_each_generating_set_is_unitary_and_closed_under_inverses(
        ring_name):
    ring = RINGS[ring_name]
    for n in range(1, 6):
        gens = generating_set(n, ring)
        assert gens is generating_set(n, ring)  # built once
        # two Givens rotations per coordinate plane, then the phases; SO(1)
        # is generated by the identity alone
        assert len(gens) == (n * (n - 1) + _PHASES[ring_name] * n or 1)
        if n == 1 and not _PHASES[ring_name]:
            assert gens == (Matrix.identity(1, ring),)
        assert len(set(gens)) == len(gens)
        for s in gens:
            assert (s.rows, s.cols) == (n, n)
            assert is_unitary(s)
            assert {ring_of(x) for row in s.data for x in row} == {ring}
            assert conj_transpose(s) in gens


def _sampled_pairs(m, count=40):
    rng = rng_for(79, "pairs", m.name)
    return [m.sample_pair(rng) for _ in range(count)]


def test_each_catalog_pair_lies_in_the_block_of_the_stated_group():
    # R maps run over Q(sqrt2) and sphere_drop over the rationals, so each
    # set is that of the map's own ring
    for m in default_catalog():
        if m.group is None:
            continue
        base = m.source.base
        ring = (RINGS["rational"] if isinstance(base, Sphere)
                else exact_ring_for_field(base.field))
        n, dim = m.group.n, m.group.matrix_dim
        for g, h in _sampled_pairs(m):
            assert g is h and (g.rows, g.cols) == (dim, dim)
            block = Matrix(row[:n] for row in g.data[:n])
            assert block in generating_set(n, ring)
            assert block_embed_matrix(block, dim) == g


def test_each_chart_pair_is_a_generator_and_its_induced_rotation():
    for field in ("C", "H"):
        gens = generating_set(2, exact_ring_for_field(field))
        for s, r in _sampled_pairs(stereographic(field)):
            assert s in gens
            assert r == induced_rotation(field, s)


def _swapped_last(m):
    """m with the last two coordinates of each image swapped: it still
    commutes with every generator whose plane avoids both."""
    apply = m.apply

    def bad_apply(x):
        y = apply(x)
        rows = y.basis.data
        swapped = Matrix._of_rows(rows[:-2] + (rows[-1], rows[-2]))
        return Subspace.from_basis(swapped.columns())
    return dataclasses.replace(m, name=f"swapped:{m.name}", apply=bad_apply)


@pytest.mark.parametrize("m", [duality("R", 5, 2), duality("C", 4, 2),
                               proj_drop("R", 5), grass_slice("H", 4, 2)],
                         ids=lambda m: m.name)
def test_a_map_broken_along_one_coordinate_swap_fails_its_selftest(m):
    result = selftest(_swapped_last(m), 30, seed=2024)
    assert not result["ok"], result
    # the generators that avoid the swapped pair still pass
    assert result["failures"] < result["samples"]


def test_the_chart_refuses_a_line_off_its_field():
    # a line whose leading-1 vector has an entry with a sqrt2 part lies
    # in neither Q(sqrt5, i) nor the quaternions over Q(sqrt5); a
    # quaternion with a j or k part is no point of the line over C
    off, one = QSqrt2(1, 1), QSqrt2(1)
    for field in ("C", "H"):
        for vec in ((off, one), (one, off), (one, QSqrt2(0, 1))):
            with pytest.raises(DomainError):
                stereographic_apply(field,
                                    ProjectivePoint.from_vector(vec))
    o, z = QSqrt5(1), QSqrt5(0)
    j = Quaternion(z, z, o, z)
    with pytest.raises(DomainError):
        stereographic_apply("C", ProjectivePoint.from_vector(
            (RING_QUAT_SQRT5.one, j)))


def _as_field(field, x):
    """The real scalar x written over Q(sqrt5, i) or the quaternions."""
    x = QSqrt5(x) if isinstance(x, (int, Fraction)) else x
    z = QSqrt5(0)
    return GaussSqrt5(x.a, x.b, 0, 0, x.den) if field == "C" \
        else Quaternion(x, z, z, z)


def test_the_chart_reads_a_rational_or_real_line_by_value():
    # a line with rational or Q(sqrt5) entries lies in the projective line
    # over C and over H: the chart puts it where it puts the same line
    # written over Q(sqrt5, i) or the quaternions, in S^2 or S^4
    f = Fraction
    for field in ("C", "H"):
        d = 3 if field == "C" else 5
        for vec, image in (((f(1), f(2)), (4,) + (0,) * (d - 2) + (-3,)),
                           ((f(1), f(0)), (0,) * (d - 1) + (1,)),
                           ((f(0), f(1)), (0,) * (d - 1) + (-1,)),
                           ((f(1, 2), f(3)), (3,) + (0,) * (d - 2)
                            + (f(-35, 4),)),
                           ((QSqrt5(1, 1), f(1)), None)):
            line = ProjectivePoint.from_vector(vec)
            written = ProjectivePoint.from_vector(
                tuple(_as_field(field, x) for x in vec))
            p = stereographic_apply(field, line)
            assert p == stereographic_apply(field, written)
            assert p == _reference_chart(written)
            if image:
                assert p == SpherePoint.from_vector(tuple(map(QSqrt5, image)))


# the chart before it was one integer form, kept as the reference: the
# line [q : 1] goes to (2q, |q|^2 - 1) / (|q|^2 + 1) with q = v1 v2^-1, and
# [1 : 0] to the north pole; the lift reads the unit vector (c, h) and
# returns [c / (1 - h) : 1], or [1 : 0] at h = 1


def _reference_coords(q):
    if isinstance(q, GaussSqrt5):
        return list(q.real_imag())
    return [q.w, q.x, q.y, q.z]


def _reference_vector(v1, v2):
    if not v2:
        coords = _reference_coords(v1)
        zero = coords[0] - coords[0]
        return (zero,) * len(coords) + (zero + 1,)
    coords = _reference_coords(v1 * v2.inverse())
    norm_sq = sum(c * c for c in coords)
    scale = 1 / (norm_sq + 1)
    return tuple(2 * c * scale for c in coords) + ((norm_sq - 1) * scale,)


def _reference_chart(line):
    return SpherePoint.from_vector(_reference_vector(*line.vector))


def _reference_lift(field, p):
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


def _reference_rotation(field, g):
    return Matrix(zip(*[_reference_vector(*mat_vec(g, v))
                        for v in _chart_preimages(field)]))


def _entry_classes(x):
    """The class of every entry of a point or matrix, and of every
    component of a quaternion entry."""
    if isinstance(x, SpherePoint):
        entries = x.direction
    elif isinstance(x, ProjectivePoint):
        entries = x.vector
    else:
        entries = [e for row in x.data for e in row]
    return [(type(e),) + ((type(e.w), type(e.x), type(e.y), type(e.z))
                          if isinstance(e, Quaternion) else ())
            for e in entries]


def _lines_with_a_zero_part(field):
    """Lines whose entries have a zero real or imaginary part, the two
    poles among them."""
    o, t, z = QSqrt5(1), QSqrt5(2, 1), QSqrt5(0)

    def num(re, im):
        # re + im i over C, and re + im j + im k over H
        if field == "C":
            return re + GaussSqrt5(0, 0, 1) * im
        return Quaternion(re, z, im, im)
    return [(num(o, z), num(z, z)), (num(z, z), num(o, z)),
            (num(t, z), num(o, z)), (num(z, t), num(o, z)),
            (num(o, z), num(z, t)), (num(t, z), num(z, o)),
            (num(z, o), num(t, t)), (num(o, t), num(z, z))]


def test_the_chart_and_its_lift_equal_the_reference_formula():
    for field in ("C", "H"):
        ring = exact_ring_for_field(field)
        rng = rng_for(83, "reference", field)
        lines = [random_projective_point(2, ring, rng) for _ in range(30)]
        lines += [ProjectivePoint.from_vector(v)
                  for v in _lines_with_a_zero_part(field)]
        for line in lines:
            p = stereographic_apply(field, line)
            ref = _reference_chart(line)
            assert p == ref and p.sign == ref.sign
            assert _entry_classes(p) == _entry_classes(ref)
            back = stereographic_lift(field, p)
            assert back == _reference_lift(field, p) == line
            assert _entry_classes(back) == _entry_classes(line)


def test_the_lift_leaves_the_field_exactly_where_the_reference_does():
    # the rays of test_stereographic_round_trip, and the sqrt2 rays with a
    # nonzero last coordinate
    for field in ("C", "H"):
        d = 3 if field == "C" else 5
        for vec in ((1, 1) + (0,) * (d - 2), (0,) * (d - 1) + (1,),
                    (0,) * (d - 1) + (-1,), (1,) + (0,) * (d - 2) + (1,),
                    (-1,) + (0,) * (d - 2) + (-1,), (3,) + (0,) * (d - 2)
                    + (-4,)):
            p = SpherePoint.from_vector(tuple(map(QSqrt5, vec)))
            back = stereographic_lift(field, p)
            ref = _reference_lift(field, p)
            assert (back is None) == (ref is None)
            assert back == ref


def test_the_induced_rotation_equals_the_reference_formula():
    for field in ("C", "H"):
        ring = exact_ring_for_field(field)
        rng = rng_for(89, "reference", field)
        gs = list(generating_set(2, ring))
        gs += [random_unitary(2, ring, rng) for _ in range(4)]
        for g in gs:
            r = induced_rotation(field, g)
            ref = _reference_rotation(field, g)
            assert r == ref
            assert _entry_classes(r) == _entry_classes(ref)
