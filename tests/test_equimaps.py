"""The equivariant map catalog: domain predicates, sections, selftests."""

import pytest

from paradoxcert.equimaps import (
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
from paradoxcert.linalg import Matrix, mat_vec, matmul, to_float_matrix
from paradoxcert.sampling import (
    random_projective_point,
    random_subspace,
    random_unitary,
    rng_for,
)
from paradoxcert.scalars import GaussSqrt5, Quaternion, QSqrt5
from paradoxcert.spaces import (
    ProjectivePoint,
    SpherePoint,
    Subspace,
    act,
    equals,
    exact_ring_for_field,
    orthogonal_complement,
)


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
        if m.exact:
            assert result["max_deviation"] == 0.0
        else:
            assert result["max_deviation"] <= 1e-9


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
    assert not m.in_domain(e4)
    with pytest.raises(DomainError):
        m.apply(e4)


def test_grass_slice_excludes_the_hyperplane_copy():
    m = grass_slice("R", 4, 2)
    ring = exact_ring_for_field("R")
    inside = Subspace.coordinate(4, (0, 1), ring)   # contained in the slice
    assert not m.in_domain(inside)
    with pytest.raises(DomainError):
        m.apply(inside)


def test_grass_slice_gap_case():
    # a 3-plane meeting the hyperplane in dimension 2 is neither inside it
    # nor a legal input: the slice map reports the gap explicitly
    m = grass_slice("R", 5, 3)
    ring = exact_ring_for_field("R")
    v = Subspace.coordinate(5, (0, 1, 3), ring)
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


def test_duality_involution_dim_equivariance():
    rng = rng_for(47, "dual")
    for field, n in (("R", 4), ("C", 3), ("H", 3)):
        ring = exact_ring_for_field(field)
        for k in range(1, n):
            v = random_subspace(n, k, ring, rng)
            w = orthogonal_complement(v)
            assert w.dim == n - k
            assert orthogonal_complement(w).projector == v.projector
            g = random_unitary(n, ring, rng)
            assert act(g, w).projector == \
                orthogonal_complement(act(g, v)).projector


def test_duality_map_instance_round_trip():
    m = duality("R", 4, 2)
    rng = rng_for(53, "dm")
    v = m.sample_source(rng)
    w = m.apply(v)
    assert w.dim == 2
    assert m.apply(w).projector == v.projector


def test_flag_to_grass_section_completes_a_flag():
    m = flag_to_grass("R", (1, 2, 3), 0)
    rng = rng_for(59, "fg")
    f = m.sample_source(rng)
    v1 = m.apply(f)
    g = m.section(v1)
    assert m.apply(g).projector == v1.projector
    dims = tuple(c.dim for c in g.components)
    assert dims == (1, 2)


def test_stereographic_round_trip():
    for field in ("C", "H"):
        ring = exact_ring_for_field(field)
        rng = rng_for(61, "st", field)
        for i in range(25):
            line = random_projective_point(2, ring, rng)
            p = stereographic_apply(field, line)
            vec = p.to_float_vector()
            assert abs(sum(x * x for x in vec) - 1.0) < 1e-9
            back = stereographic_lift(field, p)
            again = stereographic_apply(field, back)
            assert max(abs(x - y)
                       for x, y in zip(again.direction, vec)) < 1e-9


def test_induced_rotation_is_orthogonal():
    for field in ("C", "H"):
        ring = exact_ring_for_field(field)
        rng = rng_for(67, "ir", field)
        g = random_unitary(2, ring, rng)
        r = induced_rotation(field, to_float_matrix(g))
        n = r.rows
        rt = tuple(tuple(r.data[j][i] for j in range(n)) for i in range(n))
        from paradoxcert.linalg import Matrix
        prod = matmul(r, Matrix(rt))
        for i in range(n):
            for j in range(n):
                target = 1.0 if i == j else 0.0
                assert abs(prod.data[i][j] - target) < 1e-9


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
            assert p.exact
            assert p == SpherePoint.from_vector(e)


def test_the_exact_induced_rotation_is_an_orthogonal_homomorphism():
    for field in ("C", "H"):
        ring = exact_ring_for_field(field)
        rng = rng_for(71, "exact-ir", field)
        gs = [random_unitary(2, ring, rng) for _ in range(6)]
        for g, h in zip(gs, gs[1:]):
            r = induced_rotation(field, g)
            assert r.scalar_ring().exact
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
            assert lhs.exact and rhs.exact
            assert lhs == rhs


def test_corrupted_charts_fail_the_selftest():
    for field in ("C", "H"):
        result = selftest(corrupted(stereographic(field)), 6, seed=2024)
        assert not result["ok"], result


def test_selftest_reports_gap_skips():
    m = grass_slice("R", 4, 2)
    result = selftest(m, 10, seed=7)
    assert result["samples"] + result["skipped"] == 10
