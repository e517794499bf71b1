"""Space descriptors, canonical point forms, and the isometry actions."""

from fractions import Fraction

import pytest

from paradoxcert.errors import DescriptorError, DimensionMismatchError
from paradoxcert.freegroup import get_pair
from paradoxcert.linalg import Matrix, mat_vec, matmul
from paradoxcert.sampling import (
    random_flag,
    random_projective_point,
    random_sphere_point,
    random_subspace,
    random_unitary,
    rng_for,
)
from paradoxcert.scalars import (
    GaussSqrt5,
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
    intersect,
    natural_group,
    orthogonal_complement,
    parse_descriptor,
)


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
    assert equals(p.antipode(), m)


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
        p = v.projector
        assert matmul(p, p) == p
        assert v.dim == 2 and v.ambient_dim == 4


def test_orthogonal_complement_involution_and_dim():
    rng = rng_for(7, "comp")
    for ring in (RING_RATIONAL, RING_GAUSS_SQRT5, RING_QUAT_SQRT5):
        for k in (1, 2, 3):
            v = random_subspace(4, k, ring, rng)
            w = orthogonal_complement(v)
            assert w.dim == 4 - k
            assert orthogonal_complement(w).projector == v.projector


def test_intersect_of_complementary_coordinate_planes():
    ring = RING_RATIONAL
    v = Subspace.coordinate(4, (0, 1, 2), ring)
    w = Subspace.coordinate(4, (2, 3), ring)
    x = intersect(v, w)
    assert x.dim == 1
    assert x.contains_vector(tuple(
        ring.one if i == 2 else ring.zero for i in range(4)))


# -------------------------------------------------------------------- flags

def test_flag_nesting_is_validated():
    ring = RING_RATIONAL
    v1 = Subspace.coordinate(3, (0,), ring)
    v2 = Subspace.coordinate(3, (0, 1), ring)
    bad = Subspace.coordinate(3, (1, 2), ring)
    FlagPoint([v1, v2])      # nested: fine
    with pytest.raises(Exception):
        FlagPoint([v1, bad])  # v1 is not inside bad


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
    rep = big.representative()
    assert all(x == RING_GAUSS_SQRT5.zero for x in rep[2:])


def test_exact_ring_for_field():
    assert exact_ring_for_field("R") is RING_QSQRT2
    assert exact_ring_for_field("C") is RING_GAUSS_SQRT5
    assert exact_ring_for_field("H") is RING_QUAT_SQRT5
