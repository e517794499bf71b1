"""Free generator pairs, exact freeness scans, axes, and the absorber."""

from fractions import Fraction

import pytest

from paradoxcert.errors import ParadoxError
from paradoxcert.freegroup import (
    absorber_check,
    axis_of,
    ball_products,
    check_freeness,
    default_absorber,
    evaluate,
    exceptional_set,
    get_pair,
    plane_rotation,
)
from paradoxcert.linalg import (
    Matrix,
    is_unitary,
    mat_vec,
    matmul,
    normalize_leading,
)
from paradoxcert.scalars import RING_RATIONAL
from paradoxcert.words import enumerate_ball, parse_word

PAIRS = ("so3-ab", "su2-sqrt5", "sp1-sqrt5")


def test_letter_matrices_are_exactly_unitary():
    for name in PAIRS:
        pair = get_pair(name)
        for letter in range(4):
            assert is_unitary(pair.letter_matrix(letter))


def test_letters_invert_each_other():
    for name in PAIRS:
        pair = get_pair(name)
        ident = Matrix.identity(pair.dim,
                                pair.letter_matrix(0).scalar_ring())
        for letter in (0, 2):
            m = pair.letter_matrix(letter)
            inv = pair.letter_matrix(letter + 1)
            assert matmul(m, inv) == ident


def test_so3_generator_columns():
    # a rotates e1 to (1/3, 2*sqrt(2)/3, 0); b fixes e1
    from paradoxcert.scalars import QSqrt2
    pair = get_pair("so3-ab")
    a = pair.letter_matrix(0)
    b = pair.letter_matrix(2)
    e1 = (QSqrt2(1, 0), QSqrt2(0, 0), QSqrt2(0, 0))
    assert mat_vec(a, e1) == (QSqrt2(Fraction(1, 3), 0),
                              QSqrt2(0, Fraction(2, 3)),
                              QSqrt2(0, 0))
    assert mat_vec(b, e1) == e1


def test_evaluate_word_inverse_cancels():
    for name in PAIRS:
        pair = get_pair(name)
        w = parse_word("abAB")
        m = evaluate(w, pair)
        minv = evaluate(tuple(reversed([x ^ 1 for x in w])), pair)
        ident = Matrix.identity(pair.dim, m.scalar_ring())
        assert matmul(m, minv) == ident


def test_freeness_small_depth_all_pairs():
    for name in PAIRS:
        result = check_freeness(get_pair(name), 4)
        assert result["ok"], result
        assert result["words_checked"] == 2 * 3 ** 4 - 2
        assert result["counterexample"] is None


def test_freeness_of_block_embedded_pair():
    result = check_freeness(get_pair("so3-ab@4"), 3)
    assert result["ok"], result


def test_axis_of_generators():
    pair = get_pair("so3-ab")
    ring = pair.letter_matrix(0).scalar_ring()
    a_axis = axis_of(parse_word("a"), pair)
    b_axis = axis_of(parse_word("b"), pair)
    one, zero = ring.one, ring.zero
    assert a_axis == (zero, zero, one)
    assert b_axis == (one, zero, zero)


def test_axis_is_exactly_fixed():
    pair = get_pair("so3-ab")
    for w in enumerate_ball(3):
        if not w:
            continue
        axis = axis_of(w, pair)
        assert mat_vec(evaluate(w, pair), axis) == tuple(axis)


def test_axis_requires_so3_pair():
    with pytest.raises(ParadoxError):
        axis_of(parse_word("a"), get_pair("su2-sqrt5"))


def test_exceptional_set_counts_and_growth():
    pair = get_pair("so3-ab")
    d1 = exceptional_set(pair, 1)
    d2 = exceptional_set(pair, 2)
    d4 = exceptional_set(pair, 4)
    assert len(d1) == 2          # the two generator axes
    assert len(d2) == 6
    assert len(d4) == 66
    assert d1 <= d2 <= d4


def test_ball_products_follow_the_ball_with_exact_products():
    for name in PAIRS + ("sp1-sqrt5@2",):
        pair = get_pair(name)
        got = list(ball_products(pair, 4))
        assert [w for w, _ in got] == list(enumerate_ball(4))
        for w, m in got:
            assert m == evaluate(w, pair), (name, w)


def test_exceptional_set_is_the_axes_of_the_ball():
    pair = get_pair("so3-ab")
    d4 = exceptional_set(pair, 4)
    assert len(d4) == 66
    assert d4 == {axis_of(w, pair) for w in enumerate_ball(4) if w}


def test_default_absorber_is_a_rotation_off_the_axes():
    g = default_absorber()
    assert is_unitary(g)
    pair = get_pair("so3-ab")
    for axis in exceptional_set(pair, 2):
        assert normalize_leading(mat_vec(g, axis)) != tuple(axis)


def test_absorber_check_passes_for_default():
    pair = get_pair("so3-ab")
    lines = exceptional_set(pair, 3)
    result = absorber_check(default_absorber(), lines, 20)
    assert result["ok"], result
    assert result["first_collision"] is None
    assert result["set_size"] == len(lines)


def test_absorber_check_identity_collides_immediately():
    pair = get_pair("so3-ab")
    lines = exceptional_set(pair, 2)
    ident = Matrix.identity(3, RING_RATIONAL)
    result = absorber_check(ident, lines, 5)
    assert not result["ok"]
    assert result["first_collision"] == (0, 1)


def test_plane_rotation_is_unitary_and_moves_the_plane():
    g = plane_rotation(4, 0, 2)
    assert is_unitary(g)
    ring = g.scalar_ring()
    e1 = tuple(ring.one if i == 0 else ring.zero for i in range(4))
    e2 = tuple(ring.one if i == 1 else ring.zero for i in range(4))
    assert mat_vec(g, e1) != e1   # rotated inside the (0,2) plane
    assert mat_vec(g, e2) == e2   # fixed off the plane
