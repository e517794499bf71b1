"""Exact scalar towers: quadratic extensions, Gaussian-sqrt5, quaternions."""

import math
import operator
import random
from fractions import Fraction

import pytest

from paradoxcert.errors import BackendMismatchError
from paradoxcert.scalars import (
    GaussSqrt5,
    QSqrt2,
    QSqrt5,
    Quaternion,
    RING_GAUSS_SQRT5,
    RING_QSQRT2,
    RING_QUAT_SQRT5,
    RING_RATIONAL,
    exact_sqrt,
    ring_of,
    scalar_from_json,
    scalar_to_json,
    sub_scaled,
)


def _rand_qsqrt2(rng):
    return QSqrt2(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 7)))


def _rand_gauss(rng):
    return GaussSqrt5(rng.randint(-9, 9), rng.randint(-9, 9),
                      rng.randint(-9, 9), rng.randint(-9, 9),
                      rng.randint(1, 7))


def _rand_qsqrt5(rng):
    return QSqrt5(Fraction(rng.randint(-9, 9), rng.randint(1, 7)),
                  Fraction(rng.randint(-9, 9), rng.randint(1, 7)))


def _assert_canonical(x):
    assert x.den > 0
    assert math.gcd(x.a, x.b, x.c, x.d, x.den) == 1
    if not isinstance(x, GaussSqrt5):
        assert x.c == 0 and x.d == 0


def _rand_quat(rng):
    return Quaternion(_rand_qsqrt5(rng), _rand_qsqrt5(rng),
                      _rand_qsqrt5(rng), _rand_qsqrt5(rng))


def _float(x):
    # the float reference value of a + b sqrt2 over den
    return (x.a + x.b * math.sqrt(2)) / x.den


def test_qsqrt2_arithmetic_matches_floats():
    rng = random.Random(7)
    for _ in range(200):
        x, y = _rand_qsqrt2(rng), _rand_qsqrt2(rng)
        for got, expect in (
                (x + y, _float(x) + _float(y)),
                (x - y, _float(x) - _float(y)),
                (x * y, _float(x) * _float(y))):
            assert abs(_float(got) - expect) < 1e-9
            _assert_canonical(got)


def test_qsqrt2_sqrt_squares_to_two():
    root2 = QSqrt2(0, 1)
    assert root2 * root2 == QSqrt2(2, 0)


def test_exact_sqrt_finds_the_root_in_the_field_or_none():
    rng = random.Random(29)
    for make in (_rand_qsqrt2, _rand_qsqrt5,
                 lambda r: Fraction(r.randint(-9, 9), r.randint(1, 7))):
        for _ in range(200):
            y = make(rng)
            root = exact_sqrt(y * y)
            assert root == abs(y) and type(root) is type(y * y)
    assert exact_sqrt(QSqrt2(Fraction(9, 8))) == QSqrt2(0, Fraction(3, 4))
    assert exact_sqrt(QSqrt5(6, 2)) == QSqrt5(1, 1)
    # no root in the field: a non-square, a negative value, and a norm
    # a^2 - D b^2 that is no rational square
    for x in (Fraction(2), QSqrt5(2), Fraction(-4), QSqrt5(-6, 2),
              QSqrt5(1, 1)):
        assert exact_sqrt(x) is None


def test_qsqrt5_and_qsqrt2_do_not_mix():
    from paradoxcert.errors import BackendMismatchError
    with pytest.raises((BackendMismatchError, TypeError)):
        QSqrt2(1, 1) * QSqrt5(1, 1)


def test_gauss_sqrt5_is_a_commutative_ring():
    rng = random.Random(11)
    for _ in range(100):
        x, y, z = _rand_gauss(rng), _rand_gauss(rng), _rand_gauss(rng)
        assert x * y == y * x
        assert (x + y) * z == x * z + y * z
        assert x * (y * z) == (x * y) * z
        for got in (x + y, x - y, -x, x * y, x.conjugate()):
            _assert_canonical(got)


def test_gauss_sqrt5_conjugation_is_multiplicative():
    rng = random.Random(13)
    for _ in range(100):
        x, y = _rand_gauss(rng), _rand_gauss(rng)
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        # x * conj(x) is a nonnegative real element, exactly
        re, im = (x * x.conjugate()).real_imag()
        assert im == 0 and re >= 0


def test_quaternions_are_noncommutative():
    z, o = QSqrt5(0, 0), QSqrt5(1, 0)
    i = Quaternion(z, o, z, z)
    j = Quaternion(z, z, o, z)
    k = Quaternion(z, z, z, o)
    assert i * j == k
    assert j * i == -k
    assert i * i == Quaternion(-o, z, z, z)


def test_quaternion_conjugation_reverses_products():
    rng = random.Random(17)
    for _ in range(60):
        x, y = _rand_quat(rng), _rand_quat(rng)
        assert (x * y).conjugate() == y.conjugate() * x.conjugate()


def test_quaternion_associativity():
    rng = random.Random(19)
    for _ in range(60):
        x, y, z = _rand_quat(rng), _rand_quat(rng), _rand_quat(rng)
        assert (x * y) * z == x * (y * z)


def _agree(values):
    """Every two of the values are == (both ways) and hash alike."""
    for x in values:
        for y in values:
            assert x == y and y == x, (x, y)
            assert hash(x) == hash(y), (x, y)


def test_a_rational_is_one_value_in_every_class():
    # integers, fractions and negatives, some of them with a numerator or
    # denominator past the hash modulus 2**61 - 1
    for val in (Fraction(3, 2), Fraction(0), Fraction(4), Fraction(-7),
                Fraction(-5, 3), Fraction(2 ** 61 - 1, 3),
                Fraction(1, 2 ** 61 - 1), Fraction(-(2 ** 70), 2 ** 61 - 1)):
        z, zq = QSqrt5(0, 0), Fraction(0)
        values = [
            val,
            QSqrt2(val, 0),
            QSqrt5(val, 0),
            GaussSqrt5(val.numerator, 0, 0, 0, val.denominator),
            Quaternion(QSqrt5(val, 0), z, z, z),
            Quaternion(val, zq, zq, zq),
            QSqrt2(val) - QSqrt2(0, 1) + QSqrt2(0, 1),
        ]
        if val.denominator == 1:
            values.append(val.numerator)
        _agree(values)
        assert len(set(values)) == 1
        # the two cross-class identities the canonical point keys rely on
        assert QSqrt2(val, 0) == QSqrt5(val, 0)
        assert hash(Quaternion(val, zq, zq, zq)) == hash(val)


def test_a_sqrt5_value_is_one_value_in_every_class():
    a, b = Fraction(1, 3), Fraction(-2, 3)
    z = QSqrt5(0, 0)
    values = [QSqrt5(a, b), GaussSqrt5(1, -2, 0, 0, 3),
              Quaternion(QSqrt5(a, b), z, z, z)]
    _agree(values)
    assert len(set(values)) == 1


def test_distinct_values_are_distinct_keys():
    rng = random.Random(23)
    seen = {}
    for _ in range(200):
        x = _rand_gauss(rng)
        if x in seen:
            y = seen[x]
            assert (y.a, y.b, y.c, y.d, y.den) == (x.a, x.b, x.c, x.d, x.den)
            assert hash(y) == hash(x)
        seen[x] = x
    # irrational values of different fields, and a non-real quaternion
    # against its real part, are different numbers
    z = QSqrt5(0, 0)
    assert QSqrt2(1, 1) != QSqrt5(1, 1)
    assert QSqrt2(0, 1) != QSqrt5(0, 1)
    assert Quaternion(QSqrt5(1), QSqrt5(1), z, z) != QSqrt5(1)
    assert GaussSqrt5(1, 0, 1, 0, 1) != Quaternion(QSqrt5(1), z, z, z)
    assert len({QSqrt2(1, 1), QSqrt5(1, 1), Fraction(1)}) == 3


def test_ring_of_dispatch():
    assert ring_of(Fraction(1, 2)) is RING_RATIONAL
    assert ring_of(QSqrt2(1, 1)) is RING_QSQRT2
    assert ring_of(GaussSqrt5(1)) is RING_GAUSS_SQRT5
    assert ring_of(_rand_quat(random.Random(0))) is RING_QUAT_SQRT5


def test_json_round_trip_every_ring():
    rng = random.Random(29)
    cases = [
        (Fraction(-7, 3), RING_RATIONAL),
        (_rand_qsqrt2(rng), RING_QSQRT2),
        (_rand_gauss(rng), RING_GAUSS_SQRT5),
        (_rand_quat(rng), RING_QUAT_SQRT5),
    ]
    for x, ring in cases:
        assert scalar_from_json(scalar_to_json(x), ring) == x


def test_json_uses_exact_component_strings():
    x = QSqrt2(Fraction(1, 3), Fraction(-2, 3))
    obj = scalar_to_json(x)
    assert obj == {"a": "1/3", "b": "-2/3"}
    # sorted-by-repr sample draws depend on this exact text
    assert repr(x) == "QSqrt2(1/3, -2/3)"
    assert repr(GaussSqrt5(2, 0, 4, 0, 6)) == "GaussSqrt5(1, 0, 2, 0, 3)"


def test_is_positive_is_exact():
    # 99 - 70 sqrt2 = 1 / (99 + 70 sqrt2), about 0.00505
    x = QSqrt2(99, -70)
    assert x.is_positive()
    assert not (-x).is_positive()
    assert x * QSqrt2(99, 70) == 1
    assert QSqrt5(161, -72).is_positive()  # 161^2 - 5 * 72^2 = 1
    assert not QSqrt5(Fraction(-9, 4), 1).is_positive()
    with pytest.raises(TypeError):
        GaussSqrt5(1, 0, 1, 0).is_positive()


def test_real_quadratic_fields_are_ordered_exactly():
    x = QSqrt2(99, -70)  # about 0.00505, positive
    assert abs(x) == x and abs(-x) == x and abs(QSqrt5(0)) == 0
    assert 0 < Fraction(1, 198) < x < Fraction(1, 197) and -x < 0 <= x
    # a float is no exact scalar: comparing with one is a TypeError
    third = QSqrt5(Fraction(1, 3))
    for compare in (operator.lt, operator.le, operator.gt, operator.ge):
        for x in (1 / 3, math.inf, math.nan):
            with pytest.raises(TypeError):
                compare(third, x)
    assert max(QSqrt5(0, 1), QSqrt5(2), QSqrt5(-3)) == QSqrt5(0, 1)
    with pytest.raises(TypeError):
        QSqrt5(1) < GaussSqrt5(0, 0, 1, 0)


def test_inverse_of_every_quadratic_ring():
    rng = random.Random(31)
    for make in (_rand_qsqrt2, _rand_qsqrt5, _rand_gauss):
        for _ in range(100):
            x = make(rng)
            if not x:
                continue
            inv = x.inverse()
            _assert_canonical(inv)
            assert x * inv == 1
            assert inv * x == 1
            assert 1 / x == inv
    with pytest.raises(ZeroDivisionError):
        GaussSqrt5().inverse()


def test_qsqrt5_and_gauss_sqrt5_mix_in_both_orders():
    rng = random.Random(37)
    for _ in range(50):
        r, g = _rand_qsqrt5(rng), _rand_gauss(rng)
        r_as_g = GaussSqrt5(r.a, r.b, 0, 0, r.den)
        assert r == r_as_g and r_as_g == r
        assert hash(r) == hash(r_as_g)
        for got, want in ((r * g, r_as_g * g), (g * r, g * r_as_g),
                          (r + g, r_as_g + g), (g + r, g + r_as_g),
                          (r - g, r_as_g - g), (g - r, g - r_as_g)):
            assert type(got) is GaussSqrt5
            assert got == want
        if g:
            assert r / g == r_as_g / g
        if r:
            assert g / r == g / r_as_g


def test_copy_and_pickle_rebuild_every_ring():
    import copy
    import pickle
    rng = random.Random(41)
    cases = [QSqrt2(1, 2), QSqrt2(Fraction(-1, 3)), _rand_qsqrt2(rng),
             QSqrt5(Fraction(1, 5), Fraction(2, 5)), _rand_qsqrt5(rng),
             GaussSqrt5(0, 1, 0, 2, 5), GaussSqrt5(3, 0, 0, 0, 6),
             _rand_gauss(rng), _rand_quat(rng)]
    for x in cases:
        for y in (copy.copy(x), copy.deepcopy(x),
                  pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x)
            assert y == x
            assert hash(y) == hash(x)
            if not isinstance(x, Quaternion):
                _assert_canonical(y)


def _exact_form(x):
    if isinstance(x, Quaternion):
        return tuple(_exact_form(c) for c in (x.w, x.x, x.y, x.z))
    if isinstance(x, Fraction):
        return (Fraction, x.numerator, x.denominator)
    if isinstance(x, float):
        return (float, x)
    return (type(x), x.a, x.b, x.c, x.d, x.den)


def _ref_quaternion_product(p, q):
    # Hamilton's product, one ``*``/``+``/``-`` per term, left to right
    w1, x1, y1, z1 = p.w, p.x, p.y, p.z
    w2, x2, y2, z2 = q.w, q.x, q.y, q.z
    return Quaternion(w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                      w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                      w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                      w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def _ref_quaternion_times(p, q):
    """p * q by ``_ref_quaternion_product``, a real operand lifted to the
    quaternion r + 0i + 0j + 0k over the other's components."""
    def lift(r, like):
        if isinstance(r, Quaternion):
            return r
        zero = like.w - like.w
        return Quaternion(zero + r, zero, zero, zero)
    return _ref_quaternion_product(lift(p, q), lift(q, p))


def _rand_quat_rational(rng):
    return Quaternion(*(Fraction(rng.randint(-9, 9), rng.randint(1, 7))
                        for _ in range(4)))


def _rand_quat_float(rng):
    return Quaternion(*(rng.uniform(-2, 2) for _ in range(4)))


def _rand_quat_mixed(rng):
    """Components of two classes, read in the class they share."""
    return Quaternion(_rand_qsqrt5(rng), Fraction(rng.randint(-9, 9)),
                      _rand_qsqrt5(rng), _rand_qsqrt5(rng))


@pytest.mark.parametrize("left,right", [
    (_rand_quat_rational, _rand_quat_rational), (_rand_quat, _rand_quat),
    (_rand_quat_rational, _rand_quat), (_rand_quat, _rand_quat_rational),
    (_rand_quat_float, _rand_quat_float), (_rand_quat_mixed, _rand_quat),
], ids=["quat_rational", "quat_sqrt5", "rational*sqrt5", "sqrt5*rational",
        "float", "mixed"])
def test_quaternion_product_matches_the_operator_formula(left, right):
    rng = random.Random(29)
    for _ in range(100):
        p, q = left(rng), right(rng)
        if left is _rand_quat_float:
            # a float quaternion is no exact scalar: the product refuses it
            with pytest.raises(BackendMismatchError, match="is not exact"):
                p * q
            continue
        assert _exact_form(p * q) == _exact_form(_ref_quaternion_product(p, q))


def test_subtraction_is_addition_of_the_negative():
    rng = random.Random(31)
    for _ in range(200):
        g, r, f = _rand_gauss(rng), _rand_qsqrt5(rng), Fraction(
            rng.randint(-9, 9), rng.randint(1, 7))
        for x, y in ((g, r), (r, g), (g, f), (f, g), (r, f), (f, r), (g, g),
                     (r, 2), (2, g)):
            got = x - y
            assert _exact_form(got) == _exact_form(x + (-y))
            if not isinstance(got, Fraction):
                _assert_canonical(got)
        p, q = _rand_quat(rng), _rand_quat(rng)
        assert _exact_form(p - q) == _exact_form(p + (-q))
        assert _exact_form(f - p) == _exact_form(f + (-p))


@pytest.mark.parametrize("xs_kind,f_kind,ys_kind", [
    ("rational", "rational", "rational"), ("gauss", "gauss", "gauss"),
    ("sqrt5", "sqrt5", "sqrt5"), ("rational", "sqrt5", "rational"),
    ("rational", "rational", "gauss"), ("sqrt5", "gauss", "rational"),
    ("gauss", "rational", "sqrt5"), ("quat", "quat", "quat"),
    ("quat_rational", "quat_rational", "quat_rational"),
    ("quat", "rational", "quat"), ("rational", "quat", "quat_rational"),
    ("quat_rational", "quat", "rational"),
])
def test_sub_scaled_matches_the_operator_loop(xs_kind, f_kind, ys_kind):
    rng = random.Random(37)
    make = {"rational": lambda: Fraction(rng.randint(-9, 9),
                                         rng.randint(1, 7)),
            "sqrt5": lambda: _rand_qsqrt5(rng),
            "gauss": lambda: _rand_gauss(rng),
            "quat": lambda: _rand_quat(rng),
            "quat_rational": lambda: _rand_quat_rational(rng)}
    for _ in range(40):
        # zero entries of ys leave the matching entry of xs as it is
        xs = [make[xs_kind]() for _ in range(5)]
        ys = [make[ys_kind]() for _ in range(5)]
        ys[rng.randrange(5)] *= 0
        f = make[f_kind]()
        # a quaternion product by Hamilton's formula on the components
        times = (_ref_quaternion_times if "quat" in f_kind + ys_kind
                 else operator.mul)
        assert [_exact_form(z) for z in sub_scaled(xs, f, ys)] == \
            [_exact_form(x - times(f, y)) for x, y in zip(xs, ys)]
    with pytest.raises(BackendMismatchError, match="is not exact"):
        sub_scaled([1.0], 2.0, [3.0])
    with pytest.raises(BackendMismatchError, match="do not mix"):
        sub_scaled([QSqrt2(1, 1)], Fraction(1), [QSqrt5(1, 1)])
