"""Free generator pairs, exact freeness scans, axes, and the absorber."""

from fractions import Fraction

import pytest

from paradoxcert.errors import BackendMismatchError, ParadoxError
from paradoxcert.freegroup import (
    _LEFT,
    _RIGHT,
    GeneratorPair,
    IntegerReader,
    _integer_products,
    absorber_check,
    axis_of,
    check_freeness,
    default_absorber,
    evaluate,
    exceptional_set,
    get_pair,
    pair_word_scan,
    plane_rotation,
)
from paradoxcert.linalg import (
    Matrix,
    is_unitary,
    mat_vec,
    matmul,
    normalize_leading,
)
from paradoxcert.scalars import (
    RING_RATIONAL,
    GaussSqrt5,
    QSqrt2,
    QSqrt5,
    Quaternion,
)
from paradoxcert.words import ball_size, enumerate_ball, parse_word, word_text

PAIRS = ("so3-ab", "su2-sqrt5", "sp1-sqrt5", "so3-su2", "so5-sp1")

# the pairs the stereographic charts induce: name -> (field, parent pair)
INDUCED = {"so3-su2": ("C", "su2-sqrt5"), "so5-sp1": ("H", "sp1-sqrt5@2")}


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


def test_freeness_at_length_zero_scans_no_word():
    result = check_freeness(get_pair("so3-ab"), 0)
    assert result["words_checked"] == 0 == 2 * 3 ** 0 - 2
    assert result["ok"]
    with pytest.raises(ValueError):
        check_freeness(get_pair("so3-ab"), -1)


def test_freeness_of_block_embedded_pair():
    result = check_freeness(get_pair("so3-ab@4"), 3)
    assert result["ok"], result


def _quarter_turn_pair(kind):
    """a: the quarter-turn about z (a^4 = I); b: the 3/5, 4/5 rotation
    about x."""
    f = Fraction
    a = Matrix([(f(0), f(-1), f(0)), (f(1), f(0), f(0)), (f(0), f(0), f(1))])
    b = Matrix([(f(1), f(0), f(0)), (f(0), f(3, 5), f(-4, 5)),
                (f(0), f(4, 5), f(3, 5))])
    return GeneratorPair("quarter", kind, 3,
                         (a, a.transpose(), b, b.transpose()))


@pytest.mark.parametrize("kind", ["so3", "rational"])
def test_freeness_scans_the_pair_itself_whatever_its_kind(kind):
    result = check_freeness(_quarter_turn_pair(kind), 5)
    assert not result["ok"]
    assert result["counterexample"] == "aaaa"
    assert result["words_checked"] == 4


def _dot(reader, r, m, side):
    """The exact scalars of r M (side ``_RIGHT``, m the integer columns of
    M) or M r (side ``_LEFT``, m the integer rows of M) for the integer
    vector r, both read over ``reader.den``."""
    blocks = reader.blocks(m, side)
    return reader.entries([sum(a * b for a, b in zip(r, c)) for c in blocks],
                          reader.den ** 2)


def test_the_integer_reader_lifts_to_one_field_and_reads_back():
    f = Fraction
    vectors = [(f(1, 2), QSqrt5(0, f(1, 3))),
               (GaussSqrt5(1, 0, 2, 0, 5), f(-1))]
    reader = IntegerReader(vectors)
    assert (reader.den, reader.width, reader.size) == (30, 4, 4)
    assert reader.vectors == [(15, 0, 0, 0, 0, 10, 0, 0),
                              (6, 0, 12, 0, -30, 0, 0, 0)]
    # 1/2 * (1 + 2i)/5 + sqrt5/3 * -1, as a row times a column and as a
    # matrix times a vector
    want = f(1, 2) * GaussSqrt5(1, 0, 2, 0, 5) - QSqrt5(0, f(1, 3))
    first, second = reader.vectors
    assert _dot(reader, first, [second], _RIGHT) == [want]
    assert _dot(reader, second, [first], _LEFT) == [want]
    # entries inverts the reading, in the class the vectors mix to
    back = [reader.entries(v, reader.den) for v in reader.vectors]
    assert back == [list(v) for v in vectors]
    assert {type(x) for v in back for x in v} == {GaussSqrt5}
    reader = IntegerReader([(f(1, 2), f(2, 3)), (f(3), f(-1))])
    assert (reader.den, reader.vectors) == (6, [(3, 4), (18, -6)])
    first, second = reader.vectors
    assert _dot(reader, first, [second], _RIGHT) == [f(5, 6)]
    for bad in ([(QSqrt2(0, 1), QSqrt5(0, 1))], [(f(1), 0.5)]):
        with pytest.raises(BackendMismatchError):
            IntegerReader(bad)


def test_the_integer_reader_multiplies_quaternions_on_either_side():
    # p q and q p differ; the left blocks of p and the right blocks of q
    # both give p q
    s = lambda a, b=0: QSqrt5(Fraction(a), Fraction(b))
    p = Quaternion(s(1, 2), s(Fraction(1, 3)), s(0, -1), s(2))
    q = Quaternion(s(0, 1), s(-1), s(Fraction(2, 7), 1), s(0, 3))
    reader = IntegerReader([(p,), (q,)])
    assert (reader.quaternionic, reader.size) == (True, 8)
    vp, vq = reader.vectors
    assert _dot(reader, vq, [vp], _LEFT) == [p * q]
    assert _dot(reader, vp, [vq], _RIGHT) == [p * q]
    assert p * q != q * p


def _width(pair):
    """The integers an entry (or quaternion part) of the pair's field takes:
    1 over Q, 2 over a real quadratic field, 4 over Q(sqrt5, i)."""
    x = pair.root().letter_matrix(0)[0, 0]
    x = x.w if isinstance(x, Quaternion) else x
    return 1 if isinstance(x, Fraction) else 4 if x.HAS_I else 2


def _flat_rows(m, n, width):
    """m's rows over the denominator n, each one flat integer tuple: per
    entry (per quaternion part w, x, y, z) its first ``width`` components
    over 1, sqrt(D), i, sqrt(D) i."""
    out = []
    for row in m.data:
        flat = []
        for x in row:
            for p in ((x.w, x.x, x.y, x.z) if isinstance(x, Quaternion)
                      else (x,)):
                comps, d = ((p.numerator, 0, 0, 0), p.denominator) \
                    if isinstance(p, Fraction) else ((p.a, p.b, p.c, p.d),
                                                     p.den)
                assert n % d == 0
                flat.extend(c * (n // d) for c in comps[:width])
        out.append(tuple(flat))
    return out


@pytest.mark.parametrize("name", PAIRS + ("so3-ab@4", "sp1-sqrt5@2"))
def test_the_integer_scan_is_den_powers_times_the_exact_products(name):
    pair = get_pair(name)
    root = pair.root()
    width = _width(pair)
    ident = Matrix.identity(root.dim, root.letter_matrix(0).scalar_ring())
    target = evaluate(parse_word("aB"), root)
    for g in (None, target):
        want = ident if g is None else g
        den, one, times_g, products, exact = _integer_products(pair, 5, g)
        assert one == _flat_rows(ident, 1, width)
        seen = []
        for w, rows in products:
            seen.append(w)
            product = evaluate(w, root)
            n = den ** len(w)
            assert rows == _flat_rows(product, n, width), (name, w)
            assert exact(rows, len(w)) == evaluate(w, pair), (name, w)
            assert times_g(rows) == _flat_rows(matmul(product, want),
                                               n * den, width), (name, w)
        # depth first is tuple order
        assert seen == sorted(w for w in enumerate_ball(5) if w)


def _degenerate_pair(name):
    """A rational pair that is not free: the quarter turn pair, its letters
    swapped, b = a^2 for the quarter turn a, or a = b q for the quarter
    turn q."""
    quarter = _quarter_turn_pair("rational")
    q, r = quarter.letter_matrix(0), quarter.letter_matrix(2)
    a, b = {"quarter": (q, r), "swapped": (r, q), "b=a^2": (q, matmul(q, q)),
            "a=bq": (matmul(r, q), r)}[name]
    return GeneratorPair(name, "rational", 3,
                         (a, a.transpose(), b, b.transpose()))


def _depth_first_freeness(pair, max_len):
    """check_freeness, less elapsed_s, by the depth-first integer walk
    over every word of the ball: the first word whose rows are those of
    den**len(word) * I, and the count of words walked up to it."""
    root = pair.root()
    ident = Matrix.identity(root.dim, root.letter_matrix(0).scalar_ring())
    den, _, _, products, _ = _integer_products(pair, max_len)
    checked, counterexample = 0, None
    for w, rows in products:
        checked += 1
        if rows == _flat_rows(ident, den ** len(w), _width(pair)):
            counterexample = w
            break
    return {"pair": pair.name, "max_len": max_len, "words_checked": checked,
            "ok": counterexample is None,
            "counterexample": counterexample and word_text(counterexample)}


@pytest.mark.parametrize("name", PAIRS + ("so3-ab@4", "sp1-sqrt5@2",
                                          "quarter", "swapped", "b=a^2",
                                          "a=bq"))
def test_freeness_equals_the_depth_first_walk(name):
    pair = get_pair(name) if "-" in name else _degenerate_pair(name)
    for max_len in range(8):
        result = check_freeness(pair, max_len)
        del result["elapsed_s"]
        assert result == _depth_first_freeness(pair, max_len)
    assert result["ok"] == ("-" in name)


def _ball_products(pair, max_len):
    """{word: its exact product} over the ball, breadth first."""
    out = {}
    for w in enumerate_ball(max_len):
        out[w] = (matmul(out[w[:-1]], pair.letter_matrix(w[-1])) if w else
                  Matrix.identity(pair.dim, RING_RATIONAL))
    return out


@pytest.mark.parametrize("name", ["so3-ab", "quarter"])
def test_the_pair_word_scan_equals_a_brute_force_over_the_ball(name):
    pair = get_pair(name) if "-" in name else _degenerate_pair(name)
    products = _ball_products(pair, 6)
    if name == "so3-ab":
        targets = [evaluate(parse_word(w), pair) for w in (
            "e", "b", "aB", "Aba", "abAB", "bbAba", "aBabAb")]
        targets.append(default_absorber())
    else:
        targets = [evaluate(parse_word("aa"), pair)]
    targets.append(Matrix.identity(3, RING_RATIONAL))
    for g in targets:
        for max_len in range(7):
            hits = [word_text(w) for w, m in products.items()
                    if len(w) <= max_len and m == g]
            assert pair_word_scan(pair, max_len, g) == (ball_size(max_len),
                                                        hits)


def test_the_freeness_proof_walks_only_the_half_ball(monkeypatch):
    from paradoxcert import freegroup
    walked = []
    real = freegroup._integer_products

    def counting(*args):
        den, one, times_g, products, exact = real(*args)
        return den, one, times_g, ((walked.append(w), (w, rows))[1]
                                   for w, rows in products), exact

    monkeypatch.setattr(freegroup, "_integer_products", counting)
    assert check_freeness(get_pair("so3-ab"), 10)["words_checked"] == 118096
    assert 0 < len(walked) <= ball_size(5) - 1 == 484


def _written_over(m, cls):
    """m with each rational entry written over the field class cls."""
    return Matrix([[cls(x) for x in r] for r in m.data])


def test_the_pair_word_scan_finds_g_among_the_ball():
    from paradoxcert.scalars import RING_QSQRT5, QSqrt2, QSqrt5
    pair = get_pair("so3-ab")
    as_qsqrt5 = lambda m: _written_over(m, QSqrt5)
    assert pair_word_scan(pair, 4, evaluate(parse_word("abAb"), pair)) \
        == (161, ["abAb"])
    assert pair_word_scan(pair, 6, Matrix.identity(3, RING_QSQRT5)) \
        == (1457, ["e"])
    # a rational absorber written over Q(sqrt5), whose irrationals do not
    # mix with Q(sqrt2), is read as the rationals it holds
    assert pair_word_scan(pair, 4, as_qsqrt5(default_absorber())) \
        == (161, [])
    # an irrational of Q(sqrt5) lies in no word of so3-ab
    root5 = Matrix([[QSqrt5(0, 1) if i == j else QSqrt5(0)
                     for j in range(3)] for i in range(3)])
    assert pair_word_scan(pair, 4, root5) == (161, [])
    # a^2 = A^2 for the quarter turn, here written over Q(sqrt2): the
    # rational a^2 written over Q(sqrt5) is found, in enumerate_ball order
    rational = _quarter_turn_pair("so3")
    quarter = GeneratorPair("quarter", "so3", 3, tuple(
        _written_over(rational.letter_matrix(x), QSqrt2) for x in range(4)))
    a2 = as_qsqrt5(evaluate(parse_word("aa"), rational))
    assert pair_word_scan(quarter, 3, a2) == (53, ["aa", "AA"])


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


def _brute_force_index(g, lines, bound):
    """({leading-1 line: least k <= bound with it in g^k(D)}, the first
    colliding pair), by exact ``mat_vec`` and ``normalize_leading``."""
    index, collision = {}, None
    current = [tuple(v) for v in lines]
    for k in range(bound + 1):
        for v in current:
            if index.setdefault(normalize_leading(v), k) < k \
                    and collision is None:
                collision = (0, k)
        current = [mat_vec(g, v) for v in current]
    return index, collision


def _pole(n):
    return [tuple(Fraction(int(i == n - 1)) for i in range(n))]


def _absorber_of(desc):
    from paradoxcert.certificates import derive
    return derive(desc).params["absorber"]


def _gauss_axis_absorber():
    """diag((1+2i)/sqrt5, b) on C^3, b the real letter of su2-sqrt5."""
    from paradoxcert.scalars import GaussSqrt5
    pair = get_pair("su2-sqrt5")
    a, b = pair.letter_matrix(0), pair.letter_matrix(2)
    zero = GaussSqrt5()
    return Matrix([(a[0, 0], zero, zero), (zero, b[0, 0], b[0, 1]),
                   (zero, b[1, 0], b[1, 1])])


def _quaternion_pole_absorber(q):
    """diag(q, i, 1) times the 3/5, 4/5 rotation of coordinates 0 and 2."""
    one = q * q.conjugate()
    zero, i = one - one, Quaternion(*(one.w * c for c in (0, 1, 0, 0)))
    r = plane_rotation(3, 0, 2)
    return Matrix([[q * r[0, 0], zero, q * r[0, 2]], [zero, i, zero],
                   [one * r[2, 0], zero, one * r[2, 2]]])


def _case(name):
    half = Fraction(1, 2)
    so3_d = sorted(exceptional_set(get_pair("so3-ab"), 4), key=repr)
    if name == "default":
        return default_absorber(), so3_d
    if name == "identity":
        return Matrix.identity(3, RING_RATIONAL), so3_d
    if name == "quarter-turn":   # about (2, 3, 6)/7
        return Matrix([[Fraction(x, 49) for x in row] for row in (
            (4, -36, 33), (48, 9, 4), (-9, 32, 36))]), so3_d
    if name in ("sphere(3)", "sphere(4)", "proj(C,3)"):
        g = _absorber_of(name)
        return g, _pole(g.rows)
    if name == "gauss_sqrt5":
        return _gauss_axis_absorber(), _pole(3)
    if name == "quat_rational":
        return _quaternion_pole_absorber(Quaternion(half, half, half, half)), \
            _pole(3)
    q = get_pair("sp1-sqrt5").letter_matrix(0)[0, 0]
    return _quaternion_pole_absorber(q), _pole(3)


@pytest.mark.parametrize("name,collision", [
    ("default", None), ("identity", (0, 1)), ("quarter-turn", (0, 2)),
    ("sphere(3)", None), ("sphere(4)", None), ("proj(C,3)", None),
    ("gauss_sqrt5", None), ("quat_rational", None), ("quat_sqrt5", None)])
def test_the_absorber_index_is_the_exact_orbit(name, collision):
    g, lines = _case(name)
    assert is_unitary(g)
    result = absorber_check(g, lines, 50)
    index, first = _brute_force_index(g, lines, 50)
    assert first == collision
    keys = result["keys"]
    assert result["index"] == {keys.key(v): k for v, k in index.items()}
    assert result["first_collision"] == collision
    assert result["ok"] == (collision is None)


def test_a_line_outside_the_index_field_has_no_key():
    from paradoxcert.scalars import GaussSqrt5, QSqrt2, QSqrt5
    one, zero = Fraction(1), Fraction(0)
    rational = absorber_check(*_case("sphere(3)"), 5)["keys"]
    assert rational.key((zero, zero, QSqrt2(0), QSqrt2(2))) == rational.key(
        _pole(4)[0])
    assert rational.key((zero, zero, QSqrt2(0, 1), one)) is None
    assert rational.key((zero, zero, 0.5, one)) is None
    assert rational.key((zero, zero, Quaternion(zero, one, zero, zero),
                         one)) is None
    so3 = absorber_check(*_case("default"), 5)["keys"]
    assert so3.key((one, QSqrt5(0, 1), zero)) is None
    assert so3.key((one, QSqrt5(3), zero)) == so3.key(
        (Fraction(1, 3), one, zero))
    quaternionic = absorber_check(*_case("quat_sqrt5"), 5)["keys"]
    assert quaternionic.key((zero, GaussSqrt5(0, 0, 1), one)) is None
    assert quaternionic.key((zero, QSqrt5(0, 1), one)) is not None


@pytest.mark.parametrize("name", sorted(INDUCED))
def test_an_induced_pair_is_the_chart_image_of_its_parent(name):
    from paradoxcert.equimaps import induced_rotation
    field, parent = INDUCED[name]
    pair, parent = get_pair(name), get_pair(parent)
    for x in range(4):
        assert pair.letter_matrix(x) == induced_rotation(
            field, parent.letter_matrix(x))
    result = check_freeness(pair, 10)
    assert result["ok"] and result["words_checked"] == 118096


def test_the_default_absorber_keeps_the_axes_of_so3_su2_apart():
    lines = exceptional_set(get_pair("so3-su2"), 4)
    assert len(lines) == 66
    result = absorber_check(default_absorber(), lines, 50)
    assert result["ok"] and result["set_size"] == 66
