"""Matrix realizations of the rank-2 free group.

Three built-in generator pairs, each with exact entries:

* ``so3-ab``    -- rotations by arccos(1/3) about the z and x axes, entries
                   in Q(sqrt2) with denominators 3^|word|
* ``su2-sqrt5`` -- diag((1+2i)/sqrt5, (1-2i)/sqrt5) and the real rotation
                   (1/sqrt5)[[1,-2],[2,1]], entries in Q(sqrt5, i)
* ``sp1-sqrt5`` -- unit quaternions (1+2i)/sqrt5 and (1+2j)/sqrt5

plus block-embedded copies diag(g, I) in any larger dimension. Freeness is
checked by exhaustive exact evaluation of every reduced word up to a length
bound; integer fast paths keep that affordable at length 10.

``ball_products`` walks a ball of words with their exact products, each
built from its prefix's product and one letter matrix; the exceptional set
and the verifier's absorber-is-not-a-pair-word scan read it.
"""

from __future__ import annotations

import time
from fractions import Fraction

from .errors import ParadoxError
from .linalg import (
    Matrix,
    block_embed_matrix,
    kernel,
    matmul,
    normalize_leading,
)
from .scalars import (
    GaussSqrt5,
    QSqrt2,
    QSqrt5,
    Quaternion,
    RING_GAUSS_SQRT5,
    RING_QSQRT2,
    RING_RATIONAL,
)
from .words import A, A_INV, B, B_INV, IDENTITY, word_text


class GeneratorPair:
    """A pair of exact unitary matrices expected to generate a free group."""

    def __init__(self, name, kind, dim, letter_matrices, group_family,
                 field, base=None):
        self.name = name
        self.kind = kind          # so3 | su2 | sp1 | embedded
        self.dim = dim
        self._mats = letter_matrices  # tuple indexed by letter
        self.group_family = group_family  # SO | U | Sp
        self.field = field        # R | C | H
        self.base = base          # underlying pair for embedded copies

    def letter_matrix(self, letter: int) -> Matrix:
        return self._mats[letter]

    def block_embedded(self, n: int) -> "GeneratorPair":
        if n == self.dim:
            return self
        if n < self.dim:
            raise ParadoxError("cannot embed into a smaller dimension")
        mats = tuple(block_embed_matrix(m, n) for m in self._mats)
        return GeneratorPair(
            f"{self.name}@{n}", "embedded", n, mats,
            self.group_family, self.field, base=self)

    def root(self) -> "GeneratorPair":
        return self.base.root() if self.base is not None else self

    def __repr__(self):
        return f"GeneratorPair({self.name})"


def _so3_pair() -> GeneratorPair:
    f = Fraction
    q = lambda a, b=0: QSqrt2(a, b)
    third = f(1, 3)
    mat_a = Matrix([
        (q(third), q(0, -2 * third), q(0)),
        (q(0, 2 * third), q(third), q(0)),
        (q(0), q(0), q(1)),
    ])
    mat_b = Matrix([
        (q(1), q(0), q(0)),
        (q(0), q(third), q(0, -2 * third)),
        (q(0), q(0, 2 * third), q(third)),
    ])
    # orthogonal with real entries: inverse = transpose
    return GeneratorPair(
        "so3-ab", "so3", 3,
        (mat_a, mat_a.transpose(), mat_b, mat_b.transpose()),
        "SO", "R")


def _su2_pair() -> GeneratorPair:
    g = GaussSqrt5
    # (1+2i)/sqrt5 = (sqrt5 + 2 sqrt5 i)/5
    ua = Matrix([
        (g(0, 1, 0, 2, 5), g()),
        (g(), g(0, 1, 0, -2, 5)),
    ])
    ub = Matrix([
        (g(0, 1, 0, 0, 5), g(0, -2, 0, 0, 5)),
        (g(0, 2, 0, 0, 5), g(0, 1, 0, 0, 5)),
    ])
    from .linalg import conj_transpose
    return GeneratorPair(
        "su2-sqrt5", "su2", 2,
        (ua, conj_transpose(ua), ub, conj_transpose(ub)),
        "U", "C")


def _sp1_pair() -> GeneratorPair:
    s = lambda a, b=0: QSqrt5(a, b)
    fifth = Fraction(1, 5)
    qa = Quaternion(s(0, fifth), s(0, 2 * fifth), s(0), s(0))
    qb = Quaternion(s(0, fifth), s(0), s(0, 2 * fifth), s(0))
    ma = Matrix([(qa,)])
    mb = Matrix([(qb,)])
    return GeneratorPair(
        "sp1-sqrt5", "sp1", 1,
        (ma, Matrix([(qa.conjugate(),)]), mb, Matrix([(qb.conjugate(),)])),
        "Sp", "H")


_PAIRS = {}


def get_pair(name: str) -> GeneratorPair:
    """Look up a generator pair: so3-ab, su2-sqrt5, sp1-sqrt5, or name@n."""
    if not _PAIRS:
        for p in (_so3_pair(), _su2_pair(), _sp1_pair()):
            _PAIRS[p.name] = p
    if name in _PAIRS:
        return _PAIRS[name]
    if "@" in name:
        base, _, n = name.partition("@")
        return get_pair(base).block_embedded(int(n))
    raise ParadoxError(
        f"unknown generator pair {name!r}: "
        f"expected one of {sorted(_PAIRS)} or '<pair>@<dim>'")


PAIR_NAMES = ("so3-ab", "su2-sqrt5", "sp1-sqrt5")


def evaluate(word, pair: GeneratorPair) -> Matrix:
    """Exact product of letter matrices; empty word gives the identity."""
    ring = pair.letter_matrix(A).scalar_ring()
    out = Matrix.identity(pair.dim, ring)
    for x in word:
        out = matmul(out, pair.letter_matrix(x))
    return out


def ball_products(pair: GeneratorPair, max_len: int):
    """(word, exact product) for every reduced word of length <= max_len.

    Words come in ``enumerate_ball`` order. Each product is its prefix's
    product times one letter matrix, the same multiplications ``evaluate``
    makes, and only the products of the previous length are kept.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    ring = pair.letter_matrix(A).scalar_ring()
    frontier = [(IDENTITY, Matrix.identity(pair.dim, ring))]
    yield frontier[0]
    for length in range(1, max_len + 1):
        nxt = []
        for w, m in frontier:
            for x in range(4):
                if w and x == (w[-1] ^ 1):
                    continue
                item = (w + (x,), matmul(m, pair.letter_matrix(x)))
                if length < max_len:
                    nxt.append(item)
                yield item
        frontier = nxt


# ---------------------------------------------------------------------------
# Integer fast paths for the freeness scan.
#
# so3-ab: entries are pairs (p, q) = p + q sqrt2 with implicit denominator
# 3^depth; generator matrices are stored pre-scaled by 3.
# su2-sqrt5: entries are quadruples (a, b, c, d) = a + b sqrt5 + (c+d sqrt5)i
# with implicit denominator sqrt5^depth; generators pre-scaled by sqrt5.
# sp1-sqrt5: quaternions with components (p, q) = p + q sqrt5 over
# sqrt5^depth.
#
# Identity tests need no normalization: e.g. (p + q sqrt2)/3^d = 1 iff q = 0
# and p = 3^d.
# ---------------------------------------------------------------------------

_SO3_GEN = {
    A: (((1, 0), (0, -2), (0, 0)),
        ((0, 2), (1, 0), (0, 0)),
        ((0, 0), (0, 0), (3, 0))),
    B: (((3, 0), (0, 0), (0, 0)),
        ((0, 0), (1, 0), (0, -2)),
        ((0, 0), (0, 2), (1, 0))),
}
_SO3_GEN[A_INV] = tuple(zip(*_SO3_GEN[A]))
_SO3_GEN[B_INV] = tuple(zip(*_SO3_GEN[B]))

_SU2_GEN = {
    A: (((1, 0, 2, 0), (0, 0, 0, 0)),
        ((0, 0, 0, 0), (1, 0, -2, 0))),
    B: (((1, 0, 0, 0), (-2, 0, 0, 0)),
        ((2, 0, 0, 0), (1, 0, 0, 0))),
}
_SU2_GEN[A_INV] = (((1, 0, -2, 0), (0, 0, 0, 0)),
                   ((0, 0, 0, 0), (1, 0, 2, 0)))
_SU2_GEN[B_INV] = (((1, 0, 0, 0), (2, 0, 0, 0)),
                   ((-2, 0, 0, 0), (1, 0, 0, 0)))

_SP1_GEN = {
    A: ((1, 0), (2, 0), (0, 0), (0, 0)),
    A_INV: ((1, 0), (-2, 0), (0, 0), (0, 0)),
    B: ((1, 0), (0, 0), (2, 0), (0, 0)),
    B_INV: ((1, 0), (0, 0), (-2, 0), (0, 0)),
}


def _mul_so3(m1, m2):
    out = []
    for i in range(3):
        r = m1[i]
        row = []
        for j in range(3):
            p = q = 0
            for k in range(3):
                p1, q1 = r[k]
                p2, q2 = m2[k][j]
                p += p1 * p2 + 2 * q1 * q2
                q += p1 * q2 + q1 * p2
            row.append((p, q))
        out.append(tuple(row))
    return tuple(out)


def _ident_so3(m, depth):
    scale = 3 ** depth
    for i in range(3):
        for j in range(3):
            p, q = m[i][j]
            if q != 0 or p != (scale if i == j else 0):
                return False
    return True


def _mul_entry_su2(e1, e2):
    a1, b1, c1, d1 = e1
    a2, b2, c2, d2 = e2
    return (a1 * a2 + 5 * b1 * b2 - c1 * c2 - 5 * d1 * d2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + 5 * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2)


def _mul_su2(m1, m2):
    out = []
    for i in range(2):
        row = []
        for j in range(2):
            x = _mul_entry_su2(m1[i][0], m2[0][j])
            y = _mul_entry_su2(m1[i][1], m2[1][j])
            row.append(tuple(u + v for u, v in zip(x, y)))
        out.append(tuple(row))
    return tuple(out)


def _sqrt5_power_quad(depth):
    if depth % 2 == 0:
        return (5 ** (depth // 2), 0, 0, 0)
    return (0, 5 ** ((depth - 1) // 2), 0, 0)


def _ident_su2(m, depth):
    one = _sqrt5_power_quad(depth)
    return (m[0][1] == (0, 0, 0, 0) and m[1][0] == (0, 0, 0, 0)
            and m[0][0] == one and m[1][1] == one)


def _mul_pair5(e1, e2):
    p1, q1 = e1
    p2, q2 = e2
    return (p1 * p2 + 5 * q1 * q2, p1 * q2 + q1 * p2)


def _mul_sp1(x, y):
    w1, x1, y1, z1 = x
    w2, x2, y2, z2 = y
    def m(u, v):
        return _mul_pair5(u, v)
    def add(*ts):
        p = q = 0
        for (u, v) in ts:
            p += u
            q += v
        return (p, q)
    def neg(t):
        return (-t[0], -t[1])
    return (
        add(m(w1, w2), neg(m(x1, x2)), neg(m(y1, y2)), neg(m(z1, z2))),
        add(m(w1, x2), m(x1, w2), m(y1, z2), neg(m(z1, y2))),
        add(m(w1, y2), neg(m(x1, z2)), m(y1, w2), m(z1, x2)),
        add(m(w1, z2), m(x1, y2), neg(m(y1, x2)), m(z1, w2)),
    )


def _ident_sp1(m, depth):
    if depth % 2 == 0:
        one = (5 ** (depth // 2), 0)
    else:
        one = (0, 5 ** ((depth - 1) // 2))
    zero = (0, 0)
    return m == (one, zero, zero, zero)


_FAST = {
    "so3": (_SO3_GEN, _mul_so3, _ident_so3),
    "su2": (_SU2_GEN, _mul_su2, _ident_su2),
    "sp1": (_SP1_GEN, _mul_sp1, _ident_sp1),
}


def check_freeness(pair: GeneratorPair, max_len: int) -> dict:
    """Evaluate every nonidentity reduced word of length <= max_len exactly.

    Passes when none evaluates to the identity. The word count is always
    2 * 3**max_len - 2 (the ball minus the empty word).
    """
    start = time.monotonic()
    root = pair.root()
    counterexample = None
    checked = 0

    if root.kind in _FAST:
        gens, mul, is_ident = _FAST[root.kind]
        step = mul
    else:
        ring = pair.letter_matrix(A).scalar_ring()
        ident_m = Matrix.identity(pair.dim, ring)
        gens = {x: pair.letter_matrix(x) for x in range(4)}
        step = matmul
        is_ident = lambda m, depth: m == ident_m

    # depth-first with an explicit stack; it never exceeds ~3 * max_len
    stack = [(gens[x], 1, (x,)) for x in reversed(range(4))]
    while stack:
        m, depth, w = stack.pop()
        checked += 1
        if is_ident(m, depth):
            counterexample = w
            break
        if depth < max_len:
            last_inv = w[-1] ^ 1
            for x in reversed(range(4)):
                if x != last_inv:
                    stack.append((step(m, gens[x]), depth + 1, w + (x,)))

    return {
        "pair": pair.name,
        "max_len": max_len,
        "words_checked": checked,
        "ok": counterexample is None,
        "counterexample": (word_text(counterexample)
                           if counterexample else None),
        "elapsed_s": round(time.monotonic() - start, 3),
    }


def _require_so3(pair: GeneratorPair):
    if pair.root().kind != "so3":
        raise ParadoxError("axes are defined for the so3 pair only")


def _fixed_line(m: Matrix, word):
    """Fixed line of the nonidentity rotation m = word, leading-1 canonical."""
    fixed = kernel(m - Matrix.identity(m.rows, m.scalar_ring()))
    if len(fixed) != 1:
        raise ParadoxError(
            f"word {word_text(word)} fixes a {len(fixed)}-dimensional space")
    return normalize_leading(fixed[0])


def axis_of(word, pair: GeneratorPair):
    """Fixed line of a nonidentity rotation word, leading-1 canonical.

    Only meaningful for 3x3 real pairs: the fixed space of a nonidentity
    special orthogonal 3x3 matrix is exactly one line.
    """
    _require_so3(pair)
    if not word:
        raise ParadoxError("the identity word fixes everything")
    return _fixed_line(evaluate(word, pair), word)


def exceptional_set(pair: GeneratorPair, max_len: int) -> frozenset:
    """Canonical fixed lines of all nonidentity words of length <= max_len."""
    _require_so3(pair)
    return frozenset(_fixed_line(m, w)
                     for w, m in ball_products(pair, max_len) if w)


def default_absorber() -> Matrix:
    """Rational rotation about (1, 2, 3) with cosine -5/9.

    Infinite order (a rational cosine other than 0, +-1/2, +-1 belongs to an
    irrational angle), and its axis avoids the small-depth exceptional sets.
    Membership outside the generator subgroup is re-checked to a finite word
    depth during verification. Rotations about the more symmetric (1, 1, 1)
    axis fail the power-disjointness check: the exceptional set is invariant
    under the cyclic coordinate rotation, which creates equal-latitude axis
    pairs that rational-angle rotations about (1, 1, 1) hit exactly.
    """
    f = Fraction
    return Matrix([
        (f(-4, 9), f(-4, 9), f(7, 9)),
        (f(8, 9), f(-1, 9), f(4, 9)),
        (f(-1, 9), f(8, 9), f(4, 9)),
    ])


def plane_rotation(n: int, i: int, j: int) -> Matrix:
    """Rational rotation by arccos(3/5) in the (i, j) coordinate plane."""
    f = Fraction
    rows = [[f(1) if r == c else f(0) for c in range(n)] for r in range(n)]
    rows[i][i] = f(3, 5)
    rows[j][j] = f(3, 5)
    rows[i][j] = f(-4, 5)
    rows[j][i] = f(4, 5)
    return Matrix(tuple(tuple(r) for r in rows))


def absorber_check(g: Matrix, lines, bound: int) -> dict:
    """Check g^m(D) and g^n(D) are disjoint for all 0 <= m < n <= bound.

    ``lines`` is an iterable of canonical line vectors (the finite stand-in
    for the removed set D). Disjointness is tested literally on hashed
    canonical forms of every power image. The result's ``levels[k]`` is the
    set of those forms for g^k(D), so callers can index the orbit without
    computing it again.
    """
    base = list(lines)
    ring = g.scalar_ring()
    from .linalg import lift_vector, mat_vec
    vecs = [lift_vector(v, ring) if ring.name != "rational" else v
            for v in base]
    levels = []
    current = [tuple(v) for v in vecs]
    for _ in range(bound + 1):
        levels.append(frozenset(normalize_leading(v) for v in current))
        current = [mat_vec(g, v) for v in current]
    collision = None
    for m in range(bound + 1):
        if collision:
            break
        for n in range(m + 1, bound + 1):
            if levels[m] & levels[n]:
                collision = (m, n)
                break
    return {
        "bound": bound,
        "set_size": len(levels[0]),
        "ok": collision is None,
        "first_collision": collision,
        "levels": levels,
    }
