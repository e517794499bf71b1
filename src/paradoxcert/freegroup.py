"""Matrix realizations of the rank-2 free group.

Three built-in generator pairs, each with exact entries:

* ``so3-ab``    -- rotations by arccos(1/3) about the z and x axes, entries
                   in Q(sqrt2) with denominators 3^|word|
* ``su2-sqrt5`` -- diag((1+2i)/sqrt5, (1-2i)/sqrt5) and the real rotation
                   (1/sqrt5)[[1,-2],[2,1]], entries in Q(sqrt5, i)
* ``sp1-sqrt5`` -- unit quaternions (1+2i)/sqrt5 and (1+2j)/sqrt5

plus block-embedded copies diag(g, I) in any larger dimension. Freeness is
checked by exhaustive exact evaluation of every reduced word up to a length
bound. The scan reads the letter matrices of any pair once as integers over
one common denominator den (a quaternion as the real 4x4 matrix of right
multiplication by it), so a word of length d is trivial iff its integer
product is den**d * I, and each step is one integer dot product per entry.

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
    mat_vec,
    matmul,
    normalize_leading,
)
from .scalars import (
    GaussSqrt5,
    QSqrt2,
    QSqrt5,
    Quaternion,
    integer_forms,
)
from .words import A, IDENTITY, word_text


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


# 1, i, j, k: row e of the real form of a quaternion q holds e * q
_UNITS = tuple(Quaternion(*(Fraction(int(e == c)) for c in range(4)))
               for e in range(4))


def _real_form(m: Matrix):
    """(rows, stride): m over a commutative field, and the stride of the
    rows that determine a product.

    A quaternion entry q becomes the 4x4 block of right multiplication by q
    on components (w, x, y, z), whose row e holds e * q; a product is then
    determined by its rows at e = 1. Any other matrix is its own real form.
    """
    if not isinstance(m[0, 0], Quaternion):
        return m.data, 1
    rows = []
    for row in m.data:
        for e in _UNITS:
            prods = [e * q for q in row]
            rows.append(tuple(c for p in prods for c in (p.w, p.x, p.y, p.z)))
    return rows, 4


def _integer_products(pair: GeneratorPair, max_len: int):
    """(den, ones, products): the freeness scan's integer products.

    The letter matrices of ``pair.root()`` are read once, in real form, as
    integers over one common den by ``integer_forms``. ``products`` yields
    (word, rows) depth first for every nonidentity reduced word of length
    <= max_len: the rows that determine the word's product, times
    den**len(word), as integer forms. ``ones[d]`` holds those rows of
    den**d * I, so a word is trivial iff its rows equal
    ``ones[len(word)]``.
    """
    root = pair.root()
    forms = [_real_form(root.letter_matrix(x)) for x in range(4)]
    size, stride = len(forms[0][0]), forms[0][1]
    ident = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    den, cols, dot = integer_forms(
        [c for rows, _ in forms for c in zip(*rows)] + ident)
    # cols[x]: the columns of letter x, and cols[4] those of den * I
    cols = [cols[k * size:(k + 1) * size] for k in range(5)]
    kept = range(0, size, stride)
    ones = [None, [list(cols[4][i]) for i in kept]]
    while len(ones) <= max_len:
        ones.append([[dot(r, c) for c in cols[4]] for r in ones[-1]])

    def products():
        # depth-first with an explicit stack; it never exceeds ~3 * max_len
        stack = [([[c[i] for c in cols[x]] for i in kept], (x,))
                 for x in reversed(range(4))] if max_len else []
        while stack:
            m, w = stack.pop()
            yield w, m
            if len(w) < max_len:
                last_inv = w[-1] ^ 1
                for x in reversed(range(4)):
                    if x != last_inv:
                        stack.append(([[dot(r, c) for c in cols[x]]
                                       for r in m], w + (x,)))

    return den, ones, products()


def check_freeness(pair: GeneratorPair, max_len: int) -> dict:
    """Evaluate every nonidentity reduced word of length <= max_len exactly.

    Passes when none evaluates to the identity. The word count is always
    2 * 3**max_len - 2 (the ball minus the empty word), so none at
    max_len = 0; a negative max_len raises ValueError, as in
    ``ball_products``.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    start = time.monotonic()
    counterexample = None
    checked = 0
    _, ones, products = _integer_products(pair, max_len)
    for w, m in products:
        checked += 1
        if m == ones[len(w)]:
            counterexample = w
            break
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
    levels = []
    current = [tuple(v) for v in lines]
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
