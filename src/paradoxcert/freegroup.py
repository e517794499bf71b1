"""Matrix realizations of the rank-2 free group.

Three built-in generator pairs, each with exact entries:

* ``so3-ab``    -- rotations by arccos(1/3) about the z and x axes, entries
                   in Q(sqrt2) with denominators 3^|word|
* ``su2-sqrt5`` -- diag((1+2i)/sqrt5, (1-2i)/sqrt5) and the real rotation
                   (1/sqrt5)[[1,-2],[2,1]], entries in Q(sqrt5, i)
* ``sp1-sqrt5`` -- unit quaternions (1+2i)/sqrt5 and (1+2j)/sqrt5

plus block-embedded copies diag(g, I) in any larger dimension.

Both integer walks below read exact matrices through one reader,
``IntegerReader``: it reads a set of matrices and vectors once, in the
one field their entries share, as flat integer vectors over one common
denominator den (each entry its integer components, a quaternion those of
w, x, y and z in turn), and turns a matrix into the integer matrix of
multiplying by it on the left or on the right.

Every scan over the words of a ball is one integer walk,
``_integer_products``. It reads the letter matrices a, A, b, B of the root
pair and a target matrix g (default I) once, so the integer rows of a
word of length d are den**d times its matrix, and appending a letter is
one integer dot product per integer of the result, with the columns of
right multiplication by den times the letter. The freeness scan
(g = I) and the absorber-is-not-a-pair-word scan (g = the absorber) walk
only the ball of radius ceil(L / 2) (``_word_hits``): a reduced word of
length <= L equals g iff M(u) g = M(v) for u its first half inverted and
v the rest, so every such word is read off the products the two half
balls share. The exceptional set walks the whole ball and rebuilds each
word's exact product once from its integers to read its fixed axis.

``absorber_check`` walks the absorber orbit of the removed set D as
integers too (``LineKeys``): g and the lines of D are read once, each line
is keyed by its primitive integer representative (the leading-1 vector
over its least denominator), and a step is integer dot products, one
multiplication by the adjugate of the leading entry and one gcd, with no
exact scalar made. The walk indexes the orbit once, as {line key: least k
with the line in g^k(D)}; its disjointness verdict and the verifier's
classification both read that index.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import chain
from operator import mul

from .errors import BackendMismatchError, DimensionMismatchError, ParadoxError
from .linalg import (
    Matrix,
    block_embed_matrix,
    kernel,
    matmul,
    normalize_leading,
)
from .scalars import (
    RING_RATIONAL,
    GaussSqrt5,
    QSqrt2,
    QSqrt5,
    QuadExt,
    Quaternion,
    adjugate,
    common_class,
)
from .words import A, ball_size, inverse_word, reduce, word_text


class GeneratorPair:
    """A pair of exact unitary matrices expected to generate a free group."""

    def __init__(self, name, kind, dim, letter_matrices, base=None):
        self.name = name
        self.kind = kind          # so3 | su2 | sp1 | embedded
        self.dim = dim
        self._mats = letter_matrices  # tuple indexed by letter
        self.base = base          # underlying pair for embedded copies

    def letter_matrix(self, letter: int) -> Matrix:
        return self._mats[letter]

    def block_embedded(self, n: int) -> "GeneratorPair":
        if n == self.dim:
            return self
        if n < self.dim:
            raise ParadoxError("cannot embed into a smaller dimension")
        mats = tuple(block_embed_matrix(m, n) for m in self._mats)
        return GeneratorPair(f"{self.name}@{n}", "embedded", n, mats,
                             base=self)

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
        (mat_a, mat_a.transpose(), mat_b, mat_b.transpose()))


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
        (ua, conj_transpose(ua), ub, conj_transpose(ub)))


def _sp1_pair() -> GeneratorPair:
    s = lambda a, b=0: QSqrt5(a, b)
    fifth = Fraction(1, 5)
    qa = Quaternion(s(0, fifth), s(0, 2 * fifth), s(0), s(0))
    qb = Quaternion(s(0, fifth), s(0), s(0, 2 * fifth), s(0))
    ma = Matrix([(qa,)])
    mb = Matrix([(qb,)])
    return GeneratorPair(
        "sp1-sqrt5", "sp1", 1,
        (ma, Matrix([(qa.conjugate(),)]), mb, Matrix([(qb.conjugate(),)])))


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


def evaluate(word, pair: GeneratorPair) -> Matrix:
    """Exact product of letter matrices; empty word gives the identity."""
    ring = pair.letter_matrix(A).scalar_ring()
    out = Matrix.identity(pair.dim, ring)
    for x in word:
        out = matmul(out, pair.letter_matrix(x))
    return out


def _rational(x):
    """x as a Fraction when its value is rational, else x itself.

    A rational mixes with every pair's field, whatever ring it was written
    over.
    """
    if isinstance(x, Quaternion) and not (x.x or x.y or x.z):
        x = x.w
    if isinstance(x, QuadExt) and not (x.b or x.c or x.d):
        return Fraction(x.a, x.den)
    return x


_ZERO = Fraction(0)

# row r of the multiplication q * v (left) or v * q (right) on the
# components w, x, y, z of v: (index, sign) of the component of q that
# multiplies each component of v
_LEFT = (((0, 1), (1, -1), (2, -1), (3, -1)),
         ((1, 1), (0, 1), (3, -1), (2, 1)),
         ((2, 1), (3, 1), (0, 1), (1, -1)),
         ((3, 1), (2, -1), (1, 1), (0, 1)))
_RIGHT = (((0, 1), (1, -1), (2, -1), (3, -1)),
          ((1, 1), (0, 1), (3, 1), (2, -1)),
          ((2, 1), (3, -1), (0, 1), (1, 1)),
          ((3, 1), (2, 1), (1, -1), (0, 1)))


def _quaternion_parts(x):
    """(w, x, y, z) of a quaternion; any other scalar is (x, 0, 0, 0)."""
    if isinstance(x, Quaternion):
        return x.w, x.x, x.y, x.z
    return x, _ZERO, _ZERO, _ZERO


class IntegerReader:
    """Exact matrices and vectors read once as flat integer vectors.

    The entries share one field K: Q, Q(sqrt2), Q(sqrt5) or Q(sqrt5, i), or
    the quaternions over Q or Q(sqrt5); a rational-valued entry is read as
    the rational it is, whatever ring it was written over. Each entry
    becomes its ``width`` integer components over the basis 1, sqrt(D), i,
    sqrt(D) i, as far as K needs them (over the quaternions those of w, x,
    y and z in turn: ``size`` integers an entry), and a vector the flat
    tuple of its entries' integers. ``vectors`` holds the vectors read,
    all over one common ``den``. ``blocks`` turns the integer rows (or
    columns) of a matrix into the integer matrix of multiplication by it,
    so every product of exact matrices is integer dot products, and
    ``entries`` reads integers back as exact scalars.

    Raises BackendMismatchError when the entries share no such field.
    """

    def __init__(self, vectors):
        vectors = [[_rational(x) for x in v] for v in vectors]
        self.quaternionic = any(isinstance(x, Quaternion)
                                for v in vectors for x in v)
        parts = chain.from_iterable(vectors)
        if self.quaternionic:
            parts = chain.from_iterable(map(_quaternion_parts, parts))
        cls = common_class(parts)
        if self.quaternionic and cls is not Fraction and cls.HAS_I:
            raise BackendMismatchError("no quaternion has a complex part")
        self.cls = cls
        self.D = 0 if cls is Fraction else cls.D
        self.width = 1 if cls is Fraction else 4 if cls.HAS_I else 2
        self.size = self.width * (4 if self.quaternionic else 1)
        reads = [self._read(v) for v in vectors]
        self.den = math.lcm(*[d for d, _ in reads])
        self.vectors = [tuple([c * (self.den // d) for c in v])
                        for d, v in reads]

    def _read(self, vec):
        """(den, integers over den) of an exact vector, den the least
        common denominator of its entries, or None when an entry lies
        outside K."""
        if self.quaternionic:
            vec = chain.from_iterable(map(_quaternion_parts, vec))
        parts = list(map(self._form, vec))
        if None in parts:
            return None
        den = math.lcm(*[d for d, _ in parts])
        return den, tuple([c * (den // d) for d, cs in parts for c in cs])

    def _form(self, x):
        """(den, components over den) of a scalar of K, or None."""
        if isinstance(x, Quaternion) and not self.quaternionic:
            if x.x or x.y or x.z:
                return None
            x = x.w
        if isinstance(x, QuadExt):
            if (x.b or x.c or x.d) and (
                    x.D != self.D or (self.width < 4 and (x.c or x.d))):
                return None
            return x.den, (x.a, x.b, x.c, x.d)[:self.width]
        if isinstance(x, (int, Fraction)):
            return x.denominator, (x.numerator,) + (0,) * (self.width - 1)
        return None

    def _base(self, x):
        """Rows of multiplication by the element x of K's real part (for
        quaternions) or of K, on components: ``QuadExt.__mul__``."""
        a, b, c, d = tuple(x) + (0,) * (4 - len(x))
        D, w = self.D, len(x)
        return [r[:w] for r in ((a, D * b, -c, -D * d), (b, a, -d, -c),
                                (c, D * d, a, D * b), (d, c, b, a))[:w]]

    def _times(self, e, side):
        """Rows of multiplication by the entry e on the side ``_LEFT`` or
        ``_RIGHT``; K is commutative unless it is quaternionic."""
        if not self.quaternionic:
            return self._base(e)
        w = self.width
        blocks = [self._base(e[u * w:(u + 1) * w]) for u in range(4)]
        return [tuple(s * c for u, s in part for c in blocks[u][t])
                for part in side for t in range(w)]

    def blocks(self, rows, side):
        """The integer matrix of multiplication by an exact matrix M, as
        rows: with ``rows`` the integer rows of M and side ``_LEFT``, the
        dot products of its rows with v are M v; with ``rows`` the integer
        columns of M and side ``_RIGHT``, the dot products of r with its
        rows are r M."""
        size = self.size
        return [tuple(chain.from_iterable(
            self._times(row[j:j + size], side)[t]
            for j in range(0, len(row), size)))
            for row in rows for t in range(size)]

    def entries(self, v, n):
        """The exact scalars of K whose integers over n are v."""
        w = self.width
        if self.cls is Fraction:
            out = [Fraction(c, n) for c in v]
        else:
            # the five-integer constructor, which RealQuadExt hides
            out = [QuadExt.__new__(self.cls, *v[i:i + w], *(0,) * (4 - w), n)
                   for i in range(0, len(v), w)]
        if self.quaternionic:
            out = [Quaternion(*out[i:i + 4]) for i in range(0, len(out), 4)]
        return out


def _integer_products(pair: GeneratorPair, max_len: int, target=None):
    """(den, one, times_g, products, exact): the one integer walk over words.

    The letter matrices a, A, b, B of ``pair.root()`` and the target g
    (default I, a square matrix of the root's size) are read once by one
    ``IntegerReader``, over one common den; g's rational-valued entries are
    read as rationals. A product's row is one flat integer vector, and a
    letter x is appended by the dot products of each row with the integer
    columns of right multiplication by den * x (``IntegerReader.blocks``).
    ``products`` yields (word, rows) depth first for every nonidentity
    reduced word of length <= max_len: the rows of the word's product,
    times den**len(word). ``one`` holds the rows of I, the empty word's
    product, and ``times_g(rows)`` those of the product times den * g.
    ``exact(rows, d)`` rebuilds the exact product, in ``pair.dim``, from
    the rows of a word of length d.

    Raises BackendMismatchError when an entry of g lies in a field that
    does not mix with the pair's: no word equals such a g. A negative
    max_len raises ValueError.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    root = pair.root()
    g = Matrix.identity(root.dim, RING_RATIONAL) if target is None else target
    mats = [root.letter_matrix(x) for x in range(4)] + [g]
    reader = IntegerReader([c for m in mats for c in zip(*m.data)])
    n, size = root.dim, reader.size
    # cols[x]: the integer columns of right multiplication by den * letter
    # x; cols[4] those of den * g
    cols = [reader.blocks(reader.vectors[k * n:(k + 1) * n], _RIGHT)
            for k in range(5)]
    one = [tuple([int(j == i * size) for j in range(n * size)])
           for i in range(n)]

    def times(rows, x):
        return [tuple([sum(map(mul, r, c)) for c in cols[x]]) for r in rows]

    def products():
        # depth-first with an explicit stack; it never exceeds ~3 * max_len
        stack = [(one, ())]
        while stack:
            m, w = stack.pop()
            if w:
                yield w, m
            if len(w) < max_len:
                last_inv = w[-1] ^ 1 if w else None
                stack.extend((times(m, x), w + (x,))
                             for x in reversed(range(4)) if x != last_inv)

    def exact(rows, length):
        m = Matrix([reader.entries(r, reader.den ** length) for r in rows])
        return m if pair is root else block_embed_matrix(m, pair.dim)

    return reader.den, one, lambda rows: times(rows, 4), products(), exact


def _key(rows, n):
    """Integer rows times the integer n, as one flat tuple."""
    return tuple([x * n for r in rows for x in r])


def _word_hits(pair: GeneratorPair, max_len: int, g=None) -> set:
    """Every reduced word of length <= max_len that equals g (default I),
    the empty word included, from the products of two half balls.

    Let hi = ceil(max_len / 2) and lo = floor(max_len / 2). A reduced word
    w equals g iff M(u) g = M(v) for u the inverse of its first
    ceil(|w| / 2) letters (in the ball of radius hi) and v the rest (in
    the ball of radius lo); and every u, v with M(u) g = M(v) gives the
    hit reduce(u^-1 v), of length <= max_len. So the ball of radius hi is
    walked once, each product's integer rows are scaled to den**(hi + 1)
    (the u side times den * g), and the hits are read off the rows the
    two sides share.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    hi, lo = (max_len + 1) // 2, max_len // 2
    den, one, times_g, products, _ = _integer_products(pair, hi, g)
    starts, ends = {}, {}
    for w, rows in chain([((), one)], products):
        n = den ** (hi - len(w))
        starts.setdefault(_key(times_g(rows), n), []).append(w)
        if len(w) <= lo:
            ends.setdefault(_key(rows, n * den), []).append(w)
    return {reduce(inverse_word(u) + v)
            for key in starts.keys() & ends.keys()
            for u in starts[key] for v in ends[key]}


def _depth_first_position(word, max_len: int) -> int:
    """The 1-based position of a nonidentity reduced word among those of
    length <= max_len in depth-first order, which is tuple order."""
    position, last_inv = len(word), None
    for depth, x in enumerate(word, 1):
        before = x - (last_inv is not None and last_inv < x)
        # a word of length depth heads a subtree of 1 + 3 + ... words
        position += before * (3 ** (max_len - depth + 1) - 1) // 2
        last_inv = x ^ 1
    return position


def check_freeness(pair: GeneratorPair, max_len: int) -> dict:
    """Prove every nonidentity reduced word of length <= max_len
    nontrivial, exactly, from the products of two half balls.

    A trivial word w of length <= max_len would make the products of two
    words of length <= ceil(max_len / 2) equal: its first half inverted
    and the rest (``_word_hits``). The counterexample is the least trivial
    word in depth-first (tuple) order, and ``words_checked`` counts the
    words proven nontrivial: those before it in that order, it included,
    or on a pass all 2 * 3**max_len - 2 (the ball minus the empty word),
    so none at max_len = 0.
    """
    start = time.monotonic()
    counterexample = min(_word_hits(pair, max_len) - {()}, default=None)
    return {
        "pair": pair.name,
        "max_len": max_len,
        "words_checked": (ball_size(max_len) - 1 if counterexample is None
                          else _depth_first_position(counterexample,
                                                     max_len)),
        "ok": counterexample is None,
        "counterexample": (word_text(counterexample)
                           if counterexample else None),
        "elapsed_s": round(time.monotonic() - start, 3),
    }


def pair_word_scan(pair: GeneratorPair, max_len: int, g: Matrix):
    """(words scanned, texts of the root pair's reduced words of length
    <= max_len that equal g, in ``enumerate_ball`` order).

    A word w of the ball equals g iff M(u) g = M(v) for u its first
    ceil(|w| / 2) letters inverted and v the rest, so every word of the
    ball, the empty one too, is decided by the products of the ball of
    radius ceil(max_len / 2) (``_word_hits``). A g with an entry outside
    every field the words live in equals none of them.
    """
    try:
        hits = _word_hits(pair, max_len, g)
    except BackendMismatchError:
        hits = ()
    return ball_size(max_len), [word_text(w) for w in
                                sorted(hits, key=lambda w: (len(w), w))]


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
    """Canonical fixed lines of all nonidentity words of length <= max_len,
    each read off the word's exact product rebuilt from the integer walk."""
    _require_so3(pair)
    _, _, _, products, exact = _integer_products(pair, max_len)
    return frozenset(_fixed_line(exact(rows, len(w)), w)
                     for w, rows in products)


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


def _content_free(v):
    """The integer vector v divided by the gcd of its entries."""
    g = math.gcd(*v)
    return v if g <= 1 else tuple([x // g for x in v])


def mixes_with_pair(g: Matrix, pair: GeneratorPair) -> bool:
    """Whether g's entries, each read by value, share one exact field with
    the letters of the pair, where the lines of its fixed locus D lie:
    otherwise ``absorber_check`` cannot walk g over D."""
    try:
        common_class([_rational(x) for m in (g, pair.root().letter_matrix(A))
                      for row in m.data for x in row])
    except BackendMismatchError:
        return False
    return True


class LineKeys(IntegerReader):
    """The right lines of an absorber orbit as integer vectors.

    g and the lines of D are read once by one ``IntegerReader``, in the
    field K their entries share. g becomes one integer matrix (its
    ``blocks`` of left multiplication), so ``step`` moves a line's integer
    vector by integer dot products and divides out the gcd. The key of a
    line (``canonical``) is its leading-1 vector times the least positive
    integer that makes it integral: one right multiplication by the
    adjugate of the leading entry (the formula of ``QuadExt.inverse``) and
    one gcd. Equal lines have equal keys, and a key is the line's
    primitive integer representative with a positive integer leading
    entry.
    """

    def __init__(self, g: Matrix, lines):
        vectors = list(g.data) + list(lines)
        if any(len(v) != g.cols for v in vectors):
            raise DimensionMismatchError("absorber and lines differ in size")
        super().__init__(vectors)
        self._rows = self.blocks(self.vectors[:g.rows], _LEFT)
        self.start = [_content_free(v) for v in self.vectors[g.rows:]]

    def step(self, v):
        """The integer vector, with gcd 1, of g times the line of v."""
        return _content_free(tuple([sum(map(mul, r, v))
                                    for r in self._rows]))

    def key(self, vec):
        """The key of the line of an exact vector, or None when an entry
        lies outside K (then no line of the orbit is that line)."""
        read = self._read(vec)
        return None if read is None else self.canonical(read[1])

    def floats(self, key):
        """The key's leading-1 vector in the float lane, as
        ``to_float_scalar`` gives it for each exact entry."""
        w, r = self.width, math.sqrt(self.D)
        den = next(x for x in key[::self.size] if x)
        out = []
        for i in range(0, len(key), w):
            g = math.gcd(den, *key[i:i + w])
            a, b, c, d = [x // g for x in key[i:i + w]] + [0] * (4 - w)
            n = den // g
            if w == 4:  # GaussSqrt5._to_float
                out.append(complex((a + b * r) / n, (c + d * r) / n))
            else:  # QuadExt._to_float, and float(Fraction(a, n))
                out.append(a / n + b / n * r if w == 2 else a / n)
        if self.quaternionic:
            out = [Quaternion(*out[i:i + 4]) for i in range(0, len(out), 4)]
        return tuple(out)

    def _adjugate(self, e):
        """(z, n): e z = n, a nonzero integer, for a nonzero entry e."""
        w = self.width
        if not self.quaternionic:
            z, n = adjugate(*e, *(0,) * (4 - w), self.D)
            return z[:w], n
        parts = [e[u * w:(u + 1) * w] for u in range(4)]
        conj = [parts[0]] + [tuple(-c for c in p) for p in parts[1:]]
        # e conj(e) = |e|^2, the sum of the squares of the parts
        squares = [[sum(map(mul, r, p)) for r in self._base(p)]
                   for p in parts]
        norm = [sum(c) for c in zip(*squares)]
        if not any(norm[1:]):
            return tuple(chain.from_iterable(conj)), norm[0]
        z, n = adjugate(*norm, *(0,) * (4 - w), self.D)
        rows = self._base(z[:w])
        return tuple(sum(map(mul, r, p)) for p in conj for r in rows), n

    def canonical(self, v):
        """The key of the line of a nonzero integer vector."""
        size = self.size
        j = next(filter(v.__getitem__, range(len(v))), None)
        if j is None:
            raise ValueError("zero vector has no direction")
        j -= j % size  # the first nonzero integer is in the leading entry
        if any(v[j + 1:j + size]):
            z, n = self._adjugate(v[j:j + size])
            rows = self._times(z, _RIGHT)
            v = tuple([sum(map(mul, r, v[i:i + size]))
                       for i in range(0, len(v), size) for r in rows])
        else:
            n = v[j]
        g = math.gcd(*v)
        if n < 0:
            g = -g
        return v if g == 1 else tuple([x // g for x in v])


def absorber_check(g: Matrix, lines, bound: int) -> dict:
    """Check g^m(D) and g^n(D) are disjoint for all 0 <= m < n <= bound.

    ``lines`` is an iterable of line vectors (the finite stand-in for the
    removed set D). One integer walk over the powers builds ``index``,
    which maps the ``LineKeys`` key of every line of g^k(D), k <= bound,
    to its least k; ``keys`` reads a vector's key and decodes a key. g is
    a bijection on lines, so g^m(D) meets g^n(D) iff D meets g^(n-m)(D):
    the least colliding pair is always (0, j), for the first level j >= 1
    with a line the index already holds.
    """
    keys = LineKeys(g, lines)
    current = keys.start
    index = dict.fromkeys(map(keys.canonical, current), 0)
    set_size = len(index)
    collision = None
    for k in range(1, bound + 1):
        current = [keys.step(v) for v in current]
        for v in current:
            if index.setdefault(keys.canonical(v), k) < k \
                    and collision is None:
                collision = (0, k)
    return {
        "bound": bound,
        "set_size": set_size,
        "ok": collision is None,
        "first_collision": collision,
        "index": index,
        "keys": keys,
    }
