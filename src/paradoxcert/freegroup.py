"""Matrix realizations of the rank-2 free group.

Five built-in generator pairs, each with exact entries:

* ``so3-ab``    -- rotations by arccos(1/3) about the z and x axes, entries
                   in Q(sqrt2) with denominators 3^|word|
* ``su2-sqrt5`` -- diag((1+2i)/sqrt5, (1-2i)/sqrt5) and the real rotation
                   (1/sqrt5)[[1,-2],[2,1]], entries in Q(sqrt5, i)
* ``sp1-sqrt5`` -- unit quaternions (1+2i)/sqrt5 and (1+2j)/sqrt5
* ``so3-su2``   -- the rotations of S^2 by which the stereographic chart of
                   proj(C,2) carries su2-sqrt5: cosine -3/5 about z and
                   about y, rational with denominators 5^|word|
* ``so5-sp1``   -- the rotations diag(L_q, 1) of S^4 by which the chart of
                   proj(H,2) carries sp1-sqrt5@2 = diag(q, 1), entries in
                   Q(sqrt5)

plus block-embedded copies diag(g, I) in any larger dimension. The last
two are computed, not written: ``CHART_PAIRS`` names, for C and H, the
pair an ``Intertwine`` walks and the pair its chart induces, and the
induced letters are ``equimaps.induced_rotation`` of the parent's, read
back as rationals when every entry is rational.

Every integer walk reads exact matrices through one reader,
``IntegerReader``. The reader reads a set of matrices and vectors once,
in the one field their entries share, as flat integer vectors over one
common denominator den (each entry its integer components, a quaternion
those of w, x, y and z in turn), and turns a matrix into the integer
matrix of multiplying by it on the left.

Every walk over the words of a ball is one breadth-first walk,
``LineKeys.ball``: the letter matrices a, A, b, B of the root pair and a
start vector v are read once, and each level prepends a letter to the
words of the last, one integer dot product per integer of the result, so
the vector of a word w is den**|w| M(w) v. The orbit fragment of
``verification.orbit_fragment`` walks its seed. The word scans walk the
columns of I, zipped into the columns of each word's product: the
freeness scan (g = I) and the absorber-is-not-a-pair-word scan (g = the
absorber, whose columns are walked beside) read only the ball of radius
ceil(L / 2) (``_word_hits``): a reduced word of length <= L equals g iff
M(u) g = M(v) for u its first half inverted and v the rest, so every such
word is read off the products the two half balls share. The exceptional
set walks the whole ball and rebuilds each word's exact product once from
its columns to read its fixed axis.

``absorber_check`` walks the absorber orbit of the removed set D as
integers too (``LineKeys``): g and the lines of D are read once, each line
is keyed by its primitive integer representative (the leading-1 vector
over its least denominator), and a step is integer dot products, one
multiplication by the adjugate of the leading entry (entry by entry over
a commutative field, no rows built) and one gcd, with no exact scalar
made. The walk indexes the orbit once, as {line key: least k
with the line in g^k(D)}; its disjointness verdict and the verifier's
classification both read that index. The orbit fragment keys a ray by the
sign of its leading entry, read from its integers, and its line key.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction
from itertools import chain, islice
from operator import mul

from .equimaps import induced_rotation
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
    quaternion_parts,
    rational_value,
    real_positive,
)
from .words import A, B, ball_size, inverse_word, reduce, word_text


class GeneratorPair:
    """A pair of exact unitary matrices expected to generate a free group."""

    def __init__(self, name, kind, dim, letter_matrices, base=None):
        self.name = name
        self.kind = kind          # so3 | so5 | su2 | sp1 | embedded
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


def _rotations(name, kind, mat_a, mat_b) -> GeneratorPair:
    """The pair of real orthogonal matrices a and b: inverse = transpose."""
    return GeneratorPair(name, kind, mat_a.rows,
                         (mat_a, mat_a.transpose(), mat_b, mat_b.transpose()))


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
    return _rotations("so3-ab", "so3", mat_a, mat_b)


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


# field -> (the pair an Intertwine of proj(K,2) walks, the pair of rotations
# of S^2 or S^4 its stereographic chart induces)
CHART_PAIRS = {"C": ("su2-sqrt5", "so3-su2"), "H": ("sp1-sqrt5@2", "so5-sp1")}


def _rational_read(m: Matrix) -> Matrix:
    """m with its entries as Fractions when every one is rational."""
    values = [[rational_value(x) for x in row] for row in m.data]
    if all(isinstance(x, Fraction) for row in values for x in row):
        return Matrix(values)
    return m


def _induced_pair(field: str) -> GeneratorPair:
    """The rotations by which the chart of proj(K,2) carries the letters a
    and b of the Intertwine's pair: for C, cosine -3/5 about z and about
    y, since a^2 = (-3 + 4i)/5 turns the chart coordinate; for H,
    diag(L_q, 1) with L_q the left multiplication by q on H = R^4."""
    parent, name = CHART_PAIRS[field]
    letters = get_pair(parent)
    mat_a, mat_b = (_rational_read(induced_rotation(
        field, letters.letter_matrix(x))) for x in (A, B))
    return _rotations(name, f"so{mat_a.rows}", mat_a, mat_b)


# each pair is built on its first lookup, so a run builds only the pairs
# its certificate names
_BUILDERS = {"so3-ab": _so3_pair, "su2-sqrt5": _su2_pair,
             "sp1-sqrt5": _sp1_pair,
             **{name: lambda field=field: _induced_pair(field)
                for field, (_, name) in CHART_PAIRS.items()}}
_PAIRS = {}


def get_pair(name: str) -> GeneratorPair:
    """Look up a generator pair: one of ``_BUILDERS``, or name@n."""
    pair = _PAIRS.get(name)
    if pair is not None:
        return pair
    if name in _BUILDERS:
        pair = _PAIRS[name] = _BUILDERS[name]()
        return pair
    if "@" in name:
        base, _, n = name.partition("@")
        return get_pair(base).block_embedded(int(n))
    raise ParadoxError(
        f"unknown generator pair {name!r}: "
        f"expected one of {sorted(_BUILDERS)} or '<pair>@<dim>'")


def evaluate(word, pair: GeneratorPair) -> Matrix:
    """Exact product of letter matrices; empty word gives the identity."""
    ring = pair.letter_matrix(A).scalar_ring()
    out = Matrix.identity(pair.dim, ring)
    for x in word:
        out = matmul(out, pair.letter_matrix(x))
    return out


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


class IntegerReader:
    """Exact matrices and vectors read once as flat integer vectors.

    The entries share one field K: Q, Q(sqrt2), Q(sqrt5) or Q(sqrt5, i), or
    the quaternions over Q or Q(sqrt5); a rational-valued entry is read as
    the rational it is, whatever ring it was written over. Each entry
    becomes its ``width`` integer components over the basis 1, sqrt(D), i,
    sqrt(D) i, as far as K needs them (over the quaternions those of w, x,
    y and z in turn: ``size`` integers an entry), and a vector the flat
    tuple of its entries' integers. ``vectors`` holds the vectors read,
    all over one common ``den``. ``blocks`` turns the integer rows of a
    matrix into the integer matrix of multiplication by it on the left,
    so every product of exact matrices is integer dot products, and
    ``entries`` reads integers back as exact scalars.

    Raises BackendMismatchError when the entries share no such field.
    """

    def __init__(self, vectors):
        vectors = [[rational_value(x) for x in v] for v in vectors]
        self.quaternionic = any(isinstance(x, Quaternion)
                                for v in vectors for x in v)
        parts = chain.from_iterable(vectors)
        if self.quaternionic:
            parts = chain.from_iterable(map(quaternion_parts, parts))
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
            vec = chain.from_iterable(map(quaternion_parts, vec))
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

    def blocks(self, rows):
        """The integer matrix of multiplication by an exact matrix M on the
        left, as rows: with ``rows`` the integer rows of M, the dot
        products of its rows with v are M v."""
        size = self.size
        return [tuple(chain.from_iterable(
            self._times(row[j:j + size], _LEFT)[t]
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


def _key(columns, n):
    """Integer columns times the integer n, as one flat tuple."""
    return tuple([x * n for _, v in columns for x in v])


def _column_walk(pair: GeneratorPair, depth: int, g=None):
    """(walk, ball): the ball of radius depth of the root pair, walked
    column by column.

    One ``LineKeys`` reads the letters of ``pair.root()`` and the columns
    of I, then those of g when it is given (a square matrix of the root's
    size, its rational-valued entries read as rationals), over one den.
    ``ball`` zips one ``walk.ball`` a column: for each word w, breadth
    first with the identity first, it yields the tuple of
    (w, den**(|w| + 1) M(w) c), one pair for each column c read, as
    integer vectors.

    Raises BackendMismatchError when an entry of g lies in a field that
    does not mix with the pair's: no word equals such a g.
    """
    root = pair.root()
    columns = Matrix.identity(root.dim, RING_RATIONAL).data
    if g is not None:
        columns += tuple(zip(*g.data))
    walk = LineKeys([root.letter_matrix(x) for x in range(4)], columns)
    return walk, zip(*[walk.ball(v, depth) for v in walk.start])


def _word_hits(pair: GeneratorPair, max_len: int, g=None) -> set:
    """Every reduced word of length <= max_len that equals g (default I),
    the empty word included, from the products of two half balls.

    Let hi = ceil(max_len / 2) and lo = floor(max_len / 2). A reduced word
    w equals g iff M(u) g = M(v) for u the inverse of its first
    ceil(|w| / 2) letters (in the ball of radius hi) and v the rest (in
    the ball of radius lo); and every u, v with M(u) g = M(v) gives the
    hit reduce(u^-1 v), of length <= max_len. So the ball of radius hi is
    walked once over the columns of I and of g (``_column_walk``); for
    g = I one walk serves both sides. Each product's integer columns are
    scaled to den**(hi + 1), and the hits are read off the columns the
    two sides share.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    hi, lo = (max_len + 1) // 2, max_len // 2
    n = pair.root().dim
    walk, ball = _column_walk(pair, hi, g)
    starts, ends = {}, {}
    for columns in ball:
        w = columns[0][0]
        scale = walk.den ** (hi - len(w))
        end = _key(columns[:n], scale)
        start = end if g is None else _key(columns[n:], scale)
        starts.setdefault(start, []).append(w)
        if len(w) <= lo:
            ends.setdefault(end, []).append(w)
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


def require_so3(pair: GeneratorPair):
    """Refuse any pair but an unembedded 3 x 3 so3 pair: only there does
    every nonidentity word fix exactly one line, its axis."""
    if pair.kind != "so3":
        raise ParadoxError(f"axes are defined for an unembedded so3 pair "
                           f"only, not {pair.name}")


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
    require_so3(pair)
    if not word:
        raise ParadoxError("the identity word fixes everything")
    return _fixed_line(evaluate(word, pair), word)


def exceptional_set(pair: GeneratorPair, max_len: int) -> frozenset:
    """Canonical fixed lines of all nonidentity words of length <= max_len,
    each read off the word's exact product rebuilt from its columns in the
    integer walk (``_column_walk``)."""
    require_so3(pair)
    walk, ball = _column_walk(pair, max_len)
    lines = set()
    for columns in islice(ball, 1, None):  # the identity comes first
        w = columns[0][0]
        m = Matrix(zip(*[walk.entries(v, walk.den ** (len(w) + 1))
                         for _, v in columns]))
        lines.add(_fixed_line(m, w))
    return frozenset(lines)


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
        common_class([rational_value(x)
                      for m in (g, pair.root().letter_matrix(A))
                      for row in m.data for x in row])
    except BackendMismatchError:
        return False
    return True


class LineKeys(IntegerReader):
    """The right lines (or rays) of an orbit as integer vectors.

    Exact square matrices and start vectors are read once by one
    ``IntegerReader``, in the field K their entries share. Each matrix
    becomes one integer matrix (its ``blocks`` of left multiplication), so
    ``times(v, x)`` moves an integer vector by den times matrix x with
    integer dot products alone, ``ball`` walks the words of a pair's
    letters over a vector, and ``step`` also divides out the gcd. The
    key of a line (``canonical``) is its leading-1 vector times the least
    positive integer that makes it integral: one right multiplication by
    the adjugate z of the leading entry and one gcd. Over a commutative K
    z is that of ``scalars.adjugate`` (the formula of ``QuadExt.inverse``),
    and each entry's integers are multiplied by it with the product
    formula of ``QuadExt.__mul__``, no rows built; over the quaternions z
    is the conjugate over the norm's adjugate, and the rows of right
    multiplication by it are built once a key. A rational leading entry
    needs neither. Equal lines have equal keys, and a key is the line's
    primitive integer representative with a positive integer leading
    entry. Over a real K, ``sign`` reads the sign of a vector's leading
    entry exactly from its integers, which with the line key names a ray.
    """

    def __init__(self, mats, vectors):
        rows = [r for m in mats for r in m.data]
        vectors = list(vectors)
        n = len(rows[0])
        if any(len(v) != n for v in rows + vectors):
            raise DimensionMismatchError("matrices and vectors differ in size")
        super().__init__(rows + vectors)
        self._rows = [self.blocks(self.vectors[k:k + n])
                      for k in range(0, len(rows), n)]
        self.start = self.vectors[len(rows):]

    def times(self, v, x=0):
        """The integer vector of den times matrix x times that of v."""
        return tuple([sum(map(mul, r, v)) for r in self._rows[x]])

    def ball(self, v, depth: int):
        """(w, den**|w| M(w) v) for every reduced word w of length <= depth,
        breadth first with the identity first, for the matrices read the
        letters a, A, b, B of a pair and M(w) their product: each level
        prepends a letter to the words of the last, in letter order. A
        negative depth raises ValueError."""
        if depth < 0:
            raise ValueError("depth must be >= 0")
        level = [((), v)]
        yield level[0]
        for _ in range(depth):
            nxt = []
            for w, u in level:
                for x in range(4):
                    if w and x == w[0] ^ 1:
                        continue
                    item = ((x,) + w, self.times(u, x))
                    nxt.append(item)
                    yield item
            level = nxt

    def step(self, v):
        """The integer vector, with gcd 1, of matrix 0 times the line of v."""
        return _content_free(self.times(v))

    def key(self, vec):
        """The key of the line of an exact vector, or None when an entry
        lies outside K (then no line of the orbit is that line)."""
        read = self._read(vec)
        return None if read is None else self.canonical(read[1])

    def sign(self, v):
        """+1 or -1: the sign of the leading entry of a nonzero integer
        vector over a real K."""
        j = next(filter(v.__getitem__, range(len(v))))
        j -= j % self.size
        return 1 if real_positive(v[j], v[j + 1] if self.width == 2 else 0,
                                  self.D) else -1

    def _adjugate(self, e):
        """(z, n): e z = n, a nonzero integer, for a nonzero quaternion
        entry e."""
        w = self.width
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
        if not any(v[j + 1:j + size]):
            n = v[j]
        elif self.quaternionic:
            z, n = self._adjugate(v[j:j + size])
            rows = self._times(z, _RIGHT)
            v = tuple([sum(map(mul, r, v[i:i + size]))
                       for i in range(0, len(v), size) for r in rows])
        else:
            # a commutative K: each entry times z, as QuadExt.__mul__ does
            D, parts = self.D, iter(v)
            (p, q, r, s), n = adjugate(*v[j:j + size], *(0,) * (4 - size), D)
            if size == 2:
                dq = D * q
                v = tuple([x for a, b in zip(parts, parts)
                           for x in (a * p + b * dq, a * q + b * p)])
            else:
                v = tuple([x for a, b, c, d in zip(parts, parts, parts, parts)
                           for x in (a * p + D * (b * q - d * s) - c * r,
                                     a * q + b * p - c * s - d * r,
                                     a * r + c * p + D * (b * s + d * q),
                                     a * s + d * p + b * r + c * q)])
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
    keys = LineKeys([g], lines)
    current = [_content_free(v) for v in keys.start]
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
