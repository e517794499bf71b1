"""Exact scalar backends.

Everything structural in this package is checked with exact arithmetic, so
group elements and points carry entries from one of a few field towers:

* ``Fraction``            -- the rationals (stdlib, used as-is)
* ``QSqrt2``              -- a + b*sqrt(2), a,b rational
* ``QSqrt5``              -- a + b*sqrt(5), a,b rational
* ``GaussSqrt5``          -- a + b*sqrt(5) + (c + d*sqrt(5))i, a..d rational
* ``Quaternion``          -- w + xi + yj + zk over any real backend above

and nothing else: ``ring_of`` names the ring of each and refuses any other
scalar, a float, a complex or a quaternion with a float component
included, so a point refuses such a coordinate when it is built.  Every
scalar type supports ``+ - *`` and ``conjugate()``, is hashable, and
inverts a nonzero value (``1 / x`` for a Fraction, ``x.inverse()`` for the
classes here), so generic linear algebra can stay backend-agnostic.

Equal exact values are ``==`` and hash alike in every class: a rational is
one number as a ``Fraction``, in any quadratic field and as a real
quaternion, and so is an element of Q(sqrt5) in Q(sqrt5, i).  So a
canonical point vector is its own key, whatever its entries' classes.

The three quadratic fields share one implementation, ``QuadExt``: integers
(a, b, c, d, den) standing for (a + b*sqrt(D) + (c + d*sqrt(D))i) / den in
canonical form (den > 0, gcd of all five = 1), so equal values have equal
components and no operation pays for per-component rational gcds.  The
subclasses only pin D, whether i is present, and the constructor: QSqrt2
and QSqrt5 take two rationals, GaussSqrt5 the five integers.

Every product of exact scalars has one path, the integer kernels, which
canonicalise once per result entry.  ``dot_products`` (the core of
``linalg.matmul`` and ``linalg.mat_vec``, and of a quaternion product, its
1 x 1 case) reads each operand once as integer components over one common
denominator and forms every entry of the result from pure integer sums.
A quaternion is read as its four components, so a quaternion dot of
length n is four component dots of length 4n, against the right
operand's components permuted and signed by Hamilton's product.
``sub_scaled`` (the row update x - f*y of ``linalg`` row reduction) forms
each entry in one step over the commutative fields, and is the two-term
dot (1, -f) . (x, y) over the quaternions.  An operand whose entries share
one Fraction or QuadExt class is read as it is; the kernels read any other
operand too: an int as a Fraction, a real entry beside quaternions as
(x, 0, 0, 0), and a rational-valued entry written over a field that does
not mix as the rational it is (``rational_value``).  An entry that is not
exact, and fields that do not mix, raise BackendMismatchError.  Callers
that keep integers across many products (the word and orbit walks of
``freegroup``) read their matrices once through
``freegroup.IntegerReader`` instead.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from itertools import chain
from operator import ge, gt, le, lt, mul, neg

from .errors import BackendMismatchError

_HASH_MODULUS = sys.hash_info.modulus
_HASH_INF = sys.hash_info.inf


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build a rational from {x!r}")


class QuadExt:
    """(a + b*sqrt(D) + (c + d*sqrt(D)) i) / den with integer entries.

    Subclasses pin D and ``HAS_I`` (whether the field contains i; when it
    does not, c = d = 0 always). Mixing two classes of the same D gives the
    wider one, so QSqrt5 * GaussSqrt5 is a GaussSqrt5. Of a class of
    another D only the rational elements mix, as the rationals they are.
    """

    D = None  # set by subclass
    HAS_I = False
    __slots__ = ("a", "b", "c", "d", "den")

    def __new__(cls, a=0, b=0, c=0, d=0, den=1):
        return _make(cls, a, b, c, d, den)

    def __setattr__(self, *args):
        raise AttributeError("immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not the slots
        return type(self), (self.a, self.b, self.c, self.d, self.den)

    @classmethod
    def from_rational(cls, q):
        q = _frac(q)
        return _make(cls, q.numerator, 0, 0, 0, q.denominator)

    def _coerce(self, other):
        """(result class, other as an element of this field), or None."""
        cls = type(self)
        if type(other) is cls:
            return cls, other
        if isinstance(other, (int, Fraction)):
            return cls, cls.from_rational(other)
        if isinstance(other, QuadExt):
            if other.D == self.D:
                return (cls if self.HAS_I else type(other)), other
            if not (other.b or other.c or other.d):
                # a rational of another field is that rational
                return cls, _make(cls, other.a, 0, 0, 0, other.den)
        return None

    def __add__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        cls, o = co
        e, f = self.den, o.den
        return _make(cls, self.a * f + o.a * e, self.b * f + o.b * e,
                     self.c * f + o.c * e, self.d * f + o.d * e, e * f)

    __radd__ = __add__

    def __neg__(self):
        return _make(type(self), -self.a, -self.b, -self.c, -self.d,
                     self.den)

    def __sub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        cls, o = co
        e, f = self.den, o.den
        return _make(cls, self.a * f - o.a * e, self.b * f - o.b * e,
                     self.c * f - o.c * e, self.d * f - o.d * e, e * f)

    def __rsub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        cls, o = co
        e, f = self.den, o.den
        return _make(cls, o.a * e - self.a * f, o.b * e - self.b * f,
                     o.c * e - self.c * f, o.d * e - self.d * f, e * f)

    def __mul__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        cls, o = co
        D = self.D
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = o.a, o.b, o.c, o.d
        return _make(
            cls,
            a1 * a2 + D * (b1 * b2 - d1 * d2) - c1 * c2,
            a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2,
            a1 * c2 + c1 * a2 + D * (b1 * d2 + d1 * b2),
            a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
            self.den * o.den,
        )

    __rmul__ = __mul__

    def inverse(self):
        # den * self * z = n for the integers z, n of ``adjugate``, so
        # self^-1 = den * z / n
        (za, zb, zc, zd), n = adjugate(self.a, self.b, self.c, self.d, self.D)
        k = self.den
        return _make(type(self), k * za, k * zb, k * zc, k * zd, n)

    def __truediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return self * co[1].inverse()

    def __rtruediv__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return co[1] * self.inverse()

    def conjugate(self):
        if not (self.c or self.d):
            return self  # real number: complex conjugation is trivial
        return _make(type(self), self.a, self.b, -self.c, -self.d, self.den)

    def is_zero(self):
        return not (self.a or self.b or self.c or self.d)

    def __bool__(self):
        return not self.is_zero()

    def is_positive(self):
        """Sign of a real element as a real number, exactly."""
        if self.c or self.d:
            raise TypeError(f"no real ordering for {self!r}")
        # den > 0: the sign is that of a + b sqrt(D)
        return real_positive(self.a, self.b, self.D)

    def __eq__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        o = co[1]
        return (self.a == o.a and self.b == o.b and self.c == o.c
                and self.d == o.d and self.den == o.den)

    def __hash__(self):
        a, den = self.a, self.den
        if self.b or self.c or self.d:
            return hash((self.D, a, self.b, self.c, self.d, den))
        # a rational value hashes like the equal Fraction and int: the
        # numeric hash of a / den (a and den are already coprime)
        if den == 1:
            return hash(a)
        try:
            h = hash(hash(abs(a)) * pow(den, -1, _HASH_MODULUS))
        except ValueError:  # den is a multiple of the modulus
            h = _HASH_INF
        h = h if a >= 0 else -h
        return -2 if h == -1 else h

    def _parts(self):
        """a, b (and c, d when the field has i) over den, as Fractions."""
        nums = (self.a, self.b, self.c, self.d)[:4 if self.HAS_I else 2]
        return tuple(Fraction(n, self.den) for n in nums)


def real_positive(a, b, D):
    """Whether a + b sqrt(D) > 0 for integers a, b and a nonsquare D > 0
    (or b = 0), exactly."""
    if b == 0:
        return a > 0
    if a == 0:
        return b > 0
    if (a > 0) == (b > 0):
        return a > 0
    # opposite signs: compare a^2 vs D b^2 (never equal)
    return (a * a > D * b * b) == (a > 0)


def _rational_sqrt(q):
    """The nonnegative rational root of a rational q, or None."""
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    return Fraction(rn, rd) if rn * rn == n and rd * rd == d else None


def exact_sqrt(x):
    """The nonnegative square root of a real exact scalar x in x's own
    field, Q for a rational and Q(sqrt D) for a ``RealQuadExt``, or None
    when x < 0 or the root lies outside that field.

    A root p + q sqrt(D) of a + b sqrt(D) has p^2 + D q^2 = a and
    2 p q = b, so p^2 is (a + s) / 2 or (a - s) / 2 with s^2 = a^2 - D b^2.
    """
    if isinstance(x, (int, Fraction)):
        return _rational_sqrt(Fraction(x))
    cls, D = type(x), x.D
    a, b = x._parts()
    if not b:
        r = _rational_sqrt(a)
        if r is not None:
            return cls(r)
        r = _rational_sqrt(a / D)
        return None if r is None else cls(0, r)
    s = _rational_sqrt(a * a - D * b * b)
    if s is None:
        return None
    for p2 in ((a + s) / 2, (a - s) / 2):
        p = _rational_sqrt(p2)
        if p:
            y = cls(p, b / (2 * p))
            return y if y.is_positive() else -y
    return None


def adjugate(a, b, c, d, D):
    """(z, n): integer components z = (za, zb, zc, zd) with
    (a + b sqrt(D) + (c + d sqrt(D)) i) (za + zb sqrt(D) + (zc + zd sqrt(D)) i)
    = n, a nonzero integer.

    With y = a + b sqrt(D) + (c + d sqrt(D)) i and w = conj(y) (or w = 1
    when y is real), y w = n0 + n1 sqrt(D) is real, and its norm
    n0^2 - D n1^2 is nonzero for nonzero y because sqrt(D) is irrational;
    so z = w (n0 - n1 sqrt(D)).
    """
    if c or d:
        n0 = a * a + D * b * b + c * c + D * d * d
        n1 = 2 * (a * b + c * d)
        wa, wb, wc, wd = a, b, -c, -d
    elif a or b:
        n0, n1, wa, wb, wc, wd = a, b, 1, 0, 0, 0
    else:
        raise ZeroDivisionError("division by zero")
    return ((wa * n0 - D * wb * n1, wb * n0 - wa * n1,
             wc * n0 - D * wd * n1, wd * n0 - wc * n1),
            n0 * n0 - D * n1 * n1)


# writers of the slots, which bypass the immutable __setattr__
_new_object = object.__new__
_set_a, _set_b, _set_c, _set_d, _set_den = (
    QuadExt.__dict__[name].__set__ for name in QuadExt.__slots__)


def _make(cls, a, b, c, d, den):
    """Element of cls from integer components, brought to canonical form."""
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    g = math.gcd(a, b, c, d, den)
    if den < 0:
        g = -g
    if g != 1:
        a, b, c, d, den = a // g, b // g, c // g, d // g, den // g
    x = _new_object(cls)
    _set_a(x, a)
    _set_b(x, b)
    _set_c(x, c)
    _set_d(x, d)
    _set_den(x, den)
    return x


class RealQuadExt(QuadExt):
    """a + b*sqrt(D) with rational a, b (stored as integers over den)."""

    __slots__ = ()

    def __new__(cls, a=0, b=0):
        a, b = _frac(a), _frac(b)
        p, q = a.denominator, b.denominator
        den = p * q // math.gcd(p, q)
        return _make(cls, a.numerator * (den // p), b.numerator * (den // q),
                     0, 0, den)

    def __reduce__(self):
        return type(self), self._parts()

    def __repr__(self):
        a, b = self._parts()
        return f"{type(self).__name__}({a}, {b})"

    def __str__(self):
        a, b = self._parts()
        if b == 0:
            return str(a)
        return f"{a}+{b}*sqrt{self.D}"

    # a real quadratic field is ordered: compare and take magnitudes exactly
    def __abs__(self):
        return -self if self and not self.is_positive() else self

    def _compare(self, other, op):
        """op(sign of self - other, 0)."""
        d = self - other
        return op(0 if not d else 1 if d.is_positive() else -1, 0)

    def __lt__(self, other):
        return self._compare(other, lt)

    def __le__(self, other):
        return self._compare(other, le)

    def __gt__(self, other):
        return self._compare(other, gt)

    def __ge__(self, other):
        return self._compare(other, ge)


class QSqrt2(RealQuadExt):
    D = 2
    __slots__ = ()


class QSqrt5(RealQuadExt):
    D = 5
    __slots__ = ()


class GaussSqrt5(QuadExt):
    """(a + b*sqrt(5) + (c + d*sqrt(5)) i) / den: the field Q(sqrt5, i)."""

    D = 5
    HAS_I = True
    __slots__ = ()

    def real_imag(self):
        """The real and imaginary parts, in QSqrt5."""
        return (_make(QSqrt5, self.a, self.b, 0, 0, self.den),
                _make(QSqrt5, self.c, self.d, 0, 0, self.den))

    def __repr__(self):
        return (f"GaussSqrt5({self.a}, {self.b}, {self.c}, {self.d}, "
                f"{self.den})")


class Quaternion:
    """w + x i + y j + z k over a shared real component backend."""

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w, x, y, z):
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    def __setattr__(self, *args):
        raise AttributeError("immutable")

    def __reduce__(self):
        return type(self), (self.w, self.x, self.y, self.z)

    def _coerce(self, other):
        if isinstance(other, Quaternion):
            return other
        if isinstance(other, (int, Fraction, RealQuadExt)):
            zero = self.w - self.w
            return Quaternion(zero + other, zero, zero, zero)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quaternion(self.w + o.w, self.x + o.x,
                          self.y + o.y, self.z + o.z)

    __radd__ = __add__

    def __neg__(self):
        return Quaternion(-self.w, -self.x, -self.y, -self.z)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return Quaternion(self.w - o.w, self.x - o.x,
                          self.y - o.y, self.z - o.z)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    # a product is the 1 x 1 case of ``dot_products``
    def __mul__(self, other):
        return dot_products(((self,),), ((other,),))[0][0]

    def __rmul__(self, other):
        return dot_products(((other,),), ((self,),))[0][0]

    def conjugate(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self):
        return (self.w * self.w + self.x * self.x
                + self.y * self.y + self.z * self.z)

    def inverse(self):
        n = self.norm_sq()
        if not n:
            raise ZeroDivisionError("division by zero")
        inv = 1 / n if isinstance(n, Fraction) else n.inverse()
        c = self.conjugate()
        return Quaternion(c.w * inv, c.x * inv, c.y * inv, c.z * inv)

    def is_zero(self):
        return not (self.w or self.x or self.y or self.z)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return ((self.w, self.x, self.y, self.z)
                    == (other.w, other.x, other.y, other.z))
        if isinstance(other, (int, Fraction, QuadExt)):
            return not (self.x or self.y or self.z) and self.w == other
        return NotImplemented

    def __hash__(self):
        # a real quaternion hashes like its real part, which it equals
        if not (self.x or self.y or self.z):
            return hash(self.w)
        return hash((self.w, self.x, self.y, self.z))

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


# -- exact kernels -------------------------------------------------------------
#
# A sum of products of exact scalars is formed from raw integer components
# over one common denominator per operand, and brought to canonical form
# once per result entry instead of once per partial product and partial
# sum.  A quaternion is read as its four components, so a sum of quaternion
# products is integer sums too.

_ZERO = Fraction(0)
_RATIONALS = frozenset((Fraction, int))


def rational_value(x):
    """x as a Fraction when its value is rational, else x itself.

    A rational mixes with every field, whatever ring it was written over.
    """
    if isinstance(x, Quaternion) and not (x.x or x.y or x.z):
        x = x.w
    if isinstance(x, QuadExt) and not (x.b or x.c or x.d):
        return Fraction(x.a, x.den)
    return x


def quaternion_parts(x):
    """(w, x, y, z) of a quaternion; any other scalar is (x, 0, 0, 0)."""
    if isinstance(x, Quaternion):
        return x.w, x.x, x.y, x.z
    return x, _ZERO, _ZERO, _ZERO


def _product_class(c1, c2):
    """Class of x * y for x of class c1 and y of class c2, as ``*`` gives
    it, or None unless both are Fraction or QuadExt classes that mix."""
    if c1 is None or c2 is None:
        return None
    if c1 is Fraction:
        return c2
    if c2 is Fraction:
        return c1
    if c1.D != c2.D:
        return None
    return c1 if c1.HAS_I else c2


def _one_class(xs):
    """The exact class every scalar in xs has, an int counting as a
    Fraction, or None."""
    types = set(map(type, xs))
    if types <= _RATIONALS:
        return Fraction
    if len(types) != 1:
        return None
    cls = types.pop()
    return cls if issubclass(cls, QuadExt) else None


def _as(cls, x):
    """The exact scalar x, by value, as an element of cls."""
    if type(x) is cls:
        return x
    a, b, c, d, den = _components(x)
    return Fraction(a, den) if cls is Fraction else _make(cls, a, b, c, d, den)


def _read(rows, cols):
    """(rows, cols, c1, c2, quaternionic): the operands of a product whose
    entries are not each of one class per operand, with each entry of an
    operand as an element of that operand's class c1 or c2.

    When an operand holds a quaternion, every entry of both is read as its
    four components.  Each operand's class is the one its entries share
    (``common_class``); an operand whose field does not mix with the
    other's is read by value, the left one first.  BackendMismatchError
    for an entry that is not exact and for fields that do not mix (no
    quaternion has a complex part).
    """
    quaternionic = any(isinstance(x, Quaternion)
                       for v in chain(rows, cols) for x in v)
    ops = [rows, cols]
    if quaternionic:
        ops = [[list(chain.from_iterable(map(quaternion_parts, v)))
                for v in vs] for vs in ops]
    read = [_one_class(chain.from_iterable(vs)) for vs in ops]
    classes = list(read)
    if _product_class(*classes) is None:
        flat = [list(chain.from_iterable(vs)) for vs in ops]
        classes = [common_class(xs) for xs in flat]
        for side in (0, 1):
            if _product_class(*classes) is None:
                classes[side] = common_class(
                    list(map(rational_value, flat[side])))
        ops = [vs if c is r else [[_as(c, x) for x in v] for v in vs]
               for c, r, vs in zip(classes, read, ops)]
    cls = _product_class(*classes)
    if cls is None or quaternionic and cls is not Fraction and cls.HAS_I:
        raise BackendMismatchError("entries from fields that do not mix")
    return (*ops, *classes, quaternionic)


def _int_form(vectors, cls, width):
    """(den, forms): every entry of ``vectors`` (all of class cls, an int
    for Fraction) as its integer components over the common den.

    An entry becomes an int for a Fraction, and otherwise a tuple of the
    first ``width`` components (a, b) or (a, b, c, d); a real entry has
    c = d = 0.
    """
    if cls is Fraction:
        den = math.lcm(*[x.denominator for v in vectors for x in v])
        return den, [[x.numerator * (den // x.denominator) for x in v]
                     for v in vectors]
    den = math.lcm(*[x.den for v in vectors for x in v])
    forms = []
    for v in vectors:
        scale = [den // x.den for x in v]
        if width == 2:
            forms.append([(x.a * s, x.b * s) for x, s in zip(v, scale)])
        else:
            forms.append([(x.a * s, x.b * s, x.c * s, x.d * s)
                          for x, s in zip(v, scale)])
    return den, forms


def _hamilton(y, flip):
    """The four integer forms whose dots with the form of a quaternion
    vector p are the components of sum_k p[k] q[k], for the integer form y
    of the quaternion vector q (four components an entry): the components
    of q permuted and signed by Hamilton's product."""
    out = ([], [], [], [])
    for s in range(0, len(y), 4):
        w, i, j, k = y[s:s + 4]
        ni, nj, nk = flip(i), flip(j), flip(k)
        for v, part in zip(out, ((w, ni, nj, nk), (i, w, k, nj),
                                 (j, nk, w, i), (k, j, ni, w))):
            v += part
    return out


def _dot_rational(x, y, D):
    return sum(map(mul, x, y))


def _dot_scaled(x, y, D):
    # x: integers (a rational operand); y: component tuples
    return tuple([sum(map(mul, x, c)) for c in zip(*y)])


def _dot_real(x, y, D):
    # (a1 + b1 sqrt(D)) (a2 + b2 sqrt(D)), summed
    p = q = 0
    for (a1, b1), (a2, b2) in zip(x, y):
        p += a1 * a2 + D * b1 * b2
        q += a1 * b2 + b1 * a2
    return p, q


def _dot_complex(x, y, D):
    # the product of QuadExt.__mul__, summed
    p = q = r = s = 0
    for (a1, b1, c1, d1), (a2, b2, c2, d2) in zip(x, y):
        p += a1 * a2 + D * (b1 * b2 - d1 * d2) - c1 * c2
        q += a1 * b2 + b1 * a2 - c1 * d2 - d1 * c2
        r += a1 * c2 + c1 * a2 + D * (b1 * d2 + d1 * b2)
        s += a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2
    return p, q, r, s


def _kernel(c1, c2):
    """(result class, component width, dot) for a left operand of class c1
    and a right one of class c2, two classes that mix.

    ``dot(x, y, D)`` returns the integer form of sum_k x[k] y[k] for
    integer forms x and y (an int for the rationals); the fields are
    commutative, so a rational right operand is handled by swapping the
    two sides.
    """
    cls = _product_class(c1, c2)
    if cls is Fraction:
        return cls, 1, _dot_rational
    width = 4 if cls.HAS_I else 2
    if c1 is Fraction:
        return cls, width, _dot_scaled
    if c2 is Fraction:
        return cls, width, lambda x, y, D: _dot_scaled(y, x, D)
    return cls, width, (_dot_complex if cls.HAS_I else _dot_real)


def _canonical(cls, comps, den):
    """The canonical element of cls with integer components over den."""
    if cls is Fraction:
        return Fraction(comps, den)
    if len(comps) == 2:
        return _make(cls, comps[0], comps[1], 0, 0, den)
    return _make(cls, *comps, den)


def dot_products(rows, cols):
    """[[sum_k r[k] c[k] for c in cols] for r in rows], as row tuples.

    Each operand (a sequence of equal-length tuples of exact scalars) is
    read once as integers over one denominator, and each result entry is
    made once, in the class ``*`` gives the two operands' classes: a
    quaternion when either operand holds one.  Operands whose entries
    share one Fraction or QuadExt class are read as they are; any other
    operand is read by ``_read``, which raises BackendMismatchError for an
    entry that is not exact and for fields that do not mix.
    """
    c1 = _one_class(chain.from_iterable(rows))
    c2 = _one_class(chain.from_iterable(cols))
    quaternionic = False
    if _product_class(c1, c2) is None:
        rows, cols, c1, c2, quaternionic = _read(rows, cols)
    cls, width, dot = _kernel(c1, c2)
    den1, xs = _int_form(rows, c1, width)
    den2, ys = _int_form(cols, c2, width)
    den = den1 * den2
    D = cls.D if cls is not Fraction else None
    if quaternionic:
        flip = neg if c2 is Fraction else lambda t: tuple([-c for c in t])
        ys = [_hamilton(y, flip) for y in ys]
        return [tuple([Quaternion(*[_canonical(cls, dot(x, v, D), den)
                                    for v in vs]) for vs in ys])
                for x in xs]
    return [tuple([_canonical(cls, dot(x, y, D), den) for y in ys])
            for x in xs]


def common_class(xs):
    """The class ``*`` gives the exact scalars xs together: Fraction (for
    ints too), or the one QuadExt class their fields mix in.

    Raises BackendMismatchError for any other scalar, and for fields that
    do not mix.
    """
    cls = Fraction
    for c in set(map(type, xs)) - _RATIONALS:
        if not issubclass(c, QuadExt):
            raise BackendMismatchError(
                f"no integer form for {c.__name__}: it is not exact")
        cls = _product_class(cls, c)
        if cls is None:
            raise BackendMismatchError("entries from fields that do not mix")
    return cls


def _components(x):
    """(a, b, c, d, den) of an int, a Fraction or a QuadExt."""
    if type(x) is Fraction or type(x) is int:
        return x.numerator, 0, 0, 0, x.denominator
    return x.a, x.b, x.c, x.d, x.den


def sub_scaled(xs, f, ys):
    """[x - f * y for x, y in zip(xs, ys)] with one canonicalisation per
    entry.

    When xs, f and ys each share one Fraction or QuadExt class, each entry
    is formed in one step.  Otherwise a row update is the two-term dot
    (1, -f) . (x, y) of ``dot_products``: one dot over the quaternions,
    and one per entry over the commutative fields, so each entry has the
    class its own three terms give.  BackendMismatchError as there.
    """
    cls = _product_class(_one_class(xs),
                         _product_class(_one_class((f,)), _one_class(ys)))
    if cls is None:
        if any(isinstance(x, Quaternion) for x in chain(xs, (f,), ys)):
            return list(dot_products(((1, -f),), tuple(zip(xs, ys)))[0])
        return [dot_products(((1, -f),), ((x, y),))[0][0]
                for x, y in zip(xs, ys)]
    fa, fb, fc, fd, fden = _components(f)
    if cls is Fraction:
        return [Fraction(x.numerator * fden * y.denominator
                         - fa * y.numerator * x.denominator,
                         x.denominator * fden * y.denominator)
                for x, y in zip(xs, ys)]
    D = cls.D
    out = []
    for x, y in zip(xs, ys):
        if not y and type(x) is cls:
            out.append(x)
            continue
        xa, xb, xc, xd, xden = _components(x)
        ya, yb, yc, yd, yden = _components(y)
        s = fden * yden  # f * y = (pa + pb sqrt(D) + (pc + pd sqrt(D)) i) / s
        if cls.HAS_I:
            pa = fa * ya + D * (fb * yb - fd * yd) - fc * yc
            pb = fa * yb + fb * ya - fc * yd - fd * yc
            pc = fa * yc + fc * ya + D * (fb * yd + fd * yb)
            pd = fa * yd + fd * ya + fb * yc + fc * yb
            out.append(_make(cls, xa * s - pa * xden, xb * s - pb * xden,
                             xc * s - pc * xden, xd * s - pd * xden,
                             xden * s))
        else:
            pa = fa * ya + D * fb * yb
            pb = fa * yb + fb * ya
            out.append(_make(cls, xa * s - pa * xden, xb * s - pb * xden,
                             0, 0, xden * s))
    return out


class Ring:
    """Handle bundling the identities and converter of one exact backend."""

    def __init__(self, name, zero, one, from_rational):
        self.name = name
        self.zero = zero
        self.one = one
        self.from_rational = from_rational

    def __repr__(self):
        return f"Ring({self.name})"


def _quat_rational(q):
    q = _frac(q)
    return Quaternion(q, Fraction(0), Fraction(0), Fraction(0))


def _quat_sqrt5(q):
    z = QSqrt5(0, 0)
    return Quaternion(QSqrt5(_frac(q), 0), z, z, z)


RING_RATIONAL = Ring("rational", Fraction(0), Fraction(1), _frac)
RING_QSQRT2 = Ring("qsqrt2", QSqrt2(0), QSqrt2(1), QSqrt2.from_rational)
RING_QSQRT5 = Ring("qsqrt5", QSqrt5(0), QSqrt5(1), QSqrt5.from_rational)
RING_GAUSS_SQRT5 = Ring("gauss_sqrt5", GaussSqrt5(), GaussSqrt5(1),
                        GaussSqrt5.from_rational)
RING_QUAT_RATIONAL = Ring("quat_rational", _quat_rational(0),
                          _quat_rational(1), _quat_rational)
RING_QUAT_SQRT5 = Ring("quat_sqrt5", _quat_sqrt5(0), _quat_sqrt5(1),
                       _quat_sqrt5)

# the exact rings by name: the rings a matrix literal may name
RINGS = {r.name: r for r in (
    RING_RATIONAL, RING_QSQRT2, RING_QSQRT5, RING_GAUSS_SQRT5,
    RING_QUAT_RATIONAL, RING_QUAT_SQRT5,
)}

# the quaternion ring over each class its components may share
_QUAT_RINGS = {Fraction: RING_QUAT_RATIONAL, QSqrt5: RING_QUAT_SQRT5}


def ring_of(x) -> Ring:
    """The exact ring of a scalar; BackendMismatchError for any other
    scalar, a quaternion with a float component included."""
    if isinstance(x, Fraction):
        return RING_RATIONAL
    if isinstance(x, QSqrt2):
        return RING_QSQRT2
    if isinstance(x, QSqrt5):
        return RING_QSQRT5
    if isinstance(x, GaussSqrt5):
        return RING_GAUSS_SQRT5
    if isinstance(x, Quaternion):
        ring = _QUAT_RINGS.get(common_class((x.w, x.x, x.y, x.z)))
        if ring is not None:
            return ring
    raise BackendMismatchError(f"unknown scalar backend for {x!r}")


def scalar_to_json(x):
    """Serialize a scalar as exact decimal-string components."""
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, RealQuadExt):
        a, b = x._parts()
        return {"a": str(a), "b": str(b)}
    if isinstance(x, GaussSqrt5):
        return {"a": str(x.a), "b": str(x.b), "c": str(x.c),
                "d": str(x.d), "den": str(x.den)}
    if isinstance(x, Quaternion):
        return {"w": scalar_to_json(x.w), "x": scalar_to_json(x.x),
                "y": scalar_to_json(x.y), "z": scalar_to_json(x.z)}
    raise BackendMismatchError(f"cannot serialize {x!r}")


def scalar_from_json(obj, ring: Ring):
    name = ring.name
    if name == "rational":
        return Fraction(obj)
    if name == "qsqrt2":
        return QSqrt2(Fraction(obj["a"]), Fraction(obj["b"]))
    if name == "qsqrt5":
        return QSqrt5(Fraction(obj["a"]), Fraction(obj["b"]))
    if name == "gauss_sqrt5":
        return GaussSqrt5(int(obj["a"]), int(obj["b"]), int(obj["c"]),
                          int(obj["d"]), int(obj["den"]))
    if name in ("quat_rational", "quat_sqrt5"):
        comp = RING_RATIONAL if name == "quat_rational" else RING_QSQRT5
        return Quaternion(*(scalar_from_json(obj[k], comp)
                            for k in ("w", "x", "y", "z")))
    raise BackendMismatchError(f"unknown ring {name}")
