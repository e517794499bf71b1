"""Exact scalar backends.

Everything structural in this package is checked with exact arithmetic, so
group elements and points carry entries from one of a few field towers:

* ``Fraction``            -- the rationals (stdlib, used as-is)
* ``QSqrt2``              -- a + b*sqrt(2), a,b rational
* ``QSqrt5``              -- a + b*sqrt(5), a,b rational
* ``GaussSqrt5``          -- a + b*sqrt(5) + (c + d*sqrt(5))i, a..d rational
* ``Quaternion``          -- w + xi + yj + zk over any real backend above

plus plain ``float``/``complex``/float quaternions for the verification-only
float lane. Every scalar type supports ``+ - *`` and ``conjugate()``, is
hashable, and inverts a nonzero value (``1 / x`` for the stdlib numbers,
``x.inverse()`` for the classes here), so generic linear algebra can stay
backend-agnostic.

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

Exact kernels canonicalise once per result entry.  ``dot_products`` (the
core of ``linalg.matmul`` and ``linalg.mat_vec``) reads each operand once
as integer components over one common denominator and forms every entry
of the result from pure integer sums; ``sub_scaled`` (the row update
x - f*y of ``linalg`` row reduction) forms each entry in one step; and a
product of two quaternions forms each component as one 4-term integer dot
product.  They run when every entry of an operand has one type, Fraction
or one QuadExt class, and the two types mix; the result then has exactly
the class the left-to-right ``*``/``+`` loop gives.  Any other input (mixed
types, int, float, complex, Quaternion entries of a matrix) takes that
generic loop, and so does a matrix product over vectors of length 1, whose
every entry is a single ``*`` already.  Callers that keep integers across
many products (the word and orbit walks of ``freegroup``) read their
matrices once through ``freegroup.IntegerReader`` instead.
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
        a, b = self.a, self.b  # den > 0: the sign is that of a + b sqrt(D)
        if b == 0:
            return a > 0
        if a == 0:
            return b > 0
        if (a > 0) == (b > 0):
            return a > 0
        # opposite signs: compare a^2 vs D b^2 (never equal)
        return (a * a > self.D * b * b) == (a > 0)

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

    def _to_float(self, p, q):
        return p / self.den + q / self.den * math.sqrt(self.D)

    def __float__(self):
        if self.c or self.d:
            raise TypeError(f"{self!r} is not real")
        return self._to_float(self.a, self.b)

    def __complex__(self):
        return complex(self._to_float(self.a, self.b),
                       self._to_float(self.c, self.d))


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
        """op(sign of self - other, 0); a finite float counts at its exact
        binary value, as it does for Fraction."""
        if isinstance(other, float):
            if not math.isfinite(other):
                return op(0.0, other)
            other = Fraction(other)
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

    def _to_float(self, p, q):
        # rounds the sum, where the real fields round each part: float-lane
        # deviations in reports depend on the last bit of both
        return (p + q * math.sqrt(self.D)) / self.den

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
        if isinstance(other, (int, Fraction, float, RealQuadExt)):
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

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        p = _quaternion_product(self, o)
        if p is not None:
            return p
        w1, x1, y1, z1 = self.w, self.x, self.y, self.z
        w2, x2, y2, z2 = o.w, o.x, o.y, o.z
        return Quaternion(
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        )

    def __rmul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self

    def conjugate(self):
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self):
        return (self.w * self.w + self.x * self.x
                + self.y * self.y + self.z * self.z)

    def inverse(self):
        n = self.norm_sq()
        if not n:
            raise ZeroDivisionError("division by zero")
        if isinstance(n, float):
            inv = 1.0 / n
        elif isinstance(n, Fraction):
            inv = 1 / n
        else:
            inv = n.inverse()
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
        if isinstance(other, (int, Fraction, float, QuadExt)):
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
# A sum of products over Fraction or one QuadExt class is formed from raw
# integer components over one common denominator per operand, and brought
# to canonical form once per result entry instead of once per partial
# product and partial sum.  Each kernel returns None when its operands are
# not of that shape, and the caller then runs the plain ``*``/``+`` loop.


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
    """The exact class every scalar in xs has, or None."""
    types = set(map(type, xs))
    if len(types) != 1:
        return None
    cls = types.pop()
    if cls is Fraction or issubclass(cls, QuadExt):
        return cls
    return None


def _int_form(vectors, cls, width):
    """(den, forms): every entry of ``vectors`` (all of class cls) as its
    integer components over the common den.

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
    and a right one of class c2, or None when the generic loop must run.

    ``dot(x, y, D)`` returns the integer form of sum_k x[k] y[k] for
    integer forms x and y (an int for the rationals); the fields are
    commutative, so a rational right operand is handled by swapping the
    two sides.
    """
    cls = _product_class(c1, c2)
    if cls is None:
        return None
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

    Each operand (a sequence of equal-length scalar tuples) is read once
    as integers over one denominator, and each result entry is made once.
    The result has the class and value the left-to-right ``*``/``+`` loop
    gives.  None unless each operand's entries share one Fraction or
    QuadExt class and the two classes mix, and None for vectors of length
    1, whose products ``*`` already makes in one step.
    """
    if len(rows[0]) < 2:
        return None
    c1 = _one_class(chain.from_iterable(rows))
    c2 = _one_class(chain.from_iterable(cols))
    kernel = _kernel(c1, c2)
    if kernel is None:
        return None
    cls, width, dot = kernel
    den1, xs = _int_form(rows, c1, width)
    den2, ys = _int_form(cols, c2, width)
    den = den1 * den2
    D = cls.D if cls is not Fraction else None
    return [tuple([_canonical(cls, dot(x, y, D), den) for y in ys])
            for x in xs]


def common_class(xs):
    """The class ``*`` gives the exact scalars xs together: Fraction, or
    the one QuadExt class their fields mix in.

    Raises BackendMismatchError for any other scalar, and for fields that
    do not mix.
    """
    cls = Fraction
    for c in set(map(type, xs)):
        if c is not Fraction and not issubclass(c, QuadExt):
            raise BackendMismatchError(f"no integer form for {c.__name__}")
        cls = _product_class(cls, c)
        if cls is None:
            raise BackendMismatchError("entries from fields that do not mix")
    return cls


def _components(x):
    """(a, b, c, d, den) of a Fraction or QuadExt."""
    if type(x) is Fraction:
        return x.numerator, 0, 0, 0, x.denominator
    return x.a, x.b, x.c, x.d, x.den


def sub_scaled(xs, f, ys):
    """[x - f * y for x, y in zip(xs, ys)] with one canonicalisation per
    entry, or None under the same condition as ``dot_products``."""
    cls = _product_class(_one_class(xs),
                         _product_class(_one_class((f,)), _one_class(ys)))
    if cls is None:
        return None
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


def _quaternion_product(p, q):
    """p * q with each component one 4-term integer dot product, or None
    unless the components of p, and of q, share one exact class."""
    left, right = (p.w, p.x, p.y, p.z), (q.w, q.x, q.y, q.z)
    c1, c2 = _one_class(left), _one_class(right)
    kernel = _kernel(c1, c2)
    if kernel is None:
        return None
    cls, width, dot = kernel
    den1, (x,) = _int_form((left,), c1, width)
    den2, ((w, i, j, k),) = _int_form((right,), c2, width)
    ni, nj, nk = (-t if c2 is Fraction else tuple(map(neg, t))
                  for t in (i, j, k))
    den = den1 * den2
    D = cls.D if cls is not Fraction else None
    return Quaternion(*(_canonical(cls, dot(x, y, D), den) for y in (
        (w, ni, nj, nk), (i, w, k, nj), (j, nk, w, i), (k, j, ni, w))))


class Ring:
    """Handle bundling the identities and converters of one backend."""

    def __init__(self, name, zero, one, exact, from_rational, to_float):
        self.name = name
        self.zero = zero
        self.one = one
        self.exact = exact
        self.from_rational = from_rational
        self.to_float = to_float

    def __repr__(self):
        return f"Ring({self.name})"


def _quat_rational(q):
    q = _frac(q)
    return Quaternion(q, Fraction(0), Fraction(0), Fraction(0))


def _quat_sqrt5(q):
    z = QSqrt5(0, 0)
    return Quaternion(QSqrt5(_frac(q), 0), z, z, z)


def _quat_float(q):
    return Quaternion(float(q), 0.0, 0.0, 0.0)


def _quat_to_float(x):
    return Quaternion(float(x.w), float(x.x), float(x.y), float(x.z))


RING_RATIONAL = Ring("rational", Fraction(0), Fraction(1), True,
                     _frac, float)
RING_QSQRT2 = Ring("qsqrt2", QSqrt2(0), QSqrt2(1), True,
                   QSqrt2.from_rational, float)
RING_QSQRT5 = Ring("qsqrt5", QSqrt5(0), QSqrt5(1), True,
                   QSqrt5.from_rational, float)
RING_GAUSS_SQRT5 = Ring("gauss_sqrt5", GaussSqrt5(), GaussSqrt5(1), True,
                        GaussSqrt5.from_rational, complex)
RING_QUAT_RATIONAL = Ring("quat_rational", _quat_rational(0),
                          _quat_rational(1), True, _quat_rational,
                          _quat_to_float)
RING_QUAT_SQRT5 = Ring("quat_sqrt5", _quat_sqrt5(0), _quat_sqrt5(1), True,
                       _quat_sqrt5, _quat_to_float)
RING_FLOAT = Ring("float", 0.0, 1.0, False, float, float)
RING_COMPLEX = Ring("complex", complex(0), complex(1), False,
                    lambda q: complex(float(q)), complex)
RING_QUAT_FLOAT = Ring("quat_float", _quat_float(0), _quat_float(1), False,
                       _quat_float, lambda x: x)

# the exact rings by name: the rings a matrix literal may name
RINGS = {r.name: r for r in (
    RING_RATIONAL, RING_QSQRT2, RING_QSQRT5, RING_GAUSS_SQRT5,
    RING_QUAT_RATIONAL, RING_QUAT_SQRT5,
)}


def ring_of(x) -> Ring:
    if isinstance(x, Fraction):
        return RING_RATIONAL
    if isinstance(x, QSqrt2):
        return RING_QSQRT2
    if isinstance(x, QSqrt5):
        return RING_QSQRT5
    if isinstance(x, GaussSqrt5):
        return RING_GAUSS_SQRT5
    if isinstance(x, Quaternion):
        if isinstance(x.w, float):
            return RING_QUAT_FLOAT
        if isinstance(x.w, QSqrt5):
            return RING_QUAT_SQRT5
        return RING_QUAT_RATIONAL
    if isinstance(x, float):
        return RING_FLOAT
    if isinstance(x, complex):
        return RING_COMPLEX
    raise BackendMismatchError(f"unknown scalar backend for {x!r}")


def abs_float(x) -> float:
    """Magnitude of a scalar in any backend, as a float."""
    if isinstance(x, Quaternion):
        return math.sqrt(abs(to_float_scalar(x.norm_sq())))
    if isinstance(x, GaussSqrt5):
        return abs(complex(x))
    return abs(float(x)) if not isinstance(x, complex) else abs(x)


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


def to_float_scalar(x):
    """Map any exact scalar into its float-lane counterpart."""
    return ring_of(x).to_float(x)
