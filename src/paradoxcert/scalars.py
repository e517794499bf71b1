"""Exact scalar backends.

Everything structural in this package is checked with exact arithmetic, so
group elements and points carry entries from one of a few field towers:

* ``Fraction``            -- the rationals (stdlib, used as-is)
* ``QSqrt2``              -- a + b*sqrt(2), a,b rational
* ``QSqrt5``              -- a + b*sqrt(5), a,b rational
* ``GaussSqrt5``          -- a + b*sqrt(5) + (c + d*sqrt(5))i, a..d rational
* ``Quaternion``          -- w + xi + yj + zk over any real backend above

plus plain ``float``/``complex``/float quaternions for the verification-only
float lane. Every scalar type supports ``+ - * /``, ``conjugate()`` and is
hashable, so generic linear algebra can stay backend-agnostic.

The three quadratic fields share one implementation, ``QuadExt``: integers
(a, b, c, d, den) standing for (a + b*sqrt(D) + (c + d*sqrt(D))i) / den in
canonical form (den > 0, gcd of all five = 1), so equal values have equal
components and no operation pays for per-component rational gcds.  The
subclasses only pin D, whether i is present, and the constructor: QSqrt2
and QSqrt5 take two rationals, GaussSqrt5 the five integers.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import BackendMismatchError


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
    wider one, so QSqrt5 * GaussSqrt5 is a GaussSqrt5; classes of different
    D do not mix.
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
        if isinstance(other, QuadExt) and other.D == self.D:
            return (cls if self.HAS_I else type(other)), other
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
        return self + (-co[1])

    def __rsub__(self, other):
        co = self._coerce(other)
        if co is None:
            return NotImplemented
        return co[1] + (-self)

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
        # With y = den * self and z = conj(y) (or z = 1 when y is real),
        # y z = n0 + n1 sqrt(D) is real, and its norm n0^2 - D n1^2 is a
        # nonzero integer for nonzero y because sqrt(D) is irrational; so
        # self^-1 = den * z * (n0 - n1 sqrt(D)) / (n0^2 - D n1^2).
        a, b, c, d, D = self.a, self.b, self.c, self.d, self.D
        if c or d:
            n0 = a * a + D * b * b + c * c + D * d * d
            n1 = 2 * (a * b + c * d)
            za, zb, zc, zd = a, b, -c, -d
        elif a or b:
            n0, n1, za, zb, zc, zd = a, b, 1, 0, 0, 0
        else:
            raise ZeroDivisionError("division by zero")
        k = self.den
        return _make(
            type(self),
            k * (za * n0 - D * zb * n1), k * (zb * n0 - za * n1),
            k * (zc * n0 - D * zd * n1), k * (zd * n0 - zc * n1),
            n0 * n0 - D * n1 * n1,
        )

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
        # rational values hash like the equal Fraction
        if self.b or self.c or self.d:
            return hash((self.D, self.a, self.b, self.c, self.d, self.den))
        return hash(Fraction(self.a, self.den))

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
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
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

    def __truediv__(self, other):
        # right division: self * other^-1 (matches elimination usage)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def is_zero(self):
        return not (self.w or self.x or self.y or self.z)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (self.w, self.x, self.y, self.z) == (o.w, o.x, o.y, o.z)

    def __hash__(self):
        return hash((self.w, self.x, self.y, self.z))

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


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

RINGS = {r.name: r for r in (
    RING_RATIONAL, RING_QSQRT2, RING_QSQRT5, RING_GAUSS_SQRT5,
    RING_QUAT_RATIONAL, RING_QUAT_SQRT5, RING_FLOAT, RING_COMPLEX,
    RING_QUAT_FLOAT,
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


_FLOAT_LANE = {
    "rational": "float", "qsqrt2": "float", "qsqrt5": "float",
    "gauss_sqrt5": "complex", "quat_rational": "quat_float",
    "quat_sqrt5": "quat_float", "float": "float",
    "complex": "complex", "quat_float": "quat_float",
}


def float_ring_of(ring: Ring) -> Ring:
    """Float lane counterpart of an exact ring."""
    return RINGS[_FLOAT_LANE[ring.name]]


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
    if isinstance(x, float):
        return x
    if isinstance(x, complex):
        return {"re": x.real, "im": x.imag}
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
    if name in ("quat_rational", "quat_sqrt5", "quat_float"):
        comp = {"quat_rational": RING_RATIONAL,
                "quat_sqrt5": RING_QSQRT5,
                "quat_float": RING_FLOAT}[name]
        return Quaternion(*(scalar_from_json(obj[k], comp)
                            for k in ("w", "x", "y", "z")))
    if name == "float":
        return float(obj)
    if name == "complex":
        return complex(obj["re"], obj["im"])
    raise BackendMismatchError(f"unknown ring {name}")


def to_float_scalar(x):
    """Map any exact scalar into its float-lane counterpart."""
    return ring_of(x).to_float(x)


def scalar_key(x):
    """Ring-independent hashable form of an exact scalar.

    Equal values land on equal keys even when they live in different exact
    backends (a rational inside QSqrt2 versus a bare Fraction, a real
    quaternion versus its real part, and so on).  Used wherever point keys
    built over one ring are looked up against keys built over another.
    """
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, Fraction):
        return x
    if isinstance(x, QuadExt):
        if x.c or x.d:
            return (f"gauss{x.D}",) + x._parts()
        if x.b:
            return ("sqrt", x.D) + x._parts()[:2]
        return Fraction(x.a, x.den)
    if isinstance(x, Quaternion):
        parts = (scalar_key(x.w), scalar_key(x.x),
                 scalar_key(x.y), scalar_key(x.z))
        if parts[1] == 0 and parts[2] == 0 and parts[3] == 0:
            return parts[0]
        return ("quat",) + parts
    raise BackendMismatchError(f"no exact key for {x!r}")
