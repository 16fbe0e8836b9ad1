"""Gaussian rationals: the scalar field Q(i) that every computation
works in, with no floating point anywhere.

A scalar is a canonical triple of ints (`GaussianRational`); `_qi` brings
any triple to it with one gcd. The module also holds `CertificationError`,
raised wherever a computed result fails an identity the mathematics
guarantees, and the renderers and the exact order of scalar sequences
that the reports use.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


class CertificationError(RuntimeError):
    """A computed result failed an identity the mathematics guarantees.

    `name` is the check as the command line reports it and `witness` a
    JSON-ready dict describing the failure.  Each check is an explicit
    `if`, so `python -O` keeps it.
    """

    def __init__(self, name, witness):
        super().__init__(f"{name} failed: {witness}")
        self.name = name
        self.witness = witness


class GaussianRational:
    """Element (a + b i)/d of Q(i), kept as three ints with d > 0 and
    gcd(a, b, d) = 1, so equal values have equal triples. Each operation
    takes one `math.gcd`, and two ints are taken as the triple (a, b, 1)
    as they stand. Every computation reads the triple; a `Fraction` is
    made only to read one passed in, or for `real`, `imag` and `repr`.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, real=0, imag=0):
        if type(real) is int and type(imag) is int:
            self._a, self._b, self._d = real, imag, 1
            return
        re, im = Fraction(real), Fraction(imag)
        d = lcm(re.denominator, im.denominator)
        # the part whose denominator holds the top power of a prime p is
        # prime to p, so the triple is already in lowest terms
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, int):
            return _qi(other, 0, 1)
        if isinstance(other, Fraction):
            return _qi(other.numerator, 0, other.denominator)
        return None

    @property
    def real(self):
        return Fraction(self._a, self._d)

    @property
    def imag(self):
        return Fraction(self._b, self._d)

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            return _qi(self._a + o._a, self._b + o._b, d)
        return _qi(self._a * e + o._a * d, self._b * e + o._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        d, e = self._d, o._d
        if d == e:
            return _qi(self._a - o._a, self._b - o._b, d)
        return _qi(self._a * e - o._a * d, self._b * e - o._b * d, d * e)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        return _qi(a * c - b * e, a * e + b * c, self._d * o._d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b, c, e = self._a, self._b, o._a, o._b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        # (a + b i)/d divided by (c + e i)/f is (a + b i)(c - e i) f / (d n)
        f = o._d
        return _qi((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __neg__(self):
        return _qi(-self._a, -self._b, self._d)

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = QI_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._a == o._a and self._b == o._b and self._d == o._d

    def __hash__(self):
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def is_zero(self):
        return self._a == 0 and self._b == 0

    def __repr__(self):
        return f"Qi({self.real!s}, {self.imag!s})"


def _qi(a, b, d):
    """(a + b i)/d for ints with d > 0, brought to the canonical triple."""
    g = gcd(a, b, d)
    x = object.__new__(GaussianRational)
    if g == 1:
        x._a, x._b, x._d = a, b, d
    else:
        x._a, x._b, x._d = a // g, b // g, d // g
    return x


Qi = GaussianRational

QI_ZERO = Qi(0)
QI_ONE = Qi(1)


def _part(n, d):
    """n/d as `str(Fraction(n, d))` writes it, for d > 0."""
    g = gcd(n, d)
    return str(n // g) if g == d else f"{n // g}/{d // g}"


def render_scalar(s: GaussianRational) -> str:
    a, b, d = s._a, s._b, s._d
    if b == 0:
        return _part(a, d)
    if a == 0:
        return f"{_part(b, d)}i"
    if b < 0:
        return f"{_part(a, d)} - {_part(-b, d)}i"
    return f"{_part(a, d)} + {_part(b, d)}i"


def exact_order(rows):
    """Indices of the Q(i) sequences `rows` in the order of their entries'
    (real, imag) pairs, compared entry by entry: sorted on the integer
    numerators over the common denominator of every entry."""
    D = lcm(*[x._d for r in rows for x in r])
    keys = [
        [v for x in r for v in (x._a * (D // x._d), x._b * (D // x._d))] for r in rows
    ]
    return sorted(range(len(rows)), key=keys.__getitem__)


def render_vector(v):
    return [render_scalar(x) for x in v]


def render_matrix(m):
    return [render_vector(row) for row in m]
