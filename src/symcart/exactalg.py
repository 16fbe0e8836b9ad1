"""Exact arithmetic substrate: Gaussian rationals, dense multivariate
polynomials over them, and linear algebra over both.

Everything downstream computes in Q(i). The monomial order is graded
reverse lexicographic, fixed once here; no floating point anywhere.
`mat_mul`, `mat_vec`, `mat_transpose`, `det_adjugate` and `mat_det`
take Q(i) or MultiPoly entries. `det_adjugate` is the one determinant
for both: the determinant and adjugate together from n `mat_mul`
products, dividing only by the integers 1..n, and certified by its last
product. `mat_det` is its determinant.

A polynomial has one store, on integers: a least common denominator
and, per packed exponent (the total degree above one FIELD_BITS field
per variable), the Gaussian-integer numerator of its coefficient. A
product's exponent is one int addition and grevlex one int comparison
(`_order`); Q(i) coefficients are built only when the `terms` view is
read. Every sum of polynomial products goes through one kernel,
`linear_combination`: it adds up the products on the stores' numerators
over one common denominator and normalises once, with one gcd. Its
callers are `MultiPoly` sums, differences, scalar multiples, `__mul__`
and `compose`, the polynomial `mat_mul`, `mat_vec` and the traces of a
polynomial `det_adjugate`, `WeylGroup.act` and the group's kept
averages (`average`, `field_average`), `invariants.reynolds`, and in
`vecfields` the field action `apply_to` (the jet gradient action
included), the pushed field, `reynolds_field`, `jet_mul` and
`jet_invert`.
`MultiPoly.shift`, behind `jet_of` and `Jet.polynomial`, expands
(x + a)^k binomially on the same integer numerators.

Every sum of Q(i) products goes through its scalar twin, `_dot`, in the
same way: the Q(i) `mat_mul` and `mat_vec`, the traces of a scalar
`det_adjugate`, the row reductions of `LinearSpan` (so every solve,
kernel, inverse and rank), `MultiPoly.evaluate`, and in `liesym` and
`rootsys` every bracket, ad matrix, trace form and kappa value.

All text input goes through one reader, `MultiPoly.parse`, on one token
grammar (`_TOKEN`); `parse_scalar` reads a polynomial in no variables.
A part is p, p/q, pi, p/qi or i, for decimal p and q > 0; a factor is a
part, a parenthesised sum of signed parts, xN or xN^k; `*` joins factors
and `+`/`-` separate terms, and sign runs may precede any factor.
Whitespace may surround operators and parentheses, never split a
literal. Each term is read into one packed exponent and one integer
coefficient, normalised once: no Fraction, no polynomial product.
"""

from __future__ import annotations

import re
from collections import namedtuple
from fractions import Fraction
from math import comb, gcd, isqrt, lcm, prod


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


# input tokens after optional whitespace: a part p, p/q, pi or p/qi (groups
# 1-3), the unit i (4), xN or xN^k (5-6), or any other character (7)
_TOKEN = re.compile(r"\s*(?:(\d+)(?:/(\d+))?(i?)|(i)|x(\d+)(?:\s*\^\s*(\d+))?|(\S))")


def parse_scalar(text: str) -> GaussianRational:
    """The scalar `text`, read as a polynomial in no variables."""
    return MultiPoly.parse(text, 0).constant_term()


# ------------------------------------------------------------------ polynomials

# An exponent vector e in n variables is packed into one int: e_i in the
# FIELD_BITS-bit field at bit FIELD_BITS * i, the total degree above them
# all. Every stored degree is below EXPONENT_BOUND, half a field, so the
# top bit of each field stays clear: a product's exponent is one addition
# that carries nothing, and in a difference the top bit of some field is
# set exactly when an exponent went negative.
FIELD_BITS = 16
EXPONENT_BOUND = 1 << FIELD_BITS - 1


def _pack(e):
    k = sum(e)
    if k >= EXPONENT_BOUND:
        raise ValueError(f"degree {k} reaches the exponent bound {EXPONENT_BOUND}")
    for x in reversed(e):
        k = k << FIELD_BITS | x
    return k


def _unpack(k, n):
    return tuple(k >> FIELD_BITS * i & EXPONENT_BOUND - 1 for i in range(n))


def _order(n):
    """Sort key of packed exponents in n variables, ascending grevlex: the
    degree, then the variable fields complemented, last variable first."""
    return ((1 << FIELD_BITS * n) - 1).__xor__


class MultiPoly:
    """Polynomial over Q(i), stored on integers: `_num` maps each packed
    exponent to the Gaussian-integer numerator [a, b] of its coefficient
    (a + b i)/`_den`, with `_den` > 0 and gcd(`_den`, every a, every b) = 1,
    so equal polynomials have equal stores. A value is never changed
    after construction. `terms`, exponent tuple -> Q(i), is a read view
    built on first use; arithmetic never reads it.
    """

    __slots__ = ("num_vars", "_den", "_num", "_terms")

    def __init__(self, num_vars, terms=None):
        clean = {}
        for e, c in (terms or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != num_vars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent {e} for {num_vars} variables")
            clean[_pack(e)] = c if isinstance(c, GaussianRational) else GaussianRational(c)
        _from_terms(num_vars, clean, self)

    @property
    def terms(self):
        if self._terms is None:
            n, D = self.num_vars, self._den
            self._terms = {_unpack(e, n): _qi(a, b, D) for e, (a, b) in self._num.items()}
        return self._terms

    # -- constructors

    @staticmethod
    def zero(num_vars):
        return MultiPoly(num_vars, {})

    @staticmethod
    def one(num_vars):
        return MultiPoly.constant(num_vars, QI_ONE)

    @staticmethod
    def constant(num_vars, c):
        return MultiPoly(num_vars, {(0,) * num_vars: c})

    @staticmethod
    def variable(num_vars, i):
        return MultiPoly.linear_form([QI_ONE if j == i else QI_ZERO for j in range(num_vars)])

    @staticmethod
    def linear_form(coeffs):
        """The linear polynomial sum_i coeffs[i] * x_i."""
        n = len(coeffs)
        terms = {}
        for i, c in enumerate(coeffs):
            e = [0] * n
            e[i] = 1
            terms[tuple(e)] = c
        return MultiPoly(n, terms)

    # -- basic queries

    def is_zero(self):
        return not self._num

    def degree(self):
        return max(self._num) >> FIELD_BITS * self.num_vars if self._num else -1

    def is_homogeneous(self):
        return len({e >> FIELD_BITS * self.num_vars for e in self._num}) <= 1

    def homogeneous_components(self):
        parts = {}
        for e, t in self._num.items():
            parts.setdefault(e >> FIELD_BITS * self.num_vars, {})[e] = t
        return {d: _normal(self.num_vars, self._den, t) for d, t in sorted(parts.items())}

    def leading_term(self):
        if not self._num:
            raise ValueError("zero polynomial has no leading term")
        e = max(self._num, key=_order(self.num_vars))
        return _unpack(e, self.num_vars), _qi(*self._num[e], self._den)

    def constant_term(self):
        t = self._num.get(0)
        return _qi(*t, self._den) if t else QI_ZERO

    def coefficient_vector(self, monomials):
        return [self.terms.get(e, QI_ZERO) for e in monomials]

    # -- arithmetic

    def _check(self, other):
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")

    def __add__(self, other, sign=QI_ONE):
        if not isinstance(other, MultiPoly):
            other = GaussianRational._coerce(other)
            if other is None:
                return NotImplemented
            other = MultiPoly.constant(self.num_vars, other)
        self._check(other)
        return linear_combination(self.num_vars, ((QI_ONE, self), (sign, other)))

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(other, (-1, 0, 1))

    def __neg__(self):
        return linear_combination(self.num_vars, (((-1, 0, 1), self),))

    def __mul__(self, other):
        if isinstance(other, MultiPoly):
            self._check(other)
            return linear_combination(self.num_vars, ((self, other),))
        other = GaussianRational._coerce(other)
        if other is None:
            return NotImplemented
        return linear_combination(self.num_vars, ((other, self),))

    def __rmul__(self, other):
        return self * other

    def __pow__(self, k):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only nonnegative integer powers")
        out = MultiPoly.one(self.num_vars)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.num_vars, self._den, self._num) == (other.num_vars, other._den, other._num)

    # -- calculus and substitution

    def partial(self, i):
        n = self.num_vars
        if not 0 <= i < n:
            raise IndexError(f"no variable x{i} among {n}")
        step = (1 << FIELD_BITS * n) + (1 << FIELD_BITS * i)
        acc = {}
        for e, (a, b) in self._num.items():
            k = e >> FIELD_BITS * i & EXPONENT_BOUND - 1
            if k:
                acc[e - step] = [a * k, b * k]
        return _normal(n, self._den, acc)

    def evaluate(self, point):
        if len(point) != self.num_vars:
            raise ValueError("point dimension mismatch")
        # powers[i][k] is point[i]^k, built once per call
        powers = []
        for i, p in enumerate(point):
            p = GaussianRational._coerce(p)
            pw = [QI_ONE]
            for _ in range(max((e[i] for e in self.terms), default=0)):
                pw.append(pw[-1] * p)
            powers.append(pw)
        monomials = [
            prod((pw[k] for pw, k in zip(powers, e) if k), start=QI_ONE)
            for e in self.terms
        ]
        return _dot(None, self.terms.values(), monomials)

    def compose(self, subs):
        """Substitute subs[i] for variable i; subs share one variable count."""
        if len(subs) != self.num_vars:
            raise ValueError("need one substitution per variable")
        n = subs[0].num_vars
        one = MultiPoly.one(n)
        # powers[i][k] is subs[i]^k, extended on demand
        powers = [[one] for _ in subs]
        pairs = []
        for e, (a, b) in self._num.items():
            term = one
            for i, k in enumerate(_unpack(e, self.num_vars)):
                if k:
                    cache = powers[i]
                    while len(cache) <= k:
                        cache.append(cache[-1] * subs[i])
                    term = cache[k] if term is one else term * cache[k]
            pairs.append(((a, b, self._den), term))
        return linear_combination(n, pairs)

    def compose_linear(self, M):
        """f(Mx): substitute row i of M (as a linear form) for variable i."""
        return self.compose([MultiPoly.linear_form(row) for row in M])

    def shift(self, point):
        """f(x + point), by the binomial expansion of every power
        (x_i + a_i)^k = sum_j C(k, j) a_i^(k - j) x_i^j.

        With the point as Gaussian integers A_i over its denominator d,
        row (i, k) holds C(k, j) A_i^(k - j) d^j for j = 0..k, built once
        per call; the product of the rows of a term of degree m, times
        d^(top - m), is its expansion over `_den` d^top, for the top
        degree `top` of f. All of it is added up on the integer store and
        normalised once.
        """
        n = self.num_vars
        if len(point) != n:
            raise ValueError("point dimension mismatch")
        a = [GaussianRational._coerce(x) for x in point]
        if not self._num or not any(a):
            return self
        d = lcm(*[x._d for x in a])
        top = self.degree()
        binomial = {}
        acc = {}
        for e, (re, im) in self._num.items():
            s = d ** (top - (e >> FIELD_BITS * n))
            parts = [(0, re * s, im * s)]
            for i, k in enumerate(_unpack(e, n)):
                row = binomial.get((i, k))
                if row is None:
                    x = a[i]
                    z = x._a * (d // x._d), x._b * (d // x._d)
                    unit = (1 << FIELD_BITS * n) + (1 << FIELD_BITS * i)
                    row = binomial[i, k] = _binomial_row(z, d, k, unit)
                parts = [
                    (x + j, u * p - v * q, u * q + v * p)
                    for x, u, v in parts
                    for j, p, q in row
                ]
            for x, u, v in parts:
                t = acc.get(x)
                if t is None:
                    acc[x] = [u, v]
                else:
                    t[0] += u
                    t[1] += v
        return _normal(n, self._den * d**top, acc)

    # -- division

    def divmod_by(self, p: "MultiPoly"):
        """Quotient and remainder for the single divisor p under grevlex,
        on packed exponents and Q(i) coefficients."""
        self._check(p)
        if p.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        n = self.num_vars
        key = _order(n)
        # the top bit of every variable field: set in e - pe exactly when
        # the leading monomial of p does not divide x^e
        guards = sum(EXPONENT_BOUND << FIELD_BITS * i for i in range(n))
        pe = max(p._num, key=key)
        pc = _qi(*p._num[pe], p._den)
        # the other terms of p, by their exponent's offset from pe
        rest = [(e - pe, _qi(a, b, p._den)) for e, (a, b) in p._num.items() if e != pe]
        q = {}
        r = {}
        work = {e: _qi(a, b, self._den) for e, (a, b) in self._num.items()}
        while work:
            e = max(work, key=key)
            c = work.pop(e)
            if (e - pe) & guards:
                r[e] = c
                continue
            f = c / pc
            q[e - pe] = f
            for off, c2 in rest:
                nc = work.get(e + off, QI_ZERO) - f * c2
                if nc:
                    work[e + off] = nc
                else:
                    work.pop(e + off, None)
        return _from_terms(n, q), _from_terms(n, r)

    # -- rendering

    def render(self):
        if not self._num:
            return "(0)"
        pieces = []
        for e in sorted(self._num, key=_order(self.num_vars), reverse=True):
            factors = [f"({render_scalar(_qi(*self._num[e], self._den))})"]
            for i, k in enumerate(_unpack(e, self.num_vars)):
                if k == 1:
                    factors.append(f"x{i}")
                elif k > 1:
                    factors.append(f"x{i}^{k}")
            pieces.append("*".join(factors))
        return " + ".join(pieces)

    @staticmethod
    def parse(text: str, num_vars: int) -> "MultiPoly":
        """The one input reader, on the grammar of the module docstring:
        `want` says an operand comes next, `group` is the open
        parenthesised sum and (a + b i)/d x^e the open term."""
        terms = []
        a, b, d, e = 1, 0, 1, [0] * num_vars
        group = None
        sign, want = 1, True
        for p, q, im, unit, var, k, op in _TOKEN.findall(text):
            if op and op in "+-":
                if not want and group is None:
                    terms.append((_pack(e), a, b, d))
                    a, b, d, e = 1, 0, 1, [0] * num_vars
                sign, want = -sign if op == "-" else sign, True
                continue
            if op == "*" and not want and group is None:
                want = True
                continue
            if op == "(" and want and group is None:
                a, b, sign, group = a * sign, b * sign, 1, (0, 0, 1)
                continue
            if op == ")" and not want and group:
                (x, y, z), group = group, None
            elif var and want and group is None:
                if int(var) >= num_vars:
                    raise ValueError(f"variable x{var} out of range")
                e[int(var)] += int(k or 1)
                x, y, z = sign, 0, 1
            elif (p or unit) and want:
                x, z = sign * int(p or 1), int(q or 1)
                if not z:
                    raise ValueError(f"zero denominator in scalar {text!r}")
                x, y = (0, x) if im or unit else (x, 0)
            else:
                raise ValueError(f"cannot parse {text!r}")
            if group:  # a part inside parentheses
                u, v, w = group
                group = (u * z + x * w, v * z + y * w, w * z)
            else:
                a, b, d = a * x - b * y, a * y + b * x, d * z
            sign, want = 1, False
        if want or group:
            raise ValueError(f"cannot parse {text!r}" if text.strip() else "empty polynomial")
        terms.append((_pack(e), a, b, d))
        D = lcm(*[t[3] for t in terms])
        acc = {}
        for e, a, b, d in terms:
            t = acc.setdefault(e, [0, 0])
            t[0] += a * (D // d)
            t[1] += b * (D // d)
        return _normal(num_vars, D, acc)

    def __repr__(self):
        return f"MultiPoly({self.num_vars}, {self.render()})"


def _from_terms(num_vars, terms, p=None):
    """MultiPoly from packed exponents and Q(i) coefficients, over their
    least common denominator; stored in p when it is given."""
    D = lcm(*[c._d for c in terms.values()])
    acc = {e: [c._a * (D // c._d), c._b * (D // c._d)] for e, c in terms.items()}
    return _normal(num_vars, D, acc, p)


def _normal(num_vars, D, acc, p=None):
    """MultiPoly with coefficient (a + b i)/D at e, from {e: [a, b]}: the
    zero terms dropped and the content removed by one gcd; stored in p
    when it is given."""
    acc = {e: t for e, t in acc.items() if t[0] or t[1]}
    g = gcd(D, *[x for t in acc.values() for x in t])
    if g > 1:
        D //= g
        acc = {e: [a // g, b // g] for e, (a, b) in acc.items()}
    p = p or object.__new__(MultiPoly)
    p.num_vars, p._den, p._num, p._terms = num_vars, D, acc, None
    return p


def _binomial_row(z, d, k, unit):
    """[(j * unit, re, im)] for the nonzero C(k, j) z^(k - j) d^j,
    j = 0..k, with the Gaussian integer z = (re, im) and the packed unit
    exponent `unit`."""
    x, y = z
    powers = [(1, 0)]
    for _ in range(k):
        p, q = powers[-1]
        powers.append((p * x - q * y, p * y + q * x))
    row = []
    for j in range(k + 1):
        p, q = powers[k - j]
        if p or q:
            s = comb(k, j) * d**j
            row.append((j * unit, p * s, q * s))
    return row


def linear_combination(num_vars, pairs):
    """sum a * p over the pairs (a, p) of a MultiPoly p and a first factor
    a that is a MultiPoly, a Q(i) scalar or the integer triple (x, y, d)
    of the scalar (x + y i)/d.

    The one accumulation kernel: every product is added up on the
    Gaussian-integer numerators over one common denominator, with one int
    addition per exponent, and the sum is normalised once. Two polynomial
    factors whose degrees add up to `EXPONENT_BOUND` are refused with a
    ValueError, before any exponent field could carry.
    """
    top = FIELD_BITS * num_vars
    forms = []
    D = 1
    for a, p in pairs:
        tp = p._num
        if isinstance(a, MultiPoly):
            da, ta = a._den, a._num.items()
            # the degree is the top field, so it adds up with the exponents
            if ta and tp and (k := max(a._num) + max(tp) >> top) >= EXPONENT_BOUND:
                raise ValueError(f"product degree {k} reaches the exponent bound {EXPONENT_BOUND}")
        else:
            x, y, da = a if type(a) is tuple else (a._a, a._b, a._d)
            ta = ((0, (x, y)),) if x or y else ()
        if ta and tp:
            d = da * p._den
            forms.append((ta, d, tp.items()))
            D = lcm(D, d)
    acc = {}
    for ta, d, tp in forms:
        s = D // d
        for e1, (x, y) in ta:
            x, y = x * s, y * s
            for e2, (u, v) in tp:
                e = e1 + e2
                t = acc.get(e)
                if t is None:
                    acc[e] = [x * u - y * v, x * v + y * u]
                else:
                    t[0] += x * u - y * v
                    t[1] += x * v + y * u
    return _normal(num_vars, D, acc)


def poly_divides(f: MultiPoly, p: MultiPoly):
    """Quotient q with f = p*q, or None when f is not in the ideal (p).

    A single polynomial is a Groebner basis of the ideal it generates, so a
    zero remainder under division is equivalent to membership.
    """
    q, r = f.divmod_by(p)
    return q if r.is_zero() else None


# ------------------------------------------------------------------ matrices

def det_adjugate(M):
    """Determinant and adjugate of a square matrix over Q(i) or Q(i)[x], by
    the Faddeev-LeVerrier recurrence (Gantmacher, The Theory of Matrices,
    vol. 1, ch. IV) for -M, which leaves no sign: from B_0 = 0 and c_0 = 1,
    B_k = c_(k-1) I - M B_(k-1) and c_k = tr(M B_k)/k give det = c_n and
    adj = B_n. The only divisions are by the integers 1..n. The last
    product is certified: M B_n = c_n I (Cayley-Hamilton), so a wrong
    determinant or adjugate raises, never returns.
    """
    n = len(M)
    if not n or any(len(row) != n for row in M):
        raise ValueError("matrix is empty or not square")
    nv = _poly_vars(M[0][0])
    zero, c = (QI_ZERO, QI_ONE) if nv is None else (MultiPoly.zero(nv), MultiPoly.one(nv))
    MB = [[zero] * n] * n
    for k in range(1, n + 1):
        B = [[c - x if i == j else -x for j, x in enumerate(r)] for i, r in enumerate(MB)]
        MB = mat_mul(M, B)
        c = _dot(nv, [_qi(1, 0, k)] * n, [r[i] for i, r in enumerate(MB)])
    for i, row in enumerate(MB):
        for j, x in enumerate(row):
            if x != (c if i == j else zero):
                raise CertificationError(
                    "adjugate_identity",
                    {"row": i, "column": j,
                     "entry": render_scalar(x) if nv is None else x.render()},
                )
    return c, B


# particular is None when the system is inconsistent
LinearSolution = namedtuple("LinearSolution", "rank particular kernel")


def _rref(rows, length):
    """Reduced row echelon form of the rows, as (pivot, row) pairs sorted
    by pivot: the one elimination behind every solve, kernel, inverse and
    rank. The form is unique, so it does not depend on the row order."""
    span = LinearSpan(length)
    for row in rows:
        span.add(row)
    return span.rows


def solve_exact(A, b) -> LinearSolution:
    """Exact Gaussian elimination over Q(i): rank, one solution, kernel basis.

    Row-reduces [A | b]; a pivot in the b column is an inconsistency,
    reported (particular = None), never raised.
    """
    n = len(A[0]) if A else 0
    rows = _rref([list(r) + [x] for r, x in zip(A, b)], n + 1)
    pivoted = [(p, row) for p, row in rows if p < n]
    kernel = _kernel_from_rref(pivoted, n)
    if len(pivoted) < len(rows):
        return LinearSolution(len(pivoted), None, kernel)
    particular = [QI_ZERO] * n
    for p, row in pivoted:
        particular[p] = row[n]
    return LinearSolution(len(pivoted), particular, kernel)


def _kernel_from_rref(rows, n):
    pivots = {p for p, _ in rows}
    basis = []
    for f in range(n):
        if f in pivots:
            continue
        v = [QI_ZERO] * n
        v[f] = QI_ONE
        for p, row in rows:
            v[p] = -row[f]
        basis.append(v)
    return basis


def _dot(num_vars, xs, ys):
    """sum x * y over the entries: when `num_vars` is not None one
    `linear_combination` with the polynomial of each product second.

    In Q(i) it is that kernel's scalar twin: the nonzero products are
    added up as Gaussian-integer numerators over one common denominator,
    and the sum is brought to lowest terms once.
    """
    if num_vars is not None:
        return linear_combination(
            num_vars,
            [(x, y) if isinstance(y, MultiPoly) else (y, x) for x, y in zip(xs, ys)],
        )
    re = im = 0
    D = 1
    for x, y in zip(xs, ys):
        a, b = x._a, x._b
        if a or b:
            c, e = y._a, y._b
            if c or e:
                d = x._d * y._d
                if D % d:
                    s = lcm(D, d) // D
                    re, im, D = re * s, im * s, D * s
                s = D // d
                re += (a * c - b * e) * s
                im += (a * e + b * c) * s
    return _qi(re, im, D)


def _poly_vars(*entries):
    """Variable count of the first MultiPoly among the entries, or None."""
    return next((x.num_vars for x in entries if isinstance(x, MultiPoly)), None)


def mat_mul(A, B):
    n = _poly_vars(*A[0][:1], *B[0][:1]) if A and B else None
    cols = list(zip(*B))
    return [[_dot(n, row, col) for col in cols] for row in A]


def mat_vec(A, v):
    n = _poly_vars(*A[0][:1], *v[:1]) if A else None
    return [_dot(n, row, v) for row in A]


def mat_identity(n):
    return [[QI_ONE if i == j else QI_ZERO for j in range(n)] for i in range(n)]


def mat_transpose(A):
    return [list(col) for col in zip(*A)]


def mat_det(A):
    """Determinant of a square matrix over Q(i) or Q(i)[x]: that of
    `det_adjugate`, whose recurrence certifies itself."""
    return det_adjugate(A)[0]


def mat_inverse(A):
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    aug = [list(A[i]) + [QI_ONE if j == i else QI_ZERO for j in range(n)] for i in range(n)]
    rows = _rref(aug, 2 * n)
    if [p for p, _ in rows] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for _, row in rows]


def mat_rank(A):
    return len(_rref(A, len(A[0]) if A else 0))


def kernel_basis(A):
    n = len(A[0]) if A else 0
    return _kernel_from_rref(_rref(A, n), n)


class LinearSpan:
    """Incrementally built row space in reduced echelon form."""

    def __init__(self, length):
        self.length = length
        self.rows = []  # (pivot index, normalized vector), sorted by pivot

    def reduce(self, vec):
        """vec minus one combination of the rows: they are fully reduced,
        so the coefficient of each is the entry of vec at its pivot."""
        v = [GaussianRational._coerce(x) for x in vec]
        used = [(-v[piv], row) for piv, row in self.rows if v[piv]]
        if not used:
            return v
        coeffs = [QI_ONE] + [f for f, _ in used]
        return [_dot(None, coeffs, col) for col in zip(v, *[row for _, row in used])]

    def contains(self, vec):
        return all(x.is_zero() for x in self.reduce(vec))

    def add(self, vec) -> bool:
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if not x.is_zero()), None)
        if piv is None:
            return False
        p = v[piv]
        v = [x / p if x else x for x in v]
        for k, (p2, row) in enumerate(self.rows):
            if row[piv]:
                coeffs = (QI_ONE, -row[piv])
                self.rows[k] = (p2, [_dot(None, coeffs, xy) for xy in zip(row, v)])
        self.rows.append((piv, v))
        self.rows.sort(key=lambda t: t[0])
        return True

    @property
    def dim(self):
        return len(self.rows)

    @property
    def basis(self):
        return [row for _, row in self.rows]


# ------------------------------------------------------------------ spectra

def matrix_min_poly(A):
    """Monic minimal polynomial of a square Q(i) matrix, a MultiPoly in
    one variable.

    Each power A^k is flattened, tagged with the unit vector e_k and
    reduced in one span. Row operations keep every row a combination of
    the tagged powers with its tag as coefficients, so the first power
    whose flattened part reduces to zero carries the monic relation of
    least degree in its tag. By Cayley-Hamilton that happens by k = n.
    """
    n = len(A)
    nn = n * n
    span = LinearSpan(nn + n + 1)
    power = mat_identity(n)
    for k in range(n + 1):
        tag = [QI_ONE if j == k else QI_ZERO for j in range(n + 1)]
        v = span.reduce([x for row in power for x in row] + tag)
        if all(x.is_zero() for x in v[:nn]):
            return MultiPoly(1, {(j,): c for j, c in enumerate(v[nn:])})
        span.add(v)
        power = mat_mul(power, A)
    raise CertificationError(
        "min_poly_relation", {"size": n, "independent_powers": n + 1}
    )


def _gaussian_int_divisors(a, b):
    """All Gaussian integers (x, y) dividing a + bi (which must be
    nonzero): the four units times each product of its prime factors.

    The rational primes p below them come by trial division of
    g = gcd(a, b) and of the norm of (a + bi)/g. Above p lie 1 + i for
    p = 2, p for p = 3 mod 4, and for p = 1 mod 4 the conjugates s +- yi
    with s^2 + y^2 = p, read off Euclid's algorithm on p and a root of
    -1 mod p (Hermite-Serret).
    """
    g = gcd(a, b)
    primes = set()
    for n in (g, (a * a + b * b) // (g * g)):
        p = 2
        while p * p <= n:
            if n % p:
                p += 1
            else:
                primes.add(p)
                n //= p
        if n > 1:
            primes.add(n)
    out = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    for p in primes:
        if p % 4 != 1:
            above = [(1, 1) if p == 2 else (p, 0)]
        else:
            c = 2
            while pow(c, p // 2, p) == 1:
                c += 1
            r, s = p, pow(c, p // 4, p)
            while s * s > p:
                r, s = s, r % s
            y = isqrt(p - s * s)
            above = [(s, y), (s, -y)]
        for x, y in above:
            # the powers of x + yi that divide a + bi
            n = x * x + y * y
            powers = [(1, 0)]
            u, v = a, b
            while (u * x + v * y) % n == 0 and (v * x - u * y) % n == 0:
                u, v = (u * x + v * y) // n, (v * x - u * y) // n
                c, d = powers[-1]
                powers.append((c * x - d * y, c * y + d * x))
            out = [(c * e - d * f, c * f + d * e) for c, d in out for e, f in powers]
    return out


# the largest norm of an end coefficient whose divisors the root search
# enumerates: factoring it takes at most about its square root in trial
# divisions, half a second at this size on a 2-core host
MAX_ROOT_SEARCH_NORM = 10**13


def gaussian_rational_roots(f):
    """Distinct roots in Q(i) of the one-variable MultiPoly f, plus a
    flag: does f split completely?

    Candidate roots p/q come from Gaussian-integer divisors of the (cleared)
    constant and leading coefficients; each is verified by exact evaluation
    and removed by exact division by x - r, so the flag is honest. Either
    coefficient of norm above `MAX_ROOT_SEARCH_NORM` is refused with a
    ValueError before any divisor is sought.
    """
    if f.degree() <= 0:
        return [], True
    x = MultiPoly.variable(1, 0)
    roots = []
    # strip roots at zero first
    while f.constant_term().is_zero():
        if not roots:
            roots.append(QI_ZERO)
        f = f.divmod_by(x)[0]
    if f.degree() == 0:
        return roots, True
    # the Gaussian-integer numerators of the constant and leading terms
    ends = []
    for a, b in (f._num[0], f._num[max(f._num)]):
        if a * a + b * b > MAX_ROOT_SEARCH_NORM:
            raise ValueError(
                "root search refused: the constant or leading coefficient has "
                f"norm {a * a + b * b} after clearing denominators, "
                f"above {MAX_ROOT_SEARCH_NORM}"
            )
        ends.append(_gaussian_int_divisors(a, b))
    # p runs over the constant's divisors with all four associates, so
    # p/(u q) = (p/u)/q for a unit u: the one associate x + yi of each q
    # with x > 0 <= y gives every candidate
    candidates = list(
        {Qi(*p) / Qi(*q) for p in ends[0] for q in ends[1] if q[0] > 0 <= q[1]}
    )
    for i in exact_order([[r] for r in candidates]):
        r = candidates[i]
        while f.degree() >= 1 and f.evaluate([r]).is_zero():
            if r not in roots:
                roots.append(r)
            f = f.divmod_by(x - r)[0]
    return roots, f.degree() == 0


class SpectrumError(ValueError):
    """A spectrum does not split over Q(i)."""


def joint_eigenspaces(mats):
    """Joint eigenspaces of commuting square Q(i) matrices, with the one
    semisimplicity certificate: `(blocks, None)` or `(None, i)`.

    The space is split one matrix A at a time: every current block is cut
    into the kernels of A - lambda on it, for lambda over the roots of the
    minimal polynomial of A (`SpectrumError`, naming the index of A, if it
    does not split). A is diagonalisable exactly when these kernels fill
    every block (Humphreys, *Introduction to Lie Algebras*, section 8); the
    first A whose kernels miss part of a block is reported by its index i.
    Otherwise `blocks` lists the joint eigenspaces as (eigenvalue tuple,
    basis) pairs.
    """
    n = len(mats[0])
    blocks = [((), mat_identity(n))]  # eigenvalues so far, block basis
    for idx, A in enumerate(mats):
        eigs, split = gaussian_rational_roots(matrix_min_poly(A))
        if not split:
            raise SpectrumError(
                f"the minimal polynomial of matrix {idx} does not split over Q(i)"
            )
        finer = []
        for func, basis in blocks:
            images = [mat_vec(A, v) for v in basis]
            basis_t = mat_transpose(basis)
            filled = 0
            for lam in eigs:
                # coordinates u with (A - lam) sum_k u_k basis_k = 0
                coeffs = (QI_ONE, -lam)
                M = [
                    [_dot(None, coeffs, (w[r], v[r])) for v, w in zip(basis, images)]
                    for r in range(n)
                ]
                sub = [mat_vec(basis_t, u) for u in kernel_basis(M)]
                if sub:
                    finer.append((func + (lam,), sub))
                    filled += len(sub)
            if filled != len(basis):
                return None, idx
        blocks = finer
    return blocks, None
