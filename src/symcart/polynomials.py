"""Multivariate polynomials over Q(i), their one accumulation kernel and
its scalar twin, and the one text reader.

The monomial order is graded reverse lexicographic, fixed once here. A
polynomial has one store, on integers: a least common denominator and,
per packed exponent (the total degree above one FIELD_BITS field per
variable), the Gaussian-integer numerator of its coefficient. A
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
from math import comb, gcd, lcm, prod

from .scalars import QI_ONE, QI_ZERO, GaussianRational, _qi, render_scalar

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


def _dot(num_vars, xs, ys):
    """sum x * y over the entries: when `num_vars` is not None one
    `linear_combination` with the polynomial of each product second.

    In Q(i) it is that kernel's scalar twin: the nonzero products are
    added up as Gaussian-integer numerators over one common denominator,
    and the sum is brought to lowest terms once; a zero sum is the shared
    `QI_ZERO`, with no gcd.
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
    return _qi(re, im, D) if re or im else QI_ZERO
