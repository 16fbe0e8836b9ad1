"""Exact arithmetic substrate: Gaussian rationals, dense multivariate
polynomials over them, and linear algebra over both.

Everything downstream computes in Q(i). The monomial order is graded
reverse lexicographic, fixed once here; no floating point anywhere.
`mat_mul`, `mat_vec`, `mat_transpose` and `mat_det` take Q(i) or
MultiPoly entries; `mat_det` is the one determinant for both, by
fraction-free elimination whose exact divisions are checked, and
`det_adjugate` takes its minors from it.

Every sum of polynomial products goes through one kernel,
`linear_combination`: it adds up the products on Gaussian-integer
numerators over one common denominator and normalises once. Its callers
are `MultiPoly.__mul__` and `compose`, the polynomial `mat_mul`,
`mat_vec` and Bareiss update in `mat_det`, `WeylGroup.act`,
`invariants.reynolds`, and in `vecfields` the field action `apply_to`,
the pushed and averaged fields, `jet_mul`, `jet_invert` and
`Jet.polynomial`. `MultiPoly.shift` expands (x + a)^k binomially on the
same integer numerators.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from operator import add


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
    takes one `math.gcd`; `real` and `imag` are the parts as Fractions.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, real=0, imag=0):
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

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

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

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

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

    def sort_key(self):
        return (self.real, self.imag)

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


def render_scalar(s: GaussianRational) -> str:
    if s.imag == 0:
        return str(s.real)
    if s.real == 0:
        return f"{s.imag}i"
    if s.imag < 0:
        return f"{s.real} - {-s.imag}i"
    return f"{s.real} + {s.imag}i"


def render_vector(v):
    return [render_scalar(x) for x in v]


def render_matrix(m):
    return [render_vector(row) for row in m]


def parse_scalar(text: str) -> GaussianRational:
    """Parse "p/q", "p/q+r/si", "i", "-2i" and friends."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError("empty scalar")
    terms = []
    start = 0
    for k in range(1, len(s)):
        if s[k] in "+-" and s[k - 1] not in "+-/":
            terms.append(s[start:k])
            start = k
    terms.append(s[start:])
    real = Fraction(0)
    imag = Fraction(0)
    for t in terms:
        if not t or t in "+-":
            raise ValueError(f"bad scalar {text!r}")
        try:
            if t.endswith("i"):
                body = t[:-1]
                if body in ("", "+"):
                    imag += 1
                elif body == "-":
                    imag -= 1
                else:
                    imag += Fraction(body)
            else:
                real += Fraction(t)
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in scalar {text!r}") from None
    return GaussianRational(real, imag)


# ------------------------------------------------------------------ polynomials

def _grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


class MultiPoly:
    """Dense-in-support polynomial: exponent tuple -> nonzero Q(i) coefficient.

    A value is never changed after construction: products and linear
    combinations keep its coefficients over their common denominator
    (`_integer_terms`) on first use.
    """

    __slots__ = ("num_vars", "terms", "_ints")

    def __init__(self, num_vars, terms=None):
        self.num_vars = num_vars
        self._ints = None
        clean = {}
        for e, c in (terms or {}).items():
            e = tuple(int(x) for x in e)
            if len(e) != num_vars or any(x < 0 for x in e):
                raise ValueError(f"bad exponent {e} for {num_vars} variables")
            if not isinstance(c, GaussianRational):
                c = GaussianRational(c)
            if not c.is_zero():
                clean[e] = c
        self.terms = clean

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
        e = [0] * num_vars
        e[i] = 1
        return MultiPoly(num_vars, {tuple(e): QI_ONE})

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
        return not self.terms

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self):
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def homogeneous_components(self):
        parts = {}
        for e, c in self.terms.items():
            parts.setdefault(sum(e), {})[e] = c
        return {d: _poly(self.num_vars, t) for d, t in sorted(parts.items())}

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grevlex_key)
        return e, self.terms[e]

    def constant_term(self):
        return self.terms.get((0,) * self.num_vars, QI_ZERO)

    def coefficient_vector(self, monomials):
        return [self.terms.get(e, QI_ZERO) for e in monomials]

    # -- arithmetic

    def _check(self, other):
        if self.num_vars != other.num_vars:
            raise ValueError("variable count mismatch")

    def __add__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = MultiPoly.constant(self.num_vars, GaussianRational._coerce(other))
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, QI_ZERO) + c
        return _poly(self.num_vars, t)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _poly(self.num_vars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            c = GaussianRational._coerce(other)
            return _poly(self.num_vars, {e: v * c for e, v in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check(other)
        return linear_combination(self.num_vars, ((self, other),))

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
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.num_vars == other.num_vars and self.terms == other.terms

    # -- calculus and substitution

    def partial(self, i):
        t = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            e2 = list(e)
            e2[i] -= 1
            t[tuple(e2)] = c * e[i]
        return _poly(self.num_vars, t)

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
        acc = QI_ZERO
        for e, c in self.terms.items():
            for pw, k in zip(powers, e):
                if k:
                    c = c * pw[k]
            acc = acc + c
        return acc

    def compose(self, subs):
        """Substitute subs[i] for variable i; subs share one variable count."""
        if len(subs) != self.num_vars:
            raise ValueError("need one substitution per variable")
        n = subs[0].num_vars
        one = MultiPoly.one(n)
        # powers[i][k] is subs[i]^k, extended on demand
        powers = [[one] for _ in subs]
        pairs = []
        for e, c in self.terms.items():
            term = one
            for i, k in enumerate(e):
                if k:
                    cache = powers[i]
                    while len(cache) <= k:
                        cache.append(cache[-1] * subs[i])
                    term = cache[k] if term is one else term * cache[k]
            pairs.append((c, term))
        return linear_combination(n, pairs)

    def compose_linear(self, M):
        """f(Mx): substitute row i of M (as a linear form) for variable i."""
        return self.compose([MultiPoly.linear_form(row) for row in M])

    def shift(self, point):
        """f(x + point), by the binomial expansion of every power
        (x_i + a_i)^k = sum_j C(k, j) a_i^(k - j) x_i^j.

        With the coefficients over their denominator D and the point as
        Gaussian integers A_i over its denominator d, row (i, k) holds
        C(k, j) A_i^(k - j) d^j for j = 0..k, built once per call; the
        product of the rows of a term of degree m, times d^(top - m), is
        its expansion over D d^top, for the top degree `top` of f. All of
        it is added up on integer numerators and normalised once.
        """
        n = self.num_vars
        if len(point) != n:
            raise ValueError("point dimension mismatch")
        a = [GaussianRational._coerce(x) for x in point]
        if not self.terms or not any(a):
            return self
        D, rows = _integer_terms(self)
        d = lcm(*[x._d for x in a])
        gauss = [(x._a * (d // x._d), x._b * (d // x._d)) for x in a]
        top = self.degree()
        binomial = {}
        acc = {}
        for e, re, im in rows:
            s = d ** (top - sum(e))
            parts = [((), re * s, im * s)]
            for i, k in enumerate(e):
                row = binomial.get((i, k))
                if row is None:
                    row = binomial[i, k] = _binomial_row(gauss[i], d, k)
                parts = [
                    (x + (j,), u * p - v * q, u * q + v * p)
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
        return _poly_over(n, acc, D * d**top)

    # -- division

    def divmod_by(self, p: "MultiPoly"):
        """Quotient and remainder for the single divisor p under grevlex."""
        self._check(p)
        if p.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        n = self.num_vars
        pe, pc = p.leading_term()
        q: dict = {}
        r: dict = {}
        work = dict(self.terms)
        while work:
            e = max(work, key=_grevlex_key)
            c = work.pop(e)
            if all(e[k] >= pe[k] for k in range(n)):
                d = tuple(e[k] - pe[k] for k in range(n))
                f = c / pc
                q[d] = q.get(d, QI_ZERO) + f
                for e2, c2 in p.terms.items():
                    if e2 == pe:
                        continue
                    tgt = tuple(e2[k] + d[k] for k in range(n))
                    nc = work.get(tgt, QI_ZERO) - f * c2
                    if nc.is_zero():
                        work.pop(tgt, None)
                    else:
                        work[tgt] = nc
            else:
                r[e] = c
        return _poly(n, q), _poly(n, r)

    # -- rendering

    def render(self):
        if not self.terms:
            return "(0)"
        pieces = []
        for e in sorted(self.terms, key=_grevlex_key, reverse=True):
            c = self.terms[e]
            factors = [f"({render_scalar(c)})"]
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(f"x{i}")
                elif k > 1:
                    factors.append(f"x{i}^{k}")
            pieces.append("*".join(factors))
        return " + ".join(pieces)

    @staticmethod
    def parse(text: str, num_vars: int) -> "MultiPoly":
        return _parse_poly(text, num_vars)

    def __repr__(self):
        return f"MultiPoly({self.num_vars}, {self.render()})"


def _poly(num_vars, terms):
    """MultiPoly on exponent tuples and Q(i) coefficients that need no
    validation; only the zero coefficients are dropped."""
    p = object.__new__(MultiPoly)
    p.num_vars = num_vars
    p.terms = {e: c for e, c in terms.items() if c}
    p._ints = None
    return p


def _integer_terms(p):
    """(D, [(e, a, b)]): the coefficients of p as (a + b i)/D over their
    least common denominator D, computed once per polynomial."""
    if p._ints is None:
        D = lcm(*[c._d for c in p.terms.values()])
        out = []
        for e, c in p.terms.items():
            s = D // c._d
            out.append((e, c._a * s, c._b * s))
        p._ints = (D, out)
    return p._ints


def _poly_over(num_vars, acc, D):
    """MultiPoly with coefficient (re + im i)/D at e, from {e: [re, im]}."""
    return _poly(num_vars, {e: _qi(re, im, D) for e, (re, im) in acc.items()})


def _binomial_row(z, d, k):
    """[(j, re, im)] for the nonzero C(k, j) z^(k - j) d^j, j = 0..k, with
    the Gaussian integer z = (re, im)."""
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
            row.append((j, p * s, q * s))
    return row


def linear_combination(num_vars, pairs):
    """sum a * p over the pairs (a, p) of a MultiPoly p and a first factor
    a that is a Q(i) scalar or a MultiPoly.

    The one accumulation kernel: every product is added up on the
    Gaussian-integer numerators over one common denominator, and the sum
    is brought to lowest terms once, with one gcd per coefficient.
    """
    forms = []
    D = 1
    for a, p in pairs:
        dp, tp = _integer_terms(p)
        if isinstance(a, MultiPoly):
            da, ta = _integer_terms(a)
        else:
            # a scalar is one term, whose products keep the exponents of p
            da, ta = a._d, [(None, a._a, a._b)] if a else []
        if ta and tp:
            forms.append((ta, da * dp, tp))
            D = lcm(D, da * dp)
    acc = {}
    for ta, d, tp in forms:
        s = D // d
        for e1, x, y in ta:
            x, y = x * s, y * s
            for e2, u, v in tp:
                e = e2 if e1 is None else tuple(map(add, e1, e2))
                t = acc.get(e)
                if t is None:
                    acc[e] = [x * u - y * v, x * v + y * u]
                else:
                    t[0] += x * u - y * v
                    t[1] += x * v + y * u
    return _poly_over(num_vars, acc, D)


def _parse_poly(text: str, num_vars: int) -> MultiPoly:
    """Parse sums of '*'-joined factors; factors are (scalar), bare scalars,
    or xN / xN^k powers.  Accepts everything render() produces."""
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial")
    # split into signed terms at top parenthesis level
    terms = []
    depth = 0
    cur = ""
    sign = 1
    k = 0
    while k < len(s):
        ch = s[k]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced parentheses")
        if depth == 0 and ch in "+-" and cur.strip():
            prev = cur.rstrip()[-1:]
            if prev not in ("*", "^", "/"):
                terms.append((sign, cur.strip()))
                sign = 1 if ch == "+" else -1
                cur = ""
                k += 1
                continue
        if depth == 0 and ch in "+-" and not cur.strip():
            sign = sign * (1 if ch == "+" else -1)
            k += 1
            continue
        cur += ch
        k += 1
    if depth != 0:
        raise ValueError("unbalanced parentheses")
    if cur.strip():
        terms.append((sign, cur.strip()))
    if not terms:
        raise ValueError(f"cannot parse polynomial {text!r}")

    acc = MultiPoly.zero(num_vars)
    for sgn, body in terms:
        factors = []
        depth = 0
        cur = ""
        for ch in body:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            if ch == "*" and depth == 0:
                factors.append(cur.strip())
                cur = ""
            else:
                cur += ch
        if cur.strip():
            factors.append(cur.strip())
        poly = MultiPoly.constant(num_vars, Qi(sgn))
        for f in factors:
            if not f:
                raise ValueError(f"cannot parse term {body!r}")
            if f.startswith("("):
                if not f.endswith(")"):
                    raise ValueError(f"cannot parse factor {f!r}")
                poly = poly * MultiPoly.constant(num_vars, parse_scalar(f[1:-1]))
            elif f[0] == "x":
                var, _, exp = f.partition("^")
                idx = int(var[1:])
                if idx >= num_vars:
                    raise ValueError(f"variable {var} out of range")
                k = int(exp) if exp else 1
                poly = poly * MultiPoly.variable(num_vars, idx) ** k
            else:
                poly = poly * MultiPoly.constant(num_vars, parse_scalar(f))
        acc = acc + poly
    return acc


def poly_divides(f: MultiPoly, p: MultiPoly):
    """Quotient q with f = p*q, or None when f is not in the ideal (p).

    A single polynomial is a Groebner basis of the ideal it generates, so a
    zero remainder under division is equivalent to membership.
    """
    q, r = f.divmod_by(p)
    return q if r.is_zero() else None


# ------------------------------------------------------------------ matrices

def det_adjugate(M):
    """Determinant and adjugate of a square MultiPoly matrix, both taken
    from `mat_det`: adj[i][j] is (-1)^(i+j) times the minor of M without
    row j and column i.

    M * adj = det * identity as an exact polynomial identity.
    """
    n = len(M)
    if any(len(row) != n for row in M):
        raise ValueError("matrix is not square")
    det = mat_det(M)
    if n == 1:
        return det, [[MultiPoly.one(det.num_vars)]]
    adj = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = mat_det(
                [[M[r][c] for c in range(n) if c != i] for r in range(n) if r != j]
            )
            adj[i][j] = -minor if (i + j) % 2 else minor
    return det, adj


@dataclass
class LinearSolution:
    rank: int
    particular: list | None
    kernel: list


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
    """sum x * y over the entries: in Q(i), or when `num_vars` is not None
    one `linear_combination` with the polynomial of each product second."""
    if num_vars is None:
        return sum((x * y for x, y in zip(xs, ys)), QI_ZERO)
    return linear_combination(
        num_vars,
        [(x, y) if isinstance(y, MultiPoly) else (y, x) for x, y in zip(xs, ys)],
    )


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
    """Determinant of a square matrix whose entries are all in Q(i) or all
    in Q(i)[x], by fraction-free (Bareiss) elimination with row swaps.

    After step k every entry below and right of the pivot is a minor of
    the row-permuted matrix of size k + 2, so dividing it by the previous
    pivot is exact (Bareiss, Math. Comp. 22, 1968): plain `/` over Q(i),
    and over Q(i)[x] a division whose remainder is certified zero. The
    last entry is the determinant up to the sign of the swaps. A singular
    matrix returns the zero of its entries' type.
    """
    n = len(A)
    if any(len(row) != n for row in A):
        raise ValueError("matrix is not square")
    if n == 0:
        raise ValueError("empty matrix")
    rows = [list(r) for r in A]
    nv = _poly_vars(rows[0][0])
    negate = False
    for k in range(n - 1):
        piv = next((i for i in range(k, n) if not rows[i][k].is_zero()), None)
        if piv is None:
            return rows[k][k]
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            negate = not negate
        p = rows[k][k]
        for i in range(k + 1, n):
            a = rows[i][k]
            na = -a
            for j in range(k + 1, n):
                if a.is_zero() and rows[i][j].is_zero():
                    continue  # the update keeps a zero entry zero
                if nv is None:
                    x = p * rows[i][j] + na * rows[k][j]
                    if k:
                        x = x / prev
                else:
                    x = linear_combination(nv, ((p, rows[i][j]), (na, rows[k][j])))
                    if k:
                        x, r = x.divmod_by(prev)
                        if not r.is_zero():
                            raise CertificationError(
                                "det_division_exact",
                                {"size": n, "step": k, "remainder": r.render()},
                            )
                rows[i][j] = x
        prev = p
    det = rows[-1][-1]
    return -det if negate else det


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
        v = [GaussianRational._coerce(x) for x in vec]
        for piv, row in self.rows:
            if not v[piv].is_zero():
                f = v[piv]
                v = [a - f * b for a, b in zip(v, row)]
        return v

    def contains(self, vec):
        return all(x.is_zero() for x in self.reduce(vec))

    def add(self, vec) -> bool:
        v = self.reduce(vec)
        piv = next((i for i, x in enumerate(v) if not x.is_zero()), None)
        if piv is None:
            return False
        inv = QI_ONE / v[piv]
        v = [x * inv for x in v]
        for k, (p2, row) in enumerate(self.rows):
            if not row[piv].is_zero():
                f = row[piv]
                self.rows[k] = (p2, [a - f * b for a, b in zip(row, v)])
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


def _int_divisors(n):
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


def _gaussian_int_divisors(a, b):
    """All Gaussian integers x + yi dividing a + bi (which must be nonzero)."""
    norm = a * a + b * b
    out = set()
    for d in _int_divisors(norm):
        x = 0
        while x * x <= d:
            y2 = d - x * x
            y = isqrt(y2)
            if y * y == y2:
                for sx in (x, -x):
                    for sy in (y, -y):
                        if sx == 0 and sy == 0:
                            continue
                        # (a+bi)/(sx+syi) integral iff d divides both parts below
                        if (a * sx + b * sy) % d == 0 and (b * sx - a * sy) % d == 0:
                            out.add((sx, sy))
            x += 1
    return out


def gaussian_rational_roots(f):
    """Distinct roots in Q(i) of the one-variable MultiPoly f, plus a
    flag: does f split completely?

    Candidate roots p/q come from Gaussian-integer divisors of the (cleared)
    constant and leading coefficients; each is verified by exact evaluation
    and removed by exact division by x - r, so the flag is honest.
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
    # clear denominators to Gaussian-integer coefficients
    den = 1
    for c in f.terms.values():
        den = lcm(den, c.real.denominator, c.imag.denominator)
    c0 = f.constant_term() * den
    ck = f.leading_term()[1] * den
    candidates = set()
    for p in _gaussian_int_divisors(int(c0.real), int(c0.imag)):
        for q in _gaussian_int_divisors(int(ck.real), int(ck.imag)):
            candidates.add(Qi(p[0], p[1]) / Qi(q[0], q[1]))
    for r in sorted(candidates, key=lambda s: s.sort_key()):
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
                M = [
                    [w[r] - lam * v[r] for v, w in zip(basis, images)]
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
