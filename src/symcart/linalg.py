"""Linear algebra over Q(i), and over Q(i)[x] where a product or a
determinant needs it, and the spectra of Q(i) matrices.

`mat_mul`, `mat_vec`, `mat_transpose`, `det_adjugate` and `mat_det`
take Q(i) or MultiPoly entries. `det_adjugate` is the one determinant
for both: the determinant and adjugate together from n `mat_mul`
products, dividing only by the integers 1..n, and certified by its last
product. `mat_det` is its determinant. Every solve, kernel, inverse and
rank is one reduced echelon form, built in a `LinearSpan`.

The spectra section finds minimal polynomials, their roots in Q(i) and
the joint eigenspaces of commuting matrices.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, isqrt

from .polynomials import MultiPoly, _dot
from .scalars import (
    QI_ONE,
    QI_ZERO,
    CertificationError,
    GaussianRational,
    Qi,
    _qi,
    exact_order,
    render_scalar,
)

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


def _poly_vars(*entries):
    """Variable count of the first MultiPoly among the entries, or None."""
    return next((x.num_vars for x in entries if isinstance(x, MultiPoly)), None)


def mat_mul(A, B):
    """A B; over Q(i) each row of A combines only the rows of B at its
    nonzero entries, and a zero row is a zero row without a sum."""
    n = _poly_vars(*A[0][:1], *B[0][:1]) if A and B else None
    if n is not None:
        cols = list(zip(*B))
        return [[_dot(n, row, col) for col in cols] for row in A]
    zero_row = [QI_ZERO] * (len(B[0]) if B else 0)
    out = []
    for row in A:
        nz = [k for k, x in enumerate(row) if x._a or x._b]
        if nz:
            xs = [row[k] for k in nz]
            out.append([_dot(None, xs, col) for col in zip(*[B[k] for k in nz])])
        else:
            out.append(zero_row[:])
    return out


def mat_vec(A, v):
    """A v; over Q(i) the sums run over the nonzero entries of v only."""
    n = _poly_vars(*A[0][:1], *v[:1]) if A else None
    if n is not None:
        return [_dot(n, row, v) for row in A]
    nz = [k for k, x in enumerate(v) if x._a or x._b]
    xs = [v[k] for k in nz]
    return [_dot(None, [row[k] for k in nz], xs) for row in A]


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

def _min_relation(vectors, n, length):
    """Monic polynomial sum_k c_k x^k of least degree with sum_k c_k v_k = 0
    for the vectors v_0, v_1, ... of an iterator, each of the given
    length, as a MultiPoly in one variable; a relation must exist among
    the first n + 1.

    Each v_k is tagged with the unit vector e_k and reduced in one span.
    Row operations keep every row a combination of the tagged vectors with
    its tag as coefficients, so the first vector that reduces to zero
    carries the monic relation of least degree in its tag.
    """
    span = LinearSpan(length + n + 1)
    for k, vec in zip(range(n + 1), vectors):
        tag = [QI_ONE if j == k else QI_ZERO for j in range(n + 1)]
        v = span.reduce(vec + tag)
        if all(x.is_zero() for x in v[:length]):
            return MultiPoly(1, {(j,): c for j, c in enumerate(v[length:])})
        span.add(v)
    raise CertificationError(
        "min_poly_relation", {"size": n, "independent_powers": n + 1}
    )


def _krylov(A, v):
    """v, A v, A^2 v, ..."""
    while True:
        yield v
        v = mat_vec(A, v)


def matrix_min_poly(A):
    """Monic minimal polynomial of a square Q(i) matrix, a MultiPoly in
    one variable: the first relation among the flattened powers A^k,
    which by Cayley-Hamilton comes by k = n."""

    def powers():
        P = mat_identity(len(A))
        while True:
            yield [x for row in P for x in row]
            P = mat_mul(P, A)

    return _min_relation(powers(), len(A), len(A) ** 2)


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


def _eigen_split(blocks, A, eigs):
    """Every block cut into the kernels of A - lambda on it, for lambda
    over `eigs`; None when the kernels miss part of a block."""
    n = len(A)
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
            return None
    return finer


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

    The roots are first taken from the least monic p with p(A) g = 0 for
    the one fixed vector g = (1, 2, ..., n), read off the Krylov sequence
    g, A g, A^2 g, ...; p divides the minimal polynomial. When the kernels
    for the roots of p fill every block, A is diagonalisable, g has a
    part in every eigenspace, so p is the minimal polynomial and the
    split is the one it gives. Otherwise (p does not split, its root
    search is refused, or its kernels do not fill) the minimal polynomial
    of A, `matrix_min_poly`, decides as above, with the same errors.
    """
    n = len(mats[0])
    g = [Qi(k) for k in range(1, n + 1)]
    blocks = [((), mat_identity(n))]  # eigenvalues so far, block basis
    for idx, A in enumerate(mats):
        try:
            eigs, split = gaussian_rational_roots(_min_relation(_krylov(A, g), n, n))
        except ValueError:
            # p's end coefficients may pass the search bound where those
            # of the minimal polynomial do not
            split = False
        finer = _eigen_split(blocks, A, eigs) if split else None
        if finer is None:
            eigs, split = gaussian_rational_roots(matrix_min_poly(A))
            if not split:
                raise SpectrumError(
                    f"the minimal polynomial of matrix {idx} does not split over Q(i)"
                )
            finer = _eigen_split(blocks, A, eigs)
            if finer is None:
                return None, idx
        blocks = finer
    return blocks, None
