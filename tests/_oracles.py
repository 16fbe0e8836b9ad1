"""Hand-built oracles shared between module tests and the acceptance suite.

Everything here is computed independently of the implementation under test,
from first principles or from printed constants, so that agreement is
evidence rather than tautology. `count_calls` observes the
implementation instead, and `reynolds_by_elements` reads the group's own
action, one element at a time.
"""

import sys
from fractions import Fraction
from math import isqrt

from symcart import exactalg
from symcart.exactalg import GaussianRational as Qi
from symcart.exactalg import LinearSpan, MultiPoly, solve_exact

# weights of the rank-2 catalog action: the Weyl group permutes these three
# functionals, which sum to zero
SL3_WEIGHTS = [
    [Qi(1), Qi(0, 1)],
    [Qi(-2), Qi(0)],
    [Qi(1), Qi(0, -1)],
]

SL3_ROOT_SET = {
    (Qi(3), Qi(0, 1)),
    (Qi(-3), Qi(0, -1)),
    (Qi(0), Qi(0, 2)),
    (Qi(0), Qi(0, -2)),
    (Qi(3), Qi(0, -1)),
    (Qi(-3), Qi(0, 1)),
}


def _permutations(items):
    if len(items) <= 1:
        return [list(items)]
    out = []
    for i, x in enumerate(items):
        for rest in _permutations(items[:i] + items[i + 1 :]):
            out.append([x] + rest)
    return out


def sl3_weyl_matrices_by_weight_permutations():
    """All 2x2 matrices w with weight_i(w x) = weight_perm(i)(x); exactly the
    six Weyl elements, enumerated without any group closure."""
    L = SL3_WEIGHTS
    out = []
    for perm in _permutations([0, 1, 2]):
        # unknowns w00, w01, w10, w11; equations L[i] . w = L[perm[i]]
        rows = []
        rhs = []
        for i in range(3):
            for c in range(2):
                row = [Qi(0)] * 4
                row[0 + c] = L[i][0]
                row[2 + c] = L[i][1]
                rows.append(row)
                rhs.append(L[perm[i]][c])
        sol = solve_exact(rows, rhs)
        # an explicit raise: pytest does not rewrite this module, so
        # python -O would strip an assert
        if sol.particular is None or sol.kernel:
            raise AssertionError(f"weight permutation {perm} has no unique matrix")
        w = sol.particular
        out.append(((w[0], w[1]), (w[2], w[3])))
    return out


def raw_bracket(c, x, y):
    """[x, y] summed product by product from the structure constants
    c[i][j][k], with no matrix or dot-product helper."""
    n = len(c)
    out = [Qi(0)] * n
    for i in range(n):
        for j in range(n):
            if x[i].is_zero() or y[j].is_zero():
                continue
            for k in range(n):
                out[k] = out[k] + x[i] * y[j] * c[i][j][k]
    return out


def raw_form(K, x, y):
    """x^T K y summed product by product."""
    acc = Qi(0)
    for i, row in enumerate(K):
        for j, v in enumerate(row):
            acc = acc + x[i] * v * y[j]
    return acc


def dense_dot(xs, ys, zero=Qi(0)):
    """sum x * y over every pair of entries, zero or not, one product and
    one addition at a time; `zero` is the start (a zero MultiPoly for
    polynomial entries)."""
    acc = zero
    for x, y in zip(xs, ys):
        acc = acc + x * y
    return acc


def dense_mat_mul(A, B, zero=Qi(0)):
    """A B, every entry a `dense_dot` of a row and a column."""
    return [[dense_dot(row, col, zero) for col in zip(*B)] for row in A]


def raw_mat_vec(A, v):
    """A v summed product by product."""
    return [dense_dot(row, v) for row in A]


def matrix_key(m):
    return tuple(tuple(x for x in row) for row in m)


def same_span(vs, ws, length):
    s1 = LinearSpan(length)
    s2 = LinearSpan(length)
    for v in vs:
        s1.add(v)
    for w in ws:
        s2.add(w)
    return (
        s1.dim == s2.dim
        and all(s1.contains(w) for w in ws)
        and all(s2.contains(v) for v in vs)
    )


def rand_poly(rng, nvars, max_deg, max_terms=6, complex_ok=True):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        im = rng.randint(-2, 2) if complex_ok else 0
        terms[tuple(e)] = Qi(rng.randint(-4, 4), im)
    return MultiPoly(nvars, terms)


def monomial_count(nvars, deg):
    # compositions of deg into nvars parts
    from math import comb

    return comb(deg + nvars - 1, nvars - 1)


def weighted_partition_count(degrees, total):
    """Number of exponent tuples e with sum(e_i * degrees_i) = total: the
    dimension of the degree-`total` slice of a free algebra on generators
    of the given degrees."""
    counts = [0] * (total + 1)
    counts[0] = 1
    for d in degrees:
        for t in range(d, total + 1):
            counts[t] += counts[t - d]
    return counts[total]


def average_poly(f, weyl):
    """Group average computed directly from the element matrices."""
    acc = MultiPoly.zero(f.num_vars)
    for w in weyl.elements:
        acc = acc + f.compose_linear(w)
    return acc * Qi(Fraction(1, weyl.order))


def reynolds_by_elements(weyl, f):
    """(1/|W|) sum_i weyl.act(i, f): the group average as one action per
    element, with no kept average."""
    acc = MultiPoly.zero(f.num_vars)
    for i in range(weyl.order):
        acc = acc + weyl.act(i, f)
    return acc * Qi(Fraction(1, weyl.order))


def average_field(components, weyl):
    """Push a raw field around the group and average the results; the
    outcome is invariant whatever the input."""
    from symcart.exactalg import mat_inverse

    n = len(components)
    acc = [MultiPoly.zero(n) for _ in range(n)]
    for w in weyl.elements:
        winv = mat_inverse(w)
        moved = [c.compose_linear(winv) for c in components]
        for i in range(n):
            for j in range(n):
                acc[i] = acc[i] + w[i][j] * moved[j]
    scale = Qi(Fraction(1, weyl.order))
    return [c * scale for c in acc]


def embed(cartan, coords):
    """The point sum_i coords_i b_i of g for the basis b of a Cartan
    subspace, summed product by product."""
    if len(coords) != cartan.rank:
        raise AssertionError("coordinate count does not match the rank")
    out = [Qi(0)] * len(cartan.basis[0])
    for c, b in zip(coords, cartan.basis):
        for k, x in enumerate(b):
            out[k] = out[k] + c * x
    return out


def det_cofactor(M):
    """Determinant by cofactor expansion along the first row: n! terms,
    so only for small matrices, but free of any pivoting logic."""
    n = len(M)
    if n == 1:
        return M[0][0]
    acc = Qi(0)
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in M[1:]]
        term = M[0][j] * det_cofactor(minor)
        acc = acc + term if j % 2 == 0 else acc - term
    return acc


def render_scalar_by_fractions(x):
    """x written from its `Fraction` parts `real` and `imag`."""
    re, im = x.real, x.imag
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}i"
    if im < 0:
        return f"{re} - {-im}i"
    return f"{re} + {im}i"


def gaussian_divisors_by_norms(a, b):
    """Every Gaussian integer (x, y) dividing a + bi (nonzero), found by
    trying each x + yi whose norm d divides the norm of a + bi."""
    norm = a * a + b * b
    out = set()
    for e in range(1, isqrt(norm) + 1):
        if norm % e:
            continue
        for d in {e, norm // e}:
            for x in range(-isqrt(d), isqrt(d) + 1):
                y = isqrt(d - x * x)
                for y in {y, -y}:
                    if x * x + y * y == d:
                        # (a + bi)/(x + yi) = (a + bi)(x - yi)/d
                        if (a * x + b * y) % d == 0 and (b * x - a * y) % d == 0:
                            out.add((x, y))
    return out


def count_calls(monkeypatch, name):
    """Sizes of the matrices passed to `exactalg.<name>`, one per call.

    A function is wrapped wherever a module of the package binds it; a
    dotted name such as `MultiPoly.compose_linear` wraps the method on
    its class, and the size is that of its matrix argument (1 for an
    argument without a length, such as the operand of
    `GaussianRational.__mul__`).
    """
    owner_name, _, attr = name.rpartition(".")
    owner = getattr(exactalg, owner_name) if owner_name else exactalg
    original = getattr(owner, attr)
    calls = []

    def counted(*args):
        calls.append(len(args[-1]) if hasattr(args[-1], "__len__") else 1)
        return original(*args)

    if owner_name:
        monkeypatch.setattr(owner, attr, counted)
        return calls
    for mod_name, module in list(sys.modules.items()):
        if mod_name.split(".")[0] == "symcart" and (
            getattr(module, attr, None) is original
        ):
            monkeypatch.setattr(module, attr, counted)
    return calls


def sl_so_pair(n):
    """sl(n, R)/so(n) through `liesym._pair_from_matrices`: h is spanned by
    E_ij - E_ji and q by E_ij + E_ji for i < j, then E_kk - E_(k+1)(k+1);
    the Cartan subspace is spanned by those diagonal q vectors."""
    from symcart import liesym

    def unit(i, j):
        m = [[0] * n for _ in range(n)]
        m[i][j] = 1
        return m

    def combine(a, b, sign):
        return [[x + sign * y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    h = [combine(unit(i, j), unit(j, i), -1) for i, j in pairs]
    q = [combine(unit(i, j), unit(j, i), 1) for i, j in pairs]
    q += [combine(unit(k, k), unit(k + 1, k + 1), -1) for k in range(n - 1)]
    dim = len(h) + len(q)
    cartan = [
        [1 if t == len(h) + len(pairs) + k else 0 for t in range(dim)]
        for k in range(n - 1)
    ]
    return liesym._pair_from_matrices(f"sl{n}-so{n}", h, q, cartan)


def pair_document(pair):
    """The definition document of a pair, as `load_pair` reads it: every
    nonzero bracket c[i][j][k] with i < j, and sigma, kappa and the Cartan
    basis as rendered scalars."""
    from symcart.exactalg import render_scalar

    c = pair.algebra.c
    n = pair.algebra.dim

    def rows(m):
        return [[render_scalar(x) for x in row] for row in m]

    return {
        "name": pair.name,
        "dim": n,
        "brackets": [
            [i, j, k, render_scalar(c[i][j][k])]
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(n)
            if not c[i][j][k].is_zero()
        ],
        "sigma": rows(pair.sigma),
        "kappa": rows(pair.kappa),
        "cartan": rows(pair.cartan.basis),
    }
