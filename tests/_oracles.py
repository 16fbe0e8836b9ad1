"""Hand-built oracles shared between module tests and the acceptance suite.

Everything here is computed independently of the implementation under test,
from first principles or from printed constants, so that agreement is
evidence rather than tautology. `count_calls` is the one helper that
observes the implementation instead.
"""

import sys
from fractions import Fraction

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


def count_calls(monkeypatch, name):
    """Sizes of the matrices passed to `exactalg.<name>`, one per call.

    A function is wrapped wherever a module of the package binds it; a
    dotted name such as `MultiPoly.compose_linear` wraps the method on
    its class, and the size is that of its matrix argument.
    """
    owner_name, _, attr = name.rpartition(".")
    owner = getattr(exactalg, owner_name) if owner_name else exactalg
    original = getattr(owner, attr)
    calls = []

    def counted(*args):
        calls.append(len(args[-1]))
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
