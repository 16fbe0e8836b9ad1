"""Property tests for the one elimination routine behind `solve_exact`,
`kernel_basis`, `mat_inverse`, `mat_rank` and `matrix_min_poly`, with
sympy as the oracle, on Gaussian-rational matrices up to 5x5 that include
rank-deficient ones."""

import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from symcart.exactalg import GaussianRational as Qi
from symcart.exactalg import (
    _rref,
    kernel_basis,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_rank,
    matrix_min_poly,
    solve_exact,
)

_parts = st.one_of(
    st.just(0),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)
_entries = st.builds(Qi, _parts, _parts)


@st.composite
def _matrices(draw, m, n):
    rows = [[draw(_entries) for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        # last row a combination of the first two: rank deficient
        c, d = draw(_entries), draw(_entries)
        rows[-1] = [c * a + d * b for a, b in zip(rows[0], rows[1])]
    return rows


_shapes = st.tuples(st.integers(1, 5), st.integers(1, 5))
_rect = _shapes.flatmap(lambda mn: _matrices(*mn))
_systems = _shapes.flatmap(
    lambda mn: st.tuples(
        _matrices(*mn), st.lists(_entries, min_size=mn[0], max_size=mn[0])
    )
)


def _sym(x):
    return sympy.Rational(x.real) + sympy.I * sympy.Rational(x.imag)


def _sym_matrix(A):
    return sympy.Matrix([[_sym(x) for x in row] for row in A])


def _same(x, y):
    return sympy.expand(_sym(x) - y) == 0


def _same_rows(rows, M):
    return len(rows) == M.rows and all(
        _same(x, M[i, j]) for i, row in enumerate(rows) for j, x in enumerate(row)
    )


@settings(max_examples=60, deadline=None)
@given(_rect)
def test_rref_rank_and_kernel_match_sympy(A):
    n = len(A[0])
    R, pivots = _sym_matrix(A).rref()
    rows = _rref(A, n)
    assert [p for p, _ in rows] == list(pivots)
    assert _same_rows([row for _, row in rows], R[: len(pivots), :])
    assert mat_rank(A) == len(pivots)
    null = _sym_matrix(A).nullspace()
    kernel = kernel_basis(A)
    assert len(kernel) == len(null)
    for v, w in zip(kernel, null):
        assert _same_rows([v], w.T)


@settings(max_examples=60, deadline=None)
@given(_systems)
def test_solve_exact_consistency_matches_sympy(Ab):
    A, b = Ab
    M = _sym_matrix(A)
    aug = M.row_join(sympy.Matrix([_sym(x) for x in b]))
    sol = solve_exact(A, b)
    assert sol.rank == M.rank()
    assert (sol.particular is not None) == (aug.rank() == M.rank())
    if sol.particular is not None:
        image = M * sympy.Matrix([_sym(x) for x in sol.particular])
        assert all(sympy.expand(image[i] - _sym(b[i])) == 0 for i in range(len(b)))
    assert sol.kernel == kernel_basis(A)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: _matrices(n, n)))
def test_mat_inverse_matches_sympy(A):
    if mat_det(A).is_zero():
        return
    assert _same_rows(mat_inverse(A), _sym_matrix(A).inv())


# Jordan data: (eigenvalue, block size) pairs with at most 5 rows in all
_eigenvalues = st.builds(Qi, st.integers(-2, 2), st.integers(-1, 1))
_jordan = st.lists(
    st.tuples(_eigenvalues, st.integers(1, 3)), min_size=1, max_size=3
).filter(lambda blocks: sum(k for _, k in blocks) <= 5)


def _jordan_matrix(blocks):
    n = sum(k for _, k in blocks)
    J = [[Qi(0)] * n for _ in range(n)]
    start = 0
    for lam, k in blocks:
        for i in range(start, start + k):
            J[i][i] = lam
            if i + 1 < start + k:
                J[i][i + 1] = Qi(1)
        start += k
    return J


@settings(max_examples=40, deadline=None)
@given(_jordan, st.data())
def test_min_poly_of_conjugated_jordan_form(blocks, data):
    J = _jordan_matrix(blocks)
    n = len(J)
    P = data.draw(_matrices(n, n).filter(lambda P: not mat_det(P).is_zero()))
    A = mat_mul(P, mat_mul(J, mat_inverse(P)))
    # the minimal polynomial takes each eigenvalue to its largest block
    largest = {}
    for lam, k in blocks:
        largest[lam] = max(k, largest.get(lam, 0))
    t = sympy.Symbol("t")
    expected = sympy.Poly(
        sympy.prod([(t - _sym(lam)) ** k for lam, k in largest.items()]), t
    )
    got = matrix_min_poly(A)
    assert got.num_vars == 1 and got.degree() == expected.degree()
    assert all(
        _same(got.terms.get((k,), Qi(0)), e)
        for k, e in enumerate(reversed(expected.all_coeffs()))
    )
