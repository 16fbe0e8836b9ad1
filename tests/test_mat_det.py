"""Property tests for the Faddeev-LeVerrier determinant and adjugate
`det_adjugate` and its determinant `mat_det`, against the cofactor
expansion in `_oracles` and against sympy. Matrices have
Gaussian-rational entries or polynomial entries in two variables of
degree at most 2, and include singular ones and zero (0,0) entries."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import count_calls, det_cofactor
from symcart.exactalg import MultiPoly, det_adjugate, mat_det, mat_mul
from symcart.exactalg import GaussianRational as Qi

_parts = st.one_of(
    st.just(0),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)
_scalars = st.builds(Qi, _parts, _parts)
_exponents = st.sampled_from([(a, b) for a in range(3) for b in range(3 - a)])
_polys = st.dictionaries(_exponents, _scalars, max_size=3).map(
    lambda terms: MultiPoly(2, terms)
)


@st.composite
def _matrices(draw, n, entries):
    rows = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        rows[0][0] = 0 * rows[0][0]
    if n > 1 and draw(st.booleans()):
        # last row a combination of the others: singular
        c, d = draw(_scalars), draw(_scalars)
        rows[-1] = [c * a + d * b for a, b in zip(rows[0], rows[n - 2])]
    return rows


def _square(entries, max_n):
    return st.integers(1, max_n).flatmap(lambda n: _matrices(n, entries))


def _square_pairs(entries, max_n):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(_matrices(n, entries), _matrices(n, entries))
    )


_X = sympy.symbols("x0 x1")


def _to_sympy(x):
    if isinstance(x, MultiPoly):
        return sum(
            (_to_sympy(c) * _X[0] ** a * _X[1] ** b for (a, b), c in x.terms.items()),
            sympy.Integer(0),
        )
    return sympy.Rational(x.real) + sympy.I * sympy.Rational(x.imag)


@settings(max_examples=60, deadline=None)
@given(st.one_of(_square(_scalars, 5), _square(_polys, 4)))
def test_mat_det_matches_cofactor_and_sympy(A):
    d = mat_det(A)
    assert d == det_cofactor(A)
    expected = sympy.Matrix([[_to_sympy(x) for x in row] for row in A]).det()
    assert sympy.expand(expected - _to_sympy(d)) == 0


@settings(max_examples=40, deadline=None)
@given(st.one_of(_square_pairs(_scalars, 4), _square_pairs(_polys, 3)))
def test_mat_det_is_multiplicative(AB):
    A, B = AB
    assert mat_det(mat_mul(A, B)) == mat_det(A) * mat_det(B)


@settings(max_examples=40, deadline=None)
@given(_square(_polys, 4))
def test_adjugate_times_matrix_is_det_identity(M):
    det, adj = det_adjugate(M)
    zero = MultiPoly.zero(2)
    n = len(M)
    assert mat_mul(M, adj) == [
        [det if i == j else zero for j in range(n)] for i in range(n)
    ]


@settings(max_examples=40, deadline=None)
@given(st.one_of(_square(_scalars, 5), _square(_polys, 4)))
def test_det_adjugate_matches_sympy(M):
    det, adj = det_adjugate(M)
    S = sympy.Matrix([[_to_sympy(x) for x in row] for row in M])
    assert sympy.expand(S.det() - _to_sympy(det)) == 0
    got = sympy.Matrix([[_to_sympy(x) for x in row] for row in adj])
    assert (S.adjugate() - got).expand() == sympy.zeros(len(M))


def test_det_adjugate_takes_no_determinant_and_no_division(monkeypatch):
    dets = count_calls(monkeypatch, "mat_det")
    divisions = count_calls(monkeypatch, "MultiPoly.divmod_by")
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    one = MultiPoly.one(2)
    M = [[x, y, one], [y, x * y, x], [one, x, y * y]]
    det, _ = det_adjugate(M)
    assert (dets, divisions) == ([], [])
    assert not det.is_zero()
    # `mat_det` is the recurrence's determinant: no division either
    assert mat_det(M) == det and divisions == []


def test_det_adjugate_rejects_empty():
    with pytest.raises(ValueError):
        det_adjugate([])


def test_mat_det_row_swap_and_zero_column():
    swap = [[Qi(0), Qi(1)], [Qi(1), Qi(0)]]
    assert mat_det(swap) == Qi(-1)
    # the second column has no pivot once the first is eliminated
    no_pivot = [[Qi(1), Qi(2), Qi(0)], [Qi(2), Qi(4), Qi(0)], [Qi(0), Qi(0), Qi(5)]]
    assert mat_det(no_pivot) == Qi(0)


def test_singular_polynomial_matrix_has_polynomial_zero_det():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    zero = MultiPoly.zero(2)
    # a zero last pivot, and a column with no pivot at all
    for M in ([[x, y], [x * x, x * y]], [[zero, y], [zero, x]]):
        d = mat_det(M)
        assert isinstance(d, MultiPoly) and d.is_zero()
        assert d.render() == "(0)"


def test_mat_det_rejects_empty_and_non_square():
    with pytest.raises(ValueError, match="empty"):
        mat_det([])
    with pytest.raises(ValueError, match="not square"):
        mat_det([[Qi(1), Qi(2)]])
