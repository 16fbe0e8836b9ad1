"""Property tests for the elimination determinant `mat_det`, against the
cofactor expansion in `_oracles` and against sympy, on Gaussian-rational
matrices that include singular ones and zero leading pivots."""

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import det_cofactor
from symcart.exactalg import GaussianRational as Qi
from symcart.exactalg import mat_det, mat_mul

_parts = st.one_of(
    st.just(0),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)
_entries = st.builds(Qi, _parts, _parts)


@st.composite
def _matrices(draw, n):
    rows = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        # a zero (0,0) entry: elimination must swap rows or report zero
        rows[0][0] = Qi(0)
    if n > 1 and draw(st.booleans()):
        # last row a combination of the others: singular
        c, d = draw(_entries), draw(_entries)
        rows[-1] = [c * a + d * b for a, b in zip(rows[0], rows[n - 2])]
    return rows


_square = st.integers(1, 5).flatmap(_matrices)
_square_pairs = st.integers(1, 4).flatmap(
    lambda n: st.tuples(_matrices(n), _matrices(n))
)


def _to_sympy(x):
    return sympy.Rational(x.real) + sympy.I * sympy.Rational(x.imag)


@settings(max_examples=60, deadline=None)
@given(_square)
def test_mat_det_matches_cofactor_and_sympy(A):
    d = mat_det(A)
    assert d == det_cofactor(A)
    expected = sympy.Matrix([[_to_sympy(x) for x in row] for row in A]).det()
    assert sympy.expand(expected - _to_sympy(d)) == 0


@settings(max_examples=40, deadline=None)
@given(_square_pairs)
def test_mat_det_is_multiplicative(AB):
    A, B = AB
    assert mat_det(mat_mul(A, B)) == mat_det(A) * mat_det(B)


def test_mat_det_row_swap_and_zero_column():
    swap = [[Qi(0), Qi(1)], [Qi(1), Qi(0)]]
    assert mat_det(swap) == Qi(-1)
    # the second column has no pivot once the first is eliminated
    no_pivot = [[Qi(1), Qi(2), Qi(0)], [Qi(2), Qi(4), Qi(0)], [Qi(0), Qi(0), Qi(5)]]
    assert mat_det(no_pivot) == Qi(0)


def test_mat_det_rejects_empty_and_non_square():
    with pytest.raises(ValueError, match="empty"):
        mat_det([])
    with pytest.raises(ValueError, match="not square"):
        mat_det([[Qi(1), Qi(2)]])
