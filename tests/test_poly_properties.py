"""Property tests for `MultiPoly` over Q(i): rendering round-trips
through the parser, single-divisor division reassembles its input, and
the Q(i) root search finds exactly the rational roots of polynomials
built from them."""

from hypothesis import given, settings
from hypothesis import strategies as st

from symcart.exactalg import GaussianRational as Qi
from symcart.exactalg import MultiPoly, gaussian_rational_roots

_parts = st.one_of(
    st.just(0),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)
_scalars = st.builds(Qi, _parts, _parts)


@st.composite
def _polys(draw, n):
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    return MultiPoly(n, draw(st.dictionaries(exponents, _scalars, max_size=6)))


_num_vars = st.integers(1, 3)


@settings(max_examples=100, deadline=None)
@given(_num_vars.flatmap(_polys))
def test_parse_inverts_render(p):
    assert MultiPoly.parse(p.render(), p.num_vars) == p


@settings(max_examples=100, deadline=None)
@given(
    _num_vars.flatmap(
        lambda n: st.tuples(_polys(n), _polys(n).filter(lambda p: not p.is_zero()))
    )
)
def test_divmod_reassembles_its_input(fp):
    f, p = fp
    q, r = f.divmod_by(p)
    assert q * p + r == f
    lead, _ = p.leading_term()
    for e in r.terms:
        assert not all(a >= b for a, b in zip(e, lead))


_root_parts = st.fractions(min_value=-3, max_value=3, max_denominator=2)
_roots = st.builds(Qi, _root_parts, _root_parts)
_x = MultiPoly.variable(1, 0)
_cofactors = {
    "1": MultiPoly.one(1),
    "x^2 - 2": _x * _x - 2,
    "x^2 + x + 1": _x * _x + _x + 1,
}


@settings(max_examples=60, deadline=None)
@given(
    st.lists(_roots, max_size=4),
    _scalars.filter(bool),
    st.sampled_from(sorted(_cofactors)),
)
def test_roots_are_exactly_the_rational_factors(rs, c, g):
    f = _cofactors[g] * c
    for r in rs:
        f = f * (_x - r)
    roots, split = gaussian_rational_roots(f)
    # zero first, then the candidates in their sort order, each once
    assert roots == sorted(set(rs), key=lambda s: (not s.is_zero(), s.sort_key()))
    assert split == (g == "1")
