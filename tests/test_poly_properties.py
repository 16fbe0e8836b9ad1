"""Property tests for Q(i) scalars and `MultiPoly` over them: scalars
round-trip through their rendering, obey the field axioms against a
Fraction-pair oracle and keep one canonical integer triple per value;
polynomial rendering round-trips through the parser, single-divisor
division reassembles its input, and the Q(i) root search finds exactly
the rational roots of polynomials built from them."""

from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from symcart.exactalg import GaussianRational as Qi
from symcart.exactalg import (
    MultiPoly,
    gaussian_rational_roots,
    parse_scalar,
    render_scalar,
)

_parts = st.one_of(
    st.just(0),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)
_scalars = st.builds(Qi, _parts, _parts)


_wide_parts = st.fractions(min_value=-50, max_value=50, max_denominator=60)
_wide = st.builds(Qi, _wide_parts, _wide_parts)


def _pair(x):
    return (x.real, x.imag)


# the Fraction-pair oracle: (a, b) stands for a + b i
def _oracle_add(p, q):
    return (p[0] + q[0], p[1] + q[1])


def _oracle_mul(p, q):
    return (p[0] * q[0] - p[1] * q[1], p[0] * q[1] + p[1] * q[0])


def _oracle_div(p, q):
    n = q[0] * q[0] + q[1] * q[1]
    return _oracle_mul(p, (q[0] / n, -q[1] / n))


@settings(max_examples=200, deadline=None)
@given(_wide)
def test_scalar_parse_inverts_render(x):
    assert parse_scalar(render_scalar(x)) == x


@settings(max_examples=200, deadline=None)
@given(_wide, _wide, _wide)
def test_scalar_field_axioms_against_fraction_pairs(x, y, z):
    zero, one = Qi(0), Qi(1)
    assert _pair(x + y) == _oracle_add(_pair(x), _pair(y))
    assert _pair(x - y) == _oracle_add(_pair(x), _pair(-y))
    assert _pair(x * y) == _oracle_mul(_pair(x), _pair(y))
    assert x + y == y + x and x * y == y * x
    assert (x + y) + z == x + (y + z) and (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + zero == x and x * one == x and x + (-x) == zero
    assert x * zero == zero and x ** 3 == x * x * x
    if y:
        assert _pair(x / y) == _oracle_div(_pair(x), _pair(y))
        assert (x / y) * y == x
        assert y * (one / y) == one


@settings(max_examples=200, deadline=None)
@given(_wide, _wide, st.integers(1, 40))
def test_scalar_canonical_triple(x, y, k):
    for v in (x, y, x + y, x * y, x - x):
        assert v._d > 0 and gcd(v._a, v._b, v._d) == 1
    # the same value reached another way has the same triple and hash
    same = (x * k + y - y) / k
    assert (same._a, same._b, same._d) == (x._a, x._b, x._d)
    assert same == x and hash(same) == hash(x)
    assert Qi(x.real, x.imag) == x and hash(Qi(x.real, x.imag)) == hash(x)


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
