"""Property tests for Q(i) scalars and `MultiPoly` over them: scalars
round-trip through their rendering, obey the field axioms against a
Fraction-pair oracle and keep one canonical integer triple per value;
polynomial rendering round-trips through the parser, single-divisor
division reassembles its input, and the Q(i) root search finds exactly
the rational roots of polynomials built from them. The fused
`linear_combination` matches a term-by-term Q(i) sum, the binomial
`shift` matches composition with x + a, and the jet products and the
Reynolds field match the accumulation loops they replace."""

import functools
from fractions import Fraction
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from symcart.exactalg import GaussianRational as Qi
from symcart.exactalg import (
    MultiPoly,
    gaussian_rational_roots,
    linear_combination,
    parse_scalar,
    render_scalar,
)
from symcart.liesym import catalog_pair
from symcart.rootsys import restricted_roots, weyl_group
from symcart.vecfields import (
    PolyVectorField,
    _push,
    jet_invert,
    jet_mul,
    jet_of,
    reynolds_field,
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


def _naive_sum(n, pairs):
    """sum a * p term by term in Q(i) scalars, without common
    denominators: the reference for the fused kernel."""
    terms = {}
    for a, p in pairs:
        left = a.terms if isinstance(a, MultiPoly) else {(0,) * n: a}
        for e1, c1 in left.items():
            for e2, c2 in p.terms.items():
                e = tuple(x + y for x, y in zip(e1, e2))
                terms[e] = terms.get(e, Qi(0)) + c1 * c2
    return MultiPoly(n, terms)


def _pairs(n):
    factor = st.one_of(_scalars, _polys(n), st.just(MultiPoly.zero(n)))
    return st.lists(st.tuples(factor, _polys(n)), max_size=5)


@settings(max_examples=150, deadline=None)
@given(_num_vars.flatmap(lambda n: st.tuples(st.just(n), _pairs(n))))
def test_linear_combination_matches_termwise_sum(case):
    n, pairs = case
    fused = linear_combination(n, pairs)
    assert fused == _naive_sum(n, pairs)
    for c in fused.terms.values():
        assert c and c._d > 0 and gcd(c._a, c._b, c._d) == 1


@settings(max_examples=100, deadline=None)
@given(
    _num_vars.flatmap(
        lambda n: st.tuples(
            _polys(n),
            st.lists(_wide, min_size=n, max_size=n),
            st.lists(_scalars, min_size=n, max_size=n),
        )
    )
)
def test_shift_is_composition_with_a_translation(case):
    f, a, x = case
    n = f.num_vars
    g = f.shift(a)
    subs = [MultiPoly.variable(n, i) + MultiPoly.constant(n, a[i]) for i in range(n)]
    assert g == f.compose(subs)
    assert g.shift([-c for c in a]) == f
    assert g.evaluate(x) == f.evaluate([u + v for u, v in zip(x, a)])


def _old_jet_mul(J1, J2):
    n = J1.components[0].num_vars
    comps = []
    for k in range(J1.truncation_order + 1):
        acc = MultiPoly.zero(n)
        for j in range(k + 1):
            acc = acc + J1.components[j] * J2.components[k - j]
        comps.append(acc)
    return comps


def _old_jet_invert(J):
    n = J.components[0].num_vars
    cinv = Qi(1) / J.components[0].constant_term()
    out = [MultiPoly.constant(n, cinv)]
    for k in range(1, J.truncation_order + 1):
        acc = MultiPoly.zero(n)
        for j in range(1, k + 1):
            acc = acc + J.components[j] * out[k - j]
        out.append(acc * (-cinv))
    return out


@settings(max_examples=60, deadline=None)
@given(
    _num_vars.flatmap(
        lambda n: st.tuples(
            _polys(n),
            _polys(n),
            st.lists(_scalars, min_size=n, max_size=n),
            st.integers(0, 4),
        )
    )
)
def test_jet_products_match_the_accumulation_loops(case):
    f, g, base, N = case
    Jf, Jg = jet_of(f, base, N), jet_of(g, base, N)
    assert jet_mul(Jf, Jg).components == _old_jet_mul(Jf, Jg)
    assume(not f.evaluate(base).is_zero())
    assert jet_invert(Jf).components == _old_jet_invert(Jf)


@functools.cache
def _catalog_weyl(name):
    pair = catalog_pair(name)
    return weyl_group(restricted_roots(pair), pair.kappa_on_cartan())


@st.composite
def _fields(draw):
    weyl = _catalog_weyl(
        draw(st.sampled_from(["sl2-so2", "sl3-so21", "abelian2", "sl2-diagonal"]))
    )
    return weyl, PolyVectorField([draw(_polys(weyl.dim)) for _ in range(weyl.dim)])


@settings(max_examples=40, deadline=None)
@given(_fields())
def test_reynolds_field_is_the_average_of_the_pushes(case):
    weyl, X = case
    pushed = [_push(weyl, i, X) for i in range(weyl.order)]
    scale = Qi(Fraction(1, weyl.order))
    average = [
        sum((p[k] for p in pushed), MultiPoly.zero(X.dim)) * scale
        for k in range(X.dim)
    ]
    assert reynolds_field(weyl, X).components == average
