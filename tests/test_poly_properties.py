"""Property tests for Q(i) scalars and `MultiPoly` over them: scalars
round-trip through their rendering, obey the field axioms against a
Fraction-pair oracle and keep one canonical integer triple per value;
their rendering and `exact_order` agree with the Fraction parts, and the
Gaussian divisors from prime factors agree with a search over norms;
polynomial rendering round-trips through the parser, single-divisor
division reassembles its input, and the Q(i) root search finds exactly
the rational roots of polynomials built from them. Packed exponents
order as grevlex on tuples and carry nothing below the exponent bound,
where a product is refused; the integer store is canonical, so equal
polynomials reached by different routes have identical stores. The scalar dot
product under `mat_mul` and `mat_vec` matches a term-by-term sum of
Fraction pairs, and with zero rows, columns and vectors the dense sum of
every product, over Q(i) and over polynomials; the fused
`linear_combination` matches a term-by-term Q(i) sum, the binomial
`shift` matches composition with x + a, and the jet products and the
Reynolds field match the accumulation loops they replace."""

import functools
import os
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import (
    dense_dot,
    dense_mat_mul,
    gaussian_divisors_by_norms,
    render_scalar_by_fractions,
)
from symcart.exactalg import GaussianRational as Qi
from symcart.exactalg import (
    EXPONENT_BOUND,
    QI_ZERO,
    MultiPoly,
    _dot,
    _gaussian_int_divisors,
    _order,
    _pack,
    _qi,
    _unpack,
    exact_order,
    gaussian_rational_roots,
    linear_combination,
    mat_mul,
    mat_vec,
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


# canonical triples with zero and negative parts and denominators above 1
_triples = st.builds(
    _qi, st.integers(-60, 60) | st.just(0), st.integers(-60, 60) | st.just(0),
    st.integers(1, 40),
)


@settings(max_examples=300, deadline=None)
@given(_triples)
def test_render_scalar_matches_the_fraction_parts(x):
    assert render_scalar(x) == render_scalar_by_fractions(x)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda k: st.lists(st.lists(_triples, min_size=k, max_size=k), max_size=12)
))
def test_exact_order_sorts_as_the_fraction_pairs(rows):
    ordered = [rows[i] for i in exact_order(rows)]
    assert ordered == sorted(rows, key=lambda r: [(x.real, x.imag) for x in r])


# Gaussian integers, some with repeated prime factors: 720 = 2^4 3^2 5
_gauss_parts = st.integers(-3000, 3000) | st.integers(-4, 4).map(lambda k: 720 * k)


@settings(max_examples=200, deadline=None)
@given(_gauss_parts, _gauss_parts)
def test_gaussian_divisors_match_the_search_by_norms(a, b):
    assume(a or b)
    divisors = _gaussian_int_divisors(a, b)
    assert len(set(divisors)) == len(divisors)
    assert set(divisors) == gaussian_divisors_by_norms(a, b)


# entries with zero, purely real and purely imaginary values among them
_entry_parts = st.one_of(st.just(0), _wide_parts)
_entries = st.builds(Qi, _entry_parts, _entry_parts)


def _oracle_dot(xs, ys):
    acc = (Fraction(0), Fraction(0))
    for x, y in zip(xs, ys):
        acc = _oracle_add(acc, _oracle_mul(_pair(x), _pair(y)))
    return acc


def _canonical(x, pair):
    """x has the value `pair` and the triple that value's constructor makes."""
    ref = Qi(*pair)
    return _pair(x) == pair and (x._a, x._b, x._d) == (ref._a, ref._b, ref._d)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 5).flatmap(
        lambda n: st.tuples(
            st.lists(_entries, min_size=n, max_size=n),
            st.lists(_entries, min_size=n, max_size=n),
        )
    )
)
def test_scalar_dot_matches_termwise_sum(case):
    xs, ys = case
    assert _canonical(_dot(None, xs, ys), _oracle_dot(xs, ys))


@settings(max_examples=100, deadline=None)
@given(
    st.tuples(st.integers(1, 3), st.integers(0, 3), st.integers(1, 3)).flatmap(
        lambda shape: st.tuples(
            st.lists(
                st.lists(_entries, min_size=shape[1], max_size=shape[1]),
                min_size=shape[0],
                max_size=shape[0],
            ),
            st.lists(
                st.lists(_entries, min_size=shape[2], max_size=shape[2]),
                min_size=shape[1],
                max_size=shape[1],
            ),
            st.lists(_entries, min_size=shape[1], max_size=shape[1]),
        )
    )
)
def test_matrix_products_match_termwise_sums(case):
    A, B, v = case
    Av = mat_vec(A, v)
    assert len(Av) == len(A)
    for row, x in zip(A, Av):
        assert _canonical(x, _oracle_dot(row, v))
    if B:
        AB = mat_mul(A, B)
        assert [len(r) for r in AB] == [len(B[0])] * len(A)
        for row, out in zip(A, AB):
            for col, x in zip(zip(*B), out):
                assert _canonical(x, _oracle_dot(row, col))


@st.composite
def _polys(draw, n):
    exponents = st.tuples(*[st.integers(0, 3)] * n)
    return MultiPoly(n, draw(st.dictionaries(exponents, _scalars, max_size=6)))


_num_vars = st.integers(1, 3)


@st.composite
def _with_zeros(draw, entries, rows, cols, zero):
    """A rows x cols matrix of the entries with some rows and some
    columns set to `zero`."""
    M = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                      min_size=rows, max_size=rows))
    zero_rows = draw(st.sets(st.integers(0, rows - 1)))
    zero_cols = draw(st.sets(st.integers(0, cols - 1)))
    return [
        [zero if i in zero_rows or j in zero_cols else x for j, x in enumerate(row)]
        for i, row in enumerate(M)
    ]


@st.composite
def _sparse_products(draw):
    r, m, c = (draw(st.integers(1, 4)) for _ in range(3))
    A = draw(_with_zeros(_entries, r, m, QI_ZERO))
    B = draw(_with_zeros(_entries, m, c, QI_ZERO))
    v = draw(st.just([QI_ZERO] * m) | st.lists(_entries, min_size=m, max_size=m))
    return A, B, v


@settings(max_examples=200, deadline=None)
@given(_sparse_products())
def test_zero_aware_products_equal_the_dense_sums(case):
    # mat_mul and mat_vec skip the zero entries of A and v, and _dot
    # builds no sum for zero; the canonical triples make == exact, so a
    # zero sum equals QI_ZERO and every other sum the dense one
    A, B, v = case
    AB = mat_mul(A, B)
    assert AB == dense_mat_mul(A, B)
    assert len({id(row) for row in AB}) == len(AB)
    for row, out in zip(A, AB):
        if all(x == QI_ZERO for x in row):
            assert out == [QI_ZERO] * len(B[0])
    assert mat_vec(A, v) == [dense_dot(row, v) for row in A]
    for row in A:
        assert _dot(None, row, v) == dense_dot(row, v)


@st.composite
def _polynomial_products(draw):
    n = draw(_num_vars)
    zero = MultiPoly.zero(n)
    A = draw(_with_zeros(_polys(n), 2, 2, zero))
    B = draw(_with_zeros(_polys(n), 2, 2, zero))
    v = draw(st.lists(_polys(n) | _entries, min_size=2, max_size=2))
    return zero, A, B, v


@settings(max_examples=40, deadline=None)
@given(_polynomial_products())
def test_polynomial_products_equal_the_dense_sums(case):
    zero, A, B, v = case
    assert mat_mul(A, B) == dense_mat_mul(A, B, zero)
    assert mat_vec(A, v) == [dense_dot(row, v, zero) for row in A]


@settings(max_examples=100, deadline=None)
@given(_num_vars.flatmap(_polys))
def test_parse_inverts_render(p):
    assert MultiPoly.parse(p.render(), p.num_vars) == p


def _grevlex_key(e):
    """Grevlex on exponent tuples, the reference for the packed key: the
    total degree, then the smaller exponent of the last variable that
    differs makes the larger monomial."""
    return (sum(e), tuple(-x for x in reversed(e)))


# small exponents collide often; large ones put every field near half full
_exponent = st.one_of(st.integers(0, 3), st.integers(0, EXPONENT_BOUND // 3 - 1))


@settings(max_examples=200, deadline=None)
@given(
    _num_vars.flatmap(
        lambda n: st.lists(st.tuples(*[_exponent] * n), min_size=1, max_size=12)
    )
)
def test_packed_key_orders_as_grevlex(exponents):
    n = len(exponents[0])
    key = _order(n)
    assert sorted(exponents, key=lambda e: key(_pack(e))) == sorted(
        exponents, key=_grevlex_key
    )
    assert [_unpack(_pack(e), n) for e in exponents] == exponents


@settings(max_examples=100, deadline=None)
@given(_num_vars.flatmap(_polys))
def test_terms_view_rebuilds_the_polynomial(p):
    assert MultiPoly(p.num_vars, p.terms) == p
    assert p._den > 0 and all(a or b for a, b in p._num.values())
    assert gcd(p._den, *[x for t in p._num.values() for x in t]) == 1


def _store(p):
    return p.num_vars, p._den, p._num


@settings(max_examples=100, deadline=None)
@given(
    _num_vars.flatmap(
        lambda n: st.tuples(
            _polys(n), _polys(n), st.lists(_wide, min_size=n, max_size=n)
        )
    )
)
def test_equal_polynomials_have_identical_stores(case):
    f, g, a = case
    n = f.num_vars
    h = f * g
    routes = [
        g * f,
        MultiPoly.parse(h.render(), n),
        MultiPoly(n, h.terms),
        linear_combination(n, [(f, g)]),
        linear_combination(n, [(Qi(3), h), (Qi(Fraction(-1, 2)), h * 4)]),
        h.shift(a).shift([-x for x in a]),
        (h + f) - f,
        -(-h),
    ]
    for p in routes:
        assert _store(p) == _store(h)


@settings(max_examples=100, deadline=None)
@given(
    _num_vars.flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.integers(0, n - 1),
            st.integers(0, n - 1),
            st.integers(1, EXPONENT_BOUND - 1),
            st.integers(1, EXPONENT_BOUND - 1),
        )
    )
)
def test_products_carry_nothing_below_the_bound_and_raise_at_it(case):
    n, i, j, a, b = case
    p = MultiPoly.parse(f"x{i}^{a}", n)
    q = MultiPoly.parse(f"x{j}^{b}", n)
    if a + b >= EXPONENT_BOUND:
        with pytest.raises(ValueError, match=f"reaches the exponent bound {EXPONENT_BOUND}$"):
            p * q
    else:
        e = [0] * n
        e[i] += a
        e[j] += b
        assert (p * q).terms == {tuple(e): Qi(1)}


def test_the_product_degree_guard_holds_under_python_O():
    # the guard is an explicit `if`, so stripping asserts keeps it
    src = Path(__file__).resolve().parent.parent / "src"
    script = (
        "import sys\n"
        "from symcart.exactalg import EXPONENT_BOUND, MultiPoly\n"
        "x = MultiPoly.parse(f'x0^{EXPONENT_BOUND // 2}', 1)\n"
        "try:\n"
        "    x * x\n"
        "except ValueError as e:\n"
        "    print(sys.flags.optimize, e)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.stdout == (
        f"1 product degree {EXPONENT_BOUND} reaches the exponent bound "
        f"{EXPONENT_BOUND}\n"
    ), out.stderr


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
    assert roots == sorted(set(rs), key=lambda s: (not s.is_zero(), (s.real, s.imag)))
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


def _slots(J):
    n = J.poly.num_vars
    parts = J.poly.homogeneous_components()
    return [parts.get(k, MultiPoly.zero(n)) for k in range(J.truncation_order + 1)]


def _old_jet_mul(J1, J2):
    n = J1.poly.num_vars
    a, b = _slots(J1), _slots(J2)
    comps = []
    for k in range(J1.truncation_order + 1):
        acc = MultiPoly.zero(n)
        for j in range(k + 1):
            acc = acc + a[j] * b[k - j]
        comps.append(acc)
    return comps


def _old_jet_invert(J):
    n = J.poly.num_vars
    a = _slots(J)
    cinv = Qi(1) / a[0].constant_term()
    out = [MultiPoly.constant(n, cinv)]
    for k in range(1, J.truncation_order + 1):
        acc = MultiPoly.zero(n)
        for j in range(1, k + 1):
            acc = acc + a[j] * out[k - j]
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
    assert _slots(jet_mul(Jf, Jg)) == _old_jet_mul(Jf, Jg)
    assume(not f.evaluate(base).is_zero())
    assert _slots(jet_invert(Jf)) == _old_jet_invert(Jf)


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
