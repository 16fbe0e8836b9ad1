import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from _oracles import rand_poly, weighted_partition_count
from symcart.exactalg import GaussianRational as Qi
from symcart.exactalg import LinearSpan, MultiPoly, mat_vec
from symcart.invariants import (
    build_chart,
    gradient,
    invariant_basis,
    invariant_generators,
    local_chart,
    phi_from_roots,
    reynolds,
)
from symcart.liesym import catalog, catalog_pair, load_pair
from symcart.rootsys import restricted_roots, weyl_group
from symcart.vecfields import PolyVectorField, reynolds_field

ROOT = Path(__file__).resolve().parent.parent


def _setup(name):
    pair = catalog_pair(name)
    system = restricted_roots(pair)
    weyl = weyl_group(system, pair.kappa_on_cartan())
    return pair, system, weyl


def _mono(nvars, exps, c=1):
    return MultiPoly(nvars, {tuple(exps): Qi(c)})


def test_reynolds_sign_group():
    _, _, weyl = _setup("sl2-so2")
    t = MultiPoly.variable(1, 0)
    assert reynolds(weyl, t).is_zero()
    assert reynolds(weyl, t * t) == t * t
    f = t * t * t + MultiPoly.constant(1, Qi(5))
    assert reynolds(weyl, f) == MultiPoly.constant(1, Qi(5))


def test_reynolds_idempotent_and_invariant():
    rng = random.Random(3)
    for name in ("sl2-so2", "sl3-so21"):
        _, _, weyl = _setup(name)
        for _ in range(8):
            f = rand_poly(rng, weyl.dim, 5)
            rf = reynolds(weyl, f)
            assert reynolds(weyl, rf) == rf
            for w in weyl.elements:
                assert rf.compose_linear(w) == rf


def test_generators_sl2_is_monic_square():
    _, _, weyl = _setup("sl2-so2")
    gens, degrees = invariant_generators(weyl)
    assert degrees == [2]
    assert gens == [_mono(1, (2,))]


def test_generators_sl3_degrees_and_molien_oracle():
    _, _, weyl = _setup("sl3-so21")
    gens, degrees = invariant_generators(weyl)
    assert sorted(degrees) == [2, 3]
    # independent dimension oracle: the rank of the Reynolds projector per
    # degree must match the weighted-partition count for degrees (2, 3)
    for d in range(1, 7):
        monos = _monomials(2, d)
        span = LinearSpan(len(monos))
        for e in monos:
            img = reynolds(weyl, MultiPoly(2, {e: Qi(1)}))
            span.add(img.coefficient_vector(monos))
        assert span.dim == weighted_partition_count((2, 3), d)
        assert len(invariant_basis(weyl, d)) == weighted_partition_count((2, 3), d)


def _monomials(nvars, d):
    if nvars == 1:
        return [(d,)]
    out = []
    for k in range(d + 1):
        out.extend((k,) + rest for rest in _monomials(nvars - 1, d - k))
    return out


def test_generator_degree_product_equals_group_order():
    for pair in catalog():
        _, system, weyl = _setup(pair.name)
        gens, degrees = invariant_generators(weyl)
        prod = 1
        for d in degrees:
            prod *= d
        assert prod == weyl.order
        assert len(gens) == weyl.dim
        for g, d in zip(gens, degrees):
            assert g.degree() == d and g.is_homogeneous()
            for w in weyl.elements:
                assert g.compose_linear(w) == g


def test_trivial_group_generators_are_coordinates():
    _, _, weyl = _setup("abelian2")
    gens, degrees = invariant_generators(weyl)
    assert degrees == [1, 1]
    span = LinearSpan(2)
    for g in gens:
        assert g.is_homogeneous() and g.degree() == 1
        span.add([g.terms.get((1, 0), Qi(0)), g.terms.get((0, 1), Qi(0))])
    assert span.dim == 2


def test_phi_oracles():
    for name in ("sl2-so2", "sl2-diagonal"):
        _, system, weyl = _setup(name)
        phi = phi_from_roots(system)
        assert phi == _mono(1, (2,), -4)

    _, system, weyl = _setup("abelian2")
    assert phi_from_roots(system) == MultiPoly.one(2)

    _, system, weyl = _setup("sl3-so21")
    phi = phi_from_roots(system)
    # product of the six roots is 4 y^2 (9 x^2 + y^2)^2, expanded by hand
    expected = MultiPoly(
        2, {(4, 2): Qi(324), (2, 4): Qi(72), (0, 6): Qi(4)}
    )
    assert phi == expected
    for w in weyl.elements:
        assert phi.compose_linear(w) == phi


def test_gradient_oracles():
    pair, _, _ = _setup("sl2-so2")
    K = pair.kappa_on_cartan()
    t = MultiPoly.variable(1, 0)
    zero = gradient(MultiPoly.constant(1, Qi(7)), K)
    assert all(c.is_zero() for c in zero.components)
    g = gradient(t * t, K)
    assert g.components == [t]
    # directional derivative of p1 along its own gradient
    assert g.apply_to(t * t) == _mono(1, (2,), 2)

    pair, _, _ = _setup("sl3-so21")
    K = pair.kappa_on_cartan()
    lin = MultiPoly.linear_form([Qi(3), Qi(0)])
    g = gradient(lin, K)
    assert g.components == [
        MultiPoly.constant(2, Qi(Fraction(1, 2))),
        MultiPoly.zero(2),
    ]

    with pytest.raises(ValueError, match="degenerate"):
        gradient(t * t, [[Qi(0)]])


def test_gradient_pairing_identity():
    rng = random.Random(9)
    pair, _, _ = _setup("sl3-so21")
    K = pair.kappa_on_cartan()
    for _ in range(10):
        f = rand_poly(rng, 2, 5)
        g = gradient(f, K)
        paired = [
            sum((K[i][j] * g.components[j] for j in range(2)), MultiPoly.zero(2))
            for i in range(2)
        ]
        assert paired == [f.partial(0), f.partial(1)]


def test_gram_identity_constants():
    chart = build_chart(catalog_pair("sl2-so2"))
    det, c = chart.gram_det, chart.gram_constant
    assert det == _mono(1, (2,), 2)
    assert c == Qi(Fraction(-1, 2))
    assert chart.gram_constant == Qi(Fraction(-1, 2))

    chart = build_chart(catalog_pair("sl2-diagonal"))
    assert chart.gram_constant == Qi(Fraction(-1, 4))

    chart = build_chart(catalog_pair("abelian2"))
    assert chart.phi == MultiPoly.one(2)
    assert not chart.gram_constant.is_zero()

    chart = build_chart(catalog_pair("sl3-so21"))
    assert not chart.gram_constant.is_zero()
    det, c = chart.gram_det, chart.gram_constant
    assert det.degree() == 6
    assert det == chart.phi * c


def test_chart_structural_invariants():
    for pair in catalog():
        chart = build_chart(pair)
        prod = 1
        for d in chart.degrees:
            prod *= d
        assert prod == chart.weyl.order
        assert chart.phi == phi_from_roots(chart.system)
        for p in chart.generators:
            for w in chart.weyl.elements:
                assert p.compose_linear(w) == p


def test_local_chart_regular_point_sl2():
    chart = build_chart(catalog_pair("sl2-so2"))
    loc = local_chart(chart, [Qi(1)])
    x = MultiPoly.variable(1, 0)
    assert loc.generators == [x - MultiPoly.one(1)]
    assert loc.degrees == [1]
    assert loc.psi == chart.phi
    assert loc.phi == MultiPoly.one(1)
    assert not loc.psi.evaluate([Qi(1)]).is_zero()


def test_local_chart_origin_reproduces_global():
    for name in ("sl2-so2", "sl3-so21"):
        chart = build_chart(catalog_pair(name))
        n = chart.weyl.dim
        loc = local_chart(chart, [Qi(0)] * n)
        assert loc.generators == chart.generators
        assert loc.degrees == chart.degrees
        assert loc.psi == MultiPoly.one(n)
        assert loc.phi == chart.phi


def test_local_chart_subregular_sl3():
    chart = build_chart(catalog_pair("sl3-so21"))
    point = [Qi(1), Qi(0)]
    loc = local_chart(chart, point)
    assert loc.degrees == [2, 1]
    x0 = MultiPoly.variable(2, 0)
    x1 = MultiPoly.variable(2, 1)
    assert loc.generators[0] == x1 * x1
    assert loc.generators[1] == x0 - MultiPoly.one(2)
    # psi collects the four nonvanishing roots: (9x^2 + y^2)^2
    base = _mono(2, (2, 0), 9) + _mono(2, (0, 2), 1)
    assert loc.psi == base * base
    assert loc.phi == _mono(2, (0, 2), 4)
    assert loc.psi * loc.phi == chart.phi
    assert loc.psi.evaluate(point) == Qi(81)


def test_slice_factorization_every_pair_random_points():
    rng = random.Random(21)
    for pair in catalog():
        chart = build_chart(pair)
        n = chart.weyl.dim
        for _ in range(4):
            pt = [Qi(rng.randint(-3, 3)) for _ in range(n)]
            loc = local_chart(chart, pt)
            assert loc.psi * loc.phi == chart.phi
            assert not loc.psi.evaluate(pt).is_zero()
            assert loc.phi.evaluate(pt).is_zero() or loc.phi == MultiPoly.one(n)


def test_zero_set_matches_root_hyperplanes():
    rng = random.Random(17)
    for pair in catalog():
        system = restricted_roots(pair)
        chart = build_chart(pair)
        for _ in range(20):
            pt = [
                Qi(Fraction(rng.randint(-4, 4), rng.randint(1, 2)))
                for _ in range(system.rank)
            ]
            phi_val = chart.phi.evaluate(pt)
            root_vanishes = any(
                sum((f * x for f, x in zip(r.functional, pt)), Qi(0)).is_zero()
                for r in system.roots
            )
            assert phi_val.is_zero() == root_vanishes


# the CLI's slice points of each catalog pair, with det(local Gram) divided
# by phi_a_local there; local_chart itself certifies det = c * phi_a_local
# and adj(A) A = det(A) I, so only the constants are checked here
LOCAL_GRAM_CONSTANTS = {
    "sl2-so2": [([0], Fraction(-1, 2)), ([1], Fraction(1, 2))],
    "sl3-so21": [
        ([0, 0], Fraction(-1, 108)),
        ([1, 1], Fraction(-1, 12)),
        ([1, 0], Fraction(-1, 12)),
    ],
    "abelian2": [([0, 0], Fraction(1)), ([1, 1], Fraction(1))],
    "sl2-diagonal": [([0], Fraction(-1, 4)), ([1], Fraction(1, 4))],
}


def test_local_gram_identity_at_slice_points():
    for name, cases in LOCAL_GRAM_CONSTANTS.items():
        chart = build_chart(catalog_pair(name))
        for pt, c in cases:
            loc = local_chart(chart, [Qi(v) for v in pt])
            assert loc.gram_constant == Qi(c), (name, pt)


def _fixture_weyl(path):
    pair = load_pair(json.loads(path.read_text()))
    return weyl_group(restricted_roots(pair), pair.kappa_on_cartan())


def _count_products(monkeypatch):
    """One entry per product of two polynomials, the cost of a new
    monomial image in `WeylGroup.act`."""
    calls = []
    original = MultiPoly.__mul__

    def counted(self, other):
        if isinstance(other, MultiPoly):
            calls.append(other.num_vars)
        return original(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    return calls


def _kept_images(weyl):
    return sum(len(images) for images in weyl._images)


@pytest.mark.parametrize(
    "name",
    ["sl2-so2", "sl3-so21", "abelian2", "sl2-diagonal", "sl2-so2-cubed", "sl4-so4"],
)
def test_cached_action_matches_plain_composition(name, monkeypatch):
    # f(w x) read from the group's kept monomial images equals f composed
    # with the linear forms of w's rows, whether the images are new or
    # kept; a new image costs at most one product, a kept one none
    if name == "sl2-so2-cubed":
        weyl = _fixture_weyl(ROOT / "perfbench" / "fixtures" / "sl2-so2-cubed.json")
    elif name == "sl4-so4":
        weyl = _fixture_weyl(ROOT / "tests" / "fixtures" / "sl4-so4.json")
    else:
        weyl = _setup(name)[2]
    rng = random.Random(name)
    polys = [rand_poly(rng, weyl.dim, d) for d in range(6)]
    expected = [
        [f.compose([MultiPoly.linear_form(row) for row in w]) for f in polys]
        for w in weyl.elements
    ]
    calls = _count_products(monkeypatch)
    for warm in (False, True):
        kept = _kept_images(weyl)
        for i, images in enumerate(expected):
            for f, fw in zip(polys, images):
                assert weyl.act(i, f) == fw, (name, warm, i, f)
        if warm:
            assert calls == []
            assert _kept_images(weyl) == kept
        else:
            assert 0 < len(calls) <= _kept_images(weyl) - kept
            calls.clear()


def test_field_average_composes_less_on_a_warm_group(monkeypatch):
    # the monomial images a cold group fills are products; a warm group
    # reads them all back and multiplies no polynomials
    _, _, weyl = _setup("sl3-so21")
    rng = random.Random(5)
    X = PolyVectorField([rand_poly(rng, 2, 4) for _ in range(2)])
    calls = _count_products(monkeypatch)
    Y = reynolds_field(weyl, X)
    cold = len(calls)
    calls.clear()
    assert reynolds_field(weyl, X) == Y
    assert cold > len(calls) == 0
