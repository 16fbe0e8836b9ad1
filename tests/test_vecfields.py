import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from _oracles import average_field, average_poly, count_calls, rand_poly
from symcart import exactalg
from symcart.exactalg import GaussianRational as Qi
from symcart.exactalg import MultiPoly, mat_identity
from symcart.invariants import build_chart, gradient, is_invariant, local_chart
from symcart.liesym import catalog, catalog_pair, load_pair
from symcart.rootsys import restricted_roots, weyl_group
from symcart.vecfields import (
    InvariantDerivation,
    Jet,
    NotLiftable,
    PolyVectorField,
    default_truncation,
    field_from_coefficients,
    ideal_stable,
    induce_derivation,
    is_invariant_field,
    jet_gradient_action,
    jet_invert,
    jet_mul,
    jet_of,
    jet_unit,
    lift_derivation,
    reynolds_field,
    solomon_decompose,
    transition_matrix,
)

REGULAR_POINTS = {
    "sl2-so2": [Qi(1)],
    "sl2-diagonal": [Qi(1)],
    "sl3-so21": [Qi(1), Qi(1)],
    "abelian2": [Qi(1), Qi(1)],
}


ROOT = Path(__file__).resolve().parent.parent


def _fixture_chart(path):
    return build_chart(load_pair(json.loads(path.read_text())))


def _chart(name):
    pair = catalog_pair(name)
    system = restricted_roots(pair)
    weyl = weyl_group(system, pair.kappa_on_cartan())
    return build_chart(pair), system, weyl


def _euler(n):
    return PolyVectorField([MultiPoly.variable(n, i) for i in range(n)])


def _rand_invariant(rng, weyl, max_deg):
    return average_poly(rand_poly(rng, weyl.dim, max_deg), weyl)


def _induced_field(phis, chart):
    X = PolyVectorField.zero(chart.weyl.dim)
    for f, g in zip(phis, chart.gradients):
        X = X + f * g
    return X


def test_invariance_flags():
    for name in ("sl2-so2", "sl3-so21"):
        chart, _, weyl = _chart(name)
        assert is_invariant_field(_euler(weyl.dim), weyl)
        for g in chart.gradients:
            assert is_invariant_field(g, weyl)

    _, _, weyl = _chart("sl2-so2")
    const = PolyVectorField([MultiPoly.one(1)])
    assert not is_invariant_field(const, weyl)

    rng = random.Random(5)
    chart, _, weyl = _chart("sl3-so21")
    raw = [rand_poly(rng, 2, 4) for _ in range(2)]
    avg = PolyVectorField(average_field(raw, weyl))
    assert is_invariant_field(avg, weyl)


def _pushed(w, comps):
    # w . X(w^{-1} x) for an involution w
    n = len(comps)
    moved = [c.compose_linear(w) for c in comps]
    return [
        sum((w[i][j] * moved[j] for j in range(n)), MultiPoly.zero(n))
        for i in range(n)
    ]


def test_generator_checks_agree_with_elementwise_oracles():
    rng = random.Random(13)
    seen = set()
    for pair in catalog():
        _, _, weyl = _chart(pair.name)
        n = weyl.dim
        for _ in range(4):
            f = rand_poly(rng, n, 4)
            for g in (f, average_poly(f, weyl)):
                verdict = is_invariant(g, weyl)
                assert verdict == (average_poly(g, weyl) == g)
                seen.add(verdict)
            raw = [rand_poly(rng, n, 3) for _ in range(n)]
            avg = average_field(raw, weyl)
            assert reynolds_field(weyl, PolyVectorField(raw)).components == avg
            for comps in (raw, avg):
                verdict = is_invariant_field(PolyVectorField(comps), weyl)
                assert verdict == (average_field(comps, weyl) == comps)
                seen.add(verdict)
    assert seen == {True, False}

    # fixed by one generating reflection of sl3-so21, not by the group
    _, _, weyl = _chart("sl3-so21")
    s = weyl.generators[0]
    f = rand_poly(rng, 2, 4)
    f = f + f.compose_linear(s)
    assert f.compose_linear(s) == f
    assert average_poly(f, weyl) != f
    assert not is_invariant(f, weyl)
    raw = [rand_poly(rng, 2, 3) for _ in range(2)]
    comps = [a + b for a, b in zip(raw, _pushed(s, raw))]
    assert _pushed(s, comps) == comps
    assert average_field(comps, weyl) != comps
    assert not is_invariant_field(PolyVectorField(comps), weyl)


def test_solomon_basic_cases():
    chart, _, weyl = _chart("sl3-so21")
    zero = PolyVectorField.zero(2)
    assert solomon_decompose(zero, chart) == [
        MultiPoly.zero(2),
        MultiPoly.zero(2),
    ]
    R = solomon_decompose(chart.gradients[1], chart)
    assert R == [MultiPoly.zero(2), MultiPoly.one(2)]

    chart, _, weyl = _chart("sl2-so2")
    # p1 = t^2 makes its gradient the Euler field itself
    R = solomon_decompose(_euler(1), chart)
    assert R == [MultiPoly.one(1)]


def test_solomon_rejects_noninvariant_field():
    chart, _, weyl = _chart("sl2-so2")
    with pytest.raises(ValueError, match="invariant"):
        solomon_decompose(PolyVectorField([MultiPoly.one(1)]), chart)


def test_solomon_round_trip_on_averaged_fields():
    rng = random.Random(11)
    for pair in catalog():
        chart, _, weyl = _chart(pair.name)
        n = weyl.dim
        for _ in range(12):
            raw = [rand_poly(rng, n, 6) for _ in range(n)]
            X = PolyVectorField(average_field(raw, weyl))
            R = solomon_decompose(X, chart)
            rebuilt = PolyVectorField.zero(n)
            for r, g in zip(R, chart.gradients):
                rebuilt = rebuilt + r * g
            assert rebuilt == X
            for r in R:
                assert average_poly(r, weyl) == r


def test_solomon_recovers_invariant_coefficients():
    rng = random.Random(13)
    for pair in catalog():
        chart, _, weyl = _chart(pair.name)
        for _ in range(4):
            phis = [_rand_invariant(rng, weyl, 3) for _ in range(weyl.dim)]
            X = PolyVectorField.zero(weyl.dim)
            for f, g in zip(phis, chart.gradients):
                X = X + f * g
            assert solomon_decompose(X, chart) == phis


def test_derivation_images_must_be_invariant():
    chart, _, weyl = _chart("sl2-so2")
    t = MultiPoly.variable(1, 0)
    with pytest.raises(ValueError, match="invariant"):
        InvariantDerivation([t], weyl)
    rng = random.Random(2)
    D = induce_derivation([_rand_invariant(rng, weyl, 3)], chart)
    for img in D.images:
        assert average_poly(img, weyl) == img


def test_derivation_is_certified_once_for_its_group():
    chart, system, weyl = _chart("sl2-so2")
    t = MultiPoly.variable(1, 0)
    with pytest.raises(ValueError, match="one image per generator"):
        InvariantDerivation([t * t, t * t], weyl)
    with pytest.raises(ValueError, match="variable count"):
        InvariantDerivation([MultiPoly.one(2)], weyl)
    # an equal group built separately is accepted, another group is not
    D = InvariantDerivation([t * t], weyl)
    assert D.weyl is weyl and weyl is not chart.weyl
    assert lift_derivation(D, chart) == [
        MultiPoly.constant(1, Qi(Fraction(1, 2)))
    ]
    # the local group at a regular point is trivial, so t is invariant
    trivial = local_chart(chart, [Qi(1)]).weyl
    assert trivial.order == 1 and trivial != chart.weyl
    D = InvariantDerivation([t], trivial)
    for check in (ideal_stable, lift_derivation):
        with pytest.raises(ValueError, match="another group"):
            check(D, chart)


def test_ideal_stable_oracles():
    chart, _, weyl = _chart("sl2-so2")
    D0 = InvariantDerivation([MultiPoly.zero(1)], weyl)
    flag, witness = ideal_stable(D0, chart)
    assert flag and witness == MultiPoly.zero(1)

    # phi = -4 p1, so the image Dp1 = 1 gives Dphi = -4, never divisible
    D1 = InvariantDerivation([MultiPoly.one(1)], weyl)
    flag, witness = ideal_stable(D1, chart)
    assert not flag
    assert witness == MultiPoly.constant(1, Qi(-4))

    rng = random.Random(7)
    for pair in catalog():
        chart, _, weyl = _chart(pair.name)
        for _ in range(5):
            phis = [_rand_invariant(rng, weyl, 3) for _ in range(weyl.dim)]
            D = induce_derivation(phis, chart)
            flag, quotient = ideal_stable(D, chart)
            assert flag
            dphi = _induced_field(phis, chart).apply_to(chart.phi)
            assert quotient * chart.phi == dphi


def test_euler_derivation_rank3_sl4_so4():
    # the Euler field sum x_i d_i scales each homogeneous p_j by its degree,
    # D(p_j) = d_j p_j, and maps phi to deg(phi) phi
    chart = _fixture_chart(ROOT / "tests" / "fixtures" / "sl4-so4.json")
    n = chart.weyl.dim
    assert chart.rank == 3 and chart.phi.degree() == 12
    images = [p * Qi(d) for p, d in zip(chart.generators, chart.degrees)]
    D = InvariantDerivation(images, chart.weyl)
    assert ideal_stable(D, chart) == (True, MultiPoly.constant(n, Qi(12)))
    lifted = lift_derivation(D, chart)
    assert field_from_coefficients(lifted, chart) == _euler(n)


def test_gram_matrix_and_induced_images_match_the_field_formulas():
    # A_ij = grad(p_i)(p_j) and X(p_j) for X = sum c_i grad(p_i), applied
    # as fields, against the Jacobian product and the Gram matrix
    charts = {pair.name: build_chart(pair) for pair in catalog()}
    cubed = ROOT / "perfbench" / "fixtures" / "sl2-so2-cubed.json"
    charts["sl2-so2-cubed"] = _fixture_chart(cubed)
    charts["local"] = local_chart(charts["sl3-so21"], [Qi(1), Qi(0)])
    rng = random.Random(29)
    for chart in charts.values():
        gens = chart.generators
        for i, grad in enumerate(chart.gradients):
            assert grad == gradient(gens[i], chart.kappa_on_a)
            assert chart.gram_matrix[i] == [grad.apply_to(p) for p in gens]
        coeffs = [_rand_invariant(rng, chart.weyl, 2) for _ in gens]
        X = field_from_coefficients(coeffs, chart)
        assert induce_derivation(coeffs, chart).images == [X.apply_to(p) for p in gens]


def test_phi_in_generators_is_solved_once_per_chart(monkeypatch):
    # building the chart solves nothing; the first ideal_stable writes phi
    # in the generators and the chart keeps the partials for later calls
    calls = []
    original = exactalg.solve_exact

    def counted(A, b):
        calls.append(len(A))
        return original(A, b)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "symcart" and (
            getattr(module, "solve_exact", None) is original
        ):
            monkeypatch.setattr(module, "solve_exact", counted)
    chart = build_chart(catalog_pair("sl3-so21"))
    assert calls == []
    D = InvariantDerivation([MultiPoly.one(2), MultiPoly.zero(2)], chart.weyl)
    assert ideal_stable(D, chart) == ideal_stable(D, chart)
    assert len(calls) == 1


def test_each_chart_inverts_the_invariant_form_once(monkeypatch):
    # the gradients come from the one Jacobian through the inverse form
    # its group keeps; a local chart reads its parent's and inverts only
    # its adapted frame
    calls = count_calls(monkeypatch, "mat_inverse")
    chart = build_chart(catalog_pair("sl3-so21"))
    assert calls == [2]
    cubed = _fixture_chart(ROOT / "perfbench" / "fixtures" / "sl2-so2-cubed.json")
    assert calls == [2, 3] and cubed.rank == 3
    local_chart(chart, [Qi(0), Qi(0)])
    assert calls == [2, 3, 2]


def test_lift_oracles():
    chart, _, weyl = _chart("sl2-so2")
    D0 = InvariantDerivation([MultiPoly.zero(1)], weyl)
    assert lift_derivation(D0, chart) == [MultiPoly.zero(1)]

    D1 = InvariantDerivation([MultiPoly.one(1)], weyl)
    res = lift_derivation(D1, chart)
    assert isinstance(res, NotLiftable)
    assert res.index == 0
    assert res.remainder == MultiPoly.constant(1, Qi(-2))

    # Dp1 = p1 comes from the field (1/2) grad p1
    t = MultiPoly.variable(1, 0)
    Dp = InvariantDerivation([t * t], weyl)
    assert lift_derivation(Dp, chart) == [
        MultiPoly.constant(1, Qi(Fraction(1, 2)))
    ]


def test_lift_round_trip():
    rng = random.Random(19)
    for pair in catalog():
        chart, _, weyl = _chart(pair.name)
        for _ in range(6):
            phis = [_rand_invariant(rng, weyl, 3) for _ in range(weyl.dim)]
            D = induce_derivation(phis, chart)
            assert lift_derivation(D, chart) == phis


def test_stable_iff_liftable():
    rng = random.Random(23)
    for pair in catalog():
        chart, _, weyl = _chart(pair.name)
        cases = []
        for _ in range(4):
            cases.append(
                induce_derivation(
                    [_rand_invariant(rng, weyl, 3) for _ in range(weyl.dim)],
                    chart,
                )
            )
        for _ in range(6):
            images = [_rand_invariant(rng, weyl, 4) for _ in range(weyl.dim)]
            cases.append(InvariantDerivation(images, weyl))
        for D in cases:
            flag, _ = ideal_stable(D, chart)
            lifted = lift_derivation(D, chart)
            assert flag == (not isinstance(lifted, NotLiftable))
            if flag:
                # lift_derivation has no invariance test of its own
                for c in lifted:
                    assert average_poly(c, weyl) == c


def test_transition_identity_at_origin():
    for name in ("sl2-so2", "sl2-diagonal", "sl3-so21"):
        chart, system, weyl = _chart(name)
        n = weyl.dim
        loc = local_chart(chart, [Qi(0)] * n)
        m, _ = transition_matrix(chart, loc)
        expected = [
            [MultiPoly.one(n) if i == j else MultiPoly.zero(n) for j in range(n)]
            for i in range(n)
        ]
        assert m == expected


def test_transition_regular_sl2_exact():
    chart, system, weyl = _chart("sl2-so2")
    loc = local_chart(chart, [Qi(1)])
    m, _ = transition_matrix(chart, loc)
    # grad q1 is the constant field 1/2, grad p1 = t, so m = (2t)
    t = MultiPoly.variable(1, 0)
    assert m == [[t * 2]]


def test_transition_three_point_classes():
    from symcart.exactalg import det_adjugate

    for pair in catalog():
        chart, system, weyl = _chart(pair.name)
        n = weyl.dim
        points = [REGULAR_POINTS[pair.name], [Qi(0)] * n]
        if pair.name == "sl3-so21":
            points.append([Qi(1), Qi(0)])
        for pt in points:
            loc = local_chart(chart, pt)
            m, _ = transition_matrix(chart, loc)
            for j in range(n):
                rebuilt = PolyVectorField.zero(n)
                for i in range(n):
                    rebuilt = rebuilt + m[i][j] * loc.gradients[i]
                assert rebuilt == chart.gradients[j]
                for i in range(n):
                    for w in loc.weyl.elements:
                        assert m[i][j].compose_linear(w) == m[i][j]
            det, _ = det_adjugate(m)
            assert not det.evaluate(pt).is_zero()
            J = jet_of(det, pt, default_truncation(chart))
            assert not J.poly.constant_term().is_zero()
            jet_invert(J)


def test_jet_of_basics():
    c = MultiPoly.constant(1, Qi(9))
    J = jet_of(c, [Qi(2)], 3)
    assert J.poly == MultiPoly.constant(1, Qi(9))

    x = MultiPoly.variable(1, 0)
    J = jet_of(x * x, [Qi(1)], 2)
    assert J.poly.homogeneous_components() == {
        0: MultiPoly.one(1),
        1: x * 2,
        2: x * x,
    }
    assert J.polynomial() == x * x

    with pytest.raises(ValueError, match="above its truncation order"):
        Jet([Qi(0)], 1, x * x)


def test_jet_truncation_drops_high_degrees():
    x = MultiPoly.variable(1, 0)
    J = jet_of(x**4, [Qi(0)], 2)
    assert J.poly.is_zero()
    J = jet_of(x**4 + x, [Qi(0)], 3)
    assert J.poly == x


def test_jet_ring_operations():
    x = MultiPoly.variable(1, 0)
    base = [Qi(0)]
    unit = jet_unit(base, 2, 1)
    J = Jet(base, 2, x + 1)
    assert jet_mul(unit, J) == J
    assert jet_invert(unit) == unit
    inv = jet_invert(J)
    assert inv.poly == MultiPoly.one(1) - x + x * x
    assert jet_mul(J, inv) == unit

    zero_lead = Jet(base, 1, x)
    with pytest.raises(ValueError, match="invertible"):
        jet_invert(zero_lead)

    other_base = jet_unit([Qi(1)], 2, 1)
    with pytest.raises(ValueError, match="base point"):
        jet_mul(unit, other_base)


def test_jet_homomorphism_random():
    rng = random.Random(29)
    base = [Qi(1), Qi(-1)]
    for _ in range(20):
        f = rand_poly(rng, 2, 4)
        g = rand_poly(rng, 2, 4)
        N = 8
        assert jet_of(f * g, base, N) == jet_mul(
            jet_of(f, base, N), jet_of(g, base, N)
        )
    rng2 = random.Random(31)
    for _ in range(8):
        f = rand_poly(rng2, 2, 3) + 1
        if f.evaluate(base).is_zero():
            continue
        J5 = jet_of(f, base, 5)
        assert jet_mul(J5, jet_invert(J5)) == jet_unit(base, 5, 2)


def test_jet_gradient_action_oracle():
    pair = catalog_pair("sl2-so2")
    K = pair.kappa_on_cartan()
    t = MultiPoly.variable(1, 0)
    R = t * t
    f = t**4
    N = 6
    J = jet_gradient_action(R, jet_of(f, [Qi(0)], N), K)
    direct = gradient(R, K).apply_to(f)
    assert direct == t**4 * 4
    assert J == jet_of(direct, [Qi(0)], N)

    # degree-1 case shifts the grading down by one
    J1 = jet_gradient_action(t, jet_of(f, [Qi(0)], N), K)
    assert J1.truncation_order == N - 1
    assert J1 == jet_of(gradient(t, K).apply_to(f), [Qi(0)], N - 1)

    with pytest.raises(ValueError, match="homogeneous"):
        jet_gradient_action(t * t + t, jet_of(f, [Qi(0)], N), K)
    with pytest.raises(ValueError, match="degree"):
        jet_gradient_action(MultiPoly.one(1), jet_of(f, [Qi(0)], N), K)


def test_jet_gradient_action_consistency_random():
    rng = random.Random(37)
    pair = catalog_pair("sl3-so21")
    K = pair.kappa_on_cartan()
    base = [Qi(1), Qi(2)]
    for _ in range(12):
        f = rand_poly(rng, 2, 4)
        d = rng.randint(2, 3)
        hom = {
            e: c
            for e, c in rand_poly(rng, 2, d).terms.items()
            if sum(e) == d
        }
        if not hom:
            hom = {(d, 0): Qi(1)}
        Ru = MultiPoly(2, hom)
        R = Ru.shift([-x for x in base])
        N = 7
        out = jet_gradient_action(R, jet_of(f, base, N), K)
        expected = jet_of(gradient(R, K).apply_to(f), base, out.truncation_order)
        assert out == expected


def test_jet_gradient_action_grading_law():
    pair = catalog_pair("sl2-so2")
    K = pair.kappa_on_cartan()
    t = MultiPoly.variable(1, 0)
    R = t * t * t  # d = 3
    N = 6
    for m in range(N + 1):
        J = Jet([Qi(0)], N, t**m)
        out = jet_gradient_action(R, J, K)
        # degree m goes to m + d - 2 = m + 1, constants to zero, and the
        # truncation drops what lands above N
        parts = out.poly.homogeneous_components()
        for k in range(out.truncation_order + 1):
            if k != m + 1 or m == 0:
                assert k not in parts
            else:
                assert k in parts


def test_default_truncation():
    chart, _, _ = _chart("sl3-so21")
    assert default_truncation(chart) == 3 + 6 + 2
    chart, _, _ = _chart("abelian2")
    assert default_truncation(chart) == 1 + 0 + 2
