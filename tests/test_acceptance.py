"""Acceptance suite: one test per published guarantee, full sample counts.

Everything is exact arithmetic, so a single mismatch anywhere fails its
test. Charts and local charts are cached at module level; every random
stream is seeded by name so failures reproduce as printed.
"""

import math
import random
from fractions import Fraction

from _oracles import (
    SL3_ROOT_SET,
    average_field,
    average_poly,
    matrix_key,
    rand_poly,
    raw_bracket,
    raw_form,
    raw_mat_vec,
    sl3_weyl_matrices_by_weight_permutations,
    weighted_partition_count,
)
from symcart.exactalg import GaussianRational as Qi
from symcart.exactalg import (
    LinearSpan,
    MultiPoly,
    det_adjugate,
    mat_inverse,
    mat_vec,
)
from symcart.example93 import (
    control_flipped_involution,
    control_offaxis_v,
    verify_example93,
)
from symcart.invariants import build_chart, gradient, local_chart
from symcart.liesym import catalog, catalog_pair
from symcart.vecfields import (
    InvariantDerivation,
    NotLiftable,
    PolyVectorField,
    field_from_coefficients,
    ideal_stable,
    induce_derivation,
    jet_gradient_action,
    jet_invert,
    jet_mul,
    jet_of,
    jet_unit,
    lift_derivation,
    solomon_decompose,
    transition_matrix,
)

CATALOG_NAMES = ["sl2-so2", "sl3-so21", "abelian2", "sl2-diagonal"]

REGULAR_POINTS = {
    "sl2-so2": [Qi(1)],
    "sl2-diagonal": [Qi(1)],
    "sl3-so21": [Qi(1), Qi(1)],
    "abelian2": [Qi(1), Qi(1)],
}

_CHARTS = {}
_LOCALS = {}


def _chart(name):
    if name not in _CHARTS:
        _CHARTS[name] = build_chart(catalog_pair(name))
    return _CHARTS[name]


def _local(name, pt):
    key = (name, tuple((x.real, x.imag) for x in pt))
    if key not in _LOCALS:
        chart = _chart(name)
        _LOCALS[key] = local_chart(chart, pt)
    return _LOCALS[key]


def _point_classes(name):
    n = _chart(name).weyl.dim
    pts = [[Qi(0)] * n, REGULAR_POINTS[name]]
    if name == "sl3-so21":
        # one root vanishes here, four survive
        pts.append([Qi(1), Qi(0)])
    return pts


def _monomials(nvars, d):
    if nvars == 1:
        return [(d,)]
    out = []
    for k in range(d + 1):
        out.extend((k,) + rest for rest in _monomials(nvars - 1, d - k))
    return out


def _unit(n, i):
    return [Qi(1) if k == i else Qi(0) for k in range(n)]


def _func_key(f):
    return tuple((x.real, x.imag) for x in f)


def _derivation_stream(name, count=25, degree=4):
    chart = _chart(name)
    weyl = chart.weyl
    rng = random.Random(f"derivations:{name}")
    return [
        [
            average_poly(rand_poly(rng, weyl.dim, degree), weyl)
            for _ in range(chart.rank)
        ]
        for _ in range(count)
    ]


def test_01_structural_validation():
    # brackets, forms and sigma images come from the raw oracles, not from
    # the ad matrices and dot products that validated the pair
    for pair in catalog():
        g = pair.algebra
        n = g.dim
        units = [_unit(n, i) for i in range(n)]

        def br(x, y):
            return raw_bracket(g.c, x, y)

        def form(x, y):
            return raw_form(pair.kappa, x, y)

        def sigma(v):
            return raw_mat_vec(pair.sigma, v)

        # Jacobi on all basis triples
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    s = br(br(units[i], units[j]), units[k])
                    t = br(br(units[j], units[k]), units[i])
                    u = br(br(units[k], units[i]), units[j])
                    assert all(
                        (a + b + c).is_zero() for a, b, c in zip(s, t, u)
                    ), (pair.name, i, j, k)
        # sigma is an automorphism
        for i in range(n):
            for j in range(n):
                lhs = sigma(g.c[i][j])
                rhs = br(sigma(units[i]), sigma(units[j]))
                assert lhs == rhs, (pair.name, i, j)
        # kappa is invariant: k([x,y],z) + k(y,[x,z]) = 0
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    s = form(g.c[i][j], units[k])
                    s = s + form(units[j], g.c[i][k])
                    assert s.is_zero(), (pair.name, i, j, k)
        # bracket grading over the eigenspace split
        h_set = set(pair.h_basis)
        for i in range(n):
            for j in range(n):
                same = (i in h_set) == (j in h_set)
                allowed = h_set if same else set(pair.q_basis)
                support = {k for k, x in enumerate(g.c[i][j]) if not x.is_zero()}
                assert support <= allowed, (pair.name, i, j)


def test_02_root_bookkeeping():
    for name in CATALOG_NAMES:
        chart = _chart(name)
        system = chart.system
        weyl = chart.weyl
        total = sum(r.multiplicity for r in system.roots)
        assert catalog_pair(name).algebra.dim == system.zero_dim + total, name
        # the group permutes the root multiset, multiplicities included
        mults = {_func_key(r.functional): r.multiplicity for r in system.roots}
        for w in weyl.elements:
            winv_t = [list(col) for col in zip(*mat_inverse(w))]
            for r in system.roots:
                image = _func_key(mat_vec(winv_t, r.functional))
                assert mults.get(image) == r.multiplicity, (name, image)

    sl3 = _chart("sl3-so21")
    assert len(sl3.system.roots) == 6
    assert sl3.weyl.order == 6
    # cross-check against the exhaustive weight-permutation enumeration
    oracle = {matrix_key(m) for m in sl3_weyl_matrices_by_weight_permutations()}
    assert {matrix_key(w) for w in sl3.weyl.elements} == oracle
    assert {tuple(r.functional) for r in sl3.system.roots} == SL3_ROOT_SET

    sl2 = _chart("sl2-so2")
    assert len(sl2.system.roots) == 2
    assert sl2.weyl.order == 2
    # all scalars mapping the root pair onto itself, enumerated directly
    vals = [r.functional[0] for r in sl2.system.roots]
    candidates = {
        w / v
        for v in vals
        for w in vals
        if {(w / v) * x for x in vals} == set(vals)
    }
    assert candidates == {Qi(1), Qi(-1)}
    assert {m[0][0] for m in sl2.weyl.elements} == candidates


def test_03_chevalley_degrees():
    for name in CATALOG_NAMES:
        chart = _chart(name)
        assert math.prod(chart.degrees) == chart.weyl.order, name

    chart = _chart("sl3-so21")
    assert chart.degrees == [2, 3]
    # the per-degree invariant dimensions, measured as the rank of the
    # group-averaging operator, must match a free algebra on degrees 2, 3
    weyl = chart.weyl
    for d in range(7):
        monos = _monomials(2, d)
        span = LinearSpan(len(monos))
        for e in monos:
            avg = average_poly(MultiPoly(2, {e: Qi(1)}), weyl)
            span.add(avg.coefficient_vector(monos))
        assert span.dim == weighted_partition_count([2, 3], d), d


def test_04_discriminant_identity():
    for name in CATALOG_NAMES:
        chart = _chart(name)
        n = chart.weyl.dim
        kinv = mat_inverse(chart.kappa_on_a)
        grads = []
        for p in chart.generators:
            parts = [p.partial(j) for j in range(n)]
            grads.append(
                [
                    sum((parts[j] * kinv[i][j] for j in range(n)), MultiPoly.zero(n))
                    for i in range(n)
                ]
            )
        gram = [
            [
                sum(
                    (grads[i][k] * chart.generators[j].partial(k) for k in range(n)),
                    MultiPoly.zero(n),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        det, _ = det_adjugate(gram)
        c = chart.gram_constant
        assert not c.is_zero(), name
        assert det == chart.phi * c, name
    assert _chart("sl2-so2").gram_constant == Qi(Fraction(-1, 2))


def test_05_solomon_decomposition():
    for name in CATALOG_NAMES:
        chart = _chart(name)
        weyl = chart.weyl
        n = weyl.dim
        rng = random.Random(f"solomon:{name}")
        for k in range(50):
            comps = [rand_poly(rng, n, 8) for _ in range(n)]
            X = PolyVectorField(average_field(comps, weyl))
            coeffs = solomon_decompose(X, chart)
            assert field_from_coefficients(coeffs, chart) == X, (name, k)
            for c in coeffs:
                assert average_poly(c, weyl) == c, (name, k)


def test_06_derivations_preserve_ideal():
    for name in CATALOG_NAMES:
        chart = _chart(name)
        for k, phis in enumerate(_derivation_stream(name)):
            D = induce_derivation(phis, chart)
            stable, _ = ideal_stable(D, chart)
            assert stable, (name, k)


def test_07_derivations_lift():
    for name in CATALOG_NAMES:
        chart = _chart(name)
        n = chart.weyl.dim
        for k, phis in enumerate(_derivation_stream(name)):
            D = induce_derivation(phis, chart)
            lifted = lift_derivation(D, chart)
            assert not isinstance(lifted, NotLiftable), (name, k)
            assert lifted == phis, (name, k)
            stable, _ = ideal_stable(D, chart)
            assert stable, (name, k)
        # a constant image is not induced by anything on the non-trivial
        # pairs; stability and liftability must agree either way
        images = [MultiPoly.one(n)] + [MultiPoly.zero(n)] * (chart.rank - 1)
        D = InvariantDerivation(images, chart.weyl)
        stable, _ = ideal_stable(D, chart)
        lifted = lift_derivation(D, chart)
        assert stable == (not isinstance(lifted, NotLiftable)), name
        if name == "sl2-so2":
            assert isinstance(lifted, NotLiftable)
            assert not lifted.remainder.is_zero()


def test_08_slice_factorization():
    for name in CATALOG_NAMES:
        chart = _chart(name)
        for pt in _point_classes(name):
            loc = _local(name, pt)
            assert loc.psi * loc.phi == chart.phi, (name, pt)
            assert not loc.psi.evaluate(pt).is_zero(), (name, pt)


def test_09_transition_matrix():
    for name in CATALOG_NAMES:
        chart = _chart(name)
        n = chart.weyl.dim
        for pt in _point_classes(name):
            loc = _local(name, pt)
            m, _ = transition_matrix(chart, loc)
            for i in range(n):
                for j in range(n):
                    for w in loc.weyl.elements:
                        assert m[i][j].compose_linear(w) == m[i][j], (name, i, j)
            for j in range(n):
                rebuilt = PolyVectorField.zero(n)
                for i in range(n):
                    rebuilt = rebuilt + m[i][j] * loc.gradients[i]
                assert rebuilt == chart.gradients[j], (name, j)
            det, _ = det_adjugate(m)
            assert not det.evaluate(pt).is_zero(), (name, pt)


def test_10_jet_algebra():
    base = [Qi(1), Qi(-1)]
    rng = random.Random("jets")
    for k in range(100):
        f = rand_poly(rng, 2, 4)
        g = rand_poly(rng, 2, 4)
        assert jet_of(f * g, base, 8) == jet_mul(
            jet_of(f, base, 8), jet_of(g, base, 8)
        ), k

    # inversion succeeds exactly when the value at the base is non-zero
    rng = random.Random("jet-inverse")
    inverted = 0
    for k in range(40):
        f = rand_poly(rng, 2, 3)
        J = jet_of(f, base, 6)
        if f.evaluate(base).is_zero():
            try:
                jet_invert(J)
            except ValueError:
                pass
            else:
                raise AssertionError(f"inverted a degenerate jet at sample {k}")
        else:
            inverted += 1
            assert jet_mul(J, jet_invert(J)) == jet_unit(base, 6, 2)
    assert inverted
    x = MultiPoly.variable(2, 0)
    try:
        jet_invert(jet_of(x - 1, base, 6))
    except ValueError:
        pass
    else:
        raise AssertionError("inverted a jet with vanishing constant term")

    # gradient action against the direct field computation
    K = _chart("sl3-so21").kappa_on_a
    base = [Qi(1), Qi(2)]
    rng = random.Random("jet-action")
    for k in range(50):
        f = rand_poly(rng, 2, 4)
        d = rng.randint(1, 3)
        hom = {
            e: c for e, c in rand_poly(rng, 2, d).terms.items() if sum(e) == d
        }
        if not hom:
            hom = {(d, 0): Qi(1)}
        R = MultiPoly(2, hom).shift([-b for b in base])
        out = jet_gradient_action(R, jet_of(f, base, 7), K)
        direct = gradient(R, K).apply_to(f)
        assert out == jet_of(direct, base, out.truncation_order), k


def test_11_worked_example():
    report = verify_example93()
    assert report["all_passed"] is True
    assert [c["name"] for c in report["checks"]] == [
        "dimensions",
        "cartan_subspace",
        "centralizer_witnesses",
        "fixed_centralizer_space",
        "orthogonality",
        "gradient_rank",
    ]
    assert all(c["passed"] for c in report["checks"])

    flipped = control_flipped_involution()
    assert flipped["all_passed"] is False
    assert [c["name"] for c in flipped["checks"] if not c["passed"]] == [
        "centralizer_witnesses"
    ]

    off_axis = control_offaxis_v()
    assert off_axis["all_passed"] is False
    assert [c["name"] for c in off_axis["checks"] if not c["passed"]] == [
        "orthogonality"
    ]
