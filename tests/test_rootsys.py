import functools
import json
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from _oracles import (
    SL3_ROOT_SET,
    count_calls,
    embed,
    matrix_key,
    same_span,
    sl3_weyl_matrices_by_weight_permutations,
    sl_so_pair,
)
from symcart import cli, rootsys
from symcart.exactalg import GaussianRational as Qi
from symcart.exactalg import (
    MultiPoly,
    joint_eigenspaces,
    mat_identity,
    mat_mul,
    mat_vec,
)
from symcart.invariants import build_chart
from symcart.liesym import catalog, catalog_pair, centralizer_in_q, load_pair
from symcart.rootsys import (
    SpectrumError,
    local_subsystem,
    reduced_subset,
    restricted_roots,
    weyl_group,
)
from symcart.vecfields import PolyVectorField, is_invariant_field, reynolds_field

ROOT = Path(__file__).resolve().parent.parent


def _roots_of(name):
    pair = catalog_pair(name)
    return pair, restricted_roots(pair)


def _functional_multiset(system):
    out = {}
    for r in system.roots:
        out[tuple(r.functional)] = out.get(tuple(r.functional), 0) + 0 + r.multiplicity
    return out


def test_sl2_roots_oracle():
    pair, system = _roots_of("sl2-so2")
    assert system.rank == 1
    assert _functional_multiset(system) == {(Qi(2),): 1, (Qi(-2),): 1}
    assert all(r.is_reduced for r in system.roots)
    assert system.zero_dim == 1
    assert pair.algebra.dim == system.zero_dim + 2


def test_sl3_roots_oracle():
    pair, system = _roots_of("sl3-so21")
    assert len(system.roots) == 6
    assert _functional_multiset(system) == {f: 1 for f in SL3_ROOT_SET}
    assert all(r.is_reduced for r in system.roots)
    assert system.zero_dim == 2


def test_abelian_and_diagonal_roots():
    _, system = _roots_of("abelian2")
    assert system.roots == []
    assert system.zero_dim == 2

    pair, system = _roots_of("sl2-diagonal")
    assert _functional_multiset(system) == {(Qi(2),): 2, (Qi(-2),): 2}
    assert system.zero_dim == 2
    assert pair.algebra.dim == 2 + 2 + 2


def test_root_bookkeeping_every_pair():
    for pair in catalog():
        system = restricted_roots(pair)
        total = sum(r.multiplicity for r in system.roots)
        assert pair.algebra.dim == system.zero_dim + total
        mults = _functional_multiset(system)
        for f, m in mults.items():
            assert mults[tuple(-x for x in f)] == m


def test_reduced_subset_definition():
    # synthetic BC1: {a, -a, 2a, -2a} keeps only the short pair
    fns = [[Qi(1)], [Qi(-1)], [Qi(2)], [Qi(-2)]]
    assert reduced_subset(fns) == [True, True, False, False]
    # A2 configuration: everything reduced
    a2 = [list(f) for f in SL3_ROOT_SET]
    assert reduced_subset(a2) == [True] * 6
    assert reduced_subset([]) == []


def test_weyl_orders():
    expected = {"sl2-so2": 2, "sl3-so21": 6, "abelian2": 1, "sl2-diagonal": 2}
    for pair in catalog():
        system = restricted_roots(pair)
        W = weyl_group(system, pair.kappa_on_cartan())
        assert W.order == expected[pair.name]
        assert len(W.elements) == W.order
        for g in W.generators:
            gg = [[sum((g[i][k] * g[k][j] for k in range(len(g))), Qi(0)) for j in range(len(g))] for i in range(len(g))]
            assert gg == [[Qi(1) if i == j else Qi(0) for j in range(len(g))] for i in range(len(g))]


def test_sl2_weyl_is_sign_flip():
    pair = catalog_pair("sl2-so2")
    W = weyl_group(restricted_roots(pair), pair.kappa_on_cartan())
    assert {matrix_key(m) for m in W.elements} == {((Qi(1),),), ((Qi(-1),),)}


def test_sl3_weyl_matches_weight_permutations():
    # independent enumeration: the group permutes the three weights
    pair = catalog_pair("sl3-so21")
    W = weyl_group(restricted_roots(pair), pair.kappa_on_cartan())
    expected = set(sl3_weyl_matrices_by_weight_permutations())
    assert {matrix_key(m) for m in W.elements} == expected
    # the y-axis sign flip is the reflection of the root (0, 2i)
    assert matrix_key([[Qi(1), Qi(0)], [Qi(0), Qi(-1)]]) in expected
    # hand-computed reflection of the root (3, i)
    s = [
        [Qi(Fraction(-1, 2)), Qi(0, Fraction(-1, 2))],
        [Qi(0, Fraction(3, 2)), Qi(Fraction(1, 2))],
    ]
    assert matrix_key(s) in {matrix_key(m) for m in W.elements}


def test_weyl_elements_permute_roots():
    for pair in catalog():
        system = restricted_roots(pair)
        W = weyl_group(system, pair.kappa_on_cartan())
        mults = _functional_multiset(system)
        for w in W.elements:
            moved = {}
            for r in system.roots:
                f = tuple(
                    sum((r.functional[k] * w[k][j] for k in range(len(w))), Qi(0))
                    for j in range(len(w))
                )
                moved[f] = moved.get(f, 0) + r.multiplicity
            assert moved == mults or not system.roots


def test_weyl_closure_bound(monkeypatch):
    pair = catalog_pair("sl3-so21")
    system = restricted_roots(pair)
    monkeypatch.setattr(rootsys, "MAX_WEYL_ELEMENTS", 3)
    with pytest.raises(ValueError, match="closure"):
        weyl_group(system, pair.kappa_on_cartan())


def test_local_subsystem_regular_and_origin():
    pair = catalog_pair("sl2-so2")
    system = restricted_roots(pair)
    W = weyl_group(system, pair.kappa_on_cartan())

    roots_a, W_a, (b, c) = local_subsystem(system, W, [Qi(1)])
    assert roots_a == []
    assert W_a.order == 1
    assert b == [] and same_span(c, [[Qi(1)]], 1)

    roots_0, W_0, (b0, c0) = local_subsystem(system, W, [Qi(0)])
    assert len(roots_0) == 2
    assert W_0.order == W.order
    assert same_span(b0, [[Qi(1)]], 1) and c0 == []


def test_local_subsystem_subregular_sl3():
    pair = catalog_pair("sl3-so21")
    system = restricted_roots(pair)
    W = weyl_group(system, pair.kappa_on_cartan())
    point = [Qi(1), Qi(0)]  # only the (0, 2i) root pair vanishes here
    roots_a, W_a, (b, c) = local_subsystem(system, W, point)
    assert len(roots_a) == 2
    assert {tuple(r.functional) for r in roots_a} == {
        (Qi(0), Qi(0, 2)),
        (Qi(0), Qi(0, -2)),
    }
    assert W_a.order == 2
    assert matrix_key([[Qi(1), Qi(0)], [Qi(0), Qi(-1)]]) in {
        matrix_key(m) for m in W_a.elements
    }
    assert same_span(b, [[Qi(0), Qi(1)]], 2)
    assert same_span(c, [[Qi(1), Qi(0)]], 2)
    # W_a fixes the base point and all of c
    for w in W_a.elements:
        assert mat_vec(w, point) == point
        for v in c:
            assert mat_vec(w, v) == v
    # W_a is a subgroup of W
    keys = {matrix_key(m) for m in W.elements}
    assert all(matrix_key(m) in keys for m in W_a.elements)


def test_spectrum_outside_qi_is_refused():
    # compact-type fixture rigged so ad has eigenvalues +-i*sqrt(2)
    definition = {
        "name": "so3-twisted",
        "dim": 3,
        "brackets": [[0, 1, 2, "1"], [1, 2, 0, "2"], [2, 0, 1, "1"]],
        "sigma": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
        "cartan": [["0", "1", "0"]],
    }
    pair = load_pair(definition)
    with pytest.raises(SpectrumError, match="pair unsupported"):
        restricted_roots(pair)
    # at a point the message names the matrix, not restricted roots
    with pytest.raises(SpectrumError, match=r"^the minimal polynomial of matrix 0 does not split"):
        centralizer_in_q(pair, [Qi(0), Qi(1), Qi(0)])


@functools.cache
def _sl4_so4():
    path = Path(__file__).parent / "fixtures" / "sl4-so4.json"
    return load_pair(json.loads(path.read_text()))


def test_sl4_so4_fixture_chart():
    chart = build_chart(_sl4_so4())
    system = chart.system
    assert len(system.roots) == 12
    assert all(r.multiplicity == 1 and r.is_reduced for r in system.roots)
    assert system.zero_dim == 3
    assert chart.weyl.order == 24
    assert list(chart.degrees) == [2, 3, 4]
    assert chart.gram_constant == Qi(1)


# local group orders at sl4-so4 points: the origin (all of S4), a point
# where two orthogonal roots vanish (A1 x A1) and one where an A2
# subsystem vanishes
SL4_LOCAL_ORDERS = {(0, 0, 0): 24, (1, 0, 1): 4, (-1, -2, 1): 6}


def test_local_group_is_the_reflection_group_of_the_vanishing_roots():
    # W_a, taken from the generators of W that fix the point, is the group
    # weyl_group builds from the roots vanishing there: the same
    # generators in the same order, and the same elements
    cases = [
        (catalog_pair(name), pt, None)
        for name, points in cli._SLICE_POINTS.items()
        for pt in points
    ]
    cases += [(_sl4_so4(), pt, order) for pt, order in SL4_LOCAL_ORDERS.items()]
    for pair, pt, order in cases:
        system = restricted_roots(pair)
        K = pair.kappa_on_cartan()
        W = weyl_group(system, K)
        roots_a, W_a, _ = local_subsystem(system, W, [Qi(v) for v in pt])
        direct = weyl_group(system._replace(roots=roots_a), K)
        assert W_a.generators == direct.generators, (pair.name, pt)
        assert W_a.elements == direct.elements, (pair.name, pt)
        assert order is None or W_a.order == order, (pair.name, pt)


def test_root_split_takes_no_minimal_polynomial(monkeypatch):
    # the Krylov relation of g = (1, ..., n) certifies the split of every
    # Cartan basis vector of these pairs, so none falls back to
    # matrix_min_poly; loading or building a pair takes none either
    calls = count_calls(monkeypatch, "matrix_min_poly")
    path = ROOT / "perfbench" / "fixtures" / "sl2-so2-cubed.json"
    pairs = [*catalog(), load_pair(json.loads(path.read_text()))]
    path = Path(__file__).parent / "fixtures" / "sl4-so4.json"
    pairs += [load_pair(json.loads(path.read_text())), sl_so_pair(5)]
    assert calls == []
    for pair in pairs:
        restricted_roots(pair)
    assert calls == []
    # the counter bites: g = (1, 2) is an eigenvector of P diag(1, 3) P^-1
    # for P with first column (1, 2), so its relation x - 1 misses the
    # eigenvalue 3 and the minimal polynomial decides
    A = [[Qi(1), Qi(0)], [Qi(-4), Qi(3)]]
    blocks, bad = joint_eigenspaces([A])
    assert calls == [2] and bad is None
    assert [lam for (lam,), _ in blocks] == [Qi(1), Qi(3)]
    for (lam,), basis in blocks:
        assert len(basis) == 1
        assert mat_vec(A, basis[0]) == [lam * x for x in basis[0]]
    assert same_span(blocks[0][1], [[Qi(1), Qi(2)]], 2)


def test_root_split_refusals_are_unchanged(monkeypatch):
    calls = count_calls(monkeypatch, "matrix_min_poly")
    # a Jordan block: the kernel of A - 1 misses half of the space, with
    # the Krylov relation and then with the minimal polynomial
    assert joint_eigenspaces([[[Qi(1), Qi(1)], [Qi(0), Qi(1)]]]) == (None, 0)
    assert calls == [2]
    # eigenvalues +-sqrt(2): the relation does not split, so neither does
    # the minimal polynomial it divides
    with pytest.raises(
        SpectrumError, match=r"^the minimal polynomial of matrix 0 does not split over Q\(i\)$"
    ):
        joint_eigenspaces([[[Qi(0), Qi(2)], [Qi(1), Qi(0)]]])


def _weyl_of(pair):
    return weyl_group(restricted_roots(pair), pair.kappa_on_cartan())


def test_weyl_groups_keep_their_inverses():
    path = ROOT / "perfbench" / "fixtures" / "sl2-so2-cubed.json"
    cubed = load_pair(json.loads(path.read_text()))
    groups = {pair.name: _weyl_of(pair) for pair in catalog()}
    groups["sl2-so2-cubed"] = _weyl_of(cubed)
    groups["sl4-so4"] = _weyl_of(_sl4_so4())
    sl3 = catalog_pair("sl3-so21")
    _, groups["sl3-so21 at [1, 0]"], _ = local_subsystem(
        restricted_roots(sl3), groups["sl3-so21"], [Qi(1), Qi(0)]
    )
    assert {name: W.order for name, W in groups.items()} == {
        "sl2-so2": 2,
        "sl3-so21": 6,
        "abelian2": 1,
        "sl2-diagonal": 2,
        "sl2-so2-cubed": 8,
        "sl4-so4": 24,
        "sl3-so21 at [1, 0]": 2,
    }
    for name, W in groups.items():
        ident = mat_identity(W.dim)
        assert len(W.inverses) == W.order, name
        for w, winv in zip(W.elements, W.inverses):
            assert mat_mul(w, winv) == ident, name
        assert [W.elements[j] for j in W.inverse_index] == W.inverses, name
        assert [W.elements[j] for j in W.generator_index] == W.generators, name


def test_only_generators_that_are_not_involutions_are_inverted(monkeypatch):
    pair = catalog_pair("sl3-so21")
    system = restricted_roots(pair)
    calls = count_calls(monkeypatch, "mat_inverse")
    weyl_group(system, pair.kappa_on_cartan())
    # the form only: each reflection is its own inverse
    assert calls == [2]


def test_field_averages_invert_nothing(monkeypatch):
    # the pushes read the inverses the group keeps
    weyl = _weyl_of(catalog_pair("sl3-so21"))
    calls = count_calls(monkeypatch, "mat_inverse")
    x0, x1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    Y = reynolds_field(weyl, PolyVectorField([x1, x0 * x0]))
    assert calls == []
    assert is_invariant_field(Y, weyl)
    assert calls == []


def _to_sympy(x):
    return sympy.Rational(x.real) + sympy.I * sympy.Rational(x.imag)


@pytest.mark.parametrize(
    "name", ["sl2-so2", "sl3-so21", "abelian2", "sl2-diagonal", "sl4-so4"]
)
def test_roots_match_sympy_eigenvectors_at_a_fixed_point(name):
    # at c with distinct root values, the eigenspaces of ad(c) are the
    # joint eigenspaces, so sympy's spectrum is an independent oracle
    pair = _sl4_so4() if name == "sl4-so4" else catalog_pair(name)
    system = restricted_roots(pair)
    c = [Qi(10**k) for k in range(system.rank)]
    expected = {}
    for r in system.roots:
        value = _to_sympy(sum((f * x for f, x in zip(r.functional, c)), Qi(0)))
        assert value != 0 and value not in expected, (name, value)
        expected[value] = r.multiplicity
    expected[sympy.Integer(0)] = system.zero_dim
    ad = pair.algebra.ad(embed(pair.cartan, c))
    found = {}
    for value, alg_mult, vectors in sympy.Matrix(
        [[_to_sympy(x) for x in row] for row in ad]
    ).eigenvects():
        assert alg_mult == len(vectors), (name, value)
        found[sympy.expand(value)] = len(vectors)
    assert found == expected
