import json
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from _oracles import count_calls, embed, pair_document, sl_so_pair

from symcart.exactalg import GaussianRational as Qi
from symcart.exactalg import LinearSpan, mat_det, mat_vec
from symcart.liesym import (
    CartanSubspace,
    LieAlgebra,
    SymmetricPair,
    catalog,
    catalog_pair,
    centralizer_in_q,
    load_pair,
)
from symcart.rootsys import restricted_roots

CATALOG_NAMES = ["sl2-so2", "sl3-so21", "abelian2", "sl2-diagonal"]


def _span(vectors, length):
    s = LinearSpan(length)
    for v in vectors:
        s.add(v)
    return s


def _same_span(vs, ws, length):
    s1 = _span(vs, length)
    s2 = _span(ws, length)
    return (
        s1.dim == s2.dim
        and all(s1.contains(w) for w in ws)
        and all(s2.contains(v) for v in vs)
    )


def _unit(dim, i, scale=1):
    v = [Qi(0)] * dim
    v[i] = Qi(scale)
    return v


def _whole(message):
    """A `pytest.raises` pattern matching exactly this message."""
    return f"^{re.escape(message)}$"


def _rand_vec(rng, dim):
    return [Qi(Fraction(rng.randint(-5, 5), rng.randint(1, 3))) for _ in range(dim)]


# sl(2) with basis r = [[0,1],[-1,0]], e = diag(1,-1), f = [[0,1],[1,0]]:
# [r,e] = -2f, [r,f] = 2e, [e,f] = 2r.  Used as a hand oracle throughout.
SL2_BRACKETS = [[0, 1, 2, "-2"], [0, 2, 1, "2"], [1, 2, 0, "2"]]


def _sl2_definition(**overrides):
    d = {
        "name": "sl2-json",
        "dim": 3,
        "brackets": [list(b) for b in SL2_BRACKETS],
        "sigma": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
        "cartan": [["0", "1", "0"]],
    }
    d.update(overrides)
    return d


def test_catalog_names_and_dimensions():
    pairs = catalog()
    assert [p.name for p in pairs] == CATALOG_NAMES
    by_name = {p.name: p for p in pairs}

    p = by_name["sl2-so2"]
    assert (p.algebra.dim, len(p.h_basis), len(p.q_basis)) == (3, 1, 2)
    assert p.cartan.rank == 1

    p = by_name["sl3-so21"]
    assert (p.algebra.dim, len(p.h_basis), len(p.q_basis)) == (8, 3, 5)
    assert p.cartan.rank == 2

    p = by_name["abelian2"]
    assert (p.algebra.dim, len(p.h_basis), len(p.q_basis)) == (2, 0, 2)
    assert p.cartan.rank == 2

    p = by_name["sl2-diagonal"]
    assert (p.algebra.dim, len(p.h_basis), len(p.q_basis)) == (6, 3, 3)
    assert p.cartan.rank == 1

    assert catalog_pair("sl3-so21").name == "sl3-so21"
    with pytest.raises(ValueError, match="unknown pair"):
        catalog_pair("no-such-pair")


def test_sl2_bracket_and_ad_oracle():
    p = catalog_pair("sl2-so2")
    alg = p.algebra
    r, e, f = (_unit(3, i) for i in range(3))
    assert alg.bracket(r, e) == [Qi(0), Qi(0), Qi(-2)]
    assert alg.bracket(r, f) == [Qi(0), Qi(2), Qi(0)]
    assert alg.bracket(e, f) == [Qi(2), Qi(0), Qi(0)]
    assert alg.bracket(e, e) == [Qi(0)] * 3
    # ad(e): r -> 2f, f -> 2r, e -> 0, columns in basis order
    ade = alg.ad(e)
    assert mat_vec(ade, r) == [Qi(0), Qi(0), Qi(2)]
    assert mat_vec(ade, f) == [Qi(2), Qi(0), Qi(0)]


def test_structural_validation_every_pair():
    rng = random.Random(11)
    for pair in catalog():
        alg = pair.algebra
        n = alg.dim
        # sigma is an involutive automorphism, checked on random vectors
        for _ in range(10):
            x = _rand_vec(rng, n)
            y = _rand_vec(rng, n)
            sx = mat_vec(pair.sigma, x)
            sy = mat_vec(pair.sigma, y)
            assert mat_vec(pair.sigma, sx) == [Qi(0) + c for c in x]
            assert alg.bracket(sx, sy) == mat_vec(pair.sigma, alg.bracket(x, y))
        # Jacobi on random triples, independent of the load-time basis check
        for _ in range(10):
            x, y, z = (_rand_vec(rng, n) for _ in range(3))
            s = alg.bracket(alg.bracket(x, y), z)
            s = [a + b for a, b in zip(s, alg.bracket(alg.bracket(y, z), x))]
            s = [a + b for a, b in zip(s, alg.bracket(alg.bracket(z, x), y))]
            assert all(c.is_zero() for c in s)
        # eigenspace grading of the bracket
        for i in pair.h_basis:
            for j in pair.q_basis:
                v = alg.bracket(_unit(n, i), _unit(n, j))
                assert mat_vec(pair.sigma, v) == [-c for c in v]
        for i in pair.q_basis:
            for j in pair.q_basis:
                v = alg.bracket(_unit(n, i), _unit(n, j))
                assert mat_vec(pair.sigma, v) == [Qi(0) + c for c in v]


def test_kappa_properties_every_pair():
    for pair in catalog():
        alg = pair.algebra
        n = alg.dim
        K = pair.kappa
        assert all(K[i][j] == K[j][i] for i in range(n) for j in range(n))
        assert not mat_det(K).is_zero()
        Kq = [[K[i][j] for j in pair.q_basis] for i in pair.q_basis]
        assert not mat_det(Kq).is_zero()
        # sigma-invariance
        S = pair.sigma
        for i in range(n):
            for j in range(n):
                lhs = pair.kappa_form(mat_vec(S, _unit(n, i)), mat_vec(S, _unit(n, j)))
                assert lhs == K[i][j]
        # invariance kappa([x,y],z) + kappa(y,[x,z]) = 0 on all basis triples
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = pair.kappa_form(alg.bracket(_unit(n, i), _unit(n, j)), _unit(n, k))
                    rhs = pair.kappa_form(_unit(n, j), alg.bracket(_unit(n, i), _unit(n, k)))
                    assert (lhs + rhs).is_zero()


def test_trace_form_on_cartan_oracles():
    # hand-computed Gram matrices of the trace form on each Cartan basis
    assert catalog_pair("sl2-so2").kappa_on_cartan() == [[Qi(2)]]
    assert catalog_pair("sl3-so21").kappa_on_cartan() == [
        [Qi(6), Qi(0)],
        [Qi(0), Qi(-2)],
    ]
    assert catalog_pair("abelian2").kappa_on_cartan() == [[Qi(1), Qi(0)], [Qi(0), Qi(1)]]
    assert catalog_pair("sl2-diagonal").kappa_on_cartan() == [[Qi(4)]]


def test_killing_form_sl2_oracle():
    # for sl(2) the Killing form is 4*tr(XY): diag(-8, 8, 8) in the r, e, f basis
    alg = catalog_pair("sl2-so2").algebra
    B = alg.killing()
    assert B == [
        [Qi(-8), Qi(0), Qi(0)],
        [Qi(0), Qi(8), Qi(0)],
        [Qi(0), Qi(0), Qi(8)],
    ]


def test_load_pair_json_with_killing_default():
    pair = load_pair(_sl2_definition())
    assert pair.name == "sl2-json"
    assert pair.h_basis == [0]
    assert pair.q_basis == [1, 2]
    assert pair.cartan.rank == 1
    # no kappa supplied: falls back to the Killing form
    assert pair.kappa == catalog_pair("sl2-so2").algebra.killing()


def test_load_pair_explicit_kappa_matches_catalog():
    d = _sl2_definition(
        kappa=[["-2", "0", "0"], ["0", "2", "0"], ["0", "0", "2"]],
    )
    pair = load_pair(d)
    assert pair.kappa == catalog_pair("sl2-so2").kappa


def test_load_pair_diagnostics_are_distinct():
    # structure constants that genuinely break Jacobi:
    # [e0,e1] = e0 and [e0,e2] = e2 give [[e0,e1],e2] + cyclic = e2
    bad = {
        "name": "bad",
        "dim": 3,
        "brackets": [[0, 1, 0, "1"], [0, 2, 2, "1"]],
        "sigma": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
        "cartan": [],
    }
    with pytest.raises(
        ValueError, match=_whole("Jacobi identity fails at basis triple (0, 1, 2)")
    ):
        load_pair(bad)

    with pytest.raises(ValueError, match="automorphism"):
        load_pair(
            _sl2_definition(sigma=[["1", "0", "0"], ["0", "1", "0"], ["0", "0", "-1"]])
        )

    with pytest.raises(ValueError, match="degenerate on q"):
        load_pair(
            _sl2_definition(kappa=[["0", "1", "0"], ["1", "0", "0"], ["0", "0", "1"]])
        )

    with pytest.raises(ValueError, match="not symmetric"):
        load_pair(
            _sl2_definition(kappa=[["1", "1", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        )

    # singular on g, nondegenerate on q
    with pytest.raises(ValueError, match="kappa is degenerate$"):
        load_pair(
            _sl2_definition(kappa=[["0", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        )

    # nondegenerate on g and on q, but pairs h with q
    with pytest.raises(ValueError, match="not sigma-invariant"):
        load_pair(
            _sl2_definition(kappa=[["0", "1", "0"], ["1", "1", "0"], ["0", "0", "1"]])
        )

    # symmetric, nondegenerate on g and on q and sigma-invariant, but
    # kappa([e, r], f) + kappa(r, [e, f]) = 2 + 4
    with pytest.raises(
        ValueError, match=_whole("kappa is not invariant at basis triple (1, 0, 2)")
    ):
        load_pair(
            _sl2_definition(kappa=[["2", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
        )

    with pytest.raises(ValueError):
        load_pair(_sl2_definition(brackets=[[0, 1, 2, "oops"]]))


def test_structure_constant_antisymmetry_enforced():
    c = [[[Qi(0)] * 2 for _ in range(2)] for _ in range(2)]
    c[0][1][0] = Qi(1)
    c[1][0][0] = Qi(1)  # should be -1
    with pytest.raises(ValueError, match="antisymmet"):
        LieAlgebra(2, c)


def test_centralizer_at_zero_and_generic_points():
    pair = catalog_pair("sl3-so21")
    n = pair.algebra.dim
    q_units = [_unit(n, i) for i in pair.q_basis]

    q_a, m = centralizer_in_q(pair, [Qi(0)] * n)
    assert _same_span(q_a, q_units, n)
    assert m == []

    # generic point of a: centralizer collapses to a itself
    x0 = embed(pair.cartan, [Qi(1), Qi(1)])
    q_a, m = centralizer_in_q(pair, x0)
    assert _same_span(q_a, pair.cartan.basis, n)
    assert len(m) == 3
    assert _span(q_a + m, n).dim == 5


def test_centralizer_subregular_point_matches_printed_shape():
    # x = 1, y = 0 kills the y-direction roots only; the centralizer in q is
    # the 3-dimensional space spanned by the a-entry, c-entry, d-entry
    # directions of the symmetric parametrization (indices 3, 5, 6)
    pair = catalog_pair("sl3-so21")
    n = pair.algebra.dim
    x0 = embed(pair.cartan, [Qi(1), Qi(0)])
    q_a, m = centralizer_in_q(pair, x0)
    assert len(q_a) == 3
    expected = [_unit(n, 3), _unit(n, 5), _unit(n, 6)]
    assert _same_span(q_a, expected, n)
    assert len(m) == 2
    assert _span(q_a + m, n).dim == 5


def test_centralizer_rejects_non_semisimple_point():
    pair = catalog_pair("sl2-so2")
    # e + i*f is nilpotent: [[1, i], [i, -1]] squares to zero
    bad = [Qi(0), Qi(1), Qi(0, 1)]
    with pytest.raises(ValueError, match="a_point is not semisimple"):
        centralizer_in_q(pair, bad)


def test_cartan_validator_rejections():
    sl3 = catalog_pair("sl3-so21")
    with pytest.raises(ValueError, match="maximal"):
        SymmetricPair(
            sl3.algebra,
            sl3.sigma,
            sl3.kappa,
            name="bad",
            cartan=CartanSubspace([_unit(8, 5)]),
        )
    with pytest.raises(ValueError, match="q"):
        SymmetricPair(
            sl3.algebra,
            sl3.sigma,
            sl3.kappa,
            name="bad",
            cartan=CartanSubspace([_unit(8, 0)]),
        )

    # construction leaves semisimplicity to the root split
    sl2 = catalog_pair("sl2-so2")
    nilpotent = SymmetricPair(
        sl2.algebra,
        sl2.sigma,
        sl2.kappa,
        name="bad",
        cartan=CartanSubspace([[Qi(0), Qi(1), Qi(0, 1)]]),
    )
    with pytest.raises(ValueError, match="Cartan basis vector 0 is not semisimple"):
        restricted_roots(nilpotent)

    diag = catalog_pair("sl2-diagonal")
    with pytest.raises(ValueError, match="abelian"):
        SymmetricPair(
            diag.algebra,
            diag.sigma,
            diag.kappa,
            name="bad",
            cartan=CartanSubspace([_unit(6, 4), _unit(6, 5)]),
        )


def test_random_regular_point_centralizer_is_cartan():
    rng = random.Random(5)
    for pair in catalog():
        n = pair.algebra.dim
        cart = pair.cartan
        for _ in range(3):
            coords = [Qi(rng.randint(1, 9)) for _ in range(cart.rank)]
            q_a, _ = centralizer_in_q(pair, embed(cart, coords))
            assert _same_span(q_a, cart.basis, n)


def test_building_a_pair_calls_no_scalar_multiplication(monkeypatch):
    # every Q(i) sum of products behind a pair goes through the one dot
    # kernel, which multiplies on integer numerators
    products = count_calls(monkeypatch, "GaussianRational.__mul__")
    reflected = count_calls(monkeypatch, "GaussianRational.__rmul__")
    pair = catalog_pair.__wrapped__("sl3-so21")
    assert pair.algebra.dim == 8 and pair.cartan.rank == 2
    assert (len(products), len(reflected)) == (0, 0)


def test_sl_so_builder_reproduces_the_sl4_so4_fixture():
    path = Path(__file__).parent / "fixtures" / "sl4-so4.json"
    assert pair_document(sl_so_pair(4)) == json.loads(path.read_text())
