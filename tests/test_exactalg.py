from __future__ import annotations

import json
import random
import sys
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest
from _oracles import count_calls

from symcart import cli, exactalg
from symcart.exactalg import (
    GaussianRational,
    LinearSpan,
    MultiPoly,
    det_adjugate,
    gaussian_rational_roots,
    joint_eigenspaces,
    mat_det,
    mat_inverse,
    mat_mul,
    matrix_min_poly,
    parse_scalar,
    poly_divides,
    render_scalar,
    solve_exact,
)
from symcart.invariants import build_chart
from symcart.liesym import catalog_pair, load_pair

Qi = GaussianRational


def _rand_scalar(rng, complex_ok=True):
    re = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
    im = Fraction(rng.randint(-3, 3)) if complex_ok and rng.random() < 0.4 else 0
    return Qi(re, im)


def _rand_poly(rng, nvars, max_deg, max_terms=5, complex_ok=True):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        terms[tuple(e)] = _rand_scalar(rng, complex_ok)
    return MultiPoly(nvars, terms)


# ---------------------------------------------------------------- scalars

def test_scalar_field_axioms_spot():
    a = Qi(Fraction(3, 2), Fraction(-1, 3))
    b = Qi(Fraction(-2), Fraction(5, 7))
    c = Qi(Fraction(1, 4), Fraction(1))
    assert (a + b) + c == a + (b + c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    assert (a / b) * b == a
    assert a + Qi(0) == a and a * Qi(1) == a


def test_scalar_division_against_conjugate_formula():
    # (a+bi)/(c+di) = (a+bi)(c-di)/(c^2+d^2), checked on a fixed instance
    x = Qi(1, 2)
    y = Qi(3, -1)
    q = x / y
    assert q * y == x
    assert q == Qi(Fraction(1, 10), Fraction(7, 10))


def test_scalar_parse_render_round_trip():
    cases = ["3", "-1/2", "i", "-i", "2i", "3+2i", "3 - 2i", "1/2+3/4i", "0"]
    for text in cases:
        s = parse_scalar(text)
        assert parse_scalar(render_scalar(s)) == s
    assert parse_scalar("1/2+3/4i") == Qi(Fraction(1, 2), Fraction(3, 4))
    assert render_scalar(Qi(Fraction(3, 2), 1)) == "3/2 + 1i"
    with pytest.raises(ValueError):
        parse_scalar("x")


def test_construction_and_verify_build_no_fraction(monkeypatch, capsys):
    # every scalar computation reads the integer triples: a Fraction is
    # made only to read one passed in, or for `real`, `imag` and `repr`
    built = []

    def no_fraction(cls, *args, **kwargs):
        built.append(args)
        raise AssertionError("a Fraction was built")

    path = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"
    doc = json.loads((path / "sl3-so21.json").read_text())
    monkeypatch.setattr(Fraction, "__new__", no_fraction)
    chart = build_chart(load_pair(doc))
    code = cli.main(["verify", "--pair", "sl2-so2"])
    monkeypatch.undo()
    report = json.loads(capsys.readouterr().out)
    assert built == []
    assert chart.degrees == [2, 3] and code == 0
    assert all(c["passed"] for c in report["checks"])
    x = Qi(Fraction(3, 2), 1)
    assert (x.real, x.imag) == (Fraction(3, 2), 1) and repr(x) == "Qi(3/2, 1)"


def test_store_arithmetic_builds_no_gaussian_rational(monkeypatch):
    # polynomials whose terms were never read are multiplied, added,
    # shifted (in full and capped), moved by the group and divided on the
    # integer store alone
    weyl = build_chart(catalog_pair("sl3-so21")).weyl
    f = MultiPoly.parse("(3/2 + 1i)*x0^2*x1 - 2/3*x1^3 + 1/2*x0 + 5", 2)
    g = MultiPoly.parse("x0^2 - 1/3*x1^2", 2)
    point = [Qi(1, 2), Qi(Fraction(-1, 3))]
    made = count_calls(monkeypatch, "_qi")
    inits = count_calls(monkeypatch, "GaussianRational.__init__")
    h = (f * g + f - g) * f
    moved = [weyl.act(i, h) for i in range(weyl.order)]
    shifted = h.shift(point)
    jet = h.shift(point, 3)
    q, r = h.divmod_by(f)
    q2, r2 = (h + g).divmod_by(f)
    monkeypatch.undo()
    assert made == [] and inits == []
    touched = [f, g, h, shifted, jet, q, r, q2, r2, *moved]
    assert all(p._terms is None for p in touched)
    assert r.is_zero() and q == f * g + f - g
    assert not r2.is_zero() and q2 * f + r2 == h + g
    assert moved == [h.compose_linear(w) for w in weyl.elements]
    assert shifted == h.compose(
        [MultiPoly.variable(2, i) + MultiPoly.constant(2, x) for i, x in enumerate(point)]
    )
    assert jet.terms == {e: c for e, c in shifted.terms.items() if sum(e) <= 3}


# ---------------------------------------------------------------- polynomials

def test_grevlex_leading_terms():
    # among degree-2 monomials in two variables: x0^2 > x0*x1 > x1^2
    p = MultiPoly.parse("x0^2 + x0*x1 + x1^2", 2)
    e, _ = p.leading_term()
    assert e == (2, 0)
    q = MultiPoly.parse("x0*x1 + x1^2", 2)
    assert q.leading_term()[0] == (1, 1)
    # degree dominates: x1^3 > x0^2
    r = MultiPoly.parse("x1^3 + x0^2", 2)
    assert r.leading_term()[0] == (0, 3)


def test_poly_arithmetic_ring_axioms_spot():
    rng = random.Random(7)
    for _ in range(20):
        f = _rand_poly(rng, 2, 3)
        g = _rand_poly(rng, 2, 3)
        h = _rand_poly(rng, 2, 3)
        assert (f + g) * h == f * h + g * h
        assert f * g == g * f
        assert f - f == MultiPoly.zero(2)


def test_poly_parse_render_round_trip():
    texts = [
        "(3/2 + 1i)*x0^2*x1",
        "(1)",
        "(-4)*x0^2",
        "x0^2 + (-1)*x1^2",
        "2*x0 - x1 + 1/2",
    ]
    for t in texts:
        p = MultiPoly.parse(t, 2)
        assert MultiPoly.parse(p.render(), 2) == p
    # canonical rendering keeps the documented shape
    p = MultiPoly(2, {(2, 1): Qi(Fraction(3, 2), 1)})
    assert p.render() == "(3/2 + 1i)*x0^2*x1"


def test_poly_compose_and_evaluate_agree():
    rng = random.Random(11)
    f = _rand_poly(rng, 2, 4)
    g0 = _rand_poly(rng, 2, 2)
    g1 = _rand_poly(rng, 2, 2)
    comp = f.compose([g0, g1])
    for _ in range(5):
        pt = [_rand_scalar(rng), _rand_scalar(rng)]
        inner = [g0.evaluate(pt), g1.evaluate(pt)]
        assert comp.evaluate(pt) == f.evaluate(inner)


def test_compose_high_power_without_recursion():
    # the powers of each substitution are built iteratively, so an
    # exponent beyond the recursion limit composes normally
    x = MultiPoly.variable(1, 0)
    assert (x**3000).compose_linear([[Qi(-1)]]) == x**3000
    assert (x**3001).compose_linear([[Qi(-1)]]) == -(x**3001)


def test_homogeneous_components_sum_back():
    rng = random.Random(13)
    f = _rand_poly(rng, 3, 5)
    parts = f.homogeneous_components()
    total = MultiPoly.zero(3)
    for d, part in parts.items():
        assert part.is_homogeneous() and part.degree() == d
        total = total + part
    assert total == f


# ---------------------------------------------------------------- division

def test_divides_difference_of_squares():
    f = MultiPoly.parse("x0^2 - x1^2", 2)
    p = MultiPoly.parse("x0 - x1", 2)
    q = poly_divides(f, p)
    assert q == MultiPoly.parse("x0 + x1", 2)


def test_divides_unit():
    one = MultiPoly.one(1)
    assert poly_divides(one, one) == one


def test_not_divisible_witness():
    f = MultiPoly.parse("x0^2*x1 + x0", 2)
    p = MultiPoly.parse("x0^2", 2)
    assert poly_divides(f, p) is None
    # oracle: every term of x0^2 * q has x0-exponent >= 2, but f contains the
    # term x0 with exponent 1, so no q can work
    assert min(e[0] for e in f.terms) == 1


def test_divides_zero_divisor_error():
    with pytest.raises(ZeroDivisionError):
        poly_divides(MultiPoly.one(1), MultiPoly.zero(1))


def test_divides_round_trip_property():
    rng = random.Random(23)
    for _ in range(40):
        f = _rand_poly(rng, 2, 3)
        p = _rand_poly(rng, 2, 3)
        if p.is_zero():
            continue
        assert poly_divides(f * p, p) == f


# ---------------------------------------------------------------- det/adjugate

def test_det_adjugate_1x1_and_identity():
    f = MultiPoly.parse("x0^2 + 1", 1)
    det, adj = det_adjugate([[f]])
    assert det == f and adj == [[MultiPoly.one(1)]]
    I2 = [
        [MultiPoly.one(2), MultiPoly.zero(2)],
        [MultiPoly.zero(2), MultiPoly.one(2)],
    ]
    det, adj = det_adjugate(I2)
    assert det == MultiPoly.one(2) and adj == I2


def test_det_adjugate_hand_cofactors():
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    z = MultiPoly.zero(2)
    det, adj = det_adjugate([[x, y], [z, x]])
    assert det == x * x
    assert adj == [[x, -y], [z, x]]


def test_det_adjugate_nonsquare_error():
    with pytest.raises(ValueError):
        det_adjugate([[MultiPoly.one(1), MultiPoly.one(1)]])


def test_adjugate_identity_property():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 3)
        M = [[_rand_poly(rng, 2, 3, max_terms=3) for _ in range(n)] for _ in range(n)]
        det, adj = det_adjugate(M)
        prod = [
            [
                sum((M[i][k] * adj[k][j] for k in range(n)), MultiPoly.zero(2))
                for j in range(n)
            ]
            for i in range(n)
        ]
        for i in range(n):
            for j in range(n):
                want = det if i == j else MultiPoly.zero(2)
                assert prod[i][j] == want


# ---------------------------------------------------------------- linear solve

def test_solve_identity():
    A = [[Qi(1), Qi(0)], [Qi(0), Qi(1)]]
    b = [Qi(1), Qi(0, 1)]
    sol = solve_exact(A, b)
    assert sol.rank == 2 and sol.kernel == []
    assert sol.particular == [Qi(1), Qi(0, 1)]


def test_solve_zero_matrix_full_kernel():
    A = [[Qi(0), Qi(0)], [Qi(0), Qi(0)]]
    sol = solve_exact(A, [Qi(0), Qi(0)])
    assert sol.rank == 0 and len(sol.kernel) == 2


def test_solve_affine_family():
    # row-reduce by hand: x + y = 1 twice over, one free variable
    A = [[Qi(1), Qi(1)], [Qi(2), Qi(2)]]
    sol = solve_exact(A, [Qi(1), Qi(2)])
    assert sol.rank == 1
    assert sol.particular is not None and len(sol.kernel) == 1
    x, y = sol.particular
    assert x + y == Qi(1)
    kx, ky = sol.kernel[0]
    assert kx + ky == Qi(0) and (kx, ky) != (Qi(0), Qi(0))


def test_solve_inconsistent():
    A = [[Qi(1), Qi(1)], [Qi(1), Qi(1)]]
    sol = solve_exact(A, [Qi(1), Qi(2)])
    assert sol.particular is None


def test_solve_random_property():
    rng = random.Random(41)
    for _ in range(30):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        A = [[_rand_scalar(rng) for _ in range(n)] for _ in range(m)]
        b = [_rand_scalar(rng) for _ in range(m)]
        sol = solve_exact(A, b)
        if sol.particular is not None:
            for i in range(m):
                acc = Qi(0)
                for j in range(n):
                    acc = acc + A[i][j] * sol.particular[j]
                assert acc == b[i]
        for k in sol.kernel:
            for i in range(m):
                acc = Qi(0)
                for j in range(n):
                    acc = acc + A[i][j] * k[j]
                assert acc == Qi(0)


def test_mat_inverse_and_det():
    A = [[Qi(0), Qi(-1)], [Qi(1), Qi(0)]]
    inv = mat_inverse(A)
    assert mat_mul(A, inv) == [[Qi(1), Qi(0)], [Qi(0), Qi(1)]]
    assert mat_det(A) == Qi(1)
    with pytest.raises(ValueError):
        mat_inverse([[Qi(1), Qi(1)], [Qi(1), Qi(1)]])


def test_linear_span_incremental():
    span = LinearSpan(3)
    assert span.add([Qi(1), Qi(0), Qi(1)])
    assert span.add([Qi(0), Qi(1), Qi(0)])
    assert not span.add([Qi(2), Qi(3), Qi(2)])
    assert span.dim == 2
    assert span.contains([Qi(1), Qi(1), Qi(1)])
    assert not span.contains([Qi(0), Qi(0), Qi(1)])


# ---------------------------------------------------------------- spectra

def _t(*coeffs):
    """The one-variable polynomial with ascending coefficients."""
    return MultiPoly(1, {(k,): c for k, c in enumerate(coeffs)})


def test_min_poly_rotation_matrix():
    # ad-style rotation generator: squares to -identity
    A = [[Qi(0), Qi(-1)], [Qi(1), Qi(0)]]
    m = matrix_min_poly(A)
    assert m == _t(Qi(1), Qi(0), Qi(1))  # t^2 + 1
    roots, split = gaussian_rational_roots(m)
    assert split and set(roots) == {Qi(0, 1), Qi(0, -1)}


def test_min_poly_nilpotent_not_squarefree():
    A = [[Qi(0), Qi(1)], [Qi(0), Qi(0)]]
    m = matrix_min_poly(A)
    assert m == _t(Qi(0), Qi(0), Qi(1))  # t^2
    # its one eigenspace is a line, short of the plane
    assert joint_eigenspaces([A]) == (None, 0)
    identity = [[Qi(1), Qi(0)], [Qi(0), Qi(1)]]
    assert joint_eigenspaces([identity, A]) == (None, 1)


def test_roots_outside_field_detected():
    # t^2 - 2 has no root in the Gaussian rationals
    f = _t(Qi(-2), Qi(0), Qi(1))
    roots, split = gaussian_rational_roots(f)
    assert not split and roots == []


def test_roots_with_denominators():
    # (2t - 1)(t + 3i) = 2t^2 + (6i - 1)t - 3i
    f = _t(Qi(0, -3), Qi(-1, 6), Qi(2))
    roots, split = gaussian_rational_roots(f)
    assert split
    assert set(roots) == {Qi(Fraction(1, 2)), Qi(0, -3)}


def test_roots_diagonalizable_integer_spectrum():
    A = [[Qi(2), Qi(0), Qi(0)], [Qi(0), Qi(-2), Qi(0)], [Qi(0), Qi(0), Qi(0)]]
    m = matrix_min_poly(A)
    roots, split = gaussian_rational_roots(m)
    assert split and set(roots) == {Qi(2), Qi(-2), Qi(0)}


@pytest.mark.skipif(
    sys.version_info >= (3, 12), reason="3.12 tokenizes f-strings into parts"
)
def test_every_module_stays_below_the_parser_token_doubling():
    # CPython's parser holds a module's tokens in an array that doubles
    # past 8192; `peak_rss_mb` of the in-process benchmark workloads
    # peaks while the largest module is compiled from source, and a draft
    # of exactalg.py with 8213 tokens read construct +3.5% (24.8 -> 25.7
    # MB, bound 5%), so the substrate is split into three modules
    counts = {}
    for path in sorted(Path(exactalg.__file__).parent.glob("*.py")):
        with open(path, encoding="utf-8") as f:
            counts[path.name] = sum(
                t.type not in (tokenize.COMMENT, tokenize.NL)
                for t in tokenize.generate_tokens(f.readline)
            )
    assert {"scalars.py", "polynomials.py", "linalg.py"} <= set(counts)
    assert {name: n for name, n in counts.items() if n > 8192} == {}, (
        "past 8192 tokens the parser doubles its token array and the "
        "compile peak grows by about 0.5 MB"
    )
