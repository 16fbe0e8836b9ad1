"""The one input reader, `MultiPoly.parse` (with `parse_scalar` on top of
it): strings generated from its grammar read the same polynomial as
sympy, the refused forms raise `ValueError` in the library and end in
exit 3 on the command line, and reading builds no polynomial product, no
power and no `Fraction`. JSON values reach Q(i) through `liesym._scalar`,
which takes ints and strings only."""

import json
import re
from fractions import Fraction

import pytest
import sympy
from _oracles import count_calls
from hypothesis import given, settings
from hypothesis import strategies as st

from symcart import cli, exactalg, liesym
from symcart.exactalg import GaussianRational as Qi
from symcart.exactalg import MultiPoly, parse_scalar

# whitespace inside a literal, a dangling operator, juxtaposed factors
# and the number forms only `Fraction` used to take
REFUSED_INPUTS = ["2 3", "x0*", "x0+", "x0 x1", "1.5", "1e3", "1_000"]


@pytest.mark.parametrize("text", REFUSED_INPUTS)
def test_refused_input_is_a_value_error_and_exit_3(text, capsys):
    with pytest.raises(ValueError, match="^cannot parse "):
        MultiPoly.parse(text, 2)
    field = json.dumps([text])
    code = cli.main(["decompose", "--pair", "sl2-so2", "--field", field])
    out, err = capsys.readouterr()
    assert code == 3
    assert json.loads(out)["error"]["code"] == "input"
    assert "Traceback" not in err


def test_exponent_at_the_packing_bound_is_refused(capsys):
    # the packed store holds degrees below EXPONENT_BOUND: the reader and
    # the constructor refuse a term at it, naming the bound, and the
    # command line exits 3 before the field's own degree bound of 32
    bound = exactalg.EXPONENT_BOUND
    message = f"^degree {bound} reaches the exponent bound {bound}$"
    for make in (
        lambda: MultiPoly.parse(f"x0^{bound}", 1),
        lambda: MultiPoly.parse(f"x0^{bound - 1}*x1", 2),
        lambda: MultiPoly(1, {(bound,): 1}),
    ):
        with pytest.raises(ValueError, match=message):
            make()
    assert MultiPoly.parse(f"x0^{bound - 1}", 1).degree() == bound - 1
    for text, message in (
        ("x0^70000", "degree 70000 reaches the exponent bound"),
        ("x0^3201", "above the bound 32"),
    ):
        field = json.dumps([text])
        code = cli.main(["decompose", "--pair", "sl2-so2", "--field", field])
        out, err = capsys.readouterr()
        assert code == 3 and "Traceback" not in err
        assert message in json.loads(out)["error"]["message"]


def test_reader_messages():
    for text, message in (
        ("  ", "empty polynomial"),
        ("(1/0)*x0", "zero denominator in scalar '(1/0)*x0'"),
        ("x0*x2", "variable x2 out of range"),
        ("x0^", "cannot parse 'x0^'"),
        ("(x0)", "cannot parse '(x0)'"),
        ("((1))", "cannot parse '((1))'"),
        ("1 / 2", "cannot parse '1 / 2'"),
    ):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            MultiPoly.parse(text, 2)


def test_reader_accepts_the_documented_forms():
    x0, x1 = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1)
    half = Fraction(1, 2)
    assert MultiPoly.parse("2*x0 - x1 + 1/2", 2) == x0 * 2 - x1 + Qi(half)
    assert MultiPoly.parse(" ( -3/2 + 1i ) * x0 ^ 2 * x1 ", 2) == (
        x0 * x0 * x1 * Qi(-3 * half, 1)
    )
    assert MultiPoly.parse("--x0 - -x1", 2) == x0 + x1
    assert MultiPoly.parse("x0*x1*x0 + x1*x0^2", 2) == x0 * x0 * x1 * 2
    assert MultiPoly.parse("x0 - x0", 2) == MultiPoly.zero(2)
    assert parse_scalar("-1/2i") == Qi(0, -half)
    assert parse_scalar("3 - 2i") == Qi(3, -2)
    assert parse_scalar("i") == Qi(0, 1)


def test_reading_builds_no_product_power_or_fraction(monkeypatch):
    products = count_calls(monkeypatch, "MultiPoly.__mul__")
    powers = count_calls(monkeypatch, "MultiPoly.__pow__")

    def no_fraction(*args):
        raise AssertionError("the reader built a Fraction")

    monkeypatch.setattr(exactalg, "Fraction", no_fraction)
    p = MultiPoly.parse("(3/2 + 1i)*x0^2*x1 - x1^3*(2) + 1/2", 2)
    s = parse_scalar("-3/4 + 2/5i")
    assert products == [] and powers == []
    monkeypatch.undo()
    assert p.render() == "(3/2 + 1i)*x0^2*x1 + (-2)*x1^3 + (1/2)"
    assert s == Qi(Fraction(-3, 4), Fraction(2, 5))


@pytest.mark.parametrize("value", [0.1, 1.0, True, False, None, [1]])
def test_json_scalars_are_ints_or_strings(value):
    with pytest.raises(ValueError, match=f"^not a scalar: {re.escape(repr(value))}$"):
        liesym._scalar(value)


def test_json_ints_and_strings_read_exactly():
    assert liesym._scalar(-7) == Qi(-7)
    assert liesym._scalar("1/10") == Qi(1) / Qi(10)
    assert liesym._scalar(Qi(0, 1)) == Qi(0, 1)


# ------------------------------------------------------ the grammar vs sympy

_ws = st.sampled_from(["", "", " ", "  ", "\t"])
_parts = st.one_of(
    st.just("i"),
    st.builds(
        lambda p, q, im: f"{p}{'' if q is None else f'/{q}'}{'i' if im else ''}",
        st.integers(0, 40),
        st.none() | st.integers(1, 12),
        st.booleans(),
    ),
)


def _signs(min_size):
    return st.lists(st.sampled_from("+-"), min_size=min_size, max_size=3)


@st.composite
def _factor(draw, n):
    kind = draw(st.integers(0, 2))
    if kind == 0:
        var = f"x{draw(st.integers(0, n - 1))}"
        k = draw(st.none() | st.integers(0, 5))
        return [var if k is None else f"{var}{draw(_ws)}^{draw(_ws)}{k}"]
    if kind == 1:
        return [draw(_parts)]
    tokens = ["("]
    for j in range(draw(st.integers(1, 3))):
        tokens += draw(_signs(1 if j else 0)) + [draw(_parts)]
    return tokens + [")"]


@st.composite
def _inputs(draw):
    """(text, num_vars): signed terms of `*`-joined factors, with random
    whitespace between tokens and few variables, so terms repeat them."""
    n = draw(st.integers(1, 3))
    tokens = []
    for t in range(draw(st.integers(1, 4))):
        tokens += draw(_signs(1 if t else 0))
        for f in range(draw(st.integers(1, 4))):
            tokens += ["*"] * (f > 0) + draw(_factor(n))
    return draw(_ws) + "".join(tok + draw(_ws) for tok in tokens), n


def _sympy_reading(text):
    """`text` translated to sympy: `^` to `**`, a part p/qi to (p/q)*I and
    the unit i to I; each xN becomes a symbol."""
    s = re.sub(r"(\d+(?:/\d+)?)i", r"(\1)*I", text.replace("^", "**"))
    return sympy.parse_expr(s.replace("i", "I").strip())


def _sympy_poly(p):
    xs = sympy.symbols(f"x0:{p.num_vars}")
    return sum(
        (
            (sympy.Rational(c.real) + sympy.I * sympy.Rational(c.imag))
            * sympy.Mul(*[x**k for x, k in zip(xs, e)])
            for e, c in p.terms.items()
        ),
        sympy.Integer(0),
    )


@settings(max_examples=150, deadline=None)
@given(_inputs())
def test_reader_matches_sympy(case):
    text, n = case
    got = _sympy_poly(MultiPoly.parse(text, n))
    assert sympy.expand(got - _sympy_reading(text)) == 0, text
