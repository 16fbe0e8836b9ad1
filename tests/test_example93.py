from fractions import Fraction

from symcart import example93
from symcart.exactalg import GaussianRational as Qi
from symcart.exactalg import mat_det, mat_identity, mat_inverse, mat_mul
from symcart.example93 import (
    control_flipped_involution,
    control_offaxis_v,
    verify_example93,
)

I = Qi(0, 1)


def M(rows):
    return [[x if isinstance(x, Qi) else Qi(x) for x in row] for row in rows]


EXPECTED_A = [
    M([[1, 0, 0], [0, -2, 0], [0, 0, 1]]),
    M([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
]

EXPECTED_WITNESSES = [
    M([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    M([[-1, 0, 0], [0, 1, 0], [0, 0, -1]]),
    [[Qi(0), Qi(0), I], [Qi(0), Qi(-1), Qi(0)], [-I, Qi(0), Qi(0)]],
    [[Qi(0), Qi(0), -I], [Qi(0), Qi(-1), Qi(0)], [I, Qi(0), Qi(0)]],
]

EXPECTED_V = M([[1, 0, 0], [0, 0, 0], [0, 0, -1]])


def _trace(m):
    return sum((m[i][i] for i in range(3)), Qi(0))


def _transpose(m):
    return [list(col) for col in zip(*m)]


def test_data_matches_printed_matrices():
    assert example93.A_BASIS == EXPECTED_A
    assert example93.MC_WITNESSES == EXPECTED_WITNESSES
    assert example93.V_MATRIX == EXPECTED_V


def test_witness_properties_recomputed():
    I21 = M([[1, 0, 0], [0, 1, 0], [0, 0, -1]])
    for g in EXPECTED_WITNESSES:
        ginv = mat_inverse(g)
        fixed = mat_mul(I21, mat_mul(_transpose(ginv), I21))
        assert fixed == g
        assert mat_det(g) == Qi(1)
        for a in EXPECTED_A:
            assert mat_mul(g, mat_mul(a, ginv)) == a


def test_orthogonality_recomputed():
    for a in EXPECTED_A:
        assert _trace(mat_mul(EXPECTED_V, a)) == Qi(0)
    # an element with a y-component pairs nontrivially with a
    vbad = M([[1, 0, 1], [0, 0, 0], [-1, 0, -1]])
    assert _trace(mat_mul(vbad, EXPECTED_A[1])) == Qi(-2)


def test_verify_report_all_pass():
    report = verify_example93()
    assert report["all_passed"]
    assert len(report["checks"]) == 6
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "dimensions",
        "cartan_subspace",
        "centralizer_witnesses",
        "fixed_centralizer_space",
        "orthogonality",
        "gradient_rank",
    ]
    for c in report["checks"]:
        assert c["passed"], c


def test_negative_control_flipped_involution():
    report = control_flipped_involution()
    assert not report["all_passed"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert not by_name["centralizer_witnesses"]["passed"]
    for name, c in by_name.items():
        if name != "centralizer_witnesses":
            assert c["passed"], c


def test_negative_control_offaxis_v():
    report = control_offaxis_v()
    assert not report["all_passed"]
    by_name = {c["name"]: c for c in report["checks"]}
    assert not by_name["orthogonality"]["passed"]
    for name, c in by_name.items():
        if name != "orthogonality":
            assert c["passed"], c


def test_dimension_and_rank_details():
    report = verify_example93()
    by_name = {c["name"]: c for c in report["checks"]}
    assert "3" in str(by_name["dimensions"]["detail"])
    assert "5" in str(by_name["dimensions"]["detail"])
    assert "2" in str(by_name["gradient_rank"]["detail"])
