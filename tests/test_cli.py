"""Command-line interface tests.

The CLI is driven in process through main(argv); stdout is captured with
capsys and parsed back as JSON. The subprocess tests (the module entry
point from an unrelated working directory, and certification failures
under `python -O`) give the child an absolute path to the package under
test, since a relative PYTHONPATH entry such as "src" would resolve
against another working directory and miss it. Expected polynomial
strings come from values derived by hand in the lower-level test
modules.
"""

import ast
import json
import os
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import symcart
from symcart import cli, rootsys
from symcart.exactalg import CertificationError, GaussianRational as Qi, MultiPoly
from symcart.liesym import MAX_PAIR_DIM
from symcart.rootsys import RestrictedRoot, RestrictedRootSystem, weyl_group

CATALOG_NAMES = ["sl2-so2", "sl3-so21", "abelian2", "sl2-diagonal"]

# sl(2) split by the off-diagonal involution, same algebra as the
# "sl2-so2" catalog entry but loaded from a definition document
SL2_DOC = {
    "name": "sl2-json",
    "dim": 3,
    "brackets": [[0, 1, 2, "-2"], [0, 2, 1, "2"], [1, 2, 0, "2"]],
    "sigma": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
    "cartan": [["0", "1", "0"]],
}

# compact-type fixture whose a-spectrum is +-i*sqrt(2), outside Q(i)
TWISTED_DOC = {
    "name": "so3-twisted",
    "dim": 3,
    "brackets": [[0, 1, 2, "1"], [1, 2, 0, "2"], [2, 0, 1, "1"]],
    "sigma": [["1", "0", "0"], ["0", "-1", "0"], ["0", "0", "-1"]],
    "cartan": [["0", "1", "0"]],
}


def run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def run_json(argv, capsys):
    code, out = run(argv, capsys)
    return code, json.loads(out)


def check_map(report):
    return {c["name"]: c for c in report["checks"]}


def test_catalog_lists_all_pairs(capsys):
    code, report = run_json(["catalog"], capsys)
    assert code == 0
    entries = report["results"]["pairs"]
    assert [e["name"] for e in entries] == CATALOG_NAMES
    by_name = {e["name"]: e for e in entries}
    assert by_name["sl3-so21"]["dim"] == 8
    assert by_name["sl3-so21"]["rank"] == 2
    assert by_name["sl2-so2"]["h_dim"] == 1
    assert by_name["sl2-so2"]["q_dim"] == 2


def test_phi_sl2_values(capsys):
    code, report = run_json(["phi", "--pair", "sl2-so2"], capsys)
    assert code == 0
    res = report["results"]
    assert res["phi"] == "(-4)*x0^2"
    assert res["gram_constant"] == "-1/2"
    assert all(c["passed"] for c in report["checks"])


def test_phi_sl3_matches_expected_polynomial(capsys):
    code, report = run_json(["phi", "--pair", "sl3-so21"], capsys)
    assert code == 0
    got = MultiPoly.parse(report["results"]["phi"], 2)
    x = MultiPoly.variable(2, 0)
    y = MultiPoly.variable(2, 1)
    assert got == x**4 * y**2 * 324 + x**2 * y**4 * 72 + y**6 * 4


def test_roots_sl3(capsys):
    code, report = run_json(["roots", "--pair", "sl3-so21"], capsys)
    assert code == 0
    res = report["results"]
    assert len(res["roots"]) == 6
    assert all(r["multiplicity"] == 1 for r in res["roots"])
    assert all(r["is_reduced"] for r in res["roots"])
    assert res["zero_dim"] == 2
    assert res["dim_g"] == 8
    assert check_map(report)["root_bookkeeping"]["passed"]


def test_weyl_sl2(capsys):
    code, report = run_json(["weyl", "--pair", "sl2-so2"], capsys)
    assert code == 0
    res = report["results"]
    assert res["order"] == 2
    assert [["-1"]] in res["elements"]
    assert [["1"]] in res["elements"]
    assert check_map(report)["weyl_permutes_roots"]["passed"]


def test_weyl_closure_bound_is_input_error(capsys, monkeypatch):
    # |W| = 6 for sl3-so21, one past a bound of 5
    monkeypatch.setattr(rootsys, "MAX_WEYL_ELEMENTS", 5)
    code, report = run_json(["weyl", "--pair", "sl3-so21"], capsys)
    assert code == 3
    assert report["error"]["message"] == (
        "Weyl closure exceeded the safety bound of 5 elements"
    )


def test_permutation_check_reports_a_non_permuting_generator():
    # the reflection in 1 (and in 2) is x -> -x, which sends {1, 2} to
    # {-1, -2}: not a permutation of the roots
    roots = [RestrictedRoot([Qi(1)], 1), RestrictedRoot([Qi(2)], 1)]
    with pytest.raises(CertificationError) as info:
        weyl_group(RestrictedRootSystem(roots, 1, 0), [[Qi(1)]])
    assert info.value.name == "weyl_permutes_roots"
    assert info.value.witness == {"matrix": [["-1"]], "functional": ["1"]}


def test_generators_sl3(capsys):
    code, report = run_json(["generators", "--pair", "sl3-so21"], capsys)
    assert code == 0
    res = report["results"]
    assert res["degrees"] == [2, 3]
    assert len(res["generators"]) == 2
    assert check_map(report)["degrees_product"]["passed"]


def test_decompose_euler_field_sl2(capsys):
    code, report = run_json(
        ["decompose", "--pair", "sl2-so2", "--field", '["x0"]'], capsys
    )
    assert code == 0
    assert report["results"]["coefficients"] == ["(1)"]
    assert check_map(report)["reconstruction_exact"]["passed"]


def test_decompose_rejects_noninvariant_field(capsys):
    code, report = run_json(
        ["decompose", "--pair", "sl3-so21", "--field", '["x0", "0"]'], capsys
    )
    assert code == 3
    assert "invariant" in report["error"]["message"]


def test_lift_constant_is_not_liftable(capsys):
    code, report = run_json(
        ["lift", "--pair", "sl2-so2", "--derivation", "[1]"], capsys
    )
    assert code == 2
    res = report["results"]
    assert res["liftable"] is False
    assert res["stable"] is False
    lift_check = check_map(report)["liftable"]
    assert not lift_check["passed"]
    assert lift_check["witness"]["remainder"] == "(-2)"
    assert lift_check["witness"]["index"] == 0
    # failure mode agreement still holds
    assert check_map(report)["stability_matches_liftability"]["passed"]


def test_lift_generator_image(capsys):
    code, report = run_json(
        ["lift", "--pair", "sl2-so2", "--derivation", '["x0^2"]'], capsys
    )
    assert code == 0
    res = report["results"]
    assert res["liftable"] is True
    assert res["coefficients"] == ["(1/2)"]
    assert all(c["passed"] for c in report["checks"])


def test_slice_origin_abelian2(capsys):
    code, report = run_json(
        ["slice", "--pair", "abelian2", "--point", '["0", "0"]'], capsys
    )
    assert code == 0
    res = report["results"]
    assert res["psi"] == "(1)"
    assert len(res["local_generators"]) == 2
    assert all(c["passed"] for c in report["checks"])


def test_slice_sl3_subregular(capsys):
    code, report = run_json(
        ["slice", "--pair", "sl3-so21", "--point", '["1", "0"]'], capsys
    )
    assert code == 0
    res = report["results"]
    assert res["psi_at_point"] != "0"
    assert res["transition_det_at_point"] != "0"
    cm = check_map(report)
    for name in (
        "factorization_exact",
        "local_value_nonzero",
        "transition_reconstructs",
        "transition_det_nonzero",
    ):
        assert cm[name]["passed"]


def test_verify_abelian2_all_pass(capsys):
    code, report = run_json(["verify", "--pair", "abelian2"], capsys)
    assert code == 0
    assert report["results"]["phi"] == "(1)"
    assert report["checks"]
    assert all(c["passed"] for c in report["checks"])


def test_verify_example93_report(capsys):
    code, report = run_json(["verify", "--example93"], capsys)
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    assert names == [
        "dimensions",
        "cartan_subspace",
        "centralizer_witnesses",
        "fixed_centralizer_space",
        "orthogonality",
        "gradient_rank",
    ]
    assert all(c["passed"] for c in report["checks"])
    assert report["results"]["all_passed"] is True


def test_verify_whole_catalog(capsys, monkeypatch):
    # shrink the sampled checks so the aggregate run stays fast
    monkeypatch.setattr(
        cli,
        "_VERIFY_SAMPLES",
        {
            "fields": 2,
            "field_degree": 4,
            "derivations": 2,
            "derivation_degree": 3,
            "jets": 2,
            "jet_actions": 2,
        },
    )
    code, report = run_json(["verify"], capsys)
    assert code == 0
    names = [c["name"] for c in report["checks"]]
    for pair in CATALOG_NAMES:
        assert any(n.startswith(pair + ":") for n in names)
    assert any(n.startswith("example93:") for n in names)
    assert any("control" in n for n in names)
    assert all(c["passed"] for c in report["checks"])


def test_verify_inverts_each_form_once_per_group(capsys, monkeypatch):
    # every WeylGroup keeps the inverse of its invariant form; a local
    # group reads its parent's, and the gradients of the jet checks read
    # the chart's group
    groups = []
    built = rootsys.WeylGroup.__init__

    def record(self, *args):
        built(self, *args)
        groups.append(self)

    monkeypatch.setattr(rootsys.WeylGroup, "__init__", record)
    inverted = []
    original = rootsys.mat_inverse

    def counted(A):
        inverted.append(A)
        return original(A)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "symcart" and (
            getattr(module, "mat_inverse", None) is original
        ):
            monkeypatch.setattr(module, "mat_inverse", counted)
    code, _ = run(["verify", "--pair", "sl3-so21"], capsys)
    assert code == 0
    forms = [A for A in inverted if any(A == W.kappa_on_a for W in groups)]
    assert 0 < len(forms) <= len(groups)


def test_verify_expands_each_jet_once(capsys, monkeypatch):
    # the homomorphism sample reuses the jet of f in its product check
    expanded = Counter()
    jet_of = cli.jet_of

    def counted(f, base, N):
        expanded[f.render(), N] += 1
        return jet_of(f, base, N)

    monkeypatch.setattr(cli, "jet_of", counted)
    code, _ = run(["verify", "--pair", "sl3-so21"], capsys)
    assert code == 0
    assert expanded and max(expanded.values()) == 1


def test_random_poly_draws_the_samples_of_the_term_dict_sampler():
    # the sampler as it was: the same draws into a dict of Q(i) terms,
    # then one MultiPoly; a repeated exponent keeps its last draw
    def by_terms(rng, nvars, max_deg):
        terms = {}
        for _ in range(rng.randint(1, 6)):
            e = [0] * nvars
            for _ in range(rng.randint(0, max_deg)):
                e[rng.randrange(nvars)] += 1
            terms[tuple(e)] = Qi(rng.randint(-4, 4), rng.randint(-2, 2))
        return MultiPoly(nvars, terms)

    for n in (1, 2, 3):
        new, old = random.Random(f"draws:{n}"), random.Random(f"draws:{n}")
        for k in range(1200):
            got, want = cli._random_poly(new, n, k % 9), by_terms(old, n, k % 9)
            assert (got._den, list(got._num.items())) == (want._den, list(want._num.items()))
        assert new.getstate() == old.getstate()


def test_unknown_pair_is_input_error(capsys):
    code, report = run_json(["phi", "--pair", "nope"], capsys)
    assert code == 3
    assert "nope" in report["error"]["message"]


def test_missing_pair_is_input_error(capsys):
    code, report = run_json(["phi"], capsys)
    assert code == 3
    assert "pair" in report["error"]["message"]


def test_conflicting_pair_sources(capsys, tmp_path):
    doc = tmp_path / "p.json"
    doc.write_text(json.dumps(SL2_DOC))
    code, report = run_json(
        ["phi", "--pair", "sl2-so2", "--pair-file", str(doc)], capsys
    )
    assert code == 3


def test_pair_file_phi(capsys, tmp_path):
    doc = tmp_path / "sl2.json"
    doc.write_text(json.dumps(SL2_DOC))
    code, report = run_json(["phi", "--pair-file", str(doc)], capsys)
    assert code == 0
    assert report["results"]["phi"] == "(-4)*x0^2"


def test_pair_file_unsupported_spectrum(capsys, tmp_path):
    doc = tmp_path / "twisted.json"
    doc.write_text(json.dumps(TWISTED_DOC))
    code, report = run_json(["roots", "--pair-file", str(doc)], capsys)
    assert code == 4
    assert "unsupported" in report["error"]["message"]


# one malformed pair document per structural diagnostic of `load_pair`,
# under tests/fixtures/malformed/, and the message each must exit with
MALFORMED_PAIRS = {
    "broken-jacobi": "Jacobi identity fails at basis triple (0, 1, 2)",
    "noninvariant-kappa": "kappa is not invariant at basis triple (0, 1, 2)",
    "not-sigma-adapted": (
        "basis vector 1 is not a sigma eigenvector; the basis must be sigma-adapted"
    ),
    "dependent-cartan": "Cartan basis is linearly dependent",
    "sigma-shape": "sigma matrix has the wrong shape",
    # a JSON float would read as its binary expansion, not as 1/10
    "float-kappa": "not a scalar: 0.1",
    # dim and the bracket indices are JSON integers: a float is refused, not truncated
    "float-dim": "pair definition dim must be an integer, not 3.0",
    "float-bracket-index": "bad bracket entry [0.5, 1, 2, '-2']",
    # the name keys the slice-point table and is echoed in every report
    "object-name": "pair definition name must be a string, not {}",
    # sl2-so2 with its Cartan vector scaled by 890: the root search would
    # take the divisors of 4 * 890^2, whose norm is just above the bound
    "root-search-bound": (
        "root search refused: the constant or leading coefficient has norm "
        "10038758560000 after clearing denominators, above 10000000000000"
    ),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_PAIRS))
def test_malformed_pair_file_corpus(name, capsys):
    path = Path(__file__).parent / "fixtures" / "malformed" / f"{name}.json"
    start = time.perf_counter()
    code = cli.main(["roots", "--pair-file", str(path)])
    elapsed = time.perf_counter() - start
    out, err = capsys.readouterr()
    assert code == 3 and elapsed < 1
    assert json.loads(out)["error"] == {"code": "input", "message": MALFORMED_PAIRS[name]}
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["long-int", "deep"])
def test_json_the_decoder_refuses_is_input_error(kind, capsys, tmp_path):
    # json.loads raises a plain ValueError, not a JSONDecodeError, for an
    # integer literal past the interpreter's digit limit, and a
    # RecursionError for arrays nested past the recursion limit
    if kind == "long-int":
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("no integer digit limit")
        value = "1" * (limit + 1)
    else:
        depth = sys.getrecursionlimit() + 100
        value = "[" * depth + "]" * depth
    doc = tmp_path / "undecodable.json"
    doc.write_text(f'{{"dim": {value}}}')
    for argv in (
        ["roots", "--pair-file", str(doc)],
        ["decompose", "--pair", "sl2-so2", "--field", f"[{value}]"],
    ):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert code == 3, argv[0]
        assert "not valid JSON" in json.loads(out)["error"]["message"]
        assert err == ""


def test_malformed_inputs_are_input_errors(capsys, tmp_path):
    for argv in (
        ["lift", "--pair", "sl2-so2", "--derivation", "not json"],
        ["lift", "--pair", "sl2-so2", "--derivation", '{"a": 1}'],
        ["lift", "--pair", "sl2-so2", "--derivation", '["x0^"]'],
        ["lift", "--pair", "sl2-so2", "--derivation", '["x0", "x0"]'],
        ["lift", "--pair", "sl2-so2", "--derivation", '["x1"]'],
        ["decompose", "--pair", "sl2-so2", "--field", "[[1]]"],
        ["slice", "--pair", "sl2-so2", "--point", '["1", "2"]'],
        ["slice", "--pair", "sl2-so2", "--point", '["q"]'],
    ):
        code, report = run_json(argv, capsys)
        assert code == 3, argv
        assert "error" in report, argv
    missing = tmp_path / "absent.json"
    code, report = run_json(["phi", "--pair-file", str(missing)], capsys)
    assert code == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, report = run_json(["phi", "--pair-file", str(bad)], capsys)
    assert code == 3
    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]")
    code, report = run_json(["phi", "--pair-file", str(not_object)], capsys)
    assert code == 3
    assert "object" in report["error"]["message"]
    null_dim = tmp_path / "null_dim.json"
    null_dim.write_text(json.dumps(dict(SL2_DOC, dim=None)))
    code, report = run_json(["phi", "--pair-file", str(null_dim)], capsys)
    assert code == 3
    assert "dim" in report["error"]["message"]
    for field, value, word in (
        ("dim", 0, "dim"),
        ("dim", "3", "dim must be an integer, not '3'"),
        # a bool is a Python int, but not a JSON integer
        ("dim", True, "dim must be an integer, not True"),
        # refused before the dim^3 structure constants are allocated
        ("dim", MAX_PAIR_DIM + 1, "exceeds the bound"),
        # a JSON string only: a list or object is unhashable, a number echoes
        ("name", [1], "name must be a string, not [1]"),
        ("name", 7, "name must be a string, not 7"),
        ("brackets", None, "brackets"),
        ("brackets", [5], "bracket entry"),
        ("brackets", [[None, 1, 2, "1"]], "bracket entry"),
        ("brackets", [["0", 1, 2, "-2"]], "bad bracket entry"),
        ("brackets", [[0, True, 2, "-2"]], "bad bracket entry"),
        ("sigma", None, "sigma"),
        ("sigma", [[None, 0, 0], [0, -1, 0], [0, 0, -1]], "not a scalar"),
        ("kappa", 3, "kappa"),
        ("cartan", 3, "cartan"),
        # ad(e1 + i e2) is nilpotent: maximal abelian, but not semisimple
        ("cartan", [["0", "1", "i"]], "semisimple"),
    ):
        doc = tmp_path / f"bad_{field}.json"
        doc.write_text(json.dumps(dict(SL2_DOC, **{field: value})))
        code, report = run_json(["phi", "--pair-file", str(doc)], capsys)
        assert code == 3, (field, value)
        assert word in report["error"]["message"], (field, value)


@pytest.mark.parametrize(
    "argv",
    [
        ["slice", "--pair", "sl2-so2", "--point", '["1/0"]'],
        ["decompose", "--pair", "sl2-so2", "--field", '["(1/0)*x0"]'],
    ],
)
def test_zero_denominator_is_input_error(argv, capsys):
    code, report = run_json(argv, capsys)
    assert code == 3
    assert "zero denominator" in report["error"]["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--pair", "sl2-so2", "--field", "[true]"],
        ["slice", "--pair", "sl2-so2", "--point", "[true]"],
        ["lift", "--pair", "sl2-so2", "--derivation", "[true]"],
    ],
    ids=["field", "point", "derivation"],
)
def test_json_booleans_are_input_errors(argv, capsys):
    code, report = run_json(argv, capsys)
    assert code == 3
    what = argv[3][2:]
    assert report["error"]["message"] == f"{what} entries must be strings or integers"


def test_output_is_byte_identical_across_runs(capsys):
    _, first = run(["verify", "--pair", "sl2-so2", "--seed", "5"], capsys)
    _, second = run(["verify", "--pair", "sl2-so2", "--seed", "5"], capsys)
    assert first == second
    _, third = run(["phi", "--pair", "sl3-so21"], capsys)
    _, fourth = run(["phi", "--pair", "sl3-so21"], capsys)
    assert third == fourth


def test_pretty_output_parses_to_same_object(capsys):
    _, compact = run(["generators", "--pair", "sl2-so2"], capsys)
    _, pretty = run(["generators", "--pair", "sl2-so2", "--pretty"], capsys)
    assert pretty != compact
    assert "\n" in pretty.strip()
    assert json.loads(pretty) == json.loads(compact)


def test_report_echoes_command_and_inputs(capsys):
    _, report = run_json(
        ["lift", "--pair", "sl2-so2", "--derivation", '["x0^2"]', "--seed", "7"],
        capsys,
    )
    assert report["command"] == "lift"
    assert report["inputs"]["pair"] == "sl2-so2"
    assert report["inputs"]["seed"] == 7
    assert report["inputs"]["derivation"] == ["x0^2"]


def _child_env():
    # the imported symcart first, then the inherited entries made absolute
    package_root = Path(symcart.__file__).resolve().parent.parent
    inherited = [
        str(Path(entry).resolve())
        for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep)
        if entry
    ]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(package_root)] + inherited)
    return env


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "symcart.cli", "catalog"],
        capture_output=True,
        text=True,
        cwd=str(tmp_path),
        env=_child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    parsed = json.loads(proc.stdout)
    assert [e["name"] for e in parsed["results"]["pairs"]] == CATALOG_NAMES


def test_closed_stdout_ends_with_a_message(tmp_path):
    # the reader closes the pipe before the child writes its report
    proc = subprocess.Popen(
        [sys.executable, "-m", "symcart.cli", "roots", "--pair", "sl2-so2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=str(tmp_path),
        env=_child_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == cli.EXIT_CLOSED_STDOUT
    assert err == "symcart: stdout was closed before the report was written\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--pair", "sl2-so2", "--field", '["x0^33"]'],
        ["decompose", "--pair", "sl2-so2", "--field", '["x0^3201"]'],
        ["lift", "--pair", "sl2-so2", "--derivation", '["x0^20*x0^14"]'],
    ],
)
def test_input_degree_bound(argv, capsys, monkeypatch):
    def unreachable(*args):
        raise AssertionError("ran algebra on an over-degree input")

    for name in ("solomon_decompose", "InvariantDerivation", "lift_derivation"):
        monkeypatch.setattr(cli, name, unreachable)
    code, report = run_json(argv, capsys)
    assert code == 3
    assert "above the bound 32" in report["error"]["message"]


# Each mutant breaks one library certification; the source runs with
# `setattr` bound to monkeypatch.setattr in process and to the builtin
# in a child process.
MUTANTS = {
    # a 1x1 matrix satisfies M B_1 = c_1 by construction: skew the polynomial
    # products of size 2 and up, here those of sl3-so21's 2x2 Jacobian
    "adjugate_identity": (
        ["phi", "--pair", "sl3-so21"],
        "import symcart.linalg as m\n"
        "mat_mul = m.mat_mul\n"
        "def skewed(A, B):\n"
        "    P = mat_mul(A, B)\n"
        "    if len(P) > 1 and isinstance(P[0][0], m.MultiPoly):\n"
        "        P[0][1] = P[0][1] + 1\n"
        "    return P\n"
        "setattr(m, 'mat_mul', skewed)",
        {"row": 0, "column": 0, "entry": "(6)*x0^2*x1 + (2/3)*x1^3"},
    ),
    "gram_identity": (
        ["phi", "--pair", "sl2-so2"],
        "import symcart.invariants as m\n"
        "setattr(m, 'poly_divides', lambda f, p: None)",
        {"gram_det": "(2)*x0^2", "phi": "(-4)*x0^2"},
    ),
    "jacobian_nonzero": (
        ["generators", "--pair", "sl2-so2"],
        "import symcart.invariants as m\n"
        "setattr(m, 'mat_det', lambda M: M[0][0] * 0)",
        {"jacobian_det": "(0)"},
    ),
    "root_bookkeeping": (
        ["roots", "--pair", "sl2-so2"],
        "import symcart.rootsys as m\n"
        "joint = m._joint_eigenspaces\n"
        "def over(*args):\n"
        "    roots, zero_dim = joint(*args)\n"
        "    return roots, zero_dim + 1\n"
        "setattr(m, '_joint_eigenspaces', over)",
        {"dim_g": 3, "zero_dim": 2, "centralizer_dim": 1, "multiplicity_sum": 2},
    ),
}


def _check_failure_report(code, report, name, witness):
    assert code == 2
    assert report["results"] is None
    assert report["checks"] == [{"name": name, "passed": False, "witness": witness}]


def _check_mutant(argv, source, name, witness, capsys, monkeypatch):
    exec(source, {"setattr": monkeypatch.setattr})
    code, report = run_json(argv, capsys)
    _check_failure_report(code, report, name, witness)
    assert report["command"] == argv[0]
    assert report["inputs"]["pair"] == argv[2]

    # under -O, where an assert would have been stripped
    program = f"{source}\nfrom symcart.cli import main\nraise SystemExit(main({argv!r}))"
    proc = subprocess.run(
        [sys.executable, "-O", "-c", program],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    _check_failure_report(proc.returncode, json.loads(proc.stdout), name, witness)


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_certification_failure_is_reported(name, capsys, monkeypatch):
    argv, source, witness = MUTANTS[name]
    _check_mutant(argv, source, name, witness, capsys, monkeypatch)


def test_non_invariant_phi_fails_the_gram_identity(capsys, monkeypatch):
    # phi's invariance follows from the certified root permutation, so a
    # phi that is not the root product (here times x0) has no check of
    # its own: the Gram determinant is no constant multiple of it
    source = (
        "import symcart.invariants as m\n"
        "phi_from_roots = m.phi_from_roots\n"
        "def tilted(system):\n"
        "    phi = phi_from_roots(system)\n"
        "    return phi * m.MultiPoly.variable(phi.num_vars, 0)\n"
        "setattr(m, 'phi_from_roots', tilted)"
    )
    witness = {"gram_det": "(2)*x0^2", "phi": "(-4)*x0^3"}
    argv = ["phi", "--pair", "sl2-so2"]
    _check_mutant(argv, source, "gram_identity", witness, capsys, monkeypatch)


@pytest.mark.parametrize(
    "argv, witness",
    [
        (
            ["decompose", "--pair", "sl3-so21", "--field", '["x0","x1"]'],
            {"index": 0, "difference": "(2)*x0^2 + (-2/3)*x1^2"},
        ),
        (
            ["lift", "--pair", "sl2-so2", "--derivation", '["x0^2"]'],
            {"index": 0, "difference": "(1)*x0^2"},
        ),
    ],
    ids=["decompose", "lift"],
)
def test_wrong_exact_quotient_fails_the_reconstruction(
    argv, witness, capsys, monkeypatch
):
    # doubling psi_0 inside `_cramer` keeps every division exact, so only
    # its one A^T R = images check can see that the quotient is wrong
    source = (
        "import sys\n"
        "import symcart.vecfields as m\n"
        "mat_vec = m.mat_vec\n"
        "def doubled(M, v):\n"
        "    out = mat_vec(M, v)\n"
        "    if sys._getframe(1).f_code.co_name == '_cramer':\n"
        "        out[0] = out[0] * 2\n"
        "    return out\n"
        "setattr(m, 'mat_vec', doubled)"
    )
    _check_mutant(argv, source, "reconstruction_exact", witness, capsys, monkeypatch)


def _certification_sites():
    """{check name: ["file:line"]} of every `raise CertificationError`
    in the package; no check may be an assert or a bare AssertionError
    or RuntimeError."""
    sites = {}
    for path in sorted(Path(symcart.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            assert not isinstance(node, ast.Assert), where
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            kind = getattr(exc, "id", None)
            assert kind not in ("AssertionError", "RuntimeError"), where
            if kind == "CertificationError":
                name = node.exc.args[0]
                assert isinstance(name, ast.Constant), where
                sites.setdefault(name.value, []).append(where)
    return sites


def test_every_certification_has_one_raise_site():
    sites = _certification_sites()
    assert {n: w for n, w in sites.items() if len(w) != 1} == {}
    # every check the CLI renders as certified has its library site
    assert {
        "root_bookkeeping",
        "weyl_permutes_roots",
        "degrees_product",
        "jacobian_nonzero",
        "gram_identity",
        "gram_constant_nonzero",
        "reconstruction_exact",
        "factorization_exact",
        "local_value_nonzero",
        "transition_det_nonzero",
    } <= set(sites)
    # A adj(A) = det(A) I is certified by every determinant, from the last
    # product of its recurrence; the CLI does not render it as a check of
    # its own
    assert sites["adjugate_identity"][0].startswith("linalg.py:")
    # every chart, global or local, certifies its Jacobian where it is built
    assert sites["jacobian_nonzero"][0].startswith("invariants.py:")
    # the one reconstruction certificate of the chart calculus, in _cramer
    assert sites["reconstruction_exact"][0].startswith("vecfields.py:")


# checks the CLI renders as certified under a name other than that of the
# raise site certifying them; structure_valid is the ValueErrors that
# SymmetricPair raises on a bad structure
CERTIFIED_ALIASES = {
    "solomon_roundtrip": "reconstruction_exact",
    "slice_factorization": "factorization_exact",
    "transition_invertible": "transition_det_nonzero",
    "transition_reconstructs": "reconstruction_exact",
    "transition_entries_invariant": "reconstruction_exact",
    "structure_valid": None,
}


def test_every_certified_check_has_a_raise_site():
    certified = []
    for node in ast.walk(ast.parse(Path(cli.__file__).read_text())):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_certified":
            assert all(isinstance(a, ast.Constant) for a in node.args), node.lineno
            certified.extend(a.value for a in node.args)
    assert set(CERTIFIED_ALIASES) <= set(certified)
    sites = _certification_sites()
    for name in certified:
        target = CERTIFIED_ALIASES.get(name, name)
        assert target is None or target in sites, name

    liesym_path = Path(symcart.__file__).parent / "liesym.py"
    tree = ast.parse(liesym_path.read_text())
    pair_class = next(
        n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "SymmetricPair"
    )
    raised = [
        getattr(getattr(n.exc, "func", None), "id", None)
        for n in ast.walk(pair_class)
        if isinstance(n, ast.Raise) and n.exc is not None
    ]
    assert "ValueError" in raised


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["verify", "--seed", "x"], "--seed"),
        (["frobnicate"], "frobnicate"),
        (["verify", "--frob"], "--frob"),
        ([], "command"),
    ],
)
def test_argument_errors_are_input_errors(argv, fragment, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_INPUT
    assert captured.err == ""
    error = json.loads(captured.out)["error"]
    assert error["code"] == "input"
    assert fragment in error["message"]
