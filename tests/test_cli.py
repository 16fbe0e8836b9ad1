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
import subprocess
import sys
from pathlib import Path

import pytest

import symcart
from symcart import cli, rootsys
from symcart.exactalg import CertificationError, GaussianRational as Qi, MultiPoly
from symcart.liesym import MAX_PAIR_DIM
from symcart.rootsys import RestrictedRoot, weyl_group

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
        weyl_group(roots, [[Qi(1)]])
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
        # refused before the dim^3 structure constants are allocated
        ("dim", MAX_PAIR_DIM + 1, "exceeds the bound"),
        ("brackets", None, "brackets"),
        ("brackets", [5], "bracket entry"),
        ("brackets", [[None, 1, 2, "1"]], "bracket entry"),
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
    "adjugate_identity": (
        ["phi", "--pair", "sl2-so2"],
        "import symcart.invariants as m\n"
        "det_adjugate = m.det_adjugate\n"
        "def scaled(M):\n"
        "    det, adj = det_adjugate(M)\n"
        "    return det, [[e * 2 for e in row] for row in adj]\n"
        "setattr(m, 'det_adjugate', scaled)",
        {"row": 0, "column": 0, "entry": "(4)*x0^2"},
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


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_certification_failure_is_reported(name, capsys, monkeypatch):
    argv, source, witness = MUTANTS[name]
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


def test_every_certification_has_one_raise_site():
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
        "transition_entries_invariant",
        "transition_det_nonzero",
    } <= set(sites)
    # adj(A) A = det(A) I is certified once per chart, where the Gram data
    # is built; the CLI does not render it as a check of its own
    assert sites["adjugate_identity"][0].startswith("invariants.py:")
    # every chart, global or local, certifies its Jacobian where it is built
    assert sites["jacobian_nonzero"][0].startswith("invariants.py:")
