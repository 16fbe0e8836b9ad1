"""Write the benchmark's fixtures and reference outputs.

    python3 perfbench/record.py

Run from the root of a source checkout of the commit whose outputs are
taken as correct. It writes:

- `fixtures/<pair>.json`: definition documents for the four catalog
  pairs (Killing form, except `abelian2`, whose Killing form is zero) and
  for the rank-3 direct sum `sl2-so2-cubed` (three copies of sl2-so2:
  dim 9, |W| = 8, degrees [2, 2, 2]);
- `reference/battery.json`: per `verify` target, the check names and the
  `results` section, asserted equal for two `--seed` values;
- `reference/construct.json`: per document, the chart summary, asserted
  equal for two `build_chart` seeds;
- `reference/queries.json`: the pool of command lines the `queries`
  workload draws from, each with its exact stdout and exit code. Every
  entry must pass all its checks; the malformed entries must exit 3.
"""

import contextlib
import io
import json
import subprocess
import sys
import time

import run

SLICE_POINTS = {
    "sl2-so2": [["0"], ["1"]],
    "sl2-diagonal": [["0"], ["1"]],
    "abelian2": [["0", "0"], ["1", "1"]],
    "sl3-so21": [["0", "0"], ["1", "1"], ["1", "0"]],
}
# a field with three components fits no catalog pair (all have rank 1
# or 2); the report comes after the catalog build and the pair's chart,
# so each malformed call costs about what the pair's other calls cost
MALFORMED_FIELD = '["x0", "x0", "x0"]'
PAIR_FILE_DOCS = ["sl2-so2", "sl2-diagonal", "abelian2"]


def _dump(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def pair_document(pair, with_kappa):
    rs = run.mod("exactalg").render_scalar
    alg = pair.algebra
    n = alg.dim
    doc = {
        "name": pair.name,
        "dim": n,
        "brackets": [
            [i, j, k, rs(alg.c[i][j][k])]
            for i in range(n) for j in range(i + 1, n) for k in range(n)
            if not alg.c[i][j][k].is_zero()
        ],
        "sigma": [[rs(x) for x in row] for row in pair.sigma],
        "cartan": [[rs(x) for x in v] for v in pair.cartan.basis],
    }
    if with_kappa:
        doc["kappa"] = [[rs(x) for x in row] for row in pair.kappa]
    return doc


def direct_sum(doc, copies, name):
    d = doc["dim"]
    n = d * copies
    sigma = [["0"] * n for _ in range(n)]
    cartan = []
    brackets = []
    for a in range(copies):
        off = a * d
        brackets += [[i + off, j + off, k + off, c] for i, j, k, c in doc["brackets"]]
        for i in range(d):
            for j in range(d):
                sigma[i + off][j + off] = doc["sigma"][i][j]
        for v in doc["cartan"]:
            row = ["0"] * n
            row[off:off + d] = v
            cartan.append(row)
    return {"name": name, "dim": n, "brackets": brackets, "sigma": sigma, "cartan": cartan}


def write_fixtures():
    liesym = run.mod("liesym")
    docs = {p.name: pair_document(p, p.name == "abelian2") for p in liesym.catalog()}
    docs["sl2-so2-cubed"] = direct_sum(docs["sl2-so2"], 3, "sl2-so2-cubed")
    run.FIXTURES.mkdir(exist_ok=True)
    for name, doc in docs.items():
        _dump(run.FIXTURES / f"{name}.json", doc)


def verify_report(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run.mod("cli").main(argv)
    doc = json.loads(buf.getvalue())
    if code != 0 or not all(c["passed"] for c in doc["checks"]):
        raise SystemExit(f"reference run failed: {argv}")
    return {"checks": [c["name"] for c in doc["checks"]], "results": doc["results"]}


def record_battery():
    ref = {}
    for target in run.CATALOG_PAIRS + ["example93"]:
        base = ["verify", "--example93"] if target == "example93" else ["verify", "--pair", target]
        a = verify_report(base + ["--seed", "0"])
        b = verify_report(base + ["--seed", "1"])
        if a != b:
            raise SystemExit(f"verify {target}: results depend on the seed")
        ref[target] = a
        print(f"battery {target}: ok", flush=True)
    _dump(run.REFERENCE / "battery.json", ref)


def record_construct():
    liesym, invariants = run.mod("liesym"), run.mod("invariants")
    ref = {}
    for name in run.CONSTRUCT_DOCS:
        doc = run._load_json(run.FIXTURES / f"{name}.json")
        summaries = [
            run.chart_summary(invariants.build_chart(liesym.load_pair(doc), seed=s))
            for s in (0, 1)
        ]
        if summaries[0] != summaries[1]:
            raise SystemExit(f"construct {name}: chart depends on the seed")
        ref[name] = summaries[0]
        print(f"construct {name}: {summaries[0]['degrees']}", flush=True)
    _dump(run.REFERENCE / "construct.json", ref)


def query_pool():
    liesym, invariants = run.mod("liesym"), run.mod("invariants")
    vecfields = run.mod("vecfields")
    pool = [("catalog", None, ["catalog", "--seed", str(s)]) for s in (0, 1)]
    for kind in ("roots", "weyl", "generators", "phi"):
        for p in run.CATALOG_PAIRS:
            for s in (0,) if p in run.HEAVY_TAILED else (0, 1):
                pool.append((kind, p, [kind, "--pair", p, "--seed", str(s)]))
    for p in run.CATALOG_PAIRS:
        pool.append(("malformed", p, ["decompose", "--pair", p, "--field", MALFORMED_FIELD]))
        chart = invariants.build_chart(liesym.catalog_pair(p))
        one = chart.generators[0] ** 0
        for coeffs in ([one] + [one * 0] * (chart.rank - 1),
                       [chart.generators[-1]] + [one] * (chart.rank - 1)):
            field = vecfields.field_from_coefficients(coeffs, chart)
            pool.append(("decompose", p, ["decompose", "--pair", p, "--field",
                                       json.dumps([c.render() for c in field.components])]))
            images = vecfields.induce_derivation(coeffs, chart).images
            pool.append(("lift", p, ["lift", "--pair", p, "--derivation",
                                  json.dumps([c.render() for c in images])]))
        for pt in SLICE_POINTS[p]:
            pool.append(("slice", p, ["slice", "--pair", p, "--point", json.dumps(pt)]))
    for p in PAIR_FILE_DOCS:
        for kind in ("roots", "phi"):
            pool.append(("pair_file", None, [kind, "--pair-file", f"../fixtures/{p}.json"]))
    return pool


def record_queries():
    run.WORK.mkdir(exist_ok=True)
    entries = []
    for kind, pair, argv in query_pool():
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-m", "symcart.cli"] + argv,
                              cwd=run.WORK, env=run.child_env(), capture_output=True)
        dt = time.perf_counter() - t0
        expected = 3 if kind == "malformed" else 0
        if proc.returncode != expected:
            raise SystemExit(f"{argv}: exit {proc.returncode}, expected {expected}\n"
                             + proc.stdout.decode() + proc.stderr.decode())
        entries.append({"kind": kind, "pair": pair, "argv": argv, "returncode": proc.returncode,
                        "stdout": proc.stdout.decode("utf-8")})
        print(f"queries {dt:6.2f}s {' '.join(argv)[:100]}", flush=True)
    _dump(run.REFERENCE / "queries.json", entries)


def main():
    sys.path.insert(0, str(run.SRC))
    run.fresh_import()
    run.REFERENCE.mkdir(exist_ok=True)
    write_fixtures()
    record_construct()
    record_battery()
    record_queries()


if __name__ == "__main__":
    main()
