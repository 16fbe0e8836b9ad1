"""symcart benchmark: three workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload {battery,queries,construct}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from
`src/` there. One client drives the program in a closed loop: each
operation starts when the previous one has returned, and a workload that
spawns child processes runs one at a time.

A run prepares the workload (timed as `setup_s`, the median of several
preparations), then runs whole passes of the workload's fixed operation
list, starting another pass only while it is expected to end within
`--seconds`; there is always at least one. Every operation's output is
checked against the references recorded by `record.py`.

Operation times are in reference seconds (see probe.py): raw seconds
scaled by the speed the CPU showed while the operation ran, because the
host's speed swings far more than the changes the benchmark must see.
`setup_s` is raw seconds.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs one untraced
pass and then a traced preparation and pass, and prints the per-layer
metrics of the traced part (see tracer.py) plus `trace.overhead_frac`,
the traced pass time over the untraced one.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the line before it records the run
(commit, Python, nproc, load average, seed and sample counts). The run
exits with code 2 and no result when the program is missing or when
Python runs with -O, which strips the library's assert-based checks.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from probe import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = HERE / "fixtures"
REFERENCE = HERE / "reference"
# cwd of the child processes: inside the checkout but not its root, so a
# relative `src` on PYTHONPATH would not resolve there
WORK = HERE / ".work"

CATALOG_PAIRS = ["sl2-so2", "sl3-so21", "abelian2", "sl2-diagonal"]
CONSTRUCT_DOCS = CATALOG_PAIRS + ["sl2-so2-cubed"]
# One pass of each in-process workload. The target in the middle of the
# latency order runs three times, so that op_p50_s is the least of three
# 2-second calls: single sub-second calls swing by a quarter with the
# host's speed.
BATTERY_PASS = ["sl2-so2", "sl3-so21", "abelian2", "abelian2", "abelian2",
                "sl2-diagonal", "example93"]
CONSTRUCT_PASS = ["sl2-so2", "sl3-so21", "sl3-so21", "sl3-so21", "abelian2",
                  "sl2-diagonal", "sl2-so2-cubed"]
QUERY_KINDS = [
    "catalog", "roots", "weyl", "generators", "phi",
    "decompose", "lift", "slice", "pair_file", "malformed",
]
# what sl3-so21 costs depends on the program's own sampling seed with a
# heavy tail (verify: 11-26 s over ten seeds; build_chart: 0.2-4 s and
# more, through the generic point's minimal polynomial), which one sample
# per run cannot average; its operations keep the default seed 0
HEAVY_TAILED = {"sl3-so21"}
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
CHILD_NICE = 5


class BenchError(Exception):
    """The benchmark cannot measure this checkout."""


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def fresh_import():
    """Import symcart.cli as a new process would, dropping any loaded copy.

    Returns the seconds the import took."""
    for name in [k for k in sys.modules if k == "symcart" or k.startswith("symcart.")]:
        del sys.modules[name]
    t0 = time.perf_counter()
    importlib.import_module("symcart.cli")
    return time.perf_counter() - t0


def mod(name):
    return sys.modules[f"symcart.{name}"]


def _lower_priority():
    # children share the parent's CPU; at a lower priority they cannot
    # hold off the parent's speed probe, which then times the CPU, not
    # the child (outside the probe's few ms the parent sleeps)
    os.nice(CHILD_NICE)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def chart_summary(chart):
    """The seed-independent content of a chart, as canonical strings."""
    render_scalar = mod("exactalg").render_scalar
    return {
        "degrees": list(chart.degrees),
        "weyl_order": chart.weyl.order,
        "root_count": len(chart.system.roots),
        "generators": [p.render() for p in chart.generators],
        "phi": chart.phi.render(),
        "gram_constant": render_scalar(chart.gram_constant),
    }


# ------------------------------------------------------------------ battery

class Battery:
    """`verify` per catalog pair plus `verify --example93`, in process."""

    in_process = True

    def __init__(self, seed):
        self.ref = _load_json(REFERENCE / "battery.json")
        rng = random.Random(f"battery:{seed}")
        self.inputs = [(t, 0 if t in HEAVY_TAILED else rng.randrange(1_000_000))
                       for t in BATTERY_PASS]
        rng.shuffle(self.inputs)

    def prepare(self):
        # the catalog is what every battery call needs first
        mod("liesym").catalog()

    def ops(self):
        return [(f"verify:{t}:{s}", self._op(t, s)) for t, s in self.inputs]

    def _op(self, target, seed):
        if target == "example93":
            argv = ["verify", "--example93", "--seed", str(seed)]
            inputs = {"pair": None, "pair_file": None, "seed": seed, "example93": True}
        else:
            argv = ["verify", "--pair", target, "--seed", str(seed)]
            inputs = {"pair": target, "pair_file": None, "seed": seed}
        ref = self.ref[target]

        def run():
            buf = io.StringIO()
            cli = mod("cli")
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = cli.main(argv)
            t1 = time.perf_counter()
            doc = json.loads(buf.getvalue())
            checks = doc.get("checks", [])
            problems = []
            if code != 0:
                problems.append(f"exit {code}")
            problems += [f"check {c['name']} failed" for c in checks if not c["passed"]]
            if [c["name"] for c in checks] != ref["checks"]:
                problems.append("check names differ from the reference")
            if doc.get("results") != ref["results"]:
                problems.append("results differ from the reference")
            if doc.get("inputs") != inputs:
                problems.append("inputs echo differs")
            return t0, t1, problems

        return run


# ---------------------------------------------------------------- construct

class Construct:
    """`load_pair` then `build_chart` on definition documents, in process."""

    in_process = True

    def __init__(self, seed):
        self.ref = _load_json(REFERENCE / "construct.json")
        rng = random.Random(f"construct:{seed}")
        self.inputs = [(n, 0 if n in HEAVY_TAILED else rng.randrange(1_000_000))
                       for n in CONSTRUCT_PASS]
        rng.shuffle(self.inputs)
        self.docs = {}

    def prepare(self):
        self.docs = {n: _load_json(FIXTURES / f"{n}.json") for n in CONSTRUCT_DOCS}

    def ops(self):
        return [(f"construct:{n}:{s}", self._op(n, s)) for n, s in self.inputs]

    def _op(self, name, seed):
        ref = self.ref[name]

        def run():
            doc = self.docs[name]
            liesym, invariants = mod("liesym"), mod("invariants")
            t0 = time.perf_counter()
            pair = liesym.load_pair(doc)
            chart = invariants.build_chart(pair, seed=seed)
            t1 = time.perf_counter()
            ok = chart_summary(chart) == ref
            return t0, t1, [] if ok else ["chart differs from the reference"]

        return run


# ------------------------------------------------------------------ queries

class Queries:
    """One fresh `python -m symcart.cli` process per operation."""

    in_process = False

    def __init__(self, seed):
        pool = _load_json(REFERENCE / "queries.json")
        rng = random.Random(f"queries:{seed}")
        # the eight kinds that take a pair get each catalog pair twice, so
        # the cost of a pass does not hinge on how often sl3-so21 is drawn
        pairs = CATALOG_PAIRS * 2
        rng.shuffle(pairs)
        self.entries = []
        for kind in QUERY_KINDS:
            pair = pairs.pop() if kind not in ("catalog", "pair_file") else None
            self.entries.append(rng.choice(
                [e for e in pool if e["kind"] == kind and e["pair"] == pair]))
        rng.shuffle(self.entries)
        self.tracer_stats = None  # set to a list to trace the children

    def prepare(self):
        # start one interpreter with the children's environment, so that a
        # broken environment fails here and the import is warm
        WORK.mkdir(exist_ok=True)
        proc = subprocess.run(
            [sys.executable, "-c", "import symcart.cli"],
            cwd=WORK, env=child_env(), capture_output=True, timeout=CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise BenchError("symcart.cli does not import in a child: "
                             + proc.stderr.decode(errors="replace").strip())

    def ops(self):
        return [(" ".join(e["argv"]), self._op(e)) for e in self.entries]

    def _op(self, entry):
        def run():
            traced = self.tracer_stats is not None
            if traced:
                fd, stats_path = tempfile.mkstemp(suffix=".json", dir=WORK)
                os.close(fd)
                cmd = [sys.executable, str(HERE / "child.py"), stats_path,
                       repr(time.time())] + entry["argv"]
            else:
                cmd = [sys.executable, "-m", "symcart.cli"] + entry["argv"]
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(cmd, cwd=WORK, env=child_env(),
                                      capture_output=True, timeout=CHILD_TIMEOUT_S,
                                      preexec_fn=_lower_priority)
            except subprocess.TimeoutExpired:
                return t0, time.perf_counter(), ["timed out"]
            t1 = time.perf_counter()
            if traced:
                try:
                    self.tracer_stats.append(_load_json(stats_path))
                except (OSError, ValueError):
                    pass
                os.unlink(stats_path)
            problems = []
            if proc.returncode != entry["returncode"]:
                problems.append(f"exit {proc.returncode}, expected {entry['returncode']}")
            if proc.stdout.decode("utf-8", errors="replace") != entry["stdout"]:
                problems.append("stdout differs from the reference")
            if entry["returncode"] == 0:
                try:
                    checks = json.loads(proc.stdout).get("checks", [])
                except ValueError:
                    checks = [{"name": "stdout is JSON", "passed": False}]
                problems += [f"check {c['name']} failed" for c in checks if not c["passed"]]
            return t0, t1, problems

        return run


WORKLOADS = {"battery": Battery, "queries": Queries, "construct": Construct}


# ------------------------------------------------------------------ running

def run_pass(ops):
    """One pass over (label, op) pairs, where `op()` returns its start and
    end `perf_counter` stamps and the problems its output check found.

    Returns the per-op raw and reference seconds, the failures and the
    probe trace."""
    stamps, failures = [], []
    with SpeedProbe() as probe:
        for label, op in ops:
            t0, t1, problems = op()
            stamps.append((t0, t1))
            if problems:
                failures.append({"op": label, "problems": problems})
    raw = [t1 - t0 for t0, t1 in stamps]
    ref = [probe.ref_seconds(t0, t1) for t0, t1 in stamps]
    return raw, ref, failures, probe_trace(probe, stamps)


def probe_trace(probe, stamps):
    """The probes and op intervals of a pass, relative to its first probe,
    so a run's reference seconds can be recomputed from its `run` line."""
    base = probe.stamps[0]
    return {"probe_at_s": [t - base for t in probe.stamps], "probe_s": probe.costs,
            "ops_at_s": [[t0 - base, t1 - base] for t0, t1 in stamps]}


def run_passes(ops, seconds):
    """Whole passes while the next one is expected to end in time."""
    start = time.perf_counter()
    passes = []
    while True:
        passes.append(run_pass(ops))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            return passes


def tail(latencies):
    """The highest percentile with at least ten samples beyond it.

    With fewer than eleven samples no percentile has ten beyond it, and
    the maximum (percentile 100) is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def peak_rss_mb(with_children):
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if with_children:
        kib = max(kib, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def commit():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "symcart").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def spec():
    return _load_json(ROOT / "BENCHMARK.json")


def measure(workload, seconds):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        if workload.in_process:
            fresh_import()
        workload.prepare()
        setups.append(time.perf_counter() - t0)
    ops = workload.ops()
    passes = run_passes(ops, seconds)
    raw = [x for p in passes for x in p[0]]
    ref = [x for p in passes for x in p[1]]
    failures = [f for p in passes for f in p[2]]
    p_tail, pct = tail(ref)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(sum(p[1]) for p in passes),
        "op_p50_s": statistics.median(ref),
        "op_tail_s": p_tail,
        "peak_rss_mb": peak_rss_mb(not workload.in_process),
        "ok_frac": 1.0 - len(failures) / len(ref),
    }
    info = {"passes": len(passes), "op_samples": len(ref),
            "op_tail_percentile": pct, "setup_s": setups,
            "op_labels": [label for label, _ in ops], "op_raw_s": raw, "op_ref_s": ref,
            "raw_wall_s": [sum(p[0]) for p in passes],
            "probes": [p[3] for p in passes]}
    return metrics, len(ref), failures, info


def measure_traced(workload):
    from tracer import Tracer, merge

    if workload.in_process:
        fresh_import()
    workload.prepare()
    ops = workload.ops()
    _, untraced, failures, _ = run_pass(ops)

    tracer = Tracer()
    totals = {}
    if workload.in_process:
        import_s = fresh_import()
        tracer.install()
        try:
            workload.prepare()
            _, traced, fail, _ = run_pass(ops)
        finally:
            tracer.uninstall()
        merge(totals, tracer.metrics())
        totals["cli.import_s"] = import_s
    else:
        workload.tracer_stats = []
        _, traced, fail, _ = run_pass(ops)
        imports = [s.pop("cli.import_s") for s in workload.tracer_stats]
        for stats in workload.tracer_stats:
            merge(totals, stats)
        totals["cli.import_s"] = statistics.median(imports) if imports else 0.0
    totals["trace.overhead_frac"] = sum(traced) / sum(untraced)
    failures += fail

    rr = totals.get("rootsys.restricted_roots.calls", 0)
    totals["rootsys.restricted_roots.attempts"] = (
        totals.get("rootsys.restricted_roots.attempts", 0) / rr if rr else 0.0
    )
    metrics = {e["name"]: totals.get(e["name"], 0) for e in spec()["per_layer"]}
    info = {"untraced_pass_ref_s": sum(untraced), "traced_pass_ref_s": sum(traced)}
    return metrics, len(untraced) + len(traced), failures, info


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if sys.flags.optimize:
        raise BenchError("refusing to run under python -O / PYTHONOPTIMIZE: "
                         "it strips the library's assert-based certifications")
    if not (SRC / "symcart" / "cli.py").is_file():
        raise BenchError(f"no symcart sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    # one CPU for the benchmark and its children, so that the speed probe
    # samples the CPU that runs the operation
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    load_start = os.getloadavg()
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        metrics, attempted, failures, info = measure_traced(workload)
    else:
        metrics, attempted, failures, info = measure(workload, args.seconds)

    units = {m["name"]: m["unit"] for m in spec()["end_to_end"] + spec()["per_layer"]}
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "loadavg_start": load_start,
        "loadavg_end": os.getloadavg(),
        **info,
        "failures": failures,
    }
    print(json.dumps({"run": record}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
