"""Command-line front end.

Every subcommand prints exactly one JSON document on stdout: a run
report carrying the echoed inputs, the structured results, and a list
of named checks. A failing check always comes with a machine-readable
witness. Exit codes: 0 when every requested check passed, 2 when one
failed, 3 for bad input, 4 when the pair's a-spectrum leaves the
Gaussian rationals, 5 when stdout was closed before the report was
written (a one-line message goes to stderr instead of a traceback).

Identities of the library's own results are certified where they are
computed, and a failure raises `CertificationError`; the report then
holds that one failed check and no results. The checks that sample
user-level claims (derivations, lifts, jets, the worked example) run
here.

Output is deterministic for a fixed seed and input, byte for byte:
polynomials and scalars are rendered through their canonical string
forms and dictionaries are built in a fixed order.
"""

import argparse
import json
import os
import random
import sys

from .exactalg import (
    CertificationError,
    GaussianRational as Qi,
    MultiPoly,
    _normal,
    _pack,
    parse_scalar,
    render_matrix,
    render_scalar,
    render_vector,
)
from .liesym import catalog, catalog_pair, load_pair
from .rootsys import SpectrumError, restricted_roots, weyl_group
from .invariants import build_chart, gradient, local_chart, reynolds
from .example93 import (
    control_flipped_involution,
    control_offaxis_v,
    verify_example93,
)
from .vecfields import (
    InvariantDerivation,
    NotLiftable,
    PolyVectorField,
    default_truncation,
    ideal_stable,
    induce_derivation,
    jet_invert,
    jet_mul,
    jet_of,
    jet_unit,
    jet_gradient_action,
    lift_derivation,
    reynolds_field,
    solomon_decompose,
    transition_matrix,
)

EXIT_OK = 0
EXIT_CHECK = 2
EXIT_INPUT = 3
EXIT_SPECTRUM = 4
EXIT_CLOSED_STDOUT = 5

# highest total degree accepted in a --field or --derivation polynomial.
# The sampled batteries use degree 8 at most; on sl3-so21 a Solomon
# decomposition takes about 10 s at degree 33 and over a minute at 65.
MAX_INPUT_DEGREE = 32

# sample sizes for the verify batteries; the whole-catalog run covers
# every pair at these counts
_VERIFY_SAMPLES = {
    "fields": 50,
    "field_degree": 8,
    "derivations": 25,
    "derivation_degree": 4,
    "jets": 25,
    "jet_actions": 15,
}

# origin, a regular point and (rank 2 with a non-trivial wall) one
# subregular point per catalog pair
_SLICE_POINTS = {
    "sl2-so2": [[0], [1]],
    "sl2-diagonal": [[0], [1]],
    "abelian2": [[0, 0], [1, 1]],
    "sl3-so21": [[0, 0], [1, 1], [1, 0]],
}


class InputError(Exception):
    """Bad command line or bad user-supplied data; maps to exit 3."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


def _guard(fn, *args, **kwargs):
    """Turn ValueErrors raised on user input into InputErrors, keeping
    the spectrum failure distinct."""
    try:
        return fn(*args, **kwargs)
    except SpectrumError:
        raise
    except ValueError as e:
        raise InputError(str(e)) from None


# ---------------------------------------------------------------- rendering

def _certified(*names):
    """Checks the library certified while computing the results."""
    return [(name, True, None) for name in names]


def _report(command, inputs, results, checks):
    rendered = [
        {"name": name, "passed": bool(ok), "witness": witness}
        for name, ok, witness in checks
    ]
    failed = any(not c["passed"] for c in rendered)
    doc = {
        "command": command,
        "inputs": inputs,
        "results": results,
        "checks": rendered,
    }
    return doc, failed


def _emit(payload, pretty, code):
    """Print the document and return the exit code, or
    EXIT_CLOSED_STDOUT when the reader has closed stdout."""
    if pretty:
        text = json.dumps(payload, indent=2)
    else:
        text = json.dumps(payload, separators=(",", ":"))
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # stdout now points at devnull, so the flush at interpreter exit
        # has nowhere to fail
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("symcart: stdout was closed before the report was written",
              file=sys.stderr)
        return EXIT_CLOSED_STDOUT
    return code


# ------------------------------------------------------------------- inputs

def _pair_from_args(args):
    if args.pair and args.pair_file:
        raise InputError("pass either --pair or --pair-file, not both")
    if args.pair:
        return _guard(catalog_pair, args.pair)
    if args.pair_file:
        try:
            with open(args.pair_file) as fh:
                text = fh.read()
        except OSError as e:
            raise InputError(f"cannot read pair file: {e}") from None
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as e:  # bad syntax, a long int, deep nesting
            raise InputError(f"pair file is not valid JSON: {e}") from None
        if not isinstance(doc, dict):
            raise InputError("pair file must hold a JSON object")
        return _guard(load_pair, doc)
    raise InputError("a pair is required: pass --pair NAME or --pair-file PATH")


def _parse_json_array(raw, what, expected_len):
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as e:  # bad syntax, a long int, deep nesting
        raise InputError(f"{what} is not valid JSON: {e}") from None
    if not isinstance(data, list):
        raise InputError(f"{what} must be a JSON array")
    if len(data) != expected_len:
        raise InputError(
            f"{what} must have {expected_len} entries, got {len(data)}"
        )
    for entry in data:
        # a JSON string or integer only: true and false are Python ints too
        if type(entry) not in (str, int):
            raise InputError(f"{what} entries must be strings or integers")
    return data


def _parse_poly_array(raw, what, expected_len, num_vars):
    data = _parse_json_array(raw, what, expected_len)
    polys = [_guard(MultiPoly.parse, str(entry), num_vars) for entry in data]
    for p in polys:
        if p.degree() > MAX_INPUT_DEGREE:
            raise InputError(
                f"{what} polynomial has degree {p.degree()}, "
                f"above the bound {MAX_INPUT_DEGREE}"
            )
    return data, polys


def _parse_point(raw, rank):
    data = _parse_json_array(raw, "point", rank)
    return data, [_guard(parse_scalar, str(entry)) for entry in data]


# ----------------------------------------------------------------- sampling

def _random_poly(rng, nvars, max_deg):
    """One to six terms (a + b i) x^e, drawn straight into the integer
    store; a repeated exponent keeps its last draw."""
    acc = {}
    for _ in range(rng.randint(1, 6)):
        e = [0] * nvars
        for _ in range(rng.randint(0, max_deg)):
            e[rng.randrange(nvars)] += 1
        acc[_pack(e)] = [rng.randint(-4, 4), rng.randint(-2, 2)]
    return _normal(nvars, 1, acc)


def _random_invariant_field(rng, weyl, max_deg):
    comps = [_random_poly(rng, weyl.dim, max_deg) for _ in range(weyl.dim)]
    return reynolds_field(weyl, PolyVectorField(comps))


def _regular_point(chart):
    """The first point (k, k^2, ...) with phi nonzero for k < 40, else the
    origin."""
    n = chart.weyl.dim
    for k in range(1, 40):
        cand = [Qi(k ** (j + 1)) for j in range(n)]
        if not chart.phi.evaluate(cand).is_zero():
            return cand
    return [Qi(0)] * n


def _slice_points(chart, name):
    table = _SLICE_POINTS.get(name)
    n = chart.weyl.dim
    if table is not None and all(len(p) == n for p in table):
        return [[Qi(v) for v in pt] for pt in table]
    origin, regular = [Qi(0)] * n, _regular_point(chart)
    return [origin] if regular == origin else [origin, regular]


# ------------------------------------------------------------------- checks

def _slice(chart, point):
    """Local chart and transition matrix at one base point."""
    loc = _guard(local_chart, chart, point)
    m, det = transition_matrix(chart, loc)
    return loc, m, det


def _jet_checks(chart, rng, samples, action_samples):
    n = chart.weyl.dim
    K, Kinv = chart.kappa_on_a, chart.weyl.kappa_inverse
    base = _regular_point(chart)
    N = default_truncation(chart)
    checks = []

    hom_ok, hom_wit = True, None
    inv_ok, inv_wit = True, None
    for k in range(samples):
        f = _random_poly(rng, n, 4)
        g = _random_poly(rng, n, 4)
        J = jet_of(f, base, N)
        if jet_of(f * g, base, N) != jet_mul(J, jet_of(g, base, N)):
            hom_ok, hom_wit = False, {"sample": k, "f": f.render(), "g": g.render()}
            break
        if f.evaluate(base).is_zero():
            try:
                jet_invert(J)
            except ValueError:
                pass
            else:
                inv_ok, inv_wit = False, {"sample": k, "f": f.render()}
                break
        else:
            if jet_mul(J, jet_invert(J)) != jet_unit(base, N, n):
                inv_ok, inv_wit = False, {"sample": k, "f": f.render()}
                break
    checks.append(("jet_homomorphism", hom_ok, hom_wit))
    checks.append(("jet_inverse", inv_ok, inv_wit))

    act_ok, act_wit = True, None
    for k in range(action_samples):
        f = _random_poly(rng, n, 4)
        d = rng.randint(1, 3)
        hom = {
            e: c for e, c in _random_poly(rng, n, d).terms.items() if sum(e) == d
        }
        if not hom:
            hom = {(d,) + (0,) * (n - 1): Qi(1)}
        R = MultiPoly(n, hom).shift([-x for x in base])
        out = jet_gradient_action(R, jet_of(f, base, N), K, Kinv)
        direct = gradient(R, K, Kinv).apply_to(f)
        if out != jet_of(direct, base, out.truncation_order):
            act_ok, act_wit = False, {"sample": k, "f": f.render(), "R": R.render()}
            break
    checks.append(("jet_gradient_action", act_ok, act_wit))
    return checks


def _pair_battery(pair, args):
    """All per-pair verification checks, sampled deterministically from
    the `--seed` in `args`."""
    S = _VERIFY_SAMPLES
    rng = random.Random(f"{args.seed}:{pair.name}")
    chart = _guard(build_chart, pair)
    weyl = chart.weyl
    n = weyl.dim
    # SymmetricPair certified the structure; restricted_roots, weyl_group,
    # invariant_generators and the Gram identity certify the rest while
    # the chart is built
    checks = _certified(
        "structure_valid",
        "root_bookkeeping",
        "weyl_permutes_roots",
        "degrees_product",
        "gram_identity",
    )

    # each decomposition certifies that its coefficients rebuild the field
    for _ in range(S["fields"]):
        X = _random_invariant_field(rng, weyl, S["field_degree"])
        solomon_decompose(X, chart)
    checks += _certified("solomon_roundtrip")

    stab_ok, stab_wit = True, None
    lift_ok, lift_wit = True, None
    for k in range(S["derivations"]):
        phis = [
            reynolds(weyl, _random_poly(rng, n, S["derivation_degree"]))
            for _ in range(chart.rank)
        ]
        D = induce_derivation(phis, chart)
        stable, _ = ideal_stable(D, chart)
        if not stable:
            stab_ok, stab_wit = False, {"sample": k}
            break
        lifted = lift_derivation(D, chart)
        if isinstance(lifted, NotLiftable) or lifted != phis:
            lift_ok, lift_wit = False, {"sample": k}
            break
    checks.append(("derivations_stable", stab_ok, stab_wit))
    checks.append(("derivations_lift", lift_ok, lift_wit))

    # the constant derivation need not be stable; the two sides must agree
    images = [MultiPoly.one(n)] + [MultiPoly.zero(n)] * (chart.rank - 1)
    D = InvariantDerivation(images, weyl)
    stable, _ = ideal_stable(D, chart)
    lifted = lift_derivation(D, chart)
    liftable = not isinstance(lifted, NotLiftable)
    agree = stable == liftable
    checks.append(
        (
            "stability_matches_liftability",
            agree,
            None if agree else {"stable": stable, "liftable": liftable},
        )
    )

    for pt in _slice_points(chart, pair.name):
        _slice(chart, pt)
    checks += _certified("slice_factorization", "transition_invertible")

    checks.extend(_jet_checks(chart, rng, S["jets"], S["jet_actions"]))

    results = {
        "pair": pair.name,
        "phi": chart.phi.render(),
        "gram_constant": render_scalar(chart.gram_constant),
        "degrees": list(chart.degrees),
        "weyl_order": weyl.order,
        "root_count": len(chart.system.roots),
    }
    return results, checks


def _example93_checks(rep, prefix=""):
    return [
        (
            prefix + c["name"],
            c["passed"],
            None if c["passed"] else {"detail": c["detail"]},
        )
        for c in rep["checks"]
    ]


# ------------------------------------------------------------- subcommands

def _cmd_catalog(args, inputs):
    entries = []
    for p in catalog():
        entries.append(
            {
                "name": p.name,
                "dim": p.algebra.dim,
                "h_dim": len(p.h_basis),
                "q_dim": len(p.q_basis),
                "rank": p.cartan.rank if p.cartan else 0,
            }
        )
    return _report("catalog", inputs, {"pairs": entries}, [])


def _cmd_roots(args, inputs):
    pair = _pair_from_args(args)
    system = _guard(restricted_roots, pair)
    results = {
        "pair": pair.name,
        "rank": system.rank,
        "zero_dim": system.zero_dim,
        "dim_g": pair.algebra.dim,
        "roots": [
            {
                "functional": render_vector(r.functional),
                "multiplicity": r.multiplicity,
                "is_reduced": r.is_reduced,
            }
            for r in system.roots
        ],
    }
    return _report("roots", inputs, results, _certified("root_bookkeeping"))


def _cmd_weyl(args, inputs):
    pair = _pair_from_args(args)
    system = _guard(restricted_roots, pair)
    W = _guard(weyl_group, system, pair.kappa_on_cartan())
    results = {
        "pair": pair.name,
        "order": W.order,
        "generators": [render_matrix(g) for g in W.generators],
        "elements": [render_matrix(g) for g in W.elements],
    }
    return _report("weyl", inputs, results, _certified("weyl_permutes_roots"))


def _cmd_generators(args, inputs):
    pair = _pair_from_args(args)
    chart = _guard(build_chart, pair)
    results = {
        "pair": pair.name,
        "generators": [p.render() for p in chart.generators],
        "degrees": list(chart.degrees),
        "weyl_order": chart.weyl.order,
    }
    checks = _certified("degrees_product", "jacobian_nonzero")
    return _report("generators", inputs, results, checks)


def _cmd_phi(args, inputs):
    pair = _pair_from_args(args)
    chart = _guard(build_chart, pair)
    results = {
        "pair": pair.name,
        "phi": chart.phi.render(),
        "gram_constant": render_scalar(chart.gram_constant),
        "gram_det": chart.gram_det.render(),
        "gram_matrix": [[e.render() for e in row] for row in chart.gram_matrix],
        "degrees": list(chart.degrees),
    }
    checks = _certified("gram_identity", "gram_constant_nonzero")
    return _report("phi", inputs, results, checks)


def _cmd_decompose(args, inputs):
    if args.field is None:
        raise InputError("decompose requires --field")
    pair = _pair_from_args(args)
    chart = _guard(build_chart, pair)
    n = chart.weyl.dim
    inputs["field"], polys = _parse_poly_array(args.field, "field", n, n)
    coeffs = _guard(solomon_decompose, PolyVectorField(polys), chart)
    results = {"pair": pair.name, "coefficients": [c.render() for c in coeffs]}
    return _report("decompose", inputs, results, _certified("reconstruction_exact"))


def _cmd_lift(args, inputs):
    if args.derivation is None:
        raise InputError("lift requires --derivation")
    pair = _pair_from_args(args)
    chart = _guard(build_chart, pair)
    n = chart.weyl.dim
    inputs["derivation"], images = _parse_poly_array(
        args.derivation, "derivation", chart.rank, n
    )
    D = _guard(InvariantDerivation, images, chart.weyl)
    stable, info = ideal_stable(D, chart)
    lifted = lift_derivation(D, chart)
    liftable = not isinstance(lifted, NotLiftable)
    results = {
        "pair": pair.name,
        "stable": stable,
        "liftable": liftable,
        "coefficients": [c.render() for c in lifted] if liftable else None,
    }
    checks = [
        (
            "ideal_stable",
            stable,
            None if stable else {"remainder": info.render()},
        ),
        (
            "liftable",
            liftable,
            None
            if liftable
            else {
                "index": lifted.index,
                "psi": lifted.psi.render(),
                "remainder": lifted.remainder.render(),
            },
        ),
        (
            "stability_matches_liftability",
            stable == liftable,
            None if stable == liftable else {"stable": stable, "liftable": liftable},
        ),
    ]
    return _report("lift", inputs, results, checks)


def _cmd_slice(args, inputs):
    if args.point is None:
        raise InputError("slice requires --point")
    pair = _pair_from_args(args)
    chart = _guard(build_chart, pair)
    inputs["point"], point = _parse_point(args.point, chart.weyl.dim)
    loc, m, det = _slice(chart, point)
    results = {
        "pair": pair.name,
        "point": render_vector(point),
        "psi": loc.psi.render(),
        "phi_local": loc.phi.render(),
        "psi_at_point": render_scalar(loc.psi.evaluate(point)),
        "local_generators": [p.render() for p in loc.generators],
        "degrees": list(loc.degrees),
        "local_weyl_order": loc.weyl.order,
        "transition": [[e.render() for e in row] for row in m],
        "transition_det_at_point": render_scalar(det.evaluate(point)),
    }
    # local_chart certifies the first two, transition_matrix the rest
    checks = _certified(
        "factorization_exact",
        "local_value_nonzero",
        "transition_entries_invariant",
        "transition_reconstructs",
        "transition_det_nonzero",
    )
    return _report("slice", inputs, results, checks)


def _cmd_verify(args, inputs):
    if args.example93:
        inputs["example93"] = True
        rep = verify_example93()
        results = {"all_passed": rep["all_passed"]}
        return _report("verify", inputs, results, _example93_checks(rep))
    if args.pair or args.pair_file:
        pair = _pair_from_args(args)
        results, checks = _pair_battery(pair, args)
        return _report("verify", inputs, results, checks)

    # no pair: every catalog entry plus the worked example and its controls
    checks = []
    summaries = {}
    for pair in catalog():
        try:
            res, pair_checks = _pair_battery(pair, args)
        except CertificationError as e:
            e.name = f"{pair.name}:{e.name}"
            raise
        checks.extend(
            (f"{pair.name}:{name}", ok, wit) for name, ok, wit in pair_checks
        )
        summaries[pair.name] = res
    rep = verify_example93()
    checks.extend(_example93_checks(rep, "example93:"))
    for label, control, target in (
        ("control_flipped_involution", control_flipped_involution, "centralizer_witnesses"),
        ("control_offaxis_v", control_offaxis_v, "orthogonality"),
    ):
        out = control()
        failed = [c["name"] for c in out["checks"] if not c["passed"]]
        ok = failed == [target]
        checks.append(
            (
                f"example93:{label}_fails_as_designed",
                ok,
                None if ok else {"failed_checks": failed},
            )
        )
    results = {
        "pairs": summaries,
        "example93": {"all_passed": rep["all_passed"]},
    }
    return _report("verify", inputs, results, checks)


_HANDLERS = {
    "catalog": _cmd_catalog,
    "roots": _cmd_roots,
    "weyl": _cmd_weyl,
    "generators": _cmd_generators,
    "phi": _cmd_phi,
    "decompose": _cmd_decompose,
    "lift": _cmd_lift,
    "slice": _cmd_slice,
    "verify": _cmd_verify,
}


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--pair", help="catalog pair name")
    common.add_argument("--pair-file", dest="pair_file", help="pair definition JSON file")
    common.add_argument("--seed", type=int, default=0, help="sampling seed")
    common.add_argument("--pretty", action="store_true", help="indent the JSON output")

    parser = _Parser(prog="symcart", description="invariant charts of symmetric pairs")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    sub.add_parser("catalog", parents=[common])
    sub.add_parser("roots", parents=[common])
    sub.add_parser("weyl", parents=[common])
    sub.add_parser("generators", parents=[common])
    sub.add_parser("phi", parents=[common])
    p = sub.add_parser("decompose", parents=[common])
    p.add_argument("--field", help="JSON array of component polynomials")
    p = sub.add_parser("lift", parents=[common])
    p.add_argument("--derivation", help="JSON array of generator images")
    p = sub.add_parser("slice", parents=[common])
    p.add_argument("--point", help="JSON array of base point coordinates")
    p = sub.add_parser("verify", parents=[common])
    p.add_argument("--example93", action="store_true", help="run the worked example checks")
    return parser


def main(argv=None):
    raw = list(sys.argv[1:] if argv is None else argv)
    pretty = "--pretty" in raw
    parser = _build_parser()
    try:
        args = parser.parse_args(raw)
        # handlers add the echo of each input they parse
        inputs = {"pair": args.pair, "pair_file": args.pair_file, "seed": args.seed}
        report, failed = _HANDLERS[args.command](args, inputs)
    except InputError as e:
        return _emit({"error": {"code": "input", "message": str(e)}}, pretty, EXIT_INPUT)
    except SpectrumError as e:
        error = {"code": "unsupported-spectrum", "message": str(e)}
        return _emit({"error": error}, pretty, EXIT_SPECTRUM)
    except CertificationError as e:
        failing = [(e.name, False, e.witness)]
        report, failed = _report(args.command, inputs, None, failing)
    return _emit(report, args.pretty, EXIT_CHECK if failed else EXIT_OK)


if __name__ == "__main__":
    raise SystemExit(main())
