"""In-memory layer tracing by wrapping the public functions of symcart.

The program itself carries no instrumentation. `Tracer.install` replaces
each traced function or method, wherever the loaded symcart modules bind
it, by a wrapper that counts the call and records a span; `uninstall`
puts the originals back. Spans are aggregated as they close:

- `.s` is inclusive time, counted only for the outermost span of a name,
  so recursion and grouped names are not counted twice;
- `.self_s` is the span minus the time of the spans it caused;
- `.calls` counts every call.

Scalar arithmetic (`Qi.mul`, `Qi.add`) is counted but not timed: it runs
millions of times and a span there would measure mostly the tracer.
"""

import sys
import time

_PKG = "symcart"

# (module, attribute path, metric prefix); several attributes may share a
# prefix, and then one span name covers them all
SPANS = [
    ("exactalg", "MultiPoly.compose_linear", "exactalg.MultiPoly.compose_linear"),
    ("exactalg", "MultiPoly.__mul__", "exactalg.MultiPoly.mul"),
    ("exactalg", "MultiPoly.divmod_by", "exactalg.MultiPoly.divmod_by"),
    ("exactalg", "mat_inverse", "exactalg.mat_inverse"),
    ("exactalg", "solve_exact", "exactalg.solve_exact"),
    ("exactalg", "mat_det", "exactalg.mat_det"),
    ("exactalg", "det_adjugate", "exactalg.det_adjugate"),
    ("exactalg", "matrix_min_poly", "exactalg.matrix_min_poly"),
    ("exactalg", "gaussian_rational_roots", "exactalg.gaussian_rational_roots"),
    ("liesym", "SymmetricPair.__init__", "liesym.SymmetricPair"),
    ("liesym", "load_pair", "liesym.load_pair"),
    ("liesym", "centralizer_in_q", "liesym.centralizer_in_q"),
    ("liesym", "catalog", "liesym.catalog"),
    ("rootsys", "restricted_roots", "rootsys.restricted_roots"),
    ("rootsys", "weyl_group", "rootsys.weyl_group"),
    ("rootsys", "local_subsystem", "rootsys.local_subsystem"),
    ("invariants", "reynolds", "invariants.reynolds"),
    ("invariants", "invariant_generators", "invariants.invariant_generators"),
    ("invariants", "build_chart", "invariants.build_chart"),
    ("invariants", "local_chart", "invariants.local_chart"),
    ("vecfields", "solomon_decompose", "vecfields.solomon_decompose"),
    ("vecfields", "is_invariant_field", "vecfields.is_invariant_field"),
    ("vecfields", "lift_derivation", "vecfields.lift_derivation"),
    ("vecfields", "ideal_stable", "vecfields.ideal_stable"),
    ("vecfields", "induce_derivation", "vecfields.induce_derivation"),
    ("vecfields", "transition_matrix", "vecfields.transition_matrix"),
    ("vecfields", "jet_of", "vecfields.jets"),
    ("vecfields", "jet_unit", "vecfields.jets"),
    ("vecfields", "jet_mul", "vecfields.jets"),
    ("vecfields", "jet_invert", "vecfields.jets"),
    ("vecfields", "jet_gradient_action", "vecfields.jets"),
    ("example93", "verify_example93", "example93.verify_example93"),
    ("cli", "main", "cli.main"),
]

COUNTS = [
    ("exactalg", "GaussianRational.__mul__", "exactalg.Qi.mul"),
    ("exactalg", "GaussianRational.__rmul__", "exactalg.Qi.mul"),
    ("exactalg", "GaussianRational.__add__", "exactalg.Qi.add"),
    ("exactalg", "GaussianRational.__radd__", "exactalg.Qi.add"),
]


def _cells(st, args):
    A = args[0]
    st["cells"] += len(A) * (len(A[0]) if A else 0)


def _max_n(st, args):
    st["max_n"] = max(st["max_n"], len(args[0]))


def _compositions(st, args):
    st["compositions"] += len(args[0].elements)


# per-call extras read from the arguments: (metric prefix, field, hook)
ARG_EXTRAS = {
    "exactalg.solve_exact": ("cells", _cells),
    "exactalg.mat_det": ("max_n", _max_n),
    "invariants.reynolds": ("compositions", _compositions),
}


class Tracer:
    """Counters and aggregated spans for one traced run."""

    def __init__(self):
        self.stats = {}
        self._stack = []  # open spans: [name, start, child time]
        self._depth = {}
        self._patched = []  # (owner, attribute, original)

    def _stat(self, name):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = {"calls": 0, "s": 0.0, "self_s": 0.0}
            extra = ARG_EXTRAS.get(name)
            if extra:
                st[extra[0]] = 0
            if name == "rootsys.restricted_roots":
                st["attempts"] = 0
            if name == "rootsys.weyl_group":
                st["elements"] = 0
        return st

    def _span_wrapper(self, name, fn):
        st = self._stat(name)
        extra = ARG_EXTRAS.get(name)
        hook = extra[1] if extra else None
        stack = self._stack
        depth = self._depth
        depth[name] = 0
        clock = time.perf_counter
        roots = self._stat("rootsys.restricted_roots")
        weyl = self._stat("rootsys.weyl_group")
        is_min_poly = name == "exactalg.matrix_min_poly"
        is_weyl = name == "rootsys.weyl_group"

        def traced(*args, **kwargs):
            st["calls"] += 1
            if hook is not None:
                hook(st, args)
            if is_min_poly and depth.get("rootsys.restricted_roots"):
                roots["attempts"] += 1
            frame = [0.0]
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                depth[name] -= 1
                st["self_s"] += dt - frame[0]
                if depth[name] == 0:
                    st["s"] += dt
                if stack:
                    stack[-1][0] += dt
            if is_weyl:
                weyl["elements"] += result.order
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name, fn):
        st = self._stat(name)

        def counted(*args):
            st["calls"] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    def install(self):
        """Wrap every traced callable in the loaded symcart modules."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        modules = [
            m for k, m in sys.modules.items()
            if m is not None and (k == _PKG or k.startswith(_PKG + "."))
        ]
        wrappers = {}
        for table, make in ((SPANS, self._span_wrapper), (COUNTS, self._count_wrapper)):
            for mod_name, path, name in table:
                mod = sys.modules[f"{_PKG}.{mod_name}"]
                owner = mod
                parts = path.split(".")
                for p in parts[:-1]:
                    owner = getattr(owner, p)
                attr = parts[-1]
                orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                if id(orig) not in wrappers:
                    wrappers[id(orig)] = (orig, make(name, orig))
                wrapped = wrappers[id(orig)][1]
                if isinstance(owner, type):
                    self._patched.append((owner, attr, orig))
                    setattr(owner, attr, wrapped)
        # module-level bindings: the defining module and every
        # `from .x import f` copy in the other modules
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                hit = wrappers.get(id(val))
                if hit is not None and hit[0] is val:
                    self._patched.append((mod, attr, val))
                    setattr(mod, attr, hit[1])

    def uninstall(self):
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched = []

    def metrics(self):
        """Flat metric dict: `<prefix>.<field>` for every recorded field."""
        out = {}
        for name in sorted(self.stats):
            for field, value in self.stats[name].items():
                out[f"{name}.{field}"] = value
        return out


def merge(totals, metrics):
    """Add one process's flat metrics into a running total."""
    for key, value in metrics.items():
        if key.endswith(".max_n"):
            totals[key] = max(totals.get(key, 0), value)
        else:
            totals[key] = totals.get(key, 0) + value
    return totals
