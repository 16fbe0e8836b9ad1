"""Operation times in reference seconds.

The host the benchmark was defined on is a 2-core virtual machine whose
CPU speed swings by 1.4x and at times over 3x within seconds (other
tenants on the same physical cores; no steal time shows, and CPU time
swings as much as wall time). No in-run averaging removes that from a
15-second operation, so the benchmark reports operation times in
reference seconds: the raw seconds times (REF_S / median probe time) **
EXPONENT, over the probes of a fixed piece of work sampled while the
operation ran.

The probe is a small slice of the program's kind of work, a cofactor
determinant and a sparse polynomial product over Q(i) on Fractions, in
code of the benchmark's own, so a change to the program does not move it.
Every INTERVAL_S a timer signal runs it twice on the main thread, between
the program's bytecodes, and keeps the second, warm-cache time: the first
run mostly measures how much of the probe's data the operation evicted.
For `queries` the parent is pinned to the CPU its child runs on, and the
signal preempts the child briefly.
"""

import bisect
import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.2
REF_S = 0.001
# The probe's time swings more with the host than the program's does: on
# 30 runs (three workloads, ten seeds) at the commit the benchmark was
# defined on, scaling by the full probe ratio over-corrected, and the
# ratio to the power 0.8 gave the least spread over seeds (0.7-0.9 were
# within a few points of it).
EXPONENT = 0.8


class _Qi:
    """A Gaussian rational on two Fractions, as the program's scalar is."""

    __slots__ = ("re", "im")

    def __init__(self, re, im):
        self.re, self.im = re, im

    def __add__(self, o):
        return _Qi(self.re + o.re, self.im + o.im)

    def __mul__(self, o):
        return _Qi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)


def _det(m):
    if len(m) == 1:
        return m[0][0]
    terms = [m[0][j] * _det([r[:j] + r[j + 1:] for r in m[1:]]) for j in range(len(m))]
    acc = terms[0]
    for t in terms[1:]:
        acc = acc + t
    return acc


def _poly_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = (e1[0] + e2[0], e1[1] + e2[1])
            out[e] = out[e] + c1 * c2 if e in out else c1 * c2
    return out


_MATRIX = [[_Qi(Fraction(i * j + 1, i + j + 2), Fraction(i - j, 3)) for j in range(4)]
           for i in range(4)]
_POLY = {(i, j): _Qi(Fraction(i + 1, j + 2), Fraction(1)) for i in range(3) for j in range(3 - i)}


def probe_work():
    """The fixed work whose duration measures the CPU's current speed."""
    _det(_MATRIX)
    return _poly_mul(_POLY, _POLY)


class SpeedProbe:
    """Samples the CPU's speed while a `with` block runs."""

    def __init__(self):
        self.stamps = []
        self.costs = []
        self._previous = None

    def _tick(self, signum, frame):
        probe_work()
        t0 = time.perf_counter()
        probe_work()
        t1 = time.perf_counter()
        self.stamps.append(t1)
        self.costs.append(t1 - t0)

    def __enter__(self):
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick(None, None)

    def ref_seconds(self, t0, t1):
        """Seconds from t0 to t1 at the speed where one probe takes REF_S:
        scaled by (REF_S / median probe) ** EXPONENT, over the probes
        taken during the interval, or the four nearest to its middle when
        it holds fewer than three."""
        lo = bisect.bisect_left(self.stamps, t0)
        hi = bisect.bisect_right(self.stamps, t1)
        if hi - lo < 3:
            mid = bisect.bisect_left(self.stamps, (t0 + t1) / 2)
            lo, hi = max(0, mid - 2), mid + 2
        return (t1 - t0) * (REF_S / statistics.median(self.costs[lo:hi])) ** EXPONENT
