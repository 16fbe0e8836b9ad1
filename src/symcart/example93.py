"""End-to-end verification of the sl(3)/so(2,1) pair from explicit matrices.

All matrix constants below are hard-coded witnesses; every check recomputes
the claimed property from the structural definitions instead of trusting
the transcription.
"""

import functools
import random

from .exactalg import (
    GaussianRational,
    joint_eigenspaces,
    kernel_basis,
    mat_det,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_transpose,
    mat_vec,
)
from .invariants import build_chart
from .liesym import (
    SL3_SO21_H,
    SL3_SO21_Q,
    _commutator,
    _flat,
    _is_zero_vec,
    _mat,
    _trace_prod,
    catalog_pair,
)

Qi = GaussianRational
_I = Qi(0, 1)

I21 = _mat([[1, 0, 0], [0, 1, 0], [0, 0, -1]])

# +1 and -1 eigenvectors of the involution A -> -I21 (transpose A) I21,
# the matrices the catalog builds sl3-so21 from; q has parameters
# (a, b, c, d, e)
H_BASIS = [_mat(h) for h in SL3_SO21_H]
Q_BASIS = [_mat(q) for q in SL3_SO21_Q]

# the Cartan subspace, parameters (x, y)
A_BASIS = [
    _mat([[1, 0, 0], [0, -2, 0], [0, 0, 1]]),
    _mat([[0, 0, 1], [0, 0, 0], [-1, 0, 0]]),
]

MC_WITNESSES = [
    _mat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]),
    _mat([[-1, 0, 0], [0, 1, 0], [0, 0, -1]]),
    [[Qi(0), Qi(0), _I], [Qi(0), Qi(-1), Qi(0)], [-_I, Qi(0), Qi(0)]],
    [[Qi(0), Qi(0), -_I], [Qi(0), Qi(-1), Qi(0)], [_I, Qi(0), Qi(0)]],
]

# fixed space of the real centralizer inside q, parameters (x, y, z)
QM_SHAPE = "{{x,0,y},{0,z,0},{-y,0,-(x+z)}}"

V_MATRIX = _mat([[1, 0, 0], [0, 0, 0], [0, 0, -1]])


def _sigma(a):
    out = mat_mul(I21, mat_mul(mat_transpose(a), I21))
    return [[-x for x in row] for row in out]


def _check_dimensions():
    ident = mat_identity(3)
    for h in H_BASIS:
        if _sigma(h) != h or not _trace_prod(h, ident).is_zero():
            return False, "claimed h vector is not a fixed traceless matrix"
    for q in Q_BASIS:
        neg = [[-x for x in row] for row in q]
        if _sigma(q) != neg or not _trace_prod(q, ident).is_zero():
            return False, "claimed q vector is not an anti-fixed traceless matrix"
    flats = [_flat(m) for m in H_BASIS + Q_BASIS]
    if mat_rank(flats) != len(flats):
        return False, "eigenvector lists are dependent"
    return True, "dim h = 3, dim q = 5, together all of the traceless matrices"


def _centralizer_in_q(coords):
    # the point sum coords_k A_k, then the kernel of v -> [point, v] over
    # the q coordinates
    flat = mat_vec(mat_transpose([_flat(a) for a in A_BASIS]), coords)
    point = [flat[i : i + 3] for i in (0, 3, 6)]
    columns = [_flat(_commutator(point, q)) for q in Q_BASIS]
    return kernel_basis(mat_transpose(columns))


def _check_cartan():
    if not _is_zero_vec(_flat(_commutator(A_BASIS[0], A_BASIS[1]))):
        return False, "a is not abelian"
    # commuting matrices with joint eigenspaces filling C^3 are
    # simultaneously diagonalisable, so every element of a is semisimple
    if joint_eigenspaces(A_BASIS)[1] is not None:
        return False, "a contains a non-semisimple element"
    kern = _centralizer_in_q([Qi(1), Qi(2)])
    if len(kern) != 2:
        return False, "centralizer of a regular point has dimension %d" % len(kern)
    a_coords = [
        [Qi(1), Qi(0), Qi(0), Qi(-2), Qi(0)],
        [Qi(0), Qi(0), Qi(1), Qi(0), Qi(0)],
    ]
    # kern is a basis: the rank grows iff some coordinate row leaves its span
    if mat_rank(kern + a_coords) != len(kern):
        return False, "centralizer of a regular point differs from a"
    return True, "a is abelian, semisimple, and self-centralizing at a(1, 2)"


def _check_witnesses(metric):
    for idx, g in enumerate(MC_WITNESSES):
        ginv = mat_inverse(g)
        fixed = mat_mul(metric, mat_mul(mat_transpose(ginv), metric))
        if fixed != g:
            return False, "witness %d is not a fixed point of the involution" % idx
        if mat_det(g) != Qi(1):
            return False, "witness %d has determinant != 1" % idx
        for a in A_BASIS:
            if mat_mul(g, mat_mul(a, ginv)) != a:
                return False, "witness %d does not centralize a" % idx
    return True, "all 4 witnesses are unimodular fixed points centralizing a"


def _check_fixed_space():
    m2 = MC_WITNESSES[1]
    m2inv = mat_inverse(m2)
    # kernel of v -> m2 v m2^{-1} - v over the q coordinates
    columns = []
    for q in Q_BASIS:
        moved = mat_mul(m2, mat_mul(q, m2inv))
        columns.append([a - b for a, b in zip(_flat(moved), _flat(q))])
    kern = kernel_basis(mat_transpose(columns))
    if len(kern) != 3:
        return False, "fixed space has dimension %d" % len(kern)
    qm_coords = [
        [Qi(1), Qi(0), Qi(0), Qi(0), Qi(0)],
        [Qi(0), Qi(0), Qi(1), Qi(0), Qi(0)],
        [Qi(0), Qi(0), Qi(0), Qi(1), Qi(0)],
    ]
    if mat_rank(kern + qm_coords) != len(kern):
        return False, "fixed space differs from the printed shape"
    return True, "3-dimensional, shape " + QM_SHAPE


def _check_orthogonality(v):
    for a in A_BASIS:
        val = _trace_prod(v, a)
        if not val.is_zero():
            return False, "trace pairing with a is %r" % val
    return True, "v is trace-orthogonal to a"


# deterministic (a fixed pair and seed), so one chart build serves every run
@functools.cache
def _check_gradient_rank():
    chart = build_chart(catalog_pair("sl3-so21"))
    rng = random.Random(0)
    tested = 0
    while tested < 5:
        pt = [Qi(rng.randint(-6, 6)), Qi(rng.randint(-6, 6))]
        if chart.phi.evaluate(pt).is_zero():
            continue
        rows = [g.evaluate(pt) for g in chart.gradients]
        if mat_rank(rows) != 2:
            return False, "gradient rank < 2 at a regular point %r" % (pt,)
        tested += 1
    return True, "gradients of (p1, p2) have rank 2 at 5 regular points"


def _verify(witness_metric, v_matrix):
    steps = [
        ("dimensions", _check_dimensions),
        ("cartan_subspace", _check_cartan),
        ("centralizer_witnesses", lambda: _check_witnesses(witness_metric)),
        ("fixed_centralizer_space", _check_fixed_space),
        ("orthogonality", lambda: _check_orthogonality(v_matrix)),
        ("gradient_rank", _check_gradient_rank),
    ]
    checks = []
    for name, fn in steps:
        passed, detail = fn()
        checks.append({"name": name, "passed": passed, "detail": detail})
    return {"checks": checks, "all_passed": all(c["passed"] for c in checks)}


def verify_example93():
    """Run the six exact checks and return the structured report."""
    return _verify(I21, V_MATRIX)


def control_flipped_involution():
    """Negative control: a sign-flipped metric in the fixed-point equation
    must break the witness check."""
    return _verify(_mat([[1, 0, 0], [0, -1, 0], [0, 0, 1]]), V_MATRIX)


def control_offaxis_v():
    """Negative control: a fixed-space element with a y-component is not
    orthogonal to a."""
    vbad = _mat([[1, 0, 1], [0, 0, 0], [-1, 0, -1]])
    return _verify(I21, vbad)
