"""Exact arithmetic substrate, one import for the whole of it: Gaussian
rationals, multivariate polynomials over them, and linear algebra over
both. Everything downstream computes in Q(i), with no floating point
anywhere. The substrate lives in three modules, and this one re-exports
the names its callers use:

- `scalars`: `GaussianRational` (alias `Qi`) on canonical int triples,
  `_qi`, `QI_ZERO`, `QI_ONE`, `CertificationError`, the renderers and
  `exact_order`.
- `polynomials`: `MultiPoly` on its packed integer store, the
  accumulation kernel `linear_combination` and its scalar twin `_dot`,
  `poly_divides`, and the one text reader (`MultiPoly.parse`,
  `parse_scalar`).
- `linalg`: `mat_mul`, `mat_vec`, `det_adjugate`, `mat_det`, `LinearSpan`
  and every solve, kernel, inverse and rank; then the spectra:
  `matrix_min_poly`, `gaussian_rational_roots` and `joint_eigenspaces`.
"""

from .linalg import (
    MAX_ROOT_SEARCH_NORM,
    LinearSolution,
    LinearSpan,
    SpectrumError,
    _gaussian_int_divisors,
    _rref,
    det_adjugate,
    gaussian_rational_roots,
    joint_eigenspaces,
    kernel_basis,
    mat_det,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_transpose,
    mat_vec,
    matrix_min_poly,
    solve_exact,
)
from .polynomials import (
    EXPONENT_BOUND,
    FIELD_BITS,
    MultiPoly,
    _dot,
    _normal,
    _order,
    _pack,
    _unpack,
    linear_combination,
    parse_scalar,
    poly_divides,
)
from .scalars import (
    QI_ONE,
    QI_ZERO,
    CertificationError,
    GaussianRational,
    Qi,
    _qi,
    exact_order,
    render_matrix,
    render_scalar,
    render_vector,
)
