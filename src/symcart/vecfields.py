"""Polynomial vector fields on a and the chart calculus built on them.

Covers the decomposition of invariant fields over the chart gradients,
ideal stability and Cramer lifting of derivations given by generator
images, the transition matrix between a global chart and a local one,
and a truncated graded jet algebra with the gradient action.
"""

from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    CertificationError,
    GaussianRational,
    MultiPoly,
    QI_ONE,
    linear_combination,
    mat_det,
    mat_transpose,
    mat_vec,
    render_vector,
)
from .invariants import gradient, is_invariant

Qi = GaussianRational


class PolyVectorField:
    """Derivation sum_i X_i d/dx_i with polynomial components."""

    def __init__(self, components):
        if not components:
            raise ValueError("a vector field needs at least one component")
        n = components[0].num_vars
        if len(components) != n:
            raise ValueError("component count must match the variable count")
        for c in components:
            if c.num_vars != n:
                raise ValueError("components disagree on the variable count")
        self.components = list(components)
        self.dim = n

    @staticmethod
    def zero(n):
        return PolyVectorField([MultiPoly.zero(n) for _ in range(n)])

    def is_zero(self):
        return all(c.is_zero() for c in self.components)

    def apply_to(self, f):
        """Directional derivative of f along the field."""
        return linear_combination(
            self.dim, [(c, f.partial(i)) for i, c in enumerate(self.components)]
        )

    def evaluate(self, point):
        return [c.evaluate(point) for c in self.components]

    def __add__(self, other):
        return PolyVectorField(
            [a + b for a, b in zip(self.components, other.components)]
        )

    def __sub__(self, other):
        return PolyVectorField(
            [a - b for a, b in zip(self.components, other.components)]
        )

    def __neg__(self):
        return PolyVectorField([-c for c in self.components])

    def __mul__(self, other):
        # scalar or polynomial factor, applied componentwise
        return PolyVectorField([c * other for c in self.components])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, PolyVectorField):
            return NotImplemented
        return self.components == other.components

    def __repr__(self):
        return "PolyVectorField(%r)" % (self.components,)


class InvariantDerivation:
    """Derivation of the invariant algebra, recorded by generator images
    and certified invariant under the group it is built for."""

    def __init__(self, images, weyl):
        self.images = list(images)
        if len(self.images) != weyl.dim:
            raise ValueError("one image per generator is required")
        for img in self.images:
            if img.num_vars != weyl.dim:
                raise ValueError("image variable count does not match the chart")
            if not is_invariant(img, weyl):
                raise ValueError("derivation image is not invariant")
        self.weyl = weyl


@dataclass
class NotLiftable:
    """Witness that the adjugate system has a non-divisible entry."""

    index: int
    psi: MultiPoly
    remainder: MultiPoly


def _push(weyl, i, X):
    # the components of w . X(w^{-1} x) for w = weyl.elements[i]
    j = weyl.inverse_index[i]
    moved = [weyl.act(j, c) for c in X.components]
    return [linear_combination(X.dim, zip(row, moved)) for row in weyl.elements[i]]


def is_invariant_field(X, weyl):
    """Exact check of w . X(w^{-1} x) = X(x) for every group element.

    Pushing forward is a group action, so the generators suffice, as in
    `invariants.is_invariant`.
    """
    return all(_push(weyl, i, X) == X.components for i in weyl.generator_index)


def reynolds_field(weyl, X):
    """Group average of the pushed-forward field, the exact projector
    onto invariant fields: component k is the one sum of
    (w_kl / |W|) X_l(w^{-1} x) over the elements w and the indices l."""
    scale = Qi(Fraction(1, weyl.order))
    moved = [
        [weyl.act(j, c) for c in X.components] for j in weyl.inverse_index
    ]
    return PolyVectorField(
        [
            linear_combination(
                X.dim,
                [
                    (w[k][l] * scale, ml)
                    for w, mw in zip(weyl.elements, moved)
                    for l, ml in enumerate(mw)
                    if w[k][l]
                ],
            )
            for k in range(X.dim)
        ]
    )


def _cramer(chart, images):
    """Coefficients R_i with X = sum R_i grad(p_i), from the images
    X(p_j), or NotLiftable at the first inexact division.

    X(p_j) = sum_i R_i A_ij for the Gram matrix A, and the chart
    certified adj(A) A = det(A) I with det(A) = c phi, so R_i is
    psi_i / phi for psi_i = sum_j adj_ji X(p_j) / c.
    """
    cinv = Qi(1) / chart.gram_constant
    quotients = []
    for i, psi in enumerate(mat_vec(mat_transpose(chart.gram_adjugate), images)):
        psi = psi * cinv
        q, r = psi.divmod_by(chart.phi)
        if not r.is_zero():
            return NotLiftable(i, psi, r)
        quotients.append(q)
    return quotients


def solomon_decompose(X, chart):
    """Unique coefficients R_i with X = sum R_i grad(p_i), R_i invariant.

    Solomon's theorem makes the invariant fields a free module over the
    invariants with basis grad(p_i), so the Cramer quotients divide
    exactly; the result is certified by rebuilding X from them.
    """
    if not is_invariant_field(X, chart.weyl):
        raise ValueError("field is not invariant under the chart group")
    R = _cramer(chart, [X.apply_to(p) for p in chart.generators])
    if isinstance(R, NotLiftable):
        witness = {"index": R.index, "remainder": R.remainder.render()}
    else:
        rebuilt = field_from_coefficients(R, chart)
        if rebuilt == X:
            return R
        witness = {
            "difference": [
                (p - q).render()
                for p, q in zip(rebuilt.components, X.components)
            ]
        }
    raise CertificationError("reconstruction_exact", witness)


def field_from_coefficients(coeffs, chart):
    """The field sum coeff_i grad(p_i)."""
    grads = mat_transpose([g.components for g in chart.gradients])
    return PolyVectorField(mat_vec(grads, coeffs))


def induce_derivation(coeffs, chart):
    """Generator images of the derivation along sum coeff_i grad(p_i),
    X(p_j) = sum_i coeff_i A_ij for the chart's Gram matrix A."""
    images = mat_vec(mat_transpose(chart.gram_matrix), coeffs)
    return InvariantDerivation(images, chart.weyl)


def _check_images(D, chart):
    if D.weyl != chart.weyl:
        raise ValueError("derivation is certified for another group than the chart's")


def ideal_stable(D, chart):
    """Whether the derivation preserves the ideal of the root product.

    Returns (True, quotient) when phi divides D(phi), computed by the
    chain rule D(phi) = sum_j dPhi/dy_j(p) D(p_j) from the chart's
    `phi_partials`; otherwise (False, nonzero remainder).
    """
    _check_images(D, chart)
    dphi = mat_vec([chart.phi_partials], D.images)[0]
    q, r = dphi.divmod_by(chart.phi)
    if r.is_zero():
        return True, q
    return False, r


def lift_derivation(D, chart):
    """Coefficients phi_i with D = sum phi_i grad(p_i), or NotLiftable.

    The adjugate of the Gram matrix solves the defining system exactly;
    divisibility of each entry by the root product decides liftability.
    """
    _check_images(D, chart)
    phis = _cramer(chart, D.images)
    if isinstance(phis, NotLiftable):
        return phis
    X = field_from_coefficients(phis, chart)
    for j, (img, p) in enumerate(zip(D.images, chart.generators)):
        if X.apply_to(p) != img:
            raise CertificationError("lift_reconstructs", {"index": j})
    for i, f in enumerate(phis):
        if not is_invariant(f, chart.weyl):
            raise CertificationError(
                "lift_invariant", {"index": i, "coefficient": f.render()}
            )
    return phis


def transition_matrix(chart, local):
    """Matrix m with grad(p_j) = sum_i m_ij grad(q_i) over the local
    chart, and its determinant.

    Each column is a Solomon decomposition, which certifies that it
    rebuilds grad(p_j); the entries are certified invariant under the
    local group and det m nonzero at the base point.
    """
    ell = chart.rank
    m = [[None] * ell for _ in range(ell)]
    for j in range(ell):
        col = solomon_decompose(chart.gradients[j], local)
        for i in range(ell):
            m[i][j] = col[i]
    for i in range(ell):
        for j in range(ell):
            if not is_invariant(m[i][j], local.weyl):
                raise CertificationError(
                    "transition_entries_invariant",
                    {"row": i, "column": j, "entry": m[i][j].render()},
                )
    det = mat_det(m)
    if det.evaluate(local.base_point).is_zero():
        raise CertificationError(
            "transition_det_nonzero",
            {
                "point": render_vector(local.base_point),
                "det": det.render(),
            },
        )
    return m, det


class Jet:
    """Truncated series at a base point; component k is homogeneous of
    degree k in the shifted variable x - base_point."""

    def __init__(self, base_point, truncation_order, components):
        if truncation_order < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(components) != truncation_order + 1:
            raise ValueError("one component per degree up to truncation")
        for k, p in enumerate(components):
            if not p.is_zero() and not (p.is_homogeneous() and p.degree() == k):
                raise ValueError(
                    "jet component %d is not homogeneous of its index degree"
                    % k
                )
        self.base_point = [Qi._coerce(x) for x in base_point]
        self.truncation_order = truncation_order
        self.components = list(components)

    def polynomial(self):
        """Sum of the components, written back in the ambient variable."""
        n = self.components[0].num_vars
        acc = linear_combination(n, [(QI_ONE, p) for p in self.components])
        return acc.shift([-x for x in self.base_point])

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (
            self.base_point == other.base_point
            and self.truncation_order == other.truncation_order
            and self.components == other.components
        )

    def __repr__(self):
        return "Jet(base=%r, N=%d, %r)" % (
            self.base_point,
            self.truncation_order,
            self.components,
        )


def jet_of(f, a_point, N):
    """Exact re-expansion of f around a_point, truncated at order N."""
    pt = [Qi._coerce(x) for x in a_point]
    g = f.shift(pt)
    parts = g.homogeneous_components()
    zero = MultiPoly.zero(f.num_vars)
    comps = [parts.get(k, zero) for k in range(N + 1)]
    return Jet(pt, N, comps)


def jet_unit(a_point, N, num_vars):
    comps = [MultiPoly.one(num_vars)]
    comps.extend(MultiPoly.zero(num_vars) for _ in range(N))
    return Jet(a_point, N, comps)


def _check_compatible(J1, J2):
    if J1.base_point != J2.base_point or (
        J1.truncation_order != J2.truncation_order
    ):
        raise ValueError("jets disagree on base point or truncation")


def jet_mul(J1, J2):
    """Graded convolution product."""
    _check_compatible(J1, J2)
    N = J1.truncation_order
    n = J1.components[0].num_vars
    a, b = J1.components, J2.components
    comps = [
        linear_combination(n, [(a[j], b[k - j]) for j in range(k + 1)])
        for k in range(N + 1)
    ]
    return Jet(J1.base_point, N, comps)


def jet_invert(J):
    """Multiplicative inverse up to truncation; needs a nonzero constant
    term."""
    c = J.components[0].constant_term()
    if c.is_zero():
        raise ValueError("jet is not invertible: constant term vanishes")
    n = J.components[0].num_vars
    cinv = Qi(1) / c
    # out_k = -(1/c) sum_{j >= 1} J_j out_{k-j}, with -1/c folded in once
    scaled = [p * -cinv for p in J.components]
    out = [MultiPoly.constant(n, cinv)]
    for k in range(1, J.truncation_order + 1):
        out.append(
            linear_combination(n, [(scaled[j], out[k - j]) for j in range(1, k + 1)])
        )
    return Jet(J.base_point, J.truncation_order, out)


def jet_gradient_action(R, J, kappa, kappa_inverse=None):
    """Action of the gradient field of R on a jet, slot by slot.

    R must be homogeneous of degree d >= 1 in x - base_point; output
    slot k receives grad(R) applied to input slot k - d + 2 and the
    truncation drops to N + d - 2 when d = 1. `kappa_inverse` is passed
    on to `gradient`.
    """
    Ru = R.shift(J.base_point)
    if Ru.is_zero() or not Ru.is_homogeneous():
        raise ValueError("R must be homogeneous in the shifted variable")
    d = Ru.degree()
    if d < 1:
        raise ValueError("R must have positive degree")
    grad = gradient(Ru, kappa, kappa_inverse)
    N = J.truncation_order
    n_out = min(N, N + d - 2)
    if n_out < 0:
        raise ValueError("truncation order too small for the action")
    n = Ru.num_vars
    comps = []
    for k in range(n_out + 1):
        if k < d - 1:
            comps.append(MultiPoly.zero(n))
            continue
        comps.append(grad.apply_to(J.components[k - d + 2]))
    return Jet(J.base_point, n_out, comps)


def default_truncation(chart):
    """Truncation order large enough for every chart identity."""
    return max(chart.degrees) + chart.phi.degree() + 2
