"""Polynomial vector fields on a and the chart calculus built on them.

Covers the decomposition of invariant fields over the chart gradients,
ideal stability and Cramer lifting of derivations given by generator
images, the transition matrix between a global chart and a local one,
and jets: a jet of order N at a base point a is one polynomial of
degree at most N in u = x - a, with products, inverses and the
gradient action truncated by degree.
"""

from collections import namedtuple

from .exactalg import (
    FIELD_BITS,
    CertificationError,
    GaussianRational,
    MultiPoly,
    QI_ONE,
    _normal,
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


# witness that the adjugate system has a non-divisible entry
NotLiftable = namedtuple("NotLiftable", "index psi remainder")


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
    (w_kl / |W|) X_l(w^{-1} x) over the elements w and the indices l,
    read per term c x^e of X_l from the group's kept field average of
    x^e d/dx_l."""
    if X.dim != weyl.dim:
        raise ValueError("variable count mismatch")
    terms = [
        ((a, b, c._den), weyl.field_average(l, e))
        for l, c in enumerate(X.components)
        for e, (a, b) in c._num.items()
    ]
    return PolyVectorField(
        [
            linear_combination(X.dim, [(a, avg[k]) for a, avg in terms])
            for k in range(X.dim)
        ]
    )


def _gram_images(coeffs, chart):
    """Generator images X(p_j) = sum_i coeff_i A_ij of the field
    X = sum coeff_i grad(p_i), for the chart's Gram matrix A."""
    return mat_vec(mat_transpose(chart.gram_matrix), coeffs)


def _cramer(chart, images):
    """Coefficients R_i with X = sum R_i grad(p_i), from the images
    X(p_j), or NotLiftable at the first inexact division.

    X(p_j) = sum_i R_i A_ij for the Gram matrix A, and the chart
    certified adj(A) A = det(A) I with det(A) = c phi, so R_i is
    psi_i / phi for psi_i = sum_j adj_ji X(p_j) / c. Once every division
    is exact, A^T R = images is checked here, the one reconstruction
    certificate of the chart calculus: `solomon_decompose`,
    `lift_derivation` and `transition_matrix` rely on it.
    """
    cinv = Qi(1) / chart.gram_constant
    quotients = []
    for i, psi in enumerate(mat_vec(mat_transpose(chart.gram_adjugate), images)):
        psi = psi * cinv
        q, r = psi.divmod_by(chart.phi)
        if not r.is_zero():
            return NotLiftable(i, psi, r)
        quotients.append(q)
    for j, (got, img) in enumerate(zip(_gram_images(quotients, chart), images)):
        if got != img:
            raise CertificationError(
                "reconstruction_exact", {"index": j, "difference": (got - img).render()}
            )
    return quotients


def solomon_decompose(X, chart):
    """Unique coefficients R_i with X = sum R_i grad(p_i), R_i invariant.

    Solomon's theorem makes the invariant fields a free module over the
    invariants with basis grad(p_i), so the Cramer quotients divide
    exactly. `_cramer` certifies that Y = sum R_i grad(p_i) has the
    images of X, so J (X - Y) = 0 for the Jacobian J of the generators;
    the chart certified det J nonzero, so Y = X with no rebuild. The R_i
    are invariant because R is the unique solution of A^T R = images
    (det A = c phi is nonzero) and A and the images are invariant, so
    w.R solves the same system for every group element w.
    """
    if not is_invariant_field(X, chart.weyl):
        raise ValueError("field is not invariant under the chart group")
    R = _cramer(chart, [X.apply_to(p) for p in chart.generators])
    if isinstance(R, NotLiftable):
        raise CertificationError(
            "solomon_divisible", {"index": R.index, "remainder": R.remainder.render()}
        )
    return R


def field_from_coefficients(coeffs, chart):
    """The field sum coeff_i grad(p_i)."""
    grads = mat_transpose([g.components for g in chart.gradients])
    return PolyVectorField(mat_vec(grads, coeffs))


def induce_derivation(coeffs, chart):
    """Generator images of the derivation along sum coeff_i grad(p_i)."""
    return InvariantDerivation(_gram_images(coeffs, chart), chart.weyl)


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
    divisibility of each entry by the root product decides liftability,
    and `_cramer` certifies that the quotients rebuild the images. They
    are invariant with no test of their own: A is nonsingular (the chart
    certified det A = c phi with c nonzero), A is invariant and
    `InvariantDerivation` certified the images invariant, so for every
    group element w, w.phi solves the same system and equals phi.
    """
    _check_images(D, chart)
    return _cramer(chart, D.images)


def transition_matrix(chart, local):
    """Matrix m with grad(p_j) = sum_i m_ij grad(q_i) over the local
    chart, and its determinant.

    Each column is a Solomon decomposition over the local chart, which
    certifies that it rebuilds grad(p_j). `solomon_decompose` certified
    each grad(p_j) invariant under the local group, so the entries are
    invariant by the uniqueness argument in its docstring. det m is
    certified nonzero at the base point.
    """
    m = mat_transpose([solomon_decompose(g, local) for g in chart.gradients])
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
    """Truncated series at a base point: `poly` is a polynomial of degree
    at most `truncation_order` in the shifted variable x - base_point."""

    def __init__(self, base_point, truncation_order, poly):
        if poly.degree() > truncation_order:
            raise ValueError("jet has a term above its truncation order")
        self.base_point = [Qi._coerce(x) for x in base_point]
        self.truncation_order = truncation_order
        self.poly = poly

    def polynomial(self):
        """The jet written back in the ambient variable."""
        return self.poly.shift([-x for x in self.base_point])

    def __eq__(self, other):
        if not isinstance(other, Jet):
            return NotImplemented
        return (
            self.base_point == other.base_point
            and self.truncation_order == other.truncation_order
            and self.poly == other.poly
        )

    def __repr__(self):
        return "Jet(base=%r, N=%d, %r)" % (
            self.base_point,
            self.truncation_order,
            self.poly,
        )


def _truncate(p, N):
    """The terms of p of total degree at most N."""
    if p.degree() <= N:
        return p
    # the degree is the top field, so these are the packed exponents below
    # that of degree N + 1
    cut = N + 1 << FIELD_BITS * p.num_vars
    return _normal(p.num_vars, p._den, {e: t for e, t in p._num.items() if e < cut})


def jet_of(f, a_point, N):
    """Exact re-expansion of f around a_point, truncated at order N."""
    pt = [Qi._coerce(x) for x in a_point]
    return Jet(pt, N, _truncate(f.shift(pt), N))


def jet_unit(a_point, N, num_vars):
    return Jet(a_point, N, MultiPoly.one(num_vars))


def _check_compatible(J1, J2):
    if J1.base_point != J2.base_point or (
        J1.truncation_order != J2.truncation_order
    ):
        raise ValueError("jets disagree on base point or truncation")


def jet_mul(J1, J2):
    """Truncated product: one sum over the pairs of homogeneous parts
    whose degrees add up to at most the truncation order."""
    _check_compatible(J1, J2)
    N = J1.truncation_order
    a = J1.poly.homogeneous_components()
    b = J2.poly.homogeneous_components()
    pairs = [(p, q) for i, p in a.items() for j, q in b.items() if i + j <= N]
    return Jet(J1.base_point, N, linear_combination(J1.poly.num_vars, pairs))


def jet_invert(J):
    """Multiplicative inverse up to truncation; needs a nonzero constant
    term."""
    c = J.poly.constant_term()
    if c.is_zero():
        raise ValueError("jet is not invertible: constant term vanishes")
    n = J.poly.num_vars
    cinv = Qi(1) / c
    # out_k = -(1/c) sum_{j >= 1} J_j out_{k-j}, with -1/c folded in once
    scaled = (J.poly * -cinv).homogeneous_components()
    out = [MultiPoly.constant(n, cinv)]
    for k in range(1, J.truncation_order + 1):
        out.append(
            linear_combination(
                n, [(p, out[k - j]) for j, p in scaled.items() if 1 <= j <= k]
            )
        )
    total = linear_combination(n, [(QI_ONE, p) for p in out])
    return Jet(J.base_point, J.truncation_order, total)


def jet_gradient_action(R, J, kappa, kappa_inverse=None):
    """Action of the gradient field of R on a jet.

    R must be homogeneous of degree d >= 1 in x - base_point, so grad(R)
    sends degree m to degree m + d - 2: the constants go to zero and the
    truncation drops to N - 1 when d = 1. `kappa_inverse` is passed on
    to `gradient`.
    """
    Ru = R.shift(J.base_point)
    if Ru.is_zero() or not Ru.is_homogeneous():
        raise ValueError("R must be homogeneous in the shifted variable")
    d = Ru.degree()
    if d < 1:
        raise ValueError("R must have positive degree")
    N = J.truncation_order
    n_out = min(N, N + d - 2)
    if n_out < 0:
        raise ValueError("truncation order too small for the action")
    grad = gradient(Ru, kappa, kappa_inverse)
    return Jet(J.base_point, n_out, _truncate(grad.apply_to(J.poly), n_out))


def default_truncation(chart):
    """Truncation order large enough for every chart identity."""
    return max(chart.degrees) + chart.phi.degree() + 2
