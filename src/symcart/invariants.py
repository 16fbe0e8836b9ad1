"""Basic invariants of the small Weyl group and the charts they carry.

The chart of a pair records a complete set of homogeneous generating
invariants, their gradients with respect to the invariant form, the
product of the reduced restricted roots, and the Gram determinant
identity that ties the two together.
"""

import functools
import math

from .exactalg import (
    CertificationError,
    GaussianRational,
    LinearSpan,
    MultiPoly,
    _order,
    _pack,
    _qi,
    det_adjugate,
    linear_combination,
    mat_det,
    mat_inverse,
    mat_mul,
    mat_transpose,
    mat_vec,
    poly_divides,
    render_matrix,
    render_vector,
    solve_exact,
)
from .rootsys import WeylGroup, local_subsystem, restricted_roots, weyl_group

Qi = GaussianRational


def reynolds(weyl, f):
    """Group average of f, the exact projector onto invariants."""
    scale = _qi(1, 0, weyl.order)
    return linear_combination(
        f.num_vars, [(scale, weyl.act(i, f)) for i in range(weyl.order)]
    )


def is_invariant(f, weyl):
    """Whether f(w x) = f(x) for every element w of the group.

    Testing the generators is enough.  If f is fixed by g and by h then
    f((gh) x) = f(g (h x)) = f(h x) = f(x), and every `WeylGroup` has
    `elements` equal to the closure of `generators`: its constructor
    builds them by multiplying out the generators.
    """
    return all(weyl.act(i, f) == f for i in weyl.generator_index)


def _weighted_exponents(degrees, total):
    # exponent tuples e with sum(e_i * degrees_i) == total
    out = []

    def rec(i, remaining, acc):
        if i == len(degrees):
            if remaining == 0:
                out.append(tuple(acc))
            return
        k = 0
        while k * degrees[i] <= remaining:
            rec(i + 1, remaining - k * degrees[i], acc + [k])
            k += 1

    rec(0, total, [])
    return out


def monomials_of_degree(num_vars, d):
    """All exponent tuples of total degree d, ascending grevlex."""
    key = _order(num_vars)
    return sorted(_weighted_exponents([1] * num_vars, d), key=lambda e: key(_pack(e)))


def _weighted_products(gens, degrees, d, num_vars):
    # (e, prod gens_i^e_i) for every product of weighted degree exactly d
    out = []
    for e in _weighted_exponents(degrees, d):
        p = MultiPoly.one(num_vars)
        for g, k in zip(gens, e):
            if k:
                p = p * g**k
        out.append((e, p))
    return out


def _phi_in_generators(chart):
    # exact subalgebra membership: phi = Phi(p_1..p_l), Phi in rank variables
    phi = chart.phi
    products = _weighted_products(
        chart.generators, chart.degrees, phi.degree(), chart.weyl.dim
    )
    monos = set(phi.terms)
    for _, p in products:
        monos.update(p.terms)
    monos = sorted(monos)
    A = [[p.terms.get(m, Qi(0)) for _, p in products] for m in monos]
    rhs = [phi.terms.get(m, Qi(0)) for m in monos]
    sol = solve_exact(A, rhs)
    if sol.particular is None:
        raise CertificationError("phi_in_generators", {"phi": phi.render()})
    if sol.kernel:
        raise CertificationError(
            "generator_products_independent", {"degree": phi.degree()}
        )
    exponents = [e for e, _ in products]
    return MultiPoly(chart.rank, dict(zip(exponents, sol.particular)))


def invariant_basis(weyl, d):
    """Basis of the degree-d invariants: the independent Reynolds images
    of the degree-d monomials, scanned in ascending grevlex order."""
    n = weyl.dim
    monos = monomials_of_degree(n, d)
    span = LinearSpan(len(monos))
    basis = []
    for e in monos:
        img = reynolds(weyl, MultiPoly(n, {e: Qi(1)}))
        if span.add(img.coefficient_vector(monos)):
            basis.append(img)
    return basis


def invariant_generators(weyl):
    """Degree-by-degree search for a complete set of basic invariants.

    Monomial averages are scanned in ascending grevlex order; an average
    is adopted when it is new modulo products of the generators already
    found and the averages before it.  Averages that depend on earlier
    ones never change that span, so scanning the invariant basis adopts
    the same generators.  The result is certified by its count and by the
    degree product against the group order; `Chart` certifies the
    Jacobian.
    """
    n = weyl.dim
    adopted = []
    degrees = []
    cap = 2 * weyl.order
    for d in range(1, cap + 1):
        monos = monomials_of_degree(n, d)
        span = LinearSpan(len(monos))
        for _, prod in _weighted_products(adopted, degrees, d, n):
            span.add(prod.coefficient_vector(monos))
        for img in invariant_basis(weyl, d):
            if not span.add(img.coefficient_vector(monos)):
                continue
            _, lc = img.leading_term()
            adopted.append(img * (Qi(1) / lc))
            degrees.append(d)
        if len(adopted) >= n:
            break
    if len(adopted) != n:
        raise CertificationError(
            "generator_count", {"found": len(adopted), "degree_cap": cap}
        )
    if math.prod(degrees) != weyl.order:
        raise CertificationError(
            "degrees_product", {"degrees": degrees, "order": weyl.order}
        )
    return adopted, degrees


def phi_from_roots(system):
    """Product of the reduced restricted roots, as a polynomial on a."""
    phi = MultiPoly.one(system.rank)
    for r in system.roots:
        if r.is_reduced:
            phi = phi * MultiPoly.linear_form(r.functional)
    return phi


def gradient(f, kappa_on_a, kappa_inverse=None):
    """Field dual to df through the invariant form, K^{-1} applied to
    the partials. A caller holding K^{-1}, such as a group's
    `kappa_inverse`, passes it and saves the inversion."""
    from .vecfields import PolyVectorField

    n = f.num_vars
    if len(kappa_on_a) != n:
        raise ValueError("form dimension does not match the variable count")
    kinv = kappa_inverse
    if kinv is None:
        try:
            kinv = mat_inverse(kappa_on_a)
        except ValueError:
            raise ValueError("invariant form is degenerate on a") from None
    return PolyVectorField(mat_vec(kinv, [f.partial(i) for i in range(n)]))


def _gram(A, phi):
    """Adjugate and determinant of the Gram matrix A, certified once per
    chart: `det_adjugate` certifies A adj(A) = det(A) I, and here det(A)
    is a nonzero constant multiple c of phi."""
    det, adj = det_adjugate(A)
    q = poly_divides(det, phi)
    if q is None or q.degree() > 0:
        raise CertificationError(
            "gram_identity", {"gram_det": det.render(), "phi": phi.render()}
        )
    c = q.constant_term()
    if c.is_zero():
        raise CertificationError("gram_constant_nonzero", {"gram_det": det.render()})
    return adj, det, c


class Chart:
    """Chart carried by a complete set of basic invariants of a group.

    The Jacobian J of the generators is built and certified nonzero here,
    once per chart. Gradient i is K^{-1} applied to row i of J, for the
    group's invariant form K, read from the group. The Gram matrix
    A_ij = grad(p_i) . p_j is G J^T for the gradient matrix G (one
    gradient per row), and its adjugate, determinant and constant ratio
    to phi come from one certified `_gram` call. `build_chart` adds the
    restricted root system as `system`; `local_chart` adds `base_point`
    and the factor `psi` of the global root product that does not vanish
    there.
    """

    def __init__(self, generators, degrees, weyl, phi):
        from .vecfields import PolyVectorField

        self.generators = generators
        self.degrees = degrees
        self.weyl = weyl
        self.kappa_on_a = weyl.kappa_on_a
        self.phi = phi
        self.rank = len(generators)
        jac = [[p.partial(j) for j in range(weyl.dim)] for p in generators]
        jdet = mat_det(jac)
        if jdet.is_zero():
            raise CertificationError(
                "jacobian_nonzero", {"jacobian_det": jdet.render()}
            )
        grads = [mat_vec(weyl.kappa_inverse, row) for row in jac]
        self.gradients = [PolyVectorField(g) for g in grads]
        self.gram_matrix = mat_mul(grads, mat_transpose(jac))
        (self.gram_adjugate, self.gram_det,
         self.gram_constant) = _gram(self.gram_matrix, phi)

    @functools.cached_property
    def phi_partials(self):
        """The partials dPhi/dy_j, written in x, of the polynomial Phi
        with phi = Phi(p_1, ..., p_l); solved once, on first use."""
        Phi = _phi_in_generators(self)
        return [Phi.partial(j).compose(self.generators) for j in range(self.rank)]


def build_chart(pair, seed=0):
    """Assemble the invariant chart of a pair from its restricted roots.

    The chart is seed-free. `seed` is accepted and ignored only because
    the benchmark scripts `perfbench/run.py` and `perfbench/record.py`
    pass one.
    """
    system = restricted_roots(pair)
    weyl = weyl_group(system, pair.kappa_on_cartan())
    generators, degrees = invariant_generators(weyl)
    phi = phi_from_roots(system)
    if not is_invariant(phi, weyl):
        raise CertificationError("phi_invariant", {"phi": phi.render()})
    chart = Chart(generators, degrees, weyl, phi)
    chart.system = system
    return chart


def local_chart(chart, a_point):
    """Chart at a base point of a global chart, for the subgroup W_a
    fixing it, factoring the root product through the roots that vanish
    there.

    W_a is the reflection group of those roots, acting on their span b
    and fixing its complement c. Its generators, written in a frame
    adapted to a = b + c, are certified block diagonal with the identity
    on c; products of such matrices are again such, so the b-blocks of
    the generators generate the group on b whose invariants give the
    local generators. They are the b-invariants of u_b and the
    coordinates u_c, for u = T^{-1}(x - a) affine and invertible, so the
    local Jacobian is nonzero exactly when the b-block one is; `Chart`
    certifies it, at a regular point (b = 0) too.
    """
    pt = [Qi._coerce(x) for x in a_point]
    weyl = chart.weyl
    n = weyl.dim
    _, W_a, (b_basis, c_basis) = local_subsystem(chart.system, weyl, pt)
    r = len(b_basis)

    T = mat_transpose(b_basis + c_basis)
    Tinv = mat_inverse(T)

    if r:
        gen_blocks = []
        for g in W_a.generators:
            gp = mat_mul(Tinv, mat_mul(g, T))
            if any(
                gp[i][j] != (Qi(1) if i == j else Qi(0))
                for i in range(n)
                for j in range(n)
                if i >= r or j >= r
            ):
                raise CertificationError(
                    "local_frame_split", {"matrix": render_matrix(gp)}
                )
            gen_blocks.append([row[:r] for row in gp[:r]])
        Kp = mat_mul(mat_transpose(T), mat_mul(weyl.kappa_on_a, T))
        Kb = [row[:r] for row in Kp[:r]]
        bgens, bdegs = invariant_generators(WeylGroup(r, gen_blocks, Kb))
    else:
        bgens, bdegs = [], []

    # coordinates of u = x - a in the adapted frame
    urows = [MultiPoly.linear_form(row) for row in Tinv]
    local_u = [g.compose(urows[:r]) for g in bgens]
    local_u.extend(urows[r:])
    degrees = list(bdegs) + [1] * (n - r)
    for f in local_u:
        if not is_invariant(f, W_a):
            raise CertificationError(
                "local_generators_invariant", {"generator": f.render()}
            )

    neg = [-x for x in pt]
    local_x = [f.shift(neg) for f in local_u]

    psi = MultiPoly.one(n)
    phi_local = MultiPoly.one(n)
    for rt in chart.system.roots:
        if not rt.is_reduced:
            continue
        form = MultiPoly.linear_form(rt.functional)
        if form.evaluate(pt).is_zero():
            phi_local = phi_local * form
        else:
            psi = psi * form
    if psi * phi_local != chart.phi:
        raise CertificationError(
            "factorization_exact",
            {
                "point": render_vector(pt),
                "psi": psi.render(),
                "phi_local": phi_local.render(),
            },
        )
    if psi.evaluate(pt).is_zero():
        raise CertificationError(
            "local_value_nonzero",
            {"point": render_vector(pt), "psi": psi.render()},
        )

    local = Chart(local_x, degrees, W_a, phi_local)
    local.base_point = pt
    local.psi = psi
    return local
