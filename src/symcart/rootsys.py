"""Restricted root systems with multiplicities, the reduced subset, Weyl
groups as finite matrix groups over Q(i), and local subsystems at a
semisimple point.

Roots are functionals on the real Cartan basis; a pair whose joint spectrum
leaves Q(i) is refused rather than approximated.
"""

from __future__ import annotations

from collections import namedtuple

from .exactalg import (
    FIELD_BITS,
    CertificationError,
    LinearSpan,
    MultiPoly,
    Qi,
    SpectrumError,  # callers catch it from here
    _dot,
    exact_order,
    joint_eigenspaces,
    kernel_basis,
    linear_combination,
    mat_identity,
    mat_inverse,
    mat_mul,
    mat_rank,
    mat_transpose,
    mat_vec,
    render_matrix,
    render_vector,
)
from .liesym import _vec


def _key(v):
    """Exact lookup key of a vector, or of a matrix by rows: the
    canonical (a, b, d) triple of every entry."""
    if v and isinstance(v[0], Qi):
        return tuple((x._a, x._b, x._d) for x in v)
    return tuple(map(_key, v))


# |W(F4)|, the largest Weyl group of rank 4; read at every closure
MAX_WEYL_ELEMENTS = 1152


RestrictedRoot = namedtuple(
    "RestrictedRoot", "functional multiplicity is_reduced", defaults=(True,)
)
RestrictedRootSystem = namedtuple("RestrictedRootSystem", "roots rank zero_dim")


class WeylGroup:
    """Finite matrix group on a_C, generated by root reflections.

    `elements` is the closure of `generators` under multiplication, in
    the `exact_order` of their entries row by row, and `inverses` runs
    parallel to it: a generator g with g g = I is its own inverse (every
    caller passes reflections) and any other is inverted once, and the
    closure records
    (w g)^{-1} = g^{-1} w^{-1} beside each new product. `inverse_index`
    and `generator_index` locate w^{-1} and each generator in `elements`.
    A closure past `MAX_WEYL_ELEMENTS` is refused with a ValueError.

    `act(i, f)` is f(w x) for w = elements[i]. The group keeps, per
    element, the image of every monomial it has been asked for, keyed by
    its packed exponent: the sparse columns of Sym^d(w). A new image of
    x^e of degree two or more is the kept image of x^(e - u_j), for the
    last j with e_j > 0, times that of x_j, the linear form of row j of
    w: one product per new monomial.

    `kappa_inverse` is the inverse of the invariant form, inverted at
    most once per group: `weyl_group` passes the one it built the
    reflections from, and a group built without one inverts the form on
    first use.
    """

    def __init__(self, dim, generators, kappa_on_a, kappa_inverse=None):
        ident = mat_identity(dim)
        ginvs = [g if mat_mul(g, g) == ident else mat_inverse(g) for g in generators]
        closure = {_key(ident): (ident, ident)}
        todo = [(ident, ident)]
        while todo:
            w, winv = todo.pop()
            for g, ginv in zip(generators, ginvs):
                p = mat_mul(w, g)
                k = _key(p)
                if k not in closure:
                    if len(closure) >= MAX_WEYL_ELEMENTS:
                        raise ValueError(
                            "Weyl closure exceeded the safety bound of "
                            f"{MAX_WEYL_ELEMENTS} elements"
                        )
                    closure[k] = (p, mat_mul(ginv, winv))
                    todo.append(closure[k])
        keys = list(closure)
        order = exact_order([[x for row in closure[k][0] for x in row] for k in keys])
        keys = [keys[i] for i in order]
        index = {k: i for i, k in enumerate(keys)}
        self.dim = dim
        self.generators = generators
        self.generator_inverses = ginvs
        self.elements = [closure[k][0] for k in keys]
        self.inverses = [closure[k][1] for k in keys]
        self.inverse_index = [index[_key(winv)] for winv in self.inverses]
        self.generator_index = [index[_key(g)] for g in generators]
        self.order = len(self.elements)
        self.kappa_on_a = kappa_on_a
        self._kinv = kappa_inverse
        self._keys = set(closure)
        self._images = [{} for _ in keys]

    @property
    def kappa_inverse(self):
        if self._kinv is None:
            try:
                self._kinv = mat_inverse(self.kappa_on_a)
            except ValueError:
                raise ValueError("invariant form is degenerate on a") from None
        return self._kinv

    def act(self, i, f):
        """f(w x) for the element w = elements[i], summed over the terms
        of f from the kept images of their monomials under w, on the
        integer store: no coefficient of f becomes a Q(i) scalar."""
        D = f._den
        return linear_combination(
            f.num_vars, [((a, b, D), self._image(i, e)) for e, (a, b) in f._num.items()]
        )

    def _image(self, i, e):
        """The image under elements[i] of the monomial with packed
        exponent e, kept by that key."""
        images = self._images[i]
        img = images.get(e)
        if img is None:
            if not e:
                img = MultiPoly.one(self.dim)
            else:
                s = FIELD_BITS * self.dim
                # x_j for the last variable with a nonzero exponent: the
                # top set bit below the degree lies in its field
                j = ((e & (1 << s) - 1).bit_length() - 1) // FIELD_BITS
                unit = (1 << s) + (1 << FIELD_BITS * j)
                if e == unit:
                    img = MultiPoly.linear_form(self.elements[i][j])
                else:
                    img = self._image(i, e - unit) * self._image(i, unit)
            images[e] = img
        return img

    def contains(self, m):
        return _key(m) in self._keys

    def __eq__(self, other):
        # the same elements make the same group, built once or twice
        if not isinstance(other, WeylGroup):
            return NotImplemented
        return self._keys == other._keys


def reduced_subset(functionals):
    """Flag each functional whose half is not itself in the set."""
    fs = [_vec(f) for f in functionals]
    keys = {_key(f) for f in fs}
    return [_key([x / 2 for x in f]) not in keys for f in fs]


def restricted_roots(pair):
    """Joint-eigenspace decomposition of g under ad of the Cartan subspace.

    `exactalg.joint_eigenspaces` splits g one Cartan basis vector at a
    time; its blocks are the joint eigenspaces, and their eigenvalue
    tuples are the root functionals. The blocks filling g is the
    certificate that every ad(a_i) is semisimple: a basis vector whose
    eigenspaces miss part of a block is refused with a ValueError.
    """
    cart = pair.cartan
    if cart is None:
        raise ValueError("pair has no Cartan subspace attached")
    alg = pair.algebra
    n = alg.dim
    ads = [alg.ad(v) for v in cart.basis]
    z_dim = len(kernel_basis([row for A in ads for row in A]))
    roots, zero_dim = _joint_eigenspaces(ads)
    total = sum(m for _, m in roots)
    if not zero_dim == z_dim == n - total:
        raise CertificationError(
            "root_bookkeeping",
            {
                "dim_g": n,
                "zero_dim": zero_dim,
                "centralizer_dim": z_dim,
                "multiplicity_sum": total,
            },
        )
    flags = reduced_subset([f for f, _ in roots])
    mults = {_key(f): m for f, m in roots}
    for f, m in roots:
        if mults.get(_key([-x for x in f])) != m:
            raise CertificationError(
                "roots_symmetric",
                {"functional": render_vector(f), "multiplicity": m},
            )
    out = [
        RestrictedRoot(list(f), m, flag)
        for (f, m), flag in zip(roots, flags)
    ]
    out = [out[i] for i in exact_order([r.functional for r in out])]
    return RestrictedRootSystem(out, cart.rank, zero_dim)


def _joint_eigenspaces(ads):
    """(functional, multiplicity) for each joint eigenspace of the ads
    with a nonzero functional, and the dimension of the zero one."""
    try:
        blocks, bad = joint_eigenspaces(ads)
    except SpectrumError:
        raise SpectrumError(
            "restricted roots lie outside Q(i); pair unsupported"
        ) from None
    if bad is not None:
        raise ValueError(f"Cartan basis vector {bad} is not semisimple")
    roots = []
    zero_dim = 0
    for func, basis in blocks:
        if all(f.is_zero() for f in func):
            zero_dim += len(basis)
        else:
            roots.append((func, len(basis)))
    return roots, zero_dim


def weyl_group(roots, kappa_on_a, kappa_inverse=None):
    """The group generated by the root reflections s_a built from the
    kappa-induced form.

    `roots` is a `RestrictedRootSystem` or a list of `RestrictedRoot`.
    The form is inverted here unless its inverse is passed in, and the
    group keeps it as `kappa_inverse`.
    Each generating reflection is checked to permute the roots with their
    multiplicities; products of such permutations are permutations, so
    that certifies every element.
    """
    root_list = roots.roots if isinstance(roots, RestrictedRootSystem) else roots
    dim = len(kappa_on_a)
    kinv = mat_inverse(kappa_on_a) if kappa_inverse is None else kappa_inverse
    generators = []
    seen_gen = set()
    for r in root_list:
        alpha = _vec(r.functional)
        t_alpha = mat_vec(kinv, alpha)
        norm = _dot(None, alpha, t_alpha)
        if norm.is_zero():
            raise ValueError("isotropic root; reflection undefined")
        two_over = Qi(2) / norm
        S = [
            [
                (Qi(1) if i == j else Qi(0)) - two_over * t_alpha[i] * alpha[j]
                for j in range(dim)
            ]
            for i in range(dim)
        ]
        key = _key(S)
        if key not in seen_gen:
            if mat_mul(S, S) != mat_identity(dim):
                raise CertificationError(
                    "reflection_involution", {"functional": render_vector(alpha)}
                )
            seen_gen.add(key)
            generators.append(S)

    mults = {}
    for r in root_list:
        k = _key(r.functional)
        mults[k] = mults.get(k, 0) + r.multiplicity
    for g in generators:
        gt = mat_transpose(g)
        for r in root_list:
            image = mat_vec(gt, r.functional)
            if mults.get(_key(image)) != mults[_key(r.functional)]:
                raise CertificationError(
                    "weyl_permutes_roots",
                    {
                        "matrix": render_matrix(g),
                        "functional": render_vector(r.functional),
                    },
                )

    return WeylGroup(dim, generators, kappa_on_a, kinv)


def local_subsystem(system, weyl, a_point):
    """Roots vanishing at the point, the subgroup they generate, and the
    induced split a = b + c into the root span and the fixed space."""
    pt = _vec(a_point)
    dim = weyl.dim
    roots_a = [r for r in system.roots if _dot(None, r.functional, pt).is_zero()]
    kinv = weyl.kappa_inverse
    W_a = weyl_group(roots_a, weyl.kappa_on_a, kinv)
    # W_a is the closure of its generators, so checking them covers W_a
    for g in W_a.generators:
        if not weyl.contains(g):
            raise CertificationError(
                "local_group_in_weyl", {"matrix": render_matrix(g)}
            )

    b_span = LinearSpan(dim)
    for r in roots_a:
        b_span.add(mat_vec(kinv, r.functional))
    b_basis = b_span.basis

    rows = []
    for g in W_a.generators:
        for i in range(dim):
            rows.append([g[i][j] - (Qi(1) if i == j else Qi(0)) for j in range(dim)])
    if rows:
        c_basis = kernel_basis(rows)
    else:
        c_basis = [row[:] for row in mat_identity(dim)]

    if not mat_rank(b_basis + c_basis) == len(b_basis) + len(c_basis) == dim:
        raise CertificationError(
            "local_split", {"b_dim": len(b_basis), "c_dim": len(c_basis), "dim": dim}
        )
    for g in W_a.generators:
        for v in [pt] + c_basis:
            if mat_vec(g, v) != v:
                raise CertificationError(
                    "local_group_fixes",
                    {"matrix": render_matrix(g), "vector": render_vector(v)},
                )
    return roots_a, W_a, (b_basis, c_basis)
