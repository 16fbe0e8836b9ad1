"""Reductive Lie algebras given by structure constants, involutions with
their h/q eigenspace split, invariant forms, centralizers, and a small
catalog of symmetric pairs built from explicit matrix representations.

All validation is exact; a pair that constructs without raising satisfies
every structural identity on the nose: antisymmetry and Jacobi, sigma an
involutive automorphism, kappa symmetric, nondegenerate and invariant, and
a Cartan basis in q that is independent, abelian and maximal. Construction
does not certify that the Cartan basis is semisimple: the eigenspaces that
`rootsys.restricted_roots` (and so `build_chart`) splits g into must fill
it, and it refuses a basis vector whose eigenspaces do not.

The identities are checked on the ad matrices ad_i = ad(e_i) of the
basis, with every sum of products in the one Q(i) dot product of
`exactalg`: Jacobi in `LieAlgebra`, and the invariance of kappa in
`SymmetricPair`, as K ad_i antisymmetric.
"""

from __future__ import annotations

import functools
import itertools

from .exactalg import (
    CertificationError,
    GaussianRational,
    LinearSpan,
    Qi,
    _dot,
    _qi,
    joint_eigenspaces,
    kernel_basis,
    mat_identity,
    mat_mul,
    mat_rank,
    mat_transpose,
    mat_vec,
    parse_scalar,
)


def _scalar(x):
    """A Q(i) scalar, an int or a string in the input grammar; anything
    else (a float, a bool, null) is refused."""
    if isinstance(x, GaussianRational):
        return x
    if isinstance(x, str):
        return parse_scalar(x)
    if isinstance(x, int) and not isinstance(x, bool):
        return _qi(x, 0, 1)
    raise ValueError(f"not a scalar: {x!r}")


def _vec(v):
    return [_scalar(x) for x in v]


def _mat(rows):
    return [_vec(r) for r in rows]


def _is_square(rows, n):
    return (
        isinstance(rows, (list, tuple))
        and len(rows) == n
        and all(isinstance(r, (list, tuple)) and len(r) == n for r in rows)
    )


def _is_zero_vec(v):
    return all(x.is_zero() for x in v)


class LieAlgebra:
    """Lie algebra over Q(i) by structure constants c[i][j][k].

    `ads[i]` is the matrix of ad(e_i); its column j is c[i][j] = [e_i, e_j],
    so it is the transpose of c[i]. Jacobi is checked on these matrices,
    one `mat_vec` of [ad_i | ad_j | ad_k] per basis triple i < j < k:
    ad_i c[j][k] + ad_j c[k][i] + ad_k c[i][j] = 0. `ad(x)` is
    sum x_i ad_i, one dot per entry, and `bracket(x, y)` is ad(x) y.
    """

    def __init__(self, dim, structure_constants):
        self.dim = dim
        c = [[_vec(structure_constants[i][j]) for j in range(dim)] for i in range(dim)]
        self.c = c
        for i, j, k in itertools.product(range(dim), repeat=3):
            if c[i][j][k] != -c[j][i][k]:
                raise ValueError(
                    f"structure constants violate antisymmetry at ({i}, {j}, {k})"
                )
        ads = self.ads = [mat_transpose(ci) for ci in c]
        # Jacobi on basis triples; bilinearity extends it to everything
        for i, j, k in itertools.combinations(range(dim), 3):
            rows = [a + b + d for a, b, d in zip(ads[i], ads[j], ads[k])]
            if not _is_zero_vec(mat_vec(rows, c[j][k] + c[k][i] + c[i][j])):
                raise ValueError(f"Jacobi identity fails at basis triple ({i}, {j}, {k})")

    def _unit(self, i):
        v = [Qi(0)] * self.dim
        v[i] = Qi(1)
        return v

    def bracket(self, x, y):
        return mat_vec(self.ad(x), _vec(y))

    def ad(self, x):
        """The matrix of ad(x): column j holds [x, e_j]."""
        x = _vec(x)
        return [
            [_dot(None, x, entries) for entries in zip(*rows)]
            for rows in zip(*self.ads)
        ]

    def killing(self):
        ads = self.ads
        n = self.dim
        B = [[Qi(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                B[i][j] = B[j][i] = _trace_prod(ads[i], ads[j])
        return B


class CartanSubspace:
    """Span of exact commuting semisimple q-vectors; validated against a
    pair, except for semisimplicity, which `restricted_roots` certifies."""

    def __init__(self, basis):
        self.basis = [_vec(v) for v in basis]
        self.rank = len(self.basis)


class SymmetricPair:
    """A reductive algebra with involution sigma and invariant form kappa.

    The basis must be sigma-adapted: every basis vector is a +1 or -1
    eigenvector, giving the h/q index split directly. kappa is invariant
    when K ad_i is antisymmetric for every i, one `mat_mul` per basis
    vector; `kappa_form(x, y)` is the dot of x with K y.
    """

    def __init__(self, algebra, sigma, kappa, name="", cartan=None):
        n = algebra.dim
        for what, rows in (("sigma", sigma), ("kappa", kappa)):
            if not _is_square(rows, n):
                raise ValueError(f"{what} matrix has the wrong shape")
        self.algebra = algebra
        self.sigma = _mat(sigma)
        self.kappa = _mat(kappa)
        self.name = name

        if mat_mul(self.sigma, self.sigma) != mat_identity(n):
            raise ValueError("sigma squared is not the identity")

        self.h_basis = []
        self.q_basis = []
        for i in range(n):
            col = [self.sigma[r][i] for r in range(n)]
            if col == algebra._unit(i):
                self.h_basis.append(i)
            elif col == [-x for x in algebra._unit(i)]:
                self.q_basis.append(i)
            else:
                raise ValueError(
                    f"basis vector {i} is not a sigma eigenvector; "
                    "the basis must be sigma-adapted"
                )

        # the loop above proved sigma = diag(eps), so sigma[e_i, e_j] =
        # [sigma e_i, sigma e_j] reads eps[k] c_ijk = eps[i] eps[j] c_ijk
        h = set(self.h_basis)
        eps = [1 if i in h else -1 for i in range(n)]
        for i in range(n):
            for j in range(n):
                if any(
                    eps[k] != eps[i] * eps[j] and not v.is_zero()
                    for k, v in enumerate(algebra.c[i][j])
                ):
                    raise ValueError(
                        f"sigma is not a Lie algebra automorphism at basis pair ({i}, {j})"
                    )

        K = self.kappa
        for i in range(n):
            for j in range(i + 1, n):
                if K[i][j] != K[j][i]:
                    raise ValueError("kappa is not symmetric")
        if mat_rank(K) != n:
            raise ValueError("kappa is degenerate")
        Kq = [[K[i][j] for j in self.q_basis] for i in self.q_basis]
        if mat_rank(Kq) != len(Kq):
            raise ValueError("kappa is degenerate on q")
        # sigma^T K sigma = K with sigma diagonal: K vanishes between h and q
        for i in range(n):
            for j in range(n):
                if eps[i] != eps[j] and not K[i][j].is_zero():
                    raise ValueError("kappa is not sigma-invariant")
        # (K ad_i)[j][k] is kappa(e_j, [e_i, e_k]), so entry (j, k) plus
        # entry (k, j) is kappa([e_i, e_j], e_k) + kappa(e_j, [e_i, e_k])
        for i, A in enumerate(algebra.ads):
            M = mat_mul(K, A)
            for j, k in itertools.product(range(n), repeat=2):
                if M[j][k] != -M[k][j]:
                    raise ValueError(
                        f"kappa is not invariant at basis triple ({i}, {j}, {k})"
                    )

        if cartan is not None and cartan.rank == 0:
            cartan = None
        self.cartan = cartan
        if cartan is not None:
            _validate_cartan(self, cartan)

    def kappa_form(self, x, y):
        return _dot(None, _vec(x), mat_vec(self.kappa, _vec(y)))

    def gram(self, vectors):
        return [[self.kappa_form(v, w) for w in vectors] for v in vectors]

    def kappa_on_cartan(self):
        if self.cartan is None:
            raise ValueError("pair has no Cartan subspace attached")
        return self.gram(self.cartan.basis)


def _validate_cartan(pair, cart):
    alg = pair.algebra
    n = alg.dim
    if any(len(v) != n for v in cart.basis):
        raise ValueError("Cartan basis vector has the wrong length")
    for i, v in enumerate(cart.basis):
        if mat_vec(pair.sigma, v) != [-x for x in v]:
            raise ValueError(f"Cartan basis vector {i} is not in q")
    if mat_rank(cart.basis) != cart.rank:
        raise ValueError("Cartan basis is linearly dependent")
    for i in range(cart.rank):
        for j in range(i + 1, cart.rank):
            if not _is_zero_vec(alg.bracket(cart.basis[i], cart.basis[j])):
                raise ValueError(f"Cartan subspace is not abelian: basis pair ({i}, {j})")
    ads = [alg.ad(v) for v in cart.basis]
    # maximality: the centralizer of a in q is the common kernel of the
    # ad(a_i) on q; it contains a, so it must not be larger
    qb = pair.q_basis
    rows = [[A[r][j] for j in qb] for A in ads for r in range(n)]
    c_dim = len(kernel_basis(rows))
    if c_dim != cart.rank:
        raise ValueError(
            "Cartan subspace is not maximal abelian: its centralizer in q "
            f"has dimension {c_dim}, above its rank {cart.rank}"
        )


def _from_q(pair, coords):
    """The g-vector with the given coordinates on the q basis."""
    v = [Qi(0)] * pair.algebra.dim
    for c, j in zip(coords, pair.q_basis):
        v[j] = c
    return v


def centralizer_in_q(pair, a_point):
    """Split q = q_a + m at a semisimple point: the ad-kernel and its
    kappa-orthocomplement, both returned as lists of exact g-vectors.

    A point whose ad has eigenspaces that do not fill g is refused with a
    ValueError, and one whose ad spectrum leaves Q(i) with SpectrumError."""
    a_point = _vec(a_point)
    A = pair.algebra.ad(a_point)
    if joint_eigenspaces([A])[1] is not None:
        raise ValueError(
            "a_point is not semisimple: the eigenspaces of its ad do not fill g"
        )
    qb = pair.q_basis
    q_a = [_from_q(pair, u) for u in kernel_basis([[row[j] for j in qb] for row in A])]
    # m = kappa-orthocomplement of q_a inside q: the rows K z on q
    rows = [[Kz[j] for j in qb] for Kz in (mat_vec(pair.kappa, z) for z in q_a)]
    m = [_from_q(pair, u) for u in kernel_basis(rows)]
    if not mat_rank(q_a + m) == len(q_a) + len(m) == len(qb):
        raise CertificationError(
            "centralizer_split",
            {"q_a_dim": len(q_a), "m_dim": len(m), "q_dim": len(qb)},
        )
    return q_a, m


# ---------------------------------------------------------------- catalog

def _commutator(x, y):
    return [
        [a - b for a, b in zip(r1, r2)]
        for r1, r2 in zip(mat_mul(x, y), mat_mul(y, x))
    ]


def _flat(m):
    return [x for row in m for x in row]


def _trace_prod(x, y):
    """tr(x y): one dot of x with y transposed, both flattened."""
    return _dot(None, _flat(x), _flat(zip(*y)))


def _pair_from_matrices(name, h_mats, q_mats, cartan_coords):
    """Assemble a SymmetricPair from a faithful matrix representation;
    kappa is the trace form, sigma is +1 on h_mats and -1 on q_mats."""
    mats = [_mat(m) for m in h_mats] + [_mat(m) for m in q_mats]
    dim = len(mats)
    size = len(mats[0])
    nn = size * size
    # each basis matrix flattened and tagged with e_k in one span, so a
    # commutator reduces to its flattened remainder followed by minus its
    # coordinates in the basis (as matrix_min_poly reduces its powers)
    span = LinearSpan(nn + dim)
    for k, m in enumerate(mats):
        span.add(_flat(m) + [Qi(1) if t == k else Qi(0) for t in range(dim)])
    structure = [[[Qi(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            v = span.reduce(_flat(_commutator(mats[i], mats[j])) + [Qi(0)] * dim)
            if any(not x.is_zero() for x in v[:nn]):
                raise CertificationError(
                    "brackets_closed", {"pair": name, "basis_pair": [i, j]}
                )
            structure[i][j] = [-x for x in v[nn:]]
            structure[j][i] = v[nn:]
    algebra = LieAlgebra(dim, structure)
    nh = len(h_mats)
    sigma = [
        [
            (Qi(1) if i < nh else Qi(-1)) if i == j else Qi(0)
            for j in range(dim)
        ]
        for i in range(dim)
    ]
    kappa = [[_trace_prod(mats[i], mats[j]) for j in range(dim)] for i in range(dim)]
    cartan = CartanSubspace(cartan_coords)
    return SymmetricPair(algebra, sigma, kappa, name=name, cartan=cartan)


def _build_sl2_so2():
    r = [[0, 1], [-1, 0]]
    e = [[1, 0], [0, -1]]
    f = [[0, 1], [1, 0]]
    return _pair_from_matrices("sl2-so2", [r], [e, f], [[0, 1, 0]])


# sl(3) split by A -> -I21 A^T I21, I21 = diag(1, 1, -1): the +1 and -1
# eigenvectors of the involution, as integer matrices
SL3_SO21_H = [
    [[0, 1, 0], [-1, 0, 0], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
    [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
]
SL3_SO21_Q = [
    [[1, 0, 0], [0, 0, 0], [0, 0, -1]],
    [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    [[0, 0, 1], [0, 0, 0], [-1, 0, 0]],
    [[0, 0, 0], [0, 1, 0], [0, 0, -1]],
    [[0, 0, 0], [0, 0, 1], [0, -1, 0]],
]


def _build_sl3_so21():
    # Cartan subspace: x-direction q1 - 2*q4, y-direction q3
    cartan = [
        [0, 0, 0, 1, 0, 0, -2, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
    ]
    return _pair_from_matrices("sl3-so21", SL3_SO21_H, SL3_SO21_Q, cartan)


def _build_abelian2():
    zero = [[[Qi(0)] * 2 for _ in range(2)] for _ in range(2)]
    algebra = LieAlgebra(2, zero)
    sigma = [[-1, 0], [0, -1]]
    kappa = [[1, 0], [0, 1]]
    cartan = CartanSubspace([[1, 0], [0, 1]])
    return SymmetricPair(algebra, sigma, kappa, name="abelian2", cartan=cartan)


def _build_sl2_diagonal():
    H = [[1, 0], [0, -1]]
    E = [[0, 1], [0, 0]]
    F = [[0, 0], [1, 0]]

    def block(u, v):
        out = [[0] * 4 for _ in range(4)]
        for r in range(2):
            for c in range(2):
                out[r][c] = u[r][c]
                out[2 + r][2 + c] = v[r][c]
        return out

    h_mats = [block(u, u) for u in (H, E, F)]
    q_mats = [block(u, [[-x for x in row] for row in u]) for u in (H, E, F)]
    cartan = [[0, 0, 0, 1, 0, 0]]
    return _pair_from_matrices("sl2-diagonal", h_mats, q_mats, cartan)


_BUILDERS = {
    "sl2-so2": _build_sl2_so2,
    "sl3-so21": _build_sl3_so21,
    "abelian2": _build_abelian2,
    "sl2-diagonal": _build_sl2_diagonal,
}


@functools.cache
def catalog_pair(name):
    """The named built-in pair, built and fully validated on first use."""
    if name not in _BUILDERS:
        raise ValueError(f"unknown pair {name!r}")
    return _BUILDERS[name]()


def catalog():
    """Every built-in symmetric pair, in catalog order."""
    return [catalog_pair(name) for name in _BUILDERS]


# ---------------------------------------------------------------- loading

# largest pair dim a definition document may declare, checked before the
# dim^3 structure constants are allocated; sl5/so5 (dim 24) is the next
# scale target
MAX_PAIR_DIM = 24


def load_pair(definition):
    """Build a SymmetricPair from its JSON-style definition document."""
    try:
        dim = definition["dim"]
        brackets = definition["brackets"]
        sigma = definition["sigma"]
    except KeyError as e:
        raise ValueError(f"pair definition is missing key {e.args[0]!r}") from None
    # a JSON integer only: no float, string or bool is read as one
    if type(dim) is not int:
        raise ValueError(f"pair definition dim must be an integer, not {dim!r}")
    if dim < 1:
        raise ValueError(f"pair definition dim must be positive, not {dim}")
    if dim > MAX_PAIR_DIM:
        raise ValueError(f"pair definition dim {dim} exceeds the bound {MAX_PAIR_DIM}")
    name = definition.get("name", "")
    if type(name) is not str:
        raise ValueError(f"pair definition name must be a string, not {name!r}")
    if not isinstance(brackets, list):
        raise ValueError("pair definition brackets must be a list of entries")
    cartan_rows = definition.get("cartan") or []
    if not isinstance(cartan_rows, list) or any(
        not isinstance(r, list) for r in cartan_rows
    ):
        raise ValueError("pair definition cartan must be a list of vectors")

    c = [[[Qi(0)] * dim for _ in range(dim)] for _ in range(dim)]
    given = {}
    for entry in brackets:
        if not (isinstance(entry, list) and len(entry) == 4) or any(
            type(x) is not int for x in entry[:3]
        ):
            raise ValueError(f"bad bracket entry {entry!r}")
        i, j, k = entry[:3]
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValueError(f"bracket entry {entry!r} is out of range")
        if (i, j, k) in given:
            raise ValueError(f"duplicate bracket entry for ({i}, {j}, {k})")
        val = _scalar(entry[3])
        given[(i, j, k)] = val
        c[i][j][k] = val
    for (i, j, k), val in given.items():
        if (j, i, k) not in given:
            c[j][i][k] = -val
    algebra = LieAlgebra(dim, c)
    kappa = definition.get("kappa")
    if kappa is None:
        kappa = algebra.killing()

    cartan = CartanSubspace(_mat(cartan_rows)) if cartan_rows else None
    return SymmetricPair(algebra, sigma, kappa, name=name, cartan=cartan)
