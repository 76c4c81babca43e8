"""Closure operators on an extension R <= S.

The elementwise closures come from the quadratic witness polynomials
p_r(X) = X^2 - r X: an element b of S is witnessed over a subring B when
p_r(b) and b * p_r(b) both land in B, with r = 0 (seminormalization), r = 1
(u-closure) or r ranging over B (t-closure).  Two of them are computed by
linear algebra on spans, since S is finite, so integral over R, and its
Jacobson radical J(S) is its nilradical:

  * the seminormalization is R + J(S): a subintegral T has T/J(T) = R/J(R),
    so T = R + J(T), and R + J(S) is a ring with R's residue fields;
  * the t-closure is the intersection of the R + N over the maximal ideals
    N of S: an infra-integral T takes every residue from R, so T <= R + N,
    and the intersection is a ring with R's residue fields.

The u-closure is the fixpoint of adjoining witnessed elements, and that
fixpoint (`x_closure`) stays for every kind beside the lattice oracles
(least closed node, greatest node reached by elementary steps), so the
routes can be compared.
"""

from functools import reduce

import numpy as np

from .spectrum import is_unramified, tensor_square
from .linalg import howell_form, kernel_mod
from .memo import memo
from .ring import exact_log, is_prime
from .structure import _nilpotent_mask, maximal_ideals, nilradical
from .submodule import Subalgebra, Submodule, subring_generated

X_KINDS = ("s", "u", "t")


@memo
def _squares_and_cubes(top):
    """b^2 and b^3 for every b of top.elements_array(), formed once per ring:
    the lattice oracles ask for witnesses over every node of the same top."""
    arr = top.elements_array()
    b2 = top.mul_rows(arr, arr)
    b3 = top.mul_rows(b2, arr)
    b2.flags.writeable = b3.flags.writeable = False
    return b2, b3


def _witness_mask(top, B, kind):
    """Boolean mask over top.elements_array(): which b are witnessed over B.

    A witness is r with b^2 - r b and b^3 - r b^2 both in B, where r = 0
    (kind 's'), r = 1 (kind 'u') or r ranges over B (kind 't').
    """
    arr = top.elements_array()
    orders = top.np_orders
    b2, b3 = _squares_and_cubes(top)
    if kind == "s":
        return B.contains_many(b2) & B.contains_many(b3)
    if kind == "u":
        return B.contains_many((b2 - arr) % orders) & B.contains_many(
            (b3 - b2) % orders
        )
    assert kind == "t"
    Barr = B.elements_array()
    mats = top.mul_matrices(Barr)
    n = top.rank
    out = np.zeros(len(arr), dtype=bool)
    # chunk the b-axis so the pairwise (b, r) arrays stay small
    chunk = max(1, 10**6 // max(1, B.size * n))
    for lo in range(0, len(arr), chunk):
        a = arr[lo:lo + chunk]
        q2 = b2[lo:lo + chunk]
        q3 = b3[lo:lo + chunk]
        rb = top.mul_pairs(a, Barr, mats)
        rb2 = top.mul_pairs(q2, Barr, mats)
        v1 = (q2[:, None, :] - rb) % orders
        v2 = (q3[:, None, :] - rb2) % orders
        ok = B.contains_many(v1.reshape(-1, n)) & B.contains_many(
            v2.reshape(-1, n)
        )
        out[lo:lo + chunk] = ok.reshape(rb.shape[:2]).any(axis=1)
    return out


def witnessed_elements(top, B, kind):
    """All b in S \\ B that are elementary over B for the given kind."""
    arr = top.elements_array()
    mask = _witness_mask(top, B, kind) & ~B.contains_many(arr)
    return [tuple(int(x) for x in row) for row in arr[mask]]


def is_x_closed(ext, kind, bottom=None):
    """Is the bottom x-closed in the top: no witnessed element outside it."""
    B = ext.bottom if bottom is None else bottom
    return not witnessed_elements(ext.top, B, kind)


def x_closure(ext, kind):
    """The least x-closed intermediate ring, by witness fixpoint."""
    top = ext.top
    B = ext.bottom
    while True:
        extra = witnessed_elements(top, B, kind)
        if not extra:
            return B
        B = subring_generated(top, extra, over=B)


def _sum(B, A):
    """The span B + A, kept as a subalgebra: the callers add an ideal of
    the top to a subring, which gives a subring."""
    amb = B.ambient
    return Subalgebra(amb, howell_form(A.hrows, amb.rank, amb.L, B.hrows))


def seminormalization(ext):
    """The seminormalization R + J(S)."""
    return _sum(ext.bottom, nilradical(ext.top))


def t_closure(ext):
    """The t-closure, the intersection of the R + N over Max(S)."""
    return reduce(lambda T, U: T.intersect(U),
                  [_sum(ext.bottom, N) for N in maximal_ideals(ext.top)])


def u_closure(ext):
    return x_closure(ext, "u")


def is_seminormal(ext):
    return is_x_closed(ext, "s")


def is_t_closed(ext):
    return is_x_closed(ext, "t")


def is_u_closed(ext):
    return is_x_closed(ext, "u")


# -- lattice oracles ---------------------------------------------------


def x_closure_via_least_closed(lattice, kind):
    """Oracle: the least node B with B <= S x-closed."""
    ext = lattice.ext
    closed = [
        i for i, n in enumerate(lattice.nodes)
        if is_x_closed(ext, kind, bottom=n)
    ]
    least = lattice.least(closed)
    assert least is not None, "closed nodes must have a least"
    return lattice.nodes[least]


def x_integral_hull(lattice, kind):
    """Oracle: greatest node reachable from the bottom by x-elementary steps.

    For finite extensions x-integral = reachable by a tower of elementary
    adjunctions, so the hull is the largest reachable node.
    """
    top = lattice.ambient
    reached = {lattice.bottom.key}
    frontier = [lattice.bottom]
    while frontier:
        B = frontier.pop()
        for b in witnessed_elements(top, B, kind):
            U = subring_generated(top, [b], over=B)
            if U.key not in reached:
                reached.add(U.key)
                frontier.append(lattice.nodes[lattice.index[U.key]])
    nodes = [lattice.nodes[lattice.index[k]] for k in reached]
    best = max(nodes, key=lambda n: n.size)
    assert all(n <= best for n in nodes), "reachable set must have a top"
    return best


# -- tensor-based and residual closures --------------------------------


def radicial_closure(ext):
    """{x in S : x(x)1 - 1(x)x nilpotent in S (x)_R S}; a subring over R."""
    ts = tensor_square(ext)
    T = ts.ring
    top = ext.top
    delta = (ts.left.matrix - ts.right.matrix) % T.np_orders
    arr = top.elements_array()
    imgs = (arr @ delta) % T.np_orders
    mask = _nilpotent_mask(T, imgs)
    sub = Subalgebra.from_generators(top, arr[mask])
    assert sub.size == int(mask.sum()), "radicial set must be additively closed"
    assert sub.is_subring()
    assert ext.bottom <= sub
    return sub


def omega_closure(lattice):
    """Greatest node T with R <= T unramified."""
    return lattice.greatest(is_unramified)


def primitive_min_poly(phi):
    """Minimal polynomial over the source of phi of the first element that
    generates the target field over the image of phi.

    With q = |source| and |target| = q^m, an element v generates the target
    over the image iff it lies in no proper subfield containing the image,
    that is iff v^(q^(m/r)) != v for every prime r dividing m; every
    element is tested at once, in lexicographic order.
    """
    K = phi.target
    q = phi.source.size
    m = exact_log(K.size, q)
    assert m is not None, "a field extension has q^m elements"
    X = K.elements_array()
    generates = np.ones(len(X), dtype=bool)
    for r in range(2, m + 1):
        if m % r == 0 and is_prime(r):
            generates &= (K.pow_rows(X, q ** (m // r)) != X).any(axis=1)
    return _min_poly(phi, X[generates.argmax()])


def is_separable_residual(phi):
    """Is the finite field extension given by phi separable?

    Checked honestly via the minimal polynomial of a primitive element and
    its derivative (always separable for finite fields, but computed).
    """
    f = primitive_min_poly(phi)
    fp = _derivative(f, phi.source)
    return _poly_gcd_is_one(f, fp, phi.source)


def _min_poly(phi, v):
    """Minimal polynomial of v over the image of phi, coefficients in source.

    Polynomials are int64 arrays whose row i is the coefficient of X^i.
    """
    k, K = phi.source, phi.target
    powers = np.array([K.one], dtype=np.int64)
    while True:
        powers = np.vstack([powers, K.mul_rows(powers[-1], v)])
        # find coefficients c_i in k with sum c_i v^i = v^d (least d wins)
        sol = _solve_lin_comb(phi, powers[:-1], powers[-1])
        if sol is not None:
            # monic: X^d - sum sol[i] X^i
            sol = np.array(sol, dtype=np.int64).reshape(-1, k.rank)
            return np.vstack([(-sol) % k.np_orders, [k.one]])


def _solve_lin_comb(phi, basis_powers, target):
    """Coefficients c_i in the source field with sum phi(c_i)*b_i = target.

    One kernel over F_p of the products phi(e_s)*b_i, e_s the source basis,
    stacked on the target: a kernel vector with last entry -1 holds the
    coordinates of the c_i, returned as one tuple per c_i.  `_min_poly`
    solves only over powers that are independent over the source, where a
    solution is unique.
    """
    k, K = phi.source, phi.target
    p = K.L
    rows = K.mul_pairs(basis_powers, phi.matrix).reshape(-1, K.rank)
    for a in kernel_mod(np.vstack([rows, [target]]).tolist(), K.rank, p):
        if a[-1]:
            scale = (-pow(a[-1], -1, p)) % p
            x = [(scale * c) % p for c in a[:-1]]
            return [tuple(x[i:i + k.rank]) for i in range(0, len(x), k.rank)]
    return None


def _derivative(f, k):
    return (np.arange(1, len(f))[:, None] * f[1:]) % k.np_orders


def _poly_gcd_is_one(f, g, k):
    """gcd(f, g) constant, for polynomials over the field k."""

    def norm(p):
        nonzero = np.flatnonzero(p.any(axis=1))
        return p[:nonzero[-1] + 1] if len(nonzero) else p[:0]

    def pdiv(a, b):
        lead_inv = k.pow_rows(b[-1], k.size - 2)
        while len(a) >= len(b):
            c = k.mul_rows(a[-1], lead_inv)
            off = len(a) - len(b)
            a = a.copy()
            a[off:] = (a[off:] - k.mul_pairs(b, c)[:, 0]) % k.np_orders
            a = norm(a)
        return a

    a, b = norm(f), norm(g)
    while len(b):
        a, b = b, norm(pdiv(a, b))
    return len(a) == 1


def is_radicial_residual(phi):
    """Is phi purely inseparable: every target element has a p-power in the image."""
    K = phi.target
    p = K.char
    img = Submodule.from_generators(K, phi.matrix)
    X = K.elements_array()
    ok = img.contains_many(X)
    # v, v^p, v^(p^2), ... while the exponent stays within |K|
    e = p
    while e <= K.size and not ok.all():
        X = K.pow_rows(X, p)
        ok |= img.contains_many(X)
        e *= p
    return bool(ok.all())


def kappa_separable_closure(lattice):
    """Greatest node T with all residual extensions of R <= T separable."""
    return lattice.greatest(
        lambda e: all(map(is_separable_residual, e.residual_extensions()))
    )


def kappa_radicial_closure(lattice):
    """Greatest node T with all residual extensions of R <= T radicial."""
    return lattice.greatest(
        lambda e: all(map(is_radicial_residual, e.residual_extensions()))
    )


def closure_report(lattice):
    """All closure nodes of the extension, as a dict of Subalgebras."""
    ext = lattice.ext
    return {
        "plus": seminormalization(ext),
        "t": t_closure(ext),
        "u": u_closure(ext),
        "radicial": radicial_closure(ext),
        "omega": omega_closure(lattice),
        "kappa_separable": kappa_separable_closure(lattice),
        "kappa_radicial": kappa_radicial_closure(lattice),
    }
