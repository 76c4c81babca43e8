"""Closure operators on an extension R <= S.

The elementwise closures come from the quadratic witness polynomials
p_r(X) = X^2 - r X: an element b of S is witnessed over a subring B when
p_r(b) and b * p_r(b) both land in B, with r = 0 (seminormalization), r = 1
(u-closure) or r ranging over B (t-closure).  Each closure is computed as a
fixpoint of adjoining witnessed elements; lattice-based oracles (least
closed node, greatest integral node reached by elementary steps) are kept
separate so the two routes can be compared.
"""

import numpy as np

from .spectrum import Extension, is_unramified, tensor_square
from .structure import _nilpotent_mask, maximal_ideals, residue_field
from .submodule import Subalgebra, subring_generated

X_KINDS = ("s", "u", "t")


def _witness_mask(top, B, kind):
    """Boolean mask over top.elements_array(): which b are witnessed over B.

    A witness is r with b^2 - r b and b^3 - r b^2 both in B, where r = 0
    (kind 's'), r = 1 (kind 'u') or r ranges over B (kind 't').
    """
    arr = top.elements_array()
    orders = top.np_orders
    b2 = top.mul_rows(arr, arr)
    b3 = top.mul_rows(b2, arr)
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


def sorted_elements(top):
    if "sorted_elements" not in top._cache:
        top._cache["sorted_elements"] = sorted(top.elements())
    return top._cache["sorted_elements"]


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
        B = subring_generated(top, list(B.basis) + extra)


def seminormalization(ext):
    return x_closure(ext, "s")


def t_closure(ext):
    return x_closure(ext, "t")


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
        n for n in lattice.nodes if is_x_closed(ext, kind, bottom=n)
    ]
    least = min(closed, key=lambda n: n.size)
    assert all(least <= n for n in closed), "closed nodes must have a least"
    return least


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
            U = subring_generated(top, list(B.basis) + [b])
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
    delta = (
        np.array(ts.left.rows, dtype=np.int64)
        - np.array(ts.right.rows, dtype=np.int64)
    ) % T.np_orders
    arr = top.elements_array()
    imgs = (arr @ delta) % T.np_orders
    mask = _nilpotent_mask(T, imgs)
    members = [tuple(int(x) for x in row) for row in arr[mask]]
    sub = Subalgebra.from_generators(top, members)
    assert sub.size == int(mask.sum()), "radicial set must be additively closed"
    assert sub.is_subring()
    for b in ext.bottom.basis:
        assert sub.contains(b)
    return sub


def omega_closure(lattice):
    """Greatest node T with R <= T unramified."""
    good = []
    for n in lattice.nodes:
        ext_n, _ = lattice.sub_extension(lattice.bottom, n)
        if is_unramified(ext_n):
            good.append(n)
    best = max(good, key=lambda n: n.size)
    assert all(n <= best for n in good), "unramified nodes must have a top"
    return best


def _residual_morphisms(lattice, node):
    ext_n, _ = lattice.sub_extension(lattice.bottom, node)
    return [ext_n.residual_extension(N) for N in maximal_ideals(ext_n.top)]


def is_separable_residual(phi):
    """Is the finite field extension given by phi separable?

    Checked honestly via the minimal polynomial of a primitive element and
    its derivative (always separable for finite fields, but computed).
    """
    k, K = phi.source, phi.target
    q = k.size
    img = phi.image_elements()
    # primitive element: any generator of K* works; scan for one
    prim = None
    for v in sorted(K.elements()):
        if subring_generated(K, [v] + [r for r in phi.rows]).size == K.size:
            prim = v
            break
    if prim is None:
        prim = K.one
    f = _min_poly(phi, prim)
    fp = _derivative(f, k)
    return _poly_gcd_is_one(f, fp, k)


def _min_poly(phi, v):
    """Minimal polynomial of v over the image of phi, coefficients in source."""
    k, K = phi.source, phi.target
    powers = [K.one]
    while True:
        powers.append(K._mul(powers[-1], v))
        # find coefficients c_i in k with sum c_i v^i = v^d (least d wins)
        sol = _solve_lin_comb(phi, powers[:-1], powers[-1])
        if sol is not None:
            # monic: X^d - sum sol[i] X^i
            return [k._neg(c) for c in sol] + [k.one]


def _solve_lin_comb(phi, basis_powers, target):
    """Coefficients c_i in the source field with sum phi(c_i)*b_i = target."""
    k, K = phi.source, phi.target
    import itertools

    for combo in itertools.product(k.elements(), repeat=len(basis_powers)):
        acc = K.zero_vec()
        for c, b in zip(combo, basis_powers):
            acc = K._add(acc, K._mul(phi.apply(c), b))
        if acc == target:
            return list(combo)
    return None


def _derivative(f, k):
    return [k._smul(i + 1, c) for i, c in enumerate(f[1:])]


def _poly_gcd_is_one(f, g, k):
    """gcd(f, g) constant, for polynomials over the field k."""

    def norm(p):
        while p and not any(p[-1]):
            p = p[:-1]
        return p

    def pdiv(a, b):
        a = list(a)
        lead_inv = _field_inverse(k, b[-1])
        while len(a) >= len(b) and norm(a):
            c = k._mul(a[-1], lead_inv)
            off = len(a) - len(b)
            for i, bc in enumerate(b):
                a[off + i] = k._sub(a[off + i], k._mul(c, bc))
            a = norm(a)
            if not a:
                break
        return a

    a, b = norm(list(f)), norm(list(g))
    while b:
        a, b = b, norm(pdiv(a, b))
    return len(a) == 1


def _field_inverse(k, v):
    return k._pow(v, k.size - 2)


def is_radicial_residual(phi):
    """Is phi purely inseparable: every target element has a p-power in the image."""
    K = phi.target
    p = K.char
    img = phi.image_elements()
    bound = K.size
    for v in K.elements():
        x = v
        e = 1
        ok = False
        while e <= bound:
            if x in img:
                ok = True
                break
            x = K._pow(x, p)
            e *= p
        if not ok:
            return False
    return True


def kappa_separable_closure(lattice):
    """Greatest node T with all residual extensions of R <= T separable."""
    good = []
    for n in lattice.nodes:
        if all(is_separable_residual(phi) for phi in _residual_morphisms(lattice, n)):
            good.append(n)
    best = max(good, key=lambda n: n.size)
    assert all(n <= best for n in good)
    return best


def kappa_radicial_closure(lattice):
    """Greatest node T with all residual extensions of R <= T radicial."""
    good = []
    for n in lattice.nodes:
        if all(is_radicial_residual(phi) for phi in _residual_morphisms(lattice, n)):
            good.append(n)
    best = max(good, key=lambda n: n.size)
    assert all(n <= best for n in good)
    return best


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
