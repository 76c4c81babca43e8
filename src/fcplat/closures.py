"""Closure operators on an extension R <= S.

Every closure of `closure_report` is one node of [R, S], read by linear
algebra on spans in S's coordinates; none builds a ring.

The elementwise closures come from the quadratic witness polynomials
p_r(X) = X^2 - r X: an element b of S is witnessed over a subring B when
p_r(b) and b * p_r(b) both land in B, with r = 0 (seminormalization), r = 1
(u-closure) or r ranging over B (t-closure).  S is finite, so integral over
R, and its Jacobson radical J(S) is its nilradical.  So each is a span:

  * the seminormalization is R + J(S): a subintegral T has T/J(T) = R/J(R),
    so T = R + J(T), and R + J(S) is a ring with R's residue fields;
  * the t-closure is the intersection of the R + N over the maximal ideals
    N of S: an infra-integral T takes every residue from R, so T <= R + N,
    and the intersection is a ring with R's residue fields;
  * the u-closure is R[Idem(S)] = sum_e R*e over the primitive idempotents
    e of S.  Every idempotent is u-elementary over every B, since
    e^2 - e = e^3 - e^2 = 0, so the u-closure holds them all.  Conversely,
    let B >= R hold every idempotent of S and let b be u-elementary over B,
    with c = b^2 - b.  Then B[b] = B + Bb and c*B[b] <= B, because
    cb = b^3 - b^2 lies in B; so c lies in the conductor C = (B : B[b]), and
    b is an idempotent mod C.  B[b] is finite, so a product of local rings,
    and idempotents lift modulo any ideal: b = e mod C for an idempotent e
    of B[b].  Both e and C lie in B, so b does, and B is u-closed.  Last, a
    product of primitive idempotents is 0 or the idempotent itself, and they
    sum to 1, so R[Idem(S)] = sum_e R*e.

The witness fixpoint (`x_closure`) stays for every kind beside the lattice
oracles (least closed node, greatest node reached by elementary steps), so
verify can compare the routes.  Given a node U, it reads the x-closure of R
in U in S: the witness conditions name only elements of U.

The omega-closure, the greatest node T with R <= T unramified, is decided
on each node by the local criterion read in S (`is_unramified_local`).  The
radicial closure, {x in S : x (x) 1 - 1 (x) x nilpotent in S (x)_R S}, is
the greatest radicial node: injective on spectra with purely inseparable
residual extensions.  The residue fields are finite, so perfect, and such
residual extensions are isomorphisms; a radicial node is then subintegral,
and the radicial closure is R + J(S).  `radicial_closure` computes it from
the tensor square, as verify's second route.

The kappa-closures are read in S: a residual extension of R <= T is the
pair k <= K of the images of R and T in a residue field F = S/N
(`Extension.residual_extensions`), and the field routines work on such
spans of F, with minimal polynomials by one kernel over F_p per degree.
"""

from functools import reduce

import numpy as np

from .spectrum import is_unramified_local, tensor_square
from .linalg import howell_contains, howell_form, kernel_mod, scale_rows
from .memo import memo
from .ring import exact_log, is_prime, require
from .structure import (
    _nilpotent_mask,
    maximal_ideals,
    nilradical,
    primitive_idempotents,
)
from .submodule import Subalgebra, subring_generated

X_KINDS = ("s", "u", "t")


@memo
def _squares_and_cubes(top, high=None):
    """The members b of high, a subring of top (top itself by default),
    with b^2 and b^3, formed once per span: the lattice oracles ask for
    witnesses over every node of the same top."""
    arr = (top if high is None else high).elements_array()
    b2 = top.mul_rows(arr, arr)
    b3 = top.mul_rows(b2, arr)
    b2.flags.writeable = b3.flags.writeable = False
    return arr, b2, b3


def witnessed_elements(top, B, kind, high=None):
    """All b in high \\ B that are elementary over B for the given kind,
    high a subring of top containing B (top itself by default).

    A witness is r with b^2 - r b and b^3 - r b^2 both in B, where r = 0
    (kind 's'), r = 1 (kind 'u') or r ranges over B (kind 't').  Only the
    b of high outside B are tested, and for kind 't' the b^3 - r b^2 only
    for the pairs (b, r) whose b^2 - r b already lies in B.
    """
    arr, b2, b3 = _squares_and_cubes(top, high)
    outside = np.flatnonzero(~B.contains_many(arr))
    arr, b2, b3 = arr[outside], b2[outside], b3[outside]
    orders = top.np_orders
    if kind == "s":
        ok = B.contains_many(b2) & B.contains_many(b3)
    elif kind == "u":
        ok = B.contains_many((b2 - arr) % orders) & B.contains_many(
            (b3 - b2) % orders
        )
    else:
        assert kind == "t"
        n = top.rank
        Barr = B.elements_array()
        mats = top.mul_matrices(Barr)
        # the matrix of multiplication by Barr[j] is block j of mats
        blocks = mats.reshape(n, len(Barr), n).transpose(1, 0, 2)
        ok = np.zeros(len(arr), dtype=bool)
        # chunk the b-axis so the pairwise (b, r) arrays stay small
        chunk = max(1, 10**6 // max(1, B.size * n))
        for lo in range(0, len(arr), chunk):
            rb = top.mul_pairs(arr[lo:lo + chunk], Barr, mats)
            v1 = (b2[lo:lo + chunk, None, :] - rb) % orders
            hit = B.contains_many(v1.reshape(-1, n))
            i, j = np.divmod(np.flatnonzero(hit), len(Barr))
            i += lo
            rb2 = (b2[i, None, :] @ blocks[j])[:, 0]
            v2 = (b3[i] - rb2) % orders
            ok[i[B.contains_many(v2)]] = True
    return [tuple(int(x) for x in row) for row in arr[ok]]


def is_x_closed(ext, kind, bottom=None):
    """Is the bottom x-closed in the top: no witnessed element outside it."""
    B = ext.bottom if bottom is None else bottom
    return not witnessed_elements(ext.top, B, kind)


def x_closure(ext, kind, high=None):
    """The least x-closed intermediate ring of R <= high, high a node of
    [R, S] (S by default), by witness fixpoint over the members of high."""
    top = ext.top
    B = ext.bottom
    while True:
        extra = witnessed_elements(top, B, kind, high)
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
    """The u-closure, the span of the R*e over the primitive idempotents e
    of S."""
    top = ext.top
    prods = top.mul_pairs(ext.bottom.basis_array(), primitive_idempotents(top))
    return Subalgebra.from_generators(top, prods)


# -- lattice oracles ---------------------------------------------------


def x_closure_via_least_closed(lattice, kind):
    """Oracle: the least node B with B <= S x-closed."""
    ext = lattice.ext
    closed = [
        i for i, n in enumerate(lattice.nodes)
        if is_x_closed(ext, kind, bottom=n)
    ]
    least = lattice.least(closed)
    require(least is not None, "closed nodes must have a least")
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
        wit = np.array(witnessed_elements(top, B, kind), dtype=np.int64)
        # B[b] depends only on b + B: one b per coset, told apart by its
        # residual against B's Howell basis
        V = scale_rows(wit, top.np_orders, top.L)
        res = howell_contains(V, B.howell_basis(), top.L)[1]
        for b in wit[np.unique(res, axis=0, return_index=True)[1]]:
            U = subring_generated(top, [b], over=B)
            if U.key not in reached:
                reached.add(U.key)
                frontier.append(lattice.nodes[lattice.index[U.key]])
    nodes = [lattice.nodes[lattice.index[k]] for k in reached]
    best = max(nodes, key=lambda n: n.size)
    require(all(n <= best for n in nodes), "reachable set must have a top")
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
    require(sub.size == int(mask.sum()) and sub.is_subring()
            and ext.bottom <= sub,
            "the radicial set must be a subring over the bottom")
    return sub


def omega_closure(lattice):
    """Greatest node T with R <= T unramified, by the local criterion."""
    ext = lattice.ext
    return lattice.greatest(lambda T: is_unramified_local(ext, T))


def primitive_element(k, K):
    """The first element of K, in lexicographic order, that generates K
    over k, for subfields k <= K of one finite field.

    With q = |k| and |K| = q^m, an element v generates K over k iff it lies
    in no proper subfield of K containing k, that is iff v^(q^(m/r)) != v
    for every prime r dividing m; every element is tested at once.
    """
    F = K.ambient
    q = k.size
    m = exact_log(K.size, q)
    require(m is not None, "a field extension has q^m elements")
    X = K.elements_array()
    generates = np.ones(len(X), dtype=bool)
    for r in range(2, m + 1):
        if m % r == 0 and is_prime(r):
            generates &= (F.pow_rows(X, q ** (m // r)) != X).any(axis=1)
    return X[generates.argmax()]


def _min_poly(F, gens, v):
    """The minimal polynomial X^d + sum_i c_i X^i of v in the field F over
    the subfield spanned by the rows gens.

    For d = 1, 2, ... one kernel over F_p of the products g * v^i (g in
    gens, i < d) stacked on v^d: a kernel vector with last entry 1 holds
    coordinates of the c_i over gens.  Returns them as a (d, len(gens))
    array, row i for c_i; they are unique modulo the relations among the
    gens, and any choice gives the same c_i.
    """
    p = F.L
    gens = np.asarray(gens, dtype=np.int64).reshape(-1, F.rank)
    powers = np.array([F.one], dtype=np.int64)
    while True:
        powers = np.vstack([powers, F.mul_rows(powers[-1], v)])
        rows = F.mul_pairs(powers[:-1], gens).reshape(-1, F.rank)
        for a in kernel_mod(np.vstack([rows, powers[-1:]]).tolist(), F.rank, p):
            if a[-1]:
                c = np.array(a[:-1], dtype=np.int64) * pow(a[-1], -1, p) % p
                return c.reshape(len(powers) - 1, len(gens))


def primitive_min_poly(k, K, gens):
    """The minimal polynomial over k of `primitive_element(k, K)`, as
    coordinates of its lower coefficients over the rows gens, which span k;
    see `_min_poly`."""
    return _min_poly(K.ambient, gens, primitive_element(k, K))


def is_separable_residual(k, K):
    """Is the extension k <= K of subfields of one finite field separable?

    Checked honestly via the minimal polynomial f of a primitive element
    (always separable for finite fields, but computed): gcd(f, f') = 1,
    with f' and the gcd taken in the ambient field, since a gcd does not
    change under extension of scalars.
    """
    F = K.ambient
    gens = k.basis_array()
    f = np.vstack([(primitive_min_poly(k, K, gens) @ gens) % F.np_orders,
                   [F.one]])
    return _poly_gcd_is_one(f, _derivative(f, F), F)


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


def is_radicial_residual(k, K):
    """Is the extension k <= K of subfields of one finite field purely
    inseparable: every element of K has a p-power in k?"""
    F = K.ambient
    p = F.char
    X = K.elements_array()
    ok = k.contains_many(X)
    # v, v^p, v^(p^2), ... while the exponent stays within |K|
    e = p
    while e <= K.size and not ok.all():
        X = F.pow_rows(X, p)
        ok |= k.contains_many(X)
        e *= p
    return bool(ok.all())


def _greatest_residually(lattice, test):
    """Greatest node T whose residual extensions k <= K all pass test, read
    as pairs of subfields of the residue fields of S."""
    ext = lattice.ext
    return lattice.greatest(
        lambda T: all(test(k, K) for k, K in ext.residual_extensions(T))
    )


def kappa_separable_closure(lattice):
    """Greatest node T with all residual extensions of R <= T separable."""
    return _greatest_residually(lattice, is_separable_residual)


def kappa_radicial_closure(lattice):
    """Greatest node T with all residual extensions of R <= T radicial."""
    return _greatest_residually(lattice, is_radicial_residual)


def closure_report(lattice):
    """All closure nodes of the extension, as a dict of Subalgebras; the
    radicial closure is the seminormalization (see the module docstring)."""
    ext = lattice.ext
    plus = seminormalization(ext)
    return {
        "plus": plus,
        "t": t_closure(ext),
        "u": u_closure(ext),
        "radicial": plus,
        "omega": omega_closure(lattice),
        "kappa_separable": kappa_separable_closure(lattice),
        "kappa_radicial": kappa_radicial_closure(lattice),
    }
