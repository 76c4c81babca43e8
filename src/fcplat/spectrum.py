"""Spectrum-level analysis of a ring extension R <= S.

The bottom ring is a unital subalgebra of the top ring, and its ideals,
idempotents and residue fields are read in S's coordinates: S is finite,
hence integral, over R, so the maximal ideals of R are the N cap R for N
maximal in S, and R/(N cap R) is the image of R in S/N.  So a residual
extension of R <= T, for any ring T between R and S, is a pair k <= K of
subfields of one residue field S/N, the images of R and of T, and no residue
ring is presented.  Local pieces are read in S as well: the local factor
of S at N is the span f*S for f its primitive idempotent, and the local
criteria for unramified and locally epimorphism cut S and S (x)_R S by f
and f (x) f.  The local unramified criterion also takes a ring T between R
and S (the `sub` argument): the maximal ideals of T are the Q = N cap T,
and the local factor of T at Q is f*T for f the sum of the primitive
idempotents of S at the N over Q (`Extension.max_ideal_pairs(T)`), so
R <= T is decided in S with no T presented, and so are the pair predicates
(i-extension, infra-integral, subintegral) of any nodes low <= high.
Everything here is computed exactly: residual field extensions, conductor
support, localization at a maximal ideal of the bottom, the tensor square
S (x)_R S by generators and relations, and the predicates built on it.

Two of those predicates need no tensor square: unramified is
Omega_{S/R} = 0, one Howell form of the relations of Omega in S^n, and
epimorphism is |S (x)_R S| = |S|, with that size read from one Howell form
of the tensor square's relation rows.  The tensor-square routes (I = I^2
for I the kernel of the codiagonal, the size of the built ring) stay as
cross-checks.
"""

import numpy as np

from .linalg import howell_form, kernel_mod, scale_rows, span_size
from .memo import memo
from .ring import RingMorphism, build_ring, require, ring_from_generators
from .structure import (
    local_factors,
    max_ideal_idempotent_pairs,
    maximal_ideals,
    residue_field,
)
from .submodule import Ideal, Subalgebra, Submodule, ideal_generated


class Extension:
    """A unital extension bottom <= top of finite commutative rings."""

    def __init__(self, top, bottom):
        self.top = top
        if not isinstance(bottom, Subalgebra):
            bottom = Subalgebra(top, bottom.hrows)
        self.bottom = bottom
        if not bottom.is_subring():
            raise ValueError(
                "bottom must contain the unit of the top ring and be closed "
                "under multiplication"
            )

    def __repr__(self):
        return f"Extension(|R|={self.bottom.size}, |S|={self.top.size})"

    @memo
    def conductor_ideal(self):
        """(R :_S S), an ideal of S contained in R."""
        S = self.top
        return Ideal(S, self.bottom.colon(Submodule.whole(S)).hrows)

    # -- lying over ----------------------------------------------------

    @memo
    def max_ideal_pairs(self, sub=None):
        """Pairs (f, Q), Q maximal in a subring sub of S (S by default) and
        f its primitive idempotent, sorted by the key of Q.

        The Q are the distinct N cap sub, and f is the sum of the primitive
        idempotents of S at the N over Q: f*S is the product of those local
        factors of S, and f*sub is the local factor of sub at Q.
        """
        sub = Subalgebra.whole(self.top) if sub is None else sub
        over = {}
        for f, N in max_ideal_idempotent_pairs(self.top):
            Q = N.intersect(sub)
            over.setdefault(Q.key, (Q, []))[1].append(f)
        out = []
        for key in sorted(over):
            Q, fs = over[key]
            f = np.sum(fs, axis=0) % self.top.np_orders
            out.append((tuple(f.tolist()), Q))
        return out

    def bottom_maximal_ideals(self):
        """The maximal ideals of the bottom, as subgroups of S."""
        return [P for _, P in self.max_ideal_pairs(self.bottom)]

    def is_i_extension(self, low=None, high=None):
        """Is the lying-over map Spec(high) -> Spec(low) injective, for
        nodes low <= high of [R, S] (the bottom and S by default)?"""
        low = self.bottom if low is None else low
        return len(self.max_ideal_pairs(low)) == len(self.max_ideal_pairs(high))

    @memo
    def residue_image(self, N, sub):
        """The image of a subring sub of S in the residue field S/N: the
        span of the projections of a basis of sub, a subfield of S/N
        isomorphic to sub/(N cap sub)."""
        kN, projN, _ = residue_field(self.top, N)
        return Submodule.from_generators(
            kN, projN.apply_rows(sub.basis_array())
        )

    def residual_extensions(self, sub=None):
        """The residual extensions of R <= sub (sub defaults to S), as pairs
        (image of R, image of sub) of subfields of S/N, one per maximal
        ideal N of S.  Every maximal ideal of sub is some N cap sub, so the
        pairs cover each of them, with repeats."""
        sub = Subalgebra.whole(self.top) if sub is None else sub
        return [(self.residue_image(N, self.bottom), self.residue_image(N, sub))
                for N in maximal_ideals(self.top)]

    def is_infra_integral(self, low=None, high=None):
        """Are all residual extensions of low <= high isomorphisms: is
        |high/Q| = |low/(Q cap low)| for every maximal ideal Q of high?"""
        low = self.bottom if low is None else low
        top = self.top if high is None else high
        return all(top.size // Q.size == low.size // Q.intersect(low).size
                   for _, Q in self.max_ideal_pairs(high))

    def is_subintegral(self, low=None, high=None):
        return (self.is_i_extension(low, high)
                and self.is_infra_integral(low, high))

    # -- support -------------------------------------------------------

    def supp(self):
        """V_R((R:S)): maximal ideals of the bottom over the conductor."""
        C = self.conductor_ideal()
        return [P for P in self.bottom_maximal_ideals() if C <= P]

    def msupp_quotient(self, lower, upper, base=None):
        """MSupp(upper/lower) for base-submodules lower <= upper of S, base
        a node of [R, S] (the bottom by default)."""
        out = []
        top = self.top
        base = self.bottom if base is None else base
        for e, P in self.max_ideal_pairs(base):
            lo, up = (
                Submodule.from_generators(top, top.mul_pairs(s.basis, e))
                for s in (lower, upper)
            )
            if lo != up:
                out.append(P)
        return out

    def msupp(self):
        return self.msupp_quotient(self.bottom, Submodule.whole(self.top))

    # -- localization --------------------------------------------------

    def localize_at(self, M):
        """The extension R_M <= S_M at a maximal ideal M of the bottom, one
        of `bottom_maximal_ideals()`.

        Since R is a product of local rings, localizing is cutting by the
        primitive idempotent attached to M.  Returns (extension, pres) where
        pres maps the localized top back into S.
        """
        e = next(e for e, P in self.max_ideal_pairs(self.bottom)
                 if P.key == M.key)
        top = self.top
        gens = top.mul_pairs(np.eye(top.rank, dtype=np.int64), e)
        pres = ring_from_generators(
            top, gens, e,
            label=f"{top.label}_loc", unital=False,
        )
        bot_gens = pres.from_ambient_rows(
            top.mul_pairs(self.bottom.basis, e)
        )
        bottom_loc = Subalgebra.from_generators(
            pres.ring, np.vstack([bot_gens, [pres.ring.one]])
        )
        return Extension(pres.ring, bottom_loc), pres


class TensorSquare:
    """S (x)_R S with its structural maps."""

    def __init__(self, ring, left, right, codiagonal):
        self.ring = ring
        self.left = left
        self.right = right
        self.codiagonal = codiagonal

    @memo
    def diagonal_kernel(self):
        """ker(codiagonal) as a submodule (in fact an ideal) of the tensor ring."""
        S = self.codiagonal.target
        rows = scale_rows(self.codiagonal.matrix, S.np_orders, S.L)
        ker = kernel_mod(rows.tolist(), S.rank, S.L)
        return Submodule.from_generators(self.ring, ker)


def _tensor_relations(ext):
    """The relation rows of S (x)_R S over its generators e_i (x) e_j, the
    generator (i, j) at index i * n + j: additive orders and bilinearity
    over R.  The group S (x)_R S is (Z/L)^(n^2) modulo their span."""
    S = ext.top
    n = S.rank
    k = n * n
    eye = np.eye(n, dtype=np.int64)
    # the order of e_i (x) e_j divides d_i and d_j
    orders = np.stack([np.repeat(S.np_orders, n), np.tile(S.np_orders, n)], 1)
    order_rels = np.einsum("gt,gh->gth", orders, np.eye(k, dtype=np.int64))
    # bilinearity over R: (r e_i) (x) e_j = e_i (x) (r e_j) for r in a basis
    # of R; RE[r, i] = r e_i, and the row of (r, i, j) lives on (a, b)
    RE = S.mul_pairs(ext.bottom.basis, eye)
    bil = (np.einsum("ria,jb->rijab", RE, eye)
           - np.einsum("rjb,ia->rijab", RE, eye)) % S.L
    return np.vstack([order_rels.reshape(-1, k), bil.reshape(-1, k)])


@memo
def tensor_square(ext):
    """Present S (x)_R S by generators e_i (x) e_j and bilinearity relations."""
    S = ext.top
    n = S.rank
    k = n * n
    C = S.npC
    eye = np.eye(n, dtype=np.int64)
    P = np.einsum("iau,jbv->ijabuv", C, C).reshape(k, k, k)
    one = np.outer(S.one, S.one).reshape(k)
    ring, to_new, lifts = build_ring(
        _tensor_relations(ext), k, S.L, P, one,
        label=f"{S.label}(x){S.label}",
    )
    one_row = np.array(S.one, dtype=np.int64)
    left = RingMorphism(S, ring, to_new(np.kron(eye, one_row)), check=False)
    right = RingMorphism(S, ring, to_new(np.kron(one_row, eye)), check=False)
    # lift g = (i, j) goes to e_i e_j
    codiag = RingMorphism(ring, S, (lifts @ C.reshape(k, n)) % S.np_orders,
                          check=False)
    require(np.array_equal(codiag.apply_rows(left.matrix), eye)
            and np.array_equal(codiag.apply_rows(right.matrix), eye),
            "the codiagonal must split both structural maps")
    return TensorSquare(ring, left, right, codiag)


@memo
def tensor_square_size(ext):
    """|S (x)_R S| as L^(n^2) over the size of the span of the relation
    rows of `tensor_square`: one Howell form, no ring built."""
    L = ext.top.L
    k = ext.top.rank ** 2
    rels = _tensor_relations(ext) % L
    span = howell_form(rels[rels.any(axis=1)].tolist(), k, L)
    return L ** k // span_size(span, L)


def is_epimorphism(ext):
    """R -> S is a ring epimorphism iff the codiagonal is an isomorphism,
    i.e. iff |S (x)_R S| = |S|."""
    return tensor_square_size(ext) == ext.top.size


@memo
def is_unramified(ext):
    """Is Omega_{S/R} = 0?  Omega_{S/R} is I/I^2 for I the kernel of the
    codiagonal (Matsumura, Commutative Ring Theory, section 25), so this is
    the criterion of `is_unramified_tensor` with no tensor square built.

    Omega_{S/R} is the S-module on the de_i modulo three kinds of relation
    rho, each kept as an n x n array whose row i is its coefficient at de_i:
    the Leibniz rules d(e_i e_j) = e_i de_j + e_j de_i, d_i de_i = 0 (S^n
    has exponent L, not d_i) and d(r) = 0 for r in a basis of R.  The
    S-submodule they span is the additive span of the e_l * rho, and
    Omega_{S/R} = 0 iff that is all of S^n: one Howell form.
    """
    S = ext.top
    n = S.rank
    L = S.L
    C = S.npC
    one = np.array(S.one, dtype=np.int64)
    eye = np.eye(n, dtype=np.int64)
    i, j = np.triu_indices(n)
    m = np.arange(len(i))
    # d(e_i e_j) = sum_k C[i, j, k] de_k, less e_i de_j and e_j de_i
    leibniz = C[i, j][:, :, None] * one
    leibniz[m, j] -= eye[i]
    leibniz[m, i] -= eye[j]
    orders = np.diag(S.np_orders)[:, :, None] * one
    d_bottom = ext.bottom.basis_array()[:, :, None] * one
    rels = np.concatenate([leibniz, orders, d_bottom]) % L
    # e_l * rho, row i of rho times the multiplication matrix C[l] of e_l
    rows = np.tensordot(rels, C, axes=(2, 1)).transpose(0, 2, 1, 3)
    rows = scale_rows(rows.reshape(-1, n * n), np.tile(S.np_orders, n), L)
    rows = rows[rows.any(axis=1)]
    return span_size(howell_form(rows.tolist(), n * n, L), L) == S.size ** n


def is_unramified_tensor(ext):
    """Is I = I^2 for I the kernel of the codiagonal S (x)_R S -> S?"""
    ts = tensor_square(ext)
    I = ts.diagonal_kernel()
    T = ts.ring
    B = np.array(I.basis, dtype=np.int64)
    # commutative, so the products a*b with a before b span I^2
    i, j = np.triu_indices(len(B))
    return not I.basis or I == (
        Submodule.from_generators(T, T.mul_pairs(B, B)[i, j])
    )


def is_unramified_local(ext, sub=None):
    """Is R <= sub unramified, sub a subring of S (S by default), by the
    local criterion?  At every maximal ideal Q of sub, with f its primitive
    idempotent, Q cap R must generate the maximal ideal f*Q of the local
    factor f*sub: the span of sub * f(Q cap R) is f*Q.  Both are read in S,
    and no ring is presented.  Residual extensions of finite fields are
    separable, so nothing more is asked."""
    top = ext.top
    basis = (Subalgebra.whole(top) if sub is None else sub).basis_array()
    for f, Q in ext.max_ideal_pairs(sub):
        common = top.mul_pairs(Q.intersect(ext.bottom).basis_array(), f)
        fQ = Submodule.from_generators(top, top.mul_pairs(Q.basis_array(), f))
        if Submodule.from_generators(top, top.mul_pairs(basis, common)) != fQ:
            return False
    return True


def is_locally_epimorphism(ext):
    """Is R_N -> S_N an epimorphism for every maximal ideal N of S?

    Localizing S at one of its own maximal ideals cuts by the corresponding
    primitive idempotent f.  f*S is an R-module summand of S on which the
    quotient f*R of R acts, so fS (x)_fR fS = fS (x)_R fS is the summand of
    S (x)_R S cut by f (x) f, and R_N -> S_N is an epimorphism iff that
    summand has |f*S| elements.  Cheap where the tensor square of `ext` is
    already built, as it is under verify.
    """
    ts = tensor_square(ext)
    T = ts.ring
    for f, fS in local_factors(ext.top):
        ff = T.mul_rows(ts.left.apply_rows(f), ts.right.apply_rows(f))
        if ideal_generated(T, ff).size != fS.size:
            return False
    return True
