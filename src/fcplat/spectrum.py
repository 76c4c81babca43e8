"""Spectrum-level analysis of a ring extension R <= S.

The bottom ring is a unital subalgebra of the top ring; everything here is
computed exactly: lying-over pairs, residual field extensions, conductor
support, localization at a maximal ideal of the bottom, the tensor square
S (x)_R S by generators and relations, and the predicates built on it
(epimorphism, unramified, locally epimorphism).
"""

import numpy as np

from .linalg import kernel_mod, scale_vector
from .ring import RingMorphism, build_ring, ring_from_generators
from .structure import (
    is_field,
    local_factors,
    max_ideal_idempotent_pairs,
    maximal_ideals,
    residue_field,
)
from .submodule import (
    Ideal,
    Subalgebra,
    Submodule,
    conductor,
    ideal_generated,
    submodule_from_elements,
)


class Extension:
    """A unital extension bottom <= top of finite commutative rings."""

    def __init__(self, top, bottom):
        self.top = top
        if not isinstance(bottom, Subalgebra):
            bottom = Subalgebra(top, bottom.hrows)
        self.bottom = bottom
        if not bottom.contains(top.one):
            raise ValueError("bottom must contain the unit of the top ring")
        self._cache = {}

    def __repr__(self):
        return f"Extension(|R|={self.bottom.size}, |S|={self.top.size})"

    @property
    def bottom_pres(self):
        return self.bottom.as_ring()

    @property
    def bottom_ring(self):
        return self.bottom_pres.ring

    def conductor_ideal(self):
        """(R : S), an ideal of S contained in R."""
        if "conductor" not in self._cache:
            self._cache["conductor"] = conductor(self.bottom)
        return self._cache["conductor"]

    def ideal_to_bottom(self, sub):
        """Intersect a subgroup of S with R and view it inside the bottom ring."""
        pres = self.bottom_pres
        common = sub.elements() & self.bottom.elements()
        return submodule_from_elements(
            pres.ring, [pres.from_ambient(v) for v in common], cls=Ideal
        )

    # -- lying over ----------------------------------------------------

    def lying_over(self):
        """Pairs (N, P): N maximal in S, P = N cap R maximal in the bottom ring."""
        if "lying_over" not in self._cache:
            out = []
            for N in maximal_ideals(self.top):
                P = self.ideal_to_bottom(N)
                out.append((N, P))
            bottom_max = {M.key for M in maximal_ideals(self.bottom_ring)}
            for _, P in out:
                assert P.key in bottom_max, "lying over must hit maximal ideals"
            # every maximal ideal of R is hit (finite extensions are integral)
            assert {P.key for _, P in out} == bottom_max
            self._cache["lying_over"] = out
        return self._cache["lying_over"]

    def is_i_extension(self):
        """Is the lying-over map Spec(S) -> Spec(R) injective?"""
        pairs = self.lying_over()
        return len({P.key for _, P in pairs}) == len(pairs)

    def residual_extension(self, N):
        """The induced field extension R/(N cap R) -> S/N as a morphism."""
        P = self.ideal_to_bottom(N)
        Rr = self.bottom_ring
        kP, projP, liftsP = residue_field(Rr, P)
        kN, projN, _ = residue_field(self.top, N)
        to_amb = self.bottom_pres.to_ambient
        rows = [projN.apply(to_amb.apply(lift)) for lift in liftsP]
        return RingMorphism(kP, kN, rows)

    def residual_sizes(self, N):
        """(|R/(N cap R)|, |S/N|) without building the quotients."""
        P = self.ideal_to_bottom(N)
        return self.bottom.size // P.size, self.top.size // N.size

    def is_infra_integral(self):
        """All residual extensions are isomorphisms."""
        return all(a == b for a, b in
                   (self.residual_sizes(N) for N in maximal_ideals(self.top)))

    def is_subintegral(self):
        return self.is_i_extension() and self.is_infra_integral()

    # -- support -------------------------------------------------------

    def supp(self):
        """V_R((R:S)): maximal ideals of the bottom ring over the conductor."""
        C = self.ideal_to_bottom(self.conductor_ideal())
        return [M for M in maximal_ideals(self.bottom_ring) if C <= M]

    def msupp_quotient(self, lower, upper):
        """MSupp_R(upper/lower) for subgroups lower <= upper of S."""
        out = []
        to_amb = self.bottom_pres.to_ambient
        for e, M in max_ideal_idempotent_pairs(self.bottom_ring):
            e_amb = to_amb.apply(e)
            lo = {self.top._mul(e_amb, v) for v in lower.elements()}
            up = {self.top._mul(e_amb, v) for v in upper.elements()}
            if lo != up:
                out.append(M)
        return out

    def msupp(self):
        top_all = Submodule.from_generators(
            self.top,
            [tuple(1 if i == j else 0 for i in range(self.top.rank))
             for j in range(self.top.rank)],
        )
        return self.msupp_quotient(self.bottom, top_all)

    # -- localization --------------------------------------------------

    def localize_at(self, M):
        """The extension R_M <= S_M at a maximal ideal M of the bottom ring.

        Since R is a product of local rings, localizing is cutting by the
        primitive idempotent attached to M.  Returns (extension, pres) where
        pres maps the localized top back into S.
        """
        pairs = max_ideal_idempotent_pairs(self.bottom_ring)
        e = next(e for e, MM in pairs if MM.key == M.key)
        e_amb = self.bottom_pres.to_ambient.apply(e)
        top = self.top
        gens = []
        for j in range(top.rank):
            ej = tuple(1 if i == j else 0 for i in range(top.rank))
            gens.append(top._mul(e_amb, ej))
        pres = ring_from_generators(
            top, gens, top.element(e_amb),
            label=f"{top.label}_loc", unital=False,
        )
        bot_gens = [
            pres.from_ambient(top._mul(e_amb, b)) for b in self.bottom.basis
        ]
        bottom_loc = Subalgebra.from_generators(
            pres.ring, bot_gens + [pres.ring.one]
        )
        return Extension(pres.ring, bottom_loc), pres


class TensorSquare:
    """S (x)_R S with its structural maps."""

    def __init__(self, ring, left, right, codiagonal):
        self.ring = ring
        self.left = left
        self.right = right
        self.codiagonal = codiagonal
        self._cache = {}

    def diagonal_kernel(self):
        """ker(codiagonal) as a submodule (in fact an ideal) of the tensor ring."""
        if "kernel" not in self._cache:
            S = self.codiagonal.target
            T = self.ring
            rows = [
                scale_vector(r, S.orders, S.L) for r in self.codiagonal.rows
            ]
            ker = kernel_mod(rows, S.rank, S.L)
            self._cache["kernel"] = Submodule.from_generators(
                T, [tuple(int(x) % d for x, d in zip(row, T.orders))
                    for row in ker]
            )
        return self._cache["kernel"]


def tensor_square(ext):
    """Present S (x)_R S by generators e_i (x) e_j and bilinearity relations."""
    if "tensor_square" in ext._cache:
        return ext._cache["tensor_square"]
    S = ext.top
    n = S.rank
    k = n * n
    L = S.L
    C = S.npC

    def gen(i, j):
        return i * n + j

    rels = []
    for i in range(n):
        for j in range(n):
            row = [0] * k
            row[gen(i, j)] = S.orders[i]
            rels.append(tuple(row))
            row2 = [0] * k
            row2[gen(i, j)] = S.orders[j]
            rels.append(tuple(row2))
    # bilinearity over R: (r e_i) (x) e_j = e_i (x) (r e_j) for r in a basis of R
    for r in ext.bottom.basis:
        for i in range(n):
            ri = S._mul(r, tuple(1 if a == i else 0 for a in range(n)))
            for j in range(n):
                rj = S._mul(r, tuple(1 if a == j else 0 for a in range(n)))
                row = [0] * k
                for a in range(n):
                    row[gen(a, j)] += ri[a]
                for b in range(n):
                    row[gen(i, b)] -= rj[b]
                if any(row):
                    rels.append(tuple(x % L for x in row))
    P = np.einsum("iau,jbv->ijabuv", C, C).reshape(k, k, k)
    one = np.zeros(k, dtype=np.int64)
    for i in range(n):
        for j in range(n):
            one[gen(i, j)] = S.one[i] * S.one[j]
    ring, to_new, lifts = build_ring(
        rels, k, L, P, tuple(int(x) for x in one),
        label=f"{S.label}(x){S.label}",
    )
    e_rows = [tuple(1 if a == i else 0 for a in range(n)) for i in range(n)]
    left_rows = []
    right_rows = []
    for i in range(n):
        v = [0] * k
        for j in range(n):
            v[gen(i, j)] = S.one[j]
        left_rows.append(to_new(v))
        w = [0] * k
        for j in range(n):
            w[gen(j, i)] = S.one[j]
        right_rows.append(to_new(w))
    left = RingMorphism(S, ring, left_rows, check=False)
    right = RingMorphism(S, ring, right_rows, check=False)
    codiag_rows = []
    for lift in lifts:
        out = S.zero_vec()
        for g, c in enumerate(lift):
            if c:
                i, j = divmod(g, n)
                out = S._add(out, S._smul(c, S._mul(e_rows[i], e_rows[j])))
        codiag_rows.append(out)
    codiag = RingMorphism(ring, S, codiag_rows, check=False)
    # sanity: codiagonal splits both structural maps
    for i in range(n):
        assert codiag.apply(left_rows[i]) == e_rows[i]
        assert codiag.apply(right_rows[i]) == e_rows[i]
    ts = TensorSquare(ring, left, right, codiag)
    ext._cache["tensor_square"] = ts
    return ts


def is_epimorphism(ext):
    """R -> S is a ring epimorphism iff the codiagonal is an isomorphism,
    i.e. iff |S (x)_R S| = |S|."""
    return tensor_square(ext).ring.size == ext.top.size


def is_unramified(ext):
    """Primary criterion: I = I^2 for I the kernel of the codiagonal."""
    ts = tensor_square(ext)
    I = ts.diagonal_kernel()
    T = ts.ring
    basis = I.basis
    if not basis:
        return True
    B = np.array(basis, dtype=np.int64)
    prods = T.mul_pairs(B, B)
    I2 = Submodule.from_generators(
        T, [tuple(int(x) for x in row) for row in prods.reshape(-1, T.rank)]
    )
    return I2 == I


def is_unramified_local(ext):
    """Cross-oracle: at every maximal ideal N of S, the ideal generated by
    (N cap R) in the local factor S_N is all of N S_N, with separable
    (automatic here) residual extension."""
    top = ext.top
    facts = local_factors(top)
    prim_to_pres = {e: pres for e, pres in facts}
    for e, N in max_ideal_idempotent_pairs(top):
        pres = prim_to_pres[e]
        Sf = pres.ring
        # image of N cap R in the factor
        common = N.elements() & ext.bottom.elements()
        gens = [pres.from_ambient(top._mul(e, v)) for v in common]
        PSf = ideal_generated(Sf, gens) if gens else Ideal.zero(Sf)
        (Nf,) = maximal_ideals(Sf)
        if PSf != Nf:
            return False
        # residual extensions of finite fields are always separable; just
        # confirm both residues are fields
        kN, _, _ = residue_field(top, N)
        assert is_field(kN)
    return True


def is_locally_epimorphism(ext):
    """Is R_N -> S_N an epimorphism for every maximal ideal N of S?

    Localizing S at one of its own maximal ideals cuts by the corresponding
    primitive idempotent f; the bottom localizes to f*R inside f*S.
    """
    top = ext.top
    for f, pres in local_factors(top):
        Sf = pres.ring
        bot_gens = [pres.from_ambient(top._mul(f, b)) for b in ext.bottom.basis]
        bottom_f = Subalgebra.from_generators(Sf, bot_gens + [Sf.one])
        sub = Extension(Sf, bottom_f)
        if not is_epimorphism(sub):
            return False
    return True
