"""Additive subgroups, ideals and unital subrings of a finite ring.

A Submodule is canonicalized by the Howell form of its generators inside
(Z/L)^n after coordinate scaling, so equal subsets always compare equal and
hash alike.  Sums, intersections, generated ideals and each adjunction of
an element to a subring are one Howell form; membership is one batched
Howell reduction (`contains_many`).  The members of a span are enumerated
only where a caller needs them, once, by a mixed-radix walk of the Howell
basis into the sorted `elements_array`.
"""

import numpy as np

from .linalg import (
    HowellBasis,
    howell_contains,
    howell_form,
    scale_rows,
    span_size,
    unscale_rows,
)
from .memo import memo
from .ring import ring_from_generators


class Submodule:
    """An additive subgroup of the ambient ring, in canonical form."""

    def __init__(self, ambient, hrows):
        self.ambient = ambient
        self.hrows = hrows

    @classmethod
    def from_generators(cls, ambient, gens):
        """The span of `gens`: coefficient tuples, or an integer array of
        unscaled rows."""
        L = ambient.L
        rows = scale_rows(gens, ambient.np_orders, L).tolist()
        return cls(ambient, howell_form(rows, ambient.rank, L))

    @classmethod
    def zero(cls, ambient):
        return cls(ambient, ())

    @classmethod
    def whole(cls, ambient):
        return cls.from_generators(ambient, ambient.basis_vectors)

    @property
    def key(self):
        return self.hrows

    @property
    @memo
    def basis(self):
        """Unscaled generator rows (coefficient tuples of the ambient)."""
        return tuple(map(tuple, self.basis_array().tolist()))

    @memo
    def basis_array(self):
        """The unscaled generator rows as an int64 array."""
        amb = self.ambient
        arr = unscale_rows(self.hrows, amb.np_orders, amb.L)
        arr.flags.writeable = False
        return arr

    @property
    @memo
    def size(self):
        return span_size(self.hrows, self.ambient.L)

    def contains(self, vec):
        return bool(self.contains_many([vec])[0])

    def howell_basis(self):
        """The Howell rows as a `HowellBasis`, kept from the second call on.

        Most spans are tested once (each node as the lattice enumeration
        leaves it, each `is_subring` candidate), and a kept basis costs
        about 200 bytes for as long as its span lives, so the first call
        only marks the span, with False.
        """
        kept = getattr(self, "_howell_basis", None)
        if kept:
            return kept
        basis = HowellBasis(self.hrows, self.ambient.L)
        self._howell_basis = basis if kept is False else False
        return basis

    def contains_many(self, arr):
        """Vectorized membership for an integer array of unscaled rows."""
        amb = self.ambient
        if amb.orders[-1] == amb.L:  # no coordinate to scale
            V = np.asarray(arr, dtype=np.int64).reshape(-1, amb.rank)
        else:
            V = scale_rows(arr, amb.np_orders, amb.L)
        return howell_contains(V, self.howell_basis(), amb.L)[0]

    @memo
    def elements_array(self):
        """All members, sorted lexicographically, as an int64 array.

        Each member is sum c_t h_t over the Howell rows h_t with
        0 <= c_t < L / pivot_t, in exactly one way, so the walk over that
        mixed-radix box lists every member once.
        """
        amb = self.ambient
        L = amb.L
        V = np.zeros((1, amb.rank), dtype=np.int64)
        for row in self.hrows:
            p = next(x for x in row if x)
            steps = np.arange(L // p, dtype=np.int64)[:, None] * row
            V = ((V[None] + steps[:, None]) % L).reshape(-1, amb.rank)
        V //= L // amb.np_orders
        arr = V[np.lexsort(V.T[::-1])]
        arr.flags.writeable = False
        return arr

    def coset_representatives(self):
        """One member of each coset of the span in the ambient ring, as
        unscaled int64 rows, the zero row first.

        They are the vectors already reduced against the Howell basis: at
        the pivot column j of each Howell row an entry in [0, p_j), and any
        entry elsewhere.  Two of them never differ by a member: at the
        first column where they differ, a member is a multiple of the
        pivot there, or zero off the pivots.  There are |S| / |span| of
        them, so each coset holds exactly one.  Unscaled, a pivot column j
        ranges over [0, p_j / (L / d_j)) and any other column over [0, d_j),
        listed by one mixed-radix walk.
        """
        amb = self.ambient
        radix = list(amb.orders)
        for row in self.hrows:
            j = next(i for i, x in enumerate(row) if x)
            radix[j] = row[j] // (amb.L // radix[j])
        return np.indices(radix, dtype=np.int64).reshape(amb.rank, -1).T

    def elements(self):
        """Frozenset of all member coefficient tuples."""
        return frozenset(map(tuple, self.elements_array().tolist()))

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and other.ambient is self.ambient
            and other.hrows == self.hrows
        )

    def __hash__(self):
        return hash((id(self.ambient), self.hrows))

    def __le__(self, other):
        return bool(other.contains_many(self.basis_array()).all())

    def __repr__(self):
        return f"{type(self).__name__}(size={self.size})"

    @memo
    def intersect(self, other):
        """self cap other by the Zassenhaus construction.

        The rows (a, a) for a in self and (b, 0) for b in other span
        {(a + b, a)} inside (Z/L)^2n; its members with zero first half are
        exactly (0, c) for c in the intersection.  By the Howell property
        those are spanned by the Howell rows with zero first half, whose
        second halves are then the Howell form of the intersection.  The
        rows (a, a) over self's Howell basis are already a Howell form, so
        only the rows (b, 0) are inserted into it.

        Results are kept per `other`: lying-over and residual-field queries
        meet the same maximal ideals with the same bottom many times over.
        """
        amb = self.ambient
        n = amb.rank
        zero = (0,) * n
        seed = tuple(a + a for a in self.hrows)
        h = howell_form([b + zero for b in other.hrows], 2 * n, amb.L, seed)
        return type(self)(amb, tuple(r[n:] for r in h if not any(r[:n])))

    def is_subring(self):
        """Does the span hold 1 and the products of its basis rows?"""
        amb = self.ambient
        B = self.basis_array()
        rows = np.vstack([[amb.one], amb.mul_pairs(B, B).reshape(-1, amb.rank)])
        return bool(self.contains_many(rows).all())


class Ideal(Submodule):
    pass


class Subalgebra(Submodule):
    """A unital subring of the ambient ring."""

    @memo
    def as_ring(self):
        """Re-present this subalgebra as a standalone ring."""
        basis = self.basis if self.basis else (self.ambient.one,)
        return ring_from_generators(self.ambient, basis, self.ambient.one)


def subring_generated(ambient, gens, over=None):
    """Smallest unital subring containing the gens and the subring `over`
    (span{1} by default).  Each gen x is adjoined as T[x] = sum_k T x^k: the
    chain M_(j+1) = M_j + M_j x stops at its first repeat and doubles at each
    strict step, so the T x^k with k <= log2(|S| / |T|) span it.  T[x]
    extends T's Howell basis by the blocks B x^k, B the basis of T, each
    block the previous one times the multiplication matrix of x."""
    T = over
    if T is None:
        T = Subalgebra.from_generators(ambient, [ambient.one])
    n, L, orders = ambient.rank, ambient.L, ambient.np_orders
    scaled = ambient.orders[-1] != L
    rest = np.asarray(gens, dtype=np.int64).reshape(-1, n)
    while len(rest):
        x, rest = rest[0], rest[1:]
        mat = ambient.mul_matrices(x)
        block = T.basis_array()
        b = len(block)
        steps = max(1, (ambient.size // T.size).bit_length() - 1)
        rows = np.empty((steps * b, n), dtype=np.int64)
        for s in range(steps):
            block = block @ mat % orders
            rows[s * b:(s + 1) * b] = block
        if scaled:
            rows = scale_rows(rows, orders, L)
        T = Subalgebra(ambient, howell_form(rows.tolist(), n, L, T.hrows))
        if len(rest):
            rest = rest[~T.contains_many(rest)]
    return T


def ideal_generated(ambient, gens):
    """Smallest ideal of the ambient ring containing the given elements:
    sum_g S g, spanned by the products g e_j with the additive basis."""
    eye = np.eye(ambient.rank, dtype=np.int64)
    prods = ambient.mul_pairs(gens, eye).reshape(-1, ambient.rank)
    return Ideal.from_generators(ambient, prods)


def conductor(sub):
    """(sub : S) = {x in S : x*S is contained in sub}, as an ideal of S.

    `sub` is an additive subgroup of S containing 1's multiples; the result
    is simultaneously an ideal of S and of every subring containing it.
    """
    S = sub.ambient
    arr = S.elements_array()
    prods = S.mul_pairs(arr, np.eye(S.rank, dtype=np.int64))
    mask = sub.contains_many(prods).reshape(S.size, S.rank).all(axis=1)
    return Ideal.from_generators(S, arr[mask])
