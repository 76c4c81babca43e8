"""Additive subgroups, ideals and unital subrings of a finite ring.

A Submodule is canonicalized by the Howell form of its generators inside
(Z/L)^n after coordinate scaling, so equal subsets always compare equal and
hash alike.  Sums and intersections are Howell forms too; element sets are
materialized lazily only where a caller enumerates the members.
"""

import numpy as np

from .linalg import (
    howell_contains,
    howell_form,
    scale_rows,
    scale_vector,
    span_size,
    unscale_vector,
)
from .ring import ring_from_generators


class Submodule:
    """An additive subgroup of the ambient ring, in canonical form."""

    def __init__(self, ambient, hrows):
        self.ambient = ambient
        self.hrows = hrows
        self._cache = {}

    @classmethod
    def from_generators(cls, ambient, gens):
        """The span of `gens`: coefficient tuples, or an integer array of
        unscaled rows."""
        L = ambient.L
        if isinstance(gens, np.ndarray):
            rows = scale_rows(gens, ambient.orders, L).tolist()
        else:
            rows = [scale_vector(g, ambient.orders, L) for g in gens]
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
    def basis(self):
        """Unscaled generator rows (coefficient tuples of the ambient)."""
        if "basis" not in self._cache:
            amb = self.ambient
            self._cache["basis"] = tuple(
                unscale_vector(r, amb.orders, amb.L) for r in self.hrows
            )
        return self._cache["basis"]

    @property
    def size(self):
        if "size" not in self._cache:
            self._cache["size"] = span_size(self.hrows, self.ambient.L)
        return self._cache["size"]

    def contains(self, vec):
        amb = self.ambient
        return howell_contains(
            scale_vector(vec, amb.orders, amb.L), self.hrows, amb.rank, amb.L
        )

    def contains_many(self, arr):
        """Vectorized membership for an integer array of unscaled rows."""
        amb = self.ambient
        L = amb.L
        V = scale_rows(arr, amb.orders, L)
        n = amb.rank
        for row in self.hrows:
            j = next(k for k in range(n) if row[k])
            p = row[j]
            col = V[:, j]
            q = np.where(col % p == 0, col // p, 0)
            V = (V - q[:, None] * np.array(row, dtype=np.int64)) % L
        return ~V.any(axis=1)

    def elements(self):
        """Frozenset of all member coefficient tuples."""
        if "elements" not in self._cache:
            amb = self.ambient
            seen = {amb.zero_vec()}
            frontier = [amb.zero_vec()]
            basis = self.basis
            while frontier:
                v = frontier.pop()
                for b in basis:
                    w = amb._add(v, b)
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            self._cache["elements"] = frozenset(seen)
        return self._cache["elements"]

    def elements_array(self):
        if "elements_array" not in self._cache:
            self._cache["elements_array"] = np.array(
                sorted(self.elements()), dtype=np.int64
            ).reshape(self.size, self.ambient.rank)
        return self._cache["elements_array"]

    def __eq__(self, other):
        return (
            isinstance(other, Submodule)
            and other.ambient is self.ambient
            and other.hrows == self.hrows
        )

    def __hash__(self):
        return hash((id(self.ambient), self.hrows))

    def __le__(self, other):
        return all(other.contains(b) for b in self.basis)

    def __repr__(self):
        return f"{type(self).__name__}(size={self.size})"

    def intersect(self, other):
        """self cap other by the Zassenhaus construction.

        The rows (a, a) for a in self and (b, 0) for b in other span
        {(a + b, a)} inside (Z/L)^2n; its members with zero first half are
        exactly (0, c) for c in the intersection.  By the Howell property
        those are spanned by the Howell rows with zero first half, whose
        second halves are then the Howell form of the intersection.

        Results are kept per `other`: lying-over and residual-field queries
        meet the same maximal ideals with the same bottom many times over.
        """
        meets = self._cache.setdefault("meets", {})
        if other.hrows not in meets:
            amb = self.ambient
            n = amb.rank
            zero = (0,) * n
            rows = [a + a for a in self.hrows] + [b + zero for b in other.hrows]
            h = howell_form(rows, 2 * n, amb.L)
            meets[other.hrows] = type(self)(
                amb, tuple(r[n:] for r in h if not any(r[:n]))
            )
        return meets[other.hrows]

    def is_ideal(self):
        amb = self.ambient
        for b in self.basis:
            for ej in amb.basis_vectors:
                if not self.contains(amb._mul(b, ej)):
                    return False
        return True

    def is_subring(self):
        if not self.contains(self.ambient.one):
            return False
        for a in self.basis:
            for b in self.basis:
                if not self.contains(self.ambient._mul(a, b)):
                    return False
        return True


class Ideal(Submodule):
    pass


class Subalgebra(Submodule):
    """A unital subring of the ambient ring."""

    def as_ring(self):
        """Re-present this subalgebra as a standalone ring."""
        if "as_ring" not in self._cache:
            basis = self.basis if self.basis else (self.ambient.one,)
            self._cache["as_ring"] = ring_from_generators(
                self.ambient, basis, self.ambient.one
            )
        return self._cache["as_ring"]


def subring_generated(ambient, gens):
    """Smallest unital subring containing the given elements."""
    current = Subalgebra.from_generators(ambient, list(gens) + [ambient.one])
    while True:
        basis = current.basis
        extra = []
        for i in range(len(basis)):
            for j in range(i, len(basis)):
                p = ambient._mul(basis[i], basis[j])
                if not current.contains(p):
                    extra.append(p)
        if not extra:
            return current
        current = Subalgebra.from_generators(ambient, list(basis) + extra)


def ideal_generated(ambient, gens):
    """Smallest ideal of the ambient ring containing the given elements."""
    current = Ideal.from_generators(ambient, gens)
    while True:
        basis = current.basis
        extra = []
        for b in basis:
            for ej in ambient.basis_vectors:
                p = ambient._mul(b, ej)
                if not current.contains(p):
                    extra.append(p)
        if not extra:
            return current
        current = Ideal.from_generators(ambient, list(basis) + extra)


def conductor(sub):
    """(sub : S) = {x in S : x*S is contained in sub}, as an ideal of S.

    `sub` is an additive subgroup of S containing 1's multiples; the result
    is simultaneously an ideal of S and of every subring containing it.
    """
    S = sub.ambient
    arr = S.elements_array()
    mask = np.ones(S.size, dtype=bool)
    for ej in S.basis_vectors:
        mask &= sub.contains_many(S.mul_many(arr, ej))
    return Ideal.from_generators(S, arr[mask])
