"""An output oracle for the lattice [R, S] that shares no code with fcplat.

It starts from the top's structure constants (the additive orders, the
multiplication table of the basis and the unit) and works with plain sets of
elements: a subring is the set of its members, built by closing under + and
x.  It calls nothing in fcplat's ``submodule``, ``linalg`` or ``lattice``, so
a fault there cannot make the oracle agree with the program by accident.

Elements are coefficient vectors; a set of elements is a numpy array of their
indices in the mixed-radix numbering of the top (first coordinate most
significant).  Everything fits in memory for tops of a few thousand elements.

The module also holds three closed forms for interval sizes:
``|[F_q, F_q[Y]/(Y^4)]| = q + 4``, ``|[F_p, F_p^n]| = Bell(n)`` and
``|[F_p, F_{p^k}]| = d(k)``, the number of divisors of k.
"""

import itertools
from math import prod

import numpy as np


class PlainRing:
    """A finite commutative ring given by its structure constants."""

    def __init__(self, orders, table, one):
        self.orders = np.array(orders, dtype=np.int64)
        self.table = np.array(table, dtype=np.int64)
        self.rank = len(orders)
        self.size = prod(int(d) for d in orders)
        weights = [1] * self.rank
        for i in range(self.rank - 2, -1, -1):
            weights[i] = weights[i + 1] * int(orders[i + 1])
        self.weights = np.array(weights, dtype=np.int64)
        self.elements = np.array(
            list(itertools.product(*[range(int(d)) for d in orders])),
            dtype=np.int64,
        ).reshape(self.size, self.rank)
        self.one = np.array(one, dtype=np.int64) % self.orders

    @classmethod
    def of(cls, ring):
        """The plain ring of an fcplat ``FiniteRing`` (its public tables)."""
        return cls(ring.orders, ring.npC, ring.one)

    def index(self, vecs):
        return (np.asarray(vecs, dtype=np.int64) % self.orders) @ self.weights

    def mul(self, rows, b):
        """Products r * b for every row r, as coefficient vectors."""
        right = np.tensordot(
            np.asarray(b, dtype=np.int64), self.table, axes=([0], [1])
        )
        return (np.asarray(rows, dtype=np.int64) @ right) % self.orders

    def mask(self, members):
        out = np.zeros(self.size, dtype=bool)
        out[members] = True
        return out

    # -- additive groups and subrings as element sets -------------------

    def extend(self, members, g):
        """Members of H + <g>, H the additive subgroup listed by members."""
        in_h = self.mask(members)
        base = self.elements[members]
        g = np.asarray(g, dtype=np.int64) % self.orders
        parts = [members]
        step = g
        while not in_h[self.index(step)]:
            parts.append(self.index(base + step))
            step = (step + g) % self.orders
        return np.concatenate(parts)

    def span(self, gens):
        """The additive subgroup generated by the vectors gens."""
        members = np.zeros(1, dtype=np.int64)
        for g in gens:
            members = self.extend(members, g)
        return members

    def close(self, members, basis, new):
        """Smallest subring holding the subring (members, basis) and new.

        basis lists additive generators of members whose pairwise products
        lie in members.  Every vector added to the basis is multiplied by
        each basis vector, so the result is closed under x by bilinearity.
        """
        in_set = self.mask(members)
        basis = list(basis)
        queue = [np.asarray(v, dtype=np.int64) % self.orders for v in new]
        while queue:
            g = queue.pop()
            if in_set[self.index(g)]:
                continue
            members = self.extend(members, g)
            in_set[members] = True
            basis.append(g)
            queue.extend(self.mul(np.array(basis), g))
        return members, basis

    def subring(self, gens):
        """The subring generated by gens (and 1)."""
        return self.close(np.zeros(1, dtype=np.int64), [], [self.one, *gens])

    def is_subring(self, members, gens):
        """Whether members, the span of gens, holds 1 and is closed under
        + and x."""
        in_set = self.mask(members)
        if not in_set[self.index(self.one)]:
            return False
        base = self.elements[members]
        gens = np.asarray(gens, dtype=np.int64).reshape(-1, self.rank)
        for g in gens:
            if not in_set[self.index(base + g)].all():
                return False
            if not in_set[self.index(self.mul(gens, g))].all():
                return False
        return True

    # -- the interval [R, S] --------------------------------------------

    def interval(self, bottom_gens):
        """Every subring between the one generated by bottom_gens and S.

        Returns boolean masks sorted by size.  Each node T is extended by one
        representative x of every coset x + T outside T, since T[x] only
        depends on the coset.
        """
        members, basis = self.subring(bottom_gens)
        nodes = {key(self.mask(members)): members}
        frontier = [(members, basis)]
        while frontier:
            members, basis = frontier.pop()
            covered = self.mask(members)
            base = self.elements[members]
            for x in range(self.size):
                if covered[x]:
                    continue
                vec = self.elements[x]
                covered[self.index(base + vec)] = True
                grown, grown_basis = self.close(members, basis, [vec])
                k = key(self.mask(grown))
                if k not in nodes:
                    nodes[k] = grown
                    frontier.append((grown, grown_basis))
        masks = [self.mask(m) for m in nodes.values()]
        masks.sort(key=lambda m: (int(m.sum()), key(m)))
        return masks


def key(mask):
    """A hashable identity for an element set given as a boolean mask."""
    return np.packbits(mask).tobytes()


def covers(masks):
    """Covering pairs (i, j) of a family of sets given as boolean masks."""
    bits = [int.from_bytes(key(m), "big") for m in masks]
    n = len(bits)
    above = [
        {j for j in range(n) if j != i and bits[j] & bits[i] == bits[i]}
        for i in range(n)
    ]
    out = set()
    for i in range(n):
        for j in above[i]:
            if not any(j in above[k] for k in above[i] if k != j):
                out.add((i, j))
    return out


def unscale(row, orders):
    """Coefficients of a Howell row stored scaled into (Z/L)^n.

    fcplat keys a submodule by rows in which coordinate i is multiplied by
    L / d_i, with L the largest additive order; this undoes that scaling.
    """
    L = max(orders)
    return [(int(v) // (L // d)) % d for v, d in zip(row, orders)]


def bell(n):
    """The number of set partitions of an n-element set."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def divisor_count(k):
    return sum(1 for d in range(1, k + 1) if k % d == 0)
