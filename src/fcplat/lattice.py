"""Exhaustive enumeration of the lattice [R, S] of intermediate subalgebras.

Finite extensions here always have finitely many intermediate rings, so the
lattice is built by breadth-first closure: adjoin one representative of each
additive coset to every known node and close under multiplication.  Nodes
are kept in a deterministic order (size, then canonical key).
"""

import os

from .spectrum import Extension
from .submodule import Subalgebra, subring_generated

DEFAULT_MAX_NODES = 10**6


class LatticeBudgetExceeded(RuntimeError):
    pass


class InvalidNodeBudget(ValueError):
    pass


def _max_nodes_default():
    env = os.environ.get("FCPLAT_MAX_NODES")
    if env:
        try:
            return int(env)
        except ValueError:
            raise InvalidNodeBudget(
                f"FCPLAT_MAX_NODES must be an integer, got {env!r}"
            ) from None
    return DEFAULT_MAX_NODES


def enumerate_interval(ambient, bottom, top=None, max_nodes=None):
    """All subalgebras T of the ambient ring with bottom <= T <= top.

    `top` defaults to the whole ambient ring.  Returns them sorted by
    (size, canonical key).
    """
    if max_nodes is None:
        max_nodes = _max_nodes_default()
    if top is None:
        top = Subalgebra.from_generators(
            ambient,
            [tuple(1 if i == j else 0 for i in range(ambient.rank))
             for j in range(ambient.rank)],
        )
    top_elems = sorted(top.elements())
    seen = {bottom.key: bottom}
    frontier = [bottom]
    while frontier:
        T = frontier.pop()
        covered = set(T.elements())
        for x in top_elems:
            if x in covered:
                continue
            U = subring_generated(ambient, list(T.basis) + [x])
            for t in T.elements():
                covered.add(ambient._add(x, t))
            if U.key not in seen:
                if len(seen) >= max_nodes:
                    raise LatticeBudgetExceeded(
                        f"node budget {max_nodes} exceeded"
                    )
                seen[U.key] = U
                frontier.append(U)
    nodes = sorted(seen.values(), key=lambda n: (n.size, n.key))
    assert nodes[0] == bottom and nodes[-1] == top
    return nodes


class ExtensionLattice:
    """The lattice [R, S] with its Hasse diagram."""

    def __init__(self, ext, max_nodes=None):
        self.ext = ext
        self.ambient = ext.top
        self.nodes = enumerate_interval(
            ext.top, ext.bottom, max_nodes=max_nodes
        )
        self.index = {n.key: i for i, n in enumerate(self.nodes)}
        self._cache = {}

    @property
    def bottom(self):
        return self.nodes[0]

    @property
    def top_node(self):
        return self.nodes[-1]

    def node_count(self):
        return len(self.nodes)

    def leq(self):
        """Containment matrix as a list of sets: leq[i] = {j : node_i <= node_j}."""
        if "leq" not in self._cache:
            out = []
            for i, a in enumerate(self.nodes):
                ups = set()
                for j, b in enumerate(self.nodes):
                    if a.size <= b.size and (i == j or a <= b):
                        ups.add(j)
                out.append(ups)
            self._cache["leq"] = out
        return self._cache["leq"]

    def hasse_edges(self):
        """Covering pairs (i, j), node i covered by node j."""
        if "edges" not in self._cache:
            leq = self.leq()
            edges = []
            for i in range(len(self.nodes)):
                for j in leq[i]:
                    if j == i:
                        continue
                    if any(
                        k != i and k != j and j in leq[k] for k in leq[i]
                    ):
                        continue
                    edges.append((i, j))
            edges.sort()
            self._cache["edges"] = edges
        return self._cache["edges"]

    def length(self):
        """Longest chain length from bottom to top."""
        return self._path_lengths()[0]

    def min_chain_length(self):
        return self._path_lengths()[1]

    def _path_lengths(self):
        if "paths" not in self._cache:
            edges = self.hasse_edges()
            n = len(self.nodes)
            longest = [None] * n
            shortest = [None] * n
            longest[0] = shortest[0] = 0
            # nodes are sorted by size, so edges always go up in index order
            succ = {}
            for i, j in edges:
                succ.setdefault(i, []).append(j)
            for i in range(n):
                if longest[i] is None:
                    continue
                for j in succ.get(i, []):
                    if longest[j] is None or longest[j] < longest[i] + 1:
                        longest[j] = longest[i] + 1
                    if shortest[j] is None or shortest[j] > shortest[i] + 1:
                        shortest[j] = shortest[i] + 1
            self._cache["paths"] = (longest[n - 1], shortest[n - 1])
        return self._cache["paths"]

    def is_chained(self):
        return len(self.nodes) == self.length() + 1

    def is_catenarian(self):
        """All maximal chains from bottom to top have the same length."""
        lo, hi = self.min_chain_length(), self.length()
        # a maximal chain in the interval runs from bottom to top, so the
        # lattice is catenarian iff extremal path lengths agree... provided
        # every node lies on a bottom-to-top path, which holds here since
        # each node contains the bottom and sits inside the top
        return lo == hi

    def maximal_chains(self, limit=None):
        edges = self.hasse_edges()
        succ = {}
        for i, j in edges:
            succ.setdefault(i, []).append(j)
        chains = []
        stack = [[0]]
        goal = len(self.nodes) - 1
        while stack:
            path = stack.pop()
            last = path[-1]
            if last == goal:
                chains.append(path)
                if limit is not None and len(chains) > limit:
                    raise LatticeBudgetExceeded("too many maximal chains")
                continue
            for j in succ.get(last, []):
                stack.append(path + [j])
        return chains

    def interval(self, low, high):
        """Indices of nodes in [low, high], as a sorted list."""
        leq = self.leq()
        i = self.index[low.key]
        j = self.index[high.key]
        return [k for k in range(len(self.nodes)) if j in leq[k] and k in leq[i]]

    def join(self, a, b):
        return subring_generated(self.ambient, list(a.basis) + list(b.basis))

    def complements(self, T, low=None, high=None):
        """Nodes U in [low, high] with T cap U = low and T join U = high."""
        low = self.bottom if low is None else low
        high = self.top_node if high is None else high
        out = []
        for k in self.interval(low, high):
            U = self.nodes[k]
            if T.intersect(U) == low and self.join(T, U) == high:
                out.append(U)
        return out

    def sub_extension(self, low, high):
        """The extension low <= high with high re-presented as a ring."""
        cache = self._cache.setdefault("sub_ext", {})
        ck = (low.key, high.key)
        if ck not in cache:
            pres = high.as_ring()
            bot = Subalgebra.from_generators(
                pres.ring,
                [pres.from_ambient(b) for b in low.basis] + [pres.ring.one],
            )
            cache[ck] = (Extension(pres.ring, bot), pres)
        return cache[ck]
