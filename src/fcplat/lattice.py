"""Exhaustive enumeration of the lattice [R, S] of intermediate subalgebras.

Finite extensions here always have finitely many intermediate rings, so the
lattice is found by a search that adjoins one element at a time, T[x]
being one Howell form of the span of the T x^k.  Only the covers need to
be reached:

  * Cover lemma.  A cover T < U in [R, S] is a minimal extension, and its
    crucial ideal (T : U) is maximal in T (Ferrand & Olivier, J. Algebra
    16, 1970).  So it holds the Jacobson radical J(T) = T cap J(S), and
    U J(T) <= U (T : U) <= T: U lies in the colon (T :_S J(T)).
  * Completeness.  U = T[x] for any x in U \\ T, and T[x] depends only on
    the coset x + T.  So from each node T the search adjoins one x per
    coset of T inside (T :_S J(T)).  Every node U other than R covers some
    smaller node T, which by induction on size the search reaches; then it
    reaches U from T.  Every ring it builds contains R, so it finds exactly
    the nodes.
  * Reduced vectors.  The vectors already reduced against T's Howell basis
    (an entry below the pivot at each pivot column) meet every coset of T
    exactly once (`Submodule.coset_representatives`), so no element of T
    is listed.
  * Order.  Every pair T < T[x] that the search forms is a containment,
    and every cover is one of these pairs, so <= is their reflexive and
    transitive closure.  U covers T iff U is a search successor of T that
    lies inside no other search successor of T: a node strictly between
    T and U would contain a cover of T, which is a successor.

Nodes are kept in order of size, then canonical key.
"""

import os

from .memo import memo
from .ring import require
from .spectrum import Extension
from .structure import nilradical
from .submodule import Subalgebra, subring_generated

DEFAULT_MAX_NODES = 10**6


class LatticeBudgetExceeded(RuntimeError):
    pass


class InvalidNodeBudget(ValueError):
    pass


def _max_nodes_default():
    env = os.environ.get("FCPLAT_MAX_NODES")
    try:
        budget = int(env) if env else DEFAULT_MAX_NODES
    except ValueError:
        budget = 0
    if budget < 1:
        raise InvalidNodeBudget(
            f"FCPLAT_MAX_NODES must be an integer of at least 1, got {env!r}"
        )
    return budget


def enumerate_interval(ambient, bottom, max_nodes=None):
    """All subalgebras T of the ambient ring containing bottom.

    Returns a dict from each node, in order of (size, canonical key), to
    the keys of its search successors T[x], as a tuple.
    """
    if max_nodes is None:
        max_nodes = _max_nodes_default()
    top = Subalgebra.whole(ambient)
    N = nilradical(ambient)
    seen = {bottom.key: bottom}
    ups = {}
    frontier = [bottom]
    while frontier:
        T = frontier.pop()
        up = ups[T.key] = set()
        # the zero row stands for T itself
        reps = T.coset_representatives()[1:]
        J = T.intersect(N)
        if J.hrows:
            prods = ambient.mul_pairs(reps, J.basis_array())
            inside = T.contains_many(prods.reshape(-1, ambient.rank))
            reps = reps[inside.reshape(prods.shape[:2]).all(axis=1)]
        for x in reps:
            U = subring_generated(ambient, [x], over=T)
            if U.key not in seen:
                if len(seen) >= max_nodes:
                    raise LatticeBudgetExceeded(
                        f"node budget {max_nodes} exceeded"
                    )
                seen[U.key] = U
                frontier.append(U)
            up.add(seen[U.key].key)
    nodes = sorted(seen.values(), key=lambda n: (n.size, n.key))
    require(nodes[0] == bottom and nodes[-1] == top, "ends must be R and S")
    return {n: tuple(ups[n.key]) for n in nodes}


class ExtensionLattice:
    """The lattice [R, S] with its Hasse diagram."""

    def __init__(self, ext, max_nodes=None):
        self.ext = ext
        self.ambient = ext.top
        search = enumerate_interval(ext.top, ext.bottom, max_nodes=max_nodes)
        self.nodes = list(search)
        self._ups = list(search.values())
        self.index = {n.key: i for i, n in enumerate(self.nodes)}

    @property
    def bottom(self):
        return self.nodes[0]

    @property
    def top_node(self):
        return self.nodes[-1]

    def node_count(self):
        return len(self.nodes)

    @memo
    def leq(self):
        """Containment matrix as a list of sets: leq[i] = {j : node_i <= node_j}."""
        out = [None] * len(self.nodes)
        # a search successor is larger, so its index is larger: close it first
        for i in reversed(range(len(self.nodes))):
            out[i] = {i}.union(*(out[self.index[k]] for k in self._ups[i]))
        return out

    @memo
    def hasse_edges(self):
        """Covering pairs (i, j), node i covered by node j, in sorted order."""
        leq = self.leq()
        succ = [sorted(self.index[k] for k in ups) for ups in self._ups]
        return [(i, j) for i, s in enumerate(succ)
                for j in s if not any(k != j and j in leq[k] for k in s)]

    @memo
    def _successors(self):
        """Hasse successors: _successors()[i] lists the covers of node i."""
        succ = {}
        for i, j in self.hasse_edges():
            succ.setdefault(i, []).append(j)
        return succ

    @memo
    def path_lengths(self, low=None, high=None):
        """(longest, shortest) number of Hasse steps from low to high, the
        bottom and the top by default.  The covers of [low, high] are those
        of [R, S] inside it, so the one Hasse diagram serves every interval.
        """
        n = len(self.nodes)
        start = 0 if low is None else self.index[low.key]
        end = n - 1 if high is None else self.index[high.key]
        succ = self._successors()
        longest = {start: 0}
        shortest = {start: 0}
        # nodes are sorted by size, so edges always go up in index order
        for i in range(start, end):
            if i not in longest:
                continue
            for j in succ.get(i, []):
                longest[j] = max(longest.get(j, 0), longest[i] + 1)
                shortest[j] = min(shortest.get(j, n), shortest[i] + 1)
        return longest[end], shortest[end]

    def length(self):
        """Longest chain length from bottom to top."""
        return self.path_lengths()[0]

    def min_chain_length(self):
        return self.path_lengths()[1]

    def is_chained(self):
        return len(self.nodes) == self.length() + 1

    def is_catenarian(self):
        """All maximal chains from bottom to top have the same length."""
        # every node contains the bottom and sits inside the top, so every
        # maximal chain is a Hasse path from bottom to top and the lattice
        # is catenarian iff the extremal path lengths agree
        longest, shortest = self.path_lengths()
        return longest == shortest

    def interval(self, low, high):
        """Indices of nodes in [low, high], as a sorted list."""
        leq = self.leq()
        i = self.index[low.key]
        j = self.index[high.key]
        return [k for k in range(len(self.nodes)) if j in leq[k] and k in leq[i]]

    def least(self, idxs):
        """The index in idxs of the node inside every node of idxs, or None."""
        leq = self.leq()
        return next((i for i in idxs if leq[i].issuperset(idxs)), None)

    def greatest(self, pred):
        """The greatest node T with pred(T), which must contain every such
        node; nodes are sorted by size, so it is the last of them."""
        good = [i for i, n in enumerate(self.nodes) if pred(n)]
        leq = self.leq()
        require(all(good[-1] in leq[i] for i in good),
                "qualifying nodes must have a greatest")
        return self.nodes[good[-1]]

    def join(self, a, b):
        """The least node above the nodes a and b; nodes are sorted by
        size, so it is the first of their common upper bounds."""
        leq = self.leq()
        return self.nodes[min(leq[self.index[a.key]] & leq[self.index[b.key]])]

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

    @memo
    def sub_extension(self, low, high):
        """The extension low <= high with high re-presented as a ring.

        Intervals are read in S; presented rings serve only the standalone
        second routes.  Through this method: `prufer_hull`,
        `check_omega_greatest_unramified` and
        `check_minimal_unramified_types`.  By their own presentation:
        `check_supports_agree`, `Extension.localize_at` with
        `check_coclosures_localize`, and the spec `subring` op."""
        pres = high.as_ring()
        bot = Subalgebra.from_generators(
            pres.ring, pres.from_ambient_rows(low.basis)
        )
        return Extension(pres.ring, bot), pres

    @memo
    def upper(self, node):
        """The extension node <= S inside the ambient ring, built once."""
        return Extension(self.ambient, node)
