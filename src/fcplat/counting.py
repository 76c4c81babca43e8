"""Counting complements of the t-closure, and the lattice-size sum formula.

For an integral extension R <= S write n[R, S] for the number of
complements of the t-closure t(R) in the lattice [R, S].  Two independent
routes compute it:

  * the lattice route enumerates complements directly;
  * the formula route (for local R) finds the greatest subring R' of S in
    which the maximal ideal M of R stays an ideal, takes the minimal
    polynomial P over R/M of a primitive element of a top residue field,
    and counts the distinct subalgebras (R/M)[x] of R'/M generated by
    roots x of P.  It returns 0 when the residue fields on top are not all
    isomorphic.  For non-local R the count is the product of the local
    counts over the maximal ideals M supporting S/R.  Each local count is
    read in S, with no localized ring built and no ring presented for R/M:
    P is solved over the images of R's basis in the residue field S/N.

Both count n[low, high] for any nodes low <= high of [R, S], read in S: the
formula with the images of low and high in S/N and the idealizer of M in
high.  The sum formula states |[R, S]| is the sum of n[R', S'] over all
pairs (R', S') with R <= R' <= t(R) <= S' <= S.
"""

import math

import numpy as np

from .closures import primitive_min_poly, t_closure
from .memo import memo
from .ring import require
from .structure import maximal_ideals, residue_field
from .submodule import Subalgebra, subring_generated


def idealizer(ext, M_sub):
    """The greatest subring R' of S in which M_sub stays an ideal.

    M_sub is an additive subgroup of S (a maximal ideal of a node, kept
    in S's coordinates); the idealizer is the colon (M_sub :_S M_sub).
    """
    sub = Subalgebra(ext.top, M_sub.colon(M_sub).hrows)
    require(sub.is_subring() and ext.bottom <= sub,
            "the idealizer must be a subring over the bottom")
    return sub


def complement_count_formula(ext, low=None, high=None):
    """n[low, high] for nodes low <= high of [R, S] (the bottom and S by
    default) by the root-counting formula: the local count at the maximal
    ideal of low when low is local, else the product of the local counts
    over MSupp(high/low)."""
    low = ext.bottom if low is None else low
    high = Subalgebra.whole(ext.top) if high is None else high
    local = [P for _, P in ext.max_ideal_pairs(low)]
    if len(local) != 1:
        local = ext.msupp_quotient(low, high, base=low)
    return math.prod(_complement_count_local(ext, M, low, high)
                     for M in local)


def _complement_count_local(ext, M, low, high):
    """n[low_M, high_M], read in S.

    With e the idempotent of low at M, the idealizer R' of M in high is the
    idealizer of eM in e*high plus (1 - e)low, so A = R'/M is already the
    localized one, and the subalgebras of A over low/M are the low[x] / M
    for x in R'.
    """
    S = ext.top
    tops = [N for N in maximal_ideals(S) if N.intersect(low) == M]
    if len({high.size // N.intersect(high).size for N in tops}) != 1:
        # top residue fields of distinct sizes cannot all be isomorphic to
        # one T/M, so no complement exists (finite fields of equal size
        # over the same subfield are isomorphic over it, so size is enough)
        return 0

    # minimal polynomial over low/M of a primitive element of the image of
    # high in S/N_1, with low/M the image of low there, solved over the
    # images of low's basis; each coefficient lifts into low as the same
    # combination of that basis, and two lifts differ by an element of M,
    # which leaves P(x) mod M alone
    N = tops[0]
    _, projN, _ = residue_field(S, N)
    R = low.basis_array()
    coords = primitive_min_poly(
        ext.residue_image(N, low), ext.residue_image(N, high),
        projN.apply_rows(R),
    )
    P = np.vstack([(coords @ R) % S.np_orders, [S.one]])

    # x + M is a root of P in A = R'/M iff P(x) lies in M; P(x) by Horner's
    # rule, for every x of R' at once
    X = idealizer(ext, M).intersect(high).elements_array()
    acc = np.zeros_like(X)
    for c in P[::-1]:
        acc = (S.mul_rows(acc, X) + c) % S.np_orders
    roots = X[M.contains_many(acc)]
    # (low/M)[x + M] is low[x] / M: one adjunction per coset x + M of roots
    keys = set()
    while len(roots):
        x = roots[0]
        keys.add(subring_generated(S, [x], over=low).key)
        roots = roots[~M.contains_many(roots - x)]
    return len(keys)


def t_closure_node(lattice, low=None, high=None):
    """The t-closure of low inside high, as a lattice node.

    Uses the intersection property of the t-closure: the t-closure of
    low <= high is high meet (t-closure of low in the full top).
    """
    low = lattice.bottom if low is None else low
    high = lattice.top_node if high is None else high
    t_full = _t_closure_in_top(lattice, low)
    node = t_full if high == lattice.top_node else t_full.intersect(high)
    require(node.key in lattice.index, "the t-closure must be a node")
    return lattice.nodes[lattice.index[node.key]]


@memo
def _t_closure_in_top(lattice, low):
    """The t-closure of low in the full top, the intersection of the
    low + N over the maximal ideals N of the top."""
    return t_closure(lattice.upper(low))


def complement_count_lattice(lattice, low=None, high=None):
    """n[low, high] by direct enumeration of complements of the t-closure."""
    low = lattice.bottom if low is None else low
    high = lattice.top_node if high is None else high
    t_node = t_closure_node(lattice, low, high)
    return len(lattice.complements(t_node, low=low, high=high))


def sum_formula_table(lattice):
    """All terms of |[R, S]| = sum of n[R', S'] over [R, t(R)] x [t(R), S].

    Returns (table, total) where table maps (i, j) node-index pairs to
    n[nodes[i], nodes[j]].  Also checks that the t-closure of each pair
    equals the global t-closure, which the formula relies on.
    """
    t_node = t_closure_node(lattice)
    lower = lattice.interval(lattice.bottom, t_node)
    upper = lattice.interval(t_node, lattice.top_node)
    table = {}
    for i in lower:
        for j in upper:
            Rp = lattice.nodes[i]
            Sp = lattice.nodes[j]
            require(t_closure_node(lattice, Rp, Sp) == t_node,
                    f"pair {(i, j)} has another t-closure")
            table[(i, j)] = len(lattice.complements(t_node, low=Rp, high=Sp))
    total = sum(table.values())
    return table, total


def verify_sum_formula(lattice, cross_check=False):
    """Require |[R, S]| = sum of n[R', S']; with cross_check, also require
    each term's root-counting formula, read in S on the nodes (R', S')."""
    table, total = sum_formula_table(lattice)
    require(total == lattice.node_count(),
            f"sum formula fails: {total} != {lattice.node_count()}")
    if cross_check:
        for (i, j), n_lat in table.items():
            n_form = complement_count_formula(
                lattice.ext, lattice.nodes[i], lattice.nodes[j]
            )
            require(n_form == n_lat,
                    f"count routes disagree on pair {(i, j)}: "
                    f"formula={n_form} lattice={n_lat}")
    return table, total
