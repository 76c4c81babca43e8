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

The sum formula states |[R, S]| is the sum of n[R', S'] over all pairs
(R', S') with R <= R' <= t(R) <= S' <= S.
"""

import math

import numpy as np

from .closures import primitive_min_poly, t_closure
from .memo import memo
from .structure import residue_field
from .submodule import Subalgebra, Submodule, subring_generated


def idealizer(ext, M_sub):
    """The greatest subring R' of S in which M_sub stays an ideal.

    M_sub is an additive subgroup of S (a maximal ideal of the bottom, kept
    in S's coordinates); the idealizer is {x in S : x * M_sub <= M_sub}.
    """
    S = ext.top
    arr = S.elements_array()
    prods = S.mul_pairs(arr, M_sub.basis_array())
    mask = M_sub.contains_many(prods).reshape(len(arr), -1).all(axis=1)
    sub = Subalgebra.from_generators(S, arr[mask])
    assert sub.size == int(mask.sum()), "idealizer must be additively closed"
    assert sub.is_subring()
    assert ext.bottom <= sub
    return sub


def complement_count_formula(ext):
    """n[R, S] by the root-counting formula: the local count at the maximal
    ideal of R when R is local, else the product of the local counts over
    MSupp(S/R)."""
    max_R = ext.bottom_maximal_ideals()
    local = max_R if len(max_R) == 1 else ext.msupp()
    return math.prod(_complement_count_local(ext, M) for M in local)


def _complement_count_local(ext, M):
    """n[R_M, S_M], read in S.

    The maximal ideals of S_M are the N of S over M.  With e the idempotent
    of R at M, the idealizer R' of M in S is the idealizer of eM in eS plus
    (1 - e)R, so A = R'/M is already the localized one, and the subalgebras
    of A over R/M are the R[x] / M for x in R'.
    """
    S = ext.top
    tops = [N for N, P in ext.lying_over() if P == M]
    sizes = {ext.residual_sizes(N) for N in tops}
    if len(sizes) != 1:
        # top residue fields of distinct sizes cannot all be isomorphic to
        # one T/M, so no complement exists (finite fields of equal size
        # over the same subfield are isomorphic over it, so size is enough)
        return 0

    # minimal polynomial over R/M of a primitive element of S/N_1, with
    # R/M the image of R in S/N_1, solved over the images of R's basis;
    # each coefficient lifts into R as the same combination of that basis,
    # and two lifts differ by an element of M, which leaves P(x) mod M alone
    N = tops[0]
    kN, projN, _ = residue_field(S, N)
    R = ext.bottom.basis_array()
    coords = primitive_min_poly(
        ext.residue_image(N, ext.bottom), Submodule.whole(kN),
        projN.apply_rows(R),
    )
    P = np.vstack([(coords @ R) % S.np_orders, [S.one]])

    # x + M is a root of P in A = R'/M iff P(x) lies in M; P(x) by Horner's
    # rule, for every x of R' at once
    X = idealizer(ext, M).elements_array()
    acc = np.zeros_like(X)
    for c in P[::-1]:
        acc = (S.mul_rows(acc, X) + c) % S.np_orders
    roots = X[M.contains_many(acc)]
    # (R/M)[x + M] is R[x] / M: one adjunction per coset x + M of roots
    keys = set()
    while len(roots):
        x = roots[0]
        keys.add(subring_generated(S, [x], over=ext.bottom).key)
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
    assert node.key in lattice.index
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
            assert t_closure_node(lattice, Rp, Sp) == t_node
            table[(i, j)] = len(lattice.complements(t_node, low=Rp, high=Sp))
    total = sum(table.values())
    return table, total


def verify_sum_formula(lattice, cross_check=False):
    """Check the sum formula; optionally recompute each term by the
    root-counting formula on the re-presented sub-extension."""
    table, total = sum_formula_table(lattice)
    assert total == lattice.node_count(), (
        f"sum formula fails: {total} != {lattice.node_count()}"
    )
    if cross_check:
        for (i, j), n_lat in table.items():
            sub_ext, _ = lattice.sub_extension(
                lattice.nodes[i], lattice.nodes[j]
            )
            n_form = complement_count_formula(sub_ext)
            assert n_form == n_lat, (
                f"count routes disagree on pair {(i, j)}: "
                f"formula={n_form} lattice={n_lat}"
            )
    return table, total
