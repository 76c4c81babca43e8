"""Dual closures: co-subintegral and co-infra-integral closures.

The co-subintegral closure of R <= S is the least T in [R, S] such that
T <= S is subintegral, when such a least node exists; the co-infra-integral
closure is defined the same way with infra-integral in place of subintegral.
Unlike the ordinary closures these need not exist.  Any interval [low,
high] of [R, S] is the lattice of low <= high, so it is read in S as well.

Existence is decided three independent ways and the answers are required to
agree:

  1. the meet T of all qualifying nodes itself qualifies;
  2. some qualifying node is contained in every other qualifying node;
  3. the interval [T, high] is catenarian (all its maximal chains have the
     same length).

When existence fails a certificate is extracted: either a pair of co-atoms
that are minimal extensions of the same non-inert type sharing a crucial
ideal (which forces their intersection into every candidate interval while
being t-closed below them), or simply a pair of qualifying nodes whose meet
fails to qualify.
"""

from dataclasses import dataclass
from functools import reduce
from itertools import combinations

from .minimal import edge_labels
from .ring import require

CO_KINDS = ("subintegral", "infra_integral")


@dataclass
class CoClosure:
    kind: str  # 'subintegral' | 'infra_integral'
    exists: bool
    node: object  # Subalgebra when exists, else None
    meet: object  # intersection of all qualifying nodes (a Subalgebra)
    qualifying: tuple  # lattice indices of qualifying nodes, sorted
    certificate: tuple | None  # non-existence evidence, None when exists


def node_qualifies(lattice, node, kind, high=None):
    """Does node <= high (S by default) have the defining property for the
    given co-closure?"""
    ext = lattice.ext
    if kind == "subintegral":
        return ext.is_subintegral(node, high)
    if kind == "infra_integral":
        return ext.is_infra_integral(node, high)
    raise ValueError(f"unknown co-closure kind {kind!r}")


def co_atom_certificate(lattice, kind, qualifying, high=None):
    """A pair of same-type non-inert qualifying co-atoms of high (S by
    default) sharing a crucial ideal.

    Two distinct co-atoms T, U with T < high and U < high minimal ramified
    rule out both co-closures when they share their crucial ideal; a
    decomposed pair of distinct co-atoms that are fields sharing the
    crucial ideal rules out the co-infra-integral closure.  Ramified
    co-atoms qualify for both kinds and decomposed ones for the
    infra-integral kind, so keeping to the qualifying nodes of an interval
    [low, high] loses no such pair in it.  Crucial keys are spans of S, so
    keys of different co-atoms compare.  Returns (shape, i, j) or None.
    """
    top_i = len(lattice.nodes) - 1 if high is None else lattice.index[high.key]
    classified = [
        (i, c) for (i, j), c in edge_labels(lattice).items()
        if j == top_i and i in qualifying
    ]
    for (i, ci), (j, cj) in combinations(classified, 2):
        if ci.crucial_key != cj.crucial_key:
            continue
        if ci.kind == cj.kind == "ramified":
            return ("ramified-pair", i, j)
        if kind == "infra_integral" and ci.kind == cj.kind == "decomposed":
            if _is_field(lattice, i) and _is_field(lattice, j):
                return ("decomposed-pair", i, j)
    return None


def _is_field(lattice, i):
    """Is node i a field: has it one maximal ideal, and that one zero?"""
    ms = lattice.ext.max_ideal_pairs(lattice.nodes[i])
    return len(ms) == 1 and ms[0][1].size == 1


def _failing_pair(lattice, kind, qualifying, high=None):
    """Two qualifying nodes whose meet does not qualify, if any."""
    for i, j in combinations(qualifying, 2):
        V = lattice.nodes[i].intersect(lattice.nodes[j])
        if not node_qualifies(lattice, V, kind, high):
            return ("meet-pair", i, j)
    return None


def co_closure(lattice, kind, low=None, high=None):
    """The co-closure of the given kind of [low, high], low and high
    defaulting to the bottom and the top, with existence decided by three
    independent routes that must agree."""
    if kind not in CO_KINDS:
        raise ValueError(f"unknown co-closure kind {kind!r}")
    low = lattice.bottom if low is None else low
    top = lattice.top_node if high is None else high
    qual = tuple(
        i for i in lattice.interval(low, top)
        if node_qualifies(lattice, lattice.nodes[i], kind, high)
    )
    require(qual, "the top node always qualifies")
    meet = reduce(
        lambda a, b: a.intersect(b), (lattice.nodes[i] for i in qual)
    )
    require(meet.key in lattice.index, "meet of subrings is a subring")
    meet = lattice.nodes[lattice.index[meet.key]]

    exists_meet = node_qualifies(lattice, meet, kind, high)
    least = lattice.least(qual)
    exists_least = least is not None
    longest, shortest = lattice.path_lengths(meet, high)
    exists_cat = longest == shortest
    require(exists_meet == exists_least == exists_cat,
            "existence routes disagree: "
            f"meet={exists_meet} least={exists_least} catenarian={exists_cat}")
    if exists_meet:
        require(lattice.index[meet.key] == least, "the meet must be least")
        return CoClosure(kind, True, meet, meet, qual, None)
    cert = co_atom_certificate(lattice, kind, qual, high)
    if cert is None:
        cert = _failing_pair(lattice, kind, qual, high)
    if cert is None:
        cert = ("meet", qual)
    return CoClosure(kind, False, None, meet, qual, cert)


def co_subintegral_closure(lattice):
    return co_closure(lattice, "subintegral")


def co_infra_integral_closure(lattice):
    return co_closure(lattice, "infra_integral")


def co_integral_closure(lattice):
    """Least node T with T <= S integral.

    Over finite rings every subextension is integral, so this is the bottom;
    the intersection characterization is verified rather than assumed.
    """
    meet = reduce(lambda a, b: a.intersect(b), lattice.nodes)
    require(meet == lattice.bottom, "every node is integral over the bottom")
    return lattice.bottom


def prufer_hull(lattice):
    """Greatest node T with R <= T a normal-pair (Prufer) extension.

    A minimal Prufer step is a flat epimorphism, and no cover of the bottom
    of a finite extension is an epimorphism, so the hull collapses to the
    bottom.  The emptiness of epimorphic covers is checked, not assumed.
    """
    from .spectrum import is_epimorphism

    bot_i = lattice.index[lattice.bottom.key]
    for i, j in lattice.hasse_edges():
        if i != bot_i:
            continue
        sub, _ = lattice.sub_extension(lattice.bottom, lattice.nodes[j])
        require(not is_epimorphism(sub),
                "a cover of the bottom cannot be an epimorphism")
    return lattice.bottom


def coclosure_report(lattice):
    report = {
        "co_subintegral": co_subintegral_closure(lattice),
        "co_infra_integral": co_infra_integral_closure(lattice),
        "co_integral": co_integral_closure(lattice),
        "prufer_hull": prufer_hull(lattice),
    }
    # degenerate almost-Prufer identity over finite rings: the Prufer hull
    # and the co-integral closure coincide (both are the bottom)
    require(report["prufer_hull"] == report["co_integral"],
            "the Prufer hull and the co-integral closure must coincide")
    cs, ci = report["co_subintegral"], report["co_infra_integral"]
    if cs.exists and ci.exists:
        require(ci.node <= cs.node, "co-closures must be nested")
    return report
