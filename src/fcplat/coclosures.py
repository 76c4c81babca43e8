"""Dual closures: co-subintegral and co-infra-integral closures.

The co-subintegral closure of R <= S is the least T in [R, S] such that
T <= S is subintegral, when such a least node exists; the co-infra-integral
closure is defined the same way with infra-integral in place of subintegral.
Unlike the ordinary closures these need not exist.

Existence is decided three independent ways and the answers are required to
agree:

  1. the meet T of all qualifying nodes itself qualifies;
  2. some qualifying node is contained in every other qualifying node;
  3. the interval [T, S] is catenarian (all its maximal chains have the
     same length).

When existence fails a certificate is extracted: either a pair of co-atoms
that are minimal extensions of the same non-inert type sharing a crucial
ideal (which forces their intersection into every candidate interval while
being t-closed below them), or simply a pair of qualifying nodes whose meet
fails to qualify.
"""

from dataclasses import dataclass
from functools import reduce

from .minimal import edge_labels

CO_KINDS = ("subintegral", "infra_integral")


@dataclass
class CoClosure:
    kind: str  # 'subintegral' | 'infra_integral'
    exists: bool
    node: object  # Subalgebra when exists, else None
    meet: object  # intersection of all qualifying nodes (a Subalgebra)
    qualifying: tuple  # lattice indices of qualifying nodes, sorted
    certificate: tuple | None  # non-existence evidence, None when exists


def node_qualifies(lattice, node, kind):
    """Does node <= S have the defining property for the given co-closure?"""
    ext = lattice.upper(node)
    if kind == "subintegral":
        return ext.is_subintegral()
    if kind == "infra_integral":
        return ext.is_infra_integral()
    raise ValueError(f"unknown co-closure kind {kind!r}")


def co_atom_certificate(lattice, kind, qualifying):
    """A pair of same-type non-inert qualifying co-atoms sharing a crucial
    ideal.

    Two distinct co-atoms T, U with T < S and U < S minimal ramified rule
    out both co-closures when they share their crucial ideal; a decomposed
    pair of distinct co-atoms that are fields sharing the crucial ideal
    rules out the co-infra-integral closure.  Ramified co-atoms qualify for
    both kinds and decomposed ones for the infra-integral kind, so keeping
    to the qualifying nodes of an interval [U, S] loses no such pair in it.
    Crucial keys are spans of S, so keys of different co-atoms compare.
    Returns (shape, i, j) or None.
    """
    top_i = len(lattice.nodes) - 1
    classified = [
        (i, c) for (i, j), c in edge_labels(lattice).items()
        if j == top_i and i in qualifying
    ]
    for a in range(len(classified)):
        for b in range(a + 1, len(classified)):
            i, ci = classified[a]
            j, cj = classified[b]
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
    ms = lattice.upper(lattice.nodes[i]).bottom_maximal_ideals()
    return len(ms) == 1 and ms[0].size == 1


def _failing_pair(lattice, kind, qualifying):
    """Two qualifying nodes whose meet does not qualify, if any."""
    for a in range(len(qualifying)):
        for b in range(a + 1, len(qualifying)):
            i, j = qualifying[a], qualifying[b]
            V = lattice.nodes[i].intersect(lattice.nodes[j])
            if not node_qualifies(lattice, V, kind):
                return ("meet-pair", i, j)
    return None


def co_closure(lattice, kind, low=None):
    """The co-closure of the given kind of [low, S], low defaulting to the
    bottom, with existence decided by three independent routes that must
    agree."""
    if kind not in CO_KINDS:
        raise ValueError(f"unknown co-closure kind {kind!r}")
    low = lattice.bottom if low is None else low
    qual = tuple(
        i for i in lattice.interval(low, lattice.top_node)
        if node_qualifies(lattice, lattice.nodes[i], kind)
    )
    assert qual, "the top node always qualifies"
    meet = reduce(
        lambda a, b: a.intersect(b), (lattice.nodes[i] for i in qual)
    )
    assert meet.key in lattice.index, "meet of subrings is a subring"
    meet = lattice.nodes[lattice.index[meet.key]]

    exists_meet = node_qualifies(lattice, meet, kind)
    least = lattice.least(qual)
    exists_least = least is not None
    longest, shortest = lattice.path_lengths(meet)
    exists_cat = longest == shortest
    assert exists_meet == exists_least == exists_cat, (
        "existence routes disagree: "
        f"meet={exists_meet} least={exists_least} catenarian={exists_cat}"
    )
    if exists_meet:
        assert lattice.index[meet.key] == least
        return CoClosure(kind, True, meet, meet, qual, None)
    cert = co_atom_certificate(lattice, kind, qual)
    if cert is None:
        cert = _failing_pair(lattice, kind, qual)
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
    meet = reduce(
        lambda a, b: a.intersect(b), lattice.nodes
    )
    assert meet == lattice.bottom, "every node is integral over the bottom"
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
        assert not is_epimorphism(sub), (
            "a cover of the bottom cannot be an epimorphism"
        )
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
    assert report["prufer_hull"] == report["co_integral"]
    cs, ci = report["co_subintegral"], report["co_infra_integral"]
    if cs.exists and ci.exists:
        assert ci.node <= cs.node, "co-closures must be nested"
    return report
