from pathlib import Path

import numpy as np
import pytest

from fcplat import lattice
from fcplat.corpus import CorpusConfig, generate_corpus
from fcplat.lattice import (
    ExtensionLattice,
    LatticeBudgetExceeded,
    enumerate_interval,
)
from fcplat.linalg import howell_contains, scale_rows
from fcplat.minimal import classify_minimal, edge_labels
from fcplat.ring import galois_field, monogenic_quotient, prime_field, product_ring
from fcplat.specfile import parse_spec
from fcplat.spectrum import Extension
from fcplat.structure import nilradical
from fcplat.submodule import Submodule, subring_generated
from test_ring import scalar_mul

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def prime_ext(S):
    return Extension(S, subring_generated(S, []))


def maximal_chains(lat):
    """Every maximal chain of [R, S], as a list of node indices: a walk up
    the Hasse diagram from the bottom to the top."""
    succ = {}
    for i, j in lat.hasse_edges():
        succ.setdefault(i, []).append(j)
    chains = []
    stack = [[0]]
    goal = len(lat.nodes) - 1
    while stack:
        path = stack.pop()
        if path[-1] == goal:
            chains.append(path)
            continue
        for j in succ.get(path[-1], []):
            stack.append(path + [j])
    return chains


def test_subfield_lattice_f16():
    F16 = galois_field(16)
    lat = ExtensionLattice(prime_ext(F16))
    # F2 < F4 < F16 is the full chain of intermediate fields
    assert lat.node_count() == 3
    assert [n.size for n in lat.nodes] == [2, 4, 16]
    assert lat.length() == 2
    assert lat.is_chained()
    assert lat.is_catenarian()
    labels = edge_labels(lat)
    assert sorted(e for e in labels) == [(0, 1), (1, 2)]
    assert all(c.kind == "inert" for c in labels.values())
    assert all(c.residual_degree == 2 for c in labels.values())


def test_subfield_lattice_f64_not_chained():
    F64 = galois_field(64)
    lat = ExtensionLattice(prime_ext(F64))
    # intermediate fields F2, F4, F8, F64
    assert lat.node_count() == 4
    assert lat.length() == 2
    assert not lat.is_chained()


def test_f64_catenarian_detail():
    F64 = galois_field(64)
    lat = ExtensionLattice(prime_ext(F64))
    chains = maximal_chains(lat)
    assert {len(c) for c in chains} == {3}
    assert lat.is_catenarian()


def test_partition_lattice_f2_cubed():
    F2 = prime_field(2)
    S, _ = product_ring([F2, F2, F2])
    lat = ExtensionLattice(prime_ext(S))
    # subalgebras of F2^3 containing the diagonal = partitions of a 3-set
    assert lat.node_count() == 5
    assert lat.length() == 2
    labels = edge_labels(lat)
    assert len(labels) == 6
    assert all(c.kind == "decomposed" for c in labels.values())


def test_minimal_ramified_dual_numbers():
    F2 = prime_field(2)
    R, _, t = monogenic_quotient(F2, 2, [F2.zero_vec(), F2.zero_vec()])
    ext = prime_ext(R)
    c = classify_minimal(ext)
    assert c.kind == "ramified"
    assert c.residual_degree == 2
    assert c.witness is not None
    assert scalar_mul(R, c.witness, c.witness) == R.zero_vec()


def test_minimal_decomposed_f3_squared():
    F3 = prime_field(3)
    S, _ = product_ring([F3, F3])
    c = classify_minimal(prime_ext(S))
    assert c.kind == "decomposed"
    w = c.witness
    assert scalar_mul(S, w, w) == w


def test_minimal_inert_f25():
    F25 = galois_field(25)
    c = classify_minimal(prime_ext(F25))
    assert c.kind == "inert"
    assert c.residual_degree == 2
    assert c.witness is None


def test_truncated_polynomials_node_count_q2():
    # K = F2 inside K[Y]/(Y^4): q + 4 intermediate rings
    F2 = prime_field(2)
    T, _, y = monogenic_quotient(F2, 4, [F2.zero_vec()] * 4)
    lat = ExtensionLattice(prime_ext(T))
    assert lat.node_count() == 2 + 4
    assert not lat.is_chained()
    labels = edge_labels(lat)
    assert all(c.kind == "ramified" for c in labels.values())


def test_budget_enforced():
    F2 = prime_field(2)
    S, _ = product_ring([F2, F2, F2])
    with pytest.raises(LatticeBudgetExceeded):
        ExtensionLattice(prime_ext(S), max_nodes=2)


def test_complements_in_partition_lattice():
    F2 = prime_field(2)
    S, _ = product_ring([F2, F2])
    lat = ExtensionLattice(prime_ext(S))
    assert lat.node_count() == 2
    # the top has exactly one complement (the bottom) and vice versa
    comps = lat.complements(lat.top_node)
    assert comps == [lat.bottom]


@pytest.mark.parametrize("make_top", [
    lambda: galois_field(64),
    lambda: product_ring([prime_field(2)] * 3)[0],
    # not catenarian: maximal chains of lengths 2 and 3
    lambda: monogenic_quotient(
        galois_field(4), 2, [galois_field(4).zero_vec()] * 2
    )[0],
], ids=["F64", "F2^3", "F4[y]/(y^2)"])
def test_path_lengths_match_maximal_chains_of_each_upper_interval(make_top):
    lat = ExtensionLattice(prime_ext(make_top()))
    for low in lat.nodes:
        # brute force: re-enumerate [low, top] and walk all its maximal chains
        upper = ExtensionLattice(Extension(lat.ambient, low))
        lengths = {len(chain) - 1 for chain in maximal_chains(upper)}
        assert lat.path_lengths(low) == (max(lengths), min(lengths))
    assert lat.path_lengths() == lat.path_lengths(lat.bottom) == (
        lat.length(), lat.min_chain_length()
    )


# -- the cover search against the all-coset search --------------------------


def enumerate_interval_reference(ambient, bottom, adjoin=subring_generated):
    """The all-coset search: from every node T, adjoin the least element x
    of each coset of T in S, marking the coset by adding x to every element
    of T.  Sorted like `enumerate_interval`."""
    top_elems = ambient.elements_array()
    # the lexicographic index of an element: mixed radix over the orders
    radix = np.cumprod((1,) + ambient.orders[:0:-1])[::-1]
    seen = {bottom.key: bottom}
    frontier = [bottom]
    while frontier:
        T = frontier.pop()
        T_elems = T.elements_array()
        covered = np.zeros(ambient.size, dtype=bool)
        covered[T_elems @ radix] = True
        while True:
            # the least element of S outside the cosets of T seen so far
            i = int(covered.argmin())
            if covered[i]:
                break
            x = top_elems[i]
            U = adjoin(ambient, [x], over=T)
            covered[((x + T_elems) % ambient.np_orders) @ radix] = True
            if U.key not in seen:
                seen[U.key] = U
                frontier.append(U)
    return sorted(seen.values(), key=lambda n: (n.size, n.key))


def truncated(K, d):
    return monogenic_quotient(K, d, [K.zero_vec()] * d)[0]


# each with its node count; F4[y]/(y^2) x F9 has L = 6 and pivots 2 and 3
TOPS = {
    "F4[y]/(y^2)^2xF2": (lambda: product_ring(
        [truncated(galois_field(4), 2)] * 2 + [prime_field(2)])[0], 267),
    "F2[y]/(y^8)": (lambda: truncated(prime_field(2), 8), 110),
    "F2^5": (lambda: product_ring([prime_field(2)] * 5)[0], 52),
    "F4[y]/(y^2)xF9": (lambda: product_ring(
        [truncated(galois_field(4), 2), galois_field(9)])[0], 14),
}


def top_ext(name):
    return prime_ext(TOPS[name][0]())


def fixture_ext(name):
    return parse_spec((FIXTURES / name).read_text())[1]


CASES = {
    "b5101_q2": lambda: fixture_ext("b5101_q2.json"),
    "remark_1317": lambda: fixture_ext("remark_1317.json"),
    **{name: lambda name=name: top_ext(name) for name in TOPS},
}


def counting(fn, calls):
    def wrapper(*args, **kwargs):
        calls.append(1)
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("case", list(CASES))
def test_cover_search_matches_all_coset_search(case):
    ext = CASES[case]()
    nodes = enumerate_interval(ext.top, ext.bottom)
    assert [n.key for n in nodes] == [
        n.key for n in enumerate_interval_reference(ext.top, ext.bottom)
    ]
    if case in TOPS:
        assert len(nodes) == TOPS[case][1]


def test_cover_search_matches_all_coset_search_on_corpus():
    for seed in range(200):
        entry, = generate_corpus(CorpusConfig(seed=seed, count=1, max_size=128))
        ext = entry.ext
        assert [n.key for n in entry.lattice.nodes] == [
            n.key for n in enumerate_interval_reference(ext.top, ext.bottom)
        ], seed


@pytest.mark.parametrize("case", list(CASES))
def test_coset_representatives_and_cover_colons(case):
    lat = ExtensionLattice(CASES[case]())
    S = lat.ambient
    for T in lat.nodes:
        reps = T.coset_representatives()
        assert len(reps) * T.size == S.size
        assert not reps[0].any()
        # each is its own residual, so no two share a coset
        V = scale_rows(reps, S.np_orders, S.L)
        assert (howell_contains(V, T.hrows, S.L)[1] == V).all()
    N = nilradical(S)
    for i, j in lat.hasse_edges():
        T, U = lat.nodes[i], lat.nodes[j]
        J = T.intersect(N)
        prods = S.mul_pairs(U.basis_array(), J.basis_array())
        assert T.contains_many(prods.reshape(-1, S.rank)).all()


@pytest.mark.parametrize("name", ["F2^5", "F2[y]/(y^8)"])
def test_budget_raises_exactly_past_the_node_count(name):
    ext = top_ext(name)
    count = TOPS[name][1]
    assert len(enumerate_interval(ext.top, ext.bottom, max_nodes=count)) == count
    with pytest.raises(LatticeBudgetExceeded):
        enumerate_interval(ext.top, ext.bottom, max_nodes=count - 1)


def test_cover_search_adjoins_far_less_than_all_cosets(monkeypatch):
    ext = top_ext("F4[y]/(y^2)^2xF2")
    calls = []
    monkeypatch.setattr(lattice, "subring_generated",
                        counting(subring_generated, calls))
    enumerate_interval(ext.top, ext.bottom)
    assert len(calls) <= 4000
    ref_calls = []
    enumerate_interval_reference(
        ext.top, ext.bottom, adjoin=counting(subring_generated, ref_calls)
    )
    assert len(ref_calls) == 10502


def test_cover_search_lists_no_node_elements(monkeypatch):
    ext = top_ext("F2[y]/(y^8)")

    def refuse(self):
        raise AssertionError("the search listed the elements of a node")

    monkeypatch.setattr(Submodule, "elements_array", refuse)
    assert len(enumerate_interval(ext.top, ext.bottom)) == TOPS["F2[y]/(y^8)"][1]
