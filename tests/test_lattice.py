import pytest

from fcplat.lattice import ExtensionLattice, LatticeBudgetExceeded
from fcplat.minimal import classify_minimal, edge_labels
from fcplat.ring import galois_field, monogenic_quotient, prime_field, product_ring
from fcplat.spectrum import Extension
from fcplat.submodule import subring_generated
from test_ring import scalar_mul


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
