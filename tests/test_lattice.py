import json
import sys
from pathlib import Path

import numpy as np
import pytest

from fcplat import lattice, minimal
from fcplat.cli import main
from fcplat.corpus import CorpusConfig, generate_corpus
from fcplat.lattice import (
    ExtensionLattice,
    LatticeBudgetExceeded,
    enumerate_interval,
)
from fcplat.linalg import howell_contains, scale_rows
from fcplat.minimal import (
    MinimalClassification,
    NotMinimalError,
    classify_minimal,
    edge_labels,
)
from fcplat.ring import (
    exact_log,
    galois_field,
    is_prime,
    monogenic_quotient,
    prime_field,
    product_ring,
)
from fcplat.specfile import parse_spec
from fcplat.spectrum import Extension
from fcplat.structure import maximal_ideals, nilradical
from fcplat.submodule import Submodule, subring_generated
from fcplat.verify import run_suite
from test_ring import scalar_mul
from test_verify import count_calls

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
    leq = lat.leq()
    for i, low in enumerate(lat.nodes):
        # brute force: re-enumerate [low, top] and walk all its maximal chains
        upper = ExtensionLattice(Extension(lat.ambient, low))
        lengths = {len(chain) - 1 for chain in maximal_chains(upper)}
        assert lat.path_lengths(low) == (max(lengths), min(lengths))
        # and every interval [low, high], high re-presented as a ring
        for j in sorted(leq[i]):
            high = lat.nodes[j]
            inner = ExtensionLattice(lat.sub_extension(low, high)[0])
            lengths = {len(chain) - 1 for chain in maximal_chains(inner)}
            assert lat.path_lengths(low, high) == (max(lengths), min(lengths))
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


@pytest.mark.parametrize("case", list(CASES))
def test_pair_predicates_match_the_presented_extension(case):
    # read in S on the pair (low, high), against high re-presented as a
    # ring over low
    lat = ExtensionLattice(CASES[case]())
    ext = lat.ext
    leq = lat.leq()
    for i, low in enumerate(lat.nodes):
        for j in sorted(leq[i]):
            high = lat.nodes[j]
            sub, _ = lat.sub_extension(low, high)
            got = (ext.is_i_extension(low, high),
                   ext.is_infra_integral(low, high),
                   ext.is_subintegral(low, high))
            assert got == (sub.is_i_extension(), sub.is_infra_integral(),
                           sub.is_subintegral()), (i, j)
    assert (ext.is_i_extension(), ext.is_infra_integral()) == (
        ext.is_i_extension(lat.bottom, lat.top_node),
        ext.is_infra_integral(lat.bottom, lat.top_node),
    )


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


# -- the order read off the search against membership -----------------------


def leq_reference(lat):
    """The containment matrix by membership: the basis rows of every node,
    tested against each node at once."""
    rows = np.vstack([n.basis_array() for n in lat.nodes])
    starts = np.cumsum([0] + [len(n.hrows) for n in lat.nodes[:-1]])
    out = [set() for _ in lat.nodes]
    for j, b in enumerate(lat.nodes):
        inside = np.logical_and.reduceat(b.contains_many(rows), starts)
        for i in np.flatnonzero(inside):
            out[i].add(j)
    return out


def hasse_reference(leq):
    """The covering pairs of a containment matrix by a triple loop, sorted."""
    edges = []
    for i in range(len(leq)):
        for j in leq[i]:
            if j == i:
                continue
            if any(k != i and k != j and j in leq[k] for k in leq[i]):
                continue
            edges.append((i, j))
    edges.sort()
    return edges


def assert_order_matches_reference(lat):
    leq = leq_reference(lat)
    assert lat.leq() == leq
    assert lat.hasse_edges() == hasse_reference(leq)


ORDER_CASES = {
    **CASES,
    # 500 nodes
    "F8[y]/(y^2)xF4[y]/(y^2)": lambda: prime_ext(product_ring(
        [truncated(galois_field(8), 2), truncated(galois_field(4), 2)])[0]),
}


@pytest.mark.parametrize("case", list(ORDER_CASES))
def test_order_and_edges_match_membership_reference(case):
    assert_order_matches_reference(ExtensionLattice(ORDER_CASES[case]()))


def test_order_and_edges_match_membership_reference_on_corpus():
    for seed in range(200):
        entry, = generate_corpus(CorpusConfig(seed=seed, count=1, max_size=128))
        assert_order_matches_reference(entry.lattice)


def test_order_and_edges_make_no_membership_test(monkeypatch):
    # <= and the covers are read off the search pairs, so neither reduces a
    # vector against a node's Howell basis
    lat = ExtensionLattice(top_ext("F4[y]/(y^2)^2xF2"))
    calls = []
    monkeypatch.setattr(Submodule, "contains_many",
                        counting(Submodule.contains_many, calls))
    wrapped = counting(howell_contains, calls)
    for name, module in list(sys.modules.items()):
        if (name.startswith("fcplat.")
                and getattr(module, "howell_contains", None) is howell_contains):
            monkeypatch.setattr(module, "howell_contains", wrapped)
    lat.leq()
    lat.hasse_edges()
    assert calls == []
    # the counters see the membership route
    leq_reference(lat)
    assert len(calls) == 2 * lat.node_count()


# -- the edge classifier in S against the presented classifier --------------


def classify_minimal_reference(ext):
    """Classify a minimal extension A <= B with B presented as a ring: the
    conductor (A : B) from B's element list, the maximal ideals of B, and
    the least witness q in B \\ A.  The crucial key and the witness are in
    B's coordinates."""
    B = ext.top
    A = ext.bottom
    C = ext.conductor_ideal()
    if C.key not in {P.key for P in ext.bottom_maximal_ideals()}:
        raise NotMinimalError("conductor is not maximal in the bottom ring")
    q_res = A.size // C.size
    over = [N for N in maximal_ideals(B) if C <= N]
    checks = []
    if any(N.key == C.key for N in over):
        deg = exact_log(B.size // C.size, q_res)
        if deg is not None and is_prime(deg):
            checks.append(MinimalClassification("inert", C.key, deg, None))
    if len(over) == 2:
        N1, N2 = over
        if N1.intersect(N2) == C:
            if B.size // N1.size == B.size // N2.size == q_res:
                w = _least_witness(ext, C, shifted=True)
                checks.append(MinimalClassification("decomposed", C.key, 1, w))
    if len(over) == 1 and over[0].key != C.key:
        N = over[0]
        NB = N.basis_array()
        if Submodule.from_generators(B, B.mul_pairs(NB, NB)) <= C:
            if B.size // C.size == q_res**2 and B.size // N.size == q_res:
                w = _least_witness(ext, C, shifted=False)
                checks.append(MinimalClassification("ramified", C.key, 2, w))
    if len(checks) != 1:
        raise NotMinimalError(f"{len(checks)} minimal shapes match")
    return checks[0]


def _least_witness(ext, C, shifted):
    """Least q in B \\ A with q^2 - q (shifted) or q^2 (not) in C."""
    B = ext.top
    arr = B.elements_array()
    val = B.mul_rows(arr, arr)
    if shifted:
        val = (val - arr) % B.np_orders
    hits = np.flatnonzero(~ext.bottom.contains_many(arr) & C.contains_many(val))
    assert len(hits), "a decomposed or ramified step has a witness"
    return tuple(arr[hits[0]].tolist())


def assert_edges_match_reference(lat):
    S = lat.ambient
    for (i, j), c in edge_labels(lat).items():
        T, U = lat.nodes[i], lat.nodes[j]
        sub, pres = lat.sub_extension(T, U)
        ref = classify_minimal_reference(sub)
        assert (c.kind, c.residual_degree) == (ref.kind, ref.residual_degree)
        ref_C = Submodule(pres.ring, ref.crucial_key).basis_array()
        C = Submodule.from_generators(S, pres.to_ambient.apply_rows(ref_C))
        assert c.crucial_key == C.key
        if c.kind == "inert":
            assert c.witness is None
            continue
        w = np.array(c.witness)
        val = S.mul_rows(w, w)
        if c.kind == "decomposed":
            val = (val - w) % S.np_orders
        assert U.contains(w) and not T.contains(w) and C.contains_many(val)[0]


@pytest.mark.parametrize("case", ["b5101_q2", "remark_1317",
                                  "F4[y]/(y^2)^2xF2", "F2^5"])
def test_edge_classifier_matches_presented_reference(case):
    assert_edges_match_reference(ExtensionLattice(CASES[case]()))


def test_edge_classifier_matches_presented_reference_on_corpus():
    for seed in range(200):
        entry, = generate_corpus(CorpusConfig(seed=seed, count=1, max_size=128))
        assert_edges_match_reference(entry.lattice)


def test_edge_labels_present_no_ring(monkeypatch):
    # every edge is classified on spans of S: no node is presented as a ring
    calls = []
    count_calls(monkeypatch, calls)
    exts = [CASES["b5101_q2"](), CASES["remark_1317"]()]
    exts += [entry.ext for entry in
             generate_corpus(CorpusConfig(seed=0, count=10, max_size=128))]
    for ext in exts:
        lat = ExtensionLattice(Extension(ext.top, ext.bottom))
        calls.clear()
        edge_labels(lat)
        assert calls == [], (ext, calls)


@pytest.mark.parametrize("fixture", ["b5101_q2", "remark_1317"])
def test_classify_crucial_keys_are_maximal_ideals_of_the_foot(capsys, fixture):
    # each printed key is (T : U) in S's coordinates: a maximal ideal Q of
    # the node `from` with Q times the node `to` inside it
    assert main(["classify", str(FIXTURES / f"{fixture}.json")]) == 0
    doc = json.loads(capsys.readouterr().out)
    lat = ExtensionLattice(CASES[fixture]())
    S = lat.ambient
    for edge in doc["edges"]:
        T, U = lat.nodes[edge["from"]], lat.nodes[edge["to"]]
        C = Submodule(S, tuple(map(tuple, edge["crucial_key"])))
        assert C.key in {Q.key for _, Q in lat.ext.max_ideal_pairs(T)}
        prods = S.mul_pairs(C.basis_array(), U.basis_array())
        assert T.contains_many(prods.reshape(-1, S.rank)).all()


def test_not_minimal_is_a_property_violation(monkeypatch, capsys):
    def refuse(ext, low=None, high=None):
        raise NotMinimalError("refused")

    monkeypatch.setattr(minimal, "classify_minimal", refuse)
    assert main(["classify", str(FIXTURES / "b5101_q2.json")]) == 1
    assert "property violation: refused" in capsys.readouterr().err
    entry, = generate_corpus(CorpusConfig(seed=0, count=1, max_size=128))
    report, ok = run_suite([entry], "all")
    assert not ok
    failed = [st for st in report.values() if st["fail"]]
    assert failed
    assert all(f"{entry.name}: refused" in st["failures"] for st in failed)
