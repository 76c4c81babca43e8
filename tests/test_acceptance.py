"""Acceptance criteria 1-8, one test (one pass/fail line under -v) each.

Criteria 4-8 share a single seeded 300-extension corpus and one run of the
full verification suite, so the whole file stays within the time budgets.
"""

import json
import time
from pathlib import Path

import pytest

from fcplat.closures import closure_report, seminormalization
from fcplat.coclosures import co_infra_integral_closure
from fcplat.corpus import CorpusConfig, generate_corpus
from fcplat.lattice import ExtensionLattice
from fcplat.minimal import classify_cover
from fcplat.ring import (
    galois_field,
    monogenic_quotient,
    prime_field,
    product_ring,
)
from fcplat.specfile import parse_spec
from fcplat.spectrum import Extension, is_unramified
from fcplat.structure import maximal_ideals
from fcplat.submodule import Submodule, subring_generated
from fcplat.verify import run_suite
from test_golden import DIGESTS as GOLDEN_DIGESTS, corpus_digests
from test_ring import scalar_add, scalar_mul

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _field(q):
    return prime_field(q) if q in (2, 3, 5) else galois_field(q)


@pytest.fixture(scope="module")
def corpus_and_report():
    entries = generate_corpus(CorpusConfig(seed=0, count=300))
    start = time.monotonic()
    report, ok = run_suite(entries, "all")
    elapsed = time.monotonic() - start
    return entries, report, ok, elapsed


def test_criterion_1_truncated_polynomial_counts():
    # |[F_q, F_q[Y]/(Y^4)]| = q + 4 for q in {2, 3, 4, 5}, each under 5 s
    for q in (2, 3, 4, 5):
        start = time.monotonic()
        K = _field(q)
        T, emb, y = monogenic_quotient(K, 4, [K.zero_vec()] * 4)
        bottom = subring_generated(T, list(emb.rows))
        lat = ExtensionLattice(Extension(T, bottom))
        assert lat.node_count() == q + 4, f"q={q}"
        assert time.monotonic() - start < 5.0, f"q={q} too slow"
        if q != 2:
            continue
        # named nodes for q=2: K, K' = K[y^3], K_a for a in K,
        # S = K[y^2, y^3], and T itself
        y2 = scalar_mul(T, y, y)
        y3 = scalar_mul(T, y2, y)
        expected = {
            bottom.key,
            subring_generated(T, [y3]).key,
            subring_generated(T, [y2]).key,
            subring_generated(T, [scalar_add(T, y2, y3)]).key,
            subring_generated(T, [y2, y3]).key,
            lat.top_node.key,
        }
        assert {n.key for n in lat.nodes} == expected
    print("criterion 1: PASS")


def test_criterion_2_two_branch_fixture():
    start = time.monotonic()
    _, ext = parse_spec((FIXTURES / "remark_1317.json").read_text())
    lat = ExtensionLattice(ext)
    S = ext.top
    rep = closure_report(lat)
    bottom = lat.bottom

    # the u-closure is the R x R node, of index 2 in S
    u = lat.nodes[lat.index[rep["u"].key]]
    assert u.size == 16 and S.size == 32

    # plus-closure of R inside R x R, by two routes
    plus_in_u = rep["plus"].intersect(u)
    sub, pres = lat.sub_extension(bottom, u)
    inner = seminormalization(sub).basis
    assert Submodule.from_generators(
        S, pres.to_ambient.apply_rows(inner)) == plus_in_u

    # ... equals R + (M x M): M x M is spanned by g*e over the idempotents
    # e of R x R, with g the nilpotent generator of the bottom
    g = next(
        v for v in bottom.elements()
        if any(v) and scalar_mul(S, v, v) == S.zero_vec()
    )
    idems = [v for v in u.elements() if scalar_mul(S, v, v) == v]
    r_plus_mxm = subring_generated(S, [scalar_mul(S, g, e) for e in idems])
    assert r_plus_mxm == plus_in_u
    assert r_plus_mxm.size == 8

    # interval lengths
    mid = lat.nodes[lat.index[plus_in_u.key]]
    assert [lat.nodes[k].size for k in lat.interval(bottom, u)] == [4, 8, 16]
    assert ExtensionLattice(sub).length() == 2
    assert lat.length() == 3

    # chain types along R < R+(MxM) < RxR < S: ramified, decomposed, ramified
    chain = [lat.index[n.key] for n in (bottom, mid, u, lat.top_node)]
    kinds = [
        classify_cover(lat, i, j).kind for i, j in zip(chain, chain[1:])
    ]
    assert kinds == ["ramified", "decomposed", "ramified"]
    assert time.monotonic() - start < 5.0
    print("criterion 2: PASS")


def test_criterion_3_unramified_not_hereditary():
    # R = F2[t]/(t^2) diagonally inside R x R is unramified, its seminormal
    # intermediate step is not, and the omega-closure is everything
    K = prime_field(2)
    R, _, t = monogenic_quotient(K, 2, [K.zero_vec(), K.zero_vec()])
    S, pack = product_ring([R, R])
    bottom = subring_generated(S, [pack([t, t])])
    ext = Extension(S, bottom)
    assert is_unramified(ext)

    lat = ExtensionLattice(ext)
    rep = closure_report(lat)
    assert rep["omega"] == lat.top_node

    plus = lat.nodes[lat.index[rep["plus"].key]]
    assert plus.size == 8 and plus != lat.top_node
    sub, _ = lat.sub_extension(lat.bottom, plus)
    assert not is_unramified(sub)
    print("criterion 3: PASS")


def test_criterion_4_identity_suite(corpus_and_report):
    entries, report, ok, elapsed = corpus_and_report
    assert len(entries) == 300
    assert ok, {k: v for k, v in report.items() if v["fail"]}
    for st in report.values():
        assert st["fail"] == 0 and st["failures"] == []
    assert elapsed < 600.0, f"full suite took {elapsed:.0f}s"
    print("criterion 4: PASS")


def test_criterion_5_dual_oracles(corpus_and_report):
    entries, report, _, _ = corpus_and_report
    n = len(entries)
    for name in ("closure_oracles", "radicial_is_seminormalization",
                 "count_paths_agree"):
        st = report[name]
        assert st["fail"] == 0 and st["pass"] == n, name
    print("criterion 5: PASS")


def test_criterion_6_sum_formula(corpus_and_report):
    entries, report, _, _ = corpus_and_report
    st = report["sum_formula"]  # applies to every local-bottom member,
    # with each table entry re-verified by the formula route (cross_check)
    n_local = sum(
        1 for e in entries
        if len(maximal_ideals(e.ext.bottom.as_ring().ring)) == 1
    )
    assert st["fail"] == 0
    assert st["pass"] == n_local and st["pass"] + st["not_applicable"] == 300
    print("criterion 6: PASS")


def test_criterion_7_coclosure_existence(corpus_and_report):
    _, report, _, _ = corpus_and_report
    # three-route agreement is asserted inside co_closure; the check also
    # demands existence on every catenarian member
    st = report["co_triple_agreement"]
    assert st["fail"] == 0 and st["pass"] == 300

    # negative fixture: F2 in F4 x F4 has no co-infra-integral closure and
    # certifies it with two decomposed co-atoms
    F4 = galois_field(4)
    S, _ = product_ring([F4, F4])
    lat = ExtensionLattice(Extension(S, subring_generated(S, [])))
    co = co_infra_integral_closure(lat)
    assert not co.exists
    assert co.certificate is not None and co.certificate[0] == "decomposed-pair"
    i, j = co.certificate[1:]
    assert lat.nodes[i].size == lat.nodes[j].size == 4
    print("criterion 7: PASS")


def test_criterion_8_classification_exhaustive(corpus_and_report):
    _, report, _, _ = corpus_and_report
    for name in ("edge_classification", "chain_type_flags"):
        st = report[name]
        assert st["fail"] == 0 and st["pass"] == 300, name
    print("criterion 8: PASS")


def test_corpus_and_report_match_golden_digests(corpus_and_report):
    # the seed-0 corpus (names, descriptions, node keys) and its verify
    # report are byte-identical to the ones the digests were taken from
    entries, report, _, _ = corpus_and_report
    want = json.loads(GOLDEN_DIGESTS.read_text())
    assert corpus_digests(entries, report) == want
