"""Howell-form subgroup operations against element-set oracles.

Intersections, the intersection with the bottom ring and the support of a
quotient are all computed from Howell forms; here they are compared with
the formulas that materialize every member of the subgroups involved.
"""

from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcplat.corpus import CorpusConfig, generate_corpus
from fcplat.lattice import ExtensionLattice
from fcplat.ring import (
    FiniteRing,
    galois_field,
    monogenic_quotient,
    prime_field,
    product_ring,
    ring_from_generators,
)
from fcplat.specfile import parse_spec
from fcplat.structure import (
    idempotents,
    max_ideal_idempotent_pairs,
    maximal_ideals,
)
from fcplat.submodule import (
    Ideal,
    Subalgebra,
    Submodule,
    ideal_generated,
    subring_generated,
)
from test_ring import scalar_add, scalar_mul

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
MIXED_ORDERS = ((8, 4, 2), (12, 6), (9, 3))


def product_of_cyclic_rings(orders):
    """Z/d1 x ... x Z/dn with its idempotent basis."""
    n = len(orders)
    table = [[[int(i == j == k) for k in range(n)] for j in range(n)]
             for i in range(n)]
    return FiniteRing(orders, table, (1,) * n, label=f"Z{orders}")


RINGS = {orders: product_of_cyclic_rings(orders) for orders in MIXED_ORDERS}


@st.composite
def subgroups(draw, ring):
    kind = draw(st.sampled_from(("random", "random", "random", "zero", "whole")))
    if kind == "zero":
        return Submodule.zero(ring)
    if kind == "whole":
        return Submodule.whole(ring)
    row = st.tuples(*[st.integers(0, d - 1) for d in ring.orders])
    return Submodule.from_generators(ring, draw(st.lists(row, max_size=3)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_intersect_is_the_canonical_set_intersection(data):
    ring = RINGS[data.draw(st.sampled_from(MIXED_ORDERS))]
    A = data.draw(subgroups(ring))
    B = data.draw(subgroups(ring))
    common = A.elements() & B.elements()
    meet = A.intersect(B)
    assert meet.elements() == common
    assert meet == Submodule.from_generators(ring, sorted(common))
    assert meet == B.intersect(A)


def test_intersect_keeps_the_subclass():
    ring = RINGS[(12, 6)]
    A = Subalgebra.whole(ring)
    B = Ideal.from_generators(ring, [(2, 3)])
    assert type(A.intersect(B)) is Subalgebra
    assert type(B.intersect(A)) is Ideal
    assert A.intersect(B) == B


def test_whole_and_basis_vectors():
    for ring in RINGS.values():
        whole = Submodule.whole(ring)
        assert whole.size == ring.size
        assert whole == Submodule.from_generators(ring, list(ring.elements()))
        assert ring.basis_vectors == tuple(
            tuple(int(i == j) for i in range(ring.rank))
            for j in range(ring.rank)
        )


def test_from_generators_accepts_an_int_array():
    ring = RINGS[(8, 4, 2)]
    rows = [(6, 3, 1), (4, 2, 0), (0, 1, 1)]
    from_tuples = Submodule.from_generators(ring, rows)
    assert Submodule.from_generators(ring, np.array(rows)) == from_tuples
    # unreduced entries are reduced coordinate-wise, as for tuples
    assert Submodule.from_generators(ring, np.array(rows) + [8, 4, 2]) == (
        from_tuples
    )
    empty = np.zeros((0, ring.rank), dtype=np.int64)
    assert Submodule.from_generators(ring, empty) == Submodule.zero(ring)


# -- span enumeration, batched membership and subring coordinates -----------


def _small_rings():
    F2 = prime_field(2)
    Z4 = FiniteRing((4,), (((1,),),), (1,), label="Z4")
    cube, _, _ = monogenic_quotient(F2, 3, [(0,)] * 3)
    twisted, _, _ = monogenic_quotient(Z4, 2, [(0,), (2,)])
    dual, _, _ = monogenic_quotient(F2, 2, [(0,), (0,)])
    return [
        cube,
        product_ring([twisted, F2])[0],
        product_ring([galois_field(4), dual])[0],
        FiniteRing((9,), (((1,),),), (1,), label="Z9"),
        *RINGS.values(),
    ]


SMALL_RINGS = _small_rings()


def check_span(sub):
    """elements_array lists the span once, sorted, and is what
    contains_many picks out of the ambient's elements."""
    arr = sub.elements_array()
    rows = [tuple(r) for r in arr.tolist()]
    assert len(arr) == sub.size
    assert rows == sorted(set(rows))
    whole = sub.ambient.elements_array()
    assert whole[sub.contains_many(whole)].tolist() == arr.tolist()
    assert sub.elements() == frozenset(rows)


def check_presentation(pres, span):
    """from_ambient_rows inverts to_ambient on the span and refuses the
    rest."""
    to_amb = pres.to_ambient
    for v in span.elements_array().tolist():
        assert to_amb.apply(pres.from_ambient_rows(v)[0]) == tuple(v)
    outside = ~span.contains_many(span.ambient.elements_array())
    for v in span.ambient.elements_array()[outside][:5].tolist():
        with pytest.raises(ValueError):
            pres.from_ambient_rows(v)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_spans_membership_and_coordinates(data):
    ring = data.draw(st.sampled_from(SMALL_RINGS))
    element = st.tuples(*[st.integers(0, d - 1) for d in ring.orders])
    gens = data.draw(st.lists(element, max_size=3))
    check_span(data.draw(subgroups(ring)))
    check_span(Submodule.from_generators(ring, gens))

    # the subring the gens generate, presented over the gens themselves,
    # its Howell basis and 1: redundant rows that are no Howell form
    sub = subring_generated(ring, gens)
    check_span(sub)
    pres = ring_from_generators(ring, [*gens, *sub.basis, ring.one], ring.one)
    assert pres.ring.size == sub.size
    check_presentation(pres, sub)

    # a factor e*R over the rows e*e_j, as local_factors passes them
    e = data.draw(st.sampled_from([e for e in idempotents(ring) if any(e)]))
    rows = ring.mul_pairs(np.eye(ring.rank, dtype=np.int64), e)[:, 0]
    pres = ring_from_generators(ring, rows, e, unital=False)
    factor = Submodule.from_generators(ring, rows)
    assert pres.ring.size == factor.size
    check_presentation(pres, factor)


# -- generated subrings and ideals against two references ------------------


def subring_by_rounds(ambient, gens):
    """The round loop that subring generation used before adjunction by a
    Krylov span: add every basis product outside the span, until a round
    adds none.  Kept as the batched reference for `subring_generated`."""
    current = Subalgebra.from_generators(ambient, [*gens, ambient.one])
    while True:
        B = current.basis_array()
        prods = ambient.mul_pairs(B, B).reshape(-1, ambient.rank)
        extra = prods[~current.contains_many(prods)]
        if not len(extra):
            return current
        current = Subalgebra.from_generators(ambient, np.vstack([B, extra]))


def closure_by_elements(ring, seeds, ops):
    """The least set holding the seeds and closed under the binary ops,
    grown pair by pair with the scalar reference arithmetic."""
    found = set(seeds)
    frontier = list(found)
    while frontier:
        new = set()
        for a in frontier:
            for b in list(found):
                for op in ops:
                    c = op(ring, a, b)
                    if c not in found:
                        new.add(c)
        found |= new
        frontier = list(new)
    return frozenset(found)


RINGS_UP_TO_64 = [ring for ring in SMALL_RINGS if ring.size <= 64]


def elements_of(ring):
    return st.tuples(*[st.integers(0, d - 1) for d in ring.orders])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_subring_over_a_subring_matches_references(data):
    ring = data.draw(st.sampled_from(RINGS_UP_TO_64))
    element = elements_of(ring)
    T = subring_generated(ring, data.draw(st.lists(element, max_size=2)))
    gens = data.draw(st.lists(element, max_size=3))

    over = subring_generated(ring, gens, over=T)
    assert type(over) is Subalgebra
    assert over == subring_generated(ring, [*T.basis, *gens])
    assert over == subring_by_rounds(ring, [*T.basis, *gens])
    seeds = {ring.zero_vec(), ring.one, *T.elements(), *gens}
    want = closure_by_elements(ring, seeds, (scalar_add, scalar_mul))
    assert over.elements() == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ideal_generated_is_the_element_set_ideal(data):
    ring = data.draw(st.sampled_from(RINGS_UP_TO_64))
    gens = data.draw(st.lists(elements_of(ring), max_size=3))
    ideal = ideal_generated(ring, gens)
    assert type(ideal) is Ideal
    assert ideal_generated(ring, ideal.basis_array()) == ideal
    products = {scalar_mul(ring, s, g) for s in ring.elements() for g in gens}
    want = closure_by_elements(ring, {ring.zero_vec(), *products}, (scalar_add,))
    assert ideal.elements() == want


# -- extension-level operations against element-set formulas ---------------


def bottom_span_in_top(ext, rows):
    """The span in S of rows of the bottom re-presented as a ring."""
    to_amb = ext.bottom.as_ring().to_ambient
    return Submodule.from_generators(ext.top, to_amb.apply_rows(rows))


def meet_bottom_by_elements(ext, sub):
    """sub cap R from element sets, through the standalone bottom ring."""
    pres = ext.bottom.as_ring()
    common = sub.elements() & ext.bottom.elements()
    inside = Ideal.from_generators(
        pres.ring, pres.from_ambient_rows(sorted(common))
    )
    return bottom_span_in_top(ext, inside.basis)


def msupp_quotient_by_elements(ext, lower, upper):
    pres = ext.bottom.as_ring()
    top = ext.top
    out = []
    for e, M in max_ideal_idempotent_pairs(pres.ring):
        e_amb = pres.to_ambient.apply(e)
        lo = {scalar_mul(top, e_amb, v) for v in lower.elements()}
        up = {scalar_mul(top, e_amb, v) for v in upper.elements()}
        if lo != up:
            out.append(bottom_span_in_top(ext, M.basis))
    return out


@lru_cache(maxsize=None)
def seed11_corpus():
    return generate_corpus(CorpusConfig(seed=11, count=6))


def extension(name):
    if name.startswith("c"):
        return seed11_corpus()[int(name[1:])].ext
    _, ext = parse_spec((FIXTURES / f"{name}.json").read_text())
    return ext


@pytest.mark.parametrize(
    "name", ["remark_1317", "b5101_q2"] + [f"c{i:03d}" for i in range(6)]
)
def test_extension_meets_match_element_sets(name):
    ext = extension(name)
    lat = ExtensionLattice(ext)
    top = ext.top
    subs = (
        maximal_ideals(top)
        + [ext.conductor_ideal(), Submodule.zero(top), Submodule.whole(top)]
        + list(lat.nodes)
    )
    for sub in subs:
        got = sub.intersect(ext.bottom).key
        assert got == meet_bottom_by_elements(ext, sub).key
    leq = lat.leq()
    for i, lower in enumerate(lat.nodes):
        for j in sorted(leq[i]):
            upper = lat.nodes[j]
            got = {M.key for M in ext.msupp_quotient(lower, upper)}
            want = {M.key for M in msupp_quotient_by_elements(ext, lower, upper)}
            assert got == want, (name, i, j)
