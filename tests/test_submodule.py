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
from fcplat.ring import FiniteRing
from fcplat.specfile import parse_spec
from fcplat.structure import max_ideal_idempotent_pairs, maximal_ideals
from fcplat.submodule import Ideal, Subalgebra, Submodule

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


# -- extension-level operations against element-set formulas ---------------


def ideal_to_bottom_by_elements(ext, sub):
    pres = ext.bottom_pres
    common = sub.elements() & ext.bottom.elements()
    return Ideal.from_generators(
        pres.ring, [pres.from_ambient(v) for v in sorted(common)]
    )


def msupp_quotient_by_elements(ext, lower, upper):
    top = ext.top
    to_amb = ext.bottom_pres.to_ambient
    out = []
    for e, M in max_ideal_idempotent_pairs(ext.bottom_ring):
        e_amb = to_amb.apply(e)
        lo = {top._mul(e_amb, v) for v in lower.elements()}
        up = {top._mul(e_amb, v) for v in upper.elements()}
        if lo != up:
            out.append(M)
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
        assert ext.ideal_to_bottom(sub) == ideal_to_bottom_by_elements(ext, sub)
    leq = lat.leq()
    for i, lower in enumerate(lat.nodes):
        for j in sorted(leq[i]):
            upper = lat.nodes[j]
            got = [M.key for M in ext.msupp_quotient(lower, upper)]
            want = [M.key for M in msupp_quotient_by_elements(ext, lower, upper)]
            assert got == want, (name, i, j)
