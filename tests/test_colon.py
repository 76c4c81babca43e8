"""The colon (A :_S B) by one Howell form, against masks over S's elements.

The conductor (R : S), the idealizer (M : M) and the maximal ideals
M_e = (J : e) were each once a mask over `S.elements_array()`.  Those masks
are kept here as the references the colon routes are compared with.
"""

import itertools
from functools import lru_cache

import numpy as np
import pytest

from fcplat import linalg, structure
from fcplat.corpus import CorpusConfig, generate_corpus
from fcplat.counting import idealizer
from fcplat.lattice import ExtensionLattice
from fcplat.ring import FiniteRing, monogenic_quotient, product_ring
from fcplat.spectrum import Extension
from fcplat.structure import (
    _nilpotent_mask,
    max_ideal_idempotent_pairs,
    nilradical,
    primitive_idempotents,
)
from fcplat.submodule import Ideal, Subalgebra, Submodule
from test_lattice import CASES, counting, fixture_ext

FIXTURE_NAMES = ["b5101_q2.json", "remark_1317.json"]


def conductor_reference(sub):
    """(sub : S) = {x in S : x*S <= sub}, by a mask over S's elements."""
    S = sub.ambient
    arr = S.elements_array()
    prods = S.mul_pairs(arr, np.eye(S.rank, dtype=np.int64))
    mask = sub.contains_many(prods).reshape(S.size, S.rank).all(axis=1)
    return Ideal.from_generators(S, arr[mask])


def idealizer_reference(ext, M_sub):
    """{x in S : x * M_sub <= M_sub}, by a mask over S's elements."""
    S = ext.top
    arr = S.elements_array()
    prods = S.mul_pairs(arr, M_sub.basis_array())
    mask = M_sub.contains_many(prods).reshape(len(arr), -1).all(axis=1)
    sub = Subalgebra.from_generators(S, arr[mask])
    assert sub.size == int(mask.sum()) and sub.is_subring()
    assert ext.bottom <= sub
    return sub


def max_ideals_reference(R):
    """The pairs (e, M_e), M_e = {x : x*e nilpotent}, by a nilpotency mask
    over R's elements for each primitive idempotent e."""
    arr = R.elements_array()
    prims = primitive_idempotents(R)
    prods = R.mul_pairs(arr, prims)
    out = []
    for b, e in enumerate(prims):
        mask = _nilpotent_mask(R, prods[:, b])
        out.append((e, Ideal.from_generators(R, arr[mask])))
    out.sort(key=lambda em: em[1].key)
    return out


def pairs_key(pairs):
    return [(e, M.hrows) for e, M in pairs]


@lru_cache(maxsize=None)
def corpus():
    return generate_corpus(CorpusConfig(seed=0, count=60, max_size=128))


@pytest.mark.parametrize("case", list(CASES))
def test_colon_matches_the_mask_on_every_node_pair(case):
    # for each A, one membership table over S x (the basis rows of all
    # nodes) gives the mask of (A : B) for every B; the colon equals it iff
    # it has the mask's size and its basis rows lie in the mask
    lat = ExtensionLattice(CASES[case]())
    S = lat.ambient
    arr = S.elements_array()
    bases = [B.basis_array() for B in lat.nodes]
    rows, col = np.unique(np.vstack(bases), axis=0, return_inverse=True)
    cols = np.split(col.ravel(), np.cumsum([len(b) for b in bases])[:-1])
    prods = S.mul_pairs(arr, rows).reshape(-1, S.rank)
    for i, A in enumerate(lat.nodes):
        table = A.contains_many(prods).reshape(len(arr), len(rows))
        for j, B in enumerate(lat.nodes):
            mask = table[:, cols[j]].all(axis=1)
            C = A.colon(B)
            at = np.ravel_multi_index(C.basis_array().T, S.orders)
            assert C.size == mask.sum() and mask[at].all(), (i, j)


def fixture_and_corpus_extensions():
    for name in FIXTURE_NAMES:
        ext = fixture_ext(name)
        yield ext, ExtensionLattice(ext)
    for entry in corpus():
        yield entry.ext, entry.lattice


def test_conductor_and_idealizers_match_the_masks():
    compared = 0
    for ext, lat in fixture_and_corpus_extensions():
        S = ext.top
        for T in lat.nodes:
            assert Extension(S, T).conductor_ideal() == conductor_reference(T)
            for _, M in ext.max_ideal_pairs(T):
                assert idealizer(ext, M) == idealizer_reference(ext, M)
                compared += 1
    assert compared > 600


def test_maximal_ideals_match_the_nilpotent_masks_on_corpus_tops():
    for entry in corpus():
        S = entry.ext.top
        assert pairs_key(max_ideal_idempotent_pairs(S)) == pairs_key(
            max_ideals_reference(S)), entry.name


def prime_power_rings():
    """Z/n for n = 4, 8, 9, each monic quadratic quotient over it, and the
    product of each with Z/n."""
    for n in (4, 8, 9):
        Z = FiniteRing((n,), (((1,),),), (1,))
        for red in itertools.product(range(n), repeat=2):
            Q = monogenic_quotient(Z, 2, [(c,) for c in red])[0]
            yield Q
            yield product_ring([Q, Z])[0]


def test_colon_and_maximal_ideals_in_prime_power_characteristic(monkeypatch):
    # L = 4, 8 or 9: Howell pivots such as 2 in Z/4 are nilpotent non-units,
    # which only the general Howell insertion handles
    calls = []
    monkeypatch.setattr(linalg, "_howell_form_general",
                        counting(linalg._howell_form_general, calls))
    rng = np.random.default_rng(0)
    compared = nilpotent_pivots = 0
    for R in prime_power_rings():
        assert pairs_key(max_ideal_idempotent_pairs(R)) == pairs_key(
            max_ideals_reference(R)), R.label
        arr = R.elements_array()
        for _ in range(3):
            pick = rng.integers(R.size, size=(2, 2))
            A, B = (Submodule.from_generators(R, arr[p]) for p in pick)
            members = B.elements_array()
            prods = R.mul_pairs(arr, members).reshape(-1, R.rank)
            mask = A.contains_many(prods).reshape(R.size, len(members))
            C = A.colon(B)
            assert (C.contains_many(arr) == mask.all(axis=1)).all(), R.label
            nilpotent_pivots += any(next(x for x in r if x) != 1
                                    for r in C.hrows + A.hrows)
        compared += 4
    assert compared == 1288
    assert nilpotent_pivots > 0 and calls


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_conductor_and_idealizer_list_no_elements(monkeypatch, name):
    ext = fixture_ext(name)
    lat = ExtensionLattice(ext)
    node_ideals = [(T, M) for T in lat.nodes
                   for _, M in ext.max_ideal_pairs(T)]

    def refuse(self):
        raise AssertionError("listed the elements of the top")

    monkeypatch.setattr(FiniteRing, "elements_array", refuse)
    fresh = Extension(ext.top, ext.bottom)
    assert fresh.conductor_ideal() <= ext.bottom
    for T, M in node_ideals:
        assert T <= idealizer(fresh, M)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_maximal_ideals_make_no_nilpotent_mask(monkeypatch, name):
    S = fixture_ext(name).top
    nilradical(S)
    calls = []
    monkeypatch.setattr(structure, "_nilpotent_mask",
                        counting(structure._nilpotent_mask, calls))
    assert len(max_ideal_idempotent_pairs(S)) == len(primitive_idempotents(S))
    assert calls == []
