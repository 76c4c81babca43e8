import math

import numpy as np
import pytest

from fcplat.counting import (
    complement_count_formula,
    complement_count_lattice,
    idealizer,
    t_closure_node,
    verify_sum_formula,
)
from fcplat.lattice import ExtensionLattice
from fcplat.ring import (
    RingMorphism,
    galois_field,
    monogenic_quotient,
    prime_field,
    product_ring,
    quotient_ring,
    ring_from_generators,
)
from fcplat.spectrum import Extension
from fcplat.structure import maximal_ideals, residue_field
from fcplat.submodule import Submodule, subring_generated
from test_closures import presented_primitive_min_poly
from test_spectrum import ROUTE_CASES, node_pair_extensions, route_case


def prime_ext(S):
    return Extension(S, subring_generated(S, []))


def test_idealizer_trivial_ideal_gives_whole_ring():
    F4 = galois_field(4)
    S, _ = product_ring([F4, F4])
    ext = prime_ext(S)
    M = Submodule.zero(S)
    assert idealizer(ext, M).size == S.size


def test_count_two_twisted_diagonals():
    # F2 inside F4 x F4: the t-closure is F2 x F2 and its complements are
    # the diagonal copy of F4 and its twist by squaring, so the count is 2
    F4 = galois_field(4)
    S, _ = product_ring([F4, F4])
    ext = prime_ext(S)
    lat = ExtensionLattice(ext)
    t_node = t_closure_node(lat)
    assert t_node.size == 4
    assert complement_count_lattice(lat) == 2
    assert complement_count_formula(ext) == 2


def test_count_three_twisted_diagonals_f8():
    # F2 inside F8 x F8: the diagonal F8 and its two Frobenius twists, so
    # the primitive element's minimal polynomial has degree 3
    F8 = galois_field(8)
    S, _ = product_ring([F8, F8])
    ext = prime_ext(S)
    assert complement_count_lattice(ExtensionLattice(ext)) == 3
    assert complement_count_formula(ext) == 3
    assert count_by_localized_rings(ext) == 3


def test_count_zero_when_residues_differ():
    # F2 inside F4 x F2: the top residue fields have different sizes, so
    # the t-closure has no complement
    F4 = galois_field(4)
    F2 = prime_field(2)
    S, _ = product_ring([F4, F2])
    ext = prime_ext(S)
    lat = ExtensionLattice(ext)
    assert complement_count_lattice(lat) == 0
    assert complement_count_formula(ext) == 0


def test_count_one_on_inert_top():
    # F2 inside F4[y]/(y^2): the t-closure is F2 + F4 y, whose single
    # complement is the copy of F4
    F4 = galois_field(4)
    S, _, y = monogenic_quotient(F4, 2, [F4.zero_vec(), F4.zero_vec()])
    ext = prime_ext(S)
    lat = ExtensionLattice(ext)
    t_node = t_closure_node(lat)
    assert t_node.size == 8
    assert t_node.contains(y)
    assert complement_count_lattice(lat) == 1
    assert complement_count_formula(ext) == 1


def test_sum_formula_truncated_polynomials():
    # |[K, K[Y]/(Y^4)]| = q + 4, recovered as a sum of complement counts
    for q in (2, 3):
        K = galois_field(q) if q > 2 else prime_field(2)
        T, _, _ = monogenic_quotient(K, 4, [K.zero_vec()] * 4)
        lat = ExtensionLattice(prime_ext(T))
        table, total = verify_sum_formula(lat, cross_check=True)
        assert total == q + 4


def test_sum_formula_with_middle_t_closure():
    # F2 inside F4[y]/(y^2): the t-closure sits strictly between the ends
    F4 = galois_field(4)
    S, _, _ = monogenic_quotient(F4, 2, [F4.zero_vec(), F4.zero_vec()])
    lat = ExtensionLattice(prime_ext(S))
    table, total = verify_sum_formula(lat, cross_check=True)
    assert total == lat.node_count()
    # some pairs contribute nothing, some contribute one complement
    assert 0 in table.values() or all(v == 1 for v in table.values())


def test_sum_formula_twisted_diagonals():
    F4 = galois_field(4)
    S, _ = product_ring([F4, F4])
    lat = ExtensionLattice(prime_ext(S))
    table, total = verify_sum_formula(lat, cross_check=True)
    assert total == lat.node_count()
    assert max(table.values()) == 2


# -- the count through localized rings and a presented idealizer -----------


def count_by_localized_rings(ext):
    """n[R, S] with each local count taken on R_M <= S_M re-presented as
    rings: R/M is a quotient of R re-presented as a ring, P comes from the
    presented residual extension R/M -> S/N, and the roots of P are found
    in A = R'/M built by `quotient_ring` from the idealizer R'
    re-presented as a ring."""
    max_R = ext.bottom_maximal_ideals()
    if len(max_R) > 1:
        return math.prod(count_by_localized_rings(ext.localize_at(M)[0])
                         for M in ext.msupp())
    (M,) = max_R
    S = ext.top
    tops = maximal_ideals(S)
    if len({ext.residual_sizes(N) for N in tops}) != 1:
        return 0
    Rp = ext.bottom.as_ring()
    kR, _, lifts = quotient_ring(Rp.ring, Rp.from_ambient_rows(M.basis))
    # the basis of R/M lifted into R, in S's coordinates
    lifts = Rp.to_ambient.apply_rows(lifts)
    _, projN, _ = residue_field(S, tops[0])
    P = presented_primitive_min_poly(
        RingMorphism(kR, projN.target, projN.apply_rows(lifts))
    )

    pres = ring_from_generators(S, idealizer(ext, M).basis, S.one)
    A, projA, _ = quotient_ring(pres.ring, pres.from_ambient_rows(M.basis))
    psi = RingMorphism(
        kR, A, projA.apply_rows(pres.from_ambient_rows(lifts))
    )
    X = A.elements_array()
    acc = np.zeros_like(X)
    for c in psi.apply_rows(P)[::-1]:
        acc = (A.mul_rows(acc, X) + c) % A.np_orders
    roots = X[~acc.any(axis=1)]
    return len({subring_generated(A, [x, *psi.matrix]).key for x in roots})


@pytest.mark.parametrize("name", ROUTE_CASES)
def test_count_in_s_matches_localized_rings(name):
    ext = route_case(name)
    assert complement_count_formula(ext) == count_by_localized_rings(ext)


def test_count_in_s_matches_localized_rings_on_node_pairs():
    counts = set()
    for ext in node_pair_extensions():
        n = complement_count_formula(ext)
        assert n == count_by_localized_rings(ext), ext
        counts.add(n)
    assert {0, 1, 2} <= counts
