import math

import numpy as np

from fcplat.ring import (
    FiniteRing,
    galois_field,
    monogenic_quotient,
    prime_field,
    product_ring,
)
from fcplat.structure import (
    _nilpotent_mask,
    idempotents,
    is_field,
    is_local,
    local_factors,
    maximal_ideals,
    nilradical,
    primitive_idempotents,
    residue_field,
)
from fcplat.spectrum import Extension
from fcplat.submodule import ideal_generated, subring_generated
from test_ring import scalar_mul


def dual_numbers(q=2):
    F = galois_field(q)
    R, embed, t = monogenic_quotient(
        F, 2, [F.zero_vec(), F.zero_vec()], label=f"F{q}[t]/(t^2)"
    )
    return R, embed, t


def truncated(q, d):
    F = galois_field(q)
    return monogenic_quotient(F, d, [F.zero_vec()] * d, label=f"F{q}[y]/(y^{d})")[0]


def test_nilpotent_mask_squares_just_enough():
    # x is nilpotent iff x^|R| = 0; the mask squares only ceil(log2 m)
    # times, m = floor(log2 |R|), and y in F2[y]/(y^d) has index d = m, so
    # it needs every one of them
    rings = [truncated(2, d) for d in range(1, 7)]
    rings += [truncated(3, d) for d in range(1, 5)]
    rings += [galois_field(4), product_ring([truncated(2, 3), prime_field(3)])[0]]
    for R in rings:
        arr = R.elements_array()
        brute = ~R.pow_rows(arr, R.size).any(axis=1)
        assert (_nilpotent_mask(R, arr) == brute).all(), R.label


def test_field_structure():
    F9 = galois_field(9)
    assert is_field(F9)
    assert is_local(F9)
    assert nilradical(F9).size == 1
    assert len(idempotents(F9)) == 2  # 0 and 1


def test_dual_numbers_structure():
    R, _, t = dual_numbers(2)
    assert is_local(R)
    assert not is_field(R)
    (M,) = maximal_ideals(R)
    assert M.size == 2
    assert M.contains(t)
    assert nilradical(R) == M
    k, project, _ = residue_field(R, M)
    assert k.size == 2


def test_z4():
    Z4 = FiniteRing((4,), (((1,),),), (1,), label="Z4")
    (M,) = maximal_ideals(Z4)
    assert M.size == 2
    k, _, _ = residue_field(Z4, M)
    assert k.size == 2


def test_product_structure():
    F2 = prime_field(2)
    F4 = galois_field(4)
    S, pack = product_ring([F2, F4])
    prim = primitive_idempotents(S)
    assert len(prim) == 2
    ms = maximal_ideals(S)
    assert len(ms) == 2
    assert sorted(m.size for m in ms) == [2, 4]
    facts = local_factors(S)
    assert sorted(eR.size for _, eR in facts) == [2, 4]


def test_local_factors_are_spans_that_split_the_ring():
    rings = [product_ring([prime_field(2), galois_field(4)])[0],
             product_ring([prime_field(3)] * 3)[0],
             product_ring([truncated(2, 2), prime_field(3)])[0],
             truncated(3, 2), galois_field(9)]
    for R in rings:
        facts = local_factors(R)
        assert math.prod(eR.size for _, eR in facts) == R.size
        assert len(facts) == len(maximal_ideals(R))
        total = np.zeros(R.rank, dtype=np.int64)
        for e, eR in facts:
            assert scalar_mul(R, e, e) == e
            assert eR.contains(e)
            assert eR == ideal_generated(R, eR.basis_array())
            total = (total + e) % R.np_orders
        assert tuple(total.tolist()) == R.one


def test_product_of_three():
    F3 = prime_field(3)
    S, _ = product_ring([F3, F3, F3])
    assert len(primitive_idempotents(S)) == 3
    assert len(idempotents(S)) == 8
    assert len(maximal_ideals(S)) == 3


def test_conductor_diagonal_in_square():
    # R = F2[t]/(t^2) diagonally inside R x R: x*(1,0) in the diagonal
    # forces x = 0, so the conductor vanishes
    R, _, t = dual_numbers(2)
    S, pack = product_ring([R, R])
    diag_t = pack([t, t])
    bottom = subring_generated(S, [diag_t])
    assert bottom.size == 4
    c = Extension(S, bottom).conductor_ideal()
    assert c.size == 1
    assert ideal_generated(S, c.basis_array()) == c


def test_conductor_nontrivial():
    # R + (M x M) inside R x R has conductor M x M
    R, _, t = dual_numbers(2)
    S, pack = product_ring([R, R])
    diag_t = pack([t, t])
    t1 = pack([t, R.zero_vec()])
    mid = subring_generated(S, [diag_t, t1])
    assert mid.size == 8
    c = Extension(S, mid).conductor_ideal()
    assert c.size == 4
    assert ideal_generated(S, c.basis_array()) == c
    for v in c.elements():
        assert mid.contains(v)


def test_conductor_field_extension_is_everything_or_proper():
    # F2 inside F4: conductor of a proper unital subring without common ideal
    F4 = galois_field(4)
    bottom = subring_generated(F4, [])
    assert bottom.size == 2
    c = Extension(F4, bottom).conductor_ideal()
    assert c.size == 1  # no nonzero ideal of F4 fits inside F2


def test_maximal_ideal_of_local_ring_is_nilradical():
    F3 = prime_field(3)
    R, _, t = monogenic_quotient(F3, 3, [F3.zero_vec()] * 3)
    assert R.size == 27
    assert is_local(R)
    (M,) = maximal_ideals(R)
    assert M == nilradical(R)
    assert M.size == 9
