import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcplat.ring import (
    _ASSOC_SAMPLES,
    FULL_ASSOC_RANK,
    Element,
    FiniteRing,
    RingConstructionError,
    RingMorphism,
    galois_field,
    minimal_irreducible,
    monogenic_quotient,
    prime_field,
    product_ring,
    quotient_ring,
    ring_from_generators,
)
from fcplat.spectrum import Extension, tensor_square
from fcplat.submodule import subring_generated


def all_elements(R):
    return [R.element(v) for v in R.elements()]


def check_ring_axioms(R):
    els = all_elements(R)
    if len(els) > 30:
        els = els[:15] + els[-15:]
    one = R.one_element
    for a in els:
        assert a * one == a
        assert a + (-a) == R.zero
    for a, b in itertools.product(els[:12], repeat=2):
        assert a * b == b * a
        assert a + b == b + a
    for a, b, c in itertools.product(els[:6], repeat=3):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_prime_field():
    F5 = prime_field(5)
    assert F5.size == 5
    assert F5.char == 5
    check_ring_axioms(F5)
    a = F5.element((2,))
    assert (a * a).coeffs == (4,)
    assert (a**4).coeffs == (1,)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        prime_field(6)


def test_minimal_irreducible_f2():
    # degree 2 over F2: X^2 + X + 1 is the only irreducible
    assert minimal_irreducible(2, 2) == [1, 1, 1]
    # degree 3 over F2: lex-least by (c0, c1, c2) is X^3 + X^2 + 1
    assert minimal_irreducible(2, 3) == [1, 0, 1, 1]


def test_galois_fields():
    for q, p, k in [(4, 2, 2), (8, 2, 3), (9, 3, 2), (25, 5, 2)]:
        F = galois_field(q)
        assert F.size == q
        assert F.char == p
        check_ring_axioms(F)
        # every nonzero element is invertible with x^(q-1) = 1
        for v in F.elements():
            if any(v):
                assert F._pow(v, q - 1) == F.one


def test_z4_style_ring():
    R = FiniteRing((4,), (((1,),),), (1,), label="Z4")
    assert R.char == 4
    a = R.element((2,))
    assert (a * a) == R.zero
    assert a.is_nilpotent()


def test_dual_numbers_over_f2():
    F2 = prime_field(2)
    R, embed, t = monogenic_quotient(F2, 2, [F2.zero, F2.zero], label="F2[t]/(t^2)")
    assert R.size == 4
    check_ring_axioms(R)
    te = R.element(t)
    assert te * te == R.zero
    assert te.is_nilpotent()
    assert embed.is_injective()
    assert not (R.one_element + te).is_nilpotent()


def test_monogenic_matches_galois_field():
    # F2[x]/(x^2 + x + 1) is a field of size 4
    F2 = prime_field(2)
    R, _, x = monogenic_quotient(F2, 2, [F2.one_element, F2.one_element])
    assert R.size == 4
    xe = R.element(x)
    assert xe * xe == xe + R.one_element
    for v in R.elements():
        if any(v):
            assert R._pow(v, 3) == R.one


def test_product_ring():
    F2 = prime_field(2)
    F3 = prime_field(3)
    R, pack = product_ring([F2, F3])
    assert R.size == 6
    assert R.char == 6
    check_ring_axioms(R)
    e1 = R.element(pack([(1,), (0,)]))
    e2 = R.element(pack([(0,), (1,)]))
    assert e1 * e1 == e1
    assert e2 * e2 == e2
    assert e1 * e2 == R.zero
    assert e1 + e2 == R.one_element


def test_quotient_ring():
    # Z9 / (3) = F3
    R = FiniteRing((9,), (((1,),),), (1,), label="Z9")
    Q, project, lifts = quotient_ring(R, [(3,)])
    assert Q.size == 3
    assert project.is_surjective()
    for row in lifts:
        assert len(row) == 1
    # projection of the lift of each basis vector is that basis vector
    for j, row in enumerate(lifts):
        img = project.apply(row)
        assert img == tuple(1 if i == j else 0 for i in range(Q.rank))


def test_ring_from_generators_full_ring():
    F4 = galois_field(4)
    gens = [tuple(1 if i == j else 0 for i in range(F4.rank)) for j in range(F4.rank)]
    pres = ring_from_generators(F4, gens, F4.one_element)
    assert pres.ring.size == 4
    assert pres.to_ambient.is_isomorphism()
    for v in F4.elements():
        c = pres.from_ambient(F4.element(v))
        assert pres.to_ambient.apply(c) == v


def test_ring_from_generators_subring():
    # the diagonal of F3 x F3 is a copy of F3
    F3 = prime_field(3)
    S, pack = product_ring([F3, F3])
    diag = pack([(1,), (1,)])
    pres = ring_from_generators(S, [diag], S.one_element)
    assert pres.ring.size == 3
    assert pres.to_ambient.is_injective()


def test_ring_from_generators_idempotent_factor():
    # e*(F2 x F2) with e = (1, 0) is a ring with unit e
    F2 = prime_field(2)
    S, pack = product_ring([F2, F2])
    e = S.element(pack([(1,), (0,)]))
    pres = ring_from_generators(S, [e.coeffs], e, unital=False)
    assert pres.ring.size == 2
    assert not pres.to_ambient.unital


def test_morphism_validation_catches_bad_map():
    F2 = prime_field(2)
    F4 = galois_field(4)
    # the unique unital additive map F2 -> F4 is fine
    rows_ok = [F4.one]
    RingMorphism(F2, F4, rows_ok)
    # sending 1 to a non-unit target breaks the unit law
    with pytest.raises(RingConstructionError):
        bad = [tuple(0 for _ in range(F4.rank))]
        RingMorphism(F2, F4, bad)


def test_zero_ring_rejected():
    with pytest.raises(RingConstructionError):
        FiniteRing((), (), (), label="0")


def test_element_int_coercion():
    F5 = prime_field(5)
    a = F5.element((3,))
    assert a + 1 == F5.element((4,))
    assert 2 * a == F5.element((1,))


# -- the batched multiplication kernel against the scalar _mul loop ------


def _kernel_rings():
    F2 = prime_field(2)
    F3 = prime_field(3)
    Z4 = FiniteRing((4,), (((1,),),), (1,), label="Z4")
    A, _, _ = monogenic_quotient(Z4, 2, [Z4.zero_vec(), (2,)])
    D, _, _ = monogenic_quotient(F2, 2, [(0,), (0,)])
    mixed4, _ = product_ring([A, F2])
    mixed6, _ = product_ring([F3, D])
    ts9 = tensor_square(Extension(mixed4, subring_generated(mixed4, []))).ring
    T, _, _ = monogenic_quotient(F2, 6, [(0,)] * 6)
    ts36 = tensor_square(Extension(T, subring_generated(T, []))).ring
    return {
        "Z4[x]/(x^2-2x) x F2": mixed4,
        "F3 x F2[t]/(t^2)": mixed6,
        "tensor square, rank 9": ts9,
        "tensor square, rank 36": ts36,
    }


KERNEL_RINGS = _kernel_rings()


def test_kernel_rings_cover_mixed_orders_and_rank_36():
    orders = {name: R.orders for name, R in KERNEL_RINGS.items()}
    assert orders["Z4[x]/(x^2-2x) x F2"] == (4, 4, 2)
    assert orders["F3 x F2[t]/(t^2)"] == (6, 2)
    assert len(set(orders["tensor square, rank 9"])) > 1
    assert KERNEL_RINGS["tensor square, rank 36"].rank == 36


def _rows(draw, R, count):
    return np.array(
        [[draw(st.integers(0, d - 1)) for d in R.orders] for _ in range(count)],
        dtype=np.int64,
    ).reshape(count, R.rank)


def _scalar(R, a, b):
    return R._mul(tuple(int(x) for x in a), tuple(int(x) for x in b))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_mul_rows_matches_scalar_mul(data):
    name = data.draw(st.sampled_from(sorted(KERNEL_RINGS)))
    R = KERNEL_RINGS[name]
    count = data.draw(st.integers(1, 6))
    X = _rows(data.draw, R, count)
    Y = _rows(data.draw, R, count)
    got = R.mul_rows(X, Y)
    assert got.shape == (count, R.rank)
    for a in range(count):
        assert tuple(got[a].tolist()) == _scalar(R, X[a], Y[a])


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_mul_pairs_and_mul_many_match_scalar_mul(data):
    name = data.draw(st.sampled_from(sorted(KERNEL_RINGS)))
    R = KERNEL_RINGS[name]
    X = _rows(data.draw, R, data.draw(st.integers(1, 4)))
    Y = _rows(data.draw, R, data.draw(st.integers(1, 4)))
    got = R.mul_pairs(X, Y)
    assert got.shape == (len(X), len(Y), R.rank)
    assert np.array_equal(R.mul_pairs(X, Y, R.mul_matrices(Y)), got)
    for a, b in itertools.product(range(len(X)), range(len(Y))):
        assert tuple(got[a, b].tolist()) == _scalar(R, X[a], Y[b])
    for b in range(len(Y)):
        assert np.array_equal(R.mul_many(X, Y[b]), got[:, b])


@pytest.mark.parametrize("name", sorted(KERNEL_RINGS))
def test_kernel_on_basis_reproduces_table(name):
    R = KERNEL_RINGS[name]
    eye = np.eye(R.rank, dtype=np.int64)
    assert R.mul_pairs(eye, eye).tolist() == [
        [list(cell) for cell in row] for row in R.table
    ]


def test_kernel_empty_batches():
    R = KERNEL_RINGS["F3 x F2[t]/(t^2)"]
    none = np.zeros((0, R.rank), dtype=np.int64)
    some = np.eye(R.rank, dtype=np.int64)
    assert R.mul_pairs(none, some).shape == (0, R.rank, R.rank)
    assert R.mul_pairs(some, none).shape == (R.rank, 0, R.rank)
    assert R.mul_rows(none, none).shape == (0, R.rank)


def test_table_is_derived_from_npC():
    R = KERNEL_RINGS["Z4[x]/(x^2-2x) x F2"]
    assert R.table == tuple(
        tuple(tuple(int(c) for c in cell) for cell in row) for row in R.npC
    )
    assert all(type(c) is int for row in R.table for cell in row for c in cell)
    assert not R.npC.flags.writeable


# -- every rejection path of FiniteRing._validate ------------------------


def test_rejects_orders_not_a_divisibility_chain():
    table = [[[1, 0], [0, 1]], [[0, 1], [0, 0]]]
    with pytest.raises(RingConstructionError, match="divisibility"):
        FiniteRing((2, 4), table, (1, 0))


def test_rejects_table_of_wrong_shape():
    with pytest.raises(RingConstructionError, match="rank x rank x rank"):
        FiniteRing((2, 2), [[[1, 0], [0, 1]]], (1, 0))


def test_rejects_inconsistent_structure_constants():
    # e1 has additive order 2, but e1 * e1 = e0 has order 4
    table = [[[1, 0], [0, 1]], [[0, 1], [1, 0]]]
    with pytest.raises(RingConstructionError, match="inconsistent"):
        FiniteRing((4, 2), table, (1, 0))


def test_rejects_non_commutative_table():
    # e0 * e1 = e1 but e1 * e0 = 0
    table = [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]
    with pytest.raises(RingConstructionError, match="not commutative"):
        FiniteRing((2, 2), table, (1, 0))


def test_rejects_wrong_unit():
    # F2 x F2 with its idempotent (1, 0) offered as the unit
    table = [[[1, 0], [0, 0]], [[0, 0], [0, 1]]]
    FiniteRing((2, 2), table, (1, 1))
    with pytest.raises(RingConstructionError, match="unit"):
        FiniteRing((2, 2), table, (1, 0))


def _unital_table(n, prod):
    """Unital commutative table over F2: e0 = 1, e_i e_j = e_prod(i, j).

    prod returns None where the product is zero.
    """
    table = np.zeros((n, n, n), dtype=np.int64)
    for i in range(n):
        table[0, i, i] = table[i, 0, i] = 1
    for i in range(1, n):
        for j in range(1, n):
            k = prod(i, j)
            if k is not None:
                table[i, j, k] = 1
    return table


def test_rejects_non_associative_table_full_check():
    # basis 1, a, b with a*b = a and every other product of a, b zero:
    # (a b) b = a but a (b b) = 0
    table = _unital_table(3, lambda i, j: 1 if {i, j} == {1, 2} else None)
    assert 3 <= FULL_ASSOC_RANK
    with pytest.raises(RingConstructionError, match="not associative"):
        FiniteRing((2,) * 3, table, (1, 0, 0))


def test_rejects_non_associative_table_sampled_check():
    # e_i e_j = e_(ij mod m + 1) on the m = n - 1 basis vectors after the
    # unit: (e_a e_b) e_c and e_a (e_b e_c) differ whenever a != c mod m
    n = FULL_ASSOC_RANK + 1
    m = n - 1
    table = _unital_table(n, lambda i, j: (i * j) % m + 1)
    one = (1,) + (0,) * m
    with pytest.raises(RingConstructionError, match="not associative"):
        FiniteRing((2,) * n, table, one)


def test_sampled_check_accepts_an_associative_table():
    # a rank above the full-check bound, all products of e_1, ..., e_m zero
    n = FULL_ASSOC_RANK + 1
    R = FiniteRing((2,) * n, _unital_table(n, lambda i, j: None),
                   (1,) + (0,) * (n - 1))
    assert R.size == 2**n


def test_sampled_triples_match_one_draw_per_triple():
    # the sampled check draws all triples at once; they are the triples
    # that one draw of three indices per sample gives
    for n in (FULL_ASSOC_RANK + 1, 36, 49, 144):
        rng = np.random.default_rng(0)
        one_by_one = [rng.integers(0, n, size=3) for _ in range(_ASSOC_SAMPLES)]
        rng = np.random.default_rng(0)
        at_once = rng.integers(0, n, size=(_ASSOC_SAMPLES, 3))
        assert np.array_equal(np.array(one_by_one), at_once)
