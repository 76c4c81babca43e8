import itertools
import os
import subprocess
import sys
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcplat.ring import (
    _ASSOC_SAMPLES,
    FULL_ASSOC_RANK,
    FiniteRing,
    RingConstructionError,
    RingMorphism,
    exact_log,
    galois_field,
    is_prime,
    minimal_irreducible,
    monogenic_quotient,
    prime_field,
    product_ring,
    quotient_ring,
    ring_from_generators,
)
from fcplat.spectrum import Extension, tensor_square
from fcplat.structure import nilradical
from fcplat.submodule import Submodule, subring_generated


def image_size(phi):
    """The order of phi's image: the span of its basis images."""
    return Submodule.from_generators(phi.target, phi.matrix).size


# -- scalar reference arithmetic on coefficient tuples --------------------
#
# The package multiplies only through its batched int64 kernel.  These
# loops over the structure constants are the independent reference that
# the kernel tests below, and element-level assertions in other test
# modules, compare against.


def scalar_add(R, a, b):
    return tuple((x + y) % d for x, y, d in zip(a, b, R.orders))


def scalar_neg(R, a):
    return tuple((-x) % d for x, d in zip(a, R.orders))


def scalar_mul(R, a, b):
    n = R.rank
    acc = [0] * n
    table = R.table
    for i in range(n):
        ai = a[i]
        if ai:
            row = table[i]
            for j in range(n):
                bj = b[j]
                if bj:
                    c = ai * bj
                    cell = row[j]
                    for k in range(n):
                        acc[k] += c * cell[k]
    return tuple(int(x) % d for x, d in zip(acc, R.orders))


def scalar_pow(R, a, e):
    result = R.one
    base = a
    while e:
        if e & 1:
            result = scalar_mul(R, result, base)
        base = scalar_mul(R, base, base)
        e >>= 1
    return result


def check_ring_axioms(R):
    els = list(R.elements())
    if len(els) > 30:
        els = els[:15] + els[-15:]
    mul, add = partial(scalar_mul, R), partial(scalar_add, R)
    for a in els:
        assert mul(a, R.one) == a
        assert add(a, scalar_neg(R, a)) == R.zero_vec()
    for a, b in itertools.product(els[:12], repeat=2):
        assert mul(a, b) == mul(b, a)
        assert add(a, b) == add(b, a)
    for a, b, c in itertools.product(els[:6], repeat=3):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


def test_prime_field():
    F5 = prime_field(5)
    assert F5.size == 5
    assert F5.char == 5
    check_ring_axioms(F5)
    assert scalar_mul(F5, (2,), (2,)) == (4,)
    assert scalar_pow(F5, (2,), 4) == (1,)


def test_prime_field_rejects_composite():
    with pytest.raises(ValueError):
        prime_field(6)


def test_is_prime_and_exact_log_against_brute_force():
    for n in range(-2, 200):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, n)))
    for q in (2, 3, 4, 7):
        powers = {q**k: k for k in range(13)}
        for n in range(1, 5000):
            assert exact_log(n, q) == powers.get(n)
    assert exact_log(2**200, 2) == 200
    assert exact_log(2**200 + 1, 2) is None


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
                assert scalar_pow(F, v, q - 1) == F.one


def test_galois_field_of_a_large_prime_is_the_prime_field():
    # the prime-power split stops trial division at sqrt(q), as prime_field
    # does; dividing up to q itself would not return for q near 10^9
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        "from fcplat.ring import galois_field\n"
        "F = galois_field(1000000007)\n"
        "print(F.label, F.orders, F.rank)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(src)}, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["F1000000007", "(1000000007,)", "1"]


def test_galois_field_rejects_non_prime_powers():
    for q in (-3, 0, 1, 6, 12, 1000000007 * 2):
        with pytest.raises(ValueError):
            galois_field(q)


def test_z4_style_ring():
    R = FiniteRing((4,), (((1,),),), (1,), label="Z4")
    assert R.char == 4
    assert scalar_mul(R, (2,), (2,)) == R.zero_vec()
    assert nilradical(R).contains((2,))


def test_dual_numbers_over_f2():
    F2 = prime_field(2)
    R, embed, t = monogenic_quotient(
        F2, 2, [F2.zero_vec(), F2.zero_vec()], label="F2[t]/(t^2)"
    )
    assert R.size == 4
    check_ring_axioms(R)
    assert scalar_mul(R, t, t) == R.zero_vec()
    assert nilradical(R).contains(t)
    assert image_size(embed) == F2.size
    assert image_size(embed) < R.size
    assert not nilradical(R).contains(scalar_add(R, R.one, t))


def test_monogenic_matches_galois_field():
    # F2[x]/(x^2 + x + 1) is a field of size 4
    F2 = prime_field(2)
    R, _, x = monogenic_quotient(F2, 2, [F2.one, F2.one])
    assert R.size == 4
    assert scalar_mul(R, x, x) == scalar_add(R, x, R.one)
    for v in R.elements():
        if any(v):
            assert scalar_pow(R, v, 3) == R.one


def test_product_ring():
    F2 = prime_field(2)
    F3 = prime_field(3)
    R, pack = product_ring([F2, F3])
    assert R.size == 6
    assert R.char == 6
    check_ring_axioms(R)
    e1 = pack([(1,), (0,)])
    e2 = pack([(0,), (1,)])
    assert scalar_mul(R, e1, e1) == e1
    assert scalar_mul(R, e2, e2) == e2
    assert scalar_mul(R, e1, e2) == R.zero_vec()
    assert scalar_add(R, e1, e2) == R.one


def test_quotient_ring():
    # Z9 / (3) = F3
    R = FiniteRing((9,), (((1,),),), (1,), label="Z9")
    Q, project, lifts = quotient_ring(R, [(3,)])
    assert Q.size == 3
    assert image_size(project) == Q.size
    for row in lifts:
        assert len(row) == 1
    # projection of the lift of each basis vector is that basis vector
    for j, row in enumerate(lifts):
        img = project.apply(row)
        assert img == tuple(1 if i == j else 0 for i in range(Q.rank))


def test_ring_from_generators_full_ring():
    F4 = galois_field(4)
    gens = [tuple(1 if i == j else 0 for i in range(F4.rank)) for j in range(F4.rank)]
    pres = ring_from_generators(F4, gens, F4.one)
    assert pres.ring.size == 4
    assert image_size(pres.to_ambient) == pres.ring.size
    assert image_size(pres.to_ambient) == F4.size
    for v in F4.elements():
        c = pres.from_ambient_rows(v)[0]
        assert pres.to_ambient.apply(c) == v


def test_ring_from_generators_subring():
    # the diagonal of F3 x F3 is a copy of F3
    F3 = prime_field(3)
    S, pack = product_ring([F3, F3])
    diag = pack([(1,), (1,)])
    pres = ring_from_generators(S, [diag], S.one)
    assert pres.ring.size == 3
    assert image_size(pres.to_ambient) == pres.ring.size
    assert image_size(pres.to_ambient) < S.size


def test_ring_from_generators_idempotent_factor():
    # e*(F2 x F2) with e = (1, 0) is a ring with unit e
    F2 = prime_field(2)
    S, pack = product_ring([F2, F2])
    e = pack([(1,), (0,)])
    pres = ring_from_generators(S, [e], e, unital=False)
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


def test_int64_kernel_bound_refuses_larger_rings():
    # rank * L^2 must stay below 2^63: 3037000507 is the least prime past it
    p = 3037000507
    assert p * p >= 2**63
    with pytest.raises(RingConstructionError, match="2\\^63"):
        prime_field(p)


def test_int64_kernel_exact_at_the_largest_prime_below_the_bound():
    p = 3037000493
    assert p * p < 2**63 <= 3037000500**2
    for c in range(p + 1, 3037000500):
        with pytest.raises(ValueError, match="must be prime"):
            prime_field(c)
    F = prime_field(p)
    assert F.mul_rows([[p - 1]], [[p - 1]]).tolist() == [[1]]
    assert F.mul_pairs([[p - 1]], [[p - 1]]).tolist() == [[[1]]]
    assert scalar_mul(F, (p - 1,), (p - 1,)) == (1,)


def test_zero_ring_rejected():
    with pytest.raises(RingConstructionError):
        FiniteRing((), (), (), label="0")


# -- the batched multiplication kernel against the scalar reference ------


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
    return scalar_mul(R, tuple(int(x) for x in a), tuple(int(x) for x in b))


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
def test_mul_pairs_and_mul_rows_match_scalar_mul(data):
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
        column = np.repeat(Y[b:b + 1], len(X), axis=0)
        assert np.array_equal(R.mul_rows(X, column), got[:, b])


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
