from fcplat.counting import (
    complement_count_formula,
    complement_count_lattice,
    idealizer,
    t_closure_node,
    verify_sum_formula,
)
from fcplat.lattice import ExtensionLattice
from fcplat.ring import galois_field, monogenic_quotient, prime_field, product_ring
from fcplat.spectrum import Extension
from fcplat.submodule import Submodule, subring_generated


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
