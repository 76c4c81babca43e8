from pathlib import Path

import numpy as np
import pytest

from fcplat.corpus import CorpusConfig, generate_corpus
from fcplat.lattice import ExtensionLattice
from fcplat.ring import (
    galois_field,
    monogenic_quotient,
    prime_field,
    product_ring,
    ring_from_generators,
)
from fcplat.specfile import parse_spec
from fcplat.spectrum import (
    Extension,
    is_epimorphism,
    is_locally_epimorphism,
    is_unramified,
    is_unramified_local,
    is_unramified_tensor,
    tensor_square,
    tensor_square_size,
)
from fcplat.structure import (
    max_ideal_idempotent_pairs,
    maximal_ideals,
    residue_field,
)
from fcplat.submodule import (
    Subalgebra,
    Submodule,
    ideal_generated,
    subring_generated,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def prime_subring_extension(S):
    return Extension(S, subring_generated(S, []))


def test_field_extension_f2_f4():
    F4 = galois_field(4)
    ext = prime_subring_extension(F4)
    assert ext.bottom.size == 2
    ts = tensor_square(ext)
    # F4 (x)_F2 F4 = F4 x F4
    assert ts.ring.size == 16
    assert not is_epimorphism(ext)
    assert is_unramified(ext)
    assert is_unramified_local(ext)
    assert ext.is_i_extension()
    assert not ext.is_infra_integral()
    (N,) = maximal_ideals(F4)
    small = ext.bottom.size // N.intersect(ext.bottom).size
    big = F4.size // N.size
    assert (small, big) == (2, 4)
    ((k, K),) = ext.residual_extensions()
    assert (k.size, K.size) == (small, big)
    assert k <= K and K == Submodule.whole(K.ambient)


def test_ramified_dual_numbers():
    F2 = prime_field(2)
    R, _, t = monogenic_quotient(F2, 2, [F2.zero_vec(), F2.zero_vec()])
    ext = prime_subring_extension(R)
    ts = tensor_square(ext)
    assert ts.ring.size == 16
    assert not is_unramified(ext)
    assert not is_unramified_local(ext)
    assert ext.is_subintegral()  # one maximal ideal, residue F2 both sides
    I = ts.diagonal_kernel()
    assert I.size == 4


def test_decomposed_f2_squared():
    F2 = prime_field(2)
    S, _ = product_ring([F2, F2])
    ext = prime_subring_extension(S)
    assert is_unramified(ext)
    assert is_unramified_local(ext)
    assert not is_epimorphism(ext)
    assert is_locally_epimorphism(ext)
    assert not ext.is_i_extension()
    assert ext.is_infra_integral()
    assert not ext.is_subintegral()


def test_trivial_extension_is_epimorphism():
    F9 = galois_field(9)
    gens = [tuple(1 if i == j else 0 for i in range(F9.rank)) for j in range(F9.rank)]
    ext = Extension(F9, subring_generated(F9, gens))
    assert is_epimorphism(ext)
    assert is_unramified(ext)
    assert ext.is_subintegral()


def test_unramified_diagonal_in_square_of_dual_numbers():
    # R = F2[t]/(t^2) sits diagonally in R x R; this is unramified because
    # the conductor ideal M x M is generated downstairs at each factor
    F2 = prime_field(2)
    R, _, t = monogenic_quotient(F2, 2, [F2.zero_vec(), F2.zero_vec()])
    S, pack = product_ring([R, R])
    bottom = subring_generated(S, [pack([t, t])])
    ext = Extension(S, bottom)
    assert ext.bottom.size == 4
    assert is_unramified(ext)
    assert is_unramified_local(ext)
    assert is_locally_epimorphism(ext)
    assert not is_epimorphism(ext)


def test_conductor_and_supp():
    F2 = prime_field(2)
    R, _, t = monogenic_quotient(F2, 2, [F2.zero_vec(), F2.zero_vec()])
    ext = prime_subring_extension(R)
    C = ext.conductor_ideal()
    # (F2 : R) = 0 since t*R is not contained in F2
    assert C.size == 1
    assert len(ext.supp()) == 1
    assert len(ext.msupp()) == 1


def test_localize_at_splits_factors():
    F2 = prime_field(2)
    F4 = galois_field(4)
    S, pack = product_ring([F2, F4])
    e1 = pack([(1,), F4.zero_vec()])
    e2 = pack([(0,), F4.one])
    bottom = subring_generated(S, [e1, e2])
    assert bottom.size == 4  # F2 x F2 inside F2 x F4
    ext = Extension(S, bottom)
    ms = ext.bottom_maximal_ideals()
    assert len(ms) == 2
    sizes = set()
    for M in ms:
        loc, _ = ext.localize_at(M)
        sizes.add((loc.bottom.size, loc.top.size))
    assert sizes == {(2, 2), (2, 4)}


def test_lying_over_counts():
    F3 = prime_field(3)
    S, _ = product_ring([F3, F3, F3])
    ext = prime_subring_extension(S)
    pairs = [(N, N.intersect(ext.bottom)) for N in maximal_ideals(S)]
    assert len(pairs) == 3
    assert len({P.key for _, P in pairs}) == 1  # bottom is local
    assert not ext.is_i_extension()


def test_bottom_must_be_closed_under_multiplication():
    # span{1, y} in F2[y]/(y^3) holds 1 but not y^2
    F2 = prime_field(2)
    R, _, y = monogenic_quotient(F2, 3, [F2.zero_vec()] * 3)
    span = Submodule.from_generators(R, [R.one, y])
    assert span.size == 4
    with pytest.raises(ValueError, match="closed under multiplication"):
        Extension(R, span)


def route_case(name):
    if name in ("remark_1317", "b5101_q2"):
        _, ext = parse_spec((FIXTURES / f"{name}.json").read_text())
        return ext
    F2, F3, F4 = prime_field(2), prime_field(3), galois_field(4)
    if name == "F2xF2<F2xF4":
        S, pack = product_ring([F2, F4])
        e1 = pack([(1,), F4.zero_vec()])
        return Extension(S, subring_generated(S, [e1]))
    if name == "F3^3":
        S, _ = product_ring([F3, F3, F3])
    else:  # F4 x F3 over its prime subring Z/6
        S, _ = product_ring([F4, F3])
    return prime_subring_extension(S)


ROUTE_CASES = ["remark_1317", "b5101_q2", "F2xF2<F2xF4", "F3^3", "F4xF3"]


def node_pair_extensions():
    """low <= high for every node pair of the seed-0 entries c000-c009 at
    max_size=128, high re-presented as a ring: 235 extensions, 111 of them
    over a non-local bottom."""
    for entry in generate_corpus(CorpusConfig(seed=0, count=10, max_size=128)):
        lat = entry.lattice
        for i, ups in enumerate(lat.leq()):
            for j in sorted(ups):
                yield lat.sub_extension(lat.nodes[i], lat.nodes[j])[0]


@pytest.mark.parametrize("name", ROUTE_CASES)
def test_bottom_in_top_coordinates_matches_standalone_bottom(name):
    """Maximal ideals, idempotents, supports and residue fields of the bottom
    read inside S agree with those of the bottom re-presented as a ring."""
    ext = route_case(name)
    S = ext.top
    pres = ext.bottom.as_ring()
    to_amb = pres.to_ambient
    # the standalone bottom's maximal ideals, by the S-key of their image
    standalone = {
        Submodule.from_generators(S, to_amb.apply_rows(M.basis)).key:
            (to_amb.apply(e), M)
        for e, M in max_ideal_idempotent_pairs(pres.ring)
    }
    pairs = ext.max_ideal_pairs(ext.bottom)
    assert [P.key for _, P in pairs] == sorted(standalone)
    assert all(e == standalone[P.key][0] for e, P in pairs)

    C = Submodule.from_generators(
        pres.ring, pres.from_ambient_rows(ext.conductor_ideal().basis)
    )
    supp = {k for k, (_, M) in standalone.items() if C <= M}
    assert {P.key for P in ext.supp()} == supp
    msupp = {
        k for k, (e, _) in standalone.items()
        if Submodule.from_generators(S, S.mul_pairs(ext.bottom.basis, e))
        != Submodule.from_generators(S, S.mul_pairs(S.basis_vectors, e))
    }
    assert {P.key for P in ext.msupp()} == msupp

    for N in maximal_ideals(S):
        _, M = standalone[N.intersect(ext.bottom).key]
        k, _, lifts = residue_field(pres.ring, M)
        kR = ext.residue_image(N, ext.bottom)
        assert kR.size == k.size
        # the image of R in S/N is the image of R/M through the lifts
        kN, projN, _ = residue_field(S, N)
        image = projN.apply_rows(to_amb.apply_rows(lifts))
        assert kR == Submodule.from_generators(kN, image)


# -- the local criteria on local factors re-presented as rings -------------


def factor_ring(S, e):
    """e*S re-presented as a ring with unit e."""
    rows = S.mul_pairs(np.eye(S.rank, dtype=np.int64), e)[:, 0]
    return ring_from_generators(S, rows, e, unital=False)


def unramified_local_by_factor_rings(ext):
    """At every maximal ideal N of S, the image of N cap R generates the
    maximal ideal of the factor ring S_N."""
    S = ext.top
    for e, N in max_ideal_idempotent_pairs(S):
        pres = factor_ring(S, e)
        common = N.intersect(ext.bottom).basis
        generated = ideal_generated(
            pres.ring, pres.from_ambient_rows(S.mul_pairs(common, e))
        )
        (Nf,) = maximal_ideals(pres.ring)
        if generated != Nf:
            return False
    return True


def locally_epimorphism_by_factor_rings(ext):
    """f*R -> f*S is an epimorphism, by its own tensor square, for every
    primitive idempotent f of S."""
    S = ext.top
    for f, _ in max_ideal_idempotent_pairs(S):
        pres = factor_ring(S, f)
        Sf = pres.ring
        rows = pres.from_ambient_rows(S.mul_pairs(ext.bottom.basis, f))
        bottom_f = Subalgebra.from_generators(Sf, np.vstack([rows, [Sf.one]]))
        if not is_epimorphism(Extension(Sf, bottom_f)):
            return False
    return True


@pytest.mark.parametrize("name", ROUTE_CASES)
def test_local_criteria_in_s_match_factor_rings(name):
    ext = route_case(name)
    assert is_unramified_local(ext) == unramified_local_by_factor_rings(ext)
    assert (is_locally_epimorphism(ext)
            == locally_epimorphism_by_factor_rings(ext))


def test_local_criteria_match_factor_rings_on_node_pairs():
    unramified, locally_epi = set(), set()
    for ext in node_pair_extensions():
        a = is_unramified_local(ext)
        assert a == unramified_local_by_factor_rings(ext), ext
        b = is_locally_epimorphism(ext)
        assert b == locally_epimorphism_by_factor_rings(ext), ext
        unramified.add(a)
        locally_epi.add(b)
    assert unramified == locally_epi == {True, False}


# -- Omega_{S/R} = 0 and the tensor size by Howell forms -------------------


def omega_case(name):
    F2, F4 = prime_field(2), galois_field(4)
    if name == "F256":
        return prime_subring_extension(galois_field(256))
    if name == "F4[y]/(y^2)":
        S, _, _ = monogenic_quotient(F4, 2, [F4.zero_vec()] * 2)
        return prime_subring_extension(S)
    if name == "F2xF2":
        return prime_subring_extension(product_ring([F2, F2])[0])
    return route_case(name)


@pytest.mark.parametrize("name, unramified, size", [
    ("F256", True, 2 ** 64),  # F_256 (x) F_256 over F_2 is F_256^8
    ("F4[y]/(y^2)", False, 2 ** 16),  # rank 4 over F_2, so rank 16
    ("F2xF2", True, 16),  # (F2 x F2) (x) (F2 x F2) = F2^4
    ("F4xF3", True, 48),  # over Z/6: (F4 (x)_F2 F4) x (F3 (x)_F3 F3)
])
def test_omega_route_and_tensor_size_pins(name, unramified, size):
    ext = omega_case(name)
    assert is_unramified(ext) == unramified
    assert is_unramified_local(ext) == unramified
    assert tensor_square_size(ext) == size
    assert not is_epimorphism(ext)
    if name != "F256":  # a rank-64 tensor square is left unbuilt
        assert is_unramified_tensor(ext) == unramified
        assert tensor_square(ext).ring.size == size


def test_omega_route_on_an_epimorphism():
    F9 = galois_field(9)
    ext = Extension(F9, subring_generated(F9, F9.basis_vectors))
    assert is_unramified(ext)
    assert tensor_square_size(ext) == 9 and is_epimorphism(ext)


def corpus_low_node_top_extensions(count):
    """low <= node re-presented and node <= S in S, for every node of the
    seed-0 entries c000 to c(count - 1)."""
    for entry in generate_corpus(CorpusConfig(seed=0, count=count)):
        lat = entry.lattice
        for node in lat.nodes:
            yield lat.sub_extension(lat.bottom, node)[0]
            yield lat.upper(node)


def test_unramified_routes_and_tensor_size_on_corpus_nodes():
    verdicts = set()
    for ext in corpus_low_node_top_extensions(10):
        omega = is_unramified(ext)
        assert omega == is_unramified_tensor(ext) == is_unramified_local(ext)
        assert tensor_square_size(ext) == tensor_square(ext).ring.size
        verdicts.add(omega)
    assert verdicts == {True, False}


def test_local_criterion_on_nodes_matches_presented_omega():
    # R <= T decided in S on the node T, against Omega_{T/R} = 0 with T
    # presented as a ring: every node of both fixtures and of the seed-0
    # entries c000-c009 at max_size=128
    lats = [ExtensionLattice(route_case(name))
            for name in ("remark_1317", "b5101_q2")]
    lats += [entry.lattice for entry in
             generate_corpus(CorpusConfig(seed=0, count=10, max_size=128))]
    verdicts = set()
    for lat in lats:
        for T in lat.nodes:
            local = is_unramified_local(lat.ext, T)
            sub, _ = lat.sub_extension(lat.bottom, T)
            assert local == is_unramified(sub), (lat.ext, T)
            verdicts.add(local)
    assert verdicts == {True, False}
