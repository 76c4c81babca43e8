from fcplat.closures import seminormalization, t_closure, u_closure
from fcplat.coclosures import (
    co_infra_integral_closure,
    co_subintegral_closure,
)
from fcplat.lattice import ExtensionLattice
from fcplat.ring import (
    galois_field,
    monogenic_quotient,
    prime_field,
    product_ring,
    quotient_ring,
)
from fcplat.spectrum import Extension
from fcplat.submodule import subring_generated
from test_ring import scalar_mul


def prime_ext(S):
    return Extension(S, subring_generated(S, []))


def two_branch_extension():
    """R = F2[t]/(t^2) diagonally inside S = R x R[x], x^2 = tx = 0.

    |S| = 32 and the longest chain from R to S has length 3.  The u-closure
    of R in S is the copy of R x R, which is also the least node U with
    U <= S subintegral.
    """
    F2 = prime_field(2)
    R, _, t = monogenic_quotient(F2, 2, [F2.zero_vec(), F2.zero_vec()])
    RX, embed, x = monogenic_quotient(R, 2, [R.zero_vec(), R.zero_vec()])
    t_up = embed.apply(t)
    Rx, proj, _ = quotient_ring(RX, [scalar_mul(RX, t_up, x)], label="R[x]")
    assert Rx.size == 8
    S, pack = product_ring([R, Rx])
    t_in_Rx = proj.apply(t_up)
    bottom = subring_generated(S, [pack([t, t_in_Rx])])
    assert bottom.size == 4
    return Extension(S, bottom), S, pack, R, t, Rx, t_in_Rx


def test_two_branch_shape():
    ext, S, pack, R, t, Rx, _ = two_branch_extension()
    assert S.size == 32
    lat = ExtensionLattice(ext)
    assert lat.length() == 3
    assert seminormalization(ext).size == 16
    u = u_closure(ext)
    assert u.size == 16
    # the u-closure is the full product of R with the copy of R inside R[x]
    assert u.contains(pack([t, Rx.zero_vec()]))


def test_two_branch_co_closures():
    ext, S, pack, R, t, Rx, _ = two_branch_extension()
    lat = ExtensionLattice(ext)
    # the extension is infra-integral, so its co-subintegral closure exists
    # and coincides with the u-closure
    assert ext.is_infra_integral()
    co_sub = co_subintegral_closure(lat)
    assert co_sub.exists
    assert co_sub.node == u_closure(ext)
    assert co_sub.node.size == 16
    # and its co-infra-integral closure is the bottom itself
    co_inf = co_infra_integral_closure(lat)
    assert co_inf.exists
    assert co_inf.node == lat.bottom


def test_decomposed_pair_blocks_co_infra():
    # F2 inside F4 x F4: the diagonal F4 and its Frobenius twist are two
    # distinct fields, each decomposed-minimal in the product, sharing the
    # crucial ideal; no co-infra-integral closure exists
    F4 = galois_field(4)
    S, pack = product_ring([F4, F4])
    ext = prime_ext(S)
    lat = ExtensionLattice(ext)
    co_inf = co_infra_integral_closure(lat)
    assert not co_inf.exists
    assert co_inf.node is None
    assert co_inf.certificate is not None
    assert co_inf.certificate[0] == "decomposed-pair"
    # the meet of the qualifying nodes is the bottom, which is not
    # infra-integral in S
    assert co_inf.meet == lat.bottom
    # only the top itself is subintegral in S here, so the co-subintegral
    # closure exists trivially
    co_sub = co_subintegral_closure(lat)
    assert co_sub.exists and co_sub.node == lat.top_node


def test_subintegral_extension_co_closures_are_bottom():
    # a subintegral extension qualifies at its own bottom for both kinds
    F2 = prime_field(2)
    R, _, _ = monogenic_quotient(F2, 2, [F2.zero_vec(), F2.zero_vec()])
    lat = ExtensionLattice(prime_ext(R))
    for fn in (co_subintegral_closure, co_infra_integral_closure):
        res = fn(lat)
        assert res.exists
        assert res.node == lat.bottom


def test_field_tower_co_closures_are_top():
    # in a tower of fields nothing proper is subintegral in the top, so both
    # co-closures exist and equal the top
    F16 = galois_field(16)
    lat = ExtensionLattice(prime_ext(F16))
    for fn in (co_subintegral_closure, co_infra_integral_closure):
        res = fn(lat)
        assert res.exists
        assert res.node == lat.top_node


def test_co_closures_consistent_with_ordinary_closures():
    # on a branched example: sanity relations between closures and
    # co-closures (co-sub contains nothing below the u-closure when the
    # extension is infra-integral; co-infra below the t-closure)
    ext, _, _, _, _, _, _ = two_branch_extension()
    lat = ExtensionLattice(ext)
    co_sub = co_subintegral_closure(lat)
    co_inf = co_infra_integral_closure(lat)
    assert co_sub.node == u_closure(ext)
    assert co_inf.node <= t_closure(ext)
