from pathlib import Path

import pytest

from fcplat.closures import seminormalization, t_closure, u_closure
from fcplat.coclosures import (
    CO_KINDS,
    co_closure,
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
from fcplat.specfile import parse_spec
from fcplat.spectrum import Extension
from fcplat.submodule import Submodule, subring_generated
from test_ring import scalar_mul

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


INTERVAL_CASES = {
    "b5101_q2": lambda: parse_spec(
        (FIXTURES / "b5101_q2.json").read_text())[1],
    "remark_1317": lambda: parse_spec(
        (FIXTURES / "remark_1317.json").read_text())[1],
    "two_branch": lambda: two_branch_extension()[0],
    # [F2, F4 x F4] has no co-infra-integral closure
    "F4xF4": lambda: prime_ext(product_ring([galois_field(4)] * 2)[0]),
}


def carried(pres, sub):
    """A span of a presented node ring, carried back into S."""
    to_amb = pres.to_ambient
    return Submodule.from_generators(to_amb.target, to_amb.apply_rows(sub.basis))


@pytest.mark.parametrize("case", list(INTERVAL_CASES))
def test_co_closure_of_each_interval_matches_presented_lattice(case):
    # [low, high] read on the one lattice in S, against [low, high]
    # re-enumerated with high presented as a ring, its co-closure and meet
    # carried back into S
    lat = ExtensionLattice(INTERVAL_CASES[case]())
    leq = lat.leq()
    missing = 0
    for i, low in enumerate(lat.nodes):
        for j in sorted(leq[i]):
            high = lat.nodes[j]
            sub, pres = lat.sub_extension(low, high)
            ref_lat = ExtensionLattice(sub)
            for kind in CO_KINDS:
                cc = co_closure(lat, kind, low=low, high=high)
                ref = co_closure(ref_lat, kind)
                assert cc.exists == ref.exists, (i, j, kind)
                assert len(cc.qualifying) == len(ref.qualifying)
                assert cc.meet == carried(pres, ref.meet)
                if ref.exists:
                    assert cc.node == carried(pres, ref.node)
                else:
                    missing += 1
                    assert cc.node is None and cc.certificate is not None
    assert missing == (1 if case == "F4xF4" else 0)
