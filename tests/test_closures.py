import itertools
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from fcplat.closures import (
    _min_poly,
    _solve_lin_comb,
    is_seminormal,
    is_t_closed,
    is_u_closed,
    kappa_radicial_closure,
    kappa_separable_closure,
    omega_closure,
    primitive_min_poly,
    radicial_closure,
    seminormalization,
    t_closure,
    u_closure,
    x_closure,
    x_closure_via_least_closed,
    x_integral_hull,
)
from fcplat.lattice import ExtensionLattice
from fcplat.ring import (
    FiniteRing,
    galois_field,
    monogenic_quotient,
    prime_field,
    product_ring,
)
from fcplat.specfile import parse_spec
from fcplat.spectrum import Extension
from fcplat.submodule import subring_generated
from test_ring import scalar_add, scalar_mul, scalar_pow

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def prime_ext(S):
    return Extension(S, subring_generated(S, []))


def dual_numbers():
    F2 = prime_field(2)
    return monogenic_quotient(
        F2, 2, [F2.zero_vec(), F2.zero_vec()], label="F2[t]/(t^2)"
    )


def square_of_dual_numbers():
    R, _, t = dual_numbers()
    S, pack = product_ring([R, R])
    bottom = subring_generated(S, [pack([t, t])])
    return Extension(S, bottom), S, pack, R, t


def test_field_extension_closures():
    F4 = galois_field(4)
    ext = prime_ext(F4)
    assert seminormalization(ext) == ext.bottom
    assert t_closure(ext) == ext.bottom
    assert u_closure(ext) == ext.bottom
    assert is_seminormal(ext) and is_t_closed(ext) and is_u_closed(ext)
    assert radicial_closure(ext) == ext.bottom
    lat = ExtensionLattice(ext)
    assert omega_closure(lat) == lat.top_node
    assert kappa_separable_closure(lat) == lat.top_node
    assert kappa_radicial_closure(lat) == lat.bottom


def test_split_quadratic_closures():
    F2 = prime_field(2)
    S, _ = product_ring([F2, F2])
    ext = prime_ext(S)
    assert seminormalization(ext) == ext.bottom  # decomposed: seminormal
    top = ExtensionLattice(ext).top_node
    assert u_closure(ext) == top
    assert t_closure(ext) == top
    lat = ExtensionLattice(ext)
    assert omega_closure(lat) == top
    assert kappa_separable_closure(lat) == top
    assert kappa_radicial_closure(lat) == top  # residues isomorphic
    assert radicial_closure(ext) == ext.bottom


def test_ramified_closures():
    R, _, t = dual_numbers()
    ext = prime_ext(R)
    top = ExtensionLattice(ext).top_node
    assert seminormalization(ext) == top  # subintegral
    assert t_closure(ext) == top
    assert u_closure(ext) == ext.bottom  # u-closed
    assert radicial_closure(ext) == top  # radicial too
    lat = ExtensionLattice(ext)
    assert omega_closure(lat) == lat.bottom
    assert kappa_radicial_closure(lat) == top


def test_diagonal_in_square_closures():
    # R = F2[t]/(t^2) inside R x R: the seminormalization is R + (M x M),
    # of size 8, and both t- and u-closures are all of R x R
    ext, S, pack, R, t = square_of_dual_numbers()
    plus = seminormalization(ext)
    assert plus.size == 8
    assert plus.contains(pack([t, R.zero_vec()]))
    top = ExtensionLattice(ext).top_node
    assert t_closure(ext) == top
    assert u_closure(ext) == top
    lat = ExtensionLattice(ext)
    assert omega_closure(lat) == top  # this extension is unramified


def test_closure_oracles_agree():
    cases = []
    F2 = prime_field(2)
    R, _, _ = dual_numbers()
    cases.append(prime_ext(R))
    S, _ = product_ring([F2, F2])
    cases.append(prime_ext(S))
    cases.append(prime_ext(galois_field(16)))
    ext, _, _, _, _ = square_of_dual_numbers()
    cases.append(ext)
    for ext in cases:
        lat = ExtensionLattice(ext)
        for kind in ("s", "u", "t"):
            primary = x_closure(ext, kind)
            least = x_closure_via_least_closed(lat, kind)
            hull = x_integral_hull(lat, kind)
            assert primary == least == hull


def test_radicial_closure_equals_seminormalization():
    # over perfect residue fields the radicial closure is the
    # seminormalization; check on several shapes
    F3 = prime_field(3)
    R3, _, _ = monogenic_quotient(F3, 2, [F3.zero_vec(), F3.zero_vec()])
    exts = [
        prime_ext(R3),
        prime_ext(galois_field(9)),
        square_of_dual_numbers()[0],
    ]
    for ext in exts:
        assert radicial_closure(ext) == seminormalization(ext)


def brute_lin_comb(phi, basis_powers, target):
    """Reference: the first coefficient tuple over the source field, in
    enumeration order, with sum phi(c_i) * b_i = target."""
    k, K = phi.source, phi.target
    for combo in itertools.product(k.elements(), repeat=len(basis_powers)):
        acc = K.zero_vec()
        for c, b in zip(combo, basis_powers):
            acc = scalar_add(K, acc, scalar_mul(K, phi.apply(c), b))
        if acc == target:
            return list(combo)
    return None


def field_inclusion(q, sub_q):
    """F_sub_q <= F_q as a residual extension."""
    K = galois_field(q)
    sub = subring_generated(
        K, [v for v in K.elements() if scalar_pow(K, v, sub_q) == v]
    )
    assert sub.size == sub_q
    (phi,) = Extension(K, sub).residual_extensions()
    return phi


@pytest.mark.parametrize("q, sub_q", [(8, 2), (16, 2), (16, 4), (9, 3)])
def test_lin_comb_solve_matches_brute_force(q, sub_q):
    # up to the degree of each minimal polynomial, where the powers below
    # the target are independent and a solution, once there, is unique
    phi = field_inclusion(q, sub_q)
    K = phi.target
    for v in K.elements():
        powers = [K.one, v]
        while True:
            args = (phi, powers[:-1], powers[-1])
            sol = _solve_lin_comb(*args)
            assert sol == brute_lin_comb(*args)
            if sol is not None:
                break
            powers.append(scalar_mul(K, powers[-1], v))


@pytest.mark.parametrize(
    "q, sub_q", [(4, 2), (8, 2), (16, 2), (16, 4), (9, 3), (27, 3), (64, 8)]
)
def test_primitive_element_is_the_first_generator(q, sub_q):
    # the subfield test by powers picks the element that subring
    # generation, element by element in lexicographic order, picks first
    phi = field_inclusion(q, sub_q)
    K = phi.target
    first = next(
        v for v in K.elements()
        if subring_generated(K, [v, *phi.rows]).size == K.size
    )
    assert primitive_min_poly(phi).tolist() == _min_poly(phi, first).tolist()


# -- the seminormalization R + J(S) and the t-closure as meet of R + N ------


def fixture_ext(name):
    _, ext = parse_spec((FIXTURES / f"{name}.json").read_text())
    return ext


def mixed_product():
    """F2[y]/(y^2) x F2 x F3 over its prime subring Z/6: J(S) is y x 0 x 0,
    and every residue field is a prime field."""
    F2, F3 = prime_field(2), prime_field(3)
    R, _, _ = dual_numbers()
    S, _ = product_ring([R, F2, F3])
    return prime_ext(S)


LINEAR_CLOSURE_CASES = {
    "b5101_q2": lambda: fixture_ext("b5101_q2"),
    "remark_1317": lambda: fixture_ext("remark_1317"),
    "F256": lambda: prime_ext(galois_field(256)),
    "F2[y]/(y^2)xF2xF3": mixed_product,
}


@pytest.mark.parametrize("name, plus_size, t_size", [
    ("b5101_q2", 16, 16),
    ("remark_1317", 16, 32),
    ("F256", 2, 2),
    ("F2[y]/(y^2)xF2xF3", 12, 24),
])
def test_linear_plus_and_t_closures_pins(name, plus_size, t_size):
    ext = LINEAR_CLOSURE_CASES[name]()
    plus, t = seminormalization(ext), t_closure(ext)
    assert (plus.size, t.size) == (plus_size, t_size)
    assert plus == x_closure(ext, "s") and t == x_closure(ext, "t")
    assert plus.is_subring() and t.is_subring() and plus <= t


def _closure_rings():
    F2, F3, F4 = prime_field(2), prime_field(3), galois_field(4)
    Z4 = FiniteRing((4,), (((1,),),), (1,), label="Z4")
    dual, _, _ = dual_numbers()
    cube, _, _ = monogenic_quotient(F2, 3, [F2.zero_vec()] * 3)
    dual3, _, _ = monogenic_quotient(F3, 2, [F3.zero_vec()] * 2)
    dual4, _, _ = monogenic_quotient(F4, 2, [F4.zero_vec()] * 2)
    twisted, _, _ = monogenic_quotient(Z4, 2, [(0,), (2,)])
    factor_lists = [
        [F2, F2, F2], [dual, F2], [F4, F2], [F4, F4], [dual, dual],
        [dual4], [cube, F3], [dual3, F2], [twisted, F3], [Z4, dual],
        [galois_field(9), F3], [dual, F4, F3],
    ]
    return [product_ring(fs)[0] for fs in factor_lists]


CLOSURE_RINGS = _closure_rings()


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_linear_plus_and_t_closures_match_witness_fixpoints(data):
    ring = data.draw(st.sampled_from(CLOSURE_RINGS))
    element = st.tuples(*[st.integers(0, d - 1) for d in ring.orders])
    ext = Extension(
        ring, subring_generated(ring, data.draw(st.lists(element, max_size=2)))
    )
    assert seminormalization(ext) == x_closure(ext, "s")
    assert t_closure(ext) == x_closure(ext, "t")
