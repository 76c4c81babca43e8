import itertools
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fcplat.closures import (
    _derivative,
    _min_poly,
    _poly_gcd_is_one,
    is_radicial_residual,
    is_separable_residual,
    is_x_closed,
    kappa_radicial_closure,
    kappa_separable_closure,
    omega_closure,
    primitive_element,
    primitive_min_poly,
    radicial_closure,
    seminormalization,
    t_closure,
    u_closure,
    witnessed_elements,
    x_closure,
    x_closure_via_least_closed,
    x_integral_hull,
)
from fcplat.corpus import CorpusConfig, generate_corpus
from fcplat.lattice import ExtensionLattice
from fcplat.linalg import kernel_mod
from fcplat.ring import (
    FiniteRing,
    exact_log,
    galois_field,
    is_prime,
    monogenic_quotient,
    prime_field,
    product_ring,
    ring_from_generators,
)
from fcplat.specfile import parse_spec
from fcplat.spectrum import Extension
from fcplat.structure import idempotents, maximal_ideals, residue_field
from fcplat.submodule import Submodule, subring_generated
from test_ring import scalar_add, scalar_mul, scalar_neg, scalar_pow
from test_spectrum import route_case

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
    assert all(is_x_closed(ext, kind) for kind in ("s", "t", "u"))
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


def brute_lin_comb(k, basis_powers, target):
    """Reference: the first coefficient tuple over the subfield k, in
    enumeration order, with sum c_i * b_i = target in k's ambient field."""
    F = k.ambient
    members = [tuple(c) for c in k.elements_array().tolist()]
    for combo in itertools.product(members, repeat=len(basis_powers)):
        acc = F.zero_vec()
        for c, b in zip(combo, basis_powers):
            acc = scalar_add(F, acc, scalar_mul(F, c, b))
        if acc == target:
            return list(combo)
    return None


def field_inclusion(q, sub_q, mid_q=None):
    """F_sub_q <= F_mid_q (mid_q defaults to q) as the residual extension of
    F_sub_q <= F_mid_q inside F_q: a pair of subfields of F_q's residue
    field."""
    K = galois_field(q)

    def subfield(size):
        sub = subring_generated(
            K, [v for v in K.elements() if scalar_pow(K, v, size) == v]
        )
        assert sub.size == size
        return sub

    ((k, F),) = Extension(K, subfield(sub_q)).residual_extensions(
        subfield(mid_q or q)
    )
    return k, F


@pytest.mark.parametrize("q, sub_q", [(8, 2), (16, 2), (16, 4), (9, 3)])
def test_lin_comb_solve_matches_brute_force(q, sub_q):
    # below the degree d of each minimal polynomial the powers are
    # independent over k, so no combination reaches v^d; at d the one
    # combination is minus the lower coefficients
    k, K = field_inclusion(q, sub_q)
    F = K.ambient
    gens = k.basis_array()
    for v in map(tuple, K.elements_array().tolist()):
        coeffs = (_min_poly(F, gens, v) @ gens) % F.np_orders
        powers = [F.one, v]
        while len(powers) <= len(coeffs):
            assert brute_lin_comb(k, powers[:-1], powers[-1]) is None
            powers.append(scalar_mul(F, powers[-1], v))
        assert brute_lin_comb(k, powers[:-1], powers[-1]) == [
            scalar_neg(F, tuple(c)) for c in coeffs.tolist()
        ]


def assert_primitive_element_is_the_first_generator(q, sub_q, mid_q=None):
    # the subfield test by powers picks the element that subring
    # generation, element by element in lexicographic order, picks first
    k, K = field_inclusion(q, sub_q, mid_q)
    F = K.ambient
    first = next(
        v for v in K.elements_array()
        if subring_generated(F, [v, *k.basis]) == K
    )
    assert primitive_element(k, K).tolist() == first.tolist()
    gens = k.basis_array()
    assert (primitive_min_poly(k, K, gens).tolist()
            == _min_poly(F, gens, first).tolist())


@pytest.mark.parametrize(
    "q, sub_q", [(4, 2), (8, 2), (16, 2), (16, 4), (9, 3), (27, 3), (64, 8)]
)
def test_primitive_element_is_the_first_generator(q, sub_q):
    assert_primitive_element_is_the_first_generator(q, sub_q)


@pytest.mark.parametrize(
    "q, sub_q, mid_q", [(16, 2, 4), (64, 2, 8), (256, 4, 16)]
)
def test_primitive_element_of_a_proper_subfield(q, sub_q, mid_q):
    # K a proper subfield of the residue field, as for a node below the top
    assert_primitive_element_is_the_first_generator(q, sub_q, mid_q)


# -- the presented route to residual extensions, kept as the reference ------
#
# Each R/(N cap R) presented as a ring of its own by `ring_from_generators`
# from the images of a basis of R in S/N, its residual extension the
# morphism into S/N, and the field routines on such morphisms; the
# kappa-closures through the extension R <= T re-presented per node.


def presented_residual_extensions(ext):
    """The residual extensions R/(N cap R) -> S/N, one per maximal ideal N
    of S, each out of a presented ring."""
    out = []
    for N in maximal_ideals(ext.top):
        kN, projN, _ = residue_field(ext.top, N)
        gens = projN.apply_rows(ext.bottom.basis_array())
        out.append(ring_from_generators(kN, gens, kN.one).to_ambient)
    return out


def presented_primitive_min_poly(phi):
    """Minimal polynomial over the source of phi, coefficients in the
    source, of the first element that generates the target field over
    the image of phi."""
    K = phi.target
    q = phi.source.size
    m = exact_log(K.size, q)
    X = K.elements_array()
    generates = np.ones(len(X), dtype=bool)
    for r in range(2, m + 1):
        if m % r == 0 and is_prime(r):
            generates &= (K.pow_rows(X, q ** (m // r)) != X).any(axis=1)
    return presented_min_poly(phi, X[generates.argmax()])


def presented_min_poly(phi, v):
    """Minimal polynomial of v over the image of phi, monic, coefficients in
    the source: at each degree d, one kernel of the products phi(e_s) v^i
    (e_s the source basis, i < d) stacked on v^d."""
    k, K = phi.source, phi.target
    p = K.L
    powers = np.array([K.one], dtype=np.int64)
    while True:
        powers = np.vstack([powers, K.mul_rows(powers[-1], v)])
        rows = K.mul_pairs(powers[:-1], phi.matrix).reshape(-1, K.rank)
        for a in kernel_mod(np.vstack([rows, powers[-1:]]).tolist(), K.rank, p):
            if a[-1]:
                c = np.array(a[:-1], dtype=np.int64) * pow(a[-1], -1, p) % p
                return np.vstack([c.reshape(-1, k.rank), [k.one]])


def presented_is_separable(phi):
    f = presented_primitive_min_poly(phi)
    return _poly_gcd_is_one(f, _derivative(f, phi.source), phi.source)


def presented_is_radicial(phi):
    """Every target element has a p-power in the image of phi."""
    K = phi.target
    p = K.char
    img = Submodule.from_generators(K, phi.matrix)
    X = K.elements_array()
    ok = img.contains_many(X)
    e = p
    while e <= K.size and not ok.all():
        X = K.pow_rows(X, p)
        ok |= img.contains_many(X)
        e *= p
    return bool(ok.all())


def presented_kappa_closure(lat, residual_test):
    """The greatest node T whose re-presented extension R <= T passes
    residual_test at every presented residual extension."""
    return lat.greatest(lambda T: all(map(
        residual_test,
        presented_residual_extensions(lat.sub_extension(lat.bottom, T)[0]),
    )))


def residual_verdicts(k, K):
    sep, rad = is_separable_residual(k, K), is_radicial_residual(k, K)
    return k.size, K.size, sep, rad


def presented_verdicts(phi):
    return (phi.source.size, phi.target.size, presented_is_separable(phi),
            presented_is_radicial(phi))


def assert_residual_routes_agree(lat):
    """Per node T: every pair of `residual_extensions(T)` matches the
    presented residual extension at the maximal ideal N cap T of the
    re-presented T, and every maximal ideal of T is reached; then both
    kappa-closures match the presented route."""
    ext = lat.ext
    S = ext.top
    for T in lat.nodes:
        sub, pres = lat.sub_extension(lat.bottom, T)
        presented = {
            P.key: presented_verdicts(phi)
            for P, phi in zip(maximal_ideals(sub.top),
                              presented_residual_extensions(sub))
        }
        reached = set()
        for N, (k, K) in zip(maximal_ideals(S), ext.residual_extensions(T)):
            P = Submodule.from_generators(
                sub.top, pres.from_ambient_rows(N.intersect(T).basis_array())
            )
            assert residual_verdicts(k, K) == presented[P.key]
            reached.add(P.key)
        assert reached == set(presented)
    assert kappa_separable_closure(lat) == presented_kappa_closure(
        lat, presented_is_separable
    )
    assert kappa_radicial_closure(lat) == presented_kappa_closure(
        lat, presented_is_radicial
    )


def residual_case(name):
    F2, F4 = prime_field(2), galois_field(4)
    if name == "F4/F2":
        return prime_ext(F4)
    if name == "F2xF2/F2":
        return prime_ext(product_ring([F2, F2])[0])
    if name == "F4[y]/(y^2)/F2":
        S, _, _ = monogenic_quotient(F4, 2, [F4.zero_vec(), F4.zero_vec()])
        return prime_ext(S)
    return route_case(name)


RESIDUAL_CASES = [
    "remark_1317", "b5101_q2", "F4/F2", "F2xF2/F2", "F4[y]/(y^2)/F2", "F4xF3",
]


@pytest.mark.parametrize("name", RESIDUAL_CASES)
def test_residual_pairs_match_presented_route(name):
    ext = residual_case(name)
    pairs = ext.residual_extensions()
    phis = presented_residual_extensions(ext)
    assert len(pairs) == len(phis) == len(maximal_ideals(ext.top))
    for (k, K), phi in zip(pairs, phis):
        assert residual_verdicts(k, K) == presented_verdicts(phi)
        # on the top the primitive element is the same element of S/N, so
        # the minimal polynomials agree once read in S/N
        F, gens = K.ambient, k.basis_array()
        coeffs = (primitive_min_poly(k, K, gens) @ gens) % F.np_orders
        assert (np.vstack([coeffs, [F.one]]).tolist()
                == phi.apply_rows(presented_primitive_min_poly(phi)).tolist())
    assert_residual_routes_agree(ExtensionLattice(ext))


def test_residual_pairs_match_presented_route_on_corpus_nodes():
    """Every node of the seed-0 entries c000-c009 at max_size=128."""
    for entry in generate_corpus(CorpusConfig(seed=0, count=10, max_size=128)):
        assert_residual_routes_agree(entry.lattice)


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


@pytest.mark.parametrize("name, u_size", [
    ("b5101_q2", 2),  # local: the only idempotents are 0 and 1
    ("remark_1317", 16),  # R x R inside R x R[x]/(...)
    ("F256", 2),
    ("F2[y]/(y^2)xF2xF3", 12),  # F2 x F2 x F3
])
def test_u_closure_pins(name, u_size):
    # the span of the R*e is the ring R[Idem(S)] adjoined element by
    # element, and the witness fixpoint
    ext = LINEAR_CLOSURE_CASES[name]()
    u = u_closure(ext)
    assert u.size == u_size
    S = ext.top
    assert u == subring_generated(S, idempotents(S), over=ext.bottom)
    assert u == x_closure(ext, "u")
    if name == "remark_1317":
        assert u.size == ext.bottom.size ** 2


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
    # R + J(S), the meet of the R + N and the span of the R*e against the
    # witness fixpoints for s, t and u, over products of mixed
    # characteristic among others
    ring = data.draw(st.sampled_from(CLOSURE_RINGS))
    element = st.tuples(*[st.integers(0, d - 1) for d in ring.orders])
    ext = Extension(
        ring, subring_generated(ring, data.draw(st.lists(element, max_size=2)))
    )
    assert seminormalization(ext) == x_closure(ext, "s")
    assert t_closure(ext) == x_closure(ext, "t")
    assert u_closure(ext) == x_closure(ext, "u")


# -- witnesses over S \ B against the full mask over every element of S ----


def witness_mask_reference(top, B, kind):
    """Which b of top.elements_array() are witnessed over B, members of B
    included: every b against r = 0, r = 1 or each r in B in turn."""
    arr = top.elements_array()
    orders = top.np_orders
    b2 = top.mul_rows(arr, arr)
    b3 = top.mul_rows(b2, arr)
    ok = np.zeros(len(arr), dtype=bool)
    R = {"s": [top.zero_vec()], "u": [top.one]}.get(kind, B.elements_array())
    for r in R:
        rb, rb2 = top.mul_pairs(np.stack([arr, b2]), r).reshape(2, len(arr), -1)
        ok |= B.contains_many((b2 - rb) % orders) & B.contains_many(
            (b3 - rb2) % orders
        )
    return ok


@pytest.mark.parametrize("ring", CLOSURE_RINGS, ids=lambda R: R.label)
def test_witnessed_elements_match_full_mask(ring):
    # every node B of [prime subring, S], B = S included, and every kind
    arr = ring.elements_array()
    for B in ExtensionLattice(prime_ext(ring)).nodes:
        outside = ~B.contains_many(arr)
        for kind in ("s", "u", "t"):
            mask = witness_mask_reference(ring, B, kind) & outside
            assert witnessed_elements(ring, B, kind) == [
                tuple(row) for row in arr[mask].tolist()
            ]


def test_t_witnesses_match_full_mask_across_chunks():
    # D4 x D4 x F2 x F2 x F4 over F2 + J(S), D4 = F2[y]/(y^4): 4096
    # elements and |B| = 128, so the pairs (b, r) span several chunks, and
    # only the b whose F4 part lies in F2 are witnessed
    F2 = prime_field(2)
    D4, _, _ = monogenic_quotient(F2, 4, [F2.zero_vec()] * 4)
    S, _ = product_ring([D4, D4, F2, F2, galois_field(4)])
    B = seminormalization(prime_ext(S))
    assert (S.size, B.size) == (4096, 128)
    arr = S.elements_array()
    mask = witness_mask_reference(S, B, "t") & ~B.contains_many(arr)
    assert 0 < mask.sum() < len(arr) - B.size
    assert witnessed_elements(S, B, "t") == [
        tuple(row) for row in arr[mask].tolist()
    ]
