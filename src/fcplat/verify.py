"""Named property checks run over a corpus of extensions.

Each check is a function of a per-extension context and returns True (holds),
False (violated) or None (hypotheses not met, counted as not-applicable).
Checks are grouped into suites: ``identities`` (closure identities, dual
closure oracles, chain coherence, support and separability facts),
``counting`` (complement counts, the lattice-size sum formula and the
cardinality bounds), ``coclosures`` (existence criteria, localization
compatibility and the interaction of co-closures with complements) and
``unramified`` (agreement of the Omega, tensor-square and local routes to
unramified, and closures built from unramifiedness).  ``all`` runs everything.

Chain-type equivalences are decided on Hasse edges: every Hasse edge extends
to a maximal chain (downwards from its foot and upwards from its head), so
"every maximal chain uses only edge types in K" is equivalent to "every
Hasse edge has type in K".
"""

from dataclasses import dataclass, field
from functools import cached_property, reduce

import numpy as np

from .closures import (
    closure_report,
    radicial_closure,
    x_closure,
    x_closure_via_least_closed,
    x_integral_hull,
)
from .coclosures import co_closure, coclosure_report, node_qualifies
from .counting import (
    complement_count_formula,
    complement_count_lattice,
    verify_sum_formula,
)
from .lattice import ExtensionLattice, enumerate_interval
from .minimal import edge_labels
from .ring import PropertyViolation, exact_log, quotient_ring, require
from .spectrum import (
    is_epimorphism,
    is_locally_epimorphism,
    is_unramified,
    is_unramified_local,
    is_unramified_tensor,
    tensor_square,
    tensor_square_size,
)
from .structure import is_local, maximal_ideals, primitive_idempotents
from .submodule import (
    Subalgebra,
    Submodule,
    ideal_generated,
    subring_generated,
)


class ExtContext:
    """Cached per-extension data shared by all checks."""

    def __init__(self, name, ext, lattice):
        self.name = name
        self.ext = ext
        self.lat = lattice

    def node(self, sub):
        return self.lat.nodes[self.lat.index[sub.key]]

    @cached_property
    def closures(self):
        return closure_report(self.lat)

    @cached_property
    def plus(self):
        return self.node(self.closures["plus"])

    @cached_property
    def t(self):
        return self.node(self.closures["t"])

    @cached_property
    def u(self):
        return self.node(self.closures["u"])

    @cached_property
    def radicial(self):
        """The radicial closure from the tensor square, the second route to
        the reported one, which is the seminormalization."""
        return self.node(radicial_closure(self.ext))

    @cached_property
    def omega(self):
        return self.node(self.closures["omega"])

    @cached_property
    def ksep(self):
        return self.node(self.closures["kappa_separable"])

    @cached_property
    def krad(self):
        return self.node(self.closures["kappa_radicial"])

    @cached_property
    def co(self):
        return coclosure_report(self.lat)

    @cached_property
    def conductor(self):
        return self.ext.conductor_ideal()

    @cached_property
    def supp(self):
        return self.ext.supp()

    @cached_property
    def top_maximals(self):
        return maximal_ideals(self.ext.top)

    @cached_property
    def conductor_tops(self):
        """V_S((R:S)): maximal ideals of the top over the conductor."""
        return [N for N in self.top_maximals if self.conductor <= N]

    @cached_property
    def bottom_local(self):
        return len(self.ext.bottom_maximal_ideals()) == 1

    def meet_node(self, a, b):
        return self.node(a.intersect(b))

    def join_node(self, a, b):
        return self.node(self.lat.join(a, b))

    def phi_pairs(self, T):
        """The map U -> (U meet T, U join T) over all nodes, as key pairs."""
        return [
            (U.intersect(T).key, self.lat.join(T, U).key)
            for U in self.lat.nodes
        ]

    def splits_at(self, T):
        """MSupp(S/T) and MSupp(T/R) are disjoint, T strictly inside."""
        if T == self.lat.bottom or T == self.lat.top_node:
            return False
        ext = self.ext
        top_all = Submodule.whole(ext.top)
        upper = {M.key for M in ext.msupp_quotient(T, top_all)}
        lower = {M.key for M in ext.msupp_quotient(ext.bottom, T)}
        return not (upper & lower)


# ---------------------------------------------------------------------
# identities suite


def check_t_from_u_and_plus(ctx):
    """join of the u-closure and the seminormalization is the t-closure."""
    return ctx.join_node(ctx.u, ctx.plus) == ctx.t


def check_t_closed_iff_seminormal_and_u_closed(ctx):
    R = ctx.lat.bottom
    return (ctx.t == R) == (ctx.plus == R and ctx.u == R)


def check_u_closed_equivalences(ctx):
    """u-closed <=> injective lying-over <=> seminormalization = t-closure
    <=> every primitive idempotent of the top lies in the bottom."""
    R = ctx.lat.bottom
    a = ctx.u == R
    b = ctx.ext.is_i_extension()
    c = ctx.plus == ctx.t
    d = bool(R.contains_many(primitive_idempotents(ctx.ext.top)).all())
    return a == b == c == d


def check_u_closed_cover_types(ctx):
    """u-closed extensions admit no decomposed minimal subextension."""
    if ctx.u != ctx.lat.bottom:
        return None
    bot_i = ctx.lat.index[ctx.lat.bottom.key]
    labels = edge_labels(ctx.lat)
    return all(
        labels[(i, j)].kind != "decomposed"
        for i, j in ctx.lat.hasse_edges() if i == bot_i
    )


def check_seminormal_iff_conductor_semiprime(ctx):
    """Seminormal <=> the conductor is an intersection of maximal ideals
    of the top ring."""
    over = ctx.conductor_tops
    if over:
        inter = reduce(lambda a, b: a.intersect(b), over)
        semiprime = inter == ctx.conductor
    else:
        semiprime = False
    return (ctx.plus == ctx.lat.bottom) == semiprime


def check_seminormal_infra_equivalences(ctx):
    """Four-way equivalence for seminormal infra-integral extensions, with
    the conductor decomposition count when the conditions hold."""
    R = ctx.lat.bottom
    top = ctx.lat.top_node
    b1 = ctx.u == top and ctx.plus == R
    b2 = ctx.plus == R and ctx.t == top
    n = len(ctx.supp)
    ell = ctx.lat.length()
    b3 = len(ctx.conductor_tops) == n + ell
    if not (b1 == b2 == b3):
        return False
    if not b2:
        return True
    # the conductor is an irredundant intersection of ell + n maximal
    # ideals of the top
    over = ctx.conductor_tops
    C_sub = ctx.conductor
    if reduce(lambda a, b: a.intersect(b), over) != C_sub:
        return False
    for k in range(len(over)):
        rest = over[:k] + over[k + 1:]
        if rest and reduce(lambda a, b: a.intersect(b), rest) == C_sub:
            return False  # redundant member
    return True


def _ramified_edges_within(ctx, low, high):
    """The ramified Hasse edges with both ends in [low, high]."""
    inside = set(ctx.lat.interval(low, high))
    return [
        (i, j) for (i, j), c in edge_labels(ctx.lat).items()
        if c.kind == "ramified" and i in inside and j in inside
    ]


def check_u_from_omega_and_t(ctx):
    """u-closure = omega meet t-closure = omega meet kappa-radicial.

    The containment of u and the agreement of the two meets always hold;
    the equality needs every cover of u below omega to be non-ramified
    (ramified covers of u inside an unramified extension break it)."""
    wt = ctx.meet_node(ctx.omega, ctx.t)
    wc = ctx.meet_node(ctx.omega, ctx.krad)
    if wt != wc or not ctx.u <= wt:
        return False
    u_i = ctx.lat.index[ctx.u.key]
    if any(i == u_i for i, _ in _ramified_edges_within(ctx, ctx.u, ctx.omega)):
        return None
    return wt == ctx.u


def check_plus_from_radicial_and_ksep(ctx):
    return ctx.meet_node(ctx.radicial, ctx.ksep) == ctx.plus


def check_radicial_meet_omega_trivial(ctx):
    """radicial meet omega collapses to the bottom.

    radicial meet omega = plus meet omega holds unconditionally (the
    radicial closure meets the kappa-separable closure in plus, and omega
    sits below the kappa-separable closure).  The collapse holds when no
    Hasse edge inside [R, omega] is ramified: then [R, plus meet omega], an
    interval inside it, has no ramified edge either, while R <= plus meet
    omega is subintegral, so each of its minimal steps would be ramified;
    it has none, and plus meet omega = R.  Unramified extensions with a
    ramified step, such as F3[y]/(y^2) x F3[y]/(y^2) over its diagonal, do
    not meet that hypothesis and are not-applicable."""
    m = ctx.meet_node(ctx.radicial, ctx.omega)
    if m != ctx.meet_node(ctx.plus, ctx.omega):
        return False
    if _ramified_edges_within(ctx, ctx.lat.bottom, ctx.omega):
        return None
    return m == ctx.lat.bottom


def check_t_from_ksep_and_krad(ctx):
    return ctx.meet_node(ctx.ksep, ctx.krad) == ctx.t


def check_ksep_to_top_radicial(ctx):
    """The kappa-separable closure sits radicially below the top.

    Over finite residue fields this holds trivially.  Finite fields are
    perfect, so every residual extension is separable, the
    kappa-separable closure is the top S, and the check runs the tensor
    route of `radicial_closure` on S <= S, whose radicial closure is S.
    It stays as that route's run on every entry until the route is one
    kernel of linear algebra rather than a tensor square and a
    nilpotency mask over every element of S.
    """
    upper = ctx.lat.upper(ctx.ksep)
    return radicial_closure(upper).size == upper.top.size


def check_closure_tower(ctx):
    return ctx.u <= ctx.omega and ctx.omega <= ctx.ksep


def check_u_integral_iff_locally_epi(ctx):
    """u-closure reaches the top iff the extension is locally an
    epimorphism; such extensions are unramified."""
    a = ctx.u == ctx.lat.top_node
    b = is_locally_epimorphism(ctx.ext)
    if a != b:
        return False
    if a and not is_unramified(ctx.ext):
        return False
    return True


def check_meet_plus_u(ctx):
    """bottom = plus meet u iff the extension into the u-closure is
    seminormal."""
    lhs = ctx.meet_node(ctx.plus, ctx.u) == ctx.lat.bottom
    rhs = x_closure(ctx.ext, "s", high=ctx.u) == ctx.lat.bottom
    return lhs == rhs


def check_supports_agree(ctx):
    """The conductor support equals MSupp(S/R), and the maximal ideals of
    the bottom re-presented as a ring of its own, carried into S, are the
    N cap R (lying over is onto)."""
    a = {M.key for M in ctx.supp}
    b = {M.key for M in ctx.ext.msupp()}
    pres = ctx.lat.bottom.as_ring()
    to_amb = pres.to_ambient
    standalone = {
        Submodule.from_generators(to_amb.target, to_amb.apply_rows(M.basis)).key
        for M in maximal_ideals(pres.ring)
    }
    lying = {P.key for P in ctx.ext.bottom_maximal_ideals()}
    return a == b and standalone == lying


def check_no_proper_epimorphism(ctx):
    """A proper integral extension is never an epimorphism, hence never
    both radicial and unramified.  |S (x)_R S| is read two ways: from the
    Howell span of the relation rows and from the built tensor square."""
    if tensor_square_size(ctx.ext) != tensor_square(ctx.ext).ring.size:
        return False
    if is_epimorphism(ctx.ext):
        return False
    if ctx.radicial == ctx.lat.top_node and is_unramified(ctx.ext):
        return False
    return True


def check_closure_oracles(ctx):
    """For each witness kind, four routes agree: the reported closure (R +
    J(S) for s, the span of the R*e over the primitive idempotents e of S
    for u, the intersection of the R + N for t), the witness fixpoint, the
    least closed node and the elementary-reachability hull."""
    for kind, sub in (("s", ctx.plus), ("u", ctx.u), ("t", ctx.t)):
        fixpoint = ctx.node(x_closure(ctx.ext, kind))
        least = x_closure_via_least_closed(ctx.lat, kind)
        hull = x_integral_hull(ctx.lat, kind)
        if not (sub == fixpoint == ctx.node(least) == ctx.node(hull)):
            return False
    return True


def check_radicial_is_seminormalization(ctx):
    """Over perfect residue fields the radicial closure collapses to the
    seminormalization."""
    return ctx.radicial == ctx.plus


def check_chain_type_flags(ctx):
    """Edge-type characterizations of the extension-wide properties."""
    kinds = {c.kind for c in edge_labels(ctx.lat).values()}
    R = ctx.lat.bottom
    subint = ctx.ext.is_subintegral()
    infra = ctx.ext.is_infra_integral()
    seminormal = ctx.plus == R
    tclosed = ctx.t == R
    return (
        (kinds <= {"ramified"}) == subint
        and (kinds <= {"decomposed"}) == (seminormal and infra)
        and (kinds <= {"ramified", "decomposed"}) == infra
        and (kinds <= {"inert"}) == tclosed
        and (kinds <= {"decomposed", "inert"}) == seminormal
    )


def check_edge_classification(ctx):
    """Every Hasse edge classifies into exactly one minimal type."""
    labels = edge_labels(ctx.lat)
    return set(labels) == set(ctx.lat.hasse_edges()) and all(
        c.kind in ("inert", "decomposed", "ramified") for c in labels.values()
    )


# ---------------------------------------------------------------------
# counting suite


def check_count_paths_agree(ctx):
    return complement_count_lattice(ctx.lat) == complement_count_formula(
        ctx.ext
    )


def check_sum_formula(ctx):
    """|[R, S]| equals the sum of complement counts over pairs around the
    t-closure, each entry re-verified by the root-counting formula."""
    if not ctx.bottom_local:
        return None
    try:
        verify_sum_formula(ctx.lat, cross_check=True)
    except PropertyViolation:
        return False
    return True


def _phi_injective(ctx, T):
    pairs = ctx.phi_pairs(T)
    return len(set(pairs)) == len(pairs)


def check_b51_unique_complement(ctx):
    """u-closed, local bottom, plus strictly inside: a complement of the
    seminormalization, when it exists, is unique, forces MS non-maximal,
    and equals the co-subintegral closure when that exists; the pair map
    at plus is injective with the matching cardinality bounds."""
    R = ctx.lat.bottom
    top = ctx.lat.top_node
    if not (ctx.u == R and ctx.bottom_local and R != ctx.plus != top):
        return None
    comps = ctx.lat.complements(ctx.plus)
    if comps:
        if len(comps) != 1:
            return False
        # MS must not be maximal in S
        ext = ctx.ext
        (M,) = ext.bottom_maximal_ideals()
        MS = ideal_generated(ext.top, M.basis_array())
        if any(MS == N for N in ctx.top_maximals):
            return False
        cs = ctx.co["co_subintegral"]
        if cs.exists and comps[0] != cs.node:
            return False
    if not _phi_injective(ctx, ctx.plus):
        return False
    lo = len(ctx.lat.interval(R, ctx.plus))
    hi = len(ctx.lat.interval(ctx.plus, top))
    n = ctx.lat.node_count()
    return lo + hi - 1 <= n <= lo * hi


def check_b55_infra_injective(ctx):
    """Infra-integral extensions: the pair map at plus is injective."""
    if not ctx.ext.is_infra_integral():
        return None
    if not _phi_injective(ctx, ctx.plus):
        return False
    lo = len(ctx.lat.interval(ctx.lat.bottom, ctx.plus))
    hi = len(ctx.lat.interval(ctx.plus, ctx.lat.top_node))
    return ctx.lat.node_count() <= lo * hi


def check_b5103_t_closed_product(ctx):
    """t-closed extensions: |[R, S]| is the product over the conductor
    support of the subalgebra counts of S/MS over R/M."""
    if ctx.t != ctx.lat.bottom:
        return None
    ext = ctx.ext
    S = ext.top
    total = 1
    for M in ctx.supp:
        MS = ideal_generated(S, M.basis_array())
        Q, proj, _ = quotient_ring(S, MS.basis, label=f"{S.label}/MS")
        img = Subalgebra.from_generators(Q, proj.apply_rows(ext.bottom.basis))
        total *= len(enumerate_interval(Q, img))
    return total == ctx.lat.node_count()


def _submodule_product(ring, A, B):
    return Submodule.from_generators(
        ring, ring.mul_pairs(A.basis_array(), B.basis_array())
    )


def check_b5102_subintegral_chained(ctx):
    """Subintegral extension over a finite local bottom: under the chained
    hypothesis on R + S M^2 and the length condition on MS/M, the whole
    lattice is a chain of length L(N/M)."""
    if not (ctx.ext.is_subintegral() and ctx.bottom_local):
        return None
    ext = ctx.ext
    S = ext.top
    (M,) = ext.bottom_maximal_ideals()
    # nilpotency index of M/(R:S), the powers of M taken in S
    P = M
    n = 1
    while not P <= ctx.conductor:
        P = _submodule_product(S, P, M)
        n += 1
        require(n <= ext.bottom.size.bit_length() + 1, "M must be nilpotent")
    # hypothesis: R + S M^2 sits at the base of a chained upper interval
    SM2 = ideal_generated(S, _submodule_product(S, M, M).basis)
    base = subring_generated(S, SM2.basis, over=ext.bottom)
    idxs = ctx.lat.interval(ctx.node(base), ctx.lat.top_node)
    ns = [ctx.lat.nodes[k] for k in idxs]
    upper_chained = all(ns[i] <= ns[i + 1] for i in range(len(ns) - 1))
    MS = ideal_generated(S, M.basis_array())
    # every simple R-module is R/M, so one of length l has q^l elements
    q = ext.bottom.size // M.size
    len_ok = exact_log(MS.size // M.size, q) == n - 1
    if not (upper_chained and len_ok):
        return None
    # conclusion
    if not ctx.lat.is_chained():
        return False
    (N,) = ctx.top_maximals
    L = exact_log(N.size // M.size, q)
    require(L is not None, "a module's size is a power of |R/M|")
    return ctx.lat.node_count() == ctx.lat.length() + 1 == L + 1


# ---------------------------------------------------------------------
# coclosures suite


def check_co_triple_agreement(ctx):
    """The three existence routes agree (required inside co_closure), and
    catenarian lattices always admit both co-closures."""
    rep = ctx.co
    if ctx.lat.is_catenarian():
        return rep["co_subintegral"].exists and rep["co_infra_integral"].exists
    return True


def check_co_integral_degenerate(ctx):
    """The co-integral closure and the Prufer hull both collapse to the
    bottom over finite rings."""
    return (
        ctx.co["co_integral"] == ctx.lat.bottom
        and ctx.co["prufer_hull"] == ctx.lat.bottom
    )


def check_coclosures_of_closures_trivial(ctx):
    """Inside [R, plus] and [R, t] the co-closures collapse to R."""
    for high, kinds in ((ctx.plus, ("subintegral", "infra_integral")),
                        (ctx.t, ("infra_integral",))):
        for kind in kinds:
            cc = co_closure(ctx.lat, kind, high=high)
            if not (cc.exists and cc.node == ctx.lat.bottom):
                return False
    return True


def check_cosub_of_t_interval_is_u(ctx):
    """The co-subintegral closure of [R, t-closure] is the u-closure."""
    cc = co_closure(ctx.lat, "subintegral", high=ctx.t)
    return cc.exists and cc.node == ctx.u


def check_infra_cosub_is_u(ctx):
    """Infra-integral extensions have a co-subintegral closure equal to
    the u-closure."""
    if not ctx.ext.is_infra_integral():
        return None
    cs = ctx.co["co_subintegral"]
    return cs.exists and cs.node == ctx.u


def check_coinf_gives_cosub(ctx):
    """If the co-infra-integral closure exists, so does the co-subintegral
    one, and it is the co-subintegral closure of the upper interval."""
    ci = ctx.co["co_infra_integral"]
    if not ci.exists:
        return None
    cs = ctx.co["co_subintegral"]
    if not cs.exists:
        return False
    above = co_closure(ctx.lat, "subintegral", low=ci.node)
    return above.exists and above.node == cs.node


def check_unbranched_coclosures_equal(ctx):
    """Injective lying-over: the two co-closures coincide when present."""
    if not ctx.ext.is_i_extension():
        return None
    cs = ctx.co["co_subintegral"]
    ci = ctx.co["co_infra_integral"]
    if cs.exists != ci.exists:
        return False
    if cs.exists and cs.node != ci.node:
        return False
    return True


def check_upper_interval_types(ctx):
    """Above a co-closure every node keeps the defining property, in both
    directions of each subinterval (decided on edge types)."""
    labels = edge_labels(ctx.lat)
    for key, allowed in (
        ("co_subintegral", {"ramified"}),
        ("co_infra_integral", {"ramified", "decomposed"}),
    ):
        cc = ctx.co[key]
        if not cc.exists:
            continue
        idxs = set(ctx.lat.interval(cc.node, ctx.lat.top_node))
        for (i, j), c in labels.items():
            if i in idxs and j in idxs and c.kind not in allowed:
                return False
        kind = key.removeprefix("co_")
        for k in idxs:
            if not node_qualifies(ctx.lat, ctx.lat.nodes[k], kind):
                return False
    return True


def _sample_nodes(lat, count=4):
    n = len(lat.nodes)
    picks = sorted({round(k * (n - 1) / max(1, count - 1))
                    for k in range(count)})
    return [lat.nodes[i] for i in picks]


def check_coclosure_localizes_up(ctx):
    """The co-closure of [U, S] is the join of U with the co-closure."""
    out = None
    for key, kind in (("co_subintegral", "subintegral"),
                      ("co_infra_integral", "infra_integral")):
        cc = ctx.co[key]
        if not cc.exists:
            continue
        out = True
        for U in _sample_nodes(ctx.lat):
            above = co_closure(ctx.lat, kind, low=U)
            if not above.exists or above.node != ctx.join_node(cc.node, U):
                return False
    return out


def check_split_gives_coclosure(ctx):
    """An extension split at plus (resp. t) has a co-subintegral (resp.
    co-infra-integral) closure which is the complement."""
    out = None
    for T, key in ((ctx.plus, "co_subintegral"), (ctx.t, "co_infra_integral")):
        if not ctx.splits_at(T):
            continue
        out = True
        cc = ctx.co[key]
        if not cc.exists:
            return False
        if ctx.meet_node(cc.node, T) != ctx.lat.bottom:
            return False
        if ctx.join_node(cc.node, T) != ctx.lat.top_node:
            return False
    return out


def check_pair_map_implications(ctx):
    """For T the seminormalization (with the co-subintegral closure) and
    the t-closure (with the co-infra-integral closure): bijective implies
    surjective implies a complement exists; bijective implies the
    complement is unique; complement + co-closure imply the unique
    complement is the co-closure."""
    for T, key in ((ctx.plus, "co_subintegral"), (ctx.t, "co_infra_integral")):
        pairs = ctx.phi_pairs(T)
        lower = {ctx.lat.nodes[i].key for i in
                 ctx.lat.interval(ctx.lat.bottom, T)}
        upper = {ctx.lat.nodes[j].key for j in
                 ctx.lat.interval(T, ctx.lat.top_node)}
        full = {(a, b) for a in lower for b in upper}
        image = set(pairs)
        surjective = full <= image
        bijective = surjective and len(image) == len(pairs)
        comps = ctx.lat.complements(T)
        has_comp = bool(comps)
        unique_comp = len(comps) == 1
        cc = ctx.co[key]
        if bijective and not surjective:
            return False
        if surjective and not has_comp:
            return False
        if bijective and not unique_comp:
            return False
        if unique_comp and not has_comp:
            return False
        if has_comp and cc.exists:
            if not unique_comp or comps[0] != cc.node:
                return False
    return True


def check_multi_complement_blocks_cosub(ctx):
    """Two distinct complements of the t-closure that sit as ramified
    co-atoms over the same crucial ideal rule out both co-closures.

    (The unrestricted statement "more than one complement of the t-closure
    blocks the co-subintegral closure" fails for finite rings: in
    F2 < F8 x F8 the t-closure F2 x F2 has three Galois-twisted F8
    complements while the co-subintegral closure exists trivially.  The
    blocking phenomenon needs the complements to be ramified co-atoms.)"""
    comps = ctx.lat.complements(ctx.t)
    if len(comps) <= 1:
        return None
    top_i = ctx.lat.index[ctx.lat.top_node.key]
    labels = edge_labels(ctx.lat)
    ram = []
    for U in comps:
        e = (ctx.lat.index[U.key], top_i)
        if e in labels and labels[e].kind == "ramified":
            ram.append(labels[e].crucial_key)
    if len(ram) - len(set(ram)) == 0:
        return None
    return not ctx.co["co_subintegral"].exists and not (
        ctx.co["co_infra_integral"].exists
    )


def check_ramified_coatom_pairs(ctx):
    """Two distinct ramified co-atoms sharing a crucial ideal kill both
    co-closures; over local bottoms and tops (separable residues) no such
    pair can occur at all."""
    top_i = ctx.lat.index[ctx.lat.top_node.key]
    labels = edge_labels(ctx.lat)
    ram = [
        (i, labels[(i, j)].crucial_key)
        for i, j in ctx.lat.hasse_edges()
        if j == top_i and labels[(i, j)].kind == "ramified"
    ]
    shared = len({ck for _, ck in ram}) < len(ram)
    if shared:
        if ctx.co["co_subintegral"].exists or (
            ctx.co["co_infra_integral"].exists
        ):
            return False
        if ctx.bottom_local and is_local(ctx.ext.top):
            return False  # impossible with separable residues
    return True


def check_coclosure_products(ctx):
    """S is generated by each co-closure with its closure partner, the
    intersection is the inner seminormalization (resp. t-closure), and the
    u-closure joined with the co-infra-integral closure recovers the
    co-subintegral closure."""
    out = None
    for key, T, kind in (("co_subintegral", ctx.plus, "s"),
                         ("co_infra_integral", ctx.t, "t")):
        cc = ctx.co[key]
        if not cc.exists:
            continue
        out = True
        if ctx.join_node(cc.node, T) != ctx.lat.top_node:
            return False
        inner = x_closure(ctx.ext, kind, high=cc.node)
        if ctx.meet_node(cc.node, T) != ctx.node(inner):
            return False
    ci = ctx.co["co_infra_integral"]
    if ci.exists:
        cs = ctx.co["co_subintegral"]
        if not cs.exists or ctx.join_node(ctx.u, ci.node) != cs.node:
            return False
    return out


def check_coclosures_localize(ctx):
    """Co-closures exist iff they exist at every maximal ideal of the
    bottom ring, and localize componentwise."""
    if ctx.bottom_local:
        return None
    ext = ctx.ext
    # one localized extension and lattice per maximal ideal, for both kinds
    local_lats = []
    for e, M in ext.max_ideal_pairs(ext.bottom):
        loc_ext, pres = ext.localize_at(M)
        local_lats.append((ExtensionLattice(loc_ext), pres, e))
    for key, kind in (("co_subintegral", "subintegral"),
                      ("co_infra_integral", "infra_integral")):
        global_cc = ctx.co[key]
        local_ccs = [(co_closure(loc_lat, kind), pres, e)
                     for loc_lat, pres, e in local_lats]
        all_exist = all(cc.exists for cc, _, _ in local_ccs)
        if global_cc.exists != all_exist:
            return False
        if global_cc.exists:
            for cc, pres, e_amb in local_ccs:
                prods = ext.top.mul_pairs(global_cc.node.basis, e_amb)
                cut = Subalgebra.from_generators(
                    pres.ring,
                    np.vstack([pres.from_ambient_rows(prods),
                               [pres.ring.one]]),
                )
                if cut != cc.node:
                    return False
    return True


# ---------------------------------------------------------------------
# unramified suite


def check_unramified_routes(ctx):
    """Three routes to unramified agree: Omega_{S/R} = 0, I = I^2 in the
    tensor square, and the local fiber criterion."""
    return (is_unramified(ctx.ext) == is_unramified_tensor(ctx.ext)
            == is_unramified_local(ctx.ext))


def check_omega_greatest_unramified(ctx):
    """omega is unramified over the bottom and dominates every unramified
    node, each node read by Omega of its presented extension: the second
    route to the local criterion that `omega_closure` reads in S."""
    lat = ctx.lat
    if not is_unramified(lat.sub_extension(lat.bottom, ctx.omega)[0]):
        return False
    for n in lat.nodes:
        sub, _ = lat.sub_extension(lat.bottom, n)
        if is_unramified(sub) and not n <= ctx.omega:
            return False
    return True


def check_minimal_unramified_types(ctx):
    """A minimal extension is unramified iff it is decomposed or (separable,
    automatic here) inert."""
    labels = edge_labels(ctx.lat)
    edges = ctx.lat.hasse_edges()[:40]
    for i, j in edges:
        sub, _ = ctx.lat.sub_extension(ctx.lat.nodes[i], ctx.lat.nodes[j])
        if is_unramified(sub) != (labels[(i, j)].kind != "ramified"):
            return False
    return True


# ---------------------------------------------------------------------
# suite registry and runner


SUITES = {
    "identities": [
        ("t_from_u_and_plus", check_t_from_u_and_plus),
        ("t_closed_iff_seminormal_and_u_closed",
         check_t_closed_iff_seminormal_and_u_closed),
        ("u_closed_equivalences", check_u_closed_equivalences),
        ("u_closed_cover_types", check_u_closed_cover_types),
        ("seminormal_iff_conductor_semiprime",
         check_seminormal_iff_conductor_semiprime),
        ("seminormal_infra_equivalences", check_seminormal_infra_equivalences),
        ("u_from_omega_and_t", check_u_from_omega_and_t),
        ("plus_from_radicial_and_ksep", check_plus_from_radicial_and_ksep),
        ("radicial_meet_omega_trivial", check_radicial_meet_omega_trivial),
        ("t_from_ksep_and_krad", check_t_from_ksep_and_krad),
        ("ksep_to_top_radicial", check_ksep_to_top_radicial),
        ("closure_tower", check_closure_tower),
        ("u_integral_iff_locally_epi", check_u_integral_iff_locally_epi),
        ("meet_plus_u", check_meet_plus_u),
        ("supports_agree", check_supports_agree),
        ("no_proper_epimorphism", check_no_proper_epimorphism),
        ("closure_oracles", check_closure_oracles),
        ("radicial_is_seminormalization", check_radicial_is_seminormalization),
        ("chain_type_flags", check_chain_type_flags),
        ("edge_classification", check_edge_classification),
    ],
    "counting": [
        ("count_paths_agree", check_count_paths_agree),
        ("sum_formula", check_sum_formula),
        ("b51_unique_complement", check_b51_unique_complement),
        ("b55_infra_injective", check_b55_infra_injective),
        ("b5103_t_closed_product", check_b5103_t_closed_product),
        ("b5102_subintegral_chained", check_b5102_subintegral_chained),
    ],
    "coclosures": [
        ("co_triple_agreement", check_co_triple_agreement),
        ("co_integral_degenerate", check_co_integral_degenerate),
        ("coclosures_of_closures_trivial",
         check_coclosures_of_closures_trivial),
        ("cosub_of_t_interval_is_u", check_cosub_of_t_interval_is_u),
        ("infra_cosub_is_u", check_infra_cosub_is_u),
        ("coinf_gives_cosub", check_coinf_gives_cosub),
        ("unbranched_coclosures_equal", check_unbranched_coclosures_equal),
        ("upper_interval_types", check_upper_interval_types),
        ("coclosure_localizes_up", check_coclosure_localizes_up),
        ("split_gives_coclosure", check_split_gives_coclosure),
        ("pair_map_implications", check_pair_map_implications),
        ("multi_complement_blocks_cosub",
         check_multi_complement_blocks_cosub),
        ("ramified_coatom_pairs", check_ramified_coatom_pairs),
        ("coclosure_products", check_coclosure_products),
        ("coclosures_localize", check_coclosures_localize),
    ],
    "unramified": [
        ("unramified_routes", check_unramified_routes),
        ("omega_greatest_unramified", check_omega_greatest_unramified),
        ("minimal_unramified_types", check_minimal_unramified_types),
    ],
}


@dataclass
class CheckStats:
    name: str
    passed: int = 0
    failed: int = 0
    not_applicable: int = 0
    failures: list = field(default_factory=list)

    def as_dict(self):
        return {
            "pass": self.passed,
            "fail": self.failed,
            "not_applicable": self.not_applicable,
            "failures": list(self.failures),
        }


def suite_checks(suite):
    if suite == "all":
        out = []
        for name in ("identities", "counting", "coclosures", "unramified"):
            out.extend(SUITES[name])
        return out
    if suite not in SUITES:
        raise KeyError(f"unknown suite {suite!r}")
    return SUITES[suite]


def run_suite(entries, suite):
    """Run every check of the suite over the corpus entries.

    Returns (report, ok) where report maps check names to pass/fail/NA
    counts with the names of failing entries.
    """
    checks = suite_checks(suite)
    stats = {name: CheckStats(name) for name, _ in checks}
    for entry in entries:
        ctx = ExtContext(entry.name, entry.ext, entry.lattice)
        for name, fn in checks:
            st = stats[name]
            try:
                result = fn(ctx)
            except PropertyViolation as exc:
                result = False
                st.failures.append(f"{entry.name}: {exc}")
            if result is None:
                st.not_applicable += 1
            elif result:
                st.passed += 1
            else:
                st.failed += 1
                if not st.failures or not st.failures[-1].startswith(
                    entry.name
                ):
                    st.failures.append(entry.name)
    report = {name: st.as_dict() for name, st in stats.items()}
    ok = all(st.failed == 0 for st in stats.values())
    return report, ok
