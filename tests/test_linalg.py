"""Brute-force oracles for the exact linear algebra layer.

All groups here are tiny, so spans, kernels and quotients can be enumerated
exhaustively and compared against the Howell / Smith machinery.
"""

import itertools
import random
from math import gcd

import numpy as np
from hypothesis import given, settings, strategies as st

from fcplat.linalg import (
    egcd,
    howell_contains,
    howell_form,
    kernel_mod,
    scale_rows,
    smith_presentation,
    span_size,
    unit_for,
    unscale_rows,
)

def howell_by_columns(rows, n, L):
    """Howell form by column-by-column elimination: the reference that the
    row-insertion `howell_form` must match tuple for tuple."""
    if L == 1:
        return ()
    work = []
    for r in rows:
        r = [x % L for x in r]
        if any(r):
            work.append(r)
    result = []
    for j in range(n):
        cur = [r for r in work if r[j]]
        rest = [r for r in work if not r[j]]
        if not cur:
            work = rest
            continue
        piv = cur[0]
        for r in cur[1:]:
            a, b = piv[j], r[j]
            g, s, t = egcd(a, b)
            new_piv = [(s * x + t * y) % L for x, y in zip(piv, r)]
            new_r = [((b // g) * x - (a // g) * y) % L for x, y in zip(piv, r)]
            piv = new_piv
            if any(new_r):
                rest.append(new_r)
        c = unit_for(piv[j], L)
        piv = [(c * x) % L for x in piv]
        p = piv[j]
        result.append(piv)
        ann = L // gcd(p, L)
        extra = [(ann * x) % L for x in piv]
        if any(extra):
            rest.append(extra)
        work = rest
    # reduce entries above each pivot modulo the pivot
    for i in range(len(result)):
        ri = result[i]
        j = next(k for k in range(n) if ri[k])
        p = ri[j]
        for k in range(i):
            rk = result[k]
            q = rk[j] // p
            if q:
                result[k] = [(x - q * y) % L for x, y in zip(rk, ri)]
    return tuple(tuple(r) for r in result)


def brute_span(rows, n, L):
    seen = {tuple([0] * n)}
    frontier = [tuple([0] * n)]
    while frontier:
        v = frontier.pop()
        for r in rows:
            w = tuple((a + b) % L for a, b in zip(v, r))
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return seen


def contains_each(vectors, h, n, L):
    """howell_contains on the vectors as one batch: one verdict per vector."""
    return howell_contains(np.array(vectors).reshape(-1, n), h, L)[0]


def random_rows(rng, n, L, k):
    return [tuple(rng.randrange(L) for _ in range(n)) for _ in range(k)]


def test_howell_matches_brute_span():
    rng = random.Random(20231)
    for _ in range(300):
        L = rng.choice([2, 3, 4, 8, 9, 12, 16, 27])
        n = rng.randrange(1, 5)
        rows = random_rows(rng, n, L, rng.randrange(0, 4))
        h = howell_form(rows, n, L)
        span = brute_span(rows, n, L)
        assert span_size(h, L) == len(span)
        assert contains_each(sorted(span), h, n, L).all()
        outside = [v for v in itertools.product(range(L), repeat=n) if v not in span]
        assert not contains_each(outside[:20], h, n, L).any()


def test_howell_is_canonical_under_generator_changes():
    rng = random.Random(555)
    for _ in range(200):
        L = rng.choice([4, 8, 9, 12, 16])
        n = rng.randrange(1, 5)
        rows = random_rows(rng, n, L, rng.randrange(1, 4))
        h = howell_form(rows, n, L)
        alt = list(rows)
        rng.shuffle(alt)
        # add random combinations of existing generators
        for _ in range(3):
            c = [rng.randrange(L) for _ in rows]
            alt.append(
                tuple(sum(ci * r[j] for ci, r in zip(c, rows)) % L for j in range(n))
            )
        # rescale one generator by a random unit
        u = rng.choice([x for x in range(1, L) if _coprime(x, L)])
        alt[0] = tuple((u * x) % L for x in alt[0])
        assert howell_form(alt, n, L) == h


def rows_strategy(L, n):
    # entries drawn from the divisors of L as often as from all of Z/L, so
    # that pivots that do not divide an entry, and annihilator multiples,
    # turn up on every composite L
    divisors = [d for d in range(1, L) if L % d == 0]
    entry = st.one_of(st.integers(0, L - 1), st.sampled_from(divisors))
    return st.lists(st.tuples(*[entry] * n), max_size=6)


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_insertion_matches_column_elimination(data):
    L = data.draw(st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12, 16, 27, 30, 36]))
    n = data.draw(st.integers(1, 6))
    r1 = data.draw(rows_strategy(L, n))
    r2 = data.draw(rows_strategy(L, n))
    h1 = howell_by_columns(r1, n, L)
    # unseeded
    assert howell_form(r1, n, L) == h1
    # seeded with a Howell form: the span of both row sets
    assert howell_form(r2, n, L, h1) == howell_by_columns(r1 + r2, n, L)
    # the Zassenhaus seeding of Submodule.intersect: (a, a) rows of one
    # Howell form, the (b, 0) rows of another inserted
    h2 = howell_by_columns(r2, n, L)
    top = [a + a for a in h1]
    bottom = [b + (0,) * n for b in h2]
    assert howell_form(bottom, 2 * n, L, tuple(top)) == howell_by_columns(
        top + bottom, 2 * n, L
    )


def _coprime(a, b):
    while b:
        a, b = b, a % b
    return a == 1


def test_scaling_roundtrip():
    orders = (12, 6, 2)
    L = 12
    vec = (7, 5, 1)
    s = tuple(scale_rows([vec], orders, L)[0].tolist())
    assert s == (7, 10, 6)
    assert tuple(unscale_rows([s], orders, L)[0].tolist()) == vec


def test_kernel_matches_brute_force():
    rng = random.Random(99)
    for _ in range(200):
        L = rng.choice([2, 4, 8, 9, 12])
        n = rng.randrange(1, 4)
        k = rng.randrange(1, 4)
        rows = random_rows(rng, n, L, k)
        ker = kernel_mod(rows, n, L)
        brute = set()
        for a in itertools.product(range(L), repeat=k):
            img = tuple(
                sum(ai * r[j] for ai, r in zip(a, rows)) % L for j in range(n)
            )
            if not any(img):
                brute.add(a)
        assert span_size(ker, L) == len(brute)
        assert contains_each(sorted(brute), ker, k, L).all()


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_kernel_rows_are_already_a_howell_form(data):
    # kernel_mod keeps the zero-first-part rows of one augmented Howell
    # form and reduces them no further: they must be the kernel's own
    # Howell form
    L = data.draw(st.sampled_from([2, 3, 4, 6, 8, 9, 12, 16, 27]))
    n = data.draw(st.integers(1, 4))
    k = data.draw(st.integers(1, 5))
    rows = [
        tuple(data.draw(st.integers(0, L - 1)) for _ in range(n))
        for _ in range(k)
    ]
    ker = kernel_mod(rows, n, L)
    assert ker == howell_form(ker, k, L)


def check_presentation(rel_rows, k, L):
    orders, V, Vinv = smith_presentation(rel_rows, k, L)
    # orders form a decreasing divisibility chain
    for a, b in zip(orders, orders[1:]):
        assert a % b == 0
    m = len(orders)

    def to_new(x):
        return tuple(
            sum(x[i] * V[i][j] for i in range(k)) % orders[j] for j in range(m)
        )

    # relations map to zero
    for r in rel_rows:
        assert to_new(r) == tuple([0] * m)
    # the quotient size matches brute-force enumeration of the lattice
    lat = brute_span([tuple(x % L for x in r) for r in rel_rows], k, L)
    qsize = 1
    for d in orders:
        qsize *= d
    assert qsize * len(lat) == L**k
    # Vinv lifts are genuine preimages of the new basis vectors
    for j in range(m):
        img = to_new(Vinv[j])
        assert img == tuple(1 if i == j else 0 for i in range(m))
    # the map is injective on the quotient: sample pairs
    rng = random.Random(7)
    for _ in range(30):
        x = tuple(rng.randrange(L) for _ in range(k))
        y = tuple(rng.randrange(L) for _ in range(k))
        if to_new(x) == to_new(y):
            diff = tuple((a - b) % L for a, b in zip(x, y))
            assert diff in lat


def test_smith_presentation_random():
    rng = random.Random(4242)
    for _ in range(150):
        L = rng.choice([2, 3, 4, 8, 9, 12, 16])
        k = rng.randrange(1, 5)
        rows = random_rows(rng, k, L, rng.randrange(0, 5))
        check_presentation(rows, k, L)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_smith_presentation_hypothesis(data):
    L = data.draw(st.sampled_from([2, 3, 4, 5, 8, 9, 16, 25, 27]))
    k = data.draw(st.integers(1, 4))
    nrows = data.draw(st.integers(0, 4))
    rows = [
        tuple(data.draw(st.integers(0, L - 1)) for _ in range(k))
        for _ in range(nrows)
    ]
    check_presentation(rows, k, L)


def test_smith_trivial_quotient():
    # relations generate everything: no invariant factors remain
    orders, V, Vinv = smith_presentation([(1, 0), (0, 1)], 2, 8)
    assert orders == ()
