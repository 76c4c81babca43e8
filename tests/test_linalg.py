"""Brute-force oracles for the exact linear algebra layer.

All groups here are tiny, so spans, kernels and quotients can be enumerated
exhaustively and compared against the Howell / Smith machinery.
"""

import itertools
import random

import numpy as np
from hypothesis import given, settings, strategies as st

from fcplat.linalg import (
    howell_contains,
    howell_form,
    kernel_mod,
    scale_rows,
    smith_presentation,
    span_size,
    unscale_rows,
)


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
