"""Brute-force oracles for the exact linear algebra layer.

All groups here are tiny, so spans, kernels and quotients can be enumerated
exhaustively and compared against the Howell / Smith machinery.
"""

import itertools
import random
from math import gcd
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

from fcplat import linalg
from fcplat.cli import main
from fcplat.linalg import (
    HowellBasis,
    _howell_form_f2,
    _howell_form_general,
    _reduce_one_shot,
    _reduce_sequential,
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
from fcplat.ring import prime_field, product_ring
from fcplat.submodule import Submodule

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


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


# -- the fast paths of the Howell kernels -----------------------------------


def f2_rows(n):
    # any integers: both insertions reduce them mod 2 first
    return st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                    max_size=8)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_packed_f2_insertion_matches_column_elimination(data):
    # past 64 columns a packed row no longer fits a machine word
    n = data.draw(st.integers(1, 100))
    r1 = data.draw(f2_rows(n))
    r2 = data.draw(f2_rows(n))
    h1 = howell_by_columns(r1, n, 2)
    # unseeded, and the general insertion at L = 2 agrees
    assert _howell_form_f2(r1, n, ()) == h1
    assert _howell_form_general(r1, n, 2, ()) == h1
    assert howell_form(r1, n, 2) == h1
    # seeded with a Howell form
    assert _howell_form_f2(r2, n, h1) == howell_by_columns(r1 + r2, n, 2)
    # the Zassenhaus seeding of Submodule.intersect
    h2 = howell_by_columns(r2, n, 2)
    top = tuple(a + a for a in h1)
    bottom = [b + (0,) * n for b in h2]
    assert _howell_form_f2(bottom, 2 * n, top) == howell_by_columns(
        list(top) + bottom, 2 * n, 2
    )


def unit_pivot_rows(L, n):
    """Rows led by 1 at distinct columns: their Howell form has every
    pivot 1, whether L is prime or not."""
    return st.lists(st.integers(0, n - 1), unique=True, max_size=n).flatmap(
        lambda cols: st.tuples(*[
            st.tuples(*[st.just(0)] * c + [st.just(1)]
                      + [st.integers(0, L - 1)] * (n - c - 1))
            for c in cols
        ])
    )


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_one_shot_reduction_matches_sequential(data):
    L = data.draw(st.sampled_from([2, 3, 5, 6, 12, 30]))
    n = data.draw(st.integers(1, 7))
    if data.draw(st.booleans()):
        rows = list(data.draw(unit_pivot_rows(L, n)))
    else:
        rows = data.draw(rows_strategy(L, n))
    h = howell_form(rows, n, L)
    V = np.array(
        data.draw(st.lists(st.tuples(*[st.integers(-L, 2 * L)] * n),
                           min_size=1, max_size=10)),
        dtype=np.int64,
    )
    basis = HowellBasis(h, L)
    mask, res = howell_contains(V, h, L)
    unit = all(next(x for x in row if x) == 1 for row in h)
    if not h:
        assert basis.one_shot is None
        assert np.array_equal(res, V % L)
        return
    seq = _reduce_sequential(V % L, basis, L)
    assert np.array_equal(res, seq)
    assert np.array_equal(mask, ~seq.any(axis=1))
    # a basis takes the one-shot path exactly when every pivot is 1
    assert (basis.one_shot is not None) == unit
    if unit:
        assert np.array_equal(_reduce_one_shot(V % L, basis, L), seq)


def test_a_non_unit_pivot_basis_takes_the_sequential_path(monkeypatch):
    h = howell_form([(2, 1, 0), (0, 3, 3)], 3, 12)
    assert any(next(x for x in row if x) != 1 for row in h)
    assert HowellBasis(h, 12).one_shot is None

    def refuse(V, basis, L):
        raise AssertionError("a non-unit pivot took the one-shot path")

    monkeypatch.setattr(linalg, "_reduce_one_shot", refuse)
    V = np.array(list(itertools.product(range(12), repeat=3)))
    mask, _ = howell_contains(V, h, 12)
    span = brute_span(h, 3, 12)
    assert mask.tolist() == [tuple(v) in span for v in V.tolist()]


def test_howell_form_returns_plain_ints():
    # node keys are Howell rows, and they go into the JSON exports
    rng = random.Random(8)
    for L in (2, 3, 4, 12):
        for _ in range(20):
            n = rng.randrange(1, 6)
            rows = random_rows(rng, n, L, rng.randrange(0, 5))
            h = howell_form(rows, n, L)
            assert type(h) is tuple
            assert all(type(row) is tuple for row in h)
            assert all(type(x) is int for row in h for x in row)


def reduce_python(v, hrows, L):
    """The sequential Howell reduction of one row in Python ints."""
    v = [x % L for x in v]
    for row in hrows:
        j = next(i for i, x in enumerate(row) if x)
        q = v[j] // row[j]
        v = [(x - q * y) % L for x, y in zip(v, row)]
    return v


def test_large_modulus_membership_and_intersection():
    # p = 2^31 - 1: F_p x F_p has rank * p^2 just below 2^63, so its spans
    # are held in int64; compare against Python ints
    p = 2**31 - 1
    S, _ = product_ring([prime_field(p), prime_field(p)])
    rng = random.Random(31)
    a, b = rng.randrange(1, p), rng.randrange(1, p)
    A = Submodule.from_generators(S, [(1, a)])
    B = Submodule.from_generators(S, [(1, b)])
    W = Submodule.whole(S)
    vecs = [(rng.randrange(p), rng.randrange(p)) for _ in range(20)]
    vecs += [(x, x * a % p) for x in (1, p - 1, rng.randrange(p))]
    vecs += [(p - 1, p - 1), (0, 0)]
    for sub in (A, B, W, Submodule.zero(S)):
        got = sub.contains_many(np.array(vecs, dtype=np.int64)).tolist()
        want = [not any(reduce_python(v, sub.hrows, p)) for v in vecs]
        assert got == want
    # Zassenhaus against the column-elimination reference in Python ints
    for X, Y in ((A, B), (A, A), (W, A), (B, W)):
        zero = (0,) * S.rank
        ref = howell_by_columns(
            [r + r for r in X.hrows] + [r + zero for r in Y.hrows], 4, p
        )
        want = tuple(r[2:] for r in ref if not any(r[:2]))
        assert X.intersect(Y).hrows == want
    assert A.intersect(B).hrows == ()
    assert A.intersect(W) == A


def test_the_int64_guard_falls_back_to_the_sequential_reduction():
    # three unit-pivot rows at p = 2^31 - 1: 3 (p - 1)^2 passes 2^63, so the
    # one matmul could overflow and the rows are reduced one at a time; the
    # entries p - 1 against the row of all p - 1 make it overflow for sure
    p = 2**31 - 1
    rng = random.Random(63)
    rows = [[int(i == j) if j < 3 else p - 1 for j in range(5)]
            for i in range(3)]
    h = howell_form(rows, 5, p)
    assert [next(x for x in r if x) for r in h] == [1, 1, 1]
    assert HowellBasis(h, p).one_shot is None
    assert HowellBasis(h[:2], p).one_shot is not None
    vecs = [[rng.randrange(p) for _ in range(5)] for _ in range(30)]
    vecs.append([p - 1] * 5)
    vecs.append(list(h[0]))
    mask, res = howell_contains(np.array(vecs, dtype=np.int64), h, p)
    assert res.tolist() == [reduce_python(v, h, p) for v in vecs]
    assert mask.tolist() == [not any(reduce_python(v, h, p)) for v in vecs]


def test_both_fast_paths_fire_on_the_lattice_command(monkeypatch, capsys):
    # the b5101 fixture lives over F_2, so every Howell form it builds is
    # packed and every membership test against a basis is one matmul
    calls = {"f2": 0, "one_shot": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(linalg, "_howell_form_f2",
                        counted("f2", linalg._howell_form_f2))
    monkeypatch.setattr(linalg, "_reduce_one_shot",
                        counted("one_shot", linalg._reduce_one_shot))
    assert main(["lattice", str(FIXTURES / "b5101_q2.json")]) == 0
    assert capsys.readouterr().out
    assert calls["f2"] > 0
    assert calls["one_shot"] > 0
