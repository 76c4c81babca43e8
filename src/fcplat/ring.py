"""Finite commutative unital rings with exact structure-constant arithmetic.

A ring is stored as its additive group Z/d1 x ... x Z/dn (a decreasing
divisibility chain of invariant factors) together with the multiplication
table of the additive basis.  Every construction in this module funnels
through `build_ring`, which takes generators-and-relations data and produces
the invariant-factor presentation, so basis choices are deterministic.

A ring element is its coefficient tuple over that basis, reduced modulo the
orders, and a batch of elements is an int64 array of such rows.  All ring
arithmetic is batched: `mul_matrices`, `mul_pairs` and `mul_rows` are the
only products, `RingMorphism.apply_rows` the only image map, and sums are
plain array sums reduced modulo `np_orders`.  A set of elements is a Howell
span (`submodule.Submodule`).
"""

import itertools
from math import gcd, isqrt, lcm

import numpy as np

from .linalg import (
    INT64_BOUND,
    howell_contains,
    howell_form,
    scale_rows,
    smith_presentation,
)
from .memo import memo

# The batched kernel sums rank products of entries below L in int64, so a
# ring must keep rank * L^2 below INT64_BOUND.

# Rings are validated at construction; full associativity on all basis
# triples is checked up to this rank, random triples beyond it (only very
# large intermediate rings such as tensor squares exceed the bound).
FULL_ASSOC_RANK = 24
_ASSOC_SAMPLES = 300


class RingConstructionError(ValueError):
    pass


class FiniteRing:
    """A finite commutative unital ring in basis/structure-constant form."""

    def __init__(self, orders, table, one, label="R", check=True):
        self.orders = tuple(int(d) for d in orders)
        n = len(self.orders)
        self.rank = n
        self.label = label
        if n == 0:
            raise RingConstructionError("the zero ring is excluded")
        if n * max(self.orders) ** 2 >= INT64_BOUND:
            raise RingConstructionError(
                "rank * L^2 must stay below 2^63 for the int64 kernel"
            )
        self.np_orders = np.array(self.orders, dtype=np.int64)
        self.np_orders.flags.writeable = False
        C = np.array(table, dtype=np.int64)
        if C.shape != (n, n, n):
            raise RingConstructionError(
                "structure constants must form a rank x rank x rank table"
            )
        # npC[i, j, k] is the e_k-coefficient of e_i * e_j
        self.npC = C % self.np_orders
        self.npC.flags.writeable = False
        self.one = tuple(int(c) % d for c, d in zip(one, self.orders))
        self.L = self.orders[0]
        size = 1
        for d in self.orders:
            size *= d
        self.size = size
        if check:
            self._validate()

    # -- representation ------------------------------------------------

    def __repr__(self):
        return f"FiniteRing({self.label}, orders={self.orders}, size={self.size})"

    @property
    @memo
    def table(self):
        """The structure constants npC as nested tuples of ints."""
        return tuple(
            tuple(tuple(cell) for cell in row) for row in self.npC.tolist()
        )

    @property
    def char(self):
        """Additive order of 1."""
        return lcm(*[d // gcd(d, c) if c else 1
                     for d, c in zip(self.orders, self.one)] or [1])

    def _validate(self):
        n = self.rank
        for a, b in zip(self.orders, self.orders[1:]):
            if a % b or b < 2:
                raise RingConstructionError("orders must be a divisibility chain")
        C = self.npC
        D = self.np_orders
        # d_i * (e_i * e_j) = 0, so every coefficient of e_i * e_j is
        # killed by d_i and by d_j in its own coordinate
        if ((D[:, None, None] * C) % D).any() or ((D[None, :, None] * C) % D).any():
            raise RingConstructionError("inconsistent structure constants")
        if not np.array_equal(C, C.transpose(1, 0, 2)):
            raise RingConstructionError("multiplication not commutative")
        # row j is 1 * e_j
        unit = np.array(self.one, dtype=np.int64) @ C.reshape(n, n * n)
        if not np.array_equal(unit.reshape(n, n) % D, np.eye(n, dtype=np.int64)):
            raise RingConstructionError("unit fails identity law")
        self._check_associativity()

    def _check_associativity(self):
        n = self.rank
        C = self.npC
        D = self.np_orders
        if n <= FULL_ASSOC_RANK:
            # row (a, b) of U is e_a * e_b: contracted with C[k, c, l] it
            # gives (e_a e_b) e_c, and row (b, c) contracted with C[a, k, l]
            # gives e_a (e_b e_c)
            U = C.reshape(n * n, n)
            Ct = C.transpose(1, 0, 2).reshape(n, n * n)
            t1 = (U @ C.reshape(n, n * n)).reshape(n, n, n, n) % D
            t2 = (U @ Ct).reshape(n, n, n, n).transpose(2, 0, 1, 3) % D
            if not np.array_equal(t1, t2):
                raise RingConstructionError("multiplication not associative")
        else:
            rng = np.random.default_rng(0)
            a, b, c = rng.integers(0, n, size=(_ASSOC_SAMPLES, 3)).T
            # C[a, b] is e_a * e_b and C[a] the matrix of multiplication
            # by e_a; C[:, c] is that of e_c, with the sample axis first
            left = (C[a, b][:, None, :] @ C[:, c].transpose(1, 0, 2))[:, 0] % D
            right = (C[b, c][:, None, :] @ C[a])[:, 0] % D
            if not np.array_equal(left, right):
                raise RingConstructionError("multiplication not associative")

    # -- batched arithmetic on integer arrays ----------------------------
    #
    # One kernel serves every batched product.  The multiplication matrices
    # of one factor are formed by one matmul against the structure
    # constants and reduced mod L, which every order divides, and a second
    # matmul applies them to the other factor.  Entries of the inputs lie
    # in [0, L), so no intermediate exceeds rank * L^2, which __init__
    # keeps below 2^63.

    def mul_matrices(self, Y):
        """The matrices of x -> x * y for the rows y of Y, side by side.

        Returns an (n, len(Y) * n) array: block b holds the matrix of
        multiplication by Y[b], ready for `mul_pairs`.
        """
        n = self.rank
        Y = np.asarray(Y, dtype=np.int64).reshape(-1, n)
        M = (Y @ self.npC.reshape(n, n * n)) % self.L
        return M.reshape(-1, n, n).transpose(1, 0, 2).reshape(n, -1)

    def mul_pairs(self, X, Y, mats=None):
        """All products X[a] * Y[b], as an array of shape (len(X), len(Y), n).

        `mats` may pass in `mul_matrices(Y)` when Y is reused.
        """
        if mats is None:
            mats = self.mul_matrices(Y)
        n = self.rank
        X = np.asarray(X, dtype=np.int64).reshape(-1, n)
        out = (X @ mats).reshape(len(X), mats.shape[1] // n, n)
        return out % self.np_orders

    def mul_rows(self, X, Y):
        """The row-wise products X[a] * Y[a], as an array."""
        n = self.rank
        X = np.asarray(X, dtype=np.int64).reshape(-1, n)
        Y = np.asarray(Y, dtype=np.int64).reshape(-1, n)
        M = ((X @ self.npC.reshape(n, n * n)) % self.L).reshape(-1, n, n)
        return (Y[:, None, :] @ M)[:, 0] % self.np_orders

    def pow_rows(self, X, e):
        """The row-wise powers X[a]^e, by repeated squaring, as an array."""
        X = np.asarray(X, dtype=np.int64).reshape(-1, self.rank)
        out = np.tile(np.array(self.one, dtype=np.int64), (len(X), 1))
        while e:
            if e & 1:
                out = self.mul_rows(out, X)
            X = self.mul_rows(X, X)
            e >>= 1
        return out

    def zero_vec(self):
        return tuple([0] * self.rank)

    @property
    @memo
    def basis_vectors(self):
        """The additive basis e_0, ..., e_{n-1} as coefficient tuples."""
        n = self.rank
        return tuple(tuple(int(i == j) for i in range(n)) for j in range(n))

    def elements(self):
        """All coefficient tuples, in lexicographic order."""
        return itertools.product(*[range(d) for d in self.orders])

    @memo
    def elements_array(self):
        """All coefficient tuples, in lexicographic order, as an array."""
        grid = np.indices(self.orders, dtype=np.int64)
        return grid.reshape(self.rank, -1).T.copy()


class RingMorphism:
    """A map of rings given by images of the additive basis of the source.

    `unital` may be False for the non-unital embeddings that arise when a
    local factor e*R is viewed inside R.
    """

    def __init__(self, source, target, rows, unital=True, check=True):
        self.source = source
        self.target = target
        # row i is the image of e_i
        self.matrix = np.asarray(rows, dtype=np.int64).reshape(
            source.rank, target.rank
        ) % target.np_orders
        self.unital = unital
        if check:
            self._validate()

    @property
    def rows(self):
        """The images of the basis, as coefficient tuples."""
        return tuple(map(tuple, self.matrix.tolist()))

    def _validate(self):
        src, tgt = self.source, self.target
        if ((src.np_orders[:, None] * self.matrix) % tgt.np_orders).any():
            raise RingConstructionError("morphism not additively well defined")
        # phi(e_i) phi(e_j) against phi(e_i e_j), every pair at once
        lhs = tgt.mul_pairs(self.matrix, self.matrix).reshape(-1, tgt.rank)
        if not np.array_equal(lhs, self.apply_rows(src.npC)):
            raise RingConstructionError("morphism not multiplicative")
        if self.unital and self.apply(src.one) != tgt.one:
            raise RingConstructionError("morphism does not preserve the unit")

    def apply_rows(self, X):
        """The images of the rows of an integer array, as an array."""
        src = self.source
        X = np.asarray(X, dtype=np.int64).reshape(-1, src.rank) % src.np_orders
        return (X @ self.matrix) % self.target.np_orders

    def apply(self, vec):
        """The image of one coefficient tuple, as a tuple."""
        return tuple(self.apply_rows(vec)[0].tolist())


def build_ring(rel_rows, k, L, P, one_vec, label="R", check=True):
    """Construct a ring from k generators, relations and generator products.

    P is a k x k x k integer array: P[i][j] are the coordinates of g_i*g_j in
    the generators.  Returns (ring, to_new, lift_rows) where to_new maps an
    array of generator coordinate rows to basis coordinates of the new ring,
    and row j of the array lift_rows gives generator coordinates of the j-th
    new basis vector.
    """
    if k * L * L >= INT64_BOUND:
        raise RingConstructionError(
            "generators * L^2 must stay below 2^63 for the int64 kernel"
        )
    orders, V, Vinv = smith_presentation(rel_rows, k, L)
    m = len(orders)
    if m == 0:
        raise RingConstructionError("presentation collapses to the zero ring")
    Vn = np.array(V, dtype=np.int64).reshape(k, m)
    B = np.array(Vinv, dtype=np.int64).reshape(m, k) % L
    Pn = np.asarray(P, dtype=np.int64) % L
    # tmp[b, (i, t)] = sum_j B[b, j] P[i, j, t]: g_i times new basis vector b
    tmp = (B @ Pn.transpose(1, 0, 2).reshape(k, k * k)) % L
    # prod_old[a, (b, t)] = sum_i B[a, i] tmp[b, i, t], in generator coordinates
    tmp = tmp.reshape(m, k, k).transpose(1, 0, 2).reshape(k, m * k)
    prod_old = (B @ tmp) % L
    table = (prod_old.reshape(m * m, k) @ Vn).reshape(m, m, m)
    np_orders = np.array(orders, dtype=np.int64)

    def to_new(X):
        X = np.asarray(X, dtype=np.int64).reshape(-1, k) % L
        return (X @ Vn) % np_orders

    ring = FiniteRing(orders, table, to_new(one_vec)[0], label=label,
                      check=check)
    return ring, to_new, B


def _tuple(row):
    return tuple(row.tolist())


# -- constructors ------------------------------------------------------


def is_prime(n):
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def exact_log(n, q):
    """The k with q**k == n, or None when n is no power of q >= 2."""
    k = 0
    while n > 1 and n % q == 0:
        n, k = n // q, k + 1
    return k if n == 1 else None


def prime_field(p):
    if not is_prime(p):
        raise ValueError("p must be prime")
    return FiniteRing((p,), (((1,),),), (1,), label=f"F{p}")


def _is_irreducible(coeffs, p):
    """coeffs: monic polynomial as [c0, ..., c_{k-1}, 1] over F_p."""
    k = len(coeffs) - 1
    if k == 1:
        return True
    # no factor of degree <= k//2: trial division
    def divides(g):
        # g monic, coefficient list low-to-high
        r = list(coeffs)
        dg = len(g) - 1
        for i in range(len(r) - 1, dg - 1, -1):
            c = r[i]
            if c:
                for j in range(dg + 1):
                    r[i - dg + j] = (r[i - dg + j] - c * g[j]) % p
        return not any(r)

    for d in range(1, k // 2 + 1):
        for lower in itertools.product(range(p), repeat=d):
            if divides(list(lower) + [1]):
                return False
    return True


def minimal_irreducible(p, k):
    """Lexicographically least monic irreducible of degree k over F_p.

    Compared by the coefficient tuple (c0, ..., c_{k-1}) of
    X^k + c_{k-1} X^{k-1} + ... + c0.
    """
    for low in itertools.product(range(p), repeat=k):
        f = list(low) + [1]
        if _is_irreducible(f, p):
            return f
    raise RuntimeError("unreachable")


def galois_field(q):
    """The field with q = p^k elements, deterministic presentation."""
    p, k = _prime_power(q)
    base = prime_field(p)
    if k == 1:
        return base
    f = minimal_irreducible(p, k)
    red = [((-f[s]) % p,) for s in range(k)]
    ring, _, _ = monogenic_quotient(base, k, red, label=f"F{q}")
    return ring


def _prime_power(q):
    # the least divisor p > 1 of q is prime, and p <= sqrt(q) unless p = q
    p = next((d for d in range(2, isqrt(max(q, 0)) + 1) if q % d == 0), q)
    k = exact_log(q, p)
    if not k:
        raise ValueError("q must be a prime power")
    return p, k


def monogenic_quotient(R, m, red, label=None):
    """R[X] / (X^m - sum red[s] X^s) for R-elements red[0..m-1].

    Returns (ring, embed, x) with embed the structural morphism R -> ring and
    x the image of X as a coefficient tuple of the new ring.
    """
    if m < 1:
        raise ValueError("degree must be positive")
    red_vecs = [tuple(r) for r in red]
    if len(red_vecs) != m:
        raise ValueError("need exactly m reduction coefficients")
    n = R.rank
    k = n * m
    # generator (s, i) is X^s e_i, at index s * n + i
    rels = np.diag(np.tile(R.np_orders, m))
    # xpow[u, s] is the R-coefficient of X^s in X^u, for u up to 2m - 2
    xpow = np.zeros((2 * m - 1, m, n), dtype=np.int64)
    xpow[np.arange(m), np.arange(m)] = R.one
    red = np.array(red_vecs, dtype=np.int64).reshape(m, n)
    for u in range(m, 2 * m - 1):
        # X^u = X * X^(u-1), with X^m replaced by sum red[s] X^s
        overflow = R.mul_pairs(xpow[u - 1, m - 1], red)[0]
        xpow[u, 1:] = xpow[u - 1, :-1]
        xpow[u] = (xpow[u] + overflow) % R.np_orders
    # (X^s e_i)(X^t e_j) = (e_i e_j) X^(s+t)
    prods = R.mul_pairs(R.npC.reshape(n * n, n), xpow.reshape(-1, n))
    prods = prods.reshape(n, n, 2 * m - 1, m, n)
    st = np.add.outer(np.arange(m), np.arange(m))
    P = prods[:, :, st].transpose(2, 0, 3, 1, 4, 5).reshape(k, k, k)
    one_vec = np.zeros(k, dtype=np.int64)
    one_vec[:n] = R.one
    ring, to_new, _ = build_ring(
        rels, k, R.L, P, one_vec, label=label or f"{R.label}[x]/deg{m}"
    )
    embed = RingMorphism(R, ring, to_new(np.eye(n, k, dtype=np.int64)))
    if m == 1:  # X = red[0]
        x = to_new(red[0])
    else:  # X is 1 in the slot of X^1
        x = to_new(np.roll(one_vec, n))
    return ring, embed, _tuple(x[0])


def product_ring(factors, label=None):
    """Direct product of finitely many rings.

    Returns (ring, pack) with pack mapping a tuple of factor coefficient
    tuples to coordinates of the product.
    """
    orders = np.concatenate([R.np_orders for R in factors])
    k = len(orders)
    L = lcm(*[R.L for R in factors])
    P = np.zeros((k, k, k), dtype=np.int64)
    off = 0
    for R in factors:
        block = slice(off, off + R.rank)
        P[block, block, block] = R.npC
        off += R.rank
    one_vec = np.concatenate([np.array(R.one) for R in factors])
    ring, to_new, _ = build_ring(
        np.diag(orders), k, L, P, one_vec,
        label=label or " x ".join(R.label for R in factors),
    )

    def pack(parts):
        return _tuple(to_new(np.concatenate(parts))[0])

    return ring, pack


def quotient_ring(R, ideal_rows, label=None):
    """R / I for an ideal given by generating coefficient vectors.

    Returns (ring, project, lift_rows); project is the canonical morphism and
    lift_rows[j] is an R-coefficient lift of the j-th basis vector.
    """
    n = R.rank
    rels = np.vstack([
        np.diag(R.np_orders),
        np.asarray(ideal_rows, dtype=np.int64).reshape(-1, n),
    ])
    ring, to_new, lift = build_ring(
        rels, n, R.L, R.npC, R.one, label=label or f"{R.label}/I"
    )
    project = RingMorphism(R, ring, to_new(np.eye(n, dtype=np.int64)))
    return ring, project, lift % R.np_orders


def _coordinates(ambient, aug, k, X):
    """Coordinates of the rows of X over the k generators behind `aug`.

    `aug` holds the rows of nonzero head of the Howell form of
    (scaled gens | I).  Returns (mask, coords): which rows lie in the span,
    and for those, generator coordinates that are unique modulo the
    relations among the gens.
    """
    n = ambient.rank
    V = scale_rows(X, ambient.np_orders, ambient.L)
    V = np.hstack([V, np.zeros((len(V), k), dtype=np.int64)])
    _, res = howell_contains(V, aug, ambient.L)
    return ~res[:, :n].any(axis=1), -res[:, n:]


class SubringPresentation:
    """A subset of an ambient ring re-presented as a ring of its own."""

    def __init__(self, ring, to_ambient, aug, k, to_new):
        self.ring = ring
        self.to_ambient = to_ambient
        self._aug = aug
        self._k = k
        self._to_new = to_new

    def from_ambient_rows(self, X):
        """Coordinates in `ring` of the ambient rows of an integer array."""
        ok, coords = _coordinates(self.to_ambient.target, self._aug,
                                  self._k, X)
        if not ok.all():
            raise ValueError("element does not lie in the subring")
        return self._to_new(coords)


def ring_from_generators(ambient, gens, one_vec, label=None, unital=None):
    """Present the additive span of gens as a ring of its own.

    The span must be closed under multiplication and contain one_vec, which
    acts as the identity on it (for a subring sharing the ambient unit this
    is the ambient 1; for a factor e*R it is the idempotent e).
    """
    n, L = ambient.rank, ambient.L
    G = np.asarray(gens, dtype=np.int64).reshape(-1, n) % ambient.np_orders
    k = len(G)
    aug = howell_form(
        np.hstack([scale_rows(G, ambient.np_orders, L),
                   np.eye(k, dtype=np.int64)]).tolist(),
        n + k, L,
    )
    # its rows of zero head are the relations among the gens (`kernel_mod`),
    # and the others give every member's coordinates over the gens
    rels = [row[n:] for row in aug if not any(row[:n])]
    aug = [row for row in aug if any(row[:n])]
    targets = np.vstack([[one_vec], ambient.mul_pairs(G, G).reshape(-1, n)])
    ok, coords = _coordinates(ambient, aug, k, targets)
    if not ok[0]:
        raise RingConstructionError("unit not in the span of the generators")
    if not ok.all():
        raise RingConstructionError("generators do not span a closed set")
    ring, to_new, lift = build_ring(
        rels, k, L, coords[1:].reshape(k, k, k), coords[0],
        label=label or f"{ambient.label}|sub",
    )
    if unital is None:
        one_vec = np.asarray(one_vec) % ambient.np_orders
        unital = _tuple(one_vec) == ambient.one
    amb_rows = (lift @ G) % ambient.np_orders
    to_ambient = RingMorphism(ring, ambient, amb_rows, unital=unital)
    return SubringPresentation(ring, to_ambient, aug, k, to_new)
