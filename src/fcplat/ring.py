"""Finite commutative unital rings with exact structure-constant arithmetic.

A ring is stored as its additive group Z/d1 x ... x Z/dn (a decreasing
divisibility chain of invariant factors) together with the multiplication
table of the additive basis.  Every construction in this module funnels
through `build_ring`, which takes generators-and-relations data and produces
the invariant-factor presentation, so basis choices are deterministic.

A ring element is its coefficient tuple over that basis, reduced modulo the
orders, and a batch of elements is an int64 array of such rows (`mul_rows`,
`mul_pairs`).  A set of elements is a Howell span (`submodule.Submodule`).
"""

import itertools
from math import gcd, lcm

import numpy as np

from .linalg import (
    howell_form,
    kernel_mod,
    scale_vector,
    smith_presentation,
    span_size,
)

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
        self._table = None
        self.one = tuple(int(c) % d for c, d in zip(one, self.orders))
        self.L = self.orders[0]
        size = 1
        for d in self.orders:
            size *= d
        self.size = size
        self._cache = {}
        if check:
            self._validate()

    # -- representation ------------------------------------------------

    def __repr__(self):
        return f"FiniteRing({self.label}, orders={self.orders}, size={self.size})"

    @property
    def table(self):
        """The structure constants npC as nested tuples of ints."""
        if self._table is None:
            self._table = tuple(
                tuple(tuple(cell) for cell in row) for row in self.npC.tolist()
            )
        return self._table

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

    # -- raw arithmetic on coefficient tuples --------------------------

    def reduce(self, vec):
        return tuple(int(v) % d for v, d in zip(vec, self.orders))

    def _add(self, a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, self.orders))

    def _sub(self, a, b):
        return tuple((x - y) % d for x, y, d in zip(a, b, self.orders))

    def _neg(self, a):
        return tuple((-x) % d for x, d in zip(a, self.orders))

    def _smul(self, c, a):
        return tuple((c * x) % d for x, d in zip(a, self.orders))

    def _mul(self, a, b):
        n = self.rank
        acc = [0] * n
        table = self.table
        for i in range(n):
            ai = a[i]
            if ai:
                row = table[i]
                for j in range(n):
                    bj = b[j]
                    if bj:
                        c = ai * bj
                        cell = row[j]
                        for k in range(n):
                            acc[k] += c * cell[k]
        return tuple(x % d for x, d in zip(acc, self.orders))

    def _pow(self, a, e):
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self._mul(result, base)
            base = self._mul(base, base)
            e >>= 1
        return result

    # -- batched arithmetic on integer arrays ----------------------------
    #
    # One kernel serves every batched product.  The multiplication matrices
    # of one factor are formed by one matmul against the structure
    # constants and reduced mod L, which every order divides, and a second
    # matmul applies them to the other factor.  Entries of the inputs lie
    # in [0, L), so no intermediate exceeds rank * L^2.

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
        X = np.asarray(X, dtype=np.int64)
        n = self.rank
        out = (X @ mats).reshape(len(X), mats.shape[1] // n, n)
        return out % self.np_orders

    def mul_rows(self, X, Y):
        """The row-wise products X[a] * Y[a], as an array."""
        n = self.rank
        X = np.asarray(X, dtype=np.int64)
        Y = np.asarray(Y, dtype=np.int64)
        M = ((X @ self.npC.reshape(n, n * n)) % self.L).reshape(-1, n, n)
        return (Y[:, None, :] @ M)[:, 0] % self.np_orders

    def mul_many(self, X, b):
        """Products x*b for every row x of the integer array X, as an array."""
        return self.mul_pairs(X, b)[:, 0]

    def zero_vec(self):
        return tuple([0] * self.rank)

    @property
    def basis_vectors(self):
        """The additive basis e_0, ..., e_{n-1} as coefficient tuples."""
        if "basis_vectors" not in self._cache:
            n = self.rank
            self._cache["basis_vectors"] = tuple(
                tuple(int(i == j) for i in range(n)) for j in range(n)
            )
        return self._cache["basis_vectors"]

    def elements(self):
        """All coefficient tuples, in lexicographic order."""
        return itertools.product(*[range(d) for d in self.orders])

    def elements_array(self):
        key = "elements_array"
        if key not in self._cache:
            arr = np.array(list(self.elements()), dtype=np.int64).reshape(
                self.size, self.rank
            )
            self._cache[key] = arr
        return self._cache[key]


class RingMorphism:
    """A map of rings given by images of the additive basis of the source.

    `unital` may be False for the non-unital embeddings that arise when a
    local factor e*R is viewed inside R.
    """

    def __init__(self, source, target, rows, unital=True, check=True):
        self.source = source
        self.target = target
        self.rows = tuple(target.reduce(r) for r in rows)
        self.unital = unital
        if check:
            self._validate()

    def _validate(self):
        src, tgt = self.source, self.target
        for i, row in enumerate(self.rows):
            if any((src.orders[i] * c) % d for c, d in zip(row, tgt.orders)):
                raise RingConstructionError("morphism not additively well defined")
        for i in range(src.rank):
            for j in range(i, src.rank):
                lhs = tgt._mul(self.rows[i], self.rows[j])
                if lhs != self.apply(src.table[i][j]):
                    raise RingConstructionError("morphism not multiplicative")
        if self.unital and self.apply(src.one) != tgt.one:
            raise RingConstructionError("morphism does not preserve the unit")

    def apply(self, vec):
        tgt = self.target
        out = tgt.zero_vec()
        for c, row in zip(vec, self.rows):
            if c:
                out = tgt._add(out, tgt._smul(c, row))
        return out

    def _image_size(self):
        """Order of the image: the Howell span of the basis images."""
        tgt = self.target
        rows = [scale_vector(r, tgt.orders, tgt.L) for r in self.rows]
        return span_size(howell_form(rows, tgt.rank, tgt.L), tgt.L)

    def is_injective(self):
        return self._image_size() == self.source.size

    def is_surjective(self):
        return self._image_size() == self.target.size


def build_ring(rel_rows, k, L, P, one_vec, label="R", check=True):
    """Construct a ring from k generators, relations and generator products.

    P is a k x k x k integer array: P[i][j] are the coordinates of g_i*g_j in
    the generators.  Returns (ring, to_new, lift_rows) where to_new maps
    generator coordinate vectors to basis coordinates of the new ring and
    lift_rows[j] gives generator coordinates of the j-th new basis vector.
    """
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

    def to_new(x):
        return tuple(
            int(sum(int(xi) * V[i][j] for i, xi in enumerate(x)) % orders[j])
            for j in range(m)
        )

    ring = FiniteRing(orders, table, to_new(one_vec), label=label, check=check)
    return ring, to_new, [tuple(r) for r in Vinv]


# -- constructors ------------------------------------------------------


def prime_field(p):
    if p < 2 or any(p % q == 0 for q in range(2, int(p**0.5) + 1)):
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
    for p in range(2, q + 1):
        if q % p == 0:
            k = 0
            m = q
            while m % p == 0:
                m //= p
                k += 1
            if m != 1:
                raise ValueError("q must be a prime power")
            return p, k
    raise ValueError("q must be a prime power")


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

    def gen(s, i):
        return s * n + i

    L = R.L
    rels = []
    for s in range(m):
        for i in range(n):
            row = [0] * k
            row[gen(s, i)] = R.orders[i]
            rels.append(row)
    # powers of X up to 2m-2 as lists of R-coefficient tuples
    xpow = []
    for u in range(m):
        xpow.append([R.one if s == u else R.zero_vec() for s in range(m)])
    for u in range(m, 2 * m - 1):
        prev = xpow[u - 1]
        shifted = [R.zero_vec()] + prev[:-1]
        overflow = prev[m - 1]
        cur = []
        for s in range(m):
            term = shifted[s]
            if any(overflow):
                term = R._add(term, R._mul(overflow, red_vecs[s]))
            cur.append(term)
        xpow.append(cur)
    P = np.zeros((k, k, k), dtype=np.int64)
    for s in range(m):
        for i in range(n):
            for t in range(m):
                for j in range(n):
                    cvec = R.table[i][j]
                    acc = [0] * k
                    for sp in range(m):
                        q = xpow[s + t][sp]
                        if any(q):
                            w = R._mul(cvec, q)
                            for ip in range(n):
                                acc[gen(sp, ip)] = w[ip]
                    P[gen(s, i), gen(t, j)] = acc
    one_vec = [0] * k
    for i in range(n):
        one_vec[gen(0, i)] = R.one[i]
    ring, to_new, _ = build_ring(
        rels, k, L, P, one_vec, label=label or f"{R.label}[x]/deg{m}"
    )
    embed_rows = []
    for i in range(n):
        v = [0] * k
        v[gen(0, i)] = 1
        embed_rows.append(to_new(v))
    embed = RingMorphism(R, ring, embed_rows)
    if m == 1:  # X = red[0]
        x = to_new(red_vecs[0])
    else:  # X is 1 in the slot of X^1
        x = to_new([c for s in range(m) for c in (R.one if s == 1 else [0] * n)])
    return ring, embed, x


def product_ring(factors, label=None):
    """Direct product of finitely many rings.

    Returns (ring, pack) with pack mapping a tuple of factor coefficient
    tuples to coordinates of the product.
    """
    ks = [R.rank for R in factors]
    k = sum(ks)
    offs = [sum(ks[:i]) for i in range(len(factors))]
    L = lcm(*[R.L for R in factors])
    rels = []
    for R, off in zip(factors, offs):
        for i in range(R.rank):
            row = [0] * k
            row[off + i] = R.orders[i]
            rels.append(row)
    P = np.zeros((k, k, k), dtype=np.int64)
    for R, off in zip(factors, offs):
        for i in range(R.rank):
            for j in range(R.rank):
                for t, c in enumerate(R.table[i][j]):
                    P[off + i, off + j, off + t] = c
    one_vec = [0] * k
    for R, off in zip(factors, offs):
        for i, c in enumerate(R.one):
            one_vec[off + i] = c
    ring, to_new, _ = build_ring(
        rels, k, L, P, one_vec,
        label=label or " x ".join(R.label for R in factors),
    )

    def pack(parts):
        return to_new([c for part in parts for c in part])

    return ring, pack


def quotient_ring(R, ideal_rows, label=None):
    """R / I for an ideal given by generating coefficient vectors.

    Returns (ring, project, lift_rows); project is the canonical morphism and
    lift_rows[j] is an R-coefficient lift of the j-th basis vector.
    """
    n = R.rank
    rels = []
    for i in range(n):
        row = [0] * n
        row[i] = R.orders[i]
        rels.append(row)
    for r in ideal_rows:
        rels.append(list(r))
    P = R.npC
    ring, to_new, lift = build_ring(
        rels, n, R.L, P, R.one, label=label or f"{R.label}/I"
    )
    project = RingMorphism(R, ring, [to_new(e) for e in R.basis_vectors])
    lift_rows = [R.reduce(r) for r in lift]
    return ring, project, lift_rows


class SubringPresentation:
    """A subset of an ambient ring re-presented as a ring of its own."""

    def __init__(self, ring, to_ambient, coords_of):
        self.ring = ring
        self.to_ambient = to_ambient
        self._coords_of = coords_of

    def from_ambient(self, vec):
        try:
            return self._coords_of[tuple(vec)]
        except KeyError:
            raise ValueError("element does not lie in the subring") from None


def ring_from_generators(ambient, gens, one_vec, label=None, unital=None):
    """Present the additive span of gens as a ring of its own.

    The span must be closed under multiplication and contain one_vec, which
    acts as the identity on it (for a subring sharing the ambient unit this
    is the ambient 1; for a factor e*R it is the idempotent e).
    """
    gens = [tuple(g) for g in gens]
    one_vec = tuple(one_vec)
    k = len(gens)
    L = ambient.L
    # breadth-first closure of the additive span, remembering coordinates
    zero = ambient.zero_vec()
    coords = {zero: tuple([0] * k)}
    frontier = [zero]
    while frontier:
        e = frontier.pop()
        ce = coords[e]
        for g_idx, g in enumerate(gens):
            w = ambient._add(e, g)
            if w not in coords:
                cw = list(ce)
                cw[g_idx] = (cw[g_idx] + 1) % L
                coords[w] = tuple(cw)
                frontier.append(w)
    if one_vec not in coords:
        raise RingConstructionError("unit not in the span of the generators")
    rels = kernel_mod(
        [scale_vector(g, ambient.orders, L) for g in gens], ambient.rank, L
    )
    P = np.zeros((k, k, k), dtype=np.int64)
    for i in range(k):
        for j in range(i, k):
            prod = ambient._mul(gens[i], gens[j])
            if prod not in coords:
                raise RingConstructionError("generators do not span a closed set")
            P[i, j] = coords[prod]
            P[j, i] = coords[prod]
    ring, to_new, lift = build_ring(
        rels, k, L, P, coords[one_vec], label=label or f"{ambient.label}|sub"
    )
    amb_rows = []
    for row in lift:
        v = ambient.zero_vec()
        for c, g in zip(row, gens):
            if c:
                v = ambient._add(v, ambient._smul(c, g))
        amb_rows.append(v)
    if unital is None:
        unital = one_vec == ambient.one
    to_ambient = RingMorphism(ring, ambient, amb_rows, unital=unital)
    coords_of = {e: to_new(c) for e, c in coords.items()}
    return SubringPresentation(ring, to_ambient, coords_of)
