"""Exact linear algebra over Z/L and mixed-modulus abelian groups.

Everything in this package represents the additive group of a finite ring as
Z/d1 x ... x Z/dn with d(i+1) | d(i).  Submodules are canonicalized by the
Howell normal form of their generator matrix after rescaling every coordinate
into Z/L, L = d1.  The Howell form is the right canonical form here: unlike
a mere echelon form it makes membership testing and equality of row spans
exact over Z/L.

`howell_form` builds it by inserting rows one at a time into a Howell basis,
which may be passed in: a caller that already holds the Howell form of a
span (a subring T, when it adjoins x) extends it by the new rows alone
instead of eliminating the whole generator matrix again.

Membership and coordinates both come from one vectorized reduction,
`howell_contains`, which reduces a whole batch of rows against a Howell
basis at once.  A caller that reduces against one span many times keeps its
`HowellBasis`, the basis made ready for that reduction once.

Both kernels have a fast path for the spans the workloads mostly meet, and
each gives exactly what the general routine gives:

- At L = 2 `howell_form` inserts rows packed into Python ints, column 0 the
  top bit: reducing a row at a pivot is one XOR, and clearing the entries
  above the pivots one XOR per set bit.  Over a field the Howell form is the
  reduced row echelon form, which is unique, so the unpacked rows are the
  general routine's, tuple for tuple.
- When every pivot of the basis is 1 (always for prime L, sometimes for
  composite L) the entries above each pivot are reduced modulo 1, so every
  basis row is zero at every other row's pivot column.  Subtracting one row
  then leaves the entries at the other pivot columns as they were, so the
  sequential reduction's coefficients are the entries of the original V
  there, and the whole reduction is one matmul, V - V[:, pivot_cols] @ H.
  The matmul sums len(H) products below L^2 in int64, so it is taken only
  when len(H) * (L - 1)^2 < 2^63.

The general insertion and the sequential reduction remain for every other
basis, and are the reference the fast paths are tested against.
"""

from math import gcd

import numpy as np

# int64 arithmetic is exact only below this bound
INT64_BOUND = 2**63


def egcd(a, b):
    """Return (g, s, t) with g = gcd(a, b) = s*a + t*b."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    return old_r, old_s, old_t


def unit_for(a, L):
    """A unit c of Z/L with c*a = gcd(a, L) mod L.

    Every element of Z/L is associate to the divisor gcd(a, L) of L; this
    returns the normalizing unit.
    """
    a %= L
    if a == 0:
        return 1
    g = gcd(a, L)
    m = L // g
    c = pow(a // g, -1, m) if m > 1 else 1
    while gcd(c, L) != 1:
        c += m
    return c % L


def scale_rows(arr, orders, L):
    """Embed rows of prod Z/d_i into (Z/L)^n, coordinate i scaled by L/d_i.

    Takes an integer array or a sequence of coefficient tuples and returns
    an int64 array.
    """
    factors = L // np.asarray(orders, dtype=np.int64)
    arr = np.asarray(arr, dtype=np.int64).reshape(-1, len(factors))
    return (arr * factors) % L


def unscale_rows(arr, orders, L):
    """Inverse of scale_rows on rows of the scaled image subgroup."""
    factors = L // np.asarray(orders, dtype=np.int64)
    return np.asarray(arr, dtype=np.int64).reshape(-1, len(factors)) // factors


def howell_form(rows, n, L, hrows=()):
    """Howell normal form of span(hrows) + span(rows) inside (Z/L)^n.

    `hrows` must already be a Howell form (of its own span); its rows seed
    the basis as they are, and only `rows` are inserted.  Returns a tuple of
    row tuples with strictly increasing pivot columns, each pivot a divisor
    of L, entries above a pivot reduced modulo it.  Spans are equal iff
    Howell forms are equal.

    A row r is inserted by reducing it at its leading column against the
    pivot row P there until it vanishes or reaches a free column, where it
    becomes a pivot row, normalized so that its pivot divides L.  A pivot p
    that does not divide the entry a (only when L is composite) gives way
    to the egcd combination P' = s*P + t*r with pivot g = gcd(p, a), and
    the unimodular partner r' = (a/g)*P - (p/g)*r, zero in that column,
    goes on being inserted.  Each new pivot row queues its annihilator
    multiple (L/p)*r, which is zero at its pivot; once the queue is empty
    every such multiple lies in the span of the pivot rows to its right,
    which is the Howell property.  P' needs no multiple of its own, since
    (L/g)*P' = (L/p)*P - (L/p)*t*r' lies there already.

    At L = 2 the same insertion runs on packed rows (`_howell_form_f2`).
    """
    if L == 1:
        return ()
    if L == 2:
        return _howell_form_f2(rows, n, hrows)
    return _howell_form_general(rows, n, L, hrows)


def _howell_form_general(rows, n, L, hrows):
    """`howell_form` by insertion of row lists, for any L > 1."""
    piv = [None] * n
    for h in hrows:
        piv[next(j for j, x in enumerate(h) if x)] = h
    queue = [[x % L for x in r] for r in rows]
    while queue:
        r = queue.pop()
        j = 0
        while True:
            while j < n and not r[j]:
                j += 1
            if j == n:
                break
            P = piv[j]
            a = r[j]
            if P is None:
                c = unit_for(a, L)
                if c != 1:
                    r = [(c * x) % L for x in r]
                piv[j] = r
                if r[j] != 1:
                    ann = L // r[j]
                    queue.append([(ann * x) % L for x in r])
                break
            p = P[j]
            if a % p:
                g, s, t = egcd(p, a)
                piv[j] = [(s * y + t * x) % L for x, y in zip(r, P)]
                r = [((a // g) * y - (p // g) * x) % L for x, y in zip(r, P)]
            else:
                q = a // p
                r = [(x - q * y) % L for x, y in zip(r, P)]
            j += 1
    # reduce entries above each pivot modulo the pivot
    cols = [j for j in range(n) if piv[j] is not None]
    result = [piv[j] for j in cols]
    for i, j in enumerate(cols):
        ri = result[i]
        p = ri[j]
        for k in range(i):
            rk = result[k]
            q = rk[j] // p
            if q:
                result[k] = [(x - q * y) % L for x, y in zip(rk, ri)]
    return tuple(map(tuple, result))


def _pack_f2(r):
    """A row of (Z/2)^n as an int, column 0 the top bit."""
    v = 0
    for x in r:
        v = (v << 1) | (x & 1)
    return v


# _BITS[m][v]: the m-bit number v as a tuple of its bits, top bit first
_BITS = [
    tuple(tuple((v >> i) & 1 for i in reversed(range(m)))
          for v in range(1 << m))
    for m in range(9)
]


def _unpack_f2(v, n):
    """Inverse of `_pack_f2`: n bits, a byte at a time."""
    head = n % 8
    out = _BITS[head][v >> (n - head)]
    for shift in range(n - head - 8, -1, -8):
        out += _BITS[8][(v >> shift) & 255]
    return out


def _howell_form_f2(rows, n, hrows):
    """`howell_form` at L = 2 on rows packed into ints.

    piv[j] is the pivot row at column j, 0 for none; a packed row's pivot
    column is n - bit_length.  Each row is reduced by one XOR per pivot row
    it meets until it vanishes or leads at a free column.  Then each pivot
    row, by increasing column, clears its bit from the rows above it.
    """
    piv = [0] * n
    for h in hrows:
        v = _pack_f2(h)
        piv[n - v.bit_length()] = v
    for r in rows:
        v = _pack_f2(r)
        while v:
            j = n - v.bit_length()
            P = piv[j]
            if not P:
                piv[j] = v
                break
            v ^= P
    result = []
    for j, ri in enumerate(piv):
        if ri:
            bit = 1 << (n - 1 - j)
            for k, rk in enumerate(result):
                if rk & bit:
                    result[k] = rk ^ ri
            result.append(ri)
    return tuple(_unpack_f2(v, n) for v in result)


class HowellBasis:
    """A Howell basis made ready for `howell_contains`, once per span.

    When every pivot is 1 and len(hrows) * (L - 1)^2 < 2^63 the reduction
    is one matmul (see the module docstring) by `one_shot`, the int64
    matrix P with V @ P = V - V[:, pivot_cols] @ H: the identity less row i
    of H in row pivot_col[i].  Otherwise `one_shot` is None, and the
    reduction goes row by row through `steps()`.
    """

    # spans keep theirs for life, and a lattice holds thousands of spans
    __slots__ = ("hrows", "one_shot", "_steps")

    def __init__(self, hrows, L):
        self.hrows = hrows
        self.one_shot = self._steps = None
        if not hrows or len(hrows) * (L - 1) ** 2 >= INT64_BOUND:
            return
        n = len(hrows[0])
        P = [None] * n
        for h in hrows:
            j = next(j for j, x in enumerate(h) if x)
            if h[j] != 1:
                return
            P[j] = [-x for x in h]
            P[j][j] = 0
        for j, row in enumerate(P):
            if row is None:
                P[j] = [0] * n
                P[j][j] = 1
        self.one_shot = np.array(P, dtype=np.int64)

    def steps(self):
        """(row, pivot column, pivot) of each basis row, row an int64 array."""
        if self._steps is None:
            H = np.array(self.hrows, dtype=np.int64)
            cols = (H != 0).argmax(axis=1).tolist()
            self._steps = [(row, j, int(row[j])) for row, j in zip(H, cols)]
        return self._steps


def _reduce_one_shot(V, basis, L):
    """V reduced against a basis whose pivots are all 1, in one matmul.

    Each entry of V @ P is an entry of V, below L, less len(H) products
    below L^2, so every partial sum lies between -len(H) * (L - 1)^2 and L,
    inside int64 by the guard on len(H).
    """
    return V @ basis.one_shot % L


def _reduce_sequential(V, basis, L):
    """V reduced against the basis one row at a time."""
    # a pivot divides L, and a row whose entry it does not divide stays
    # nonzero in that column, since every later basis row is zero there
    for row, j, p in basis.steps():
        V = (V - (V[:, j] // p)[:, None] * row) % L
    return V


def howell_contains(V, hrows, L):
    """Reduce a batch of rows against a Howell basis, all rows at once.

    V is an integer array of rows in (Z/L)^N and hrows a Howell basis there,
    as row tuples or as a `HowellBasis`.  Returns (mask, residual): each row
    minus the multiples of the basis rows that its pivot entries allow, and
    whether that residual is zero, which by the Howell property is exactly
    membership in the span.  For a member the subtracted multiples express
    it over hrows, so reducing (v, 0) against the Howell form of (A | I)
    leaves minus the coordinates of v over the rows of A in the tail.
    """
    V = np.asarray(V, dtype=np.int64) % L
    basis = hrows if isinstance(hrows, HowellBasis) else HowellBasis(hrows, L)
    if basis.one_shot is not None:
        V = _reduce_one_shot(V, basis, L)
    elif basis.hrows:
        V = _reduce_sequential(V, basis, L)
    return ~V.any(axis=1), V


def span_size(hrows, L):
    """Cardinality of the span of a Howell basis: product of L/pivot."""
    size = 1
    for row in hrows:
        p = next(x for x in row if x)
        size *= L // p
    return size


def kernel_mod(rows, n, L):
    """Left kernel {a in Z^k : sum a_g rows[g] = 0 in (Z/L)^n} modulo L.

    Returns Howell-form generators of the kernel as a subgroup of (Z/L)^k;
    together with L*Z^k they generate the full integer kernel lattice.
    By the Howell property, the Howell rows of (r_g, e_g) with zero first
    part already are (0, the Howell form of the kernel).
    """
    k = len(rows)
    aug = []
    for g, r in enumerate(rows):
        aug.append(tuple(x % L for x in r) + tuple(1 if i == g else 0 for i in range(k)))
    h = howell_form(aug, n + k, L)
    return tuple(row[n:] for row in h if not any(row[:n]))


def smith_presentation(rel_rows, k, L):
    """Invariant-factor presentation of Z^k / Lambda, Lambda = <rel_rows> + L*Z^k.

    Returns (orders, V, Vinv_rows):
      orders    -- invariant factors > 1, decreasing divisibility chain
                   (orders[i+1] divides orders[i]),
      V         -- k x m nested lists over Z: new coords of x are (x @ V) mod orders,
      Vinv_rows -- m row tuples: integer lift of each new basis vector in old coords.

    All arithmetic is done modulo L, legitimate because the relation lattice
    contains L*Z^k by construction.  Vectorized with numpy so that large
    presentations (tensor squares) stay cheap.
    """
    M = np.array(rel_rows, dtype=np.int64).reshape(-1, k) % L
    M = M[M.any(axis=1)]
    nr = M.shape[0]
    V = np.eye(k, dtype=np.int64)
    Vinv = np.eye(k, dtype=np.int64)

    def combine_cols(j1, j2, a11, a12, a21, a22, i11, i12, i21, i22):
        """cols (j1,j2) <- (a11*c1 + a21*c2, a12*c1 + a22*c2); i.. is the inverse."""
        for A in (M, V):
            x = A[:, j1].copy()
            y = A[:, j2].copy()
            A[:, j1] = (a11 * x + a21 * y) % L
            A[:, j2] = (a12 * x + a22 * y) % L
        w1 = Vinv[j1].copy()
        w2 = Vinv[j2].copy()
        Vinv[j1] = (i11 * w1 + i12 * w2) % L
        Vinv[j2] = (i21 * w1 + i22 * w2) % L

    def col_scale(j, c):
        cinv = pow(c, -1, L)
        M[:, j] = (M[:, j] * c) % L
        V[:, j] = (V[:, j] * c) % L
        Vinv[j] = (Vinv[j] * cinv) % L

    diag = []
    for t in range(k):
        if t >= nr:
            diag.append(L)
            continue
        while True:
            sub = M[t:, t:]
            G = np.gcd(sub, L)
            G = np.where(sub == 0, L + 1, G)
            flat = int(np.argmin(G))
            bi, bj = divmod(flat, k - t)
            if G[bi, bj] == L + 1:
                diag.append(L)
                break
            bi += t
            bj += t
            if bi != t:
                M[[t, bi]] = M[[bi, t]]
            if bj != t:
                combine_cols(t, bj, 0, 1, 1, 0, 0, 1, 1, 0)
            a = int(M[t, t])
            if a != gcd(a, L):
                col_scale(t, unit_for(a, L))
            p = int(M[t, t])  # a divisor of L
            # clear column t below the pivot with row operations
            col = M[t + 1 :, t]
            if np.all(col % p == 0):
                q = col // p
                M[t + 1 :] = (M[t + 1 :] - q[:, None] * M[t]) % L
            else:
                i = t + 1 + int(np.argmax(col % p != 0))
                b = int(M[i, t])
                g, s, u = egcd(p, b)
                rt = (s * M[t] + u * M[i]) % L
                ri = ((b // g) * M[t] - (p // g) * M[i]) % L
                M[t], M[i] = rt, ri
                continue  # pivot gcd strictly decreased; re-search
            # clear row t right of the pivot; p | L, so p | b allows exact
            # column operations that leave column t untouched
            rowvals = M[t, t + 1 :].copy()
            if np.all(rowvals % p == 0):
                q = rowvals // p
                if np.any(q):
                    M[:, t + 1 :] = (M[:, t + 1 :] - np.outer(M[:, t], q)) % L
                    V[:, t + 1 :] = (V[:, t + 1 :] - np.outer(V[:, t], q)) % L
                    Vinv[t] = (Vinv[t] + q @ Vinv[t + 1 :]) % L
            else:
                j = t + 1 + int(np.argmax(rowvals % p != 0))
                b = int(M[t, j])
                g, s, u = egcd(p, b)
                combine_cols(t, j, s, -(b // g), u, p // g, p // g, b // g, -u, s)
                continue  # pivot gcd strictly decreased; re-search
            # enforce p | every remaining entry
            rem = M[t + 1 :, t + 1 :] % p
            if np.any(rem):
                bad = t + 1 + int(np.argmax(np.any(rem != 0, axis=0)))
                # col t += col bad, then redo this diagonal position
                M[:, t] = (M[:, t] + M[:, bad]) % L
                V[:, t] = (V[:, t] + V[:, bad]) % L
                Vinv[bad] = (Vinv[bad] - Vinv[t]) % L
                continue
            diag.append(p)
            break

    kept = [(d, j) for j, d in enumerate(diag) if d != 1]
    # SNF order is d_t | d_{t+1}; reverse for a decreasing divisibility chain
    kept.sort(key=lambda dj: -dj[1])
    orders = tuple(d for d, _ in kept)
    cols = [j for _, j in kept]
    Vmat = [[int(V[i, j]) for j in cols] for i in range(k)]
    Vinv_rows = [tuple(int(x) for x in Vinv[j]) for j in cols]
    return orders, Vmat, Vinv_rows
