"""Classification of minimal (covering) extensions of finite rings.

For finite rings every minimal extension T < U is integral, its crucial
ideal C = (T : U) is a maximal ideal of T (Ferrand & Olivier, J. Algebra
16, 1970), and exactly one of three shapes occurs:

  inert      -- C stays maximal in U and T/C -> U/C is a minimal field
                extension (prime degree, for finite fields);
  decomposed -- two maximal ideals Q1, Q2 of U meet T in C, C = Q1 cap Q2,
                and both residual maps are isomorphisms; equivalently
                U = T[q] with q^2 - q in C;
  ramified   -- a unique maximal ideal Q of U sits over C with Q^2 <= C < Q,
                U/C is 2-dimensional over T/C and T/C -> U/Q is an
                isomorphism; equivalently U = T[q] with q^2 in C.

T and U are subrings of the top S of an extension, and everything is read
in S's coordinates with no ring presented.  C is the one maximal ideal Q
of T with Q U <= T: then Q <= (T : U), a proper ideal, so Q = (T : U).  The
maximal ideals of T and U are the N cap T and N cap U for N maximal in S
(`Extension.max_ideal_pairs`), so those over C are the Q' of U with
Q' cap T = C.  All clauses of the shape found are checked, and a failed one
raises NotMinimalError.  For the decomposed and ramified shapes a witness
q is recorded: the idempotent of U at Q1, or the first basis row of Q
outside T.
"""

from dataclasses import dataclass

from .memo import memo
from .ring import PropertyViolation, exact_log, is_prime
from .submodule import Subalgebra


@dataclass
class MinimalClassification:
    kind: str  # 'inert' | 'decomposed' | 'ramified'
    crucial_key: tuple  # canonical key of (T : U), a span of S
    residual_degree: int
    witness: tuple | None  # an element of U \ T in S's coordinates, or None

    @property
    def short(self):
        return {"inert": "i", "decomposed": "d", "ramified": "r"}[self.kind]


class NotMinimalError(PropertyViolation):
    pass


def classify_minimal(ext, low=None, high=None):
    """Classify the minimal extension low < high of subrings of ext.top,
    low defaulting to the bottom and high to the whole top.

    Raises NotMinimalError when a defining clause of the shape fails
    (callers pass covering pairs of a lattice, which are minimal).
    """
    S = ext.top
    T = ext.bottom if low is None else low
    U = Subalgebra.whole(S) if high is None else high
    UB = U.basis_array()
    C = next((Q for _, Q in ext.max_ideal_pairs(T)
              if T.contains_many(S.mul_pairs(Q.basis_array(), UB)
                                 .reshape(-1, S.rank)).all()), None)
    if C is None:
        raise NotMinimalError("no maximal ideal Q of the bottom has Q U <= T")
    q = T.size // C.size  # |T/C|
    over = [(f, Q) for f, Q in ext.max_ideal_pairs(U) if Q.intersect(T) == C]

    if any(Q == C for _, Q in over):
        deg = exact_log(U.size // C.size, q)
        if deg is None or not is_prime(deg):
            raise NotMinimalError("inert step of no prime residual degree")
        return MinimalClassification("inert", C.key, deg, None)

    if len(over) == 2:
        (f1, Q1), (_, Q2) = over
        if Q1.intersect(Q2) != C or any(U.size // Q.size != q
                                         for _, Q in over):
            raise NotMinimalError("decomposed clauses fail")
        w = _witness(ext, T, U, C, f1, shifted=True)
        return MinimalClassification("decomposed", C.key, 1, w)

    if len(over) == 1:
        Q = over[0][1]
        QB = Q.basis_array()
        if not (C.contains_many(S.mul_pairs(QB, QB).reshape(-1, S.rank)).all()
                and U.size // C.size == q * q and U.size // Q.size == q):
            raise NotMinimalError("ramified clauses fail")
        # Q cap T = C < Q, so some basis row of Q lies outside T
        w = QB[~T.contains_many(QB)][0]
        return MinimalClassification(
            "ramified", C.key, 2, _witness(ext, T, U, C, w, shifted=False)
        )

    raise NotMinimalError(
        f"{len(over)} maximal ideals of the top lie over the crucial ideal"
    )


def _witness(ext, T, U, C, w, shifted):
    """w as a tuple, once checked to lie in U \\ T with w^2 - w (shifted)
    or w^2 (not) in C."""
    S = ext.top
    val = S.mul_rows(w, w)
    if shifted:
        val = (val - w) % S.np_orders
    if not (U.contains(w) and not T.contains(w) and C.contains_many(val)[0]):
        raise NotMinimalError("the witness fails its defining clause")
    return tuple(int(x) for x in w)


def classify_cover(lattice, i, j):
    """Classify the covering pair nodes[i] < nodes[j] of a lattice."""
    return classify_minimal(lattice.ext, lattice.nodes[i], lattice.nodes[j])


@memo
def edge_labels(lattice):
    """Classification of every Hasse edge, keyed by the edge pair."""
    return {(i, j): classify_cover(lattice, i, j)
            for i, j in lattice.hasse_edges()}
