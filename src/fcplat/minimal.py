"""Classification of minimal (covering) extensions of finite rings.

For finite rings every minimal extension A < B is integral, the conductor
M = (A : B) is a maximal ideal of A, and exactly one of three shapes occurs:

  inert      -- M stays maximal in B and A/M -> B/M is a minimal field
                extension (prime degree, for finite fields);
  decomposed -- two maximal ideals of B meet A in M, M = N1 cap N2, and both
                residual maps are isomorphisms; equivalently B = A[q] with
                q^2 - q in M;
  ramified   -- a unique maximal ideal N sits over M with N^2 <= M < N,
                B/M is 2-dimensional over A/M and A/M -> B/N is an
                isomorphism; equivalently B = A[q] with q^2 in M.

All clauses are checked, not just a discriminating test, and for the
decomposed and ramified shapes the least witness q is recorded.
"""

from dataclasses import dataclass

import numpy as np

from .memo import memo
from .ring import exact_log, is_prime
from .structure import maximal_ideals
from .submodule import Submodule


@dataclass
class MinimalClassification:
    kind: str  # 'inert' | 'decomposed' | 'ramified'
    crucial_key: tuple  # canonical key of (A : B) inside the B-presentation
    residual_degree: int
    witness: tuple | None  # coefficients in the B-presentation, or None

    @property
    def short(self):
        return {"inert": "i", "decomposed": "d", "ramified": "r"}[self.kind]


class NotMinimalError(ValueError):
    pass


def classify_minimal(ext):
    """Classify a minimal extension given as an Extension A <= B.

    Raises NotMinimalError when the defining clauses of all three shapes
    fail (callers pass covering pairs of a lattice, which are minimal).
    """
    B = ext.top
    A = ext.bottom
    C = ext.conductor_ideal()
    if C.key not in {P.key for P in ext.bottom_maximal_ideals()}:
        raise NotMinimalError("conductor is not maximal in the bottom ring")
    q_res = A.size // C.size  # |A/M|
    over = [N for N in maximal_ideals(B) if C <= N]
    checks = []

    # inert: C itself is maximal in B, minimal residual field extension
    if any(N.key == C.key for N in over):
        deg = exact_log(B.size // C.size, q_res)
        if deg is not None and is_prime(deg):
            N = next(N for N in over if N.key == C.key)
            assert ext.residue_image(N, A).size == q_res
            checks.append(MinimalClassification("inert", C.key, deg, None))

    # decomposed: exactly two maximal ideals over M, M = N1 cap N2,
    # both residual maps isomorphisms
    if len(over) == 2:
        N1, N2 = over
        if N1.intersect(N2) == C:
            r1 = ext.residual_sizes(N1)
            r2 = ext.residual_sizes(N2)
            if r1[0] == r1[1] and r2[0] == r2[1]:
                w = _find_witness(ext, C, shifted=True)
                assert w is not None, "decomposed shape needs q with q^2 - q in M"
                checks.append(
                    MinimalClassification("decomposed", C.key, 1, w)
                )

    # ramified: unique N over M, N^2 <= M < N, dim 2 residue algebra,
    # isomorphic residual field
    if len(over) == 1 and over[0].key != C.key:
        N = over[0]
        NB = N.basis_array()
        N2 = Submodule.from_generators(B, B.mul_pairs(NB, NB))
        if N2 <= C:
            big = B.size // C.size
            rs = ext.residual_sizes(N)
            if big == q_res**2 and rs[0] == rs[1]:
                w = _find_witness(ext, C, shifted=False)
                assert w is not None, "ramified shape needs q with q^2 in M"
                checks.append(MinimalClassification("ramified", C.key, 2, w))

    if len(checks) != 1:
        raise NotMinimalError(
            f"extension matches {len(checks)} minimal shapes, expected exactly 1"
        )
    return checks[0]


def _find_witness(ext, C, shifted):
    """Least q in B \\ A with q^2 - q (shifted) or q^2 (not) in the conductor."""
    B = ext.top
    arr = B.elements_array()
    val = B.mul_rows(arr, arr)
    if shifted:
        val = (val - arr) % B.np_orders
    # elements_array is in lexicographic order, so the first hit is least
    hits = np.flatnonzero(
        ~ext.bottom.contains_many(arr) & C.contains_many(val)
    )
    return tuple(arr[hits[0]].tolist()) if len(hits) else None


def classify_cover(lattice, i, j):
    """Classify the covering pair nodes[i] < nodes[j] of a lattice."""
    ext, _ = lattice.sub_extension(lattice.nodes[i], lattice.nodes[j])
    return classify_minimal(ext)


@memo
def edge_labels(lattice):
    """Classification of every Hasse edge, keyed by the edge pair."""
    return {(i, j): classify_cover(lattice, i, j)
            for i, j in lattice.hasse_edges()}
