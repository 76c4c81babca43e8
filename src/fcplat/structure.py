"""Structural analysis of a finite commutative ring.

Idempotents, the nilradical J, maximal ideals and local factors.  A finite
commutative ring is a finite product of local rings; the primitive
idempotents e cut out those factors, and the maximal ideal of the factor at
e is its set of nilpotents, so M_e = {x : x*e nilpotent} is the colon
(J : e), one Howell form.  J and the idempotents are masks over the elements.
"""

import numpy as np

from .memo import memo
from .ring import quotient_ring, require
from .submodule import Ideal, Submodule, ideal_generated


def _nilpotent_mask(R, X):
    """Boolean mask of rows of X that are nilpotent in R."""
    X = np.asarray(X, dtype=np.int64)
    # the nilpotency index is at most the length, at most m = floor(log2
    # |R|), and s squarings reach x^(2^s): s = ceil(log2 m) is enough
    for _ in range((R.size.bit_length() - 2).bit_length()):
        X = R.mul_rows(X, X)
    return ~X.any(axis=1)


@memo
def idempotents(R):
    """All idempotent coefficient tuples, sorted."""
    arr = R.elements_array()
    mask = np.all(R.mul_rows(arr, arr) == arr, axis=1)
    return [tuple(int(x) for x in row) for row in arr[mask]]


@memo
def primitive_idempotents(R):
    """The primitive idempotents; one per local factor, sorted."""
    idems = [e for e in idempotents(R) if any(e)]
    E = np.array(idems, dtype=np.int64).reshape(-1, R.rank)
    # e is primitive iff no idempotent sits properly below it:
    # e*f is an idempotent below e, so demand e*f in {0, e}
    P = R.mul_pairs(E, E)
    ok = (P == E[:, None]).all(axis=2) | ~P.any(axis=2)
    return [e for e, row in zip(idems, ok) if row.all()]


@memo
def nilradical(R):
    arr = R.elements_array()
    return Ideal.from_generators(R, arr[_nilpotent_mask(R, arr)])


@memo
def max_ideal_idempotent_pairs(R):
    """Pairs (e, M_e), e primitive idempotent and M_e = {x : x*e nilpotent}
    = (J :_R e) for J the nilradical, sorted by the key of the ideal."""
    J = nilradical(R)
    out = [(e, Ideal(R, J.colon(Submodule.from_generators(R, [e])).hrows))
           for e in primitive_idempotents(R)]
    out.sort(key=lambda em: em[1].key)
    require(len(set(m.key for _, m in out)) == len(out),
            "distinct primitive idempotents give distinct maximal ideals")
    return out


def maximal_ideals(R):
    """All maximal ideals, sorted by canonical key.

    For a finite commutative ring these correspond to the primitive
    idempotents: M_e = {x : x*e is nilpotent}.
    """
    return [M for _, M in max_ideal_idempotent_pairs(R)]


def is_local(R):
    return len(maximal_ideals(R)) == 1


def is_field(R):
    ms = maximal_ideals(R)
    return len(ms) == 1 and ms[0].size == 1


@memo
def residue_field(R, M):
    """R/M for a maximal ideal M.

    Returns (field, projection morphism, lift rows) where the lift rows give
    an R-coefficient preimage of each basis vector of the field.  Each is
    built once per ring: residual extensions ask for the same ones often.
    """
    field, project, lifts = quotient_ring(R, M.basis, label=f"{R.label}/M")
    require(is_field(field), "R/M must be a field for M maximal")
    return field, project, lifts


@memo
def local_factors(R):
    """The local factors e*R, one per primitive idempotent e.

    Returns a list of (e, e*R), each factor an ideal of R: a ring whose unit
    is e, kept as a span in R's coordinates.
    """
    return [(e, ideal_generated(R, [e])) for e in primitive_idempotents(R)]
