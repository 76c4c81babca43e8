"""Structural analysis of a finite commutative ring.

Idempotents, the nilradical, maximal ideals and local factors.  A finite
commutative ring is a finite product of local rings; the primitive
idempotents cut out those factors, and the maximal ideal of each factor is
exactly its set of nilpotents, which keeps everything elementary.
"""

import math

import numpy as np

from .ring import ring_from_generators, quotient_ring
from .submodule import Ideal, Submodule, submodule_from_elements


def _nilpotent_mask(R, X):
    """Boolean mask of rows of X that are nilpotent in R."""
    X = np.asarray(X, dtype=np.int64)
    e = 1
    bound = R.size.bit_length()  # nilpotency index <= length <= log2(size)
    while e <= bound:
        X = R.mul_rows(X, X)
        e *= 2
    return ~X.any(axis=1)


def idempotents(R):
    """All idempotent coefficient tuples, sorted."""
    if "idempotents" not in R._cache:
        arr = R.elements_array()
        sq = R.mul_rows(arr, arr)
        mask = np.all(sq == arr, axis=1)
        R._cache["idempotents"] = [
            tuple(int(x) for x in row) for row in arr[mask]
        ]
    return R._cache["idempotents"]


def primitive_idempotents(R):
    """The primitive idempotents; one per local factor, sorted."""
    if "prim_idempotents" not in R._cache:
        idems = [e for e in idempotents(R) if any(e)]
        prim = []
        for e in idems:
            # e is primitive iff no idempotent sits properly below it:
            # e*f is an idempotent below e, so demand e*f in {0, e}
            if all(
                (p := R._mul(e, f)) == e or not any(p) for f in idems
            ):
                prim.append(e)
        R._cache["prim_idempotents"] = prim
    return R._cache["prim_idempotents"]


def nilradical(R):
    if "nilradical" not in R._cache:
        arr = R.elements_array()
        mask = _nilpotent_mask(R, arr)
        R._cache["nilradical"] = submodule_from_elements(
            R, [tuple(int(x) for x in row) for row in arr[mask]], cls=Ideal
        )
    return R._cache["nilradical"]


def max_ideal_idempotent_pairs(R):
    """Pairs (e, M_e) with e primitive idempotent and M_e = {x : x*e nilpotent},
    sorted by the canonical key of the ideal."""
    if "max_pairs" not in R._cache:
        arr = R.elements_array()
        out = []
        for e in primitive_idempotents(R):
            prods = R.mul_many(arr, e)
            mask = _nilpotent_mask(R, prods)
            M = submodule_from_elements(
                R, [tuple(int(x) for x in row) for row in arr[mask]], cls=Ideal
            )
            out.append((e, M))
        out.sort(key=lambda em: em[1].key)
        assert len(set(m.key for _, m in out)) == len(out)
        R._cache["max_pairs"] = out
    return R._cache["max_pairs"]


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


def residue_field(R, M):
    """R/M for a maximal ideal M.

    Returns (field, projection morphism, lift rows) where the lift rows give
    an R-coefficient preimage of each basis vector of the field.
    """
    field, project, lifts = quotient_ring(R, M.basis, label=f"{R.label}/M")
    assert is_field(field)
    return field, project, lifts


def local_factors(R):
    """The local factors e*R, one per primitive idempotent e.

    Returns a list of (e, presentation); the presentation's ring has unit e
    and its to_ambient morphism is the non-unital inclusion into R.
    """
    if "local_factors" not in R._cache:
        out = []
        for e in primitive_idempotents(R):
            gens = []
            for j in range(R.rank):
                ej = tuple(1 if i == j else 0 for i in range(R.rank))
                gens.append(R._mul(e, ej))
            pres = ring_from_generators(
                R, gens, R.element(e), label=f"{R.label}@{e}", unital=False
            )
            out.append((e, pres))
        R._cache["local_factors"] = out
    return R._cache["local_factors"]


def length_over_local(R, quotient_size):
    """Length of an R-module of the given size, R local with residue field k.

    Every simple module over a local ring is k, so the length is just the
    logarithm of the size in base |k|.
    """
    (M,) = maximal_ideals(R)
    k_size = R.size // M.size
    length = round(math.log(quotient_size) / math.log(k_size))
    assert k_size**length == quotient_size
    return length
