"""JSON ring-spec files: build an extension from a declarative document.

A spec document is a JSON object::

    {
      "constructions": [
        {"name": "K", "op": "prime_field", "args": {"p": 2}},
        {"name": "F", "op": "galois_field", "args": {"q": 4}},
        {"name": "T", "op": "monogenic",
         "args": {"base": "K", "degree": 4, "reduction": [0, 0, 0, 0]}},
        {"name": "S", "op": "product", "args": {"factors": ["T", "F"]}},
        {"name": "Q", "op": "quotient_ideal",
         "args": {"base": "S", "generators": [[0, 1, 0, ...]]}},
        {"name": "B", "op": "subring",
         "args": {"base": "S", "generators": [[1, 0, ...]]}}
      ],
      "extension": {"top": "S", "bottom": "B"}
    }

Ring elements are coefficient vectors in the canonical basis of the named
ring (plain integers are accepted for rank-one rings).  Polynomial
reductions list the coefficients of X^degree as an element of the base ring
per slot, lowest degree first.  The extension bottom is either the name of
a ``subring`` construction based on the top, or an inline object
``{"generated_by": [elements]}`` (an empty list gives the prime subring).
"""

import json
import math
from dataclasses import dataclass

from .ring import (
    RingConstructionError,
    galois_field,
    monogenic_quotient,
    prime_field,
    product_ring,
    quotient_ring,
)
from .spectrum import Extension
from .submodule import Subalgebra, subring_generated

OPS = (
    "prime_field", "galois_field", "product", "monogenic",
    "quotient_ideal", "subring",
)


class SpecError(ValueError):
    """Malformed or unsatisfiable ring-spec document."""


@dataclass
class RingSpec:
    constructions: list
    extension: dict


def _as_vector(value, ring, what):
    if isinstance(value, int):
        if ring.rank != 1:
            raise SpecError(
                f"{what}: integer shorthand needs a rank-one ring"
            )
        value = [value]
    if not isinstance(value, list) or not all(
        isinstance(x, int) for x in value
    ):
        raise SpecError(f"{what}: expected a coefficient vector")
    if len(value) != ring.rank:
        raise SpecError(
            f"{what}: expected {ring.rank} coefficients, got {len(value)}"
        )
    return tuple(x % d for x, d in zip(value, ring.orders))


def _resolve(rings, name, what):
    if not isinstance(name, str) or name not in rings:
        raise SpecError(f"{what}: unresolved name {name!r}")
    return rings[name]


def _check_size(name, op, args, rings, max_size):
    """Refuse a construction whose size, read from its arguments, exceeds
    the cap, before it is built: large fields are slow to build.

    Malformed arguments are left for the build to report; quotients and
    subrings are no larger than their base, which has passed already.
    """
    def ring(ref):
        return rings.get(ref) if isinstance(ref, str) else None

    size = None
    if op in ("prime_field", "galois_field"):
        size = args.get("p" if op == "prime_field" else "q")
    elif op == "monogenic":
        base, degree = ring(args.get("base")), args.get("degree")
        if base is not None and isinstance(degree, int) and degree >= 1:
            if degree > max_size.bit_length():  # |base| >= 2
                raise SpecError(
                    f"{name}: size {base.size}^{degree} exceeds cap {max_size}"
                )
            size = base.size**degree
    elif op == "product":
        factors = args.get("factors")
        if isinstance(factors, list) and all(map(ring, factors)):
            size = math.prod(ring(f).size for f in factors)
    if isinstance(size, int) and size > max_size:
        raise SpecError(f"{name}: size {size} exceeds cap {max_size}")


def parse_spec(text, max_size=None):
    """Parse a spec document and build its extension.

    Returns (RingSpec, Extension).  Raises SpecError for malformed input
    or violated size caps.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise SpecError("document must be a JSON object")
    cons = doc.get("constructions")
    if not isinstance(cons, list) or not cons:
        raise SpecError("constructions must be a non-empty list")
    ext_spec = doc.get("extension")
    if not isinstance(ext_spec, dict):
        raise SpecError("extension must be an object")

    rings = {}
    subring_gens = {}
    for entry in cons:
        if not isinstance(entry, dict):
            raise SpecError("each construction must be an object")
        name = entry.get("name")
        op = entry.get("op")
        args = entry.get("args", {})
        if not isinstance(name, str) or not name:
            raise SpecError("construction without a name")
        if name in rings:
            raise SpecError(f"duplicate construction name {name!r}")
        if op not in OPS:
            raise SpecError(f"unknown op {op!r}")
        if not isinstance(args, dict):
            raise SpecError(f"{name}: args must be an object")
        if max_size is not None:
            _check_size(name, op, args, rings, max_size)
        try:
            rings[name] = _build(op, args, rings, subring_gens, name)
        except RingConstructionError as exc:
            raise SpecError(f"{name}: {exc}") from exc

    top = _resolve(rings, ext_spec.get("top"), "extension.top")
    bottom_spec = ext_spec.get("bottom")
    if isinstance(bottom_spec, dict):
        gens = bottom_spec.get("generated_by")
        if not isinstance(gens, list):
            raise SpecError("extension.bottom: expected generated_by list")
        vecs = [
            _as_vector(g, top, "extension.bottom generator") for g in gens
        ]
        bottom = subring_generated(top, vecs)
    elif isinstance(bottom_spec, str):
        if bottom_spec not in subring_gens:
            raise SpecError(
                "extension.bottom must name a subring construction "
                f"based on the top (got {bottom_spec!r})"
            )
        base_name, vecs = subring_gens[bottom_spec]
        if rings[base_name] is not top:
            raise SpecError(
                "extension.bottom subring must be based on the top ring"
            )
        bottom = Subalgebra.from_generators(
            top, list(vecs) + [top.one]
        )
    else:
        raise SpecError("extension.bottom must be a name or generated_by")
    try:
        ext = Extension(top, bottom)
    except ValueError as exc:
        raise SpecError(str(exc)) from exc
    return RingSpec(cons, ext_spec), ext


def _build(op, args, rings, subring_gens, name):
    if op == "prime_field":
        p = args.get("p")
        if not isinstance(p, int) or p < 2:
            raise SpecError(f"{name}: prime_field needs an integer p >= 2")
        try:
            return prime_field(p)
        except Exception as exc:
            raise SpecError(f"{name}: {exc}") from exc
    if op == "galois_field":
        q = args.get("q")
        if not isinstance(q, int) or q < 2:
            raise SpecError(f"{name}: galois_field needs an integer q >= 2")
        try:
            return galois_field(q)
        except Exception as exc:
            raise SpecError(f"{name}: {exc}") from exc
    if op == "product":
        factors = args.get("factors")
        if not isinstance(factors, list) or len(factors) < 1:
            raise SpecError(f"{name}: product needs a list of factors")
        rs = [_resolve(rings, f, f"{name}.factors") for f in factors]
        ring, _ = product_ring(rs, label=name)
        return ring
    if op == "monogenic":
        base = _resolve(rings, args.get("base"), f"{name}.base")
        degree = args.get("degree")
        red = args.get("reduction")
        if not isinstance(degree, int) or degree < 1:
            raise SpecError(f"{name}: monogenic needs a positive degree")
        if not isinstance(red, list) or len(red) != degree:
            raise SpecError(
                f"{name}: reduction must list exactly {degree} coefficients"
            )
        vecs = [
            _as_vector(c, base, f"{name}.reduction[{i}]")
            for i, c in enumerate(red)
        ]
        ring, _, _ = monogenic_quotient(base, degree, vecs, label=name)
        return ring
    if op == "quotient_ideal":
        base = _resolve(rings, args.get("base"), f"{name}.base")
        gens = args.get("generators")
        if not isinstance(gens, list):
            raise SpecError(f"{name}: quotient_ideal needs generators")
        vecs = [
            _as_vector(g, base, f"{name}.generators[{i}]")
            for i, g in enumerate(gens)
        ]
        ring, _, _ = quotient_ring(base, vecs, label=name)
        return ring
    assert op == "subring"
    base_name = args.get("base")
    base = _resolve(rings, base_name, f"{name}.base")
    gens = args.get("generators")
    if not isinstance(gens, list):
        raise SpecError(f"{name}: subring needs generators")
    vecs = [
        _as_vector(g, base, f"{name}.generators[{i}]")
        for i, g in enumerate(gens)
    ]
    subring_gens[name] = (base_name, vecs)
    sub = Subalgebra.from_generators(base, vecs + [base.one])
    pres = sub.as_ring()
    return pres.ring
