"""Seeded corpus of finite ring extensions for the verification suites.

The generator draws tops as products of at most three factors, each a base
field of order in {2, 3, 4, 5, 8, 9} or a monogenic quotient of degree at
most 4 over such a field, and bottoms as the prime subring or a subring
generated by one or two random elements.  Candidates whose top exceeds the
size cap or whose lattice exceeds the node budget are rejected, so every
accepted entry is fully analyzable.  Everything is reproducible from the
seed alone.
"""

import random
from dataclasses import dataclass

from .lattice import ExtensionLattice, LatticeBudgetExceeded
from .ring import galois_field, monogenic_quotient, prime_field, product_ring
from .spectrum import Extension
from .submodule import subring_generated

BASE_FIELDS = (2, 3, 4, 5, 8, 9)
# F4, F2 x F2 and F2[y]/(y^2) over F2 are the smallest proper extensions
MIN_TOP_SIZE = 4


@dataclass
class CorpusConfig:
    seed: int = 0
    count: int = 300
    max_size: int = 2**12
    max_nodes: int = 400
    typical_size: int = 128


@dataclass
class CorpusEntry:
    name: str
    ext: Extension
    lattice: ExtensionLattice
    description: str

    @property
    def key(self):
        return (self.ext.top.label, self.ext.bottom.key,
                tuple(n.key for n in self.lattice.nodes))


def _base_field(q):
    return prime_field(q) if q in (2, 3, 5) else galois_field(q)


def _random_factor(rng, cap):
    """One factor ring: a base field or a monogenic quotient over one."""
    while True:
        q = rng.choice(BASE_FIELDS)
        deg = rng.choice((1, 1, 2, 2, 2, 3, 4))
        if q**deg > cap:
            continue
        K = _base_field(q)
        if deg == 1:
            return K, f"F{q}"
        if rng.random() < 0.6:
            red = [K.zero_vec()] * deg  # truncated polynomials
            tag = f"F{q}[y]/(y^{deg})"
        else:
            red = [rng.choice(list(K.elements())) for _ in range(deg)]
            tag = f"F{q}[y]/(y^{deg}-...)"
        ring, _, _ = monogenic_quotient(K, deg, red)
        return ring, tag


def _random_bottom(rng, S, big):
    mode = rng.choice(("prime", "gen1", "gen1", "gen2")) if not big else (
        rng.choice(("gen1", "gen2", "gen2"))
    )
    if mode == "prime":
        return subring_generated(S, []), "prime"
    elems = list(S.elements())
    gens = [rng.choice(elems) for _ in range(1 if mode == "gen1" else 2)]
    return subring_generated(S, gens), mode


def generate_corpus(config=None):
    """The deterministic corpus for the given configuration."""
    if config is None:
        config = CorpusConfig()
    if config.max_size < MIN_TOP_SIZE:
        raise ValueError(f"no proper extension has a top below {MIN_TOP_SIZE}")
    typical = min(config.typical_size, config.max_size)
    rng = random.Random(config.seed)
    entries = []
    while len(entries) < config.count:
        # mostly small tops, occasionally up to the hard cap
        cap = typical if rng.random() < 0.92 else config.max_size
        n_factors = rng.choice((1, 1, 1, 2, 2, 3))
        factors = []
        tags = []
        size = 1
        for _ in range(n_factors):
            f, tag = _random_factor(rng, cap)
            if size * f.size > cap:
                break
            factors.append(f)
            tags.append(tag)
            size *= f.size
        if not factors:
            continue
        if len(factors) == 1:
            S = factors[0]
        else:
            S, _ = product_ring(factors)
        big = S.size > config.typical_size
        bottom, bmode = _random_bottom(rng, S, big)
        if bottom.size == S.size:
            continue
        ext = Extension(S, bottom)
        try:
            lat = ExtensionLattice(ext, max_nodes=config.max_nodes)
        except LatticeBudgetExceeded:
            continue
        name = f"c{len(entries):03d}"
        desc = f"{' x '.join(tags)} / bottom={bmode}({bottom.size})"
        entries.append(CorpusEntry(name, ext, lat, desc))
    return entries
