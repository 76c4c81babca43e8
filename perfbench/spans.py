"""Spans around fcplat's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every fcplat
module that holds it: a name taken in with ``from .x import f`` is a separate
binding, and calls through it would escape the span if only the defining
module were patched.  Methods are wrapped on their class.  ``uninstall`` puts
every original back.

Each span adds to its name's call count and total time; its self time is its
duration minus the durations of its direct child spans.  Spans are kept as
per-name totals in memory and written out when the run ends.
"""

import importlib
import time
from collections import Counter, defaultdict

MODULES = (
    "linalg", "ring", "submodule", "structure", "spectrum", "lattice",
    "minimal", "closures", "coclosures", "counting", "corpus", "verify",
    "specfile", "exports", "cli",
)

LAYERS = (
    "linalg.howell_form",
    "linalg.howell_contains",
    "linalg.kernel_mod",
    "linalg.smith_presentation",
    "ring.build_ring",
    "ring.ring_from_generators",
    "submodule.subring_generated",
    "submodule.Submodule.from_generators",
    "submodule.Submodule.contains_many",
    "submodule.Submodule.elements",
    "submodule.Submodule.intersect",
    "structure.maximal_ideals",
    "structure.local_factors",
    "spectrum.tensor_square",
    "spectrum.is_unramified",
    "spectrum.is_unramified_local",
    "lattice.enumerate_interval",
    "lattice.ExtensionLattice.sub_extension",
    "minimal.edge_labels",
    "closures.closure_report",
    "closures.witnessed_elements",
    "coclosures.coclosure_report",
    "coclosures.co_closure",
    "counting.complement_count_formula",
    "counting.complement_count_lattice",
    "counting.verify_sum_formula",
    "specfile.parse_spec",
    "exports.export_json",
    "exports.export_dot",
)

SUITES = ("identities", "counting", "coclosures", "unramified")
CLI_COMMANDS = ("lattice", "closures", "coclosures", "classify", "count")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()  # work counters behind the ratios
        self._children = []  # child-span time of each open span
        self._undo = []

    # -- spans -------------------------------------------------------------

    def wrap(self, name, fn, after=None):
        """fn inside a span.

        after(result, calls_before) runs when the span ends, with result
        None if fn raised, so work spent on a failed call is counted too.
        """

        def traced(*args, **kwargs):
            before = self.calls.copy() if after else None
            self.calls[name] += 1
            self._children.append(0.0)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                elapsed = time.perf_counter() - start
                self.self_time[name] += elapsed - self._children.pop()
                self.total[name] += elapsed
                if self._children:
                    self._children[-1] += elapsed
                if after:
                    after(result, before)

        traced.__wrapped__ = fn
        return traced

    # -- ratio hooks ---------------------------------------------------------

    def _after_enumerate(self, nodes, before):
        self.counts["enumerate.nodes"] += len(nodes or ())
        self.counts["enumerate.subring_calls"] += (
            self.calls["submodule.subring_generated"]
            - before["submodule.subring_generated"]
        )

    def _after_tensor_square(self, _square, before):
        if self.calls["ring.build_ring"] > before["ring.build_ring"]:
            self.counts["tensor_square.built"] += 1

    def _after_corpus(self, entries, before):
        self.counts["corpus.accepted"] += len(entries or ())
        self.counts["corpus.lattices"] += (
            self.calls["lattice.enumerate_interval"]
            - before["lattice.enumerate_interval"]
        )

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [importlib.import_module(f"fcplat.{m}") for m in MODULES]
        hooks = {
            "lattice.enumerate_interval": self._after_enumerate,
            "spectrum.tensor_square": self._after_tensor_square,
            "corpus.generate_corpus": self._after_corpus,
        }
        for name in LAYERS + ("corpus.generate_corpus",):
            mod_name, *path = name.split(".")
            mod = importlib.import_module(f"fcplat.{mod_name}")
            if len(path) == 2:
                cls = getattr(mod, path[0])
                raw = cls.__dict__[path[1]]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__))
                else:
                    new = self.wrap(name, raw, hooks.get(name))
                self._set(cls, path[1], new)
                continue
            orig = getattr(mod, path[0])
            new = self.wrap(name, orig, hooks.get(name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        self._set(m, attr, new)
        verify = importlib.import_module("fcplat.verify")
        for suite in SUITES:
            checks = verify.SUITES[suite]
            original = list(checks)
            checks[:] = [
                (check, self.wrap(f"verify.{suite}", fn))
                for check, fn in original
            ]
            self._undo.append(lambda c=checks, o=original: c.__setitem__(
                slice(None), o))

    def _set(self, owner, attr, value):
        old = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    # -- results -----------------------------------------------------------

    def snapshot(self):
        return {
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
        }


def layer_metrics(snap):
    """The per-layer metrics of one traced round, from a snapshot."""
    calls = Counter(snap["calls"])
    total = defaultdict(float, snap["total_s"])
    self_s = defaultdict(float, snap["self_s"])
    counts = Counter(snap["counts"])
    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_ms"] = (self_s[name] * 1e3, "ms")
    out["corpus.generate_corpus.self_ms"] = (
        self_s["corpus.generate_corpus"] * 1e3, "ms")
    for suite in SUITES:
        out[f"verify.{suite}.ms"] = (total[f"verify.{suite}"] * 1e3, "ms")
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.ms"] = (total[f"cli.{cmd}"] * 1e3, "ms")
    out["lattice.enumerate_interval.nodes"] = (
        counts["enumerate.nodes"], "count")
    out["lattice.enumerate_interval.useful_ratio"] = (
        _ratio(counts["enumerate.nodes"], counts["enumerate.subring_calls"]),
        "ratio")
    out["spectrum.tensor_square.build_ratio"] = (
        _ratio(counts["tensor_square.built"], calls["spectrum.tensor_square"]),
        "ratio")
    out["corpus.accept_ratio"] = (
        _ratio(counts["corpus.accepted"], counts["corpus.lattices"]), "ratio")
    return out


def _ratio(num, den):
    return num / den if den else 0.0
