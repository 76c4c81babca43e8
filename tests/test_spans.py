"""The benchmark's spans (perfbench/spans.py) against the current package.

The tracer wraps fcplat functions by name; a renamed or removed function
makes `Tracer.install` raise.  This test installs it, runs one command
through the spans, checks that the traced membership and subring layers
are reached, and that `uninstall` restores every original.  A lattice run
must feed the enumeration counters, or the benchmark's useful_ratio would
read 0 on working code, and a verify run over a non-local bottom must reach
the local factors, the local unramified criterion and the counting formula.
"""

import importlib
import importlib.util
from pathlib import Path

from fcplat.cli import main

ROOT = Path(__file__).resolve().parent.parent
B5101 = str(ROOT / "fixtures" / "b5101_q2.json")


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def bindings(spans):
    """Every traced name as the object its owner holds, plus the suites."""
    out = {}
    for name in spans.LAYERS:
        mod_name, *path = name.split(".")
        owner = importlib.import_module(f"fcplat.{mod_name}")
        for attr in path[:-1]:
            owner = getattr(owner, attr)
        out[name] = owner.__dict__[path[-1]]
    verify = importlib.import_module("fcplat.verify")
    out["suites"] = {k: list(v) for k, v in verify.SUITES.items()}
    return out


def test_tracer_installs_and_uninstalls(capsys):
    spans = load_spans()
    before = bindings(spans)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["coclosures", B5101]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["coclosures.co_closure"] == 2
    assert tracer.calls["lattice.ExtensionLattice.sub_extension"] > 0
    # a kept traced name must stay on the hot path, not read 0 as an alias
    assert tracer.calls["linalg.howell_contains"] > 0
    assert tracer.calls["submodule.subring_generated"] > 0
    assert bindings(spans) == before


def test_lattice_run_feeds_the_enumeration_counters(capsys):
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["lattice", B5101]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.calls["lattice.enumerate_interval"] > 0
    assert tracer.counts["enumerate.subring_calls"] > 0
    metrics = spans.layer_metrics(tracer.snapshot())
    nodes, _ = metrics["lattice.enumerate_interval.nodes"]
    ratio, _ = metrics["lattice.enumerate_interval.useful_ratio"]
    assert nodes > 0
    assert ratio > 0


def test_verify_run_reaches_the_local_layers(capsys):
    # seed 2's single entry has a non-local bottom
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert main(["verify", "all", "--seed", "2", "--count", "1"]) == 0
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for name in ("structure.local_factors", "spectrum.is_unramified_local",
                 "counting.complement_count_formula"):
        assert tracer.calls[name] > 0, name
