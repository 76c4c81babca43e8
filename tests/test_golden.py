"""Byte-identity of the spec commands against committed golden files.

`tests/golden/` holds the JSON of every spec command and the DOT of
`lattice` and `classify` for both fixtures, plus the sha256 digests of the
seed-0 300-entry corpus and its verify report (checked in
`test_acceptance.py`, which already builds that corpus).  A change that
alters any of these bytes fails here; an intended change regenerates them
with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from fcplat.cli import main
from fcplat.exports import export_json

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
FIXTURES = ("b5101_q2", "remark_1317")
COMMANDS = ("lattice", "closures", "coclosures", "classify", "count")
DOT_COMMANDS = ("lattice", "classify")
DIGESTS = GOLDEN / "corpus_seed0_300.json"


def run_command(fixture, command, out_dir):
    """Run one spec command; return the paths of its JSON and DOT output."""
    out_dir = Path(out_dir)
    json_path = out_dir / f"{fixture}.{command}.json"
    dot_path = out_dir / f"{fixture}.{command}.dot"
    argv = [command, str(ROOT / "fixtures" / f"{fixture}.json"),
            "--json", str(json_path)]
    if command in DOT_COMMANDS:
        argv += ["--dot", str(dot_path)]
    assert main(argv) == 0
    return [json_path] + ([dot_path] if command in DOT_COMMANDS else [])


def corpus_digests(entries, report):
    """sha256 of the verify report and of the entries' (name, description, key)."""
    listing = [(e.name, e.description, e.key) for e in entries]
    return {
        "report": hashlib.sha256(export_json(report).encode()).hexdigest(),
        "entries": hashlib.sha256(export_json(listing).encode()).hexdigest(),
    }


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("fixture", FIXTURES)
def test_spec_command_bytes(fixture, command, tmp_path):
    for path in run_command(fixture, command, tmp_path):
        assert path.read_bytes() == (GOLDEN / path.name).read_bytes(), path.name


def _regenerate():
    from fcplat.corpus import CorpusConfig, generate_corpus
    from fcplat.verify import run_suite

    GOLDEN.mkdir(exist_ok=True)
    for fixture in FIXTURES:
        for command in COMMANDS:
            run_command(fixture, command, GOLDEN)
    entries = generate_corpus(CorpusConfig(seed=0, count=300))
    report, _ = run_suite(entries, "all")
    DIGESTS.write_text(
        json.dumps(corpus_digests(entries, report), indent=1, sort_keys=True)
        + "\n"
    )


if __name__ == "__main__":
    with contextlib.redirect_stdout(io.StringIO()):  # the commands print too
        _regenerate()
