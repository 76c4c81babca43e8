import json
from pathlib import Path

import pytest

from fcplat.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
B5101 = str(FIXTURES / "b5101_q2.json")
R1317 = str(FIXTURES / "remark_1317.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def test_lattice_command(capsys, tmp_path):
    dot = tmp_path / "g.dot"
    code, doc = run(capsys, "lattice", B5101, "--dot", str(dot))
    assert code == 0
    assert doc["node_count"] == 6
    assert doc["length"] == 3
    assert {e["label"] for e in doc["edges"]} <= {"i", "d", "r"}
    assert dot.read_text().startswith("digraph lattice {")


def test_lattice_output_deterministic(capsys):
    code1, doc1 = run(capsys, "lattice", R1317)
    code2, doc2 = run(capsys, "lattice", R1317)
    assert (code1, doc1) == (code2, doc2) == (0, doc1)
    assert doc1["node_count"] == 7


def test_closures_command(capsys):
    code, doc = run(capsys, "closures", R1317)
    assert code == 0
    sizes = {k: v["size"] for k, v in doc["closures"].items()}
    assert sizes["u"] == 16 and sizes["t"] == 32
    assert doc["flags"]["seminormal"] is False


def test_coclosures_command(capsys):
    code, doc = run(capsys, "coclosures", B5101)
    assert code == 0
    for entry in doc["coclosures"].values():
        assert entry["exists"] is True


def test_classify_command(capsys):
    code, doc = run(capsys, "classify", B5101)
    assert code == 0
    assert sum(doc["edge_counts"].values()) == len(doc["edges"])
    assert doc["extension"]["subintegral"] is True


def test_count_command(capsys):
    code, doc = run(capsys, "count", R1317)
    assert code == 0
    assert doc["routes_agree"] is True
    assert doc["sum_formula"]["total"] == doc["sum_formula"]["node_count"]


def test_verify_command(capsys, tmp_path):
    out = tmp_path / "v.json"
    code, doc = run(
        capsys, "verify", "identities", "--seed", "5", "--count", "6",
        "--json", str(out),
    )
    assert code == 0
    assert doc["ok"] is True
    assert doc["suite"] == "identities"
    for st in doc["checks"].values():
        assert st["fail"] == 0
    assert json.loads(out.read_text()) == doc


def test_verify_suite_flag_equivalent(capsys):
    code1, doc1 = run(capsys, "verify", "counting", "--seed", "2",
                      "--count", "4")
    code2, doc2 = run(capsys, "verify", "--suite", "counting", "--seed", "2",
                      "--count", "4")
    assert (code1, doc1) == (code2, doc2)


def test_corpus_command(capsys):
    code, doc = run(capsys, "corpus", "--seed", "3", "--count", "5")
    assert code == 0
    assert doc["count"] == 5
    assert [e["name"] for e in doc["entries"]] == [
        f"c{i:03d}" for i in range(5)
    ]


def test_exit_code_input_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["lattice", str(bad)]) == 2
    assert main(["lattice", str(tmp_path / "missing.json")]) == 2
    assert main(["verify", "nonsense", "--count", "1"]) == 2
    assert main(["lattice", B5101, "--max-size", "8"]) == 2


def test_env_max_nodes(capsys, monkeypatch):
    monkeypatch.setenv("FCPLAT_MAX_NODES", "3")
    assert main(["lattice", B5101]) == 2


def test_env_max_nodes_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("FCPLAT_MAX_NODES", "abc")
    assert main(["lattice", B5101]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "FCPLAT_MAX_NODES" in err
