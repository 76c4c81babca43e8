import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from fcplat.cli import build_parser, main
from fcplat.closures import is_x_closed
from fcplat.specfile import parse_spec
from test_verify import count_calls

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
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


@pytest.mark.parametrize("command, flags", [
    ("closures", "flags"), ("classify", "extension"),
])
@pytest.mark.parametrize("spec", [B5101, R1317],
                         ids=["b5101_q2", "remark_1317"])
def test_closure_flags_test_no_witness_nor_tensor(capsys, monkeypatch,
                                                   command, flags, spec):
    # the flags compare a closure with the bottom: no witness is tested and
    # no tensor square built; neither command re-presents a node, classify's
    # edge labels being read in S too
    calls = []
    count_calls(monkeypatch, calls)
    code, doc = run(capsys, command, spec)
    assert code == 0
    assert not {"witnessed_elements", "tensor_square"} & set(calls)
    assert "sub_extension" not in calls
    _, ext = parse_spec(Path(spec).read_text())
    for name, kind in (("seminormal", "s"), ("t_closed", "t"),
                       ("u_closed", "u")):
        assert doc[flags][name] == is_x_closed(ext, kind)


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


SPEC_COMMANDS = ("lattice", "closures", "coclosures", "classify", "count")


def test_one_max_size_default_for_every_command():
    parser = build_parser()
    for argv in [[cmd, B5101] for cmd in SPEC_COMMANDS] + [["verify"],
                                                           ["corpus"]]:
        assert parser.parse_args(argv).max_size == 2**12, argv[0]


@pytest.mark.parametrize("argv", [
    ["lattice", B5101, "--max-size", "0"],
    ["count", B5101, "--max-size", "1"],
    ["corpus", "--max-size", "0"],
    ["verify", "--count", "1", "--max-size", "3"],
    ["corpus", "--max-size", "eight"],
])
def test_max_size_too_small_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--max-size" in capsys.readouterr().err


def test_spec_commands_reject_oversize_top_by_default(capsys, tmp_path):
    # F_1000003[x]/(x^2 - 1) has 10^12 elements
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({
        "constructions": [
            {"name": "K", "op": "prime_field", "args": {"p": 1000003}},
            {"name": "T", "op": "monogenic",
             "args": {"base": "K", "degree": 2, "reduction": [1, 0]}},
        ],
        "extension": {"top": "T", "bottom": {"generated_by": []}},
    }))
    start = time.monotonic()
    for cmd in SPEC_COMMANDS:
        assert main([cmd, str(spec)]) == 2
        assert "exceeds cap 4096" in capsys.readouterr().err
    assert time.monotonic() - start < 10


@pytest.mark.parametrize("construction", [
    # building F_(2^30) first searches about 2^29 candidate polynomials
    {"name": "F", "op": "galois_field", "args": {"q": 2**30}},
    # a prime near 10^18 is trial-divided up to 10^9 before it is built
    {"name": "F", "op": "prime_field", "args": {"p": 10**18 + 9}},
])
def test_oversize_field_is_refused_before_it_is_built(tmp_path, construction):
    spec = tmp_path / "big.json"
    spec.write_text(json.dumps({
        "constructions": [construction],
        "extension": {"top": "F", "bottom": {"generated_by": []}},
    }))
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-m", "fcplat.cli", "lattice", str(spec)],
        capture_output=True, text=True, env=env, timeout=10,
    )
    assert proc.returncode == 2
    assert "exceeds cap 4096" in proc.stderr


def test_env_max_nodes(capsys, monkeypatch):
    monkeypatch.setenv("FCPLAT_MAX_NODES", "3")
    assert main(["lattice", B5101]) == 2


def test_env_max_nodes_not_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("FCPLAT_MAX_NODES", "abc")
    assert main(["lattice", B5101]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "FCPLAT_MAX_NODES" in err


@pytest.mark.parametrize("constructions", [
    # {1, x} spans no subring of F8
    [{"name": "F", "op": "galois_field", "args": {"q": 8}},
     {"name": "B", "op": "subring",
      "args": {"base": "F", "generators": [[0, 1, 0]]}}],
    # the ideal of both basis vectors of F2[y]/(y^2) is the whole ring
    [{"name": "K", "op": "prime_field", "args": {"p": 2}},
     {"name": "D", "op": "monogenic",
      "args": {"base": "K", "degree": 2, "reduction": [0, 0]}},
     {"name": "Q", "op": "quotient_ideal",
      "args": {"base": "D", "generators": [[1, 0], [0, 1]]}}],
])
def test_exit_code_unbuildable_construction(capsys, tmp_path, constructions):
    spec = tmp_path / "spec.json"
    top = constructions[0]["name"]
    spec.write_text(json.dumps({
        "constructions": constructions,
        "extension": {"top": top, "bottom": {"generated_by": []}},
    }))
    assert main(["lattice", str(spec)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["lattice", B5101, "--dot"],
    ["classify", B5101, "--dot"],
    ["count", R1317, "--json"],
])
def test_unwritable_output_exits_2(capsys, tmp_path, argv):
    path = str(tmp_path / "missing" / "out")
    assert main(argv + [path]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {path}: ")
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["verify", "--count", "-3"],
    ["verify", "identities", "--count", "0"],
    ["corpus", "--count", "0"],
])
def test_non_positive_count_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--count" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_env_max_nodes_below_one(capsys, monkeypatch, budget):
    monkeypatch.setenv("FCPLAT_MAX_NODES", budget)
    assert main(["lattice", B5101]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: FCPLAT_MAX_NODES must be")
    assert "exceeded" not in err
