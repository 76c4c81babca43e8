import json

from fcplat.exports import export_dot, export_json, lattice_report
from fcplat.lattice import ExtensionLattice
from fcplat.ring import galois_field, monogenic_quotient, prime_field
from fcplat.spectrum import Extension
from fcplat.submodule import subring_generated


def dual_numbers_lattice():
    K = prime_field(2)
    R, _, _ = monogenic_quotient(K, 2, [K.zero_vec(), K.zero_vec()])  # F2[t]/(t^2)
    return ExtensionLattice(Extension(R, subring_generated(R, [])))


def test_dot_byte_stable():
    a = export_dot(dual_numbers_lattice())
    b = export_dot(dual_numbers_lattice())
    assert a == b
    assert a.startswith("digraph lattice {")
    assert a.endswith("}\n")


def test_dot_edge_labels():
    dot = export_dot(dual_numbers_lattice())
    assert 'n0 -> n1 [label="r"];' in dot  # F2 in F2[t]/(t^2) is ramified
    F4 = galois_field(4)
    lat = ExtensionLattice(Extension(F4, subring_generated(F4, [])))
    assert 'n0 -> n1 [label="i"];' in export_dot(lat)  # F2 in F4 is inert


def test_dot_single_node():
    K = prime_field(3)
    full = subring_generated(K, [K.one])
    lat = ExtensionLattice(Extension(K, full))
    dot = export_dot(lat)
    assert dot.count("->") == 0
    assert "n0" in dot


def test_json_round_trip_stable():
    report = lattice_report(dual_numbers_lattice())
    text = export_json(report)
    again = export_json(json.loads(text))
    assert text == again
    parsed = json.loads(text)
    assert parsed["node_count"] == 2
    assert parsed["edges"][0]["label"] == "r"


def test_json_canonical_keys():
    report = lattice_report(dual_numbers_lattice())
    parsed = json.loads(export_json(report))
    keys = [n["key"] for n in parsed["nodes"]]
    assert keys == sorted(keys, key=lambda k: (len(k), k))
    assert all(isinstance(k, list) for k in keys)
