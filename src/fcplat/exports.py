"""Deterministic DOT and JSON exports of lattices and reports.

Node order is the canonical lattice order (size, then key), so identical
inputs always produce byte-identical output.
"""

import json

from .minimal import edge_labels


def jsonable(value):
    """Recursively convert tuples (canonical keys) into JSON-safe lists."""
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def export_json(obj):
    """Canonical JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(
        jsonable(obj), sort_keys=True, separators=(",", ": "), indent=1
    ) + "\n"


def lattice_report(lattice):
    """A JSON-ready description of the lattice and its labelled edges."""
    labels = edge_labels(lattice)
    return {
        "node_count": lattice.node_count(),
        "length": lattice.length(),
        "min_chain_length": lattice.min_chain_length(),
        "catenarian": lattice.is_catenarian(),
        "nodes": [
            {"index": i, "size": n.size, "key": n.key}
            for i, n in enumerate(lattice.nodes)
        ],
        "edges": [
            {"from": i, "to": j, "label": labels[(i, j)].short}
            for i, j in lattice.hasse_edges()
        ],
    }


def export_dot(lattice):
    """DOT digraph of the Hasse diagram, edges labelled i / d / r."""
    labels = edge_labels(lattice)
    lines = ["digraph lattice {", "  rankdir=BT;"]
    for i, n in enumerate(lattice.nodes):
        lines.append(f'  n{i} [label="n{i} (size {n.size})"];')
    for i, j in lattice.hasse_edges():
        lines.append(f'  n{i} -> n{j} [label="{labels[(i, j)].short}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
