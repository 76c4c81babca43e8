"""Fast tests of the benchmark's oracle and of its seeded spec writers.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_oracle.py
"""

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import oracle  # noqa: E402
import workloads  # noqa: E402
from fcplat import ring, specfile  # noqa: E402


def truncated_table(m):
    """Structure constants of F_2[Y]/(Y^m) in the basis 1, Y, ..., Y^(m-1)."""
    return [[[1 if i + j == k else 0 for k in range(m)] for j in range(m)]
            for i in range(m)]


@pytest.mark.parametrize("orders, table, one, nodes", [
    ((4,), [[[1]]], (1,), 1),  # Z/4 has no proper unital subring
    ((2, 2), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], (1, 1), 2),  # F2 x F2
    ((2, 2), truncated_table(2), (1, 0), 2),
    ((2,) * 4, truncated_table(4), (1, 0, 0, 0), 6),  # q + 4 with q = 2
])
def test_interval_from_hand_written_tables(orders, table, one, nodes):
    plain = oracle.PlainRing(orders, table, one)
    masks = plain.interval([])
    assert len(masks) == nodes
    assert masks[0][plain.index(plain.one)] and masks[-1].all()


def test_subring_closure_adds_products():
    plain = oracle.PlainRing((2,) * 4, truncated_table(4), (1, 0, 0, 0))
    members, _ = plain.subring([(0, 0, 1, 0)])  # F2[Y^2] = {a + b Y^2}
    assert len(members) == 4
    members, _ = plain.subring([(0, 1, 0, 0)])  # Y generates everything
    assert len(members) == 16
    assert plain.is_subring(plain.span([(1, 0, 0, 0), (0, 0, 1, 0)]),
                            [(1, 0, 0, 0), (0, 0, 1, 0)])
    assert not plain.is_subring(plain.span([(1, 0, 0, 0), (0, 1, 0, 0)]),
                                [(1, 0, 0, 0), (0, 1, 0, 0)])


def test_covers_of_a_diamond():
    plain = oracle.PlainRing((2, 2), [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                             (1, 1))
    masks = [plain.mask(plain.span(g)) for g in
             ([], [(1, 1)], [(1, 0)], [(0, 1)], [(1, 0), (0, 1)])]
    assert oracle.covers(masks) == {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4),
                                    (3, 4)}


def test_closed_forms():
    assert [oracle.bell(n) for n in range(1, 6)] == [1, 2, 5, 15, 52]
    assert [oracle.divisor_count(k) for k in (4, 6, 8)] == [3, 4, 4]


@pytest.mark.parametrize("q, nodes", [(16, 3), (81, 3), (64, 4)])
def test_galois_fields_have_divisor_count_nodes(q, nodes):
    plain = oracle.PlainRing.of(ring.galois_field(q))
    assert len(plain.interval([])) == nodes


def test_products_of_prime_fields_have_bell_nodes():
    F2 = ring.prime_field(2)
    for n in (3, 4):
        top, _ = ring.product_ring([F2] * n)
        assert len(oracle.PlainRing.of(top).interval([])) == oracle.bell(n)


def _oracle_count(doc):
    _, ext = specfile.parse_spec(json.dumps(doc))
    gens = doc["extension"]["bottom"]["generated_by"]
    return len(oracle.PlainRing.of(ext.top).interval(gens))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_seeded_spec_families_meet_their_closed_forms(seed):
    rng = random.Random(seed)
    for doc, nodes in (
        workloads.truncated_spec(2, rng),
        workloads.truncated_spec(3, rng),
        workloads.split_power_spec(2, 3, rng),
        workloads.split_power_spec(3, 3, rng),
        workloads.galois_spec(2, 4, rng),
        workloads.galois_spec(3, 4, rng),
    ):
        assert _oracle_count(doc) == nodes


def test_truncated_spec_over_f4():
    doc, nodes = workloads.truncated_spec(4, random.Random(5))
    assert nodes == 8 and _oracle_count(doc) == 8
