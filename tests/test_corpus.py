import pytest

from fcplat.corpus import CorpusConfig, generate_corpus


def test_corpus_is_deterministic():
    cfg = CorpusConfig(seed=7, count=25)
    a = generate_corpus(cfg)
    b = generate_corpus(CorpusConfig(seed=7, count=25))
    assert [e.key for e in a] == [e.key for e in b]


def test_corpus_respects_caps():
    cfg = CorpusConfig(seed=3, count=30)
    entries = generate_corpus(cfg)
    assert len(entries) == 30
    for e in entries:
        assert e.ext.top.size <= cfg.max_size
        assert e.ext.bottom.size < e.ext.top.size
        assert e.lattice.node_count() <= cfg.max_nodes
        assert e.lattice.bottom == e.ext.bottom


def test_different_seeds_differ():
    a = generate_corpus(CorpusConfig(seed=1, count=10))
    b = generate_corpus(CorpusConfig(seed=2, count=10))
    assert [e.key for e in a] != [e.key for e in b]


def test_max_size_below_typical_size_caps_every_top():
    cfg = CorpusConfig(seed=0, count=20, max_size=8)
    assert cfg.max_size < cfg.typical_size
    entries = generate_corpus(cfg)
    assert len(entries) == 20
    assert max(e.ext.top.size for e in entries) <= 8


def test_max_size_below_every_proper_extension_is_refused():
    # F4, F2 x F2 and F2[y]/(y^2) over F2 need a top of 4 elements
    assert generate_corpus(CorpusConfig(seed=0, count=1, max_size=4))
    with pytest.raises(ValueError):
        generate_corpus(CorpusConfig(seed=0, count=1, max_size=3))
