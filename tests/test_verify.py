import sys
from pathlib import Path

import pytest

from fcplat import closures, ring, spectrum
from fcplat.closures import closure_report
from fcplat.corpus import CorpusConfig, generate_corpus
from fcplat.counting import complement_count_formula
from fcplat.ring import galois_field, prime_field, product_ring
from fcplat.lattice import ExtensionLattice
from fcplat.specfile import parse_spec
from fcplat.spectrum import Extension
from fcplat.submodule import subring_generated
from fcplat.verify import (
    ExtContext,
    SUITES,
    check_coclosures_localize,
    check_multi_complement_blocks_cosub,
    check_radicial_is_seminormalization,
    check_radicial_meet_omega_trivial,
    run_suite,
    suite_checks,
)


FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def fixture_ext(name):
    _, ext = parse_spec((FIXTURES / f"{name}.json").read_text())
    return ext


def small_corpus():
    return generate_corpus(CorpusConfig(seed=11, count=12))


def test_all_suites_pass_on_small_corpus():
    entries = small_corpus()
    report, ok = run_suite(entries, "all")
    assert ok
    names = {name for suite in SUITES.values() for name, _ in suite}
    assert set(report) == names
    # every check ran on every entry
    for st in report.values():
        assert st["pass"] + st["fail"] + st["not_applicable"] == len(entries)
        assert st["fail"] == 0 and st["failures"] == []


def test_suite_selection():
    assert len(suite_checks("all")) == sum(len(v) for v in SUITES.values())
    assert suite_checks("identities") == SUITES["identities"]
    with pytest.raises(KeyError):
        suite_checks("nonsense")


def test_multi_complement_guard_on_twisted_diagonals():
    # F2 inside F8 x F8: the t-closure F2 x F2 has three complements (the
    # Galois-twisted diagonal F8 copies), none of them ramified co-atoms,
    # yet the co-subintegral closure exists trivially.  The blocking check
    # must therefore report not-applicable, not a violation.
    F8 = galois_field(8)
    S, _ = product_ring([F8, F8])
    ext = Extension(S, subring_generated(S, []))
    lat = ExtensionLattice(ext)
    ctx = ExtContext("f8xf8", ext, lat)
    assert len(ctx.lat.complements(ctx.t)) == 3
    assert ctx.co["co_subintegral"].exists
    assert check_multi_complement_blocks_cosub(ctx) is None


@pytest.mark.parametrize("seed, count", [(15, 37), (29, 7)])
def test_radicial_meet_omega_not_applicable_over_ramified_step(seed, count):
    # unramified extensions whose 3-node chain is ramified then decomposed
    # (F3[y]/(y^2) x F3[y]/(y^2) over its diagonal; F2[y]/(y^2) x
    # F2[y]/(y^3) over a copy of F2[y]/(y^3)): omega is the top and
    # plus meet omega is the middle node, so the collapse to the bottom
    # lacks its hypothesis and must be not-applicable, not a violation
    entry = generate_corpus(
        CorpusConfig(seed=seed, count=count, max_size=128)
    )[-1]
    ctx = ExtContext(entry.name, entry.ext, entry.lattice)
    assert ctx.lat.node_count() == 3 and ctx.omega == ctx.lat.top_node
    assert check_radicial_meet_omega_trivial(ctx) is None


def test_coclosures_localize_enumerates_each_local_lattice_once(monkeypatch):
    # F2 x F2 inside F2 x F4: two maximal ideals below, so two localized
    # lattices, each shared by both co-closure kinds
    F2, F4 = prime_field(2), galois_field(4)
    S, pack = product_ring([F2, F4])
    ext = Extension(S, subring_generated(S, [pack([(1,), F4.zero_vec()])]))
    ctx = ExtContext("f2xf2<f2xf4", ext, ExtensionLattice(ext))
    assert not ctx.bottom_local
    assert ctx.co["co_subintegral"].exists
    built = []
    init = ExtensionLattice.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ExtensionLattice, "__init__", counted)
    assert check_coclosures_localize(ctx) is True
    assert len(built) == 2


def test_run_suite_builds_at_most_two_tensor_squares_per_entry(monkeypatch):
    # one for the entry's extension (the tensor routes of the radicial
    # closure, unramified, epimorphism and locally epimorphism) and one for
    # the kappa-separable closure under the top, read in S; every other
    # unramified and epimorphism verdict is read without a tensor square
    built = []
    init = spectrum.TensorSquare.__init__

    def counting_init(self, *args):
        built.append(1)
        init(self, *args)

    monkeypatch.setattr(spectrum.TensorSquare, "__init__", counting_init)
    for entry in generate_corpus(CorpusConfig(seed=0, count=10)):
        built.clear()
        _, ok = run_suite([entry], "all")
        assert ok
        assert 1 <= len(built) <= 2, (entry.name, len(built))


def count_calls(monkeypatch, calls):
    """Append the name of each call of `ring_from_generators`,
    `tensor_square`, `witnessed_elements` and
    `ExtensionLattice.sub_extension` to calls, wherever fcplat imported
    them."""

    def counted(fn):
        def wrapper(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)
        return wrapper

    for fn in (ring.ring_from_generators, spectrum.tensor_square,
               closures.witnessed_elements):
        wrapped = counted(fn)
        for name, module in list(sys.modules.items()):
            if (name.startswith("fcplat.")
                    and getattr(module, fn.__name__, None) is fn):
                monkeypatch.setattr(module, fn.__name__, wrapped)
    monkeypatch.setattr(ExtensionLattice, "sub_extension",
                        counted(ExtensionLattice.sub_extension))


def test_kappa_closures_and_formula_count_present_no_ring(monkeypatch):
    # every closure is a span read in S (residual extensions are pairs of
    # subfields of S/N, omega is the local criterion on each node, the
    # radicial closure is R + J(S)) and the count's minimal polynomial is
    # solved over the images of R's basis there, so neither the closures
    # nor the formula count presents a ring, re-presents a node's
    # extension, builds a tensor square or tests a witness
    calls = []
    count_calls(monkeypatch, calls)
    exts = [fixture_ext("b5101_q2"), fixture_ext("remark_1317")]
    exts += [entry.ext for entry in
             generate_corpus(CorpusConfig(seed=0, count=10, max_size=128))]
    for ext in exts:
        lat = ExtensionLattice(Extension(ext.top, ext.bottom))
        calls.clear()
        closure_report(lat)
        complement_count_formula(lat.ext)
        assert calls == [], (ext, calls)


def test_interval_checks_present_no_ring(monkeypatch):
    # the co-closures, witness closures and counts of intervals [T, U] are
    # read on the one lattice in S; ctx.co is computed first, since
    # prufer_hull presents the bottom's covers by design
    names = ("coclosures_of_closures_trivial", "cosub_of_t_interval_is_u",
             "coclosure_products", "meet_plus_u", "sum_formula")
    checks = [(name, fn) for name, fn in suite_checks("all") if name in names]
    assert len(checks) == len(names)
    calls = []
    count_calls(monkeypatch, calls)
    passed = set()
    for entry in generate_corpus(CorpusConfig(seed=0, count=10)):
        ctx = ExtContext(entry.name, entry.ext, entry.lattice)
        ctx.co
        for name, fn in checks:
            calls.clear()
            result = fn(ctx)
            assert result is not False, (entry.name, name)
            assert not {"sub_extension", "ring_from_generators"} & set(calls), (
                entry.name, name, calls)
            if result:
                passed.add(name)
    assert passed == set(names)


def test_radicial_check_fails_on_a_wrong_tensor_route(monkeypatch):
    # b5101_q2 is subintegral, so plus is the top; a radicial closure
    # stuck at the bottom must be caught against it
    ext = fixture_ext("b5101_q2")
    lat = ExtensionLattice(ext)
    ctx = ExtContext("b5101_q2", ext, lat)
    assert ctx.plus == lat.top_node != lat.bottom
    assert check_radicial_is_seminormalization(ctx) is True
    monkeypatch.setattr("fcplat.verify.radicial_closure", lambda e: e.bottom)
    ctx = ExtContext("b5101_q2", ext, lat)
    assert check_radicial_is_seminormalization(ctx) is False
