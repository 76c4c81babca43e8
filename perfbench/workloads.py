"""The three workloads: seeded inputs, one round of operations, output checks.

A workload picks its inputs from the seed (``select``, not timed) and
builds them (``setup``, timed), then hands out rounds: lists of operations
that are the same in every round.  Each round works on fresh inputs, so
caches the program keeps on its objects never carry over from one round to
the next.  ``check_round`` compares what the operations returned with the
oracle in ``oracle.py`` or with a property the method must have; it never
compares with a stored copy of an earlier output.

fcplat is reached through module attributes at call time (``corpus.generate_
corpus`` rather than a name bound at import), so the spans that ``spans.py``
installs see every call.
"""

import contextlib
import copy
import io
import itertools
import json
import random
from pathlib import Path

import oracle

from fcplat import cli, corpus, counting, ring, specfile, verify

# Corpus tops are capped at the corpus's typical size (128 elements).  At the
# default cap of 2^12 one seed can draw a top whose lattice runs about two
# minutes before the node budget rejects it, and a single verified |S| = 1024
# entry can take a minute; either would overrun a run.
CORPUS_MAX_SIZE = 128


def _corpus_config(seed, count):
    return corpus.CorpusConfig(seed=seed, count=count,
                               max_size=CORPUS_MAX_SIZE)


def _is_prime_bottom(entry):
    return "bottom=prime" in entry.description


# Entries per round of verify_corpus, by (rank of the top, bottom kind), or
# by (2, characteristic) for rank 2, as (distinct entries, times each is
# verified).  The rank sets the size of every tensor square and witness
# mask, so it predicts an entry's cost far better than |S| does.
#
# Rank 6 over the prime subring (rank-36 tensor squares) carries most of a
# round's time.  Of those, only the entries with the commonest lattice
# size, HEAVY_NODES (over half of them: mostly F8[y]/(y^2), some
# F4[y]/(y^3)), are taken, so that the operations which set the tail and
# most of the throughput cost about the same from seed to seed.  Each is
# verified three times, on separate fresh copies: with eighteen such
# operations, the tail, ten operations from the top, falls near their
# middle rather than at their fastest, where one cheap entry or one fast
# stretch of the machine would move it.  Six entries take select 100 to
# 300 corpus seeds to find (2 to 6 s); eighteen would take three times as
# long.
#
# A rank-2 top has no proper subring but its prime subring, so its bottom
# kind makes no difference; its characteristic sets |S| (4 or 9).  Both
# kinds take about 30 ms; the operations on ranks 3 to 6 take 30 ms to 2 s,
# most of them over 100 ms.  The 126 operations on rank-2 tops (13 entries
# of characteristic 2, each verified six times, and 12 of characteristic 3,
# each verified four times: about as many entries as select finds on its
# way to the rank-6 ones) are almost five times the 26 on ranks 3 to 6, so
# the median falls at 60 % of the cheap operations, where they lie densest.
# With 38 cheap operations it fell at 85 % of them, at their upper edge,
# where one slower cheap entry or a slow stretch of the machine moved it.
#
# Left out: ranks 5 and 7 (under 5 % of the corpus; a rank-7 top over its
# prime subring takes 5-9 s alone), rank-2 tops of characteristic 5, which
# would sit between the two rank-2 groups in cost, and rank-2 tops that mix
# characteristics, such as F9 x F4, which cost up to five times more than
# the other rank-2 tops.
STRATA = {
    (2, "char 2"): (13, 6),
    (2, "char 3"): (12, 4),
    (3, "gen"): (1, 1),
    (3, "prime"): (1, 1),
    (4, "gen"): (2, 1),
    (4, "prime"): (2, 1),
    (6, "gen"): (2, 1),
    (6, "prime"): (6, 3),
}
HEAVY_NODES = 18


def stratum(entry):
    top = entry.ext.top
    if top.rank == 2:
        # not in STRATA: characteristic 5, and Z/6, Z/10 or Z/15 coefficients
        return 2, f"char {top.orders[0]}"
    key = top.rank, "prime" if _is_prime_bottom(entry) else "gen"
    if key == (6, "prime") and entry.lattice.node_count() != HEAVY_NODES:
        return None
    return key


def _fails_radicial_meet_omega(entry):
    """Whether the radicial_meet_omega_trivial check fails on the entry.

    The check wrongly fails on some extensions R < S that are unramified with
    a ramified step above R, such as F3[y]/(y^2) x F3[y]/(y^2) over its
    diagonal.  Such entries are left out, so that a run fails no operation
    whatever its seed.  Over a field bottom an unramified S is reduced and
    has no ramified step, so only entries with a generated bottom are tried.
    """
    if _is_prime_bottom(entry):
        return False
    context = verify.ExtContext(entry.name, entry.ext, entry.lattice)
    return verify.check_radicial_meet_omega_trivial(context) is False


class Workload:
    """What run.py calls: select(seed), the untimed part of set-up;
    setup(seed), the timed part; warm_up(); round() -> [(label, op)];
    check_round(results, first) -> errors; and span_name(label).
    tail_beyond is the number of operations per round that item_tail_ms
    leaves beyond it."""

    tail_beyond = 10

    def select(self, seed):
        """Set-up work that is the benchmark's own, kept out of setup_s."""

    def span_name(self, label):
        """The span the traced run puts around an operation, if any."""
        return None


SEED_STRIDE = 100_003


def _corpus_seeds(seed):
    """The corpus seeds a workload seed draws from, one entry each."""
    return itertools.count(SEED_STRIDE * seed)


def _single_entry(corpus_seed):
    """The one entry of the corpus of this seed, named after the seed."""
    entry, = corpus.generate_corpus(_corpus_config(corpus_seed, 1))
    entry.name = f"s{corpus_seed}"
    return entry


class VerifyCorpus(Workload):
    """run_suite(entries, "all"), one corpus entry per operation.

    Each entry is the single entry of a seeded corpus of count 1.  select
    scans the corpus seeds that the workload seed draws, in order, and keeps
    the first seeds whose entries fill each stratum, as many as STRATA says.
    setup then builds the corpus of exactly those seeds.  So the kinds of
    entry that set-up builds and a round verifies are the same for every
    seed, and with them the cost of set-up and of a round stays close, while
    the entries themselves change with the seed.
    """

    def select(self, seed):
        picked = {key: [] for key in STRATA}
        for corpus_seed in _corpus_seeds(seed):
            entry = _single_entry(corpus_seed)
            key = stratum(entry)
            if (key in STRATA and len(picked[key]) < STRATA[key][0]
                    and not _fails_radicial_meet_omega(entry)):
                picked[key].append(corpus_seed)
                if all(len(picked[k]) == n for k, (n, _) in STRATA.items()):
                    break
        self.corpus_seeds = sorted((s, STRATA[key][1])
                                   for key, seeds in picked.items()
                                   for s in seeds)
        self.round_size = sum(times for _, times in self.corpus_seeds)

    def setup(self, seed):
        self.entries = [_single_entry(s) for s, _ in self.corpus_seeds]
        self.repeats = [times for _, times in self.corpus_seeds]

    def warm_up(self):
        smallest = min(self.entries, key=lambda e: e.ext.top.size)
        verify.run_suite([copy.deepcopy(smallest)], "all")

    def round(self):
        ops = []
        for entry, times in zip(self.entries, self.repeats):
            for _ in range(times):
                # a copy per operation: the operations on an entry that is
                # verified more than once must not share its caches
                fresh = copy.deepcopy(entry)
                ops.append((entry.name,
                            lambda e=fresh: verify.run_suite([e], "all")))
        return ops

    def check_round(self, results, first):
        errors = []
        tally = {}
        for name, (report, ok) in results:
            if not ok:
                errors.append(f"{name}: run_suite reports a failure")
            for check, row in report.items():
                if row["fail"]:
                    errors.append(f"{name}: {check} failed")
                tally[check] = tally.get(check, 0) + row["pass"] + row[
                    "fail"] + row["not_applicable"]
        errors += [f"{check}: {n} verdicts for {len(results)} operations"
                   for check, n in tally.items() if n != len(results)]
        if first:  # on copies, so that later rounds start as cold as this one
            for entry in copy.deepcopy(self.entries):
                errors += _check_corpus_entry(entry, {})
                _, total = counting.verify_sum_formula(entry.lattice)
                if total != entry.lattice.node_count():
                    errors.append(f"{entry.name}: sum formula total {total}")
        return errors


class CorpusBuild(Workload):
    """generate_corpus alone: one accepted entry per operation.

    Operation i builds generate_corpus(seed = SEED_STRIDE * seed + i,
    count = 1), so a round is ROUND seeded corpus entries, each with the
    candidates the generator rejected on the way.  A round is about as long
    as a run, and every operation in it builds a different entry, so the
    median rests on as many distinct entries as a run can time.  The tail
    leaves 20 operations beyond it, at p98.75: the slowest 1 % are mostly
    the few rank-7 tops a seed draws, and a percentile among them would
    move with their number.
    """

    ROUND = 1600
    tail_beyond = 20

    def setup(self, seed):
        self.seeds = list(itertools.islice(_corpus_seeds(seed), self.ROUND))
        self.round_size = self.ROUND
        self.first_keys = {}
        self.memo = {}

    def warm_up(self):
        corpus.generate_corpus(_corpus_config(0, 1))

    def round(self):
        return [
            (s, lambda s=s: corpus.generate_corpus(_corpus_config(s, 1)))
            for s in self.seeds
        ]

    def check_round(self, results, first):
        errors = []
        for s, entries in results:
            if len(entries) != 1:
                errors.append(f"seed {s}: {len(entries)} entries")
                continue
            entry = entries[0]
            if s in self.first_keys:
                if entry.key != self.first_keys[s]:
                    errors.append(f"seed {s}: differs between rounds")
                continue
            self.first_keys[s] = entry.key
            errors += _check_corpus_entry(entry, self.memo)
        return errors


def _check_corpus_entry(entry, memo):
    """The entry's nodes against the oracle: same sets, bottom first, top
    last, each one closed under + and x.  memo holds the oracle's answer
    per (top, bottom), since seeded corpora repeat extensions."""
    top = entry.ext.top
    plain = oracle.PlainRing.of(top)
    memo_key = (top.orders, top.table, top.one, entry.ext.bottom.key)
    if memo_key not in memo:
        memo[memo_key] = plain.interval(list(entry.ext.bottom.basis))
    expected = memo[memo_key]
    nodes = entry.lattice.nodes
    got = []
    for node in nodes:
        members = plain.span(node.basis)
        if len(members) != node.size or not plain.is_subring(
                members, node.basis):
            return [f"{entry.name}: node of size {node.size} is no subring"]
        got.append(oracle.key(plain.mask(members)))
    want = [oracle.key(m) for m in expected]
    errors = []
    if sorted(got) != sorted(want) or len(set(got)) != len(got):
        errors.append(f"{entry.name}: {len(got)} nodes, oracle {len(want)}")
    elif got[0] != want[0] or got[-1] != want[-1]:
        errors.append(f"{entry.name}: bottom or top out of place")
    return errors


# ---------------------------------------------------------------------------
# spec_commands


COMMANDS = ("lattice", "closures", "coclosures", "classify", "count")
DOT_COMMANDS = ("lattice", "classify")


def _poly_from_roots(roots, p):
    """Coefficients c_0..c_m of prod (Y - r) over F_p, lowest first."""
    coeffs = [1]
    for r in roots:
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = (nxt[i + 1] + c) % p
            nxt[i] = (nxt[i] - r * c) % p
        coeffs = nxt
    return coeffs


def _reduction(coeffs, p):
    """X^m = sum red_s X^s for the monic polynomial with these coefficients."""
    return [(-c) % p for c in coeffs[:-1]]


def _is_irreducible(coeffs, p):
    """Trial division by every monic polynomial of degree <= deg / 2."""
    k = len(coeffs) - 1
    for d in range(1, k // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            g = list(low) + [1]
            r = list(coeffs)
            for i in range(k, d - 1, -1):
                c = r[i]
                if c:
                    for j in range(d + 1):
                        r[i - d + j] = (r[i - d + j] - c * g[j]) % p
            if not any(r):
                return False
    return True


def _spec(constructions, top, bottom_gens=()):
    return {
        "constructions": constructions,
        "extension": {"top": top,
                      "bottom": {"generated_by": [list(g)
                                                  for g in bottom_gens]}},
    }


def _prime(name, p):
    return {"name": name, "op": "prime_field", "args": {"p": p}}


def _monogenic(name, base, reduction):
    return {"name": name, "op": "monogenic",
            "args": {"base": base, "degree": len(reduction),
                     "reduction": reduction}}


def truncated_spec(q, rng):
    """F_q[Y]/((Y - a)^4) over F_q, a drawn from F_q: q + 4 nodes."""
    if q in (2, 3, 5):
        a = rng.randrange(q)
        red = _reduction(_poly_from_roots([a] * 4, q), q)
        return _spec([_prime("K", q), _monogenic("T", "K", red)], "T"), q + 4
    if q != 4:
        raise ValueError(q)
    # char 2: (Y + a)^4 = Y^4 + a^4 and a^4 = a in F_4
    K = ring.galois_field(4)
    a = [int(v) for v in K.elements_array()[rng.randrange(4)]]
    red = [a, [0, 0], [0, 0], [0, 0]]
    T, embed, _ = ring.monogenic_quotient(K, 4, [tuple(v) for v in red])
    cons = [{"name": "K", "op": "galois_field", "args": {"q": 4}},
            _monogenic("T", "K", red)]
    return _spec(cons, "T", embed.rows), q + 4


def split_power_spec(p, n, rng):
    """F_p^n over F_p, as a product of split monogenic blocks in a seeded
    arrangement (a block F_p[Y]/prod(Y - r_i) with distinct roots is a
    product of copies of F_p): Bell(n) nodes."""
    cons = [_prime("K", p)]
    factors = []
    left = n
    while left:
        m = rng.randint(1, min(p, left))
        left -= m
        name = f"B{len(factors)}"
        if m == 1:
            factors.append("K")
            continue
        roots = rng.sample(range(p), m)
        cons.append(_monogenic(name, "K",
                               _reduction(_poly_from_roots(roots, p), p)))
        factors.append(name)
    rng.shuffle(factors)
    if len(factors) == 1:
        top = factors[0]
    else:
        cons.append({"name": "T", "op": "product",
                     "args": {"factors": factors}})
        top = "T"
    return _spec(cons, top), oracle.bell(n)


def galois_spec(p, k, rng):
    """F_p[Y]/(f) for a seeded monic irreducible f of degree k: d(k) nodes."""
    while True:
        coeffs = [rng.randrange(p) for _ in range(k)] + [1]
        if coeffs[0] and _is_irreducible(coeffs, p):
            break
    red = _reduction(coeffs, p)
    return (_spec([_prime("K", p), _monogenic("T", "K", red)], "T"),
            oracle.divisor_count(k))


def f8_square_times_f2_spec(rng):
    """F_8[Y]/((Y - a)^2) x F_2 over its prime subring, factors in seeded
    order; the oracle gives the node count."""
    K = ring.galois_field(8)
    plain = oracle.PlainRing.of(K)
    a = K.elements_array()[rng.randrange(1, 8)]
    a2 = [int(v) for v in plain.mul([a], a)[0]]  # (Y + a)^2 = Y^2 + a^2
    factors = ["A", "F"]
    rng.shuffle(factors)
    cons = [{"name": "K", "op": "galois_field", "args": {"q": 8}},
            _monogenic("A", "K", [a2, [0, 0, 0]]),
            _prime("F", 2),
            {"name": "T", "op": "product", "args": {"factors": factors}}]
    return _spec(cons, "T"), None


FIXTURES = ("b5101_q2.json", "remark_1317.json")


class SpecCommands(Workload):
    """The five spec commands through fcplat.cli.main, in-process.

    Each command re-reads its spec file, so parsing, ring construction and
    validation, lattice enumeration and the JSON/DOT export are paid on every
    call, as by a user at the command line.
    """

    def __init__(self, root, out_dir):
        self.root = Path(root)
        self.out_dir = Path(out_dir)

    def setup(self, seed):
        rng = random.Random(seed)
        specs = []
        for fixture in FIXTURES:
            path = self.root / "fixtures" / fixture
            specs.append((fixture[:-5], json.loads(path.read_text()), None))
        for q in (2, 3, 4):
            specs.append((f"trunc_q{q}", *truncated_spec(q, rng)))
        for p, n in ((2, 3), (2, 4), (3, 3), (3, 4), (2, 5)):
            specs.append((f"split_p{p}_n{n}", *split_power_spec(p, n, rng)))
        for p, k in ((2, 4), (3, 4), (2, 6)):
            specs.append((f"gf_{p}^{k}", *galois_spec(p, k, rng)))
        specs.append(("f8sq_x_f2", *f8_square_times_f2_spec(rng)))

        spec_dir = self.out_dir / f"specs-{seed}"
        spec_dir.mkdir(parents=True, exist_ok=True)
        self.specs = []
        for name, doc, closed_form in specs:
            path = spec_dir / f"{name}.json"
            path.write_text(json.dumps(doc, indent=1) + "\n")
            self.specs.append((name, path, doc, closed_form))
        self.dot_path = spec_dir / "hasse.dot"
        self.round_size = len(self.specs) * len(COMMANDS)

    def warm_up(self):
        _run_cli(["lattice", str(self.root / "fixtures" / FIXTURES[0])])

    def round(self):
        ops = []
        for name, path, _, _ in self.specs:
            for cmd in COMMANDS:
                argv = [cmd, str(path)]
                if cmd in DOT_COMMANDS:
                    argv += ["--dot", str(self.dot_path)]
                ops.append(((name, cmd), lambda argv=argv: _run_cli(argv)))
        return ops

    def span_name(self, label):
        return f"cli.{label[1]}"

    def check_round(self, results, first):
        errors = []
        if first:
            self.truth = {}
            for name, path, doc, closed_form in self.specs:
                _, ext = specfile.parse_spec(path.read_text())
                plain = oracle.PlainRing.of(ext.top)
                gens = doc["extension"]["bottom"]["generated_by"]
                masks = plain.interval(gens)
                if closed_form is not None and len(masks) != closed_form:
                    errors.append(f"{name}: oracle {len(masks)} nodes, "
                                  f"closed form {closed_form}")
                self.truth[name] = (plain, ext.top.orders, masks)
        order = {}  # spec -> oracle position of each program node index
        for (name, cmd), text in results:
            try:
                payload = json.loads(text)
            except json.JSONDecodeError:
                errors.append(f"{name} {cmd}: output is not JSON")
                continue
            errors += [f"{name} {cmd}: {e}" for e in _check_command(
                cmd, payload, order.setdefault(name, []), *self.truth[name])]
        return errors


class CommandFailed(RuntimeError):
    pass


def _run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise CommandFailed(f"fcplat {' '.join(argv)} exited {code}")
    return out.getvalue()


def _check_command(cmd, payload, order, plain, orders, masks):
    """Errors in one command's JSON.  The lattice command fills order (the
    oracle position of each program node), which classify then uses, since
    its edges name nodes by the program's index alone."""
    n = len(masks)
    count = payload.get("node_count")
    if cmd == "count":
        formula = payload["sum_formula"]
        errors = []
        if not payload["routes_agree"]:
            errors.append("count routes disagree")
        if not formula["total"] == formula["node_count"] == n:
            errors.append(f"sum formula total {formula['total']}, {n} nodes")
        return errors
    if count != n:
        return [f"{count} nodes, oracle {n}"]

    def node_key(key_rows):
        members = plain.span([oracle.unscale(r, orders) for r in key_rows])
        return oracle.key(plain.mask(members))

    if cmd == "closures":
        closures = payload["closures"]
        t = int.from_bytes(node_key(closures["t"]["key"]), "big")
        for inner in ("plus", "u"):
            x = int.from_bytes(node_key(closures[inner]["key"]), "big")
            if x & t != x:
                return [f"{inner}-closure not inside the t-closure"]
        return []
    if cmd in ("lattice", "classify"):
        position = {oracle.key(m): i for i, m in enumerate(masks)}
        if cmd == "lattice":
            keys = [node_key(node["key"]) for node in payload["nodes"]]
            if sorted(keys) != sorted(position):
                return ["node sets differ from the oracle's"]
            order[:] = [position[k] for k in keys]
        elif not order:
            return ["no lattice output to place the nodes"]
        edges = {(order[e["from"]], order[e["to"]]) for e in payload["edges"]}
        if edges != oracle.covers(masks):
            return ["Hasse edges are not the covers of the oracle's nodes"]
    return []
