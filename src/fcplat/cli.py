"""Command-line interface.

Commands::

    fcplat lattice SPEC [--dot PATH] [--json PATH] [--max-size N]
    fcplat closures SPEC [--json PATH] [--max-size N]
    fcplat coclosures SPEC [--json PATH] [--max-size N]
    fcplat classify SPEC [--dot PATH] [--json PATH] [--max-size N]
    fcplat count SPEC [--json PATH] [--max-size N]
    fcplat verify [SUITE] [--suite NAME] [--seed N] [--count N]
                  [--max-size N] [--json PATH]
    fcplat corpus [--seed N] [--count N] [--max-size N] [--json PATH]

Every command prints one canonical JSON document to stdout; --json writes
the same bytes to a file, --dot writes the Hasse diagram in DOT format.
--max-size caps constructed ring sizes (default 4096); it must be at least
2 for the spec commands and at least 4, the smallest top of a proper
extension, for verify and corpus; --count must be at least 1.  The node
budget for lattice enumeration honours FCPLAT_MAX_NODES (at least 1).

Exit codes: 0 success, 1 verified-property violation, 2 input error, an
unwritable --json or --dot path included.
"""

import argparse
import sys

from .closures import closure_report, seminormalization, t_closure, u_closure
from .coclosures import CoClosure, coclosure_report
from .corpus import MIN_TOP_SIZE, CorpusConfig, generate_corpus
from .counting import (
    complement_count_formula,
    complement_count_lattice,
    t_closure_node,
    verify_sum_formula,
)
from .exports import export_dot, export_json, lattice_report
from .lattice import ExtensionLattice, InvalidNodeBudget, LatticeBudgetExceeded
from .minimal import NotMinimalError, edge_labels
from .specfile import SpecError, parse_spec
from .spectrum import is_unramified
from .verify import SUITES, run_suite

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2

SUITE_NAMES = tuple(SUITES) + ("all",)
DEFAULT_MAX_SIZE = CorpusConfig.max_size


def _load(path, max_size):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise SpecError(f"cannot read {path}: {exc}") from exc
    _, ext = parse_spec(text, max_size=max_size)
    return ext, ExtensionLattice(ext)


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise SpecError(f"cannot write {path}: {exc}") from exc


def _node_info(lattice, sub):
    return {
        "index": lattice.index[sub.key],
        "size": sub.size,
        "key": sub.key,
    }


def cmd_lattice(args):
    ext, lat = _load(args.spec, args.max_size)
    report = lattice_report(lat)
    report["top_size"] = ext.top.size
    report["bottom_size"] = ext.bottom.size
    if args.dot:
        _write(args.dot, export_dot(lat))
    return report, EXIT_OK


def cmd_closures(args):
    ext, lat = _load(args.spec, args.max_size)
    closures = closure_report(lat)
    return {
        "closures": {
            name: _node_info(lat, sub) for name, sub in closures.items()
        },
        "flags": {
            "seminormal": closures["plus"] == ext.bottom,
            "t_closed": closures["t"] == ext.bottom,
            "u_closed": closures["u"] == ext.bottom,
            "unramified": is_unramified(ext),
        },
        "node_count": lat.node_count(),
    }, EXIT_OK


def _co_info(lattice, value):
    if not isinstance(value, CoClosure):  # degenerate hulls are plain nodes
        return {"exists": True, "node": _node_info(lattice, value)}
    out = {
        "exists": value.exists,
        "qualifying": list(value.qualifying),
        "meet": _node_info(lattice, value.meet),
    }
    if value.exists:
        out["node"] = _node_info(lattice, value.node)
    else:
        out["certificate"] = value.certificate
    return out


def cmd_coclosures(args):
    _, lat = _load(args.spec, args.max_size)
    report = coclosure_report(lat)
    return {
        "coclosures": {
            name: _co_info(lat, value) for name, value in report.items()
        },
        "node_count": lat.node_count(),
    }, EXIT_OK


def cmd_classify(args):
    ext, lat = _load(args.spec, args.max_size)
    labels = edge_labels(lat)
    edges = [
        {
            "from": i,
            "to": j,
            "kind": labels[(i, j)].kind,
            "crucial_key": labels[(i, j)].crucial_key,
        }
        for i, j in lat.hasse_edges()
    ]
    counts = {"inert": 0, "decomposed": 0, "ramified": 0}
    for e in edges:
        counts[e["kind"]] += 1
    if args.dot:
        _write(args.dot, export_dot(lat))
    return {
        "edges": edges,
        "edge_counts": counts,
        "extension": {
            "subintegral": ext.is_subintegral(),
            "infra_integral": ext.is_infra_integral(),
            "i_extension": ext.is_i_extension(),
            "unramified": is_unramified(ext),
            "seminormal": seminormalization(ext) == ext.bottom,
            "t_closed": t_closure(ext) == ext.bottom,
            "u_closed": u_closure(ext) == ext.bottom,
        },
        "node_count": lat.node_count(),
    }, EXIT_OK


def cmd_count(args):
    _, lat = _load(args.spec, args.max_size)
    t_node = t_closure_node(lat)
    n_lat = complement_count_lattice(lat)
    n_form = complement_count_formula(lat.ext)
    table, total = verify_sum_formula(lat, cross_check=True)
    payload = {
        "t_closure": _node_info(lat, t_node),
        "complements_lattice": n_lat,
        "complements_formula": n_form,
        "routes_agree": n_lat == n_form,
        "sum_formula": {
            "terms": [
                {"low": i, "high": j, "n": n}
                for (i, j), n in sorted(table.items())
            ],
            "total": total,
            "node_count": lat.node_count(),
        },
    }
    code = EXIT_OK if n_lat == n_form else EXIT_VIOLATION
    return payload, code


def _pick_suite(args):
    names = {n for n in (args.suite_pos, args.suite) if n}
    if len(names) > 1:
        raise SpecError(
            f"conflicting suite names: {sorted(names)}"
        )
    name = names.pop() if names else "all"
    if name not in SUITE_NAMES:
        raise SpecError(
            f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}"
        )
    return name


def cmd_verify(args):
    suite = _pick_suite(args)
    cfg = CorpusConfig(seed=args.seed, count=args.count, max_size=args.max_size)
    entries = generate_corpus(cfg)
    report, ok = run_suite(entries, suite)
    payload = {
        "suite": suite,
        "seed": cfg.seed,
        "count": cfg.count,
        "checks": report,
        "ok": ok,
    }
    return payload, EXIT_OK if ok else EXIT_VIOLATION


def cmd_corpus(args):
    cfg = CorpusConfig(seed=args.seed, count=args.count, max_size=args.max_size)
    entries = generate_corpus(cfg)
    return {
        "seed": cfg.seed,
        "count": len(entries),
        "entries": [
            {
                "name": e.name,
                "description": e.description,
                "top_size": e.ext.top.size,
                "bottom_size": e.ext.bottom.size,
                "node_count": e.lattice.node_count(),
                "length": e.lattice.length(),
            }
            for e in entries
        ],
    }, EXIT_OK


def at_least(least):
    """The argparse type of an integer N >= least."""
    def integer(text):
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"{n} is below {least}")
        return n

    return integer


def max_size_arg(parser, help_, least):
    """--max-size N with N >= least: a smaller cap admits no input at all."""
    parser.add_argument(
        "--max-size", type=at_least(least), default=DEFAULT_MAX_SIZE,
        metavar="N",
        help=f"{help_} (default {DEFAULT_MAX_SIZE}, at least {least})",
    )


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fcplat",
        description=(
            "Subalgebra lattices, closures and co-closures of finite "
            "commutative ring extensions"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def spec_cmd(name, fn, help_, dot=False):
        p = sub.add_parser(name, help=help_)
        p.add_argument("spec", help="ring-spec JSON file")
        p.add_argument("--json", help="also write the JSON report to PATH")
        if dot:
            p.add_argument("--dot", help="write the Hasse diagram to PATH")
        max_size_arg(p, "reject constructed rings larger than N", 2)
        p.set_defaults(fn=fn)
        return p

    spec_cmd("lattice", cmd_lattice,
             "enumerate the lattice [R, S]", dot=True)
    spec_cmd("closures", cmd_closures, "all closure operators of R in S")
    spec_cmd("coclosures", cmd_coclosures,
             "co-closures of R in S, with certificates")
    spec_cmd("classify", cmd_classify,
             "label every Hasse edge inert/decomposed/ramified", dot=True)
    spec_cmd("count", cmd_count,
             "complement counts of the t-closure and the sum formula")

    pv = sub.add_parser("verify", help="run a verification suite on a corpus")
    pv.add_argument("suite_pos", nargs="?", metavar="suite",
                    help=f"one of: {', '.join(SUITE_NAMES)}")
    pv.add_argument("--suite", help="suite name (same as the positional)")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--count", type=at_least(1), default=300)
    max_size_arg(pv, "cap on the size of corpus tops", MIN_TOP_SIZE)
    pv.add_argument("--json", help="also write the JSON report to PATH")
    pv.set_defaults(fn=cmd_verify)

    pc = sub.add_parser("corpus", help="generate and describe a seeded corpus")
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--count", type=at_least(1), default=300)
    max_size_arg(pc, "cap on the size of corpus tops", MIN_TOP_SIZE)
    pc.add_argument("--json", help="also write the JSON report to PATH")
    pc.set_defaults(fn=cmd_corpus)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, code = args.fn(args)
        text = export_json(payload)
        if args.json:
            _write(args.json, text)
    except (SpecError, LatticeBudgetExceeded, InvalidNodeBudget) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (AssertionError, NotMinimalError) as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
