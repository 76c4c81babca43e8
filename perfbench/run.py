"""Run one benchmark workload of fcplat and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; fcplat is imported from its ``src``.  The
workload's inputs come from the seed alone.  The timed phase repeats whole
rounds of the same operations, each round on fresh inputs, and starts another
round only while it would end less than half a round past ``--seconds``.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics; with
``--trace 1`` the per-layer metrics of the first round, taken from spans that
``spans.py`` puts around fcplat's public functions.  Either way a run record
with the machine's state (Python and NumPy versions, CPU count, load, and a
fixed calibration loop timed before and after) goes to
``perfbench/out/run-<workload>-<seed>-<trace>.json``.  Everything else goes
to stderr.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # one thread: the numbers are single-core numbers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("verify_corpus", "corpus_build", "spec_commands")
SETUP_REPEATS = 3


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def calibrate():
    """Seconds for a fixed pure-Python loop (median of three)."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def tail(times, rounds, beyond):
    """The time with ``beyond`` operations per round beyond it, or None.

    Pooled over all rounds, it sits at the same percentile of the round,
    100 * (1 - beyond / round size), however many rounds a run fits.
    """
    if len(times) < 4 * beyond * rounds:
        return None
    return sorted(times)[-beyond * rounds - 1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if sys.flags.optimize:
        fail("refusing to run under python -O: fcplat's verdicts are assert "
             "statements, and -O strips them")
    if not (ROOT / "src" / "fcplat" / "__init__.py").is_file():
        fail(f"no fcplat sources under {ROOT / 'src'}; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    calibration_before = calibrate()
    calibration_s = time.perf_counter() - start
    setup_start = time.perf_counter()

    import numpy
    import fcplat.cli  # noqa: F401
    import spans
    import workloads

    if args.workload == "verify_corpus":
        workload = workloads.VerifyCorpus()
    elif args.workload == "corpus_build":
        workload = workloads.CorpusBuild()
    else:
        workload = workloads.SpecCommands(ROOT, OUT)
    import_s = time.perf_counter() - START - calibration_s

    start = time.perf_counter()
    workload.select(args.seed)
    select_s = time.perf_counter() - start
    builds = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(args.seed)
        builds.append(time.perf_counter() - start)
    start = time.perf_counter()
    workload.warm_up()
    warm_up_s = time.perf_counter() - start
    # the benchmark's own selection (select_s) is left out
    setup_s = import_s + warm_up_s + statistics.median(builds)
    setup_wall = time.perf_counter() - setup_start

    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    first_round = None
    slowest = []
    rounds = 0
    op_times = []
    attempted = 0
    timed = 0.0
    failures = []  # operations that raised
    errors = []  # outputs that failed a check
    while True:
        ops = workload.round()
        results = []
        times = []
        round_start = time.perf_counter()
        for label, op in ops:
            span = tracer and workload.span_name(label)
            start = time.perf_counter()
            try:
                result = tracer.wrap(span, op)() if span else op()
            except Exception as exc:  # a failed operation is counted
                failures.append(f"operation {label!r} raised {exc!r}")
            else:
                results.append((label, result))
            times.append(time.perf_counter() - start)
        round_s = time.perf_counter() - round_start
        attempted += len(ops)
        timed += round_s
        op_times += times
        rounds += 1
        if not slowest:
            slowest = sorted(zip(times, (str(label) for label, _ in ops)),
                             reverse=True)[:12]
        if tracer and first_round is None:
            first_round = tracer.snapshot()
        errors += workload.check_round(results, first=rounds == 1)
        del ops, results
        if timed + round_s / 2 >= args.seconds:
            break
    if tracer:
        tracer.uninstall()
    calibration_after = calibrate()

    items_per_s = (attempted - len(failures)) / timed
    metrics = {}
    if tracer:
        for name, (value, unit) in spans.layer_metrics(first_round).items():
            metrics[name] = {"value": value, "unit": unit}
    else:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        metrics["items_per_s"] = {"value": items_per_s, "unit": "1/s"}
        metrics["item_p50_ms"] = {
            "value": statistics.median(op_times) * 1e3, "unit": "ms"}
        tail_s = tail(op_times, rounds, workload.tail_beyond)
        if tail_s is not None:
            metrics["item_tail_ms"] = {"value": tail_s * 1e3, "unit": "ms"}
        metrics["peak_rss_mb"] = {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MB"}

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "round_size": workload.round_size,
        "tail_percentile": 100 * (1 - workload.tail_beyond
                                   / workload.round_size),
        "timed_s": timed,
        "items_per_s": items_per_s,
        "setup": {"import_s": import_s, "warm_up_s": warm_up_s,
                  "builds_s": builds, "select_s": select_s,
                  "wall_s": setup_wall},
        "machine": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "loadavg": os.getloadavg(),
            "calibration_before_s": calibration_before,
            "calibration_after_s": calibration_after,
        },
        "slowest_first_round": [(label, t * 1e3) for t, label in slowest],
        "failures": failures[:50],
        "errors": errors[:50],
        "metrics": metrics,
    }
    if tracer:
        record["first_round_spans"] = first_round
        record["all_rounds_spans"] = tracer.snapshot()
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"run-{args.workload}-{args.seed}-{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    for line in (failures + errors)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{rounds} rounds of {workload.round_size}, "
          f"{items_per_s:.3f} ops/s, record in {out_path}", file=sys.stderr)
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
