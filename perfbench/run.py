"""Benchmark for the polarpart verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Runs one workload (see README.md) against the polarpart sources in `src/`
of this checkout, in this one process.  It checks every operation's output
against the reference digests in `reference.json` and prints, as the last
line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With `--trace 0` the metrics are the end-to-end ones (`wall_s`, `setup_s`,
`peak_rss_mb`); with `--trace 1` they are the per-layer ones, taken from
spans and counters wrapped around the program's entry points (tracer.py).
The lines before it give each timing's sample count and tail percentile,
the per-operation times and the error rate.
"""

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import tracer as tracing
import workloads

T_START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
SETUP_REPEATS = 5  # before the passes, and again after them

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

# Per-layer metrics.  `<name>_s` is the inclusive time of the span or hot
# entry point <name>, `<name>_calls` its call count, `<module>.self_s` the
# module's self time; see tracer.py.
PER_LAYER = (
    "gf.make_field_s", "gf.find_normal_element_s",
    "adg.check_polarity_s", "adg.count_absolute_bulk_s",
    "adg.neighbors_coords_calls", "adg.neighbors_coords_s",
    "adg.point_on_calls", "adg.line_through_calls", "adg.is_absolute_calls",
    "adg.incident_calls", "adg.self_s",
    "partitions.scheme_partition_s", "partitions.unique_edge_calls",
    "partitions.loop_vertex_calls", "partitions.class_members_calls",
    "partitions.self_s",
    "graphs.materialize_s", "graphs.materialize_calls", "graphs.contains_C4_s",
    "graphs.find_even_cycle.C4_s", "graphs.find_even_cycle.C6_s", "graphs.girth_s",
    "graphs.pair_edge_matrix_s", "graphs.write_edge_list_s", "graphs.read_edge_list_s",
    "graphs.read_partition_s", "graphs.self_s",
    "verify.verdict_s", "verify.check_unique_edges_s", "verify.luw_report_s",
    "verify.sampled_even_cycle.C4_s", "verify.sampled_even_cycle.C6_s",
    "verify.sampled_even_cycle.C8_s", "verify.verify_gh_original_s", "verify.self_s",
    "cli.main_s", "cli.bytes_written", "cli.self_s",
    "traced.wall_s",
)


def per_layer_unit(name):
    if name.endswith("_calls"):
        return "count"
    if name == "cli.bytes_written":
        return "bytes"
    return "s"


def per_layer_value(name, tr, wall_s):
    if name == "traced.wall_s":
        return wall_s
    if name == "cli.bytes_written":
        return tr.bytes_written
    if name.endswith(".self_s"):
        return tr.self_s.get(name[:-len(".self_s")], 0.0)
    if name.endswith("_calls"):
        return tr.calls.get(name[:-len("_calls")], 0)
    return tr.total_s.get(name[:-len("_s")], 0.0)


def import_program():
    """Fresh import of polarpart from src/ (drops any earlier copy)."""
    for name in [n for n in sys.modules if n == "polarpart" or n.startswith("polarpart.")]:
        del sys.modules[name]
    package = importlib.import_module("polarpart")
    mods = {name: importlib.import_module(f"polarpart.{name}")
            for name in ("gf", "graphs", "adg", "partitions", "verify", "cli")}
    return SimpleNamespace(package=package, **mods)


def set_up(wl, repeats, samples):
    """Import polarpart afresh and build the workload's family bundles,
    `repeats` times, appending each duration to `samples`."""
    for _ in range(repeats):
        start = time.perf_counter()
        m = import_program()
        wl.setup(m)
        samples.append(time.perf_counter() - start)
    return m


def summarize(samples):
    """(median, (percentile, value) or None, n): the tail percentile is the
    highest of the usual ones with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    for p in (99.9, 99, 95, 90, 75, 50):
        if n * (100 - p) / 100 >= 10:
            tail = (p, ordered[math.ceil(p / 100 * n) - 1])
            break
    return statistics.median(ordered), tail, n


def describe(name, unit, samples):
    med, tail, n = summarize(samples)
    pct = f"p{tail[0]:g} {tail[1]:.6g} {unit}" if tail else "no percentile has 10 samples beyond it"
    return f"# {name}: median {med:.6g} {unit}, {pct}, n={n}"


def load_reference(workload, smoke):
    with open(REFERENCE) as fh:
        ref = json.load(fh)
    return ref["smoke" if smoke else "full"][workload]


def check_outcome(outcome, index, ref, seed):
    """Compare one operation's digests with the reference; None if they match."""
    if outcome.canonical != ref["canonical"][index]:
        return "canonical digest differs from the reference"
    exact = ref["exact"].get(str(seed))
    if exact is not None and outcome.exact != exact[index]:
        return f"digest for seed {seed} differs from the reference"
    return None


def run_ops(wl, m, seed, scratch, ref, tr, log):
    """One pass over the workload's operations: (op seconds, failures)."""
    times, failed = [], 0
    for index, op in enumerate(wl.ops(m, seed, scratch)):
        if tr is not None:
            tr.op = index + 1
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # an operation that raises counts as failed
            times.append(time.perf_counter() - start)
            failed += 1
            log(f"# FAIL {op.label}: {type(exc).__name__}: {exc}")
            continue
        times.append(time.perf_counter() - start)
        try:
            problem = check_outcome(op.check(result), index, ref, seed)
        except Exception as exc:  # includes a report too malformed to check
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            failed += 1
            log(f"# FAIL {op.label}: {problem}")
    return times, failed


def measure(args, log):
    wl = workloads.get(args.workload, args.smoke)
    ref = load_reference(args.workload, args.smoke)
    tr = None
    setup_samples = []
    if args.trace:
        # one set-up, traced: the gf spans of interest happen here
        start = time.perf_counter()
        m = import_program()
        tr = tracing.Tracer()
        tracing.install(tr, m)
        wl.setup(m)
        setup_samples.append(time.perf_counter() - start)
    else:
        m = set_up(wl, SETUP_REPEATS, setup_samples)
    first_op_at = time.perf_counter() - T_START

    pass_s, op_s, attempted, failed = [], [], 0, 0
    begin = time.perf_counter()
    while True:
        with workloads.scratch_dir(OUT) as scratch:
            times, bad = run_ops(wl, m, args.seed, scratch, ref, tr, log)
        pass_s.append(sum(times))
        op_s.extend(times)
        attempted += len(times)
        failed += bad
        # Whole passes only: stop when another one would overrun --seconds.
        # A traced run makes one pass, so its counts are those of one pass.
        if tr is not None or time.perf_counter() - begin + pass_s[-1] > args.seconds:
            break

    if tr is None:
        # The host's speed drifts over seconds; set-ups taken after the
        # passes as well as before sample it at both ends of the run.
        set_up(wl, SETUP_REPEATS, setup_samples)
    wall_s = statistics.median(pass_s)
    setup_s = statistics.median(setup_samples)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    log(describe("wall_s (per pass)", "s", pass_s))
    log(describe("operation time", "s", op_s))
    log(describe("setup_s (import + family bundles)", "s", setup_samples))
    log(f"# run.py start to first timed operation: {first_op_at:.6g} s")
    log(f"# passes {len(pass_s)}, error_rate {failed}/{attempted} = {failed / attempted:.6g}")

    if tr is None:
        metrics = {"wall_s": wall_s, "setup_s": setup_s, "peak_rss_mb": rss_mb}
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    else:
        metrics = {name: {"value": per_layer_value(name, tr, wall_s), "unit": per_layer_unit(name)}
                   for name in PER_LAYER}
        OUT.mkdir(exist_ok=True)
        path = OUT / f"trace-{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}.json"
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                       "wall_s": wall_s, **tr.to_json()}, fh)
        log(f"# trace written to {path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="measuring time; passes repeat while another one fits")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="small instances (plane q=2, gq e=1, gh samples / 100)")
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "polarpart" / "__init__.py").is_file():
        print(f"error: no polarpart sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = measure(args, lambda line: print(line, flush=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
