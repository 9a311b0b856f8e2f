"""Check that the traced run's work counters are deterministic, and report
the tracing overhead.

    python3 perfbench/check_trace.py --workload NAME [--seed N] [--smoke]

Runs run.py once untraced and twice traced with the same seed, one after
the other.  Fails (exit 1) if any run is incorrect or if any count metric
(`*_calls`, `cli.bytes_written`) differs between the two traced runs.
Prints the overhead as traced `wall_s` minus untraced `wall_s`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

RUN = Path(__file__).resolve().parent / "run.py"


def bench(args, trace):
    cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(trace)]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True,
                          cwd=RUN.parent.parent, timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)

    plain = bench(args, 0)
    traced = [bench(args, 1), bench(args, 1)]
    ok = plain["correct"] and all(t["correct"] for t in traced)
    counts = [{k: v["value"] for k, v in t["metrics"].items() if v["unit"] in ("count", "bytes")}
              for t in traced]
    for name in sorted(counts[0]):
        if counts[0][name] != counts[1].get(name):
            ok = False
            print(f"count {name} differs: {counts[0][name]} vs {counts[1].get(name)}")
    untraced_s = plain["metrics"]["wall_s"]["value"]
    traced_s = statistics.median(t["metrics"]["traced.wall_s"]["value"] for t in traced)
    print(f"{len(counts[0])} counts compared; tracing overhead {traced_s - untraced_s:.4g} s "
          f"(traced {traced_s:.4g} s, untraced {untraced_s:.4g} s)")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
