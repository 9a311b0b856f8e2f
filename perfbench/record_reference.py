"""Record the reference digests the benchmark checks outputs against.

    python3 perfbench/record_reference.py [--seeds 0 20231117] [--mode full|smoke]

Run this only at a commit whose outputs are known good: every later run
of run.py compares against what it writes.  For each workload it stores
the seed-independent (canonical) digest of every operation, which must
agree across all recorded seeds, and the exact digests per seed.
"""

import argparse
import json
import sys

import run
import workloads


def record(wl, seed):
    m = run.import_program()
    wl.setup(m)
    with workloads.scratch_dir(run.OUT) as scratch:
        return [op.check(op.call()) for op in wl.ops(m, seed, scratch)]


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 20231117])
    p.add_argument("--mode", choices=("full", "smoke"), action="append")
    args = p.parse_args(argv)
    sys.path.insert(0, str(run.SRC))
    try:
        with open(run.REFERENCE) as fh:
            ref = json.load(fh)
    except FileNotFoundError:
        ref = {}
    ref["seeds"] = args.seeds
    for mode in args.mode or ("smoke", "full"):
        table = workloads.SMOKE if mode == "smoke" else workloads.WORKLOADS
        section = ref.setdefault(mode, {})
        for name, wl in table.items():
            exact, canonical = {}, None
            for seed in args.seeds:
                outcomes = record(wl, seed)
                digests = [o.canonical for o in outcomes]
                if canonical is not None and digests != canonical:
                    raise SystemExit(f"{mode}/{name}: canonical digests depend on the seed")
                canonical = digests
                exact[str(seed)] = [o.exact for o in outcomes]
                print(f"{mode}/{name} seed {seed}: {len(outcomes)} operations", flush=True)
            section[name] = {"canonical": canonical, "exact": exact}
    with open(run.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
