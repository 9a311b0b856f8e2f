"""Batch command-line interface.

Subcommands: build (edge list), partition (partition + class-key sidecar),
verify (JSON report), oracle (exact psi / chi_a of a small edge list), and
report (build + partition + verify end to end).  All outputs are
byte-deterministic for a fixed configuration and seed.

Exit codes: 0 all verdicts pass, 1 verification failure (report still
written), 2 invalid configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import adg, partitions as parts, verify as ver
from .graphs import (
    edge_count, materialize, read_edge_list, read_partition, write_edge_list,
    write_partition,
)

FAMILIES = ("plane", "gq", "gh", "gh-original", "generic")


@functools.cache
def _parser():
    """The argument parser, built once per process: in-process callers run
    main many times, and a build costs about twenty parses."""
    p = argparse.ArgumentParser(
        prog="polarpart",
        description="Construct polarity graphs over finite fields, build their "
                    "complete partitions in closed form, and verify every claim.")
    sub = p.add_subparsers(dest="subcommand", required=True)
    # report calls cmd_verify, and build checks gh-original's arguments
    p.set_defaults(edges_path=None, partition_path=None, mode=None)

    def add_common(name):
        sp = sub.add_parser(name)
        sp.add_argument("family", choices=FAMILIES)
        sp.add_argument("--q", type=int, help="prime power parameter (plane, gh-original)")
        sp.add_argument("--e", type=int, help="exponent parameter (gq: q=2^(2e+1), gh: q=3^(2e+1))")
        if name in ("report", "verify"):
            sp.add_argument("--mode", choices=("exhaustive", "sampled"),
                            help="verification mode; default picks by instance size")
            sp.add_argument("--seed", type=int, default=0, help="seed for all sampling")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--spec", dest="spec_path", help="JSON spec file (generic family)")
        sp.add_argument("--override-small-e", action="store_true",
                        help="allow e=0 for gq/gh; the polarity check still runs and is reported")
        sp.add_argument("--limit", type=int, default=ver.DEFAULT_MATERIALIZE_LIMIT,
                        help="materialization ceiling in vertices")
        return sp

    for name in ("build", "partition", "report"):
        add_common(name)
    spv = add_common("verify")
    spv.add_argument("--edges", dest="edges_path", help="verify this edge list instead of constructing")
    spv.add_argument("--partition", dest="partition_path", help="verify this partition file")
    spo = sub.add_parser("oracle")
    spo.add_argument("--edges", dest="edges_path", required=True)
    return p


def _stem(args) -> str:
    if args.family == "plane":
        return f"plane_q{args.q}"
    if args.family in ("gq", "gh"):
        return f"{args.family}_e{args.e}"
    if args.family == "gh-original":
        return f"gh-original_q{args.q}"
    return "generic"


class ConfigError(Exception):
    pass


def _bundle(args):
    """family_bundle for a family subcommand's arguments."""
    kw = {"allow_small_e": args.override_small_e}
    if args.family == "plane":
        kw["q"] = args.q
    elif args.family in ("gq", "gh"):
        kw["e"] = args.e
    elif args.family == "generic":
        if args.spec_path is None:
            raise ConfigError("generic family needs --spec")
        with open(args.spec_path) as fh:
            kw["spec_json"] = json.load(fh)
    return ver.family_bundle(args.family, **kw)


def _write(path, text):
    """Write text to path, making its directory (--out) at the first write."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_json(path, obj):
    _write(path, json.dumps(obj, indent=2, sort_keys=True, default=_jsonable) + "\n")


def _jsonable(x):
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    if x == math.inf:
        return "inf"
    raise TypeError(f"not JSON-serializable: {x!r}")


def _gh_original_q(args) -> int:
    """--q for gh-original, whose only check is the exhaustive map check
    on its own construction: it refuses files and sampled mode."""
    if args.q is None:
        raise ConfigError("gh-original needs --q")
    if args.edges_path or args.partition_path or args.mode == "sampled":
        raise ConfigError("gh-original is verified exhaustively from its construction; "
                          "it takes no --edges, --partition or --mode sampled")
    return args.q


def _polarity_graph(args, bundle):
    """Refuse an instance above the ceiling, else check the bundle's
    polarity exhaustively and materialize its graph: (graph, the
    PolarityCheck)."""
    spec, pol, _, _ = bundle
    if spec.side_size > args.limit:
        raise ConfigError(f"{spec.side_size} vertices exceed materialization ceiling {args.limit}")
    pg = adg.build_polarity_graph(spec, pol)
    return materialize(pg.n, pg.arrays, args.limit), pg.check


def _write_graph(args, g):
    path = os.path.join(args.out, _stem(args) + ".edges")
    _write(path, write_edge_list(g))
    print(f"wrote {path} ({g.n} vertices, {edge_count(g)} edges)")


def _write_partition(args, bundle):
    """The scheme's partition, written with its class-key sidecar."""
    spec, _, scheme, _ = bundle
    if spec.side_size > args.limit:
        raise ConfigError(
            f"{spec.side_size} vertices exceed the ceiling {args.limit}; "
            "the partition file would not be writable at desk scale")
    part = parts.scheme_partition(scheme, spec)
    stem = _stem(args)
    _write(os.path.join(args.out, stem + ".partition"), write_partition(part))
    _write_json(os.path.join(args.out, stem + ".classes.json"),
                parts.class_key_sidecar(scheme))
    print(f"wrote {stem}.partition ({part.r} classes) and {stem}.classes.json")
    return part


def _write_report(args, report) -> int:
    stem = _stem(args)
    path = os.path.join(args.out, stem + ".report.json")
    _write_json(path, report)
    ok = report["ok"]
    print(f"{'PASS' if ok else 'FAIL'} {stem}: report at {path}")
    if not ok and report.get("witnesses"):
        print(f"  first witness: {report['witnesses'][0]}")
    return 0 if ok else 1


def cmd_build(args) -> int:
    if args.family == "gh-original":
        spec, _ = adg.gh_original_family(_gh_original_q(args))
        g = materialize(2 * spec.side_size, spec.bipartite_arrays, args.limit)
    else:
        g = _polarity_graph(args, _bundle(args))[0]
    _write_graph(args, g)
    return 0


def cmd_partition(args) -> int:
    if args.family == "gh-original":
        raise ConfigError(f"family {args.family} has no vertex partition")
    _write_partition(args, _bundle(args))
    return 0


def cmd_verify(args, bundle=None) -> int:
    """Verify a family instance; `bundle` is a family_bundle result already
    built for args, or None to build it."""
    if args.family == "gh-original":
        report = ver.verify_gh_original(_gh_original_q(args), materialize_limit=args.limit)
    else:
        graph = partition = None
        if args.edges_path:
            with open(args.edges_path) as fh:
                graph = read_edge_list(fh.read())
        if args.partition_path:
            with open(args.partition_path) as fh:
                partition = read_partition(fh.read())
        report = ver.verify_family(args.family, mode=args.mode, seed=args.seed,
                                   materialize_limit=args.limit, graph=graph,
                                   partition=partition, bundle=bundle or _bundle(args))
    return _write_report(args, report)


def cmd_report(args) -> int:
    """build, partition and verify, each object built once: the bundle,
    the polarity graph and the partition are written, then verified with
    the polarity check that built the graph."""
    if args.family == "gh-original":
        return cmd_build(args) or cmd_verify(args)
    bundle = _bundle(args)
    mode = ver.choose_protocol(bundle, args.mode, args.limit)  # before any file is written
    if bundle[0].side_size > args.limit:
        print(f"{_stem(args)}: instance too large to materialize; verification only")
        return cmd_verify(args, bundle)
    g, pol_check = _polarity_graph(args, bundle)
    _write_graph(args, g)
    part = _write_partition(args, bundle)
    if mode == "sampled":
        return cmd_verify(args, bundle)
    return _write_report(args, ver.verify_family_exhaustive(
        bundle, seed=args.seed, materialize_limit=args.limit, graph=g,
        partition=part, pol_check=pol_check))


def cmd_oracle(args) -> int:
    with open(args.edges_path) as fh:
        g = read_edge_list(fh.read())
    if g.n > ver.ORACLE_MAX_N:
        raise ConfigError(f"oracle ceiling is {ver.ORACLE_MAX_N} vertices, got {g.n}")
    psi, chi_a = ver._psi_chi_a(g)
    chi = ver.chromatic_number(g)
    print(f"psi {psi}")
    print(f"chi_a {chi_a}")
    print(f"chi {chi}")
    return 0


COMMANDS = {
    "build": cmd_build,
    "partition": cmd_partition,
    "verify": cmd_verify,
    "report": cmd_report,
    "oracle": cmd_oracle,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if getattr(args, "limit", 0) < 0:
        _parser().error(f"argument --limit: must be at least 0, got {args.limit}")
    try:
        return COMMANDS[args.subcommand](args)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
