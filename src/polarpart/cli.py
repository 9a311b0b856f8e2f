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
from pathlib import Path

from . import adg, partitions as parts, verify as ver
from .graphs import (
    edge_count, read_edge_list, read_partition, write_edge_list, write_partition,
)

# The family settings (argparse dests) each family reads, its parameter
# first; main refuses any other one, exit 2, before a file is opened.
# gh-original is checked on its own construction: no file and no mode.
_VERIFY = ("mode", "edges", "partition")
FAMILY_SETTINGS = {"plane": ("q", *_VERIFY), "gq": ("e", "override_small_e", *_VERIFY),
                   "gh": ("e", "override_small_e", *_VERIFY), "gh-original": ("q",),
                   "generic": ("spec", *_VERIFY)}


@functools.cache
def _parser():
    """The argument parser, built once per process: in-process callers run
    main many times, and a build costs about twenty parses."""
    p = argparse.ArgumentParser(
        prog="polarpart",
        description="Construct polarity graphs over finite fields, build their "
                    "complete partitions in closed form, and verify every claim.")
    sub = p.add_subparsers(dest="subcommand", required=True)
    # report calls cmd_verify, and main checks every family's settings
    p.set_defaults(edges=None, partition=None, mode=None)

    def add_common(name):
        sp = sub.add_parser(name)
        sp.add_argument("family", choices=FAMILY_SETTINGS)
        sp.add_argument("--q", type=int, help="prime power parameter (plane, gh-original)")
        sp.add_argument("--e", type=int, help="exponent parameter (gq: q=2^(2e+1), gh: q=3^(2e+1))")
        if name in ("report", "verify"):
            sp.add_argument("--mode", choices=("exhaustive", "sampled"),
                            help="verification mode; default picks by instance size")
            sp.add_argument("--seed", type=int, default=0, help="seed for all sampling")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--spec", help="JSON spec file (generic family)")
        sp.add_argument("--override-small-e", action="store_true", default=None,
                        help="allow e=0 for gq/gh; the polarity check still runs and is reported")
        sp.add_argument("--limit", type=int, default=ver.DEFAULT_MATERIALIZE_LIMIT,
                        help="materialization ceiling in vertices")
        return sp

    for name in ("build", "partition", "report"):
        add_common(name)
    spv = add_common("verify")
    spv.add_argument("--edges", help="verify this edge list instead of constructing")
    spv.add_argument("--partition", help="verify this partition file")
    spo = sub.add_parser("oracle")
    spo.add_argument("--edges", required=True)
    return p


def _check_settings(args):
    """Refuse a setting the family does not read (unset is None), or a missing parameter."""
    takes = FAMILY_SETTINGS[args.family]
    for name in ("q", "e", "override_small_e", "spec", *_VERIFY):
        if name not in takes and getattr(args, name) is not None:
            raise ValueError(f"{args.family} takes no --{name.replace('_', '-')}")
    if getattr(args, takes[0]) is None:
        raise ValueError(f"{args.family} needs --{takes[0]}")


def _stem(args) -> str:
    name = FAMILY_SETTINGS[args.family][0]
    return "generic" if name == "spec" else f"{args.family}_{name}{getattr(args, name)}"


def _bundle(args):
    """family_bundle for the arguments, unread settings refused by _check_settings."""
    try:
        spec_json = None if args.spec is None else json.loads(Path(args.spec).read_text())
    except RecursionError:  # the parser recurses once a level
        raise ValueError(f"spec nests deeper than {adg.MAX_SPEC_DEPTH} levels") from None
    return ver.family_bundle(args.family, q=args.q, e=args.e,
                             allow_small_e=bool(args.override_small_e), spec_json=spec_json)


def _open(path):
    """path opened to write text, its directory (--out) made at the first write."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    return open(path, "w", newline="\n")


def _write(path, text):
    """Write text to path, or to `path` itself, a file _open opened."""
    if not isinstance(path, str):
        return path.write(text)
    with _open(path) as fh:
        fh.write(text)


def _write_json(path, obj):
    _write(path, json.dumps(obj, indent=2, sort_keys=True, default=_jsonable) + "\n")


def _jsonable(x):
    if isinstance(x, (set, frozenset)):
        return sorted(x)
    if x == math.inf:
        return "inf"
    raise TypeError(f"not JSON-serializable: {x!r}")


def _polarity_graph(args, bundle):
    """Refuse an instance above the ceiling, else check the bundle's
    polarity exhaustively and, when it holds, build its proven graph:
    (the graph or None, the PolarityCheck)."""
    spec, pol, _, _ = bundle
    if spec.side_size > args.limit:
        raise ValueError(f"{spec.side_size} vertices exceed materialization ceiling {args.limit}")
    check = adg.check_polarity(spec, pol)
    if not check.ok:
        return None, check
    return adg.PolarityGraph(spec, pol).graph(args.limit), check


def _write_graph(args, g):
    path = os.path.join(args.out, _stem(args) + ".edges")
    with _open(path) as fh:
        for text in write_edge_list(g):
            _write(fh, text)
    print(f"wrote {path} ({g.n} vertices, {edge_count(g)} edges)")


def _write_partition(args, bundle):
    """The scheme's partition, written with its class-key sidecar."""
    spec, _, scheme, _ = bundle
    if spec.side_size > args.limit:
        raise ValueError(
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
        g = adg.gh_original_family(args.q)[0].incidence_graph(args.limit)
    else:
        g, check = _polarity_graph(args, _bundle(args))
        if g is None:
            raise ValueError(f"polarity check failed: {check.witness}")
    _write_graph(args, g)
    return 0


def cmd_partition(args) -> int:
    if args.family == "gh-original":
        raise ValueError(f"family {args.family} has no vertex partition")
    _write_partition(args, _bundle(args))
    return 0


def cmd_verify(args) -> int:
    if args.family == "gh-original":
        report = ver.verify_gh_original(args.q, materialize_limit=args.limit)
    else:
        graph = read_edge_list(Path(args.edges).read_text(), args.limit) if args.edges else None
        partition = read_partition(Path(args.partition).read_text()) if args.partition else None
        report = ver.verify_family(args.family, mode=args.mode, seed=args.seed,
                                   materialize_limit=args.limit, graph=graph,
                                   partition=partition, bundle=_bundle(args))
    return _write_report(args, report)


def cmd_report(args) -> int:
    """build, partition and verify, each object built once and the protocol
    picked once: the bundle, the graph and the partition are written, then
    verified with the polarity check that built the graph; only the report
    if it failed."""
    if args.family == "gh-original":
        g = adg.gh_original_family(args.q)[0].incidence_graph(args.limit)
        _write_graph(args, g)
        return _write_report(args, ver.verify_gh_original(args.q, args.limit, graph=g))
    bundle = _bundle(args)
    mode = ver.choose_protocol(bundle, args.mode, args.limit)  # before any file is written
    if bundle[0].side_size > args.limit:
        print(f"{_stem(args)}: instance too large to materialize; verification only")
        return _write_report(args, ver.verify_family_sampled(bundle, seed=args.seed))
    g, pol_check = _polarity_graph(args, bundle)
    part = None
    if g is not None:
        _write_graph(args, g)
        part = _write_partition(args, bundle)
    if mode == "sampled":
        return _write_report(args, ver.verify_family_sampled(bundle, seed=args.seed))
    return _write_report(args, ver.verify_family_exhaustive(
        bundle, seed=args.seed, materialize_limit=args.limit, graph=g,
        partition=part, pol_check=pol_check))


def cmd_oracle(args) -> int:
    g = read_edge_list(Path(args.edges).read_text(), ver.ORACLE_MAX_N)
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
        if args.subcommand != "oracle":
            _check_settings(args)
        return COMMANDS[args.subcommand](args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
