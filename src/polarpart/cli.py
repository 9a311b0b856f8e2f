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
import json
import math
import os
import sys
from dataclasses import dataclass

from . import adg, partitions as parts, verify as ver
from .graphs import (
    edge_count, materialize, read_edge_list, read_partition, write_edge_list,
    write_partition,
)

FAMILIES = ("plane", "gq", "gh", "gh-original", "generic")


@dataclass
class RunConfig:
    subcommand: str
    family: str | None
    q: int | None
    e: int | None
    mode: str | None
    seed: int
    out: str
    spec_path: str | None
    edges_path: str | None
    partition_path: str | None
    override_small_e: bool
    limit: int


def _parser():
    p = argparse.ArgumentParser(
        prog="polarpart",
        description="Construct polarity graphs over finite fields, build their "
                    "complete partitions in closed form, and verify every claim.")
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add_common(sp, family=True):
        if family:
            sp.add_argument("family", choices=FAMILIES)
        sp.add_argument("--q", type=int, help="prime power parameter (plane, gh-original)")
        sp.add_argument("--e", type=int, help="exponent parameter (gq: q=2^(2e+1), gh: q=3^(2e+1))")
        sp.add_argument("--mode", choices=("exhaustive", "sampled"),
                        help="verification mode; default picks by instance size")
        sp.add_argument("--seed", type=int, default=0, help="seed for all sampling")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--spec", dest="spec_path", help="JSON spec file (generic family)")
        sp.add_argument("--override-small-e", action="store_true",
                        help="allow e=0 for gq/gh; the polarity check still runs and is reported")
        sp.add_argument("--limit", type=int, default=ver.DEFAULT_MATERIALIZE_LIMIT,
                        help="materialization ceiling in vertices")

    for name in ("build", "partition", "report"):
        add_common(sub.add_parser(name))
    spv = sub.add_parser("verify")
    add_common(spv)
    spv.add_argument("--edges", dest="edges_path", help="verify this edge list instead of constructing")
    spv.add_argument("--partition", dest="partition_path", help="verify this partition file")
    spo = sub.add_parser("oracle")
    spo.add_argument("--edges", dest="edges_path", required=True)
    spo.add_argument("--out", default=".")
    spo.add_argument("--seed", type=int, default=0)
    return p


def _config(args) -> RunConfig:
    return RunConfig(
        subcommand=args.subcommand,
        family=getattr(args, "family", None),
        q=getattr(args, "q", None),
        e=getattr(args, "e", None),
        mode=getattr(args, "mode", None),
        seed=args.seed,
        out=args.out,
        spec_path=getattr(args, "spec_path", None),
        edges_path=getattr(args, "edges_path", None),
        partition_path=getattr(args, "partition_path", None),
        override_small_e=getattr(args, "override_small_e", False),
        limit=getattr(args, "limit", ver.DEFAULT_MATERIALIZE_LIMIT),
    )


def _stem(cfg: RunConfig) -> str:
    if cfg.family == "plane":
        return f"plane_q{cfg.q}"
    if cfg.family in ("gq", "gh"):
        return f"{cfg.family}_e{cfg.e}"
    if cfg.family == "gh-original":
        return f"gh-original_q{cfg.q}"
    return "generic"


def _family_kwargs(cfg: RunConfig):
    kw = {"seed": cfg.seed, "materialize_limit": cfg.limit,
          "allow_small_e": cfg.override_small_e}
    if cfg.family == "plane":
        kw["q"] = cfg.q
    elif cfg.family in ("gq", "gh"):
        kw["e"] = cfg.e
    elif cfg.family == "generic":
        if cfg.spec_path is None:
            raise ConfigError("generic family needs --spec")
        with open(cfg.spec_path) as fh:
            kw["spec_json"] = json.load(fh)
    return kw


class ConfigError(Exception):
    pass


def _bundle(cfg: RunConfig):
    kw = _family_kwargs(cfg)
    kw.pop("seed")
    kw.pop("materialize_limit")
    return ver.family_bundle(cfg.family, **kw)


def _write(path, text):
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


def _gh_original_q(cfg: RunConfig) -> int:
    if cfg.q is None:
        raise ConfigError("gh-original needs --q")
    return cfg.q


def _polarity_graph(cfg: RunConfig, bundle):
    """Check the bundle's polarity, then materialize its graph: (graph,
    the PolarityCheck)."""
    spec, pol, _, _ = bundle
    pg = adg.build_polarity_graph(spec, pol, mode="exhaustive"
                                  if spec.side_size <= cfg.limit else "sampled",
                                  seed=cfg.seed)
    return materialize(pg.implicit(), cfg.limit), pg.check


def _write_graph(cfg: RunConfig, g):
    path = os.path.join(cfg.out, _stem(cfg) + ".edges")
    _write(path, write_edge_list(g))
    print(f"wrote {path} ({g.n} vertices, {edge_count(g)} edges)")


def _write_partition(cfg: RunConfig, bundle):
    """The scheme's partition, written with its class-key sidecar."""
    spec, _, scheme, _ = bundle
    if spec.side_size > cfg.limit:
        raise ConfigError(
            f"{spec.side_size} vertices exceed the ceiling {cfg.limit}; "
            "the partition file would not be writable at desk scale")
    part = parts.scheme_partition(scheme, spec)
    stem = _stem(cfg)
    _write(os.path.join(cfg.out, stem + ".partition"), write_partition(part))
    _write_json(os.path.join(cfg.out, stem + ".classes.json"),
                parts.class_key_sidecar(scheme))
    print(f"wrote {stem}.partition ({part.r} classes) and {stem}.classes.json")
    return part


def _write_report(cfg: RunConfig, report) -> int:
    stem = _stem(cfg)
    path = os.path.join(cfg.out, stem + ".report.json")
    _write_json(path, report)
    ok = report["ok"]
    print(f"{'PASS' if ok else 'FAIL'} {stem}: report at {path}")
    if not ok and report.get("witnesses"):
        print(f"  first witness: {report['witnesses'][0]}")
    return 0 if ok else 1


def cmd_build(cfg: RunConfig) -> int:
    if cfg.family == "gh-original":
        spec, _ = adg.gh_original_family(_gh_original_q(cfg))
        g = materialize(spec.bipartite_graph(), cfg.limit)
    else:
        g = _polarity_graph(cfg, _bundle(cfg))[0]
    _write_graph(cfg, g)
    return 0


def cmd_partition(cfg: RunConfig) -> int:
    if cfg.family == "gh-original":
        raise ConfigError(f"family {cfg.family} has no vertex partition")
    _write_partition(cfg, _bundle(cfg))
    return 0


def cmd_verify(cfg: RunConfig, bundle=None) -> int:
    """Verify a family instance; `bundle` is a family_bundle result already
    built for cfg, or None to build it."""
    if cfg.family == "gh-original":
        report = ver.verify_gh_original(_gh_original_q(cfg), materialize_limit=cfg.limit)
    else:
        graph = partition = None
        if cfg.edges_path:
            with open(cfg.edges_path) as fh:
                graph = read_edge_list(fh.read())
        if cfg.partition_path:
            with open(cfg.partition_path) as fh:
                partition = read_partition(fh.read())
        report = ver.verify_family(cfg.family, mode=cfg.mode, graph=graph,
                                   partition=partition, bundle=bundle,
                                   **_family_kwargs(cfg))
    return _write_report(cfg, report)


def cmd_report(cfg: RunConfig) -> int:
    """build, partition and verify, each object built once: the bundle,
    the polarity graph and the partition are written, then verified with
    the polarity check that built the graph."""
    if cfg.family == "gh-original":
        return cmd_build(cfg) or cmd_verify(cfg)
    bundle = _bundle(cfg)
    if bundle[0].side_size > cfg.limit:
        print(f"{_stem(cfg)}: instance too large to materialize; verification only")
        return cmd_verify(cfg, bundle)
    g, pol_check = _polarity_graph(cfg, bundle)
    _write_graph(cfg, g)
    part = _write_partition(cfg, bundle)
    if cfg.mode == "sampled":
        return cmd_verify(cfg, bundle)
    return _write_report(cfg, ver.verify_family_exhaustive(
        cfg.family, seed=cfg.seed, materialize_limit=cfg.limit, graph=g,
        partition=part, bundle=bundle, pol_check=pol_check))


def cmd_oracle(cfg: RunConfig) -> int:
    with open(cfg.edges_path) as fh:
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
    cfg = _config(args)
    os.makedirs(cfg.out, exist_ok=True)
    try:
        return COMMANDS[cfg.subcommand](cfg)
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
