"""The benchmark's workloads: what each one runs, and how its outputs are
checked.

A workload is a list of operations.  An operation is one `verify_*` call
or one in-process `cli.main` invocation; it fails if it raises, returns an
unexpected exit code, reports `ok: false`, or produces bytes whose digest
differs from the reference recorded in `reference.json`.

Every operation yields two digests:

- `exact`: SHA-256 of the report serialized the way `cli._write_json`
  writes it (for CLI operations: exit code, normalized console output and
  every file in the output directory).  It depends on the seed, so it is
  compared only for the seeds recorded in the reference.
- `canonical`: the same after removing the fields that legitimately vary
  with the seed (the echoed seed, the sampled degree tally, the count of
  sweeps that drew two distinct classes).  It is compared for every seed.
  The removed fields get structural checks instead.

Why each workload exists, which layer it loads and which it bypasses is
recorded in `README.md` next to this file.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import dataclass

# gh27_stream: the library's default sample counts, C10 left out (about
# 105 s for one root).
GH27_CYCLE_ROOTS = {2: 200, 3: 30, 4: 3, 5: 0}
SMOKE_DIVISOR = 100


class OutputError(Exception):
    """An operation ran but its output is wrong."""


@dataclass
class Outcome:
    exact: str
    canonical: str


@dataclass
class Op:
    label: str
    call: object   # () -> result; the only part that is timed
    check: object  # (result) -> Outcome; raises OutputError on a wrong output


@dataclass
class Workload:
    setup: object  # (modules) -> None, builds the family bundles
    ops: object    # (modules, seed, scratch_dir) -> list[Op]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_text(m, report) -> str:
    """The report's bytes as `cli._write_json` would write them."""
    return json.dumps(report, indent=2, sort_keys=True, default=m.cli._jsonable) + "\n"


def _drop(m, report, *paths):
    out = json.loads(report_text(m, report))
    for path in paths:
        node = out
        for key in path[:-1]:
            node = node.get(key, {})
        node.pop(path[-1], None)
    return out


def _require(cond, what):
    if not cond:
        raise OutputError(what)


# ---------------------------------------------------------------------------
# verify_* operations
# ---------------------------------------------------------------------------

def _verify_outcome(m, report, seed, seed_paths=(("seeds",),)):
    _require(report.get("ok") is True, "report says ok: false")
    _require(report.get("seeds") == [seed], "report does not echo the seed")
    exact = sha256(report_text(m, report).encode())
    canonical = sha256(report_text(m, _drop(m, report, *seed_paths)).encode())
    return Outcome(exact, canonical)


def _sampled_kwargs(smoke):
    if not smoke:
        return {"cycle_roots": dict(GH27_CYCLE_ROOTS)}
    d = SMOKE_DIVISOR
    return {
        "class_pair_samples": 100_000 // d,
        "full_sweeps": 200 // d,
        "within_samples": 10_000 // d,
        "degree_samples": 10_000 // d,
        "cycle_roots": {k: v // d for k, v in GH27_CYCLE_ROOTS.items()},
    }


@contextlib.contextmanager
def _smoke_constants(m, smoke):
    """The two sample counts the sampled protocol reads from module
    constants instead of arguments, divided for the smoke mode."""
    if not smoke:
        yield
        return
    v = m.verify
    saved = v.SAMPLED_INCIDENCES, v.SAMPLED_SYMMETRY
    v.SAMPLED_INCIDENCES = saved[0] // SMOKE_DIVISOR
    v.SAMPLED_SYMMETRY = saved[1] // SMOKE_DIVISOR
    try:
        yield
    finally:
        v.SAMPLED_INCIDENCES, v.SAMPLED_SYMMETRY = saved


def gh27_ops(smoke):
    def ops(m, seed, _scratch):
        kwargs = _sampled_kwargs(smoke)

        def call():
            with _smoke_constants(m, smoke):
                return m.verify.verify_family("gh", e=1, mode="sampled",
                                              seed=seed, **kwargs)

        def check(report):
            q = report["params"]["q"]
            tally = report.get("degree_multiset", {})
            _require(set(tally) <= {str(q), str(q - 1)}, "degree outside the spectrum")
            _require(sum(tally.values()) == report["checks"]["degree_samples"],
                     "degree tally does not add up")
            requested = kwargs.get("full_sweeps", m.verify.SAMPLED_FULL_SWEEPS)
            _require(0 <= report["checks"]["full_sweeps"] <= requested,
                     "sweep count out of range")
            return _verify_outcome(m, report, seed, (
                ("seeds",), ("degree_multiset",), ("checks", "full_sweeps")))
        return [Op("verify_family gh e=1 sampled", call, check)]
    return ops


def plane_ops(q):
    def ops(m, seed, _scratch):
        def call():
            return m.verify.verify_family("plane", q=q, seed=seed, with_luw=False)

        def check(report):
            _require(report["mode"] == "exhaustive", "plane did not run exhaustively")
            return _verify_outcome(m, report, seed)
        return [Op(f"verify_family plane q={q} exhaustive", call, check)]
    return ops


# ---------------------------------------------------------------------------
# cli.main operations
# ---------------------------------------------------------------------------

def _cli_files(m, out_dir):
    """name -> (exact digest, canonical digest) for every file in out_dir."""
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            data = fh.read()
        canonical = data
        if name.endswith(".report.json"):
            canonical = report_text(m, _drop(m, json.loads(data), ("seeds",))).encode()
        files[name] = (sha256(data), sha256(canonical))
    return files


def _cli_op(m, argv, out_dir, label):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = m.cli.main(argv)
            except SystemExit as exc:  # argparse rejects an argument
                rc = exc.code
        return rc, out.getvalue() + err.getvalue()

    def check(result):
        rc, console = result
        _require(rc == 0, f"exit code {rc}: {console.strip()[-200:]}")
        console = console.replace(out_dir, "<out>")
        files = _cli_files(m, out_dir)
        exact = {"rc": rc, "console": console, "files": {k: v[0] for k, v in files.items()}}
        canonical = {"rc": rc, "console": console,
                     "files": {k: v[1] for k, v in files.items()}}
        return Outcome(sha256(json.dumps(exact, sort_keys=True).encode()),
                       sha256(json.dumps(canonical, sort_keys=True).encode()))
    return Op(label, call, check)


def cli_ops(commands):
    """commands: argv lists without --out/--seed; `{out}` in an argument is
    replaced by the operation's output directory."""
    def ops(m, seed, scratch):
        out_dir = os.path.join(scratch, "out")
        result = []
        for cmd in commands:
            argv = [a.replace("{out}", out_dir) for a in cmd]
            argv += ["--out", out_dir, "--seed", str(seed)]
            result.append(_cli_op(m, argv, out_dir, " ".join(cmd[:3])))
        return result
    return ops


CLI_REPORTS = [
    ["report", "plane", "--q", "5"],
    ["report", "gq", "--e", "1"],
    ["verify", "gq", "--e", "1", "--edges", "{out}/gq_e1.edges",
     "--partition", "{out}/gq_e1.partition"],
    ["verify", "gh-original", "--q", "9"],
]
CLI_SMOKE = CLI_REPORTS[1:3]


@contextlib.contextmanager
def scratch_dir(parent):
    os.makedirs(parent, exist_ok=True)
    path = tempfile.mkdtemp(dir=parent)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

def _bundles(*calls):
    def setup(m):
        for family, kwargs in calls:
            if family == "gh-original":
                m.adg.gh_original_family(kwargs["q"])
            else:
                m.verify.family_bundle(family, **kwargs)
    return setup


WORKLOADS = {
    "gh27_stream": Workload(_bundles(("gh", {"e": 1})), gh27_ops(smoke=False)),
    "plane9_exhaustive": Workload(_bundles(("plane", {"q": 9})), plane_ops(9)),
    "cli_reports": Workload(
        _bundles(("plane", {"q": 5}), ("gq", {"e": 1}), ("gh-original", {"q": 9})),
        cli_ops(CLI_REPORTS)),
}

# --smoke: the same harness on instances that run in seconds
SMOKE = {
    "gh27_stream": Workload(_bundles(("gh", {"e": 1})), gh27_ops(smoke=True)),
    "plane9_exhaustive": Workload(_bundles(("plane", {"q": 2})), plane_ops(2)),
    "cli_reports": Workload(_bundles(("gq", {"e": 1})), cli_ops(CLI_SMOKE)),
}


def get(name, smoke=False):
    return (SMOKE if smoke else WORKLOADS)[name]
