"""Command-line interface: artifacts, exit codes, determinism."""

import hashlib
import json
import os
import time

import pytest

from polarpart import adg, partitions, verify
from polarpart.adg import gh_original_family
from polarpart.cli import main
from polarpart.graphs import read_edge_list
from test_adg import PROOF_TAMPERS, tamper_rows
from test_verify import _reference_find_even_cycle


def run(args):
    return main(args)


def test_report_plane_q2(tmp_path, capsys):
    rc = run(["report", "plane", "--q", "2", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    report = json.loads((tmp_path / "plane_q2.report.json").read_text())
    assert report["counts"]["edges"] == 28
    assert report["partition"]["r"] == 8
    assert report["verdicts"]["optimally_complete"]
    edges = (tmp_path / "plane_q2.edges").read_text().splitlines()
    assert edges[0] == "16 28 8"
    assert len(edges) == 1 + 28 + 8
    part = (tmp_path / "plane_q2.partition").read_text().splitlines()
    assert len(part) == 16
    sidecar = json.loads((tmp_path / "plane_q2.classes.json").read_text())
    assert len(sidecar) == 8


def test_report_determinism(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["report", "plane", "--q", "3", "--out", str(a)]) == 0
    assert run(["report", "plane", "--q", "3", "--out", str(b)]) == 0
    for name in ("plane_q3.edges", "plane_q3.partition",
                 "plane_q3.classes.json", "plane_q3.report.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_verify_tampered_edge_list(tmp_path, capsys):
    assert run(["build", "plane", "--q", "2", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "plane_q2.edges").read_text().splitlines()
    n, m, nl = lines[0].split()
    body = lines[1:]
    dropped = body[1:]  # drop the first edge
    tampered = tmp_path / "tampered.edges"
    tampered.write_text("\n".join([f"{n} {int(m) - 1} {nl}"] + dropped) + "\n")
    rc = run(["verify", "plane", "--q", "2", "--edges", str(tampered),
              "--out", str(tmp_path)])
    assert rc == 1
    report = json.loads((tmp_path / "plane_q2.report.json").read_text())
    assert not report["ok"]
    assert any(w[0] == "missing_pair" for w in report["witnesses"])
    # the dropped edge 0 4 is the closed-form edge of classes 0 and 2
    assert body[0] == "0 4"
    assert ["edge_formula_not_edge", 0, 2] in report["witnesses"]
    digest = hashlib.sha256((tmp_path / "plane_q2.report.json").read_bytes()).hexdigest()
    assert digest == "fc98d1d012bf4e726f06002cad450fe435c4452ea283bbd863a8fc3a63e2c77f"
    out = capsys.readouterr().out
    assert "missing_pair" in out


# sha256 of the report and its C4 witness, the depth-first one from the
# first root on a C4
TAMPERED_C4_GOLDEN = {
    2: ("ac87236f8b4c3289db69e8471da3d8dc8440b92a00330bd09b6c068c5d8853cf", [0, 4, 5, 1]),
    3: ("aea81c4c6915a12664cf49a41261ae20032ab0a76d7c14ab2ae178ffef2bbbc2", [0, 9, 20, 1]),
}


@pytest.mark.parametrize("q", sorted(TAMPERED_C4_GOLDEN))
def test_verify_edge_list_with_a_c4_closing_edge(tmp_path, q):
    assert run(["build", "plane", "--q", str(q), "--out", str(tmp_path)]) == 0
    lines = (tmp_path / f"plane_q{q}.edges").read_text().splitlines()
    n, m, nl = lines[0].split()
    edges = [ln for ln in lines[1:] if not ln.startswith("L")]
    assert "0 1" not in edges  # 0 and 1 are at distance 2
    tampered = tmp_path / "tampered.edges"
    tampered.write_text("\n".join([f"{n} {int(m) + 1} {nl}", "0 1"] + lines[1:]) + "\n")
    rc = run(["verify", "plane", "--q", str(q), "--edges", str(tampered),
              "--out", str(tmp_path)])
    assert rc == 1
    text = (tmp_path / f"plane_q{q}.report.json").read_bytes()
    digest, witness = TAMPERED_C4_GOLDEN[q]
    report = json.loads(text)
    assert report["cycles"] == {"C4": "fail"}
    assert ["C4", witness] in report["witnesses"]
    assert hashlib.sha256(text).hexdigest() == digest
    g = read_edge_list(tampered.read_text(), 10 ** 6)
    assert list(_reference_find_even_cycle(g, 2)) == witness


@pytest.mark.parametrize("edges,partition", [
    ("3 1 0\n0 5\n", None),
    ("3 1 0\n-1 1\n", None),
    ("3 2 0\n0 1\n0 1\n", None),
    (None, "0 0\n2 1\n"),
    (None, "0 0\n1 0\n1 1\n"),
])
def test_verify_malformed_input_exits_2(tmp_path, capsys, edges, partition):
    args = ["verify", "plane", "--q", "2", "--out", str(tmp_path)]
    if edges is not None:
        (tmp_path / "bad.edges").write_text(edges)
        args += ["--edges", str(tmp_path / "bad.edges")]
    if partition is not None:
        (tmp_path / "bad.partition").write_text(partition)
        args += ["--partition", str(tmp_path / "bad.partition")]
    assert run(args) == 2
    assert "line" in capsys.readouterr().err


@pytest.mark.parametrize("edges,partition,size", [
    ("gq_e1.edges", "gq_e1.partition", 512),
    ("tri.edges", "tri.partition", 3),
    (None, "gq_e1.partition", 512),
])
def test_verify_refuses_files_of_the_wrong_size(tmp_path, capsys, edges, partition, size):
    files, out = tmp_path / "files", tmp_path / "out"
    assert run(["build", "gq", "--e", "1", "--out", str(files)]) == 0
    assert run(["partition", "gq", "--e", "1", "--out", str(files)]) == 0
    (files / "tri.edges").write_text("3 1 0\n0 1\n")
    (files / "tri.partition").write_text("0 0\n1 1\n2 2\n")
    capsys.readouterr()
    args = ["verify", "plane", "--q", "3", "--out", str(out)]
    args += ["--edges", str(files / edges)] if edges else []
    args += ["--partition", str(files / partition)]
    assert run(args) == 2
    captured = capsys.readouterr()
    assert f"{size} vertices, the instance 81" in captured.err
    assert "Traceback" not in captured.err + captured.out
    assert not out.exists()


GF4 = {"p": 2, "k": 2}
P1L1 = ["mul", ["var", "p", 1], ["var", "l", 1]]


@pytest.mark.parametrize("name,spec,message", [
    ("empty object", {}, "a spec is an object"),
    ("no fs", {"field": GF4, "m": 2}, "a spec is an object"),
    ("top-level list", [GF4, 2, [P1L1]], "a spec is an object"),
    ("unknown op", {"field": GF4, "m": 2, "fs": [["bogus", 1]]}, "malformed expression"),
    ("m a string", {"field": GF4, "m": "2", "fs": [P1L1]}, "dimension m"),
    ("negative pow", {"field": GF4, "m": 2, "fs": [["pow", ["var", "p", 1], -1]]},
     "pow exponent"),
    ("var index 0", {"field": GF4, "m": 2, "fs": [["mul", ["var", "p", 1], ["var", "l", 0]]]},
     "bad coordinate"),
    ("var side x", {"field": GF4, "m": 2, "fs": [["mul", ["var", "x", 1], ["var", "l", 1]]]},
     "bad coordinate"),
    ("const outside the field", {"field": GF4, "m": 2, "fs": [["const", 4]]}, "not an element"),
    ("modulus other than make_field's", {"field": {"p": 3, "k": 2, "modulus": [2, 1, 1]}, "m": 2,
                                         "fs": [P1L1]}, "modulus [2, 1, 1]: GF(9) has [1, 0, 1]"),
    ("unknown top-level key", {"field": GF4, "M": 3, "m": 2, "fs": [P1L1]}, "unknown spec key 'M'"),
    ("unknown field key", {"field": {**GF4, "mod": [1, 1, 1]}, "m": 2, "fs": [P1L1]},
     "unknown spec key 'mod'"),
])
def test_verify_malformed_spec_exits_2(tmp_path, capsys, name, spec, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    assert run(["verify", "generic", "--spec", str(path), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


def test_verify_gh_e3_is_refused_before_the_scan(tmp_path, capsys):
    start = time.perf_counter()
    assert run(["verify", "gh", "--e", "3", "--out", str(tmp_path)]) == 2
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().err == (
        "error: the absolute-point scan may test up to 2.29e+13 candidates, "
        "above the limit 1e+10\n")
    adg.PolarityGraph(*adg.gh_family(2)).check_scan_bound()  # q = 243 is allowed


@pytest.mark.parametrize("command", ["verify", "report"])
def test_gh_e2_is_refused_by_the_cycle_budget(tmp_path, capsys, command):
    """The sampled C8 search at degree 243 would keep 243^4 keys a root
    (it ran out of memory after 85 s); it is refused before any check
    runs, and nothing is written.  gh q=27's default C10 root fits."""
    assert 27 ** 5 <= verify.CYCLE_KEY_LIMIT < 243 ** 4
    out = tmp_path / "out"
    start = time.perf_counter()
    assert run([command, "gh", "--e", "2", "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "error: the C8 search may keep 243^4 = 3.49e+09 last-layer keys a root, "
        "above the limit CYCLE_KEY_LIMIT = 1e+08\n")
    assert not out.exists()


def test_oracle_c4(tmp_path, capsys):
    edges = tmp_path / "c4.txt"
    edges.write_text("4 4 0\n0 1\n1 2\n2 3\n0 3\n")
    rc = run(["oracle", "--edges", str(edges)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "psi 3" in out and "chi_a 2" in out


def test_oracle_ceiling(tmp_path, capsys):
    edges = tmp_path / "big.txt"
    edges.write_text("13 0 0\n")
    assert run(["oracle", "--edges", str(edges)]) == 2


# oversized inputs, each of which sized an allocation before it was checked:
# (flag, file text, message)
OVERSIZED_FILES = {
    "edge list header 10^9": ("--edges", "999999999 0 0\n",
                              "edge list line 1: 999999999 vertices exceed the ceiling"),
    "partition class 10^9": ("--partition", "0 999999999\n",
                             "partition line 1: class 999999999 at or above the line count 1"),
    "partition class 10^20": ("--partition", "0 99999999999999999999\n",
                              "partition line 1: class 99999999999999999999 at or above"),
}


def test_oracle_refuses_an_oversized_header_before_building(tmp_path, capsys):
    edges = tmp_path / "huge.edges"
    edges.write_text(OVERSIZED_FILES["edge list header 10^9"][1])
    assert run(["oracle", "--edges", str(edges)]) == 2
    assert capsys.readouterr().err == (
        "error: edge list line 1: 999999999 vertices exceed the ceiling 12: '999999999 0 0'\n")


@pytest.mark.parametrize("name", sorted(OVERSIZED_FILES))
def test_verify_refuses_oversized_files_before_building(tmp_path, capsys, name):
    flag, text, message = OVERSIZED_FILES[name]
    (tmp_path / "huge").write_text(text)
    argv = ["verify", "plane", "--q", "3", flag, str(tmp_path / "huge"), "--out", str(tmp_path / "o")]
    assert run(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("levels", [96, 97, 950, 5000])
def test_verify_refuses_a_deeply_nested_spec(tmp_path, capsys, levels):
    # f_2 = p_1 l_1 under `levels` negations nests levels + 4 deep with the
    # spec object and its fs list; 950 levels overflowed the recursive tree
    # walks, and 5000 the JSON parser
    path = tmp_path / "deep.json"
    expr = '["neg", ' * levels + '["mul", ["var", "p", 1], ["var", "l", 1]]' + "]" * levels
    path.write_text('{"field": {"p": 3, "k": 2}, "m": 2, "fs": [%s]}' % expr)
    rc = run(["verify", "generic", "--spec", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    if levels + 4 <= adg.MAX_SPEC_DEPTH:
        assert rc == 0 and err == ""
    else:
        assert rc == 2 and err == f"error: spec nests deeper than {adg.MAX_SPEC_DEPTH} levels\n"


def test_oracle_on_a_graph_with_no_vertices(tmp_path, capsys):
    edges = tmp_path / "empty.txt"
    edges.write_text("0 0 0\n")
    assert run(["oracle", "--edges", str(edges)]) == 0
    assert capsys.readouterr().out == "psi 0\nchi_a 0\nchi 0\n"


def test_invalid_family_parameter(tmp_path):
    # plane without --q
    assert run(["verify", "plane", "--out", str(tmp_path)]) == 2
    # q not a prime power
    assert run(["verify", "plane", "--q", "6", "--out", str(tmp_path)]) == 2
    # gq without override at e=0
    assert run(["verify", "gq", "--e", "0", "--out", str(tmp_path)]) == 2


def test_build_refuses_oversize(tmp_path, monkeypatch, capsys):
    checks = []
    check_polarity = adg.check_polarity
    monkeypatch.setattr(adg, "check_polarity",
                        lambda *a, **kw: checks.append(a) or check_polarity(*a, **kw))
    assert run(["build", "gh", "--e", "1", "--out", str(tmp_path)]) == 2
    assert checks == []  # refused before any polarity check
    assert "14348907 vertices exceed materialization ceiling" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_partition_refuses_an_instance_above_the_ceiling(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["partition", "plane", "--q", "3", "--limit", "80", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: 81 vertices exceed the ceiling 80; "
        "the partition file would not be writable at desk scale\n")
    assert not out.exists()


def test_partition_gq(tmp_path):
    assert run(["partition", "gq", "--e", "1", "--out", str(tmp_path)]) == 0
    part = (tmp_path / "gq_e1.partition").read_text().splitlines()
    assert len(part) == 512
    sidecar = json.loads((tmp_path / "gq_e1.classes.json").read_text())
    assert sidecar["0"] == [0, 0]


def test_gh_original_verify(tmp_path):
    rc = run(["verify", "gh-original", "--q", "3", "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "gh-original_q3.report.json").read_text())
    assert report["ok"] and report["girth"] == 12


def test_report_gh_original_builds_then_verifies(tmp_path, monkeypatch):
    rep, ver = tmp_path / "report", tmp_path / "verify"
    sizes = []
    build = adg.ADGSpec.incidence_graph
    monkeypatch.setattr(adg.ADGSpec, "incidence_graph", lambda spec, limit: (
        sizes.append(2 * spec.side_size) or build(spec, limit)))
    assert run(["report", "gh-original", "--q", "3", "--out", str(rep)]) == 0
    assert sizes == [486]  # one graph: the edge list's, whose girth the report carries
    monkeypatch.undo()
    assert run(["verify", "gh-original", "--q", "3", "--out", str(ver)]) == 0
    name = "gh-original_q3.report.json"
    assert (rep / name).read_bytes() == (ver / name).read_bytes()
    g = read_edge_list((rep / "gh-original_q3.edges").read_text(), 486)
    assert (g.n, len(list(g.edges()))) == (486, 729)
    spec = gh_original_family(3)[0]
    assert g.adj == spec.incidence_graph(g.n).adj
    assert run(["build", "gh-original", "--q", "3", "--out", str(tmp_path / "b")]) == 0
    assert (tmp_path / "b" / "gh-original_q3.edges").read_bytes() == \
        (rep / "gh-original_q3.edges").read_bytes()


@pytest.mark.parametrize("case", sorted(PROOF_TAMPERS))
def test_build_names_the_vertex_of_a_tampered_row(tmp_path, capsys, monkeypatch, case):
    family, message = tamper_rows(monkeypatch, case)
    out = tmp_path / "out"
    assert run(["build", family, "--q", "3", "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_gh_original_refusals_exit_2(tmp_path, capsys):
    for sub in ("build", "report", "verify"):
        assert run([sub, "gh-original", "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "error: gh-original needs --q\n"
    assert run(["partition", "gh-original", "--q", "3", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "error: family gh-original has no vertex partition\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("limit", [243, 300, 485])
def test_gh_original_refuses_a_low_ceiling_before_the_map_sweep(tmp_path, capsys, monkeypatch,
                                                                 limit):
    # 486 vertices: the girth's graph does not fit, and phi is never applied
    monkeypatch.setattr(adg.CoordinateMap, "bulk", lambda *a: pytest.fail("the sweep ran"))
    argv = ["verify", "gh-original", "--q", "3", "--limit", str(limit), "--out", str(tmp_path)]
    assert run(argv) == 2
    assert capsys.readouterr().err == f"error: 486 vertices exceed materialization ceiling {limit}\n"
    assert os.listdir(tmp_path) == []


def test_gh_original_names_the_map_check_ceiling(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["verify", "gh-original", "--q", "27", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "error: 14348907 points a side exceed the map check ceiling 2000000\n")
    assert not out.exists()


def test_report_builds_each_object_once(tmp_path, monkeypatch):
    calls = []

    def count(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((name, result.n) if name in ("graph", "incidence_graph") else name)
            return result
        monkeypatch.setattr(module, name, wrapper)

    count(adg.PolarityGraph, "graph")
    count(adg.ADGSpec, "incidence_graph")
    count(verify, "family_bundle")
    count(partitions, "scheme_partition")
    count(adg, "check_polarity")
    assert run(["report", "plane", "--q", "3", "--out", str(tmp_path / "r")]) == 0
    # one bundle, one polarity check, one partition, the polarity graph (81)
    # and the LUW bipartite graph (162)
    assert sorted(map(str, calls)) == [
        "('graph', 81)", "('incidence_graph', 162)", "check_polarity", "family_bundle",
        "scheme_partition"]
    monkeypatch.undo()
    assert run(["verify", "plane", "--q", "3", "--out", str(tmp_path / "v")]) == 0
    name = "plane_q3.report.json"
    assert (tmp_path / "r" / name).read_bytes() == (tmp_path / "v" / name).read_bytes()


@pytest.mark.parametrize("extra", [["--limit", "100"], ["--mode", "sampled"]],
                         ids=["too large to materialize", "sampled mode"])
def test_sampled_report_builds_the_bundle_once(tmp_path, monkeypatch, extra):
    calls = []

    def count(name):
        original = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args, **kwargs: (
            calls.append((name, *args[:1])) or original(*args, **kwargs)))

    count("family_bundle")
    count("choose_protocol")
    argv = ["report", "gh", "--e", "0", "--override-small-e"] + extra
    assert run(argv + ["--out", str(tmp_path / "r")]) == 0
    assert [c[0] for c in calls] == ["family_bundle", "choose_protocol"]
    assert calls[0] == ("family_bundle", "gh")
    monkeypatch.undo()
    assert run(["verify", "gh", "--e", "0", "--override-small-e", "--mode", "sampled",
                "--out", str(tmp_path / "v")]) == 0
    name = "gh_e0.report.json"
    assert (tmp_path / "r" / name).read_bytes() == (tmp_path / "v" / name).read_bytes()


@pytest.mark.parametrize("extra", [["--mode", "sampled"], ["--limit", "100"]],
                         ids=["sampled mode", "too large to materialize"])
@pytest.mark.parametrize("option", ["--edges", "--partition"])
def test_sampled_verify_refuses_supplied_files(tmp_path, capsys, extra, option):
    path = tmp_path / "in" / "bogus"
    path.parent.mkdir()
    path.write_text("3 1 0\n0 1\n" if option == "--edges" else "0 0\n1 0\n")
    argv = ["verify", "gh", "--e", "0", "--override-small-e", option, str(path)]
    assert run(argv + extra + ["--out", str(tmp_path / "out")]) == 2
    assert "the sampled protocol reads no edge list or partition" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,extra", [
    ("verify", ["--edges", "{bad}"]),
    ("verify", ["--partition", "{bad}"]),
    ("verify", ["--mode", "sampled"]),
    ("report", ["--mode", "sampled"]),
])
def test_gh_original_refuses_files_and_sampled_mode(tmp_path, capsys, command, extra):
    # gh-original's only check reads its own construction, so a file or a
    # sampled run would pass without being checked
    bad, out = tmp_path / "bad", tmp_path / "out"
    bad.write_text("garbage\n")
    argv = [command, "gh-original", "--q", "3", *[a.format(bad=bad) for a in extra]]
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: gh-original takes no {extra[0]}\n"
    assert not out.exists()


# every family setting a family does not read, with a value it would take
UNREAD_SETTINGS = [
    ("plane", ["--q", "3"], ["--e", "1"]),
    ("plane", ["--q", "3"], ["--spec", "{missing}"]),
    ("plane", ["--q", "3"], ["--override-small-e"]),
    ("gq", ["--e", "1"], ["--q", "3"]),
    ("gq", ["--e", "1"], ["--spec", "{missing}"]),
    ("gh", ["--e", "0", "--override-small-e"], ["--q", "3"]),
    ("gh", ["--e", "0", "--override-small-e"], ["--spec", "{missing}"]),
    ("gh-original", ["--q", "3"], ["--e", "0"]),
    ("gh-original", ["--q", "3"], ["--spec", "{missing}"]),
    ("gh-original", ["--q", "3"], ["--override-small-e"]),
    ("gh-original", ["--q", "3"], ["--mode", "exhaustive"]),
    ("generic", ["--spec", "{missing}"], ["--q", "0"]),
    ("generic", ["--spec", "{missing}"], ["--e", "1"]),
    ("generic", ["--spec", "{missing}"], ["--override-small-e"]),
]


@pytest.mark.parametrize("family,params,extra", UNREAD_SETTINGS,
                         ids=[f"{f} {x[0]}" for f, _, x in UNREAD_SETTINGS])
def test_settings_a_family_does_not_read_are_refused(tmp_path, capsys, family, params, extra):
    # refused before the spec file (which does not exist) is opened and
    # before --out is made, by every subcommand that has the flag
    missing, out = tmp_path / "missing.json", tmp_path / "out"
    argv = [a.format(missing=missing) for a in [family, *params, *extra, "--out", str(out)]]
    commands = ["build", "partition", "verify", "report"]
    for command in commands[2:] if extra[0] == "--mode" else commands:  # --mode: verify, report
        assert run([command, *argv]) == 2
        assert capsys.readouterr().err == f"error: {family} takes no {extra[0]}\n"
        assert not out.exists()


# GF(9), m = 2, f = 3 p_1 l_1: point-line symmetric, but its constant lies
# outside GF(3), so the conjugation polarity breaks adjacency
BAD_POLARITY_SPEC = {"field": {"p": 3, "k": 2}, "m": 2,
                     "fs": [["mul", ["const", 3], ["mul", ["var", "p", 1], ["var", "l", 1]]]]}
BAD_POLARITY_REPORT = "20abc41fb6c8d06867f620ee502fc58bc67e2fe48bd1142215ba0d011f149bee"


def test_a_failing_polarity_writes_the_failing_report(tmp_path, capsys):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps(BAD_POLARITY_SPEC))
    for command in ("verify", "report"):
        out = tmp_path / command
        assert run([command, "generic", "--spec", str(spec), "--out", str(out)]) == 1
        assert os.listdir(out) == ["generic.report.json"]  # no edge list, no partition
        text = (out / "generic.report.json").read_bytes()
        assert hashlib.sha256(text).hexdigest() == BAD_POLARITY_REPORT
        assert json.loads(text)["witnesses"][0][0] == "polarity"
    assert "FAIL generic" in capsys.readouterr().out
    assert run(["build", "generic", "--spec", str(spec), "--out", str(tmp_path / "b")]) == 2
    assert capsys.readouterr().err.startswith("error: polarity check failed")
    assert not (tmp_path / "b").exists()


def test_gh_original_accepts_a_seed(tmp_path):
    assert run(["verify", "gh-original", "--q", "3", "--seed", "5", "--out", str(tmp_path)]) == 0
    assert json.loads((tmp_path / "gh-original_q3.report.json").read_text())["ok"]


@pytest.mark.parametrize("argv", [
    ["build", "plane", "--q", "3", "--seed", "1"],
    ["build", "plane", "--q", "3", "--mode", "exhaustive"],
    ["partition", "plane", "--q", "3", "--seed", "1"],
    ["partition", "plane", "--q", "3", "--mode", "exhaustive"],
    ["oracle", "--edges", "g.edges", "--seed", "1"],
    ["oracle", "--edges", "g.edges", "--out", "d"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_flags_a_subcommand_never_reads_are_refused(tmp_path, capsys, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("family,args", [
    ("plane", ["--q", "2"]),
    ("gq", ["--e", "1"]),
    ("generic", ["--spec", "{spec}"]),
])
def test_sampled_report_off_gh_writes_nothing(tmp_path, capsys, family, args):
    spec = tmp_path / "toy.json"
    spec.write_text(json.dumps({"field": GF4, "m": 2, "fs": [P1L1]}))
    out = tmp_path / "out"
    argv = ["report", family, *[a.format(spec=spec) for a in args], "--mode", "sampled"]
    assert run(argv + ["--out", str(out)]) == 2
    assert f"sampled mode is only wired for the gh family, not {family}" in capsys.readouterr().err
    assert not out.exists()


def test_auto_mode_sampled_off_gh_names_the_ceiling(tmp_path, capsys):
    out = tmp_path / "out"
    assert run(["report", "plane", "--q", "3", "--limit", "0", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "sampled mode is only wired for the gh family, not plane" in err
    assert "auto mode picked it because 81 vertices exceed the materialization ceiling 0" in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["out_is_a_file", "out_below_a_file", "edges_is_a_dir",
                                  "partition_is_a_dir", "spec_is_a_dir", "oracle_edges_is_a_dir"])
def test_unusable_paths_exit_2_with_a_message(tmp_path, capsys, case):
    afile, adir, out = tmp_path / "afile", tmp_path / "adir", str(tmp_path / "out")
    afile.write_text("")
    adir.mkdir()
    argv = {
        "out_is_a_file": ["report", "plane", "--q", "2", "--out", str(afile)],
        "out_below_a_file": ["report", "plane", "--q", "2", "--out", str(afile / "sub")],
        "edges_is_a_dir": ["verify", "plane", "--q", "2", "--edges", str(adir), "--out", out],
        "partition_is_a_dir": ["verify", "plane", "--q", "2", "--partition", str(adir),
                               "--out", out],
        "spec_is_a_dir": ["verify", "generic", "--spec", str(adir), "--out", out],
        "oracle_edges_is_a_dir": ["oracle", "--edges", str(adir)],
    }[case]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert str(afile if case.startswith("out") else adir) in captured.err


def test_negative_limit_is_refused_by_the_parser(tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run(["report", "plane", "--q", "3", "--limit", "-5", "--out", str(out)])
    assert exc.value.code == 2
    assert "argument --limit: must be at least 0, got -5" in capsys.readouterr().err
    assert not out.exists()


def test_generic_spec_roundtrip(tmp_path):
    spec_file = tmp_path / "toy.json"
    spec_file.write_text(json.dumps({
        "field": {"p": 2, "k": 2, "modulus": [1, 1, 1]},
        "m": 2,
        "fs": [["mul", ["var", "p", 1], ["var", "l", 1]]],
    }))
    rc = run(["report", "generic", "--spec", str(spec_file), "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "generic.report.json").read_text())
    assert report["verdicts"]["optimally_complete"]
    assert report["partition"]["r"] == 8


def test_small_e_override_flow(tmp_path):
    rc = run(["verify", "gq", "--e", "0", "--override-small-e",
              "--out", str(tmp_path)])
    report = json.loads((tmp_path / "gq_e0.report.json").read_text())
    assert report["polarity"]["ok"]
    # the polarity is valid at e=0; whether all claims hold is reported
    assert rc in (0, 1)
