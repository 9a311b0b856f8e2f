"""Acceptance suite: one test per criterion, at stated tolerances.

Each criterion prints a PASS/FAIL line with its elapsed time against the
budget it must meet.  The heavyweight family reports (gq, gh) are built
once per session and shared between the criteria that consume them.
"""

import math
import random
import time

import pytest

from polarpart import adg
from polarpart.adg import (
    ADGSpec, build_polarity_graph, gq_family, mul, plane_family, powi,
    var_l, var_p,
)
from polarpart.cli import main as cli_main
from polarpart.gf import make_field
from polarpart.graphs import Graph, Partition, contains_C4, edge_count, find_even_cycle
from polarpart.partitions import (
    general_even_partition, general_odd_partition, general_polarity_partition,
)
from polarpart.verify import (
    _psi_chi_a, binom_upper_bound, brute_force_chi_a, brute_force_psi,
    chromatic_number, luw_report, ratio_eq6, verdict, verify_bipartite_partition,
    verify_family, verify_gh_original, witness_record,
)

RESULTS = []
# seconds spent building each shared report, charged to the criterion
# whose budget covers that work
FIXTURE_SECONDS = {}


def record(num, desc, t0, budget, ok):
    elapsed = time.monotonic() - t0
    line = f"{'PASS' if ok and elapsed < budget else 'FAIL'} criterion {num}: {desc} ({elapsed:.2f}s / {budget:.0f}s)"
    RESULTS.append(line)
    print(line)
    assert ok, f"criterion {num} failed: {desc}"
    assert elapsed < budget, f"criterion {num} beyond budget: {elapsed:.2f}s >= {budget}s"


@pytest.fixture(scope="module")
def gq_report():
    return verify_family("gq", e=1, with_luw=False)


@pytest.fixture(scope="module")
def gh_report():
    t0 = time.monotonic()
    rep = verify_family("gh", e=1, mode="sampled", seed=0)
    FIXTURE_SECONDS["gh_report"] = time.monotonic() - t0
    return rep


def test_criterion_1_plane_q2():
    t0 = time.monotonic()
    rep = verify_family("plane", q=2, with_luw=False)
    ok = (
        rep["counts"]["n"] == 16
        and rep["counts"]["edges"] == 28
        and rep["counts"]["loops"] == 8
        and rep["degree_multiset"] == {"3": 8, "4": 8}
        and rep["partition"]["r"] == 8
        and rep["verdicts"]["optimally_complete"]
        and rep["mode"] == "exhaustive"
        and rep["ok"]
    )
    record(1, "plane q=2 counts, degrees, optimally complete", t0, 1.0, ok)


def test_criterion_2_plane_q3():
    t0 = time.monotonic()
    rep = verify_family("plane", q=3, with_luw=False)
    spec, pol = plane_family(3)
    g = build_polarity_graph(spec, pol).graph(10 ** 5)
    ok = (
        rep["counts"]["n"] == 81
        and rep["counts"]["edges"] == 351 == 27 * 26 // 2
        and rep["counts"]["loops"] == 27
        and rep["partition"]["r"] == 27
        and rep["verdicts"]["optimally_complete"]
        and contains_C4(g) is None
        and rep["cycles"]["C4"] == "pass"
        and rep["ok"]
    )
    record(2, "plane q=3 counts, optimally complete, C4-free", t0, 5.0, ok)


def test_criterion_3_gq8(gq_report):
    t0 = time.monotonic()
    rep = gq_report
    ok = (
        rep["counts"]["n"] == 512
        and rep["counts"]["edges"] == 2016 == 64 * 63 // 2
        and rep["counts"]["loops"] == 64
        and rep["partition"]["r"] == 64
        and rep["verdicts"]["optimally_complete"]
        and rep["cycles"] == {"C4": "pass", "C6": "pass"}
        and rep["bounds"]["prop1_fails_at_r_plus_1"]
        and rep["bounds"]["psi"] == 64
        and rep["bounds"]["chi_a"] == 64
        and rep["ok"]
    )
    record(3, "gq q=8 counts, optimally complete, no C4/C6, chi_a = psi = 64", t0, 60.0, ok)


def test_criterion_4_lemma1():
    t0 = time.monotonic()
    rep3 = verify_gh_original(3)
    rep9 = verify_gh_original(9)
    ok = (
        rep3["ok"] and rep9["ok"]
        and rep3["bijective_points"] and rep3["bijective_lines"]
        and rep9["bijective_points"] and rep9["bijective_lines"]
        and rep3["edges_checked"] == 3 ** 6
        and rep9["edges_checked"] == 9 ** 6
    )
    record(4, "hexagon change of coordinates is an isomorphism at q=3 and q=9", t0, 120.0, ok)


def test_criterion_5_gh27(gh_report):
    # the budget covers building the report, which happens in the fixture
    t0 = time.monotonic() - FIXTURE_SECONDS["gh_report"]
    rep = gh_report
    checks = rep["checks"]
    ok = (
        rep["counts"]["loops"] == 19683
        and rep["counts"]["absolute"] == 19683
        and rep["bounds"]["prop1_fails_at_r_plus_1"]
        and checks["substitution_pairs"] == 100_000
        and checks["full_sweeps"] == 200
        and checks["within_samples"] == 10_000
        and checks["degree_samples"] == 10_000
        and set(rep["degree_multiset"]) <= {"26", "27"}
        and rep["verdicts"]["optimally_complete"]
        and rep["seeds"] == [0]
        and rep["ok"]
    )
    record(5, "gh q=27 absolute count, prop-1 certificate, sampled protocol", t0, 600.0, ok)


def test_criterion_6_luw():
    t0 = time.monotonic()
    ok = True
    for builder, kmax in ((lambda: plane_family(2), 2),
                          (lambda: plane_family(3), 2),
                          (lambda: gq_family(1), 3)):
        spec, pol = builder()
        gp = build_polarity_graph(spec, pol).graph(10 ** 6)
        g_bip = spec.incidence_graph(10 ** 6)
        rep = luw_report(g_bip, gp, {k: find_even_cycle(gp, k) for k in range(2, kmax + 1)})
        ok = ok and rep["ok"] and rep["degree_relation_ok"] and rep["reconciled_ok"]
        ok = ok and rep["polarity_girth"] >= rep["bipartite_girth"] / 2
        ok = ok and rep["cycle_transfer_ok"]
    record(6, "LUW degree/incidence/girth/cycle-transfer relations", t0, 60.0, ok)


def test_criterion_7_theorem5():
    t0 = time.monotonic()
    ok = True

    # (a) odd m=3 toy over GF(2)
    ctx2 = make_field(2, 1)
    spec = ADGSpec(ctx2, 3, (mul(var_p(1), var_l(1)), mul(powi(var_p(1), 2), var_l(1))))
    part, r = general_odd_partition(spec)
    rep = verify_bipartite_partition(spec, part, r)
    ok = ok and r == 4 and rep["verdicts"]["complete"] and rep["eq6_ratio"] >= 1 / math.sqrt(2) - 1e-12

    # (b) even m=2 over GF(4) and GF(9)
    for p, expected_r in ((2, 8), (3, 27)):
        ctx = make_field(p, 2)
        espec = ADGSpec(ctx, 2, (mul(var_p(1), var_l(1)),))
        epart, er, _ = general_even_partition(espec)
        erep = verify_bipartite_partition(espec, epart, er)
        ok = ok and er == expected_r and erep["verdicts"]["complete"]
        ok = ok and erep["eq6_ratio"] >= 1 / math.sqrt(2) - 1e-12

    # (c) point-line-symmetric m=2 and m=4 systems over GF(4)
    ctx4 = make_field(2, 2)
    toys = [
        ADGSpec(ctx4, 2, (adg.add(mul(var_l(1), var_p(1)),
                                  adg.add(var_l(1), var_p(1))),)),
        ADGSpec(ctx4, 4, (mul(var_p(1), var_l(1)), mul(var_p(2), var_l(2)),
                          mul(var_p(3), var_l(3)))),
    ]
    for tspec in toys:
        pol = adg.generic_conjugation_polarity(tspec)
        g = build_polarity_graph(tspec, pol).graph(10 ** 5)
        tpart, tscheme = general_polarity_partition(tspec)
        verd, _, _ = verdict(g, tpart)
        ok = ok and verd["optimally_complete"]
        ok = ok and tscheme.r == 2 ** (tspec.m + 1)
        ok = ok and ratio_eq6(tscheme.r, edge_count(g)) >= 1 / math.sqrt(2)
    record(7, "theorem-5 constructions complete / optimally complete with ratio >= 1/sqrt(2)", t0, 30.0, ok)


def test_criterion_8_oracle_properties():
    t0 = time.monotonic()
    rng = random.Random(2024)
    ok = True
    for trial in range(200):
        n = rng.randrange(1, 9)
        prob = rng.uniform(0.05, 0.95)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < prob]
        g = Graph.from_edges(n, edges)
        psi, chi_a = _psi_chi_a(g)
        chi = chromatic_number(g)
        ub = binom_upper_bound(edge_count(g))
        ok = ok and chi <= chi_a <= psi <= ub
        # any partition the verifier accepts as complete has r <= psi
        r = rng.randrange(1, n + 1)
        labels = [rng.randrange(r) for _ in range(n)]
        used = sorted(set(labels))
        relabel = {c: i for i, c in enumerate(used)}
        part = Partition([relabel[c] for c in labels], len(used))
        verd, _, _ = verdict(g, part)
        if verd["complete"]:
            ok = ok and part.r <= psi
    c4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    ok = ok and brute_force_psi(c4) == 3 and brute_force_chi_a(c4) == 2
    record(8, "oracle chain chi <= chi_a <= psi <= binom bound on 200 seeded graphs", t0, 60.0, ok)


def test_criterion_9_witness_ledger(gq_report, gh_report):
    t0 = time.monotonic()
    ledger = []
    for q in (2, 3, 5):
        ledger.append(witness_record("plane", q=q))
    ledger.append(witness_record("gq", report=gq_report))
    ledger.append(witness_record("gh", report=gh_report))
    by_family = {(rec["family"], rec["q"]): rec for rec in ledger}
    ok = True
    for q, r, k in ((2, 8, 2), (3, 27, 3), (5, 125, 5)):
        rec = by_family[("plane", q)]
        ok = ok and (rec["r"], rec["k"]) == (r, k)
        ok = ok and rec["cycles"]["C4"] == "pass" and rec["mode"] == "exhaustive"
    rec = by_family[("gq", 8)]
    ok = ok and (rec["r"], rec["k"]) == (64, 8)
    ok = ok and rec["cycles"] == {"C4": "pass", "C6": "pass"}
    rec = by_family[("gh", 27)]
    ok = ok and (rec["r"], rec["k"]) == (19683, 729)
    ok = ok and all(v == "pass-sampled" for v in rec["cycles"].values())
    ok = ok and all("asymptotic" in rec["note"] for rec in ledger)
    record(9, "witness ledger (8,2) (27,3) (125,5) (64,8) (19683,729), sampled flags", t0, 120.0, ok)


def test_criterion_10_determinism(tmp_path):
    t0 = time.monotonic()
    a, b = tmp_path / "a", tmp_path / "b"
    rc1 = cli_main(["report", "plane", "--q", "3", "--out", str(a)])
    rc2 = cli_main(["report", "plane", "--q", "3", "--out", str(b)])
    ok = rc1 == 0 and rc2 == 0
    for name in ("plane_q3.edges", "plane_q3.partition",
                 "plane_q3.classes.json", "plane_q3.report.json"):
        ok = ok and (a / name).read_bytes() == (b / name).read_bytes()
    record(10, "byte-identical artifacts across repeated runs", t0, 60.0, ok)


def test_zz_summary():
    print()
    for line in RESULTS:
        print(line)
    assert len(RESULTS) == 10
