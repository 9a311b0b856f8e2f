"""Verdicts, bounds, LUW relations, oracles, reports."""

import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
import types

import numpy as np
import pytest

import polarpart
from polarpart import adg, graphs, verify
from polarpart.adg import build_polarity_graph, gh_family, gq_family, plane_family
from polarpart.cli import _jsonable
from polarpart.graphs import (
    Graph, Partition, degree, edge_count, even_cycle, find_even_cycle, materialize,
)
from polarpart.partitions import GHScheme, PlaneScheme, scheme_partition
from polarpart.verify import (
    _sampled_even_cycle, binom_upper_bound, brute_force_chi_a, brute_force_psi,
    chromatic_number, luw_report, proposition_bound, ratio_eq6, verdict,
    verify_family, verify_gh_original, witness_record, _psi_chi_a,
)
from test_adg import (
    FOLD_BUDGET_ABOVE_ALL, _all_coords, _class_of_coords, _coordinate_map, _coords_to_id,
    _id_to_coords, _neighbors_of_point, _scalar_bipartite_rows,
)


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n):
    return Graph.from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def seeded_gnp(n, prob, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < prob]
    return Graph.from_edges(n, edges)


# -- verdicts -----------------------------------------------------------------

def test_verdict_plane_q2():
    spec, pol = plane_family(2)
    g = build_polarity_graph(spec, pol).graph(10 ** 4)
    part = scheme_partition(PlaneScheme(spec.ctx), spec)
    verd, witnesses, mat = verdict(g, part)
    assert verd == {"complete": True, "achromatic": True, "optimally_complete": True}
    assert witnesses == []


def test_verdict_c4_with_merged_class():
    g = cycle_graph(4)
    verd, witnesses, _ = verdict(g, Partition([0, 1, 2, 2], 3))
    assert verd["complete"]
    assert not verd["achromatic"]
    assert ("within_edge", 2, 2, 3) in witnesses


def test_verdict_witness_for_missing_pair():
    g = Graph.from_edges(4, [(0, 1), (2, 3)])
    verd, witnesses, _ = verdict(g, Partition([0, 0, 1, 1], 2))
    assert not verd["complete"]
    assert ("missing_pair", 0, 1) in witnesses


def test_verdict_loops_do_not_count_within():
    g = Graph.from_edges(2, [(0, 1)], loops=[0, 1])
    verd, _, _ = verdict(g, Partition([0, 1], 2))
    assert verd["optimally_complete"]


# -- bounds --------------------------------------------------------------------

def test_proposition_bound_gq_cases():
    assert proposition_bound(512, 8, 64)        # 8*8 = 64 >= 63
    assert not proposition_bound(512, 8, 65)    # 7*8 = 56 < 64


def test_proposition_bound_gh_case():
    n, q = 27 ** 5, 27
    assert not proposition_bound(n, q, 27 ** 3 + 1)


def test_proposition_bound_validation():
    with pytest.raises(ValueError):
        proposition_bound(10, 2, 0)


def test_binom_upper_bound():
    assert binom_upper_bound(28) == 8
    assert binom_upper_bound(2016) == 64
    assert binom_upper_bound(0) == 1
    assert binom_upper_bound(1) == 2
    # floor(sqrt(2e + 1/4) + 1/2) agrees
    for e in range(0, 2000, 37):
        assert binom_upper_bound(e) == math.floor(math.sqrt(2 * e + 0.25) + 0.5)


def test_ratio_eq6_plane_q2():
    assert abs(ratio_eq6(8, 28) - 8 / math.sqrt(56)) < 1e-12
    assert ratio_eq6(8, 28) > 1


def test_ratio_eq6_optimally_complete_general():
    for r in (3, 8, 64, 19683):
        e = r * (r - 1) // 2
        assert ratio_eq6(r, e) > 1


def test_ratio_eq6_validation():
    with pytest.raises(ValueError):
        ratio_eq6(3, 0)


# -- LUW -----------------------------------------------------------------------

def _gp_cycles(gp, kmax):
    return {k: find_even_cycle(gp, k) for k in range(2, kmax + 1)}


def test_luw_plane_q2():
    spec, pol = plane_family(2)
    gp = build_polarity_graph(spec, pol).graph(10 ** 4)
    g_bip = spec.incidence_graph(10 ** 4)
    rep = luw_report(g_bip, gp, _gp_cycles(gp, 2))
    assert rep["ok"]
    assert rep["incidences"] == 64 and rep["polarity_edges"] == 28 and rep["absolute"] == 8
    assert rep["reconciled_ok"]
    assert not rep["literal_difference_form"]  # off by the factor of two
    assert rep["bipartite_girth"] == 6 and rep["polarity_girth"] >= 3


def test_luw_gq():
    spec, pol = gq_family(1)
    gp = build_polarity_graph(spec, pol).graph(10 ** 5)
    g_bip = spec.incidence_graph(10 ** 5)
    rep = luw_report(g_bip, gp, _gp_cycles(gp, 3))
    assert rep["ok"]
    assert rep["bipartite_girth"] == 8
    assert rep["cycle_transfer"][4]["bipartite_free"]
    assert rep["cycle_transfer"][4]["polarity_free"]
    assert rep["cycle_transfer"][6]["polarity_free"]
    assert rep["polarity_girth"] >= 4


def test_luw_degree_relation_plane_q3():
    spec, pol = plane_family(3)
    gp = build_polarity_graph(spec, pol).graph(10 ** 4)
    g_bip = spec.incidence_graph(10 ** 4)
    rep = luw_report(g_bip, gp, _gp_cycles(gp, 2))
    assert rep["degree_relation_ok"]
    assert rep["ok"]


def test_luw_catches_tampering():
    spec, pol = plane_family(2)
    gp = build_polarity_graph(spec, pol).graph(10 ** 4)
    g_bip = spec.incidence_graph(10 ** 4)
    # drop one polarity edge: degree relation and reconciliation both break
    edges = list(gp.edges())[1:]
    tampered = Graph.from_edges(gp.n, edges, gp.loops)
    rep = luw_report(g_bip, tampered, _gp_cycles(tampered, 2))
    assert not rep["ok"]
    assert not rep["degree_relation_ok"] or not rep["reconciled_ok"]


def test_luw_names_no_transfer_from_a_bipartite_graph_with_the_cycle():
    # a 2k-cycle in the bipartite graph proves nothing about the polarity graph
    gp = Graph.from_edges(2, [(0, 1)])
    rep = luw_report(cycle_graph(4), gp, {2: None, 3: None})
    assert rep["cycle_transfer"] == {
        4: {"bipartite_free": False, "polarity_free": None, "witness": None},
        6: {"bipartite_free": True, "polarity_free": True, "witness": None},
    }
    assert rep["cycle_transfer_ok"]


def _reference_degree_witness(g_bip, gp):
    """The per-vertex loop the LUW degree relation replaced."""
    for v in range(gp.n):
        expect = degree(g_bip, v) - (1 if v in gp.loops else 0)
        if degree(gp, v) != expect:
            return (v, degree(gp, v), expect)
    return None


def test_luw_degree_witness_is_the_first_mismatch():
    spec, pol = gq_family(1)
    gp = build_polarity_graph(spec, pol).graph(10 ** 4)
    g_bip = spec.incidence_graph(10 ** 4)
    edges = list(gp.edges())
    loops = sorted(gp.loops)
    cases = [
        gp,
        Graph.from_edges(gp.n, edges[:300] + edges[301:], gp.loops),  # one edge less
        Graph.from_edges(gp.n, edges, loops[:7] + loops[8:]),  # one absolute point less
        Graph.from_edges(gp.n, edges[:-1], loops[1:]),  # both, the loop first
    ]
    for g in cases:
        got = luw_report(g_bip, g, {})["degree_witness"]
        assert got == _reference_degree_witness(g_bip, g)
        assert got is None or all(type(x) is int for x in got)
    assert [luw_report(g_bip, g, {})["degree_relation_ok"] for g in cases] == [
        True, False, False, False]


# -- translation-orbit roots ------------------------------------------------------

def _bipartite(spec):
    return spec.incidence_graph(10 ** 5)


# the generic spec of the CI report: GF(9), m = 4, f_{j+1} = p_j l_j
GF9_M4 = {"field": {"p": 3, "k": 2}, "m": 4, "fs": [
    ["mul", ["var", "p", 1], ["var", "l", 1]], ["mul", ["var", "p", 2], ["var", "l", 2]],
    ["mul", ["var", "p", 3], ["var", "l", 3]]]}

ORBIT_SPECS = {
    **{f"plane q={q}": (lambda q=q: plane_family(q)[0]) for q in (2, 3, 4, 5, 7)},
    "gq e=0": lambda: gq_family(0, allow_small_e=True)[0],
    "gq e=1": lambda: gq_family(1)[0],
    "gh e=0": lambda: gh_family(0, allow_small_e=True)[0],
}


@pytest.mark.parametrize("name", ORBIT_SPECS)
def test_orbit_root_girth_equals_every_root_girth(name):
    spec = ORBIT_SPECS[name]()
    g_bip = _bipartite(spec)
    roots = verify.orbit_roots(spec, g_bip)
    # two orbits, p_1 = 0 and p_1 != 0, with minima 0 and (1, 0, ..., 0)
    assert roots.tolist() == [0, spec.ctx.order ** (spec.m - 1)]
    assert graphs.girth(g_bip, roots) == graphs.girth(g_bip)


@pytest.mark.parametrize("spec", [plane_family(3)[0], gq_family(1)[0]], ids=["GF(9)", "GF(8)"])
def test_incidence_orbits_are_p1_zero_and_p1_nonzero(spec, monkeypatch):
    """The orbit closure on point ids of the generators orbit_roots picks on
    the incidence graph, a GF(p)-basis of T and one scaling, has two
    classes: p_1 = 0 and p_1 != 0; with the +1 translations alone it would
    be finer over GF(9) and GF(8)."""
    import networkx as nx

    ns, q, k = spec.side_size, spec.ctx.order, spec.ctx.k
    g_bip = _bipartite(spec)
    perms = []

    def recording(g_, perm):
        perms.append(perm)
        return graphs.is_automorphism(g_, perm)

    monkeypatch.setattr(verify, "is_automorphism", recording)
    assert verify.orbit_roots(spec, g_bip) is not None
    assert len(perms) == (spec.m - 1) * k + 1 > spec.m
    for perm in perms:
        assert sorted(perm.tolist()) == list(range(2 * ns))
        assert graphs.is_automorphism(g_bip, perm)
    h = nx.Graph()
    h.add_nodes_from(range(ns))
    h.add_edges_from((v, int(perm[v])) for perm in perms for v in range(ns))
    orbits = sorted(sorted(c) for c in nx.connected_components(h))
    assert orbits == [list(range(ns // q)), list(range(ns // q, ns))]


@pytest.mark.parametrize("polar", [False, True], ids=["incidence", "polarity"])
def test_orbit_path_refused_off_the_first_coordinates(polar):
    spec_orig = adg.gh_original_family(3)[0]  # f_3 reads l_2
    pol = gh_family(0, allow_small_e=True)[1] if polar else None
    assert spec_orig.translation_ids(pol) is None
    assert verify.orbit_roots(spec_orig, _bipartite(spec_orig), pol) is None
    spec = adg.ADGSpec.from_json(GF9_M4)  # f_3 reads p_2 and l_2
    pol = adg.generic_conjugation_polarity(spec) if polar else None
    g = _polarity_graph(spec, pol) if polar else _bipartite(spec)
    assert spec.translation_ids(pol) is None
    assert verify.orbit_roots(spec, g, pol) is None


@pytest.mark.parametrize("polar", [False, True], ids=["incidence", "polarity"])
def test_orbit_roots_refuse_a_graph_of_another_size(polar):
    spec, pol = plane_family(3)
    pol = pol if polar else None
    ns = spec.side_size  # the translations act on q^m points and q^m lines
    for n in (0, ns - 1, ns + 1, 2 * ns - 1, 2 * ns + 1, 3 * ns):
        assert verify.orbit_roots(spec, Graph(n, [()] * n), pol) is None
    g = _polarity_graph(spec, pol) if polar else _bipartite(spec)
    assert not graphs.is_automorphism(g, np.arange(g.n - 1))  # another length


@pytest.mark.parametrize("family,kwargs", [
    ("plane", {"q": 3}), ("gh", {"e": 0, "allow_small_e": True})], ids=["plane q=3", "gh e=0"])
def test_orbit_roots_refused_when_a_loop_moves(family, kwargs):
    """T maps the absolute points onto themselves; a loop moved to a
    non-absolute vertex breaks that, and only the loop check sees it."""
    spec, pol = verify.family_bundle(family, **kwargs)[:2]
    g = _polarity_graph(spec, pol)
    loops = g.loops.tolist()
    moved = Graph(g.n, g.table, loops[1:] + [next(v for v in range(g.n) if v not in loops)])
    assert verify.orbit_roots(spec, g, pol) is not None
    assert verify.orbit_roots(spec, moved, pol) is None


@pytest.mark.parametrize("polar", [False, True], ids=["incidence", "polarity"])
def test_orbit_path_refused_on_a_graph_with_two_endpoints_swapped(polar):
    spec, pol = plane_family(3)
    pol = pol if polar else None
    g = _polarity_graph(spec, pol) if polar else _bipartite(spec)
    edges = list(g.edges())  # (u, v), u < v: (point, line) on the incidence graph
    a, b = edges[0]
    for c, d in edges:  # the first degree-keeping swap that closes a C4
        if len({a, b, c, d}) < 4 or d in g.adj[a] or b in g.adj[c]:
            continue
        tampered = Graph.from_edges(g.n, set(edges) - {(a, b), (c, d)} | {
            tuple(sorted(e)) for e in ((a, d), (c, b))}, g.loops)
        if find_even_cycle(tampered, 2) is not None:
            break
    assert (graphs.degrees(tampered) == graphs.degrees(g)).all()
    assert verify.orbit_roots(spec, g, pol) is not None
    assert verify.orbit_roots(spec, tampered, pol) is None
    if polar:
        rep = verify_family("plane", q=3, graph=tampered, with_luw=False)
        witness = list(_reference_find_even_cycle(tampered, 2))
        assert rep["cycles"] == {"C4": "fail"} and ("C4", witness) in rep["witnesses"]


def test_orbit_root_cycle_search_finds_a_c4():
    # f_2 = p_1 + l_1 reads only the first coordinates, and its graph has C4s
    spec = adg.ADGSpec(adg.make_field(3, 2), 2, (adg.add(adg.var_p(1), adg.var_l(1)),))
    g_bip = _bipartite(spec)
    roots = verify.orbit_roots(spec, g_bip)
    assert roots is not None
    w = find_even_cycle(g_bip, 2, roots)
    assert w is not None and find_even_cycle(g_bip, 2) is not None
    assert len(set(w)) == 4 and all(w[i] in g_bip.adj[w[i - 1]] for i in range(4))


@pytest.mark.parametrize("family,kmax", [
    (lambda: plane_family(3), 2), (lambda: plane_family(5), 2), (lambda: gq_family(1), 3)])
def test_orbit_roots_leave_cycle_searches_and_luw_report_unchanged(family, kmax):
    spec, pol = family()
    gp = build_polarity_graph(spec, pol).graph(10 ** 5)
    g_bip = _bipartite(spec)
    roots = verify.orbit_roots(spec, g_bip)
    for k in range(2, kmax + 1):
        assert find_even_cycle(g_bip, k, roots) is None is find_even_cycle(g_bip, k)
    cycles = _gp_cycles(gp, kmax)
    assert luw_report(g_bip, gp, cycles, roots) == luw_report(g_bip, gp, cycles)


# -- polarity translation-orbit roots ------------------------------------------------

# family -> (spec, polarity), |T|, the number of orbit roots under T and
# the scaling
POLARITY_T = {
    "plane q=3": (lambda: plane_family(3), 3, 5),
    "plane q=5": (lambda: plane_family(5), 5, 7),
    "plane q=9": (lambda: plane_family(9), 9, 11),
    "gq e=1": (lambda: gq_family(1), 8, 10),
    "gq e=2": (lambda: gq_family(2), 32, 34),
}


def _polarity_translation_scan(spec, pol):
    """T by the scalar polarity: every t with t_1 = 0 and polar(t) = -t."""
    ctx = spec.ctx
    coords = (_id_to_coords(spec, t) for t in range(ctx.order ** (spec.m - 1)))
    return [_coords_to_id(spec, c) for c in coords
            if pol.apply_point(ctx, c) == tuple(ctx.neg(x) for x in c)]


@pytest.mark.parametrize("name", POLARITY_T)
def test_polarity_translations_match_a_scalar_scan(name, monkeypatch):
    make, size, count = POLARITY_T[name]
    spec, pol = make()
    ts = spec.translation_ids(pol)
    assert ts.tolist() == _polarity_translation_scan(spec, pol) and len(ts) == size
    g = adg.PolarityGraph(spec, pol).graph(10 ** 5)
    checked = []

    def recording(g_, perm):
        checked.append(graphs.is_automorphism(g_, perm))
        return checked[-1]

    monkeypatch.setattr(verify, "is_automorphism", recording)
    roots = verify.orbit_roots(spec, g, pol)
    # a GF(p)-basis of T and the scaling, each an automorphism of the graph
    assert checked == [True] * (round(math.log(size, spec.ctx.p)) + 1)
    assert len(roots) == count
    if g.n <= 1000:  # the orbit minima, by scalar scaling and translation
        ctx = spec.ctx
        factors = spec.scaling(pol)[0]
        low = []
        for v in range(g.n):
            c, orbit = _id_to_coords(spec, v), []
            for _ in range(ctx.order - 1):  # c runs through the scaling's powers of v
                orbit += [_coords_to_id(spec, tuple(map(ctx.add, c, _id_to_coords(spec, t))))
                          for t in ts.tolist()]
                c = tuple(map(ctx.mul, c, factors))
            low.append(min(orbit))
        assert roots.tolist() == [v for v in range(g.n) if low[v] == v]


def test_order_free_automorphism_check_takes_a_scaling():
    """The plane q=3 scaling multiplies p_1 and so reorders rows: the
    order-free check accepts it where comparing rows in order rejects it,
    and a perm that sends a row onto another set fails."""
    spec, pol = plane_family(3)
    ctx, g = spec.ctx, _polarity_graph(spec, pol)
    factors = spec.scaling(pol)[0]
    coords = spec.ids_to_coords(np.arange(g.n))
    perm = spec.coords_to_ids([ctx.mul_bulk(c, f) for c, f in zip(coords, factors)])
    table = g.table
    assert not np.array_equal(table[perm], np.append(perm, -1).astype(table.dtype)[table])
    assert graphs.is_automorphism(g, perm)
    loops = set(g.loops.tolist())
    u, w = [v for v in range(g.n) if v not in loops][:2]
    swap = np.arange(g.n)
    swap[[u, w]] = w, u  # loops stay put; rows u and w hold other sets
    assert set(g.adj[u]) != set(g.adj[w])
    assert not graphs.is_automorphism(g, swap)


def test_orbit_roots_refuse_a_scaling_with_the_wrong_mu(monkeypatch):
    """mu = 1, the incidence graph's scaling, does not commute with the
    plane q=3 polarity: its map is no automorphism of the polarity graph,
    orbit_roots falls back to None, and the report is the every-root one."""
    scaling = adg.ADGSpec.scaling
    spec, pol = plane_family(3)
    assert spec.scaling(pol)[1][0] != 1
    monkeypatch.setattr(adg.ADGSpec, "scaling", lambda self, pol=None: scaling(self))
    assert verify.orbit_roots(spec, _polarity_graph(spec, pol), pol) is None
    assert verify.orbit_roots(spec, _bipartite(spec)).tolist() == [0, 9]
    rep = verify_family("plane", q=3)
    assert rep["ok"]
    monkeypatch.setattr(verify, "orbit_roots", lambda spec, g, pol=None: None)
    assert verify_family("plane", q=3) == rep


def test_non_monomial_spec_keeps_the_translation_roots():
    # f_2 = p_1 + l_1 reads only p_1 and l_1 but is no monomial
    spec = adg.ADGSpec(adg.make_field(3, 2), 2, (adg.add(adg.var_p(1), adg.var_l(1)),))
    assert spec.scaling() is None and spec.translation_ids() is not None
    assert verify.orbit_roots(spec, _bipartite(spec)).tolist() == list(range(0, 81, 9))
    for f in (adg.const(1), adg.neg(adg.var_p(1)), adg.mul(adg.const(2), adg.var_l(1))):
        assert adg.ADGSpec(spec.ctx, 2, (f,)).scaling() is None
    assert adg.gh_original_family(3)[0].scaling() is None  # f_3 reads l_2


def test_gh_scaling_at_q27():
    """lambda is the generator 3 of GF(27)*, and mu = 4 is the element with
    mu = lambda^(3^2), the polarity's twist of the first coordinate; the
    factors of coordinate j are lambda^a mu^b on both sides."""
    spec, pol = gh_family(1)
    ctx = spec.ctx
    points, lines = spec.scaling(pol)
    assert (points[0], lines[0]) == (ctx.generator, 4) == (3, ctx.frobenius(3, 2))
    exps = [(1, 1), (2, 1), (3, 1), (3, 2)]
    rest = tuple(ctx.mul(ctx.pow(3, a), ctx.pow(4, b)) for a, b in exps)
    assert points[1:] == lines[1:] == rest
    assert spec.scaling() == ((3, *[ctx.pow(3, a) for a, _ in exps]),
                              (1, *[ctx.pow(3, a) for a, _ in exps]))


# family -> (spec, polarity), the cycle lengths 2k compared, those the
# depth-first reference runs for too (its C4 search at plane q=7 takes 5 s),
# and the largest k for which the graph is C4-, ..., C2k-free
ORBIT_POLARITY = {
    **{f"plane q={q}": (lambda q=q: plane_family(q), (2, 3, 4), (2, 3, 4), 2)
       for q in (2, 3, 4, 5)},
    "plane q=7": (lambda: plane_family(7), (2, 3), (3,), 2),
    "gq e=1": (lambda: gq_family(1), (2, 3, 4, 5), (2, 3, 4, 5), 3),
    "gh e=0": (lambda: gh_family(0, allow_small_e=True), (2, 3, 4, 5), (2, 3, 4, 5), 5),
}


@pytest.mark.parametrize("name", ORBIT_POLARITY)
def test_polarity_orbit_roots_agree_with_every_root_searches(name):
    from test_graphs import _reference_girth

    make, ks, reference, free = ORBIT_POLARITY[name]
    spec, pol = make()
    gp = _polarity_graph(spec, pol)
    assert graphs.girth(gp) == _reference_girth(gp)
    # the polarity graph, then the incidence graph, which by the LUW
    # transfer is C4-, ..., C2k-free for the same k
    for g, g_pol in ((gp, pol), (_bipartite(spec), None)):
        roots = verify.orbit_roots(spec, g, g_pol)
        assert roots is not None and len(roots) < spec.side_size
        for k in ks:
            # the first vertex on a 2k-cycle is an orbit minimum, and a walk
            # through a lower vertex closes no pair: the witnesses agree
            w = find_even_cycle(g, k, roots)
            assert w == find_even_cycle(g, k)
            if k in reference:
                assert w == _reference_find_even_cycle(g, k)
            assert (w is None) == (k <= free)
            if w is not None:
                assert len(set(w)) == 2 * k
                assert all(w[i] in g.adj[w[i - 1]] for i in range(2 * k))
        assert graphs.girth(g, roots) == graphs.girth(g)


@pytest.mark.parametrize("family,kwargs", [
    ("plane", {"q": 3}), ("gq", {"e": 1}), ("gh", {"e": 0, "allow_small_e": True})],
    ids=["plane q=3", "gq e=1", "gh e=0"])
def test_polarity_orbit_roots_leave_the_report_unchanged(monkeypatch, family, kwargs):
    rep = verify_family(family, **kwargs)
    assert rep["ok"]
    monkeypatch.setattr(verify, "orbit_roots", lambda spec, g, pol=None: None)
    assert verify_family(family, **kwargs) == rep


# -- oracles ---------------------------------------------------------------------

def test_oracle_k4():
    g = complete_graph(4)
    assert brute_force_psi(g) == 4
    assert brute_force_chi_a(g) == 4


def test_oracle_c4():
    g = cycle_graph(4)
    assert brute_force_psi(g) == 3
    assert brute_force_chi_a(g) == 2


def test_oracle_edgeless():
    g = Graph.from_edges(5, [])
    assert brute_force_psi(g) == 1
    assert brute_force_chi_a(g) == 1


def test_oracle_ceiling():
    with pytest.raises(ValueError):
        brute_force_psi(Graph.from_edges(13, []))


def test_oracle_chain_on_random_graphs():
    rng = random.Random(11)
    for trial in range(40):
        g = seeded_gnp(rng.randrange(1, 9), rng.uniform(0.1, 0.9), seed=trial)
        psi, chi_a = _psi_chi_a(g)
        chi = chromatic_number(g)
        ub = binom_upper_bound(edge_count(g))
        assert chi <= chi_a <= psi <= ub


def test_chromatic_number_samples():
    assert chromatic_number(cycle_graph(5)) == 3
    assert chromatic_number(cycle_graph(6)) == 2
    assert chromatic_number(complete_graph(4)) == 4
    assert chromatic_number(Graph.from_edges(3, [])) == 1


def test_verifier_complete_implies_r_at_most_psi():
    rng = random.Random(23)
    for trial in range(60):
        n = rng.randrange(2, 9)
        g = seeded_gnp(n, rng.uniform(0.2, 0.8), seed=1000 + trial)
        psi = brute_force_psi(g)
        # random partition
        r = rng.randrange(1, n + 1)
        labels = [rng.randrange(r) for _ in range(n)]
        used = sorted(set(labels))
        relabel = {c: i for i, c in enumerate(used)}
        part = Partition([relabel[c] for c in labels], len(used))
        verd, _, _ = verdict(g, part)
        if verd["complete"]:
            assert part.r <= psi


# -- family reports ---------------------------------------------------------------

def test_verify_family_plane_q2_report():
    rep = verify_family("plane", q=2, with_luw=True)
    assert rep["ok"]
    assert rep["counts"] == {"n": 16, "edges": 28, "loops": 8, "absolute": 8,
                             "edge_count_method": "exact"}
    assert rep["degree_multiset"] == {"3": 8, "4": 8}
    assert rep["partition"]["r"] == 8
    assert rep["bounds"]["binom_ub"] == 8
    assert rep["bounds"]["certified"]
    assert rep["cycles"] == {"C4": "pass"}
    assert rep["luw"]["ok"]


def test_verify_family_certifies_gq():
    rep = verify_family("gq", e=1, with_luw=False)
    assert rep["ok"]
    assert rep["bounds"]["psi"] == 64 and rep["bounds"]["chi_a"] == 64
    assert rep["bounds"]["prop1_fails_at_r_plus_1"]
    assert rep["cycles"] == {"C4": "pass", "C6": "pass"}


@pytest.mark.parametrize("family,kwargs,ks", [
    ("plane", {"q": 3}, [2]),
    ("gq", {"e": 1}, [2, 3]),
], ids=["plane q=3", "gq e=1"])
def test_exhaustive_protocol_searches_each_graph_once(monkeypatch, family, kwargs, ks):
    searched = []  # (graph, k); holding the graphs keeps their ids distinct

    def counting(g, k, roots=None):
        searched.append((g, k))
        return find_even_cycle(g, k, roots)

    monkeypatch.setattr(verify, "find_even_cycle", counting)
    rep = verify_family(family, with_luw=True, **kwargs)
    assert rep["ok"] and rep["luw"]["ok"]
    calls = sorted((id(g), k) for g, k in searched)
    graph_ids = sorted({g_id for g_id, _ in calls})
    assert len(graph_ids) == 2  # the polarity graph and the bipartite graph
    assert calls == [(g_id, k) for g_id in graph_ids for k in ks]


def test_verify_family_detects_missing_edge():
    spec, pol = plane_family(2)
    g = build_polarity_graph(spec, pol).graph(10 ** 4)
    edges = list(g.edges())
    tampered = Graph.from_edges(g.n, edges[1:], g.loops)
    rep = verify_family("plane", q=2, graph=tampered, with_luw=False)
    assert not rep["ok"]
    kinds = {w[0] for w in rep["witnesses"]}
    assert "missing_pair" in kinds


def test_verify_family_mode_validation():
    with pytest.raises(ValueError):
        verify_family("gh", e=1, mode="exhaustive")
    with pytest.raises(ValueError):
        verify_family("plane", q=2, mode="sampled")


def test_gh_original_report_q3():
    rep = verify_gh_original(3)
    assert rep["ok"]
    assert rep["girth"] == 12
    assert rep["edges_checked"] == 3 ** 6
    assert rep["bijective_points"] and rep["bijective_lines"]


def _reference_verify_gh_original(q, materialize_limit=verify.DEFAULT_MATERIALIZE_LIMIT):
    """The scalar loop that verify_gh_original replaced: image sets per
    side, then every incidence through phi, point by point."""
    spec_orig, phi = adg.gh_original_family(q)
    phi = _coordinate_map(phi)
    spec_gh = adg.gh_adjacency_spec(q)
    ns = spec_orig.side_size
    point_images = set()
    line_images = set()
    for coords in _all_coords(spec_orig):
        point_images.add(phi("P", coords))
        line_images.add(phi("L", coords))
    bijective = len(point_images) == ns and len(line_images) == ns
    preserved = True
    witness = None
    edges_checked = 0
    for p in _all_coords(spec_orig):
        fp = phi("P", p)
        for lv in _neighbors_of_point(spec_orig, p):
            if not spec_gh.incident(fp, phi("L", lv)):
                preserved = False
                witness = (p, lv)
                break
            edges_checked += 1
        if not preserved:
            break
    report = {
        "family": "gh-original",
        "params": {"q": q},
        "mode": "exhaustive",
        "field": spec_orig.ctx.to_json(),
        "counts": {"n": 2 * ns, "edges": edges_checked, "loops": 0, "absolute": 0,
                   "edge_count_method": "exact"},
        "bijective_points": len(point_images) == ns,
        "bijective_lines": len(line_images) == ns,
        "edges_checked": edges_checked,
        "edges_expected": q ** 6,
        "adjacency_preserved": preserved,
        "witnesses": [] if witness is None else [("phi_edge", witness)],
        "seeds": [],
    }
    if 2 * ns <= 1000:
        rows, loops = _scalar_bipartite_rows(spec_orig)
        gv = graphs.girth(materialize(2 * ns, lambda: (np.array(rows), loops), materialize_limit))
        report["girth"] = gv if gv != math.inf else "inf"
    report["ok"] = bijective and preserved and edges_checked == q ** 6
    return report


def _tampered_family(monkeypatch, tamper):
    """Make gh_original_family return its spec's fs and phi's expressions
    tampered: tamper(fs, P, L) -> (fs, P, L)."""
    family = adg.gh_original_family

    def tampered(q):
        spec, phi = family(q)
        fs, points, lines = tamper(spec.fs, phi.exprs["P"], phi.exprs["L"])
        return adg.ADGSpec(spec.ctx, spec.m, fs), adg.CoordinateMap(spec.ctx, points, lines)

    monkeypatch.setattr(adg, "gh_original_family", tampered)


c1, c2, c3, c4, c5 = (adg.var_p(i) for i in range(1, 6))
GH_ORIGINAL_TAMPERS = {
    "intact": None,
    # shifts the point image's fifth coordinate where c1 c2 c4 != 0: still
    # bijective, and the first broken edge is far into the sweep
    "edge": lambda fs, P, L: (fs, P[:4] + (adg.add(P[4], adg.mul(adg.mul(c1, c2), c4)),), L),
    # shifts the line image's fifth coordinate where l1 != 0: still
    # bijective, and the first broken edge is the second line through 0
    "edge-line": lambda fs, P, L: (fs, P, L[:4] + (adg.add(L[4], adg.mul(c1, c1)),)),
    # drops c5 from the line image's fifth coordinate: not bijective on lines
    "bijective": lambda fs, P, L: (fs, P, L[:4] + (adg.mul(c2, c3),)),
    # shifts the line image's third coordinate by l1 l4: still bijective,
    # breaks equation 1 only, and widens its support by p4
    "equation-1": lambda fs, P, L: (fs, P, L[:2] + (adg.add(L[2], adg.mul(c1, c4)),) + L[3:]),
    # shifts the point image's fourth coordinate by c1 c5: still bijective
    # (c5 comes from the fifth), breaks equation 2 only, and widens its support by p5
    "equation-2": lambda fs, P, L: (fs, P[:3] + (adg.add(P[3], adg.mul(c1, c5)),) + P[4:], L),
    # adds p4 l1 to the cross-term spec's f_3, the fifth line coordinate's
    # equation: phi is intact, but no longer maps this system onto the power form
    "spec-f3": lambda fs, P, L: (fs[:3] + (adg.add(fs[3], adg.mul(c4, adg.var_l(1))),), P, L),
    # the equation-1 and edge tampers at once: equation 1 fails first, at
    # a lower incidence than equation 3's first failure
    "two-equations": lambda fs, P, L: GH_ORIGINAL_TAMPERS["edge"](
        *GH_ORIGINAL_TAMPERS["equation-1"](fs, P, L)),
}
# (equation, point coordinate) pairs each tamper adds to the supports at q=9
WIDENED = {"edge": [(3, 4)], "equation-1": [(1, 4)], "equation-2": [(2, 5)], "spec-f3": [(3, 4)],
           "two-equations": [(1, 4), (3, 4)]}


def _support_grid(*points):
    return [("p", i) for i in points] + [("l", 1)]


def _gh_original_supports(q):
    spec, phi = adg.gh_original_family(q)
    return verify._equation_supports(spec, phi, adg.gh_adjacency_spec(q))


def test_equation_supports_pin_each_grid(monkeypatch):
    intact = [_support_grid(1, 2), _support_grid(1, 2, 3), _support_grid(1, 2, 3, 4),
              _support_grid(1, 2, 3, 5)]
    assert _gh_original_supports(9) == intact
    assert sum(9 ** len(s) for s in intact) == 125_388  # against 4 * 9^6 = 2,125,764
    for tamper in sorted(set(GH_ORIGINAL_TAMPERS) - {"intact"}):
        _tampered_family(monkeypatch, GH_ORIGINAL_TAMPERS[tamper])
        expected = [list(s) for s in intact]
        for j, i in WIDENED.get(tamper, []):  # a new variable widens only its own S_j
            expected[j] = _support_grid(*sorted({i, *(k for _, k in intact[j][:-1])}))
        assert _gh_original_supports(9) == expected, tamper
        monkeypatch.undo()


@pytest.mark.parametrize("q,blocks", [(3, (1, 2, 4, 10, 100, 1 << 14)),
                                      (9, (900, 1 << 13, 1 << 14))])
def test_gh_original_slabs_cover_each_grid_point_once(monkeypatch, q, blocks):
    spec = adg.gh_original_family(q)[0]
    graph = spec.incidence_graph(1000) if q == 3 else None
    grid = sum(q ** len(s) for s in _gh_original_supports(q))
    sizes = []
    # the dual's point_on_bulk solves each slab's lines, and no other call makes one
    on = adg.ADGSpec.point_on_bulk
    monkeypatch.setattr(adg.ADGSpec, "point_on_bulk", lambda self, pv, l1: (
        sizes.append(np.broadcast(*pv, l1).size) or on(self, pv, l1)))
    for block in blocks:
        monkeypatch.setattr(verify, "GH_ORIGINAL_BLOCK", block)
        sizes.clear()
        assert verify_gh_original(q, graph=graph)["ok"]
        assert max(sizes) <= block and sum(sizes) == grid


def _failing_equations(q, witness):
    """The equations of the power-form system that the image of the
    witness incidence (p, line) breaks, by the scalar path."""
    phi = _coordinate_map(adg.gh_original_family(q)[1])
    fp, fl = phi("P", witness[0]), phi("L", witness[1])
    target = adg.gh_adjacency_spec(q)
    return [j for j, fn in enumerate(target.compiled())
            if target.ctx.add(fl[j + 1], fp[j + 1]) != fn(fl, fp)]


@pytest.mark.parametrize("tamper", sorted(GH_ORIGINAL_TAMPERS))
@pytest.mark.parametrize("q", [3, 9])
def test_gh_original_matches_scalar_reference(monkeypatch, q, tamper):
    if GH_ORIGINAL_TAMPERS[tamper] is not None:
        _tampered_family(monkeypatch, GH_ORIGINAL_TAMPERS[tamper])
    expected = _reference_verify_gh_original(q)
    assert expected["ok"] == (tamper == "intact")
    for budget in (0, FOLD_BUDGET_ABOVE_ALL):  # without and with solve tables
        monkeypatch.setattr(adg, "FOLD_BUDGET", budget)
        assert verify_gh_original(q) == expected
    for points_per_block in (1, 2, 100) if q == 3 else (100,):
        monkeypatch.setattr(verify, "GH_ORIGINAL_BLOCK", points_per_block * q)
        assert verify_gh_original(q) == expected
    if tamper.startswith(("edge", "equation", "spec", "two")):
        assert expected["bijective_points"] and expected["bijective_lines"]
    if tamper == "edge":
        assert expected["edges_checked"] == q * (q ** 4 + q ** 3 + q)  # point (1, 1, 0, 1, 0)
    if tamper == "edge-line":
        assert expected["edges_checked"] == 1
    if tamper.startswith("equation"):
        assert _failing_equations(q, expected["witnesses"][0][1]) == [int(tamper[-1])]
    if tamper == "two-equations":  # the least failure over both equations
        assert _failing_equations(q, expected["witnesses"][0][1]) == [1]
        assert expected["edges_checked"] < q * (q ** 4 + q ** 3 + q)
    if tamper == "bijective":
        assert expected["bijective_points"] and not expected["bijective_lines"]


# (r, k, forbidden) by family and q: the table witness_record read before
# it read them from the report
WITNESS_SHAPE = {
    "plane": lambda q: (q ** 3, q, ["C4"]),
    "gq": lambda q: (q ** 2, q, ["C4", "C6"]),
    "gh": lambda q: (q ** 3, q ** 2, ["C4", "C6", "C8", "C10"]),
}


def test_witness_record_plane(monkeypatch):
    rec = witness_record("plane", q=2)
    assert (rec["r"], rec["k"]) == (8, 2)
    assert rec["forbidden"] == ["C4"]
    assert rec["cycles"]["C4"] == "pass"
    assert rec["mode"] == "exhaustive"
    monkeypatch.setattr(verify, "SAMPLED_INCIDENCES", 2000)
    monkeypatch.setattr(verify, "SAMPLED_SYMMETRY", 500)
    gh = verify_family("gh", e=1, mode="sampled", **GOLDEN_SAMPLES)
    records = [rec, witness_record("plane", q=3), witness_record("gq", e=1),
               witness_record("gh", report=gh)]
    for rec in records:
        assert (rec["r"], rec["k"], rec["forbidden"]) == WITNESS_SHAPE[rec["family"]](rec["q"])
    assert rec["mode"] == "sampled" and set(rec["cycles"].values()) == {"pass-sampled"}


# vertex degree -> count by family and q: the table expected_degree_spectrum
# replaced
DEGREE_SPECTRUM = {
    "plane": lambda q: {q * q: q ** 4 - q ** 3, q * q - 1: q ** 3},
    "gq": lambda q: {q: q ** 3 - q ** 2, q - 1: q ** 2},
    "gh": lambda q: {q: q ** 5 - q ** 3, q - 1: q ** 3},
}


def test_degree_spectrum_from_the_scheme_matches_the_family_table():
    bundles = [verify.family_bundle("plane", q=q) for q in (2, 3, 4, 5)]
    bundles += [verify.family_bundle(family, e=e, allow_small_e=True)
                for family, es in (("gq", (0, 1, 2)), ("gh", (0, 1))) for e in es]
    for spec, _, scheme, params in bundles:
        expected = DEGREE_SPECTRUM[scheme.family](params["q"])
        assert verify.expected_degree_spectrum(spec, scheme) == expected, params


def test_witness_record_requires_complete():
    rep = {"verdicts": {"complete": False}}
    with pytest.raises(ValueError):
        witness_record("plane", report=rep)


# -- layered even-cycle search against the depth-first reference --------------

def _reference_dfs(root, k, neighbors):
    """The depth-first 2k-cycle search the layered one replaced, kept as its
    reference: neighbours are pushed in list order, so popped last first."""
    by_end = {}
    stack = [(root, (root,))]
    while stack:
        v, path = stack.pop()
        if len(path) == k + 1:
            inner = path[1:-1]
            bucket = by_end.setdefault(v, [])
            for other in bucket:
                if not set(inner) & set(other):
                    return path + tuple(reversed(other))
            bucket.append(inner)
            continue
        for u in neighbors(v):
            if u not in path:
                stack.append((u, path + (u,)))
    return None


def _reference_find_even_cycle(g, k):
    """The exhaustive search find_even_cycle replaced: the depth-first one
    from every root in ascending order, neighbours popped in ascending order."""
    for root in range(g.n):
        w = _reference_dfs(root, k, lambda v: g.adj[v][::-1])
        if w is not None:
            return w
    return None


def _reference_sampled_even_cycle(pg, k, num_roots, rng):
    """Every root drawn first, then the depth-first search from each in turn."""
    spec = pg.spec
    roots = [tuple(rng.randrange(spec.ctx.order) for _ in range(spec.m))
             for _ in range(num_roots)]
    for root in roots:
        w = _reference_dfs(root, k, pg.neighbors_coords)
        if w is not None:
            return w
    return None


def _polarity_graph(spec, pol):
    return adg.PolarityGraph(spec, pol).graph(10 ** 4)


def _neighbor_table(g):
    import numpy as np

    table = np.full((g.n, max(len(a) for a in g.adj)), -1, dtype=np.int64)
    for v, a in enumerate(g.adj):
        table[v, :len(a)] = a
    return table


def _networkx_test_graphs():
    """The random graphs of the networkx cross-check in test_graphs."""
    rng = random.Random(42)
    for trial in range(100):
        n = rng.randrange(4, 21)
        yield seeded_gnp(n, rng.uniform(0.1, 0.35), seed=trial)


CYCLE_GRAPHS = {
    "plane q=2": lambda: _polarity_graph(*plane_family(2)),
    "plane q=3": lambda: _polarity_graph(*plane_family(3)),
    "gq e=1": lambda: _polarity_graph(*gq_family(1)),
    "gh e=0": lambda: _polarity_graph(*gh_family(0, allow_small_e=True)),
    "gnp n=40": lambda: seeded_gnp(40, 0.15, seed=2),
}


@pytest.mark.parametrize("name", sorted(CYCLE_GRAPHS))
def test_layered_cycle_search_matches_dfs_on_every_root(name):
    import numpy as np

    g = CYCLE_GRAPHS[name]()
    table = _neighbor_table(g)
    descending = lambda ids: table[ids][:, ::-1]  # noqa: E731
    on_cycle = 0
    for k in (2, 3, 4):
        first = None
        for root in range(g.n):
            hit = even_cycle([root], k, descending, g.n)
            w = _reference_dfs(root, k, lambda v: g.adj[v])
            assert hit == (None if w is None else (0, w))
            on_cycle += w is not None
            if first is None and w is not None:
                first = (root, w)
        # all roots at once, in blocks: the first root on a cycle, same witness
        assert even_cycle(np.arange(g.n), k, descending, g.n) == first
    assert on_cycle > 0 or name == "gh e=0"


def _witness_chunks(g, k, w, layer_chunk):
    """The last-layer chunks of find_even_cycle's root block that hold the
    two walks whose shared key closes witness w: the walks root..v_{k-1}
    of the block's roots, each over neighbours above its root, numbered
    root by root, depth first over the ascending rows."""
    size = max(1, layer_chunk // max(len(a) for a in g.adj) ** k)  # roots a block
    first = w[0] // size * size
    walks = []
    for root in range(first, min(first + size, g.n)):
        layer = [(root,)]
        for _ in range(k - 1):
            layer = [p + (v,) for p in layer for v in g.adj[p[-1]] if v > root and v not in p]
        walks += layer
    later, partner = w[:k], (w[0],) + w[:k:-1]
    return walks.index(later) // layer_chunk, walks.index(partner) // layer_chunk


@pytest.mark.parametrize("layer_chunk", [1, 50, graphs.LAYER_CHUNK])
def test_find_even_cycle_matches_dfs_reference(layer_chunk, monkeypatch):
    monkeypatch.setattr(graphs, "LAYER_CHUNK", layer_chunk)
    later_block = spanning = 0
    cases = [(g, k) for g in _networkx_test_graphs() for k in (2, 3, 4, 5)]
    cases += [(make(), k) for make in CYCLE_GRAPHS.values() for k in (2, 3, 4)]
    for g, k in cases:
        w = _reference_find_even_cycle(g, k)
        assert find_even_cycle(g, k) == w
        if w is not None:  # witnesses start at their root
            width = max(len(a) for a in g.adj)
            later_block += w[0] >= max(1, layer_chunk // width ** k)
            later, partner = _witness_chunks(g, k, w, layer_chunk)
            spanning += later != partner
    # small chunks split the roots into blocks, and some first cycle roots
    # then lie past block 0; they split last layers too, and some witnesses
    # join walks of two chunks, found again in the layer rebuilt in walk
    # order after the in-place sort
    assert later_block > 0 or layer_chunk == graphs.LAYER_CHUNK
    assert spanning > 0 or layer_chunk == graphs.LAYER_CHUNK


def test_every_root_search_walks_only_above_its_root():
    import numpy as np

    g = _polarity_graph(*plane_family(3))  # C4-free: every root is searched
    table = _neighbor_table(g)
    rows = []

    def neighbors(ids):
        rows.append(len(ids))
        return table[ids]

    # roots 0..n-1: each root, then each higher neighbour, is expanded once
    # (the first call reads the table width)
    assert even_cycle(np.arange(g.n), 2, neighbors, g.n) is None
    assert sum(rows) == 1 + g.n + edge_count(g)
    # other root orders keep every walk: each arc is expanded
    rows.clear()
    assert even_cycle(np.arange(g.n)[::-1], 2, neighbors, g.n) is None
    assert sum(rows) == 1 + g.n + 2 * edge_count(g)


@pytest.mark.parametrize("make_family,k", [
    (lambda: plane_family(3), 2), (lambda: plane_family(3), 3),
    (lambda: gq_family(1), 3), (lambda: gq_family(1), 4),
    (lambda: gh_family(0, allow_small_e=True), 4),
])
def test_sampled_even_cycle_matches_dfs_reference(make_family, k):
    pg = adg.PolarityGraph(*make_family())
    for seed in range(3):
        for num_roots in (0, 5):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            assert _sampled_even_cycle(pg, k, num_roots, rng) == \
                _reference_sampled_even_cycle(pg, k, num_roots, ref_rng)
            assert rng.getstate() == ref_rng.getstate()


@pytest.mark.parametrize("k,num_roots", [(2, 5), (3, 2)])
def test_sampled_even_cycle_matches_dfs_reference_at_q27(k, num_roots):
    # n = 27^5: neighbor_ids rows written reversed into the search's int32 table
    pg = adg.PolarityGraph(*gh_family(1))
    for seed in (0, 1):
        rng, ref_rng = random.Random(seed), random.Random(seed)
        assert _sampled_even_cycle(pg, k, num_roots, rng) == \
            _reference_sampled_even_cycle(pg, k, num_roots, ref_rng)
        assert rng.getstate() == ref_rng.getstate()


class _StoredPolarityGraph:
    """A stored graph on q * q vertices behind the interface that
    _sampled_even_cycle and its reference use (ids are base-q coordinate
    pairs), so that sampled roots repeat and only some lie on a cycle."""

    def __init__(self, g, q):
        self.n, self.adj, self.table = g.n, g.adj, _neighbor_table(g)
        self.spec = types.SimpleNamespace(
            ctx=types.SimpleNamespace(order=q), m=2,
            coords_to_ids=lambda c: c[0] * q + c[1], ids_to_coords=lambda v: np.divmod(v, q))

    def neighbor_ids(self, ids):
        return self.table[ids]

    def neighbors_coords(self, coords):
        return [_id_to_coords(self.spec, u) for u in self.adj[_coords_to_id(self.spec, coords)]]


def test_sampled_even_cycle_with_repeated_roots():
    q, num_roots = 4, 12
    repeated_before_hit = 0
    for seed in range(20):
        pg = _StoredPolarityGraph(seeded_gnp(q * q, 0.2, seed=seed), q)
        for k in (2, 3):
            rng, ref_rng = random.Random(seed), random.Random(seed)
            w = _sampled_even_cycle(pg, k, num_roots, rng)
            assert w == _reference_sampled_even_cycle(pg, k, num_roots, ref_rng)
            assert rng.getstate() == ref_rng.getstate()
            if w is not None:
                draw = random.Random(seed)
                roots = [(draw.randrange(q), draw.randrange(q)) for _ in range(num_roots)]
                i = roots.index(w[0])
                repeated_before_hit += len(set(roots[:i])) < i
    assert repeated_before_hit > 0


# ids: width-bound for one bound, mixed-<bounds> otherwise
PREDRAW_BOUNDS = {"1-1": (1,), "2-3": (3, 3), "5-27": (27,) * 5, "2-19683": (19683,) * 2,
                  "3-2147483648": (2 ** 31,) * 3, "mixed-19683-729": (19683, 729),
                  "mixed-5-3": (5, 3), "mixed-1-4294967295-7": (1, 2 ** 32 - 1, 7)}


@pytest.mark.parametrize("bounds", PREDRAW_BOUNDS.values(), ids=PREDRAW_BOUNDS.keys())
def test_predraw_in_bulk_rewinds_like_scalar_draws(bounds):
    def draw(g):
        return tuple(g.randrange(b) for b in bounds)

    for seed in (0, 1, 20231117):
        for count in (0, 1, 40):
            rng = random.Random(seed)
            samples = adg.randrange_bulk(rng, bounds, count)
            assert samples.shape == (count, len(bounds))
            ref = random.Random(seed)
            assert [tuple(s) for s in samples.tolist()] == [draw(ref) for _ in range(count)]
            assert rng.getstate() == ref.getstate()


# the sampled protocol's other phases, cut down to leave the symmetry phase
FEW_SAMPLES = {"class_pair_samples": 100, "full_sweeps": 2, "within_samples": 100,
               "degree_samples": 100, "cycle_roots": {2: 0, 3: 0, 4: 0, 5: 0}}


def _symmetry_draws(monkeypatch, bundle, seed=0):
    """The sampled protocol's symmetry draw on `bundle`: (rng state before,
    the (SAMPLED_SYMMETRY, m + 1) sample matrix, rng state after).  The
    phase draws it in blocks from one adg.sample_blocks generator."""
    spec, calls = bundle[0], []
    bounds = (spec.ctx.order,) * (spec.m + 1)
    sample_blocks = adg.sample_blocks

    def recording(rng, b, count, size):
        start = rng.getstate()
        blocks = list(sample_blocks(rng, b, count, size))
        calls.append((b, count, start, blocks, rng.getstate()))
        yield from blocks

    with monkeypatch.context() as m:
        m.setattr(adg, "sample_blocks", recording)
        verify.verify_family_sampled(bundle, seed=seed, **FEW_SAMPLES)
    (draw,) = [c[2:] for c in calls if c[:2] == (bounds, verify.SAMPLED_SYMMETRY)]
    return draw[0], np.concatenate(draw[1]), draw[2]


@pytest.mark.parametrize("family,count", [
    (("gh", {"e": 1}), 20_000),
    (("gq", {"e": 1}), 2000),
    (("plane", {"q": 3}), 2000),
], ids=["gh e=1", "gq e=1", "plane q=3"])
def test_symmetry_draws_match_scalar_draws(monkeypatch, family, count):
    """The symmetry phase draws each incidence (v, t) as the scalar loop
    does, m rng.randrange(q) for v's coordinates and one for the slot t,
    and leaves rng where the loop leaves it.  Slot t of v's intact row is
    -1 exactly where v is absolute and t = v_1."""
    monkeypatch.setattr(verify, "SAMPLED_SYMMETRY", count)
    bundle = verify.family_bundle(family[0], **family[1])
    spec = bundle[0]
    q, m = spec.ctx.order, spec.m
    pg = adg.PolarityGraph(*bundle[:2])
    absolute = set(pg.absolute_ids().tolist())
    self_slots = 0
    for seed in (0, 1, 20231117):
        start, draws, end = _symmetry_draws(monkeypatch, bundle, seed)
        ref = random.Random()
        ref.setstate(start)
        samples = [[ref.randrange(q) for _ in range(m)] + [ref.randrange(q)] for _ in range(count)]
        assert draws.tolist() == samples
        assert end == ref.getstate()
        vs = spec.coords_to_ids(draws[:, :m].T)
        marked = pg.neighbor_ids(vs)[np.arange(count), draws[:, m]] < 0
        assert marked.tolist() == [v in absolute and s[m] == s[0]
                                   for v, s in zip(vs.tolist(), samples)]
        self_slots += marked.sum()
    assert self_slots  # some sample draws an absolute vertex's own slot


def _intact_symmetry_sample(monkeypatch):
    """gh e=0's bundle and its sampled protocol's symmetry incidences at
    seed 0: vertex ids, slots, the vertices' intact rows, absolute ids."""
    bundle = verify.family_bundle("gh", e=0, allow_small_e=True)
    spec = bundle[0]
    draws = _symmetry_draws(monkeypatch, bundle)[1]
    vs = spec.coords_to_ids(draws[:, :spec.m].T)
    pg = adg.PolarityGraph(*bundle[:2])
    return bundle, vs, draws[:, spec.m], pg.neighbor_ids(vs), pg.absolute_ids()


def _symmetry_witnesses(monkeypatch, bundle, rewrite):
    """The failing protocol's symmetry witnesses, each neighbor_ids row
    rewritten by rewrite(ids as a column, intact rows)."""
    neighbor_ids = adg.PolarityGraph.neighbor_ids
    monkeypatch.setattr(adg.PolarityGraph, "neighbor_ids", lambda self, ids: rewrite(
        np.asarray(ids, dtype=np.int64)[:, None], neighbor_ids(self, ids)))
    rep = verify.verify_family_sampled(bundle, seed=0, **FEW_SAMPLES)
    assert rep["checks"]["symmetry_ok"] is False and not rep["ok"]
    return [w for w in rep["witnesses"] if w[0] == "symmetry"]


def test_symmetry_phase_fails_a_pair_blanked_in_both_rows(monkeypatch):
    """Dropping the edge {v, u} from both rows keeps adjacency symmetric,
    but v's slot for u reads -1 where v is not: the phase fails at the
    first sample that reads the edge, and names that incidence (v, t)."""
    bundle, vs, slots, rows, _ = _intact_symmetry_sample(monkeypatch)
    i = int((rows[np.arange(len(vs)), slots] >= 0).argmax())
    v, u = vs[i], rows[i, slots[i]]
    witnesses = _symmetry_witnesses(monkeypatch, bundle, lambda ids, nb: np.where(
        ((ids == v) & (nb == u)) | ((ids == u) & (nb == v)), -1, nb))
    assert witnesses == [("symmetry", _id_to_coords(bundle[0], int(v)), int(slots[i]))]


def test_symmetry_phase_fails_an_unmarked_self_slot(monkeypatch):
    """An absolute vertex w whose row names w itself at slot w_1 passes a
    row-holds-v check; the phase fails it, naming (w, w)."""
    bundle, vs, slots, rows, absolute_ids = _intact_symmetry_sample(monkeypatch)
    own = np.isin(vs, absolute_ids) & (rows[np.arange(len(vs)), slots] < 0)
    w = vs[own.argmax()]
    witnesses = _symmetry_witnesses(monkeypatch, bundle, lambda ids, nb: np.where(
        (ids == w) & (nb < 0), w, nb))
    coords = _id_to_coords(bundle[0], int(w))
    assert witnesses == [("symmetry", coords, coords)]


def test_one_c10_root_at_q27_is_bounded():
    # the child's own high-water mark: its ru_maxrss would start at the
    # peak of the pytest process that started it.  The traced peak holds
    # the last layer's 1.2e7 keys once (int32, about 49 MB), sorted in place
    code = textwrap.dedent("""
        import random, re, time, tracemalloc
        from polarpart import adg, verify
        pg = adg.PolarityGraph(*adg.gh_family(1))
        pg.neighbor_ids([0])  # the id kernel's tables
        t0 = time.monotonic()
        tracemalloc.start()
        w = verify._sampled_even_cycle(pg, 5, 1, random.Random(0))
        traced_mb = tracemalloc.get_traced_memory()[1] / 2 ** 20
        tracemalloc.stop()
        with open("/proc/self/status") as f:
            peak_mb = int(re.search(r"VmHWM:\\s+(\\d+) kB", f.read()).group(1)) / 1024
        print(w is None, time.monotonic() - t0, peak_mb, traced_mb)
    """)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(polarpart.__file__)))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=env).stdout.split()
    assert out[0] == "True"
    assert float(out[1]) < 30.0
    assert float(out[2]) < 500.0
    assert float(out[3]) < 100.0, out


# -- golden report digests of the sampled protocol ----------------------------

GOLDEN_SAMPLES = {"class_pair_samples": 2000, "full_sweeps": 20, "within_samples": 500,
                  "degree_samples": 500, "cycle_roots": {2: 10, 3: 3, 4: 1, 5: 0}}
# SHA-256 of the report bytes (as `cli` writes them) at seed 0.  The intact
# digest was recorded with the point-by-point protocol the bulk kernel
# replaced; each tampered digest was re-recorded once a phase stopped
# moving rng back to its first failing sample, so the phases after the
# first failure draw what they draw in the intact run, and again where a
# count moved once every checks count took in its failing sample
GOLDEN_DIGESTS = {
    "intact": "6f045af679aa3f9dafa1661067f3993efc2f4f1b1b0c98486d8438f911490f92",
    # the substitution phase fails first; the sweeps draw the intact run's
    # pairs, and the degree tally is the intact run's, {"26": 1, "27": 499}.
    # Counting the failing samples, checks.substitution_pairs reads 8 (7
    # before) and checks.full_sweeps 2 (1 before)
    "unique_edge": "6918275da8852a6b070eeb18ee9258c68d44eb5f9e23a8e61d55d46df7c97c98",
    # the sweep phase fails first, at its first pair, so checks.full_sweeps
    # reads 1 (0 before, which left the failing sweep out); the within
    # phase draws the intact run's members and fails at its first sample
    "class_members": "193c380eb7b5f3b7b7f10eb1e7f19a76537eea09e5094a38033c9f9adf868f1a",
    # the degree phase fails first at its first sample; the symmetry phase
    # now draws the intact run's edges, so its witness names another edge
    "neighbor_ids": "6a3db95b5709a1120626645bc0a131ac04116fa53b75f4de2e1e108b4e6a1b80",
}


def _tamper(monkeypatch, method):
    """Break one closed form of the hexagon scheme, scalar and bulk forms
    alike, or hide some neighbours v < u from u's row of the polarity
    graph but not u from v's, so that the report carries first-failure
    witnesses."""
    unique_edge, class_members = GHScheme.unique_edge, GHScheme.class_members
    unique_edge_bulk, class_member_bulk = GHScheme.unique_edge_bulk, GHScheme.class_member_bulk
    neighbor_ids = adg.PolarityGraph.neighbor_ids

    def bad_unique_edge(self, c1, c2):
        out = unique_edge(self, c1, c2)
        if c1 == c2 or c1 % 5:
            return out
        a, b = out
        return a, b[:4] + ((b[4] + 1) % self.q,)

    def bad_unique_edge_bulk(self, c1, c2):
        a, b = unique_edge_bulk(self, c1, c2)
        last = b % self.q  # the fifth coordinate
        return a, np.where(c1 % 5 == 0, b - last + (last + 1) % self.q, b)

    def bad_class_members(self, cid):
        return class_members(self, (cid + 1) % self.r)

    def bad_class_member_bulk(self, cids, picks):
        return class_member_bulk(self, (np.asarray(cids) + 1) % self.r, picks)

    def hiding_neighbor_ids(self, ids):
        nb = neighbor_ids(self, ids)
        u = np.asarray(ids, dtype=np.int64)[:, None]
        return np.where((nb >= 0) & (nb < u) & ((nb + u) % 101 == 0), -1, nb)

    if method == "unique_edge":
        monkeypatch.setattr(GHScheme, "unique_edge", bad_unique_edge)
        monkeypatch.setattr(GHScheme, "unique_edge_bulk", bad_unique_edge_bulk)
    elif method == "class_members":
        monkeypatch.setattr(GHScheme, "class_members", bad_class_members)
        monkeypatch.setattr(GHScheme, "class_member_bulk", bad_class_member_bulk)
    elif method == "neighbor_ids":
        monkeypatch.setattr(adg.PolarityGraph, "neighbor_ids", hiding_neighbor_ids)


@pytest.mark.parametrize("tamper", sorted(GOLDEN_DIGESTS))
def test_sampled_report_golden_digest(tamper, monkeypatch):
    monkeypatch.setattr(verify, "SAMPLED_INCIDENCES", 2000)
    monkeypatch.setattr(verify, "SAMPLED_SYMMETRY", 500)
    _tamper(monkeypatch, tamper)
    rep = verify_family("gh", e=1, mode="sampled", seed=0, **GOLDEN_SAMPLES)
    text = json.dumps(rep, indent=2, sort_keys=True, default=_jsonable) + "\n"
    assert rep["ok"] == (tamper == "intact")
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[tamper]


@pytest.mark.parametrize("tamper", ["unique_edge", "class_members"])
def test_sampled_report_certifies_no_incomplete_partition(tamper, monkeypatch):
    monkeypatch.setattr(verify, "SAMPLED_INCIDENCES", 2000)
    monkeypatch.setattr(verify, "SAMPLED_SYMMETRY", 500)
    _tamper(monkeypatch, tamper)
    rep = verify_family("gh", e=1, mode="sampled", seed=0, **GOLDEN_SAMPLES)
    assert not rep["verdicts"]["complete"]
    bounds = rep["bounds"]
    assert bounds["psi"] is bounds["chi_a"] is bounds["eq6_ratio"] is None
    assert bounds["certified"] is False


@pytest.mark.parametrize("tamper", sorted(GOLDEN_DIGESTS))
def test_sampled_checks_count_the_samples_each_phase_checked(tamper, monkeypatch):
    monkeypatch.setattr(verify, "SAMPLED_INCIDENCES", 2000)
    monkeypatch.setattr(verify, "SAMPLED_SYMMETRY", 500)
    _tamper(monkeypatch, tamper)
    rep = verify_family("gh", e=1, mode="sampled", seed=0, **GOLDEN_SAMPLES)
    checks, kinds = rep["checks"], [w[0] for w in rep["witnesses"]]
    assert checks["degree_samples"] == sum(rep["degree_multiset"].values())
    within_failed = "within_edge" in kinds or "within_member_class" in kinds
    assert (checks["within_samples"] < GOLDEN_SAMPLES["within_samples"]) == within_failed
    assert (checks["degree_samples"] < GOLDEN_SAMPLES["degree_samples"]) == ("degree" in kinds)
    if tamper == "intact":
        assert checks["within_samples"] == GOLDEN_SAMPLES["within_samples"]
        assert checks["degree_samples"] == GOLDEN_SAMPLES["degree_samples"]


def test_sampled_counts_end_at_the_failing_sample(monkeypatch):
    """substitution_pairs and full_sweeps count the failing sample, as the
    within and degree counts do: each phase's witness is the last sample
    it counted."""
    monkeypatch.setattr(verify, "SAMPLED_INCIDENCES", 2000)
    monkeypatch.setattr(verify, "SAMPLED_SYMMETRY", 500)
    _tamper(monkeypatch, "unique_edge")
    rep = verify_family("gh", e=1, mode="sampled", seed=0, **GOLDEN_SAMPLES)
    checks, r = rep["checks"], rep["partition"]["r"]
    rng = random.Random(0)  # the two phases draw first, in this order
    pairs = adg.randrange_bulk(rng, (r, r), GOLDEN_SAMPLES["class_pair_samples"]).tolist()
    sweeps = [p for p in adg.randrange_bulk(rng, (r, r), GOLDEN_SAMPLES["full_sweeps"]).tolist()
              if p[0] != p[1]]
    witness = {w[0]: list(w[1:3]) for w in rep["witnesses"]}
    assert pairs[checks["substitution_pairs"] - 1] == witness["unique_edge_formula"]
    assert sweeps[checks["full_sweeps"] - 1] == witness["sweep_pair"]


@pytest.mark.parametrize("tamper", ["unique_edge", "class_members"])
def test_phases_after_a_failure_draw_the_intact_samples(tamper, monkeypatch):
    """An earlier phase's failure moves no later phase's draws: the degree
    phase, which these tampers leave intact, tallies what it tallies in the
    intact run."""
    monkeypatch.setattr(verify, "SAMPLED_INCIDENCES", 2000)
    monkeypatch.setattr(verify, "SAMPLED_SYMMETRY", 500)
    intact = verify_family("gh", e=1, mode="sampled", seed=0, **GOLDEN_SAMPLES)
    _tamper(monkeypatch, tamper)
    rep = verify_family("gh", e=1, mode="sampled", seed=0, **GOLDEN_SAMPLES)
    assert rep["witnesses"] and not rep["ok"]
    assert rep["degree_multiset"] == intact["degree_multiset"]
    assert rep["checks"]["degree_samples"] == GOLDEN_SAMPLES["degree_samples"]


def test_within_phase_fails_a_member_outside_its_class(monkeypatch):
    """Class c's drawn members land in class c + 1: the phase must fail at
    the first draw, not test class c + 1's members against class c."""
    monkeypatch.setattr(verify, "SAMPLED_INCIDENCES", 2000)
    monkeypatch.setattr(verify, "SAMPLED_SYMMETRY", 500)
    _tamper(monkeypatch, "class_members")
    rep = verify_family("gh", e=1, mode="sampled", seed=0, **GOLDEN_SAMPLES)
    within = [w for w in rep["witnesses"] if w[0] == "within_member_class"]
    assert len(within) == 1
    _, cid, coords, own = within[0]
    assert own == (cid + 1) % rep["partition"]["r"]
    assert _class_of_coords(verify.family_bundle("gh", e=1)[2], coords) == own
    assert rep["checks"]["within_samples"] == 1
    assert not rep["verdicts"]["achromatic"]


def test_within_phase_names_an_edge_inside_a_class(monkeypatch):
    """Every row gains a member of its own vertex's class in its last slot:
    the within phase fails at its first sample, naming that member."""
    monkeypatch.setattr(verify, "SAMPLED_INCIDENCES", 2000)
    monkeypatch.setattr(verify, "SAMPLED_SYMMETRY", 500)
    scheme, neighbor_ids = verify.family_bundle("gh", e=1)[2], adg.PolarityGraph.neighbor_ids

    def joined_to_its_class(self, ids):
        nb, ids = neighbor_ids(self, ids), np.asarray(ids)
        cls = scheme.class_of_ids(ids)
        first, second = (scheme.class_member_bulk(cls, np.full(len(ids), i)) for i in (0, 1))
        nb[:, -1] = np.where(first == ids, second, first)
        return nb

    monkeypatch.setattr(adg.PolarityGraph, "neighbor_ids", joined_to_its_class)
    rep = verify_family("gh", e=1, mode="sampled", seed=0, **GOLDEN_SAMPLES)
    within = [w for w in rep["witnesses"] if w[0] == "within_edge"]
    assert len(within) == 1 and rep["checks"]["within_samples"] == 1
    _, cid, v, u = within[0]
    assert v != u and _class_of_coords(scheme, v) == _class_of_coords(scheme, u) == cid
    assert not rep["verdicts"]["achromatic"] and not rep["ok"]


def test_sampled_loop_formula_names_the_class(monkeypatch):
    """Class 3's loop vertex formula gives class 4's: the loop phase names
    class 3, while the vertex it gives is still absolute."""
    monkeypatch.setattr(verify, "SAMPLED_INCIDENCES", 2000)
    monkeypatch.setattr(verify, "SAMPLED_SYMMETRY", 500)
    loop_vertex_bulk = GHScheme.loop_vertex_bulk
    monkeypatch.setattr(GHScheme, "loop_vertex_bulk", lambda self, cids: loop_vertex_bulk(
        self, np.where(np.asarray(cids) == 3, 4, cids)))
    rep = verify_family("gh", e=1, mode="sampled", seed=0, **GOLDEN_SAMPLES)
    assert [w for w in rep["witnesses"] if w[0] == "loop_vertex"] == [("loop_vertex", 3)]
    assert rep["checks"]["loop_formula_all_classes"] is False and not rep["ok"]


# -- the sampled protocol's blocks ---------------------------------------------

@pytest.mark.parametrize("name", ["class_pair_samples", "full_sweeps", "within_samples",
                                  "degree_samples", "cycle_roots"])
@pytest.mark.parametrize("value", [-1, 1.5])
def test_sampled_protocol_refuses_a_bad_count_before_any_check(monkeypatch, name, value):
    """A negative or non-integer sample count is refused by name, before
    the polarity check or the absolute scan runs."""
    def no_check(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(adg, "check_polarity", no_check)
    monkeypatch.setattr(adg.PolarityGraph, "absolute_ids", no_check)
    bundle = verify.family_bundle("gh", e=0, allow_small_e=True)
    kwargs = {name: {3: value} if name == "cycle_roots" else value}
    label = "cycle_roots[3]" if name == "cycle_roots" else name
    with pytest.raises(ValueError, match=rf"^{re.escape(label)} must be a non-negative integer"):
        verify.verify_family_sampled(bundle, seed=0, **kwargs)


def _report_text(rep):
    return json.dumps(rep, indent=2, sort_keys=True, default=_jsonable) + "\n"


def _gh0_sampled_reports(monkeypatch):
    """tamper -> gh e=0's sampled report text at seed 0, on small counts."""
    monkeypatch.setattr(verify, "SAMPLED_INCIDENCES", 300)
    monkeypatch.setattr(verify, "SAMPLED_SYMMETRY", 60)
    bundle = verify.family_bundle("gh", e=0, allow_small_e=True)
    reports = {}
    for tamper in sorted(GOLDEN_DIGESTS):
        with monkeypatch.context() as m:
            _tamper(m, tamper)
            reports[tamper] = _report_text(verify.verify_family_sampled(
                bundle, seed=0, class_pair_samples=300, full_sweeps=5, within_samples=60,
                degree_samples=60, cycle_roots={2: 3, 3: 2, 4: 1, 5: 1}))
    return reports


@pytest.mark.parametrize("size", [1, 7, 4096])
def test_block_sizes_change_no_report_byte(monkeypatch, size):
    """adg.SWEEP_BLOCK and adg.ID_BLOCK set the sampled phases' blocks (and
    the draw rounds): at blocks of one sample, of 7, and of 4096 (gh e=0,
    q = 3: up to 1365 rows a block), intact and tampered reports keep
    every byte, where a failure lies past the first block too."""
    expected = _gh0_sampled_reports(monkeypatch)
    monkeypatch.setattr(adg, "SWEEP_BLOCK", size)
    monkeypatch.setattr(adg, "ID_BLOCK", size)
    assert _gh0_sampled_reports(monkeypatch) == expected
    # failures past the first block: the substitution's 4th pair, the
    # degree phase's 22nd vertex (2 rows a block at ID_BLOCK = 7)
    checks = {t: json.loads(text)["checks"] for t, text in expected.items()}
    assert checks["unique_edge"]["substitution_pairs"] == 4
    assert checks["neighbor_ids"]["degree_samples"] == 22


@pytest.mark.parametrize("tamper", sorted(GOLDEN_DIGESTS))
def test_golden_digests_at_4096_sample_blocks(tamper, monkeypatch):
    monkeypatch.setattr(adg, "SWEEP_BLOCK", 4096)
    monkeypatch.setattr(adg, "ID_BLOCK", 4096)  # 151 rows a block at q = 27
    monkeypatch.setattr(verify, "SAMPLED_INCIDENCES", 2000)
    monkeypatch.setattr(verify, "SAMPLED_SYMMETRY", 500)
    _tamper(monkeypatch, tamper)
    rep = verify_family("gh", e=1, mode="sampled", seed=0, **GOLDEN_SAMPLES)
    assert hashlib.sha256(_report_text(rep).encode()).hexdigest() == GOLDEN_DIGESTS[tamper]


def test_a_failure_in_a_later_block_still_draws_the_rest(monkeypatch):
    """The within phase fails at a sample past its first block (151 rows at
    q = 27 with ID_BLOCK = 4096): it counts up to that sample, and the
    degree phase after it tallies what the intact run tallies."""
    monkeypatch.setattr(adg, "ID_BLOCK", 4096)
    monkeypatch.setattr(verify, "SAMPLED_INCIDENCES", 2000)
    monkeypatch.setattr(verify, "SAMPLED_SYMMETRY", 500)
    intact = verify_family("gh", e=1, mode="sampled", seed=0, **GOLDEN_SAMPLES)
    scheme = verify.family_bundle("gh", e=1)[2]
    r, k = scheme.r, scheme.class_size
    rng = random.Random(0)  # the substitution, sweeps and within draws, in order
    adg.randrange_bulk(rng, (r, r), GOLDEN_SAMPLES["class_pair_samples"])
    adg.randrange_bulk(rng, (r, r), GOLDEN_SAMPLES["full_sweeps"])
    cids = adg.randrange_bulk(rng, (r, k), GOLDEN_SAMPLES["within_samples"])[:, 0].tolist()
    i = next(i for i in range(200, len(cids)) if cids[i] not in cids[:i])
    class_member_bulk = GHScheme.class_member_bulk
    monkeypatch.setattr(GHScheme, "class_member_bulk", lambda self, c, picks: class_member_bulk(
        self, np.where(np.asarray(c) == cids[i], (cids[i] + 1) % self.r, c), picks))
    rep = verify_family("gh", e=1, mode="sampled", seed=0, **GOLDEN_SAMPLES)
    assert rep["checks"]["within_samples"] == i + 1
    assert [w[:2] for w in rep["witnesses"]] == [("within_member_class", cids[i])]
    assert rep["degree_multiset"] == intact["degree_multiset"]
    assert rep["checks"]["degree_samples"] == GOLDEN_SAMPLES["degree_samples"]


def test_sampled_protocol_memory_does_not_grow_with_the_counts():
    """Ten times the default substitution, within and degree samples trace
    within 1 MB of the default run's peak at gh e=1 (cycle searches off)."""
    bundle = verify.family_bundle("gh", e=1)
    off = {"cycle_roots": {2: 0, 3: 0, 4: 0, 5: 0}}
    verify.verify_family_sampled(bundle, seed=0, **off)  # tables, numpy.random
    peaks = []
    for scale in (1, 10):
        tracemalloc.start()
        try:
            rep = verify.verify_family_sampled(
                bundle, seed=0, class_pair_samples=scale * verify.SAMPLED_CLASS_PAIRS,
                within_samples=scale * verify.SAMPLED_WITHIN,
                degree_samples=scale * verify.SAMPLED_DEGREES, **off)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert rep["ok"] and rep["checks"]["substitution_pairs"] == scale * verify.SAMPLED_CLASS_PAIRS
    assert peaks[1] < peaks[0] + 2 ** 20, peaks


def test_a_failing_polarity_ends_both_protocols_at_the_report_head():
    # the identity map is an involution that breaks adjacency
    spec, pol, scheme, params = verify.family_bundle("gh", e=0, allow_small_e=True)
    identity = adg.PolaritySpec(tuple((i, 0) for i in range(5)), tuple((i, 0) for i in range(5)))
    for protocol in (verify.verify_family_exhaustive, verify.verify_family_sampled):
        rep = protocol((spec, identity, scheme, params), seed=0)
        assert not rep["ok"] and not rep["polarity"]["ok"]
        assert rep["witnesses"] == [("polarity", tuple(rep["polarity"]["witness"]))]
        assert "counts" not in rep and "verdicts" not in rep


# -- the blocked unique-edge pass against the scalar loop it replaced ----------

def _reference_check_unique_edges(g, spec, scheme):
    """The scalar loop _check_unique_edges replaced, kept as its oracle."""
    if not hasattr(scheme, "unique_edge"):
        return True, None
    r = scheme.r
    for c1 in range(r):
        lv = scheme.loop_vertex(c1)
        if _class_of_coords(scheme, lv) != c1:
            return False, ("loop_vertex_class", c1)
        if _coords_to_id(spec, lv) not in g.loops:
            return False, ("loop_vertex_not_absolute", c1)
        for c2 in range(c1 + 1, r):
            a, b = scheme.unique_edge(c1, c2)
            if _class_of_coords(scheme, a) != c1 or _class_of_coords(scheme, b) != c2:
                return False, ("edge_endpoint_class", c1, c2)
            if _coords_to_id(spec, b) not in g.adj[_coords_to_id(spec, a)]:
                return False, ("edge_formula_not_edge", c1, c2)
    return True, None


# tampered classes c1; an edge tamper also needs c2 > c1 + 2, so it fails
# neither at the first class nor at the first pair of its row
TAMPERED_C1 = (7, 11)


def _next_member(scheme, cid, v):
    members = scheme.class_members(cid)
    return members[(members.index(v) + 1) % len(members)]


def _next_member_bulk(scheme, cids, ids):
    members = scheme.class_member_bulk(cids[:, None], np.arange(scheme.class_size))
    at = (members == ids[:, None]).argmax(axis=1)
    return members[np.arange(len(ids)), (at + 1) % members.shape[1]]


def _tamper_scheme(scheme, kind):
    """Break one closed form of `scheme`, its scalar and bulk forms alike,
    at the classes TAMPERED_C1."""
    loop_vertex, loop_vertex_bulk = scheme.loop_vertex, scheme.loop_vertex_bulk
    unique_edge, unique_edge_bulk = scheme.unique_edge, scheme.unique_edge_bulk
    r = scheme.r
    if kind == "loop_vertex_class":  # the next class's loop vertex
        scheme.loop_vertex = lambda c: loop_vertex((c + 1) % r if c in TAMPERED_C1 else c)
        scheme.loop_vertex_bulk = lambda cids: loop_vertex_bulk(
            np.where(np.isin(cids, TAMPERED_C1), (cids + 1) % r, cids))
    elif kind == "loop_vertex_not_absolute":  # another member of the class
        scheme.loop_vertex = lambda c: (_next_member(scheme, c, loop_vertex(c))
                                        if c in TAMPERED_C1 else loop_vertex(c))
        scheme.loop_vertex_bulk = lambda cids: np.where(
            np.isin(cids, TAMPERED_C1),
            _next_member_bulk(scheme, cids, loop_vertex_bulk(cids)), loop_vertex_bulk(cids))
    else:
        def hit(c1, c2):
            return np.isin(c1, TAMPERED_C1) & (c2 > c1 + 2)

        def bad_a(c1, c2, a):
            if kind == "edge_endpoint_class":  # a vertex of class c2
                return scheme.loop_vertex(c2)
            return _next_member(scheme, c1, a)  # edge_formula_not_edge

        def bad_a_bulk(c1, c2, a):
            if kind == "edge_endpoint_class":  # the intact form's loop vertex of c2
                return unique_edge_bulk(c2, c2)[0]
            return _next_member_bulk(scheme, c1, a)

        def tampered(c1, c2):
            a, b = unique_edge(c1, c2)
            return (bad_a(c1, c2, a) if c1 != c2 and hit(c1, c2) else a), b

        def tampered_bulk(c1, c2):
            a, b = unique_edge_bulk(c1, c2)
            return np.where(hit(c1, c2), bad_a_bulk(c1, c2, a), a), b

        scheme.unique_edge, scheme.unique_edge_bulk = tampered, tampered_bulk


UNIQUE_EDGE_FAMILIES = {
    "plane q=3": lambda: verify.family_bundle("plane", q=3),
    "gq e=1": lambda: verify.family_bundle("gq", e=1),
    "gh e=0": lambda: verify.family_bundle("gh", e=0, allow_small_e=True),
}
# "+" joins tampers; in one row the loop-vertex checks come first
UNIQUE_EDGE_TAMPERS = ["intact", "loop_vertex_class", "loop_vertex_not_absolute",
                       "edge_endpoint_class", "edge_formula_not_edge",
                       "edge_endpoint_class+loop_vertex_not_absolute",
                       "edge_formula_not_edge+loop_vertex_class"]


@pytest.mark.parametrize("tamper", UNIQUE_EDGE_TAMPERS)
@pytest.mark.parametrize("family", sorted(UNIQUE_EDGE_FAMILIES))
def test_check_unique_edges_matches_scalar_reference(monkeypatch, family, tamper):
    spec, pol, scheme, _ = UNIQUE_EDGE_FAMILIES[family]()
    g = _polarity_graph(spec, pol)
    kinds = tamper.split("+")
    for kind in kinds if tamper != "intact" else ():
        _tamper_scheme(scheme, kind)
    expected = _reference_check_unique_edges(g, spec, scheme)
    if tamper == "intact":
        assert expected == (True, None)
    else:  # the first tampered class names the witness
        assert expected[0] is False and expected[1][:2] == (kinds[-1], TAMPERED_C1[0])
        if kinds[-1].startswith("edge"):
            assert expected[1][2] == TAMPERED_C1[0] + 3
    assert verify._check_unique_edges(g, scheme) == expected
    for rows in (1, 3):
        monkeypatch.setattr(graphs, "ROW_BLOCK", rows * g.table.shape[1])
        assert verify._check_unique_edges(g, scheme) == expected


def test_check_unique_edges_blocks_stay_within_the_bound(monkeypatch):
    spec, pol, scheme, _ = verify.family_bundle("gq", e=1)
    g = _polarity_graph(spec, pol)
    sizes, dtypes, diagonal = [], set(), []
    unique_edge_bulk = scheme.unique_edge_bulk

    def counted(c1, c2):
        if len(c1) and np.array_equal(c1, c2):  # the loop vertices, counted apart
            diagonal.append(len(c1))
        else:
            sizes.append(len(c1))
            dtypes.add((c1.dtype, c2.dtype))
        return unique_edge_bulk(c1, c2)

    scheme.unique_edge_bulk = counted
    monkeypatch.setattr(graphs, "ROW_BLOCK", 500)
    assert verify._check_unique_edges(g, scheme) == (True, None)
    assert diagonal == [scheme.r]  # one call for every class's loop vertex
    # one formula call per block of whole table rows, one id per cross edge
    assert max(sizes) <= 500 and sum(sizes) == scheme.r * (scheme.r - 1) // 2
    assert len(sizes) == -(-g.n // (500 // g.table.shape[1]))
    # classes go in in the kernel table's dtype, not widened to int64
    assert g.table.dtype == np.int32 and dtypes == {(np.dtype(np.int32),) * 2}


def _tamper_graph(g, scheme, kind):
    """g with the closed-form edge (a, b) of the pair (c1, c1 + 3), c1 =
    TAMPERED_C1[0], dropped, joined by a second edge (a2, b2) between the
    next members a2 of c1 and b2 of c1 + 3, or moved to (a2, b) or (a, b2)."""
    c1 = np.array([TAMPERED_C1[0]])
    a, b = scheme.unique_edge_bulk(c1, c1 + 3)
    a2, b2 = _next_member_bulk(scheme, c1, a)[0], _next_member_bulk(scheme, c1 + 3, b)[0]
    a, b, a2, b2 = int(a[0]), int(b[0]), int(a2), int(b2)
    edges = set(g.edges())
    # the intact graph joins two classes by one edge only
    assert (min(a, b), max(a, b)) in edges
    assert not (b2 in g.adj[a2] or b in g.adj[a2] or b2 in g.adj[a])
    if kind != "second_edge":
        edges.remove((min(a, b), max(a, b)))
    new = {"drop_edge": None, "second_edge": (a2, b2), "move_a": (a2, b), "move_b": (a, b2)}[kind]
    if new is not None:
        edges.add((min(new), max(new)))
    return Graph.from_edges(g.n, edges, g.loops.tolist())


@pytest.mark.parametrize("kind", ["drop_edge", "second_edge", "move_a", "move_b"])
@pytest.mark.parametrize("family", sorted(UNIQUE_EDGE_FAMILIES))
def test_check_unique_edges_on_a_tampered_graph_matches_scalar_reference(monkeypatch, family,
                                                                         kind):
    spec, pol, scheme, _ = UNIQUE_EDGE_FAMILIES[family]()
    g = _polarity_graph(spec, pol)
    tampered = _tamper_graph(g, scheme, kind)
    assert edge_count(tampered) - edge_count(g) == {"drop_edge": -1, "second_edge": 1}.get(kind, 0)
    expected = _reference_check_unique_edges(tampered, spec, scheme)
    c1 = TAMPERED_C1[0]
    # an extra cross edge leaves every closed-form edge on the graph
    assert expected == ((True, None) if kind == "second_edge"
                        else (False, ("edge_formula_not_edge", c1, c1 + 3)))
    assert verify._check_unique_edges(tampered, scheme) == expected
    for rows in (1, 3):
        monkeypatch.setattr(graphs, "ROW_BLOCK", rows * tampered.table.shape[1])
        assert verify._check_unique_edges(tampered, scheme) == expected


def test_check_unique_edges_reads_the_array_formula_only(monkeypatch):
    # the closed-form schemes are told from the general construction by
    # their array formula, so the check runs without the scalar form
    monkeypatch.delattr(PlaneScheme, "unique_edge")
    spec, pol, scheme, _ = UNIQUE_EDGE_FAMILIES["plane q=3"]()
    g = _polarity_graph(spec, pol)
    assert verify._check_unique_edges(g, scheme) == (True, None)
    c1, unique_edge_bulk = TAMPERED_C1[0], scheme.unique_edge_bulk

    def tampered(cs1, cs2):  # the pair (c1, c1 + 3) names a non-edge
        a, b = unique_edge_bulk(cs1, cs2)
        hit = (cs1 == c1) & (cs2 == c1 + 3)
        return np.where(hit, _next_member_bulk(scheme, np.asarray(cs1), a), a), b

    scheme.unique_edge_bulk = tampered
    assert not hasattr(scheme, "unique_edge")
    assert verify._check_unique_edges(g, scheme) == (False, ("edge_formula_not_edge", c1, c1 + 3))


def _tamper_diagonal(scheme, c):
    """The unique edge of class c with itself names another member of c at
    both ends, as the loop_vertex_not_absolute tamper does; every other
    pair keeps its form.  The loop vertex has no formula of its own."""
    unique_edge_bulk = scheme.unique_edge_bulk
    loop = unique_edge_bulk(np.array([c]), np.array([c]))[0]
    other = _next_member_bulk(scheme, np.array([c]), loop)[0]

    def tampered(c1, c2):
        a, b = unique_edge_bulk(c1, c2)
        hit = (np.asarray(c1) == c) & (np.asarray(c2) == c)
        return np.where(hit, other, a), np.where(hit, other, b)

    scheme.unique_edge_bulk = tampered


@pytest.mark.parametrize("family", sorted(UNIQUE_EDGE_FAMILIES))
def test_a_tampered_diagonal_fails_the_exhaustive_protocol(family):
    bundle, c = UNIQUE_EDGE_FAMILIES[family](), TAMPERED_C1[0]
    _tamper_diagonal(bundle[2], c)
    rep = verify.verify_family_exhaustive(bundle)
    assert rep["witnesses"] == [("loop_vertex_not_absolute", c)] and not rep["ok"]


def test_a_tampered_diagonal_fails_the_sampled_protocol(monkeypatch):
    monkeypatch.setattr(verify, "SAMPLED_INCIDENCES", 300)
    monkeypatch.setattr(verify, "SAMPLED_SYMMETRY", 60)
    bundle, c = verify.family_bundle("gh", e=0, allow_small_e=True), TAMPERED_C1[0]
    _tamper_diagonal(bundle[2], c)
    rep = verify.verify_family_sampled(bundle, seed=0, **FEW_SAMPLES)
    assert ("loop_vertex", c) in rep["witnesses"] and not rep["ok"]
    assert rep["checks"]["loop_formula_all_classes"] is False


# -- verdict against the per-edge loop it replaced -------------------------------

def _reference_verdict(g, part):
    """The r x r list tally, the upper-triangle scan and the first
    within-class edge (u < v ascending, from the adj lists) verdict replaced."""
    r, cls = part.r, part.class_of
    cross = [[0] * r for _ in range(r)]
    within = [0] * r
    edges = [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]
    for u, v in edges:
        if cls[u] == cls[v]:
            within[cls[u]] += 1
        else:
            cross[cls[u]][cls[v]] += 1
            cross[cls[v]][cls[u]] += 1
    witnesses = []
    for i in range(r):
        for j in range(i + 1, r):
            if cross[i][j] == 0:
                witnesses.append(("missing_pair", i, j))
            elif cross[i][j] > 1:
                witnesses.append(("multi_edge_pair", i, j, cross[i][j]))
    witnesses += [("within_edge", cls[u], u, v) for u, v in edges if cls[u] == cls[v]][:1]
    return cross, within, witnesses


def test_verdict_matches_the_list_tally(monkeypatch):
    rng = random.Random(8)
    for trial in range(60):
        n = rng.randrange(2, 30)
        g = seeded_gnp(n, rng.uniform(0.1, 0.9), seed=2000 + trial)
        r = rng.randrange(1, n + 1)
        part = Partition(list(range(r)) + [rng.randrange(r) for _ in range(n - r)], r)
        cross, within, witnesses = _reference_verdict(g, part)
        split = len(witnesses) - any(within)  # within_edge comes last
        pairs, inside = witnesses[:split], witnesses[split:]
        # default blocks and witness cap, then one class per block with
        # every pair not joined by one edge listed
        for block, cap in ((graphs.ROW_BLOCK, verify.REPORT_WITNESSES), (1, r * r)):
            monkeypatch.setattr(graphs, "ROW_BLOCK", block)
            monkeypatch.setattr(verify, "REPORT_WITNESSES", cap)
            assert graphs.pair_edge_matrix(g, part, cap)[2].tolist() == within
            _, got, loops = verdict(g, part)
            assert got == pairs[:cap] + inside and loops.tolist() == [0] * r
            assert all(type(x) is int for w in got for x in w[1:])  # JSON bytes as before
        assert cap > r * (r - 1) // 2 and got == witnesses


def _report_of(bundle, graph=None, partition=None):
    report = verify.verify_family_exhaustive(bundle, graph=graph, partition=partition,
                                             with_luw=False)
    assert report["ok"] is False
    return report


def test_report_class_size_is_the_verified_partitions():
    """A supplied partition reports its own common class size, or null when
    its classes differ in size; witness_record refuses the null one."""
    bundle = verify.family_bundle("plane", q=3)
    spec, _, scheme, _ = bundle
    cls = scheme_partition(scheme, spec).class_of
    merged = _report_of(bundle, partition=Partition(np.maximum(cls - 2, 0), 25))
    assert merged["verdicts"]["complete"]
    assert merged["partition"] == {"r": 25, "class_size": None}
    with pytest.raises(ValueError, match="differ in size"):
        witness_record("plane", report=merged)
    uniform = _report_of(bundle, partition=Partition(cls // 3, 9))
    assert uniform["partition"] == {"r": 9, "class_size": 9}


@pytest.mark.parametrize("moved", [1, 6])
def test_report_lists_the_first_twenty_verdict_witnesses(moved):
    # each moved vertex goes into the class of its first neighbour: one
    # vertex leaves fewer than 20 pairs off one edge, six leave more
    bundle = verify.family_bundle("plane", q=3)
    spec, pol, scheme, _ = bundle
    g = _polarity_graph(spec, pol)
    cls = scheme_partition(scheme, spec).class_of.copy()
    for v in range(0, 9 * moved, 9):
        cls[v] = cls[g.adj[v][0]]
    part = Partition(cls, scheme.r)
    expected = _reference_verdict(g, part)[2]
    assert expected[-1][0] == "within_edge" and (len(expected) - 1 >= 20) == (moved > 1)
    witnesses = _report_of(bundle, partition=part)["witnesses"]
    if moved > 1:
        assert witnesses == expected[:20]
        assert all(w[0] != "within_edge" for w in witnesses)
    else:
        assert witnesses == expected  # within_edge last


@pytest.mark.parametrize("kind", ["within_edge", "moved_cross_edge"])
@pytest.mark.parametrize("family", sorted(UNIQUE_EDGE_FAMILIES))
def test_report_on_a_tampered_graph_carries_the_verdict_witnesses(family, kind):
    bundle = UNIQUE_EDGE_FAMILIES[family]()
    spec, pol, scheme, _ = bundle
    g = _polarity_graph(spec, pol)
    part = scheme_partition(scheme, spec)
    cls, edges = part.class_of, set(g.edges())
    c1 = TAMPERED_C1[0]
    a, b = (int(x[0]) for x in scheme.unique_edge_bulk(np.array([c1]), np.array([c1 + 3])))
    if kind == "within_edge":  # a joined to another member of its class
        x = int(next(m for m in scheme.class_member_bulk(c1, np.arange(scheme.class_size)) if m != a))
    else:  # (a, b) moved to (a, x), x the least non-neighbour of a in a third class
        edges.remove((min(a, b), max(a, b)))
        x = next(x for x in range(g.n) if cls[x] not in (c1, c1 + 3) and x not in g.adj[a])
    new = (a, x)
    assert new[1] not in g.adj[new[0]]
    edges.add((min(new), max(new)))
    tampered = Graph.from_edges(g.n, edges, g.loops.tolist())
    expected = _reference_verdict(tampered, part)[2]
    if kind == "within_edge":
        assert expected == [("within_edge", c1, min(new), max(new))]
    else:  # row-major
        pairs = [("missing_pair", c1, c1 + 3), ("multi_edge_pair", *sorted((c1, int(cls[x]))), 2)]
        assert expected == sorted(pairs, key=lambda w: w[1:3])
    report = _report_of(bundle, graph=tampered)
    assert report["witnesses"][:len(expected)] == expected
    assert not report["verdicts"]["achromatic"]


# -- the sampled protocol against the exhaustive one, on plane, gq and gh -----

@pytest.mark.parametrize("family,kwargs", [("plane", {"q": 3}), ("gq", {"e": 1}),
                                           ("gh", {"e": 0, "allow_small_e": True})])
def test_sampled_protocol_agrees_with_exhaustive_off_gh(family, kwargs):
    bundle = verify.family_bundle(family, **kwargs)
    sampled = verify.verify_family_sampled(
        bundle, class_pair_samples=2000, full_sweeps=50,
        within_samples=500, degree_samples=500)
    exhaustive = verify_family(family, with_luw=False, **kwargs)
    assert sampled["ok"] and exhaustive["ok"]
    assert sampled["witnesses"] == [] and sampled["checks"]["full_sweeps"] > 0
    assert sampled["checks"]["cycle_roots"] == {
        f"C{2 * k}": verify.SAMPLED_CYCLE_ROOTS[k] for k in verify.FORBIDDEN[family]}
    assert sampled["partition"] == exhaustive["partition"]
    assert sampled["verdicts"].pop("sampled") is True
    assert sampled["verdicts"] == exhaustive["verdicts"]
    assert sampled["bounds"].pop("max_degree_method")
    assert sampled["bounds"] == exhaustive["bounds"]


def test_sampled_report_lists_the_cycle_lengths_it_searched():
    """checks.cycle_roots names each forbidden length with the roots its
    search drew, 1 where the caller gave none, and no other length."""
    rep = verify.verify_family_sampled(
        verify.family_bundle("gq", e=1), class_pair_samples=100, full_sweeps=5,
        within_samples=50, degree_samples=50, cycle_roots={3: 2, 5: 9})
    assert rep["ok"] and rep["checks"]["cycle_roots"] == {"C4": 1, "C6": 2}
    assert list(rep["cycles"]) == ["C4", "C6"]
