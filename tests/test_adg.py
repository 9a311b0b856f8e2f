"""Specs, polarities, polarity graphs, and the concrete families.

The polarity-graph adjacency rules are cross-checked against their
independent closed forms (the displayed two-variable equations) on full
vertex-pair sweeps at small q.
"""

import functools
import gc
import itertools
import random
import re
import tracemalloc
import weakref

import numpy as np
import pytest

from polarpart import adg
from polarpart.adg import (
    ADGSpec, PolaritySpec, build_polarity_graph, check_polarity,
    count_absolute_bulk, eval_expr_bulk, expr_from_json,
    generic_conjugation_polarity, gh_adjacency_spec, gh_family,
    gh_original_family, gq_family, mul, plane_family, powi, sub, var_l, var_p,
)
from polarpart.gf import make_field
from polarpart.graphs import Graph, girth


def test_expr_from_json():
    obj = ["sub", ["mul", ["pow", ["var", "p", 1], 3], ["var", "l", 1]],
           ["mul", ["var", "p", 2], ["var", "l", 2]]]
    assert expr_from_json(obj) == sub(mul(powi(var_p(1), 3), var_l(1)), mul(var_p(2), var_l(2)))


def test_spec_rejects_forward_references():
    ctx = make_field(2, 1)
    with pytest.raises(ValueError):
        ADGSpec(ctx, 2, (mul(var_p(2), var_l(1)),))


def test_plane_neighbors_through_origin():
    spec, _ = plane_family(2)
    lines = _neighbors_of_point(spec, (0, 0))
    assert lines == [(l1, 0) for l1 in range(4)]


def test_gq_regularity():
    spec, _ = gq_family(1)
    for trial in range(50):
        rng = random.Random(trial)
        p = tuple(rng.randrange(8) for _ in range(3))
        lines = _neighbors_of_point(spec, p)
        assert len(lines) == 8
        assert len(set(lines)) == 8
        for lv in lines:
            assert spec.incident(p, lv)


def test_gh_neighbors_against_brute_force():
    spec = gh_adjacency_spec(3)
    for p in [(0, 0, 0, 0, 0), (1, 2, 0, 1, 2), (2, 2, 2, 2, 2)]:
        from_rule = set(_neighbors_of_point(spec, p))
        by_scan = {lv for lv in _all_coords(spec) if spec.incident(p, lv)}
        assert from_rule == by_scan
        assert len(from_rule) == 3


def test_triangular_solvability_exhaustive_small():
    # exactly one incident line per (point, l1) pair
    for spec, _ in (plane_family(2), plane_family(3)):
        for p in _all_coords(spec):
            firsts = [lv[0] for lv in _neighbors_of_point(spec, p)]
            assert sorted(firsts) == list(range(spec.ctx.order))


def test_check_polarity_plane_exhaustive():
    spec, pol = plane_family(2)
    chk = check_polarity(spec, pol, mode="exhaustive")
    assert chk.ok and chk.checked_incidences == 16 * 4


def test_check_polarity_gq_exhaustive():
    spec, pol = gq_family(1)
    chk = check_polarity(spec, pol, mode="exhaustive")
    assert chk.ok and chk.checked_incidences == 512 * 8


def test_check_polarity_sampled_gh():
    spec, pol = gh_family(1)
    chk = check_polarity(spec, pol, mode="sampled", samples=2000, seed=0)
    assert chk.ok and chk.checked_incidences == 2000


def test_broken_polarity_detected():
    spec, _ = gq_family(1)
    bad = PolaritySpec(((0, 1), (2, 2), (1, 1)), ((0, 1), (2, 2), (1, 1)))
    chk = check_polarity(spec, bad, mode="exhaustive")
    assert not chk.ok
    assert not chk.involution or not chk.preserves_adjacency
    assert chk.witness is not None


def test_non_symmetric_conjugation_fails_adjacency():
    ctx = make_field(2, 2)
    spec = ADGSpec(ctx, 2, (mul(powi(var_l(1), 2), var_p(1)),))
    d = 1
    pol = PolaritySpec(((0, d), (1, d)), ((0, d), (1, d)))
    chk = check_polarity(spec, pol, mode="exhaustive")
    assert not chk.ok and not chk.preserves_adjacency
    assert chk.witness is not None


def test_build_polarity_graph_refuses_bad_polarity():
    spec, _ = gq_family(1)
    bad = PolaritySpec(((0, 1), (2, 2), (1, 1)), ((0, 1), (2, 2), (1, 1)))
    with pytest.raises(ValueError):
        build_polarity_graph(spec, bad)


def test_plane_absolute_counts():
    for q, expected in ((2, 8), (3, 27)):
        spec, pol = plane_family(q)
        pg = build_polarity_graph(spec, pol)
        assert len(_absolute_points(pg)) == expected


def test_gq_absolute_count():
    spec, pol = gq_family(1)
    pg = build_polarity_graph(spec, pol)
    assert len(_absolute_points(pg)) == 64


def test_plane_polarity_adjacency_closed_form():
    # (p1,p2) ~ (r1,r2)  iff  p2 + r2^q = p1 * r1^q, on all pairs
    for q in (2, 3):
        spec, pol = plane_family(q)
        ctx = spec.ctx
        d = ctx.k // 2
        pg = build_polarity_graph(spec, pol)
        g = pg.graph(10 ** 5)
        frob = ctx.frob_table(d)
        for pid in range(g.n):
            p = _id_to_coords(spec, pid)
            for rid in range(g.n):
                r = _id_to_coords(spec, rid)
                closed = ctx.add(p[1], frob[r[1]]) == ctx.mul(p[0], frob[r[0]])
                if pid == rid:
                    assert closed == (pid in g.loops)
                else:
                    assert closed == (rid in g.adj[pid])


def test_gq_polarity_adjacency_closed_form():
    # p2 + r3^(2^e) = p1 r1^(2^(e+1))  and  p3 + r2^(2^(e+1)) = p1^2 r1^(2^(e+1))
    e = 1
    spec, pol = gq_family(e)
    ctx = spec.ctx
    pg = build_polarity_graph(spec, pol)
    g = pg.graph(10 ** 5)
    fe = ctx.frob_table(e)
    fe1 = ctx.frob_table(e + 1)
    rng = random.Random(5)
    for _ in range(20_000):
        pid = rng.randrange(g.n)
        rid = rng.randrange(g.n)
        p = _id_to_coords(spec, pid)
        r = _id_to_coords(spec, rid)
        t = fe1[r[0]]
        closed = (ctx.add(p[1], fe[r[2]]) == ctx.mul(p[0], t)
                  and ctx.add(p[2], fe1[r[1]]) == ctx.mul(ctx.mul(p[0], p[0]), t))
        if pid == rid:
            assert closed == (pid in g.loops)
        else:
            assert closed == (rid in g.adj[pid])


def test_gh_polarity_adjacency_closed_form_small():
    # the four displayed equations, with the fixed r1^(3^(e+1)) exponent, at e=0
    e = 0
    spec, pol = gh_family(e, allow_small_e=True)
    ctx = spec.ctx
    pg = build_polarity_graph(spec, pol)
    g = pg.graph(10 ** 5)
    fe = ctx.frob_table(e)
    fe1 = ctx.frob_table(e + 1)
    rng = random.Random(6)
    for _ in range(30_000):
        pid = rng.randrange(g.n)
        rid = rng.randrange(g.n)
        p = _id_to_coords(spec, pid)
        r = _id_to_coords(spec, rid)
        t = fe1[r[0]]
        p1sq = ctx.mul(p[0], p[0])
        p1cu = ctx.mul(p1sq, p[0])
        closed = (ctx.add(p[1], fe[r[3]]) == ctx.mul(p[0], t)
                  and ctx.add(p[2], fe[r[4]]) == ctx.mul(p1sq, t)
                  and ctx.add(p[3], fe1[r[1]]) == ctx.mul(p1cu, t)
                  and ctx.add(p[4], fe1[r[2]]) == ctx.mul(p1cu, ctx.mul(t, t)))
        if pid == rid:
            assert closed == (pid in g.loops)
        else:
            assert closed == (rid in g.adj[pid])


def test_small_e_override_required():
    with pytest.raises(ValueError):
        gq_family(0)
    with pytest.raises(ValueError):
        gh_family(0)
    spec, pol = gq_family(0, allow_small_e=True)
    assert check_polarity(spec, pol, mode="exhaustive").ok


def test_phi_coordinate_formulas():
    phi = _coordinate_map(gh_original_family(3)[1])
    ctx = make_field(3, 1)
    rng = random.Random(2)
    for _ in range(50):
        coords = tuple(rng.randrange(3) for _ in range(5))
        img_p = phi("P", coords)
        assert img_p[1] == coords[1]  # second coordinate unchanged
        img_l = phi("L", coords)
        assert img_l[:4] == coords[:4]
        assert img_l[4] == ctx.add(ctx.neg(coords[4]), ctx.mul(coords[1], coords[2]))


def test_phi_edge_mapping_exhaustive_q3():
    spec_orig, phi = gh_original_family(3)
    phi = _coordinate_map(phi)
    spec_gh = gh_adjacency_spec(3)
    images = set()
    count = 0
    for p in _all_coords(spec_orig):
        fp = phi("P", p)
        images.add(fp)
        for lv in _neighbors_of_point(spec_orig, p):
            assert spec_gh.incident(fp, phi("L", lv))
            count += 1
    assert len(images) == 3 ** 5
    assert count == 3 ** 6


def test_phi_bulk_matches_scalar():
    _, phi = gh_original_family(9)
    scalar = _coordinate_map(phi)
    rng = random.Random(3)
    rows = [tuple(rng.randrange(9) for _ in range(5)) for _ in range(200)]
    coords = [np.array(c, dtype=np.int16) for c in zip(*rows)]
    for side in "PL":
        bulk = phi.bulk(side, coords)
        assert [tuple(int(c[i]) for c in bulk) for i in range(len(rows))] == \
            [scalar(side, r) for r in rows]
    with pytest.raises(ValueError):
        scalar("X", rows[0])


def test_gh_original_rejects_non_power_of_three():
    with pytest.raises(ValueError):
        gh_original_family(4)


def test_generic_conjugation_reproduces_plane():
    ctx = make_field(2, 2)
    spec = ADGSpec(ctx, 2, (mul(var_p(1), var_l(1)),))
    pol = generic_conjugation_polarity(spec)
    ref_spec, ref_pol = plane_family(2)
    assert pol.point_to_line == ref_pol.point_to_line
    g = build_polarity_graph(spec, pol).graph(10 ** 4)
    h = build_polarity_graph(ref_spec, ref_pol).graph(10 ** 4)
    assert g.adj == h.adj and np.array_equal(g.loops, h.loops)


def test_generic_conjugation_rejects_asymmetric():
    ctx = make_field(2, 2)
    spec = ADGSpec(ctx, 2, (mul(powi(var_l(1), 2), var_p(1)),))
    with pytest.raises(ValueError):
        generic_conjugation_polarity(spec)


def test_generic_conjugation_accepts_symmetric_with_linear_terms():
    ctx = make_field(2, 2)
    f = adg.add(mul(var_l(1), var_p(1)), adg.add(var_l(1), var_p(1)))
    spec = ADGSpec(ctx, 2, (f,))
    pol = generic_conjugation_polarity(spec)
    assert check_polarity(spec, pol, mode="exhaustive").ok


def test_bulk_absolute_matches_scalar(monkeypatch):
    monkeypatch.setattr(adg, "SWEEP_BLOCK", 1000)
    for builder in (lambda: plane_family(2), lambda: plane_family(3),
                    lambda: gq_family(1), lambda: gh_family(0, allow_small_e=True)):
        spec, pol = builder()
        pg = adg.PolarityGraph(spec, pol)
        assert count_absolute_bulk(pg) == len(_absolute_points(pg))


def test_bulk_expression_evaluator():
    import numpy as np
    ctx = make_field(3, 3)
    e = sub(mul(powi(var_p(1), 3), powi(var_l(1), 2)), var_p(2))
    rng = random.Random(0)
    lv = [np.array([rng.randrange(27) for _ in range(200)], dtype=np.int16)
          for _ in range(2)]
    pv = [np.array([rng.randrange(27) for _ in range(200)], dtype=np.int16)
          for _ in range(2)]
    out = eval_expr_bulk(e, ctx, lv, pv)
    fn = adg.compile_expr(e, ctx)
    for i in range(200):
        scalar = fn([int(a[i]) for a in lv], [int(a[i]) for a in pv])
        assert int(out[i]) == scalar


def test_implicit_symmetry_sampled_gh():
    spec, pol = gh_family(1)
    pg = adg.PolarityGraph(spec, pol)
    rng = random.Random(9)
    for _ in range(200):
        v = tuple(rng.randrange(27) for _ in range(5))
        nbs = pg.neighbors_coords(v)
        u = nbs[rng.randrange(len(nbs))]
        assert v in pg.neighbors_coords(u)


def test_degree_relation_exhaustive_plane_and_gq():
    # polarity degree drops by one exactly on absolute points
    for builder in (lambda: plane_family(2), lambda: plane_family(3),
                    lambda: gq_family(1)):
        spec, pol = builder()
        pg = adg.PolarityGraph(spec, pol)
        q = spec.ctx.order
        for p in _all_coords(spec):
            expect = q - 1 if pg.is_absolute(p) else q
            assert len(pg.neighbors_coords(p)) == expect


# -- bulk kernel against the scalar reference ---------------------------------

# above q^3 of every family the tests fold, up to plane q=9 (order 81);
# plane q=23's q^3 = 1.5e8 stays above it, its solve tables would take 300 MB
FOLD_BUDGET_ABOVE_ALL = 1 << 22

BULK_FAMILIES = {
    "plane q=3": lambda: plane_family(3),
    "plane q=23": lambda: plane_family(23),  # GF(529): two digit blocks
    "gq e=1": lambda: gq_family(1),
    "gh e=1": lambda: gh_family(1),
}


def _arrays(points):
    import numpy as np
    return [np.array(c, dtype=np.int16) for c in zip(*points)]


def _sample_points(pg, count, seed):
    """Random points followed by 20 absolute ones, found by the scalar test."""
    spec = pg.spec
    rng = random.Random(seed)

    def draw():
        return tuple(rng.randrange(spec.ctx.order) for _ in range(spec.m))

    points = [draw() for _ in range(count)]
    absolute = []
    while len(absolute) < 20:
        p = draw()
        if pg.is_absolute(p):
            absolute.append(p)
    return points + absolute


def _reference_neighbors_bulk(pg, pvals):
    """The coordinate-form neighbour kernel neighbor_ids replaced, kept as
    its reference: the q points on each polar line as m arrays of shape
    (N, q), by ascending first coordinate, and the (N, q) mask that is False
    where that point is the vertex itself."""
    ctx = pg.spec.ctx
    lv = [c[:, None] for c in pg.pol.polar(ctx, pvals)]
    rv = pg.spec.point_on_bulk(lv, np.arange(ctx.order, dtype=np.int16)[None, :])
    return rv, ~adg._rows_equal(rv, [c[:, None] for c in pvals])


def _scalar_neighbor_ids(pg, p):
    """neighbor_ids' row for point p from the scalar neighbors_coords: the
    vertex itself has first coordinate p_1 on its polar line, so an
    absolute point's -1 sits at position p_1."""
    row = [_coords_to_id(pg.spec, r) for r in pg.neighbors_coords(p)]
    if pg.is_absolute(p):
        row.insert(p[0], -1)
    return row


@pytest.mark.parametrize("family", sorted(BULK_FAMILIES))
def test_neighbors_bulk_matches_scalar(family):
    spec, pol = BULK_FAMILIES[family]()
    pg = adg.PolarityGraph(spec, pol)
    q = spec.ctx.order
    points = _sample_points(pg, 200, seed=3)
    pv = _arrays(points)
    ids = spec.coords_to_ids(pv)
    assert ids.tolist() == [sum(c * q ** (spec.m - 1 - i) for i, c in enumerate(p)) for p in points]
    assert [c.tolist() for c in spec.ids_to_coords(ids)] == [c.tolist() for c in pv]
    nb = pg.neighbor_ids(ids)
    assert nb.dtype == np.int64 and nb.shape == (len(points), q)
    nbs, not_self = _reference_neighbors_bulk(pg, pv)
    assert np.array_equal(nb, np.where(not_self, spec.coords_to_ids(nbs), -1))
    absolute_seen = 0
    for i, p in enumerate(points):
        assert nb[i].tolist() == _scalar_neighbor_ids(pg, p)
        assert [tuple(int(c[i, j]) for c in nbs) for j in range(q) if not_self[i, j]] == \
            pg.neighbors_coords(p)
        absolute_seen += pg.is_absolute(p)
    assert absolute_seen >= 20


# the m=4 toy of acceptance criterion 7 over GF(4) (f_3 = p_2 l_2 and
# f_4 = p_3 l_3 read a point coordinate past p_1), and a GF(9) spec with
# f_2 = 0 and f_3 = p_2 l_2: every equation has a table, but those that
# read p_2 or p_3 leave the spec without an id kernel
GF4_TOY = ADGSpec(make_field(2, 2), 4, (mul(var_p(1), var_l(1)), mul(var_p(2), var_l(2)),
                                        mul(var_p(3), var_l(3))))
GF9_SPEC = ADGSpec.from_json({"field": {"p": 3, "k": 2}, "m": 3, "fs": [
    ["const", 0], ["mul", ["var", "p", 2], ["var", "l", 2]]]})

# name -> (family, whether the spec has an id kernel)
KERNEL_FAMILIES = {
    **{f"plane q={q}": (lambda q=q: plane_family(q), True) for q in (2, 3, 4, 5)},
    "gq e=1": (lambda: gq_family(1), True),
    "gh e=0": (lambda: gh_family(0, allow_small_e=True), True),
    "GF(4) m=4 toy": (lambda: (GF4_TOY, generic_conjugation_polarity(GF4_TOY)), False),
    "GF(9) f_3 = p_2 l_2": (lambda: (GF9_SPEC, generic_conjugation_polarity(GF9_SPEC)), False),
}


# (a, b) per equation: the table reads l_{a+1} and p_{b+1}
@pytest.mark.parametrize("name,make_spec,rows", [
    ("plane q=3", lambda: plane_family(3)[0], [(0, 0)]),
    ("gq e=1", lambda: gq_family(1)[0], [(0, 0)] * 2),
    ("gh q=27", lambda: gh_adjacency_spec(27), [(0, 0)] * 4),
    # the cross term p_2 l_3 - p_3 l_2 has no table
    ("gh-original q=9", lambda: gh_original_family(9)[0], [(0, 0), (1, 0), (2, 0), None]),
    ("GF(4) m=4 toy", lambda: GF4_TOY, [(0, 0), (1, 1), (2, 2)]),
    ("GF(9) f_3 = p_2 l_2", lambda: GF9_SPEC, [(0, 0), (1, 1)]),
])
def test_equation_tables_match_the_evaluator(name, make_spec, rows):
    spec = make_spec()
    q = spec.ctx.order
    assert [None if tab is None else tab[:2] for tab in spec.tables()] == rows
    u, t = np.meshgrid(np.arange(q, dtype=np.int16), np.arange(q, dtype=np.int16),
                       indexing="ij")
    rng = np.random.default_rng(0)
    for j, (f, tab) in enumerate(zip(spec.fs, spec.tables())):
        if tab is None:
            continue
        a, b, table, _ = tab
        assert table.dtype == np.int16 and table.shape == (q, q)
        # every other coordinate random: the table may not depend on it
        lv = [rng.integers(0, q, (q, q)).astype(np.int16) for _ in range(spec.m)]
        pv = [rng.integers(0, q, (q, q)).astype(np.int16) for _ in range(spec.m)]
        lv[a], pv[b] = u, t
        assert np.array_equal(table, np.broadcast_to(eval_expr_bulk(f, spec.ctx, lv, pv),
                                                     (q, q)))
        x = rng.integers(0, q, (q, q)).astype(np.int16)
        assert np.array_equal(spec.solve_bulk(j, lv, pv, x), spec.ctx.sub_bulk(table, x))
    assert spec.tables() is spec.tables()  # built once


@pytest.mark.parametrize("name", sorted(KERNEL_FAMILIES) + ["gh-original q=9"])
def test_the_dual_tabulates_the_transposed_equations(name):
    """The table rule is self-dual: the dual, the spec with p and l
    swapped, tabulates the same equations, (a, b) swapped and each F
    transposed, and its own dual is the spec."""
    spec = (gh_original_family(9) if name == "gh-original q=9" else KERNEL_FAMILIES[name][0]())[0]
    dual = spec.dual()
    assert dual is spec.dual() and dual.dual() is spec and dual != spec
    for tab, dual_tab in zip(spec.tables(), dual.tables(), strict=True):
        assert (tab is None) == (dual_tab is None)
        if tab is not None:
            assert dual_tab[:2] == tab[1::-1] and np.array_equal(dual_tab[2], tab[2].T)


@pytest.mark.parametrize("name", sorted(KERNEL_FAMILIES))
def test_neighbor_ids_match_scalar_on_every_id(name):
    make_family, kernel = KERNEL_FAMILIES[name]
    spec, pol = make_family()
    assert None not in spec.tables()
    pg = adg.PolarityGraph(spec, pol)
    assert (spec.id_kernel() is None) == (not kernel)
    nb = pg.neighbor_ids(np.arange(pg.n))
    assert nb.shape == (pg.n, spec.ctx.order)
    assert nb.tolist() == [_scalar_neighbor_ids(pg, p) for p in _all_coords(spec)]


@pytest.mark.parametrize("name,make_family,samples", [
    *[(f"plane q={q}", lambda q=q: plane_family(q), None) for q in (2, 3, 4, 5)],
    ("gq e=1", lambda: gq_family(1), None),
    ("gh e=0", lambda: gh_family(0, allow_small_e=True), None),
    ("gh e=1", lambda: gh_family(1), 20_000),
])
def test_folded_and_square_id_kernels_agree(name, make_family, samples, monkeypatch):
    """Every bulk path reads the same with and without solve tables, and
    so with the folded and the square id kernel."""
    out = {}
    for budget, folded in ((0, False), (FOLD_BUDGET_ABOVE_ALL, True)):
        monkeypatch.setattr(adg, "FOLD_BUDGET", budget)
        spec, pol = make_family()  # fresh: tables() is cached on the spec
        q, n = spec.ctx.order, spec.side_size
        assert all(S is not None for *_, S in spec.tables()) == folded
        pg = adg.PolarityGraph(spec, pol)
        for _, _, index, table in spec.id_kernel(pol.point_to_line):
            assert table.dtype == np.int32
            if folded:
                assert index is None and table.shape == (q * q, q)
            else:
                assert index.shape == (q, q) and table.shape == (q * q,)
        ids = np.arange(n) if samples is None else np.random.default_rng(7).integers(0, n, samples)
        coords = [c[:, None] for c in spec.ids_to_coords(ids)]
        every = np.arange(q, dtype=spec.ctx.dtype)[None, :]
        lines = spec.dual().point_on_bulk(coords, every)
        out[folded] = [
            pg.neighbor_ids(ids), *lines, *spec.point_on_bulk(coords, every),
            spec.incident_bulk(coords, [*lines[:-1], np.roll(lines[-1], 1, axis=1)]),
            pg.absolute_ids(),
            check_polarity(spec, pol, mode="sampled", samples=2000, seed=3).to_json(),
        ]
    assert out[True][0].dtype == out[False][0].dtype == np.int64
    for bulk, square in zip(out[True], out[False]):
        assert np.array_equal(bulk, square) if isinstance(bulk, np.ndarray) else bulk == square
    assert out[True][-3].any() and not out[True][-3].all()


@pytest.mark.parametrize("name,make_family,folds", [
    ("gh e=1", lambda: gh_family(1), True),
    ("gq e=1", lambda: gq_family(1), True),
    ("plane q=9", lambda: plane_family(9), False),
])
def test_which_specs_fold_their_id_tables(name, make_family, folds):
    kernel = make_family()[0].id_kernel()
    assert [index is None for _, _, index, _ in kernel] == [folds] * len(kernel)


@pytest.mark.parametrize("name", sorted(KERNEL_FAMILIES) + ["plane q=23", "gh-original q=3"])
def test_point_ids_match_the_coordinate_path(name):
    """point_ids (both halves of incidence_graph, and neighbor_ids),
    neighbor_ids and absolute_ids against the coordinate path, on every id
    or, at plane q=23 (order 529, tabulated), on sampled ones; both halves
    of incidence_graph against the scalar point_on and line_through, with
    and without an id kernel (GF(4), GF(9) and gh-original have none)."""
    if name == "plane q=23":
        spec, pol = plane_family(23)
        ids = np.random.default_rng(23).integers(0, spec.side_size, 5000)
        assert spec.id_kernel() is not None
    elif name == "gh-original q=3":
        (spec, _), pol = gh_original_family(3), None
        ids = np.arange(spec.side_size)
        assert spec.id_kernel() is spec.dual().id_kernel() is None
    else:
        spec, pol = KERNEL_FAMILIES[name][0]()
        ids = np.arange(spec.side_size)
    coords = spec.ids_to_coords(ids)
    every = np.arange(spec.ctx.order, dtype=spec.ctx.dtype)[None, :]
    rows = spec.coords_to_ids(spec.point_on_bulk([c[:, None] for c in coords], every))
    assert np.array_equal(spec.point_ids(coords), rows)
    if name != "plane q=23":
        assert spec.incidence_graph(10 ** 4).adj == _scalar_bipartite_rows(spec)[0]
    if pol is None:
        return
    pg = adg.PolarityGraph(spec, pol)
    nbs, not_self = _reference_neighbors_bulk(pg, coords)
    assert np.array_equal(pg.neighbor_ids(ids), np.where(not_self, spec.coords_to_ids(nbs), -1))
    assert np.array_equal(pg.absolute_ids(), _reference_absolute_ids(pg))


def test_absolute_scan_leaves_no_reference_cycle():
    # nor does the dual that the polarity check solves lines on: it holds
    # its spec by a weak reference
    enabled = gc.isenabled()
    gc.disable()
    try:
        pg = build_polarity_graph(*plane_family(3))
        assert len(pg.absolute_ids()) == 27
        ref, spec_ref, dual = weakref.ref(pg), weakref.ref(pg.spec), pg.spec.dual()
        del pg
        assert ref() is None and spec_ref() is None
        assert dual.dual().dual() is dual  # rebuilt once its spec is gone
    finally:
        if enabled:
            gc.enable()


def test_neighbor_ids_match_coordinate_kernel_gh_e1():
    pg = adg.PolarityGraph(*gh_family(1))
    ids = np.random.default_rng(20231117).integers(0, pg.n, 20_000)
    ids[:100] = pg.absolute_ids()[:100]
    nbs, not_self = _reference_neighbors_bulk(pg, pg.spec.ids_to_coords(ids))
    nb = pg.neighbor_ids(ids)
    assert np.array_equal(nb, np.where(not_self, pg.spec.coords_to_ids(nbs), -1))
    assert (nb == -1).sum() >= 100


def _twisted_polarities():
    """PolaritySpecs for the kernel's composition, not all of them
    polarities: each GH_TWISTS permutation with coordinate j twisted by
    Frobenius^(j mod 2), as the scan tests build them, and by
    Frobenius^((j + 1) mod 2), which twists the l_1 every equation reads.
    The twists move elements of GF(27), not of GF(3)."""
    return {(name, shift): PolaritySpec(*[tuple((s, (j + shift) % 2) for j, s in enumerate(src))] * 2)
            for name, src in GH_TWISTS.items() for shift in (0, 1)}


@pytest.mark.parametrize("budget", [0, FOLD_BUDGET_ABOVE_ALL], ids=["square", "folded"])
@pytest.mark.parametrize("e", [0, 1], ids=["gh e=0", "gh e=1"])
def test_neighbor_ids_compose_any_polarity_with_the_kernel(monkeypatch, budget, e):
    """The id kernel is built per coordinate map: under every GH_TWISTS
    rule set on one spec, neighbor_ids reads the twisted digits it should,
    on every id of gh e=0 and on sampled gh e=1 ids."""
    monkeypatch.setattr(adg, "FOLD_BUDGET", budget)
    spec = gh_family(e, allow_small_e=True)[0]  # fresh: tables() is cached on the spec
    ids = (np.arange(spec.side_size) if e == 0 else
           np.random.default_rng(5).integers(0, spec.side_size, 2000))
    coords = spec.ids_to_coords(ids)
    for twist, pol in _twisted_polarities().items():
        pg = adg.PolarityGraph(spec, pol)
        assert all((index is None) == bool(budget) for _, _, index, _ in
                   spec.id_kernel(pol.point_to_line))
        nbs, not_self = _reference_neighbors_bulk(pg, coords)
        assert np.array_equal(pg.neighbor_ids(ids),
                              np.where(not_self, spec.coords_to_ids(nbs), -1)), twist


@pytest.mark.parametrize("e,dtype", [(1, np.int32), (2, np.int64)])
def test_id_codec_round_trips_at_the_int32_boundary(e, dtype):
    """ids_to_coords divides in int32 while q^m <= 2^31 (gh e=1, n =
    27^5) and in int64 above (gh e=2, n = 243^5 ~ 8.5e11)."""
    spec = gh_family(e)[0]
    q, n = spec.ctx.order, spec.side_size
    assert (n <= 2 ** 31) == (dtype == np.int32)
    ids = [0, 1, q ** (spec.m - 1), n - 1] + ([2 ** 31 - 1, 2 ** 31] if n > 2 ** 31 else [])
    coords = spec.ids_to_coords(np.array(ids))
    assert all(c.dtype == spec.ctx.dtype for c in coords)
    assert [_coords_to_id(spec, p) for p in zip(*(c.tolist() for c in coords))] == ids
    assert spec.coords_to_ids(coords).tolist() == ids


def test_neighbor_ids_match_the_coordinate_path_gh_e2():
    """gh e=2 (q = 243) runs the square kernel in int64: 243^3 is above
    FOLD_BUDGET and 243^5 above 2^31."""
    pg = adg.PolarityGraph(*gh_family(2))
    kernel = pg.spec.id_kernel(pg.pol.point_to_line)
    assert all(index is not None and table.dtype == np.int64 for _, _, index, table in kernel)
    ids = np.random.default_rng(243).integers(0, pg.n, 2000)
    ids[-1] = pg.n - 1
    nbs, not_self = _reference_neighbors_bulk(pg, pg.spec.ids_to_coords(ids))
    nb = pg.neighbor_ids(ids)
    assert nb.dtype == np.int64 and nb.max() >= 2 ** 31
    assert np.array_equal(nb, np.where(not_self, pg.spec.coords_to_ids(nbs), -1))


def _holds_own_id(ids, rows):
    return (rows == np.asarray(ids)[:, None]).any(axis=1)


@pytest.mark.parametrize("name,make_family,samples", [
    *[(f"plane q={q}", lambda q=q: plane_family(q), None) for q in (2, 3, 4, 5)],
    ("gq e=1", lambda: gq_family(1), None),
    ("gh e=0", lambda: gh_family(0, allow_small_e=True), None),
    ("gh e=1", lambda: gh_family(1), 20_000),
])
def test_no_neighbour_row_holds_its_own_id(name, make_family, samples):
    # graphs.even_cycle relies on it: a walk's tip is never compared
    # against its own neighbour row
    pg = adg.PolarityGraph(*make_family())
    if samples is None:
        ids = np.arange(pg.n)
    else:
        ids = np.random.default_rng(20231117).integers(0, pg.n, samples)
        ids[:100] = pg.absolute_ids()[:100]
    nb = pg.neighbor_ids(ids)
    assert (nb == -1).any()  # absolute points: their own slot is written -1
    assert not _holds_own_id(ids, nb).any()
    if samples is None:
        assert not _holds_own_id(ids, pg.graph(pg.n).table).any()


@pytest.mark.parametrize("family", sorted(BULK_FAMILIES))
def test_incident_bulk_matches_scalar(family, monkeypatch):
    # the evaluator (no tables), the square form (no solve tables) and the
    # folded one where q^3 fits, on the spec and on its dual alike
    tables = adg.TABLE_BUDGET
    for tables, budget in ((0, 0), (tables, 0), (tables, FOLD_BUDGET_ABOVE_ALL)):
        monkeypatch.setattr(adg, "TABLE_BUDGET", tables)
        monkeypatch.setattr(adg, "FOLD_BUDGET", budget)
        spec, pol = BULK_FAMILIES[family]()  # fresh: tables() is cached on the spec
        forms = [None if t is None else t[3] is not None
                 for t in spec.tables() + spec.dual().tables()]
        assert forms == [spec.ctx.order ** 3 <= budget if tables else None] * 2 * (spec.m - 1)
        _check_incidence_bulk_against_scalar(spec, pol)


def _check_incidence_bulk_against_scalar(spec, pol):
    pg = adg.PolarityGraph(spec, pol)
    ctx = spec.ctx
    q = ctx.order
    rng = random.Random(5)
    points = _sample_points(pg, 300, seed=4)
    lines = []
    for i, p in enumerate(points):
        if i % 3 == 0:
            lines.append(spec.line_through(p, rng.randrange(q)))
        elif i % 3 == 1:
            lines.append(pol.apply_point(ctx, p))
        else:
            lines.append(tuple(rng.randrange(q) for _ in range(spec.m)))
    pv, lv = _arrays(points), _arrays(lines)
    assert [adg._row(pol.polar(ctx, pv), i) for i in range(len(points))] == \
        [pol.apply_point(ctx, p) for p in points]
    assert [adg._row(pol.polar_line(ctx, lv), i) for i in range(len(lines))] == \
        [_apply_line(pol, ctx, lv_) for lv_ in lines]
    l1 = _arrays([(lv_[0],) for lv_ in lines])[0]
    through = spec.dual().point_on_bulk(pv, l1)
    assert [adg._row(through, i) for i in range(len(points))] == \
        [spec.line_through(p, lv_[0]) for p, lv_ in zip(points, lines)]
    on = spec.point_on_bulk(lv, pv[0])
    assert [adg._row(on, i) for i in range(len(points))] == \
        [spec.point_on(lv_, p[0]) for p, lv_ in zip(points, lines)]
    bulk = spec.incident_bulk(pv, lv).tolist()
    scalar = [spec.incident(p, lv_) for p, lv_ in zip(points, lines)]
    assert bulk == scalar
    assert True in scalar and False in scalar


def test_a_tampered_solve_entry_fails_incidence(monkeypatch):
    """One wrong entry of the spec's S_1, which incident_bulk solves points
    by, or of its dual's, which check_polarity solves lines by, fails the
    exhaustive polarity check, the table certificate and then the sweep,
    with the sweep's witness; the scalar closures read no solve table."""
    p, l1 = (3, 5, 6), 2
    for side in ("spec", "dual"):
        spec, pol = gq_family(1)  # fresh: tables() is cached on the spec
        q, line = spec.ctx.order, spec.line_through(p, l1)
        pv, lv = _arrays([p]), _arrays([line])
        assert spec.incident_bulk(pv, lv).tolist() == [True]
        if side == "spec":  # S_1 at row (l_{a+1}, l_3), column p_{b+1}: p_3
            a, b, _, table = spec.tables()[1]
            at, solved = (line[a] * q + line[2], p[b]), p[2]
        else:  # the dual's S_1 at row (p_{a+1}, p_3), column l_{b+1}: l_3
            a, b, _, table = spec.dual().tables()[1]
            at, solved = (p[a] * q + p[2], line[b]), line[2]
        assert table[at] == solved
        table[at] = (table[at] + 1) % q
        if side == "spec":
            assert spec.incident_bulk(pv, lv).tolist() == [False]
        else:
            assert adg._row(spec.dual().point_on_bulk(pv, _arrays([(l1,)])[0]), 0) != line
        assert spec.incident(p, line) and spec.line_through(p, l1) == line
        assert not adg._table_certificate(spec, pol), side
        chk = check_polarity(spec, pol)
        assert not chk.ok and chk == _swept(monkeypatch, spec, pol), side


def _scalar_polarity_rows(pg):
    """The polarity graph's rows and loops from the scalar closures."""
    spec, points = pg.spec, list(_all_coords(pg.spec))
    rows = [[_coords_to_id(spec, r) for r in pg.neighbors_coords(p)] for p in points]
    return rows, [v for v, p in enumerate(points) if pg.is_absolute(p)]


def _scalar_bipartite_rows(spec):
    """The incidence graph's rows (points, then lines) from the scalar
    closures, ids by a Python codec (coordinates big-endian, as in
    itertools.product); it has no loops."""
    q, ns = spec.ctx.order, spec.side_size
    coords = list(itertools.product(range(q), repeat=spec.m))  # id order

    def ident(c):
        return functools.reduce(lambda v, x: v * q + x, c)

    rows = [[ns + ident(lv) for lv in _neighbors_of_point(spec, c)] for c in coords]
    rows += [[ident(p) for p in _neighbors_of_line(spec, c)] for c in coords]
    return rows, []


def _materialize_both_ways(bulk, scalar_rows):
    """(the builder's proven graph, Graph() over the scalar rows); its
    padded table must be the one the list constructor builds from the
    scalar rows, in int32 ids, which Graph() widens to int64 once n * n
    passes 2^31, with the same degrees, loops and adjacency lists."""
    n = bulk.n
    rows, loops = scalar_rows
    scalar = Graph(n, rows, loops)
    assert bulk.table.dtype == (scalar.table.dtype if n * n < 2 ** 31 else np.int32)
    assert np.array_equal(bulk.table, scalar.table)
    assert bulk.deg.dtype == scalar.deg.dtype and np.array_equal(bulk.deg, scalar.deg)
    assert bulk.loops.dtype == scalar.loops.dtype and np.array_equal(bulk.loops, scalar.loops)
    assert bulk.adj == [sorted(row) for row in rows]
    return bulk, scalar


@pytest.mark.parametrize("name,make_family", [
    ("plane q=2", lambda: plane_family(2)),
    ("plane q=3", lambda: plane_family(3)),
    ("gq e=1", lambda: gq_family(1)),
    ("gh e=0", lambda: gh_family(0, allow_small_e=True)),
    ("GF(4) m=4 toy", KERNEL_FAMILIES["GF(4) m=4 toy"][0]),
    ("GF(9) f_3 = p_2 l_2", KERNEL_FAMILIES["GF(9) f_3 = p_2 l_2"][0]),
])
def test_materialize_by_array_rule_matches_scalar_rule(name, make_family):
    pg = adg.PolarityGraph(*make_family())
    bulk, scalar = _materialize_both_ways(pg.graph(pg.n), _scalar_polarity_rows(pg))
    assert np.array_equal(bulk.loops, scalar.loops) and len(bulk.loops) > 0


@pytest.mark.parametrize("name,make_spec", [
    ("plane q=2", lambda: plane_family(2)[0]),
    ("plane q=3", lambda: plane_family(3)[0]),
    ("gq e=1", lambda: gq_family(1)[0]),
    ("gh e=0", lambda: gh_family(0, allow_small_e=True)[0]),
    ("gh-original q=3", lambda: gh_original_family(3)[0]),
    ("GF(4) m=4 toy", lambda: GF4_TOY),
    ("GF(9) f_3 = p_2 l_2", lambda: GF9_SPEC),
    # n = 65,536: n * n passes 2^31, the ids stay int32
    ("gq e=2", lambda: gq_family(2)[0]),
])
def test_bipartite_array_rule_matches_scalar_rule(name, make_spec):
    spec = make_spec()
    bulk, scalar = _materialize_both_ways(spec.incidence_graph(2 * spec.side_size),
                                          _scalar_bipartite_rows(spec))
    assert len(bulk.loops) == len(scalar.loops) == 0


# One tampered slot per clause of the builders' proof: family -> (method
# whose rows are tampered, vertex, slot, value written there, the message
# the proof raises).  Plane q=3's polarity graph reads neighbor_ids
# (absolute points 0, 3, 6, ..., row 1 = 2, 11, 20, ..., classes of 9
# and 11 are 3 and 4); gh-original q=3's incidence graph reads its point
# rows from the dual's point_ids, in line ids less 243: point 0 lies on
# lines 243, 324 and 405, not on 244.
PROOF_TAMPERS = {
    "an arc moved to a lower class in one row":
        ("plane", "neighbor_ids", 1, 1, 9, "asymmetric edge (1, 9)"),
    "a vertex's own id left in its row":
        ("plane", "neighbor_ids", 0, 0, 0,
         "slot 0 of vertex 0 holds 0, not another vertex of first coordinate 0"),
    "a -1 in a row that is not absolute":
        ("plane", "neighbor_ids", 1, 0, -1, "vertex 1 is no loop but has an empty slot"),
    "an absolute row with no -1":
        ("plane", "neighbor_ids", 0, 0, 1, "vertex 0 is a loop with no empty slot"),
    "a slot holding another first coordinate":
        ("plane", "neighbor_ids", 1, 1, 20,
         "slot 1 of vertex 1 holds 20, not another vertex of first coordinate 1"),
    "a point row naming a line that lacks the point":
        ("gh-original", "point_ids", 0, 0, 1, "asymmetric edge (0, 244)"),
}


def tamper_rows(monkeypatch, case):
    """Patch PROOF_TAMPERS[case]'s method to write its value into its slot
    of its vertex's row (point_ids: only the dual's, the point rows);
    returns its family and message."""
    family, name, vertex, slot, value, message = PROOF_TAMPERS[case]
    owner = adg.PolarityGraph if name == "neighbor_ids" else adg.ADGSpec
    original, dual_fs = getattr(owner, name), gh_original_family(3)[0].dual().fs

    def rows(self, arg, *rest):
        out = original(self, arg, *rest)
        if owner is adg.PolarityGraph:  # arg: vertex ids
            out[np.asarray(arg) == vertex, slot] = value
        elif self.fs == dual_fs:  # the point rows; arg: their digits
            out[self.coords_to_ids(arg) == vertex, slot] = value
        return out
    monkeypatch.setattr(owner, name, rows)
    return family, message


@pytest.mark.parametrize("case", sorted(PROOF_TAMPERS))
def test_the_builders_proof_refuses_a_tampered_row(monkeypatch, case):
    family, message = tamper_rows(monkeypatch, case)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        if family == "plane":
            adg.PolarityGraph(*plane_family(3)).graph(81)
        else:
            gh_original_family(3)[0].incidence_graph(486)


def test_plane_q7_girths():
    spec, pol = plane_family(7)
    assert girth(spec.incidence_graph(10 ** 4)) == 6
    assert girth(build_polarity_graph(spec, pol).graph(10 ** 4)) == 3


def test_fields_above_table_side_keep_the_array_rules():
    # gh e=3 has 2187^2 > TABLE_BUDGET, and too many vertices to
    # materialize, so only the kernels' fallback is checked here
    spec = gh_adjacency_spec(2187)
    assert spec.ctx.order ** 2 > adg.TABLE_BUDGET
    assert spec.tables() == [None] * 4 and spec.id_kernel() is None
    lines = spec.ids_to_coords(np.random.default_rng(1).integers(0, spec.side_size, 3))
    for line, row in zip(zip(*(c.tolist() for c in lines)), spec.point_ids(lines).tolist()):
        assert row == [_coords_to_id(spec, spec.point_on(line, t)) for t in range(2187)]


def _reference_absolute_ids(pg, chunk=1 << 20):
    """The full scan the staged one replaced, kept as its reference: every
    point id in blocks of `chunk`, one equation at a time."""
    spec = pg.spec
    found = []
    for lo in range(0, pg.n, chunk):
        block = np.arange(lo, min(lo + chunk, pg.n), dtype=np.int64)
        pv = spec.ids_to_coords(block)
        lv = pg.pol.polar(spec.ctx, pv)
        for j, f in enumerate(spec.fs):
            keep = spec.ctx.add_bulk(lv[j + 1], pv[j + 1]) == eval_expr_bulk(f, spec.ctx, lv, pv)
            block = block[keep]
            pv = [c[keep] for c in pv]
            lv = [c[keep] for c in lv]
        found.append(block)
    return np.concatenate(found)


def _scalar_absolute_ids(pg):
    return [_coords_to_id(pg.spec, p) for p in _absolute_points(pg)]


def test_absolute_ids_match_scalar_scan(monkeypatch):
    families = [lambda q=q: plane_family(q) for q in (2, 3, 4, 5)]
    families += [lambda: gq_family(1), lambda: gh_family(0, allow_small_e=True)]
    for make_family in families:
        spec, pol = make_family()
        expected = _scalar_absolute_ids(adg.PolarityGraph(spec, pol))
        for chunk in (1, spec.ctx.order, 100, 1 << 15, 1 << 20):
            monkeypatch.setattr(adg, "SWEEP_BLOCK", chunk)
            ids = adg.PolarityGraph(spec, pol).absolute_ids()
            assert ids.dtype == np.int64
            assert ids.tolist() == expected


def test_absolute_ids_match_full_scan_gh_e1():
    pg = adg.PolarityGraph(*gh_family(1))
    ids = pg.absolute_ids()
    assert len(ids) == 27 ** 3
    assert np.array_equal(ids, _reference_absolute_ids(pg))


def test_absolute_ids_with_a_coordinate_no_equation_reads(monkeypatch):
    # f_2 = 0 reads nothing, f_3 = p_2 l_2: once l = polar(p), no equation
    # reads p_1, so the scan binds it last and tests nothing there
    spec = ADGSpec.from_json({"field": {"p": 3, "k": 2}, "m": 3, "fs": [
        ["const", 0], ["mul", ["var", "p", 2], ["var", "l", 2]]]})
    pol = generic_conjugation_polarity(spec)
    pg = adg.PolarityGraph(spec, pol)
    assert pg.scan_stages() == [(1, [0]), (2, [1]), (0, [])]
    for chunk in (1, 5, 100):
        monkeypatch.setattr(adg, "SWEEP_BLOCK", chunk)
        ids = adg.PolarityGraph(spec, pol).absolute_ids().tolist()
        assert ids == _scalar_absolute_ids(pg)
    assert len(_absolute_points(pg)) == 9 * 3 * 3  # p_1 free, then 3 p_2 and 3 p_3 each


# coordinate sources of hexagon polarities: a permutation of the point
# coordinates moves which ones each equation reads
GH_TWISTS = {
    "gh": (0, 3, 4, 1, 2),
    "identity": (0, 1, 2, 3, 4),
    "reversed": (4, 3, 2, 1, 0),
    "rotated": (1, 2, 3, 4, 0),
}


def test_absolute_ids_follow_the_polarity_twist(monkeypatch):
    spec = gh_family(0, allow_small_e=True)[0]
    orders = set()
    for name, src in GH_TWISTS.items():
        rules = tuple((s, j % 2) for j, s in enumerate(src))
        pg = adg.PolarityGraph(spec, PolaritySpec(rules, rules))
        orders.add(repr(pg.scan_stages()))
        for chunk in (1, 3, 100):
            monkeypatch.setattr(adg, "SWEEP_BLOCK", chunk)
            ids = adg.PolarityGraph(spec, pg.pol).absolute_ids().tolist()
            assert ids == _scalar_absolute_ids(pg), (name, chunk)
    assert len(orders) == len(GH_TWISTS)


@pytest.mark.parametrize("chunk", [1 << 20, 1 << 15, 1 << 12])
def test_absolute_scan_work_is_bounded(monkeypatch, chunk):
    # every block of candidates passes through polar once
    blocks = []
    polar = PolaritySpec.polar

    def counting_polar(self, ctx, pvals):
        blocks.append(len(pvals[0]))
        return polar(self, ctx, pvals)

    monkeypatch.setattr(PolaritySpec, "polar", counting_polar)
    monkeypatch.setattr(adg, "SWEEP_BLOCK", chunk)
    pg = adg.PolarityGraph(*gh_family(1))
    assert pg.scan_stages() == [(0, []), (1, []), (3, [0, 2]), (2, []), (4, [1, 3])]
    assert len(pg.absolute_ids()) == 27 ** 3
    assert sum(blocks) <= 600_000  # of 27^5 = 14,348,907 points
    assert max(blocks) <= chunk


@pytest.mark.parametrize("make_family,count", [
    (lambda: gh_family(0, allow_small_e=True), 147),
    (lambda: gh_family(1), 571_563),
    (lambda: gq_family(1), 584),
    (lambda: gq_family(2), 33_824),
    (lambda: plane_family(5), 650),
    (lambda: plane_family(9), 6_642),
], ids=["gh e=0", "gh e=1", "gq e=1", "gq e=2", "plane q=5", "plane q=9"])
def test_check_scan_bound_counts_the_candidates_the_scan_tests(monkeypatch, make_family, count):
    blocks = []
    polar = PolaritySpec.polar
    monkeypatch.setattr(PolaritySpec, "polar", lambda self, ctx, pvals: (
        blocks.append(len(pvals[0])) or polar(self, ctx, pvals)))
    pg = adg.PolarityGraph(*make_family())
    assert pg.check_scan_bound() == count
    pg.absolute_ids()
    assert sum(blocks) == count


def test_check_scan_bound_is_at_least_the_scan_on_every_twist(monkeypatch):
    # exact on the family's own twist; the others complete equations that
    # cut more than a q-th, so the scan tests fewer than the bound counts
    spec = gh_family(0, allow_small_e=True)[0]
    blocks = []
    polar = PolaritySpec.polar
    monkeypatch.setattr(PolaritySpec, "polar", lambda self, ctx, pvals: (
        blocks.append(len(pvals[0])) or polar(self, ctx, pvals)))
    scans = {}
    for name, src in GH_TWISTS.items():
        rules = tuple((s, j % 2) for j, s in enumerate(src))
        pg = adg.PolarityGraph(spec, PolaritySpec(rules, rules))
        blocks.clear()
        pg.absolute_ids()
        scans[name] = (pg.check_scan_bound(), sum(blocks))
    assert all(bound >= tested for bound, tested in scans.values())
    assert scans["gh"] == (147, 147)
    assert scans["identity"] == (363, 39) and scans["reversed"] == (363, 27)


BROKEN_POLARITIES = {
    # twists that are not involutions (the witness kind differs by mode)
    "gq twisted": (lambda: gq_family(1)[0],
                   PolaritySpec(((0, 1), (2, 2), (1, 1)), ((0, 1), (2, 2), (1, 1)))),
    "gq swapped": (lambda: gq_family(1)[0],
                   PolaritySpec(((0, 2), (1, 2), (2, 1)), ((0, 1), (1, 1), (2, 2)))),
    # an involution that breaks adjacency
    "gh identity": (lambda: gh_family(0, allow_small_e=True)[0],
                    PolaritySpec(tuple((i, 0) for i in range(5)), tuple((i, 0) for i in range(5)))),
}


# -- the scalar reference layer: the coordinate-tuple forms the bulk kernels
# replaced, kept here as the oracle the tests hold those kernels to --------

def _coords_to_id(spec, coords):
    """One coordinate tuple's vertex id, by the array codec."""
    return int(spec.coords_to_ids(coords))


def _id_to_coords(spec, n):
    """Vertex id n's coordinate tuple, by the array codec."""
    return tuple(int(c) for c in spec.ids_to_coords(n))


def _all_coords(spec):
    """Every coordinate tuple of one side, in id order."""
    return (_id_to_coords(spec, v) for v in range(spec.side_size))


def _neighbors_of_point(spec, pvals):
    """All q lines through a point, by ascending first coordinate."""
    return [spec.line_through(pvals, l1) for l1 in range(spec.ctx.order)]


def _neighbors_of_line(spec, lvals):
    """All q points on a line, by ascending first coordinate."""
    return [spec.point_on(lvals, p1) for p1 in range(spec.ctx.order)]


def _apply_line(pol, ctx, lvals):
    """The polar point of a line, by pol.line_to_point."""
    return tuple(ctx.frob_table(j)[lvals[src]] for src, j in pol.line_to_point)


def _absolute_points(pg):
    """Exhaustive absolute-point scan; only sensible when n is small."""
    return [p for p in _all_coords(pg.spec) if pg.is_absolute(p)]


def _coordinate_map(phi):
    """phi(side, coords) on one tuple: the CoordinateMap's expressions
    compiled once per side."""
    fns = {side: [adg.compile_expr(e, phi.ctx) for e in es] for side, es in phi.exprs.items()}

    def apply(side, coords):
        if side not in fns:
            raise ValueError(f"side must be 'P' or 'L', got {side!r}")
        return tuple(f((), coords) for f in fns[side])
    return apply


def _recompose_mu(basis, s, t):
    """s + t*mu in GF(q^2), the inverse of basis.decompose_mu."""
    ctx = basis.ctx
    return ctx.add(s, ctx.mul(t, basis.mu))


def _class_of_coords(scheme, coords):
    """A scheme's class id of one vertex, from its coordinates: the first
    two (gq) or three (gh) in base q, or for plane and the general
    construction x_1 followed by the index in basis.subfield of each other
    coordinate's beta^q part."""
    if scheme.family in ("gq", "gh"):
        keys = coords[:{"gq": 2, "gh": 3}[scheme.family]]
    else:
        b = scheme.basis
        keys = [coords[0], *(b.subfield.index(b.decompose_beta(u)[1]) for u in coords[1:])]
    n = 0
    for k in keys:
        n = n * scheme.q + k
    return n


def _scalar_check_polarity(spec, pol, mode, samples, seed):
    """The point-by-point loop check_polarity replaced, kept as its
    reference: the same points, lines, witness and incidence count."""
    ctx = spec.ctx
    m = spec.m
    if mode == "exhaustive":
        points = _all_coords(spec)
    else:
        rng = random.Random(seed)
        points = (tuple(rng.randrange(ctx.order) for _ in range(m)) for _ in range(samples))
        rng2 = random.Random(seed + 1)
    checked = 0
    for p in points:
        l_img = pol.apply_point(ctx, p)
        if _apply_line(pol, ctx, l_img) != p:
            return adg.PolarityCheck(False, mode, True, False, True, checked, ("involution", p))
        if mode == "exhaustive":
            lines = _neighbors_of_point(spec, p)
        else:
            lines = [spec.line_through(p, rng2.randrange(ctx.order))]
        for lv in lines:
            checked += 1
            if not spec.incident(_apply_line(pol, ctx, lv), pol.apply_point(ctx, p)):
                return adg.PolarityCheck(False, mode, True, True, False, checked,
                                         ("adjacency", p, lv))
        # inverse-direction involution, on the polar line
        if pol.apply_point(ctx, _apply_line(pol, ctx, l_img)) != l_img:
            return adg.PolarityCheck(False, mode, True, False, True, checked,
                                     ("involution-line", l_img))
    return adg.PolarityCheck(True, mode, True, True, True, checked, None)


@pytest.mark.parametrize("name", sorted(BROKEN_POLARITIES))
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_check_polarity_bulk_matches_scalar_on_broken_polarity(name, mode):
    build_spec, bad = BROKEN_POLARITIES[name]
    spec = build_spec()
    bulk = check_polarity(spec, bad, mode, 500, 7)
    assert not bulk.ok
    assert bulk == _scalar_check_polarity(spec, bad, mode, 500, 7)


def _late_failure_spec(q, a, b):
    """plane q's equation p_2 + l_2 = p_1 l_1 plus 1 at the one cell p_1 = a,
    l_1 = b^q.  The conjugation polarity maps that cell to p_1 = b,
    l_1 = a^q, so with a != b it fails, and only on incidences through one
    of the two cells: the first failing point has p_1 = min(a, b)."""
    spec, pol = plane_family(q)
    ctx = spec.ctx

    def at(x, c):  # 1 where x == c, else 0
        return sub(adg.const(1), powi(sub(x, adg.const(c)), ctx.order - 1))

    cell = mul(at(var_p(1), a), at(var_l(1), ctx.pow(b, q)))
    return ADGSpec(ctx, 2, (adg.add(spec.fs[0], cell),)), pol


# mode -> (plane q, tampered cell): the first failure lies past point 8 * 81
# (52,000 incidences, past a default block) in exhaustive mode, and at
# sample 169 in sampled mode (seed 0)
LATE_FAILURES = {"exhaustive": (9, (9, 8)), "sampled": (4, (15, 14))}


@pytest.mark.parametrize("mode", sorted(LATE_FAILURES))
def test_check_polarity_is_blind_to_the_block_size(monkeypatch, mode):
    # blocks of 1 point, 7 points and the default give the same check, on
    # the intact polarity and on a tampered spec
    q, cell = LATE_FAILURES[mode]
    intact, tampered = plane_family(q), _late_failure_spec(q, *cell)
    width = intact[0].ctx.order if mode == "exhaustive" else 1
    for spec, pol in (intact, tampered):
        expected = check_polarity(spec, pol, mode, 500, 0)
        for points in (1, 7):
            monkeypatch.setattr(adg, "SWEEP_BLOCK", points * width)
            assert check_polarity(spec, pol, mode, 500, 0) == expected
        monkeypatch.undo()
        assert expected.ok == (spec is intact[0])
    assert expected.witness[0] == "adjacency"
    assert expected.checked_incidences > 7 * width
    if mode == "exhaustive":
        assert expected.checked_incidences > adg.SWEEP_BLOCK


def test_check_polarity_bulk_matches_scalar_on_intact_polarity():
    for make_family in (lambda: plane_family(3), lambda: gq_family(1)):
        spec, pol = make_family()
        for mode in ("exhaustive", "sampled"):
            assert check_polarity(spec, pol, mode, 500, 0) == \
                _scalar_check_polarity(spec, pol, mode, 500, 0)


# name -> (family, twists of a broken polarity)
ABOVE_TABLE_SIDE = {
    "plane q=23": (lambda: plane_family(23), ((0, 1), (1, 0))),  # GF(529)
    "gq e=5": (lambda: gq_family(5), ((0, 1), (2, 2), (1, 1))),  # GF(2048)
}


@pytest.mark.parametrize("name", sorted(ABOVE_TABLE_SIDE))
def test_check_polarity_matches_scalar_above_table_side(name):
    make_family, twists = ABOVE_TABLE_SIDE[name]
    spec, pol = make_family()
    for p, ok in ((pol, True), (PolaritySpec(twists, twists), False)):
        chk = check_polarity(spec, p, "sampled", 300, 3)
        assert chk.ok == ok
        assert chk == _scalar_check_polarity(spec, p, "sampled", 300, 3)


# -- the table certificate: the exhaustive check's result without its sweep --

def _swept(monkeypatch, spec, pol):
    """check_polarity(spec, pol) with the table certificate refused: the
    exhaustive sweep's result."""
    with monkeypatch.context() as patch:
        patch.setattr(adg, "_table_certificate", lambda spec, pol: False)
        return check_polarity(spec, pol)


# every family instance up to plane q=9, gq e=1 and gh e=0
CERTIFIED_FAMILIES = {
    **{f"plane q={q}": functools.partial(plane_family, q) for q in (2, 3, 4, 5, 7, 8, 9)},
    **{f"gq e={e}": functools.partial(gq_family, e, allow_small_e=True) for e in (0, 1)},
    "gh e=0": functools.partial(gh_family, 0, allow_small_e=True),
}


@pytest.mark.parametrize("name", sorted(CERTIFIED_FAMILIES))
def test_the_certificate_passes_every_family_as_the_sweep_does(monkeypatch, name):
    spec, pol = CERTIFIED_FAMILIES[name]()
    assert adg._table_certificate(spec, pol)
    chk = check_polarity(spec, pol)
    assert chk.ok and chk.checked_incidences == spec.side_size * spec.ctx.order
    assert chk == _swept(monkeypatch, spec, pol)


def _random_polarities(count, seed):
    """(spec, polarity) pairs, `count` seeded draws on the small families:
    half the family's own polarity with one or two entries redrawn (the
    source kept half the time), half a random permutation of coordinates
    1..m-1, alike on both sides, behind coordinate 0.  Twists run below 2k,
    so some name a map the family's twist names (Frob^k is the identity)."""
    rng = random.Random(seed)
    names = ["plane q=2", "plane q=3", "plane q=4", "gq e=0", "gq e=1", "gh e=0"]
    for _ in range(count):
        spec, pol = CERTIFIED_FAMILIES[rng.choice(names)]()
        m, k = spec.m, spec.ctx.k
        if rng.random() < 0.5:
            sides = [list(pol.point_to_line), list(pol.line_to_point)]
            for _ in range(rng.randint(1, 2)):
                side, i = rng.choice(sides), rng.randrange(m)
                side[i] = (side[i][0] if rng.random() < 0.5 else rng.randrange(m), rng.randrange(2 * k))
        else:
            rest = [(c, rng.randrange(2 * k)) for c in rng.sample(range(1, m), m - 1)]
            sides = [[(0, rng.randrange(2 * k))] + rest, [(0, rng.randrange(2 * k))] + rest]
        yield spec, PolaritySpec(*map(tuple, sides))


def test_the_certificate_agrees_with_the_sweep_on_random_polarities(monkeypatch):
    """On 300 seeded polarities check_polarity returns the sweep's result,
    witness included; the certificate never passes a polarity the sweep
    fails, and passes every one the sweep passes inside its shape (each
    family spec's equations read only p_1 and l_1)."""
    verdicts = []
    for spec, pol in _random_polarities(300, 20231117):
        swept = _swept(monkeypatch, spec, pol)
        assert check_polarity(spec, pol) == swept, pol
        (a, *ptl), (b, *ltp) = pol.point_to_line, pol.line_to_point
        in_shape = a[0] == b[0] == 0 and ptl == ltp and all(c >= 1 for c, _ in ptl)
        certified = adg._table_certificate(spec, pol)
        assert certified == (swept.ok and in_shape), pol
        verdicts.append((certified, swept.ok))
    counts = {v: verdicts.count(v) for v in set(verdicts)}
    assert counts[True, True] >= 20 and counts[False, False] >= 150 and counts[False, True] >= 5, counts


def _tampered_f(monkeypatch, fold):
    """gq e=1 with F_1[3, 5] flipped: read by the sweep's solves only
    without the S tables (fold 0); the certificate holds F to the spec."""
    monkeypatch.setattr(adg, "FOLD_BUDGET", fold)
    spec, pol = gq_family(1)  # fresh: tables() is cached on the spec
    F = spec.tables()[1][2]
    F[3, 5] = (F[3, 5] + 1) % spec.ctx.order
    return spec, pol


def _gf9_m4():
    """The GF(9), m=4 spec f_{j+1} = p_j l_j, with its conjugation polarity."""
    spec = ADGSpec(make_field(3, 2), 4, tuple(mul(var_p(i), var_l(i)) for i in (1, 2, 3)))
    return spec, generic_conjugation_polarity(spec)


def _twisted(family, side, entry, shift):
    """The family's polarity with one side's twist at `entry` moved."""
    spec, pol = family()
    sides = [list(pol.point_to_line), list(pol.line_to_point)]
    src, twist = sides[side][entry]
    sides[side][entry] = (src, twist + shift)
    return spec, PolaritySpec(*map(tuple, sides))


# name -> (build(monkeypatch) -> (spec, polarity), whether the sweep passes):
# each fails the certificate, and check_polarity returns the sweep's result
CERTIFICATE_REFUSALS = {
    "F entry flipped, solved by F": (lambda mp: _tampered_f(mp, 0), False),
    "F entry flipped, solved by S": (lambda mp: _tampered_f(mp, adg.FOLD_BUDGET), True),
    "wrong twist a (plane q=3)": (lambda mp: _twisted(lambda: plane_family(3), 0, 0, 1), False),
    "wrong twist b (gq e=1)": (lambda mp: _twisted(lambda: gq_family(1), 1, 0, 1), False),
    "wrong twist a (gq e=1)": (lambda mp: _twisted(lambda: gq_family(1), 0, 0, 2), False),
    # adjacency kept and only the involution broken: Frob^2 is not the
    # identity on GF(16); a 3-cycle of coordinates, where every f is p_1 l_1
    "twists squaring to Frob^2 (plane q=4)": (lambda mp: (
        plane_family(4)[0], PolaritySpec(*[((0, 1), (1, 1))] * 2)), False),
    "a 3-cycle of coordinates (GF(4), m=4, every f = p_1 l_1)": (lambda mp: (
        ADGSpec(make_field(2, 2), 4, (mul(var_p(1), var_l(1)),) * 3),
        PolaritySpec(*[((0, 0), (2, 0), (3, 0), (1, 0))] * 2)), False),
    "outside the shape: line_to_point[1]'s twist + k names the same map": (
        lambda mp: _twisted(lambda: gq_family(1), 1, 1, 3), True),
    "outside the shape: coordinate 0 from coordinate 1": (lambda mp: (
        plane_family(3)[0], PolaritySpec(*[((1, 1), (0, 1))] * 2)), False),
    "adjacency broken: the identity on gh e=0": (lambda mp: (
        gh_family(0, allow_small_e=True)[0], PolaritySpec(*[tuple((i, 0) for i in range(5))] * 2)), False),
    "outside the shape: equations reading p_2 (GF(9), m=4)": (lambda mp: _gf9_m4(), True),
    "TABLE_BUDGET 0: no tables": (lambda mp: mp.setattr(adg, "TABLE_BUDGET", 0) or plane_family(3), True),
}


@pytest.mark.parametrize("name", sorted(CERTIFICATE_REFUSALS))
def test_a_refused_certificate_leaves_the_sweep_result(monkeypatch, name):
    build, sweep_ok = CERTIFICATE_REFUSALS[name]
    spec, pol = build(monkeypatch)
    assert not adg._table_certificate(spec, pol)
    swept = _swept(monkeypatch, spec, pol)
    assert swept.ok == sweep_ok and (swept.witness is None) == sweep_ok
    assert check_polarity(spec, pol) == swept


@pytest.mark.parametrize("entries", [[(0, 0)], [(1, 0)], [(0, 1), (1, 1)]],
                         ids=["point_to_line[0]", "line_to_point[0]", "entry 1 of both"])
def test_a_negative_twist_raises_as_the_sweep_does(monkeypatch, entries):
    """(side, entry) pairs twisted by -1: the polarity stays inside the
    certificate's shape only when entry 1 of both sides moves."""
    spec, pol = gq_family(1)
    sides = [list(pol.point_to_line), list(pol.line_to_point)]
    for side, entry in entries:
        sides[side][entry] = (sides[side][entry][0], -1)
    bad = PolaritySpec(*map(tuple, sides))
    for check in (check_polarity, functools.partial(_swept, monkeypatch)):
        with pytest.raises(ValueError, match="frobenius exponent must be >= 0"):
            check(spec, bad)


# -- bulk replay of random.Random's randrange --------------------------------

REPLAY_BOUNDS = [1, 2, 3, 26, 27, 729, 19683, 2 ** 31, 2 ** 32 - 1]  # bit lengths 1..32
REPLAY_MIXED = [(19683, 729), (1, 2 ** 32 - 1, 7)]  # one call per bound a sample


def _generator(seed, gauss):
    """random.Random(seed), with gauss_next set by one gauss() call."""
    rng = random.Random(seed)
    if gauss:
        rng.gauss(0.0, 1.0)
        assert rng.getstate()[2] is not None
    return rng


@pytest.mark.parametrize("seed", [0, 1, 20231117])
def test_randrange_bulk_replays_random(seed):
    for gauss, n in itertools.product((False, True), REPLAY_BOUNDS + REPLAY_MIXED):
        bounds = n if isinstance(n, tuple) else (n,)
        # 70,000 draws at 27 and 19,683 read words past one draw block
        for count in (0, 1, 7, 5000) + ((70_000,) if n in (27, 19683) else ()):
            rng, ref = _generator(seed, gauss), _generator(seed, gauss)
            values = adg.randrange_bulk(rng, bounds, count)
            assert values.dtype == np.int64 and values.shape == (count, len(bounds))
            assert values.ravel().tolist() == [ref.randrange(b) for _ in range(count)
                                               for b in bounds]
            assert rng.getstate() == ref.getstate()


def test_randrange_bulk_peak_is_its_result():
    """No array as long as the draws besides the result: the traced peak
    of a 500,000-draw call stays under twice the result's bytes."""
    adg.randrange_bulk(random.Random(0), (27,), 1)  # imports numpy.random
    tracemalloc.start()
    try:
        values = adg.randrange_bulk(random.Random(0), (27,) * 5, 100_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * values.nbytes, (peak, values.nbytes)


@pytest.mark.parametrize("size", [1, 7, 4096])
def test_sample_blocks_draw_the_one_call_samples(size):
    """Blocks of `size` samples concatenate to randrange_bulk's matrix, and
    rng ends where that call leaves it (70,000 draws of 27 read past one
    round of words)."""
    for bounds in ((27,), (27,) * 5, (19683, 729), (5, 3), (1, 2 ** 32 - 1, 7)):
        for count in (0, 1, 7, 500) + ((5000, 70_000) if size > 7 and bounds == (27,) else ()):
            rng, ref = random.Random(count), random.Random(count)
            blocks = list(adg.sample_blocks(rng, bounds, count, size))
            assert [len(b) for b in blocks] == [min(size, count - lo)
                                                for lo in range(0, count, size)]
            expected = adg.randrange_bulk(ref, bounds, count)
            assert np.concatenate(blocks or [expected]).tolist() == expected.tolist()
            assert rng.getstate() == ref.getstate()


def test_sample_blocks_interleave_with_each_other():
    """Two draws in progress at once (sampled check_polarity's points and
    lines) each read their own generator's words, block by block."""
    draws = [adg.sample_blocks(random.Random(seed), bounds, 1000, 64)
             for seed, bounds in ((0, (27,) * 5), (1, (27,)))]
    blocks = list(zip(*draws))
    for seed, bounds, got in zip((0, 1), ((27,) * 5, (27,)), zip(*blocks)):
        assert np.concatenate(got).tolist() == \
            adg.randrange_bulk(random.Random(seed), bounds, 1000).tolist()


@pytest.mark.parametrize("samples", [-1, 2.5, "100"])
def test_check_polarity_refuses_a_bad_sample_count(samples):
    spec, pol = gh_family(0, allow_small_e=True)
    with pytest.raises(ValueError, match="samples must be a non-negative integer"):
        check_polarity(spec, pol, "sampled", samples)


def test_randrange_bulk_rejects_bounds_past_32_bits():
    for n in ((0,), (-3,), (2 ** 32,), (2 ** 32 + 1,), (2 ** 40,), (27, 2 ** 32), (0, 5),
              (7, 729, -1)):
        rng = random.Random(0)
        state = rng.getstate()
        with pytest.raises(ValueError):
            adg.randrange_bulk(rng, n, 5)
        assert rng.getstate() == state
