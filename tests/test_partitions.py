"""Closed-form partitions: class shapes, unique edges against exhaustive
cross-part scans, loop vertices, and the general constructions."""

import random

import numpy as np
import pytest

from polarpart import adg, partitions
from polarpart.adg import (
    ADGSpec, add, build_polarity_graph, gh_adjacency_spec, gh_family, gq_family, mul,
    plane_family, powi, var_l, var_p,
)
from polarpart.gf import find_normal_element, make_field
from polarpart.graphs import pair_edge_matrix
from polarpart.partitions import (
    GHScheme, GQScheme, GeneralPolarityScheme, PlaneScheme,
    general_even_partition, general_odd_partition, general_polarity_partition,
    is_point_line_symmetric, scheme_partition,
)
from polarpart.verify import family_bundle, verdict
from test_adg import (
    _absolute_points, _all_coords, _class_of_coords, _coords_to_id, _id_to_coords, _recompose_mu,
)


def brute_force_cross_edges(g, spec, scheme, cid1, cid2):
    """All edges between two classes by scanning every member pair."""
    found = []
    for a in scheme.class_members(cid1):
        for b in scheme.class_members(cid2):
            ida, idb = _coords_to_id(spec, a), _coords_to_id(spec, b)
            if ida != idb and idb in g.adj[ida]:
                found.append((a, b))
    return found


# -- plane --------------------------------------------------------------------

def test_plane_partition_shapes():
    for q, classes in ((2, 8), (3, 27)):
        spec, pol = plane_family(q)
        scheme = PlaneScheme(spec.ctx)
        part = scheme_partition(scheme, spec)
        assert part.r == classes
        assert part.class_sizes() == [q] * classes


def test_plane_class_of_pure_beta_q_vertex():
    spec, _ = plane_family(2)
    scheme = PlaneScheme(spec.ctx)
    b = scheme.basis
    for x in range(spec.ctx.order):
        for y in b.subfield:
            u = b.recompose_beta(0, y)  # a = 0
            cid = _class_of_coords(scheme, (x, u))
            assert scheme.class_key(cid) == (x, y)


def test_plane_loop_vertex_zero_class():
    spec, _ = plane_family(2)
    scheme = PlaneScheme(spec.ctx)
    cid = _class_of_coords(scheme, (0, 0))
    assert scheme.class_key(cid) == (0, 0)
    assert scheme.loop_vertex(cid) == (0, 0)
    assert scheme.unique_edge(cid, cid) == (0, 0)


def test_plane_unique_edge_matches_exhaustive_scan():
    for q in (2, 3):
        spec, pol = plane_family(q)
        scheme = PlaneScheme(spec.ctx)
        pg = build_polarity_graph(spec, pol)
        g = pg.graph(10 ** 5)
        for cid1 in range(scheme.r):
            for cid2 in range(scheme.r):
                if cid1 == cid2:
                    continue
                edge = scheme.unique_edge(cid1, cid2)
                scan = brute_force_cross_edges(g, spec, scheme, cid1, cid2)
                assert scan == [edge], (cid1, cid2)


def test_plane_unique_edge_endpoint_membership():
    spec, _ = plane_family(3)
    scheme = PlaneScheme(spec.ctx)
    rng = random.Random(0)
    for _ in range(200):
        c1, c2 = rng.randrange(scheme.r), rng.randrange(scheme.r)
        if c1 == c2:
            continue
        a, b = scheme.unique_edge(c1, c2)
        assert _class_of_coords(scheme, a) == c1
        assert _class_of_coords(scheme, b) == c2


def test_plane_loops_one_per_class():
    spec, pol = plane_family(3)
    scheme = PlaneScheme(spec.ctx)
    pg = build_polarity_graph(spec, pol)
    g = pg.graph(10 ** 5)
    part = scheme_partition(scheme, spec)
    assert pair_edge_matrix(g, part, 20)[3].tolist() == [1] * scheme.r
    for cid in range(scheme.r):
        lv = scheme.loop_vertex(cid)
        assert _coords_to_id(spec, lv) in g.loops


# -- gq -----------------------------------------------------------------------

def test_gq_partition_shapes():
    spec, _ = gq_family(1)
    scheme = GQScheme(spec.ctx, 1)
    part = scheme_partition(scheme, spec)
    assert part.r == 64
    assert part.class_sizes() == [8] * 64


def test_gq_zero_loop_vertex():
    spec, _ = gq_family(1)
    scheme = GQScheme(spec.ctx, 1)
    assert scheme.unique_edge(0, 0) == (0, 0, 0)


def test_gq_unique_edge_matches_exhaustive_scan():
    spec, pol = gq_family(1)
    scheme = GQScheme(spec.ctx, 1)
    pg = build_polarity_graph(spec, pol)
    g = pg.graph(10 ** 5)
    rng = random.Random(1)
    pairs = {(rng.randrange(64), rng.randrange(64)) for _ in range(120)}
    for cid1, cid2 in pairs:
        if cid1 == cid2:
            continue
        edge = scheme.unique_edge(cid1, cid2)
        scan = brute_force_cross_edges(g, spec, scheme, cid1, cid2)
        assert scan == [edge]


def test_gq_loop_vertices_are_the_absolute_points():
    spec, pol = gq_family(1)
    scheme = GQScheme(spec.ctx, 1)
    pg = build_polarity_graph(spec, pol)
    loops = {scheme.loop_vertex(cid) for cid in range(scheme.r)}
    assert loops == set(_absolute_points(pg))


# -- gh -----------------------------------------------------------------------

def test_gh_partition_shapes_small():
    spec, _ = gh_family(0, allow_small_e=True)
    scheme = GHScheme(spec.ctx, 0)
    part = scheme_partition(scheme, spec)
    assert part.r == 27
    assert part.class_sizes() == [9] * 27


def test_gh_zero_loop_vertex():
    spec, _ = gh_family(1)
    scheme = GHScheme(spec.ctx, 1)
    assert scheme.unique_edge(0, 0) == (0, 0, 0, 0, 0)


def test_gh_loop_vertex_collapse():
    # the same-class solution has c = a and d = b
    spec, _ = gh_family(1)
    ctx = spec.ctx
    scheme = GHScheme(ctx, 1)
    rng = random.Random(2)
    fe1 = ctx.frob_table(2)
    for _ in range(300):
        cid = rng.randrange(scheme.r)
        p1, p2, p3 = scheme.class_key(cid)
        t = fe1[p1]
        a = ctx.sub(ctx.mul(ctx.pow(p1, 3), t), fe1[p2])
        b = ctx.sub(ctx.mul(ctx.pow(p1, 3), ctx.mul(t, t)), fe1[p3])
        c = fe1[ctx.sub(ctx.mul(p1, t), p2)]
        d = fe1[ctx.sub(ctx.mul(ctx.mul(p1, p1), t), p3)]
        assert (c, d) == (a, b)
        assert scheme.loop_vertex(cid) == (p1, p2, p3, a, b)


def test_gh_unique_edge_matches_exhaustive_scan_small():
    spec, pol = gh_family(0, allow_small_e=True)
    scheme = GHScheme(spec.ctx, 0)
    pg = build_polarity_graph(spec, pol)
    g = pg.graph(10 ** 5)
    for cid1 in range(scheme.r):
        for cid2 in range(scheme.r):
            if cid1 == cid2:
                continue
            edge = scheme.unique_edge(cid1, cid2)
            scan = brute_force_cross_edges(g, spec, scheme, cid1, cid2)
            assert scan == [edge]


def test_gh_unique_edge_is_edge_at_q27():
    spec, pol = gh_family(1)
    ctx = spec.ctx
    scheme = GHScheme(ctx, 1)
    pg = adg.PolarityGraph(spec, pol)
    rng = random.Random(3)
    for _ in range(1000):
        c1, c2 = rng.randrange(scheme.r), rng.randrange(scheme.r)
        if c1 == c2:
            continue
        a, b = scheme.unique_edge(c1, c2)
        assert _class_of_coords(scheme, a) == c1
        assert _class_of_coords(scheme, b) == c2
        lv = pol.apply_point(ctx, a)
        assert spec.incident(b, lv)
        assert b in pg.neighbors_coords(a)


# -- symmetry -----------------------------------------------------------------

def test_symmetry_bilinear():
    ctx = make_field(2, 2)
    spec = ADGSpec(ctx, 2, (mul(var_p(1), var_l(1)),))
    ok, witness = is_point_line_symmetric(spec)
    assert ok and witness is None


def test_symmetry_violation_witness():
    ctx = make_field(2, 2)
    spec = ADGSpec(ctx, 2, (mul(powi(var_l(1), 2), var_p(1)),))
    ok, witness = is_point_line_symmetric(spec)
    assert not ok
    j, lv, pv = witness
    assert j == 2
    fn = spec.compiled()[0]
    assert fn(lv, pv) != fn(pv, lv)


def test_gh_system_is_not_point_line_symmetric():
    spec, _ = gh_family(0, allow_small_e=True)
    ok, witness = is_point_line_symmetric(spec)
    assert not ok
    assert witness[0] == 3  # f_3 = p1^2 l1 already breaks the swap


def _reference_is_point_line_symmetric(spec, seed=0):
    """The scalar loop is_point_line_symmetric replaced, kept as its
    reference: the compiled closures over each domain tuple, digits lowest
    first, or over samples drawn one randrange at a time."""
    q = spec.ctx.order
    for i, fn in enumerate(spec.compiled()):
        nargs = i + 1
        domain = q ** (2 * nargs)
        if domain <= partitions.SYMMETRY_EXHAUSTIVE_LIMIT:
            def decode(t):
                vals = []
                for _ in range(2 * nargs):
                    vals.append(t % q)
                    t //= q
                return tuple(vals[:nargs]), tuple(vals[nargs:])

            candidates = (decode(t) for t in range(domain))
        else:
            rng = random.Random(seed)
            candidates = ((tuple(rng.randrange(q) for _ in range(nargs)),
                           tuple(rng.randrange(q) for _ in range(nargs)))
                          for _ in range(partitions.SYMMETRY_SAMPLES))
        for lv, pv in candidates:
            if fn(lv, pv) != fn(pv, lv):
                return False, (i + 2, lv, pv)
    return True, None


GF9 = make_field(3, 2)
SYMMETRY_SPECS = {
    # the CI spec: f_{j+1} = p_j l_j at GF(9), m = 4 (f_4's domain 9^6)
    "diagonal GF(9) m=4": (True, lambda: ADGSpec(GF9, 4, tuple(
        mul(var_p(j), var_l(j)) for j in (1, 2, 3)))),
    "bilinear GF(4) m=2": (True, lambda: ADGSpec(make_field(2, 2), 2, (mul(var_p(1), var_l(1)),))),
    # only f_4 breaks the swap: p_3 l_3 + p_1 l_2^2
    "cross term GF(9) m=4": (False, lambda: ADGSpec(GF9, 4, (
        mul(var_p(1), var_l(1)), mul(var_p(2), var_l(2)),
        add(mul(var_p(3), var_l(3)), mul(var_p(1), powi(var_l(2), 2)))))),
    "gh q=27": (False, lambda: gh_adjacency_spec(27)),
}


@pytest.mark.parametrize("domain", ["exhaustive", "sampled"])
@pytest.mark.parametrize("name", sorted(SYMMETRY_SPECS))
def test_symmetry_matches_the_scalar_reference(monkeypatch, name, domain):
    symmetric, make_spec = SYMMETRY_SPECS[name]
    spec = make_spec()
    if domain == "sampled":
        monkeypatch.setattr(partitions, "SYMMETRY_EXHAUSTIVE_LIMIT", 0)
        monkeypatch.setattr(partitions, "SYMMETRY_SAMPLES", 20_000)
    for seed in (0, 7) if domain == "sampled" else (0,):
        expected = _reference_is_point_line_symmetric(spec, seed)
        assert expected[0] is symmetric
        assert is_point_line_symmetric(spec, seed) == expected


# -- general constructions ------------------------------------------------------

def toy_odd_spec():
    ctx = make_field(2, 1)
    return ADGSpec(ctx, 3, (mul(var_p(1), var_l(1)), mul(powi(var_p(1), 2), var_l(1))))


def test_general_odd_toy_exhaustive():
    spec = toy_odd_spec()
    part, r = general_odd_partition(spec)
    assert r == 4
    g = spec.incidence_graph(10 ** 4)
    verd, witnesses, mat = verdict(g, part)
    assert verd["complete"]
    assert part.class_sizes() == [4] * 4


def test_general_odd_gq_spec():
    spec, _ = gq_family(1)
    part, r = general_odd_partition(spec)
    assert r == 64
    assert part.class_sizes() == [16] * 64
    g = spec.incidence_graph(10 ** 5)
    verd, _, _ = verdict(g, part)
    assert verd["complete"]


def test_general_odd_pairing_validation():
    spec = toy_odd_spec()
    with pytest.raises(ValueError):
        general_odd_partition(spec, pairing=[0, 0, 1, 2])


def test_general_odd_nontrivial_pairing():
    spec = toy_odd_spec()
    part, r = general_odd_partition(spec, pairing=[3, 2, 1, 0])
    g = spec.incidence_graph(10 ** 4)
    assert verdict(g, part)[0]["complete"]


def test_general_odd_rejects_even_m():
    ctx = make_field(2, 2)
    spec = ADGSpec(ctx, 2, (mul(var_p(1), var_l(1)),))
    with pytest.raises(ValueError):
        general_odd_partition(spec)


def test_general_even_m2():
    for p, expected_r in ((2, 8), (3, 27)):
        ctx = make_field(p, 2)
        spec = ADGSpec(ctx, 2, (mul(var_p(1), var_l(1)),))
        part, r, basis = general_even_partition(spec)
        assert r == expected_r
        g = spec.incidence_graph(10 ** 4)
        verd, _, _ = verdict(g, part)
        assert verd["complete"]


def test_mu_split_round_trip():
    ctx = make_field(3, 2)
    basis = find_normal_element(ctx)
    for u in range(ctx.order):
        s, t = basis.decompose_mu(u)
        assert _recompose_mu(basis, s, t) == u


def test_general_polarity_matches_plane_partition():
    spec, pol = plane_family(2)
    part_gen, scheme_gen = general_polarity_partition(spec)
    scheme_plane = PlaneScheme(spec.ctx)
    part_plane = scheme_partition(scheme_plane, spec)
    # same classes as vertex sets, up to relabeling
    def class_sets(part):
        groups = {}
        for v, c in enumerate(part.class_of):
            groups.setdefault(c, set()).add(v)
        return {frozenset(s) for s in groups.values()}
    assert class_sets(part_gen) == class_sets(part_plane)


def test_general_polarity_m4_toy():
    ctx = make_field(2, 2)
    spec = ADGSpec(ctx, 4, (
        mul(var_p(1), var_l(1)),
        mul(var_p(2), var_l(2)),
        mul(var_p(3), var_l(3)),
    ))
    pol = adg.generic_conjugation_polarity(spec)
    pg = build_polarity_graph(spec, pol)
    g = pg.graph(10 ** 4)
    part, scheme = general_polarity_partition(spec)
    assert scheme.r == 32
    assert part.class_sizes() == [8] * 32
    verd, _, _ = verdict(g, part)
    assert verd["optimally_complete"]


def test_general_polarity_rejects_asymmetric():
    ctx = make_field(2, 2)
    spec = ADGSpec(ctx, 2, (mul(powi(var_l(1), 2), var_p(1)),))
    with pytest.raises(ValueError):
        general_polarity_partition(spec)


# -- the general constructions' class arrays against the per-vertex loops ------

def _mixed_radix(coords, base):
    n = 0
    for c in coords:
        n = n * base + c
    return n


def _reference_odd_classes(spec, pairing=None):
    """The per-vertex loops general_odd_partition replaced, kept as its
    oracle: the class of every bipartite id, points first."""
    m, q = spec.m, spec.ctx.order
    r = q ** ((m + 1) // 2)
    point_idx = tuple(range(0, m, 2))        # p_1, p_3, ..., p_m
    line_idx = (0,) + tuple(range(1, m - 1, 2))  # l_1, l_2, l_4, ..., l_{m-1}
    inverse = [0] * r
    for pk, lk in enumerate(pairing or range(r)):
        inverse[lk] = pk
    ns = spec.side_size
    class_of = [0] * (2 * ns)
    for v in range(ns):
        coords = _id_to_coords(spec, v)
        class_of[v] = _mixed_radix([coords[i] for i in point_idx], q)
        class_of[ns + v] = inverse[_mixed_radix([coords[i] for i in line_idx], q)]
    return class_of


def _reference_even_classes(spec):
    """The per-vertex loops general_even_partition replaced, with the
    {1, mu} split found by search over the subfield pairs."""
    m, ctx = spec.m, spec.ctx
    basis = find_normal_element(ctx)
    q = basis.q
    split = {_recompose_mu(basis, s, t): (s, t) for s in basis.subfield for t in basis.subfield}
    point_idx = tuple(range(0, m - 1, 2))       # p_1, p_3, ..., p_{m-1}
    line_idx = (0,) + tuple(range(1, m - 2, 2))  # l_1, l_2, ..., l_{m-2}
    ns = spec.side_size
    class_of = [0] * (2 * ns)
    for v in range(ns):
        coords = _id_to_coords(spec, v)
        s, t = split[coords[m - 1]]
        point = _mixed_radix([coords[i] for i in point_idx], ctx.order)
        line = _mixed_radix([coords[i] for i in line_idx], ctx.order)
        class_of[v] = point * q + basis.subfield.index(s)
        class_of[ns + v] = line * q + basis.subfield.index(t)
    return class_of


def _even_spec(p, m):
    ctx = make_field(p, 2)
    return ADGSpec(ctx, m, tuple(mul(var_p(j), var_l(j)) for j in range(1, m)))


GENERAL_CASES = {
    "odd toy": lambda: (general_odd_partition(toy_odd_spec())[0],
                        _reference_odd_classes(toy_odd_spec())),
    "odd toy paired": lambda: (general_odd_partition(toy_odd_spec(), [3, 2, 1, 0])[0],
                               _reference_odd_classes(toy_odd_spec(), [3, 2, 1, 0])),
    "odd gq e=1": lambda: (general_odd_partition(gq_family(1)[0])[0],
                           _reference_odd_classes(gq_family(1)[0])),
    "even GF(4) m=2": lambda: (general_even_partition(_even_spec(2, 2))[0],
                               _reference_even_classes(_even_spec(2, 2))),
    "even GF(9) m=2": lambda: (general_even_partition(_even_spec(3, 2))[0],
                               _reference_even_classes(_even_spec(3, 2))),
    "even GF(4) m=4": lambda: (general_even_partition(_even_spec(2, 4))[0],
                               _reference_even_classes(_even_spec(2, 4))),
}


@pytest.mark.parametrize("name", sorted(GENERAL_CASES))
def test_general_class_arrays_match_the_per_vertex_loops(name):
    part, expected = GENERAL_CASES[name]()
    assert part.class_of.dtype == np.int64
    assert part.class_of.tolist() == expected


def test_mu_split_takes_arrays():
    for p in (2, 3):
        basis = find_normal_element(make_field(p, 2))
        u = np.arange(basis.ctx.order)
        s, t = basis.decompose_mu(u)
        assert [basis.decompose_mu(int(x)) for x in u] == list(zip(s.tolist(), t.tolist()))
        assert [_recompose_mu(basis, int(a), int(b)) for a, b in zip(s, t)] == u.tolist()


# -- bulk forms against the scalar formulas ---------------------------------------

def _scheme(family, **kwargs):
    spec, _, scheme, _ = family_bundle(family, **kwargs)
    return spec, scheme


BULK_SCHEMES = {
    "plane q=2": lambda: _scheme("plane", q=2),
    "plane q=3": lambda: _scheme("plane", q=3),
    "plane q=4": lambda: _scheme("plane", q=4),
    "plane q=5": lambda: _scheme("plane", q=5),
    "gq e=1": lambda: _scheme("gq", e=1),
    "gh e=0": lambda: _scheme("gh", e=0, allow_small_e=True),
}


def _ids(spec, vertices):
    return [_coords_to_id(spec, v) for v in vertices]


def _assert_bulk_matches_scalar(spec, scheme, ids, cids, c1, c2):
    assert scheme.class_of_ids(ids).tolist() == [
        _class_of_coords(scheme, _id_to_coords(spec, v)) for v in ids.tolist()]
    assert scheme.class_member_bulk(cids[:, None], np.arange(scheme.class_size)).tolist() == [
        _ids(spec, scheme.class_members(c)) for c in cids.tolist()]
    picks = (cids * 7 + 3) % scheme.class_size
    assert scheme.class_member_bulk(cids, picks).tolist() == [
        _coords_to_id(spec, scheme.class_members(c)[i])
        for c, i in zip(cids.tolist(), picks.tolist())]
    assert scheme.loop_vertex_bulk(cids).tolist() == _ids(
        spec, [scheme.unique_edge(c, c) for c in cids.tolist()])
    a, b = scheme.unique_edge_bulk(c1, c2)
    edges = [scheme.unique_edge(x, y) for x, y in zip(c1.tolist(), c2.tolist())]
    assert a.tolist() == _ids(spec, [e[0] for e in edges])
    assert b.tolist() == _ids(spec, [e[1] for e in edges])


@pytest.mark.parametrize("name", sorted(BULK_SCHEMES))
def test_bulk_forms_match_scalar_on_every_pair(name):
    spec, scheme = BULK_SCHEMES[name]()
    c1, c2 = np.nonzero(~np.eye(scheme.r, dtype=bool))  # every ordered pair c1 != c2
    _assert_bulk_matches_scalar(spec, scheme, np.arange(spec.side_size),
                                np.arange(scheme.r), c1, c2)


@pytest.mark.parametrize("name", sorted(BULK_SCHEMES))
def test_bulk_forms_keep_int32_ids_below_2_31(name):
    """int32 ids stay int32 while n < 2^31 and name the int64 input's ids,
    over every class pair, class and vertex."""
    spec, scheme = BULK_SCHEMES[name]()
    c1, c2 = np.nonzero(~np.eye(scheme.r, dtype=bool))
    cases = ((lambda a, b: scheme.unique_edge_bulk(a, b), (c1, c2)),
             (lambda c: (scheme.loop_vertex_bulk(c),), (np.arange(scheme.r),)),
             (lambda v: (scheme.class_of_ids(v),), (np.arange(spec.side_size),)))
    for form, args in cases:
        wide = form(*(x.astype(np.int64) for x in args))
        narrow = form(*(x.astype(np.int32) for x in args))
        for w, n in zip(wide, narrow):
            assert w.dtype == np.int64 and n.dtype == np.int32
            assert np.array_equal(w, n)


def test_bulk_forms_widen_ids_past_2_31():
    """gh e=2 has n = 243^5 > 2^31 ids: int64 and int32 class ids alike give
    int64 ids, equal to the scalar forms on 300 seeded pairs."""
    spec, scheme = _scheme("gh", e=2)
    assert scheme.r * scheme.class_size == spec.side_size == 243 ** 5 > 2 ** 31
    rng = np.random.default_rng(11)
    c1, c2 = rng.integers(0, scheme.r, size=(2, 300))
    c2 = np.where(c1 == c2, (c2 + 1) % scheme.r, c2)
    edges = [scheme.unique_edge(x, y) for x, y in zip(c1.tolist(), c2.tolist())]
    loops = _ids(spec, [scheme.loop_vertex(c) for c in c1.tolist()])
    for dtype in (np.int64, np.int32):
        a, b = scheme.unique_edge_bulk(c1.astype(dtype), c2.astype(dtype))
        lv = scheme.loop_vertex_bulk(c1.astype(dtype))
        assert a.dtype == b.dtype == lv.dtype == np.int64
        assert a.tolist() == _ids(spec, [e[0] for e in edges])
        assert b.tolist() == _ids(spec, [e[1] for e in edges])
        assert lv.tolist() == loops
        assert scheme.class_of_ids(a).tolist() == scheme.class_of_ids(lv).tolist() == c1.tolist()
    assert max(a.max(), b.max()) >= 2 ** 31  # ids an int32 path would wrap


def _assert_bulk_matches_scalar_on_samples(spec, scheme, pairs, ids, classes):
    rng = np.random.default_rng(5)
    c1, c2 = rng.integers(0, scheme.r, size=(2, pairs))
    c2 = np.where(c1 == c2, (c2 + 1) % scheme.r, c2)
    _assert_bulk_matches_scalar(spec, scheme, rng.integers(0, spec.side_size, size=ids),
                                rng.integers(0, scheme.r, size=classes), c1, c2)


def test_bulk_forms_match_scalar_on_sampled_gh_pairs():
    _assert_bulk_matches_scalar_on_samples(*_scheme("gh", e=1), 20_000, 5000, 500)


ABOVE_TABLE_SIDE = {
    "plane q=23": lambda: _scheme("plane", q=23),  # GF(529): two digit blocks
    "gq e=5": lambda: _scheme("gq", e=5),  # GF(2048)
}


@pytest.mark.parametrize("name", sorted(ABOVE_TABLE_SIDE))
def test_bulk_forms_match_scalar_above_table_side(name):
    _assert_bulk_matches_scalar_on_samples(*ABOVE_TABLE_SIDE[name](), 2000, 1000, 20)


def _assert_diagonal_is_the_loop_vertex(spec, scheme, cids):
    """unique_edge_bulk(c, c) gives the scalar loop_vertex(c) at both ends,
    from int32 and int64 class ids alike."""
    loops = _ids(spec, [scheme.loop_vertex(c) for c in cids.tolist()])
    for dtype in (np.int32, np.int64):
        a, b = scheme.unique_edge_bulk(cids.astype(dtype), cids.astype(dtype))
        assert a.tolist() == b.tolist() == loops


@pytest.mark.parametrize("name", sorted(BULK_SCHEMES))
def test_the_unique_edge_diagonal_is_the_loop_vertex(name):
    spec, scheme = BULK_SCHEMES[name]()
    _assert_diagonal_is_the_loop_vertex(spec, scheme, np.arange(scheme.r))


@pytest.mark.parametrize("name", sorted(ABOVE_TABLE_SIDE))
def test_the_unique_edge_diagonal_is_the_loop_vertex_above_table_side(name):
    spec, scheme = ABOVE_TABLE_SIDE[name]()
    cids = np.random.default_rng(5).integers(0, scheme.r, size=2000)
    _assert_diagonal_is_the_loop_vertex(spec, scheme, cids)


def test_the_unique_edge_diagonal_is_the_loop_vertex_past_2_31():
    spec, scheme = _scheme("gh", e=2)
    cids = np.random.default_rng(11).integers(0, scheme.r, size=300)
    _assert_diagonal_is_the_loop_vertex(spec, scheme, cids)
    assert scheme.unique_edge_bulk(cids.astype(np.int32), cids.astype(np.int32))[0].dtype == np.int64


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_the_plane_scheme_is_the_conjugation_construction_at_m_2(q):
    """PlaneScheme's classes are GeneralPolarityScheme's on the plane spec,
    and equal x q + the beta^q index of u for every vertex (x, u); the
    general scheme has no member, edge or loop-vertex forms."""
    spec, _ = plane_family(q)
    plane, general = PlaneScheme(spec.ctx), GeneralPolarityScheme(spec)
    assert (plane.r, plane.class_size) == (general.r, general.class_size)
    ids = np.arange(spec.side_size)
    x, u = divmod(ids, spec.ctx.order)
    expected = x * q + plane.basis.vectors()[2][u] % q
    assert plane.class_of_ids(ids).tolist() == general.class_of_ids(ids).tolist() == expected.tolist()
    assert [plane.class_key(c) for c in range(plane.r)] == [general.class_key(c)
                                                           for c in range(general.r)]
    for name in ("unique_edge_bulk", "loop_vertex_bulk", "class_member_bulk"):
        assert not hasattr(general, name)


def test_bulk_forms_keep_the_shape_of_their_input():
    spec, scheme = _scheme("plane", q=3)
    ids = np.arange(spec.side_size).reshape(9, 9)
    assert scheme.class_of_ids(ids).shape == (9, 9)
    assert scheme.class_member_bulk(np.arange(4)[:, None],
                                    np.arange(scheme.class_size)).shape == (4, scheme.class_size)
    empty = np.zeros(0, dtype=np.int64)
    assert [len(x) for x in scheme.unique_edge_bulk(empty, empty)] == [0, 0]


def test_scheme_partition_matches_class_of_coords():
    cases = [BULK_SCHEMES[name]() for name in sorted(BULK_SCHEMES)]
    m4 = ADGSpec(make_field(2, 2), 4, (mul(var_p(1), var_l(1)), mul(var_p(2), var_l(2)),
                                       mul(var_p(3), var_l(3))))
    for spec in (plane_family(3)[0], m4):
        cases.append((spec, GeneralPolarityScheme(spec)))
    for spec, scheme in cases:
        part = scheme_partition(scheme, spec)
        assert part.class_of.tolist() == [_class_of_coords(scheme, c) for c in _all_coords(spec)]
