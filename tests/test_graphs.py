"""Graph containers, cycle detection, girth, text formats.

The cycle and girth routines are cross-checked against networkx on random
graphs; networkx never backs the implementation, only the tests.
"""

import math
import random

import networkx as nx
import numpy as np
import pytest

from polarpart import adg, graphs
from polarpart.adg import build_polarity_graph, plane_family
from polarpart.graphs import (
    Graph, Partition, contains_C4, degree, edge_count,
    even_cycle_free_upto, find_even_cycle, girth, loop_count, materialize,
    pair_edge_matrix, read_edge_list, read_partition, write_edge_list,
    write_partition,
)
from test_verify import _reference_dfs, _reference_find_even_cycle


def _reference_contains_C4(g):
    """The scalar C4 check that contains_C4 replaced: every length-2 path
    goes into a dict keyed by its end pair; the first repeat is a C4."""
    seen = {}
    for mid in range(g.n):
        neigh = g.adj[mid]
        for i in range(len(neigh)):
            for j in range(i + 1, len(neigh)):
                pair = (neigh[i], neigh[j])
                other = seen.get(pair)
                if other is not None and other != mid:
                    return (pair[0], other, pair[1], mid)
                seen[pair] = mid
    return None


def _reference_girth(g):
    """The dict-based BFS from every root that girth replaced."""
    best = math.inf
    adj = g.adj
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            stop = False
            for v in frontier:
                dv = dist[v]
                if 2 * dv + 1 >= best:
                    stop = True
                    break
                for u in adj[v]:
                    if u not in dist:
                        dist[u] = dv + 1
                        parent[u] = v
                        nxt.append(u)
                    elif u != parent[v] and dist[u] >= dv:
                        cand = dv + dist[u] + 1
                        if cand < best:
                            best = cand
            if stop:
                break
            frontier = nxt
    return best


def disjoint_union(*gs):
    edges, base = [], 0
    for g in gs:
        edges += [(u + base, v + base) for u, v in g.edges()]
        base += g.n
    return Graph.from_edges(base, edges)


def cycle_graph(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def test_triangle_counts():
    g = cycle_graph(3)
    assert [degree(g, v) for v in range(3)] == [2, 2, 2]
    assert edge_count(g) == 3
    assert loop_count(g) == 0


def test_loops_excluded_from_degree_and_edges():
    g = Graph.from_edges(3, [(0, 1)], loops=[0, 2])
    assert degree(g, 0) == 1
    assert edge_count(g) == 1
    assert loop_count(g) == 2


def test_invalid_vertex():
    g = cycle_graph(3)
    with pytest.raises(ValueError):
        degree(g, 5)


def test_k22_contains_c4():
    g = Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
    w = contains_C4(g)
    assert w is not None
    a, b, c, d = w
    for u, v in ((a, b), (b, c), (c, d), (d, a)):
        assert v in g.adj[u]


def _check_c4(g):
    """contains_C4's witness is the depth-first one, and it exists exactly
    when the scalar pair scan finds a repeated end pair."""
    w = contains_C4(g)
    assert w == _reference_find_even_cycle(g, 2)
    assert (w is None) == (_reference_contains_C4(g) is None)
    return w


def test_contains_c4_witness_matches_scalar_reference():
    k23 = Graph.from_edges(5, [(u, v) for u in (0, 1) for v in (2, 3, 4)])
    # C4s on 0, 5, 1, 6 and on 4, 2, 7, 3: the first root, 0, gives the witness
    several = Graph.from_edges(8, [(0, 5), (0, 6), (1, 5), (1, 6),
                                   (4, 2), (4, 3), (7, 2), (7, 3)])
    # isolated vertices 0 and 7, degree-1 vertex 6, a C4 on 1..4 and a tail
    sparse = Graph.from_edges(8, [(1, 2), (2, 3), (3, 4), (4, 1), (4, 5), (5, 6)])
    # mixed degrees: a hub of degree 5 over a triangle and a path, a lone edge
    mixed = Graph.from_edges(9, [(0, v) for v in range(1, 6)]
                             + [(1, 2), (2, 3), (3, 1), (4, 6), (6, 5), (7, 8)])
    cases = {
        "k22": (Graph.from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3)]), (0, 3, 1, 2)),
        "k23": (k23, (0, 3, 1, 2)),
        "several": (several, (0, 6, 1, 5)),
        "sparse": (sparse, (1, 4, 3, 2)),
        "mixed": (mixed, (0, 2, 3, 1)),
        "path": (path_graph(5), None),
        "edgeless": (Graph(3, [[], [], []]), None),
        "c6": (cycle_graph(6), None),
    }
    for name, (g, expected) in cases.items():
        assert _check_c4(g) == expected, name


def test_contains_c4_matches_scalar_reference_on_random_graphs(monkeypatch):
    rng = random.Random(7)
    graphs_ = [seeded_gnp(rng.randrange(1, 30), rng.uniform(0.02, 0.4), seed=t)
               for t in range(300)]
    found = [_check_c4(g) is not None for g in graphs_]
    assert 30 < sum(found) < 270
    for block_roots in (1, 3):  # LAYER_CHUNK // d**2 roots per block
        for g in graphs_:
            width = max(map(len, g.adj), default=0)
            monkeypatch.setattr(graphs, "LAYER_CHUNK", block_roots * max(width, 1) ** 2)
            _check_c4(g)


def test_contains_c4_wide_codes(monkeypatch):
    # n = 50,000: with every root in one block, the walk keys
    # root position * n + endpoint pass 2**31 and are int64
    n = 50_000
    adjacency = [[] for _ in range(n)]
    for u, v in ((49_990, 49_992), (49_990, 49_993), (49_991, 49_992),
                 (49_991, 49_993), (10, 49_999)):
        adjacency[u].append(v)
        adjacency[v].append(u)
    g = Graph(n, adjacency)
    expected = (49_990, 49_993, 49_991, 49_992)
    assert _check_c4(g) == expected
    monkeypatch.setattr(graphs, "LAYER_CHUNK", 4 * n)  # 4 = max degree ** 2
    assert _check_c4(g) == expected


def test_c6_search_past_a_block_whose_shared_keys_all_meet(monkeypatch):
    # root 0's walks 0-1-2-4 and 0-1-3-4 share an endpoint but meet at 1
    # (the C4 1-2-4-3), so its block finds no C6; the first C6 root is 5
    g = Graph.from_edges(11, [(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)]
                         + [(v, 5 + (v - 4) % 6) for v in range(5, 11)])
    assert find_even_cycle(g, 2) == (1, 3, 4, 2)
    expected = _reference_find_even_cycle(g, 3)
    assert expected[0] == 5
    assert find_even_cycle(g, 3) == expected
    monkeypatch.setattr(graphs, "LAYER_CHUNK", 3 ** 3)  # one root per block: d = 3
    assert find_even_cycle(g, 3) == expected


def test_c6_detection_and_kmax_window():
    g = cycle_graph(6)
    w = even_cycle_free_upto(g, 3)
    assert w is not None and len(w) == 6
    assert even_cycle_free_upto(g, 2) is None


# root -> its C6 witness on plane q=9's bipartite graph, as the search
# gave it when it paired every walk of a shared key at once
PLANE9_BIPARTITE_C6 = {0: (0, 6642, 82, 6724, 162, 6561), 405: (405, 6647, 7, 6728, 567, 6561)}


@pytest.mark.parametrize("root", sorted(PLANE9_BIPARTITE_C6))
def test_bipartite_c6_root_pairs_walks_by_chunks(root):
    # a root's 518,400 walks share 6,480 keys, about 2 * 10^7 pairs: the
    # search stops at the first LAYER_CHUNK of pairs with a disjoint one,
    # and keeps the witness and the DFS reference's
    spec, _ = plane_family(9)
    g = spec.incidence_graph(20_000)
    w = find_even_cycle(g, 3, roots=[root])
    assert w == PLANE9_BIPARTITE_C6[root]
    assert w == _reference_dfs(root, 3, lambda v: g.adj[v][::-1])


def test_even_cycle_kmax_validation():
    with pytest.raises(ValueError):
        even_cycle_free_upto(cycle_graph(4), 6)


def test_girth_path_is_infinite():
    assert girth(path_graph(3)) == math.inf


def test_girth_cycles():
    for n in (3, 4, 5, 6, 9, 12):
        assert girth(cycle_graph(n)) == n


def seeded_gnp(n, prob, seed):
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < prob]
    return Graph.from_edges(n, edges)


def test_girth_and_even_cycles_against_networkx():
    rng = random.Random(42)
    for trial in range(100):
        n = rng.randrange(4, 21)
        g = seeded_gnp(n, rng.uniform(0.1, 0.35), seed=trial)
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges())
        expected = nx.girth(h)
        got = girth(g)
        assert got == expected or (got == math.inf and expected == math.inf), trial
        assert girth(g, np.arange(n)) == got, trial  # plain BFS from every root
        cycle_lengths = set()
        for c in nx.simple_cycles(h, length_bound=10):
            cycle_lengths.add(len(c))
            if cycle_lengths >= {4, 6, 8, 10}:
                break
        for k in (2, 3, 4, 5):
            w = find_even_cycle(g, k)
            assert (w is not None) == (2 * k in cycle_lengths), (trial, k)
            if w is not None:
                assert len(w) == 2 * k
                for i in range(2 * k):
                    assert w[(i + 1) % (2 * k)] in g.adj[w[i]]
                assert len(set(w)) == 2 * k


def _girth_block_sizes(g):
    """GIRTH_CHUNK values that make girth's root blocks 1, 2, 3 and 7 wide."""
    return [b * g.n for b in (1, 2, 3, 7)]


def test_girth_matches_reference_on_random_graphs(monkeypatch):
    rng = random.Random(7)
    for trial in range(300):
        n = rng.randrange(2, 40)
        g = seeded_gnp(n, rng.uniform(0.02, 0.3), seed=1000 + trial)
        expected = _reference_girth(g)
        assert girth(g) == expected, trial
        for chunk in [1] + _girth_block_sizes(g):
            monkeypatch.setattr(graphs, "GIRTH_CHUNK", chunk)
            assert girth(g) == expected, (trial, chunk)
            # every vertex as an explicit root: a plain BFS, no floor
            assert girth(g, np.arange(n)) == expected, (trial, chunk)
        monkeypatch.undo()


def test_girth_of_forests_and_tiny_graphs():
    assert girth(Graph(0, [])) == math.inf == _reference_girth(Graph(0, []))
    assert girth(Graph(1, [[]], loops=[0])) == math.inf
    star = Graph.from_edges(6, [(0, v) for v in range(1, 6)])
    forest = disjoint_union(path_graph(4), star, Graph(3, [[], [], []]), path_graph(1))
    for g in (path_graph(2), star, forest):
        assert girth(g) == math.inf == _reference_girth(g)


@pytest.mark.parametrize("parts,expected", [
    ((8, 5), 5),   # a bipartite component first, a shorter odd cycle second
    ((5, 8), 5),
    ((6, 5), 5),   # the odd cycle is longer than a parity-blind stop allows
    ((6, 7), 6),
    ((4, 9), 4),
    ((10, 11), 10),
    ((4, 3), 3),   # a stop at 4 regardless of parity would return 4
    ((3, 4), 3),
    ((7, 3), 3),   # the only shortest cycle's minimum vertex is in a later
    ((8, 3), 3),   # block: first in it, or second in a 2- or 3-root block
])
def test_girth_decides_parity_over_every_component(monkeypatch, parts, expected):
    g = disjoint_union(*(cycle_graph(k) for k in parts))
    assert _reference_girth(g) == expected
    for chunk in [1 << 20, 1] + _girth_block_sizes(g):
        monkeypatch.setattr(graphs, "GIRTH_CHUNK", chunk)
        assert girth(g) == expected, chunk


@pytest.mark.parametrize("length", [300, 301])
def test_girth_of_long_cycles_in_multi_root_blocks(monkeypatch, length):
    g = cycle_graph(length)  # BFS depth reaches 150, past an int8 level
    for chunk in [graphs.GIRTH_CHUNK] + _girth_block_sizes(g)[1:]:
        monkeypatch.setattr(graphs, "GIRTH_CHUNK", chunk)
        assert girth(g) == length, chunk


class _RowLog(np.ndarray):
    """A neighbour table that logs the rows of every read by an id array."""

    def __getitem__(self, idx):
        if isinstance(idx, np.ndarray):
            self.log.append(sorted(idx.tolist()))
        return np.asarray(self)[idx]


def _pruned_bfs(g):
    """(girth, [(root, frontier)]): a scalar BFS from each root over
    G[>= root], one level per frontier, with girth's stop rules."""
    h = nx.Graph(list(g.edges()))
    slack = 2 if nx.is_bipartite(h) else 1
    best, frontiers = math.inf, []
    for root in range(g.n):
        if best <= 2 + slack:
            break
        level, frontier, d = {root: 0}, [root], 0
        while frontier and 2 * d + slack < best:
            frontiers.append((root, sorted(frontier)))
            reached, odd = {}, False
            for v in frontier:
                for u in g.adj[v]:
                    if u <= root:
                        continue
                    if u in level:
                        odd |= level[u] == d
                    else:
                        reached[u] = reached.get(u, 0) + 1
            if slack == 1 and odd:
                best = 2 * d + 1
                break
            if any(c > 1 for c in reached.values()):
                best = 2 * d + 2
            d += 1
            level.update(dict.fromkeys(reached, d))
            frontier = list(reached)
    return best, frontiers


def test_every_girth_root_reads_only_rows_above_it(monkeypatch):
    spec = plane_family(3)[0]
    g = spec.incidence_graph(10 ** 4)
    expected, frontiers = _pruned_bfs(g)
    assert all(min(rows) >= root for root, rows in frontiers)
    # one root per block, and the parity pass reads the plain table
    monkeypatch.setattr(graphs, "GIRTH_CHUNK", 1)
    monkeypatch.setattr(graphs, "_has_odd_cycle",
                        lambda table, f=graphs._has_odd_cycle: f(np.asarray(table)))
    g.__dict__["table"] = table = g.table.view(_RowLog)
    table.log = []
    assert girth(g) == expected == 6
    assert table.log == [rows for _, rows in frontiers]


def test_witness_implies_girth_bound():
    for trial in range(30):
        g = seeded_gnp(10, 0.3, seed=100 + trial)
        for k in (2, 3, 4, 5):
            if find_even_cycle(g, k) is not None:
                assert girth(g) <= 2 * k


def test_handshake():
    for trial in range(20):
        g = seeded_gnp(12, 0.3, seed=trial)
        assert sum(degree(g, v) for v in range(g.n)) == 2 * edge_count(g)


def test_pair_edge_matrix_triangle_singletons():
    g = cycle_graph(3)
    pairs, joined, within, loops, first = pair_edge_matrix(g, Partition([0, 1, 2], 3), 10)
    assert pairs == [] and joined  # every pair joined by one edge
    assert within.tolist() == [0, 0, 0] and loops.tolist() == [0, 0, 0] and first is None


def test_pair_edge_matrix_single_class():
    g = cycle_graph(4)
    pairs, joined, within, _, first = pair_edge_matrix(g, Partition([0, 0, 0, 0], 1), 10)
    assert within.tolist() == [4] and within.sum() == edge_count(g)  # no cross edge
    assert pairs == [] and joined and first == (0, 1)


def test_pair_edge_matrix_loops_tally():
    g = Graph.from_edges(4, [(0, 1), (2, 3)], loops=[0, 1, 2])
    pairs, joined, within, loops, first = pair_edge_matrix(g, Partition([0, 0, 1, 1], 2), 10)
    assert loops.tolist() == [2, 1]
    assert within.tolist() == [1, 1] and first == (0, 1)
    assert pairs == [(0, 1, 0)] and not joined


@pytest.mark.parametrize("big_class,block,blocks", [(False, 100, 9), (True, 400, 14)])
def test_pair_edge_matrix_blocks_stay_within_the_bound(monkeypatch, big_class, block, blocks):
    # plane q = 3 has 81 vertices and rows of 9 slots.  27 classes of 3:
    # the bins bind, 3 classes (84 bins) a block.  14 classes, class 0 of
    # 42 members: its 378 row slots bind, one class a block
    spec, pol = plane_family(3)
    pg = build_polarity_graph(spec, pol)
    g = pg.graph(1000)
    cls = np.arange(g.n) // 3
    if big_class:
        cls = np.where(cls >= 13, cls - 13, 0)
    part = Partition(cls, int(cls.max()) + 1)
    expected = pair_edge_matrix(g, part, 10 ** 4)
    sizes, bincount = [], np.bincount
    monkeypatch.setattr(np, "bincount", lambda x, minlength=0: (
        sizes.append((len(x), minlength)) or bincount(x, minlength=minlength)))
    monkeypatch.setattr(graphs, "ROW_BLOCK", block)
    got = pair_edge_matrix(g, part, 10 ** 4)
    tallies = [s for s in sizes if s[1] % (part.r + 1) == 0]  # one per block
    assert len(tallies) == blocks and all(max(s) <= block for s in tallies)
    assert got[:2] == expected[:2]
    assert all(np.array_equal(a, b) for a, b in zip(got[2:4], expected[2:4]))
    # the least within-class arc, found across blocks
    assert got[4] == expected[4] == min((u, v) for u, v in g.edges() if cls[u] == cls[v])


def _sorted_automorphism(g, perm):
    """The check is_automorphism replaced, kept as its oracle: every image
    row sorted, -1 pads last, against the whole table[perm] at once."""
    table = g.table
    if len(perm) != g.n or not np.array_equal(np.sort(np.take(perm, g.loops)), g.loops):
        return False
    image = np.append(perm, -1).astype(table.dtype)[table]
    image.view(np.dtype(f"u{image.itemsize}")).sort(axis=1)
    return np.array_equal(table[perm], image)


@pytest.mark.parametrize("rows", [1, 5])
def test_is_automorphism_across_row_blocks(monkeypatch, rows):
    """Blocks of 1 and 5 rows of plane q=3's polarity graph: the scaling
    (rows out of order) and a translation (rows in order, one comparison a
    block, no sort) are accepted; a swap of the last two non-loop rows and
    a perm that moves a loop are rejected, the latter before any block."""
    spec, pol = plane_family(3)
    g = build_polarity_graph(spec, pol).graph(1000)
    ctx, table = spec.ctx, g.table
    monkeypatch.setattr(graphs, "ROW_BLOCK", rows * table.shape[1])
    blocks = len(list(graphs.row_blocks(g)))
    assert blocks == -(-g.n // rows)
    coords = spec.ids_to_coords(np.arange(g.n))
    scaling = spec.coords_to_ids([ctx.mul_bulk(c, f) for c, f in zip(coords, spec.scaling(pol)[0])])
    t = int(spec.translation_ids(pol)[1])
    translation = spec.coords_to_ids([ctx.add_bulk(c, s) for c, s in zip(coords, adg._row(coords, t))])
    loops = set(g.loops.tolist())
    u, w = [v for v in range(g.n) if v not in loops][-2:]
    swap = np.arange(g.n)
    swap[[u, w]] = w, u
    loop_move = np.arange(g.n)
    loop_move[[g.loops[0], u]] = u, g.loops[0]
    # the scaling leaves rows out of order; the translation keeps each row's
    assert (np.append(scaling, -1)[table] != table[scaling]).any(axis=1).all()
    assert np.array_equal(np.append(translation, -1)[table], table[translation])
    compared, array_equal = [], np.array_equal
    for perm, accepted, comparisons in ((scaling, True, 1 + 2 * blocks),
                                        (translation, True, 1 + blocks),
                                        (swap, False, None)):
        assert _sorted_automorphism(g, perm) is accepted
        compared.clear()
        monkeypatch.setattr(np, "array_equal", lambda a, b: compared.append(1) or array_equal(a, b))
        assert graphs.is_automorphism(g, perm) is accepted
        monkeypatch.setattr(np, "array_equal", array_equal)
        if comparisons is not None:  # the loops, then each block once, or twice when sorted
            assert len(compared) == comparisons
    assert not _sorted_automorphism(g, loop_move)
    monkeypatch.setattr(graphs, "row_blocks", lambda g_: pytest.fail("a block ran"))
    assert not graphs.is_automorphism(g, loop_move)


def test_pair_edge_matrix_size_mismatch():
    g = cycle_graph(3)
    with pytest.raises(ValueError):
        pair_edge_matrix(g, Partition([0, 1], 2), 10)


def test_partition_validation():
    with pytest.raises(ValueError, match=r"^class 1 is empty$"):
        Partition([0, 2], 3)
    with pytest.raises(ValueError, match=r"^vertex 1 assigned to invalid class 5$"):
        Partition([0, 5], 2)
    with pytest.raises(ValueError, match=r"^vertex 2 assigned to invalid class -1$"):
        Partition(np.array([0, 1, -1]), 2)
    assert Partition([0, 1, 1, 0, 2], 3).class_sizes() == [2, 2, 1]


def _rule(rows, loops=()):
    """An array rule returning `rows` padded with -1, and `loops`."""
    width = max(map(len, rows), default=0)
    table = np.array([row + [-1] * (width - len(row)) for row in rows], dtype=np.int64)
    return lambda: (table, np.array(loops, dtype=np.int64))


def test_materialize_empty_rule():
    g = materialize(5, _rule([[]] * 5), 10)
    assert edge_count(g) == 0 and g.n == 5


def test_materialize_ceiling():
    def rule():
        raise AssertionError("the rule ran above the ceiling")

    with pytest.raises(ValueError, match="100 vertices exceed materialization ceiling 50"):
        materialize(100, rule, 50)
    g = materialize(3, _rule([[1], [0], []], [2]), 3)  # at the ceiling: built
    assert g.adj == [[1], [0], []] and g.loops.tolist() == [2]


def test_materialize_rejects_asymmetric_rule():
    with pytest.raises(ValueError):
        materialize(2, _rule([[1], []]), 10)
    # even degree sum: the first arc (v, u) without (u, v), in (v, u) order
    rows = [[1, 3], [0, 2], [], [], [2, 3]]
    with pytest.raises(ValueError, match=r"^asymmetric edge \(0, 3\)$"):
        materialize(5, _rule(rows), 10)


def test_graph_rejects_adjacency_loop():
    with pytest.raises(ValueError):
        Graph(2, [[0, 1], [0]])


@pytest.mark.parametrize("adjacency,loops,message", [
    # even degree sum, yet (0, 2) has no (2, 0)
    ([[1, 2], [0], [1]], (), r"^asymmetric edge \(0, 2\)$"),
    ([[1, 2], [0], []], (), r"^asymmetric edge \(0, 2\)$"),
    ([[1, 1], [0, 0], []], (), r"^duplicate neighbor at vertex 0$"),
    ([[1], [0, 2, 2], [1, 1]], (), r"^duplicate neighbor at vertex 1$"),
    ([[0, 1], [0], []], (), r"^loop 0 stored in adjacency$"),
    ([[1], [0], [3]], (), r"^neighbor of vertex 2 out of range 0\.\.2$"),
    ([[1], [0], []], (3,), r"^loop vertex 3 out of range$"),
    ([[1], [0], []], (-1,), r"^loop vertex -1 out of range$"),
])
def test_graph_constructor_validates(adjacency, loops, message):
    with pytest.raises(ValueError, match=message):
        Graph(len(adjacency), adjacency, loops)


def test_graph_stores_ascending_padded_rows():
    g = Graph(4, [[3, 1, 2], [0], [0, 3], (2, 0)], loops=[3, 1, 3])
    assert g.table.tolist() == [[1, 2, 3], [0, -1, -1], [0, 3, -1], [0, 2, -1]]
    assert g.deg.tolist() == [3, 1, 2, 2]
    assert g.adj == [[1, 2, 3], [0], [0, 3], [0, 2]]
    assert list(g.edges()) == [(0, 1), (0, 2), (0, 3), (2, 3)]
    assert g.loops.dtype == np.int64 and g.loops.tolist() == [1, 3]
    assert [degree(g, v) for v in range(4)] == [3, 1, 2, 2]
    assert graphs.degree_multiset(g) == {1: 1, 2: 2, 3: 1}
    assert 3 in g.adj[2] and 2 not in g.adj[1] and 1 not in g.adj[3]
    # degrees() is a copy: callers may edit it in place
    graphs.degrees(g)[:] = 0
    assert edge_count(g) == 4


def test_array_rule_rows_sort_ascending_with_pads_last():
    rule = _rule([[2, 1], [-1, 0], [0, -1]])  # pads anywhere in a row
    g = materialize(3, rule, 3)
    assert g.table.tolist() == [[1, 2], [0, -1], [0, -1]]
    # heads of every arc (u, v), ascending by (u, v)
    assert g.table[g.table >= 0].tolist() == [1, 2, 0, 0]


@pytest.mark.parametrize("n,dtype", [(46_340, np.int32), (46_341, np.int64), (50_000, np.int64)])
def test_ids_widen_to_int64_once_n_squared_passes_int32(n, dtype):
    # arc codes u * n + v of the last vertex's arcs pass 2**31 from n = 46,341
    edges = [(0, n - 1), (n - 2, n - 1)]
    g = Graph.from_edges(n, edges)
    tails = np.repeat(np.arange(n, dtype=g.table.dtype), g.deg)
    heads = g.table[g.table >= 0]
    codes = tails * heads.dtype.type(n) + heads
    assert g.table.dtype == codes.dtype == dtype
    assert g.table.shape == (n, 2) and g.table[n - 1].tolist() == [0, n - 2]
    arcs = edges + [(v, u) for u, v in edges]
    assert codes.tolist() == sorted(u * n + v for u, v in arcs)


def test_int32_validation_names_the_highest_ids_at_n_46340():
    # validation runs in the table's int32, where the codes u * n + v of
    # the top ids come within n of 2**31; a wrapped code would misname them
    n = 46_340
    cases = [
        ({n - 1: [n - 2]}, rf"^asymmetric edge \({n - 1}, {n - 2}\)$"),
        ({n - 2: [n - 1, n - 1], n - 1: [n - 2]}, rf"^duplicate neighbor at vertex {n - 2}$"),
    ]
    for rows, message in cases:
        table = np.full((n, 2), -1, dtype=np.int32)
        for v, row in rows.items():
            table[v, :len(row)] = row
        for adjacency in (table, [[u for u in row if u >= 0] for row in table.tolist()]):
            with pytest.raises(ValueError, match=message):
                Graph(n, adjacency)


def test_graph_rejects_neighbor_out_of_range():
    for adjacency in ([[2], []], [[-1], []], [[1, 5], [0]]):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, adjacency)


@pytest.mark.parametrize("edge", [(0, 5), (5, 0), (-1, 1), (2, -3)])
def test_from_edges_rejects_an_endpoint_out_of_range(edge):
    with pytest.raises(ValueError, match=rf"^edge \({edge[0]}, {edge[1]}\) out of range 0\.\.2$"):
        Graph.from_edges(3, [(0, 1), edge])


def test_edge_list_round_trip():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (0, 4)], loops=[2, 3])
    text = "".join(write_edge_list(g))
    assert text.splitlines()[0] == "5 3 2"
    h = read_edge_list(text, 5)
    assert h.adj == g.adj and np.array_equal(h.loops, g.loops)
    assert "".join(write_edge_list(h)) == text


def _joined_edge_list(g):
    """write_edge_list's text as one join over a string per line, as it
    was before it formatted in blocks: the reference for its bytes."""
    up = [(u, v) for u in range(g.n) for v in g.adj[u] if u < v]
    lines = [f"{g.n} {len(up)} {len(g.loops)}"]
    lines += [f"{u} {v}" for u, v in up]
    lines += [f"L {v}" for v in g.loops.tolist()]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("block", [1, 5, 64, graphs.ROW_BLOCK])
def test_edge_list_blocks_keep_the_bytes(monkeypatch, block):
    spec, pol = plane_family(3)
    pg = build_polarity_graph(spec, pol)
    cases = [pg.graph(1000), Graph(4, [[], [], [], []], loops=[1]),
             Graph.from_edges(7, [(0, 6), (2, 3), (3, 5)])]
    monkeypatch.setattr(graphs, "ROW_BLOCK", block)
    for g in cases:
        blocks = list(write_edge_list(g))
        assert "".join(blocks) == _joined_edge_list(g)
        # the header, one block per row block, the loops
        assert len(blocks) == 2 + len(list(graphs.row_blocks(g)))


def test_edge_list_header_mismatch():
    with pytest.raises(ValueError):
        read_edge_list("2 1 0\n", 2)


MALFORMED_EDGE_LISTS = {
    "endpoint past n": ("3 1 0\n0 5\n", "line 2"),
    "negative endpoint": ("3 1 0\n-1 1\n", "line 2"),
    "repeated edge": ("3 2 0\n0 1\n0 1\n", "line 3"),
    "repeated reversed edge": ("3 2 0\n0 1\n\n1 0\n", "line 4"),
    "loop written as an edge": ("3 1 0\n1 1\n", "line 2"),
    "loop vertex past n": ("3 0 1\nL 3\n", "line 2"),
    "repeated loop": ("3 0 2\nL 1\nL 1\n", "line 3"),
    "three fields": ("3 1 0\n0 1 2\n", "line 2"),
    "not a number": ("3 1 0\n0 x\n", "line 2"),
    "short header": ("3 1\n0 1\n", "line 1"),
    "header above the ceiling": ("999999999 0 0\n", "line 1: 999999999 vertices exceed the ceiling 3"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_EDGE_LISTS))
def test_edge_list_rejects_malformed_line(name):
    text, where = MALFORMED_EDGE_LISTS[name]
    with pytest.raises(ValueError, match=where):
        read_edge_list(text, 3)


MALFORMED_PARTITIONS = {
    "vertex past the line count": ("0 0\n2 1\n", "line 2"),
    "repeated vertex": ("0 0\n1 0\n1 1\n", "line 3"),
    "negative class": ("0 0\n1 -1\n", "line 2"),
    "one field": ("0 0\n1\n", "line 2"),
    "class at the line count": ("0 0\n1 2\n", "line 2: class 2 at or above the line count 2"),
    "class 10^9": ("0 999999999\n", "line 1: class 999999999 at or above"),
    "class 10^20": ("0 99999999999999999999\n", "line 1: class 99999999999999999999 at or above"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_PARTITIONS))
def test_partition_rejects_malformed_line(name):
    text, where = MALFORMED_PARTITIONS[name]
    with pytest.raises(ValueError, match=where):
        read_partition(text)


def test_partition_round_trip():
    part = Partition([0, 1, 1, 0, 2], 3)
    text = write_partition(part)
    back = read_partition(text)
    assert np.array_equal(back.class_of, part.class_of) and back.r == part.r
    assert back.class_of.dtype == np.int64
