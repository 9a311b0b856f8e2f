"""Finite graph containers, degree/edge accounting, and cycle detection.

Graphs are loop-aware but loops live in a separate array: degrees, edge
counts and cycle searches all exclude them, which is the convention the
construction arithmetic needs.  Graph() validates outside input (edge
lists, array rules through materialize); adg's builders prove the tables
their id kernel writes and wrap them with Graph.proven.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

# neighbour slots (and pair_edge_matrix's class-pair bins) per block of a
# pass over table rows: one block's arrays are alive at a time, not n rows
ROW_BLOCK = 1 << 16


class Graph:
    """Explicit undirected graph on vertices 0..n-1, stored as one padded
    neighbour table.

    Row v of `table`, an (n, max degree) array, holds v's `deg[v]`
    neighbours in ascending order, then -1 pads; Graph() stores int32 ids
    while its arc codes u * n + v fit, else int64.  Loops are kept in
    `loops`, one sorted int64 array of distinct ids, and never appear in
    the rows.  The constructor checks every neighbour is in range, no row
    holds its own vertex or a repeat, and the adjacency is symmetric.
    """

    def __init__(self, n, adjacency, loops=()):
        """adjacency: n neighbour collections in any order, or an (n, d)
        array of neighbour ids padded with -1 (an array rule's table)."""
        if len(adjacency) != n:
            raise ValueError("adjacency length != n")
        dtype = np.int32 if n * n < 2 ** 31 else np.int64  # every code u * n + v fits
        if isinstance(adjacency, np.ndarray):
            keep = adjacency != -1
            deg, heads = keep.sum(axis=1), adjacency[keep]
        else:
            deg = np.fromiter(map(len, adjacency), dtype=np.int64, count=n)
            heads = np.fromiter(chain.from_iterable(adjacency), dtype=np.int64,
                                count=int(deg.sum()))
        tails = np.repeat(np.arange(n, dtype=dtype), deg)
        bad = (heads < 0) | (heads >= n)
        if bad.any():
            raise ValueError(f"neighbor of vertex {tails[bad.argmax()]} out of range 0..{n - 1}")
        heads = heads.astype(dtype, copy=False)
        bad = heads == tails
        if bad.any():
            raise ValueError(f"loop {tails[bad.argmax()]} stored in adjacency")
        codes = tails * n + heads  # ascending once every row is
        if (codes[1:] < codes[:-1]).any():
            codes.sort()
            heads = codes - tails * n
        bad = codes[1:] == codes[:-1]
        if bad.any():
            raise ValueError(f"duplicate neighbor at vertex {tails[bad.argmax()]}")
        back = heads * n + tails
        if not np.array_equal(codes, np.sort(back)):
            i = np.isin(back, codes, invert=True).argmax()
            raise ValueError(f"asymmetric edge ({tails[i]}, {heads[i]})")
        loop_ids = np.unique(np.fromiter(loops, dtype=np.int64))
        bad = (loop_ids < 0) | (loop_ids >= n)
        if bad.any():
            raise ValueError(f"loop vertex {loop_ids[bad.argmax()]} out of range")
        self.n = n
        self.deg = deg
        self.table = np.full((n, int(deg.max(initial=0))), -1, dtype=dtype)
        self.table[np.arange(self.table.shape[1]) < deg[:, None]] = heads
        self.loops = loop_ids

    @classmethod
    def proven(cls, table, deg, loops):
        """The graph of a table in this layout, its degrees and loops, kept as
        given (adg's kernel tables, int32 while n < 2^31): their builder proved them."""
        g = cls.__new__(cls)
        g.n, g.table, g.deg, g.loops = len(table), table, deg, loops
        return g

    @classmethod
    def from_edges(cls, n, edges, loops=()):
        adjacency = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range 0..{n - 1}")
            if u == v:
                raise ValueError("loops must be passed separately")
            adjacency[u].add(v)
            adjacency[v].add(u)
        return cls(n, adjacency, loops)

    @cached_property
    def adj(self):
        """The rows as n ascending lists: the view the small oracles read."""
        return [row[:d] for row, d in zip(self.table.tolist(), self.deg.tolist())]

    def edges(self, lo=0, hi=None):
        """Every edge (u, v), u < v, ascending; only u in lo..hi-1 when given."""
        rows = self.table[lo:hi]
        ids = np.arange(lo, lo + len(rows))
        up = rows > ids[:, None]  # pads are -1
        return zip(np.repeat(ids, up.sum(axis=1)).tolist(), rows[up].tolist())


def row_blocks(g: Graph):
    """(first id, rows): g's table in blocks of whole rows, at most
    ROW_BLOCK slots or one row each."""
    step = max(1, ROW_BLOCK // max(1, g.table.shape[1]))
    for lo in range(0, g.n, step):
        yield lo, g.table[lo:lo + step]


def degrees(g: Graph):
    """Every vertex's degree, loops excluded, as a fresh int64 array."""
    return g.deg.copy()


def degree(g: Graph, v: int) -> int:
    """Degree of v, loops excluded."""
    if not 0 <= v < g.n:
        raise ValueError(f"vertex {v} out of range")
    return int(g.deg[v])


def edge_count(g: Graph) -> int:
    """Number of non-loop edges."""
    return int(g.deg.sum()) // 2


def loop_count(g: Graph) -> int:
    return len(g.loops)


def degree_multiset(g: Graph) -> dict[int, int]:
    values, counts = np.unique(degrees(g), return_counts=True)
    return dict(zip(values.tolist(), counts.tolist()))


def materialize(n: int, rule, limit: int) -> Graph:
    """The graph on n vertices that `rule()` gives as (an (n, d) array of
    neighbour ids, -1 where absent; the loop ids), refused before the rule
    runs when n is above `limit`.  Graph sorts the rows and checks symmetry."""
    if n > limit:
        raise ValueError(f"{n} vertices exceed materialization ceiling {limit}")
    return Graph(n, *rule())


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

@dataclass
class Partition:
    """Assignment of every vertex to one of r classes (all nonempty):
    class_of[v] is v's class, an int64 array."""

    class_of: np.ndarray
    r: int

    def __post_init__(self):
        self.class_of = np.asarray(self.class_of, dtype=np.int64)
        bad = (self.class_of < 0) | (self.class_of >= self.r)
        if bad.any():
            v = int(bad.argmax())
            raise ValueError(f"vertex {v} assigned to invalid class {self.class_of[v]}")
        sizes = np.bincount(self.class_of, minlength=self.r)
        if not sizes.all():
            raise ValueError(f"class {sizes.argmin()} is empty")

    def class_sizes(self):
        return np.bincount(self.class_of, minlength=self.r).tolist()


def pair_edge_matrix(g: Graph, part: Partition, limit: int):
    """The class-pair tally of a partitioned graph: (the first `limit`
    pairs c1 < c2, row-major, not joined by exactly one edge, as (c1, c2,
    edges) tuples; whether every pair is joined; the edges within and the
    loops in each class, two int64 arrays; the least arc (u, v) within a
    class, which has u < v, or None).

    One pass over blocks of whole classes (members by one stable argsort
    of class_of), each at most ROW_BLOCK bins and row slots, or one class:
    a bincount of (class(u) - lo) * (r + 1) + class(v) over the slots
    (u, v), a -1 pad read as class r, gives rows lo.. of the r x r tally.
    A block whose diagonal is nonzero also gives its least within arc.
    """
    if len(part.class_of) != g.n:
        raise ValueError("partition does not cover the graph")
    r, cls = part.r, part.class_of
    padded = np.append(cls, r)
    members = np.argsort(cls, kind="stable")
    sizes = part.class_sizes()
    starts = np.cumsum([0] + sizes)
    step = max(1, ROW_BLOCK // max(r + 1, max(sizes, default=1) * g.table.shape[1]))
    pairs, joined, within, first = [], True, np.zeros(r, dtype=np.int64), g.n * g.n
    for lo in range(0, r, step):
        hi = min(lo + step, r)
        ids = members[starts[lo]:starts[hi]]
        heads = padded[g.table[ids]]
        codes = (cls[ids, None] - lo) * (r + 1) + heads
        tally = np.bincount(codes.ravel(), minlength=(hi - lo) * (r + 1))
        tally = tally.reshape(hi - lo, r + 1)[:, :r]
        within[lo:hi] = tally[:, lo:hi].diagonal() // 2
        if within[lo:hi].any():
            i, j = np.nonzero(heads == cls[ids, None])
            first = min(first, int((ids[i] * g.n + g.table[ids[i], j]).min()))  # u * n + v
        off = tally[:, lo:] != 1  # pairs c1 < c2: columns from lo, above the diagonal
        off[:, :hi - lo] &= ~np.tri(hi - lo, dtype=bool)
        if off.any():
            i, j = np.nonzero(off)  # row-major
            counts = tally[i, lo + j]
            joined = joined and bool(counts.all())
            keep = slice(max(0, limit - len(pairs)))
            pairs += zip((lo + i[keep]).tolist(), (lo + j[keep]).tolist(), counts[keep].tolist())
    first = divmod(first, g.n) if first < g.n * g.n else None
    return pairs, joined, within, np.bincount(cls[g.loops], minlength=r), first


# ---------------------------------------------------------------------------
# cycles
# ---------------------------------------------------------------------------

def is_automorphism(g: Graph, perm) -> bool:
    """True when the permutation `perm` of 0..n-1 maps every row of the
    padded table onto the row of its image as a set, and the loops onto
    the loops.  Rows go by row_blocks: perm of the rows v of a block, in
    their own order, is compared with the rows perm[v]; only a block that
    differs is sorted, -1 pads last, and compared again.  Rows are
    ascending, so either match is set equality and a pass is exact,
    whatever order perm leaves a row in (a translation keeps p_1 and so
    each row's order).  A perm of another length fails."""
    table = g.table
    if len(perm) != g.n or not np.array_equal(np.sort(np.take(perm, g.loops)), g.loops):
        return False
    images = np.append(perm, -1).astype(table.dtype)
    for lo, rows in row_blocks(g):
        image, target = images.take(rows), table.take(perm[lo:lo + len(rows)], axis=0)
        if not np.array_equal(image, target):
            # sorted in place as unsigned, where -1 is the largest value
            image.view(np.dtype(f"u{image.itemsize}")).sort(axis=1)
            if not np.array_equal(image, target):
                return False
    return True


def find_even_cycle(g: Graph, k: int, roots=None):
    """Witness cycle of length exactly 2k, or None: even_cycle from `roots`
    (every vertex by default), on the adjacency as a padded table
    (ascending rows)."""
    table = g.table
    hit = even_cycle(np.arange(g.n) if roots is None else roots, k, lambda ids: table[ids], g.n)
    return None if hit is None else hit[1]


def contains_C4(g: Graph):
    """4-cycle witness or None: find_even_cycle(g, 2)."""
    return find_even_cycle(g, 2)


# final-layer walks per root block of even_cycle; parents expanded, and
# walk pairs compared, at a time in its last layer
LAYER_CHUNK = 1 << 15


def even_cycle(roots, k, neighbors, n):
    """(i, witness) for the first roots[i] on a 2k-cycle, or None.

    `neighbors(ids)` maps N vertex ids to an (N, d) array of neighbour ids,
    -1 where absent; no row may hold its own id.  Roots go in blocks of
    LAYER_CHUNK // d**k; a block's simple length-k walks are built layer by
    layer, each one boolean mask over the tips' rows compressed in C order
    (the last layer LAYER_CHUNK parents at a time, its parent rows expanded
    only in a block where two keys match), keyed by root position and
    endpoint; two walks of a key close a 2k-cycle when their interiors are
    disjoint (meet in the middle, after Yuster & Zwick, "Finding even
    cycles even faster", 1997).  The last layer's keys are held once and
    sorted in place: one chunk's array, or every chunk written into one
    array.  Only when two keys match (on a graph with the cycle) is the
    layer rebuilt in walk order to find the pair.  Walks are numbered root
    by root, each root's depth-first over columns, so the earliest walk
    that closes with an earlier one, plus the reversed interior of its
    earliest partner, is the depth-first witness from the first root on a
    cycle; pairs are compared in that order, LAYER_CHUNK at a time, up to
    the first chunk that holds a closing pair.

    When roots are 0..len-1, a walk keeps only neighbours above its root.
    That is exact, and keeps the witness: a 2k-cycle through roots[i] and
    an earlier root would have been found at that root.  Other calls keep
    every walk.
    """
    if k < 2:
        raise ValueError("cycle length below 4")
    dtype = np.int32 if n < 2 ** 31 else np.int64
    roots = np.asarray(roots, dtype=dtype)
    if not len(roots):
        return None
    width = neighbors(roots[:1]).shape[1]
    size = max(1, LAYER_CHUNK // max(width, 1) ** k)
    floor = roots if np.array_equal(roots, np.arange(len(roots))) else np.full_like(roots, -1)

    def step(paths, floors):
        """(count per parent row, neighbour ids in C order) of the simple
        one-step extensions above each walk's floor (no row holds its tip)."""
        nb = neighbors(paths[:, -1]).astype(dtype, copy=False)
        keep = nb > floors[:, None]
        for col in paths.T[:-1]:
            keep &= nb != col[:, None]
        return keep.sum(axis=1), nb[keep]

    for first in range(0, len(roots), size):
        paths = roots[first:first + size, None]  # one row per walk: root..tip
        pos = np.arange(len(paths), dtype=dtype)  # each walk's root position
        key_dtype = np.int32 if len(paths) * n < 2 ** 31 else np.int64
        for _ in range(k - 1):
            counts, tips = step(paths, floor[first + pos])
            rows = np.repeat(np.arange(len(paths), dtype=dtype), counts)
            paths, pos = np.column_stack([paths[rows], tips]), pos[rows]
        if not len(paths):
            continue
        base = pos.astype(key_dtype) * key_dtype(n)

        def last_layer(counts):
            """The last layer's keys, root position * n + endpoint, in walk
            order: one chunk's array, or the chunks written into one array;
            each chunk's extension counts go to `counts`."""
            keys = np.empty(len(paths) * width, key_dtype) if len(paths) > LAYER_CHUNK else None
            end = 0
            for lo in range(0, len(paths), LAYER_CHUNK):
                c, tips = step(paths[lo:lo + LAYER_CHUNK], floor[first + pos[lo:lo + LAYER_CHUNK]])
                counts.append(c)
                chunk = np.repeat(base[lo:lo + LAYER_CHUNK], c)
                chunk += tips
                if keys is None:
                    return chunk
                keys[end:end + len(chunk)] = chunk
                end += len(chunk)
            return keys[:end]

        keys = last_layer([])
        keys.sort()
        shared = keys[1:][keys[1:] == keys[:-1]]
        if not len(shared):
            continue
        # rebuilt in walk order: the sort kept no walk's position
        counts = []
        del keys
        keys = last_layer(counts)
        parents = np.repeat(np.arange(len(paths), dtype=dtype), np.concatenate(counts))
        # walks whose key is shared, grouped by key, in walk order
        walks = np.flatnonzero(np.isin(keys, shared))
        walks = walks[np.argsort(keys[walks], kind="stable")]
        group_start = np.searchsorted(keys[walks], keys[walks])
        # each walk pairs with every earlier walk of its group; pairs run
        # by (later walk, partner), LAYER_CHUNK at a time, so the first
        # pair whose interiors are disjoint is the witness
        order = np.argsort(walks)
        earlier = (np.arange(len(walks)) - group_start)[order]
        ends = np.cumsum(earlier)
        for lo in range(0, int(ends[-1]), LAYER_CHUNK):
            pair = np.arange(lo, min(lo + LAYER_CHUNK, int(ends[-1])))
            at = np.searchsorted(ends, pair, side="right")
            later = walks[order[at]]
            partner = walks[group_start[order[at]] + pair - (ends[at] - earlier[at])]
            inner_later = paths[parents[later], 1:]
            inner_partner = paths[parents[partner], 1:]
            meets = (inner_later[:, :, None] == inner_partner[:, None, :]).any(axis=(1, 2))
            if meets.all():
                continue
            f = meets.argmin()
            j, i = later[f], partner[f]
            walk = [int(v) for v in paths[parents[j]]] + [int(keys[j]) % n]
            walk += [int(v) for v in paths[parents[i], :0:-1]]
            return first + int(pos[parents[j]]), tuple(walk)
    return None


def even_cycle_free_upto(g: Graph, kmax: int):
    """Shortest even-cycle witness of length <= 2*kmax, or None (exact)."""
    if kmax not in (2, 3, 4, 5):
        raise ValueError("kmax must be in 2..5")
    for k in range(2, kmax + 1):
        w = find_even_cycle(g, k)
        if w is not None:
            return w
    return None


# (root, vertex) slots of one girth root block
GIRTH_CHUNK = 1 << 16


def _has_odd_cycle(table):
    """2-colour every component by level-synchronous BFS; True on a clash."""
    colour = np.full(len(table), -1, dtype=np.int8)
    for s in np.flatnonzero(table[:, 0] >= 0):
        if colour[s] >= 0:
            continue
        frontier, c = np.array([s]), 0
        colour[s] = 0
        while len(frontier):
            heads = table[frontier]
            heads = heads[heads >= 0]
            if (colour[heads] == c).any():
                return True
            c ^= 1
            frontier = np.unique(heads[colour[heads] < 0])
            colour[frontier] = c
    return False


def girth(g: Graph, roots=None):
    """Length of the shortest cycle (loops excluded); math.inf for forests.

    Level-synchronous BFS from blocks of roots, each (root, vertex) pair a
    slot of one flat array.  With no `roots`, every root r expands only
    neighbours above r: a shortest cycle is found from its minimum vertex
    over G[>= r] (Itai & Rodeh, 1978), and no root reports less than the
    girth.  Given `roots`, each runs a plain BFS, which returns a length
    between the girth and the shortest cycle through it; the result is
    their minimum, the girth when some shortest cycle passes through a
    root (as one does through each automorphism orbit).  Expanding level
    d, an arc into level d closes a cycle of length 2d+1 and a new vertex
    reached twice (found by scatter and read-back) one of length 2d+2;
    arcs back to level d - 1, the parent arcs among them, are dropped.
    Level d runs only while 2d+1 < best, or 2d+2 < best when the whole
    graph has no odd cycle, and roots run until best is 3 (4 with no odd
    cycle).  The first block is one root, so best is known before the
    blocks of GIRTH_CHUNK // n roots run; each block resets only the slots
    it wrote.
    """
    n = g.n
    if not edge_count(g):
        return math.inf
    table = g.table
    slack = 1 if _has_odd_cycle(table) else 2
    if roots is None:
        roots = floor = np.arange(n, dtype=np.int32)
    else:
        roots = np.asarray(roots, dtype=np.int32)
        floor = np.full(len(roots), -1, dtype=np.int32)
    size = min(len(roots), max(1, GIRTH_CHUNK // n))
    level = np.full(size * n, -1, dtype=np.int32)  # BFS depth reaches n / 2
    owner = np.empty(size * n, dtype=np.int32)  # a level has under size * 2|E| < 2^31 arcs
    best, first, block = math.inf, 0, 1
    while first < len(roots) and best > 2 + slack:
        pos = np.arange(min(block, len(roots) - first), dtype=np.int32)
        start, tips = first, roots[first + pos]
        first, block = first + len(pos), size
        touched = [pos * n + tips]
        level[touched[0]] = 0
        d = 0
        while len(tips) and 2 * d + slack < best:
            nb = table[tips]
            keys = ((pos * n)[:, None] + nb)[nb > floor[start + pos][:, None]]  # above the floor
            seen = level[keys]  # the parent arc lands on level d - 1
            if slack == 1 and (seen == d).any():
                best = 2 * d + 1
                break
            keys = keys[seen < 0]
            arc = np.arange(len(keys), dtype=np.int32)
            owner[keys] = arc
            once = owner[keys] == arc
            if not once.all():
                best = 2 * d + 2
            keys = keys[once]
            d += 1
            level[keys] = d
            touched.append(keys)
            pos, tips = np.divmod(keys, n)
        level[np.concatenate(touched)] = -1
    return best


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------

def write_edge_list(g: Graph):
    """Plain-text edge list: `n m loops`, then `u v` (u < v), then `L v`,
    yielded as the header, a block per row_blocks block, then the loops."""
    yield f"{g.n} {edge_count(g)} {loop_count(g)}\n"
    for lo, rows in row_blocks(g):
        yield "".join([f"{u} {v}\n" for u, v in g.edges(lo, lo + len(rows))])
    yield "".join([f"L {v}\n" for v in g.loops.tolist()])


def _ints(what, i, ln, fields, count):
    """`count` integers from a line's fields, else ValueError naming the line."""
    try:
        vals = [int(x) for x in fields]
    except ValueError:
        vals = []
    if len(vals) != count:
        raise ValueError(f"{what} line {i}: expected {count} integers: {ln!r}")
    return vals


def read_edge_list(text: str, limit: int) -> Graph:
    """Parse write_edge_list's format strictly: every vertex in 0..n-1, no
    repeated edge or loop line, and the header's counts match the body.  A
    header n above the caller's ceiling `limit` is refused before the graph
    is built."""
    lines = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines:
        raise ValueError("edge list is empty")
    i, ln = lines[0]
    n, m, nloops = _ints("edge list", i, ln, ln.split(), 3)
    if n > limit:
        raise ValueError(f"edge list line {i}: {n} vertices exceed the ceiling {limit}: {ln!r}")
    edges, loops, seen = [], [], set()
    for i, ln in lines[1:]:
        fields = ln.split()
        if fields[0] == "L":
            vs = _ints("edge list", i, ln, fields[1:], 1)
            key = ("L", vs[0])
        else:
            vs = _ints("edge list", i, ln, fields, 2)
            key = (min(vs), max(vs))
            if vs[0] == vs[1]:
                raise ValueError(f"edge list line {i}: loop written as an edge: {ln!r}")
        for v in vs:
            if not 0 <= v < n:
                raise ValueError(f"edge list line {i}: vertex {v} outside 0..{n - 1}: {ln!r}")
        if key in seen:
            raise ValueError(f"edge list line {i}: repeated: {ln!r}")
        seen.add(key)
        if fields[0] == "L":
            loops.append(vs[0])
        else:
            edges.append(key)
    if len(edges) != m or len(loops) != nloops:
        raise ValueError("edge list header does not match body")
    return Graph.from_edges(n, edges, loops)


def write_partition(part: Partition) -> str:
    """One `vertex class` pair per line, vertices ascending."""
    lines = [f"{v} {c}" for v, c in enumerate(part.class_of.tolist())]
    return "\n".join(lines) + "\n"


def read_partition(text: str) -> Partition:
    """Parse write_partition's format strictly: each vertex of 0..N-1 on
    exactly one line, N the number of lines, classes in 0..N-1 (a class at
    N or above would leave some class empty)."""
    class_of, line_of = {}, {}
    for i, ln in enumerate(text.splitlines(), 1):
        if ln.strip():
            v, c = _ints("partition", i, ln, ln.split(), 2)
            if v in class_of:
                raise ValueError(f"partition line {i}: vertex {v} already on line {line_of[v]}: {ln!r}")
            if c < 0:
                raise ValueError(f"partition line {i}: negative class: {ln!r}")
            class_of[v], line_of[v] = c, i
    if not class_of:
        raise ValueError("partition is empty")
    n = len(class_of)
    for v, i in line_of.items():
        if not 0 <= v < n:
            raise ValueError(f"partition line {i}: vertex {v} outside 0..{n - 1} ({n} lines)")
        if class_of[v] >= n:
            raise ValueError(f"partition line {i}: class {class_of[v]} at or above the line count {n}")
    return Partition([class_of[v] for v in range(n)], max(class_of.values()) + 1)
