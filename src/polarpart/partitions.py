"""Closed-form complete partitions of the polarity graphs and the general
odd/even/polarity constructions for arbitrary triangular systems.

Every family scheme knows two things in closed form: its class layout
(which class a vertex belongs to, and the members of a class) and the
unique edge between two classes, whose diagonal (a class with itself) is
the loop vertex inside the class.  Two layouts serve the four schemes: gq
and gh fix a prefix of the coordinates, and plane and the general even-m
construction fix conjugation components.  Verification never trusts these
formulas; it checks them against the graphs.
"""

from __future__ import annotations

import random
from functools import cached_property

import numpy as np

from .gf import FieldCtx, find_normal_element
from .graphs import Partition
from .adg import ADGSpec, eval_expr_bulk, randrange_bulk

SYMMETRY_EXHAUSTIVE_LIMIT = 1_000_000
SYMMETRY_SAMPLES = 100_000


# ---------------------------------------------------------------------------
# family schemes
# ---------------------------------------------------------------------------

class _Classes:
    """A scheme's class layout on arrays of ids.

    Class ids and vertex ids (the spec's mixed-radix ids over `m`
    coordinates) go in as integer arrays and come out in one id dtype:
    int32 input stays int32 while the scheme's r * class_size ids fit it
    (n < 2^31, so a kernel table's ids go in as they are), and every other
    input becomes int64.
    """

    def _ids(self, values):
        values = np.asarray(values)
        int32 = values.dtype == np.int32 and self.r * self.class_size < 2 ** 31
        return values.astype(np.int32 if int32 else np.int64, copy=False)

    def class_of_ids(self, ids):
        """Class id of every vertex id, in the shape of `ids`."""
        return self._class_of_ids(self._ids(ids))


class _BulkForms(_Classes):
    """A family scheme's closed forms on arrays of ids: its layout's
    `_class_member` and its family's `_unique_edge`, on the field's bulk
    operations.  The scalar formulas are the oracle the tests hold them
    to."""

    def unique_edge_bulk(self, c1, c2):
        """(a ids, b ids): unique_edge(c1[i], c2[i]) for classes c1[i] != c2[i];
        c1[i] == c2[i] gives the loop vertex twice."""
        return self._unique_edge(self._ids(c1), self._ids(c2))

    def loop_vertex_bulk(self, cids):
        """Vertex id of loop_vertex(c) for every class id c: the diagonal
        of unique_edge_bulk."""
        return self.unique_edge_bulk(cids, cids)[0]

    def class_member_bulk(self, cids, picks):
        """Vertex id of member picks[i] of class cids[i], in class_members
        order; cids and picks broadcast."""
        return self._class_member(self._ids(cids), self._ids(picks))


class _ConjugationClasses(_Classes):
    """Classes of the even-m conjugation construction: key (x_1, y_2, ...,
    y_m), y_i the beta^q component of x_i over the basis (beta, beta^q);
    class id x_1 * q^(m-1) + the index in basis.subfield of each y_i, in
    base q."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.basis = find_normal_element(ctx)
        self.q = self.basis.q
        self.class_size = self.q ** (self.m - 1)
        self.r = ctx.order * self.class_size

    def _class_of_ids(self, ids):
        _, _, decompose, _ = self.basis.vectors()
        order = self.ctx.order
        cids = ids // order ** (self.m - 1)
        for i in range(self.m - 2, -1, -1):
            cids = cids * self.q + decompose[ids // order ** i % order] % self.q
        return cids

    def class_key(self, cid):
        ys = []
        for _ in range(self.m - 1):
            ys.append(self.basis.subfield[cid % self.q])
            cid //= self.q
        ys.reverse()
        return (cid, *ys)


class PlaneScheme(_ConjugationClasses, _BulkForms):
    """Classes keyed by (x, y): x in GF(q^2), y in GF(q); the class holds
    the q vertices (x, a*beta + y*beta^q).  The conjugation construction
    at m = 2."""

    family = "plane"
    m = 2

    def class_members(self, cid):
        x, y = self.class_key(cid)
        b = self.basis
        return [(x, b.recompose_beta(a, y)) for a in b.subfield]

    def loop_vertex(self, cid):
        x, y = self.class_key(cid)
        ctx, b = self.ctx, self.basis
        s_x, t_x = b.decompose_beta(ctx.pow(x, self.q + 1))
        assert s_x == t_x
        return (x, b.recompose_beta(ctx.sub(s_x, y), y))

    def unique_edge(self, cid1, cid2):
        """The one cross edge between distinct classes, else the loop vertex."""
        if cid1 == cid2:
            return self.loop_vertex(cid1)
        ctx, b = self.ctx, self.basis
        x, y = self.class_key(cid1)
        z, w = self.class_key(cid2)
        s, t = b.decompose_beta(ctx.mul(x, b.conj(z)))
        return (
            (x, b.recompose_beta(ctx.sub(s, w), y)),
            (z, b.recompose_beta(ctx.sub(t, y), w)),
        )

    # Array formulas.  A subfield element is handled by its index i in
    # basis.subfield; u = subfield[i]*beta + subfield[j]*beta^q has
    # decompose[u] = i*q + j and recompose[i*q + j] = u (QuadBasis.vectors).

    def _class_member(self, cids, picks):
        _, _, _, recompose = self.basis.vectors()
        x, y = divmod(cids, self.q)
        return x * self.ctx.order + recompose[picks * self.q + y]

    @cached_property
    def _edge_tables(self):
        """_unique_edge's gather tables: x and y of every class id x q + y
        (r entries); s q and t q of decompose(x conj z) = s q + t at
        x * order + z (order^2 entries, as many as vertices); index(s - w) q
        at s q + w (q^2 entries).  No table is int64, so ids keep the dtype
        of c1 and c2."""
        subfield, index, decompose, _ = self.basis.vectors()
        ctx, q, u = self.ctx, self.q, np.arange(self.ctx.order)
        conj = ctx.frob_vector(self.basis.sub_degree)
        s, t = divmod(decompose[ctx.mul_bulk(u[:, None], conj[u]).ravel()], q)
        diff = index[ctx.sub_bulk(subfield[:, None], subfield).ravel()] * q
        return (*divmod(np.arange(self.r, dtype=np.int32), q), s * q, t * q, diff)

    def _unique_edge(self, c1, c2):
        # x conj(x) lies in GF(q), so on the diagonal s = t and both ends
        # are the loop vertex
        recompose = self.basis.vectors()[3]
        x, y, sq, tq, diff = self._edge_tables
        y1, y2 = y.take(c1), y.take(c2)
        base1 = (c1 - y1) * self.q  # x * order
        xz = base1 + x.take(c2)
        a = diff.take(sq.take(xz) + y2)
        b = diff.take(tq.take(xz) + y1)
        return base1 + recompose.take(a + y1), (c2 - y2) * self.q + recompose.take(b + y2)


class _CoordinatePrefix(_BulkForms):
    """Classes fix the first `key_len` coordinates: class id = those
    coordinates in base q, vertex id = class id * class_size + pick, pick
    the other m - key_len coordinates in base q."""

    def __init__(self, ctx: FieldCtx, e: int):
        self.ctx = ctx
        self.e = e
        self.q = ctx.order
        self.r = self.q ** self.key_len
        self.class_size = self.q ** (self.m - self.key_len)

    def class_key(self, cid):
        q = self.q
        return tuple(int(cid) // q ** i % q for i in range(self.key_len - 1, -1, -1))

    def _class_of_ids(self, ids):
        return ids // self.class_size

    def _class_member(self, cids, picks):
        return cids * self.class_size + picks


class GQScheme(_CoordinatePrefix):
    """Classes keyed by (p1, p2), each holding the q vertices (p1, p2, a)."""

    family = "gq"
    m = 3
    key_len = 2

    def class_members(self, cid):
        p1, p2 = self.class_key(cid)
        return [(p1, p2, a) for a in range(self.q)]

    def loop_vertex(self, cid):
        ctx = self.ctx
        p1, p2 = self.class_key(cid)
        fe1 = ctx.frob_table(self.e + 1)
        third = ctx.add(ctx.mul(fe1[p1], ctx.mul(p1, p1)), fe1[p2])
        return (p1, p2, third)

    def unique_edge(self, cid1, cid2):
        if cid1 == cid2:
            return self.loop_vertex(cid1)
        ctx = self.ctx
        p1, p2 = self.class_key(cid1)
        r1, r2 = self.class_key(cid2)
        fe1 = ctx.frob_table(self.e + 1)
        a = ctx.add(ctx.mul(ctx.mul(p1, p1), fe1[r1]), fe1[r2])
        b = ctx.add(ctx.mul(fe1[p1], ctx.mul(r1, r1)), fe1[p2])
        return ((p1, p2, a), (r1, r2, b))

    def _unique_edge(self, c1, c2):
        # on the diagonal both ends are the loop's F(p1) p1^2 + F(p2), F = Frob^(e+1)
        fe1 = self.ctx.frob_vector(self.e + 1)
        add, mul = self.ctx.add_bulk, self.ctx.mul_bulk
        p1, p2 = divmod(c1, self.q)
        r1, r2 = divmod(c2, self.q)
        a = add(mul(mul(p1, p1), fe1[r1]), fe1[r2])
        b = add(mul(fe1[p1], mul(r1, r1)), fe1[p2])
        return c1 * self.q + a, c2 * self.q + b


class GHScheme(_CoordinatePrefix):
    """Classes keyed by (p1, p2, p3), each holding the q^2 vertices
    (p1, p2, p3, a, b)."""

    family = "gh"
    m = 5
    key_len = 3

    def class_members(self, cid):
        p1, p2, p3 = self.class_key(cid)
        q = self.q
        return [(p1, p2, p3, a, b) for a in range(q) for b in range(q)]

    def loop_vertex(self, cid):
        ctx = self.ctx
        p1, p2, p3 = self.class_key(cid)
        fe1 = ctx.frob_table(self.e + 1)
        p13 = ctx.pow(p1, 3)
        f = fe1[p1]
        a = ctx.sub(ctx.mul(p13, f), fe1[p2])
        b = ctx.sub(ctx.mul(p13, ctx.mul(f, f)), fe1[p3])
        return (p1, p2, p3, a, b)

    def unique_edge(self, cid1, cid2):
        if cid1 == cid2:
            return self.loop_vertex(cid1)
        ctx = self.ctx
        p1, p2, p3 = self.class_key(cid1)
        r1, r2, r3 = self.class_key(cid2)
        fe1 = ctx.frob_table(self.e + 1)
        t = fe1[r1]
        p13 = ctx.pow(p1, 3)
        a = ctx.sub(ctx.mul(p13, t), fe1[r2])
        b = ctx.sub(ctx.mul(p13, ctx.mul(t, t)), fe1[r3])
        c = fe1[ctx.sub(ctx.mul(p1, t), p2)]
        d = fe1[ctx.sub(ctx.mul(ctx.mul(p1, p1), t), p3)]
        return ((p1, p2, p3, a, b), (r1, r2, r3, c, d))

    def _unique_edge(self, c1, c2):
        # F = Frob^(e+1) squares to cubing on GF(3^(2e+1)), so on the
        # diagonal c = F(p1 F(p1) - p2) = a and likewise d = b
        ctx, fe1, q = self.ctx, self.ctx.frob_vector(self.e + 1), self.q
        sub, mul = ctx.sub_bulk, ctx.mul_bulk
        p1, p2, p3 = c1 // (q * q), c1 // q % q, c1 % q
        t = fe1[c2 // (q * q)]
        p13 = ctx.pow_vector(3)[p1]
        a = sub(mul(p13, t), fe1[c2 // q % q])
        b = sub(mul(p13, mul(t, t)), fe1[c2 % q])
        c = fe1[sub(mul(p1, t), p2)]
        d = fe1[sub(mul(mul(p1, p1), t), p3)]
        return (c1 * q + a) * q + b, (c2 * q + c) * q + d


def scheme_partition(scheme, spec: ADGSpec) -> Partition:
    """Materialize a family scheme as a Partition over polarity-graph ids."""
    return Partition(scheme.class_of_ids(np.arange(spec.side_size)), scheme.r)


def class_key_sidecar(scheme):
    """class id -> key coordinates, for the JSON sidecar next to partitions."""
    return {str(cid): list(scheme.class_key(cid)) for cid in range(scheme.r)}


# ---------------------------------------------------------------------------
# point-line symmetry
# ---------------------------------------------------------------------------

def is_point_line_symmetric(spec: ADGSpec, seed=0):
    """Whether every f_j is invariant under swapping l_i with p_i.

    f_j runs on the bulk expression evaluator over its full domain while
    that stays below SYMMETRY_EXHAUSTIVE_LIMIT tuples, and over
    SYMMETRY_SAMPLES tuples drawn from random.Random(seed) above it.  A
    domain tuple t reads l_1..l_k, p_1..p_k off t's base-q digits, lowest
    first; a sample is k randrange(q) values of l, then k of p.  Returns
    (ok, witness); the witness is (j, lvals, pvals) for the first violation.
    """
    ctx, q = spec.ctx, spec.ctx.order
    for i, f in enumerate(spec.fs):
        nargs = i + 1  # f_{i+2} reads l_1..l_{i+1}, p_1..p_{i+1}
        width = 2 * nargs
        if q ** width <= SYMMETRY_EXHAUSTIVE_LIMIT:
            # the domain as a broadcast grid: digit k on axis width-1-k, so
            # the C-order position of a tuple is its index t
            shape = (q,) * width
            vals = [np.arange(q, dtype=ctx.dtype).reshape((q,) + (1,) * k) for k in range(width)]
        else:
            shape = (SYMMETRY_SAMPLES,)
            draws = randrange_bulk(random.Random(seed), (q,) * width, SYMMETRY_SAMPLES)
            vals = list(draws.astype(ctx.dtype).T)
        lv, pv = vals[:nargs], vals[nargs:]
        bad = eval_expr_bulk(f, ctx, lv, pv) != eval_expr_bulk(f, ctx, pv, lv)
        bad = np.broadcast_to(bad, shape)
        if bad.any():
            t = int(bad.argmax())
            row = [int(np.broadcast_to(v, shape).flat[t]) for v in vals]
            return False, (i + 2, tuple(row[:nargs]), tuple(row[nargs:]))
    return True, None


# ---------------------------------------------------------------------------
# general constructions for triangular systems
# ---------------------------------------------------------------------------

def general_odd_partition(spec: ADGSpec, pairing=None):
    """Pair point classes (fixed odd coordinates) with line classes (fixed
    l_1 and even coordinates) into a complete partition of the bipartite
    graph; m must be odd.

    The pairing maps point-key encodings to line-key encodings and defaults
    to the identity.  Returns (Partition over bipartite ids, r).
    """
    m = spec.m
    if m % 2 == 0:
        raise ValueError("odd construction needs odd m")
    r = spec.ctx.order ** ((m + 1) // 2)
    pairing = np.arange(r) if pairing is None else np.asarray(pairing, dtype=np.int64)
    if not np.array_equal(np.sort(pairing), np.arange(r)):
        raise ValueError("pairing is not a bijection on class keys")
    inverse = np.empty(r, dtype=np.int64)
    inverse[pairing] = np.arange(r)
    coords = spec.ids_to_coords(np.arange(spec.side_size))
    points = spec.coords_to_ids(coords[0::2])  # p_1, p_3, ..., p_m
    lines = spec.coords_to_ids([coords[0], *coords[1:m - 1:2]])  # l_1, l_2, l_4, ..., l_{m-1}
    return Partition(np.concatenate([points, inverse[lines]]), r), r


def general_even_partition(spec: ADGSpec):
    """Complete partition of the bipartite graph for even m over GF(q^2),
    splitting the last coordinate over the {1, mu} basis.

    Point classes fix the odd coordinates and the 1-component of the last;
    line classes fix l_1, the even coordinates below m, and the
    mu-component of the last.  Returns (Partition, r, basis).
    """
    m = spec.m
    if m % 2 != 0:
        raise ValueError("even construction needs even m")
    basis = find_normal_element(spec.ctx)
    q = basis.q
    r = q ** (m + 1)
    index = basis.vectors()[1]
    coords = spec.ids_to_coords(np.arange(spec.side_size))
    s, t = basis.decompose_mu(coords[m - 1])
    # point keys p_1, p_3, ..., p_{m-1}, s; line keys l_1, l_2, ..., l_{m-2}, t
    points = spec.coords_to_ids(coords[0:m - 1:2]) * q + index[s]
    lines = spec.coords_to_ids([coords[0], *coords[1:m - 2:2]]) * q + index[t]
    return Partition(np.concatenate([points, lines]), r), r, basis


class GeneralPolarityScheme(_ConjugationClasses):
    """Theorem-style classes on the polarity graph of a point-line-symmetric
    even-m system.  It has class_of_ids and class_key but no member, edge
    or loop-vertex formulas."""

    family = "generic"

    def __init__(self, spec: ADGSpec):
        if spec.m % 2 != 0:
            raise ValueError("polarity construction needs even m")
        ok, witness = is_point_line_symmetric(spec)
        if not ok:
            raise ValueError(f"adjacency functions are not point-line-symmetric: {witness}")
        self.spec = spec
        self.m = spec.m
        super().__init__(spec.ctx)


def general_polarity_partition(spec: ADGSpec):
    """Partition of the conjugation polarity graph into q^(m+1) classes of
    size q^(m-1); optimally complete by construction, verified elsewhere.

    Returns (Partition over point ids, scheme).
    """
    scheme = GeneralPolarityScheme(spec)
    return scheme_partition(scheme, spec), scheme
