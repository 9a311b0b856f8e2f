"""Algebraically defined bipartite graphs, polarities, and polarity graphs.

A spec over GF(q) with dimension m carries adjacency functions f_2..f_m;
point (p_1..p_m) and line [l_1..l_m] are adjacent iff
l_j + p_j = f_j(l_1, p_1, ..., l_{j-1}, p_{j-1}) for every j.  Given a point
and l_1, the system solves forward coordinate by coordinate, so every point
lies on exactly q lines (and dually), which is what makes implicit neighbor
enumeration cheap.

Adjacency functions are small expression trees (not opaque callables) so
specs load from JSON and symmetry checks can sweep their domain.
"""

from __future__ import annotations

import ctypes
import functools
import numbers
import random
import weakref
from dataclasses import dataclass

import numpy as np

from .gf import FieldCtx, make_field, prime_power
from .graphs import Graph

# -- expression trees --------------------------------------------------------
# ("var", "p"|"l", i)   1-based coordinate reference
# ("const", c)          field constant by encoding
# ("add"|"sub"|"mul", a, b)
# ("neg", a)
# ("pow", a, n)         integer n >= 0

ARITY = {"var": 2, "const": 1, "add": 2, "sub": 2, "mul": 2, "neg": 1, "pow": 2}

# Levels of lists and objects a JSON spec may nest (a family's spec nests
# 5), so that the walks over a tree, which recurse once a level, stay far
# below the interpreter's recursion limit.
MAX_SPEC_DEPTH = 100


def var_p(i):
    return ("var", "p", i)


def var_l(i):
    return ("var", "l", i)


def const(c):
    return ("const", c)


def add(a, b):
    return ("add", a, b)


def sub(a, b):
    return ("sub", a, b)


def mul(a, b):
    return ("mul", a, b)


def neg(a):
    return ("neg", a)


def powi(a, n):
    return ("pow", a, n)


def expr_from_json(obj):
    return tuple(map(expr_from_json, obj)) if isinstance(obj, list) else obj


def _nesting(obj):
    """The depth of nested lists and objects in JSON data, walked with a
    stack of its own."""
    depth, stack = 0, [(obj, 0)]
    while stack:
        x, d = stack.pop()
        if isinstance(x, (list, dict)):
            depth = max(depth, d + 1)
            stack += [(y, d + 1) for y in (x.values() if isinstance(x, dict) else x)]
    return depth


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def check_expr(e, ctx: FieldCtx):
    """Raise ValueError unless e is a well-formed expression over ctx: known
    ops with their arity, var sides p or l with index >= 1, constants that
    are elements of the field, pow exponents >= 0."""
    if not (isinstance(e, tuple) and e and isinstance(e[0], str) and e[0] in ARITY
            and len(e) == 1 + ARITY[e[0]]):
        raise ValueError(f"malformed expression {e!r}: ops and arities are {ARITY}")
    op, args = e[0], e[1:]
    if op == "var":
        if args[0] not in ("p", "l") or not _is_int(args[1]) or args[1] < 1:
            raise ValueError(f"bad coordinate {e!r}: side must be 'p' or 'l', index >= 1")
    elif op == "const":
        if not _is_int(args[0]) or not 0 <= args[0] < ctx.order:
            raise ValueError(f"constant {args[0]!r} is not an element of {ctx!r}")
    elif op == "pow":
        check_expr(args[0], ctx)
        if not _is_int(args[1]) or args[1] < 0:
            raise ValueError(f"pow exponent {args[1]!r} must be an int >= 0")
    else:
        for a in args:
            check_expr(a, ctx)


def compile_expr(e, ctx: FieldCtx):
    """Closure (lvals, pvals) -> element; coordinates are 0-indexed tuples."""
    op = e[0]
    if op == "var":
        i = e[2] - 1
        if e[1] == "l":
            return lambda lv, pv: lv[i]
        return lambda lv, pv: pv[i]
    if op == "const":
        c = e[1]
        return lambda lv, pv: c
    if op == "neg":
        f = compile_expr(e[1], ctx)
        t = [ctx.neg(u) for u in range(ctx.order)]
        return lambda lv, pv: t[f(lv, pv)]
    if op == "pow":
        f = compile_expr(e[1], ctx)
        n = e[2]
        t = [ctx.pow(u, n) for u in range(ctx.order)]
        return lambda lv, pv: t[f(lv, pv)]
    f = compile_expr(e[1], ctx)
    g = compile_expr(e[2], ctx)
    o = {"add": ctx.add, "sub": ctx.sub, "mul": ctx.mul}[op]
    return lambda lv, pv: o(f(lv, pv), g(lv, pv))


def expr_vars(e):
    """Every coordinate reference ("p"|"l", i) an expression reads."""
    if e[0] == "var":
        return {e[1:]}
    return set().union(*(expr_vars(x) for x in e[1:] if isinstance(x, tuple)))


def max_var_index(e):
    return max((i for _, i in expr_vars(e)), default=0)


def _monomial(e):
    """(a, b) when e is p_1^a l_1^b written with var, pow and mul, else None."""
    op = e[0]
    if op == "var":
        return {("p", 1): (1, 0), ("l", 1): (0, 1)}.get(e[1:])
    if op == "pow":
        base = _monomial(e[1])
        return None if base is None else (base[0] * e[2], base[1] * e[2])
    if op == "mul":
        x, y = _monomial(e[1]), _monomial(e[2])
        return None if x is None or y is None else (x[0] + y[0], x[1] + y[1])
    return None


def _swap_sides(e):
    """e with p and l swapped in every coordinate reference (no op is named p or l)."""
    return tuple(map(_swap_sides, e)) if isinstance(e, tuple) else {"p": "l", "l": "p"}.get(e, e)


# -- specs -------------------------------------------------------------------

@dataclass(frozen=True)
class ADGSpec:
    """Bipartite graph over two copies of GF(q)^m with triangular adjacency."""

    ctx: FieldCtx
    m: int
    fs: tuple  # fs[i] is the expression for f_{i+2}

    def __post_init__(self):
        if not _is_int(self.m) or self.m < 2:
            raise ValueError(f"dimension m must be an int >= 2, got {self.m!r}")
        if len(self.fs) != self.m - 1:
            raise ValueError(f"need {self.m - 1} adjacency functions, got {len(self.fs)}")
        for i, f in enumerate(self.fs):
            check_expr(f, self.ctx)
            if max_var_index(f) > i + 1:
                raise ValueError(f"f_{i + 2} reads coordinates past index {i + 1}")

    def compiled(self):
        fns = getattr(self, "_fns", None)
        if fns is None:
            fns = [compile_expr(f, self.ctx) for f in self.fs]
            object.__setattr__(self, "_fns", fns)
        return fns

    @classmethod
    def from_json(cls, obj):
        """The spec {"field": {"p", "k", "modulus"?}, "m", "fs"}, each f an
        expression tree as nested lists; malformed input raises ValueError."""
        if _nesting(obj) > MAX_SPEC_DEPTH:
            raise ValueError(f"spec nests deeper than {MAX_SPEC_DEPTH} levels")
        try:
            field, m, fs = obj["field"], obj["m"], obj["fs"]
            p, k = field["p"], field["k"]
            unknown = sorted({*obj} - {"field", "m", "fs"} | {*field} - {"p", "k", "modulus"})
        except (KeyError, TypeError):
            raise ValueError('a spec is an object {"field": {"p", "k"}, "m", "fs"}') from None
        if unknown:
            raise ValueError(f"unknown spec key {unknown[0]!r}")
        if not (_is_int(p) and _is_int(k) and isinstance(fs, list)):
            raise ValueError("spec field p and k must be ints and fs a list")
        ctx = make_field(p, k)
        if field.get("modulus", list(ctx.modulus)) != list(ctx.modulus):
            raise ValueError(f"modulus {field['modulus']}: GF({ctx.order}) has {[*ctx.modulus]}")
        return cls(ctx, m, tuple(map(expr_from_json, fs)))

    # -- incidence ----------------------------------------------------------

    def line_through(self, pvals, l1):
        """The unique line with first coordinate l1 through the point."""
        ctx_sub = self.ctx.sub
        fns = self.compiled()
        lv = [l1]
        for j, fn in enumerate(fns):
            lv.append(ctx_sub(fn(lv, pvals), pvals[j + 1]))
        return tuple(lv)

    def point_on(self, lvals, p1):
        """The unique point with first coordinate p1 on the line."""
        ctx_sub = self.ctx.sub
        fns = self.compiled()
        pv = [p1]
        for j, fn in enumerate(fns):
            pv.append(ctx_sub(fn(lvals, pv), lvals[j + 1]))
        return tuple(pv)

    def incident(self, pvals, lvals):
        ctx = self.ctx
        for j, fn in enumerate(self.compiled()):
            if ctx.add(lvals[j + 1], pvals[j + 1]) != fn(lvals, pvals):
                return False
        return True

    # -- bulk incidence: coordinates are m arrays of ctx.dtype that broadcast -

    def dual(self):
        """The spec with p and l swapped in every f_j, whose points are lines;
        cached, by a closure here and by a weak reference back on the dual."""
        dual = getattr(self, "_dual", lambda: None)()
        if dual is None:
            dual = ADGSpec(self.ctx, self.m, tuple(map(_swap_sides, self.fs)))
            object.__setattr__(dual, "_dual", weakref.ref(self))
            object.__setattr__(self, "_dual", lambda: dual)
        return dual

    def tables(self):
        """Per-equation lookup tables, built on first use: entry j is
        (a, b, F, S) for an equation that reads at most one line coordinate
        l_{a+1} and one point coordinate p_{b+1} (0 where none), while q^2 <=
        TABLE_BUDGET, else None; so dual() swaps a and b and transposes F.
        F[u, t] = fs[j] at l_{a+1} = u, p_{b+1} = t, and S[u*q + x, t] = F[u,
        t] - x (p_{j+2} at x = l_{j+2}) where q^3 <= FOLD_BUDGET, else None, in ctx.dtype."""
        tabs = getattr(self, "_tables", None)
        if tabs is None:
            q, dtype = self.ctx.order, self.ctx.dtype
            grid = np.arange(q, dtype=dtype)
            lv, pv = [grid[:, None]] * self.m, [grid[None, :]] * self.m
            tabs = []
            for f in self.fs:
                reads = [[i - 1 for s, i in expr_vars(f) if s == side] for side in "lp"]
                if q * q > TABLE_BUDGET or max(map(len, reads)) > 1:
                    tabs.append(None)
                    continue
                a, b = (max(r, default=0) for r in reads)
                F = np.broadcast_to(eval_expr_bulk(f, self.ctx, lv, pv), (q, q)).astype(dtype)
                S = (None if q ** 3 > FOLD_BUDGET else
                     self.ctx.sub_bulk(F[:, None, :], grid[None, :, None]).reshape(q * q, q))
                tabs.append((a, b, F, S))
            object.__setattr__(self, "_tables", tabs)
        return tabs

    def solve_bulk(self, j, lvals, pvals, x):
        """fs[j] - x on coordinate arrays: one take from tables()[j]'s S at
        (l_{a+1}*q + x)*q + p_{b+1} where it exists; otherwise fs[j], from
        its F at l_{a+1}*q + p_{b+1} or the expression evaluator, minus x."""
        q, tab = self.ctx.order, self.tables()[j]
        if tab is None:
            return self.ctx.sub_bulk(eval_expr_bulk(self.fs[j], self.ctx, lvals, pvals), x)
        a, b, F, S = tab
        if S is not None:
            return S.ravel().take(np.multiply(lvals[a], q * q, dtype=np.int32)
                                  + (np.multiply(x, q, dtype=np.int32) + pvals[b]))
        return self.ctx.sub_bulk(F.ravel().take(np.multiply(lvals[a], q, dtype=np.int32)
                                                + pvals[b]), x)

    def point_on_bulk(self, lvals, p1):
        """point_on on arrays: the points with first coordinate p1 on the
        lines lvals, as m arrays of the broadcast shape."""
        pv = [p1]
        for j in range(self.m - 1):
            pv.append(self.solve_bulk(j, lvals, pv, lvals[j + 1]))
        return np.broadcast_arrays(*pv)

    def incident_bulk(self, pvals, lvals):
        """incident on arrays: whether point_on_bulk at p_1 gives the point."""
        return _rows_equal(self.point_on_bulk(lvals, pvals[0])[1:], pvals[1:])

    # -- vertex ids: mixed radix, big-endian, points before lines ------------

    def coords_to_ids(self, coords):
        """m coordinate arrays -> int64 ids."""
        q = self.ctx.order
        ids = np.zeros(np.shape(coords[0]), dtype=np.int64)
        for c in coords:
            ids = ids * q + c
        return ids

    def ids_to_coords(self, ids):
        """int ids 0..q^m-1 -> m coordinate arrays of ctx.dtype, divided in
        int32 while q^m <= 2^31 (about 4x faster than int64 % and //)."""
        q = self.ctx.order
        rest = np.asarray(ids, dtype=np.int32 if self.side_size <= 2 ** 31 else np.int64)
        out = [None] * self.m
        for i in range(self.m - 1, 0, -1):
            high = rest // q
            out[i] = (rest - high * q).astype(self.ctx.dtype)
            rest = high
        out[0] = rest.astype(self.ctx.dtype)
        return out

    @property
    def side_size(self):
        return self.ctx.order ** self.m

    def point_ids(self, digits, coords=None):
        """The (N, q) ids of the q points on each of N lines, by ascending first
        coordinate t: t*q^(m-1) + sum_j (f_j - l_{j+2})*q^(m-2-j), the lines read
        from the m (N,) arrays `digits` by the map `coords` of id_kernel: one
        gather a term of its kernel, in its dtype, or else point_on_bulk, in int64."""
        q, m, kernel = self.ctx.order, self.m, self.id_kernel(coords)
        if kernel is None:
            lines = digits if coords is None else [
                self.ctx.frob_vector(r).take(digits[src]) for src, r in coords]
            t = np.arange(q, dtype=self.ctx.dtype)[None, :]
            return self.coords_to_ids(self.point_on_bulk([c[:, None] for c in lines], t))
        for j, (x, y, index, table) in enumerate(kernel):
            if index is None:  # folded: the row of the digit pair
                term = table.take(np.multiply(digits[x], q, dtype=np.intp) + digits[y], axis=0)
            else:
                term = index.take(digits[x], axis=0)
                term += digits[y][:, None]
                term = table.take(term)
            total = np.add(total, term, out=total) if j else term
        if index is not None:  # square, as every term is: t*q^(m-1) is in no table
            total += np.arange(0, q ** m, q ** (m - 1), dtype=total.dtype)
        return total

    def id_kernel(self, coords=None):
        """Per equation j, (x, y, index, table) for the map `coords`
        (default the identity), built on first use per map; None unless
        every equation has a table with b = 0.  coords[i] = (src, r), as in
        point_to_line, reads line coordinate i as digit src to the p^r, so
        term j reads digits x and y, the sources of l_{a+1} and l_{j+2}.
        Entries, scaled by q^(m-2-j), are int32 while ids are, else int64.
        Folded, where S exists, index is None and table row u*q + w is S_j's
        row Frob^r_x(u)*q + Frob^r_y(w), plus t*q^(m-1) at j = 0; else index
        is F_j*q with rows permuted by Frob^r_x, and table the flat q x q
        subtraction table with columns permuted by Frob^r_y."""
        coords = tuple(coords or ((i, 0) for i in range(self.m)))
        kernels = self.__dict__.setdefault("_kernels", {})
        if coords not in kernels:
            q, m, tabs, frob = self.ctx.order, self.m, self.tables(), self.ctx.frob_vector
            kernel = None
            if None not in tabs and not any(tab[1] for tab in tabs):
                grid = np.arange(q)
                dtype = np.int32 if q ** m <= 2 ** 31 else np.int64
                sub = self.ctx.sub_bulk(grid[:, None], grid[None, :]).astype(dtype)
                first = np.arange(0, q ** m, q ** (m - 1), dtype=dtype)  # t*q^(m-1)
                kernel = []
                for j, (a, _, F, S) in enumerate(tabs):
                    (x, rx), (y, ry) = coords[a], coords[j + 1]
                    u, w, scale = frob(rx), frob(ry), dtype(q ** (m - 2 - j))
                    if S is None:
                        kernel.append((x, y, F[u].astype(np.int32) * q, sub[:, w].ravel() * scale))
                    else:
                        table = S.reshape(q, q, q)[u][:, w].reshape(q * q, q) * scale
                        kernel.append((x, y, None, table + (0 if j else first)))
            kernels[coords] = kernel
        return kernels[coords]

    def incidence_graph(self, limit):
        """The incidence graph, proven by _proven_graph: point ids 0..q^m-1,
        then line ids; a line's row is point_ids of its coordinates, a
        point's is the lines through it, point_ids on the dual.  No loops."""
        return _proven_graph(self, [lambda ids: self.dual().point_ids(self.ids_to_coords(ids)),
                                    lambda ids: self.point_ids(self.ids_to_coords(ids))],
                             lambda: np.zeros(0, dtype=np.int64), limit)

    def translation_ids(self, pol=None):
        """T as ascending point ids, all below q^(m-1): every t with t_1 = 0,
        or, given the polarity `pol`, those with polar(t) = -t too; None
        when some f_j reads a coordinate other than p_1 or l_1.  Otherwise
        each translation (p, l) -> (p + t, l - t) with t_1 = 0 preserves
        incidence.  The polarity is additive, so polar(p + t) = polar(p) - t
        for t in T, and p -> p + t maps the polarity graph onto itself,
        loops included.  verify.orbit_roots folds T, then the scaling,
        into orbit minima."""
        if any(expr_vars(f) - {("p", 1), ("l", 1)} for f in self.fs):
            return None
        ctx = self.ctx
        ts = np.arange(ctx.order ** (self.m - 1))
        if pol is None:
            return ts
        coords = self.ids_to_coords(ts)
        lines = pol.polar(ctx, coords)
        return np.flatnonzero(np.all([a == ctx.neg_bulk(c) for a, c in zip(lines, coords)], axis=0))

    def scaling(self, pol=None):
        """(point factors, line factors) of a scaling, or None when some
        f_j is not p_1^a l_1^b written with var, pow and mul.  Multiplying
        each coordinate by its factor preserves incidence: p_1 by lambda,
        the field generator, l_1 by mu, and coordinate j of both sides by
        lambda^a mu^b.  mu is 1 on the incidence graph.  Given the polarity
        `pol`, mu is the first element of GF(q)* for which line factor i is
        the point factor of src to the p^j, for point_to_line[i] = (src, j),
        so that the scaling commutes with the polarity and preserves the
        polarity graph, loops included; None when no mu does."""
        exps = [_monomial(f) for f in self.fs]
        if None in exps:
            return None
        ctx, lam = self.ctx, self.ctx.generator

        def factors(mu):
            rest = [ctx.mul(ctx.pow(lam, a), ctx.pow(mu, b)) for a, b in exps]
            return (lam, *rest), (mu, *rest)

        if pol is None:
            return factors(1)
        for mu in range(1, ctx.order):
            points, lines = factors(mu)
            if all(d == ctx.frobenius(points[src], j)
                   for d, (src, j) in zip(lines, pol.point_to_line)):
                return points, lines
        return None


# -- polarities ---------------------------------------------------------------

@dataclass(frozen=True)
class PolaritySpec:
    """Coordinate permutation with per-coordinate Frobenius twists.

    point_to_line[i] = (src, j) sets line coordinate i+1 to p_{src+1}^(p^j);
    line_to_point is the inverse direction.  Composing the two must be the
    identity (checked by check_polarity, not assumed).
    """

    point_to_line: tuple
    line_to_point: tuple

    def apply_point(self, ctx, pvals):
        return tuple(ctx.frob_table(j)[pvals[src]] for src, j in self.point_to_line)

    def polar(self, ctx, pvals):
        """apply_point on coordinate arrays."""
        return [ctx.frob_vector(j).take(pvals[src]) for src, j in self.point_to_line]

    def polar_line(self, ctx, lvals):
        """The inverse direction, line_to_point, on coordinate arrays."""
        return [ctx.frob_vector(j).take(lvals[src]) for src, j in self.line_to_point]


@dataclass
class PolarityCheck:
    ok: bool
    mode: str
    swaps_sides: bool
    involution: bool
    preserves_adjacency: bool
    checked_incidences: int
    witness: tuple | None

    def to_json(self):
        return {
            "ok": self.ok,
            "mode": self.mode,
            "swaps_sides": self.swaps_sides,
            "involution": self.involution,
            "preserves_adjacency": self.preserves_adjacency,
            "checked_incidences": self.checked_incidences,
            "witness": list(self.witness) if self.witness else None,
        }


def check_polarity(spec: ADGSpec, pol: PolaritySpec, mode="exhaustive",
                   samples=100_000, seed=0) -> PolarityCheck:
    """Verify pi swaps sides, squares to the identity, preserves adjacency.

    Exhaustive mode walks every point and every incidence; sampled mode
    draws `samples` random points (seed) and one random line through each
    (seed + 1), both SWEEP_BLOCK samples at a time.  Blocks of about
    SWEEP_BLOCK incidences (whole points, their lines solved on the dual)
    run on the bulk kernel; a ValueError refuses a negative or non-integer
    `samples` before any draw.  The first failing point in loop order gives
    the witness and the incidence count of the point-by-point loop the
    tests keep as reference; that loop's second involution check, on the
    polar line, holds wherever the first does.  Swapping sides is structural.
    """
    if len(pol.point_to_line) != spec.m or len(pol.line_to_point) != spec.m:
        raise ValueError("polarity dimension mismatch")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    check_counts(samples=samples)
    ctx = spec.ctx
    q, m = ctx.order, spec.m
    if mode == "exhaustive":
        n = spec.side_size
        step = max(1, SWEEP_BLOCK // q)
        every_l1 = np.arange(q, dtype=ctx.dtype)[None, :]
        chunks = ((spec.ids_to_coords(np.arange(lo, min(lo + step, n))), every_l1)
                  for lo in range(0, n, step))
    else:
        chunks = ((list(points.astype(ctx.dtype).T), first.astype(ctx.dtype)) for points, first
                  in zip(sample_blocks(random.Random(seed), (q,) * m, samples, SWEEP_BLOCK),
                         sample_blocks(random.Random(seed + 1), (q,), samples, SWEEP_BLOCK)))
    checked = 0
    for pv, l1 in chunks:
        l_img = pol.polar(ctx, pv)
        involution = _rows_equal(pol.polar_line(ctx, l_img), pv)
        lines = spec.dual().point_on_bulk([c[:, None] for c in pv], l1)
        preserves = spec.incident_bulk(pol.polar_line(ctx, lines), [c[:, None] for c in l_img])
        bad = ~(involution & preserves.all(axis=1))
        width = preserves.shape[1]
        if not bad.any():
            checked += len(bad) * width
            continue
        i = int(bad.argmax())
        checked += i * width
        p = _row(pv, i)
        if not involution[i]:
            return PolarityCheck(False, mode, True, False, True, checked, ("involution", p))
        j = int(preserves[i].argmin())
        witness = ("adjacency", p, _row([c[i] for c in lines], j))
        return PolarityCheck(False, mode, True, True, False, checked + j + 1, witness)
    return PolarityCheck(True, mode, True, True, True, checked, None)


# Candidate tests PolarityGraph.absolute_ids may make (check_scan_bound).
# On the hexagon spec its scan makes 571,563 at q = 27, 3,515,541,507 at
# q = 243 (e = 2), where it finds 14,348,907 absolute points in about 31 s
# on a 2-core host, and about 2.3e13 at q = 2187 (e = 3), too many to run.
ABSOLUTE_SCAN_LIMIT = 10 ** 10

# Entries each equation table F of ADGSpec.tables() may hold, 8 MB of
# int16: orders up to 2048 (plane q <= 45, gq e <= 5, gh e <= 2).  Above
# it (gh e = 3) every equation goes to the expression evaluator.
TABLE_BUDGET = 1 << 22

# Entries each solve table S of ADGSpec.tables() may hold, and so each of
# the folded id-kernel tables, about 1 MB of int32.  Above it (plane
# q >= 9, gq e >= 3, gh e >= 2) solve_bulk subtracts by sub_bulk, and the
# id kernel keeps the q x q form: at m = 2 a folded table would hold
# q^3 = n*q entries, as many as the whole neighbour table.
FOLD_BUDGET = 1 << 18

# Neighbour slots per block of PolarityGraph.neighbor_ids, few enough that
# a block's partial sums, in the tables' dtype, stay in cache.
ID_BLOCK = 1 << 16

# Elements per block of the bulk field sweeps: check_polarity's
# incidences and PolarityGraph.absolute_ids' candidates.  A block's
# operands, int32 indices and partial results then stay in L2.  On a
# 2-core host 2^15 takes 4.3 ms on plane q=9's exhaustive polarity check
# (4.9 ms at 2^14, 7.9 ms at 2^16) and 8.1 ms on the gh q=27 absolute scan
# (6.8 ms at 2^14).  verify_gh_original's grid slabs take GH_ORIGINAL_BLOCK.
SWEEP_BLOCK = 1 << 15

class PolarityGraph:
    """Polarity graph on the point side: p ~ r iff r lies on pi(p).

    The self-incidence (absolute point) is excluded from neighbor lists
    and recorded as a loop instead.
    """

    def __init__(self, spec: ADGSpec, pol: PolaritySpec):
        self.spec = spec
        self.pol = pol
        self.n = spec.side_size

    def neighbors_coords(self, pvals):
        lv = self.pol.apply_point(self.spec.ctx, pvals)
        points = (self.spec.point_on(lv, p1) for p1 in range(self.spec.ctx.order))
        return [r for r in points if r != pvals]

    def is_absolute(self, pvals):
        lv = self.pol.apply_point(self.spec.ctx, pvals)
        return self.spec.incident(pvals, lv)

    def neighbor_ids(self, ids):
        """neighbors_coords on int ids: the (N, q) int64 ids of the points
        on each vertex's polar line, by ascending first coordinate t, with
        -1 where that point is the vertex itself, which can only be at t =
        p_1: spec.point_ids of the vertices' digits through point_to_line,
        in blocks of ID_BLOCK // q vertices."""
        spec, q = self.spec, self.spec.ctx.order
        ids = np.asarray(ids, dtype=np.int64)
        nb = np.empty((len(ids), q), dtype=np.int64)
        step = max(1, ID_BLOCK // q)
        for lo in range(0, len(ids), step):
            block = ids[lo:lo + step]
            digits = spec.ids_to_coords(block)
            rows = spec.point_ids(digits, self.pol.point_to_line)
            at = np.arange(0, rows.size, q) + digits[0]
            np.put(rows, at[rows.take(at) == block], -1)
            nb[lo:lo + step] = rows
        return nb

    def scan_stages(self):
        """The absolute-point scan's order: (coordinate index, equations)
        pairs, one per point coordinate, 0-based.

        Once l = polar(p), equation j reads the point coordinates behind
        the l_i of fs[j] (l_i is p_src for point_to_line[i - 1] = (src, _)),
        the p_i of fs[j], p_{j+2} and the source of l_{j+2}.  The next
        coordinate bound is the one that completes an equation soonest,
        ties by index; each equation is listed at the step that completes
        its support.  Coordinates no equation reads come last.
        """
        src, reads = self._reads()
        supports = [reads[j] | {j + 1, src[j + 1]} for j in range(len(reads))]
        bound, stages, pending = set(), [], list(range(len(supports)))
        while pending:
            _, c = min((len(supports[j] - bound), i) for j in pending for i in supports[j] - bound)
            bound.add(c)
            stages.append((c, [j for j in pending if supports[j] <= bound]))
            pending = [j for j in pending if j not in stages[-1][1]]
        return stages + [(c, []) for c in range(self.spec.m) if c not in bound]

    def _reads(self):
        """(src, reads): l_i is p_{src[i-1]+1} once l = polar(p), and
        reads[j] holds the point coordinates behind fs[j], 0-based."""
        src = [s for s, _ in self.pol.point_to_line]
        return src, [{i - 1 if side == "p" else src[i - 1] for side, i in expr_vars(f)}
                     for f in self.spec.fs]

    def check_scan_bound(self):
        """An upper bound on the candidates absolute_ids' scan tests,
        ValueError above ABSOLUTE_SCAN_LIMIT: each stage tests the live ones
        times q, and a q-th live on where an equation j completed there
        reads the stage's coordinate once, as p_{j+2} or as the source of
        l_{j+2}, and not in fs[j].  Exact on the families; the scan tests
        fewer where a stage's equations cut more."""
        q, (src, reads) = self.spec.ctx.order, self._reads()
        live, work = 1, 0
        for c, eqs in self.scan_stages():
            live *= q
            work += live
            if any((j + 1 == c) != (src[j + 1] == c) and c not in reads[j] for j in eqs):
                live //= q
        if work > ABSOLUTE_SCAN_LIMIT:
            raise ValueError(
                f"the absolute-point scan may test up to {work:.2e} candidates, "
                f"above the limit {ABSOLUTE_SCAN_LIMIT:.0e}")
        return work

    def absolute_ids(self):
        """Sorted int64 ids of every absolute point, by an exact scan (cached).

        The scan binds one point coordinate at a time in scan_stages order,
        expanding the surviving candidates by its q values, at most
        SWEEP_BLOCK candidates a block; it tests incident(p, polar(p)) one
        equation at a time as soon as the equation's support is bound, and
        a candidate leaves at the first equation it fails.  Unbound
        coordinates read 0.  check_scan_bound runs first.
        """
        ids = getattr(self, "_absolute_ids", None)
        if ids is None:
            self.check_scan_bound()
            spec, ctx, q = self.spec, self.spec.ctx, self.spec.ctx.order
            stages, found = self.scan_stages(), []
            values = np.arange(q, dtype=ctx.dtype)

            def expand(c, eqs, pv):
                """The survivors of pv extended by coordinate c, by blocks."""
                flat = len(pv[0]) * q
                for lo in range(0, flat, SWEEP_BLOCK):
                    hi = min(lo + SWEEP_BLOCK, flat)
                    rows = slice(lo // q, -(-hi // q))  # the rows candidates lo..hi-1 extend
                    cut = slice(lo % q, hi - rows.start * q)
                    block = [np.repeat(x[rows], q)[cut] for x in pv]
                    block[c] = np.tile(values, rows.stop - rows.start)[cut]
                    lv = self.pol.polar(ctx, block)
                    for j in eqs:
                        keep = lv[j + 1] == spec.solve_bulk(j, lv, block, block[j + 1])
                        block = [x[keep] for x in block]
                        lv = [x[keep] for x in lv]
                    yield block

            # depth first, levels[d] yielding the blocks with d stages bound:
            # a loop, since a recursive closure would hold itself and self
            # in a reference cycle that only the cyclic collector frees
            levels = [iter([[np.zeros(1, dtype=ctx.dtype)] * spec.m])]
            while levels:
                pv = next(levels[-1], None)
                if pv is None:
                    levels.pop()
                elif len(levels) > len(stages):
                    found.append(spec.coords_to_ids(pv))
                else:
                    levels.append(expand(*stages[len(levels) - 1], pv))
            ids = self._absolute_ids = np.sort(np.concatenate(found))
        return ids

    def graph(self, limit):
        """The polarity graph, proven by _proven_graph: every vertex's
        neighbor_ids row, and the absolute points as loops."""
        return _proven_graph(self.spec, [self.neighbor_ids], self.absolute_ids, limit)


def build_polarity_graph(spec: ADGSpec, pol: PolaritySpec) -> PolarityGraph:
    """Check the polarity exhaustively, then wrap it; raises if the check fails."""
    chk = check_polarity(spec, pol)
    if not chk.ok:
        raise ValueError(f"polarity check failed: {chk.witness}")
    return PolarityGraph(spec, pol)


def _proven_graph(spec: ADGSpec, sides, loops, limit):
    """The graphs.Graph on n = len(sides) * q^m ids, refused above `limit`
    before a row is read.  sides[s](ids) maps N ids of side s (ids s*q^m..,
    less s*q^m) to their neighbours on side s + 1 (mod the sides), less its
    first id: slot t the one of first coordinate t, or -1.  ID_BLOCK // q
    rows at a time go into one table, int32 while n < 2^31, and are proven
    there, else ValueError names the vertex: slot t of row u holds -1 or a
    vertex w != u of the side with first coordinate t; the rows holding a
    -1 are exactly loops(), sorted ids; and, with every row in, slot
    first(u) of w's row holds u, one gather an arc, which with the slots
    proves symmetry.  Then each loop row's -1 moves last: rows ascend."""
    ns, q = spec.side_size, spec.ctx.order
    n = len(sides) * ns
    if n > limit:
        raise ValueError(f"{n} vertices exceed materialization ceiling {limit}")
    loop_ids = loops()
    table = np.empty((n, q), dtype=np.int32 if n < 2 ** 31 else np.int64)
    high, step = ns // q, max(1, ID_BLOCK // q)  # first coordinate: id // high, mod q
    low = np.arange(q) * high

    def check(bad, message):
        """ValueError message(row, slot) at the first True of bad, row major."""
        if bad.any():
            raise ValueError(message(*divmod(int(bad.argmax()), bad.shape[1])))

    for s, rows in enumerate(sides):
        other = (s + 1) % len(sides) * ns
        for lo in range(s * ns, (s + 1) * ns, step):
            u = np.arange(lo, min(lo + step, (s + 1) * ns))
            block, loop = rows(u - s * ns), np.isin(u, loop_ids)
            empty = block == -1
            outside = (block < low) | (block >= low + high) | (block == u[:, None] - other)
            check(outside & ~empty, lambda i, t: f"slot {t} of vertex {u[i]} holds "
                  f"{block[i, t] + other}, not another vertex of first coordinate {t}")
            check((empty.any(axis=1) != loop)[:, None], lambda i, t: (
                f"vertex {u[i]} is {'a loop with no' if loop[i] else 'no loop but has an'} empty slot"))
            table[lo:lo + len(u)] = np.where(empty, -1, block + other)
    flat = table.ravel()
    for lo in range(0, n, step):
        u, w = np.arange(lo, min(lo + step, n)), table[lo:lo + step]
        back = flat.take(np.multiply(w, q, dtype=np.intp) + (u // high % q)[:, None])
        check((back != u[:, None]) & (w >= 0), lambda i, t: f"asymmetric edge ({u[i]}, {w[i, t]})")
    rows = table[loop_ids]
    rows.view(f"u{rows.itemsize}").sort(axis=1)  # unsigned: each -1 last
    table[loop_ids] = rows
    deg = np.full(n, q, dtype=np.int64)
    deg[loop_ids] = (rows >= 0).sum(axis=1)
    return Graph.proven(table, deg, loop_ids)


# -- bulk (vectorized) incidence kernel ----------------------------------------
# The *_bulk methods, point_ids, polar/polar_line and absolute_ids answer many
# points at once through ADGSpec.tables() and the field's *_bulk operations;
# lines through points are the dual spec's points on them.  The scalar
# methods are the reference the tests hold them to.

def randrange_bulk(rng, bounds, count):
    """`count` samples of one rng.randrange(b) per bound b of the tuple
    `bounds`, at once: an int64 array of shape (count, len(bounds)), row t
    sample t's calls in order.  rng ends in the state the calls would
    leave.

    Exact for random.Random and 1 <= b < 2^32: each randrange(b) attempt
    reads one 32-bit word and rejects its top b.bit_length() bits while
    >= b, and rng and numpy's MT19937 are both the reference MT19937, so
    one set to rng's 624-word key and position reads the same words.  No
    round reads more words than calls are missing (at most SWEEP_BLOCK),
    so none past the last accepted one; a sample a round leaves unfinished
    is read again in the next.
    """
    if not all(1 <= b < 1 << 32 for b in bounds):
        raise ValueError(f"bulk randrange needs 1 <= b < 2**32, got {bounds}")
    shape = (count, len(bounds))
    if len(set(bounds)) == 1:
        bounds, count = bounds[:1], count * len(bounds)
    w = len(bounds)
    top = np.array(bounds, dtype=np.int64)[:, None]
    shift = np.array([[32 - b.bit_length()] for b in bounds])
    version, key, gauss = rng.getstate()
    mt, state = _mt19937()
    mt.state = {"bit_generator": "MT19937", "state": {"key": key[:-1], "pos": key[-1]}}
    values = np.empty(count * w, dtype=np.int64)
    words, done = np.empty(0, dtype=np.int64), 0
    while count:
        # an unfinished sample, read again, may hold w - 1 accepted calls
        read = mt.random_raw(min((count - 1) * w + 1, SWEEP_BLOCK)).view(np.int64)
        words = np.concatenate([words, read])
        ok = (words >> shift) < top
        pos = np.flatnonzero(ok)[None] + 1 if w == 1 else _chain_samples(ok, count)
        calls = slice(done, done + pos.size)
        values[calls] = (words[pos - 1] >> shift).T.ravel()
        keep = pos[-1, -1] if pos.size else 0
        words, count, done = words[keep:], count - pos.shape[1], calls.stop
    rng.setstate((version, tuple(state.tolist()), gauss))
    return values.reshape(shape)


@functools.cache
def _mt19937():
    """randrange_bulk's generator, one per process, built at its first call
    (a new one reads OS entropy, about 85 us, and numpy.random loads), and
    a view of its C state, the 624-word key and then the position: the
    view reads in about 5 us, the state property in about 75 us."""
    mt = np.random.MT19937()
    view = np.ctypeslib.as_array((ctypes.c_uint32 * 625).from_address(mt.ctypes.state_address))
    state = mt.state["state"]
    if not (np.array_equal(view[:624], state["key"]) and view[624] == state["pos"]):
        raise RuntimeError("numpy's MT19937 state is not a 624-word key and a position")
    return mt, view


def sample_blocks(rng, bounds, count, size):
    """randrange_bulk(rng, bounds, count) drawn `size` samples at a time:
    the same rows in blocks, each drawn when the consumer asks for it, and
    rng ends in the same state once the last block is drawn."""
    for lo in range(0, count, size):
        yield randrange_bulk(rng, bounds, min(size, count - lo))


def check_counts(**counts):
    """ValueError naming the first argument that is not an integer >= 0."""
    for name, count in counts.items():
        if not isinstance(count, numbers.Integral) or count < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {count!r}")


def _chain_samples(ok, count):
    """pos[j, t], the position after the word that accepts sample t's call
    j, for the samples (at most `count`) that finish within the words, on
    ok[j, i] = whether bound j accepts word i.  Pointer doubling on where
    a sample from each position ends finds all samples' starts at once."""
    w, size = ok.shape
    out = size + 1
    # nxt[j, i]: the position after the first word >= i that bound j accepts
    nxt = np.full((w, size + 2), out)
    nxt[:, :size] = np.where(ok, np.arange(1, size + 1), out)
    nxt = np.minimum.accumulate(nxt[:, ::-1], axis=1)[:, ::-1]
    # jumps[l, i]: the position after the 2^l samples from i
    jumps = np.empty((max(1, (count - 1).bit_length()), size + 2), dtype=np.intp)
    jumps[0] = nxt[0]
    for row in nxt[1:]:
        jumps[0] = row[jumps[0]]
    for l in range(1, len(jumps)):
        np.take(jumps[l - 1], jumps[l - 1], out=jumps[l])
    starts = np.zeros(1, dtype=np.intp)
    for jump in jumps[::-1]:
        starts = np.column_stack([starts, jump[starts]]).ravel()[:count]
    p = starts[jumps[0, starts] <= size]
    pos = np.empty((w, len(p)), dtype=np.intp)
    for j in range(w):
        p = pos[j] = nxt[j, p]
    return pos


def _rows_equal(a, b):
    """Elementwise equality of two coordinate-array lists, all coordinates."""
    ok = True
    for x, y in zip(a, b):
        ok = ok & (x == y)
    return ok


def _row(arrays, i):
    return tuple(int(c[i]) for c in arrays)


def eval_expr_bulk(e, ctx, lv, pv):
    """Evaluate an expression on numpy coordinate arrays."""
    op = e[0]
    if op == "var":
        arr = lv if e[1] == "l" else pv
        return arr[e[2] - 1]
    if op == "const":
        return ctx.dtype.type(e[1])
    if op == "neg":
        return ctx.neg_bulk(eval_expr_bulk(e[1], ctx, lv, pv))
    if op == "pow":
        return ctx.pow_vector(e[2]).take(eval_expr_bulk(e[1], ctx, lv, pv))
    a = eval_expr_bulk(e[1], ctx, lv, pv)
    b = eval_expr_bulk(e[2], ctx, lv, pv)
    return {"add": ctx.add_bulk, "sub": ctx.sub_bulk, "mul": ctx.mul_bulk}[op](a, b)


def count_absolute_bulk(pg: PolarityGraph) -> int:
    """Absolute-point count by PolarityGraph.absolute_ids' exact staged scan."""
    return len(pg.absolute_ids())


# -- the concrete families -----------------------------------------------------

def plane_family(q: int):
    """Biaffine-plane graph over GF(q^2) with the conjugation polarity.

    m = 2 with the single equation p_2 + l_2 = p_1*l_1; the polarity is
    coordinatewise q-th power.
    """
    pp = prime_power(q)
    if pp is None:
        raise ValueError(f"{q} is not a prime power")
    p, d = pp
    ctx = make_field(p, 2 * d)
    spec = ADGSpec(ctx, 2, (mul(var_p(1), var_l(1)),))
    pol = PolaritySpec(((0, d), (1, d)), ((0, d), (1, d)))
    return spec, pol


def gq_family(e: int, allow_small_e=False):
    """Biaffine generalized-quadrangle graph over GF(2^(2e+1)), with polarity.

    Equations p_2 + l_2 = p_1*l_1 and p_3 + l_3 = p_1^2*l_1.  The polarity
    twists coordinates by the 2^(e+1) and 2^e Frobenius powers.  e = 0 is
    outside the stated range and allowed only behind the override flag;
    the polarity check still runs either way.
    """
    if e < 1 and not allow_small_e:
        raise ValueError("gq family needs e >= 1 (pass the small-e override to try e = 0)")
    if e < 0:
        raise ValueError("e must be >= 0")
    ctx = make_field(2, 2 * e + 1)
    spec = ADGSpec(ctx, 3, (
        mul(var_p(1), var_l(1)),
        mul(powi(var_p(1), 2), var_l(1)),
    ))
    pol = PolaritySpec(
        ((0, e + 1), (2, e), (1, e + 1)),
        ((0, e), (2, e), (1, e + 1)),
    )
    return spec, pol


def gh_adjacency_spec(q: int) -> ADGSpec:
    """Hexagon-type system p_2+l_2 = p_1 l_1, ..., p_5+l_5 = p_1^3 l_1^2 over GF(q), q = 3^eta."""
    pp = prime_power(q)
    if pp is None or pp[0] != 3:
        raise ValueError(f"{q} is not a power of 3")
    ctx = make_field(3, pp[1])
    return ADGSpec(ctx, 5, (
        mul(var_p(1), var_l(1)),
        mul(powi(var_p(1), 2), var_l(1)),
        mul(powi(var_p(1), 3), var_l(1)),
        mul(powi(var_p(1), 3), powi(var_l(1), 2)),
    ))


def gh_family(e: int, allow_small_e=False):
    """Biaffine generalized-hexagon graph over GF(3^(2e+1)), with polarity."""
    if e < 1 and not allow_small_e:
        raise ValueError("gh family needs e >= 1 (pass the small-e override to try e = 0)")
    if e < 0:
        raise ValueError("e must be >= 0")
    spec = gh_adjacency_spec(3 ** (2 * e + 1))
    pol = PolaritySpec(
        ((0, e + 1), (3, e), (4, e), (1, e + 1), (2, e + 1)),
        ((0, e), (3, e), (4, e), (1, e + 1), (2, e + 1)),
    )
    return spec, pol


class CoordinateMap:
    """A change of coordinates written per side as expression trees over
    var_p: phi.bulk(side, coords) maps coordinate arrays."""

    def __init__(self, ctx: FieldCtx, points: tuple, lines: tuple):
        self.ctx = ctx
        self.exprs = {"P": points, "L": lines}

    def bulk(self, side, coords):
        return [eval_expr_bulk(e, self.ctx, (), coords) for e in self.exprs[side]]


def gh_original_family(q: int):
    """The hexagon system with the cross-term last equation, plus the
    change-of-coordinates phi onto gh_adjacency_spec(q).

    phi acts per side: on points it shears coordinates 3..5, on lines only
    the fifth.  It is a bijection; adjacency preservation is a checkable
    claim, not an assumption.
    """
    pp = prime_power(q)
    if pp is None or pp[0] != 3:
        raise ValueError(f"{q} is not a power of 3")
    ctx = make_field(3, pp[1])
    spec = ADGSpec(ctx, 5, (
        mul(var_p(1), var_l(1)),
        mul(var_p(1), var_l(2)),
        mul(var_p(1), var_l(3)),
        sub(mul(var_p(2), var_l(3)), mul(var_p(3), var_l(2))),
    ))
    c1, c2, c3, c4, c5 = (var_p(i) for i in range(1, 6))
    points = (c1, c2, add(c3, mul(c1, c2)), add(c4, add(mul(c1, c3), mul(mul(c1, c1), c2))),
              add(neg(c5), sub(mul(mul(c2, c2), c1), mul(c2, c3))))
    lines = (c1, c2, c3, c4, add(neg(c5), mul(c2, c3)))
    return spec, CoordinateMap(ctx, points, lines)


def generic_conjugation_polarity(spec: ADGSpec) -> PolaritySpec:
    """Coordinatewise q-th power polarity for a point-line-symmetric spec
    over GF(q^2); rejects specs that fail the symmetry check."""
    from .partitions import is_point_line_symmetric

    if spec.ctx.k % 2 != 0:
        raise ValueError("conjugation polarity needs a quadratic extension field")
    ok, witness = is_point_line_symmetric(spec)
    if not ok:
        raise ValueError(f"adjacency functions are not point-line-symmetric: {witness}")
    d = spec.ctx.k // 2
    rules = tuple((i, d) for i in range(spec.m))
    return PolaritySpec(rules, rules)
