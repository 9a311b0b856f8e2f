"""Arithmetic in GF(p^k) on integer-encoded elements.

An element with polynomial coordinates (c_0, ..., c_{k-1}) over GF(p) is
encoded as the integer sum(c_i * p**i), so equality of elements is equality
of ints and every field of order p^k is the range 0..p^k-1.  A FieldCtx
fixes the (deterministically chosen) irreducible modulus and provides all
arithmetic, at every order, on one set of numpy lookup tables that grows
linearly with the order: log/antilog vectors (Lidl & Niederreiter, Finite
Fields, ch. 10), a negation vector and an addition table over blocks of
base-p digits.  Scalar and bulk operations read the same tables.

Quadratic extensions GF(q^2) over GF(q) additionally get a QuadBasis: a
normal pair {beta, beta^q} and an element mu with {1, mu} a basis, plus the
coordinate decompositions the partition constructions are built on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Side of a digit block's add/sub tables, which stay within TABLE_SIDE**2
# cells at every order.  A spec's equation tables have their own budget,
# adg.TABLE_BUDGET.
TABLE_SIDE = 512

# Hard ceiling on p^k (well above the 3^10 the constructions need).
ORDER_CEILING = 1 << 20

# Element arrays are int16 up to this order and int32 above it.
INT16_ORDER = 1 << 15


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, d) with n == p**d and p prime, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            d = 0
            m = n
            while m % p == 0:
                m //= p
                d += 1
            return (p, d) if m == 1 else None
        p += 1
    return (n, 1)


# ---------------------------------------------------------------------------
# polynomial helpers (little-endian coefficient lists over GF(p))
# ---------------------------------------------------------------------------

def _int_to_poly(n, p, length):
    coeffs = [0] * length
    i = 0
    while n:
        coeffs[i] = n % p
        n //= p
        i += 1
    return coeffs


def _poly_to_int(coeffs, p):
    n = 0
    for c in reversed(coeffs):
        n = n * p + c
    return n


def _poly_mod(poly, divisor, p):
    """Remainder of poly by a monic divisor, both little-endian."""
    rem = list(poly)
    dd = len(divisor) - 1
    for i in range(len(rem) - 1, dd - 1, -1):
        c = rem[i]
        if c:
            rem[i] = 0
            for j in range(dd):
                rem[i - dd + j] = (rem[i - dd + j] - c * divisor[j]) % p
    return rem[:dd]


def _find_modulus(p: int, k: int) -> tuple[int, ...]:
    """Smallest-by-encoding monic irreducible of degree k over GF(p).

    Candidates x^k + t are scanned by the integer encoding of the tail t;
    irreducibility is decided by trial division against every monic
    polynomial of degree 1..k//2.
    """
    if k == 1:
        return (0, 1)
    divisors = []
    for d in range(1, k // 2 + 1):
        for t in range(p ** d):
            divisors.append(_int_to_poly(t, p, d) + [1])
    for t in range(p ** k):
        cand = _int_to_poly(t, p, k) + [1]
        if all(any(_poly_mod(cand, div, p)) for div in divisors):
            return tuple(cand)
    raise AssertionError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# field context
# ---------------------------------------------------------------------------

class FieldCtx:
    """GF(p**k) under a fixed monic irreducible modulus.

    Elements are ints in [0, order).  All operations are pure; the context
    is immutable after construction and safe to share between threads.
    Use make_field() to construct (it canonicalizes the modulus and caches
    contexts so the same (p, k) is the same object).

    Every operation reads one set of tables, O(order) entries in all.
    a*b = exp[log a + log b] over a generator of the multiplicative group;
    log 0 = 2(q-1) lands past every sum of two nonzero logs, in a tail of
    zeros.  Powers, inverses and Frobenius are exp of a multiple of log,
    and -u is u times the element p - 1.  Addition and subtraction go per
    block of base-p digits, through B x B tables add[x, y] and sub[x, y]
    over the B values of a block; for one-digit blocks these are views of
    vectors of 2p - 1 entries, since (x +- y) mod p depends on x +- y
    only.  A field of order at most TABLE_SIDE is one block.  Scalar
    operations index the tables through memoryviews; each *_bulk operation
    is one `take` per digit block from a flat table (a B x B block table
    raveled, or a one-digit block's vector) at an int32 index, and mul_bulk
    is exp.take(log.take(a) + log.take(b)).
    """

    def __init__(self, p, k, modulus):
        self.p = p
        self.k = k
        self.modulus = tuple(modulus)
        self.order = q = p ** k
        self.dtype = np.dtype(np.int16 if q <= INT16_ORDER else np.int32)
        self._pow_v = {}
        self._frob_t = {}
        n = q - 1
        self.generator = self._find_generator()  # of the multiplicative group
        exp = self._exp = np.zeros(4 * n + 1, dtype=self.dtype)
        exp[:n] = exp[n:2 * n] = self._powers(self.generator, n)
        self._log = np.empty(q, dtype=np.int32)
        self._log[exp[:n]] = np.arange(n)
        self._log[0] = 2 * n
        self._neg = self.mul_bulk(np.arange(q), p - 1)
        digits = max(d for d in range(1, k + 1) if d == 1 or p ** d <= TABLE_SIDE)
        self._block, self._blocks = p ** digits, -(-k // digits)
        if digits == 1:  # add[x, y] = vec[x + y], sub[x, y] = vec'[x + p-1 - y]
            vec = np.arange(2 * p - 1)
            self._flat = (vec % p).astype(self.dtype), ((vec - p + 1) % p).astype(self.dtype)
            self._add = sliding_window_view(self._flat[0], p)
            self._sub = sliding_window_view(self._flat[1], p)[:, ::-1]
        else:
            d = np.arange(self._block)[:, None] // p ** np.arange(digits) % p
            weights = p ** np.arange(digits)
            self._add = ((d[:, None] + d) % p @ weights).astype(self.dtype)
            self._sub = ((d[:, None] - d) % p @ weights).astype(self.dtype)
            self._flat = self._add.ravel(), self._sub.ravel()
        self._exp_v, self._log_v, self._neg_v, self._add_v, self._sub_v = map(
            memoryview, (exp, self._log, self._neg, self._add, self._sub))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, k={self.k}, order={self.order})"

    def to_json(self):
        return {"p": self.p, "k": self.k, "modulus": list(self.modulus)}

    # -- encoding -----------------------------------------------------------

    def decode(self, n: int) -> tuple[int, ...]:
        """Coefficient vector (little-endian) of the element encoded n."""
        if not 0 <= n < self.order:
            raise ValueError(f"encoding {n} out of range for {self!r}")
        return tuple(_int_to_poly(n, self.p, self.k))

    def encode(self, coeffs) -> int:
        """Integer encoding of a length-k coefficient vector."""
        if len(coeffs) != self.k:
            raise ValueError(f"expected {self.k} coefficients, got {len(coeffs)}")
        if any(not 0 <= c < self.p for c in coeffs):
            raise ValueError("coefficients must be residues mod p")
        return _poly_to_int(coeffs, self.p)

    # -- arithmetic ---------------------------------------------------------
    # Operands are field elements, ints in [0, order), and neither these
    # scalar ops nor the *_bulk ops below check their range: an
    # out-of-range operand can read another table cell instead of raising
    # (a B x B table's x*B + y aliases y >= B, fields of several blocks wrap
    # every operand through `% B`, and a negative index counts from the
    # end).  Values are validated where they enter: encode and decode,
    # check_expr's constants, edge lists, partitions and CLI parameters.

    def _blockwise(self, t, a, b):
        """t applied to each digit block of a and b."""
        size, r, scale = self._block, 0, 1
        for _ in range(self._blocks):
            a, x = divmod(a, size)
            b, y = divmod(b, size)
            r += t[x, y] * scale
            scale *= size
        return r

    def add(self, a: int, b: int) -> int:
        if self._blocks == 1:
            return self._add_v[a, b]
        return self._blockwise(self._add_v, a, b)

    def sub(self, a: int, b: int) -> int:
        if self._blocks == 1:
            return self._sub_v[a, b]
        return self._blockwise(self._sub_v, a, b)

    def neg(self, a: int) -> int:
        return self._neg_v[a]

    def mul(self, a: int, b: int) -> int:
        log = self._log_v
        return self._exp_v[log[a] + log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp_v[-self._log_v[a] % (self.order - 1)]

    def pow(self, a: int, n: int) -> int:
        """a**n; negative n inverts first."""
        if n < 0:
            a = self.inv(a)
            n = -n
        if a == 0:
            return 0 if n else 1
        return self._exp_v[self._log_v[a] * n % (self.order - 1)]

    def frobenius(self, a: int, j: int) -> int:
        """a**(p**j)."""
        return self.frob_table(j)[a]

    def frob_table(self, j: int):
        """frob_vector(j) as a memoryview, for scalar lookups (cached)."""
        t = self._frob_t.get(j)
        if t is None:
            t = self._frob_t[j] = memoryview(self.frob_vector(j))
        return t

    # -- arithmetic on arrays -------------------------------------------------
    # Operands are field elements as integer arrays (or scalars) that
    # broadcast against each other; results have `dtype`.  Each op is one
    # `take` per digit block from a flat table.

    def _flat_index(self, sub, x, y):
        """int32 positions of the digit pairs (x, y) in the flat add (sub
        False) or sub table: x*B + y in a B x B table; x + y and x + p-1 - y
        in a one-digit block's vectors."""
        if self._block > self.p:
            return np.multiply(x, self._block, dtype=np.int32) + y
        if sub:
            return np.add(x, self.p - 1, dtype=np.int32) - y
        return np.add(x, y, dtype=np.int32)

    def _blockwise_bulk(self, sub, a, b):
        """add (sub False) or sub of a and b, one take per digit block."""
        flat, size = self._flat[sub], self._block
        if self._blocks == 1:
            return flat.take(self._flat_index(sub, a, b))
        r = 0
        for i in range(self._blocks):
            s = size ** i
            r = r + flat.take(self._flat_index(sub, a // s % size, b // s % size)) * s
        return r

    def add_bulk(self, a, b):
        return self._blockwise_bulk(False, a, b)

    def sub_bulk(self, a, b):
        return self._blockwise_bulk(True, a, b)

    def neg_bulk(self, a):
        return self._neg.take(a)

    def mul_bulk(self, a, b):
        return self._exp.take(self._log.take(a) + self._log.take(b))

    def pow_vector(self, n: int):
        """Lookup array for u -> u**n, n >= 0 (cached per exponent)."""
        vec = self._pow_v.get(n)
        if vec is None:
            m = self.order - 1
            vec = self._exp.take(self._log.astype(np.int64) * (n % m) % m)
            vec[0] = 0 if n else 1
            self._pow_v[n] = vec
        return vec

    def frob_vector(self, j: int):
        """Lookup array for u -> u**(p**j)."""
        if j < 0:
            raise ValueError("frobenius exponent must be >= 0")
        return self.pow_vector(self.p ** j)

    # -- table construction ---------------------------------------------------

    def _mul_matrix(self, u):
        """k x k matrix over GF(p) whose row i is the digits of x^i * u, so
        digits(v) @ M % p is the digits of v * u."""
        p, tail = self.p, np.array(self.modulus[:-1])
        rows = [np.array(_int_to_poly(u, p, self.k))]
        for _ in range(self.k - 1):
            r = rows[-1]
            rows.append((np.concatenate(([0], r[:-1])) - r[-1] * tail) % p)
        return np.array(rows, dtype=np.int64)

    def _find_generator(self):
        """Smallest u >= 1 whose powers fill the multiplicative group: no
        u^((q-1)/r) is 1 for a prime r dividing q - 1."""
        n = self.order - 1
        primes = [r for r in range(2, n + 1) if n % r == 0 and is_prime(r)]
        one = np.eye(1, self.k, dtype=np.int64)[0]
        for u in range(1, self.order):
            mat = self._mul_matrix(u)
            if all((_mat_pow(mat, n // r, self.p)[0] != one).any() for r in primes):
                return u
        raise AssertionError("no generator found")  # unreachable

    def _powers(self, g, count):
        """Encodings of g^0 .. g^(count-1): a first block of s powers one at
        a time, then each next block as the last one times g^s."""
        p, k = self.p, self.k
        s = math.isqrt(count - 1) + 1
        mat = self._mul_matrix(g)
        rows = [np.eye(1, k, dtype=np.int64)[0]]
        for _ in range(s):
            rows.append(rows[-1] @ mat % p)
        weights = p ** np.arange(k)
        step = self._mul_matrix(int(rows.pop() @ weights))
        block, out = np.array(rows), []
        for _ in range(-(-count // s)):
            out.append(block @ weights)
            block = block @ step % p
        return np.concatenate(out)[:count]

    # -- subfields -------------------------------------------------------------

    def subfield_elements(self, d: int) -> tuple[int, ...]:
        """Elements of the GF(p^d) subfield (fixed points of Frobenius^d)."""
        if d < 1 or self.k % d != 0:
            raise ValueError(f"degree {d} does not divide {self.k}")
        t = self.frob_table(d)
        return tuple(u for u in range(self.order) if t[u] == u)


def _mat_pow(mat, n, p):
    r = np.eye(len(mat), dtype=np.int64)
    while n:
        if n & 1:
            r = r @ mat % p
        mat = mat @ mat % p
        n >>= 1
    return r


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FieldCtx:
    """Context for GF(p**k) with the smallest-encoding irreducible modulus.

    Deterministic across runs: the same (p, k) always yields the same
    modulus, hence byte-stable element encodings everywhere downstream.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if k < 1:
        raise ValueError("extension degree must be >= 1")
    if p ** k > ORDER_CEILING:
        raise ValueError(f"order {p}^{k} above ceiling {ORDER_CEILING}")
    return FieldCtx(p, k, _find_modulus(p, k))


# ---------------------------------------------------------------------------
# quadratic extensions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadBasis:
    """Bases of GF(q^2) over its index-2 subfield GF(q).

    beta is the smallest element (by encoding) with {beta, beta^q} linearly
    independent over GF(q); mu is the smallest element outside GF(q), so
    {1, mu} is a basis.  Subfield elements are encodings in the big field.
    """

    ctx: FieldCtx
    sub_degree: int
    q: int
    subfield: tuple[int, ...]
    beta: int
    beta_q: int
    mu: int
    _dec_c1: int
    _dec_c2: int
    _inv_mu_diff: int

    def vectors(self):
        """(subfield, index, decompose, recompose) as lookup arrays of
        ctx.dtype, built on first use.  subfield[i] is the i-th subfield
        element and index its inverse (-1 off the subfield); u =
        subfield[i]*beta + subfield[j]*beta^q has decompose[u] = i*q + j and
        recompose[i*q + j] = u."""
        vecs = getattr(self, "_vectors", None)
        if vecs is None:
            ctx, q = self.ctx, self.q
            subfield = np.array(self.subfield, dtype=ctx.dtype)
            index = np.full(ctx.order, -1, dtype=ctx.dtype)
            index[subfield] = np.arange(q)
            u = np.arange(ctx.order)
            uq = ctx.frob_vector(self.sub_degree)
            c1, c2 = self._dec_c1, self._dec_c2
            s = ctx.add_bulk(ctx.mul_bulk(u, c1), ctx.mul_bulk(uq, c2))
            s_q = ctx.add_bulk(ctx.mul_bulk(uq, c1), ctx.mul_bulk(u, c2))
            decompose = index[s] * q + index[s_q]
            recompose = np.empty_like(decompose)
            recompose[decompose] = u
            vecs = subfield, index, decompose, recompose
            object.__setattr__(self, "_vectors", vecs)
        return vecs

    def conj(self, u: int) -> int:
        """u**q, the nontrivial GF(q)-automorphism of GF(q^2)."""
        return self.ctx.frob_table(self.sub_degree)[u]

    def decompose_beta(self, u: int) -> tuple[int, int]:
        """(s, t) in GF(q)^2 with u == s*beta + t*beta^q."""
        ctx = self.ctx
        uq = self.conj(u)
        s = ctx.add(ctx.mul(u, self._dec_c1), ctx.mul(uq, self._dec_c2))
        t = ctx.add(ctx.mul(uq, self._dec_c1), ctx.mul(u, self._dec_c2))
        return s, t

    def recompose_beta(self, s: int, t: int) -> int:
        ctx = self.ctx
        return ctx.add(ctx.mul(s, self.beta), ctx.mul(t, self.beta_q))

    def decompose_mu(self, u):
        """(s, t) in GF(q)^2 with u == s + t*mu, for an element or an
        array of them (the results have ctx.dtype)."""
        ctx = self.ctx
        t = ctx.mul_bulk(ctx.sub_bulk(u, ctx.frob_vector(self.sub_degree)[u]), self._inv_mu_diff)
        s = ctx.sub_bulk(u, ctx.mul_bulk(t, self.mu))
        return s, t


def find_normal_element(ctx: FieldCtx) -> QuadBasis:
    """QuadBasis for ctx = GF(q^2) viewed over GF(q).

    Scans encodings in increasing order, so the returned beta and mu are
    deterministic.  ctx.k must be even.
    """
    if ctx.k % 2 != 0:
        raise ValueError("quadratic basis needs an even-degree extension")
    d = ctx.k // 2
    sub = ctx.subfield_elements(d)
    q = ctx.p ** d
    if len(sub) != q:
        raise AssertionError("subfield enumeration inconsistent")
    frob = ctx.frob_table(d)
    beta = None
    for cand in range(1, ctx.order):
        bq = frob[cand]
        if all(ctx.mul(c, cand) != bq for c in sub):
            beta = cand
            break
    if beta is None:
        raise AssertionError("no normal element found")  # cannot happen
    beta_q = frob[beta]
    subset = set(sub)
    mu = next(u for u in range(ctx.order) if u not in subset)
    # Cramer coefficients for the beta-decomposition: with
    # det = beta^2 - (beta^q)^2, s = u*c1 + u^q*c2 and t = u^q*c1 + u*c2.
    det = ctx.sub(ctx.mul(beta, beta), ctx.mul(beta_q, beta_q))
    inv_det = ctx.inv(det)
    c1 = ctx.mul(beta, inv_det)
    c2 = ctx.neg(ctx.mul(beta_q, inv_det))
    mu_diff = ctx.sub(mu, frob[mu])
    return QuadBasis(
        ctx=ctx,
        sub_degree=d,
        q=q,
        subfield=sub,
        beta=beta,
        beta_q=beta_q,
        mu=mu,
        _dec_c1=c1,
        _dec_c2=c2,
        _inv_mu_diff=ctx.inv(mu_diff),
    )
