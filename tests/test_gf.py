"""Field arithmetic: moduli, axioms, Frobenius, quadratic bases."""

import random

import numpy as np
import pytest

from polarpart.gf import (
    TABLE_SIDE, find_normal_element, is_prime, make_field, prime_power,
    _poly_mod, _int_to_poly,
)
from test_adg import _recompose_mu


def brute_force_irreducible(modulus, p):
    """Independent check: no monic divisor of degree 1..deg//2."""
    k = len(modulus) - 1
    for d in range(1, k // 2 + 1):
        for t in range(p ** d):
            div = _int_to_poly(t, p, d) + [1]
            if not any(_poly_mod(list(modulus), div, p)):
                return False
    return True


def test_gf4_modulus_is_unique_irreducible_quadratic():
    ctx = make_field(2, 2)
    assert ctx.modulus == (1, 1, 1)  # x^2 + x + 1


def test_prime_field_modulus_convention():
    ctx = make_field(3, 1)
    assert ctx.modulus == (0, 1)  # x
    assert ctx.k == 1
    assert ctx.decode(2) == (2,)


def test_degree_six_modulus_irreducible_by_brute_force():
    ctx = make_field(2, 6)
    assert brute_force_irreducible(ctx.modulus, 2)
    # and it is the smallest: every smaller tail gives a reducible candidate
    tail = sum(c * 2 ** i for i, c in enumerate(ctx.modulus[:6]))
    for t in range(tail):
        cand = _int_to_poly(t, 2, 6) + [1]
        assert not brute_force_irreducible(cand, 2)


def test_make_field_errors():
    with pytest.raises(ValueError):
        make_field(4, 2)
    with pytest.raises(ValueError):
        make_field(2, 0)
    with pytest.raises(ValueError):
        make_field(2, 40)


def test_prime_power():
    assert prime_power(8) == (2, 3)
    assert prime_power(27) == (3, 3)
    assert prime_power(7) == (7, 1)
    assert prime_power(12) is None
    assert prime_power(1) is None


def test_gf4_multiplication():
    ctx = make_field(2, 2)
    w = 2  # omega = x
    assert ctx.mul(w, w) == 3  # omega^2 = omega + 1


def test_identities_all_small_fields():
    for p, k in ((2, 2), (3, 2), (2, 3), (5, 1)):
        ctx = make_field(p, k)
        for u in range(ctx.order):
            assert ctx.add(u, 0) == u
            assert ctx.mul(u, 1) == u
            if u:
                assert ctx.pow(u, ctx.order - 1) == 1
                assert ctx.mul(u, ctx.inv(u)) == 1


def test_field_axioms_exhaustive_small():
    for p, k in ((2, 2), (3, 2), (2, 3)):
        ctx = make_field(p, k)
        els = list(range(ctx.order))
        for a in els:
            for b in els:
                assert ctx.add(a, b) == ctx.add(b, a)
                assert ctx.mul(a, b) == ctx.mul(b, a)
                assert ctx.sub(a, b) == ctx.add(a, ctx.neg(b))
                for c in els:
                    assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
                    assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))


def test_field_axioms_random_larger():
    rng = random.Random(7)
    for p, k in ((3, 4), (2, 8), (3, 10)):
        ctx = make_field(p, k)
        for _ in range(10_000 if ctx.order <= 512 else 500):
            a, b, c = (rng.randrange(ctx.order) for _ in range(3))
            assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
            assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
            if a:
                assert ctx.mul(a, ctx.inv(a)) == 1


def _reference_mul(ctx, a, b):
    """Schoolbook product of the coefficient vectors, reduced by the modulus."""
    p = ctx.p
    prod = [0] * (2 * ctx.k - 1)
    for i, x in enumerate(ctx.decode(a)):
        for j, y in enumerate(ctx.decode(b)):
            prod[i + j] = (prod[i + j] + x * y) % p
    return ctx.encode(_poly_mod(prod, list(ctx.modulus), p))


# a single digit block up to order 512 and several above it; int16
# element arrays up to order 2^15 and int32 above it; blocks of a single
# base-p digit, read from vectors (p^2 > TABLE_SIDE), at p = 23 and 29
ACROSS_ORDERS = [(2, 1), (3, 3), (2, 9), (3, 7), (2, 15), (3, 10), (2, 20), (29, 1), (23, 2)]


@pytest.mark.parametrize("p,k", ACROSS_ORDERS)
def test_field_axioms_and_bulk_ops_across_orders(p, k):
    ctx = make_field(p, k)
    q = ctx.order
    assert ctx.dtype == (np.int16 if q <= 1 << 15 else np.int32)
    assert (ctx._blocks == 1) == (q <= TABLE_SIDE)
    # add and sub are the only tables indexed by pairs of values
    assert ctx._add.size <= TABLE_SIDE ** 2 and ctx._sub.size <= TABLE_SIDE ** 2
    for vector in (ctx._exp, ctx._log, ctx._neg):
        assert vector.ndim == 1 and vector.size <= 4 * q
    rng = random.Random(k)
    a, b, c = ([rng.randrange(q) for _ in range(2000)] for _ in range(3))
    for x, y, z in list(zip(a, b, c))[:300]:
        assert ctx.decode(ctx.add(x, y)) == tuple(
            (u + v) % p for u, v in zip(ctx.decode(x), ctx.decode(y)))
        assert ctx.mul(x, y) == _reference_mul(ctx, x, y)
        assert ctx.add(ctx.sub(x, y), y) == x
        assert ctx.mul(x, ctx.add(y, z)) == ctx.add(ctx.mul(x, y), ctx.mul(x, z))
        assert ctx.mul(ctx.mul(x, y), z) == ctx.mul(x, ctx.mul(y, z))
        if x:
            assert ctx.mul(x, ctx.inv(x)) == 1
    arr_a, arr_b = np.array(a, dtype=ctx.dtype), np.array(b, dtype=ctx.dtype)
    for op in ("add", "sub", "mul"):
        bulk = getattr(ctx, op + "_bulk")(arr_a, arr_b)
        assert bulk.dtype == ctx.dtype
        assert bulk.tolist() == [getattr(ctx, op)(x, y) for x, y in zip(a, b)]
        grid = getattr(ctx, op + "_bulk")(arr_a[:30, None], arr_b[None, :40])
        assert grid.tolist() == [[getattr(ctx, op)(x, y) for y in b[:40]] for x in a[:30]]
        # scalar operands: Python ints and numpy scalars of either width
        for scalar in (a[0], ctx.dtype.type(a[0]), np.int64(a[0])):
            left = getattr(ctx, op + "_bulk")(scalar, arr_b)
            right = getattr(ctx, op + "_bulk")(arr_b, scalar)
            assert left.dtype == right.dtype == ctx.dtype
            assert left.tolist() == [getattr(ctx, op)(a[0], y) for y in b]
            assert right.tolist() == [getattr(ctx, op)(y, a[0]) for y in b]
            assert getattr(ctx, op + "_bulk")(scalar, b[1]) == getattr(ctx, op)(a[0], b[1])
    assert ctx.neg_bulk(arr_a).tolist() == [ctx.neg(x) for x in a]
    assert ctx.neg_bulk(a[0]) == ctx.neg(a[0])
    nonzero = [x for x in a if x]
    assert ctx.pow_vector(q - 2)[nonzero].tolist() == [ctx.inv(x) for x in nonzero]
    for n in (0, 1, 2, 3, q, q + 1):
        assert ctx.pow_vector(n)[arr_a].tolist() == [ctx.pow(x, n) for x in a]
    for j in sorted({0, 1, k}):
        assert ctx.frob_vector(j)[arr_a].tolist() == [ctx.frobenius(x, j) for x in a]


def test_inv_zero_raises():
    ctx = make_field(2, 2)
    with pytest.raises(ZeroDivisionError):
        ctx.inv(0)


def test_out_of_range_raises():
    # field values are range-checked where they enter, not by each op
    ctx = make_field(2, 2)
    with pytest.raises(ValueError):
        ctx.decode(-1)
    with pytest.raises(ValueError):
        ctx.encode((2, 0))


def test_frobenius_basics():
    ctx = make_field(2, 2)
    assert ctx.frobenius(2, 1) == 3  # omega -> omega^2 = omega + 1
    # squaring twice is the identity on GF(4)
    for u in range(ctx.order):
        assert ctx.frobenius(ctx.frobenius(u, 1), 1) == u


def test_frobenius_is_ring_homomorphism():
    for p, k in ((2, 2), (3, 2), (2, 3), (3, 3)):
        ctx = make_field(p, k)
        for j in range(1, k + 1):
            for u in range(ctx.order):
                for v in range(ctx.order):
                    assert ctx.frobenius(ctx.add(u, v), j) == \
                        ctx.add(ctx.frobenius(u, j), ctx.frobenius(v, j))
                    assert ctx.frobenius(ctx.mul(u, v), j) == \
                        ctx.mul(ctx.frobenius(u, j), ctx.frobenius(v, j))


def test_frobenius_fixed_field():
    import math
    for p, k in ((2, 4), (3, 4)):
        ctx = make_field(p, k)
        for j in range(1, k + 1):
            d = math.gcd(j, k)
            fixed = {u for u in range(ctx.order) if ctx.frobenius(u, j) == u}
            assert fixed == set(ctx.subfield_elements(d))


def test_encode_decode_bijection():
    for p, k in ((2, 2), (3, 2), (5, 2), (3, 3)):
        ctx = make_field(p, k)
        assert ctx.decode(0) == (0,) * k
        for n in range(ctx.order):
            assert ctx.encode(ctx.decode(n)) == n


def test_gf4_encoding_of_omega():
    ctx = make_field(2, 2)
    assert ctx.encode((0, 1)) == 2


# -- quadratic bases ---------------------------------------------------------

def test_normal_element_f4():
    ctx = make_field(2, 2)
    b = find_normal_element(ctx)
    assert b.beta == 2  # omega: omega^2 = omega+1 is not in {0, omega}
    assert b.beta_q == 3
    assert b.mu == 2
    assert b.subfield == (0, 1)


def test_normal_element_f9_exhaustive_independence():
    ctx = make_field(3, 2)
    b = find_normal_element(ctx)
    # independence against all 3 subfield multiples, and for good measure
    # all q*3 dependence relations c1*beta + c2*beta^q = 0
    for c in b.subfield:
        assert ctx.mul(c, b.beta) != b.beta_q
    for c1 in b.subfield:
        for c2 in b.subfield:
            if (c1, c2) != (0, 0):
                assert ctx.add(ctx.mul(c1, b.beta), ctx.mul(c2, b.beta_q)) != 0
    # and beta is minimal: all smaller candidates are dependent
    for cand in range(1, b.beta):
        bq = ctx.frobenius(cand, 1)
        assert any(ctx.mul(c, cand) == bq for c in b.subfield)


def test_normal_element_requires_even_degree():
    with pytest.raises(ValueError):
        find_normal_element(make_field(3, 3))


def test_decompose_beta_basis_vector():
    for p in (2, 3, 5):
        b = find_normal_element(make_field(p, 2))
        assert b.decompose_beta(b.beta) == (1, 0)
        assert b.decompose_beta(b.beta_q) == (0, 1)


def test_decompose_norm_has_equal_coordinates():
    # x^(q+1) is fixed by conjugation, so its coordinates coincide
    for p in (2, 3, 5):
        ctx = make_field(p, 2)
        b = find_normal_element(ctx)
        for x in range(ctx.order):
            s, t = b.decompose_beta(ctx.pow(x, b.q + 1))
            assert s == t


def test_decompose_round_trip_exhaustive():
    for p in (2, 3):
        ctx = make_field(p, 2)
        b = find_normal_element(ctx)
        for u in range(ctx.order):
            s, t = b.decompose_beta(u)
            assert s in b.subfield and t in b.subfield
            assert b.recompose_beta(s, t) == u
            s2, t2 = b.decompose_mu(u)
            assert s2 in b.subfield and t2 in b.subfield
            assert _recompose_mu(b, s2, t2) == u


def test_decompose_round_trip_random_f25_f81():
    rng = random.Random(3)
    for p, k in ((5, 2), (3, 4)):
        ctx = make_field(p, k)
        b = find_normal_element(ctx)
        for _ in range(500):
            u = rng.randrange(ctx.order)
            s, t = b.decompose_beta(u)
            assert b.recompose_beta(s, t) == u


def test_quadratic_extension_over_non_prime_subfield():
    # GF(81) over GF(9): subfield is not an initial segment of encodings
    ctx = make_field(3, 4)
    b = find_normal_element(ctx)
    assert b.q == 9
    assert len(b.subfield) == 9
    assert b.mu not in set(b.subfield)
    for u in b.subfield:
        assert ctx.frobenius(u, 2) == u


def test_is_prime():
    assert is_prime(2) and is_prime(3) and is_prime(59049 // 3 ** 9)
    assert not is_prime(1) and not is_prime(9) and not is_prime(0)
