"""Field context, character table, prime enumeration."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagao.prime_field import (
    BadRange,
    EvenOrSmall,
    FieldCtx,
    NotPrime,
    OutOfRange,
    MR_BOUND,
    is_prime,
    legendre,
    make_field,
    primes_in_range,
)

SMALL_PRIMES = [3, 5, 7, 11, 13, 17, 19, 23]


def test_is_prime_small_values():
    assert [n for n in range(2, 30) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29,
    ]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)
    assert not is_prime(9973 * 9973)
    assert is_prime(9973)


def test_is_prime_matches_sympy_below_the_bound():
    import sympy

    rng = random.Random(13)
    cases = [rng.randrange(2, 10**k) for k in (3, 6, 12, 18, 24) for _ in range(200)]
    cases += [3215031751, 3825123056546413051, 318665857834031151167461]  # strong pseudoprimes
    cases += [999983, 2**61 - 1, 10**24 + 7, MR_BOUND - 1]
    for n in cases:
        assert is_prime(n) == sympy.isprime(n), n
    with pytest.raises(ValueError, match="bound"):
        is_prime(MR_BOUND)  # a strong pseudoprime to all 13 bases


def test_legendre_matches_table():
    for p in SMALL_PRIMES + [101]:
        ctx = make_field(p)
        for a in range(-p, 2 * p):
            assert legendre(a, p) == ctx.chi(a % p)


def test_make_field_rejects_bad_input():
    with pytest.raises(NotPrime):
        make_field(9)
    with pytest.raises(EvenOrSmall):
        make_field(2)
    with pytest.raises(EvenOrSmall):
        make_field(1)


def test_chi_table_mod5():
    ctx = make_field(5)
    assert [ctx.chi(a) for a in range(5)] == [0, 1, -1, -1, 1]


def test_chi_mod7_matches_euler_criterion():
    ctx = make_field(7)
    assert ctx.chi(3) == -1
    for a in range(1, 7):
        assert ctx.chi(a) == (1 if pow(a, 3, 7) == 1 else -1)


def test_chi_table_immutable_and_int8():
    ctx = make_field(11)
    assert ctx.chi_table.dtype == np.int8
    with pytest.raises(ValueError):
        ctx.chi_table[0] = 1


def test_chi_out_of_range():
    ctx = make_field(5)
    with pytest.raises(OutOfRange):
        ctx.chi(5)
    with pytest.raises(OutOfRange):
        ctx.chi(-1)


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_chi_vs_euler_criterion(p):
    ctx = make_field(p)
    for a in range(p):
        want = 0 if a == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)
        assert ctx.chi(a) == want


@pytest.mark.parametrize("p", SMALL_PRIMES)
def test_chi_multiplicativity(p):
    ctx = make_field(p)
    for a in range(1, p):
        for b in range(1, p):
            assert ctx.chi((a * b) % p) == ctx.chi(a) * ctx.chi(b)


def test_primes_in_range_basic():
    assert primes_in_range(3, 20) == [3, 5, 7, 11, 13, 17, 19]
    assert primes_in_range(2, 2) == [2]
    assert primes_in_range(14, 16) == []
    assert len(primes_in_range(2, 100)) == 25


def test_primes_in_range_segment_offsets():
    # Segments not anchored at 2 must agree with a filter over the full range.
    full = primes_in_range(2, 500)
    assert primes_in_range(100, 500) == [p for p in full if p >= 100]
    assert primes_in_range(121, 144) == [127, 131, 137, 139]


def test_primes_in_range_rejects_bad_ranges():
    with pytest.raises(BadRange):
        primes_in_range(20, 3)
    with pytest.raises(BadRange):
        primes_in_range(0, 10)


@settings(max_examples=50)
@given(lo=st.integers(2, 400), width=st.integers(0, 400))
def test_primes_in_range_matches_trial_division(lo, width):
    hi = lo + width
    assert primes_in_range(lo, hi) == [n for n in range(lo, hi + 1) if is_prime(n)]


def test_field_ctx_is_frozen():
    ctx = make_field(7)
    with pytest.raises(AttributeError):
        ctx.p = 11
    assert isinstance(ctx, FieldCtx)
