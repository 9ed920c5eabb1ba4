"""Primes, and the field context F_p with its per-prime caches.

The number of solutions of y^2 = a over F_p is 1 + chi(a), so every point
count is a character sum.  A single value chi(a), legendre or FieldCtx.chi,
costs one modular power by Euler's criterion and loads no numpy; whole sums
S(f) come from charsum's char_sum, memoized per prime in FieldCtx.char_sums.
The O(p) table chi_table serves only the numpy kernels and S(f) of degree
>= 4, and is built the first time one of them reads it; the coset kernel
(charsum.coset_sum) reads characters off its own table of discrete
logarithms instead.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


class NotPrime(ValueError):
    """p failed the deterministic primality test."""


class EvenOrSmall(ValueError):
    """p < 3; the even prime is always treated as a bad prime."""


class OutOfRange(ValueError):
    """Residue argument outside [0, p)."""


class BadRange(ValueError):
    """Prime enumeration called with lo > hi or lo < 2."""


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Below this bound Miller-Rabin on the 13 bases above is exact
# (Sorenson and Webster 2015, "Strong pseudoprimes to twelve prime bases": psi_13).
MR_BOUND = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the first 13 prime bases, exact for
    n < MR_BOUND; raises ValueError at or above the bound."""
    if n >= MR_BOUND:
        raise ValueError(f"{n} exceeds the primality test's bound {MR_BOUND}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n < 43 * 43:  # no prime factor up to 41 and below 43^2
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """chi(a mod p) for an odd prime p, by Euler's criterion: O(log p)."""
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


class FieldCtx:
    """An odd prime p, read-only, with its per-prime caches.

    chi_table, and numpy with it, is built on first access, only where an
    O(p) sum needs it; char_sums is the memo of charsum.char_sum that the
    kernel and trace_correction share, S(f) by the reduced coefficient tuple
    of f.
    """

    def __init__(self, p: int) -> None:
        self._p = p
        self.char_sums: dict[tuple[int, ...], int] = {}

    p = property(lambda self: self._p)

    @functools.cached_property
    def chi_table(self) -> np.ndarray:
        """chi_table[a] is 0 for a = 0, +1 for nonzero squares and -1 otherwise,
        built in O(p) by marking the squares {a^2 mod p}; read-only int8."""
        import numpy as np

        a = np.arange(self.p, dtype=np.int64)
        table = np.full(self.p, -1, dtype=np.int8)
        table[(a * a) % self.p] = 1
        table[0] = 0
        table.setflags(write=False)
        return table

    def chi(self, a: int) -> int:
        """Quadratic character of a residue, by Euler's criterion (legendre)."""
        if not 0 <= a < self.p:
            raise OutOfRange(f"residue {a} not in [0, {self.p})")
        return legendre(a, self.p)


def make_field(p: int) -> FieldCtx:
    """Build a FieldCtx for an odd prime p."""
    if p < 3:
        raise EvenOrSmall(f"p must be an odd prime >= 3, got {p}")
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    return FieldCtx(p)


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes in [lo, hi], ascending, by a sieve of Eratosthenes up to hi."""
    if lo > hi:
        raise BadRange(f"empty range [{lo}, {hi}]")
    if lo < 2:
        raise BadRange(f"lo must be >= 2, got {lo}")
    sieve = bytearray([1]) * (hi + 1)
    for q in range(2, math.isqrt(hi) + 1):
        if sieve[q]:
            sieve[q * q :: q] = bytes((hi - q * q) // q + 1)
    return list(itertools.compress(range(lo, hi + 1), sieve[lo:]))
