"""Prime enumeration and arithmetic over F_p with a cached quadratic-character table.

The character table is the workhorse of every point count: the number of
solutions of y^2 = a over F_p is 1 + chi(a), so affine counts reduce to
batched table lookups.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
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


def is_prime(n: int) -> bool:
    """Deterministic primality by trial division; adequate for p <= 10**6."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class FieldCtx:
    """An odd prime p together with its Legendre-symbol lookup table.

    Immutable; safe to share across workers.  The table is built on first
    access, so a prime whose traces need no point count never loads numpy.
    """

    p: int

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
        """Quadratic character of a residue, by table lookup."""
        if not 0 <= a < self.p:
            raise OutOfRange(f"residue {a} not in [0, {self.p})")
        return int(self.chi_table[a])


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
