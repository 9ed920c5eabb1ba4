"""Per-prime averaged traces and the two rank estimators built from them.

For each good prime p the average trace A_p is the exact rational
(1/p) * sum over all p+1 fibers of the Frobenius trace; subtracting the
constant-part correction a_p(B) gives the reduced average A*_p.  Two
estimators consume the series: the Cesaro sum
S(T) = (1/T) * sum_{p <= T} -A*_p log p, whose limit is the Mordell-Weil
rank of the varying part, and the truncated Dirichlet residue
(s-1) * sum_{p <= T} -A*_p log(p) / p^s evaluated on a grid of s > 1.

A*_p is kept as exact integers, with Fraction on demand: an entry holds p,
A_p's numerator and denominator and a_p(B), and builds A_p and A*_p as
Fractions only when they are read.  Floats appear only in the log-weighted
reduction, -A*_p log p computed once per entry from the integers and
accumulated in fixed ascending-p order.

The estimators read only the ledger, so this module loads the numpy-backed
kernels only when a prime's trace is computed with them; a chi_sum family
whose character sums stay at degree <= 3, as every shipped family's do, and a
coset family y^2 = G(x) + lam t^d never load them.
"""

from __future__ import annotations

import hashlib
import marshal
import math
import os
from fractions import Fraction
from typing import NamedTuple

from .family_model import (
    FamilySpec,
    bad_primes,
    check_bad_primes_known,
    render_family,
    trace_curve_discriminants,
)
from .fiber_sum import UnsupportedFiber, trace_sum
from .prime_field import FieldCtx, make_field, primes_in_range


class BadTracePrime(Exception):
    """p divides the discriminant of a trace curve."""


class DomainError(ValueError):
    """Dirichlet evaluation requested at s <= 1, s = infinity or s = NaN."""


class SeriesEntry:
    """One ledger row as integers: p, A_p = num/den in lowest terms with
    den > 0, and a_p(B); a skipped prime has None for all three and a reason.

    weight = -A*_p log p, the term of every estimator, is computed once here
    (0.0 for a skipped prime).  A*_p = (num - a_p(B) den)/den, and integer
    true division is correctly rounded, so the weight is
    float(-A_star) * math.log(p) to the last bit.  A_p and A_star are exact
    Fractions built when read.  An entry is a value: do not assign to it.
    """

    __slots__ = ("p", "num", "den", "a_p_B", "skipped", "reason", "weight")

    def __init__(self, p: int, num: int | None, den: int | None, a_p_B: int | None,
                 skipped: bool = False, reason: str = "") -> None:
        self.p, self.skipped, self.reason = p, skipped, reason
        if skipped:
            self.num = self.den = self.a_p_B = None
            self.weight = 0.0
            return
        g = math.gcd(num, den)
        if g != 1:
            num, den = num // g, den // g
        self.num, self.den, self.a_p_B = num, den, a_p_B
        self.weight = -((num - a_p_B * den) / den) * math.log(p)

    def __eq__(self, other):
        if type(other) is not SeriesEntry:
            return NotImplemented
        return all(getattr(self, k) == getattr(other, k) for k in self.__slots__)

    def __repr__(self) -> str:
        if self.skipped:
            return f"SeriesEntry(p={self.p}, skipped=True, reason={self.reason!r})"
        return f"SeriesEntry(p={self.p}, A_p={self.num}/{self.den}, a_p_B={self.a_p_B})"

    @property
    def A_p(self) -> Fraction | None:
        return None if self.skipped else Fraction(self.num, self.den)

    @property
    def A_star(self) -> Fraction | None:
        """A*_p = A_p - a_p(B)."""
        return None if self.skipped else Fraction(self.num - self.a_p_B * self.den, self.den)


class NagaoSeries:
    """Ordered per-prime ledger for one family."""

    def __init__(self, family_hash: str, entries: list[SeriesEntry] | None = None) -> None:
        self.family_hash = family_hash
        self.entries = [] if entries is None else entries

    def append(self, entry: SeriesEntry) -> None:
        if self.entries and entry.p <= self.entries[-1].p:
            raise ValueError("entries must be strictly ascending in p")
        self.entries.append(entry)


def family_hash(spec: FamilySpec) -> str:
    """Hash of the canonical rendering; any semantic change changes it."""
    return hashlib.sha256(render_family(spec).encode()).hexdigest()[:16]


def trace_correction(spec: FamilySpec, ctx: FieldCtx) -> int:
    """a_p(B) = sum of the traces of the declared trace curves; 0 if trivial.

    Each trace comes from charsum.char_sum, whose memo the kernel shares."""
    if not spec.trace.curves:
        return 0
    from .charsum import curve_trace

    total = 0
    for curve, disc in zip(spec.trace.curves, trace_curve_discriminants(spec)):
        if disc % ctx.p == 0 or curve[-1] % ctx.p == 0:
            raise BadTracePrime(f"p = {ctx.p} is bad for a trace curve")
        total += curve_trace(curve, ctx)
    return total


def average_trace(spec: FamilySpec, ctx: FieldCtx) -> Fraction:
    """A_p = (1/p) * sum over c in P^1(F_p) of the fiber trace at c.

    Raises the first UnsupportedFiber when a fiber's trace is refused."""
    total, unsupported = trace_sum(spec, ctx)
    if unsupported:
        raise unsupported[0]
    return Fraction(total, ctx.p)


def variant_average(spec: FamilySpec, ctx: FieldCtx) -> Fraction:
    """A'_p, the average over the #P^1(F_p) = p + 1 base points."""
    return average_trace(spec, ctx) * Fraction(ctx.p, ctx.p + 1)


def compute_entry(spec: FamilySpec, p: int) -> SeriesEntry:
    """Ledger entry for one good prime; skip reasons become data, not errors."""
    ctx = make_field(p)
    try:
        a_b = trace_correction(spec, ctx)
    except BadTracePrime:
        return SeriesEntry(p, None, None, None, skipped=True, reason="bad trace prime")
    try:
        a_p = average_trace(spec, ctx)
    except UnsupportedFiber as exc:
        reason = f"unsupported fiber at c={exc.c}: {exc.why}"
        return SeriesEntry(p, None, None, None, skipped=True, reason=reason)
    return SeriesEntry(p, a_p.numerator, a_p.denominator, a_b)


def good_primes(spec: FamilySpec, lo: int, hi: int) -> list[int]:
    """The primes in [lo, hi] outside the bad set; ValidationError when the
    bad set is not known up to hi (check_bad_primes_known)."""
    check_bad_primes_known(spec, hi)
    bad = bad_primes(spec)
    if hi < 2:
        return []
    return [p for p in primes_in_range(2, hi) if p >= lo and p not in bad]


def compute_series(spec: FamilySpec, t_max: int, jobs: int = 1) -> NagaoSeries:
    """All entries for good primes up to t_max, ascending."""
    series = NagaoSeries(family_hash(spec))
    for entry in iter_entries(spec, good_primes(spec, 3, t_max), jobs=jobs):
        series.append(entry)
    return series


def iter_entries(spec: FamilySpec, primes: list[int], jobs: int = 1):
    """Yield entries in ascending-p order, optionally fanning out to forked
    workers: worker k computes rest[k::jobs] of the primes after the first.

    With workers, the parent computes primes[0] first, so whatever that prime
    imports (numpy and the kernels, for a family on the separable or grid
    kernel) is loaded once, before the fork.  nagao starts no thread, but
    importing numpy starts OpenBLAS's thread pool.  OpenBLAS stops that pool
    before a fork (a pthread_atfork handler) and starts it again at the next
    BLAS call, so a worker is forked from one thread; the kernels make no BLAS
    call in any case, as their products are of integers.  A
    worker sends each entry's fields down its own pipe with marshal, and the
    parent reads the pipes round-robin.  A worker that ends before an entry
    leaves the parent to compute it, which re-raises the worker's error.  The
    workers are killed and reaped however the generator ends, and one whose
    parent is gone stops at its next write (EPIPE)."""
    if jobs <= 1 or len(primes) < 2:
        for p in primes:
            yield compute_entry(spec, p)
        return
    import signal  # loads enum conversions: only a run with workers pays for it

    yield compute_entry(spec, primes[0])
    rest = primes[1:]
    jobs = min(jobs, len(rest))
    pids, readers = [], []
    try:
        for k in range(jobs):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:
                try:
                    for f in readers:
                        f.close()
                    os.close(r)
                    for p in rest[k::jobs]:
                        e = compute_entry(spec, p)
                        # an entry is far below PIPE_BUF, so each write is atomic
                        os.write(w, marshal.dumps((p, e.num, e.den, e.a_p_B, e.skipped, e.reason)))
                finally:
                    os._exit(0)
            pids.append(pid)
            os.close(w)
            readers.append(os.fdopen(r, "rb"))
        for i, p in enumerate(rest):
            try:
                fields = marshal.load(readers[i % jobs])
            except EOFError:
                compute_entry(spec, p)
                raise RuntimeError(f"the worker for p = {p} ended without its entry") from None
            if fields[0] != p:
                raise RuntimeError(f"a worker sent p = {fields[0]} where p = {p} was due")
            yield SeriesEntry(*fields)
    finally:
        for f in readers:
            f.close()
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


class SeriesPoint(NamedTuple):
    T: int
    S_T: float
    n_primes: int
    n_skipped: int


def check_checkpoints(checkpoints: list[int]) -> None:
    """Raise ValueError unless the T_i grid is non-empty, ascending and >= 3."""
    if not checkpoints:
        raise ValueError("checkpoints must not be empty")
    if sorted(checkpoints) != list(checkpoints):
        raise ValueError("checkpoints must be ascending")
    if checkpoints[0] < 3:
        raise ValueError("checkpoints must be >= 3")


def cesaro_series(entries: list[SeriesEntry], checkpoints: list[int]) -> list[SeriesPoint]:
    """S(T_i) = (1/T_i) * sum_{p <= T_i, not skipped} -A*_p log p.

    Skipped primes contribute 0 but T still advances.  Deterministic:
    entries are consumed in ascending p, floats enter only at the final
    multiply-by-log step.
    """
    check_checkpoints(checkpoints)
    out: list[SeriesPoint] = []
    acc = 0.0
    used = 0
    skipped = 0
    idx = 0
    for t in checkpoints:
        while idx < len(entries) and entries[idx].p <= t:
            e = entries[idx]
            if e.skipped:
                skipped += 1
            else:
                acc += e.weight
                used += 1
            idx += 1
        out.append(SeriesPoint(t, acc / t, used, skipped))
    return out


def dirichlet_residue(
    entries: list[SeriesEntry], s_list: list[float], T: int
) -> list[tuple[float, float]]:
    """(s, (s-1) * D(s)) with D(s) = sum_{p <= T} -A*_p log(p) / p^s."""
    for s in s_list:
        if not 1 < s < math.inf:  # also catches NaN
            raise DomainError(f"s must exceed 1 and be finite, got {s}")
    terms = []
    for e in entries:
        if e.p > T:
            break
        if not e.skipped:
            terms.append((e.p, e.weight))
    out = []
    for s in s_list:
        acc = 0.0
        for p, w in terms:
            try:
                acc += w / p**s
            except OverflowError:  # p^s beyond the floats: the term is 0 or subnormal
                acc += w * p**-s
        out.append((s, (s - 1) * acc))
    return out


DEFAULT_S_GRID = [1 + 2.0**-k for k in range(2, 7)]


def synthetic_entries(a_star: Fraction | int, t_max: int) -> list[SeriesEntry]:
    """Entries with a constant injected A*_p; estimator calibration helper."""
    a_star = Fraction(a_star)
    return [
        SeriesEntry(p, a_star.numerator, a_star.denominator, 0)
        for p in primes_in_range(2, t_max)
    ]
