"""Combinatorics of the trivial part of the Neron-Severi group.

The subgroup S is generated by a horizontal class, a fiber class, and the
non-identity components of singular fibers, so its rank is
2 + sum_c (n_c - 1).  Frobenius permutes fiber components, fixing the two
distinguished classes, giving trace 2 + sum_c (m_c(p) - 1); the Galois-fixed
rank replaces components by orbits.  Rank of NS over the ground field splits
as Mordell-Weil rank of the varying part plus the fixed rank of S.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .accumulator import NagaoSeries
from .family_model import FiberConfiguration


def rank_S(config: FiberConfiguration) -> int:
    """2 + sum over singular fibers of (n_c - 1)."""
    return 2 + sum(fd.n - 1 for fd in config.fibers)


def rank_S_Gk(config: FiberConfiguration) -> int:
    """Galois-fixed rank: 2 + sum of (orbit count - 1) per fiber."""
    return 2 + sum(fd.orbits - 1 for fd in config.fibers)


def trace_on_S(config: FiberConfiguration, p: int) -> int:
    """2 + sum of (m_c(p) - 1) using each fiber's declared m-rule."""
    return 2 + sum(fd.m_rule.value(p) - 1 for fd in config.fibers)


def ns_rank(rank_mw: int, config: FiberConfiguration) -> int:
    """rank NS over the ground field = Mordell-Weil rank + fixed rank of S."""
    return rank_mw + rank_S_Gk(config)


class Form5Report(NamedTuple):
    """Per-prime residuals tr(F_p | S) - A*_p, read as the implied b_p/p.

    Diagnostic only: b_p is never computed independently, so there is no
    pass/fail semantics attached.  terms holds (p, r, d), the residual r/d
    in lowest terms; residuals builds the Fractions when read."""

    terms: tuple[tuple[int, int, int], ...]
    mean_abs: float
    max_abs: float

    @property
    def residuals(self) -> tuple[tuple[int, Fraction], ...]:
        return tuple((p, Fraction(r, d)) for p, r, d in self.terms)


def form5_diagnostic(series: NagaoSeries, config: FiberConfiguration) -> Form5Report:
    """trace_on_S at every prime, with the const m-rules summed once."""
    rules = [fd.m_rule for fd in config.fibers]
    fixed = 2 + sum(r.m - 1 for r in rules if r.kind == "const")
    rules = [r for r in rules if r.kind != "const"]
    terms = []
    for e in series.entries:
        if not e.skipped:
            # A*_p = (num - a_b d)/d, so r = tr d - num + a_b d; gcd(r, d) = gcd(num, d) = 1
            d, tr = e.den, fixed + sum(r.value(e.p) - 1 for r in rules)
            terms.append((e.p, (tr + e.a_p_B) * d - e.num, d))
    if not terms:
        return Form5Report((), 0.0, 0.0)
    abs_vals = [abs(r) / d for _, r, d in terms]
    return Form5Report(tuple(terms), sum(abs_vals) / len(abs_vals), max(abs_vals))
