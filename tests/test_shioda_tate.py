"""Rank bookkeeping for the trivial part of the Neron-Severi group."""

import random
from fractions import Fraction

from nagao import load_shipped_family
from nagao.accumulator import NagaoSeries, SeriesEntry
from nagao.prime_field import primes_in_range
from nagao.family_model import FiberConfiguration, FiberDescriptor, MRule
from nagao.shioda_tate import (
    form5_diagnostic,
    ns_rank,
    rank_S,
    rank_S_Gk,
    trace_on_S,
)


def random_config(rng: random.Random) -> FiberConfiguration:
    fibers = []
    for i in range(rng.randint(0, 6)):
        n = rng.randint(1, 9)
        orbits = rng.randint(1, n)
        kind = rng.choice(["const", "chi", "mod"])
        if kind == "const":
            rule = MRule(kind="const", m=rng.randint(1, n))
        elif kind == "chi":
            rule = MRule(
                kind="chi",
                d=rng.randint(-20, 20) or 1,
                want=rng.choice([1, -1]),
                m_yes=rng.randint(1, n),
                m_no=rng.randint(1, n),
            )
        else:
            rule = MRule(
                kind="mod",
                mod=rng.randint(2, 12),
                rem=rng.randint(0, 11),
                m_yes=rng.randint(1, n),
                m_no=rng.randint(1, n),
            )
        fibers.append(FiberDescriptor(f"c{i}", n, orbits, rule))
    return FiberConfiguration(tuple(fibers))


def test_formulas_match_naive_summation_on_random_configs():
    rng = random.Random(20260825)
    primes = [3, 5, 7, 11, 13, 101]
    for _ in range(1000):
        config = random_config(rng)
        assert rank_S(config) == 2 + sum(fd.n - 1 for fd in config.fibers)
        assert rank_S_Gk(config) == 2 + sum(fd.orbits - 1 for fd in config.fibers)
        for p in primes:
            tr = trace_on_S(config, p)
            assert tr == 2 + sum(fd.m_rule.value(p) - 1 for fd in config.fibers)
            # rational components never exceed geometric components when the
            # declared m-rules are admissible (m <= n by construction here)
            assert tr <= rank_S(config)
        assert ns_rank(3, config) == 3 + rank_S_Gk(config)


def test_orbit_rank_never_exceeds_geometric_rank():
    rng = random.Random(7)
    for _ in range(200):
        config = random_config(rng)
        assert 2 <= rank_S_Gk(config) <= rank_S(config)


def test_empty_config():
    config = FiberConfiguration(())
    assert rank_S(config) == rank_S_Gk(config) == trace_on_S(config, 5) == 2
    assert ns_rank(4, config) == 6


def test_trace_on_S_chi_rule_depends_on_p():
    config = FiberConfiguration(
        (FiberDescriptor("c", 2, 1, MRule(kind="chi", d=-1, want=1, m_yes=2, m_no=1)),)
    )
    assert trace_on_S(config, 5) == 3  # chi(-1) = 1 mod 5
    assert trace_on_S(config, 7) == 2  # chi(-1) = -1 mod 7


def test_form5_diagnostic_residuals():
    config = FiberConfiguration(
        (FiberDescriptor("c", 2, 2, MRule(kind="const", m=2)),)
    )
    series = NagaoSeries("h")
    series.append(SeriesEntry(3, 5, 2, 0))
    series.append(SeriesEntry(5, None, None, None, skipped=True, reason="x"))
    series.append(SeriesEntry(7, 3, 1, 0))
    report = form5_diagnostic(series, config)
    # tr(F_p | S) = 3 for every p; residuals 3 - 5/2 = 1/2 and 3 - 3 = 0
    assert report.residuals == ((3, Fraction(1, 2)), (7, Fraction(0)))
    assert report.mean_abs == 0.25 and report.max_abs == 0.5


def test_form5_diagnostic_empty():
    report = form5_diagnostic(NagaoSeries("h"), FiberConfiguration(()))
    assert report.residuals == () and report.mean_abs == 0.0


def test_shipped_shioda_g1_config_consistency():
    spec = load_shipped_family("shioda_g1")
    config = spec.fiber_config
    assert config is not None
    # four nodal fibers (roots of 27 t^4 = 4), each irreducible: n = m = 1
    assert rank_S(config) == 2
    assert rank_S_Gk(config) == 2
    assert trace_on_S(config, 11) == 2
    # Shioda-Tate with geometric NS rank 4 for this rational elliptic surface:
    # rank_MW = 2 matches the averaged-trace limit the estimator converges to
    assert ns_rank(2, config) == 4


def test_chi_rule_follows_the_squares_mod_p():
    """chi(d) from the squares mod p, 0 when p divides d."""
    for p in (3, 5, 7, 11, 13):
        squares = {x * x % p for x in range(1, p)}
        for d in range(-2 * p, 2 * p + 1):
            chi = 0 if d % p == 0 else (1 if d % p in squares else -1)
            for want in (1, -1, 0):
                rule = MRule(kind="chi", d=d, want=want, m_yes=2, m_no=1)
                assert rule.value(p) == (2 if chi == want else 1)


def test_form5_diagnostic_matches_per_prime_trace_on_S():
    """form5_diagnostic sums the const m-rules once; its residuals, mean and
    max equal those of trace_on_S at every prime, on configs that mix the
    const, chi and mod rules."""
    rng = random.Random(14)
    primes = primes_in_range(3, 400)
    mixed = 0
    for _ in range(200):
        config = random_config(rng)
        mixed += {fd.m_rule.kind for fd in config.fibers} == {"const", "chi", "mod"}
        series = NagaoSeries("h")
        for p in primes:
            if rng.random() < 0.2:
                series.append(SeriesEntry(p, None, None, None, skipped=True, reason="x"))
            else:
                num, den = rng.randint(-5 * p, 5 * p), rng.choice([1, p])
                series.append(SeriesEntry(p, num, den, rng.randint(-9, 9)))
        report = form5_diagnostic(series, config)
        residuals = tuple((e.p, trace_on_S(config, e.p) - e.A_star)
                          for e in series.entries if not e.skipped)
        assert report.residuals == residuals
        abs_vals = [abs(float(r)) for _, r in residuals]
        assert report.mean_abs == sum(abs_vals) / len(abs_vals)
        assert report.max_abs == max(abs_vals)
    assert mixed
