"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the test names alone carry the same information under plain -v.
Numbered budgets and tolerance bands are asserted exactly as stated in each
docstring.  Criterion 9's residue half is marked as a strict expected
failure: the truncated Dirichlet sum at s = 1.0625, T = 1e5 captures less
than half of the diverging mass near s = 1 and provably cannot reach the
stated band (see the printed analysis).
"""

import math
import random
import time
from fractions import Fraction

import pytest

from nagao import load_shipped_family
from nagao.accumulator import (
    average_trace,
    cesaro_series,
    compute_series,
    dirichlet_residue,
    good_primes,
    synthetic_entries,
    variant_average,
)
from nagao.family_model import FiberConfiguration, FiberDescriptor, MRule, bad_primes, fiber_at
from nagao.fiber_trace import (
    UnsupportedFiber,
    brute_force_affine,
    count_affine,
    fiber_trace,
    weil_bound,
)
from nagao.kernels import fiber_arrays
from nagao.prime_field import make_field, primes_in_range
from nagao.runner import RunConfig, run_pipeline, series_csv_text
from nagao.shioda_tate import rank_S, rank_S_Gk, trace_on_S

FAMILIES = ["constant_E", "shioda_g1", "shioda_g2", "multicover_ex2"]


def report(num: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:2d} {name}: {status}{extra}", flush=True)
    return ok


def test_criterion_01_kernel_exactness():
    """count_affine == brute-force enumeration, every good p in 3..23,
    every finite fiber, every shipped family; runtime < 10 s."""
    t0 = time.perf_counter()
    ok = True
    for name in FAMILIES:
        spec = load_shipped_family(name)
        bad = bad_primes(spec)
        for p in primes_in_range(3, 23):
            if p in bad:
                continue
            ctx = make_field(p)
            for c in range(p):
                fiber = fiber_at(spec, ctx, c)
                if count_affine(ctx, fiber) != brute_force_affine(p, fiber.polys):
                    ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    assert report(1, "kernel exactness p<=23", ok, f"{elapsed:.1f}s")


def test_criterion_02_weil_bound():
    """|a| <= 2g sqrt(p) for all non-singular fiber records, p <= 1000; < 60 s."""
    t0 = time.perf_counter()
    ok = True
    for name in FAMILIES:
        spec = load_shipped_family(name)
        bound_g = spec.genus
        for p in good_primes(spec, 3, 1000):
            ctx = make_field(p)
            arrays = fiber_arrays(spec, ctx)
            unsupported_cs = {u.c for u in arrays.unsupported}
            for c in range(p):
                if c in unsupported_cs or arrays.singular[c]:
                    continue
                if abs(int(arrays.a[c])) > weil_bound(bound_g, p):
                    ok = False
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    assert report(2, "Weil bound p<=1000", ok, f"{elapsed:.1f}s")


def test_criterion_03_trace_identity_and_nodal_cross_check():
    """N = 1 - a + p*m on every record for p <= 13, plus the nodal count
    N_nodal = N_smooth - chi(g(node)) cross-check for split/non-split nodes."""
    ok = True
    for name in FAMILIES:
        spec = load_shipped_family(name)
        bad = bad_primes(spec)
        for p in (3, 5, 7, 11, 13):
            if p in bad:
                continue
            ctx = make_field(p)
            for c in list(range(p)) + [None]:
                try:
                    rec = fiber_trace(ctx, spec, c)
                except UnsupportedFiber:
                    continue
                if rec is not None and rec.N != 1 - rec.a + p * rec.m:
                    ok = False
    from nagao import fp_poly

    for p in (5, 7, 11, 13):
        ctx = make_field(p)
        for r in range(p):
            for b in range(1, p):
                if (r + b) % p == 0:
                    continue
                node = ((-r) % p, 1)
                f = fp_poly.mul(fp_poly.mul(node, node, p), (b, 1), p)
                n_nodal = sum(1 + ctx.chi(fp_poly.eval_at(f, x, p)) for x in range(p)) + 1
                n_smooth = p + 1  # y^2 = x + b: p affine points, 1 at infinity
                chi_node = ctx.chi((r + b) % p)
                if n_nodal != n_smooth - chi_node:
                    ok = False
    assert report(3, "trace identity round-trip + nodal cross-check", ok)


def test_criterion_04_variant_identity():
    """A'_p * (p + 1) == A_p * p exactly, 100 random good primes <= 1e4 each."""
    rng = random.Random(1729)
    ok = True
    for name in FAMILIES:
        spec = load_shipped_family(name)
        pool = good_primes(spec, 3, 10**4)
        for p in rng.sample(pool, 100):
            ctx = make_field(p)
            if variant_average(spec, ctx) * (p + 1) != average_trace(spec, ctx) * p:
                ok = False
    assert report(4, "A' identity on 100 random primes per family", ok)


def test_criterion_05_constant_family_rank_zero():
    """Constant family: trace correction kills everything, |S(1e4)| <= 0.15."""
    spec = load_shipped_family("constant_E")
    series = compute_series(spec, 10**4)
    s_t = cesaro_series(series.entries, [10**4])[0].S_T
    ok = abs(s_t) <= 0.15
    assert report(5, "constant family |S(1e4)| <= 0.15", ok, f"S={s_t:+.4f}")


def test_criterion_06_shioda_g1_rank_two():
    """Genus-1 family with limit 2: S(1e4) in [1.5, 2.5], <= 10 min single-thread."""
    spec = load_shipped_family("shioda_g1")
    t0 = time.perf_counter()
    series = compute_series(spec, 10**4, jobs=1)
    elapsed = time.perf_counter() - t0
    s_t = cesaro_series(series.entries, [10**4])[0].S_T
    ok = 1.5 <= s_t <= 2.5 and elapsed <= 600.0
    assert report(6, "shioda_g1 S(1e4) in [1.5, 2.5]", ok, f"S={s_t:.4f}, {elapsed:.0f}s")


def test_criterion_07_shioda_g2_rank_four():
    """Genus-2 family with limit 4: S(5e3) in [3.3, 4.7]."""
    spec = load_shipped_family("shioda_g2")
    series = compute_series(spec, 5000)
    s_t = cesaro_series(series.entries, [5000])[0].S_T
    ok = 3.3 <= s_t <= 4.7
    assert report(7, "shioda_g2 S(5e3) in [3.3, 4.7]", ok, f"S={s_t:.4f}")


def test_criterion_08_multicover_rank_one():
    """Double cover pair with limit 1: S(5e3) in [0.4, 1.6]."""
    spec = load_shipped_family("multicover_ex2")
    series = compute_series(spec, 5000)
    s_t = cesaro_series(series.entries, [5000])[0].S_T
    ok = 0.4 <= s_t <= 1.6
    assert report(8, "multicover S(5e3) in [0.4, 1.6]", ok, f"S={s_t:.4f}")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "residue half is unattainable as stated: with A* = -3 the truncated "
        "sum (s-1) * sum_{p<=1e5} 3 log(p)/p^s at s = 1.0625 equals 1.316 "
        "(confirmed by an independent sieve), because the tail beyond T = 1e5 "
        "still holds ~56% of the mass of 1/(s-1); reaching 2.7 would need "
        "T ~ 1e16.  The Cesaro half passes: S(1e5) = 2.9906."
    ),
)
def test_criterion_09_synthetic_estimators():
    """Injected A* = -3: S(1e5) in [2.94, 3.06]; (s-1)D(s) at s = 1.0625,
    T = 1e5 within 10% of 3."""
    entries = synthetic_entries(-3, 10**5)
    s_t = cesaro_series(entries, [10**5])[0].S_T
    cesaro_ok = 2.94 <= s_t <= 3.06
    (_, residue), = dirichlet_residue(entries, [1.0625], 10**5)
    residue_ok = abs(residue - 3) <= 0.3
    report(
        9,
        "synthetic estimators",
        cesaro_ok and residue_ok,
        f"S(1e5)={s_t:.4f} [{'ok' if cesaro_ok else 'out of band'}], "
        f"(s-1)D(s)={residue:.4f} [{'ok' if residue_ok else 'out of band'}]",
    )
    assert cesaro_ok and residue_ok


def test_criterion_10_shioda_tate_random_configs():
    """Rank formulas match naive summation on 1000 random configurations;
    trace_on_S <= rank_S throughout."""
    rng = random.Random(20260825)
    ok = True
    for _ in range(1000):
        fibers = []
        for i in range(rng.randint(0, 6)):
            n = rng.randint(1, 9)
            orbits = rng.randint(1, n)
            fibers.append(
                FiberDescriptor(f"c{i}", n, orbits, MRule(kind="const", m=rng.randint(1, n)))
            )
        config = FiberConfiguration(tuple(fibers))
        if rank_S(config) != 2 + sum(fd.n - 1 for fd in config.fibers):
            ok = False
        if rank_S_Gk(config) != 2 + sum(fd.orbits - 1 for fd in config.fibers):
            ok = False
        for p in (3, 7, 101):
            tr = trace_on_S(config, p)
            if tr != 2 + sum(fd.m_rule.value(p) - 1 for fd in config.fibers):
                ok = False
            if tr > rank_S(config):
                ok = False
    assert report(10, "Shioda-Tate formulas on 1000 random configs", ok)


def test_criterion_11_resume_bitwise_identity(tmp_path):
    """Series CSV of a resumed run is bitwise identical to a fresh run,
    at 2 and at 8 workers."""
    spec = load_shipped_family("shioda_g1")
    checkpoints = [100, 250, 400]
    ok = True
    for jobs in (2, 8):
        fresh_dir = tmp_path / f"fresh{jobs}"
        fresh = run_pipeline(spec, RunConfig("f", 400, str(fresh_dir), jobs=jobs))
        fresh_csv = series_csv_text(fresh, checkpoints)

        resumed_dir = tmp_path / f"resumed{jobs}"
        run_pipeline(spec, RunConfig("f", 150, str(resumed_dir), jobs=jobs))
        resumed = run_pipeline(
            spec, RunConfig("f", 400, str(resumed_dir), jobs=jobs, resume=True)
        )
        resumed_csv = series_csv_text(resumed, checkpoints)
        if fresh_csv.encode() != resumed_csv.encode():
            ok = False
    assert report(11, "resume bitwise identity at 2 and 8 workers", ok)
