"""Averaged traces, ledger entries, and the two rank estimators."""

import csv
import math
import os
import signal
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nagao import accumulator, kernels, load_shipped_family, parse_family
from nagao.accumulator import (
    DEFAULT_S_GRID,
    DomainError,
    NagaoSeries,
    SeriesEntry,
    average_trace,
    cesaro_series,
    compute_entry,
    compute_series,
    dirichlet_residue,
    family_hash,
    good_primes,
    iter_entries,
    synthetic_entries,
    trace_correction,
    variant_average,
)
from nagao.family_model import FiberConfiguration, FiberDescriptor, parse_m_rule, render_family
from nagao.fiber_trace import fiber_trace
from nagao.fiber_sum import kernel_name
from nagao.prime_field import make_field, primes_in_range
from nagao.runner import LEDGER_FIELDS, entry_row, load_ledger, row_entry
from nagao.shioda_tate import form5_diagnostic, trace_on_S


@pytest.mark.parametrize("name", ["constant_E", "shioda_g1", "shioda_g2", "multicover_ex2"])
def test_shipped_family_hash_matches_the_benchmark_reference(name):
    """Every row of the benchmark's reference ledger carries the hash of the
    shipped file, so a change of rendering would move its bytes."""
    ref = Path(__file__).parents[1] / "perfbench" / "refs" / "full" / name / "ledger.csv"
    with ref.open() as fh:
        hashes = {row["family_hash"] for row in csv.DictReader(fh)}
    assert hashes == {family_hash(load_shipped_family(name))}


def test_family_hash_distinguishes_families():
    hashes = {family_hash(load_shipped_family(n))
              for n in ("constant_E", "shioda_g1", "shioda_g2", "multicover_ex2")}
    assert len(hashes) == 4
    h = family_hash(load_shipped_family("shioda_g1"))
    assert h == family_hash(load_shipped_family("shioda_g1"))
    assert len(h) == 16


def test_average_trace_shioda_g1_p5():
    # all five finite fibers have a = -2, infinity contributes 0: A_5 = -10/5
    spec = load_shipped_family("shioda_g1")
    assert average_trace(spec, make_field(5)) == Fraction(-10, 5)


# multicover_ex2 with x*(x-1)*(x-7) for its cover with t: no cover involves t
T_FREE_MULTICOVER = """\
family "t_free_multicover"
kind multicover
poly (x-2)*(x-3)*(x-5)
poly x*(x-1)*(x-7)
genus 4
trace curve (x-2)*(x-3)*(x-5)
infinity affine_plus 2 1
"""


def test_t_free_multicover_counts_its_curve_over_infinity():
    """C x P^1 with C a fiber product: the fiber over t = infinity is C again,
    so A_p = a(C) (p + 1) / p, with a(C) the trace of the fiber over c = 0."""
    spec = parse_family(T_FREE_MULTICOVER)
    for p in good_primes(spec, 3, 200):
        ctx = make_field(p)
        a_c = fiber_trace(ctx, spec, 0).a
        assert fiber_trace(ctx, spec, None).a == a_c
        assert average_trace(spec, ctx) == Fraction(a_c * (p + 1), p), f"p = {p}"


def test_t_free_hyperelliptic_family_is_the_constant_family():
    """kind constant only asserts that the poly has no t: the same curve
    declared as hyperelliptic gives constant_E's A_p at every prime."""
    spec = load_shipped_family("constant_E")
    same = parse_family(render_family(spec).replace("kind constant", "kind hyperelliptic"))
    assert same.kind == "hyperelliptic"
    primes = good_primes(spec, 3, 500)
    assert good_primes(same, 3, 500) == primes
    assert [compute_entry(same, p) for p in primes] == [compute_entry(spec, p) for p in primes]


def test_constant_family_average_is_exact():
    # constant family: every fiber including infinity is the same curve, so
    # A_p = a_0 (p + 1) / p and the trace correction leaves A*_p = a_0 / p
    spec = load_shipped_family("constant_E")
    for p in (5, 7, 11, 13, 17, 19, 23, 29):
        ctx = make_field(p)
        a0 = trace_correction(spec, ctx)
        assert average_trace(spec, ctx) == Fraction(a0 * (p + 1), p)
        assert average_trace(spec, ctx) - a0 == Fraction(a0, p)


def test_trace_correction_values():
    spec = load_shipped_family("constant_E")
    assert trace_correction(spec, make_field(5)) == -2
    assert trace_correction(spec, make_field(7)) == 0
    g1 = load_shipped_family("shioda_g1")
    assert trace_correction(g1, make_field(5)) == 0


def test_variant_average_identity():
    # A'_p (p + 1) = A_p p exactly
    for name in ("constant_E", "shioda_g1", "shioda_g2"):
        spec = load_shipped_family(name)
        for p in (5, 7, 11, 13):
            ctx = make_field(p)
            assert variant_average(spec, ctx) * (p + 1) == average_trace(spec, ctx) * p


def test_compute_entry_and_reduced_trace():
    spec = load_shipped_family("shioda_g1")
    entry = compute_entry(spec, 5)
    assert not entry.skipped
    assert entry.A_p == Fraction(-2) and entry.a_p_B == 0
    assert entry.A_star == entry.A_p - entry.a_p_B


def test_good_primes_excludes_bad_set():
    mc = load_shipped_family("multicover_ex2")
    primes = good_primes(mc, 3, 30)
    assert primes == [7, 11, 13, 17, 19, 23, 29]


def test_series_appends_must_ascend():
    series = NagaoSeries("abc")
    series.append(SeriesEntry(3, 0, 1, 0))
    series.append(SeriesEntry(5, 0, 1, 0))
    with pytest.raises(ValueError):
        series.append(SeriesEntry(5, 0, 1, 0))


def test_compute_series_matches_per_prime_entries():
    spec = load_shipped_family("shioda_g1")
    series = compute_series(spec, 50)
    assert [e.p for e in series.entries] == good_primes(spec, 3, 50)
    for e in series.entries:
        assert e == compute_entry(spec, e.p)


def test_compute_series_parallel_equals_serial():
    spec = load_shipped_family("shioda_g1")
    serial = compute_series(spec, 80, jobs=1)
    parallel = compute_series(spec, 80, jobs=2)
    assert serial.entries == parallel.entries


@pytest.mark.parametrize("jobs,n", [(jobs, n) for jobs in (2, 3)
                                    for n in (4, 5, 8 * jobs - 1, 8 * jobs, 8 * jobs + 1, 8 * jobs + 2)])
def test_interleaved_split_equals_serial(jobs, n):
    """The parent computes the first of n primes and worker k the k-th of
    every jobs of the other n - 1; counts just under, on and over a multiple
    of jobs, of n and of n - 1, give the serial entries."""
    spec = load_shipped_family("shioda_g1")
    t_max = good_primes(spec, 3, 200)[n - 1]
    assert len(good_primes(spec, 3, t_max)) == n
    assert compute_series(spec, t_max, jobs=jobs).entries == compute_series(spec, t_max, jobs=1).entries


def test_more_jobs_than_primes_equals_serial():
    spec = load_shipped_family("shioda_g1")
    for primes in ([], [5], [5, 7], [5, 7, 11]):
        assert list(iter_entries(spec, primes, jobs=8)) == list(iter_entries(spec, primes, jobs=1))


@pytest.mark.parametrize("jobs", [2, 3])
def test_worker_error_is_the_serial_error(monkeypatch, jobs):
    """A worker that raises sends no entry; the parent computes that prime
    itself and raises what --jobs 1 raises, after the entries before it."""
    spec = load_shipped_family("shioda_g1")
    primes = good_primes(spec, 3, 120)
    compute = accumulator.compute_entry

    def failing(spec, p):
        if p == primes[7]:
            raise ArithmeticError(f"no entry at p = {p}")
        return compute(spec, p)

    monkeypatch.setattr(accumulator, "compute_entry", failing)
    got = []
    with pytest.raises(ArithmeticError, match=f"p = {primes[7]}"):
        for entry in iter_entries(spec, primes, jobs=jobs):
            got.append(entry.p)
    assert got == primes[:7]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_worker_killed_from_outside_names_its_prime(monkeypatch):
    """A worker that ends without an entry whose prime the parent can compute
    was killed from outside: a RuntimeError names the prime."""
    spec = load_shipped_family("shioda_g1")
    primes = good_primes(spec, 3, 120)
    compute, parent = accumulator.compute_entry, os.getpid()

    def killed(spec, p):
        if p == primes[5] and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return compute(spec, p)

    monkeypatch.setattr(accumulator, "compute_entry", killed)
    with pytest.raises(RuntimeError, match=f"p = {primes[5]} ended"):
        list(iter_entries(spec, primes, jobs=2))


def test_closed_generator_leaves_no_child():
    spec = load_shipped_family("shioda_g1")
    gen = iter_entries(spec, good_primes(spec, 3, 2000), jobs=2)
    assert [next(gen).p for _ in range(3)] == good_primes(spec, 3, 2000)[:3]
    gen.close()
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# multicover_ex2's covers with a t^2 x added to the cover with t: chi_sum,
# and S(a G) = S(x (x-2)(x-3)(x-5)) of degree 4 comes from table_char_sum
T2_MULTICOVER = """\
family "t2_multicover"
kind multicover
poly (x-2)*(x-3)*(x-5)
poly x*(x-1)*(x-t) + x*t^2
genus 4
trace curve (x-2)*(x-3)*(x-5)
infinity affine_plus 2 1
"""


def test_pool_computes_the_first_prime_in_the_parent(monkeypatch):
    """With workers, the parent computes primes[0] alone, so what it imports
    (here numpy, for table_char_sum) is loaded before the pool forks."""
    spec = parse_family(T2_MULTICOVER)
    assert kernel_name(spec.polys) == "chi_sum"
    primes = good_primes(spec, 3, 200)
    want = list(iter_entries(spec, primes, jobs=1))
    calls, tables = [], []
    compute, table = accumulator.compute_entry, kernels.table_char_sum
    monkeypatch.setattr(accumulator, "compute_entry",
                        lambda spec, p: calls.append(p) or compute(spec, p))
    monkeypatch.setattr(kernels, "table_char_sum",
                        lambda f, ctx: tables.append(f) or table(f, ctx))
    got = list(iter_entries(spec, primes, jobs=2))
    assert calls == [primes[0]]
    assert tables, "the first prime does not reach table_char_sum"
    assert got == want


def test_cesaro_series_hand_computed():
    entries = [
        SeriesEntry(3, -1, 1, 0),
        SeriesEntry(5, -2, 1, 0),
        SeriesEntry(7, None, None, None, skipped=True, reason="x"),
    ]
    pts = cesaro_series(entries, [5, 10])
    assert pts[0].T == 5 and pts[0].n_primes == 2 and pts[0].n_skipped == 0
    assert pts[0].S_T == pytest.approx((math.log(3) + 2 * math.log(5)) / 5)
    assert pts[1].n_skipped == 1
    assert pts[1].S_T == pytest.approx((math.log(3) + 2 * math.log(5)) / 10)


def test_cesaro_series_validates_checkpoints():
    with pytest.raises(ValueError):
        cesaro_series([], [10, 5])
    with pytest.raises(ValueError):
        cesaro_series([], [2])


def test_cesaro_is_deterministic_and_prefix_stable():
    entries = synthetic_entries(Fraction(-3, 2), 2000)
    a = cesaro_series(entries, [500, 1000, 2000])
    b = cesaro_series(entries, [500, 1000, 2000])
    assert a == b  # bitwise: same float accumulation order
    # evaluating a prefix checkpoint alone gives the identical value
    assert cesaro_series(entries, [1000])[0] == a[1]


def test_synthetic_cesaro_tracks_theta():
    # injected A* = -r gives S(T) = r * theta(T) / T
    entries = synthetic_entries(-3, 10000)
    pts = cesaro_series(entries, [10000])
    theta = sum(math.log(p) for p in primes_in_range(2, 10000))
    assert pts[0].S_T == pytest.approx(3 * theta / 10000)


def test_dirichlet_residue_values_and_domain():
    entries = synthetic_entries(-1, 1000)
    for bad_s in (1.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            dirichlet_residue(entries, [bad_s], 1000)
    s = 1.25
    got = dirichlet_residue(entries, [s], 1000)
    want = (s - 1) * sum(
        math.log(p) / p**s for p in primes_in_range(2, 1000)
    )
    assert got == [(s, pytest.approx(want))]
    # truncation: entries beyond T are ignored
    assert dirichlet_residue(entries, [s], 100) == dirichlet_residue(
        synthetic_entries(-1, 100), [s], 100
    )


def test_default_s_grid():
    assert DEFAULT_S_GRID == [1.25, 1.125, 1.0625, 1.03125, 1.015625]


@settings(max_examples=30)
@given(r=st.integers(-5, 5), t_max=st.integers(10, 300))
def test_synthetic_estimator_linearity(r, t_max):
    # S(T) for injected A* = -r is exactly r times the r = -1 series
    base = cesaro_series(synthetic_entries(-1, t_max), [t_max])[0].S_T
    scaled = cesaro_series(synthetic_entries(-r, t_max), [t_max])[0].S_T
    assert scaled == pytest.approx(r * base)


@st.composite
def ledgers(draw):
    """Entries over the primes up to T: some skipped, A_p with denominator 1
    or p, a_p(B) and so A*_p of either sign."""
    entries = []
    for p in primes_in_range(3, draw(st.integers(3, 400))):
        if draw(st.booleans()) and draw(st.booleans()):
            entries.append(SeriesEntry(p, None, None, None, skipped=True, reason="x"))
            continue
        den = draw(st.sampled_from([1, p]))
        a_p = Fraction(draw(st.integers(-5 * p, 5 * p)), den)
        a_b = draw(st.integers(-9, 9))
        entries.append(SeriesEntry(p, a_p.numerator, a_p.denominator, a_b))
    return entries


FORM5_CONFIG = FiberConfiguration(tuple(
    FiberDescriptor(f"f{i}", 3, 2, parse_m_rule(rule))
    for i, rule in enumerate(["2", "3 if chi(-1) == 1 else 1", "2 if p % 3 == 1 else 0"])
))


@settings(max_examples=60)
@given(entries=ledgers(), data=st.data())
def test_estimators_equal_the_fraction_formulas_bit_for_bit(entries, data):
    used = [e for e in entries if not e.skipped]
    t_max = entries[-1].p if entries else 3
    cps = sorted(set(data.draw(st.lists(st.integers(3, t_max), min_size=1, max_size=4))))
    for e in used:
        assert e.weight == float(-e.A_star) * math.log(e.p)

    acc, idx = 0.0, 0
    for pt in cesaro_series(entries, cps):
        while idx < len(used) and used[idx].p <= pt.T:
            acc += float(-used[idx].A_star) * math.log(used[idx].p)
            idx += 1
        assert pt.S_T == acc / pt.T

    s_list = [1.5, *DEFAULT_S_GRID]
    want = []
    for s in s_list:
        acc = 0.0
        for e in used:
            acc += float(-e.A_star) * math.log(e.p) / e.p**s
        want.append((s, (s - 1) * acc))
    assert dirichlet_residue(entries, s_list, t_max) == want

    report = form5_diagnostic(NagaoSeries("h", entries), FORM5_CONFIG)
    residuals = [(e.p, Fraction(trace_on_S(FORM5_CONFIG, e.p)) - e.A_star) for e in used]
    assert report.residuals == tuple(residuals)
    assert all(type(r) is Fraction for _, r in report.residuals)
    abs_vals = [abs(float(r)) for _, r in residuals]
    if abs_vals:
        assert report.mean_abs == sum(abs_vals) / len(abs_vals)
        assert report.max_abs == max(abs_vals)


@st.composite
def ledger_rows(draw):
    """Ledger rows over the primes up to T: some skipped, A_p_den 1 or p,
    numerators of either sign, zero and multiples of p among them."""
    rows = []
    for p in primes_in_range(3, draw(st.integers(3, 300))):
        if draw(st.integers(0, 3)) == 0:
            rows.append(["h", str(p), "", "", "", "1", "bad trace prime"])
            continue
        den = draw(st.sampled_from([1, p]))
        num = draw(st.one_of(st.integers(-5 * p, 5 * p), st.integers(-5, 5).map(lambda k: k * p)))
        rows.append(["h", str(p), str(num), str(den), str(draw(st.integers(-9, 9))), "0", ""])
    return rows


@settings(max_examples=60, deadline=None)
@given(rows=ledger_rows(), data=st.data())
def test_integer_records_equal_the_fraction_references(rows, data):
    """Every output of the integer ledger record against exact Fractions
    made from the raw row."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows([LEDGER_FIELDS, *rows])
        _, entries = load_ledger(path)
    ref = []  # (p, A*_p) of each used row
    for row, e in zip(rows, entries, strict=True):
        if row[5] == "1":
            assert e.skipped and e.A_p is None and e.A_star is None
            assert entry_row("h", e) == row
            continue
        p, a_b = int(row[1]), int(row[4])
        a_p = Fraction(int(row[2]), int(row[3]))
        a_star = a_p - a_b
        assert type(e.A_p) is Fraction and e.A_p == a_p
        assert type(e.A_star) is Fraction and e.A_star == a_star
        assert e.weight == float(-a_star) * math.log(p)
        canonical = ["h", str(p), str(a_p.numerator), str(a_p.denominator), str(a_b), "0", ""]
        assert entry_row("h", e) == canonical
        ref.append((p, a_star))
    for e in entries:
        assert row_entry(entry_row("h", e)) == e

    t_max = int(rows[-1][1]) if rows else 3
    cps = sorted(set(data.draw(st.lists(st.integers(3, t_max), min_size=1, max_size=4))))
    acc, idx = 0.0, 0
    for pt in cesaro_series(entries, cps):
        while idx < len(ref) and ref[idx][0] <= pt.T:
            acc += float(-ref[idx][1]) * math.log(ref[idx][0])
            idx += 1
        assert pt.S_T == acc / pt.T

    s_list = [1.5, *DEFAULT_S_GRID]
    want = []
    for s in s_list:
        acc = 0.0
        for p, a_star in ref:
            acc += float(-a_star) * math.log(p) / p**s
        want.append((s, (s - 1) * acc))
    assert dirichlet_residue(entries, s_list, t_max) == want

    report = form5_diagnostic(NagaoSeries("h", entries), FORM5_CONFIG)
    residuals = tuple((p, trace_on_S(FORM5_CONFIG, p) - a_star) for p, a_star in ref)
    assert report.residuals == residuals
    assert all(type(r) is Fraction for _, r in report.residuals)
    assert all(math.gcd(r, d) == 1 for _, r, d in report.terms)
    abs_vals = [abs(float(r)) for _, r in residuals]
    if abs_vals:
        assert report.mean_abs == sum(abs_vals) / len(abs_vals)
        assert report.max_abs == max(abs_vals)
