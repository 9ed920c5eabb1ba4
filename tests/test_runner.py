"""Ledger persistence, resume semantics, verification oracles."""

import csv
import math
import os
from fractions import Fraction
from pathlib import Path

import pytest

from nagao import (
    accumulator,
    fiber_sum,
    kernels,
    load_shipped_family,
    parse_family,
    runner,
    shioda_tate,
)
from nagao.accumulator import (
    DEFAULT_S_GRID,
    NagaoSeries,
    SeriesEntry,
    cesaro_series,
    dirichlet_residue,
    family_hash,
    good_primes,
)
from nagao.fiber_trace import brute_force_affine
from nagao.runner import (
    LEDGER_FIELDS,
    LedgerMismatch,
    RunConfig,
    RunResult,
    default_checkpoints,
    entry_row,
    load_ledger,
    residue_csv_text,
    row_entry,
    run_pipeline,
    series_csv_text,
    summary_dict,
    verify_family,
)


def make_config(tmp_path, name, t_max=60, **kw):
    return RunConfig(
        family_path=name,
        t_max=t_max,
        out_dir=str(tmp_path / "out"),
        **kw,
    )


def test_run_config_validation():
    cfg = RunConfig("f", 2, "o")
    with pytest.raises(ValueError):
        cfg.validate()
    with pytest.raises(ValueError):
        RunConfig("f", 100, "o", jobs=0).validate()
    with pytest.raises(ValueError):
        RunConfig("f", 100, "o", checkpoints=[50, 10]).validate()
    with pytest.raises(ValueError):
        RunConfig("f", 100, "o", checkpoints=[10, 200]).validate()
    with pytest.raises(ValueError, match="checkpoints must not be empty"):
        RunConfig("f", 100, "o", checkpoints=[]).validate()
    with pytest.raises(ValueError, match="s list must not be empty"):
        RunConfig("f", 100, "o", s_list=[]).validate()
    for bad_s in (1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="every s must exceed 1"):
            RunConfig("f", 100, "o", s_list=[1.5, bad_s]).validate()
    RunConfig("f", 100, "o", checkpoints=[10, 100], s_list=[1.5]).validate()


@pytest.mark.parametrize("cpus, limit", [(None, 8), (1, 8), (2, 8), (3, 12), (64, 256)])
def test_jobs_are_at_most_four_per_cpu_and_at_least_eight_allowed(monkeypatch, cpus, limit):
    """The bound is checked at validation, before any worker is forked."""
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    RunConfig("f", 100, "o", jobs=limit).validate()
    with pytest.raises(ValueError, match=f"jobs must be <= {limit}"):
        RunConfig("f", 100, "o", jobs=limit + 1).validate()


def test_default_checkpoints():
    pts = default_checkpoints(10000)
    assert pts[-1] == 10000
    assert pts == sorted(pts)
    assert all(t >= 3 for t in pts)
    assert default_checkpoints(8) == [8]


def test_entry_row_round_trip():
    e = SeriesEntry(11, -7, 11, -1)
    row = entry_row("h", e)
    parsed = row_entry(row)
    assert parsed == SeriesEntry(11, -7, 11, -1)
    skip = SeriesEntry(13, None, None, None, skipped=True, reason="why")
    row = entry_row("h", skip)
    parsed = row_entry(row)
    assert parsed == skip


def test_ledger_read_and_estimators_build_no_fraction(tmp_path, monkeypatch):
    spec = load_shipped_family("shioda_g1")  # declares fibers, so form5 runs
    fam_hash = family_hash(spec)
    rows = []
    for i, p in enumerate(good_primes(spec, 3, 10**4)[:500]):
        if i % 7 == 3:
            rows.append([fam_hash, str(p), "", "", "", "1", "bad trace prime"])
        else:
            den = p if i % 2 else 1
            rows.append([fam_hash, str(p), str(i - 250), str(den), str(i % 5 - 2), "0", ""])
    with (tmp_path / "ledger.csv").open("w", newline="") as fh:
        csv.writer(fh).writerows([LEDGER_FIELDS, *rows])

    built = []

    class CountingFraction(Fraction):
        def __new__(cls, *args, **kwargs):
            built.append(args)
            return super().__new__(cls, *args, **kwargs)

    for module in (accumulator, runner, shioda_tate):
        monkeypatch.setattr(module, "Fraction", CountingFraction, raising=False)
    _, entries = load_ledger(tmp_path / "ledger.csv")
    assert len(entries) == 500
    cps = default_checkpoints(entries[-1].p)
    cesaro_series(entries, cps)
    dirichlet_residue(entries, DEFAULT_S_GRID, entries[-1].p)
    skipped = [e for e in entries if e.skipped]
    result = RunResult(spec, fam_hash, NagaoSeries(fam_hash, entries), tmp_path, skipped)
    assert "form5_diagnostic" in summary_dict(result, cps)
    assert built == []
    assert entries[0].A_star == Fraction(-248)
    assert built  # the entry reads the patched name


def test_run_pipeline_writes_ledger(tmp_path):
    spec = load_shipped_family("shioda_g1")
    result = run_pipeline(spec, make_config(tmp_path, "shioda_g1"))
    ledger = Path(result.out_dir) / "ledger.csv"
    assert ledger.exists()
    fam_hash, entries = load_ledger(ledger)
    assert fam_hash == family_hash(spec)
    assert [e.p for e in entries] == [e.p for e in result.series.entries]


def test_run_pipeline_resume_extends_and_matches_fresh(tmp_path):
    spec = load_shipped_family("shioda_g1")
    cfg_small = make_config(tmp_path, "shioda_g1", t_max=40)
    run_pipeline(spec, cfg_small)
    cfg_big = make_config(tmp_path, "shioda_g1", t_max=120, resume=True)
    resumed = run_pipeline(spec, cfg_big)

    fresh_dir = tmp_path / "fresh"
    fresh = run_pipeline(
        spec, RunConfig("shioda_g1", 120, str(fresh_dir))
    )
    assert resumed.series.entries == fresh.series.entries
    cps = [40, 80, 120]
    assert series_csv_text(resumed, cps) == series_csv_text(fresh, cps)
    assert residue_csv_text(resumed, [1.25], 120) == residue_csv_text(fresh, [1.25], 120)


def test_resume_after_torn_last_row_matches_fresh(tmp_path):
    spec = load_shipped_family("shioda_g1")
    fresh = run_pipeline(spec, RunConfig("shioda_g1", 60, str(tmp_path / "fresh")))
    ledger = (tmp_path / "fresh" / "ledger.csv").read_bytes()
    cps = default_checkpoints(60)
    last_row = ledger.rstrip(b"\r\n").rfind(b"\n") + 1
    for cut in range(last_row, len(ledger)):
        out = tmp_path / f"cut{cut}"
        out.mkdir()
        (out / "ledger.csv").write_bytes(ledger[:cut])
        resumed = run_pipeline(spec, RunConfig("shioda_g1", 60, str(out), resume=True))
        assert (out / "ledger.csv").read_bytes() == ledger, f"cut at byte {cut}"
        assert series_csv_text(resumed, cps) == series_csv_text(fresh, cps)


def test_run_pipeline_rejects_foreign_ledger(tmp_path):
    run_pipeline(load_shipped_family("shioda_g1"), make_config(tmp_path, "a"))
    with pytest.raises(LedgerMismatch):
        run_pipeline(
            load_shipped_family("shioda_g2"),
            make_config(tmp_path, "b", resume=True),
        )


def test_summary_dict_contents(tmp_path):
    spec = load_shipped_family("shioda_g1")
    result = run_pipeline(spec, make_config(tmp_path, "shioda_g1", t_max=100))
    summary = summary_dict(result, [50, 100])
    assert summary["family"] == "shioda_g1"
    assert summary["T"] == 100
    assert summary["bad_primes"] == [2]
    assert summary["n_primes"] + summary["n_skipped"] == len(result.series.entries)
    assert summary["nearest_integer"] == round(summary["S_T"])
    assert "form5_diagnostic" in summary  # the shipped file declares its fibers
    assert summary["kernel"] == "chi_sum"


def test_brute_force_affine_known_values():
    assert brute_force_affine(5, ((0, 4, 0, 1),)) == 7  # y^2 = x^3 - x
    assert brute_force_affine(5, ((0, 0, 1, 1),)) == 4  # y^2 = x^2 (x + 1)


@pytest.mark.parametrize(
    "name", ["constant_E", "shioda_g1", "shioda_g2", "multicover_ex2"]
)
def test_verify_family_all_checks_pass(name):
    checks = verify_family(load_shipped_family(name), p_max=13)
    assert len(checks) == 4
    for check in checks:
        assert check.passed, f"{name}: {check.name}: {check.detail}"


def test_verify_family_checks_the_run_kernel(monkeypatch):
    kernel = kernels.affine_counts
    monkeypatch.setattr(kernels, "affine_counts", lambda spec, ctx: kernel(spec, ctx) + 1)
    checks = verify_family(load_shipped_family("shioda_g1"), p_max=7)
    assert checks[0].name.startswith("affine_counts")
    assert not checks[0].passed


def test_verify_family_checks_the_run_trace_path(monkeypatch):
    kernel = kernels.fiber_arrays

    def off_by_one(spec, ctx):
        arrays = kernel(spec, ctx)
        return arrays._replace(a=arrays.a + 1)

    monkeypatch.setattr(kernels, "fiber_arrays", off_by_one)
    checks = verify_family(load_shipped_family("shioda_g1"), p_max=7)
    assert checks[1].name.startswith("fiber_arrays")
    assert not checks[1].passed
    assert "fiber_arrays" in checks[1].detail


def test_verify_family_checks_trace_sum(monkeypatch):
    kernel = fiber_sum.trace_sum

    def off_by_one(spec, ctx):
        total, refused = kernel(spec, ctx)
        return total + 1, refused

    monkeypatch.setattr(fiber_sum, "trace_sum", off_by_one)
    checks = verify_family(load_shipped_family("multicover_ex2"), p_max=7)
    assert checks[3].name == "trace_sum: chi_sum equals grid (p <= 7)"
    assert not checks[3].passed
    assert "chi_sum" in checks[3].detail
    assert all(check.passed for check in checks[:3])


def test_verify_family_checks_trace_sum_refusals(monkeypatch):
    kernel = fiber_sum.trace_sum
    monkeypatch.setattr(fiber_sum, "trace_sum", lambda spec, ctx: (kernel(spec, ctx)[0], []))
    spec = parse_family(
        'family "x_degree_drop"\nkind hyperelliptic\npoly t*x^3 + x^2 + 1\n'
        "genus 1\ntrace none\ninfinity trace_zero\n"
    )
    checks = verify_family(spec, p_max=7)
    assert not checks[3].passed
    assert "[0]" in checks[3].detail


def test_verify_checks_the_fiber_over_t_infinity(monkeypatch):
    """A t-free multicover whose run path forgets that its fiber over
    t = infinity is the curve of every finite fiber: trace_sum and the grid
    share the mistake, so only the scalar sum over P^1 sees it."""
    spec = parse_family(
        'family "t_free"\nkind multicover\npoly (x-2)*(x-3)*(x-5)\npoly x*(x-1)*(x-7)\n'
        "genus 4\ntrace curve (x-2)*(x-3)*(x-5)\ninfinity affine_plus 2 1\n"
    )
    assert verify_family(spec, p_max=13)[1].passed
    for module in (fiber_sum, kernels):
        monkeypatch.setattr(module, "involves_t", lambda spec: True)
    checks = verify_family(spec, p_max=13)
    assert checks[3].passed  # trace_sum equals the grid
    assert not checks[1].passed
    assert "grid sum over P^1" in checks[1].detail


@pytest.mark.parametrize("name", ["shioda_g1", "shioda_g2"])
def test_verify_names_the_root_count_kernel(name):
    """The root-count families e(x) + b(x) t + t^2 take chi_sum."""
    checks = verify_family(load_shipped_family(name), p_max=13)
    assert checks[3].name == "trace_sum: chi_sum equals grid (p <= 13)"
    assert checks[3].passed


def test_summary_and_verify_name_the_separable_kernel(tmp_path):
    spec = parse_family(
        'family "cubic_t_plus_t"\nkind hyperelliptic\npoly x^3 - x + t^3 + t\n'
        "genus 1\ntrace none\ninfinity trace_zero\n"
    )
    result = run_pipeline(spec, make_config(tmp_path, "cubic_t_plus_t", t_max=50))
    assert summary_dict(result, [50])["kernel"] == "separable"
    assert all(check.passed for check in verify_family(spec, p_max=13))


def test_summary_and_verify_name_the_coset_kernel(tmp_path):
    """y^2 = x^3 - x + t^3 is G(x) + lam t^d: the coset kernel."""
    spec = parse_family(
        'family "cubic_t"\nkind hyperelliptic\npoly x^3 - x + t^3\n'
        "genus 1\ntrace none\ninfinity trace_zero\n"
    )
    result = run_pipeline(spec, make_config(tmp_path, "cubic_t", t_max=50))
    assert summary_dict(result, [50])["kernel"] == "coset"
    checks = verify_family(spec, p_max=13)
    assert checks[3].name == "trace_sum: coset equals grid (p <= 13)"
    assert all(check.passed for check in checks)
