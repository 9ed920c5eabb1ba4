"""Run orchestration: ledger persistence, checkpointed resume.

Outputs are plain CSV plus a JSON summary.  The per-prime ledger is the unit
of persistence: series and residue files are pure functions of it, so a
resumed run reproduces a fresh run bit for bit.  Partial outputs are written
atomically (write-then-rename); only the append-only ledger is streamed.
Reading a complete ledger and the estimators load no numpy; the kernels come
in with the first prime whose trace needs them, which no shipped family's
does.  A ledger row becomes an integer SeriesEntry and
builds no Fraction; with --jobs N the parent computes the first prime to
compute and forks up to N workers, worker k taking every N-th of the rest
from the k-th on.

run, series and residue import only code that they execute: summary_dict
imports shioda_tate only for a family with fiber lines.  Verification is not
here: `nagao verify` runs fiber_trace.verify_family.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from pathlib import Path
from typing import NamedTuple

from .accumulator import (
    NagaoSeries,
    SeriesEntry,
    SeriesPoint,
    cesaro_series,
    check_checkpoints,
    dirichlet_residue,
    family_hash,
    good_primes,
    iter_entries,
)
from .family_model import FamilySpec, bad_primes
from .fiber_sum import kernel_name

LEDGER_FIELDS = ["family_hash", "p", "A_p_num", "A_p_den", "a_p_B", "skipped", "reason"]
SERIES_FIELDS = ["T", "S_T", "n_primes", "n_skipped"]
RESIDUE_FIELDS = ["s", "estimate", "T"]


class LedgerMismatch(Exception):
    """Existing ledger cannot be resumed: another family's, a malformed row,
    rows of more than one family, or a p column that is not the family's good
    primes in order."""


class RunConfig(NamedTuple):
    family_path: str
    t_max: int
    out_dir: str
    jobs: int = 1
    resume: bool = False
    checkpoints: list[int] | None = None
    s_list: list[float] | None = None

    def validate(self) -> None:
        if self.t_max < 3:
            raise ValueError("tmax must be >= 3")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        limit = max(8, 4 * (os.cpu_count() or 1))  # each job forks a worker
        if self.jobs > limit:
            raise ValueError(f"jobs must be <= {limit} (4 per CPU, and at least 8)")
        if self.checkpoints is not None:
            check_checkpoints(self.checkpoints)
            if self.checkpoints[-1] > self.t_max:
                raise ValueError("checkpoints must not exceed tmax")
        if self.s_list is not None:
            if not self.s_list:
                raise ValueError("the s list must not be empty")
            if not all(1 < s < math.inf for s in self.s_list):
                raise ValueError("every s must exceed 1 and be finite")


def default_checkpoints(t_max: int, n: int = 12) -> list[int]:
    """Roughly log-spaced grid ending at t_max."""
    if t_max <= 10:
        return [t_max]
    out = set()
    lo, hi = math.log10(10.0), math.log10(float(t_max))
    for k in range(n):
        out.add(int(round(10 ** (lo + (hi - lo) * k / (n - 1)))))
    out.add(t_max)
    return sorted(t for t in out if t >= 3)


def atomic_write(path: Path, data: str) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(data)
    os.replace(tmp, path)


def entry_row(fam_hash: str, e: SeriesEntry) -> list[str]:
    if e.skipped:
        return [fam_hash, str(e.p), "", "", "", "1", e.reason]
    return [fam_hash, str(e.p), str(e.num), str(e.den), str(e.a_p_B), "0", ""]


def row_entry(row: list[str]) -> SeriesEntry:
    """The entry of one ledger row, its fields in LEDGER_FIELDS order."""
    _, p, num, den, a_b, skipped, reason = row
    p = int(p)
    if skipped != "0":
        if skipped != "1":
            raise ValueError(f"skipped = {skipped!r} is neither 0 nor 1")
        if num or den or a_b:
            raise ValueError("a skipped row has A_p_num, A_p_den or a_p_B")
        return SeriesEntry(p, None, None, None, skipped=True, reason=reason)
    num, den, a_b = int(num), int(den), int(a_b)
    if den not in (1, p):  # A_p has denominator dividing p
        raise ValueError(f"A_p_den = {den} is neither 1 nor p = {p}")
    return SeriesEntry(p, num, den, a_b)


def _drop_torn_row(path: Path) -> None:
    """Cut a final row left without its newline by a crash mid-write."""
    with path.open("r+b") as fh:
        size = fh.seek(0, os.SEEK_END)
        if size == 0:
            return
        fh.seek(size - 1)
        if fh.read(1) == b"\n":
            return
        fh.seek(0)
        fh.truncate(fh.read().rfind(b"\n") + 1)


def load_ledger(path: Path) -> tuple[str | None, list[SeriesEntry]]:
    """Family hash and entries of an existing ledger; (None, []) if absent.

    A torn final row is dropped from the file, so a resume recomputes that
    prime.  A header other than LEDGER_FIELDS, a row with another number of
    fields or another family hash than the first row, a p that does not
    strictly ascend, or any other malformed row raises LedgerMismatch.
    """
    if not path.exists():
        return None, []
    _drop_torn_row(path)
    entries = []
    fam_hash = None
    with path.open(newline="") as fh:
        try:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header not in (None, LEDGER_FIELDS):
                raise LedgerMismatch(
                    f"ledger at {path}: header {header} is not "
                    f"{LEDGER_FIELDS}; it cannot be resumed"
                )
            for row in reader:
                if len(row) != len(LEDGER_FIELDS):
                    raise ValueError(f"{len(row)} fields, not {len(LEDGER_FIELDS)}")
                if fam_hash is None:
                    fam_hash = row[0]
                elif row[0] != fam_hash:
                    raise ValueError(f"family hash {row[0]}, not {fam_hash} as in row 1")
                entry = row_entry(row)
                if entries and entry.p <= entries[-1].p:
                    raise ValueError(f"p = {entry.p} does not exceed {entries[-1].p}")
                entries.append(entry)
        except (csv.Error, ValueError, ZeroDivisionError) as exc:
            raise LedgerMismatch(
                f"ledger at {path}: row {len(entries) + 1} is malformed "
                f"({type(exc).__name__}: {exc}); it cannot be resumed"
            ) from exc
    return fam_hash, entries


class RunResult:
    def __init__(self, spec: FamilySpec, fam_hash: str, series: NagaoSeries, out_dir: Path,
                 skipped: list[SeriesEntry]) -> None:
        self.spec, self.fam_hash, self.series = spec, fam_hash, series
        self.out_dir, self.skipped = out_dir, skipped
        self._points: dict = {}

    def points(self, checkpoints: list[int]) -> list[SeriesPoint]:
        """cesaro_series of this run's entries, computed once per T_i grid."""
        key = tuple(checkpoints)
        if key not in self._points:
            self._points[key] = cesaro_series(self.series.entries, checkpoints)
        return self._points[key]


def run_pipeline(spec: FamilySpec, config: RunConfig) -> RunResult:
    """Compute (or extend) the per-prime ledger up to t_max."""
    config.validate()
    fam_hash = family_hash(spec)
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ledger_path = out_dir / "ledger.csv"

    existing: list[SeriesEntry] = []
    if config.resume:
        old_hash, existing = load_ledger(ledger_path)
        if old_hash is not None and old_hash != fam_hash:
            raise LedgerMismatch(
                f"ledger at {ledger_path} was produced for family hash {old_hash}, "
                f"current family hashes to {fam_hash}"
            )

    # the ledger must hold the good primes in order, none missing, up to its last row
    good = good_primes(spec, 3, max(config.t_max, existing[-1].p if existing else 0))
    for i, e in enumerate(existing):
        if i == len(good) or e.p != good[i]:
            want = f"good prime {good[i]}" if i < len(good) else "no good prime"
            raise LedgerMismatch(
                f"ledger at {ledger_path}: row {i + 1} has p = {e.p} where {spec.name} "
                f"has {want}; it cannot be resumed"
            )
    todo = good[len(existing):]

    mode = "a" if (config.resume and existing) else "w"
    with ledger_path.open(mode, newline="") as fh:
        writer = csv.writer(fh)
        if mode == "w":
            writer.writerow(LEDGER_FIELDS)
        new_entries = []
        for entry in iter_entries(spec, todo, jobs=config.jobs):
            writer.writerow(entry_row(fam_hash, entry))
            fh.flush()
            new_entries.append(entry)

    # load_ledger and the good-prime match above have checked the order
    series = NagaoSeries(fam_hash, [e for e in existing + new_entries if e.p <= config.t_max])
    skipped = [e for e in series.entries if e.skipped]
    return RunResult(spec, fam_hash, series, out_dir, skipped)


def series_csv_text(result: RunResult, checkpoints: list[int]) -> str:
    points = result.points(checkpoints)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SERIES_FIELDS)
    for pt in points:
        writer.writerow([pt.T, repr(pt.S_T), pt.n_primes, pt.n_skipped])
    return buf.getvalue()


def residue_csv_text(result: RunResult, s_list: list[float], t_max: int) -> str:
    rows = dirichlet_residue(result.series.entries, s_list, t_max)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(RESIDUE_FIELDS)
    for s, est in rows:
        writer.writerow([repr(s), repr(est), t_max])
    return buf.getvalue()


def summary_dict(result: RunResult, checkpoints: list[int]) -> dict:
    points = result.points(checkpoints)
    final = points[-1]
    out = {
        "family": result.spec.name,
        "family_hash": result.fam_hash,
        "kernel": kernel_name(result.spec.polys),
        "T": final.T,
        "S_T": final.S_T,
        "nearest_integer": int(round(final.S_T)),
        "n_primes": final.n_primes,
        "n_skipped": final.n_skipped,
        "bad_primes": sorted(bad_primes(result.spec)),
        "skipped": [{"p": e.p, "reason": e.reason} for e in result.skipped],
    }
    if result.spec.fiber_config is not None:
        from .shioda_tate import form5_diagnostic

        report = form5_diagnostic(result.series, result.spec.fiber_config)
        out["form5_diagnostic"] = {
            "mean_abs_residual": report.mean_abs,
            "max_abs_residual": report.max_abs,
        }
    return out
