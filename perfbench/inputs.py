"""Workload definitions, seeded input generation and output references.

Everything here runs before or after the timed region: generating the
`cubic_t` family file and the synthetic ledgers, and computing the resume
references, is excluded from every metric.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SHIPPED_DIR = SRC / "nagao" / "families"
REFS_DIR = BENCH_DIR / "refs"

SHIPPED = ["constant_E", "shioda_g1", "shioda_g2", "multicover_ex2"]
FAMILIES = SHIPPED + ["cubic_t"]

# t-degree 3 keeps the O(p^2) grid fallback in use once t-degree <= 2 goes
# closed-form; it is the "no change" input for that optimisation.
CUBIC_T_TEXT = """\
# y^2 = x^3 - x + t^3: t-degree 3, generated by the benchmark.
family "cubic_t"
kind hyperelliptic
poly x^3 - x + t^3
genus 1
trace none
infinity trace_zero
"""

WORKLOADS = ["grid_sweep", "parallel_sweep", "resume_estimators"]
JOBS = {"grid_sweep": 1, "parallel_sweep": 2, "resume_estimators": 1}

# Prime cutoffs.  "full" is the benchmark; "smoke" is the self-test size.
SIZES = {
    "full": {"sweep_t": 700, "resume_t": 200_000},
    "smoke": {"sweep_t": 60, "resume_t": 3_000},
}

# The default residue grid of the CLI, restated so the check is independent.
S_GRID = [1 + 2.0**-k for k in range(2, 7)]
REL_TOL = 1e-9


class InputError(RuntimeError):
    """The checkout cannot provide what a workload needs."""


def require_program() -> None:
    """Fail unless the checkout holds the program's sources."""
    missing = [
        str(p.relative_to(ROOT))
        for p in [SRC / "nagao" / "cli.py"] + [SHIPPED_DIR / f"{n}.fam" for n in SHIPPED]
        if not p.is_file()
    ]
    if missing:
        raise InputError("program sources missing from checkout: " + ", ".join(missing))


def tmax(workload: str, size: str) -> int:
    key = "resume_t" if workload == "resume_estimators" else "sweep_t"
    return SIZES[size][key]


def family_order(seed: int) -> list[str]:
    """The seed fixes the order in which the families are run."""
    order = list(FAMILIES)
    random.Random(seed).shuffle(order)
    return order


def write_family_files(work: Path) -> dict[str, Path]:
    """Paths of all family files; the generated one is written under `work`."""
    paths = {name: SHIPPED_DIR / f"{name}.fam" for name in SHIPPED}
    paths["cubic_t"] = work / "cubic_t.fam"
    paths["cubic_t"].write_text(CUBIC_T_TEXT)
    return paths


def commands(workload: str, fam_path: Path, out_dir: Path, t: int) -> tuple[list, list]:
    """CLI argument lists for one family: (timed, then untimed output checks).

    The sweeps time `run` alone and check the residue path once per run
    with an untimed `residue --resume` over the last ledger.
    """
    common = ["--tmax", str(t), "--family", str(fam_path), "--out", str(out_dir)]
    residue = ["residue", "--resume", *common]
    if workload == "resume_estimators":
        return [["run", "--resume", *common], residue], []
    return [["run", "--jobs", str(JOBS[workload]), *common]], [residue]


# ---------------------------------------------------------------------------
# Sweep references: bytes captured from the program at a known-good commit
# ---------------------------------------------------------------------------

SWEEP_FILES = {"run": ["ledger.csv", "series.csv"], "residue": ["residue.csv"]}


def sweep_ref_dir(refs_root: Path, size: str, family: str) -> Path:
    return refs_root / size / family


def check_sweep(refs_root: Path, size: str, family: str, command: str, out_dir: Path) -> str:
    """'' when every output file of `command` equals its reference, else why not."""
    ref_dir = sweep_ref_dir(refs_root, size, family)
    for name in SWEEP_FILES[command]:
        ref, got = ref_dir / name, out_dir / name
        if not ref.is_file():
            return f"missing reference {ref}"
        if not got.is_file():
            return f"{command} wrote no {name}"
        if got.read_bytes() != ref.read_bytes():
            return f"{family}/{name} differs from reference"
    return ""


# ---------------------------------------------------------------------------
# Synthetic ledgers for resume_estimators
# ---------------------------------------------------------------------------


@dataclass
class Ledger:
    """Generated rows and the exact per-prime data the references use."""

    # (p, -A*_p) for every non-skipped prime, ascending; skipped primes in `skipped`.
    terms: list[tuple[int, Fraction]]
    skipped: list[int]

    def series_ref(self, t: int) -> tuple[float, int, int]:
        """(S(t), primes used, primes skipped), from exact A*_p and math.fsum."""
        used = [(p, a) for p, a in self.terms if p <= t]
        s = math.fsum(float(a) * math.log(p) for p, a in used) / t
        return s, len(used), sum(1 for p in self.skipped if p <= t)

    def residue_ref(self, s: float, t: int) -> float:
        return (s - 1) * math.fsum(
            float(a) * math.log(p) / p**s for p, a in self.terms if p <= t
        )


def _curve_genus(coeffs: tuple[int, ...]) -> int:
    return (len(coeffs) - 2) // 2


def write_synthetic_ledger(fam_path: Path, out_dir: Path, t: int, seed: int) -> Ledger:
    """Write a format-valid ledger.csv covering every good prime <= t.

    A*_p is drawn around -1 (so S(T) tends to 1, far from 0), a_p(B) within
    the Hasse bound of the declared trace curves, and A_p = A*_p + a_p(B)
    stays within 2 g sqrt(p).  Primes that are bad for a trace curve are
    written as skipped rows, as the program itself would.
    """
    from nagao.accumulator import family_hash, good_primes
    from nagao.family_model import parse_family, trace_curve_discriminants
    from nagao.runner import LEDGER_FIELDS

    spec = parse_family(fam_path.read_text())
    rng = random.Random(f"{seed}:{spec.name}")
    fam_hash = family_hash(spec)
    curves = spec.trace.curves
    discs = trace_curve_discriminants(spec)
    terms: list[tuple[int, Fraction]] = []
    skipped: list[int] = []
    out_dir.mkdir(parents=True, exist_ok=True)
    primes = good_primes(spec, 3, t)
    with (out_dir / "ledger.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LEDGER_FIELDS)
        for p in primes:
            if any(d % p == 0 or c[-1] % p == 0 for c, d in zip(curves, discs)):
                writer.writerow([fam_hash, p, "", "", "", "1", "bad trace prime"])
                skipped.append(p)
                continue
            weil = 2 * spec.genus * math.sqrt(p)
            hasse = sum(2 * _curve_genus(c) * math.sqrt(p) for c in curves)
            b = math.floor(max(0.0, min(hasse, weil - 2)))
            a_b = rng.randint(-b, b)
            a_star = Fraction(-p + rng.randint(-p, p), p)
            a_p = a_star + a_b
            if abs(a_p) > weil or a_p.denominator not in (1, p):
                raise InputError(f"generated A_p = {a_p} at p = {p} is not ledger-valid")
            writer.writerow([fam_hash, p, a_p.numerator, a_p.denominator, a_b, "0", ""])
            terms.append((p, -a_star))
    return Ledger(terms, skipped)


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=1e-12)


def check_resume(ledger: Ledger, command: str, out_dir: Path, t: int) -> str:
    """'' when the estimator output matches the exact reference, else why not."""
    name = "series.csv" if command == "run" else "residue.csv"
    path = out_dir / name
    if not path.is_file():
        return f"{command} wrote no {name}"
    with path.open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        return f"{name} is empty"
    try:
        if command == "run":
            if int(rows[-1]["T"]) != t:
                return f"series.csv ends at T = {rows[-1]['T']}, not {t}"
            for row in rows:
                want, used, skipped = ledger.series_ref(int(row["T"]))
                if (int(row["n_primes"]), int(row["n_skipped"])) != (used, skipped):
                    return f"series.csv counts differ at T = {row['T']}"
                if not _close(float(row["S_T"]), want):
                    return f"S({row['T']}) = {row['S_T']}, reference {want!r}"
            return ""
        got_s = [float(row["s"]) for row in rows]
        if got_s != S_GRID:
            return f"residue.csv s grid {got_s} != {S_GRID}"
        for row in rows:
            want = ledger.residue_ref(float(row["s"]), t)
            if int(row["T"]) != t or not _close(float(row["estimate"]), want):
                return f"residue at s = {row['s']} is {row['estimate']}, reference {want!r}"
    except (KeyError, ValueError) as exc:
        return f"{name} unreadable: {exc!r}"
    return ""
