"""Command line surface: nagao run | series | residue | verify."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .accumulator import DEFAULT_S_GRID
from .family_model import ParseError, ValidationError, parse_family
from .runner import (
    LedgerMismatch,
    RunConfig,
    RunResult,
    atomic_write,
    default_checkpoints,
    residue_csv_text,
    run_pipeline,
    series_csv_text,
    summary_dict,
    verify_family,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nagao",
        description=(
            "Estimate the Mordell-Weil rank of the Jacobian of the generic "
            "fiber of a curve fibration over Q(t) from averaged Frobenius traces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("run", "series", "residue", "verify"):
        p = sub.add_parser(name)
        p.add_argument("--family", required=True, help="family file")
        if name != "verify":
            p.add_argument("--tmax", type=int, required=True, help="prime cutoff T")
            p.add_argument("--jobs", type=int, default=1,
                           help="worker processes: at most 4 per CPU, and 8 on any machine")
            p.add_argument("--resume", action="store_true")
            p.add_argument("--out", default=None, help="output directory")
            p.add_argument(
                "--checkpoints",
                default=None,
                help="comma-separated ascending T_i grid (default: log-spaced)",
            )
        if name == "residue":
            p.add_argument(
                "--s-list",
                default=None,
                help="comma-separated s values > 1 (default: 1 + 2^-k, k = 2..6)",
            )
    return parser


def _parse_int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _write_outputs(command: str, config: RunConfig, result: RunResult) -> None:
    """series.csv, summary.json and residue.csv, as the command asks."""
    if command in ("run", "series"):
        atomic_write(result.out_dir / "series.csv", series_csv_text(result, config.checkpoints))
    if command == "run":
        summary = summary_dict(result, config.checkpoints)
        atomic_write(
            result.out_dir / "summary.json", json.dumps(summary, indent=2) + "\n"
        )
        print(
            f"{result.spec.name}: S(T={summary['T']}) = {summary['S_T']:.4f}, "
            f"nearest integer {summary['nearest_integer']}, "
            f"{summary['n_primes']} primes, {summary['n_skipped']} skipped"
        )
        for item in summary["skipped"]:
            print(f"  skipped p={item['p']}: {item['reason']}")
        if "form5_diagnostic" in summary:
            d = summary["form5_diagnostic"]
            print(
                f"  trace-residual diagnostic: mean |r| = {d['mean_abs_residual']:.3f}, "
                f"max |r| = {d['max_abs_residual']:.3f}"
            )
    if command == "residue":
        atomic_write(
            result.out_dir / "residue.csv",
            residue_csv_text(result, config.s_list, config.t_max),
        )


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = parse_family(Path(args.family).read_text())
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: cannot read family file: {exc}", file=sys.stderr)
        return 1
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.command == "verify":
        checks = verify_family(spec)
        all_ok = True
        for check in checks:
            status = "PASS" if check.passed else f"FAIL ({check.detail})"
            print(f"{check.name}: {status}")
            all_ok &= check.passed
        return 0 if all_ok else 1

    try:
        checkpoints = (
            _parse_int_list(args.checkpoints)
            if args.checkpoints
            else default_checkpoints(args.tmax)
        )
        s_list = (
            _parse_float_list(args.s_list)
            if args.command == "residue" and args.s_list
            else list(DEFAULT_S_GRID)
        )
        config = RunConfig(
            family_path=args.family,
            t_max=args.tmax,
            out_dir=args.out or f"nagao_out/{spec.name}",
            jobs=args.jobs,
            resume=args.resume,
            checkpoints=checkpoints,
            s_list=s_list,
        )
        config.validate()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    try:
        result = run_pipeline(spec, config)
        _write_outputs(args.command, config, result)
    except LedgerMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:  # bad primes unknown up to --tmax
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # the prime sieve holds one byte per integer up to --tmax
        print(f"error: out of memory at --tmax {config.t_max}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot write to {config.out_dir}: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
