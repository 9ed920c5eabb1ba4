"""nagao benchmark: time to S(T) through the CLI, plus a traced per-layer run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 42 --trace 0

`--trace 0` runs the end-to-end part (the CLI as a closed loop, one client);
`--trace 1` runs the traced in-process replay and reports per-layer metrics.
The last line of standard output is the result object; the line before it
holds the provenance, quartiles and any failures.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path

import inputs

WORK_ROOT = inputs.ROOT / ".bench_work"
OUT_ROOT = inputs.ROOT / ".bench_out"


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    return ap


def _git(*args: str) -> str | None:
    if not (inputs.ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(["git", "-C", str(inputs.ROOT), *args], capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import sympy

    status = _git("status", "--porcelain")
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "file_cache": "not controlled: no caches dropped, no settings changed; "
                      "one warm-up command is discarded instead",
    }


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        inputs.require_program()
    except inputs.InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(inputs.SRC))

    prov = provenance(args.seed)
    prov["loadavg_before"] = os.getloadavg()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT))
    try:
        if args.trace:
            import traced

            spans = OUT_ROOT / f"spans-{args.workload}.json"
            metrics, detail, tally = traced.run(
                args.workload, args.seed, args.seconds, "full", inputs.REFS_DIR, work, spans)
        else:
            import e2e

            metrics, detail, tally = e2e.run(
                args.workload, args.seed, args.seconds, "full", inputs.REFS_DIR, work)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prov["loadavg_after"] = os.getloadavg()

    failed = len(tally.failures)
    detail.update(workload=args.workload, trace=args.trace,
                  provenance=prov, fail_rate=failed / tally.attempted,
                  failures=tally.failures[:20])
    result = {
        "correct": failed == 0,
        "attempted": tally.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
