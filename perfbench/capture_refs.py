"""Capture the sweep references from the program in this checkout.

    python3 perfbench/capture_refs.py

Runs each family's sweep commands (`run`, then `residue --resume`, with
`--jobs 1`) at every benchmark size and stores ledger.csv, series.csv and
residue.csv under perfbench/refs/<size>/<family>/.  The committed
references were captured at the commit that introduced the benchmark;
recapture only when a change to those bytes is intended and verified.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import e2e
import inputs


def main() -> int:
    inputs.require_program()
    env = e2e.cli_env()
    with tempfile.TemporaryDirectory(dir=inputs.ROOT) as tmp:
        work = Path(tmp)
        fams = inputs.write_family_files(work)
        for size in inputs.SIZES:
            t = inputs.tmax("grid_sweep", size)
            for name in inputs.FAMILIES:
                out = work / size / name
                for args in sum(inputs.commands("grid_sweep", fams[name], out, t), []):
                    outcome = e2e.run_cli(args, env)
                    if outcome.error:
                        print(f"{size} {name} {args[0]}: {outcome.error}", file=sys.stderr)
                        return 1
                dest = inputs.sweep_ref_dir(inputs.REFS_DIR, size, name)
                dest.mkdir(parents=True, exist_ok=True)
                for files in inputs.SWEEP_FILES.values():
                    for f in files:
                        shutil.copyfile(out / f, dest / f)
                print(f"{size} {name}: captured at T = {t}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
