"""End-to-end part: drive the CLI as a closed loop from one client.

One harness process runs the workload's command sequence repeatedly; each
`python -m nagao.cli` command starts when the previous one has exited, so a
slower program receives proportionally less work.  Wall time comes from
`time.perf_counter` around spawn-to-reap, CPU and peak RSS from the
`os.wait4` rusage of each child, which includes its reaped pool workers.
"""

from __future__ import annotations

import itertools
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import inputs

COMMAND_TIMEOUT_S = 100  # a healthy command takes a few seconds


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str  # '' when the command exited 0 and its output checked out


@dataclass
class Tally:
    """Every command attempted in the run, and the failures among them."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, error: str, what: str) -> None:
        self.attempted += 1
        if error:
            self.failures.append(f"{what}: {error}")


def run_cli(args: list[str], env: dict[str, str]) -> Outcome:
    """Run one CLI command to completion and return its resource usage."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "nagao.cli", *args],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )
    timer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
    timer.start()
    try:
        # stderr is tiny for a healthy command; read it before reaping
        err = proc.stderr.read().decode(errors="replace").strip()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stderr.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    error = "" if proc.returncode == 0 else f"exit {proc.returncode}: {err[-300:]}"
    return Outcome(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, error)


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(inputs.SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("PYTHONSTARTUP", None)
    return env


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0], "n": 1}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3, "n": len(values)}


def run(workload: str, seed: int, seconds: float, size: str, refs_root: Path, work: Path):
    """Run one workload; returns (metrics, detail, tally)."""
    env = cli_env()
    t = inputs.tmax(workload, size)
    order = inputs.family_order(seed)
    fams = inputs.write_family_files(work)
    tally = Tally()

    # Untimed: inputs and references.
    ledgers = {}
    if workload == "resume_estimators":
        for name in order:
            ledgers[name] = inputs.write_synthetic_ledger(fams[name], work / "out" / name, t, seed)

    # Cold start.  The first command only warms the file cache and is discarded.
    started = time.perf_counter()
    setup_dir = work / "setup"
    setup = []
    for name in [order[0], *order]:
        outcome = run_cli(["run", "--tmax", "3", "--family", str(fams[name]),
                           "--out", str(setup_dir / name)], env)
        tally.add(outcome.error, f"setup {name}")
        setup.append(outcome.wall_s)
    del setup[0]

    def checked(name: str, args: list[str], out_dir: Path) -> Outcome:
        outcome = run_cli(args, env)
        if not outcome.error:
            if workload == "resume_estimators":
                outcome.error = inputs.check_resume(ledgers[name], args[0], out_dir, t)
            else:
                outcome.error = inputs.check_sweep(refs_root, size, name, args[0], out_dir)
        tally.add(outcome.error, f"{name} {args[0]}")
        return outcome

    # Round-robin over the families while the next family's commands still
    # fit in the budget; every family runs at least once.
    samples: dict[str, list[tuple[float, float]]] = {name: [] for name in order}
    rss = 0.0
    for name in itertools.cycle(order):
        done = samples[name]
        if all(samples.values()) and (
            time.perf_counter() - started + statistics.median(w for w, _ in done) > seconds
        ):
            break
        wall = cpu = 0.0
        out_dir = work / "out" / name
        if workload != "resume_estimators":
            shutil.rmtree(out_dir, ignore_errors=True)
        timed, untimed = inputs.commands(workload, fams[name], out_dir, t)
        for args in timed:
            outcome = checked(name, args, out_dir)
            wall += outcome.wall_s
            cpu += outcome.cpu_s
            rss = max(rss, outcome.rss_mb)
        if not done:
            for args in untimed:
                checked(name, args, out_dir)
        done.append((wall, cpu))

    # Totals are sums of per-family medians: an estimate of the median pass
    # that a slow interval landing on one family moves less.
    wall_med = {n: statistics.median(w for w, _ in samples[n]) for n in order}
    cpu_med = {n: statistics.median(c for _, c in samples[n]) for n in order}
    metrics = {
        "run_s": (sum(wall_med.values()), "s"),
        **{f"run_s.{name}": (wall_med[name], "s") for name in inputs.FAMILIES},
        "setup_s": (statistics.median(setup), "s"),
        "cpu_s": (sum(cpu_med.values()), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    detail = {
        "samples_per_family": {n: len(samples[n]) for n in order},
        "tmax": t,
        "family_order": order,
        "quartiles": {
            "setup_s": quartiles(setup),
            **{f"run_s.{n}": quartiles([w for w, _ in samples[n]]) for n in inputs.FAMILIES},
        },
    }
    return metrics, detail, tally
