"""Traced part: replay a workload in process and time each layer.

The replay calls the program's public functions from this file, never from
inside the program.  For every prime it records one
`accumulator.compute_entry` span for the total, then a sibling `probe` span
in which it calls the layer functions that `compute_entry` is built from.
Each span records name, start, end, parent and the trace (replay and
family) it belongs to.  Spans are kept in memory and written out when the
run ends.

Probed functions are resolved by name, so a refactor that removes or
renames one turns the metrics that depend on it into absent values instead
of failing the run.  Only the functions needed to replay the workload at
all (`parse_family`, `good_primes`, `compute_entry`, `run_pipeline`,
`RunConfig`) are required.

The replay does each layer's work twice (the total, then the probe), so its
wall time is reported beside an untraced in-process replay through
`cli.main`, which makes the tracing cost visible; `run_s` from the untraced
CLI runs stays the end-to-end figure.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import e2e
import inputs

MODULES = ["prime_field", "family_model", "kernels", "fiber_trace", "accumulator",
           "runner", "shioda_tate", "cli"]
REQUIRED = ["family_model.parse_family", "accumulator.good_primes",
            "accumulator.compute_entry", "runner.run_pipeline", "runner.RunConfig"]
PROBED = [
    "prime_field.make_field", "prime_field.primes_in_range",
    "family_model.bad_primes", "family_model.fiber_at",
    "kernels.fiber_arrays", "kernels.affine_counts", "kernels.singular_c_values",
    "fiber_trace.component_count", "fiber_trace.fiber_trace",
    "accumulator.trace_correction", "accumulator.BadTracePrime", "accumulator.iter_entries",
    "accumulator.cesaro_series", "accumulator.dirichlet_residue",
    "runner.iter_entries", "runner.load_ledger", "runner.default_checkpoints",
    "runner.series_csv_text", "runner.residue_csv_text", "runner.summary_dict",
    "shioda_tate.form5_diagnostic", "cli.main",
]
IMPORT_SAMPLES = 3


class Tracer:
    """In-memory span recorder with an explicit parent stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, trace: str):
        rec = {"id": len(self.spans), "name": name, "trace": trace,
               "parent": self._stack[-1] if self._stack else None,
               "start_ns": time.perf_counter_ns(), "end_ns": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end_ns"] = time.perf_counter_ns()

    def total_s(self, name: str) -> float:
        return sum(s["end_ns"] - s["start_ns"] for s in self.spans if s["name"] == name) / 1e9

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)


def _resolve() -> tuple[dict, list[str]]:
    mods = {m: importlib.import_module(f"nagao.{m}") for m in MODULES}
    fns, absent = {}, []
    for qual in REQUIRED + PROBED:
        mod, attr = qual.split(".")
        fns[qual] = getattr(mods[mod], attr, None)
        if fns[qual] is None:
            absent.append(qual)
    missing = [q for q in REQUIRED if fns[q] is None]
    if missing:
        raise inputs.InputError("cannot replay without " + ", ".join(missing))
    return fns, absent


def _clear_caches() -> None:
    """Drop every functools cache in the program, as a fresh process would."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("nagao."):
            for obj in vars(mod).values():
                if callable(getattr(obj, "cache_clear", None)):
                    obj.cache_clear()


@contextlib.contextmanager
def _patched(module, attr: str, value):
    old = getattr(module, attr)
    setattr(module, attr, value)
    try:
        yield
    finally:
        setattr(module, attr, old)


class Replay:
    """One traced replay per call of `family`; counters accumulate across calls."""

    def __init__(self, workload: str, fns: dict, size: str, refs_root: Path,
                 tally: e2e.Tally) -> None:
        self.fns, self.size, self.refs_root, self.tally = fns, size, refs_root, tally
        self.tracer = Tracer()
        self.t = inputs.tmax(workload, size)
        self.jobs = inputs.JOBS[workload]
        self.cells = 0  # p^2 * covers over every affine_counts probe
        self.skipped = 0
        self.ledger_rows = 0
        self.first_entry_s = 0.0

    def span(self, name: str, trace: str):
        return self.tracer.span(name, trace)

    def family(self, trace: str, name: str, fam_path: Path, out_dir: Path, ledger) -> None:
        f, span = self.fns, self.span
        with span("family", trace):
            text = fam_path.read_text()
            _clear_caches()
            with span("family_model.parse_family", trace):
                spec = f["family_model.parse_family"](text)
            if f["family_model.bad_primes"]:
                with span("family_model.bad_primes", trace):
                    f["family_model.bad_primes"](spec)
            if f["prime_field.primes_in_range"]:
                with span("prime_field.primes_in_range", trace):
                    f["prime_field.primes_in_range"](2, self.t)
            primes = f["accumulator.good_primes"](spec, 3, self.t)
            cps = f["runner.default_checkpoints"](self.t) if f["runner.default_checkpoints"] else [self.t]
            entries: dict = {}
            if ledger is None:
                out_dir.mkdir(parents=True, exist_ok=True)
                for p in primes:
                    with span("accumulator.compute_entry", trace):
                        entries[p] = f["accumulator.compute_entry"](spec, p)
                    self.skipped += entries[p].skipped
                    with span("probe", trace):
                        self._probe(spec, p, trace)
                if self.jobs > 1 and f["accumulator.iter_entries"]:
                    self._pool(spec, primes, entries, trace)

            # `nagao run`: the ledger write path, with iter_entries replaying
            # the entries computed above so that run_pipeline's own work shows.
            result = self._pipeline(spec, fam_path, out_dir, cps, entries, ledger is not None, trace)
            if f["runner.series_csv_text"]:
                with span("runner.series_csv_text", trace):
                    text = f["runner.series_csv_text"](result, cps)
                (out_dir / "series.csv").write_text(text)
            if f["runner.summary_dict"]:
                with span("runner.summary_dict", trace):
                    f["runner.summary_dict"](result, cps)
            self._check(name, "run", out_dir, ledger)
            if f["runner.load_ledger"]:
                with span("runner.load_ledger", trace):
                    _, rows = f["runner.load_ledger"](out_dir / "ledger.csv")
                self.ledger_rows += len(rows)
            # `nagao residue --resume`: the ledger read path.
            result = self._pipeline(spec, fam_path, out_dir, cps, entries, True, trace)
            if f["runner.residue_csv_text"]:
                with span("runner.residue_csv_text", trace):
                    text = f["runner.residue_csv_text"](result, inputs.S_GRID, self.t)
                (out_dir / "residue.csv").write_text(text)
            self._check(name, "residue", out_dir, ledger)

            series_entries = result.series.entries
            if f["accumulator.cesaro_series"]:
                with span("accumulator.cesaro_series", trace):
                    f["accumulator.cesaro_series"](series_entries, cps)
            if f["accumulator.dirichlet_residue"]:
                with span("accumulator.dirichlet_residue", trace):
                    f["accumulator.dirichlet_residue"](series_entries, inputs.S_GRID, self.t)
            if f["shioda_tate.form5_diagnostic"] and spec.fiber_config is not None:
                with span("shioda_tate.form5_diagnostic", trace):
                    f["shioda_tate.form5_diagnostic"](result.series, spec.fiber_config)

    def _pipeline(self, spec, fam_path, out_dir, cps, entries, resume, trace):
        f, span = self.fns, self.span
        config = f["runner.RunConfig"](
            family_path=str(fam_path), t_max=self.t, out_dir=str(out_dir), jobs=1,
            resume=resume, checkpoints=cps, s_list=list(inputs.S_GRID))

        def replayed(spec_, primes, jobs=1):
            with span("runner.iter_entries", trace):
                return iter([entries[p] for p in primes])

        patch = (_patched(sys.modules["nagao.runner"], "iter_entries", replayed)
                 if f["runner.iter_entries"] else contextlib.nullcontext())
        with patch, span("runner.run_pipeline", trace):
            return f["runner.run_pipeline"](spec, config)

    def _probe(self, spec, p: int, trace: str) -> None:
        f, span = self.fns, self.span
        if not f["prime_field.make_field"]:
            return
        with span("prime_field.make_field", trace):
            ctx = f["prime_field.make_field"](p)
        if f["accumulator.trace_correction"]:
            with span("accumulator.trace_correction", trace):
                try:
                    f["accumulator.trace_correction"](spec, ctx)
                except f["accumulator.BadTracePrime"] or ():  # a skip, not a failure
                    pass
        if f["kernels.fiber_arrays"]:
            with span("kernels.fiber_arrays", trace):
                f["kernels.fiber_arrays"](spec, ctx)
        if spec.kind == "constant":
            if f["fiber_trace.fiber_trace"]:
                with span("fiber_trace.fiber_trace", trace):
                    f["fiber_trace.fiber_trace"](ctx, spec, 0)
            return
        if f["kernels.affine_counts"]:
            with span("kernels.affine_counts", trace):
                f["kernels.affine_counts"](spec, ctx)
            self.cells += p * p * len(spec.polys)
        if f["kernels.singular_c_values"]:
            with span("kernels.singular_c_values", trace):
                sing = f["kernels.singular_c_values"](spec, ctx)
            if f["fiber_trace.component_count"] and f["family_model.fiber_at"]:
                for c in sing:
                    with span("fiber_trace.component_count", trace):
                        f["fiber_trace.component_count"](ctx, f["family_model.fiber_at"](spec, ctx, int(c)))

    def _pool(self, spec, primes, entries, trace) -> None:
        with self.span("accumulator.iter_entries", trace):
            start = time.perf_counter()
            got = []
            for entry in self.fns["accumulator.iter_entries"](spec, primes, jobs=self.jobs):
                if not got:
                    self.first_entry_s += time.perf_counter() - start
                got.append(entry)
        self.tally.add("" if got == [entries[p] for p in primes]
                       else "pool entries differ from jobs=1 entries", f"traced {spec.name} pool")

    def _check(self, name: str, command: str, out_dir: Path, ledger) -> None:
        if ledger is None:
            error = inputs.check_sweep(self.refs_root, self.size, name, command, out_dir)
        else:
            error = inputs.check_resume(ledger, command, out_dir, self.t)
        self.tally.add(error, f"traced {name} {command}")


def _import_ms() -> list[float]:
    code = "import time; t = time.perf_counter(); import nagao.cli; print(time.perf_counter() - t)"
    out = []
    for _ in range(IMPORT_SAMPLES):
        res = subprocess.run([sys.executable, "-c", code], env=e2e.cli_env(),
                             capture_output=True, text=True, timeout=120, check=True)
        out.append(float(res.stdout.strip()) * 1e3)
    return out


def _untraced(workload, fns, order, fams, work, t, tally) -> float:
    """Wall time of the workload's CLI commands run through cli.main in process."""
    start = time.perf_counter()
    for name in order:
        for args in sum(inputs.commands(workload, fams[name], work / name, t), []):
            _clear_caches()
            with contextlib.redirect_stdout(io.StringIO()):
                code = fns["cli.main"](args)
            tally.add("" if code == 0 else f"exit {code}", f"untraced {name} {args[0]}")
    return time.perf_counter() - start


def run(workload: str, seed: int, seconds: float, size: str, refs_root: Path, work: Path,
        spans_path: Path):
    """Run the traced part; returns (metrics, detail, tally)."""
    fns, absent = _resolve()
    t = inputs.tmax(workload, size)
    order = inputs.family_order(seed)
    fams = inputs.write_family_files(work)
    tally = e2e.Tally()

    ledgers = {name: None for name in order}
    if workload == "resume_estimators":
        for name in order:
            ledgers[name] = inputs.write_synthetic_ledger(fams[name], work / "traced" / name, t, seed)
            shutil.copytree(work / "traced" / name, work / "untraced" / name)

    started = time.perf_counter()
    import_ms = _import_ms()
    untraced_s = (_untraced(workload, fns, order, fams, work / "untraced", t, tally)
                  if fns["cli.main"] else None)

    replay = Replay(workload, fns, size, refs_root, tally)
    walls: list[float] = []
    while not walls or time.perf_counter() - started + statistics.median(walls) <= seconds:
        rep_start = time.perf_counter()
        for name in order:
            try:
                replay.family(f"{len(walls)}:{name}", name, fams[name], work / "traced" / name,
                              ledgers[name])
            except Exception as exc:  # report the family as failed and keep measuring
                tally.add(repr(exc), f"traced {name}")
        walls.append(time.perf_counter() - rep_start)

    spans_path.parent.mkdir(parents=True, exist_ok=True)
    spans_path.write_text(json.dumps(replay.tracer.spans))
    metrics = _layer_metrics(replay, len(walls), absent, import_ms)
    metrics["trace.total_s"] = (statistics.median(walls), "s")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    detail = {"replays": len(walls), "tmax": t, "family_order": order, "absent": absent,
              "spans": len(replay.tracer.spans), "spans_file": str(spans_path)}
    return metrics, detail, tally


def _layer_metrics(rp: Replay, n: int, absent: list[str], import_ms: list[float]) -> dict:
    tr = rp.tracer

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def per_call(name: str, scale: float) -> float:
        return ratio(tr.total_s(name), tr.count(name)) * scale

    def per_replay(name: str, scale: float) -> float:
        return tr.total_s(name) / n * scale

    ce_n = tr.count("accumulator.compute_entry")
    ce_s = tr.total_s("accumulator.compute_entry")
    probed_s = sum(tr.total_s(k) for k in (
        "prime_field.make_field", "accumulator.trace_correction", "kernels.fiber_arrays"))
    pool_s = tr.total_s("accumulator.iter_entries")
    field = ("prime_field.make_field",)  # every per-prime probe needs a field first
    sing = field + ("kernels.singular_c_values", "fiber_trace.component_count", "family_model.fiber_at")
    table = [
        # metric, unit, value, the functions it rests on
        ("prime_field.make_field_us", "us", per_call("prime_field.make_field", 1e6), field),
        ("prime_field.primes_in_range_ms", "ms", per_replay("prime_field.primes_in_range", 1e3),
         ("prime_field.primes_in_range",)),
        ("family_model.parse_family_ms", "ms", per_call("family_model.parse_family", 1e3), ()),
        ("family_model.bad_primes_ms", "ms", per_call("family_model.bad_primes", 1e3),
         ("family_model.bad_primes",)),
        ("cli.import_ms", "ms", statistics.median(import_ms), ()),
        ("kernels.fiber_arrays_us", "us", per_call("kernels.fiber_arrays", 1e6),
         field + ("kernels.fiber_arrays",)),
        ("kernels.affine_counts_us", "us", per_call("kernels.affine_counts", 1e6),
         field + ("kernels.affine_counts",)),
        ("kernels.affine_counts_ns_per_cell", "ns",
         ratio(tr.total_s("kernels.affine_counts"), rp.cells) * 1e9, field + ("kernels.affine_counts",)),
        ("kernels.singular_c_values_us", "us", per_call("kernels.singular_c_values", 1e6),
         field + ("kernels.singular_c_values",)),
        ("kernels.singular_fibers", "count", tr.count("fiber_trace.component_count") / n, sing),
        ("fiber_trace.component_count_us", "us", per_call("fiber_trace.component_count", 1e6), sing),
        ("fiber_trace.fiber_trace_us", "us", per_call("fiber_trace.fiber_trace", 1e6),
         field + ("fiber_trace.fiber_trace",)),
        ("accumulator.compute_entry_us", "us", ratio(ce_s, ce_n) * 1e6, ()),
        ("accumulator.compute_entry_other_us", "us", ratio(ce_s - probed_s, ce_n) * 1e6,
         field + ("accumulator.trace_correction", "kernels.fiber_arrays")),
        ("accumulator.trace_correction_us", "us", per_call("accumulator.trace_correction", 1e6),
         field + ("accumulator.trace_correction",)),
        ("accumulator.primes", "count", ce_n / n, ()),
        ("accumulator.skip_ratio", "ratio", ratio(rp.skipped, ce_n), ()),
        ("accumulator.iter_entries_jobs2_s", "s", pool_s / n, ("accumulator.iter_entries",)),
        ("accumulator.pool_efficiency", "ratio", ratio(ce_s, rp.jobs * pool_s),
         ("accumulator.iter_entries",)),
        ("accumulator.pool_first_entry_ms", "ms",
         ratio(rp.first_entry_s, tr.count("accumulator.iter_entries")) * 1e3,
         ("accumulator.iter_entries",)),
        ("accumulator.cesaro_series_ms", "ms", per_replay("accumulator.cesaro_series", 1e3),
         ("accumulator.cesaro_series",)),
        ("accumulator.dirichlet_residue_ms", "ms", per_replay("accumulator.dirichlet_residue", 1e3),
         ("accumulator.dirichlet_residue",)),
        ("runner.load_ledger_ms", "ms", per_replay("runner.load_ledger", 1e3), ("runner.load_ledger",)),
        ("runner.load_ledger_us_per_row", "us",
         ratio(tr.total_s("runner.load_ledger"), rp.ledger_rows) * 1e6, ("runner.load_ledger",)),
        ("runner.run_pipeline_self_ms", "ms",
         (tr.total_s("runner.run_pipeline") - tr.total_s("runner.iter_entries")) / n * 1e3,
         ("runner.iter_entries",)),
        ("runner.series_csv_text_ms", "ms", per_replay("runner.series_csv_text", 1e3),
         ("runner.series_csv_text",)),
        ("runner.residue_csv_text_ms", "ms", per_replay("runner.residue_csv_text", 1e3),
         ("runner.residue_csv_text",)),
        ("runner.summary_dict_ms", "ms", per_replay("runner.summary_dict", 1e3), ("runner.summary_dict",)),
        ("shioda_tate.form5_diagnostic_ms", "ms", per_replay("shioda_tate.form5_diagnostic", 1e3),
         ("shioda_tate.form5_diagnostic",)),
    ]
    # A metric that rests on a function the program no longer has is absent, not zero.
    return {name: (None if any(q in absent for q in needs) else value, unit)
            for name, unit, value, needs in table}
