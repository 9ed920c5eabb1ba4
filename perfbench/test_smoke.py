"""Self-test of the benchmark.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload once through the end-to-end part and once through the
traced part, in process at the tiny "smoke" prime cutoffs, and checks the
metrics, the span nesting and the output checks that feed `fail_rate`.  One
run of `run.py` at the benchmark's own size checks the result format.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import e2e  # noqa: E402
import inputs  # noqa: E402
import traced  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def smoke(workload: str, trace: int, work: Path, refs: Path = inputs.REFS_DIR):
    """(metrics, detail, tally) of one run of `workload` at the smoke size."""
    work.mkdir(parents=True, exist_ok=True)
    if trace:
        return traced.run(workload, 7, 1, "smoke", refs, work, work / "spans.json")
    return e2e.run(workload, 7, 1, "smoke", refs, work)


def units(metrics: dict) -> dict[str, str]:
    return {name: unit for name, (_, unit) in metrics.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload, tmp_path):
    metrics, detail, tally = smoke(workload, 0, tmp_path)
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert tally.failures == []
    assert tally.attempted >= 1 + 5 + 10


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_spans(workload, tmp_path):
    metrics, detail, tally = smoke(workload, 1, tmp_path)
    assert units(metrics) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert all(value is not None for value, _ in metrics.values()), detail["absent"]
    assert tally.failures == []

    spans = json.loads(Path(detail["spans_file"]).read_text())
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["start_ns"] <= s["end_ns"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start_ns"] <= s["start_ns"] <= s["end_ns"] <= parent["end_ns"]
            assert parent["trace"] == s["trace"]
    names = {s["name"] for s in spans}
    if workload == "resume_estimators":
        assert not any(n.startswith("kernels.") or n == "accumulator.compute_entry" for n in names)
    else:
        assert {"accumulator.compute_entry", "probe", "kernels.fiber_arrays"} <= names
    if workload == "parallel_sweep":
        assert metrics["accumulator.pool_efficiency"][0] > 0


def test_corrupted_reference_raises_fail_rate(tmp_path):
    refs = tmp_path / "refs"
    shutil.copytree(inputs.REFS_DIR, refs)
    series = refs / "smoke" / "shioda_g1" / "series.csv"
    series.write_bytes(series.read_bytes() + b"0\r\n")
    _, _, tally = smoke("grid_sweep", 0, tmp_path / "work", refs)
    assert tally.failures
    assert all("shioda_g1" in f for f in tally.failures)


def run_py(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_result_format_at_benchmark_size():
    proc = run_py(ROOT, "--workload", "grid_sweep", "--seed", "7", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    *_, detail, result = proc.stdout.strip().splitlines()
    detail, result = json.loads(detail)["detail"], json.loads(result)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert result["correct"] and result["failed"] == 0 and detail["fail_rate"] == 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_py(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_missing_probe_is_reported_absent(monkeypatch, tmp_path):
    import nagao.cli  # binds runner.summary_dict before it is removed
    import nagao.runner

    monkeypatch.delattr(nagao.runner, "summary_dict")
    metrics, detail, tally = smoke("grid_sweep", 1, tmp_path)
    assert detail["absent"] == ["runner.summary_dict"]
    assert metrics["runner.summary_dict_ms"][0] is None
    assert metrics["runner.series_csv_text_ms"][0] > 0
    assert tally.failures == []
