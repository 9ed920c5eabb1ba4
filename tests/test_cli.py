"""End-to-end command line behaviour: exit codes, outputs, resume."""

import csv
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import time
from importlib import resources
from pathlib import Path

import pytest

import nagao
from nagao import accumulator
from nagao.cli import main
from nagao.family_model import FACTOR_BOUND, MAX_COEFF_BITS, MAX_DEGREE, MAX_POWER_DEGREE


@pytest.fixture
def family_file(tmp_path):
    def _write(name: str) -> str:
        text = resources.files(nagao).joinpath(f"families/{name}.fam").read_text()
        path = tmp_path / f"{name}.fam"
        path.write_text(text)
        return str(path)

    return _write


def test_run_happy_path(tmp_path, family_file, capsys):
    out = tmp_path / "out"
    rc = main([
        "run", "--family", family_file("shioda_g1"),
        "--tmax", "60", "--out", str(out), "--checkpoints", "30,60",
    ])
    assert rc == 0
    assert (out / "ledger.csv").exists()
    assert (out / "series.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["family"] == "shioda_g1" and summary["T"] == 60
    printed = capsys.readouterr().out
    assert "shioda_g1" in printed and "nearest integer" in printed


def test_series_writes_checkpoint_rows(tmp_path, family_file):
    out = tmp_path / "out"
    rc = main([
        "series", "--family", family_file("constant_E"),
        "--tmax", "100", "--out", str(out), "--checkpoints", "20,50,100",
    ])
    assert rc == 0
    with (out / "series.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["T"]) for r in rows] == [20, 50, 100]
    for r in rows:
        float(r["S_T"])  # parseable floats


def test_residue_output_and_domain_error(tmp_path, family_file):
    out = tmp_path / "out"
    fam = family_file("constant_E")
    rc = main([
        "residue", "--family", fam, "--tmax", "100",
        "--out", str(out), "--s-list", "1.25,1.125",
    ])
    assert rc == 0
    with (out / "residue.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["s"]) for r in rows] == [1.25, 1.125]
    assert all(int(r["T"]) == 100 for r in rows)
    # s <= 1, NaN and infinity are rejected before any computation
    for bad_s in ("0.9", "nan", "inf"):
        rc = main([
            "residue", "--family", fam, "--tmax", "100",
            "--out", str(out), "--s-list", f"1.25,{bad_s}",
        ])
        assert rc == 1


def test_residue_at_an_s_whose_p_to_the_s_overflows(tmp_path, family_file, capsys):
    """3^s leaves the floats above s = 646.07: at s = 646.5 the p = 3 term of
    shioda_g1 is subnormal and the estimate positive; at s = 700 it is 0."""
    out = tmp_path / "out"
    rc = main(["residue", "--family", family_file("shioda_g1"), "--tmax", "50",
               "--out", str(out), "--s-list", "1.5,646.5,700"])
    assert rc == 0 and capsys.readouterr().err == ""
    with (out / "residue.csv").open() as fh:
        estimates = [float(r["estimate"]) for r in csv.DictReader(fh)]
    assert all(math.isfinite(e) for e in estimates)
    assert estimates[0] > 0 and 0 < estimates[1] < 1e-300 and estimates[2] == 0


def test_verify_prints_one_line_per_check(family_file, capsys):
    rc = main(["verify", "--family", family_file("shioda_g1")])
    assert rc == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 4
    assert lines[-1] == "trace_sum: chi_sum equals grid (p <= 23): PASS"
    assert all(line.endswith("PASS") for line in lines)


def test_verify_passes_on_a_t_free_multicover(family_file, capsys):
    """Neither cover involves t: trace_sum and the grid both count the fiber
    over t = infinity as the curve of every finite fiber."""
    fam = Path(family_file("multicover_ex2"))
    fam.write_text(fam.read_text().replace("x*(x-1)*(x-t)", "x*(x-1)*(x-7)"))
    assert main(["verify", "--family", str(fam)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l.strip()]
    assert len(lines) == 4 and all(line.endswith(": PASS") for line in lines)


def test_missing_family_file_exits_1(tmp_path, capsys):
    rc = main(["run", "--family", str(tmp_path / "nope.fam"), "--tmax", "50"])
    assert rc == 1
    assert "cannot read" in capsys.readouterr().err


def test_non_utf8_family_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.fam"
    bad.write_bytes(b"\xff\xfef\x00a\x00m\x00")
    rc = main(["run", "--family", str(bad), "--tmax", "50", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: cannot read family file" in err and "Traceback" not in err


def test_unwritable_out_dir_exits_1(tmp_path, family_file, capsys):
    blocker = tmp_path / "plain_file"
    blocker.write_text("")
    rc = main([
        "run", "--family", family_file("shioda_g1"),
        "--tmax", "50", "--out", str(blocker / "out"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "error: cannot write to" in err and "Traceback" not in err


def test_malformed_family_file_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.fam"
    bad.write_text('family "x"\nkind hyperelliptic\npoly x^^2\n')
    rc = main(["run", "--family", str(bad), "--tmax", "50"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_invalid_family_semantics_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.fam"
    bad.write_text(
        'family "x"\nkind hyperelliptic\npoly x^2*(x-t)\n'
        "genus 1\ntrace none\ninfinity trace_zero\n"
    )
    rc = main(["run", "--family", str(bad), "--tmax", "50"])
    assert rc == 1


@pytest.mark.parametrize(
    "name, old, new",
    [
        ("constant_E", "trace curve x^3 - x", "trace curve 5"),
        ("shioda_g1", "infinity trace_zero", "infinity affine_plus 2 1"),
        ("multicover_ex2", "infinity affine_plus 2 1", "infinity affine_plus -3 0"),
        ("shioda_g1", 'fiber nodal1 n=1 orbits=1 m="1"',
         'fiber nodal1 n=1 orbits=1 m="5 if p % 4 == 1 else 9"'),
    ],
)
def test_inconsistent_family_declaration_exits_1(tmp_path, family_file, capsys, name, old, new):
    fam = Path(family_file(name))
    text = fam.read_text()
    assert old in text
    fam.write_text(text.replace(old, new))
    rc = main(["run", "--family", str(fam), "--tmax", "50", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_jobs_above_the_bound_exit_1_before_forking(tmp_path, family_file, monkeypatch, capsys):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)
    out = tmp_path / "out"
    rc = main(["run", "--family", family_file("shioda_g1"), "--tmax", "2000000",
               "--jobs", "100000", "--out", str(out)])
    assert rc == 1
    assert "error: jobs must be <=" in capsys.readouterr().err
    assert not out.exists()


def test_bad_checkpoints_exit_1(tmp_path, family_file):
    rc = main([
        "run", "--family", family_file("shioda_g1"),
        "--tmax", "50", "--out", str(tmp_path / "o"), "--checkpoints", "40,20",
    ])
    assert rc == 1


@pytest.mark.parametrize("command, flag", [("run", "--checkpoints"), ("residue", "--s-list")])
def test_empty_list_exits_1(tmp_path, family_file, capsys, command, flag):
    out = tmp_path / "o"
    rc = main([
        command, "--family", family_file("shioda_g1"),
        "--tmax", "50", "--out", str(out), flag, ",",
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must not be empty" in err
    assert not out.exists()


def _env():
    """os.environ with this checkout's nagao first on PYTHONPATH."""
    src = str(Path(nagao.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _python(args, cwd, **kw):
    """A fresh interpreter, `python *args`, that imports this checkout's nagao."""
    return subprocess.run([sys.executable, *args], cwd=cwd, env=_env(), capture_output=True,
                          text=True, **kw)


def test_deeply_nested_poly_exits_1(tmp_path, family_file):
    fam = Path(family_file("shioda_g1"))
    text = fam.read_text()
    deep = "(" * 1200 + "x^3 - x + t^2" + ")" * 1200
    fam.write_text(text.replace("poly x^3 - x + t^2", f"poly {deep}"))
    proc = _python(["-m", "nagao.cli", "run", "--family", str(fam), "--tmax", "50",
                    "--out", str(tmp_path / "o")], tmp_path)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert not (tmp_path / "o").exists()


def test_oversized_degree_exits_1_before_any_resultant(tmp_path, family_file):
    fam = Path(family_file("shioda_g1"))
    fam.write_text(fam.read_text().replace("poly x^3 - x + t^2", "poly x^3 - x + t^999999"))
    proc = _python(["-m", "nagao.cli", "run", "--family", str(fam), "--tmax", "50",
                    "--out", str(tmp_path / "o")], tmp_path, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == f"error: shioda_g1: t-degree 999999 exceeds the bound {MAX_DEGREE}\n"
    assert not (tmp_path / "o").exists()


BIG_COEFFICIENT_POLY = "poly 1000000000000000000000000000057*x^3 - x + t^2"


def test_large_coefficient_runs_to_a_small_tmax(tmp_path, family_file):
    fam = Path(family_file("shioda_g1"))
    fam.write_text(fam.read_text().replace("poly x^3 - x + t^2", BIG_COEFFICIENT_POLY))
    proc = _python(["-m", "nagao.cli", "run", "--family", str(fam), "--tmax", "50",
                    "--out", str(tmp_path / "o")], tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_large_coefficient_past_the_factor_bound_exits_1(tmp_path, family_file):
    fam = Path(family_file("shioda_g1"))
    fam.write_text(fam.read_text().replace("poly x^3 - x + t^2", BIG_COEFFICIENT_POLY))
    proc = _python(["-m", "nagao.cli", "run", "--family", str(fam),
                    "--tmax", str(FACTOR_BOUND + 1), "--out", str(tmp_path / "o")],
                   tmp_path, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: shioda_g1: ") and "Traceback" not in proc.stderr
    assert f"above {FACTOR_BOUND}" in proc.stderr


def test_power_of_a_sum_above_the_bound_exits_1(tmp_path, family_file):
    fam = Path(family_file("shioda_g1"))
    fam.write_text(fam.read_text().replace("poly x^3 - x + t^2", "poly x^3 - x + (t + 1)^100000"))
    proc = _python(["-m", "nagao.cli", "run", "--family", str(fam), "--tmax", "50",
                    "--out", str(tmp_path / "o")], tmp_path, timeout=60)
    assert proc.returncode == 1
    assert proc.stderr == (
        f"error: power of degree 1*100000 exceeds the bound {MAX_POWER_DEGREE} at line 7, col 11\n"
    )


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("infinity trace_zero", "infinity trace_zero\nbadprimes 1000000000000000000000000000057",
         "exceeds the primality test's bound"),
        ("poly x^3 - x + t^2", "poly x^3 - x + (x + t + 1)^1000 - (x + t + 1)^1000 + t^2",
         "terms exceeds the bound"),
        ("poly x^3 - x + t^2", "poly x^3 - x + (x + t + 1)^500 - (x + t + 1)^500 + t^2",
         "term products"),
        ("poly x^3 - x + t^2", "\n".join(["poly (x + t + 1)^70 - (x + t + 1)^70 + x^3 - x + t^2"] * 6),
         "term products"),
        ("poly x^3 - x + t^2", "poly x^3 - x + 2^20000*t^2",
         f"2^20000 exceeds the bound 2^{MAX_COEFF_BITS} at line 7, col 11\n"),
        ("poly x^3 - x + t^2", "poly x^3 - x + 2^99999999*t^2",
         f"2^99999999 exceeds the bound 2^{MAX_COEFF_BITS} at line 7, col 11\n"),
        ("poly x^3 - x + t^2", f"poly x^3 - x + {'7' * 4000}*{'9' * 4000}*t^2",
         f"exceeds the bound 2^{MAX_COEFF_BITS} at line 7, col 11\n"),
    ],
    ids=["badprimes_above_bound", "power_terms", "expansion_work", "expansion_work_of_six_lines",
         "coefficient_power", "coefficient_power_of_a_huge_exponent", "coefficient_product"],
)
def test_oversized_family_input_exits_1_quickly(tmp_path, family_file, old, new, message):
    fam = Path(family_file("shioda_g1"))
    fam.write_text(fam.read_text().replace(old, new))
    proc = _python(["-m", "nagao.cli", "run", "--family", str(fam), "--tmax", "50",
                    "--out", str(tmp_path / "o")], tmp_path, timeout=10)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and message in proc.stderr
    assert "Traceback" not in proc.stderr


def test_coefficient_of_3914_digits_runs(tmp_path, family_file):
    fam = Path(family_file("shioda_g1"))
    fam.write_text(fam.read_text().replace("poly x^3 - x + t^2", "poly x^3 - x + 2^13000*t^2"))
    assert main(["run", "--family", str(fam), "--tmax", "50", "--out", str(tmp_path / "o")]) == 0


def test_resume_against_foreign_ledger_exits_2(tmp_path, family_file, capsys):
    out = tmp_path / "out"
    assert main([
        "run", "--family", family_file("shioda_g1"),
        "--tmax", "50", "--out", str(out),
    ]) == 0
    rc = main([
        "run", "--family", family_file("shioda_g2"),
        "--tmax", "50", "--out", str(out), "--resume",
    ])
    assert rc == 2
    assert "hash" in capsys.readouterr().err


def test_resume_with_corrupt_middle_row_exits_2(tmp_path, family_file, capsys):
    out = tmp_path / "out"
    fam = family_file("shioda_g1")
    assert main(["run", "--family", fam, "--tmax", "50", "--out", str(out)]) == 0
    ledger = out / "ledger.csv"
    lines = ledger.read_bytes().splitlines(keepends=True)
    lines[5] = b"garbage,row\r\n"
    ledger.write_bytes(b"".join(lines))
    rc = main(["run", "--family", fam, "--tmax", "50", "--out", str(out), "--resume"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "row 5" in err and "Traceback" not in err


def _swap_header_columns(lines):
    lines[0] = lines[0].replace(b"A_p_num,A_p_den", b"A_p_den,A_p_num")


def _duplicate_row_3(lines):
    lines.append(lines[3])


def _den_neither_1_nor_p(lines):
    fields = lines[4].split(b",")
    fields[3] = b"2"  # row 4 is p = 11, so 2 is neither 1 nor p
    lines[4] = b",".join(fields)


def _insert_p_9(lines):
    lines.insert(4, lines[3].replace(b",7,", b",9,", 1))  # a copy of p = 7 as p = 9


def _delete_p_5(lines):
    assert lines[2].split(b",")[1] == b"5"
    del lines[2]


def _foreign_hash_row_3(lines):
    lines[3] = b"deadbeefdeadbeef" + lines[3][lines[3].index(b","):]


def _extra_field_row_3(lines):
    lines[3] = lines[3].replace(b"\r\n", b",extra\r\n")


def _missing_field_row_3(lines):
    lines[3] = lines[3][:lines[3].rindex(b",")] + b"\r\n"


def _skipped_flag_yes_row_3(lines):
    assert lines[3].endswith(b",0,\r\n")
    lines[3] = lines[3][:-len(b",0,\r\n")] + b",yes,why\r\n"


def _skipped_row_3_keeps_its_numbers(lines):
    assert lines[3].endswith(b",0,\r\n")
    lines[3] = lines[3][:-len(b",0,\r\n")] + b",1,\r\n"


@pytest.mark.parametrize(
    "corrupt, where",
    [
        (_swap_header_columns, "header"),
        (_duplicate_row_3, "row 15"),
        (_den_neither_1_nor_p, "row 4"),
        (_insert_p_9, "row 4 has p = 9"),
        (_delete_p_5, "row 2 has p = 7 where shioda_g1 has good prime 5"),
        (_foreign_hash_row_3, "row 3 is malformed (ValueError: family hash deadbeefdeadbeef"),
        (_extra_field_row_3, "row 3 is malformed (ValueError: 8 fields, not 7)"),
        (_missing_field_row_3, "row 3 is malformed (ValueError: 6 fields, not 7)"),
        (_skipped_flag_yes_row_3, "row 3 is malformed (ValueError: skipped = 'yes' is neither"),
        (_skipped_row_3_keeps_its_numbers, "row 3 is malformed (ValueError: a skipped row has"),
    ],
)
def test_resume_with_inconsistent_ledger_exits_2(tmp_path, family_file, capsys, corrupt, where):
    out = tmp_path / "out"
    fam = family_file("shioda_g1")
    assert main(["run", "--family", fam, "--tmax", "50", "--out", str(out)]) == 0
    ledger = out / "ledger.csv"
    lines = ledger.read_bytes().splitlines(keepends=True)
    corrupt(lines)
    ledger.write_bytes(b"".join(lines))
    rc = main(["run", "--family", fam, "--tmax", "50", "--out", str(out), "--resume"])
    assert rc == 2
    err = capsys.readouterr().err
    assert where in err and "Traceback" not in err
    assert ledger.read_bytes() == b"".join(lines)


def test_sieve_out_of_memory_exits_1(tmp_path, family_file, capsys, monkeypatch):
    """A --tmax whose prime sieve does not fit in memory is an error, not a
    traceback; the sieve's MemoryError is simulated, nothing is allocated."""

    def no_memory(lo, hi):
        raise MemoryError

    monkeypatch.setattr(accumulator, "primes_in_range", no_memory)
    rc = main(["run", "--family", family_file("shioda_g1"), "--tmax", "100000000000",
               "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory at --tmax 100000000000\n"


def test_resume_series_bitwise_identical(tmp_path, family_file):
    fam = family_file("shioda_g1")
    cps = "50,150,300"
    fresh = tmp_path / "fresh"
    assert main([
        "series", "--family", fam, "--tmax", "300",
        "--out", str(fresh), "--checkpoints", cps,
    ]) == 0

    resumed = tmp_path / "resumed"
    assert main([
        "series", "--family", fam, "--tmax", "120",
        "--out", str(resumed), "--checkpoints", "50,120",
    ]) == 0
    assert main([
        "series", "--family", fam, "--tmax", "300", "--resume",
        "--out", str(resumed), "--checkpoints", cps, "--jobs", "2",
    ]) == 0

    assert (resumed / "series.csv").read_bytes() == (fresh / "series.csv").read_bytes()


def _live_in_session(sid):
    """Pids of the processes of session sid that are not zombies (Linux /proc)."""
    pids = []
    for entry in Path("/proc").glob("[0-9]*"):
        try:
            stat = (entry / "stat").read_text()
        except (OSError, ValueError):
            continue
        state, _ppid, _pgrp, session = stat[stat.rindex(")") + 2:].split()[:4]
        if int(session) == sid and state != "Z":
            pids.append(int(entry.name))
    return pids


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads /proc")
def test_killed_pool_run_resumes_to_the_serial_bytes(tmp_path, family_file):
    """SIGKILL the parent of a --jobs 2 run once its ledger holds a few rows:
    the orphaned workers stop at their next write (EPIPE), and --resume
    --jobs 2 then writes the ledger and series of a fresh --jobs 1 run."""
    fam = family_file("shioda_g1")
    args = [sys.executable, "-m", "nagao.cli", "run", "--family", fam, "--tmax", "100000"]
    assert subprocess.run([*args, "--out", str(tmp_path / "fresh")], env=_env(),
                          stdout=subprocess.DEVNULL, timeout=300).returncode == 0
    fresh_rows = (tmp_path / "fresh" / "ledger.csv").read_bytes().count(b"\n")
    ledger = tmp_path / "killed" / "ledger.csv"
    run = [*args, "--out", str(tmp_path / "killed"), "--jobs", "2"]
    proc = subprocess.Popen(run, env=_env(), start_new_session=True, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not (ledger.exists() and ledger.read_bytes().count(b"\n") > 5):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.002)
        proc.kill()
        proc.wait()
        assert ledger.read_bytes().count(b"\n") < fresh_rows
        deadline = time.monotonic() + 10
        while pids := _live_in_session(proc.pid):
            assert time.monotonic() < deadline, f"workers {pids} outlived their parent"
            time.sleep(0.05)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert subprocess.run([*run, "--resume"], env=_env(), stdout=subprocess.DEVNULL,
                          timeout=300).returncode == 0
    for name in ("ledger.csv", "series.csv"):
        assert (tmp_path / "killed" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()


def test_commands_do_not_import_sympy(tmp_path):
    """sympy is a test dependency only: run and verify must never load it."""
    code = textwrap.dedent("""
        import sys
        from importlib import resources
        import nagao
        from nagao.cli import main
        for name in nagao.shipped_family_names():
            fam = str(resources.files(nagao).joinpath(f"families/{name}.fam"))
            assert main(["run", "--family", fam, "--tmax", "50", "--out", name]) == 0
        assert main(["verify", "--family", fam]) == 0
        assert "sympy" not in sys.modules, "sympy was imported"
    """)
    proc = _python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_ledger_only_commands_do_not_import_numpy(tmp_path):
    """Over a complete ledger, run, series and residue only read it: no numpy.
    A pool run with primes to compute on a family that needs numpy, the
    separable x^3 - x + t^3 + t, loads the kernels in the parent, before the
    workers fork, so that they do not each import numpy again."""
    names = nagao.shipped_family_names()
    for name in names:
        fam = str(resources.files(nagao).joinpath(f"families/{name}.fam"))
        proc = _python(["-m", "nagao.cli", "run", "--family", fam, "--tmax", "60", "--out", name],
                       tmp_path)
        assert proc.returncode == 0, proc.stderr
    (tmp_path / "cubic_t_plus_t.fam").write_text(
        'family "cubic_t_plus_t"\nkind hyperelliptic\npoly x^3 - x + t^3 + t\n'
        "genus 1\ntrace none\ninfinity trace_zero\n"
    )
    code = textwrap.dedent(f"""
        import sys
        from importlib import resources
        import nagao
        from nagao.cli import main
        for name in {names!r}:
            fam = str(resources.files(nagao).joinpath(f"families/{{name}}.fam"))
            for command in ("run", "series", "residue"):
                args = [command, "--resume", "--family", fam, "--tmax", "60", "--out", name]
                assert main(args) == 0, args
        assert "numpy" not in sys.modules, "numpy was imported"
        assert "nagao.kernels" not in sys.modules
        assert main(["run", "--jobs", "2", "--family", "cubic_t_plus_t.fam", "--tmax", "120",
                     "--out", "cubic_t_plus_t"]) == 0
        assert "nagao.kernels" in sys.modules
    """)
    proc = _python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_root_count_runs_do_not_import_numpy(tmp_path, jobs):
    """Every shipped family takes chi_sum with character sums of degree <= 3,
    and cubic_t, y^2 = x^3 - x + t^3, takes the coset kernel, so a run that
    computes primes loads neither numpy nor the kernels.  A run loads only
    run-path code: no dataclasses (nor the inspect module that they import),
    not the scalar references of fiber_trace, which verify loads and checks
    the kernels against, and, at either --jobs, neither multiprocessing nor
    pickle: the workers are forked and send marshal."""
    (tmp_path / "cubic_t.fam").write_text(
        'family "cubic_t"\nkind hyperelliptic\npoly x^3 - x + t^3\n'
        "genus 1\ntrace none\ninfinity trace_zero\n"
    )
    code = textwrap.dedent(f"""
        import contextlib, io, sys
        from importlib import resources
        import nagao
        from nagao.cli import main
        for name in nagao.shipped_family_names():
            fam = str(resources.files(nagao).joinpath(f"families/{{name}}.fam"))
            args = ["run", "--jobs", {jobs!r}, "--family", fam, "--tmax", "400", "--out", name]
            assert main(args) == 0, args
        args = ["run", "--jobs", {jobs!r}, "--family", "cubic_t.fam", "--tmax", "400", "--out", "c"]
        assert main(args) == 0, args
        assert "numpy" not in sys.modules, "numpy was imported"
        assert "nagao.kernels" not in sys.modules
        for module in ("dataclasses", "inspect", "nagao.fiber_trace", "multiprocessing", "pickle"):
            assert module not in sys.modules, module
        for name in nagao.shipped_family_names():
            fam = str(resources.files(nagao).joinpath(f"families/{{name}}.fam"))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["verify", "--family", fam]) == 0, name
            assert out.getvalue().count(": PASS\\n") == 4, out.getvalue()
    """)
    proc = _python(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
