"""Smoke test of the benchmark itself, at the tiny size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that traced counts repeat exactly between runs, that the kernel is never
called on boson_forced, that a corrupted output fails its pass, and that
the benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from checks import check_pass  # noqa: E402
from inputs import WORKLOADS, Input  # noqa: E402
from tracer import COUNTS  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def bench(workload, trace, cwd=HERE.parent):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


@pytest.fixture(scope="module")
def results():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1, 1):
            proc = bench(workload, trace)
            assert proc.returncode == 0, proc.stderr
            out.setdefault((workload, trace), []).append(proc.stdout)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(results, workload):
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        stdout = results[(workload, trace)][0]
        result = json.loads(stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 2
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        assert "backend " in stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_between_runs(results, workload):
    first, second = (json.loads(s.splitlines()[-1])["metrics"]
                     for s in results[(workload, 1)])
    for name in (*COUNTS, "cli.bytes_written"):
        assert first[name]["value"] == second[name]["value"], name


def test_boson_forced_never_calls_the_kernel(results):
    metrics = json.loads(results[("boson_forced", 1)][0].splitlines()[-1])["metrics"]
    assert metrics["kernel.multiply.calls"]["value"] == 0
    assert metrics["dynamics.steps"]["value"] > 0


def test_corrupted_output_counts_in_fail_ratio(monkeypatch):
    prog = run.import_program()
    original = prog.cli.run_scenario

    def corrupting(scenario, out_dir=None):
        code = original(scenario, out_dir)
        path = Path(out_dir) / scenario.out_path
        lines = path.read_text().splitlines()
        lines[1] = ",".join(["nan"] * len(lines[1].split(",")))
        path.write_text("\n".join(lines) + "\n")
        return code

    monkeypatch.setattr(prog.cli, "run_scenario", corrupting)
    result = run.run_workload("boson_forced", 0, 0.0, True, "tiny")
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert not result["correct"]
    assert result["metrics"]["fail_ratio"]["value"] == 1.0
    # the traced pass restored every binding it wrapped
    assert prog.dynamics.extract_eigenvalue is prog.fermion.extract_eigenvalue
    assert not hasattr(prog.kernel.multiply, "__wrapped__")
    assert not hasattr(prog.coeffs.CoefficientFn.__call__, "__wrapped__")


def test_reference_mismatches_fail_the_pass(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "s.csv").write_text("t,re[z],im[z],residual,norm_dev\n"
                               "0.0,1.0,0.0,0.0,0.0\n0.001,1.0,0.0,0.0,0.0\n")
    (out / "s.verdict.csv").write_text(
        "scenario,kind,verdict,expected,max_residual,max_eigenvalue_deviation,ok\n"
        "s,boson,preserving,preserving,0.0,0.0,1\n")
    golden = tmp_path / "golden.csv"
    golden.write_bytes((out / "s.csv").read_bytes())
    inp = Input(tmp_path / "s.ini", golden, 1e-3, 1e-3, 10)
    assert check_pass("w", 0, [inp], [0], out, None) == []
    golden.write_text((out / "s.csv").read_text().replace("0.001,1.0", "0.001,1.5"))
    assert check_pass("w", 0, [inp], [0], out, None)
    inp = Input(tmp_path / "s.ini", None, 1e-3, 1e-3, 10)
    assert check_pass("w", 0, [inp], [0], out, {"s.csv": "0" * 64})
    assert check_pass("w", 0, [inp], [2], out, None)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".*"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload", "shipped",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
