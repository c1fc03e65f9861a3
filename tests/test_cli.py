"""CLI behaviour: golden CSVs, exit codes, determinism."""

import dataclasses
import importlib.util
import pathlib
import sys

import pytest

from cohstab import cli, coherence
from cohstab.cli import main
from cohstab.scenario import parse_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "golden"

BUNDLED = ("free_fermion", "forced_fermion", "grassmann_forced")


@pytest.mark.parametrize("name", BUNDLED)
def test_golden_csv_byte_exact(name, tmp_path):
    code = main(["run", str(SCENARIOS / f"{name}.ini"), "--out", str(tmp_path)])
    assert code == 0
    produced = (tmp_path / f"{name}.csv").read_bytes()
    golden = (GOLDEN / f"{name}.csv").read_bytes()
    assert produced == golden
    verdict = (tmp_path / f"{name}.verdict.csv").read_bytes()
    assert verdict == (GOLDEN / f"{name}.verdict.csv").read_bytes()


def _workload_inputs():
    """perfbench/inputs.py, which writes the benchmark's seeded scenarios."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def test_grassmann_wide_golden_byte_exact(tmp_path):
    # 256 coefficients: the seed-0 scenario of the benchmark's grassmann_wide
    inputs = _workload_inputs()
    scenario = tmp_path / "grassmann_wide_s0.ini"
    scenario.write_text(inputs.grassmann_wide_text(0, inputs.T_END["grassmann_wide"]["full"]))
    assert main(["run", str(scenario), "--out", str(tmp_path)]) == 0
    produced = (tmp_path / "grassmann_wide.csv").read_bytes()
    assert produced == (GOLDEN / "grassmann_wide_s0.csv").read_bytes()
    verdict = (tmp_path / "grassmann_wide.verdict.csv").read_bytes()
    assert verdict == (GOLDEN / "grassmann_wide_s0.verdict.csv").read_bytes()


def test_reruns_are_byte_identical(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["run", str(SCENARIOS / "forced_fermion.ini"),
                     "--out", str(out)]) == 0
    assert (a / "forced_fermion.csv").read_bytes() == \
        (b / "forced_fermion.csv").read_bytes()


def test_missing_file_is_parse_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.ini")]) == 1


def test_unknown_key_is_parse_error(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text(
        "[system]\nkind = fermion\n\n[hamiltonian]\nomega = 1\nbogus = 1\n"
        "\n[integration]\nt_end = 1\n"
    )
    assert main(["run", str(bad)]) == 1


def test_unmet_expectation_exits_two(tmp_path):
    # forced fermion without expect=non_preserving: verification fails but
    # the report files are still written
    scenario = tmp_path / "forced.ini"
    scenario.write_text(
        "[system]\nkind = fermion\n\n[hamiltonian]\nomega = 1\nf_re = 0.3\n\n"
        "[integration]\nt_end = 1\n\n[output]\npath = forced.csv\n"
    )
    code = main(["run", str(scenario), "--out", str(tmp_path)])
    assert code == 2
    assert (tmp_path / "forced.csv").exists()
    assert (tmp_path / "forced.verdict.csv").exists()


def test_truncation_breach_exits_three(tmp_path):
    scenario = tmp_path / "big.ini"
    scenario.write_text(
        "[system]\nkind = boson\n\n[hamiltonian]\nomega = 1\nf_re = 5\n\n"
        "[initial]\nz0_re = 0.5\n\n[integration]\nt_end = 10\n\n"
        "[output]\npath = big.csv\n"
    )
    assert main(["run", str(scenario), "--out", str(tmp_path)]) == 3


def test_nan_initial_value_exits_three(tmp_path):
    # NaN fails the tail guard and the dt/2 gate closed instead of
    # writing an all-NaN trajectory
    scenario = tmp_path / "nan.ini"
    scenario.write_text(
        "[system]\nkind = boson\n\n[hamiltonian]\nomega = 1\n\n"
        "[initial]\nz0_re = nan\n\n[integration]\nt_end = 0.01\n\n"
        "[output]\npath = nan.csv\n"
    )
    assert main(["run", str(scenario), "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "nan.csv").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_grassmann_state_exits_three(tmp_path):
    # 1e200*zeta makes the coherent state's zeta zeta* coefficient overflow
    # to inf; the evolution fails the dt/2 gate closed, whatever the
    # products that skip structural zeros make of it
    scenario = tmp_path / "inf.ini"
    scenario.write_text(
        "[system]\nkind = grassmann\ngenerators = zeta, chi, xi, eta\n\n"
        "[hamiltonian]\nomega = 1\neta_re = 0.3*cos(1*t)\neta_generator = eta\n\n"
        "[initial]\nzeta0 = 1e200*zeta + 0.5*chi\n\n[integration]\nt_end = 0.01\n\n"
        "[output]\npath = inf.csv\n"
    )
    assert main(["run", str(scenario), "--out", str(tmp_path)]) == 3
    assert not (tmp_path / "inf.csv").exists()


def test_infinite_t_end_is_validation_error(tmp_path):
    assert main(["run", str(SCENARIOS / "free_fermion.ini"),
                 "--out", str(tmp_path), "--t-end", "inf"]) == 1


def test_step_budget_is_validation_error(tmp_path):
    assert main(["run", str(SCENARIOS / "free_fermion.ini"),
                 "--out", str(tmp_path), "--dt", "1e-300"]) == 1
    assert not list(tmp_path.iterdir())


def test_dt_above_t_end_is_validation_error(tmp_path):
    assert main(["run", str(SCENARIOS / "free_fermion.ini"),
                 "--out", str(tmp_path), "--dt", "7"]) == 1
    assert not list(tmp_path.iterdir())


def test_one_law_integration_per_run(tmp_path, monkeypatch):
    calls = []
    law = coherence.evolve_grassmann_classical

    def counted(*args, **kwargs):
        calls.append(args)
        return law(*args, **kwargs)

    monkeypatch.setattr(coherence, "evolve_grassmann_classical", counted)
    scenario = parse_scenario(SCENARIOS / "grassmann_forced.ini")
    scenario = dataclasses.replace(
        scenario, config=dataclasses.replace(scenario.config, t_end=0.2)
    )
    assert cli.run_scenario(scenario, str(tmp_path)) == 0
    assert len(calls) == 1


def test_overrides_change_grid(tmp_path):
    code = main(["run", str(SCENARIOS / "forced_fermion.ini"),
                 "--out", str(tmp_path), "--t-end", "1.0", "--dt", "0.002"])
    assert code == 0
    rows = (tmp_path / "forced_fermion.csv").read_text().splitlines()
    assert len(rows) == 1 + 51  # header + 500/10 records + endpoint


def test_classify_prints_verdict(capsys):
    assert main(["classify", str(SCENARIOS / "forced_fermion.ini")]) == 0
    out = capsys.readouterr().out
    assert "non_preserving" in out
    assert "agrees: True" in out


def test_classify_preserving(capsys):
    assert main(["classify", str(SCENARIOS / "free_fermion.ini")]) == 0
    assert "verdict: preserving" in capsys.readouterr().out


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "all self-tests passed" in out
    assert "FAIL" not in out
