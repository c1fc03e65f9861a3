"""CLI behaviour: golden CSVs, exit codes, determinism."""

import contextlib
import csv
import dataclasses
import importlib.util
import io
import pathlib
import sys
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cohstab import cli, coherence, dynamics
from cohstab.kernel import compiled
from cohstab.cli import main
from cohstab.scenario import MAX_SCENARIO_BYTES, MAX_TERMS, parse_scenario

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "golden"

BUNDLED = ("free_fermion", "forced_fermion", "grassmann_forced", "boson_forced")


@pytest.mark.parametrize("name", BUNDLED)
def test_golden_csv_byte_exact(name, scenario_runs):
    codes, out = scenario_runs
    assert codes[name] == 0
    produced = (out / f"{name}.csv").read_bytes()
    golden = (GOLDEN / f"{name}.csv").read_bytes()
    assert produced == golden
    verdict = (out / f"{name}.verdict.csv").read_bytes()
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


def test_record_without_eigenvalue_writes_nan(gens1):
    cfg = dynamics.IntegrationConfig(1.0, 0.5, stride=1)
    lam = 0.5 * gens1.gen("zeta")
    missing = np.full(gens1.dim, complex(np.nan, np.nan))
    traj = dynamics.Trajectory(
        "fermion", cfg, np.zeros((3, 2, gens1.dim), dtype=complex),
        lams=np.stack((lam.coeffs, missing, (-lam).coeffs)),
        residuals=np.array([0.0, np.inf, 1e-3]), norm_dev=np.array([0.0, 0.25, -0.0]),
        gens=gens1)
    assert traj.eigenvalues[1] is None
    header, text = cli._trajectory_rows(traj)
    rows = [line.split(",") for line in "".join(text).split("\n")]
    assert rows.pop() == [""]  # every row ends in a newline
    assert header == ["t", "re[1]", "im[1]", "re[zeta]", "im[zeta]", "re[zeta*]",
                      "im[zeta*]", "re[zeta zeta*]", "im[zeta zeta*]",
                      "residual", "norm_dev"]
    zeros = ["0.0", "0.0"]
    assert rows[0] == ["0.0"] + zeros + ["0.5", "0.0"] + zeros * 2 + ["0.0", "0.0"]
    assert rows[1] == ["0.5"] + ["nan"] * 8 + ["inf", "0.25"]
    negated = ["-0.0", "-0.0"]  # signed zeros survive
    assert rows[2] == ["1.0"] + negated + ["-0.5", "-0.0"] + negated * 2 + ["0.001", "-0.0"]


@pytest.mark.parametrize("text", ["formatter", "repr"])
def test_trajectory_text_is_what_csv_writer_writes(gens1, monkeypatch, text):
    # rows of 11 values, 2 to a block of text: 7 rows make 4 blocks, the last
    # short; the values take every form repr gives a float; the text of the
    # compiled formatter, and of repr where the library does not load
    if text == "repr":
        monkeypatch.setattr(compiled, "formatter", lambda: None)
    cfg = dynamics.IntegrationConfig(6.0, 1.0, stride=1)
    rng = np.random.default_rng(5)
    lams = rng.standard_normal((7, 2 * gens1.dim)) * 10.0 ** rng.integers(-320, 300, (7, 1))
    lams.flat[::5] = [np.nan, -np.inf, np.inf, -0.0, 0.0, 5e-324, 1e16, 123456.0, -1e-5, 0.1,
                      2.0**60, -7.0][:len(lams.flat[::5])]
    traj = dynamics.Trajectory(
        "fermion", cfg, np.zeros((7, 2, gens1.dim), dtype=complex),
        lams=lams.view(complex), residuals=rng.random(7), norm_dev=-rng.random(7),
        gens=gens1)
    monkeypatch.setattr(cli, "CSV_BLOCK_VALUES", 23)
    header, text = cli._trajectory_rows(traj)
    blocks = list(text)
    assert len(blocks) == 4
    want = io.StringIO(newline="")
    table = np.column_stack((traj.times, lams, traj.residuals, traj.norm_dev))
    csv.writer(want, lineterminator="\n").writerows(list(map(repr, r)) for r in table.tolist())
    assert "".join(blocks) == want.getvalue()


@pytest.mark.parametrize("text", ["formatter", "repr"])
def test_trajectory_write_peaks_near_one_block(gens1, tmp_path, monkeypatch, text):
    # 40,001 records of 11 values are about 8 MB of text, written a block at
    # a time: over what the header's write holds (csv.writer's 128 KiB
    # record buffer), the formatter holds one block's buffer of
    # CSV_BLOCK_VALUES * TEXT_BYTES bytes and its text; repr's %-format
    # holds the block's floats as a list and a tuple besides
    if text == "repr":
        monkeypatch.setattr(compiled, "formatter", lambda: None)
    cfg = dynamics.IntegrationConfig(4.0, 1e-4, stride=1)
    n = cfg.n_steps + 1
    rng = np.random.default_rng(11)
    traj = dynamics.Trajectory(
        "fermion", cfg, np.zeros((n, 2, gens1.dim), dtype=complex),
        lams=rng.standard_normal((n, 2 * gens1.dim)).view(complex), residuals=rng.random(n),
        norm_dev=-rng.random(n), gens=gens1)
    path = tmp_path / "long.csv"
    header, text = cli._trajectory_rows(traj)
    cli._write_csv(path, header, text=text)  # the first use builds the formatter's table
    _, header_peak = _traced_peak(lambda: cli._write_csv(path, header))
    header, text = cli._trajectory_rows(traj)
    _, peak = _traced_peak(lambda: cli._write_csv(path, header, text=text))
    block = cli.CSV_BLOCK_VALUES * compiled.TEXT_BYTES
    assert path.stat().st_size > 80 * block
    assert peak - header_peak < (2 if compiled.formatter() is not None else 3) * block


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


def _verdict_row(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))[0]


def test_preserving_verdict_against_non_preserving_expectation_exits_two(tmp_path):
    # the free fermion preserves: expecting otherwise fails the run
    text = (SCENARIOS / "free_fermion.ini").read_text()
    scenario = tmp_path / "free_fermion.ini"
    scenario.write_text(text.replace("expect = preserving", "expect = non_preserving"))
    code = main(["run", str(scenario), "--out", str(tmp_path), "--t-end", "0.1"])
    assert code == 2
    row = _verdict_row(tmp_path / "free_fermion.verdict.csv")
    assert (row["verdict"], row["expected"], row["ok"]) == ("preserving", "non_preserving", "0")


def test_witness_that_disagrees_exits_two(tmp_path):
    # over 0.05 the forced fermion's residual stays under DYNAMIC_RESIDUAL_TOL,
    # so the witness disagrees with the static non_preserving verdict
    scenario = parse_scenario(SCENARIOS / "forced_fermion.ini")
    scenario = dataclasses.replace(
        scenario, config=dataclasses.replace(scenario.config, t_end=0.05))
    classification = coherence.classify_hamiltonian(scenario.hamiltonian_spec(),
                                                    scenario.config)
    assert classification.verdict == "non_preserving" and classification.agrees is False
    code = main(["run", str(SCENARIOS / "forced_fermion.ini"), "--out", str(tmp_path),
                 "--t-end", "0.05"])
    assert code == 2
    row = _verdict_row(tmp_path / "forced_fermion.verdict.csv")
    assert (row["verdict"], row["expected"], row["ok"]) == ("non_preserving",
                                                            "non_preserving", "0")


def test_truncation_breach_exits_three(tmp_path):
    scenario = tmp_path / "big.ini"
    scenario.write_text(
        "[system]\nkind = boson\n\n[hamiltonian]\nomega = 1\nf_re = 5\n\n"
        "[initial]\nz0_re = 0.5\n\n[integration]\nt_end = 10\n\n"
        "[output]\npath = big.csv\n"
    )
    assert main(["run", str(scenario), "--out", str(tmp_path)]) == 3


NON_FINITE = {
    "omega": "[system]\nkind = boson\n\n[hamiltonian]\nomega = 1e999\n\n"
             "[integration]\nt_end = 0.01\n",
    "z0_re": "[system]\nkind = boson\n\n[hamiltonian]\nomega = 1\n\n"
             "[initial]\nz0_re = nan\n\n[integration]\nt_end = 0.01\n",
}


@pytest.mark.parametrize("command", ["run", "classify"])
@pytest.mark.parametrize("key", NON_FINITE)
def test_non_finite_number_is_scenario_error(tmp_path, capsys, command, key):
    # refused as it is read, before it can turn into a numeric failure or a
    # verdict
    path = tmp_path / "non_finite.ini"
    path.write_text(NON_FINITE[key])
    out = ["--out", str(tmp_path)] if command == "run" else []
    assert main([command, str(path)] + out) == 1
    assert "scenario error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


#: 1e308*t^3 parses, then overflows to inf on the grid
OVERFLOWING = {"f_re": "omega = 1\nf_re = 1e308*t^3\n", "omega": "omega = 1e308*t^3\n"}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("command", ["run", "classify"])
@pytest.mark.parametrize("key", OVERFLOWING)
def test_overflowing_coefficient_exits_three(tmp_path, capsys, command, key):
    # slot_rows refuses the coefficient for both commands, so classify gives
    # no verdict on a Hamiltonian whose coefficients are not numbers
    path = tmp_path / "overflow.ini"
    path.write_text(f"[system]\nkind = boson\n\n[hamiltonian]\n{OVERFLOWING[key]}\n"
                    "[integration]\nt_end = 2\ndt = 0.01\n\n[output]\npath = overflow.csv\n")
    out = ["--out", str(tmp_path)] if command == "run" else []
    assert main([command, str(path)] + out) == 3
    assert "numeric failure" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("z0", ["z0_im = 1e200", "z0_re = -2e154\nz0_im = 2e154"],
                         ids=["im_1e200", "both_2e154"])
def test_unbounded_z0_is_scenario_error(tmp_path, capsys, z0):
    # abs(z0) ** 2 once overflowed in the tail-mass guard, and the run died
    # with a traceback
    path = tmp_path / "far.ini"
    path.write_text("[system]\nkind = boson\n\n[hamiltonian]\nomega = 1\n\n"
                    f"[initial]\n{z0}\n\n[integration]\nt_end = 0.01\n")
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "scenario error" in err and "exceeds 1e+150" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == [path]


def test_run_frees_the_carried_law_before_the_csv_write(tmp_path, monkeypatch):
    # the CSV holds no law: its records go once verify_trajectory has read them
    records, freed = [], []

    def evolve(*args):
        traj = dynamics.evolve_schrodinger_fermion(*args)
        records.append(weakref.ref(traj.law.zeta.base))  # the driver's records
        return traj

    write = cli._write_csv
    monkeypatch.setattr(cli, "evolve_schrodinger_fermion", evolve)
    monkeypatch.setattr(cli, "_write_csv",
                        lambda *a, **kw: (freed.append(records[0]() is None), write(*a, **kw)))
    scenario = parse_scenario(SCENARIOS / "grassmann_forced.ini")
    assert cli.run_scenario(scenario, str(tmp_path)) == 0
    assert freed == [True, True]
    assert (tmp_path / scenario.out_path).read_bytes() == (
        GOLDEN / "grassmann_forced.csv").read_bytes()


def test_unwritable_out_is_scenario_error(tmp_path, capsys):
    blocker = tmp_path / "a_file"
    blocker.write_text("")
    assert main(["run", str(SCENARIOS / "free_fermion.ini"), "--t-end", "0.05",
                 "--out", str(blocker / "out")]) == 1
    err = capsys.readouterr().err
    assert "scenario error" in err and "Traceback" not in err


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


@pytest.mark.parametrize("command", ["run", "classify"])
@pytest.mark.parametrize("scenario", ["free_fermion", "grassmann_forced"])
def test_repeated_generator_is_scenario_error(tmp_path, capsys, command, scenario):
    text = (SCENARIOS / f"{scenario}.ini").read_text()
    path = tmp_path / "repeated.ini"
    path.write_text(text.replace("generators = zeta", "generators = zeta, zeta"))
    out = ["--out", str(tmp_path)] if command == "run" else []
    assert main([command, str(path)] + out) == 1
    assert "scenario error" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_eta_in_the_initial_value_is_refused_by_verify(tmp_path, capsys):
    # the law refuses a start that holds eta, and so run refuses it before
    # evolving anything, with the law's message
    path = tmp_path / "grassmann_forced.ini"
    text = (SCENARIOS / "grassmann_forced.ini").read_text()
    path.write_text(text.replace("zeta0 = zeta\n", "zeta0 = eta\n"))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: eta generator 'eta' appears in the initial value\n"
    assert list(tmp_path.iterdir()) == [path]


def test_eta_in_the_initial_value_is_refused_before_evolving(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(cli, "evolve_schrodinger_fermion",
                        lambda *a: calls.append(a) or dynamics.evolve_schrodinger_fermion(*a))
    path = tmp_path / "grassmann_forced.ini"
    text = (SCENARIOS / "grassmann_forced.ini").read_text()
    path.write_text(text.replace("zeta0 = zeta\n", "zeta0 = zeta + eta\n"))
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err == "error: eta generator 'eta' appears in the initial value\n"
    assert calls == []
    assert list(tmp_path.iterdir()) == [path]
    # classify does not evolve the start, so it still reads such a file
    assert main(["classify", str(path)]) == 0
    assert "verdict: preserving" in capsys.readouterr().out


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


OVER_BOUND = """
[system]
kind = grassmann
generators = zeta, eta, chi, xi

[hamiltonian]
omega = 1.0
eta_re = 0.3
eta_generator = eta

[integration]
t_end = 1.0
dt = 1e-7
stride = 1
"""


def _traced_peak(fn):
    """fn()'s result and the peak of the memory Python allocated meanwhile."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("override", [[], ["--dt", "1e-7", "--t-end", "1.0"]],
                         ids=["scenario", "override"])
def test_record_bound_is_validation_error_before_allocating(tmp_path, override, capsys):
    # 10**7 records of 2 * 256 amplitudes would take 82 GB
    small = OVER_BOUND.replace("dt = 1e-7", "dt = 0.1") if override else OVER_BOUND
    path = tmp_path / "over_bound.ini"
    path.write_text(small)
    code, peak = _traced_peak(lambda: main(["run", str(path), "--out", str(tmp_path)]
                                           + override))
    assert code == 1
    assert "record bound" in capsys.readouterr().err
    assert peak < 4 * 2**20
    assert list(tmp_path.iterdir()) == [path]


def test_classify_ignores_the_record_bound(tmp_path, capsys):
    # 10**5 records of 512 amplitudes are over the bound, but classifying
    # records nothing
    path = tmp_path / "over_bound.ini"
    path.write_text(OVER_BOUND.replace("dt = 1e-7", "dt = 1e-5"))
    assert main(["classify", str(path)]) == 0
    assert "verdict: preserving" in capsys.readouterr().out
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    assert "record bound" in capsys.readouterr().err


def test_oversized_scenario_is_scenario_error(tmp_path, capsys):
    # a valid scenario padded with comments past the bound
    path = tmp_path / "oversized.ini"
    padding = "# padding\n" * (MAX_SCENARIO_BYTES // 10)
    path.write_text((SCENARIOS / "free_fermion.ini").read_text() + padding)
    assert main(["run", str(path), "--out", str(tmp_path), "--t-end", "0.05"]) == 1
    assert f"more than {MAX_SCENARIO_BYTES} bytes" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def test_expression_over_the_term_bound_is_scenario_error(tmp_path, capsys):
    path = tmp_path / "many_terms.ini"
    omega = " + ".join(["1"] + ["0.01*cos(1*t)"] * MAX_TERMS)
    path.write_text(f"[system]\nkind = fermion\n\n[hamiltonian]\nomega = {omega}\n\n"
                    "[integration]\nt_end = 0.05\n")
    assert main(["run", str(path), "--out", str(tmp_path)]) == 1
    assert f"at most {MAX_TERMS} terms" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == [path]


def _count_calls(monkeypatch, name, owners=(dynamics, coherence)):
    """Count the calls of <owner>.<name>, wherever the package binds it."""
    calls = []
    law = getattr(owners[0], name)

    def counted(*args, **kwargs):
        calls.append(args)
        return law(*args, **kwargs)

    for owner in owners:
        if hasattr(owner, name):
            monkeypatch.setattr(owner, name, counted)
    return calls


def test_one_law_integration_per_run(tmp_path, monkeypatch):
    # one driver loop per run: the grassmann law rides in the trajectory's,
    # so its own integration never runs, and the boson law is read from its
    # closed form
    for name, law_name in (
        ("grassmann_forced", "evolve_grassmann_classical"),
        ("boson_forced", "evolve_classical_boson"),
    ):
        calls = _count_calls(monkeypatch, law_name)
        loops = _count_calls(monkeypatch, "_integrate")
        scenario = parse_scenario(SCENARIOS / f"{name}.ini")
        scenario = dataclasses.replace(
            scenario, config=dataclasses.replace(scenario.config, t_end=0.2)
        )
        assert cli.run_scenario(scenario, str(tmp_path)) == 0, name
        assert len(calls) == 0, name
        assert len(loops) == 1, name


@pytest.mark.parametrize("name", BUNDLED)
def test_one_grid_per_run(name, tmp_path, grid_reads):
    # the config is the run's one grid: the evolution, classify, verify and
    # the CSV read their times from it a block at a time, none the whole grid
    assert cli.run_scenario(parse_scenario(SCENARIOS / f"{name}.ini"), str(tmp_path)) == 0
    assert len(grid_reads) > 1 and not any(grid_reads)


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


# -- the exit-code contract on mutated scenarios ------------------------------


def _shipped_entries(name: str) -> list:
    """(section, key, value) of a shipped scenario, in file order."""
    entries, section = [], None
    for line in (SCENARIOS / f"{name}.ini").read_text(encoding="utf-8").splitlines():
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line:
            key, value = (part.strip() for part in line.split("=", 1))
            entries.append((section, key, value))
    return entries


_BAD = st.one_of(
    st.sampled_from(["1e200", "-1e300", "1.7e308", "1e309", "nan", "-inf", "inf", "NaN"]),
    st.text(st.characters(blacklist_categories=("Cs", "Cc", "Zl", "Zp")), max_size=12),
)
_SMALL = st.floats(1e-3, 0.05).map(repr)
_VALUES = {  # with dt >= 1e-3 and t_end <= 0.05, a grid has at most 50 steps
    "t_end": st.one_of(_SMALL, _SMALL, st.floats(-1.0, 0.0).map(repr), _BAD),
    "dt": st.one_of(st.floats(1e-3, 1.0).map(repr), st.floats(-1.0, 0.0).map(repr), _BAD),
    "stride": st.one_of(st.integers(-3, 1000).map(str), _BAD),
}
_ANY = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr), _BAD)


@st.composite
def _mutated(draw, name: str) -> str:
    """A shipped scenario with at most one key dropped and two values
    replaced by drawn finite, huge, non-finite or garbage ones. Its t_end
    is always drawn, so that any grid it runs on is small; its output path
    is never replaced, so the run writes only into its --out."""
    entries = _shipped_entries(name)
    keys = [key for _, key, _ in entries]
    dropped = draw(st.sets(st.sampled_from(keys), max_size=1))
    replaced = draw(st.sets(st.sampled_from([k for k in keys if k != "path"]), max_size=2))
    lines, section = [], None
    for sec, key, value in entries:
        if key in dropped:
            continue
        if key == "t_end" or key in replaced:
            value = draw(_VALUES.get(key, _ANY))
        if sec != section:
            lines.append(f"[{sec}]")
            section = sec
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", BUNDLED)
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(data=st.data())
def test_mutated_scenario_exits_with_a_contract_code(name, data):
    text = data.draw(_mutated(name), label="scenario")
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / f"{name}.ini"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(["run", str(path), "--out", tmp])
    assert code in (0, 1, 2, 3)
