import pathlib

import numpy as np
import pytest

from cohstab import dynamics, kernel
from cohstab.cli import main
from cohstab.grassmann import GeneratorSet
from cohstab.kernel import compiled

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture
def gens1():
    return GeneratorSet.from_pairs(("zeta",))


@pytest.fixture
def gens2():
    return GeneratorSet.from_pairs(("zeta", "eta"))


@pytest.fixture
def numpy_product(monkeypatch, tmp_path):
    """kernel.multiply on its numpy plans (and the RK4 driver on its numpy
    loop), as on a host without a C compiler: an empty library cache and no
    compiler."""
    monkeypatch.setattr(compiled, "CACHE", tmp_path / "cache")
    monkeypatch.setattr(compiled, "_chosen", None)
    monkeypatch.setattr(compiled, "COMPILER", "no-such-cc-for-cohstab")
    assert compiled.product() is None


@pytest.fixture
def grid_reads(monkeypatch):
    """Per IntegrationConfig.times call of the test, whether it returned the
    whole grid, with tables of 500 slot rows or of 100 fermion or boson grid
    steps, so that a phase that reads the grid a block at a time reads
    several blocks of a shipped scenario's 2,001 points."""
    for owner in (kernel, dynamics):
        monkeypatch.setattr(owner, "TABLE_BYTES", 500 * 64)
    reads, times = [], dynamics.IntegrationConfig.times

    def read(config, *rows):
        out = times(config, *rows)
        reads.append(out.size == config.n_steps + 1)
        return out

    monkeypatch.setattr(dynamics.IntegrationConfig, "times", read)
    return reads


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture(scope="session")
def scenario_runs(tmp_path_factory):
    """`coherence run` of every file in scenarios/, once per session:
    (exit code per scenario name, the directory holding their outputs)."""
    out = tmp_path_factory.mktemp("scenario_runs")
    codes = {path.stem: main(["run", str(path), "--out", str(out)])
             for path in sorted(SCENARIOS.glob("*.ini"))}
    return codes, out
