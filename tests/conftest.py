import numpy as np
import pytest

from cohstab.grassmann import GeneratorSet


@pytest.fixture
def gens1():
    return GeneratorSet.from_pairs(("zeta",))


@pytest.fixture
def gens2():
    return GeneratorSet.from_pairs(("zeta", "eta"))


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
