"""Truncated boson space: coherent states, ladders, displacement."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_compiled import nan_blind_bits

from cohstab.boson import (
    DEFAULT_NMAX,
    MAX_NMAX,
    BosonLadderInvariant,
    BosonState,
    apply_ladder,
    coherent_tail_mass,
    displace,
    eigenvalue_lsq,
    expectation_lowering,
    expectation_number,
    make_coherent_boson,
)
from cohstab.errors import TruncationTooSmall


def test_vacuum_amplitudes():
    s = make_coherent_boson(0.0, 8)
    want = np.zeros(9)
    want[0] = 1.0
    assert np.array_equal(s.amps, want)


def test_unit_coherent_amplitudes():
    s = make_coherent_boson(1.0, 40)
    assert abs(s.amps[0] - np.exp(-0.5)) < 1e-15
    assert abs(s.amps[1] - np.exp(-0.5)) < 1e-15
    assert abs(s.amps[2] - np.exp(-0.5) / np.sqrt(2)) < 1e-15


def test_truncation_guard():
    with pytest.raises(TruncationTooSmall):
        make_coherent_boson(3.0, 5)
    assert coherent_tail_mass(3.0, 5) > 1e-9


@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.5, math.nan), math.inf])
def test_non_finite_amplitude_fails_tail_guard(z):
    assert math.isnan(coherent_tail_mass(z, 64))
    with pytest.raises(TruncationTooSmall):
        make_coherent_boson(z, 64)


# each constructor at the cutoff bound and one level over it
CONSTRUCTORS = {
    "vacuum": BosonState.vacuum,
    "number_state": lambda nmax: BosonState.number_state(nmax, nmax),
    "coherent_tail_mass": lambda nmax: coherent_tail_mass(0.5, nmax),
    "make_coherent_boson": lambda nmax: make_coherent_boson(0.0, nmax),
}


@pytest.mark.parametrize("build", CONSTRUCTORS.values(), ids=list(CONSTRUCTORS))
def test_constructors_refuse_a_cutoff_over_the_bound(build):
    assert DEFAULT_NMAX <= MAX_NMAX
    build(MAX_NMAX)
    with pytest.raises(ValueError, match="nmax must be in"):
        build(MAX_NMAX + 1)
    with pytest.raises(ValueError, match="nmax must be in"):
        build(0)


@pytest.mark.parametrize("n", [-1, -9, 9, 10])
def test_number_state_refuses_a_level_outside_the_cutoff(n):
    with pytest.raises(ValueError, match="outside 0..8"):
        BosonState.number_state(n, 8)
    assert BosonState.number_state(8, 8).amps[8] == 1.0


def test_expectation_lowering_matches_direct_sum(rng):
    # independent oracle: <a> = sum sqrt(n+1) conj(c_n) c_{n+1}
    for z in (0.3, 0.9j, 0.5 - 0.5j):
        s = make_coherent_boson(z, 40)
        direct = sum(
            np.sqrt(n + 1) * np.conj(s.amps[n]) * s.amps[n + 1]
            for n in range(40)
        )
        assert abs(expectation_lowering(s) - direct) < 1e-15
        assert abs(direct - z) < 1e-10


def test_lowering_annihilates_vacuum():
    assert apply_ladder("a", BosonState.vacuum(8)).norm() == 0.0


def test_coherent_is_approximate_eigenstate():
    s = make_coherent_boson(1.0, 40)
    lam, res = eigenvalue_lsq(s)
    assert abs(lam - 1.0) < 1e-10
    assert res < 1e-8


def test_commutator_on_truncation_interior():
    for n in range(0, 30):
        s = BosonState.number_state(n, 32)
        comm = (
            apply_ladder("a", apply_ladder("adag", s)).amps
            - apply_ladder("adag", apply_ladder("a", s)).amps
        )
        assert np.max(np.abs(comm - s.amps)) < 1e-12


def test_eigenstate_residual_decreases_with_nmax():
    # build the raw truncated expansion directly; the constructor's tail
    # guard would refuse the deliberately small cutoffs
    residuals = []
    for nmax in (6, 10, 14):
        amps = np.array([1.0 / np.sqrt(float(math.factorial(n)))
                         for n in range(nmax + 1)], dtype=np.complex128)
        _, res = eigenvalue_lsq(BosonState(amps))
        residuals.append(res)
    assert residuals[0] > residuals[1] > residuals[2]


# -- the rows form of eigenvalue_lsq against the single-state formula ---------


def lsq_oracle(a: np.ndarray) -> tuple[complex, float]:
    """The single-state formula on one amplitude vector a: lam =
    vdot(a, lower(a)) / sum(|a|^2), residual = norm(lower(a) - lam a) /
    sqrt(sum(|a|^2))."""
    low = np.zeros_like(a)
    low[:-1] = np.sqrt(np.arange(1, a.size)) * a[1:]
    norm_sq = float(np.sum(np.abs(a) ** 2))
    lam = complex(np.vdot(a, low) / norm_sq)
    return lam, float(np.linalg.norm(low - lam * a) / float(np.sqrt(norm_sq)))


def observer_rows(levels: int, batch: int, seed: int, zero_share: float) -> np.ndarray:
    """(batch, levels) amplitudes, each row at its own magnitude between
    1e-150 and 1e150, with about zero_share of the parts exact zeros."""
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.uniform(-150, 150, (batch, 1, 1))
    parts = rng.standard_normal((batch, levels, 2)) * scale
    parts[rng.random(parts.shape) < zero_share] = 0.0
    return parts.view(np.complex128)[..., 0]


def observer_mismatches(cases) -> int:
    """Raw bits, NaNs aside, in which eigenvalue_lsq on rows and lsq_oracle
    on each row disagree over cases of observer_rows' arguments."""
    wrong = 0
    with np.errstate(invalid="ignore", divide="ignore"):
        for case in cases:
            rows = observer_rows(*case)
            lam, res = eigenvalue_lsq(rows)
            want_lam, want_res = zip(*map(lsq_oracle, rows))
            wrong += int(np.sum(nan_blind_bits(lam) != nan_blind_bits(want_lam)))
            wrong += int(np.sum(nan_blind_bits(res) != nan_blind_bits(want_res)))
    return wrong


def observer_sweep():
    """Level counts on and off numpy's SIMD widths, every batch size, parts
    zero never, often and always."""
    return [(levels, batch, seed, share) for levels in (2, 3, 8, 17, 64, 65)
            for batch in (1, 3, 7) for seed, share in enumerate((0.0, 0.2, 1.0))]


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(levels=st.integers(2, 65), batch=st.sampled_from((1, 3, 7)),
       seed=st.integers(0, 2**32 - 1), zero_share=st.sampled_from((0.0, 0.2, 0.6, 1.0)))
def test_rows_observer_matches_single_state_formula(levels, batch, seed, zero_share):
    assert observer_mismatches([(levels, batch, seed, zero_share)]) == 0


def test_observer_sweep_matches_single_state_formula():
    assert observer_mismatches(observer_sweep()) == 0


def test_state_observer_is_its_one_row():
    s = make_coherent_boson(0.4 - 0.7j, 32)
    lam, res = eigenvalue_lsq(s)
    assert type(lam) is complex and type(res) is float
    assert (lam, res) == lsq_oracle(s.amps)
    assert expectation_lowering(s) == lam


def test_displace_plain_ladder_matches_coherent():
    inv = BosonLadderInvariant(1.0, 0.0)
    out = displace(inv, 0.7 - 0.2j, BosonState.vacuum(64))
    want = make_coherent_boson(0.7 - 0.2j, 64)
    assert np.max(np.abs(out.amps - want.amps)) < 1e-13


def test_displace_zero_is_identity():
    s = make_coherent_boson(0.4, 32)
    out = displace(BosonLadderInvariant(np.exp(0.3j), 0.2 - 0.1j), 0.0, s)
    assert np.array_equal(out.amps, s.amps)


def test_displace_norm_preserving():
    inv = BosonLadderInvariant(np.exp(0.4j), 0.1 + 0.2j)
    s = make_coherent_boson(0.5, 40)
    out = displace(inv, 0.8j, s)
    assert abs(out.norm() - 1.0) < 1e-6


def test_expectation_number():
    assert expectation_number(BosonState.vacuum(8)) == 0.0
    assert expectation_number(BosonState.number_state(1, 8)) == 1.0
    assert abs(expectation_number(make_coherent_boson(1.0, 40)) - 1.0) < 1e-9


def test_displace_series_stall_guard():
    from cohstab.errors import SeriesStalled

    with pytest.raises(SeriesStalled):
        displace(BosonLadderInvariant(1.0, 0.0), 60.0, BosonState.vacuum(64))
