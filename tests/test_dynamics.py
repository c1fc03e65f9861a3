"""Integrators, auxiliary systems, invariants, transport."""

import dataclasses
import importlib.util
import math
import sys
import threading
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from cohstab import dynamics, kernel
from cohstab.boson import MAX_NMAX, BosonState, coherent_tail_mass, make_coherent_boson
from cohstab.coeffs import (
    CoefficientFn,
    complex_pair,
    const_fn,
    cos_fn,
    poly_fn,
    sin_fn,
    zero_fn,
)
from cohstab.coherence import (
    MultivectorPath,
    classify_hamiltonian,
    reconstruct_forcing,
    verify_trajectory,
)
from cohstab.dynamics import (
    MAX_STEPS,
    STEP_TOL,
    DenseHamiltonian,
    HamiltonianSpec,
    IntegrationConfig,
    build_ladder_invariant,
    cumulative_simpson,
    evolve_classical_boson,
    evolve_grassmann_classical,
    evolve_nu_system,
    evolve_operator_transport,
    evolve_schrodinger_boson,
    evolve_schrodinger_fermion,
    hamiltonian_operator,
    invariant_residual,
)
from cohstab.errors import (
    CohstabError,
    GeneratorCollision,
    GridTooCoarse,
    MismatchedGenerators,
    NotHermitian,
    NotOddLinear,
    StepTooLarge,
    TruncationBreach,
    ValidationError,
)
from cohstab.fermion import (
    FermionOperator,
    FermionState,
    adjoint,
    anticommutator,
    apply,
    compose,
    exp_operator,
    inner_product,
    make_coherent,
)
from cohstab.grassmann import GeneratorSet, Multivector
from cohstab.scenario import parse_scenario

# expm oracle value for the forced nu system (omega'=1, f'=0.3, t=1);
# computed with scipy.linalg.expm on the 3x3 generator, see oracle below
NU_PLUS_AT_1 = 0.08025133824380867


def nu_expm_oracle(w: float, f: complex, t: float) -> np.ndarray:
    from scipy.linalg import expm

    gen = np.array(
        [
            [1j * w, 0, -1j * np.conj(f)],
            [0, -1j * w, 1j * f],
            [-2j * f, 2j * np.conj(f), 0],
        ]
    )
    return expm(gen * t) @ np.array([1.0, 0.0, 0.0])


# -- grids / quadrature -----------------------------------------------------


def test_config_validation():
    with pytest.raises(ValidationError):
        IntegrationConfig(t_end=-1.0)
    with pytest.raises(ValidationError):
        IntegrationConfig(t_end=1.0, dt=0.0)
    with pytest.raises(ValidationError):
        IntegrationConfig(t_end=1.0, stride=0)
    with pytest.raises(ValidationError, match="integer"):
        IntegrationConfig(0.01, 1e-3, stride=2.5)
    assert IntegrationConfig(0.01, 1e-3, stride=np.int64(2)).n_records == 6
    # the last two exceed MAX_STEPS; for (1e300, 1e-300) t_end / dt overflows to inf
    for t_end, dt in ((np.inf, 1e-3), (np.nan, 1e-3), (1.0, np.inf), (1.0, np.nan),
                      (1.0, 1e-300), (1.0, 0.5 / MAX_STEPS), (1e300, 1e-300),
                      (1.0, 1.5)):
        with pytest.raises(ValidationError):
            IntegrationConfig(t_end=t_end, dt=dt)
    assert IntegrationConfig(t_end=1.0, dt=1.0).n_steps == 1


def test_step_budget_admits_large_grids():
    assert IntegrationConfig(t_end=1.0, dt=2.0 / MAX_STEPS).n_steps == MAX_STEPS // 2


def test_grid_hits_endpoint_exactly():
    cfg = IntegrationConfig(t_end=np.pi, dt=1e-3)
    times = cfg.times()
    assert times[0] == 0.0
    assert times[-1] == np.pi
    idx = cfg.record_indices()
    assert idx[0] == 0 and idx[-1] == cfg.n_steps


def test_record_indices_follow_stride_without_a_list():
    for t_end, stride in ((10.0, 3), (9.0, 3), (1.0, 5), (100.0, 10), (7.0, 1), (5.0, 5),
                          (5.0, 10**30)):
        cfg = IntegrationConfig(t_end, 1.0, stride)
        idx = list(range(0, cfg.n_steps + 1, stride))
        idx += [cfg.n_steps] if idx[-1] != cfg.n_steps else []
        got = cfg.record_indices()
        assert got.dtype == np.int64 and got.tolist() == idx and cfg.n_records == len(idx)
    assert IntegrationConfig(1.0, 1.0 / MAX_STEPS, 1).n_records == MAX_STEPS + 1


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(t_end=st.one_of(st.floats(5e-324, 2.2250738585072014e-308), st.floats(5e-324, 1e300)),
       steps=st.integers(1, 300), data=st.data())
def test_grid_times_are_linspace_bits(t_end, steps, data):
    # at every index, a slice (its stop past the end or not) or an index
    # array holding the last point, on subnormal grids and steps too, and
    # on the one-step grid of the same t_end
    for cfg in (IntegrationConfig(t_end, max(t_end / steps, 5e-324)),
                IntegrationConfig(t_end, t_end)):
        n = cfg.n_steps
        grid = np.linspace(0.0, t_end, n + 1)
        start = data.draw(st.integers(0, n))
        rows = (slice(None), slice(start, data.draw(st.integers(start, n + 5)),
                                   data.draw(st.integers(1, 4))),
                np.unique(data.draw(st.lists(st.integers(0, n), max_size=8)) + [n]))
        for at in rows:
            assert np.array_equal(bits(cfg.times(at)), bits(grid[at]))
        # the Simpson and difference step of the closed forms and residual
        assert bits(np.array(cfg.t_end / n)) == bits(grid[1] - grid[0])


def test_evolution_refuses_records_over_the_bound_before_allocating():
    # every grid point of four 256-coefficient slots: 10**4 + 1 points x 1024 values
    gens = GeneratorSet.from_pairs(("zeta", "eta", "chi", "xi"))
    cfg = IntegrationConfig(10.0, 1e-3)
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="record bound"):
            evolve_operator_transport(HamiltonianSpec("fermion", const_fn(1.0)),
                                      FermionOperator.annihilator(gens), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20  # the records alone would take 168 MB


def test_long_evolution_holds_its_records_and_no_grid():
    # 10**5 grid steps at stride 100: the trajectory holds its 1,001
    # records and less than a table besides, no array of the grid's 0.8 MB
    sc = parse_scenario(ROOT / "scenarios" / "free_fermion.ini")
    spec, s0 = sc.hamiltonian_spec(), make_coherent(sc.initial_zeta())
    evolve_schrodinger_fermion(spec, s0, IntegrationConfig(1.0, 1e-3, 100))  # first-use setup
    tracemalloc.start()
    try:
        traj = evolve_schrodinger_fermion(spec, s0, IntegrationConfig(100.0, 1e-3, 100))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    records = sum(a.nbytes for a in (traj.amplitudes, traj.lams, traj.residuals, traj.norm_dev))
    assert len(traj.amplitudes) == 1001 and held < records + kernel.TABLE_BYTES


@pytest.mark.parametrize("n", [201, 200, 3, 4])  # odd and even point counts
def test_cumulative_simpson_against_scipy(n):
    from scipy.integrate import cumulative_simpson as scipy_cs

    t = np.linspace(0.0, 2.0, n)
    y = np.cos(3 * t) + 0.2 * t**2
    mine = cumulative_simpson(y, t[1] - t[0])
    ref = scipy_cs(y, dx=t[1] - t[0], initial=0.0)
    assert np.max(np.abs(mine - ref)) < 1e-12
    if n > 100:  # the 3- and 4-point grids are too coarse to meet the integral
        exact = np.sin(3 * t) / 3 + 0.2 * t**3 / 3
        assert np.max(np.abs(mine - exact)) < 1e-8


def test_cumulative_simpson_on_one_and_two_points():
    assert cumulative_simpson(np.array([]), 0.1).shape == (0,)
    assert np.array_equal(cumulative_simpson(np.array([2.0]), 0.1), [0.0])
    assert np.array_equal(cumulative_simpson(np.array([1.0, 3.0]), 0.5), [0.0, 1.0])


def test_cumulative_simpson_fourth_order():
    errs = []
    for n in (100, 200):
        t = np.linspace(0.0, 1.0, n + 1)
        approx = cumulative_simpson(np.exp(t), t[1] - t[0])
        errs.append(np.max(np.abs(approx - (np.exp(t) - 1.0))))
    assert 12.0 < errs[0] / errs[1] < 20.0


# -- classical boson ---------------------------------------------------------


def test_free_oscillation_phase():
    spec = HamiltonianSpec("boson", const_fn(1.0))
    path = evolve_classical_boson(spec, 1.0, IntegrationConfig(np.pi, 1e-3))
    assert np.max(np.abs(path.z - np.exp(-1j * path.times))) < 1e-10
    assert path.max_disagreement < 1e-10


def test_static_case_is_constant():
    spec = HamiltonianSpec("boson", zero_fn())
    path = evolve_classical_boson(spec, 0.3 + 0.4j, IntegrationConfig(1.0, 1e-3))
    assert np.max(np.abs(path.z - (0.3 + 0.4j))) < 1e-13


def test_forced_endpoint_analytic():
    # z(pi) = e^{-i pi} (0.5 - i int_0^pi e^{i t} 0.2 dt) = -0.9 exactly
    spec = HamiltonianSpec("boson", const_fn(1.0), const_fn(0.2))
    path = evolve_classical_boson(spec, 0.5, IntegrationConfig(np.pi, 1e-3))
    assert abs(path.z[-1] - (-0.9)) < 1e-8
    assert abs(path.z_closed[-1] - (-0.9)) < 1e-8


def test_step_too_large_detected(gens2):
    spec = HamiltonianSpec("boson", const_fn(1.0))
    with pytest.raises(StepTooLarge):
        evolve_classical_boson(spec, 1.0, IntegrationConfig(2.0, 0.5))
    # every evolution's gate sees the dt/2 rows of its lock-step batches
    fermion = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.3))
    grassmann = HamiltonianSpec("grassmann", const_fn(1.0), const_fn(0.4),
                                const_fn(0.1), gens=gens2, eta_generator="eta")
    zeta = gens2.gen("zeta")
    for evolve in (
        lambda cfg: evolve_schrodinger_fermion(grassmann, make_coherent(zeta), cfg),
        lambda cfg: evolve_grassmann_classical(grassmann, zeta, cfg),
        lambda cfg: evolve_nu_system(fermion, cfg),
        lambda cfg: evolve_schrodinger_boson(spec, make_coherent_boson(0.5, 8), cfg),
    ):
        with pytest.raises(StepTooLarge):
            evolve(IntegrationConfig(2.0, 0.25))


def test_rk4_error_ratio_on_exact_case():
    spec = HamiltonianSpec("boson", const_fn(1.0))
    errs = []
    for dt in (0.02, 0.01):
        path = evolve_classical_boson(spec, 1.0, IntegrationConfig(1.0, dt))
        errs.append(abs(path.z[-1] - np.exp(-1j)))
    assert 12.0 < errs[0] / errs[1] < 20.0


# -- nu system ----------------------------------------------------------------


def test_nu_free_case_phase():
    spec = HamiltonianSpec("fermion", const_fn(1.0))
    nu = evolve_nu_system(spec, IntegrationConfig(1.0, 1e-3))
    assert abs(nu.nu[-1, 0] - np.exp(1j)) < 1e-10
    assert np.max(np.abs(nu.nu[:, 1])) < 1e-14
    assert np.max(np.abs(nu.nu[:, 2])) < 1e-14


def test_nu_initial_conditions():
    spec = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.3))
    nu = evolve_nu_system(spec, IntegrationConfig(1.0, 1e-3))
    assert nu.nu[0, 0] == 1.0 and nu.nu[0, 1] == 0.0 and nu.nu[0, 2] == 0.0


def test_nu_forced_against_expm_oracle():
    spec = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.3))
    nu = evolve_nu_system(spec, IntegrationConfig(1.0, 1e-3))
    oracle = nu_expm_oracle(1.0, 0.3, 1.0)
    assert np.max(np.abs(nu.nu[-1] - oracle)) < 1e-8
    assert abs(abs(nu.nu[-1, 1]) - NU_PLUS_AT_1) < 1e-9
    assert abs(nu.nu[-1, 1]) > 0.01
    assert np.max(np.abs(nu.conservation() - 1.0)) < 1e-10


def test_nu_built_operator_is_a_ladder(gens1):
    spec = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.3))
    nu = evolve_nu_system(spec, IntegrationConfig(1.0, 1e-3))
    ident = FermionOperator.identity(gens1)
    for i in (0, 500, 1000):
        B = nu.operator_at(i, gens1)
        assert (anticommutator(B, adjoint(B)) - ident).sup_norm() < 1e-9
        assert compose(B, B).sup_norm() < 1e-9


# -- ladder invariants ----------------------------------------------------------


def test_boson_invariant_free_case():
    spec = HamiltonianSpec("boson", const_fn(1.0))
    inv = build_ladder_invariant(spec, IntegrationConfig(1.0, 1e-3))
    assert np.max(np.abs(inv.beta - np.exp(1j * inv.times))) < 1e-12
    assert np.max(np.abs(inv.gamma)) == 0.0


def test_fermion_invariant_free_case(gens1):
    spec = HamiltonianSpec("fermion", const_fn(1.0))
    inv = build_ladder_invariant(spec, IntegrationConfig(1.0, 1e-3))
    b = FermionOperator.annihilator(gens1)
    B = inv.operator_at(-1, gens1)
    assert (B - complex(np.exp(1j)) * b).sup_norm() < 1e-10


# -- fermion Schrödinger ----------------------------------------------------------


def test_zero_hamiltonian_keeps_state(gens1):
    spec = HamiltonianSpec("fermion", zero_fn())
    s0 = make_coherent(gens1.gen("zeta"))
    traj = evolve_schrodinger_fermion(spec, s0, IntegrationConfig(1.0, 1e-3))
    assert traj.states[-1].isclose(s0, 1e-13)


def test_free_fermion_eigenvalue_law(gens1):
    spec = HamiltonianSpec(
        "fermion", const_fn(1.0) + sin_fn(0.5, 1.0), zero_fn(), const_fn(0.0)
    )
    zeta = gens1.gen("zeta")
    traj = evolve_schrodinger_fermion(spec, make_coherent(zeta),
                                      IntegrationConfig(2.0, 1e-3))
    assert traj.max_residual < 1e-9
    t = traj.times
    phase = t + 0.5 * (1.0 - np.cos(t))
    for k in range(len(t)):
        want = complex(np.exp(-1j * phase[k])) * zeta
        assert (traj.eigenvalues[k] - want).sup_norm() < 1e-9


def test_forced_fermion_residual_grows(gens1):
    spec = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.3))
    traj = evolve_schrodinger_fermion(spec, make_coherent(gens1.gen("zeta")),
                                      IntegrationConfig(1.0, 1e-3))
    assert traj.max_residual > 1e-3


def test_unitarity_of_hermitian_evolution(gens1):
    spec = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.3), const_fn(0.1))
    traj = evolve_schrodinger_fermion(spec, make_coherent(gens1.gen("zeta")),
                                      IntegrationConfig(2.0, 1e-3))
    assert traj.max_norm_dev < 1e-9


def test_full_inner_product_conserved_for_even_hamiltonian(gens2):
    # with Grassmann-odd forcing H is parity even, so the whole multivector
    # <psi|psi> is a constant of motion, soul included
    forcing = complex_pair(cos_fn(0.4, 1.0), sin_fn(-0.4, 1.0))
    spec = HamiltonianSpec("grassmann", const_fn(1.0), forcing, const_fn(0.1),
                           gens=gens2, eta_generator="eta")
    s0 = make_coherent(gens2.gen("zeta"))
    traj = evolve_schrodinger_fermion(spec, s0, IntegrationConfig(2.0, 1e-3))
    ip0 = inner_product(s0, s0)
    for state in traj.states[:: max(1, len(traj.states) // 8)]:
        assert (inner_product(state, state) - ip0).sup_norm() < 1e-9


def test_not_hermitian_spec_rejected(gens1):
    spec = HamiltonianSpec("fermion", const_fn(1.0).scale(1j))
    with pytest.raises(NotHermitian):
        evolve_schrodinger_fermion(spec, make_coherent(gens1.gen("zeta")),
                                   IntegrationConfig(1.0, 1e-3))
    # classify reads every kind's forcing from slot_rows, so it refuses too
    with pytest.raises(NotHermitian, match="omega must be real-valued"):
        classify_hamiltonian(HamiltonianSpec("boson", const_fn(1 + 0.5j)),
                             IntegrationConfig(1.0, 1e-3))


def test_nan_imaginary_part_is_not_hermitian():
    times = IntegrationConfig(1.0, 1e-2).times()
    with pytest.raises(NotHermitian, match="omega"):
        HamiltonianSpec("boson", const_fn(complex(1, np.nan))).slot_rows(times)
    with pytest.raises(NotHermitian, match="scalar"):
        HamiltonianSpec("boson", const_fn(1.0), scalar=const_fn(complex(0, np.nan))) \
            .slot_rows(times)


def dense_of(builder, gens, kind="fermion") -> DenseHamiltonian:
    """An operator builder t -> FermionOperator as a DenseHamiltonian, by the
    README's migration: its table, built one time at a time."""
    return DenseHamiltonian(kind, gens, lambda ts: np.array(
        [[c.coeffs for c in builder(t).coefficients()] for t in ts]))


def test_not_hermitian_builder_rejected(gens1):
    b = FermionOperator.annihilator(gens1)

    def builder(t):
        return 1.0 * b  # not self-adjoint

    with pytest.raises(NotHermitian):
        evolve_schrodinger_fermion(dense_of(builder, gens1),
                                   make_coherent(gens1.gen("zeta")),
                                   IntegrationConfig(0.1, 1e-2))


def test_nan_builder_rejected(gens1):
    # NaN on b†b, after three finite coefficients
    z = gens1.zero()
    nan_op = FermionOperator(gens1, z, z, z, gens1.scalar(complex(np.nan, 0.0)))
    with pytest.raises(NotHermitian):
        evolve_schrodinger_fermion(dense_of(lambda t: nan_op, gens1),
                                   make_coherent(gens1.gen("zeta")),
                                   IntegrationConfig(0.1, 1e-2))


@pytest.mark.parametrize("start", [
    lambda h, cfg: evolve_schrodinger_fermion(h, make_coherent(LOCK_G1.gen("zeta")), cfg),
    lambda h, cfg: evolve_grassmann_classical(h, LOCK_G1.gen("zeta"), cfg),
    lambda h, cfg: evolve_operator_transport(h, FermionOperator.annihilator(LOCK_G1), cfg),
    lambda h, cfg: invariant_residual(evolve_nu_system(LOCK_FERMION, cfg), h, cfg),
    lambda h, cfg: hamiltonian_operator(h, 0.1, LOCK_G1),
], ids=["fermion_schrodinger", "grassmann_law", "operator_transport", "invariant_residual",
        "hamiltonian_operator"])
@pytest.mark.parametrize("h", [
    lambda t: hamiltonian_operator(LOCK_FERMION, t, LOCK_G1),
    (const_fn(1.0), lambda ts: np.zeros((len(ts), 4)), lambda ts: np.zeros((len(ts), 4))),
], ids=["callable_builder", "tuple_triple"])
def test_builder_and_triple_refused_naming_dense_hamiltonian(h, start):
    with pytest.raises(ValidationError, match="DenseHamiltonian"):
        start(h, IntegrationConfig(0.1, 1e-2))


def test_undeclared_names_and_kinds_are_validation_errors(gens2):
    with pytest.raises(ValidationError, match="'chi'"):
        HamiltonianSpec("grassmann", const_fn(1.0), gens=gens2, eta_generator="chi")
    with pytest.raises(ValidationError, match="'boson'"):
        DenseHamiltonian("boson", gens2, lambda ts: np.zeros((len(ts), 4, gens2.dim)))
    with pytest.raises(ValidationError, match="over None"):
        DenseHamiltonian("fermion", None, lambda ts: np.zeros((len(ts), 4, 1)))


def test_phase_factors_computed_when_first_read(gens1):
    spec = HamiltonianSpec("fermion", const_fn(1.0), zero_fn(), const_fn(0.2))
    traj = evolve_schrodinger_fermion(spec, make_coherent(gens1.gen("zeta")),
                                      IntegrationConfig(0.1, 1e-2))
    assert "phase_factors" not in traj.__dict__
    factors = traj.phase_factors
    assert "phase_factors" in traj.__dict__
    assert len(factors) == len(traj.states)
    assert abs(factors[-1].body - np.exp(-0.02j)) < 1e-9


def test_operator_builder_path_matches_spec(gens1):
    spec = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.2), const_fn(0.1))
    cfg = IntegrationConfig(0.5, 1e-3, stride=100)

    def builder(t):
        return hamiltonian_operator(spec, t, gens1)

    s0 = make_coherent(gens1.gen("zeta"))
    t1 = evolve_schrodinger_fermion(spec, s0, cfg)
    t2 = evolve_schrodinger_fermion(dense_of(builder, gens1), s0, cfg)
    assert t1.states[-1].isclose(t2.states[-1], 1e-13)


# -- boson Schrödinger --------------------------------------------------------------


def test_boson_vacuum_stays_vacuum():
    spec = HamiltonianSpec("boson", const_fn(1.0))
    traj = evolve_schrodinger_boson(spec, BosonState.vacuum(16),
                                    IntegrationConfig(1.0, 1e-3))
    assert np.max(np.abs(np.asarray(traj.eigenvalues))) < 1e-12


def test_boson_tracks_classical_eigenvalue():
    spec = HamiltonianSpec("boson", const_fn(1.0), const_fn(0.2))
    cfg = IntegrationConfig(np.pi, 1e-3)
    traj = evolve_schrodinger_boson(spec, make_coherent_boson(0.5, 64), cfg)
    classical = evolve_classical_boson(spec, 0.5, cfg)
    law = classical.z_closed[traj.record_indices]
    assert np.max(np.abs(np.asarray(traj.eigenvalues) - law)) < 1e-6
    assert traj.max_residual < 1e-6
    assert traj.max_norm_dev < 1e-9


def test_number_state_is_not_coherent():
    spec = HamiltonianSpec("boson", const_fn(1.0), const_fn(0.2))
    traj = evolve_schrodinger_boson(spec, BosonState.number_state(1, 32),
                                    IntegrationConfig(1.0, 1e-3))
    assert np.min(traj.residuals) > 0.3


def test_truncation_breach():
    spec = HamiltonianSpec("boson", const_fn(1.0), const_fn(5.0))
    with pytest.raises(TruncationBreach):
        evolve_schrodinger_boson(spec, make_coherent_boson(0.5, 16),
                                 IntegrationConfig(10.0, 1e-3))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_boson_amplitude_fails_closed():
    # the tail guard refuses NaN instead of recording an all-NaN trajectory
    amps = make_coherent_boson(0.5, 16).amps.copy()
    amps[3] = np.nan
    with pytest.raises(TruncationBreach):
        evolve_schrodinger_boson(HamiltonianSpec("boson", const_fn(1.0)), BosonState(amps),
                                 IntegrationConfig(0.01, 1e-3))


# -- grassmann classical -------------------------------------------------------------


def test_grassmann_free_reduces_to_phase_law(gens2):
    spec = HamiltonianSpec("grassmann", const_fn(1.0), zero_fn(), const_fn(0.3),
                           gens=gens2, eta_generator="eta")
    zeta = gens2.gen("zeta")
    path = evolve_grassmann_classical(spec, zeta, IntegrationConfig(2.0, 1e-3))
    t = path.times
    assert np.max(np.abs(path.zeta[:, 0b0001] - np.exp(-1j * t))) < 1e-10
    # eta = 0: the phase stays a real scalar
    assert np.max(np.abs(path.phi[:, 1:])) < 1e-14
    assert np.max(np.abs(np.imag(path.phi[:, 0]))) < 1e-14


def test_grassmann_pure_forcing_law(gens2):
    # zeta0 = 0, omega = 0, constant h: i zeta' = -eta, so zeta = i h t eta_g
    h = 0.25
    spec = HamiltonianSpec("grassmann", zero_fn(), const_fn(h), zero_fn(),
                           gens=gens2, eta_generator="eta")
    path = evolve_grassmann_classical(spec, gens2.zero(),
                                      IntegrationConfig(1.0, 1e-3))
    eta_bit = 1 << gens2.index("eta")
    want = 1j * h * path.times
    assert np.max(np.abs(path.zeta[:, eta_bit] - want)) < 1e-12


def test_grassmann_phase_structure(gens2):
    # delta = 0: phi has zero body and a self-conjugate soul
    forcing = complex_pair(cos_fn(0.4, 1.0), sin_fn(-0.4, 1.0))
    spec = HamiltonianSpec("grassmann", const_fn(1.0), forcing, zero_fn(),
                           gens=gens2, eta_generator="eta")
    path = evolve_grassmann_classical(spec, gens2.gen("zeta"),
                                      IntegrationConfig(2.0, 1e-3))
    # fine-step oracle for the endpoint
    fine = evolve_grassmann_classical(spec, gens2.gen("zeta"),
                                      IntegrationConfig(2.0, 2e-4))
    assert np.max(np.abs(path.zeta[-1] - fine.zeta[-1])) < 1e-10
    assert np.max(np.abs(path.phi[-1] - fine.phi[-1])) < 1e-10
    phi_end = path.phi_at(len(path.times) - 1)
    assert abs(phi_end.body) < 1e-12
    assert phi_end.is_self_conjugate(1e-12)


def test_generator_collision_rejected(gens2):
    spec = HamiltonianSpec("grassmann", const_fn(1.0), const_fn(0.1), zero_fn(),
                           gens=gens2, eta_generator="eta")
    with pytest.raises(GeneratorCollision):
        evolve_grassmann_classical(spec, gens2.gen("eta"),
                                   IntegrationConfig(1.0, 1e-3))


class _Integrated(Exception):
    pass


@pytest.mark.parametrize("record", [[0, -1], [0, 5, 5], [0, 50], [0, 2.5]],
                         ids=["negative", "repeated", "past_the_end", "not_integer"])
def test_bad_record_indices_refused_before_integrating(gens2, record, monkeypatch):
    def tables(*args):
        raise _Integrated

    monkeypatch.setattr(dynamics, "_coeff_tables", tables)
    spec = HamiltonianSpec("grassmann", const_fn(1.0), const_fn(0.1), zero_fn(),
                           gens=gens2, eta_generator="eta")
    with pytest.raises(ValidationError):
        evolve_grassmann_classical(spec, gens2.gen("zeta"), IntegrationConfig(0.01, 1e-3),
                                   record=record)


def _triple(gens, omega=1.0, eta=None, delta=0.1, omega_soul=0.0):
    """Constant dense grassmann rows (delta, -eta*, eta, omega) over `gens`,
    as the law's old (omega_fn, eta_fn, delta_fn) triple gave them: eta is
    0.3 eta_g unless given as a body, delta and omega bodies, omega with
    omega_soul on eta_g* eta_g."""
    c = np.zeros((4, gens.dim), dtype=complex)
    if eta is None:
        c[2, 1 << gens.index("eta")] = 0.3
    else:
        c[2, 0] = eta
    c[1] = -kernel.conjugate(c[2], gens.n_generators)
    c[0, 0], c[3, 0], c[3, 3 << gens.index("eta")] = delta, omega, omega_soul
    return lambda ts: np.tile(c, (len(ts), 1, 1))


@pytest.mark.parametrize("params, error", [
    (dict(omega=1 + 0.5j), NotHermitian),
    (dict(omega=complex(1.0, np.nan)), NotHermitian),
    (dict(delta=0.1j), NotHermitian),
    (dict(delta=complex(np.nan, 0.0)), NotHermitian),
    (dict(eta=0.3), NotOddLinear),
    (dict(gens=GeneratorSet.from_pairs(("eta",))), MismatchedGenerators),
    (dict(omega_soul=0.2), NotOddLinear),
], ids=["complex_omega", "nan_omega", "delta_not_self_conjugate", "nan_delta",
        "eta_body", "rows_of_a_foreign_set", "number_slot_soul"])
def test_invalid_triple_is_refused(gens2, params, error):
    h = DenseHamiltonian("grassmann", gens2, _triple(**{"gens": gens2, **params}))
    with pytest.raises(error):
        evolve_grassmann_classical(h, gens2.gen("zeta"), IntegrationConfig(0.1, 1e-2))


# -- operator transport and the invariance condition -----------------------------------


def test_transported_annihilator_matches_nu_system(gens1):
    spec = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.3))
    cfg = IntegrationConfig(1.0, 1e-3)
    series = evolve_operator_transport(spec, FermionOperator.annihilator(gens1), cfg)
    nu = evolve_nu_system(spec, cfg)
    for i in (0, 250, 500, 1000):
        assert (series[i] - nu.operator_at(i, gens1)).sup_norm() < 1e-10


def test_transported_displacement_reproduces_evolution(gens1):
    """The exact forced-fermion representation: U|z> = exp(W(t)) |0;t> with
    W transported from b'z - z* b. The textbook shortcut exp(B' z - z* B)
    with the nu-built invariant fails because z anticommutes with the odd
    part of U; see test_acceptance for the faithful (failing) version."""
    spec = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.3), const_fn(0.1))
    cfg = IntegrationConfig(2.0, 2e-3, stride=250)
    zeta = gens1.gen("zeta")
    b = FermionOperator.annihilator(gens1)
    w0 = compose(adjoint(b), FermionOperator.scaled_identity(zeta)) - compose(
        FermionOperator.scaled_identity(zeta.conjugate()), b
    )
    w_series = evolve_operator_transport(spec, w0, cfg)
    traj_cs = evolve_schrodinger_fermion(spec, make_coherent(zeta), cfg)
    traj_vac = evolve_schrodinger_fermion(spec, FermionState.vacuum(gens1), cfg)
    for k, idx in enumerate(traj_cs.record_indices):
        d = exp_operator(w_series[int(idx)])
        built = apply(d, traj_vac.states[k])
        assert (built - traj_cs.states[k]).sup_norm() < 1e-8


def test_invariance_residual_of_phase_invariant(gens1):
    # B_c = e^{i t} b under H = b+b + g': the residual is pure FD error
    cfg = IntegrationConfig(2.0, 1e-3)
    times = cfg.times()
    g0 = GeneratorSet(())
    ops = [complex(np.exp(1j * t)) * FermionOperator.annihilator(g0) for t in times]
    spec = HamiltonianSpec("fermion", const_fn(1.0), zero_fn(), const_fn(0.2))
    res = invariant_residual(ops, spec, cfg)
    assert np.max(res) < 1e-6


def test_constant_b_is_not_invariant():
    g0 = GeneratorSet(())
    cfg = IntegrationConfig(1.0, 1e-3)
    ops = [FermionOperator.annihilator(g0) for _ in cfg.times()]
    spec = HamiltonianSpec("fermion", const_fn(1.0))
    res = invariant_residual(ops, spec, cfg)
    assert np.max(np.abs(res - 1.0)) < 1e-12


def test_nu_built_invariant_satisfies_condition():
    spec = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.3))
    cfg = IntegrationConfig(2.0, 1e-3)
    nu = evolve_nu_system(spec, cfg)
    res = invariant_residual(nu, spec, cfg)
    assert np.max(res) < 1e-6


def test_invariance_residual_scales_second_order():
    spec = HamiltonianSpec("fermion", const_fn(1.0))
    g0 = GeneratorSet(())
    maxima = []
    for dt in (4e-3, 2e-3):
        cfg = IntegrationConfig(2.0, dt)
        ops = [complex(np.exp(1j * t)) * FermionOperator.annihilator(g0)
               for t in cfg.times()]
        maxima.append(np.max(invariant_residual(ops, spec, cfg)))
    assert 3.0 < maxima[0] / maxima[1] < 5.0


def test_invariant_residual_refuses_a_grid_under_3_points():
    cfg = IntegrationConfig(0.1, 0.1)
    ops = [FermionOperator.annihilator(GeneratorSet(())) for _ in cfg.times()]
    with pytest.raises(ValidationError, match="3 points"):
        invariant_residual(ops, HamiltonianSpec("fermion", const_fn(1.0)), cfg)


def test_invariant_residual_refuses_an_empty_series():
    spec = HamiltonianSpec("fermion", const_fn(1.0))
    for gens in (None, GeneratorSet(())):
        with pytest.raises(ValidationError, match="lengths differ"):
            invariant_residual([], spec, IntegrationConfig(0.1, 1e-2), gens)


def test_invariant_residual_compares_lengths_before_allocating():
    # a 2,001-point nu path against an 11-point grid at 256 coefficients:
    # its (n, 4, dim) rows would take 33 MB
    cfg = IntegrationConfig(0.1, 1e-2)
    nu = dynamics.FermionInvariantPath(np.zeros(2001), np.zeros((2001, 3), dtype=complex))
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="lengths differ"):
            invariant_residual(nu, LOCK_FERMION, cfg, gens=WIDE_GENS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_invariant_residual_refuses_records_over_the_bound(monkeypatch):
    cfg = IntegrationConfig(0.1, 1e-2)
    nu = dynamics.FermionInvariantPath(cfg.times(), np.zeros((11, 3), dtype=complex))
    monkeypatch.setattr(dynamics, "MAX_STEPS", 11 * 4 * 16 - 2)
    with pytest.raises(ValidationError, match="record bound"):
        invariant_residual(nu, LOCK_FERMION, cfg, gens=LOCK_G2)
    monkeypatch.setattr(dynamics, "MAX_STEPS", 11 * 4 * 16 - 1)
    assert invariant_residual(nu, LOCK_FERMION, cfg, gens=LOCK_G2).shape == (11,)


def test_grid_too_coarse_calibration():
    spec = HamiltonianSpec("fermion", const_fn(1.0))
    g0 = GeneratorSet(())
    cfg = IntegrationConfig(40.0, 10.0)
    ops = [FermionOperator.annihilator(g0) for _ in cfg.times()]
    with pytest.raises(GridTooCoarse):
        invariant_residual(ops, spec, cfg)


@pytest.mark.parametrize("dt", [1e-5, 1e-6])
def test_a_fine_grid_passes_the_calibration(dt):
    # the calibration's error here is at the roundoff floor, where halving dt
    # shows only rounding, not the O(dt^2) ratio; the residual is still small
    cfg = IntegrationConfig(1e-3, dt)
    g0 = GeneratorSet(())
    ops = [complex(np.exp(1j * t)) * FermionOperator.annihilator(g0) for t in cfg.times()]
    spec = HamiltonianSpec("fermion", const_fn(1.0), zero_fn(), const_fn(0.2))
    assert np.max(invariant_residual(ops, spec, cfg)) < 1e-9


# -- the lock-step driver against sequential runs ---------------------------------

LOCK_FORCING = complex_pair(cos_fn(0.4, 1.0), sin_fn(-0.4, 1.3))
LOCK_G1 = GeneratorSet.from_pairs(("zeta",))
LOCK_G2 = GeneratorSet.from_pairs(("zeta", "eta"))
LOCK_FERMION = HamiltonianSpec("fermion", const_fn(1.0) + sin_fn(0.5, 1.0),
                               LOCK_FORCING, const_fn(0.1))
LOCK_GRASSMANN = HamiltonianSpec("grassmann", const_fn(1.0) + cos_fn(0.2, 2.0),
                                 LOCK_FORCING, const_fn(0.1),
                                 gens=LOCK_G2, eta_generator="eta")
LOCK_BOSON = HamiltonianSpec("boson", const_fn(1.0) + sin_fn(0.3, 1.0),
                             LOCK_FORCING, const_fn(0.2))

LOCK_DENSE = dense_of(lambda t: hamiltonian_operator(LOCK_GRASSMANN, t, LOCK_G2), LOCK_G2,
                      "grassmann")

# keyed by the label each evolution passes to the driver, "dense " in front
# for LOCK_GRASSMANN given as a DenseHamiltonian
EVOLUTIONS = {
    "classical boson":
        lambda cfg: evolve_classical_boson(LOCK_BOSON, 0.5 + 0.2j, cfg),
    "nu system": lambda cfg: evolve_nu_system(LOCK_FERMION, cfg),
    "fermion Schrödinger": lambda cfg: evolve_schrodinger_fermion(
        LOCK_GRASSMANN, make_coherent(LOCK_G2.gen("zeta")), cfg),
    "boson Schrödinger": lambda cfg: evolve_schrodinger_boson(
        LOCK_BOSON, make_coherent_boson(0.5, 16), cfg),
    "grassmann classical": lambda cfg: evolve_grassmann_classical(
        LOCK_GRASSMANN, LOCK_G2.gen("zeta"), cfg),
    "operator transport": lambda cfg: evolve_operator_transport(
        LOCK_FERMION, FermionOperator.annihilator(LOCK_G1), cfg),
    "dense fermion Schrödinger": lambda cfg: evolve_schrodinger_fermion(
        LOCK_DENSE, make_coherent(LOCK_G2.gen("zeta")), cfg),
    "dense grassmann classical": lambda cfg: evolve_grassmann_classical(
        LOCK_DENSE, LOCK_G2.gen("zeta"), cfg),
}
EVOLUTION_IDS = [name.replace(" ", "_").replace("ö", "o") for name in EVOLUTIONS]

# every entry point that takes a HamiltonianSpec, each given one of a kind it
# does not take
WRONG_KIND = {
    "classical_boson": lambda cfg: evolve_classical_boson(LOCK_FERMION, 0.5, cfg),
    "ladder_invariant": lambda cfg: build_ladder_invariant(LOCK_GRASSMANN, cfg),
    "nu_system": lambda cfg: evolve_nu_system(LOCK_BOSON, cfg),
    "fermion_schrodinger": lambda cfg: evolve_schrodinger_fermion(
        LOCK_BOSON, make_coherent(LOCK_G1.gen("zeta")), cfg),
    "boson_schrodinger": lambda cfg: evolve_schrodinger_boson(
        LOCK_FERMION, make_coherent_boson(0.5, 16), cfg),
    "grassmann_law": lambda cfg: evolve_grassmann_classical(
        LOCK_FERMION, LOCK_G2.gen("zeta"), cfg),
    "hamiltonian_operator": lambda cfg: hamiltonian_operator(LOCK_BOSON, 0.1, LOCK_G1),
    "operator_transport": lambda cfg: evolve_operator_transport(
        LOCK_BOSON, FermionOperator.annihilator(LOCK_G1), cfg),
    "invariant_residual": lambda cfg: invariant_residual(
        evolve_nu_system(LOCK_FERMION, cfg), LOCK_BOSON, cfg),
}


@pytest.mark.parametrize("start", WRONG_KIND.values(), ids=list(WRONG_KIND))
def test_spec_of_a_wrong_kind_is_refused(start):
    with pytest.raises(ValidationError, match="spec is needed"):
        start(IntegrationConfig(0.3, 1e-2))


@pytest.mark.parametrize("start", [
    evolve_nu_system, build_ladder_invariant,
    lambda h, cfg: evolve_classical_boson(h, 0.5, cfg),
    lambda h, cfg: evolve_schrodinger_boson(h, make_coherent_boson(0.5, 16), cfg),
    classify_hamiltonian,
], ids=["nu_system", "ladder_invariant", "classical_boson", "boson_schrodinger", "classify"])
@pytest.mark.parametrize("h", [
    lambda t: hamiltonian_operator(LOCK_FERMION, t, LOCK_G1),
    dense_of(lambda t: hamiltonian_operator(LOCK_FERMION, t, LOCK_G1), LOCK_G1),
], ids=["callable_builder", "dense"])
def test_evolutions_without_generators_need_a_spec(h, start):
    with pytest.raises(ValidationError, match="where a HamiltonianSpec is needed"):
        start(h, IntegrationConfig(0.1, 1e-2))


#: i 1e-3 sin(pi t / 1e-2): zero on every node of a grid of step 1e-2 (below
#: 1e-17 there), but 1e-3 i at the midpoints that RK4's stages read.
BETWEEN_NODES = sin_fn(1e-3j, np.pi / 1e-2)

# every evolution that reads its spec at the stage times, with a spec it takes
STAGE_READERS = {
    "fermion_schrodinger": (LOCK_FERMION, lambda h, cfg: evolve_schrodinger_fermion(
        h, make_coherent(LOCK_G1.gen("zeta")), cfg)),
    "boson_schrodinger": (LOCK_BOSON, lambda h, cfg: evolve_schrodinger_boson(
        h, make_coherent_boson(0.5, 16), cfg)),
    "grassmann_law": (LOCK_GRASSMANN, lambda h, cfg: evolve_grassmann_classical(
        h, LOCK_G2.gen("zeta"), cfg)),
    "nu_system": (LOCK_FERMION, evolve_nu_system),
    "classical_boson": (LOCK_BOSON, lambda h, cfg: evolve_classical_boson(h, 0.5 + 0.2j, cfg)),
    "operator_transport": (LOCK_FERMION, lambda h, cfg: evolve_operator_transport(
        h, FermionOperator.annihilator(LOCK_G1), cfg)),
}


@pytest.mark.parametrize("slot, message", [("omega", "omega"), ("scalar", "the scalar term")],
                         ids=["omega", "scalar"])
@pytest.mark.parametrize("base, start", STAGE_READERS.values(), ids=list(STAGE_READERS))
def test_a_spec_complex_only_between_nodes_is_refused(base, start, slot, message):
    cfg = IntegrationConfig(0.3, 1e-2)
    h = dataclasses.replace(base, **{slot: getattr(base, slot) + BETWEEN_NODES})
    h.slot_rows(cfg.times())  # real on every node
    with pytest.raises(NotHermitian, match=f"^{message} must be real-valued$"):
        start(h, cfg)


def sequential_rk4(rhs, coeffs, y0, grid: np.ndarray, stages=None) -> np.ndarray:
    """Order reference: one run on its own, one RHS row per stage, with the
    scalar time and step arithmetic of the driver before the lock step and
    the coefficients evaluated at each stage's time alone. Each stage's
    (t, coefficient row, y) is appended to `stages` if given."""
    def one(t, y):
        c = coeffs(np.array([t]))
        if stages is not None:
            stages.append((t, c[0], y))
        return rhs(c, y[None])[0]

    y = np.array(y0, dtype=np.complex128)
    states = [y]
    for i in range(grid.size - 1):
        t = grid[i]
        dt = grid[i + 1] - t
        k1 = one(t, y)
        k2 = one(t + 0.5 * dt, y + (0.5 * dt) * k1)
        k3 = one(t + 0.5 * dt, y + (0.5 * dt) * k2)
        k4 = one(grid[i + 1], y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
        states.append(y)
    return np.array(states)


def midpoint_grid(times: np.ndarray) -> np.ndarray:
    """The dt/2 run's grid: the nodes of `times` and, between each pair,
    its midpoint t + 0.5 * (t_next - t)."""
    grid = np.empty(2 * times.size - 1)
    grid[::2] = times
    grid[1::2] = times[:-1] + 0.5 * (times[1:] - times[:-1])
    return grid


def bits(a: np.ndarray) -> np.ndarray:
    """Raw float bits, so that signed zeros and NaN payloads count."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.fixture
def driver_runs(monkeypatch):
    """Each _integrate call's arguments, its RHS calls by row count, the
    times it evaluates the coefficients at, and its records."""
    runs = []
    integrate = dynamics._integrate

    def spy(rhs, coeffs, y0, config, label, record=None, check=None):
        run = SimpleNamespace(rhs=rhs, coeffs=coeffs, y0=y0, config=config,
                              label=label, record=record, calls=Counter(),
                              stages=[], coeff_times=[], records=None)
        runs.append(run)

        def counted(c, y):
            run.calls[len(y)] += 1
            run.stages.append((np.array(c), np.array(y)))
            return rhs(c, y)

        def tabulated(ts):
            run.coeff_times.append(np.array(ts))
            return coeffs(ts)

        run.records, gaps = integrate(counted, tabulated, y0, config, label, record, check)
        return run.records, gaps

    monkeypatch.setattr(dynamics, "_integrate", spy)
    return runs


def _own_systems(run, cfg, monkeypatch):
    """(label, rhs, coeffs, y0) of each system of a driver run on cfg: the
    run's own, or for a trajectory that carries its Grassmann law, the RHS
    that the trajectory has without one and the law's standalone RHS."""
    if isinstance(run.label, str):
        return [(run.label, run.rhs, run.coeffs, run.y0)]
    assert run.label == ("fermion Schrödinger", "grassmann classical")
    # an initial eigenvalue on the eta generator carries no law
    rhs, coeffs, _ = _rhs_of(lambda cfg: evolve_schrodinger_fermion(
        LOCK_GRASSMANN, make_coherent(LOCK_G2.gen("eta")), cfg), cfg, monkeypatch)
    # the law starts from record 0's eigenvalue
    law_rhs, law_coeffs, law_y0 = _rhs_of(lambda cfg: evolve_grassmann_classical(
        LOCK_GRASSMANN, Multivector(LOCK_G2, run.y0[2]), cfg), cfg, monkeypatch)
    assert np.array_equal(bits(law_y0), bits(run.y0[2:]))
    return [("fermion Schrödinger", rhs, coeffs, run.y0[:2]),
            ("grassmann classical", law_rhs, law_coeffs, law_y0)]


@pytest.mark.parametrize("name", EVOLUTIONS, ids=EVOLUTION_IDS)
def test_lock_step_records_match_sequential_run(name, driver_runs, monkeypatch):
    cfg = IntegrationConfig(0.3, 1e-2, stride=3)
    EVOLUTIONS[name](cfg)
    (run,) = driver_runs
    systems = _own_systems(run, cfg, monkeypatch)
    assert systems[0][0] == name.removeprefix("dense ")
    # 8 RHS calls per grid step: 4 paired stages, then 4 of the second dt/2 substep
    assert run.calls == {2: 4 * cfg.n_steps, 1: 4 * cfg.n_steps}
    stages, half_stages = [], []
    ref = sequential_rk4(run.rhs, run.coeffs, run.y0, cfg.times(), stages)
    sequential_rk4(run.rhs, run.coeffs, run.y0, midpoint_grid(cfg.times()), half_stages)
    if run.record is not None:
        ref = ref[run.record]
    assert np.array_equal(bits(run.records), bits(ref))
    # each system's rows are those of its own RHS run on its own
    at = 0
    for _, rhs, coeffs, y0 in systems:
        own = sequential_rk4(rhs, coeffs, y0, cfg.times())
        if run.record is not None:
            own = own[run.record]
        assert np.array_equal(bits(run.records[:, at:at + len(y0)]), bits(own))
        at += len(y0)
    assert at == len(run.y0)
    # the driver tabulates the coefficients at the stage times of the two
    # sequential runs, bit for bit, and at no other time
    got_times = np.concatenate(run.coeff_times)
    want_times = np.array([t for t, _, _ in stages + half_stages])
    assert set(bits(got_times).tolist()) == set(bits(want_times).tolist())
    # row 0 of the paired calls is the dt run; the last row of every call
    # is the dt/2 run: each sees the coefficients at the stage times and the
    # states of its own run
    dt_rows = [(c[0], y[0]) for c, y in run.stages if len(y) == 2]
    half_rows = [(c[-1], y[-1]) for c, y in run.stages]
    for got, want in ((dt_rows, stages), (half_rows, half_stages)):
        assert len(got) == len(want)
        for (c, y), (_, c_ref, y_ref) in zip(got, want):
            assert np.array_equal(bits(c), bits(c_ref))
            assert np.array_equal(bits(y), bits(y_ref))


@pytest.mark.parametrize("name", EVOLUTIONS, ids=EVOLUTION_IDS)
def test_driver_tabulates_five_stage_times_per_grid_step(name, driver_runs):
    cfg = IntegrationConfig(0.3, 1e-2, stride=3)
    EVOLUTIONS[name](cfg)
    (run,) = driver_runs
    # t, the two substeps' midpoints, the dt step's midpoint and t_next
    assert sum(ts.size for ts in run.coeff_times) == 5 * cfg.n_steps


#: The evolutions that return the times of every grid point.
WHOLE_GRID = ("classical boson", "nu system", "grassmann classical", "dense grassmann classical")


@pytest.mark.parametrize("name", EVOLUTIONS, ids=EVOLUTION_IDS)
def test_each_evolution_builds_one_grid(name, grid_reads):
    # the driver and the closed forms read their times from the config a
    # block at a time; the whole grid is built only as the times an
    # evolution returns, once
    EVOLUTIONS[name](IntegrationConfig(0.6, 1e-3, stride=10))
    assert grid_reads.count(True) == (name in WHOLE_GRID) and grid_reads.count(False) > 1


def test_closed_forms_read_the_slot_rows_a_block_at_a_time(monkeypatch):
    # 7 grid times per block: the 31 go as 7, 7, 7, 7 and 3, and the columns
    # are those of one read of the whole grid, bit for bit
    monkeypatch.setattr(kernel, "TABLE_BYTES", 7 * 64)
    cfg = IntegrationConfig(0.3, 1e-2)
    times = cfg.times()
    sizes, slot_rows = [], HamiltonianSpec.slot_rows
    monkeypatch.setattr(HamiltonianSpec, "slot_rows",
                        lambda spec, ts: (sizes.append(ts.size), slot_rows(spec, ts))[1])
    got = dynamics._slot_columns(LOCK_BOSON, cfg, [2, 3])
    assert sizes == [7, 7, 7, 7, 3]
    assert np.array_equal(bits(got), bits(slot_rows(LOCK_BOSON, times)[:, [2, 3]]))


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(t_end=st.floats(1e-300, 1e300), share=st.floats(1 / 40, 1.0))
def test_stage_times_are_those_of_sequential_runs(t_end, share):
    cfg = IntegrationConfig(t_end, t_end * share)  # at most 40 grid steps
    times = cfg.times()
    lattice, dts = dynamics._stage_times(times)
    assert lattice.shape == (cfg.n_steps, 5) and dts.shape == (cfg.n_steps, 3)
    assert np.all(np.diff(lattice, axis=1) >= 0.0)
    grids = (times, midpoint_grid(times))  # the dt run's, the dt/2 run's
    steps = np.concatenate([np.diff(grid).reshape(cfg.n_steps, -1) for grid in grids], axis=1)
    assert np.array_equal(bits(dts), bits(steps))
    runs = []
    for grid in grids:
        stages = []
        sequential_rk4(lambda c, y: y, lambda ts: ts[:, None], np.zeros(1), grid, stages)
        # per step its start, midpoint (k2 and k3 share it) and end
        runs.append(np.array([t for t, _, _ in stages]).reshape(-1, 4)[:, [0, 1, 3]])
    full, half = runs
    assert np.array_equal(bits(lattice[:, [0, 2, 4]]), bits(full))
    assert np.array_equal(bits(lattice[:, [0, 1, 2]]), bits(half[0::2]))
    assert np.array_equal(bits(lattice[:, [2, 3, 4]]), bits(half[1::2]))


def _sequential_gap(rhs, coeffs, y0, cfg) -> float:
    end = sequential_rk4(rhs, coeffs, y0, cfg.times())[-1]
    half_end = sequential_rk4(rhs, coeffs, y0, midpoint_grid(cfg.times()))[-1]
    return float(np.max(np.abs(half_end - end)))


@pytest.mark.parametrize("name", EVOLUTIONS, ids=EVOLUTION_IDS)
def test_lock_step_gate_reports_sequential_gap(name, driver_runs, monkeypatch):
    cfg = IntegrationConfig(1.0, 0.1)
    with pytest.raises(StepTooLarge) as caught:
        EVOLUTIONS[name](cfg)
    (run,) = driver_runs
    systems = _own_systems(run, cfg, monkeypatch)
    gaps = [_sequential_gap(*system[1:], cfg) for system in systems]
    # the first system's gate refuses the evolution, whatever the others'
    assert str(caught.value) == \
        f"{systems[0][0]}: halving dt changes endpoint by {gaps[0]:.3e} (> {STEP_TOL})"
    if len(systems) == 1:
        return
    # a carried law keeps its own gap, and verify_trajectory gates it
    assert gaps[1] > STEP_TOL
    monkeypatch.setattr(dynamics, "STEP_TOL", gaps[0])
    traj = EVOLUTIONS[name](cfg)
    assert traj.law.gap == gaps[1]
    monkeypatch.setattr(dynamics, "STEP_TOL", gaps[1] / 2)
    with pytest.raises(StepTooLarge) as caught:
        verify_trajectory(traj)
    assert str(caught.value) == ("grassmann classical: halving dt changes endpoint by "
                                 f"{gaps[1]:.3e} (> {gaps[1] / 2})")


@pytest.mark.parametrize("name", EVOLUTIONS, ids=EVOLUTION_IDS)
def test_lock_step_gate_fails_closed_on_half_run_nan(name, monkeypatch):
    integrate = dynamics._integrate

    def poisoned(rhs, coeffs, y0, config, label, record=None, check=None, **kw):
        def half_run_nan(c, y):
            k = rhs(c, y)
            k[-1] = np.nan  # the last row of every call is the dt/2 run's
            return k

        return integrate(half_run_nan, coeffs, y0, config, label, record, check, **kw)

    monkeypatch.setattr(dynamics, "_integrate", poisoned)
    with pytest.raises(StepTooLarge, match="by nan"):
        EVOLUTIONS[name](IntegrationConfig(0.3, 1e-2, stride=3))


# With inf in a state the full graded product makes NaN (0 * inf) where the
# products that skip a spec's structural zeros may make inf; either way the
# evolution must fail the dt/2 gate closed.
WIDE_GENS = GeneratorSet.from_pairs(("zeta", "chi", "xi", "eta"))
WIDE_GRASSMANN = HamiltonianSpec("grassmann", const_fn(1.0), LOCK_FORCING, const_fn(0.1),
                                 gens=WIDE_GENS, eta_generator="eta")


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, -np.inf, complex(0.0, np.inf), np.nan])
@pytest.mark.parametrize("spec", [LOCK_FERMION, WIDE_GRASSMANN], ids=["fermion", "grassmann"])
@pytest.mark.parametrize("mask", [0, 3, 255])
def test_non_finite_initial_amplitude_fails_closed(spec, mask, value):
    s0 = make_coherent(WIDE_GENS.gen("zeta"))
    psi1 = s0.psi1.coeffs.copy()
    psi1[mask] = value
    s0 = FermionState(WIDE_GENS, s0.psi0, Multivector(WIDE_GENS, psi1))
    with pytest.raises(StepTooLarge):
        evolve_schrodinger_fermion(spec, s0, IntegrationConfig(0.05, 1e-2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, -np.inf, complex(0.0, np.inf), np.nan])
@pytest.mark.parametrize("mask", [0, 3, 255])
def test_non_finite_vacuum_amplitude_fails_closed(mask, value):
    # the trajectory's gate refuses it, before any law it might carry
    s0 = make_coherent(WIDE_GENS.gen("zeta"))
    psi0 = s0.psi0.coeffs.copy()
    psi0[mask] = value
    s0 = FermionState(WIDE_GENS, Multivector(WIDE_GENS, psi0), s0.psi1)
    with pytest.raises(StepTooLarge, match="^fermion Schrödinger: "):
        evolve_schrodinger_fermion(WIDE_GRASSMANN, s0, IntegrationConfig(0.05, 1e-2))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("value", [np.inf, complex(0.0, -np.inf), np.nan])
@pytest.mark.parametrize("label", ["zeta", "zeta*", "xi"])
def test_non_finite_law_eigenvalue_fails_closed(label, value):
    zeta0 = WIDE_GENS.gen("chi").coeffs.copy()
    zeta0[WIDE_GENS.gen(label).coeffs != 0] = value
    with pytest.raises(StepTooLarge):
        evolve_grassmann_classical(WIDE_GRASSMANN, Multivector(WIDE_GENS, zeta0),
                                   IntegrationConfig(0.05, 1e-2))


# -- coefficient tables on the lock-step lattice --------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _load_workload_inputs():
    """perfbench/inputs.py, which writes the benchmark's seeded scenarios."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def _table_cases():
    """(name, spec, config): the shipped scenarios, the benchmark's seeded
    boson_forced and grassmann_wide at seeds 0-2, the LOCK_* specs, and a
    forcing given by its imaginary part alone (a constant with real part
    -0.0)."""
    inputs = _load_workload_inputs()
    cases = []
    for name in ("free_fermion", "forced_fermion", "grassmann_forced"):
        sc = parse_scenario(ROOT / "scenarios" / f"{name}.ini")
        cases.append((name, sc.hamiltonian_spec(), sc.config))
    for workload, text in (("boson_forced", inputs.boson_forced_text),
                           ("grassmann_wide", inputs.grassmann_wide_text)):
        for seed in range(3):
            sc = parse_scenario(text(seed, inputs.T_END[workload]["full"]))
            cases.append((f"{workload}_{seed}", sc.hamiltonian_spec(), sc.config))
    lock = IntegrationConfig(0.3, 1e-2)
    cases += [("lock_fermion", LOCK_FERMION, lock),
              ("lock_grassmann", LOCK_GRASSMANN, lock),
              ("lock_boson", LOCK_BOSON, lock)]
    f_im = complex_pair(zero_fn(), const_fn(-0.3))
    cases += [("f_im_fermion", HamiltonianSpec("fermion", const_fn(1.0), f_im), lock),
              ("f_im_boson", HamiltonianSpec("boson", const_fn(1.0), f_im), lock)]
    return cases


TABLE_CASES = _table_cases()


class _Captured(Exception):
    pass


def _evolutions_of(spec: HamiltonianSpec):
    """label -> a call that starts that evolution of `spec`."""
    if spec.kind == "boson":
        return {
            "classical boson": lambda cfg: evolve_classical_boson(spec, 0.5, cfg),
            "boson Schrödinger": lambda cfg: evolve_schrodinger_boson(
                spec, make_coherent_boson(0.5, 16), cfg),
        }
    gens = spec.gens or GeneratorSet.from_pairs(("zeta",))
    zeta = next(gens.gen(label) for label in gens.names[::2]
                if label != spec.eta_generator)
    out = {
        "fermion Schrödinger": lambda cfg: evolve_schrodinger_fermion(
            spec, make_coherent(zeta), cfg),
        "operator transport": lambda cfg: evolve_operator_transport(
            spec, FermionOperator.annihilator(gens), cfg),
    }
    if spec.kind == "fermion":
        out["nu system"] = lambda cfg: evolve_nu_system(spec, cfg)
    else:
        out["grassmann classical"] = lambda cfg: evolve_grassmann_classical(
            spec, zeta, cfg)
    return out


def _coeffs_of(start, cfg):
    """The coefficient function an evolution hands the driver (not run)."""
    integrate, got = dynamics._integrate, []

    def capture(rhs, coeffs, *args, **kw):
        got.append(coeffs)
        raise _Captured

    dynamics._integrate = capture
    try:
        start(cfg)
    except _Captured:
        pass
    finally:
        dynamics._integrate = integrate
    return got[0]


def per_time_values(spec: HamiltonianSpec, t: float) -> tuple:
    """(omega, forcing, scalar) of spec, each evaluated at the scalar time t alone."""
    return tuple(complex(fn(t)) for fn in (spec.omega, spec.forcing, spec.scalar))


def per_time_rows(label: str, spec: HamiltonianSpec, gens, values) -> np.ndarray:
    """One evolution's coefficient rows from a time's per_time_values, in the
    layout of the driver's table: the fermion Schrödinger evolution and the
    grassmann law hold one entry per slot, the coefficient of the one
    monomial the slot may be non-zero at."""
    w, f, g = values
    if label in ("classical boson", "nu system", "boson Schrödinger"):
        return np.array([g, np.conj(f), f, w])
    plus = minus = 0
    if spec.kind == "grassmann":
        idx = gens.index(spec.eta_generator)
        plus, minus = 1 << idx, 1 << (idx ^ 1)
    c = np.zeros((4, gens.dim), dtype=np.complex128)
    c[0, 0] = g
    c[1, minus] = -np.conj(f) if spec.kind == "grassmann" else np.conj(f)
    c[2, plus] = f
    c[3, 0] = w
    if label in ("fermion Schrödinger", "grassmann classical"):
        return c[range(4), (0, minus, plus, 0)]
    return c


def table_mismatches(spec, cfg) -> dict:
    """Per evolution of `spec`, the raw bits in which the driver's tables on
    cfg's grid differ from the coefficients evaluated at each stage time
    alone (per_time_values, per_time_rows)."""
    times = cfg.times()
    lattice, _ = dynamics._stage_times(times)
    distinct, where = np.unique(bits(lattice).reshape(-1), return_inverse=True)
    gens = spec.gens or GeneratorSet.from_pairs(("zeta",))
    values = [per_time_values(spec, t) for t in distinct.view(np.float64)]
    wrong = {}
    for label, start in _evolutions_of(spec).items():
        table = np.concatenate([rows for rows, _ in dynamics._coeff_tables(
            _coeffs_of(start, cfg), cfg)])
        ref = np.array([per_time_rows(label, spec, gens, v) for v in values])
        want = ref[where.reshape(-1)].reshape(table.shape)
        wrong[label] = int(np.sum(bits(table) != bits(want)))
    return wrong


@pytest.mark.parametrize("name, spec, cfg", TABLE_CASES,
                         ids=[case[0] for case in TABLE_CASES])
def test_coefficient_tables_match_per_time_evaluation(name, spec, cfg):
    assert table_mismatches(spec, cfg) == dict.fromkeys(_evolutions_of(spec), 0)
    if spec.kind != "boson":
        gens = spec.gens or GeneratorSet.from_pairs(("zeta",))
        lattice, _ = dynamics._stage_times(cfg.times())
        for t in np.unique(lattice)[:50]:
            op = hamiltonian_operator(spec, t, gens)
            got = np.stack([c.coeffs for c in op.coefficients()])
            want = per_time_rows("operator transport", spec, gens, per_time_values(spec, t))
            assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("name", ["grassmann_forced", "grassmann_wide_0"])
def test_trajectory_and_law_tabulate_one_layout(name):
    _, spec, cfg = next(case for case in TABLE_CASES if case[0] == name)
    evolutions = _evolutions_of(spec)
    trajectory, law = (
        np.concatenate([rows for rows, _ in dynamics._coeff_tables(
            _coeffs_of(evolutions[label], cfg), cfg)])
        for label in ("fermion Schrödinger", "grassmann classical"))
    assert np.array_equal(bits(trajectory), bits(law))


def _grassmann_start(name):
    """(spec, s0, config) of the shipped grassmann_forced scenario or of the
    benchmark's grassmann_wide at seed 0."""
    if name == "grassmann_forced":
        sc = parse_scenario(ROOT / "scenarios" / "grassmann_forced.ini")
    else:
        inputs = _load_workload_inputs()
        sc = parse_scenario(inputs.grassmann_wide_text(0, inputs.T_END["grassmann_wide"]["full"]))
    return sc.hamiltonian_spec(), make_coherent(sc.initial_zeta()), sc.config


@pytest.mark.parametrize("name", ["grassmann_forced", "grassmann_wide_0"])
def test_carried_law_matches_its_own_integration(name):
    spec, s0, cfg = _grassmann_start(name)
    traj = evolve_schrodinger_fermion(spec, s0, cfg)
    path = evolve_grassmann_classical(spec, Multivector(s0.gens, traj.lams[0]), cfg,
                                      traj.record_indices)
    for field in ("times", "zeta", "phi", "gap"):
        got, want = (np.asarray(getattr(p, field)) for p in (traj.law, path))
        assert got.shape == want.shape and np.array_equal(bits(got), bits(want)), field


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_in_the_law_rows_leaves_the_trajectory(monkeypatch):
    cfg = IntegrationConfig(0.3, 1e-2, stride=3)
    s0 = make_coherent(LOCK_G2.gen("zeta"))
    clean = evolve_schrodinger_fermion(LOCK_GRASSMANN, s0, cfg)
    integrate = dynamics._integrate

    def poisoned(rhs, *args, **kw):
        def law_nan(c, y):
            k = rhs(c, y)
            k[:, 2:] = np.nan  # the law's rows of every call
            return k

        return integrate(law_nan, *args, **kw)

    monkeypatch.setattr(dynamics, "_integrate", poisoned)
    traj = evolve_schrodinger_fermion(LOCK_GRASSMANN, s0, cfg)
    assert np.isnan(traj.law.zeta[1:]).all() and np.isnan(traj.law.gap)
    for field in ("amplitudes", "lams", "residuals", "norm_dev"):
        assert np.array_equal(bits(getattr(traj, field)), bits(getattr(clean, field))), field
    with pytest.raises(StepTooLarge,
                       match="^grassmann classical: halving dt changes endpoint by nan"):
        verify_trajectory(traj)


def test_carried_law_keeps_the_record_bound(monkeypatch):
    # the bound counts the trajectory's 2 x 16 values per record, as it did
    # before the law rode along
    cfg = IntegrationConfig(0.3, 1e-2, stride=3)
    s0 = make_coherent(LOCK_G2.gen("zeta"))
    values = cfg.n_records * 2 * LOCK_G2.dim
    monkeypatch.setattr(dynamics, "MAX_STEPS", values - 2)
    with pytest.raises(ValidationError, match="record bound"):
        evolve_schrodinger_fermion(LOCK_GRASSMANN, s0, cfg)
    monkeypatch.setattr(dynamics, "MAX_STEPS", values - 1)
    traj = evolve_schrodinger_fermion(LOCK_GRASSMANN, s0, cfg)
    assert traj.law.zeta.shape == (cfg.n_records, LOCK_G2.dim)


def test_law_refuses_a_wrong_kind_before_building_the_grid():
    cfg = IntegrationConfig(1.0, 1e-7)  # 10**7 steps: the times alone take 80 MB
    tracemalloc.start()
    try:
        with pytest.raises(ValidationError, match="spec is needed"):
            evolve_grassmann_classical(LOCK_FERMION, LOCK_G2.gen("zeta"), cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def _chunk_spy(monkeypatch, seen):
    """Route the driver's tables through a spy that appends each chunk's
    table to `seen`."""
    coeff_tables = dynamics._coeff_tables

    def spy(coeffs, config):
        for table, dts in coeff_tables(coeffs, config):
            seen.append(table)
            yield table, dts

    monkeypatch.setattr(dynamics, "_coeff_tables", spy)


@pytest.mark.parametrize("name", EVOLUTIONS, ids=EVOLUTION_IDS)
def test_chunked_tables_match_sequential_run(name, driver_runs, monkeypatch):
    cfg = IntegrationConfig(0.3, 1e-2, stride=3)
    EVOLUTIONS[name](cfg)
    row_bytes = driver_runs[0].coeffs(np.zeros(1)).nbytes
    # 3 grid steps per chunk: the 30 steps go as 1 (the sizing chunk), nine
    # chunks of 3, then the 2 left
    monkeypatch.setattr(dynamics, "TABLE_BYTES", 3 * 5 * row_bytes)
    tables = []
    _chunk_spy(monkeypatch, tables)
    EVOLUTIONS[name](cfg)
    run = driver_runs[1]
    assert [len(table) for table in tables] == [1] + [3] * 9 + [2]
    ref = sequential_rk4(run.rhs, run.coeffs, run.y0, cfg.times())
    if run.record is not None:
        ref = ref[run.record]
    assert np.array_equal(bits(run.records), bits(ref))
    assert np.array_equal(bits(run.records), bits(driver_runs[0].records))


def test_chunk_table_within_budget_at_256_coefficients(monkeypatch):
    gens = GeneratorSet.from_pairs(("zeta", "chi", "xi", "eta"))
    spec = HamiltonianSpec("grassmann", const_fn(1.0) + sin_fn(0.5, 1.0),
                           LOCK_FORCING, const_fn(0.2), gens=gens,
                           eta_generator="eta")
    assert gens.dim == 256
    tables = []
    _chunk_spy(monkeypatch, tables)
    cfg = IntegrationConfig(0.003, 1e-3)
    for start in _evolutions_of(spec).values():
        tables.clear()
        start(cfg)
        assert sum(len(table) for table in tables) == cfg.n_steps
        assert all(table.nbytes <= dynamics.TABLE_BYTES for table in tables)


# -- the invariance residual against a per-time loop -------------------------------


def _residual_reference(b_series, h, config, gens):
    """Order reference: B and H(t) as operators, B from nu in Python complex
    arithmetic, composed one grid time at a time."""
    times = config.times()
    if isinstance(b_series, dynamics.FermionInvariantPath):
        ops = []
        for row in b_series.nu:
            nm, npl, n3 = (complex(v) for v in row)
            ops.append(FermionOperator(gens, *(gens.scalar(c)
                                               for c in (-0.5 * n3, nm, npl, n3))))
    else:
        ops = list(b_series)
    coeff_stack = np.stack([np.stack([c.coeffs for c in op.coefficients()])
                            for op in ops])
    dcoeff = dynamics._fd_derivative(coeff_stack, times[1] - times[0])
    residuals = np.zeros(times.size)
    for i, t in enumerate(times):
        h_op = hamiltonian_operator(h, t, gens)
        comm = ops[i] * h_op - h_op * ops[i]
        residuals[i] = max(float(np.max(np.abs(dcoeff[i, k] - 1j * c.coeffs)))
                           for k, c in enumerate(comm.coefficients()))
    return residuals


def _phase_invariant_ops(cfg):
    g0 = GeneratorSet(())
    return [complex(np.exp(1j * t)) * FermionOperator.annihilator(g0)
            for t in cfg.times()]


# (B series, h, config, gens): an ops list, nu paths, transport at 4 and 16
# coefficients, and a builder's DenseHamiltonian; the grids span several blocks
RESIDUAL_CASES = {
    "ops": lambda: (_phase_invariant_ops(IntegrationConfig(2.0, 1e-3)), LOCK_FERMION,
                    IntegrationConfig(2.0, 1e-3), GeneratorSet(())),
    "nu": lambda: (evolve_nu_system(LOCK_FERMION, IntegrationConfig(2.0, 1e-3)),
                   LOCK_FERMION, IntegrationConfig(2.0, 1e-3), GeneratorSet(())),
    "nu_g1": lambda: (evolve_nu_system(LOCK_FERMION, IntegrationConfig(2.0, 1e-2)),
                      LOCK_FERMION, IntegrationConfig(2.0, 1e-2), LOCK_G1),
    "transport_4": lambda: (
        evolve_operator_transport(LOCK_FERMION, FermionOperator.annihilator(LOCK_G1),
                                  IntegrationConfig(2.0, 1e-2)),
        LOCK_FERMION, IntegrationConfig(2.0, 1e-2), LOCK_G1),
    "transport_16": lambda: (
        evolve_operator_transport(LOCK_GRASSMANN, FermionOperator.annihilator(LOCK_G2),
                                  IntegrationConfig(0.5, 1e-2)),
        LOCK_GRASSMANN, IntegrationConfig(0.5, 1e-2), LOCK_G2),
    "builder_16": lambda: (
        evolve_operator_transport(LOCK_GRASSMANN, FermionOperator.annihilator(LOCK_G2),
                                  IntegrationConfig(0.5, 1e-2)),
        LOCK_DENSE, IntegrationConfig(0.5, 1e-2), LOCK_G2),
}


@pytest.mark.parametrize("budget", [None, 7], ids=["blocks", "7_times"])
@pytest.mark.parametrize("case", RESIDUAL_CASES)
def test_invariant_residual_matches_per_time_loop(case, budget, monkeypatch):
    b_series, h, cfg, gens = RESIDUAL_CASES[case]()
    if budget is not None:
        # blocks of 7 grid times
        monkeypatch.setattr(dynamics, "TABLE_BYTES", 2 * 12 * 16 * gens.dim * budget)
    res = invariant_residual(b_series, h, cfg, gens=gens)
    ref = _residual_reference(b_series, h, cfg, gens)
    assert np.all(ref > 0.0)
    assert np.array_equal(bits(res), bits(ref))


def test_invariant_residual_propagates_nan():
    cfg = IntegrationConfig(2.0, 1e-3)
    ops = _phase_invariant_ops(cfg)
    g0 = ops[0].gens
    z = g0.zero()
    ops[50] = FermionOperator(g0, z, ops[50].c_minus, g0.scalar(np.nan), z)
    res = invariant_residual(ops, LOCK_FERMION, cfg)
    # B(t_50) enters the commutator at t_50 and the differences at t_49, t_51
    assert np.isnan(res[49:52]).all()
    assert np.isfinite(np.delete(res, [49, 50, 51])).all()


def test_invariant_residual_kernel_plan_holds_one_block(numpy_product):  # numpy plans only
    # the kernel keeps each plan at the largest batch it has seen, so the
    # residual of a long grid must reach it a block of times at a time
    cfg = IntegrationConfig(2.0, 1e-3)
    nu = evolve_nu_system(LOCK_FERMION, cfg)
    rows = []

    def run():  # a fresh thread starts with no plans
        invariant_residual(nu, LOCK_FERMION, cfg, gens=LOCK_G2)
        rows.append(kernel._local.plans[4].rows)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=120)
    assert not worker.is_alive()
    block = dynamics.TABLE_BYTES // (2 * 12 * 16 * LOCK_G2.dim)
    assert cfg.times().size > block
    assert len(rows) == 1 and rows[0] <= 12 * block


# -- the fused RHS plans against the two-stage RHSs they replace -------------------


def two_stage_fermion_rhs(n_gen):
    """Order reference: the fermion Schrödinger RHS as it was before its plan,
    on dense rows c (R, 5, dim) of ci, ci, cm, cn, cp: the five products in
    one full kernel.multiply call, then added in three array operations. On
    finite rows the full table gives the bits of the spec's restricted
    products (see README, Numerical conventions)."""
    gsigns = kernel.tables.parity_signs(n_gen)

    def rhs(c, y):
        right = np.empty((len(y), 5, 1 << n_gen), dtype=np.complex128)
        right[:, :2] = y
        right[:, 3] = y[:, 1]
        np.multiply(y[:, ::-1], gsigns, out=right[:, 2::2])
        left = c.reshape(-1, 1 << n_gen)
        prod = kernel.multiply(left, right.reshape(left.shape), n_gen)
        prod = prod.reshape(right.shape)
        out = prod[:, :2] + prod[:, 2:4]
        out[:, 1] += prod[:, 4]
        out *= -1j
        return out

    return rhs


def two_stage_law_rhs(n_gen):
    """Order reference: the grassmann law's RHS as it was before its plan, on
    dense rows c (R, 3, dim) of eta, delta and omega: zeta* eta and eta* zeta
    through kernel.conjugate and one kernel.multiply call, then added."""
    def rhs(c, y):
        eta, delta, omega = c.swapaxes(0, 1)
        pair = y.copy()
        pair[:, 1] = eta
        dim = 1 << n_gen
        prod = kernel.multiply(kernel.conjugate(pair, n_gen).reshape(-1, dim),
                               pair[:, ::-1].reshape(-1, dim), n_gen)
        prod = prod.reshape(pair.shape)
        out = np.empty_like(y)
        out[:, 0] = -1j * (omega * y[:, 0] - eta)
        out[:, 1] = -delta + 0.5 * (prod[:, 0] + prod[:, 1])
        return out

    return rhs


def awkward(rng, shape) -> np.ndarray:
    """Complex values whose parts are normal, +-0.0 or subnormal."""
    parts = rng.standard_normal(shape + (2,))
    draw = rng.random(shape + (2,))
    parts[draw < 0.3] = 0.0
    parts[(draw >= 0.3) & (draw < 0.45)] *= 1e-310
    parts[rng.random(shape + (2,)) < 0.5] *= -1.0
    out = np.empty(shape, dtype=np.complex128)
    out.real, out.imag = parts[..., 0], parts[..., 1]  # no +0.0 from 1j*-0.0
    return out


def _rhs_of(start, cfg, monkeypatch):
    """The RHS, coefficient function and start an evolution hands the driver."""
    got = []

    def capture(rhs, coeffs, y0, *args, **kw):
        got.append((rhs, coeffs, y0))
        raise _Captured

    monkeypatch.setattr(dynamics, "_integrate", capture)
    with pytest.raises(_Captured):
        start(cfg)
    monkeypatch.undo()
    return got[0]


def _oracle_case(kind, gens):
    """(start, draw) of one oracle case over `gens`, whose generator 0 is
    eta: `start` begins the evolution whose RHS is tested, and draw(rng,
    rows) gives random coefficient rows in the RHS's layout and in the
    layout of the two-stage RHS it replaced."""
    n_gen, dim = gens.n_generators, gens.dim
    spec = HamiltonianSpec("grassmann", const_fn(1.0), LOCK_FORCING, const_fn(0.1),
                           gens=gens, eta_generator="eta")
    masks = (0, 0, 2, 0, 1)  # ci, ci, cm, cn, cp: eta* is mask 2, eta mask 1
    if kind == "fermion":
        spec, masks = HamiltonianSpec("fermion", const_fn(1.0), LOCK_FORCING), (0,) * 5

    def compact(rng, rows):  # the slot values (I, b, b†, b†b) at their masks
        c = awkward(rng, (rows, 4))
        dense = np.zeros((rows, 5, dim), dtype=np.complex128)
        for k, slot in enumerate((0, 0, 1, 3, 2)):
            dense[:, k, masks[k]] = c[:, slot]
        return c, dense

    def builder_rows(rng, rows):  # dense slot rows
        c = awkward(rng, (rows, 4, dim))
        return c, c[:, [0, 0, 1, 3, 2]]

    def law_rows(rng, rows):  # delta, -eta*, eta and omega, one entry each
        c = awkward(rng, (rows, 4))
        c[:, 1] = -np.conj(c[:, 2])
        dense = np.zeros((rows, 3, dim), dtype=np.complex128)
        dense[:, 0, 1], dense[:, 1, 0], dense[:, 2] = c[:, 2], c[:, 0], c[:, 3:]
        return c, dense

    def triple_rows(rng, rows):  # dense slot rows, omega at the body
        dense = awkward(rng, (rows, 3, dim))
        dense[:, 2] = dense[:, 2, :1]  # the two-stage RHS repeats omega
        eta, delta, omega = dense.swapaxes(0, 1)
        c = np.zeros((rows, 4, dim), dtype=np.complex128)
        c[:, 0], c[:, 1], c[:, 2], c[:, 3, 0] = \
            delta, -kernel.conjugate(eta, n_gen), eta, omega[:, 0]
        return c, dense

    def fermion(h):
        return lambda cfg: evolve_schrodinger_fermion(h, FermionState.vacuum(gens), cfg)

    def law(h):
        return lambda cfg: evolve_grassmann_classical(h, gens.zero(), cfg)

    return {
        "fermion": (fermion(spec), compact),
        "grassmann": (fermion(spec), compact),
        "builder": (fermion(dense_of(lambda t: hamiltonian_operator(spec, t, gens), gens,
                                     "grassmann")), builder_rows),
        "law": (law(spec), law_rows),
        "triple": (law(DenseHamiltonian("grassmann", gens, _triple(gens))), triple_rows),
    }[kind]


ORACLE_CASES = [(kind, n_pairs)
                for kind in ("fermion", "grassmann", "builder", "law", "triple")
                for n_pairs in (1, 2, 4)]


@pytest.mark.parametrize("kind, n_pairs", ORACLE_CASES,
                         ids=[f"{kind}_c{4 ** n}" for kind, n in ORACLE_CASES])
def test_fused_rhs_matches_two_stage_rhs_bitwise(kind, n_pairs, monkeypatch):
    rng = np.random.default_rng(n_pairs)
    gens = GeneratorSet.from_pairs(("eta", "zeta", "chi", "xi")[:n_pairs])
    start, draw = _oracle_case(kind, gens)
    two_stage = two_stage_law_rhs if kind in ("law", "triple") else two_stage_fermion_rhs
    reference = two_stage(gens.n_generators)
    rhs, _, y0 = _rhs_of(start, IntegrationConfig(0.01, 1e-3), monkeypatch)
    # a grassmann spec's trajectory carries its law as rows 2-3 of its state
    assert len(y0) == (4 if kind == "grassmann" else 2)
    law_draw, law_reference = _oracle_case("law", gens)[1], two_stage_law_rhs(gens.n_generators)
    for rows in (1, 2):
        for _ in range(20 if n_pairs < 4 else 3):
            y = awkward(rng, (rows, len(y0), gens.dim))
            c, dense = draw(rng, rows)
            # each system's rows against its own two-stage RHS on its own rows
            assert np.array_equal(bits(rhs(c, y)[:, :2]),
                                  bits(reference(dense, y[:, :2].copy()))), rows
            if kind == "grassmann":  # the law reads -eta* from the lower slot
                c, dense = law_draw(rng, rows)
                assert np.array_equal(bits(rhs(c, y)[:, 2:]),
                                      bits(law_reference(dense, y[:, 2:].copy()))), rows


# (start, (kernel.bilinear, kernel.multiply, kernel.conjugate) calls per stage):
# a spec's stage is one plan evaluation; a DenseHamiltonian's has no plan, its
# products go through one kernel.multiply call (and the law's zeta* through
# one kernel.conjugate); a transport stage composes X H and H X in one call
STAGE_CALLS = {
    "fermion_spec": (lambda cfg: evolve_schrodinger_fermion(
        LOCK_GRASSMANN, make_coherent(LOCK_G2.gen("zeta")), cfg), (1, 0, 0)),
    "fermion_builder": (lambda cfg: evolve_schrodinger_fermion(
        LOCK_DENSE, make_coherent(LOCK_G2.gen("zeta")), cfg), (0, 1, 0)),
    "grassmann_law": (lambda cfg: evolve_grassmann_classical(
        LOCK_GRASSMANN, LOCK_G2.gen("zeta"), cfg), (1, 0, 0)),
    "dense_grassmann_law": (lambda cfg: evolve_grassmann_classical(
        LOCK_DENSE, LOCK_G2.gen("zeta"), cfg), (0, 1, 1)),
    "operator_transport": (lambda cfg: evolve_operator_transport(
        LOCK_GRASSMANN, FermionOperator.annihilator(LOCK_G2), cfg), (0, 1, 0)),
}


@pytest.mark.parametrize("start, per_stage", STAGE_CALLS.values(), ids=list(STAGE_CALLS))
def test_each_rhs_stage_is_one_plan_evaluation(start, per_stage, driver_runs, monkeypatch):
    names = ("bilinear", "multiply", "conjugate")
    calls = Counter()
    for name in names:
        fn = getattr(kernel, name)
        monkeypatch.setattr(kernel, name, lambda *a, fn=fn, name=name: (
            calls.update([name]), fn(*a))[1])
    cfg = IntegrationConfig(0.05, 1e-2)
    integrate = dynamics._integrate  # the driver_runs spy

    def counting(rhs, *args, **kw):
        def stage(c, y):
            calls.update(["stage"])
            before = {name: calls[name] for name in names}
            out = rhs(c, y)
            calls.update({f"stage_{name}": calls[name] - before[name] for name in names})
            return out
        return integrate(stage, *args, **kw)

    monkeypatch.setattr(dynamics, "_integrate", counting)
    start(cfg)
    assert calls["stage"] == 8 * cfg.n_steps
    for name, n in zip(names, per_stage):
        assert calls[f"stage_{name}"] == n * calls["stage"], name
    if per_stage[0] and driver_runs[0].label == "grassmann classical":
        assert calls["conjugate"] == 0


# -- reconstructed forcing on arrays of times against the per-time build -----------


def per_time_path(path, t) -> Multivector:
    """Order reference: MultivectorPath at one time, as it was before it took
    arrays of times."""
    coeffs = np.zeros(path.gens.dim, dtype=np.complex128)
    for mask, fn in path.components:
        coeffs[mask] = fn(t)
    return Multivector(path.gens, coeffs, _copy=False)


def per_time_forcing(path, omega, beta):
    """Order reference: reconstruct_forcing's eta and delta at one time, built
    from Multivectors as they were before they took arrays of times."""
    zdot = path.derivative()

    def eta(t):
        return omega(t) * per_time_path(path, t) - 1j * per_time_path(zdot, t)

    def delta(t):
        z, zd = per_time_path(path, t), per_time_path(zdot, t)
        zc, zdc = z.conjugate(), zd.conjugate()
        out = omega(t) * (zc * z) - 0.5j * (zc * zd - zdc * z)
        return out + complex(beta(t))

    return eta, delta


def per_time_table(omega, eta, delta, n_gen):
    """Order reference: the reconstructed dense rows in slot order (delta,
    -eta*, eta, omega at the body), eta, delta and omega built one time at a
    time."""
    def coeffs(ts):
        rows = np.array([(eta(t).coeffs, delta(t).coeffs) for t in ts])
        c = np.zeros((len(ts), 4, 1 << n_gen), dtype=np.complex128)
        c[:, 0], c[:, 1], c[:, 2] = \
            rows[:, 1], -kernel.conjugate(rows[:, 0], n_gen), rows[:, 0]
        c[:, 3, 0] = [omega(t) for t in ts]
        return c

    return coeffs


def _reconstruction_case(n_pairs):
    """(path, omega, beta) over 1-3 generator pairs: non-constant omega and
    beta, and a path with a component on a starred generator."""
    gens = GeneratorSet.from_pairs(("zeta", "eta", "chi")[:n_pairs])
    components = {"zeta": cos_fn(1.0, 1.0) + sin_fn(-1j, 1.0),
                  "zeta*": poly_fn(0.2 - 0.1j, 2) + const_fn(-0.0)}
    if n_pairs > 1:
        components["eta"] = sin_fn(0.3, 1.0)
    if n_pairs > 2:
        components["chi*"] = cos_fn(0.25j, 2.0, 0.5) + poly_fn(-0.05, 3)
    path = MultivectorPath.from_components(gens, components)
    omega = const_fn(1.0) + sin_fn(0.5, 1.0) + poly_fn(0.1, 1)
    beta = const_fn(0.1) + cos_fn(0.2, 2.0)
    return path, omega, beta


@pytest.mark.parametrize("n_pairs", [1, 2, 3])
def test_reconstructed_rows_match_per_time_build_bitwise(n_pairs):
    path, omega, beta = _reconstruction_case(n_pairs)
    h = reconstruct_forcing(path, omega, beta)
    ref_eta, ref_delta = per_time_forcing(path, omega, beta)
    cfg = IntegrationConfig(0.3, 1e-2)
    rng = np.random.default_rng(n_pairs)
    stages, _ = dynamics._stage_times(cfg.times())
    ts = np.concatenate((stages.reshape(-1), rng.uniform(-4.0, 4.0, 40), [-0.0]))
    rows = h.slot_rows(ts)
    # eta is the b† slot and delta the I slot; a scalar time gives them as
    # the coefficients of hamiltonian_operator
    for got, at, ref in ((path(ts), None, lambda t: per_time_path(path, t)),
                         (rows[:, 2], "c_plus", ref_eta), (rows[:, 0], "c_i", ref_delta)):
        want = bits(np.stack([ref(t).coeffs for t in ts]))
        assert np.array_equal(bits(got), want)
        for t, w in zip(ts[::7], want[::7]):
            one = path(t) if at is None else \
                getattr(hamiltonian_operator(h, t, path.gens), at)
            assert np.array_equal(bits(one.coeffs), w)


def test_reconstructed_rows_evaluate_each_input_once_per_chunk(monkeypatch):
    path, omega, beta = _reconstruction_case(2)
    h, zeta0 = reconstruct_forcing(path, omega, beta), path(0.0)
    calls = Counter()
    path_call, fn_call = MultivectorPath.__call__, CoefficientFn.__call__

    def count_path(self, t):
        calls["zeta_path" if self is path else "zdot"] += 1
        return path_call(self, t)

    def count_fn(self, t):
        calls.update([name for name, fn in (("omega", omega), ("beta", beta)) if self is fn])
        return fn_call(self, t)

    monkeypatch.setattr(MultivectorPath, "__call__", count_path)
    monkeypatch.setattr(CoefficientFn, "__call__", count_fn)
    tables = []
    _chunk_spy(monkeypatch, tables)
    # 3 grid steps per chunk: 5 stage rows each, of 4 x 16 coefficients
    monkeypatch.setattr(dynamics, "TABLE_BYTES", 3 * 5 * 4 * 16 * 16)
    evolve_grassmann_classical(h, zeta0, IntegrationConfig(0.3, 1e-2))
    assert len(tables) == 11
    assert calls == {name: len(tables) for name in ("zeta_path", "zdot", "omega", "beta")}


@pytest.mark.parametrize("n_pairs", [1, 2, 3])
def test_triple_law_matches_per_time_table_bitwise(n_pairs, monkeypatch):
    path, omega, beta = _reconstruction_case(n_pairs)
    h = reconstruct_forcing(path, omega, beta)
    cfg = IntegrationConfig(0.2, 2e-3)
    zeta0 = path(0.0)
    got = evolve_grassmann_classical(h, zeta0, cfg)

    table = per_time_table(omega, *per_time_forcing(path, omega, beta),
                           path.gens.n_generators)
    integrate = dynamics._integrate
    monkeypatch.setattr(dynamics, "_integrate",
                        lambda rhs, _, *a, **kw: integrate(rhs, table, *a, **kw))
    want = evolve_grassmann_classical(h, zeta0, cfg)
    assert np.array_equal(bits(got.zeta), bits(want.zeta))
    assert np.array_equal(bits(got.phi), bits(want.phi))


# -- non-finite input fails closed; oversized input is refused first ------------

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])


@st.composite
def non_finite_complex(draw):
    """A complex with one part non-finite and the other finite."""
    bad, other = draw(NON_FINITE), draw(st.floats(-2.0, 2.0))
    return complex(bad, other) if draw(st.booleans()) else complex(other, bad)


@st.composite
def small_grids(draw):
    """A config of at most 40 grid steps."""
    n_steps, t_end = draw(st.integers(1, 40)), draw(st.floats(0.01, 2.0))
    return IntegrationConfig(t_end, t_end / n_steps, draw(st.integers(1, 5)))


@st.composite
def poisoned(draw, base: CoefficientFn):
    """base plus one term holding a drawn non-finite value: a constant, a
    polynomial coefficient, or a harmonic's amplitude, frequency or phase."""
    where = draw(st.sampled_from(["constant", "poly", "amplitude", "frequency", "phase"]))
    if where == "frequency":
        return base + sin_fn(0.3, draw(NON_FINITE))
    if where == "phase":
        return base + sin_fn(0.3, 1.0, draw(NON_FINITE))
    bad = draw(non_finite_complex())
    if where == "poly":
        return base + poly_fn(bad, draw(st.integers(1, 3)))
    return base + (const_fn(bad) if where == "constant" else cos_fn(bad, 1.0))


def evolutions_of(h) -> list:
    """Every evolution, closed form, classification, invariance residual and
    operator that takes the spec or DenseHamiltonian h, each from one of the
    lock starts."""
    out = [lambda cfg: classify_hamiltonian(h, cfg)] if isinstance(h, HamiltonianSpec) else []
    if h.kind == "boson":
        return out + [
            lambda cfg: evolve_schrodinger_boson(h, make_coherent_boson(0.5, 16), cfg),
            lambda cfg: evolve_classical_boson(h, 0.5 + 0.2j, cfg),
            lambda cfg: build_ladder_invariant(h, cfg)]
    zeta, b = LOCK_G2.gen("zeta"), FermionOperator.annihilator(LOCK_G2)
    out += [lambda cfg: evolve_schrodinger_fermion(h, make_coherent(zeta), cfg),
            lambda cfg: evolve_operator_transport(h, b, cfg),
            lambda cfg: invariant_residual([b] * (cfg.n_steps + 1), h, cfg, LOCK_G2),
            lambda cfg: hamiltonian_operator(h, cfg.t_end, LOCK_G2)]
    if h.kind == "grassmann":
        out.append(lambda cfg: evolve_grassmann_classical(h, zeta, cfg))
    elif isinstance(h, HamiltonianSpec):
        out.append(lambda cfg: evolve_nu_system(h, cfg))
    return out


def assert_refused(evolutions, cfg) -> None:
    for evolve in evolutions:
        with pytest.raises(CohstabError):  # so no records come back
            evolve(cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(base=st.sampled_from([LOCK_BOSON, LOCK_FERMION, LOCK_GRASSMANN]),
       slot=st.sampled_from(["omega", "forcing", "scalar"]), data=st.data(), cfg=small_grids())
def test_every_evolution_refuses_a_non_finite_spec_slot(base, slot, data, cfg):
    h = dataclasses.replace(base, **{slot: data.draw(poisoned(getattr(base, slot)))})
    assert_refused(evolutions_of(h), cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_scalar_no_rhs_reads_fails_the_gate(bad):
    # the classical boson and the nu system never read the scalar slot, so
    # their states stay finite; the gate must still refuse the spec
    cfg = IntegrationConfig(0.3, 1e-2)
    for evolve in (lambda: evolve_classical_boson(
                       dataclasses.replace(LOCK_BOSON, scalar=const_fn(bad)), 0.5, cfg),
                   lambda: evolve_nu_system(
                       dataclasses.replace(LOCK_FERMION, scalar=const_fn(bad)), cfg)):
        with pytest.raises(StepTooLarge, match="the scalar term is not finite"):
            evolve()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_spec_non_finite_from_the_start_is_refused_before_any_rhs_call(bad, monkeypatch):
    # slot_rows refuses the first table, so no step is taken, although
    # neither the classical boson's RHS nor the nu system's reads the scalar
    calls, integrate = [], dynamics._integrate

    def spied(rhs, *args, **kw):
        return integrate(lambda c, y: (calls.append(len(y)), rhs(c, y))[1], *args, **kw)

    monkeypatch.setattr(dynamics, "_integrate", spied)
    cfg = IntegrationConfig(0.3, 1e-2)
    for evolve in (lambda: evolve_classical_boson(
                       dataclasses.replace(LOCK_BOSON, scalar=const_fn(bad)), 0.5, cfg),
                   lambda: evolve_nu_system(
                       dataclasses.replace(LOCK_FERMION, scalar=const_fn(bad)), cfg)):
        with pytest.raises(StepTooLarge, match="^the scalar term is not finite at t=0$"):
            evolve()
    assert calls == []


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(kind=st.sampled_from(["fermion", "grassmann"]), slot=st.integers(0, 3),
       mask=st.integers(0, LOCK_G2.dim - 1), bad=non_finite_complex(), cfg=small_grids())
def test_every_evolution_refuses_a_non_finite_dense_row(kind, slot, mask, bad, cfg):
    def rows(ts):
        c = LOCK_DENSE.rows(ts)
        c[:, slot, mask] = bad
        return c

    assert_refused(evolutions_of(DenseHamiltonian(kind, LOCK_G2, rows)), cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(start=st.sampled_from(["fermion", "grassmann", "dense", "boson", "law", "dense law"]),
       data=st.data(), bad=non_finite_complex(), cfg=small_grids())
def test_every_evolution_refuses_a_non_finite_start_amplitude(start, data, bad, cfg):
    if start == "boson":
        amps = make_coherent_boson(0.5, 16).amps.copy()
        amps[data.draw(st.integers(0, amps.size - 1))] = bad
        evolve = lambda cfg: evolve_schrodinger_boson(LOCK_BOSON, BosonState(amps), cfg)  # noqa: E731
    elif start.endswith("law"):  # on the eigenvalue's own generator or its conjugate
        zeta = LOCK_G2.gen("zeta").coeffs.copy()
        zeta[data.draw(st.sampled_from([1, 2]))] = bad
        h = LOCK_DENSE if start == "dense law" else LOCK_GRASSMANN
        evolve = lambda cfg: evolve_grassmann_classical(h, Multivector(LOCK_G2, zeta), cfg)  # noqa: E731
    else:
        psi = make_coherent(LOCK_G2.gen("zeta"))
        y = np.stack((psi.psi0.coeffs, psi.psi1.coeffs))
        y[data.draw(st.integers(0, 1)), data.draw(st.integers(0, LOCK_G2.dim - 1))] = bad
        s0 = FermionState(LOCK_G2, Multivector(LOCK_G2, y[0]), Multivector(LOCK_G2, y[1]))
        h = {"fermion": LOCK_FERMION, "grassmann": LOCK_GRASSMANN, "dense": LOCK_DENSE}[start]
        evolve = lambda cfg: evolve_schrodinger_fermion(h, s0, cfg)  # noqa: E731
    assert_refused([evolve], cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(z0=non_finite_complex(), cfg=small_grids())
def test_every_boson_evolution_refuses_a_non_finite_z0(z0, cfg):
    assert_refused([lambda cfg: evolve_classical_boson(LOCK_BOSON, z0, cfg),
                    lambda cfg: evolve_schrodinger_boson(
                        LOCK_BOSON, make_coherent_boson(z0, 16), cfg)], cfg)


#: tracemalloc peak a refusal may reach: below one state of MAX_NMAX + 1
#: levels (16 KiB), which a bound checked after allocating would hold.
REFUSAL_PEAK = 12 * 1024

#: Hypothesis's phases but explain, for the tests of refusal_peak. The explain
#: phase re-runs a failing example under a line tracer, whose allocations
#: tracemalloc counts, so the re-run fails differently and the report is a
#: FlakyFailure on another example in place of the failure that was found.
NO_EXPLAIN = tuple(phase for phase in Phase if phase is not Phase.explain)


def refusal_peak(call, error) -> int:
    """The tracemalloc peak of call(), which must raise `error`."""
    tracemalloc.start()
    try:
        with pytest.raises(error):
            call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@settings(derandomize=True, database=None, max_examples=50, deadline=None,
          phases=NO_EXPLAIN)
@given(n_steps=st.integers(MAX_STEPS + 1, 10**15), t_end=st.floats(1e-3, 1e3))
def test_a_grid_over_max_steps_is_refused_before_allocation(n_steps, t_end):
    assert refusal_peak(lambda: IntegrationConfig(t_end, t_end / n_steps),
                        ValidationError) < REFUSAL_PEAK


@settings(derandomize=True, database=None, max_examples=50, deadline=None,
          phases=NO_EXPLAIN)
@given(system=st.sampled_from(["fermion", "boson", "nu", "transport", "law"]),
       size=st.integers(1, 4), data=st.data())
def test_records_over_the_bound_are_refused_before_allocation(system, size, data):
    # `size` generator pairs of a fermion state, operator or law, or a quarter
    # of the boson cutoff bound; the nu system, the transport and the law keep
    # every grid point, n_steps + 1 >= n_records of them
    gens = GeneratorSet.from_pairs(f"g{k}" for k in range(size))
    fermion, zeta = HamiltonianSpec("fermion", const_fn(1.0)), gens.gen("g0")
    if system == "fermion":
        s0 = make_coherent(zeta)
        values, evolve = 2 * gens.dim, lambda cfg: evolve_schrodinger_fermion(fermion, s0, cfg)
    elif system == "boson":
        s0 = BosonState.vacuum(size * MAX_NMAX // 4)
        values, evolve = s0.amps.size, lambda cfg: evolve_schrodinger_boson(
            HamiltonianSpec("boson", const_fn(1.0)), s0, cfg)
    elif system == "nu":
        values, evolve = 3, lambda cfg: evolve_nu_system(fermion, cfg)
    elif system == "transport":
        op0 = FermionOperator.annihilator(gens)
        values, evolve = 4 * gens.dim, lambda cfg: evolve_operator_transport(fermion, op0, cfg)
    else:
        spec = HamiltonianSpec("grassmann", const_fn(1.0), gens=gens,
                               eta_generator=gens.names[-1])
        values, evolve = 2 * gens.dim, lambda cfg: evolve_grassmann_classical(spec, zeta, cfg)
    n_records = data.draw(st.integers((MAX_STEPS + 1) // values + 1, MAX_STEPS + 1))
    stride = data.draw(st.integers(1, MAX_STEPS // (n_records - 1)))
    cfg = IntegrationConfig(1.0, 1.0 / ((n_records - 1) * stride), stride)
    assert cfg.n_records * values > MAX_STEPS + 1
    assert refusal_peak(lambda: evolve(cfg), ValidationError) < REFUSAL_PEAK


@settings(derandomize=True, database=None, max_examples=50, deadline=None,
          phases=NO_EXPLAIN)
@given(n_gen=st.integers(kernel.tables.MAX_GENERATORS + 1, 2 * kernel.tables.MAX_GENERATORS))
def test_generators_over_the_bound_are_refused_before_allocation(n_gen):
    names = tuple(f"g{k}" for k in range(n_gen + n_gen % 2))
    for call in (lambda: GeneratorSet(names), lambda: kernel.tables.mul_table(n_gen),
                 lambda: kernel.tables.conj_table(n_gen)):
        assert refusal_peak(call, ValueError) < REFUSAL_PEAK


@settings(derandomize=True, database=None, max_examples=50, deadline=None,
          phases=NO_EXPLAIN)
@given(nmax=st.integers(MAX_NMAX + 1, 2 * MAX_NMAX), n=st.integers(0, MAX_NMAX))
def test_boson_cutoffs_over_the_bound_are_refused_before_allocation(nmax, n):
    for call in (lambda: BosonState.vacuum(nmax), lambda: BosonState.number_state(n, nmax),
                 lambda: coherent_tail_mass(0.5, nmax), lambda: make_coherent_boson(0.5, nmax)):
        assert refusal_peak(call, ValueError) < REFUSAL_PEAK
