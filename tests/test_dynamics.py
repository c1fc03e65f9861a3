"""Integrators, auxiliary systems, invariants, transport."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from cohstab import dynamics
from cohstab.boson import BosonState, make_coherent_boson
from cohstab.coeffs import complex_pair, const_fn, cos_fn, sin_fn, zero_fn
from cohstab.dynamics import (
    MAX_STEPS,
    STEP_TOL,
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
    GeneratorCollision,
    GridTooCoarse,
    NotHermitian,
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


def test_cumulative_simpson_against_scipy():
    from scipy.integrate import cumulative_simpson as scipy_cs

    t = np.linspace(0.0, 2.0, 201)
    y = np.cos(3 * t) + 0.2 * t**2
    mine = cumulative_simpson(y, t[1] - t[0])
    ref = scipy_cs(y, dx=t[1] - t[0], initial=0.0)
    assert np.max(np.abs(mine - ref)) < 1e-12
    exact = np.sin(3 * t) / 3 + 0.2 * t**3 / 3
    assert np.max(np.abs(mine - exact)) < 1e-8


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


def test_nan_imaginary_part_is_not_hermitian():
    times = IntegrationConfig(1.0, 1e-2).times()
    with pytest.raises(NotHermitian):
        HamiltonianSpec("boson", const_fn(complex(1, np.nan))).validate_real_coefficients(times)
    with pytest.raises(NotHermitian):
        HamiltonianSpec("boson", const_fn(1.0), scalar=const_fn(complex(0, np.nan))) \
            .validate_real_coefficients(times)


def test_not_hermitian_builder_rejected(gens1):
    b = FermionOperator.annihilator(gens1)

    def builder(t):
        return 1.0 * b  # not self-adjoint

    with pytest.raises(NotHermitian):
        evolve_schrodinger_fermion(builder, make_coherent(gens1.gen("zeta")),
                                   IntegrationConfig(0.1, 1e-2))


def test_operator_builder_path_matches_spec(gens1):
    spec = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.2), const_fn(0.1))
    cfg = IntegrationConfig(0.5, 1e-3, stride=100)

    def builder(t):
        return hamiltonian_operator(spec, t, gens1)

    s0 = make_coherent(gens1.gen("zeta"))
    t1 = evolve_schrodinger_fermion(spec, s0, cfg)
    t2 = evolve_schrodinger_fermion(builder, s0, cfg)
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


def test_grid_too_coarse_calibration():
    spec = HamiltonianSpec("fermion", const_fn(1.0))
    g0 = GeneratorSet(())
    cfg = IntegrationConfig(40.0, 10.0)
    ops = [FermionOperator.annihilator(g0) for _ in cfg.times()]
    with pytest.raises(GridTooCoarse):
        invariant_residual(ops, spec, cfg)


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

# keyed by the label each evolution passes to the driver
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
}
EVOLUTION_IDS = [name.replace(" ", "_").replace("ö", "o") for name in EVOLUTIONS]


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


def bits(a: np.ndarray) -> np.ndarray:
    """Raw float bits, so that signed zeros and NaN payloads count."""
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.fixture
def driver_runs(monkeypatch):
    """Each _integrate call's arguments, its RHS calls by row count, the
    times it evaluates the coefficients at, and its records."""
    runs = []
    integrate = dynamics._integrate

    def spy(rhs, coeffs, y0, config, label, record=None, on_step=None):
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

        run.records = integrate(counted, tabulated, y0, config, label, record,
                                on_step)
        return run.records

    monkeypatch.setattr(dynamics, "_integrate", spy)
    return runs


@pytest.mark.parametrize("name", EVOLUTIONS, ids=EVOLUTION_IDS)
def test_lock_step_records_match_sequential_run(name, driver_runs):
    cfg = IntegrationConfig(0.3, 1e-2, stride=3)
    EVOLUTIONS[name](cfg)
    (run,) = driver_runs
    assert run.label == name
    # 8 RHS calls per grid step: 4 paired stages, then 4 of the second dt/2 substep
    assert run.calls == {2: 4 * cfg.n_steps, 1: 4 * cfg.n_steps}
    stages, half_stages = [], []
    ref = sequential_rk4(run.rhs, run.coeffs, run.y0, cfg.times(), stages)
    sequential_rk4(run.rhs, run.coeffs, run.y0, cfg.refined_times(), half_stages)
    if run.record is not None:
        ref = ref[run.record]
    assert np.array_equal(bits(run.records), bits(ref))
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
def test_lock_step_gate_reports_sequential_gap(name, driver_runs):
    cfg = IntegrationConfig(1.0, 0.1)
    with pytest.raises(StepTooLarge) as caught:
        EVOLUTIONS[name](cfg)
    (run,) = driver_runs
    end = sequential_rk4(run.rhs, run.coeffs, run.y0, cfg.times())[-1]
    half_end = sequential_rk4(run.rhs, run.coeffs, run.y0, cfg.refined_times())[-1]
    diff = float(np.max(np.abs(half_end - end)))
    assert str(caught.value) == \
        f"{name}: halving dt changes endpoint by {diff:.3e} (> {STEP_TOL})"


@pytest.mark.parametrize("name", EVOLUTIONS, ids=EVOLUTION_IDS)
def test_lock_step_gate_fails_closed_on_half_run_nan(name, monkeypatch):
    integrate = dynamics._integrate

    def poisoned(rhs, coeffs, y0, config, label, record=None, on_step=None):
        def half_run_nan(c, y):
            k = rhs(c, y)
            k[-1] = np.nan  # the last row of every call is the dt/2 run's
            return k

        return integrate(half_run_nan, coeffs, y0, config, label, record, on_step)

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


def _coeffs_of(start, cfg, monkeypatch):
    """The coefficient function an evolution hands the driver (not run)."""
    got = []

    def capture(rhs, coeffs, *args, **kw):
        got.append(coeffs)
        raise _Captured

    monkeypatch.setattr(dynamics, "_integrate", capture)
    with pytest.raises(_Captured):
        start(cfg)
    monkeypatch.undo()
    return got[0]


def per_time_rows(label: str, spec: HamiltonianSpec, gens, t: float) -> np.ndarray:
    """One evolution's coefficient rows at the scalar time t, every function
    evaluated at t alone, in the layout of the driver's table."""
    w, f, g = (complex(fn(t)) for fn in (spec.omega, spec.forcing, spec.scalar))
    if label in ("classical boson", "nu system"):
        return np.array([[w], [f]])
    if label == "boson Schrödinger":
        return np.array([[w], [f], [g]])
    plus = minus = 0
    if spec.kind == "grassmann":
        idx = gens.index(spec.eta_generator)
        plus, minus = 1 << idx, 1 << (idx ^ 1)
    if label == "grassmann classical":
        c = np.zeros((3, gens.dim), dtype=np.complex128)
        c[0, plus], c[1, 0], c[2] = f, g, w
        return c
    c = np.zeros((4, gens.dim), dtype=np.complex128)
    c[0, 0] = g
    c[1, minus] = -np.conj(f) if spec.kind == "grassmann" else np.conj(f)
    c[2, plus] = f
    c[3, 0] = w
    return c[[0, 0, 1, 3, 2]] if label == "fermion Schrödinger" else c


@pytest.mark.parametrize("name, spec, cfg", TABLE_CASES,
                         ids=[case[0] for case in TABLE_CASES])
def test_coefficient_tables_match_per_time_evaluation(name, spec, cfg, monkeypatch):
    times, fine = cfg.times(), cfg.refined_times()
    lattice, _ = dynamics._stage_times(times, fine)
    distinct, where = np.unique(bits(lattice).reshape(-1), return_inverse=True)
    gens = spec.gens or GeneratorSet.from_pairs(("zeta",))
    for label, start in _evolutions_of(spec).items():
        coeffs = _coeffs_of(start, cfg, monkeypatch)
        table = np.concatenate(
            [rows for rows, _ in dynamics._coeff_tables(coeffs, times, fine)])
        ref = np.array([per_time_rows(label, spec, gens, t)
                        for t in distinct.view(np.float64)])
        want = ref[where.reshape(-1)].reshape(table.shape)
        assert np.array_equal(bits(table), bits(want)), label
    if spec.kind != "boson":
        for t in distinct.view(np.float64)[:50]:
            op = hamiltonian_operator(spec, t, gens)
            got = np.stack([c.coeffs for c in op.coefficients()])
            want = per_time_rows("operator transport", spec, gens, t)
            assert np.array_equal(bits(got), bits(want))


def _chunk_spy(monkeypatch, seen):
    """Route the driver's tables through a spy that appends each chunk's
    table to `seen`."""
    coeff_tables = dynamics._coeff_tables

    def spy(coeffs, times, fine):
        for table, dts in coeff_tables(coeffs, times, fine):
            seen.append(table)
            yield table, dts

    monkeypatch.setattr(dynamics, "_coeff_tables", spy)


@pytest.mark.parametrize("name", EVOLUTIONS, ids=EVOLUTION_IDS)
def test_chunked_tables_match_sequential_run(name, driver_runs, monkeypatch):
    cfg = IntegrationConfig(0.3, 1e-2, stride=3)
    EVOLUTIONS[name](cfg)
    row_bytes = driver_runs[0].coeffs(np.zeros(1)).nbytes
    # 3 grid steps per chunk within lattice blocks of 7 steps: the 30 steps
    # go as 1 (the sizing chunk) + 3 + 3, then 3 + 3 + 1 three times, then 2
    monkeypatch.setattr(dynamics, "TABLE_BYTES", 3 * 8 * row_bytes)
    monkeypatch.setattr(dynamics, "LATTICE_STEPS", 7)
    tables = []
    _chunk_spy(monkeypatch, tables)
    EVOLUTIONS[name](cfg)
    run = driver_runs[1]
    assert [len(table) for table in tables] == [1, 3, 3] + [3, 3, 1] * 3 + [2]
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
