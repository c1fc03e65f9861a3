"""Integrators, auxiliary systems, invariants, transport."""

import numpy as np
import pytest

from cohstab.boson import BosonState, make_coherent_boson
from cohstab.coeffs import complex_pair, const_fn, cos_fn, sin_fn, zero_fn
from cohstab.dynamics import (
    MAX_STEPS,
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
from cohstab.grassmann import GeneratorSet

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
                      (1.0, 1e-300), (1.0, 0.5 / MAX_STEPS), (1e300, 1e-300)):
        with pytest.raises(ValidationError):
            IntegrationConfig(t_end=t_end, dt=dt)


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


def test_step_too_large_detected():
    spec = HamiltonianSpec("boson", const_fn(1.0))
    with pytest.raises(StepTooLarge):
        evolve_classical_boson(spec, 1.0, IntegrationConfig(2.0, 0.5))


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
