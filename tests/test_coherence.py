"""Stability theorems as executable checks."""

import dataclasses
import pathlib
import tracemalloc

import numpy as np
import pytest

from cohstab import kernel
from cohstab.boson import BosonState, make_coherent_boson
from cohstab.coeffs import complex_pair, const_fn, cos_fn, poly_fn, sin_fn, zero_fn
from cohstab.coherence import (
    MultivectorPath,
    check_eigenstate,
    classify_hamiltonian,
    reconstruct_forcing,
    verify_trajectory,
)
from cohstab.dynamics import (
    DenseHamiltonian,
    HamiltonianSpec,
    IntegrationConfig,
    evolve_grassmann_classical,
    evolve_nu_system,
    evolve_schrodinger_boson,
    evolve_schrodinger_fermion,
    hamiltonian_operator,
)
from cohstab.errors import (
    MissingEigenvalues,
    NotDegreeOne,
    NotHermitian,
    StepTooLarge,
    ValidationError,
)
from cohstab.fermion import (
    FermionOperator,
    FermionState,
    commutator,
    make_coherent,
)
from cohstab.scenario import parse_scenario

SCENARIOS = pathlib.Path(__file__).resolve().parent.parent / "scenarios"


# -- check_eigenstate -----------------------------------------------------------


def test_coherent_state_certified(gens1):
    zeta = (0.4 - 0.2j) * gens1.gen("zeta")
    report = check_eigenstate(make_coherent(zeta))
    assert report.is_coherent
    assert report.eigenvalue.isclose(zeta, 1e-13)


def test_number_state_flagged_not_coherent(gens1):
    report = check_eigenstate(FermionState.one_fermion(gens1))
    assert not report.is_coherent
    assert report.reason is not None


def test_evolved_boson_state_certified():
    spec = HamiltonianSpec("boson", const_fn(1.0), const_fn(0.2))
    cfg = IntegrationConfig(1.0, 1e-3)
    traj = evolve_schrodinger_boson(spec, make_coherent_boson(0.5, 64), cfg)
    report = check_eigenstate(traj.states[-1])
    assert report.is_coherent
    assert abs(report.eigenvalue - traj.eigenvalues[-1]) < 1e-12


def test_boson_number_state_not_coherent():
    report = check_eigenstate(BosonState.number_state(1, 16))
    assert not report.is_coherent


# -- classification ---------------------------------------------------------------


def test_free_fermion_classified_preserving():
    spec = HamiltonianSpec("fermion", const_fn(1.0))
    result = classify_hamiltonian(spec, IntegrationConfig(1.0, 1e-3))
    assert result.verdict == "preserving"
    assert result.agrees


def test_forced_fermion_classified_non_preserving():
    spec = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.3))
    result = classify_hamiltonian(spec, IntegrationConfig(1.0, 1e-3))
    assert result.verdict == "non_preserving"
    assert result.agrees
    assert result.witness_time is not None
    assert result.dynamic_max_residual > 1e-3


def test_grassmann_classified_preserving(gens2):
    forcing = complex_pair(cos_fn(0.4, 1.0), sin_fn(-0.4, 1.0))
    spec = HamiltonianSpec("grassmann", const_fn(1.0), forcing, const_fn(0.1),
                           gens=gens2, eta_generator="eta")
    result = classify_hamiltonian(spec, IntegrationConfig(1.0, 1e-3))
    assert result.verdict == "preserving"


def test_boson_always_preserving():
    spec = HamiltonianSpec("boson", const_fn(1.0), const_fn(0.7))
    result = classify_hamiltonian(spec, IntegrationConfig(1.0, 1e-3))
    assert result.verdict == "preserving"


def test_classify_reads_the_forcing_a_block_at_a_time():
    # 2 x 10**5 steps: the grid takes 1.6 MB; slot_rows on all of it at
    # once held 27 MB
    cfg = IntegrationConfig(200.0, 1e-3)
    for name in ("boson_forced", "grassmann_forced"):
        spec = parse_scenario(SCENARIOS / f"{name}.ini").hamiltonian_spec()
        tracemalloc.start()
        try:
            result = classify_hamiltonian(spec, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, name
        forcing = np.abs(spec.slot_rows(cfg.times())[:, 2])
        assert result.max_forcing == float(np.max(forcing)), name


def test_classify_keeps_the_first_witness_over_blocks(monkeypatch):
    # one grid time per block: the forcing 0.3 t is zero at t = 0 alone
    monkeypatch.setattr(kernel, "TABLE_BYTES", 64)
    spec = HamiltonianSpec("fermion", const_fn(1.0), poly_fn(0.3, 1))
    cfg = IntegrationConfig(0.05, 1e-2)
    result = classify_hamiltonian(spec, cfg)
    times = cfg.times()
    assert result.witness_time == times[1]
    assert result.max_forcing == float(np.max(np.abs(spec.slot_rows(times)[:, 2])))


def test_classify_refuses_a_foreign_witness(gens1):
    forced = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.3))
    cfg = IntegrationConfig(1.0, 1e-3)
    s0 = make_coherent(gens1.gen("zeta"))
    foreign = (evolve_schrodinger_fermion(HamiltonianSpec("fermion", const_fn(1.0)), s0, cfg),
               evolve_schrodinger_fermion(forced, s0, IntegrationConfig(0.5, 1e-3)))
    for traj in foreign:
        with pytest.raises(ValidationError, match="witness trajectory"):
            classify_hamiltonian(forced, cfg, trajectory=traj)
    # the coefficients are read first
    with pytest.raises(StepTooLarge):
        classify_hamiltonian(dataclasses.replace(forced, forcing=const_fn(np.nan)), cfg,
                             trajectory=foreign[0])
    own = evolve_schrodinger_fermion(forced, s0, cfg)
    result = classify_hamiltonian(forced, cfg, trajectory=own)
    assert result.agrees and result.dynamic_max_residual == own.max_residual


def test_static_and_dynamic_verdicts_agree_on_random_family(rng):
    # forcing amplitudes are either exactly zero or bounded away from zero,
    # so the residual threshold separates the two classes cleanly
    cfg = IntegrationConfig(2.0, 4e-3, stride=20)
    for case in range(8):
        w0 = rng.uniform(0.5, 1.5)
        omega = const_fn(w0) + sin_fn(rng.uniform(-0.3, 0.3), rng.uniform(0.5, 2.0))
        if case % 2 == 0:
            forcing = zero_fn()
        else:
            amp = rng.uniform(0.1, 0.4) * np.exp(1j * rng.uniform(0, 2 * np.pi))
            forcing = const_fn(amp)
        spec = HamiltonianSpec("fermion", omega, forcing)
        result = classify_hamiltonian(spec, cfg)
        assert result.agrees, (case, result)


def test_invariant_form_theorem():
    # [b, B(t)] = 0 along the run iff nu_plus and nu_3 vanish iff forcing is 0
    gens = None
    cfg = IntegrationConfig(1.0, 1e-3)
    from cohstab.grassmann import GeneratorSet

    gens = GeneratorSet.from_pairs(("zeta",))
    b = FermionOperator.annihilator(gens)
    free = evolve_nu_system(HamiltonianSpec("fermion", const_fn(1.0)), cfg)
    forced = evolve_nu_system(
        HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.3)), cfg
    )
    for i in (0, 400, 1000):
        assert commutator(b, free.operator_at(i, gens)).sup_norm() < 1e-9
    assert np.max(np.abs(free.nu[:, 1])) < 1e-9
    assert np.max(np.abs(free.nu[:, 2])) < 1e-9
    assert max(
        commutator(b, forced.operator_at(i, gens)).sup_norm() for i in (400, 1000)
    ) > 1e-2
    assert np.max(np.abs(forced.nu[:, 1])) > 1e-2


# -- forcing reconstruction ---------------------------------------------------------


def test_free_path_reconstructs_to_zero_forcing(gens2):
    # zeta(t) = e^{-i t} zeta with constant omega = 1: eta = 0, delta = beta
    path = MultivectorPath.from_components(
        gens2, {"zeta": cos_fn(1.0, 1.0) + sin_fn(-1j, 1.0)}
    )
    h = reconstruct_forcing(path, const_fn(1.0), const_fn(0.1))
    for t in (0.0, 0.7, 1.9):
        op = hamiltonian_operator(h, t, gens2)
        assert op.c_plus.sup_norm() < 1e-15
        d = op.c_i
        assert abs(d.body - 0.1) < 1e-15
        assert d.soul().sup_norm() < 1e-15


def test_constant_path_reconstruction(gens2):
    # zeta constant: eta = omega zeta, delta = beta + omega zeta* zeta
    zeta = gens2.gen("zeta")
    path = MultivectorPath.from_components(gens2, {"zeta": const_fn(1.0)})
    op = hamiltonian_operator(reconstruct_forcing(path, const_fn(0.8), const_fn(0.2)),
                              1.3, gens2)
    assert op.c_plus.isclose(0.8 * zeta, 1e-15)
    want = 0.2 + 0.8 * (zeta.conjugate() * zeta)
    assert op.c_i.isclose(want, 1e-15)


def test_linear_drive_path_reconstruction(gens2):
    # zeta(t) = i h t eta_g with omega = 0 requires eta = h eta_g
    h = 0.25
    path = MultivectorPath.from_components(gens2, {"eta": poly_fn(1j * h, 1)})
    forced = reconstruct_forcing(path, zero_fn(), zero_fn())
    want = h * gens2.gen("eta")
    for t in (0.0, 0.5, 2.0):
        assert hamiltonian_operator(forced, t, gens2).c_plus.isclose(want, 1e-15)


def test_reconstruction_round_trip(gens2):
    path = MultivectorPath.from_components(
        gens2,
        {
            "zeta": cos_fn(1.0, 1.0) + sin_fn(-1j, 1.0),
            "eta": sin_fn(0.3, 1.0),
        },
    )
    omega, beta = const_fn(1.0), const_fn(0.1)
    cfg = IntegrationConfig(2.0, 1e-3)
    evolved = evolve_grassmann_classical(reconstruct_forcing(path, omega, beta),
                                         path(0.0), cfg)
    for i in range(0, len(evolved.times), 200):
        assert (evolved.zeta_at(i) - path(evolved.times[i])).sup_norm() < 1e-8


def test_path_must_be_degree_one(gens2):
    with pytest.raises(NotDegreeOne):
        MultivectorPath(gens2, ((0b0011, const_fn(1.0)),))


def test_path_refuses_a_repeated_mask(gens2):
    zeta = 1 << gens2.index("zeta")
    with pytest.raises(ValidationError, match=f"mask {zeta} has more than one component"):
        MultivectorPath.from_components(gens2, {"zeta": const_fn(1.0), zeta: const_fn(2.0)})
    with pytest.raises(ValidationError, match="mask 1 has more than one component"):
        MultivectorPath(gens2, ((1, const_fn(1.0)), (1, const_fn(2.0))))


# -- trajectory verification -----------------------------------------------------------


def test_verify_free_fermion_run(gens1):
    spec = HamiltonianSpec(
        "fermion", const_fn(1.0) + sin_fn(0.5, 1.0), zero_fn(), zero_fn()
    )
    traj = evolve_schrodinger_fermion(spec, make_coherent(gens1.gen("zeta")),
                                      IntegrationConfig(2.0, 1e-3))
    report = verify_trajectory(traj, "fermion_free")
    assert report.passed
    assert report.max_eigenvalue_deviation < 1e-8


def test_verify_rejects_forced_run(gens1):
    spec = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.3))
    traj = evolve_schrodinger_fermion(spec, make_coherent(gens1.gen("zeta")),
                                      IntegrationConfig(1.0, 1e-3))
    report = verify_trajectory(traj, "fermion_free")
    assert not report.passed
    assert report.max_residual > 1e-3


def test_verify_grassmann_run_with_phase(gens2):
    forcing = complex_pair(cos_fn(0.4, 1.0), sin_fn(-0.4, 1.0))
    spec = HamiltonianSpec("grassmann", const_fn(1.0), forcing, const_fn(0.1),
                           gens=gens2, eta_generator="eta")
    traj = evolve_schrodinger_fermion(spec, make_coherent(gens2.gen("zeta")),
                                      IntegrationConfig(2.0, 1e-3))
    report = verify_trajectory(traj, "grassmann")
    assert report.passed
    assert report.max_state_deviation < 1e-8


def test_verify_without_a_carried_law_integrates_the_same_law(gens2):
    forcing = complex_pair(cos_fn(0.4, 1.0), sin_fn(-0.4, 1.0))
    spec = HamiltonianSpec("grassmann", const_fn(1.0), forcing, const_fn(0.1),
                           gens=gens2, eta_generator="eta")
    traj = evolve_schrodinger_fermion(spec, make_coherent(gens2.gen("zeta")),
                                      IntegrationConfig(0.5, 1e-3, stride=7))
    assert traj.law is not None
    carried = verify_trajectory(traj, "grassmann")
    integrated = verify_trajectory(dataclasses.replace(traj, law=None), "grassmann")
    assert carried.passed and integrated == carried
    fields = ("max_eigenvalue_deviation", "max_residual", "max_state_deviation")
    got, want = (np.array([getattr(r, f) for f in fields]) for r in (integrated, carried))
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("omega, error", [(np.nan, StepTooLarge), (1 + 0.5j, NotHermitian)],
                         ids=["nan", "complex"])
def test_verify_free_law_reads_omega_through_slot_rows(gens1, omega, error):
    spec = HamiltonianSpec("fermion", const_fn(1.0))
    traj = evolve_schrodinger_fermion(spec, make_coherent(gens1.gen("zeta")),
                                      IntegrationConfig(0.1, 1e-2))
    swapped = dataclasses.replace(traj, spec=dataclasses.replace(spec, omega=const_fn(omega)))
    with pytest.raises(error, match="^omega "):
        verify_trajectory(swapped, "fermion_free")


def test_free_law_rotation_is_the_per_record_scalar_bit_for_bit(rng):
    # verify's "fermion_free" law rotates by one np.exp over the records'
    # phases; each entry is that of the scalar factor taken record by record
    phase = rng.choice([-1.0, 1.0], 200_000) * 10.0 ** rng.uniform(0.0, 12.0, 200_000)
    records = np.sort(rng.choice(phase.size, 20_000, replace=False))
    got = np.exp(-1j * phase[records])
    want = np.array([complex(np.exp(-1j * phase[i])) for i in records])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def test_verify_boson_run():
    spec = HamiltonianSpec("boson", const_fn(1.0), const_fn(0.2))
    traj = evolve_schrodinger_boson(spec, make_coherent_boson(0.5, 64),
                                    IntegrationConfig(np.pi, 1e-3))
    report = verify_trajectory(traj, "boson")
    assert report.passed


@pytest.mark.parametrize("kind, law", [("fermion", "boson"), ("boson", "grassmann"),
                                       ("boson", "fermion_free")])
def test_verify_refuses_a_law_of_another_sector(gens1, kind, law):
    cfg = IntegrationConfig(0.1, 1e-2)
    if kind == "boson":
        traj = evolve_schrodinger_boson(HamiltonianSpec("boson", const_fn(1.0)),
                                        make_coherent_boson(0.5, 16), cfg)
    else:
        traj = evolve_schrodinger_fermion(HamiltonianSpec("fermion", const_fn(1.0)),
                                          make_coherent(gens1.gen("zeta")), cfg)
    with pytest.raises(ValidationError):
        verify_trajectory(traj, law)


def test_verify_requires_eigenvalues(gens1):
    spec = HamiltonianSpec("fermion", const_fn(1.0))
    traj = evolve_schrodinger_fermion(spec, make_coherent(gens1.gen("zeta")),
                                      IntegrationConfig(0.1, 1e-2))
    traj.lams[:] = complex(np.nan, np.nan)
    with pytest.raises(MissingEigenvalues):
        verify_trajectory(traj, "fermion_free")


@pytest.mark.parametrize("law", ["fermion_free", "grassmann"])
def test_verify_refuses_a_dense_trajectory(gens1, law):
    def rows(ts):  # omega = 1 at the body of b†b
        c = np.zeros((len(ts), 4, gens1.dim), dtype=complex)
        c[:, 3, 0] = 1.0
        return c

    traj = evolve_schrodinger_fermion(DenseHamiltonian("fermion", gens1, rows),
                                      make_coherent(gens1.gen("zeta")),
                                      IntegrationConfig(0.1, 1e-2))
    with pytest.raises(ValidationError, match="no HamiltonianSpec"):
        verify_trajectory(traj, law)


def test_phase_consistency_free_fermion(gens1):
    # H_fc with scalar term: U|z> = e^{i phi}|z(t)> with phi = -int g'
    spec = HamiltonianSpec("fermion", const_fn(1.0), zero_fn(), const_fn(0.2))
    cfg = IntegrationConfig(2.0, 1e-3, stride=200)
    zeta = gens1.gen("zeta")
    traj = evolve_schrodinger_fermion(spec, make_coherent(zeta), cfg)
    for k, idx in enumerate(traj.record_indices):
        t = traj.config.times()[int(idx)]
        law = complex(np.exp(-1j * t)) * zeta
        reference = complex(np.exp(-1j * 0.2 * t)) * make_coherent(law)
        assert (traj.states[k] - reference).sup_norm() < 1e-9
        factor = traj.phase_factors[k]
        assert abs(factor.body - np.exp(-1j * 0.2 * t)) < 1e-9
