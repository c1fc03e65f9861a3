"""The row-batched observer against the per-record loop it replaced.

The references below are the object-level code that evolve_schrodinger_fermion,
Trajectory.phase_factors and verify_trajectory ran once per record before the
observer worked on arrays: one Multivector operation at a time, each graded
product a one-row kernel call. Every output must match them as raw bits.
"""

import importlib.util
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from cohstab import dynamics, kernel
from cohstab.coeffs import const_fn
from cohstab.coherence import verify_trajectory
from cohstab.dynamics import (
    IntegrationConfig,
    _slot_columns,
    cumulative_simpson,
    evolve_grassmann_classical,
)
from cohstab.errors import VacuumAmplitudeZero
from cohstab.fermion import (
    FermionState,
    _record_blocks,
    extract_eigenvalue,
    inner_product,
    make_coherent,
)
from cohstab.grassmann import (
    PRUNE_TOL,
    GeneratorSet,
    Multivector,
    exponential,
    invert,
)
from cohstab.kernel import tables
from cohstab.scenario import parse_scenario

ROOT = Path(__file__).resolve().parent.parent
NAN_ROW = complex(np.nan, np.nan)


def bits(a) -> np.ndarray:
    """Raw float bits, so that signed zeros count."""
    return np.ascontiguousarray(a, dtype=np.complex128).view(np.uint64)


def fbits(a) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


# -- the per-record references --------------------------------------------------


def ref_series(x: Multivector, u: Multivector, step):
    """The soul series loop as invert and exponential each had it; also
    returns the k at which it stopped."""
    acc = x.gens.one()
    term = x.gens.one()
    k = 0
    for k in range(1, x.gens.n_generators + 1):
        term = step(term * u, k)
        if term.sup_norm() <= 0.0:
            break
        acc = acc + term
    return acc, k


def ref_exponential(x: Multivector) -> Multivector:
    acc, _ = ref_series(x, x.soul(), lambda t, k: t / k)
    return acc * complex(np.exp(x.body))


def ref_invert(x: Multivector) -> Multivector:
    b = x.body
    acc, _ = ref_series(x, x.soul() / b, lambda t, k: t * (-1.0))
    return acc / b


def ref_make_coherent(zeta: Multivector) -> FermionState:
    n = ref_exponential(-0.5 * (zeta.conjugate() * zeta))
    return FermionState(zeta.gens, n, -(n * zeta))


def ref_inner_product(s1: FermionState, s2: FermionState) -> Multivector:
    return s1.psi0.conjugate() * s2.psi0 + s1.psi1.conjugate() * s2.psi1


def ref_extract_eigenvalue(s: FermionState, norm_body: float):
    if not abs(s.psi0.body) >= 1e-150:
        raise VacuumAmplitudeZero("state has no vacuum-amplitude body")
    g1 = s.psi1.grade_involution()
    lam = g1 * ref_invert(s.psi0)
    applied = FermionState(s.gens, g1, s.gens.zero())  # b|s>
    diff = applied - (lam * s)
    return lam, diff.sup_norm() / norm_body


def ref_is_odd_degree_one(x: Multivector) -> bool:
    off = np.abs(x.coeffs[tables.degrees(x.gens.n_generators) != 1])
    return bool(off.size == 0 or np.max(off) <= PRUNE_TOL)


def ref_observer(gens, records):
    """The record loop of evolve_schrodinger_fermion: states, eigenvalues
    (None without one), residuals and norm_dev."""
    states = [FermionState(gens, Multivector(gens, y[0]), Multivector(gens, y[1]))
              for y in records]
    ip0 = ref_inner_product(states[0], states[0])  # record 0 is the start
    eigenvalues, residuals, norm_dev = [], [], []
    for state in states:
        norm = ref_inner_product(state, state).body
        norm_dev.append(abs(norm - ip0.body))
        try:
            lam, res = ref_extract_eigenvalue(state, norm.real)
        except VacuumAmplitudeZero:
            lam, res = None, np.inf
        eigenvalues.append(lam)
        residuals.append(res)
    return states, eigenvalues, np.asarray(residuals), np.asarray(norm_dev)


def ref_phase_factors(states, eigenvalues):
    return [state.psi0 * ref_invert(ref_make_coherent(lam).psi0)
            if lam is not None and ref_is_odd_degree_one(lam) else None
            for state, lam in zip(states, eigenvalues)]


def ref_verify(traj, law, states, eigenvalues):
    """verify_trajectory's (max eigenvalue deviation, max state deviation)."""
    lam0 = eigenvalues[0]
    if law == "fermion_free":
        times = traj.config.times()
        omega = _slot_columns(traj.spec, times, [3])[:, 0]
        phase = cumulative_simpson(omega.real, times[1] - times[0])
        devs = [(eigenvalues[k] - complex(np.exp(-1j * phase[int(idx)])) * lam0).sup_norm()
                for k, idx in enumerate(traj.record_indices)]
        return float(np.max(devs)), None
    path = evolve_grassmann_classical(traj.spec, lam0, traj.config, traj.record_indices)
    devs, sdevs = [], []
    for k in range(len(traj.record_indices)):
        devs.append((eigenvalues[k] - path.zeta_at(k)).sup_norm())
        reference = ref_exponential(1j * path.phi_at(k)) * ref_make_coherent(path.zeta_at(k))
        sdevs.append((states[k] - reference).sup_norm())
    return float(np.max(devs)), float(np.max(sdevs))


def rows_of(objects, dim):
    return np.array([np.full(dim, NAN_ROW) if x is None else x.coeffs for x in objects])


def assert_observer_matches(traj):
    states, eigenvalues, residuals, norm_dev = ref_observer(traj.gens, traj.amplitudes)
    assert np.array_equal(bits(traj.lams), bits(rows_of(eigenvalues, traj.gens.dim)))
    assert np.array_equal(fbits(traj.residuals), fbits(residuals))
    assert np.array_equal(fbits(traj.norm_dev), fbits(norm_dev))
    factors = ref_phase_factors(states, eigenvalues)
    got = rows_of(traj.phase_factors, traj.gens.dim)
    assert np.array_equal(bits(got), bits(rows_of(factors, traj.gens.dim)))
    return states, eigenvalues


# -- the shipped scenarios and the benchmark's grassmann_wide seed 0 --------------


def _load_workload_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks itself up there
    spec.loader.exec_module(module)
    return module


def _scenario(name):
    if name == "grassmann_wide_s0":
        inputs = _load_workload_inputs()
        return parse_scenario(inputs.grassmann_wide_text(0, inputs.T_END["grassmann_wide"]["full"]))
    return parse_scenario(ROOT / "scenarios" / f"{name}.ini")


CASES = {"free_fermion": "fermion_free", "forced_fermion": "fermion_free",
         "grassmann_forced": "grassmann", "grassmann_wide_s0": "grassmann"}


@pytest.mark.parametrize("name", CASES)
def test_observer_matches_per_record_loop_on_runs(name):
    scenario = _scenario(name)
    zeta = scenario.initial_zeta()
    s0 = make_coherent(zeta)
    ref0 = ref_make_coherent(zeta)
    for got, want in ((s0.psi0, ref0.psi0), (s0.psi1, ref0.psi1)):
        assert np.array_equal(bits(got.coeffs), bits(want.coeffs))
    traj = dynamics.evolve_schrodinger_fermion(scenario.hamiltonian_spec(), s0,
                                               scenario.config)
    states, eigenvalues = assert_observer_matches(traj)
    # forced_fermion's law does not hold; its deviations must match all the same
    law = CASES[name]
    report = verify_trajectory(traj, law)
    eig_dev, state_dev = ref_verify(traj, law, states, eigenvalues)
    assert fbits(report.max_eigenvalue_deviation) == fbits(eig_dev)
    assert fbits(report.max_residual) == fbits(np.max(traj.residuals))
    if state_dev is None:
        assert report.max_state_deviation is None
    else:
        assert fbits(report.max_state_deviation) == fbits(state_dev)


# -- crafted records --------------------------------------------------------------


def awkward(rng, shape) -> np.ndarray:
    """Complex values whose parts are normal, +-0.0 or subnormal."""
    parts = rng.standard_normal(shape + (2,))
    draw = rng.random(shape + (2,))
    parts[draw < 0.3] = 0.0
    parts[(draw >= 0.3) & (draw < 0.4)] *= 1e-310
    parts[rng.random(shape + (2,)) < 0.5] *= -1.0
    out = np.empty(shape, dtype=np.complex128)
    out.real, out.imag = parts[..., 0], parts[..., 1]
    return out


def crafted_records(gens, rng):
    """Records whose psi0 souls stop the series at different k (a soul of
    one, two, ... disjoint generator pairs), rows with no vacuum body (an
    exact +-0 body, and one below the 1e-150 gate), and coherent rows."""
    dim, m = gens.dim, gens.m
    rows = []
    for pairs in range(m + 1):
        y = awkward(rng, (2, dim))
        soul = np.zeros(dim, dtype=bool)
        for p in range(pairs):
            soul[(1 << 2 * p) | (1 << 2 * p + 1)] = True  # g_p g_p*
        y[0, 1:] = np.where(soul[1:], y[0, 1:] + 0.5, y[0, 1:] * 0.0)
        y[0, 0] = 1.0 + 0.25j
        rows.append(y)
    for body in (complex(0.0, -0.0), complex(-0.0, 0.0), 1e-160):
        y = awkward(rng, (2, dim))
        y[0, 0] = body
        rows.append(y)
    zeta = Multivector(gens, np.where(tables.degrees(gens.n_generators) == 1,
                                      awkward(rng, (dim,)), 0.0))
    for scale in (1.0, -0.5j):
        s = ref_make_coherent(scale * zeta)
        rows.append(np.stack((s.psi0.coeffs, s.psi1.coeffs)))
    rows.append(awkward(rng, (2, dim)))
    return np.array(rows)


@pytest.mark.parametrize("n_pairs", [1, 2, 4])
def test_observer_matches_per_record_loop_on_crafted_records(n_pairs, monkeypatch):
    gens = GeneratorSet.from_pairs(("zeta", "eta", "chi", "xi")[:n_pairs])
    rng = np.random.default_rng(n_pairs)
    records = crafted_records(gens, rng)
    # the rows stop their invert series at different k
    stops = {ref_series(Multivector(gens, y[0]), Multivector(gens, y[0]).soul(),
                        lambda t, k: t)[1] for y in records[:n_pairs + 1]}
    assert len(stops) == n_pairs + 1
    # enough of them for three blocks of records, of a few records each
    monkeypatch.setattr(kernel, "TABLE_BYTES", 4096)
    while len(_record_blocks(records)) < 3:
        records = np.concatenate((records, crafted_records(gens, rng)))
    monkeypatch.setattr(dynamics, "_integrate", lambda *a, **kw: (records.copy(), [0.0]))
    spec = dynamics.HamiltonianSpec("fermion", const_fn(1.0))
    traj = dynamics.evolve_schrodinger_fermion(
        spec, FermionState.vacuum(gens), IntegrationConfig(len(records) - 1.0, 1.0, 1))
    assert sum(lam is None for lam in traj.eigenvalues) >= 3
    assert_observer_matches(traj)


# -- the object-level functions are their one-row case -----------------------------


@pytest.mark.parametrize("n_pairs", [1, 2, 4])
def test_object_functions_match_references(n_pairs):
    gens = GeneratorSet.from_pairs(("zeta", "eta", "chi", "xi")[:n_pairs])
    rng = np.random.default_rng(40 + n_pairs)
    for y in crafted_records(gens, rng):
        s = FermionState(gens, Multivector(gens, y[0]), Multivector(gens, y[1]))
        assert np.array_equal(bits(inner_product(s, s).coeffs),
                              bits(ref_inner_product(s, s).coeffs))
        for x in (s.psi0, s.psi1):
            assert np.array_equal(bits(exponential(x).coeffs), bits(ref_exponential(x).coeffs))
        if abs(s.psi0.body) < 1e-150:
            with pytest.raises(VacuumAmplitudeZero):
                extract_eigenvalue(s)
            continue
        assert np.array_equal(bits(invert(s.psi0).coeffs), bits(ref_invert(s.psi0).coeffs))
        lam, res = extract_eigenvalue(s)
        want, want_res = ref_extract_eigenvalue(s, float(ref_inner_product(s, s).body.real))
        assert np.array_equal(bits(lam.coeffs), bits(want.coeffs))
        assert fbits(res) == fbits(want_res)


# -- memory ------------------------------------------------------------------------


def _traced_peak(fn):
    """fn()'s result and the peak of the memory Python allocated meanwhile."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


PRODUCTS = ["compiled", "numpy"]  # kernel.multiply's, numpy forced by a fixture


def _use(product, request):
    if product == "numpy":
        request.getfixturevalue("numpy_product")


@pytest.mark.parametrize("product", PRODUCTS)
def test_observer_memory_stays_at_one_block_of_records(product, request, monkeypatch):
    # 4000 records at 16 coefficients take 2 MB, a block of them 51 KB; the
    # observer on all records at once took 14 MB
    _use(product, request)
    gens = GeneratorSet.from_pairs(("zeta", "eta"))
    records = awkward(np.random.default_rng(5), (4000, 2, gens.dim))
    records[:, 0, 0] = 1.0
    monkeypatch.setattr(dynamics, "_integrate", lambda *a, **kw: (records.copy(), [0.0]))
    spec = dynamics.HamiltonianSpec("fermion", const_fn(1.0))
    traj, peak = _traced_peak(lambda: dynamics.evolve_schrodinger_fermion(
        spec, FermionState.vacuum(gens), IntegrationConfig(len(records) - 1.0, 1.0, 1)))
    assert np.isfinite(traj.residuals).all()
    # what the trajectory keeps: the records' copy and the eigenvalues
    assert peak < records.nbytes + traj.lams.nbytes + 2**21


@pytest.mark.parametrize("product", PRODUCTS)
def test_verify_state_memory_stays_at_one_block_of_records(product, request):
    # 1001 records at 16 coefficients; the law's path (zeta, phi) is as
    # large as the amplitudes, and the reference states on all records at
    # once took 2.3 MB
    _use(product, request)
    scenario = parse_scenario(ROOT / "scenarios" / "grassmann_forced.ini")
    traj = dynamics.evolve_schrodinger_fermion(
        scenario.hamiltonian_spec(), make_coherent(scenario.initial_zeta()),
        IntegrationConfig(1.0, 1e-3, 1))
    assert traj.gens.dim == 16 and len(traj.amplitudes) == 1001
    report, peak = _traced_peak(lambda: verify_trajectory(traj, "grassmann"))
    assert report.passed
    assert peak < 2 * traj.amplitudes.nbytes + 2**19
