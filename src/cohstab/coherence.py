"""Executable forms of the stability theorems.

check_eigenstate certifies a single state; classify_hamiltonian gives the
static preserving/non-preserving verdict, with a dynamic witness trajectory
for the fermion kind; reconstruct_forcing inverts a prescribed eigenvalue
path into a Hamiltonian; verify_trajectory compares an evolved
trajectory against the classical law of its kind: the closed form for the
boson and free-fermion laws, and for the grassmann law the independent
integration that a grassmann spec's trajectory carries (its own rows of
the same driver loop, which no trajectory row reaches).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from . import kernel
from .boson import BosonState, eigenvalue_lsq
from .coeffs import CoefficientFn
from .dynamics import (
    VALID_KINDS,
    DenseHamiltonian,
    HamiltonianSpec,
    IntegrationConfig,
    Trajectory,
    _boson_closed_form,
    _check_spec,
    _refuse_eta,
    _slot_columns,
    cumulative_simpson,
    evolve_schrodinger_fermion,
)
from .errors import (
    MissingEigenvalues,
    NotDegreeOne,
    ValidationError,
    VacuumAmplitudeZero,
)
from .fermion import (
    FermionState,
    _amplitude_products,
    _record_blocks,
    extract_eigenvalue,
    make_coherent,
)
from .grassmann import GeneratorSet, Multivector, exponential, require_odd_degree_one

#: Residual below which a fermion-sector state counts as coherent (exact sector).
FERMION_COHERENT_TOL = 1e-8

#: Residual below which a truncated boson state counts as coherent.
BOSON_COHERENT_TOL = 1e-6

#: Forcing amplitudes below this are "statically zero".
STATIC_ZERO_TOL = 1e-12

#: Residual above which a trajectory is visibly non-coherent.
DYNAMIC_RESIDUAL_TOL = 1e-3

#: verify_trajectory pass threshold for deviations and residuals.
VERIFY_TOL = 1e-6


@dataclass(frozen=True)
class CoherenceReport:
    eigenvalue: object
    residual: float
    is_coherent: bool
    reason: str | None = None


def check_eigenstate(s) -> CoherenceReport:
    """Annihilation-eigenstate check for a fermion or boson state."""
    if isinstance(s, FermionState):
        try:
            lam, res = extract_eigenvalue(s)
        except VacuumAmplitudeZero as exc:
            return CoherenceReport(None, np.inf, False, reason=str(exc))
        return CoherenceReport(lam, res, res <= FERMION_COHERENT_TOL)
    if isinstance(s, BosonState):
        if s.norm() == 0.0:
            return CoherenceReport(None, np.inf, False, reason="zero state")
        lam, res = eigenvalue_lsq(s)
        return CoherenceReport(lam, res, res <= BOSON_COHERENT_TOL)
    raise TypeError(f"expected FermionState or BosonState, got {type(s).__name__}")


# -- classification ------------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    verdict: str  # "preserving" | "non_preserving"
    kind: str
    max_forcing: float
    witness_time: float | None = None
    dynamic_max_residual: float | None = None
    agrees: bool | None = None


def classify_hamiltonian(spec: HamiltonianSpec, config: IntegrationConfig,
                         trajectory: Trajectory | None = None) -> Classification:
    """Preserving/non-preserving verdict, with a dynamic cross-check for
    the fermion kind.

    The forcing is read from slot_rows at config's grid times, a block of
    TABLE_BYTES of rows at a time, which refuses a non-real omega or scalar
    and a non-finite coefficient (StepTooLarge); then a `trajectory` not of
    `spec` on `config` is refused (ValidationError).
    Boson and grassmann kinds always preserve; nothing is integrated. A
    fermion kind preserves iff the forcing vanishes on the grid. Its witness is `trajectory`,
    or one evolved from the coherent state of the first generator:
    dynamic_max_residual is its worst residual, and agrees says whether that
    residual, against DYNAMIC_RESIDUAL_TOL, gives the static verdict.
    """
    _check_spec(spec, VALID_KINDS)
    max_forcing, witness_time = 0.0, None
    for rows in kernel.row_blocks(config.n_steps + 1, 64):  # a slot row: 4 complex values
        times = config.times(rows)
        forcing = np.abs(spec.slot_rows(times)[:, 2])
        max_forcing = max(max_forcing, float(np.max(forcing)))
        if witness_time is None and (forcing > STATIC_ZERO_TOL).any():
            witness_time = float(times[np.argmax(forcing > STATIC_ZERO_TOL)])
    if trajectory is not None and (trajectory.spec != spec or trajectory.config != config):
        raise ValidationError("a witness trajectory of another spec or config")
    if spec.kind != "fermion":
        return Classification("preserving", spec.kind, max_forcing)

    static_preserving = max_forcing <= STATIC_ZERO_TOL

    if trajectory is None:
        gens = spec.gens or GeneratorSet.from_pairs(("zeta",))
        s0 = make_coherent(gens.gen(0))
        trajectory = evolve_schrodinger_fermion(spec, s0, config)
    dynamic_max = trajectory.max_residual
    agrees = (dynamic_max <= DYNAMIC_RESIDUAL_TOL) == static_preserving

    verdict = "preserving" if static_preserving else "non_preserving"
    return Classification(verdict, "fermion", max_forcing, witness_time,
                          dynamic_max, agrees)


# -- forcing reconstruction ------------------------------------------------------


@dataclass(frozen=True)
class MultivectorPath:
    """Odd degree-one path with analytically differentiable components."""

    gens: GeneratorSet
    components: tuple[tuple[int, CoefficientFn], ...]

    def __post_init__(self):
        seen = set()
        for mask, _ in self.components:
            if mask == 0 or mask & (mask - 1):
                raise NotDegreeOne(f"mask {mask} is not a single generator")
            if mask >= self.gens.dim:
                raise NotDegreeOne(f"mask {mask} outside the algebra")
            if mask in seen:
                raise ValidationError(f"mask {mask} has more than one component")
            seen.add(mask)

    @classmethod
    def from_components(cls, gens: GeneratorSet,
                        components: Mapping[int | str, CoefficientFn]):
        # String keys name generators; integer keys are monomial masks already.
        items = []
        for key, fn in components.items():
            mask = (1 << gens.index(key)) if isinstance(key, str) else int(key)
            items.append((mask, fn))
        return cls(gens, tuple(sorted(items, key=lambda kv: kv[0])))

    def __call__(self, t):
        """Coefficient rows (len(t), dim) at a 1-D array of times t; at a
        scalar time, its one row as a Multivector."""
        if np.ndim(t) == 0:
            return Multivector(self.gens, self(np.array([t], dtype=float))[0], _copy=False)
        rows = np.zeros((len(t), self.gens.dim), dtype=np.complex128)
        for mask, fn in self.components:
            rows[:, mask] = fn(np.asarray(t, dtype=float))
        return rows

    def derivative(self) -> "MultivectorPath":
        return MultivectorPath(
            self.gens,
            tuple((mask, fn.derivative()) for mask, fn in self.components),
        )


def reconstruct_forcing(zeta_path: MultivectorPath, omega: CoefficientFn,
                        beta: CoefficientFn) -> DenseHamiltonian:
    """The grassmann Hamiltonian that drives the prescribed path.

    eta(t) = omega*zeta - i*zeta';  delta(t) = beta + omega*zeta*conj-pairing
    - (i/2)(zeta* zeta' - zeta'* zeta). Returned as a DenseHamiltonian whose
    rows (delta, -eta*, eta, omega at the body) at a 1-D array of times
    evaluate the path, its derivative, omega and beta once each, with each
    graded product one kernel.multiply. Feeding it back into the classical
    integrator reproduces the path.
    """
    gens, n_gen = zeta_path.gens, zeta_path.gens.n_generators
    zdot = zeta_path.derivative()

    def rows(ts):
        z, zd, w = zeta_path(ts), zdot(ts), omega(ts)
        zc, zdc = kernel.conjugate(z, n_gen), kernel.conjugate(zd, n_gen)
        c = np.zeros((len(ts), 4, gens.dim), dtype=np.complex128)
        eta = w[:, None] * z - 1j * zd
        c[:, 1], c[:, 2] = -kernel.conjugate(eta, n_gen), eta
        c[:, 0] = w[:, None] * kernel.multiply(zc, z, n_gen) - 0.5j * (
            kernel.multiply(zc, zd, n_gen) - kernel.multiply(zdc, z, n_gen))
        c[:, 0, 0] += beta(ts)
        c[:, 3, 0] = w
        return c

    return DenseHamiltonian("grassmann", gens, rows)


# -- trajectory verification ------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    law: str
    passed: bool
    max_eigenvalue_deviation: float
    max_residual: float
    max_state_deviation: float | None = None


def verify_trajectory(traj: Trajectory) -> VerificationReport:
    """Compare recorded eigenvalues (and, for grassmann, states) with the
    law of the trajectory's kind.

    A fermion follows "fermion_free" (phase-rotated initial eigenvalue), a
    grassmann "grassmann" (classical forced law plus phase: the path
    traj.law, gated here by its dt vs dt/2 gap), a boson "boson"
    (closed-form classical eigenvalue). Passes iff deviations and residuals
    are <= 1e-6. A grassmann trajectory without a law is refused as the
    law refuses its record-0 eigenvalue (NotOddLinear, then
    GeneratorCollision), or else as a law stripped by hand (ValidationError).
    """
    if np.isnan(traj.lams).all():
        raise MissingEigenvalues("trajectory has no eigenvalue records")
    if not isinstance(traj.spec, HamiltonianSpec):
        raise ValidationError("trajectory carries no HamiltonianSpec to verify against")

    max_res = traj.max_residual
    state_dev = None

    law = "fermion_free" if traj.kind == "fermion" else traj.kind
    if law == "fermion_free":
        omega = _slot_columns(traj.spec, traj.config, [3])[:, 0]
        phase = cumulative_simpson(omega.real, traj.config.t_end / traj.config.n_steps)
        rotation = np.exp(-1j * phase[traj.record_indices])
        max_dev = float(np.max(np.abs(traj.lams - rotation[:, None] * traj.lams[0])))
    elif law == "grassmann":
        n_gen = traj.gens.n_generators
        path = traj.law
        if path is None:  # a run that cannot carry its law: refused as the law refuses it
            zeta0 = Multivector(traj.gens, traj.lams[0])
            require_odd_degree_one(zeta0, "initial eigenvalue")
            _refuse_eta(traj.spec, zeta0)
            raise ValidationError("a grassmann trajectory that does not carry its law")
        path.gate()
        max_dev = float(np.max(np.abs(traj.lams - path.zeta)))
        block_devs = []  # the law's states, rebuilt a block of records at a time
        for rows in _record_blocks(traj.amplitudes):
            phase = np.repeat(exponential(1j * path.phi[rows])[:, None], 2, axis=1)
            reference = _amplitude_products(phase, make_coherent(path.zeta[rows]), n_gen)
            block_devs.append(np.max(np.abs(traj.amplitudes[rows] - reference)))
        state_dev = float(np.max(block_devs))
    else:
        z_closed = _boson_closed_form(traj.spec, complex(traj.lams[0, 0]), traj.config)
        max_dev = float(np.max(np.abs(traj.lams[:, 0] - z_closed[traj.record_indices])))

    passed = max_dev <= VERIFY_TOL and max_res <= VERIFY_TOL
    if state_dev is not None:
        passed = passed and state_dev <= VERIFY_TOL
    return VerificationReport(law, passed, max_dev, max_res, state_dev)
