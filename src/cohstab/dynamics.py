"""Time propagation and invariant construction.

Every evolution goes through one fixed-step classical RK4 driver on a
uniform grid, with a mandatory dt vs dt/2 endpoint comparison (StepTooLarge
on disagreement or NaN). The driver advances the dt run and the dt/2 run in
lock step, so every right-hand side takes a batch of rows: rhs(c, Y) with Y
of shape (R,) + the state's shape and c the coefficient rows of their stage
times. Each evolution hands the driver one vectorised coefficient function;
the driver tabulates it once per chunk of grid steps on the distinct stage
times, bit-identical to evaluating it at each time alone.
Phase integrals use cumulative Simpson on the same grid so closed forms and
RK4 cross-validate at matching order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernel
from .boson import BosonState, eigenvalue_lsq
from .coeffs import CoefficientFn, zero_fn
from .errors import (
    GeneratorCollision,
    GridTooCoarse,
    MismatchedGenerators,
    NotHermitian,
    StepTooLarge,
    TruncationBreach,
    VacuumAmplitudeZero,
    ValidationError,
)
from .fermion import (
    FermionOperator,
    FermionState,
    _compose_coeff_arrays,
    extract_eigenvalue,
    inner_product,
    make_coherent,
)
from .grassmann import GeneratorSet, Multivector, invert, require_odd_degree_one

#: Endpoint tolerance for the dt vs dt/2 self-check.
STEP_TOL = 1e-8

#: Tail-mass threshold for truncated boson evolution.
BREACH_TOL = 1e-6

#: Hermiticity tolerance for Hamiltonian builders.
HERMITIAN_TOL = 1e-12

#: Largest grid an IntegrationConfig accepts, checked before anything is
#: allocated (the dt/2 self-check runs twice as many steps).
MAX_STEPS = 10**7

VALID_KINDS = ("boson", "fermion", "grassmann")


# -- grids -----------------------------------------------------------------


@dataclass(frozen=True)
class IntegrationConfig:
    """Uniform grid on [0, t_end]; dt is nudged so it divides t_end exactly."""

    t_end: float
    dt: float = 1e-3
    stride: int = 10

    def __post_init__(self):
        if not 0 < self.t_end < math.inf:
            raise ValidationError("t_end must be positive and finite")
        if not 0 < self.dt < math.inf:
            raise ValidationError("dt must be positive and finite")
        if not self.dt <= self.t_end:
            raise ValidationError(f"dt = {self.dt:g} exceeds t_end = {self.t_end:g}")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ValidationError(
                f"t_end / dt = {self.t_end / self.dt:.3g} exceeds MAX_STEPS = {MAX_STEPS}"
            )
        if self.stride < 1:
            raise ValidationError("stride must be at least 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, self.n_steps + 1)

    def refined_times(self) -> np.ndarray:
        return np.linspace(0.0, self.t_end, 2 * self.n_steps + 1)

    def record_indices(self) -> np.ndarray:
        idx = list(range(0, self.n_steps + 1, self.stride))
        if idx[-1] != self.n_steps:
            idx.append(self.n_steps)
        return np.asarray(idx, dtype=np.int64)


def cumulative_simpson(y: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative Simpson integral from the grid start, O(dt^4).

    Even points accumulate full Simpson panels; odd points integrate half of
    the quadratic through the local point triple.
    """
    y = np.asarray(y)
    n = y.size
    out = np.zeros(n, dtype=np.result_type(y.dtype, np.float64))
    if n == 1:
        return out
    if n == 2:
        out[1] = 0.5 * dt * (y[0] + y[1])
        return out
    panels = dt / 3.0 * (y[0:-2:2] + 4.0 * y[1:-1:2] + y[2::2])
    out[2::2] = np.cumsum(panels)
    odd = np.arange(1, n, 2)
    inner = odd[odd + 1 <= n - 1]
    out[inner] = out[inner - 1] + dt / 12.0 * (
        5.0 * y[inner - 1] + 8.0 * y[inner] - y[inner + 1]
    )
    if n % 2 == 0:
        i = n - 1
        out[i] = out[i - 1] + dt / 12.0 * (-y[i - 2] + 8.0 * y[i - 1] + 5.0 * y[i])
    return out


# -- Hamiltonian data --------------------------------------------------------


@dataclass(frozen=True)
class HamiltonianSpec:
    """Coefficient functions of one time-dependent Hamiltonian family.

    kind "boson":     omega*a†a + forcing*a† + conj(forcing)*a + scalar
    kind "fermion":   omega*b†b + forcing*b† + conj(forcing)*b + scalar
    kind "grassmann": omega*b†b + eta*b† - conj(eta)*b + scalar,
                      eta(t) = forcing(t) * (the named odd generator)
    """

    kind: str
    omega: CoefficientFn
    forcing: CoefficientFn = zero_fn()
    scalar: CoefficientFn = zero_fn()
    gens: GeneratorSet | None = None
    eta_generator: str | None = None

    def __post_init__(self):
        if self.kind not in VALID_KINDS:
            raise ValidationError(f"unknown Hamiltonian kind {self.kind!r}")
        if self.kind == "grassmann":
            if self.gens is None or self.eta_generator is None:
                raise ValidationError(
                    "grassmann kind needs a generator set and an eta generator"
                )
            self.gens.index(self.eta_generator)  # raises KeyError if undeclared

    def validate_real_coefficients(self, times: np.ndarray) -> None:
        if not self.omega.max_imag_on(times) <= HERMITIAN_TOL:
            raise NotHermitian("omega must be real-valued")
        if not self.scalar.max_imag_on(times) <= HERMITIAN_TOL:
            raise NotHermitian("the scalar term must be real-valued")


def hamiltonian_operator(spec: HamiltonianSpec, t: float,
                         gens: GeneratorSet) -> FermionOperator:
    """Build the family's fermion-sector operator at one time."""
    ci, cm, cp, cn = _spec_coeff_table(spec, gens)(np.array([t], dtype=float))[0]
    return FermionOperator(
        gens,
        Multivector(gens, ci),
        Multivector(gens, cm),
        Multivector(gens, cp),
        Multivector(gens, cn),
    )


def _spec_coeff_table(spec: HamiltonianSpec, gens: GeneratorSet):
    """ts -> (len(ts), 4, dim) coefficients over the slots (I, b, b†, b†b)."""
    if spec.kind not in ("fermion", "grassmann"):
        raise ValidationError(f"no fermion-sector operator for kind {spec.kind!r}")
    grassmann = spec.kind == "grassmann"
    plus, minus = _forcing_masks(spec, gens)

    def table(ts):
        c = np.zeros((len(ts), 4, gens.dim), dtype=np.complex128)
        f = np.asarray(spec.forcing(ts), dtype=np.complex128)
        c[:, 0, 0] = spec.scalar(ts)
        c[:, 1, minus] = -np.conj(f) if grassmann else np.conj(f)
        c[:, 2, plus] = f
        c[:, 3, 0] = spec.omega(ts)
        return c

    return table


def _forcing_masks(spec: HamiltonianSpec, gens: GeneratorSet):
    """(plus, minus): the monomials of the b† and b coefficients, which are
    eta and -conj(eta) over the eta generator and its conjugate for kind
    "grassmann" and the body otherwise."""
    if spec.kind != "grassmann":
        return 0, 0
    idx = gens.index(spec.eta_generator)
    return 1 << idx, 1 << (idx ^ 1)


# -- invariants and auxiliary systems ----------------------------------------


@dataclass(frozen=True)
class NuState:
    """Coefficients of the invariant B = nu_minus*b + nu_plus*b† + nu_3*(b†b - 1/2)."""

    nu_minus: complex
    nu_plus: complex
    nu_3: complex

    @property
    def conservation(self) -> float:
        return abs(self.nu_minus) ** 2 + abs(self.nu_plus) ** 2 \
            + 0.5 * abs(self.nu_3) ** 2


@dataclass(frozen=True)
class FermionInvariantPath:
    """Invariant ladder coefficients sampled on a grid."""

    times: np.ndarray
    nu: np.ndarray  # shape (n_times, 3): nu_minus, nu_plus, nu_3

    @property
    def states(self) -> list[NuState]:
        return [NuState(*(complex(v) for v in row)) for row in self.nu]

    def nu_state(self, i: int) -> NuState:
        return NuState(*(complex(v) for v in self.nu[i]))

    def conservation(self) -> np.ndarray:
        return (np.abs(self.nu[:, 0]) ** 2 + np.abs(self.nu[:, 1]) ** 2
                + 0.5 * np.abs(self.nu[:, 2]) ** 2)

    def operator_at(self, i: int, gens: GeneratorSet) -> FermionOperator:
        """The invariant B(t_i) = U(t_i) b U(t_i)† as an operator over gens."""
        nm, npl, n3 = (complex(v) for v in self.nu[i])
        return FermionOperator(
            gens,
            gens.scalar(-0.5 * n3),
            gens.scalar(nm),
            gens.scalar(npl),
            gens.scalar(n3),
        )


@dataclass(frozen=True)
class BosonInvariantPath:
    """Invariant ladder pair (beta, gamma) sampled on a grid."""

    times: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def at(self, i: int):
        from .boson import BosonLadderInvariant

        return BosonLadderInvariant(complex(self.beta[i]), complex(self.gamma[i]))


@dataclass(frozen=True)
class ClassicalBosonPath:
    """RK4 and closed-form solutions of the classical eigenvalue equation."""

    times: np.ndarray
    z: np.ndarray
    z_closed: np.ndarray

    @property
    def max_disagreement(self) -> float:
        return float(np.max(np.abs(self.z - self.z_closed)))


@dataclass(frozen=True)
class GrassmannPath:
    """Classical eigenvalue and phase of the Grassmann-forced oscillator."""

    gens: GeneratorSet
    times: np.ndarray
    zeta: np.ndarray  # (n_times, dim)
    phi: np.ndarray   # (n_times, dim)

    def zeta_at(self, i: int) -> Multivector:
        return Multivector(self.gens, self.zeta[i])

    def phi_at(self, i: int) -> Multivector:
        return Multivector(self.gens, self.phi[i])

    def phase_factor_at(self, i: int) -> Multivector:
        from .grassmann import exponential

        return exponential(1j * self.phi_at(i))


# -- trajectories ------------------------------------------------------------


@dataclass
class Trajectory:
    """Stride-sampled records of one Schrödinger evolution."""

    kind: str
    config: IntegrationConfig
    full_times: np.ndarray
    record_indices: np.ndarray
    times: np.ndarray
    states: list
    eigenvalues: list
    residuals: np.ndarray
    norm_dev: np.ndarray
    phase_factors: list | None = None
    spec: HamiltonianSpec | None = None
    gens: GeneratorSet | None = None
    max_tail: float = 0.0

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))

    @property
    def max_norm_dev(self) -> float:
        return float(np.max(self.norm_dev))


# -- RK4 driver ----------------------------------------------------------------


#: Byte budget of one chunk's coefficient table: the driver tabulates the
#: coefficients of as many grid steps at a time as fit in it (at least one).
TABLE_BYTES = 256 * 1024

#: Grid steps whose stage times the driver works out and tells apart at a
#: time, which bounds that work's memory on long grids.
LATTICE_STEPS = 512


def _integrate(rhs, coeffs, y0, config: IntegrationConfig, label: str,
               record=None, on_step=None) -> np.ndarray:
    """Fixed-step RK4 on config's grid, gated by a re-run at dt/2.

    `coeffs(ts)` evaluates the evolution's coefficients at a 1-D array of
    times, one row per time; `rhs(c, Y)` takes a batch of states Y of shape
    (R,) + the state's shape and the coefficient rows c of their stage
    times. The driver tabulates `coeffs` once per chunk of grid steps, on
    the chunk's distinct stage times (see _coeff_tables), and hands each
    stage its rows, so no RHS looks anything up by time.

    Returns the states at the grid indices `record` (every grid point by
    default) along a new leading axis. `on_step(t, y)` sees every grid
    point of the dt run, the start included. The dt/2 run keeps only its
    endpoint; unless that lies within STEP_TOL of the dt endpoint (NaN never
    does) the evolution is refused with StepTooLarge.

    The two runs advance in lock step: per grid step, the dt step and the
    first dt/2 substep share each of their four RHS calls as a 2-row batch,
    and the second substep follows on 1 row, so a grid step makes 8 calls,
    the length of the dt/2 run's chain of stages. Each row's arithmetic is
    that of a run on its own, so both runs are bit-identical to sequential
    ones.
    """
    times = config.times()
    fine = config.refined_times()
    keep = range(times.size) if record is None else [int(i) for i in record]
    slots = {i: k for k, i in enumerate(keep)}
    records = np.empty((len(slots),) + np.shape(y0), dtype=np.complex128)

    def observe(i, y):
        if on_step is not None:
            on_step(times[i], y)
        if i in slots:
            records[slots[i]] = y

    y = np.array(y0, dtype=np.complex128)
    pair = np.stack((y, y))  # rows: the dt run, the dt/2 run
    observe(0, pair[0])
    i = 0
    for table, dts in _coeff_tables(coeffs, times, fine):
        for c, dt in zip(table, dts):  # columns as _stage_times orders them
            pair = _rk4_step(rhs, c[0:2], c[2:4], c[4:6], dt[:2], pair)
            pair[1:] = _rk4_step(rhs, c[5:6], c[6:7], c[7:8], dt[2:], pair[1:])
            i += 1
            observe(i, pair[0])
        del table, c  # frees this chunk's table before the next is built

    diff = float(np.max(np.abs(pair[1] - pair[0])))
    if not diff <= STEP_TOL:
        raise StepTooLarge(
            f"{label}: halving dt changes endpoint by {diff:.3e} (> {STEP_TOL})"
        )
    return records


def _stage_times(times: np.ndarray, fine: np.ndarray):
    """Stage times and steps of the lock-step grid steps over `times`.

    `fine` is the dt/2 grid over the same span. Returns the (K, 8) stage
    times: t, mid and next of the paired stages (dt run, first dt/2
    substep), then mid and next of the second dt/2 substep, whose t is
    column 5; and the (K, 3) steps of the dt run and the two substeps. Each
    midpoint is t + 0.5 * (t_next - t), as a sequential RK4 step computes
    it, so every entry is bitwise the time that step would see.
    """
    t, t_next = times[:-1], times[1:]
    h0, h1, h2 = fine[:-2:2], fine[1:-1:2], fine[2::2]
    dts = np.stack((t_next - t, h1 - h0, h2 - h1), axis=1)
    lattice = np.stack((t, h0, t + 0.5 * dts[:, 0], h0 + 0.5 * dts[:, 1],
                        t_next, h1, h1 + 0.5 * dts[:, 2], h2), axis=1)
    return lattice, dts


def _coeff_tables(coeffs, times: np.ndarray, fine: np.ndarray):
    """Yield the coefficient rows of every stage of the grid steps over
    `times`, chunk by chunk, each as (table, dts): a (K, 8) + row shape
    table in the column order of _stage_times, and the chunk's steps.

    The stage times of up to LATTICE_STEPS grid steps at a time are told
    apart by their bits; `coeffs` is then evaluated once per chunk, on the
    chunk's distinct times, and one gather lays its rows out. The first
    chunk is one step; its rows size the rest to fit TABLE_BYTES.
    """
    chunk = 1
    for a in range(0, times.size - 1, LATTICE_STEPS):
        b = min(a + LATTICE_STEPS, times.size - 1)
        lattice, dts = _stage_times(times[a:b + 1], fine[2 * a:2 * b + 1])
        bits, where = np.unique(lattice.reshape(-1).view(np.uint64),
                                return_inverse=True)
        distinct, where = bits.view(np.float64), where.reshape(lattice.shape)
        i = 0
        while i < b - a:
            w = where[i:i + chunk]
            lo = w.min()
            values = np.asarray(coeffs(distinct[lo:w.max() + 1]),
                                dtype=np.complex128)
            table = values[w - lo]
            del values  # while the driver steps, only the table is held
            yield table, dts[i:i + chunk]
            i += len(table)
            chunk = max(1, TABLE_BYTES * len(table) // table.nbytes)
            del table  # freed before the next chunk's rows are evaluated


def _rk4_step(rhs, c, c_mid, c_next, dt, y):
    """One classical RK4 step of each row of y by dt[r], with coefficient
    rows c, c_mid and c_next at the step's start, midpoint and end."""
    dt = dt.reshape((-1,) + (1,) * (y.ndim - 1))
    k1 = rhs(c, y)
    k2 = rhs(c_mid, y + (0.5 * dt) * k1)
    k3 = rhs(c_mid, y + (0.5 * dt) * k2)
    k4 = rhs(c_next, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _tabulate(*fns):
    """ts -> (len(ts), len(fns), 1): every function at every time, as one
    complex column each that broadcasts over a row of amplitudes."""
    def table(ts):
        return np.stack([np.asarray(fn(ts), dtype=np.complex128)
                         for fn in fns], axis=1)[:, :, None]

    return table


# -- classical boson sector ---------------------------------------------------


def evolve_classical_boson(spec: HamiltonianSpec, z0: complex,
                           config: IntegrationConfig) -> ClassicalBosonPath:
    """Integrate i z' = omega z + f and cross-validate with the closed form."""
    if spec.kind != "boson":
        raise ValidationError("classical boson evolution needs a boson spec")
    times = config.times()
    spec.validate_real_coefficients(times)

    def rhs(c, y):
        w, f = c.swapaxes(0, 1)
        return -1j * (w * y + f)

    y0 = np.array([z0], dtype=np.complex128)
    series = _integrate(rhs, _tabulate(spec.omega, spec.forcing), y0, config,
                        "classical boson")[:, 0]

    dt = times[1] - times[0]
    phase = cumulative_simpson(np.real(spec.omega(times)), dt)
    beta_tilde = np.exp(-1j * phase)
    drive = cumulative_simpson(spec.forcing(times) * np.exp(1j * phase), dt)
    z_closed = beta_tilde * (z0 - 1j * drive)
    return ClassicalBosonPath(times, series, z_closed)


def build_ladder_invariant(spec: HamiltonianSpec, config: IntegrationConfig):
    """Invariant ladder series: (beta, gamma) for bosons, nu system for fermions."""
    if spec.kind == "boson":
        times = config.times()
        spec.validate_real_coefficients(times)
        dt = times[1] - times[0]
        phase = cumulative_simpson(np.real(spec.omega(times)), dt)
        beta = np.exp(1j * phase)
        gamma = 1j * cumulative_simpson(spec.forcing(times) * np.exp(1j * phase), dt)
        return BosonInvariantPath(times, beta, gamma)
    if spec.kind == "fermion":
        return evolve_nu_system(spec, config)
    raise ValidationError("ladder invariants exist for boson and fermion kinds")


def evolve_nu_system(spec: HamiltonianSpec,
                     config: IntegrationConfig) -> FermionInvariantPath:
    """Auxiliary system for the forced-fermion invariant, from (1, 0, 0)."""
    if spec.kind != "fermion":
        raise ValidationError("the nu system belongs to the fermion kind")
    times = config.times()
    spec.validate_real_coefficients(times)

    def rhs(c, y):
        w, f = c.swapaxes(0, 1)
        nm, npl, n3 = np.split(y, 3, axis=1)
        return np.concatenate(
            (
                1j * (nm * w - n3 * np.conj(f)),
                1j * (n3 * f - npl * w),
                2j * (npl * np.conj(f) - nm * f),
            ),
            axis=1,
        )

    y0 = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
    coeffs = _tabulate(spec.omega, spec.forcing)
    return FermionInvariantPath(times,
                                _integrate(rhs, coeffs, y0, config, "nu system"))


# -- fermion / grassmann Schrödinger evolution --------------------------------


def _fermion_coeff_source(h, gens: GeneratorSet, times: np.ndarray):
    """Normalize a HamiltonianSpec or operator builder into a coefficient
    table ts -> (len(ts), 4, dim), as _spec_coeff_table gives; a builder is
    called, and checked, once per time."""
    if isinstance(h, HamiltonianSpec):
        if h.kind not in ("fermion", "grassmann"):
            raise ValidationError("fermion-sector evolution needs a fermion or "
                                  "grassmann spec")
        if h.gens is not None and h.gens != gens:
            raise MismatchedGenerators("spec and state generator sets differ")
        h.validate_real_coefficients(times)
        return _spec_coeff_table(h, gens), h.kind
    if callable(h):
        def build(t):
            op = h(t)
            if op.gens != gens:
                raise MismatchedGenerators("operator builder uses a foreign set")
            if not op.is_selfadjoint(HERMITIAN_TOL):
                raise NotHermitian(f"H(t) is not self-adjoint at t={t:.6g}")
            return [c.coeffs for c in op.coefficients()]

        def table(ts):
            return np.array([build(t) for t in ts], dtype=np.complex128)

        return table, "fermion"
    raise ValidationError("h must be a HamiltonianSpec or a callable t -> operator")


def evolve_schrodinger_fermion(h, s0: FermionState,
                               config: IntegrationConfig) -> Trajectory:
    """RK4 on the amplitude coefficients of i d/dt psi = H(t) psi."""
    gens = s0.gens
    n_gen = gens.n_generators
    dim = gens.dim
    times = config.times()
    table, kind = _fermion_coeff_source(h, gens, times)
    gsigns = kernel.grade_signs(n_gen)
    # the left operands of the five products ci*p0, ci*p1, cm*gi(p1),
    # cn*p1, cp*gi(p0) of one stage, where the grade involution gi flips
    # the odd part of an amplitude passing b or b†
    slots = [0, 0, 1, 3, 2]
    support = None
    if isinstance(h, HamiltonianSpec):
        # a spec's operands are zero off one monomial each: the products
        # skip the pairs that multiply those zeros
        plus, minus = _forcing_masks(h, gens)
        support = tuple(((m,), None) for m in (0, 0, minus, 0, plus))

    def rhs(c, y):
        right = np.empty((len(y), 5, dim), dtype=np.complex128)
        right[:, :2] = y
        right[:, 3] = y[:, 1]
        # gi on rows 2 and 4 only: a product by 1 can flip a -0.0
        np.multiply(y[:, ::-1], gsigns, out=right[:, 2::2])
        left = c.reshape(-1, dim)
        prod = kernel.multiply(left, right.reshape(left.shape), n_gen, support)
        prod = prod.reshape(right.shape)
        out = prod[:, :2] + prod[:, 2:4]  # ci*p0 + cm*gi(p1), ci*p1 + cn*p1
        out[:, 1] += prod[:, 4]
        out *= -1j
        return out

    y0 = np.stack((s0.psi0.coeffs, s0.psi1.coeffs))
    rec_idx = config.record_indices()
    def coeffs(ts):
        return table(ts)[:, slots]

    records = _integrate(rhs, coeffs, y0, config, "fermion Schrödinger", rec_idx)

    states: list[FermionState] = []
    eigenvalues: list = []
    phase_factors: list = []
    residuals: list[float] = []
    norm_dev: list[float] = []
    ip0 = inner_product(s0, s0)
    for y in records:
        state = FermionState(gens, Multivector(gens, y[0]), Multivector(gens, y[1]))
        states.append(state)
        # physical norm^2 = body of <psi|psi>; the soul components are only
        # conserved for parity-even Hamiltonians
        norm_dev.append(abs(inner_product(state, state).body - ip0.body))
        try:
            lam, res = extract_eigenvalue(state)
        except VacuumAmplitudeZero:
            eigenvalues.append(None)
            residuals.append(np.inf)
            phase_factors.append(None)
            continue
        eigenvalues.append(lam)
        residuals.append(res)
        if lam.is_odd_degree_one():
            ref = make_coherent(lam)
            phase_factors.append(state.psi0 * invert(ref.psi0))
        else:
            phase_factors.append(None)

    spec = h if isinstance(h, HamiltonianSpec) else None
    return Trajectory(
        kind=kind,
        config=config,
        full_times=times,
        record_indices=rec_idx,
        times=times[rec_idx],
        states=states,
        eigenvalues=eigenvalues,
        residuals=np.asarray(residuals),
        norm_dev=np.asarray(norm_dev),
        phase_factors=phase_factors,
        spec=spec,
        gens=gens,
    )


# -- boson Schrödinger evolution ----------------------------------------------


def evolve_schrodinger_boson(spec: HamiltonianSpec, s0: BosonState,
                             config: IntegrationConfig) -> Trajectory:
    """RK4 on truncated amplitudes under omega*a†a + f*a† + conj(f)*a + g."""
    if spec.kind != "boson":
        raise ValidationError("boson evolution needs a boson spec")
    times = config.times()
    spec.validate_real_coefficients(times)
    nlev = np.arange(s0.amps.size)
    sq = np.sqrt(np.arange(1, s0.amps.size))

    def rhs(c, y):
        w, f, g = c.swapaxes(0, 1)
        up = np.zeros_like(y)
        up[:, 1:] = sq * y[:, :-1]
        down = np.zeros_like(y)
        down[:, :-1] = sq * y[:, 1:]
        return -1j * (w * (nlev * y) + f * up + np.conj(f) * down + g * y)

    max_tail = [0.0]

    def tail_guard(t, y):
        nsq = float(np.sum(np.abs(y) ** 2))
        tail = float((np.abs(y[-1]) ** 2 + np.abs(y[-2]) ** 2) / nsq)
        if tail > max_tail[0]:
            max_tail[0] = tail
        if not tail <= BREACH_TOL:
            raise TruncationBreach(
                f"tail mass {tail:.3e} at t={t:.6g} exceeds {BREACH_TOL}"
            )

    rec_idx = config.record_indices()
    coeffs = _tabulate(spec.omega, spec.forcing, spec.scalar)
    records = _integrate(rhs, coeffs, s0.amps, config, "boson Schrödinger", rec_idx,
                         on_step=tail_guard)

    norm0 = s0.norm_sq()
    states = [BosonState(y, _copy=False) for y in records]
    fits = [eigenvalue_lsq(state) for state in states]
    return Trajectory(
        kind="boson",
        config=config,
        full_times=times,
        record_indices=rec_idx,
        times=times[rec_idx],
        states=states,
        eigenvalues=[lam for lam, _ in fits],
        residuals=np.asarray([res for _, res in fits]),
        norm_dev=np.asarray([abs(float(np.sum(np.abs(y) ** 2)) - norm0)
                             for y in records]),
        spec=spec,
        max_tail=max_tail[0],
    )


# -- grassmann classical sector -----------------------------------------------


def _as_coeff_array(value, gens: GeneratorSet) -> np.ndarray:
    if isinstance(value, Multivector):
        if value.gens != gens:
            raise MismatchedGenerators("forcing over a foreign generator set")
        return value.coeffs
    arr = np.zeros(gens.dim, dtype=np.complex128)
    arr[0] = value
    return arr


def evolve_grassmann_classical(spec, zeta0: Multivector,
                               config: IntegrationConfig) -> GrassmannPath:
    """Integrate i zeta' = omega zeta - eta and the phase equation.

    `spec` is either a grassmann HamiltonianSpec or a triple
    (omega_fn, eta_fn, delta_fn) with eta_fn/delta_fn mapping t to
    Multivectors (odd degree-one and even self-conjugate respectively).

    Note the implemented phase law is phi' = -delta + (zeta* eta + eta* zeta)/2,
    which is what makes exp(i phi(t)) |zeta(t)> solve the Schrödinger equation
    with the i d/dt psi = H psi sign convention.
    """
    gens = zeta0.gens
    require_odd_degree_one(zeta0, "initial eigenvalue")
    n_gen = gens.n_generators
    dim = gens.dim
    times = config.times()

    if isinstance(spec, HamiltonianSpec):
        if spec.kind != "grassmann":
            raise ValidationError("grassmann classical evolution needs a "
                                  "grassmann spec")
        if spec.gens != gens:
            raise MismatchedGenerators("spec and initial value generator sets differ")
        spec.validate_real_coefficients(times)
        idx = gens.index(spec.eta_generator)
        used_bits = {mask for mask in zeta0.terms}
        if any(mask >> idx & 1 for mask in used_bits):
            raise GeneratorCollision(
                f"eta generator {spec.eta_generator!r} appears in the initial value"
            )
        bit = 1 << idx
        # eta is zero off its generator and eta* off its conjugate, so the
        # products zeta* eta and eta* zeta skip the pairs that miss them
        support = ((None, (bit,)), ((1 << (idx ^ 1),), None))

        def coeffs(ts):
            arr = np.zeros((len(ts), 3, dim), dtype=np.complex128)
            arr[:, 0, bit] = spec.forcing(ts)
            arr[:, 1, 0] = spec.scalar(ts)
            arr[:, 2] = spec.omega(ts)[:, None]
            return arr
    else:
        omega_fn, eta_fn, delta_fn = spec
        support = None

        def coeffs(ts):
            return np.array([(_as_coeff_array(eta_fn(t), gens),
                              _as_coeff_array(delta_fn(t), gens),
                              np.full(dim, omega_fn(t), dtype=np.complex128))
                             for t in ts])

    # coefficient rows: eta(t), delta(t) and omega(t) in every slot
    def rhs(c, y):
        eta, delta, omega = c.swapaxes(0, 1)
        pair = y.copy()
        pair[:, 1] = eta
        # zeta* eta and eta* zeta of every row in one call
        prod = kernel.multiply(kernel.conjugate(pair, n_gen).reshape(-1, dim),
                               pair[:, ::-1].reshape(-1, dim), n_gen, support)
        prod = prod.reshape(pair.shape)
        out = np.empty_like(y)
        out[:, 0] = -1j * (omega * y[:, 0] - eta)
        out[:, 1] = -delta + 0.5 * (prod[:, 0] + prod[:, 1])
        return out

    y0 = np.stack((zeta0.coeffs, np.zeros(dim, dtype=np.complex128)))
    series = _integrate(rhs, coeffs, y0, config, "grassmann classical")
    return GrassmannPath(gens, times, series[:, 0], series[:, 1])


# -- operator transport ---------------------------------------------------------


def evolve_operator_transport(h, op0: FermionOperator,
                              config: IntegrationConfig) -> list[FermionOperator]:
    """Transport an operator along the evolution: dX/dt = i [X, H(t)].

    The solution is X(t) = U(t) X(0) U(t)†, i.e. the invariant whose initial
    value is X(0). Sampled at every grid time.
    """
    gens = op0.gens
    times = config.times()
    coeffs, _ = _fermion_coeff_source(h, gens, times)
    n_gen = gens.n_generators

    def rhs(hc, y):
        xh = _compose_coeff_arrays(y, hc, n_gen)
        hx = _compose_coeff_arrays(hc, y, n_gen)
        return 1j * (xh - hx)

    y0 = np.stack([c.coeffs for c in op0.coefficients()])
    series = _integrate(rhs, coeffs, y0, config, "operator transport")
    return [FermionOperator(gens, *(Multivector(gens, row) for row in y))
            for y in series]


# -- invariance condition -------------------------------------------------------


def _fd_derivative(series: np.ndarray, dt: float) -> np.ndarray:
    """Centered differences, second-order one-sided at the endpoints."""
    out = np.empty_like(series)
    out[1:-1] = (series[2:] - series[:-2]) / (2.0 * dt)
    out[0] = (-3.0 * series[0] + 4.0 * series[1] - series[2]) / (2.0 * dt)
    out[-1] = (3.0 * series[-1] - 4.0 * series[-2] + series[-3]) / (2.0 * dt)
    return out


def _operator_series(b_series, gens: GeneratorSet, n_times: int):
    if isinstance(b_series, FermionInvariantPath):
        return [b_series.operator_at(i, gens) for i in range(n_times)]
    ops = list(b_series)
    if len(ops) != n_times:
        raise ValidationError("operator series and grid lengths differ")
    return ops


def invariant_residual(b_series, h, config: IntegrationConfig,
                       gens: GeneratorSet | None = None,
                       calibrate: bool = True) -> np.ndarray:
    """Per-time sup-norm of dB/dt - i[B, H] over the basis coefficients."""
    times = config.times()
    dt = times[1] - times[0]
    if calibrate:
        _fd_order_check(dt)
    if gens is None:
        if isinstance(b_series, FermionInvariantPath):
            gens = h.gens if isinstance(h, HamiltonianSpec) and h.gens is not None \
                else GeneratorSet(())
        else:
            gens = b_series[0].gens
    ops = _operator_series(b_series, gens, times.size)
    if isinstance(h, HamiltonianSpec):
        h_at = lambda t: hamiltonian_operator(h, t, gens)  # noqa: E731
        h.validate_real_coefficients(times)
    else:
        h_at = h

    coeff_stack = np.stack(
        [np.stack([c.coeffs for c in op.coefficients()]) for op in ops]
    )  # (n_times, 4, dim)
    dcoeff = _fd_derivative(coeff_stack, dt)

    residuals = np.zeros(times.size)
    for i, t in enumerate(times):
        b_op = ops[i]
        h_op = h_at(t)
        comm = b_op * h_op - h_op * b_op
        diff = [
            dcoeff[i, k] - 1j * c.coeffs
            for k, c in enumerate(comm.coefficients())
        ]
        residuals[i] = max(float(np.max(np.abs(d))) for d in diff)
    return residuals


def _fd_order_check(dt: float, span_steps: int = 16) -> None:
    """Verify O(dt^2) behaviour of the differencing on a known-exact case."""
    ratios = []
    ref = None
    for scale in (1.0, 0.5):
        step = dt * scale
        n = int(span_steps / scale)
        ts = step * np.arange(n + 1)
        series = np.exp(1j * ts)
        approx = _fd_derivative(series, step)
        err = float(np.max(np.abs(approx - 1j * series)))
        ratios.append(err)
    ratio = ratios[0] / ratios[1] if ratios[1] > 0 else np.inf
    if not 2.5 <= ratio <= 7.0:
        raise GridTooCoarse(
            f"finite-difference refinement ratio {ratio:.2f} is not O(dt^2) at dt={dt:.3e}"
        )
