"""Time propagation and invariant construction.

Every evolution goes through one fixed-step classical RK4 driver on a
uniform grid, with a mandatory dt vs dt/2 endpoint comparison (StepTooLarge
on disagreement or NaN). The driver advances the dt run and the dt/2 run in
lock step, so every right-hand side takes a batch of rows: rhs(c, Y) with Y
of shape (R,) + the state's shape and c the coefficient rows of their stage
times. Each evolution hands the driver one vectorised coefficient function;
the driver tabulates it once per chunk of grid steps on all of its stage
times, bit-identical to evaluating it at each time alone. A state may stack
systems whose rows never mix, each with its own endpoint gap: a grassmann
spec's trajectory carries its Grassmann law in its own driver loop, one
plan per stage serving both. Either loop fills a block of the dt run's
states per call, from which the driver copies the records and which a
check, such as the boson tail guard, sees whole. For a spec's fused plans
and the boson Schrödinger ladder the loop runs in compiled C
(kernel/rk4.c); the numpy loop stays as its oracle and fallback, and runs
a DenseHamiltonian's RHSs with one compiled kernel.multiply call a stage.
Phase integrals use cumulative Simpson on the same grid so closed forms and
RK4 cross-validate at matching order.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import kernel
from .boson import BosonLadderInvariant, BosonState, _ladder_sqrt, _lower, _raise, eigenvalue_lsq
from .coeffs import CoefficientFn, zero_fn
from .errors import (
    GeneratorCollision,
    GridTooCoarse,
    MismatchedGenerators,
    NotHermitian,
    NotOddLinear,
    StepTooLarge,
    TruncationBreach,
    ValidationError,
)
from .fermion import (
    _APPLY_AMPS,
    _APPLY_SLOTS,
    _PARITY,
    FermionOperator,
    FermionState,
    _adjoint_rows,
    _apply_rows,
    _commutator_coeff_arrays,
    _norm_bodies,
    _record_blocks,
    _state,
    extract_eigenvalue,
    make_coherent,
)
from .grassmann import GeneratorSet, Multivector, _odd_degree_one_rows, invert
from .grassmann import require_odd_degree_one
from .kernel import TABLE_BYTES

#: Endpoint tolerance for the dt vs dt/2 self-check.
STEP_TOL = 1e-8

#: Tail-mass threshold for truncated boson evolution.
BREACH_TOL = 1e-6

#: Byte budget of the block of dt-run states each RK4 loop call fills.
CHECK_BYTES = 64 * 1024

#: Hermiticity tolerance for a spec's real coefficients and dense rows.
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
        try:
            operator.index(self.stride)
        except TypeError:
            raise ValidationError(f"stride must be an integer, got {self.stride!r}") from None
        if self.stride < 1:
            raise ValidationError("stride must be at least 1")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_end / self.dt))

    def times(self, rows=slice(None)) -> np.ndarray:
        """Grid times at `rows`, a slice or integer indices (all by default):
        i * (t_end / n_steps) + 0.0, t_end at n_steps: np.linspace(0, t_end,
        n_steps + 1)[rows] bit for bit, whose zero-step branch is never taken,
        as dt >= 5e-324 and n_steps <= MAX_STEPS keep t_end / n_steps above 0."""
        n = self.n_steps
        i = np.arange(*rows.indices(n + 1)) if isinstance(rows, slice) else np.asarray(rows)
        return np.where(i == n, self.t_end, i * (self.t_end / n) + 0.0)

    @property
    def n_records(self) -> int:  # len(record_indices()), without building it
        return -(-self.n_steps // self.stride) + 1

    def record_indices(self) -> np.ndarray:  # a stride past n_steps records the two ends
        return np.minimum(np.arange(self.n_records) * min(self.stride, self.n_steps), self.n_steps)


def cumulative_simpson(y: np.ndarray, dt: float) -> np.ndarray:
    """Cumulative Simpson integral from the grid start, O(dt^4).

    Even points accumulate full Simpson panels; odd points integrate half of
    the quadratic through the local point triple.
    """
    y = np.asarray(y)
    n = y.size
    out = np.zeros(n, dtype=np.result_type(y.dtype, np.float64))
    if n < 2:
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
            if self.eta_generator not in self.gens.names:
                raise ValidationError(f"eta generator {self.eta_generator!r} is undeclared")

    def slot_rows(self, ts: np.ndarray) -> np.ndarray:
        """(len(ts), 4) coefficients over the slots (I, lower, raise, number):
        scalar, conj(forcing) (negated for kind "grassmann"), forcing and
        omega at each time; refused unless omega and the scalar are real within
        HERMITIAN_TOL (NotHermitian, NaN too), then unless all are finite (StepTooLarge)."""
        w, g = self.omega(ts), self.scalar(ts)
        for values, name in ((w, "omega"), (g, "the scalar term")):
            if not np.max(np.abs(values.imag), initial=0.0) <= HERMITIAN_TOL:
                raise NotHermitian(f"{name} must be real-valued")
        f = np.asarray(self.forcing(ts), dtype=np.complex128)
        fc = -np.conj(f) if self.kind == "grassmann" else np.conj(f)
        rows = np.stack((g, fc, f, w), axis=1)
        parts = rows.view(np.float64)  # each row's real and imaginary parts: no copy
        if not all(math.isfinite(r(parts, initial=0.0)) for r in (np.min, np.max)):
            i, slot = np.argwhere(~np.isfinite(rows))[0]
            name = ("the scalar term", "the forcing", "the forcing", "omega")[slot]
            raise StepTooLarge(f"{name} is not finite at t={ts[i]:.6g}")
        return rows

    def slot_masks(self, gens: GeneratorSet) -> tuple[int, int, int, int]:
        """The one monomial over gens each slot of slot_rows sits at: the
        body, but for kind "grassmann" the conjugate of the eta generator
        (lower) and the eta generator (raise)."""
        if self.kind != "grassmann":
            return 0, 0, 0, 0
        idx = gens.index(self.eta_generator)
        return 0, 1 << (idx ^ 1), 1 << idx, 0


@dataclass(frozen=True)
class DenseHamiltonian:
    """A fermion or grassmann Hamiltonian by its dense coefficients: rows(ts)
    -> (len(ts), 4, gens.dim) over the slots (I, b, b†, b†b) at a 1-D array
    of times. It has HamiltonianSpec's slot interface, with no masks."""

    kind: str
    gens: GeneratorSet
    rows: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        if self.kind not in ("fermion", "grassmann") or not isinstance(self.gens, GeneratorSet):
            raise ValidationError(f"a dense Hamiltonian of kind {self.kind!r} over {self.gens!r}")

    def slot_rows(self, ts: np.ndarray) -> np.ndarray:
        """rows(ts), refused unless dim wide (MismatchedGenerators), for kind
        "grassmann" unless b† is odd degree-one and b†b a body (NotOddLinear),
        and unless self-adjoint within HERMITIAN_TOL (NotHermitian, NaN too)."""
        c = np.asarray(self.rows(ts), dtype=np.complex128)
        n_gen = self.gens.n_generators
        if c.shape != (len(ts), 4, self.gens.dim):
            raise MismatchedGenerators(f"rows of shape {c.shape} over {n_gen} generators")
        if self.kind == "grassmann" and (c[:, 3, 1:].any()
                                         or not _odd_degree_one_rows(c[:, 2]).all()):
            raise NotOddLinear("b† must be odd of degree one and b†b a body")
        if not np.max(np.abs(_adjoint_rows(c) - c)) <= HERMITIAN_TOL:
            raise NotHermitian("H(t) is not self-adjoint")
        return c

    def slot_masks(self, gens: GeneratorSet) -> None:
        return None


def _check_spec(spec, kinds: tuple[str, ...], gens: GeneratorSet | None = None, records=(0, 0)):
    """Refuse, in this order, before anything is allocated: anything but a
    HamiltonianSpec or, given `gens`, a DenseHamiltonian, a kind not in
    `kinds` (both ValidationError), a set other than `gens`
    (MismatchedGenerators), and `records` = (n_records, values each) of
    over MAX_STEPS + 1 complex values, 160 MB (ValidationError). slot_rows
    checks the coefficients wherever they are read."""
    types = (HamiltonianSpec,) if gens is None else (HamiltonianSpec, DenseHamiltonian)
    if not isinstance(spec, types):
        raise ValidationError(f"a {type(spec).__name__} where a "
                              f"{' or a '.join(t.__name__ for t in types)} is needed")
    if spec.kind not in kinds:
        raise ValidationError(f"a {spec.kind} spec where a "
                              f"{' or '.join(kinds)} spec is needed")
    if gens is not None and spec.gens not in (None, gens):
        raise MismatchedGenerators("spec and state generator sets differ")
    n_records, values = records
    if n_records * values > MAX_STEPS + 1:
        raise ValidationError(f"{n_records} records of {values} complex values exceed "
                              f"the record bound of {MAX_STEPS + 1} values")


def hamiltonian_operator(spec, t: float, gens: GeneratorSet) -> FermionOperator:
    """The fermion-sector operator of a spec or DenseHamiltonian at one time."""
    _check_spec(spec, ("fermion", "grassmann"), gens)
    c = _dense_slots(spec.slot_rows, spec.slot_masks(gens), gens.dim)(np.array([t], dtype=float))
    return FermionOperator(gens, *(Multivector(gens, row) for row in c[0]))


def _dense_slots(values, masks, dim: int):
    """ts -> (len(ts), 4, dim) from a spec's slot_rows and slot_masks, or
    values itself if masks is None."""
    def table(ts):
        c = np.zeros((len(ts), 4, dim), dtype=np.complex128)
        c[:, range(4), masks] = values(ts)
        return c

    return values if masks is None else table


# -- invariants and auxiliary systems ----------------------------------------


def _nu_slots(nu) -> np.ndarray:
    """(..., 4) coefficients over the slots (I, b, b†, b†b) of the invariant
    B = nu_minus*b + nu_plus*b† + nu_3*(b†b - 1/2), from (..., 3) nu rows."""
    nm, npl, n3 = np.moveaxis(np.asarray(nu, dtype=np.complex128), -1, 0)
    return np.stack((-0.5 * n3, nm, npl, n3), axis=-1)


@dataclass(frozen=True)
class FermionInvariantPath:
    """Invariant ladder coefficients sampled on a grid."""

    times: np.ndarray
    nu: np.ndarray  # shape (n_times, 3): nu_minus, nu_plus, nu_3

    def conservation(self) -> np.ndarray:
        return (np.abs(self.nu[:, 0]) ** 2 + np.abs(self.nu[:, 1]) ** 2
                + 0.5 * np.abs(self.nu[:, 2]) ** 2)

    def operator_at(self, i: int, gens: GeneratorSet) -> FermionOperator:
        """The invariant B(t_i) = U(t_i) b U(t_i)† as an operator over gens."""
        return FermionOperator(gens, *(gens.scalar(c) for c in _nu_slots(self.nu[i])))


@dataclass(frozen=True)
class BosonInvariantPath:
    """Invariant ladder pair (beta, gamma) sampled on a grid."""

    times: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray

    def at(self, i: int) -> BosonLadderInvariant:
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
    """Classical eigenvalue and phase of the Grassmann-forced oscillator, and
    the dt vs dt/2 endpoint gap of the integration that made them."""

    gens: GeneratorSet
    times: np.ndarray
    zeta: np.ndarray  # (n_times, dim)
    phi: np.ndarray   # (n_times, dim)
    gap: float

    def gate(self) -> None:
        """Refuse (StepTooLarge) the path as its integration's gate does."""
        _gate(_LAW_LABEL, self.gap)

    def zeta_at(self, i: int) -> Multivector:
        return Multivector(self.gens, self.zeta[i])

    def phi_at(self, i: int) -> Multivector:
        return Multivector(self.gens, self.phi[i])


# -- trajectories ------------------------------------------------------------


@dataclass
class Trajectory:
    """Stride-sampled records of one Schrödinger evolution, a row each: the
    amplitudes (n_records, 2, dim) or a boson's (n_records, levels); the
    eigenvalues lams (n_records, dim) or a boson's (n_records, 1), all NaN
    where a record has none (residual inf); residuals and norm_dev; the
    Grassmann law at the same records, if the run carried it. record_indices
    and times follow from config; states, eigenvalues and phase_factors are
    the records' objects. Each is built when first read."""

    kind: str
    config: IntegrationConfig
    amplitudes: np.ndarray
    lams: np.ndarray
    residuals: np.ndarray
    norm_dev: np.ndarray
    spec: HamiltonianSpec | DenseHamiltonian | None = None
    gens: GeneratorSet | None = None
    law: GrassmannPath | None = None  # a grassmann spec's, see evolve_schrodinger_fermion

    @functools.cached_property
    def record_indices(self) -> np.ndarray:
        return self.config.record_indices()

    @property
    def times(self) -> np.ndarray:
        return self.config.times(self.record_indices)

    @functools.cached_property
    def states(self) -> list:
        if self.kind == "boson":
            return [BosonState(y) for y in self.amplitudes]
        return [_state(self.gens, y) for y in self.amplitudes]

    @functools.cached_property
    def eigenvalues(self) -> list:  # a Multivector (None if none) or a boson's complex
        if self.kind == "boson":
            return [complex(z) for z in self.lams[:, 0]]
        return self._multivectors(self.lams)

    def _multivectors(self, rows: np.ndarray) -> list:  # None for a NaN row
        return [None if np.isnan(r).all() else Multivector(self.gens, r) for r in rows]

    @property
    def max_residual(self) -> float:
        return float(np.max(self.residuals))

    @property
    def max_norm_dev(self) -> float:
        return float(np.max(self.norm_dev))

    @functools.cached_property
    def phase_factors(self) -> list | None:
        """Per record, p with psi0 = p * the coherent state's psi0 at the
        record's eigenvalue (None if it is not odd degree-one); boson: None."""
        if self.kind == "boson":
            return None
        odd = _odd_degree_one_rows(self.lams)  # a NaN row is not
        factors = np.full_like(self.lams, complex(np.nan, np.nan))
        factors[odd] = kernel.multiply(self.amplitudes[odd, 0],
                                       invert(make_coherent(self.lams[odd])[:, 0]),
                                       self.gens.n_generators)
        return self._multivectors(factors)


# -- RK4 driver ----------------------------------------------------------------


def _gate(label: str, gap: float) -> None:
    """Refuse (StepTooLarge) a dt vs dt/2 endpoint gap over STEP_TOL; NaN is."""
    if not gap <= STEP_TOL:
        raise StepTooLarge(
            f"{label}: halving dt changes endpoint by {gap:.3e} (> {STEP_TOL})"
        )


def _integrate(rhs, coeffs, y0, config: IntegrationConfig, label, record=None, check=None):
    """Fixed-step RK4 on config's uniform grid, gated by a re-run at dt/2.

    `coeffs(ts)` evaluates the evolution's coefficients at a 1-D array of
    times, one row per time; `rhs(c, Y)` takes a batch of states Y of shape
    (R,) + the state's shape and the coefficient rows c of their stage
    times. The driver tabulates `coeffs` once per chunk of grid steps, on
    all of the chunk's stage times (see _coeff_tables), and hands each
    stage its rows, so no RHS looks anything up by time.

    The caller's _check_spec has bounded the records; the driver reads the
    grid's times from config a chunk at a time, for `check` too. Returns
    (records, gaps): the states at the grid indices `record` (every grid
    point by default) along a new leading axis, and each system's endpoint
    gap (see below). Before anything is allocated it refuses
    (ValidationError) a `record` that is not strictly increasing integers
    in 0..n_steps. The loop runs each chunk's grid steps in blocks of as
    many states as fit CHECK_BYTES, writing the dt run's states into a
    buffer that the next block reuses; the records are copied out of it.
    `check(ts, states)` sees every grid point of the dt run: first the
    start on its own, then each block, with its times. The dt/2 run keeps
    only its endpoint; unless that lies within STEP_TOL of the dt endpoint
    (NaN never does) the evolution is refused with StepTooLarge; slot_rows
    checks coefficients.

    `label` names the system, or is a tuple of labels of systems stacked
    in equal parts along y0's leading axis, whose rows the rhs keeps apart.
    Each system has its own endpoint gap, returned in order. The first is
    gated as above; the others are left for the caller to gate.

    The dt/2 run steps on the grid's nodes and midpoints, in lock step with
    the dt run: per grid step, the dt step and the first dt/2 substep share
    each of their four RHS calls as a 2-row batch, and the second substep
    follows on 1 row, so a grid step makes 8 calls on 5 stage times. Each
    row's arithmetic is that of a run on its own, so both runs are
    bit-identical to sequential ones.

    An RHS that carries a `program` (a kernel.compiled.Program: one fused
    plan and its post-ops, or the boson ladder) runs in compiled C instead,
    one call per block, with the same arithmetic bit for bit, unless no
    library could be loaded.
    An RHS a caller wraps carries none, so the wrapper runs in the numpy
    loop. Both loops call `check` on the same blocks.
    """
    if record is not None:
        record = np.asarray(record)
        if not (record.ndim == 1 and record.dtype.kind in "iu"
                and np.all(record[1:] > record[:-1])
                and np.all((record >= 0) & (record <= config.n_steps))):
            raise ValidationError("record must be strictly increasing grid indices "
                                  f"in 0..{config.n_steps}")
    labels = (label,) if isinstance(label, str) else label
    keep = np.arange(config.n_steps + 1) if record is None else record.astype(np.int64)
    records = np.empty((len(keep),) + np.shape(y0), dtype=np.complex128)
    program = getattr(rhs, "program", None)
    run = None if program is None else program.runner()
    if run is None:
        run = functools.partial(_numpy_chunk, rhs)

    y = np.array(y0, dtype=np.complex128)
    pair = np.stack((y, y))  # rows: the dt run, the dt/2 run
    block = max(1, CHECK_BYTES // y.nbytes)
    states = np.empty((block,) + y.shape, dtype=np.complex128)  # a block's dt-run states
    if check is not None:
        check(config.times(slice(0, 1)), pair[:1])
    if keep.size and keep[0] == 0:
        records[0] = y
    i = 0
    for table, dts in _coeff_tables(coeffs, config):
        ts = None if check is None else config.times(slice(i + 1, i + len(dts) + 1))
        for a in range(0, len(dts), block):  # grid steps i + 1 .. i + n
            n = min(block, len(dts) - a)
            run(table[a:a + n], dts[a:a + n], pair, states[:n])
            if check is not None:
                check(ts[a:a + n], states[:n])
            lo, hi = np.searchsorted(keep, (i + 1, i + n + 1))
            records[lo:hi] = states[keep[lo:hi] - i - 1]
            i += n
        del table  # frees this chunk's table before the next is built

    ends = pair.reshape(2, len(labels), -1)  # each run's endpoint, a row per system
    gaps = [float(np.max(np.abs(half - end))) for end, half in zip(*ends)]
    _gate(labels[0], gaps[0])
    return records, gaps


def _numpy_chunk(rhs, table, dts, pair, states) -> None:
    """The numpy loop over one block, as a Program's runner runs it in C:
    grid steps 1..len(dts) of the table, pair (2,) + the state's shape
    updated in place, and pair[0] after grid step j + 1 copied to
    states[j]. The table's columns are as _stage_times orders them."""
    paired = table[:, [[0, 0], [2, 1], [4, 2]]]  # start, mid, next of dt step and substep 1
    for j, (c, rows, dt) in enumerate(zip(table, paired, dts)):
        pair[:] = _rk4_step(rhs, *rows, dt[:2], pair)
        pair[1:] = _rk4_step(rhs, c[2:3], c[3:4], c[4:5], dt[2:], pair[1:])
        states[j] = pair[0]


def _stage_times(times: np.ndarray):
    """Stage times and steps of the lock-step grid steps over `times`.

    The dt/2 run steps on the grid's nodes and midpoints m = t + 0.5 *
    (t_next - t). Returns the (K, 5) stage times t, t + 0.5 * (m - t), m,
    m + 0.5 * (t_next - m), t_next (the dt step reads columns 0, 2, 4, the
    dt/2 substeps 0, 1, 2 and 2, 3, 4) and the (K, 3) steps t_next - t,
    m - t, t_next - m. Each midpoint is t + 0.5 * step, as a sequential RK4
    step computes it, so every entry is bitwise the time it would see.
    """
    t, t_next = times[:-1], times[1:]
    m = t + 0.5 * (t_next - t)
    dts = np.stack((t_next - t, m - t, t_next - m), axis=1)
    lattice = np.stack((t, t + 0.5 * dts[:, 1], m, m + 0.5 * dts[:, 2], t_next), axis=1)
    return lattice, dts


def _coeff_tables(coeffs, config: IntegrationConfig):
    """Yield the coefficient rows of every stage of config's grid steps,
    chunk by chunk, each as (table, dts): a (K, 5) + row shape table in the
    column order of _stage_times, and the chunk's steps.

    Each chunk evaluates `coeffs` once on all of its stage times, a time that
    recurs at each place it holds, and reshapes the rows into the table. The
    first chunk is one step; its rows size the rest to fit TABLE_BYTES.
    """
    a, chunk = 0, 1
    while a < config.n_steps:
        b = min(a + chunk, config.n_steps)
        lattice, dts = _stage_times(config.times(slice(a, b + 1)))
        values = np.asarray(coeffs(lattice.reshape(-1)), dtype=np.complex128)
        del lattice  # while the driver steps, only the table (a view of values) is held
        yield values.reshape(dts.shape[:1] + (5,) + values.shape[1:]), dts
        a = b
        chunk = max(1, TABLE_BYTES * len(dts) // values.nbytes)
        del values  # freed before the next chunk's rows are evaluated


def _rk4_step(rhs, c, c_mid, c_next, dt, y):
    """One classical RK4 step of each row of y by dt[r], with coefficient
    rows c, c_mid and c_next at the step's start, midpoint and end."""
    dt = dt.reshape((-1,) + (1,) * (y.ndim - 1))
    k1 = rhs(c, y)
    k2 = rhs(c_mid, y + (0.5 * dt) * k1)
    k3 = rhs(c_mid, y + (0.5 * dt) * k2)
    k4 = rhs(c_next, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


# -- classical boson sector ---------------------------------------------------


def evolve_classical_boson(spec: HamiltonianSpec, z0: complex,
                           config: IntegrationConfig) -> ClassicalBosonPath:
    """Integrate i z' = omega z + f and cross-validate with the closed form."""
    _check_spec(spec, ("boson",))

    def rhs(c, y):
        _, _, f, w = c.T[:, :, None]
        return -1j * (w * y + f)

    y0 = np.array([z0], dtype=np.complex128)
    series, _ = _integrate(rhs, spec.slot_rows, y0, config, "classical boson")
    return ClassicalBosonPath(config.times(), series[:, 0], _boson_closed_form(spec, z0, config))


def _slot_columns(spec: HamiltonianSpec, config: IntegrationConfig, cols: list[int]) -> np.ndarray:
    """The columns `cols` of spec.slot_rows on config's grid, with its
    refusals, read a block of TABLE_BYTES of rows at a time."""
    blocks = kernel.row_blocks(config.n_steps + 1, 64)  # a slot row: 4 complex values
    return np.concatenate([spec.slot_rows(config.times(rows))[:, cols] for rows in blocks])


def _boson_integrals(spec: HamiltonianSpec, config: IntegrationConfig):
    """(phase, drive) on config's grid: the integrals of omega and of
    forcing * exp(i phase), from which the boson closed forms are built."""
    forcing, omega = _slot_columns(spec, config, [2, 3]).T
    phase = cumulative_simpson(omega.real, config.t_end / config.n_steps)
    drive = cumulative_simpson(forcing * np.exp(1j * phase), config.t_end / config.n_steps)
    return phase, drive


def _boson_closed_form(spec: HamiltonianSpec, z0: complex,
                       config: IntegrationConfig) -> np.ndarray:
    """Closed-form solution of i z' = omega z + f from z0 on config's grid."""
    phase, drive = _boson_integrals(spec, config)
    return np.exp(-1j * phase) * (z0 - 1j * drive)


def build_ladder_invariant(spec: HamiltonianSpec, config: IntegrationConfig):
    """Invariant ladder series: (beta, gamma) for bosons, nu system for fermions."""
    if getattr(spec, "kind", None) == "fermion":
        return evolve_nu_system(spec, config)
    # "fermion" is listed so that a refusal names both kinds this takes
    _check_spec(spec, ("boson", "fermion"))
    phase, drive = _boson_integrals(spec, config)
    return BosonInvariantPath(config.times(), np.exp(1j * phase), 1j * drive)


def evolve_nu_system(spec: HamiltonianSpec,
                     config: IntegrationConfig) -> FermionInvariantPath:
    """Auxiliary system for the forced-fermion invariant, from (1, 0, 0)."""
    _check_spec(spec, ("fermion",), records=(config.n_steps + 1, 3))

    def rhs(c, y):
        _, fc, f, w = c.T[:, :, None]
        nm, npl, n3 = np.split(y, 3, axis=1)
        return np.concatenate(
            (
                1j * (nm * w - n3 * fc),
                1j * (n3 * f - npl * w),
                2j * (npl * fc - nm * f),
            ),
            axis=1,
        )

    y0 = np.array([1.0, 0.0, 0.0], dtype=np.complex128)
    return FermionInvariantPath(
        config.times(), _integrate(rhs, spec.slot_rows, y0, config, "nu system")[0])


# -- fermion / grassmann Schrödinger evolution --------------------------------


def evolve_schrodinger_fermion(h, s0: FermionState,
                               config: IntegrationConfig) -> Trajectory:
    """RK4 on the amplitude coefficients of i d/dt psi = H(t) psi, H a fermion
    or grassmann HamiltonianSpec or DenseHamiltonian.

    A grassmann spec's trajectory carries its Grassmann law (see
    evolve_grassmann_classical) from its record-0 eigenvalue, unless that
    is not odd degree-one or holds the eta generator: the law's (zeta, phi)
    are rows 2-3 of the driver's state, their products ride in each
    stage's plan, and their dt vs dt/2 gap is gated when the trajectory is
    verified. No row reads another system's, so the law stays an
    independent check of the trajectory.
    """
    y0 = np.stack((s0.psi0.coeffs, s0.psi1.coeffs))
    gens = s0.gens
    n_gen = gens.n_generators
    _check_spec(h, ("fermion", "grassmann"), gens, (config.n_records, y0.size))
    masks = h.slot_masks(gens)
    law = False
    # a non-finite start carries no law, so the driver's gate refuses it, not
    # the inverse inside the eigenvalue; a DenseHamiltonian's trajectory none
    if h.kind == "grassmann" and isinstance(h, HamiltonianSpec) and np.isfinite(y0).all():
        zeta0 = Multivector(gens, extract_eigenvalue(y0[None])[0][0])  # record 0's
        if _odd_degree_one_rows(zeta0.coeffs[None])[0] and not _holds_eta(masks, zeta0):
            law = True
            y0 = np.concatenate((y0, [zeta0.coeffs, np.zeros(gens.dim, dtype=np.complex128)]))
    rec_idx = config.record_indices()
    records, gaps = _integrate(_rhs(n_gen, 2, law, masks), h.slot_rows, y0, config,
                               ("fermion Schrödinger", _LAW_LABEL) if law
                               else "fermion Schrödinger", rec_idx)
    amplitudes = records[:, :2]

    # physical norm^2 = body of <psi|psi>; the soul components are only
    # conserved for parity-even Hamiltonians. Record 0 is s0.
    norm = _norm_bodies(amplitudes)
    norm_dev = np.array([abs(complex(n) - complex(norm[0])) for n in norm])
    lams, residuals = np.empty(amplitudes.shape[::2], dtype=complex), np.empty(len(records))
    for rows in _record_blocks(amplitudes):
        lams[rows], residuals[rows] = extract_eigenvalue(amplitudes[rows])
    path = GrassmannPath(gens, config.times(rec_idx), records[:, 2], records[:, 3],
                         gaps[1]) if law else None
    return Trajectory(h.kind, config, amplitudes, lams, residuals, norm_dev,
                      spec=h, gens=gens, law=path)


# -- boson Schrödinger evolution ----------------------------------------------


def evolve_schrodinger_boson(spec: HamiltonianSpec, s0: BosonState,
                             config: IntegrationConfig) -> Trajectory:
    """RK4 on truncated amplitudes under omega*a†a + f*a† + conj(f)*a + g,
    refused (TruncationBreach) at the first grid point whose tail mass
    exceeds BREACH_TOL or is NaN."""
    _check_spec(spec, ("boson",), records=(config.n_records, s0.amps.size))
    n = np.arange(s0.amps.size)

    def rhs(c, y):
        g, fc, f, w = c.T[:, :, None]
        return -1j * (w * (n * y) + f * _raise(y) + fc * _lower(y) + g * y)

    rhs.program = kernel.compiled.Program.ladder(_ladder_sqrt(n.size))  # C where it can
    records, _ = _integrate(rhs, spec.slot_rows, s0.amps, config, "boson Schrödinger",
                            config.record_indices(), check=_tail_guard)

    lams, residuals, norm_dev = (np.empty(len(records), dtype=t) for t in (complex, float, float))
    for rows in _record_blocks(records):
        lams[rows], residuals[rows] = eigenvalue_lsq(records[rows])
        norm_dev[rows] = np.abs(np.sum(np.abs(records[rows]) ** 2, axis=-1) - s0.norm_sq())
    return Trajectory("boson", config, records, lams[:, None], residuals, norm_dev, spec)


def _tail_mass(states: np.ndarray) -> np.ndarray:
    """Per state (a row of levels), the mass of its top two levels over its
    norm squared, bit for bit as float((abs(y[-1]) ** 2 + abs(y[-2]) ** 2)
    / np.sum(abs(y) ** 2)) per state: np.float_power squares a scalar's way
    (pow), where an array's ** 2 multiplies, which rounds differently in
    about one value in a thousand."""
    mass = np.abs(states) ** 2
    top = np.abs(states[:, -2:])
    return ((np.float_power(top[:, 1], 2) + np.float_power(top[:, 0], 2))
            / np.sum(mass, axis=1))


def _tail_guard(ts: np.ndarray, states: np.ndarray) -> None:
    """Refuse (TruncationBreach) the first of the states at times ts whose
    tail mass exceeds BREACH_TOL; NaN does."""
    tail = _tail_mass(states)
    breach = np.flatnonzero(~(tail <= BREACH_TOL))
    if breach.size:
        k = breach[0]
        raise TruncationBreach(
            f"tail mass {float(tail[k]):.3e} at t={ts[k]:.6g} exceeds {BREACH_TOL}"
        )


# -- grassmann classical sector -----------------------------------------------

_LAW_LABEL = "grassmann classical"


def _holds_eta(masks, zeta: Multivector) -> bool:
    """Whether zeta holds the eta generator of slot_masks (a DenseHamiltonian's None: none)."""
    return masks is not None and any(mask & masks[2] for mask in zeta.terms)


def _refuse_eta(spec, zeta0: Multivector) -> None:
    """Refuse (GeneratorCollision) a Grassmann law's start on a spec's eta generator."""
    if _holds_eta(spec.slot_masks(zeta0.gens), zeta0):
        raise GeneratorCollision(f"eta generator {spec.eta_generator!r} appears in the "
                                 "initial value")


def _rhs(n_gen: int, turn_rows: int, law: bool, masks):
    """The RHS of a state of `turn_rows` (0 or 2) fermion amplitude rows,
    then, if `law`, the Grassmann law's (zeta, phi), from a Hamiltonian's
    slot_masks. The law reads the slots as (delta, -eta*, eta, omega).

    A spec's masks put b and b† on one generator each and I and b†b at the
    body (omega and delta are c-numbers), so a product keeps at most one
    pair per target: the RHS evaluates one fused plan, then its post-ops,
    and carries the plan's kernel.compiled.Program, which the driver may
    run in C (see _integrate). A DenseHamiltonian's None gives dense
    stages, each with one kernel.multiply call: H psi, or without
    amplitude rows the law's zeta* eta + eta* zeta, omega the b†b slot's
    body."""
    dim, rows = 1 << n_gen, turn_rows + 2 * law
    if masks is None:  # a DenseHamiltonian's trajectory carries no law
        def rhs(c, y):
            if turn_rows:  # H psi
                out = _apply_rows(c, y, n_gen)
                out *= -1j
                return out
            pairs = np.empty((2,) + y.shape, dtype=np.complex128)  # left, right factors
            pairs[0, :, 0] = kernel.conjugate(y[:, 0], n_gen)
            np.negative(c[:, 1], out=pairs[0, :, 1])  # eta*, the lower slot negated
            pairs[1, :, 0], pairs[1, :, 1] = c[:, 2], y[:, 0]
            prod = kernel.multiply(*pairs.reshape(2, -1, dim), n_gen).reshape(y.shape)
            out = np.empty_like(y)
            zeta, phi = out[:, 0], out[:, 1]
            np.multiply(c[:, 3, :1], y[:, 0], out=zeta)
            zeta -= c[:, 2]
            zeta *= -1j
            np.add(prod[:, 0], prod[:, 1], out=phi)
            phi *= 0.5
            phi -= c[:, 0]
            return out

        return rhs
    # H psi's products as _apply_rows's: an odd slot gi's its amplitude into the other row
    terms = zip(_APPLY_SLOTS.tolist(), _APPLY_AMPS.tolist()) if turn_rows else ()
    products = tuple(((1, slot, (masks[slot],), None),
                      (0, amp, None, "gi" if _PARITY[slot] else None), amp ^ _PARITY[slot])
                     for slot, amp in terms)
    if law:  # zeta* eta + eta* zeta, eta* the lower slot negated
        products += (((0, turn_rows, None, "conj"), (1, 2, (masks[2],), None), turn_rows + 1),
                     ((1, 1, (masks[1],), "neg"), (0, turn_rows, None, None), turn_rows + 1))
    plan = kernel.bilinear_plan(n_gen, products, ((rows, dim), (4, 1), (rows, dim)))

    def rhs(c, y):
        out = kernel.bilinear(plan, y, c)
        out[:, :turn_rows] *= -1j
        if law:
            zeta, phi = out[:, turn_rows], out[:, turn_rows + 1]
            np.multiply(c[:, 3:], y[:, turn_rows], out=zeta)
            zeta[:, masks[2]] -= c[:, 2]
            zeta *= -1j
            phi *= 0.5
            phi[:, 0] -= c[:, 0]
        return out

    rhs.program = kernel.compiled.Program(plan, turn_rows, masks[2] if law else None)
    return rhs


def evolve_grassmann_classical(spec, zeta0: Multivector, config: IntegrationConfig,
                               record=None) -> GrassmannPath:
    """Integrate i zeta' = omega zeta - eta and the phase equation.

    `spec` is a grassmann HamiltonianSpec or DenseHamiltonian, read in its
    slot layout (delta, -eta*, eta, omega): a spec's slot_rows at its
    slot_masks, a DenseHamiltonian's dim-wide rows with omega the body of
    the b†b slot. The path holds the grid points `record` (every one by
    default). A grassmann spec's trajectory integrates the same law in its
    own driver loop (see evolve_schrodinger_fermion).

    Note the implemented phase law is phi' = -delta + (zeta* eta + eta* zeta)/2,
    which is what makes exp(i phi(t)) |zeta(t)> solve the Schrödinger equation
    with the i d/dt psi = H psi sign convention.
    """
    gens = zeta0.gens
    require_odd_degree_one(zeta0, "initial eigenvalue")
    n_gen = gens.n_generators
    _check_spec(spec, ("grassmann",), gens,
                (config.n_steps + 1 if record is None else np.size(record), 2 * gens.dim))
    _refuse_eta(spec, zeta0)
    y0 = np.stack((zeta0.coeffs, np.zeros(gens.dim, dtype=np.complex128)))
    series, (gap,) = _integrate(_rhs(n_gen, 0, True, spec.slot_masks(gens)), spec.slot_rows,
                                y0, config, _LAW_LABEL, record)
    return GrassmannPath(gens, config.times() if record is None else config.times(record),
                         series[:, 0], series[:, 1], gap)


# -- operator transport ---------------------------------------------------------


def evolve_operator_transport(h, op0: FermionOperator,
                              config: IntegrationConfig) -> list[FermionOperator]:
    """Transport an operator along the evolution: dX/dt = i [X, H(t)].

    The solution is X(t) = U(t) X(0) U(t)†, i.e. the invariant whose initial
    value is X(0). Sampled at every grid time.
    """
    gens = op0.gens
    _check_spec(h, ("fermion", "grassmann"), gens, (config.n_steps + 1, 4 * gens.dim))
    coeffs = _dense_slots(h.slot_rows, h.slot_masks(gens), gens.dim)
    n_gen = gens.n_generators

    def rhs(hc, y):
        return 1j * _commutator_coeff_arrays(y, hc, n_gen)

    y0 = np.stack([c.coeffs for c in op0.coefficients()])
    series, _ = _integrate(rhs, coeffs, y0, config, "operator transport")
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


def invariant_residual(b_series, h, config: IntegrationConfig,
                       gens: GeneratorSet | None = None) -> np.ndarray:
    """Per-time sup-norm of dB/dt - i[B, H] over the basis coefficients.

    `b_series` is a FermionInvariantPath or one FermionOperator per grid
    time; `h` is what evolve_schrodinger_fermion takes. The commutators are
    composed a block of grid times at a time.
    """
    n_times = config.n_steps + 1
    if n_times < 3:
        raise ValidationError("the invariance residual needs a grid of 3 points or more")
    if isinstance(b_series, FermionInvariantPath):
        n = len(b_series.nu)
        gens = gens or getattr(h, "gens", None) or GeneratorSet(())
    else:
        ops = list(b_series)
        n = len(ops)
        gens = gens or (ops[0].gens if ops else None)  # an empty series fails the length check
        if any(op.gens != gens for op in ops):
            raise MismatchedGenerators("operator series over a foreign set")
    if n != n_times:
        raise ValidationError("operator series and grid lengths differ")
    _check_spec(h, ("fermion", "grassmann"), gens, (n_times, 4 * gens.dim))
    dt = config.t_end / config.n_steps  # times[1] - times[0], bit for bit
    _fd_order_check(dt)
    if isinstance(b_series, FermionInvariantPath):
        b = np.zeros((n, 4, gens.dim), dtype=np.complex128)
        b[:, :, 0] = _nu_slots(b_series.nu)
    else:
        b = np.array([[c.coeffs for c in op.coefficients()] for op in ops])
    table = _dense_slots(h.slot_rows, h.slot_masks(gens), gens.dim)
    dcoeff = _fd_derivative(b, dt)
    n_gen = gens.n_generators
    # the 12 slot-pair products of a block's times, both ways, fit in TABLE_BYTES
    block = max(1, TABLE_BYTES // (2 * 12 * b[0, 0].nbytes))
    residuals = np.empty(n_times)
    for a in range(0, n_times, block):
        bs, hs = b[a:a + block], table(config.times(slice(a, a + block)))
        comm = _commutator_coeff_arrays(bs, hs, n_gen)
        residuals[a:a + block] = np.max(np.abs(dcoeff[a:a + block] - 1j * comm),
                                        axis=(1, 2))
    return residuals


def _fd_order_check(dt: float) -> None:
    """Verify O(dt^2) behaviour of the differencing on a known-exact case, or
    an error at dt within 8 eps/dt, the roundoff floor (dt under about 1.7e-5)."""
    errs = []
    for scale in (1.0, 0.5):
        step = dt * scale
        n = int(16 / scale)
        ts = step * np.arange(n + 1)
        series = np.exp(1j * ts)
        approx = _fd_derivative(series, step)
        errs.append(float(np.max(np.abs(approx - 1j * series))))
    ratio = errs[0] / errs[1] if errs[1] > 0 else np.inf
    if not (2.5 <= ratio <= 7.0 or errs[0] <= 8 * np.finfo(float).eps / dt):
        raise GridTooCoarse(
            f"finite-difference refinement ratio {ratio:.2f} is not O(dt^2) at dt={dt:.3e}"
        )
