"""The driver's compiled RK4 loop (kernel/rk4.c) against its numpy loop."""

import functools
import math
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dynamics import (
    LOCK_BOSON,
    LOCK_FORCING,
    LOCK_G2,
    LOCK_GRASSMANN,
    awkward,
    bits,
    sequential_rk4,
)

from cohstab import dynamics, kernel
from cohstab.boson import MAX_NMAX, BosonState, _ladder_sqrt, make_coherent_boson
from cohstab.cli import main
from cohstab.coeffs import const_fn, cos_fn
from cohstab.coherence import verify_trajectory
from cohstab.dynamics import (
    BREACH_TOL,
    HamiltonianSpec,
    IntegrationConfig,
    evolve_grassmann_classical,
    evolve_schrodinger_boson,
    evolve_schrodinger_fermion,
)
from cohstab.errors import StepTooLarge, TruncationBreach
from cohstab.fermion import FermionState, make_coherent
from cohstab.grassmann import GeneratorSet, Multivector
from cohstab.kernel import compiled, pyref

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = tuple(path.stem for path in sorted((ROOT / "scenarios").glob("*.ini")))
LADDER_LEVELS = (16, 32, 64)
HAS_COMPILER = shutil.which(compiled.COMPILER) is not None
NUMPY_LOOP = "the numpy loop, chosen by a test"  # a reason, as compiled._chosen holds it
PLAIN_STATUS = "compiled C loop (rk4.c), plain complex-multiply spelling, boson ladder scalar"
FMA_STATUS = ("compiled C loop (rk4.c), fma complex-multiply spelling, "
              "boson ladder two levels per AVX register")


class _Captured(Exception):
    pass


def _driver_call(start, cfg):
    """The (rhs, coeffs, y0, times, label, record) an evolution hands the
    driver, which is not run."""
    integrate, got = dynamics._integrate, []

    def capture(*args, **kw):
        got.append(args)
        raise _Captured

    dynamics._integrate = capture
    try:
        start(cfg)
    except _Captured:
        pass
    finally:
        dynamics._integrate = integrate
    return got[0]


def _start(kind, n_pairs):
    """An evolution over n_pairs generator pairs, eta first, whose RHS is a
    fused plan: a fermion spec's trajectory, a grassmann spec's trajectory
    carrying its law, or the standalone law."""
    gens = GeneratorSet.from_pairs(("eta", "zeta", "chi", "xi")[:n_pairs])
    spec = HamiltonianSpec("grassmann", const_fn(1.0) + cos_fn(0.2, 2.0), LOCK_FORCING,
                           const_fn(0.1), gens=gens, eta_generator="eta")
    if kind == "fermion":
        spec = HamiltonianSpec("fermion", const_fn(1.0), LOCK_FORCING, const_fn(0.1))
    if kind == "law":
        return lambda cfg: evolve_grassmann_classical(spec, gens.zero(), cfg)
    # eta*, not eta, so that a grassmann trajectory carries its law
    return lambda cfg: evolve_schrodinger_fermion(spec, make_coherent(gens.gen("eta*")), cfg)


def _awkward_rows(omega_real: bool):
    """Coefficient rows drawn by awkward(), the same at the same times."""
    def coeffs(ts):
        rows = awkward(np.random.default_rng(bits(ts).tolist()), (len(ts), 4))
        if omega_real:
            rows[:, 3].imag = 0.0
        return rows

    return coeffs


def lock_step_mismatches(kind, n_pairs, omega_real, seed=0) -> int:
    """Raw bits in which the compiled and numpy loops disagree on one
    awkward evolution: its records at every grid point and its gaps. Needs
    a STEP_TOL the awkward gaps pass."""
    cfg = IntegrationConfig(0.05, 1e-2)
    rhs, _, y0, _, label, _ = _driver_call(_start(kind, n_pairs), cfg)
    assert hasattr(rhs, "program")
    y0 = awkward(np.random.default_rng(seed), np.shape(y0))
    coeffs = _awkward_rows(omega_real)
    runs = []
    for step in (rhs, lambda c, y: rhs(c, y)):  # the program, then the numpy loop
        records, gaps = dynamics._integrate(step, coeffs, y0, cfg.times(), label)
        runs.append((records, np.array(gaps)))
    (a, a_gaps), (b, b_gaps) = runs
    return int(np.sum(bits(a) != bits(b)) + np.sum(bits(a_gaps) != bits(b_gaps)))


def _boson_start(levels):
    return lambda cfg: evolve_schrodinger_boson(LOCK_BOSON, make_coherent_boson(0.5, levels),
                                                cfg)


def ladder_mismatches(levels, omega_real, seed=0) -> int:
    """Raw bits in which the compiled and numpy loops disagree on one
    awkward boson evolution on `levels` levels: its records every 4th grid
    step, the times and states of every block its check sees, and its gap.
    Tables of 7 grid steps and blocks of 3 states put records at the
    edges of both and inside them. Needs a STEP_TOL the awkward gap
    passes."""
    cfg = IntegrationConfig(0.3, 1e-2, stride=4)
    rhs, _, y0, _, label, record = _driver_call(_boson_start(levels), cfg)
    assert hasattr(rhs, "program")
    y0 = awkward(np.random.default_rng(seed), np.shape(y0))
    coeffs = _awkward_rows(omega_real)
    runs = []
    with mock.patch.multiple(dynamics, TABLE_BYTES=7 * 5 * 4 * 16, CHECK_BYTES=3 * y0.nbytes):
        for step in (rhs, lambda c, y: rhs(c, y)):  # the program, then the numpy loop
            seen = []
            records, gaps = dynamics._integrate(
                step, coeffs, y0, cfg.times(), label, record,
                lambda ts, states: seen.extend((ts.copy(), states.copy())))
            runs.append([records, np.array(gaps), *seen])
    (a, b) = runs
    # the start, then chunks of 1, 7, 7, 7, 7 and 1 grid steps in 1 + 4 * 3 + 1 blocks
    assert len(a) == len(b) == 2 + 2 * (1 + 14)
    return sum(int(np.sum(bits(x) != bits(y))) for x, y in zip(a, b, strict=True))


@pytest.fixture
def bilinear_calls(monkeypatch):
    """The kernel.bilinear calls of the test: the numpy loop makes them,
    the compiled one none."""
    calls = []
    bilinear = kernel.bilinear
    monkeypatch.setattr(kernel, "bilinear", lambda *a: (calls.append(1), bilinear(*a))[1])
    return calls


ORACLE_CASES = [(kind, n_pairs, omega_real) for kind in ("fermion", "grassmann", "law")
                for n_pairs in (1, 2, 4) for omega_real in (True, False)]


@pytest.mark.parametrize("kind, n_pairs, omega_real", ORACLE_CASES, ids=[
    f"{kind}_c{4 ** n}_{'real' if real else 'complex'}_omega"
    for kind, n, real in ORACLE_CASES])
def test_compiled_loop_matches_numpy_loop_bitwise(kind, n_pairs, omega_real,
                                                  bilinear_calls, monkeypatch):
    monkeypatch.setattr(dynamics, "STEP_TOL", math.inf)
    for seed in range(3 if n_pairs < 4 else 1):
        assert lock_step_mismatches(kind, n_pairs, omega_real, seed) == 0
    # with a compiler the program ran in C: only the numpy runs made plan calls
    numpy_runs = (3 if n_pairs < 4 else 1) * 5 * 8
    assert len(bilinear_calls) == (numpy_runs if HAS_COMPILER else 2 * numpy_runs)


LADDER_CASES = [(levels, omega_real) for levels in LADDER_LEVELS
                for omega_real in (True, False)]


@pytest.mark.parametrize("levels, omega_real", LADDER_CASES, ids=[
    f"l{levels}_{'real' if real else 'complex'}_omega" for levels, real in LADDER_CASES])
def test_compiled_ladder_matches_numpy_loop_bitwise(levels, omega_real, monkeypatch):
    monkeypatch.setattr(dynamics, "STEP_TOL", math.inf)
    numpy_chunks = []
    numpy_chunk = dynamics._numpy_chunk
    monkeypatch.setattr(dynamics, "_numpy_chunk",
                        lambda *a: (numpy_chunks.append(1), numpy_chunk(*a))[1])
    for seed in range(3):
        assert ladder_mismatches(levels, omega_real, seed) == 0
    # with a compiler the program ran in C: only the numpy runs took the numpy loop
    assert len(numpy_chunks) == 3 * 14 * (1 if HAS_COMPILER else 2)


# Drawn seeds, sizes and omega for the two oracles above, on the same grids;
# a coherent start on fewer than 7 levels breaches the tail bound.
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(kind=st.sampled_from(("fermion", "grassmann", "law")), n_pairs=st.sampled_from((1, 2, 4)),
       omega_real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_compiled_loop_matches_numpy_loop_on_drawn_states(kind, n_pairs, omega_real, seed):
    with mock.patch.object(dynamics, "STEP_TOL", math.inf):
        assert lock_step_mismatches(kind, n_pairs, omega_real, seed) == 0


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(levels=st.integers(7, 64), omega_real=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_compiled_ladder_matches_numpy_loop_on_drawn_states(levels, omega_real, seed):
    with mock.patch.object(dynamics, "STEP_TOL", math.inf):
        assert ladder_mismatches(levels, omega_real, seed) == 0


def _ladder_rhs(levels):
    """The boson Schrödinger evolution's numpy RHS on `levels` levels, one
    included: BosonState refuses a single level, Program.ladder does not."""
    state = object.__new__(BosonState)
    object.__setattr__(state, "amps", np.zeros(levels, dtype=np.complex128))
    return _driver_call(lambda cfg: evolve_schrodinger_boson(LOCK_BOSON, state, cfg),
                        IntegrationConfig(0.05, 1e-2))[0]


RUNNER_LEVELS = (*range(1, 10), 63, 64, 65, MAX_NMAX + 1)


@pytest.mark.parametrize("omega_real", [True, False], ids=["real_omega", "complex_omega"])
@pytest.mark.parametrize("levels", RUNNER_LEVELS, ids=[f"l{n}" for n in RUNNER_LEVELS])
def test_ladder_runner_matches_numpy_chunk_bitwise(levels, omega_real):
    # every split of the fused ladder's two-level body: level 0, the pairs,
    # an odd level left over and the top level, and the update loops' odd
    # value; the runner straight against the numpy chunk, no guard between
    run = compiled.Program.ladder(_ladder_sqrt(levels)).runner()
    if run is None:
        assert not HAS_COMPILER
        return
    numpy_chunk = functools.partial(dynamics._numpy_chunk, _ladder_rhs(levels))
    steps = 4
    _, dts = dynamics._stage_times(np.linspace(0.0, 4e-3, steps + 1))
    for seed in range(2):
        rng = np.random.default_rng(seed)
        table = awkward(rng, (steps, 5, 4))
        if omega_real:
            table[..., 3].imag = 0.0
        start = awkward(rng, (2, levels))
        runs = []
        for chunk in (run, numpy_chunk):
            pair, states = start.copy(), np.empty((steps, levels), dtype=np.complex128)
            chunk(table, dts, pair, states)
            runs.append(bits(np.concatenate((pair, states))))
        assert np.array_equal(*runs)


def test_compiled_loop_matches_numpy_loop_without_avx_loops():
    # numpy's baseline loops make plain products, its AVX2/AVX-512 ones
    # fused: with the latter off, the library must pick its plain spelling,
    # and its graded product, which has no complex multiply, still match;
    # coefficient functions still give a time's bits wherever it sits in
    # a table, and the boson observer's rows those of each row alone
    off = ("X86_V3", "X86_V4", "AVX512_ICL", "AVX512_SPR")
    dispatch = (getattr(np, "_core", None) or np.core)._multiarray_umath.__cpu_dispatch__
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(f for f in off if f in dispatch),
               PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT / "tests"))))
    code = ("import math\nfrom cohstab import dynamics\nfrom cohstab.kernel import compiled\n"
            "import test_compiled as t\ndynamics.STEP_TOL = math.inf\n"
            "print(t.lock_step_mismatches('grassmann', 2, False))\n"
            "print(t.ladder_mismatches(64, False))\n"
            "print(t.product_mismatches(t.product_sweep()))\n"
            "import test_dynamics as d\n"
            "print(sum(sum(d.table_mismatches(spec, cfg).values())\n"
            "          for _, spec, cfg in d.TABLE_CASES))\n"
            "import test_boson as b\n"
            "print(b.observer_mismatches(b.observer_sweep()))\n"
            "print(compiled.status())\n")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    plan, ladder, product, tables, observer, status = proc.stdout.splitlines()
    assert plan == ladder == product == tables == observer == "0"
    if not HAS_COMPILER:
        assert status.startswith("numpy loop")
    elif platform.machine() in ("x86_64", "AMD64"):
        assert status == PLAIN_STATUS


@pytest.mark.parametrize("two_state_blocks", [False, True],
                         ids=["check_bytes_blocks", "two_state_blocks"])
def test_compiled_records_across_chunks_match_numpy_loop(two_state_blocks, monkeypatch):
    # 3 grid steps per chunk (a table row is 4 complex values); records every
    # 3rd step, or at grid points that skip the start, fall on chunk edges
    # and inside chunks, and with blocks of 2 states, which cut the chunks,
    # on block edges too
    cfg = IntegrationConfig(0.3, 1e-2, stride=3)
    zeta = LOCK_G2.gen("zeta")
    monkeypatch.setattr(dynamics, "TABLE_BYTES", 3 * 5 * 4 * 16)
    starts = (
        lambda c: evolve_schrodinger_fermion(LOCK_GRASSMANN, make_coherent(zeta), c),
        lambda c: evolve_grassmann_classical(LOCK_GRASSMANN, zeta, c, np.array([2, 3, 17, 30])),
    )

    def run(start):
        if two_state_blocks:
            y0 = np.asarray(_driver_call(start, cfg)[2], dtype=complex)
            monkeypatch.setattr(dynamics, "CHECK_BYTES", 2 * y0.nbytes)
        return start(cfg)

    def runs():
        traj, law = (run(start) for start in starts)
        return [traj.amplitudes, *(getattr(path, field) for path in (traj.law, law)
                                   for field in ("zeta", "phi", "gap"))]

    fast = runs()
    monkeypatch.setattr(compiled, "_chosen", NUMPY_LOOP)
    for got, want in zip(fast, runs(), strict=True):
        assert np.array_equal(bits(np.asarray(got)), bits(np.asarray(want)))


# -- gates through the compiled loop -----------------------------------------


def _refusal(start) -> str:
    with pytest.raises(StepTooLarge) as caught:
        start()
    return str(caught.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("row", [0, 1])
def test_nan_start_is_refused_as_by_the_numpy_loop(row, bilinear_calls, monkeypatch):
    s0 = make_coherent(LOCK_G2.gen("zeta"))
    amps = [s0.psi0.coeffs.copy(), s0.psi1.coeffs.copy()]
    amps[row][3] = np.nan
    s0 = FermionState(LOCK_G2, *(Multivector(LOCK_G2, a) for a in amps))
    cfg = IntegrationConfig(0.05, 1e-2)
    fast = _refusal(lambda: evolve_schrodinger_fermion(LOCK_GRASSMANN, s0, cfg))
    assert not bilinear_calls or not HAS_COMPILER
    monkeypatch.setattr(compiled, "_chosen", NUMPY_LOOP)
    slow = _refusal(lambda: evolve_schrodinger_fermion(LOCK_GRASSMANN, s0, cfg))
    assert fast == slow == "fermion Schrödinger: halving dt changes endpoint by nan (> 1e-08)"


@pytest.mark.parametrize("start", [
    lambda cfg: evolve_schrodinger_fermion(LOCK_GRASSMANN, make_coherent(LOCK_G2.gen("zeta")),
                                           cfg),
    lambda cfg: evolve_grassmann_classical(LOCK_GRASSMANN, LOCK_G2.gen("zeta"), cfg),
], ids=["trajectory", "law"])
def test_large_dt_is_refused_as_by_the_numpy_loop(start, monkeypatch):
    cfg = IntegrationConfig(1.0, 0.1)
    fast = _refusal(lambda: start(cfg))
    with monkeypatch.context() as numpy_only:
        numpy_only.setattr(compiled, "_chosen", NUMPY_LOOP)
        slow = _refusal(lambda: start(cfg))
    assert fast == slow and "halving dt changes endpoint by" in fast


def test_carried_law_gap_reaches_its_path_as_in_the_numpy_loop(monkeypatch):
    cfg = IntegrationConfig(1.0, 0.1)
    s0 = make_coherent(LOCK_G2.gen("zeta"))
    monkeypatch.setattr(dynamics, "STEP_TOL", 1.0)  # the trajectory passes
    fast = evolve_schrodinger_fermion(LOCK_GRASSMANN, s0, cfg)
    with monkeypatch.context() as numpy_only:
        numpy_only.setattr(compiled, "_chosen", NUMPY_LOOP)
        slow = evolve_schrodinger_fermion(LOCK_GRASSMANN, s0, cfg)
    assert bits(np.array(fast.law.gap)) == bits(np.array(slow.law.gap))
    monkeypatch.setattr(dynamics, "STEP_TOL", fast.law.gap / 2)
    messages = {_refusal(lambda: verify_trajectory(traj, "grassmann")) for traj in (fast, slow)}
    assert messages == {f"grassmann classical: halving dt changes endpoint by "
                        f"{fast.law.gap:.3e} (> {fast.law.gap / 2})"}


# -- the boson tail guard, a block at a time ----------------------------------


def _breach(start) -> str:
    with pytest.raises(TruncationBreach) as caught:
        start()
    return str(caught.value)


def _per_point_tail(y) -> float:
    """The tail guard's formula on one state, as it ran once per grid point."""
    nsq = float(np.sum(np.abs(y) ** 2))
    return float((np.abs(y[-1]) ** 2 + np.abs(y[-2]) ** 2) / nsq)


@pytest.mark.parametrize("levels", LADDER_LEVELS)
def test_mid_block_breach_is_refused_as_by_the_numpy_loop(levels, monkeypatch):
    spec = HamiltonianSpec("boson", const_fn(1.0), const_fn(5.0))
    s0 = make_coherent_boson(0.5, levels)
    cfg = IntegrationConfig(2.0, 1e-2)
    guard, blocks = dynamics._tail_guard, []

    def seen(ts, states):
        blocks.append(ts.copy())
        guard(ts, states)

    monkeypatch.setattr(dynamics, "_tail_guard", seen)
    fast = _breach(lambda: evolve_schrodinger_boson(spec, s0, cfg))
    fast_blocks = blocks[:]
    blocks.clear()
    with monkeypatch.context() as numpy_only:
        numpy_only.setattr(compiled, "_chosen", NUMPY_LOOP)
        slow = _breach(lambda: evolve_schrodinger_boson(spec, s0, cfg))
    # the per-point reference: a run on its own, the formula at every grid point
    rhs, coeffs, y0, *_ = _driver_call(lambda c: evolve_schrodinger_boson(spec, s0, c), cfg)
    tails = [_per_point_tail(y) for y in sequential_rk4(rhs, coeffs, y0, cfg.times())]
    k = next(i for i, tail in enumerate(tails) if not tail <= BREACH_TOL)
    t = cfg.times()[k]
    assert fast == slow == f"tail mass {tails[k]:.3e} at t={t:.6g} exceeds {BREACH_TOL}"
    # both loops checked the same blocks, the last of which holds the breach
    # before its end
    assert len(fast_blocks) == len(blocks)
    assert all(np.array_equal(bits(a), bits(b)) for a, b in zip(fast_blocks, blocks))
    assert t in fast_blocks[-1][:-1] and t not in np.concatenate(fast_blocks[:-1])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("levels", LADDER_LEVELS)
def test_vectorised_tail_matches_per_point_formula(levels):
    rng = np.random.default_rng(levels)
    states = awkward(rng, (3000, levels)) * np.exp(rng.uniform(-320.0, 320.0, (3000, 1)))
    states[:1000, -2:] *= 1e-4  # tails near BREACH_TOL
    states[1000] = 0.0  # 0 / 0
    for row, level, value in ((1001, -1, np.nan), (1002, 3, np.nan), (1003, -2, np.inf),
                              (1004, 0, complex(0.0, -np.inf)), (1005, -1, 1e300)):
        states[row, level] = value
    got = dynamics._tail_mass(states)
    want = np.array([_per_point_tail(y) for y in states])
    assert np.array_equal(bits(got), bits(want))
    assert np.isnan(want[1000:1004]).all() and np.isfinite(want).sum() > 2900


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_tail_guard_names_the_first_failing_point():
    states = np.zeros((6, 16), dtype=np.complex128)
    states[:, 0] = 1.0
    states[4, 5] = np.nan
    states[2, -1] = 2e-3  # tail mass 4e-6
    states[5, -2] = 1.0
    ts = np.linspace(0.0, 0.5, 6)
    with pytest.raises(TruncationBreach, match=r"^tail mass 4\.000e-06 at t=0\.2 exceeds"):
        dynamics._tail_guard(ts, states)
    with pytest.raises(TruncationBreach, match=r"^tail mass nan at t=0\.4 exceeds"):
        dynamics._tail_guard(ts[3:], states[3:])
    dynamics._tail_guard(ts[:2], states[:2])


# -- the graded product of kernel.multiply ------------------------------------

#: Parts the compiled product must carry as numpy's does, bit for bit.
SPECIAL_PARTS = np.array([0.0, -0.0, 5e-324, -2.5e-310, np.nan, -np.nan, np.inf, -np.inf])
PRODUCT_ROWS = (None, 1, 3, 7)  # None: one product of (dim,) operands


def pyref_product(x, y, n_gen):
    """kernel.multiply's numpy product: every row through one plan."""
    dim = 1 << n_gen
    plan = pyref.Plan(n_gen, (((0, 0, None, None), (1, 0, None, None), 0),), ((1, dim),) * 3)
    return pyref.evaluate(plan, x.reshape(-1, dim), y.reshape(-1, dim)).reshape(x.shape)


def product_operands(n_gen, rows, seed, share, zero_rows, zero_meets_non_finite):
    """x and y: awkward() values (normal, +-0.0, subnormal) with each part
    replaced by one of SPECIAL_PARTS with probability `share`; with
    zero_rows, x's first row and y's last row all zero; with
    zero_meets_non_finite, +-0 coefficients of x's last row facing a y row
    that holds inf or NaN."""
    rng = np.random.default_rng(seed)
    shape = (rows or 1, 1 << n_gen)
    x, y = awkward(rng, shape), awkward(rng, shape)
    for z in (x, y):
        parts = z.view(np.float64)
        hit = rng.random(parts.shape) < share
        parts[hit] = rng.choice(SPECIAL_PARTS, hit.sum())
    if zero_rows:
        x[0] = complex(-0.0, 0.0)
        y[-1] = 0.0
    if zero_meets_non_finite:
        x[-1, rng.random(shape[1]) < 0.5] = complex(0.0, -0.0)
        y[-1, rng.integers(shape[1])] = complex(rng.choice(SPECIAL_PARTS[4:]), 1.0)
    return (x[0], y[0]) if rows is None else (x, y)


def nan_blind_bits(a) -> np.ndarray:
    """Raw bits, every NaN as one pattern. Of an op on two NaNs, numpy's
    SIMD loops and scalar tails return different ones, so its own rows
    differ in NaN sign by where they sit in a batch."""
    parts = np.ascontiguousarray(a).view(np.float64)
    return np.where(np.isnan(parts), np.uint64(0x7FF8000000000000), parts.view(np.uint64))


def product_mismatches(cases) -> int:
    """Raw bits, NaNs aside, in which kernel.multiply and pyref_product
    disagree over cases of product_operands' arguments."""
    wrong = 0
    with np.errstate(invalid="ignore", over="ignore"):
        for n_gen, *args in cases:
            x, y = product_operands(n_gen, *args)
            wrong += int(np.sum(nan_blind_bits(kernel.multiply(x, y, n_gen))
                                != nan_blind_bits(pyref_product(x, y, n_gen))))
    return wrong


def product_sweep():
    """Every generator count and batch shape, with special parts rare and
    common, zero rows and zeros facing a non-finite row."""
    return [(n_gen, rows, seed, share, seed % 2 == 0, seed % 3 == 0)
            for n_gen in range(kernel.tables.MAX_GENERATORS + 1) for rows in PRODUCT_ROWS
            for seed, share in enumerate((0.0, 0.05, 0.5))]


@pytest.mark.parametrize("n_gen", range(kernel.tables.MAX_GENERATORS + 1))
@settings(derandomize=True, database=None, max_examples=12, deadline=None)
@given(rows=st.sampled_from(PRODUCT_ROWS), seed=st.integers(0, 2**32 - 1),
       share=st.sampled_from((0.0, 0.02, 0.2, 1.0)), zero_rows=st.booleans(),
       zero_meets_non_finite=st.booleans())
def test_compiled_product_matches_numpy_product_bitwise(n_gen, rows, seed, share, zero_rows,
                                                        zero_meets_non_finite):
    assert (compiled.product() is not None) == HAS_COMPILER
    assert product_mismatches([(n_gen, rows, seed, share, zero_rows,
                                zero_meets_non_finite)]) == 0


def test_zero_skip_keeps_nan_of_zero_times_inf():
    # a +-0 coefficient facing inf is not skipped: 0 * inf is NaN
    x = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
    y = np.array([1.0, np.inf, 1.0, 1.0], dtype=complex)
    with np.errstate(invalid="ignore"):
        got, want = kernel.multiply(x, y, 2), pyref_product(x, y, 2)
    assert np.isnan(got[1].real) and np.array_equal(nan_blind_bits(got), nan_blind_bits(want))


# -- fallback and build hygiene ------------------------------------------------


def _golden_runs(tmp_path, names=SCENARIOS) -> dict:
    """Whether `coherence run` writes each scenario's golden files byte for byte."""
    same = {}
    for name in names:
        out = tmp_path / name
        assert main(["run", str(ROOT / "scenarios" / f"{name}.ini"), "--out", str(out)]) == 0
        for produced in sorted(out.glob("*.csv")):
            same[produced.name] = (produced.read_bytes()
                                   == (ROOT / "tests" / "golden" / produced.name).read_bytes())
    return same


@pytest.fixture
def fresh_cache(monkeypatch, tmp_path):
    """An empty library cache, and no library loaded yet."""
    cache = tmp_path / "cache"
    monkeypatch.setattr(compiled, "CACHE", cache)
    monkeypatch.setattr(compiled, "_chosen", None)
    return cache


def test_missing_compiler_runs_numpy_loop_with_identical_goldens(fresh_cache, tmp_path,
                                                                 bilinear_calls, monkeypatch):
    monkeypatch.setattr(compiled, "COMPILER", "no-such-cc-for-cohstab")
    same = _golden_runs(tmp_path)
    assert len(same) == 8 and all(same.values()), same
    assert bilinear_calls  # the numpy loop ran
    assert compiled.status() == ("numpy loop: no compiled library (no C compiler "
                                 "'no-such-cc-for-cohstab' on PATH)")
    assert not fresh_cache.exists()


def test_failed_build_runs_numpy_loop_quietly(fresh_cache, tmp_path, capfd, monkeypatch):
    broken = tmp_path / "rk4.c"
    broken.write_text(compiled.SOURCE.read_text() + "\nthis is not C;\n")
    monkeypatch.setattr(compiled, "SOURCE", broken)
    status = compiled.status()
    out, err = capfd.readouterr()
    assert out == err == ""  # the compiler's complaints stay captured
    assert status.startswith("numpy loop: no compiled library")
    if HAS_COMPILER:
        assert f"{compiled.COMPILER} exited" in status
        assert list(fresh_cache.iterdir()) == []  # no temp file is left
    same = _golden_runs(tmp_path, ("grassmann_forced",))
    assert len(same) == 2 and all(same.values()), same


def test_build_timeout_runs_numpy_loop(fresh_cache, monkeypatch):
    monkeypatch.setattr(compiled, "BUILD_TIMEOUT", 1e-6)
    assert compiled.status().startswith("numpy loop: no compiled library")
    assert not fresh_cache.exists() or list(fresh_cache.iterdir()) == []


def test_cache_holds_one_library_per_source_hash(fresh_cache, capfd, monkeypatch):
    fresh_cache.mkdir()
    (fresh_cache / "rk4-0000000000000000.so").write_bytes(b"a library of an older source")
    status = compiled.status()
    out, err = capfd.readouterr()
    assert out == err == ""
    if not HAS_COMPILER:
        assert status.startswith("numpy loop")
        return
    assert status.startswith("compiled C loop (rk4.c), ")
    (lib,) = fresh_cache.iterdir()  # the stale library is gone, no temp file left
    assert lib.name.startswith("rk4-") and lib.suffix == ".so"
    built = lib.stat().st_mtime_ns
    # a cached library loads without a compiler, and is not rebuilt
    monkeypatch.setattr(compiled, "_chosen", None)
    monkeypatch.setattr(compiled, "COMPILER", "no-such-cc-for-cohstab")
    assert compiled.status() == status
    assert list(fresh_cache.iterdir()) == [lib] and lib.stat().st_mtime_ns == built


def test_spelling_probe_tells_the_spellings_apart():
    if not HAS_COMPILER:
        assert compiled.status().startswith("numpy loop")
        return
    import ctypes

    lib = ctypes.CDLL(str(compiled._build()))
    a, b = compiled._spelling_probe()
    got = {}
    for spelling in ("plain", "fma") if lib.cohstab_has_fma() else ("plain",):
        out = np.empty_like(a)
        getattr(lib, f"cohstab_cmul_{spelling}")(ctypes.c_int64(len(a)), *(
            ctypes.c_void_p(x.ctypes.data) for x in (a, b, out)))
        got[spelling] = bits(out)
    if len(got) == 2:
        assert not np.array_equal(got["plain"], got["fma"])
    assert any(np.array_equal(g, bits(a * b)) for g in got.values())


def test_product_stays_compiled_when_numpy_matches_neither_spelling(monkeypatch):
    # the RK4 loop needs numpy's spelling; the product has no complex multiply
    monkeypatch.setattr(compiled, "_chosen", None)
    monkeypatch.setattr(compiled, "_reference", lambda a, b: -np.multiply(a, b))
    if not HAS_COMPILER:
        assert compiled.product() is None
        return
    assert compiled.status() == ("numpy loop: numpy's complex multiply matches neither "
                                 "compiled spelling")
    assert compiled.product_status() == "compiled C (rk4.c)"
    assert compiled.product() is not None
    program = _driver_call(_start("grassmann", 2), IntegrationConfig(0.05, 1e-2))[0].program
    assert program.runner() is None
    assert product_mismatches(product_sweep()) == 0


def test_runner_checks_every_array_before_the_call():
    for start in (_start("grassmann", 2), _boson_start(16)):  # a plan, the ladder
        _check_runner(_driver_call(start, IntegrationConfig(0.05, 1e-2))[0].program)


def _check_runner(program):
    run = program.runner()
    if run is None:
        assert not HAS_COMPILER
        return
    state = program.state
    good = dict(table=np.zeros((3, 5, 4), complex), dts=np.full((3, 3), 0.01),
                pair=np.zeros((2,) + state, complex), states=np.zeros((3,) + state, complex))
    run(**good)
    bad = {
        "table": [np.zeros((3, 5, 4), np.complex64), np.zeros((3, 5, 5), complex),
                  np.zeros((3, 5, 8), complex)[:, :, ::2], np.zeros((2, 5, 4), complex),
                  np.zeros((3, 8, 4), complex)],
        "dts": [np.full((3, 3), 1, np.int64), np.full((3, 2), 0.01),
                np.full((3, 6), 0.01)[:, ::2]],
        "pair": [np.zeros((2,) + state, np.float64), np.zeros((1,) + state, complex),
                 np.zeros((2,) + state[:-1] + (2 * state[-1],), complex)[..., ::2]],
        "states": [np.zeros((2,) + state, complex), np.zeros((4,) + state, complex),
                   np.zeros((3,) + state, np.complex64),
                   np.zeros((3,) + state[:-1] + (2 * state[-1],), complex)[..., ::2]],
    }
    for name, values in bad.items():
        for value in values:
            with pytest.raises(ValueError, match=name):
                run(**{**good, name: value})
    for name in ("pair", "states"):
        frozen = good[name].copy()
        frozen.flags.writeable = False
        with pytest.raises(ValueError, match="writeable"):
            run(**{**good, name: frozen})


def test_program_refuses_a_dense_plan():
    plan = kernel.bilinear_plan(2, (((1, 0, None, None), (0, 0, None, None), 0),),
                                ((1, 4), (4, 4), (1, 4)))
    with pytest.raises(ValueError, match="not one rk4.c can run"):
        compiled.Program(plan, 1)


@pytest.mark.parametrize("sq", [np.sqrt(np.arange(1, 16, dtype=np.float32)),
                                np.sqrt(np.arange(1, 17)).reshape(4, 4), list(range(15))],
                         ids=["float32", "2d", "list"])
def test_ladder_program_refuses_a_wrong_sq(sq):
    with pytest.raises(ValueError, match="sq is not a 1-D float64 array"):
        compiled.Program.ladder(sq)


def _selftest_backends(capsys) -> tuple[str, str]:
    """The lines of `coherence selftest` that name the RK4 loop and the
    graded product."""
    assert main(["selftest"]) == 0
    lines = capsys.readouterr().out.splitlines()
    (loop,) = [line for line in lines if line.startswith("RK4 loop")]
    (product,) = [line for line in lines if line.startswith("graded product")]
    return loop, product


def test_status_names_the_spelling_and_the_ladder_width():
    # the plain spelling's wording on x86-64 is pinned without numpy's AVX
    # loops, in test_compiled_loop_matches_numpy_loop_without_avx_loops
    status = compiled.status()
    if not HAS_COMPILER:
        assert status.startswith("numpy loop")
        return
    assert status == {"fma": FMA_STATUS, "plain": PLAIN_STATUS}[compiled._library()[1]]


def test_selftest_names_the_loop(capsys):
    loop, product = _selftest_backends(capsys)
    assert loop.endswith(compiled.status())
    assert product.endswith(": " + compiled.product_status())
    if HAS_COMPILER:
        assert "compiled C loop" in loop
        assert product == "graded product of kernel.multiply: compiled C (rk4.c)"


def test_selftest_names_a_failed_build(fresh_cache, tmp_path, capsys, monkeypatch):
    broken = tmp_path / "rk4.c"
    broken.write_text(compiled.SOURCE.read_text() + "\nthis is not C;\n")
    monkeypatch.setattr(compiled, "SOURCE", broken)
    loop, product = _selftest_backends(capsys)
    reason = loop.partition(": numpy loop: ")[2]
    assert reason.startswith("no compiled library (")
    assert product == f"graded product of kernel.multiply: numpy (pyref.py): {reason}"
    if HAS_COMPILER:
        assert f"{compiled.COMPILER} exited 1: " in reason
