"""Per-product and end-to-end timings of the graded-product kernel.

Usage:
    PYTHONPATH=src python benchmarks/bench_kernels.py [--repeats N] [--json PATH]
    python benchmarks/bench_kernels.py --baseline REV --json PATH

Measures, on the numpy kernel, microseconds per graded product at 2, 4 and
8 generators in batches of 1, 2 and 5 rows: one kernel.multiply call per
batch, or one call per row for a kernel that takes no batch. Then the same
for the five products of one fermion Schrödinger RHS stage of a grassmann
spec (a 5-row batch whose left operands are zero off the forcing's
monomials), through the full table and, on a kernel that takes a support,
through the pairs that the support keeps. Then
the wall time of a coherent-state evolution (the criterion-3 shape) and of
each shipped scenario, run as `coherence run` runs it, with a byte check of
its trajectory against tests/golden/. Then two layers of the RK4 driver,
for the fermion Schrödinger evolution and the Grassmann law at 4, 16 and
256 coefficients: "one RK4 step" (four RHS stages and the update on one
state, on the evolution's own RHS) and "the dt vs dt/2 self-check" (one
grid step of the driver: the dt step and the two dt/2 substeps that check
it), each in microseconds of CPU time and RHS calls per grid step. Then
"coefficient evaluation per grid step" for the boson Schrödinger evolution
on 64 levels and the fermion Schrödinger evolution at 4, 16 and 256
coefficients: the wall time spent evaluating the Hamiltonian's coefficients
over one evolution, and the CoefficientFn calls, per grid step.

With --baseline the same measurements run in fresh interpreters, alternating
between this checkout's src/ and a `git archive` of REV, for ROUNDS rounds;
the JSON then holds a "parent" column (REV) and a "change" column (this
checkout), each with every round and the medians. The driver and
coefficient layers instead run both trees in one interpreter, alternating
run by run, which keeps this machine's drift in speed out of their comparison. Without
--baseline the JSON holds the one column measured in this interpreter.
"""

import argparse
import contextlib
import importlib
import inspect
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ("free_fermion", "forced_fermion", "grassmann_forced")
N_GENS = (2, 4, 8)
BATCHES = (1, 2, 5)
ROUNDS = 5
STEP_PAIRS = (1, 2, 4)  # generator pairs: 4, 16 and 256 coefficients
STEP_GRID = (0.2, 1e-3)  # t_end and dt of the step layers: 200 grid steps
STEP_RUNS = 10
BACKEND = "numpy (cohstab/kernel/pyref.py)"


def _batched_call(kernel, x, y, n_gen):
    """One call per batch if the kernel takes (B, dim) operands, else one per row."""
    if x.shape[0] == 1:
        return lambda: kernel.multiply(x[0], y[0], n_gen)
    try:
        out = kernel.multiply(x, y, n_gen)
    except (ValueError, IndexError):
        out = None
    if out is not None and out.shape == x.shape:
        return lambda: kernel.multiply(x, y, n_gen)
    return lambda: [kernel.multiply(a, b, n_gen) for a, b in zip(x, y)]


#: Left-operand masks of the five products of a fermion Schrödinger RHS
#: stage (ci, ci, cm, cn, cp) for a grassmann spec forced along generator 0.
FERMION_RHS_MASKS = (0, 0, 2, 0, 1)


def _us_per_product(fn, calls: int, batch: int) -> float:
    """Median over 5 blocks of `calls` calls of fn, per product."""
    fn()  # warm the tables
    blocks = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        blocks.append((time.perf_counter() - t0) / (calls * batch) * 1e6)
    return statistics.median(blocks)


def bench_products(kernel, repeats: int) -> dict:
    """Microseconds per product, per n_gen and batch; then per product of a
    fermion RHS stage's 5-row batch, full ("fermion_rhs_full_n*") and, if
    the kernel takes a support, restricted ("fermion_rhs_restricted_n*")."""
    rng = np.random.default_rng(7)
    restricted = "support" in inspect.signature(kernel.multiply).parameters
    out = {}
    for n_gen in N_GENS:
        dim = 1 << n_gen
        calls = repeats if n_gen < 8 else max(1, repeats // 10)
        for batch in BATCHES:
            x = rng.standard_normal((batch, dim)) + 1j * rng.standard_normal((batch, dim))
            y = rng.standard_normal((batch, dim)) + 1j * rng.standard_normal((batch, dim))
            out[f"n{n_gen}_b{batch}"] = _us_per_product(
                _batched_call(kernel, x, y, n_gen), calls, batch)
        x = np.zeros((5, dim), dtype=np.complex128)
        x[range(5), FERMION_RHS_MASKS] = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = rng.standard_normal((5, dim)) + 1j * rng.standard_normal((5, dim))
        out[f"fermion_rhs_full_n{n_gen}"] = _us_per_product(
            lambda: kernel.multiply(x, y, n_gen), calls, 5)
        if restricted:
            support = tuple(((m,), None) for m in FERMION_RHS_MASKS)
            out[f"fermion_rhs_restricted_n{n_gen}"] = _us_per_product(
                lambda: kernel.multiply(x, y, n_gen, support), calls, 5)
    return out


def _one_row(rhs, y0, coeffs=None, grid=None):
    """The driver's RHS as f(t, y) on one state, on `grid`.

    The driver with coefficient tables passes rhs(c, Y) over rows, with the
    rows c of `coeffs` at the stage times; here they are tabulated once for
    every stage time of `grid`, before any timing, and looked up per stage.
    The lock-step driver before it passed rhs(ts, Y), one time per row; the
    driver before that passed rhs(t, y) on one state.
    """
    y0 = np.asarray(y0, dtype=np.complex128)
    if coeffs is not None:
        t, t_next = grid[:-1], grid[1:]
        stages = np.concatenate((t, t + 0.5 * (t_next - t), t_next))
        rows = dict(zip(stages.tolist(), coeffs(stages)))
        return lambda t, y: rhs(rows[t][None], y[None])[0]
    try:
        out = rhs(np.array([0.0]), y0[None])
    except (IndexError, TypeError, ValueError):
        return rhs
    if np.shape(out) != (1,) + y0.shape:
        return rhs
    return lambda t, y: rhs(np.array([t]), y[None])[0]


def _rk4_run(f, y0, grid: np.ndarray) -> np.ndarray:
    y = np.array(y0, dtype=np.complex128)
    for i in range(grid.size - 1):
        t = grid[i]
        dt = grid[i + 1] - t
        k1 = f(t, y)
        k2 = f(t + 0.5 * dt, y + (0.5 * dt) * k1)
        k3 = f(t + 0.5 * dt, y + (0.5 * dt) * k2)
        k4 = f(grid[i + 1], y + dt * k3)
        y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return y


def _evolutions(package: str) -> dict:
    """Per evolution and size, a call that runs it on `package` over the
    step layers' grid: the fermion Schrödinger evolution and the Grassmann
    law at 4, 16 and 256 coefficients, and the boson Schrödinger evolution
    on 64 levels."""
    dynamics = importlib.import_module(f"{package}.dynamics")
    coeffs = importlib.import_module(f"{package}.coeffs")
    fermion = importlib.import_module(f"{package}.fermion")
    grassmann = importlib.import_module(f"{package}.grassmann")
    boson = importlib.import_module(f"{package}.boson")
    cfg = dynamics.IntegrationConfig(*STEP_GRID)
    forcing = coeffs.complex_pair(coeffs.cos_fn(0.3, 1.0), coeffs.sin_fn(-0.3, 1.0))
    boson_spec = dynamics.HamiltonianSpec(
        "boson", coeffs.const_fn(1.0) + coeffs.sin_fn(0.5, 1.0), forcing,
        coeffs.const_fn(0.2))
    out = {"boson_schrodinger_l64": lambda: dynamics.evolve_schrodinger_boson(
        boson_spec, boson.make_coherent_boson(0.5, 64), cfg)}
    for n_pairs in STEP_PAIRS:
        gens = grassmann.GeneratorSet.from_pairs(
            ("eta",) + tuple(f"zeta{k}" for k in range(1, n_pairs)))
        spec = dynamics.HamiltonianSpec(
            "grassmann", coeffs.const_fn(1.0) + coeffs.sin_fn(0.5, 1.0),
            coeffs.const_fn(0.4), coeffs.const_fn(0.2), gens=gens,
            eta_generator="eta")
        zeta = gens.zero()
        for k in range(1, n_pairs):
            zeta = zeta + gens.gen(f"zeta{k}")
        out[f"fermion_schrodinger_c{gens.dim}"] = (
            lambda spec=spec, zeta=zeta: dynamics.evolve_schrodinger_fermion(
                spec, fermion.make_coherent(zeta), cfg))
        out[f"grassmann_law_c{gens.dim}"] = (
            lambda spec=spec, zeta=zeta: dynamics.evolve_grassmann_classical(
                spec, zeta, cfg))
    return out


def _step_cases(package: str) -> dict:
    """Per fermion-sector evolution and size: `package`'s _integrate, the
    grid, the RHS, the arguments that the evolution passes to _integrate
    after the RHS, and the RHS on one state."""
    dynamics = importlib.import_module(f"{package}.dynamics")
    integrate = dynamics._integrate
    tabled = "coeffs" in inspect.signature(integrate).parameters
    cfg = dynamics.IntegrationConfig(*STEP_GRID)
    cases = {}
    for name, evolve in _evolutions(package).items():
        if name.startswith("boson"):
            continue
        captured = []

        def capture(rhs, *args, **kw):
            captured.append((rhs, args, kw))
            return integrate(rhs, *args, **kw)

        dynamics._integrate = capture
        try:
            evolve()
        finally:
            dynamics._integrate = integrate
        rhs, args, kw = captured[0]
        y0 = args[1] if tabled else args[0]
        one = _one_row(rhs, y0, args[0], cfg.times()) if tabled else _one_row(rhs, y0)
        cases[name] = (integrate, cfg, rhs, one, y0, args, kw)
    return cases


def bench_steps(packages: dict) -> dict:
    """One RK4 step and one self-checked grid step, per evolution and size.

    `packages` maps a column name to an importable cohstab package. All
    columns run in this interpreter, alternating run by run, so the
    machine's drift in speed falls on each alike. Times are the median of
    STEP_RUNS runs of the CPU time of this process, per grid step.
    """
    cases = {col: _step_cases(pkg) for col, pkg in packages.items()}
    names = list(next(iter(cases.values())))
    step_us = {col: {case: [] for case in names} for col in cases}
    gated_us = {col: {case: [] for case in names} for col in cases}
    calls = {col: {} for col in cases}
    for run in range(STEP_RUNS):
        order = list(cases) if run % 2 == 0 else list(cases)[::-1]
        for case in names:
            for col in order:
                integrate, cfg, rhs, one, y0, args, kw = cases[col][case]
                n_steps = cfg.n_steps
                count = [0]

                def counted(*a):
                    count[0] += 1
                    return rhs(*a)

                t0 = time.process_time()
                _rk4_run(one, y0, cfg.times())
                step_us[col][case].append((time.process_time() - t0) / n_steps * 1e6)
                t0 = time.process_time()
                integrate(counted, *args, **kw)
                gated_us[col][case].append((time.process_time() - t0) / n_steps * 1e6)
                calls[col][case] = count[0] / n_steps
    return {
        col: {
            case: {
                "rk4_step_us": statistics.median(step_us[col][case]),
                "rk4_step_rhs_calls": 4,
                "self_check_step_us": statistics.median(gated_us[col][case]),
                "self_check_step_rhs_calls": calls[col][case],
            }
            for case in names
        }
        for col in cases
    }


def _timed_coefficients(dynamics, coeffs, spent: list, calls: list):
    """Patch one tree so that its coefficient evaluation adds its wall time
    to spent[0] and its CoefficientFn calls to calls[0]; returns the undo.

    A tree with `_coeff_table` evaluates the coefficients there, once per
    chunk of grid steps; a tree before it evaluates them in the per-time
    getters that `_memo` and `_coeff_columns` hand the RHS. Only the
    outermost of nested timed calls counts. The clock is perf_counter: the
    getters are called a dozen times per grid step, too often for a CPU
    clock's system call.
    """
    depth = [0]

    def timed(fn):
        def run(*args, **kw):
            depth[0] += 1
            t0 = time.perf_counter()
            try:
                return fn(*args, **kw)
            finally:
                depth[0] -= 1
                if not depth[0]:
                    spent[0] += time.perf_counter() - t0
        return run

    fn_call = coeffs.CoefficientFn.__call__

    def counted_call(self, t):
        calls[0] += 1
        return fn_call(self, t)

    def timed_chunks(fn):
        def run(*args, **kw):
            chunks = fn(*args, **kw)
            while True:
                t0 = time.perf_counter()
                chunk = next(chunks, None)
                spent[0] += time.perf_counter() - t0
                if chunk is None:
                    return
                yield chunk
        return run

    saved = {name: getattr(dynamics, name)
             for name in ("_coeff_tables", "_coeff_table", "_memo", "_coeff_columns")
             if hasattr(dynamics, name)}
    if "_coeff_tables" in saved:
        dynamics._coeff_tables = timed_chunks(saved["_coeff_tables"])
    elif "_coeff_table" in saved:
        dynamics._coeff_table = timed(saved["_coeff_table"])
    else:
        for name, make in saved.items():
            setattr(dynamics, name, lambda *a, make=make: timed(make(*a)))
    coeffs.CoefficientFn.__call__ = counted_call

    def undo():
        coeffs.CoefficientFn.__call__ = fn_call
        for name, fn in saved.items():
            setattr(dynamics, name, fn)

    return undo


def bench_coefficients(packages: dict) -> dict:
    """Coefficient evaluation per grid step, for the boson and fermion
    Schrödinger evolutions.

    `packages` maps a column name to an importable cohstab package; the
    columns alternate run by run in this interpreter. Each run is one whole
    evolution on the step layers' grid; reported are the median over
    STEP_RUNS runs of the microseconds spent evaluating coefficients per
    grid step (see _timed_coefficients) and the CoefficientFn calls per
    grid step.
    """
    runs = {col: {name: evolve for name, evolve in _evolutions(pkg).items()
                  if "schrodinger" in name}
            for col, pkg in packages.items()}
    us = {col: {name: [] for name in runs[col]} for col in runs}
    calls = {col: {} for col in runs}
    n_steps = int(round(STEP_GRID[0] / STEP_GRID[1]))
    for run in range(STEP_RUNS):
        order = list(runs) if run % 2 == 0 else list(runs)[::-1]
        for name in next(iter(runs.values())):
            for col in order:
                pkg = packages[col]
                spent, count = [0.0], [0]
                undo = _timed_coefficients(importlib.import_module(f"{pkg}.dynamics"),
                                           importlib.import_module(f"{pkg}.coeffs"),
                                           spent, count)
                try:
                    runs[col][name]()
                finally:
                    undo()
                us[col][name].append(spent[0] / n_steps * 1e6)
                calls[col][name] = count[0] / n_steps
    return {
        col: {name: {"coeff_us_per_step": statistics.median(us[col][name]),
                     "coeff_fn_calls_per_step": calls[col][name]}
              for name in runs[col]}
        for col in runs
    }


def _steps_side_by_side(parent_pkg: Path, change_pkg: Path, tmp: Path):
    """bench_steps and bench_coefficients on two cohstab trees, imported
    under distinct names."""
    pkgs = tmp / "pkgs"
    for name, src in (("cohstab_parent", parent_pkg), ("cohstab_change", change_pkg)):
        shutil.copytree(src, pkgs / name, ignore=shutil.ignore_patterns("__pycache__"))
    sys.path.insert(0, str(pkgs))
    packages = {"parent": "cohstab_parent", "change": "cohstab_change"}
    try:
        return bench_steps(packages), bench_coefficients(packages)
    finally:
        sys.path.remove(str(pkgs))


def bench_evolution() -> float:
    from cohstab.coeffs import const_fn, sin_fn
    from cohstab.dynamics import HamiltonianSpec, IntegrationConfig, evolve_schrodinger_fermion
    from cohstab.fermion import make_coherent
    from cohstab.grassmann import GeneratorSet

    gens = GeneratorSet.from_pairs(("zeta", "eta"))
    spec = HamiltonianSpec(
        "grassmann", const_fn(1.0) + sin_fn(0.5, 1.0),
        const_fn(0.4), const_fn(0.2), gens=gens, eta_generator="eta",
    )
    s0 = make_coherent(gens.gen("zeta"))
    cfg = IntegrationConfig(t_end=1.0, dt=1e-3, stride=100)
    t0 = time.perf_counter()
    evolve_schrodinger_fermion(spec, s0, cfg)
    return time.perf_counter() - t0


def bench_scenarios() -> dict:
    """Wall time of parse + run of each shipped scenario, and its golden check."""
    from cohstab.cli import run_scenario
    from cohstab.scenario import parse_scenario

    out = {}
    for name in SCENARIOS:
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            scenario = parse_scenario(ROOT / "scenarios" / f"{name}.ini")
            code = run_scenario(scenario, tmp)
            wall = time.perf_counter() - t0
            golden = (ROOT / "tests" / "golden" / f"{name}.csv").read_bytes()
            same = (Path(tmp) / scenario.out_path).read_bytes() == golden
        out[name] = {"run_s": wall, "exit_code": code, "golden_match": same}
    return out


def measure(repeats: int) -> dict:
    from cohstab import kernel

    result = {"backend": BACKEND, "us_per_product": bench_products(kernel, repeats)}
    result["evolution_s"] = bench_evolution()
    result["scenarios"] = bench_scenarios()
    return result


def _worker(src: Path, repeats: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--repeats", str(repeats),
         "--json", "-"],
        env=env, check=True, capture_output=True, text=True,
    )
    return json.loads(proc.stdout)


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _medians(rounds: list[dict]) -> dict:
    first = rounds[0]
    med = {
        "us_per_product": {k: statistics.median(r["us_per_product"][k] for r in rounds)
                           for k in first["us_per_product"]},
        "evolution_s": statistics.median(r["evolution_s"] for r in rounds),
        "scenario_run_s": {
            name: statistics.median(r["scenarios"][name]["run_s"] for r in rounds)
            for name in first["scenarios"]
        },
    }
    med["scenario_run_s"]["total"] = sum(med["scenario_run_s"].values())
    return med


def compare(rev: str, repeats: int) -> dict:
    """Alternate fresh-interpreter runs of REV and of this checkout."""
    columns = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as tmp:
        archive = Path(tmp) / "parent.tar"
        subprocess.run(["git", "archive", "-o", str(archive), rev, "src"],
                       cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(Path(tmp) / "parent", filter="data")
        for _ in range(ROUNDS):
            columns["parent"].append(_worker(Path(tmp) / "parent" / "src", repeats))
            columns["change"].append(_worker(ROOT / "src", repeats))
        steps, coefficients = _steps_side_by_side(
            Path(tmp) / "parent" / "src" / "cohstab", ROOT / "src" / "cohstab",
            Path(tmp))
    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--", "src"))
    sources = {
        "parent": _git("rev-parse", rev),
        "change": f"{head} with uncommitted src/ changes" if dirty else head,
    }
    return {
        name: {"source": sources[name], "backend": runs[0]["backend"],
               "steps": steps[name], "coefficients": coefficients[name],
               "median": _medians(runs), "rounds": runs}
        for name, runs in columns.items()
    }


def _print_column(name: str, data: dict) -> None:
    print(f"[{name}] backend: {data['backend']}")
    table = data["us_per_product"]
    for n_gen in N_GENS:
        row = "".join(f"{table[f'n{n_gen}_b{b}']:>10.2f}" for b in BATCHES)
        rhs = "".join(f"{table[f'fermion_rhs_{plan}_n{n_gen}']:>10.2f}"
                      for plan in ("full", "restricted")
                      if f"fermion_rhs_{plan}_n{n_gen}" in table)
        print(f"  {1 << n_gen:>3} coefficients, us/product at batch "
              f"{'/'.join(map(str, BATCHES))}:{row}; fermion RHS batch "
              f"full/restricted:{rhs}")
    for case, row in data["steps"].items():
        print(f"  {case:<26} one RK4 step {row['rk4_step_us']:9.1f} us "
              f"({row['rk4_step_rhs_calls']:g} RHS calls), self-checked grid step "
              f"{row['self_check_step_us']:9.1f} us ({row['self_check_step_rhs_calls']:g})")
    for case, row in data["coefficients"].items():
        print(f"  {case:<26} coefficient evaluation per grid step "
              f"{row['coeff_us_per_step']:9.1f} us "
              f"({row['coeff_fn_calls_per_step']:g} CoefficientFn calls)")
    print(f"  grassmann evolution, t=1: {data['evolution_s']:.2f} s")
    for scen, res in data.get("scenarios", {}).items():
        print(f"  {scen:<17} {res['run_s']:7.2f} s  exit {res['exit_code']}  "
              f"golden {'match' if res['golden_match'] else 'DIFFERS'}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--repeats", type=int, default=2000,
                        help="calls per timing block at 2 and 4 generators (a tenth at 8)")
    parser.add_argument("--json", default=None, help="write the results here ('-': stdout)")
    parser.add_argument("--baseline", default=None,
                        help="git revision to measure against, alternating runs")
    args = parser.parse_args()

    meta = {
        "script": "benchmarks/bench_kernels.py",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    }
    if args.baseline is not None:
        result = {**meta, "rounds": ROUNDS,
                  "columns": compare(args.baseline, args.repeats)}
        for name, column in result["columns"].items():
            _print_column(f"{name} {column['source']} (median of {ROUNDS})",
                          {"backend": column["backend"],
                           "us_per_product": column["median"]["us_per_product"],
                           "steps": column["steps"],
                           "coefficients": column["coefficients"],
                           "evolution_s": column["median"]["evolution_s"]})
            print(f"  shipped scenarios: {column['median']['scenario_run_s']}")
    else:
        result = measure(args.repeats)
        if args.json != "-":
            result["steps"] = bench_steps({"this checkout": "cohstab"})["this checkout"]
            result["coefficients"] = bench_coefficients(
                {"this checkout": "cohstab"})["this checkout"]
            _print_column("this checkout", result)
            result = {**meta, **result}
    if args.json == "-":
        json.dump(result, sys.stdout)
    elif args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
