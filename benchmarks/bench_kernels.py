"""Per-product, per-layer and end-to-end timings of the cohstab evolutions.

Usage:
    PYTHONPATH=src python benchmarks/bench_kernels.py [--json PATH]
    python benchmarks/bench_kernels.py --baseline REV --json PATH

Measures microseconds per graded product at 2, 4 and 8 generators in
batches of 1, 2 and 5 rows, one kernel.multiply call per batch, on the
product the tree runs (compiled C where its library loads, else numpy). Then
three layers of the RK4 driver, for the fermion Schrödinger evolution and
the Grassmann law at 4, 16 and 256 coefficients, each of a spec and of
the same Hamiltonian as a DenseHamiltonian, and the boson Schrödinger
evolution on 64 levels: "one RHS stage" (microseconds per call of the
evolution's own RHS on 1 and 2 rows, the driver's batch sizes), "one RK4
step" (microseconds of CPU time per call of the driver's own
dynamics._rk4_step on one state: four RHS stages and the update) and "the
driver's loop" (microseconds of CPU time per grid step of the driver, run
as the evolution runs it, compiled where the tree can, see
cohstab/kernel/compiled.py, and in its numpy loop, whose grid step is the
dt step and the two dt/2 substeps that check it). A spec's trajectory
carries its Grassmann law, so its fermion Schrödinger cases integrate it
too; a dense trajectory carries none.
Then "a grassmann run" at 4, 16 and 256 coefficients: the trajectory and
its Grassmann law as `coherence run` makes them (the evolution, then
verify_trajectory against the law), in microseconds of CPU time and Python
RHS calls per grid step (none where a compiled loop runs). Then "coefficient
evaluation per grid step" for the boson Schrödinger evolution on 64 levels
and the fermion Schrödinger evolutions at 4, 16 and 256 coefficients: the
wall time spent evaluating the Hamiltonian's coefficients over one
evolution, and the CoefficientFn calls, per grid step. Then "the per-record
observer" of the fermion Schrödinger evolutions at 4, 16 and 256
coefficients and of the boson Schrödinger evolution on 64 levels:
microseconds per record of what the evolution computes from its records
(<psi|psi> and norm_dev, the eigenvalue and its residual). Then the wall
time of each file in scenarios/, run as `coherence run` runs it, with a
byte check of its trajectory against tests/golden/.

Every measurement runs the same way. This checkout's src/cohstab, and with
--baseline a `git archive` of REV's, are copied under distinct package
names and imported into this one interpreter. Each column is warmed by one
untimed pass of every case, so first-use setup is not timed; then the
columns alternate run by run, which keeps this machine's drift in speed out
of their comparison, and each number is the median over STEP_RUNS runs.
The JSON holds one column per tree: "change" (this checkout) and, with
--baseline, "parent" (REV), each naming the backend its kernel and RK4
loops ran on and the size of its source: the lines of Python under its
copied package and of its kernel/rk4.c. REV is the parent of the change measured: the script calls
only what the parent's tree has.
"""

import argparse
import contextlib
import functools
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
SCENARIOS = ("free_fermion", "forced_fermion", "grassmann_forced", "boson_forced")
N_GENS = (2, 4, 8)
BATCHES = (1, 2, 5)
PRODUCT_CALLS = 2000  # per timed block at 2 and 4 generators, a tenth at 8
STEP_PAIRS = (1, 2, 4)  # generator pairs: 4, 16 and 256 coefficients
STEP_GRID = (0.2, 1e-3)  # t_end and dt of the step layers: 200 grid steps
STEP_RUNS = 10
RHS_CALLS = 1000
OBSERVER_GRID = (0.2, 1e-3, 1)  # t_end, dt and stride: 201 records


@contextlib.contextmanager
def _patched(owner, name: str, value):
    """owner.name is `value` inside the block and its own again after."""
    saved = getattr(owner, name)
    setattr(owner, name, value)
    try:
        yield
    finally:
        setattr(owner, name, saved)


def _alternate(cases: dict, key: str | None = None, reduce: dict | None = None) -> dict:
    """Run every case of every column: one untimed pass per column, then
    STEP_RUNS runs in which the columns alternate, their order reversed
    every other run, so that the machine's drift in speed falls on each
    alike.

    `cases` maps a column name to {case name: call}, with the same case
    names in every column; each call returns {name: number}. Returns, per
    column and case, {name: the median of its numbers over the runs, or
    reduce[name] of them where given}, or with `key` that name's alone.
    """
    cols = list(cases)
    for col in cols:
        for call in cases[col].values():
            call()
    runs = {col: {case: {} for case in cases[col]} for col in cols}
    for run in range(STEP_RUNS):
        for case in cases[cols[0]]:
            for col in (cols if run % 2 == 0 else cols[::-1]):
                for name, value in cases[col][case]().items():
                    runs[col][case].setdefault(name, []).append(value)

    def summary(row: dict):
        out = {name: (reduce or {}).get(name, statistics.median)(values)
               for name, values in row.items()}
        return out if key is None else out[key]

    return {col: {case: summary(row) for case, row in table.items()}
            for col, table in runs.items()}


def _module(package: str, name: str):
    return importlib.import_module(f"{package}.{name}")


def bench_products(packages: dict) -> dict:
    """Microseconds per product, per n_gen and batch: the wall time of one
    block of PRODUCT_CALLS calls (a tenth at 8 generators) per product. A
    batch of 1 is one product of (dim,) operands."""
    rng = np.random.default_rng(7)
    operands = {}
    for n_gen in N_GENS:
        for batch in BATCHES:
            x, y = (rng.standard_normal((batch, 1 << n_gen))
                    + 1j * rng.standard_normal((batch, 1 << n_gen)) for _ in range(2))
            operands[f"n{n_gen}_b{batch}"] = (
                (x[0], y[0]) if batch == 1 else (x, y), n_gen, batch)

    def timed(multiply, x, y, n_gen, batch):
        calls = PRODUCT_CALLS if n_gen < 8 else PRODUCT_CALLS // 10
        t0 = time.perf_counter()
        for _ in range(calls):
            multiply(x, y, n_gen)
        return {"us": (time.perf_counter() - t0) / (calls * batch) * 1e6}

    cases = {col: {case: functools.partial(timed, _module(pkg, "kernel").multiply, *xy,
                                           n_gen, batch)
                   for case, (xy, n_gen, batch) in operands.items()}
             for col, pkg in packages.items()}
    return _alternate(cases, "us")


def _evolutions(package: str) -> dict:
    """Per evolution and size, a call that runs it on `package` over the
    step layers' grid: the fermion Schrödinger evolution and the Grassmann
    law at 4, 16 and 256 coefficients, of the spec and of the same
    Hamiltonian as a DenseHamiltonian ("dense_"), and the boson Schrödinger
    evolution on 64 levels. The dense rows are the spec's slot_rows placed
    at its slot_masks, a whole array of times at once."""
    dynamics = _module(package, "dynamics")
    coeffs = _module(package, "coeffs")
    fermion = _module(package, "fermion")
    grassmann = _module(package, "grassmann")
    boson = _module(package, "boson")
    cfg = dynamics.IntegrationConfig(*STEP_GRID)
    forcing = coeffs.complex_pair(coeffs.cos_fn(0.3, 1.0), coeffs.sin_fn(-0.3, 1.0))
    boson_spec = dynamics.HamiltonianSpec(
        "boson", coeffs.const_fn(1.0) + coeffs.sin_fn(0.5, 1.0), forcing,
        coeffs.const_fn(0.2))
    out = {"boson_schrodinger_l64": lambda config=cfg: dynamics.evolve_schrodinger_boson(
        boson_spec, boson.make_coherent_boson(0.5, 64), config)}
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
            lambda config=cfg, spec=spec, zeta=zeta: dynamics.evolve_schrodinger_fermion(
                spec, fermion.make_coherent(zeta), config))
        out[f"grassmann_law_c{gens.dim}"] = (
            lambda spec=spec, zeta=zeta: dynamics.evolve_grassmann_classical(
                spec, zeta, cfg))

        def rows(ts, spec=spec, gens=gens):
            c = np.zeros((len(ts), 4, gens.dim), dtype=np.complex128)
            c[:, range(4), spec.slot_masks(gens)] = spec.slot_rows(ts)
            return c

        dense = dynamics.DenseHamiltonian("grassmann", gens, rows)
        out[f"dense_fermion_schrodinger_c{gens.dim}"] = (
            lambda config=cfg, dense=dense, zeta=zeta: dynamics.evolve_schrodinger_fermion(
                dense, fermion.make_coherent(zeta), config))
        out[f"dense_grassmann_law_c{gens.dim}"] = (
            lambda dense=dense, zeta=zeta: dynamics.evolve_grassmann_classical(
                dense, zeta, cfg))
    return out


def _driver_args(dynamics, evolve, *args):
    """((rhs, args, kw), returned) of the first _integrate call that
    evolve(*args) makes, which runs as usual; returned is what it returned."""
    integrate, calls = dynamics._integrate, []

    def capture(rhs, *args, **kw):
        calls.append(((rhs, args, kw), integrate(rhs, *args, **kw)))
        return calls[-1][1]

    with _patched(dynamics, "_integrate", capture):
        evolve(*args)
    return calls[0]


def _step_cases(package: str) -> dict:
    """Per evolution and size: `package`'s dynamics, the grid, the RHS and
    the arguments that the evolution passes to _integrate after the RHS
    (the coefficients and the start first)."""
    dynamics = _module(package, "dynamics")
    cfg = dynamics.IntegrationConfig(*STEP_GRID)
    return {name: (dynamics, cfg, *_driver_args(dynamics, evolve)[0])
            for name, evolve in _evolutions(package).items()}


def bench_rhs(packages: dict) -> dict:
    """One RHS stage, per evolution, size and batch of 1 or 2 rows.

    Each case calls the RHS that the evolution hands its driver (see
    _step_cases) on the evolution's coefficient rows at the first grid
    times and its initial state, repeated per row. Reported is the wall
    time per call of a block of RHS_CALLS calls (a tenth on states of 512
    values or more).
    """
    def timed(rhs, c, y):
        calls = RHS_CALLS if y[0].size < 512 else RHS_CALLS // 10
        t0 = time.perf_counter()
        for _ in range(calls):
            rhs(c, y)
        return {"us": (time.perf_counter() - t0) / calls * 1e6}

    cases = {col: {} for col in packages}
    for col, pkg in packages.items():
        for name, (_, cfg, rhs, (coeffs, y0, *_), _) in _step_cases(pkg).items():
            for rows in (1, 2):
                c = np.asarray(coeffs(cfg.times()[:rows]), dtype=np.complex128)
                y = np.stack([np.asarray(y0, dtype=np.complex128)] * rows)
                cases[col][f"{name}_r{rows}"] = functools.partial(timed, rhs, c, y)
    return _alternate(cases, "us")


def bench_rk4_step(packages: dict) -> dict:
    """One RK4 step per evolution and size: the CPU time of this process
    per call of the tree's dynamics._rk4_step on the evolution's start as
    one row, stepped over the grid with the dt run's coefficient rows
    (columns 0, 2 and 4 of a step's 5 stage times), as the driver's numpy
    loop hands them. The tables are built before the timing."""
    def timed(dynamics, cfg, rhs, y0, tables):
        y = np.asarray(y0, dtype=np.complex128)[None]
        t0 = time.process_time()
        for table, dts in tables:
            for c, dt in zip(table, dts):
                y = dynamics._rk4_step(rhs, c[0:1], c[2:3], c[4:5], dt[:1], y)
        return {"us": (time.process_time() - t0) / cfg.n_steps * 1e6}

    cases = {col: {} for col in packages}
    for col, pkg in packages.items():
        for name, (dynamics, cfg, rhs, (coeffs, y0, *_), _) in _step_cases(pkg).items():
            tables = list(dynamics._coeff_tables(coeffs, cfg.times()))
            cases[col][name] = functools.partial(timed, dynamics, cfg, rhs, y0, tables)
    return _alternate(cases, "us")


def bench_loops(packages: dict) -> dict:
    """The driver's loop per evolution and size: the CPU time of this
    process per grid step of _integrate with the evolution's own RHS
    ("driver": compiled where the tree can) and with that RHS wrapped,
    which runs the numpy loop ("numpy", the self-checked grid step: the dt
    step and its two dt/2 substeps); and whether the driver's run was
    compiled."""
    def timed(dynamics, cfg, rhs, args, kw):
        out = {}
        for key, step in (("driver_us", rhs), ("numpy_us", lambda c, y: rhs(c, y))):
            t0 = time.process_time()
            dynamics._integrate(step, *args, **kw)
            out[key] = (time.process_time() - t0) / cfg.n_steps * 1e6
        program = getattr(rhs, "program", None)  # a DenseHamiltonian's RHS has none
        out["compiled"] = float(program is not None and program.runner() is not None)
        return out

    cases = {col: {name: functools.partial(timed, *case)
                   for name, case in _step_cases(pkg).items()}
             for col, pkg in packages.items()}
    return _alternate(cases)


def bench_grassmann_runs(packages: dict) -> dict:
    """A grassmann run per size: the fermion Schrödinger evolution of the
    step layers (see _evolutions), then verify_trajectory against the
    Grassmann law. Reported are the CPU time of this process and the Python
    RHS calls of every driver loop, per grid step. The counted RHS keeps
    the RHS's compiled program, so the driver runs the loop it would run
    unwatched. A tree whose verify_trajectory still takes the law is
    passed "grassmann"; a newer one takes the law from the trajectory."""
    n_steps = int(round(STEP_GRID[0] / STEP_GRID[1]))

    def timed(dynamics, verify, evolve):
        integrate, count = dynamics._integrate, [0]
        law = ("grassmann",) if len(inspect.signature(verify).parameters) > 1 else ()

        def counting(rhs, *args, **kw):
            def counted(*a):
                count[0] += 1
                return rhs(*a)

            counted.program = rhs.program
            return integrate(counted, *args, **kw)

        with _patched(dynamics, "_integrate", counting):
            t0 = time.process_time()
            verify(evolve(), *law)
            spent = time.process_time() - t0
        return {"step_us": spent / n_steps * 1e6, "rhs_calls_per_step": count[0] / n_steps}

    cases = {col: {name.replace("fermion_schrodinger", "grassmann_run"): functools.partial(
                       timed, _module(pkg, "dynamics"),
                       _module(pkg, "coherence").verify_trajectory, evolve)
                   for name, evolve in _evolutions(pkg).items()
                   if name.startswith("fermion")}
             for col, pkg in packages.items()}
    return _alternate(cases)


def bench_coefficients(packages: dict) -> dict:
    """Coefficient evaluation per grid step, for the boson and fermion
    Schrödinger evolutions. Each run is one whole evolution on the step
    layers' grid; reported are the microseconds spent building coefficient
    tables (the wall time of each chunk that dynamics._coeff_tables yields)
    and the CoefficientFn calls, per grid step."""
    n_steps = int(round(STEP_GRID[0] / STEP_GRID[1]))

    def timed(dynamics, coeffs, evolve):
        tables, fn_call = dynamics._coeff_tables, coeffs.CoefficientFn.__call__
        spent, calls = [0.0], [0]

        def timed_tables(*args, **kw):
            chunks = tables(*args, **kw)
            while True:
                t0 = time.perf_counter()
                chunk = next(chunks, None)
                spent[0] += time.perf_counter() - t0
                if chunk is None:
                    return
                yield chunk

        def counted_call(self, t):
            calls[0] += 1
            return fn_call(self, t)

        with _patched(dynamics, "_coeff_tables", timed_tables), \
                _patched(coeffs.CoefficientFn, "__call__", counted_call):
            evolve()
        return {"coeff_us_per_step": spent[0] / n_steps * 1e6,
                "coeff_fn_calls_per_step": calls[0] / n_steps}

    cases = {col: {name: functools.partial(timed, _module(pkg, "dynamics"),
                                           _module(pkg, "coeffs"), evolve)
                   for name, evolve in _evolutions(pkg).items() if "schrodinger" in name}
             for col, pkg in packages.items()}
    return _alternate(cases)


def bench_observer(packages: dict) -> dict:
    """The per-record observer of the fermion and boson Schrödinger
    evolutions, per size.

    Each case evolves the step layers' spec and start (see _evolutions) on
    OBSERVER_GRID once and keeps its records and the gaps its driver
    reports, as (records, gaps) or, from a tree whose driver fills a
    `gaps=` list, in that list; then the evolution runs with its driver
    replaced by one that returns those records, all of them or the first
    alone, and the gaps, as the driver did. Reported is the difference of
    the two wall times per extra record, so what the evolution does once
    (plan, coefficient checks) cancels.
    """
    def run(dynamics, evolve, cfg, records, kept_gaps, paired):
        def replay(*args, gaps=None, **kw):  # the kept run's records and gaps
            gaps is None or gaps.extend(kept_gaps)  # a tree with a gaps= list
            return (records.copy(), kept_gaps) if paired else records.copy()

        with _patched(dynamics, "_integrate", replay):
            t0 = time.perf_counter()
            evolve(cfg)
            return time.perf_counter() - t0

    def timed(dynamics, evolve, cfg, records, gaps, paired):
        extra = (run(dynamics, evolve, cfg, records, gaps, paired)
                 - run(dynamics, evolve, cfg, records[:1], gaps, paired))
        return {"us": extra / (len(records) - 1) * 1e6}

    cases = {col: {} for col in packages}
    for col, pkg in packages.items():
        dynamics = _module(pkg, "dynamics")
        cfg = dynamics.IntegrationConfig(*OBSERVER_GRID)
        for name, evolve in _evolutions(pkg).items():
            if "schrodinger" in name:
                (_, _, kw), returned = _driver_args(dynamics, evolve, cfg)
                paired = isinstance(returned, tuple)
                records, gaps = returned if paired else (returned, kw.get("gaps", []))
                cases[col][name.replace("schrodinger", "observer")] = functools.partial(
                    timed, dynamics, evolve, cfg, records, list(gaps), paired)
    return _alternate(cases, "us")


def bench_scenarios(packages: dict) -> dict:
    """Wall time of parse + run of each shipped scenario, with the highest
    exit code over the runs and whether every run's trajectory matched its
    golden file byte for byte."""
    def timed(parse_scenario, run_scenario, name):
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(io.StringIO()):
            t0 = time.perf_counter()
            scenario = parse_scenario(ROOT / "scenarios" / f"{name}.ini")
            code = run_scenario(scenario, tmp)
            wall = time.perf_counter() - t0
            golden = (ROOT / "tests" / "golden" / f"{name}.csv").read_bytes()
            same = (Path(tmp) / scenario.out_path).read_bytes() == golden
        return {"run_s": wall, "exit_code": code, "golden_match": same}

    cases = {col: {name: functools.partial(timed, _module(pkg, "scenario").parse_scenario,
                                           _module(pkg, "cli").run_scenario, name)
                   for name in SCENARIOS}
             for col, pkg in packages.items()}
    return _alternate(cases, reduce={"exit_code": max, "golden_match": all})


def _git(*args) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def _packages(tmp: Path, rev: str | None) -> dict:
    """Copy this checkout's src/cohstab, and with `rev` that revision's,
    into tmp/pkgs under distinct package names; returns the column name ->
    package name mapping, the parent first."""
    trees = {}
    if rev is not None:
        archive = tmp / "parent.tar"
        subprocess.run(["git", "archive", "-o", str(archive), rev, "src/cohstab"],
                       cwd=ROOT, check=True)
        with tarfile.open(archive) as tar:
            tar.extractall(tmp / "parent", filter="data")
        trees["parent"] = tmp / "parent" / "src" / "cohstab"
    trees["change"] = ROOT / "src" / "cohstab"
    for col, src in trees.items():
        shutil.copytree(src, tmp / "pkgs" / f"cohstab_{col}",
                        ignore=shutil.ignore_patterns("__pycache__"))
    return {col: f"cohstab_{col}" for col in trees}


def _source_lines(package: Path) -> dict:
    """Lines of Python under a copied package and of its kernel/rk4.c."""
    def lines(path):
        return len(path.read_bytes().splitlines())

    return {"python": sum(lines(path) for path in package.rglob("*.py")),
            "c": lines(package / "kernel" / "rk4.c")}


def _backend(package: str) -> str:
    """The graded product of kernel.multiply and the RK4 loop of the specs'
    fused plans and of the boson Schrödinger ladder that `package` runs on."""
    compiled = _module(package, "kernel.compiled")
    return (f"graded product: {compiled.product_status()}, RK4 loop of fermion and "
            f"Grassmann specs and of the boson Schrödinger evolution: {compiled.status()}")


def _print_column(name: str, data: dict) -> None:
    print(f"[{name}] {data['source']}, backend: {data['backend']}")
    print(f"  source: {data['source_lines']['python']:,} lines of Python, "
          f"{data['source_lines']['c']} of rk4.c")
    table = data["us_per_product"]
    for n_gen in N_GENS:
        row = "".join(f"{table[f'n{n_gen}_b{b}']:>10.2f}" for b in BATCHES)
        print(f"  {1 << n_gen:>3} coefficients, us/product at batch "
              f"{'/'.join(map(str, BATCHES))}:{row}")
    for case in data["rk4_step_us"]:
        calls = [data["rhs_stage_us"][f"{case}_r{rows}"] for rows in (1, 2)]
        print(f"  {case:<26} one RHS stage {calls[0]:9.1f} us on 1 row, "
              f"{calls[1]:9.1f} us on 2 rows")
    for case, us in data["rk4_step_us"].items():
        print(f"  {case:<26} one RK4 step {us:9.1f} us")
    for case, row in data["loops"].items():
        print(f"  {case:<26} driver loop per grid step {row['driver_us']:9.1f} us "
              f"({'compiled' if row['compiled'] else 'numpy'}), numpy loop "
              f"{row['numpy_us']:9.1f} us")
    for case, row in data["grassmann_runs"].items():
        print(f"  {case:<26} grassmann run per grid step {row['step_us']:9.1f} us "
              f"({row['rhs_calls_per_step']:g} RHS calls)")
    for case, row in data["coefficients"].items():
        print(f"  {case:<26} coefficient evaluation per grid step "
              f"{row['coeff_us_per_step']:9.1f} us "
              f"({row['coeff_fn_calls_per_step']:g} CoefficientFn calls)")
    for case, us in data["observer_us_per_record"].items():
        print(f"  {case:<26} per-record observer {us:9.1f} us per record")
    for scen, res in data["scenarios"].items():
        print(f"  {scen:<17} {res['run_s']:7.2f} s  exit {res['exit_code']}  "
              f"golden {'match' if res['golden_match'] else 'DIFFERS'}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--json", default=None, help="write the results here")
    parser.add_argument("--baseline", default=None,
                        help="git revision to measure against, alternating runs")
    args = parser.parse_args()

    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--", "src"))
    sources = {"change": f"{head} with uncommitted src/ changes" if dirty else head}
    if args.baseline is not None:
        sources["parent"] = _git("rev-parse", args.baseline)
    with tempfile.TemporaryDirectory() as tmp:
        packages = _packages(Path(tmp), args.baseline)
        sys.path.insert(0, str(Path(tmp) / "pkgs"))
        try:
            layers = {
                "us_per_product": bench_products(packages),
                "rhs_stage_us": bench_rhs(packages),
                "rk4_step_us": bench_rk4_step(packages),
                "loops": bench_loops(packages),
                "grassmann_runs": bench_grassmann_runs(packages),
                "coefficients": bench_coefficients(packages),
                "observer_us_per_record": bench_observer(packages),
                "scenarios": bench_scenarios(packages),
            }
            backends = {col: _backend(pkg) for col, pkg in packages.items()}
            sizes = {col: _source_lines(Path(tmp) / "pkgs" / pkg)
                     for col, pkg in packages.items()}
        finally:
            sys.path.remove(str(Path(tmp) / "pkgs"))
    columns = {col: {"source": sources[col], "backend": backends[col],
                     "source_lines": sizes[col],
                     **{key: layer[col] for key, layer in layers.items()}}
               for col in packages}
    for col, data in columns.items():
        _print_column(col, data)
    if args.json:
        result = {"script": "benchmarks/bench_kernels.py",
                  "python": platform.python_version(), "numpy": np.__version__,
                  "machine": platform.machine(), "cpus": os.cpu_count(),
                  "runs": STEP_RUNS, "columns": columns}
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
