"""Per-product and end-to-end timings of the graded-product kernel.

Usage:
    PYTHONPATH=src python benchmarks/bench_kernels.py [--repeats N] [--json PATH]
    python benchmarks/bench_kernels.py --baseline REV --json PATH

Measures, for each available kernel backend, microseconds per graded product
at 2, 4 and 8 generators in batches of 1, 2 and 5 rows: one kernel.multiply
call per batch, or one call per row for a kernel that takes no batch. Then
the wall time of a coherent-state evolution (the criterion-3 shape) and of
each shipped scenario, run as `coherence run` runs it, with a byte check of
its trajectory against tests/golden/.

With --baseline the same measurements run in fresh interpreters, alternating
between this checkout's src/ and a `git archive` of REV, for ROUNDS rounds;
the JSON then holds a "parent" column (REV) and a "change" column (this
checkout), each with every round and the medians. Without --baseline it
holds the one column measured in this interpreter.
"""

import argparse
import contextlib
import io
import json
import os
import platform
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
ROUNDS = 3


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


def bench_products(kernel, backend: str, repeats: int) -> dict:
    """Median over 5 blocks of microseconds per product, per n_gen and batch."""
    kernel.set_backend(backend)
    rng = np.random.default_rng(7)
    out = {}
    for n_gen in N_GENS:
        dim = 1 << n_gen
        calls = repeats if n_gen < 8 else max(1, repeats // 10)
        for batch in BATCHES:
            x = rng.standard_normal((batch, dim)) + 1j * rng.standard_normal((batch, dim))
            y = rng.standard_normal((batch, dim)) + 1j * rng.standard_normal((batch, dim))
            fn = _batched_call(kernel, x, y, n_gen)
            fn()  # warm the tables
            blocks = []
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(calls):
                    fn()
                blocks.append((time.perf_counter() - t0) / (calls * batch) * 1e6)
            out[f"n{n_gen}_b{batch}"] = statistics.median(blocks)
    return out


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

    backends = kernel.available_backends()
    previous = kernel.get_backend()
    result = {
        "backends": list(backends),
        "default_backend": previous,
        "us_per_product": {b: bench_products(kernel, b, repeats) for b in backends},
    }
    kernel.set_backend(previous)
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
        "us_per_product": {
            b: {k: statistics.median(r["us_per_product"][b][k] for r in rounds)
                for k in first["us_per_product"][b]}
            for b in first["us_per_product"]
        },
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
    head = _git("rev-parse", "HEAD")
    dirty = bool(_git("status", "--porcelain", "--", "src"))
    sources = {
        "parent": _git("rev-parse", rev),
        "change": f"{head} with uncommitted src/ changes" if dirty else head,
    }
    return {
        name: {"source": sources[name], "backend": runs[0]["default_backend"],
               "median": _medians(runs), "rounds": runs}
        for name, runs in columns.items()
    }


def _print_column(name: str, data: dict) -> None:
    print(f"[{name}] default backend: {data['default_backend']}")
    for backend, table in data["us_per_product"].items():
        for n_gen in N_GENS:
            row = "".join(f"{table[f'n{n_gen}_b{b}']:>10.2f}" for b in BATCHES)
            print(f"  {backend:<9} {1 << n_gen:>3} coefficients, us/product at batch "
                  f"{'/'.join(map(str, BATCHES))}:{row}")
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
                          {"default_backend": column["backend"],
                           "us_per_product": column["median"]["us_per_product"],
                           "evolution_s": column["median"]["evolution_s"]})
            print(f"  shipped scenarios: {column['median']['scenario_run_s']}")
    else:
        result = measure(args.repeats)
        if args.json != "-":
            _print_column("this checkout", result)
            result = {**meta, **result}
    if args.json == "-":
        json.dump(result, sys.stdout)
    elif args.json:
        Path(args.json).write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
