"""End-to-end and per-layer benchmark of `coherence run`.

    python3 perfbench/run.py --workload shipped|grassmann_wide|boson_forced|all
        [--seed N] [--seconds S] [--trace 0|1] [--size full|tiny]

Run from anywhere inside a checkout; the package is imported from the
checkout's src/, never from an installed copy. Each pass takes the path
`coherence run` takes, once per scenario of the workload:
`cohstab.scenario.parse_scenario`, then `cohstab.cli.run_scenario`, which
evolves, classifies, verifies and writes the CSVs. Every pass's outputs are
checked (see checks.py). Passes repeat until --seconds have gone by, and at
least twice, after one untimed warm-up pass at the tiny size.

--trace 0 reports the end-to-end metrics, with times in reference seconds
(see speed.py). --trace 1 alternates untraced and traced passes and reports
the per-layer metrics from the traced ones.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.machinery
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from checks import check_pass, output_digests, stored_digests
from inputs import WORKLOADS, Input, make_inputs
from speed import REFERENCE_S, SpeedProbe
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

MIN_PASSES = 2
SETUP_PROBES = 5

UNITS = {
    "run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "kernel.multiply.calls": "count", "kernel.multiply.calls_per_step": "calls/step",
    "kernel.multiply.self_s": "s", "kernel.multiply.pairs": "count",
    "kernel.multiply.ns_per_pair": "ns", "kernel.multiply.bytes_computed": "B",
    "kernel.us_per_product.n2": "us", "kernel.us_per_product.n4": "us",
    "kernel.us_per_product.n8": "us",
    "kernel.conjugate.calls": "count", "kernel.conjugate.self_s": "s",
    "coeffs.calls": "count", "coeffs.self_s": "s",
    "dynamics.evolve.calls": "count", "dynamics.steps": "count",
    "dynamics.evolve.self_s": "s", "dynamics.self_us_per_step": "us",
    "dynamics.law_integrations": "count",
    "fermion.observer.calls": "count", "fermion.observer.incl_s": "s",
    "grassmann.invert.incl_s": "s", "grassmann.exponential.incl_s": "s",
    "boson.eigenvalue_lsq.calls": "count", "boson.eigenvalue_lsq.incl_s": "s",
    "coherence.classify.incl_s": "s", "coherence.verify.incl_s": "s",
    "coherence.verify.self_s": "s",
    "scenario.parse_s": "s", "cli.self_s": "s", "cli.bytes_written": "B",
    "trace.overhead_s": "s", "fail_ratio": "ratio", "machine.probe_s": "s",
}
END_TO_END = ("run_s", "cpu_s", "setup_s", "peak_rss_mb")


def import_program():
    """Import cohstab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "cohstab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no src/cohstab in {ROOT}; run it from a checkout")
    sys.path.insert(0, str(src))
    import cohstab
    import cohstab.cli
    import cohstab.kernel
    import cohstab.scenario

    if Path(cohstab.__file__).resolve().parent != src / "cohstab":
        sys.exit(f"perfbench: imported cohstab from {cohstab.__file__}, not {src}")
    return cohstab


def kernel_backend() -> str:
    """Which graded-product kernel can run: any compiled extension module the
    package has loaded, else the numpy code."""
    compiled = sorted(
        name for name, mod in sys.modules.items()
        if name.split(".")[0] == "cohstab"
        and str(getattr(mod, "__file__", "")).endswith(
            tuple(importlib.machinery.EXTENSION_SUFFIXES))
    )
    return f"compiled ({', '.join(compiled)})" if compiled else "numpy (no compiled extension loaded)"


def setup_seconds(inputs: list[Input], probe: SpeedProbe) -> float:
    """Median time of fresh interpreters that import, parse and build tables."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), str(ROOT / "src"),
           *(str(inp.path) for inp in inputs)]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=60)
        t1 = time.perf_counter()
        times.append((t1 - t0) * probe.scale(t0, t1))
    return statistics.median(times)


@dataclass
class Pass:
    wall: float  # as measured
    cpu: float
    ref_wall: float  # in reference seconds
    ref_cpu: float
    codes: list[int]
    problems: list[str] | None = None
    bytes_written: int = 0


def execute(prog, inputs: list[Input], out_dir: Path, probe: SpeedProbe) -> Pass:
    """One pass: parse and run every scenario of the workload."""
    p = Pass(0.0, 0.0, 0.0, 0.0, [])
    for inp in inputs:
        with contextlib.redirect_stdout(io.StringIO()):
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                scenario = prog.scenario.parse_scenario(inp.path)
                p.codes.append(prog.cli.run_scenario(scenario, str(out_dir)))
            except Exception:  # a crash fails the pass, and the run goes on
                traceback.print_exc()
                p.codes.append(1)
            t1, cpu = time.perf_counter(), time.process_time() - c0
        scale = probe.scale(t0, t1)
        p.wall += t1 - t0
        p.cpu += cpu
        p.ref_wall += (t1 - t0) * scale
        p.ref_cpu += cpu * scale
    return p


def kernel_us_per_product(prog, seed: int) -> dict[str, float]:
    """Standalone graded products through the public kernel.multiply, warm tables."""
    import numpy as np

    rng = np.random.default_rng(seed)
    out = {}
    for n_gen, calls in ((2, 2000), (4, 2000), (8, 200)):
        dim = 1 << n_gen
        x = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        y = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        prog.kernel.multiply(x, y, n_gen)
        blocks = []
        for _ in range(5):
            t0 = time.perf_counter()
            for _ in range(calls):
                prog.kernel.multiply(x, y, n_gen)
            blocks.append((time.perf_counter() - t0) / calls * 1e6)
        out[f"kernel.us_per_product.n{n_gen}"] = statistics.median(blocks)
    return out


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 size: str) -> dict:
    prog = import_program()
    work = WORK / f"{workload}-{size}"
    shutil.rmtree(work, ignore_errors=True)
    inputs = make_inputs(ROOT, workload, seed, size, work / "inputs")
    warm = make_inputs(ROOT, workload, seed, "tiny", work / "warm_inputs")
    digests = stored_digests(workload, seed) if size == "full" else None
    out_dir = work / "out"

    def one_pass(probe: SpeedProbe, tracer=None) -> Pass:
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        if tracer is None:
            result = execute(prog, inputs, out_dir, probe)
        else:
            result = tracer.traced(lambda: execute(prog, inputs, out_dir, probe))
        result.problems = check_pass(workload, seed, inputs, result.codes,
                                     out_dir, digests)
        result.bytes_written = sum(p.stat().st_size for p in out_dir.iterdir())
        for problem in result.problems:
            print(f"FAILED pass: {problem}", file=sys.stderr)
        return result

    tracer = Tracer(prog) if trace else None
    plain: list[Pass] = []
    traced: list[Pass] = []
    with SpeedProbe() as probe:
        setup_s = setup_seconds(inputs, probe)
        execute(prog, warm, work / "warm_out", probe)
        t_start = time.perf_counter()
        while True:
            plain.append(one_pass(probe))
            if tracer is not None:
                traced.append(one_pass(probe, tracer))
            if time.perf_counter() - t_start >= seconds and (trace or len(plain) >= MIN_PASSES):
                break

    passes = plain + traced
    failed = sum(1 for p in passes if p.problems)
    e2e = {
        "run_s": statistics.median(p.ref_wall for p in plain),
        "cpu_s": statistics.median(p.ref_cpu for p in plain),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    unsteady = []
    layers = {}
    if tracer is not None:
        tracer.save(work / "spans.npz")
        layers, unsteady = tracer.metrics()
        written = {p.bytes_written for p in passes}
        if len(written) > 1:
            unsteady.append(f"cli.bytes_written: {sorted(written)}")
        layers["cli.bytes_written"] = passes[0].bytes_written
        layers["trace.overhead_s"] = (statistics.median(p.ref_wall for p in traced)
                                      - statistics.median(p.ref_wall for p in plain))
        layers.update(kernel_us_per_product(prog, seed))
        layers["fail_ratio"] = failed / len(passes)
        layers["machine.probe_s"] = probe.median_s()
    for problem in unsteady:
        print(f"FAILED count did not repeat: {problem}", file=sys.stderr)

    print(f"workload {workload}  seed {seed}  size {size}  backend {kernel_backend()}")
    print(f"passes {len(passes)} ({len(plain)} untraced, {len(traced)} traced), "
          f"failed {failed}, fail_ratio {failed / len(passes):.3g}")
    print("untraced pass wall s, as measured: " + " ".join(f"{p.wall:.3f}" for p in plain))
    print("untraced pass wall s, reference:   " + " ".join(f"{p.ref_wall:.3f}" for p in plain))
    print(f"speed probe: median {probe.median_s() * 1e3:.3f} ms over {len(probe.samples)} "
          f"samples, reference {REFERENCE_S * 1e3:.3f} ms")
    if workload != "shipped":
        print(f"output digests {json.dumps(output_digests(out_dir))}")
    for name, value in {**e2e, **layers}.items():
        print(f"  {name:<34} {value:>16.6g} {UNITS[name]}")
    reported = layers if trace else e2e
    return {
        "correct": failed == 0 and not unsteady,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in reported.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own interpreter, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size],
            stdout=subprocess.PIPE, text=True, check=True, timeout=900)
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update(
            {f"{workload}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    args = parser.parse_args()
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.size)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
