"""Which golden bits depend on this host's numpy dispatch and OpenBLAS core.

Usage:
    python benchmarks/probe_host_bits.py

Runs `coherence run` in child processes on the files in scenarios/ and on
grassmann_wide_s0 (the benchmark's grassmann_wide scenario at seed 0, as
tests/test_cli.py builds it), under three settings: the default
environment; numpy's AVX2/AVX-512 loops switched off, which models an
x86-64-v2 host; and OpenBLAS pinned to its Prescott core. The variables are
set for the child processes only. For each golden file in tests/golden/ it
prints whether the output is byte-identical and, if not, which columns
differ and in how many rows. Not part of the test suite; it needs no
network and writes only to a temporary directory.
"""

import csv
import importlib.util
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SETTINGS = (
    ("default", {}),
    ("numpy x86-64-v2", {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}),
    ("OpenBLAS Prescott", {"OPENBLAS_CORETYPE": "Prescott"}),
)


def scenario_files(dest: Path) -> list[tuple[str, Path]]:
    """(golden stem, scenario file): scenarios/ and grassmann_wide_s0."""
    files = [(path.stem, path) for path in sorted((ROOT / "scenarios").glob("*.ini"))]
    spec = importlib.util.spec_from_file_location("perfbench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = inputs  # its dataclass looks itself up there
    spec.loader.exec_module(inputs)
    wide = dest / "grassmann_wide_s0.ini"
    wide.write_text(inputs.grassmann_wide_text(0, inputs.T_END["grassmann_wide"]["full"]))
    return files + [("grassmann_wide_s0", wide)]


def column_diffs(produced: Path, golden: Path) -> str:
    """'identical', or each differing column with its count of differing rows."""
    if produced.read_bytes() == golden.read_bytes():
        return "identical"
    with produced.open(newline="") as f:
        new = list(csv.reader(f))
    with golden.open(newline="") as f:
        old = list(csv.reader(f))
    if len(new) != len(old) or new[:1] != old[:1]:
        return f"shape differs: {len(new)} vs {len(old)} lines"
    counts = {}
    for a, b in zip(new[1:], old[1:]):
        for name, x, y in zip(old[0], a, b):
            counts[name] = counts.get(name, 0) + (x != y)
    rows = len(old) - 1
    return ", ".join(f"{name} {n}/{rows}" for name, n in counts.items() if n)


def probe(label: str, extra: dict, files, work: Path) -> None:
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    print(f"== {label}" + "".join(f" {k}={v!r}" for k, v in extra.items()))
    for stem, path in files:
        out = work / label.replace(" ", "_") / stem
        out.mkdir(parents=True)
        proc = subprocess.run(
            [sys.executable, "-m", "cohstab.cli", "run", str(path), "--out", str(out)],
            env=env, capture_output=True, text=True)
        if proc.returncode != 0:
            tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
            print(f"  {stem}: exit {proc.returncode}: {tail}")
            continue
        for produced in sorted(out.glob("*.csv")):
            name = stem + produced.name[len(produced.name.split(".")[0]):]
            print(f"  {name}: {column_diffs(produced, GOLDEN / name)}")


def main() -> None:
    print(f"python {platform.python_version()}, numpy {np.__version__}, "
          f"{platform.machine()}")
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        files = scenario_files(work)
        for label, extra in SETTINGS:
            probe(label, extra, files, work)


if __name__ == "__main__":
    main()
