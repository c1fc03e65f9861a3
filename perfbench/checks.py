"""Output checks for one pass. Every check fails closed.

A pass fails when any scenario in it
- returned an exit code other than 0,
- wrote a verdict file whose `ok` is not 1,
- wrote a non-finite number anywhere it must be finite,
- wrote a trajectory with the wrong number of rows or a wrong endpoint, or
- produced bytes that differ from its reference: the golden CSV for the
  shipped scenarios, the stored digest for a generated scenario whose seed
  has one.

The only non-finite value accepted is the verdict's
`max_eigenvalue_deviation` on a `non_preserving` verdict, where the program
runs no verification and writes `nan` as a placeholder.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

from inputs import Input

DIGESTS = Path(__file__).resolve().parent / "digests.json"


def output_digests(out_dir: Path) -> dict[str, str]:
    """SHA-256 of every file a pass wrote, by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def stored_digests(workload: str, seed: int) -> dict[str, str] | None:
    table = json.loads(DIGESTS.read_text(encoding="utf-8"))
    return table.get(workload, {}).get(str(seed))


def _finite(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def _check_trajectory(inp: Input, path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0][:1] != ["t"]:
        return [f"{path.name}: missing header"]
    width = len(rows[0])
    body = rows[1:]
    problems = []
    if len(body) != inp.expected_rows:
        problems.append(f"{path.name}: {len(body)} rows, expected {inp.expected_rows}")
    for k, row in enumerate(body, start=2):
        if len(row) != width or not all(_finite(v) for v in row):
            problems.append(f"{path.name}: line {k} is short or not finite")
            break
    if body and body[-1] and _finite(body[-1][0]) \
            and abs(float(body[-1][0]) - inp.t_end) > 1e-12 * max(1.0, inp.t_end):
        problems.append(f"{path.name}: last time {body[-1][0]} is not t_end {inp.t_end}")
    return problems


def _check_verdict(path: Path) -> list[str]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        return [f"{path.name}: expected one verdict row, found {len(rows)}"]
    row = rows[0]
    problems = []
    if row.get("ok") != "1":
        problems.append(f"{path.name}: ok={row.get('ok')!r}")
    if not _finite(row.get("max_residual", "")):
        problems.append(f"{path.name}: max_residual {row.get('max_residual')!r}")
    dev = row.get("max_eigenvalue_deviation", "")
    if not _finite(dev) and not (row.get("verdict") == "non_preserving" and dev == "nan"):
        problems.append(f"{path.name}: max_eigenvalue_deviation {dev!r}")
    return problems


def check_pass(workload: str, seed: int, inputs: list[Input], codes: list[int],
               out_dir: Path, digests: dict[str, str] | None) -> list[str]:
    """Problems found in one pass's outputs; an empty list means it passed."""
    problems = []
    for inp, code in zip(inputs, codes):
        name = inp.path.stem
        if code != 0:
            problems.append(f"{name}: exit code {code}")
        traj = out_dir / f"{name}.csv"
        verdict = out_dir / f"{name}.verdict.csv"
        missing = [p.name for p in (traj, verdict) if not p.is_file()]
        if missing:
            problems.append(f"{name}: missing {', '.join(missing)}")
            continue
        problems += _check_trajectory(inp, traj)
        problems += _check_verdict(verdict)
        if inp.golden is not None and traj.read_bytes() != inp.golden.read_bytes():
            problems.append(f"{traj.name}: differs from {inp.golden.name}")
    if digests is not None and output_digests(out_dir) != digests:
        problems.append(f"{workload} seed {seed}: output digests differ from "
                        f"{DIGESTS.name}")
    return problems
