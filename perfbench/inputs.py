"""Workload inputs: which scenario files each workload runs.

`shipped` runs the repository's own scenario files unchanged. The other two
workloads are generated from the seed with `random.Random`, whose sequence
for a given seed is fixed across platforms and Python versions, so the same
seed always writes the same files. The program only ever sees these files.

Every parameter range below was chosen so that, for any seed, the run
passes the program's own gates: the dt vs dt/2 endpoint check (1e-8), the
boson truncation guard (tail mass 1e-6 on 64 levels) and the 1e-6 law
verification. Each range says why it is safe.
"""

from __future__ import annotations

import configparser
import random
import re
from dataclasses import dataclass
from pathlib import Path

#: The three scenarios in scenarios/ with goldens in tests/golden/. Listed by
#: name so that a scenario added to the repository later does not silently
#: change what this workload measures.
SHIPPED = ("free_fermion", "forced_fermion", "grassmann_forced")

WORKLOADS = ("shipped", "grassmann_wide", "boson_forced")

#: Simulated time per size. `full` is what the benchmark measures; `tiny`
#: is the warm-up before timing and the size the smoke test runs.
T_END = {
    "grassmann_wide": {"full": 0.06, "tiny": 0.004},
    "boson_forced": {"full": 4.0, "tiny": 0.05},
    # shipped keeps each file's own t_end at full size. forced_fermion's
    # witness residual grows as about 0.09*t^2 and must pass 1e-3 for its
    # non_preserving verdict to agree, which takes t > 0.11.
    "shipped": {"tiny": 0.2},
}


@dataclass(frozen=True)
class Input:
    """One scenario file of a workload and what its outputs must look like."""

    path: Path
    golden: Path | None  # byte-exact reference for the trajectory CSV
    t_end: float
    dt: float
    stride: int

    @property
    def expected_rows(self) -> int:
        """Recorded times: every stride-th step plus the endpoint."""
        n_steps = max(1, int(round(self.t_end / self.dt)))
        rows = len(range(0, n_steps + 1, self.stride))
        return rows if n_steps % self.stride == 0 else rows + 1


def _num(rng: random.Random, lo: float, hi: float) -> str:
    # Four decimals keep the files readable; the value written is the value used.
    return f"{rng.uniform(lo, hi):.4f}"


def _signed(rng: random.Random, lo: float, hi: float) -> str:
    sign = rng.choice((-1.0, 1.0))
    return f"{sign * rng.uniform(lo, hi):.4f}"


def grassmann_wide_text(seed: int, t_end: float) -> str:
    """Grassmann-forced oscillator on 4 generator pairs (256 coefficients).

    Ranges and why they are safe:
    - omega in [0.8, 1.2] and forcing amplitude in [0.2, 0.6] with frequency
      in [0.5, 1.5]: over t_end <= 0.06 at dt 1e-3 the RK4 endpoint error is
      far below the 1e-8 dt/2 gate.
    - delta in [0, 0.2]: a real scalar, it only shifts the phase law.
    - zeta0 coefficients of magnitude [0.3, 1.0] on the three non-forcing
      generators: the state stays O(1), so the 1e-6 state-vs-law check has
      about seven digits of headroom over round-off at 256 coefficients.
    """
    rng = random.Random(f"grassmann_wide:{seed}")
    amp = _num(rng, 0.2, 0.6)
    freq = _num(rng, 0.5, 1.5)
    phase = _num(rng, 0.0, 3.0)
    return f"""[system]
kind = grassmann
generators = zeta, chi, xi, eta

[hamiltonian]
omega = {_num(rng, 0.8, 1.2)}
eta_re = {amp}*cos({freq}*t + {phase})
eta_im = -{amp}*sin({freq}*t + {phase})
eta_generator = eta
delta = {_num(rng, 0.0, 0.2)}

[initial]
zeta0 = {_signed(rng, 0.3, 1.0)}*zeta + {_signed(rng, 0.3, 1.0)}*chi + {_signed(rng, 0.3, 1.0)}*xi

[integration]
t_end = {t_end!r}
dt = 0.001
stride = 1

[output]
path = grassmann_wide.csv
expect = preserving
"""


def boson_forced_text(seed: int, t_end: float) -> str:
    """Time-dependent forced boson on the fixed 64-level Fock cutoff.

    Ranges and why they are safe:
    - |z0| components in [-1, 1] and forcing amplitudes in [0.1, 0.4] over
      t_end <= 4 bound |z(t)| by sqrt(2) + 4*0.57 < 3.7, a mean occupation
      below 14: the Poisson tail at level 63 stays below 1e-15, far under
      the 1e-6 truncation guard.
    - omega = w0 + w1*sin(nu*t) with w0 in [0.8, 1.2], w1 in [0, 0.3]: the
      occupied levels have n*omega*dt < 0.05, which keeps the dt/2 endpoint
      gap far below 1e-8.
    - g in [0, 0.2]: a real scalar, a global phase only.
    """
    rng = random.Random(f"boson_forced:{seed}")
    nu = _num(rng, 0.5, 1.5)
    return f"""[system]
kind = boson

[hamiltonian]
omega = {_num(rng, 0.8, 1.2)} + {_num(rng, 0.0, 0.3)}*sin({_num(rng, 0.5, 2.0)}*t)
f_re = {_num(rng, 0.1, 0.4)}*cos({nu}*t)
f_im = {_num(rng, 0.1, 0.4)}*sin({nu}*t + {_num(rng, 0.0, 3.0)})
g = {_num(rng, 0.0, 0.2)}

[initial]
z0_re = {_num(rng, -1.0, 1.0)}
z0_im = {_num(rng, -1.0, 1.0)}

[integration]
t_end = {t_end!r}
dt = 0.001
stride = 10

[output]
path = boson_forced.csv
expect = preserving
"""


def _integration(text: str) -> tuple[float, float, int]:
    # Read [integration] without importing the program, so the expected row
    # count does not depend on the code under test.
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    sec = cp["integration"]
    return float(sec["t_end"]), float(sec.get("dt", "1e-3")), int(sec.get("stride", "10"))


def make_inputs(root: Path, workload: str, seed: int, size: str,
                dest: Path) -> list[Input]:
    """Write the workload's scenario files under `dest` and describe them."""
    dest.mkdir(parents=True, exist_ok=True)
    if workload == "shipped":
        inputs = []
        for name in SHIPPED:
            path = root / "scenarios" / f"{name}.ini"
            golden = root / "tests" / "golden" / f"{name}.csv"
            text = path.read_text(encoding="utf-8")
            if size != "full":
                # a shortened copy; the golden only pins the file as shipped
                text = re.sub(r"(?m)^t_end\s*=.*$",
                              f"t_end = {T_END['shipped'][size]!r}", text)
                path = dest / f"{name}.ini"
                path.write_text(text, encoding="utf-8")
                golden = None
            inputs.append(Input(path, golden, *_integration(text)))
        return inputs
    text_fn = {"grassmann_wide": grassmann_wide_text,
               "boson_forced": boson_forced_text}[workload]
    text = text_fn(seed, T_END[workload][size])
    path = dest / f"{workload}.ini"
    path.write_text(text, encoding="utf-8")
    return [Input(path, None, *_integration(text))]
