"""Set-up probe, run in a fresh interpreter: what a run pays before it evolves.

    python3 perfbench/setup_probe.py SRC_DIR SCENARIO.ini [SCENARIO.ini ...]

Imports the package from SRC_DIR, parses the scenario files and makes the
first graded product for each generator count they use, which builds that
count's product tables. The caller times the whole process.
"""

import sys
from pathlib import Path


def main(src: Path, scenario_files: list[str]) -> None:
    sys.path.insert(0, str(src))
    import numpy as np

    import cohstab
    from cohstab import kernel
    from cohstab.scenario import parse_scenario

    if Path(cohstab.__file__).resolve().parent != src / "cohstab":
        sys.exit(f"setup_probe: imported cohstab from {cohstab.__file__}, not {src}")
    n_gens = set()
    for name in scenario_files:
        gens = parse_scenario(Path(name)).generator_set()
        if gens is not None:
            n_gens.add(gens.n_generators)
    for n_gen in sorted(n_gens):
        zero = np.zeros(1 << n_gen, dtype=np.complex128)
        kernel.multiply(zero, zero, n_gen)


if __name__ == "__main__":
    main(Path(sys.argv[1]).resolve(), sys.argv[2:])
