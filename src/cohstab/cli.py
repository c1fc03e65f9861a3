"""Scenario-driven batch runner.

    coherence run <scenario.ini> [--dt X] [--t-end X] [--out DIR]
    coherence classify <scenario.ini>
    coherence selftest

Exit codes for `run`: 0 all verifications pass, 1 parse/validation error,
2 verification failed (reports still written), 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import sys
from pathlib import Path

import numpy as np

from . import kernel
from .boson import DEFAULT_NMAX, make_coherent_boson
from .coherence import classify_hamiltonian, verify_trajectory
from .dynamics import (
    IntegrationConfig,
    Trajectory,
    _refuse_eta,
    evolve_schrodinger_boson,
    evolve_schrodinger_fermion,
)
from .errors import NUMERIC_ERRORS, CohstabError, ParseError, ValidationError
from .fermion import make_coherent
from .scenario import Scenario, parse_scenario


def _fmt(x: float) -> str:
    return repr(float(x))


#: Values per block of trajectory CSV text.
CSV_BLOCK_VALUES = 4096


def _trajectory_rows(traj: Trajectory):
    """Header and text of a trajectory CSV: t, the re and im parts of each
    eigenvalue coefficient (nan where a record has none), residual and
    norm_dev, each written as repr of its float, comma-separated, one
    string per block of rows. These are the bytes csv.writer writes for
    them: no float's repr needs quoting."""
    labels = (["z"] if traj.kind == "boson"
              else [traj.gens.monomial_label(mask) for mask in range(traj.gens.dim)])
    header = (["t"] + [f"{part}[{label}]" for label in labels for part in ("re", "im")]
              + ["residual", "norm_dev"])
    table = np.column_stack((traj.times, traj.lams.view(np.float64),
                             traj.residuals, traj.norm_dev))
    row = ",".join(["%r"] * len(header)) + "\n"
    step = max(1, CSV_BLOCK_VALUES // len(header))
    return header, ((row * len(block)) % tuple(block.ravel().tolist())
                    for block in (table[a:a + step] for a in range(0, len(table), step)))


def _write_csv(path: Path, header, rows=(), text=()) -> None:
    """The header and `rows` through csv.writer, then the strings of `text`."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        fh.writelines(text)


def _resolve_out(out_dir: str | None, out_path: str) -> Path:
    p = Path(out_path)
    if p.is_absolute():
        return p
    base = Path(out_dir) if out_dir else Path.cwd()
    return base / p


def run_scenario(scenario: Scenario, out_dir: str | None = None) -> int:
    """Evolve, verify, and write the report files; returns the exit code."""
    spec = scenario.hamiltonian_spec()
    config = scenario.config
    try:
        if scenario.kind == "boson":
            traj = evolve_schrodinger_boson(
                spec, make_coherent_boson(scenario.z0, DEFAULT_NMAX), config)
        else:
            zeta0 = scenario.initial_zeta()
            if scenario.kind == "grassmann":  # verify's law refuses it, so before evolving
                _refuse_eta(spec, zeta0)
            traj = evolve_schrodinger_fermion(spec, make_coherent(zeta0), config)
        # boson and grassmann verdicts are static and always "preserving"
        classification = classify_hamiltonian(spec, config, trajectory=traj)
        law = "fermion_free" if scenario.kind == "fermion" else scenario.kind
        verification = (verify_trajectory(traj, law)
                        if classification.verdict == "preserving" else None)
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3

    out_path = _resolve_out(out_dir, scenario.out_path)
    header, text = _trajectory_rows(traj)
    max_residual = traj.max_residual
    # the text formats a table of its own: the records, a carried law's
    # included, are freed before the write
    del traj
    _write_csv(out_path, header, text=text)

    if scenario.expect == "non_preserving":
        ok = classification.verdict == "non_preserving" and bool(classification.agrees)
    elif classification.verdict != "preserving":
        ok = False
    else:
        ok = verification is not None and verification.passed
        if classification.agrees is not None:
            ok = ok and classification.agrees

    verdict_path = out_path.with_suffix(".verdict.csv")
    _write_csv(
        verdict_path,
        ["scenario", "kind", "verdict", "expected", "max_residual",
         "max_eigenvalue_deviation", "ok"],
        [[
            scenario.name,
            scenario.kind,
            classification.verdict,
            scenario.expect,
            _fmt(max_residual),
            _fmt(verification.max_eigenvalue_deviation) if verification else _fmt(np.nan),
            str(int(ok)),
        ]],
    )

    print(f"{scenario.name}: verdict={classification.verdict} "
          f"expected={scenario.expect} max_residual={max_residual:.3e} "
          f"-> {'ok' if ok else 'FAILED'}")
    print(f"wrote {out_path} and {verdict_path}")
    return 0 if ok else 2


def _cmd_run(args) -> int:
    scenario = parse_scenario(Path(args.scenario))
    overrides = {k: v for k, v in (("t_end", args.t_end), ("dt", args.dt)) if v is not None}
    if overrides:
        config = dataclasses.replace(scenario.config, **overrides)
        scenario = dataclasses.replace(scenario, config=config)
    return run_scenario(scenario, args.out)


def _cmd_classify(args) -> int:
    scenario = parse_scenario(Path(args.scenario))
    result = classify_hamiltonian(scenario.hamiltonian_spec(), scenario.config)
    print(f"kind: {result.kind}")
    print(f"verdict: {result.verdict}")
    print(f"max |forcing| on grid: {result.max_forcing:.3e}")
    if result.witness_time is not None:
        print(f"forcing first exceeds threshold at t = {result.witness_time:.6g}")
    if result.dynamic_max_residual is not None:
        print(f"dynamic max residual: {result.dynamic_max_residual:.3e} "
              f"(agrees: {result.agrees})")
    return 0


def _cmd_selftest(_args) -> int:
    failures = 0
    for name, fn in _selftest_battery():
        try:
            fn()
        except Exception as exc:  # report and continue
            failures += 1
            print(f"FAIL - {name}: {exc}")
        else:
            print(f"ok   - {name}")
    # the fermion law above ran through the driver's loop for spec plans
    print("RK4 loop of fermion and Grassmann specs and of the boson Schrödinger "
          f"evolution: {kernel.compiled.status()}")
    print(f"graded product of kernel.multiply: {kernel.compiled.product_status()}")
    if failures:
        print(f"{failures} self-test(s) failed")
        return 2
    print("all self-tests passed")
    return 0


def _selftest_battery():
    from .coeffs import const_fn
    from .dynamics import (
        HamiltonianSpec,
        evolve_classical_boson,
        evolve_nu_system,
    )
    from .fermion import (
        FermionOperator,
        FermionState,
        adjoint,
        anticommutator,
        apply,
        compose,
        inner_product,
        make_displacement,
    )
    from .grassmann import GeneratorSet, berezin_pair, exponential, invert

    gens = GeneratorSet.from_pairs(("zeta",))
    zeta = gens.gen("zeta")
    zeta_star = gens.gen("zeta*")

    def berezin_rules():
        assert (berezin_pair(zeta * zeta_star, 0) - 1).sup_norm() == 0.0
        assert berezin_pair(gens.one(), 0).sup_norm() == 0.0
        assert berezin_pair(zeta, 0).sup_norm() == 0.0
        assert berezin_pair(zeta_star, 0).sup_norm() == 0.0

    def completeness():
        cs = make_coherent(zeta)
        basis = [FermionState.vacuum(gens), FermionState.one_fermion(gens)]
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                entry = berezin_pair(
                    inner_product(bi, cs) * inner_product(bj, cs).conjugate(), 0
                )
                want = 1.0 if i == j else 0.0
                assert (entry - want).sup_norm() <= 1e-13

    def coherent_state():
        cs = make_coherent(zeta)
        b = FermionOperator.annihilator(gens)
        assert (apply(b, cs) - zeta * cs).sup_norm() <= 1e-13
        assert (inner_product(cs, cs) - 1).sup_norm() <= 1e-13
        disp = apply(make_displacement(zeta, b), FermionState.vacuum(gens))
        assert (disp - cs).sup_norm() <= 1e-13

    def displacement_conjugation():
        b = FermionOperator.annihilator(gens)
        d = make_displacement(zeta, b)
        dd = adjoint(d)
        zeta_op = FermionOperator.scaled_identity(zeta)
        assert (compose(compose(d, b), dd) - (b - zeta_op)).sup_norm() <= 1e-13
        assert (compose(compose(dd, b), d) - (b + zeta_op)).sup_norm() <= 1e-13

    def ladder_algebra():
        b = FermionOperator.annihilator(gens)
        bd = FermionOperator.creator(gens)
        ident = FermionOperator.identity(gens)
        assert (anticommutator(b, bd) - ident).sup_norm() == 0.0
        assert compose(b, b).sup_norm() == 0.0

    def algebra_roundtrips():
        x = 2 + zeta + zeta_star
        assert (x * invert(x) - 1).sup_norm() <= 1e-14
        even = -0.5 * (zeta_star * zeta)
        assert (exponential(even) * exponential(-even) - 1).sup_norm() <= 1e-14

    def free_fermion_law():
        spec = HamiltonianSpec("fermion", const_fn(1.0))
        cfg = IntegrationConfig(t_end=0.5, dt=1e-3, stride=100)
        traj = evolve_schrodinger_fermion(spec, make_coherent(zeta), cfg)
        assert traj.max_residual <= 1e-10
        lam = traj.eigenvalues[-1]
        want = complex(np.exp(-0.5j)) * zeta
        assert (lam - want).sup_norm() <= 1e-9

    def classical_boson_law():
        spec = HamiltonianSpec("boson", const_fn(1.0))
        cfg = IntegrationConfig(t_end=0.5, dt=1e-3)
        path = evolve_classical_boson(spec, 1.0, cfg)
        assert np.max(np.abs(path.z - np.exp(-1j * path.times))) <= 1e-10
        assert path.max_disagreement <= 1e-10

    def nu_conservation():
        spec = HamiltonianSpec("fermion", const_fn(1.0), const_fn(0.3))
        cfg = IntegrationConfig(t_end=1.0, dt=1e-3)
        nu = evolve_nu_system(spec, cfg)
        assert np.max(np.abs(nu.conservation() - 1.0)) <= 1e-10
        assert abs(nu.nu[-1, 1]) > 0.01

    return [
        ("Berezin rules", berezin_rules),
        ("overcompleteness identity", completeness),
        ("coherent state identities", coherent_state),
        ("displacement conjugation", displacement_conjugation),
        ("fermion ladder algebra", ladder_algebra),
        ("algebra round trips", algebra_roundtrips),
        ("free fermion eigenvalue law", free_fermion_law),
        ("classical boson law", classical_boson_law),
        ("nu-system conservation", nu_conservation),
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="coherence",
        description="Evolve coherent states and certify temporal stability.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file and write CSV reports")
    p_run.add_argument("scenario", help="path to the scenario .ini file")
    p_run.add_argument("--dt", type=float, default=None, help="override [integration] dt")
    p_run.add_argument("--t-end", dest="t_end", type=float, default=None,
                       help="override [integration] t_end")
    p_run.add_argument("--out", default=None, help="directory for output files")
    p_run.set_defaults(fn=_cmd_run)

    p_cls = sub.add_parser("classify", help="print the preserving/non-preserving verdict")
    p_cls.add_argument("scenario", help="path to the scenario .ini file")
    p_cls.set_defaults(fn=_cmd_classify)

    p_self = sub.add_parser("selftest", help="run the built-in identity suite")
    p_self.set_defaults(fn=_cmd_selftest)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 1
    except NUMERIC_ERRORS as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except CohstabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
