"""Batch command-line front end.

Subcommands: mesh | stationary | evolve | verify, each taking a config file
as positional argument with optional `--set section.key=value` overrides.
Exit codes: 0 success, 1 property violation, 2 invalid input, 3 runtime
solver failure. One command is one process; outputs are deterministic for a
fixed config and seed.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    MIN_SAMPLES,
    AnalysisError,
    estimate_gamma,
    fit_decay_rate,
    interface_flux_jump,
)
from .config import ConfigError, RunConfig, load_config
from .fem import assemble, field_from_values, ramp_field, zero_field
from .mesh import CORE, GeometryError, build_mesh
from .model import ParameterError
from .reporting import (
    fmt,
    read_field_csv,
    table_lines,
    write_decay_report,
    write_field_csv,
    write_lines,
    write_text_report,
    write_trace_csv,
)
from .solvers import LinearSolveError, NonlinearSolveError, evolve, stationary_solve
from .verify import report_lines, run_verification
from .vtkio import write_vtk

EXIT_OK = 0
EXIT_PROPERTY_VIOLATION = 1
EXIT_INVALID_INPUT = 2
EXIT_SOLVER_FAILURE = 3


def _prepare(config: RunConfig):
    mesh = build_mesh(config.geometry)
    system = assemble(mesh, config.model, reaction=config.reaction)
    out_dir = Path(config.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    return mesh, system, out_dir


def _vtk_title(config: RunConfig) -> str:
    g, m = config.geometry, config.model
    return (f"coreshell {g.kind} N={g.dimension} r1={g.r1:g} r2={g.r2:g} h={g.h:g} "
            f"b1={m.b1:g} b2={m.b2:g} c0={m.c0:g} c1={m.c1:g} seed={config.verify.seed}")


def cmd_mesh(config: RunConfig) -> int:
    mesh, _, out_dir = _prepare(config)
    mesh.validate()
    n_core = int(np.sum(mesh.region == CORE))
    n_shell = mesh.n_elements - n_core
    if config.output.write_vtk:
        write_vtk(out_dir / "mesh.vtk", mesh, title=_vtk_title(config))
    body = [
        "mesh summary",
        f"  kind            = {mesh.kind}",
        f"  nodes           = {mesh.n_nodes}",
        f"  elements        = {mesh.n_elements}",
        f"  core elements   = {n_core}",
        f"  shell elements  = {n_shell}",
        f"  interface facets = {len(mesh.gamma_facets)}",
        f"  boundary nodes  = {mesh.s_nodes.shape[0]}",
    ]
    write_text_report(out_dir / "mesh_summary.txt", body, config.echo_lines())
    print("\n".join(body))
    return EXIT_OK


def _initial_field(which: str, mesh, config: RunConfig):
    if which == "zero":
        return zero_field(mesh)
    if which == "ramp":
        return ramp_field(mesh, config.model)
    raise ConfigError(f"unknown initial field {which!r}")


def cmd_stationary(config: RunConfig, init: str = "zero") -> int:
    mesh, system, out_dir = _prepare(config)
    result = stationary_solve(system, config.model, config.solver,
                              _initial_field(init, mesh, config))
    jump = interface_flux_jump(system, mesh, result.field, config.model)
    if config.output.write_csv:
        write_field_csv(out_dir / "stationary_field.csv", mesh, result.field,
                        config.echo_lines())
    if config.output.write_vtk:
        write_vtk(out_dir / "stationary_field.vtk", mesh,
                  point_data={"u": result.field}, title=_vtk_title(config))
    body = [
        "stationary solve report",
        f"  initial field    = {init}",
        f"  converged        = {result.converged}",
        f"  newton iterations = {result.iterations}",
        f"  residual (dual)  = {fmt(result.residual_norm)}",
        f"  energy           = {fmt(result.energy)}",
        f"  max interface flux jump = {fmt(jump)}",
    ]
    write_text_report(out_dir / "stationary_report.txt", body, config.echo_lines())
    print("\n".join(body))
    if not result.converged:
        print("stationary solve did not converge; artifacts are partial", file=sys.stderr)
        return EXIT_SOLVER_FAILURE
    return EXIT_OK


def cmd_evolve(config: RunConfig, u0_file: str | None = None) -> int:
    config.solver.require_timestep()
    if config.solver.n_steps + 1 < MIN_SAMPLES:
        raise ValueError(f"step count t_end / dt = {config.solver.n_steps} is below "
                         f"{MIN_SAMPLES - 1}, the fewest the decay-rate fit needs")
    mesh, system, out_dir = _prepare(config)
    if u0_file is not None:
        u0 = field_from_values(mesh, read_field_csv(u0_file, mesh))
    else:
        u0 = zero_field(mesh)

    trace = evolve(system, config.model, config.solver, u0)
    if config.output.write_csv:
        write_trace_csv(out_dir / "trace.csv", trace, config.echo_lines())
    if not trace.meta["completed"]:
        print(f"evolution failed at step {trace.meta['failed_at_step']} "
              f"({trace.meta['failure']}); last good time {fmt(trace.times[-1])}",
              file=sys.stderr)
        return EXIT_SOLVER_FAILURE

    gamma = estimate_gamma(system, config.model)
    report = fit_decay_rate(trace, gamma_disc=gamma)
    write_decay_report(out_dir / "decay_report.txt", out_dir / "decay_report.csv",
                       report, config.echo_lines())

    slack_energy = 1e-12 * max(1.0, abs(trace.energies[0]))
    energy_ok = bool(np.all(np.diff(trace.energies) <= slack_energy))
    # Per-step inexactness of the proximal solve in the M-norm.
    slack_h = (2.0 * config.solver.dt * config.solver.newton_tol
               + 1e-12 * max(1.0, trace.err_H[0]))
    contraction_ok = bool(np.all(np.diff(trace.err_H) <= slack_h))

    body = [
        "evolution report",
        f"  steps            = {len(trace) - 1}",
        f"  completed        = {trace.meta['completed']}",
        f"  final time       = {fmt(trace.times[-1])}",
        f"  final err_H      = {fmt(trace.err_H[-1])}",
        f"  energy monotone  = {energy_ok}",
        f"  err_H monotone   = {contraction_ok}",
        f"  beta_fit         = {fmt(report.beta_fit)}"
        + (f" ({report.flag})" if report.flag else ""),
        f"  gamma_disc       = {fmt(gamma)}",
    ]
    write_text_report(out_dir / "evolve_report.txt", body, config.echo_lines())
    print("\n".join(body))

    if not (energy_ok and contraction_ok):
        print("energy-monotonicity or H-contraction violated along the trace",
              file=sys.stderr)
        return EXIT_PROPERTY_VIOLATION
    return EXIT_OK


def cmd_verify(config: RunConfig, corrupt_b: bool = False) -> int:
    out_dir = Path(config.output.directory)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = run_verification(config, corrupt_b=corrupt_b)
    lines = report_lines(results)
    write_text_report(out_dir / "verify_report.txt", lines, config.echo_lines())
    print("\n".join(lines))

    failures = [r for r in results if not r.passed]
    if failures:
        first = next((r for r in failures if r.sample), None)
        if first is not None:
            sample_path = out_dir / "violation_sample.csv"
            keys = sorted(first.sample)
            rows = [f"# property: {first.name}", f"# seed: {config.verify.seed}",
                    ",".join(keys)]
            write_lines(sample_path, rows + table_lines(
                [np.atleast_1d(first.sample[k]) for k in keys]))
            print(f"violating sample written to {sample_path}", file=sys.stderr)
        return EXIT_PROPERTY_VIOLATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coreshell",
        description="Finite-element simulation of reaction-diffusion transport "
                    "into core-shell capsules.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="path to the run configuration file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--output-dir", default=None,
                       help="override the output directory")

    p_mesh = sub.add_parser("mesh", help="build the mesh and write VTK + summary")
    add_common(p_mesh)

    p_stat = sub.add_parser("stationary", help="compute the stationary state")
    add_common(p_stat)
    p_stat.add_argument("--init", choices=("zero", "ramp"), default="zero",
                        help="documented initial field for the Newton solve")

    p_evo = sub.add_parser("evolve", help="run the implicit-Euler evolution")
    add_common(p_evo)
    p_evo.add_argument("--u0-file", default=None,
                       help="restart field CSV written by `stationary`")

    p_ver = sub.add_parser("verify", help="run the randomized property suite")
    add_common(p_ver)
    p_ver.add_argument("--seed", type=int, default=None,
                       help="override the property-suite seed")
    p_ver.add_argument("--corrupt-b", action="store_true",
                       help=argparse.SUPPRESS)  # harness sanity hook
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = list(args.overrides)
    if args.output_dir is not None:
        overrides.append(f"output.directory={args.output_dir}")
    if getattr(args, "seed", None) is not None:
        overrides.append(f"verify.seed={args.seed}")
    try:
        config = load_config(args.config, overrides)
        if args.command == "mesh":
            return cmd_mesh(config)
        if args.command == "stationary":
            return cmd_stationary(config, init=args.init)
        if args.command == "evolve":
            return cmd_evolve(config, u0_file=args.u0_file)
        return cmd_verify(config, corrupt_b=args.corrupt_b)
    except (ConfigError, GeometryError, ParameterError, ValueError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (NonlinearSolveError, LinearSolveError, AnalysisError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


def console_main():
    sys.exit(main())
