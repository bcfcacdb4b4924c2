"""Batch command-line front end.

Subcommands: mesh | stationary | evolve | verify, each taking a config file
as positional argument with optional `--set section.key=value` overrides.
Exit codes: 0 success, 1 property violation, 2 invalid input, 3 runtime
solver failure. One command is one process; outputs are deterministic for a
fixed config and seed.

Importing this module freezes the garbage collector's current objects
(`gc.freeze`), the ones numpy and the package create at import, so that a
command's process does not collect and free them one by one at exit.
"""

import argparse
import gc
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
from .config import RunConfig, load_config
from .fem import assemble, field_from_values, zero_field
from .mesh import CORE, build_mesh
from .reporting import (
    comment_block,
    fmt,
    read_field_csv,
    table_lines,
    write_decay_report,
    write_field_csv,
    write_lines,
    write_text_report,
    write_trace_csv,
    write_vtk,
)
from .solvers import NEWTON_TOL, LinearSolveError, NonlinearSolveError, evolve, stationary_solve
from .verify import normalized, report_lines, run_verification

# Move the ~22 000 objects that numpy and the package create at import into
# the collector's permanent generation (2 us, once per process), so that the
# interpreter's exit neither walks nor frees them one by one: exit took 24-30
# ms per desk command without the freeze and 6-10 ms with it, against 11 ms
# for a process that runs `pass`. A full collection of them takes about 6 ms
# and finds none unreachable. The collector stays enabled for the run's objects.
gc.freeze()

EXIT_OK = 0
EXIT_PROPERTY_VIOLATION = 1
EXIT_INVALID_INPUT = 2
EXIT_SOLVER_FAILURE = 3


def _prepare(config: RunConfig):
    mesh = build_mesh(config.geometry)
    system = assemble(mesh, config.model)
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


def cmd_stationary(config: RunConfig) -> int:
    mesh, system, out_dir = _prepare(config)
    result = stationary_solve(system, config.model, zero_field(mesh))
    jump = interface_flux_jump(system, result.field, config.model)
    write_field_csv(out_dir / "stationary_field.csv", mesh, result.field, config.echo_lines())
    write_vtk(out_dir / "stationary_field.vtk", mesh, point_data={"u": result.field},
              title=_vtk_title(config))
    body = [
        "stationary solve report",
        "  initial field    = zero",
        f"  converged        = {result.converged}",
        f"  newton iterations = {result.iterations}",
        f"  residual (dual)  = {fmt(result.residual_history[-1])}",
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
    write_trace_csv(out_dir / "trace.csv", trace, config.echo_lines())
    if trace.failure is not None:
        print(f"evolution failed at step {len(trace)} "
              f"({trace.failure}); last good time {fmt(trace.times[-1])}",
              file=sys.stderr)
        return EXIT_SOLVER_FAILURE

    gamma = estimate_gamma(system, config.model)
    report = fit_decay_rate(trace, gamma_disc=gamma)
    write_decay_report(out_dir / "decay_report.txt", out_dir / "decay_report.csv",
                       report, config.echo_lines())

    # A step may raise the energy by its two states' rounding; the largest
    # increase measured is 0.13 of that.
    rounding = trace.energy_rounding
    energy_ok = bool(np.all(np.diff(trace.energies) <= rounding[:-1] + rounding[1:]))
    # Per-step inexactness of the proximal solve in the M-norm: each step's
    # Newton solve ends at a dual residual of at most NEWTON_TOL (the
    # absolute rule of `_newton_minimize`; only on stiff input does its
    # rounding floor lie above that), which moves the step by about
    # dt * NEWTON_TOL in the H-norm.
    slack_h = (2.0 * config.solver.dt * NEWTON_TOL
               + 1e-12 * max(1.0, trace.err_H[0]))
    contraction_ok = bool(np.all(np.diff(trace.err_H) <= slack_h))

    body = [
        "evolution report",
        f"  steps            = {len(trace) - 1}",
        f"  completed        = {trace.failure is None}",
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
    exponent = normalized(config.model)[1]
    units = [f"details in normalized units: c0 and c1 times 2^{exponent}, "
             f"b1 and b2 divided by it"] if exponent else []
    lines[1:1] = units
    write_text_report(out_dir / "verify_report.txt", lines, config.echo_lines())
    print("\n".join(lines))

    failures = [r for r in results if not r.passed]
    if failures:
        first = next((r for r in failures if r.sample), None)
        if first is not None:
            sample_path = out_dir / "violation_sample.csv"
            keys = sorted(first.sample)
            # the sample is in the report's units, so the file names them
            rows = [f"# property: {first.name}", f"# seed: {config.verify.seed}",
                    *comment_block(units + config.echo_lines()), ",".join(keys)]
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

    add_common(sub.add_parser("mesh", help="build the mesh and write VTK + summary"))
    add_common(sub.add_parser("stationary", help="compute the stationary state"))

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
            return cmd_stationary(config)
        if args.command == "evolve":
            return cmd_evolve(config, u0_file=args.u0_file)
        return cmd_verify(config, corrupt_b=args.corrupt_b)
    except (ValueError, OSError) as exc:
        # ConfigError, GeometryError and ParameterError are ValueErrors; an
        # OSError is a path that cannot be read or written.
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except (NonlinearSolveError, LinearSolveError, AnalysisError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
