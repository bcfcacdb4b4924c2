"""Run configuration: a flat INI file with sections, overridable by flags.

The file is the single source of truth for a run; command-line overrides of
the form `section.key=value` are applied on top before validation so that
every output can echo the fully resolved configuration.
"""

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .mesh import GeometrySpec
from .model import ModelParams
from .reporting import fmt
from .solvers import SolverConfig


class ConfigError(ValueError):
    """The configuration file or an override is invalid."""


@dataclass(frozen=True)
class OutputConfig:
    directory: Path
    write_vtk: bool = True
    write_csv: bool = True


@dataclass(frozen=True)
class VerifyConfig:
    """Sample counts and tolerances of the randomized property suite."""

    seed: int = 20260808
    rate_samples: int = 200000
    monotonicity_pairs: int = 500
    strong_monotonicity_pairs: int = 100
    coercivity_samples: int = 200
    gradient_checks: int = 50
    resolvent_solves: int = 5
    hemicontinuity_samples: int = 20
    pairing_slack: float = 1e-12
    gradient_rtol: float = 1e-6


@dataclass
class RunConfig:
    model: ModelParams
    geometry: GeometrySpec
    solver: SolverConfig
    output: OutputConfig
    verify: VerifyConfig
    reaction: bool = True
    source: str = ""
    overrides: tuple = ()

    def echo_lines(self) -> list:
        """Resolved configuration, one deterministic line per key."""

        def num(x):
            if x is None:
                return "none"
            if isinstance(x, bool):
                return "true" if x else "false"
            if isinstance(x, int):
                return str(x)
            return fmt(x)

        m, g, s, o, v = self.model, self.geometry, self.solver, self.output, self.verify
        lines = [f"config: {self.source}"]
        for ov in self.overrides:
            lines.append(f"override: {ov}")
        lines += [
            "[model]",
            f"b1 = {num(m.b1)}", f"b2 = {num(m.b2)}",
            f"c0 = {num(m.c0)}", f"c1 = {num(m.c1)}",
            f"reaction = {num(self.reaction)}",
            "[geometry]",
            f"kind = {g.kind}", f"dimension = {g.dimension}",
            f"r1 = {num(g.r1)}", f"r2 = {num(g.r2)}", f"h = {num(g.h)}",
            "[solver]",
            f"newton_tol = {num(s.newton_tol)}",
            f"newton_max_iter = {num(s.newton_max_iter)}",
            f"dt = {num(s.dt)}", f"t_end = {num(s.t_end)}",
            f"linear_tol = {num(s.linear_tol)}",
            "[output]",
            f"directory = {o.directory}",
            f"write_vtk = {num(o.write_vtk)}", f"write_csv = {num(o.write_csv)}",
            "[verify]",
            f"seed = {num(v.seed)}",
            f"rate_samples = {num(v.rate_samples)}",
            f"monotonicity_pairs = {num(v.monotonicity_pairs)}",
            f"strong_monotonicity_pairs = {num(v.strong_monotonicity_pairs)}",
            f"coercivity_samples = {num(v.coercivity_samples)}",
            f"gradient_checks = {num(v.gradient_checks)}",
            f"resolvent_solves = {num(v.resolvent_solves)}",
            f"hemicontinuity_samples = {num(v.hemicontinuity_samples)}",
            f"pairing_slack = {num(v.pairing_slack)}",
            f"gradient_rtol = {num(v.gradient_rtol)}",
        ]
        return lines


def _get(parser, section, key, convert, default=None, required=False):
    if not parser.has_option(section, key):
        if required:
            raise ConfigError(f"missing required key [{section}] {key}")
        return default
    raw = parser.get(section, key)
    try:
        value = convert(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"non-finite value for [{section}] {key}: {raw!r}")
    return value


def _to_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


def load_config(path, overrides=()) -> RunConfig:
    """Parse, apply `section.key=value` overrides, validate, and return."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc

    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        section, key = section.strip(), key.strip()
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())

    for section in ("model", "geometry"):
        if not parser.has_section(section):
            raise ConfigError(f"missing required section [{section}]")

    try:
        model = ModelParams(
            b1=_get(parser, "model", "b1", float, required=True),
            b2=_get(parser, "model", "b2", float, required=True),
            c0=_get(parser, "model", "c0", float, required=True),
            c1=_get(parser, "model", "c1", float, required=True),
        )
        geometry = GeometrySpec(
            kind=_get(parser, "geometry", "kind", str, required=True).strip(),
            dimension=_get(parser, "geometry", "dimension", int, required=True),
            r1=_get(parser, "geometry", "r1", float, required=True),
            r2=_get(parser, "geometry", "r2", float, required=True),
            h=_get(parser, "geometry", "h", float, required=True),
        )
        solver = SolverConfig(
            newton_tol=_get(parser, "solver", "newton_tol", float, default=1e-10),
            newton_max_iter=_get(parser, "solver", "newton_max_iter", int, default=50),
            dt=_get(parser, "solver", "dt", float),
            t_end=_get(parser, "solver", "t_end", float),
            linear_tol=_get(parser, "solver", "linear_tol", float, default=1e-12),
        )
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    output = OutputConfig(
        directory=Path(_get(parser, "output", "directory", str, default="out")),
        write_vtk=_get(parser, "output", "write_vtk", _to_bool, default=True),
        write_csv=_get(parser, "output", "write_csv", _to_bool, default=True),
    )
    defaults = VerifyConfig()
    verify = VerifyConfig(
        seed=_get(parser, "verify", "seed", int, default=defaults.seed),
        rate_samples=_get(parser, "verify", "rate_samples", int, default=defaults.rate_samples),
        monotonicity_pairs=_get(parser, "verify", "monotonicity_pairs", int,
                                default=defaults.monotonicity_pairs),
        strong_monotonicity_pairs=_get(parser, "verify", "strong_monotonicity_pairs", int,
                                       default=defaults.strong_monotonicity_pairs),
        coercivity_samples=_get(parser, "verify", "coercivity_samples", int,
                                default=defaults.coercivity_samples),
        gradient_checks=_get(parser, "verify", "gradient_checks", int,
                             default=defaults.gradient_checks),
        resolvent_solves=_get(parser, "verify", "resolvent_solves", int,
                              default=defaults.resolvent_solves),
        hemicontinuity_samples=_get(parser, "verify", "hemicontinuity_samples", int,
                                    default=defaults.hemicontinuity_samples),
        pairing_slack=_get(parser, "verify", "pairing_slack", float,
                           default=defaults.pairing_slack),
        gradient_rtol=_get(parser, "verify", "gradient_rtol", float,
                           default=defaults.gradient_rtol),
    )
    reaction = _get(parser, "model", "reaction", _to_bool, default=True)

    return RunConfig(
        model=model,
        geometry=geometry,
        solver=solver,
        output=output,
        verify=verify,
        reaction=reaction,
        source=str(path),
        overrides=tuple(overrides),
    )
