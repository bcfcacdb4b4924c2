"""Run configuration: a flat INI file with sections, overridable by flags.

The file is the single source of truth for a run; command-line overrides of
the form `section.key=value` are applied on top before validation so that
every output can echo the fully resolved configuration.

The schema is the dataclasses: each section is a dataclass field of
`RunConfig`, and its keys are that dataclass's fields. A field's type picks
the parser, its default is the key's default, and a field without a default
is required. Unknown sections and keys are rejected.
"""

import configparser
import math
from dataclasses import MISSING, dataclass, fields, is_dataclass
from pathlib import Path

from .mesh import GeometrySpec
from .model import ModelParams
from .reporting import fmt
from .solvers import SolverConfig


class ConfigError(ValueError):
    """The configuration file or an override is invalid."""


@dataclass(frozen=True)
class OutputConfig:
    directory: Path = Path("out")
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
    """The resolved run; `reaction` is read from [model] but is no model parameter."""

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
        lines = [f"config: {self.source}"]
        lines += [f"override: {ov}" for ov in self.overrides]
        for name in _SECTIONS:
            section = getattr(self, name)
            lines.append(f"[{name}]")
            lines += [f"{f.name} = {_echo(getattr(section, f.name))}" for f in fields(section)]
            if name == "model":
                lines.append(f"reaction = {_echo(self.reaction)}")
        return lines


# Section name -> dataclass, in file and echo order.
_SECTIONS = {f.name: f.type for f in fields(RunConfig) if is_dataclass(f.type)}


def _echo(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt(value)
    return str(value)


def _to_bool(raw: str) -> bool:
    """1/yes/true/on or 0/no/false/off, as `ConfigParser.getboolean` reads them."""
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.strip().lower()]
    except KeyError:
        raise ValueError(raw) from None


# Field type -> parser of the raw string.
_CONVERTERS = {float: float, float | None: float, int: int, str: str, bool: _to_bool,
               Path: Path}


def _get(parser, section, key, convert):
    raw = parser.get(section, key)
    try:
        value = convert(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"non-finite value for [{section}] {key}: {raw!r}")
    return value


def _section(parser, name, cls):
    """Build one section's dataclass; absent keys take the dataclass default."""
    values = {}
    for f in fields(cls):
        if parser.has_option(name, f.name):
            values[f.name] = _get(parser, name, f.name, _CONVERTERS[f.type])
        elif f.default is MISSING:
            raise ConfigError(f"missing required key [{name}] {f.name}")
    try:
        return cls(**values)
    except ValueError as exc:  # an invariant checked by the dataclass
        raise ConfigError(str(exc)) from exc


def load_config(path, overrides=()) -> RunConfig:
    """Parse, apply `section.key=value` overrides, validate, and return.

    Unknown sections and keys are rejected, so a misspelt override cannot be
    echoed into the outputs without taking effect.
    """
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

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section [{section}]")
        known = {f.name for f in fields(_SECTIONS[section])}
        if section == "model":
            known.add("reaction")
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"unknown key [{section}] {key}")

    sections = {name: _section(parser, name, cls) for name, cls in _SECTIONS.items()}
    if parser.has_option("model", "reaction"):
        sections["reaction"] = _get(parser, "model", "reaction", _to_bool)

    return RunConfig(**sections, source=str(path), overrides=tuple(overrides))
