"""Run configuration: a flat INI file with sections, overridable by flags.

The file is the single source of truth for a run; command-line overrides of
the form `section.key=value` are applied on top before validation so that
every output can echo the fully resolved configuration.

The schema is the dataclasses: each section is a dataclass field of
`RunConfig`, and its keys are that dataclass's fields. A field's type picks
the parser, its default is the key's default, and a field without a default
is required. Unknown sections and keys are rejected.

What has one value in every run is no key but a constant of the module
that uses it (`solvers.ROUNDING_FACTOR`, `NEWTON_TOL` and `NEWTON_MAX_ITER`, the
sample counts and tolerances of `verify`), so no setting can make a
property check vacuous.
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


@dataclass(frozen=True)
class VerifyConfig:
    """Seed of the randomized property suite; its sample counts are fixed in `verify`."""

    seed: int = 20260808

    def __post_init__(self):
        if self.seed < 0:  # numpy's generators take non-negative seeds only
            raise ValueError(f"[verify] seed must be non-negative, got {self.seed}")


@dataclass
class RunConfig:
    """The resolved run: one dataclass per section, and where it came from."""

    model: ModelParams
    geometry: GeometrySpec
    solver: SolverConfig
    output: OutputConfig
    verify: VerifyConfig
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
        return lines


# Section name -> dataclass, in file and echo order.
_SECTIONS = {f.name: f.type for f in fields(RunConfig) if is_dataclass(f.type)}


def _echo(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return fmt(value)
    return str(value)


# Field type -> parser of the raw string.
_CONVERTERS = {float: float, float | None: float, int: int, str: str, Path: Path}


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
        for key in parser.options(section):
            if key not in known:
                raise ConfigError(f"unknown key [{section}] {key}")

    sections = {name: _section(parser, name, cls) for name, cls in _SECTIONS.items()}
    return RunConfig(**sections, source=str(path), overrides=tuple(overrides))
