"""Workloads: the CLI invocation sequences the benchmark times, and their inputs.

Each workload is a fixed sequence of (case, command) invocations, run one
after another as separate processes. A case is a shipped config plus
`--set` overrides. Inputs that depend on the seed (the verify seed and the
`--u0-file` fields) are generated by `prepare` before timing starts.
"""

from dataclasses import dataclass
from pathlib import Path

from inputs import low_mode_field, verify_seed, write_field

CASES = {
    "annulus_desk": ("configs/annulus_desk.cfg", []),
    "radial_desk": ("configs/radial_desk.cfg", []),
    "annulus_fine": ("configs/annulus_desk.cfg", ["geometry.h=0.025"]),
    "radial_fine": ("configs/radial_desk.cfg", ["geometry.h=0.00048828125"]),
}

# "evolve" with a case that has a generated field runs `evolve --u0-file`.
WORKLOADS = {
    "desk": [(case, command) for case in ("annulus_desk", "radial_desk")
             for command in ("mesh", "stationary", "evolve", "verify")],
    "planar-fine": [("annulus_fine", "stationary"), ("annulus_fine", "evolve")],
    "radial-fine": [("radial_fine", "stationary"), ("radial_fine", "evolve"),
                    ("radial_fine", "verify")],
}
SEEDED_FIELDS = {"planar-fine": "annulus_fine", "radial-fine": "radial_fine"}


@dataclass
class Prepared:
    """Seed-derived inputs and pre-computed oracles of one workload."""

    seed: int
    verify_seed: int
    u0_files: dict
    oracles: dict


def case_argv(root: Path, case: str, command: str) -> list:
    path, overrides = CASES[case]
    argv = [command, str(root / path)]
    for item in overrides:
        argv += ["--set", item]
    return argv


def invocation_argv(root: Path, prepared: Prepared, case: str, command: str,
                    out_dir: Path) -> list:
    argv = case_argv(root, case, command) + ["--output-dir", str(out_dir)]
    if command == "evolve" and case in prepared.u0_files:
        argv += ["--u0-file", str(prepared.u0_files[case])]
    if command == "verify":
        argv += ["--seed", str(prepared.verify_seed)]
    return argv


def load_case(root: Path, case: str):
    from coreshell.config import load_config

    path, overrides = CASES[case]
    return load_config(root / path, overrides)


def prepare(root: Path, workload: str, seed: int, input_dir: Path) -> Prepared:
    """Write the seeded u0 field and evaluate the radial shooting oracle."""
    from coreshell.analysis import radial_stationary_reference
    from coreshell.mesh import build_mesh

    u0_files, oracles = {}, {}
    for case, command in WORKLOADS[workload]:
        config = load_case(root, case)
        seeded = command == "evolve" and SEEDED_FIELDS.get(workload) == case
        radial_stationary = command == "stationary" and config.geometry.kind == "radial"
        if not (seeded or radial_stationary):
            continue
        mesh = build_mesh(config.geometry)
        if seeded:
            path = input_dir / f"u0_{case}_seed{seed}.csv"
            write_field(path, mesh, low_mode_field(mesh, config.model.c0, seed))
            u0_files[case] = path
        else:
            profile = radial_stationary_reference(config.model, config.geometry)
            oracles[case] = (mesh.nodes.tolist(), profile(mesh.nodes).tolist())
    return Prepared(seed, verify_seed(seed), u0_files, oracles)
