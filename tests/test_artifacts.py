"""Pinned artifact bytes: the CLI writers reproduce stored files exactly.

`tests/data/artifacts/<kind>/` holds the mesh VTK and summary, the
stationary field as CSV and VTK and its report, the evolution trace, its
report and its decay report (text and CSV), the `verify --corrupt-b` report
and violation sample, and (under `passing/`) the report of a plain `verify`
run, of a coarse radial (h=0.25) and planar (h=0.35) run of the shipped
desk configs. The reports carry the numbers that move most with solver
rounding: energy, dual residual, flux jump, `beta_fit` and `gamma_disc`. VTK files are compared byte for byte. CSV and text files are
compared without their leading '#' comment lines, because the configuration
echo in them names the output directory; the stored files carry no comment
lines. Each evolve step hands its state's evaluation (K u, reaction,
potential) to the next step and to the record, so these pins also guard the
trajectory's determinism.

Regenerate (only when a change of output is intended and recorded):

    PYTHONPATH=src python tests/test_artifacts.py --write
"""

import sys
import tempfile
from pathlib import Path

import pytest

from coreshell.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
DATA = Path(__file__).with_name("data") / "artifacts"
RUNS = {
    "radial": ("radial_desk.cfg", "0.25"),
    "planar": ("annulus_desk.cfg", "0.35"),
}
# (subdirectory of the output directory, command)
COMMANDS = (("", ["mesh"]), ("", ["stationary"]), ("", ["evolve"]),
            ("", ["verify", "--corrupt-b"]), ("passing", ["verify"]))
EXIT_CODES = (0, 0, 0, 1, 0)
FILES = ("mesh.vtk", "mesh_summary.txt", "stationary_field.csv", "stationary_field.vtk",
         "stationary_report.txt", "trace.csv", "evolve_report.txt", "decay_report.txt",
         "decay_report.csv", "violation_sample.csv", "verify_report.txt",
         "passing/verify_report.txt")


def produce(kind, out_dir):
    """Run every command of one pinned case into out_dir; return the exit codes."""
    config, h = RUNS[kind]
    return tuple(
        main(command + [str(REPO_ROOT / "configs" / config), "--set", f"geometry.h={h}",
                        "--output-dir", str(Path(out_dir) / subdir)])
        for subdir, command in COMMANDS
    )


def comparable(path) -> bytes:
    """File bytes, without '#' comment lines for CSV and text files."""
    data = Path(path).read_bytes()
    if Path(path).suffix not in (".csv", ".txt"):
        return data
    return b"".join(line for line in data.splitlines(keepends=True)
                    if not line.startswith(b"#"))


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    out = {}
    for kind in RUNS:
        out_dir = tmp_path_factory.mktemp(kind)
        out[kind] = (out_dir, produce(kind, out_dir))
    return out


@pytest.mark.parametrize("kind", RUNS)
def test_exit_codes(produced, kind):
    assert produced[kind][1] == EXIT_CODES


@pytest.mark.parametrize("name", FILES)
@pytest.mark.parametrize("kind", RUNS)
def test_artifact_bytes(produced, kind, name):
    assert comparable(produced[kind][0] / name) == comparable(DATA / kind / name)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_artifacts.py --write")
    for kind in RUNS:
        with tempfile.TemporaryDirectory() as tmp:
            codes = produce(kind, Path(tmp))
            if codes != EXIT_CODES:
                sys.exit(f"{kind}: exit codes {codes}, expected {EXIT_CODES}")
            for name in FILES:
                (DATA / kind / name).parent.mkdir(parents=True, exist_ok=True)
                (DATA / kind / name).write_bytes(comparable(Path(tmp) / name))
    print(f"wrote {DATA}")
