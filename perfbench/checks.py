"""Output checks for one CLI invocation.

An invocation passes only if it exited 0, wrote every artifact its command
writes, its report flags read as expected (converged, completed, energy and
err_H monotone, `result: PASS (17/17)`), beta_fit >= 0.9 gamma_disc
(acceptance criterion 3), a radial stationary field is within 1e-3 max-abs
of the shooting oracle, and the report numbers match `reference.json`
within the tolerances stored there (exact where none is given).
"""

import json
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

REPORT_FILES = {
    "mesh": "mesh_summary.txt",
    "stationary": "stationary_report.txt",
    "evolve": "evolve_report.txt",
    "verify": "verify_report.txt",
}
ARTIFACTS = {
    "mesh": ["mesh_summary.txt", "mesh.vtk"],
    "stationary": ["stationary_report.txt", "stationary_field.csv", "stationary_field.vtk"],
    "evolve": ["evolve_report.txt", "trace.csv", "decay_report.txt", "decay_report.csv"],
    "verify": ["verify_report.txt"],
}
# Report numbers compared against the reference, by command.
COMPARED = {
    "mesh": ["nodes", "elements", "core elements", "shell elements", "interface facets",
             "boundary nodes"],
    "stationary": ["energy", "residual (dual)", "max interface flux jump", "field rows"],
    "evolve": ["steps", "final time", "final err_H", "gamma_disc"],
    "verify": [],
}
FLAGS = {
    "stationary": {"converged": "True"},
    "evolve": {"completed": "True", "energy monotone": "True", "err_H monotone": "True"},
}
VERIFY_RESULT = "result: PASS (17/17)"
ORACLE_MAX_ABS = 1e-3
DECAY_FRACTION = 0.9


def load_reference(path=REFERENCE_PATH) -> dict:
    with open(path) as handle:
        return json.load(handle)


def parse_report(path) -> dict:
    """`key = value` lines of a report, without the '#' config echo."""
    fields = {}
    for line in Path(path).read_text().splitlines():
        if line.startswith("#") or "=" not in line:
            continue
        key, value = line.split("=", 1)
        fields[key.strip()] = value.strip()
    return fields


def read_field(path):
    """Rows of a field CSV as lists of floats, header and comments skipped."""
    rows = []
    for line in Path(path).read_text().splitlines():
        if line and not line.startswith("#") and not line[0].isalpha():
            rows.append([float(tok) for tok in line.split(",")])
    return rows


def observed(command: str, out_dir: Path) -> dict:
    """The report numbers of `COMPARED[command]`, read from an output directory."""
    report = parse_report(out_dir / REPORT_FILES[command])
    if command == "stationary":
        report["field rows"] = len(read_field(out_dir / "stationary_field.csv"))
    values = {}
    for key in COMPARED[command]:
        token = str(report[key]).split()[0]
        values[key] = int(token) if token.lstrip("-").isdigit() else float(token)
    return values


def _matches(value, ref, tol: dict) -> bool:
    if not tol:
        return value == ref
    return abs(value - ref) <= tol.get("atol", 0.0) + tol.get("rtol", 0.0) * abs(ref)


def check(case: str, command: str, exit_code: int, out_dir: Path, reference: dict,
          oracle=None) -> list:
    """Problems found with one invocation's outputs; empty when it passes.

    `oracle` is (radii, values) of the shooting reference at the mesh nodes
    for radial stationary runs, computed before timing.
    """
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    missing = [name for name in ARTIFACTS[command] if not (out_dir / name).is_file()]
    if missing:
        return [f"missing artifact {name}" for name in missing]
    problems = []
    if command == "verify":
        lines = (out_dir / REPORT_FILES["verify"]).read_text().splitlines()
        if not lines or lines[-1] != VERIFY_RESULT:
            problems.append(f"verify result {lines[-1] if lines else ''!r}")
        return problems

    report = parse_report(out_dir / REPORT_FILES[command])
    for key, expected in FLAGS.get(command, {}).items():
        if report.get(key) != expected:
            problems.append(f"{key} = {report.get(key)}")
    if command == "evolve":
        beta = float(report["beta_fit"].split()[0])
        gamma = float(report["gamma_disc"])
        if not beta >= DECAY_FRACTION * gamma:
            problems.append(f"beta_fit {beta} < {DECAY_FRACTION} * gamma_disc {gamma}")

    values = observed(command, out_dir)
    expected = reference["cases"][f"{case}/{command}"]
    for key, value in values.items():
        ref = expected[key]
        if not _matches(value, ref, reference["tolerances"].get(key, {})):
            problems.append(f"{key} = {value!r}, reference {ref!r}")

    if command == "stationary" and oracle is not None:
        radii, exact = oracle
        rows = read_field(out_dir / "stationary_field.csv")
        if len(rows) != len(exact):
            problems.append(f"field has {len(rows)} rows, oracle {len(exact)}")
        else:
            worst = max(abs(row[-1] - u) for row, u in zip(rows, exact))
            offset = max(abs(row[0] - r) for row, r in zip(rows, radii))
            if not worst <= ORACLE_MAX_ABS or offset > 1e-12:
                problems.append(f"field differs from the shooting oracle by {worst:.3e}")
    return problems
