"""Deterministic CSV and text outputs.

All floats are printed with 17 significant digits so that values round-trip
exactly, CSV files use a header row and LF line endings, and every file
embeds the resolved configuration as leading '#' comment lines for
provenance.
"""

import numpy as np

from .analysis import DecayReport
from .mesh import CoreShellMesh
from .solvers import EvolutionTrace


def fmt(x) -> str:
    return f"{float(x):.17g}"


def write_lines(path, lines):
    """Write lines with LF endings and a final newline."""
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def comment_block(echo_lines) -> list:
    return [f"# {line}" if line else "#" for line in echo_lines]


def write_field_csv(path, mesh: CoreShellMesh, values, echo_lines=()):
    """Nodal field as CSV: columns (r, u) for radial meshes, (x, y, u) planar."""
    values = np.asarray(values, dtype=float)
    lines = comment_block(echo_lines)
    if mesh.kind == "radial":
        lines.append("r,u")
        lines.extend(f"{fmt(r)},{fmt(v)}" for r, v in zip(mesh.nodes, values))
    else:
        lines.append("x,y,u")
        lines.extend(
            f"{fmt(x)},{fmt(y)},{fmt(v)}"
            for (x, y), v in zip(mesh.nodes, values)
        )
    write_lines(path, lines)


def read_field_csv(path, mesh: CoreShellMesh) -> np.ndarray:
    """Load a nodal field written by write_field_csv, checking the mesh matches."""
    rows = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#") or line[0].isalpha():
                continue
            rows.append([float(tok) for tok in line.split(",")])
    data = np.asarray(rows, dtype=float)
    if not np.all(np.isfinite(data)):
        raise ValueError("field file has a non-finite entry")
    if data.shape[0] != mesh.n_nodes:
        raise ValueError(
            f"field file has {data.shape[0]} rows, mesh has {mesh.n_nodes} nodes"
        )
    coords = data[:, :1] if mesh.kind == "radial" else data[:, :2]
    own = mesh.nodes.reshape(mesh.n_nodes, -1)
    if not np.allclose(coords, own, rtol=0.0, atol=1e-12 * mesh.r2):
        raise ValueError("field file coordinates do not match the mesh")
    return data[:, -1]


def write_trace_csv(path, trace: EvolutionTrace, echo_lines=()):
    lines = comment_block(echo_lines)
    lines.append("t,energy,err_H,err_V,newton_iters")
    for i in range(len(trace)):
        lines.append(
            f"{fmt(trace.times[i])},{fmt(trace.energies[i])},"
            f"{fmt(trace.err_H[i])},{fmt(trace.err_V[i])},{int(trace.newton_iters[i])}"
        )
    write_lines(path, lines)


def decay_report_text(report: DecayReport) -> list:
    lines = [
        "exponential H-decay report",
        f"  beta_fit   = {fmt(report.beta_fit)}",
        f"  gamma_disc = {fmt(report.gamma_disc)}",
        f"  r_squared  = {fmt(report.r_squared)}",
        f"  window     = [{report.window[0]}, {report.window[1]})",
    ]
    if report.flag:
        lines.append(f"  flag       = {report.flag}")
    return lines


def write_decay_report(txt_path, csv_path, report: DecayReport, echo_lines=()):
    write_lines(txt_path, comment_block(echo_lines) + decay_report_text(report))
    csv_lines = comment_block(echo_lines)
    csv_lines.append("beta_fit,gamma_disc,r_squared,window_start,window_end,flag")
    csv_lines.append(
        f"{fmt(report.beta_fit)},{fmt(report.gamma_disc)},{fmt(report.r_squared)},"
        f"{report.window[0]},{report.window[1]},{report.flag}"
    )
    write_lines(csv_path, csv_lines)


def write_text_report(path, body_lines, echo_lines=()):
    write_lines(path, comment_block(echo_lines) + list(body_lines))
