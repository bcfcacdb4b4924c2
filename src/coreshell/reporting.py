"""Deterministic CSV and text outputs.

All floats are printed with 17 significant digits so that values round-trip
exactly, CSV files use a header row and LF line endings, and every file
embeds the resolved configuration as leading '#' comment lines for
provenance.
"""

import weakref

import numpy as np

from .analysis import DecayReport
from .mesh import CoreShellMesh
from .solvers import EvolutionTrace


def fmt(x) -> str:
    return f"{float(x):.17g}"


def column_text(values) -> list:
    """Each value of a numeric column as `fmt` prints it.

    Integer columns print with %d, which gives the same text for them.
    """
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    return list(map("%.17g".__mod__, values.astype(float).tolist()))


def table_lines(columns, sep=","):
    """One line per row of equal-length numeric columns, values as `column_text` prints them.

    Raises ValueError if the columns differ in length.
    """
    return list(map(sep.join, zip(*map(column_text, columns), strict=True)))


# Both field writers print the node coordinates. A mesh is immutable, so
# their text is made once per mesh, and it goes when the mesh goes.
_COORDINATE_TEXT = weakref.WeakKeyDictionary()


def coordinate_text(mesh: CoreShellMesh) -> tuple:
    """The node coordinates as `column_text` prints them: one tuple of
    strings per axis (r on radial meshes, x and y on planar ones)."""
    text = _COORDINATE_TEXT.get(mesh)
    if text is None:
        text = _COORDINATE_TEXT[mesh] = tuple(
            tuple(column_text(axis)) for axis in mesh.nodes.reshape(mesh.n_nodes, -1).T)
    return text


def write_lines(path, lines):
    """Write lines with LF endings and a final newline."""
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def comment_block(echo_lines) -> list:
    return [f"# {line}" if line else "#" for line in echo_lines]


def write_field_csv(path, mesh: CoreShellMesh, values, echo_lines=()):
    """Nodal field as CSV: columns (r, u) for radial meshes, (x, y, u) planar."""
    header = "r,u" if mesh.kind == "radial" else "x,y,u"
    rows = map(",".join, zip(*coordinate_text(mesh), column_text(values), strict=True))
    write_lines(path, comment_block(echo_lines) + [header, *rows])


def read_field_csv(path, mesh: CoreShellMesh) -> np.ndarray:
    """Load a nodal field written by write_field_csv, checking the mesh matches.

    '#' comment lines and blank lines are skipped; the first line after them
    is the header if it does not parse as numbers. Every other line is a
    data row, so a row that starts with nan or inf is read as one.
    """
    with open(path) as handle:
        rows = [line for line in handle if line.strip() and not line.lstrip().startswith("#")]
    if rows:
        try:
            np.loadtxt(rows[:1], delimiter=",")
        except ValueError:
            rows = rows[1:]  # the header
    data = np.loadtxt(rows, delimiter=",", ndmin=2) if rows else np.empty((0, 1))
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
    columns = [trace.times, trace.energies, trace.err_H, trace.err_V, trace.newton_iters]
    write_lines(path, comment_block(echo_lines) + ["t,energy,err_H,err_V,newton_iters"]
                + table_lines(columns))


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
