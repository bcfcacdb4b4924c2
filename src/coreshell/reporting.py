"""Deterministic CSV, text and legacy-VTK outputs.

All floats are printed with 17 significant digits so that values round-trip
exactly, files have LF line endings, CSV files use a header row, and every
CSV and text file embeds the resolved configuration as leading '#' comment
lines for provenance. Legacy VTK has no comment syntax; its 256-character
title record carries a compact configuration echo instead.
"""

import weakref

import numpy as np

from .analysis import DecayReport
from .mesh import CoreShellMesh
from .solvers import EvolutionTrace


_FLOAT = "%.17g"
_VTK_LINE = 3
_VTK_TRIANGLE = 5


def fmt(x) -> str:
    return _FLOAT % float(x)


def column_text(values) -> list:
    """Each value of a numeric column as `fmt` prints it.

    Integer columns print with %d, which gives the same text for them.
    """
    values = np.asarray(values)
    if values.dtype.kind in "iu":
        return list(map(str, values.tolist()))
    return list(map(_FLOAT.__mod__, values.astype(float).tolist()))


def table_lines(columns):
    """One line per row of equal-length numeric columns, `column_text` values joined by commas.

    Raises ValueError if the columns differ in length.
    """
    return list(map(",".join, zip(*map(column_text, columns), strict=True)))


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
        _write_section(handle, lines)


def _write_section(handle, lines):
    """Write lines to an open text file, each ended by LF; the text is
    joined once and not copied again for its last newline."""
    handle.write("\n".join(lines))
    handle.write("\n")


def comment_block(echo_lines) -> list:
    return [f"# {line}" if line else "#" for line in echo_lines]


def write_field_csv(path, mesh: CoreShellMesh, values, echo_lines=()):
    """Nodal field as CSV: columns (r, u) for radial meshes, (x, y, u) planar."""
    header = "r,u" if mesh.kind == "radial" else "x,y,u"
    rows = map(",".join, zip(*coordinate_text(mesh), column_text(values), strict=True))
    write_lines(path, comment_block(echo_lines) + [header, *rows])


def read_field_csv(path, mesh: CoreShellMesh) -> np.ndarray:
    """Load a nodal field written by write_field_csv, checking the mesh matches.

    '#' comment lines and blank lines before the first data row are skipped;
    the first other line is the header if it does not parse as numbers.
    From the first data row on, one `np.loadtxt` call reads the file: '#'
    starts a comment, empty lines are skipped, and every other line is a
    data row, so a row that starts with nan or inf is read as one.
    """
    skip, header = 0, False
    with open(path) as handle:
        for line in handle:
            if line.strip() and not line.lstrip().startswith("#"):
                if header or _parses_as_numbers(line):
                    break
                header = True
            skip += 1
        else:
            raise ValueError(f"field file has 0 rows, mesh has {mesh.n_nodes} nodes")
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
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


def _parses_as_numbers(line) -> bool:
    try:
        list(map(float, line.split("#", 1)[0].split(",")))
    except ValueError:
        return False
    return True


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


def write_vtk(path, mesh: CoreShellMesh, point_data: dict | None = None,
              title: str = "core-shell mesh"):
    """Write a mesh and optional nodal scalar fields as legacy ASCII VTK: POINTS
    (radial meshes on the x-axis, planar at z = 0), CELLS, CELL_TYPES, the
    region tag (core=0, shell=1) as CELL_DATA, then each field under POINT_DATA."""
    coords = coordinate_text(mesh)
    zeros = " 0" * (3 - len(coords))
    m, k = mesh.elements.shape
    cell_type = _VTK_LINE if k == 2 else _VTK_TRIANGLE
    # each section is written as it is formed, so the file's text never
    # exists at once
    with open(path, "w", newline="\n") as handle:
        handle.write(f"# vtk DataFile Version 2.0\n{title[:255]}\nASCII\n"
                     f"DATASET UNSTRUCTURED_GRID\nPOINTS {mesh.n_nodes} double\n")
        handle.write((zeros + "\n").join(map(" ".join, zip(*coords))))
        handle.write(f"{zeros}\nCELLS {m} {m * (k + 1)}\n")
        handle.write("\n".join([str(k) + " %d" * k] * m) % tuple(mesh.elements.ravel().tolist()))
        handle.write(f"\nCELL_TYPES {m}\n" + f"{cell_type}\n" * m)
        handle.write(f"CELL_DATA {m}\nSCALARS region int 1\nLOOKUP_TABLE default\n")
        _write_section(handle, column_text(mesh.region))
        if point_data:
            handle.write(f"POINT_DATA {mesh.n_nodes}\n")
            for name, values in point_data.items():
                handle.write(f"SCALARS {name} double 1\nLOOKUP_TABLE default\n")
                _write_section(handle, column_text(values))
