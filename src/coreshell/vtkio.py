"""Legacy-VTK (ASCII) export of meshes and nodal fields.

Layout, in file order: POINTS (3 components, radial meshes embedded on the
x-axis, planar meshes at z = 0), CELLS/CELL_TYPES (VTK_LINE=3 segments or
VTK_TRIANGLE=5), CELL_DATA with the integer region tag (core=0, shell=1),
then one SCALARS block per nodal field under POINT_DATA. Floats carry 17
significant digits so files round-trip exactly.

The legacy format has no comment syntax; the 256-character title record
carries a compact configuration echo when the caller provides one.
"""

from .mesh import CoreShellMesh
from .reporting import column_text, coordinate_text, write_lines

_VTK_LINE = 3
_VTK_TRIANGLE = 5


def write_vtk(path, mesh: CoreShellMesh, point_data: dict | None = None,
              title: str = "core-shell mesh"):
    """Write a mesh and optional nodal scalar fields as legacy ASCII VTK."""
    lines = ["# vtk DataFile Version 2.0", title[:255], "ASCII",
             "DATASET UNSTRUCTURED_GRID"]

    coords = coordinate_text(mesh)
    zeros = " 0" * (3 - len(coords))
    lines.append(f"POINTS {mesh.n_nodes} double")
    lines.append((zeros + "\n").join(map(" ".join, zip(*coords))) + zeros)

    m, k = mesh.elements.shape
    lines.append(f"CELLS {m} {m * (k + 1)}")
    lines.append("\n".join([str(k) + " %d" * k] * m) % tuple(mesh.elements.ravel().tolist()))
    lines.append(f"CELL_TYPES {m}")
    lines += [str(_VTK_LINE if k == 2 else _VTK_TRIANGLE)] * m

    lines += [f"CELL_DATA {m}", "SCALARS region int 1", "LOOKUP_TABLE default"]
    lines += column_text(mesh.region)

    if point_data:
        lines.append(f"POINT_DATA {mesh.n_nodes}")
        for name, values in point_data.items():
            lines += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            lines += column_text(values)

    write_lines(path, lines)
