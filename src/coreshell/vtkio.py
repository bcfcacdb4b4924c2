"""Legacy-VTK (ASCII) export of meshes and nodal fields.

Layout, in file order: POINTS (3 components, radial meshes embedded on the
x-axis, planar meshes at z = 0), CELLS/CELL_TYPES (VTK_LINE=3 segments or
VTK_TRIANGLE=5), CELL_DATA with the integer region tag (core=0, shell=1),
then one SCALARS block per nodal field under POINT_DATA. Floats carry 17
significant digits so files round-trip exactly.

The legacy format has no comment syntax; the 256-character title record
carries a compact configuration echo when the caller provides one.
"""

import numpy as np

from .mesh import CoreShellMesh
from .reporting import fmt, write_lines

_VTK_LINE = 3
_VTK_TRIANGLE = 5


def write_vtk(path, mesh: CoreShellMesh, point_data: dict | None = None,
              title: str = "core-shell mesh"):
    """Write a mesh and optional nodal scalar fields as legacy ASCII VTK."""
    lines = ["# vtk DataFile Version 2.0", title[:255], "ASCII",
             "DATASET UNSTRUCTURED_GRID"]

    lines.append(f"POINTS {mesh.n_nodes} double")
    if mesh.kind == "radial":
        for r in mesh.nodes:
            lines.append(f"{fmt(r)} 0 0")
    else:
        for x, y in mesh.nodes:
            lines.append(f"{fmt(x)} {fmt(y)} 0")

    k = mesh.elements.shape[1]
    lines.append(f"CELLS {mesh.n_elements} {mesh.n_elements * (k + 1)}")
    for element in mesh.elements:
        lines.append(f"{k} " + " ".join(str(int(v)) for v in element))
    cell_type = _VTK_LINE if k == 2 else _VTK_TRIANGLE
    lines.append(f"CELL_TYPES {mesh.n_elements}")
    lines.extend([str(cell_type)] * mesh.n_elements)

    lines.append(f"CELL_DATA {mesh.n_elements}")
    lines.append("SCALARS region int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(str(int(tag)) for tag in mesh.region)

    if point_data:
        lines.append(f"POINT_DATA {mesh.n_nodes}")
        for name, values in point_data.items():
            values = np.asarray(values, dtype=float)
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(fmt(v) for v in values)

    write_lines(path, lines)
