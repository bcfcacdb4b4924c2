"""Seeded benchmark inputs: the verify seed and the smooth `--u0-file` fields.

The same seed gives the same verify seed and byte-identical CSVs. The field
is a random combination of the low modes cos(k pi r / (2 r2)) cos(j theta),
k = 1..3, j = 0..2 (theta = 0 on radial meshes), scaled into [0, c0], with
the outer-boundary (Dirichlet) entries set to zero. Coordinates come from the
package's own mesher, so the file matches the mesh the CLI builds.
"""

import numpy as np


def verify_seed(seed: int) -> int:
    return int(np.random.default_rng([seed, 1]).integers(1, 2**31 - 1))


def low_mode_field(mesh, c0: float, seed: int) -> np.ndarray:
    coeffs = np.random.default_rng([seed, 0]).standard_normal((3, 3))
    r = np.asarray(mesh.node_radii(), dtype=float)
    if mesh.kind == "radial":
        theta = np.zeros_like(r)
    else:
        theta = np.arctan2(mesh.nodes[:, 1], mesh.nodes[:, 0])
    f = np.zeros_like(r)
    for k in range(1, 4):
        radial = np.cos(k * np.pi * r / (2.0 * mesh.r2))
        for j in range(3):
            f += coeffs[k - 1, j] * radial * np.cos(j * theta)
    u = c0 * (f - f.min()) / (f.max() - f.min())
    u[mesh.dirichlet_mask()] = 0.0
    return u


def write_field(path, mesh, values):
    """Same CSV layout `coreshell stationary` writes: (r, u) or (x, y, u)."""
    if mesh.kind == "radial":
        rows = ["r,u"] + [f"{r!r},{v!r}" for r, v in zip(mesh.nodes.tolist(), values.tolist())]
    else:
        rows = ["x,y,u"] + [f"{x!r},{y!r},{v!r}"
                            for (x, y), v in zip(mesh.nodes.tolist(), values.tolist())]
    with open(path, "w", newline="\n") as handle:
        handle.write("\n".join(rows) + "\n")
