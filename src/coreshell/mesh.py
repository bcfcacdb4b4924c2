"""Interface-fitted core-shell meshes.

Two deterministic builders are provided: a 1D radial mesh of [0, r2] for the
spherically symmetric reduction (volume weight r^(N-1) applied at assembly
time), and a structured polar triangulation of the disc of radius r2 whose
edge set contains an inscribed polygon of the interface circle r = r1. Each
builder takes the interface facets, their elements and normals from its own
layout; uniform refinement is a test helper (`tests/refinement.py`).

Meshes are immutable once built (arrays are write-protected) and can be
shared freely across threads.
"""

import math
from dataclasses import dataclass, field

import numpy as np

CORE = 0
SHELL = 1

_TOL = 1e-12

# Largest node count that `build_mesh` builds, checked before any array is allocated.
MAX_NODES = 10**6
# Largest spatial dimension N. The radial mass rule takes N // 2 + 2 Gauss
# points, whose construction costs memory quadratic and time cubic in N.
MAX_DIMENSION = 1024


class GeometryError(ValueError):
    """Geometry specification or mesh violates an invariant."""


@dataclass(frozen=True)
class GeometrySpec:
    """Core-shell geometry request.

    kind      : "radial" (any dimension >= 2) or "planar2d" (dimension == 2)
    dimension : spatial dimension N, at most MAX_DIMENSION; sets the r^(N-1)
                weight of radial meshes
    r1, r2    : core and outer radii, 0 < r1 < r2
    h         : target mesh size, > 0
    """

    kind: str
    dimension: int
    r1: float
    r2: float
    h: float

    def __post_init__(self):
        if self.kind not in ("radial", "planar2d"):
            raise GeometryError(f"unknown geometry kind {self.kind!r}")
        if self.dimension < 2:
            raise GeometryError(f"dimension must be >= 2, got {self.dimension}")
        if self.dimension > MAX_DIMENSION:
            raise GeometryError(f"dimension {self.dimension} is above the limit {MAX_DIMENSION}")
        if self.kind == "planar2d" and self.dimension != 2:
            raise GeometryError("planar2d geometry fixes dimension = 2")
        if not 0.0 < self.r1:
            raise GeometryError(f"core radius r1 must be positive, got {self.r1}")
        if not self.r1 < self.r2:
            raise GeometryError(f"radii must satisfy r1 < r2, got r1={self.r1}, r2={self.r2}")
        if not self.h > 0.0:
            raise GeometryError(f"target mesh size h must be positive, got {self.h}")


@dataclass(eq=False)
class CoreShellMesh:
    """Conforming mesh with per-element region tags and marked boundaries.

    nodes    : (n,) radii for radial meshes, (n, 2) coordinates for planar ones
    elements : (m, 2) segments or (m, 3) triangles (CCW), vertex indices
    region   : (m,) tags, CORE or SHELL; no element straddles the interface
    s_nodes  : node indices on the outer boundary (the Dirichlet set)
    gamma_nodes : node indices on the interface polygon / interface point
    gamma_facets   : (F, k - 1) node indices of each interface facet (a node
                     in 1D, an edge in 2D)
    facet_elements : (F, 2) core and shell element of each facet
    facet_normals  : (F, d) unit normal of each facet, pointing from the core
                     element toward the shell element
    sectors  : rotation-invariant layout marker set by the builders: n > 0 means
               node 0 is the center and then rings of n nodes follow in
               ring-major order, every ring with the same element pattern
               and the last ring the outer boundary (radial chains: n = 1);
               0 means no such layout

    Set at construction from the arrays above:
    measures  : (m,) segment lengths or triangle areas (CCW vertex order)
    gradients : (m, k, d) gradient of each vertex's hat function:
                (-1/h, 1/h) on segments, (by, cx) / (2 area) on triangles
                with by_a = y_(a+1) - y_(a+2), cx_a = x_(a+2) - x_(a+1)

    Raises GeometryError if an element has a non-positive measure. Meshes
    compare and hash by identity, so derived data can be kept per mesh.
    """

    kind: str
    dimension: int
    r1: float
    r2: float
    nodes: np.ndarray
    elements: np.ndarray
    region: np.ndarray
    s_nodes: np.ndarray
    gamma_nodes: np.ndarray
    gamma_facets: np.ndarray
    facet_elements: np.ndarray
    facet_normals: np.ndarray
    sectors: int = 0
    measures: np.ndarray = field(init=False)
    gradients: np.ndarray = field(init=False)

    def __post_init__(self):
        # gradients holds measure * gradient until the measures are checked
        if self.kind == "radial":
            measures = self.nodes[self.elements[:, 1]] - self.nodes[self.elements[:, 0]]
            gradients = np.tile([[-1.0], [1.0]], (self.elements.shape[0], 1, 1))
        else:
            # (by_a, cx_a) of each vertex a, then the area from two of them
            gradients = np.empty(self.elements.shape + (2,))
            for a in range(3):
                after, before = self.elements[:, (a + 1) % 3], self.elements[:, (a + 2) % 3]
                np.subtract(self.nodes[after, 1], self.nodes[before, 1], out=gradients[:, a, 0])
                np.subtract(self.nodes[before, 0], self.nodes[after, 0], out=gradients[:, a, 1])
            measures = 0.5 * (gradients[:, 2, 1] * gradients[:, 1, 0]
                              - gradients[:, 2, 0] * gradients[:, 1, 1])
            gradients *= 0.5
        if np.any(measures <= 0.0):
            bad = int(np.argmin(measures))
            raise GeometryError(f"element {bad} has non-positive measure {measures[bad]}")
        gradients /= measures[:, None, None]
        self.measures = measures
        self.gradients = gradients
        for arr in (self.nodes, self.elements, self.region, self.s_nodes, self.gamma_nodes,
                    self.gamma_facets, self.facet_elements, self.facet_normals,
                    self.measures, self.gradients):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def node_radii(self) -> np.ndarray:
        if self.kind == "radial":
            return self.nodes
        return np.sqrt(self.nodes[:, 0] ** 2 + self.nodes[:, 1] ** 2)

    def dirichlet_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_nodes, dtype=bool)
        mask[self.s_nodes] = True
        return mask

    @property
    def tolerance(self) -> float:
        """Distance within which a node counts as lying on a circle."""
        return _TOL * self.r2 * max(1.0, self.n_nodes)

    def validate(self):
        """Raise GeometryError if any mesh invariant is broken."""
        radii = self.node_radii()
        tol = self.tolerance
        if np.any(np.abs(radii[self.s_nodes] - self.r2) > tol):
            raise GeometryError("an outer-boundary node is not at distance r2")
        if np.any(np.abs(radii[self.gamma_nodes] - self.r1) > tol):
            raise GeometryError("an interface node is not at distance r1")
        # Interface-fitted: element vertices never lie strictly on both sides.
        r_e = radii[self.elements]
        core = self.region == CORE
        straddles = np.where(core, np.any(r_e > self.r1 + tol, axis=1),
                             np.any(r_e < self.r1 - tol, axis=1))
        if np.any(straddles):
            e = int(np.argmax(straddles))
            if core[e]:
                raise GeometryError(f"core element {e} has a vertex outside r1")
            raise GeometryError(f"shell element {e} has a vertex inside r1")
        if len(self.gamma_facets) == 0:
            raise GeometryError("mesh has no interface facets")
        if np.any(self.region[self.facet_elements] != (CORE, SHELL)):
            raise GeometryError("interface facet is not shared by one core and one shell element")


# ----------------------------------------------------------------------------
# radial meshes
# ----------------------------------------------------------------------------


def _radial_from_nodes(nodes: np.ndarray, spec_like) -> CoreShellMesh:
    r1, r2 = spec_like.r1, spec_like.r2
    n = nodes.shape[0]
    elements = np.column_stack([np.arange(n - 1), np.arange(1, n)])
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    region = np.where(mids < r1, CORE, SHELL).astype(np.int64)
    i_gamma = int(np.searchsorted(nodes, r1))
    if nodes[i_gamma] != r1:
        raise GeometryError("radial mesh is missing the interface node at r1")
    return CoreShellMesh(
        kind="radial",
        dimension=spec_like.dimension,
        r1=r1,
        r2=r2,
        nodes=nodes,
        elements=elements,
        region=region,
        s_nodes=np.array([n - 1], dtype=np.int64),
        gamma_nodes=np.array([i_gamma], dtype=np.int64),
        gamma_facets=np.array([[i_gamma]], dtype=np.int64),
        facet_elements=np.array([[i_gamma - 1, i_gamma]], dtype=np.int64),
        facet_normals=np.array([[1.0]]),
        sectors=1,
    )


def _cell_counts(spec: GeometrySpec):
    """Cells in the core and in the shell, with spacing <= h in each."""
    return (max(1, math.ceil(spec.r1 / spec.h - _TOL)),
            max(1, math.ceil((spec.r2 - spec.r1) / spec.h - _TOL)))


def _sector_count(spec: GeometrySpec):
    return max(8, math.ceil(2.0 * math.pi * spec.r2 / spec.h))


def _radii(spec: GeometrySpec):
    """Partition of [0, r2] with spacing <= h per region: (radii, n_core),
    where radii[n_core] is r1 exactly."""
    n_core, n_shell = _cell_counts(spec)
    radii = np.concatenate([
        np.linspace(0.0, spec.r1, n_core + 1),
        np.linspace(spec.r1, spec.r2, n_shell + 1)[1:],
    ])
    radii[n_core] = spec.r1  # exact, independent of linspace rounding
    return radii, n_core


def build_radial_mesh(spec: GeometrySpec) -> CoreShellMesh:
    """Partition [0, r2] with a node forced at r1 and spacing <= h per region.

    The center r = 0 carries no Dirichlet mask; the natural condition
    u'(0) = 0 holds weakly through the r^(N-1) volume weight.
    """
    if spec.kind != "radial":
        raise GeometryError(f"build_radial_mesh requires kind='radial', got {spec.kind!r}")
    return _radial_from_nodes(_radii(spec)[0], spec)


# ----------------------------------------------------------------------------
# planar annulus-in-disc meshes
# ----------------------------------------------------------------------------


def build_annulus_mesh(spec: GeometrySpec) -> CoreShellMesh:
    """Structured polar triangulation of the disc with a fitted interface ring.

    Rings x sectors layout: concentric node rings at the core/shell
    subdivision radii (one ring exactly at r1), a constant sector count, a
    center fan, and two CCW triangles per quad between consecutive rings.
    Region tags come from the ring bands: the fan is band 0 and the quads
    between rings k and k + 1 are band k + 1; the bands inside the
    interface ring are the core, however thin the shell. The circles are
    represented by their inscribed polygons.
    """
    if spec.kind != "planar2d":
        raise GeometryError(f"build_annulus_mesh requires kind='planar2d', got {spec.kind!r}")
    n_sectors = _sector_count(spec)
    radii, n_ring_core = _radii(spec)
    ring_radii = radii[1:]
    n_rings = ring_radii.shape[0]

    angles = 2.0 * math.pi * np.arange(n_sectors) / n_sectors
    nodes = np.zeros((1 + n_rings * n_sectors, 2))
    nodes[1:, 0] = np.outer(ring_radii, np.cos(angles)).ravel()
    nodes[1:, 1] = np.outer(ring_radii, np.sin(angles)).ravel()

    # ring_node[k, s]: node s of ring k; next_node[k, s]: its CCW neighbour.
    ring_node = 1 + n_sectors * np.arange(n_rings)[:, None] + np.arange(n_sectors)
    next_node = np.roll(ring_node, -1, axis=1)
    fan = np.column_stack([np.zeros(n_sectors, dtype=np.int64), ring_node[0], next_node[0]])
    v00, v01, v10, v11 = ring_node[:-1], next_node[:-1], ring_node[1:], next_node[1:]
    quads = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    elements = np.concatenate([fan, quads], dtype=np.int64)

    band = np.repeat(np.arange(n_rings), [n_sectors] + [2 * n_sectors] * (n_rings - 1))
    region = np.where(band < n_ring_core, CORE, SHELL).astype(np.int64)
    del quads, band  # freed before the mesh forms its gradient table

    # The interface facets are the edges of ring k, the interface ring: edge
    # s has the core triangle of sector s below it (in the fan when k = 0)
    # and the shell triangle of sector s above it. Rows are (low, high) in
    # key order.
    k, s = n_ring_core - 1, np.arange(n_sectors)
    core_e = s if k == 0 else n_sectors * (2 * k - 1) + 2 * s
    shell_e = n_sectors * (2 * k + 1) + 2 * s + 1
    tangent = nodes[next_node[k]] - nodes[ring_node[k]]  # CCW, so the normal points out
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    normal /= np.sqrt((normal ** 2).sum(axis=1))[:, None]
    facets = np.sort(np.column_stack([ring_node[k], next_node[k]]), axis=1)
    order = np.argsort(facets[:, 0] * nodes.shape[0] + facets[:, 1])

    mesh = CoreShellMesh(
        kind="planar2d",
        dimension=2,
        r1=spec.r1,
        r2=spec.r2,
        nodes=nodes,
        elements=elements,
        region=region,
        s_nodes=ring_node[-1],
        gamma_nodes=ring_node[k],
        gamma_facets=facets[order],
        facet_elements=np.column_stack([core_e, shell_e])[order],
        facet_normals=normal[order],
        sectors=n_sectors,
    )
    mesh.validate()
    return mesh


def build_mesh(spec: GeometrySpec) -> CoreShellMesh:
    """Mesh of a geometry. Raises GeometryError when extreme radii make the
    mesh arithmetic overflow or divide by zero, instead of warning, and when
    the mesh would have more than MAX_NODES nodes."""
    builder = build_radial_mesh if spec.kind == "radial" else build_annulus_mesh
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            # the center, then one ring of nodes (one node when radial) per cell
            n_nodes = 1 + sum(_cell_counts(spec)) * (
                1 if spec.kind == "radial" else _sector_count(spec))
            if n_nodes > MAX_NODES:
                raise GeometryError(f"geometry r1={spec.r1:g}, r2={spec.r2:g}, h={spec.h:g} "
                                    f"needs {n_nodes} mesh nodes, above the limit {MAX_NODES}")
            return builder(spec)
    except (FloatingPointError, OverflowError) as exc:
        raise GeometryError(f"geometry r1={spec.r1:g}, r2={spec.r2:g}, h={spec.h:g} is out "
                            f"of floating-point range ({exc})") from None
