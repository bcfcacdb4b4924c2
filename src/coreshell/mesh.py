"""Interface-fitted core-shell meshes.

Two deterministic builders are provided: a 1D radial mesh of [0, r2] for the
spherically symmetric reduction (volume weight r^(N-1) applied at assembly
time), and a structured polar triangulation of the disc of radius r2 whose
edge set contains an inscribed polygon of the interface circle r = r1.

Meshes are immutable once built (arrays are write-protected) and can be
shared freely across threads.
"""

import math
from dataclasses import dataclass, field

import numpy as np

CORE = 0
SHELL = 1

_TOL = 1e-12


class GeometryError(ValueError):
    """Geometry specification or mesh violates an invariant."""


@dataclass(frozen=True)
class GeometrySpec:
    """Core-shell geometry request.

    kind      : "radial" (any dimension >= 2) or "planar2d" (dimension == 2)
    dimension : spatial dimension N; sets the r^(N-1) weight of radial meshes
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
        if self.kind == "planar2d" and self.dimension != 2:
            raise GeometryError("planar2d geometry fixes dimension = 2")
        if not 0.0 < self.r1:
            raise GeometryError(f"core radius r1 must be positive, got {self.r1}")
        if not self.r1 < self.r2:
            raise GeometryError(f"radii must satisfy r1 < r2, got r1={self.r1}, r2={self.r2}")
        if not self.h > 0.0:
            raise GeometryError(f"target mesh size h must be positive, got {self.h}")


@dataclass
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

    Raises GeometryError if an element has a non-positive measure.
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
        p = self.nodes[self.elements]
        if self.kind == "radial":
            measures = p[:, 1] - p[:, 0]
            scaled = np.array([[-1.0], [1.0]])  # measure * gradient
        else:
            x, y = p[..., 0], p[..., 1]
            by = np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1)
            cx = np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)
            measures = 0.5 * (cx[:, 2] * by[:, 1] - by[:, 2] * cx[:, 1])
            scaled = 0.5 * np.stack([by, cx], axis=2)
        if np.any(measures <= 0.0):
            bad = int(np.argmin(measures))
            raise GeometryError(f"element {bad} has non-positive measure {measures[bad]}")
        self.measures = measures
        self.gradients = scaled / measures[:, None, None]
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

    def validate(self):
        """Raise GeometryError if any mesh invariant is broken."""
        radii = self.node_radii()
        tol = _TOL * self.r2 * max(1.0, self.n_nodes)
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


def _radii(spec: GeometrySpec):
    """Partition of [0, r2] with spacing <= h per region: (radii, n_core),
    where radii[n_core] is r1 exactly."""
    n_core = max(1, math.ceil(spec.r1 / spec.h - _TOL))
    n_shell = max(1, math.ceil((spec.r2 - spec.r1) / spec.h - _TOL))
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


def _edge_table(elements: np.ndarray):
    """Edge incidence of a conforming triangulation, as three arrays.

    edges         : (E, 2) node pairs (low, high) in lexicographic order
    element_edges : (m, 3) edge index of each element's local edges
                    (v0 v1), (v1 v2), (v2 v0)
    edge_elements : (E, 2) elements touching each edge, in element order;
                    -1 in the second column for a boundary edge
    """
    pairs = np.sort(elements[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 3, 2), axis=2)
    n = int(elements.max()) + 1
    keys, slot, count = np.unique(pairs[..., 0] * n + pairs[..., 1],
                                  return_inverse=True, return_counts=True)
    if np.any(count > 2):
        raise GeometryError("an edge is shared by more than two elements")
    by_edge = np.argsort(slot.ravel(), kind="stable") // 3
    first = np.cumsum(count) - count
    second = np.where(count == 2, by_edge[first + count - 1], -1)
    return (np.column_stack([keys // n, keys % n]), slot.reshape(-1, 3),
            np.column_stack([by_edge[first], second]))


def _extract_gamma_facets(nodes, elements, region, gamma_ids):
    """Interface facets are the edges whose endpoints are both interface nodes.

    Returns the mesh's (gamma_facets, facet_elements, facet_normals).
    """
    edges, _, edge_elements = _edge_table(elements)
    facet = np.flatnonzero(np.isin(edges, gamma_ids).all(axis=1))
    ends, pair = edges[facet], edge_elements[facet]
    tags = region[pair]
    bad = (pair[:, 1] < 0) | (tags[:, 0] == tags[:, 1])
    if np.any(bad):
        a, b = ends[np.argmax(bad)]
        raise GeometryError(f"interface edge ({a},{b}) is not shared by a core and a shell element")
    core_first = tags[:, 0] == CORE
    core_e = np.where(core_first, pair[:, 0], pair[:, 1])
    shell_e = np.where(core_first, pair[:, 1], pair[:, 0])

    tangent = nodes[ends[:, 1]] - nodes[ends[:, 0]]
    normal = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    normal /= np.linalg.norm(normal, axis=1)[:, None]
    core_centroid = nodes[elements[core_e]].mean(axis=1)
    midpoint = 0.5 * (nodes[ends[:, 0]] + nodes[ends[:, 1]])
    inward = np.einsum("fd,fd->f", normal, core_centroid - midpoint) > 0.0
    normal[inward] *= -1.0
    return ends, np.column_stack([core_e, shell_e]), normal


def _planar_from_arrays(nodes, elements, region, gamma_ids, s_ids, spec_like, sectors=0):
    """Validated planar mesh; gamma_ids and s_ids are sorted node indices."""
    facets, facet_elements, normals = _extract_gamma_facets(nodes, elements, region, gamma_ids)
    mesh = CoreShellMesh(
        kind="planar2d",
        dimension=2,
        r1=spec_like.r1,
        r2=spec_like.r2,
        nodes=nodes,
        elements=elements,
        region=region,
        s_nodes=s_ids,
        gamma_nodes=gamma_ids,
        gamma_facets=facets,
        facet_elements=facet_elements,
        facet_normals=normals,
        sectors=sectors,
    )
    mesh.validate()
    return mesh


def build_annulus_mesh(spec: GeometrySpec) -> CoreShellMesh:
    """Structured polar triangulation of the disc with a fitted interface ring.

    Rings x sectors layout: concentric node rings at the core/shell
    subdivision radii (one ring exactly at r1), a constant sector count, a
    center fan, and two CCW triangles per quad between consecutive rings.
    Region tags come from centroid radii; the circles are represented by
    their inscribed polygons.
    """
    if spec.kind != "planar2d":
        raise GeometryError(f"build_annulus_mesh requires kind='planar2d', got {spec.kind!r}")
    n_sectors = max(8, math.ceil(2.0 * math.pi * spec.r2 / spec.h))
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
    elements = np.concatenate([fan, quads]).astype(np.int64)

    centroids = nodes[elements].mean(axis=1)
    centroid_radii = np.sqrt(centroids[:, 0] ** 2 + centroids[:, 1] ** 2)
    region = np.where(centroid_radii < spec.r1, CORE, SHELL).astype(np.int64)

    return _planar_from_arrays(nodes, elements, region, ring_node[n_ring_core - 1],
                               ring_node[-1], spec, sectors=n_sectors)


def build_mesh(spec: GeometrySpec) -> CoreShellMesh:
    """Mesh of a geometry. Raises GeometryError when extreme radii make the
    mesh arithmetic overflow or divide by zero, instead of warning."""
    builder = build_radial_mesh if spec.kind == "radial" else build_annulus_mesh
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return builder(spec)
    except FloatingPointError as exc:
        raise GeometryError(f"geometry r1={spec.r1:g}, r2={spec.r2:g}, h={spec.h:g} is out "
                            f"of floating-point range ({exc})") from None


# ----------------------------------------------------------------------------
# uniform refinement
# ----------------------------------------------------------------------------


def refine(mesh: CoreShellMesh) -> CoreShellMesh:
    """Uniform refinement: 1D bisection, 2D red refinement.

    Region tags and boundary markers are inherited. New nodes created on
    interface or outer-boundary edges are projected onto the respective
    circle, so the interface stays an inscribed polygon at every level.
    """
    if mesh.kind == "radial":
        old = mesh.nodes
        mids = 0.5 * (old[:-1] + old[1:])
        nodes = np.sort(np.concatenate([old, mids]))
        return _radial_from_nodes(nodes, mesh)

    n_old = mesh.n_nodes
    ends, element_edges, edge_elements = _edge_table(mesh.elements)
    mids = 0.5 * (mesh.nodes[ends[:, 0]] + mesh.nodes[ends[:, 1]])
    gamma_edge = np.isin(ends, mesh.gamma_nodes).all(axis=1)
    s_edge = (edge_elements[:, 1] < 0) & mesh.dirichlet_mask()[ends].all(axis=1)
    # New interface / outer-boundary midpoints move onto their circles.
    for edge, radius in ((gamma_edge, mesh.r1), (s_edge, mesh.r2)):
        mids[edge] *= (radius / np.linalg.norm(mids[edge], axis=1))[:, None]

    a, b, c = mesh.elements.T
    mab, mbc, mca = (n_old + element_edges).T
    children = np.stack([
        np.column_stack([a, mab, mca]),
        np.column_stack([mab, b, mbc]),
        np.column_stack([mca, mbc, c]),
        np.column_stack([mab, mbc, mca]),
    ], axis=1)

    return _planar_from_arrays(
        np.concatenate([mesh.nodes, mids]),
        children.reshape(-1, 3),
        np.repeat(mesh.region, 4),
        np.concatenate([mesh.gamma_nodes, n_old + np.flatnonzero(gamma_edge)]),
        np.concatenate([mesh.s_nodes, n_old + np.flatnonzero(s_edge)]),
        mesh,
    )
