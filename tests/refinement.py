"""Test-side mesh helpers: a generic edge search and uniform refinement.

The package's builders know their interface facets from their layout. The
tests keep the generic search as a reference for them: `_edge_table` finds
every edge of a conforming triangulation with its elements, and
`_extract_gamma_facets` picks the edges whose endpoints are both interface
nodes. `refine` makes the finer meshes that convergence and pattern tests
use; it rebuilds its facets with the same search.

Tests import it as `from refinement import refine, _edge_table`, which works
under pytest's default import mode and when a test file runs as a script.
"""

import numpy as np

from coreshell.mesh import CORE, CoreShellMesh, GeometryError, _radial_from_nodes


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


def _extract_gamma_facets(nodes, elements, region, gamma_ids, edges, edge_elements):
    """Interface facets are the edges whose endpoints are both interface nodes.

    Returns the mesh's (gamma_facets, facet_elements, facet_normals).
    """
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
    normal /= np.sqrt((normal ** 2).sum(axis=1))[:, None]
    core_centroid = nodes[elements[core_e]].mean(axis=1)
    midpoint = 0.5 * (nodes[ends[:, 0]] + nodes[ends[:, 1]])
    inward = np.einsum("fd,fd->f", normal, core_centroid - midpoint) > 0.0
    normal[inward] *= -1.0
    return ends, np.column_stack([core_e, shell_e]), normal


def _planar_from_arrays(nodes, elements, region, gamma_ids, s_ids, spec_like):
    """Validated planar mesh; gamma_ids and s_ids are sorted node indices."""
    edges, _, edge_elements = _edge_table(elements)
    facets, facet_elements, normals = _extract_gamma_facets(nodes, elements, region, gamma_ids,
                                                            edges, edge_elements)
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
    )
    mesh.validate()
    return mesh


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
        mids[edge] *= (radius / np.sqrt((mids[edge] ** 2).sum(axis=1)))[:, None]

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
