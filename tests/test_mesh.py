import dataclasses
import math

import numpy as np
import pytest

from coreshell import (
    CORE,
    SHELL,
    GeometryError,
    GeometrySpec,
    build_annulus_mesh,
    build_mesh,
    build_radial_mesh,
)
from coreshell.reporting import write_vtk

from refinement import _edge_table, _extract_gamma_facets, refine


class TestGeometrySpec:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kind="radial", dimension=3, r1=1.0, r2=1.0, h=0.1),
            dict(kind="radial", dimension=3, r1=1.5, r2=1.0, h=0.1),
            dict(kind="radial", dimension=3, r1=-0.5, r2=1.0, h=0.1),
            dict(kind="radial", dimension=1, r1=0.5, r2=1.0, h=0.1),
            dict(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.0),
            dict(kind="planar2d", dimension=3, r1=0.5, r2=1.0, h=0.1),
            dict(kind="sphere", dimension=3, r1=0.5, r2=1.0, h=0.1),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(GeometryError):
            GeometrySpec(**kwargs)

    def test_radial_allows_any_dimension(self):
        GeometrySpec(kind="radial", dimension=5, r1=0.5, r2=1.0, h=0.1)


class TestRadialMesh:
    def test_uniform_partition_with_interface(self):
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.25))
        assert np.array_equal(mesh.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert int(np.sum(mesh.region == CORE)) == 2
        assert int(np.sum(mesh.region == SHELL)) == 2

    def test_interface_node_forced(self):
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.3, r2=1.0, h=0.5))
        assert 0.3 in mesh.nodes

    def test_partition_property(self):
        for h in (0.3, 0.177, 0.05):
            mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=2, r1=0.4, r2=1.3, h=h))
            assert mesh.measures.sum() == pytest.approx(1.3, abs=1e-14)
            mesh.validate()

    def test_center_not_masked(self):
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.25))
        mask = mesh.dirichlet_mask()
        assert not mask[0]
        assert mask[mesh.n_nodes - 1]
        assert mask.sum() == 1

    def test_refine_bisects_and_keeps_interface(self):
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.25))
        fine = refine(mesh)
        assert fine.n_elements == 8
        assert 0.5 in fine.nodes
        fine.validate()

    def test_refine_idempotent_validity(self):
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.37, r2=1.1, h=0.2))
        for _ in range(3):
            mesh = refine(mesh)
            mesh.validate()


@pytest.fixture(scope="module")
def coarse():
    return build_annulus_mesh(GeometrySpec(kind="planar2d", dimension=2, r1=0.5, r2=1.0, h=0.35))


class TestAnnulusMesh:

    def test_area_partition_identity(self, coarse):
        # triangles exactly tile the inscribed polygon of the outer circle
        m = len({tuple(f) for f in coarse.gamma_facets})
        n_sectors = m
        poly = 0.5 * n_sectors * coarse.r2**2 * math.sin(2 * math.pi / n_sectors)
        assert coarse.measures.sum() == pytest.approx(poly, rel=1e-13)
        core_poly = 0.5 * n_sectors * coarse.r1**2 * math.sin(2 * math.pi / n_sectors)
        core_area = coarse.measures[coarse.region == CORE].sum()
        assert core_area == pytest.approx(core_poly, rel=1e-13)

    def test_gamma_orientation_contract(self, coarse):
        # the core element lies on the side opposite to the facet normal
        for facet, (core_element, shell_element), nu in zip(
                coarse.gamma_facets, coarse.facet_elements, coarse.facet_normals):
            mid = coarse.nodes[facet].mean(axis=0)
            core_c = coarse.nodes[coarse.elements[core_element]].mean(axis=0)
            shell_c = coarse.nodes[coarse.elements[shell_element]].mean(axis=0)
            assert float(nu @ (core_c - mid)) < 0.0
            assert float(nu @ (shell_c - mid)) > 0.0
            assert coarse.region[core_element] == CORE
            assert coarse.region[shell_element] == SHELL

    def test_refinement_doubles_gamma_facets(self, coarse):
        fine = refine(coarse)
        assert len(fine.gamma_facets) == 2 * len(coarse.gamma_facets)

    def test_red_refinement_quadruples(self, coarse):
        fine = refine(coarse)
        assert fine.n_elements == 4 * coarse.n_elements
        for tag in (CORE, SHELL):
            assert int(np.sum(fine.region == tag)) == 4 * int(np.sum(coarse.region == tag))

    def test_refined_boundary_on_circle(self, coarse):
        fine = refine(coarse)
        radii = fine.node_radii()
        assert np.max(np.abs(radii[fine.s_nodes] - fine.r2)) < 1e-12
        assert np.max(np.abs(radii[fine.gamma_nodes] - fine.r1)) < 1e-12

    def test_positive_areas_after_refinements(self, coarse):
        mesh = coarse
        for _ in range(2):
            mesh = refine(mesh)
            assert np.all(mesh.measures > 0.0)
            mesh.validate()

    def test_inverted_element_rejected_at_construction(self, coarse):
        elements = coarse.elements.copy()
        elements[7, [1, 2]] = elements[7, [2, 1]]
        with pytest.raises(GeometryError, match="element 7 has non-positive measure"):
            dataclasses.replace(coarse, elements=elements)

    def test_interface_fitted(self, coarse):
        radii = coarse.node_radii()
        for e in range(coarse.n_elements):
            r_e = radii[coarse.elements[e]]
            if coarse.region[e] == CORE:
                assert np.all(r_e <= coarse.r1 + 1e-12)
            else:
                assert np.all(r_e >= coarse.r1 - 1e-12)

    def test_sector_layout_marker(self, coarse):
        # Rings of `sectors` nodes after the center, the last one the boundary.
        sectors = len(coarse.gamma_facets)
        assert coarse.sectors == sectors
        assert (coarse.n_nodes - 1) % sectors == 0
        assert np.array_equal(coarse.s_nodes, np.arange(coarse.n_nodes - sectors, coarse.n_nodes))
        assert refine(coarse).sectors == 0
        radial = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.25))
        assert radial.sectors == refine(radial).sectors == 1

    # Shells thinner than a chord's sagitta: a shell triangle with two
    # vertices on the interface ring has its centroid inside r1, so tags from
    # centroid radii put it in the core and the interface edge had no shell
    # element ("interface edge ... is not shared by a core and a shell element").
    @pytest.mark.parametrize("h, r1", [(0.35, 0.97), (0.1, 0.999), (0.05, 0.9995),
                                       (0.025, 0.9998)])
    def test_thin_shell_builds(self, h, r1):
        mesh = build_mesh(GeometrySpec(kind="planar2d", dimension=2, r1=r1, r2=1.0, h=h))
        mesh.validate()
        # one band of quads between the interface ring and the boundary ring
        shell = np.flatnonzero(mesh.region == SHELL)
        assert np.array_equal(shell, np.arange(mesh.n_elements - 2 * mesh.sectors,
                                               mesh.n_elements))
        assert np.all(mesh.region[mesh.facet_elements] == (CORE, SHELL))

    # Where the shell is thicker than the sagitta, the band tags equal the
    # tags from centroid radii.
    @pytest.mark.parametrize("h, r1", [(0.35, 0.5), (0.1, 1e-10), (0.1, 0.99), (0.05, 0.999)])
    def test_band_regions_match_centroid_radii(self, h, r1):
        mesh = build_mesh(GeometrySpec(kind="planar2d", dimension=2, r1=r1, r2=1.0, h=h))
        centroids = mesh.nodes[mesh.elements].mean(axis=1)
        inside = np.sqrt((centroids ** 2).sum(axis=1)) < r1
        assert np.array_equal(mesh.region, np.where(inside, CORE, SHELL))

    # The builder names the interface facets from its ring layout; the
    # generic edge search over the same elements is the reference. r1 = 1e-10
    # and 0.05 have one core ring (the fan branch), r1 = 0.999 a thin shell.
    @pytest.mark.parametrize("h, r1", [(0.35, 0.5), (0.25, 0.5), (0.1, 0.5), (0.025, 0.5),
                                       (0.0125, 0.5), (0.1, 1e-10), (0.1, 0.05), (0.1, 0.999)])
    def test_facets_match_the_edge_search(self, h, r1):
        mesh = build_mesh(GeometrySpec(kind="planar2d", dimension=2, r1=r1, r2=1.0, h=h))
        edges, _, edge_elements = _edge_table(mesh.elements)
        facets, facet_elements, normals = _extract_gamma_facets(
            mesh.nodes, mesh.elements, mesh.region, mesh.gamma_nodes, edges, edge_elements)
        assert np.array_equal(mesh.gamma_facets, facets)
        assert np.array_equal(mesh.facet_elements, facet_elements)
        assert np.array_equal(mesh.facet_normals, normals)

    def test_build_mesh_dispatch(self):
        radial = build_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.25))
        planar = build_mesh(GeometrySpec(kind="planar2d", dimension=2, r1=0.5, r2=1.0, h=0.35))
        assert radial.kind == "radial"
        assert planar.kind == "planar2d"


def _with_entry(array, index, value):
    array = array.copy()
    array[index] = value
    return array


# (field, its corrupted copy, message): each breaks one invariant of `validate`.
CORRUPTIONS = [
    ("s_nodes", lambda m: _with_entry(m.s_nodes, 0, 0),
     "an outer-boundary node is not at distance r2"),
    ("gamma_nodes", lambda m: _with_entry(m.gamma_nodes, 0, 0),
     "an interface node is not at distance r1"),
    ("region", lambda m: _with_entry(m.region, -1, CORE),
     r"core element \d+ has a vertex outside r1"),
    ("region", lambda m: _with_entry(m.region, 0, SHELL),
     "shell element 0 has a vertex inside r1"),
    ("gamma_facets", lambda m: m.gamma_facets[:0], "mesh has no interface facets"),
    ("facet_elements", lambda m: m.facet_elements[:, ::-1],
     "interface facet is not shared by one core and one shell element"),
]


class TestValidate:
    @pytest.mark.parametrize("mesh_name", ["radial_desk_mesh", "annulus_desk_mesh"])
    @pytest.mark.parametrize("field, corrupt, message", CORRUPTIONS)
    def test_each_check_fails(self, request, mesh_name, field, corrupt, message):
        # Node 0 is the center, at distance 0; element 0 is a core element
        # at the center and the last element a shell element at r2.
        mesh = request.getfixturevalue(mesh_name)
        mesh.validate()
        broken = dataclasses.replace(mesh, **{field: corrupt(mesh)})
        with pytest.raises(GeometryError, match=message):
            broken.validate()


class TestVtk:
    def test_counts_and_determinism(self, tmp_path):
        mesh = build_annulus_mesh(GeometrySpec(kind="planar2d", dimension=2, r1=0.5, r2=1.0, h=0.35))
        p1 = tmp_path / "a.vtk"
        p2 = tmp_path / "b.vtk"
        write_vtk(p1, mesh, point_data={"u": np.zeros(mesh.n_nodes)})
        write_vtk(p2, mesh, point_data={"u": np.zeros(mesh.n_nodes)})
        text = p1.read_text()
        assert f"POINTS {mesh.n_nodes} double" in text
        assert f"CELLS {mesh.n_elements} {mesh.n_elements * 4}" in text
        assert f"CELL_DATA {mesh.n_elements}" in text
        assert "SCALARS region int 1" in text
        assert "SCALARS u double 1" in text
        assert text.count("\n5") >= mesh.n_elements - 1  # VTK_TRIANGLE rows
        assert p1.read_bytes() == p2.read_bytes()

    def test_radial_lines(self, tmp_path):
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.25))
        path = tmp_path / "m.vtk"
        write_vtk(path, mesh)
        text = path.read_text()
        assert f"CELLS {mesh.n_elements} {mesh.n_elements * 3}" in text
        assert "\n3\n" in text  # VTK_LINE cell type
