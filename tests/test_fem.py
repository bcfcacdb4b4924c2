import tracemalloc
from dataclasses import replace
from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest
import scipy.sparse as sp

from coreshell import (
    CORE,
    GeometrySpec,
    ModelParams,
    assemble,
    build_annulus_mesh,
    build_mesh,
    build_radial_mesh,
    consumption_potential,
    consumption_rate,
    energy,
    energy_gradient,
    field_from_values,
    reaction_vector,
    zero_field,
)
from coreshell.fem import (
    dot_fields,
    dual_norm,
    element_keys,
    element_matrices,
    error_norms,
)

from refinement import _edge_table, refine


@pytest.fixture(scope="module")
def params():
    return ModelParams(b1=1.0, b2=5.0, c0=1.0, c1=2.0)


@pytest.fixture(scope="module")
def mesh4():
    return build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.25))


@pytest.fixture(scope="module")
def sys4(mesh4, params):
    return assemble(mesh4, params)


def dense_reaction_oracle(mesh, u_vals, params, nsub=10000):
    """Midpoint rule per element on the core indicator times rate(u_h) times basis."""
    out = np.zeros(mesh.n_nodes)
    w = mesh.dimension - 1
    for e in range(mesh.n_elements):
        ia, ib = mesh.elements[e]
        if mesh.region[e] != CORE:
            continue
        ra, rb = mesh.nodes[ia], mesh.nodes[ib]
        rr = ra + (np.arange(nsub) + 0.5) * (rb - ra) / nsub
        dr = (rb - ra) / nsub
        phi_a = (rb - rr) / (rb - ra)
        uh = u_vals[ia] * phi_a + u_vals[ib] * (1 - phi_a)
        rate = consumption_rate(uh, params)
        out[ia] += np.sum(rate * phi_a * rr**w) * dr
        out[ib] += np.sum(rate * (1 - phi_a) * rr**w) * dr
    return out


def dense_energy_oracle(mesh, u_vals, params, nsub=10000):
    w = mesh.dimension - 1
    total = 0.0
    for e in range(mesh.n_elements):
        ia, ib = mesh.elements[e]
        ra, rb = mesh.nodes[ia], mesh.nodes[ib]
        b_e = params.b1 if mesh.region[e] == CORE else params.b2
        rr = ra + (np.arange(nsub) + 0.5) * (rb - ra) / nsub
        dr = (rb - ra) / nsub
        slope = (u_vals[ib] - u_vals[ia]) / (rb - ra)
        total += 0.5 * b_e * slope**2 * np.sum(rr**w) * dr
        if mesh.region[e] == CORE:
            phi_a = (rb - rr) / (rb - ra)
            uh = u_vals[ia] * phi_a + u_vals[ib] * (1 - phi_a)
            total -= np.sum(consumption_potential(uh, params) * rr**w) * dr
    return total


class TestAssembly:
    def test_textbook_stiffness_weight_disabled(self, params):
        # two unit elements, b == 1, dimension 1 (no volume weight): the classic tridiagonal
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=1.0, r2=2.0, h=1.0))
        system = assemble(replace(mesh, dimension=1), ModelParams(1.0, 1.0, 1.0, 2.0))
        expected = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
        assert np.allclose(system.K.toarray(), expected, atol=1e-15)
        assert np.allclose(system.Kt.toarray(), expected, atol=1e-15)

    def test_shell_entries_scale_linearly_in_b2(self, mesh4, params, sys4):
        doubled = assemble(mesh4, ModelParams(params.b1, 2 * params.b2, params.c0, params.c1))
        k1 = sys4.K.toarray()
        k2 = doubled.K.toarray()
        # nodes 3,4 touch only shell elements
        assert np.array_equal(k2[3:, 3:], 2.0 * k1[3:, 3:])
        # the pure-core block is untouched
        assert np.array_equal(k2[:2, :2], k1[:2, :2])

    def test_constant_in_kernel_2d(self):
        mesh = build_annulus_mesh(GeometrySpec(kind="planar2d", dimension=2, r1=0.5, r2=1.0, h=0.35))
        system = assemble(mesh, ModelParams(1.0, 1.0, 1.0, 2.0))
        row_sums = np.asarray(system.K @ np.ones(mesh.n_nodes))
        interior = ~mesh.dirichlet_mask()
        scale = np.abs(system.K.toarray()).max()
        assert np.max(np.abs(row_sums[interior])) < 1e-13 * scale

    def test_symmetry_exact(self, sys4, annulus_desk_system):
        for system in (sys4, annulus_desk_system):
            for matrix in (system.K.toarray(), system.M.toarray()):
                assert np.count_nonzero(matrix - matrix.T) == 0

    def test_spd_on_free_subspace(self, sys4):
        free = ~sys4.mask
        k_ff = sys4.K.toarray()[free][:, free]
        eigvals = np.linalg.eigvalsh(k_ff)
        assert eigvals.min() > 0.0
        m_eigs = np.linalg.eigvalsh(sys4.M.toarray())
        assert m_eigs.min() > 0.0

    def test_core_mass_support_and_total(self, sys4, mesh4):
        # positive exactly on the closure of the core, total = core volume
        assert np.all(sys4.M1 >= 0.0)
        assert np.all(sys4.M1[:3] > 0.0)
        assert np.all(sys4.M1[3:] == 0.0)
        assert sys4.M1.sum() == pytest.approx(0.5**3 / 3.0, rel=1e-14)
        assert sys4.core_volume == pytest.approx(0.5**3 / 3.0, rel=1e-14)

    def test_mask_is_boundary(self, sys4, mesh4):
        assert np.array_equal(np.flatnonzero(sys4.mask), mesh4.s_nodes)

    def test_reaction_disabled_mode(self, mesh4, params):
        system = replace(assemble(mesh4, params), M1=np.zeros(mesh4.n_nodes))
        u = field_from_values(mesh4, np.full(mesh4.n_nodes, 0.3))
        assert energy(system, u, params) > 0.0
        assert np.array_equal(reaction_vector(system, u, params), np.zeros(mesh4.n_nodes))

    def test_radial_mass_matches_exact_integrals_fine_mesh(self, params):
        # Each entry is an integral of a polynomial, so exact rational
        # arithmetic gives it. At h = 2^-11 an assembly that subtracts
        # monomial moments loses up to 7 digits.
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0,
                                              h=2.0**-11))
        system = assemble(mesh, params)
        mass = system.M

        def integral(ra, rb, *basis):
            # int r^2 prod(phi_a) dr with r = ra + h t, phi_0 = 1 - t, phi_1 = t,
            # and int_0^1 t^p (1 - t)^q dt = p! q! / (p + q + 1)!
            h, q = rb - ra, basis.count(0)
            p = len(basis) - q
            return h * sum(comb(2, k) * ra ** (2 - k) * h ** k
                           * Fraction(factorial(k + p) * factorial(q), factorial(k + p + q + 1))
                           for k in range(3))

        def rel_err(value, exact):
            return abs(Fraction(float(value)) - exact) / exact

        worst = 0.0
        for e in range(0, mesh.n_elements, 7):
            i, j = (int(n) for n in mesh.elements[e])
            ra, rb = Fraction(float(mesh.nodes[i])), Fraction(float(mesh.nodes[j]))
            worst = max(worst, rel_err(mass[i, j], integral(ra, rb, 0, 1)))
            if 0 < i:
                left = Fraction(float(mesh.nodes[i - 1]))
                worst = max(worst, rel_err(
                    mass[i, i], integral(left, ra, 1, 1) + integral(ra, rb, 0, 0)))
                worst = max(worst, rel_err(
                    system.lumped_mass[i], integral(left, ra, 1) + integral(ra, rb, 0)))
        assert worst <= 1e-12


def scipy_csr(mesh, local):
    """Reference assembly: scipy's COO -> CSR sum of an (m, k, k) element table."""
    k = mesh.elements.shape[1]
    rows = np.repeat(mesh.elements, k, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, k)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(mesh.n_nodes,) * 2).tocsr()


def scipy_eliminated(matrix, mask, shift=None):
    """Reference elimination: the masked rows and columns of a scipy matrix
    zeroed (kept as explicit zeros) and 1 on their diagonal, plus `shift` on
    the diagonal."""
    a = matrix.tocoo()
    masked = mask[a.row] | mask[a.col]
    on_diag = a.row == a.col
    data = np.where(masked, 0.0, a.data)
    data[masked & on_diag] = 1.0
    if shift is not None:
        data[on_diag] += shift[a.row[on_diag]]
    return sp.csr_matrix((data, (a.row, a.col)), shape=a.shape)


DESK_SYSTEMS = ["radial_desk_system", "annulus_desk_system"]


class TestSparseOperators:
    @pytest.mark.parametrize("name", DESK_SYSTEMS)
    def test_against_scipy_assembly(self, request, desk_params, name):
        # Bitwise on radial meshes; on planar ones scipy sums an entry's
        # element terms in another order, which moves it by rounding.
        system = request.getfixturevalue(name)
        mesh, mask = system.mesh, system.mask
        local = element_matrices(mesh, desk_params.b1, desk_params.b2)[:3]
        ref = dict(zip(("K", "Kt", "M"), (scipy_csr(mesh, table) for table in local)))
        shift = np.linspace(0.0, 1.0, mesh.n_nodes)
        pairs = [(getattr(system, label), ref[label]) for label in ref]
        pairs += [(system.eliminate(system.K), scipy_eliminated(ref["K"], mask)),
                  (system.K + system.M / 0.05, ref["K"] + ref["M"] / 0.05),
                  (system.eliminate(system.M + system.K).plus_diagonal(shift),
                   scipy_eliminated(ref["M"] + ref["K"], mask, shift))]
        for mine, theirs in pairs:
            assert mine.nnz == theirs.nnz
            a, b = mine.toarray(), theirs.toarray()
            if mesh.kind == "radial":
                assert np.array_equal(a, b)
            else:
                assert np.abs(a - b).max() <= 1e-14 * np.abs(b).max()

    @pytest.mark.parametrize("name", DESK_SYSTEMS)
    def test_product_and_entries_match_scipy(self, request, name):
        system = request.getfixturevalue(name)
        if system.mesh.kind == "planar2d":
            # the center row (the hub) is stored apart from the slot table
            assert [row for row, _, _ in system.K.pattern.long] == [0]
        rng = np.random.default_rng(11)
        for op in (system.K, system.M, system.K + system.M / 0.05,
                   system.eliminate(system.Kt)):
            dense = op.toarray()
            x = rng.standard_normal(op.shape[0])
            assert np.array_equal(op @ x, sp.csr_matrix(dense) @ x)
            assert np.array_equal(op.diagonal(), np.diag(dense))
            i, j = rng.integers(0, op.shape[0], (2, 300))
            assert np.array_equal(op[i, j], dense[i, j])
            assert op[i[0], j[0]] == dense[i[0], j[0]]


@pytest.fixture(scope="module")
def planar_fine_system(desk_params):
    """Planar h=0.025: 10081 nodes, and a 253-entry hub row at the center."""
    spec = GeometrySpec(kind="planar2d", dimension=2, r1=0.5, r2=1.0, h=0.025)
    return assemble(build_annulus_mesh(spec), desk_params)


@pytest.fixture(scope="module")
def radial_chain_system(desk_params):
    """Radial h=2^-11: a 2049-node chain."""
    spec = GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=2.0**-11)
    return assemble(build_radial_mesh(spec), desk_params)


STACK_SYSTEMS = DESK_SYSTEMS + ["planar_fine_system", "radial_chain_system"]


@pytest.mark.parametrize("name", STACK_SYSTEMS + ["refined"])
def test_pattern_is_the_diagonal_and_both_edge_directions(request, desk_params, name):
    # The pattern is built from the element node pairs; the reference is the
    # diagonal plus both directions of each edge that `_edge_table` finds
    # (the segments on radial meshes), located by key search.
    if name == "refined":
        system = assemble(refine(request.getfixturevalue("annulus_desk_mesh")), desk_params)
    else:
        system = request.getfixturevalue(name)
    mesh, n = system.mesh, system.n_nodes
    low, high = (mesh.elements if mesh.kind == "radial" else _edge_table(mesh.elements)[0]).T
    keys = np.sort(np.concatenate([np.arange(n) * (n + 1), low * n + high, high * n + low]))
    pattern = system.K.pattern
    assert np.array_equal(pattern.keys, keys)
    elements = mesh.elements
    k = elements.shape[1]
    pairs = np.repeat(elements, k, axis=1) * n + np.tile(elements, (1, k))
    assert np.array_equal(pattern.find(element_keys(elements, n)).ravel(),
                          pattern.slots[np.searchsorted(keys, pairs.ravel())])
    rows, cols = np.divmod(keys, n)
    assert np.array_equal(pattern.transpose, pattern.slots[np.searchsorted(keys, cols * n + rows)])


def all_at_once_planar_assembly(mesh, b1, b2):
    """The planar operators formed with every temporary at once: gradients
    from rolled vertex coordinates, the element node pairs as repeat/tile
    copies and `np.unique`, the (m, k, k, d) Gram product summed over d, and
    all element tables before any is summed."""
    n, elements = mesh.n_nodes, mesh.elements
    k = elements.shape[1]
    p = mesh.nodes[elements]
    x, y = p[..., 0], p[..., 1]
    by = np.roll(y, -1, axis=1) - np.roll(y, -2, axis=1)
    cx = np.roll(x, -2, axis=1) - np.roll(x, -1, axis=1)
    measures = 0.5 * (cx[:, 2] * by[:, 1] - by[:, 2] * cx[:, 1])
    grads = 0.5 * np.stack([by, cx], axis=2) / measures[:, None, None]
    pairs = np.repeat(elements, k, axis=1) * n + np.tile(elements, (1, k))
    keys, inverse = np.unique(pairs.ravel(), return_inverse=True)
    rows, cols = np.divmod(keys, n)
    lengths = np.bincount(rows, minlength=n)
    hub = lengths > 2.0 * np.median(lengths)
    width = int(lengths[~hub].max())
    in_hub = hub[rows]
    slots = (np.arange(rows.shape[0]) - (np.cumsum(lengths) - lengths)[rows]) * n + rows
    slots[in_hub] = width * n + np.arange(np.count_nonzero(in_hub))
    m_local = (measures / 12.0)[:, None, None] * (1.0 + np.eye(3))
    kt_local = measures[:, None, None] * (grads[:, :, None, :] * grads[:, None, :, :]).sum(axis=-1)
    k_local = np.where(mesh.region == CORE, b1, b2)[:, None, None] * kt_local
    lumped_local = np.repeat(measures[:, None] / 3.0, 3, axis=1)
    core = mesh.region == CORE

    def summed(table):
        return np.bincount(slots[inverse], weights=table.ravel(),
                           minlength=width * n + np.count_nonzero(in_hub))

    return {"measures": measures, "gradients": grads, "keys": keys, "slots": slots,
            "diag": slots[rows == cols], "K": summed(k_local), "Kt": summed(kt_local),
            "M": summed(m_local), "lumped_mass": np.bincount(
                elements.ravel(), weights=lumped_local.ravel(), minlength=n),
            "M1": np.bincount(elements[core].ravel(), weights=lumped_local[core].ravel(),
                              minlength=n)}


def test_lean_setup_is_bitwise_the_all_at_once_assembly(planar_fine_system, desk_params):
    # The benchmark size, whose artifacts are not pinned: forming one
    # temporary at a time keeps every operation and summation order.
    system = planar_fine_system
    mesh, pattern = system.mesh, system.K.pattern
    reference = all_at_once_planar_assembly(mesh, desk_params.b1, desk_params.b2)
    mine = {"measures": mesh.measures, "gradients": mesh.gradients, "keys": pattern.keys,
            "slots": pattern.slots, "diag": pattern.diag, "K": system.K.data,
            "Kt": system.Kt.data, "M": system.M.data, "lumped_mass": system.lumped_mass,
            "M1": system.M1}
    for name, values in mine.items():
        assert values.dtype == reference[name].dtype, name
        assert values.tobytes() == reference[name].tobytes(), name


@pytest.mark.parametrize("spec, bound", [
    (GeometrySpec(kind="planar2d", dimension=2, r1=0.5, r2=1.0, h=0.05), 6.0),
    (GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=2.0**-11), 10.0),
], ids=["planar", "radial"])
def test_assembly_memory_is_a_few_element_tables(desk_params, spec, bound):
    # tracemalloc sees numpy's buffers. The unit is one (m, k, k) float
    # table of element matrices. With every table, the element slot table
    # and the `np.unique` temporaries alive at once, `assemble` peaked at
    # 9.9 tables (planar h=0.05) and 12.2 (radial chain) above its start;
    # one table at a time it peaks at 4.8 and 8.1, what it keeps included.
    mesh = build_mesh(spec)
    assemble(mesh, desk_params)  # leaves out one-off first-call allocations
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assemble(mesh, desk_params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    m, k = mesh.elements.shape
    assert peak - start < bound * m * k * k * 8


@pytest.mark.parametrize("name", DESK_SYSTEMS)
def test_entries_read_the_dense_matrix(request, name):
    # every (row, col) pair, on and off the pattern; off it `find` gives -1
    system = request.getfixturevalue(name)
    rows, cols = np.divmod(np.arange(system.n_nodes**2), system.n_nodes)
    for op in (system.K, system.M, system.eliminate(system.K)):
        assert np.array_equal(op[rows, cols], op.toarray()[rows, cols])
    found = system.K.pattern.find(rows * system.n_nodes + cols)
    assert np.count_nonzero(found >= 0) == system.K.nnz


class TestFieldStacks:
    """A stack of fields, shape (..., n), gives field by field the single-field
    results bit for bit; `verify` evaluates its samples in such blocks and
    its reports depend on it."""

    @staticmethod
    def stack(system):
        fields = np.random.default_rng(5).uniform(-2.0, 2.0, (3, 2, system.n_nodes))
        fields[..., system.mask] = 0.0
        return fields

    @pytest.mark.parametrize("name", STACK_SYSTEMS)
    def test_operator_products(self, request, name):
        system = request.getfixturevalue(name)
        if name == "planar_fine_system":
            assert [cols.shape[0] for _, _, cols in system.K.pattern.long] == [253]
        fields = self.stack(system)
        for op in (system.K, system.M, system.Kt, system.M + system.K,
                   system.eliminate(system.K)):
            products = op @ fields
            assert products.shape == fields.shape
            for j in np.ndindex(fields.shape[:-1]):
                assert np.array_equal(products[j], op @ fields[j])
            # a strided stack: the second field of each pair
            assert np.array_equal(op @ fields[:, 1], products[:, 1])

    @pytest.mark.parametrize("name", STACK_SYSTEMS)
    def test_field_functions(self, request, desk_params, name):
        system = request.getfixturevalue(name)
        fields = self.stack(system)
        for fn in (reaction_vector, energy_gradient):
            stacked = fn(system, fields, desk_params)
            for j in np.ndindex(fields.shape[:-1]):
                assert np.array_equal(stacked[j], fn(system, fields[j], desk_params))
        energies = energy(system, fields, desk_params)
        assert energies.shape == fields.shape[:-1]
        dots = dot_fields(fields, fields[::-1])
        weighted = dot_fields(system.M1, fields)
        for j in np.ndindex(fields.shape[:-1]):
            assert energies[j] == energy(system, fields[j], desk_params)
            assert dots[j] == dot_fields(fields[j], fields[::-1][j])
            assert weighted[j] == dot_fields(system.M1, fields[j])
        # a strided stack: the second field of each pair
        assert np.array_equal(dot_fields(fields[:, 1], system.M1), weighted[:, 1])
        # a column-major stack: each field strided along the node axis
        assert np.array_equal(dot_fields(np.asfortranarray(fields), system.M1), weighted)


class TestReactionVector:
    def test_zero_at_c0(self, sys4, mesh4, params):
        u = field_from_values(mesh4, np.full(mesh4.n_nodes, params.c0))
        assert np.array_equal(reaction_vector(sys4, u, params), np.zeros(mesh4.n_nodes))

    def test_half_m1_at_zero(self, sys4, mesh4, params):
        u = zero_field(mesh4)
        assert np.array_equal(reaction_vector(sys4, u, params), 0.5 * sys4.M1)

    def test_entries_bounded(self, sys4, mesh4, params):
        rng = np.random.default_rng(3)
        for _ in range(10):
            u = field_from_values(mesh4, rng.uniform(-2, 2, mesh4.n_nodes))
            r = reaction_vector(sys4, u, params)
            active = sys4.M1 > 0
            assert np.all(r[active] >= 0.0)
            assert np.all(r[active] < sys4.M1[active])
            assert np.all(r[~active] == 0.0)

    def test_against_dense_quadrature_rough_field(self, sys4, mesh4, params):
        # Frozen regression: nodal vs exact quadrature for a field whose nodal
        # values span [-1, 1] on the 4-element mesh, then the same interpolant
        # under refinement; the discrepancy must shrink.
        rng = np.random.default_rng(42)
        u = field_from_values(mesh4, rng.uniform(-1.0, 1.0, mesh4.n_nodes))
        rel0 = np.linalg.norm(
            reaction_vector(sys4, u, params) - dense_reaction_oracle(mesh4, u, params)
        ) / np.linalg.norm(dense_reaction_oracle(mesh4, u, params))
        assert rel0 == pytest.approx(0.2656066821769996, abs=1e-9)

        mesh, values = mesh4, u
        rels = [rel0]
        for _ in range(2):
            mesh = refine(mesh)
            vals = np.interp(mesh.nodes, mesh4.nodes, values)
            system = assemble(mesh, params)
            fld = field_from_values(mesh, vals)
            oracle = dense_reaction_oracle(mesh, fld, params)
            rels.append(np.linalg.norm(reaction_vector(system, fld, params) - oracle)
                        / np.linalg.norm(oracle))
        assert rels[0] > rels[1] > rels[2]

    def test_against_dense_quadrature_smooth_field(self, sys4, mesh4, params):
        # physical-range smooth field: nodal quadrature is within 2 percent
        u = field_from_values(mesh4, 0.05 * (1.0 + mesh4.nodes))
        oracle = dense_reaction_oracle(mesh4, u, params)
        rel = np.linalg.norm(reaction_vector(sys4, u, params) - oracle) / np.linalg.norm(oracle)
        assert rel < 0.02


class TestEnergyAndGradient:
    def test_energy_zero_field(self, sys4, mesh4, params):
        assert energy(sys4, zero_field(mesh4), params) == 0.0

    def test_energy_hat_function_shell(self, mesh4, params):
        system = assemble(mesh4, ModelParams(params.b1, 1.0, params.c0, params.c1))
        vals = np.zeros(mesh4.n_nodes)
        vals[3] = 1.0  # interior shell node: no core support
        u = field_from_values(mesh4, vals)
        assert energy(system, u, params) == pytest.approx(0.5 * system.K[3, 3], rel=1e-14)

    def test_energy_matches_dense_quadrature(self, sys4, mesh4, params):
        rng = np.random.default_rng(42)
        u = field_from_values(mesh4, rng.uniform(-1.0, 1.0, mesh4.n_nodes))
        e_nodal = energy(sys4, u, params)
        e_dense = dense_energy_oracle(mesh4, u, params)
        assert abs(e_nodal - e_dense) / abs(e_dense) < 0.02

    def test_gradient_zero_field_is_pure_reaction(self, sys4, mesh4, params):
        g = energy_gradient(sys4, zero_field(mesh4), params)
        expected = -0.5 * sys4.M1
        expected[sys4.mask] = 0.0
        assert np.array_equal(g, expected)

    def test_gradient_at_constant_c0(self, sys4, mesh4, params):
        u = field_from_values(mesh4, np.full(mesh4.n_nodes, params.c0))
        g = energy_gradient(sys4, u, params)
        expected = sys4.K @ u
        expected[sys4.mask] = 0.0
        assert np.array_equal(g, expected)

    def test_gradient_finite_difference(self, annulus_desk_system, annulus_desk_mesh, desk_params):
        system, mesh, params = annulus_desk_system, annulus_desk_mesh, desk_params
        rng = np.random.default_rng(5)
        eps = 1e-6
        for _ in range(10):
            raw = rng.uniform(-params.c0, 2 * params.c0, mesh.n_nodes)
            raw[np.abs(raw - params.c0) < 1e-3] = params.c0 - 2e-3
            u = field_from_values(mesh, raw)
            h = field_from_values(mesh, rng.uniform(-1, 1, mesh.n_nodes))
            up = u + eps * h
            dn = u - eps * h
            fd = (energy(system, up, params) - energy(system, dn, params)) / (2 * eps)
            gh = float(energy_gradient(system, u, params) @ h)
            assert abs(fd - gh) <= 1e-6 * max(abs(fd), abs(gh))

    def test_gradient_monotone_pairing(self, annulus_desk_system, annulus_desk_mesh, desk_params):
        system, mesh, params = annulus_desk_system, annulus_desk_mesh, desk_params
        rng = np.random.default_rng(6)
        zero = zero_field(mesh)
        g0 = energy_gradient(system, zero, params)
        for _ in range(20):
            u = field_from_values(mesh, rng.uniform(-2, 2, mesh.n_nodes))
            gu = energy_gradient(system, u, params)
            d = u - zero
            assert float((gu - g0) @ d) >= -1e-12 * float(d @ (system.M @ d))

    def test_dimension_mismatch_raises(self, sys4, params):
        bad = np.zeros(3)
        with pytest.raises(ValueError):
            energy_gradient(sys4, bad, params)


class TestNorms:
    def test_norm_zero(self, sys4, mesh4):
        assert error_norms(sys4, np.zeros(mesh4.n_nodes)) == (0.0, 0.0)

    def test_v_dominates_h(self, sys4, mesh4):
        rng = np.random.default_rng(9)
        for _ in range(10):
            vals = rng.uniform(-1, 1, mesh4.n_nodes)
            h, v = error_norms(sys4, vals)
            assert v >= h

    def test_dual_norm_positive(self, sys4, mesh4):
        vals = np.ones(mesh4.n_nodes)
        assert dual_norm(sys4, vals) > 0.0
