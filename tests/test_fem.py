from fractions import Fraction
from math import comb, factorial

import numpy as np
import pytest

from coreshell import (
    CORE,
    GeometrySpec,
    ModelParams,
    assemble,
    build_annulus_mesh,
    build_radial_mesh,
    consumption_potential,
    consumption_rate,
    energy,
    energy_gradient,
    field_from_values,
    reaction_vector,
    refine,
    residual,
    zero_field,
)
from coreshell.fem import dual_norm, h_norm, v_norm


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
        # two unit elements, b == 1, volume weight off: the classic tridiagonal
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=1.0, r2=2.0, h=1.0))
        system = assemble(mesh, ModelParams(1.0, 1.0, 1.0, 2.0), weight_exponent=0)
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
        scale = np.abs(system.K).max()
        assert np.max(np.abs(row_sums[interior])) < 1e-13 * scale

    def test_symmetry_exact(self, sys4, annulus_desk_system):
        for system in (sys4, annulus_desk_system):
            assert (system.K - system.K.T).count_nonzero() == 0
            assert (system.M - system.M.T).count_nonzero() == 0

    def test_spd_on_free_subspace(self, sys4):
        k_ff = sys4.restrict(sys4.K).toarray()
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
        system = assemble(mesh4, params, reaction=False)
        assert np.all(system.M1 == 0.0)
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
        mass = system.M.tocsr()

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

    def test_residual_is_gradient_bitwise(self, sys4, mesh4, params):
        rng = np.random.default_rng(8)
        u = field_from_values(mesh4, rng.uniform(-1, 1, mesh4.n_nodes))
        assert np.array_equal(residual(sys4, u, params), energy_gradient(sys4, u, params))

    def test_dimension_mismatch_raises(self, sys4, params):
        bad = np.zeros(3)
        with pytest.raises(ValueError):
            energy_gradient(sys4, bad, params)


class TestNorms:
    def test_norm_zero(self, sys4, mesh4):
        assert h_norm(sys4, np.zeros(mesh4.n_nodes)) == 0.0
        assert v_norm(sys4, np.zeros(mesh4.n_nodes)) == 0.0

    def test_v_dominates_h(self, sys4, mesh4):
        rng = np.random.default_rng(9)
        for _ in range(10):
            vals = rng.uniform(-1, 1, mesh4.n_nodes)
            assert v_norm(sys4, vals) >= h_norm(sys4, vals)

    def test_dual_norm_positive(self, sys4, mesh4):
        vals = np.ones(mesh4.n_nodes)
        assert dual_norm(sys4, vals) > 0.0
