import math

import numpy as np
import pytest

from coreshell import (
    GeometrySpec,
    ModelParams,
    SolverConfig,
    assemble,
    build_annulus_mesh,
    build_radial_mesh,
    estimate_gamma,
    field_from_values,
    fit_decay_rate,
    interface_flux_jump,
    radial_stationary_reference,
    refine,
    smallest_generalized_eigenvalue,
    stationary_solve,
    zero_field,
)
from coreshell.analysis import AnalysisError
from coreshell.fem import h_norm, v_norm
from coreshell.solvers import EvolutionTrace


@pytest.fixture(scope="module")
def params():
    return ModelParams(b1=1.0, b2=5.0, c0=1.0, c1=2.0)


def make_trace(times, err_h):
    n = len(times)
    return EvolutionTrace(
        times=np.asarray(times, dtype=float),
        energies=-np.linspace(0.0, 1.0, n),
        err_H=np.asarray(err_h, dtype=float),
        err_V=np.asarray(err_h, dtype=float),
        newton_iters=np.zeros(n, dtype=np.int64),
    )


class TestNorms:
    def test_zero(self, radial_desk_system, radial_desk_mesh):
        u = zero_field(radial_desk_mesh)
        h, v = h_norm(radial_desk_system, u), v_norm(radial_desk_system, u)
        assert h == 0.0 and v == 0.0

    def test_v_dominates(self, radial_desk_system, radial_desk_mesh):
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = field_from_values(radial_desk_mesh, rng.uniform(-1, 1, radial_desk_mesh.n_nodes))
            h, v = h_norm(radial_desk_system, u), v_norm(radial_desk_system, u)
            assert v >= h

    def test_against_gauss_quadrature_radial(self, params):
        # independent high-order quadrature of u^2 and u^2 + |u'|^2 on the interpolant
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.125))
        system = assemble(mesh, params)
        rng = np.random.default_rng(21)
        u = field_from_values(mesh, rng.uniform(-1, 1, mesh.n_nodes))
        gauss_x, gauss_w = np.polynomial.legendre.leggauss(8)
        int_u2 = 0.0
        int_grad2 = 0.0
        w = mesh.dimension - 1
        for e in range(mesh.n_elements):
            ia, ib = mesh.elements[e]
            ra, rb = mesh.nodes[ia], mesh.nodes[ib]
            rr = 0.5 * (rb - ra) * gauss_x + 0.5 * (ra + rb)
            jac = 0.5 * (rb - ra)
            phi_a = (rb - rr) / (rb - ra)
            uh = u[ia] * phi_a + u[ib] * (1 - phi_a)
            slope = (u[ib] - u[ia]) / (rb - ra)
            int_u2 += jac * np.sum(gauss_w * uh**2 * rr**w)
            int_grad2 += jac * np.sum(gauss_w * slope**2 * rr**w)
        h, v = h_norm(system, u), v_norm(system, u)
        assert h == pytest.approx(math.sqrt(int_u2), rel=1e-10)
        assert v == pytest.approx(math.sqrt(int_u2 + int_grad2), rel=1e-10)

    def test_against_edge_midpoint_quadrature_2d(self, params):
        # edge-midpoint rule is exact for quadratics: an independent route to
        # the same integrals the assembly computes in closed form
        mesh = build_annulus_mesh(GeometrySpec(kind="planar2d", dimension=2, r1=0.5, r2=1.0, h=0.35))
        system = assemble(mesh, params)
        rng = np.random.default_rng(22)
        u = field_from_values(mesh, rng.uniform(-1, 1, mesh.n_nodes))
        int_u2 = 0.0
        int_grad2 = 0.0
        for e in range(mesh.n_elements):
            idx = mesh.elements[e]
            p = mesh.nodes[idx]
            vals = u[idx]
            area = 0.5 * abs(
                (p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                - (p[1, 1] - p[0, 1]) * (p[2, 0] - p[0, 0])
            )
            mid_vals = np.array([
                0.5 * (vals[0] + vals[1]),
                0.5 * (vals[1] + vals[2]),
                0.5 * (vals[2] + vals[0]),
            ])
            int_u2 += area / 3.0 * np.sum(mid_vals**2)
            by = np.array([p[1, 1] - p[2, 1], p[2, 1] - p[0, 1], p[0, 1] - p[1, 1]])
            cx = np.array([p[2, 0] - p[1, 0], p[0, 0] - p[2, 0], p[1, 0] - p[0, 0]])
            gx = float(by @ vals) / (2 * area)
            gy = float(cx @ vals) / (2 * area)
            int_grad2 += area * (gx**2 + gy**2)
        h, v = h_norm(system, u), v_norm(system, u)
        assert h == pytest.approx(math.sqrt(int_u2), rel=1e-10)
        assert v == pytest.approx(math.sqrt(int_u2 + int_grad2), rel=1e-10)


class TestDecayFit:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 5.0, 101)
        report = fit_decay_rate(make_trace(t, np.exp(-2.0 * t)))
        assert report.beta_fit == pytest.approx(2.0, abs=1e-8)
        assert report.r_squared == pytest.approx(1.0, abs=1e-12)
        assert report.flag == ""

    def test_constant_trace(self):
        t = np.linspace(0.0, 5.0, 50)
        report = fit_decay_rate(make_trace(t, np.full(50, 0.25)))
        assert report.beta_fit == 0.0

    def test_time_shift_invariance(self):
        t = np.linspace(0.0, 5.0, 80)
        err = np.exp(-1.7 * t)
        r0 = fit_decay_rate(make_trace(t, err))
        r1 = fit_decay_rate(make_trace(t + 13.0, err))
        assert r1.beta_fit == pytest.approx(r0.beta_fit, rel=1e-12)

    def test_time_rescale_equivariance(self):
        t = np.linspace(0.0, 5.0, 80)
        err = np.exp(-1.7 * t)
        r0 = fit_decay_rate(make_trace(t, err))
        r2 = fit_decay_rate(make_trace(3.0 * t, err))
        assert r2.beta_fit == pytest.approx(r0.beta_fit / 3.0, rel=1e-12)

    def test_plateau_excluded(self):
        # decay into a solver-noise plateau: the window must stay on the ramp
        t = np.linspace(0.0, 10.0, 201)
        err = np.maximum(np.exp(-3.0 * t), 1e-11)
        report = fit_decay_rate(make_trace(t, err))
        assert report.beta_fit == pytest.approx(3.0, rel=1e-6)
        assert report.r_squared > 0.999999

    def test_converged_at_start_flag(self):
        t = np.linspace(0.0, 1.0, 20)
        report = fit_decay_rate(make_trace(t, np.zeros(20)))
        assert report.flag == "converged-at-start"
        assert report.beta_fit == 0.0

    def test_short_trace_rejected(self):
        t = np.linspace(0.0, 1.0, 5)
        with pytest.raises(AnalysisError):
            fit_decay_rate(make_trace(t, np.exp(-t)))

    def test_growing_trace_rejected(self):
        t = np.linspace(0.0, 5.0, 40)
        with pytest.raises(AnalysisError):
            fit_decay_rate(make_trace(t, np.exp(+0.5 * t)))

    def test_explicit_window(self):
        t = np.linspace(0.0, 5.0, 101)
        report = fit_decay_rate(make_trace(t, np.exp(-2.0 * t)), window=(10, 40))
        assert report.window == (10, 40)
        assert report.beta_fit == pytest.approx(2.0, abs=1e-8)


class TestGamma:
    def test_unit_interval_dirichlet_eigenvalue(self, params):
        # weight off, both ends masked: smallest eigenvalue tends to pi^2
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=2, r1=0.5, r2=1.0, h=1.0 / 64))
        system = assemble(mesh, params, weight_exponent=0, dirichlet_nodes=[0, mesh.n_nodes - 1])
        lam = smallest_generalized_eigenvalue(system)
        assert abs(lam - math.pi**2) / math.pi**2 <= 1e-3

    def test_refinement_decreases_eigenvalue(self, params):
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=2, r1=0.5, r2=1.0, h=1.0 / 8))
        lams = []
        for _ in range(3):
            system = assemble(mesh, params, weight_exponent=0,
                              dirichlet_nodes=[0, mesh.n_nodes - 1])
            lams.append(smallest_generalized_eigenvalue(system))
            mesh = refine(mesh)
        assert lams[0] > lams[1] > lams[2] > math.pi**2

    def test_gamma_linear_in_b(self, radial_desk_system, params):
        g1 = estimate_gamma(radial_desk_system, params)
        doubled = ModelParams(2 * params.b1, 2 * params.b2, params.c0, params.c1)
        g2 = estimate_gamma(radial_desk_system, doubled)
        assert g2 == 2.0 * g1

    def test_gamma_value_radial_ball(self, radial_desk_system, params):
        # first radial Dirichlet eigenvalue of the unit ball is pi^2
        lam = smallest_generalized_eigenvalue(radial_desk_system)
        assert lam == pytest.approx(math.pi**2, rel=2e-4)
        gamma = estimate_gamma(radial_desk_system, params)
        assert gamma == pytest.approx(params.b_min * lam / (1 + lam), rel=1e-14)


class TestFluxJump:
    def test_constructed_flux_continuous_field(self):
        # hand-built two-element field with slope ratio b2/b1 across the
        # interface; all values binary-exact so the jump is zero exactly
        params_exact = ModelParams(1.0, 4.0, 1.0, 2.0)
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.5))
        system = assemble(mesh, params_exact)
        vals = np.array([0.0, 0.5, 0.625])  # slopes 1.0 and 0.25 = b1/b2
        u = vals
        assert interface_flux_jump(system, mesh, u, params_exact) == 0.0

    def test_equal_coefficients_smooth_interpolant(self):
        # b1 == b2: the jump is the interpolation kink of a smooth function, O(h)
        params_eq = ModelParams(1.0, 1.0, 1.0, 2.0)
        jumps = []
        mesh = build_annulus_mesh(GeometrySpec(kind="planar2d", dimension=2, r1=0.5, r2=1.0, h=0.2))
        for _ in range(2):
            system = assemble(mesh, params_eq)
            vals = mesh.nodes[:, 0] ** 2 - mesh.nodes[:, 1] ** 2  # harmonic, smooth
            u = field_from_values(mesh, vals)
            u[mesh.s_nodes] = (mesh.nodes[mesh.s_nodes, 0] ** 2
                                      - mesh.nodes[mesh.s_nodes, 1] ** 2)
            jumps.append(interface_flux_jump(system, mesh, u, params_eq))
            mesh = refine(mesh)
        h_coarse = 0.2
        frozen_c = 4.0  # measured constant, with margin
        assert jumps[0] <= frozen_c * h_coarse
        assert jumps[1] <= frozen_c * h_coarse / 2
        assert jumps[1] < jumps[0]

    def test_stationary_jump_decreases_radially(self, params):
        cfg = SolverConfig()
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=1.0 / 16))
        jumps = []
        for _ in range(3):
            system = assemble(mesh, params)
            res = stationary_solve(system, params, cfg, zero_field(mesh))
            jumps.append(interface_flux_jump(system, mesh, res.field, params))
            mesh = refine(mesh)
        assert jumps[0] > jumps[1] > jumps[2]


class TestShootingReference:
    def test_reaction_disabled_is_zero(self, params):
        spec = GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.1)
        profile = radial_stationary_reference(params, spec, reaction=False)
        rr = np.linspace(0.0, 1.0, 50)
        assert np.max(np.abs(profile(rr))) <= 1e-9

    def test_frozen_center_value_symmetric_coefficients(self):
        # recorded once from this oracle and kept as a regression constant
        params_eq = ModelParams(1.0, 1.0, 1.0, 2.0)
        spec = GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.1)
        profile = radial_stationary_reference(params_eq, spec)
        assert profile.center_value == pytest.approx(0.040993180591613054, abs=1e-9)
        assert abs(profile.defect) < 1e-10

    def test_flux_match_at_interface(self, params):
        spec = GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.1)
        profile = radial_stationary_reference(params, spec)
        assert profile.flux_mismatch <= 1e-9

    def test_boundary_value_vanishes(self, params):
        spec = GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.1)
        profile = radial_stationary_reference(params, spec)
        assert abs(profile(spec.r2)) < 1e-9

    def test_planar_two_dimensional_shell(self):
        params_2d = ModelParams(1.0, 2.0, 1.0, 2.0)
        spec = GeometrySpec(kind="radial", dimension=2, r1=0.5, r2=1.0, h=0.1)
        profile = radial_stationary_reference(params_2d, spec)
        assert abs(profile(spec.r2)) < 1e-9
        assert profile.flux_mismatch <= 1e-9

    def test_bad_bracket_reported(self, params):
        spec = GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.1)
        with pytest.raises(AnalysisError):
            radial_stationary_reference(params, spec, alpha_bracket=(0.9, 0.99))

    def test_fem_agreement(self, radial_desk_mesh, radial_desk_system, params, radial_desk_spec):
        cfg = SolverConfig()
        res = stationary_solve(radial_desk_system, params, cfg, zero_field(radial_desk_mesh))
        profile = radial_stationary_reference(params, radial_desk_spec)
        err = np.max(np.abs(res.field - profile(radial_desk_mesh.nodes)))
        assert err <= 1e-3


class TestErrors:
    def test_flux_jump_dimension_mismatch(self, radial_desk_system, radial_desk_mesh, params):
        bad = np.zeros(3)
        with pytest.raises(ValueError):
            interface_flux_jump(radial_desk_system, radial_desk_mesh, bad, params)

    def test_shooting_requires_radial(self, params):
        spec = GeometrySpec(kind="planar2d", dimension=2, r1=0.5, r2=1.0, h=0.2)
        with pytest.raises(AnalysisError):
            radial_stationary_reference(params, spec)
