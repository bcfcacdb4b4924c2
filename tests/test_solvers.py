import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from coreshell import (
    GeometrySpec,
    LinearSolveError,
    ModelParams,
    SolverConfig,
    assemble,
    build_annulus_mesh,
    build_mesh,
    build_radial_mesh,
    energy,
    energy_gradient,
    evolve,
    field_from_values,
    ramp_field,
    refine,
    solve_spd,
    stationary_solve,
    step_implicit_euler,
    zero_field,
)
from coreshell.config import load_config
from coreshell.fem import h_norm, dual_norm, reaction_jacobian_diagonal
from coreshell.solvers import MAX_STEPS, sector_inverse


@pytest.fixture(scope="module")
def params():
    return ModelParams(b1=1.0, b2=5.0, c0=1.0, c1=2.0)


@pytest.fixture(scope="module")
def desk(params):
    mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.0078125))
    return mesh, assemble(mesh, params)


class TestSolveSpd:
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0])
        x = solve_spd(sp.identity(3, format="csr"), rhs, 1e-12)
        assert np.allclose(x, rhs, atol=1e-12)

    def test_constructed_solution(self, desk, params):
        _, system = desk
        k_ff = system.restrict(system.K)
        x_true = np.sin(np.arange(k_ff.shape[0], dtype=float))
        rhs = k_ff @ x_true
        x = solve_spd(k_ff, rhs, 1e-12)
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-8

    def test_against_dense_factorization(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((50, 50))
        matrix = sp.csr_matrix(a @ a.T + 50.0 * np.eye(50))
        rhs = rng.standard_normal(50)
        x = solve_spd(matrix, rhs, 1e-14)
        x_dense = np.linalg.solve(matrix.toarray(), rhs)
        assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-10

    def test_zero_rhs(self):
        x = solve_spd(sp.identity(4, format="csr"), np.zeros(4), 1e-12)
        assert np.array_equal(x, np.zeros(4))

    def test_indefinite_reported(self):
        matrix = sp.csr_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(LinearSolveError):
            solve_spd(matrix, np.array([1.0, 1.0]), 1e-12)

    def test_deterministic(self, desk):
        _, system = desk
        k_ff = system.restrict(system.K)
        rhs = np.cos(np.arange(k_ff.shape[0], dtype=float))
        assert np.array_equal(solve_spd(k_ff, rhs, 1e-12), solve_spd(k_ff, rhs, 1e-12))


def _constant_parts(system, dt):
    return {"K": system.K, "K + M/dt": (system.K + system.M / dt).tocsr(), "Kt": system.Kt}


def _counted(precondition):
    """Wrap a preconditioner; PCG calls it once per iteration."""
    calls = []

    def apply(r):
        calls.append(1)
        return precondition(r)

    return apply, calls


class TestSectorInverse:
    @pytest.mark.parametrize("name", ["annulus_desk.cfg", "radial_desk.cfg"])
    def test_exact_on_shipped_configs(self, repo_root, name):
        config = load_config(repo_root / "configs" / name)
        mesh = build_mesh(config.geometry)
        system = assemble(mesh, config.model)
        rng = np.random.default_rng(23)
        for label, base in _constant_parts(system, config.solver.dt).items():
            base_ff = system.restrict(base)
            apply = sector_inverse(system, base_ff)
            assert apply is not None, label
            r = rng.standard_normal(base_ff.shape[0])
            miss = np.linalg.norm(base_ff @ apply(r) - r)
            assert miss <= 1e-10 * np.linalg.norm(r), label

    def test_few_iterations_with_reaction_diagonal(self, params):
        mesh = build_annulus_mesh(GeometrySpec(kind="planar2d", dimension=2,
                                               r1=0.5, r2=1.0, h=0.05))
        system = assemble(mesh, params)
        free = system.free
        for base in _constant_parts(system, 0.05).values():
            base_ff = system.restrict(base)
            hess_ff = base_ff + sp.diags(
                reaction_jacobian_diagonal(system, ramp_field(mesh, params), params)[free])
            rhs = np.sin(np.arange(free.shape[0], dtype=float))
            apply, calls = _counted(sector_inverse(system, base_ff))
            x = solve_spd(hess_ff, rhs, 1e-12, precondition=apply)
            assert 1 <= len(calls) <= 12
            assert np.linalg.norm(hess_ff @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
            jacobi = solve_spd(hess_ff, rhs, 1e-12)
            assert np.linalg.norm(x - jacobi) <= 1e-10 * np.linalg.norm(jacobi)

    def test_non_rotation_invariant_operator_rejected(self, params):
        # Read from sector 0 only, the inverse is wrong for this operator;
        # the build-time check must notice and fall back to Jacobi.
        mesh = build_annulus_mesh(GeometrySpec(kind="planar2d", dimension=2,
                                               r1=0.5, r2=1.0, h=0.1))
        system = assemble(mesh, params)
        k_ff = system.restrict(system.K)
        bumped = k_ff + sp.diags(np.linspace(0.0, 1.0, k_ff.shape[0]))
        assert sector_inverse(system, k_ff) is not None
        assert sector_inverse(system, bumped.tocsr()) is None

    @pytest.mark.parametrize("case", ["planar-refined", "planar-custom-dirichlet",
                                      "radial-custom-dirichlet"])
    def test_other_layouts_fall_back_to_jacobi(self, params, case):
        if case.startswith("planar"):
            mesh = build_annulus_mesh(GeometrySpec(kind="planar2d", dimension=2,
                                                   r1=0.5, r2=1.0, h=0.2))
        else:
            mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3,
                                                  r1=0.5, r2=1.0, h=0.03125))
        dirichlet = None
        if case == "planar-refined":
            mesh = refine(mesh)
            assert mesh.sectors == 0
        else:
            dirichlet = np.append(mesh.s_nodes, 0)
        system = assemble(mesh, params, dirichlet_nodes=dirichlet)
        for base in _constant_parts(system, 0.05).values():
            base_ff = system.restrict(base)
            assert sector_inverse(system, base_ff) is None
            rhs = np.cos(np.arange(base_ff.shape[0], dtype=float))
            exact = np.linalg.solve(base_ff.toarray(), rhs)
            x = solve_spd(base_ff, rhs, 1e-13, precondition=None)
            assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)


class TestStationary:
    def test_reaction_disabled_gives_zero(self, desk, params):
        mesh, _ = desk
        system = assemble(mesh, params, reaction=False)
        result = stationary_solve(system, params, SolverConfig(), zero_field(mesh))
        assert result.converged
        assert result.iterations == 0
        assert np.array_equal(result.field, np.zeros(mesh.n_nodes))
        assert result.energy == 0.0

    def test_uniqueness_across_inits(self, desk, params):
        mesh, system = desk
        cfg = SolverConfig()
        a = stationary_solve(system, params, cfg, zero_field(mesh))
        b = stationary_solve(system, params, cfg, ramp_field(mesh, params))
        assert a.converged and b.converged
        assert h_norm(system, a.field - b.field) <= 1e-8

    def test_energy_decreases_from_init(self, desk, params):
        mesh, system = desk
        cfg = SolverConfig()
        init = ramp_field(mesh, params)
        result = stationary_solve(system, params, cfg, init)
        assert result.energy <= energy(system, init, params)

    def test_residual_below_tolerance(self, desk, params):
        mesh, system = desk
        cfg = SolverConfig()
        result = stationary_solve(system, params, cfg, zero_field(mesh))
        g = energy_gradient(system, result.field, params)
        assert dual_norm(system, g) <= cfg.newton_tol * max(1.0, result.residual_history[0])

    def test_terminal_quadratic_convergence(self, desk, params):
        # residual ratios r_{k+1}/r_k^2 stay bounded in the terminal phase
        mesh, system = desk
        result = stationary_solve(system, params, SolverConfig(), zero_field(mesh))
        hist = result.residual_history
        assert len(hist) >= 3
        ratios = [hist[k + 1] / hist[k] ** 2 for k in range(len(hist) - 1)
                  if hist[k] < 1e-2 * hist[0]]
        assert ratios, "no terminal-phase iterations recorded"
        assert max(ratios) < 1e3

    def test_max_iter_flag(self, desk, params):
        mesh, system = desk
        cfg = SolverConfig(newton_tol=1e-10, newton_max_iter=1)
        result = stationary_solve(system, params, cfg, ramp_field(mesh, params))
        assert not result.converged
        assert result.iterations == 1


class TestImplicitEuler:
    def test_stationary_is_fixed_point(self, desk, params):
        mesh, system = desk
        cfg = SolverConfig(dt=0.1, t_end=1.0)
        star = stationary_solve(system, params, cfg, zero_field(mesh)).field
        nxt = step_implicit_euler(system, params, cfg, star)
        assert np.array_equal(nxt, star)  # frozen exactly

    def test_small_step_continuity(self, desk, params):
        mesh, system = desk
        dt = 1e-8
        cfg = SolverConfig(dt=dt, t_end=1.0)
        rng = np.random.default_rng(12)
        u_n = field_from_values(mesh, 0.02 * rng.standard_normal(mesh.n_nodes))
        nxt = step_implicit_euler(system, params, cfg, u_n)
        g = energy_gradient(system, u_n, params)
        bound = 2.0 * dt * dual_norm(system, g) + 2.0 * dt * cfg.newton_tol
        assert h_norm(system, nxt - u_n) <= bound

    def test_proximal_inequality(self, desk, params):
        mesh, system = desk
        cfg = SolverConfig(dt=0.05, t_end=1.0)
        rng = np.random.default_rng(14)
        u = field_from_values(mesh, 0.5 * rng.standard_normal(mesh.n_nodes))
        e0 = energy(system, u, params)
        for _ in range(5):
            nxt = step_implicit_euler(system, params, cfg, u)
            e1 = energy(system, nxt, params)
            d = nxt - u
            prox = e1 + float(d @ (system.M @ d)) / (2 * cfg.dt)
            assert prox <= energy(system, u, params) + 1e-12 * max(1.0, abs(e0))
            u = nxt

    def test_line_search_resolves_decrements_below_energy_rounding(self, repo_root):
        # The stored field is perfbench/inputs.py `low_mode_field(mesh, c0, 12)`
        # on this mesh (2049 nodes). Near the step's minimizer the Newton
        # decrement (about 1e-16) is far below the rounding of E (about 1e-13),
        # so an Armijo test on differences of objective values rejected every
        # trial and Newton stopped at dual residual 7.7e-8 after 50 iterations.
        config = load_config(repo_root / "configs" / "radial_desk.cfg",
                             ["geometry.h=0.00048828125"])
        params, cfg = config.model, config.solver
        mesh = build_mesh(config.geometry)
        system = assemble(mesh, params)
        u_n = field_from_values(
            mesh, np.load(repo_root / "tests" / "data" / "radial_fine_low_mode_seed12.npy"))
        e0 = energy(system, u_n, params)
        nxt = step_implicit_euler(system, params, cfg, u_n)
        d = nxt - u_n
        prox = energy(system, nxt, params) + float(d @ (system.M @ d)) / (2 * cfg.dt)
        assert prox <= e0 + 1e-12 * max(1.0, abs(e0))

    def test_one_step_vs_fine_explicit_oracle(self, desk, params):
        # Frozen regression: implicit vs forward-Euler reference with 1e-6
        # substeps, one dt = 0.1 step from zero. The mismatch is dominated by
        # modes with lambda*dt about 1 (the zero state excites the full
        # spectrum), so it is a recorded constant rather than O(dt).
        mesh, system = desk
        cfg = SolverConfig(dt=0.1, t_end=1.0)
        u_impl = step_implicit_euler(system, params, cfg, zero_field(mesh))

        free = system.free
        lu = spla.splu(system.M[free][:, free].tocsc())
        u = np.zeros(mesh.n_nodes)
        dt_sub = 1e-6
        for _ in range(int(round(cfg.dt / dt_sub))):
            g = energy_gradient(system, u, params)
            u[free] -= dt_sub * lu.solve(g[free])
        rel = h_norm(system, u_impl - u) / h_norm(system, u)
        assert rel == pytest.approx(0.2100, abs=5e-3)

    def test_invalid_dt(self, desk, params):
        mesh, system = desk
        with pytest.raises(ValueError):
            step_implicit_euler(system, params, SolverConfig(), zero_field(mesh))


@pytest.fixture(scope="module")
def desk_trace(desk, params):
    mesh, system = desk
    cfg = SolverConfig(dt=0.05, t_end=10.0)
    return evolve(system, params, cfg, zero_field(mesh)), cfg


class TestEvolve:

    def test_trace_shape_and_completion(self, desk_trace):
        trace, cfg = desk_trace
        assert len(trace) == 201
        assert trace.meta["completed"]
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(10.0, abs=1e-12)

    def test_energy_monotone(self, desk_trace):
        trace, _ = desk_trace
        slack = 1e-12 * max(1.0, abs(trace.energies[0]))
        assert np.all(np.diff(trace.energies) <= slack)

    def test_err_h_monotone(self, desk_trace):
        trace, cfg = desk_trace
        slack = 2 * cfg.dt * cfg.newton_tol + 1e-12 * trace.err_H[0]
        assert np.all(np.diff(trace.err_H) <= slack)

    def test_from_stationary_stays_flat(self, desk, params):
        mesh, system = desk
        cfg = SolverConfig(dt=0.05, t_end=0.5)
        star = stationary_solve(system, params, cfg, zero_field(mesh)).field
        trace = evolve(system, params, cfg, star)
        assert np.max(trace.err_H) <= 1e-9
        assert np.all(trace.newton_iters == 0)

    def test_contraction_between_trajectories(self, desk, params):
        mesh, system = desk
        cfg = SolverConfig(dt=0.05, t_end=1.0)
        u = zero_field(mesh)
        v = ramp_field(mesh, params)
        gap = [h_norm(system, u - v)]
        for _ in range(int(round(cfg.t_end / cfg.dt))):
            u = step_implicit_euler(system, params, cfg, u)
            v = step_implicit_euler(system, params, cfg, v)
            gap.append(h_norm(system, u - v))
        slack = 2 * cfg.dt * cfg.newton_tol + 1e-12 * gap[0]
        assert np.all(np.diff(gap) <= slack)

    def test_decay_self_consistency(self, desk_trace, desk, params):
        # over the fit window the trace follows its own fitted rate
        from coreshell import estimate_gamma, fit_decay_rate

        trace, _ = desk_trace
        _, system = desk
        report = fit_decay_rate(trace, gamma_disc=estimate_gamma(system, params))
        lo, hi = report.window
        predicted = trace.err_H[lo] * np.exp(
            -report.beta_fit * (trace.times[hi - 1] - trace.times[lo]))
        assert trace.err_H[hi - 1] <= 1.05 * predicted
        assert trace.err_H[hi - 1] >= 0.95 * predicted

    def test_err_v_stays_bounded(self, desk_trace):
        # V-norm boundedness along the trajectory once the energy has dropped
        trace, _ = desk_trace
        assert np.all(trace.energies[1:] <= trace.energies[0] + 1e-12)
        assert np.all(trace.err_V[1:] <= 10.0 * trace.err_V[0])

    def test_first_order_in_dt(self, desk, params):
        # trajectory states at fixed T under dt halving: O(dt) global error
        mesh, system = desk
        t_final = 0.1
        states = {}
        for dt in (0.05, 0.025, 0.0125):
            cfg = SolverConfig(dt=dt, t_end=t_final)
            u = zero_field(mesh)
            for _ in range(int(round(t_final / dt))):
                u = step_implicit_euler(system, params, cfg, u)
            states[dt] = u
        d1 = h_norm(system, states[0.05] - states[0.025])
        d2 = h_norm(system, states[0.025] - states[0.0125])
        assert 1.5 <= d1 / d2 <= 2.5

    def test_requires_time_parameters(self, desk, params):
        mesh, system = desk
        with pytest.raises(ValueError):
            evolve(system, params, SolverConfig(dt=0.1), zero_field(mesh))


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.newton_tol == 1e-10
        assert cfg.newton_max_iter == 50
        assert cfg.linear_tol == 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [dict(newton_tol=0.0), dict(newton_max_iter=0), dict(linear_tol=-1.0)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_step_cap(self):
        SolverConfig(dt=0.5, t_end=0.5 * MAX_STEPS).require_timestep()
        with pytest.raises(ValueError, match=f"= {MAX_STEPS + 1} exceeds"):
            SolverConfig(dt=0.5, t_end=0.5 * (MAX_STEPS + 1)).require_timestep()
