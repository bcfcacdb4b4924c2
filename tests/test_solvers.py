from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from coreshell import (
    GeometrySpec,
    LinearSolveError,
    ModelParams,
    NonlinearSolveError,
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
    solve_spd,
    stationary_solve,
    step_implicit_euler,
    zero_field,
)
from coreshell.config import load_config
from coreshell.fem import (SparseOperator, dot_fields, dual_norm, error_norms,
                           reaction_jacobian_diagonal, reaction_vector)
from coreshell.model import consumption_rate, consumption_rate_slope
from coreshell import solvers
from coreshell.solvers import (
    MAX_STEPS,
    NEWTON_MAX_ITER,
    NEWTON_TOL,
    _constant_part,
    sector_inverse,
)

from refinement import refine


@pytest.fixture(scope="module")
def params():
    return ModelParams(b1=1.0, b2=5.0, c0=1.0, c1=2.0)


@pytest.fixture(scope="module")
def desk(params):
    mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.0078125))
    return mesh, assemble(mesh, params)


def _row_abs(matrix):
    """Row sums of |matrix| for a scipy sparse matrix, as a flat array."""
    return np.asarray(abs(matrix).sum(axis=1)).ravel()


class TestSolveSpd:
    def test_identity(self):
        rhs = np.array([3.0, -1.0, 2.0])
        matrix = sp.identity(3, format="csr")
        x = solve_spd(matrix, rhs, _row_abs(matrix))
        assert np.allclose(x, rhs, atol=1e-12)

    def test_constructed_solution(self, desk, params):
        _, system = desk
        k = system.eliminate(system.K)
        x_true = np.sin(np.arange(k.shape[0], dtype=float))
        rhs = k @ x_true
        x = solve_spd(k, rhs, k.abs_row_sums())
        assert np.linalg.norm(x - x_true) / np.linalg.norm(x_true) < 1e-8

    def test_against_dense_factorization(self):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((50, 50))
        matrix = sp.csr_matrix(a @ a.T + 50.0 * np.eye(50))
        rhs = rng.standard_normal(50)
        x = solve_spd(matrix, rhs, _row_abs(matrix))
        x_dense = np.linalg.solve(matrix.toarray(), rhs)
        assert np.linalg.norm(x - x_dense) / np.linalg.norm(x_dense) < 1e-10

    def test_zero_rhs(self):
        matrix = sp.identity(4, format="csr")
        x = solve_spd(matrix, np.zeros(4), _row_abs(matrix))
        assert np.array_equal(x, np.zeros(4))

    def test_indefinite_reported(self):
        matrix = sp.csr_matrix(np.diag([1.0, -1.0]))
        with pytest.raises(LinearSolveError):
            solve_spd(matrix, np.array([1.0, 1.0]), _row_abs(matrix))

    def test_non_positive_curvature_reported(self):
        # The diagonal is positive, so the solve passes its diagonal check;
        # the first direction (1, -1) has curvature -2.
        matrix = sp.csr_matrix(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(LinearSolveError, match="non-positive curvature"):
            solve_spd(matrix, np.array([1.0, -1.0]), _row_abs(matrix))

    def test_deterministic(self, desk):
        _, system = desk
        k = system.eliminate(system.K)
        rhs = np.cos(np.arange(k.shape[0], dtype=float))
        row_abs = k.abs_row_sums()
        assert np.array_equal(solve_spd(k, rhs, row_abs), solve_spd(k, rhs, row_abs))

    def test_stops_at_its_rounding(self, params):
        # With the exact chain inverse the first step solves the system to
        # the product's rounding, about 5e-11 relative at h=2^-11 for a
        # smooth right-hand side, and CG stops there.
        mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0,
                                              h=2.0**-11))
        system = assemble(mesh, params)
        matrix, inverse, row_abs = _constant_part(system, system.K + system.M / 0.05)
        rhs = system.M @ np.cos(mesh.node_radii())
        rhs[system.mask] = 0.0
        apply, calls = _counted(inverse)
        x = solve_spd(matrix, rhs, row_abs, precondition=apply)
        assert len(calls) == 1
        floor = np.linalg.norm(solvers.term_rounding(x, row_abs, np.abs(rhs)))
        assert np.linalg.norm(rhs - matrix @ x) <= solvers.ROUNDING_FACTOR * floor

    # The stop test compares the residual with the rounding of the terms it
    # is formed from, so it has no scale of its own: scaling the matrix by
    # 2^k and the right-hand side by 2^j scales every CG quantity exactly,
    # and the solve takes the same steps to x 2^(j-k), bit for bit. The
    # system is evolve's first Newton system from the seed-1 low-mode start.
    @pytest.mark.parametrize("name, overrides", [
        pytest.param("annulus_desk.cfg", [], id="annulus_desk.cfg"),
        pytest.param("radial_desk.cfg", [], id="radial_desk.cfg"),
        pytest.param("radial_desk.cfg", [f"geometry.h={2.0**-11}"], id="radial-h2^-11"),
    ])
    def test_power_of_two_scaling(self, repo_root, monkeypatch, name, overrides):
        monkeypatch.syspath_prepend(str(repo_root / "perfbench"))
        from inputs import low_mode_field

        config = load_config(repo_root / "configs" / name, overrides)
        mesh = build_mesh(config.geometry)
        system = assemble(mesh, config.model)
        base = system.eliminate(system.K + system.M / config.solver.dt)
        u = low_mode_field(mesh, config.model.c0, 1)
        diagonal = reaction_jacobian_diagonal(system, u, config.model)
        rhs = -energy_gradient(system, u, config.model)
        solves = []  # (solution scaled back, preconditioner applies)
        for k, j in [(0, 0), (20, 0), (-20, 5), (7, -30)]:
            scaled, shift = base * 2.0**k, diagonal * 2.0**k
            apply, calls = _counted(sector_inverse(system, scaled).shifted(shift))
            x = solve_spd(scaled.plus_diagonal(shift), rhs * 2.0**j,
                          scaled.abs_row_sums() + shift, precondition=apply)
            solves.append((x * 2.0**(k - j), len(calls)))
        (x, applies), *others = solves
        assert applies >= 1
        for other, other_applies in others:
            assert other_applies == applies
            assert np.array_equal(other, x)


def _constant_parts(system, dt):
    return {"K": system.K, "K + M/dt": system.K + system.M / dt, "Kt": system.Kt}


def _counted(precondition):
    """Wrap a preconditioner; PCG calls it once per iteration."""
    calls = []

    def apply(r):
        calls.append(1)
        return precondition(r)

    return apply, calls


class TestSectorInverse:
    # The desk configs, and the sizes the benchmark runs: the planar ring
    # path at h=0.025 and the radial chain at h=2^-11, plus a 2-D radial chain.
    @pytest.mark.parametrize("name, overrides, nodes, sectors", [
        pytest.param("annulus_desk.cfg", [], 631, 63, id="annulus_desk.cfg"),
        pytest.param("radial_desk.cfg", [], 129, 1, id="radial_desk.cfg"),
        pytest.param("annulus_desk.cfg", ["geometry.h=0.025"], 10081, 252, id="planar-h0.025"),
        pytest.param("radial_desk.cfg", [f"geometry.h={2.0**-11}"], 2049, 1,
                     id="radial-h2^-11"),
        pytest.param("radial_desk.cfg", ["geometry.dimension=2"], 129, 1,
                     id="radial-dimension-2"),
    ])
    def test_exact_on_shipped_configs(self, repo_root, name, overrides, nodes, sectors):
        config = load_config(repo_root / "configs" / name, overrides)
        mesh = build_mesh(config.geometry)
        assert (mesh.n_nodes, mesh.sectors) == (nodes, sectors)
        system = assemble(mesh, config.model)
        rng = np.random.default_rng(23)
        for label, base in _constant_parts(system, config.solver.dt).items():
            eliminated = system.eliminate(base)
            apply = sector_inverse(system, eliminated)
            assert apply is not None, label
            r = rng.standard_normal(eliminated.shape[0])
            miss = np.linalg.norm(eliminated @ apply(r) - r)
            assert miss <= 1e-10 * np.linalg.norm(r), label

    def test_few_iterations_with_reaction_diagonal(self, params):
        mesh = build_annulus_mesh(GeometrySpec(kind="planar2d", dimension=2,
                                               r1=0.5, r2=1.0, h=0.05))
        system = assemble(mesh, params)
        for base in _constant_parts(system, 0.05).values():
            eliminated = system.eliminate(base)
            hessian = eliminated.plus_diagonal(
                reaction_jacobian_diagonal(system, ramp_field(mesh, params), params))
            rhs = np.sin(np.arange(mesh.n_nodes, dtype=float))
            apply, calls = _counted(sector_inverse(system, eliminated))
            row_abs = hessian.abs_row_sums()
            x = solve_spd(hessian, rhs, row_abs, precondition=apply)
            assert 1 <= len(calls) <= 12
            assert np.linalg.norm(hessian @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
            jacobi = solve_spd(hessian, rhs, row_abs)
            assert np.linalg.norm(x - jacobi) <= 1e-10 * np.linalg.norm(jacobi)

    def test_wrong_layout_costs_iterations_not_correctness(self, params):
        # The couplings are read from sector 0 only, so for an operator that
        # is not rotation-invariant the inverse is approximate. It is still
        # SPD, so PCG with it converges to the same solution as Jacobi.
        mesh = build_annulus_mesh(GeometrySpec(kind="planar2d", dimension=2,
                                               r1=0.5, r2=1.0, h=0.1))
        system = assemble(mesh, params)
        k = system.eliminate(system.K)
        bumped = k.plus_diagonal(np.linspace(0.0, 1.0, k.shape[0]))
        apply, calls = _counted(sector_inverse(system, bumped))
        rhs = np.cos(np.arange(k.shape[0], dtype=float))
        row_abs = bumped.abs_row_sums()
        x = solve_spd(bumped, rhs, row_abs, precondition=apply)
        assert len(calls) > 1
        assert np.linalg.norm(bumped @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
        jacobi = solve_spd(bumped, rhs, row_abs)
        assert np.linalg.norm(x - jacobi) <= 1e-10 * np.linalg.norm(jacobi)

    @pytest.mark.parametrize("case", ["planar-refined", "planar-custom-dirichlet",
                                      "radial-custom-dirichlet"])
    def test_other_layouts_fall_back_to_jacobi(self, params, case):
        if case.startswith("planar"):
            mesh = build_annulus_mesh(GeometrySpec(kind="planar2d", dimension=2,
                                                   r1=0.5, r2=1.0, h=0.2))
        else:
            mesh = build_radial_mesh(GeometrySpec(kind="radial", dimension=3,
                                                  r1=0.5, r2=1.0, h=0.03125))
        if case == "planar-refined":
            mesh = refine(mesh)
            assert mesh.sectors == 0
        else:
            mesh = replace(mesh, s_nodes=np.append(mesh.s_nodes, 0))
        system = assemble(mesh, params)
        for base in _constant_parts(system, 0.05).values():
            eliminated = system.eliminate(base)
            assert sector_inverse(system, eliminated) is None
            rhs = np.cos(np.arange(eliminated.shape[0], dtype=float))
            exact = np.linalg.solve(eliminated.toarray(), rhs)
            x = solve_spd(eliminated, rhs, eliminated.abs_row_sums(), precondition=None)
            assert np.linalg.norm(x - exact) <= 1e-10 * np.linalg.norm(exact)


def _ring_constant(system, rng):
    """A nonnegative diagonal that is constant on each ring and zero on the masked ring."""
    sectors = system.mesh.sectors
    n_rings = (system.n_nodes - 1) // sectors - 1
    return np.concatenate([rng.uniform(0.0, 1.0, 1),
                           np.repeat(rng.uniform(0.0, 1.0, n_rings), sectors), np.zeros(sectors)])


class TestShiftedSectorInverse:
    # The ring means of a ring-constant diagonal are its values, so the
    # shifted factor inverts the constant part plus that diagonal exactly.
    @pytest.mark.parametrize("name, overrides", [
        pytest.param("annulus_desk.cfg", [], id="annulus_desk.cfg"),
        pytest.param("annulus_desk.cfg", ["geometry.h=0.025"], id="planar-h0.025"),
        pytest.param("radial_desk.cfg", [], id="radial_desk.cfg"),
    ])
    def test_exact_with_ring_constant_diagonal(self, repo_root, name, overrides):
        config = load_config(repo_root / "configs" / name, overrides)
        system = assemble(build_mesh(config.geometry), config.model)
        eliminated = system.eliminate(system.K + system.M / config.solver.dt)
        inverse = sector_inverse(system, eliminated)
        rng = np.random.default_rng(5)
        for _ in range(3):
            shift = _ring_constant(system, rng)
            r = rng.standard_normal(system.n_nodes)
            miss = np.linalg.norm(eliminated.plus_diagonal(shift) @ inverse.shifted(shift)(r) - r)
            assert miss <= 1e-10 * np.linalg.norm(r)

    # The ring inverse is exact or the solve breaks down: a ring pivot that
    # is not finite raises, as a CG breakdown does, and no numpy
    # RuntimeWarning escapes (the suite turns them into errors).
    @pytest.mark.parametrize("system_name", ["annulus_desk_system", "radial_desk_system"])
    def test_unusable_shift_breaks_down(self, request, system_name):
        system = request.getfixturevalue(system_name)
        eliminated = system.eliminate(system.K)
        inverse = sector_inverse(system, eliminated)
        shift = np.zeros(system.n_nodes)
        shift[3] = np.nan
        with pytest.raises(LinearSolveError, match="ring pivot .* is not finite"):
            inverse.shifted(shift)
        # a shift that zeroes the center's pivot
        shift = np.zeros(system.n_nodes)
        shift[0] = -eliminated[0, 0]
        with pytest.raises(LinearSolveError, match="ring pivot .* is not finite"):
            inverse.shifted(shift)

    @pytest.mark.parametrize("system_name", ["annulus_desk_system", "radial_desk_system"])
    def test_infinite_shift_gives_a_zero_pivot(self, request, system_name):
        # +inf on a ring gives that ring a zero inverse pivot: a finite factor.
        system = request.getfixturevalue(system_name)
        inverse = sector_inverse(system, system.eliminate(system.K))
        shift = np.zeros(system.n_nodes)
        shift[3] = np.inf
        inverse.shifted(shift)

    @pytest.mark.parametrize("name", ["annulus_desk.cfg", "radial_desk.cfg"])
    def test_newton_breakdown_in_shifted_exits_3(self, repo_root, tmp_path, monkeypatch, name):
        # A reaction diagonal that is not finite breaks the shifted factor
        # down inside Newton; the error propagates like a CG breakdown.
        from coreshell.cli import main

        def nan_diagonal(system, u, params):
            return np.full(system.n_nodes, np.nan)

        monkeypatch.setattr(solvers, "reaction_jacobian_diagonal", nan_diagonal)
        config = load_config(repo_root / "configs" / name)
        mesh = build_mesh(config.geometry)
        system = assemble(mesh, config.model)
        with pytest.raises(LinearSolveError, match="ring pivot .* is not finite") as raised:
            stationary_solve(system, config.model, zero_field(mesh))
        assert raised.traceback[-1].name == "__init__"
        assert raised.traceback[-2].name == "shifted"
        argv = ["stationary", str(repo_root / "configs" / name), "--output-dir", str(tmp_path)]
        assert main(argv) == 3


class TestNewtonPreconditioner:
    # On a chain each ring is one node, so the shifted factor is the exact
    # inverse of every Newton Hessian and PCG stops after its first step. At
    # h=2^-11 the residual after that step is the rounding of the product,
    # about 5e-11 relative (the condition number grows as h^-2), below CG's
    # rounding stop, so no solve takes a second step. A stationary solve from
    # zero stays rotation-invariant, so planar rings get an exact inverse too.
    @pytest.mark.parametrize("name, overrides, applies", [
        pytest.param("radial_desk.cfg", [], 1, id="radial_desk.cfg"),
        pytest.param("radial_desk.cfg", [f"geometry.h={2.0**-11}"], 1, id="radial-h2^-11"),
        pytest.param("annulus_desk.cfg", [], 1, id="annulus_desk.cfg"),
    ])
    def test_exact_solves(self, repo_root, monkeypatch, name, overrides, applies):
        monkeypatch.syspath_prepend(str(repo_root / "perfbench"))
        from inputs import low_mode_field

        config = load_config(repo_root / "configs" / name, overrides)
        mesh = build_mesh(config.geometry)
        system = assemble(mesh, config.model)
        counts = []  # per Newton solve, one entry per preconditioner apply
        solve = solvers.solve_spd

        def counting(matrix, rhs, row_abs, precondition=None):
            apply, calls = _counted(precondition)
            counts.append(calls)
            return solve(matrix, rhs, row_abs, precondition=apply)

        monkeypatch.setattr(solvers, "solve_spd", counting)
        assert stationary_solve(system, config.model, zero_field(mesh)).converged
        if mesh.sectors == 1:
            trace = evolve(system, config.model, config.solver,
                           low_mode_field(mesh, config.model.c0, 1))
            assert trace.failure is None and trace.newton_iters.sum() > 0
        assert {len(calls) for calls in counts} == {applies}


class TestHighContrast:
    # Up to the contrast limit the ring inverse is exact to rounding and is
    # kept, so a stationary solve from zero takes a few sparse products;
    # Jacobi-CG takes hundreds to thousands here.
    @pytest.mark.parametrize("b1", ["5e8", "5e9"])
    @pytest.mark.parametrize("name, overrides", [
        pytest.param("radial_desk.cfg", [], id="radial_desk.cfg"),
        pytest.param("annulus_desk.cfg", [], id="annulus_desk.cfg"),
        pytest.param("annulus_desk.cfg", ["geometry.h=0.025"], id="planar-h0.025"),
        pytest.param("radial_desk.cfg", [f"geometry.h={2.0**-11}"], id="radial-h2^-11"),
        pytest.param("radial_desk.cfg", ["geometry.dimension=2"], id="radial-dimension-2"),
    ])
    def test_stationary_takes_few_products(self, repo_root, sparse_products, name, overrides, b1):
        config = load_config(repo_root / "configs" / name, [*overrides, f"model.b1={b1}"])
        mesh = build_mesh(config.geometry)
        system = assemble(mesh, config.model)
        sparse_products.clear()
        assert stationary_solve(system, config.model, zero_field(mesh)).converged
        assert len(sparse_products) <= 40

    # A stiff shell: at b2 = 1e300 the shell entries of a Newton correction
    # are about |rhs| / b2 = 1e-313, subnormal, so the exact ring inverse
    # leaves a residual of about 1e-21, above a stop of 16 eps ||row_abs |x|
    # + |b||| that assumes no underflow, and CG runs past its attainable
    # accuracy into a non-positive curvature. `term_rounding`'s underflow
    # term, EPS * TINY per unit of row_abs, puts the stop above it. (The
    # stationary solve at b2 = 1e305 is `test_cli`'s.)
    @pytest.mark.parametrize("name", ["annulus_desk.cfg", "radial_desk.cfg"])
    def test_stiff_shell_evolves(self, repo_root, name):
        config = load_config(repo_root / "configs" / name, ["model.b2=1e300", "solver.t_end=1"])
        system = assemble(build_mesh(config.geometry), config.model)
        trace = evolve(system, config.model, config.solver, zero_field(system.mesh))
        assert trace.failure is None


class TestNewtonEvaluations:
    # Newton starts at its proximal center, so the proximal term vanishes
    # there and M (u - c) is first formed after an accepted step. Each state
    # is evaluated once: u0 by `evolve`, every later state by the Newton
    # call that reached it, which hands its evaluation to the next step. So
    # outside the stationary reference the only all-zero operand left is the
    # K 0 of a zero u0, one per step that starts from the zero field, and
    # the only potential evaluated outside Newton is u0's. Within a Newton
    # call each iterate's potential is evaluated at most once, the accepted
    # trial's opening the next line search.
    @pytest.mark.parametrize("name", ["radial_desk.cfg", "annulus_desk.cfg"])
    @pytest.mark.parametrize("start", ["zero", "low-mode"])
    def test_each_iterate_evaluated_once(self, repo_root, monkeypatch, name, start):
        monkeypatch.syspath_prepend(str(repo_root / "perfbench"))
        from inputs import low_mode_field

        config = load_config(repo_root / "configs" / name)
        mesh = build_mesh(config.geometry)
        system = assemble(mesh, config.model)
        u0 = (zero_field(mesh) if start == "zero"
              else low_mode_field(mesh, config.model.c0, 1))

        in_reference, zero_starts, zero_products = [], [], []
        product = SparseOperator.__matmul__

        def counting_product(matrix, x):
            if not in_reference and not np.any(x):
                zero_products.append(1)
            return product(matrix, x)

        stationary, step = solvers.stationary_solve, solvers._step_implicit_euler_counted

        def flagged_stationary(*args, **kwargs):
            in_reference.append(1)
            try:
                return stationary(*args, **kwargs)
            finally:
                in_reference.pop()

        def counting_step(system, params, cfg, u_n, constant, evaluation=None):
            zero_starts.append(not np.any(u_n))
            return step(system, params, cfg, u_n, constant, evaluation)

        # per Newton call, the bytes of each potential argument; and those
        # evaluated outside every Newton call
        evaluated, in_newton, outside = [], [], []
        newton, potential = solvers._newton_minimize, solvers.consumption_potential

        def counting_newton(*args, **kwargs):
            evaluated.append([])
            in_newton.append(1)
            try:
                return newton(*args, **kwargs)
            finally:
                in_newton.pop()

        def counting_potential(s, params):
            (evaluated[-1] if in_newton else outside).append(s.tobytes())
            return potential(s, params)

        monkeypatch.setattr(SparseOperator, "__matmul__", counting_product)
        monkeypatch.setattr(solvers, "stationary_solve", flagged_stationary)
        monkeypatch.setattr(solvers, "_step_implicit_euler_counted", counting_step)
        monkeypatch.setattr(solvers, "_newton_minimize", counting_newton)
        monkeypatch.setattr(solvers, "consumption_potential", counting_potential)
        trace = evolve(system, config.model, config.solver, u0)

        assert trace.failure is None and trace.newton_iters.sum() > 0
        assert len(zero_starts) > 1
        assert len(zero_products) == sum(zero_starts)
        assert all(len(set(points)) == len(points) for points in evaluated)
        assert len(outside) == 1


@pytest.fixture(scope="module")
def refined_planar(params):
    """A refined planar system: `refine` appends the new outer-boundary nodes,
    so the Dirichlet nodes are scattered and every solve runs Jacobi-CG."""
    mesh = refine(build_annulus_mesh(GeometrySpec(kind="planar2d", dimension=2,
                                                  r1=0.5, r2=1.0, h=0.2)))
    system = assemble(mesh, params)
    masked = np.flatnonzero(system.mask)
    assert masked[-1] - masked[0] >= mesh.n_nodes // 2
    assert sector_inverse(system, system.eliminate(system.K)) is None
    return system


def dense_free_block_solve(system, params, base, load):
    """Zero of base u - reaction(u) - load on the free nodes, by Newton with
    dense solves of the free-by-free block."""
    free = ~system.mask
    a = base.toarray()[free][:, free]
    m1, b = system.M1[free], load[free]
    u = np.zeros(a.shape[0])
    for _ in range(50):
        g = a @ u - m1 * consumption_rate(u, params) - b
        if np.linalg.norm(g) <= 1e-15 * max(1.0, np.linalg.norm(b)):
            break
        u -= np.linalg.solve(a + np.diag(-m1 * consumption_rate_slope(u, params)), g)
    return u


class TestTinyRightHandSide:
    # solve_spd solves for the rhs scaled to a largest entry in [1, 2), so a
    # rhs whose squares underflow (1e-170 and below) is not taken for zero,
    # and an exactly scaled rhs gives the exactly scaled solution.
    @pytest.mark.parametrize("name", ["annulus_desk_system", "radial_desk_system", "refined"])
    def test_scaled_rhs_gives_the_scaled_solution(self, request, refined_planar, name):
        system = refined_planar if name == "refined" else request.getfixturevalue(name)
        matrix, precondition, row_abs = _constant_part(system, system.Kt)
        rng = np.random.default_rng(3)
        rhs = np.where(system.mask, 0.0, rng.uniform(-1.0, 1.0, system.n_nodes))
        x = solve_spd(matrix, rhs, row_abs, precondition)
        tiny = solve_spd(matrix, np.ldexp(rhs, -564), row_abs, precondition)
        assert np.any(x != 0.0)
        assert np.array_equal(tiny, np.ldexp(x, -564))


class TestScaleCovariance:
    # Scaling by s = 2^k, (b1/s, b2/s, s c0, s c1, s dt, s t_end), scales the
    # field by s and leaves the gradient, its rounding floor and Newton's
    # stopping rule unchanged, so the solver path is bitwise covariant, and
    # so is the record: energies, err_H, err_V and the energy rounding scale
    # by s. At k = -664 (c0 about 1e-200) the squared gap (c1 - z)^2 and an
    # unscaled e.(M e) underflow, and from k = 520 e.(Kt e) and u.u
    # overflow, unless each is formed at a scale of its own. At k = -1000
    # the Newton corrections are subnormal, so only the solve and the counts
    # are asserted; CG's stop must count gradual underflow there.
    @pytest.mark.parametrize("name", ["annulus_desk.cfg", "radial_desk.cfg"])
    def test_power_of_two_scaling(self, repo_root, name):
        runs = {}
        for k in (0, -20, 20, -664, 512, 664, -1000):
            s = 2.0**k
            overrides = [f"model.b1={1.0 / s!r}", f"model.b2={5.0 / s!r}",
                         f"model.c0={s!r}", f"model.c1={2.0 * s!r}",
                         f"solver.dt={0.05 * s!r}", f"solver.t_end={s!r}"]
            config = load_config(repo_root / "configs" / name, overrides)
            mesh = build_mesh(config.geometry)
            system = assemble(mesh, config.model)
            stationary = stationary_solve(system, config.model, zero_field(mesh))
            trace = evolve(system, config.model, config.solver, zero_field(mesh))
            assert stationary.converged and trace.failure is None, k
            runs[k] = (s, stationary, trace)
        _, reference, reference_trace = runs.pop(0)
        for k, (s, stationary, trace) in runs.items():
            assert stationary.iterations == reference.iterations, k
            assert np.array_equal(trace.newton_iters, reference_trace.newton_iters), k
            if k == -1000:
                continue
            assert np.array_equal(stationary.field, s * reference.field), k
            for column in ("energies", "err_H", "err_V", "energy_rounding"):
                assert np.array_equal(getattr(trace, column),
                                      s * getattr(reference_trace, column)), (k, column)


class TestElimination:
    @pytest.mark.parametrize("name", ["annulus_desk.cfg", "radial_desk.cfg", "refined"])
    def test_constant_part_on_the_system_pattern(self, repo_root, refined_planar, name):
        if name == "refined":
            system, dt = refined_planar, 0.05
        else:
            config = load_config(repo_root / "configs" / name)
            system = assemble(build_mesh(config.geometry), config.model)
            dt = config.solver.dt
        base = system.K + system.M / dt
        eliminated = _constant_part(system, base)[0]
        assert eliminated.pattern is system.K.pattern
        mask, free = system.mask, ~system.mask
        dense = eliminated.toarray()
        assert np.array_equal(dense[mask][:, mask], np.eye(np.count_nonzero(mask)))
        assert not dense[mask][:, free].any() and not dense[free][:, mask].any()
        assert np.array_equal(dense[free][:, free], base.toarray()[free][:, free])

    def test_solves_match_dense_free_block(self, refined_planar, params):
        system, mesh = refined_planar, refined_planar.mesh
        free = ~system.mask
        cfg = SolverConfig(dt=0.05, t_end=1.0)
        star = stationary_solve(system, params, ramp_field(mesh, params))
        assert star.converged
        u_n = ramp_field(mesh, params)
        step = step_implicit_euler(system, params, cfg, u_n)
        references = [
            (star.field, dense_free_block_solve(system, params, system.K, zero_field(mesh))),
            (step, dense_free_block_solve(system, params, system.K + system.M / cfg.dt,
                                          system.M @ u_n / cfg.dt)),
        ]
        for solved, reference in references:
            assert np.all(solved[system.mask] == 0.0)
            assert np.abs(solved[free] - reference).max() <= 1e-10


class TestStationary:
    def test_reaction_disabled_gives_zero(self, desk, params):
        mesh, system = desk
        system = replace(system, M1=np.zeros(mesh.n_nodes))
        result = stationary_solve(system, params, zero_field(mesh))
        assert result.converged
        assert result.iterations == 0
        assert np.array_equal(result.field, np.zeros(mesh.n_nodes))
        assert result.energy == 0.0

    def test_uniqueness_across_inits(self, desk, params):
        mesh, system = desk
        a = stationary_solve(system, params, zero_field(mesh))
        b = stationary_solve(system, params, ramp_field(mesh, params))
        assert a.converged and b.converged
        assert error_norms(system, a.field - b.field)[0] <= 1e-8

    def test_energy_decreases_from_init(self, desk, params):
        mesh, system = desk
        init = ramp_field(mesh, params)
        result = stationary_solve(system, params, init)
        assert result.energy <= energy(system, init, params)

    def test_residual_below_tolerance(self, desk, params):
        mesh, system = desk
        result = stationary_solve(system, params, zero_field(mesh))
        g = energy_gradient(system, result.field, params)
        assert dual_norm(system, g) <= NEWTON_TOL

    def test_terminal_quadratic_convergence(self, desk, params):
        # residual ratios r_{k+1}/r_k^2 stay bounded in the terminal phase
        mesh, system = desk
        result = stationary_solve(system, params, zero_field(mesh))
        hist = result.residual_history
        assert len(hist) >= 3
        ratios = [hist[k + 1] / hist[k] ** 2 for k in range(len(hist) - 1)
                  if hist[k] < 1e-2 * hist[0]]
        assert ratios, "no terminal-phase iterations recorded"
        assert max(ratios) < 1e3

    def test_max_iter_flag(self, desk, params, monkeypatch):
        mesh, system = desk
        monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 1)
        result = stationary_solve(system, params, ramp_field(mesh, params))
        assert not result.converged
        assert result.iterations == 1

    def test_overflowing_start_is_not_converged(self, desk, params):
        # inf <= the rounding floor (inf at an overflowed start) holds, so
        # the stopping test alone would accept an overflowed start.
        mesh, system = desk
        start = field_from_values(mesh, np.full(mesh.n_nodes, 1e152))
        with np.errstate(over="ignore"), pytest.raises(NonlinearSolveError, match="not finite"):
            stationary_solve(system, params, start)

    def test_residual_that_turns_non_finite_raises(self, desk, params, monkeypatch):
        # The start's reaction is finite and every later one NaN: the first
        # iterate's residual is checked where the start's is, before CG.
        mesh, system = desk
        calls = []

        def reaction_then_nan(system, u, params):
            calls.append(1)
            react = reaction_vector(system, u, params)
            return react if len(calls) == 1 else np.full_like(react, np.nan)

        monkeypatch.setattr(solvers, "reaction_vector", reaction_then_nan)
        with pytest.raises(NonlinearSolveError,
                           match=r"iteration 1 dual residual is not finite \(nan\)"):
            stationary_solve(system, params, ramp_field(mesh, params))


class TestImplicitEuler:
    def test_stationary_is_fixed_point(self, desk, params):
        mesh, system = desk
        cfg = SolverConfig(dt=0.1, t_end=1.0)
        star = stationary_solve(system, params, zero_field(mesh)).field
        nxt = step_implicit_euler(system, params, cfg, star)
        assert np.array_equal(nxt, star)  # frozen exactly

    @pytest.mark.parametrize("system_name", ["radial_desk_system", "annulus_desk_system"])
    def test_step_from_rough_start_meets_absolute_tolerance(self, request, system_name, params):
        # 2 c0 inside and 0 on the Dirichlet boundary starts at a dual residual
        # of 1.4e4 (radial) and 8e2 (annulus); a tolerance relative to it would
        # stop the step near 1e-8.
        system = request.getfixturevalue(system_name)
        dt = 0.05
        u_n = field_from_values(system.mesh, np.full(system.n_nodes, 2.0 * params.c0))
        u = step_implicit_euler(system, params, SolverConfig(dt=dt), u_n)
        g = energy_gradient(system, u, params) + (system.M @ (u - u_n)) / dt
        g[system.mask] = 0.0
        assert dual_norm(system, g) <= NEWTON_TOL

    def test_small_step_continuity(self, desk, params):
        mesh, system = desk
        dt = 1e-8
        cfg = SolverConfig(dt=dt, t_end=1.0)
        rng = np.random.default_rng(12)
        u_n = field_from_values(mesh, 0.02 * rng.standard_normal(mesh.n_nodes))
        nxt = step_implicit_euler(system, params, cfg, u_n)
        g = energy_gradient(system, u_n, params)
        bound = 2.0 * dt * dual_norm(system, g) + 2.0 * dt * NEWTON_TOL
        assert error_norms(system, nxt - u_n)[0] <= bound

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

        lu = spla.splu(sp.csc_matrix(system.eliminate(system.M).toarray()))
        u = np.zeros(mesh.n_nodes)
        dt_sub = 1e-6
        for _ in range(int(round(cfg.dt / dt_sub))):
            g = energy_gradient(system, u, params)
            u -= dt_sub * lu.solve(g)
        rel = error_norms(system, u_impl - u)[0] / error_norms(system, u)[0]
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
        assert trace.failure is None
        assert trace.times[0] == 0.0
        assert trace.times[-1] == pytest.approx(10.0, abs=1e-12)

    def test_energy_monotone(self, desk_trace):
        trace, _ = desk_trace
        slack = 1e-12 * max(1.0, abs(trace.energies[0]))
        assert np.all(np.diff(trace.energies) <= slack)

    def test_err_h_monotone(self, desk_trace):
        trace, cfg = desk_trace
        slack = 2 * cfg.dt * NEWTON_TOL + 1e-12 * trace.err_H[0]
        assert np.all(np.diff(trace.err_H) <= slack)

    def test_from_stationary_stays_flat(self, desk, params):
        mesh, system = desk
        cfg = SolverConfig(dt=0.05, t_end=0.5)
        star = stationary_solve(system, params, zero_field(mesh)).field
        trace = evolve(system, params, cfg, star)
        assert np.max(trace.err_H) <= 1e-9
        assert np.all(trace.newton_iters == 0)

    def test_contraction_between_trajectories(self, desk, params):
        mesh, system = desk
        cfg = SolverConfig(dt=0.05, t_end=1.0)
        u = zero_field(mesh)
        v = ramp_field(mesh, params)
        gap = [error_norms(system, u - v)[0]]
        for _ in range(int(round(cfg.t_end / cfg.dt))):
            u = step_implicit_euler(system, params, cfg, u)
            v = step_implicit_euler(system, params, cfg, v)
            gap.append(error_norms(system, u - v)[0])
        slack = 2 * cfg.dt * NEWTON_TOL + 1e-12 * gap[0]
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
        d1 = error_norms(system, states[0.05] - states[0.025])[0]
        d2 = error_norms(system, states[0.025] - states[0.0125])[0]
        assert 1.5 <= d1 / d2 <= 2.5

    def test_requires_time_parameters(self, desk, params):
        mesh, system = desk
        with pytest.raises(ValueError):
            evolve(system, params, SolverConfig(dt=0.1), zero_field(mesh))

    # `evolve` carries each state's evaluation (K u, reaction, potential)
    # from step to step and into its record. A loop of public steps, each
    # state recorded afresh, must give the same trace bit for bit; on a u0
    # with nonzero Dirichlet entries the trajectory starts at the masked u0.
    @pytest.mark.parametrize("name", ["radial_desk.cfg", "annulus_desk.cfg"])
    @pytest.mark.parametrize("dirichlet", [0.0, 0.5], ids=["masked", "dirichlet-0.5"])
    def test_trace_equals_fresh_steps(self, repo_root, monkeypatch, name, dirichlet):
        monkeypatch.syspath_prepend(str(repo_root / "perfbench"))
        from inputs import low_mode_field

        config = load_config(repo_root / "configs" / name)
        mesh = build_mesh(config.geometry)
        system = assemble(mesh, config.model)
        model, cfg = config.model, config.solver
        u0 = low_mode_field(mesh, model.c0, 1) + dirichlet * system.mask
        trace = evolve(system, model, cfg, u0)
        assert trace.failure is None

        star = stationary_solve(system, model, zero_field(mesh)).field
        k_row_abs = system.K.abs_row_sums()

        def fresh_record(u):
            return (energy(system, u, model), *error_norms(system, u - star),
                    float(0.5 * dot_fields(np.abs(u), solvers.term_rounding(u, k_row_abs))
                          + dot_fields(system.M1,
                                       solvers.term_rounding(u, terms=model.c1 - model.c0))))

        rows = [fresh_record(np.where(system.mask, 0.0, u0))]
        u = u0
        for _ in range(cfg.n_steps):
            u = step_implicit_euler(system, model, cfg, u)
            rows.append(fresh_record(u))
        expected = np.array(rows).T
        got = np.array([trace.energies, trace.err_H, trace.err_V, trace.energy_rounding])
        assert np.array_equal(got, expected)

    # Each state is evaluated once and CG stops at its rounding, so an
    # evolve from the seed-1 low-mode start makes at most these many sparse
    # products (490 and 321 on the fine meshes when every step re-evaluated
    # its start and CG chased its rounding). The annulus desk takes 386.
    @pytest.mark.parametrize("name, overrides, ceiling", [
        pytest.param("annulus_desk.cfg", [], 390, id="annulus_desk.cfg"),
        pytest.param("annulus_desk.cfg", ["geometry.h=0.025"], 400, id="planar-h0.025"),
        pytest.param("radial_desk.cfg", [f"geometry.h={2.0**-11}"], 240, id="radial-h2^-11"),
    ])
    def test_products_per_evolve(self, repo_root, monkeypatch, sparse_products,
                                 name, overrides, ceiling):
        monkeypatch.syspath_prepend(str(repo_root / "perfbench"))
        from inputs import low_mode_field

        config = load_config(repo_root / "configs" / name, overrides)
        mesh = build_mesh(config.geometry)
        system = assemble(mesh, config.model)
        u0 = low_mode_field(mesh, config.model.c0, 1)
        sparse_products.clear()
        trace = evolve(system, config.model, config.solver, u0)
        assert trace.failure is None
        assert len(sparse_products) <= ceiling


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.dt is None and cfg.t_end is None
        assert NEWTON_TOL == 1e-10
        assert NEWTON_MAX_ITER == 50

    @pytest.mark.parametrize(
        "kwargs",
        [dict(dt=0.0, t_end=1.0), dict(dt=0.1, t_end=0.0), dict(dt=float("nan"), t_end=1.0)],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs).require_timestep()

    def test_step_cap(self):
        SolverConfig(dt=0.5, t_end=0.5 * MAX_STEPS).require_timestep()
        with pytest.raises(ValueError, match=f"= {MAX_STEPS + 1} exceeds"):
            SolverConfig(dt=0.5, t_end=0.5 * (MAX_STEPS + 1)).require_timestep()
