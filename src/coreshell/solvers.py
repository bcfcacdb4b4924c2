"""Stationary and time-dependent solvers for the discrete gradient flow.

The stationary state is the unique minimizer of the strictly convex discrete
energy and is computed by damped Newton (exact SPD Hessian, Armijo
backtracking on the energy). Time stepping is implicit Euler: each step is
the proximal minimization of E(w) + ||w - u_n||_M^2 / (2 dt), solved by the
same Newton loop started at u_n, which makes the energy decrease across
steps unconditional.

A single evolution is sequential in the step index; independent runs may
share meshes and assembled systems freely. Given a configuration, the
sequential mode is deterministic.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .fem import (
    AssembledSystem,
    DiscreteField,
    dual_norm,
    energy,
    h_norm,
    reaction_jacobian_diagonal,
    reaction_vector,
    v_norm,
    zero_field,
)
from .model import ModelParams


class LinearSolveError(RuntimeError):
    """The inner SPD solve broke down or failed to converge."""

    def __init__(self, message: str, iterations: int):
        super().__init__(f"{message} (after {iterations} iterations)")
        self.iterations = iterations


class NonlinearSolveError(RuntimeError):
    """Newton on the convex energy failed; carries the failing step if any."""

    def __init__(self, message: str, step: int | None = None):
        if step is not None:
            message = f"step {step}: {message}"
        super().__init__(message)
        self.step = step


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and time-stepping controls.

    dt and t_end are only required for evolution runs and are validated
    there; all tolerances must be positive.
    """

    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    dt: float | None = None
    t_end: float | None = None
    linear_tol: float = 1e-12

    def __post_init__(self):
        if not self.newton_tol > 0.0:
            raise ValueError(f"newton_tol must be positive, got {self.newton_tol}")
        if not self.linear_tol > 0.0:
            raise ValueError(f"linear_tol must be positive, got {self.linear_tol}")
        if self.newton_max_iter < 1:
            raise ValueError(f"newton_max_iter must be >= 1, got {self.newton_max_iter}")

    def require_timestep(self):
        if self.dt is None or not self.dt > 0.0:
            raise ValueError(f"time step dt must be positive, got {self.dt}")
        if self.t_end is None or not self.t_end > 0.0:
            raise ValueError(f"final time t_end must be positive, got {self.t_end}")


@dataclass
class StationarySolution:
    """Best iterate of the stationary solve plus convergence diagnostics."""

    field: DiscreteField
    converged: bool
    iterations: int
    residual_norm: float
    residual_history: list
    energy: float


@dataclass
class EvolutionTrace:
    """Per-step record of an implicit-Euler trajectory.

    Columns: times, energies, distances to the stationary state in the H and
    V norms, and inner Newton iteration counts. `meta` echoes the solver
    configuration and completion status.
    """

    times: np.ndarray
    energies: np.ndarray
    err_H: np.ndarray
    err_V: np.ndarray
    newton_iters: np.ndarray
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return self.times.shape[0]


# ----------------------------------------------------------------------------
# linear solver
# ----------------------------------------------------------------------------


def solve_spd(matrix: sp.csr_matrix, rhs: np.ndarray, tol: float, max_iter: int | None = None) -> np.ndarray:
    """Jacobi-preconditioned conjugate gradients for SPD systems.

    Starts from zero, stops when the relative residual drops below `tol`;
    deterministic for fixed inputs. Raises LinearSolveError with the
    iteration count on breakdown or non-convergence.
    """
    n = rhs.shape[0]
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return np.zeros(n)
    if max_iter is None:
        max_iter = max(200, 20 * n)
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        raise LinearSolveError("matrix has a non-positive diagonal entry", 0)

    x = np.zeros(n)
    r = rhs.copy()
    z = r / diag
    p = z.copy()
    rho = float(r @ z)
    for k in range(1, max_iter + 1):
        q = matrix @ p
        curvature = float(p @ q)
        if curvature <= 0.0:
            raise LinearSolveError("non-positive curvature: matrix is not SPD", k)
        alpha = rho / curvature
        x += alpha * p
        r -= alpha * q
        if float(np.linalg.norm(r)) <= tol * rhs_norm:
            return x
        z = r / diag
        rho_new = float(r @ z)
        p = z + (rho_new / rho) * p
        rho = rho_new
    raise LinearSolveError("conjugate gradients did not converge", max_iter)


# ----------------------------------------------------------------------------
# damped Newton on the (proximal) energy
# ----------------------------------------------------------------------------

_ARMIJO_SLOPE = 1e-4
_ARMIJO_FACTOR = 0.5
_ARMIJO_MIN_STEP = 2.0**-40


def _newton_minimize(
    system: AssembledSystem,
    params: ModelParams,
    cfg: SolverConfig,
    start: np.ndarray,
    prox_center: np.ndarray | None = None,
    dt: float | None = None,
):
    """Minimize the energy, optionally plus the proximal term, by damped Newton.

    Stops when the lumped-mass dual norm of the objective gradient falls
    below newton_tol * max(1, initial dual norm); a start that already
    satisfies this is returned unchanged (zero iterations), so fully
    converged trajectories freeze exactly. Returns
    (values, iterations, dual-residual history, converged).
    """
    mask, free = system.mask, system.free
    u = start.copy()
    u[mask] = 0.0

    def objective(vals: np.ndarray) -> float:
        e = energy(system, DiscreteField(vals, mask), params)
        if prox_center is not None:
            d = vals - prox_center
            e += float(d @ (system.M @ d)) / (2.0 * dt)
        return e

    def gradient(vals: np.ndarray) -> np.ndarray:
        g = system.K @ vals - reaction_vector(system, DiscreteField(vals, mask), params)
        if prox_center is not None:
            g = g + (system.M @ (vals - prox_center)) / dt
        g[mask] = 0.0
        return g

    g = gradient(u)
    res = dual_norm(system, g)
    scale = max(1.0, res)
    history = [res]
    base = system.K if prox_center is None else (system.K + system.M / dt).tocsr()

    for iteration in range(1, cfg.newton_max_iter + 1):
        if res <= cfg.newton_tol * scale:
            return u, iteration - 1, history, True
        hess_ff = system.restrict(base + sp.diags(reaction_jacobian_diagonal(
            system, DiscreteField(u, mask), params)))
        direction = np.zeros_like(u)
        direction[free] = solve_spd(hess_ff, -g[free], cfg.linear_tol)

        slope = float(g[free] @ direction[free])
        if slope >= 0.0:
            raise NonlinearSolveError(
                "Newton direction is not a descent direction; "
                "energy model and assembly are inconsistent"
            )
        f0 = objective(u)
        # Acceptance needs slack at the level of the objective's rounding
        # error, or the search stalls once decrements fall below resolution.
        fp_slack = 32.0 * np.finfo(float).eps * max(1.0, abs(f0))
        step = 1.0
        while True:
            candidate = u + step * direction
            if objective(candidate) <= f0 + _ARMIJO_SLOPE * step * slope + fp_slack:
                break
            step *= _ARMIJO_FACTOR
            if step < _ARMIJO_MIN_STEP:
                raise NonlinearSolveError(
                    "backtracking line search failed to find descent"
                )
        u = candidate
        g = gradient(u)
        res = dual_norm(system, g)
        history.append(res)

    converged = res <= cfg.newton_tol * scale
    return u, cfg.newton_max_iter, history, converged


def stationary_solve(
    system: AssembledSystem,
    params: ModelParams,
    cfg: SolverConfig,
    u_init: DiscreteField,
) -> StationarySolution:
    """Compute the unique discrete stationary state from a given start.

    The energy decreases monotonically across iterations (Armijo), so the
    returned state satisfies E(u*) <= E(u_init). On hitting the iteration
    cap the best iterate is returned with converged=False.
    """
    system.check_field(u_init)
    values, iters, history, converged = _newton_minimize(system, params, cfg, u_init.values)
    fld = DiscreteField(values, system.mask)
    return StationarySolution(
        field=fld,
        converged=converged,
        iterations=iters,
        residual_norm=history[-1],
        residual_history=history,
        energy=energy(system, fld, params),
    )


def step_implicit_euler(
    system: AssembledSystem,
    params: ModelParams,
    cfg: SolverConfig,
    u_n: DiscreteField,
) -> DiscreteField:
    """One backward-Euler step: the proximal minimization of the energy.

    The accepted state satisfies the proximal inequality
    E(u+) + ||u+ - u_n||_M^2/(2 dt) <= E(u_n) by construction, because the
    line search starts at u_n where the proximal term vanishes.
    """
    fld, _ = _step_implicit_euler_counted(system, params, cfg, u_n)
    return fld


def _step_implicit_euler_counted(system, params, cfg, u_n):
    if cfg.dt is None or not cfg.dt > 0.0:
        raise ValueError(f"time step dt must be positive, got {cfg.dt}")
    system.check_field(u_n)
    values, iters, history, converged = _newton_minimize(
        system, params, cfg, u_n.values, prox_center=u_n.values, dt=cfg.dt
    )
    if not converged:
        raise NonlinearSolveError(
            f"implicit-Euler inner solve stopped at residual {history[-1]:.3e} "
            f"after {iters} iterations"
        )
    return DiscreteField(values, system.mask), iters


def evolve(
    system: AssembledSystem,
    params: ModelParams,
    cfg: SolverConfig,
    u0: DiscreteField,
) -> EvolutionTrace:
    """Implicit-Euler trajectory with per-step energy and error records.

    The stationary reference is computed once (from zero) before stepping.
    On a step failure the partial trace is returned with
    meta["completed"] = False and the failing step recorded.
    """
    cfg.require_timestep()
    system.check_field(u0)
    n_steps = max(1, int(round(cfg.t_end / cfg.dt)))

    reference = stationary_solve(system, params, cfg, zero_field(system.mesh))
    if not reference.converged:
        raise NonlinearSolveError(
            "stationary reference solve did not converge; cannot measure decay"
        )
    u_star = reference.field.values

    times = [0.0]
    energies = [energy(system, u0, params)]
    err_h = [h_norm(system, u0.values - u_star)]
    err_v = [v_norm(system, u0.values - u_star)]
    iters = [0]
    meta = {
        "dt": cfg.dt,
        "t_end": cfg.t_end,
        "newton_tol": cfg.newton_tol,
        "newton_max_iter": cfg.newton_max_iter,
        "linear_tol": cfg.linear_tol,
        "stationary_iterations": reference.iterations,
        "stationary_residual": reference.residual_norm,
        "completed": True,
        "failed_at_step": None,
    }

    u = u0
    for n in range(1, n_steps + 1):
        try:
            u, k = _step_implicit_euler_counted(system, params, cfg, u)
        except (NonlinearSolveError, LinearSolveError) as exc:
            meta["completed"] = False
            meta["failed_at_step"] = n
            meta["failure"] = str(exc)
            break
        times.append(n * cfg.dt)
        energies.append(energy(system, u, params))
        err_h.append(h_norm(system, u.values - u_star))
        err_v.append(v_norm(system, u.values - u_star))
        iters.append(k)

    return EvolutionTrace(
        times=np.asarray(times),
        energies=np.asarray(energies),
        err_H=np.asarray(err_h),
        err_V=np.asarray(err_v),
        newton_iters=np.asarray(iters, dtype=np.int64),
        meta=meta,
    )
