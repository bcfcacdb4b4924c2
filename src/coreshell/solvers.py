"""Stationary and time-dependent solvers for the discrete gradient flow.

The stationary state is the unique minimizer of the strictly convex discrete
energy and is computed by damped Newton (exact SPD Hessian, Armijo
backtracking on the energy's change along the Newton line). Time stepping is implicit Euler: each step is
the proximal minimization of E(w) + ||w - u_n||_M^2 / (2 dt), solved by the
same Newton loop started at u_n, which makes the energy decrease across
steps unconditional.

Each Newton system is the constant part of its Hessian (K, or K + M/dt for a
time step) plus the nonnegative reaction diagonal, solved by preconditioned
conjugate gradients: Jacobi by default, and on the built-in rotation-invariant
meshes the exact inverse of the constant part (`sector_inverse`), built once
per operator.

A single evolution is sequential in the step index; independent runs may
share meshes and assembled systems freely. Given a configuration, the
sequential mode is deterministic.
"""

from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp

from .fem import (
    AssembledSystem,
    dual_norm,
    energy,
    h_norm,
    reaction_jacobian_diagonal,
    reaction_vector,
    v_norm,
    zero_field,
)
from .model import ModelParams, consumption_potential


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


# Largest number of implicit-Euler steps, round(t_end / dt), that `evolve` accepts.
MAX_STEPS = 10**6


@dataclass(frozen=True)
class SolverConfig:
    """Tolerances and time-stepping controls.

    dt and t_end are only required for evolution runs and are validated
    there, with at most MAX_STEPS steps; all tolerances must be positive.
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
        steps = self.t_end / self.dt
        if not (np.isfinite(steps) and round(steps) <= MAX_STEPS):
            raise ValueError(f"step count t_end / dt = {steps:.0f} exceeds the limit "
                             f"{MAX_STEPS} (t_end={self.t_end}, dt={self.dt})")

    @property
    def n_steps(self) -> int:
        """Number of implicit-Euler steps: round(t_end / dt), at least one."""
        return max(1, int(round(self.t_end / self.dt)))


@dataclass
class StationarySolution:
    """Best iterate of the stationary solve plus convergence diagnostics."""

    field: np.ndarray
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


def solve_spd(matrix: sp.csr_matrix, rhs: np.ndarray, tol: float, max_iter: int | None = None,
              precondition=None) -> np.ndarray:
    """Preconditioned conjugate gradients for SPD systems.

    `precondition(r)` applies an SPD approximation of the inverse of
    `matrix`; None means Jacobi (division by the diagonal). Starts from
    zero and stops when the true residual norm drops below tol * ||rhs||;
    deterministic for fixed inputs. Uses `matrix` only through `matrix @ p`
    and `matrix.diagonal()`. Raises LinearSolveError with the iteration
    count on breakdown or non-convergence.
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
    if precondition is None:
        def precondition(vec):
            return vec / diag

    x = np.zeros(n)
    r = rhs.copy()
    z = precondition(r)
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
        z = precondition(r)
        rho_new = float(r @ z)
        p = z + (rho_new / rho) * p
        rho = rho_new
    raise LinearSolveError("conjugate gradients did not converge", max_iter)


_SECTOR_INVERSE_RTOL = 1e-8


def sector_inverse(system: AssembledSystem, matrix_ff: sp.csr_matrix):
    """Exact inverse of a constant operator on a rotation-invariant mesh, or None.

    Applies when the mesh has the ring-major layout of `CoreShellMesh.sectors`
    and the Dirichlet set is exactly the outer ring, so the free nodes are
    the center and n_r rings of S nodes. The free block of any operator
    assembled on such a mesh is then block-circulant over the sectors and
    block-tridiagonal over the rings: a real FFT along each ring splits it
    into one tridiagonal system per Fourier mode, and the center couples to
    mode 0 only (Swarztrauber & Sweet, SIAM J. Numer. Anal. 10, 1973). The
    ring-to-ring couplings are read from the rows of sector 0 and the
    tridiagonal systems are factored here, once; `apply(r)` then costs two
    FFTs and one forward and one backward sweep over the rings.

    Returns None ("use Jacobi") when the layout does not apply or when
    ||matrix_ff @ apply(b) - b|| > 1e-8 ||b|| on a probe vector, so a wrong
    layout costs speed, never correctness.
    """
    sectors = system.mesh.sectors
    n_free = system.free.shape[0]
    if sectors < 1 or system.n_nodes != n_free + sectors or (n_free - 1) % sectors:
        return None
    n_rings = (n_free - 1) // sectors
    if n_rings < 1 or system.free[-1] != n_free - 1 or matrix_ff.shape != (n_free, n_free):
        return None

    # symbol[j][k, m]: mode-m symbol of the coupling of ring k to ring k + j,
    # from the entries (ring k, sector 0) -> (ring k + j, sector d).
    offsets = sorted({0, 1 % sectors, -1 % sectors})
    modes = np.arange(sectors // 2 + 1)
    phase = np.exp(2j * np.pi * np.outer(offsets, modes) / sectors)
    rings = np.arange(n_rings)
    rows = np.repeat(1 + sectors * rings, len(offsets))
    symbol = {}
    for j in (-1, 0, 1):
        target = rings + j
        valid = (target >= 0) & (target < n_rings)
        cols = 1 + sectors * np.where(valid, target, 0)[:, None] + np.array(offsets)
        a = np.asarray(matrix_ff[rows, cols.ravel()]).reshape(n_rings, -1) * valid[:, None]
        symbol[j] = a @ phase

    # Row 0 is the center in mode 0 and a decoupled identity row otherwise.
    lower = np.zeros((n_rings + 1, modes.shape[0]), dtype=complex)
    diag = np.ones_like(lower)
    upper = np.zeros_like(lower)
    diag[0, 0] = matrix_ff[0, 0]
    upper[0, 0] = matrix_ff[0, 1]
    lower[1, 0] = sectors * matrix_ff[1, 0]
    lower[2:] = symbol[-1][1:]
    diag[1:] = symbol[0]
    upper[1:] = symbol[1]

    # Forward elimination factors: factor[i] = lower[i] / pivot[i - 1].
    factor = np.zeros_like(lower)
    pivot = diag.copy()
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, n_rings + 1):
            factor[i] = lower[i] / pivot[i - 1]
            pivot[i] = diag[i] - factor[i] * upper[i - 1]
        inv_pivot = 1.0 / pivot
    if not (np.all(np.isfinite(factor)) and np.all(np.isfinite(inv_pivot))):
        return None

    if sectors == 1:
        # A chain: numpy scalar overhead would dominate, so sweep in floats.
        f, w, u = (c.real[:, 0].tolist() for c in (factor, inv_pivot, upper))

        def apply(r):
            y = r.tolist()
            for i in range(1, n_rings + 1):
                y[i] -= f[i] * y[i - 1]
            y[n_rings] *= w[n_rings]
            for i in range(n_rings - 1, -1, -1):
                y[i] = (y[i] - u[i] * y[i + 1]) * w[i]
            return np.array(y)
    else:
        def apply(r):
            y = np.empty_like(lower)
            y[0] = 0.0
            y[0, 0] = r[0]
            y[1:] = np.fft.rfft(r[1:].reshape(n_rings, sectors), axis=1)
            for i in range(1, n_rings + 1):
                y[i] -= factor[i] * y[i - 1]
            y[n_rings] *= inv_pivot[n_rings]
            for i in range(n_rings - 1, -1, -1):
                y[i] = (y[i] - upper[i] * y[i + 1]) * inv_pivot[i]
            x = np.empty(r.shape[0])
            x[0] = y[0, 0].real
            x[1:] = np.fft.irfft(y[1:], n=sectors, axis=1).ravel()
            return x

    probe = np.cos(np.arange(n_free, dtype=float))
    with np.errstate(invalid="ignore", over="ignore"):
        miss = float(np.linalg.norm(matrix_ff @ apply(probe) - probe))
    if not miss <= _SECTOR_INVERSE_RTOL * float(np.linalg.norm(probe)):
        return None
    return apply


def _constant_part(system: AssembledSystem, base: sp.csr_matrix):
    """Free block of a constant Hessian part and its preconditioner (None: Jacobi)."""
    base_ff = system.restrict(base)
    return base_ff, sector_inverse(system, base_ff)


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
    constant=None,
):
    """Minimize the energy, optionally plus the proximal term, by damped Newton.

    Stops when the lumped-mass dual norm of the objective gradient falls
    below newton_tol * max(1, initial dual norm); a start that already
    satisfies this is returned unchanged (zero iterations), so fully
    converged trajectories freeze exactly. `constant` is the
    `_constant_part` of the Hessian (K, or K + M/dt with a proximal term),
    built here when None. Returns
    (values, iterations, dual-residual history, converged).
    """
    mask, free = system.mask, system.free
    u = start.copy()
    u[mask] = 0.0

    def gradient(vals: np.ndarray) -> np.ndarray:
        g = system.K @ vals - reaction_vector(system, vals, params)
        if prox_center is not None:
            g = g + (system.M @ (vals - prox_center)) / dt
        g[mask] = 0.0
        return g

    g = gradient(u)
    res = dual_norm(system, g)
    scale = max(1.0, res)
    history = [res]
    if constant is None:
        constant = _constant_part(
            system, system.K if prox_center is None else (system.K + system.M / dt).tocsr())
    base_ff, precondition = constant

    for iteration in range(1, cfg.newton_max_iter + 1):
        if res <= cfg.newton_tol * scale:
            return u, iteration - 1, history, True
        hess_ff = base_ff + sp.diags(reaction_jacobian_diagonal(system, u, params)[free])
        direction = np.zeros_like(u)
        direction[free] = solve_spd(hess_ff, -g[free], cfg.linear_tol,
                                    precondition=precondition)

        slope = float(g[free] @ direction[free])
        if slope >= 0.0:
            raise NonlinearSolveError(
                "Newton direction is not a descent direction; "
                "energy model and assembly are inconsistent"
            )
        # Armijo on the change along the line in difference form,
        # t d.(K u + M(u - c)/dt) + t^2/2 d.(base d) - M1.(F(u + t d) - F(u)):
        # near the minimizer two objective values differ by less than their
        # rounding (Hager & Zhang, SIAM J. Optim. 16, 2005). The slack covers
        # the rounding of the potential difference.
        linear = slope + float(direction @ reaction_vector(system, u, params))
        curvature = float(direction[free] @ (base_ff @ direction[free]))
        potential = consumption_potential(u, params)
        fp_slack = 32.0 * np.finfo(float).eps * max(1.0, float(system.M1 @ np.abs(potential)))
        step = 1.0
        while True:
            candidate = u + step * direction
            change = (step * linear + 0.5 * step**2 * curvature - float(
                system.M1 @ (consumption_potential(candidate, params) - potential)))
            if change <= _ARMIJO_SLOPE * step * slope + fp_slack:
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
    u_init: np.ndarray,
) -> StationarySolution:
    """Compute the unique discrete stationary state from a given start.

    The energy decreases monotonically across iterations (Armijo), so the
    returned state satisfies E(u*) <= E(u_init). On hitting the iteration
    cap the best iterate is returned with converged=False.
    """
    system.check_field(u_init)
    values, iters, history, converged = _newton_minimize(system, params, cfg, u_init)
    return StationarySolution(
        field=values,
        converged=converged,
        iterations=iters,
        residual_norm=history[-1],
        residual_history=history,
        energy=energy(system, values, params),
    )


def step_implicit_euler(
    system: AssembledSystem,
    params: ModelParams,
    cfg: SolverConfig,
    u_n: np.ndarray,
) -> np.ndarray:
    """One backward-Euler step: the proximal minimization of the energy.

    The accepted state satisfies the proximal inequality
    E(u+) + ||u+ - u_n||_M^2/(2 dt) <= E(u_n) by construction, because the
    line search starts at u_n where the proximal term vanishes.
    """
    fld, _ = _step_implicit_euler_counted(system, params, cfg, u_n)
    return fld


def _step_implicit_euler_counted(system, params, cfg, u_n, constant=None):
    """One step and its Newton count; `constant` as in `_newton_minimize`."""
    if cfg.dt is None or not cfg.dt > 0.0:
        raise ValueError(f"time step dt must be positive, got {cfg.dt}")
    system.check_field(u_n)
    values, iters, history, converged = _newton_minimize(
        system, params, cfg, u_n, prox_center=u_n, dt=cfg.dt, constant=constant)
    if not converged:
        raise NonlinearSolveError(
            f"implicit-Euler inner solve stopped at residual {history[-1]:.3e} "
            f"after {iters} iterations"
        )
    return values, iters


def evolve(
    system: AssembledSystem,
    params: ModelParams,
    cfg: SolverConfig,
    u0: np.ndarray,
) -> EvolutionTrace:
    """Implicit-Euler trajectory with per-step energy and error records.

    The stationary reference is computed once (from zero) before stepping,
    and the constant part K + M/dt of every step's Hessian is restricted
    and preconditioned once for all steps. On a step failure the partial trace is returned with
    meta["completed"] = False and the failing step recorded.
    """
    cfg.require_timestep()
    system.check_field(u0)

    reference = stationary_solve(system, params, cfg, zero_field(system.mesh))
    if not reference.converged:
        raise NonlinearSolveError(
            "stationary reference solve did not converge; cannot measure decay"
        )
    u_star = reference.field

    times = [0.0]
    energies = [energy(system, u0, params)]
    err_h = [h_norm(system, u0 - u_star)]
    err_v = [v_norm(system, u0 - u_star)]
    iters = [0]
    meta = {
        **asdict(cfg),
        "stationary_iterations": reference.iterations,
        "stationary_residual": reference.residual_norm,
        "completed": True,
        "failed_at_step": None,
    }

    step_constant = _constant_part(system, (system.K + system.M / cfg.dt).tocsr())
    u = u0
    for n in range(1, cfg.n_steps + 1):
        try:
            u, k = _step_implicit_euler_counted(system, params, cfg, u, step_constant)
        except (NonlinearSolveError, LinearSolveError) as exc:
            meta["completed"] = False
            meta["failed_at_step"] = n
            meta["failure"] = str(exc)
            break
        times.append(n * cfg.dt)
        energies.append(energy(system, u, params))
        err_h.append(h_norm(system, u - u_star))
        err_v.append(v_norm(system, u - u_star))
        iters.append(k)

    return EvolutionTrace(
        times=np.asarray(times),
        energies=np.asarray(energies),
        err_H=np.asarray(err_h),
        err_V=np.asarray(err_v),
        newton_iters=np.asarray(iters, dtype=np.int64),
        meta=meta,
    )
