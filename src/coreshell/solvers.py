"""Stationary and time-dependent solvers for the discrete gradient flow.

The stationary state is the unique minimizer of the strictly convex discrete
energy and is computed by damped Newton (exact SPD Hessian, Armijo
backtracking on the energy's change along the Newton line). Time stepping is implicit Euler: each step is
the proximal minimization of E(w) + ||w - u_n||_M^2 / (2 dt), solved by the
same Newton loop started at u_n, which makes the energy decrease across
steps unconditional.

Each Newton system is the constant part of its Hessian (K, or K + M/dt for a
time step) with the Dirichlet nodes eliminated, plus the nonnegative reaction
diagonal, solved by preconditioned conjugate gradients on full-length vectors:
Jacobi by default, and on the built-in rotation-invariant meshes the exact
inverse of the rotation-averaged Hessian, the constant part plus the ring
means of the reaction diagonal (`sector_inverse`, built once per operator
and refactored with the new means on every Newton iteration). CG stops at
its own rounding, a small multiple of eps times the size of the terms the
residual is formed from. On a radial chain each ring is one node, so that
inverse is the exact inverse of the Newton Hessian, and CG stops after its
first step, at desk size and at h=2^-11 alike.

Each state is evaluated once (K u, the reaction vector and the potential,
`_evaluate`): Newton reads the evaluation for its gradient, rounding floor
and line search, and returns its final iterate's, which `evolve` hands to
the state's record and to the next step.

A single evolution is sequential in the step index; independent runs may
share meshes and assembled systems freely. Given a configuration, the
sequential mode is deterministic.
"""

from dataclasses import dataclass

import numpy as np

from .fem import (
    AssembledSystem,
    SparseOperator,
    dot_fields,
    dual_norm,
    energy,
    error_norms,
    evaluated_energy,
    evaluated_gradient,
    reaction_jacobian_diagonal,
    reaction_vector,
    unit_exponent,
    zero_field,
)
from .model import ModelParams, consumption_potential


class LinearSolveError(RuntimeError):
    """The inner SPD solve broke down or failed to converge."""

    def __init__(self, message: str, iterations: int):
        super().__init__(f"{message} (after {iterations} iterations)")
        self.iterations = iterations


class NonlinearSolveError(RuntimeError):
    """Newton on the convex energy failed."""


# Largest number of implicit-Euler steps, round(t_end / dt), that `evolve` accepts.
MAX_STEPS = 10**6

# Newton stops once the dual norm of the gradient is below NEWTON_TOL or
# below its rounding floor, or after NEWTON_MAX_ITER iterations.
NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 50

# The rounding model of every solver bound: fl(a op b) = (a op b)(1 + d) + e,
# |d| <= EPS, and |e| <= EPS * TINY = 2^-1074 with gradual underflow (Higham,
# 2002, ch. 2; Demmel, SIAM J. Sci. Stat. Comput. 5, 1984).
EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny

# Every rounding allowance, CG's stop and each `verify` check, is
# ROUNDING_FACTOR times the `term_rounding` of the terms its quantity is
# formed from (Higham, 2002, ch. 3). Against that rounding the true residual
# of a converged CG solve reads 0.2-1.5 (desk meshes, planar h=0.025, radial
# h=2^-11) and a passing `verify` quantity at most 1.7, the transform's
# identity (desk configs, planar h=0.025 and 0.0125, radial h=2^-11, gaps
# down to 1e-13, 120 random valid inputs). 16 keeps a margin of 9, a CG
# solution's backward error within 16 eps, and fails a defect of 100s of eps.
ROUNDING_FACTOR = 16.0


def term_rounding(values, scale=1.0, terms=0.0):
    """EPS (scale (|values| + TINY) + terms), entry by entry: EPS times the
    size of the terms a sum is formed from, with `scale` the row sums of |A|
    for a product A x and `terms` the other terms' magnitudes. Each |x|
    counts as at least TINY, below which a product keeps fewer than 53 bits.
    EPS scales each entry before any sum, so no scale overflows it."""
    return scale * (EPS * np.abs(values) + EPS * TINY) + EPS * terms


def potential_rounding(values, params: ModelParams):
    """The rounding of F(s) = s + (c1 - c0) log((c1 - s) / c1) at `values`,
    the `term_rounding` of |s| + c1 - c0: the log's argument rounds to
    relative eps, and |F(s)| <= |s|."""
    return term_rounding(values, terms=params.c_hat)


def energy_rounding(system: AssembledSystem, params: ModelParams, u: np.ndarray,
                    k_row_abs: np.ndarray):
    """The `term_rounding` of |u|^T |K| |u| / 2 + M1 . (|u| + c1 - c0), which
    bounds the rounding error of `fem.energy` at u up to a small factor
    (|F(u)| <= |u|), one per field of a stack; `k_row_abs` holds the row sums
    of |K|. It dots |u| / 2 with the term rounding and never forms u * u, so
    it overflows at no scale."""
    return (0.5 * dot_fields(np.abs(u), term_rounding(u, k_row_abs))
            + dot_fields(system.M1, potential_rounding(u, params)))


@dataclass(frozen=True)
class SolverConfig:
    """Time stepping.

    dt and t_end are only required for evolution runs and are validated
    there, with at most MAX_STEPS steps. Each step's Newton solve stops by
    the absolute rule of `_newton_minimize` (NEWTON_TOL, NEWTON_MAX_ITER);
    each Newton system is solved to its rounding.
    """

    dt: float | None = None
    t_end: float | None = None

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
    """Best iterate of the stationary solve plus convergence diagnostics.

    `residual_history` holds the dual residual of every iterate, the start's
    first and the returned field's last.
    """

    field: np.ndarray
    converged: bool
    iterations: int
    residual_history: list
    energy: float


@dataclass
class EvolutionTrace:
    """Per-step record of an implicit-Euler trajectory.

    Columns: times, energies, distances to the stationary state in the H and
    V norms, inner Newton iteration counts, and each state's energy rounding
    from `term_rounding`, that of |u|^T |K| |u| / 2 + M1 . (|u| + c1 - c0),
    which bounds the energy's rounding error up to a small factor (|F(u)| <=
    |u|). `failure` is None for a completed trajectory; otherwise it names
    why step len(trace) failed, and the columns end at the last good step.
    """

    times: np.ndarray
    energies: np.ndarray
    err_H: np.ndarray
    err_V: np.ndarray
    newton_iters: np.ndarray
    energy_rounding: np.ndarray
    failure: str | None = None

    def __len__(self) -> int:
        return self.times.shape[0]


# ----------------------------------------------------------------------------
# linear solver
# ----------------------------------------------------------------------------


def solve_spd(matrix: SparseOperator, rhs: np.ndarray, row_abs: np.ndarray,
              precondition=None) -> np.ndarray:
    """Preconditioned conjugate gradients for SPD systems.

    `row_abs` holds the row sums of |matrix|. `precondition(r)` applies an
    SPD approximation of the inverse of `matrix`; None means Jacobi
    (division by the diagonal). Starts from zero and stops once the
    residual norm is at most ROUNDING_FACTOR ||term_rounding(x, row_abs,
    |rhs|)||, the rounding of the terms the residual is formed from (Arioli,
    Duff & Ruiz, SIAM J. Matrix Anal. Appl. 13, 1992); a zero rhs returns
    zeros at once. It solves for rhs scaled by 2^`unit_exponent(rhs)` and
    scales x back, so no rhs under- or overflows its squares and 2^k rhs
    gives 2^k x bit for bit. Deterministic for fixed inputs at any thread
    count (its sums are `dot_fields`). Uses `matrix` only through `matrix @ p` and
    `matrix.diagonal()`. Raises LinearSolveError with the iteration count on
    breakdown (a non-positive or non-finite curvature, a non-finite
    residual) or on reaching max(200, 20 n) iterations.
    """
    n = rhs.shape[0]
    exponent = unit_exponent(rhs)
    rhs = np.ldexp(rhs, exponent)
    if dot_fields(rhs, rhs) == 0.0:
        return np.zeros(n)
    max_iter = max(200, 20 * n)
    diag = matrix.diagonal()
    if np.any(diag <= 0.0):
        raise LinearSolveError("matrix has a non-positive diagonal entry", 0)
    if precondition is None:
        def precondition(vec):
            return vec / diag
    rhs_abs = np.abs(rhs)

    x = np.zeros(n)
    r = rhs  # the scaled copy, private to this solve
    z = precondition(r)
    p = z.copy()
    rho = float(dot_fields(r, z))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, max_iter + 1):
            q = matrix @ p
            curvature = float(dot_fields(p, q))
            if curvature <= 0.0:
                raise LinearSolveError("non-positive curvature: matrix is not SPD", k)
            if not np.isfinite(curvature):
                raise LinearSolveError(f"curvature is not finite ({curvature})", k)
            alpha = rho / curvature
            x += alpha * p
            r -= alpha * q
            r_norm = float(np.sqrt(dot_fields(r, r)))
            bound = term_rounding(x, row_abs, rhs_abs)
            if r_norm <= ROUNDING_FACTOR * float(np.sqrt(dot_fields(bound, bound))):
                return np.ldexp(x, -exponent)
            if not np.isfinite(r_norm):
                raise LinearSolveError(f"residual is not finite ({r_norm})", k)
            z = precondition(r)
            rho_new = float(dot_fields(r, z))
            p = z + (rho_new / rho) * p
            rho = rho_new
    raise LinearSolveError("conjugate gradients did not converge", max_iter)


class SectorInverse:
    """The factored ring systems of `sector_inverse`; calling it applies the inverse.

    `lower`, `diag` and `upper` hold, per ring (the center first), the
    coupling to the ring before, the ring's own block and the coupling to
    the ring after: floats on a chain (one sector), the ring's row of
    Fourier-mode values otherwise. The constructor factors them by forward
    elimination and raises LinearSolveError when a factor f[i] or an
    inverse pivot w[i] is not finite.
    """

    def __init__(self, sectors, lower, diag, upper):
        self.sectors = sectors
        self.lower, self.diag, self.upper = lower, diag, upper
        self.modes = np.arange(sectors // 2 + 1)
        f, w = [0.0] * len(diag), [0.0] * len(diag)
        try:
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                w[0] = 1.0 / diag[0]
                for i in range(1, len(diag)):
                    f[i] = lower[i] * w[i - 1]
                    w[i] = 1.0 / (diag[i] - f[i] * upper[i - 1])
                finite = np.all(np.isfinite(f[1:] + w))
        except ZeroDivisionError:
            finite = False
        if not finite:
            raise LinearSolveError("a ring pivot of the sector inverse is not finite", 0)
        self.f, self.w = f, w

    def __call__(self, r):
        sectors, f, w, upper = self.sectors, self.f, self.w, self.upper
        n_rings = len(w) - 1
        if sectors == 1:
            y = r.tolist()  # entries past n_rings are the masked ring
        else:
            y = [np.where(self.modes == 0, r[0], 0j),
                 *np.fft.rfft(r[1:-sectors].reshape(n_rings, sectors), axis=1)]
        for i in range(1, n_rings + 1):
            y[i] -= f[i] * y[i - 1]
        y[n_rings] *= w[n_rings]
        for i in range(n_rings - 1, -1, -1):
            y[i] = (y[i] - upper[i] * y[i + 1]) * w[i]
        if sectors == 1:
            return np.array(y)
        x = r.copy()
        x[0] = y[0][0].real
        x[1:-sectors] = np.fft.irfft(y[1:], n=sectors, axis=1).ravel()
        return x

    def shifted(self, values):
        """The inverse of the operator plus the ring means of the diagonal `values`.

        A diagonal that is constant on each ring commutes with rotation: it
        adds its ring's value to every mode of that ring, and the center's
        value to the center's mode 0. So the sum is inverted exactly when
        `values` is constant on each ring, and otherwise approximately. On a
        chain every ring is one node. The masked ring's values are not read.
        Raises LinearSolveError when a new pivot is not finite.
        """
        sectors = self.sectors
        rings = values[1:-sectors].reshape(-1, sectors).mean(axis=1)
        means = [*values[:1].tolist(), *rings.tolist()]
        diag = [d + m for d, m in zip(self.diag, means)]
        if sectors > 1:  # the center's other modes are decoupled identity rows
            diag[0] = self.diag[0] + np.where(self.modes == 0, means[0], 0.0)
        return SectorInverse(sectors, self.lower, diag, self.upper)


def sector_inverse(system: AssembledSystem, matrix: SparseOperator):
    """Exact inverse of an eliminated constant operator on a rotation-invariant mesh, or None.

    Applies when the mesh has the ring-major layout of `CoreShellMesh.sectors`
    and the mask is exactly the last ring, so the free nodes are the center
    and the n_r rings of S nodes before it. The free block of any operator
    assembled on such a mesh is then block-circulant over the sectors and
    block-tridiagonal over the rings: a real FFT along each ring splits it
    into one tridiagonal system per Fourier mode, and the center couples to
    mode 0 only (Swarztrauber & Sweet, SIAM J. Numer. Anal. 10, 1973). The
    ring-to-ring couplings are read from the rows of sector 0 once, and the
    returned `SectorInverse` factors every mode's system on a list with one
    entry per ring: a float on a chain (one sector), the ring's row of mode
    values otherwise. Calling it costs one forward and one backward sweep
    over that list, two FFTs on rings, and passes the masked entries of r
    through unchanged. Its `shifted(d)` refactors with the ring means of a
    diagonal d added.

    Returns None ("use Jacobi") only when the layout does not apply; a
    non-finite ring pivot raises LinearSolveError, a breakdown like CG's.
    Elimination without pivoting on Hermitian positive definite tridiagonal
    systems is backward stable (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, ch. 9), so the inverse is exact to rounding and is
    not checked; an operator that is not rotation-invariant costs CG
    iterations, not accuracy.
    """
    sectors, n = system.mesh.sectors, system.n_nodes
    if sectors < 1 or not np.array_equal(system.mask, np.arange(n) >= n - sectors):
        return None
    n_rings = (n - 1) // sectors - 1

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
        a = np.asarray(matrix[rows, cols.ravel()]).reshape(n_rings, -1) * valid[:, None]
        symbol[j] = a @ phase

    # Row 0 is the center in mode 0 and a decoupled identity row otherwise.
    lower = np.zeros((n_rings + 1, modes.shape[0]), dtype=complex)
    diag = np.ones_like(lower)
    upper = np.zeros_like(lower)
    diag[0, 0] = matrix[0, 0]
    upper[0, 0] = matrix[0, 1]
    lower[1, 0] = sectors * matrix[1, 0]
    lower[2:] = symbol[-1][1:]
    diag[1:] = symbol[0]
    upper[1:] = symbol[1]

    # Row 0 of each list is the center. On a chain, numpy scalar overhead
    # would dominate, so its entries are floats.
    if sectors == 1:
        lower, diag, upper = (c.real[:, 0].tolist() for c in (lower, diag, upper))
    else:
        lower, diag, upper = list(lower), list(diag), list(upper)
    return SectorInverse(sectors, lower, diag, upper)


def _constant_part(system: AssembledSystem, base: SparseOperator):
    """A constant Hessian part with masked nodes eliminated, its preconditioner
    (None: Jacobi) and the row sums of its absolute values (for the rounding
    bounds of Newton and the eigen-solve)."""
    eliminated = system.eliminate(base)
    return eliminated, sector_inverse(system, eliminated), eliminated.abs_row_sums()


# ----------------------------------------------------------------------------
# damped Newton on the (proximal) energy
# ----------------------------------------------------------------------------

_ARMIJO_SLOPE = 1e-4
_ARMIJO_FACTOR = 0.5
_ARMIJO_MIN_STEP = 2.0**-40


def _evaluate(system: AssembledSystem, params: ModelParams, u: np.ndarray):
    """The evaluation of a field that Newton and `evolve`'s record read:
    (K u, reaction vector r(u), consumption potential F(u))."""
    return system.K @ u, reaction_vector(system, u, params), consumption_potential(u, params)


def _newton_minimize(
    system: AssembledSystem,
    params: ModelParams,
    start: np.ndarray,
    constant,
    dt: float | None = None,
    evaluation=None,
):
    """Minimize the energy, plus ||w - c||_M^2 / (2 dt) when dt is given, by damped Newton.

    Newton starts at the masked `start`, which is also the proximal center
    c, so its first gradient is the energy's. `constant` is the caller's
    `_constant_part` of the Hessian (K, or K + M/dt); when it has a
    `SectorInverse`, each iteration preconditions CG with its `shifted` copy
    for that iteration's reaction diagonal, and CG stops at its rounding,
    given the row sums of |Hessian|: those of the constant part plus the
    nonnegative reaction diagonal. Each iterate is evaluated once
    (`_evaluate`): the caller may pass the masked start's `evaluation`, and
    the accepted trial's potential opens the next line search.

    Every caller stops by the same absolute rule: the lumped-mass dual norm
    of the objective gradient is at most NEWTON_TOL or, failing that, its
    rounding floor, or NEWTON_MAX_ITER iterations have run. The floor is
    computed only when NEWTON_TOL is not met. It is the dual norm of the
    `term_rounding` of the gradient's terms: |base| |u| (from the row sums of
    |base|, no product), the reaction r(u) and, with a proximal term, the
    lumped mass times |c| / dt. It lies above NEWTON_TOL only on stiff input
    (large diffusion coefficients). A start that already satisfies the
    rule is returned unchanged (zero iterations), so fully converged
    trajectories freeze exactly. A non-finite residual never counts as
    converged: at any iterate it raises NonlinearSolveError. Returns (values,
    iterations, dual-residual history, converged, evaluation of values).
    """
    mask = system.mask
    u = center = np.where(mask, 0.0, start)
    ku, react, potential = _evaluate(system, params, u) if evaluation is None else evaluation
    proximal = 0.0 if dt is None else system.lumped_mass * np.abs(center) / dt
    history = []
    base, precondition, row_abs = constant

    for iteration in range(NEWTON_MAX_ITER + 1):
        g = evaluated_gradient(system, ku, react)
        if iteration and dt is not None:  # the proximal term is 0 at the center
            g = g + (system.M @ (u - center)) / dt
            g[mask] = 0.0
        res = dual_norm(system, g)
        if not np.isfinite(res):
            where = "initial" if iteration == 0 else f"iteration {iteration}"
            raise NonlinearSolveError(f"{where} dual residual is not finite ({res})")
        history.append(res)
        if res <= NEWTON_TOL or res <= dual_norm(system, term_rounding(u, row_abs,
                                                                       react + proximal)):
            return u, iteration, history, True, (ku, react, potential)
        if iteration == NEWTON_MAX_ITER:
            return u, iteration, history, False, (ku, react, potential)
        reaction_diagonal = reaction_jacobian_diagonal(system, u, params)
        hessian = base.plus_diagonal(reaction_diagonal)
        direction = solve_spd(hessian, -g, row_abs + reaction_diagonal,
                              precondition=None if precondition is None
                              else precondition.shifted(reaction_diagonal))

        slope = float(dot_fields(g, direction))
        if slope >= 0.0:
            raise NonlinearSolveError(
                "Newton direction is not a descent direction; "
                "energy model and assembly are inconsistent"
            )
        # Armijo on the change along the line in difference form,
        # t d.(K u + M(u - c)/dt) + t^2/2 d.(base d) - M1.(F(u + t d) - F(u)):
        # near the minimizer two objective values differ by less than their
        # rounding (Hager & Zhang, SIAM J. Optim. 16, 2005). The slack covers
        # the rounding of the potential difference, F(u + t d) - F(u): two
        # potentials, each within `potential_rounding` of its value.
        linear = slope + float(dot_fields(direction, react))
        curvature = float(dot_fields(direction, base @ direction))
        fp_slack = 2.0 * ROUNDING_FACTOR * float(dot_fields(
            system.M1, potential_rounding(potential, params)))
        step = 1.0
        while True:
            candidate = u + step * direction
            trial = consumption_potential(candidate, params)
            change = (step * linear + 0.5 * step**2 * curvature
                      - float(dot_fields(system.M1, trial - potential)))
            if change <= _ARMIJO_SLOPE * step * slope + fp_slack:
                break
            step *= _ARMIJO_FACTOR
            if step < _ARMIJO_MIN_STEP:
                raise NonlinearSolveError(
                    "backtracking line search failed to find descent"
                )
        u, potential = candidate, trial
        ku, react = system.K @ u, reaction_vector(system, u, params)


def stationary_solve(
    system: AssembledSystem,
    params: ModelParams,
    u_init: np.ndarray,
) -> StationarySolution:
    """Compute the unique discrete stationary state from a given start.

    The energy decreases monotonically across iterations (Armijo), so the
    returned state satisfies E(u*) <= E(u_init). On hitting the iteration
    cap the best iterate is returned with converged=False.
    """
    system.check_field(u_init)
    values, iters, history, converged, _ = _newton_minimize(
        system, params, u_init, _constant_part(system, system.K))
    return StationarySolution(
        field=values,
        converged=converged,
        iterations=iters,
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

    Checks dt and u_n's shape and builds K + M/dt. The accepted state
    satisfies the proximal inequality E(u+) + ||u+ - u_n||_M^2/(2 dt) <=
    E(u_n) by construction, because the line search starts at the masked
    u_n, the proximal center, where the proximal term vanishes.
    """
    if cfg.dt is None or not cfg.dt > 0.0:
        raise ValueError(f"time step dt must be positive, got {cfg.dt}")
    system.check_field(u_n)
    constant = _constant_part(system, system.K + system.M / cfg.dt)
    return _step_implicit_euler_counted(system, params, cfg, u_n, constant)[0]


def _step_implicit_euler_counted(system, params, cfg, u_n, constant, evaluation=None):
    """One step from the masked u_n, given the `_constant_part` of K + M/cfg.dt
    and optionally the masked u_n's `_evaluate`; the callers check dt and u_n's
    shape once. Returns (values, Newton iterations, evaluation of values)."""
    values, iters, history, converged, evaluated = _newton_minimize(
        system, params, u_n, constant, dt=cfg.dt, evaluation=evaluation)
    if not converged:
        raise NonlinearSolveError(
            f"implicit-Euler inner solve stopped at residual {history[-1]:.3e} "
            f"after {iters} iterations"
        )
    return values, iters, evaluated


def evolve(
    system: AssembledSystem,
    params: ModelParams,
    cfg: SolverConfig,
    u0: np.ndarray,
) -> EvolutionTrace:
    """Implicit-Euler trajectory with one (energy, err_H, err_V, energy rounding) record per state.

    The trajectory starts at the masked u0, the first step's proximal
    center. The stationary reference is computed once (from zero) before
    stepping, and the constant part K + M/dt of every step's Hessian is
    eliminated and preconditioned once for all steps. Each state is
    evaluated once (`_evaluate`): u0's evaluation serves its record, the
    start residual and the first step, and each step returns the evaluation
    of its result, which serves that state's record and the next step.
    Once a step returns its input unchanged (zero Newton iterations), the
    trajectory is frozen: the remaining steps are not run, and their rows
    copy that state's record with zero iterations. Raises ValueError when
    u0's record or initial dual residual is not finite. On a step failure
    the partial trace is returned with the failure's message in `failure`.
    """
    cfg.require_timestep()
    system.check_field(u0)

    reference = stationary_solve(system, params, zero_field(system.mesh))
    if not reference.converged:
        raise NonlinearSolveError(
            "stationary reference solve did not converge; cannot measure decay"
        )
    u_star = reference.field

    k_row_abs = system.K.abs_row_sums()

    def record(u, evaluation):
        """(energy, err_H, err_V, energy rounding) of one state and its
        evaluation. The energy is `fem.energy`'s, from the evaluation's K u and
        potential; the norms are `fem.error_norms`'; the rounding is
        `energy_rounding`'s."""
        ku, _, potential = evaluation
        return (evaluated_energy(system, u, ku, potential),
                *error_norms(system, u - u_star),
                float(energy_rounding(system, params, u, k_row_abs)))

    u = np.where(system.mask, 0.0, u0)
    with np.errstate(over="ignore", invalid="ignore"):
        evaluation = _evaluate(system, params, u)
        start = record(u, evaluation)
        start_residual = dual_norm(system, evaluated_gradient(system, *evaluation[:2]))
    for name, value in zip(("energy", "err_H", "err_V", "dual residual"),
                           (*start[:3], start_residual)):
        if not np.isfinite(value):
            raise ValueError(f"u0's initial {name} is not finite ({value})")

    # one row (time, energy, err_H, err_V, energy rounding, Newton iterations) per state
    rows = [(0.0, *start, 0)]
    failure = None

    step_constant = _constant_part(system, system.K + system.M / cfg.dt)
    for n in range(1, cfg.n_steps + 1):
        try:
            stepped, k, stepped_evaluation = _step_implicit_euler_counted(
                system, params, cfg, u, step_constant, evaluation)
        except (NonlinearSolveError, LinearSolveError) as exc:
            failure = str(exc)
            break
        if k == 0:
            # Zero iterations return the masked input: the next step has the
            # same input and proximal center, so every later step returns it.
            rows += [(m * cfg.dt, *rows[-1][1:5], 0) for m in range(n, cfg.n_steps + 1)]
            break
        u, evaluation = stepped, stepped_evaluation
        rows.append((n * cfg.dt, *record(u, evaluation), k))

    times, energies, err_h, err_v, rounding, iters = map(np.asarray, zip(*rows))
    return EvolutionTrace(times, energies, err_h, err_v, iters.astype(np.int64), rounding,
                          failure)
