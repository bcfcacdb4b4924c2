"""Diagnostics: decay-rate fitting, interface flux jumps, the
strong-monotonicity constant, and the independent radial shooting reference.

The shooting reference integrates the stationary radial ODE through the core
with a high-order adaptive integrator and matches an analytic harmonic shell
profile at the interface; it shares no code with the finite-element path and
serves as its oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .fem import AssembledSystem
from .mesh import CoreShellMesh, GeometrySpec
from .model import ModelParams, consumption_rate
from .solvers import EvolutionTrace, _constant_part, solve_spd


class AnalysisError(RuntimeError):
    """A diagnostic computation could not be carried out."""


# ----------------------------------------------------------------------------
# exponential decay fitting
# ----------------------------------------------------------------------------


@dataclass
class DecayReport:
    """Fitted exponential H-decay rate with the provable-style lower bound.

    beta_fit is the least-squares rate of log err_H over the fit window;
    gamma_disc is the computed strong-monotonicity constant supplied for
    comparison (NaN when not provided). flag is empty for a clean fit,
    "converged-at-start" or "converged-too-fast" otherwise.
    """

    beta_fit: float
    gamma_disc: float
    r_squared: float
    window: tuple
    flag: str = ""


_PLATEAU_DECADES = 1e-6
_PLATEAU_FACTOR = 10.0
_MIN_WINDOW = 5
# Fewest trace samples (steps + 1) that `fit_decay_rate` accepts.
MIN_SAMPLES = 10


def fit_decay_rate(trace: EvolutionTrace, *, gamma_disc: float = math.nan,
                   window: tuple | None = None) -> DecayReport:
    """Least-squares fit of log err_H against time on the trace tail.

    The default window is the last half of the samples that remain after
    excluding (a) entries below 1e2 * machine epsilon relative to the
    initial error and (b) the solver-noise plateau: once the trace has
    decayed at least six decades, trailing entries within a factor 10 of the
    final value carry solver tolerance rather than dynamics. Traces that are
    converged from the start (or almost) are reported with a flag instead of
    failing. Invariant under time shifts; rates scale inversely under time
    rescaling.
    """
    t = np.asarray(trace.times, dtype=float)
    err = np.asarray(trace.err_H, dtype=float)
    if t.shape[0] < MIN_SAMPLES:
        raise AnalysisError(f"trace has {t.shape[0]} samples; at least {MIN_SAMPLES} required")

    scale = err[0]
    if not scale > 0.0:
        return DecayReport(0.0, gamma_disc, 1.0, (0, 0), "converged-at-start")

    cutoff = 100.0 * np.finfo(float).eps * scale
    if err[-1] < _PLATEAU_DECADES * scale:
        cutoff = max(cutoff, _PLATEAU_FACTOR * err[-1])
    below = np.flatnonzero(err <= cutoff)
    valid = int(below[0]) if below.size else err.shape[0]
    if valid == 0:
        return DecayReport(0.0, gamma_disc, 1.0, (0, 0), "converged-at-start")

    if window is None:
        lo = valid // 2 if valid - valid // 2 >= _MIN_WINDOW else max(0, valid - _MIN_WINDOW)
        window = (lo, valid)
    lo, hi = int(window[0]), int(window[1])
    if hi - lo < 2:
        raise AnalysisError(f"fit window [{lo}, {hi}) is too small")
    if hi - lo < _MIN_WINDOW:
        return DecayReport(0.0, gamma_disc, 1.0, (lo, hi), "converged-too-fast")
    if np.any(err[lo:hi] <= 0.0):
        raise AnalysisError("err_H must be strictly positive on the fit window")

    tw = t[lo:hi]
    yw = np.log(err[lo:hi])
    t_mean, y_mean = tw.mean(), yw.mean()
    if float(yw.max() - yw.min()) <= 128.0 * np.finfo(float).eps * max(1.0, abs(y_mean)):
        # constant to rounding: the regression would fit mean-subtraction noise
        return DecayReport(0.0, gamma_disc, 1.0, (lo, hi), "")
    denom = float(((tw - t_mean) ** 2).sum())
    slope = float(((tw - t_mean) @ (yw - y_mean)) / denom)
    fitted = y_mean + slope * (tw - t_mean)
    ss_res = float(((yw - fitted) ** 2).sum())
    ss_tot = float(((yw - y_mean) ** 2).sum())
    r_squared = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)

    beta = 0.0 if slope == 0.0 else -slope
    if beta < 0.0:
        span = max(abs(yw.max() - yw.min()), 1e-12)
        if beta < -1e-9 * span / (tw[-1] - tw[0]):
            raise AnalysisError(f"fitted rate is negative ({beta}); trace is not decaying")
        beta = 0.0
    return DecayReport(beta, gamma_disc, r_squared, (lo, hi), "")


# ----------------------------------------------------------------------------
# strong-monotonicity constant
# ----------------------------------------------------------------------------


def smallest_generalized_eigenvalue(system: AssembledSystem, rel_tol: float = 1e-8,
                                    max_iter: int = 500) -> float:
    """Smallest eigenvalue of the pencil (unit stiffness, mass) on free nodes.

    Inverse power iteration from the all-ones vector; each inverse apply is
    a preconditioned conjugate-gradient solve. Deterministic.
    """
    kt, precondition = _constant_part(system, system.Kt)
    m = system.restrict(system.M)
    x = np.ones(system.free.shape[0])
    x /= math.sqrt(float(x @ (m @ x)))
    lam = float(x @ (kt @ x))
    for _ in range(max_iter):
        y = solve_spd(kt, m @ x, 1e-12, precondition=precondition)
        y /= math.sqrt(float(y @ (m @ y)))
        lam_new = float(y @ (kt @ y)) / float(y @ (m @ y))
        x = y
        if abs(lam_new - lam) <= rel_tol * abs(lam_new):
            return lam_new
        lam = lam_new
    raise AnalysisError(f"inverse power iteration did not converge in {max_iter} iterations")


def estimate_gamma(system: AssembledSystem, params: ModelParams) -> float:
    """Strong-monotonicity constant b_min * lam/(1 + lam) of the energy gradient.

    lam is the computed smallest generalized eigenvalue of the unit
    stiffness against the mass matrix; the bound follows from the reaction
    term's monotonicity together with the discrete Poincare inequality, so it
    holds exactly for the assembled operators.
    """
    lam = smallest_generalized_eigenvalue(system)
    return params.b_min * lam / (1.0 + lam)


# ----------------------------------------------------------------------------
# interface flux jump
# ----------------------------------------------------------------------------


def interface_flux_jump(system: AssembledSystem, mesh: CoreShellMesh,
                        u: np.ndarray, params: ModelParams) -> float:
    """Max over interface facets of the conormal-flux mismatch.

    Per-element constant gradients give, for each facet,
    |b2 grad_shell . nu - b1 grad_core . nu|; the maximum measures how well
    a discrete field honors the diffraction condition.
    """
    system.check_field(u)
    sides = mesh.facet_elements  # (F, 2): core, shell
    side_grads = np.einsum("fskd,fsk->fsd", mesh.gradients[sides],
                           u[mesh.elements[sides]])
    flux = np.einsum("fsd,fd->fs", side_grads, mesh.facet_normals)
    return float(np.abs(params.b2 * flux[:, 1] - params.b1 * flux[:, 0]).max())


# ----------------------------------------------------------------------------
# radial shooting reference
# ----------------------------------------------------------------------------


class RadialStationaryProfile:
    """Composite core/shell stationary profile from the shooting solve.

    Callable on radii in [0, r2]; vectorized. Attributes record the center
    value, the final matching defect, and the imposed interface flux
    mismatch for post-hoc verification.
    """

    def __init__(self, spec, core_solution, shell_coeffs, center_value, defect, flux_mismatch):
        self._spec = spec
        self._core = core_solution
        self._shell = shell_coeffs
        self.center_value = center_value
        self.defect = defect
        self.flux_mismatch = flux_mismatch

    def _shell_value(self, r):
        a_coef, b_coef = self._shell
        n = self._spec.dimension
        if n == 2:
            return a_coef + b_coef * np.log(r)
        return a_coef + b_coef * r ** (2.0 - n)

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty_like(r)
        core = r <= self._spec.r1
        if np.any(core):
            rc = np.clip(r[core], self._core.t[0], self._spec.r1)
            out[core] = self._core.sol(rc)[0]
        if np.any(~core):
            out[~core] = self._shell_value(r[~core])
        return float(out[0]) if scalar else out


def radial_stationary_reference(
    params: ModelParams,
    spec: GeometrySpec,
    alpha_bracket: tuple | None = None,
    *,
    reaction: bool = True,
    defect_tol: float = 1e-10,
) -> RadialStationaryProfile:
    """Shooting solve of the stationary radial problem, independent of the FEM path.

    Integrates u'' + (N-1)/r u' = -rate(u)/b1 from the center (regular
    series start, u'(0) = 0, u(0) = alpha) through the core with DOP853,
    attaches the analytic harmonic shell matching value and conormal flux at
    r1, and bisects alpha until the outer boundary defect is below
    defect_tol. The default bracket (0, c0] always straddles the root.
    """
    from scipy.integrate import solve_ivp  # test-side oracle; keeps the CLI import light

    if spec.kind != "radial":
        raise AnalysisError("the shooting reference requires a radial geometry")
    n = spec.dimension
    lo, hi = alpha_bracket if alpha_bracket is not None else (0.0, params.c0)

    def rate(z):
        return consumption_rate(z, params) if reaction else 0.0

    def rhs(r, y):
        return [y[1], -rate(y[0]) / params.b1 - (n - 1) / r * y[1]]

    def shoot(alpha):
        # Regular series start: u ~ alpha - rate(alpha)/(2 N b1) r^2 near 0.
        r_eps = 1e-8 * spec.r1
        a2 = -rate(alpha) / (2.0 * n * params.b1)
        sol = solve_ivp(
            rhs,
            (r_eps, spec.r1),
            [alpha + a2 * r_eps**2, 2.0 * a2 * r_eps],
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        if not sol.success:
            raise AnalysisError(f"core integration failed: {sol.message}")
        u1, du1 = sol.y[0, -1], sol.y[1, -1]
        if n == 2:
            b_coef = params.b1 * du1 * spec.r1 / params.b2
            a_coef = u1 - b_coef * math.log(spec.r1)
            boundary = a_coef + b_coef * math.log(spec.r2)
            shell_slope_r1 = b_coef / spec.r1
        else:
            b_coef = params.b1 * du1 * spec.r1 ** (n - 1) / ((2.0 - n) * params.b2)
            a_coef = u1 - b_coef * spec.r1 ** (2.0 - n)
            boundary = a_coef + b_coef * spec.r2 ** (2.0 - n)
            shell_slope_r1 = (2.0 - n) * b_coef * spec.r1 ** (1.0 - n)
        mismatch = abs(params.b1 * du1 - params.b2 * shell_slope_r1)
        return boundary, sol, (a_coef, b_coef), mismatch

    f_lo, _, _, _ = shoot(lo)
    f_hi, sol_hi, shell_hi, mism_hi = shoot(hi)
    if f_lo * f_hi > 0.0:
        raise AnalysisError(
            f"bracket ({lo}, {hi}) does not straddle the matching defect sign change: "
            f"defect({lo})={f_lo:.3e}, defect({hi})={f_hi:.3e}"
        )

    alpha, defect, sol, shell, mism = hi, f_hi, sol_hi, shell_hi, mism_hi
    a, b = lo, hi
    for _ in range(200):
        if abs(defect) < defect_tol:
            break
        mid = 0.5 * (a + b)
        f_mid, sol_mid, shell_mid, mism_mid = shoot(mid)
        alpha, defect, sol, shell, mism = mid, f_mid, sol_mid, shell_mid, mism_mid
        if f_lo * f_mid <= 0.0:
            b = mid
        else:
            a, f_lo = mid, f_mid
    else:
        raise AnalysisError(f"bisection stalled with matching defect {defect:.3e}")

    return RadialStationaryProfile(spec, sol, shell, alpha, defect, mism)
