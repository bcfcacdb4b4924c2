"""Randomized property suite behind the `verify` CLI command.

Each property mirrors a structural guarantee of the continuous problem at
the discrete level: bounds and monotonicity of the consumption law,
monotonicity and coercivity of the assembled operator, strong monotonicity
of the energy gradient with the computed constant, gradient correctness
against finite differences, solvability of the regularized
(mass + stiffness) systems, and a sampled hemicontinuity bound.

The suite runs sequentially under a fixed seed; identical configuration and
seed produce byte-identical reports. On a violation the offending sample is
kept for serialization so the failure can be replayed.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import estimate_gamma
from .config import RunConfig
from .fem import (
    assemble,
    dual_norm,
    energy,
    energy_gradient,
    field_from_values,
    reaction_vector,
    residual,
)
from .mesh import build_mesh
from .model import (
    consumption_potential,
    consumption_rate,
    from_working_variable,
    to_working_variable,
)
from .reporting import fmt
from .solvers import SolverConfig, _constant_part, _newton_minimize
from .solvers import solve_spd  # noqa: F401  (the benchmark tracer wraps it by this name)


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str
    sample: dict | None = None


# Fixed here, not read from [solver], so the report does not depend on it.
_RESOLVENT_SOLVER = SolverConfig(newton_tol=1e-8, newton_max_iter=60, linear_tol=1e-12)


def solve_resolvent(system, params, g, constant=None):
    """Solve (M + K) u - r(u) = M g for u, returning (u, converged).

    The equation is the optimality condition of min E(u) + ||u - g||_M^2 / 2,
    so this is one implicit-Euler step with dt = 1 from g, started at zero.
    `constant` is the `_constant_part` of M + K, built here when None.
    """
    u, _, _, converged = _newton_minimize(system, params, _RESOLVENT_SOLVER,
                                          np.zeros(system.n_nodes), prox_center=g,
                                          dt=1.0, constant=constant)
    return u, converged


def _random_field(rng, system, amplitude):
    return field_from_values(system.mesh, rng.uniform(-amplitude, amplitude, system.n_nodes))


def run_verification(config: RunConfig, corrupt_b: bool = False) -> list:
    """Run every property check and return results in a fixed order."""
    params = config.model
    mesh = build_mesh(config.geometry)
    b_override = (params.b1, -params.b2) if corrupt_b else None
    system = assemble(mesh, params, reaction=config.reaction, b_override=b_override)
    mk = system.M + system.K
    rng = np.random.default_rng(config.verify.seed)
    v = config.verify
    results = []

    def run(name, fn):
        try:
            results.append(fn(name))
        except Exception as exc:  # a property that cannot run has failed
            results.append(PropertyResult(name, False, f"error: {exc}"))

    # --- consumption law -----------------------------------------------------

    def rate_samples():
        width = 10.0 * params.c1
        z = np.sort(rng.uniform(-width, width, v.rate_samples))
        return z

    def check_rate_range(name):
        z = rate_samples()
        r = consumption_rate(z, params)
        ok = bool(np.all(r >= 0.0) and np.all(r < 1.0))
        return PropertyResult(name, ok, f"min={fmt(r.min())} max={fmt(r.max())}",
                              None if ok else {"z": z[(r < 0.0) | (r >= 1.0)]})

    def check_rate_monotone(name):
        z = rate_samples()
        d = np.diff(consumption_rate(z, params))
        ok = bool(np.all(d <= 0.0))
        return PropertyResult(name, ok, f"max increment={fmt(d.max())}",
                              None if ok else {"z": z[:-1][d > 0.0]})

    def check_rate_lipschitz(name):
        z = rate_samples()
        d = np.abs(np.diff(consumption_rate(z, params)))
        bound = np.diff(z) * (1.0 + 1e-12) / (params.c1 - params.c0)
        ok = bool(np.all(d <= bound + 1e-300))
        margin = (bound - d).min()
        return PropertyResult(name, ok, f"min slack={fmt(margin)}",
                              None if ok else {"z": z[:-1][d > bound]})

    def check_rate_product_bound(name):
        z = rate_samples()
        prod = z * consumption_rate(z, params)
        ok = bool(np.all(prod <= params.c0 + 1e-12))
        return PropertyResult(name, ok, f"max z*rate={fmt(prod.max())}",
                              None if ok else {"z": z[prod > params.c0 + 1e-12]})

    def check_potential_bound(name):
        s = rate_samples()
        f_val = consumption_potential(s, params)
        slack = 1e-12 * np.maximum(1.0, np.abs(s))
        ok = bool(np.all(f_val <= np.abs(s) + slack))
        return PropertyResult(name, ok, f"max F(s)-|s|={fmt((f_val - np.abs(s)).max())}",
                              None if ok else {"s": s[f_val > np.abs(s) + slack]})

    def check_potential_derivative(name):
        s = rng.uniform(-5.0 * params.c1, params.c0 - 1e-3, 2000)
        h = 1e-6 * np.maximum(1.0, np.abs(s))
        fd = (consumption_potential(s + h, params)
              - consumption_potential(s - h, params)) / (2.0 * h)
        r = consumption_rate(s, params)
        rel = np.abs(fd - r) / np.maximum(np.abs(r), 1e-300)
        ok = bool(np.all(rel <= 1e-6))
        return PropertyResult(name, ok, f"max rel err={fmt(rel.max())}",
                              None if ok else {"s": s[rel > 1e-6]})

    def check_transform_roundtrip(name):
        conc = rng.uniform(0.0, 3.0 * params.c0, 1000)
        back = from_working_variable(to_working_variable(conc, params), params)
        round_err = np.abs(back - conc).max()
        u = to_working_variable(conc, params)
        dim = conc / (conc + params.c_hat)
        ident_err = np.abs(dim - consumption_rate(u, params)).max()
        ok = round_err <= 1e-15 * 3.0 * params.c0 and ident_err <= 1e-14
        return PropertyResult(name, ok,
                              f"roundtrip={fmt(round_err)} identity={fmt(ident_err)}")

    # --- mesh and matrices ---------------------------------------------------

    def check_mesh_invariants(name):
        mesh.validate()
        mask_ok = np.array_equal(np.flatnonzero(mesh.dirichlet_mask()),
                                 np.sort(mesh.s_nodes))
        return PropertyResult(name, bool(mask_ok),
                              f"nodes={mesh.n_nodes} elements={mesh.n_elements} "
                              f"facets={len(mesh.gamma_facets)}")

    def check_matrix_symmetry(name):
        k_asym = system.K.asymmetric_entries()
        m_asym = system.M.asymmetric_entries()
        ok = k_asym == 0 and m_asym == 0
        return PropertyResult(name, ok, f"K asym entries={k_asym} M asym entries={m_asym}")

    def check_reaction_bounds(name):
        worst = 0.0
        for _ in range(20):
            u = _random_field(rng, system, 2.0 * params.c0)
            r = reaction_vector(system, u, params)
            active = system.M1 > 0.0
            if np.any(r[~active] != 0.0) or np.any(r[active] < 0.0) \
                    or np.any(r[active] >= system.M1[active]):
                return PropertyResult(name, False, "reaction entry out of [0, M1_i)",
                                      {"u": u})
            if np.any(active):
                worst = max(worst, float((r[active] / system.M1[active]).max()))
        return PropertyResult(name, True, f"max rate={fmt(worst)}")

    # --- operator structure --------------------------------------------------

    def check_monotonicity(name):
        worst = np.inf
        for _ in range(v.monotonicity_pairs):
            u = _random_field(rng, system, 2.0 * params.c0)
            w = _random_field(rng, system, 2.0 * params.c0)
            d = u - w
            lhs = float((residual(system, u, params) - residual(system, w, params)) @ d)
            floor = -v.pairing_slack * float(d @ (system.M @ d))
            worst = min(worst, lhs)
            if lhs < floor:
                return PropertyResult(name, False,
                                      f"pairing {fmt(lhs)} below floor {fmt(floor)}",
                                      {"u": u, "v": w})
        return PropertyResult(name, True, f"min pairing={fmt(worst)}")

    def check_coercivity(name):
        c_coef = min(1.0, params.b_min)
        worst = np.inf
        for _ in range(v.coercivity_samples):
            u = _random_field(rng, system, 3.0 * params.c0)
            lhs = float(u @ (system.M @ u) + u @ (system.K @ u)
                        - reaction_vector(system, u, params) @ u)
            vnorm2 = float(u @ (system.M @ u) + u @ (system.Kt @ u))
            rhs = c_coef * vnorm2 - params.c0 * system.core_volume
            slack = 1e-9 * max(1.0, abs(lhs), vnorm2)
            worst = min(worst, lhs - rhs)
            if lhs < rhs - slack:
                return PropertyResult(name, False,
                                      f"coercivity gap {fmt(lhs - rhs)}", {"u": u})
        return PropertyResult(name, True, f"min slack={fmt(worst)}")

    def check_strong_monotonicity(name):
        gamma = estimate_gamma(system, params)
        worst = np.inf
        for _ in range(v.strong_monotonicity_pairs):
            u = _random_field(rng, system, 2.0 * params.c0)
            w = _random_field(rng, system, 2.0 * params.c0)
            d = u - w
            lhs = float((energy_gradient(system, u, params)
                         - energy_gradient(system, w, params)) @ d)
            vnorm2 = float(d @ (system.M @ d) + d @ (system.Kt @ d))
            rhs = gamma * vnorm2 * (1.0 - 1e-10)
            worst = min(worst, lhs - rhs)
            if lhs < rhs - 1e-12 * max(1.0, vnorm2):
                return PropertyResult(
                    name, False,
                    f"gamma_disc={fmt(gamma)} violated by {fmt(rhs - lhs)}",
                    {"u": u, "v": w})
        return PropertyResult(name, True,
                              f"gamma_disc={fmt(gamma)} min slack={fmt(worst)}")

    def check_gradient_fd(name):
        # The step stays inside the 1e-3 guard around the kink at c0 below;
        # a much smaller one lets the rounding of E, about eps_mach * |E| / eps,
        # exceed gradient_rtol.
        eps = 1e-4
        worst = 0.0
        for _ in range(v.gradient_checks):
            raw = rng.uniform(-params.c0, 2.0 * params.c0, system.n_nodes)
            # keep nodal values away from the potential's kink at c0
            near = np.abs(raw - params.c0) < 1e-3
            raw[near] = params.c0 - 2e-3
            u = field_from_values(mesh, raw)
            hdir = field_from_values(mesh, rng.uniform(-1.0, 1.0, system.n_nodes))
            fd = (energy(system, u + eps * hdir, params)
                  - energy(system, u - eps * hdir, params)) / (2.0 * eps)
            gh = float(energy_gradient(system, u, params) @ hdir)
            rel = abs(fd - gh) / max(abs(fd), abs(gh), 1e-300)
            worst = max(worst, rel)
            if rel > v.gradient_rtol:
                return PropertyResult(name, False, f"rel err={fmt(rel)}",
                                      {"u": u, "h": hdir})
        return PropertyResult(name, True, f"max rel err={fmt(worst)}")

    def check_gradient_is_residual(name):
        u = _random_field(rng, system, 2.0 * params.c0)
        same = np.array_equal(energy_gradient(system, u, params),
                              residual(system, u, params))
        return PropertyResult(name, bool(same), "bitwise identical" if same else "mismatch",
                              None if same else {"u": u})

    def check_resolvent(name):
        # Discrete counterpart of full range for (identity + operator):
        # mass + stiffness - reaction = mass * g is solvable for any g.
        constant = _constant_part(system, mk)
        worst = 0.0
        for _ in range(v.resolvent_solves):
            g = _random_field(rng, system, 2.0 * params.c0)
            u, converged = solve_resolvent(system, params, g, constant)
            res = mk @ u - reaction_vector(system, u, params) - system.M @ g
            res[system.mask] = 0.0
            res_norm = dual_norm(system, res)
            if not (converged and res_norm <= 1e-8):
                return PropertyResult(name, False,
                                      f"resolvent solve stalled at {fmt(res_norm)}",
                                      {"g": g})
            worst = max(worst, res_norm)
        return PropertyResult(name, True, f"max residual={fmt(worst)}")

    def check_hemicontinuity(name):
        worst = 0.0
        lip = 1.0 / (params.c1 - params.c0)
        for _ in range(v.hemicontinuity_samples):
            u = _random_field(rng, system, 2.0 * params.c0)
            w_dir = _random_field(rng, system, 1.0)
            test = _random_field(rng, system, 1.0)

            def pairing(t):
                vals = u + t * w_dir
                return float(vals @ (mk @ test) - reaction_vector(system, vals, params) @ test)

            bound_slope = (abs(float(w_dir @ (mk @ test)))
                           + lip * float(system.M1 @ np.abs(w_dir * test)))
            ts = np.linspace(0.0, 1.0, 9)
            vals = np.array([pairing(t) for t in ts])
            for i in range(len(ts)):
                for j in range(i + 1, len(ts)):
                    diff = abs(vals[i] - vals[j])
                    allowed = bound_slope * abs(ts[i] - ts[j]) * (1.0 + 1e-10) + 1e-12
                    worst = max(worst, diff - allowed)
                    if diff > allowed:
                        return PropertyResult(name, False,
                                              f"pairing jump {fmt(diff)} exceeds "
                                              f"Lipschitz bound {fmt(allowed)}",
                                              {"u": u, "v": w_dir, "w": test})
        return PropertyResult(name, True, f"max overshoot={fmt(worst)}")

    run("consumption-rate-range", check_rate_range)
    run("consumption-rate-monotone", check_rate_monotone)
    run("consumption-rate-lipschitz", check_rate_lipschitz)
    run("consumption-rate-product-bound", check_rate_product_bound)
    run("consumption-potential-bound", check_potential_bound)
    run("consumption-potential-derivative", check_potential_derivative)
    run("variable-transform-roundtrip", check_transform_roundtrip)
    run("mesh-invariants", check_mesh_invariants)
    run("matrix-symmetry", check_matrix_symmetry)
    run("reaction-vector-bounds", check_reaction_bounds)
    run("operator-monotonicity", check_monotonicity)
    run("operator-coercivity", check_coercivity)
    run("gradient-strong-monotonicity", check_strong_monotonicity)
    run("gradient-finite-difference", check_gradient_fd)
    run("gradient-equals-operator", check_gradient_is_residual)
    run("resolvent-solvability", check_resolvent)
    run("weak-operator-hemicontinuity", check_hemicontinuity)
    return results


def report_lines(results) -> list:
    lines = ["property verification report", ""]
    width = max(len(r.name) for r in results)
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        lines.append(f"[{status}] {r.name.ljust(width)}  {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append("")
    lines.append(f"result: {'PASS' if n_pass == len(results) else 'FAIL'} "
                 f"({n_pass}/{len(results)})")
    return lines
