"""Randomized property suite behind the `verify` CLI command.

Each property mirrors a structural guarantee of the continuous problem at
the discrete level: bounds and monotonicity of the consumption law,
monotonicity and coercivity of the assembled operator, strong monotonicity
of the energy gradient with the computed constant, gradient correctness
against finite differences and against the operator built element by
element, solvability of the regularized (mass + stiffness) systems by the
implicit-Euler step of size 1, and a sampled hemicontinuity bound.

The suite runs sequentially under a fixed seed; identical configuration and
seed produce byte-identical reports. Every random sample is drawn once: the
five consumption-law checks read one sorted sample of the scalar law, and
the operator checks draw their fields in blocks (`sample_blocks`). On a
violation the offending sample is kept for serialization so the failure can
be replayed.
"""

from dataclasses import dataclass

import numpy as np

from .analysis import estimate_gamma
from .config import RunConfig
from .fem import (
    assemble,
    dot_fields,
    dual_norm,
    element_matrices,
    energy,
    energy_gradient,
    reaction_vector,
)
from .mesh import build_mesh
from .model import (
    consumption_potential,
    consumption_rate,
    dimensional_consumption,
    from_working_variable,
    to_working_variable,
)
from .reporting import fmt
from .solvers import NonlinearSolveError, SolverConfig, _constant_part, _step_implicit_euler_counted
from .solvers import solve_spd  # noqa: F401  (the benchmark tracer wraps it by this name)


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str
    sample: dict | None = None


# Sample counts and tolerances, fixed here: the verdict is a property of the
# operator, and no setting can make a check vacuous.
RATE_SAMPLES = 200000
MONOTONICITY_PAIRS = 500
STRONG_MONOTONICITY_PAIRS = 100
COERCIVITY_SAMPLES = 200
GRADIENT_CHECKS = 50
RESOLVENT_SOLVES = 5
HEMICONTINUITY_SAMPLES = 20
# operator-monotonicity accepts a pairing down to -PAIRING_SLACK * ||u - v||_M^2
PAIRING_SLACK = 1e-12
# largest relative error of the gradient against its central difference
GRADIENT_RTOL = 1e-6
# largest difference of the gradient from the element-wise operator, relative
# to the element-wise |K| |u| + |r(u)| (rounding reads about 1e-15)
OPERATOR_RTOL = 1e-12


# Nodal values per block of samples: large enough that per-call overhead is
# small against the work, small enough that a block's sparse products (about
# 7 slots per value on planar meshes) stay within 2 MB.
BLOCK_VALUES = 2**15


def sample_blocks(rng, system, count, *bounds):
    """Draw `count` random samples of one field per (low, high) bound, in blocks.

    One draw of shape (block, fields, n) gives what `count` rounds of
    `field_from_values(rng.uniform(low, high, n))` per field give, in the
    same order and bit for bit: uniform maps each standard draw U to
    low + (high - low) * U. A block holds about BLOCK_VALUES nodal values.
    Each block is drawn whole, so a check that stops at a violation leaves
    the generator at the end of that block.
    """
    low, high = np.array(bounds, dtype=float).T[:, :, None]
    size = max(1, BLOCK_VALUES // (len(bounds) * system.n_nodes))
    for start in range(0, count, size):
        # rng.uniform with array bounds draws the same values, three times slower
        block = rng.random((min(size, count - start), len(bounds), system.n_nodes))
        block *= high - low
        block += low
        np.copyto(block, 0.0, where=system.mask)
        yield block


def _first(violated):
    """Index of the first violating sample of a block, or None."""
    hits = np.flatnonzero(violated)
    return int(hits[0]) if hits.size else None


def run_verification(config: RunConfig, corrupt_b: bool = False) -> list:
    """Run every property check and return results in a fixed order."""
    params = config.model
    mesh = build_mesh(config.geometry)
    b_override = (params.b1, -params.b2) if corrupt_b else None
    system = assemble(mesh, params, b_override=b_override)
    mk = system.M + system.K
    rng = np.random.default_rng(config.verify.seed)
    results = []

    def run(name, fn):
        try:
            results.append(fn(name))
        except Exception as exc:  # a property that cannot run has failed
            results.append(PropertyResult(name, False, f"error: {exc}"))

    # --- consumption law -----------------------------------------------------

    # one sorted sample of the scalar law, read by the five checks below
    z = np.sort(rng.uniform(-10.0 * params.c1, 10.0 * params.c1, RATE_SAMPLES))
    rate = consumption_rate(z, params)
    step = np.diff(rate)

    def check_rate_range(name):
        ok = bool(np.all(rate >= 0.0) and np.all(rate < 1.0))
        return PropertyResult(name, ok, f"min={fmt(rate.min())} max={fmt(rate.max())}",
                              None if ok else {"z": z[(rate < 0.0) | (rate >= 1.0)]})

    def check_rate_monotone(name):
        ok = bool(np.all(step <= 0.0))
        return PropertyResult(name, ok, f"max increment={fmt(step.max())}",
                              None if ok else {"z": z[:-1][step > 0.0]})

    def check_rate_lipschitz(name):
        d = np.abs(step)
        bound = np.diff(z) * (1.0 + 1e-12) / (params.c1 - params.c0)
        ok = bool(np.all(d <= bound + 1e-300))
        margin = (bound - d).min()
        return PropertyResult(name, ok, f"min slack={fmt(margin)}",
                              None if ok else {"z": z[:-1][d > bound]})

    def check_rate_product_bound(name):
        prod = z * rate
        ok = bool(np.all(prod <= params.c0 + 1e-12))
        return PropertyResult(name, ok, f"max z*rate={fmt(prod.max())}",
                              None if ok else {"z": z[prod > params.c0 + 1e-12]})

    def check_potential_bound(name):
        f_val = consumption_potential(z, params)
        slack = 1e-12 * np.maximum(1.0, np.abs(z))
        ok = bool(np.all(f_val <= np.abs(z) + slack))
        return PropertyResult(name, ok, f"max F(s)-|s|={fmt((f_val - np.abs(z)).max())}",
                              None if ok else {"s": z[f_val > np.abs(z) + slack]})

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
        dim = dimensional_consumption(conc, params)
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
        amp = 2.0 * params.c0
        active = system.M1 > 0.0
        for block in sample_blocks(rng, system, 20, (-amp, amp)):
            u = block[:, 0]
            r = reaction_vector(system, u, params)
            j = _first(np.any(r[:, ~active] != 0.0, axis=1) | np.any(r[:, active] < 0.0, axis=1)
                       | np.any(r[:, active] >= system.M1[active], axis=1))
            if j is not None:
                return PropertyResult(name, False, "reaction entry out of [0, M1_i)",
                                      {"u": u[j]})
            if np.any(active):
                worst = max(worst, float((r[:, active] / system.M1[active]).max()))
        return PropertyResult(name, True, f"max rate={fmt(worst)}")

    # --- operator structure --------------------------------------------------

    def check_monotonicity(name):
        worst = np.inf
        amp = 2.0 * params.c0
        for pairs in sample_blocks(rng, system, MONOTONICITY_PAIRS,
                                   (-amp, amp), (-amp, amp)):
            d = pairs[:, 0] - pairs[:, 1]
            g = energy_gradient(system, pairs, params)
            lhs = dot_fields(g[:, 0] - g[:, 1], d)
            floor = -PAIRING_SLACK * dot_fields(d, system.M @ d)
            j = _first(lhs < floor)
            if j is not None:
                return PropertyResult(name, False,
                                      f"pairing {fmt(lhs[j])} below floor {fmt(floor[j])}",
                                      {"u": pairs[j, 0], "v": pairs[j, 1]})
            # fmin and fmax skip NaN, as min() and max() of single samples did
            worst = np.fmin(worst, np.fmin.reduce(lhs))
        return PropertyResult(name, True, f"min pairing={fmt(worst)}")

    def check_coercivity(name):
        c_coef = min(1.0, params.b_min)
        worst = np.inf
        amp = 3.0 * params.c0
        for block in sample_blocks(rng, system, COERCIVITY_SAMPLES, (-amp, amp)):
            u = block[:, 0]
            mass = dot_fields(u, system.M @ u)
            lhs = (mass + dot_fields(u, system.K @ u)
                   - dot_fields(reaction_vector(system, u, params), u))
            vnorm2 = mass + dot_fields(u, system.Kt @ u)
            rhs = c_coef * vnorm2 - params.c0 * system.core_volume
            slack = 1e-9 * np.maximum(np.maximum(1.0, np.abs(lhs)), vnorm2)
            j = _first(lhs < rhs - slack)
            if j is not None:
                return PropertyResult(name, False,
                                      f"coercivity gap {fmt(lhs[j] - rhs[j])}", {"u": u[j]})
            worst = np.fmin(worst, np.fmin.reduce(lhs - rhs))
        return PropertyResult(name, True, f"min slack={fmt(worst)}")

    def check_strong_monotonicity(name):
        gamma = estimate_gamma(system, params)
        worst = np.inf
        amp = 2.0 * params.c0
        for pairs in sample_blocks(rng, system, STRONG_MONOTONICITY_PAIRS,
                                   (-amp, amp), (-amp, amp)):
            d = pairs[:, 0] - pairs[:, 1]
            g = energy_gradient(system, pairs, params)
            lhs = dot_fields(g[:, 0] - g[:, 1], d)
            vnorm2 = dot_fields(d, system.M @ d) + dot_fields(d, system.Kt @ d)
            rhs = gamma * vnorm2 * (1.0 - 1e-10)
            j = _first(lhs < rhs - 1e-12 * np.maximum(1.0, vnorm2))
            if j is not None:
                return PropertyResult(
                    name, False,
                    f"gamma_disc={fmt(gamma)} violated by {fmt(rhs[j] - lhs[j])}",
                    {"u": pairs[j, 0], "v": pairs[j, 1]})
            worst = np.fmin(worst, np.fmin.reduce(lhs - rhs))
        return PropertyResult(name, True,
                              f"gamma_disc={fmt(gamma)} min slack={fmt(worst)}")

    def check_gradient_fd(name):
        # The step stays inside the 1e-3 guard around the kink at c0 below;
        # a much smaller one lets the rounding of E, about eps_mach * |E| / eps,
        # exceed GRADIENT_RTOL.
        eps = 1e-4
        worst = 0.0
        for block in sample_blocks(rng, system, GRADIENT_CHECKS,
                                   (-params.c0, 2.0 * params.c0), (-1.0, 1.0)):
            u, hdir = block[:, 0], block[:, 1]
            # keep nodal values away from the potential's kink at c0
            u[(np.abs(u - params.c0) < 1e-3) & ~system.mask] = params.c0 - 2e-3
            e_plus, e_minus = energy(system, np.stack([u + eps * hdir, u - eps * hdir]),
                                     params)
            fd = (e_plus - e_minus) / (2.0 * eps)
            gh = dot_fields(energy_gradient(system, u, params), hdir)
            rel = np.abs(fd - gh) / np.maximum(np.maximum(np.abs(fd), np.abs(gh)), 1e-300)
            j = _first(rel > GRADIENT_RTOL)
            if j is not None:
                return PropertyResult(name, False, f"rel err={fmt(rel[j])}",
                                      {"u": u[j], "h": hdir[j]})
            worst = np.fmax(worst, np.fmax.reduce(rel))
        return PropertyResult(name, True, f"max rel err={fmt(worst)}")

    def check_gradient_is_operator(name):
        # K u - r(u) from the model's element stiffness blocks, summed per
        # node: independent of the sparsity pattern, its slot table, the hub
        # rows and the sparse product.
        amp = 2.0 * params.c0
        u = next(sample_blocks(rng, system, 1, (-amp, amp)))[0, 0]
        k_local = element_matrices(mesh, params.b1, params.b2)[0]
        u_local = u[mesh.elements]
        nodes = mesh.elements.ravel()

        def node_sums(terms):
            return np.bincount(nodes, weights=terms.ravel(), minlength=mesh.n_nodes)

        r = reaction_vector(system, u, params)
        operator = node_sums(np.einsum("eab,eb->ea", k_local, u_local)) - r
        size = node_sums(np.einsum("eab,eb->ea", np.abs(k_local), np.abs(u_local))) + np.abs(r)
        free = ~system.mask
        rel = (np.abs(energy_gradient(system, u, params) - operator)[free]
               / np.maximum(size[free], np.finfo(float).tiny))
        ok = bool(np.all(rel <= OPERATOR_RTOL))
        return PropertyResult(name, ok, f"max rel diff={fmt(rel.max())}",
                              None if ok else {"u": u})

    def check_resolvent(name):
        # Discrete counterpart of full range for (identity + operator):
        # mass + stiffness - reaction = mass * g is solvable for any g. The
        # equation is the optimality condition of min E(u) + ||u - g||_M^2 / 2,
        # so its solution is the implicit-Euler step of size 1 from g.
        unit_step = SolverConfig(dt=1.0)
        constant = _constant_part(system, mk)
        worst = 0.0
        amp = 2.0 * params.c0
        for block in sample_blocks(rng, system, RESOLVENT_SOLVES, (-amp, amp)):
            for g in block[:, 0]:
                try:
                    u = _step_implicit_euler_counted(system, params, unit_step, g, constant)[0]
                except NonlinearSolveError as exc:
                    return PropertyResult(name, False, f"resolvent solve failed: {exc}", {"g": g})
                res_norm = dual_norm(system, mk @ u - reaction_vector(system, u, params)
                                     - system.M @ g)
                if not res_norm <= 1e-8:
                    return PropertyResult(name, False, f"resolvent residual {fmt(res_norm)}",
                                          {"g": g})
                worst = max(worst, res_norm)
        return PropertyResult(name, True, f"max residual={fmt(worst)}")

    def check_hemicontinuity(name):
        worst = 0.0
        lip = 1.0 / (params.c1 - params.c0)
        ts = np.linspace(0.0, 1.0, 9)
        # every pair of points along the segment, in (i, j > i) order
        pair_i, pair_j = np.triu_indices(len(ts), 1)
        amp = 2.0 * params.c0
        for block in sample_blocks(rng, system, HEMICONTINUITY_SAMPLES,
                                   (-amp, amp), (-1.0, 1.0), (-1.0, 1.0)):
            u, w_dir, test = block[:, 0], block[:, 1], block[:, 2]
            mk_test = mk @ test
            bound_slope = (np.abs(dot_fields(w_dir, mk_test))
                           + lip * dot_fields(system.M1, np.abs(w_dir * test)))
            vals = np.column_stack([
                dot_fields(x, mk_test) - dot_fields(reaction_vector(system, x, params), test)
                for x in (u + t * w_dir for t in ts)])
            diff = np.abs(vals[:, pair_i] - vals[:, pair_j])
            allowed = (bound_slope[:, None] * np.abs(ts[pair_i] - ts[pair_j]) * (1.0 + 1e-10)
                       + 1e-12)
            at = _first(diff > allowed)
            if at is not None:
                j, pair = divmod(at, pair_i.shape[0])
                return PropertyResult(name, False,
                                      f"pairing jump {fmt(diff[j, pair])} exceeds "
                                      f"Lipschitz bound {fmt(allowed[j, pair])}",
                                      {"u": u[j], "v": w_dir[j], "w": test[j]})
            worst = np.fmax(worst, np.fmax.reduce(diff - allowed, axis=None))
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
    run("gradient-equals-operator", check_gradient_is_operator)
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
