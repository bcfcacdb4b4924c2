"""Randomized property suite behind the `verify` CLI command.

Each property mirrors a structural guarantee of the continuous problem at
the discrete level: bounds and monotonicity of the consumption law,
monotonicity and coercivity of the assembled operator, strong monotonicity
of the energy gradient with the computed constant, gradient correctness
against finite differences and against the operator built element by
element, solvability of the regularized (mass + stiffness) systems by the
implicit-Euler step of size 1, and a sampled hemicontinuity bound.

Every check runs at one scale, on the `normalized` parameters (c0 in
[1, 2)), and allows for rounding by the solvers' one rule:
`solvers.ROUNDING_FACTOR` times the `solvers.term_rounding` of the terms its
quantity is formed from. So no verdict depends on the input's scale.

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
    unit_exponent,
)
from .mesh import build_mesh
from .model import (
    ModelParams,
    consumption_potential,
    consumption_rate,
    consumption_rate_slope,
    dimensional_consumption,
    from_working_variable,
    to_working_variable,
)
from .reporting import fmt
from .solvers import (
    NEWTON_TOL,
    ROUNDING_FACTOR,
    TINY,
    NonlinearSolveError,
    SolverConfig,
    energy_rounding,
    potential_rounding,
    step_implicit_euler,
    term_rounding,
)
from .solvers import solve_spd  # noqa: F401  (the benchmark tracer wraps it by this name)


@dataclass
class PropertyResult:
    name: str
    passed: bool
    detail: str
    sample: dict | None = None


# Sample counts, difference steps and accuracy targets, fixed here: the
# verdict is a property of the operator, and no setting can make a check vacuous.
RATE_SAMPLES = 200000
MONOTONICITY_PAIRS = 500
STRONG_MONOTONICITY_PAIRS = 100
COERCIVITY_SAMPLES = 200
GRADIENT_CHECKS = 50
RESOLVENT_SOLVES = 5
HEMICONTINUITY_SAMPLES = 20
# largest relative truncation error of the gradient against its central
# difference; the rounding of the differenced energies is allowed on top
GRADIENT_RTOL = 1e-6


# Nodal values per block of samples: large enough that per-call overhead is
# small against the work, small enough that a block's sparse products (about
# 7 slots per value on planar meshes) stay within 2 MB.
BLOCK_VALUES = 2**15


def normalized(params: ModelParams):
    """(params, k): `params` under the exact scaling b -> b / s, c -> s c with
    s = 2^k. k is `unit_exponent(c0)`, so that s c0 lies in [1, 2), clamped
    so that every scaled value stays in [2^-1001, 2^1000]: normal, so the
    scaling is exact, and small enough that the checks' multiples of c1 are
    finite. The solver path is covariant under it, so `verify` runs every
    check at this one scale."""
    values = np.array([params.b1, params.b2, params.c0, params.c1])
    b_exp, c_exp = np.frexp(values.reshape(2, 2))[1]
    k = int(np.clip(unit_exponent(params.c0),
                    max(b_exp.max() - 1000, -1000 - c_exp[0]),
                    min(b_exp.min() + 1000, 1000 - c_exp[1])))
    return ModelParams(*np.ldexp(values, [-k, -k, k, k]).tolist()), k


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
    """Run every property check and return results in a fixed order.

    The checks run on the `normalized` parameters, so their details are in
    those units, and each allows ROUNDING_FACTOR times the rounding of the
    terms its quantity is formed from.
    """
    params = normalized(config.model)[0]
    mesh = build_mesh(config.geometry)
    b_override = (params.b1, -params.b2) if corrupt_b else None
    system = assemble(mesh, params, b_override=b_override)
    mk = system.M + system.K
    k_abs, m_abs, kt_abs, mk_abs = (a.abs_row_sums() for a in (system.K, system.M, system.Kt, mk))
    rng = np.random.default_rng(config.verify.seed)
    results = []

    def run(name, fn):
        try:
            results.append(fn(name))
        except Exception as exc:  # a property that cannot run has failed
            results.append(PropertyResult(name, False, f"error: {exc}"))

    def gradient_rounding(d, fields, react):
        """The rounding of d . (g(u) - g(v)) for g(u) = K u - r(u) of each
        field u, v of `fields` (shape (..., 2, n)) with reactions `react`."""
        return dot_fields(np.abs(d), term_rounding(fields, k_abs, react).sum(axis=-2))

    def exceeds(excess, rounding):
        """Mask of the entries whose excess over their exact bound is above
        ROUNDING_FACTOR times `rounding(at)`, the rounding at indices `at`.
        A rounding is never negative, so it is formed only where the excess is."""
        over = excess > 0.0
        at = np.flatnonzero(over)
        over[at] = excess[at] > ROUNDING_FACTOR * rounding(at)
        return over

    # --- consumption law -----------------------------------------------------

    # one sorted sample of the scalar law, read by the five checks below
    z = np.sort(rng.uniform(-10.0 * params.c1, 10.0 * params.c1, RATE_SAMPLES))
    rate = consumption_rate(z, params)
    step = np.diff(rate)

    def step_rounding(at):
        # each rate rounds to a few eps of itself, and so may an increment
        return term_rounding(rate[at + 1], terms=np.abs(rate[at]))

    def check_rate_range(name):
        ok = bool(np.all(rate >= 0.0) and np.all(rate < 1.0))
        return PropertyResult(name, ok, f"min={fmt(rate.min())} max={fmt(rate.max())}",
                              None if ok else {"z": z[(rate < 0.0) | (rate >= 1.0)]})

    def check_rate_monotone(name):
        rise = exceeds(step, step_rounding)
        ok = not rise.any()
        return PropertyResult(name, ok, f"max increment={fmt(step.max())}",
                              None if ok else {"z": z[:-1][rise]})

    def check_rate_lipschitz(name):
        d = np.abs(step)
        bound = np.diff(z) / (params.c1 - params.c0)
        over = exceeds(d - bound, lambda at: term_rounding(bound[at]) + step_rounding(at))
        ok = not over.any()
        margin = (bound - d).min()
        return PropertyResult(name, ok, f"min slack={fmt(margin)}",
                              None if ok else {"z": z[:-1][over]})

    def check_rate_product_bound(name):
        prod = z * rate
        over = exceeds(prod - params.c0, lambda at: term_rounding(prod[at]))
        ok = not over.any()
        return PropertyResult(name, ok, f"max z*rate={fmt(prod.max())}",
                              None if ok else {"z": z[over]})

    def check_potential_bound(name):
        excess = consumption_potential(z, params) - np.abs(z)
        over = exceeds(excess, lambda at: potential_rounding(z[at], params))
        ok = not over.any()
        return PropertyResult(name, ok, f"max F(s)-|s|={fmt(excess.max())}",
                              None if ok else {"s": z[over]})

    def check_potential_derivative(name):
        # The 1e-3 guard keeps s +- h below the kink at c0; with that step the
        # central difference's truncation error lies below 1e-6 relative.
        s = rng.uniform(-5.0 * params.c1, params.c0 - 1e-3, 2000)
        h = 1e-6 * np.maximum(1.0, np.abs(s))
        fd = (consumption_potential(s + h, params)
              - consumption_potential(s - h, params)) / (2.0 * h)
        r = consumption_rate(s, params)
        err = np.abs(fd - r)
        rounding = (potential_rounding(s + h, params)
                    + potential_rounding(s - h, params)) / (2.0 * h)
        bad = err > 1e-6 * np.abs(r) + ROUNDING_FACTOR * rounding
        ok = not bad.any()
        rel = err / np.maximum(np.abs(r), 1e-300)
        return PropertyResult(name, ok, f"max rel err={fmt(rel.max())}",
                              None if ok else {"s": s[bad]})

    def check_transform_roundtrip(name):
        conc = rng.uniform(0.0, 3.0 * params.c0, 1000)
        u = to_working_variable(conc, params)
        round_err = np.abs(from_working_variable(u, params) - conc)
        # each of the two subtractions rounds to eps of its result
        round_ok = round_err <= ROUNDING_FACTOR * term_rounding(conc, terms=np.abs(u))
        dim = dimensional_consumption(conc, params)
        ident_err = np.abs(dim - consumption_rate(u, params))
        # the rounding of u = c0 - v, amplified by the rate's slope
        ident_ok = ident_err <= ROUNDING_FACTOR * term_rounding(
            dim, terms=np.abs(u * consumption_rate_slope(u, params)))
        ok = bool(np.all(round_ok) and np.all(ident_ok))
        return PropertyResult(name, ok, f"roundtrip={fmt(round_err.max())} "
                                        f"identity={fmt(ident_err.max())}")

    # --- mesh and matrices ---------------------------------------------------

    def check_mesh_invariants(name):
        mesh.validate()
        # the Dirichlet nodes are exactly the nodes at distance r2
        at_r2 = np.abs(mesh.node_radii() - mesh.r2) <= mesh.tolerance
        mask_ok = np.array_equal(mesh.dirichlet_mask(), at_r2)
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
            floor = -ROUNDING_FACTOR * gradient_rounding(
                d, pairs, reaction_vector(system, pairs, params))
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
        # the row sums of the terms of lhs - rhs: M, K, and c times M and Kt
        row_abs = m_abs + k_abs + c_coef * (m_abs + kt_abs)
        load_rounding = term_rounding(params.c0 * system.core_volume)
        worst = np.inf
        amp = 3.0 * params.c0
        for block in sample_blocks(rng, system, COERCIVITY_SAMPLES, (-amp, amp)):
            u = block[:, 0]
            react = reaction_vector(system, u, params)
            mass = dot_fields(u, system.M @ u)
            lhs = mass + dot_fields(u, system.K @ u) - dot_fields(react, u)
            vnorm2 = mass + dot_fields(u, system.Kt @ u)
            rhs = c_coef * vnorm2 - params.c0 * system.core_volume
            slack = ROUNDING_FACTOR * (dot_fields(np.abs(u), term_rounding(u, row_abs, react))
                                       + load_rounding)
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
            # 1 - 1e-10: gamma_disc is the eigen-solve's, accurate to about 1e-10
            rhs = gamma * vnorm2 * (1.0 - 1e-10)
            slack = ROUNDING_FACTOR * (
                gradient_rounding(d, pairs, reaction_vector(system, pairs, params))
                + gamma * dot_fields(np.abs(d), term_rounding(d, m_abs + kt_abs)))
            j = _first(lhs < rhs - slack)
            if j is not None:
                return PropertyResult(
                    name, False,
                    f"gamma_disc={fmt(gamma)} violated by {fmt(rhs[j] - lhs[j])}",
                    {"u": pairs[j, 0], "v": pairs[j, 1]})
            worst = np.fmin(worst, np.fmin.reduce(lhs - rhs))
        return PropertyResult(name, True,
                              f"gamma_disc={fmt(gamma)} min slack={fmt(worst)}")

    def check_gradient_fd(name):
        # The step is 1e-4 at gaps c1 - c0 of 1 and above and follows the cube
        # root of a smaller gap, the exponent at which a central difference
        # balances its truncation (step^2) against its rounding (1/step). It
        # stays inside the 1e-3 guard around the kink at c0 below; the
        # rounding of the two energies is allowed apart. A step proportional
        # to the gap would pass only by inflating that rounding allowance.
        eps = 1e-4 * min(1.0, params.c_hat) ** (1.0 / 3.0)
        worst = 0.0
        for block in sample_blocks(rng, system, GRADIENT_CHECKS,
                                   (-params.c0, 2.0 * params.c0), (-1.0, 1.0)):
            u, hdir = block[:, 0], block[:, 1]
            # keep nodal values away from the potential's kink at c0
            u[(np.abs(u - params.c0) < 1e-3) & ~system.mask] = params.c0 - 2e-3
            points = np.stack([u + eps * hdir, u - eps * hdir])
            e_plus, e_minus = energy(system, points, params)
            fd = (e_plus - e_minus) / (2.0 * eps)
            gh = dot_fields(energy_gradient(system, u, params), hdir)
            size = np.maximum(np.abs(fd), np.abs(gh))
            rounding = energy_rounding(system, params, points, k_abs).sum(axis=0) / (2.0 * eps)
            err = np.abs(fd - gh)
            rel = err / np.maximum(size, 1e-300)
            j = _first(err > GRADIENT_RTOL * size + ROUNDING_FACTOR * rounding)
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
        # A sum of m terms rounds by up to m eps times the sum of their sizes,
        # and node i's element sum has m = k (elements at i) + 1 terms; its
        # sparse row has fewer. The planar center sums hundreds.
        terms = mesh.elements.shape[1] * np.bincount(nodes, minlength=mesh.n_nodes) + 1
        free = ~system.mask
        diff = np.abs(energy_gradient(system, u, params) - operator)[free]
        ok = bool(np.all(diff <= ROUNDING_FACTOR * term_rounding(size[free], terms[free])))
        rel = diff / np.maximum(size[free], TINY)
        return PropertyResult(name, ok, f"max rel diff={fmt(rel.max())}",
                              None if ok else {"u": u})

    def check_resolvent(name):
        # Discrete counterpart of full range for (identity + operator):
        # mass + stiffness - reaction = mass * g is solvable for any g. The
        # equation is the optimality condition of min E(u) + ||u - g||_M^2 / 2,
        # so its solution is the implicit-Euler step of size 1 from g. Formed
        # apart from Newton, the residual may exceed the step's own stop
        # (NEWTON_TOL, or its rounding floor) by the rounding of forming it.
        unit_step = SolverConfig(dt=1.0)
        worst = 0.0
        amp = 2.0 * params.c0
        for block in sample_blocks(rng, system, RESOLVENT_SOLVES, (-amp, amp)):
            for g in block[:, 0]:
                try:
                    u = step_implicit_euler(system, params, unit_step, g)
                except NonlinearSolveError as exc:
                    return PropertyResult(name, False, f"resolvent solve failed: {exc}", {"g": g})
                react = reaction_vector(system, u, params)
                res_norm = dual_norm(system, mk @ u - react - system.M @ g)
                rounding = term_rounding(u, mk_abs, react + m_abs * np.abs(g))
                if not res_norm <= NEWTON_TOL + ROUNDING_FACTOR * dual_norm(system, rounding):
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
            # the rounding of x . (M + K) test, where x's own rounding reaches
            # the reaction amplified by its slope, at most lip
            x_rounding = term_rounding(test, mk_abs, np.abs(mk_test)
                                       + lip * system.M1 * np.abs(test))
            vals, rounding = [], []
            for t in ts:
                x = u + t * w_dir
                react = reaction_vector(system, x, params)
                vals.append(dot_fields(x, mk_test) - dot_fields(react, test))
                rounding.append(dot_fields(np.abs(u) + t * np.abs(w_dir), x_rounding)
                                + dot_fields(np.abs(test), term_rounding(react)))
            vals, rounding = np.column_stack(vals), np.column_stack(rounding)
            diff = np.abs(vals[:, pair_i] - vals[:, pair_j])
            exact = bound_slope[:, None] * np.abs(ts[pair_i] - ts[pair_j])
            allowed = exact + ROUNDING_FACTOR * (term_rounding(exact) + rounding[:, pair_i]
                                                 + rounding[:, pair_j])
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
