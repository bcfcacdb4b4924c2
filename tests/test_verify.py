import dataclasses

import numpy as np
import pytest

from coreshell import fem, verify
from coreshell.cli import main
from coreshell.config import load_config
from coreshell.mesh import build_mesh
from coreshell.fem import (
    SparseOperator,
    assemble,
    dual_norm,
    field_from_values,
    reaction_vector,
)
from coreshell.solvers import SolverConfig, step_implicit_euler, term_rounding
from coreshell.verify import BLOCK_VALUES, run_verification, sample_blocks


def _result(results, name):
    return next(r for r in results if r.name == name)


def test_gradient_fd_step_above_rounding(repo_root):
    # With a 1e-6 difference step the rounding of E alone exceeded
    # GRADIENT_RTOL at this seed (rel err 9.7e-6), a false failure.
    config = load_config(repo_root / "configs" / "annulus_desk.cfg",
                         ["verify.seed=1376710555"])
    results = run_verification(config)
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 17


# A fuzz draw whose normalized gap c1 - c0 is 6.3e-6: a step of 1e-4, fixed
# for gaps of 1, put the central difference's truncation error near the kink
# above GRADIENT_RTOL (rel err 1.43e-6 at the config seed, 2.85e-6 at seed 1).
# The draw fails resolvent-solvability, a Newton stall of the
# reaction-dominated, near-zero-order region, so only the gradient check is
# read.
NARROW_GAP = ["geometry.r1=0.315", "model.b1=3.5e-8", "model.b2=2.7e-3", "model.c0=0.0189",
              "model.c1=0.018900099"]


@pytest.mark.parametrize("seed", [20260808, 1])
def test_gradient_fd_step_follows_the_gap(repo_root, seed):
    config = load_config(repo_root / "configs" / "annulus_desk.cfg",
                         NARROW_GAP + [f"verify.seed={seed}"])
    assert _result(run_verification(config), "gradient-finite-difference").passed


@pytest.mark.parametrize("name", ["annulus_desk.cfg", "radial_desk.cfg"])
def test_mesh_invariants_fail_on_a_dropped_boundary_node(repo_root, monkeypatch, name):
    # The mask is built from s_nodes, so only the nodes at distance r2 can
    # show that one of them is missing there.
    def dropped(spec):
        mesh = build_mesh(spec)
        return dataclasses.replace(mesh, s_nodes=mesh.s_nodes[1:])

    config = load_config(repo_root / "configs" / name)
    assert _result(run_verification(config), "mesh-invariants").passed
    monkeypatch.setattr(verify, "build_mesh", dropped)
    assert not _result(run_verification(config), "mesh-invariants").passed


@pytest.mark.parametrize("name", ["annulus_desk.cfg", "radial_desk.cfg"])
def test_resolvent_fails_on_corrupted_b(repo_root, name):
    config = load_config(repo_root / "configs" / name)
    results = run_verification(config, corrupt_b=True)
    assert not _result(results, "resolvent-solvability").passed


@pytest.mark.parametrize("name", ["annulus_desk.cfg", "radial_desk.cfg"])
def test_matrix_symmetry_fails_on_one_perturbed_entry(repo_root, monkeypatch, name):
    def perturbed(*args, **kwargs):
        system = assemble(*args, **kwargs)
        rows, cols = np.divmod(system.K.pattern.keys, system.n_nodes)
        slot = system.K.pattern.slots[np.flatnonzero(rows != cols)[0]]
        data = system.K.data.copy()
        data[slot] = np.nextafter(data[slot], np.inf)
        return dataclasses.replace(system, K=SparseOperator(system.K.pattern, data))

    config = load_config(repo_root / "configs" / name)
    assert _result(run_verification(config), "matrix-symmetry").passed
    monkeypatch.setattr(verify, "assemble", perturbed)
    result = _result(run_verification(config), "matrix-symmetry")
    assert not result.passed
    assert result.detail == "K asym entries=2 M asym entries=0"


@pytest.mark.parametrize("name", ["annulus_desk.cfg", "radial_desk.cfg"])
def test_gradient_operator_check_sees_one_scaled_pair(repo_root, monkeypatch, name):
    # K stays symmetric, so only the element-wise operator can tell.
    def perturbed(*args, **kwargs):
        system = assemble(*args, **kwargs)
        pattern = system.K.pattern
        rows, cols = np.divmod(pattern.keys, system.n_nodes)
        at = np.flatnonzero((rows != cols) & ~system.mask[rows] & ~system.mask[cols])[0]
        data = system.K.data.copy()
        data[[pattern.slots[at], pattern.transpose[at]]] *= 1.0 + 1e-6
        return dataclasses.replace(system, K=SparseOperator(pattern, data))

    config = load_config(repo_root / "configs" / name)
    assert _result(run_verification(config), "gradient-equals-operator").passed
    monkeypatch.setattr(verify, "assemble", perturbed)
    results = run_verification(config)
    assert _result(results, "matrix-symmetry").passed
    assert not _result(results, "gradient-equals-operator").passed


def test_resolvent_solution_meets_residual_bound(radial_desk_system, desk_params):
    system = radial_desk_system
    rng = np.random.default_rng(7)
    for _ in range(3):
        g = field_from_values(system.mesh, rng.uniform(-2.0, 2.0, system.n_nodes))
        u = step_implicit_euler(system, desk_params, SolverConfig(dt=1.0), g)
        res = (system.M @ u + system.K @ u
               - reaction_vector(system, u, desk_params)
               - system.M @ g)
        res[system.mask] = 0.0
        assert dual_norm(system, res) <= 1e-8


@pytest.mark.parametrize("system_name", ["radial_desk_system", "annulus_desk_system"])
def test_sample_blocks_draw_the_per_sample_stream(request, system_name):
    system = request.getfixturevalue(system_name)
    bounds = [(-1.0, 2.0), (-1.0, 1.0)]
    per_block = BLOCK_VALUES // (len(bounds) * system.n_nodes)
    count = 2 * per_block + 3

    reference = np.random.default_rng(17)
    expected = [[field_from_values(system.mesh, reference.uniform(low, high, system.n_nodes))
                 for low, high in bounds] for _ in range(count)]
    rng = np.random.default_rng(17)
    blocks = list(sample_blocks(rng, system, count, *bounds))
    assert [len(block) for block in blocks] == [per_block, per_block, 3]
    assert np.array_equal(np.concatenate(blocks), np.array(expected))
    assert rng.bit_generator.state == reference.bit_generator.state


# Runs whose operator-monotonicity fails inside a sample block, not at its
# first sample: (config, slope of an added linear reaction term). The radial
# case fails at pair 135, the 9th of the second block; the planar one at
# pair 3 of the first block.
MID_BLOCK_VIOLATIONS = {
    "radial": ("radial_desk.cfg", 6e5),
    "planar": ("annulus_desk.cfg", 1e4),
}


@pytest.mark.parametrize("case", MID_BLOCK_VIOLATIONS)
def test_violation_inside_a_block_reports_the_first_failing_pair(repo_root, monkeypatch,
                                                                 case):
    config_name, slope = MID_BLOCK_VIOLATIONS[case]
    rate = fem.consumption_rate
    monkeypatch.setattr(fem, "consumption_rate", lambda u, p: rate(u, p) + slope * u)
    drawn = []

    def recording(rng, system, count, *bounds):
        for block in sample_blocks(rng, system, count, *bounds):
            if count == verify.MONOTONICITY_PAIRS:
                drawn.append((system, block.copy()))
            yield block

    monkeypatch.setattr(verify, "sample_blocks", recording)
    config = load_config(repo_root / "configs" / config_name)
    result = _result(run_verification(config), "operator-monotonicity")
    assert not result.passed

    # the same pairing and floor, one pair at a time in draw order
    def below_floor(system, u, v):
        d = u - v
        gradient = [fem.energy_gradient(system, x, config.model) for x in (u, v)]
        rounding = sum(term_rounding(x, system.K.abs_row_sums(),
                                     fem.reaction_vector(system, x, config.model))
                       for x in (u, v))
        floor = -verify.ROUNDING_FACTOR * fem.dot_fields(np.abs(d), rounding)
        return fem.dot_fields(gradient[0] - gradient[1], d) < floor

    index, u, v = next((index, u, v) for system, block in drawn
                       for index, (u, v) in enumerate(block) if below_floor(system, u, v))
    assert index > 0
    assert np.array_equal(result.sample["u"], u)
    assert np.array_equal(result.sample["v"], v)


# One defect of the scalar law per consumption-law property: (function of
# `verify` to replace, the defective version of it).
LAW_DEFECTS = {
    "consumption-rate-range":
        ("consumption_rate", lambda law: lambda z, p: 1.1 * law(z, p)),
    "consumption-rate-monotone":
        ("consumption_rate", lambda law: lambda z, p: law(z, p) + 1e-9 * np.maximum(z, 0.0)),
    "consumption-rate-lipschitz":
        ("consumption_rate", lambda law: lambda z, p: 2.0 * law(z, p)),
    "consumption-rate-product-bound":
        ("consumption_rate", lambda law: lambda z, p: law(z, p) + 0.1),
    "consumption-potential-bound":
        ("consumption_potential", lambda law: lambda s, p: law(s, p) + 1e-3),
}


@pytest.mark.parametrize("name", LAW_DEFECTS)
def test_consumption_law_defect_fails_its_property(repo_root, monkeypatch, name):
    config = load_config(repo_root / "configs" / "radial_desk.cfg")
    assert _result(run_verification(config), name).passed
    function, defect = LAW_DEFECTS[name]
    monkeypatch.setattr(verify, function, defect(getattr(verify, function)))
    result = _result(run_verification(config), name)
    assert not result.passed
    assert result.sample is not None and len(next(iter(result.sample.values()))) > 0


# Under s = 2^k, (b1/s, b2/s, s c0, s c1), the solver path is exactly
# covariant, and `verify` runs on the representative with c0 in [1, 2), so
# no verdict and no detail depends on k. Before the normalization, the clean
# run failed at every k here and the corrupted one passed four of these
# properties at k = 100 and 300.
CORRUPT_B_FAILURES = {"operator-monotonicity", "operator-coercivity",
                      "gradient-strong-monotonicity", "gradient-equals-operator",
                      "resolvent-solvability"}


def _scaled(repo_root, name, k):
    s = 2.0**k
    return load_config(repo_root / "configs" / name,
                       [f"model.b1={1.0 / s!r}", f"model.b2={5.0 / s!r}",
                        f"model.c0={s!r}", f"model.c1={2.0 * s!r}"])


@pytest.mark.parametrize("k", [0, -20, 20, -100, 100, -300, 300])
@pytest.mark.parametrize("name", ["annulus_desk.cfg", "radial_desk.cfg"])
def test_verdicts_do_not_depend_on_the_scale(repo_root, name, k):
    config = _scaled(repo_root, name, k)
    clean = run_verification(config)
    assert len(clean) == 17 and all(r.passed for r in clean)
    corrupt = run_verification(config, corrupt_b=True)
    assert {r.name for r in corrupt if not r.passed} == CORRUPT_B_FAILURES
    reference = _scaled(repo_root, name, 0)
    assert [r.detail for r in clean] == [r.detail for r in run_verification(reference)]


# Valid inputs whose c1 / c0 spans more than the double range allows at
# c0 in [1, 2): the normalization stops where a scaled value would leave
# [2^-1001, 2^1000], and every check runs. Before, c1 = 1e308 overflowed the
# law's sample range and raised.
@pytest.mark.parametrize("overrides", [["model.c1=1e308"],
                                       ["model.c0=1e-300", "model.c1=1e300"]])
@pytest.mark.parametrize("name", ["annulus_desk.cfg", "radial_desk.cfg"])
def test_verdicts_hold_across_the_double_range(repo_root, name, overrides):
    results = run_verification(load_config(repo_root / "configs" / name, overrides))
    assert len(results) == 17 and all(r.passed for r in results)


# Valid inputs where Newton stops at its rounding floor, above 1e-8: a stiff
# core, and a core of radius 1e-10. An absolute 1e-8 on the resolvent's
# residual failed them; the bound is Newton's own stop plus the rounding of
# forming the residual.
@pytest.mark.parametrize("name, overrides", [
    ("annulus_desk.cfg", ["model.b1=1e7"]), ("annulus_desk.cfg", ["model.b1=5e9"]),
    ("radial_desk.cfg", ["model.b1=1e7"]), ("radial_desk.cfg", ["model.b1=5e9"]),
    ("annulus_desk.cfg", ["geometry.r1=1e-10"])])
def test_verdicts_hold_where_newton_stops_at_its_floor(repo_root, name, overrides):
    results = run_verification(load_config(repo_root / "configs" / name, overrides))
    assert len(results) == 17 and [r.name for r in results if not r.passed] == []


# The radial desk problem scaled by 2^100: c0 and c1 times it, b1 and b2 divided by it.
SCALED_2_100 = ["--set", "model.b1=7.888609052210118e-31", "--set", "model.b2=3.944304526105059e-30",
                "--set", "model.c0=1.2676506002282294e+30", "--set", "model.c1=2.535301200456459e+30"]


def test_report_names_its_units(repo_root, tmp_path):
    config_path = repo_root / "configs" / "radial_desk.cfg"
    for out, extra in ((tmp_path / "scaled", SCALED_2_100), (tmp_path / "plain", [])):
        assert main(["verify", str(config_path), "--output-dir", str(out), *extra]) == 0
    scaled = (tmp_path / "scaled" / "verify_report.txt").read_text()
    plain = (tmp_path / "plain" / "verify_report.txt").read_text()
    note = "details in normalized units: c0 and c1 times 2^-100, b1 and b2 divided by it"
    assert note in scaled.splitlines() and "normalized" not in plain


def test_violation_sample_names_its_units(repo_root, tmp_path):
    # The sample of a scaled run is in normalized units, the same values as
    # the unscaled run's; its comment lines name the units and echo the config.
    config_path = repo_root / "configs" / "radial_desk.cfg"
    for out, extra in ((tmp_path / "scaled", SCALED_2_100), (tmp_path / "plain", [])):
        assert main(["verify", str(config_path), "--corrupt-b", "--output-dir", str(out),
                     *extra]) == 1
    scaled = (tmp_path / "scaled" / "violation_sample.csv").read_text().splitlines()
    plain = (tmp_path / "plain" / "violation_sample.csv").read_text().splitlines()
    assert scaled[:3] == [plain[0], plain[1], "# details in normalized units: c0 and c1 "
                          "times 2^-100, b1 and b2 divided by it"]
    assert plain[2] == f"# config: {config_path}"
    assert "# c0 = 1.2676506002282294e+30" in scaled and "# c0 = 1" in plain
    assert [x for x in scaled if x[0] != "#"] == [x for x in plain if x[0] != "#"]
