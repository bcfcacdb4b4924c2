import dataclasses

import numpy as np
import pytest

from coreshell import fem, verify
from coreshell.config import load_config
from coreshell.fem import (
    SparseOperator,
    assemble,
    dual_norm,
    field_from_values,
    reaction_vector,
)
from coreshell.verify import BLOCK_VALUES, run_verification, sample_blocks, solve_resolvent


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


def test_pairing_slack_sets_monotonicity_floor(repo_root, monkeypatch):
    config = load_config(repo_root / "configs" / "radial_desk.cfg")
    monkeypatch.setattr(verify, "MONOTONICITY_PAIRS", 50)
    verdicts = []
    for slack in (verify.PAIRING_SLACK, 1e9):
        monkeypatch.setattr(verify, "PAIRING_SLACK", slack)
        results = run_verification(config, corrupt_b=True)
        verdicts.append(_result(results, "operator-monotonicity").passed)
    assert verdicts == [False, True]


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


def test_resolvent_solution_meets_residual_bound(radial_desk_system, desk_params):
    system = radial_desk_system
    rng = np.random.default_rng(7)
    for _ in range(3):
        g = field_from_values(system.mesh, rng.uniform(-2.0, 2.0, system.n_nodes))
        u, converged = solve_resolvent(system, desk_params, g)
        assert converged
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
    blocks = [block for block, _ in sample_blocks(rng, system, count, *bounds)]
    assert [len(block) for block in blocks] == [per_block, per_block, 3]
    assert np.array_equal(np.concatenate(blocks), np.array(expected))
    assert rng.bit_generator.state == reference.bit_generator.state

    # stopping at sample 5 of the second block leaves the generator where a
    # per-sample loop that stopped there would
    rng = np.random.default_rng(17)
    blocks = sample_blocks(rng, system, count, *bounds)
    next(blocks)
    _, stop = next(blocks)
    stop(5)
    reference = np.random.default_rng(17)
    reference.uniform(size=(per_block + 6) * len(bounds) * system.n_nodes)
    assert rng.bit_generator.state == reference.bit_generator.state


# Details of runs whose first violation lies inside a sample block, as the
# per-sample loop of earlier versions reported them. The properties after the
# violation draw from where that loop stopped.
MID_BLOCK_VIOLATIONS = {
    # operator-monotonicity fails at its 18th pair, inside the first block
    "radial": ("radial_desk.cfg", 3e5, True, 0.0, {
        "operator-monotonicity":
            "pairing -171076.24340291641 below floor -169356.13423555065",
        "operator-coercivity": "coercivity gap -149078.10240647229",
        "gradient-strong-monotonicity":
            "gamma_disc=0.90800086800799495 violated by 121249.32048212325",
        "gradient-finite-difference": "max rel err=3.6174568365353616e-10",
    }),
    # a reaction term of slope 1e4 makes operator-monotonicity fail at its
    # 58th pair, inside the third block
    "planar": ("annulus_desk.cfg", verify.PAIRING_SLACK, False, 1e4, {
        "operator-monotonicity":
            "pairing -1213.3233895967585 below floor -3.6009592463634616e-12",
        "operator-coercivity": "coercivity gap -9813.4292383145912",
        "gradient-strong-monotonicity":
            "gamma_disc=0.85299744052448145 violated by 5888.7757731264956",
        "gradient-finite-difference": "rel err=0.31994596411975285",
        "weak-operator-hemicontinuity":
            "pairing jump 32.314232169700148 exceeds Lipschitz bound 7.498113399334386",
    }),
}


@pytest.mark.parametrize("case", MID_BLOCK_VIOLATIONS)
def test_violation_inside_a_block_rewinds_the_generator(repo_root, monkeypatch, case):
    config_name, slack, corrupt_b, slope, details = MID_BLOCK_VIOLATIONS[case]
    monkeypatch.setattr(verify, "PAIRING_SLACK", slack)
    if slope:
        rate = fem.consumption_rate
        monkeypatch.setattr(fem, "consumption_rate", lambda u, p: rate(u, p) + slope * u)
    config = load_config(repo_root / "configs" / config_name)
    results = run_verification(config, corrupt_b=corrupt_b)
    assert {name: _result(results, name).detail for name in details} == details
