import dataclasses

import numpy as np
import pytest

from coreshell import verify
from coreshell.config import load_config
from coreshell.fem import (
    SparseOperator,
    assemble,
    dual_norm,
    field_from_values,
    reaction_vector,
)
from coreshell.verify import run_verification, solve_resolvent


def _result(results, name):
    return next(r for r in results if r.name == name)


def test_gradient_fd_step_above_rounding(repo_root):
    # With a 1e-6 difference step the rounding of E alone exceeded
    # gradient_rtol at this seed (rel err 9.7e-6), a false failure.
    config = load_config(repo_root / "configs" / "annulus_desk.cfg",
                         ["verify.seed=1376710555"])
    results = run_verification(config)
    assert [r.name for r in results if not r.passed] == []
    assert len(results) == 17


def test_pairing_slack_sets_monotonicity_floor(repo_root):
    verdicts = []
    for slack in ("1e-12", "1e9"):
        config = load_config(repo_root / "configs" / "radial_desk.cfg",
                             [f"verify.pairing_slack={slack}",
                              "verify.monotonicity_pairs=50"])
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
