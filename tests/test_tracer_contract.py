"""The benchmark tracer (`perfbench/tracer.py`) replaces functions by name.

A renamed or moved function would make `--trace 1` fail or record nothing,
so these tests check the names it wraps and the matrix proxy it hands to
`solve_spd`, without running the benchmark.
"""

import importlib

import numpy as np
import pytest

from coreshell.fem import ramp_field, reaction_jacobian_diagonal
from coreshell.solvers import sector_inverse, solve_spd


@pytest.fixture
def tracer(monkeypatch, repo_root):
    monkeypatch.syspath_prepend(str(repo_root / "perfbench"))
    return importlib.import_module("tracer")


def test_every_wrapped_name_resolves(tracer):
    for namespace, attribute, _ in tracer.WRAPS:
        owner = importlib.import_module(namespace)
        for part in attribute.split("."):
            assert hasattr(owner, part), f"{namespace}.{attribute}"
            owner = getattr(owner, part)
        assert callable(owner), f"{namespace}.{attribute}"


def test_counting_matrix_counts_preconditioned_iterations(
        tracer, annulus_desk_mesh, annulus_desk_system, desk_params):
    system = annulus_desk_system
    k = system.eliminate(system.K)
    hessian = k.plus_diagonal(reaction_jacobian_diagonal(
        system, ramp_field(annulus_desk_mesh, desk_params), desk_params))
    exact = sector_inverse(system, k)
    assert exact is not None
    applied = []

    def precondition(r):
        applied.append(1)
        return exact(r)

    rhs = np.cos(np.arange(system.n_nodes, dtype=float))
    counting = tracer.CountingMatrix(hessian)
    x = solve_spd(counting, rhs, hessian.abs_row_sums(), precondition=precondition)
    # One product and one preconditioner apply per iteration.
    assert 1 <= counting.products == len(applied) <= 12
    assert np.linalg.norm(hessian @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)
