"""Golden-reference test: the shipped configs reproduce stored results.

`tests/data/golden.npz` holds the stationary state, the interface flux
jump, the strong-monotonicity constant and the ramp-start evolution trace of
both shipped configs, and the planar mesh after `build_mesh` (whose
interface facets the builder names from its ring layout) and after two
levels of `refine`, the test helper in `tests/refinement.py` (whose facets
come from its generic edge search). It was written by the dict-based, per-element-loop
implementation that preceded the vectorised element table, so it pins the
results across that rewrite: floats to atol 1e-10 + rtol 1e-10, Newton
counts and integer mesh arrays exactly, node coordinates to 1e-14 * r2.

Regenerate (only when a change of results is intended and recorded):

    PYTHONPATH=src python tests/test_golden.py --write
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from coreshell import (
    assemble,
    build_mesh,
    estimate_gamma,
    evolve,
    interface_flux_jump,
    ramp_field,
    stationary_solve,
    zero_field,
)
from coreshell.config import load_config

from refinement import refine

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_PATH = Path(__file__).with_name("data") / "golden.npz"
CONFIGS = ("annulus_desk", "radial_desk")
REFINE_LEVELS = (0, 2)
ATOL = RTOL = 1e-10
COORD_TOL = 1e-14


def _mesh_arrays(mesh, prefix):
    return {
        f"{prefix}/nodes": np.asarray(mesh.nodes),
        f"{prefix}/elements": np.asarray(mesh.elements),
        f"{prefix}/region": np.asarray(mesh.region),
        f"{prefix}/s_nodes": np.asarray(mesh.s_nodes),
        f"{prefix}/gamma_nodes": np.asarray(mesh.gamma_nodes),
        f"{prefix}/facet_nodes": np.asarray(mesh.gamma_facets),
        f"{prefix}/facet_elements": np.asarray(mesh.facet_elements),
    }


def compute_golden() -> dict:
    """Every stored quantity, computed by the code under test."""
    out = {}
    for name in CONFIGS:
        config = load_config(REPO_ROOT / "configs" / f"{name}.cfg")
        mesh = build_mesh(config.geometry)
        system = assemble(mesh, config.model)
        params, cfg = config.model, config.solver
        sol = stationary_solve(system, params, zero_field(mesh))
        trace = evolve(system, params, cfg, ramp_field(mesh, params))
        out.update({
            f"{name}/stationary_field": sol.field,
            f"{name}/stationary_energy": np.array(sol.energy),
            f"{name}/stationary_newton": np.array(sol.iterations),
            f"{name}/flux_jump": np.array(interface_flux_jump(system, sol.field, params)),
            f"{name}/gamma_disc": np.array(estimate_gamma(system, params)),
            f"{name}/trace_times": trace.times,
            f"{name}/trace_energies": trace.energies,
            f"{name}/trace_err_H": trace.err_H,
            f"{name}/trace_err_V": trace.err_V,
            f"{name}/trace_newton": trace.newton_iters,
        })
        if mesh.kind == "planar2d":
            out.update(_mesh_arrays(mesh, f"{name}/mesh0"))
            out.update(_mesh_arrays(refine(refine(mesh)), f"{name}/mesh2"))
    return out


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN_PATH) as data:
        return {key: data[key] for key in data.files}


@pytest.fixture(scope="module")
def current():
    return compute_golden()


def test_same_keys(golden, current):
    assert sorted(golden) == sorted(current)


@pytest.mark.parametrize("name", CONFIGS)
def test_newton_counts_exact(golden, current, name):
    for key in ("stationary_newton", "trace_newton"):
        np.testing.assert_array_equal(current[f"{name}/{key}"], golden[f"{name}/{key}"])


@pytest.mark.parametrize("name", CONFIGS)
@pytest.mark.parametrize("key", ["stationary_field", "stationary_energy", "flux_jump",
                                 "gamma_disc", "trace_times", "trace_energies",
                                 "trace_err_H", "trace_err_V"])
def test_float_results(golden, current, name, key):
    np.testing.assert_allclose(current[f"{name}/{key}"], golden[f"{name}/{key}"],
                               rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("level", REFINE_LEVELS)
@pytest.mark.parametrize("key", ["elements", "region", "s_nodes", "gamma_nodes",
                                 "facet_nodes", "facet_elements"])
def test_planar_mesh_integers_exact(golden, current, level, key):
    k = f"annulus_desk/mesh{level}/{key}"
    np.testing.assert_array_equal(current[k], golden[k])


@pytest.mark.parametrize("level", REFINE_LEVELS)
def test_planar_mesh_coordinates(golden, current, level):
    k = f"annulus_desk/mesh{level}/nodes"
    r2 = load_config(REPO_ROOT / "configs" / "annulus_desk.cfg").geometry.r2
    np.testing.assert_allclose(current[k], golden[k], rtol=0.0, atol=COORD_TOL * r2)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    np.savez_compressed(GOLDEN_PATH, **compute_golden())
    print(f"wrote {GOLDEN_PATH}")
