"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Tolerances are pinned here and nowhere else; seeds make every check
deterministic.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from coreshell import (
    GeometrySpec,
    ModelParams,
    SolverConfig,
    assemble,
    build_annulus_mesh,
    build_radial_mesh,
    consumption_rate,
    energy,
    energy_gradient,
    estimate_gamma,
    evolve,
    field_from_values,
    fit_decay_rate,
    interface_flux_jump,
    radial_stationary_reference,
    ramp_field,
    stationary_solve,
    step_implicit_euler,
    zero_field,
)
from coreshell.config import load_config
from coreshell.fem import error_norms
from coreshell.mesh import build_mesh
from coreshell.solvers import NEWTON_TOL

from refinement import refine

DESK_PARAMS = ModelParams(b1=1.0, b2=5.0, c0=1.0, c1=2.0)
RADIAL_DESK = GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.0078125)
ANNULUS_DESK = GeometrySpec(kind="planar2d", dimension=2, r1=0.5, r2=1.0, h=0.1)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"criterion {number} FAIL: {description}")
        raise
    print(f"criterion {number} PASS: {description}")


@pytest.fixture(scope="module")
def annulus():
    mesh = build_annulus_mesh(ANNULUS_DESK)
    return mesh, assemble(mesh, DESK_PARAMS)


@pytest.fixture(scope="module")
def radial():
    mesh = build_radial_mesh(RADIAL_DESK)
    return mesh, assemble(mesh, DESK_PARAMS)


def test_criterion_1_discrete_monotonicity(annulus):
    with criterion(1, "discrete operator monotonicity on 1000 seeded pairs"):
        mesh, system = annulus
        assert mesh.n_nodes <= 2000
        rng = np.random.default_rng(101)
        start = time.perf_counter()
        for _ in range(1000):
            u = field_from_values(mesh, rng.uniform(-2.0, 2.0, mesh.n_nodes))
            v = field_from_values(mesh, rng.uniform(-2.0, 2.0, mesh.n_nodes))
            d = u - v
            pairing = float((energy_gradient(system, u, DESK_PARAMS)
                             - energy_gradient(system, v, DESK_PARAMS)) @ d)
            assert pairing >= -1e-12 * float(d @ (system.M @ d))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_2_energy_decay(annulus):
    with criterion(2, "per-step energy decay and proximal inequality, 5 seeded starts"):
        mesh, system = annulus
        cfg = SolverConfig(dt=0.05, t_end=2.0)
        rng = np.random.default_rng(202)
        for _ in range(5):
            u = field_from_values(mesh, rng.uniform(-1.0, 1.0, mesh.n_nodes))
            e0 = energy(system, u, DESK_PARAMS)
            slack = 1e-12 * abs(e0)
            prox_slack = 1e-12 * max(1.0, abs(e0))
            start = time.perf_counter()
            e_prev = e0
            for _ in range(int(round(cfg.t_end / cfg.dt))):
                nxt = step_implicit_euler(system, DESK_PARAMS, cfg, u)
                e_next = energy(system, nxt, DESK_PARAMS)
                assert e_next <= e_prev + slack
                d = nxt - u
                prox = e_next + float(d @ (system.M @ d)) / (2.0 * cfg.dt)
                assert prox <= e_prev + prox_slack
                u, e_prev = nxt, e_next
            elapsed = time.perf_counter() - start
            assert elapsed < 30.0, f"trajectory runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_3_exponential_h_decay(radial):
    with criterion(3, "exponential H-decay on the radial desk run"):
        mesh, system = radial
        cfg = SolverConfig(dt=0.05, t_end=10.0)
        trace = evolve(system, DESK_PARAMS, cfg, zero_field(mesh))
        assert trace.failure is None
        slack = 2.0 * cfg.dt * NEWTON_TOL + 1e-12 * trace.err_H[0]
        assert np.all(np.diff(trace.err_H) <= slack), "err_H not monotone"
        gamma = estimate_gamma(system, DESK_PARAMS)
        report = fit_decay_rate(trace, gamma_disc=gamma)
        assert report.beta_fit > 0.0
        assert report.r_squared >= 0.99
        assert report.beta_fit >= 0.9 * gamma


def test_criterion_4_uniqueness_on_shipped_configs(repo_root):
    with criterion(4, "stationary state independent of the initial field, all configs"):
        config_paths = sorted((repo_root / "configs").glob("*.cfg"))
        assert config_paths, "no shipped configs found"
        for path in config_paths:
            config = load_config(path)
            mesh = build_mesh(config.geometry)
            system = assemble(mesh, config.model)
            a = stationary_solve(system, config.model, zero_field(mesh))
            b = stationary_solve(system, config.model, ramp_field(mesh, config.model))
            assert a.converged and b.converged
            gap = error_norms(system, a.field - b.field)[0]
            assert gap <= 1e-8, f"{path.name}: H-gap {gap:.3e}"


def test_criterion_5_gradient_correctness(annulus):
    with criterion(5, "central finite differences match the energy gradient"):
        mesh, system = annulus
        rng = np.random.default_rng(505)
        eps = 1e-6
        for _ in range(100):
            raw = rng.uniform(-DESK_PARAMS.c0, 2.0 * DESK_PARAMS.c0, mesh.n_nodes)
            near = np.abs(raw - DESK_PARAMS.c0) < 1e-3
            raw[near] = DESK_PARAMS.c0 - 2e-3
            u = field_from_values(mesh, raw)
            hdir = field_from_values(mesh, rng.uniform(-1.0, 1.0, mesh.n_nodes))
            up = u + eps * hdir
            dn = u - eps * hdir
            fd = (energy(system, up, DESK_PARAMS)
                  - energy(system, dn, DESK_PARAMS)) / (2.0 * eps)
            gh = float(energy_gradient(system, u, DESK_PARAMS) @ hdir)
            assert abs(fd - gh) <= 1e-6 * max(abs(fd), abs(gh))


def test_criterion_6_oracle_equivalence(radial):
    with criterion(6, "radial FEM matches the shooting reference, improving under refinement"):
        mesh, system = radial
        profile = radial_stationary_reference(DESK_PARAMS, RADIAL_DESK)
        res = stationary_solve(system, DESK_PARAMS, zero_field(mesh))
        err = float(np.max(np.abs(res.field - profile(mesh.nodes))))
        assert err <= 1e-3

        fine = refine(mesh)
        fine_system = assemble(fine, DESK_PARAMS)
        fine_res = stationary_solve(fine_system, DESK_PARAMS, zero_field(fine))
        fine_err = float(np.max(np.abs(fine_res.field - profile(fine.nodes))))
        assert fine_err < err


def test_criterion_7_interface_flux_jump_refinement():
    with criterion(7, "interface flux jump strictly decreasing over three refinements"):
        mesh = build_annulus_mesh(
            GeometrySpec(kind="planar2d", dimension=2, r1=0.5, r2=1.0, h=0.25))
        jumps = []
        for level in range(4):
            system = assemble(mesh, DESK_PARAMS)
            res = stationary_solve(system, DESK_PARAMS, zero_field(mesh))
            assert res.converged
            jumps.append(interface_flux_jump(system, res.field, DESK_PARAMS))
            if level < 3:
                mesh = refine(mesh)
        assert jumps[0] > jumps[1] > jumps[2] > jumps[3], f"jumps {jumps}"


def test_criterion_8_consumption_law_suite():
    with criterion(8, "consumption-law bounds on one million seeded samples"):
        rng = np.random.default_rng(808)
        start = time.perf_counter()
        z = np.sort(rng.uniform(-10.0 * DESK_PARAMS.c1, 10.0 * DESK_PARAMS.c1, 1_000_000))
        rate = consumption_rate(z, DESK_PARAMS)
        assert np.all(rate >= 0.0) and np.all(rate < 1.0)
        assert np.all(np.diff(rate) <= 0.0)
        lip = (1.0 + 1e-12) / (DESK_PARAMS.c1 - DESK_PARAMS.c0)
        assert np.all(np.abs(np.diff(rate)) <= np.diff(z) * lip)
        assert np.all(z * rate <= DESK_PARAMS.c0 + 1e-12)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"runtime {elapsed:.1f}s exceeds 5s"


def test_criterion_9_h_contraction(radial):
    with criterion(9, "H-contraction between two trajectories at every step"):
        mesh, system = radial
        cfg = SolverConfig(dt=0.05, t_end=10.0)
        u = zero_field(mesh)
        v = ramp_field(mesh, DESK_PARAMS)
        gap = error_norms(system, u - v)[0]
        slack = 2.0 * cfg.dt * NEWTON_TOL + 1e-12 * gap
        for _ in range(int(round(cfg.t_end / cfg.dt))):
            u = step_implicit_euler(system, DESK_PARAMS, cfg, u)
            v = step_implicit_euler(system, DESK_PARAMS, cfg, v)
            new_gap = error_norms(system, u - v)[0]
            assert new_gap <= gap + slack
            gap = new_gap
