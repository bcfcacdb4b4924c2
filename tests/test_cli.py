import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from coreshell import analysis, cli, solvers
from coreshell.cli import main
from coreshell.config import ConfigError, load_config
from coreshell.fem import (
    assemble,
    dual_norm,
    energy,
    energy_gradient,
    reaction_jacobian_diagonal,
    zero_field,
)
from coreshell.mesh import MAX_DIMENSION, MAX_NODES, build_mesh
from coreshell.model import MAX_CONTRAST, MIN_GAP
from coreshell.reporting import read_field_csv, write_field_csv
from coreshell.solvers import (
    MAX_STEPS,
    NEWTON_TOL,
    LinearSolveError,
    _constant_part,
    solve_spd,
    stationary_solve,
)

QUICK_RADIAL = """
[model]
b1 = 1.0
b2 = 5.0
c0 = 1.0
c1 = 2.0

[geometry]
kind = radial
dimension = 3
r1 = 0.5
r2 = 1.0
h = 0.03125

[solver]
dt = 0.05
t_end = 1.0

[output]
directory = {out}

[verify]
seed = 99
"""


ECHO_RADIAL_DESK = """
config: configs/radial_desk.cfg
override: solver.dt=0.1
override: output.directory=out/x
override: verify.seed=7
[model]
b1 = 1
b2 = 5
c0 = 1
c1 = 2
[geometry]
kind = radial
dimension = 3
r1 = 0.5
r2 = 1
h = 0.0078125
[solver]
dt = 0.10000000000000001
t_end = 10
[output]
directory = out/x
[verify]
seed = 7
"""

ECHO_ANNULUS_DESK = """
config: configs/annulus_desk.cfg
override: model.b1=0.1
override: solver.t_end=1e-9
[model]
b1 = 0.10000000000000001
b2 = 5
c0 = 1
c1 = 2
[geometry]
kind = planar2d
dimension = 2
r1 = 0.5
r2 = 1
h = 0.10000000000000001
[solver]
dt = 0.050000000000000003
t_end = 1.0000000000000001e-09
[output]
directory = out/annulus_desk
[verify]
seed = 20260808
"""


S_2_664 = 2.0**664
SCALED_2_664 = [f"model.b1={1.0 / S_2_664!r}", f"model.b2={5.0 / S_2_664!r}",
                f"model.c0={S_2_664!r}", f"model.c1={2.0 * S_2_664!r}",
                f"solver.dt={0.05 * S_2_664!r}", f"solver.t_end={S_2_664!r}"]


@pytest.fixture
def quick_cfg(tmp_path):
    out = tmp_path / "out"
    path = tmp_path / "run.cfg"
    path.write_text(QUICK_RADIAL.format(out=out))
    return path, out


class TestConfig:
    def test_load_and_echo(self, quick_cfg):
        path, out = quick_cfg
        config = load_config(path)
        assert config.model.b2 == 5.0
        assert config.geometry.kind == "radial"
        assert config.solver.dt == 0.05
        echo = config.echo_lines()
        assert any(line == "b2 = 5" for line in echo)
        assert any(line.startswith("config:") for line in echo)

    def test_overrides(self, quick_cfg):
        path, _ = quick_cfg
        config = load_config(path, ["model.b2=7.5", "geometry.h=0.25"])
        assert config.model.b2 == 7.5
        assert config.geometry.h == 0.25

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.cfg")

    def test_line_before_any_section_exit_2(self, quick_cfg, capsys):
        path, _ = quick_cfg
        path.write_text("b1 = 1\n" + path.read_text())
        assert main(["mesh", str(path)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_missing_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[model]\nb1 = 1\nb2 = 1\nc0 = 1\nc1 = 2\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_parameter_value(self, quick_cfg):
        path, _ = quick_cfg
        with pytest.raises(ConfigError):
            load_config(path, ["model.c1=0.5"])  # violates c0 < c1

    def test_bad_override_shape(self, quick_cfg):
        path, _ = quick_cfg
        with pytest.raises(ConfigError):
            load_config(path, ["b2=7.5"])

    @pytest.mark.parametrize("override, named", [
        ("solver.newton_tl=1e-3", "[solver] newton_tl"),
        ("solvr.dt=7", "[solvr]"),
        ("model.b3=1", "[model] b3"),
        # counts, tolerances and toggles with one value in every run are no keys
        ("verify.pairing_slack=1e9", "[verify] pairing_slack"),
        ("output.write_vtk=false", "[output] write_vtk"),
        ("solver.linear_tol=1e-6", "[solver] linear_tol"),
        ("model.reaction=false", "[model] reaction"),
        ("solver.newton_tol=1e-9", "[solver] newton_tol"),
        ("solver.newton_max_iter=2", "[solver] newton_max_iter"),
    ])
    def test_unknown_key_or_section_exit_2(self, quick_cfg, capsys, override, named):
        # A misspelt key must not be echoed as `override:` into every
        # artifact without taking effect.
        path, _ = quick_cfg
        with pytest.raises(ConfigError, match="unknown"):
            load_config(path, [override])
        assert main(["mesh", str(path), "--set", override]) == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "verify.rate_samples=1", "verify.monotonicity_pairs=0",
        "verify.strong_monotonicity_pairs=-1", "verify.coercivity_samples=0",
        "verify.gradient_checks=-3", "verify.resolvent_solves=0",
        "verify.hemicontinuity_samples=0", "verify.gradient_rtol=0",
        "verify.gradient_rtol=-1e-6", "verify.pairing_slack=-1e-12",
    ])
    def test_vacuous_verify_settings_exit_2(self, quick_cfg, capsys, override):
        # No sample, or a tolerance nothing can meet, would pass or fail a
        # property without checking it. The counts and tolerances are
        # constants of `verify`, so none of these settings is a key.
        path, _ = quick_cfg
        key = override.split("=")[0].split(".")[1]
        with pytest.raises(ConfigError, match=rf"unknown key \[verify\] {key}$"):
            load_config(path, [override])
        assert main(["verify", str(path), "--set", override]) == 2
        assert f"invalid input: unknown key [verify] {key}" in capsys.readouterr().err

    def test_negative_seed_names_the_key(self, quick_cfg, capsys):
        # numpy's own message ("expected non-negative integer") names no key
        path, _ = quick_cfg
        with pytest.raises(ConfigError, match=r"^\[verify\] seed must be non-negative, got -1$"):
            load_config(path, ["verify.seed=-1"])
        assert main(["verify", str(path), "--seed", "-1"]) == 2
        assert ("invalid input: [verify] seed must be non-negative, got -1"
                in capsys.readouterr().err)

    def test_unknown_key_in_file_rejected(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text(QUICK_RADIAL.format(out=tmp_path).replace("dt = 0.05", "dtt = 0.05"))
        with pytest.raises(ConfigError, match=r"\[solver\] dtt"):
            load_config(path)

    @pytest.mark.parametrize("argv, expected", [
        (["verify", "configs/radial_desk.cfg", "--seed", "7", "--set", "solver.dt=0.1",
          "--output-dir", "out/x"], ECHO_RADIAL_DESK),
        (["mesh", "configs/annulus_desk.cfg", "--set", "model.b1=0.1",
          "--set", "solver.t_end=1e-9"], ECHO_ANNULUS_DESK),
    ])
    def test_echo_of_shipped_configs_is_pinned(self, argv, expected, repo_root,
                                               monkeypatch):
        # Every artifact embeds this echo, so its order and number format are
        # part of the output; `main` turns --seed and --output-dir into overrides.
        import coreshell.cli as cli

        echoed = []

        def capture(config, **_):
            echoed.append("\n".join(config.echo_lines()))
            return 0

        monkeypatch.chdir(repo_root)
        monkeypatch.setattr(cli, "cmd_mesh", capture)
        monkeypatch.setattr(cli, "cmd_verify", capture)
        assert main(argv) == 0
        assert echoed == [expected.strip()]


class TestCmdMesh:
    def test_summary_counts(self, quick_cfg, capsys):
        path, out = quick_cfg
        rc = main(["mesh", str(path), "--set", "geometry.h=0.25"])
        assert rc == 0
        captured = capsys.readouterr().out
        assert "core elements   = 2" in captured
        assert "shell elements  = 2" in captured
        summary = (out / "mesh_summary.txt").read_text()
        assert "core elements   = 2" in summary
        assert summary.startswith("# config:")

    def test_vtk_cell_count_matches_summary(self, quick_cfg):
        path, out = quick_cfg
        assert main(["mesh", str(path)]) == 0
        config = load_config(path)
        mesh = build_mesh(config.geometry)
        vtk = (out / "mesh.vtk").read_text()
        assert f"CELLS {mesh.n_elements} " in vtk
        summary = (out / "mesh_summary.txt").read_text()
        assert f"elements        = {mesh.n_elements}" in summary

    def test_non_finite_config_value_exit_2(self, quick_cfg, capsys):
        path, _ = quick_cfg
        assert main(["mesh", str(path), "--set", "geometry.r2=inf"]) == 2
        assert "[geometry] r2" in capsys.readouterr().err
        assert main(["evolve", str(path), "--set", "solver.t_end=1e400"]) == 2
        assert "[solver] t_end" in capsys.readouterr().err

    @pytest.mark.parametrize("dimension", ["100000000000000000000", "16000"])
    def test_dimension_above_limit_exit_2(self, repo_root, tmp_path, capsys, dimension):
        # The radial mass rule's Gauss points cannot be built for 10**20 (an
        # OverflowError) and take about 1 GB and 43 s for 16000.
        argv = ["mesh", str(repo_root / "configs" / "radial_desk.cfg"),
                "--set", f"geometry.dimension={dimension}", "--output-dir", str(tmp_path)]
        assert main(argv) == 2
        assert f"above the limit {MAX_DIMENSION}" in capsys.readouterr().err

    def test_invalid_geometry_exit_2(self, quick_cfg, capsys):
        path, _ = quick_cfg
        rc = main(["mesh", str(path), "--set", "geometry.r1=1.5"])
        assert rc == 2
        assert "r1 < r2" in capsys.readouterr().err

    def test_planar_vtk_matches_summary(self, quick_cfg, tmp_path):
        path, _ = quick_cfg
        out = tmp_path / "planar"
        rc = main(["mesh", str(path), "--output-dir", str(out),
                   "--set", "geometry.kind=planar2d", "--set", "geometry.dimension=2",
                   "--set", "geometry.h=0.35"])
        assert rc == 0
        config = load_config(path, [f"output.directory={out}",
                                    "geometry.kind=planar2d", "geometry.dimension=2",
                                    "geometry.h=0.35"])
        mesh = build_mesh(config.geometry)
        assert f"CELLS {mesh.n_elements} " in (out / "mesh.vtk").read_text()
        assert f"elements        = {mesh.n_elements}" in (out / "mesh_summary.txt").read_text()


class TestCmdStationary:
    @pytest.mark.parametrize("overrides", [
        ["geometry.r1=1e-200"],
        ["geometry.r2=1e200", "geometry.h=1e199"],
        ["geometry.h=5e-324"],
        ["geometry.h=1e-12"],
    ])
    def test_overflowing_radial_geometry_exit_2(self, repo_root, tmp_path, capsys, overrides):
        # Local stiffness or mass entries overflow; that is invalid input, not
        # a solver failure, and no numpy RuntimeWarning escapes. With h=5e-324
        # the cell count r1 / h is already infinite in the mesh builder; with
        # h=1e-12 it is finite, but the mesh would need terabytes.
        argv = ["stationary", str(repo_root / "configs" / "radial_desk.cfg"),
                "--output-dir", str(tmp_path)]
        for override in overrides:
            argv += ["--set", override]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        expected = {"geometry.h=5e-324": "out of floating-point range",
                    "geometry.h=1e-12": f"above the limit {MAX_NODES}"}
        assert expected.get(overrides[0], "non-finite local matrices") in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        ["geometry.r1=1e-200"],
        ["geometry.r2=1e200", "geometry.h=1e199"],
        ["geometry.h=5e-324"],
        ["geometry.h=1e-5"],
    ])
    def test_out_of_range_planar_geometry_exit_2(self, repo_root, tmp_path, capsys, overrides):
        # Interface facet lengths underflow to zero, squared coordinates
        # overflow, the ring and sector counts are infinite, or the mesh would
        # need about 6e10 nodes: invalid input, and no numpy RuntimeWarning
        # escapes.
        argv = ["stationary", str(repo_root / "configs" / "annulus_desk.cfg"),
                "--output-dir", str(tmp_path)]
        for override in overrides:
            argv += ["--set", override]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        expected = (f"above the limit {MAX_NODES}" if overrides == ["geometry.h=1e-5"]
                    else "out of floating-point range")
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["stationary", "verify"])
    def test_underflowing_radial_weight_exit_2(self, repo_root, tmp_path, capsys, command):
        # r^399 underflows to zero near the center, so the lumped mass of
        # node 0 is zero: invalid input, not a solver failure, and no numpy
        # RuntimeWarning escapes.
        argv = [command, str(repo_root / "configs" / "radial_desk.cfg"),
                "--set", "geometry.dimension=400", "--output-dir", str(tmp_path)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        assert "node 0 has non-positive lumped mass" in capsys.readouterr().err

    @pytest.mark.parametrize("config", ["radial_desk.cfg", "annulus_desk.cfg"])
    def test_stiff_core_converges(self, repo_root, tmp_path, capsys, config):
        # With b1 = 1e6 the gradient's rounding floor (1e-8 to 2e-8) lies
        # above NEWTON_TOL, and Newton stops there instead of at its cap.
        argv = [str(repo_root / "configs" / config), "--set", "model.b1=1e6"]
        assert main(["stationary", *argv, "--output-dir", str(tmp_path / "s")]) == 0
        assert "converged        = True" in capsys.readouterr().out
        assert main(["evolve", *argv, "--output-dir", str(tmp_path / "e")]) == 0

    @pytest.mark.parametrize("config", ["radial_desk.cfg", "annulus_desk.cfg"])
    @pytest.mark.parametrize("b1", ["5000000000.000001", "3e13"])
    def test_contrast_above_limit_exit_2(self, repo_root, tmp_path, capsys, config, b1):
        # Above the limit the product cannot resolve the shell's interface
        # terms next to the core's: radial desk b1=3e13 broke CG down (exit
        # 3), and other contrasts converged or failed by chance.
        argv = ["stationary", str(repo_root / "configs" / config),
                "--set", f"model.b1={b1}", "--output-dir", str(tmp_path)]
        assert main(argv) == 2
        ratio = f"{float(b1) / 5.0:.17g}"
        assert f"contrast b1/b2 = {ratio} is above the limit {MAX_CONTRAST:g}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("config", ["radial_desk.cfg", "annulus_desk.cfg"])
    @pytest.mark.parametrize("override", ["model.b1=5e9", "model.b2=1e15", "model.b2=1e305"])
    def test_contrast_at_limit_and_stiff_shell_converge(self, repo_root, tmp_path, config,
                                                        override):
        # The limit is one-sided: b1/b2 = MAX_CONTRAST solves, and so does a
        # shell 1e15 or 1e305 times stiffer than the core. At 1e305 the shell
        # entries of a Newton correction are subnormal, and CG's stop must
        # count gradual underflow or CG breaks down.
        argv = ["stationary", str(repo_root / "configs" / config),
                "--set", override, "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "converged        = True" in (tmp_path / "stationary_report.txt").read_text()

    @pytest.mark.parametrize("config", ["radial_desk.cfg", "annulus_desk.cfg"])
    def test_large_shift_converges(self, repo_root, tmp_path, capsys, config):
        # The potential F(s) = s + (c1 - c0) log((c1 - s) / c1) rounds to
        # about eps (c1 - c0) per core node. With a line-search slack blind
        # to that rounding, Newton crawled through halved steps and exited 3.
        argv = ["stationary", str(repo_root / "configs" / config),
                "--set", "model.c1=1e6", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "converged        = True" in capsys.readouterr().out

    def test_large_shift_evolves(self, repo_root, tmp_path):
        # At the same slack this run stalled at step 12 after 50 iterations.
        argv = ["evolve", str(repo_root / "configs" / "annulus_desk.cfg"),
                "--set", "model.c1=1e3", "--set", "solver.t_end=1", "--set", "solver.dt=0.05",
                "--output-dir", str(tmp_path)]
        assert main(argv) == 0

    @pytest.mark.parametrize("config", ["radial_desk.cfg", "annulus_desk.cfg"])
    def test_underflowing_stiffness_exit_2(self, repo_root, tmp_path, capsys, config):
        # b1 = 5e-324 rounds the core's element stiffness to zero: invalid
        # input, not a CG breakdown (annulus) or a silent run (radial).
        argv = ["stationary", str(repo_root / "configs" / config),
                "--set", "model.b1=5e-324", "--output-dir", str(tmp_path)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "has a zero stiffness diagonal: diffusion coefficient b1=5e-324 underflows" in err

    @pytest.mark.parametrize("config", ["radial_desk.cfg", "annulus_desk.cfg"])
    def test_near_zero_core_stiffness_converges(self, repo_root, tmp_path, config):
        # With b1 = 1e-300 K's ring factor is finite, but applying K's
        # inverse alone overflows CG's first curvature; Newton's
        # preconditioner inverts K plus the reaction diagonal, which stays
        # well scaled. The result is a real solve: its dual residual meets
        # NEWTON_TOL and its energy lies below the start's.
        loaded = load_config(repo_root / "configs" / config, ["model.b1=1e-300"])
        mesh = build_mesh(loaded.geometry)
        system = assemble(mesh, loaded.model)
        result = stationary_solve(system, loaded.model, zero_field(mesh))
        assert dual_norm(system, energy_gradient(system, result.field, loaded.model)) <= NEWTON_TOL
        assert result.energy <= energy(system, zero_field(mesh), loaded.model)

        argv = ["stationary", str(repo_root / "configs" / config),
                "--set", "model.b1=1e-300", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        assert "converged        = True" in (tmp_path / "stationary_report.txt").read_text()

    @pytest.mark.parametrize("config", ["radial_desk.cfg", "annulus_desk.cfg"])
    def test_overflowing_conjugate_gradients_break_down(self, repo_root, config):
        # Preconditioned by the inverse of the constant part alone, the first
        # CG curvature on that input overflows: a breakdown, raised at once
        # instead of thousands of iterations later, and no numpy
        # RuntimeWarning escapes.
        loaded = load_config(repo_root / "configs" / config, ["model.b1=1e-300"])
        mesh = build_mesh(loaded.geometry)
        system = assemble(mesh, loaded.model)
        base, constant_inverse, row_abs = _constant_part(system, system.K)
        start = zero_field(mesh)
        reaction_diagonal = reaction_jacobian_diagonal(system, start, loaded.model)
        hessian = base.plus_diagonal(reaction_diagonal)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(LinearSolveError,
                               match=r"curvature is not finite \(inf\) \(after 1 iterations\)"):
                solve_spd(hessian, -energy_gradient(system, start, loaded.model),
                          row_abs + reaction_diagonal, precondition=constant_inverse)

    @pytest.mark.parametrize("config", ["radial_desk.cfg", "annulus_desk.cfg"])
    @pytest.mark.parametrize("command, line", [("stationary", "converged        = True"),
                                               ("evolve", "completed        = True")])
    def test_tiny_concentration_scale_solves(self, repo_root, tmp_path, config, command, line):
        # At c0 = 1e-200 the squared gap (c1 - z)^2 underflows to 0; a
        # reaction slope formed from it is -inf, numpy warns "divide by zero"
        # (an error under the suite's filter) and both commands exit 3.
        argv = [command, str(repo_root / "configs" / config),
                "--set", "model.c0=1e-200", "--set", "model.c1=2e-200",
                "--set", "solver.t_end=1", "--output-dir", str(tmp_path)]
        assert main(argv) == 0
        report = (tmp_path / f"{command}_report.txt").read_text()
        assert line in report
        # err_H is about 1e-201: an unscaled e.(M e) underflows to 0
        assert "converged-at-start" not in report
        if command == "evolve":
            # NEWTON_TOL is absolute: from step 2 on no step moves the state,
            # so err_H stays constant above the fit's cutoff
            assert "beta_fit         = 0 (stalled)" in report

    @pytest.mark.parametrize("command", ["stationary", "evolve"])
    def test_gap_below_limit_exit_2(self, repo_root, tmp_path, capsys, command):
        # The reciprocal of a gap c1 - c0 below 1/DBL_MAX overflows, so the
        # reaction slope is infinite: invalid input, not a breakdown (exit 3).
        argv = [command, str(repo_root / "configs" / "radial_desk.cfg"),
                "--set", "model.c0=1e-310", "--set", "model.c1=2e-310",
                "--output-dir", str(tmp_path)]
        assert main(argv) == 2
        assert (f"gap c1 - c0 = 9.9999999999999694e-311 is below the limit {MIN_GAP:.17g}"
                in capsys.readouterr().err)

    def test_overflowing_assembled_stiffness_exit_2(self, repo_root, tmp_path, capsys):
        # Every local matrix is finite, but their sums in K overflow.
        argv = ["stationary", str(repo_root / "configs" / "annulus_desk.cfg"),
                "--set", "model.b2=1e308", "--output-dir", str(tmp_path)]
        assert main(argv) == 2
        assert "assembled K has a non-finite entry" in capsys.readouterr().err

    def test_non_convergence_writes_report_and_exits_3(self, quick_cfg, capsys, monkeypatch):
        # One Newton iteration from zero does not reach the stationary state.
        path, out = quick_cfg
        monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 1)
        assert main(["stationary", str(path)]) == 3
        report = (out / "stationary_report.txt").read_text().splitlines()
        assert "  converged        = False" in report
        assert "  newton iterations = 1" in report
        assert ("stationary solve did not converge; artifacts are partial"
                in capsys.readouterr().err)

    def test_radial_csv_comparable_to_oracle(self, quick_cfg):
        from coreshell import radial_stationary_reference

        path, out = quick_cfg
        assert main(["stationary", str(path)]) == 0
        config = load_config(path)
        mesh = build_mesh(config.geometry)
        vals = read_field_csv(out / "stationary_field.csv", mesh)
        profile = radial_stationary_reference(config.model, config.geometry)
        assert np.max(np.abs(vals - profile(mesh.nodes))) <= 1e-3

    def test_deterministic_bytes(self, quick_cfg, tmp_path):
        path, _ = quick_cfg
        out_a = tmp_path / "da"
        out_b = tmp_path / "db"
        main(["stationary", str(path), "--output-dir", str(out_a)])
        main(["stationary", str(path), "--output-dir", str(out_b)])
        # identical data bytes; only the echoed output-directory lines differ
        data_a = [l for l in (out_a / "stationary_field.csv").read_text().splitlines()
                  if not l.startswith("#")]
        data_b = [l for l in (out_b / "stationary_field.csv").read_text().splitlines()
                  if not l.startswith("#")]
        assert data_a == data_b


class TestCmdEvolve:
    def test_run_and_outputs(self, quick_cfg):
        path, out = quick_cfg
        rc = main(["evolve", str(path)])
        assert rc == 0
        trace = (out / "trace.csv").read_text()
        header = next(line for line in trace.splitlines() if not line.startswith("#"))
        assert header == "t,energy,err_H,err_V,newton_iters"
        assert (out / "decay_report.txt").exists()
        decay = [line for line in (out / "decay_report.csv").read_text().splitlines()
                 if not line.startswith("#")]
        assert decay[0].startswith("beta_fit,")
        assert float(decay[1].split(",")[0]) > 0.0

    def test_restart_from_stationary_is_flat(self, quick_cfg, capsys):
        path, out = quick_cfg
        assert main(["stationary", str(path)]) == 0
        rc = main(["evolve", str(path), "--u0-file", str(out / "stationary_field.csv")])
        assert rc == 0
        report = (out / "decay_report.txt").read_text()
        assert "converged-at-start" in report

    def test_one_sample_fit_window_is_flagged(self, quick_cfg):
        # One huge step reaches the stationary state, so a single trace sample
        # lies above the noise cutoff: too few to fit, a flag and not a failure.
        path, out = quick_cfg
        rc = main(["evolve", str(path), "--set", "solver.dt=1e10",
                   "--set", "solver.t_end=1e11"])
        assert rc == 0
        decay = [line for line in (out / "decay_report.csv").read_text().splitlines()
                 if not line.startswith("#")]
        assert decay[1].split(",")[3:] == ["0", "1", "converged-too-fast"]

    def test_failed_step_exits_3_naming_it(self, quick_cfg, capsys, monkeypatch):
        path, out = quick_cfg
        assert main(["stationary", str(path)]) == 0
        # Fifty times the stationary state is far from the first step's
        # minimizer, so two Newton iterations cannot reach it; the stationary
        # reference (from zero) still converges within its budget.
        mesh = build_mesh(load_config(path).geometry)
        far = out / "far_field.csv"
        write_field_csv(far, mesh, 50.0 * read_field_csv(out / "stationary_field.csv", mesh))
        monkeypatch.setattr(solvers, "NEWTON_MAX_ITER", 2)
        rc = main(["evolve", str(path), "--u0-file", str(far)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "evolution failed at step 1" in err
        assert "samples" not in err

    # The first three inputs raise the energy by up to 1.2e-9 in a step,
    # within its rounding. At b2 = 1e300 the shell entries of a Newton correction are
    # subnormal, and CG's stop must count gradual underflow. The desk problem
    # scaled by s = 2^664 (b / s, s c0, s c1, s dt, s t_end) overflows
    # e.(Kt e) and u * u unless the record forms them at a scale of its own.
    @pytest.mark.parametrize("config, overrides", [
        ("annulus_desk.cfg", ["model.b1=1e7"]), ("annulus_desk.cfg", ["model.b1=5e9"]),
        ("annulus_desk.cfg", ["model.c1=1e6"]),
        ("radial_desk.cfg", ["model.b2=1e300"]), ("annulus_desk.cfg", ["model.b2=1e300"]),
        ("radial_desk.cfg", SCALED_2_664), ("annulus_desk.cfg", SCALED_2_664),
    ], ids=["model.b1=1e7", "model.b1=5e9", "model.c1=1e6",
            "model.b2=1e300-radial_desk.cfg", "model.b2=1e300-annulus_desk.cfg",
            "scale-2^664-radial_desk.cfg", "scale-2^664-annulus_desk.cfg"])
    def test_stiff_input_energy_monotone(self, repo_root, tmp_path, config, overrides):
        argv = ["evolve", str(repo_root / "configs" / config),
                "--set", "solver.t_end=1", "--set", "solver.dt=0.05",
                "--output-dir", str(tmp_path)]
        for override in overrides:  # later settings win
            argv += ["--set", override]
        assert main(argv) == 0
        report = (tmp_path / "evolve_report.txt").read_text().splitlines()
        assert "  completed        = True" in report
        assert "  energy monotone  = True" in report

    @pytest.mark.parametrize("r1", ["1e-10", "9.999999999999999e-11"])
    def test_tiny_core_evolves(self, repo_root, tmp_path, r1):
        # The Rayleigh quotient's rounding lies above EIGEN_RTOL here, so
        # the eigen-solve for gamma must stop at that rounding, or evolve
        # exits 3.
        argv = ["evolve", str(repo_root / "configs" / "annulus_desk.cfg"),
                "--set", f"geometry.r1={r1}", "--set", "solver.t_end=1",
                "--output-dir", str(tmp_path)]
        assert main(argv) == 0

    @pytest.mark.parametrize("command", ["mesh", "stationary", "evolve", "verify"])
    def test_thin_shell_runs(self, repo_root, tmp_path, command):
        # The shell is thinner than a chord's sagitta at h=0.1: a shell
        # triangle with two vertices on the interface ring has its centroid
        # inside r1. Regions tagged by centroid radius left an interface edge
        # without a shell element; the mesh tags them by ring band.
        argv = [command, str(repo_root / "configs" / "annulus_desk.cfg"),
                "--set", "geometry.r1=0.999", "--set", "solver.t_end=1",
                "--output-dir", str(tmp_path)]
        assert main(argv) == 0

    def test_eigen_solve_failure_exits_3(self, repo_root, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(analysis, "EIGEN_MAX_ITER", 1)
        argv = ["evolve", str(repo_root / "configs" / "radial_desk.cfg"),
                "--output-dir", str(tmp_path)]
        assert main(argv) == 3
        assert ("inverse power iteration did not converge in 1 iterations"
                in capsys.readouterr().err)

    def test_energy_increase_exits_1(self, quick_cfg, capsys, monkeypatch):
        # A last step that raises the energy by 1e-13, far above its rounding.
        def raising(*args):
            trace = solvers.evolve(*args)
            trace.energies[-1] = trace.energies[-2] + 1e-13
            return trace

        path, out = quick_cfg
        monkeypatch.setattr(cli, "evolve", raising)
        assert main(["evolve", str(path)]) == 1
        report = (out / "evolve_report.txt").read_text().splitlines()
        assert "  energy monotone  = False" in report
        assert "  err_H monotone   = True" in report
        assert ("energy-monotonicity or H-contraction violated along the trace"
                in capsys.readouterr().err)

    def test_non_finite_u0_exit_2(self, quick_cfg, capsys):
        path, out = quick_cfg
        assert main(["stationary", str(path)]) == 0
        field = out / "stationary_field.csv"
        lines = field.read_text().splitlines()
        center = lines.index("r,u") + 1
        lines[center] = "0,nan"
        field.write_text("\n".join(lines) + "\n")
        config = load_config(path)
        with pytest.raises(ValueError, match="non-finite"):
            read_field_csv(field, build_mesh(config.geometry))
        assert main(["evolve", str(path), "--u0-file", str(field)]) == 2
        assert "non-finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1e152", "1e153", "-1e153"])
    def test_overflowing_u0_exit_2(self, quick_cfg, capsys, value):
        # Finite entries whose initial dual residual overflows.
        path, out = quick_cfg
        assert main(["stationary", str(path)]) == 0
        field = out / "stationary_field.csv"
        lines = field.read_text().splitlines()
        first = lines.index("r,u") + 1
        lines[first:] = [f"{line.split(',')[0]},{value}" for line in lines[first:]]
        field.write_text("\n".join(lines) + "\n")
        assert main(["evolve", str(path), "--u0-file", str(field)]) == 2
        err = capsys.readouterr().err
        assert "invalid input: u0's initial dual residual is not finite" in err

    def test_moved_coordinate_in_u0_exit_2(self, quick_cfg, capsys):
        path, out = quick_cfg
        assert main(["stationary", str(path)]) == 0
        field = out / "stationary_field.csv"
        lines = field.read_text().splitlines()
        row = lines.index("r,u") + 3
        r, u = lines[row].split(",")
        lines[row] = f"{float(r) + 1e-3!r},{u}"
        field.write_text("\n".join(lines) + "\n")
        assert main(["evolve", str(path), "--u0-file", str(field)]) == 2
        assert "field file coordinates do not match the mesh" in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["nan", "inf"])
    def test_non_finite_first_column_exit_2(self, quick_cfg, capsys, token):
        # A data row that starts with nan or inf is a data row, not a header.
        path, out = quick_cfg
        assert main(["stationary", str(path)]) == 0
        field = out / "stationary_field.csv"
        lines = field.read_text().splitlines()
        row = lines.index("r,u") + 3
        lines[row] = f"{token},{lines[row].split(',')[1]}"
        field.write_text("\n".join(lines) + "\n")
        assert main(["evolve", str(path), "--u0-file", str(field)]) == 2
        assert "field file has a non-finite entry" in capsys.readouterr().err

    def test_infinite_step_count_exit_2(self, quick_cfg, capsys):
        path, _ = quick_cfg
        rc = main(["evolve", str(path), "--set", "solver.t_end=1e300",
                   "--set", "solver.dt=1e-300"])
        assert rc == 2
        assert "step count" in capsys.readouterr().err

    def test_step_count_above_cap_exit_2(self, quick_cfg, capsys):
        # 1e18 steps would run without bound and grow the trace lists.
        path, out = quick_cfg
        start = time.perf_counter()
        rc = main(["evolve", str(path), "--set", "solver.t_end=1e9",
                   "--set", "solver.dt=1e-9"])
        assert rc == 2
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert "step count" in err and "1000000000000000000" in err
        assert str(MAX_STEPS) in err
        assert not (out / "trace.csv").exists()

    @pytest.mark.parametrize("override, steps", [("solver.t_end=0.4", 8), ("solver.dt=1e300", 1)])
    def test_too_few_steps_for_decay_fit_exit_2(self, quick_cfg, capsys, override, steps):
        # The decay fit needs MIN_SAMPLES trace samples; fewer steps is invalid
        # input, rejected before any step runs, not a solver failure after.
        path, out = quick_cfg
        assert main(["evolve", str(path), "--set", override]) == 2
        err = capsys.readouterr().err
        assert f"step count t_end / dt = {steps} " in err
        assert not (out / "trace.csv").exists()

    def test_invalid_dt_exit_2(self, quick_cfg):
        path, _ = quick_cfg
        assert main(["evolve", str(path), "--set", "solver.dt=-0.1"]) == 2
        assert main(["evolve", str(path), "--set", "solver.dt=0"]) == 2


class TestCmdVerify:
    def test_default_passes(self, quick_cfg, capsys):
        path, out = quick_cfg
        rc = main(["verify", str(path)])
        assert rc == 0
        report = (out / "verify_report.txt").read_text()
        assert "result: PASS" in report

    def test_corrupted_b_fails_with_dump(self, quick_cfg, capsys):
        path, out = quick_cfg
        rc = main(["verify", str(path), "--corrupt-b"])
        assert rc == 1
        report = (out / "verify_report.txt").read_text()
        assert "FAIL" in report
        sample = (out / "violation_sample.csv").read_text()
        assert sample.startswith("# property:")

    def test_same_seed_byte_identical(self, quick_cfg, tmp_path):
        path, _ = quick_cfg
        out_a = tmp_path / "va"
        out_b = tmp_path / "vb"
        main(["verify", str(path), "--output-dir", str(out_a)])
        main(["verify", str(path), "--output-dir", str(out_b)])
        a = (out_a / "verify_report.txt").read_text().splitlines()
        b = (out_b / "verify_report.txt").read_text().splitlines()
        # identical up to the echoed output-directory override
        assert [x for x in a if "directory" not in x and "override" not in x] \
            == [x for x in b if "directory" not in x and "override" not in x]

    def test_same_invocation_byte_identical(self, quick_cfg):
        path, out = quick_cfg
        assert main(["verify", str(path)]) == 0
        first = (out / "verify_report.txt").read_bytes()
        assert main(["verify", str(path)]) == 0
        assert (out / "verify_report.txt").read_bytes() == first

    def test_seed_flag_changes_echo(self, quick_cfg):
        path, out = quick_cfg
        assert main(["verify", str(path), "--seed", "123"]) == 0
        report = (out / "verify_report.txt").read_text()
        assert "seed = 123" in report


def test_commands_do_not_load_scipy(quick_cfg, repo_root):
    # The runtime needs numpy only; importing scipy.sparse alone costs every
    # process about 0.2 s and 20 MB. Run in a fresh interpreter, because
    # this test process has loaded scipy elsewhere.
    path, _ = quick_cfg
    code = (
        "import sys\n"
        "from coreshell.cli import main\n"
        "for command in ('mesh', 'stationary', 'evolve', 'verify'):\n"
        f"    assert main([command, {str(path)!r}]) == 0, command\n"
        "print([m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo_root / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=600)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("command, option, target", [
    ("mesh", "--output-dir", "a_file"),
    ("evolve", "--u0-file", "missing.csv"),
    ("evolve", "--u0-file", "a_directory"),
])
def test_unusable_path_exit_2(repo_root, tmp_path, capsys, command, option, target):
    # A path that cannot be read or written is invalid input, not a property
    # violation with a traceback.
    (tmp_path / "a_file").write_text("")
    (tmp_path / "a_directory").mkdir()
    argv = [command, str(repo_root / "configs" / "radial_desk.cfg"),
            option, str(tmp_path / target)]
    if option != "--output-dir":
        argv += ["--output-dir", str(tmp_path / "out")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input: ") and target in err


def test_module_entry_point_runs_the_cli(repo_root, tmp_path):
    # `python -m coreshell.cli` must run a command, not import the module and exit 0.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo_root / "src"),
                                                      env.get("PYTHONPATH")]))
    config = str(repo_root / "configs" / "radial_desk.cfg")

    def run(*args):
        return subprocess.run([sys.executable, "-m", "coreshell.cli", "stationary", config,
                               "--output-dir", str(tmp_path), *args],
                              capture_output=True, text=True, env=env, timeout=600)

    result = run()
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "stationary_report.txt").exists()
    result = run("--set", "geometry.dimension=400")
    assert result.returncode == 2
    assert "invalid input" in result.stderr


def test_output_bytes_do_not_depend_on_blas_threads(repo_root, tmp_path, monkeypatch):
    # From about 10 000 nodes up, OpenBLAS splits a dot product across its
    # threads and the partial sums round differently, so a sum over nodes
    # formed by BLAS changes the last bits of the outputs with the core
    # count; every sum over the nodes is `fem.dot_fields`, which does not
    # call BLAS. Planar h=0.025 has 10 081 nodes.
    monkeypatch.syspath_prepend(str(repo_root / "perfbench"))
    from inputs import low_mode_field, write_field

    config = str(repo_root / "configs" / "annulus_desk.cfg")
    mesh_override = ["--set", "geometry.h=0.025"]
    loaded = load_config(config, ["geometry.h=0.025"])
    mesh = build_mesh(loaded.geometry)
    u0 = tmp_path / "u0.csv"
    write_field(u0, mesh, low_mode_field(mesh, loaded.model.c0, 1))
    code = (
        "import sys\n"
        "from coreshell.cli import main\n"
        "config, u0, out = sys.argv[1:]\n"
        f"over = {mesh_override!r}\n"
        "assert main(['stationary', config, *over, '--output-dir', out]) == 0\n"
        "assert main(['evolve', config, *over, '--set', 'solver.t_end=0.5',\n"
        "             '--u0-file', u0, '--output-dir', out]) == 0\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo_root / "src"),
                                                      env.get("PYTHONPATH")]))
    outputs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        result = subprocess.run([sys.executable, "-c", code, config, str(u0), str(out)],
                                capture_output=True, text=True, timeout=600,
                                env=dict(env, OPENBLAS_NUM_THREADS=threads))
        assert result.returncode == 0, result.stderr
        # the '#' lines echo the output directory, which differs
        outputs[threads] = {path.name: b"".join(
            line for line in path.read_bytes().splitlines(keepends=True)
            if not line.startswith(b"#")) for path in out.iterdir()}
    assert sorted(outputs["1"]) == sorted(["stationary_field.csv", "stationary_field.vtk",
                                           "stationary_report.txt", "trace.csv",
                                           "evolve_report.txt", "decay_report.txt",
                                           "decay_report.csv"])
    for name, data in outputs["1"].items():
        assert data == outputs["2"][name], name
