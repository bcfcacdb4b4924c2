import os
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

from coreshell.cli import main
from coreshell.config import ConfigError, load_config
from coreshell.mesh import build_mesh
from coreshell.reporting import read_field_csv, write_field_csv
from coreshell.solvers import MAX_STEPS

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
rate_samples = 20000
monotonicity_pairs = 50
strong_monotonicity_pairs = 20
coercivity_samples = 30
gradient_checks = 10
resolvent_solves = 2
hemicontinuity_samples = 5
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
reaction = true
[geometry]
kind = radial
dimension = 3
r1 = 0.5
r2 = 1
h = 0.0078125
[solver]
newton_tol = 1e-10
newton_max_iter = 50
dt = 0.10000000000000001
t_end = 10
linear_tol = 9.9999999999999998e-13
[output]
directory = out/x
write_vtk = true
write_csv = true
[verify]
seed = 7
rate_samples = 200000
monotonicity_pairs = 500
strong_monotonicity_pairs = 100
coercivity_samples = 200
gradient_checks = 50
resolvent_solves = 5
hemicontinuity_samples = 20
pairing_slack = 9.9999999999999998e-13
gradient_rtol = 9.9999999999999995e-07
"""

ECHO_ANNULUS_DESK = """
config: configs/annulus_desk.cfg
override: model.reaction=false
override: verify.pairing_slack=1e-9
[model]
b1 = 1
b2 = 5
c0 = 1
c1 = 2
reaction = false
[geometry]
kind = planar2d
dimension = 2
r1 = 0.5
r2 = 1
h = 0.10000000000000001
[solver]
newton_tol = 1e-10
newton_max_iter = 50
dt = 0.050000000000000003
t_end = 2
linear_tol = 9.9999999999999998e-13
[output]
directory = out/annulus_desk
write_vtk = true
write_csv = true
[verify]
seed = 20260808
rate_samples = 200000
monotonicity_pairs = 500
strong_monotonicity_pairs = 100
coercivity_samples = 200
gradient_checks = 50
resolvent_solves = 5
hemicontinuity_samples = 20
pairing_slack = 1.0000000000000001e-09
gradient_rtol = 9.9999999999999995e-07
"""


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
    ])
    def test_unknown_key_or_section_exit_2(self, quick_cfg, capsys, override, named):
        # A misspelt key must not be echoed as `override:` into every
        # artifact without taking effect.
        path, _ = quick_cfg
        with pytest.raises(ConfigError, match="unknown"):
            load_config(path, [override])
        assert main(["mesh", str(path), "--set", override]) == 2
        assert named in capsys.readouterr().err

    def test_unknown_key_in_file_rejected(self, tmp_path):
        path = tmp_path / "typo.cfg"
        path.write_text(QUICK_RADIAL.format(out=tmp_path).replace("dt = 0.05", "dtt = 0.05"))
        with pytest.raises(ConfigError, match=r"\[solver\] dtt"):
            load_config(path)

    @pytest.mark.parametrize("argv, expected", [
        (["verify", "configs/radial_desk.cfg", "--seed", "7", "--set", "solver.dt=0.1",
          "--output-dir", "out/x"], ECHO_RADIAL_DESK),
        (["mesh", "configs/annulus_desk.cfg", "--set", "model.reaction=false",
          "--set", "verify.pairing_slack=1e-9"], ECHO_ANNULUS_DESK),
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
    ])
    def test_overflowing_radial_geometry_exit_2(self, repo_root, tmp_path, capsys, overrides):
        # Local stiffness or mass entries overflow; that is invalid input, not
        # a solver failure, and no numpy RuntimeWarning escapes.
        argv = ["stationary", str(repo_root / "configs" / "radial_desk.cfg"),
                "--output-dir", str(tmp_path)]
        for override in overrides:
            argv += ["--set", override]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        assert "non-finite local matrices" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides", [
        ["geometry.r1=1e-200"],
        ["geometry.r2=1e200", "geometry.h=1e199"],
    ])
    def test_out_of_range_planar_geometry_exit_2(self, repo_root, tmp_path, capsys, overrides):
        # Interface facet lengths underflow to zero, or squared coordinates
        # overflow, while the mesh is built: invalid input, and no numpy
        # RuntimeWarning escapes.
        argv = ["stationary", str(repo_root / "configs" / "annulus_desk.cfg"),
                "--output-dir", str(tmp_path)]
        for override in overrides:
            argv += ["--set", override]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        assert "out of floating-point range" in capsys.readouterr().err

    def test_reaction_disabled_zero_state(self, quick_cfg, capsys):
        path, out = quick_cfg
        rc = main(["stationary", str(path), "--set", "model.reaction=false"])
        assert rc == 0
        report = (out / "stationary_report.txt").read_text()
        assert "energy           = 0" in report
        config = load_config(path)
        mesh = build_mesh(config.geometry)
        vals = read_field_csv(out / "stationary_field.csv", mesh)
        assert np.array_equal(vals, np.zeros(mesh.n_nodes))

    def test_init_choices_agree(self, quick_cfg, tmp_path):
        path, out = quick_cfg
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["stationary", str(path), "--output-dir", str(out_a)]) == 0
        assert main(["stationary", str(path), "--output-dir", str(out_b),
                     "--init", "ramp"]) == 0
        config = load_config(path)
        mesh = build_mesh(config.geometry)
        ua = read_field_csv(out_a / "stationary_field.csv", mesh)
        ub = read_field_csv(out_b / "stationary_field.csv", mesh)
        assert np.max(np.abs(ua - ub)) <= 1e-8

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

    def test_failed_step_exits_3_naming_it(self, quick_cfg, capsys):
        path, out = quick_cfg
        assert main(["stationary", str(path)]) == 0
        # Fifty times the stationary state is far from the first step's
        # minimizer, so two Newton iterations cannot reach it; the stationary
        # reference (from zero) still converges within its budget.
        mesh = build_mesh(load_config(path).geometry)
        far = out / "far_field.csv"
        write_field_csv(far, mesh, 50.0 * read_field_csv(out / "stationary_field.csv", mesh))
        rc = main(["evolve", str(path), "--u0-file", str(far),
                   "--set", "solver.newton_max_iter=2"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "evolution failed at step 1" in err
        assert "samples" not in err

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


def test_commands_do_not_load_scipy_linalg(quick_cfg, repo_root):
    # The solvers use numpy and scipy.sparse only; scipy.linalg costs every
    # process about 8 MB and 0.15 s to import. Run in a fresh interpreter,
    # because this test process has loaded it elsewhere.
    path, _ = quick_cfg
    code = (
        "import sys\n"
        "from coreshell.cli import main\n"
        "for command in ('mesh', 'stationary', 'evolve', 'verify'):\n"
        f"    assert main([command, {str(path)!r}]) == 0, command\n"
        "print([m for m in ('scipy.linalg', 'scipy.sparse.linalg') if m in sys.modules])\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo_root / "src"),
                                                      env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, timeout=600)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
