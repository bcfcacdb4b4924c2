"""Property tests of the input boundary: no config value or field file crashes a command.

Every run of `mesh`, `stationary` and a short `evolve` with one or two
`--set` overrides drawn from floating-point and integer edge cases exits 0,
2 or 3 and raises nothing; the suite's `error::RuntimeWarning` filter makes
a leaked numpy warning a failure too. Single overrides are run
exhaustively, and each exits 0 or 2: a valid input solves. Pairs are drawn
by hypothesis. The runs start from the
shipped desk configs with `t_end` = 1 and `dt` = 0.05. Over every pair of
overrides, the configs that pass validation have at most 694 nodes and 20
steps: no edge value, nor the ratio of two, lands between the desk sizes
and the limits that reject larger meshes and step counts.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coreshell.cli import main
from coreshell.mesh import GeometrySpec, build_mesh
from coreshell.reporting import read_field_csv, write_field_csv

KEYS = ["model.b1", "model.b2", "model.c0", "model.c1", "geometry.kind",
        "geometry.dimension", "geometry.r1", "geometry.r2", "geometry.h",
        "solver.dt", "solver.t_end"]
EDGE_VALUES = ["0", "-0", "5e-324", "-5e-324", "1e-300", "-1e-300", "1e300", "-1e300",
               "1e308", "1.7976931348623157e308", "-1.7976931348623157e308", "nan", "inf",
               "-inf", "100000000000000000000", "-100000000000000000000", "abc", ""]
# The contrast limit b1/b2 = 1e9 from the desk configs' b2 = 5: b1 at and one
# ulp past it, and b2 at and one ulp past it from their b1 = 1.
CONTRAST_EDGES = [("model.b1", "5e9"), ("model.b1", "5000000000.000001"),
                  ("model.b2", "1e-9"), ("model.b2", "9.999999999999999e-10")]
SHORT_EVOLVE = ["solver.t_end=1.0", "solver.dt=0.05"]
CONFIGS = ["radial_desk.cfg", "annulus_desk.cfg"]


def run(repo_root, out_dir, config, command, overrides):
    argv = [command, str(repo_root / "configs" / config), "--output-dir", str(out_dir)]
    for item in SHORT_EVOLVE + [f"{key}={value}" for key, value in overrides]:
        argv += ["--set", item]
    return main(argv)


def test_every_single_edge_override_exits_cleanly(repo_root, tmp_path):
    # All 808 single overrides; `mesh` builds what `stationary` builds first.
    # No valid one ends in a solver failure (exit 3); the stiff shell
    # b2 = 1e300 solves only because CG's stop counts gradual underflow.
    failures = []
    overrides = [*itertools.product(KEYS, EDGE_VALUES), *CONTRAST_EDGES]
    for config, command, (key, value) in itertools.product(CONFIGS, ["stationary", "evolve"],
                                                           overrides):
        try:
            code = run(repo_root, tmp_path, config, command, [(key, value)])
        except Exception as exc:  # a leaked RuntimeWarning too, under the suite's filter
            code = repr(exc)
        if code not in (0, 2):
            failures.append(f"{command} {config} {key}={value}: {code}")
    assert failures == []


@settings(derandomize=True, max_examples=150, deadline=None)
@given(config=st.sampled_from(CONFIGS),
       command=st.sampled_from(["mesh", "stationary", "evolve"]),
       overrides=st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(EDGE_VALUES)),
                          min_size=1, max_size=2))
def test_edge_override_pairs_exit_cleanly(repo_root, tmp_path_factory, config, command,
                                          overrides):
    out_dir = tmp_path_factory.mktemp("run")
    assert run(repo_root, out_dir, config, command, overrides) in (0, 2, 3)


FIELD_TEXT = st.one_of(st.text(), st.text(alphabet="0123456789.,-+eE#nainf \t\n"))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=FIELD_TEXT)
@example(text="r,u\n0,1\n0.25,2\n0.5,3\n0.75,4\n1,0\n")
def test_field_file_reads_or_raises_value_error(tmp_path_factory, text):
    mesh = build_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.25))
    path = tmp_path_factory.mktemp("field") / "u0.csv"
    path.write_text(text, encoding="utf-8")
    try:
        field = read_field_csv(path, mesh)
    except ValueError:
        return
    assert field.shape == (mesh.n_nodes,) and np.all(np.isfinite(field))



@pytest.mark.parametrize("text", ["", "# a comment\n", "r,u\n", "\n \t\n# c\nr,u\n\n# d\n"])
def test_field_file_without_rows_raises_without_warning(tmp_path, text):
    mesh = build_mesh(GeometrySpec(kind="radial", dimension=3, r1=0.5, r2=1.0, h=0.25))
    path = tmp_path / "u0.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="field file has 0 rows, mesh has 5 nodes"):
            read_field_csv(path, mesh)


def test_field_file_parsed_once(tmp_path, monkeypatch):
    mesh = build_mesh(GeometrySpec(kind="planar2d", dimension=2, r1=0.5, r2=1.0, h=0.25))
    values = np.linspace(-1.0, 1.0, mesh.n_nodes)
    path = tmp_path / "u0.csv"
    write_field_csv(path, mesh, values, ["config: run.cfg", "", "[model]"])
    calls, loadtxt = [], np.loadtxt

    def counting_loadtxt(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting_loadtxt)
    assert np.array_equal(read_field_csv(path, mesh), values)
    assert len(calls) == 1
