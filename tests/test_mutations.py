"""Mutation tests: each property whose allowance is a rounding bound fails on a
defect sized near that allowance, and passes unmutated.

Every defect is a monkeypatch with a size eta. A case fails at eta and passes
at eta / 16, so the allowance lies within a factor 16 of the defect it lets
through; the unmutated run passes too. Defects of the scalar law replace the
function `verify` reads for the law checks; defects of the operator replace
`fem.consumption_rate`, which the reaction vector reads, or the gradient,
reaction vector or assembly `verify` calls; the solvers keep their own.
Where a property's exact margin dwarfs its rounding on the desk configs, the
defect puts the quantity at its bound first (a law with z * rate = c0, a
linear law of slope 1/(c1 - c0), ...) and then past it by eta.
"""

import dataclasses

import numpy as np
import pytest

from coreshell import fem, verify
from coreshell.analysis import estimate_gamma
from coreshell.config import load_config
from coreshell.fem import SparseOperator, assemble
from coreshell.mesh import build_mesh
from coreshell.verify import run_verification

RATE, POTENTIAL = verify.consumption_rate, verify.consumption_potential
DIMENSIONAL = verify.dimensional_consumption
REACTION = verify.reaction_vector

# c1 - c0 = 1e-13: the rate is flat to rounding below c0
TINY_GAP = ["model.c1=1.0000000000001"]
# b = 2^-60: the stiffness part of the operator is negligible
TINY_B = ["model.b1=8.673617379884035e-19", "model.b2=8.673617379884035e-19"]
# b1 = b2 = 1: K equals Kt, so coercivity's margin is the load's alone
UNIT_B = ["model.b2=1.0"]
# one core element, a gap of 2^-20 and tiny b: on segments whose signs align,
# a linear reaction of slope 1/(c1 - c0) meets the Lipschitz bound exactly
ONE_CORE = ["geometry.r1=0.0078125", "model.c1=1.00000095367431640625", *TINY_B]


def _short_gamma(eta, config):
    """A gradient gamma_disc (1 - eta) (M + Kt) u: strongly monotone with a
    constant eta short of the computed one."""
    gamma = estimate_gamma(assemble(build_mesh(config.geometry), config.model), config.model)

    def gradient(system, u, params):
        g = gamma * (1.0 - eta) * (system.M @ u + system.Kt @ u)
        np.copyto(g, 0.0, where=system.mask)
        return g
    return gradient


def _scaled_pair(eta, config):
    """Assembly with one free off-diagonal pair of K scaled by 1 + eta."""
    def perturbed(*args, **kwargs):
        system = assemble(*args, **kwargs)
        pattern = system.K.pattern
        rows, cols = np.divmod(pattern.keys, system.n_nodes)
        at = np.flatnonzero((rows != cols) & ~system.mask[rows] & ~system.mask[cols])[0]
        data = system.K.data.copy()
        data[[pattern.slots[at], pattern.transpose[at]]] *= 1.0 + eta
        return dataclasses.replace(system, K=SparseOperator(pattern, data))
    return perturbed


def _scaled_gradient(eta, config):
    gradient = fem.energy_gradient
    return lambda system, u, params: (1.0 + eta) * gradient(system, u, params)


def _positive(z):
    return np.where(z > 0.0, z, np.inf)


# property -> (overrides of radial_desk.cfg, module, name to replace,
# defect(eta, config), log2 of the eta that fails)
DEFECTS = {
    "consumption-rate-monotone": (
        TINY_GAP, verify, "consumption_rate",
        lambda eta, c: lambda z, p: RATE(z, p) + eta * np.minimum(z, p.c0) / p.c1, -35),
    "consumption-rate-lipschitz": (
        [], verify, "consumption_rate",
        lambda eta, c: lambda z, p: (1.0 + eta) * (p.c0 - z) / (p.c1 - p.c0), -45),
    "consumption-rate-product-bound": (
        [], verify, "consumption_rate",
        lambda eta, c: lambda z, p: np.where(z > 0.0, (1.0 + eta) * p.c0 / _positive(z),
                                             RATE(z, p)), -45),
    "consumption-potential-bound": (
        [], verify, "consumption_potential",
        lambda eta, c: lambda s, p: (1.0 + eta) * np.abs(s), -45),
    "consumption-potential-derivative": (
        [], verify, "consumption_rate",
        lambda eta, c: lambda z, p: (1.0 + eta) * RATE(z, p), -17),
    "variable-transform-roundtrip": (
        [], verify, "from_working_variable",
        lambda eta, c: lambda u, p: (1.0 + eta) * (p.c0 - u), -45),
    "operator-monotonicity": (
        TINY_B, fem, "consumption_rate",
        lambda eta, c: lambda z, p: 0.5 + eta * z / (p.c1 - p.c0), -41),
    "operator-coercivity": (
        UNIT_B, fem, "consumption_rate",
        lambda eta, c: lambda z, p: (1.0 + eta) * p.c0 / np.where(z == 0.0, np.inf, z), -25),
    "gradient-strong-monotonicity": ([], verify, "energy_gradient", _short_gamma, -31),
    "gradient-finite-difference": ([], verify, "energy_gradient", _scaled_gradient, -17),
    "gradient-equals-operator": ([], verify, "assemble", _scaled_pair, -43),
    # the residual of the resolvent step, formed with a reaction (1 + eta) r(u)
    # that Newton does not read
    "resolvent-solvability": (
        [], verify, "reaction_vector",
        lambda eta, c: lambda system, u, p: (1.0 + eta) * REACTION(system, u, p), -28),
    "weak-operator-hemicontinuity": (
        ONE_CORE, fem, "consumption_rate",
        lambda eta, c: lambda z, p: -(1.0 + eta) * z / (p.c1 - p.c0), -43),
}


def _passes(repo_root, name, overrides):
    config = load_config(repo_root / "configs" / "radial_desk.cfg", overrides)
    return next(r for r in run_verification(config) if r.name == name).passed


@pytest.mark.parametrize("name", DEFECTS)
def test_defect_near_the_allowance_fails(repo_root, monkeypatch, name):
    overrides, module, function, defect, log2_eta = DEFECTS[name]
    config = load_config(repo_root / "configs" / "radial_desk.cfg", overrides)
    assert _passes(repo_root, name, overrides)
    verdicts = []
    for eta in (2.0**log2_eta, 2.0**(log2_eta - 4)):
        monkeypatch.setattr(module, function, defect(eta, config))
        verdicts.append(_passes(repo_root, name, overrides))
        monkeypatch.undo()
    assert verdicts == [False, True]


def test_identity_defect_near_the_allowance_fails(repo_root, monkeypatch):
    # the second half of the roundtrip property: the dimensional law
    name = "variable-transform-roundtrip"
    verdicts = []
    for eta in (2.0**-47, 2.0**-51):
        monkeypatch.setattr(verify, "dimensional_consumption",
                            lambda v, p, eta=eta: (1.0 + eta) * DIMENSIONAL(v, p))
        verdicts.append(_passes(repo_root, name, []))
    assert verdicts == [False, True]


# (c0, c1) on radial desk whose law checks failed before their allowances
# were rounding bounds: the roundtrip's identity (c0 / (c1 - c0) = 1e4), the
# derivative's rounding at c1 / c0 = 80, the derivative at c0 = 2^-5 c1 / 40
# once normalized, and a rate increment of one rounding at a 1e-13 gap.
REGRESSION_INPUTS = [
    (4.37946966090325, 4.379873157299285),
    (0.3436067398748621, 27.606780761901057),
    (0.037725799377838216, 1.5027136666801288),
    (1.0, 1.0000000000001),
]
LAW_PROPERTIES = ["consumption-rate-range", "consumption-rate-monotone",
                  "consumption-rate-lipschitz", "consumption-rate-product-bound",
                  "consumption-potential-bound", "consumption-potential-derivative",
                  "variable-transform-roundtrip"]


@pytest.mark.parametrize("c0, c1", REGRESSION_INPUTS)
def test_regression_inputs_pass_the_law_checks(repo_root, c0, c1):
    config = load_config(repo_root / "configs" / "radial_desk.cfg",
                         [f"model.c0={c0!r}", f"model.c1={c1!r}"])
    results = {r.name: r for r in run_verification(config)}
    assert [name for name in LAW_PROPERTIES if not results[name].passed] == []


@pytest.mark.parametrize("name", ["consumption-potential-derivative",
                                  "variable-transform-roundtrip"])
def test_defect_fails_on_the_widest_allowance(repo_root, monkeypatch, name):
    # the regression inputs where the rounding part of the allowance is
    # largest still fail on a defect near the unscaled one
    overrides, module, function, defect, log2_eta = DEFECTS[name]
    (c0, c1) = REGRESSION_INPUTS[1 if name == "consumption-potential-derivative" else 0]
    overrides = [f"model.c0={c0!r}", f"model.c1={c1!r}"]
    config = load_config(repo_root / "configs" / "radial_desk.cfg", overrides)
    monkeypatch.setattr(module, function, defect(2.0**log2_eta, config))
    assert not _passes(repo_root, name, overrides)
