import math

import numpy as np
import pytest

from coreshell import (
    ModelParams,
    ParameterError,
    consumption_potential,
    consumption_rate,
    consumption_rate_slope,
    dimensional_consumption,
    from_working_variable,
    to_working_variable,
)
from coreshell.model import MIN_GAP


@pytest.fixture(scope="module")
def params():
    return ModelParams(b1=1.0, b2=5.0, c0=1.0, c1=2.0)


class TestParams:
    def test_valid(self, params):
        assert params.c_hat == 1.0
        assert params.b_min == 1.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(b1=0.0, b2=1.0, c0=1.0, c1=2.0),
            dict(b1=1.0, b2=-2.0, c0=1.0, c1=2.0),
            dict(b1=1.0, b2=1.0, c0=0.0, c1=2.0),
            dict(b1=1.0, b2=1.0, c0=2.0, c1=2.0),
            dict(b1=1.0, b2=1.0, c0=3.0, c1=2.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ParameterError):
            ModelParams(**kwargs)

    @pytest.mark.parametrize("c0, c1", [(1e-310, 2e-310), (5e-324, 1e-323)])
    def test_gap_below_limit(self, c0, c1):
        # Below MIN_GAP the reciprocal of c1 - c0, the reaction slope at c0,
        # overflows; at MIN_GAP it is finite.
        with pytest.raises(ParameterError, match="gap c1 - c0 = .* is below the limit"):
            ModelParams(b1=1.0, b2=5.0, c0=c0, c1=c1)
        at_limit = ModelParams(b1=1.0, b2=5.0, c0=5e-324, c1=5e-324 + MIN_GAP)
        assert np.isfinite(consumption_rate_slope(at_limit.c0, at_limit))


class TestConsumptionRate:
    def test_vanishes_at_c0(self, params):
        assert consumption_rate(1.0, params) == 0.0

    def test_value_at_zero(self, params):
        assert consumption_rate(0.0, params) == 0.5

    def test_capped_above_c0(self, params):
        assert consumption_rate(5.0, params) == 0.0

    def test_range_monotone_lipschitz_product(self, params):
        rng = np.random.default_rng(7)
        z = np.sort(rng.uniform(-30.0, 30.0, 100000))
        rate = consumption_rate(z, params)
        assert np.all(rate >= 0.0) and np.all(rate < 1.0)
        assert np.all(np.diff(rate) <= 0.0)
        lip = 1.0 / (params.c1 - params.c0)
        assert np.all(np.abs(np.diff(rate)) <= np.diff(z) * lip * (1.0 + 1e-12))
        assert np.all(z * rate <= params.c0 + 1e-12)

    def test_slope_left_branch_at_kink(self, params):
        assert consumption_rate_slope(1.0, params) == -1.0
        assert consumption_rate_slope(1.0 + 1e-12, params) == 0.0

    @pytest.mark.parametrize("c0, c1", [(1e-300, 2e-300), (1e-200, 2e-200), (1e300, 1e308)])
    def test_slope_at_kink_at_extreme_scales(self, c0, c1):
        # The gap is divided by twice, not squared: (c1 - c0)^2 underflows to
        # 0 at c0 = 1e-200 and overflows at c0 = 1e300.
        scaled = ModelParams(b1=1.0, b2=5.0, c0=c0, c1=c1)
        assert consumption_rate_slope(c0, scaled) == -1.0 / (c1 - c0)

    def test_slope_matches_finite_difference(self, params):
        rng = np.random.default_rng(11)
        z = rng.uniform(-5.0, 0.9, 500)
        h = 1e-7
        fd = (consumption_rate(z + h, params) - consumption_rate(z - h, params)) / (2 * h)
        slope = consumption_rate_slope(z, params)
        assert np.max(np.abs(fd - slope)) < 1e-6


class TestConsumptionPotential:
    def test_zero_at_origin(self, params):
        assert consumption_potential(0.0, params) == 0.0

    def test_closed_form_at_c0(self, params):
        expected = 1.0 + math.log(0.5)
        assert consumption_potential(1.0, params) == pytest.approx(expected, abs=1e-15)
        assert consumption_potential(1.0, params) == pytest.approx(0.306852819, abs=1e-9)

    def test_capped_branch(self, params):
        assert consumption_potential(7.0, params) == consumption_potential(1.0, params)

    def test_bounded_by_absolute_value(self, params):
        rng = np.random.default_rng(13)
        s = rng.uniform(-40.0, 40.0, 100000)
        val = consumption_potential(s, params)
        assert np.all(val <= np.abs(s) + 1e-12 * np.maximum(1.0, np.abs(s)))

    def test_derivative_is_rate(self, params):
        rng = np.random.default_rng(17)
        h = 1e-6
        s = rng.uniform(-10.0, 5.0, 2000)
        s = s[np.abs(s - params.c0) > 2 * h]
        fd = (consumption_potential(s + h, params)
              - consumption_potential(s - h, params)) / (2 * h)
        rate = consumption_rate(s, params)
        magnitude = np.maximum(np.abs(rate), np.abs(fd))
        rel = np.abs(fd - rate) / np.maximum(magnitude, 1e-300)
        mask = magnitude > 1e-9
        assert np.all(rel[mask] <= 1e-6)
        assert np.all(np.abs(fd[~mask] - rate[~mask]) <= 1e-9)

    def test_continuity_at_kink(self, params):
        below = consumption_potential(1.0 - 1e-9, params)
        above = consumption_potential(1.0 + 1e-9, params)
        assert abs(below - above) < 1e-9


class TestVariableTransform:
    def test_boundary_maps_to_zero(self, params):
        assert to_working_variable(params.c0, params) == 0.0
        assert from_working_variable(0.0, params) == params.c0

    def test_round_trip(self, params):
        rng = np.random.default_rng(19)
        v = rng.uniform(-3.0, 3.0, 1000)
        back = from_working_variable(to_working_variable(v, params), params)
        assert np.max(np.abs(back - v)) <= 4 * np.finfo(float).eps * 3.0

    def test_consumption_identity(self, params):
        # v/(v + c_hat) in the dimensional variable equals the working-variable rate
        v = 0.5
        u = to_working_variable(v, params)
        assert u == 0.5
        assert dimensional_consumption(v, params) == pytest.approx(0.5 / 1.5, abs=1e-16)
        assert consumption_rate(u, params) == pytest.approx(1.0 / 3.0, abs=1e-16)

    def test_consumption_identity_sampled(self, params):
        rng = np.random.default_rng(23)
        v = rng.uniform(0.0, 5.0, 2000)
        lhs = dimensional_consumption(v, params)
        rhs = consumption_rate(to_working_variable(v, params), params)
        assert np.max(np.abs(lhs - rhs)) < 1e-15
