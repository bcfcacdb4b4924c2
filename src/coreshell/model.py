"""Model parameters and the Michaelis-Menten consumption nonlinearity.

Everything here is a pure function of its arguments and vectorized over
numpy arrays, so concurrent use from any number of threads is safe. A
scalar argument gives numpy's result: a float64 scalar, or a 0-d array from
`consumption_rate_slope`.
"""

from dataclasses import dataclass

import numpy as np


class ParameterError(ValueError):
    """Model parameters violate an invariant."""


# Largest core/shell contrast b1/b2 accepted. At larger contrasts the assembled
# product cannot resolve the O(b2) interface terms next to O(b1) core entries:
# CG breaks down from b1/b2 = 5.9e10 at radial h=2^-11, and erratically above.
# A stiff shell (small b1/b2) solves at every contrast tried.
MAX_CONTRAST = 1e9

# Smallest gap c1 - c0 accepted, about 5.6e-309: the smallest double whose
# reciprocal, the reaction slope at z = c0, is finite (1/DBL_MAX rounds below it).
MIN_GAP = float(np.nextafter(1.0 / np.finfo(float).max, 1.0))


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless transport parameters.

    b1, b2 : diffusion coefficients in core and shell, both > 0
    c0     : outer-boundary concentration level, > 0
    c1     : Michaelis-Menten shift, with c1 - c0 >= MIN_GAP
    """

    b1: float
    b2: float
    c0: float
    c1: float

    def __post_init__(self):
        if not self.b1 > 0.0:
            raise ParameterError(f"core diffusion b1 must be positive, got {self.b1}")
        if not self.b2 > 0.0:
            raise ParameterError(f"shell diffusion b2 must be positive, got {self.b2}")
        if self.b1 / self.b2 > MAX_CONTRAST:
            raise ParameterError(f"core/shell contrast b1/b2 = {self.b1 / self.b2:.17g} is "
                                 f"above the limit {MAX_CONTRAST:g}")
        if not 0.0 < self.c0:
            raise ParameterError(f"boundary level c0 must be positive, got {self.c0}")
        if not self.c0 < self.c1:
            raise ParameterError(
                f"shift c1 must exceed c0, got c0={self.c0}, c1={self.c1}"
            )
        if self.c1 - self.c0 < MIN_GAP:
            raise ParameterError(f"gap c1 - c0 = {self.c1 - self.c0:.17g} is below the limit "
                                 f"{MIN_GAP:.17g}, where the reaction slope overflows")

    @property
    def c_hat(self) -> float:
        """Saturation constant c1 - c0 of the dimensional consumption law."""
        return self.c1 - self.c0

    @property
    def b_min(self) -> float:
        return min(self.b1, self.b2)


def consumption_rate(z, params: ModelParams):
    """Consumption rate (c0 - z)/(c1 - z) for z <= c0, and 0 above c0.

    Total on the reals, with values in [0, 1); decreasing; Lipschitz with
    constant 1/(c1 - c0); z * rate(z) <= c0.
    """
    z = np.asarray(z, dtype=float)
    # Clamping at c0 makes the capped branch come out as an exact 0 and keeps
    # the denominator >= c1 - c0 > 0 for all inputs.
    zc = np.minimum(z, params.c0)
    return (params.c0 - zc) / (params.c1 - zc)


def consumption_rate_slope(z, params: ModelParams):
    """Derivative of the consumption rate; the left branch is used at z = c0.

    -(c1 - c0)/(c1 - z)^2 for z <= c0 and 0 above; always in
    [-1/(c1 - c0), 0], which keeps reaction Jacobians negative semidefinite.
    Dividing by c1 - z twice instead of by its square keeps it finite at
    every scale (c0 = 1e-300, c1 = 1e308) for c1 - c0 >= MIN_GAP.
    """
    z = np.asarray(z, dtype=float)
    gap = params.c1 - np.minimum(z, params.c0)
    left = -((params.c1 - params.c0) / gap) / gap
    return np.where(z <= params.c0, left, 0.0)


def consumption_potential(s, params: ModelParams):
    """Antiderivative of the consumption rate, constant above s = c0.

    s + (c1 - c0) * log((c1 - s)/c1) for s <= c0, capped at its s = c0 value
    beyond. Continuous on the reals and bounded by |s|. The log argument is
    formed as a single ratio to limit cancellation near s = c0.
    """
    s = np.asarray(s, dtype=float)
    sc = np.minimum(s, params.c0)
    return sc + (params.c1 - params.c0) * np.log((params.c1 - sc) / params.c1)


def to_working_variable(v, params: ModelParams):
    """Map a dimensional concentration v to the working variable u = c0 - v."""
    return params.c0 - np.asarray(v, dtype=float)


def from_working_variable(u, params: ModelParams):
    """Map the working variable back to the dimensional concentration v = c0 - u."""
    return params.c0 - np.asarray(u, dtype=float)


def dimensional_consumption(v, params: ModelParams):
    """Consumption in the dimensional variable: v/(v + c_hat) for v >= 0, else 0.

    Equals consumption_rate(to_working_variable(v)) identically.
    """
    v = np.asarray(v, dtype=float)
    vc = np.maximum(v, 0.0)
    return vc / (vc + params.c_hat)
