"""Finite-element simulation of reaction-diffusion transport into
core-shell capsules: meshing, assembly, convex energy minimization,
implicit-Euler evolution, and structural diagnostics."""

from .analysis import (
    DecayReport,
    RadialStationaryProfile,
    estimate_gamma,
    fit_decay_rate,
    interface_flux_jump,
    radial_stationary_reference,
    smallest_generalized_eigenvalue,
)
from .fem import (
    AssembledSystem,
    assemble,
    energy,
    energy_gradient,
    field_from_values,
    ramp_field,
    reaction_vector,
    zero_field,
)
from .mesh import (
    CORE,
    SHELL,
    CoreShellMesh,
    GeometryError,
    GeometrySpec,
    build_annulus_mesh,
    build_mesh,
    build_radial_mesh,
)
from .model import (
    ModelParams,
    ParameterError,
    consumption_potential,
    consumption_rate,
    consumption_rate_slope,
    dimensional_consumption,
    from_working_variable,
    to_working_variable,
)
from .solvers import (
    EvolutionTrace,
    LinearSolveError,
    NonlinearSolveError,
    SolverConfig,
    StationarySolution,
    evolve,
    solve_spd,
    stationary_solve,
    step_implicit_euler,
)

__version__ = "0.1.0"
