"""P1 finite-element assembly on core-shell meshes.

The assembled operators are the discrete counterparts of the weighted
diffusion form, the mass inner product, and the core-restricted consumption
load. The consumption term uses nodal (lumped) quadrature, entry i being
weight_i * rate(u_i) with nonnegative weights: this preserves the sign and
monotonicity structure of the continuous reaction exactly at the discrete
level, not just asymptotically.

Dirichlet rows/columns are handled by symmetric elimination: matrices are
stored over all nodes, solvers restrict to the unmasked subspace, and
residual/gradient vectors are returned embedded with zeros at masked nodes.
A field is the array of its nodal values over all nodes; members of the
homogeneous-boundary space are zero at the masked nodes.

Assembly is sequential and deterministic; assembled systems are immutable.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import CORE, CoreShellMesh, GeometryError
from .model import (
    ModelParams,
    consumption_potential,
    consumption_rate,
    consumption_rate_slope,
)


def zero_field(mesh: CoreShellMesh) -> np.ndarray:
    return np.zeros(mesh.n_nodes)


def field_from_values(mesh: CoreShellMesh, values) -> np.ndarray:
    """Copy nodal values into a float field, zeroing the Dirichlet entries."""
    vals = np.array(values, dtype=float)
    if vals.shape != (mesh.n_nodes,):
        raise ValueError(f"expected {mesh.n_nodes} nodal values, got shape {vals.shape}")
    vals[mesh.dirichlet_mask()] = 0.0
    return vals


def ramp_field(mesh: CoreShellMesh, params: ModelParams) -> np.ndarray:
    """Nodal interpolant of c0 * (1 - r/r2): a documented nonzero initial state."""
    vals = params.c0 * (1.0 - mesh.node_radii() / mesh.r2)
    return field_from_values(mesh, vals)


@dataclass
class AssembledSystem:
    """Sparse operators of one mesh/parameter combination (immutable).

    K  : stiffness weighted by the region diffusion coefficients
    Kt : stiffness with unit coefficient (metric part of the V-norm)
    M  : consistent mass matrix (the H inner product)
    M1 : core-restricted lumped quadrature weights (zero off the core closure)
    lumped_mass : row sums of M, used as the diagonal dual-norm metric
    """

    mesh: CoreShellMesh
    K: sp.csr_matrix
    Kt: sp.csr_matrix
    M: sp.csr_matrix
    M1: np.ndarray
    lumped_mass: np.ndarray
    mask: np.ndarray
    free: np.ndarray
    core_volume: float

    def __post_init__(self):
        for arr in (self.M1, self.lumped_mass, self.mask, self.free):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    def restrict(self, matrix: sp.csr_matrix) -> sp.csr_matrix:
        """Symmetric elimination: the free-by-free block of a full matrix."""
        return matrix[self.free][:, self.free].tocsr()

    def check_field(self, u: np.ndarray):
        if u.shape != (self.n_nodes,):
            raise ValueError(f"field has shape {u.shape}, system has {self.n_nodes} nodes")


def assemble(
    mesh: CoreShellMesh,
    params: ModelParams,
    *,
    reaction: bool = True,
    weight_exponent: int | None = None,
    dirichlet_nodes=None,
    b_override: tuple | None = None,
) -> AssembledSystem:
    """Assemble stiffness, mass, and core quadrature weights on a mesh.

    Radial meshes include the r^(N-1) volume weight in every integral.
    Keyword arguments are testing hooks: `weight_exponent` overrides the
    radial weight (0 disables it), `dirichlet_nodes` overrides the mask,
    `reaction=False` zeroes the consumption weights (load-free mode), and
    `b_override` bypasses parameter validation for harness sanity checks.

    Local element matrices are built for all elements at once from the
    mesh's element measures and gradients, and duplicate positions are summed
    by the sparse conversion. An off-diagonal entry sums at most two element
    terms (an edge has at most two elements), and a + b == b + a exactly, so
    K and M are symmetric bitwise. Raises GeometryError naming the first
    element whose local matrices are not finite (they overflow on extreme
    radii or mesh sizes).
    """
    b1, b2 = (params.b1, params.b2) if b_override is None else b_override
    if weight_exponent is None:
        weight_exponent = mesh.dimension - 1 if mesh.kind == "radial" else 0

    measures, grads = mesh.measures, mesh.gradients
    core = mesh.region == CORE
    with np.errstate(over="ignore", invalid="ignore"):
        if mesh.kind == "radial":
            # Gauss-Legendre with w//2 + 2 points integrates r^w * phi_a * phi_b
            # (degree w + 2) exactly on each element; differences of monomial
            # moments would cancel as h shrinks.
            xi, wq = np.polynomial.legendre.leggauss(weight_exponent // 2 + 2)
            phi = np.column_stack([1.0 - xi, 1.0 + xi]) / 2.0
            r = mesh.nodes[mesh.elements[:, 0]][:, None] + measures[:, None] * phi[:, 1]
            weight = (measures / 2.0)[:, None] * wq * r**weight_exponent
            m_aa, m_ab, m_bb = (weight @ (phi[:, [0, 0, 1]] * phi[:, [0, 1, 1]])).T
            m_local = np.stack([m_aa, m_ab, m_ab, m_bb], axis=1).reshape(-1, 2, 2)
            lumped_local = weight @ phi
            volume = weight.sum(axis=1)
        else:
            m_local = (measures / 12.0)[:, None, None] * (1.0 + np.eye(3))
            lumped_local = np.repeat(measures[:, None] / 3.0, 3, axis=1)
            volume = measures
        kt_local = volume[:, None, None] * (grads[:, :, None, :]
                                            * grads[:, None, :, :]).sum(axis=-1)
        k_local = np.where(core, b1, b2)[:, None, None] * kt_local
    finite = (np.isfinite(k_local).all(axis=(1, 2)) & np.isfinite(m_local).all(axis=(1, 2))
              & np.isfinite(lumped_local).all(axis=1))
    if not finite.all():
        raise GeometryError(f"element {int(np.argmin(finite))} has non-finite local matrices")

    n = mesh.n_nodes
    k = mesh.elements.shape[1]
    rows = np.repeat(mesh.elements, k, axis=1).ravel()
    cols = np.tile(mesh.elements, (1, k)).ravel()

    def to_csr(local):
        return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()

    lumped = np.bincount(mesh.elements.ravel(), weights=lumped_local.ravel(), minlength=n)
    m1 = np.bincount(mesh.elements[core].ravel(), weights=lumped_local[core].ravel(),
                     minlength=n)
    if not reaction:
        m1 = np.zeros(mesh.n_nodes)

    if dirichlet_nodes is None:
        mask = mesh.dirichlet_mask()
    else:
        mask = np.zeros(n, dtype=bool)
        mask[np.asarray(dirichlet_nodes, dtype=np.int64)] = True

    return AssembledSystem(
        mesh=mesh,
        K=to_csr(k_local),
        Kt=to_csr(kt_local),
        M=to_csr(m_local),
        M1=m1,
        lumped_mass=lumped,
        mask=mask,
        free=np.flatnonzero(~mask),
        core_volume=float(volume[core].sum()),
    )


# ----------------------------------------------------------------------------
# discrete operators
# ----------------------------------------------------------------------------


def reaction_vector(system: AssembledSystem, u: np.ndarray, params: ModelParams) -> np.ndarray:
    """Nodal-quadrature consumption load: entry i is M1_i * rate(u_i)."""
    system.check_field(u)
    return system.M1 * consumption_rate(u, params)


def energy_gradient(system: AssembledSystem, u: np.ndarray, params: ModelParams) -> np.ndarray:
    """Gradient of the discrete energy: K u - reaction, zeroed at masked nodes.

    By the gradient-flow identity this is also the discrete
    diffusion-reaction operator applied to u; `residual` is the same
    function under that name.
    """
    system.check_field(u)
    g = system.K @ u - reaction_vector(system, u, params)
    g[system.mask] = 0.0
    return g


def residual(system: AssembledSystem, u: np.ndarray, params: ModelParams) -> np.ndarray:
    """Unmasked-subspace residual of the stationary problem (zero at the solution)."""
    return energy_gradient(system, u, params)


def energy(system: AssembledSystem, u: np.ndarray, params: ModelParams) -> float:
    """Discrete energy: half the weighted Dirichlet form minus the consumption potential."""
    system.check_field(u)
    quad = 0.5 * float(u @ (system.K @ u))
    pot = float(system.M1 @ consumption_potential(u, params))
    return quad - pot


def reaction_jacobian_diagonal(
    system: AssembledSystem, u: np.ndarray, params: ModelParams
) -> np.ndarray:
    """Diagonal -M1_i * rate'(u_i) of the reaction part of the energy Hessian.

    Nonnegative because the consumption rate is decreasing, so the full
    Hessian K + diag stays positive definite on the free subspace.
    """
    return system.M1 * (-consumption_rate_slope(u, params))


def h_norm(system: AssembledSystem, values: np.ndarray) -> float:
    return float(np.sqrt(values @ (system.M @ values)))


def v_norm(system: AssembledSystem, values: np.ndarray) -> float:
    return float(np.sqrt(values @ (system.M @ values) + values @ (system.Kt @ values)))


def dual_norm(system: AssembledSystem, values: np.ndarray) -> float:
    """Lumped-mass dual norm of a residual vector on the free subspace."""
    f = system.free
    return float(np.sqrt(np.sum(values[f] ** 2 / system.lumped_mass[f])))
