"""P1 finite-element assembly on core-shell meshes.

The assembled operators are the discrete counterparts of the weighted
diffusion form, the mass inner product, and the core-supported consumption
load. The consumption term uses nodal (lumped) quadrature, entry i being
weight_i * rate(u_i) with nonnegative weights: this preserves the sign and
monotonicity structure of the continuous reaction exactly at the discrete
level, not just asymptotically.

Dirichlet rows/columns are handled by symmetric elimination on the full
operators (`AssembledSystem.eliminate`): solvers work on full-length vectors
that stay zero at masked nodes, and residual/gradient vectors are zeroed
there. A field is the array of its nodal values over all nodes; members of
the homogeneous-boundary space are zero at the masked nodes.

All operators of one system share one sparsity pattern (`SparsityPattern`,
padded ELL layout), so sums, eliminations and diagonal shifts of them are
arithmetic on their value arrays.

Operators and the field functions (`reaction_vector`, `energy_gradient`,
`energy`) also take a stack of fields, an array of shape
(..., n), and treat each field as they treat a single one: field j of a
stacked result equals the single-field result bit for bit. `verify` uses
this to evaluate its random samples in blocks of about 2^15 nodal values
(`verify.BLOCK_VALUES`), one sparse product per block instead of one per
sample.

Assembly is sequential and deterministic; assembled systems are immutable.
Every sum over the nodes, in any module, is `dot_fields`, never a BLAS dot.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .mesh import CORE, CoreShellMesh, GeometryError
from .model import (
    ModelParams,
    ParameterError,
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


# ----------------------------------------------------------------------------
# sparse operators
# ----------------------------------------------------------------------------


def element_keys(elements: np.ndarray, n: int) -> np.ndarray:
    """The key a * n + b of each entry (e, a, b) of an (m, k, k) table of
    element matrices, a and b running over the element's nodes."""
    return elements[:, :, None] * n + elements[:, None, :]


class SparsityPattern:
    """The node pairs that share an element, plus the diagonal, in padded ELL layout.

    Built from the node pairs (a, b) of each element (`element_keys`), the
    diagonal among them. The entries of row i, in increasing column
    order, fill slots 0, 1, ... of column i of the (w, n) table `cols`; a
    slot left over holds column i and the value 0, so it adds nothing. w is
    the longest row apart from hub rows, those longer than twice the median
    (the center of a planar mesh, joined to every node of the first ring),
    whose entries are stored apart in `long` as (row, data slice, columns).
    An operator's values are one flat array of `size` entries: the slot
    table `data[:w * n]` row by row of `cols`, then the hub rows.

    Per stored entry, in row-major order: `keys` (row * n + column, sorted),
    `slots` (its index in the data) and `transpose` (the data index of the
    entry at the mirrored position). `diag` holds the data index of every
    diagonal entry. `find` maps keys to data indices, for reads of entries
    by position and for the element tables `assemble` sums.
    """

    def __init__(self, mesh: CoreShellMesh):
        n = mesh.n_nodes
        # sorted in place: np.unique would sort a copy
        keys = element_keys(mesh.elements, n).ravel()
        keys.sort()
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        rows, cols = np.divmod(keys, n)
        lengths = np.bincount(rows, minlength=n)
        hub = lengths > 2.0 * np.median(lengths)
        width = int(lengths[~hub].max())
        in_hub = hub[rows]
        first = np.cumsum(lengths) - lengths
        slots = (np.arange(rows.shape[0]) - first[rows]) * n + rows
        slots[in_hub] = width * n + np.arange(np.count_nonzero(in_hub))
        self.cols = np.tile(np.arange(n), (width, 1))
        self.cols.flat[slots[~in_hub]] = cols[~in_hub]
        self.long = []
        for row in np.flatnonzero(hub):
            mine = rows == row
            self.long.append((int(row), slice(slots[mine][0], slots[mine][-1] + 1), cols[mine]))
        self.n = n
        self.size = width * n + int(np.count_nonzero(in_hub))
        self.keys = keys
        self.slots = slots
        self.diag = slots[rows == cols]

    def find(self, keys) -> np.ndarray:
        """The data index of each key row * n + column, -1 off the pattern."""
        # rebinding `at` frees each index array once the next one exists
        at = np.minimum(np.searchsorted(self.keys, keys), self.keys.shape[0] - 1)
        hit = self.keys[at] == keys
        at = self.slots[at]
        return np.where(hit, at, -1)

    @cached_property
    def transpose(self) -> np.ndarray:
        rows, cols = np.divmod(self.keys, self.n)
        return self.find(cols * self.n + rows)


class SparseOperator:
    """A matrix on a `SparsityPattern`, given by the flat array `data`
    (`vals` is its slot table part as a (w, n) view).

    `A @ x` sums each row in increasing column order, as a CSR product
    does; x may be a stack of fields (..., n), each multiplied as alone.
    Operators on one pattern add, scale and shift their diagonal by
    arithmetic on `data`. `nnz` counts stored entries, explicit zeros
    included; `A[rows, cols]` reads entries (zero off the pattern).
    """

    def __init__(self, pattern: SparsityPattern, data: np.ndarray):
        self.pattern = pattern
        self.data = data
        self.vals = data[:pattern.cols.size].reshape(pattern.cols.shape)

    @property
    def shape(self) -> tuple:
        return (self.pattern.n, self.pattern.n)

    @property
    def nnz(self) -> int:
        return self.pattern.slots.shape[0]

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        products = x.take(self.pattern.cols, axis=-1)
        products *= self.vals
        y = products.sum(axis=-2)
        for row, part, long_cols in self.pattern.long:
            # a running sum adds in column order, like the slot table
            y[..., row] = np.cumsum(self.data[part] * x.take(long_cols, axis=-1),
                                    axis=-1)[..., -1]
        return y

    def diagonal(self) -> np.ndarray:
        return self.data[self.pattern.diag]

    def abs_row_sums(self) -> np.ndarray:
        """Row sums of |A|, the size of the terms of each row of `A @ x`
        per unit |x| (for the rounding bounds of the solvers)."""
        return SparseOperator(self.pattern, np.abs(self.data)) @ np.ones(self.pattern.n)

    def plus_diagonal(self, values: np.ndarray) -> "SparseOperator":
        data = self.data.copy()
        data[self.pattern.diag] += values
        return SparseOperator(self.pattern, data)

    def __add__(self, other: "SparseOperator") -> "SparseOperator":
        if other.pattern is not self.pattern:
            raise ValueError("operators on different sparsity patterns")
        return SparseOperator(self.pattern, self.data + other.data)

    def __mul__(self, scale: float) -> "SparseOperator":
        return SparseOperator(self.pattern, self.data * scale)

    def __truediv__(self, scale: float) -> "SparseOperator":
        # Multiplies by the reciprocal: the rounding the pinned artifacts
        # of `K + M/dt` were made with.
        return self * (1.0 / scale)

    def __getitem__(self, index) -> np.ndarray:
        rows, cols = index
        at = self.pattern.find(np.asarray(rows) * self.pattern.n + np.asarray(cols))
        return np.where(at >= 0, self.data[at], 0.0)[()]

    def toarray(self) -> np.ndarray:
        dense = np.zeros(self.shape)
        dense.flat[self.pattern.keys] = self.data[self.pattern.slots]
        return dense

    def asymmetric_entries(self) -> int:
        """Number of stored entries that differ from their mirrored entry."""
        return int(np.count_nonzero(self.data[self.pattern.slots]
                                    != self.data[self.pattern.transpose]))


@dataclass
class AssembledSystem:
    """Sparse operators of one mesh/parameter combination (immutable).

    K  : stiffness weighted by the region diffusion coefficients
    Kt : stiffness with unit coefficient (metric part of the V-norm)
    M  : consistent mass matrix (the H inner product)
    M1 : lumped quadrature weights of the core (zero off the core closure)
    lumped_mass : row sums of M, used as the diagonal dual-norm metric
    mask : the Dirichlet nodes, those of the mesh's `s_nodes`
    """

    mesh: CoreShellMesh
    K: SparseOperator
    Kt: SparseOperator
    M: SparseOperator
    M1: np.ndarray
    lumped_mass: np.ndarray
    mask: np.ndarray
    core_volume: float

    def __post_init__(self):
        for arr in (self.M1, self.lumped_mass, self.mask, self.K.data, self.Kt.data, self.M.data):
            arr.setflags(write=False)

    @property
    def n_nodes(self) -> int:
        return self.mesh.n_nodes

    @cached_property
    def free(self) -> np.ndarray:
        """Indices of the free (unmasked) nodes, in increasing order."""
        return np.flatnonzero(~self.mask)

    @cached_property
    def free_lumped_mass(self) -> np.ndarray:
        """`lumped_mass` on the free nodes: the dual-norm metric."""
        return self.lumped_mass[self.free]

    def eliminate(self, matrix: SparseOperator) -> SparseOperator:
        """Symmetric elimination: a copy, masked rows and columns zeroed, 1 on their diagonal."""
        pattern = self.K.pattern
        if matrix.pattern is not pattern:
            raise ValueError("operator is not on this system's sparsity pattern")
        rows, cols = np.divmod(pattern.keys, pattern.n)
        data = matrix.data.copy()
        data[pattern.slots[self.mask[rows] | self.mask[cols]]] = 0.0
        data[pattern.diag[self.mask]] = 1.0
        return SparseOperator(pattern, data)

    def check_field(self, u: np.ndarray):
        """Accept a field or a stack of fields, shape (..., n_nodes)."""
        if u.shape[-1:] != (self.n_nodes,):
            raise ValueError(f"field has shape {u.shape}, system has {self.n_nodes} nodes")


def element_mass(mesh: CoreShellMesh):
    """The (m, k, k) table of element mass matrices, the (m, k) lumped mass
    and the (m,) element volumes; radial integrals carry the volume weight
    r^(N-1)."""
    measures = mesh.measures
    with np.errstate(over="ignore", invalid="ignore"):
        if mesh.kind == "radial":
            w = mesh.dimension - 1  # the volume weight is r^w
            # Gauss-Legendre with w//2 + 2 points integrates r^w * phi_a * phi_b
            # (degree w + 2) exactly on each element; differences of monomial
            # moments would cancel as h shrinks.
            xi, wq = np.polynomial.legendre.leggauss(w // 2 + 2)
            phi = np.column_stack([1.0 - xi, 1.0 + xi]) / 2.0
            r = mesh.nodes[mesh.elements[:, 0]][:, None] + measures[:, None] * phi[:, 1]
            weight = (measures / 2.0)[:, None] * wq * r**w
            m_aa, m_ab, m_bb = (weight @ (phi[:, [0, 0, 1]] * phi[:, [0, 1, 1]])).T
            m_local = np.stack([m_aa, m_ab, m_ab, m_bb], axis=1).reshape(-1, 2, 2)
            return m_local, weight @ phi, weight.sum(axis=1)
        m_local = (measures / 12.0)[:, None, None] * (1.0 + np.eye(3))
        return m_local, np.repeat(measures[:, None] / 3.0, 3, axis=1), measures


def element_stiffness(mesh: CoreShellMesh, volume: np.ndarray) -> np.ndarray:
    """The (m, k, k) table of unit element stiffness matrices, volume times
    grad phi_a . grad phi_b.

    The dot products are summed axis by axis into the table, in axis order,
    one (m, k) column of products at a time.
    """
    grads = mesh.gradients
    m, k, d = grads.shape
    with np.errstate(over="ignore", invalid="ignore"):
        table = grads[:, :, None, 0] * grads[:, None, :, 0]
        column = np.empty((m, k))
        for axis in range(1, d):
            for b in range(k):
                np.multiply(grads[:, :, axis], grads[:, b, axis, None], out=column)
                table[:, :, b] += column
        table *= volume[:, None, None]
    return table


def stiffness_coefficients(mesh: CoreShellMesh, b1: float, b2: float) -> np.ndarray:
    """The diffusion coefficient of each element, b1 on core and b2 on shell
    elements, shaped (m, 1, 1) to scale a table of element matrices."""
    return np.where(mesh.region == CORE, b1, b2)[:, None, None]


def element_matrices(mesh: CoreShellMesh, b1: float, b2: float):
    """Local matrices of all elements, built at once from the mesh's measures and gradients.

    Returns (m, k, k) tables of the stiffness weighted by b1 on core and b2
    on shell elements, the unit stiffness and the mass, the (m, k) lumped
    mass and the (m,) element volumes (`element_mass`, `element_stiffness`
    and `stiffness_coefficients`). Raises GeometryError naming the first
    element whose local matrices are not finite (they overflow on extreme
    radii or mesh sizes).
    """
    m_local, lumped_local, volume = element_mass(mesh)
    kt_local = element_stiffness(mesh, volume)
    with np.errstate(over="ignore", invalid="ignore"):
        k_local = stiffness_coefficients(mesh, b1, b2) * kt_local
    if not all(np.isfinite(table).all() for table in (k_local, m_local, lumped_local)):
        finite = (np.isfinite(k_local).all(axis=(1, 2)) & np.isfinite(m_local).all(axis=(1, 2))
                  & np.isfinite(lumped_local).all(axis=1))
        raise GeometryError(f"element {int(np.argmin(finite))} has non-finite local matrices")
    return k_local, kt_local, m_local, lumped_local, volume


def assemble(
    mesh: CoreShellMesh,
    params: ModelParams,
    *,
    b_override: tuple | None = None,
) -> AssembledSystem:
    """Assemble stiffness, mass, and core quadrature weights on a mesh.

    Radial meshes include the r^(N-1) volume weight in every integral, and
    the mask is the mesh's `s_nodes`. `b_override` bypasses parameter
    validation for harness sanity checks. Raises GeometryError naming the
    first element whose local matrices are not finite (`element_matrices`),
    the first unmasked node whose lumped mass is not positive (the radial
    weight underflows at high dimension), or an operator with a non-finite
    entry (finite element terms can sum to infinity), and ParameterError
    naming the first unmasked node whose K diagonal is zero (its diffusion
    coefficient underflows in the element stiffness).

    Each entry of K, Kt and M sums its `element_matrices` terms in element
    order. An off-diagonal entry sums at most two element terms (an edge has
    at most two elements), and a + b == b + a exactly, so K and M are
    symmetric bitwise. The pattern is built first, and each (m, k, k) table
    is summed into its operator before the next one is formed: the mass,
    then the unit stiffness, then the same table scaled in place by the
    diffusion coefficients.
    """
    b1, b2 = (params.b1, params.b2) if b_override is None else b_override
    n = mesh.n_nodes
    pattern = SparsityPattern(mesh)
    slots = pattern.find(element_keys(mesh.elements, n)).ravel()

    def operator(table):
        return SparseOperator(pattern, np.bincount(slots, weights=table.ravel(),
                                                   minlength=pattern.size))

    table, lumped_local, volume = element_mass(mesh)
    finite = bool(np.isfinite(table).all() and np.isfinite(lumped_local).all())
    operators = {"M": operator(table)}
    del table
    table = element_stiffness(mesh, volume)
    operators["Kt"] = operator(table)
    with np.errstate(over="ignore", invalid="ignore"):
        table *= stiffness_coefficients(mesh, b1, b2)
    finite = finite and bool(np.isfinite(table).all())
    operators["K"] = operator(table)
    del table, slots
    if not finite:
        element_matrices(mesh, b1, b2)  # raises, naming the first such element

    core = mesh.region == CORE
    mask = mesh.dirichlet_mask()
    lumped = np.bincount(mesh.elements.ravel(), weights=lumped_local.ravel(), minlength=n)
    thin = np.flatnonzero(~mask & ~(lumped > 0.0))
    if thin.size:
        raise GeometryError(f"node {thin[0]} has non-positive lumped mass {lumped[thin[0]]}")
    for name in ("K", "Kt", "M"):
        if not np.all(np.isfinite(operators[name].data)):
            raise GeometryError(f"assembled {name} has a non-finite entry")
    unstiff = np.flatnonzero(~mask & (operators["K"].diagonal() == 0.0))
    if unstiff.size:
        element = np.flatnonzero(np.any(mesh.elements == unstiff[0], axis=1))[0]
        coefficient = f"b1={b1}" if core[element] else f"b2={b2}"
        raise ParameterError(f"node {unstiff[0]} has a zero stiffness diagonal: diffusion "
                             f"coefficient {coefficient} underflows")
    return AssembledSystem(
        mesh=mesh,
        **operators,
        M1=np.bincount(mesh.elements[core].ravel(), weights=lumped_local[core].ravel(),
                       minlength=n),
        lumped_mass=lumped,
        mask=mask,
        core_volume=float(volume[core].sum()),
    )


# ----------------------------------------------------------------------------
# discrete operators
# ----------------------------------------------------------------------------


def dot_fields(a: np.ndarray, b: np.ndarray):
    """Inner product over the last axis, one per field of a stack: numpy's
    pairwise sum of a * b, in an order fixed by n, on any machine and thread
    count. The product is laid out row by row, so field j of any stack gets
    the single-field product bit for bit; a single field pair gives a scalar."""
    return np.add.reduce(np.multiply(a, b, order="C"), axis=-1)


def unit_exponent(values) -> int:
    """The k with 2^k max|values| in [1, 2) (1 for all zeros). Scaling by 2^k
    is exact wherever it neither under- nor overflows."""
    return 1 - int(np.frexp(np.abs(values).max())[1])


def reaction_vector(system: AssembledSystem, u: np.ndarray, params: ModelParams) -> np.ndarray:
    """Nodal-quadrature consumption load: entry i is M1_i * rate(u_i)."""
    system.check_field(u)
    return system.M1 * consumption_rate(u, params)


def energy_gradient(system: AssembledSystem, u: np.ndarray, params: ModelParams) -> np.ndarray:
    """Gradient of the discrete energy: K u - reaction, zeroed at masked nodes.

    By the gradient-flow identity this is also the discrete
    diffusion-reaction operator applied to u, the stationary problem's
    residual.
    """
    system.check_field(u)
    return evaluated_gradient(system, system.K @ u, reaction_vector(system, u, params))


def evaluated_gradient(system: AssembledSystem, ku: np.ndarray, react: np.ndarray) -> np.ndarray:
    """`energy_gradient` of u from its product K u and its reaction vector, bit for bit."""
    g = ku - react
    np.copyto(g, 0.0, where=system.mask)
    return g


def energy(system: AssembledSystem, u: np.ndarray, params: ModelParams):
    """Discrete energy: half the weighted Dirichlet form minus the consumption potential.

    A scalar for a field, an array of one energy per field for a stack.
    """
    system.check_field(u)
    return evaluated_energy(system, u, system.K @ u, consumption_potential(u, params))


def evaluated_energy(system: AssembledSystem, u: np.ndarray, ku: np.ndarray,
                     potential: np.ndarray):
    """`energy` of u from its product K u and its potential F(u), bit for bit."""
    return 0.5 * dot_fields(u, ku) - dot_fields(system.M1, potential)


def reaction_jacobian_diagonal(
    system: AssembledSystem, u: np.ndarray, params: ModelParams
) -> np.ndarray:
    """Diagonal -M1_i * rate'(u_i) of the reaction part of the energy Hessian.

    Nonnegative because the consumption rate is decreasing, so the full
    Hessian K + diag stays positive definite on the free subspace.
    """
    return system.M1 * (-consumption_rate_slope(u, params))


def error_norms(system: AssembledSystem, values: np.ndarray) -> tuple:
    """(||e||_H, ||e||_V) from one product M e, with e scaled by 2^`unit_exponent`
    and the norms scaled back: exact, so no finite e under- or overflows."""
    exponent = unit_exponent(values)
    e = np.ldexp(values, exponent)
    mass = dot_fields(e, system.M @ e)
    return (float(np.ldexp(np.sqrt(mass), -exponent)),
            float(np.ldexp(np.sqrt(mass + dot_fields(e, system.Kt @ e)), -exponent)))


def dual_norm(system: AssembledSystem, values: np.ndarray) -> float:
    """Lumped-mass dual norm of a residual vector on the free subspace."""
    return float(np.sqrt(np.sum(values[system.free] ** 2 / system.free_lumped_mass)))
