"""Structured P1 triangulations of a rectangle and the associated FEM operators.

The mesh is a uniform grid of nx*ny cells, each cell split into two
right triangles along the same diagonal, with row-major node ordering.
Mass and stiffness matrices are assembled from exact element integrals
(all integrands are polynomials of degree <= 2, so no quadrature error)
under pure Neumann boundary conditions.  Operators are returned as
``scipy.sparse.csr_matrix`` and are exactly symmetric: duplicate
(row, col) entries are summed in a deterministic order so that two
assemblies of the same mesh are bit-identical.

Nodal fields are plain 1-D ``numpy`` arrays of length ``mesh.n_nodes``.

The energy operator K + M and its banded Cholesky factor depend on the
mesh and nu alone, so ``FemOperators`` builds them once, on first use,
and keeps them (the spectral margin reads them on every call).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import get_lapack_funcs

# LAPACK's float64 band Cholesky pair, looked up once: a factor then holds
# only its band array, so it pickles and deep-copies with its owner.
_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)


@dataclass(frozen=True)
class RectangleDomain:
    """Axis-aligned rectangle (0, lx) x (0, ly)."""

    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        if not (self.lx > 0 and self.ly > 0):
            raise ValueError(f"side lengths must be positive, got ({self.lx}, {self.ly})")

    @property
    def area(self) -> float:
        return self.lx * self.ly


@dataclass(frozen=True)
class StructuredTriangulation:
    """Uniform triangulation of a rectangle.

    Attributes
    ----------
    nodes : (n_nodes, 2) array of vertex coordinates, row-major over the
        grid (x varies fastest).
    triangles : (n_tris, 3) int array of node indices, counterclockwise.
    nx, ny : cell subdivisions along each axis.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    nx: int
    ny: int

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    @property
    def n_tris(self) -> int:
        return self.triangles.shape[0]

    def interpolate(self, fn) -> np.ndarray:
        """Nodal interpolant of ``fn(x, y)`` (vectorized over node arrays)."""
        return np.asarray(fn(self.nodes[:, 0], self.nodes[:, 1]), dtype=float)


def build_mesh(nx: int, ny: int, domain: RectangleDomain | None = None) -> StructuredTriangulation:
    """Build the uniform right-triangle mesh with nx*ny cells.

    Every cell is split along the same (lower-left to upper-right)
    diagonal; node ordering is row-major and deterministic.
    """
    if nx < 1 or ny < 1:
        raise ValueError(f"subdivision counts must be >= 1, got nx={nx}, ny={ny}")
    domain = domain or RectangleDomain()
    xs = np.linspace(0.0, domain.lx, nx + 1)
    ys = np.linspace(0.0, domain.ly, ny + 1)
    xg, yg = np.meshgrid(xs, ys)
    nodes = np.column_stack([xg.ravel(), yg.ravel()])

    # lower-left node of each cell, row-major; its two triangles follow each other
    n00 = (np.arange(ny, dtype=np.int64)[:, None] * (nx + 1) + np.arange(nx, dtype=np.int64)).ravel()
    n10, n01 = n00 + 1, n00 + (nx + 1)
    n11 = n01 + 1
    tris = np.column_stack([n00, n10, n11, n00, n11, n01]).reshape(-1, 3)
    return StructuredTriangulation(nodes=nodes, triangles=tris, nx=nx, ny=ny)


def triangle_areas(mesh: StructuredTriangulation) -> np.ndarray:
    """Signed areas of all triangles (positive for the standard orientation)."""
    p = mesh.nodes[mesh.triangles]
    e1 = p[:, 1] - p[:, 0]
    e2 = p[:, 2] - p[:, 0]
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _sum_duplicates_deterministic(rows, cols, vals, shape):
    """COO -> CSR with duplicates summed in stable (insertion) order.

    ``np.lexsort`` is stable, so for entries (i, j) and (j, i) fed with
    identical per-element values in identical element order the summation
    sequences coincide and the result is bitwise symmetric.
    """
    order = np.lexsort((cols, rows))
    r, c, v = rows[order], cols[order], vals[order]
    new_group = np.empty(len(r), dtype=bool)
    new_group[0] = True
    new_group[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(new_group)
    summed = np.add.reduceat(v, starts)
    return sp.csr_matrix((summed, (r[starts], c[starts])), shape=shape)


def _assemble_from_element_matrices(mesh: StructuredTriangulation, elem_mats: np.ndarray) -> sp.csr_matrix:
    n = mesh.n_nodes
    tris = mesh.triangles
    ne = mesh.n_tris
    rows = np.repeat(tris, 3, axis=1).reshape(ne, 9)
    cols = np.tile(tris, 3).reshape(ne, 9)
    return _sum_duplicates_deterministic(
        rows.ravel(), cols.ravel(), elem_mats.reshape(ne, 9).ravel(), (n, n)
    )


def assemble_mass(mesh: StructuredTriangulation) -> sp.csr_matrix:
    """P1 mass matrix, M_ij = integral of phi_i phi_j (exact)."""
    areas = triangle_areas(mesh)
    ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    elem = areas[:, None, None] * ref[None, :, :]
    return _assemble_from_element_matrices(mesh, elem)


def assemble_stiffness(mesh: StructuredTriangulation, nu: float) -> sp.csr_matrix:
    """Scaled stiffness matrix, K_ij = nu * integral of grad phi_i . grad phi_j.

    Row sums are exactly zero (pure Neumann: constants lie in the kernel).
    """
    if not nu > 0:
        raise ValueError(f"diffusion coefficient must be positive, got {nu}")
    p = mesh.nodes[mesh.triangles]  # (ne, 3, 2)
    areas = triangle_areas(mesh)
    # gradient coefficients: grad phi_i = (b_i, c_i) / (2A)
    b = p[:, [1, 2, 0], 1] - p[:, [2, 0, 1], 1]
    c = p[:, [2, 0, 1], 0] - p[:, [1, 2, 0], 0]
    elem = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * (
        nu / (4.0 * areas)
    )[:, None, None]
    return _assemble_from_element_matrices(mesh, elem)


def l2_inner(a: np.ndarray, b: np.ndarray, mass: sp.csr_matrix) -> float:
    """L2 inner product of two nodal fields, a^T M b."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = mass.shape[0]
    if a.shape != (n,) or b.shape != (n,):
        raise ValueError(f"field lengths {a.shape}/{b.shape} do not match operator dimension {n}")
    return float(a @ (mass @ b))


def l2_norm(a: np.ndarray, mass: sp.csr_matrix) -> float:
    """L2 norm of a nodal field; clamped at zero against roundoff."""
    return math.sqrt(max(l2_inner(a, a, mass), 0.0))


class _BandedCholesky:
    """Cholesky factor of a sparse SPD matrix, kept in LAPACK upper band storage.

    The half-bandwidth is read off the sparsity pattern.  ``solve`` calls
    LAPACK pbtrs directly, without a finiteness scan of the right-hand
    side; callers check the result instead.
    """

    def __init__(self, a):
        a = a.tocoo()
        a.sum_duplicates()
        kd = int(np.max(np.abs(a.col - a.row)))
        upper = a.col >= a.row
        rows, cols = a.row[upper], a.col[upper]
        ab = np.zeros((kd + 1, a.shape[0]), order="F")
        ab[kd + rows - cols, cols] = a.data[upper]
        self._factor, info = _PBTRF(ab, lower=0, overwrite_ab=1)
        if info != 0:
            raise LinAlgError(f"matrix is not positive definite (pbtrf info = {info})")

    def solve(self, b: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """The solution of A x = b; ``overwrite`` lets LAPACK solve in the storage of ``b``."""
        x, info = _PBTRS(self._factor, b, lower=0, overwrite_b=overwrite)
        if info != 0:
            raise LinAlgError(f"pbtrs argument {-info} is invalid")
        return x


@dataclass(frozen=True)
class FemOperators:
    """Mesh with its assembled mass/stiffness pair, shared across simulations.

    Immutable: no field is reassigned and no matrix is written in place,
    because ``energy`` and ``energy_factor`` are derived from the fields on
    first use and cached on the instance.  ``dataclasses.replace`` builds a
    new instance, with a cache of its own.
    """

    mesh: StructuredTriangulation
    mass: sp.csr_matrix
    stiffness: sp.csr_matrix
    nu: float

    @cached_property
    def energy(self) -> sp.csr_matrix:
        """The energy operator K + M (CSR), built once."""
        return (self.stiffness + self.mass).tocsr()

    @cached_property
    def energy_factor(self) -> _BandedCholesky:
        """The banded Cholesky factor of ``energy``, computed once."""
        return _BandedCholesky(self.energy)


def build_fem(nx: int, ny: int, nu: float, domain: RectangleDomain | None = None) -> FemOperators:
    mesh = build_mesh(nx, ny, domain)
    return FemOperators(mesh=mesh, mass=assemble_mass(mesh), stiffness=assemble_stiffness(mesh, nu), nu=nu)
