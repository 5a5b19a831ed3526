"""Structured P1 triangulations of a rectangle and the associated FEM operators.

The mesh is a uniform grid of nx*ny cells, each cell split into two
right triangles along the same diagonal, with row-major node ordering.
Mass and stiffness matrices are assembled from exact element integrals
(all integrands are polynomials of degree <= 2, so no quadrature error)
under pure Neumann boundary conditions.  Operators are returned as
``scipy.sparse.csr_matrix`` and are exactly symmetric: duplicate
(row, col) entries are summed in a deterministic order so that two
assemblies of the same mesh are bit-identical.  That order, fixed by one
stable sort of the element entries, and the CSR pattern of the sums
depend on the mesh alone, so ``build_fem`` sorts once and assembles M and
K from the same pattern.

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

from ._checks import is_real, require, require_count

# LAPACK's float64 band Cholesky pair, looked up once: a factor then holds
# only its band array, so it pickles and deep-copies with its owner.
_PBTRF, _PBTRS = get_lapack_funcs(("pbtrf", "pbtrs"), dtype=np.float64)


@dataclass(frozen=True)
class RectangleDomain:
    """Axis-aligned rectangle (0, lx) x (0, ly)."""

    lx: float = 1.0
    ly: float = 1.0

    def __post_init__(self):
        for name, side in (("lx", self.lx), ("ly", self.ly)):
            require(is_real(side) and side > 0, "side length", "positive and finite", name, side)

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
    triangles : (n_tris, 3) int array of node indices, counterclockwise;
        cell c = j*nx + i (row-major) holds triangles 2c and 2c + 1, and
        the bounding box of each is the cell.
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
    diagonal; node ordering is row-major and deterministic.  Refuses a
    count that is not an integer >= 1 (a bool included).
    """
    nx, ny = require_count(nx, "subdivision count", "nx"), require_count(ny, "subdivision count", "ny")
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
    x, y = _vertex_coordinates(mesh)
    return 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))


def _vertex_coordinates(mesh: StructuredTriangulation) -> tuple[np.ndarray, np.ndarray]:
    """x and y of every triangle's vertices, each (n_tris, 3) and contiguous."""
    return mesh.nodes[:, 0][mesh.triangles], mesh.nodes[:, 1][mesh.triangles]


class _ElementPattern:
    """Where the 9 entries of every element matrix go in the assembled CSR matrix.

    Element k contributes the entries (tris[k, i], tris[k, j]) in row-major
    (i, j) order.  ``order`` sorts them stably by (row, col), so duplicates
    are summed in element order: for entries (i, j) and (j, i) fed with
    identical per-element values the summation sequences coincide and the
    result is bitwise symmetric.  ``starts`` marks the first entry of each
    (row, col) group in sorted order; ``indices`` and ``indptr`` are the
    CSR pattern of the sums.  The pattern depends on the mesh alone, so the
    mass and stiffness matrices of one mesh share it.
    """

    def __init__(self, mesh: StructuredTriangulation):
        n = mesh.n_nodes
        tris = np.asarray(mesh.triangles, dtype=np.int64)
        key = np.repeat(tris, 3, axis=1).ravel() * n + np.tile(tris, 3).ravel()
        # cols < n, so this is the order of np.lexsort((cols, rows))
        self.order = np.argsort(key, kind="stable")
        key = key[self.order]
        new_group = np.empty(len(key), dtype=bool)
        new_group[0] = True
        np.not_equal(key[1:], key[:-1], out=new_group[1:])
        self.starts = np.flatnonzero(new_group)
        rows, self.indices = np.divmod(key[self.starts], n)
        self.indptr = np.searchsorted(rows, np.arange(n + 1))
        self.shape = (n, n)

    def assemble(self, elem_mats: np.ndarray) -> sp.csr_matrix:
        """CSR matrix of the (n_tris, 3, 3) element matrices, duplicates summed in element order."""
        summed = np.add.reduceat(elem_mats.ravel()[self.order], self.starts)
        # fresh index arrays: the matrices of one pattern share no storage
        return sp.csr_matrix((summed, self.indices.copy(), self.indptr.copy()), shape=self.shape)


def _mass_elements(mesh: StructuredTriangulation) -> np.ndarray:
    areas = triangle_areas(mesh)
    ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    return areas[:, None, None] * ref[None, :, :]


def _stiffness_elements(mesh: StructuredTriangulation, nu: float) -> np.ndarray:
    require(is_real(nu) and nu > 0, "diffusion coefficient", "positive and finite", "nu", nu)
    x, y = _vertex_coordinates(mesh)
    areas = triangle_areas(mesh)
    # gradient coefficients: grad phi_i = (b_i, c_i) / (2A)
    b = y[:, [1, 2, 0]] - y[:, [2, 0, 1]]
    c = x[:, [2, 0, 1]] - x[:, [1, 2, 0]]
    return (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * (
        nu / (4.0 * areas)
    )[:, None, None]


def assemble_mass(mesh: StructuredTriangulation) -> sp.csr_matrix:
    """P1 mass matrix, M_ij = integral of phi_i phi_j (exact)."""
    return _ElementPattern(mesh).assemble(_mass_elements(mesh))


def assemble_stiffness(mesh: StructuredTriangulation, nu: float) -> sp.csr_matrix:
    """Scaled stiffness matrix, K_ij = nu * integral of grad phi_i . grad phi_j.

    Row sums are exactly zero (pure Neumann: constants lie in the kernel).
    Refuses a ``nu`` that is not finite and > 0.
    """
    return _ElementPattern(mesh).assemble(_stiffness_elements(mesh, nu))


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
        """The solution of A x = b; ``overwrite`` lets LAPACK solve in the storage of ``b``,
        which it does for a contiguous float64 ``b``: x is then a view of it."""
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
    """Mesh and operators; M and K are assembled through one shared element pattern."""
    mesh = build_mesh(nx, ny, domain)
    stiffness_elements = _stiffness_elements(mesh, nu)  # refuses a bad nu before any sort
    pattern = _ElementPattern(mesh)
    return FemOperators(mesh=mesh, mass=pattern.assemble(_mass_elements(mesh)),
                        stiffness=pattern.assemble(stiffness_elements), nu=nu)
