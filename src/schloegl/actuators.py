"""Grid of box-indicator actuators and their finite-element coupling.

For grid parameter m the rectangle carries m*m disjoint open boxes, all
of width fraction ``r`` per axis, centered on the tensor grid
{(2k-1)L/(2m)}.  The control-to-field map sends an amplitude vector u to
the piecewise-constant function sum_j u_j 1_{box_j}; its discrete image
is carried by the coupling matrix B with B_ij = integral of phi_i over
box_j.  B is computed exactly.  A triangle inside a box gives each of
its nodes a third of its area; a triangle that crosses a box side is
clipped against the box (Sutherland & Hodgman, "Reentrant polygon
clipping", CACM 1974) and the shape functions are integrated over the
clipped polygon.  The candidate pairs are read off the mesh's cell
ranges, and the clip runs vectorized over the crossing (box, triangle)
pairs, each half-plane pass over the pairs with a vertex outside it.
Each pair's arithmetic and the order of the entries are fixed, so B does
not depend on how the pairs are batched: it is bitwise equal to clipping
every overlapping triangle, one at a time.

Because supports are disjoint the Gram matrix of the indicators is
diagonal (entries = box volumes), so the L2-orthogonal projection onto
the actuator span reduces to box averages.

:func:`control_norm` is the one norm of amplitude vectors; a column of an
array in any layout has the norm of the same vector alone, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from ._checks import is_real, require, require_count
from .geometry import RectangleDomain, StructuredTriangulation

__all__ = [
    "ActuatorGrid",
    "CouplingMatrix",
    "build_actuator_grid",
    "discretize_actuators",
    "apply_control_operator",
    "project_onto_actuator_span",
    "projection_norm_sq",
    "control_operator_inverse_norm",
    "control_norm",
]


@dataclass(frozen=True)
class ActuatorGrid:
    """m*m axis-aligned boxes of per-axis half-widths (r*lx/(2m), r*ly/(2m))."""

    m: int
    width_fraction: float
    domain: RectangleDomain
    centers: np.ndarray  # (m*m, 2), x varies fastest

    @property
    def count(self) -> int:
        return self.m * self.m

    @property
    def half_widths(self) -> tuple[float, float]:
        f = self.width_fraction / (2.0 * self.m)
        return (f * self.domain.lx, f * self.domain.ly)

    @property
    def box_volume(self) -> float:
        hx, hy = self.half_widths
        return 4.0 * hx * hy

    def boxes(self) -> tuple[np.ndarray, np.ndarray]:
        """Lower-left and upper-right corners, each (count, 2)."""
        hw = np.array(self.half_widths)
        return self.centers - hw, self.centers + hw


def build_actuator_grid(m: int, width_fraction: float, domain: RectangleDomain | None = None) -> ActuatorGrid:
    m = require_count(m, "grid parameter", "m")
    require(is_real(width_fraction) and 0 < width_fraction < 1, "width fraction", "in (0, 1)", "width_fraction",
            width_fraction)
    domain = domain or RectangleDomain()
    cx = (2.0 * np.arange(1, m + 1) - 1.0) * domain.lx / (2.0 * m)
    cy = (2.0 * np.arange(1, m + 1) - 1.0) * domain.ly / (2.0 * m)
    gx, gy = np.meshgrid(cx, cy)
    centers = np.column_stack([gx.ravel(), gy.ravel()])
    return ActuatorGrid(m=m, width_fraction=width_fraction, domain=domain, centers=centers)


@dataclass(frozen=True)
class CouplingMatrix:
    """Discrete control operator data: B (n_nodes x count, float64 CSR) and box volumes."""

    b: sp.csr_matrix
    volumes: np.ndarray
    grid: ActuatorGrid

    def __post_init__(self):
        # the plant loop applies b through scipy's unchecked CSR kernel
        if not (sp.issparse(self.b) and self.b.format == "csr" and self.b.dtype == np.float64):
            raise ValueError(f"coupling matrix must be a float64 CSR matrix, got {self.b!r}")

    @property
    def count(self) -> int:
        return self.b.shape[1]

    @cached_property
    def bt(self) -> sp.csr_matrix:
        """B^T as a CSR matrix, built once.

        ``bt @ z`` sums each row's entries in the order ``b.T @ z`` does, so
        it is bitwise equal, without building a CSC transpose per call.
        """
        return self.b.T.tocsr()


def _clip_half_plane(x: np.ndarray, y: np.ndarray, n: np.ndarray, axis: int, bound: np.ndarray,
                     keep_below: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One Sutherland-Hodgman pass, clipping every polygon at once.

    Row p of ``x``, ``y`` holds a polygon with ``n[p]`` vertices (the rest
    is padding); it is clipped to the half-plane ``coord[axis] <= bound[p]``
    (``>=`` unless ``keep_below``).  Walking the edges (v_i, v_{i+1 mod n}),
    each row emits v_i if it is inside, then the crossing point if exactly
    one end is inside.  A pass adds at most one vertex, so the padded width
    grows by one.
    """
    rows, width = x.shape
    col = np.arange(width)
    valid = col < n[:, None]
    nxt = np.where(col + 1 < n[:, None], col + 1, 0)
    qx = np.take_along_axis(x, nxt, axis=1)
    qy = np.take_along_axis(y, nxt, axis=1)
    c, qc = (x, qx) if axis == 0 else (y, qy)
    b = bound[:, None]
    pin = valid & ((c <= b) if keep_below else (c >= b))
    qin = (qc <= b) if keep_below else (qc >= b)
    cross = valid & (pin != qin)
    emitted = pin.astype(np.int64) + cross
    slot = np.cumsum(emitted, axis=1) - emitted

    ox = np.zeros((rows, width + 1))
    oy = np.zeros((rows, width + 1))
    r, k = np.nonzero(pin)
    ox[r, slot[r, k]] = x[r, k]
    oy[r, slot[r, k]] = y[r, k]
    # crossing points only where an edge crosses the bound, so no 0/0
    r, k = np.nonzero(cross)
    px, py, pc = x[r, k], y[r, k], c[r, k]
    t = (bound[r] - pc) / (qc[r, k] - pc)
    at = slot[r, k] + pin[r, k]
    ox[r, at] = px + t * (qx[r, k] - px)
    oy[r, at] = py + t * (qy[r, k] - py)
    return ox, oy, emitted.sum(axis=1)


def _clipped_integrals(tp: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Integrals of the three shape functions of each triangle ``tp[p]`` over box p.

    Each triangle is clipped to its box (Sutherland-Hodgman on the four
    axis-aligned half-planes, at most 7 vertices), and the linear shape
    functions are integrated over the clipped polygon by fan triangulation
    (integral of a linear function over a triangle = area * mean of vertex
    values), skipping zero-area fans.  Each pass clips only the polygons
    with a vertex outside its half-plane; the others pass unchanged, as a
    pass over them would leave them.  Rows are independent: a row's values
    do not depend on the other rows.
    """
    # each pass adds at most one vertex; a polygon's columns beyond its n are zeros
    x, y = np.zeros((2, len(tp), 7))
    x[:, :3], y[:, :3] = tp[:, :, 0], tp[:, :, 1]
    n = np.full(len(tp), 3)
    for width, (axis, bound, keep_below) in enumerate(((0, lo[:, 0], False), (0, hi[:, 0], True),
                                                       (1, lo[:, 1], False), (1, hi[:, 1], True)), 3):
        # a pass leaves a polygon whose vertices are all inside as it is
        c = (x if axis == 0 else y)[:, :width]
        inside = (c <= bound[:, None]) if keep_below else (c >= bound[:, None])
        cut = np.flatnonzero(((np.arange(width) < n[:, None]) & ~inside).any(axis=1))
        if cut.size:
            x[cut, :width + 1], y[cut, :width + 1], n[cut] = _clip_half_plane(
                x[cut, :width], y[cut, :width], n[cut], axis, bound[cut], keep_below)

    # barycentric representation of each shape function on its element
    v0 = tp[:, 0]
    d1 = tp[:, 1] - v0
    d2 = tp[:, 2] - v0
    det = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])[:, None]
    rx, ry = x - v0[:, :1], y - v0[:, 1:]
    lam1 = (rx * d2[:, 1:] - ry * d2[:, :1]) / det
    lam2 = (d1[:, :1] * ry - d1[:, 1:] * rx) / det
    shape_at = np.stack([1.0 - lam1 - lam2, lam1, lam2], axis=2)  # (pairs, vertex, local node)
    acc = np.zeros((len(tp), 3))
    for k in range(1, n.max(initial=0) - 1):  # fans beyond the largest polygon add nothing
        area = 0.5 * ((x[:, k] - x[:, 0]) * (y[:, k + 1] - y[:, 0])
                      - (y[:, k] - y[:, 0]) * (x[:, k + 1] - x[:, 0]))
        fan = np.flatnonzero((k + 1 < n) & (area != 0.0))
        acc[fan] += area[fan, None] * (shape_at[fan, 0] + shape_at[fan, k] + shape_at[fan, k + 1]) / 3.0
    return acc


def discretize_actuators(grid: ActuatorGrid, mesh: StructuredTriangulation) -> CouplingMatrix:
    """Exact integrals of the P1 basis over each actuator box.

    A (box, triangle) pair whose bounding boxes overlap is either interior
    (all three vertices in the closed box) or crosses a box side.  Only
    the crossing pairs are clipped, in one vectorized pass per box side
    (see :func:`_clipped_integrals`).  The clip leaves an interior
    triangle as it is, and its fan is the triangle itself, whose shape
    functions sum to exactly 1.0 at its vertices (the barycentric values
    there come out exactly 0 or 1), so each local node gets area / 3.0
    with the fan's arithmetic.  Each pair therefore sees the same
    floating-point operations as a scalar clip of one triangle at a time,
    and the (row, col, value) triples are emitted in (box, triangle, local
    node) order, so B is bitwise equal to the scalar result.

    Raises ``ValueError`` if a box leaves the mesh's rectangle, where the
    integrals would miss part of the box.
    """
    lo, hi = grid.boxes()
    nx = mesh.nx
    xs, ys = mesh.nodes[: nx + 1, 0], mesh.nodes[:: nx + 1, 1]  # the grid lines
    if np.any(lo < (xs.min(), ys.min())) or np.any(hi > (xs.max(), ys.max())):
        raise ValueError("actuator boxes leave the mesh's rectangle; build the grid on the mesh's domain")
    # both triangles of a cell have the cell as bounding box, so the bounding
    # boxes of a pair overlap exactly when the per-axis cell ranges do
    over_x = (xs[:-1] < hi[:, :1]) & (xs[1:] > lo[:, :1])  # (count, nx)
    over_y = (ys[:-1] < hi[:, 1:]) & (ys[1:] > lo[:, 1:])  # (count, ny)
    box, cell = np.nonzero((over_y[:, :, None] & over_x[:, None, :]).reshape(grid.count, -1))
    j, i = np.divmod(cell, nx)
    inside = (((xs[i] >= lo[box, 0]) & (xs[i + 1] <= hi[box, 0]))
              & ((ys[j] >= lo[box, 1]) & (ys[j + 1] <= hi[box, 1])))
    box, interior = np.repeat(box, 2), np.repeat(inside, 2)
    tri = (2 * cell[:, None] + np.arange(2)).ravel()  # box-major, ascending triangle

    pts = mesh.nodes[mesh.triangles[tri]]  # (pairs, 3, 2)
    acc = np.empty((box.size, 3))
    x, y = pts[interior, :, 0], pts[interior, :, 1]
    area = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0]) - (y[:, 1] - y[:, 0]) * (x[:, 2] - x[:, 0]))
    acc[interior] = area[:, None] / 3.0  # a zero area gives a zero entry, dropped below as the fan's
    crossing = ~interior
    acc[crossing] = _clipped_integrals(pts[crossing], lo[box[crossing]], hi[box[crossing]])

    keep = acc != 0.0
    rows = mesh.triangles[tri][keep].astype(np.int64)
    cols = np.broadcast_to(box[:, None], acc.shape)[keep].astype(np.int64)
    b = sp.csr_matrix((acc[keep], (rows, cols)), shape=(mesh.n_nodes, grid.count))
    volumes = np.full(grid.count, grid.box_volume)
    return CouplingMatrix(b=b, volumes=volumes, grid=grid)


def apply_control_operator(coupling: CouplingMatrix, u: np.ndarray) -> np.ndarray:
    """Load vector of the actuator field with amplitudes u, i.e. B @ u."""
    u = np.asarray(u, dtype=float)
    if u.shape != (coupling.count,):
        raise ValueError(f"control vector length {u.shape} does not match actuator count {coupling.count}")
    return coupling.b @ u


def project_onto_actuator_span(coupling: CouplingMatrix, z: np.ndarray) -> np.ndarray:
    """Coefficients of the L2-orthogonal projection of the field z.

    Disjoint supports make the Gram matrix diagonal, so coefficient j is
    the mean of z over box j: (z, 1_box_j) / vol(box_j).
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (coupling.b.shape[0],):
        raise ValueError(f"field length {z.shape} does not match mesh node count {coupling.b.shape[0]}")
    return (coupling.bt @ z) / coupling.volumes


def projection_norm_sq(coupling: CouplingMatrix, z: np.ndarray) -> float:
    """Squared L2 norm of the projection onto the actuator span."""
    pair = coupling.bt @ np.asarray(z, dtype=float)
    return float(np.sum(pair * pair / coupling.volumes))


def control_operator_inverse_norm(grid: ActuatorGrid) -> float:
    """Operator norm of (amplitudes from L2 field) in the Euclidean norm.

    For disjoint boxes the maximizer of the Euclidean amplitude norm over
    unit-L2 fields concentrates on the smallest box, giving
    (min_j vol(box_j))^(-1/2); here all volumes are equal.
    """
    return float(grid.box_volume ** -0.5)


def control_norm(v: np.ndarray, norm: str = "euclidean") -> float:
    """Norm of the amplitude vector v, the one-column case of :func:`_column_norms`."""
    col = np.asarray(v, dtype=float).ravel().tolist()
    s = 0.0
    for x in col:  # numpy's order for the rows of a C-ordered array
        s += x * x  # NaN exactly when an entry is
    if norm == "max":
        return max(map(abs, col), default=0.0) if s == s else math.nan
    if norm != "euclidean":
        raise ValueError(f"unknown norm tag {norm!r}")
    n = math.sqrt(s)
    return n if 1e-150 <= n <= 1e150 else math.hypot(*col)


def _column_norms(a: np.ndarray, norm: str) -> np.ndarray:
    """Column norms of the 2-D array ``a``, each bitwise :func:`control_norm` of its column."""
    if a.shape[1] == 1:  # numpy would sum one contiguous column pairwise
        return np.array([control_norm(a, norm)])
    if norm == "max":
        return np.maximum.reduce(np.abs(a), axis=0, initial=0.0)
    with np.errstate(over="ignore", under="ignore"):
        n = np.sqrt(np.add.reduce(np.multiply(a, a, order="C"), axis=0))  # row by row, as control_norm
    odd = np.flatnonzero(~((n >= 1e-150) & (n <= 1e150)))
    for j in odd[a[:, odd].any(axis=0)]:  # an all-zero column has norm 0 either way
        n[j] = control_norm(a[:, j])
    return n
