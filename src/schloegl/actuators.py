"""Grid of box-indicator actuators and their finite-element coupling.

For grid parameter m the rectangle carries m*m disjoint open boxes, all
of width fraction ``r`` per axis, centered on the tensor grid
{(2k-1)L/(2m)}.  The control-to-field map sends an amplitude vector u to
the piecewise-constant function sum_j u_j 1_{box_j}; its discrete image
is carried by the coupling matrix B with B_ij = integral of phi_i over
box_j.  B is computed exactly: every triangle that meets a box is
clipped against it (Sutherland & Hodgman, "Reentrant polygon clipping",
CACM 1974) and the shape functions are integrated over the clipped
polygon.  The clip runs vectorized over all (box, triangle) pairs, with
each pair's arithmetic and the order of the entries fixed, so B does not
depend on how the pairs are batched: it is bitwise equal to clipping one
triangle at a time.

Because supports are disjoint the Gram matrix of the indicators is
diagonal (entries = box volumes), so the L2-orthogonal projection onto
the actuator span reduces to box averages.

:func:`control_norm` is the one norm of amplitude vectors; a column of an
array in any layout has the norm of the same vector alone, bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

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
    if isinstance(m, bool) or not isinstance(m, numbers.Integral):
        raise ValueError(f"grid parameter must be an integer, got {m!r}")
    if m < 1:
        raise ValueError(f"grid parameter must be >= 1, got {m}")
    m = int(m)
    if not (0.0 < width_fraction < 1.0):
        raise ValueError(f"width fraction must lie in (0, 1), got {width_fraction}")
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


def discretize_actuators(grid: ActuatorGrid, mesh: StructuredTriangulation) -> CouplingMatrix:
    """Exact integrals of the P1 basis over each actuator box.

    Every (box, triangle) pair whose bounding boxes overlap is clipped
    in one vectorized pass per box side (Sutherland-Hodgman on the four
    axis-aligned half-planes, at most 7 vertices).  The linear shape
    functions are integrated over each clipped polygon by fan
    triangulation (integral of a linear function over a triangle = area *
    mean of vertex values), skipping zero-area fans.  Each pair sees the
    same floating-point operations in the same order as a scalar clip of
    one triangle at a time, and the (row, col, value) triples are emitted
    in (box, triangle, local node) order, so B is bitwise equal to the
    scalar result.

    Raises ``ValueError`` if a box leaves the mesh's rectangle, where the
    integrals would miss part of the box.
    """
    lo, hi = grid.boxes()
    if np.any(lo < mesh.nodes.min(axis=0)) or np.any(hi > mesh.nodes.max(axis=0)):
        raise ValueError("actuator boxes leave the mesh's rectangle; build the grid on the mesh's domain")
    pts = mesh.nodes[mesh.triangles]  # (ne, 3, 2)
    tmin = np.minimum(np.minimum(pts[:, 0], pts[:, 1]), pts[:, 2])
    tmax = np.maximum(np.maximum(pts[:, 0], pts[:, 1]), pts[:, 2])
    overlap = ((tmin[:, 0] < hi[:, None, 0]) & (tmax[:, 0] > lo[:, None, 0])
               & (tmin[:, 1] < hi[:, None, 1]) & (tmax[:, 1] > lo[:, None, 1]))
    box, tri = np.nonzero(overlap)  # box-major, ascending triangle

    tp = pts[tri]
    x, y = tp[:, :, 0], tp[:, :, 1]
    n = np.full(box.size, 3)
    for axis, bound, keep_below in ((0, lo[box, 0], False), (0, hi[box, 0], True),
                                    (1, lo[box, 1], False), (1, hi[box, 1], True)):
        x, y, n = _clip_half_plane(x, y, n, axis, bound, keep_below)

    # barycentric representation of each shape function on its element
    v0 = tp[:, 0]
    d1 = tp[:, 1] - v0
    d2 = tp[:, 2] - v0
    det = (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])[:, None]
    rx, ry = x - v0[:, :1], y - v0[:, 1:]
    lam1 = (rx * d2[:, 1:] - ry * d2[:, :1]) / det
    lam2 = (d1[:, :1] * ry - d1[:, 1:] * rx) / det
    shape_at = np.stack([1.0 - lam1 - lam2, lam1, lam2], axis=2)  # (pairs, vertex, local node)
    acc = np.zeros((box.size, 3))
    for k in range(1, x.shape[1] - 1):
        area = 0.5 * ((x[:, k] - x[:, 0]) * (y[:, k + 1] - y[:, 0])
                      - (y[:, k] - y[:, 0]) * (x[:, k + 1] - x[:, 0]))
        fan = np.flatnonzero((k + 1 < n) & (area != 0.0))
        acc[fan] += area[fan, None] * (shape_at[fan, 0] + shape_at[fan, k] + shape_at[fan, k + 1]) / 3.0

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
