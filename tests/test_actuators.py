"""Actuator grid geometry and the exact coupling integrals.

The clipping-based integrals are checked four ways: column sums equal
box volumes (partition of unity), an aligned-box case computable by
summing whole elements, a fine tensor quadrature oracle on a misaligned
case, and bitwise equality with a scalar clip of one triangle at a time.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from schloegl import (
    RectangleDomain,
    apply_control_operator,
    build_actuator_grid,
    build_fem,
    build_mesh,
    control_operator_inverse_norm,
    discretize_actuators,
    l2_norm,
    project_onto_actuator_span,
    projection_norm_sq,
)


def _clip_axis(poly: list, axis: int, bound: float, keep_below: bool) -> list:
    """Sutherland-Hodgman clip against an axis-aligned half-plane."""
    out = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        pin = (p[axis] <= bound) if keep_below else (p[axis] >= bound)
        qin = (q[axis] <= bound) if keep_below else (q[axis] >= bound)
        if pin:
            out.append(p)
            if not qin:
                t = (bound - p[axis]) / (q[axis] - p[axis])
                out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
        elif qin:
            t = (bound - p[axis]) / (q[axis] - p[axis])
            out.append((p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])))
    return out


def _clip_triangle_to_box(tri_pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> list:
    poly = [tuple(pt) for pt in tri_pts]
    for axis, bound, keep_below in ((0, lo[0], False), (0, hi[0], True), (1, lo[1], False), (1, hi[1], True)):
        if not poly:
            return []
        poly = _clip_axis(poly, axis, bound, keep_below)
    return poly


def scalar_coupling(grid, mesh) -> sp.csr_matrix:
    """Reference B: clip one triangle at a time and integrate each
    clipped polygon by a fan of triangles, skipping zero-area fans."""
    lo_all, hi_all = grid.boxes()
    pts = mesh.nodes[mesh.triangles]
    tmin = pts.min(axis=1)
    tmax = pts.max(axis=1)
    rows, cols, vals = [], [], []
    for j in range(grid.count):
        lo, hi = lo_all[j], hi_all[j]
        cand = np.flatnonzero(
            (tmin[:, 0] < hi[0]) & (tmax[:, 0] > lo[0]) & (tmin[:, 1] < hi[1]) & (tmax[:, 1] > lo[1])
        )
        for e in cand:
            tri = pts[e]
            poly = _clip_triangle_to_box(tri, lo, hi)
            if len(poly) < 3:
                continue
            v0 = tri[0]
            d1 = tri[1] - v0
            d2 = tri[2] - v0
            det = d1[0] * d2[1] - d1[1] * d2[0]
            shape_at = np.empty((len(poly), 3))
            for k, (px, py) in enumerate(poly):
                rx, ry = px - v0[0], py - v0[1]
                lam1 = (rx * d2[1] - ry * d2[0]) / det
                lam2 = (d1[0] * ry - d1[1] * rx) / det
                shape_at[k] = (1.0 - lam1 - lam2, lam1, lam2)
            acc = np.zeros(3)
            p0 = poly[0]
            for k in range(1, len(poly) - 1):
                p1, p2 = poly[k], poly[k + 1]
                area = 0.5 * ((p1[0] - p0[0]) * (p2[1] - p0[1]) - (p1[1] - p0[1]) * (p2[0] - p0[0]))
                if area == 0.0:
                    continue
                acc += area * (shape_at[0] + shape_at[k] + shape_at[k + 1]) / 3.0
            for loc in range(3):
                if acc[loc] != 0.0:
                    rows.append(mesh.triangles[e, loc])
                    cols.append(j)
                    vals.append(acc[loc])
    return sp.csr_matrix(
        (np.array(vals), (np.array(rows, dtype=np.int64), np.array(cols, dtype=np.int64))),
        shape=(mesh.n_nodes, grid.count),
    )


# (nx, ny, m, r, domain sides or None for the unit square)
_ORACLE_CASES = (
    [(nx, nx, m, r, None) for nx in (16, 57) for m in (1, 2, 3, 4) for r in (0.25, 0.33, 0.5)]
    + [(100, 100, m, 0.5, None) for m in (1, 2, 3, 4)]
    + [
        (13, 11, 3, 0.47, None),  # box edges never on mesh lines
        (16, 8, 3, 0.5, (2.0, 0.5)),  # non-square rectangle
        (8, 8, 2, 0.5, None),  # box edges on mesh lines
        (1, 1, 2, 0.1, None),  # a box inside one triangle
    ]
)


class TestGrid:
    def test_single_box(self):
        grid = build_actuator_grid(1, 0.5)
        lo, hi = grid.boxes()
        assert np.allclose(lo[0], (0.25, 0.25))
        assert np.allclose(hi[0], (0.75, 0.75))
        assert grid.box_volume == pytest.approx(0.25)

    def test_m2_centers(self):
        grid = build_actuator_grid(2, 0.5)
        expected = [(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)]
        assert np.allclose(grid.centers, expected)
        assert grid.half_widths == (0.125, 0.125)

    def test_volume_coverage(self):
        for m, r, lx, ly in [(1, 0.5, 1, 1), (3, 0.5, 1, 1), (4, 0.7, 2.0, 0.5), (2, 0.1, 1, 3)]:
            grid = build_actuator_grid(m, r, RectangleDomain(lx, ly))
            total = grid.count * grid.box_volume
            assert total == pytest.approx(r * r * lx * ly, rel=1e-14)

    def test_disjoint_and_contained(self):
        grid = build_actuator_grid(4, 0.9, RectangleDomain(2.0, 1.0))
        lo, hi = grid.boxes()
        assert np.all(lo > -1e-15) and np.all(hi[:, 0] < 2.0 + 1e-15) and np.all(hi[:, 1] < 1.0 + 1e-15)
        for j in range(grid.count):
            for k in range(j + 1, grid.count):
                overlap_x = min(hi[j, 0], hi[k, 0]) - max(lo[j, 0], lo[k, 0])
                overlap_y = min(hi[j, 1], hi[k, 1]) - max(lo[j, 1], lo[k, 1])
                assert overlap_x <= 1e-12 or overlap_y <= 1e-12

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            build_actuator_grid(0, 0.5)
        with pytest.raises(ValueError):
            build_actuator_grid(2, 1.0)
        with pytest.raises(ValueError):
            build_actuator_grid(2, 0.0)

    def test_grid_parameter_must_be_an_integer(self):
        for m in (2.5, 2.0, True, np.True_):
            with pytest.raises(ValueError, match="integer"):
                build_actuator_grid(m, 0.5)
        grid = build_actuator_grid(np.int64(3), 0.5)
        assert grid.count == 9 and grid.centers.shape == (9, 2)
        assert np.array_equal(grid.centers, build_actuator_grid(3, 0.5).centers)


class TestCoupling:
    def test_column_sums_misaligned(self):
        # prime subdivisions: box edges never align with mesh lines
        mesh = build_mesh(13, 11)
        grid = build_actuator_grid(3, 0.47)
        cm = discretize_actuators(grid, mesh)
        sums = np.asarray(cm.b.sum(axis=0)).ravel()
        assert np.allclose(sums, cm.volumes, rtol=1e-13)
        assert cm.b.min() >= 0.0

    def test_aligned_box_whole_elements(self):
        # nx=8, m=2, r=0.5: box edges on mesh lines; the integral over a
        # box is the sum of area/3 over every triangle inside it
        mesh = build_mesh(8, 8)
        grid = build_actuator_grid(2, 0.5)
        cm = discretize_actuators(grid, mesh)
        lo, hi = grid.boxes()
        for j in range(grid.count):
            expected = np.zeros(mesh.n_nodes)
            pts = mesh.nodes[mesh.triangles]
            for e in range(mesh.n_tris):
                tri = pts[e]
                if np.all(tri[:, 0] >= lo[j, 0] - 1e-12) and np.all(tri[:, 0] <= hi[j, 0] + 1e-12) \
                        and np.all(tri[:, 1] >= lo[j, 1] - 1e-12) and np.all(tri[:, 1] <= hi[j, 1] + 1e-12):
                    e1, e2 = tri[1] - tri[0], tri[2] - tri[0]
                    area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
                    for loc in range(3):
                        expected[mesh.triangles[e, loc]] += area / 3.0
            got = cm.b[:, j].toarray().ravel()
            assert np.allclose(got, expected, rtol=0, atol=1e-15)

    def test_box_inside_one_triangle(self):
        # center (0.75, 0.25) sits strictly inside the lower-right triangle
        mesh = build_mesh(1, 1)
        grid = build_actuator_grid(2, 0.1)
        cm = discretize_actuators(grid, mesh)
        col = cm.b[:, 1].toarray().ravel()
        assert np.count_nonzero(col) == 3
        assert col.sum() == pytest.approx(grid.box_volume, rel=1e-13)

    def test_against_tensor_quadrature(self):
        # midpoint quadrature over the box on a generic misaligned case
        mesh = build_mesh(7, 9)
        grid = build_actuator_grid(1, 0.53)
        cm = discretize_actuators(grid, mesh)
        lo, hi = grid.boxes()
        k = 600
        xs = lo[0, 0] + (np.arange(k) + 0.5) * (hi[0, 0] - lo[0, 0]) / k
        ys = lo[0, 1] + (np.arange(k) + 0.5) * (hi[0, 1] - lo[0, 1]) / k
        cell = (hi[0, 0] - lo[0, 0]) * (hi[0, 1] - lo[0, 1]) / (k * k)
        xg, yg = np.meshgrid(xs, ys)
        quad = np.zeros(mesh.n_nodes)
        # locate each quadrature point in the structured mesh
        hx, hy = 1.0 / 7, 1.0 / 9
        ix = np.minimum((xg / hx).astype(int), 6)
        iy = np.minimum((yg / hy).astype(int), 8)
        lx, ly = xg / hx - ix, yg / hy - iy
        lower = lx >= ly  # triangle (n00, n10, n11) vs (n00, n11, n01)
        n00 = iy * 8 + ix
        for mask, nodes, lams in (
            (lower, (n00, n00 + 1, n00 + 9), (1.0 - lx, lx - ly, ly)),
            (~lower, (n00, n00 + 9, n00 + 8), (1.0 - ly, lx, ly - lx)),
        ):
            for node, lam in zip(nodes, lams):
                np.add.at(quad, node[mask], cell * lam[mask])
        got = cm.b[:, 0].toarray().ravel()
        assert np.allclose(got, quad, atol=2e-5 * grid.box_volume)


    @pytest.mark.parametrize("nx, ny, m, r, sides", _ORACLE_CASES)
    def test_bitwise_equal_to_scalar_clip(self, nx, ny, m, r, sides):
        domain = RectangleDomain(*sides) if sides else None
        mesh = build_mesh(nx, ny, domain)
        grid = build_actuator_grid(m, r, domain)
        got = discretize_actuators(grid, mesh).b
        ref = scalar_coupling(grid, mesh)
        assert got.shape == ref.shape
        assert np.array_equal(got.data, ref.data)
        assert np.array_equal(got.indices, ref.indices)
        assert np.array_equal(got.indptr, ref.indptr)

    def test_grid_leaving_the_mesh_is_refused(self):
        # boxes on a 2x2 domain over the unit mesh: without the check the
        # column sum is 0.25 against a box volume of 1.0
        mesh = build_mesh(16, 16)
        with pytest.raises(ValueError, match="leave the mesh"):
            discretize_actuators(build_actuator_grid(1, 0.5, RectangleDomain(2.0, 2.0)), mesh)
        with pytest.raises(ValueError, match="leave the mesh"):
            discretize_actuators(build_actuator_grid(2, 0.5, RectangleDomain(1.0, 1.5)), mesh)
        # a grid on a smaller rectangle lies inside the mesh and is accepted
        cm = discretize_actuators(build_actuator_grid(2, 0.5, RectangleDomain(0.5, 0.5)), mesh)
        assert np.allclose(np.asarray(cm.b.sum(axis=0)).ravel(), cm.volumes, rtol=1e-13)


class TestControlOperator:
    def test_zero_and_basis(self, fe16, coupling16):
        z = apply_control_operator(coupling16, np.zeros(9))
        assert np.all(z == 0)
        e1 = np.zeros(9)
        e1[0] = 1.0
        assert np.allclose(apply_control_operator(coupling16, e1),
                           coupling16.b[:, 0].toarray().ravel())

    def test_pairing_with_constant(self, coupling16, rng):
        u = rng.normal(size=9)
        one = np.ones(coupling16.b.shape[0])
        # (sum u_j 1_box_j, 1)_L2 = sum u_j vol_j
        assert one @ apply_control_operator(coupling16, u) == pytest.approx(
            float(u @ coupling16.volumes), rel=1e-13)

    def test_dimension_mismatch(self, coupling16):
        with pytest.raises(ValueError):
            apply_control_operator(coupling16, np.zeros(5))


class TestProjection:
    def test_constant_field(self, fe16, coupling16):
        c = -2.5
        coeffs = project_onto_actuator_span(coupling16, np.full(fe16.mesh.n_nodes, c))
        assert np.allclose(coeffs, c, rtol=1e-13)

    def test_field_outside_supports(self, fe16, coupling16):
        z = np.zeros(fe16.mesh.n_nodes)
        corner = (fe16.mesh.nodes[:, 0] < 1.0 / 16) & (fe16.mesh.nodes[:, 1] < 1.0 / 16)
        z[corner] = 7.0  # support nowhere near any box (boxes start at 1/12)
        assert np.all(project_onto_actuator_span(coupling16, z) == 0.0)

    def test_box_average_of_linear(self):
        fe = build_fem(16, 16, 0.1)
        grid = build_actuator_grid(1, 0.5)
        cm = discretize_actuators(grid, fe.mesh)
        w = fe.mesh.interpolate(lambda x, y: x)
        assert project_onto_actuator_span(cm, w)[0] == pytest.approx(0.5, rel=1e-13)

    def test_idempotent_orthogonal_contractive(self, fe16, coupling16, rng):
        for _ in range(25):
            z = rng.normal(size=fe16.mesh.n_nodes)
            coeffs = project_onto_actuator_span(coupling16, z)
            # orthogonality: (z - Pz, 1_box_j) = 0
            resid = coupling16.b.T @ z - coeffs * coupling16.volumes
            assert np.max(np.abs(resid)) < 1e-10 * max(1.0, np.max(np.abs(coeffs)))
            # contraction in L2
            assert math.sqrt(projection_norm_sq(coupling16, z)) <= l2_norm(z, fe16.mass) + 1e-12
            # idempotence through the reconstructed piecewise-constant field:
            # coefficients of the reconstruction equal the original coefficients
            # because box means of sum_k c_k 1_box_k are c_j (disjoint supports)
            recon_pair = coeffs * coupling16.volumes
            coeffs2 = recon_pair / coupling16.volumes
            assert np.array_equal(coeffs2, coeffs)


class TestInverseNorm:
    def test_closed_forms(self):
        assert control_operator_inverse_norm(build_actuator_grid(1, 0.5)) == pytest.approx(2.0)
        assert control_operator_inverse_norm(build_actuator_grid(3, 0.5)) == pytest.approx(6.0)

    def test_scaling_law(self):
        for m, r in [(2, 0.3), (4, 0.8), (5, 0.25)]:
            grid = build_actuator_grid(m, r)
            assert control_operator_inverse_norm(grid) == pytest.approx(m / r, rel=1e-13)

    def test_discrete_operator_norm_converges_from_below(self):
        # dense generalized eigenvalue oracle: the discrete norm of the
        # amplitude map is below the closed form and approaches it
        from scipy.linalg import eigh

        grid = build_actuator_grid(1, 0.5)
        exact = control_operator_inverse_norm(grid)
        prev = 0.0
        for nx in (8, 16, 32):
            fe = build_fem(nx, nx, 1.0)
            cm = discretize_actuators(grid, fe.mesh)
            bg = cm.b.toarray() / cm.volumes
            a = bg @ bg.T
            vals = eigh(a, fe.mass.toarray(), eigvals_only=True)
            discrete = math.sqrt(max(vals))
            assert discrete <= exact * (1 + 1e-12)
            assert discrete >= prev
            prev = discrete
        assert discrete > 0.95 * exact
