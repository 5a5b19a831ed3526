"""Mesh construction and FEM operator identities.

Analytic oracles: exact element integrals of P1 products, gradient
energy of linear fields, partition of unity, and the O(h^2) convergence
of interpolant norms.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp

from schloegl import (
    RectangleDomain,
    assemble_mass,
    assemble_stiffness,
    build_fem,
    build_mesh,
    l2_inner,
    l2_norm,
)
from schloegl.geometry import triangle_areas


class TestBuildMesh:
    def test_single_cell(self):
        mesh = build_mesh(1, 1)
        assert mesh.n_nodes == 4
        assert mesh.n_tris == 2
        assert triangle_areas(mesh).sum() == pytest.approx(1.0, abs=1e-15)

    def test_counts_2x3(self):
        mesh = build_mesh(2, 3)
        assert mesh.n_nodes == 12
        assert mesh.n_tris == 12

    def test_exact_tiling_40x40(self):
        mesh = build_mesh(40, 40)
        assert mesh.n_nodes == 1681
        total = math.fsum(triangle_areas(mesh))
        assert abs(total - 1.0) < 1e-14

    def test_positive_areas_and_rowmajor(self):
        mesh = build_mesh(5, 7, RectangleDomain(2.0, 3.0))
        assert np.all(triangle_areas(mesh) > 0)
        # row-major node ordering: x varies fastest
        assert mesh.nodes[1, 0] > mesh.nodes[0, 0]
        assert mesh.nodes[6, 1] > mesh.nodes[0, 1]

    @pytest.mark.parametrize("nx, ny", [(1, 1), (3, 5), (7, 2), (16, 16), (57, 57), (100, 100)])
    def test_triangles_match_the_cell_loop(self, nx, ny):
        mesh = build_mesh(nx, ny)
        assert mesh.triangles.dtype == np.int64
        assert np.array_equal(mesh.triangles, self.loop_triangles(nx, ny))

    @staticmethod
    def loop_triangles(nx, ny):
        """Reference: cells row by row, each split into (n00, n10, n11) and (n00, n11, n01)."""
        tris = np.empty((2 * nx * ny, 3), dtype=np.int64)
        k = 0
        for j in range(ny):
            base = j * (nx + 1)
            for i in range(nx):
                n00 = base + i
                n10 = n00 + 1
                n01 = n00 + (nx + 1)
                n11 = n01 + 1
                tris[k] = (n00, n10, n11)
                tris[k + 1] = (n00, n11, n01)
                k += 2
        return tris

    def test_invalid_counts(self):
        with pytest.raises(ValueError):
            build_mesh(0, 3)
        with pytest.raises(ValueError):
            build_mesh(3, 0)

    @pytest.mark.parametrize("nx, ny", [(True, 3), (3, False), (2.0, 2), (2, 2.5), ("3", 3), (None, 3)])
    def test_counts_must_be_integers(self, nx, ny):
        # True built a mesh whose nx is True; 2.0 failed inside numpy with a TypeError
        with pytest.raises(ValueError, match="must be an integer"):
            build_mesh(nx, ny)

    def test_numpy_integer_counts_accepted(self):
        mesh = build_mesh(np.int64(3), np.int32(2))
        assert (mesh.nx, mesh.ny, mesh.n_tris) == (3, 2, 12)
        assert type(mesh.nx) is int and type(mesh.ny) is int

    def test_invalid_domain(self):
        with pytest.raises(ValueError):
            RectangleDomain(-1.0, 1.0)


class TestMass:
    def test_partition_of_unity(self):
        for nx, ny, lx, ly in [(1, 1, 1, 1), (4, 3, 1, 1), (7, 5, 2.0, 0.5)]:
            mesh = build_mesh(nx, ny, RectangleDomain(lx, ly))
            mass = assemble_mass(mesh)
            one = np.ones(mesh.n_nodes)
            assert one @ (mass @ one) == pytest.approx(lx * ly, rel=1e-14)

    def test_element_matrix_by_hand(self):
        # assemble the 1x1 unit-square mesh by hand from the exact
        # element matrix (A/12) [[2,1,1],[1,2,1],[1,1,2]] and compare
        mesh = build_mesh(1, 1)
        mass = assemble_mass(mesh).toarray()
        ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
        expected = np.zeros((4, 4))
        for tri in mesh.triangles:
            pts = mesh.nodes[tri]
            e1, e2 = pts[1] - pts[0], pts[2] - pts[0]
            area = 0.5 * abs(e1[0] * e2[1] - e1[1] * e2[0])
            for a in range(3):
                for b in range(3):
                    expected[tri[a], tri[b]] += area * ref[a, b]
        assert np.allclose(mass, expected, rtol=0, atol=1e-16)

    def test_constant_field_action(self, fe16):
        c = 3.25
        v = np.full(fe16.mesh.n_nodes, c)
        assert v @ (fe16.mass @ v) == pytest.approx(c * c * 1.0, rel=1e-13)
        row_sums = np.asarray(fe16.mass.sum(axis=1)).ravel()
        assert np.allclose(fe16.mass @ v, c * row_sums, rtol=1e-14)

    def test_positive_definite(self, fe16, rng):
        for _ in range(100):
            v = rng.normal(size=fe16.mesh.n_nodes)
            assert v @ (fe16.mass @ v) > 0


class TestStiffness:
    def test_constants_in_kernel(self, fe16):
        one = np.ones(fe16.mesh.n_nodes)
        assert np.max(np.abs(fe16.stiffness @ one)) < 1e-14

    def test_gradient_energy_linear(self):
        mesh = build_mesh(9, 11)
        nu = 0.7
        stiff = assemble_stiffness(mesh, nu)
        w = mesh.interpolate(lambda x, y: x)
        assert w @ (stiff @ w) == pytest.approx(nu, rel=1e-12)

    def test_exact_symmetry(self, fe16):
        diff = fe16.stiffness - fe16.stiffness.T
        assert abs(diff).max() == 0.0
        dmass = assemble_mass(fe16.mesh) - assemble_mass(fe16.mesh).T
        assert abs(dmass).max() == 0.0

    def test_positive_semidefinite(self, fe16, rng):
        for _ in range(100):
            v = rng.normal(size=fe16.mesh.n_nodes)
            assert v @ (fe16.stiffness @ v) >= -1e-12

    def test_nonpositive_diffusion_rejected(self):
        mesh = build_mesh(2, 2)
        with pytest.raises(ValueError):
            assemble_stiffness(mesh, 0.0)

    @pytest.mark.parametrize("nu", [math.inf, -math.inf, math.nan])
    def test_non_finite_diffusion_rejected(self, nu):
        # inf gave a stiffness with +-inf entries after a RuntimeWarning
        with pytest.raises(ValueError, match="positive and finite"):
            assemble_stiffness(build_mesh(4, 4), nu)
        with pytest.raises(ValueError, match="positive and finite"):
            build_fem(4, 4, nu)


class TestL2Inner:
    def test_constants(self, fe16):
        one = np.ones(fe16.mesh.n_nodes)
        assert l2_inner(one, one, fe16.mass) == pytest.approx(1.0, rel=1e-14)

    def test_linear_against_analytic(self, fe16):
        w = fe16.mesh.interpolate(lambda x, y: x)
        one = np.ones(fe16.mesh.n_nodes)
        assert l2_inner(w, one, fe16.mass) == pytest.approx(0.5, rel=1e-13)

    def test_disjoint_supports(self, fe16):
        n = fe16.mesh.n_nodes
        a = np.zeros(n)
        b = np.zeros(n)
        x = fe16.mesh.nodes[:, 0]
        a[x < 0.25] = 1.0
        b[x > 0.5] = 1.0  # one full mesh layer apart
        assert l2_inner(a, b, fe16.mass) == 0.0

    def test_dimension_mismatch(self, fe16):
        with pytest.raises(ValueError):
            l2_inner(np.ones(3), np.ones(fe16.mesh.n_nodes), fe16.mass)

    def test_norm_nonnegative(self, fe16):
        assert l2_norm(np.zeros(fe16.mesh.n_nodes), fe16.mass) == 0.0


def test_refinement_rate_interpolant_norm():
    # |I_h sin(pi x) sin(pi y)|_L2 -> 1/2 at rate O(h^2)
    errs = []
    for nx in (8, 16, 32, 64):
        fe = build_fem(nx, nx, 1.0)
        w = fe.mesh.interpolate(lambda x, y: np.sin(np.pi * x) * np.sin(np.pi * y))
        errs.append(abs(l2_norm(w, fe.mass) - 0.5))
    rates = [math.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert min(rates) > 1.9


def _two_sort_assembly(mesh, nu):
    """M and K as assembled before the shared pattern: per matrix, a stable
    lexsort of the element entries, duplicates summed in insertion order,
    then COO -> CSR."""
    n, ne, tris = mesh.n_nodes, mesh.n_tris, mesh.triangles

    def assemble(elem):
        rows = np.repeat(tris, 3, axis=1).reshape(ne, 9).ravel()
        cols = np.tile(tris, 3).reshape(ne, 9).ravel()
        order = np.lexsort((cols, rows))
        r, c, v = rows[order], cols[order], elem.reshape(ne, 9).ravel()[order]
        new_group = np.empty(len(r), dtype=bool)
        new_group[0] = True
        new_group[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
        starts = np.flatnonzero(new_group)
        return sp.csr_matrix((np.add.reduceat(v, starts), (r[starts], c[starts])), shape=(n, n))

    p = mesh.nodes[tris]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    areas = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    b = p[:, [1, 2, 0], 1] - p[:, [2, 0, 1], 1]
    c = p[:, [2, 0, 1], 0] - p[:, [1, 2, 0], 0]
    stiff = (b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :]) * (nu / (4.0 * areas))[:, None, None]
    return assemble(areas[:, None, None] * ref[None, :, :]), assemble(stiff)


def _same_bits(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in ((a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)))


@pytest.mark.parametrize("nx, ny, sides", [(1, 1, None), (13, 17, (1.3, 0.9)), (16, 16, None),
                                           (57, 57, None), (100, 100, None)])
def test_shared_pattern_is_the_two_sort_assembly_bitwise(nx, ny, sides):
    domain = RectangleDomain(*sides) if sides else None
    fe = build_fem(nx, ny, 0.1, domain)
    mass, stiff = _two_sort_assembly(fe.mesh, 0.1)
    assert _same_bits(fe.mass, mass) and _same_bits(fe.stiffness, stiff)
    # explicit zeros (the hypotenuse couplings of K) are kept, as before
    assert fe.stiffness.nnz == stiff.nnz and np.count_nonzero(fe.stiffness.data == 0.0) > 0
    assert _same_bits(assemble_mass(fe.mesh), mass) and _same_bits(assemble_stiffness(fe.mesh, 0.1), stiff)


def test_build_fem_returns_fresh_operators():
    a, b = build_fem(6, 5, 0.1), build_fem(6, 5, 0.1)
    assert a is not b and a.mesh is not b.mesh
    for x, y in ((a.mass, b.mass), (a.stiffness, b.stiffness)):
        assert x is not y and _same_bits(x, y)
    # M and K of one mesh share no index storage
    for x, y in ((a.mass.indices, a.stiffness.indices), (a.mass.indptr, a.stiffness.indptr)):
        assert not np.shares_memory(x, y)


def test_assembly_determinism():
    mesh = build_mesh(13, 17, RectangleDomain(1.3, 0.9))
    m1, m2 = assemble_mass(mesh), assemble_mass(mesh)
    k1, k2 = assemble_stiffness(mesh, 0.1), assemble_stiffness(mesh, 0.1)
    for a, b in ((m1, m2), (k1, k2)):
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.indptr, b.indptr)


def test_operators_are_csr(fe16):
    assert sp.issparse(fe16.mass) and fe16.mass.format == "csr"
    assert sp.issparse(fe16.stiffness) and fe16.stiffness.format == "csr"
