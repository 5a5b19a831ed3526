"""Reaction terms, forcing, and the semi-implicit time integrator.

The integrator oracles: exact equilibrium preservation at the reaction
roots, exact reduction of spatially constant runs to the scalar
recurrences, and the bistable split around the unstable root.
"""

import dataclasses
import errno
import math
import os
import re
import signal
import threading
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import LinAlgError
from scipy.sparse.linalg import splu

from schloegl import (
    BlowUpError,
    FeedbackLaw,
    ForcingSpec,
    IntegratorConfig,
    SaturationConfig,
    SchloeglParams,
    TrajectoryRecord,
    build_actuator_grid,
    build_fem,
    cubic_reaction,
    cubic_reaction_derivative,
    discretize_actuators,
    eval_forcing,
    l2_norm,
    scalar_cnab_trajectory,
    shifted_reaction,
    shifted_reaction_derivative,
    simulate_controlled,
    simulate_free,
    track_target,
)
from schloegl import dynamics, feedback
from schloegl.dynamics import (
    LOAD_BLOCK,
    TARGET_RING,
    CrankNicolsonAB2,
    ForcingLoad,
    _BandedCholesky,
    _CsrKernel,
    _Cursor,
    _Recorder,
    _run_plant,
    _TargetSource,
)


class TestReaction:
    def test_roots_are_zeros(self, params):
        for root in params.roots:
            assert cubic_reaction(root, params) == 0.0

    def test_point_values(self, params):
        assert cubic_reaction(1.0, params) == pytest.approx(-2.0)
        assert cubic_reaction(3.0, params) == pytest.approx(12.0)

    def test_elementary_sums(self, params):
        assert params.elementary_sums == (1.0, 2.0, -0.0)

    def test_derivative_matches_fd(self, params, rng):
        w = rng.normal(size=200) * 3
        eps = 1e-6
        fd = (cubic_reaction(w + eps, params) - cubic_reaction(w - eps, params)) / (2 * eps)
        assert np.allclose(cubic_reaction_derivative(w, params), fd, rtol=1e-7, atol=1e-6)


    def test_derivative_bitwise_equal_to_the_six_subtraction_form(self, params, rng):
        # each factor w - z_i is formed once; the sums and products are unchanged
        z1, z2, z3 = params.roots
        w = np.concatenate([rng.normal(scale=3.0, size=500), [-1e8, 1e8, 0.0, *params.roots]])
        six = (w - z2) * (w - z3) + (w - z1) * (w - z3) + (w - z1) * (w - z2)
        assert np.array_equal(cubic_reaction_derivative(w, params), six)


class TestShiftedReaction:
    def test_zero_error(self, params, rng):
        y_ref = rng.normal(size=50)
        assert np.all(shifted_reaction(np.zeros(50), y_ref, params) == 0.0)

    def test_increment_identity(self, params, rng):
        z = 5 * rng.normal(size=10000)
        y_ref = 5 * rng.normal(size=10000)
        lhs = cubic_reaction(z + y_ref, params) - cubic_reaction(y_ref, params)
        rhs = shifted_reaction(z, y_ref, params)
        scale = max(1.0, np.max(np.abs(lhs)))
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale

    def test_zero_reference_reduces_to_reaction(self, params, rng):
        # product of the roots vanishes for (-1, 0, 2), so f(0) = 0
        z = rng.normal(size=100)
        assert np.allclose(shifted_reaction(z, np.zeros(100), params),
                           cubic_reaction(z, params), rtol=1e-13, atol=1e-13)

    def test_derivative_is_shifted_cubic_derivative(self, params, rng):
        z = rng.normal(size=300)
        y_ref = rng.normal(size=300)
        assert np.allclose(shifted_reaction_derivative(z, y_ref, params),
                           cubic_reaction_derivative(z + y_ref, params), rtol=1e-12, atol=1e-12)

    def test_shape_mismatch(self, params):
        with pytest.raises(ValueError):
            shifted_reaction(np.zeros(3), np.zeros(4), params)


class TestForcing:
    def test_zero_kind(self, fe16):
        assert np.all(eval_forcing(ForcingSpec.zero(), 0.3, fe16.mesh) == 0.0)

    def test_gate_closed_at_zero(self, fe16):
        h = eval_forcing(ForcingSpec.periodic_indicator(), 0.0, fe16.mesh)
        assert np.all(h == 0.0)

    def test_gate_open_values(self, fe16):
        t = math.pi / 12  # |sin(6t)| = 1
        h = eval_forcing(ForcingSpec.periodic_indicator(), t, fe16.mesh)
        nodes = fe16.mesh.nodes
        inner = np.flatnonzero((np.abs(nodes[:, 0] - 0.125) < 1e-9) & (np.abs(nodes[:, 1] - 0.125) < 1e-9))
        assert h[inner[0]] == 0.5
        outer = np.flatnonzero((nodes[:, 0] > 0.85) & (nodes[:, 1] > 0.85))
        assert np.all(h[outer] == 0.0)

    @pytest.mark.parametrize("kind", ["custom", "Periodic", ""])
    def test_unknown_kind_refused(self, kind):
        with pytest.raises(ValueError, match=rf"unknown forcing kind {kind!r}, expected 'zero' or 'periodic'"):
            ForcingSpec(kind=kind)


class TestForcingLoad:
    @pytest.mark.parametrize("spec, t", [
        (ForcingSpec.zero(), 0.3),
        (ForcingSpec.periodic_indicator(), math.pi / 12),   # gate open
        (ForcingSpec.periodic_indicator(), 0.7),            # gate open, |sin 6t| < 1
        (ForcingSpec.periodic_indicator(), 0.0),            # gate closed
        (ForcingSpec.periodic_indicator(), 0.5),            # gate closed
    ])
    def test_matches_mass_times_nodal_forcing_bitwise(self, fe16, spec, t):
        # the load of level 4 on a grid that puts level 4 at time t (level 0 for t = 0)
        n, dt = (4, t / 4) if t > 0 else (0, 1e-3)
        assert n * dt == t
        expected = fe16.mass @ eval_forcing(spec, t, fe16.mesh)
        load = ForcingLoad(spec, fe16, dt)(n)
        got = np.zeros(fe16.mesh.n_nodes) if load is None else load  # None is the zero load
        assert got.tobytes() == expected.tobytes()


class TestIntegrator:
    def test_equilibria_preserved(self, fe16, params):
        for root in (params.roots[0], params.roots[2]):
            y0 = np.full(fe16.mesh.n_nodes, root)
            rec = simulate_free(y0, 1.0, fe16, params, cfg=IntegratorConfig(dt=1e-3, state_stride=200))
            assert np.max(np.abs(rec.final_state - root)) < 1e-11

    def test_unstable_root_is_still_fixed(self, fe16, params):
        y0 = np.full(fe16.mesh.n_nodes, params.roots[1])
        rec = simulate_free(y0, 0.5, fe16, params, cfg=IntegratorConfig(dt=1e-3, state_stride=100))
        assert np.max(np.abs(rec.final_state - params.roots[1])) < 1e-10

    def test_scalar_reduction(self, fe16, params):
        y0c = 1.0
        cfg = IntegratorConfig(dt=1e-3, state_stride=1)
        rec = simulate_free(np.full(fe16.mesh.n_nodes, y0c), 1.0, fe16, params, cfg=cfg)
        oracle = scalar_cnab_trajectory(y0c, 1e-3, 1000, params)
        assert abs(rec.final_state - oracle[-1]).max() < 1e-10
        norms = np.array([l2_norm(y, fe16.mass) for y in rec.states])
        assert np.max(np.abs(norms - np.abs(oracle))) < 1e-10

    def test_scalar_reduction_with_forcing(self, fe16, params):
        # spatially constant, time-varying forcing keeps the reduction exact; the plant loop
        # takes the load of level k, M h(k dt), from any callable
        dt, n = 2e-3, 400
        hvals = np.array([math.sin(3 * (k * dt)) for k in range(n)])
        cursor = _Cursor(CrankNicolsonAB2(fe16, params, dt), np.full(fe16.mesh.n_nodes, 0.3))
        _run_plant(cursor, n, lambda k: fe16.mass @ np.full(fe16.mesh.n_nodes, hvals[k]))
        oracle = scalar_cnab_trajectory(0.3, dt, n, params, forcing_values=hvals)
        assert cursor.level == n
        assert abs(cursor.y - oracle[-1]).max() < 1e-10

    def test_bistable_split(self, fe16, params):
        cfg = IntegratorConfig(dt=1e-3, state_stride=5000)
        up = simulate_free(np.full(fe16.mesh.n_nodes, 0.01), 30.0, fe16, params, cfg=cfg)
        down = simulate_free(np.full(fe16.mesh.n_nodes, -0.01), 30.0, fe16, params, cfg=cfg)
        assert np.max(np.abs(up.final_state - 2.0)) < 1e-6
        assert np.max(np.abs(down.final_state + 1.0)) < 1e-6

    def test_blow_up_detected(self, fe16, params):
        # a huge step size makes the explicit cubic unstable
        y0 = np.full(fe16.mesh.n_nodes, 100.0)
        with pytest.raises(BlowUpError) as info:
            simulate_free(y0, 10.0, fe16, params, cfg=IntegratorConfig(dt=0.5, state_stride=1))
        assert info.value.time > 0

    def test_horizon_validation(self, fe16, params):
        with pytest.raises(ValueError):
            simulate_free(np.zeros(fe16.mesh.n_nodes), 0.00151, fe16, params,
                          cfg=IntegratorConfig(dt=1e-3))

    def test_free_run_against_a_target_initial_state(self, fe16, params):
        # the target initial state is co-simulated: every error is against the target's own free run
        cfg = IntegratorConfig(dt=1e-3, state_stride=1, cost_beta=1e-3)
        y0, yhat0 = np.full(fe16.mesh.n_nodes, 0.5), np.full(fe16.mesh.n_nodes, 2.0)
        forcing = ForcingSpec.periodic_indicator()
        free = simulate_free(y0, 0.2, fe16, params, forcing, cfg)
        target = simulate_free(yhat0, 0.2, fe16, params, forcing, cfg)
        rolled = simulate_free(y0, 0.2, fe16, params, forcing, cfg, target=yhat0)
        assert rolled.controls is None and not np.any(rolled.control_norms)
        assert free.err_norm is None and np.array_equal(rolled.states, free.states)
        assert np.array_equal(rolled.err_norm, [l2_norm(y - yhat, fe16.mass) for y, yhat in
                                                zip(free.states, target.states)])

    def test_record_layout(self, fe16, params):
        cfg = IntegratorConfig(dt=1e-3, state_stride=7)
        rec = simulate_free(np.full(fe16.mesh.n_nodes, 2.0), 0.02, fe16, params, cfg=cfg)
        assert rec.n_steps == 20
        assert rec.state_levels[0] == 0 and rec.state_levels[-1] == 20
        # the final state is the last stored level, not a second copy of it
        assert np.shares_memory(rec.final_state, rec.states)
        assert np.array_equal(rec.final_state, rec.state_at_level(20))
        assert np.all(np.diff(rec.times) > 0)
        assert rec.state_at_level(14).shape == (fe16.mesh.n_nodes,)
        with pytest.raises(KeyError):
            rec.state_at_level(13)

    def test_record_is_filled_in_place(self, fe16, params):
        # the snapshot rows are allocated once and written level by level: beyond its
        # states, a recorded run's peak memory stays well under one more states array
        # (a list of snapshots copied into the record at the end costs one)
        cfg = IntegratorConfig(dt=1e-2, state_stride=1)
        y0 = fe16.mesh.interpolate(lambda x, y: 0.5 + 0.3 * np.cos(np.pi * x))
        tracemalloc.start()
        try:
            rec = simulate_free(y0, 10.0, fe16, params, ForcingSpec.periodic_indicator(), cfg)
            extra = tracemalloc.get_traced_memory()[1] - rec.states.nbytes
        finally:
            tracemalloc.stop()
        assert rec.states.shape == (1001, fe16.mesh.n_nodes)
        assert extra < 0.25 * rec.states.nbytes

    @staticmethod
    def free_run_and_source(fe, params):
        dt = 1e-2
        forcing = ForcingSpec.periodic_indicator()
        yhat0 = fe.mesh.interpolate(lambda x, y: 1.5 - x * y)
        full = simulate_free(yhat0, 0.6, fe, params, forcing, IntegratorConfig(dt=dt, state_stride=1))
        return full.states, _TargetSource(CrankNicolsonAB2(fe, params, dt), yhat0, ForcingLoad(forcing, fe, dt))

    @pytest.mark.parametrize("requests", [
        [(n, 0) for n in range(61)],                   # lockstep, as a closed loop reads it
        [(0, 30), (10, 30), (20, 30), (30, 30)],       # overlapping windows, as the RHC reads them
        [(0, 5), (6, 10), (17, 3), (20, 0), (21, 13)],  # each request starts at the level after the last stepped
    ], ids=["lockstep", "window", "adjoining"])
    def test_rolling_target_rows_are_the_free_run(self, fe16, params, requests):
        free, source = self.free_run_and_source(fe16, params)
        for n0, n_steps in requests:
            assert np.array_equal(source.window(n0, n_steps), free[n0:n0 + n_steps + 1]), (n0, n_steps)

    @pytest.mark.parametrize("n0", [7, 20, 3], ids=["gap-of-1", "gap-of-14", "step-back"])
    def test_rolling_target_refuses_a_gap_or_a_step_back(self, fe16, params, n0):
        # after window(4, 1) the source keeps levels 4 and 5: a request may start at 4, 5 or 6
        free, source = self.free_run_and_source(fe16, params)
        source.window(0, 5)
        source.window(4, 1)
        with pytest.raises(ValueError, match=f"target level {n0} is out of order"):
            source.window(n0, 2)
        assert np.array_equal(source.window(6, 2), free[6:9])

    def test_rolling_target_rows_are_read_only(self, fe16, params):
        # an OcpProblem's target is such a window: writing to it must not change the source's rows
        free, source = self.free_run_and_source(fe16, params)
        with pytest.raises(ValueError, match="read-only"):
            source.window(0, 5)[3] = 0
        for n0, n_steps in ((3, 0), (3, 4), (5, 8)):
            rows = source.window(n0, n_steps)
            assert not rows.flags.writeable and np.array_equal(rows, free[n0:n0 + n_steps + 1])


class TestBandedSolver:
    @staticmethod
    def shifted_operators(fe, dt):
        """(M/dt + K/2, M/dt + K, M/dt - K/2), assembled as the stepper does."""
        mass, stiff = fe.mass, fe.stiffness
        return mass / dt + 0.5 * stiff, mass / dt + stiff, mass / dt - 0.5 * stiff

    def test_matches_sparse_lu_on_nonsquare_mesh(self, params, rng):
        # 12 x 7 cells: the row-major half-bandwidth nx + 2 = 14 exceeds ny + 2
        fe = build_fem(12, 7, 0.1)
        dt = 1e-3
        stepper = CrankNicolsonAB2(fe, params, dt)
        cn, euler, explicit = self.shifted_operators(fe, dt)
        for solve, a in ((stepper.solve_cn, cn), (stepper.solve_startup, euler)):
            lu = splu(a.tocsc())
            for _ in range(3):
                b = rng.normal(size=fe.mesh.n_nodes)
                x_ref = lu.solve(b)
                assert np.linalg.norm(solve(b) - x_ref) <= 1e-12 * np.linalg.norm(x_ref)
        v = rng.normal(size=fe.mesh.n_nodes)
        assert np.array_equal(stepper.apply_mass_and_cn_explicit(v)[1], explicit.tocsr() @ v)

    def test_shifted_operators_exactly_symmetric(self):
        # the adjoint applies the transposes through the forward methods
        fe = build_fem(12, 7, 0.1)
        for a in self.shifted_operators(fe, 1e-3):
            assert (a != a.T).nnz == 0

    def test_mismatched_diffusion_coefficient_refused(self, fe16):
        # the stiffness carries fe.nu, so a different params.nu would be ignored
        with pytest.raises(ValueError, match=r"params.nu = 0.2 differs from the operators' nu = 0.1"):
            CrankNicolsonAB2(fe16, SchloeglParams(nu=0.2), 1e-3)
        CrankNicolsonAB2(fe16, SchloeglParams(nu=0.1), 1e-3)

    def test_not_positive_definite_raises(self):
        indefinite = sp.csr_matrix(np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        with pytest.raises(LinAlgError):
            _BandedCholesky(indefinite)


class TestDirectMatVec:
    """``_CsrKernel`` calls scipy's compiled CSR kernels directly on operands read off the
    matrix once: it must equal ``a @ x`` bit for bit, so a scipy upgrade that changes
    those kernels fails here."""

    @staticmethod
    def operators(fe, params):
        stepper = CrankNicolsonAB2(fe, params, 1e-3)
        cm = discretize_actuators(build_actuator_grid(3, 0.33), fe.mesh)
        return {"cn_rhs": stepper._cn_rhs, "mass": stepper._mass, "mass_over_dt": stepper._mass_over_dt,
                "b": _CsrKernel(cm.b), "bt": _CsrKernel(cm.bt)}

    @pytest.mark.parametrize("nx", [12, 57])
    def test_bitwise_equal_to_the_sparse_product(self, params, rng, nx):
        fe = build_fem(nx, nx, 0.1)
        for name, kernel in self.operators(fe, params).items():
            a = kernel.matrix
            for x in (rng.normal(size=a.shape[1]), rng.normal(size=(a.shape[1], 3))[:, 1]):
                assert np.array_equal(kernel(x), a @ x), name

    def test_stepper_methods_use_it_bitwise(self, fe16, params, rng):
        stepper = CrankNicolsonAB2(fe16, params, 1e-3)
        v = rng.normal(size=fe16.mesh.n_nodes)
        assert np.array_equal(stepper.apply_mass(v), fe16.mass @ v)
        mv, cv = stepper.apply_mass_and_cn_explicit(v)
        assert np.array_equal(mv, fe16.mass @ v)
        assert np.array_equal(cv, (fe16.mass / 1e-3 - 0.5 * fe16.stiffness) @ v)

    @pytest.mark.parametrize("nx", [12, 57])
    def test_stacked_mass_and_explicit_operator_bitwise(self, params, rng, nx):
        # the adjoint applies M and M/dt - K/2 to one vector by one stacked kernel: each half
        # is bitwise the prepared kernel of its own matrix
        fe = build_fem(nx, nx, 0.1)
        stepper = CrankNicolsonAB2(fe, params, 1e-3)
        v = rng.normal(size=fe.mesh.n_nodes)
        mv, cv = stepper.apply_mass_and_cn_explicit(v)
        assert np.array_equal(mv, stepper._mass(v)) and np.array_equal(cv, stepper._cn_rhs(v))

    def test_solve_in_place_is_bitwise_the_solve_of_a_copy(self, fe16, params, rng):
        stepper = CrankNicolsonAB2(fe16, params, 1e-3)
        for solve in (stepper.solve_cn, stepper.solve_startup):
            rows = rng.normal(size=(2, fe16.mesh.n_nodes))
            x = solve(rows[1].copy())
            assert np.shares_memory(solve(rows[1], overwrite=True), rows) and np.array_equal(rows[1], x)

    def test_refuses_wrong_length_dtype_or_dimension(self, fe16, params):
        kernel = self.operators(fe16, params)["mass"]
        n = kernel.matrix.shape[1]
        for bad in (np.zeros(n - 1), np.zeros(n + 1), np.zeros(n, dtype=np.float32), np.zeros(n, dtype=np.int64),
                    np.zeros(n, dtype=complex), np.zeros((n, 1)), np.zeros((1, n)), np.float64(1.0),
                    np.array(1.0), [0.0] * n):
            with pytest.raises(ValueError, match="1-D float64 vector"):
                kernel(bad)

    def test_stepper_refuses_a_wrong_length_state(self, fe16, params):
        stepper = CrankNicolsonAB2(fe16, params, 1e-3)
        with pytest.raises(ValueError, match="1-D float64 vector"):
            stepper.startup_step(np.zeros(fe16.mesh.n_nodes - 1), None)


class TestBlockFormedLoads:
    """An open-loop run forms its actuator loads ``LOAD_BLOCK`` steps at a time with scipy's
    multi-vector product; every load is bitwise the per-step product ``b @ u[:, k]``, so a
    scipy upgrade that changes either kernel fails here."""

    @staticmethod
    def amplitudes(rng, count, n_cols, layout):
        if layout == "contiguous":
            return rng.normal(size=(count, n_cols))
        return rng.normal(size=(count, 3 * n_cols + 1))[:, 1::3]  # a strided view, as a column slice is

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    @pytest.mark.parametrize("nx", [16, 57])
    def test_columns_are_the_single_vector_products(self, params, rng, nx, layout):
        cm = discretize_actuators(build_actuator_grid(3, 0.33), build_fem(nx, nx, 0.1).mesh)
        kernel = _CsrKernel(cm.b)
        for n_cols in (1, 2, LOAD_BLOCK - 1, LOAD_BLOCK, LOAD_BLOCK + 1):
            u = self.amplitudes(rng, cm.count, n_cols, layout)
            loads = np.ascontiguousarray((cm.b @ u).T)  # the block product of the plant loop
            assert loads.shape == (n_cols, cm.b.shape[0])
            for k in range(n_cols):
                assert np.array_equal(loads[k], kernel(u[:, k]))
                assert np.array_equal(loads[k], cm.b @ u[:, k])

    @pytest.mark.parametrize("layout", ["contiguous", "strided"])
    @pytest.mark.parametrize("n_steps", [1, 2, LOAD_BLOCK - 1, LOAD_BLOCK, LOAD_BLOCK + 1])
    def test_open_loop_run_is_the_per_step_run(self, fe16, params, coupling16, rng, n_steps, layout):
        # the periodic forcing is on at some levels and off at others; the per-step
        # run goes through the closed-loop path, which forms b @ u[:, k] on each step
        stepper = CrankNicolsonAB2(fe16, params, 0.05)
        forcing = ForcingLoad(ForcingSpec.periodic_indicator(), fe16, 0.05)
        y0 = fe16.mesh.interpolate(lambda x, y: 0.5 + 0.3 * np.cos(np.pi * x))
        u = self.amplitudes(rng, coupling16.count, n_steps, layout)
        runs = []
        for control in (u, lambda k, z: u[:, k]):
            states = np.empty((n_steps + 1, len(y0)))
            rec = _Recorder(IntegratorConfig(0.05, 1, 1e-2), n_steps, len(y0), coupling16.count, track_error=False)
            _run_plant(_Cursor(stepper, y0), n_steps, forcing, coupling16.b, control, rec=rec, states=states[1:])
            runs.append((states[1:], rec.record))
        (open_states, open_rec), (step_states, step_rec) = runs
        assert np.array_equal(open_states, step_states)
        for field in ("states", "controls", "control_norms", "running_cost"):
            assert np.array_equal(getattr(open_rec, field), getattr(step_rec, field)), field


class TestCarriedReaction:
    """The cursor carries f(y) between steps: one cubic per step, and the check on every step."""

    @staticmethod
    def counted(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, _f=original: calls.append(1) or _f(*a))
        return calls

    @pytest.mark.parametrize("with_history", [False, True])
    def test_one_cubic_and_one_check_per_step(self, fe16, params, monkeypatch, with_history):
        stepper = CrankNicolsonAB2(fe16, params, 1e-2)
        y = fe16.mesh.interpolate(lambda x, y: 0.5 + 0.3 * np.cos(np.pi * x))
        cubics = self.counted(monkeypatch, dynamics, "cubic_reaction")
        checks = self.counted(monkeypatch, CrankNicolsonAB2, "check_finite")
        cursor = _Cursor(stepper, y, y - 0.01 if with_history else None, level=5)
        for _ in range(7):
            cursor.step(None)
        assert len(cubics) == 7 + with_history  # f(y_prev) once, when the cursor is built
        assert len(checks) == 7
        assert cursor.level == 12  # a cursor counts the levels of its run

    def test_steps_return_the_carried_reaction(self, fe16, params):
        stepper = CrankNicolsonAB2(fe16, params, 1e-2)
        y0 = fe16.mesh.interpolate(lambda x, y: 0.5 + 0.3 * np.cos(np.pi * y))
        y1, f0 = stepper.startup_step(y0, None)
        assert np.array_equal(f0, cubic_reaction(y0, params))
        y2, f1 = stepper.ab2_step(y1, f0, None)
        assert np.array_equal(f1, cubic_reaction(y1, params))
        mass, stiff, dt = fe16.mass, fe16.stiffness, 1e-2
        rhs = (mass / dt - 0.5 * stiff) @ y1 - mass @ (1.5 * cubic_reaction(y1, params)
                                                      - 0.5 * cubic_reaction(y0, params))
        assert np.array_equal(y2, stepper.solve_cn(rhs))


class TestBoundaryRefusals:
    """Non-finite, non-integer and negative settings are refused by name, with the value."""

    @pytest.mark.parametrize("field, value", [
        ("dt", math.inf), ("dt", math.nan), ("dt", 0.0), ("state_stride", 2.5), ("state_stride", True),
        ("state_stride", 0), ("cost_beta", -1.0), ("cost_beta", math.nan), ("cost_beta", math.inf),
    ])
    def test_integrator_config(self, field, value):
        with pytest.raises(ValueError, match=rf"{field} = {re.escape(repr(value))}"):
            IntegratorConfig(**{field: value})

    @pytest.mark.parametrize("horizon", [math.inf, -math.inf, math.nan])
    def test_non_finite_horizon(self, fe16, params, horizon):
        with pytest.raises(ValueError, match=rf"horizon must be finite, got horizon = {horizon!r}"):
            simulate_free(np.zeros(fe16.mesh.n_nodes), horizon, fe16, params)

    def test_integer_strides_of_any_integer_type_kept(self):
        assert IntegratorConfig(state_stride=np.int64(3)).state_stride == 3

    @pytest.mark.parametrize("entry", ["track_target", "simulate_free", "simulate_controlled"])
    @pytest.mark.parametrize("bad", ["short y0", "short target", "2-D target", "record as target"])
    def test_state_of_another_form_refused_before_set_up(self, fe16, params, coupling16, forks, stepper_calls,
                                                         entry, bad):
        # a target is its initial state: one float per mesh node, refused otherwise before a fork or a step
        n = fe16.mesh.n_nodes
        record = simulate_free(np.full(n, 2.0), 0.01, fe16, params, cfg=IntegratorConfig(dt=1e-3, state_stride=1))
        del stepper_calls[:]
        y0, target = np.zeros(n), np.full(n, 2.0)
        y0, target, name, got = {"short y0": (y0[1:], target, "y0", f"shape ({n - 1},)"),
                                 "short target": (y0, target[:5], "target", "shape (5,)"),
                                 "2-D target": (y0, target[None], "target", f"shape (1, {n})"),
                                 "record as target": (y0, record, "target", "TrajectoryRecord")}[bad]
        cfg = IntegratorConfig(dt=1e-3)
        runs = {
            "track_target": lambda: track_target(y0, target, FeedbackLaw(gain=1.0), coupling16, fe16, params,
                                                 cfg=cfg, horizon=0.01),
            "simulate_free": lambda: simulate_free(y0, 0.01, fe16, params, cfg=cfg, target=target),
            "simulate_controlled": lambda: simulate_controlled(y0, np.zeros((coupling16.count, 10)), coupling16, fe16,
                                                               params, integ=cfg, target_y0=target),
        }
        with pytest.raises(ValueError, match=rf"^{name} must be a state: a 1-D array of {n} floats, one per mesh "
                                             rf"node; got {re.escape(got)}$"):
            runs[entry]()
        assert not forks and not stepper_calls


def _in_process(monkeypatch):
    """From now on, lockstep targets are stepped in this process, as where no fork pays or is safe."""
    monkeypatch.setattr(dynamics, "_may_fork", lambda: False)


@pytest.mark.skipif(not dynamics._may_fork(), reason="this platform steps lockstep targets in process")
@pytest.mark.usefixtures("fork_time_limit")
class TestForkedTarget:
    """A lockstep run against a target initial state steps the target in a forked child:
    the bits of the run that steps it in process, the in-process errors, and no child left behind."""

    LAW = FeedbackLaw(gain=175.0, saturation=SaturationConfig(bound=math.exp(1.5), norm="max"))
    FORCING = ForcingSpec.periodic_indicator()
    CFG = IntegratorConfig(dt=1e-3, state_stride=7, cost_beta=1e-3)

    @pytest.mark.parametrize("run", ["track_target", "simulate_free", "simulate_controlled"])
    def test_bitwise_the_in_process_run(self, fe16, params, coupling16, run, monkeypatch, forks, stepper_calls):
        n, horizon = fe16.mesh.n_nodes, 0.3
        y0 = fe16.mesh.interpolate(lambda x, y: -1.0 + 0.5 * x * y)
        yhat0 = np.full(n, 2.0)
        steps = np.arange(300)
        controls = np.stack([np.sin(0.05 * (j + 1) * steps) for j in range(coupling16.count)])
        runs = {
            "track_target": lambda tgt: track_target(y0, tgt, self.LAW, coupling16, fe16, params, self.FORCING,
                                                     self.CFG, horizon=horizon),
            "simulate_free": lambda tgt: simulate_free(y0, horizon, fe16, params, self.FORCING, self.CFG, target=tgt),
            "simulate_controlled": lambda tgt: simulate_controlled(y0, controls, coupling16, fe16, params,
                                                                   self.FORCING, self.CFG, target_y0=tgt),
        }
        forked = runs[run](yhat0)
        assert len(forks) == 1  # the target was stepped in a child
        assert len(stepper_calls) == 300  # and not here: this process stepped the plant only
        forks.assert_reaped()
        _in_process(monkeypatch)
        in_process = runs[run](yhat0)
        assert len(forks) == 1 and len(stepper_calls) == 300 + 600  # here, plant and target
        for f in dataclasses.fields(TrajectoryRecord):
            a, b = getattr(forked, f.name), getattr(in_process, f.name)
            assert (a is None and b is None) or np.array_equal(a, b), f.name
        assert forked.err_norm[-1] > 0 and forked.n_steps == 300

    def test_target_blow_up_is_the_in_process_error(self, fe16, params, coupling16, monkeypatch, forks):
        # the constant run from 13.25 at dt = 1e-2 blows up at level 10, past the ring's rows
        assert TARGET_RING < 10
        n = fe16.mesh.n_nodes

        def run():
            track_target(np.zeros(n), np.full(n, 13.25), self.LAW, coupling16, fe16, params, self.FORCING,
                         IntegratorConfig(dt=1e-2), horizon=0.5)

        with pytest.raises(BlowUpError) as forked:
            run()
        assert len(forks) == 1
        forks.assert_reaped()
        _in_process(monkeypatch)
        with pytest.raises(BlowUpError) as in_process:
            run()
        assert forked.value.time == in_process.value.time == 10 * 1e-2
        assert str(forked.value) == str(in_process.value) == "state blew up at t = 0.1"

    def test_control_that_raises_leaves_no_child(self, fe16, params, coupling16, monkeypatch, forks):
        calls = []
        law_of = feedback.saturated_feedback

        def raising_at_step_50(z, law, coupling):
            calls.append(1)
            if len(calls) > 50:
                raise KeyError("control failed")
            return law_of(z, law, coupling)

        monkeypatch.setattr(feedback, "saturated_feedback", raising_at_step_50)
        n = fe16.mesh.n_nodes
        with pytest.raises(KeyError, match="control failed"):
            track_target(np.zeros(n), np.full(n, 2.0), self.LAW, coupling16, fe16, params, self.FORCING,
                         self.CFG, horizon=0.3)
        assert len(forks) == 1 and len(calls) == 51
        forks.assert_reaped()

    @pytest.mark.parametrize("entry, level, how", [
        ("track_target", 1, MemoryError), ("track_target", 2, MemoryError), ("track_target", 22, MemoryError),
        ("simulate_free", 22, ZeroDivisionError), ("track_target", 30, "kill")],
        ids=["raise at level 1", "raise at level 2", "raise at level 22", "simulate_free", "killed handing over level 30"])
    def test_failed_child_leaves_the_in_process_record(self, fe16, params, coupling16, monkeypatch, forks,
                                                       stepper_calls, entry, level, how):
        # the child ends before delivering `level`: the target's free run goes on here from level - 1
        assert 3 <= TARGET_RING < 22  # the fallback at level 22 reads rows the ring has reused
        n_steps = 100
        y0 = fe16.mesh.interpolate(lambda x, y: -1.0 + 0.5 * x * y)
        yhat0 = fe16.mesh.interpolate(lambda x, y: 1.5 + 0.5 * x - 0.25 * y)
        horizon = n_steps * self.CFG.dt
        run = {"track_target": lambda: track_target(y0, yhat0, self.LAW, coupling16, fe16, params, self.FORCING,
                                                    self.CFG, horizon=horizon),
               "simulate_free": lambda: simulate_free(y0, horizon, fe16, params, self.FORCING, self.CFG,
                                                      target=yhat0)}[entry]

        unfailed = run()
        assert len(forks) == 1 and len(stepper_calls) == n_steps
        hand_over = dynamics._RingWriter.__setitem__

        def failing(writer, k, y):  # the ring writer is called in the child only
            if k + 1 == level:
                if how != "kill":
                    raise how("no room for the level")
                # the row of the level is written, with NaN, then the child dies before it says so
                os.write = lambda fd, data: os.kill(os.getpid(), signal.SIGKILL)
                y = np.full_like(y, np.nan)
            hand_over(writer, k, y)

        monkeypatch.setattr(dynamics._RingWriter, "__setitem__", failing)
        failed = run()
        assert len(forks) == 2
        forks.assert_reaped()
        # this process stepped the plant and the target's levels the child did not deliver
        assert len(stepper_calls) == 2 * n_steps + n_steps - (level - 1)
        for f in dataclasses.fields(TrajectoryRecord):
            a, b = getattr(failed, f.name), getattr(unfailed, f.name)
            assert (a is None and b is None) or np.array_equal(a, b), f.name
        assert failed.err_norm[-1] > 0

    def test_failed_fork_steps_the_target_in_process(self, fe16, params, coupling16, monkeypatch):
        n = fe16.mesh.n_nodes
        y0, yhat0 = np.zeros(n), np.full(n, 2.0)

        def run():
            return track_target(y0, yhat0, self.LAW, coupling16, fe16, params, self.FORCING, self.CFG, horizon=0.1)

        forked = run()

        def no_fork():
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        descriptors = len(os.listdir("/proc/self/fd"))
        unforked = run()
        assert len(os.listdir("/proc/self/fd")) == descriptors  # the pipes made before the fork are closed
        for f in dataclasses.fields(TrajectoryRecord):
            a, b = getattr(forked, f.name), getattr(unforked, f.name)
            assert (a is None and b is None) or np.array_equal(a, b), f.name

    def test_not_forked_in_a_pool_worker_or_beside_another_thread(self):
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(dynamics._may_fork).result() is False
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert not dynamics._may_fork()
        finally:
            release.set()
            other.join()
        assert dynamics._may_fork()
