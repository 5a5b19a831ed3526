"""Window optimal-control problems, adjoint gradients, and the RHC loop."""

import errno
import hashlib
import io
import math
import os
import re
import signal
import threading
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from schloegl import (
    BlowUpError,
    FeedbackLaw,
    ForcingSpec,
    IntegratorConfig,
    OcpProblem,
    RhcConfig,
    SaturationConfig,
    SchloeglParams,
    bb_projected_gradient,
    build_actuator_grid,
    build_fem,
    control_norm,
    cubic_reaction,
    discretize_actuators,
    evaluate_cost,
    project_admissible,
    reduced_gradient,
    run_rhc,
    shifted_reaction,
    simulate_controlled,
    simulate_free,
    solve_adjoint,
    track_target,
)
from schloegl import dynamics, rhc
from schloegl.dynamics import CrankNicolsonAB2, ForcingLoad, eval_forcing
from schloegl.rhc import ADJOINT_BLOCK


def make_problem(nx=8, n_steps=20, beta=1e-3, dt=1e-2, bound=math.inf, m=2,
                 with_history=False, target_start=0.2):
    fe = build_fem(nx, nx, 0.1)
    params = SchloeglParams()
    grid = build_actuator_grid(m, 0.5)
    cm = discretize_actuators(grid, fe.mesh)
    stepper = CrankNicolsonAB2(fe, params, dt)
    tgt = np.empty((n_steps + 1, fe.mesh.n_nodes))
    tc, fc_prev = np.full(fe.mesh.n_nodes, target_start), None  # the carried reaction f(y_prev)
    tgt[0] = tc
    for k in range(n_steps):
        tc, fc_prev = (stepper.startup_step(tc, None) if fc_prev is None
                       else stepper.ab2_step(tc, fc_prev, None))
        tgt[k + 1] = tc
    y0 = fe.mesh.interpolate(lambda x, y: 0.5 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y))
    y_prev = y0 + 0.01 * fe.mesh.interpolate(lambda x, y: np.cos(np.pi * y)) if with_history else None
    prob = OcpProblem(coupling=cm, stepper=stepper, y0=y0, y_prev=y_prev, target=tgt, beta=beta,
                      saturation=SaturationConfig(bound=bound), load=ForcingLoad(ForcingSpec.zero(), fe, dt))
    return prob


def adjoint_rows(states, prob):
    """The whole multiplier array p, shape (n_steps, nodes), gathered from the sweep's blocks."""
    p = np.empty((prob.n_steps, states.shape[1]))
    for lo, block in rhc._adjoint_blocks(states, prob):
        p[lo:lo + len(block)] = block
    return p


class TestEvaluateCost:
    def test_zero_control_on_target_start(self):
        prob = make_problem()
        prob = replace(prob, y0=prob.target[0].copy(), y_prev=None)
        j, states = evaluate_cost(np.zeros((prob.coupling.count, prob.n_steps)), prob)
        assert j == 0.0
        assert np.array_equal(states, prob.target)

    def test_beta_linearity(self, rng):
        prob = make_problem(beta=1e-3)
        u = rng.normal(size=(prob.coupling.count, prob.n_steps))
        j1, _ = evaluate_cost(u, prob)
        prob = replace(prob, beta=2e-3)
        j2, _ = evaluate_cost(u, prob)
        assert j2 - j1 == pytest.approx(1e-3 * prob.dt * float(np.sum(u * u)), rel=1e-12)

    def test_against_straight_line_reimplementation(self, rng):
        # independent re-coding: dense per-step spsolve, explicit sums
        prob = make_problem(nx=8, n_steps=20)
        u = 0.4 * rng.normal(size=(prob.coupling.count, prob.n_steps))
        j, _ = evaluate_cost(u, prob)

        fe, params, dt = prob.stepper.fe, prob.stepper.params, prob.dt
        mass, stiff = fe.mass, fe.stiffness
        a_cn = (mass / dt + 0.5 * stiff).tocsc()
        a_eu = (mass / dt + stiff).tocsc()
        y = prob.y0.copy()
        y_prev = None
        err = [float((y - prob.target[0]) @ (mass @ (y - prob.target[0])))]
        for n in range(prob.n_steps):
            load = prob.coupling.b @ u[:, n]
            if y_prev is None:
                rhs = mass @ (y / dt) - mass @ cubic_reaction(y, params) + load
                y_next = spla.spsolve(a_eu, rhs)
            else:
                rhs = (mass / dt - 0.5 * stiff) @ y - mass @ (
                    1.5 * cubic_reaction(y, params) - 0.5 * cubic_reaction(y_prev, params)) + load
                y_next = spla.spsolve(a_cn, rhs)
            y_prev, y = y, y_next
            err.append(float((y - prob.target[n + 1]) @ (mass @ (y - prob.target[n + 1]))))
        j_ref = dt * (0.5 * err[0] + sum(err[1:-1]) + 0.5 * err[-1]) + prob.beta * dt * float(np.sum(u * u))
        assert j == pytest.approx(j_ref, rel=1e-12)


class TestAdjoint:
    def test_zero_error_gives_zero_adjoint(self):
        prob = make_problem(beta=0.0)
        prob = replace(prob, y0=prob.target[0].copy())
        u = np.zeros((prob.coupling.count, prob.n_steps))
        _, states = evaluate_cost(u, prob)
        assert np.max(np.abs(adjoint_rows(states, prob))) == 0.0
        g = reduced_gradient(u, solve_adjoint(states, prob), prob)
        assert np.max(np.abs(g)) == 0.0

    def test_gradient_of_another_shape_refused(self):
        prob = make_problem(n_steps=3)
        u = np.zeros((prob.coupling.count, prob.n_steps))
        with pytest.raises(ValueError, match="B\\^T p shape"):
            reduced_gradient(u, np.zeros((prob.n_steps, prob.coupling.count)), prob)

    @pytest.mark.parametrize("with_history", [False, True])
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 25])
    def test_gradient_matches_finite_differences(self, rng, with_history, n_steps):
        prob = make_problem(nx=6, n_steps=n_steps, with_history=with_history)
        u = 0.5 * rng.normal(size=(prob.coupling.count, prob.n_steps))
        _, states = evaluate_cost(u, prob)
        g = reduced_gradient(u, solve_adjoint(states, prob), prob)
        for _ in range(4):
            d = rng.normal(size=u.shape)
            d /= np.linalg.norm(d)
            eps = 1e-5
            jp, _ = evaluate_cost(u + eps * d, prob)
            jm, _ = evaluate_cost(u - eps * d, prob)
            fd = (jp - jm) / (2 * eps)
            assert float(np.sum(g * d)) == pytest.approx(fd, rel=1e-5)

    def test_gradient_vanishes_at_dense_optimum(self, rng):
        # tiny instance solved by a generic quasi-Newton method on cost
        # evaluations only; the adjoint gradient must vanish there
        from scipy.optimize import minimize

        prob = make_problem(nx=3, n_steps=4, m=1, beta=1e-2, target_start=0.4)
        shape = (prob.coupling.count, prob.n_steps)
        res = minimize(lambda v: evaluate_cost(v.reshape(shape), prob)[0],
                       np.zeros(np.prod(shape)), method="BFGS",
                       options={"gtol": 1e-12, "maxiter": 500})
        u_star = res.x.reshape(shape)
        _, states = evaluate_cost(u_star, prob)
        g = reduced_gradient(u_star, solve_adjoint(states, prob), prob)
        assert np.max(np.abs(g)) < 1e-8

        out = bb_projected_gradient(prob, u_star, tol=1e-4)
        assert out.iterations <= 2
        assert np.allclose(out.u, u_star, atol=1e-7)


class TestOcpProblemShapes:
    """Mis-shaped window data is refused when the problem is built, before a step reads it."""

    def test_load_source_for_another_mesh_or_step_size_refused(self):
        prob = make_problem(n_steps=3)
        spec, fe, dt = ForcingSpec.periodic_indicator(), prob.stepper.fe, prob.dt
        assert replace(prob, load=ForcingLoad(spec, fe, dt), n0=7).n0 == 7
        for load in (ForcingLoad(spec, build_fem(6, 6, 0.1), dt), ForcingLoad(spec, fe, 2 * dt)):
            with pytest.raises(ValueError, match="load source is built for another mesh or step size"):
                replace(prob, load=load)

    def test_fields_are_frozen(self):
        prob = make_problem(n_steps=3)
        for f in fields(prob):
            with pytest.raises(FrozenInstanceError):
                setattr(prob, f.name, getattr(prob, f.name))

    @pytest.mark.parametrize("field", ["y0", "y_prev"])
    def test_state_of_the_wrong_length_refused(self, field):
        prob = make_problem(n_steps=3, with_history=True)
        with pytest.raises(ValueError, match=f"{field}: shape"):
            replace(prob, **{field: getattr(prob, field)[:-1]})

    def test_target_rows_and_coupling_on_another_mesh_refused(self):
        prob = make_problem(n_steps=3)
        with pytest.raises(ValueError, match="target rows: shape"):
            replace(prob, target=prob.target[:, :-1])
        other = discretize_actuators(build_actuator_grid(2, 0.5), build_fem(6, 6, 0.1).mesh)
        with pytest.raises(ValueError, match="coupling rows: shape"):
            replace(prob, coupling=other)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -1e-3])
    def test_non_finite_or_negative_cost_weight_refused(self, beta):
        prob = make_problem(n_steps=3)
        with pytest.raises(ValueError, match=rf"cost weight must be finite and >= 0, got beta = {beta!r}"):
            replace(prob, beta=beta)


class TestBitwiseOracles:
    """The carried reaction, the direct mat-vecs and the blocked adjoint keep every bit of
    the plain level-by-level recurrences kept here as references."""

    @staticmethod
    def reference_states(u, prob):
        """Forward window that recomputes both reactions on every AB2 step, operators applied with ``@``;
        step k reads the load of run level n0 + k."""
        stepper, n, dt = prob.stepper, prob.n_steps, prob.dt
        mass, params = stepper.fe.mass, stepper.params
        cn_rhs = (mass / dt - 0.5 * stepper.fe.stiffness).tocsr()
        mass_over_dt = (mass / dt).tocsr()
        states = np.empty((n + 1, len(prob.y0)))
        states[0] = y = prob.y0
        y_prev = prob.y_prev
        for k in range(n):
            bu = prob.coupling.b @ u[:, k]
            forcing = prob.load(prob.n0 + k)
            load = bu if forcing is None else forcing + bu
            if y_prev is None:
                rhs = mass_over_dt @ y - mass @ cubic_reaction(y, params)
                y_next = stepper.solve_startup(rhs + load)
            else:
                rhs = cn_rhs @ y - mass @ (1.5 * cubic_reaction(y, params) - 0.5 * cubic_reaction(y_prev, params))
                y_next = stepper.solve_cn(rhs + load)
            y_prev, y = y, y_next
            states[k + 1] = y
        return states

    @staticmethod
    def reference_adjoint(states, prob):
        """Backward sweep forming M z, its source and f' one level at a time."""
        n, stepper = prob.n_steps, prob.stepper
        mass = stepper.fe.mass
        cn_rhs = (mass / prob.dt - 0.5 * stepper.fe.stiffness).tocsr()
        z1, z2, z3 = stepper.params.roots
        tau = prob.trapezoid_weights()
        z = states - prob.target
        p = np.empty((n, states.shape[1]))
        mp_ahead = None
        for m in range(n, 0, -1):
            rhs = 2.0 * tau[m] * (mass @ z[m])
            if m <= n - 1:
                w = states[m]
                fprime = (w - z2) * (w - z3) + (w - z1) * (w - z3) + (w - z1) * (w - z2)
                mp = mass @ p[m]
                rhs += cn_rhs @ p[m] - 1.5 * fprime * mp
                if m <= n - 2:
                    rhs += 0.5 * fprime * mp_ahead
                mp_ahead = mp
            solve = stepper.solve_startup if (prob.y_prev is None and m == 1) else stepper.solve_cn
            p[m - 1] = solve(rhs)
        return p

    class TwoInThreeLoad(ForcingLoad):
        """The indicator forcing's load on the levels n with n % 3 != 0, zero on the others."""

        def __call__(self, n):
            return self._base if n % 3 else None

    @classmethod
    def forced_problem(cls, n_steps, with_history):
        # a window with AB2 history opens at level 1
        dt = 1e-3
        prob = make_problem(nx=8, n_steps=n_steps, dt=dt, m=3, with_history=with_history)
        load = cls.TwoInThreeLoad(ForcingSpec.periodic_indicator(), prob.stepper.fe, dt)
        return replace(prob, load=load, n0=int(with_history))

    @pytest.mark.parametrize("with_history", [False, True])
    @pytest.mark.parametrize("n_steps", [1, 2, 3, ADJOINT_BLOCK - 1, ADJOINT_BLOCK, ADJOINT_BLOCK + 1, 750])
    def test_states_and_adjoints_bitwise(self, rng, n_steps, with_history):
        prob = self.forced_problem(n_steps, with_history)
        u = 0.5 * rng.normal(size=(prob.coupling.count, n_steps))
        _, states = evaluate_cost(u, prob)
        assert np.array_equal(states, self.reference_states(u, prob))
        p = self.reference_adjoint(states, prob)
        assert np.array_equal(adjoint_rows(states, prob), p)
        btp = solve_adjoint(states, prob)
        assert np.array_equal(btp, prob.coupling.b.T @ p.T)
        assert np.array_equal(reduced_gradient(u, btp, prob),
                              2.0 * prob.beta * prob.dt * u + (prob.coupling.b.T @ p.T))

    @staticmethod
    def reference_squared_errors(states, prob):
        """|y_n - target_n|_M^2 from whole-window arrays: z, its M z rows, and their row sums."""
        z = states - prob.target
        mz = (prob.stepper.fe.mass @ z.T).T
        return np.einsum("ij,ij->i", z, mz)

    @pytest.mark.parametrize("with_history", [False, True])
    @pytest.mark.parametrize("n_steps", [1, 2, ADJOINT_BLOCK - 1, ADJOINT_BLOCK, ADJOINT_BLOCK + 1,
                                         2 * ADJOINT_BLOCK - 1, 2 * ADJOINT_BLOCK, 2 * ADJOINT_BLOCK + 1, 750])
    def test_blocked_cost_is_the_whole_window_cost_bitwise(self, rng, n_steps, with_history):
        # n_steps + 1 levels: 32 and 64 steps leave a one-level remainder, which joins the block before it
        prob = self.forced_problem(n_steps, with_history)
        u = 0.5 * rng.normal(size=(prob.coupling.count, n_steps))
        cost, states = evaluate_cost(u, prob)
        assert np.array_equal(states, self.reference_states(u, prob))
        err_sq = self.reference_squared_errors(states, prob)
        assert np.array_equal(rhc._squared_errors(states, prob), err_sq)
        assert cost == float(prob.trapezoid_weights() @ err_sq) + prob.beta * prob.dt * float(np.sum(u * u))

    def test_cost_scratch_memory_does_not_grow_with_the_window(self):
        # the window cost is formed a block of levels at a time: beyond its states, the
        # forward window over 750 levels needs no more memory than one over 4 blocks
        scratch = {}
        for n_steps in (4 * ADJOINT_BLOCK, 750):
            prob = self.forced_problem(n_steps, with_history=False)
            u = np.zeros((prob.coupling.count, n_steps))
            tracemalloc.start()
            try:
                _, states = evaluate_cost(u, prob)
                scratch[n_steps] = tracemalloc.get_traced_memory()[1] - states.nbytes
            finally:
                tracemalloc.stop()
        assert scratch[750] < 1.25 * scratch[4 * ADJOINT_BLOCK]

    def test_adjoint_scratch_memory_does_not_grow_with_the_window(self):
        # p is formed and reduced to B^T p a block at a time: the whole sweep over 750 levels,
        # its (count, n_steps) output included, needs no more memory than one over 4 blocks
        # (on a mesh whose block of levels outweighs the output's growth)
        peak = {}
        for n_steps in (4 * ADJOINT_BLOCK, 750):
            prob = make_problem(nx=16, n_steps=n_steps, dt=1e-3, m=3)
            _, states = evaluate_cost(np.zeros((prob.coupling.count, n_steps)), prob)
            tracemalloc.start()
            try:
                solve_adjoint(states, prob)
                peak[n_steps] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak[750] < 1.25 * peak[4 * ADJOINT_BLOCK]

    def test_window_solve_holds_one_window_of_states(self):
        # beside the target rows, allocated before tracing starts, a solve over 750 levels holds
        # one window of states at a time, the line search's trials and its adjoint sweeps included
        prob = make_problem(nx=16, n_steps=750, dt=1e-3)
        u_init = np.zeros((prob.coupling.count, prob.n_steps))
        window_bytes = prob.target.nbytes  # the nbytes of a window's states
        tracemalloc.start()
        try:
            out = bb_projected_gradient(prob, u_init, j_max=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.n_evaluations > out.iterations >= 2  # line-search trials and accepted steps were both made
        assert peak < 1.5 * window_bytes


class TestProjectAdmissible:
    def test_identity_when_feasible(self, rng):
        u = rng.normal(size=(3, 7))
        sat = SaturationConfig(bound=1e3)
        assert np.array_equal(project_admissible(u, sat), u)

    def test_single_infeasible_column(self):
        u = np.array([[6.0, 1.0], [8.0, 1.0]])
        out = project_admissible(u, SaturationConfig(bound=5.0))
        assert np.allclose(out[:, 0], [3.0, 4.0])
        assert np.array_equal(out[:, 1], u[:, 1])

    def test_idempotent_bitwise(self, rng):
        u = 10 * rng.normal(size=(4, 9))
        sat = SaturationConfig(bound=2.5)
        once = project_admissible(u, sat)
        twice = project_admissible(once, sat)
        assert np.array_equal(once, twice)

    def test_extreme_inputs_terminate_feasibly(self):
        u = np.array([[1e308, 3.0, -1.7e308], [-1.7e308, 4.0, 1e-300]])
        for bound in (5e-324, 1.0, 1e308):
            for norm in ("euclidean", "max"):
                sat = SaturationConfig(bound=bound, norm=norm)
                with np.errstate(over="ignore"):
                    once = project_admissible(u, sat)
                    assert np.array_equal(project_admissible(once, sat), once)
                assert all(control_norm(col, norm) <= bound for col in once.T)

    def test_underflowing_squares_settle_on_the_sphere(self):
        u = np.array([[6.643061751921988e40, 1.0]])
        sat = SaturationConfig(bound=1.8193942323567405e-161)
        once = project_admissible(u, sat)
        assert np.all(once > 0.0)
        assert all(control_norm(col) <= sat.bound for col in once.T)
        assert all(control_norm(col) == pytest.approx(sat.bound, rel=1e-15) for col in once.T)
        assert np.array_equal(project_admissible(once, sat), once)


class TestBBSolver:
    def test_cost_never_exceeds_initial(self, rng):
        prob = make_problem(nx=6, n_steps=15, bound=2.0)
        u0 = project_admissible(rng.normal(size=(prob.coupling.count, prob.n_steps)), prob.saturation)
        j0, _ = evaluate_cost(u0, prob)
        out = bb_projected_gradient(prob, u0, tol=1e-6, j_max=50)
        assert out.cost <= j0 + 1e-12
        norms = np.sqrt(np.sum(out.u ** 2, axis=0))
        assert np.all(norms <= 2.0 + 1e-12)

    def test_improves_on_saturated_feedback(self):
        from schloegl.rhc import saturated_control_on_window

        prob = make_problem(nx=8, n_steps=30, bound=math.exp(1.0), target_start=2.0)
        prob = replace(prob, y0=np.full(prob.stepper.fe.mesh.n_nodes, -1.0))
        u0 = saturated_control_on_window(prob, 175.0)
        j0, _ = evaluate_cost(u0, prob)
        out = bb_projected_gradient(prob, u0, tol=1e-5, j_max=100)
        assert out.cost < j0

    def test_pinned_max_norm_window_solve(self):
        # a window with AB2 history across three adjoint blocks, whose line search rejects most
        # trials; the outcome is pinned bit for bit (recorded with numpy 2.4, scipy 1.17, OpenBLAS)
        from schloegl.rhc import saturated_control_on_window

        bound = math.exp(1.0)
        prob = make_problem(nx=6, n_steps=70, bound=bound, target_start=2.0, with_history=True)
        prob = replace(prob, saturation=SaturationConfig(bound=bound, norm="max"),
                       y0=np.full(prob.stepper.fe.mesh.n_nodes, -1.0))
        out = bb_projected_gradient(prob, saturated_control_on_window(prob, 175.0), tol=1e-6, j_max=40)
        assert (repr(out.cost), out.iterations, out.n_evaluations, out.message) == (
            "5.7319061475188535", 7, 97, "step below tolerance")
        assert hashlib.sha256(out.u.tobytes()).hexdigest() == (
            "5ee41be132ed67a6378b960d5d6c36f2c87534e8475e150e0985950913f90331")

    def test_warm_start_of_a_later_window_reads_its_own_target_rows(self):
        # without forcing, a window opening at level 7 has the control of one opening at 0
        from schloegl.rhc import saturated_control_on_window

        prob = make_problem(nx=6, n_steps=10, target_start=2.0)
        assert np.array_equal(saturated_control_on_window(replace(prob, n0=7), 175.0),
                              saturated_control_on_window(prob, 175.0))

    @staticmethod
    def constant_tracking_problem(dt, c):
        # y0 = target = c everywhere, no bound, a tiny control weight
        prob = make_problem(nx=8, n_steps=20, beta=1e-5, dt=dt, m=2)
        return replace(prob, target=np.full_like(prob.target, c), y0=np.full_like(prob.y0, c))

    def test_blown_up_trial_is_rejected(self):
        # from the finite zero control, the first BB trial blows up the
        # forward solve; the line search must backtrack instead of raising
        prob = self.constant_tracking_problem(dt=0.05, c=3.0)
        u0 = np.zeros((prob.coupling.count, prob.n_steps))
        j0, _ = evaluate_cost(u0, prob)
        assert math.isfinite(j0)
        out = bb_projected_gradient(prob, u0)
        assert math.isfinite(out.cost) and out.cost <= j0
        assert out.cost == evaluate_cost(out.u, prob)[0]

    def test_blown_up_initial_iterate_raises(self):
        prob = self.constant_tracking_problem(dt=0.1, c=5.0)
        with pytest.raises(BlowUpError), np.errstate(over="ignore", invalid="ignore"):
            bb_projected_gradient(prob, np.zeros((prob.coupling.count, prob.n_steps)))

    def test_warm_start_checks_for_blow_up(self):
        prob = make_problem(nx=6, n_steps=20, dt=0.1)
        prob = replace(prob, y0=np.full(prob.stepper.fe.mesh.n_nodes, 100.0))
        from schloegl.rhc import saturated_control_on_window

        with pytest.raises(BlowUpError), np.errstate(over="ignore", invalid="ignore"):
            saturated_control_on_window(prob, 175.0)


CORE_FREE = dynamics._core_free  # TestTrialLane patches it


def backtracking_window():
    """A 6 x 6 max-norm window with AB2 history, whose line search rejects most trials, and its warm start."""
    from schloegl.rhc import saturated_control_on_window

    bound = math.exp(1.0)
    prob = make_problem(nx=6, n_steps=70, bound=bound, target_start=2.0, with_history=True)
    prob = replace(prob, saturation=SaturationConfig(bound=bound, norm="max"),
                   y0=np.full(prob.stepper.fe.mesh.n_nodes, -1.0))
    return prob, saturated_control_on_window(prob, 175.0)


def assert_same_outcome(a, b):
    """Every field of two :class:`OptimizeResult` but the timers is equal, the iterate bitwise."""
    for f in fields(a):
        if not f.name.endswith("_s"):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y, f.name


def solve_with_and_without_lane(monkeypatch, prob, u_init, **knobs):
    """The solve with ``dynamics._may_fork`` forced on, then forced off."""
    out = []
    for lane in (True, False):
        monkeypatch.setattr(dynamics, "_may_fork", lambda lane=lane: lane)
        out.append(bb_projected_gradient(prob, u_init, **knobs))
    return out


def _forks_of_a_backtracking_solve() -> int:
    """The children forked by a backtracking window solve, made in a process of its own (a pool worker)."""
    forked = []
    os.register_at_fork(after_in_parent=lambda: forked.append(1))
    bb_projected_gradient(*backtracking_window(), tol=1e-6, j_max=3)
    return len(forked)


@pytest.mark.skipif(not dynamics._may_fork(), reason="this platform evaluates every trial in process")
@pytest.mark.usefixtures("fork_time_limit")
class TestTrialLane:
    """Once the first trial of an iteration is rejected, trials are evaluated two at a time, the
    second in a forked child: the serial search's outcome bit for bit, its errors, no child left."""

    @pytest.fixture(autouse=True)
    def free_core(self, monkeypatch):
        """A core counts as free for the lane, whatever else runs on the host meanwhile."""
        monkeypatch.setattr(dynamics, "_core_free", lambda child: True)

    def test_bitwise_the_serial_search(self, monkeypatch, forks):
        prob, u0 = backtracking_window()
        laned, serial = solve_with_and_without_lane(monkeypatch, prob, u0, tol=1e-6, j_max=40)
        assert len(forks) == 1  # one lane for the solve, forked at its first paired round
        forks.assert_reaped()
        assert serial.n_evaluations > 2 * serial.iterations  # most trials were rejected
        assert_same_outcome(laned, serial)

    @pytest.mark.parametrize("trials", [3, 4])
    def test_trial_cap_as_in_the_serial_search(self, monkeypatch, forks, trials):
        # 3: a paired round ends the search; 4: a last trial runs alone
        monkeypatch.setattr(rhc, "LINE_SEARCH_TRIALS", trials)
        laned, serial = solve_with_and_without_lane(monkeypatch, *backtracking_window(), tol=1e-6, j_max=40)
        assert serial.message == "line search failed" and len(forks) == 1
        forks.assert_reaped()
        assert_same_outcome(laned, serial)

    @pytest.mark.parametrize("scale, stationary_in", [(1.0, "lane"), (2.0, "parent")])
    def test_stationary_point_as_in_the_serial_search(self, monkeypatch, forks, scale, stationary_in):
        # with a huge Armijo slope every trial that moves u is rejected, until a step no longer moves it;
        # that trial is the second of a round (the lane's, then not handed over) or the first
        monkeypatch.setattr(rhc, "ARMIJO_SLOPE", 1e300)
        prob = make_problem(nx=6, n_steps=10)
        u0 = np.full((prob.coupling.count, prob.n_steps), scale)
        laned, serial = solve_with_and_without_lane(monkeypatch, prob, u0, j_max=3)
        assert (serial.message, serial.iterations) == ("stationary point", 1)
        stationary_trial = serial.n_evaluations - 1  # trials 0, 1, ... were evaluated before it
        assert {0: "lane", 1: "parent"}[stationary_trial % 2] == stationary_in
        assert len(forks) == 1
        forks.assert_reaped()
        assert_same_outcome(laned, serial)

    def test_blown_up_trial_in_the_lane_as_in_process(self, monkeypatch, forks):
        # with a slow backtrack, several trials in a row blow up, some of them in the lane
        monkeypatch.setattr(rhc, "BACKTRACK_FACTOR", 0.8)
        prob = TestBBSolver.constant_tracking_problem(dt=0.05, c=3.0)
        evaluate, blow_ups = rhc.evaluate_cost, []

        def counted(u, p):
            try:
                return evaluate(u, p)
            except BlowUpError:
                blow_ups.append(dynamics._may_fork())  # a child appends to its own copy
                raise

        monkeypatch.setattr(rhc, "evaluate_cost", counted)
        laned, serial = solve_with_and_without_lane(monkeypatch, prob, np.zeros((prob.coupling.count, prob.n_steps)),
                                                    j_max=5)
        assert len(forks) == 1
        forks.assert_reaped()
        assert_same_outcome(laned, serial)
        assert math.isfinite(serial.cost)
        assert 0 < blow_ups.count(True) < blow_ups.count(False)  # the lane's blow-ups are not seen here

    @staticmethod
    def parent_calls(monkeypatch):
        """The amplitudes of every trial this process costs, and the adjoint sweeps it runs, from now on."""
        evaluate, adjoint, parent, calls = rhc.evaluate_cost, rhc.solve_adjoint, os.getpid(), []

        def evaluated(u, p):
            if os.getpid() == parent:
                calls.append(u.tobytes())
            return evaluate(u, p)

        def swept(states, p):
            if os.getpid() == parent:
                calls.append("adjoint")
            return adjoint(states, p)

        monkeypatch.setattr(rhc, "evaluate_cost", evaluated)
        monkeypatch.setattr(rhc, "solve_adjoint", swept)
        return calls

    def test_gradient_of_a_lane_trial_is_the_in_process_adjoint(self, monkeypatch, forks):
        prob, u0 = backtracking_window()
        u = project_admissible(u0 + 0.5, prob.saturation)
        cost, states = evaluate_cost(u, prob)
        calls = self.parent_calls(monkeypatch)
        with rhc._TrialLane(prob) as lane:
            assert lane.cost(u0, lambda: u) == evaluate_cost(u0, prob)[0]  # u0 costed here, u handed over
            assert lane.cost(u, lambda: pytest.fail("a trial handed over is not costed here")) == cost
            assert np.array_equal(lane.gradient(u), solve_adjoint(states, prob))
        assert calls == [u0.tobytes()]  # u's cost and B^T p came from the child
        assert len(forks) == 1
        forks.assert_reaped()

    def test_trial_held_when_the_parents_trial_is_accepted_is_dropped(self, monkeypatch, forks):
        # u1 is handed over while u0 is costed here; u0 is accepted, so u1's answer is never returned
        prob, u0 = backtracking_window()
        u1, u2, u3, u4 = (project_admissible(u0 + s, prob.saturation) for s in (0.5, 0.25, 0.125, 1.0))
        c0, c1, c2, c3, c4 = (evaluate_cost(u, prob)[0] for u in (u0, u1, u2, u3, u4))
        assert len({c0, c1, c2, c3, c4}) == 5
        btp0 = solve_adjoint(evaluate_cost(u0, prob)[1], prob)
        calls = self.parent_calls(monkeypatch)
        with rhc._TrialLane(prob) as lane:
            assert lane.cost(u0, lambda: u1) == c0
            assert np.array_equal(lane.gradient(u0), btp0)
            assert lane.cost(u2, lambda: None) == c2  # the next iteration's first trial, costed here
            assert lane.cost(u3, lambda: u4) == c3  # u1's answer is read before u4 is handed over
            assert lane.cost(u4, lambda: None) == c4
        assert calls == [u0.tobytes(), "adjoint", u2.tobytes(), u3.tobytes()]
        assert len(forks) == 1
        forks.assert_reaped()

    def test_hand_overs_of_the_backtracking_window(self, monkeypatch, forks):
        # the traffic of the pinned solve: a lane that stops handing trials over fails here
        requests, ask = [], rhc._TrialLane._ask
        monkeypatch.setattr(rhc._TrialLane, "_ask",
                            lambda lane, request: requests.append(request) or ask(lane, request))
        out = bb_projected_gradient(*backtracking_window(), tol=1e-6, j_max=40)
        assert (out.iterations, out.n_evaluations) == (7, 97)
        assert (requests.count(b"u"), requests.count(b"g"), len(requests)) == (46, 3, 49)
        assert len(forks) == 1
        forks.assert_reaped()

    @pytest.mark.parametrize("fails_in", ["every trial", "a trial not needed", "the adjoint", "a kill",
                                          "a kill while idle"])
    def test_failed_child_leaves_the_rest_to_the_serial_search(self, monkeypatch, forks, fails_in):
        # the lane gives up once, and a trial it held that the search needs is evaluated in process
        prob, u0 = backtracking_window()
        evaluate, adjoint, parent = rhc.evaluate_cost, rhc.solve_adjoint, os.getpid()
        needed = set()  # the amplitudes of every trial the serial search evaluates

        def recorded(u, p):
            needed.add(u.tobytes())
            return evaluate(u, p)

        monkeypatch.setattr(rhc, "evaluate_cost", recorded)
        monkeypatch.setattr(dynamics, "_may_fork", lambda: False)
        serial = bb_projected_gradient(prob, u0, tol=1e-6, j_max=40)

        def fail(in_child):
            if in_child and os.getpid() != parent:
                if fails_in == "a kill":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise MemoryError("no room for the trial's window")

        def failing_evaluate(u, p):
            fail(fails_in in ("every trial", "a kill") or (fails_in == "a trial not needed" and u.tobytes() not in needed))
            return evaluate(u, p)

        def failing_adjoint(states, p):
            fail(fails_in == "the adjoint")
            return adjoint(states, p)

        give_ups, give_up, ask = [], rhc._TrialLane._give_up, rhc._TrialLane._ask
        monkeypatch.setattr(rhc._TrialLane, "_give_up", lambda lane: give_ups.append(1) or give_up(lane))

        def killed_before_the_adjoint(lane, request):
            # the child answered its accepted trial and waits; it dies before the parent asks for B^T p
            if fails_in == "a kill while idle" and request == b"g":
                os.kill(lane._child.pid, signal.SIGKILL)
                os.waitid(os.P_PID, lane._child.pid, os.WEXITED | os.WNOWAIT)  # dead, not yet reaped
            return ask(lane, request)

        monkeypatch.setattr(rhc._TrialLane, "_ask", killed_before_the_adjoint)
        monkeypatch.setattr(rhc, "evaluate_cost", failing_evaluate)
        monkeypatch.setattr(rhc, "solve_adjoint", failing_adjoint)
        monkeypatch.setattr(dynamics, "_may_fork", lambda: True)
        laned = bb_projected_gradient(prob, u0, tol=1e-6, j_max=40)
        assert len(give_ups) == 1 and len(forks) == 1  # no second child after the failure
        forks.assert_reaped()
        assert_same_outcome(laned, serial)

    def test_no_child_left_after_a_return_or_a_raise(self, monkeypatch, forks):
        prob, u0 = backtracking_window()
        bb_projected_gradient(prob, u0, tol=1e-6, j_max=40)
        assert len(forks) == 1
        evaluate, parent = rhc.evaluate_cost, os.getpid()

        def raising_beside_an_open_trial(u, p):
            # the parent's first trial after the second fork: the lane's trial is then open
            if len(forks) == 2 and os.getpid() == parent:
                raise KeyError("forward failed")
            return evaluate(u, p)

        monkeypatch.setattr(rhc, "evaluate_cost", raising_beside_an_open_trial)
        with pytest.raises(KeyError, match="forward failed"):
            bb_projected_gradient(prob, u0, tol=1e-6, j_max=40)
        assert len(forks) == 2
        forks.assert_reaped()

    def test_failed_fork_runs_the_search_serially(self, monkeypatch):
        prob, u0 = backtracking_window()
        laned = bb_projected_gradient(prob, u0, tol=1e-6, j_max=40)
        attempts = []

        def no_fork():
            attempts.append(1)
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        descriptors = len(os.listdir("/proc/self/fd"))
        serial = bb_projected_gradient(prob, u0, tol=1e-6, j_max=40)
        assert len(os.listdir("/proc/self/fd")) == descriptors  # the pipes made before the fork are closed
        assert len(attempts) == 1  # after a failed fork the solve does not try again
        assert_same_outcome(laned, serial)

    @pytest.mark.parametrize("free", [(False,), (True, False), (False, False, True)],
                             ids=["never", "every other check", "every third check"])
    def test_no_hand_over_while_no_core_is_free(self, monkeypatch, forks, free):
        checks = []

        def core_free(child):
            checks.append(free[len(checks) % len(free)])
            return checks[-1]

        prob, u0 = backtracking_window()
        monkeypatch.setattr(dynamics, "_core_free", core_free)
        laned, serial = solve_with_and_without_lane(monkeypatch, prob, u0, tol=1e-6, j_max=40)
        assert False in checks and len(forks) == int(True in free)  # the child is forked at the first hand-over
        forks.assert_reaped()
        assert_same_outcome(laned, serial)

    @pytest.mark.parametrize("loadavg, cores, child_state, free", [
        (b"0.52 0.61 0.70 1/85 9440\n", 2, None, True), (b"1.52 1.61 1.70 2/85 9440\n", 2, None, False),
        (b"2.01 2.10 2.20 3/90 9500\n", 4, None, True), (b"3.01 3.10 3.20 4/90 9500\n", 4, None, False),
        (b"0.52 0.61 0.70 2/89 9440\n", 2, b"R", True), (b"1.52 1.61 1.70 3/89 9440\n", 2, b"R", False),
        (b"1.52 1.61 1.70 2/89 9440\n", 2, b"S", False), (b"1.52 1.61 1.70 2/89 9440\n", 2, b"", False),
        (b"", 2, None, True), (None, 2, None, True), (None, 2, b"R", True)],
        ids=["alone", "beside one", "4 cores", "4 cores full", "beside its runnable child",
             "beside its runnable child and one", "beside its sleeping child and one",
             "beside one and a child that cannot be read", "empty", "no file", "no file beside a child"])
    def test_core_free_counts_the_runnable_tasks(self, monkeypatch, loadavg, cores, child_state, free):
        """The lane's waiting child is left out only while it reads runnable: the host counts it then."""
        child = None if child_state is None else SimpleNamespace(pid=4242)
        reads = []

        def fake_open(path, mode):
            reads.append(path)
            if path == "/proc/loadavg" and loadavg is not None:
                return io.BytesIO(loadavg)
            if path == "/proc/4242/stat" and child_state:
                return io.BytesIO(b"4242 (py (lane) x) " + child_state + b" 1 4241 4241 0 -1\n")
            raise FileNotFoundError(path)

        monkeypatch.setattr(dynamics, "open", fake_open, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)))
        assert CORE_FREE(child) is free
        assert reads[0] == "/proc/loadavg"  # the host's count first, the child's state after it

    @pytest.mark.skipif(not os.path.exists(f"/proc/{os.getpid()}/stat"), reason="no /proc")
    def test_a_child_waiting_for_work_reads_asleep(self):
        assert dynamics._runnable(os.getpid())  # this process runs while it reads its own state
        child = dynamics._Child(lambda recv, send: os.read(recv, 1))
        try:
            deadline = time.monotonic() + 10.0
            while dynamics._runnable(child.pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            assert not dynamics._runnable(child.pid)
        finally:
            child.reap()

    def test_no_lane_in_a_pool_worker_or_beside_another_thread(self, forks):
        with ProcessPoolExecutor(max_workers=1) as pool:
            assert pool.submit(_forks_of_a_backtracking_solve).result() == 0
        forked_by_the_pool = len(forks)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            bb_projected_gradient(*backtracking_window(), tol=1e-6, j_max=3)
        finally:
            release.set()
            other.join()
        assert len(forks) == forked_by_the_pool
        bb_projected_gradient(*backtracking_window(), tol=1e-6, j_max=3)
        assert len(forks) == forked_by_the_pool + 1  # here, alone, the lane forks
        forks.assert_reaped()


class TestRunRhc:
    # the warm-start gain and the unbounded admissible set of every run below
    LAW = FeedbackLaw(gain=175.0)

    def setup_case(self, fe, params):
        grid = build_actuator_grid(3, 0.5)
        cm = discretize_actuators(grid, fe.mesh)
        return cm

    def test_zero_initial_error(self, fe16, params):
        cm = self.setup_case(fe16, params)
        y0 = np.full(fe16.mesh.n_nodes, 2.0)
        cfg = RhcConfig(horizon=0.3, delta=0.1, t_final=0.4)
        res = run_rhc(cfg, y0, y0.copy(), self.LAW, cm, fe16, params,
                      integ=IntegratorConfig(dt=1e-2, state_stride=10, cost_beta=1e-3))
        assert res.record.running_cost[-1] <= 1e-10
        assert np.max(np.abs(res.record.controls)) <= 1e-6

    def test_window_grid_validation(self, fe16, params):
        cm = self.setup_case(fe16, params)
        y0 = np.zeros(fe16.mesh.n_nodes)
        with pytest.raises(ValueError):
            run_rhc(RhcConfig(horizon=0.3, delta=0.1, t_final=0.35), y0, y0, self.LAW, cm, fe16, params,
                    integ=IntegratorConfig(dt=1e-2, cost_beta=1e-3))
        with pytest.raises(ValueError):
            RhcConfig(horizon=0.1, delta=0.2, t_final=1.0)

    @pytest.mark.parametrize("field", ["horizon", "delta", "t_final"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_times_refused(self, field, value):
        kwargs = dict(horizon=0.3, delta=0.1, t_final=0.4)
        with pytest.raises(ValueError, match="finite"):
            RhcConfig(**dict(kwargs, **{field: value}))

    @pytest.mark.parametrize("field, value", [("tol", math.nan), ("tol", -1.0), ("tol", math.inf), ("j_max", 0),
                                              ("j_max", -3), ("j_max", 2.5), ("j_max", True)])
    def test_solver_knob_refused(self, field, value):
        match = re.escape(f"{field} = {value!r}")
        with pytest.raises(ValueError, match=match):
            RhcConfig(**dict(horizon=0.3, delta=0.1, t_final=0.4), **{field: value})
        prob = make_problem(nx=4, n_steps=5)
        with pytest.raises(ValueError, match=match):
            bb_projected_gradient(prob, np.zeros((prob.coupling.count, prob.n_steps)), **{field: value})

    def test_bitwise_replay_and_ordering(self, fe16, params):
        cm = self.setup_case(fe16, params)
        forcing = ForcingSpec.periodic_indicator()
        sat = SaturationConfig(bound=math.exp(2.0))
        y0 = np.full(fe16.mesh.n_nodes, -1.0)
        yhat0 = np.full(fe16.mesh.n_nodes, 2.0)
        integ = IntegratorConfig(dt=5e-3, state_stride=20, cost_beta=1e-3)
        cfg = RhcConfig(horizon=0.5, delta=0.25, t_final=1.0, tol=1e-3)
        law = FeedbackLaw(gain=175.0, saturation=sat)
        res = run_rhc(cfg, y0, yhat0, law, cm, fe16, params, forcing, integ)
        replay = simulate_controlled(y0, res.record.controls.T, cm, fe16, params, forcing, integ,
                                     target_y0=yhat0)
        assert np.array_equal(replay.final_state, res.record.final_state)
        assert np.array_equal(replay.states, res.record.states)
        assert np.array_equal(replay.err_norm, res.record.err_norm)
        assert replay.running_cost[-1] == res.record.running_cost[-1]

        # suboptimality ordering against the saturated feedback
        sat_rec = track_target(y0, yhat0, law, cm, fe16, params, forcing, integ, horizon=cfg.t_final)
        assert res.record.running_cost[-1] <= sat_rec.running_cost[-1] + 1e-9

        # feasibility of the concatenated control
        norms = np.sqrt(np.sum(res.record.controls ** 2, axis=1))
        assert np.all(norms <= sat.bound + 1e-12)

    def test_each_window_applies_the_loads_of_its_run_levels(self, params, monkeypatch):
        # the replay re-runs the plant, not the windows, so pin the window loads
        # themselves: with delta = 0.25 the periodic gate is closed at t = 0 and
        # open at t = 0.25, where the second window opens
        fe = build_fem(8, 8, 0.1)
        cm = discretize_actuators(build_actuator_grid(2, 0.5), fe.mesh)
        spec, dt = ForcingSpec.periodic_indicator(), 1e-2
        assert spec.time_gate(0.0) == 0.0 and spec.time_gate(0.25) == 1.0
        problems = []
        solve = rhc.bb_projected_gradient
        monkeypatch.setattr(rhc, "bb_projected_gradient",
                            lambda prob, *a, **kw: problems.append(prob) or solve(prob, *a, **kw))
        cfg = RhcConfig(horizon=0.5, delta=0.25, t_final=0.5, tol=1e-3, j_max=3)
        run_rhc(cfg, np.full(fe.mesh.n_nodes, 1.0), np.full(fe.mesh.n_nodes, 2.0), self.LAW, cm, fe, params,
                spec, IntegratorConfig(dt=dt, cost_beta=1e-3))
        assert [prob.n0 for prob in problems] == [0, 25]

        applied = []  # the load of every step: with a zero control, the forcing load
        for name in ("startup_step", "ab2_step"):
            monkeypatch.setattr(CrankNicolsonAB2, name,
                                lambda self, *a, _f=getattr(CrankNicolsonAB2, name): applied.append(a[-1]) or _f(self, *a))
        for prob in problems:
            del applied[:]
            evaluate_cost(np.zeros((cm.count, prob.n_steps)), prob)
            assert len(applied) == prob.n_steps == 50
            for k, load in enumerate(applied):
                expected = fe.mass @ eval_forcing(spec, (prob.n0 + k) * dt, fe.mesh)
                assert np.array_equal(load, expected), (prob.n0, k)

    @pytest.mark.parametrize("bad", ["short y0", "short target", "record as target"])
    def test_state_of_another_form_refused_before_set_up(self, params, forks, stepper_calls, bad):
        # y0 and the target initial state are refused before the warm start or the plant takes a step
        fe = build_fem(8, 8, 0.1)
        n = fe.mesh.n_nodes
        cm = discretize_actuators(build_actuator_grid(2, 0.5), fe.mesh)
        integ = IntegratorConfig(dt=0.01, cost_beta=1e-3)
        y0, target = np.full(n, 1.0), np.full(n, 2.0)
        if bad == "short y0":
            y0, name, got = y0[:5], "y0", "shape (5,)"
        elif bad == "short target":
            target, name, got = target[:5], "target", "shape (5,)"
        else:
            target = simulate_free(target, 0.6, fe, params, cfg=IntegratorConfig(dt=integ.dt, state_stride=1))
            name, got = "target", "TrajectoryRecord"
        del stepper_calls[:]
        cfg = RhcConfig(horizon=0.3, delta=0.1, t_final=0.5)
        with pytest.raises(ValueError, match=rf"^{name} must be a state: a 1-D array of {n} floats, one per mesh "
                                             rf"node; got {re.escape(got)}$"):
            run_rhc(cfg, y0, target, self.LAW, cm, fe, params, integ=integ)
        assert not forks and not stepper_calls

    def test_rolling_target_steps_each_level_once(self, fe16, params, stepper_calls):
        # every stepper call is a plant step, a target step, a warm-start
        # step or a step of a forward window; the target must not re-step
        # the levels its windows share
        cm = self.setup_case(fe16, params)
        cfg = RhcConfig(horizon=0.3, delta=0.1, t_final=0.3, tol=1e-3)
        res = run_rhc(cfg, np.full(fe16.mesh.n_nodes, 1.0), np.full(fe16.mesh.n_nodes, 2.0), self.LAW, cm, fe16,
                      params, ForcingSpec.periodic_indicator(), IntegratorConfig(dt=1e-2, cost_beta=1e-3))
        n_total, n_horizon = 30, 30
        target_levels = 20 + n_horizon  # last window starts at level 20
        forward = sum(r.n_evaluations for r in res.window_reports) * n_horizon
        assert len(stepper_calls) == n_total + target_levels + n_horizon + forward

    def test_window_reports_keep_stop_reason(self, fe16, params):
        cm = self.setup_case(fe16, params)
        y0 = np.full(fe16.mesh.n_nodes, 1.0)
        cfg = RhcConfig(horizon=0.2, delta=0.1, t_final=0.2, tol=1e-3)
        res = run_rhc(cfg, y0, np.full(fe16.mesh.n_nodes, 2.0), self.LAW, cm, fe16, params,
                      integ=IntegratorConfig(dt=1e-2, cost_beta=1e-3))
        assert len(res.window_reports) == 2
        for report in res.window_reports:
            assert isinstance(report.message, str) and report.message
            # the solve reports its own times, and its report is not changed after it returns
            assert 0.0 < report.forward_s + report.adjoint_s <= report.wall_s
            with pytest.raises(FrozenInstanceError):
                report.wall_s = 0.0

    def test_replay_checks_the_target_for_blow_up(self):
        fe = build_fem(8, 8, 0.1)
        params = SchloeglParams()
        cm = discretize_actuators(build_actuator_grid(2, 0.5), fe.mesh)
        y0 = np.zeros(fe.mesh.n_nodes)
        target_y0 = np.full(fe.mesh.n_nodes, 50.0)
        integ = IntegratorConfig(dt=0.1, cost_beta=1e-3)
        with pytest.raises(BlowUpError):
            simulate_free(target_y0, 1.0, fe, params, cfg=integ)
        with pytest.raises(BlowUpError):
            simulate_controlled(y0, np.zeros((cm.count, 10)), cm, fe, params, integ=integ,
                                target_y0=target_y0)

    @pytest.mark.parametrize("shape", [(4,), (4, 0), (3, 10), (5, 10), (4, 10, 1)],
                             ids=["1-D", "no step", "a count short", "a count over", "3-D"])
    def test_replay_refuses_a_malformed_control_array(self, fe16, params, monkeypatch, forks, shape):
        cm = discretize_actuators(build_actuator_grid(2, 0.5), fe16.mesh)
        assert cm.count == 4
        monkeypatch.setattr(dynamics, "CrankNicolsonAB2", lambda *a: pytest.fail("set up before the check"))
        n = fe16.mesh.n_nodes
        refusal = re.escape(f"controls of shape {shape}, expected (count, n_steps) = (4, n_steps >= 1)")
        with pytest.raises(ValueError, match=refusal):
            simulate_controlled(np.zeros(n), np.zeros(shape), cm, fe16, params, ForcingSpec.periodic_indicator(),
                                target_y0=np.full(n, 2.0))
        assert not forks

    def test_error_dynamics_formulation_equivalent(self, fe16, params):
        # simulating the error system with the shifted reaction reproduces
        # y - target and hence the same cost (the two receding-horizon
        # formulations coincide on the discrete level up to roundoff)
        cm = self.setup_case(fe16, params)
        dt = 5e-3
        n = 60
        mass, stiff = fe16.mass, fe16.stiffness
        rng = np.random.default_rng(7)
        u = 0.5 * rng.normal(size=(cm.count, n))
        y0 = fe16.mesh.interpolate(lambda x, y: 1.0 + 0.5 * np.cos(np.pi * x))
        yhat0 = np.full(fe16.mesh.n_nodes, 2.0)
        integ = IntegratorConfig(dt=dt, state_stride=1, cost_beta=1e-3)
        rec = simulate_controlled(y0, u, cm, fe16, params, None, integ, target_y0=yhat0)
        from schloegl import simulate_free

        tgt = simulate_free(yhat0, n * dt, fe16, params, cfg=integ)
        a_cn = spla.splu((mass / dt + 0.5 * stiff).tocsc())
        a_eu = spla.splu((mass / dt + stiff).tocsc())
        z_prev, z = None, y0 - yhat0
        errs = [float(z @ (mass @ z))]
        for k in range(n):
            load = cm.b @ u[:, k]
            if z_prev is None:
                rhs = mass @ (z / dt) - mass @ shifted_reaction(z, tgt.states[0], params) + load
                z_next = a_eu.solve(rhs)
            else:
                f_c = shifted_reaction(z, tgt.states[k], params)
                f_p = shifted_reaction(z_prev, tgt.states[k - 1], params)
                rhs = (mass / dt - 0.5 * stiff) @ z - mass @ (1.5 * f_c - 0.5 * f_p) + load
                z_next = a_cn.solve(rhs)
            z_prev, z = z, z_next
            errs.append(float(z @ (mass @ z)))
        errs = np.sqrt(np.maximum(errs, 0.0))
        assert np.allclose(errs, rec.err_norm, atol=1e-9)
        j_err_form = dt * (0.5 * errs[0] ** 2 + np.sum(errs[1:-1] ** 2) + 0.5 * errs[-1] ** 2) \
            + 1e-3 * dt * float(np.sum(u * u))
        assert j_err_form == pytest.approx(rec.running_cost[-1], rel=1e-9)


class TestOneCostWeight:
    """``IntegratorConfig.cost_beta`` weighs the control in every run, the RHC and its replay included."""

    @staticmethod
    def probe(cost_beta):
        fe = build_fem(8, 8, 0.1)
        params = SchloeglParams()
        cm = discretize_actuators(build_actuator_grid(2, 0.5), fe.mesh)
        law = FeedbackLaw(gain=175.0, saturation=SaturationConfig(bound=math.exp(1.5), norm="max"))
        forcing = ForcingSpec.periodic_indicator()
        integ = IntegratorConfig(dt=0.01, cost_beta=cost_beta)
        y0, yhat0 = np.full(fe.mesh.n_nodes, -1.0), np.full(fe.mesh.n_nodes, 2.0)
        res = run_rhc(RhcConfig(horizon=0.3, delta=0.1, t_final=0.3), y0, yhat0, law, cm, fe, params,
                      forcing, integ)
        replay = partial(simulate_controlled, y0, res.record.controls.T, cm, fe, params, forcing, integ,
                         target_y0=yhat0)
        return res, replay

    def test_run_rhc_reads_the_cost_weight(self):
        small, _ = self.probe(1e-3)
        large, _ = self.probe(0.5)
        assert small.record.running_cost[-1] != large.record.running_cost[-1]
        assert small.window_reports[0].cost != large.window_reports[0].cost

    def test_replay_with_the_runs_integrator_reproduces_the_cost(self):
        res, replay = self.probe(1e-3)
        rec = replay()
        assert rec.running_cost[-1] == res.record.running_cost[-1]
        assert np.array_equal(rec.states, res.record.states)

    def test_replay_refuses_another_beta(self):
        res, replay = self.probe(1e-3)
        with pytest.raises(ValueError, match="cost_beta"):
            replay(beta=0.5)
        with pytest.raises(ValueError, match="cost_beta"):
            replay(beta=0.0)
        # the weight itself is accepted: the call shape of the benchmark's replay check
        assert replay(beta=1e-3).running_cost[-1] == res.record.running_cost[-1]
