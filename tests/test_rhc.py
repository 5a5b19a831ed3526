"""Window optimal-control problems, adjoint gradients, and the RHC loop."""

import math

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
import schloegl.rhc as rhc_module
from schloegl.dynamics import CrankNicolsonAB2


def make_problem(nx=8, n_steps=20, beta=1e-3, dt=1e-2, bound=math.inf, m=2,
                 with_history=False, target_start=0.2):
    fe = build_fem(nx, nx, 0.1)
    params = SchloeglParams()
    grid = build_actuator_grid(m, 0.5)
    cm = discretize_actuators(grid, fe.mesh)
    stepper = CrankNicolsonAB2(fe, params, dt)
    tgt = np.empty((n_steps + 1, fe.mesh.n_nodes))
    tp, tc = None, np.full(fe.mesh.n_nodes, target_start)
    tgt[0] = tc
    for k in range(n_steps):
        tn = stepper.startup_step(tc, None) if tp is None else stepper.ab2_step(tp, tc, None)
        tp, tc = tc, tn
        tgt[k + 1] = tc
    y0 = fe.mesh.interpolate(lambda x, y: 0.5 + 0.3 * np.cos(np.pi * x) * np.cos(np.pi * y))
    y_prev = y0 + 0.01 * fe.mesh.interpolate(lambda x, y: np.cos(np.pi * y)) if with_history else None
    prob = OcpProblem(fe=fe, params=params, coupling=cm, stepper=stepper, y0=y0, y_prev=y_prev,
                      target=tgt, beta=beta, saturation=SaturationConfig(bound=bound))
    return prob


class TestEvaluateCost:
    def test_zero_control_on_target_start(self):
        prob = make_problem()
        prob.y0 = prob.target[0].copy()
        prob.y_prev = None
        j, states = evaluate_cost(np.zeros((prob.coupling.count, prob.n_steps)), prob)
        assert j == 0.0
        assert np.array_equal(states, prob.target)

    def test_beta_linearity(self, rng):
        prob = make_problem(beta=1e-3)
        u = rng.normal(size=(prob.coupling.count, prob.n_steps))
        j1, _ = evaluate_cost(u, prob)
        prob.beta = 2e-3
        j2, _ = evaluate_cost(u, prob)
        assert j2 - j1 == pytest.approx(1e-3 * prob.dt * float(np.sum(u * u)), rel=1e-12)

    def test_against_straight_line_reimplementation(self, rng):
        # independent re-coding: dense per-step spsolve, explicit sums
        prob = make_problem(nx=8, n_steps=20)
        u = 0.4 * rng.normal(size=(prob.coupling.count, prob.n_steps))
        j, _ = evaluate_cost(u, prob)

        fe, params, dt = prob.fe, prob.params, prob.dt
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
        prob.y0 = prob.target[0].copy()
        u = np.zeros((prob.coupling.count, prob.n_steps))
        _, states = evaluate_cost(u, prob)
        p = solve_adjoint(states, prob)
        assert np.max(np.abs(p)) == 0.0
        g = reduced_gradient(u, states, p, prob)
        assert np.max(np.abs(g)) == 0.0

    @pytest.mark.parametrize("with_history", [False, True])
    @pytest.mark.parametrize("n_steps", [1, 2, 3, 25])
    def test_gradient_matches_finite_differences(self, rng, with_history, n_steps):
        prob = make_problem(nx=6, n_steps=n_steps, with_history=with_history)
        u = 0.5 * rng.normal(size=(prob.coupling.count, prob.n_steps))
        _, states = evaluate_cost(u, prob)
        g = reduced_gradient(u, states, solve_adjoint(states, prob), prob)
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
        g = reduced_gradient(u_star, states, solve_adjoint(states, prob), prob)
        assert np.max(np.abs(g)) < 1e-8

        out = bb_projected_gradient(prob, u_star, tol=1e-4)
        assert out.iterations <= 2
        assert np.allclose(out.u, u_star, atol=1e-7)


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
        prob.y0 = np.full(prob.fe.mesh.n_nodes, -1.0)
        u0 = saturated_control_on_window(prob, 175.0)
        j0, _ = evaluate_cost(u0, prob)
        out = bb_projected_gradient(prob, u0, tol=1e-5, j_max=100)
        assert out.cost < j0


    @staticmethod
    def constant_tracking_problem(dt, c):
        # y0 = target = c everywhere, no bound, a tiny control weight
        prob = make_problem(nx=8, n_steps=20, beta=1e-5, dt=dt, m=2)
        prob.target = np.full_like(prob.target, c)
        prob.y0 = prob.target[0].copy()
        return prob

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
        prob.y0 = np.full(prob.fe.mesh.n_nodes, 100.0)
        from schloegl.rhc import saturated_control_on_window

        with pytest.raises(BlowUpError), np.errstate(over="ignore", invalid="ignore"):
            saturated_control_on_window(prob, 175.0)


class TestRunRhc:
    def setup_case(self, fe, params):
        grid = build_actuator_grid(3, 0.5)
        cm = discretize_actuators(grid, fe.mesh)
        return cm

    def test_zero_initial_error(self, fe16, params):
        cm = self.setup_case(fe16, params)
        y0 = np.full(fe16.mesh.n_nodes, 2.0)
        cfg = RhcConfig(horizon=0.3, delta=0.1, t_final=0.4, beta=1e-3)
        res = run_rhc(cfg, y0, y0.copy(), cm, fe16, params,
                      integ=IntegratorConfig(dt=1e-2, state_stride=10))
        assert res.total_cost <= 1e-10
        assert np.max(np.abs(res.controls)) <= 1e-6

    def test_window_grid_validation(self, fe16, params):
        cm = self.setup_case(fe16, params)
        y0 = np.zeros(fe16.mesh.n_nodes)
        with pytest.raises(ValueError):
            run_rhc(RhcConfig(horizon=0.3, delta=0.1, t_final=0.35), y0, y0, cm, fe16, params,
                    integ=IntegratorConfig(dt=1e-2))
        with pytest.raises(ValueError):
            RhcConfig(horizon=0.1, delta=0.2, t_final=1.0)

    def test_bitwise_replay_and_ordering(self, fe16, params):
        cm = self.setup_case(fe16, params)
        forcing = ForcingSpec.periodic_indicator()
        sat = SaturationConfig(bound=math.exp(2.0))
        y0 = np.full(fe16.mesh.n_nodes, -1.0)
        yhat0 = np.full(fe16.mesh.n_nodes, 2.0)
        integ = IntegratorConfig(dt=5e-3, state_stride=20)
        cfg = RhcConfig(horizon=0.5, delta=0.25, t_final=1.0, beta=1e-3, tol=1e-3)
        res = run_rhc(cfg, y0, yhat0, cm, fe16, params, forcing, integ, sat)
        replay = simulate_controlled(y0, res.controls, cm, fe16, params, forcing, integ,
                                     target_y0=yhat0, beta=cfg.beta)
        assert np.array_equal(replay.final_state, res.record.final_state)
        assert np.array_equal(replay.states, res.record.states)
        assert np.array_equal(replay.err_norm, res.record.err_norm)
        assert replay.running_cost[-1] == res.total_cost

        # suboptimality ordering against the saturated feedback
        law = FeedbackLaw(gain=175.0, saturation=sat)
        sat_rec = track_target(y0, yhat0, law, cm, fe16, params, forcing,
                               IntegratorConfig(dt=5e-3, state_stride=20, cost_beta=cfg.beta),
                               horizon=cfg.t_final)
        assert res.total_cost <= sat_rec.running_cost[-1] + 1e-9

        # feasibility of the concatenated control
        norms = np.sqrt(np.sum(res.controls ** 2, axis=0))
        assert np.all(norms <= sat.bound + 1e-12)

    def test_stored_target_record_matches_rolling_target(self, fe16, params):
        cm = self.setup_case(fe16, params)
        forcing = ForcingSpec.periodic_indicator()
        sat = SaturationConfig(bound=math.exp(1.5), norm="max")
        y0 = np.full(fe16.mesh.n_nodes, -1.0)
        yhat0 = np.full(fe16.mesh.n_nodes, 2.0)
        integ = IntegratorConfig(dt=1e-2, state_stride=5)
        cfg = RhcConfig(horizon=0.3, delta=0.1, t_final=0.3, beta=1e-3, tol=1e-3)
        rolling = run_rhc(cfg, y0, yhat0, cm, fe16, params, forcing, integ, sat)
        target = simulate_free(yhat0, cfg.t_final + cfg.horizon, fe16, params, forcing,
                               IntegratorConfig(dt=integ.dt, state_stride=1))
        stored = run_rhc(cfg, y0, target, cm, fe16, params, forcing, integ, sat)
        assert np.array_equal(stored.controls, rolling.controls)
        assert np.array_equal(stored.record.states, rolling.record.states)
        assert np.array_equal(stored.record.err_norm, rolling.record.err_norm)

        # a record on a finer grid covers every window but is refused
        fine = simulate_free(yhat0, cfg.t_final + cfg.horizon, fe16, params, forcing,
                             IntegratorConfig(dt=integ.dt / 2, state_stride=1))
        with pytest.raises(ValueError, match="time grid"):
            run_rhc(cfg, y0, fine, cm, fe16, params, forcing, integ, sat)

    def test_short_target_record_refused_before_the_first_window(self, params, monkeypatch):
        # the last window needs t_final - delta + horizon = 0.7 > 0.6: refuse
        # the record before any window is optimized
        fe = build_fem(8, 8, 0.1)
        cm = discretize_actuators(build_actuator_grid(2, 0.5), fe.mesh)
        integ = IntegratorConfig(dt=0.01)
        target = simulate_free(np.full(fe.mesh.n_nodes, 2.0), 0.6, fe, params,
                               cfg=IntegratorConfig(dt=integ.dt, state_stride=1))
        solves = []
        original = rhc_module.bb_projected_gradient
        monkeypatch.setattr(rhc_module, "bb_projected_gradient",
                            lambda *a, **k: solves.append(1) or original(*a, **k))
        cfg = RhcConfig(horizon=0.3, delta=0.1, t_final=0.5)
        with pytest.raises(ValueError, match="target record"):
            run_rhc(cfg, np.full(fe.mesh.n_nodes, 1.0), target, cm, fe, params, integ=integ)
        assert solves == []

    def test_rolling_target_steps_each_level_once(self, fe16, params, monkeypatch):
        # every stepper call is a plant step, a target step, a warm-start
        # step or a step of a forward window; the target must not re-step
        # the levels its windows share
        cm = self.setup_case(fe16, params)
        calls = []
        for name in ("startup_step", "ab2_step"):
            original = getattr(CrankNicolsonAB2, name)
            monkeypatch.setattr(CrankNicolsonAB2, name,
                                lambda self, *a, _f=original: calls.append(1) or _f(self, *a))
        cfg = RhcConfig(horizon=0.3, delta=0.1, t_final=0.3, beta=1e-3, tol=1e-3)
        res = run_rhc(cfg, np.full(fe16.mesh.n_nodes, 1.0), np.full(fe16.mesh.n_nodes, 2.0), cm, fe16, params,
                      ForcingSpec.periodic_indicator(), IntegratorConfig(dt=1e-2))
        n_total, n_horizon = 30, 30
        target_levels = 20 + n_horizon  # last window starts at level 20
        forward = sum(r[3] for r in res.window_reports) * n_horizon
        assert len(calls) == n_total + target_levels + n_horizon + forward

    def test_window_reports_keep_stop_reason(self, fe16, params):
        cm = self.setup_case(fe16, params)
        y0 = np.full(fe16.mesh.n_nodes, 1.0)
        cfg = RhcConfig(horizon=0.2, delta=0.1, t_final=0.2, beta=1e-3, tol=1e-3)
        res = run_rhc(cfg, y0, np.full(fe16.mesh.n_nodes, 2.0), cm, fe16, params,
                      integ=IntegratorConfig(dt=1e-2))
        assert len(res.window_reports) == 2
        for report in res.window_reports:
            assert isinstance(report[4], str) and report[4]

    def test_replay_checks_the_target_for_blow_up(self):
        fe = build_fem(8, 8, 0.1)
        params = SchloeglParams()
        cm = discretize_actuators(build_actuator_grid(2, 0.5), fe.mesh)
        y0 = np.zeros(fe.mesh.n_nodes)
        target_y0 = np.full(fe.mesh.n_nodes, 50.0)
        integ = IntegratorConfig(dt=0.1)
        with pytest.raises(BlowUpError):
            simulate_free(target_y0, 1.0, fe, params, cfg=integ)
        with pytest.raises(BlowUpError):
            simulate_controlled(y0, np.zeros((cm.count, 10)), cm, fe, params, integ=integ,
                                target_y0=target_y0, beta=1e-3)

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
        integ = IntegratorConfig(dt=dt, state_stride=1)
        rec = simulate_controlled(y0, u, cm, fe16, params, None, integ, target_y0=yhat0, beta=1e-3)
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
