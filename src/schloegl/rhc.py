"""Finite-horizon tracking OCPs and the receding-horizon concatenation loop.

Each window minimizes the discrete cost

    J(u) = sum_n tau_n |y_n - target_n|_L2^2  +  beta * dt * sum_n |u_n|^2

(trapezoid weights tau_n on the state term, exact integral of the
piecewise-constant control) subject to the forward CN/AB2 recursion,
over amplitude trajectories with per-step norm bound.  Gradients are
exact discrete adjoints (transpose of the linearized forward step), so
finite-difference checks are hard pass/fail.  The optimizer is a
projected gradient method with BB1 stepsizes and a nonmonotone Armijo
line search.  Windows after the first continue the AB2 history of the
plant, so the concatenated receding-horizon trajectory re-simulates
bitwise from the logged control.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .actuators import CouplingMatrix
from .dynamics import (
    CrankNicolsonAB2,
    ForcingLoad,
    ForcingSpec,
    IntegratorConfig,
    SchloeglParams,
    TrajectoryRecord,
    _check_target_record,
    _n_steps_for,
    _Recorder,
    cubic_reaction_derivative,
)
from .feedback import NUDGE_PASSES, FeedbackLaw, SaturationConfig, control_norm, radial_project, saturated_feedback
from .geometry import FemOperators

__all__ = [
    "OcpProblem",
    "RhcConfig",
    "OptimizeResult",
    "RhcResult",
    "evaluate_cost",
    "solve_adjoint",
    "reduced_gradient",
    "project_admissible",
    "bb_projected_gradient",
    "saturated_control_on_window",
    "simulate_controlled",
    "run_rhc",
]


@dataclass
class OcpProblem:
    """One tracking window: initial data, target slice, weights, solver grid.

    ``y_prev`` carries the AB2 history level (state one step before the
    window start); ``None`` means the window opens with the startup step.
    ``target`` holds the target states at every window level,
    shape (n_steps + 1, n_nodes).  ``forcing_loads`` is one load vector
    (or None) per step, already paired with the mass matrix.
    """

    fe: FemOperators
    params: SchloeglParams
    coupling: CouplingMatrix
    stepper: CrankNicolsonAB2
    y0: np.ndarray
    y_prev: np.ndarray | None
    target: np.ndarray
    beta: float
    saturation: SaturationConfig
    t0: float = 0.0
    forcing_loads: list = field(default_factory=list)

    def __post_init__(self):
        if self.beta < 0:
            raise ValueError(f"cost weight must be >= 0, got {self.beta}")
        if self.target.ndim != 2 or self.target.shape[0] < 2:
            raise ValueError("target must cover the window at every level")
        if not self.forcing_loads:
            self.forcing_loads = [None] * self.n_steps

    @property
    def n_steps(self) -> int:
        return self.target.shape[0] - 1

    @property
    def dt(self) -> float:
        return self.stepper.dt

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n_steps + 1, self.dt)
        w[0] = w[-1] = 0.5 * self.dt
        return w

    def step_load(self, u: np.ndarray, n: int) -> np.ndarray:
        bu = self.coupling.b @ u[:, n]
        f = self.forcing_loads[n]
        return bu if f is None else f + bu


def _forward_states(prob: OcpProblem, u: np.ndarray) -> np.ndarray:
    n = prob.n_steps
    states = np.empty((n + 1, len(prob.y0)))
    states[0] = prob.y0
    y_prev = prob.y_prev
    y = prob.y0
    for k in range(n):
        if y_prev is None:
            y_next = prob.stepper.startup_step(y, prob.step_load(u, k))
        else:
            y_next = prob.stepper.ab2_step(y_prev, y, prob.step_load(u, k))
        prob.stepper.check_finite(y_next, prob.t0 + (k + 1) * prob.dt)
        y_prev, y = y, y_next
        states[k + 1] = y
    return states


def evaluate_cost(u: np.ndarray, prob: OcpProblem) -> tuple[float, np.ndarray]:
    """Forward-simulate the window and return (cost, states)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (prob.coupling.count, prob.n_steps):
        raise ValueError(f"control shape {u.shape} does not match ({prob.coupling.count}, {prob.n_steps})")
    states = _forward_states(prob, u)
    z = states - prob.target
    mz = (prob.fe.mass @ z.T).T
    err_sq = np.einsum("ij,ij->i", z, mz)
    j_state = float(prob.trapezoid_weights() @ err_sq)
    j_ctrl = prob.beta * prob.dt * float(np.sum(u * u))
    return j_state + j_ctrl, states


def solve_adjoint(states: np.ndarray, prob: OcpProblem) -> np.ndarray:
    """Backward multipliers p_0..p_{N-1}; exact transpose of the linearized step.

    The source is 2 * tau_m * M (y_m - target_m); the reaction
    linearization is the nodal derivative of the cubic at the stored
    states.  The last backward solve uses the startup operator when the
    window opened with the startup step.
    """
    n = prob.n_steps
    mass = prob.fe.mass
    tau = prob.trapezoid_weights()
    z = states - prob.target
    p = np.empty((n, states.shape[1]))
    startup = prob.y_prev is None
    stepper = prob.stepper

    mp_ahead = None  # mass @ p[m+1], carried between backward steps
    for m in range(n, 0, -1):
        rhs = 2.0 * tau[m] * (mass @ z[m])
        if m <= n - 1:
            fprime = cubic_reaction_derivative(states[m], prob.params)
            mp = mass @ p[m]
            rhs += stepper.apply_cn_explicit(p[m]) - 1.5 * fprime * mp
            if m <= n - 2:
                rhs += 0.5 * fprime * mp_ahead
            mp_ahead = mp
        solve = stepper.solve_startup if (startup and m == 1) else stepper.solve_cn
        p[m - 1] = solve(rhs)
    return p


def reduced_gradient(u: np.ndarray, states: np.ndarray, adjoint: np.ndarray, prob: OcpProblem) -> np.ndarray:
    """Gradient of the discrete cost: 2 beta dt u + B^T p per step."""
    if adjoint.shape[0] != prob.n_steps:
        raise ValueError("adjoint/step count mismatch")
    return 2.0 * prob.beta * prob.dt * u + (prob.coupling.b.T @ adjoint.T)


def project_admissible(u: np.ndarray, sat: SaturationConfig) -> np.ndarray:
    """Columnwise radial projection onto the per-step amplitude ball.

    For the Euclidean norm this is the exact metric projection onto the
    closed convex admissible set.
    """
    u = np.asarray(u, dtype=float)
    if sat.unconstrained:
        return u.copy()

    def col_norms(a):
        if sat.norm == "euclidean":
            return np.sqrt(np.sum(a * a, axis=0))
        return np.max(np.abs(a), axis=0) if a.size else np.zeros(a.shape[1])

    norms = col_norms(u)
    scale = np.ones_like(norms)
    over = norms > sat.bound
    scale[over] = sat.bound / norms[over]
    out = u * scale
    # nudge away one-ulp overshoots so projecting twice is bitwise stable
    norms = col_norms(out)
    for _ in range(NUDGE_PASSES):
        over = norms > sat.bound
        if not np.any(over):
            return out
        scale = np.ones_like(norms)
        scale[over] = sat.bound / norms[over]
        out = out * scale
        norms = col_norms(out)
    if np.any(norms > sat.bound):
        raise FloatingPointError(f"rescaled column norms still exceed the bound {sat.bound!r} "
                                 f"after {NUDGE_PASSES} passes")
    return out


@dataclass
class OptimizeResult:
    u: np.ndarray
    cost: float
    iterations: int
    converged: bool
    n_evaluations: int
    message: str = ""


def bb_projected_gradient(prob: OcpProblem, u_init: np.ndarray, tol: float = 1e-4,
                          j_max: int = 500, memory: int = 10, armijo: float = 1e-4,
                          backtrack: float = 0.5, alpha_bounds: tuple = (1e-8, 1e8)) -> OptimizeResult:
    """Projected gradient with BB1 steps and nonmonotone Armijo line search.

    Stops when the L2-in-time norm of the iterate difference drops below
    ``tol`` or the iteration cap is reached (then the best iterate is
    returned with ``converged=False``).
    """
    a_min, a_max = alpha_bounds
    u = project_admissible(u_init, prob.saturation)
    cost, states = evaluate_cost(u, prob)
    grad = reduced_gradient(u, states, solve_adjoint(states, prob), prob)
    evals = 1
    g_scale = float(np.max(np.abs(grad)))
    alpha0 = min(max(1.0 / g_scale if g_scale > 0 else 1.0, a_min), a_max)
    alpha = alpha0
    history = deque([cost], maxlen=memory)
    best_u, best_cost = u, cost
    sqrt_dt = math.sqrt(prob.dt)

    for it in range(1, j_max + 1):
        ref = max(history)
        step = alpha
        accepted = False
        for _ in range(60):
            u_new = project_admissible(u - step * grad, prob.saturation)
            d = u_new - u
            d_sq = float(np.sum(d * d))
            if d_sq == 0.0:
                return OptimizeResult(best_u, best_cost, it, True, evals, "stationary point")
            cost_new, states_new = evaluate_cost(u_new, prob)
            evals += 1
            if cost_new <= ref + armijo * float(np.sum(grad * d)):
                accepted = True
                break
            step *= backtrack
        if not accepted:
            return OptimizeResult(best_u, best_cost, it, False, evals, "line search failed")

        grad_new = reduced_gradient(u_new, states_new, solve_adjoint(states_new, prob), prob)
        s = u_new - u
        y_g = grad_new - grad
        sty = float(np.sum(s * y_g))
        if sty <= 0:
            alpha = alpha0
        else:
            a = float(np.sum(s * s)) / sty
            alpha = a if a_min <= a <= a_max else alpha0

        diff = sqrt_dt * math.sqrt(d_sq)
        u, cost, grad = u_new, cost_new, grad_new
        history.append(cost)
        if cost < best_cost:
            best_cost, best_u = cost, u
        if diff < tol:
            return OptimizeResult(best_u, best_cost, it, True, evals, "step below tolerance")

    return OptimizeResult(best_u, best_cost, j_max, False, evals, "iteration cap reached")


def saturated_control_on_window(prob: OcpProblem, gain: float) -> np.ndarray:
    """Control log of the saturated feedback closed loop over the window.

    Used as the first-window initial iterate of the receding-horizon
    solver.
    """
    law = FeedbackLaw(gain=gain, saturation=prob.saturation)
    n = prob.n_steps
    u = np.empty((prob.coupling.count, n))
    y_prev = prob.y_prev
    y = prob.y0
    for k in range(n):
        u[:, k] = saturated_feedback(y - prob.target[k], law, prob.coupling)
        load = prob.step_load(u, k)
        if y_prev is None:
            y_next = prob.stepper.startup_step(y, load)
        else:
            y_next = prob.stepper.ab2_step(y_prev, y, load)
        y_prev, y = y, y_next
    return u


class _TargetProvider:
    """Rolling target states on consecutive windows of one continuous run."""

    def __init__(self, fe: FemOperators, params: SchloeglParams, forcing: ForcingSpec,
                 stepper: CrankNicolsonAB2, y0: np.ndarray):
        self.stepper = stepper
        self.load = ForcingLoad(forcing, fe)
        self.level = 0
        self.y_prev = None
        self.y = np.asarray(y0, dtype=float).copy()
        self._window = None
        self._window_level = None

    def window(self, n0: int, n_steps: int) -> np.ndarray:
        if n0 != self.level:
            raise ValueError(f"windows must be requested at the current level {self.level}, got {n0}")
        states = np.empty((n_steps + 1, len(self.y)))
        states[0] = self.y
        y_prev, y = self.y_prev, self.y
        for k in range(n_steps):
            t = (n0 + k) * self.stepper.dt
            if y_prev is None:
                y_next = self.stepper.startup_step(y, self.load(t))
            else:
                y_next = self.stepper.ab2_step(y_prev, y, self.load(t))
            self.stepper.check_finite(y_next, t + self.stepper.dt)
            y_prev, y = y, y_next
            states[k + 1] = y
        self._window = states
        self._window_level = n0
        return states

    def advance(self, n_delta: int):
        states = self._window
        self.y_prev = states[n_delta - 1].copy() if n_delta >= 1 else self.y_prev
        self.y = states[n_delta].copy()
        self.level = self._window_level + n_delta


class _RecordTargetProvider:
    """Target windows sliced from a precomputed full-state trajectory record."""

    def __init__(self, record: TrajectoryRecord, dt: float):
        _check_target_record(record, dt)
        self.states = record.states
        self.level = 0

    def window(self, n0: int, n_steps: int) -> np.ndarray:
        if n0 + n_steps >= self.states.shape[0]:
            raise ValueError("target record does not cover the requested window")
        return self.states[n0:n0 + n_steps + 1]

    def advance(self, n_delta: int):
        self.level += n_delta


@dataclass(frozen=True)
class RhcConfig:
    """Sampling time, prediction horizon, total time, and inner-solver knobs."""

    horizon: float
    delta: float
    t_final: float
    beta: float = 1e-3
    tol: float = 1e-4
    j_max: int = 500
    warm_start_gain: float = 175.0

    def __post_init__(self):
        if not (self.horizon > self.delta > 0):
            raise ValueError(f"need horizon > delta > 0, got T={self.horizon}, delta={self.delta}")
        if self.t_final <= 0:
            raise ValueError(f"total time must be positive, got {self.t_final}")


@dataclass
class RhcResult:
    controls: np.ndarray          # (count, n_total) concatenated first-interval controls
    record: TrajectoryRecord      # plant trajectory diagnostics
    total_cost: float
    window_reports: list          # (iterations, cost, converged, evaluations, stop reason) per window
    converged_all: bool


def run_rhc(cfg: RhcConfig, y0: np.ndarray, target, coupling: CouplingMatrix, fe: FemOperators,
            params: SchloeglParams, forcing: ForcingSpec | None = None,
            integ: IntegratorConfig | None = None, saturation: SaturationConfig | None = None) -> RhcResult:
    """Receding-horizon loop: solve each window OCP, keep the first
    sampling interval of its optimal control, advance the plant, slide.

    ``target`` is either the target initial state (rolling co-simulation)
    or a full-state :class:`TrajectoryRecord` covering t_final + horizon.
    The first window starts from the saturated feedback control with the
    configured warm-start gain; later windows shift the previous optimum
    and pad the tail with its last column.
    """
    integ = integ or IntegratorConfig()
    forcing = forcing or ForcingSpec.zero()
    saturation = saturation or SaturationConfig()
    dt = integ.dt
    n_delta = _n_steps_for(cfg.delta, dt)
    n_horizon = _n_steps_for(cfg.horizon, dt)
    n_total = _n_steps_for(cfg.t_final, dt)
    if n_total % n_delta != 0:
        raise ValueError(f"t_final {cfg.t_final} is not a multiple of the sampling time {cfg.delta}")
    n_windows = n_total // n_delta

    stepper = CrankNicolsonAB2(fe, params, dt)
    fload = ForcingLoad(forcing, fe)
    if isinstance(target, TrajectoryRecord):
        provider = _RecordTargetProvider(target, dt)
    else:
        provider = _TargetProvider(fe, params, forcing, CrankNicolsonAB2(fe, params, dt), target)

    rec = _Recorder(fe, n_total, dt, integ.state_stride, cfg.beta, coupling.count, track_error=True)
    mass = fe.mass
    y = np.asarray(y0, dtype=float).copy()
    y_prev = None
    u_log = np.zeros((coupling.count, n_total))
    reports = []
    warm = None

    for w in range(n_windows):
        n0 = w * n_delta
        tgt = provider.window(n0, n_horizon)
        prob = OcpProblem(
            fe=fe, params=params, coupling=coupling, stepper=stepper,
            y0=y, y_prev=y_prev, target=tgt, beta=cfg.beta, saturation=saturation,
            t0=n0 * dt,
            forcing_loads=[fload((n0 + k) * dt) for k in range(n_horizon)],
        )
        if warm is None:
            u_init = saturated_control_on_window(prob, cfg.warm_start_gain)
        else:
            u_init = np.empty_like(warm)
            u_init[:, : n_horizon - n_delta] = warm[:, n_delta:]
            u_init[:, n_horizon - n_delta:] = warm[:, -1:]
        res = bb_projected_gradient(prob, u_init, tol=cfg.tol, j_max=cfg.j_max)
        reports.append((res.iterations, res.cost, res.converged, res.n_evaluations, res.message))
        warm = res.u

        if w == 0:
            z = y - tgt[0]
            rec.record_level(0, y, float(z @ (mass @ z)))
        for k in range(n_delta):
            u_col = res.u[:, k]
            u_log[:, n0 + k] = u_col
            rec.record_control(n0 + k, u_col, control_norm(u_col, saturation.norm))
            load = prob.step_load(res.u, k)
            if y_prev is None:
                y_next = stepper.startup_step(y, load)
            else:
                y_next = stepper.ab2_step(y_prev, y, load)
            stepper.check_finite(y_next, (n0 + k + 1) * dt)
            y_prev, y = y, y_next
            z = y - tgt[k + 1]
            rec.record_level(n0 + k + 1, y, float(z @ (mass @ z)))
        provider.advance(n_delta)

    record = rec.finish(y, y_prev)
    return RhcResult(
        controls=u_log,
        record=record,
        total_cost=float(record.running_cost[-1]),
        window_reports=reports,
        converged_all=all(r[2] for r in reports),
    )


def simulate_controlled(y0: np.ndarray, controls: np.ndarray, coupling: CouplingMatrix,
                        fe: FemOperators, params: SchloeglParams,
                        forcing: ForcingSpec | None = None, integ: IntegratorConfig | None = None,
                        target_y0: np.ndarray | None = None, beta: float = 0.0) -> TrajectoryRecord:
    """Open-loop replay of a logged control sequence (one column per step).

    With ``target_y0`` given, the target free dynamics is co-simulated so
    error norms and the running cost are logged; the state recursion is
    the same code path as the receding-horizon plant, so replaying the
    logged receding-horizon control reproduces its trajectory bitwise.
    """
    integ = integ or IntegratorConfig()
    forcing = forcing or ForcingSpec.zero()
    controls = np.asarray(controls, dtype=float)
    n_total = controls.shape[1]
    dt = integ.dt
    stepper = CrankNicolsonAB2(fe, params, dt)
    fload = ForcingLoad(forcing, fe)
    track = target_y0 is not None
    rec = _Recorder(fe, n_total, dt, integ.state_stride, beta, coupling.count, track_error=track)

    tgt_stepper = CrankNicolsonAB2(fe, params, dt) if track else None
    ty_prev, ty = None, (np.asarray(target_y0, dtype=float).copy() if track else None)
    y = np.asarray(y0, dtype=float).copy()
    y_prev = None
    mass = fe.mass

    def err_sq():
        if not track:
            return None
        z = y - ty
        return float(z @ (mass @ z))

    rec.record_level(0, y, err_sq())
    for n in range(n_total):
        t = n * dt
        u_col = controls[:, n]
        rec.record_control(n, u_col, control_norm(u_col))
        f = fload(t)
        bu = coupling.b @ u_col
        load = bu if f is None else f + bu
        if y_prev is None:
            y_next = stepper.startup_step(y, load)
        else:
            y_next = stepper.ab2_step(y_prev, y, load)
        stepper.check_finite(y_next, t + dt)
        y_prev, y = y, y_next
        if track:
            tf = fload(t)
            if ty_prev is None:
                ty_next = tgt_stepper.startup_step(ty, tf)
            else:
                ty_next = tgt_stepper.ab2_step(ty_prev, ty, tf)
            ty_prev, ty = ty, ty_next
        rec.record_level(n + 1, y, err_sq())
    return rec.finish(y, y_prev)
