"""Finite-horizon tracking OCPs and the receding-horizon concatenation loop.

Each window minimizes the discrete cost

    J(u) = sum_n tau_n |y_n - target_n|_L2^2  +  beta * dt * sum_n |u_n|^2

(trapezoid weights tau_n on the state term, exact integral of the
piecewise-constant control) subject to the forward CN/AB2 recursion,
over amplitude trajectories in the feedback law's per-step ball.  Gradients are
exact discrete adjoints (transpose of the linearized forward step), so
finite-difference checks are hard pass/fail.  The optimizer is a
projected gradient method with BB1 stepsizes and a nonmonotone Armijo
line search, in which a blown-up trial iterate counts as infinite cost.
Forward windows, the warm start, the receding-horizon plant and the
replay all run the plant loop of :mod:`.dynamics` against its target
source, with one stepper per run.  Windows after the first continue the
AB2 history of the plant, so the concatenated receding-horizon
trajectory re-simulates bitwise from the logged control.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .actuators import CouplingMatrix
from .dynamics import (
    BlowUpError,
    CrankNicolsonAB2,
    ForcingLoad,
    ForcingSpec,
    IntegratorConfig,
    SchloeglParams,
    TrajectoryRecord,
    _Cursor,
    _n_steps_for,
    _Recorder,
    _run_plant,
    _simulate,
    _TargetSource,
    cubic_reaction_derivative,
)
from .feedback import FeedbackLaw, SaturationConfig, _feedback_control, _radial_columns
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


def evaluate_cost(u: np.ndarray, prob: OcpProblem) -> tuple[float, np.ndarray]:
    """Forward-simulate the window and return (cost, states)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (prob.coupling.count, prob.n_steps):
        raise ValueError(f"control shape {u.shape} does not match ({prob.coupling.count}, {prob.n_steps})")
    states = np.empty((prob.n_steps + 1, len(prob.y0)))
    states[0] = prob.y0
    _run_plant(_Cursor(prob.stepper, prob.y0, prob.y_prev, prob.t0), prob.n_steps,
               prob.forcing_loads.__getitem__, prob.coupling.b, lambda k, z: u[:, k], states=states)
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

    The feedback law's saturation on every column; for the Euclidean norm
    this is the exact metric projection onto the closed convex admissible set.
    """
    return _radial_columns(np.asarray(u, dtype=float), sat)


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
        for _ in range(60):
            u_new = project_admissible(u - step * grad, prob.saturation)
            d = u_new - u
            d_sq = float(np.sum(d * d))
            if d_sq == 0.0:
                return OptimizeResult(best_u, best_cost, it, True, evals, "stationary point")
            evals += 1
            try:
                cost_new, states_new = evaluate_cost(u_new, prob)
            except BlowUpError:
                cost_new = math.inf  # rejected: backtrack towards the finite iterate
            if cost_new <= ref + armijo * float(np.sum(grad * d)):
                break
            step *= backtrack
        else:
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
    policy = _feedback_control(FeedbackLaw(gain=gain, saturation=prob.saturation), prob.coupling)
    u = np.empty((prob.coupling.count, prob.n_steps))

    def control(k: int, z: np.ndarray) -> np.ndarray:
        u[:, k] = policy(k, z)
        return u[:, k]

    _run_plant(_Cursor(prob.stepper, prob.y0, prob.y_prev, prob.t0), prob.n_steps,
               prob.forcing_loads.__getitem__, prob.coupling.b, control, _TargetSource(prob.target))
    return u


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
    or a full-state :class:`TrajectoryRecord` covering t_final - delta +
    horizon, which is checked before the first window.
    The first window starts from the saturated feedback control with the
    configured warm-start gain; later windows shift the previous optimum
    and pad the tail with its last column.
    """
    integ = integ or IntegratorConfig()
    saturation = saturation or SaturationConfig()
    dt = integ.dt
    n_delta = _n_steps_for(cfg.delta, dt)
    n_horizon = _n_steps_for(cfg.horizon, dt)
    n_total = _n_steps_for(cfg.t_final, dt)
    if n_total % n_delta != 0:
        raise ValueError(f"t_final {cfg.t_final} is not a multiple of the sampling time {cfg.delta}")
    n_windows = n_total // n_delta

    stepper = CrankNicolsonAB2(fe, params, dt)
    fload = ForcingLoad(forcing or ForcingSpec.zero(), fe)
    source = _TargetSource.of(target, stepper, fload)
    if isinstance(target, TrajectoryRecord) and target.n_steps < n_total - n_delta + n_horizon:
        raise ValueError(f"target record covers {target.n_steps} steps, the last window "
                         f"needs {n_total - n_delta + n_horizon}")
    plant = _Cursor(stepper, y0)
    rec = _Recorder(fe, n_total, dt, integ.state_stride, cfg.beta, coupling.count, track_error=True)
    reports = []
    warm = None

    for w in range(n_windows):
        n0 = w * n_delta
        prob = OcpProblem(
            fe=fe, params=params, coupling=coupling, stepper=stepper,
            y0=plant.y, y_prev=plant.y_prev, target=source.window(n0, n_horizon), beta=cfg.beta,
            saturation=saturation, t0=n0 * dt,
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
        _run_plant(plant, n_delta, prob.forcing_loads.__getitem__, coupling.b,
                   lambda k, z: warm[:, k], source, rec)

    record = rec.finish()
    return RhcResult(
        controls=record.controls.T.copy(),
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
    error norms and the running cost are logged; plant loop and target
    source are those of the receding-horizon plant, so replaying the
    logged receding-horizon control reproduces its trajectory bitwise.
    """
    integ = integ or IntegratorConfig()
    controls = np.asarray(controls, dtype=float)
    return _simulate(y0, controls.shape[1], fe, params, forcing, integ, beta, target_y0, coupling,
                     lambda k, z: controls[:, k])
