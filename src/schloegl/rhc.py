"""Finite-horizon tracking OCPs and the receding-horizon concatenation loop.

Each window minimizes the discrete cost

    J(u) = sum_n tau_n |y_n - target_n|_L2^2  +  beta * dt * sum_n |u_n|^2

(trapezoid weights tau_n on the state term, exact integral of the
piecewise-constant control) subject to the forward CN/AB2 recursion,
over amplitude trajectories in the feedback law's per-step ball, with beta
the run's ``IntegratorConfig.cost_beta``.  Gradients are
exact discrete adjoints (transpose of the linearized forward step), so
finite-difference checks are hard pass/fail.  The optimizer is a
projected gradient method with BB1 stepsizes and a nonmonotone Armijo
line search, in which a blown-up trial iterate counts as infinite cost.
Forward windows, the warm start, the receding-horizon plant and the
replay all run the plant loop of :mod:`.dynamics`, with one stepper, one
``ForcingLoad`` and one target initial state's free run per run.  A window
counts the run's time levels: one opening at level n0 applies the loads
of levels n0, n0 + 1, ...  Windows after the first continue the AB2
history of the plant, so the concatenated receding-horizon trajectory
re-simulates bitwise from the logged control.  A run returns
its plant record, whose ``controls`` rows are the applied amplitudes, and
the :class:`OptimizeResult` of every window, with its wall time.

A forward window is an open-loop run: its amplitudes are known before
it starts, so the plant loop forms its actuator loads a block of steps
at a time, and each step applies the stepper's prepared CSR kernels
(see :mod:`.dynamics`).  The window cost then forms the squared errors
|y_n - target_n|_M^2 a block of ``ADJOINT_BLOCK`` levels at a time, so
beyond its states a forward window's scratch memory is O(block x nodes)
whatever its length.  No block has one level: ``einsum`` sums a one-row
block in another order than a taller one, so a one-level remainder
joins the block before it, and the errors are bitwise those of the
whole window.

The adjoint sweep forms its p-independent work -- the M z rows, the
sources 2 tau_m M z_m and the reaction factors 1.5 f' and 0.5 f' -- a
block of ``ADJOINT_BLOCK`` levels at a time.  Each backward step is then
left with one product of p with M and M/dt - K/2 stacked (one prepared
CSR kernel) and one banded solve, made in the storage of its source row,
so the block of sources becomes the block of p.  The sweep never builds
the whole p: each block is reduced to its columns of B^T p before the
next is formed, and :func:`solve_adjoint` returns B^T p, shape
(count, n_steps).  Beyond the window's states the sweep thus holds
O(block x nodes) whatever the window length.  Every product is formed
with the operands and in the order of the level-by-level sweep, so the
multipliers and B^T p are bitwise those of it.

The optimizer keeps at most one window of states besides the target
rows: the states of an evaluation are dropped once its gradient is
formed, and those of a rejected line-search trial before the next trial
is simulated.

A window solve costs its line-search trials through one :class:`_TrialLane`,
which runs the backtracking trials after the first of an iteration two at a
time where ``dynamics._may_fork`` allows: while the solve costs trial k, a
forked child costs trial k + 1, and the solve judges both in the serial
order.  A trial depends only on the iterate, the gradient and its step, and
the child runs the same code on the same data, so the outcome is bitwise
that of the serial search, evaluation count included; the solve forms the
child's trial again when it judges it, so it holds one trial's arrays at a
time.  The child takes the problem copy-on-write.  When its trial is
accepted, it hands back only B^T p, so the solve's own process holds one
window of states and the child a second, that of its latest trial.  A trial
is handed over only while ``dynamics._core_free`` sees a core free for the
child, the lane's own waiting child not counted: beside another busy process
the pair runs no faster than the serial search, and the child's unneeded
trials are lost work.  The first trial of an iteration runs alone: unbounded
and Euclidean windows accept it almost always, and a second busy process
slows each process on a two-core host.  A solve's ``forward_s`` and
``adjoint_s`` are the time its lane took to cost trials and give B^T p, here
or waiting on the child.
"""

from __future__ import annotations

import math
import numbers
import os
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from . import dynamics
from .actuators import CouplingMatrix
from .dynamics import (
    BlowUpError,
    CrankNicolsonAB2,
    ForcingLoad,
    ForcingSpec,
    IntegratorConfig,
    SchloeglParams,
    TrajectoryRecord,
    _Child,
    _Cursor,
    _n_steps_for,
    _nodal_state,
    _Recorder,
    _run_plant,
    _shared_floats,
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

# Line search of bb_projected_gradient: costs remembered by the nonmonotone
# reference, sufficient-decrease slope, step shrink factor per rejected
# trial, the trials per iteration before the search fails, and the range a
# BB step must fall in (else the first step is reused).
NONMONOTONE_MEMORY = 10
ARMIJO_SLOPE = 1e-4
BACKTRACK_FACTOR = 0.5
LINE_SEARCH_TRIALS = 60
BB_STEP_BOUNDS = (1e-8, 1e8)
# Levels per block of the window cost's squared errors and of the adjoint
# sweep's p-independent work.
ADJOINT_BLOCK = 32


@dataclass(frozen=True)
class OcpProblem:
    """One tracking window: initial data, target slice, weights, solver grid.

    The operators and reaction parameters are those of ``stepper``.
    ``y_prev`` carries the AB2 history level (state one step before the
    window start); ``None`` means the window opens with the startup step.
    ``target`` holds the target states at every window level,
    shape (n_steps + 1, n_nodes).  The window opens at run level ``n0``;
    its step k applies ``load(n0 + k)`` of the run's load source.  Mis-shaped
    states or target rows, and a coupling or load source on another mesh
    (or step size) are refused here, and again by ``replace``, before a
    step reads them.
    """

    coupling: CouplingMatrix
    stepper: CrankNicolsonAB2
    y0: np.ndarray
    y_prev: np.ndarray | None
    target: np.ndarray
    beta: float
    saturation: SaturationConfig
    load: ForcingLoad
    n0: int = 0

    def __post_init__(self):
        if not 0 <= self.beta < math.inf:
            raise ValueError(f"cost weight must be finite and >= 0, got beta = {self.beta!r}")
        if self.target.ndim != 2 or self.target.shape[0] < 2:
            raise ValueError("target must cover the window at every level")
        nodes = self.stepper.fe.mesh.n_nodes
        shapes = {"target rows": self.target.shape[1:], "y0": np.shape(self.y0),
                  "coupling rows": self.coupling.b.shape[:1]}
        if self.y_prev is not None:
            shapes["y_prev"] = np.shape(self.y_prev)
        for name, shape in shapes.items():
            if shape != (nodes,):
                raise ValueError(f"{name}: shape {shape}, but the mesh has {nodes} nodes")
        if self.load.fe is not self.stepper.fe or self.load.dt != self.stepper.dt:
            raise ValueError("the forcing load source is built for another mesh or step size than the stepper")

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


def _squared_errors(states: np.ndarray, prob: OcpProblem) -> np.ndarray:
    """|y_n - target_n|_M^2 at every window level n, formed ``ADJOINT_BLOCK`` levels at a time.

    A one-level remainder joins the block before it: ``einsum`` sums the
    row of a one-row block in another order than the rows of a taller
    block, which all sum as the rows of the whole window do.
    """
    n_levels = prob.n_steps + 1
    starts = list(range(0, n_levels, ADJOINT_BLOCK))
    if n_levels - starts[-1] == 1:
        starts.pop()
    err_sq = np.empty(n_levels)
    for lo, hi in zip(starts, starts[1:] + [n_levels]):
        z = states[lo:hi] - prob.target[lo:hi]
        err_sq[lo:hi] = np.einsum("ij,ij->i", z, (prob.stepper.fe.mass @ z.T).T)
    return err_sq


def evaluate_cost(u: np.ndarray, prob: OcpProblem) -> tuple[float, np.ndarray]:
    """Forward-simulate the window and return (cost, states)."""
    u = np.asarray(u, dtype=float)
    if u.shape != (prob.coupling.count, prob.n_steps):
        raise ValueError(f"control shape {u.shape} does not match ({prob.coupling.count}, {prob.n_steps})")
    states = np.empty((prob.n_steps + 1, len(prob.y0)))
    states[0] = prob.y0
    _run_plant(_Cursor(prob.stepper, prob.y0, prob.y_prev, prob.n0), prob.n_steps, prob.load,
               prob.coupling.b, u, states=states[1:])
    j_state = float(prob.trapezoid_weights() @ _squared_errors(states, prob))
    j_ctrl = prob.beta * prob.dt * float(np.sum(u * u))
    return j_state + j_ctrl, states


def _adjoint_blocks(states: np.ndarray, prob: OcpProblem):
    """Yield ``(lo, block)``: the backward multipliers p[lo:lo + len(block)], from the last level down.

    p_0..p_{N-1} are the exact transpose of the linearized step.  The
    source is 2 * tau_m * M (y_m - target_m); the reaction linearization
    is the nodal derivative of the cubic at the stored states.  The last
    backward solve uses the startup operator when the window opened with
    the startup step.  A block covers ``ADJOINT_BLOCK`` levels: its
    sources and reaction factors are formed at once, and each backward
    solve overwrites the source row it reads, so the block of sources
    becomes the block of p.  p[m] and M p[m+1] are carried across block
    edges, so a caller that drops each block before asking for the next
    holds at most two blocks of p.
    """
    n = prob.n_steps
    stepper = prob.stepper
    tau2 = 2.0 * prob.trapezoid_weights()
    startup = prob.y_prev is None

    p_ahead = mp_ahead = None  # p[m] and mass @ p[m+1], carried between backward steps
    for hi in range(n, 0, -ADJOINT_BLOCK):
        lo = max(hi - ADJOINT_BLOCK, 0) + 1  # this block holds levels lo..hi and p[lo-1..hi-1]
        rows = slice(lo, hi + 1)
        fprime_05 = cubic_reaction_derivative(states[rows], stepper.params)
        fprime_15 = 1.5 * fprime_05
        fprime_05 *= 0.5
        block = np.multiply(tau2[rows, None], (stepper.fe.mass @ (states[rows] - prob.target[rows]).T).T,
                            order="C")
        for m in range(hi, lo - 1, -1):
            i = m - lo
            rhs = block[i]
            if m <= n - 1:
                mp, cnp = stepper.apply_mass_and_cn_explicit(p_ahead)
                rhs += cnp - fprime_15[i] * mp
                if m <= n - 2:
                    rhs += fprime_05[i] * mp_ahead
                mp_ahead = mp
            solve = stepper.solve_startup if (startup and m == 1) else stepper.solve_cn
            p_ahead = solve(rhs, overwrite=True)  # p[m-1], in the storage of block[i]
        fprime_05 = fprime_15 = None  # spent: freed before the next block's are formed
        yield lo - 1, block


def solve_adjoint(states: np.ndarray, prob: OcpProblem) -> np.ndarray:
    """B^T p_n for every window step n, shape (count, n_steps), from the backward multipliers p.

    The multipliers are formed ``ADJOINT_BLOCK`` levels at a time (see the
    module docstring) and each block is reduced to its columns
    ``bt @ block.T`` at once, so beyond ``states`` and the output the sweep
    holds O(block x nodes) whatever the window length.  A column of the
    CSR product sums its terms in one order whatever the column count, so
    each is bitwise that of the whole-array product ``bt @ p.T``.
    """
    btp = np.empty((prob.coupling.count, prob.n_steps))
    bt = prob.coupling.bt
    for lo, block in _adjoint_blocks(states, prob):
        btp[:, lo:lo + len(block)] = bt @ block.T
    return btp


def reduced_gradient(u: np.ndarray, btp: np.ndarray, prob: OcpProblem) -> np.ndarray:
    """Gradient of the discrete cost, 2 beta dt u + B^T p per step, from ``btp`` of :func:`solve_adjoint`.

    Both terms have the shape of ``u``, (count, n_steps); so has the result.
    """
    if btp.shape != (prob.coupling.count, prob.n_steps):
        raise ValueError(f"B^T p shape {btp.shape} does not match ({prob.coupling.count}, {prob.n_steps})")
    return 2.0 * prob.beta * prob.dt * u + btp


def project_admissible(u: np.ndarray, sat: SaturationConfig) -> np.ndarray:
    """Columnwise radial projection onto the per-step amplitude ball.

    The feedback law's saturation on every column; for the Euclidean norm
    this is the exact metric projection onto the closed convex admissible set.
    """
    return _radial_columns(np.asarray(u, dtype=float), sat)


@dataclass(frozen=True)
class OptimizeResult:
    """How one :func:`bb_projected_gradient` solve ended, as the solve reports it: best
    iterate and its cost, iterations, forward evaluations and the stop message, the wall
    time ``wall_s`` of the solve and the parts of it spent on forward windows (``forward_s``)
    and on adjoint sweeps (``adjoint_s``); one per window in :attr:`RhcResult.window_reports`.
    A line-search trial may be costed by a forked child of the solve's trial lane (see the
    module docstring): ``forward_s`` and ``adjoint_s`` count the time the lane took to cost
    trials and to give B^T p, in process or waiting on the child, and ``n_evaluations``
    counts the trials the serial line search evaluates, so a child's trial that was not
    needed is not counted."""

    u: np.ndarray
    cost: float
    iterations: int
    converged: bool
    n_evaluations: int
    message: str
    wall_s: float
    forward_s: float
    adjoint_s: float


def _check_solver_knobs(tol, j_max) -> None:
    """Refuse a stopping tolerance that is not finite and > 0, and an iteration cap that is not an integer >= 1."""
    if not 0 < tol < math.inf:
        raise ValueError(f"stopping tolerance must be finite and > 0, got tol = {tol!r}")
    if not isinstance(j_max, numbers.Integral) or isinstance(j_max, bool) or j_max < 1:
        raise ValueError(f"iteration cap must be an integer >= 1, got j_max = {j_max!r}")


def _trial_cost(u: np.ndarray, prob: OcpProblem) -> tuple[float, np.ndarray | None]:
    """:func:`evaluate_cost` of a line-search trial; ``(inf, None)`` for a blown-up one, which is rejected."""
    try:
        return evaluate_cost(u, prob)
    except BlowUpError:
        return math.inf, None


class _TrialLane:
    """Where the line-search trials of one window solve are costed: in this process or in a forked child.

    ``cost(u, ahead)`` is the :func:`_trial_cost` cost of the trial ``u``: the
    child's answer if the previous call handed ``u`` over, else costed here
    while ``ahead()``, the next trial's iterate (None: none), goes to the
    child where it may.  ``gradient(u)`` is B^T p of the accepted trial ``u``,
    the child's for its own trial; a trial the child still holds is dropped,
    its answer read at the next hand-over.  The child is forked at the first
    hand-over; amplitudes, B^T p and cost cross in shared memory, the pipes
    carry one-byte tokens.  A child that ends without an answer (a
    ``MemoryError`` in it, a kill) is reaped and its work done here, as when
    the fork fails: its trial is costed, or the accepted trial's window formed
    again, and nothing more is handed over.  Leaving the ``with`` block kills
    and reaps the child.
    """

    def __init__(self, prob: OcpProblem):
        self._prob = prob
        self._child: _Child | None = None
        self._usable = dynamics._may_fork()
        self._states = None  # the window of the latest trial costed here
        self._in_lane = False  # the latest trial was costed by the child
        self._handed = False  # the child holds the trial after the latest one
        self._open = False  # a request whose answer is unread

    def __enter__(self) -> "_TrialLane":
        return self

    def __exit__(self, *exc) -> None:
        if self._child is not None:
            self._child.reap()

    def _serve(self, recv: int, send: int) -> None:
        """The child: answer each request until the parent's end of the pipe closes."""
        states = None
        while request := os.read(recv, 1):
            if request == b"u":
                states = None  # the previous trial's window goes before this one is formed
                self._cost[0], states = _trial_cost(self._u, self._prob)
                os.write(send, b"c")
            else:
                self._btp[:] = solve_adjoint(states, self._prob)
                os.write(send, b"g")

    def _ask(self, request: bytes) -> bool:
        try:
            os.write(self._child.send, request)
        except BrokenPipeError:  # the child has died
            self._give_up()
            return False
        self._open = True
        return True

    def _answer(self) -> bool:
        got = os.read(self._child.recv, 1)
        self._open = False
        if not got:  # no answer: the child has ended
            self._give_up()
        return bool(got)

    def _give_up(self) -> None:
        """Reap the failed child; the rest of the solve runs here."""
        self._child.reap()
        self._child, self._open, self._usable = None, False, False

    def _hand_over(self, u: np.ndarray | None) -> bool:
        """Hand the child the trial ``u`` (None: nothing), forking it on first use; whether it took it."""
        if u is None:
            return False
        if self._open:
            self._answer()  # to a trial the line search did not need; if the child failed, it is no longer usable
        if not (self._usable and dynamics._core_free(self._child)):
            return False
        if self._child is None:
            self._u, self._btp = _shared_floats(2, self._prob.coupling.count, self._prob.n_steps)
            self._cost = _shared_floats(1)
            try:
                self._child = _Child(self._serve)
            except OSError:  # no fork: the solve runs serially
                self._usable = False
                return False
        self._u[:] = u
        return self._ask(b"u")

    def cost(self, u: np.ndarray, ahead) -> float:
        self._states = None  # the previous trial's window goes before this one is formed
        self._in_lane, self._handed = self._handed and self._answer(), False  # the child's answer, if it holds u
        if self._in_lane:
            return float(self._cost[0])
        self._handed = self._usable and self._hand_over(ahead())
        cost, self._states = _trial_cost(u, self._prob)
        return cost

    def gradient(self, u: np.ndarray) -> np.ndarray:
        self._handed = False  # the accepted trial is the latest: the one after it is not needed
        if self._in_lane:
            if self._ask(b"g") and self._answer():
                return self._btp.copy()
            self._states = evaluate_cost(u, self._prob)[1]  # the child failed on it: its window is formed here
        btp, self._states = solve_adjoint(self._states, self._prob), None
        return btp


def bb_projected_gradient(prob: OcpProblem, u_init: np.ndarray, tol: float = 1e-4,
                          j_max: int = 500) -> OptimizeResult:
    """Projected gradient with BB1 steps and nonmonotone Armijo line search.

    Stops when the L2-in-time norm of the iterate difference drops below
    ``tol`` (finite, > 0) or the iteration cap ``j_max`` (an integer >= 1) is
    reached (then the best iterate is returned with ``converged=False``).
    The trials are costed, and the accepted one's B^T p formed, by the
    solve's :class:`_TrialLane`, which may cost the next backtracking trial
    in a forked child meanwhile (see the module docstring); the result is
    bitwise that of the serial search.
    """
    _check_solver_knobs(tol, j_max)
    start = time.perf_counter()
    a_min, a_max = BB_STEP_BOUNDS
    clock = {"forward": 0.0, "adjoint": 0.0}

    def timed(part, fn, *args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            clock[part] += time.perf_counter() - t0

    def result(iterations, converged, message):
        return OptimizeResult(best_u, best_cost, iterations, converged, evals, message,
                              wall_s=time.perf_counter() - start, forward_s=clock["forward"],
                              adjoint_s=clock["adjoint"])

    def trial(step):
        """The trial at ``step`` from u: its iterate, its step d from u, and |d|^2."""
        u_new = project_admissible(u - step * grad, prob.saturation)
        d = u_new - u
        return u_new, d, float(np.sum(d * d))

    def ahead():
        """The next backtracking trial's iterate; None at the first or last trial, or if it does not move u."""
        if 0 < tried < LINE_SEARCH_TRIALS - 1:
            u_next, _, d_sq_next = trial(step * BACKTRACK_FACTOR)
            return u_next if d_sq_next != 0.0 else None
        return None

    u = project_admissible(u_init, prob.saturation)
    cost, states = timed("forward", evaluate_cost, u, prob)
    grad = reduced_gradient(u, timed("adjoint", solve_adjoint, states, prob), prob)
    states = None  # a window's states are dead once its gradient is formed
    evals = 1
    g_scale = float(np.max(np.abs(grad)))
    alpha0 = min(max(1.0 / g_scale if g_scale > 0 else 1.0, a_min), a_max)
    alpha = alpha0
    history = deque([cost], maxlen=NONMONOTONE_MEMORY)
    best_u, best_cost = u, cost
    sqrt_dt = math.sqrt(prob.dt)

    with _TrialLane(prob) as lane:
        for it in range(1, j_max + 1):
            ref = max(history)
            step = alpha
            for tried in range(LINE_SEARCH_TRIALS):
                u_new, d, d_sq = trial(step)
                if d_sq == 0.0:
                    return result(it, True, "stationary point")
                evals += 1
                cost_new = timed("forward", lane.cost, u_new, ahead)
                if cost_new <= ref + ARMIJO_SLOPE * float(np.sum(grad * d)):
                    break
                step *= BACKTRACK_FACTOR
            else:
                return result(it, False, "line search failed")

            grad_new = reduced_gradient(u_new, timed("adjoint", lane.gradient, u_new), prob)
            sty = float(np.sum(d * (grad_new - grad)))  # d = u_new - u, the accepted step
            if sty <= 0:
                alpha = alpha0
            else:
                a = d_sq / sty
                alpha = a if a_min <= a <= a_max else alpha0

            diff = sqrt_dt * math.sqrt(d_sq)
            u, cost, grad = u_new, cost_new, grad_new
            history.append(cost)
            if cost < best_cost:
                best_cost, best_u = cost, u
            if diff < tol:
                return result(it, True, "step below tolerance")

        return result(j_max, False, "iteration cap reached")


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

    _run_plant(_Cursor(prob.stepper, prob.y0, prob.y_prev, prob.n0), prob.n_steps, prob.load,
               prob.coupling.b, control, lambda n: prob.target[n - prob.n0])
    return u


@dataclass(frozen=True)
class RhcConfig:
    """Sampling time, prediction horizon, total time, and inner-solver knobs, checked as
    :func:`bb_projected_gradient` checks them."""

    horizon: float
    delta: float
    t_final: float
    tol: float = 1e-4
    j_max: int = 500

    def __post_init__(self):
        if not (math.inf > self.horizon > self.delta > 0):
            raise ValueError(f"need finite horizon > delta > 0, got T={self.horizon}, delta={self.delta}")
        if not 0 < self.t_final < math.inf:
            raise ValueError(f"total time must be finite and positive, got {self.t_final}")
        _check_solver_knobs(self.tol, self.j_max)


@dataclass
class RhcResult:
    record: TrajectoryRecord      # plant trajectory; record.controls[n] is the amplitude of step n
    window_reports: list          # the OptimizeResult of each window, in order


def run_rhc(cfg: RhcConfig, y0: np.ndarray, target, law: FeedbackLaw, coupling: CouplingMatrix,
            fe: FemOperators, params: SchloeglParams, forcing: ForcingSpec | None = None,
            integ: IntegratorConfig | None = None) -> RhcResult:
    """Receding-horizon loop: solve each window OCP, keep the first
    sampling interval of its optimal control, advance the plant, slide.

    Arguments as for :func:`.feedback.track_target`; ``law.saturation`` is
    every window's admissible set, ``integ.cost_beta`` the control weight of
    the window costs and the record.  The target initial state's free run is
    rolled forward in process, and the plant reads its levels from the rows
    of the window just solved; it and ``y0`` are checked as in ``track_target``
    before anything is set up.  The first window starts from the closed
    loop of ``law``; later windows shift the previous optimum and pad the
    tail with its last column.
    """
    y0 = _nodal_state(y0, "y0", fe.mesh.n_nodes)
    target = _nodal_state(target, "target", fe.mesh.n_nodes)
    integ = integ or IntegratorConfig()
    dt = integ.dt
    n_delta = _n_steps_for(cfg.delta, dt)
    n_horizon = _n_steps_for(cfg.horizon, dt)
    n_total = _n_steps_for(cfg.t_final, dt)
    if n_total % n_delta != 0:
        raise ValueError(f"t_final {cfg.t_final} is not a multiple of the sampling time {cfg.delta}")
    n_windows = n_total // n_delta

    stepper = CrankNicolsonAB2(fe, params, dt)
    fload = ForcingLoad(forcing or ForcingSpec.zero(), fe, dt)
    source = _TargetSource(stepper, target, fload)
    plant = _Cursor(stepper, y0)
    rec = _Recorder(integ, n_total, fe.mesh.n_nodes, coupling.count, track_error=True)
    reports = []
    warm = None

    for w in range(n_windows):
        n0 = w * n_delta
        prob = OcpProblem(coupling=coupling, stepper=stepper, y0=plant.y, y_prev=plant.y_prev,
                          target=source.window(n0, n_horizon), beta=integ.cost_beta,
                          saturation=law.saturation, load=fload, n0=n0)
        if warm is None:
            u_init = saturated_control_on_window(prob, law.gain)
        else:
            u_init = np.empty_like(warm)
            u_init[:, : n_horizon - n_delta] = warm[:, n_delta:]
            u_init[:, n_horizon - n_delta:] = warm[:, -1:]
        res = bb_projected_gradient(prob, u_init, tol=cfg.tol, j_max=cfg.j_max)
        reports.append(res)
        warm = res.u
        _run_plant(plant, n_delta, fload, coupling.b, warm, lambda n: prob.target[n - n0], rec)

    return RhcResult(record=rec.record, window_reports=reports)


def simulate_controlled(y0: np.ndarray, controls: np.ndarray, coupling: CouplingMatrix,
                        fe: FemOperators, params: SchloeglParams,
                        forcing: ForcingSpec | None = None, integ: IntegratorConfig | None = None,
                        target_y0=None, beta: float | None = None) -> TrajectoryRecord:
    """Open-loop replay of a logged control sequence, shape (count, n_steps >= 1): one column per step.

    With the target initial state ``target_y0`` given, error norms and the
    running cost are logged against its co-simulated free run.  The plant
    loop is that of the receding-horizon plant, and the target, stepped in a
    forked child where :mod:`.dynamics` finds that pays and is safe, gives
    the bits of its in-process rolling source, so replaying the logged
    receding-horizon control with the run's own ``integ`` reproduces its
    record bitwise.
    ``integ.cost_beta`` weighs the control; another ``beta`` is refused, and
    so is a control array of another shape, before anything is set up.
    """
    integ = integ or IntegratorConfig()
    if beta is not None and beta != integ.cost_beta:
        raise ValueError(f"beta = {beta!r} differs from the cost weight integ.cost_beta = {integ.cost_beta!r}")
    controls = np.asarray(controls, dtype=float)
    if controls.ndim != 2 or controls.shape[0] != coupling.count or controls.shape[1] < 1:
        raise ValueError(f"controls of shape {controls.shape}, expected (count, n_steps) = "
                         f"({coupling.count}, n_steps >= 1)")
    return _simulate(y0, controls.shape[1], fe, params, forcing, integ, target_y0, coupling, controls)
