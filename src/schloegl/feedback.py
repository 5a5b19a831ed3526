"""Radial saturation, the explicit box-average feedback law, and closed-loop runs.

The feedback maps the tracking error z = y - y_target to amplitudes
u = sat(-gain * box_means(z)), where box_means are the coefficients of
the L2 projection onto the actuator span and sat rescales onto the ball
of radius ``bound`` whenever the amplitude norm exceeds it.  The control
enters the plant lagged (evaluated at the step start), matching the
Adams-Bashforth treatment of the non-diffusive terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actuators import CouplingMatrix, apply_control_operator, project_onto_actuator_span
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
)
from .geometry import FemOperators

__all__ = [
    "SaturationConfig",
    "FeedbackLaw",
    "control_norm",
    "radial_project",
    "saturated_feedback",
    "feedback_dissipation",
    "track_target",
    "closed_loop_simulate",
]

SATURATION_SLACK = 1e-12
NUDGE_PASSES = 8  # cap on the feasibility nudges after a radial rescale


@dataclass(frozen=True)
class SaturationConfig:
    """Amplitude bound in [0, inf] and the norm it is measured in."""

    bound: float = math.inf
    norm: str = "euclidean"

    def __post_init__(self):
        if self.bound < 0 or math.isnan(self.bound):
            raise ValueError(f"saturation bound must be >= 0, got {self.bound}")
        if self.norm not in ("euclidean", "max"):
            raise ValueError(f"unknown norm tag {self.norm!r}")

    @property
    def unconstrained(self) -> bool:
        return math.isinf(self.bound)


def control_norm(v: np.ndarray, norm: str = "euclidean") -> float:
    v = np.asarray(v, dtype=float)
    if norm == "euclidean":
        return float(np.linalg.norm(v))
    if norm == "max":
        return float(np.max(np.abs(v))) if v.size else 0.0
    raise ValueError(f"unknown norm tag {norm!r}")


def radial_project(v: np.ndarray, sat: SaturationConfig) -> np.ndarray:
    """Rescale v onto the ball of radius ``sat.bound``; identity inside.

    The bound-attained tie case returns v unscaled.  bound = 0 maps
    everything to zero, bound = inf is the identity.
    """
    v = np.asarray(v, dtype=float)
    if sat.unconstrained:
        return v
    n = control_norm(v, sat.norm)
    if n <= sat.bound:
        return v
    out = (sat.bound / n) * v
    # one-ulp overshoot of the rescaled norm would break bitwise
    # idempotence; nudge down until feasible (at most two passes unless
    # squares of the entries underflow, where the norm may never settle)
    m = control_norm(out, sat.norm)
    for _ in range(NUDGE_PASSES):
        if m <= sat.bound:
            return out
        out = (sat.bound / m) * out
        m = control_norm(out, sat.norm)
    if m > sat.bound:
        raise FloatingPointError(f"rescaled norm {m!r} still exceeds the bound {sat.bound!r} "
                                 f"after {NUDGE_PASSES} passes")
    return out


@dataclass(frozen=True)
class FeedbackLaw:
    """Gain of the unconstrained law plus its saturation."""

    gain: float
    saturation: SaturationConfig = SaturationConfig()

    def __post_init__(self):
        if self.gain < 0:
            raise ValueError(f"feedback gain must be >= 0, got {self.gain}")


def saturated_feedback(z: np.ndarray, law: FeedbackLaw, coupling: CouplingMatrix) -> np.ndarray:
    """Amplitudes sat(-gain * box_means(z)); norm always <= the bound."""
    return radial_project(-law.gain * project_onto_actuator_span(coupling, z), law.saturation)


def feedback_dissipation(z: np.ndarray, u: np.ndarray, coupling: CouplingMatrix) -> float:
    """L2 pairing of the actuated field with the error, (sum u_j 1_box_j, z).

    For u produced by :func:`saturated_feedback` this equals
    -gain * min{1, bound/|v|} * |P z|^2 <= 0 (v the unsaturated amplitudes).
    """
    return float(np.asarray(u, dtype=float) @ (coupling.b.T @ np.asarray(z, dtype=float)))


class _TrackingLoop:
    """Lockstep closed-loop stepping against a target supplied per level."""

    def __init__(self, fe: FemOperators, params: SchloeglParams, coupling: CouplingMatrix,
                 law: FeedbackLaw, forcing: ForcingSpec, cfg: IntegratorConfig, n_steps: int):
        self.fe = fe
        self.coupling = coupling
        self.law = law
        self.cfg = cfg
        self.stepper = CrankNicolsonAB2(fe, params, cfg.dt)
        self.load = ForcingLoad(forcing, fe)
        self.rec = _Recorder(fe, n_steps, cfg.dt, cfg.state_stride, cfg.cost_beta,
                             coupling.count, track_error=True)
        self.n_steps = n_steps

    def run(self, y0: np.ndarray, target_at) -> TrajectoryRecord:
        y = np.asarray(y0, dtype=float).copy()
        y_prev = None
        mass = self.fe.mass
        bound = self.law.saturation.bound
        z = y - target_at(0)
        self.rec.record_level(0, y, float(z @ (mass @ z)))
        for n in range(self.n_steps):
            t = n * self.cfg.dt
            u = saturated_feedback(z, self.law, self.coupling)
            u_norm = control_norm(u, self.law.saturation.norm)
            if u_norm > bound + SATURATION_SLACK:
                raise AssertionError(f"saturation bound violated at t = {t:.6g}: {u_norm} > {bound}")
            self.rec.record_control(n, u, u_norm)
            load = self.load(t)
            bu = apply_control_operator(self.coupling, u)
            load = bu if load is None else load + bu
            if y_prev is None:
                y_next = self.stepper.startup_step(y, load)
            else:
                y_next = self.stepper.ab2_step(y_prev, y, load)
            self.stepper.check_finite(y_next, (n + 1) * self.cfg.dt)
            y_prev, y = y, y_next
            z = y - target_at(n + 1)
            self.rec.record_level(n + 1, y, float(z @ (mass @ z)))
        return self.rec.finish(y, y_prev)


def track_target(y0: np.ndarray, target_y0: np.ndarray, law: FeedbackLaw, coupling: CouplingMatrix,
                 fe: FemOperators, params: SchloeglParams, forcing: ForcingSpec | None = None,
                 cfg: IntegratorConfig | None = None, horizon: float = 1.0) -> TrajectoryRecord:
    """Closed-loop run against the free trajectory started from target_y0.

    Target and plant advance in lockstep on the same grid; memory use is
    independent of the horizon.
    """
    cfg = cfg or IntegratorConfig()
    forcing = forcing or ForcingSpec.zero()
    n_steps = _n_steps_for(horizon, cfg.dt)
    loop = _TrackingLoop(fe, params, coupling, law, forcing, cfg, n_steps)

    tgt_stepper = CrankNicolsonAB2(fe, params, cfg.dt)
    tgt_load = ForcingLoad(forcing, fe)
    state = {"prev": None, "curr": np.asarray(target_y0, dtype=float).copy(), "level": 0}

    def target_at(n: int) -> np.ndarray:
        while state["level"] < n:
            t = state["level"] * cfg.dt
            if state["prev"] is None:
                y_next = tgt_stepper.startup_step(state["curr"], tgt_load(t))
            else:
                y_next = tgt_stepper.ab2_step(state["prev"], state["curr"], tgt_load(t))
            tgt_stepper.check_finite(y_next, (state["level"] + 1) * cfg.dt)
            state["prev"], state["curr"] = state["curr"], y_next
            state["level"] += 1
        return state["curr"]

    return loop.run(y0, target_at)


def closed_loop_simulate(y0: np.ndarray, target: TrajectoryRecord, law: FeedbackLaw,
                         coupling: CouplingMatrix, fe: FemOperators, params: SchloeglParams,
                         forcing: ForcingSpec | None = None,
                         cfg: IntegratorConfig | None = None) -> TrajectoryRecord:
    """Closed-loop run against a precomputed target trajectory.

    The target record must cover the horizon on the identical time grid
    with every level stored (state_stride 1); interpolation is refused.
    """
    cfg = cfg or IntegratorConfig()
    forcing = forcing or ForcingSpec.zero()
    n_steps = target.n_steps
    _check_target_record(target, cfg.dt)
    loop = _TrackingLoop(fe, params, coupling, law, forcing, cfg, n_steps)
    return loop.run(y0, lambda n: target.states[n])
