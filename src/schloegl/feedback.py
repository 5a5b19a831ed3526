"""Radial saturation, the explicit box-average feedback law, and closed-loop runs.

The feedback maps the tracking error z = y - y_target to amplitudes
u = sat(-gain * box_means(z)), where box_means are the coefficients of
the L2 projection onto the actuator span and sat rescales onto the ball
of radius ``bound`` whenever the amplitude norm exceeds it.  The control
enters the plant lagged (evaluated at the step start), matching the
Adams-Bashforth treatment of the non-diffusive terms.  Closed-loop runs
drive the plant loop of :mod:`.dynamics` with this law as its control
policy, against the shared target source (lockstep co-simulation or a
stored record); plant and target share one stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actuators import CouplingMatrix, project_onto_actuator_span
from .dynamics import ForcingSpec, IntegratorConfig, SchloeglParams, TrajectoryRecord, _n_steps_for, _simulate
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


def _feedback_control(law: FeedbackLaw, coupling: CouplingMatrix):
    """Plant-loop control policy: the saturated law on the step's error, bound-checked."""
    bound = law.saturation.bound

    def control(k: int, z: np.ndarray) -> np.ndarray:
        u = saturated_feedback(z, law, coupling)
        u_norm = control_norm(u, law.saturation.norm)
        if u_norm > bound + SATURATION_SLACK:
            raise AssertionError(f"saturation bound violated on step {k}: {u_norm} > {bound}")
        return u

    return control


def track_target(y0: np.ndarray, target_y0: np.ndarray, law: FeedbackLaw, coupling: CouplingMatrix,
                 fe: FemOperators, params: SchloeglParams, forcing: ForcingSpec | None = None,
                 cfg: IntegratorConfig | None = None, horizon: float = 1.0) -> TrajectoryRecord:
    """Closed-loop run against the free trajectory started from target_y0.

    Target and plant advance in lockstep on the same grid; memory use is
    independent of the horizon.
    """
    cfg = cfg or IntegratorConfig()
    return _simulate(y0, _n_steps_for(horizon, cfg.dt), fe, params, forcing, cfg, cfg.cost_beta,
                     target_y0, coupling, _feedback_control(law, coupling))


def closed_loop_simulate(y0: np.ndarray, target: TrajectoryRecord, law: FeedbackLaw,
                         coupling: CouplingMatrix, fe: FemOperators, params: SchloeglParams,
                         forcing: ForcingSpec | None = None,
                         cfg: IntegratorConfig | None = None) -> TrajectoryRecord:
    """Closed-loop run against a precomputed target trajectory.

    The target record must cover the horizon on the identical time grid
    with every level stored (state_stride 1); interpolation is refused.
    """
    cfg = cfg or IntegratorConfig()
    return _simulate(y0, target.n_steps, fe, params, forcing, cfg, cfg.cost_beta,
                     target, coupling, _feedback_control(law, coupling))
