"""Radial saturation, the explicit box-average feedback law, and closed-loop runs.

The feedback maps the tracking error z = y - y_target to amplitudes
u = sat(-gain * box_means(z)), where box_means are the coefficients of
the L2 projection onto the actuator span and sat rescales onto the ball
of radius ``bound`` whenever the amplitude norm exceeds it.  The same
sat is the per-step projection of ``rhc.project_admissible``; its norm,
:func:`.actuators.control_norm`, is overflow-safe and the run record's
too, and a non-finite input comes out all NaN.  The control
enters the plant lagged (evaluated at the step start), matching the
Adams-Bashforth treatment of the non-diffusive terms.  The closed-loop
run :func:`track_target` drives the plant loop of :mod:`.dynamics` with
this law as its control policy against a target initial state, whose free
run is co-simulated in lockstep (in a forked child process where that
pays, see :mod:`.dynamics`); plant and target share one stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .actuators import CouplingMatrix, _column_norms, control_norm, project_onto_actuator_span
from .dynamics import ForcingSpec, IntegratorConfig, SchloeglParams, TrajectoryRecord, _n_steps_for, _simulate
from .geometry import FemOperators

__all__ = [
    "SaturationConfig",
    "FeedbackLaw",
    "radial_project",
    "saturated_feedback",
    "feedback_dissipation",
    "track_target",
]

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


def _radial_columns(a: np.ndarray, sat: SaturationConfig) -> np.ndarray:
    """Rescale each column of the 2-D array ``a`` onto the ball of radius ``sat.bound``.

    Columns in the ball keep their bits (``a`` itself if all do); under a finite bound one with a
    non-finite entry becomes all NaN; rescaled ones are nudged until projecting twice is stable.
    """
    if sat.unconstrained:
        return a
    norms = _column_norms(a, sat.norm)
    over = ~(norms <= sat.bound)  # NaN norms too: their scale is NaN
    if not over.any():
        return a
    if np.isinf(norms).any():  # over its largest entry a finite column has a finite norm
        with np.errstate(invalid="ignore"):  # and an inf entry becomes NaN
            a = a / np.where(np.isinf(norms), _column_norms(a, "max"), 1.0)
        norms = _column_norms(a, sat.norm)
    for _ in range(NUDGE_PASSES + 1):  # the rescale, then the nudges
        a = a * np.divide(sat.bound, norms, out=np.ones_like(norms), where=over)
        norms = _column_norms(a, sat.norm)
        over = norms > sat.bound
        if not over.any():
            return a
    raise FloatingPointError(f"rescaled norms still exceed {sat.bound!r} after {NUDGE_PASSES} nudges")


def radial_project(v: np.ndarray, sat: SaturationConfig) -> np.ndarray:
    """Rescale v onto the ball of radius ``sat.bound``: :func:`_radial_columns` of one column, bit for bit."""
    v = np.asarray(v, dtype=float)
    if sat.unconstrained or (n := control_norm(v, sat.norm)) <= sat.bound:
        return v
    if n < math.inf:  # the column projection's usual outcome, with plain-float norms
        out = (sat.bound / n) * v
        if control_norm(out, sat.norm) <= sat.bound:
            return out
    return _radial_columns(v.reshape(-1, 1), sat).reshape(v.shape)


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
    return float(np.asarray(u, dtype=float) @ (coupling.bt @ np.asarray(z, dtype=float)))


def _feedback_control(law: FeedbackLaw, coupling: CouplingMatrix):
    """Plant-loop control policy: the saturated law on the step's error, bound-checked."""
    def control(k: int, z: np.ndarray) -> np.ndarray:
        u = saturated_feedback(z, law, coupling)
        if (u_norm := control_norm(u, law.saturation.norm)) > law.saturation.bound:
            raise AssertionError(f"saturation bound violated on step {k}: {u_norm} > {law.saturation.bound}")
        return u

    return control


def track_target(y0: np.ndarray, target, law: FeedbackLaw, coupling: CouplingMatrix,
                 fe: FemOperators, params: SchloeglParams, forcing: ForcingSpec | None = None,
                 cfg: IntegratorConfig | None = None, horizon: float = 1.0) -> TrajectoryRecord:
    """Closed-loop run over [0, horizon] against the target initial state ``target``.

    The target's free trajectory advances in lockstep with the plant (memory
    use independent of the horizon).  A ``y0`` or ``target`` that is not a
    1-D array of one float per mesh node is refused before the first step.
    """
    cfg = cfg or IntegratorConfig()
    return _simulate(y0, _n_steps_for(horizon, cfg.dt), fe, params, forcing, cfg, target, coupling,
                     _feedback_control(law, coupling))
