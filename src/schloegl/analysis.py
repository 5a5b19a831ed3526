"""Closed-form theory constants, the discrete spectral margin, and diagnostics.

The constants quantify the nonlinearity-driven absorbing ball of the
tracking error: for decay rate mu and reaction roots with elementary
sums (s2, s1, s0),

    quad_max   = (50/11) s2^2 - 2 s1        (max of the quadratic envelope)
    growth     = (128/15) s2^2 + quad_max + 2
    radius_raw = (2 mu + sqrt(4 mu^2 + growth / (2 |Omega|))) * 4 |Omega|
    radius     = max(1, radius_raw)
    margin_req = 2 mu + growth
    sat_bound  = gain * (min box volume)^(-1/2) * radius

The discrete stabilizability margin is the smallest eigenvalue of the
symmetric pencil  (K + M + 2 lam B G^-1 B^T) w = theta M w,  computed by
shift-invert Lanczos at shift 0.  The actuator term is never assembled:
it has rank ``count``, so the shift-invert solve is one banded Cholesky
solve with K + M plus a ``count``-dimensional Sherman-Morrison-Woodbury
correction.  K + M depends on neither the gain nor the actuators, so its
factor is computed once per mesh (``FemOperators.energy_factor``) and a
sweep over gains and actuator grids reuses it.  The start vector is a
fixed pseudo-random one; a start vector invariant under the mesh
symmetries would keep Lanczos inside the symmetric subspace and miss a
smallest eigenvalue of another symmetry class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from ._checks import is_real, require
from .actuators import ActuatorGrid, CouplingMatrix, control_operator_inverse_norm
from .dynamics import BlowUpError, SchloeglParams
from .geometry import FemOperators

__all__ = [
    "TheoryConstants",
    "MarginReport",
    "MarginSolveError",
    "compute_theory_constants",
    "stabilizability_margin",
    "fit_decay_rate",
    "check_gen_poly",
    "ode_toy_simulate",
]

NORM_FLOOR = 1e-14
FIT_FLOOR = 1e-12
MARGIN_TOL = 1e-8  # relative pencil residual accepted by stabilizability_margin
TOY_DT = 1e-4  # RK4 step of ode_toy_simulate


@dataclass(frozen=True)
class TheoryConstants:
    """Derived decay/absorbing-ball constants for one parameter set."""

    decay_rate: float
    elementary_sums: tuple[float, float, float]
    quad_max: float
    growth_constant: float
    absorbing_radius_raw: float
    absorbing_radius: float
    margin_requirement: float
    saturation_inactivity_bound: float

    @property
    def entry_time_bound(self) -> float:
        """Sufficient time bound for the error to enter the absorbing ball."""
        return (self.decay_rate ** 2 * self.absorbing_radius) ** -0.5


def compute_theory_constants(mu: float, roots: tuple[float, float, float], area: float,
                             gain: float, grid: ActuatorGrid) -> TheoryConstants:
    """Evaluate all closed-form constants for rate mu on a domain of given area.

    Refuses a rate or an area that is not finite and > 0, and a gain that is not finite and >= 0.
    """
    require(is_real(mu) and mu > 0, "decay rate", "positive and finite", "mu", mu)
    require(is_real(area) and area > 0, "domain area", "positive and finite", "area", area)
    require(is_real(gain) and gain >= 0, "gain", "finite and >= 0", "gain", gain)
    s2, s1, s0 = SchloeglParams(roots=roots).elementary_sums
    quad_max = (50.0 / 11.0) * s2 * s2 - 2.0 * s1
    growth = (128.0 / 15.0) * s2 * s2 + quad_max + 2.0
    inv_area = 1.0 / area
    # root patterns with strongly negative pair sums make the growth
    # constant negative; the quartic damping then wins at every radius
    radicand = 4.0 * mu * mu + 0.5 * inv_area * growth
    radius_raw = 0.0 if radicand < 0 else (2.0 * mu + math.sqrt(radicand)) / (0.25 * inv_area)
    radius = max(1.0, radius_raw)
    margin_req = 2.0 * mu + growth
    sat_bound = gain * control_operator_inverse_norm(grid) * radius
    return TheoryConstants(
        decay_rate=mu,
        elementary_sums=(s2, s1, s0),
        quad_max=quad_max,
        growth_constant=growth,
        absorbing_radius_raw=radius_raw,
        absorbing_radius=radius,
        margin_requirement=margin_req,
        saturation_inactivity_bound=sat_bound,
    )


@dataclass(frozen=True)
class MarginReport:
    """Smallest pencil eigenvalue, its pencil residual, against the required margin."""

    m: int
    gain: float
    min_eigenvalue: float
    residual: float  # |(K + M + 2 gain B G^-1 B^T) w - theta M w| / |w|
    required_margin: float
    passed: bool


class MarginSolveError(RuntimeError):
    """The shift-invert Lanczos solve did not converge, or its eigenpair
    failed the pencil residual check."""


def stabilizability_margin(gain: float, coupling: CouplingMatrix, fe: FemOperators,
                           required_margin: float = 0.0) -> MarginReport:
    """Smallest theta with (K + M + 2 gain B G^-1 B^T) w = theta M w.

    With A = K + M and C = 2 gain G^-1, the shift-invert operator is
    applied by Sherman-Morrison-Woodbury,

        (A + B C B^T)^-1 x = y - W S^-1 (B^T y),  y = A^-1 x,  W = A^-1 B,

    S = C^-1 + B^T W being the SPD ``count`` x ``count`` capacitance
    matrix; gain = 0 leaves the plain solve with A.  A and its banded
    Cholesky factor are built once per ``fe`` (``fe.energy``,
    ``fe.energy_factor``) and shared by every call on it; W and S are
    formed per call.  Lanczos starts from a fixed pseudo-random vector.
    theta >= 1 always (V-norm dominates the L2 norm); gain = 0 gives
    exactly 1 with the constant eigenvector.  Refuses a gain that is not
    finite and >= 0, and a coupling built on another mesh, before any
    factorization.  Raises :class:`MarginSolveError` on Lanczos
    nonconvergence or if the pencil residual, with the pencil applied in
    factored form, exceeds ``MARGIN_TOL`` relative to max(1, theta).
    """
    require(is_real(gain) and gain >= 0, "gain", "finite and >= 0", "gain", gain)
    mass = fe.mass
    n = mass.shape[0]
    if coupling.b.shape[0] != n:
        raise ValueError(f"coupling has {coupling.b.shape[0]} nodes, the operators' mesh has {n}")
    base, chol = fe.energy, fe.energy_factor
    b, bt = coupling.b, coupling.bt
    if gain > 0:
        weights = 2.0 * gain / coupling.volumes  # the diagonal of C
        w_mat = chol.solve(b.toarray())
        cap = cho_factor(np.diag(1.0 / weights) + bt @ w_mat)

        def apply_pencil(v):
            return base @ v + b @ (weights * (bt @ v))

        def solve_pencil(x):
            y = chol.solve(x)
            return y - w_mat @ cho_solve(cap, bt @ y)
    else:
        apply_pencil, solve_pencil = base.dot, chol.solve

    pencil = LinearOperator((n, n), matvec=apply_pencil, dtype=float)
    op_inv = LinearOperator((n, n), matvec=solve_pencil, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        vals, vecs = eigsh(pencil, k=1, M=mass, sigma=0.0, which="LM", v0=v0, tol=MARGIN_TOL * 1e-2,
                           OPinv=op_inv)
    except ArpackNoConvergence as exc:
        raise MarginSolveError(f"shift-invert Lanczos did not converge: {exc}") from exc
    theta = float(vals[0])
    w = vecs[:, 0]
    resid = math.sqrt(np.sum((apply_pencil(w) - theta * (mass @ w)) ** 2) / (w @ w))
    if resid > MARGIN_TOL * max(1.0, abs(theta)):
        raise MarginSolveError(f"pencil residual {resid:.3e} exceeds tolerance {MARGIN_TOL:.1e}")
    return MarginReport(
        m=coupling.grid.m,
        gain=gain,
        min_eigenvalue=theta,
        residual=resid,
        required_margin=required_margin,
        passed=theta >= required_margin,
    )


def fit_decay_rate(times: np.ndarray, norms: np.ndarray) -> tuple[float, tuple[float, float], float]:
    """Estimate the exponential rate of a norm series by a log-linear fit.

    The fit runs over the longest contiguous window with norms in
    [1e-12, 0.5 * initial]; if that window is too short (e.g. the series
    never halves), all samples above the floor are used instead.
    Returns (rate_estimate, (t_start, t_end), rms_residual); the rate is
    minus the fitted slope of log(norm).
    """
    times = np.asarray(times, dtype=float)
    norms = np.asarray(norms, dtype=float)
    if times.shape != norms.shape or times.ndim != 1:
        raise ValueError("times and norms must be 1-D arrays of equal length")
    above_floor = norms > NORM_FLOOR
    if np.count_nonzero(above_floor) < 10:
        raise ValueError("need at least 10 samples above the numerical floor")

    in_band = (norms >= FIT_FLOOR) & (norms <= 0.5 * norms[0])
    idx = _longest_true_run(in_band)
    if idx is None or idx.stop - idx.start < 2:
        idx_arr = np.flatnonzero(norms >= FIT_FLOOR)
        if idx_arr.size < 2:
            raise ValueError("fewer than 2 samples above the fit floor")
        sel_t, sel_n = times[idx_arr], norms[idx_arr]
    else:
        sel_t, sel_n = times[idx], norms[idx]

    logs = np.log(sel_n)
    coeffs = np.polyfit(sel_t, logs, 1)
    resid = float(np.sqrt(np.mean((np.polyval(coeffs, sel_t) - logs) ** 2)))
    return -float(coeffs[0]), (float(sel_t[0]), float(sel_t[-1])), resid


def _longest_true_run(mask: np.ndarray) -> slice | None:
    best = None
    start = None
    for i, flag in enumerate(mask):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            if best is None or i - start > best.stop - best.start:
                best = slice(start, i)
            start = None
    if start is not None:
        if best is None or len(mask) - start > best.stop - best.start:
            best = slice(start, len(mask))
    return best


def check_gen_poly(beta0: float, beta1: float, beta2: float, p: float, kappa: float) -> bool:
    """Whether  -beta2 k^p + beta0 k <= -beta1 k^((p+1)/2)  holds at k = kappa.

    Guaranteed true whenever kappa^((p-1)/2) >= (beta1 +
    sqrt(beta1^2 + 4 beta2 beta0)) / (2 beta2).
    """
    for name, val in (("beta0", beta0), ("beta1", beta1), ("beta2", beta2), ("p", p), ("kappa", kappa)):
        require(is_real(val) and val > 0, name, "positive and finite", name, val)
    lhs = -beta2 * kappa ** p + beta0 * kappa
    rhs = -beta1 * kappa ** ((p + 1.0) / 2.0)
    return lhs <= rhs


def ode_toy_simulate(r: float, bound: float, mu: float, z0: float, horizon: float,
                     law: str = "feedback") -> tuple[np.ndarray, np.ndarray]:
    """Scalar toy  dz/dt + r z = u  with clamped linear feedback, by RK4 with step ``TOY_DT``.

    The feedback u = clamp((r - mu) z, +-bound) yields the closed loop
    dz/dt = -mu z while the clamp is inactive, i.e. z(t)^2 =
    exp(-2 mu t) z0^2.  With law="free" the control is zero.  The scalar
    radial projection is the symmetric clamp.  Raises :class:`.dynamics.BlowUpError`
    with the time of the first value that overflows to a non-finite one.
    """
    for name, val in (("r", r), ("mu", mu), ("z0", z0)):
        require(is_real(val), name, "finite", name, val)
    require(is_real(horizon) and horizon > 0, "horizon", "positive and finite", "horizon", horizon)
    require(is_real(bound, inf=True) and bound >= 0, "bound", ">= 0", "bound", bound)
    if law not in ("feedback", "free"):
        raise ValueError(f"unknown law tag {law!r}")
    gain = r - mu

    def rate(z):
        if law == "free":
            u = 0.0
        else:
            u = min(max(gain * z, -bound), bound)
        return -r * z + u

    dt = TOY_DT
    n = int(round(horizon / dt))
    times = np.arange(n + 1) * dt
    out = np.empty(n + 1)
    z = float(z0)
    out[0] = z
    for k in range(n):
        k1 = rate(z)
        k2 = rate(z + 0.5 * dt * k1)
        k3 = rate(z + 0.5 * dt * k2)
        k4 = rate(z + dt * k3)
        z = z + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not math.isfinite(z):
            raise BlowUpError(times[k + 1])
        out[k + 1] = z
    return times, out
