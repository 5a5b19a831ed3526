"""Semi-discrete Schloegl dynamics and the Crank-Nicolson/Adams-Bashforth stepper.

The PDE  dy/dt - nu*Lap(y) + f(y) = h + (control field),  with cubic
reaction f(w) = (w - z1)(w - z2)(w - z3) and homogeneous Neumann
conditions, is discretized in space with P1 elements (consistent mass,
nodal product approximation of the cubic) and in time with
Crank-Nicolson diffusion / Adams-Bashforth-2 reaction:

    (M/dt + K/2) y1 = (M/dt - K/2) y0 - M (1.5 f(y0) - 0.5 f(y_-1)) + load

Forcing and control enter the load lagged (evaluated at the step start).
The first step is one semi-implicit Euler step (implicit diffusion,
explicit reaction) since AB2 needs two history levels.  Both shifted
operators are symmetric positive definite and banded in the row-major node
ordering; each is Cholesky-factorized once per step size in LAPACK band
storage (pbtrf) and every step solves with the band factor (pbtrs).
Every trajectory of the package (plant, rolling target, receding-horizon
window, replay) advances through one private plant loop, ``_run_plant``,
the one caller of the step of a two-level cursor that counts the run's
time levels, against one ``ForcingLoad``, which gives the load of level n
at time n * dt, and reads its target one row per level.  It logs each level
in place into the run's record, allocated once, strided snapshots included;
it logs amplitudes by the saturation's norm, :func:`.actuators.control_norm`.

On small meshes a step costs per-call overhead more than arithmetic, so
the hot path is kept lean without changing a bit of any result:

- the cursor carries f(y) from one step to the next, so each step
  evaluates the cubic once (a cursor that opens with AB2 history
  evaluates f(y_prev) once, when it is built);
- the stepper's operators (M/dt - K/2, M, M/dt) and the actuator coupling
  B are applied through prepared kernels (``_CsrKernel``): scipy's compiled
  CSR kernel -- the one ``csr_matrix @ x`` ends in, hence the same bits --
  called directly on operands read off the matrix once, when the stepper
  (or a run's plant loop) is built.  The kernel reads its input unchecked,
  so a prepared kernel refuses any vector that is not 1-D float64 of the
  operator's column count;
- an open-loop run, whose amplitudes are known before it starts (an RHC
  window's forward simulation, the RHC plant's applied segment and the
  replay), forms its actuator loads ``LOAD_BLOCK`` steps at a time with
  scipy's multi-vector product ``b @ block``, each column of which is
  bitwise the single-vector product; the forcing is then added to it, as
  per step.  A closed loop forms B u once per step, after its control law.

A target is its initial state, and a lockstep run from level 0 against one
(``track_target``, ``simulate_free`` and ``simulate_controlled`` with one)
steps its free run in a forked child process where that both pays and is
safe: the free run never depends on the plant, and in the parent it would be
a second banded solve per level on the same core, about 40% of a 57 x 57
feedback run.  The child runs the plant loop free on the target cursor and
hands each level to the parent through a shared ring of ``TARGET_RING``
rows; the same code on the same data gives the same bits.  A thread would
not help: the band solve holds the GIL.  The receding-horizon loop keeps the
in-process rolling source: its windows request many levels at once and its
target is a small share of the run.

``_may_fork`` and ``_core_free`` make every decision about forking.
``_may_fork``, whether this process may fork at all, is asked by the lockstep
target's ``_TargetSource.feed`` and by the trial lane of the receding-horizon
line search (:mod:`.rhc`), which costs a backtracking trial in a child while
the parent costs the one before it; ``_core_free``, whether a core is free
now beside the lane's waiting child, by the lane before each hand-over.  Both
helpers set up, end and reap their child through ``_Child``.  A child only
runs ahead: whatever it does not deliver (it failed, blew up or was killed),
the parent does itself with the same code on the same data, so no failure
crosses the fork and a failed child only makes a run slower.  Nothing forks
on a platform other than Linux (a fork without exec is unsafe on macOS), on
one core, in a process-pool worker (its sibling workers hold the other
cores) or beside other Python threads (a lock one of them holds would stay
locked in the child; OpenBLAS ends its own thread pool before a fork); if
the fork itself fails, the work is done in process.
"""

from __future__ import annotations

import math
import mmap
import numbers
import os
import signal
import sys
import threading
from dataclasses import dataclass
from functools import cached_property
from multiprocessing import parent_process
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvec as _csr_matvec_kernel

from .actuators import control_norm
from .geometry import FemOperators, StructuredTriangulation, _BandedCholesky

__all__ = [
    "SchloeglParams",
    "ForcingSpec",
    "IntegratorConfig",
    "TrajectoryRecord",
    "BlowUpError",
    "cubic_reaction",
    "cubic_reaction_derivative",
    "shifted_reaction",
    "shifted_reaction_derivative",
    "eval_forcing",
    "CrankNicolsonAB2",
    "simulate_free",
    "scalar_cnab_trajectory",
]

BLOWUP_LIMIT = 1e8
# Steps per block of the actuator loads of an open-loop run.
LOAD_BLOCK = 32
# Rows of the shared ring through which a forked child hands a lockstep target's levels to the plant; at
# least 3, so that a child dying while it writes level r + 1 leaves the rows of levels r and r - 1 intact.
TARGET_RING = 8


class BlowUpError(RuntimeError):
    """State became nonfinite or exceeded the blow-up limit."""

    def __init__(self, time: float, message: str | None = None):
        self.time = time
        super().__init__(message or f"state blew up at t = {time:.6g}")


@dataclass(frozen=True)
class SchloeglParams:
    """Diffusion coefficient and the three reaction roots."""

    nu: float = 0.1
    roots: tuple[float, float, float] = (-1.0, 0.0, 2.0)

    def __post_init__(self):
        if not self.nu > 0:
            raise ValueError(f"diffusion coefficient must be positive, got {self.nu}")

    @property
    def elementary_sums(self) -> tuple[float, float, float]:
        """(z1+z2+z3, -(z1 z2 + z1 z3 + z2 z3), z1 z2 z3)."""
        z1, z2, z3 = self.roots
        return (z1 + z2 + z3, -(z1 * z2 + z1 * z3 + z2 * z3), z1 * z2 * z3)


def cubic_reaction(w, params: SchloeglParams):
    """f(w) = (w - z1)(w - z2)(w - z3), elementwise (product form)."""
    z1, z2, z3 = params.roots
    return (w - z1) * (w - z2) * (w - z3)


def cubic_reaction_derivative(w, params: SchloeglParams):
    """f'(w), elementwise, from the product rule; each factor w - z_i is formed once."""
    z1, z2, z3 = params.roots
    a, b, c = w - z1, w - z2, w - z3
    return b * c + a * c + a * b


def shifted_reaction(z, y_ref, params: SchloeglParams):
    """Reaction increment around a reference state: f(z + y_ref) - f(y_ref).

    Evaluated in expanded form z^3 + (3 y_ref - s2) z^2
    + (3 y_ref^2 - 2 s2 y_ref - s1) z with (s2, s1) the elementary sums,
    which satisfies the increment identity exactly (nodewise, up to
    roundoff) against the product form of :func:`cubic_reaction`.
    """
    z = np.asarray(z, dtype=float)
    y_ref = np.asarray(y_ref, dtype=float)
    if z.shape != y_ref.shape:
        raise ValueError(f"shape mismatch between error {z.shape} and reference {y_ref.shape}")
    s2, s1, _ = params.elementary_sums
    return z * (z * z + (3.0 * y_ref - s2) * z + (3.0 * y_ref * y_ref - 2.0 * s2 * y_ref - s1))


def shifted_reaction_derivative(z, y_ref, params: SchloeglParams):
    """d/dz of the shifted reaction; equals f'(z + y_ref)."""
    s2, s1, _ = params.elementary_sums
    return 3.0 * z * z + 2.0 * (3.0 * y_ref - s2) * z + (3.0 * y_ref * y_ref - 2.0 * s2 * y_ref - s1)


@dataclass(frozen=True)
class ForcingSpec:
    """External force variants: zero, or the periodic indicator
    0.5 * 1{|sin 6t| > 1/2}(t) * 1{|x|^2 < 1/2}(x); any other ``kind`` is refused."""

    kind: str = "zero"

    def __post_init__(self):
        if self.kind not in ("zero", "periodic"):
            raise ValueError(f"unknown forcing kind {self.kind!r}, expected 'zero' or 'periodic'")

    @staticmethod
    def zero() -> "ForcingSpec":
        return ForcingSpec(kind="zero")

    @staticmethod
    def periodic_indicator() -> "ForcingSpec":
        return ForcingSpec(kind="periodic")

    def time_gate(self, t: float) -> float:
        """Scalar time factor for the periodic variant (0 or 1)."""
        return 1.0 if abs(math.sin(6.0 * t)) > 0.5 else 0.0


def eval_forcing(spec: ForcingSpec, t: float, mesh: StructuredTriangulation) -> np.ndarray:
    """Nodal interpolation of the forcing at time t."""
    if spec.kind == "zero":
        return np.zeros(mesh.n_nodes)
    x, y = mesh.nodes[:, 0], mesh.nodes[:, 1]
    return spec.time_gate(t) * (0.5 * (x * x + y * y < 0.5))


class ForcingLoad:
    """The load M @ h(n * dt) of run level n, for a fixed mesh, forcing and step size; None is zero."""

    def __init__(self, spec: ForcingSpec, fe: FemOperators, dt: float):
        self.spec = spec
        self.fe = fe
        self.dt = dt
        if spec.kind == "periodic":
            # the load with the time gate open (|sin 6t| = 1), assembled once
            self._base = fe.mass @ eval_forcing(spec, math.pi / 12, fe.mesh)

    def __call__(self, n: int) -> np.ndarray | None:
        if self.spec.kind == "periodic" and self.spec.time_gate(n * self.dt) == 1.0:
            return self._base
        return None


@dataclass(frozen=True)
class IntegratorConfig:
    """Time step, state-snapshot stride, and the one control-cost weight of every controller's J."""

    dt: float = 1e-3
    state_stride: int = 10
    cost_beta: float = 0.0

    def __post_init__(self):
        if not 0 < self.dt < math.inf:
            raise ValueError(f"time step must be positive and finite, got dt = {self.dt!r}")
        if (not isinstance(self.state_stride, numbers.Integral) or isinstance(self.state_stride, bool)
                or self.state_stride < 1):
            raise ValueError(f"state stride must be an integer >= 1, got state_stride = {self.state_stride!r}")
        if not 0 <= self.cost_beta < math.inf:
            raise ValueError(f"control-cost weight must be finite and >= 0, got cost_beta = {self.cost_beta!r}")


@dataclass
class TrajectoryRecord:
    """Per-step diagnostics plus strided state snapshots of one run.

    ``times``/``err_norm``/``running_cost`` have one entry per time level
    (n_steps + 1); ``control_norms`` (Euclidean :func:`.actuators.control_norm`)
    and ``controls`` have one entry per step.  ``states`` holds snapshots at
    ``state_levels`` (every ``state_stride`` levels, endpoints always included).
    """

    times: np.ndarray
    err_norm: np.ndarray | None
    control_norms: np.ndarray
    running_cost: np.ndarray
    controls: np.ndarray | None
    states: np.ndarray
    state_levels: np.ndarray

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def final_state(self) -> np.ndarray:
        """State at the last level, which is always stored."""
        return self.states[-1]

    def state_at_level(self, n: int) -> np.ndarray:
        """Stored state at time level n; raises unless n falls on the stride."""
        idx = np.flatnonzero(self.state_levels == n)
        if idx.size == 0:
            raise KeyError(f"state at level {n} was not stored (stride too coarse)")
        return self.states[idx[0]]


_FLOAT64 = np.dtype(np.float64)


class _CsrKernel:
    """``a @ x`` for a float64 CSR matrix ``a``, through the compiled kernel that product ends in.

    The kernel operands are read off ``a`` once, here, so a call skips the
    dispatch of ``@`` and scipy's ``shape`` property, and keeps every bit.
    The kernel does no bounds checks, so the input is checked on every call.
    """

    def __init__(self, a: sp.csr_matrix):
        self.matrix = a
        n_rows, n_cols = a.shape
        self._n_rows = n_rows
        self._n_cols = n_cols
        self._operands = (n_rows, n_cols, a.indptr, a.indices, a.data)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """``a @ x`` for a 1-D float64 vector ``x`` of length ``a.shape[1]``; anything else
        is refused with ``ValueError``."""
        if not (isinstance(x, np.ndarray) and x.dtype == _FLOAT64 and x.shape == (self._n_cols,)):
            raise ValueError(f"mat-vec needs a 1-D float64 vector of length {self._n_cols}, got "
                             f"{getattr(x, 'dtype', type(x).__name__)} of shape {np.shape(x)}")
        y = np.zeros(self._n_rows)
        _csr_matvec_kernel(*self._operands, x, y)
        return y


class CrankNicolsonAB2:
    """Time stepper owning the factorized shifted operators.

    Immutable after construction, apart from the adjoint's stacked kernel,
    derived on first use; safe to share across runs at the same step
    size.  Both shifted operators are symmetric, so the solve and apply
    methods below also apply their transposes (the adjoint reuses them).
    """

    def __init__(self, fe: FemOperators, params: SchloeglParams, dt: float):
        if not dt > 0:
            raise ValueError(f"time step must be positive, got {dt}")
        if params.nu != fe.nu:  # the stiffness carries fe.nu; params.nu is never read
            raise ValueError(f"params.nu = {params.nu!r} differs from the operators' nu = {fe.nu!r}")
        self.fe = fe
        self.params = params
        self.dt = dt
        mass, stiff = fe.mass, fe.stiffness
        self._cn_lhs = _BandedCholesky(mass / dt + 0.5 * stiff)
        self._cn_rhs = _CsrKernel((mass / dt - 0.5 * stiff).tocsr())
        self._euler_lhs = _BandedCholesky(mass / dt + stiff)
        self._mass = _CsrKernel(mass.tocsr())
        self._mass_over_dt = _CsrKernel((mass / dt).tocsr())

    def solve_cn(self, rhs: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Solve (M/dt + K/2) x = rhs; ``overwrite`` lets the solve use the storage of ``rhs``."""
        return self._cn_lhs.solve(rhs, overwrite)

    def solve_startup(self, rhs: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Solve (M/dt + K) x = rhs; ``overwrite`` as for :meth:`solve_cn`."""
        return self._euler_lhs.solve(rhs, overwrite)

    def apply_mass(self, v: np.ndarray) -> np.ndarray:
        """Return M v."""
        return self._mass(v)

    @cached_property
    def _mass_and_cn_rhs(self) -> _CsrKernel:
        # M on top of M/dt - K/2, built on first use: only the adjoint sweep applies both to one vector
        return _CsrKernel(sp.vstack([self._mass.matrix, self._cn_rhs.matrix], format="csr"))

    def apply_mass_and_cn_explicit(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Return (M v, (M/dt - K/2) v) by one product with the two matrices stacked.

        The stacked rows keep the entries of each matrix in its own storage
        order, so each half is bitwise the separate product.
        """
        mv = self._mass_and_cn_rhs(v)
        return mv[:len(v)], mv[len(v):]

    def startup_step(self, y0: np.ndarray, load: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """Semi-implicit Euler: (M/dt + K) y1 = (M/dt) y0 - M f(y0) + load.

        Returns y1 and f(y0), the reaction the next (AB2) step carries.
        """
        f0 = cubic_reaction(y0, self.params)
        rhs = self._mass_over_dt(y0)
        rhs -= self._mass(f0)
        if load is not None:
            rhs += load
        return self._euler_lhs.solve(rhs, overwrite=True), f0

    def ab2_step(self, y_curr: np.ndarray, f_prev: np.ndarray,
                 load: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """CN/AB2 step from y_curr, with f_prev = f(y_prev) carried from the previous step.

        Returns y_next and f(y_curr), the reaction the next step carries.
        """
        f_curr = cubic_reaction(y_curr, self.params)
        rhs = self._cn_rhs(y_curr)
        rhs -= self._mass(1.5 * f_curr - 0.5 * f_prev)
        if load is not None:
            rhs += load
        return self._cn_lhs.solve(rhs, overwrite=True), f_curr

    def check_finite(self, y: np.ndarray, t: float) -> None:
        if not np.abs(y).max() <= BLOWUP_LIMIT:  # false for NaN and inf as well
            raise BlowUpError(t)


class _Cursor:
    """AB2 history (y_prev, y) of a trajectory at run level ``level``.

    ``step`` takes the startup step while there is no history, else the
    AB2 step, and checks the new state at time level * dt.  The reaction
    f(y_prev) is carried from step to step; a cursor opened with history
    evaluates it once, here.
    """

    def __init__(self, stepper: CrankNicolsonAB2, y: np.ndarray, y_prev: np.ndarray | None = None,
                 level: int = 0):
        self.stepper = stepper
        self.y_prev = y_prev
        self.y = np.asarray(y, dtype=float)
        self.f_prev = None if y_prev is None else cubic_reaction(y_prev, stepper.params)
        self.level = level

    def step(self, load: np.ndarray | None) -> np.ndarray:
        if self.f_prev is None:
            y_next, f = self.stepper.startup_step(self.y, load)
        else:
            y_next, f = self.stepper.ab2_step(self.y, self.f_prev, load)
        self.level += 1
        self.stepper.check_finite(y_next, self.level * self.stepper.dt)
        self.y_prev, self.y, self.f_prev = self.y, y_next, f
        return y_next


class _Recorder:
    """Fills ``record``, the :class:`TrajectoryRecord` of a run, in place, one ``log`` call per level.

    Every array of the record, the strided snapshot rows included, is allocated here, once.
    """

    def __init__(self, cfg: IntegratorConfig, n_steps: int, n_nodes: int, n_controls: int | None,
                 track_error: bool):
        self.cfg = cfg
        self._prev_err_sq = 0.0
        levels = np.append(np.arange(0, n_steps, cfg.state_stride), n_steps)  # the last level always
        self.record = TrajectoryRecord(
            times=np.arange(n_steps + 1) * cfg.dt,
            err_norm=np.zeros(n_steps + 1) if track_error else None,
            control_norms=np.zeros(n_steps),
            running_cost=np.zeros(n_steps + 1),
            controls=np.zeros((n_steps, n_controls)) if n_controls else None,
            states=np.empty((len(levels), n_nodes)),
            state_levels=levels)

    def log(self, n: int, y: np.ndarray, err_sq: float | None, u: np.ndarray | None = None):
        """Level n, and the amplitudes u of the step that reached it (None: no control)."""
        rec, dt, stride = self.record, self.cfg.dt, self.cfg.state_stride
        cost = 0.0
        if u is not None:
            # the cost and the stored series weigh the Euclidean norm whatever the saturation
            # norm, so the running cost re-integrates from the CSV columns
            eu = control_norm(u)
            rec.control_norms[n - 1] = eu
            rec.controls[n - 1] = u  # controls exists: a controlled run has a coupling
            # exact integral of the piecewise-constant control on [t_n-1, t_n]
            cost = self.cfg.cost_beta * dt * eu * eu
        e2 = 0.0 if err_sq is None else max(err_sq, 0.0)
        if rec.err_norm is not None:
            rec.err_norm[n] = math.sqrt(e2)
        if n > 0:
            rec.running_cost[n] = cost + (rec.running_cost[n - 1] + 0.5 * dt * (self._prev_err_sq + e2))
        self._prev_err_sq = e2
        if n % stride == 0 or n == rec.n_steps:
            rec.states[-(-n // stride)] = y  # the row of level n: ceil(n / stride)


def _n_steps_for(horizon: float, dt: float) -> int:
    if not math.isfinite(horizon):
        raise ValueError(f"horizon must be finite, got horizon = {horizon!r}")
    n = round(horizon / dt)
    if n < 1 or abs(n * dt - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon {horizon} is not a positive multiple of the step size {dt}")
    return n


def _nodal_state(y, name: str, n_nodes: int) -> np.ndarray:
    """``y`` as a float64 array; ``ValueError`` naming ``name`` unless it is a 1-D array of ``n_nodes`` floats."""
    try:
        a = np.asarray(y, dtype=float)
    except (TypeError, ValueError):  # not numbers: a TrajectoryRecord, say
        a = None
    if a is None or a.shape != (n_nodes,):
        got = type(y).__name__ if a is None else f"shape {a.shape}"
        raise ValueError(f"{name} must be a state: a 1-D array of {n_nodes} floats, one per mesh node; got {got}")
    return a


class _TargetSource:
    """The target's states by time level: the free run from the initial state ``y0`` under ``load``.

    ``window(n0, n_steps)`` returns levels n0..n0+n_steps as read-only rows;
    a request starts from the previous one to the level after the last one
    stepped.  The source steps each level once, through the plant loop run
    free, and keeps only the levels from the latest request on, so lockstep
    use holds one state.

    ``row(n)`` is the state at level n for the lockstep reads n = 0, 1, ....
    After ``feed``, a forked child steps the free run into a shared ring and
    ``row(n)`` is a view of a ring row, valid until the next read.  Should the
    child end before level n, the free run goes on here from the last two
    levels it delivered, with the bits and errors of the in-process source.
    ``close`` reaps the child.
    """

    def __init__(self, stepper: CrankNicolsonAB2, y0: np.ndarray, load: ForcingLoad):
        self._cursor = _Cursor(stepper, y0)
        self._rows = self._cursor.y[None]  # states at levels self._base, self._base + 1, ...
        self._base = 0
        self._load = load
        self._child: _Child | None = None

    def feed(self, n_steps: int) -> None:
        """Step the free run's levels 1..n_steps in a forked child, where ``_may_fork`` allows and the fork works."""
        cursor = self._cursor
        if not _may_fork():
            return
        ring = _shared_floats(TARGET_RING, len(cursor.y))
        ring[0] = cursor.y
        try:
            self._child = _Child(lambda free, ready: _run_plant(cursor, n_steps, self._load,
                                                                states=_RingWriter(ring, ready, free)))
        except OSError:  # the fork failed: the target is stepped here
            return
        ring.flags.writeable = False
        self._ring = ring
        self._ready = 0  # levels the child has delivered
        self._level = 0  # the latest request

    def row(self, n: int) -> np.ndarray:
        if self._child is not None:
            if n > self._level:  # the rows of the levels passed are free
                try:
                    os.write(self._child.send, b"." * (n - self._level))
                except BrokenPipeError:  # the child has ended: it needs no more rows
                    pass
                self._level = n
            while self._ready < n:
                got = os.read(self._child.recv, 4096)
                if not got:  # the child ended before level n: its free run goes on here
                    self._resume()
                    break
                self._ready += len(got)
            else:  # level n is in the ring
                return self._ring[n % TARGET_RING]
        return self.window(n, 0)[0]

    def window(self, n0: int, n_steps: int) -> np.ndarray:
        cursor = self._cursor
        if not self._base <= n0 <= cursor.level + 1:
            raise ValueError(f"target level {n0} is out of order: a request starts at a level from "
                             f"{self._base}, the previous request, to {cursor.level + 1}, the next one to step")
        rows = self._rows[n0 - self._base:]
        if len(rows) <= n_steps:
            grown = np.empty((n_steps + 1, len(cursor.y)))
            grown[:len(rows)] = rows
            _run_plant(cursor, n0 + n_steps - cursor.level, self._load, states=grown[cursor.level + 1 - n0:])
            rows = grown
        rows.flags.writeable = False
        self._rows, self._base = rows, n0
        return rows[:n_steps + 1]

    def _resume(self) -> None:
        """Reap the ended child and go on in process from the levels r and r - 1 it delivered last."""
        self.close()
        r, ring = self._ready, self._ring
        prev = ring[(r - 1) % TARGET_RING] if r else None
        self._cursor = _Cursor(self._cursor.stepper, ring[r % TARGET_RING], prev, r)
        self._rows, self._base = self._cursor.y[None], r

    def close(self) -> None:
        """Kill and reap the child, if one feeds the source."""
        if self._child is not None:
            self._child.reap()
            self._child = None


def _shared_floats(*shape: int) -> np.ndarray:
    """A zeroed float64 array of ``shape`` in anonymous memory, shared with every child forked after this call."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), dtype=np.float64).reshape(shape)


class _RingWriter:
    """The child's ``states`` sink: level k + 1 goes into ring row (k + 1) % TARGET_RING, then a
    b"+" on ``ready``; a row is overwritten only after a byte on ``free`` says its level was read."""

    def __init__(self, rows: np.ndarray, ready: int, free: int):
        self._rows, self._ready, self._free = rows, ready, free
        self._credit = len(rows) - 1  # row 0 holds level 0

    def __setitem__(self, k: int, y: np.ndarray) -> None:
        if self._credit == 0:
            freed = os.read(self._free, 4096)
            if not freed:
                raise EOFError("the plant process has gone")
            self._credit = len(freed)
        self._credit -= 1
        self._rows[(k + 1) % len(self._rows)] = y
        os.write(self._ready, b"+")


class _Child:
    """A forked child process running ``work(recv, send)``, and the parent's ends of two pipes to it.

    In the child, ``recv`` reads what the parent writes to ``self.send``, and
    what ``work`` writes to ``send`` the parent reads from ``self.recv``.  A
    child only runs ahead of its parent, which does itself whatever the child
    does not deliver, so the child reports nothing: it ends through
    ``os._exit`` (no atexit handlers, no flush of inherited stdio buffers)
    when ``work`` returns or raises, and the parent sees the end of ``recv``.
    Building one raises ``OSError``, with no descriptor left open, if the
    pipes or the fork cannot be made.
    """

    def __init__(self, work: Callable[[int, int], None]):
        fds = []
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:  # no descriptor, process or memory to spare: nothing is left open
            for fd in fds:
                os.close(fd)
            raise
        self.recv, send, recv, self.send = fds
        if pid == 0:
            try:
                os.close(self.recv)
                os.close(self.send)
                work(recv, send)
            finally:
                os._exit(0)
        self.pid = pid
        os.close(send)
        os.close(recv)

    def reap(self) -> None:
        """Close the parent's ends, kill the child (harmless if it has ended or idles) and reap it."""
        os.close(self.recv)
        os.close(self.send)
        os.kill(self.pid, signal.SIGKILL)  # not yet reaped, so the pid is still the child's
        os.waitpid(self.pid, 0)


def _run_plant(cursor: _Cursor, n_steps: int, forcing: ForcingLoad, b=None, control=None,
               target: Callable[[int], np.ndarray] | None = None, rec: _Recorder | None = None,
               states: np.ndarray | None = None) -> None:
    """Advance ``cursor`` by ``n_steps`` steps: the plant loop of every run.

    Step k from level n applies ``forcing(n)`` (None: zero) plus ``b @ u`` (b a
    float64 CSR matrix, as a :class:`.actuators.CouplingMatrix` holds it)
    with the float64 amplitudes u of step k.  A closed loop passes the
    callable ``control(k, z)``, which returns u from z, the error against
    ``target(n)``, the target's row at level n, read once per level (None
    without a target); an open loop passes the array whose column k is u,
    and its loads are formed ``LOAD_BLOCK`` steps at a time.  ``control=None`` runs the plant free.  ``rec``
    logs each new level, and level 0 before the first step; ``states``
    receives the new states in rows 0..n_steps-1.
    """
    apply_mass = cursor.stepper.apply_mass
    open_loop = isinstance(control, np.ndarray)
    if control is not None and not open_loop:
        b = _CsrKernel(b)

    def error():
        if target is None:
            return None, None
        z = cursor.y - target(cursor.level)
        return z, float(z @ apply_mass(z))

    z, err_sq = error()
    if rec is not None and cursor.level == 0:
        rec.log(0, cursor.y, err_sq)
    for k in range(n_steps):
        load = forcing(cursor.level)
        u = None
        if open_loop:
            j = k % LOAD_BLOCK
            if j == 0:  # rows made contiguous: a strided row added to the forcing costs more on a large mesh
                loads = np.ascontiguousarray((b @ control[:, k:min(k + LOAD_BLOCK, n_steps)]).T)
            u, bu = control[:, k], loads[j]
        elif control is not None:
            u = control(k, z)
            bu = b(u)
        if u is not None:
            if load is not None:
                bu += load
            load = bu
        y = cursor.step(load)
        z, err_sq = error()
        if rec is not None:
            rec.log(cursor.level, y, err_sq, u)
        if states is not None:
            states[k] = y


def _may_fork() -> bool:
    """Whether this process may hand work to a forked child (see the module docstring): on Linux, with a
    second core to run on, no other Python thread, and outside a process-pool worker.  The one gate of
    both forked helpers, the lockstep target and the receding-horizon line search's trial lane."""
    return (sys.platform.startswith("linux") and parent_process() is None
            and threading.active_count() == 1 and len(os.sched_getaffinity(0)) > 1)


def _core_free(child: _Child | None) -> bool:
    """Whether a core is free now for a child of this process: fewer tasks are runnable on the host
    (the fourth field of /proc/loadavg), this process included, than it may run on.  ``child``, this
    process's child waiting for work (None: none), is left out of that count only if its own state,
    read after it, still shows it runnable, as it may just after it answers: nothing wakes it in
    between, so the host counted it.  Without the host's reading a core counts as free."""
    try:
        with open("/proc/loadavg", "rb") as fh:
            runnable = int(fh.read().split()[3].split(b"/")[0])
    except (OSError, ValueError, IndexError):
        return True
    if child is not None and _runnable(child.pid):
        runnable -= 1
    return runnable < len(os.sched_getaffinity(0))


def _runnable(pid: int) -> bool:
    """Whether the process ``pid`` reads runnable (state R in /proc/<pid>/stat); False if unreadable."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as fh:
            return fh.read().rpartition(b")")[2].split()[0] == b"R"
    except (OSError, IndexError):
        return False


def _simulate(y0: np.ndarray, n_steps: int, fe: FemOperators, params: SchloeglParams,
              forcing: ForcingSpec | None, cfg: IntegratorConfig, target=None,
              coupling=None, control=None) -> TrajectoryRecord:
    """Record of a run from level 0 against the free run from the target initial state ``target``
    (None: no target), its control cost weighed by ``cfg.cost_beta``; plant and target share one
    stepper.  The target is stepped in a forked child where ``_may_fork`` allows, else in process,
    with the same bits.  ``y0`` and ``target`` are checked before anything is set up."""
    y0 = _nodal_state(y0, "y0", fe.mesh.n_nodes)
    if target is not None:
        target = _nodal_state(target, "target", fe.mesh.n_nodes)
    stepper = CrankNicolsonAB2(fe, params, cfg.dt)
    forcing = forcing or ForcingSpec.zero()
    load = ForcingLoad(forcing, fe, cfg.dt)
    b, count = (None, None) if coupling is None else (coupling.b, coupling.count)
    rec = _Recorder(cfg, n_steps, fe.mesh.n_nodes, count, track_error=target is not None)
    source = None if target is None else _TargetSource(stepper, target, load)
    if source is not None:
        source.feed(n_steps)
    try:
        _run_plant(_Cursor(stepper, y0), n_steps, load, b, control, None if source is None else source.row, rec)
    finally:
        if source is not None:
            source.close()
    return rec.record


def simulate_free(y0: np.ndarray, horizon: float, fe: FemOperators, params: SchloeglParams,
                  forcing: ForcingSpec | None = None, cfg: IntegratorConfig | None = None,
                  target=None) -> TrajectoryRecord:
    """Uncontrolled trajectory from y0 over [0, horizon], logged against the free run from the
    target initial state ``target`` if given.  Raises :class:`BlowUpError` with the offending time
    if the state leaves the finite range.
    """
    cfg = cfg or IntegratorConfig()
    return _simulate(y0, _n_steps_for(horizon, cfg.dt), fe, params, forcing, cfg, target)


def scalar_cnab_trajectory(y0: float, dt: float, n_steps: int, params: SchloeglParams,
                           forcing_values: np.ndarray | None = None) -> np.ndarray:
    """Scalar oracle: the same CN/AB2 recurrences with all spatial terms absent.

    Spatially constant PDE data reduces exactly to
        y1 = y0 - dt f(y0) + dt h0
        y_{n+1} = y_n - dt (1.5 f(y_n) - 0.5 f(y_{n-1})) + dt h_n.
    """
    h = np.zeros(n_steps) if forcing_values is None else np.asarray(forcing_values, dtype=float)
    out = np.empty(n_steps + 1)
    out[0] = y0
    out[1] = y0 - dt * cubic_reaction(y0, params) + dt * h[0]
    for n in range(1, n_steps):
        f_curr = cubic_reaction(out[n], params)
        f_prev = cubic_reaction(out[n - 1], params)
        out[n + 1] = out[n] - dt * (1.5 * f_curr - 0.5 * f_prev) + dt * h[n]
    return out
