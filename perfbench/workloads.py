"""Benchmark workloads: inputs from a seed, set-up, the timed driver call, output checks.

Every ``schloegl`` function is looked up through its module attribute at
call time, so the traced run sees these calls too.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from schloegl import actuators, analysis, dynamics, experiments, geometry, rhc

# Seed 0 runs the paper's inputs; any other seed moves them by at most this
# relative amount, deterministically.
SEED_AMPLITUDE = 1e-4
# Pinned seed-0 values must agree to this relative tolerance: a roundoff-level
# change of the solvers passes, a change of the numerics does not.
REFERENCE_RTOL = 1e-6
# J_total against its re-integration from the 17-digit series.csv columns.
REINTEGRATION_RTOL = 1e-9


def _seed_offset(seed: int) -> float:
    """0 for seed 0, else a deterministic value in [-1, 1)."""
    if seed == 0:
        return 0.0
    return 2.0 * float(np.random.default_rng(seed).random()) - 1.0


def _relative_mismatches(observed: dict, reference: dict) -> list[str]:
    return [f"{key} = {observed[key]!r} differs from the pinned {ref!r}"
            for key, ref in reference.items()
            if not abs(observed[key] - ref) <= REFERENCE_RTOL * abs(ref)]


def reintegrated_cost(series_csv: Path, beta: float) -> float:
    """Trapezoid on err_l2^2 plus beta * dt * u_norm^2 per step, from the CSV."""
    cols = np.loadtxt(series_csv, delimiter=",", skiprows=1, ndmin=2)
    t, err, u = cols[:, 0], cols[:, 1], cols[:, 3]
    dt = np.diff(t)
    return float(np.sum(0.5 * dt * (err[:-1] ** 2 + err[1:] ** 2)) + beta * np.sum(dt * u[:-1] ** 2))


@dataclass(frozen=True)
class ScenarioWorkload:
    """One ``run_scenario`` call, the driver of ``simulate-feedback``/``run-rhc``."""

    name: str
    config: dict
    reference: dict  # seed-0 values of ``observed``

    def inputs(self, seed: int) -> experiments.ScenarioConfig:
        cfg = experiments.ScenarioConfig(**self.config)
        y0 = float(cfg.y0.split(":", 1)[1]) + SEED_AMPLITUDE * _seed_offset(seed)
        return replace(cfg, cu=experiments.parse_bound(cfg.cu_tag), y0=f"constant:{y0!r}")

    def setup(self, cfg):
        domain = geometry.RectangleDomain(cfg.lx, cfg.ly)
        fe = geometry.build_fem(cfg.nx, cfg.ny, cfg.nu, domain)
        grid = actuators.build_actuator_grid(cfg.m, cfg.r, domain)
        coupling = actuators.discretize_actuators(grid, fe.mesh)
        params = dynamics.SchloeglParams(nu=cfg.nu, roots=cfg.zeta)
        dynamics.CrankNicolsonAB2(fe, params, cfg.dt)
        return SimpleNamespace(fe=fe, coupling=coupling, params=params)

    def run(self, cfg, ops, out_dir: Path):
        return experiments.run_scenario(cfg, out_dir)

    def iterations(self, art) -> int:
        return int(art.summary.get("rhc_iterations_total", 0))

    def observed(self, art) -> dict:
        return {"J_total": art.summary["J_total"], "final_err_l2": art.summary["final_err_l2"]}

    def check(self, cfg, ops, art, seed: int) -> list[str]:
        status = art.summary["status"]
        if status != "completed":
            return [f"status {status}"]
        errors = []
        j_total = art.summary["J_total"]
        j_csv = reintegrated_cost(art.series_csv, cfg.rhc_beta)
        if not abs(j_csv - j_total) <= REINTEGRATION_RTOL * abs(j_total):
            errors.append(f"J_total {j_total!r} does not re-integrate from series.csv ({j_csv!r})")
        if cfg.controller == "rhc":
            errors += self._replay_errors(cfg, ops, art.record)
        if seed == 0:
            errors += _relative_mismatches(self.observed(art), self.reference)
        return errors

    @staticmethod
    def _replay_errors(cfg, ops, record) -> list[str]:
        """Logged controls through ``simulate_controlled`` must reproduce the run bitwise."""
        integ = dynamics.IntegratorConfig(dt=cfg.dt, state_stride=cfg.state_stride, cost_beta=cfg.rhc_beta)
        replay = rhc.simulate_controlled(
            experiments.initial_field(cfg.y0, ops.fe.mesh), record.controls.T, ops.coupling, ops.fe,
            ops.params, experiments.forcing_spec(cfg.forcing), integ,
            target_y0=experiments.initial_field(cfg.yhat0, ops.fe.mesh), beta=cfg.rhc_beta)
        if np.array_equal(replay.final_state, record.final_state) and np.array_equal(replay.states, record.states):
            return []
        return ["replaying the logged RHC controls does not reproduce the plant states bitwise"]


@dataclass(frozen=True)
class MarginWorkload:
    """Discrete stabilizability margins: a gain sweep at one actuator grid and a
    large-gain value per grid, as ``schloegl margin`` computes them."""

    name: str
    nx: int
    width_fraction: float
    grids: tuple
    sweep_grid: int
    gains: tuple
    large_gain: float
    reference: dict

    @property
    def config(self) -> dict:
        return {"nx": self.nx, "r": self.width_fraction, "m": list(self.grids), "sweep_m": self.sweep_grid,
                "gains": list(self.gains), "large_gain": self.large_gain}

    def inputs(self, seed: int) -> dict:
        """Gains of the sweep; seeds other than 0 scale the nonzero ones."""
        scale = 1.0 + SEED_AMPLITUDE * _seed_offset(seed)
        return {"gains": [g * scale for g in self.gains], "large_gain": self.large_gain * scale}

    def setup(self, inp):
        fe = geometry.build_fem(self.nx, self.nx, 0.1)
        couplings = {m: actuators.discretize_actuators(actuators.build_actuator_grid(m, self.width_fraction), fe.mesh)
                     for m in self.grids}
        return SimpleNamespace(fe=fe, couplings=couplings)

    def run(self, inp, ops, out_dir: Path) -> list:
        sweep = [analysis.stabilizability_margin(g, ops.couplings[self.sweep_grid], ops.fe) for g in inp["gains"]]
        large = [analysis.stabilizability_margin(inp["large_gain"], ops.couplings[m], ops.fe) for m in self.grids]
        return sweep + large

    def iterations(self, reports) -> int:
        return 0

    def observed(self, reports) -> dict:
        n = len(self.gains)
        out = {f"theta_m{self.sweep_grid}_g{i}": r.min_eigenvalue for i, r in enumerate(reports[:n])}
        out.update({f"theta_m{m}_large": r.min_eigenvalue for m, r in zip(self.grids, reports[n:])})
        return out

    def check(self, inp, ops, reports, seed: int) -> list[str]:
        errors = []
        n = len(self.gains)
        chain = [r.min_eigenvalue for r in reports[:n]]
        chain.append(reports[n + self.grids.index(self.sweep_grid)].min_eigenvalue)
        if inp["gains"][0] == 0.0 and not abs(chain[0] - 1.0) < 1e-8:
            errors.append(f"margin at gain 0 is {chain[0]!r}, not 1")
        if any(b < a - 1e-10 for a, b in zip(chain, chain[1:])):
            errors.append(f"margins are not monotone in the gain: {chain}")
        if seed == 0:
            errors += _relative_mismatches(self.observed(reports), self.reference)
        return errors


_TABLE1 = dict(nx=57, ny=57, dt=1e-3, forcing="periodic", r=0.33, norm="max", gain=175.0,
               yhat0="constant:2", y0="constant:-1", csv_stride=1)
_RHC = dict(_TABLE1, nx=16, ny=16, controller="rhc", rhc_horizon=0.75, rhc_delta=0.25, t_final=0.5)

WORKLOADS = {w.name: w for w in (
    ScenarioWorkload(
        name="feedback_table1",
        config=dict(_TABLE1, controller="saturated", cu_tag="e^1.5", t_final=2.0),
        reference={"J_total": 15.96508371374894, "final_err_l2": 2.6997769931636615},
    ),
    ScenarioWorkload(
        name="rhc_unconstrained",
        config=dict(_RHC, cu_tag="inf"),
        reference={"J_total": 5.310558042664783, "final_err_l2": 1.945042394412044},
    ),
    ScenarioWorkload(
        name="rhc_saturated",
        config=dict(_RHC, cu_tag="e^1.5"),
        reference={"J_total": 4.32300577878192, "final_err_l2": 2.838863311074587},
    ),
    MarginWorkload(
        name="margin_sweep",
        nx=100, width_fraction=0.5, grids=(1, 2, 3, 4), sweep_grid=3, gains=(0.0, 1.0, 10.0, 100.0),
        large_gain=1e6,
        reference={"theta_m3_g0": 0.9999999999995832, "theta_m3_g1": 1.4862678801305256,
                   "theta_m3_g2": 4.820067846518955, "theta_m3_g3": 9.889218838922067,
                   "theta_m1_large": 1.9870415978818803, "theta_m2_large": 4.949140170000163,
                   "theta_m3_large": 9.88921885263452, "theta_m4_large": 16.812147969438605},
    ),
)}
