"""Scenario configuration, run orchestration, and experiment harnesses.

Configurations are flat ``key = value`` text with optional ``[section]``
headers (grammar documented in the README).  One key table holds each
key's field, parser and range check; a :class:`ScenarioConfig` is checked
against it however it is built and records where each value came from.
A run writes a directory with the config snapshot, a per-step CSV series
(t, err_l2, log_err_l2, u_norm, J_running; 17 significant digits), a
key-value summary and, for receding-horizon runs, a per-window CSV of the
optimizer statistics.  The Table-1 harness (saturated feedback against
receding-horizon control) and the sweeps (decay rates along one parameter
axis) hand their single runs to one job runner.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .actuators import build_actuator_grid, discretize_actuators
from .analysis import fit_decay_rate
from .dynamics import BlowUpError, ForcingSpec, IntegratorConfig, SchloeglParams, _n_steps_for, _simulate
from .feedback import FeedbackLaw, SaturationConfig, track_target
from .geometry import RectangleDomain, build_fem
from .rhc import RhcConfig, run_rhc

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "RunArtifact",
    "parse_config",
    "parse_bound",
    "run_scenario",
    "run_table1",
    "run_sweep",
    "TABLE1_CELLS",
    "TABLE1_BETAS",
]

# Table-1 grid: (bound tag, total time) cells and the two cost weights.
TABLE1_CELLS = (("e^0.5", 25.0), ("e^1", 20.0), ("e^1.5", 10.0), ("e^2", 7.0), ("inf", 5.0))
TABLE1_BETAS = (1e-3, 1e-5)
# The two runs of a Table-1 cell, in job order: (row key, controller).
_TABLE1_RUNS = (("satcon", "saturated"), ("rhc", "rhc"))


class ConfigError(ValueError):
    """Configuration problem, carrying the offending line number."""

    def __init__(self, line: int | None, message: str):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario; ``provenance`` maps keys to their origin.

    Every value is range-checked on construction, ``replace`` included.
    ``cu_tag`` is the one source of the saturation bound: ``cu`` is derived
    from it, and a ``cu`` passed in must equal that bound (``replace`` with
    a new ``cu_tag`` needs ``cu=None``).
    """

    lx: float = 1.0
    ly: float = 1.0
    nx: int = 57
    ny: int = 57
    nu: float = 0.1
    zeta: tuple[float, float, float] = (-1.0, 0.0, 2.0)
    m: int = 3
    r: float = 0.5
    norm: str = "euclidean"
    gain: float = 175.0
    cu: float | None = None
    cu_tag: str = "inf"
    forcing: str = "none"
    yhat0: str = "constant:0"
    y0: str = "constant:2"
    dt: float = 1e-3
    t_final: float = 5.0
    controller: str = "none"
    csv_stride: int = 1
    state_stride: int = 10
    rhc_horizon: float = 1.25
    rhc_delta: float = 0.5
    rhc_beta: float = 1e-3
    rhc_tol: float = 1e-4
    rhc_j_max: int = 500
    provenance: dict = field(default_factory=dict)
    source_text: str = ""

    def __post_init__(self):
        for name, key in _KEYS.items():
            _checked(name, getattr(self, key.attr))
        if not self.rhc_horizon > self.rhc_delta:
            raise ConfigError(None, "need rhc.t > rhc.delta > 0")
        bound = parse_bound(self.cu_tag)
        if self.cu is None:
            object.__setattr__(self, "cu", bound)
        elif self.cu != bound:
            raise ConfigError(None, f"cu = {self.cu!r} disagrees with feedback.cu = {self.cu_tag!r} "
                                    f"({bound!r}); leave cu None, it is derived from cu_tag")


def parse_bound(text: str) -> float:
    """Saturation bound notation: 'inf', 'e^X', or a plain float."""
    t = text.strip().lower()
    if t in ("inf", "infinity", "e^inf"):
        return math.inf
    if t.startswith("e^"):
        return math.exp(float(t[2:]))
    return float(t)


class _Key(NamedTuple):
    """A configuration key: its field, text parser, range check and expected values."""

    attr: str
    parse: Callable[[str], Any]
    check: Callable[[Any], bool]
    expect: str


def _is_initial_tag(tag: str) -> bool:
    if tag.startswith("constant:"):
        float(tag.split(":", 1)[1])  # a bad constant raises
        return True
    return tag in ("bilinear", "linear")


# Key values reach the parsers stripped.
_POSITIVE_FLOAT = (float, lambda v: v > 0, "positive float")
_POSITIVE_INT = (int, lambda v: v >= 1, "positive int")
_INITIAL_TAG = (str, _is_initial_tag, "constant:<c>, bilinear, or linear")

_KEYS = {
    "domain.lx": _Key("lx", *_POSITIVE_FLOAT),
    "domain.ly": _Key("ly", *_POSITIVE_FLOAT),
    "mesh.nx": _Key("nx", *_POSITIVE_INT),
    "mesh.ny": _Key("ny", *_POSITIVE_INT),
    "params.nu": _Key("nu", *_POSITIVE_FLOAT),
    "params.zeta": _Key("zeta", lambda t: tuple(float(p) for p in t.split(",")), lambda v: len(v) == 3,
                        "three comma-separated floats"),
    "actuators.m": _Key("m", *_POSITIVE_INT),
    "actuators.r": _Key("r", float, lambda v: 0 < v < 1, "float in (0, 1)"),
    "actuators.norm": _Key("norm", str.lower, lambda v: v in ("euclidean", "max"), "euclidean or max"),
    "feedback.lambda": _Key("gain", float, lambda v: v >= 0, "nonnegative float"),
    "feedback.cu": _Key("cu_tag", str, lambda v: parse_bound(v) >= 0, "inf, e^X, or nonnegative float"),
    "forcing.kind": _Key("forcing", str.lower, lambda v: v in ("none", "periodic"), "none or periodic"),
    "initial.yhat0": _Key("yhat0", *_INITIAL_TAG),
    "initial.y0": _Key("y0", *_INITIAL_TAG),
    "time.dt": _Key("dt", *_POSITIVE_FLOAT),
    "time.t_final": _Key("t_final", *_POSITIVE_FLOAT),
    "run.controller": _Key("controller", str.lower, lambda v: v in ("none", "saturated", "rhc"),
                           "none, saturated, or rhc"),
    "run.csv_stride": _Key("csv_stride", *_POSITIVE_INT),
    "run.state_stride": _Key("state_stride", *_POSITIVE_INT),
    "rhc.t": _Key("rhc_horizon", *_POSITIVE_FLOAT),
    "rhc.delta": _Key("rhc_delta", *_POSITIVE_FLOAT),
    "rhc.beta": _Key("rhc_beta", *_POSITIVE_FLOAT),
    "rhc.tol": _Key("rhc_tol", *_POSITIVE_FLOAT),
    "rhc.j_max": _Key("rhc_j_max", *_POSITIVE_INT),
}


def _checked(name: str, value: Any = None, *, text: str | None = None, line: int | None = None):
    """The value of key ``name``, parsed from ``text`` when that is given;
    raises :class:`ConfigError` unless it passes the key's range check."""
    key = _KEYS[name]
    try:
        if text is not None:
            value = key.parse(text)
        ok = key.check(value)
    except (TypeError, ValueError, AttributeError):
        ok = False
    if not ok:
        raise ConfigError(line, f"bad value {value if text is None else text!r} for {name} (expected {key.expect})")
    return value


def _override(cfg: ScenarioConfig, origin: str, **changes) -> ScenarioConfig:
    """``cfg`` with the given fields changed and ``origin`` recorded as
    their provenance; a new ``cu_tag`` brings its own bound."""
    provenance = dict(cfg.provenance, **{name: origin for name, key in _KEYS.items() if key.attr in changes})
    if "cu_tag" in changes:
        changes["cu"] = None
    return replace(cfg, provenance=provenance, **changes)


def parse_config(text: str) -> ScenarioConfig:
    """Parse configuration text; unknown keys, bad values and range
    violations raise :class:`ConfigError` with the offending line number."""
    values = {}
    provenance = dict.fromkeys(_KEYS, "default")
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            continue
        if "=" not in line:
            raise ConfigError(lineno, f"expected 'key = value', got {raw.strip()!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        full = f"{section}.{key.lower()}" if section else key.lower()
        if full not in _KEYS:
            raise ConfigError(lineno, f"unknown key {full!r}")
        values[_KEYS[full].attr] = _checked(full, text=value, line=lineno)
        provenance[full] = f"line {lineno}"
    return ScenarioConfig(**values, provenance=provenance, source_text=text)


def initial_field(tag: str, mesh) -> np.ndarray:
    """Nodal field for an initial-state tag."""
    if tag.startswith("constant:"):
        return np.full(mesh.n_nodes, float(tag.split(":", 1)[1]))
    if tag == "bilinear":
        return mesh.interpolate(lambda x, y: 10.0 - 20.0 * x * y)
    if tag == "linear":
        return mesh.interpolate(lambda x, y: -10.0 * x + y)
    raise ValueError(f"unknown initial-state tag {tag!r}")


def forcing_spec(kind: str) -> ForcingSpec:
    return ForcingSpec.periodic_indicator() if kind == "periodic" else ForcingSpec.zero()


@dataclass
class RunArtifact:
    """Run directory contents: snapshot, CSV paths, and the summary map."""

    directory: Path
    summary: dict
    series_csv: Path | None
    record: object = None


def _fmt(x) -> str:
    """Full-precision CSV field: 17 significant digits for floats."""
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _fmt_readable(x) -> str:
    """Shortest exact round-trip representation (snapshots, summaries); a
    tuple as its comma-separated items, which the key parsers read back."""
    if isinstance(x, float):
        return repr(x)
    if isinstance(x, tuple):
        return ", ".join(_fmt_readable(v) for v in x)
    return str(x)


def _write_series_csv(path: Path, record, stride: int):
    times = record.times
    err = record.err_norm
    un = record.control_norms
    cost = record.running_cost
    with open(path, "w") as fh:
        fh.write("t,err_l2,log_err_l2,u_norm,J_running\n")
        n = len(times) - 1
        idx = list(range(0, n + 1, stride))
        if idx[-1] != n:
            idx.append(n)
        with np.errstate(divide="ignore"):
            for i in idx:
                log_err = np.log(err[i]) if err[i] > 0 else -math.inf
                u = un[i] if i < n else 0.0
                fh.write(",".join(_fmt(v) for v in (times[i], err[i], log_err, u, cost[i])) + "\n")


def _write_windows_csv(path: Path, reports: list, times: np.ndarray):
    """One row per RHC window: its start time and how its optimizer ended."""
    n_delta = (len(times) - 1) // len(reports)
    with open(path, "w") as fh:
        fh.write("window,t0,iterations,evaluations,cost,converged,stop_reason\n")
        for w, r in enumerate(reports):
            row = (w, times[w * n_delta], r.iterations, r.n_evaluations, r.cost, r.converged, r.message)
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_summary(path: Path, summary: dict):
    with open(path, "w") as fh:
        for k, v in summary.items():
            fh.write(f"{k} = {_fmt_readable(v)}\n")


def _write_snapshot(path: Path, cfg: ScenarioConfig):
    with open(path, "w") as fh:
        fh.write(cfg.source_text)
        if cfg.source_text and not cfg.source_text.endswith("\n"):
            fh.write("\n")
        fh.write("\n# resolved values (provenance)\n")
        defaults = ScenarioConfig()
        for name in sorted(_KEYS):
            attr = _KEYS[name].attr
            value = getattr(cfg, attr)
            origin = cfg.provenance.get(name, "default" if value == getattr(defaults, attr) else "set in code")
            fh.write(f"# {name} = {_fmt_readable(value)}  [{origin}]\n")


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path) -> RunArtifact:
    """Compute the target free dynamics, run the configured controller
    against it, and persist the series CSV plus the summary.  The summary
    times the set-up phases (``assembly_s``, ``clipping_s``) next to
    ``wall_time_s``, which includes them."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_snapshot(out / "config_snapshot.txt", cfg)

    wall0 = time.perf_counter()
    domain = RectangleDomain(cfg.lx, cfg.ly)
    fe = build_fem(cfg.nx, cfg.ny, cfg.nu, domain)
    setup_times = {"assembly_s": time.perf_counter() - wall0, "clipping_s": 0.0}
    params = SchloeglParams(nu=cfg.nu, roots=cfg.zeta)
    grid = build_actuator_grid(cfg.m, cfg.r, domain)
    coupling = None
    if cfg.controller != "none":
        clip0 = time.perf_counter()
        coupling = discretize_actuators(grid, fe.mesh)
        setup_times["clipping_s"] = time.perf_counter() - clip0
    forcing = forcing_spec(cfg.forcing)
    yhat0 = initial_field(cfg.yhat0, fe.mesh)
    y0 = initial_field(cfg.y0, fe.mesh)
    law = FeedbackLaw(gain=cfg.gain, saturation=SaturationConfig(bound=cfg.cu, norm=cfg.norm))
    integ = IntegratorConfig(dt=cfg.dt, state_stride=cfg.state_stride, cost_beta=cfg.rhc_beta)

    summary = {
        "controller": cfg.controller,
        "nodes": fe.mesh.n_nodes,
        "actuators": grid.count,
        "status": "completed",
    }
    rhc_result = None
    try:
        if cfg.controller == "rhc":
            rcfg = RhcConfig(horizon=cfg.rhc_horizon, delta=cfg.rhc_delta, t_final=cfg.t_final,
                             tol=cfg.rhc_tol, j_max=cfg.rhc_j_max)
            rhc_result = run_rhc(rcfg, y0, yhat0, law, coupling, fe, params, forcing, integ)
            record = rhc_result.record
        elif cfg.controller == "none":
            record = _simulate(y0, _n_steps_for(cfg.t_final, cfg.dt), fe, params, forcing, integ, target=yhat0)
        else:
            record = track_target(y0, yhat0, law, coupling, fe, params, forcing, integ, horizon=cfg.t_final)
    except BlowUpError as exc:
        summary["status"] = "completed-unstable"
        summary["blowup_time"] = exc.time
        summary.update(setup_times, wall_time_s=time.perf_counter() - wall0)
        _write_summary(out / "summary.txt", summary)
        return RunArtifact(directory=out, summary=summary, series_csv=None)

    series = out / "series.csv"
    _write_series_csv(series, record, cfg.csv_stride)

    summary["final_err_l2"] = float(record.err_norm[-1])
    summary["initial_err_l2"] = float(record.err_norm[0])
    summary["J_total"] = float(record.running_cost[-1])
    try:
        mu_est, window, resid = fit_decay_rate(record.times, record.err_norm)
        summary["mu_est"] = mu_est
        summary["mu_fit_window"] = f"{window[0]:.6g}..{window[1]:.6g}"
        summary["mu_fit_residual"] = resid
    except ValueError as exc:
        summary["mu_est"] = math.nan
        summary["mu_fit_note"] = str(exc)
    if rhc_result is not None:
        _write_windows_csv(out / "windows.csv", rhc_result.window_reports, record.times)
        iters = [r.iterations for r in rhc_result.window_reports]
        summary["rhc_windows"] = len(iters)
        summary["rhc_iterations_total"] = int(sum(iters))
        summary["rhc_iterations_max"] = int(max(iters))
        summary["rhc_converged_all"] = all(r.converged for r in rhc_result.window_reports)
    summary.update(setup_times, wall_time_s=time.perf_counter() - wall0)
    _write_summary(out / "summary.txt", summary)
    return RunArtifact(directory=out, summary=summary, series_csv=series, record=record)


def _run_job(job: tuple[ScenarioConfig, Path]) -> dict:
    """One run's summary, a run that raises giving a ``failed: …`` status;
    prints a start and a finish line to stderr (worker-safe)."""
    cfg, out_dir = job
    _progress(f"[start] {out_dir}")
    wall0 = time.perf_counter()
    try:
        summary = run_scenario(cfg, out_dir).summary
    except Exception as exc:  # a failed run is reported, the other jobs still run
        traceback.print_exc()
        summary = {"status": f"failed: {exc}"}
    _progress(f"[done] {out_dir}: {summary['status']}, {time.perf_counter() - wall0:.2f} s")
    return summary


def _progress(line: str):
    # the newline goes in the same write, so the lines of parallel workers do not interleave
    print(line + "\n", end="", file=sys.stderr, flush=True)


def _run_jobs(jobs: list[tuple[ScenarioConfig, Path]], workers: int) -> list[dict]:
    """Each (config, run directory) job's summary, in order; in a process pool when workers > 1."""
    if workers <= 1:
        return [_run_job(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_job, jobs))


def run_table1(out_dir: str | Path, base: ScenarioConfig | None = None,
               cells=TABLE1_CELLS, betas=TABLE1_BETAS, workers: int = 1) -> list[dict]:
    """Cost comparison over the (bound, horizon) grid for both cost weights.

    The base scenario is the trajectory-comparison example: constant
    initial states at the outer stable roots, periodic forcing, gain 175.
    Each cell is two runs, saturated feedback and RHC, and each run is one
    job.  Returns one row dict per cell; writes table1.txt and table1.csv.
    """
    out = Path(out_dir)
    if base is None:
        base = _override(ScenarioConfig(), "table1 base", yhat0="constant:2", y0="constant:-1", forcing="periodic")
    grid = [(beta, cu_tag, t_inf) for beta in betas for (cu_tag, t_inf) in cells]
    jobs = [(_override(base, "table1 cell", controller=controller, cu_tag=cu_tag, t_final=t_inf, rhc_beta=beta),
             out / f"{kind}_b{beta:g}_{cu_tag.replace('^', '')}_T{t_inf:g}")
            for beta, cu_tag, t_inf in grid for kind, controller in _TABLE1_RUNS]
    out.mkdir(parents=True, exist_ok=True)
    summaries = iter(_run_jobs(jobs, workers))
    rows = []
    for beta, cu_tag, t_inf in grid:
        row = {"cu": cu_tag, "t_inf": t_inf, "beta": beta}
        for (kind, _), summary in zip(_TABLE1_RUNS, summaries):  # takes this cell's two summaries
            row.update({kind: summary.get("J_total", math.nan), f"{kind}_status": summary["status"]})
        rows.append(row)

    with open(out / "table1.csv", "w") as fh:
        fh.write("beta,cu,t_inf,rhc,satcon,rhc_status,satcon_status\n")
        for r in rows:
            fh.write(f"{r['beta']:g},{r['cu']},{r['t_inf']:g},{_fmt(r['rhc'])},{_fmt(r['satcon'])},"
                     f"{r['rhc_status']},{r['satcon_status']}\n")
    with open(out / "table1.txt", "w") as fh:
        fh.write(_format_table(rows, cells, betas))
    return rows


def _format_table(rows: list[dict], cells, betas) -> str:
    header = ["control"] + [f"({cu}, {t_inf:g})" for cu, t_inf in cells]
    widths = [max(14, len(h) + 2) for h in header]
    lines = ["".join(h.ljust(w) for h, w in zip(header, widths))]
    for i, beta in enumerate(betas):
        beta_rows = rows[i * len(cells):(i + 1) * len(cells)]  # rows run over the cells for each beta
        for kind in ("rhc", "satcon"):
            label = f"{'RHC' if kind == 'rhc' else 'SatCon'} beta={beta:g}"
            vals = ["-" if math.isnan(r[kind]) else f"{r[kind]:.4f}" for r in beta_rows]
            lines.append("".join(s.ljust(w) for s, w in zip([label] + vals, widths)))
    return "\n".join(lines) + "\n"


def _grid_side(count) -> int:
    m = int(round(math.sqrt(int(count))))
    if m * m != int(count):
        raise ValueError(f"actuator count {count} is not a perfect square")
    return m


# Sweep axis -> (field it sets, conversion of a sweep value).
_SWEEP_AXES = {"cu": ("cu_tag", str), "lambda": ("gain", float), "msigma": ("m", _grid_side)}


def run_sweep(axis: str, values: list, base: ScenarioConfig, out_dir: str | Path,
              workers: int = 1) -> list[dict]:
    """One run per value along the axis; consolidates decay-rate estimates.

    axis: 'cu' (bound tags), 'lambda' (gains), or 'msigma' (actuator
    counts, perfect squares).  Every value is checked before any run.
    """
    if axis not in _SWEEP_AXES:
        raise ValueError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    out = Path(out_dir)
    attr, convert = _SWEEP_AXES[axis]
    jobs = [(_override(base, "sweep value", **{attr: convert(v)}), out / f"{axis}_{str(v).replace('^', '')}")
            for v in values]
    out.mkdir(parents=True, exist_ok=True)
    rows = [{"value": str(v), "mu_est": s.get("mu_est", math.nan), "final_err": s.get("final_err_l2", math.nan),
             "status": s["status"]}
            for v, s in zip(values, _run_jobs(jobs, workers))]
    with open(out / f"sweep_{axis}.csv", "w") as fh:
        fh.write("value,mu_est,final_err_l2,status\n")
        for r in rows:
            fh.write(f"{r['value']},{_fmt(r['mu_est'])},{_fmt(r['final_err'])},{r['status']}\n")
    return rows
