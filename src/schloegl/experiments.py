"""Scenario configuration, run orchestration, and experiment harnesses.

Configurations are flat ``key = value`` text with optional ``[section]``
headers (grammar documented in the README); every default applied during
parsing is recorded with its provenance.  A run writes a directory with
the config snapshot, a per-step CSV series
(t, err_l2, log_err_l2, u_norm, J_running; 17 significant digits), a
key-value summary and, for receding-horizon runs, a per-window CSV of the
optimizer statistics.  The Table-1 harness compares the saturated feedback
with the receding-horizon control cell by cell; sweeps consolidate decay
rates across one parameter axis.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path

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


class ConfigError(ValueError):
    """Configuration problem, carrying the offending line number."""

    def __init__(self, line: int | None, message: str):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass
class ScenarioConfig:
    """Fully resolved scenario; ``provenance`` maps keys to their origin."""

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
    cu: float = math.inf
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


def parse_bound(text: str) -> float:
    """Saturation bound notation: 'inf', 'e^X', or a plain float."""
    t = text.strip().lower()
    if t in ("inf", "infinity", "e^inf"):
        return math.inf
    if t.startswith("e^"):
        return math.exp(float(t[2:]))
    return float(t)


_KEYS = {
    "domain.lx": ("lx", "positive float"),
    "domain.ly": ("ly", "positive float"),
    "mesh.nx": ("nx", "positive int"),
    "mesh.ny": ("ny", "positive int"),
    "params.nu": ("nu", "positive float"),
    "params.zeta": ("zeta", "three comma-separated floats"),
    "actuators.m": ("m", "positive int"),
    "actuators.r": ("r", "float in (0, 1)"),
    "actuators.norm": ("norm", "euclidean or max"),
    "feedback.lambda": ("gain", "nonnegative float"),
    "feedback.cu": ("cu", "inf, e^X, or nonnegative float"),
    "forcing.kind": ("forcing", "none or periodic"),
    "initial.yhat0": ("yhat0", "constant:<c>, bilinear, or linear"),
    "initial.y0": ("y0", "constant:<c>, bilinear, or linear"),
    "time.dt": ("dt", "positive float"),
    "time.t_final": ("t_final", "positive float"),
    "run.controller": ("controller", "none, saturated, or rhc"),
    "run.csv_stride": ("csv_stride", "positive int"),
    "run.state_stride": ("state_stride", "positive int"),
    "rhc.t": ("rhc_horizon", "positive float"),
    "rhc.delta": ("rhc_delta", "positive float"),
    "rhc.beta": ("rhc_beta", "positive float"),
    "rhc.tol": ("rhc_tol", "positive float"),
    "rhc.j_max": ("rhc_j_max", "positive int"),
}

_INITIAL_TAGS = ("bilinear", "linear")


def _parse_initial_tag(text: str, line: int) -> str:
    t = text.strip()
    if t in _INITIAL_TAGS:
        return t
    if t.startswith("constant:"):
        try:
            float(t.split(":", 1)[1])
        except ValueError:
            raise ConfigError(line, f"bad constant value in initial state {text!r}") from None
        return t
    raise ConfigError(line, f"unknown initial-state tag {text!r} (use constant:<c>, bilinear, or linear)")


def parse_config(text: str) -> ScenarioConfig:
    """Parse configuration text; unknown keys and range violations raise
    :class:`ConfigError` with the offending line number."""
    cfg = ScenarioConfig(source_text=text)
    prov = {f: "default" for f in _KEYS}
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
        attr, expect = _KEYS[full]
        try:
            _assign(cfg, attr, value, lineno)
        except ConfigError:
            raise
        except (ValueError, TypeError):
            raise ConfigError(lineno, f"bad value {value!r} for {full} (expected {expect})") from None
        prov[full] = f"line {lineno}"
    _validate(cfg)
    cfg.provenance = prov
    return cfg


def _assign(cfg: ScenarioConfig, attr: str, value: str, lineno: int):
    if attr in ("nx", "ny", "m", "csv_stride", "state_stride", "rhc_j_max"):
        setattr(cfg, attr, int(value))
    elif attr == "zeta":
        parts = [float(p) for p in value.split(",")]
        if len(parts) != 3:
            raise ConfigError(lineno, f"zeta needs exactly three values, got {len(parts)}")
        cfg.zeta = tuple(parts)
    elif attr == "cu":
        cfg.cu = parse_bound(value)
        cfg.cu_tag = value.strip()
    elif attr in ("norm", "forcing", "controller"):
        setattr(cfg, attr, value.strip().lower())
    elif attr in ("yhat0", "y0"):
        setattr(cfg, attr, _parse_initial_tag(value, lineno))
    else:
        setattr(cfg, attr, float(value))


def _validate(cfg: ScenarioConfig):
    checks = [
        (cfg.lx > 0 and cfg.ly > 0, "domain lengths must be positive"),
        (cfg.nx >= 1 and cfg.ny >= 1, "mesh subdivisions must be >= 1"),
        (cfg.nu > 0, "params.nu must be positive"),
        (cfg.m >= 1, "actuators.m must be >= 1"),
        (0 < cfg.r < 1, "actuators.r must lie in (0, 1)"),
        (cfg.norm in ("euclidean", "max"), f"unknown norm {cfg.norm!r}"),
        (cfg.gain >= 0, "feedback.lambda must be >= 0"),
        (cfg.cu >= 0, "feedback.cu must be >= 0"),
        (cfg.forcing in ("none", "periodic"), f"unknown forcing kind {cfg.forcing!r}"),
        (cfg.dt > 0, "time.dt must be positive"),
        (cfg.t_final > 0, "time.t_final must be positive"),
        (cfg.controller in ("none", "saturated", "rhc"), f"unknown controller {cfg.controller!r}"),
        (cfg.csv_stride >= 1 and cfg.state_stride >= 1, "strides must be >= 1"),
        (cfg.rhc_horizon > cfg.rhc_delta > 0, "need rhc.t > rhc.delta > 0"),
        (cfg.rhc_beta > 0 and cfg.rhc_tol > 0 and cfg.rhc_j_max >= 1, "bad rhc solver settings"),
    ]
    for ok, msg in checks:
        if not ok:
            raise ConfigError(None, msg)


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
    """Shortest exact round-trip representation (snapshots, summaries)."""
    if isinstance(x, float):
        return repr(x)
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
        for w, (iters, cost, converged, evals, reason) in enumerate(reports):
            fh.write(",".join(_fmt(v) for v in (w, times[w * n_delta], iters, evals, cost, converged, reason)) + "\n")


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
        for key in sorted(_KEYS):
            attr = _KEYS[key][0]
            val = getattr(cfg, attr)
            if attr == "cu":
                val = cfg.cu_tag
            elif attr == "zeta":
                val = ", ".join(_fmt_readable(z) for z in val)
            else:
                val = _fmt_readable(val)
            fh.write(f"# {key} = {val}  [{cfg.provenance.get(key, 'default')}]\n")


def run_scenario(cfg: ScenarioConfig, out_dir: str | Path) -> RunArtifact:
    """Compute the target free dynamics, run the configured controller
    against it, and persist the series CSV plus the summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write_snapshot(out / "config_snapshot.txt", cfg)

    wall0 = time.perf_counter()
    domain = RectangleDomain(cfg.lx, cfg.ly)
    fe = build_fem(cfg.nx, cfg.ny, cfg.nu, domain)
    params = SchloeglParams(nu=cfg.nu, roots=cfg.zeta)
    grid = build_actuator_grid(cfg.m, cfg.r, domain)
    coupling = None if cfg.controller == "none" else discretize_actuators(grid, fe.mesh)
    forcing = forcing_spec(cfg.forcing)
    yhat0 = initial_field(cfg.yhat0, fe.mesh)
    y0 = initial_field(cfg.y0, fe.mesh)
    beta = cfg.rhc_beta
    integ = IntegratorConfig(dt=cfg.dt, state_stride=cfg.state_stride, cost_beta=beta)

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
                             beta=beta, tol=cfg.rhc_tol, j_max=cfg.rhc_j_max, warm_start_gain=cfg.gain)
            rhc_result = run_rhc(rcfg, y0, yhat0, coupling, fe, params, forcing, integ,
                                 SaturationConfig(bound=cfg.cu, norm=cfg.norm))
            record = rhc_result.record
        elif cfg.controller == "none":
            record = _simulate(y0, _n_steps_for(cfg.t_final, cfg.dt), fe, params, forcing, integ, target=yhat0)
        else:
            law = FeedbackLaw(gain=cfg.gain, saturation=SaturationConfig(bound=cfg.cu, norm=cfg.norm))
            record = track_target(y0, yhat0, law, coupling, fe, params, forcing, integ, horizon=cfg.t_final)
    except BlowUpError as exc:
        summary["status"] = "completed-unstable"
        summary["blowup_time"] = exc.time
        summary["wall_time_s"] = time.perf_counter() - wall0
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
        iters = [r[0] for r in rhc_result.window_reports]
        summary["rhc_windows"] = len(iters)
        summary["rhc_iterations_total"] = int(sum(iters))
        summary["rhc_iterations_max"] = int(max(iters))
        summary["rhc_converged_all"] = rhc_result.converged_all
    summary["wall_time_s"] = time.perf_counter() - wall0
    _write_summary(out / "summary.txt", summary)
    return RunArtifact(directory=out, summary=summary, series_csv=series, record=record)


def _map(fn, payloads: list, workers: int) -> list:
    """fn over the payloads, in order; in a process pool when workers > 1."""
    if workers <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, payloads))


def _table1_cell(payload: dict) -> dict:
    """One Table-1 cell: saturated feedback and RHC costs (worker-safe)."""
    base = ScenarioConfig(**payload["base"])
    cu_tag, t_inf, beta = payload["cu_tag"], payload["t_inf"], payload["beta"]
    out = {"cu": cu_tag, "t_inf": t_inf, "beta": beta}
    for kind, controller in (("satcon", "saturated"), ("rhc", "rhc")):
        try:
            cfg = replace(base, controller=controller, cu=parse_bound(cu_tag), cu_tag=cu_tag,
                          t_final=t_inf, rhc_beta=beta, provenance={}, source_text="")
            art = run_scenario(cfg, Path(payload["out_dir"]) / f"{kind}_b{beta:g}_{cu_tag.replace('^', '')}_T{t_inf:g}")
            out[kind] = art.summary.get("J_total", math.nan)
            out[f"{kind}_status"] = art.summary["status"]
        except Exception as exc:  # per-cell failures recorded, table still emitted
            out[kind] = math.nan
            out[f"{kind}_status"] = f"failed: {exc}"
    return out


def run_table1(out_dir: str | Path, base: ScenarioConfig | None = None,
               cells=TABLE1_CELLS, betas=TABLE1_BETAS, workers: int = 1) -> list[dict]:
    """Cost comparison over the (bound, horizon) grid for both cost weights.

    The base scenario is the trajectory-comparison example: constant
    initial states at the outer stable roots, periodic forcing, gain 175.
    Returns one row dict per cell; writes table1.txt and table1.csv.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if base is None:
        base = ScenarioConfig(yhat0="constant:2", y0="constant:-1", forcing="periodic")
    base_fields = {k: v for k, v in base.__dict__.items() if k not in ("provenance", "source_text")}
    payloads = [
        {"base": base_fields, "cu_tag": cu_tag, "t_inf": t_inf, "beta": beta, "out_dir": str(out)}
        for beta in betas
        for (cu_tag, t_inf) in cells
    ]
    rows = _map(_table1_cell, payloads, workers)

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
    by_key = {(r["beta"], r["cu"]): r for r in rows}
    for beta in betas:
        for kind in ("rhc", "satcon"):
            label = f"{'RHC' if kind == 'rhc' else 'SatCon'} beta={beta:g}"
            vals = []
            for cu_tag, t_inf in cells:
                r = by_key.get((beta, cu_tag))
                vals.append("-" if r is None or math.isnan(r[kind]) else f"{r[kind]:.4f}")
            lines.append("".join(s.ljust(w) for s, w in zip([label] + vals, widths)))
    return "\n".join(lines) + "\n"


def run_sweep(axis: str, values: list, base: ScenarioConfig, out_dir: str | Path,
              workers: int = 1) -> list[dict]:
    """One run per value along the axis; consolidates decay-rate estimates.

    axis: 'cu' (bound tags), 'lambda' (gains), or 'msigma' (actuator
    counts, perfect squares).
    """
    if axis not in ("cu", "lambda", "msigma"):
        raise ValueError(f"unknown sweep axis {axis!r}")
    if not values:
        raise ValueError("sweep needs at least one value")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payloads = []
    for v in values:
        cfg = replace(base, provenance={}, source_text="")
        if axis == "cu":
            cfg = replace(cfg, cu=parse_bound(str(v)), cu_tag=str(v))
        elif axis == "lambda":
            cfg = replace(cfg, gain=float(v))
        else:
            m = int(round(math.sqrt(int(v))))
            if m * m != int(v):
                raise ValueError(f"actuator count {v} is not a perfect square")
            cfg = replace(cfg, m=m)
        payloads.append({"cfg": {k: w for k, w in cfg.__dict__.items() if k not in ("provenance", "source_text")},
                         "value": str(v), "out_dir": str(out / f"{axis}_{str(v).replace('^', '')}")})
    rows = _map(_sweep_one, payloads, workers)
    with open(out / f"sweep_{axis}.csv", "w") as fh:
        fh.write("value,mu_est,final_err_l2,status\n")
        for r in rows:
            fh.write(f"{r['value']},{_fmt(r['mu_est'])},{_fmt(r['final_err'])},{r['status']}\n")
    return rows


def _sweep_one(payload: dict) -> dict:
    cfg = ScenarioConfig(**payload["cfg"])
    try:
        art = run_scenario(cfg, payload["out_dir"])
        return {
            "value": payload["value"],
            "mu_est": art.summary.get("mu_est", math.nan),
            "final_err": art.summary.get("final_err_l2", math.nan),
            "status": art.summary["status"],
        }
    except Exception as exc:
        return {"value": payload["value"], "mu_est": math.nan, "final_err": math.nan,
                "status": f"failed: {exc}"}
