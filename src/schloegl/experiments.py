"""Scenario configuration, run orchestration, and experiment harnesses.

Configurations are flat ``key = value`` text with optional ``[section]``
headers (grammar documented in the README).  Each key is declared once,
on its :class:`ScenarioConfig` field, with its parser and range check; the
key table is derived from the fields, and a config is checked against it
however it is built and records where each value came from.
A run writes a directory with the config snapshot, a per-step CSV series
(t, err_l2, log_err_l2, u_norm, J_running; 17 significant digits), a
key-value summary and, for receding-horizon runs, a per-window CSV of the
optimizer statistics.  The Table-1 harness (saturated feedback against
receding-horizon control) and the sweeps (decay rates along one parameter
axis) hand their single runs to one job runner.
"""

from __future__ import annotations

import math
import numbers
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Callable, NamedTuple

import numpy as np

from .actuators import build_actuator_grid, discretize_actuators
from .analysis import fit_decay_rate
from .dynamics import BlowUpError, ForcingSpec, IntegratorConfig, SchloeglParams, simulate_free
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


def parse_bound(text: str) -> float:
    """Saturation bound notation: 'inf', 'e^X', or a plain float; an
    e^X beyond the float range raises ``ValueError``."""
    t = text.strip().lower()
    if t in ("inf", "infinity", "e^inf"):
        return math.inf
    if t.startswith("e^"):
        try:
            return math.exp(float(t[2:]))
        except OverflowError:
            raise ValueError(f"bound {text!r} overflows a float; write inf for no bound") from None
    return float(t)


def _is_initial_tag(tag: str) -> bool:
    if tag.startswith("constant:"):
        return math.isfinite(float(tag.split(":", 1)[1]))  # a bad constant raises
    return tag in ("bilinear", "linear")


# Key values reach the parsers stripped.
_POSITIVE_FLOAT = (float, lambda v: 0 < v < math.inf, "finite positive float")
_POSITIVE_INT = (int, lambda v: isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= 1,
                 "positive int")
_INITIAL_TAG = (str, _is_initial_tag, "constant:<finite c>, bilinear, or linear")


def _key(name: str, default, parse: Callable[[str], Any], check: Callable[[Any], bool], expect: str):
    """A field set by the configuration key ``name``, with its text parser, range check and expected values."""
    return field(default=default, metadata={"key": name, "spec": (parse, check, expect)})


@dataclass(frozen=True)
class ScenarioConfig:
    """Fully resolved scenario; ``provenance`` maps keys to their origin.

    Every value is range-checked on construction, ``replace`` included.
    ``cu_tag`` is the one source of the saturation bound: ``cu`` is derived
    from it, and a ``cu`` passed in must equal that bound (``replace`` with
    a new ``cu_tag`` needs ``cu=None``).
    """

    lx: float = _key("domain.lx", 1.0, *_POSITIVE_FLOAT)
    ly: float = _key("domain.ly", 1.0, *_POSITIVE_FLOAT)
    nx: int = _key("mesh.nx", 57, *_POSITIVE_INT)
    ny: int = _key("mesh.ny", 57, *_POSITIVE_INT)
    nu: float = _key("params.nu", 0.1, *_POSITIVE_FLOAT)
    zeta: tuple[float, float, float] = _key("params.zeta", (-1.0, 0.0, 2.0),
                                            lambda t: tuple(float(p) for p in t.split(",")),
                                            lambda v: len(v) == 3 and all(map(math.isfinite, v)),
                                            "three comma-separated finite floats")
    m: int = _key("actuators.m", 3, *_POSITIVE_INT)
    r: float = _key("actuators.r", 0.5, float, lambda v: 0 < v < 1, "float in (0, 1)")
    norm: str = _key("actuators.norm", "euclidean", str.lower, lambda v: v in ("euclidean", "max"),
                     "euclidean or max")
    gain: float = _key("feedback.lambda", 175.0, float, lambda v: 0 <= v < math.inf, "finite nonnegative float")
    cu: float | None = None
    cu_tag: str = _key("feedback.cu", "inf", str, lambda v: parse_bound(v) >= 0, "inf, e^X, or nonnegative float")
    forcing: str = _key("forcing.kind", "none", str.lower, lambda v: v in ("none", "periodic"), "none or periodic")
    yhat0: str = _key("initial.yhat0", "constant:0", *_INITIAL_TAG)
    y0: str = _key("initial.y0", "constant:2", *_INITIAL_TAG)
    dt: float = _key("time.dt", 1e-3, *_POSITIVE_FLOAT)
    t_final: float = _key("time.t_final", 5.0, *_POSITIVE_FLOAT)
    controller: str = _key("run.controller", "none", str.lower, lambda v: v in ("none", "saturated", "rhc"),
                           "none, saturated, or rhc")
    csv_stride: int = _key("run.csv_stride", 1, *_POSITIVE_INT)
    state_stride: int = _key("run.state_stride", 10, *_POSITIVE_INT)
    rhc_horizon: float = _key("rhc.t", 1.25, *_POSITIVE_FLOAT)
    rhc_delta: float = _key("rhc.delta", 0.5, *_POSITIVE_FLOAT)
    rhc_beta: float = _key("rhc.beta", 1e-3, *_POSITIVE_FLOAT)
    rhc_tol: float = _key("rhc.tol", 1e-4, *_POSITIVE_FLOAT)
    rhc_j_max: int = _key("rhc.j_max", 500, *_POSITIVE_INT)
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


class _Key(NamedTuple):
    """A configuration key: its field, text parser, range check and expected values."""

    attr: str
    parse: Callable[[str], Any]
    check: Callable[[Any], bool]
    expect: str


_KEYS = {f.metadata["key"]: _Key(f.name, *f.metadata["spec"]) for f in fields(ScenarioConfig) if f.metadata}


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


# The Table-1 scenario: constant initial states at the outer stable roots,
# periodic forcing, gain 175, and the calibrated box fraction 0.33 and max
# amplitude norm (see the README's remarks on reproduction scenarios).
_TABLE1_BASE = _override(ScenarioConfig(), "table1 base", yhat0="constant:2", y0="constant:-1",
                         forcing="periodic", r=0.33, norm="max")


def parse_config(text: str) -> ScenarioConfig:
    """Parse configuration text; unknown keys, bad values and range
    violations raise :class:`ConfigError` with the offending line number."""
    values = {}
    provenance = {}
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


def _write_csv(path: Path, header: str, rows):
    """``header``, then each row's fields through :func:`_fmt`, one comma-separated line each."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def _series_rows(record, stride: int):
    """The ``series.csv`` rows: every ``stride``-th level, and the last."""
    err, n = record.err_norm, record.n_steps
    for i in sorted({*range(0, n + 1, stride), n}):
        log_err = np.log(err[i]) if err[i] > 0 else -math.inf  # log only of a positive error, so no divide-by-zero
        yield record.times[i], err[i], log_err, record.control_norms[i] if i < n else 0.0, record.running_cost[i]


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
            record = simulate_free(y0, cfg.t_final, fe, params, forcing, integ, target=yhat0)
        else:
            record = track_target(y0, yhat0, law, coupling, fe, params, forcing, integ, horizon=cfg.t_final)
    except BlowUpError as exc:
        summary["status"] = "completed-unstable"
        summary["blowup_time"] = exc.time
        summary.update(setup_times, wall_time_s=time.perf_counter() - wall0)
        _write_summary(out / "summary.txt", summary)
        return RunArtifact(directory=out, summary=summary, series_csv=None)

    series = out / "series.csv"
    _write_csv(series, "t,err_l2,log_err_l2,u_norm,J_running", _series_rows(record, cfg.csv_stride))

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
        # one row per window: its start, how its optimizer ended, and its wall, forward and adjoint times
        reports = rhc_result.window_reports
        n_delta = record.n_steps // len(reports)
        _write_csv(out / "windows.csv",
                   "window,t0,iterations,evaluations,cost,converged,stop_reason,wall_s,forward_s,adjoint_s",
                   ((w, record.times[w * n_delta], r.iterations, r.n_evaluations, r.cost, r.converged, r.message,
                     r.wall_s, r.forward_s, r.adjoint_s) for w, r in enumerate(reports)))
        iters = [r.iterations for r in reports]
        summary["rhc_windows"] = len(iters)
        summary["rhc_iterations_total"] = int(sum(iters))
        summary["rhc_iterations_max"] = int(max(iters))
        summary["rhc_converged_all"] = all(r.converged for r in reports)
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
    """Each (config, run directory) job's summary, in order, run by ``workers`` >= 1 processes (a pool when > 1)."""
    if workers < 1:
        raise ValueError(f"need at least one worker, got workers = {workers!r}")
    if workers == 1:
        return [_run_job(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_job, jobs))


def run_table1(out_dir: str | Path, base: ScenarioConfig = _TABLE1_BASE,
               cells=TABLE1_CELLS, betas=TABLE1_BETAS, workers: int = 1) -> list[dict]:
    """Cost comparison over the (bound, horizon) grid for both cost weights.

    The default base is the calibrated Table-1 scenario (see ``_TABLE1_BASE``).
    Each cell is two runs, saturated feedback and RHC, and each run is one
    job, run by ``workers`` processes (more than one: run with ``OPENBLAS_NUM_THREADS=1``, or pool
    workers forked beside OpenBLAS's thread pool may stall for seconds).
    Returns one row dict per cell; writes table1.txt and table1.csv.
    """
    out = Path(out_dir)
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

    _write_csv(out / "table1.csv", "beta,cu,t_inf,rhc,satcon,rhc_status,satcon_status",
               ((f"{r['beta']:g}", r["cu"], f"{r['t_inf']:g}", r["rhc"], r["satcon"], r["rhc_status"],
                 r["satcon_status"]) for r in rows))
    with open(out / "table1.txt", "w") as fh:
        fh.write(_format_table(rows, cells, betas))
    return rows


def _format_table(rows: list[dict], cells, betas) -> str:
    lines = [["control"] + [f"({cu}, {t_inf:g})" for cu, t_inf in cells]]
    for i, beta in enumerate(betas):
        beta_rows = rows[i * len(cells):(i + 1) * len(cells)]  # rows run over the cells for each beta
        for kind, name in (("rhc", "RHC"), ("satcon", "SatCon")):
            lines.append([f"{name} beta={beta:g}"]
                         + ["-" if math.isnan(r[kind]) else f"{r[kind]:.4f}" for r in beta_rows])
    widths = [max(14, *(len(s) + 2 for s in column)) for column in zip(*lines)]  # a column fits its entries
    return "".join("".join(s.ljust(w) for s, w in zip(line, widths)) + "\n" for line in lines)


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
    ``workers`` as for :func:`run_table1`, ``OPENBLAS_NUM_THREADS=1`` included.
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
    _write_csv(out / f"sweep_{axis}.csv", "value,mu_est,final_err_l2,status",
               ((r["value"], r["mu_est"], r["final_err"], r["status"]) for r in rows))
    return rows
