"""Command-line entry point for the experiment harness.

Subcommands: simulate-free, simulate-feedback, run-rhc, table1, sweep,
constants, margin, ode-toy.  Exit codes: 0 success, 2 configuration
error, 3 a run that did not complete (blow-up, failed job or failed
margin eigen-solve; a run's artifacts are still written).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ._checks import is_count
from .actuators import build_actuator_grid, discretize_actuators
from .analysis import MarginSolveError, compute_theory_constants, ode_toy_simulate, stabilizability_margin
from .dynamics import BlowUpError
from .experiments import (
    _TABLE1_BASE,
    ConfigError,
    ScenarioConfig,
    _checked,
    _override,
    _write_csv,
    parse_bound,
    parse_config,
    run_scenario,
    run_sweep,
    run_table1,
)
from .geometry import RectangleDomain, build_fem

CI_MESH = 16


def _load_config(args, base: ScenarioConfig = ScenarioConfig()) -> ScenarioConfig:
    """The scenario of ``--config``, else ``base``, with ``--ci`` applied."""
    cfg = parse_config(Path(args.config).read_text()) if args.config else base
    if args.ci:
        cfg = _override(cfg, "--ci", nx=CI_MESH, ny=CI_MESH)
    return cfg


def _exit_code(statuses) -> int:
    """3 when any run ended other than ``completed`` (blown up or failed), else 0."""
    return 3 if any(s != "completed" for s in statuses) else 0


def _scenario_command(args, controller: str) -> int:
    cfg = _override(_load_config(args), args.command, controller=controller)
    artifact = run_scenario(cfg, args.out)
    for key, val in artifact.summary.items():
        print(f"{key} = {val}")
    return _exit_code([artifact.summary["status"]])


def _cmd_table1(args) -> int:
    base = _load_config(args, _TABLE1_BASE)
    rows = run_table1(args.out, base=base, workers=args.threads)
    print((Path(args.out) / "table1.txt").read_text())
    return _exit_code([r[f"{kind}_status"] for r in rows for kind in ("rhc", "satcon")])


def _cmd_sweep(args) -> int:
    base = _load_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    rows = run_sweep(args.axis, values, base, args.out, workers=args.threads)
    for r in rows:
        print(f"{args.axis} = {r['value']}: mu_est = {r['mu_est']}, status = {r['status']}")
    return _exit_code([r["status"] for r in rows])


def _cmd_constants(args) -> int:
    grid = build_actuator_grid(args.m, args.r, RectangleDomain(args.lx, args.ly))
    zeta = _checked("params.zeta", text=args.zeta)
    tc = compute_theory_constants(args.mu, zeta, args.lx * args.ly, args.gain, grid)
    s2, s1, s0 = tc.elementary_sums
    print(f"decay_rate = {tc.decay_rate:.17g}")
    print(f"coeff_sum = {s2:.17g}")
    print(f"coeff_pair = {s1:.17g}")
    print(f"coeff_product = {s0:.17g}")
    print(f"quad_max = {tc.quad_max:.17g}")
    print(f"growth_constant = {tc.growth_constant:.17g}")
    print(f"absorbing_radius_raw = {tc.absorbing_radius_raw:.17g}")
    print(f"absorbing_radius = {tc.absorbing_radius:.17g}")
    print(f"margin_requirement = {tc.margin_requirement:.17g}")
    print(f"saturation_inactivity_bound = {tc.saturation_inactivity_bound:.17g}")
    print(f"entry_time_bound = {tc.entry_time_bound:.17g}")
    return 0


def _cmd_margin(args) -> int:
    domain = RectangleDomain(args.lx, args.ly)
    grid = build_actuator_grid(args.m, args.r, domain)
    zeta = _checked("params.zeta", text=args.zeta)
    required = 0.0
    if args.mu is not None:
        required = compute_theory_constants(args.mu, zeta, domain.area, args.gain, grid).margin_requirement
    fe = build_fem(args.nx, args.nx, args.nu, domain)
    coupling = discretize_actuators(grid, fe.mesh)
    rep = stabilizability_margin(args.gain, coupling, fe, required_margin=required)
    print(f"m = {rep.m}")
    print(f"gain = {rep.gain:.17g}")
    print(f"min_eigenvalue = {rep.min_eigenvalue:.17g}")
    print(f"residual = {rep.residual:.17g}")
    print(f"required_margin = {rep.required_margin:.17g}")
    print(f"passed = {rep.passed}")
    return 0


def _cmd_ode_toy(args) -> int:
    bound = parse_bound(_checked("feedback.cu", text=args.cu))
    times, z = ode_toy_simulate(args.r, bound, args.mu, args.z0, args.horizon, law=args.law)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        _write_csv(path, "t,z", zip(times[:: args.stride], z[:: args.stride]))
        print(f"wrote {path}")
    print(f"z_initial = {z[0]:.17g}")
    print(f"z_final = {z[-1]:.17g}")
    print(f"abs_max = {abs(z).max():.17g}")  # NaN if any value is
    return 0


def _positive_int(text: str) -> int:
    """An argparse type: a count, an integer >= 1."""
    if not is_count(n := int(text)):
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text}")
    return n


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="schloegl", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_run(name, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", help="scenario configuration file")
        sp.add_argument("--out", required=True, help="output directory")
        sp.add_argument("--ci", action="store_true", help=f"coarse preset (mesh {CI_MESH}x{CI_MESH})")
        return sp

    add_run("simulate-free", "free dynamics vs the target (controller none)")
    add_run("simulate-feedback", "saturated feedback closed loop")
    add_run("run-rhc", "receding-horizon control run")
    table1 = add_run("table1", "cost comparison grid: saturated feedback vs RHC")
    sp = add_run("sweep", "one run per value along an axis, consolidating decay rates")
    for multi in (table1, sp):
        multi.add_argument("--threads", type=_positive_int, default=1,
                           help="worker processes (>= 1); run with OPENBLAS_NUM_THREADS=1, or the workers may stall")
    sp.add_argument("--axis", required=True, choices=("cu", "lambda", "msigma"))
    sp.add_argument("--values", required=True, help="comma-separated values, e.g. 'e^1,e^2,inf'")

    sp = sub.add_parser("constants", help="closed-form theory constants report")
    sp.add_argument("--mu", type=float, required=True)
    sp.add_argument("--zeta", default="-1,0,2")
    sp.add_argument("--gain", type=float, default=175.0)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--r", type=float, default=0.5)
    sp.add_argument("--lx", type=float, default=1.0)
    sp.add_argument("--ly", type=float, default=1.0)

    sp = sub.add_parser("margin", help="discrete spectral stabilizability margin")
    sp.add_argument("--gain", type=float, required=True)
    sp.add_argument("--m", type=int, default=3)
    sp.add_argument("--r", type=float, default=0.5)
    sp.add_argument("--nx", type=int, default=48)
    sp.add_argument("--nu", type=float, default=0.1)
    sp.add_argument("--mu", type=float, default=None, help="also evaluate the required margin at this rate")
    sp.add_argument("--zeta", default="-1,0,2")
    sp.add_argument("--lx", type=float, default=1.0)
    sp.add_argument("--ly", type=float, default=1.0)

    sp = sub.add_parser("ode-toy", help="scalar saturation toy model")
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--cu", default="inf")
    sp.add_argument("--mu", type=float, default=1.0)
    sp.add_argument("--z0", type=float, required=True)
    sp.add_argument("--horizon", type=float, default=3.0)
    sp.add_argument("--law", choices=("feedback", "free"), default="feedback")
    sp.add_argument("--out", default=None, help="optional CSV path")
    sp.add_argument("--stride", type=_positive_int, default=100)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "simulate-free": lambda a: _scenario_command(a, "none"),
        "simulate-feedback": lambda a: _scenario_command(a, "saturated"),
        "run-rhc": lambda a: _scenario_command(a, "rhc"),
        "table1": _cmd_table1,
        "sweep": _cmd_sweep,
        "constants": _cmd_constants,
        "margin": _cmd_margin,
        "ode-toy": _cmd_ode_toy,
    }
    try:
        return handlers[args.command](args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BlowUpError, MarginSolveError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
