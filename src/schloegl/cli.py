"""Command-line entry point for the experiment harness.

Subcommands: simulate-free, simulate-feedback, run-rhc, table1, sweep,
constants, margin, ode-toy.  Exit codes: 0 success, 2 configuration
error, 3 numerical failure (blow-up; the run artifacts are still
written).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .actuators import build_actuator_grid, discretize_actuators
from .analysis import compute_theory_constants, ode_toy_simulate, stabilizability_margin
from .dynamics import BlowUpError
from .experiments import (
    ConfigError,
    ScenarioConfig,
    parse_bound,
    parse_config,
    run_scenario,
    run_sweep,
    run_table1,
)
from .geometry import RectangleDomain, build_fem

CI_MESH = 16


def _load_config(args) -> ScenarioConfig:
    if args.config:
        cfg = parse_config(Path(args.config).read_text())
    else:
        cfg = parse_config("")
    if getattr(args, "ci", False):
        cfg = replace(cfg, nx=CI_MESH, ny=CI_MESH)
    return cfg


def _scenario_command(args, controller: str) -> int:
    cfg = replace(_load_config(args), controller=controller)
    artifact = run_scenario(cfg, args.out)
    for key, val in artifact.summary.items():
        print(f"{key} = {val}")
    return 3 if artifact.summary["status"] != "completed" else 0


def _cmd_table1(args) -> int:
    base = _load_config(args)
    rows = run_table1(args.out, base=base, workers=args.threads)
    print((Path(args.out) / "table1.txt").read_text())
    bad = [r for r in rows if "failed" in str(r["rhc_status"]) or "failed" in str(r["satcon_status"])]
    return 3 if bad else 0


def _cmd_sweep(args) -> int:
    base = _load_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    rows = run_sweep(args.axis, values, base, args.out, workers=args.threads)
    for r in rows:
        print(f"{args.axis} = {r['value']}: mu_est = {r['mu_est']}, status = {r['status']}")
    return 3 if any("failed" in str(r["status"]) or r["status"] == "completed-unstable" for r in rows) else 0


def _cmd_constants(args) -> int:
    grid = build_actuator_grid(args.m, args.r, RectangleDomain(args.lx, args.ly))
    zeta = tuple(float(z) for z in args.zeta.split(","))
    if len(zeta) != 3:
        raise ConfigError(None, "zeta needs exactly three comma-separated values")
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
    fe = build_fem(args.nx, args.nx, args.nu, domain)
    grid = build_actuator_grid(args.m, args.r, domain)
    coupling = discretize_actuators(grid, fe.mesh)
    required = 0.0
    if args.mu is not None:
        zeta = tuple(float(z) for z in args.zeta.split(","))
        tc = compute_theory_constants(args.mu, zeta, domain.area, args.gain, grid)
        required = tc.margin_requirement
    rep = stabilizability_margin(args.gain, coupling, fe, required_margin=required)
    print(f"m = {rep.m}")
    print(f"gain = {rep.gain:.17g}")
    print(f"min_eigenvalue = {rep.min_eigenvalue:.17g}")
    print(f"required_margin = {rep.required_margin:.17g}")
    print(f"passed = {rep.passed}")
    return 0


def _cmd_ode_toy(args) -> int:
    bound = parse_bound(args.cu)
    times, z = ode_toy_simulate(args.r, bound, args.mu, args.z0, args.horizon, law=args.law)
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write("t,z\n")
            for t, v in zip(times[:: args.stride], z[:: args.stride]):
                fh.write(f"{t:.17g},{v:.17g}\n")
        print(f"wrote {path}")
    print(f"z_initial = {z[0]:.17g}")
    print(f"z_final = {z[-1]:.17g}")
    print(f"abs_max = {max(abs(v) for v in z):.17g}")
    return 0


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
    add_run("table1", "cost comparison grid: saturated feedback vs RHC").add_argument("--threads", type=int, default=1)
    sp = add_run("sweep", "one run per value along an axis, consolidating decay rates")
    sp.add_argument("--threads", type=int, default=1)
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
    sp.add_argument("--stride", type=int, default=100)
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
    except BlowUpError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
