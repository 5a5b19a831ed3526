"""Time and size one RHC window solve: its forward windows, its adjoint sweeps and the optimizer around them.

    PYTHONPATH=src python3 scripts/bench_window.py --label NAME [--repeats K] [--cases 16:750:500,57:1250:3] [--out DIR]

Each case ``N:LEVELS:JMAX`` solves the first window of the benchmark's RHC
scenario on an N x N mesh with ``bb_projected_gradient``: the Table-1
forcing, actuators and initial states, an unbounded admissible set, a
window of LEVELS steps warm-started from the saturated feedback, and at
most JMAX iterations.  The default cases are 16 x 16 over 750 levels, run
to convergence, and the paper's 57 x 57 over 1250 levels, capped at 3
iterations.  K timed solves after one untimed warm-up give the wall time
as min-of-K, median and [Q1, Q3], with the solve's own ``forward_s``,
``adjoint_s``, iterations, evaluations and cost.  A separate solve under
``tracemalloc``, with the target rows allocated before tracing starts,
gives the allocation peak of the solve in MB and in window state arrays
((LEVELS + 1) x nodes float64).  Writes ``DIR/BENCH_window_NAME.json``.
Run with one BLAS thread (``OPENBLAS_NUM_THREADS=1``) to match the
benchmark.  It measures whichever ``schloegl`` is on the path, so the same
script measures two checkouts by pointing ``PYTHONPATH`` at each one's ``src``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
from bench_setup import environment

from schloegl import actuators, dynamics, feedback, geometry, rhc

NU = 0.1
DT = 1e-3
GAIN = 175.0  # the warm start's feedback gain
GRID = (3, 0.33)  # the Table-1 actuator grid: m, width fraction
Y0, TARGET_Y0 = -1.0, 2.0
DEFAULT_CASES = "16:750:500,57:1250:3"


def window_problem(n: int, levels: int) -> tuple[rhc.OcpProblem, np.ndarray]:
    """The first window of the benchmark's RHC scenario on an n x n mesh, and its warm start."""
    fe = geometry.build_fem(n, n, NU)
    coupling = actuators.discretize_actuators(actuators.build_actuator_grid(*GRID), fe.mesh)
    params = dynamics.SchloeglParams(nu=NU)
    forcing = dynamics.ForcingSpec.periodic_indicator()
    target = dynamics.simulate_free(np.full(fe.mesh.n_nodes, TARGET_Y0), levels * DT, fe, params, forcing,
                                    dynamics.IntegratorConfig(dt=DT, state_stride=1)).states
    prob = rhc.OcpProblem(coupling=coupling, stepper=dynamics.CrankNicolsonAB2(fe, params, DT),
                          y0=np.full(fe.mesh.n_nodes, Y0), y_prev=None, target=target, beta=1e-3,
                          saturation=feedback.SaturationConfig(norm="max"),
                          load=dynamics.ForcingLoad(forcing, fe, DT))
    return prob, rhc.saturated_control_on_window(prob, GAIN)


def summary(seconds: list[float]) -> dict:
    s = np.array(seconds)
    q1, median, q3 = np.percentile(s, [25, 50, 75])
    return {"min_s": float(s.min()), "median_s": float(median), "q1_s": float(q1), "q3_s": float(q3),
            "samples_s": s.tolist()}


def run_case(n: int, levels: int, j_max: int, repeats: int) -> dict:
    prob, u_init = window_problem(n, levels)
    solve = partial(rhc.bb_projected_gradient, prob, u_init, j_max=j_max)
    solve()  # warm-up: first-call allocations and the stepper's lazily built kernels
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        res = solve()
        runs.append((time.perf_counter() - t0, res))
    tracemalloc.start()
    try:
        traced = solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    window_bytes = prob.target.nbytes  # one window of states
    results = [r for _, r in runs]
    res = results[0]
    return {"nx": n, "levels": levels, "j_max": j_max, "nodes": prob.stepper.fe.mesh.n_nodes,
            "wall": summary([s for s, _ in runs]),
            "forward": summary([r.forward_s for r in results]),
            "adjoint": summary([r.adjoint_s for r in results]),
            "iterations": res.iterations, "evaluations": res.n_evaluations, "message": res.message,
            "cost": repr(res.cost),
            "same_result_every_run": all(r.cost == res.cost and np.array_equal(r.u, res.u)
                                         for r in results + [traced]),
            "window_array_mb": window_bytes / 1e6, "tracemalloc_peak_mb": peak / 1e6,
            "peak_in_window_arrays": peak / window_bytes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the output file BENCH_window_<label>.json")
    ap.add_argument("--repeats", type=int, default=5, help="timed solves per case (min-of-k)")
    ap.add_argument("--cases", default=DEFAULT_CASES, help="comma-separated N:LEVELS:JMAX window cases")
    ap.add_argument("--out", default=".", help="directory of the JSON file")
    args = ap.parse_args(argv)
    try:
        cases = [tuple(int(v) for v in c.split(":")) for c in args.cases.split(",")]
    except ValueError:
        cases = []
    if not cases or any(len(c) != 3 or min(c) < 1 for c in cases):
        ap.error("--cases takes comma-separated N:LEVELS:JMAX, each an integer >= 1")
    if args.repeats < 1:
        ap.error("--repeats must be >= 1")
    result = {"label": args.label, "repeats": args.repeats, "environment": environment(),
              "cases": [run_case(*c, args.repeats) for c in cases]}
    path = Path(args.out) / f"BENCH_window_{args.label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")
    for c in result["cases"]:
        print(f"{c['nx']}x{c['nx']} {c['levels']} levels: wall min {c['wall']['min_s']:.3f} s "
              f"median {c['wall']['median_s']:.3f} [{c['wall']['q1_s']:.3f}, {c['wall']['q3_s']:.3f}]  "
              f"forward {c['forward']['median_s']:.3f}  adjoint {c['adjoint']['median_s']:.3f}  "
              f"{c['iterations']} it / {c['evaluations']} ev  cost {c['cost']}  "
              f"peak {c['tracemalloc_peak_mb']:.1f} MB = {c['peak_in_window_arrays']:.2f} windows")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
