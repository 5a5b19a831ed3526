"""Time the library layer by layer on its own Table-1 scenario: the set-up, one RHC window solve, one closed loop.

    PYTHONPATH=src python3 scripts/bench_layers.py setup --label NAME [--repeats K] [--sizes 16,57,100] [--out DIR]
    PYTHONPATH=src python3 scripts/bench_layers.py window --label NAME [--repeats K] [--cases N:L:J,...] [--out DIR]
    PYTHONPATH=src python3 scripts/bench_layers.py search --label NAME [--repeats K] [--cases N:L:J,...] [--out DIR]
    PYTHONPATH=src python3 scripts/bench_layers.py loop --label NAME [--repeats K] [--cases N:L,...] [--out DIR]

The scenario is ``experiments._TABLE1_BASE``, its admissible set unbounded
in the max norm.  ``setup`` times ``build_fem``, ``discretize_actuators`` on
the Table-1 grid and the margin sweep's four grids, and the stepper's
construction on each n x n mesh (ms).  ``window`` solves the first window of
each case, an N x N mesh, L levels warm-started from the saturated feedback
and at most J iterations of ``bb_projected_gradient`` (by default 16:750:500
and 57:1250:3), with its forward and adjoint seconds; one more solve under
``tracemalloc`` gives the allocation peak beyond the target rows, in MB and
in window state arrays ((L + 1) x nodes float64).  ``search`` solves the same
windows under the e^1.5 max-norm ball (by default 16:750:500 and 57:1250:2),
whose line search rejects most trials, and records the solve's forward and
adjoint seconds, its iterations, evaluations, cost and the SHA-256 of its
optimal amplitudes; one more, untimed solve counts the evaluations and
adjoint sweeps that the line search's trial lane (the child the library
forks, if it does) begins, and reads the child's private dirty memory after
each of them, the memory a fork adds to the run, against one window of
states, in MB; the peak resident memory of this process closes the layer.
``loop`` runs ``feedback.track_target`` of the scenario on each case's N x N mesh for L
levels (by default 57:500), its target co-simulated from the initial state,
and records the run's cost and final error; one more, untimed run reads the
private dirty memory of the target's child (if the library forks one) every
``CHILD_READ_EVERY`` levels, in MB; the peak resident memory of this process
closes the layer.  After an untimed warm-up, each timing is min-of-K, median
and [Q1, Q3], written with the machine to ``DIR/BENCH_<layer>_NAME.json``.  Run with ``OPENBLAS_NUM_THREADS=1``, as the
benchmark does; pointing ``PYTHONPATH`` at another checkout's ``src`` times that one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import mmap
import os
import platform
import resource
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import scipy

from schloegl import actuators, dynamics, experiments, feedback, geometry, rhc

BASE = experiments._TABLE1_BASE
# the scenario of the search layer: the Table-1 windows under the e^1.5 max-norm ball
SEARCH = experiments._override(BASE, "search layer", cu_tag="e^1.5")
PARAMS = dynamics.SchloeglParams(nu=BASE.nu, roots=BASE.zeta)
# (m, width fraction) of every actuator grid the benchmark workloads build: Table 1's and the margin sweep's four
GRIDS = ((BASE.m, BASE.r), (1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5))
# per layer: its list option, the integers in each comma-separated item, and the form it takes
LISTS = {"setup": ("sizes", 1, "comma-separated integers >= 1"),
         "window": ("cases", 3, "comma-separated N:LEVELS:JMAX, each an integer >= 1"),
         "search": ("cases", 3, "comma-separated N:LEVELS:JMAX, each an integer >= 1"),
         "loop": ("cases", 2, "comma-separated N:LEVELS, each an integer >= 1")}
# levels between two readings of the private memory of the loop layer's target child
CHILD_READ_EVERY = 50


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def summary(seconds: list[float], unit: str) -> dict:
    """Min, median, quartiles and samples of ``seconds``, in ``unit`` ("s" or "ms")."""
    x = np.array(seconds) * {"s": 1.0, "ms": 1e3}[unit]
    q1, median, q3 = np.percentile(x, [25, 50, 75])
    return {f"min_{unit}": float(x.min()), f"median_{unit}": float(median), f"q1_{unit}": float(q1),
            f"q3_{unit}": float(q3), f"samples_{unit}": x.tolist()}


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "platform": platform.platform(),
            **{var: os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


def one_round(n: int) -> dict:
    """Seconds of each set-up step on an n x n mesh, every step built anew."""
    fe, times = _timed(geometry.build_fem, n, n, BASE.nu)
    out = {f"build_fem_{n}": times}
    for m, r in GRIDS:
        grid = actuators.build_actuator_grid(m, r)
        _, out[f"discretize_{n}_m{m}_r{r}"] = _timed(actuators.discretize_actuators, grid, fe.mesh)
    _, out[f"stepper_{n}"] = _timed(dynamics.CrankNicolsonAB2, fe, PARAMS, BASE.dt)
    return out


def setup(repeats: int, sizes: list[int]) -> tuple[dict, list[str]]:
    for n in sizes:  # warm-up: imports, LAPACK lookups and first-call allocations
        one_round(n)
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        for n in sizes:
            for name, seconds in one_round(n).items():
                samples.setdefault(name, []).append(seconds)
    timings = {name: summary(s, "ms") for name, s in samples.items()}
    lines = [f"{name:28s} min {t['min_ms']:8.3f} ms  median {t['median_ms']:8.3f}  "
             f"[{t['q1_ms']:.3f}, {t['q3_ms']:.3f}]" for name, t in timings.items()]
    return {"sizes": sizes, "grids": [list(g) for g in GRIDS], "timings": timings}, lines


def window_problem(n: int, levels: int, cfg=BASE) -> tuple[rhc.OcpProblem, np.ndarray]:
    """The first window of the scenario ``cfg`` on an n x n mesh, and its warm start."""
    fe = geometry.build_fem(n, n, BASE.nu)
    coupling = actuators.discretize_actuators(actuators.build_actuator_grid(BASE.m, BASE.r), fe.mesh)
    forcing = experiments.forcing_spec(BASE.forcing)
    target = dynamics.simulate_free(experiments.initial_field(BASE.yhat0, fe.mesh), levels * BASE.dt, fe, PARAMS,
                                    forcing, dynamics.IntegratorConfig(dt=BASE.dt, state_stride=1)).states
    prob = rhc.OcpProblem(coupling=coupling, stepper=dynamics.CrankNicolsonAB2(fe, PARAMS, BASE.dt),
                          y0=experiments.initial_field(BASE.y0, fe.mesh), y_prev=None, target=target,
                          beta=BASE.rhc_beta, saturation=feedback.SaturationConfig(bound=cfg.cu, norm=cfg.norm),
                          load=dynamics.ForcingLoad(forcing, fe, BASE.dt))
    return prob, rhc.saturated_control_on_window(prob, BASE.gain)


def timed_solves(n: int, levels: int, j_max: int, repeats: int, cfg=BASE):
    """After a warm-up, ``repeats`` timed solves of the first window of ``cfg``: the problem, the solve,
    its results and the case fields they give (mesh, timings, counts, stop message and cost)."""
    prob, u_init = window_problem(n, levels, cfg)
    solve = partial(rhc.bb_projected_gradient, prob, u_init, tol=BASE.rhc_tol, j_max=j_max)
    solve()  # warm-up: first-call allocations and the stepper's lazily built kernels
    runs = [_timed(solve) for _ in range(repeats)]
    results = [r for r, _ in runs]
    res = results[0]
    return prob, solve, results, {
        "nx": n, "levels": levels, "j_max": j_max, "nodes": prob.stepper.fe.mesh.n_nodes,
        "wall": summary([s for _, s in runs], "s"),
        "forward": summary([r.forward_s for r in results], "s"),
        "adjoint": summary([r.adjoint_s for r in results], "s"),
        "iterations": res.iterations, "evaluations": res.n_evaluations, "message": res.message,
        "cost": repr(res.cost)}


def same_result(results: list) -> bool:
    return all(r.cost == results[0].cost and np.array_equal(r.u, results[0].u) for r in results)


def solve_line(c: dict) -> str:
    return (f"{c['nx']}x{c['nx']} {c['levels']} levels: wall min {c['wall']['min_s']:.3f} s "
            f"median {c['wall']['median_s']:.3f} [{c['wall']['q1_s']:.3f}, {c['wall']['q3_s']:.3f}]  "
            f"forward {c['forward']['median_s']:.3f}  adjoint {c['adjoint']['median_s']:.3f}  "
            f"{c['iterations']} it / {c['evaluations']} ev  cost {c['cost']}")


def window_case(n: int, levels: int, j_max: int, repeats: int) -> dict:
    prob, solve, results, case = timed_solves(n, levels, j_max, repeats)
    tracemalloc.start()
    try:
        traced = solve()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    window_bytes = prob.target.nbytes  # one window of states
    return {**case, "same_result_every_run": same_result(results + [traced]),
            "window_array_mb": window_bytes / 1e6, "tracemalloc_peak_mb": peak / 1e6,
            "peak_in_window_arrays": peak / window_bytes}


def window(repeats: int, cases: list[list[int]]) -> tuple[dict, list[str]]:
    results = [window_case(*c, repeats) for c in cases]
    lines = [f"{solve_line(c)}  peak {c['tracemalloc_peak_mb']:.1f} MB = {c['peak_in_window_arrays']:.2f} windows"
             for c in results]
    return {"cases": results}, lines


def private_dirty_mb() -> float:
    """The private dirty memory of this process, in MB: the pages it wrote that no other process maps."""
    with open("/proc/self/smaps_rollup") as fh:
        return sum(int(ln.split()[1]) for ln in fh if ln.startswith("Private_Dirty:")) / 1024.0


def child_private_mb(run, owner, names: tuple[str, ...], when=lambda *args: True) -> tuple[object, float, list[int]]:
    """``run()`` with the functions ``names`` of ``owner`` wrapped so that a forked child counts the calls
    it makes of each, and reads its private dirty memory after each call with ``when(*args)`` true
    returns: the result, the largest reading in MB (0.0 if nothing forked or nothing was read) and, per
    name, the calls the children made."""
    parent = os.getpid()
    # the largest reading, then the calls of each name; anonymous, so the children write the parent's
    cells = np.frombuffer(mmap.mmap(-1, 8 * (1 + len(names))), dtype=np.float64)

    def read_in_child(fn, calls):
        def wrapped(*args):
            in_child = os.getpid() != parent
            if in_child:
                cells[calls] += 1
            out = fn(*args)
            if in_child and when(*args):
                cells[0] = max(cells[0], private_dirty_mb())
            return out
        return wrapped

    saved = [getattr(owner, name) for name in names]
    for i, (name, fn) in enumerate(zip(names, saved), 1):
        setattr(owner, name, read_in_child(fn, i))
    try:
        return run(), float(cells[0]), [int(c) for c in cells[1:]]
    finally:
        for name, fn in zip(names, saved):
            setattr(owner, name, fn)


def peak_rss_mb() -> float:
    """The peak resident memory of this process, in MB (ru_maxrss is in kB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def search_case(n: int, levels: int, j_max: int, repeats: int) -> dict:
    prob, solve, results, case = timed_solves(n, levels, j_max, repeats, SEARCH)
    # untimed: reading the memory map takes a few ms; read while the lane's child holds a trial's states
    read, child_mb, (child_evaluations, child_adjoints) = child_private_mb(solve, rhc, ("evaluate_cost",
                                                                                       "solve_adjoint"))
    return {**case, "u_sha256": hashlib.sha256(results[0].u.tobytes()).hexdigest(),
            "same_result_every_run": same_result(results + [read]),
            "window_array_mb": prob.target.nbytes / 1e6, "child_private_mb": child_mb,
            "child_evaluations": child_evaluations, "child_adjoints": child_adjoints}


def search(repeats: int, cases: list[list[int]]) -> tuple[dict, list[str]]:
    results = [search_case(*c, repeats) for c in cases]
    peak = peak_rss_mb()
    lines = [f"{solve_line(c)}  u {c['u_sha256'][:12]}  child {c['child_evaluations']} ev / "
             f"{c['child_adjoints']} adj, {c['child_private_mb']:.1f} MB private "
             f"(a window: {c['window_array_mb']:.1f} MB)" for c in results]
    lines.append(f"peak RSS {peak:.2f} MB")
    return {"cases": results, "peak_rss_mb": peak}, lines


def loop_case(n: int, levels: int, repeats: int) -> dict:
    fe = geometry.build_fem(n, n, BASE.nu)
    coupling = actuators.discretize_actuators(actuators.build_actuator_grid(BASE.m, BASE.r), fe.mesh)
    law = feedback.FeedbackLaw(gain=BASE.gain, saturation=feedback.SaturationConfig(bound=BASE.cu, norm=BASE.norm))
    integ = dynamics.IntegratorConfig(dt=BASE.dt, state_stride=BASE.state_stride, cost_beta=BASE.rhc_beta)
    run = partial(feedback.track_target, experiments.initial_field(BASE.y0, fe.mesh),
                  experiments.initial_field(BASE.yhat0, fe.mesh), law, coupling, fe, PARAMS,
                  experiments.forcing_spec(BASE.forcing), integ, levels * BASE.dt)
    run()  # warm-up
    runs = [_timed(run) for _ in range(repeats)]
    # untimed: the target's child reads its memory every CHILD_READ_EVERY levels, never after its last
    # level, which this process may kill it at
    read, child_mb, _ = child_private_mb(run, dynamics._RingWriter, ("__setitem__",),
                                         lambda writer, k, y: (k + 1) % CHILD_READ_EVERY == 0 and k + 1 < levels)
    records = [r for r, _ in runs] + [read]
    rec = records[0]
    return {"nx": n, "levels": levels, "nodes": fe.mesh.n_nodes, "wall": summary([s for _, s in runs], "s"),
            "J_total": repr(float(rec.running_cost[-1])), "final_err_l2": repr(float(rec.err_norm[-1])),
            "same_result_every_run": all(np.array_equal(getattr(r, f), getattr(rec, f)) for r in records
                                         for f in ("states", "err_norm", "controls")),
            "child_private_mb": child_mb}


def loop(repeats: int, cases: list[list[int]]) -> tuple[dict, list[str]]:
    results = [loop_case(*c, repeats) for c in cases]
    peak = peak_rss_mb()
    lines = [f"{c['nx']}x{c['nx']} {c['levels']} levels: wall min {c['wall']['min_s']:.3f} s "
             f"median {c['wall']['median_s']:.3f} [{c['wall']['q1_s']:.3f}, {c['wall']['q3_s']:.3f}]  "
             f"J {c['J_total']}  final error {c['final_err_l2']}  child {c['child_private_mb']:.1f} MB private"
             for c in results]
    lines.append(f"peak RSS {peak:.2f} MB")
    return {"cases": results, "peak_rss_mb": peak}, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    layers = ap.add_subparsers(dest="layer", required=True)
    sp = {}
    for layer, repeats, what in (("setup", 9, "timed rounds per size"), ("window", 5, "timed solves per case"),
                                 ("search", 5, "timed solves per case"), ("loop", 5, "timed runs per case")):
        sp[layer] = layers.add_parser(layer, help=f"time the {layer} layer")
        sp[layer].add_argument("--label", required=True, help=f"names the output file BENCH_{layer}_<label>.json")
        sp[layer].add_argument("--repeats", type=int, default=repeats, help=f"{what} (min-of-k)")
        sp[layer].add_argument("--out", default=".", help="directory of the JSON file")
    sp["setup"].add_argument("--sizes", default="16,57,100", help="comma-separated n of the n x n meshes")
    sp["window"].add_argument("--cases", default="16:750:500,57:1250:3",
                              help="comma-separated N:LEVELS:JMAX window cases")
    sp["search"].add_argument("--cases", default="16:750:500,57:1250:2",
                              help="comma-separated N:LEVELS:JMAX window cases under the e^1.5 max-norm ball")
    sp["loop"].add_argument("--cases", default="57:500", help="comma-separated N:LEVELS closed-loop cases")
    args = ap.parse_args(argv)
    option, width, form = LISTS[args.layer]
    try:
        items = [[int(v) for v in c.split(":")] for c in getattr(args, option).split(",")]
    except ValueError:
        items = []
    if not items or any(len(c) != width or min(c) < 1 for c in items):
        sp[args.layer].error(f"--{option} takes {form}")
    if args.repeats < 1:
        sp[args.layer].error("--repeats takes an integer >= 1")
    if args.layer == "setup":
        fields, lines = setup(args.repeats, [c[0] for c in items])
    else:
        fields, lines = {"window": window, "search": search, "loop": loop}[args.layer](args.repeats, items)
    result = {"label": args.label, "repeats": args.repeats, "environment": environment(), **fields}
    path = Path(args.out) / f"BENCH_{args.layer}_{args.label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")
    print("\n".join(lines))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
