"""Time the set-up layer: operator assembly, actuator clipping and the stepper's factorizations.

    PYTHONPATH=src python3 scripts/bench_setup.py --label NAME [--repeats K] [--sizes 16,57,100] [--out DIR]

For each n x n mesh size it times, in one process and K interleaved
rounds after one untimed warm-up round, ``build_fem(n, n, 0.1)``,
``discretize_actuators`` on each actuator grid the benchmark workloads
build, and the ``CrankNicolsonAB2`` construction at dt = 1e-3.  Each
timing is reported in ms as min-of-K, median and [Q1, Q3], with the
machine and library versions, in ``DIR/BENCH_setup_NAME.json``.  Run
with one BLAS thread (``OPENBLAS_NUM_THREADS=1``) to match the benchmark.
It measures whichever ``schloegl`` is on the path, so the same script
times two checkouts by pointing ``PYTHONPATH`` at each one's ``src``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

import numpy as np
import scipy

from schloegl import actuators, dynamics, geometry

# (m, width fraction) of every actuator grid the benchmark workloads build:
# the scenario workloads' Table-1 grid and the margin sweep's four grids
GRIDS = ((3, 0.33), (1, 0.5), (2, 0.5), (3, 0.5), (4, 0.5))
NU = 0.1
DT = 1e-3
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def one_round(n: int) -> dict:
    """Seconds of each set-up step on an n x n mesh, every step built anew."""
    fe, times = _timed(geometry.build_fem, n, n, NU)
    out = {f"build_fem_{n}": times}
    for m, r in GRIDS:
        grid = actuators.build_actuator_grid(m, r)
        _, out[f"discretize_{n}_m{m}_r{r}"] = _timed(actuators.discretize_actuators, grid, fe.mesh)
    _, out[f"stepper_{n}"] = _timed(dynamics.CrankNicolsonAB2, fe, dynamics.SchloeglParams(nu=NU), DT)
    return out


def summary(seconds: list[float]) -> dict:
    ms = np.array(seconds) * 1e3
    q1, median, q3 = np.percentile(ms, [25, 50, 75])
    return {"min_ms": float(ms.min()), "median_ms": float(median), "q1_ms": float(q1), "q3_ms": float(q3),
            "samples_ms": ms.tolist()}


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "platform": platform.platform(),
            **{var: os.environ.get(var) for var in THREAD_VARS}}


def run(label: str, repeats: int, sizes: list[int]) -> dict:
    for n in sizes:  # warm-up: imports, LAPACK lookups and first-call allocations
        one_round(n)
    samples: dict[str, list[float]] = {}
    for _ in range(repeats):
        for n in sizes:
            for name, seconds in one_round(n).items():
                samples.setdefault(name, []).append(seconds)
    return {"label": label, "repeats": repeats, "sizes": sizes, "grids": [list(g) for g in GRIDS],
            "environment": environment(), "timings": {name: summary(s) for name, s in samples.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="names the output file BENCH_setup_<label>.json")
    ap.add_argument("--repeats", type=int, default=9, help="timed rounds per size (min-of-k)")
    ap.add_argument("--sizes", default="16,57,100", help="comma-separated n of the n x n meshes")
    ap.add_argument("--out", default=".", help="directory of the JSON file")
    args = ap.parse_args(argv)
    sizes = [int(s) for s in args.sizes.split(",")]
    if args.repeats < 1 or min(sizes) < 1:
        ap.error("--repeats and every size must be >= 1")
    result = run(args.label, args.repeats, sizes)
    path = Path(args.out) / f"BENCH_setup_{args.label}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(result, indent=1) + "\n")
    for name, t in result["timings"].items():
        print(f"{name:28s} min {t['min_ms']:8.3f} ms  median {t['median_ms']:8.3f}  "
              f"[{t['q1_ms']:.3f}, {t['q3_ms']:.3f}]")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
