"""One benchmark sample in a fresh process: set up, time the driver call, check it.

    python3 perfbench/sample.py --workload NAME --seed N --trace 0|1 --out DIR

``src`` must be on PYTHONPATH.  Untraced, the set-up runs SETUP_REPEATS
times and its median is reported, then the driver call is timed once.
Traced, one set-up and the driver call run under the tracer, the spans go
to DIR/spans.csv and the per-layer numbers into the record.  Prints the
sample record as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

from spans import Tracer, install, layer_metrics
from workloads import WORKLOADS

SETUP_REPEATS = 3


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _blas() -> str:
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('version')}"


def run_sample(name: str, seed: int, traced: bool, out: Path) -> dict:
    wl = WORKLOADS[name]
    inp = wl.inputs(seed)
    run_dir = out / "run"
    shutil.rmtree(run_dir, ignore_errors=True)
    record = {"ok": False, "errors": []}
    tracer = Tracer()
    try:
        if traced:
            restore = install(tracer)
            try:
                ops, setup_s = _timed(wl.setup, inp)
                result, run_s = _timed(wl.run, inp, ops, run_dir)
            finally:
                restore()
        else:
            setups = [_timed(wl.setup, inp) for _ in range(SETUP_REPEATS)]
            ops, setup_s = setups[-1][0], statistics.median(t for _, t in setups)
            result, run_s = _timed(wl.run, inp, ops, run_dir)
        record["errors"] = wl.check(inp, ops, result, seed)
        record["observed"] = wl.observed(result)
    except Exception:
        record["errors"] = [traceback.format_exc(limit=4)]
        return record
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record.update(ok=not record["errors"], setup_s=setup_s, run_s=run_s,
                  peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    if traced:
        record["layers"] = layer_metrics(tracer.spans(), setup_s + run_s, wl.iterations(result))
        tracer.write_csv(out / "spans.csv")
    return record


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)
    record = run_sample(args.workload, args.seed, bool(args.trace), args.out)
    record["params"] = WORKLOADS[args.workload].config
    record["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__, "blas": _blas()}
    print(json.dumps(record))


if __name__ == "__main__":
    main()
