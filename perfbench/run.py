"""Benchmark entry point: closed-loop samples of one workload, each in a fresh process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Samples run one after another, single
threaded, until the next one would end after S seconds (at least
MIN_SAMPLES untraced ones, unless that would pass RUN_LIMIT_S).  With --trace 0 the last stdout line reports
the end-to-end metrics as medians over the samples; with --trace 1 the
samples alternate between untraced and traced, and it reports the
per-layer metrics of the traced ones plus the tracing overhead.  The line
before it records the environment, the sample count, the error rate and
the workload parameters; the same record is written to
.perfbench_out/<workload>-seed<N>-trace<T>/result.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
MIN_SAMPLES = 3
RUN_LIMIT_S = 170  # a run must end within 180 s, so no sample may outlast this
SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_sample(workload: str, seed: int, traced: bool, out: Path, timeout: float) -> dict:
    """One sample in a child process; a crash or timeout is a failed sample."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--workload", workload, "--seed", str(seed),
           "--trace", str(int(traced)), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **SINGLE_THREAD)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "traced": traced, "errors": [f"sample killed after {timeout:.0f} s"]}
    lines = proc.stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        record = None
    if record is None:
        return {"ok": False, "traced": traced, "errors": [f"exit {proc.returncode}: {proc.stderr[-2000:]}"]}
    record["traced"] = traced
    return record


def collect(workload: str, seed: int, seconds: float, trace: bool, out: Path) -> list[dict]:
    """Closed loop: the next sample starts when the previous one has ended."""
    samples = []
    start = time.perf_counter()
    while True:
        traced = trace and len(samples) % 2 == 1
        t0 = time.perf_counter()
        samples.append(run_sample(workload, seed, traced, out, RUN_LIMIT_S - (t0 - start)))
        last = time.perf_counter() - t0
        elapsed = time.perf_counter() - start
        n_traced = sum(s["traced"] for s in samples)
        enough = (n_traced >= 1 and len(samples) - n_traced >= 1) if trace else len(samples) >= MIN_SAMPLES
        if (enough and elapsed + last > seconds) or elapsed + last > RUN_LIMIT_S:
            return samples


def end_to_end(ok: list[dict]) -> dict:
    return {name: statistics.median(s[name] for s in ok) for name in ("setup_s", "run_s", "peak_rss_mb")}


def per_layer(ok_traced: list[dict], ok_untraced: list[dict]) -> dict:
    # the lower median is a measured value, so counts stay whole numbers
    out = {name: statistics.median_low(s["layers"][name] for s in ok_traced) for name in ok_traced[0]["layers"]}
    out["trace.overhead_frac"] = (statistics.median(s["run_s"] for s in ok_traced)
                                  / statistics.median(s["run_s"] for s in ok_untraced) - 1.0)
    return out


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "platform": platform.platform()}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "schloegl").is_dir():
        print(f"no schloegl sources under {ROOT / 'src'}; run from a checkout of the repository", file=sys.stderr)
        return 2

    wall0 = time.perf_counter()
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    samples = collect(args.workload, args.seed, args.seconds, bool(args.trace), out)
    failed = [s for s in samples if not s["ok"]]
    ok_untraced = [s for s in samples if s["ok"] and not s["traced"]]
    ok_traced = [s for s in samples if s["ok"] and s["traced"]]

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    values = {}
    if ok_untraced and (ok_traced or not args.trace):
        values = per_layer(ok_traced, ok_untraced) if args.trace else end_to_end(ok_untraced)
        if set(values) != set(units):
            raise SystemExit(f"measured metrics {sorted(values)} do not match BENCHMARK.json {sorted(units)}")
    first = next((s for s in samples if "versions" in s), {})
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "samples": len(samples), "traced_samples": sum(s["traced"] for s in samples),
        "error_rate": len(failed) / len(samples),
        "errors": [e for s in failed for e in s["errors"]][:5],
        "run_s_samples": [s["run_s"] for s in ok_untraced],
        "params": first.get("params"), "observed": first.get("observed"),
        "environment": {**environment(), **first.get("versions", {}), **SINGLE_THREAD},
        "wall_s": time.perf_counter() - wall0,
    }
    result = {"correct": not failed and bool(values), "attempted": len(samples), "failed": len(failed),
              "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()}}
    out.mkdir(parents=True, exist_ok=True)
    (out / "result.json").write_text(json.dumps({"info": info, "result": result}, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0 if values else 1


if __name__ == "__main__":
    sys.exit(main())
