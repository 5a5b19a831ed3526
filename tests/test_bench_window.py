"""Smoke test of the window-layer timer (scripts/bench_window.py)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_one_window_solve_on_a_4x4_mesh_writes_the_json(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_window.py"), "--label", "smoke",
                          "--repeats", "2", "--cases", "4:40:3", "--out", str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads((tmp_path / "BENCH_window_smoke.json").read_text())
    assert result["label"] == "smoke" and result["repeats"] == 2
    assert {"nproc", "cpu_model", "python", "numpy", "scipy"} <= set(result["environment"])
    (case,) = result["cases"]
    assert (case["nx"], case["levels"], case["j_max"], case["nodes"]) == (4, 40, 3, 25)
    assert 1 <= case["iterations"] <= 3 and case["evaluations"] >= case["iterations"]
    assert case["same_result_every_run"] and float(case["cost"]) > 0
    for part in ("wall", "forward", "adjoint"):
        t = case[part]
        assert len(t["samples_s"]) == 2 and 0 < t["min_s"] <= t["q1_s"] <= t["median_s"] <= t["q3_s"]
    assert case["window_array_mb"] == 41 * 25 * 8 / 1e6
    assert case["tracemalloc_peak_mb"] / case["window_array_mb"] == pytest.approx(case["peak_in_window_arrays"])
    assert case["peak_in_window_arrays"] > 1


def test_bad_cases_refused(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for cases in ("4:40", "4:0:3", "a:b:c", ""):
        out = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_window.py"), "--label", "bad",
                              "--cases", cases, "--out", str(tmp_path)], capture_output=True, text=True, env=env,
                             timeout=60)
        assert out.returncode == 2 and "--cases takes" in out.stderr, out.stderr
    assert not list(tmp_path.iterdir())
