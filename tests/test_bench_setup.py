"""Smoke test of the set-up layer timer (scripts/bench_setup.py)."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_round_on_a_4x4_mesh_writes_the_json(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_setup.py"), "--label", "smoke",
                          "--repeats", "1", "--sizes", "4", "--out", str(tmp_path)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    result = json.loads((tmp_path / "BENCH_setup_smoke.json").read_text())
    assert result["label"] == "smoke" and result["repeats"] == 1 and result["sizes"] == [4]
    assert {"nproc", "cpu_model", "python", "numpy", "scipy"} <= set(result["environment"])
    names = set(result["timings"])
    assert {"build_fem_4", "stepper_4", "discretize_4_m3_r0.33", "discretize_4_m4_r0.5"} <= names
    assert len(names) == 2 + len(result["grids"])
    for t in result["timings"].values():
        assert len(t["samples_ms"]) == 1 and 0 < t["min_ms"] == t["median_ms"] == t["q1_ms"] == t["q3_ms"]
