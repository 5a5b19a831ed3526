"""Smoke tests of the layer timer (scripts/bench_layers.py): each layer on a 4x4 mesh, and its refusals."""

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _bench(*args, out: Path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / "bench_layers.py"), *args, "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=120)


def _summaries(result: dict) -> list[dict]:
    cases = result.get("cases", [])
    return list(result.get("timings", {}).values()) + [c[p] for c in cases for p in ("wall", "forward", "adjoint")
                                                         if p in c]


def _key_sets(result: dict):
    """Key sets at the top level, of the environment, of each timing and of each case."""
    return (set(result), set(result["environment"]), {frozenset(t) for t in _summaries(result)},
            {frozenset(c) for c in result.get("cases", [])})


@pytest.mark.parametrize("layer, args", [("setup", ("--repeats", "1", "--sizes", "4")),
                                         ("window", ("--repeats", "2", "--cases", "4:40:3")),
                                         ("search", ("--repeats", "2", "--cases", "4:40:3")),
                                         ("loop", ("--repeats", "2", "--cases", "4:40"))],
                         ids=["setup", "window", "search", "loop"])
def test_layer_on_a_4x4_mesh_writes_the_committed_keys(tmp_path, layer, args):
    out = _bench(layer, "--label", "smoke", *args, out=tmp_path)
    assert out.returncode == 0, out.stderr
    result = json.loads((tmp_path / f"BENCH_{layer}_smoke.json").read_text())
    committed = json.loads((ROOT / f"BENCH_{layer}_change.json").read_text())
    assert _key_sets(result) == _key_sets(committed)
    assert result["label"] == "smoke" and result["repeats"] == int(args[1])
    unit = {"setup": "ms", "window": "s", "search": "s", "loop": "s"}[layer]
    for t in _summaries(result):
        low, q1, median, q3, samples = (t[f"{k}_{unit}"] for k in ("min", "q1", "median", "q3", "samples"))
        assert len(samples) == result["repeats"] and 0 < low <= q1 <= median <= q3
        assert low == min(samples) and median == pytest.approx(statistics.median(samples), rel=1e-12)
        if result["repeats"] == 1:
            assert low == q1 == median == q3 == samples[0]
    if layer == "setup":
        assert result["sizes"] == [4] and result["grids"] == committed["grids"]
        grids = {f"discretize_4_m{m}_r{r}" for m, r in committed["grids"]}
        assert set(result["timings"]) == {"build_fem_4", "stepper_4"} | grids
    elif layer == "loop":
        (case,) = result["cases"]
        assert (case["nx"], case["levels"], case["nodes"]) == (4, 40, 25)
        assert case["same_result_every_run"] and float(case["J_total"]) > 0 and float(case["final_err_l2"]) > 0
        assert result["peak_rss_mb"] > 0 and case["child_private_mb"] >= 0
    elif layer == "search":
        (case,) = result["cases"]
        assert (case["nx"], case["levels"], case["j_max"], case["nodes"]) == (4, 40, 3, 25)
        assert 1 <= case["iterations"] <= 3 and case["evaluations"] >= case["iterations"]
        assert case["same_result_every_run"] and float(case["cost"]) > 0
        assert len(case["u_sha256"]) == 64 and int(case["u_sha256"], 16) >= 0
        assert case["window_array_mb"] == 41 * 25 * 8 / 1e6 and case["child_private_mb"] >= 0
        assert 0 <= case["child_adjoints"] <= case["child_evaluations"]  # a child's B^T p follows its trial
        assert result["peak_rss_mb"] > 0
    else:
        (case,) = result["cases"]
        assert (case["nx"], case["levels"], case["j_max"], case["nodes"]) == (4, 40, 3, 25)
        assert 1 <= case["iterations"] <= 3 and case["evaluations"] >= case["iterations"]
        assert case["same_result_every_run"] and float(case["cost"]) > 0
        assert case["window_array_mb"] == 41 * 25 * 8 / 1e6
        assert case["tracemalloc_peak_mb"] / case["window_array_mb"] == pytest.approx(case["peak_in_window_arrays"])
        assert case["peak_in_window_arrays"] > 1


@pytest.mark.parametrize("layer, option, value", [
    ("window", "--cases", "4:40"), ("window", "--cases", "4:0:3"), ("window", "--cases", "a:b:c"),
    ("window", "--cases", ""), ("window", "--repeats", "0"), ("search", "--cases", "4:40"),
    ("search", "--repeats", "0"), ("setup", "--repeats", "0"),
    ("setup", "--repeats", "2,3"), ("setup", "--sizes", "16,0"), ("setup", "--sizes", "x"),
    ("loop", "--cases", "4:40:3"), ("loop", "--cases", "4"), ("loop", "--repeats", "0"),
])
def test_bad_option_refused(tmp_path, layer, option, value):
    out = _bench(layer, "--label", "bad", option, value, out=tmp_path)
    refusal = f"argument {option}: invalid int value" if value == "2,3" else f"{option} takes"
    assert out.returncode == 2 and refusal in out.stderr, out.stderr
    assert not list(tmp_path.iterdir())
