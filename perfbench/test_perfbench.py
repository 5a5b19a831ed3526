"""Self-tests of the benchmark: span arithmetic, percentiles, metric names, inputs.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
from spans import Tracer, layer_metrics, percentile, self_times
from workloads import SEED_AMPLITUDE, WORKLOADS

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0, 100, -1),
        ("a", 10, 40, 0),
        ("a.leaf", 15, 25, 1),
        ("b", 50, 70, 0),
    ]
    assert self_times(spans) == [50.0, 20.0, 10.0, 20.0]


def test_tracer_nests_spans_and_self_times_sum_to_the_root():
    tracer = Tracer()

    def leaf():
        time.sleep(0.001)

    leaf_t = tracer.wrap("leaf", leaf)

    def mid():
        leaf_t()
        leaf_t()

    mid_t = tracer.wrap("mid", mid)
    tracer.wrap("root", lambda: (mid_t(), leaf_t()))()
    spans = list(tracer.spans())
    assert [(name, parent) for name, _, _, parent in spans] == [
        ("root", -1), ("mid", 0), ("leaf", 1), ("leaf", 1), ("leaf", 0)]
    assert all(s <= e for _, s, e, _ in spans)
    selfs = self_times(spans)
    assert min(selfs) >= 0
    assert sum(selfs) == spans[0][2] - spans[0][1]


def test_tracer_closes_span_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    tracer.wrap("after", lambda: None)()
    (_, s0, e0, p0), (_, _, _, p1) = tracer.spans()
    assert e0 >= s0 and p0 == -1 and p1 == -1


@pytest.mark.parametrize("values", [list(range(1, 101)), [3.0], [5.0, 1.0, 4.0, 2.0], list(np.linspace(0, 1, 37) ** 2)])
def test_percentiles_match_numpy_linear(values):
    for q in (50, 99):
        assert percentile(values, q) == pytest.approx(float(np.percentile(values, q)), rel=1e-12)


def test_percentile_values():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50.5
    assert percentile(xs, 99) == pytest.approx(99.01)
    assert percentile([], 50) == 0.0


def _rhc_spans():
    """Two optimizer windows: 3 + 2 forward windows, 2 + 1 adjoints."""
    ms = 1_000_000
    return [
        ("experiments.run_scenario", 0, 100 * ms, -1),
        ("rhc.run_rhc", 1 * ms, 90 * ms, 0),
        ("rhc.bb_projected_gradient", 2 * ms, 40 * ms, 1),
        ("rhc.evaluate_cost", 3 * ms, 8 * ms, 2),
        ("dynamics.step", 4 * ms, 5 * ms, 3),
        ("rhc.solve_adjoint", 8 * ms, 12 * ms, 2),
        ("rhc.evaluate_cost", 12 * ms, 17 * ms, 2),
        ("rhc.evaluate_cost", 17 * ms, 22 * ms, 2),
        ("rhc.solve_adjoint", 22 * ms, 26 * ms, 2),
        ("rhc.bb_projected_gradient", 50 * ms, 80 * ms, 1),
        ("rhc.evaluate_cost", 51 * ms, 56 * ms, 9),
        ("rhc.solve_adjoint", 56 * ms, 60 * ms, 9),
        ("rhc.evaluate_cost", 60 * ms, 65 * ms, 9),
    ]


def test_layer_metrics_counts_trials_and_acceptances():
    m = layer_metrics(_rhc_spans(), sample_s=0.2, rhc_iterations=3)
    assert m["rhc.windows"] == 2
    assert m["rhc.evaluations"] == 5
    assert m["rhc.accept_ratio"] == pytest.approx(1 / 3)  # trials 3 (5 - 2), accepted 1 (3 - 2)
    assert m["rhc.iterations"] == 3
    assert m["rhc.adjoint_busy_s"] == pytest.approx(0.012)
    assert m["rhc.loop_self_s"] == pytest.approx(0.089 - 0.038 - 0.030)
    assert m["rhc.optimizer_self_s"] == pytest.approx(0.038 + 0.030 - 0.025 - 0.012)
    assert m["share.line_search"] == pytest.approx(0.015 / 0.2)  # forward windows after each first
    assert m["dynamics.steps"] == 1
    assert m["experiments.self_s"] == pytest.approx(0.011)


def test_every_printed_metric_is_declared():
    declared_e2e = {m["name"] for m in SPEC["end_to_end"]}
    declared_layers = {m["name"] for m in SPEC["per_layer"]}
    sample = {"setup_s": 0.1, "run_s": 1.0, "peak_rss_mb": 80.0,
              "layers": layer_metrics(_rhc_spans(), sample_s=0.2)}
    assert set(run.end_to_end([sample])) == declared_e2e
    assert set(run.per_layer([sample], [sample])) == declared_layers


def test_declared_workloads_exist_and_have_recorded_shares():
    declared = {w["name"]: w["why"] for w in SPEC["workloads"]}
    assert set(declared) == set(WORKLOADS)
    shares = json.loads((HERE / "layer_shares.json").read_text())["workloads"]
    assert {name: entry["why"] for name, entry in shares.items()} == declared


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_inputs_are_deterministic_and_small(name):
    wl = WORKLOADS[name]
    assert wl.inputs(7) == wl.inputs(7)
    assert wl.inputs(7) != wl.inputs(0)
    if name == "margin_sweep":
        assert wl.inputs(0)["gains"] == list(wl.gains)
        assert abs(wl.inputs(7)["large_gain"] / wl.large_gain - 1) <= SEED_AMPLITUDE
    else:
        assert wl.inputs(0).y0 == "constant:-1.0"
        assert abs(float(wl.inputs(7).y0.split(":")[1]) + 1.0) <= SEED_AMPLITUDE


def _fake_samples(monkeypatch, duration):
    calls = []

    def fake(workload, seed, traced, out, timeout):
        calls.append(timeout)
        time.sleep(duration)
        return {"ok": True, "traced": traced}

    monkeypatch.setattr(run, "run_sample", fake)
    return calls


def test_collect_stops_before_the_next_sample_would_overrun(monkeypatch):
    _fake_samples(monkeypatch, 0.01)
    t0 = time.perf_counter()
    samples = run.collect("w", 0, 0.2, False, Path("."))
    assert len(samples) >= run.MIN_SAMPLES
    assert time.perf_counter() - t0 < 1.0
    traced = run.collect("w", 0, 0.0, True, Path("."))
    assert [s["traced"] for s in traced] == [False, True]


def test_collect_never_passes_the_run_limit(monkeypatch):
    calls = _fake_samples(monkeypatch, 0.03)
    monkeypatch.setattr(run, "RUN_LIMIT_S", 0.05)
    samples = run.collect("w", 0, 1000.0, False, Path("."))
    assert len(samples) < run.MIN_SAMPLES
    assert all(t <= 0.05 for t in calls)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "feedback_table1", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
