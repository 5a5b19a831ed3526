"""Configuration parsing, scenario runs, persistence, and the CLI."""

import dataclasses
import importlib
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from schloegl import dynamics
from schloegl.experiments import (
    _KEYS,
    TABLE1_BETAS,
    TABLE1_CELLS,
    ConfigError,
    ScenarioConfig,
    _fmt_readable,
    _run_jobs,
    _write_snapshot,
    parse_bound,
    parse_config,
    run_scenario,
    run_sweep,
    run_table1,
)

COARSE = """
[mesh]
nx = 10
ny = 10
[time]
dt = 5e-3
t_final = 0.5
"""


class TestParseConfig:
    def test_defaults_applied(self):
        cfg = parse_config("[mesh]\nnx = 16\nny = 16\n[run]\ncontroller = none\n")
        assert cfg.nu == 0.1
        assert cfg.zeta == (-1.0, 0.0, 2.0)
        assert cfg.dt == 1e-3
        assert "params.nu" not in cfg.provenance  # an unset key has no origin; its snapshot tag is "default"
        assert cfg.provenance["mesh.nx"] == "line 2"

    def test_bound_notation(self):
        assert parse_bound("e^3.5") == pytest.approx(math.exp(3.5))
        assert parse_bound("inf") == math.inf
        assert parse_bound("2.5") == 2.5
        cfg = parse_config("[feedback]\ncu = e^3.5\n")
        assert cfg.cu == pytest.approx(33.11545195869231)

    def test_unknown_key_line_numbered(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[mesh]\nnx = 4\nwhat = 3\n")
        assert err.value.line == 3

    def test_type_error_line_numbered(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[time]\ndt = fast\n")
        assert err.value.line == 2

    def test_range_violation(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[actuators]\nr = 1.2\n")
        assert err.value.line == 2

    def test_zeta_and_initial_tags(self):
        cfg = parse_config("[params]\nzeta = 0.5, 1, 1.5\n[initial]\ny0 = bilinear\nyhat0 = constant:-3\n")
        assert cfg.zeta == (0.5, 1.0, 1.5)
        assert cfg.y0 == "bilinear"
        with pytest.raises(ConfigError):
            parse_config("[initial]\ny0 = quadratic\n")

    def test_seed_key_is_not_part_of_the_grammar(self):
        # nothing in a run is random, so no seed is parsed
        with pytest.raises(ConfigError, match="line 2: unknown key 'run.seed'"):
            parse_config("[run]\nseed = 0\n")

    @pytest.mark.parametrize("text", ["", "[domain]\nlx = 2.5\nly = 0.75\n[mesh]\nnx = 7\nny = 9\n"
                                      "[params]\nnu = 0.03\nzeta = -1.5, 0.25, 3\n"
                                      "[actuators]\nm = 4\nr = 0.33\nnorm = MAX\n"
                                      "[feedback]\nlambda = 12.5\ncu = e^1.5\n[forcing]\nkind = periodic\n"
                                      "[initial]\nyhat0 = bilinear\ny0 = constant:-0.1\n"
                                      "[time]\ndt = 1e-5\nt_final = 0.3\n"
                                      "[run]\ncontroller = rhc\ncsv_stride = 3\nstate_stride = 7\n"
                                      "[rhc]\nt = 0.7\ndelta = 0.1\nbeta = 1e-5\ntol = 3e-6\nj_max = 42\n"])
    def test_snapshot_values_parse_back(self, text):
        # each key's parser reads back the value the snapshot writes
        cfg = parse_config(text)
        for name, key in _KEYS.items():
            value = getattr(cfg, key.attr)
            assert key.parse(_fmt_readable(value)) == value, name

    @pytest.mark.parametrize("section,key", [("time", "t_final"), ("time", "dt"), ("rhc", "t"), ("rhc", "delta"),
                                             ("domain", "lx"), ("params", "nu"), ("rhc", "beta"),
                                             ("feedback", "lambda")])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e999"])
    def test_non_finite_value_refused_with_its_line(self, section, key, value):
        with pytest.raises(ConfigError, match=f"line 4: bad value '{value}' for {section}.{key}") as err:
            parse_config(f"[mesh]\nnx = 4\n[{section}]\n{key} = {value}\n")
        assert err.value.line == 4

    def test_infinite_bound_is_still_the_unbounded_tag(self):
        assert parse_config("[feedback]\ncu = inf\nlambda = 0\n").cu == math.inf

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\n[mesh]\nnx = 3  # trailing\n; другой\nny = 4\n")
        assert (cfg.nx, cfg.ny) == (3, 4)


class TestConfigInCode:
    def test_bound_from_the_tag_alone(self, tmp_path):
        cfg = ScenarioConfig(nx=4, ny=4, dt=0.01, t_final=0.05, controller="saturated", cu_tag="e^0.5")
        assert cfg.cu == math.exp(0.5)
        art = run_scenario(cfg, tmp_path / "run")
        peak = float(np.max(art.record.control_norms))
        # saturated on the bound; the record logs the saturation's own norm
        assert math.exp(0.5) * (1 - 1e-12) <= peak <= math.exp(0.5)
        snap = (art.directory / "config_snapshot.txt").read_text()
        assert "# feedback.cu = e^0.5  [set in code]" in snap and "# mesh.nx = 4  [set in code]" in snap
        assert "# params.nu = 0.1  [default]" in snap

    def test_bound_that_disagrees_with_its_tag_refused(self):
        with pytest.raises(ConfigError, match="cu = 2.0 disagrees"):
            ScenarioConfig(cu=2.0)
        cfg = ScenarioConfig(cu_tag="e^1.5")
        assert dataclasses.replace(cfg, cu=parse_bound(cfg.cu_tag)).cu == cfg.cu
        with pytest.raises(ConfigError):
            dataclasses.replace(cfg, cu_tag="e^2")

    def test_range_and_cross_field_checks(self):
        with pytest.raises(ConfigError, match="actuators.r") as err:
            ScenarioConfig(r=1.5)
        assert err.value.line is None
        for bad in ({"norm": "taxicab"}, {"zeta": (1.0, 2.0)}, {"y0": "constant:x"}, {"cu_tag": "-1"},
                    {"nx": 0}, {"rhc_horizon": 0.5, "rhc_delta": 0.5}):
            with pytest.raises(ConfigError):
                ScenarioConfig(**bad)
        cfg = ScenarioConfig()
        with pytest.raises(ConfigError, match="time.dt"):
            dataclasses.replace(cfg, dt=0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.nx = 3

    @pytest.mark.parametrize("attr, key", [("nx", "mesh.nx"), ("ny", "mesh.ny"), ("m", "actuators.m"),
                                           ("csv_stride", "run.csv_stride"), ("state_stride", "run.state_stride"),
                                           ("rhc_j_max", "rhc.j_max")])
    @pytest.mark.parametrize("value", [2.5, True], ids=["float", "bool"])
    def test_integer_key_refuses_a_non_integer_or_bool(self, tmp_path, attr, key, value):
        # csv_stride = 2.5 ran the whole simulation and then died writing series.csv; True ran,
        # and its snapshot line did not parse back
        with pytest.raises(ConfigError, match=rf"bad value {value!r} for {re.escape(key)} \(expected positive int\)"):
            run_scenario(ScenarioConfig(**{"nx": 4, "ny": 4, "dt": 0.01, "t_final": 0.05, attr: value}),
                         tmp_path / "run")
        with pytest.raises(ConfigError, match=re.escape(key)):
            dataclasses.replace(ScenarioConfig(), **{attr: value})
        assert not (tmp_path / "run").exists()
        assert getattr(ScenarioConfig(**{attr: np.int64(2)}), attr) == 2  # any integral type is an integer

    def test_readme_lists_every_key_with_its_default(self):
        # the README's key block is a third copy of the key list: it must name exactly the keys,
        # each with its field default as the key's parser reads it
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = readme.split("All keys with defaults:", 1)[1].split("```", 2)[1]
        listed, section = {}, None
        for line in block.splitlines():
            line = line.split("#", 1)[0]
            if head := re.match(r"\s*\[(\w+)\]", line):
                section, line = head.group(1), line[head.end():]
            for key, text in re.findall(r"(\w+) = (.*?)\s*(?=\w+ = |$)", line):
                listed[f"{section}.{key}"] = text
        assert sorted(listed) == sorted(_KEYS)
        defaults = ScenarioConfig()
        for name, text in listed.items():
            assert _KEYS[name].parse(text) == getattr(defaults, _KEYS[name].attr), name


# (section, key, config value, field, value in code) of each non-finite or overflowing value the keys refuse
_NON_FINITE = [
    ("params", "zeta", "inf, 0, 2", "zeta", (math.inf, 0.0, 2.0)),
    ("params", "zeta", "-1, nan, 2", "zeta", (-1.0, math.nan, 2.0)),
    ("initial", "y0", "constant:inf", "y0", "constant:inf"),
    ("initial", "yhat0", "constant:nan", "yhat0", "constant:nan"),
    ("initial", "y0", "constant:-inf", "y0", "constant:-inf"),
    ("feedback", "cu", "e^1000", "cu_tag", "e^1000"),
]
_NON_FINITE_IDS = [f"{s}.{k}={v}" for s, k, v, *_ in _NON_FINITE]


class TestNonFiniteAndOverflowingValues:
    @pytest.mark.parametrize("section, key, text, attr, value", _NON_FINITE, ids=_NON_FINITE_IDS)
    def test_config_line_refused(self, section, key, text, attr, value):
        with pytest.raises(ConfigError, match=rf"^line 3: bad value .* for {section}\.{key} ") as err:
            parse_config(f"# scenario\n[{section}]\n{key} = {text}\n")
        assert err.value.line == 3

    @pytest.mark.parametrize("section, key, text, attr, value", _NON_FINITE, ids=_NON_FINITE_IDS)
    def test_value_in_code_refused(self, section, key, text, attr, value):
        with pytest.raises(ConfigError, match=rf"for {section}\.{key} ") as err:
            ScenarioConfig(**{attr: value})
        assert err.value.line is None

    @pytest.mark.parametrize("section, key, text, attr, value", _NON_FINITE, ids=_NON_FINITE_IDS)
    def test_simulate_feedback_exits_2(self, tmp_path, capsys, section, key, text, attr, value):
        from schloegl.cli import main

        # zeta = inf ran and exited 3 after a RuntimeWarning; e^1000 ended in an OverflowError traceback
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text(f"[mesh]\nnx = 4\nny = 4\n[{section}]\n{key} = {text}\n")
        assert main(["simulate-feedback", "--config", str(cfgf), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: line 5: bad value {text!r} for {section}.{key}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, key", [
        (["constants", "--mu", "0.1", "--zeta=inf,0,2"], "params.zeta"),  # printed coeff_sum = inf, exit 0
        (["constants", "--mu", "0.1", "--zeta=-1,0,nan"], "params.zeta"),
        (["margin", "--gain", "1", "--nx", "4", "--zeta=inf,0,2"], "params.zeta"),
        (["margin", "--gain", "1", "--nx", "4", "--mu", "0.1", "--zeta=inf,0,2"], "params.zeta"),
        (["ode-toy", "--r", "-1", "--z0", "2", "--cu", "e^1000"], "feedback.cu"),  # OverflowError traceback
        (["sweep", "--axis", "cu", "--values", "e^1,e^1000", "--ci"], "feedback.cu"),
    ], ids=["constants-inf", "constants-nan", "margin", "margin-mu", "ode-toy", "sweep"])
    def test_cli_flag_exits_2(self, tmp_path, capsys, argv, key):
        from schloegl.cli import main

        if argv[0] == "sweep":
            argv = argv + ["--out", str(tmp_path / "s")]
        assert main(argv) == 2
        out = capsys.readouterr()
        assert out.err.startswith("configuration error: bad value") and key in out.err and out.out == ""
        assert not (tmp_path / "s").exists()

    def test_overflowing_bound_is_a_value_error_naming_the_tag(self):
        with pytest.raises(ValueError, match=r"'e\^1000' overflows"):
            parse_bound("e^1000")
        assert parse_bound("inf") == parse_bound("e^inf") == parse_bound("1e400") == math.inf
        assert ScenarioConfig(cu_tag="1e400").cu == ScenarioConfig(cu_tag="e^inf").cu == math.inf


class TestRunScenario:
    def test_free_equilibrium_series(self, tmp_path):
        # free run from the stable root against the unstable-root target:
        # both stay put, the error series is the constant gap
        cfg = parse_config(COARSE + "[initial]\nyhat0 = constant:0\ny0 = constant:2\n")
        art = run_scenario(cfg, tmp_path / "run")
        assert art.summary["status"] == "completed"
        assert art.summary["final_err_l2"] == pytest.approx(2.0, rel=1e-12)
        assert art.summary["initial_err_l2"] == pytest.approx(2.0, rel=1e-12)
        text = art.series_csv.read_text().splitlines()
        assert text[0] == "t,err_l2,log_err_l2,u_norm,J_running"
        assert len(text) == 102  # header + 101 levels at stride 1

    def test_euclidean_bound_holds_in_the_log(self, tmp_path):
        # the Table-1 scenario at 16x16 under a Euclidean e^1.5 saturates most of its steps;
        # the logged u_norm is the saturation's norm, so none exceeds cu, not even in the last bit
        cfg = ScenarioConfig(nx=16, ny=16, dt=1e-3, t_final=2.0, forcing="periodic", r=0.33, gain=175.0,
                             yhat0="constant:2", y0="constant:-1", controller="saturated", cu_tag="e^1.5",
                             csv_stride=1)
        assert cfg.norm == "euclidean"
        art = run_scenario(cfg, tmp_path / "run")
        logged = np.loadtxt(art.series_csv, delimiter=",", skiprows=1)[:-1, 3]
        assert np.sum(logged >= cfg.cu * (1 - 1e-12)) > 100  # on the bound
        assert np.max(art.record.control_norms) <= cfg.cu
        assert np.max(logged) <= cfg.cu

    def test_csv_reintegration_matches_summary(self, tmp_path):
        cfg = parse_config(COARSE + "[run]\ncontroller = saturated\n[feedback]\ncu = e^1\n"
                           + "[initial]\nyhat0 = constant:0\ny0 = constant:2\n[rhc]\nbeta = 1e-3\n")
        art = run_scenario(cfg, tmp_path / "run")
        rows = np.loadtxt(art.series_csv, delimiter=",", skiprows=1)
        t, err, _, u_norm, j_run = rows.T
        dt = t[1] - t[0]
        e2 = err ** 2
        j = dt * (0.5 * e2[0] + e2[1:-1].sum() + 0.5 * e2[-1]) + 1e-3 * dt * float((u_norm[:-1] ** 2).sum())
        assert j == pytest.approx(art.summary["J_total"], rel=1e-10)
        assert j_run[-1] == pytest.approx(art.summary["J_total"], rel=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(COARSE + "[run]\ncontroller = saturated\n[forcing]\nkind = periodic\n")
        a = run_scenario(cfg, tmp_path / "a")
        b = run_scenario(cfg, tmp_path / "b")
        assert a.series_csv.read_bytes() == b.series_csv.read_bytes()

    def test_blowup_recorded(self, tmp_path):
        cfg = parse_config("[mesh]\nnx = 6\nny = 6\n[time]\ndt = 0.5\nt_final = 5\n"
                           + "[initial]\ny0 = constant:100\nyhat0 = constant:0\n")
        art = run_scenario(cfg, tmp_path / "run")
        assert art.summary["status"] == "completed-unstable"
        assert "blowup_time" in art.summary
        assert art.series_csv is None

    @pytest.mark.parametrize("controller", ["none", "saturated"])
    def test_setup_phase_times(self, tmp_path, controller):
        cfg = parse_config(COARSE + f"[run]\ncontroller = {controller}\n")
        art = run_scenario(cfg, tmp_path / "run")
        lines = (art.directory / "summary.txt").read_text().splitlines()
        keys = [line.split(" = ")[0] for line in lines]
        assert keys[-3:] == ["assembly_s", "clipping_s", "wall_time_s"]
        times = {key: art.summary[key] for key in keys[-3:]}
        assert times["assembly_s"] > 0.0
        assert (times["clipping_s"] == 0.0) == (controller == "none")
        assert times["assembly_s"] + times["clipping_s"] <= times["wall_time_s"]

    def test_snapshot_contains_source_and_provenance(self, tmp_path):
        text = COARSE + "[feedback]\nlambda = 20\n"
        cfg = parse_config(text)
        art = run_scenario(cfg, tmp_path / "run")
        snap = (art.directory / "config_snapshot.txt").read_text()
        assert snap.startswith(text)
        assert "# feedback.lambda = 20.0  [line 9]" in snap
        assert "# params.nu = 0.1  [default]" in snap

    def test_snapshot_tells_a_replaced_value_from_a_default(self, tmp_path):
        cfg = dataclasses.replace(parse_config("[mesh]\nnx = 8\n"), ny=9)
        _write_snapshot(tmp_path / "snap.txt", cfg)
        snap = (tmp_path / "snap.txt").read_text().splitlines()
        assert "# mesh.nx = 8  [line 2]" in snap
        assert "# mesh.ny = 9  [set in code]" in snap
        assert "# params.nu = 0.1  [default]" in snap

    def test_rhc_controller_summary(self, tmp_path):
        cfg = parse_config("[mesh]\nnx = 8\nny = 8\n[time]\ndt = 0.01\nt_final = 0.4\n"
                           + "[run]\ncontroller = rhc\n[rhc]\nt = 0.3\ndelta = 0.1\nbeta = 1e-3\ntol = 1e-3\n"
                           + "[initial]\nyhat0 = constant:2\ny0 = constant:1\n[feedback]\ncu = e^2\n")
        art = run_scenario(cfg, tmp_path / "run")
        assert art.summary["status"] == "completed"
        assert art.summary["rhc_windows"] == 4
        assert art.summary["rhc_iterations_total"] >= 4


    def test_rhc_windows_csv(self, tmp_path):
        cfg = parse_config("[mesh]\nnx = 8\nny = 8\n[time]\ndt = 0.01\nt_final = 0.4\n"
                           + "[run]\ncontroller = rhc\n[rhc]\nt = 0.3\ndelta = 0.1\nbeta = 1e-3\ntol = 1e-3\n"
                           + "[initial]\nyhat0 = constant:2\ny0 = constant:1\n[feedback]\ncu = e^2\n")
        art = run_scenario(cfg, tmp_path / "run")
        lines = (art.directory / "windows.csv").read_text().splitlines()
        assert lines[0] == ("window,t0,iterations,evaluations,cost,converged,stop_reason,wall_s,"
                            "forward_s,adjoint_s")
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == art.summary["rhc_windows"] == 4
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        assert [float(r[1]) for r in rows] == pytest.approx([0.0, 0.1, 0.2, 0.3], abs=1e-12)
        assert sum(int(r[2]) for r in rows) == art.summary["rhc_iterations_total"]
        assert all(int(r[3]) >= 1 and r[5] in ("True", "False") and r[6] for r in rows)
        # each window's solve time, all of them inside the run's wall time
        walls = [float(r[7]) for r in rows]
        assert all(w > 0.0 for w in walls) and sum(walls) <= art.summary["wall_time_s"]
        # the solve's time in forward and in adjoint windows, both inside its wall time
        for r in rows:
            forward_s, adjoint_s = float(r[8]), float(r[9])
            assert forward_s > 0.0 and adjoint_s > 0.0 and forward_s + adjoint_s <= float(r[7])

    def test_rhc_warm_start_uses_the_configured_gain(self, tmp_path, monkeypatch):
        # the RHC gets the feedback law of the scenario and warm-starts with its gain
        from schloegl import FeedbackLaw, SaturationConfig, experiments, rhc

        gains, laws = [], []
        original = rhc.saturated_control_on_window
        original_run = experiments.run_rhc

        def recording(prob, gain):
            gains.append(gain)
            return original(prob, gain)

        def recording_run(cfg, y0, target, law, *args):
            laws.append(law)
            return original_run(cfg, y0, target, law, *args)

        monkeypatch.setattr(rhc, "saturated_control_on_window", recording)
        monkeypatch.setattr(experiments, "run_rhc", recording_run)
        cfg = parse_config("[mesh]\nnx = 6\nny = 6\n[time]\ndt = 0.01\nt_final = 0.2\n"
                           + "[run]\ncontroller = rhc\n[rhc]\nt = 0.2\ndelta = 0.1\ntol = 1e-3\n"
                           + "[initial]\nyhat0 = constant:2\ny0 = constant:1\n[feedback]\nlambda = 50\ncu = e^2\n")
        art = run_scenario(cfg, tmp_path / "run")
        assert art.summary["status"] == "completed"
        assert laws == [FeedbackLaw(gain=50.0, saturation=SaturationConfig(bound=math.exp(2.0)))]
        assert gains == [laws[0].gain]

    def test_free_run_applies_no_control(self, tmp_path, monkeypatch):
        # controller none runs the plant loop without a control policy and
        # reproduces the zero-gain, zero-bound feedback loop bit for bit
        from schloegl import (FeedbackLaw, ForcingSpec, IntegratorConfig, SaturationConfig, SchloeglParams,
                              build_actuator_grid, build_fem, discretize_actuators, feedback, track_target)
        from schloegl.experiments import initial_field

        fe = build_fem(10, 10, 0.1)
        coupling = discretize_actuators(build_actuator_grid(3, 0.5), fe.mesh)
        ref = track_target(initial_field("linear", fe.mesh), np.full(fe.mesh.n_nodes, 2.0),
                           FeedbackLaw(gain=0.0, saturation=SaturationConfig(bound=0.0)), coupling, fe,
                           SchloeglParams(), ForcingSpec.periodic_indicator(),
                           IntegratorConfig(dt=5e-3, state_stride=10, cost_beta=1e-3), horizon=0.5)

        def no_feedback(*args):
            raise AssertionError("the free run evaluated the feedback law")

        monkeypatch.setattr(feedback, "saturated_feedback", no_feedback)
        cfg = parse_config(COARSE + "[forcing]\nkind = periodic\n[initial]\nyhat0 = constant:2\ny0 = linear\n")
        art = run_scenario(cfg, tmp_path / "run")
        assert art.summary["status"] == "completed"
        assert art.record.controls is None
        for name in ("states", "err_norm", "control_norms", "running_cost"):
            assert np.array_equal(getattr(art.record, name), getattr(ref, name)), name
        assert not (art.directory / "windows.csv").exists()

    @pytest.mark.parametrize("controller", ["saturated", "rhc"])
    def test_one_stepper_per_run(self, tmp_path, monkeypatch, controller):
        # plant, target and (for RHC) every window share one factorization
        from schloegl.dynamics import CrankNicolsonAB2

        built = []
        original = CrankNicolsonAB2.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(CrankNicolsonAB2, "__init__", counting_init)
        cfg = parse_config("[mesh]\nnx = 6\nny = 6\n[time]\ndt = 0.01\nt_final = 0.2\n"
                           + f"[run]\ncontroller = {controller}\n[rhc]\nt = 0.2\ndelta = 0.1\ntol = 1e-3\n"
                           + "[initial]\nyhat0 = constant:2\ny0 = constant:1\n[forcing]\nkind = periodic\n")
        art = run_scenario(cfg, tmp_path / "run")
        assert art.summary["status"] == "completed"
        assert len(built) == 1


class TestTable1AndSweep:
    def test_tiny_table_ordering(self, tmp_path, capsys):
        base = parse_config("[mesh]\nnx = 8\nny = 8\n[time]\ndt = 0.01\n[initial]\nyhat0 = constant:2\n"
                            "y0 = constant:-1\n[forcing]\nkind = periodic\n"
                            "[rhc]\nt = 0.3\ndelta = 0.1\ntol = 1e-3\n")
        rows = run_table1(tmp_path, base=base, cells=(("e^2", 0.5),), betas=(1e-3,))
        assert len(rows) == 1
        row = rows[0]
        assert row["rhc_status"] == "completed" and row["satcon_status"] == "completed"
        assert row["rhc"] <= row["satcon"] + 1e-9
        # every row of table1.txt splits into its label and one value per cell
        table = (tmp_path / "table1.txt").read_text().splitlines()
        assert table[0].split() == ["control", "(e^2,", "0.5)"]
        for line, (kind, name) in zip(table[1:], (("rhc", "RHC"), ("satcon", "SatCon")), strict=True):
            assert line.split() == [name, "beta=0.001", f"{row[kind]:.4f}"]
        csv = (tmp_path / "table1.csv").read_text().splitlines()
        assert csv[0] == "beta,cu,t_inf,rhc,satcon,rhc_status,satcon_status"
        assert len(csv) == 2
        # each job snapshot holds the base text its line tags point at, tags
        # the cell's values and keeps the base's origins
        snap = (tmp_path / "rhc_b0.001_e2_T0.5" / "config_snapshot.txt").read_text()
        assert snap.startswith(base.source_text + "\n# resolved values (provenance)\n")
        assert snap.splitlines()[1] == "nx = 8"
        for line in ("# feedback.cu = e^2  [table1 cell]", "# run.controller = rhc  [table1 cell]",
                     "# time.t_final = 0.5  [table1 cell]", "# rhc.beta = 0.001  [table1 cell]",
                     "# mesh.nx = 8  [line 2]", "# params.nu = 0.1  [default]"):
            assert line in snap
        # one start and one finish line per run on stderr, nothing on stdout
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 4
        for i, kind in enumerate(("satcon", "rhc")):
            job = tmp_path / f"{kind}_b0.001_e2_T0.5"
            assert lines[2 * i] == f"[start] {job}"
            assert re.fullmatch(rf"\[done\] {re.escape(str(job))}: completed, \d+\.\d\d s", lines[2 * i + 1])

    def test_sweep_lambda(self, tmp_path):
        base = parse_config(COARSE + "[run]\ncontroller = saturated\n"
                            + "[initial]\nyhat0 = constant:0\ny0 = constant:1\n")
        rows = run_sweep("lambda", [5.0, 50.0], base, tmp_path)
        assert [r["status"] for r in rows] == ["completed", "completed"]
        assert (tmp_path / "sweep_lambda.csv").exists()
        snap = (tmp_path / "lambda_50.0" / "config_snapshot.txt").read_text()
        assert "# feedback.lambda = 50.0  [sweep value]" in snap
        assert "# run.controller = saturated  [line 9]" in snap

    def test_failed_run_recorded_and_the_others_still_run(self, tmp_path, monkeypatch, capsys):
        from schloegl import experiments

        original = experiments.run_scenario

        def failing_for_small_gains(cfg, out_dir):
            if cfg.gain < 10:
                raise RuntimeError("solver exploded")
            return original(cfg, out_dir)

        monkeypatch.setattr(experiments, "run_scenario", failing_for_small_gains)
        base = parse_config(COARSE + "[run]\ncontroller = saturated\n")
        rows = run_sweep("lambda", [5.0, 50.0], base, tmp_path)
        assert rows[0]["status"] == "failed: solver exploded" and math.isnan(rows[0]["mu_est"])
        assert rows[1]["status"] == "completed"
        err = capsys.readouterr().err
        assert "RuntimeError: solver exploded" in err
        assert f"[done] {tmp_path / 'lambda_5.0'}: failed: solver exploded, " in err

    def test_process_pool_gives_the_serial_rows(self, tmp_path):
        # workers receive ScenarioConfig objects; every cell's files and row
        # must match a serial run
        base = ScenarioConfig(nx=8, ny=8, dt=0.01, yhat0="constant:2", y0="constant:-1",
                              forcing="periodic", rhc_horizon=0.3, rhc_delta=0.1, rhc_tol=1e-3)
        sweep_base = parse_config(COARSE + "[run]\ncontroller = saturated\n"
                                  + "[initial]\nyhat0 = constant:0\ny0 = constant:1\n")
        rows = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            rows[workers] = (run_table1(out / "table1", base=base, cells=(("e^2", 0.5),), betas=(1e-3,),
                                        workers=workers),
                             run_sweep("lambda", [5.0, 50.0], sweep_base, out / "sweep", workers=workers))
        assert rows[1] == rows[2]
        assert all(r["rhc_status"] == r["satcon_status"] == "completed" for r in rows[2][0])
        assert [r["status"] for r in rows[2][1]] == ["completed", "completed"]

        def without_wall_time(text):  # windows.csv ends each row with its timers, wall_s, forward_s, adjoint_s
            return [line.rsplit(",", 3)[0] for line in text.splitlines()]

        for serial in sorted((tmp_path / "w1").rglob("*")):
            pooled = tmp_path / "w2" / serial.relative_to(tmp_path / "w1")
            if serial.name in ("series.csv", "config_snapshot.txt", "table1.csv", "sweep_lambda.csv"):
                assert pooled.read_bytes() == serial.read_bytes(), serial.name
            elif serial.name == "windows.csv":
                assert without_wall_time(pooled.read_text()) == without_wall_time(serial.read_text())

    def test_sweep_validation(self, tmp_path):
        base = parse_config(COARSE)
        with pytest.raises(ValueError):
            run_sweep("lambda", [], base, tmp_path)
        with pytest.raises(ValueError):
            run_sweep("gamma", [1], base, tmp_path)
        with pytest.raises(ValueError):
            run_sweep("msigma", [5], base, tmp_path)
        # a bad value is refused before any run directory is written
        with pytest.raises(ConfigError, match="feedback.cu"):
            run_sweep("cu", ["inf", "e^x"], base, tmp_path / "cu")
        with pytest.raises(ConfigError, match="feedback.lambda"):
            run_sweep("lambda", [1.0, -1.0], base, tmp_path / "lambda")
        assert not (tmp_path / "cu").exists() and not (tmp_path / "lambda").exists()


class TestForkedTargetRuns:
    """Scenario runs whose target is stepped in a forked child, in this process and in a process pool."""

    BASE = ScenarioConfig(nx=16, ny=16, dt=1e-2, t_final=0.5, forcing="periodic", norm="max", cu_tag="e^1.5",
                          y0="constant:0", controller="saturated")

    def test_target_blow_up_is_an_unstable_run(self, tmp_path, monkeypatch):
        # the constant target from 13.25 blows up at level 10
        cfg = dataclasses.replace(self.BASE, yhat0="constant:13.25")
        forked = run_scenario(cfg, tmp_path / "forked").summary
        monkeypatch.setattr(dynamics, "_may_fork", lambda: False)
        in_process = run_scenario(cfg, tmp_path / "in_process").summary
        assert forked["status"] == in_process["status"] == "completed-unstable"
        assert forked["blowup_time"] == in_process["blowup_time"] == 10 * 1e-2

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_refused(self, tmp_path, workers):
        with pytest.raises(ValueError, match=f"need at least one worker, got workers = {workers}"):
            _run_jobs([(self.BASE, tmp_path / "run")], workers)
        assert not (tmp_path / "run").exists()

    def test_process_pool_runs_feedback_scenarios(self, tmp_path):
        jobs = [(dataclasses.replace(self.BASE, yhat0="constant:2", y0="constant:-1", gain=gain), f"g{gain:g}")
                for gain in (0.5, 175.0)]
        runs = {workers: _run_jobs([(cfg, tmp_path / f"w{workers}" / d) for cfg, d in jobs], workers)
                for workers in (1, 2)}
        assert [s["status"] for s in runs[2]] == ["completed", "completed"]
        assert [s["J_total"] for s in runs[2]] == [s["J_total"] for s in runs[1]]
        assert runs[2][0]["J_total"] != runs[2][1]["J_total"]
        for _, d in jobs:
            series = [(tmp_path / f"w{workers}" / d / "series.csv").read_bytes() for workers in (1, 2)]
            assert series[0] == series[1]


class TestCli:
    def run_cli(self, *args):
        return subprocess.run([sys.executable, "-m", "schloegl.cli", *args],
                              capture_output=True, text=True)

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[mesh]\nnx = minus\n")
        out = self.run_cli("simulate-free", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert out.returncode == 2
        assert "line 2" in out.stderr

    @pytest.mark.parametrize("line", ["[time]\nt_final = inf", "[rhc]\nt = inf", "[domain]\nlx = inf",
                                      "[feedback]\ncu = e^1\nlambda = inf"])
    def test_run_rhc_refuses_a_non_finite_value(self, tmp_path, line):
        # an infinite time overflowed the step count, an infinite length or gain blew the run up
        cfgf = tmp_path / "bad.cfg"
        cfgf.write_text(f"[mesh]\nnx = 4\nny = 4\n{line}\n")
        out = self.run_cli("run-rhc", "--config", str(cfgf), "--out", str(tmp_path / "o"))
        assert out.returncode == 2, out.stderr
        assert f"line {4 + line.count(chr(10))}: bad value 'inf'" in out.stderr
        assert "Traceback" not in out.stderr and not (tmp_path / "o").exists()

    def test_simulate_feedback_and_ci_preset(self, tmp_path):
        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("[time]\ndt = 5e-3\nt_final = 0.1\n")
        out = self.run_cli("simulate-feedback", "--config", str(cfgf),
                           "--out", str(tmp_path / "o"), "--ci")
        assert out.returncode == 0, out.stderr
        assert "nodes = 289" in out.stdout  # 17*17 coarse preset
        assert (tmp_path / "o" / "series.csv").exists()

    def test_threads_only_on_multi_run_commands(self, tmp_path, capsys):
        from schloegl.cli import build_parser, main

        for command in ("simulate-free", "simulate-feedback", "run-rhc"):
            with pytest.raises(SystemExit) as exit_info:
                main([command, "--config", str(tmp_path / "missing.cfg"), "--out", str(tmp_path / "o"),
                      "--threads", "2"])
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
        assert build_parser().parse_args(["table1", "--out", "t", "--threads", "3"]).threads == 3
        assert build_parser().parse_args(["table1", "--out", "t"]).threads == 1
        sweep = build_parser().parse_args(["sweep", "--axis", "cu", "--values", "1", "--out", "s", "--threads", "2"])
        assert sweep.threads == 2
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", [["table1"], ["sweep", "--axis", "cu", "--values", "1", "--ci"]],
                             ids=["table1", "sweep"])
    @pytest.mark.parametrize("threads", ["0", "-3", "1.5"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, command, threads):
        # --threads -3 ran the sweep serially and exited 0
        from schloegl.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--out", str(tmp_path / "o"), "--threads", threads])
        assert exit_info.value.code == 2
        assert "argument --threads" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_snapshot_names_the_origin_of_overrides(self, tmp_path):
        from schloegl.cli import main

        cfgf = tmp_path / "run.cfg"
        cfgf.write_text("[run]\ncontroller = rhc\n[time]\ndt = 0.01\nt_final = 0.05\n")
        assert main(["simulate-free", "--config", str(cfgf), "--out", str(tmp_path / "o"), "--ci"]) == 0
        snap = (tmp_path / "o" / "config_snapshot.txt").read_text()
        assert "# mesh.nx = 16  [--ci]" in snap and "# mesh.ny = 16  [--ci]" in snap
        assert "# run.controller = none  [simulate-free]" in snap
        assert "# time.dt = 0.01  [line 4]" in snap

    def test_constants_report(self):
        out = self.run_cli("constants", "--mu", "0.1")
        assert out.returncode == 0
        assert "absorbing_radius = 10.248296" in out.stdout

    def test_margin_report(self):
        out = self.run_cli("margin", "--gain", "0", "--nx", "16")
        assert out.returncode == 0
        assert "min_eigenvalue = 1" in out.stdout or "min_eigenvalue = 0.99999" in out.stdout
        assert re.search(r"^residual = \S+$", out.stdout, re.M)

    @pytest.mark.parametrize("gain", ["nan", "inf", "-1"])
    def test_margin_refuses_a_gain_not_finite_and_nonnegative(self, gain, capsys):
        from schloegl.cli import main

        # NaN printed passed = True, the unactuated margin
        assert main(["margin", f"--gain={gain}", "--nx", "8"]) == 2
        out = capsys.readouterr()
        assert "gain must be finite and >= 0" in out.err and "passed" not in out.out

    @pytest.mark.parametrize("gain", ["nan", "inf", "-5"])
    def test_constants_refuse_a_gain_not_finite_and_nonnegative(self, gain, capsys):
        from schloegl.cli import main

        # NaN printed saturation_inactivity_bound = nan, -5 a negative bound
        assert main(["constants", "--mu", "0.1", f"--gain={gain}"]) == 2
        out = capsys.readouterr()
        assert "gain must be finite and >= 0" in out.err and "saturation_inactivity_bound" not in out.out

    def test_margin_refuses_a_nan_gain_before_the_required_margin(self, monkeypatch, capsys):
        from schloegl import cli

        def not_reached(*args, **kwargs):
            raise AssertionError("the margin went on past the required margin of a NaN gain")

        monkeypatch.setattr(cli, "build_fem", not_reached)
        assert cli.main(["margin", "--gain=nan", "--mu", "0.1", "--nx", "8"]) == 2
        out = capsys.readouterr()
        assert "gain must be finite and >= 0" in out.err and out.out == ""

    def test_margin_eigen_solve_failure_exits_3(self, monkeypatch, capsys):
        from scipy.sparse.linalg import ArpackNoConvergence

        from schloegl import analysis
        from schloegl.cli import main

        def no_convergence(*args, **kwargs):
            raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(analysis, "eigsh", no_convergence)
        assert main(["margin", "--gain", "1", "--nx", "8"]) == 3
        out = capsys.readouterr()
        assert out.err.startswith("numerical failure: shift-invert Lanczos did not converge")
        assert out.err.count("\n") == 1 and "passed" not in out.out

    def test_ode_toy(self, tmp_path):
        out = self.run_cli("ode-toy", "--r", "-1", "--cu", "1", "--z0", "2",
                           "--horizon", "1", "--out", str(tmp_path / "toy.csv"))
        assert out.returncode == 0
        assert (tmp_path / "toy.csv").exists()

    def test_ode_toy_overflow_is_a_numerical_failure(self):
        out = self.run_cli("ode-toy", "--r=-1e200", "--z0", "1e200", "--horizon", "0.001", "--law", "free")
        assert out.returncode == 3
        assert "numerical failure" in out.stderr and "z_final" not in out.stdout

    @pytest.mark.parametrize("stride", ["0", "-1"])
    def test_ode_toy_refuses_a_stride_below_one(self, tmp_path, stride):
        # -1 wrote the rows in reverse time order, 0 left a header-only file
        out = self.run_cli("ode-toy", "--r", "-1", "--z0", "2", "--horizon", "1", f"--stride={stride}",
                           "--out", str(tmp_path / "toy.csv"))
        assert out.returncode == 2
        assert "--stride" in out.stderr and "z_final" not in out.stdout
        assert not (tmp_path / "toy.csv").exists()

    @pytest.mark.parametrize("cu", ["-1", "nan"])
    def test_ode_toy_refuses_a_negative_or_nan_bound(self, cu):
        out = self.run_cli("ode-toy", "--r", "-1", f"--cu={cu}", "--z0", "2", "--horizon", "1")
        assert out.returncode == 2
        assert "feedback.cu" in out.stderr and "z_final" not in out.stdout

    @pytest.mark.parametrize("command", [["margin", "--gain", "1", "--nx", "8", "--mu", "0.1"],
                                         ["constants", "--mu", "0.1"], ["margin", "--gain", "1", "--nx", "8"]])
    def test_zeta_of_two_values_refused(self, command):
        out = self.run_cli(*command, "--zeta", "1,2")
        assert out.returncode == 2
        assert "params.zeta" in out.stderr

    @pytest.mark.parametrize("flag", ["--r", "--mu", "--z0"])
    def test_ode_toy_refuses_a_nan_input(self, flag):
        argv = ["ode-toy", "--r", "-1", "--mu", "1", "--z0", "2", "--horizon", "1"]
        argv[argv.index(flag) + 1] = "nan"
        out = self.run_cli(*argv)
        assert out.returncode == 2
        assert "need finite r, mu, z0" in out.stderr and "z_final" not in out.stdout

    def test_table1_without_config_runs_the_calibrated_scenario(self, tmp_path, monkeypatch):
        from schloegl import experiments
        from schloegl.cli import main

        jobs = []

        def no_runs(batch, workers):
            jobs.extend(batch)
            return [{"status": "completed", "J_total": 1.0}] * len(batch)

        monkeypatch.setattr(experiments, "_run_jobs", no_runs)
        assert main(["table1", "--ci", "--out", str(tmp_path / "t")]) == 0
        assert len(jobs) == 2 * len(TABLE1_CELLS) * len(TABLE1_BETAS)
        for cfg, _ in jobs:
            assert (cfg.yhat0, cfg.y0, cfg.forcing, cfg.r, cfg.norm) == ("constant:2", "constant:-1", "periodic",
                                                                         0.33, "max")
            assert (cfg.nx, cfg.ny, cfg.gain) == (16, 16, 175.0)
            assert cfg.provenance["actuators.r"] == "table1 base" and cfg.provenance["mesh.nx"] == "--ci"

    def test_table1_exit_code_when_a_cell_blows_up(self, tmp_path):
        # every cell ends completed-unstable; no run raised, yet the table is not a result
        cfgf = tmp_path / "blow.cfg"
        cfgf.write_text("[mesh]\nnx = 4\nny = 4\n[time]\ndt = 0.5\n[rhc]\nt = 1\ndelta = 0.5\n"
                        "[initial]\ny0 = constant:100\n")
        out = self.run_cli("table1", "--config", str(cfgf), "--out", str(tmp_path / "t"))
        assert out.returncode == 3, out.stderr
        statuses = (tmp_path / "t" / "table1.csv").read_text().splitlines()[1:]
        assert statuses and all(line.endswith(",completed-unstable,completed-unstable") for line in statuses)

    def test_blowup_exit_code(self, tmp_path):
        cfgf = tmp_path / "blow.cfg"
        cfgf.write_text("[mesh]\nnx = 6\nny = 6\n[time]\ndt = 0.5\nt_final = 5\n"
                        "[initial]\ny0 = constant:100\n")
        out = self.run_cli("simulate-free", "--config", str(cfgf), "--out", str(tmp_path / "o"))
        assert out.returncode == 3
        assert "completed-unstable" in out.stdout


@pytest.mark.parametrize("module", ["geometry", "actuators", "dynamics", "feedback", "rhc", "analysis",
                                    "experiments"])
def test_every_exported_name_resolves(module):
    # tracing and star imports look up each __all__ entry on the module
    mod = importlib.import_module(f"schloegl.{module}")
    assert [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)] == []
