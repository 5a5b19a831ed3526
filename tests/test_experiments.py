"""Configuration parsing, scenario runs, persistence, and the CLI."""

import dataclasses
import importlib
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from schloegl.experiments import (
    _KEYS,
    ConfigError,
    ScenarioConfig,
    _fmt_readable,
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
        assert cfg.provenance["params.nu"] == "default"
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

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\n[mesh]\nnx = 3  # trailing\n; другой\nny = 4\n")
        assert (cfg.nx, cfg.ny) == (3, 4)


class TestConfigInCode:
    def test_bound_from_the_tag_alone(self, tmp_path):
        cfg = ScenarioConfig(nx=4, ny=4, dt=0.01, t_final=0.05, controller="saturated", cu_tag="e^0.5")
        assert cfg.cu == math.exp(0.5)
        art = run_scenario(cfg, tmp_path / "run")
        peak = float(np.max(art.record.control_norms))
        # saturated on the bound; the logged np.linalg.norm may exceed the
        # saturation's own column norm in the last bit
        assert math.exp(0.5) * (1 - 1e-12) <= peak <= math.exp(0.5) * (1 + 4 * np.finfo(float).eps)
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
        assert lines[0] == "window,t0,iterations,evaluations,cost,converged,stop_reason"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == art.summary["rhc_windows"] == 4
        assert [int(r[0]) for r in rows] == [0, 1, 2, 3]
        assert [float(r[1]) for r in rows] == pytest.approx([0.0, 0.1, 0.2, 0.3], abs=1e-12)
        assert sum(int(r[2]) for r in rows) == art.summary["rhc_iterations_total"]
        assert all(int(r[3]) >= 1 and r[5] in ("True", "False") and r[6] for r in rows)

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
        for name in ("states", "err_norm", "state_norm", "control_norms", "running_cost"):
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
        assert (tmp_path / "table1.txt").exists()
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
        for serial in sorted((tmp_path / "w1").rglob("*")):
            if serial.name in ("series.csv", "windows.csv", "config_snapshot.txt", "table1.csv", "sweep_lambda.csv"):
                pooled = tmp_path / "w2" / serial.relative_to(tmp_path / "w1")
                assert pooled.read_bytes() == serial.read_bytes(), serial.name

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

    def test_ode_toy(self, tmp_path):
        out = self.run_cli("ode-toy", "--r", "-1", "--cu", "1", "--z0", "2",
                           "--horizon", "1", "--out", str(tmp_path / "toy.csv"))
        assert out.returncode == 0
        assert (tmp_path / "toy.csv").exists()

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
