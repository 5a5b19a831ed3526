"""The one number policy of the entry points: every count and finite real is refused the same way.

A count is an integer >= 1 and not a bool; a real is finite (or +inf where inf
means no bound) and not a bool.  Each entry point refuses a bool, a numpy bool,
NaN and an infinity with a ``ValueError`` naming the argument, and keeps taking
the Python and numpy numbers it took before.
"""

import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from schloegl import (
    CrankNicolsonAB2,
    FeedbackLaw,
    ForcingSpec,
    IntegratorConfig,
    OcpProblem,
    RectangleDomain,
    RhcConfig,
    SaturationConfig,
    SchloeglParams,
    bb_projected_gradient,
    build_actuator_grid,
    build_fem,
    build_mesh,
    check_gen_poly,
    compute_theory_constants,
    discretize_actuators,
    ode_toy_simulate,
    simulate_free,
    stabilizability_margin,
)
from schloegl import dynamics
from schloegl._checks import is_count, is_real
from schloegl.analysis import TOY_DT
from schloegl.dynamics import ForcingLoad
from schloegl.experiments import ScenarioConfig, _run_jobs

FE = build_fem(4, 4, 0.1)
GRID = build_actuator_grid(1, 0.5)
COUPLING = discretize_actuators(GRID, FE.mesh)
PARAMS = SchloeglParams()
STEPPER = CrankNicolsonAB2(FE, PARAMS, 0.1)
N = FE.mesh.n_nodes
PROBLEM = OcpProblem(coupling=COUPLING, stepper=STEPPER, y0=np.full(N, 0.5), y_prev=None,
                     target=np.zeros((4, N)), beta=1e-3, saturation=SaturationConfig(),
                     load=ForcingLoad(ForcingSpec.zero(), FE, 0.1))
TIMES = dict(horizon=3, delta=1, t_final=4)
GEN_POLY = dict(beta0=2, beta1=2, beta2=2, p=2, kappa=2)


def _rhc_config(**changes):
    return RhcConfig(**dict(TIMES, **changes))


def _solve(**knobs):
    return bb_projected_gradient(PROBLEM, np.zeros((COUPLING.count, PROBLEM.n_steps)), **knobs)


def _toy(**changes):
    return ode_toy_simulate(**dict(dict(r=-1, bound=1, mu=1, z0=2, horizon=TOY_DT), **changes))


# (entry point, argument, kind, the call with the argument set to v, a value it accepts).  kind: "count", "real"
# (finite) or "bound" (finite or +inf).  An accepted value of a whole number is also fed as a Python int.
ENTRY_POINTS = [
    ("RectangleDomain", "lx", "real", lambda v: RectangleDomain(lx=v), 2),
    ("RectangleDomain", "ly", "real", lambda v: RectangleDomain(ly=v), 2),
    ("build_mesh", "nx", "count", lambda v: build_mesh(v, 2), 3),
    ("build_mesh", "ny", "count", lambda v: build_mesh(2, v), 3),
    ("build_fem", "nu", "real", lambda v: build_fem(2, 2, v), 1),
    ("build_actuator_grid", "m", "count", lambda v: build_actuator_grid(v, 0.5), 2),
    ("build_actuator_grid", "width_fraction", "real", lambda v: build_actuator_grid(2, v), 0.5),
    ("SchloeglParams", "nu", "real", lambda v: SchloeglParams(nu=v), 1),
    ("SchloeglParams", "roots", "real", lambda v: SchloeglParams(roots=(v, 0.0, 2.0)), -1),
    ("IntegratorConfig", "dt", "real", lambda v: IntegratorConfig(dt=v), 1),
    ("IntegratorConfig", "state_stride", "count", lambda v: IntegratorConfig(state_stride=v), 3),
    ("IntegratorConfig", "cost_beta", "real", lambda v: IntegratorConfig(cost_beta=v), 1),
    ("CrankNicolsonAB2", "dt", "real", lambda v: CrankNicolsonAB2(FE, PARAMS, v), 1),
    ("simulate_free", "horizon", "real",
     lambda v: simulate_free(np.zeros(N), v, FE, PARAMS, cfg=IntegratorConfig(dt=0.5)), 1),
    ("SaturationConfig", "bound", "bound", lambda v: SaturationConfig(bound=v), 2),
    ("FeedbackLaw", "gain", "real", lambda v: FeedbackLaw(gain=v), 5),
    ("OcpProblem", "beta", "real", lambda v: replace(PROBLEM, beta=v), 1),
    ("RhcConfig", "horizon", "real", lambda v: _rhc_config(horizon=v), 3),
    ("RhcConfig", "delta", "real", lambda v: _rhc_config(delta=v), 1),
    ("RhcConfig", "t_final", "real", lambda v: _rhc_config(t_final=v), 4),
    ("RhcConfig", "tol", "real", lambda v: _rhc_config(tol=v), 1),
    ("RhcConfig", "j_max", "count", lambda v: _rhc_config(j_max=v), 2),
    ("bb_projected_gradient", "tol", "real", lambda v: _solve(tol=v), 1),
    ("bb_projected_gradient", "j_max", "count", lambda v: _solve(j_max=v), 2),
    ("compute_theory_constants", "mu", "real", lambda v: compute_theory_constants(v, (-1, 0, 2), 1, 1, GRID), 1),
    ("compute_theory_constants", "area", "real", lambda v: compute_theory_constants(1, (-1, 0, 2), v, 1, GRID), 1),
    ("compute_theory_constants", "gain", "real", lambda v: compute_theory_constants(1, (-1, 0, 2), 1, v, GRID), 5),
    ("compute_theory_constants", "roots", "real",
     lambda v: compute_theory_constants(1, (v, 0, 2), 1, 1, GRID), -1),
    ("stabilizability_margin", "gain", "real", lambda v: stabilizability_margin(v, COUPLING, FE), 1),
    *[("check_gen_poly", name, "real", lambda v, name=name: check_gen_poly(**dict(GEN_POLY, **{name: v})), 2)
      for name in GEN_POLY],
    *[("ode_toy_simulate", name, "real", lambda v, name=name: _toy(**{name: v}), good)
      for name, good in (("r", -1), ("mu", 1), ("z0", 2), ("horizon", 1))],
    ("ode_toy_simulate", "bound", "bound", lambda v: _toy(bound=v), 1),
    ("_run_jobs", "workers", "count", lambda v: _run_jobs([], v), 1),
]
_IDS = [f"{entry}-{arg}" for entry, arg, *_ in ENTRY_POINTS]

_REFUSED = {"count": [True, np.True_, math.nan, math.inf, -math.inf, 0, 2.5],
            "real": [True, np.True_, math.nan, math.inf, -math.inf],
            "bound": [True, np.True_, math.nan, -math.inf]}


@pytest.fixture(autouse=True)
def in_process(monkeypatch):
    """Nothing forks: a solve's trials are costed here."""
    monkeypatch.setattr(dynamics, "_may_fork", lambda: False)


@pytest.mark.parametrize("entry, arg, kind, call, good", ENTRY_POINTS, ids=_IDS)
def test_refuses_bools_and_non_finite_numbers_by_name(entry, arg, kind, call, good):
    for value in _REFUSED[kind]:
        with pytest.raises(ValueError, match=rf"\b{arg} = ") as info:
            call(value)
        assert repr(value) in str(info.value), (entry, arg, value)


@pytest.mark.parametrize("entry, arg, kind, call, good", ENTRY_POINTS, ids=_IDS)
def test_takes_python_and_numpy_numbers(entry, arg, kind, call, good):
    values = [int(good), np.int64(good), np.int32(good)] if float(good).is_integer() else []
    if kind != "count":
        values += [float(good), np.float64(good), np.float32(good)]
    for value in values:
        call(value)


def test_inf_means_no_bound_where_it_is_one():
    assert SaturationConfig(bound=math.inf).unconstrained
    assert _toy(bound=math.inf)[1][-1] < 2


# (field, the key that names it, a value it accepts)
_SCENARIO_KEYS = [("lx", "domain.lx", 2), ("ly", "domain.ly", 2), ("nu", "params.nu", 1), ("dt", "time.dt", 1),
                  ("t_final", "time.t_final", 1), ("rhc_horizon", "rhc.t", 1), ("rhc_delta", "rhc.delta", 1),
                  ("rhc_beta", "rhc.beta", 1), ("rhc_tol", "rhc.tol", 1), ("gain", "feedback.lambda", 5),
                  ("r", "actuators.r", 0.5)]


@pytest.mark.parametrize("attr, key, good", _SCENARIO_KEYS, ids=[key for _, key, _ in _SCENARIO_KEYS])
def test_scenario_float_keys(attr, key, good):
    # a bool passed every float key: lx = True built a config whose snapshot read `domain.lx = True  [default]`
    for value in _REFUSED["real"]:
        with pytest.raises(ValueError, match=re.escape(f"bad value {value!r} for {key} ")):
            ScenarioConfig(**{attr: value})
    values = [float(good), np.float64(good)] + ([int(good), np.int64(good)] if float(good).is_integer() else [])
    for value in values:
        assert getattr(ScenarioConfig(**{attr: value}), attr) == good


def test_scenario_roots_and_bound():
    for value in _REFUSED["real"]:
        with pytest.raises(ValueError, match=re.escape(f"bad value {(value, 0, 2)!r} for params.zeta ")):
            ScenarioConfig(zeta=(value, 0, 2))
    for value in _REFUSED["bound"]:
        with pytest.raises(ValueError, match=re.escape(f"cu = {value!r} disagrees")):
            ScenarioConfig(cu_tag="1", cu=value)
    assert ScenarioConfig(cu_tag="1", cu=np.float64(1)).cu == ScenarioConfig(cu_tag="1", cu=1).cu == 1


def test_the_policy():
    assert all(map(is_count, (1, np.int64(3), np.uint8(1), 10 ** 400)))
    assert not any(map(is_count, (0, -1, True, np.True_, 2.0, np.float64(2), "2", None)))
    assert all(map(is_real, (0, -1.5, np.float32(1), np.int8(-3), 10 ** 400)))
    assert not any(map(is_real, (True, False, np.True_, math.nan, math.inf, -math.inf, "1", None, np.array(1.0))))
    assert is_real(math.inf, inf=True) and not is_real(-math.inf, inf=True) and not is_real(math.nan, inf=True)


def test_policy_is_spelled_once():
    # a second spelling of "integer, not a bool" or "real, not a bool" fails here
    src = Path(__file__).resolve().parents[1] / "src" / "schloegl"
    spelled = {path.name for path in src.glob("*.py")
               if re.search(r"^\s*(import numbers|from numbers import)|isinstance\([^)]*\bbool\b",
                            path.read_text(), re.MULTILINE)}
    assert spelled == {"_checks.py"}
