"""Receding-horizon control vs the explicit saturated feedback on one
coarse trajectory-tracking cell: the optimized control always achieves a
cost no worse than the feedback it warm-starts from.

Run:  python3 demos/05_receding_horizon_comparison.py   (about a minute)
"""

import math

import numpy as np

from schloegl import (
    FeedbackLaw,
    ForcingSpec,
    IntegratorConfig,
    RhcConfig,
    SaturationConfig,
    SchloeglParams,
    build_actuator_grid,
    build_fem,
    discretize_actuators,
    run_rhc,
    track_target,
)

fe = build_fem(24, 24, 0.1)
params = SchloeglParams()
cm = discretize_actuators(build_actuator_grid(3, 0.33), fe.mesh)
forcing = ForcingSpec.periodic_indicator()
y0 = np.full(fe.mesh.n_nodes, -1.0)
target0 = np.full(fe.mesh.n_nodes, 2.0)
t_final = 4.0
# one law and one integrator for both controllers: the law's bound is the
# RHC's admissible set and its gain the RHC's warm start; cost_beta weighs both J
law = FeedbackLaw(gain=175.0, saturation=SaturationConfig(bound=math.exp(2.0), norm="max"))
integ = IntegratorConfig(dt=4e-3, state_stride=250, cost_beta=1e-3)

sat_rec = track_target(y0, target0, law, cm, fe, params, forcing, integ, horizon=t_final)
print(f"saturated feedback: J = {sat_rec.running_cost[-1]:.4f}, "
      f"final error {sat_rec.err_norm[-1]:.3e}")

cfg = RhcConfig(horizon=1.0, delta=0.5, t_final=t_final, tol=1e-4)
res = run_rhc(cfg, y0, target0, law, cm, fe, params, forcing, integ)
rhc_cost = res.record.running_cost[-1]
iters = [r.iterations for r in res.window_reports]
print(f"receding horizon:   J = {rhc_cost:.4f}, "
      f"final error {res.record.err_norm[-1]:.3e}")
print(f"  {len(iters)} windows, solver iterations per window: {iters}")
print(f"  suboptimality ordering holds: {rhc_cost <= sat_rec.running_cost[-1]}")
