"""Free dynamics of the cubic reaction-diffusion model: the two outer
roots attract, the middle root repels, and the periodic indicator
forcing produces a periodic-like large-time regime.

Run:  python3 demos/03_free_dynamics_bistability.py
"""

import numpy as np

from schloegl import ForcingSpec, IntegratorConfig, SchloeglParams, build_fem, l2_norm, simulate_free

fe = build_fem(24, 24, 0.1)
params = SchloeglParams(nu=0.1, roots=(-1.0, 0.0, 2.0))
cfg = IntegratorConfig(dt=1e-3, state_stride=2000)

print("relaxation from constant states near the unstable root 0:")
for c in (0.05, -0.05):
    rec = simulate_free(np.full(fe.mesh.n_nodes, c), 20.0, fe, params, cfg=cfg)
    print(f"  y0 = {c:+.2f}: y(20) ~ {rec.final_state[0]:+.6f}")

print("\nperiodic indicator forcing from the stable root 2 "
      "(norm samples; large-time regime is periodic-like):")
every_second = IntegratorConfig(dt=1e-3, state_stride=1000)
rec = simulate_free(np.full(fe.mesh.n_nodes, 2.0), 6.0, fe, params,
                    ForcingSpec.periodic_indicator(), every_second)
for t in (0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0):
    i = int(t / every_second.dt)
    print(f"  t={t:.0f}: |y| = {l2_norm(rec.state_at_level(i), fe.mass):.6f}")
