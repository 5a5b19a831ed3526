"""Closed-form constants of the stabilization analysis and their discrete
counterpart: the smallest eigenvalue of the damped pencil must clear the
required margin for the chosen decay rate.

Run:  python3 demos/06_theory_constants_and_margin.py
"""

from schloegl import (
    build_actuator_grid,
    build_fem,
    compute_theory_constants,
    discretize_actuators,
    stabilizability_margin,
)

grid = build_actuator_grid(3, 0.5)
for mu in (0.1, 1.0):
    tc = compute_theory_constants(mu, (-1.0, 0.0, 2.0), 1.0, 175.0, grid)
    print(f"rate mu = {mu}:")
    print(f"  quadratic envelope max  {tc.quad_max:.6f}")
    print(f"  growth constant         {tc.growth_constant:.6f}")
    print(f"  absorbing radius        {tc.absorbing_radius:.6f}")
    print(f"  entry-time bound        {tc.entry_time_bound:.6f}")
    print(f"  required margin         {tc.margin_requirement:.6f}")
    print(f"  inactivity bound        {tc.saturation_inactivity_bound:.2f}")

fe = build_fem(48, 48, 0.1)
tc = compute_theory_constants(0.1, (-1.0, 0.0, 2.0), 1.0, 175.0, grid)
cm = discretize_actuators(grid, fe.mesh)
print("\ndiscrete spectral margin vs gain (nine boxes, fraction 0.5):")
for gain in (0.0, 10.0, 100.0, 1000.0, 1e6):
    rep = stabilizability_margin(gain, cm, fe, required_margin=tc.margin_requirement)
    print(f"  gain {gain:>9.0f}: theta_min = {rep.min_eigenvalue:9.4f}  "
          f"{'>=' if rep.passed else '< '} required {rep.required_margin:.4f}")

print("\nlarge-gain limit vs grid parameter (growth like the square law):")
for m in (1, 2, 3, 4):
    cm = discretize_actuators(build_actuator_grid(m, 0.5), fe.mesh)
    rep = stabilizability_margin(1e6, cm, fe)
    print(f"  m={m}: limiting theta_min = {rep.min_eigenvalue:.4f}")
