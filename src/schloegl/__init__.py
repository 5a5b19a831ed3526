"""Saturated-feedback and receding-horizon control of the 2D Schloegl equation.

A numpy/scipy library: P1 finite elements on structured rectangle
meshes, box-indicator actuators, semi-implicit time stepping, the
explicit saturated feedback law, adjoint-based receding-horizon optimal
control, and the closed-form theory constants with their discrete
spectral-margin counterpart.  The ``experiments`` module and the
``schloegl`` command-line entry point drive the desk-scale studies.
"""

from .geometry import (
    FemOperators,
    RectangleDomain,
    StructuredTriangulation,
    assemble_mass,
    assemble_stiffness,
    build_fem,
    build_mesh,
    l2_inner,
    l2_norm,
)
from .actuators import (
    ActuatorGrid,
    CouplingMatrix,
    apply_control_operator,
    build_actuator_grid,
    control_norm,
    control_operator_inverse_norm,
    discretize_actuators,
    project_onto_actuator_span,
    projection_norm_sq,
)
from .dynamics import (
    BlowUpError,
    CrankNicolsonAB2,
    ForcingSpec,
    IntegratorConfig,
    SchloeglParams,
    TrajectoryRecord,
    cubic_reaction,
    cubic_reaction_derivative,
    eval_forcing,
    scalar_cnab_trajectory,
    shifted_reaction,
    shifted_reaction_derivative,
    simulate_free,
)
from .feedback import (
    FeedbackLaw,
    SaturationConfig,
    feedback_dissipation,
    radial_project,
    saturated_feedback,
    track_target,
)
from .rhc import (
    OcpProblem,
    OptimizeResult,
    RhcConfig,
    RhcResult,
    bb_projected_gradient,
    evaluate_cost,
    project_admissible,
    reduced_gradient,
    run_rhc,
    simulate_controlled,
    solve_adjoint,
)
from .analysis import (
    MarginReport,
    MarginSolveError,
    TheoryConstants,
    check_gen_poly,
    compute_theory_constants,
    fit_decay_rate,
    ode_toy_simulate,
    stabilizability_margin,
)

__version__ = "0.1.0"
