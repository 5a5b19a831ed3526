"""Saturation, the box-average feedback law, and closed-loop tracking."""

import math
import warnings

import numpy as np
import pytest

from schloegl import (
    FeedbackLaw,
    IntegratorConfig,
    SaturationConfig,
    SchloeglParams,
    build_actuator_grid,
    build_fem,
    compute_theory_constants,
    control_norm,
    discretize_actuators,
    feedback_dissipation,
    project_admissible,
    project_onto_actuator_span,
    projection_norm_sq,
    radial_project,
    saturated_feedback,
    track_target,
)
from schloegl.actuators import _column_norms


class TestRadialProjection:
    def test_rescale(self):
        out = radial_project(np.array([6.0, 8.0]), SaturationConfig(bound=5.0))
        assert np.allclose(out, [3.0, 4.0])

    def test_extremes(self):
        v = np.array([6.0, 8.0])
        assert np.array_equal(radial_project(v, SaturationConfig(bound=math.inf)), v)
        assert np.all(radial_project(v, SaturationConfig(bound=0.0)) == 0.0)
        assert np.all(radial_project(np.zeros(3), SaturationConfig(bound=0.0)) == 0.0)

    def test_tie_case_unscaled(self):
        v = np.array([3.0, 4.0])
        out = radial_project(v, SaturationConfig(bound=5.0))
        assert np.array_equal(out, v)

    def test_properties(self, rng):
        for _ in range(200):
            v = rng.normal(size=rng.integers(1, 12)) * 10.0 ** float(rng.integers(-3, 4))
            bound = float(abs(rng.normal())) * 5
            for norm in ("euclidean", "max"):
                sat = SaturationConfig(bound=bound, norm=norm)
                out = radial_project(v, sat)
                assert control_norm(out, norm) <= bound * (1 + 1e-12)
                # nonnegative multiple of v: direction and argmax preserved
                if np.any(v != 0):
                    assert np.argmax(np.abs(out)) == np.argmax(np.abs(v))
                    ratios = out[v != 0] / v[v != 0]
                    assert np.all(ratios >= 0)
                    assert np.ptp(ratios) < 1e-12 * max(1.0, ratios.max())

    def test_extreme_inputs_terminate_feasibly(self):
        for v in (np.array([1e308, -1.7e308, 9e307]), np.array([1.7e308]), np.array([3.0, 4.0])):
            for bound in (5e-324, 1.0, 1e308):
                for norm in ("euclidean", "max"):
                    sat = SaturationConfig(bound=bound, norm=norm)
                    with np.errstate(over="ignore"):
                        out = radial_project(v, sat)
                        assert control_norm(out, norm) <= bound
                        assert np.array_equal(radial_project(out, sat), out)

    def test_underflowing_squares_settle_on_the_sphere(self):
        # the squares of the rescaled entry underflow; the scaled norm
        # still settles, so the result is nonzero, feasible and idempotent
        sat = SaturationConfig(bound=1.8193942323567405e-161)
        out = radial_project(np.array([6.643061751921988e40]), sat)
        assert out[0] > 0.0
        assert control_norm(out) <= sat.bound
        assert control_norm(out) == pytest.approx(sat.bound, rel=1e-15)
        assert np.array_equal(radial_project(out, sat), out)

    def test_max_norm(self):
        out = radial_project(np.array([2.0, -4.0]), SaturationConfig(bound=2.0, norm="max"))
        assert np.allclose(out, [1.0, -2.0])

    def test_invalid(self):
        with pytest.raises(ValueError):
            SaturationConfig(bound=-1.0)
        with pytest.raises(ValueError):
            SaturationConfig(norm="l1")


EXTREME_BOUNDS = (5e-324, 1.8193942323567405e-161, 1e308)


class TestOneSaturationOperator:
    """The feedback law's sat and the RHC admissible set are one projection."""

    def test_vector_is_the_one_column_case_bitwise(self, rng):
        vectors = [rng.normal(size=rng.integers(1, 12)) * 10.0 ** float(rng.integers(-8, 9))
                   for _ in range(400)]
        vectors += [np.array([1e308, -1.7e308, 9e307]), np.array([6.643061751921988e40]),
                    np.array([1e200, 1e200]), np.array([1e-200, -3e-170]), np.array([5e-324, 0.0]),
                    np.zeros(3), np.array([3.0, 4.0])]
        bounds = EXTREME_BOUNDS + (0.0, 1.0, 5.0, 2.5e-3, 7.3e4)
        for norm in ("euclidean", "max"):
            for v in vectors:
                for bound in bounds + (float(abs(rng.normal())) * 5,):
                    sat = SaturationConfig(bound=bound, norm=norm)
                    single = radial_project(v, sat)
                    column = project_admissible(v[:, None], sat)[:, 0]
                    assert np.array_equal(single, column), (norm, bound, v)
                    assert np.array_equal(np.signbit(single), np.signbit(column))
                    assert control_norm(single, norm) == control_norm(column, norm)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_columns_of_any_layout_are_the_vector_case_bitwise(self, rng, order):
        # numpy sums an F-ordered array's columns pairwise, and a norm near 1e+-160 needs
        # hypot; either way a column's norm and projection are those of the vector alone
        cols = rng.normal(size=(9, 1500)) * 10.0 ** rng.integers(-3, 4, size=1500)
        cols[:, :300] *= 1e160
        cols[:, 300:600] *= 1e-160
        u = np.asarray(cols, order=order)
        for norm in ("euclidean", "max"):
            norms = _column_norms(u, norm)
            assert [float(n) for n in norms] == [control_norm(col, norm) for col in u.T]
            for bound in (1e-160, 1.0, 1e160):
                sat = SaturationConfig(bound=bound, norm=norm)
                each = np.stack([radial_project(col, sat) for col in u.T], axis=1)
                assert np.array_equal(project_admissible(u, sat), each), (norm, bound)

    def test_huge_entries_land_on_the_sphere(self):
        sat = SaturationConfig(bound=2.0)
        for v in (np.array([1e200, 1e200]), np.array([1.7e308, 1.7e308])):
            for out in (radial_project(v, sat), project_admissible(np.stack([v, v], axis=1), sat)[:, 1]):
                assert out[0] == out[1] > 0.0
                assert abs(control_norm(out) - 2.0) <= 4 * np.spacing(2.0)
                assert control_norm(out) <= 2.0

    def test_tiny_entries_land_on_the_sphere(self):
        v = np.array([3e-170, -4e-170])
        sat = SaturationConfig(bound=1e-170)
        out = radial_project(v, sat)
        assert out[0] > 0.0 > out[1]
        assert abs(control_norm(out) - 1e-170) <= 4 * np.spacing(1e-170)
        assert control_norm(v) == pytest.approx(5e-170, rel=1e-15)

    def test_non_finite_entry_gives_an_all_nan_column(self):
        bad = (np.array([math.inf, 1.0]), np.array([-math.inf, math.inf]), np.array([math.nan, 1.0]),
               np.array([math.inf, math.nan]), np.array([1.0, math.nan]))
        for norm in ("euclidean", "max"):
            for bound in (0.0, 2.0, 1e308):
                sat = SaturationConfig(bound=bound, norm=norm)
                for v in bad:
                    assert np.all(np.isnan(radial_project(v, sat))), (norm, bound, v)
                u = np.stack([np.array([3.0, 4.0]) * 1e-3, *bad], axis=1)
                out = project_admissible(u, sat)
                assert np.all(np.isnan(out[:, 1:]))
                assert np.array_equal(out[:, 0], radial_project(u[:, 0], sat))
            # no bound: the identity, non-finite entries included
            v = np.array([math.inf, math.nan])
            assert radial_project(v, SaturationConfig(norm=norm)) is v

    def test_no_floating_point_warning_escapes(self):
        vectors = (np.array([1e200, 1e200]), np.array([1.7e308, -1.7e308]), np.array([5e-324, 1e-320]),
                   np.array([math.inf, 1.0]), np.array([math.nan, -math.inf]), np.array([1e-160, 0.0]),
                   np.array([6.643061751921988e40]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for norm in ("euclidean", "max"):
                for bound in EXTREME_BOUNDS + (0.0, 2.0):
                    sat = SaturationConfig(bound=bound, norm=norm)
                    for v in vectors:
                        control_norm(v, norm)
                        radial_project(v, sat)
                    project_admissible(np.stack([np.resize(v, 2) for v in vectors], axis=1), sat)


class TestSaturatedFeedback:
    def test_zero_error(self, coupling16):
        law = FeedbackLaw(gain=175.0)
        u = saturated_feedback(np.zeros(coupling16.b.shape[0]), law, coupling16)
        assert np.all(u == 0.0)

    def test_indicator_of_first_box(self):
        # aligned mesh: the nodal indicator of the first box is exactly 1
        # on that box and vanishes on all the others
        fe = build_fem(8, 8, 0.1)
        grid = build_actuator_grid(2, 0.5)
        cm = discretize_actuators(grid, fe.mesh)
        lo, hi = grid.boxes()
        nodes = fe.mesh.nodes
        z = ((nodes[:, 0] >= lo[0, 0] - 1e-12) & (nodes[:, 0] <= hi[0, 0] + 1e-12)
             & (nodes[:, 1] >= lo[0, 1] - 1e-12) & (nodes[:, 1] <= hi[0, 1] + 1e-12)).astype(float)
        u = saturated_feedback(z, FeedbackLaw(gain=7.0), cm)
        assert u[0] == pytest.approx(-7.0, rel=1e-12)
        assert np.allclose(u[1:], 0.0, atol=1e-13)

    def test_saturated_magnitude_and_direction(self, coupling16, rng):
        z = rng.normal(size=coupling16.b.shape[0])
        coeffs = project_onto_actuator_span(coupling16, z)
        v = -175.0 * coeffs
        bound = 0.5 * float(np.linalg.norm(v))
        u = saturated_feedback(z, FeedbackLaw(gain=175.0, saturation=SaturationConfig(bound=bound)), coupling16)
        assert np.linalg.norm(u) == pytest.approx(bound, rel=1e-12)
        assert np.allclose(u, v * (bound / np.linalg.norm(v)), rtol=1e-12)


class TestDissipation:
    def test_zero(self, coupling16):
        n = coupling16.b.shape[0]
        assert feedback_dissipation(np.zeros(n), np.zeros(9), coupling16) == 0.0

    def test_lemma_identity_both_regimes(self, fe16, coupling16, rng):
        lam = 175.0
        for bound in (math.inf, 0.75):
            for _ in range(50):
                z = rng.normal(size=fe16.mesh.n_nodes)
                law = FeedbackLaw(gain=lam, saturation=SaturationConfig(bound=bound))
                u = saturated_feedback(z, law, coupling16)
                got = feedback_dissipation(z, u, coupling16)
                v = -lam * project_onto_actuator_span(coupling16, z)
                vnorm = float(np.linalg.norm(v))
                factor = 1.0 if vnorm <= bound else bound / vnorm
                want = -lam * factor * projection_norm_sq(coupling16, z)
                assert got == pytest.approx(want, rel=1e-12)
                assert got <= 0.0

    def test_saturated_ratio(self, fe16, coupling16, rng):
        lam = 10.0
        z = rng.normal(size=fe16.mesh.n_nodes)
        v = -lam * project_onto_actuator_span(coupling16, z)
        bound = 0.5 * float(np.linalg.norm(v))  # force saturation
        law = FeedbackLaw(gain=lam, saturation=SaturationConfig(bound=bound))
        u = saturated_feedback(z, law, coupling16)
        got = feedback_dissipation(z, u, coupling16)
        unconstrained = -lam * projection_norm_sq(coupling16, z)
        assert got / unconstrained == pytest.approx(bound / np.linalg.norm(v), rel=1e-12)


class TestClosedLoop:
    def test_perfect_start_stays_zero(self, fe16, params, coupling16):
        y0 = np.full(fe16.mesh.n_nodes, 0.7)
        law = FeedbackLaw(gain=175.0, saturation=SaturationConfig(bound=math.exp(2.0)))
        rec = track_target(y0, y0.copy(), law, coupling16, fe16, params,
                           cfg=IntegratorConfig(dt=1e-3, state_stride=50), horizon=0.2)
        assert np.max(rec.err_norm) == 0.0
        assert np.max(rec.control_norms) == 0.0

    def test_bound_respected_every_step(self, fe16, params, coupling16):
        bound = math.exp(1.0)
        law = FeedbackLaw(gain=175.0, saturation=SaturationConfig(bound=bound))
        rec = track_target(np.full(fe16.mesh.n_nodes, 2.0), np.zeros(fe16.mesh.n_nodes),
                           law, coupling16, fe16, params,
                           cfg=IntegratorConfig(dt=1e-3, state_stride=100), horizon=1.0)
        assert np.max(rec.control_norms) <= bound

    def test_unconstrained_matches_huge_bound_bitwise(self, fe16, params, coupling16):
        y0 = np.full(fe16.mesh.n_nodes, 2.0)
        yhat0 = np.zeros(fe16.mesh.n_nodes)
        cfg = IntegratorConfig(dt=1e-3, state_stride=50)
        law_inf = FeedbackLaw(gain=175.0, saturation=SaturationConfig(bound=math.inf))
        law_big = FeedbackLaw(gain=175.0, saturation=SaturationConfig(bound=1e30))
        a = track_target(y0, yhat0, law_inf, coupling16, fe16, params, cfg=cfg, horizon=0.3)
        b = track_target(y0, yhat0, law_big, coupling16, fe16, params, cfg=cfg, horizon=0.3)
        assert np.array_equal(a.final_state, b.final_state)
        assert np.array_equal(a.controls, b.controls)

    def test_decay_above_absorbing_radius_nonvacuous(self, params):
        # doubled trajectory-comparison initial error so the run starts
        # above the absorbing radius; the squared error norm must be
        # nonincreasing at every step spent above it
        fe = build_fem(24, 24, 0.1)
        grid = build_actuator_grid(3, 0.5)
        cm = discretize_actuators(grid, fe.mesh)
        from schloegl import ForcingSpec

        yhat0 = fe.mesh.interpolate(lambda x, y: 10 - 20 * x * y)
        y0 = yhat0 + 2.0 * (fe.mesh.interpolate(lambda x, y: -10 * x + y) - yhat0)
        law = FeedbackLaw(gain=175.0, saturation=SaturationConfig(bound=math.exp(3.5)))
        # the large-amplitude cubic plunge needs a step small enough to
        # resolve it, else the startup/AB2 pair rings around it
        rec = track_target(y0, yhat0, law, cm, fe, params, ForcingSpec.periodic_indicator(),
                           IntegratorConfig(dt=2e-4, state_stride=1000), horizon=1.0)
        radius = compute_theory_constants(0.1, params.roots, 1.0, 175.0, grid).absorbing_radius
        above = rec.err_norm[:-1] >= radius
        assert np.count_nonzero(above) > 40  # genuinely exercised
        diffs = np.diff(rec.err_norm ** 2)
        assert np.all(diffs[above] <= 0.0)
