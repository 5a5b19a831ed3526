"""Theory constants, the spectral margin, decay fitting, and the scalar toy."""

import copy
import dataclasses
import math
import pickle
import sys

import numpy as np
import pytest
import scipy.linalg as sla
from scipy.sparse.linalg import ArpackNoConvergence

from schloegl import (
    BlowUpError,
    FeedbackLaw,
    IntegratorConfig,
    MarginSolveError,
    build_actuator_grid,
    build_fem,
    check_gen_poly,
    compute_theory_constants,
    control_operator_inverse_norm,
    discretize_actuators,
    fit_decay_rate,
    ode_toy_simulate,
    stabilizability_margin,
    track_target,
)
from schloegl import analysis
from schloegl.analysis import MARGIN_TOL, TOY_DT
from schloegl.geometry import _BandedCholesky

CACHED = {"energy", "energy_factor"}  # the FemOperators attributes built on first use


def no_convergence(*args, **kwargs):
    raise ArpackNoConvergence("ARPACK error -1: No convergence (1 iterations, 0/1 eigenvectors converged)",
                              np.empty(0), np.empty((0, 0)))


class TestTheoryConstants:
    def test_reference_values(self):
        grid = build_actuator_grid(3, 0.5)
        tc = compute_theory_constants(1.0, (-1.0, 0.0, 2.0), 1.0, 175.0, grid)
        assert tc.elementary_sums == (1.0, 2.0, -0.0)
        assert tc.quad_max == pytest.approx(50.0 / 11.0 - 4.0, rel=1e-14)
        assert tc.growth_constant == pytest.approx(128.0 / 15.0 + 6.0 / 11.0 + 2.0, rel=1e-14)
        assert tc.absorbing_radius_raw == pytest.approx(20.3544, abs=2e-3)
        assert tc.absorbing_radius == tc.absorbing_radius_raw
        assert tc.margin_requirement == pytest.approx(2.0 + tc.growth_constant, rel=1e-14)
        assert tc.saturation_inactivity_bound == pytest.approx(
            175.0 * control_operator_inverse_norm(grid) * tc.absorbing_radius, rel=1e-14)

    def test_quad_max_brute_force(self, rng):
        grid = build_actuator_grid(2, 0.5)
        s = np.linspace(-100.0, 100.0, 400001)
        for _ in range(20):
            roots = tuple(rng.uniform(-3, 3, size=3))
            tc = compute_theory_constants(0.5, roots, 1.0, 1.0, grid)
            s2, s1, _ = tc.elementary_sums
            brute = np.max(-(22.0 / 25.0) * s * s - 4.0 * s2 * s - 2.0 * s1)
            assert tc.quad_max == pytest.approx(brute, abs=1e-6)

    def test_radius_floor_and_monotone_in_rate(self):
        grid = build_actuator_grid(1, 0.5)
        prev = 0.0
        for mu in (1e-4, 0.01, 0.1, 0.5, 1.0, 5.0):
            tc = compute_theory_constants(mu, (-0.1, 0.0, 0.1), 1.0, 1.0, grid)
            assert tc.absorbing_radius >= 1.0
            assert tc.absorbing_radius >= prev
            prev = tc.absorbing_radius

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ValueError):
            compute_theory_constants(0.0, (-1, 0, 2), 1.0, 1.0, build_actuator_grid(1, 0.5))

    @pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf, -5.0])
    def test_gain_not_finite_and_nonnegative_refused(self, gain):
        # NaN gave a NaN saturation bound and -5 a negative one
        with pytest.raises(ValueError, match="gain must be finite and >= 0"):
            compute_theory_constants(0.1, (-1, 0, 2), 1.0, gain, build_actuator_grid(1, 0.5))


class TestMargin:
    @pytest.fixture(scope="class")
    def fe32(self):
        return build_fem(32, 32, 0.1)

    def test_gain_zero_gives_one(self, fe32):
        cm = discretize_actuators(build_actuator_grid(3, 0.5), fe32.mesh)
        rep = stabilizability_margin(0.0, cm, fe32)
        assert rep.min_eigenvalue == pytest.approx(1.0, abs=1e-8)

    def test_monotone_in_gain(self, fe32):
        cm = discretize_actuators(build_actuator_grid(3, 0.5), fe32.mesh)
        thetas = [stabilizability_margin(lam, cm, fe32).min_eigenvalue for lam in (0.0, 1.0, 10.0, 100.0)]
        assert all(b >= a - 1e-10 for a, b in zip(thetas, thetas[1:]))

    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_dense_generalized_eigensolver(self, fe16, m):
        # the smallest eigenvalue can be a near-double pair outside the subspace
        # of mesh-symmetric vectors (m = 3, gain 100 on this mesh)
        cm = discretize_actuators(build_actuator_grid(m, 0.5), fe16.mesh)
        base = (fe16.stiffness + fe16.mass).toarray()
        b = cm.b.toarray()
        for gain in (0.0, 1.0, 10.0, 100.0, 1e6):
            pencil = base + 2.0 * gain * (b / cm.volumes) @ b.T
            exact = sla.eigh(pencil, fe16.mass.toarray(), eigvals_only=True, subset_by_index=[0, 0])[0]
            theta = stabilizability_margin(gain, cm, fe16).min_eigenvalue
            assert theta == pytest.approx(exact, rel=1e-9), gain

    def test_pass_flag(self, fe32):
        cm = discretize_actuators(build_actuator_grid(3, 0.5), fe32.mesh)
        rep = stabilizability_margin(10.0, cm, fe32, required_margin=2.0)
        assert rep.passed == (rep.min_eigenvalue >= 2.0)
        rep2 = stabilizability_margin(0.0, cm, fe32, required_margin=2.0)
        assert not rep2.passed

    def test_residual_is_reported(self, fe16, coupling16):
        for gain in (0.0, 100.0):
            rep = stabilizability_margin(gain, coupling16, fe16)
            assert 0.0 <= rep.residual <= MARGIN_TOL * max(1.0, rep.min_eigenvalue)

    @pytest.mark.parametrize("gain", [math.nan, math.inf, -math.inf, -1.0])
    def test_gain_not_finite_and_nonnegative_refused(self, fe16, coupling16, gain):
        # NaN took the gain-0 branch and passed as the unactuated margin
        with pytest.raises(ValueError, match="gain must be finite and >= 0"):
            stabilizability_margin(gain, coupling16, fe16)

    @pytest.mark.parametrize("gain", [0.0, 10.0])
    def test_coupling_on_another_mesh_refused_before_factorizing(self, gain):
        fe = build_fem(8, 8, 0.1)
        other = discretize_actuators(build_actuator_grid(2, 0.5), build_fem(6, 6, 0.1).mesh)
        with pytest.raises(ValueError, match="coupling has 49 nodes, the operators' mesh has 81"):
            stabilizability_margin(gain, other, fe)
        assert not CACHED & vars(fe).keys()

    def test_lanczos_nonconvergence_raises_margin_solve_error(self, fe16, coupling16, monkeypatch):
        monkeypatch.setattr(analysis, "eigsh", no_convergence)
        with pytest.raises(MarginSolveError, match="shift-invert Lanczos did not converge") as info:
            stabilizability_margin(10.0, coupling16, fe16)
        assert isinstance(info.value, RuntimeError)

    def test_residual_over_tolerance_raises_margin_solve_error(self, fe16, coupling16, monkeypatch):
        eigsh = analysis.eigsh

        def off_by_a_thousandth(*args, **kwargs):
            vals, vecs = eigsh(*args, **kwargs)
            return vals + 1e-3, vecs

        monkeypatch.setattr(analysis, "eigsh", off_by_a_thousandth)
        with pytest.raises(MarginSolveError, match="pencil residual .* exceeds tolerance"):
            stabilizability_margin(10.0, coupling16, fe16)


class TestEnergyFactorCache:
    """K + M and its banded Cholesky factor are built once per ``FemOperators``,
    on first use, and every margin call on it reads them."""

    SWEEP = [(m, gain) for m in (1, 2, 3) for gain in (0.0, 1.0, 100.0)]

    @staticmethod
    def couplings(fe):
        return {m: discretize_actuators(build_actuator_grid(m, 0.5), fe.mesh) for m in (1, 2, 3)}

    def sweep(self, fe):
        cms = self.couplings(fe)
        return [stabilizability_margin(gain, cms[m], fe).min_eigenvalue for m, gain in self.SWEEP]

    def test_sweep_factorizes_once(self, monkeypatch):
        fe = build_fem(12, 12, 0.1)
        built = []
        init = _BandedCholesky.__init__

        def counting(self, a):
            built.append(a.shape)
            init(self, a)

        monkeypatch.setattr(_BandedCholesky, "__init__", counting)
        self.sweep(fe)
        assert built == [(169, 169)]

    def test_sweep_is_bitwise_the_calls_on_fresh_operators(self):
        fresh = []
        for m, gain in self.SWEEP:
            fe = build_fem(12, 12, 0.1)
            fresh.append(stabilizability_margin(gain, self.couplings(fe)[m], fe).min_eigenvalue)
        assert self.sweep(build_fem(12, 12, 0.1)) == fresh

    def test_build_and_closed_loop_build_no_cache(self, params):
        fe = build_fem(8, 8, 0.1)
        assert not CACHED & vars(fe).keys()
        cm = discretize_actuators(build_actuator_grid(2, 0.5), fe.mesh)
        track_target(np.full(fe.mesh.n_nodes, -1.0), np.full(fe.mesh.n_nodes, 2.0), FeedbackLaw(gain=10.0), cm,
                     fe, params, cfg=IntegratorConfig(dt=0.01), horizon=0.05)
        assert not CACHED & vars(fe).keys()

    def test_pickle_and_deepcopy_after_a_margin_call(self):
        fe = build_fem(8, 8, 0.1)
        cm = discretize_actuators(build_actuator_grid(2, 0.5), fe.mesh)
        theta = stabilizability_margin(10.0, cm, fe).min_eigenvalue
        for clone in (pickle.loads(pickle.dumps(fe)), copy.deepcopy(fe)):
            assert CACHED <= vars(clone).keys()
            assert stabilizability_margin(10.0, cm, clone).min_eigenvalue == theta

    def test_replaced_operators_get_their_own_factor(self):
        fe = build_fem(8, 8, 0.1)
        cm = discretize_actuators(build_actuator_grid(2, 0.5), fe.mesh)
        theta = stabilizability_margin(10.0, cm, fe).min_eigenvalue
        stiffer = dataclasses.replace(fe, stiffness=2 * fe.stiffness)
        assert not CACHED & vars(stiffer).keys()
        stiffer_theta = stabilizability_margin(10.0, cm, stiffer).min_eigenvalue
        assert stiffer.energy_factor is not fe.energy_factor
        pencil = (stiffer.stiffness + stiffer.mass).toarray() + 20.0 * (cm.b.toarray() / cm.volumes) @ cm.b.T.toarray()
        exact = sla.eigh(pencil, stiffer.mass.toarray(), eigvals_only=True, subset_by_index=[0, 0])[0]
        assert stiffer_theta == pytest.approx(exact, rel=1e-9)
        assert stiffer_theta != pytest.approx(theta, rel=1e-3)


class TestFitDecayRate:
    def test_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 400)
        mu, window, resid = fit_decay_rate(t, np.exp(-2.0 * t))
        assert mu == pytest.approx(2.0, abs=1e-8)
        assert resid < 1e-10
        assert window[0] > 0.3

    def test_constant_series(self):
        t = np.linspace(0.0, 5.0, 100)
        mu, _, _ = fit_decay_rate(t, np.full_like(t, 0.7))
        assert mu == pytest.approx(0.0, abs=1e-12)

    def test_floor_is_respected(self):
        t = np.linspace(0.0, 40.0, 2000)
        series = np.maximum(np.exp(-3.0 * t), 2e-13)  # plateau above the fit floor
        mu, window, _ = fit_decay_rate(t, series)
        assert mu == pytest.approx(3.0, rel=1e-3)
        assert window[1] < 15.0  # plateau excluded from the fit window

    def test_insufficient_samples(self):
        t = np.linspace(0.0, 1.0, 20)
        with pytest.raises(ValueError):
            fit_decay_rate(t, np.full_like(t, 1e-15))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_decay_rate(np.zeros(5), np.zeros(6))


class TestGenPoly:
    def test_reference_cases(self):
        threshold = (1.0 + math.sqrt(5.0)) / 2.0
        assert check_gen_poly(1, 1, 1, 2, 2.62)
        assert not check_gen_poly(1, 1, 1, 2, (threshold * 0.99) ** 2)

    def test_exact_boundary(self):
        # p=3, beta=(2,1,1): the threshold root r = 2 is exact in floats
        assert check_gen_poly(2.0, 1.0, 1.0, 3.0, 2.0)
        assert not check_gen_poly(2.0, 1.0, 1.0, 3.0, 1.98)

    def test_sufficient_condition_contract(self, rng):
        for _ in range(100):
            b0, b1, b2 = rng.uniform(0.1, 5.0, size=3)
            p = rng.uniform(1.5, 4.0)
            thresh = (b1 + math.sqrt(b1 * b1 + 4.0 * b2 * b0)) / (2.0 * b2)
            kappa = (thresh * rng.uniform(1.001, 3.0)) ** (2.0 / (p - 1.0))
            assert check_gen_poly(b0, b1, b2, p, kappa)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            check_gen_poly(1.0, 0.0, 1.0, 2.0, 1.0)


class TestOdeToy:
    def test_unconstrained_exact_decay(self):
        for r, mu, z0 in ((-3.0, 1.0, 1.5), (2.0, 0.7, -4.0)):
            t, z = ode_toy_simulate(r, math.inf, mu, z0, horizon=2.0)
            exact = z0 * z0 * np.exp(-2.0 * mu * t)
            assert np.max(np.abs(z * z - exact) / exact) < 1e-8

    def test_growth_outside_basin(self):
        t, z = ode_toy_simulate(-1.0, 1.0, 1.0, 2.0, horizon=3.0)
        assert np.all(np.diff(np.abs(z)) > 0.0)

    def test_decay_inside_basin(self):
        t, z = ode_toy_simulate(-1.0, 1.0, 1.0, 0.4, horizon=5.0)
        assert abs(z[-1]) == pytest.approx(0.4 * math.exp(-5.0), rel=1e-6)

    def test_free_law(self):
        t, z = ode_toy_simulate(-0.5, 1.0, 1.0, 0.1, horizon=1.0, law="free")
        assert z[-1] == pytest.approx(0.1 * math.exp(0.5), rel=1e-8)

    def test_growth_dichotomy_mechanism(self, rng):
        # under the worst opposing control magnitude the sign of
        # d(z^2)/dt at time zero is the sign of |z0| - bound/(-r)
        for _ in range(100):
            r = -float(rng.uniform(0.1, 3.0))
            bound = float(rng.uniform(0.1, 3.0))
            z0 = float(rng.uniform(-4.0, 4.0))
            if z0 == 0.0:
                continue
            worst = 2.0 * abs(z0) * (-r * abs(z0) - bound)
            assert (worst > 0) == (abs(z0) > bound / (-r))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            ode_toy_simulate(1.0, 1.0, 1.0, 1.0, horizon=0.0)
        with pytest.raises(ValueError):
            ode_toy_simulate(1.0, 1.0, 1.0, 1.0, horizon=1.0, law="bang")

    @pytest.mark.parametrize("r, mu, z0, horizon", [(math.nan, 1.0, 2.0, 1.0), (-1.0, math.nan, 2.0, 1.0),
                                                    (-1.0, 1.0, math.nan, 1.0), (-1.0, 1.0, math.inf, 1.0),
                                                    (-1.0, 1.0, 2.0, math.nan), (-1.0, 1.0, 2.0, math.inf)])
    def test_rejects_non_finite_inputs(self, r, mu, z0, horizon):
        # a NaN rate or start gave a NaN trajectory, reported as a result
        with pytest.raises(ValueError, match="finite"):
            ode_toy_simulate(r, 1.0, mu, z0, horizon=horizon)

    def test_overflow_raises_with_the_time_of_the_first_non_finite_value(self):
        # finite inputs whose first RK4 step overflows used to give an inf trajectory
        with pytest.raises(BlowUpError) as info:
            ode_toy_simulate(-1e200, math.inf, 1.0, 1e200, horizon=0.001, law="free")
        assert info.value.time == TOY_DT
        # z = z0 e^t; the RK4 increment's sum k1 + 2 k2 + 2 k3 + k4 ~ 6 z overflows first,
        # at t = log(max / (6 z0))
        with pytest.raises(BlowUpError) as info:
            ode_toy_simulate(-1.0, math.inf, 1.0, 2e307, horizon=1.0, law="free")
        assert info.value.time == pytest.approx(math.log(sys.float_info.max / 1.2e308), abs=2 * TOY_DT)

    @pytest.mark.parametrize("bound", [-1.0, math.nan])
    def test_rejects_a_negative_or_nan_bound(self, bound):
        # a clamp to [-bound, bound] with bound < 0 pins u at -bound instead of failing
        with pytest.raises(ValueError, match="bound must be >= 0"):
            ode_toy_simulate(-1.0, bound, 1.0, 2.0, horizon=1.0)
