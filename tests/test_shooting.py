import math

import numpy as np
import pytest

from naqlab import shooting
from naqlab.charge import ChargeModel, exact_fields
from naqlab.numerics import RkSolution, centered_derivative
from naqlab.shooting import (
    ClassifierAmbiguityError,
    CouplingParams,
    DecayFitError,
    decay_rate,
    derive_fields,
    find_regular_eta0,
    integrate_profile,
    ode_rhs,
    quantum_potential_slope,
    series_start,
)


class TestPotentialSlope:
    def test_frozen_value(self, params_m01):
        # regression pin for the right-hand side at a generic point
        assert ode_rhs(2.0, 0.7, -0.3, params_m01) == pytest.approx(
            0.2108023125752786, rel=1e-15
        )

    def test_stationary_points(self, params_m01):
        assert quantum_potential_slope(0.0, params_m01) == 0.0
        eta_v = params_m01.eta_vacuum
        assert abs(quantum_potential_slope(eta_v, params_m01)) < 1e-16
        assert abs(quantum_potential_slope(-eta_v, params_m01)) < 1e-16

    def test_odd_symmetry(self, params_m01):
        assert quantum_potential_slope(0.4, params_m01) == pytest.approx(
            -quantum_potential_slope(-0.4, params_m01), rel=1e-15
        )

    def test_huge_argument_keeps_sign(self, params_m01):
        assert quantum_potential_slope(2000.0, params_m01) == math.inf
        assert quantum_potential_slope(-2000.0, params_m01) == -math.inf

    def test_vacuum_location(self):
        p = CouplingParams(lambda_tilde=1.0, m=0.1)
        # arccosh(1 + 2 m^2): sinh^2(eta_v/2) = m^2
        assert math.sinh(p.eta_vacuum / 2.0) ** 2 == pytest.approx(
            p.m_squared, rel=1e-14
        )

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            CouplingParams(lambda_tilde=0.0, m=0.1)
        with pytest.raises(ValueError):
            CouplingParams(lambda_tilde=1.0, m=-0.1)
        with pytest.raises(ValueError):
            CouplingParams(lambda_tilde=math.nan, m=0.1)
        with pytest.raises(ValueError):
            CouplingParams(lambda_tilde=1.0, m=math.nan)

    def test_radius_must_be_positive(self, params_m01):
        with pytest.raises(ValueError):
            ode_rhs(0.0, 0.5, 0.0, params_m01)


class TestSeriesStart:
    def test_frozen_coefficient(self, params_m01):
        # a = -slope(eta0)/6 at eta0 = 0.9
        a = -quantum_potential_slope(0.9, params_m01) / 6.0
        assert a == pytest.approx(-0.03533667365212509, rel=1e-15)
        r0, (eta, deta) = series_start(0.9, params_m01, eps=1e-3)
        assert r0 == 1e-3
        assert eta == pytest.approx(0.9 + a * 1e-6, rel=1e-15)
        assert deta == pytest.approx(2 * a * 1e-3, rel=1e-15)

    def test_friction_balance(self, params_m01):
        # the quadratic start makes eta'' + (2/r) eta' + slope = O(eps^2)
        eps = 1e-4
        r0, (eta, deta) = series_start(1.1, params_m01, eps)
        residual = (
            ode_rhs(r0, eta, deta, params_m01)
            - 2.0 * (-quantum_potential_slope(1.1, params_m01) / 6.0)
        )
        assert abs(residual) < 1e-6

    def test_vacuum_start_is_static(self, params_m01):
        assert series_start(0.0, params_m01, 1e-5)[1] == (0.0, 0.0)

    def test_rejects_nonpositive_eps(self, params_m01):
        with pytest.raises(ValueError):
            series_start(0.9, params_m01, eps=0.0)


class TestIntegrateProfile:
    def test_overshoot_above_critical(self, params_m01):
        traj = integrate_profile(1.4, params_m01)
        assert traj.stop == "overshoot"
        assert traj.y[-1] < 0

    def test_undershoot_below_critical(self, params_m01):
        traj = integrate_profile(0.5, params_m01)
        assert traj.stop == "undershoot"
        assert traj.y[-1] > 0
        assert traj.dy[-1] > 0

    def test_vacuum_start_stays_at_rest(self, params_m01):
        traj = integrate_profile(0.0, params_m01, r_max=5.0)
        assert traj.stop == "reached_rmax"
        assert np.abs(traj.y).max() == 0.0

    def test_monotone_decay_of_regular_solution(self, shot_m01_tight):
        traj = shot_m01_tight.trajectory
        inner = np.asarray(traj.r) < 40.0
        assert np.all(np.diff(np.asarray(traj.y)[inner]) < 0)
        assert np.all(np.asarray(traj.y)[inner] > 0)

    def test_rejects_rmax_below_start(self, params_m01):
        with pytest.raises(ValueError):
            integrate_profile(0.9, params_m01, r_max=1e-8)

    def test_matches_independent_dop853(self, params_m01):
        # second integrator as oracle, compared at the trajectory's own radii
        pytest.importorskip("scipy")
        from scipy.integrate import solve_ivp

        traj = integrate_profile(0.9083, params_m01)
        ref = solve_ivp(
            lambda r, y: (y[1], ode_rhs(r, y[0], y[1], params_m01)),
            (traj.r[0], traj.r[-1]),
            (traj.y[0], traj.dy[0]),
            method="DOP853",
            rtol=1e-12,
            atol=1e-14,
            dense_output=True,
        )
        assert ref.success
        eta, deta = ref.sol(traj.r)
        assert np.abs(eta - traj.y).max() < 1e-7
        assert np.abs(deta - traj.dy).max() < 1e-7


class TestFindRegularEta0:
    def test_reference_value(self, shot_m01_default):
        assert shot_m01_default.eta0 == pytest.approx(0.9083, abs=5e-4)

    def test_reference_work_and_bits(self, params_m01, monkeypatch):
        # Brent's method needs 10 trajectories at tol 1e-5 and 11 at 1e-12
        # (bisection needed 21 and 44); each costs 1 + 12 x (attempted DOP853
        # steps) RHS calls, at rtol 1e-6 and 1e-12 respectively, and the
        # answer's trajectory is one of them.  The floats are pinned bit for
        # bit so a change of arithmetic order shows up here.
        calls = {"integrate_profile": 0, "ode_rhs": 0}

        def counting(name):
            original = getattr(shooting, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(shooting, name, wrapper)

        counting("integrate_profile")
        counting("ode_rhs")
        res = find_regular_eta0(params_m01)
        assert calls == {"integrate_profile": 10, "ode_rhs": 2782}
        assert res.eta0 == 0.9083378754168658
        assert np.asarray(res.trajectory.r).size == 23
        assert res.trajectory.r[-1] == 80.0

        calls.update(integrate_profile=0, ode_rhs=0)
        res = find_regular_eta0(params_m01, tol=1e-12)
        assert calls == {"integrate_profile": 11, "ode_rhs": 12071}
        assert res.eta0 == 0.9083371697706555
        assert abs(res.eta0 - self.TIGHT_ROOTS[1.0, 0.1]) <= 1e-12
        assert np.asarray(res.trajectory.r).size == 108
        assert res.trajectory.r[-1] == 80.0

    # eta_0* on the grid {0.5, 1, 4} x {0.05, 0.1, 0.15, 0.17}, frozen from
    # Brent's method at tol 1e-13 on probes integrated at rtol 1e-13 by a
    # Dormand-Prince 5(4) integrator, so a second integrator checks the
    # DOP853 solves.  r_max = 80 is not rescaled with lambda_tilde, so at
    # m = 0.05 the roots differ with lambda_tilde by up to 4e-6.
    TIGHT_ROOTS = {
        (0.5, 0.05): 0.43829844259821465,
        (0.5, 0.1): 0.9083371697916386,
        (0.5, 0.15): 1.4810965307018344,
        (0.5, 0.17): 1.8021553718508783,
        (1.0, 0.05): 0.43829460189463565,
        (1.0, 0.1): 0.908337169770655,
        (1.0, 0.15): 1.4810965307018416,
        (1.0, 0.17): 1.802155371850881,
        (4.0, 0.05): 0.4382945833263269,
        (4.0, 0.1): 0.9083371697706558,
        (4.0, 0.15): 1.4810965307018422,
        (4.0, 0.17): 1.8021553718508663,
    }

    @pytest.mark.parametrize("lambda_tilde, m", sorted(TIGHT_ROOTS))
    def test_default_tol_holds_against_tight_root(self, lambda_tilde, m):
        # the integration each tol passes down still leaves the answer within
        # tol of the ODE's root (at most 0.247, 0.152 and 0.175 tol measured)
        p = CouplingParams(lambda_tilde=lambda_tilde, m=m)
        for tol in (1e-5, 1e-8, 1e-12):
            res = find_regular_eta0(p, tol=tol)
            assert abs(res.eta0 - self.TIGHT_ROOTS[lambda_tilde, m]) <= tol, tol

    def test_refines_with_tolerance(self, shot_m01_default, shot_m01_tight):
        assert abs(shot_m01_default.eta0 - shot_m01_tight.eta0) < 2e-5

    def test_bracket_labels_disagree(self, params_m01):
        lo, hi = shooting.DEFAULT_BRACKET
        assert integrate_profile(lo, params_m01).stop == "undershoot"
        assert integrate_profile(hi, params_m01).stop == "overshoot"

    def test_classifier_monotone_across_bracket(self, params_m01):
        # every scan point below eta0* undershoots, every one above overshoots
        labels = []
        for eta0 in np.linspace(0.3, 1.9, 9):
            traj = integrate_profile(float(eta0), params_m01)
            labels.append(traj.stop)
        flips = sum(
            1 for a, b in zip(labels, labels[1:]) if a != b
        )
        assert flips == 1

    def test_second_parameter_point_regression(self):
        # independent coupling point with its own pinned critical value
        p = CouplingParams(lambda_tilde=1.0, m=0.15)
        res = find_regular_eta0(p, bracket=(1.0, 2.5), tol=1e-10)
        assert res.eta0 == pytest.approx(1.4810965307, abs=1e-8)

    def test_epsilon_insensitivity(self, params_m01, shot_m01_default, monkeypatch):
        monkeypatch.setattr(shooting, "DEFAULT_EPSILON", 1e-7)
        res = find_regular_eta0(params_m01)
        assert abs(res.eta0 - shot_m01_default.eta0) < 1e-6

    # eta_0* does not depend on lambda_tilde (r -> r sqrt(lambda_tilde)
    # removes it); the benchmark's scaling oracle allows this gap between a
    # solve and its lambda_tilde = 1 partner at either tolerance.  At tol
    # 1e-12 the gap is the horizon's doing: r_max = 80 is not rescaled.
    SCALING_TOL = 1e-5

    @pytest.mark.parametrize("tol", (1e-5, 1e-12))
    @pytest.mark.parametrize("lambda_tilde, m", ((0.5, 0.06), (1.28775, 0.105158), (4.0, 0.14)))
    def test_lambda_scaling(self, lambda_tilde, m, tol):
        scaled = find_regular_eta0(CouplingParams(lambda_tilde=lambda_tilde, m=m), tol=tol)
        partner = find_regular_eta0(CouplingParams(lambda_tilde=1.0, m=m), tol=tol)
        assert abs(scaled.eta0 - partner.eta0) <= self.SCALING_TOL

    def test_answer_is_a_probed_end(self, params_m01, monkeypatch):
        # the answer and the nearest probe with the other label bracket
        # eta_0* within tol; it is returned with its own trajectory and has
        # the smaller |residual|, whose sign follows the label
        probes = []
        original = shooting._probe

        def recording(*args):
            probes.append(original(*args))
            return probes[-1]

        monkeypatch.setattr(shooting, "_probe", recording)
        res = find_regular_eta0(params_m01, tol=1e-8)
        best = next(p for p in probes if p.eta0 == res.eta0)
        assert best.trajectory is res.trajectory
        other = min((p for p in probes if p.label != best.label), key=lambda p: abs(p.eta0 - best.eta0))
        assert abs(other.eta0 - best.eta0) <= 1e-8
        assert abs(best.residual) <= abs(other.residual)
        for p in probes:
            assert (p.residual > 0) == (p.label == "overshoot")

    def test_invalid_bracket_both_undershoot(self, params_m01):
        from naqlab.numerics import InvalidBracketError

        with pytest.raises(InvalidBracketError):
            find_regular_eta0(params_m01, bracket=(0.2, 0.5))

    @pytest.mark.parametrize("lo", (0.0, -1.0))
    def test_bracket_start_not_above_zero_refused_before_integrating(self, params_m01, monkeypatch, lo):
        calls = []
        monkeypatch.setattr(shooting, "integrate_profile", lambda *args: calls.append(args))
        with pytest.raises(ValueError, match="bracket needs LO > 0") as info:
            find_regular_eta0(params_m01, bracket=(lo, 2.0))
        assert type(info.value) is ValueError
        assert calls == []

    def test_ambiguity_when_horizon_too_short(self):
        # with a tiny horizon nothing can be classified
        p = CouplingParams(lambda_tilde=1.0, m=0.1)
        with pytest.raises(ClassifierAmbiguityError):
            find_regular_eta0(p, r_max=0.5)


class TestDecayRate:
    def test_synthetic_yukawa_tail(self):
        r = np.linspace(20.0, 60.0, 400)
        eta = 3.0 * np.exp(-0.1 * r) / r
        traj = RkSolution(r=r, y=eta, dy=np.gradient(eta, r), stop="reached_rmax")
        assert decay_rate(traj, (25.0, 55.0)) == pytest.approx(0.1, abs=1e-6)

    def test_regular_solution_decay_matches_mass(self, shot_m01_tight, params_m01):
        mu = decay_rate(shot_m01_tight.trajectory, (20.0, 50.0))
        expected = params_m01.m * math.sqrt(params_m01.lambda_tilde)
        assert mu == pytest.approx(expected, abs=5e-3)
        assert 0.095 <= mu <= 0.105

    def test_rejects_non_exponential_window(self):
        r = np.linspace(1.0, 10.0, 100)
        eta = np.full_like(r, 0.5)  # constant field: ln(r eta) is not linear
        traj = RkSolution(r=r, y=eta, dy=np.zeros_like(r), stop="reached_rmax")
        with pytest.raises(DecayFitError):
            decay_rate(traj, (2.0, 9.0))

    def test_rejects_window_beyond_trajectory(self):
        r = np.linspace(1.0, 5.0, 50)
        traj = RkSolution(r=r, y=np.exp(-r) / r, dy=np.zeros_like(r), stop="reached_rmax")
        with pytest.raises(ValueError):
            decay_rate(traj, (2.0, 50.0))


def dop853_dense(traj, p, r_end):
    """scipy's DOP853 at rtol 1e-13 from the trajectory's first sample."""
    pytest.importorskip("scipy")
    from scipy.integrate import solve_ivp

    ref = solve_ivp(
        lambda r, y: (y[1], ode_rhs(r, y[0], y[1], p)),
        (traj.r[0], r_end),
        (traj.y[0], traj.dy[0]),
        method="DOP853",
        rtol=1e-13,
        atol=1e-15,
        dense_output=True,
    )
    assert ref.success
    return ref.sol


class TestDeriveFields:
    def test_zero_trajectory_gives_zero_fields(self, params_m01):
        zeros = np.zeros(11)
        for field in derive_fields(zeros, zeros, params_m01):
            assert np.abs(field).max() == 0.0

    def test_field_signs_on_regular_solution(self, shot_m01_tight, params_m01):
        traj = shot_m01_tight.trajectory
        inner = (np.asarray(traj.r) > 1e-3) & (np.asarray(traj.r) < 30.0)
        phi, e_field, _ = derive_fields(traj.y, traj.dy, params_m01)
        # decaying positive eta: positive potential, outward-pointing field
        assert np.all(phi[inner] > 0)
        assert np.all(e_field[inner] > 0)

    def test_potential_consistent_with_eta(self, shot_m01_tight, params_m01):
        traj = shot_m01_tight.trajectory
        phi, _, _ = derive_fields(traj.y, traj.dy, params_m01)
        assert np.allclose(phi, np.sinh(np.asarray(traj.y) / 2.0), atol=1e-15)

    def test_density_matches_dop853_gauss_source(self, shot_m01_tight, params_m01):
        # the oracle is the Gauss-law source 4 (2E/r + E') with E' written
        # out from eta'' = ode_rhs, on scipy's DOP853 solution at the
        # regular trajectory's own radii
        traj = shot_m01_tight.trajectory
        eta, deta = dop853_dense(traj, params_m01, traj.r[-1])(traj.r)
        ddeta = np.array([ode_rhs(*args, params_m01) for args in zip(traj.r, eta, deta)])
        cosh, sinh = np.cosh(eta / 2.0), np.sinh(eta / 2.0)
        e_field = -deta / (2.0 * cosh)
        de_field = -ddeta / (2.0 * cosh) + deta**2 * sinh / (4.0 * cosh**2)
        source = 4.0 * (2.0 * e_field / traj.r + de_field)
        _, _, rho = derive_fields(traj.y, traj.dy, params_m01)
        assert np.abs(rho - source).max() < 1e-8 * np.abs(source).max()

    def test_gauss_law_converges_second_order(self, shot_m01_tight, params_m01):
        # centered-difference div E on DOP853 dense output approaches the
        # pointwise density at O(h^2)
        sol = dop853_dense(shot_m01_tight.trajectory, params_m01, 30.0)
        errors = []
        for n in (1000, 2000, 4000):
            r = np.linspace(0.5, 30.0, n)
            eta, deta = sol(r)
            _, e_field, rho = derive_fields(eta, deta, params_m01)
            div = 4.0 * centered_derivative(r, r**2 * e_field) / r**2
            errors.append(np.abs(div - rho).max() / np.abs(rho).max())
        assert 3.5 < errors[0] / errors[1] < 4.5
        assert 3.5 < errors[1] / errors[2] < 4.5

    def test_point_charge_reproduces_exact_fields(self, params_m01):
        # eta = 2 alpha/r on the unit model (alpha = 1) is the closed-form
        # point charge; phi and E_r do not depend on the couplings
        r = np.geomspace(1e-2, 1e2, 200)
        exact = exact_fields(r, ChargeModel(q=1.0))
        phi, e_field, _ = derive_fields(2.0 / r, -2.0 / r**2, params_m01)
        assert np.array_equal(phi, exact["phi"])
        assert np.allclose(e_field, exact["E_r"], rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("q, G, c", [(1.0, 1.0, 1.0), (2.0, 0.5, 1.5), (-0.3, 1.0, 1.0)])
    def test_point_charge_is_the_small_coupling_limit(self, q, G, c):
        # eta = 2 alpha/r solves eta'' + (2/r) eta' = 0, the profile equation
        # at lambda_tilde -> 0; with alpha/r <= 30 the lambda_tilde phi^2 term
        # stays below 1e-270 of E^2.  Scaled to (G, c) units the derived
        # fields are the closed-form point charge at rounding (measured worst
        # gap 4.1 eps).
        model = ChargeModel(q=q, G=G, c=c)
        alpha = model.alpha
        r = np.geomspace(abs(alpha) / 30.0, 100.0 * abs(alpha), 400)
        phi, e_field, rho = derive_fields(2.0 * alpha / r, -2.0 * alpha / r**2, CouplingParams(1e-300, 1e-300))
        scale = c**2 / math.sqrt(G)
        exact = exact_fields(r, model)
        for name, derived in (("phi", scale * phi), ("E_r", scale * e_field), ("rho", scale / (16.0 * math.pi) * rho)):
            gap = np.max(np.abs(derived - exact[name]) / np.abs(exact[name]))
            assert gap <= 8 * np.finfo(float).eps, name

    @pytest.mark.parametrize("n", (0, 1))
    def test_short_inputs_map_pointwise(self, params_m01, n):
        eta, deta = np.full(n, 0.3), np.full(n, -0.1)
        fields = derive_fields(eta, deta, params_m01)
        assert [f.shape for f in fields] == [(n,)] * 3
