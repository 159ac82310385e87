import math

import numpy as np
import pytest
import spectral_oracle
from lab_oracles import DecayFitError, decay_rate

from naqlab import cli, shooting
from naqlab.charge import ChargeModel, exact_fields
from naqlab.numerics import InvalidBracketError, RkSolution, centered_derivative
from naqlab.shooting import (
    ClassifierAmbiguityError,
    CouplingParams,
    derive_fields,
    find_regular_eta0,
    integrate_profile,
    ode_rhs,
)


def record_probes(monkeypatch):
    """The list that every later shooting._probe call appends its Probe to."""
    probes = []
    original = shooting._probe

    def recording(*args):
        probes.append(original(*args))
        return probes[-1]

    monkeypatch.setattr(shooting, "_probe", recording)
    return probes


class TestPotentialSlope:
    def test_frozen_value(self, params_m01):
        # regression pin for the right-hand side at a generic point: w_xx at
        # x = 2, eta = 0.7 is -2 S(0.7), and the pin 0.2108023125752786 of
        # the eta form, 0.3 - S(0.7) at r = 2, eta' = -0.3, fixes S(0.7)
        assert ode_rhs(2.0, 1.4, params_m01.m_squared) == pytest.approx(
            -2.0 * (0.3 - 0.2108023125752786), rel=1e-14
        )

    def test_stationary_points(self, params_m01):
        m2 = params_m01.m_squared
        assert ode_rhs(1.0, 0.0, m2) == 0.0
        eta_v = params_m01.eta_vacuum
        assert abs(ode_rhs(1.0, eta_v, m2)) < 1e-16
        assert abs(ode_rhs(1.0, -eta_v, m2)) < 1e-16

    def test_zero_at_the_origin(self, params_m01):
        # w_xx = -x S(w/x) vanishes at x = 0 for every w, without dividing
        for w in (0.0, 0.9, -3.0, 1e300):
            assert ode_rhs(0.0, w, params_m01.m_squared) == 0.0

    def test_odd_symmetry(self, params_m01):
        m2 = params_m01.m_squared
        assert ode_rhs(1.0, 0.4, m2) == pytest.approx(-ode_rhs(1.0, -0.4, m2), rel=1e-15)

    def test_huge_argument_keeps_sign(self, params_m01):
        # eta = w/x beyond the float64 range of sinh: w_xx = -x S(eta) keeps its sign
        m2 = params_m01.m_squared
        assert ode_rhs(1.0, 2000.0, m2) == -math.inf
        assert ode_rhs(1.0, -2000.0, m2) == math.inf
        assert ode_rhs(1e-3, 1.0, m2) == -math.inf

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


class TestIntegrateProfile:
    def test_overshoot_above_critical(self, params_m01):
        traj = integrate_profile(1.4, params_m01, 80.0)
        assert traj.stop == "overshoot"
        assert traj.y[-1] < 0

    def test_undershoot_below_critical(self, params_m01):
        traj = integrate_profile(0.5, params_m01, 80.0)
        assert traj.stop == "undershoot"
        assert traj.y[-1] > 0
        assert traj.dy[-1] > 0

    def test_vacuum_start_stays_at_rest(self, params_m01):
        traj = integrate_profile(0.0, params_m01, r_max=5.0)
        assert traj.stop == "reached_rmax"
        assert np.abs(traj.y).max() == 0.0

    @pytest.mark.parametrize("rtol", (1e-6, 1e-9, 1e-12))
    @pytest.mark.parametrize("m", (0.001, 0.01, 0.1, 0.185))
    def test_start_on_the_true_vacuum_reaches_the_horizon(self, m, rtol):
        # the trajectory from eta_vacuum is static: x w_x - w stays within
        # 1.2e-10 w of zero (measured), and rounding flips its sign, which
        # the turn test, needing more than 1e-9 w, does not read as an
        # undershoot
        p = CouplingParams(lambda_tilde=1.0, m=m)
        traj = integrate_profile(p.eta_vacuum, p, 8.0 / m, rtol)
        assert (traj.stop, traj.r[-1]) == ("reached_rmax", 8.0 / m)
        assert np.abs(np.asarray(traj.y) / p.eta_vacuum - 1.0).max() <= 1e-9

    def test_monotone_decay_of_regular_solution(self, shot_m01_tight):
        traj = shot_m01_tight.trajectory
        inner = np.asarray(traj.r) < 40.0
        assert np.all(np.diff(np.asarray(traj.y)[inner]) < 0)
        assert np.all(np.asarray(traj.y)[inner] > 0)

    @pytest.mark.parametrize("rtol", (1e-10, 1e-6))
    @pytest.mark.parametrize("eta0, r_max, stop", ((0.5, 80.0, "undershoot"), (1.4, 80.0, "overshoot"),
                                                   (0.9083, 40.0, "reached_rmax")))
    def test_ddy_is_the_equation_at_every_sample(self, params_m01, eta_form_rhs, eta0, r_max, stop, rtol):
        # eta'' converted from the w_xx the integrator recorded at each
        # sample, whether an event or the horizon ends the run, satisfies the
        # eta form at the recorded (r, eta, eta'); at r = 0 it is the limit
        # -lambda_tilde S(eta0) / 3 of that form's right-hand side
        traj = integrate_profile(eta0, params_m01, r_max, rtol)
        assert traj.stop == stop
        assert (traj.r[0], traj.y[0], traj.dy[0]) == (0.0, eta0, 0.0)
        assert traj.ddy[0] == pytest.approx(eta_form_rhs(1.0, eta0, 0.0, params_m01) / 3.0, rel=1e-15)
        expected = np.array([eta_form_rhs(*sample, params_m01) for sample in zip(traj.r[1:], traj.y[1:], traj.dy[1:])])
        assert np.abs(np.asarray(traj.ddy[1:]) - expected).max() <= 1e-15

    @pytest.mark.parametrize("lambda_tilde, r_max", ((1.0, 0.0), (1.0, -1.0), (1e300, 1e200), (1e-300, 1e-200)),
                             ids=("zero", "negative", "overflows", "underflows"))
    def test_rejects_rmax_out_of_range(self, lambda_tilde, r_max):
        # x_end = sqrt(lambda_tilde) r_max has to be a finite positive float
        with pytest.raises(ValueError) as info:
            integrate_profile(0.9, CouplingParams(lambda_tilde=lambda_tilde, m=0.1), r_max)
        assert str(info.value) == "r_max = %r: sqrt(lambda_tilde) r_max is no finite positive float" % r_max

    def test_matches_independent_dop853(self, params_m01, eta_form_dop853):
        # the eta form from a series start, as oracle, compared at the
        # trajectory's own radii
        traj = integrate_profile(0.9083, params_m01, 80.0)
        eta, deta = eta_form_dop853(0.9083, params_m01, traj.r[-1])(traj.r[1:])
        assert np.abs(eta - traj.y[1:]).max() < 1e-7
        assert np.abs(deta - traj.dy[1:]).max() < 1e-7


class TestFindRegularEta0:
    def test_reference_value(self, shot_m01_default):
        assert shot_m01_default.eta0 == pytest.approx(0.9083, abs=5e-4)

    def test_reference_work_and_bits(self, params_m01, monkeypatch):
        # The predicted root q lies 6.8e-11 below eta_0*.  At tol 1e-5 the
        # ends of [q - 1e-6, q + 1e-6] classify differently and the lower one,
        # with the smaller |residual|, is the answer: 2 trajectories
        # (bisection on the physical bracket needed 21).  At tol 1e-12 the
        # solve probes q, takes one Newton step on the predicted slope to x,
        # about 1e-16 from the sign change of the rtol-1e-12 residual, and
        # the ends of [x - 1e-13, x + 1e-13] classify differently: 3
        # trajectories (bisection needed 44).  Each costs 1 + 12 x (attempted
        # DOP853 steps) RHS calls, and the answer's trajectory is one of them.
        # The floats are pinned bit for bit so a change of arithmetic order
        # shows up here.
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
        assert calls == {"integrate_profile": 2, "ode_rhs": 410}
        assert res.eta0 == 0.9083361697025321
        assert np.asarray(res.trajectory.r).size == 17
        assert res.trajectory.r[-1] == 80.0

        calls.update(integrate_profile=0, ode_rhs=0)
        res = find_regular_eta0(params_m01, tol=1e-12)
        assert calls == {"integrate_profile": 3, "ode_rhs": 3027}
        assert res.eta0 == 0.9083371697706657
        assert abs(res.eta0 - self.TIGHT_ROOTS[0.1]) <= 1e-12
        assert np.asarray(res.trajectory.r).size == 79
        assert res.trajectory.r[-1] == 80.0

    # eta_0* for each m, which does not depend on lambda_tilde: frozen from
    # Brent's method at tol 1e-13 on probes integrated at rtol 1e-13 by a
    # Dormand-Prince 5(4) integrator, so a second integrator checks the
    # DOP853 solves; each is a solve whose horizon reached 8/(m sqrt(lambda_tilde))
    # (m = 0.05 at lambda_tilde = 4, the others at lambda_tilde = 1).
    TIGHT_ROOTS = {
        0.05: 0.4382945833263269,
        0.1: 0.908337169770655,
        0.15: 1.4810965307018416,
        0.17: 1.802155371850881,
    }

    @pytest.mark.parametrize("m", sorted(TIGHT_ROOTS))
    @pytest.mark.parametrize("lambda_tilde", (0.5, 1.0, 4.0))
    def test_default_tol_holds_against_tight_root(self, lambda_tilde, m):
        # the integration each tol passes down still leaves the answer within
        # a quarter of tol of the lambda_tilde-independent root (at most
        # 0.100, 0.110 and 0.101 tol measured: an answer at an end of the
        # predicted pair [x - d, x + d], d = 0.1 tol, lies about d off)
        p = CouplingParams(lambda_tilde=lambda_tilde, m=m)
        for tol in (1e-5, 1e-8, 1e-12):
            res = find_regular_eta0(p, tol=tol)
            assert abs(res.eta0 - self.TIGHT_ROOTS[m]) <= 0.25 * tol, tol

    def test_refines_with_tolerance(self, shot_m01_default, shot_m01_tight):
        assert abs(shot_m01_default.eta0 - shot_m01_tight.eta0) < 2e-5

    @staticmethod
    def bracket(m):
        """[0.999 TWO_Q0 m, min(ETA_FOLD, ETA_FOLD m / M_FOLD)]: eta_0*/m rises from 2 Q(0) at m -> 0 to ETA_FOLD / M_FOLD at the fold."""
        return 0.999 * shooting.TWO_Q0 * m, min(shooting.ETA_FOLD, shooting.ETA_FOLD / shooting.M_FOLD * m)

    def test_bracket_labels_disagree(self, params_m01, monkeypatch):
        # a solve probes the two ends of the predicted bracket first, and
        # at m = 0.1 they classify differently, as the physical bracket's do
        probes = record_probes(monkeypatch)
        find_regular_eta0(params_m01)
        q = shooting._predicted_root(0.1)
        d = 0.1 * 1e-5
        assert [(p.eta0, p.label) for p in probes] == [(q - d, "undershoot"), (q + d, "overshoot")]
        lo, hi = self.bracket(0.1)
        assert integrate_profile(lo, params_m01, 80.0).stop == "undershoot"
        assert integrate_profile(hi, params_m01, 80.0).stop == "overshoot"

    def test_classifier_monotone_across_bracket(self, params_m01):
        # every scan point below eta0* undershoots, every one above overshoots
        labels = []
        for eta0 in np.linspace(*self.bracket(0.1), 9):
            traj = integrate_profile(float(eta0), params_m01, 80.0)
            labels.append(traj.stop)
        flips = sum(
            1 for a, b in zip(labels, labels[1:]) if a != b
        )
        assert flips == 1

    def test_second_parameter_point_regression(self):
        # independent coupling point with its own pinned critical value
        p = CouplingParams(lambda_tilde=1.0, m=0.15)
        res = find_regular_eta0(p, tol=1e-10)
        assert res.eta0 == pytest.approx(1.4810965307, abs=1e-8)

    # eta_0* does not depend on lambda_tilde: x = sqrt(lambda_tilde) r
    # removes it, and every probe runs at lambda_tilde = 1 to x = 8/m.  So a
    # solve is its lambda_tilde = 1 partner float for float, with only the
    # answer's trajectory rescaled to r; checked on three couplings and on
    # the 12-point grid above
    @pytest.mark.parametrize("tol", (1e-5, 1e-8, 1e-12))
    @pytest.mark.parametrize("lambda_tilde, m", ((0.5, 0.06), (1.28775, 0.105158), (4.0, 0.14))
                             + tuple((lt, m) for m in sorted(TIGHT_ROOTS) for lt in (0.5, 4.0)))
    def test_lambda_scaling(self, lambda_tilde, m, tol):
        scaled = find_regular_eta0(CouplingParams(lambda_tilde=lambda_tilde, m=m), tol=tol)
        partner = find_regular_eta0(CouplingParams(lambda_tilde=1.0, m=m), tol=tol)
        assert scaled.eta0 == partner.eta0
        assert (scaled.label, scaled.residual) == (partner.label, partner.residual)
        assert scaled.trajectory.y == partner.trajectory.y
        r_final = partner.trajectory.r[-1] / math.sqrt(lambda_tilde)
        assert abs(scaled.trajectory.r[-1] - r_final) <= math.ulp(r_final)

    @pytest.mark.parametrize("tol, rtol", ((1e-8, 1e-9), (1e-12, 1e-12)))
    @pytest.mark.parametrize("m", sorted(TIGHT_ROOTS))
    def test_answer_is_integrated_at_the_solve_rtol(self, m, tol, rtol):
        # every probe, and so the answer's trajectory, is integrated at the
        # solve's own rtol, sample for sample
        res = find_regular_eta0(CouplingParams(lambda_tilde=1.0, m=m), tol=tol)
        traj = integrate_profile(res.eta0, CouplingParams(1.0, m), 8.0 / m, rtol)
        assert (res.trajectory.r, res.trajectory.y, res.trajectory.dy, res.trajectory.ddy) == (
            traj.r, traj.y, traj.dy, traj.ddy)
        assert res.trajectory.stop == traj.stop

    # from small m to the lower root near the fold m_c = 0.18598
    LABEL_SAFETY_CASES = (0.025, 0.05, 0.1, 0.15, 0.17, 0.185)

    def test_coarse_labels_agree_with_tight_labels(self):
        # A default solve labels its probes at rtol 1e-6.  Starts on a
        # half-decade ladder 1e-7 to 1e-1 either side of each root and 8
        # seeded uniform ones in the solve's bracket: every label with an
        # rtol-1e-6 |residual| of at least 1e-6 is the rtol-1e-12 one.  The
        # two residuals differ by a near-constant offset, largest at the fold;
        # within 1e-3 of a root the worst is 6.07e-8 (m = 0.185).
        worst = 0.0
        for m in self.LABEL_SAFETY_CASES:
            p, bracket = CouplingParams(lambda_tilde=1.0, m=m), self.bracket(m)
            root = find_regular_eta0(p, tol=1e-12).eta0
            rng = np.random.default_rng(7)
            ladder = [root + side * 10.0 ** (k / 2) for k in range(-14, -1) for side in (-1.0, 1.0)]
            for eta0 in ladder + [float(u) for u in rng.uniform(*bracket, 8)]:
                if not bracket[0] <= eta0 <= bracket[1]:
                    continue
                coarse, tight = shooting._probe(eta0, p, 1e-6), shooting._probe(eta0, p, 1e-12)
                if abs(coarse.residual) >= 1e-6:
                    assert coarse.label == tight.label, (m, eta0)
                if abs(eta0 - root) <= 1e-3:
                    worst = max(worst, abs(coarse.residual - tight.residual))
        assert worst <= 1e-7

    def test_answer_is_a_probed_end(self, params_m01, monkeypatch):
        # the answer and the nearest probe with the other label bracket
        # eta_0* within tol; it is returned with its own trajectory and has
        # the smaller |residual|, whose sign follows the label
        probes = record_probes(monkeypatch)
        res = find_regular_eta0(params_m01, tol=1e-8)
        best = next(p for p in probes if p.eta0 == res.eta0)
        assert best.trajectory is res.trajectory
        other = min((p for p in probes if p.label != best.label), key=lambda p: abs(p.eta0 - best.eta0))
        assert abs(other.eta0 - best.eta0) <= 1e-8
        assert abs(best.residual) <= abs(other.residual)
        for p in probes:
            assert (p.residual > 0) == (p.label == "overshoot")

    def test_invalid_bracket_both_undershoot(self, monkeypatch):
        # above the fold both ends of the bracket undershoot: no regular solution
        probes = record_probes(monkeypatch)
        for m in (shooting.M_FOLD + 1e-6, 0.19, 0.277):
            del probes[:]
            with pytest.raises(InvalidBracketError) as info:
                find_regular_eta0(CouplingParams(lambda_tilde=2.0, m=m))
            assert str(info.value) == "no regular solution: m = %g is at or above the fold m_c = 0.185981376879" % m
            assert [(p.eta0, p.label) for p in probes] == [(self.bracket(m)[0], "undershoot"), (shooting.ETA_FOLD, "undershoot")]

    def test_both_ends_overshooting_is_a_wrong_bound(self, monkeypatch):
        # a low end above the root overshoots like the high end: a wrong
        # bound, not a coupling without a regular solution.  With a
        # prediction between the wrong low end and the high end, both ends of
        # the predicted bracket overshoot, and the fallback [lo, q - d] finds
        # lo overshooting too, integrating each start once
        monkeypatch.setattr(shooting, "TWO_Q0", 11.0)
        monkeypatch.setattr(shooting, "_predicted_root", lambda m: 1.2)
        probes = record_probes(monkeypatch)
        with pytest.raises(shooting.BracketBoundError) as info:
            find_regular_eta0(CouplingParams(lambda_tilde=2.0, m=0.1))
        lo, hi = self.bracket(0.1)
        assert lo < 1.2 < hi
        assert str(info.value) == "wrong bracket bound at m = 0.1: both ends of [%r, %r] classify as 'overshoot'" % (lo, hi)
        d = 0.1 * 1e-5
        assert [(p.eta0, p.label) for p in probes] == [(1.2 - d, "overshoot"), (1.2 + d, "overshoot"), (lo, "overshoot")]

    def test_prediction_outside_a_wrong_bracket_is_not_probed(self, monkeypatch):
        # with the low end above the predicted root by more than d, the
        # predicted bracket is empty: the solve probes the two bounds and
        # refuses them as before
        monkeypatch.setattr(shooting, "TWO_Q0", 11.0)
        probes = record_probes(monkeypatch)
        with pytest.raises(shooting.BracketBoundError):
            find_regular_eta0(CouplingParams(lambda_tilde=2.0, m=0.1))
        lo, hi = self.bracket(0.1)
        assert shooting._predicted_root(0.1) + 0.1 * 1e-5 < lo
        assert [(p.eta0, p.label) for p in probes] == [(lo, "overshoot"), (hi, "overshoot")]

    @pytest.mark.parametrize("tol", (1e-5, 1e-8, 1e-12))
    def test_fallback_integrates_no_start_twice(self, monkeypatch, tol):
        # at m_c - 1e-6 the residual's slope nearly vanishes (5.5e-4) and both
        # ends of the pair around the prediction classify alike: the solve goes
        # on in the part of the physical bracket that the labels known so far
        # leave, and integrates every start once.  At tol 1e-12 the pair is
        # centred one Newton step from q, at x = q + 3.1e-10, and q, x - d and
        # x + d all undershoot
        probes = record_probes(monkeypatch)
        m = shooting.M_FOLD - 1e-6
        res = find_regular_eta0(CouplingParams(lambda_tilde=1.0, m=m), tol=tol)
        x, d = shooting._predicted_root(m), max(0.1 * tol, 2e-10)
        pair = probes
        if tol < 4e-10:
            assert probes[0].eta0 == x
            lo, hi = self.bracket(m)
            x, d = x - probes[0].residual / shooting._predicted_slope(m), 0.1 * tol
            assert lo < x < hi
            pair = probes[1:]
        assert [p.eta0 for p in pair[:2]] == [x - d, x + d]
        assert pair[0].label == pair[1].label
        assert len({p.eta0 for p in probes}) == len(probes) and len(pair) > 2
        assert res in probes

    @pytest.mark.parametrize("tol, centred", ((5e-10, False), (4e-10, False), (3e-10, True), (1e-12, True)))
    def test_newton_step_only_where_the_pair_is_wider_than_tol(self, params_m01, monkeypatch, tol, centred):
        # The pair q -+ d, d = max(0.1 tol, 2e-10), is wider than tol below tol
        # 4e-10: there the solve probes q, steps to x = q - residual(q) / s(m)
        # and probes x -+ 0.1 tol, whose labels differ at m = 0.1: 3
        # trajectories.  From tol 4e-10 on it probes the pair first, as it did
        # before the step existed; at 4e-10 the pair's float width exceeds tol
        # by rounding and Brent's method bisects it once, at 5e-10 it is done
        probes = record_probes(monkeypatch)
        res = find_regular_eta0(params_m01, tol=tol)
        q = shooting._predicted_root(0.1)
        if centred:
            x = q - probes[0].residual / shooting._predicted_slope(0.1)
            pair = [(x - 0.1 * tol, "undershoot"), (x + 0.1 * tol, "overshoot")]
            assert [(p.eta0, p.label) for p in probes] == [(q, "undershoot")] + pair
        else:
            assert [(p.eta0, p.label) for p in probes[:2]] == [(q - 2e-10, "undershoot"), (q + 2e-10, "overshoot")]
            assert len(probes) == (3 if tol == 4e-10 else 2)
        assert abs(res.eta0 - self.TIGHT_ROOTS[0.1]) <= tol

    def test_newton_centre_is_clamped_into_the_bracket(self, params_m01, monkeypatch):
        # with a slope 1e-30 the Newton step from q (an undershoot) leaves the
        # bracket: the pair is centred on hi, both of its ends overshoot, and
        # the solve goes on in [q, hi - d], each start integrated once and none
        # outside [lo, hi]
        monkeypatch.setattr(shooting, "_predicted_slope", lambda m: 1e-30)
        probes = record_probes(monkeypatch)
        tol = 1e-12
        res = find_regular_eta0(params_m01, tol=tol)
        lo, hi = self.bracket(0.1)
        q, d = shooting._predicted_root(0.1), 0.1 * tol
        assert [(p.eta0, p.label) for p in probes[:3]] == [(q, "undershoot"), (hi - d, "overshoot"), (hi, "overshoot")]
        assert len({p.eta0 for p in probes}) == len(probes)
        assert all(q <= p.eta0 <= hi for p in probes)
        assert abs(res.eta0 - self.TIGHT_ROOTS[0.1]) <= 0.25 * tol

    @pytest.mark.parametrize("m", (1e-6, 1e-3, 0.01))
    def test_prediction_is_clamped_into_the_bracket(self, m):
        # at m = 1e-6 and tol 1e-5, q - d lies below the low end 0.999 TWO_Q0 m:
        # the predicted bracket starts at that end, and the answer stays in the
        # physical bracket and within a quarter of tol of the root (at m = 1e-6
        # its m -> 0 limit TWO_Q0 m, off by O(m^3); Newton on the oracle's grid
        # does not converge there)
        lo, hi = self.bracket(m)
        root = shooting.TWO_Q0 * m if m < 1e-3 else spectral_oracle.regular_eta0(m)
        for tol in (1e-5, 1e-8, 1e-12):
            res = find_regular_eta0(CouplingParams(lambda_tilde=1.0, m=m), tol=tol)
            assert lo <= res.eta0 <= hi, tol
            assert abs(res.eta0 - root) <= 0.25 * tol, tol

    @pytest.mark.parametrize("m", (0.2771631, 0.3, 1.08, 1e7))
    def test_no_solution_decided_before_integrating(self, monkeypatch, m):
        # from m = 0.277163 on, 0.999 TWO_Q0 m is not below ETA_FOLD: the
        # bracket is empty and the verdict needs no trajectory (m = 1e7 once
        # ended in a step underflow)
        assert self.bracket(0.277163)[0] < shooting.ETA_FOLD <= self.bracket(m)[0]
        calls = []
        monkeypatch.setattr(shooting, "integrate_profile", lambda *args: calls.append(args))
        with pytest.raises(InvalidBracketError) as info:
            find_regular_eta0(CouplingParams(lambda_tilde=1.0, m=m))
        assert str(info.value) == "no regular solution: m = %g is at or above the fold m_c = 0.185981376879" % m
        assert calls == []

    @pytest.mark.parametrize("lambda_tilde, m", ((1e-250, 1e-200), (1e-300, 1e-160), (1e300, 1e-310)),
                             ids=("mu-underflows", "horizon-overflows", "unit-horizon-overflows"))
    def test_horizon_out_of_range_refused_before_integrating(self, monkeypatch, lambda_tilde, m):
        # 8/mu divides by an underflowed mu = m sqrt(lambda_tilde) or
        # overflows, or the probes' horizon 8/m overflows
        calls = []
        monkeypatch.setattr(shooting, "integrate_profile", lambda *args: calls.append(args))
        p = CouplingParams(lambda_tilde=lambda_tilde, m=m)
        with pytest.raises(ValueError) as info:
            find_regular_eta0(p)
        assert type(info.value) is ValueError
        assert str(info.value) == ("lambda_tilde = %g, m = %g: the horizon 8/m or 8/(m sqrt(lambda_tilde))"
                                   " is no finite positive float" % (lambda_tilde, m))
        assert calls == []

    @pytest.mark.parametrize("m", (0.1, 0.19, 0.3))
    @pytest.mark.parametrize("tol", (0.0, -1.0))
    def test_nonpositive_tol_refused_before_any_probe(self, monkeypatch, capsys, m, tol):
        # below the fold, above it with a bracket and above it with an empty
        # one: the same usage error, before a probe or a verdict on m
        probes = record_probes(monkeypatch)
        with pytest.raises(ValueError) as info:
            find_regular_eta0(CouplingParams(lambda_tilde=1.0, m=m), tol=tol)
        assert type(info.value) is ValueError
        assert str(info.value) == "tol = %r: must be positive" % tol
        assert probes == []
        assert cli.main(["shoot", "--m", repr(m), "--tol", repr(tol)]) == cli.EXIT_USAGE
        assert capsys.readouterr() == ("", "naqlab: tol = %r: must be positive\n" % tol)
        assert probes == []

    @pytest.mark.parametrize("tol", (1e-17, 5e-324))
    def test_tol_below_the_float_spacing_keeps_the_newton_pair(self, params_m01, monkeypatch, tol):
        # 0.1 tol is less than half the float spacing of the Newton centre x,
        # so x -+ 0.1 tol rounds onto x; the pair is x and the float after it,
        # whose labels differ at m = 0.1: 3 trajectories, where Brent's method
        # on the whole bracket [lo, hi] took 13
        probes = record_probes(monkeypatch)
        res = find_regular_eta0(params_m01, tol=tol)
        q = shooting._predicted_root(0.1)
        x = q - probes[0].residual / shooting._predicted_slope(0.1)
        pair = [(x, "overshoot"), (math.nextafter(x, math.inf), "undershoot")]
        assert [(p.eta0, p.label) for p in probes] == [(q, "undershoot")] + pair
        assert res in probes[1:]
        # the root of the rtol-1e-12 probes, 1.1e-13 from the frozen one
        assert abs(res.eta0 - self.TIGHT_ROOTS[0.1]) <= 2e-13

    def test_ambiguity_when_horizon_too_short(self):
        # a start 1e-3 above the false vacuum is still climbing toward the
        # true one, from below, at the horizon x = 80: at 0.87 eta_vacuum it
        # is too far from zero for the growing mode to decide, and turns back
        # (undershoots) only later.  A start at eta_vacuum itself sits on the
        # vacuum and reaches the horizon there, as unclassified
        p = CouplingParams(lambda_tilde=4.0, m=0.1)
        for rtol in (1e-6, 1e-12):
            with pytest.raises(ClassifierAmbiguityError, match="^eta0 = 0.001 reached r = 40 unclassified$"):
                shooting._probe(1e-3, p, rtol)
            with pytest.raises(ClassifierAmbiguityError) as info:
                shooting._probe(p.eta_vacuum, p, rtol)
            assert str(info.value) == "eta0 = %r reached r = 40 unclassified" % p.eta_vacuum

    def test_tight_solve_near_a_slow_climb_returns_its_root(self):
        # at m = 0.005 a climb from just above 1e-3 first turns back
        # (undershoots) near the horizon x = 1600, and at rtol 1e-6 a start
        # 2e-7 from that threshold reached the horizon unclassified.  A tol-1e-8
        # solve there probes near its root only, at rtol 1e-9, and returns it
        m = 0.005
        res = find_regular_eta0(CouplingParams(lambda_tilde=1.0, m=m), tol=1e-8)
        assert abs(res.eta0 - spectral_oracle.regular_eta0(m)) <= 0.25e-8


class TestSpectralOracle:
    """The oracle's convergence in N and a, and the fold literals against it."""

    GRIDS = ((141, 5.0), (181, 5.0), (141, 6.0), (181, 6.0))

    @pytest.fixture(scope="class")
    def folds(self):
        return [spectral_oracle.fold(n, a) for n, a in self.GRIDS]

    def test_fold_converges_in_n_and_a(self, folds):
        # measured spreads 6.5e-14 in m_c and 2.2e-11 in eta_fold; N = 101 was 7e-12 and 2e-8 off
        m_c, eta_fold = zip(*folds)
        assert max(m_c) - min(m_c) <= 2e-13
        assert max(eta_fold) - min(eta_fold) <= 5e-11

    def test_fold_literals_match_the_oracle(self, folds):
        m_c, eta_fold = folds[-1]
        assert abs(shooting.M_FOLD - m_c) <= 1e-9
        assert abs(shooting.ETA_FOLD - eta_fold) <= 1e-9

    def test_two_q0_converges_and_matches_the_literal(self):
        # the m -> 0 limit of eta_0*/m on the four grids at R = 12 and 16
        # (measured spread 1.8e-12; bisecting scipy's DOP853 at rtol 1e-13
        # gives 8.674775359954-5)
        values = [spectral_oracle.two_q0(n, a, radius) for n, a in self.GRIDS for radius in (12.0, 16.0)]
        assert max(values) - min(values) <= 1e-11
        assert abs(shooting.TWO_Q0 - values[-1]) <= 1e-9

    def test_eta0_over_m_rises_between_the_asymptotes(self):
        # the premise of the solve's bracket: on a geometric grid below the
        # fold, eta_0*/m increases from just above 2 Q(0) to just below
        # ETA_FOLD / M_FOLD (measured 8.67481 to 12.6967)
        ms = [0.001 * 1.25**k for k in range(24)] + [0.185, 0.1859]
        ratios = [spectral_oracle.regular_eta0(m) / m for m in ms]
        assert all(a < b for a, b in zip(ratios, ratios[1:]))
        assert shooting.TWO_Q0 < ratios[0] and ratios[-1] < shooting.ETA_FOLD / shooting.M_FOLD

    @staticmethod
    def curve_m(s):
        """The m at s = 2t - 1, t = sqrt(1 - m/M_FOLD), the variable of shooting._CURVE."""
        t = 0.5 * (1.0 + s)
        return shooting.M_FOLD * (1.0 - t * t)

    def test_curve_literals_match_the_oracle_at_their_nodes(self, folds):
        # _CURVE interpolates eta_0*/m at the Chebyshev-Lobatto nodes
        # s = cos(pi k / 15): at the 14 interior ones the series is the
        # oracle's eta_0* within 1e-10 (4.7e-12 measured), and its end values
        # eta_0*/m are the fold's eta_fold / m_c at t = 0 (2.8e-11 off in
        # eta_0*) and 2 Q(0) at t = 1 (3.7e-12 off)
        for k in range(1, 15):
            m = self.curve_m(math.cos(math.pi * k / 15))
            assert abs(shooting._predicted_root(m) - spectral_oracle.regular_eta0(m)) <= 1e-10, k
        m_c, eta_fold = folds[0]
        assert abs(shooting._predicted_root(shooting.M_FOLD) / shooting.M_FOLD * m_c - eta_fold) <= 1e-10
        assert abs(shooting._predicted_root(1e-300) / 1e-300 - spectral_oracle.two_q0()) <= 1e-10

    def test_curve_between_its_nodes(self):
        # the prediction against the frozen roots, and against the oracle
        # midway between the nodes (k + 1/2) down to m = 0.001 and up to
        # m_c - 1.2e-4 (at most 1.01e-10 and 1.15e-10 off measured; the last
        # midpoint, m_c - 1.4e-6, is 3.0e-10 off, where eta_0* moves as
        # sqrt(m_c - m))
        for m, root in TestFindRegularEta0.TIGHT_ROOTS.items():
            assert abs(shooting._predicted_root(m) - root) <= 1.2e-10, m
        for k in range(14):
            m = self.curve_m(math.cos(math.pi * (k + 0.5) / 15))
            assert abs(shooting._predicted_root(m) - spectral_oracle.regular_eta0(m)) <= 1.2e-10, k

    @pytest.mark.parametrize("m", sorted(TestFindRegularEta0.TIGHT_ROOTS))
    def test_roots_converge_and_match_the_frozen_roots(self, m):
        # Newton's root on two grids, against the roots frozen from shooting
        # (at most 4.3e-13 apart and 6.1e-14 from them, measured)
        coarse, fine = spectral_oracle.regular_eta0(m), spectral_oracle.regular_eta0(m, 181, 6.0)
        assert abs(coarse - fine) <= 1e-12
        assert abs(coarse - TestFindRegularEta0.TIGHT_ROOTS[m]) <= 1e-12


class TestSlopeSeries:
    """shooting._SLOPE, the residual's slope s = d residual / d eta0 at eta_0*
    as t times a Chebyshev series in 2t - 1, t = sqrt(1 - m/M_FOLD)."""

    @staticmethod
    def slope_m(k):
        """The m at 2t - 1 = cos(pi k / 32): a node of _SLOPE for odd k, midway between two for even k."""
        return TestSpectralOracle.curve_m(math.cos(math.pi * k / 32))

    def test_series_against_the_variational_equation(self, eta_form_slope):
        # scipy's DOP853 on the eta form and its variational equation, from
        # the oracle's root, at the 16 nodes and the 15 points midway between
        # them (at most 4.5e-8 relative measured, at m_c - 1.7e-5)
        for k in range(1, 32):
            m = self.slope_m(k)
            s = eta_form_slope(spectral_oracle.regular_eta0(m), m)
            assert abs(shooting._predicted_slope(m) / s - 1.0) <= 1e-5, (k, m)

    @pytest.mark.parametrize("m", sorted(TestFindRegularEta0.TIGHT_ROOTS)
                             + [shooting.M_FOLD - gap for gap in (1e-3, 1e-4, 1e-5)])
    def test_series_against_central_differences_of_probes(self, m):
        # numpy alone: central differences of _probe's residual at rtol 1e-12,
        # 1e-7 either side of the root (at most 3.9e-7 relative measured, at
        # m_c - 1e-4, where s = 5.5e-3)
        root = TestFindRegularEta0.TIGHT_ROOTS.get(m) or spectral_oracle.regular_eta0(m)
        p, delta = CouplingParams(1.0, m), 1e-7
        s = (shooting._probe(root + delta, p, 1e-12).residual - shooting._probe(root - delta, p, 1e-12).residual) / (2 * delta)
        assert abs(shooting._predicted_slope(m) / s - 1.0) <= 1e-6


class TestExistenceInterval:
    """shoot over the (lambda_tilde, m) plane: lambda_tilde log-uniform in
    [1e-3, 1e3], m uniform in each range, from a seeded generator."""

    NO_SOLUTION = "no regular solution: m = %g is at or above the fold m_c = 0.185981376879\n"

    @pytest.mark.parametrize("tol", (1e-5, 1e-8))
    def test_answer_within_tol_of_the_oracle_root(self, tol):
        # both ends of m in [0.001, m_c - 1e-3] and 10 draws (worst measured
        # 0.25 and 0.58 tol, at m_c - 1e-3)
        rng = np.random.default_rng(30)
        ms = [0.001, shooting.M_FOLD - 1e-3] + rng.uniform(0.001, shooting.M_FOLD - 1e-3, 10).tolist()
        for m in ms:
            lambda_tilde = 10.0 ** rng.uniform(-3.0, 3.0)
            res = find_regular_eta0(CouplingParams(lambda_tilde, m), tol=tol)
            assert abs(res.eta0 - spectral_oracle.regular_eta0(m)) <= tol, (lambda_tilde, m)

    def test_root_below_the_fold_at_its_edge(self):
        # at m_c - 1e-6 the two lowest roots are 0.0092 apart and the
        # residual's slope nearly vanishes: the answer is the lower root, but
        # 12.9 tol from it at tol 1e-5 (ROADMAP item 20)
        m = shooting.M_FOLD - 1e-6
        p = CouplingParams(10.0 ** np.random.default_rng(3).uniform(-3.0, 3.0), m)
        root = spectral_oracle.regular_eta0(m)
        for tol in (1e-5, 1e-8):
            res = find_regular_eta0(p, tol=tol)
            assert res.eta0 < shooting.ETA_FOLD
            assert abs(res.eta0 - root) < 0.5 * (shooting.ETA_FOLD - root)

    def test_no_solution_line_above_the_fold(self, capsys):
        rng = np.random.default_rng(31)
        ms = [shooting.M_FOLD + 1e-6, 0.3] + rng.uniform(shooting.M_FOLD + 1e-6, 0.3, 4).tolist() + [1.0, 1e7]
        for m in ms:
            argv = ["shoot", "--lambda", repr(10.0 ** rng.uniform(-3.0, 3.0)), "--m", repr(m)]
            code = cli.main(argv)
            assert (code, *capsys.readouterr()) == (cli.EXIT_NUMERICAL, "", self.NO_SOLUTION % m), argv


class TestDecayRate:
    def test_synthetic_yukawa_tail(self):
        r = np.linspace(20.0, 60.0, 400)
        eta = 3.0 * np.exp(-0.1 * r) / r
        deta = np.gradient(eta, r)
        traj = RkSolution(r=r, y=eta, dy=deta, ddy=np.gradient(deta, r), stop="reached_rmax", attempted=0)
        assert decay_rate(traj, (25.0, 55.0)) == pytest.approx(0.1, abs=1e-6)

    def test_regular_solution_decay_matches_mass(self, shot_m01_tight, params_m01):
        mu = decay_rate(shot_m01_tight.trajectory, (20.0, 50.0))
        expected = params_m01.m * math.sqrt(params_m01.lambda_tilde)
        assert mu == pytest.approx(expected, abs=5e-3)
        assert 0.095 <= mu <= 0.105

    @pytest.mark.parametrize("m", sorted(TestFindRegularEta0.TIGHT_ROOTS))
    @pytest.mark.parametrize("lambda_tilde", (0.5, 1.0, 4.0))
    def test_regular_solution_decays_over_the_yukawa_length(self, lambda_tilde, m):
        # the radius of a force is 1/mu, mu = m sqrt(lambda_tilde): the
        # regular solution, re-integrated to the horizon 8/mu, has no node
        # and its tail on [3/mu, 6/mu] decays at mu (at most 4.0e-5 off
        # measured; on [2/mu, 5/mu] the core still bends it, to 4.5e-4)
        p = CouplingParams(lambda_tilde=lambda_tilde, m=m)
        mu = m * math.sqrt(lambda_tilde)
        traj = integrate_profile(find_regular_eta0(p, tol=1e-12).eta0, p, 8.0 / mu)
        assert traj.stop == "reached_rmax"
        assert np.all(np.asarray(traj.y) > 0)
        assert abs(decay_rate(traj, (3.0 / mu, 6.0 / mu)) / mu - 1.0) <= 1e-4

    def test_rejects_non_exponential_window(self):
        r = np.linspace(1.0, 10.0, 100)
        eta = np.full_like(r, 0.5)  # constant field: ln(r eta) is not linear
        traj = RkSolution(r=r, y=eta, dy=np.zeros_like(r), ddy=np.zeros_like(r), stop="reached_rmax", attempted=0)
        with pytest.raises(DecayFitError):
            decay_rate(traj, (2.0, 9.0))

    def test_rejects_window_beyond_trajectory(self):
        r = np.linspace(1.0, 5.0, 50)
        traj = RkSolution(r=r, y=np.exp(-r) / r, dy=np.zeros_like(r), ddy=np.zeros_like(r), stop="reached_rmax", attempted=0)
        with pytest.raises(ValueError):
            decay_rate(traj, (2.0, 50.0))


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

    def test_density_matches_dop853_gauss_source(self, shot_m01_tight, params_m01, eta_form_dop853, eta_form_rhs):
        # the oracle is the Gauss-law source 4 (2E/r + E') with E' written
        # out from eta'' of the eta form, on scipy's DOP853 solution at the
        # regular trajectory's own radii r > 0
        traj = shot_m01_tight.trajectory
        r = np.asarray(traj.r[1:])
        eta, deta = eta_form_dop853(traj.y[0], params_m01, traj.r[-1])(r)
        ddeta = np.array([eta_form_rhs(*args, params_m01) for args in zip(r, eta, deta)])
        cosh, sinh = np.cosh(eta / 2.0), np.sinh(eta / 2.0)
        e_field = -deta / (2.0 * cosh)
        de_field = -ddeta / (2.0 * cosh) + deta**2 * sinh / (4.0 * cosh**2)
        source = 4.0 * (2.0 * e_field / r + de_field)
        _, _, rho = derive_fields(traj.y[1:], traj.dy[1:], params_m01)
        assert np.abs(rho - source).max() < 1e-8 * np.abs(source).max()

    def test_gauss_law_converges_second_order(self, shot_m01_tight, params_m01, eta_form_dop853):
        # centered-difference div E on DOP853 dense output approaches the
        # pointwise density at O(h^2)
        sol = eta_form_dop853(shot_m01_tight.eta0, params_m01, 30.0)
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
