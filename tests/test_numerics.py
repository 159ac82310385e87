import heapq
import math
import time
from collections import namedtuple

import numpy as np
import pytest

from naqlab import charge, numerics, shooting
from naqlab.numerics import (
    IntegrationBlowUp,
    InvalidBracketError,
    QuadResult,
    QuadratureBudgetError,
    bisect,
    brent,
    centered_derivative,
    quad_adaptive,
    rk_integrate,
)


class TestQuadAdaptive:
    def test_constant_integrand(self):
        res = quad_adaptive(lambda x: 1.0, 0.0, 1.0, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-12)
        assert res.evaluations >= 1
        assert res.error_estimate >= 0

    def test_sech_squared(self):
        # antiderivative tanh u
        res = quad_adaptive(lambda u: 1.0 / math.cosh(u) ** 2, 0.0, 50.0, 1e-10)
        assert res.value == pytest.approx(math.tanh(50.0), abs=1e-10)

    def test_tanh_squared(self):
        # antiderivative u - tanh u (the self-energy divergence oracle)
        for cap in (1.0, 5.0, 20.0):
            res = quad_adaptive(lambda u: math.tanh(u) ** 2, 0.0, cap, 1e-12)
            assert res.value == pytest.approx(cap - math.tanh(cap), abs=1e-11)

    def test_polynomial_exactness(self):
        # Gauss-Kronrod 15 integrates low-degree polynomials to round-off.
        res = quad_adaptive(lambda x: 7 * x**6 - 3 * x**2 + 2, 0.0, 2.0, 1e-12)
        exact = 2.0**7 - 2.0**3 + 4.0
        assert res.value == pytest.approx(exact, rel=1e-14)
        assert res.evaluations == 15

    def test_semi_infinite_upper_limit(self):
        res = quad_adaptive(lambda r: 1.0 / r**2, 1.0, math.inf, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_semi_infinite_requires_positive_lower(self):
        with pytest.raises(ValueError):
            quad_adaptive(lambda r: 1.0, 0.0, math.inf, 1e-8)

    def test_nan_at_a_node_is_refined_away(self):
        # nan only at x = 0.5, the centre node of the first panel; its halves
        # never evaluate 0.5, so bisection recovers the integral
        res = quad_adaptive(lambda x: math.nan if x == 0.5 else 1.0, 0.0, 1.0, 1e-10)
        assert res.value == pytest.approx(1.0, abs=1e-14)
        assert res.error_estimate < 1e-10
        assert res.evaluations == 45

    @pytest.mark.parametrize("value", (math.nan, math.inf, -math.inf))
    def test_non_finite_panel_never_converges(self, value):
        # an interval of a few ulp runs out of bisections at once
        b = 1.0 + 8 * math.ulp(1.0)
        with pytest.raises(QuadratureBudgetError) as err:
            quad_adaptive(lambda x: value, 1.0, b, 1e-10)
        assert err.value.partial.error_estimate == math.inf

    def test_budget_exceeded_carries_partial(self, monkeypatch):
        # A needle the refinement cannot pin down inside the budget.
        monkeypatch.setattr(numerics, "_MAX_EVALUATIONS", 300)
        needle = lambda x: 1.0 / (1e-12 + (x - 0.123456789) ** 2)
        with pytest.raises(QuadratureBudgetError) as err:
            quad_adaptive(needle, 0.0, 1.0, 1e-14)
        partial = err.value.partial
        assert partial.evaluations <= 300
        assert math.isfinite(partial.value)


def quad_resum_every_split(f, a, b, tol):
    """quad_adaptive with the whole heap re-summed after every split: the
    reference for the loop that re-sums only once the tolerance is in reach."""
    if math.isinf(b):
        inner = f
        f = lambda u: inner(1.0 / u) / (u * u)
        a, b = 0.0, 1.0 / a
    value, err, evals = numerics._gk15_panel(f, a, b)
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    while True:
        total = total_err = 0.0
        for item in heap:
            total += item[4]
            total_err += item[5]
        if total_err <= max(tol, tol * abs(total)) < math.inf:
            return QuadResult(total, total_err, evals)
        if evals + 30 > numerics._MAX_EVALUATIONS:
            raise QuadratureBudgetError(QuadResult(total, total_err, evals))
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            raise QuadratureBudgetError(QuadResult(total, total_err, evals))
        for left, right in ((lo, mid), (mid, hi)):
            v, e, n = numerics._gk15_panel(f, left, right)
            evals += n
            counter += 1
            heapq.heappush(heap, (-e, counter, left, right, v, e))


def quad_outcome(quad, f, a, b, tol):
    """The result, or the partial result of a budget failure, as a tuple
    whose nan entries compare equal."""
    try:
        res, failed = quad(f, a, b, tol), False
    except QuadratureBudgetError as err:
        res, failed = err.partial, True
    return failed, repr(res.value), repr(res.error_estimate), res.evaluations


QUAD_CASES = {
    "constant": (lambda x: 1.0, 0.0, 1.0),
    "sech2": (lambda u: 1.0 / math.cosh(u) ** 2 if abs(u) < 350 else 0.0, 0.0, 50.0),
    "tanh2_flat": (lambda u: math.tanh(u) ** 2, 25.0, 1e9),
    "inverse_square_tail": (lambda r: 1.0 / r**2, 1.0, math.inf),
    "sqrt_endpoint": (math.sqrt, 0.0, 1.0),
    "log_endpoint": (lambda x: math.log(x), 0.0, 1.0),
    "oscillating": (lambda x: math.sin(40.0 * x), 0.0, 2.0 * math.pi),
    "cancelling_sign": (lambda x: x**3, -1.0, 1.0),
    "needle": (lambda x: 1.0 / (1e-8 + (x - 0.3) ** 2), 0.0, 1.0),
    # the first panel's nodes miss the spike, so its |value| is far below |total|
    "hidden_spike": (lambda x: 1e4 * math.exp(-(((x - 0.3) / 1e-3) ** 2)), 0.0, 1.0),
    "tiny_values": (lambda x: 1e-300 * math.exp(x), 0.0, 1.0),
    "huge_values": (lambda x: 1e300 * x * x, 0.0, 10.0),
    "nan_at_a_node": (lambda x: math.nan if x == 0.5 else 1.0, 0.0, 1.0),
    "reciprocal": (lambda x: 1.0 / x, 0.0, 1.0),
    "nan_everywhere": (lambda x: math.nan, 0.0, 1.0),
}


class TestQuadPreTest:
    @pytest.mark.parametrize("tol", (1e-3, 1e-8, 1e-12, 1e-15, 1e-300))
    @pytest.mark.parametrize("case", sorted(QUAD_CASES))
    def test_same_result_as_resum_every_split(self, case, tol, monkeypatch):
        # a small budget keeps the quadratic reference fast on the cases that
        # never converge
        monkeypatch.setattr(numerics, "_MAX_EVALUATIONS", 6000)
        f, a, b = QUAD_CASES[case]
        assert quad_outcome(quad_adaptive, f, a, b, tol) == quad_outcome(
            quad_resum_every_split, f, a, b, tol
        )

    def test_energy_reports_unchanged(self, monkeypatch):
        rng = np.random.default_rng(11)
        models = [
            (charge.ChargeModel(q=q, G=G, c=c), r_min, tol)
            for q, G, c, r_min, tol in zip(
                10.0 ** rng.uniform(-3, 3, 40),
                10.0 ** rng.uniform(-2, 2, 40),
                10.0 ** rng.uniform(-1, 1, 40),
                10.0 ** rng.uniform(-6, 2, 40),
                10.0 ** rng.uniform(-13, -4, 40),
            )
        ]
        fast = [charge.energy_report(*args) for args in models]
        monkeypatch.setattr(charge, "quad_adaptive", quad_resum_every_split)
        assert fast == [charge.energy_report(*args) for args in models]

    def test_budget_is_reached_quickly(self):
        # re-summing the heap on every split took about 20 s on this call
        start = time.perf_counter()
        with pytest.raises(QuadratureBudgetError) as err:
            quad_adaptive(lambda x: 1.0 / x, 0.0, 1.0, 1e-10)
        assert time.perf_counter() - start < 5.0
        assert err.value.partial.evaluations > numerics._MAX_EVALUATIONS - 30


def states(sol):
    """The samples of an RkSolution as one (len(r), 2) array."""
    return np.column_stack((sol.y, sol.dy))


class TestRkIntegrate:
    def test_harmonic_oscillator_period(self):
        rhs = lambda r, y: (y[1], -y[0])
        sol = rk_integrate(rhs, 1.0, (0.0, 1.0), 1.0 + 2 * math.pi)
        assert np.allclose(states(sol)[-1], [0.0, 1.0], atol=1e-8)

    def test_zero_rhs_constant_trajectory(self):
        rhs = lambda r, y: np.zeros_like(y)
        sol = rk_integrate(rhs, 0.5, (3.0, -2.0), 10.0)
        assert np.allclose(states(sol), [3.0, -2.0])

    def test_exponential_growth(self):
        sol = rk_integrate(lambda r, y: (y[0], -y[1]), 1.0, (1.0, 1.0), 2.0)
        assert states(sol)[-1, 0] == pytest.approx(math.e, abs=1e-8)
        assert states(sol)[-1, 1] == pytest.approx(1 / math.e, abs=1e-8)

    def test_reaching_r_end_has_no_stop(self):
        grow = lambda r, y: (y[0], y[1])
        sol = rk_integrate(grow, 1.0, (1.0, 0.5), 2.0, stop_condition=lambda r, y: None)
        assert sol.stop is None
        assert sol.r[-1] == 2.0
        assert rk_integrate(grow, 1.0, (1.0, 0.5), 2.0).stop is None

    def test_capped_step_lands_on_r_end(self):
        # r + (r_end - r) rounds one ulp below r_end on the last step of this
        # span; the next pass then stopped with a step underflow
        r0, r_end = float.fromhex("0x1.86a8decec6456p-20"), float.fromhex("0x1.cb7daabb3f8b7p+0")
        sol = rk_integrate(lambda r, y: (0.0, 0.0), r0, (1.0, 2.0), r_end)
        assert sol.r[-1] == r_end
        assert sol.stop is None
        assert np.all(states(sol) == [1.0, 2.0])

    def test_stop_label_ends_run_on_triggering_sample(self):
        # y = e^(r - 1) passes 2 at r = 1 + ln 2; the run ends on the first
        # accepted sample past it, and the label comes back as ``stop``
        seen = []

        def stop(r, y):
            seen.append(r)
            return "past two" if y[0] > 2.0 else None

        sol = rk_integrate(lambda r, y: (y[0], -y[1]), 1.0, (1.0, 1.0), 3.0, stop_condition=stop)
        assert sol.stop == "past two"
        assert sol.r[-1] == seen[-1] < 3.0
        assert states(sol)[-1, 0] > 2.0 >= states(sol)[-2, 0]
        assert list(sol.r[1:]) == seen

    @pytest.mark.parametrize("r_end", (1.0, 0.5, math.nan))
    def test_r_end_must_exceed_r0(self, r_end):
        with pytest.raises(ValueError, match="r_end must exceed the initial radius"):
            rk_integrate(lambda r, y: y, 1.0, (1.0, 0.0), r_end)

    @pytest.mark.parametrize("y0", ((), (1.0,), (1.0, 1.0, 1.0)), ids=("empty", "one", "three"))
    def test_state_must_have_two_components(self, y0):
        with pytest.raises(ValueError, match="two components, got %d" % len(y0)):
            rk_integrate(lambda r, y: y, 1.0, y0, 2.0)

    @pytest.mark.parametrize("rtol", (0.0, -1e-8, math.nan, math.inf))
    def test_rtol_must_be_positive_and_finite(self, rtol):
        # a zero scale divides the error estimate by zero; an infinite one
        # accepts every step
        calls = []
        with pytest.raises(ValueError, match="rtol must be positive and finite"):
            rk_integrate(lambda r, y: calls.append(r) or y, 1.0, (1.0, 0.0), 2.0, rtol=rtol)
        assert calls == []

    def test_blow_up_reports_last_state(self):
        # y' = y^2 from y(1) = 1 blows up at r = 2
        rhs = lambda r, y: (y[0] ** 2, -y[1])
        with pytest.raises(IntegrationBlowUp) as err:
            rk_integrate(rhs, 1.0, (1.0, 1.0), 3.0)
        partial = err.value.partial
        assert partial.stop is None
        assert partial.r[0] == 1.0
        assert 1.9 < partial.r[-1] < 2.0001
        assert np.all(np.isfinite(states(partial)))
        assert np.all(np.diff(partial.r) > 0)

    def test_overflowing_stage_rejects_the_step(self):
        # y = r until |y| > 10, where a stage overflows to inf: the error
        # norm is nan there, so each step across r = 10 is rejected and
        # shrinks until it underflows, and no nan sample is accepted
        rhs = lambda r, y: (1.0 if abs(y[0]) <= 10.0 else math.inf, 0.0)
        with pytest.raises(IntegrationBlowUp, match="step underflow") as err:
            rk_integrate(rhs, 0.0, (0.0, 0.0), 20.0)
        partial = err.value.partial
        assert np.all(np.isfinite(states(partial)))
        assert 9.99 < partial.r[-1] <= 10.0
        assert np.diff(partial.r)[-1] < 1e-9 < np.diff(partial.r)[0]

    def test_degree_seven_polynomial_is_exact(self):
        # with rhs a polynomial in r alone a step is a quadrature of order 8,
        # exact to rounding through degree 7 even on long steps (rtol 1e-3);
        # degree 8 is not
        sol = rk_integrate(lambda r, y: (8 * r**7 - 3 * r * r + 1.0, 7.0 * r**6), 0.0, (1.0, -1.0), 2.0, rtol=1e-3)
        assert sol.y[-1] == pytest.approx(1 + 2**8 - 2**3 + 2, rel=1e-14)
        assert sol.dy[-1] == pytest.approx(-1 + 2**7, rel=1e-14)
        sol = rk_integrate(lambda r, y: (9 * r**8, 0.0), 0.0, (1.0, 0.0), 2.0, rtol=1e-3)
        assert abs(sol.y[-1] - (1 + 2**9)) > 1e-8


def _combine(y, h, weights, ks):
    """y + h * sum(w k): each component's nonzero terms added left to right
    in an explicit loop (``sum()`` compensates float sums from Python 3.12)."""
    return tuple(yj + h * _dot(weights, ks, j) for j, yj in enumerate(y))


def _dot(weights, ks, j):
    acc = None
    for w, k in zip(weights, ks):
        if w != 0.0:
            acc = w * k[j] if acc is None else acc + w * k[j]
    return acc


def dop853_reference(rhs, r, y, r_end, rtol=1e-10):
    """The adaptive DOP853 loop from scipy's tableau, with the error scale
    rtol / 100 + rtol |y|: (r samples, y samples, rejections)."""
    tableau = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    A, B, C = tableau.A.tolist(), tableau.B.tolist(), tableau.C.tolist()
    E3, E5 = tableau.E3.tolist(), tableau.E5.tolist()
    rs, ys, rejected = [r], [y], 0
    h = (r_end - r) / 100.0
    k1 = rhs(r, y)
    while r < r_end:
        last = h >= r_end - r
        h = r_end - r if last else h
        ks = [k1]
        for s in range(1, 12):
            ks.append(rhs(r + C[s] * h, _combine(y, h, A[s], ks)))
        y8 = _combine(y, h, B, ks)
        ks.append(rhs(r + h, y8))
        scale = [rtol / 100 + rtol * max(abs(yj), abs(y8j)) for yj, y8j in zip(y, y8)]
        n5 = n3 = 0.0
        for j, sc in enumerate(scale):
            e5, e3 = _dot(E5, ks, j) / sc, _dot(E3, ks, j) / sc
            n5 += e5 * e5
            n3 += e3 * e3
        den = n5 + 0.01 * n3
        err = abs(h) * n5 / math.sqrt(len(y) * den) if den > 0 else 0.0 if den == 0 else math.nan
        err = math.inf if err != err else err
        if err <= 1.0:
            r, y, k1 = r_end if last else r + h, y8, ks[12]
            rs.append(r)
            ys.append(y)
        else:
            rejected += 1
        h *= min(10.0, max(0.2, 0.9 * err ** -0.125 if err > 0 else 10.0))
    return np.array(rs), np.array(ys), rejected


def van_der_pol(r, y):
    return (y[1], 2.0 * (1.0 - y[0] * y[0]) * y[1] - y[0])


class TestDop853Reference:
    """The unrolled step of rk_integrate against scipy's tableau as data, bit
    for bit, with the 1 + 12 x (attempted steps) RHS calls of FSAL."""

    @staticmethod
    def system(name, params):
        if name == "van_der_pol":
            return van_der_pol, 0.0, (2.0, 0.0), 10.0
        rhs = lambda r, y: (y[1], shooting.ode_rhs(r, y[0], y[1], params))
        r0, y0 = shooting.series_start(0.9083, params, shooting.DEFAULT_EPSILON)
        return rhs, r0, y0, 80.0

    def check(self, name, params, rtol):
        rhs, r0, y0, r_end = self.system(name, params)
        ref_r, ref_y, rejected = dop853_reference(rhs, r0, y0, r_end, rtol=rtol)
        calls = []
        sol = rk_integrate(lambda r, y: calls.append(r) or rhs(r, y), r0, y0, r_end, rtol=rtol)
        assert np.array_equal(sol.r, ref_r)
        assert np.array_equal(states(sol), ref_y)
        assert rejected > 0
        assert len(calls) == 1 + 12 * (len(sol.r) - 1 + rejected)

    def test_van_der_pol_with_rejections(self, params_m01):
        self.check("van_der_pol", params_m01, 1e-10)

    def test_profile_rhs(self, params_m01):
        self.check("profile", params_m01, 1e-10)

    @pytest.mark.parametrize("system", ("van_der_pol", "profile"))
    def test_rtol_argument(self, system, params_m01):
        # a looser scale, as a loose shooting solve passes down
        self.check(system, params_m01, 1e-8)


class TestBisect:
    def test_threshold_predicate(self):
        root = bisect(lambda x: "low" if x < 2 else "high", (0.0, 4.0), 1e-12)
        assert root == pytest.approx(2.0, abs=1e-12)

    def test_sqrt_two(self):
        pred = lambda x: x * x - 2 < 0
        root = bisect(pred, (1.0, 2.0), 1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_invalid_bracket(self):
        with pytest.raises(InvalidBracketError):
            bisect(lambda x: True, (0.0, 1.0), 1e-6)

    @pytest.mark.parametrize("tol", (0.0, -1e-6, math.nan))
    def test_tolerance_must_be_positive(self, tol):
        # a nan tolerance would end the loop at once and return the midpoint
        with pytest.raises(ValueError, match="tol must be positive"):
            bisect(lambda x: x < 1.0, (0.0, 2.0), tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            quad_adaptive(lambda x: x, 0.0, 1.0, tol)
        with pytest.raises(ValueError, match="tol must be positive"):
            brent(labelled(lambda x: x - 1.0, 1.0, []), (0.0, 2.0), tol)

    def test_iteration_count_is_logarithmic(self):
        calls = {"n": 0}

        def pred(x):
            calls["n"] += 1
            return x < math.pi

        bisect(pred, (0.0, 8.0), 1e-6)
        # 2 bracket-end calls plus one call per halving
        expected = math.ceil(math.log2(8.0 / 1e-6))
        assert calls["n"] == expected + 2


Probe = namedtuple("Probe", "x label residual")


def labelled(residual, root, probes):
    """A probe for ``brent``: label "high" above ``root``, else "low"; each
    record is appended to ``probes``."""

    def probe(x):
        record = Probe(x, "high" if x > root else "low", residual(x))
        probes.append(record)
        return record

    return probe


class TestBrent:
    ROOT = 1.0 / 3.0

    def solve(self, residual, bracket, tol):
        """The answer, the other end of its final bracket, and the probe count.

        Labels are monotone, so the other end is the nearest probe with
        the other label: every probe lands inside the bracket of its time.
        """
        probes = []
        best = brent(labelled(residual, self.ROOT, probes), bracket, tol)
        assert best in probes
        other = min((p for p in probes if p.label != best.label), key=lambda p: abs(p.x - best.x))
        assert min(best.x, other.x) <= self.ROOT <= max(best.x, other.x)
        assert abs(best.residual) <= abs(other.residual)
        return best, other, len(probes)

    @pytest.mark.parametrize("tol, max_probes", ((1e-5, 8), (1e-12, 9)))
    def test_kinked_residual(self, tol, max_probes):
        # different slopes on the two sides of the root stall a plain
        # secant; bisection would need 21 and 44 probes
        def residual(x):
            return 0.08 * (x - self.ROOT) if x < self.ROOT else 0.14 * (x - self.ROOT)

        best, other, n = self.solve(residual, (0.0, 4.0), tol)
        assert abs(other.x - best.x) <= tol
        assert n <= max_probes

    @pytest.mark.parametrize("tol", (1e-5, 1e-12))
    def test_saturating_residual(self, tol):
        # flat far from the root, where interpolation steps are poor and the
        # bisection safeguard has to take over
        best, other, n = self.solve(lambda x: math.tanh(30.0 * (x - self.ROOT)), (-3.0, 5.0), tol)
        assert abs(other.x - best.x) <= tol
        assert n < math.ceil(math.log2(8.0 / tol)) + 2

    def test_tol_below_float_spacing_terminates(self):
        # the final bracket is two neighbouring floats
        best, other, _ = self.solve(lambda x: x - self.ROOT, (0.0, 4.0), 1e-300)
        assert math.nextafter(best.x, other.x) == other.x

    def test_same_label_ends_raise(self):
        with pytest.raises(InvalidBracketError, match="both ends classify as 'high'"):
            brent(labelled(lambda x: x - self.ROOT, self.ROOT, []), (0.5, 1.0), 1e-6)
        with pytest.raises(ValueError, match="bracket must be ordered"):
            brent(labelled(lambda x: x - self.ROOT, self.ROOT, []), (1.0, 0.5), 1e-6)


class TestCenteredDerivative:
    def test_quadratic_is_exact(self):
        x = np.array([0.0, 0.3, 0.55, 1.0, 1.2])
        f = 2 * x**2 - x + 1
        assert np.allclose(centered_derivative(x, f), 4 * x - 1, atol=1e-12)

    def test_second_order_convergence(self):
        errs = []
        for n in (51, 101):
            x = np.linspace(0.2, 1.2, n)
            d = centered_derivative(x, np.sin(x))
            errs.append(np.abs(d[1:-1] - np.cos(x[1:-1])).max())
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            centered_derivative([0.0, 2.0, 1.0], [1.0, 2.0, 3.0])
