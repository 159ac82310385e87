import ast
import heapq
import inspect
import math
import time
from collections import namedtuple

import numpy as np
import pytest

from naqlab import charge, numerics, shooting
from naqlab.numerics import (
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

    @pytest.mark.parametrize("a, b", ((1.0, 1.0), (2.0, 1.0)), ids=("empty", "reversed"))
    def test_interval_must_be_ordered(self, a, b):
        calls = []
        with pytest.raises(ValueError, match="^require a < b$"):
            quad_adaptive(lambda x: calls.append(x) or 1.0, a, b, 1e-8)
        assert calls == []

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
        rhs = lambda r, y: -y
        sol = rk_integrate(rhs, 1.0, (0.0, 1.0), 1.0 + 2 * math.pi)
        assert np.allclose(states(sol)[-1], [0.0, 1.0], atol=1e-8)

    def test_zero_rhs_constant_trajectory(self):
        rhs = lambda r, y: 0.0
        sol = rk_integrate(rhs, 0.5, (3.0, 0.0), 10.0)
        assert np.allclose(states(sol), [3.0, 0.0])
        assert np.all(np.asarray(sol.ddy) == 0.0)

    def test_exponential_growth(self):
        # y'' = y from (1, 1) is y = y' = e^(r - 1)
        sol = rk_integrate(lambda r, y: y, 1.0, (1.0, 1.0), 2.0)
        assert states(sol)[-1, 0] == pytest.approx(math.e, abs=1e-8)
        assert states(sol)[-1, 1] == pytest.approx(math.e, abs=1e-8)
        assert list(sol.ddy) == list(sol.y)

    def test_reaching_r_end_has_no_stop(self):
        grow = lambda r, y: y
        sol = rk_integrate(grow, 1.0, (1.0, 0.5), 2.0, stop_condition=lambda r, y: None)
        assert sol.stop is None
        assert sol.r[-1] == 2.0
        assert rk_integrate(grow, 1.0, (1.0, 0.5), 2.0).stop is None

    def test_capped_step_lands_on_r_end(self):
        # r + (r_end - r) rounds one ulp below r_end on the last step of this
        # span; the next pass then stopped with a step underflow
        r0, r_end = float.fromhex("0x1.86a8decec6456p-20"), float.fromhex("0x1.cb7daabb3f8b7p+0")
        sol = rk_integrate(lambda r, y: 0.0, r0, (1.0, 0.0), r_end)
        assert sol.r[-1] == r_end
        assert sol.stop is None
        assert np.all(states(sol) == [1.0, 0.0])

    def test_stop_label_ends_run_on_triggering_sample(self):
        # y = e^(r - 1) passes 2 at r = 1 + ln 2; the run ends on the first
        # accepted sample past it, and the label comes back as ``stop``
        seen = []

        def stop(r, y):
            seen.append(r)
            return "past two" if y[0] > 2.0 else None

        sol = rk_integrate(lambda r, y: y, 1.0, (1.0, 1.0), 3.0, stop_condition=stop)
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
        # y'' = 2 y^3 from (1, 1) is y = 1/(2 - r), which blows up at r = 2:
        # the run is returned, ending on its last accepted state
        rhs = lambda r, y: 2.0 * y ** 3
        partial = rk_integrate(rhs, 1.0, (1.0, 1.0), 3.0)
        assert partial.stop == "step underflow"
        assert partial.r[0] == 1.0
        assert 1.9 < partial.r[-1] < 2.0001
        assert np.all(np.isfinite(states(partial)))
        assert len(partial.ddy) == len(partial.r)
        assert np.all(np.diff(partial.r) > 0)

    def test_overflowing_stage_rejects_the_step(self):
        # y = r, with y' = 1, until |y| > 10, where a stage overflows to inf:
        # the error norm is nan there, so each step across r = 10 is rejected
        # and shrinks until it underflows, and no nan sample is accepted
        rhs = lambda r, y: 0.0 if abs(y) <= 10.0 else math.inf
        partial = rk_integrate(rhs, 0.0, (0.0, 1.0), 20.0)
        assert partial.stop == "step underflow"
        assert np.all(np.isfinite(states(partial)))
        assert 9.99 < partial.r[-1] <= 10.0
        assert np.diff(partial.r)[-1] < 1e-9 < np.diff(partial.r)[0]

    def test_degree_seven_polynomial_is_exact(self):
        # with y'' a polynomial in r alone a step gives y' by a quadrature
        # of order 8 and y by the order-8 conditions: both exact to rounding
        # while y' has degree 7 (y degree 8), even on long steps (rtol 1e-3);
        # for y' of degree 8 the quadrature still holds but y is off
        sol = rk_integrate(lambda r, y: 56 * r**6 - 6 * r, 0.0, (1.0, 1.0), 2.0, rtol=1e-3)
        assert sol.y[-1] == pytest.approx(1 + 2**8 - 2**3 + 2, rel=1e-14)
        assert sol.dy[-1] == pytest.approx(1 + 8 * 2**7 - 3 * 2**2, rel=1e-14)
        sol = rk_integrate(lambda r, y: 72 * r**7, 0.0, (1.0, 0.0), 2.0, rtol=1e-3)
        assert sol.dy[-1] == pytest.approx(9 * 2**8, rel=1e-14)
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


def _magnitude(weights, ks, j):
    """sum |w k[j]|: the size of the terms of ``_dot``, which bounds its rounding."""
    return math.fsum(abs(w * k[j]) for w, k in zip(weights, ks))


def dop853_tableau():
    """scipy's DOP853 tableau as lists, cut to the 12 stages of a step: A, B, C, E5, E3."""
    t = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
    assert t.E5[12] == t.E3[12] == 0.0
    return ([row[:12] for row in t.A.tolist()[:12]], t.B.tolist(), t.C.tolist()[:12],
            t.E5.tolist()[:12], t.E3.tolist()[:12])


def first_order_step(rhs, r, y, h, k1, rtol):
    """One DOP853 step of the first-order system y' = rhs(r, y) from scipy's
    tableau as data: (stage states, y8, stage slopes, e5 and e3 scaled per
    component, the scales, Hairer's error norm).  The error sums are taken
    over the 12 stages (E5 and E3 weigh the 13th with 0); a component's
    scale is rtol / 100 + rtol max(|y|, |y8|)."""
    A, B, C, E5, E3 = dop853_tableau()
    ks, stages = [k1], []
    for s in range(1, 12):
        stages.append(_combine(y, h, A[s], ks))
        ks.append(rhs(r + C[s] * h, stages[-1]))
    y8 = _combine(y, h, B, ks)
    scale = [rtol / 100 + rtol * max(abs(yj), abs(y8j)) for yj, y8j in zip(y, y8)]
    e5 = [_dot(E5, ks, j) / sc for j, sc in enumerate(scale)]
    e3 = [_dot(E3, ks, j) / sc for j, sc in enumerate(scale)]
    n5 = n3 = 0.0
    for a, b in zip(e5, e3):
        n5 += a * a
        n3 += b * b
    den = n5 + 0.01 * n3
    err = abs(h) * n5 / math.sqrt(len(y) * den) if den > 0 else 0.0 if den == 0 else math.nan
    return stages, y8, ks, e5, e3, scale, math.inf if err != err else err


def dop853_reference(rhs, r, y, r_end, rtol=1e-10):
    """The adaptive DOP853 loop of the first-order system y' = rhs(r, y) from
    scipy's tableau, with the error scale rtol / 100 + rtol |y|:
    (r samples, y samples, rejections)."""
    rs, ys, rejected = [r], [y], 0
    h = (r_end - r) / 100.0
    k1 = rhs(r, y)
    while r < r_end:
        last = h >= r_end - r
        h = r_end - r if last else h
        _, y8, _, _, _, _, err = first_order_step(rhs, r, y, h, k1, rtol)
        if err <= 1.0:
            r, y = r_end if last else r + h, y8
            k1 = rhs(r, y)
            rs.append(r)
            ys.append(y)
        else:
            rejected += 1
        h *= min(10.0, max(0.2, 0.9 * err ** -0.125 if err > 0 else 10.0))
    return np.array(rs), np.array(ys), rejected


def duffing(r, y):
    """A forced Duffing oscillator, y'' = -y/2 - y^3 + 0.3 cos r: y' does not enter."""
    return -0.5 * y - y * y * y + 0.3 * math.cos(r)


def _sum_text(terms):
    """A weighted sum as the kernel writes it: a - c k for a negative weight
    after the first, which rounds as a + (-c) k."""
    text = ""
    for c, name in terms:
        if not text:
            text = "%r * %s" % (c, name)
        else:
            text += (" - %r * %s" if c < 0 else " + %r * %s") % (abs(c), name)
    return text


class TestNystromStep:
    """The Nystrom form of rk_integrate's DOP853 step against scipy's tableau."""

    @staticmethod
    def times_a(w, A, l):
        """(w A)_l, added left to right in an explicit loop (``sum()``
        compensates from Python 3.12 on), and the size of its terms."""
        acc = size = 0.0
        for wj, row in zip(w, A):
            acc += wj * row[l]
            size += abs(wj * row[l])
        return acc, size

    def test_literals_are_the_tableau_products(self):
        # every weight the kernel writes, bit for bit and in its place: stage
        # i takes u + h (c_i v + h sum_l (A^2)_il klv), u8 the weights b A,
        # e5u and e3u e5 A and e3 A, the rest scipy's weights as they are;
        # a product zero to rounding (8 ulp of its terms) is left out
        A, B, C, E5, E3 = dop853_tableau()
        eps = 2.0 ** -52

        def products(w):
            terms = []
            for l in range(12):
                p, size = self.times_a(w, A, l)
                if abs(p) > 8 * eps * size:
                    terms.append((p, "k%dv" % (l + 1)))
            return terms

        def plain(w):
            return [(x, "k%dv" % (j + 1)) for j, x in enumerate(w) if x != 0.0]

        expected = {"k13v": "rhs(r8, u8)",
                    "u8": "u + h * (v + h * (%s))" % _sum_text(products(B)),
                    "v8": "v + h * (%s)" % _sum_text(plain(B)),
                    "e5u": "h * (%s) / su" % _sum_text(products(E5)),
                    "e5v": "(%s) / sv" % _sum_text(plain(E5)),
                    "e3u": "h * (%s) / su" % _sum_text(products(E3)),
                    "e3v": "(%s) / sv" % _sum_text(plain(E3))}
        for i in range(1, 12):
            c, terms = C[i], products(A[i])
            cv = "v" if c == 1.0 else "%r * v" % c
            stage = "u + h * (%s + h * (%s))" % (cv, _sum_text(terms)) if terms else "u + h * (%s)" % cv
            expected["k%dv" % (i + 1)] = "rhs(%s, %s)" % ("r + h" if c == 1.0 else "r + %r * h" % c, stage)
        tree = ast.parse(inspect.getsource(numerics.rk_integrate))
        kernel = {node.targets[0].id: node.value for node in ast.walk(tree)
                  if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)}
        for name, text in expected.items():
            assert ast.dump(kernel[name]) == ast.dump(ast.parse(text, mode="eval").body), name

    def test_left_out_terms_are_zero(self):
        # the identities that drop terms of the first-order step hold to
        # rounding: c_i = sum_j a_ij (the c_i v of stage i), sum b = 1 (the v
        # of u8), sum e5 = sum e3 = 0 (no v in e5u and e3u), and
        # (b A)_l = b_l (1 - c_l), which is zero for the b_4 = b_5 = 0 that
        # u8 leaves out
        A, B, C, E5, E3 = dop853_tableau()
        eps = 2.0 ** -52
        for i in range(12):
            assert abs(math.fsum(A[i]) - C[i]) <= 4 * eps * max(1.0, math.fsum(map(abs, A[i]))), i
        for w, total in ((B, 1.0), (E5, 0.0), (E3, 0.0)):
            assert abs(math.fsum(w) - total) <= 8 * eps * math.fsum(map(abs, w))
        for l in range(12):
            p, size = self.times_a(B, A, l)
            assert abs(p - B[l] * (1.0 - C[l])) <= 8 * eps * max(size, abs(B[l])), l

    @pytest.mark.parametrize("seed", range(6))
    def test_one_step_is_the_first_order_step(self, seed):
        # a step from a seeded random (r, y, y', h) against the same step of
        # the first-order system (y', y''), at an rtol that makes the error
        # norm 0.3.  Each result is compared within 64 ulp of the size of
        # its terms in either form (measured at most 13 over 500 seeds):
        # the stage states, y8 and y'8, and the norm, read back from the
        # next stride 0.9 norm^(-1/8) h, whose error sums are small
        # differences of large terms
        A, B, C, E5, E3 = dop853_tableau()
        tol = 64 * 2.0 ** -52
        rng = np.random.default_rng(seed)
        r0, u, v = rng.uniform(-2.0, 2.0, 3).tolist()
        r_end = r0 + 100.0 * float(rng.uniform(0.2, 1.0))
        h = (r_end - r0) / 100.0  # the kernel's first stride
        system = lambda r, y: (y[1], duffing(r, y[0]))
        first = system(r0, (u, v))
        rtol = first_order_step(system, r0, (u, v), h, first, 1.0)[-1] / 0.3
        stages, y8, ks, e5, e3, scale, err = first_order_step(system, r0, (u, v), h, first, rtol)

        def nystrom(w):
            """|h| sum_l |(w A)_l k_l v|: the size of the terms that replace sum_j |w_j k_j u|"""
            return abs(h) * math.fsum(abs(self.times_a(w, A, l)[0] * k[1]) for l, k in enumerate(ks))

        calls, seen = [], []
        sol = rk_integrate(lambda r, y: calls.append((r, y)) or duffing(r, y), r0, (u, v), r_end,
                           stop_condition=lambda r, y: seen.append(r) or len(seen) == 2, rtol=rtol)
        assert sol.r[1] == r0 + h and len(calls) > 23
        for i, (stage, (r, y)) in enumerate(zip(stages, calls[1:12]), 1):
            assert r == r0 + C[i] * h
            size = abs(u) + abs(h) * (_magnitude(A[i], ks, 0) + abs(C[i] * v) + nystrom(A[i]))
            assert abs(y - stage[0]) <= tol * size, i
        u8, v8 = sol.y[1], sol.dy[1]
        assert calls[12] == (r0 + h, u8)
        assert abs(u8 - y8[0]) <= tol * (abs(u) + abs(h) * (_magnitude(B, ks, 0) + abs(v) + nystrom(B)))
        assert abs(v8 - y8[1]) <= tol * (abs(v) + abs(h) * _magnitude(B, ks, 1))
        # a relative change d of the e5 vector's length E moves the norm by
        # at most 3 d, one of d3 in the e3 vector by 0.05 d3 E3 / E
        size5 = (_magnitude(E5, ks, 0) + nystrom(E5)) / scale[0] + _magnitude(E5, ks, 1) / scale[1]
        size3 = (_magnitude(E3, ks, 0) + nystrom(E3)) / scale[0] + _magnitude(E3, ks, 1) / scale[1]
        bound = tol * (3.0 * size5 + 0.05 * size3) / math.hypot(*e5)
        stride = calls[23][0] - sol.r[1]
        bound += 8 * math.ulp(calls[23][0]) / stride
        assert err == pytest.approx(0.3, rel=1e-9)
        assert abs((0.9 * h / stride) ** 8 / err - 1.0) <= bound < 1e-3

    @staticmethod
    def system(name, params):
        if name == "duffing":
            return duffing, 0.0, (2.0, 0.0), 20.0
        # the w form from x = 0, whose first evaluation takes the x = 0 branch
        f = lambda x, w: shooting.ode_rhs(x, w, params.m_squared)
        return f, 0.0, (0.0, 0.9083), 80.0

    @pytest.mark.parametrize("rtol", (1e-10, 1e-8))
    @pytest.mark.parametrize("name", ("duffing", "profile"))
    def test_trajectory_and_rhs_calls(self, name, params_m01, rtol):
        # a whole run: 1 + 12 x attempted RHS calls, with rejections, and y''
        # at each sample from the FSAL stage.  The first-order loop accepts
        # and rejects as many steps and ends on the same state to a tenth of
        # rtol (measured 0.009 at most), not bit for bit: rounding moves the
        # step sizes
        f, r0, y0, r_end = self.system(name, params_m01)
        calls = []
        sol = rk_integrate(lambda r, y: calls.append(r) or f(r, y), r0, y0, r_end, rtol=rtol)
        rejected = sol.attempted - (len(sol.r) - 1)
        assert len(calls) == 1 + 12 * sol.attempted
        assert rejected > 0
        assert list(sol.ddy) == [f(r, y) for r, y in zip(sol.r, sol.y)]
        ref_r, ref_y, ref_rejected = dop853_reference(lambda r, y: (y[1], f(r, y[0])), r0, y0, r_end, rtol=rtol)
        assert (len(ref_r), ref_rejected) == (len(sol.r), rejected)
        assert sol.r[-1] == ref_r[-1] == r_end
        assert np.abs(states(sol)[-1] - ref_y[-1]).max() <= 0.1 * rtol * np.abs(ref_y).max()

    def test_step_budget(self, monkeypatch):
        # the budget counts attempted steps; the partial run carries them
        monkeypatch.setattr(numerics, "_MAX_STEPS", 3)
        calls = []
        partial = rk_integrate(lambda r, y: calls.append(r) or duffing(r, y), 0.0, (2.0, 0.0), 20.0)
        assert partial.stop == "step budget"
        assert partial.attempted == 3
        assert len(calls) == 1 + 12 * 3


class TestBisect:
    def test_threshold_predicate(self):
        root = bisect(lambda x: "low" if x < 2 else "high", (0.0, 4.0), 1e-12)
        assert root == pytest.approx(2.0, abs=1e-12)

    def test_sqrt_two(self):
        pred = lambda x: x * x - 2 < 0
        root = bisect(pred, (1.0, 2.0), 1e-12)
        assert root == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_invalid_bracket(self):
        with pytest.raises(InvalidBracketError) as info:
            bisect(lambda x: True, (0.0, 1.0), 1e-6)
        assert info.value.label is True

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

    def test_tol_below_float_spacing_terminates(self):
        # the bracket closes on 1.0 from below, one halving per bit, until
        # float64 has no point left between its ends: 1 - 2**-53 and 1.0
        seen = []
        root = bisect(lambda x: seen.append(x) or x < 1.0, (0.0, 2.0), 1e-300)
        assert math.nextafter(1.0, 0.0) <= root <= 1.0
        assert seen[-1] == math.nextafter(1.0, 0.0)
        assert len(seen) == 2 + 54


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
        with pytest.raises(InvalidBracketError, match="both ends classify as 'high'") as info:
            brent(labelled(lambda x: x - self.ROOT, self.ROOT, []), (0.5, 1.0), 1e-6)
        assert info.value.label == "high"
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
