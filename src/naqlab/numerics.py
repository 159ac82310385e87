"""Deterministic numerical kernels shared by the rest of the package.

Provides globally adaptive Gauss-Kronrod quadrature, adaptive explicit
Runge-Kutta integration with the Dormand-Prince 5(4) embedded pair,
bracketing root-finders on a two-way classifier (bisection, and Brent's
method when each probe also gives a signed residual), and numpy's
second-order finite differences on possibly non-uniform sample points.

The integrator runs from ``(r0, y0)`` and returns its samples in three
``array('d')`` buffers, with the value that stopped it, if any.  Its error
scale is one argument, ``rtol`` (default 1e-10), with ``atol = rtol / 100``;
at most 10^6 steps are attempted.

Everything here is a pure function of its inputs; all arithmetic is
64-bit IEEE-754.  The integrator's state has two components, ``(y, y')``
of a second-order radial equation such as the shooting problem's
``(eta, eta')``.  It keeps them in scalar Python floats with every
Dormand-Prince stage written out per component: the state goes to the
right-hand side as a 2-tuple and comes back as two Python floats, which
costs far less than numpy's per-call overhead or a loop over components.
Only ``centered_derivative`` imports numpy, when it is called.
"""

from __future__ import annotations

import heapq
import math
from array import array
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

_Record = TypeVar("_Record")

__all__ = [
    "QuadResult",
    "QuadratureBudgetError",
    "quad_adaptive",
    "RkSolution",
    "IntegrationBlowUp",
    "rk_integrate",
    "InvalidBracketError",
    "bisect",
    "brent",
    "centered_derivative",
]


# ---------------------------------------------------------------------------
# Adaptive quadrature (Gauss-Kronrod 15-7)
# ---------------------------------------------------------------------------

# Kronrod-15 abscissae on [-1, 1] together with the Kronrod weights and the
# embedded Gauss-7 weights (zero at the Kronrod-only nodes).
_GK15 = (
    # node                 Gauss-7 weight       Kronrod-15 weight
    (+0.949107912342759, 0.129484966168870, 0.063092092629979),
    (-0.949107912342759, 0.129484966168870, 0.063092092629979),
    (+0.741531185599394, 0.279705391489277, 0.140653259715525),
    (-0.741531185599394, 0.279705391489277, 0.140653259715525),
    (+0.405845151377397, 0.381830050505119, 0.190350578064785),
    (-0.405845151377397, 0.381830050505119, 0.190350578064785),
    (0.000000000000000, 0.417959183673469, 0.209482141084728),
    (+0.991455371120813, 0.000000000000000, 0.022935322010529),
    (-0.991455371120813, 0.000000000000000, 0.022935322010529),
    (+0.864864423359769, 0.000000000000000, 0.104790010322250),
    (-0.864864423359769, 0.000000000000000, 0.104790010322250),
    (+0.586087235467691, 0.000000000000000, 0.169004726639267),
    (-0.586087235467691, 0.000000000000000, 0.169004726639267),
    (+0.207784955007898, 0.000000000000000, 0.204432940075298),
    (-0.207784955007898, 0.000000000000000, 0.204432940075298),
)


@dataclass(frozen=True)
class QuadResult:
    """Value, a posteriori absolute error estimate, and evaluation count."""

    value: float
    error_estimate: float
    evaluations: int


class QuadratureBudgetError(RuntimeError):
    """Raised when the evaluation budget runs out before convergence.

    Carries the partial result so callers can inspect how far the
    refinement got.
    """

    def __init__(self, partial: QuadResult):
        super().__init__(
            "quadrature budget exceeded: %d evaluations, "
            "error estimate %.3e" % (partial.evaluations, partial.error_estimate)
        )
        self.partial = partial


def _gk15_panel(f, a, b):
    """One Gauss-Kronrod 15-7 panel on [a, b]: (value, error, evals)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    g7 = 0.0
    k15 = 0.0
    for node, wg, wk in _GK15:
        fx = f(mid + half * node)
        g7 += wg * fx
        k15 += wk * fx
    raw = abs(k15 - g7) * half
    # QUADPACK-style sharpening of the raw G7/K15 discrepancy.  It can lower
    # only an estimate below 1/200, and its power overflows for huge ones.  A
    # nan discrepancy (a nan or infinite panel) is an infinite error.
    err = min(raw, (200.0 * raw) ** 1.5) if 0 < raw < 0.005 else raw if raw == raw else math.inf
    return k15 * half, err, 15


# Integrand evaluations one quad_adaptive call may spend.
_MAX_EVALUATIONS = 500_000


def quad_adaptive(f: Callable[[float], float], a: float, b: float, tol: float) -> QuadResult:
    """Integrate ``f`` over [a, b] to within ``max(tol, tol*|value|)``.

    Globally adaptive: the subinterval with the largest error estimate is
    bisected until the summed estimate meets the tolerance.  A semi-infinite
    upper limit (``b = inf``) is mapped to a finite interval by the change
    of variable u = 1/r (requires ``a > 0``); the Kronrod nodes are interior
    so the u = 0 endpoint is never evaluated.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if math.isinf(b):
        if a <= 0:
            raise ValueError("semi-infinite integration requires a > 0")
        inner = f
        f = lambda u: inner(1.0 / u) / (u * u)
        a, b = 0.0, 1.0 / a
    if not a < b:
        raise ValueError("require a < b")

    value, err, evals = _gk15_panel(f, a, b)
    # Max-heap on the error estimate; the counter breaks exact ties
    # deterministically.
    counter = 0
    heap = [(-err, counter, a, b, value, err)]
    # Whenever the re-summed total can pass its test, its tolerance is at most
    # max(tol, tol * bound), bound being the sum of the finite |value| of
    # every panel made (1e-6 covers rounding), and the summed error is at
    # least the largest one.  So the heap is re-summed only when the largest
    # error is within that, or to report a failure.
    bound = abs(value) if math.isfinite(value) else 0.0
    while True:
        lo, hi = heap[0][2:4]
        mid = 0.5 * (lo + hi)
        # The budget, or an interval no longer splittable in float64, ends it.
        stuck = evals + 30 > _MAX_EVALUATIONS or mid <= lo or mid >= hi
        if stuck or -heap[0][0] <= max(tol, tol * bound * (1 + 1e-6)):
            # Left to right, uncompensated: sum() of floats compensates from
            # Python 3.12 on, which would change the bits with the version.
            total = total_err = 0.0
            for item in heap:
                total += item[4]
                total_err += item[5]
            # An infinite total gives an infinite tolerance; it never converges.
            if total_err <= max(tol, tol * abs(total)) < math.inf:
                return QuadResult(total, total_err, evals)
            if stuck:
                raise QuadratureBudgetError(QuadResult(total, total_err, evals))
        heapq.heappop(heap)
        for left, right in ((lo, mid), (mid, hi)):
            v, e, n = _gk15_panel(f, left, right)
            evals += n
            counter += 1
            bound += abs(v) if math.isfinite(v) else 0.0
            heapq.heappush(heap, (-e, counter, left, right, v, e))


# ---------------------------------------------------------------------------
# Explicit Runge-Kutta integration
# ---------------------------------------------------------------------------


# DP5 steps one rk_integrate call may attempt.
_MAX_STEPS = 1_000_000


@dataclass
class RkSolution:
    """Accepted samples as ``array('d')`` buffers, which ``np.asarray`` reads
    without a copy: radii ``r`` and the two state components ``y`` and
    ``dy``, all of the same length."""

    r: array
    y: array
    dy: array
    stop: object  # what stop_condition returned to halt the run; None at r_end


class IntegrationBlowUp(RuntimeError):
    """Step underflow or a non-finite state; carries the partial trajectory,
    whose last sample is the last valid state."""

    def __init__(self, message: str, partial: RkSolution):
        super().__init__("integration blow-up: " + message)
        self.partial = partial


def rk_integrate(
    rhs: Callable[[float, tuple], Sequence[float]],
    r0: float,
    y0: Sequence[float],
    r_end: float,
    stop_condition: Callable[[float, tuple], object] | None = None,
    rtol: float = 1e-10,
) -> RkSolution:
    """Integrate y' = rhs(r, y) from y(r0) = y0 to ``r_end`` with adaptive DP5.

    The state has two components, as every second-order radial equation
    written as a first-order system does.  ``rhs`` receives it as a tuple
    ``(y0, y1)`` of floats and returns any sequence of two floats.  The
    Dormand-Prince 5(4) pair evaluates its last stage at the 5th-order
    solution and reuses it as the first stage of the next step (FSAL), so an
    integration costs 1 + 6 x (attempted steps) RHS evaluations.  A step is
    accepted when the RMS of its embedded error estimate, scaled by
    ``rtol / 100 + rtol * max(|y|, |y_new|)`` per component, is at most 1,
    so the work grows like ``rtol ** -0.2``; the first stride is 1/100 of
    the span, and at most 10^6 steps are attempted.
    A step cut short to end on ``r_end`` lands on it exactly.  Samples are
    retained at every accepted step, in the buffers ``r``, ``y`` and ``dy``
    of the returned ``RkSolution``.  ``stop_condition(r, y)`` is checked
    after each accepted step; a truthy value halts the integration there
    (the triggering sample is retained) and is returned as ``stop``, which
    is None when the run reaches ``r_end``.

    Raises
    ------
    ValueError
        if ``y0`` does not have two components, ``r_end`` does not exceed
        ``r0`` or ``rtol`` is not positive and finite.
    IntegrationBlowUp
        on non-finite state or step-size underflow; the exception carries
        the partial trajectory, which ends at the last valid state.
    """
    if len(y0) != 2:
        raise ValueError("the state must have two components, got %d" % len(y0))
    r, r_end = float(r0), float(r_end)
    u, v = float(y0[0]), float(y0[1])
    if not r_end > r:
        raise ValueError("r_end must exceed the initial radius %r, got %r" % (r, r_end))
    if not 0.0 < rtol < math.inf:
        raise ValueError("rtol must be positive and finite, got %r" % (rtol,))
    atol = rtol / 100.0
    rs, us, vs = array("d", (r,)), array("d", (u,)), array("d", (v,))

    def _blowup(msg):
        raise IntegrationBlowUp(msg, RkSolution(rs, us, vs, None))

    h = (r_end - r) / 100.0
    k1u, k1v = rhs(r, (u, v))
    nsteps = 0
    stop = None
    while r < r_end:
        last = h >= r_end - r
        if last:
            h = r_end - r
        if h < 1e-14 * max(abs(r), 1.0):
            _blowup("step underflow at r = %g" % r)
        # The Dormand-Prince tableau, unrolled over the two components.  Each
        # weighted sum adds its nonzero terms left to right in tableau order:
        # that order fixes the rounding of every result.  The stage-7 row
        # equals the 5th-order weights, so the last stage is evaluated at the
        # 5th-order solution (u5, v5) itself.
        k2u, k2v = rhs(r + 1 / 5 * h, (
            u + h * (1 / 5 * k1u),
            v + h * (1 / 5 * k1v)))
        k3u, k3v = rhs(r + 3 / 10 * h, (
            u + h * (3 / 40 * k1u + 9 / 40 * k2u),
            v + h * (3 / 40 * k1v + 9 / 40 * k2v)))
        k4u, k4v = rhs(r + 4 / 5 * h, (
            u + h * (44 / 45 * k1u + -56 / 15 * k2u + 32 / 9 * k3u),
            v + h * (44 / 45 * k1v + -56 / 15 * k2v + 32 / 9 * k3v)))
        k5u, k5v = rhs(r + 8 / 9 * h, (
            u + h * (19372 / 6561 * k1u + -25360 / 2187 * k2u
                     + 64448 / 6561 * k3u + -212 / 729 * k4u),
            v + h * (19372 / 6561 * k1v + -25360 / 2187 * k2v
                     + 64448 / 6561 * k3v + -212 / 729 * k4v)))
        k6u, k6v = rhs(r + h, (
            u + h * (9017 / 3168 * k1u + -355 / 33 * k2u + 46732 / 5247 * k3u
                     + 49 / 176 * k4u + -5103 / 18656 * k5u),
            v + h * (9017 / 3168 * k1v + -355 / 33 * k2v + 46732 / 5247 * k3v
                     + 49 / 176 * k4v + -5103 / 18656 * k5v)))
        u5 = u + h * (35 / 384 * k1u + 500 / 1113 * k3u + 125 / 192 * k4u
                      + -2187 / 6784 * k5u + 11 / 84 * k6u)
        v5 = v + h * (35 / 384 * k1v + 500 / 1113 * k3v + 125 / 192 * k4v
                      + -2187 / 6784 * k5v + 11 / 84 * k6v)
        k7u, k7v = rhs(r + h, (u5, v5))
        eu = (u5 - (u + h * (5179 / 57600 * k1u + 7571 / 16695 * k3u + 393 / 640 * k4u
                             + -92097 / 339200 * k5u + 187 / 2100 * k6u + 1 / 40 * k7u))
              ) / (atol + rtol * max(abs(u), abs(u5)))
        ev = (v5 - (v + h * (5179 / 57600 * k1v + 7571 / 16695 * k3v + 393 / 640 * k4v
                             + -92097 / 339200 * k5v + 187 / 2100 * k6v + 1 / 40 * k7v))
              ) / (atol + rtol * max(abs(v), abs(v5)))
        errnorm = math.sqrt((eu * eu + ev * ev) / 2)
        if errnorm != errnorm:
            # A non-finite trial stage gives nan: reject and retry with a
            # smaller stride; a diverging solution ends in step underflow.
            errnorm = math.inf
        if errnorm <= 1.0:
            # r + (r_end - r) can round to a float just short of r_end
            r = r_end if last else r + h
            u, v = u5, v5
            k1u, k1v = k7u, k7v  # FSAL: k7 equals k1 of the next step
            rs.append(r)
            us.append(u)
            vs.append(v)
            if stop_condition is not None and (stop := stop_condition(r, (u, v))):
                break
        factor = 0.9 * (errnorm ** -0.2) if errnorm > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
        nsteps += 1
        if nsteps > _MAX_STEPS:
            _blowup("step budget exceeded")
    return RkSolution(rs, us, vs, stop or None)


# ---------------------------------------------------------------------------
# Root bracketing on a two-way classifier: bisection and Brent's method
# ---------------------------------------------------------------------------


class InvalidBracketError(ValueError):
    """Both bracket ends classify the same way."""


def _check_bracket(bracket, tol) -> tuple[float, float]:
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must be ordered (lo, hi)")
    if not tol > 0:
        raise ValueError("tol must be positive")
    return lo, hi


def bisect(
    predicate: Callable[[float], object],
    bracket: tuple[float, float],
    tol: float,
) -> float:
    """Bisect until the bracket is narrower than ``tol``.

    ``predicate`` may return any two distinct labels; the bracket ends must
    classify differently.  Returns the midpoint of the final bracket, so the
    answer is within tol/2 of the true crossover.
    """
    lo, hi = _check_bracket(bracket, tol)
    p_lo = predicate(lo)
    p_hi = predicate(hi)
    if p_lo == p_hi:
        raise InvalidBracketError(
            "invalid bracket: both ends classify as %r" % (p_lo,)
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break  # float64 exhausted
        if predicate(mid) == p_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def brent(
    probe: Callable[[float], _Record],
    bracket: tuple[float, float],
    tol: float,
) -> _Record:
    """Brent's method (Brent 1973, *Algorithms for Minimization without
    Derivatives*, ch. 4) on a labelled, signed residual.

    ``probe(x)`` returns a record with a ``label``, one of two distinct
    values as for ``bisect``, and a ``residual`` whose sign follows the
    label and whose size shrinks toward the crossover.  The labels keep the
    bracket; the residuals only steer it.  Each step is inverse-quadratic
    (or secant) interpolation, replaced by a bisection whenever it would
    leave the bracket or shrink it too slowly, and is at least tol/2 (and
    one float) long.  Stops once the bracket is no wider than ``tol``, or
    when float64 has no point left inside it, and returns the record of
    whichever end of that bracket has the smaller |residual|.
    """
    lo, hi = _check_bracket(bracket, tol)
    a, pa = lo, probe(lo)
    b, pb = hi, probe(hi)
    if pa.label == pb.label:
        raise InvalidBracketError(
            "invalid bracket: both ends classify as %r" % (pa.label,)
        )
    # b is the best end so far, c the other end of the bracket (its label
    # differs from b's), a the previous b; d is the last step, e the one
    # before it.
    c, pc = a, pa
    d = e = b - a
    while True:
        if abs(pc.residual) < abs(pb.residual):
            a, pa = b, pb
            b, pb, c, pc = c, pc, b, pb
        half = 0.5 * (c - b)
        if abs(c - b) <= tol:
            return pb
        fa, fb, fc = pa.residual, pb.residual, pc.residual
        if abs(e) >= 0.5 * tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p, q = 2.0 * half * s, 1.0 - s
            else:
                qa, r = fa / fc, fb / fc
                p = s * (2.0 * half * qa * (qa - r) - (b - a) * (r - 1.0))
                q = (qa - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0:
                q = -q
            p = abs(p)
            # Accept the interpolated step only if it stays well inside the
            # bracket and is less than half the step before last.
            if 2.0 * p < min(3.0 * half * q - abs(0.5 * tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                e = d = half
        else:
            e = d = half
        x = b + (d if abs(d) > 0.5 * tol else math.copysign(0.5 * tol, half))
        if x == b or x == c:
            # The step rounds onto an end: take the next float from b.
            x = math.nextafter(b, c)
            if x == c:
                return pb  # float64 exhausted
        a, pa = b, pb
        b, pb = x, probe(x)
        if pb.label == pc.label:
            c, pc = a, pa
            e = d = b - a


# ---------------------------------------------------------------------------
# Finite differences on (possibly non-uniform) samples
# ---------------------------------------------------------------------------


def centered_derivative(x: Sequence[float], f: Sequence[float]):
    """Second-order df/dx on sample points ``x`` (strictly increasing).

    ``np.gradient(f, x, edge_order=2)``: the three-point centered formula for
    non-uniform spacing at interior points and the matching one-sided
    three-point formula (also second order) at the two end points.
    """
    import numpy as np

    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    if x.ndim != 1 or x.shape != f.shape or x.size < 3:
        raise ValueError("need at least 3 matching 1-D samples")
    if not np.all(np.diff(x) > 0):
        raise ValueError("sample points must be strictly increasing")
    return np.gradient(f, x, edge_order=2)
