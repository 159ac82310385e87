"""Deterministic numerical kernels shared by the rest of the package.

Provides globally adaptive Gauss-Kronrod quadrature, adaptive explicit
Runge-Kutta integration with the Dormand-Prince 5(4) embedded pair,
bracketing bisection on a two-way classifier, and second-order finite
differences on possibly non-uniform sample points.

Everything here is a pure function of its inputs; all arithmetic is
64-bit IEEE-754.  The integrator works on plain Python floats: the state
goes to the right-hand side as a tuple, which for the small states of the
shooting problem costs far less than numpy's per-call overhead.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "QuadResult",
    "QuadratureBudgetError",
    "quad_adaptive",
    "OdeState",
    "StepControls",
    "RkSolution",
    "IntegrationBlowUp",
    "rk_integrate",
    "InvalidBracketError",
    "bisect",
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

    def __post_init__(self):
        if self.error_estimate < 0 or self.evaluations < 1:
            raise ValueError("malformed quadrature result")


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
    # QUADPACK-style sharpening of the raw G7/K15 discrepancy.
    err = min(raw, (200.0 * raw) ** 1.5) if raw > 0 else 0.0
    return k15 * half, err, 15


def quad_adaptive(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    *,
    max_evaluations: int = 500_000,
) -> QuadResult:
    """Integrate ``f`` over [a, b] to within ``max(tol, tol*|value|)``.

    Globally adaptive: the subinterval with the largest error estimate is
    bisected until the summed estimate meets the tolerance.  A semi-infinite
    upper limit (``b = inf``) is mapped to a finite interval by the change
    of variable u = 1/r (requires ``a > 0``); the Kronrod nodes are interior
    so the u = 0 endpoint is never evaluated.
    """
    if tol <= 0:
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
    while True:
        total = sum(item[4] for item in heap)
        total_err = sum(item[5] for item in heap)
        if total_err <= max(tol, tol * abs(total)):
            return QuadResult(total, total_err, evals)
        if evals + 30 > max_evaluations:
            raise QuadratureBudgetError(QuadResult(total, total_err, evals))
        _, _, lo, hi, _, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Interval no longer splittable in float64; keep it as-is.
            raise QuadratureBudgetError(QuadResult(total, total_err, evals))
        for left, right in ((lo, mid), (mid, hi)):
            v, e, n = _gk15_panel(f, left, right)
            evals += n
            counter += 1
            heapq.heappush(heap, (-e, counter, left, right, v, e))


# ---------------------------------------------------------------------------
# Explicit Runge-Kutta integration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OdeState:
    """A point on a radial trajectory: coordinate r > 0 and state vector y."""

    r: float
    y: tuple

    def __post_init__(self):
        if not self.r > 0:
            raise ValueError("radial coordinate must be positive (r = %r)" % (self.r,))


@dataclass(frozen=True)
class StepControls:
    """Controls of the adaptive Dormand-Prince 5(4) integration.

    A step is accepted when the RMS of its embedded error estimate, scaled
    by ``atol + rtol * max(|y|, |y_new|)`` per component, is at most 1.
    ``h_max`` caps the stride; ``max_steps`` caps the attempted steps.
    """

    rtol: float = 1e-10
    atol: float = 1e-12
    h_max: float | None = None
    max_steps: int = 1_000_000

    def __post_init__(self):
        if not (self.atol > 0 and self.rtol >= 0):
            raise ValueError("need atol > 0 and rtol >= 0: the error scale must stay positive")


@dataclass
class RkSolution:
    r: np.ndarray
    y: np.ndarray  # shape (len(r), dim)


class IntegrationBlowUp(RuntimeError):
    """Step underflow or a non-finite state; carries the last valid state."""

    def __init__(self, message: str, last_state: OdeState, partial: "RkSolution"):
        super().__init__("integration blow-up: " + message)
        self.last_state = last_state
        self.partial = partial


def rk_integrate(
    rhs: Callable[[float, tuple], Sequence[float]],
    state0: OdeState,
    r_end: float,
    controls: StepControls = StepControls(),
    stop_condition: Callable[[float, tuple], bool] | None = None,
) -> RkSolution:
    """Integrate y' = rhs(r, y) from ``state0`` to ``r_end`` with adaptive DP5.

    ``rhs`` receives the state as a tuple of floats and may return any
    sequence of ``len(y)`` floats.  The Dormand-Prince 5(4) pair reuses the
    last stage of an accepted step as the first of the next (FSAL), so an
    integration costs 1 + 6 x (attempted steps) RHS evaluations.  Samples
    are retained at every accepted step.  ``stop_condition(r, y)`` is
    checked after each accepted step and halts the integration early when
    it returns True (the triggering sample is retained).

    Raises
    ------
    IntegrationBlowUp
        on non-finite state or step-size underflow; the exception carries
        the last valid state and the partial trajectory.
    """
    r = float(state0.r)
    y = tuple(float(v) for v in state0.y)
    if r_end <= r:
        raise ValueError("r_end must exceed the initial radius")
    rs = [r]
    ys = [y]

    def _blowup(msg):
        sol = RkSolution(np.array(rs), np.array(ys))
        raise IntegrationBlowUp(msg, OdeState(rs[-1], ys[-1]), sol)

    rtol, atol, h_max = controls.rtol, controls.atol, controls.h_max
    dim = len(y)
    span = r_end - r
    h = min(span / 100.0, h_max or span)
    k1 = rhs(r, y)
    nsteps = 0
    # An ndarray-returning rhs makes the stage values numpy scalars; their
    # inf/nan in rejected trial stages near a blow-up is expected and
    # handled below, so numpy's warnings carry no information.
    with np.errstate(invalid="ignore", over="ignore"):
        while r < r_end:
            h = min(h, r_end - r)
            if h < 1e-14 * max(abs(r), 1.0):
                _blowup("step underflow at r = %g" % r)
            # The Dormand-Prince tableau, unrolled.  Each weighted sum starts
            # from 0.0 and adds every term, zero weights included, in tableau
            # order: that order fixes the rounding of every result, and a
            # non-finite stage still turns a zero-weight term into nan.
            k2 = rhs(r + 1 / 5 * h, tuple(
                yj + h * (0.0 + 1 / 5 * k1j)
                for yj, k1j in zip(y, k1)))
            k3 = rhs(r + 3 / 10 * h, tuple(
                yj + h * (0.0 + 3 / 40 * k1j + 9 / 40 * k2j)
                for yj, k1j, k2j in zip(y, k1, k2)))
            k4 = rhs(r + 4 / 5 * h, tuple(
                yj + h * (0.0 + 44 / 45 * k1j + -56 / 15 * k2j + 32 / 9 * k3j)
                for yj, k1j, k2j, k3j in zip(y, k1, k2, k3)))
            k5 = rhs(r + 8 / 9 * h, tuple(
                yj + h * (0.0 + 19372 / 6561 * k1j + -25360 / 2187 * k2j
                          + 64448 / 6561 * k3j + -212 / 729 * k4j)
                for yj, k1j, k2j, k3j, k4j in zip(y, k1, k2, k3, k4)))
            k6 = rhs(r + h, tuple(
                yj + h * (0.0 + 9017 / 3168 * k1j + -355 / 33 * k2j + 46732 / 5247 * k3j
                          + 49 / 176 * k4j + -5103 / 18656 * k5j)
                for yj, k1j, k2j, k3j, k4j, k5j in zip(y, k1, k2, k3, k4, k5)))
            k7 = rhs(r + h, tuple(
                yj + h * (0.0 + 35 / 384 * k1j + 0.0 * k2j + 500 / 1113 * k3j
                          + 125 / 192 * k4j + -2187 / 6784 * k5j + 11 / 84 * k6j)
                for yj, k1j, k2j, k3j, k4j, k5j, k6j in zip(y, k1, k2, k3, k4, k5, k6)))
            ks = tuple(zip(y, k1, k2, k3, k4, k5, k6, k7))
            y5 = tuple(
                yj + h * (0.0 + 35 / 384 * k1j + 0.0 * k2j + 500 / 1113 * k3j + 125 / 192 * k4j
                          + -2187 / 6784 * k5j + 11 / 84 * k6j + 0.0 * k7j)
                for yj, k1j, k2j, k3j, k4j, k5j, k6j, k7j in ks)
            y4 = tuple(
                yj + h * (0.0 + 5179 / 57600 * k1j + 0.0 * k2j + 7571 / 16695 * k3j
                          + 393 / 640 * k4j + -92097 / 339200 * k5j + 187 / 2100 * k6j
                          + 1 / 40 * k7j)
                for yj, k1j, k2j, k3j, k4j, k5j, k6j, k7j in ks)
            errsq = 0.0
            for yj, y5j, y4j in zip(y, y5, y4):
                e = (y5j - y4j) / (atol + rtol * max(abs(yj), abs(y5j)))
                errsq += e * e
            errnorm = math.sqrt(errsq / dim)
            if errnorm != errnorm:
                # A non-finite trial stage gives nan: reject and retry with a
                # smaller stride; a diverging solution ends in step underflow.
                errnorm = math.inf
            if errnorm <= 1.0:
                r += h
                y = y5
                k1 = k7  # FSAL: k7 equals k1 of the next step
                rs.append(r)
                ys.append(y)
                if stop_condition is not None and stop_condition(r, y):
                    break
            factor = 0.9 * (errnorm ** -0.2) if errnorm > 0 else 5.0
            h *= min(5.0, max(0.2, factor))
            if h_max is not None:
                h = min(h, h_max)
            nsteps += 1
            if nsteps > controls.max_steps:
                _blowup("step budget exceeded")
    return RkSolution(np.array(rs), np.array(ys))


# ---------------------------------------------------------------------------
# Bisection on a two-way classifier
# ---------------------------------------------------------------------------


class InvalidBracketError(ValueError):
    """Both bracket ends classify the same way."""


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
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must be ordered (lo, hi)")
    if tol <= 0:
        raise ValueError("tol must be positive")
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


# ---------------------------------------------------------------------------
# Finite differences on (possibly non-uniform) samples
# ---------------------------------------------------------------------------


def centered_derivative(x: Sequence[float], f: Sequence[float]) -> np.ndarray:
    """Second-order df/dx on sample points ``x`` (strictly increasing).

    Interior points use the three-point centered formula for non-uniform
    spacing; the two endpoints use the matching one-sided three-point
    formula (also second order).
    """
    x = np.asarray(x, dtype=float)
    f = np.asarray(f, dtype=float)
    if x.ndim != 1 or x.shape != f.shape or x.size < 3:
        raise ValueError("need at least 3 matching 1-D samples")
    if not np.all(np.diff(x) > 0):
        raise ValueError("sample points must be strictly increasing")
    out = np.empty_like(f)
    h1 = x[1:-1] - x[:-2]
    h2 = x[2:] - x[1:-1]
    out[1:-1] = (
        h1**2 * f[2:] - h2**2 * f[:-2] - (h1**2 - h2**2) * f[1:-1]
    ) / (h1 * h2 * (h1 + h2))
    # one-sided second-order endpoints
    a, b = x[1] - x[0], x[2] - x[1]
    out[0] = (
        -(2 * a + b) / (a * (a + b)) * f[0]
        + (a + b) / (a * b) * f[1]
        - a / (b * (a + b)) * f[2]
    )
    a, b = x[-2] - x[-3], x[-1] - x[-2]
    out[-1] = (
        b / (a * (a + b)) * f[-3]
        - (a + b) / (a * b) * f[-2]
        + (a + 2 * b) / (b * (a + b)) * f[-1]
    )
    return out
