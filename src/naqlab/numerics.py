"""Deterministic numerical kernels shared by the rest of the package.

Provides globally adaptive Gauss-Kronrod quadrature, adaptive explicit
Runge-Kutta integration with the Dormand-Prince 8(5,3) pair (DOP853),
bracketing root-finders on a two-way classifier (bisection, and Brent's
method when each probe also gives a signed residual), and numpy's
second-order finite differences on possibly non-uniform sample points.

The integrator runs from ``(r0, y0)`` and returns its samples in three
``array('d')`` buffers, with the value that stopped it, if any.  Its error
scale is one argument, ``rtol`` (default 1e-10), with ``atol = rtol / 100``;
each step costs 12 RHS evaluations, the work grows like ``rtol ** (-1/8)``,
and at most 10^6 steps are attempted.

Everything here is a pure function of its inputs; all arithmetic is
64-bit IEEE-754.  The integrator's state has two components, ``(y, y')``
of a second-order radial equation such as the shooting problem's
``(eta, eta')``.  It keeps them in scalar Python floats with every
DOP853 stage written out per component: the state goes to the
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


# Steps one rk_integrate call may attempt.
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
    """Integrate y' = rhs(r, y) from y(r0) = y0 to ``r_end`` with adaptive DOP853.

    The state has two components, as every second-order radial equation
    written as a first-order system does.  ``rhs`` receives it as a tuple
    ``(y0, y1)`` of floats and returns any sequence of two floats.  The
    Dormand-Prince 8(5,3) pair has 12 stages; it evaluates its last one at
    the 8th-order solution and reuses it as the first stage of the next step
    (FSAL), so an integration costs 1 + 12 x (attempted steps) RHS
    evaluations.  With the 5th- and 3rd-order error estimates scaled by
    ``rtol / 100 + rtol * max(|y|, |y_new|)`` per component and their sums
    of squares ``n5`` and ``n3``, a step is accepted when Hairer's norm
    ``|h| n5 / sqrt(2 (n5 + 0.01 n3))`` is at most 1 (a nan norm, from a
    non-finite stage, rejects it), and the next stride is
    ``0.9 norm ** (-1/8)`` times this one, clamped to [0.2, 10]; so the work
    grows like ``rtol ** (-1/8)``.  The first stride is 1/100 of the span,
    and at most 10^6 steps are attempted.
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
        # The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I,
        # sec. II.10), unrolled over the two components.  Each weighted sum
        # adds its nonzero terms left to right in tableau order: that order
        # fixes the rounding of every result.  The FSAL row equals the 8th-order
        # weights, so the last stage is evaluated at the solution (u8, v8).
        k2u, k2v = rhs(r + 0.05260015195876773 * h, (
            u + h * (0.05260015195876773 * k1u),
            v + h * (0.05260015195876773 * k1v)))
        k3u, k3v = rhs(r + 0.0789002279381516 * h, (
            u + h * (0.0197250569845379 * k1u + 0.0591751709536137 * k2u),
            v + h * (0.0197250569845379 * k1v + 0.0591751709536137 * k2v)))
        k4u, k4v = rhs(r + 0.1183503419072274 * h, (
            u + h * (0.02958758547680685 * k1u + 0.08876275643042054 * k3u),
            v + h * (0.02958758547680685 * k1v + 0.08876275643042054 * k3v)))
        k5u, k5v = rhs(r + 0.2816496580927726 * h, (
            u + h * (0.2413651341592667 * k1u + -0.8845494793282861 * k3u
                     + 0.924834003261792 * k4u),
            v + h * (0.2413651341592667 * k1v + -0.8845494793282861 * k3v
                     + 0.924834003261792 * k4v)))
        k6u, k6v = rhs(r + 0.3333333333333333 * h, (
            u + h * (0.037037037037037035 * k1u + 0.17082860872947386 * k4u
                     + 0.12546768756682242 * k5u),
            v + h * (0.037037037037037035 * k1v + 0.17082860872947386 * k4v
                     + 0.12546768756682242 * k5v)))
        k7u, k7v = rhs(r + 0.25 * h, (
            u + h * (0.037109375 * k1u + 0.17025221101954405 * k4u + 0.06021653898045596 * k5u
                     + -0.017578125 * k6u),
            v + h * (0.037109375 * k1v + 0.17025221101954405 * k4v + 0.06021653898045596 * k5v
                     + -0.017578125 * k6v)))
        k8u, k8v = rhs(r + 0.3076923076923077 * h, (
            u + h * (0.03709200011850479 * k1u + 0.17038392571223998 * k4u
                     + 0.10726203044637328 * k5u + -0.015319437748624402 * k6u
                     + 0.008273789163814023 * k7u),
            v + h * (0.03709200011850479 * k1v + 0.17038392571223998 * k4v
                     + 0.10726203044637328 * k5v + -0.015319437748624402 * k6v
                     + 0.008273789163814023 * k7v)))
        k9u, k9v = rhs(r + 0.6512820512820513 * h, (
            u + h * (0.6241109587160757 * k1u + -3.3608926294469414 * k4u
                     + -0.868219346841726 * k5u + 27.59209969944671 * k6u
                     + 20.154067550477894 * k7u + -43.48988418106996 * k8u),
            v + h * (0.6241109587160757 * k1v + -3.3608926294469414 * k4v
                     + -0.868219346841726 * k5v + 27.59209969944671 * k6v
                     + 20.154067550477894 * k7v + -43.48988418106996 * k8v)))
        k10u, k10v = rhs(r + 0.6 * h, (
            u + h * (0.47766253643826434 * k1u + -2.4881146199716677 * k4u
                     + -0.590290826836843 * k5u + 21.230051448181193 * k6u
                     + 15.279233632882423 * k7u + -33.28821096898486 * k8u
                     + -0.020331201708508627 * k9u),
            v + h * (0.47766253643826434 * k1v + -2.4881146199716677 * k4v
                     + -0.590290826836843 * k5v + 21.230051448181193 * k6v
                     + 15.279233632882423 * k7v + -33.28821096898486 * k8v
                     + -0.020331201708508627 * k9v)))
        k11u, k11v = rhs(r + 0.8571428571428571 * h, (
            u + h * (-0.9371424300859873 * k1u + 5.186372428844064 * k4u
                     + 1.0914373489967295 * k5u + -8.149787010746927 * k6u
                     + -18.52006565999696 * k7u + 22.739487099350505 * k8u
                     + 2.4936055526796523 * k9u + -3.0467644718982196 * k10u),
            v + h * (-0.9371424300859873 * k1v + 5.186372428844064 * k4v
                     + 1.0914373489967295 * k5v + -8.149787010746927 * k6v
                     + -18.52006565999696 * k7v + 22.739487099350505 * k8v
                     + 2.4936055526796523 * k9v + -3.0467644718982196 * k10v)))
        k12u, k12v = rhs(r + h, (
            u + h * (2.273310147516538 * k1u + -10.53449546673725 * k4u
                     + -2.0008720582248625 * k5u + -17.9589318631188 * k6u
                     + 27.94888452941996 * k7u + -2.8589982771350235 * k8u
                     + -8.87285693353063 * k9u + 12.360567175794303 * k10u
                     + 0.6433927460157636 * k11u),
            v + h * (2.273310147516538 * k1v + -10.53449546673725 * k4v
                     + -2.0008720582248625 * k5v + -17.9589318631188 * k6v
                     + 27.94888452941996 * k7v + -2.8589982771350235 * k8v
                     + -8.87285693353063 * k9v + 12.360567175794303 * k10v
                     + 0.6433927460157636 * k11v)))
        u8 = u + h * (0.054293734116568765 * k1u + 4.450312892752409 * k6u
                      + 1.8915178993145003 * k7u + -5.801203960010585 * k8u
                      + 0.3111643669578199 * k9u + -0.1521609496625161 * k10u
                      + 0.20136540080403034 * k11u + 0.04471061572777259 * k12u)
        v8 = v + h * (0.054293734116568765 * k1v + 4.450312892752409 * k6v
                      + 1.8915178993145003 * k7v + -5.801203960010585 * k8v
                      + 0.3111643669578199 * k9v + -0.1521609496625161 * k10v
                      + 0.20136540080403034 * k11v + 0.04471061572777259 * k12v)
        k13u, k13v = rhs(r + h, (u8, v8))
        su = atol + rtol * max(abs(u), abs(u8))
        sv = atol + rtol * max(abs(v), abs(v8))
        e5u = (0.01312004499419488 * k1u + -1.2251564463762044 * k6u + -0.4957589496572502 * k7u
               + 1.6643771824549864 * k8u + -0.35032884874997366 * k9u
               + 0.3341791187130175 * k10u + 0.08192320648511571 * k11u
               + -0.022355307863886294 * k12u) / su
        e5v = (0.01312004499419488 * k1v + -1.2251564463762044 * k6v + -0.4957589496572502 * k7v
               + 1.6643771824549864 * k8v + -0.35032884874997366 * k9v
               + 0.3341791187130175 * k10v + 0.08192320648511571 * k11v
               + -0.022355307863886294 * k12v) / sv
        e3u = (-0.18980075407240762 * k1u + 4.450312892752409 * k6u + 1.8915178993145003 * k7u
               + -5.801203960010585 * k8u + -0.4226823213237919 * k9u
               + -0.1521609496625161 * k10u + 0.20136540080403034 * k11u
               + 0.02265179219836082 * k12u) / su
        e3v = (-0.18980075407240762 * k1v + 4.450312892752409 * k6v + 1.8915178993145003 * k7v
               + -5.801203960010585 * k8v + -0.4226823213237919 * k9v
               + -0.1521609496625161 * k10v + 0.20136540080403034 * k11v
               + 0.02265179219836082 * k12v) / sv
        # Hairer's norm of the 5th-order estimate, damped by the 3rd-order
        # one.  Both zero is an exact step; a nan (a non-finite trial stage)
        # rejects it, so a diverging solution ends in step underflow.
        n5 = e5u * e5u + e5v * e5v
        den = n5 + 0.01 * (e3u * e3u + e3v * e3v)
        err = abs(h) * n5 / math.sqrt(2.0 * den) if den != 0.0 else 0.0
        if err != err:
            err = math.inf
        if err <= 1.0:
            # r + (r_end - r) can round to a float just short of r_end
            r = r_end if last else r + h
            u, v = u8, v8
            k1u, k1v = k13u, k13v  # FSAL: k13 equals k1 of the next step
            rs.append(r)
            us.append(u)
            vs.append(v)
            if stop_condition is not None and (stop := stop_condition(r, (u, v))):
                break
        h *= min(10.0, max(0.2, 0.9 * err ** -0.125 if err > 0.0 else 10.0))
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
