"""Deterministic numerical kernels shared by the rest of the package.

Provides globally adaptive Gauss-Kronrod quadrature, adaptive explicit
Runge-Kutta integration of y'' = f(r, y) with the Dormand-Prince 8(5,3)
pair (DOP853) in Nystrom form, bracketing root-finders on a two-way classifier
(bisection, and Brent's method when each probe also gives a signed
residual), and numpy's second-order finite differences on possibly
non-uniform sample points.

The integrator runs from ``(r0, (y, y'))`` and always returns its samples in
four ``array('d')`` buffers ``r``, ``y``, ``dy`` and ``ddy``, with why it
stopped: the value its stop condition returned, "step underflow", "step
budget", or None at the end of the span.  Its error scale is one argument,
``rtol`` (default 1e-10), with ``atol = rtol / 100``; each step costs 12 RHS
evaluations, the work grows like ``rtol ** (-1/8)``, and at most 10^6 steps
are attempted.

Everything here is a pure function of its inputs; all arithmetic is
64-bit IEEE-754.  The integrator keeps the state ``(y, y')``, such as the
shooting problem's ``(w, w_x)``, in scalar Python floats with every
DOP853 stage written out: y goes to the right-hand side and y'' comes back,
one float each, which costs far less than numpy's per-call overhead or a
loop over components.  Only ``centered_derivative`` imports numpy, when it
is called.
"""

from __future__ import annotations

import heapq
import math
from array import array
from typing import Callable, NamedTuple, Sequence, TypeVar

_Record = TypeVar("_Record")

__all__ = [
    "QuadResult",
    "QuadratureBudgetError",
    "quad_adaptive",
    "RkSolution",
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


class QuadResult(NamedTuple):
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


class RkSolution(NamedTuple):
    """Accepted samples as ``array('d')`` buffers, which ``np.asarray`` reads
    without a copy, all of the same length: radii ``r``, the state ``y`` and
    ``dy`` = y', and ``ddy`` = y'', the right-hand side at each sample.
    ``attempted`` counts the steps tried, so ``attempted - (len(r) - 1)``
    were rejected and the run made 1 + 12 ``attempted`` RHS calls."""

    r: array
    y: array
    dy: array
    ddy: array
    stop: object  # what stop_condition returned, "step underflow" or "step budget"; None at r_end
    attempted: int


def rk_integrate(
    rhs: Callable[[float, float], float],
    r0: float,
    y0: Sequence[float],
    r_end: float,
    stop_condition: Callable[[float, tuple], object] | None = None,
    rtol: float = 1e-10,
) -> RkSolution:
    """Integrate y'' = rhs(r, y) from (y, y') = y0 at r0 to ``r_end``.

    ``rhs`` receives y as one float and returns y'' as one float; it never
    sees y'.  The Dormand-Prince 8(5,3) pair has 12 stages, stepped in
    Nystrom form (Hairer, Norsett & Wanner, Solving ODEs I, sec. II.14):
    stage i evaluates rhs at y + h (c_i y' + h sum_l (A^2)_il k_l), the
    8th-order y takes the weights b A and y' the weights b, and the y error
    sums take e5 A and e3 A, each sum adding its terms left to right in
    stage order; this is the first-order method on (y, y') to rounding.  The
    last stage is evaluated at the 8th-order solution and reused as the
    first stage of the next step (FSAL), so an integration costs
    1 + 12 x (attempted steps) RHS evaluations.  With the 5th- and
    3rd-order error estimates scaled by
    ``rtol / 100 + rtol * max(|y|, |y_new|)`` per component and their sums
    of squares ``n5`` and ``n3``, a step is accepted when Hairer's norm
    ``|h| n5 / sqrt(2 (n5 + 0.01 n3))`` is at most 1 (a nan norm, from a
    non-finite stage, rejects it), and the next stride is
    ``0.9 norm ** (-1/8)`` times this one, clamped to [0.2, 10]; so the work
    grows like ``rtol ** (-1/8)``.  The first stride is 1/100 of the span,
    and at most 10^6 steps are attempted.
    A step cut short to end on ``r_end`` lands on it exactly.  Samples are
    retained at every accepted step, in the buffers ``r``, ``y``, ``dy`` and
    ``ddy`` of the returned ``RkSolution``; ``ddy`` is the first evaluation
    and then each accepted FSAL stage, y'' at its sample at no extra cost.
    ``stop_condition(r, (y, y'))`` is checked after each accepted step; a truthy
    value halts the integration there (the triggering sample is retained)
    and is returned as ``stop``, which is None when the run reaches ``r_end``.
    A run that gives up is returned too, its samples ending at the last
    accepted state, with ``stop`` "step underflow" when the stride falls
    below 1e-14 max(|r|, 1) (a diverging or non-finite solution ends so)
    and "step budget" when 10^6 steps have been attempted.

    Raises
    ------
    ValueError
        if ``y0`` does not have two components, ``r_end`` does not exceed
        ``r0`` or ``rtol`` is not positive and finite.
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
    k1v = rhs(r, u)
    rs, us, vs, dvs = array("d", (r,)), array("d", (u,)), array("d", (v,)), array("d", (k1v,))
    h = (r_end - r) / 100.0
    attempted = 0
    stop = None
    while r < r_end:
        if attempted == _MAX_STEPS:
            stop = "step budget"
            break
        last = h >= r_end - r
        if last:
            h = r_end - r
        # abs, max and min are written out as comparisons in this loop, where a
        # builtin call costs as much as several float operations; h stays
        # positive, so |h| is h
        if h < 1e-14 * (r if r > 1.0 else -r if r < -1.0 else 1.0):  # max(|r|, 1)
            stop = "step underflow"
            break
        attempted += 1
        # The DOP853 tableau (Hairer, Norsett & Wanner, Solving ODEs I,
        # sec. II.10) in Nystrom form (sec. II.14): y'' = f(r, y) never reads
        # y', so the stage y' sums v + h sum_j a_ij kj are folded into the y
        # sums, stage i taking u + h (c_i v + h sum_l (A^2)_il kl), u8 the
        # weights b A and the y error sums e5 A and e3 A.  Each weighted sum
        # adds its nonzero terms left to right in tableau order: that order
        # fixes the rounding of every result.  kNv is the y'' that rhs returns
        # at stage N; the last stage, at the 8th-order solution, is y'' at the
        # next sample and the first stage of the next step (FSAL).
        k2v = rhs(r + 0.05260015195876773 * h, u + h * (0.05260015195876773 * v))
        k3v = rhs(r + 0.0789002279381516 * h, u + h * (0.0789002279381516 * v + h * (
                0.003112622984346139 * k1v)))
        k4v = rhs(r + 0.1183503419072274 * h, u + h * (0.1183503419072274 * v + h * (
                0.0017508504286947032 * k1v + 0.00525255128608411 * k2v)))
        k5v = rhs(r + 0.2816496580927726 * h, u + h * (0.2816496580927726 * v + h * (
                0.009915816237971966 * k1v - 0.05234336665618132 * k2v + 0.0820908153700972 * k3v)))
        k6v = rhs(r + 0.3333333333333333 * h, u + h * (0.3333333333333333 * v + h * (
                0.03533793130488635 * k1v - 0.09581915952175495 * k3v + 0.11603678377242414 * k4v)))
        k7v = rhs(r + 0.25 * h, u + h * (0.25 * v + h * (0.018920483189113914 * k1v
                - 0.03815245266364542 * k3v + 0.05268745617004205 * k4v - 0.00220548669551055 * k5v)))
        k8v = rhs(r + 0.3076923076923077 * h, u + h * (0.3076923076923077 * v + h * (
                0.03067021189623757 * k1v - 0.07975482628537982 * k3v + 0.0979912056772412 * k4v
                - 0.0014238754814449106 * k5v - 0.00014543770014516837 * k6v)))
        k9v = rhs(r + 0.6512820512820513 * h, u + h * (0.6512820512820513 * v + h * (
                -0.15229089727622047 * k1v + 0.4696608773351988 * k3v - 0.06814140470279373 * k4v
                + 0.010711857531715552 * k5v + 0.3119698547460422 * k6v - 0.35982613247286355 * k7v)))
        k10v = rhs(r + 0.6 * h, u + h * (0.6 * v + h * (-0.110207167223775 * k1v + 0.30128953154727944 * k3v
                + 0.07865735349516356 * k4v + 0.030838873981239308 * k5v - 0.31960414755130306 * k6v
                - 0.6851760518136165 * k7v + 0.8842016075650119 * k8v)))
        k11v = rhs(r + 0.8571428571428571 * h, u + h * (0.8571428571428571 * v + h * (
                0.3721894995071433 * k1v - 0.5050736261155677 * k3v - 0.4614987464855824 * k4v
                - 0.06518509348541879 * k5v + 4.098038403866568 * k6v + 3.8922102844072413 * k7v
                - 7.025278165955342 * k8v + 0.06194438303648047 * k9v)))
        k12v = rhs(r + h, u + h * (v + h * (-0.7650750098382327 * k1v + 0.8347994820739503 * k3v
                + 1.755944144193113 * k4v + 0.2325369885955063 * k5v + 11.903719357881833 * k6v
                - 1.9034949405460448 * k7v - 10.951226401858365 * k8v + 1.3530625395360725 * k9v
                - 1.9602661600378632 * k10v)))
        u8 = u + h * (v + h * (0.054293734116568765 * k1v + 2.9668752618349394 * k6v
            + 1.418638424485876 * k7v - 4.016218126161173 * k8v + 0.10850859975965005 * k9v
            - 0.06086437986500637 * k10v + 0.028766485829147193 * k11v))
        v8 = v + h * (0.054293734116568765 * k1v + 4.450312892752409 * k6v + 1.8915178993145003 * k7v
            - 5.801203960010585 * k8v + 0.3111643669578199 * k9v - 0.1521609496625161 * k10v
            + 0.20136540080403034 * k11v + 0.04471061572777259 * k12v)
        r8 = r_end if last else r + h  # r + (r_end - r) can fall short of r_end
        k13v = rhs(r8, u8)
        au, au8 = (u if u >= 0.0 else -u), (u8 if u8 >= 0.0 else -u8)
        av, av8 = (v if v >= 0.0 else -v), (v8 if v8 >= 0.0 else -v8)
        su = atol + rtol * (au8 if au8 > au else au)
        sv = atol + rtol * (av8 if av8 > av else av)
        e5u = h * (-0.18865188001798797 * k1v + 0.9962151331241325 * k4v + 0.23599761577747433 * k5v
            - 2.8546306823509116 * k6v - 4.082808827933705 * k7v + 6.038341535948958 * k8v
            + 0.39584534789657555 * k9v - 0.5259249995299615 * k10v - 0.014383242914573597 * k11v) / su
        e5v = (0.01312004499419488 * k1v - 1.2251564463762044 * k6v - 0.4957589496572502 * k7v
            + 1.6643771824549864 * k8v - 0.35032884874997366 * k9v + 0.3341791187130175 * k10v
            + 0.08192320648511571 * k11v - 0.022355307863886294 * k12v) / sv
        e3u = h * (-0.4538545734291735 * k1v + 2.698758502261862 * k4v + 0.6812767760191378 * k5v
            - 16.885342816594815 * k6v - 13.987876814514605 * k7v + 27.96175549233409 * k8v
            + 0.3042333850581198 * k9v - 0.3335239499192925 * k10v + 0.014573998784681819 * k11v) / su
        e3v = (-0.18980075407240762 * k1v + 4.450312892752409 * k6v + 1.8915178993145003 * k7v
            - 5.801203960010585 * k8v - 0.4226823213237919 * k9v - 0.1521609496625161 * k10v
            + 0.20136540080403034 * k11v + 0.02265179219836082 * k12v) / sv
        # Hairer's norm of the 5th-order estimate, damped by the 3rd-order
        # one.  Both zero is an exact step; a nan (a non-finite trial stage)
        # rejects it, so a diverging solution ends in step underflow.
        n5 = e5u * e5u + e5v * e5v
        den = n5 + 0.01 * (e3u * e3u + e3v * e3v)
        err = h * n5 / math.sqrt(2.0 * den) if den != 0.0 else 0.0
        if err != err:
            err = math.inf
        if err <= 1.0:
            r, u, v, k1v = r8, u8, v8, k13v  # FSAL: k13 is k1 of the next step
            rs.append(r)
            us.append(u)
            vs.append(v)
            dvs.append(k13v)
            if stop_condition is not None and (stop := stop_condition(r, (u, v))):
                break
        grow = 0.9 * err ** -0.125 if err > 0.0 else 10.0
        h *= 10.0 if grow > 10.0 else grow if grow > 0.2 else 0.2
    return RkSolution(rs, us, vs, dvs, stop or None, attempted)


# ---------------------------------------------------------------------------
# Root bracketing on a two-way classifier: bisection and Brent's method
# ---------------------------------------------------------------------------


class InvalidBracketError(ValueError):
    """Both bracket ends classify the same way, as ``label`` (None where a caller words its own verdict)."""

    def __init__(self, message, label=None):
        super().__init__(message)
        self.label = label


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
        raise InvalidBracketError("invalid bracket: both ends classify as %r" % (p_lo,), p_lo)
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
        raise InvalidBracketError("invalid bracket: both ends classify as %r" % (pa.label,), pa.label)
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
