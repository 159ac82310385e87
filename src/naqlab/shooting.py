"""Shooting-method solution of the nonlinear gravitoelectric profile ODE.

The reduced radial equation for the scaled potential eta(r) is

    eta'' = -(2/r) eta' - lambda_tilde S(eta),  S(eta) = sinh(eta) (sinh^2(eta/2) - m^2),

with regularity conditions eta(0) = eta_0, eta'(0) = 0.  In the mechanical
analogue eta = 0 is a false vacuum and eta = +/- arccosh(1 + 2 m^2) the
true vacua; a trajectory started at rest either overshoots through zero or
turns back (undershoots).  A starting value eta_0* whose trajectory decays
monotonically to zero separates the two; below the fold m_c = 0.18598 the
lowest lies between 2 Q(0) m and (eta_fold / m_c) m, and above it there is
none.  Each probe reads the amplitude of the growing mode at its last
sample, a signed residual close to linear in eta_0 - eta_0*.  Chebyshev
series in t = sqrt(1 - m/m_c) predict eta_0* to 1e-10 and the residual's
slope there, and Brent's method confirms the root or a Newton step from it
in 2 or 3 probes at m = 0.1 (see find_regular_eta0).  For lambda_tilde = 1,
m = 0.1 the regular value is eta_0* = 0.9083.

The integrator solves for w = x eta in x = sqrt(lambda_tilde) r, where the
equation w_xx = -x S(w/x) has no 2/r pole and no lambda_tilde.  Each
trajectory starts at x = 0 from (w, w_x) = (0, eta_0); it overshoots when
w < 0 and undershoots when x w_x - w = x^2 eta_x turns from negative to
positive.  Every probe of a solve runs at lambda_tilde = 1, so eta_0* is
the same float for every lambda_tilde and only the answer is rescaled to r.
A trajectory is the integrator's ``numerics.RkSolution`` converted to r:
its ``y``, ``dy`` and ``ddy`` hold eta, eta' and eta'', and its ``stop``
is "overshoot", "undershoot", "reached_rmax", or the integrator's "step
underflow" or "step budget".
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from typing import NamedTuple, Sequence

from .numerics import InvalidBracketError, RkSolution, brent, rk_integrate

__all__ = [
    "CouplingParams", "Probe", "ClassifierAmbiguityError", "ode_rhs",
    "integrate_profile", "find_regular_eta0", "derive_fields", "BracketBoundError", "M_FOLD", "ETA_FOLD", "TWO_Q0",
]

# The fold (m_c, eta_fold) where the lowest two branches of regular solutions
# meet, as tests/spectral_oracle.py computes it: none exists for m >= m_c.
M_FOLD = 0.185981376879
ETA_FOLD = 2.40192315365
# eta_0*/m tends to 2 Q(0) as m -> 0, Q the 3-D cubic NLS ground state, as
# tests/spectral_oracle.py computes it.
TWO_Q0 = 8.67477535995
# Chebyshev coefficients of eta_0*/m in s = 2t - 1, t = sqrt(1 - m/M_FOLD): its interpolant at
# the 16 Chebyshev-Lobatto nodes in s, where eta_0*/m is TWO_Q0 at t = 1, ETA_FOLD/M_FOLD at t = 0
# and, at the 14 nodes between, what tests/spectral_oracle.py computes.
_CURVE = (10.19423528428359, -2.0545047140107395, 0.5796903006840606, -0.06396658276898962, 0.02010612055222746,
          -0.0015550721518740335, 0.0007511173227863802, -1.7200584180917153e-05, 3.232329116826804e-05, 1.7888354856647008e-06,
          1.646517107782112e-06, 2.2296967235509632e-07, 9.722182454652284e-08, 1.9407922498733872e-08, 6.826176660960452e-09, 1.5537886829027531e-09)
# Chebyshev coefficients of s/t in 2t - 1, s = d residual / d eta0 at eta_0*, which vanishes like t at the fold (s/t runs
# from 0.158 to 0.238): 12 terms of the interpolant at 16 Gauss-Chebyshev nodes of scipy's DOP853 on the eta form and its
# variational equation, at tests/spectral_oracle.py's roots.
_SLOPE = (0.20864666551488883, -0.040644564731920636, -0.01017347780501424, 0.0007649253455114247, -0.0001970453928244317,
          -3.504742046004858e-05, -1.520264455320353e-05, -1.924450134895006e-06, -5.472317989585473e-07, -9.642160806247468e-08,
          -3.177477470375778e-08, -5.70613661529662e-09)


class CouplingParams(namedtuple("CouplingParams", "lambda_tilde m")):
    """Scaled quartic coupling and mass parameter of the correction potential."""

    __slots__ = ()

    def __new__(cls, lambda_tilde: float, m: float):
        if not (lambda_tilde > 0 and m > 0):
            raise ValueError("lambda_tilde and m must be strictly positive")
        return tuple.__new__(cls, (lambda_tilde, m))

    @property
    def m_squared(self) -> float:
        return self.m * self.m

    @property
    def eta_vacuum(self) -> float:
        """True-vacuum field value arccosh(1 + 2 m^2)."""
        return math.acosh(1.0 + 2.0 * self.m_squared)

    @property
    def horizon(self) -> float:
        """Eight Yukawa lengths 8/(m sqrt(lambda_tilde)), inf where m sqrt(lambda_tilde) underflows to 0."""
        mu = self.m * math.sqrt(self.lambda_tilde)
        return 8.0 / mu if mu > 0 else math.inf


class Probe(NamedTuple):
    """One classified trajectory from eta0.

    ``label`` is "overshoot" or "undershoot".  ``residual`` is
    +/-|g| exp(-mu r_f), with g = r eta' + eta + mu r eta at the last sample
    r_f, mu = m sqrt(lambda_tilde), and the sign of the label (+ for
    overshoot); in the linear tail it is -2 mu B, the amplitude B of the
    growing mode, which is close to linear in eta0 - eta_0*.  It is never
    exactly zero, and the same float for every lambda_tilde.
    """

    eta0: float
    label: str
    residual: float
    trajectory: RkSolution


class ClassifierAmbiguityError(RuntimeError):
    """A trajectory ended unclassified at the radius the message names."""


class BracketBoundError(RuntimeError):
    """Both ends of a solve's bracket overshoot: a bound is wrong, whatever m is."""


def ode_rhs(x: float, w: float, m_squared: float) -> float:
    """w_xx = -x S(w/x) at (x, w), and 0 at x = 0.  S is odd and vanishes
    exactly at eta = 0 and eta = +/- arccosh(1 + 2 m^2), the stationary
    field values of the correction potential."""
    if x == 0.0:
        return 0.0
    eta = w / x
    try:
        s = math.sinh(0.5 * eta)
        return -x * math.sinh(eta) * (s * s - m_squared)
    except OverflowError:  # |eta| beyond sinh's float64 range: only the sign matters, and the step fails
        return math.copysign(math.inf, -eta)


def integrate_profile(eta0: float, p: CouplingParams, r_max: float, rtol: float = 1e-11) -> RkSolution:
    """Integrate w = x eta from x = 0 to x = sqrt(lambda_tilde) r_max and classify the outcome.

    Returns the integrator's ``RkSolution`` converted to r: ``y``, ``dy`` and
    ``ddy`` hold eta, eta' and eta'' at the radii ``r``, starting with
    (0, eta0, 0, -lambda_tilde S(eta0) / 3); samples close to r = 0 come
    from the series eta0 + a x^2 + b x^4.  ``stop`` is one of five
    strings.  "overshoot": eta crosses zero heading negative.  "undershoot":
    eta' turns from negative to positive.  "reached_rmax": neither happened
    by ``r_max``, which is then the last radius exactly.  "step underflow"
    and "step budget": the integrator gave up (see ``rk_integrate``), and the
    samples end at the last accepted state.  ``rtol`` is
    ``rk_integrate``'s: at 1e-11, ``profile``'s default table lies within
    4e-6 of scipy's DOP853 on the eta form at three couplings.
    """
    x_end = math.sqrt(p.lambda_tilde) * r_max
    if not 0.0 < x_end < math.inf:
        raise ValueError("r_max = %r: sqrt(lambda_tilde) r_max is no finite positive float" % (r_max,))
    m_squared = p.m_squared

    def rhs(x, w):
        return ode_rhs(x, w, m_squared)

    turn = [0.0]  # x w_x - w at the last sample

    def stop(x, y):
        w, dw = y
        if w < 0.0:
            return "overshoot"
        t = x * dw - w
        if abs(t) > 1e-9 * w:  # below, rounding noise: static starts on eta_vacuum reach 1.2e-10 w
            if turn[0] < 0.0 < t:
                return "undershoot"
            turn[0] = t
        return None

    sol = rk_integrate(rhs, 0.0, (0.0, eta0), x_end, stop_condition=stop, rtol=rtol)
    sol = sol._replace(stop=sol.stop or "reached_rmax")
    # w = x eta: eta_x = (w_x - eta) / x and eta_xx = (w_xx - 2 eta_x) / x.  Both cancel near x = 0, where
    # the series eta = eta0 + a x^2 + b x^4, a = -S(eta0) / 6 and b = -S'(eta0) a / 20, is taken instead
    # while scale x^2 <= 3e-4; scale is S'(eta0) with its terms added in absolute value, so it does not
    # vanish where S' does.  Against a 14-term series, for eta0 from 0.002 to 5.5 at rtol 1e-6 to 1e-12,
    # that crossover gave the smallest worst relative error of eta_x, 4e-9 (1e-5: 1e-7; 1e-2: 7e-7), where
    # the differences alone are off by a factor 2 at eta0 = 0.05, x = 1e-6.  S is not taken from ode_rhs,
    # each of whose calls counts as one RHS evaluation.
    x, w, dw, ddw = sol.r, sol.y, sol.dy, sol.ddy
    try:
        s, sh = math.sinh(0.5 * eta0), math.sinh(eta0)
        slope, dslope = sh * (s * s - m_squared), math.cosh(eta0) * (s * s - m_squared) + 0.5 * sh * sh
        scale = math.cosh(eta0) * (s * s + m_squared) + 0.5 * sh * sh
    except OverflowError:
        slope, dslope, scale = math.copysign(math.inf, eta0), math.inf, math.inf
    a = -slope / 6.0
    b = -dslope * a / 20.0
    w[0], dw[0], ddw[0] = eta0, 0.0, -slope / 3.0
    for i in range(1, len(x)):
        xi = x[i]
        xx = xi * xi
        if scale * xx <= 3e-4:
            w[i], dw[i], ddw[i] = eta0 + (a + b * xx) * xx, (2.0 * a + 4.0 * b * xx) * xi, 2.0 * a + 12.0 * b * xx
        else:
            eta = w[i] / xi
            deta = (dw[i] - eta) / xi
            w[i], dw[i], ddw[i] = eta, deta, (ddw[i] - 2.0 * deta) / xi
    _to_r(sol, p.lambda_tilde)
    if sol.stop == "reached_rmax":
        x[-1] = r_max  # sqrt(lambda_tilde) r_max / sqrt(lambda_tilde) can miss it by an ulp
    return sol


def _to_r(traj: RkSolution, lambda_tilde: float) -> None:
    """Rescale a record in x = sqrt(lambda_tilde) r to r in place: r = x / sqrt(lambda_tilde),
    eta' = sqrt(lambda_tilde) eta_x, eta'' = lambda_tilde eta_xx; none moves at lambda_tilde = 1."""
    if lambda_tilde == 1.0:
        return
    root, r, dy, ddy = math.sqrt(lambda_tilde), traj.r, traj.dy, traj.ddy
    for i in range(len(r)):
        r[i] /= root
        dy[i] *= root
        ddy[i] *= lambda_tilde


def _probe(eta0, p, rtol) -> Probe:
    """Integrate from eta0 at lambda_tilde = 1 to the horizon x = 8/m at ``rtol`` and classify
    its fate, with a signed residual; lambda_tilde only scales the radius an error names."""
    m = p.m
    traj = integrate_profile(eta0, CouplingParams(1.0, m), 8.0 / m, rtol)
    x_f, eta_f, deta_f = traj.r[-1], traj.y[-1], traj.dy[-1]
    # Near-critical trajectories can still be hugging the false vacuum at
    # the horizon.  There the linearization eta_xx + (2/x) eta_x = m^2 eta
    # has solutions (A e^{-m x} + B e^{m x})/x, and
    # g = x eta_x + eta + m x eta = 2 m B e^{m x}: sign(B) decides the
    # eventual fate, a positive growing mode turns the field back up
    # (undershoot), a negative one drives it through zero (overshoot).
    growing = x_f * deta_f + eta_f + m * x_f * eta_f
    label = traj.stop if traj.stop in ("overshoot", "undershoot") else None
    if traj.stop == "reached_rmax" and abs(eta_f) < 0.5 * p.eta_vacuum:
        label = "undershoot" if growing > 0 else "overshoot" if growing < 0 else None
    if label is None:
        raise ClassifierAmbiguityError("eta0 = %r reached r = %g unclassified" % (eta0, x_f / math.sqrt(p.lambda_tilde)))
    # The smallest positive float keeps an underflowed residual from reading as an exact root.
    size = max(abs(growing) * math.exp(-m * x_f), math.ulp(0.0))
    return Probe(eta0=eta0, label=label, residual=-size if label == "undershoot" else size, trajectory=traj)


def _chebyshev(coefficients: tuple, m: float) -> float:
    """C(2t - 1) for m < M_FOLD, t = sqrt(1 - m/M_FOLD), C the Chebyshev series of ``coefficients``, by Clenshaw's recurrence."""
    s = 2.0 * math.sqrt(1.0 - m / M_FOLD) - 1.0
    b1 = b2 = 0.0
    for c in reversed(coefficients[1:]):
        b1, b2 = 2.0 * s * b1 - b2 + c, b1
    return s * b1 - b2 + coefficients[0]


def _predicted_root(m: float) -> float:
    """eta_0* = m C(2t - 1), C the series _CURVE."""
    return m * _chebyshev(_CURVE, m)


def _predicted_slope(m: float) -> float:
    """The residual's slope d residual / d eta0 at eta_0*, t S(2t - 1), S the series _SLOPE."""
    return math.sqrt(1.0 - m / M_FOLD) * _chebyshev(_SLOPE, m)


def find_regular_eta0(p: CouplingParams, tol: float = 1e-5) -> Probe:
    """Brent's method on the probes' growing-mode residual, to the lowest regular eta_0*.

    The bracket is [lo, hi] = [0.999 TWO_Q0 m, min(ETA_FOLD, ETA_FOLD m / M_FOLD)].
    eta_0*/m increases with m, from its m -> 0 limit TWO_Q0 = 2 Q(0), Q the
    3-D cubic NLS ground state, to ETA_FOLD / M_FOLD = 12.915 at the fold
    (tests recompute both ends and check the rise on 26 couplings), so the
    low end, 0.1 % below the limit, undershoots; the high end lies above
    the root and no higher than ETA_FOLD, which lies between the lowest root
    and the second for every m < m_c, so it overshoots.  Both ends
    undershooting, or an empty bracket (m >= 0.277163), is an
    InvalidBracketError: no regular solution.  Both ends overshooting is a
    BracketBoundError: a bound is wrong.  The answer, the end with the
    smaller |residual| of a final bracket no wider than ``tol`` whose ends
    classify differently, lies within ``tol`` of the discretized root.  Each
    probe is integrated at lambda_tilde = 1 to eight Yukawa lengths, x = 8/m,
    at ``rtol = min(1e-6, max(1e-12, 0.1 tol))``, so eta0 is the same float
    for every lambda_tilde and only the answer's trajectory is rescaled, to
    end at r = x / sqrt(lambda_tilde).

    Below the fold the solve first probes the ends of [max(lo, x - d),
    min(hi, max(x + d, x'))], x = q = ``_predicted_root(m)``, d = max(0.1
    tol, 2e-10), and x' the float after x, so that a d below the float
    spacing of x keeps a pair; where 2d > tol it first probes q and x is the
    Newton step q - residual(q) / ``_predicted_slope(m)``, d = 0.1 tol (q
    and x clamped into [lo, hi]).
    When the pair classifies differently Brent's method finishes inside it,
    at once where 2d <= tol; when alike, between the highest undershooting
    start probed below hi (else lo) and the lowest overshooting one above
    that (else hi).  No eta0 is integrated twice, and the labels certify the
    answer.  q lies within 1.2e-10 of eta_0*, and the slope within 4e-7 of
    its own, for m from 0.001 to m_c - 1e-5; nearer the fold the slope
    vanishes, and at m_c - 1e-6 the pair classifies alike.

    At m = 0.1 a solve takes 2, 2 and 3 trajectories (410, 938 and 3027
    RHS calls) at tol 1e-5, 1e-8 and 1e-12.  On the grid lambda_tilde in
    {0.5, 1, 4}, m in {0.05, 0.1, 0.15, 0.17} the answer lay within 0.100,
    0.110 and 0.101 tol of the root; at m_c - 1e-6, tol 1e-5 it lay 13.1
    tol off.  The probes resolve eta0 no finer than about 2e-15: at m = 0.1
    and rtol 1e-12 the labels of the floats from 0.9083371697707656 to
    0.908337169770767 alternate, so for a smaller tol "within tol of the
    discretized root" names no single root.  Such a tol is still accepted.
    A tol not above 0, and couplings whose horizon 8/m or
    8/(m sqrt(lambda_tilde)) is no finite float, are refused before any probe.
    """
    if not tol > 0:
        raise ValueError("tol = %r: must be positive" % tol)
    if not (0.0 < 8.0 / p.m < math.inf and p.horizon < math.inf):
        raise ValueError("lambda_tilde = %g, m = %g: the horizon 8/m or 8/(m sqrt(lambda_tilde)) is no finite positive float" % (p.lambda_tilde, p.m))
    rtol = min(1e-6, max(1e-12, 0.1 * tol))
    lo, hi = 0.999 * TWO_Q0 * p.m, min(ETA_FOLD, ETA_FOLD / M_FOLD * p.m)
    no_solution = InvalidBracketError("no regular solution: m = %g is at or above the fold m_c = %.12g" % (p.m, M_FOLD))
    if not lo < hi:
        raise no_solution
    probe = functools.cache(lambda eta0: _probe(eta0, p, rtol))  # no eta0 is integrated twice
    bracket = lo, hi
    if p.m < M_FOLD:
        x, d = _predicted_root(p.m), max(0.1 * tol, 2e-10)
        known = [probe(min(hi, max(lo, x)))] if 2.0 * d > tol else []  # a pair wider than tol: one Newton step from q
        if known:
            x, d = min(hi, max(lo, x - known[0].residual / _predicted_slope(p.m))), 0.1 * tol
        a, b = max(lo, x - d), min(hi, max(x + d, math.nextafter(x, hi)))
        if a < b:
            known += probe(a), probe(b)
            if known[-2].label != known[-1].label:
                bracket = a, b
            else:  # the root lies beyond the pair: narrow [lo, hi] by every label known
                a = max((k.eta0 for k in known if k.label == "undershoot" and k.eta0 < hi), default=lo)
                bracket = a, min((k.eta0 for k in known if k.label == "overshoot" and k.eta0 > a), default=hi)
    try:
        best = brent(probe, bracket, tol)
    except InvalidBracketError as exc:
        if exc.label != "undershoot":
            raise BracketBoundError("wrong bracket bound at m = %g: both ends of [%r, %r] classify as %r" % (p.m, lo, hi, exc.label)) from None
        raise no_solution from None
    _to_r(best.trajectory, p.lambda_tilde)
    return best


def derive_fields(eta: Sequence[float], deta: Sequence[float], p: CouplingParams) -> tuple:
    """Pointwise field map (phi_scaled, E_scaled, rho_scaled) of (eta, eta').

    In the scalings used for plotting: phi_scaled = (sqrt(G)/c^2) phi =
    sinh(eta/2); E_scaled = (sqrt(G)/c^2) E_r = -eta'/(2 cosh(eta/2)) (the
    torsion correction factor 1 + sinh^2 = cosh^2 is folded in
    analytically); rho_scaled = 16 pi (sqrt(G)/c^2) rho is the Gauss-law
    source 4 (1/r^2) d(r^2 E_scaled)/dr, which the profile equation turns
    into 4 phi (E^2 + lambda_tilde (phi^2 - m^2)).  No derivative is taken,
    so samples of any length map to arrays of the same length.
    """
    import numpy as np

    half = 0.5 * np.asarray(eta)
    phi_scaled = np.sinh(half)
    e_scaled = -np.asarray(deta) / (2.0 * np.cosh(half))
    rho_scaled = 4.0 * phi_scaled * (
        e_scaled * e_scaled + p.lambda_tilde * (phi_scaled * phi_scaled - p.m_squared)
    )
    return phi_scaled, e_scaled, rho_scaled
