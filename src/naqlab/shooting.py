"""Shooting-method solution of the nonlinear gravitoelectric profile ODE.

The reduced radial equation for the scaled potential eta(r) is

    eta'' = -(2/r) eta' - lambda_tilde * sinh(eta) * (sinh^2(eta/2) - m^2)

with regularity conditions eta(0) = eta_0, eta'(0) = 0.  In the mechanical
analogue eta = 0 is a false vacuum and eta = +/- arccosh(1 + 2 m^2) the
true vacua; a trajectory started at rest either overshoots through zero or
turns back (undershoots).  The single starting value eta_0* whose trajectory
decays monotonically to zero separates the two.  Each probe also reads the
amplitude of the growing mode at its last sample, a signed residual close to
linear in eta_0 - eta_0*, and Brent's method on it isolates eta_0* in about
10 trajectories.  For lambda_tilde = 1, m = 0.1 the regular value is
eta_0* = 0.9083.

A trajectory is the integrator's own record, ``numerics.RkSolution``: its
``y``, ``dy`` and ``ddy`` hold eta, eta' and eta'', and its ``stop`` names
the outcome as "overshoot", "undershoot", "reached_rmax" or "blow_up".

The coordinate singularity of the friction term at r = 0 is removed with a
quadratic series start at a small radius epsilon.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .numerics import (
    IntegrationBlowUp,
    RkSolution,
    brent,
    rk_integrate,
)

__all__ = [
    "CouplingParams",
    "Probe",
    "ClassifierAmbiguityError",
    "DecayFitError",
    "ode_rhs",
    "quantum_potential_slope",
    "series_start",
    "integrate_profile",
    "find_regular_eta0",
    "derive_fields",
    "decay_rate",
    "DEFAULT_EPSILON",
    "DEFAULT_BRACKET",
]

DEFAULT_EPSILON = 1e-6
DEFAULT_BRACKET = (0.2, 2.0)


@dataclass(frozen=True)
class CouplingParams:
    """Scaled quartic coupling and mass parameter of the correction potential."""

    lambda_tilde: float
    m: float

    def __post_init__(self):
        if not (self.lambda_tilde > 0 and self.m > 0):
            raise ValueError("lambda_tilde and m must be strictly positive")

    @functools.cached_property
    def m_squared(self) -> float:
        # computed on first use and then a plain attribute: the ODE right-hand
        # side reads it on every evaluation
        return self.m * self.m

    @property
    def eta_vacuum(self) -> float:
        """True-vacuum field value arccosh(1 + 2 m^2)."""
        return math.acosh(1.0 + 2.0 * self.m_squared)


@dataclass(frozen=True)
class Probe:
    """One classified trajectory from eta0.

    ``label`` is "overshoot" or "undershoot".  ``residual`` is
    +/-|g| exp(-mu r_f), with g = r eta' + eta + mu r eta at the last sample
    r_f and the sign of the label (+ for overshoot); in the linear tail it
    is -2 mu B, the amplitude B of the growing mode, which is close to
    linear in eta0 - eta_0*.  It is never exactly zero.
    """

    eta0: float
    label: str
    residual: float
    trajectory: RkSolution


class ClassifierAmbiguityError(RuntimeError):
    """A trajectory ended unclassified at the radius the message names."""


class DecayFitError(ValueError):
    """The window does not look like an exponential-over-r tail."""


def ode_rhs(r: float, eta: float, deta: float, p: CouplingParams) -> float:
    """Second derivative eta'' at (r, eta, eta')."""
    if r <= 0:
        raise ValueError("r must be positive")
    return -2.0 / r * deta - quantum_potential_slope(eta, p)


def quantum_potential_slope(eta: float, p: CouplingParams) -> float:
    """dW/deta = lambda_tilde sinh(eta) (sinh^2(eta/2) - m^2).

    Vanishes exactly at eta = 0 and eta = +/- arccosh(1 + 2 m^2), the
    stationary field values of the correction potential.
    """
    try:
        s = math.sinh(0.5 * eta)
        return p.lambda_tilde * math.sinh(eta) * (s * s - p.m_squared)
    except OverflowError:
        # |eta| beyond float64 sinh range; the sign is all that matters,
        # integration will report the blow-up.
        return math.copysign(math.inf, eta)


def series_start(eta0: float, p: CouplingParams, eps: float) -> tuple[float, tuple[float, float]]:
    """Regular quadratic start eta(eps) = eta0 + a eps^2, eta'(eps) = 2 a eps,
    as the pair (eps, (eta, eta')).

    The coefficient a = -slope(eta0)/6 balances the (2/r) eta' friction
    against the source term, removing the coordinate singularity at r = 0.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    a = -quantum_potential_slope(eta0, p) / 6.0
    return eps, (eta0 + a * eps * eps, 2.0 * a * eps)


def integrate_profile(eta0: float, p: CouplingParams, r_max: float, rtol: float = 1e-10) -> RkSolution:
    """Integrate from the series start at DEFAULT_EPSILON and classify the outcome.

    Returns the integrator's ``RkSolution``: ``y``, ``dy`` and ``ddy`` hold
    eta, eta' and eta'' at the radii ``r``, and ``stop`` is one of four strings.
    "overshoot": eta crosses zero heading negative.  "undershoot": eta'
    turns from negative to positive while eta > 0 (ignored for r <= 10 eps
    so the quadratic start cannot masquerade as a turning point).
    "reached_rmax": neither happened by the horizon ``r_max``, which must
    exceed DEFAULT_EPSILON.  "blow_up": the
    integration failed, and the samples end at the last valid state; it is
    a classification, not a failure.  ``rtol`` is ``rk_integrate``'s.
    """
    eps = DEFAULT_EPSILON
    r0, y0 = series_start(eta0, p, eps)

    def rhs(r, y):
        return ode_rhs(r, y[0], y[1], p)

    prev_deta = [y0[1]]

    def stop(r, y):
        eta, deta = y
        if eta < 0.0:
            return "overshoot"
        if r > 10.0 * eps and prev_deta[0] < 0.0 and deta > 0.0 and eta > 0.0:
            return "undershoot"
        prev_deta[0] = deta
        return None

    try:
        sol = rk_integrate(rhs, r0, y0, r_max, stop_condition=stop, rtol=rtol)
        sol.stop = sol.stop or "reached_rmax"
    except IntegrationBlowUp as exc:
        sol = exc.partial
        sol.stop = "blow_up"
    return sol


def _probe(eta0, p, rtol) -> Probe:
    """Integrate from eta0 to the horizon 8/mu and classify its fate, with a signed residual."""
    mu = p.m * math.sqrt(p.lambda_tilde)
    traj = integrate_profile(eta0, p, 8.0 / mu, rtol)
    r_f, eta_f, deta_f = traj.r[-1], traj.y[-1], traj.dy[-1]
    # Near-critical trajectories can still be hugging the false vacuum at
    # the horizon.  There the linearization eta'' + (2/r) eta' = mu^2 eta
    # (mu = m sqrt(lambda_tilde)) has solutions (A e^{-mu r} + B e^{mu r})/r,
    # and g = r eta' + eta + mu r eta = 2 mu B e^{mu r}: sign(B) decides the
    # eventual fate, a positive growing mode turns the field back up
    # (undershoot), a negative one drives it through zero (overshoot).
    growing = r_f * deta_f + eta_f + mu * r_f * eta_f
    label = None
    if traj.stop in ("overshoot", "undershoot"):
        label = traj.stop
    elif traj.stop == "blow_up" and eta_f < 0:
        label = "overshoot"
    elif traj.stop == "reached_rmax" and abs(eta_f) < 0.5 * p.eta_vacuum:
        if growing > 0:
            label = "undershoot"
        elif growing < 0:
            label = "overshoot"
    if label is None:
        raise ClassifierAmbiguityError("eta0 = %r reached r = %g unclassified" % (eta0, r_f))
    # The smallest positive float keeps an underflowed residual from
    # reading as an exact root.
    size = max(abs(growing) * math.exp(-mu * r_f), math.ulp(0.0))
    if label == "undershoot":
        size = -size
    return Probe(eta0=eta0, label=label, residual=size, trajectory=traj)


def find_regular_eta0(
    p: CouplingParams,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    tol: float = 1e-5,
) -> Probe:
    """Brent's method on the probes' growing-mode residual, to the regular eta_0*.

    The bracket ends must classify differently (one undershoot, one
    overshoot).  The answer is one end of a final bracket no wider than
    ``tol`` whose ends classify differently, so it lies within ``tol`` of
    the root of the *discretized* problem: the probe of the end with the
    smaller |residual|, with the trajectory already integrated from it.
    Each probe runs to eight Yukawa lengths, r = 8/(m sqrt(lambda_tilde)),
    at ``rtol = min(1e-6, max(1e-12, 0.1 tol))``.  At m = 0.1 a solve takes
    10 trajectories and 2782 RHS calls at tol 1e-5, and 11 and 12071 at tol
    1e-12.  On the grid lambda_tilde in {0.5, 1, 4}, m in {0.05, 0.1, 0.15,
    0.17} the answer lay within 0.25 tol of the lambda_tilde-independent root.

    LO must be above 0: eta0 = 0 is the static false vacuum, whose
    growing-mode amplitude is exactly 0, and a negative start overshoots at
    its first step, so no horizon classifies either.  Couplings whose
    horizon is no finite radius above DEFAULT_EPSILON are refused.
    """
    if not bracket[0] > 0:
        raise ValueError("bracket needs LO > 0, got %g: eta0 = 0 is the static false vacuum and eta0 < 0 overshoots at once" % bracket[0])
    mu = p.m * math.sqrt(p.lambda_tilde)
    if not (mu > 0 and DEFAULT_EPSILON < 8.0 / mu < math.inf):
        raise ValueError("lambda_tilde = %g, m = %g: the horizon 8/(m sqrt(lambda_tilde)) is no finite radius above the series start %g" % (p.lambda_tilde, p.m, DEFAULT_EPSILON))
    rtol = min(1e-6, max(1e-12, 0.1 * tol))
    return brent(lambda eta0: _probe(eta0, p, rtol), bracket, tol)


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


def decay_rate(traj: RkSolution, fit_window: tuple[float, float]) -> float:
    """Yukawa decay rate mu from a least-squares fit of ln(r eta) vs r.

    For a tail eta ~ exp(-mu r)/r the fit is exact; a window whose max
    absolute fit residual exceeds 1e-3 is rejected because the
    samples do not follow the exponential-over-r model there.
    """
    import numpy as np

    lo, hi = fit_window
    if traj.r[-1] < hi:
        raise ValueError("trajectory does not reach the fit window")
    r, eta = np.asarray(traj.r), np.asarray(traj.y)
    mask = (r >= lo) & (r <= hi)
    r, eta = r[mask], eta[mask]
    if r.size < 3:
        raise ValueError("fit window contains fewer than 3 samples")
    if np.any(eta <= 0):
        raise ValueError("fit window contains non-positive eta samples")
    z = np.log(r * eta)
    slope, intercept = np.polyfit(r, z, 1)
    resid = np.max(np.abs(z - (slope * r + intercept)))
    if resid > 1e-3:
        raise DecayFitError(
            "fit residual %.3e exceeds 1.000e-03; window is not an exp(-mu r)/r tail" % resid
        )
    return float(-slope)
