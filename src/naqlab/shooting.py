"""Shooting-method solution of the nonlinear gravitoelectric profile ODE.

The reduced radial equation for the scaled potential eta(r) is

    eta'' = -(2/r) eta' - lambda_tilde * sinh(eta) * (sinh^2(eta/2) - m^2)

with regularity conditions eta(0) = eta_0, eta'(0) = 0.  In the mechanical
analogue eta = 0 is a false vacuum and eta = +/- arccosh(1 + 2 m^2) the
true vacua; a trajectory started at rest either overshoots through zero or
turns back (undershoots), and bisection on that classifier isolates the
single starting value eta_0* whose trajectory decays monotonically to zero.
For lambda_tilde = 1, m = 0.1 the regular value is eta_0* = 0.9083.

The coordinate singularity of the friction term at r = 0 is removed with a
quadratic series start at a small radius epsilon.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    IntegrationBlowUp,
    InvalidBracketError,
    OdeState,
    StepControls,
    bisect,
    centered_derivative,
    rk_integrate,
)

__all__ = [
    "CouplingParams",
    "TerminationReason",
    "Trajectory",
    "Profile",
    "ShootingResult",
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
    "DEFAULT_R_MAX",
    "DEFAULT_BRACKET",
]

DEFAULT_EPSILON = 1e-6
DEFAULT_R_MAX = 80.0
DEFAULT_BRACKET = (0.2, 2.0)


@dataclass(frozen=True)
class CouplingParams:
    """Scaled quartic coupling and mass parameter of the correction potential."""

    lambda_tilde: float
    m: float

    def __post_init__(self):
        if self.lambda_tilde <= 0 or self.m <= 0:
            raise ValueError("lambda_tilde and m must be strictly positive")

    @property
    def m_squared(self) -> float:
        return self.m * self.m

    @property
    def eta_vacuum(self) -> float:
        """True-vacuum field value arccosh(1 + 2 m^2)."""
        return math.acosh(1.0 + 2.0 * self.m_squared)


class TerminationReason(enum.Enum):
    REACHED_RMAX = "reached_rmax"
    OVERSHOOT = "overshoot"
    UNDERSHOOT = "undershoot"
    BLOW_UP = "blow_up"


@dataclass
class Trajectory:
    r: np.ndarray
    eta: np.ndarray
    deta: np.ndarray
    reason: TerminationReason
    eta0: float
    params: CouplingParams
    epsilon: float


@dataclass
class Profile:
    """Field profiles derived from a trajectory, in figure-caption scalings."""

    r: np.ndarray
    eta: np.ndarray
    deta: np.ndarray
    phi_scaled: np.ndarray  # (sqrt(G)/c^2) phi = sinh(eta/2)
    E_scaled: np.ndarray  # (sqrt(G)/c^2) E_r
    rho_scaled: np.ndarray  # 16 pi (sqrt(G)/c^2) rho


@dataclass
class ShootingResult:
    eta0: float
    trajectory: Trajectory
    bracket: tuple[float, float]
    tol: float


class ClassifierAmbiguityError(RuntimeError):
    """A trajectory reached r_max unclassified; enlarge r_max."""


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


def series_start(eta0: float, p: CouplingParams, eps: float = DEFAULT_EPSILON) -> OdeState:
    """Regular quadratic start eta(eps) = eta0 + a eps^2, eta'(eps) = 2 a eps.

    The coefficient a = -slope(eta0)/6 balances the (2/r) eta' friction
    against the source term, removing the coordinate singularity at r = 0.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    a = -quantum_potential_slope(eta0, p) / 6.0
    return OdeState(r=eps, y=(eta0 + a * eps * eps, 2.0 * a * eps))


def integrate_profile(
    eta0: float,
    p: CouplingParams,
    r_max: float = DEFAULT_R_MAX,
    controls: StepControls | None = None,
    eps: float = DEFAULT_EPSILON,
) -> Trajectory:
    """Integrate from the series start and classify the outcome.

    Overshoot: eta crosses zero heading negative.  Undershoot: eta' turns
    from negative to positive while eta > 0 (ignored for r <= 10 eps so the
    quadratic start cannot masquerade as a turning point).  Blow-up is a
    classification, not a failure.
    """
    if r_max <= eps:
        raise ValueError("r_max must exceed the start radius")
    controls = controls or StepControls()
    state0 = series_start(eta0, p, eps)

    def rhs(r, y):
        return (y[1], ode_rhs(r, y[0], y[1], p))

    outcome = {"reason": TerminationReason.REACHED_RMAX}
    prev_deta = [state0.y[1]]

    def stop(r, y):
        eta, deta = y
        if eta < 0.0:
            outcome["reason"] = TerminationReason.OVERSHOOT
            return True
        if r > 10.0 * eps and prev_deta[0] < 0.0 and deta > 0.0 and eta > 0.0:
            outcome["reason"] = TerminationReason.UNDERSHOOT
            return True
        prev_deta[0] = deta
        return False

    try:
        sol = rk_integrate(rhs, state0, r_max, controls, stop_condition=stop)
        rr, yy = sol.r, sol.y
        reason = outcome["reason"]
    except IntegrationBlowUp as exc:
        rr, yy = exc.partial.r, exc.partial.y
        reason = TerminationReason.BLOW_UP
    return Trajectory(
        r=rr,
        eta=yy[:, 0],
        deta=yy[:, 1],
        reason=reason,
        eta0=eta0,
        params=p,
        epsilon=eps,
    )


def _classify(eta0, p, r_max, controls, eps) -> str:
    traj = integrate_profile(eta0, p, r_max, controls, eps)
    if traj.reason == TerminationReason.OVERSHOOT:
        return "high"
    if traj.reason == TerminationReason.UNDERSHOOT:
        return "low"
    if traj.reason == TerminationReason.BLOW_UP and traj.eta[-1] < 0:
        return "high"
    if traj.reason == TerminationReason.REACHED_RMAX:
        # Near-critical trajectories can still be hugging the false vacuum
        # at r_max.  There the linearization eta'' + (2/r) eta' = mu^2 eta
        # (mu = m sqrt(lambda_tilde)) has solutions (A e^{-mu r} + B e^{mu r})/r,
        # and sign(B) = sign(r eta' + eta + mu r eta) decides the eventual
        # fate: a positive growing mode turns the field back up (undershoot),
        # a negative one drives it through zero (overshoot).
        r_f, eta_f, deta_f = traj.r[-1], traj.eta[-1], traj.deta[-1]
        mu = p.m * math.sqrt(p.lambda_tilde)
        if abs(eta_f) < 0.5 * p.eta_vacuum:
            growing = r_f * deta_f + eta_f + mu * r_f * eta_f
            if growing > 0:
                return "low"
            if growing < 0:
                return "high"
    raise ClassifierAmbiguityError(
        "eta0 = %g reached r_max = %g unclassified; enlarge r_max so the "
        "overshoot/undershoot separation can develop" % (eta0, r_max)
    )


def find_regular_eta0(
    p: CouplingParams,
    bracket: tuple[float, float] = DEFAULT_BRACKET,
    tol: float = 1e-5,
    r_max: float = DEFAULT_R_MAX,
    controls: StepControls | None = None,
    eps: float = DEFAULT_EPSILON,
) -> ShootingResult:
    """Bisect the overshoot/undershoot classifier to the regular eta_0*.

    The bracket ends must classify differently (one undershoot, one
    overshoot).  The returned trajectory is the integration at the
    converged value.
    """
    eta_star = bisect(lambda eta0: _classify(eta0, p, r_max, controls, eps), bracket, tol)
    trajectory = integrate_profile(eta_star, p, r_max, controls, eps)
    return ShootingResult(eta0=eta_star, trajectory=trajectory, bracket=bracket, tol=tol)


def derive_fields(traj: Trajectory) -> Profile:
    """Physical profiles in the scalings used for plotting.

    phi_scaled = sinh(eta/2); E_scaled = -eta'/(2 cosh(eta/2)) (the torsion
    correction factor 1 + sinh^2 = cosh^2 is folded in analytically);
    rho_scaled = 4 (1/r^2) d(r^2 E_scaled)/dr by centered differences, so
    the scaled Gauss law div E = 4 pi rho holds by construction.
    """
    if traj.r.size < 5:
        raise ValueError("need at least 5 samples to difference the charge density")
    eta = traj.eta
    half = 0.5 * eta
    phi_scaled = np.sinh(half)
    e_scaled = -traj.deta / (2.0 * np.cosh(half))
    flux = traj.r**2 * e_scaled
    rho_scaled = 4.0 * centered_derivative(traj.r, flux) / traj.r**2
    return Profile(
        r=traj.r,
        eta=eta,
        deta=traj.deta,
        phi_scaled=phi_scaled,
        E_scaled=e_scaled,
        rho_scaled=rho_scaled,
    )


def decay_rate(
    traj: Trajectory,
    fit_window: tuple[float, float],
    max_residual: float = 1e-3,
) -> float:
    """Yukawa decay rate mu from a least-squares fit of ln(r eta) vs r.

    For a tail eta ~ exp(-mu r)/r the fit is exact; a window whose max
    absolute fit residual exceeds ``max_residual`` is rejected because the
    samples do not follow the exponential-over-r model there.
    """
    lo, hi = fit_window
    if traj.r[-1] < hi:
        raise ValueError("trajectory does not reach the fit window")
    mask = (traj.r >= lo) & (traj.r <= hi)
    r = traj.r[mask]
    eta = traj.eta[mask]
    if r.size < 3:
        raise ValueError("fit window contains fewer than 3 samples")
    if np.any(eta <= 0):
        raise ValueError("fit window contains non-positive eta samples")
    z = np.log(r * eta)
    slope, intercept = np.polyfit(r, z, 1)
    resid = np.max(np.abs(z - (slope * r + intercept)))
    if resid > max_residual:
        raise DecayFitError(
            "fit residual %.3e exceeds %.3e; window is not an exp(-mu r)/r tail"
            % (resid, max_residual)
        )
    return float(-slope)
