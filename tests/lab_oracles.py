"""Oracles the tests check naqlab's results with, and no naqlab code path runs.

``gauss_residual`` checks the closed-form point charge against Gauss's law
by finite differences, and ``decay_rate`` reads the Yukawa decay rate of a
trajectory's tail by a least-squares fit.
"""

import math

import numpy as np

from naqlab.charge import ChargeModel, exact_fields
from naqlab.numerics import RkSolution, centered_derivative


class DecayFitError(ValueError):
    """The window does not look like an exponential-over-r tail."""


def gauss_residual(model: ChargeModel, grid) -> float:
    """Max relative residual of div E = 4 pi rho on the closed form.

    The divergence (1/r^2) d(r^2 E_r)/dr is taken by centered differences,
    so the residual is O(h^2); only interior grid points enter.  The grid
    must be positive (``exact_fields``), 1-D, strictly increasing and at
    least 3 points long (``centered_derivative``).
    """
    grid = np.asarray(grid, dtype=float)
    fields = exact_fields(grid, model)
    flux = grid**2 * fields["E_r"]
    div_e = centered_derivative(grid, flux)[1:-1] / grid[1:-1] ** 2
    source = 4.0 * math.pi * fields["rho"][1:-1]
    scale = float(np.max(np.abs(source)))
    diff = np.max(np.abs(div_e - source))
    if scale == 0.0:
        return float(diff)
    return float(diff / scale)


def decay_rate(traj: RkSolution, fit_window: tuple[float, float]) -> float:
    """Yukawa decay rate mu from a least-squares fit of ln(r eta) vs r.

    For a tail eta ~ exp(-mu r)/r the fit is exact; a window whose max
    absolute fit residual exceeds 1e-3 is rejected because the
    samples do not follow the exponential-over-r model there.
    """
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
