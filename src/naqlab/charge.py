"""Closed-form torsion-regularized point charge and its energy integrals.

In units (G, c) the charge q sets a length scale alpha = q sqrt(G)/c^2 and
the electrostatic solution is

    phi(r) = (c^2/sqrt(G)) sinh(alpha/r)
    E_r(r) = q / (r^2 cosh(alpha/r))
    rho(r) = (sqrt(G)/(4 pi c^2)) tanh(alpha/r) sech(alpha/r) q^2/r^4

E_r and rho vanish at the origin, the field energy integral is finite with
closed form q c^2 / (2 sqrt(G)), and the self-interaction integral of
rho*phi/2 diverges as the lower cutoff r_min -> 0 like
(q^2 / 2 alpha)(U - tanh U) with U = alpha/r_min.

The closed forms are evaluated as written, with no asymptotic branch: all
three are finite for |alpha/r| up to about 710.47, where cosh overflows;
beyond it phi is +/-inf and E_r, rho are exactly 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import centered_derivative, quad_adaptive

__all__ = [
    "UnitsConfig",
    "ChargeModel",
    "FieldSample",
    "EnergyReport",
    "exact_solution",
    "exact_fields",
    "gauss_residual",
    "corrected_field_tensor",
    "induced_charge_density",
    "energy_report",
]

@dataclass(frozen=True)
class UnitsConfig:
    """Newton constant and speed of light; defaults are geometrized units."""

    G: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.G <= 0 or self.c <= 0:
            raise ValueError("G and c must be strictly positive")


@dataclass(frozen=True)
class ChargeModel:
    q: float
    units: UnitsConfig = field(default_factory=UnitsConfig)

    @property
    def alpha(self) -> float:
        """Length scale q sqrt(G)/c^2; zero iff the charge vanishes."""
        return self.q * math.sqrt(self.units.G) / self.units.c**2


@dataclass(frozen=True)
class FieldSample:
    r: float
    phi: float
    E_r: float
    rho: float


@dataclass(frozen=True)
class EnergyReport:
    field_energy: float
    self_energy: float
    closed_form_field_energy: float
    closed_form_self_energy: float


def exact_solution(r: float, model: ChargeModel) -> FieldSample:
    """Evaluate the closed-form fields at radius r > 0, as Python floats."""
    return FieldSample(**{k: float(v) for k, v in exact_fields(r, model).items()})


def exact_fields(r: np.ndarray, model: ChargeModel) -> dict[str, np.ndarray]:
    """Vectorized closed forms on an array of radii, all of them > 0.

    With x = alpha/r: float64 cosh overflows past |x| ~ 710.47, and there
    phi = +/-inf and E_r = rho = 0 come out of the formulas themselves;
    q = 0 gives x = 0 and exact zeros.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0):
        raise ValueError("radius must be positive")
    u = model.units
    q = model.q
    x = model.alpha / r
    with np.errstate(over="ignore"):
        cosh = np.cosh(x)
        return {
            "r": r,
            "phi": u.c**2 / math.sqrt(u.G) * np.sinh(x),
            "E_r": q / (r * r * cosh),
            "rho": math.sqrt(u.G) / (4.0 * math.pi * u.c**2) * np.tanh(x) / cosh * q * q / r**4,
        }


def gauss_residual(model: ChargeModel, grid) -> float:
    """Max relative residual of div E = 4 pi rho on the closed form.

    The divergence (1/r^2) d(r^2 E_r)/dr is taken by centered differences,
    so the residual is O(h^2); only interior grid points enter.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 5:
        raise ValueError("grid must be 1-D with at least 5 points")
    if np.any(grid <= 0) or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must be strictly positive and strictly increasing")
    fields = exact_fields(grid, model)
    flux = grid**2 * fields["E_r"]
    div_e = centered_derivative(grid, flux)[1:-1] / grid[1:-1] ** 2
    source = 4.0 * math.pi * fields["rho"][1:-1]
    scale = float(np.max(np.abs(source)))
    diff = np.max(np.abs(div_e - source))
    if scale == 0.0:
        return float(diff)
    return float(diff / scale)


def corrected_field_tensor(phi: float, dphi_dr: float, units: UnitsConfig) -> float:
    """Radial field from the potential after the torsion correction.

    E_r = -phi' / (1 + (G/c^4) phi^2); the correction factor is 1 in the
    classical limit phi -> 0.
    """
    return -dphi_dr / (1.0 + units.G / units.c**4 * phi * phi)


def induced_charge_density(E_r: float, phi: float, units: UnitsConfig) -> float:
    """rho = (G / 4 pi c^4) E_r^2 phi."""
    return units.G / (4.0 * math.pi * units.c**4) * E_r * E_r * phi


def energy_report(model: ChargeModel, r_min: float, tol: float = 1e-10) -> EnergyReport:
    """Quadrature of the field-energy and self-energy integrals.

    Both radial integrals are compactified with u = alpha/r:

    * field energy  = (q^2 / 2 alpha) int_0^inf sech^2(u) du (finite),
    * self energy   = (q^2 / 2 alpha) int_0^{alpha/r_min} tanh^2(u) du,
      which grows without bound as r_min -> 0.

    Closed forms (q c^2 / 2 sqrt(G) and (q^2/2 alpha)(U - tanh U)) are
    reported alongside for cross-checking.
    """
    if r_min <= 0:
        raise ValueError("r_min must be positive")
    u = model.units
    q = model.q
    if q == 0.0:
        return EnergyReport(0.0, 0.0, 0.0, 0.0)
    alpha = abs(model.alpha)
    prefactor = q * q / (2.0 * alpha)

    sech2 = lambda x: 1.0 / math.cosh(x) ** 2 if abs(x) < 350 else 0.0
    # int_0^inf sech^2 = int_0^1 + int_1^inf (the second via the u = 1/r map)
    head = quad_adaptive(sech2, 0.0, 1.0, tol)
    tail = quad_adaptive(sech2, 1.0, math.inf, tol)
    field_energy = prefactor * (head.value + tail.value)

    cap = alpha / r_min
    tanh2 = lambda x: math.tanh(x) ** 2
    # Split at the end of the tanh transition region so the (possibly huge)
    # flat stretch cannot hide the structure near u = 0 from the estimator.
    breakpoint_u = min(cap, 25.0)
    self_value = quad_adaptive(tanh2, 0.0, breakpoint_u, tol).value
    if cap > breakpoint_u:
        self_value += quad_adaptive(tanh2, breakpoint_u, cap, tol).value
    self_energy = prefactor * self_value

    closed_field = abs(q) * u.c**2 / (2.0 * math.sqrt(u.G))
    closed_self = prefactor * (cap - math.tanh(cap))
    return EnergyReport(
        field_energy=field_energy,
        self_energy=self_energy,
        closed_form_field_energy=closed_field,
        closed_form_self_energy=closed_self,
    )
