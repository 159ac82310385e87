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

The closed forms are evaluated as written, with no asymptotic branch, for
|alpha/r| up to about 710.47, where cosh overflows.  Beyond it phi is
+/-inf, and E_r and rho are taken through exp(-|alpha/r|) in log space, so
they are 0 only where their values underflow.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import NamedTuple

from .numerics import quad_adaptive

__all__ = [
    "ChargeModel",
    "FieldSample",
    "EnergyReport",
    "exact_solution",
    "exact_fields",
    "energy_report",
]

class ChargeModel(namedtuple("ChargeModel", "q G c")):
    """A point charge q in units with Newton constant G and speed of light c.

    G and c default to 1.0 (geometrized units).  Refused with ValueError:
    G or c not strictly positive; c^2, c^2/sqrt(G) or sqrt(G)/c^2 outside
    the float64 range; alpha = q sqrt(G)/c^2 not finite, or 0 for q != 0.
    """

    __slots__ = ()

    def __new__(cls, q: float, G: float = 1.0, c: float = 1.0):
        if not (G > 0 and c > 0):
            raise ValueError("G and c must be strictly positive")
        # c**2 raises OverflowError past c ~ 1.3e154 and is 0 below c ~ 1.5e-162;
        # the scales c^2/sqrt(G) of phi and sqrt(G)/c^2 of rho must be finite,
        # and alpha may underflow to 0 only when q is 0.
        root_g, c2 = math.sqrt(G), c * c
        if not (0.0 < c2 < math.inf and c2 / root_g < math.inf and root_g / c2 < math.inf):
            raise ValueError("G = %r, c = %r: c^2 or c^2/sqrt(G) is out of float64 range" % (G, c))
        self = tuple.__new__(cls, (q, G, c))
        if not math.isfinite(self.alpha) or (self.alpha == 0.0) != (q == 0.0):
            raise ValueError("q = %r: alpha = q sqrt(G)/c^2 = %r is out of float64 range" % (q, self.alpha))
        return self

    @property
    def alpha(self) -> float:
        """Length scale q sqrt(G)/c^2; zero iff the charge vanishes."""
        root_g, c2 = math.sqrt(self.G), self.c**2
        q_root_g = self.q * root_g
        if 0.0 < abs(q_root_g) < sys.float_info.min:
            # A subnormal q sqrt(G) has lost bits; then c^2 < 1 for a normal
            # alpha, so sqrt(G)/c^2 is normal and the product rounds once more.
            return self.q * (root_g / c2)
        return q_root_g / c2


class FieldSample(NamedTuple):
    r: float
    phi: float
    E_r: float
    rho: float


class EnergyReport(NamedTuple):
    field_energy: float
    self_energy: float
    closed_form_field_energy: float
    closed_form_self_energy: float


def exact_solution(r: float, model: ChargeModel) -> FieldSample:
    """Evaluate the closed-form fields at radius r > 0, as Python floats."""
    return FieldSample(**{k: float(v) for k, v in exact_fields(r, model).items()})


def exact_fields(r, model: ChargeModel) -> dict:
    """Vectorized closed forms on an array of radii, all of them > 0.

    With x = alpha/r: float64 cosh overflows past |x| ~ 710.47, and there
    phi = +/-inf while E_r and rho go through exp(-|x|) in log space, down to
    the smallest subnormal radius; q = 0 gives exact zeros.  Huge or tiny |q|
    and r give no nan.
    """
    import numpy as np

    radii = np.asarray(r, dtype=float)
    if np.any(radii <= 0):
        raise ValueError("radius must be positive")
    q = model.q
    columns = np.empty((3, radii.size))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for start in range(0, radii.size, 4096):  # beside the columns, only one block's temporaries are held
            r = radii.reshape(-1)[start:start + 4096]
            x = model.alpha / r
            cosh, tanh = np.cosh(x), np.tanh(x)
            k = math.sqrt(model.G) / (4.0 * math.pi * model.c**2)
            e_r = q / (r * r * cosh)
            rho = k * tanh / cosh * q * q / r**4
            # Where r*r, r**4, q*q or cosh leave the float64 range, or q = 0, E_r
            # and rho are 0, inf or nan; only there (every other value keeps the
            # bits of the order above) are both taken through q/r instead.
            fine_e, fine_rho = np.isfinite(e_r) & (e_r != 0.0), np.isfinite(rho) & (rho != 0.0)
            if not (fine_e.all() and fine_rho.all()):
                e_alt = q / r / (r * cosh)
                e_r = np.where(fine_e, e_r, e_alt)
                rho = np.where(fine_rho, rho, k * tanh * e_alt * (q / r / r))
                # Past the cosh overflow 1/cosh(x) = 2 exp(-|x|) to float64
                # precision; in log space E_r and rho underflow to zeros with
                # the sign of q only where their values do.
                tail = (cosh == np.inf) & (q != 0.0)
                if tail.any():
                    log_qr2 = np.log(abs(q)) - 2.0 * np.log(r)
                    log_e = np.log(2.0) + log_qr2 - np.abs(x)
                    sign = math.copysign(1.0, q)
                    e_r = np.where(tail, sign * np.exp(log_e), e_r)
                    rho = np.where(tail, sign * np.exp(np.log(k) + log_qr2 + log_e), rho)
            columns[:, start:start + 4096] = model.c**2 / math.sqrt(model.G) * np.sinh(x), e_r, rho
    phi, e_r, rho = (column.reshape(radii.shape) for column in columns)
    return {"r": radii, "phi": phi, "E_r": e_r, "rho": rho}


def energy_report(model: ChargeModel, r_min: float, tol: float = 1e-10) -> EnergyReport:
    """Quadrature of the field-energy and self-energy integrals.

    Both radial integrals are compactified with u = alpha/r:

    * field energy  = (q^2 / 2 alpha) int_0^inf sech^2(u) du (finite),
    * self energy   = (q^2 / 2 alpha) int_0^{alpha/r_min} tanh^2(u) du,
      which grows without bound as r_min -> 0.

    Closed forms (q c^2 / 2 sqrt(G) and (q^2/2 alpha)(U - tanh U)) are
    reported alongside for cross-checking.  An energy past float64 range raises ValueError.
    """
    if not r_min > 0:
        raise ValueError("r_min must be positive")
    q = model.q
    if q == 0.0:
        return EnergyReport(0.0, 0.0, 0.0, 0.0)
    alpha = abs(model.alpha)
    # q/alpha = c^2/sqrt(G) keeps the bits q^2 may lose; halve last, as 2 alpha may overflow.
    q2 = q * q
    prefactor = q2 / alpha / 2.0 if sys.float_info.min <= q2 < math.inf else q * (q / alpha) / 2.0

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
    if cap == math.inf:
        # alpha/r_min overflowed: tanh^2 -> 1, so the integral diverges
        self_value = math.inf
    elif cap > breakpoint_u:
        self_value += quad_adaptive(tanh2, breakpoint_u, cap, tol).value
    self_energy = prefactor * self_value

    closed_field = abs(q) * model.c**2 / (2.0 * math.sqrt(model.G))
    if cap < 0.5:
        # U - tanh U cancels most of its digits here; it is (U cosh U - sinh U)
        # / cosh U, the numerator summed from its Taylor series, whose terms
        # 2k U^(2k+1)/(2k+1)! are all positive.  Added left to right, not by
        # sum(), whose compensation from Python 3.12 on would move the bits.
        series = 0.0
        for k in range(1, 9):
            series += 2 * k * cap ** (2 * k + 1) / math.factorial(2 * k + 1)
        closed_self = prefactor * (series / math.cosh(cap))
    else:
        closed_self = prefactor * (cap - math.tanh(cap))
    report = EnergyReport(field_energy, self_energy, closed_field, closed_self)
    for name, value in report._asdict().items():
        if not math.isfinite(value):
            raise ValueError("q = %r, r_min = %r: %s is out of float64 range" % (q, r_min, name))
    return report
