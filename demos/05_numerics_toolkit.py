"""Quick look at the shared numerical toolkit.

Adaptive quadrature (finite and semi-infinite), the embedded Runge-Kutta
integrator of y'' = f(r, y) started from (r0, (y, y')) with event
stopping, and the two root finders on a two-way classifier: bisection, and
Brent's method, which ``naqlab shoot`` runs on a signed residual.
"""

import math
from collections import namedtuple

from naqlab.numerics import bisect, brent, quad_adaptive, rk_integrate

res = quad_adaptive(lambda u: 1.0 / math.cosh(u) ** 2, 0.0, 50.0, 1e-12)
print(f"int_0^50 sech^2 = {res.value:.15f}  (tanh 50 = {math.tanh(50.0):.15f}, "
      f"{res.evaluations} evaluations)")

res = quad_adaptive(lambda r: 1.0 / r**2, 1.0, math.inf, 1e-12)
print(f"int_1^inf r^-2  = {res.value:.15f}")

# rhs gets y and returns y'' (it never sees y'); here y'' = -y
sol = rk_integrate(lambda r, y: -y, 1.0, (0.0, 1.0), 1.0 + 2 * math.pi)
# the samples come back in four array('d') buffers: r, y, dy = y' and ddy = y''
print(f"harmonic oscillator after one period: y = {sol.y[-1]:.3e}, y' = {sol.dy[-1]:.12f}, "
      f"y'' = {sol.ddy[-1]:.3e}  ({len(sol.r)} samples)")

# a stop condition gets the state (y, y') and halts the run at the first
# accepted step where it returns a truthy value, which comes back as sol.stop
sol = rk_integrate(
    lambda r, y: -y, 0.0, (1.0, 0.0), 10.0,
    stop_condition=lambda r, y: "crossed zero" if y[0] < 0 else None,
)
print(f"cosine stopped at r = {sol.r[-1]:.4f} (pi/2 = {math.pi / 2:.4f}): {sol.stop}")

probed = []


def label(x):
    probed.append(x)
    return "low" if x * x < 2 else "high"


root = bisect(label, (1.0, 2.0), 1e-12)
print(f"bisection on a two-way classifier: sqrt(2) = {root:.12f}  ({len(probed)} probes)")

# brent's probe returns a record with the same two-way label and a residual
# whose sign follows it; the residual steers the steps, the label keeps the
# bracket, and the record of the better end comes back
Probe = namedtuple("Probe", "x label residual")
probed.clear()
best = brent(lambda x: Probe(x, label(x), x * x - 2), (1.0, 2.0), 1e-12)
print(f"Brent's method on a signed residual: sqrt(2) = {best.x:.12f}  ({len(probed)} probes)")
