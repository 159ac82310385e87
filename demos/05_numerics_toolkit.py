"""Quick look at the shared numerical toolkit.

Adaptive quadrature (finite and semi-infinite), the embedded Runge-Kutta
integrator started from (r0, y0) with event stopping, and classifier
bisection.
"""

import math

from naqlab.numerics import bisect, quad_adaptive, rk_integrate

res = quad_adaptive(lambda u: 1.0 / math.cosh(u) ** 2, 0.0, 50.0, 1e-12)
print(f"int_0^50 sech^2 = {res.value:.15f}  (tanh 50 = {math.tanh(50.0):.15f}, "
      f"{res.evaluations} evaluations)")

res = quad_adaptive(lambda r: 1.0 / r**2, 1.0, math.inf, 1e-12)
print(f"int_1^inf r^-2  = {res.value:.15f}")

sol = rk_integrate(lambda r, y: (y[1], -y[0]), 1.0, (0.0, 1.0), 1.0 + 2 * math.pi)
# the samples come back in three array('d') buffers: r, y and dy = y'
print(f"harmonic oscillator after one period: y = {sol.y[-1]:.3e}, y' = {sol.dy[-1]:.12f}  "
      f"({len(sol.r)} samples)")

# a stop condition halts the run at the first accepted step where it
# returns a truthy value, and that value comes back as sol.stop
sol = rk_integrate(
    lambda r, y: (y[1], -y[0]), 0.0, (1.0, 0.0), 10.0,
    stop_condition=lambda r, y: "crossed zero" if y[0] < 0 else None,
)
print(f"cosine stopped at r = {sol.r[-1]:.4f} (pi/2 = {math.pi / 2:.4f}): {sol.stop}")

root = bisect(lambda x: "low" if x * x < 2 else "high", (1.0, 2.0), 1e-12)
print(f"bisection on a two-way classifier: sqrt(2) = {root:.12f}")
