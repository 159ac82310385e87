"""Shooting-method solution of the nonlinear radial profile equation.

Starts from rest at eta(0) = eta_0, classifies each trajectory as an
overshoot or an undershoot and reads the amplitude of its growing mode, and
runs Brent's method on that signed residual until the single regular
starting value is pinned down; then inspects the Yukawa tail and the
derived field profiles.
"""

import math

import numpy as np

from naqlab import shooting

params = shooting.CouplingParams(lambda_tilde=1.0, m=0.1)
print(f"true vacuum eta_v = {params.eta_vacuum:.6f}")

# find_regular_eta0 brackets the lowest regular start by
# [0.999 2Q(0) m, min(eta_fold, (eta_fold/m_c) m)]: eta0*/m rises from 2 Q(0),
# Q the 3-D cubic NLS ground state, as m -> 0 to eta_fold/m_c at the fold m_c,
# where the lowest two branches of regular solutions meet (no regular
# solution exists above it)
lo, hi = 0.999 * shooting.TWO_Q0 * params.m, min(shooting.ETA_FOLD, shooting.ETA_FOLD / shooting.M_FOLD * params.m)
print()
print(f"classifier across the bracket [0.999 2Q(0) m, (eta_fold/m_c) m] = [{lo:.4f}, {hi:.4f}]:")
for eta0 in (lo, 0.88, 0.9, 0.92, 1.1, hi):
    traj = shooting.integrate_profile(eta0, params, r_max=80.0)
    print(f"  eta0 = {eta0:6.4f}: {traj.stop}")
print(f"no regular solution for m >= m_c = {shooting.M_FOLD}")

result = shooting.find_regular_eta0(params, tol=1e-8)
print()
print(f"regular starting value eta0* = {result.eta0:.8f}  (reference 0.9083)")

tight = shooting.find_regular_eta0(params, tol=1e-12)
# a Yukawa tail eta ~ exp(-mu r)/r makes ln(r eta) a line of slope -mu
r, eta = np.asarray(tight.trajectory.r), np.asarray(tight.trajectory.y)
window = (r >= 20.0) & (r <= 50.0)
mu = -np.polyfit(r[window], np.log(r[window] * eta[window]), 1)[0]
print(f"tail decay rate mu = {mu:.6f}  (expected m sqrt(lambda) = {params.m * math.sqrt(params.lambda_tilde)})")

traj = tight.trajectory
phi, e_field, rho = shooting.derive_fields(traj.y, traj.dy, params)
print()
print(f"{'r':>6} {'eta':>12} {'phi_scaled':>12} {'E_scaled':>12} {'rho_scaled':>12}")
for target in (0.5, 2.0, 5.0, 10.0, 20.0):
    i = min(range(len(traj.r)), key=lambda k: abs(traj.r[k] - target))
    print(
        f"{traj.r[i]:6.2f} {traj.y[i]:12.6f} "
        f"{phi[i]:12.6f} {e_field[i]:12.6f} {rho[i]:12.6f}"
    )
