"""A spectral boundary-value oracle for the regular profile, in numpy alone.

It solves the profile equation at lambda_tilde = 1, where eta_0* is the same
as at every lambda_tilde,

    eta'' + (2/r) eta' + S(eta) = 0,  S(eta) = sinh(eta) (sinh^2(eta/2) - m^2),

as a boundary-value problem, by a second method rather than a second
integrator (Trefethen, *Spectral Methods in MATLAB*, 2000):

- Chebyshev points x on [-1, 1], N odd, mapped by the odd map
  r = R sinh(a x) / sinh(a), which packs points into the core; eta is even
  in r, so the matrices are folded onto the (N + 1) / 2 points with r > 0,
  and r = 0 is no node;
- the Robin row eta' + (m + 1/R) eta = 0 at r = R, exact for the Yukawa
  tail exp(-m r) / r;
- Newton's method on the collocated equations, seeded from a shooting
  trajectory;
- eta(0) by barycentric interpolation at x = 0.

``fold`` solves the Moore-Spence system F = 0, J v = 0, c.v = 1 for the
fold (m_c, eta_fold) where the lowest two branches of regular solutions
meet, seeded from the m = 0.185 root.  ``two_q0`` solves the m -> 0 limit
of the profile equation on the same collocation, with no shooting seed.
"""

import math

import numpy as np

from naqlab import cli, shooting


class Collocation:
    """The folded Chebyshev collocation of the profile equation on [0, radius]."""

    def __init__(self, n, a, radius):
        if n % 2 == 0:
            raise ValueError("n must be odd, so that r = 0 is no node")
        j = np.arange(n + 1)
        x = np.cos(np.pi * j / n)
        c = np.where((j == 0) | (j == n), 2.0, 1.0) * (-1.0) ** j
        d1 = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
        d1 -= np.diag(d1.sum(axis=1))
        d2 = d1 @ d1
        half = (n + 1) // 2  # the nodes with x > 0; node n - k is node k mirrored

        def fold(mat):
            return mat[:half, :half] + mat[:half, n:n - half:-1]

        x = x[:half]
        self.radius = radius
        self.r = radius * np.sinh(a * x) / math.sinh(a)
        dr = radius * a * np.cosh(a * x) / math.sinh(a)
        ddr = a * a * self.r
        d1, d2 = fold(d1), fold(d2)
        self.d1 = d1 / dr[:, None]
        # eta_rr = eta_xx / r_x^2 - r_xx eta_x / r_x^3; row 0 (r = radius) is the Robin row
        self.op = d2 / dr[:, None] ** 2 - (ddr / dr**3)[:, None] * d1 + (2.0 / self.r)[:, None] * self.d1
        self.op[0] = self.d1[0]
        # barycentric weights at x = 0; a node and its mirror image get the same one
        q = 1.0 / x * np.where(j[:half] == 0, 0.5, 1.0) * (-1.0) ** j[:half]
        self.at_origin = q / q.sum()

    def residual(self, eta, m):
        """F(eta, m) and its Jacobian in eta."""
        sh, ch = np.sinh(eta), np.cosh(eta)
        f = self.op @ eta
        f[1:] += sh[1:] * (0.5 * (ch[1:] - 1.0) - m * m)
        f[0] += (m + 1.0 / self.radius) * eta[0]
        jac = self.op.copy()
        jac[0, 0] += m + 1.0 / self.radius
        jac[1:, 1:] += np.diag(0.5 * np.cosh(2.0 * eta[1:]) - 0.5 * ch[1:] - m * m * ch[1:])
        return f, jac

    def seed(self, traj, m):
        """A shooting trajectory's eta at the nodes, by the cubic Hermite
        resampling ``profile`` uses, and its Yukawa tail past its last
        radius.  A seed linear between the samples sent Newton to the
        second branch at m_c - 1e-4."""
        r_f, eta_f = traj.r[-1], traj.y[-1]
        inside = self.r <= r_f
        eta = eta_f * r_f * np.exp(-m * (self.r - r_f)) / self.r
        eta[inside] = cli._resample(traj, self.r[inside])[0]
        return eta

    def newton(self, eta, m):
        """The collocated root near ``eta``, to rounding: one more step after
        the first step below 1e-9 (relative), since rounding in the
        Jacobian's solve stops the steps near 1e-12."""
        small = False
        for _ in range(25):
            f, jac = self.residual(eta, m)
            step = np.linalg.solve(jac, f)
            eta = eta - step
            if small:
                return eta
            small = np.abs(step).max() <= 1e-9 * np.abs(eta).max()
        raise RuntimeError("Newton did not converge at m = %r" % m)

    def eta0(self, eta):
        return float(self.at_origin @ eta)


def regular_eta0(m, n=141, a=5.0):
    """eta_0* of the lowest branch at m, seeded from a shooting solve at tol 1e-3."""
    grid = Collocation(n, a, 12.0 / m)
    traj = shooting.find_regular_eta0(shooting.CouplingParams(1.0, m), tol=1e-3).trajectory
    return grid.eta0(grid.newton(grid.seed(traj, m), m))


def fold(n=141, a=5.0):
    """(m_c, eta_fold) from the Moore-Spence system, seeded from the root at
    m = 0.185 with R = 12 / 0.185 throughout."""
    m = 0.185
    grid = Collocation(n, a, 12.0 / m)
    traj = shooting.find_regular_eta0(shooting.CouplingParams(1.0, m), tol=1e-8).trajectory
    eta = grid.newton(grid.seed(traj, m), m)
    v = np.linalg.svd(grid.residual(eta, m)[1])[2][-1]  # the nearly null direction of J
    c = v.copy()
    size, small = eta.size, False
    for _ in range(25):
        f, jac = grid.residual(eta, m)
        sh, ch = np.sinh(eta), np.cosh(eta)
        f_m = np.concatenate(([eta[0]], -2.0 * m * sh[1:]))
        g_m = np.concatenate(([v[0]], -2.0 * m * ch[1:] * v[1:]))
        g_eta = np.diag(np.concatenate(([0.0], (np.sinh(2.0 * eta[1:]) - 0.5 * sh[1:] - m * m * sh[1:]) * v[1:])))
        system = np.block([[jac, np.zeros((size, size)), f_m[:, None]],
                           [g_eta, jac, g_m[:, None]],
                           [np.zeros((1, size)), c[None, :], np.zeros((1, 1))]])
        step = np.linalg.solve(system, np.concatenate((f, jac @ v, [c @ v - 1.0])))
        eta, v, m = eta - step[:size], v - step[size:2 * size], m - step[-1]
        if small:
            return float(m), grid.eta0(eta)
        small = np.abs(step[:size]).max() <= 1e-9 * np.abs(eta).max()
    raise RuntimeError("the Moore-Spence system did not converge")


def two_q0(n=141, a=5.0, radius=16.0):
    """u(0) = 2 Q(0) of the positive ground state of u'' + (2/x) u' = u - u^3/4,
    the m -> 0 limit of the profile equation in eta = m u, x = m r; Q is the
    ground state of the 3-D cubic NLS, Q'' + (2/x) Q' = Q - Q^3 (Sulem &
    Sulem, *The Nonlinear Schrodinger Equation*, 1999).  The Robin row is
    u' + (1 + 1/R) u = 0, exact for the tail exp(-x) / x.

    Newton from 8 sech^2(x) diverged on every grid tried, so Petviashvili's
    iteration u <- M^(3/2) L^(-1) N(u) (Pelinovsky & Stepanyants, SIAM J.
    Numer. Anal. 42, 2004), with L = 1 - (u'' + (2/x) u'), N(u) = u^3/4 and
    M = u.Lu / u.N(u), which is 1 at the fixed point, takes exp(-x^2) to
    within 1e-6 of the ground state, and Newton ends the solve.
    """
    grid = Collocation(n, a, radius)
    lin = np.eye(grid.r.size) - grid.op
    lin[0] = grid.op[0]
    lin[0, 0] += 1.0 + 1.0 / radius
    interior = np.arange(grid.r.size) > 0
    u = np.exp(-grid.r**2)
    for _ in range(100):
        cubic = np.where(interior, 0.25 * u**3, 0.0)
        step = u - ((u @ lin @ u) / (u @ cubic)) ** 1.5 * np.linalg.solve(lin, cubic)
        u = u - step
        if np.abs(step).max() <= 1e-6 * np.abs(u).max():
            break
    else:
        raise RuntimeError("Petviashvili's iteration did not converge")
    small = False
    for _ in range(25):
        jac = lin - np.diag(np.where(interior, 0.75 * u**2, 0.0))
        step = np.linalg.solve(jac, lin @ u - np.where(interior, 0.25 * u**3, 0.0))
        u = u - step
        if small:
            return grid.eta0(u)
        small = np.abs(step).max() <= 1e-9 * np.abs(u).max()
    raise RuntimeError("Newton did not converge on the ground state")
