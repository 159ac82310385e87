import math

import pytest

from naqlab import shooting


@pytest.fixture(scope="session")
def params_m01():
    return shooting.CouplingParams(lambda_tilde=1.0, m=0.1)


@pytest.fixture(scope="session")
def shot_m01_default(params_m01):
    """Default-tolerance shooting run (the documented CLI configuration)."""
    return shooting.find_regular_eta0(params_m01)


@pytest.fixture(scope="session")
def shot_m01_tight(params_m01):
    """Tightly converged run; its trajectory has an uncontaminated tail."""
    return shooting.find_regular_eta0(params_m01, tol=1e-12)


def _eta_form_rhs(r, eta, deta, p):
    """eta'' = -(2/r) eta' - lambda_tilde sinh(eta) (sinh^2(eta/2) - m^2), for r > 0."""
    s = math.sinh(0.5 * eta)
    return -2.0 / r * deta - p.lambda_tilde * math.sinh(eta) * (s * s - p.m * p.m)


@pytest.fixture(scope="session")
def eta_form_rhs():
    """The profile equation in eta and r, as the oracles below integrate it:
    a second formulation of the w form that naqlab integrates."""
    return _eta_form_rhs


@pytest.fixture(scope="session")
def eta_form_dop853():
    """``solve(eta0, p, r_end, atol)``: scipy's DOP853 interpolant of the eta
    form at rtol 1e-13, from the quadratic series start at r = 1e-6,
    eta = eta0 + a r^2 and eta' = 2 a r with a = eta''(0) / 2 = -lambda_tilde
    S(eta0) / 6, which balances the (2/r) eta' friction against the source."""
    pytest.importorskip("scipy")
    from scipy.integrate import solve_ivp

    def solve(eta0, p, r_end, atol=1e-15):
        eps = 1e-6
        a = _eta_form_rhs(1.0, eta0, 0.0, p) / 6.0
        ref = solve_ivp(
            lambda r, y: (y[1], _eta_form_rhs(r, y[0], y[1], p)),
            (eps, r_end),
            (eta0 + a * eps * eps, 2.0 * a * eps),
            method="DOP853",
            rtol=1e-13,
            atol=atol,
            dense_output=True,
        )
        assert ref.success
        return ref.sol

    return solve


@pytest.fixture(scope="session")
def eta_form_slope():
    """``slope(eta0, m)``: d residual / d eta0 of shooting._probe at lambda_tilde
    = 1, from scipy's DOP853 at rtol 1e-13 on the eta form and its variational
    equation zeta'' = -(2/r) zeta' - S'(eta) zeta, zeta = d eta / d eta0, both
    from the series start at r = 1e-6 that ``eta_form_dop853`` takes (zeta =
    1 + a' r^2, a' = -S'(eta0) / 6).  The residual is -g exp(-m x_f), g = x_f
    eta' + eta + m x_f eta at the horizon x_f = 8/m, so the slope is
    -exp(-m x_f) (x_f zeta' + zeta + m x_f zeta)."""
    pytest.importorskip("scipy")
    from scipy.integrate import solve_ivp

    def slope(eta0, m):
        p = shooting.CouplingParams(1.0, m)

        def ds(eta):  # S'(eta)
            s = math.sinh(0.5 * eta)
            return math.cosh(eta) * (s * s - m * m) + 0.5 * math.sinh(eta) ** 2

        def rhs(r, y):
            return y[1], _eta_form_rhs(r, y[0], y[1], p), y[3], -2.0 / r * y[3] - ds(y[0]) * y[2]

        eps, x_f = 1e-6, 8.0 / m
        a, b = _eta_form_rhs(1.0, eta0, 0.0, p) / 6.0, -ds(eta0) / 6.0
        sol = solve_ivp(rhs, (eps, x_f), (eta0 + a * eps * eps, 2.0 * a * eps, 1.0 + b * eps * eps, 2.0 * b * eps),
                        method="DOP853", rtol=1e-13, atol=1e-15)
        assert sol.success
        zeta, dzeta = sol.y[2, -1], sol.y[3, -1]
        return -math.exp(-m * x_f) * (x_f * dzeta + zeta + m * x_f * zeta)

    return slope
