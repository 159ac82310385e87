import math
import warnings

import numpy as np
import pytest

from naqlab.charge import (
    ChargeModel,
    UnitsConfig,
    corrected_field_tensor,
    energy_report,
    exact_fields,
    exact_solution,
    gauss_residual,
    induced_charge_density,
)

UNIT_MODEL = ChargeModel(q=1.0)
EPS = np.finfo(float).eps


class TestExactSolution:
    def test_alpha_scale(self):
        model = ChargeModel(q=2.0, units=UnitsConfig(G=4.0, c=2.0))
        assert model.alpha == pytest.approx(2.0 * 2.0 / 4.0)

    def test_values_at_alpha(self):
        # at r = alpha the argument is exactly 1
        s = exact_solution(1.0, UNIT_MODEL)
        assert s.phi == pytest.approx(math.sinh(1.0), rel=1e-15)
        assert s.E_r == pytest.approx(1.0 / math.cosh(1.0), rel=1e-15)
        assert s.rho == pytest.approx(
            math.tanh(1.0) / math.cosh(1.0) / (4 * math.pi), rel=1e-15
        )

    def test_coulomb_limit_far_away(self):
        # at r = 100 alpha the deviation from q/r^2 is O((alpha/r)^2) ~ 5e-5
        r = 100.0
        s = exact_solution(r, UNIT_MODEL)
        assert s.E_r == pytest.approx(1.0 / r**2, rel=6e-5)
        assert s.phi == pytest.approx(1.0 / r, rel=6e-5)

    def test_origin_regularity(self):
        # field and density die off exponentially toward the origin
        s = exact_solution(UNIT_MODEL.alpha / 50.0, UNIT_MODEL)
        assert abs(s.E_r) < 1e-12
        assert abs(s.rho) < 1e-12

    def test_asymptotic_branch_continuity(self):
        # one formula everywhere; this pins the point where an exponential
        # asymptotic branch used to take over (alpha/r = 30)
        for x in (29.999, 30.001):
            r = UNIT_MODEL.alpha / x
            s = exact_solution(r, UNIT_MODEL)
            expected = 1.0 / (r**2 * math.cosh(x))
            assert s.E_r == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_overflow_edge(self, sign):
        # all three fields are finite up to |alpha/r| ~ 710.47, where cosh
        # overflows, and neither side of that edge warns
        model = ChargeModel(q=sign)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            near = exact_solution(1.0 / 705.0, model)
            far = exact_solution(1.0 / 800.0, model)
        assert near.phi == pytest.approx(sign * math.sinh(705.0), rel=1e-14)
        assert sign * near.E_r > 0
        assert near.E_r == pytest.approx(sign * 705.0**2 / math.cosh(705.0), rel=1e-13)
        assert far.phi == sign * math.inf
        assert far.E_r == far.rho == 0.0

    def test_negative_charge_parity(self):
        plus = exact_solution(0.7, ChargeModel(q=1.0))
        minus = exact_solution(0.7, ChargeModel(q=-1.0))
        assert minus.phi == pytest.approx(-plus.phi)
        assert minus.E_r == pytest.approx(-plus.E_r)
        assert minus.rho == pytest.approx(-plus.rho)

    def test_zero_charge(self):
        s = exact_solution(1.0, ChargeModel(q=0.0))
        assert (s.phi, s.E_r, s.rho) == (0.0, 0.0, 0.0)

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            exact_solution(0.0, UNIT_MODEL)

    @pytest.mark.parametrize("bad", (0.0, -1.0))
    def test_nonpositive_radius_rejected_in_array(self, bad):
        rs = np.array([0.5, 1.0, bad, 2.0])
        with pytest.raises(ValueError, match="radius must be positive"):
            exact_fields(rs, UNIT_MODEL)

    @pytest.mark.parametrize("q", (1.7, -1.7))
    def test_matches_per_radius_math_reference(self, q):
        # numpy's sinh/cosh/tanh against libm's, same formulas per radius;
        # the bound is 16 ulp of float64
        model = ChargeModel(q=q, units=UnitsConfig(G=1.3, c=0.9))
        rs = abs(model.alpha) / np.geomspace(1e-3, 700.0, 400)
        fields = exact_fields(rs, model)
        k = math.sqrt(1.3) / (4.0 * math.pi * 0.9**2)
        for i, r in enumerate(rs.tolist()):
            x = model.alpha / r
            assert fields["phi"][i] == pytest.approx(0.9**2 / math.sqrt(1.3) * math.sinh(x), rel=16 * EPS)
            assert fields["E_r"][i] == pytest.approx(q / (r * r * math.cosh(x)), rel=16 * EPS)
            assert fields["rho"][i] == pytest.approx(
                k * math.tanh(x) / math.cosh(x) * q * q / r**4, rel=16 * EPS
            )

    def test_vectorized_matches_scalar(self):
        rs = np.geomspace(1e-2, 1e2, 20)
        fields = exact_fields(rs, UNIT_MODEL)
        for i, r in enumerate(rs):
            s = exact_solution(float(r), UNIT_MODEL)
            assert fields["phi"][i] == s.phi
            assert fields["E_r"][i] == s.E_r
            assert fields["rho"][i] == s.rho


class TestDerivedQuantities:
    def test_corrected_field_matches_closed_form(self):
        # -phi'/(1 + G phi^2/c^4) must reproduce E_r of the closed form
        units = UnitsConfig()
        for r in (0.3, 1.0, 5.0):
            x = 1.0 / r
            phi = math.sinh(x)
            dphi = -math.cosh(x) / r**2
            e = corrected_field_tensor(phi, dphi, units)
            assert e == pytest.approx(exact_solution(r, UNIT_MODEL).E_r, rel=1e-14)

    def test_classical_limit_is_plain_gradient(self):
        assert corrected_field_tensor(0.0, -3.0, UnitsConfig()) == 3.0

    def test_induced_density_consistency(self):
        # rho = (G/4 pi c^4) E^2 phi agrees with the closed-form density
        units = UnitsConfig()
        for r in (0.2, 1.0, 4.0):
            s = exact_solution(r, UNIT_MODEL)
            assert induced_charge_density(s.E_r, s.phi, units) == pytest.approx(
                s.rho, rel=1e-14
            )


class TestGaussResidual:
    def test_second_order_in_grid_spacing(self):
        res = []
        for n in (200, 400):
            grid = np.linspace(0.5, 5.0, n + 1)
            res.append(gauss_residual(UNIT_MODEL, grid))
        assert res[0] > 0
        assert 3.0 < res[0] / res[1] < 5.0

    def test_small_on_fine_grid(self):
        grid = np.linspace(0.5, 5.0, 4001)
        assert gauss_residual(UNIT_MODEL, grid) < 1e-5

    def test_zero_charge_residual_is_zero(self):
        grid = np.linspace(0.5, 5.0, 101)
        assert gauss_residual(ChargeModel(q=0.0), grid) == 0.0

    def test_rejects_bad_grids(self):
        with pytest.raises(ValueError):
            gauss_residual(UNIT_MODEL, np.array([1.0, 2.0, 3.0]))
        with pytest.raises(ValueError):
            gauss_residual(UNIT_MODEL, np.array([-1.0, 1.0, 2.0, 3.0, 4.0]))


class TestEnergyReport:
    def test_field_energy_closed_form(self):
        rep = energy_report(UNIT_MODEL, r_min=1e-3)
        assert rep.closed_form_field_energy == 0.5
        assert rep.field_energy == pytest.approx(0.5, abs=1e-10)

    def test_field_energy_scales_with_charge(self):
        rep = energy_report(ChargeModel(q=3.0), r_min=1e-3)
        assert rep.field_energy == pytest.approx(1.5, rel=1e-10)

    @pytest.mark.parametrize("r_min", (1e-2, 1e-3, 1e-4))
    def test_self_energy_closed_form(self, r_min):
        rep = energy_report(UNIT_MODEL, r_min=r_min)
        assert rep.self_energy == pytest.approx(
            rep.closed_form_self_energy, rel=1e-6
        )

    def test_self_energy_diverges_with_cutoff(self):
        values = [
            energy_report(UNIT_MODEL, r_min=r).self_energy
            for r in (1e-1, 1e-2, 1e-3)
        ]
        assert values[0] < values[1] < values[2]
        # the divergence is ~ q^2/(2 r_min) once the cutoff is deep inside
        assert values[2] == pytest.approx(0.5e3 - 0.5, rel=1e-6)

    def test_zero_charge(self):
        rep = energy_report(ChargeModel(q=0.0), r_min=1e-3)
        assert rep.field_energy == 0.0
        assert rep.self_energy == 0.0

    def test_rejects_nonpositive_cutoff(self):
        with pytest.raises(ValueError):
            energy_report(UNIT_MODEL, r_min=0.0)
