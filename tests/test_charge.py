import math
import tracemalloc
import warnings
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from lab_oracles import gauss_residual

from naqlab.charge import (
    ChargeModel,
    energy_report,
    exact_fields,
    exact_solution,
)

UNIT_MODEL = ChargeModel(q=1.0)
EPS = np.finfo(float).eps


class TestChargeModel:
    @pytest.mark.parametrize("G, c", ((0.0, 1.0), (1.0, -1.0), (math.nan, 1.0), (1.0, math.nan)))
    def test_units_must_be_positive(self, G, c):
        with pytest.raises(ValueError, match="G and c must be strictly positive"):
            ChargeModel(q=1.0, G=G, c=c)

    @pytest.mark.parametrize(
        "q, G, c",
        (
            (1.0, 1.0, 1e200),  # c**2 overflows
            (0.0, 1.0, 1e200),
            (1.0, 1.0, 1e-200),  # c**2 is 0
            (0.0, 1e-320, 1e150),  # c^2/sqrt(G) overflows
            (1e-300, 1.0, 1e100),  # alpha underflows to 0
            (1e300, 1.0, 1e-10),  # alpha overflows
            (math.inf, 1.0, 1.0),
            (math.nan, 1.0, 1.0),
        ),
    )
    def test_scales_out_of_float64_range_rejected(self, q, G, c):
        with pytest.raises(ValueError, match="out of float64 range"):
            ChargeModel(q=q, G=G, c=c)


def decimal_closed_forms(q, G, c, r=None):
    """alpha, and at radius ``r`` E_r and rho, of the closed forms in 50-digit
    decimal arithmetic from the exact values of the float inputs."""
    with localcontext() as ctx:
        ctx.prec = 50
        q, G, c = map(Decimal, (q, G, c))
        alpha = q * G.sqrt() / (c * c)
        if r is None:
            return float(alpha)
        x = alpha / Decimal(r)
        cosh = (x.exp() + (-x).exp()) / 2
        tanh = ((2 * x).exp() - 1) / ((2 * x).exp() + 1)
        pi = Decimal("3.14159265358979323846264338327950288419716939937511")
        e_r = q / (Decimal(r) ** 2 * cosh)
        rho = G.sqrt() / (4 * pi * c * c) * tanh / cosh * q * q / Decimal(r) ** 4
        return float(e_r), float(rho)


class TestExactSolution:
    def test_alpha_scale(self):
        model = ChargeModel(q=2.0, G=4.0, c=2.0)
        assert model.alpha == pytest.approx(2.0 * 2.0 / 4.0)

    @pytest.mark.parametrize(
        "q, G, c",
        (
            (1e-300, 1e-30, 1e-5),  # q sqrt(G) is subnormal
            (-1e-300, 1e-30, 1e-5),
            (1.7, 1.3, 0.9),
            (1e-297, 1.0, 1.0),
            (1e300, 1e-30, 1e-5),
        ),
    )
    def test_alpha_to_one_rounding(self, q, G, c):
        # where q sqrt(G) is normal alpha keeps the bits of q sqrt(G) / c^2
        model = ChargeModel(q=q, G=G, c=c)
        assert model.alpha == pytest.approx(decimal_closed_forms(q, G, c), rel=2 * EPS, abs=0.0)
        if abs(q * math.sqrt(G)) >= 2.2250738585072014e-308:
            assert model.alpha == q * math.sqrt(G) / c**2

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

    @pytest.mark.parametrize(
        "q, G, c, r",
        (
            (1e-297, 1.0, 1.0, 1e-300),  # |x| = 1000
            (-1e-297, 1.0, 1.0, 1e-300),
            (1.0, 1.0, 1.0, 1.0 / 711.0),  # just past the overflow
            (1.0, 1.0, 1.0, 1.0 / 740.0),  # E_r subnormal
            (-2.5e-200, 0.7, 1.9, 7e-204),
            (1e-300, 1e-30, 1e-5, 1e-308),  # subnormal q sqrt(G), huge rho
        ),
    )
    def test_tail_past_cosh_overflow(self, q, G, c, r):
        # 1/cosh(x) = 2 exp(-|x|) there; the bound is a few ulp of the
        # exponent, whose rounding in x and log r is amplified by exp
        model = ChargeModel(q=q, G=G, c=c)
        e_ref, rho_ref = decimal_closed_forms(q, G, c, r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fields = exact_fields(np.array([r, 1.0]), model)
        assert abs(model.alpha / r) > 710.5
        assert e_ref != 0.0 and math.isfinite(rho_ref)
        rel = 8 * EPS * max(abs(model.alpha / r), abs(math.log(r)))
        assert fields["E_r"][0] == pytest.approx(e_ref, rel=rel, abs=5e-324)
        assert fields["rho"][0] == pytest.approx(rho_ref, rel=rel, abs=5e-324)
        assert fields["E_r"][1] == exact_solution(1.0, model).E_r

    @pytest.mark.parametrize("r", (1e-100, 5e-324))
    @pytest.mark.parametrize("q", (1.0, -1.0, 0.0))
    def test_tiny_radius(self, r, q):
        # r**4 (and at 5e-324 also r**2) underflows to 0 here, and cosh
        # overflows unless q = 0; E_r and rho are still zeros with the sign
        # of q rather than 0 / 0, and nothing warns
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = exact_solution(r, ChargeModel(q=q))
            fields = exact_fields(np.array([r, 1.0]), ChargeModel(q=q))
        assert s.phi == (q * math.inf if q else 0.0)
        for value in (s.E_r, s.rho, fields["E_r"][0], fields["rho"][0]):
            assert value == 0.0
            assert math.copysign(1.0, value) == math.copysign(1.0, q)
        assert fields["E_r"][1] == exact_solution(1.0, ChargeModel(q=q)).E_r

    @pytest.mark.parametrize(
        "q, rs",
        (
            (1e200, (1e250, 1e275, 1e300)),  # r*r, r**4 and q*q overflow
            (-1e200, (1e199, 1e200, 1e201)),
            (1e160, (1e159, 1e160, 1e161)),  # rho is subnormal
            (1e-170, (1e-171, 1e-170, 1e-169)),  # r*r underflows; rho overflows
        ),
    )
    def test_extreme_charge_and_radius(self, q, rs):
        # reference: the closed forms in exact rational arithmetic around
        # libm's cosh and tanh, rounded once; no value is nan and nothing warns
        def rounded(value):
            try:
                return float(value)
            except OverflowError:
                return math.inf if value > 0 else -math.inf

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fields = exact_fields(np.array(rs), ChargeModel(q=q))
        for i, r in enumerate(rs):
            x = q / r
            cosh, tanh = Fraction(math.cosh(x)), Fraction(math.tanh(x))
            e_ref = rounded(Fraction(q) / (Fraction(r) ** 2 * cosh))
            rho_ref = rounded(tanh / cosh * Fraction(q) ** 2 / Fraction(r) ** 4 / Fraction(4 * math.pi))
            assert fields["E_r"][i] == pytest.approx(e_ref, rel=4 * EPS, abs=0.0)
            assert fields["rho"][i] == pytest.approx(rho_ref, rel=8 * EPS, abs=4e-323)

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
        model = ChargeModel(q=q, G=1.3, c=0.9)
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

    @pytest.mark.parametrize("a, b", ((1e-2, 1e2), (1e-3, 1e3)))
    def test_peak_memory_is_the_columns_and_one_block(self, a, b):
        # 5e4 radii, taken 4096 at a time: the three new columns (1.2 MB) and
        # the temporaries of one block, at most 16 arrays of 4096 floats.
        # Measured 1.47 MB on the fields workload's grid and 1.58 MB on
        # 1e-3:1e3, whose radii below 1/710.47 take the log-space tail; 2.50
        # and 4.15 MB when each temporary spanned the whole grid
        rs = np.geomspace(a, b, 50_000)
        exact_fields(rs, UNIT_MODEL)
        tracemalloc.start()
        try:
            exact_fields(rs, UNIT_MODEL)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * rs.nbytes + 16 * 8 * 4096


class TestDerivedQuantities:
    """The torsion-corrected field and the induced density as identities of
    the closed form, with phi' = -(c^2/sqrt(G)) cosh(alpha/r) alpha/r^2."""

    MODEL = ChargeModel(q=0.7, G=1.3, c=0.9)

    def test_corrected_field_matches_closed_form(self):
        # E_r = -phi'/(1 + G phi^2/c^4)
        model, alpha = self.MODEL, self.MODEL.alpha
        r = np.array([0.3, 1.0, 5.0])
        fields = exact_fields(r, model)
        dphi = -model.c**2 / math.sqrt(model.G) * np.cosh(alpha / r) * alpha / r**2
        corrected = -dphi / (1.0 + model.G / model.c**4 * fields["phi"] ** 2)
        assert np.allclose(corrected, fields["E_r"], rtol=1e-14, atol=0.0)

    def test_classical_limit_is_plain_gradient(self):
        # far out G phi^2/c^4 rounds away against 1 and E_r = -phi'
        r = 1e9
        fields = exact_fields(np.array([r]), UNIT_MODEL)
        assert 1.0 + float(fields["phi"][0]) ** 2 == 1.0
        assert fields["E_r"][0] == pytest.approx(math.cosh(1.0 / r) / r**2, rel=1e-15)

    def test_induced_density_consistency(self):
        # rho = (G / 4 pi c^4) E_r^2 phi
        model = self.MODEL
        fields = exact_fields(np.array([0.2, 1.0, 4.0]), model)
        induced = model.G / (4.0 * math.pi * model.c**4) * fields["E_r"] ** 2 * fields["phi"]
        assert np.allclose(induced, fields["rho"], rtol=1e-14, atol=0.0)


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
        with pytest.raises(ValueError, match="need at least 3 matching 1-D samples"):
            gauss_residual(UNIT_MODEL, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="sample points must be strictly increasing"):
            gauss_residual(UNIT_MODEL, np.array([3.0, 2.0, 1.0]))
        with pytest.raises(ValueError):
            gauss_residual(UNIT_MODEL, np.array([-1.0, 1.0, 2.0, 3.0, 4.0]))

    def test_three_point_grid_has_a_residual(self):
        # one interior point, where the centered stencil is complete
        res = gauss_residual(UNIT_MODEL, np.array([1.0, 1.5, 2.0]))
        assert math.isfinite(res) and res > 0


class TestEnergyReport:
    def test_field_energy_closed_form(self):
        rep = energy_report(UNIT_MODEL, r_min=1e-3)
        assert rep.closed_form_field_energy == 0.5
        assert rep.field_energy == pytest.approx(0.5, abs=1e-10)

    def test_field_energy_scales_with_charge(self):
        rep = energy_report(ChargeModel(q=3.0), r_min=1e-3)
        assert rep.field_energy == pytest.approx(1.5, rel=1e-10)

    # at r_min = 1e-250 the quadrature's first panel estimate once
    # overflowed in its (200 raw)^1.5 sharpening
    @pytest.mark.parametrize("r_min", (1e-2, 1e-3, 1e-4, 1e-250))
    def test_self_energy_closed_form(self, r_min):
        rep = energy_report(UNIT_MODEL, r_min=r_min)
        assert rep.self_energy == pytest.approx(
            rep.closed_form_self_energy, rel=1e-6
        )

    @pytest.mark.parametrize("q", (1e-9, 1e-6, 1e-3, 0.3, 0.4999, 0.5, 0.7, 3.0))
    def test_closed_form_self_energy_digits(self, q):
        # at r_min = 1 the cutoff U = alpha/r_min is q; U - tanh U cancels
        # most of its digits for small U, where the series takes over
        pytest.importorskip("mpmath")
        import mpmath

        with mpmath.workdps(50):
            u = mpmath.mpf(q)
            reference = float(u / 2 * (u - mpmath.tanh(u)))
        rep = energy_report(ChargeModel(q=q), r_min=1.0)
        assert rep.closed_form_self_energy == pytest.approx(reference, rel=4e-15, abs=0.0)
        assert rep.self_energy == pytest.approx(reference, rel=1e-8, abs=0.0)

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
