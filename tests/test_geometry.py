import itertools
import math
import re
import warnings

import numpy as np
import pytest

from naqlab import geometry
from naqlab.charge import ChargeModel, energy_report
from naqlab.geometry import (
    ContorsionTensor,
    Grid,
    GridTooSmallError,
    MetricNotInvertibleError,
    assemble_connection,
    christoffel_from_metric,
    contorsion_from_torsion,
    random_identity_suite,
    ricci_from_connection,
    split_connection,
    torsion_from_connection,
)

RNG = np.random.default_rng(42)


def random_metric():
    a = RNG.uniform(-0.2, 0.2, size=(4, 4))
    return np.eye(4) + 0.5 * (a + a.T)


def random_antisymmetric_torsion():
    t = RNG.uniform(-1, 1, size=(4, 4, 4))
    return t - np.swapaxes(t, 0, 1)


def theta_grid(n, h, center=1.0):
    th = center + h * (np.arange(n) - n // 2)
    one = np.array([0.0])
    return Grid((one, one, th, one))


def sphere_metric(grid):
    # coords (t, w, theta, phi): flat block plus a unit 2-sphere block
    th = grid.axes[2]
    g = np.zeros(grid.shape + (4, 4))
    g[..., 0, 0] = -1.0
    g[..., 1, 1] = 1.0
    g[..., 2, 2] = 1.0
    g[..., 3, 3] = (np.sin(th) ** 2)[None, None, :, None]
    return g


def sphere_christoffels(grid):
    th = grid.axes[2]
    conn = np.zeros(grid.shape + (4, 4, 4))
    conn[..., 3, 3, 2] = (-np.sin(th) * np.cos(th))[None, None, :, None]
    cot = (np.cos(th) / np.sin(th))[None, None, :, None]
    conn[..., 2, 3, 3] = cot
    conn[..., 3, 2, 3] = cot
    return conn


class TestChristoffel:
    def test_minkowski_gives_zero(self):
        grid = theta_grid(9, 0.1)
        g = np.zeros(grid.shape + (4, 4))
        g[...] = np.diag([-1.0, 1.0, 1.0, 1.0])
        gamma, _ = christoffel_from_metric(g, grid)
        assert np.abs(gamma).max() == 0.0

    def test_sphere_closed_form(self):
        errs = []
        for n, h in ((41, 0.02), (81, 0.01)):
            grid = theta_grid(n, h)
            gamma, ig = christoffel_from_metric(sphere_metric(grid), grid)
            th = ig.axes[2]
            err1 = np.abs(gamma[0, 0, :, 0, 3, 3, 2] - (-np.sin(th) * np.cos(th))).max()
            err2 = np.abs(gamma[0, 0, :, 0, 2, 3, 3] - np.cos(th) / np.sin(th)).max()
            errs.append(max(err1, err2))
        assert errs[0] < 5e-4
        assert 3.0 < errs[0] / errs[1] < 5.0  # O(h^2)

    def test_symmetry_in_lower_indices(self):
        grid = theta_grid(21, 0.05)
        gamma, _ = christoffel_from_metric(sphere_metric(grid), grid)
        assert np.allclose(gamma, np.swapaxes(gamma, -3, -2), atol=1e-14)

    def test_conformal_factor_components_linear_in_slope(self):
        # g = exp(2 a x) * eta: the coefficients are exactly linear in a
        def conformal(grid, a):
            x = grid.axes[2]
            factor = np.exp(2 * a * x)[None, None, :, None]
            g = np.zeros(grid.shape + (4, 4))
            for i, s in enumerate((-1.0, 1.0, 1.0, 1.0)):
                g[..., i, i] = s * factor
            return g

        grid = theta_grid(41, 0.005, center=0.0)
        gamma1, ig = christoffel_from_metric(conformal(grid, 0.1), grid)
        gamma2, _ = christoffel_from_metric(conformal(grid, 0.2), grid)
        mid = ig.axes[2].size // 2
        g1 = gamma1[0, 0, mid, 0]
        g2 = gamma2[0, 0, mid, 0]
        assert np.abs(g2 - 2 * g1).max() < 5e-4  # within O(h^2)
        assert np.abs(g1).max() > 0.05

    def test_singular_metric_reported(self):
        grid = theta_grid(9, 0.1)
        g = np.zeros(grid.shape + (4, 4))  # det == 0 everywhere
        with pytest.raises(MetricNotInvertibleError):
            christoffel_from_metric(g, grid)


class TestPoleAndSingularPoints:
    def test_theta_grid_ending_on_both_poles(self):
        # sin^2 theta vanishes at theta = 0 and pi: singular only at the end
        # points, which no output reads
        errs = []
        for n in (33, 65):
            one = np.array([0.0])
            grid = Grid((one, one, np.linspace(0.0, math.pi, n), one))
            gamma, ig = christoffel_from_metric(sphere_metric(grid), grid)
            assert np.isfinite(gamma).all()
            th = ig.axes[2]
            errs.append(np.abs(gamma[0, 0, :, 0, 3, 3, 2] + np.sin(th) * np.cos(th)).max())
        assert errs[0] < 5e-3
        assert 3.5 < errs[0] / errs[1] < 4.5  # O(h^2)

    def test_singular_interior_point_named_in_callers_indices(self):
        one = np.array([0.0])
        grid = Grid((np.arange(3.0), one, 1.0 + 0.1 * np.arange(9), one))
        g = sphere_metric(grid)
        g[1, 0, 5, 0, 3, 3] = 0.0
        with pytest.raises(MetricNotInvertibleError) as err:
            christoffel_from_metric(g, grid)
        assert str(err.value) == (
            "metric not invertible (scaled |det| < 1e-12) at grid point (1, 0, 5, 0)"
        )

    @pytest.mark.parametrize("axis", (np.zeros(5), np.full(3, 2.0)))
    def test_grid_rejects_repeated_coordinates(self, axis):
        one = np.array([0.0])
        with pytest.raises(ValueError, match=re.escape("axes must not repeat a coordinate")):
            Grid((one, one, axis, one))

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    @pytest.mark.parametrize("where", (0, 3, 4))
    def test_grid_rejects_non_finite_coordinates(self, value, where):
        # refused before np.diff, which warns on nan and inf (pytest turns
        # that RuntimeWarning into an error)
        one = np.array([0.0])
        axis = 0.1 * np.arange(5.0)
        axis[where] = value
        with pytest.raises(ValueError, match="^axes must be finite$"):
            Grid((one, one, axis, one))

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    def test_grid_rejects_non_finite_size_one_axis(self, value):
        one = np.array([0.0])
        with pytest.raises(ValueError, match="^axes must be finite$"):
            Grid((np.array([value]), one, 0.1 * np.arange(5.0), one))

    def test_grid_rejects_non_uniform_spacing(self):
        one = np.array([0.0])
        with pytest.raises(ValueError, match="^axes must be uniformly spaced$"):
            Grid((one, one, np.array([0.0, 0.1, 0.3]), one))


def reference_partials(values, grid):
    """np.gradient over the whole grid, one-sided end points included."""
    out = np.zeros(values.shape + (4,))
    for axis, n in enumerate(grid.shape):
        if n == 1:
            continue
        out[..., axis] = np.gradient(values, grid.spacing(axis), axis=axis)
    return out


def trim_interior(values, grid):
    return values[tuple(slice(1, -1) if n > 1 else slice(None) for n in grid.shape)]


def christoffel_matmul(ginv, bracket):
    return 0.5 * (np.swapaxes(bracket, -1, -2) @ np.swapaxes(ginv, -1, -2)[..., None, :, :])


def term4_matmul(a, b):
    rows = a.shape[:-3] + (4, 16)
    return a.reshape(rows) @ np.swapaxes(np.swapaxes(b, -1, -2).reshape(rows), -1, -2)


def christoffel_rows(ginv, bracket):
    """The kernel's form: the bracket as C-ordered [..., (b c), d] rows against
    a C-ordered g^{da}, one (16x4)@(4x4) product per point."""
    rows = np.ascontiguousarray(np.swapaxes(bracket, -1, -2))
    ginv_t = np.ascontiguousarray(np.swapaxes(ginv, -1, -2))
    return 0.5 * (rows.reshape(rows.shape[:-3] + (16, 4)) @ ginv_t).reshape(rows.shape)


def term3_rows(conn, tr):
    """The kernel's form: one (16x4)@(4x1) product per point."""
    return (conn.reshape(conn.shape[:-3] + (16, 4)) @ tr[..., None]).reshape(conn.shape[:-1])


# Each contraction of the kernels as the batched matmul they use and as the
# einsum it replaced, and the metric inverse as the kernels' closed form and
# as LAPACK's; DOT_LENGTH is the length of each contraction's dot products.
# The "_rows" forms, which the kernels use, stack the rows of the per-index
# products ("christoffel", "term3", "index") into one product per point;
# the references of the kernel tests keep the per-index forms, so those tests
# check that the two give the same bits.
MATMUL = {
    "christoffel": christoffel_matmul,
    "christoffel_rows": christoffel_rows,
    "term3": lambda conn, tr: (conn @ tr[..., None, :, None])[..., 0],
    "term3_rows": term3_rows,
    "term4": term4_matmul,
    "index": lambda t, m: t @ m[..., None, :, :],
    "index_rows": geometry._index_product,
    "inverse": geometry._inverse_metric,
}
EINSUM = {
    "christoffel": lambda ginv, bracket: 0.5 * np.einsum("...ad,...bdc->...bca", ginv, bracket),
    "term3": lambda conn, tr: np.einsum("...mnr,...r->...mn", conn, tr),
    "term4": lambda a, b: np.einsum("...mrt,...ntr->...mn", a, b),
    "index": lambda t, m: np.einsum("...mnr,...rs->...mns", t, m),
    "inverse": np.linalg.inv,
}
EINSUM.update({name + "_rows": EINSUM[name] for name in ("christoffel", "term3", "index")})
DOT_LENGTH = {"christoffel": 4, "term3": 4, "term4": 16, "index": 4}
DOT_LENGTH.update({name + "_rows": 4 for name in ("christoffel", "term3", "index")})


def christoffel_operands(g, grid, forms=MATMUL):
    """Inverse metric and bracket [..., b, d, c] of the whole-grid path."""
    dg = reference_partials(g, grid)
    bracket = dg + np.einsum("...cdb->...bdc", dg) - np.einsum("...bcd->...bdc", dg)
    return forms["inverse"](g), bracket


def reference_christoffel(g, grid, forms=MATMUL):
    """The whole-grid path: every point inverted and contracted, then trimmed."""
    return trim_interior(forms["christoffel"](*christoffel_operands(g, grid, forms)), grid)


def reference_ricci(conn, grid, forms=MATMUL):
    term1 = np.einsum("...mnrr->...mn", reference_partials(conn, grid))
    term2 = reference_partials(np.einsum("...mrr->...m", conn), grid)
    tr = np.einsum("...rtt->...r", conn)
    term3 = forms["term3"](conn, tr)
    term4 = forms["term4"](conn, conn)
    return trim_interior(term1 - term2 + term3 - term4, grid)


def reference_contorsion(torsion, g, forms=MATMUL):
    t_low = forms["index"](torsion, g)
    lower = 0.5 * (np.einsum("...msn->...mns", t_low) + np.einsum("...nsm->...mns", t_low) - t_low)
    return ContorsionTensor(mixed=forms["index"](lower, forms["inverse"](g)), lower=lower)


def random_grid(shape, rng):
    # spacings of either sign and of different sizes on each axis
    return Grid(tuple(
        rng.uniform(-1, 1) + rng.choice((-1, 1)) * rng.uniform(0.01, 0.3) * np.arange(n)
        for n in shape
    ))


def with_layout(a, layout):
    if layout == "fortran":
        return np.asfortranarray(a)
    if layout == "strided":
        buf = np.zeros(a.shape[:-1] + (2 * a.shape[-1],))
        buf[..., ::2] = a
        return buf[..., ::2]
    return a


LAYOUTS = ("c", "fortran", "strided")


class TestInteriorKernelsMatchWholeGridPath:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize(
        "shape", ((1, 1, 1, 1), (1, 1, 3, 1), (3, 3, 3, 3), (5, 1, 4, 7), (1, 6, 1, 3))
    )
    def test_christoffel_on_random_metrics(self, shape, layout):
        rng = np.random.default_rng(sum(shape))
        grid = random_grid(shape, rng)
        a = rng.uniform(-0.2, 0.2, size=shape + (4, 4))
        g = np.eye(4) + 0.5 * (a + np.swapaxes(a, -1, -2))
        gamma, ig = christoffel_from_metric(with_layout(g, layout), grid)
        assert np.array_equal(gamma, reference_christoffel(g, grid))
        assert ig.shape == gamma.shape[:4]

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize(
        "shape",
        ((1, 1, 1, 1), (1, 1, 5, 1), (5, 5, 1, 5), (6, 1, 7, 1), (1, 9, 1, 6), (3, 4, 1, 3)),
    )
    def test_ricci_on_random_connections(self, shape, layout):
        rng = np.random.default_rng(sum(shape))
        grid = random_grid(shape, rng)
        conn = rng.uniform(-1, 1, size=shape + (4, 4, 4))
        ricci, ig = ricci_from_connection(with_layout(conn, layout), grid)
        assert np.array_equal(ricci, reference_ricci(conn, grid))
        assert ig.shape == ricci.shape[:4]

    @pytest.mark.parametrize("n", (9, 17, 25))
    def test_sphere_curvature_chain(self, n):
        grid = theta_grid(n, 0.05)
        g = sphere_metric(grid)
        gamma, ig = christoffel_from_metric(g, grid)
        assert np.array_equal(gamma, reference_christoffel(g, grid))
        ricci, _ = ricci_from_connection(gamma, ig)
        assert np.array_equal(ricci, reference_ricci(gamma, ig))


def random_stack(shape, rng):
    """Random metrics and antisymmetric torsions over a stack of points."""
    a = rng.uniform(-0.2, 0.2, size=shape + (4, 4))
    t = rng.uniform(-1, 1, size=shape + (4, 4, 4))
    return np.eye(4) + 0.5 * (a + np.swapaxes(a, -1, -2)), t - np.swapaxes(t, -3, -2)


class TestLayoutIndependence:
    # the same values as C-ordered, Fortran-ordered and strided input give
    # the same bits, in a C-ordered output
    SHAPE = (8, 8, 8, 8)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_christoffel(self, layout):
        rng = np.random.default_rng(8)
        grid = random_grid(self.SHAPE, rng)
        g, _ = random_stack(self.SHAPE, rng)
        gamma, _ = christoffel_from_metric(with_layout(g, layout), grid)
        assert np.array_equal(gamma, christoffel_from_metric(g, grid)[0])
        assert gamma.flags.c_contiguous

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_ricci(self, layout):
        rng = np.random.default_rng(8)
        grid = random_grid(self.SHAPE, rng)
        conn = rng.uniform(-1, 1, size=self.SHAPE + (4, 4, 4))
        ricci, _ = ricci_from_connection(with_layout(conn, layout), grid)
        assert np.array_equal(ricci, ricci_from_connection(conn, grid)[0])
        assert ricci.flags.c_contiguous

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_contorsion(self, layout):
        g, torsion = random_stack(self.SHAPE[:2], np.random.default_rng(8))
        k = contorsion_from_torsion(with_layout(torsion, layout), with_layout(g, layout))
        want = contorsion_from_torsion(torsion, g)
        assert np.array_equal(k.mixed, want.mixed) and np.array_equal(k.lower, want.lower)
        assert k.mixed.flags.c_contiguous and k.lower.flags.c_contiguous


# Each call site of geometry._allclose: the pair it compares and the
# tolerances it passes (np.allclose's keywords).
CHECK_SITES = {
    "metric": (lambda a: (a, np.swapaxes(a, -1, -2)), dict(atol=1e-12, equal_nan=True)),
    "torsion": (lambda a: (a, -np.swapaxes(a, -3, -2)), dict(atol=1e-12)),
    "christoffel": (lambda a: (a, np.swapaxes(a, -3, -2)), dict(atol=1e-10)),
    "grid": (lambda a: (a, a[0]), dict(rtol=1e-12, atol=0)),
}
# index of one entry and of its partner under the site's swap; for the grid,
# of one spacing and of the first, which every spacing is compared with
CHECK_PAIRS = {
    "metric": ((0, 1, 2), (0, 2, 1)),
    "torsion": ((1, 0, 3, 2), (1, 3, 0, 2)),
    "christoffel": ((1, 2, 0, 3), (1, 0, 2, 3)),
    "grid": ((3,), (0,)),
}
SPECIALS = (
    np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1e-300, 0.7, -0.7, 1.7976931348623157e308, -1.7976931348623157e308,
)


def check_stack(site, rng):
    """A random input that passes the site's check: a symmetric metric
    stack, an antisymmetric torsion, a symmetric connection, or the
    spacings of a uniform axis (equal only to rounding)."""
    if site == "grid":
        return np.diff(rng.uniform(-1, 1) + rng.uniform(0.01, 0.3) * np.arange(12))
    shape = (3, 4, 4) if site == "metric" else (3, 4, 4, 4)
    a = rng.uniform(-2, 2, size=shape)
    if site == "torsion":
        return a - np.swapaxes(a, -3, -2)
    axes = (-1, -2) if site == "metric" else (-3, -2)
    return a + np.swapaxes(a, *axes)


def edge_values(y, atol, rtol):
    """Float neighbours of y +- (atol + rtol |y|), the edge of np.isclose's
    test, and the points y +- tol (1 +- rtol/2), which lie between that edge
    and the one a bound scaled by |x| instead of |y| would give."""
    tol = atol + rtol * abs(y)
    out = [y + sign * tol * (1 + f * rtol / 2) for sign in (1, -1) for f in (1, -1)]
    for edge in (y + tol, y - tol):
        v = edge
        for _ in range(3):
            v = np.nextafter(v, -np.inf)
        for _ in range(7):
            out.append(v)
            v = np.nextafter(v, np.inf)
    return out


def verdicts(a, b, kw):
    """geometry._allclose and np.allclose on one pair, with the warnings each gives."""
    out = []
    for check in (geometry._allclose, np.allclose):
        with warnings.catch_warnings(record=True) as got:
            warnings.simplefilter("always")
            verdict = check(a, b, **kw)
        out.append((verdict, [str(w.message) for w in got]))
    return out


class TestAllcloseVerdict:
    """geometry._allclose against np.allclose at each call site: the same
    verdict and the same warnings, in both argument orders (np.isclose
    scales its bound by the second argument only)."""

    def check(self, site, a, seen):
        pair, kw = CHECK_SITES[site]
        a, b = pair(a)
        for x, y in ((a, b), (b, a)):
            (verdict, warned), (want, want_warned) = verdicts(x, y, kw)
            assert type(verdict) is bool
            assert verdict == want and warned == want_warned, (site, x, y)
            seen.add(verdict)

    @pytest.mark.parametrize("site", CHECK_SITES)
    def test_random_stacks(self, site):
        rng = np.random.default_rng(list(CHECK_SITES).index(site))
        seen = set()
        for _ in range(100):
            a = check_stack(site, rng)
            if rng.random() < 0.7:
                # move a few entries by about the tolerance
                kw = CHECK_SITES[site][1]
                flat = a.reshape(-1)
                for i in rng.integers(0, flat.size, size=rng.integers(1, 4)):
                    bound = kw["atol"] + kw.get("rtol", 1e-5) * abs(flat[i])
                    flat[i] += rng.uniform(-3, 3) * bound
            self.check(site, a, seen)
        assert seen == {True, False}

    @pytest.mark.parametrize("site", CHECK_SITES)
    def test_special_values(self, site):
        rng = np.random.default_rng(7)
        first, second = CHECK_PAIRS[site]
        seen = set()
        for u, v in itertools.product(SPECIALS, repeat=2):
            a = check_stack(site, rng)
            if site == "grid":
                a[:] = v
            a[first], a[second] = u, v
            self.check(site, a, seen)
        assert seen == {True, False}

    @pytest.mark.parametrize("site", CHECK_SITES)
    def test_one_ulp_either_side_of_the_bound(self, site):
        rng = np.random.default_rng(11)
        first, second = CHECK_PAIRS[site]
        kw = CHECK_SITES[site][1]
        seen = set()
        scale = kw["atol"] or 1e-12
        for y in (0.0, 5e-324, 1e-310, 0.3 * scale, scale, -3.7 * scale, 3e-7, 0.3, -1.7, 2.5e5, 1e300):
            # the partner entry is the bound's |b|; the torsion site negates it
            partner = -y if site == "torsion" else y
            for x in edge_values(y, kw["atol"], kw.get("rtol", 1e-5)):
                a = check_stack(site, rng)
                if site == "grid":
                    a[:] = partner
                a[first], a[second] = x, partner
                self.check(site, a, seen)
        assert seen == {True, False}

    @pytest.mark.parametrize("site", CHECK_SITES)
    def test_one_pass_decides_close_finite_input(self, site, monkeypatch):
        # every finite input that np.allclose accepts is accepted without
        # calling it, exact bound hits included
        pair, kw = CHECK_SITES[site]
        rng = np.random.default_rng(3)
        first, second = CHECK_PAIRS[site]
        cases = []
        # y = 2**-60 puts x - y exactly on atol + rtol |y|, above atol
        for y in (0.0, 2.0**-60, 0.3, -1.7, 2.5e5):
            for x in edge_values(y, kw["atol"], kw.get("rtol", 1e-5)) + [y, y + kw["atol"]]:
                a = check_stack(site, rng)
                if site == "grid":
                    a[:] = y
                a[first], a[second] = x, -y if site == "torsion" else y
                if np.allclose(*pair(a), **kw):
                    cases.append(a)
        assert len(cases) > 20

        def refuse(*args, **kwargs):
            raise AssertionError("np.allclose called")

        monkeypatch.setattr(np, "allclose", refuse)
        for a in cases:
            assert geometry._allclose(*pair(a), **kw) is True

    def test_integer_spacings(self):
        # np.isclose subtracts in floating point: 2**60 + 1152900 rounds to
        # 2**60 + 1153024, past the bound 1e-12 * 2**60, where the exact
        # integer difference is within it
        one = np.array([0.0])
        seen = set()
        for axis in (np.arange(5), 3 * np.arange(-2, 7), np.array([0, 2**60, 2**61 + 1152900])):
            self.check("grid", np.diff(axis), seen)
        assert seen == {True, False}
        with pytest.raises(ValueError, match="^axes must be uniformly spaced$"):
            Grid((one, one, np.array([0, 2**60, 2**61 + 1152900]), one))

    def test_empty_stack(self):
        a = np.zeros((0, 4, 4))
        assert geometry._allclose(a, np.swapaxes(a, -1, -2), atol=1e-12) is True


EPS = np.finfo(float).eps


def perturbed_metrics(shape, scale, rng):
    """Identity plus a random symmetric perturbation of entries up to ``scale``."""
    a = rng.uniform(-scale, scale, size=shape + (4, 4))
    return np.eye(4) + 0.5 * (a + np.swapaxes(a, -1, -2))


def singular_grid_metric(value):
    """Sphere metric on a 3 x 9 grid with ``value`` at g_33 of grid point (1, 0, 5, 0)."""
    one = np.array([0.0])
    grid = Grid((np.arange(3.0), one, 1.0 + 0.1 * np.arange(9), one))
    g = sphere_metric(grid)
    g[1, 0, 5, 0, 3, 3] = value
    return g, grid


class TestInverseMetric:
    """The closed-form inverse against LAPACK, and its scaling and refusals."""

    @pytest.mark.parametrize("scale", (0.1, 0.5, 0.9))
    def test_inverse_against_lapack(self, scale):
        g = perturbed_metrics((2000,), scale, np.random.default_rng(17))
        ginv = geometry._inverse_metric(g)
        bound = 8 * EPS * np.linalg.cond(g)[:, None, None]
        assert np.all(np.abs(g @ ginv - np.eye(4)) <= bound)
        ref = np.linalg.inv(g)
        assert np.all(np.abs(ginv - ref) <= bound * np.abs(ref).max(axis=(-2, -1), keepdims=True))

    @pytest.mark.parametrize("scale", (0.1, 0.5, 0.9))
    def test_determinant_against_lapack(self, scale):
        g = perturbed_metrics((2000,), scale, np.random.default_rng(18))
        det, _ = geometry._det_adjugate(g.reshape(-1, 16).T)
        ref = np.linalg.det(g)
        assert np.all(np.abs(det - ref) <= 8 * EPS * np.linalg.cond(g) * np.abs(ref))

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("shape", ((), (7,), (3, 1, 4, 2)))
    def test_shapes_and_layouts(self, shape, layout):
        g = perturbed_metrics(shape, 0.5, np.random.default_rng(len(shape)))
        ginv = geometry._inverse_metric(with_layout(g, layout))
        assert ginv.shape == g.shape and ginv.flags.c_contiguous
        assert np.array_equal(ginv, geometry._inverse_metric(g))
        assert np.allclose(ginv, np.linalg.inv(g), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("power", (300, 1000))
    def test_power_of_two_scale_is_exact(self, power):
        g = perturbed_metrics((20,), 0.5, np.random.default_rng(4))
        scaled = geometry._inverse_metric(np.ldexp(g, power))
        assert np.array_equal(scaled, np.ldexp(geometry._inverse_metric(g), -power))

    @pytest.mark.parametrize("scale", (1e80, 1e160))
    def test_wide_scale_diagonal(self, scale):
        # an unscaled cofactor inverse returns 0 at 1e80 and nan at 1e160
        eta = np.diag([-1.0, 1.0, 1.0, 1.0])
        ginv = geometry._inverse_metric(scale * eta)
        assert np.allclose(ginv, eta / scale, rtol=4 * EPS, atol=0)

    def test_small_well_conditioned_metric_inverts(self):
        # det 1e-16, yet perfectly conditioned
        ginv = geometry._inverse_metric(1e-4 * np.eye(4))
        assert np.allclose(ginv, 1e4 * np.eye(4), rtol=EPS, atol=0)

    def test_ill_conditioned_metric_refused(self):
        with pytest.raises(MetricNotInvertibleError) as err:
            geometry._inverse_metric(np.diag([-1.0, 1.0, 1.0, 1e-13])[None])
        assert str(err.value) == "metric not invertible (scaled |det| < 1e-12) at grid point (0,)"

    @pytest.mark.parametrize("last, invertible", ((2e-12, True), (5e-13, False)))
    def test_refusal_does_not_depend_on_scale(self, last, invertible):
        # |det g| / max|g|^4 is 2e-12 or 5e-13 at every scale; at scale 1 the
        # largest entry sits on a power of two, at 0.99 just below one
        for scale in (1.0, 0.99, 0.5, 3.7, 2.0**-300, 1e80):
            g = scale * np.diag([-1.0, 1.0, 1.0, last])[None]
            if invertible:
                assert np.allclose(geometry._inverse_metric(g)[0], np.linalg.inv(g[0]), rtol=4 * EPS, atol=0)
            else:
                with pytest.raises(MetricNotInvertibleError):
                    geometry._inverse_metric(g)

    def test_zero_metric_refused(self):
        with pytest.raises(MetricNotInvertibleError) as err:
            geometry._inverse_metric(np.zeros((3, 4, 4)))
        assert str(err.value) == "metric not invertible (scaled |det| < 1e-12) at grid point (0,)"

    @pytest.mark.parametrize("value", (np.nan, np.inf, -np.inf))
    def test_non_finite_entry_named_in_callers_indices(self, value):
        g, grid = singular_grid_metric(value)
        text = "metric not invertible (scaled |det| < 1e-12) at grid point (1, 0, 5, 0)"
        with pytest.raises(MetricNotInvertibleError) as err:
            geometry._inverse_metric(g[geometry._core(grid)], offset=[1, 0, 1, 0])
        assert str(err.value) == text
        with pytest.raises(MetricNotInvertibleError) as err:
            contorsion_from_torsion(np.zeros(grid.shape + (4, 4, 4)), g)
        assert str(err.value) == text

    @pytest.mark.parametrize("value", (np.nan, np.inf))
    def test_non_finite_interior_point_in_christoffel(self, value):
        g, grid = singular_grid_metric(value)
        with pytest.raises(MetricNotInvertibleError) as err:
            christoffel_from_metric(g, grid)
        assert str(err.value) == (
            "metric not invertible (scaled |det| < 1e-12) at grid point (1, 0, 5, 0)"
        )


class TestScaledSphereMetric:
    """The Christoffel symbols do not change when the metric is scaled."""

    GRID = Grid((np.zeros(1), 0.05 * np.arange(5), 1.0 + 0.05 * np.arange(-4, 5), 0.05 * np.arange(5)))

    def test_power_of_two_scale_keeps_the_bits(self):
        g = sphere_metric(self.GRID)
        gamma, _ = christoffel_from_metric(g, self.GRID)
        for power in (300, -300):
            scaled, _ = christoffel_from_metric(np.ldexp(g, power), self.GRID)
            assert scaled.tobytes() == gamma.tobytes()

    def test_decimal_scale_within_rounding(self):
        g = sphere_metric(self.GRID)
        gamma, _ = christoffel_from_metric(g, self.GRID)
        scaled, _ = christoffel_from_metric(1e80 * g, self.GRID)
        assert np.all(np.abs(scaled - gamma) <= 8 * EPS * np.abs(gamma).max())


def gamma_n(n):
    u = 2.0**-53
    return n * u / (1 - n * u)


class TestMatmulFormsMatchEinsum:
    """Each matmul contraction against the einsum it replaced.  The two sum
    the same products in different orders, so both lie within
    gamma_n sum|a_i b_i| of the exact dot product and within twice that of
    each other."""

    def check(self, name, a, b):
        new, old = MATMUL[name](a, b), EINSUM[name](a, b)
        bound = 2 * gamma_n(DOT_LENGTH[name]) * EINSUM[name](np.abs(a), np.abs(b))
        assert new.shape == old.shape
        assert np.all(np.abs(new - old) <= bound)

    @pytest.mark.parametrize("shape", ((3, 3, 3, 3), (5, 1, 4, 7), (1, 6, 1, 3)))
    def test_christoffel_on_random_metrics(self, shape):
        rng = np.random.default_rng(sum(shape))
        g, _ = random_stack(shape, rng)
        self.check("christoffel", *christoffel_operands(g, random_grid(shape, rng)))

    @pytest.mark.parametrize("shape", ((5, 5, 1, 5), (6, 1, 7, 1)))
    def test_ricci_on_random_connections(self, shape):
        conn = np.random.default_rng(sum(shape)).uniform(-1, 1, size=shape + (4, 4, 4))
        self.check("term3", conn, np.einsum("...rtt->...r", conn))
        self.check("term4", conn, conn)

    def test_contorsion_on_random_inputs(self):
        g, torsion = random_stack((50,), np.random.default_rng(5))
        self.check("index", torsion, g)
        self.check("index", contorsion_from_torsion(torsion, g).lower, np.linalg.inv(g))

    @pytest.mark.parametrize("shape", ((3, 3, 3, 3), (5, 1, 4, 7), (1, 6, 1, 3)))
    def test_row_forms_on_random_inputs(self, shape):
        rng = np.random.default_rng(sum(shape))
        g, torsion = random_stack(shape, rng)
        self.check("christoffel_rows", *christoffel_operands(g, random_grid(shape, rng)))
        conn = rng.uniform(-1, 1, size=shape + (4, 4, 4))
        self.check("term3_rows", conn, np.einsum("...rtt->...r", conn))
        self.check("index_rows", torsion, g)
        self.check("index_rows", contorsion_from_torsion(torsion, g).lower, np.linalg.inv(g))

    def test_contorsion_kernel_uses_the_matmul_form(self):
        g, torsion = random_stack((50,), np.random.default_rng(5))
        k, want = contorsion_from_torsion(torsion, g), reference_contorsion(torsion, g)
        assert np.array_equal(k.mixed, want.mixed) and np.array_equal(k.lower, want.lower)


def box_grids(rng):
    """A grid at spacing h and at h/2 over the same box around a random point,
    spacings of different size and sign on the four axes, with the index of
    the shared interior points in the finer grid's interior."""
    x0 = rng.uniform(-1, 1, 4)
    step = 0.08 * np.array([1.0, -0.7, 1.3, 0.9])
    grids = []
    for n in (5, 9):
        j = np.arange(n) - (n - 1) / 2
        grids.append(Grid(tuple(x0[a] + step[a] * 4 / (n - 1) * j for a in range(4))))
    return grids, (slice(1, None, 2),) * 4


def plane_wave(grid, k, phi):
    """The phase k.x + phi over the grid."""
    x = np.meshgrid(*grid.axes, indexing="ij")
    return phi + sum(k[a] * x[a] for a in range(4))


class TestDenseAnalyticOracles:
    """Non-diagonal fields varying along all four axes against closed forms;
    the errors at the interior points both grids share fall as h^2."""

    def test_christoffel_of_wave_metric(self):
        # g = eta + eps S sin(k.x + phi), so d_c g_{bd} = eps S_{bd} k_c cos(k.x + phi)
        rng = np.random.default_rng(11)
        s = rng.uniform(-1, 1, (4, 4))
        s = 0.1 * (s + s.T) / 2
        k, phi = rng.uniform(-1.5, 1.5, 4), rng.uniform(0, 2 * math.pi)
        eta = np.diag([-1.0, 1.0, 1.0, 1.0])
        (coarse, fine), shared = box_grids(rng)
        errs = []
        for grid in (coarse, fine):
            g = eta + s * np.sin(plane_wave(grid, k, phi))[..., None, None]
            gamma, ig = christoffel_from_metric(g, grid)
            phase = plane_wave(ig, k, phi)[..., None, None, None]
            dg = s[:, :, None] * k * np.cos(phase)  # [..., b, d, c]
            ginv = np.linalg.inv(eta + s * np.sin(phase[..., 0]))
            bracket = dg + np.einsum("...cdb->...bdc", dg) - np.einsum("...bcd->...bdc", dg)
            exact = 0.5 * np.einsum("...ad,...bdc->...bca", ginv, bracket)
            errs.append(np.abs(gamma - exact))
        assert errs[0].max() < 1e-4
        assert 3.5 < errs[0].max() / errs[1][shared].max() < 4.5

    def test_ricci_of_wave_connection(self):
        # Gamma = A + B sin(k.x + phi): d_rho Gamma_{mu nu}^rho and
        # d_nu Gamma_{mu rho}^rho in closed form, the quadratic terms exact
        rng = np.random.default_rng(12)
        a, b = rng.uniform(-0.5, 0.5, (2, 4, 4, 4))
        k, phi = rng.uniform(-1.5, 1.5, 4), rng.uniform(0, 2 * math.pi)
        (coarse, fine), shared = box_grids(rng)
        errs = []
        for grid in (coarse, fine):
            conn = a + b * np.sin(plane_wave(grid, k, phi))[..., None, None, None]
            ricci, ig = ricci_from_connection(conn, grid)
            phase = plane_wave(ig, k, phi)[..., None, None]
            c = a + b * np.sin(phase[..., None])
            term1 = np.einsum("mnr,r->mn", b, k) * np.cos(phase)
            term2 = np.einsum("mrr,n->mn", b, k) * np.cos(phase)
            quadratic = np.einsum("...mnr,...rtt->...mn", c, c) - np.einsum("...mrt,...ntr->...mn", c, c)
            errs.append(np.abs(ricci - (term1 - term2 + quadratic)))
        assert errs[0].max() < 1e-2
        assert 3.5 < errs[0].max() / errs[1][shared].max() < 4.5


class TestSphereBitGuard:
    """The curvature chain on the (w, theta, phi) sphere grids of the
    benchmark's geometry jobs keeps the bytes of the einsum contractions:
    the metric is mostly zeros, so every sum it makes is exact."""

    @pytest.mark.parametrize("span", (0.2, 0.6))
    @pytest.mark.parametrize("n", (9, 17, 25))
    def test_chain_bytes_unchanged(self, n, span):
        h = span / (n - 1)
        axis = h * np.arange(n)
        grid = Grid((np.zeros(1), axis, 1.0 + h * (np.arange(n) - (n - 1) / 2), axis.copy()))
        g = sphere_metric(grid)
        gamma, ig = christoffel_from_metric(g, grid)
        assert gamma.tobytes() == reference_christoffel(g, grid, EINSUM).tobytes()
        ricci, _ = ricci_from_connection(gamma, ig)
        assert ricci.tobytes() == reference_ricci(gamma, ig, EINSUM).tobytes()


class TestSplitAndTorsion:
    def test_symmetric_input(self):
        conn = RNG.uniform(-1, 1, size=(4, 4, 4))
        conn = conn + np.swapaxes(conn, 0, 1)
        sym, antisym = split_connection(conn)
        assert np.allclose(sym, conn)
        assert np.abs(antisym).max() < 1e-15

    def test_antisymmetric_input(self):
        conn = random_antisymmetric_torsion()
        sym, antisym = split_connection(conn)
        assert np.abs(sym).max() < 1e-15
        assert np.allclose(antisym, conn)

    def test_reconstruction_identity(self):
        conn = RNG.uniform(-1, 1, size=(4, 4, 4))
        sym, antisym = split_connection(conn)
        assert np.abs(sym + antisym - conn).max() < 1e-15

    def test_torsion_of_symmetric_connection_vanishes(self):
        conn = RNG.uniform(-1, 1, size=(4, 4, 4))
        assert np.abs(torsion_from_connection(conn + np.swapaxes(conn, 0, 1))).max() == 0.0

    def test_single_component(self):
        conn = np.zeros((4, 4, 4))
        conn[0, 1, 2] = 0.7
        t = torsion_from_connection(conn)
        assert t[0, 1, 2] == pytest.approx(-0.7)
        assert t[1, 0, 2] == pytest.approx(0.7)

    def test_torsion_equals_minus_twice_antisymmetric_part(self):
        conn = RNG.uniform(-1, 1, size=(4, 4, 4))
        _, antisym = split_connection(conn)
        assert np.allclose(torsion_from_connection(conn), -2 * antisym, atol=1e-15)


def brute_force_contorsion(torsion, g):
    """Index-loop evaluation, independent of the vectorized path."""
    ginv = np.linalg.inv(g)
    t_low = np.zeros((4, 4, 4))
    for m in range(4):
        for n in range(4):
            for s in range(4):
                t_low[m, n, s] = sum(torsion[m, n, r] * g[r, s] for r in range(4))
    k = np.zeros((4, 4, 4))
    for m in range(4):
        for n in range(4):
            for r in range(4):
                k[m, n, r] = 0.5 * sum(
                    ginv[r, s] * (t_low[m, s, n] + t_low[n, s, m] - t_low[m, n, s])
                    for s in range(4)
                )
    return k


class TestContorsion:
    def test_zero_torsion(self):
        k = contorsion_from_torsion(np.zeros((4, 4, 4)), np.eye(4))
        assert np.abs(k.mixed).max() == 0.0

    def test_single_component_against_loop_oracle(self):
        torsion = np.zeros((4, 4, 4))
        torsion[0, 1, 2] = 0.3
        torsion[1, 0, 2] = -0.3
        g = np.diag([-1.0, 1.0, 1.0, 1.0])
        k = contorsion_from_torsion(torsion, g)
        assert np.allclose(k.mixed, brute_force_contorsion(torsion, g), atol=1e-14)

    def test_random_against_loop_oracle(self):
        for _ in range(5):
            torsion = random_antisymmetric_torsion()
            g = random_metric()
            k = contorsion_from_torsion(torsion, g)
            assert np.allclose(k.mixed, brute_force_contorsion(torsion, g), atol=1e-12)

    def test_antisymmetric_pair_identity(self):
        # K_[mu nu]^rho = -T_{mu nu}^rho / 2
        torsion = random_antisymmetric_torsion()
        k = contorsion_from_torsion(torsion, random_metric())
        k_anti = 0.5 * (k.mixed - np.swapaxes(k.mixed, 0, 1))
        assert np.abs(k_anti + 0.5 * torsion).max() < 1e-12

    def test_lower_index_antisymmetry(self):
        # K_{mu nu rho} = -K_{mu rho nu}
        torsion = random_antisymmetric_torsion()
        k = contorsion_from_torsion(torsion, random_metric())
        assert np.abs(k.lower + np.swapaxes(k.lower, 1, 2)).max() < 1e-12

    def test_rejects_non_antisymmetric_input(self):
        with pytest.raises(
            ValueError, match="^torsion must be antisymmetric in its first two indices$"
        ):
            contorsion_from_torsion(np.ones((4, 4, 4)), np.eye(4))

    def test_rejects_non_symmetric_metric_as_christoffel_does(self):
        g = np.eye(4)
        g[0, 1] = 0.3
        text = "^metric must be symmetric$"
        with pytest.raises(ValueError, match=text):
            contorsion_from_torsion(np.zeros((4, 4, 4)), g)
        grid = theta_grid(5, 0.1)
        with pytest.raises(ValueError, match=text):
            christoffel_from_metric(np.broadcast_to(g, grid.shape + (4, 4)), grid)
        # a nan entry passes both symmetry checks (equal_nan) and is refused
        # by the inverse
        g = np.eye(4)
        g[2, 2] = np.nan
        with pytest.raises(MetricNotInvertibleError):
            contorsion_from_torsion(np.zeros((4, 4, 4)), g)
        with pytest.raises(MetricNotInvertibleError):
            christoffel_from_metric(np.broadcast_to(g, grid.shape + (4, 4)), grid)


class TestAssemble:
    def test_zero_contorsion_is_identity(self):
        sym = RNG.uniform(-1, 1, size=(4, 4, 4))
        sym = sym + np.swapaxes(sym, 0, 1)
        assert np.allclose(assemble_connection(sym, np.zeros((4, 4, 4))), sym)

    def test_roundtrip_recovers_torsion(self):
        for _ in range(5):
            g = random_metric()
            torsion = random_antisymmetric_torsion()
            grid = theta_grid(9, 0.1)
            gm = np.broadcast_to(g, grid.shape + (4, 4)).copy()
            christ, _ = christoffel_from_metric(gm, grid)
            k = contorsion_from_torsion(torsion, g)
            full = assemble_connection(christ[0, 0, 0, 0], k.mixed)
            assert np.abs(torsion_from_connection(full) - torsion).max() < 1e-12

    def test_split_rebuild_roundtrip(self):
        conn = RNG.uniform(-1, 1, size=(4, 4, 4))
        sym, antisym = split_connection(conn)
        assert np.allclose(sym + antisym, conn, atol=1e-15)

    def test_rejects_asymmetric_christoffel(self):
        with pytest.raises(
            ValueError, match="^christoffel part must be symmetric in its lower indices$"
        ):
            assemble_connection(RNG.uniform(-1, 1, size=(4, 4, 4)), np.zeros((4, 4, 4)))


def brute_force_quadratic_ricci(conn):
    """Quadratic terms of the curvature for a constant connection."""
    r = np.zeros((4, 4))
    for m in range(4):
        for n in range(4):
            r[m, n] = sum(
                conn[m, n, rho] * conn[rho, tau, tau]
                - conn[m, rho, tau] * conn[n, tau, rho]
                for rho in range(4)
                for tau in range(4)
            )
    return r


class TestRicci:
    def test_zero_connection(self):
        grid = theta_grid(7, 0.1)
        ricci, _ = ricci_from_connection(np.zeros(grid.shape + (4, 4, 4)), grid)
        assert np.abs(ricci).max() == 0.0

    def test_sphere_closed_form_and_convergence(self):
        center_errs = []
        for n, h in ((41, 0.02), (81, 0.01)):
            grid = theta_grid(n, h)
            ricci, ig = ricci_from_connection(sphere_christoffels(grid), grid)
            th = ig.axes[2]
            mid = th.size // 2
            err_tt = abs(ricci[0, 0, mid, 0, 2, 2] - 1.0)
            err_pp = abs(ricci[0, 0, mid, 0, 3, 3] - math.sin(th[mid]) ** 2)
            center_errs.append(max(err_tt, err_pp))
            # off-block entries stay zero
            mask = np.ones((4, 4), dtype=bool)
            mask[2, 2] = mask[3, 3] = False
            assert np.abs(ricci[0, 0, mid, 0][mask]).max() < 1e-10
        assert center_errs[0] < 1e-2
        assert 3.5 < center_errs[0] / center_errs[1] < 4.5

    def test_constant_connection_quadratic_terms(self):
        conn0 = RNG.uniform(-0.5, 0.5, size=(4, 4, 4))
        oracle = brute_force_quadratic_ricci(conn0)
        for n in (3, 4, 7):
            grid = theta_grid(n, 0.1)
            conn = np.broadcast_to(conn0, grid.shape + (4, 4, 4)).copy()
            ricci, ig = ricci_from_connection(conn, grid)
            assert ig.shape == (1, 1, n - 2, 1)
            assert np.abs(ricci - oracle).max() < 1e-12

    def test_symmetric_connection_symmetric_ricci(self):
        grid = theta_grid(41, 0.02)
        ricci, _ = ricci_from_connection(sphere_christoffels(grid), grid)
        assert np.allclose(ricci, np.swapaxes(ricci, -1, -2), atol=1e-10)

    def test_grid_too_small(self):
        grid = theta_grid(2, 0.1)
        with pytest.raises(GridTooSmallError, match=re.escape("need >= 3")):
            ricci_from_connection(np.zeros(grid.shape + (4, 4, 4)), grid)

    @pytest.mark.parametrize("shape, axis", (((2, 1, 5, 1), 0), ((5, 5, 5, 2), 3)))
    def test_two_point_axis_named(self, shape, axis):
        grid = Grid(tuple(0.1 * np.arange(n) for n in shape))
        conn = np.zeros(shape + (4, 4, 4))
        text = "axis %d has 2 points; need >= 3 for centered differences" % axis
        for call in (
            lambda: ricci_from_connection(conn, grid),
            lambda: geometry._partials(conn, grid),
            lambda: geometry._divergence(conn, grid),
        ):
            with pytest.raises(GridTooSmallError, match=re.escape(text)):
                call()


# The gravitating regularized point charge in G = c = 1 with alpha = q = 1:
# the field energy density E_r^2/8 pi of the closed-form charge sources
# ds^2 = -f dt^2 + dr^2/f + r^2 dOmega^2 with f = 1 - 2M(r)/r, and
# 2M(r)/r = x (1 - tanh x), x = alpha/r.  1 - tanh x is written 2/(1 + e^{2x}),
# which keeps its digits at large x.
def charge_compactness(x):
    """2M/r and its first two derivatives in x, with u = 1 - tanh x."""
    u = 2.0 / (1.0 + np.exp(2.0 * x))
    sech2 = u * (2.0 - u)
    return x * u, u - x * sech2, -2.0 * sech2 + 2.0 * x * sech2 * (1.0 - u)


def charge_metric(grid):
    r = grid.axes[1][None, :, None, None]
    th = grid.axes[2][None, None, :, None]
    f = 1.0 - charge_compactness(1.0 / r)[0]
    g = np.zeros(grid.shape + (4, 4))
    g[..., 0, 0] = -f
    g[..., 1, 1] = 1.0 / f
    g[..., 2, 2] = r**2
    g[..., 3, 3] = (r * np.sin(th)) ** 2
    return g


def charge_mixed_ricci_error(n):
    """max |R^mu_nu - closed form| on r in [1, 2] of the kernels' chain on an
    n x n (r, theta) grid.  With f' and f'' taken analytically,
    R^t_t = R^r_r = -(f''/2 + f'/r) and R^th_th = R^ph_ph = (1 - f - r f')/r^2."""
    one = np.zeros(1)
    grid = Grid((one, np.linspace(0.5, 2.5, n), np.linspace(0.6, 1.2, n), one))
    g = charge_metric(grid)
    gamma, ig = christoffel_from_metric(g, grid)
    ricci, iig = ricci_from_connection(gamma, ig)
    mixed = np.linalg.inv(g[:, 2:-2, 2:-2]) @ ricci
    r = iig.axes[1]
    x = 1.0 / r
    h, dh, ddh = charge_compactness(x)
    f, df = 1.0 - h, dh * x * x  # dx/dr = -x^2
    ddf = -(ddh * x * x + 2.0 * x * dh) * x * x
    closed = np.zeros(r.shape + (4, 4))
    closed[:, 0, 0] = closed[:, 1, 1] = -(ddf / 2.0 + df / r)
    closed[:, 2, 2] = closed[:, 3, 3] = (1.0 - f - r * df) / r**2
    band = (r >= 1.0) & (r <= 2.0)
    return np.abs(mixed[:, band] - closed[None, band, None, None]).max()


class TestGravitatingPointCharge:
    def test_ricci_matches_closed_form_at_second_order(self):
        # measured 7.30e-3 and 1.81e-3 (ratio 4.03); 4.51e-4 at n = 129
        errors = [charge_mixed_ricci_error(n) for n in (33, 65)]
        assert errors[0] < 1e-2
        assert errors[0] / errors[1] >= 3.7

    def test_no_horizon(self):
        # 2M/r < 1 everywhere, so f > 0: its maximum 0.27846 sits at
        # x = 0.6392, and beyond x = 5 it is below 5e-4
        x = np.linspace(0.0, 5.0, 500_001)
        h = charge_compactness(x)[0]
        peak = np.argmax(h)
        assert h[peak] == pytest.approx(0.27846, abs=5e-6)
        assert x[peak] == pytest.approx(0.6392, abs=1e-4)
        assert h.max() < 1.0 and h[-1] < 5e-4

    def test_mass_tends_to_field_energy(self):
        # M(r) = r (1 - f)/2 = (q/2)(1 - tanh x) -> the closed-form field energy
        energy = energy_report(ChargeModel(q=1.0), r_min=1.0).closed_form_field_energy
        assert energy == 0.5
        for r in (1e2, 1e4, 1e6):
            f = 1.0 - charge_compactness(1.0 / r)[0]
            mass = r * (1.0 - f) / 2.0
            assert 0.0 < energy - mass <= 1.0 / r


class TestRandomIdentitySuite:
    def test_residuals_are_tiny(self):
        residuals = random_identity_suite(seed=123, trials=200)
        assert max(residuals.values()) <= 1e-10

    def test_deterministic_for_fixed_seed(self):
        assert random_identity_suite(7, 50) == random_identity_suite(7, 50)

    def test_reference_bits(self):
        # the CLI default run's residuals, pinned bit for bit; the inverse
        # metric is elementwise and does not depend on the BLAS build, but the
        # contorsion's 4x4 products run in BLAS, and these are the bits of an
        # FMA dgemm kernel
        assert random_identity_suite(20240901, 1000) == {
            "split_reconstruction": 0.0,
            "assemble_roundtrip": 1.3322676295501878e-15,
            "contorsion_antisym_pair": 6.661338147750939e-16,
            "contorsion_lower_antisym": 4.440892098500626e-16,
        }

    @pytest.mark.parametrize("seed", (7, 123, 20240901))
    def test_blocks_match_per_trial_loop(self, seed, monkeypatch):
        # 50 trials in blocks of 7: seven full blocks and a partial one
        monkeypatch.setattr(geometry, "_SUITE_BLOCK", 7)
        assert random_identity_suite(seed, 50) == per_trial_identity_suite(seed, 50)

    @pytest.mark.parametrize("trials", (0, -5))
    def test_rejects_nonpositive_trials(self, trials):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            random_identity_suite(1, trials)


def per_trial_identity_suite(seed, trials):
    """The suite as a loop of one trial per pass with three rng.uniform
    draws each; the reference for the block-wise evaluation."""
    rng = np.random.default_rng(seed)
    residuals = {
        "split_reconstruction": 0.0,
        "assemble_roundtrip": 0.0,
        "contorsion_antisym_pair": 0.0,
        "contorsion_lower_antisym": 0.0,
    }
    eye = np.eye(4)
    for _ in range(trials):
        a = rng.uniform(-0.2, 0.2, size=(4, 4))
        g = eye + 0.5 * (a + a.T)
        conn = rng.uniform(-1.0, 1.0, size=(4, 4, 4))
        t_raw = rng.uniform(-1.0, 1.0, size=(4, 4, 4))
        torsion = t_raw - np.swapaxes(t_raw, 0, 1)

        sym, antisym = split_connection(conn)
        residuals["split_reconstruction"] = max(
            residuals["split_reconstruction"], float(np.max(np.abs(sym + antisym - conn)))
        )

        k = contorsion_from_torsion(torsion, g)
        full = assemble_connection(sym, k.mixed)
        residuals["assemble_roundtrip"] = max(
            residuals["assemble_roundtrip"],
            float(np.max(np.abs(torsion_from_connection(full) - torsion))),
        )
        k_anti = 0.5 * (k.mixed - np.swapaxes(k.mixed, 0, 1))
        residuals["contorsion_antisym_pair"] = max(
            residuals["contorsion_antisym_pair"],
            float(np.max(np.abs(k_anti + 0.5 * torsion))),
        )
        residuals["contorsion_lower_antisym"] = max(
            residuals["contorsion_lower_antisym"],
            float(np.max(np.abs(k.lower + np.swapaxes(k.lower, 1, 2)))),
        )
    return residuals
