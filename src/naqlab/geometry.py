"""Tensor algebra for affine connections with torsion.

Connection coefficients are stored as arrays indexed ``[..., mu, nu, rho]``
for Gamma_{mu nu}^rho (two lower indices first, the upper index last); the
leading axes, when present, range over a rectangular coordinate grid.
Christoffel symbols and the Ricci tensor of a non-symmetric connection are
built with centered finite differences and reported on interior grid points
only (no one-sided stencils), so convergence is cleanly second order.

Sign conventions: torsion is minus twice the antisymmetric part of the
connection, and the contorsion satisfies K_[mu nu]^rho = -T_{mu nu}^rho / 2
and K_{mu nu rho} = -K_{mu rho nu}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "MetricNotInvertibleError",
    "GridTooSmallError",
    "ContorsionTensor",
    "christoffel_from_metric",
    "split_connection",
    "torsion_from_connection",
    "contorsion_from_torsion",
    "assemble_connection",
    "ricci_from_connection",
    "random_identity_suite",
]

_DET_THRESHOLD = 1e-12


class MetricNotInvertibleError(ValueError):
    pass


class GridTooSmallError(ValueError):
    pass


@dataclass(frozen=True)
class Grid:
    """Rectangular grid over the 4 coordinates.

    Each axis is a uniformly spaced 1-D coordinate array; an axis of size 1
    marks a coordinate the sampled fields do not depend on.
    """

    axes: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def __post_init__(self):
        if len(self.axes) != 4:
            raise ValueError("need exactly 4 coordinate axes")
        for ax in self.axes:
            if ax.ndim != 1 or ax.size < 1:
                raise ValueError("axes must be non-empty 1-D arrays")
            if ax.size > 1:
                d = np.diff(ax)
                if not np.allclose(d, d[0], rtol=1e-12, atol=0):
                    raise ValueError("axes must be uniformly spaced")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(ax.size for ax in self.axes)

    def spacing(self, axis: int) -> float:
        ax = self.axes[axis]
        return float(ax[1] - ax[0]) if ax.size > 1 else 0.0

    def interior(self) -> "Grid":
        return Grid(tuple(ax[1:-1] if ax.size > 1 else ax for ax in self.axes))


def _partials(values: np.ndarray, grid: Grid, min_points: int) -> np.ndarray:
    """Stack of coordinate derivatives; last axis indexes the direction.

    Differentiated axes need at least ``min_points`` samples; size-1 axes
    contribute zero.  Interior points are centered differences (boundary
    values come from np.gradient's one-sided formula and are discarded by
    the callers' interior trim).
    """
    out = np.zeros(values.shape + (4,))
    for axis in range(4):
        n = grid.axes[axis].size
        if n == 1:
            continue
        if n < min_points:
            raise GridTooSmallError(
                "axis %d has %d points; need >= %d for centered differences"
                % (axis, n, min_points)
            )
        out[..., axis] = np.gradient(values, grid.spacing(axis), axis=axis)
    return out


def _trim_interior(values: np.ndarray, grid: Grid) -> np.ndarray:
    sl = tuple(slice(1, -1) if ax.size > 1 else slice(None) for ax in grid.axes)
    return values[sl]


def _inverse_metric(g: np.ndarray) -> np.ndarray:
    det = np.linalg.det(g)
    bad = np.abs(det) < _DET_THRESHOLD
    if np.any(bad):
        where = np.argwhere(bad)
        raise MetricNotInvertibleError(
            "metric not invertible (|det| < %g) at grid point %s"
            % (_DET_THRESHOLD, tuple(where[0]))
        )
    return np.linalg.inv(g)


def christoffel_from_metric(g: np.ndarray, grid: Grid) -> tuple[np.ndarray, Grid]:
    """Levi-Civita coefficients of a metric sampled on a grid.

    ``g`` has shape ``grid.shape + (4, 4)``.  Returns the coefficients,
    indexed ``[..., beta, gamma, alpha]`` and symmetric in (beta, gamma),
    on the interior grid.
    """
    g = np.asarray(g, dtype=float)
    if g.shape != grid.shape + (4, 4):
        raise ValueError("metric shape %s does not match grid %s" % (g.shape, grid.shape))
    if not np.allclose(g, np.swapaxes(g, -1, -2), atol=1e-12):
        raise ValueError("metric must be symmetric")
    ginv = _inverse_metric(g)
    dg = _partials(g, grid, min_points=3)  # dg[..., b, d, c] = d_c g_{bd}
    # Gamma_{bc}^a = 1/2 g^{ad} (d_c g_{bd} + d_b g_{cd} - d_d g_{bc})
    t1 = dg  # [..., b, d, c] = g_{bd,c}
    t2 = np.einsum("...cdb->...bdc", dg)  # g_{cd,b}
    t3 = np.einsum("...bcd->...bdc", dg)  # g_{bc,d}
    bracket = t1 + t2 - t3  # [..., b, d, c]
    gamma = 0.5 * np.einsum("...ad,...bdc->...bca", ginv, bracket)
    return _trim_interior(gamma, grid), grid.interior()


def split_connection(conn: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric and antisymmetric parts in the two lower indices."""
    conn = np.asarray(conn, dtype=float)
    transposed = np.swapaxes(conn, -3, -2)
    sym = 0.5 * (conn + transposed)
    antisym = 0.5 * (conn - transposed)
    return sym, antisym


def torsion_from_connection(conn: np.ndarray) -> np.ndarray:
    """T_{mu nu}^rho = -2 Gamma_[mu nu]^rho."""
    conn = np.asarray(conn, dtype=float)
    return np.swapaxes(conn, -3, -2) - conn


@dataclass(frozen=True)
class ContorsionTensor:
    """Contorsion in mixed form K_{mu nu}^rho and all-lower form K_{mu nu rho}."""

    mixed: np.ndarray
    lower: np.ndarray


def contorsion_from_torsion(torsion: np.ndarray, g: np.ndarray) -> ContorsionTensor:
    """Contorsion from the torsion tensor and the metric.

    K_{mu nu}^rho = 1/2 g^{rho sigma} (T_{mu sigma nu} + T_{nu sigma mu}
    - T_{mu nu sigma}), all T indices lowered with ``g``.
    """
    torsion = np.asarray(torsion, dtype=float)
    g = np.asarray(g, dtype=float)
    if not np.allclose(torsion, -np.swapaxes(torsion, -3, -2), atol=1e-12):
        raise ValueError("torsion must be antisymmetric in its first two indices")
    ginv = _inverse_metric(g)
    t_low = np.einsum("...mnr,...rs->...mns", torsion, g)  # T_{mu nu sigma}
    bracket = (
        np.einsum("...msn->...mns", t_low)
        + np.einsum("...nsm->...mns", t_low)
        - t_low
    )
    lower = 0.5 * bracket  # K_{mu nu sigma}
    mixed = np.einsum("...mns,...sr->...mnr", lower, ginv)
    return ContorsionTensor(mixed=mixed, lower=lower)


def assemble_connection(christoffel: np.ndarray, contorsion: np.ndarray) -> np.ndarray:
    """Full connection Gamma = {} + K from a symmetric part and a contorsion."""
    christoffel = np.asarray(christoffel, dtype=float)
    contorsion = np.asarray(contorsion, dtype=float)
    if not np.allclose(christoffel, np.swapaxes(christoffel, -3, -2), atol=1e-10):
        raise ValueError("christoffel part must be symmetric in its lower indices")
    return christoffel + contorsion


def ricci_from_connection(conn: np.ndarray, grid: Grid) -> tuple[np.ndarray, Grid]:
    """Ricci tensor of a (possibly torsionful) connection sampled on a grid.

    R_{mu nu} = d_rho Gamma_{mu nu}^rho - d_nu Gamma_{mu rho}^rho
    + Gamma_{mu nu}^rho Gamma_{rho tau}^tau - Gamma_{mu rho}^tau Gamma_{nu tau}^rho,
    derivatives by centered differences, values on interior points only.
    """
    conn = np.asarray(conn, dtype=float)
    if conn.shape != grid.shape + (4, 4, 4):
        raise ValueError(
            "connection shape %s does not match grid %s" % (conn.shape, grid.shape)
        )
    dconn = _partials(conn, grid, min_points=5)  # [..., m, n, r, axis]
    term1 = np.einsum("...mnrr->...mn", dconn)  # d_rho Gamma_{mu nu}^rho
    # d_nu (Gamma_{mu rho}^rho): trace over the connection's last two indices,
    # then the derivative along nu.
    conn_trace = np.einsum("...mrr->...m", conn)
    dtrace = _partials(conn_trace, grid, min_points=5)  # [..., m, nu]
    term2 = dtrace
    tr = np.einsum("...rtt->...r", conn)  # Gamma_{rho tau}^tau
    term3 = np.einsum("...mnr,...r->...mn", conn, tr)
    term4 = np.einsum("...mrt,...ntr->...mn", conn, conn)
    ricci = term1 - term2 + term3 - term4
    return _trim_interior(ricci, grid), grid.interior()


# ---------------------------------------------------------------------------
# Randomized identity suite (used by the CLI torsion-check subcommand)
# ---------------------------------------------------------------------------


def random_identity_suite(seed: int, trials: int) -> dict[str, float]:
    """Max residuals of the contorsion/torsion identities on random inputs.

    Each trial draws a well-conditioned random metric, a random connection,
    and a random antisymmetric torsion, then checks:

    * the symmetric/antisymmetric split reconstructs the connection,
    * assembling {} + K and taking the torsion returns T exactly,
    * K_[mu nu]^rho = -T_{mu nu}^rho / 2,
    * K_{mu nu rho} = -K_{mu rho nu}.
    """
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
