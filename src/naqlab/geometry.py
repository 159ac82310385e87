"""Tensor algebra for affine connections with torsion.

Connection coefficients are stored as arrays indexed ``[..., mu, nu, rho]``
for Gamma_{mu nu}^rho (two lower indices first, the upper index last); the
leading axes, when present, range over a rectangular coordinate grid.
Christoffel symbols and the Ricci tensor of a non-symmetric connection are
built with centered finite differences on interior grid points only: no
one-sided stencil is formed and no end point is inverted or contracted, so
convergence is cleanly second order and a metric may be singular there.
Every contraction is a batched ``matmul`` (einsum only permutes indices and
takes traces), and every array returned is C-ordered, with bits that do not
depend on the memory layout of the input.

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
# Trials per stacked evaluation in random_identity_suite.
_SUITE_BLOCK = 256


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
                if d[0] == 0:
                    raise ValueError("axes must not repeat a coordinate")
                if not np.allclose(d, d[0], rtol=1e-12, atol=0):
                    raise ValueError("axes must be uniformly spaced")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(ax.size for ax in self.axes)

    def spacing(self, axis: int) -> float:
        ax = self.axes[axis]
        return float(ax[1] - ax[0]) if ax.size > 1 else 0.0

    def interior(self) -> "Grid":
        return Grid(tuple(ax[sl] for ax, sl in zip(self.axes, _core(self))))


def _core(grid: Grid) -> tuple[slice, ...]:
    """Index of the interior points: both ends dropped on each axis of size > 1."""
    return tuple(slice(1, -1) if n > 1 else slice(None) for n in grid.shape)


def _stencils(grid: Grid, min_points: int):
    """``(axis, up, down, 2h)`` per axis of size > 1: ``(v[up] - v[down]) / 2h``
    is np.gradient's interior formula at the points ``v[_core(grid)]``, bit for
    bit.  Each such axis needs at least ``min_points`` samples."""
    core = _core(grid)
    for axis, n in enumerate(grid.shape):
        if n == 1:
            continue
        if n < min_points:
            raise GridTooSmallError(
                "axis %d has %d points; need >= %d for centered differences"
                % (axis, n, min_points)
            )
        up = core[:axis] + (slice(2, None),) + core[axis + 1 :]
        down = core[:axis] + (slice(None, -2),) + core[axis + 1 :]
        yield axis, up, down, 2.0 * grid.spacing(axis)


def _partials(values: np.ndarray, grid: Grid, min_points: int) -> np.ndarray:
    """Derivatives at the points ``values[_core(grid)]``; last axis indexes the
    direction, and size-1 axes contribute zero."""
    out = np.zeros(values[_core(grid)].shape + (4,))
    for axis, up, down, width in _stencils(grid, min_points):
        out[..., axis] = (values[up] - values[down]) / width
    return out


def _divergence(values: np.ndarray, grid: Grid, min_points: int) -> np.ndarray:
    """``sum_a d_a values[..., a]`` at the points ``values[_core(grid)]``."""
    out = np.zeros(values[_core(grid)].shape[:-1])
    for axis, up, down, width in _stencils(grid, min_points):
        out += (values[up][..., axis] - values[down][..., axis]) / width
    return out


def _inverse_metric(g: np.ndarray, offset=0) -> np.ndarray:
    """Inverse of a stack of metrics; ``offset`` is added to a reported index."""
    det = np.linalg.det(g)
    bad = np.abs(det) < _DET_THRESHOLD
    if np.any(bad):
        point = np.argwhere(bad)[0] + offset
        raise MetricNotInvertibleError(
            "metric not invertible (|det| < %g) at grid point %s"
            % (_DET_THRESHOLD, tuple(int(i) for i in point))
        )
    return np.linalg.inv(g)


def christoffel_from_metric(g: np.ndarray, grid: Grid) -> tuple[np.ndarray, Grid]:
    """Levi-Civita coefficients of a metric sampled on a grid.

    ``g`` has shape ``grid.shape + (4, 4)``.  Returns the coefficients,
    indexed ``[..., beta, gamma, alpha]`` and symmetric in (beta, gamma),
    on the interior grid.  Only the metric at interior points is inverted.
    """
    g = np.ascontiguousarray(g, dtype=float)
    if g.shape != grid.shape + (4, 4):
        raise ValueError("metric shape %s does not match grid %s" % (g.shape, grid.shape))
    if not np.allclose(g, np.swapaxes(g, -1, -2), atol=1e-12):
        raise ValueError("metric must be symmetric")
    ginv = _inverse_metric(g[_core(grid)], offset=[int(n > 1) for n in grid.shape])
    dg = _partials(g, grid, min_points=3)  # dg[..., b, d, c] = d_c g_{bd}
    # Gamma_{bc}^a = 1/2 g^{ad} (d_c g_{bd} + d_b g_{cd} - d_d g_{bc})
    t1 = dg  # [..., b, d, c] = g_{bd,c}
    t2 = np.einsum("...cdb->...bdc", dg)  # g_{cd,b}
    t3 = np.einsum("...bcd->...bdc", dg)  # g_{bc,d}
    bracket = t1 + t2 - t3  # [..., b, d, c]
    # [..., b, c, d] @ [..., d, a]: C-ordered [..., b, c, a]
    gamma = 0.5 * (np.swapaxes(bracket, -1, -2) @ np.swapaxes(ginv, -1, -2)[..., None, :, :])
    return gamma, grid.interior()


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
    torsion = np.ascontiguousarray(torsion, dtype=float)
    g = np.ascontiguousarray(g, dtype=float)
    if not np.allclose(torsion, -np.swapaxes(torsion, -3, -2), atol=1e-12):
        raise ValueError("torsion must be antisymmetric in its first two indices")
    ginv = _inverse_metric(g)
    t_low = torsion @ g[..., None, :, :]  # T_{mu nu sigma}
    bracket = (
        np.einsum("...msn->...mns", t_low)
        + np.einsum("...nsm->...mns", t_low)
        - t_low
    )
    lower = 0.5 * bracket  # K_{mu nu sigma}
    mixed = lower @ ginv[..., None, :, :]
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
    conn = np.ascontiguousarray(conn, dtype=float)
    if conn.shape != grid.shape + (4, 4, 4):
        raise ValueError(
            "connection shape %s does not match grid %s" % (conn.shape, grid.shape)
        )
    term1 = _divergence(conn, grid, min_points=5)  # d_rho Gamma_{mu nu}^rho
    # Gamma_{mu rho}^rho: trace over the connection's last two indices.
    tr = np.einsum("...mrr->...m", conn)
    term2 = _partials(tr, grid, min_points=5)  # d_nu Gamma_{mu rho}^rho
    core = _core(grid)
    conn, tr = conn[core], tr[core]
    term3 = (conn @ tr[..., None, :, None])[..., 0]
    # [m, (rho tau)] @ [(rho tau), n], the second factor Gamma_{n tau}^rho
    rows = conn.shape[:-3] + (4, 16)
    term4 = conn.reshape(rows) @ np.swapaxes(np.swapaxes(conn, -1, -2).reshape(rows), -1, -2)
    return term1 - term2 + term3 - term4, grid.interior()


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

    Trials are evaluated in blocks of ``_SUITE_BLOCK`` as stacked arrays, one
    call of each batched kernel per block, so memory is bounded by the block
    and not by ``trials``.  Each trial takes 144 consecutive uniform draws in
    the order of three per-trial ``rng.uniform`` calls (16 metric, 64
    connection, 64 torsion values), each mapped as ``low + (high - low) * u``
    as ``Generator.uniform`` does, so the residuals depend only on
    ``(seed, trials)`` and not on the block size.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    residuals: dict[str, float] = {}
    eye = np.eye(4)
    for start in range(0, trials, _SUITE_BLOCK):
        n = min(_SUITE_BLOCK, trials - start)
        u = rng.random((n, 144))
        a = (-0.2 + 0.4 * u[:, :16]).reshape(n, 4, 4)
        g = eye + 0.5 * (a + np.swapaxes(a, -1, -2))
        conn = (-1.0 + 2.0 * u[:, 16:80]).reshape(n, 4, 4, 4)
        t_raw = (-1.0 + 2.0 * u[:, 80:]).reshape(n, 4, 4, 4)
        torsion = t_raw - np.swapaxes(t_raw, -3, -2)

        sym, antisym = split_connection(conn)
        k = contorsion_from_torsion(torsion, g)
        full = assemble_connection(sym, k.mixed)
        k_anti = 0.5 * (k.mixed - np.swapaxes(k.mixed, -3, -2))
        block = {
            "split_reconstruction": sym + antisym - conn,
            "assemble_roundtrip": torsion_from_connection(full) - torsion,
            "contorsion_antisym_pair": k_anti + 0.5 * torsion,
            "contorsion_lower_antisym": k.lower + np.swapaxes(k.lower, -2, -1),
        }
        for name, diff in block.items():
            residuals[name] = max(residuals.get(name, 0.0), float(np.max(np.abs(diff))))
    return residuals
