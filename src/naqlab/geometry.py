"""Tensor algebra for affine connections with torsion.

Connection coefficients are stored as arrays indexed ``[..., mu, nu, rho]``
for Gamma_{mu nu}^rho (two lower indices first, the upper index last); the
leading axes, when present, range over a rectangular coordinate grid.
Christoffel symbols and the Ricci tensor of a non-symmetric connection are
built with centered finite differences on interior grid points only: no
one-sided stencil is formed and no end point is inverted or contracted, so
convergence is cleanly second order and a metric may be singular there.
The metric is inverted in closed form: determinant and adjugate from the
same 2x2 minors, elementwise over the stack of points, with no LAPACK
call.  Every contraction is a batched ``matmul`` (einsum only permutes
indices and takes traces), and the small products of one point that share
a factor are stacked into one: a (16x4)@(4x4) product per point for the
Christoffel symbols and for each of the contorsion's two index products,
and a (16x4)@(4x1) one for Ricci's Gamma * trace term.
Every array returned is C-ordered, with bits that do not depend on the
memory layout of the input.  The symmetry and spacing checks give
np.allclose's verdicts, decided in one pass for finite input.

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
            if not np.isfinite(ax).all():
                raise ValueError("axes must be finite")
            if ax.size > 1:
                d = np.diff(ax)
                if d[0] == 0:
                    raise ValueError("axes must not repeat a coordinate")
                if not _allclose(d, d[0], rtol=1e-12, atol=0):
                    raise ValueError("axes must be uniformly spaced")

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(ax.size for ax in self.axes)

    def spacing(self, axis: int) -> float:
        ax = self.axes[axis]
        return float(ax[1] - ax[0]) if ax.size > 1 else 0.0

    def interior(self) -> "Grid":
        return Grid(tuple(ax[sl] for ax, sl in zip(self.axes, _core(self))))


def _allclose(a, b, atol, rtol=1e-5, equal_nan=False) -> bool:
    """``np.allclose(a, b, rtol, atol, equal_nan)``, decided in one pass when
    every ``|a - b|`` is finite and within tolerance.

    The pass forms ``d = |a - b|``: a finite ``max(d) <= atol`` (an exact
    match gives 0) accepts at once, since np.isclose's bound ``atol + rtol
    |b|`` is never below ``atol``; a larger finite ``max(d)`` is tested
    against that bound elementwise, with the same operands and operation
    order as np.isclose.  So it accepts only what np.allclose accepts, and
    any other input (a nan, an inf, or a real mismatch) gets np.allclose's
    own verdict.  ``|b|`` is formed in C order, the layout of ``d`` for a
    C-ordered ``a``, so that ``b`` may be a transposed view.
    """
    # np.isclose computes in an inexact type, as here
    b = np.asanyarray(b, dtype=np.result_type(b, 1.0))
    with np.errstate(invalid="ignore", over="ignore"):
        d = np.abs(a - b)
        worst = np.max(d, initial=0.0)
        if worst <= atol or (
            worst < np.inf and (d <= atol + rtol * np.abs(b, order="C")).all()
        ):
            return True
    return np.allclose(a, b, rtol=rtol, atol=atol, equal_nan=equal_nan)


def _core(grid: Grid) -> tuple[slice, ...]:
    """Index of the interior points: both ends dropped on each axis of size > 1."""
    return tuple(slice(1, -1) if n > 1 else slice(None) for n in grid.shape)


def _stencils(grid: Grid):
    """``(axis, up, down, 2h)`` per axis of size > 1: ``(v[up] - v[down]) / 2h``
    is np.gradient's interior formula at the points ``v[_core(grid)]``, bit for
    bit.  Each such axis needs 3 samples, one interior point and its two
    neighbours."""
    core = _core(grid)
    for axis, n in enumerate(grid.shape):
        if n == 1:
            continue
        if n < 3:
            raise GridTooSmallError(
                "axis %d has %d points; need >= 3 for centered differences" % (axis, n)
            )
        up = core[:axis] + (slice(2, None),) + core[axis + 1 :]
        down = core[:axis] + (slice(None, -2),) + core[axis + 1 :]
        yield axis, up, down, 2.0 * grid.spacing(axis)


def _partials(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Derivatives at the points ``values[_core(grid)]``; last axis indexes the
    direction, and size-1 axes contribute zero.  Every other axis needs 3
    samples."""
    out = np.zeros(values[_core(grid)].shape + (4,))
    for axis, up, down, width in _stencils(grid):
        out[..., axis] = (values[up] - values[down]) / width
    return out


def _divergence(values: np.ndarray, grid: Grid) -> np.ndarray:
    """``sum_a d_a values[..., a]`` at the points ``values[_core(grid)]``."""
    out = np.zeros(values[_core(grid)].shape[:-1])
    for axis, up, down, width in _stencils(grid):
        out += (values[up][..., axis] - values[down][..., axis]) / width
    return out


def _det_adjugate(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Determinant and adjugate of 4x4 matrices stored entry-major: ``a[4 i + j]``
    holds entry (i, j) of every matrix, and the adjugate comes back the same way.

    Both come from the six 2x2 minors ``s`` of rows (0, 1) and the six ``c``
    of rows (2, 3), numbered by column pair (0,1) (0,2) (0,3) (1,2) (1,3)
    (2,3): ``det = s0 c5 - s1 c4 + s2 c3 + s3 c2 - s4 c1 + s5 c0``, and
    each adjugate entry is three entries of one row against three minors.
    """
    a00, a01, a02, a03, a10, a11, a12, a13, a20, a21, a22, a23, a30, a31, a32, a33 = a
    s0 = a00 * a11 - a10 * a01
    s1 = a00 * a12 - a10 * a02
    s2 = a00 * a13 - a10 * a03
    s3 = a01 * a12 - a11 * a02
    s4 = a01 * a13 - a11 * a03
    s5 = a02 * a13 - a12 * a03
    c0 = a20 * a31 - a30 * a21
    c1 = a20 * a32 - a30 * a22
    c2 = a20 * a33 - a30 * a23
    c3 = a21 * a32 - a31 * a22
    c4 = a21 * a33 - a31 * a23
    c5 = a22 * a33 - a32 * a23
    det = s0 * c5 - s1 * c4 + s2 * c3 + s3 * c2 - s4 * c1 + s5 * c0
    adj = np.empty_like(a)
    adj[0] = a11 * c5 - a12 * c4 + a13 * c3
    adj[1] = a02 * c4 - a01 * c5 - a03 * c3
    adj[2] = a31 * s5 - a32 * s4 + a33 * s3
    adj[3] = a22 * s4 - a21 * s5 - a23 * s3
    adj[4] = a12 * c2 - a10 * c5 - a13 * c1
    adj[5] = a00 * c5 - a02 * c2 + a03 * c1
    adj[6] = a32 * s2 - a30 * s5 - a33 * s1
    adj[7] = a20 * s5 - a22 * s2 + a23 * s1
    adj[8] = a10 * c4 - a11 * c2 + a13 * c0
    adj[9] = a01 * c2 - a00 * c4 - a03 * c0
    adj[10] = a30 * s4 - a31 * s2 + a33 * s0
    adj[11] = a21 * s2 - a20 * s4 - a23 * s0
    adj[12] = a11 * c1 - a10 * c3 - a12 * c0
    adj[13] = a00 * c3 - a01 * c1 + a02 * c0
    adj[14] = a31 * s1 - a30 * s3 - a32 * s0
    adj[15] = a20 * s3 - a21 * s1 + a22 * s0
    return det, adj


def _inverse_metric(g: np.ndarray, offset=0) -> np.ndarray:
    """Inverse of a stack of 4x4 metrics; ``offset`` is added to a reported index.

    Closed form, one elementwise pass over the stack: each matrix is first
    scaled exactly, ``a = 2**-k g`` with ``k`` the frexp exponent of its
    largest ``|entry|``, so that no product overflows or underflows
    wholesale; ``_det_adjugate`` forms ``det a`` and ``adj a`` from the
    twelve 2x2 minors of rows (0, 1) and (2, 3), and the inverse is
    ``2**-k adj(a) / det(a)``.  The threshold is tested on ``|det a| /
    m**4``, with ``m`` the largest ``|entry|`` of ``a``, which no scaling of
    ``g`` changes: a metric with a ratio below 1e-12 (ill-conditioned), an
    all-zero metric or one with a nan or inf entry is refused, and the
    first such point is named.
    """
    # one copy, entry-major: a[4 i + j] is entry (i, j) at every point
    a = np.array(np.moveaxis(g, (-2, -1), (0, 1)), order="C").reshape(16, -1)
    # a zero or non-finite metric gives a nan ratio, which is refused below
    with np.errstate(invalid="ignore"):
        m, k = np.frexp(np.abs(a).max(axis=0))
        det, adj = _det_adjugate(np.ldexp(a, -k, out=a))
        bad = ~(np.abs(det) / m**4 >= _DET_THRESHOLD)
    if np.any(bad):
        point = np.unravel_index(np.argmax(bad), g.shape[:-2])
        raise MetricNotInvertibleError(
            "metric not invertible (scaled |det| < %g) at grid point %s"
            % (_DET_THRESHOLD, tuple(int(i) for i in np.add(point, offset)))
        )
    adj /= det
    out = np.ldexp(adj.T, -k[:, None], out=np.empty((len(k), 16)))
    return out.reshape(g.shape)


def christoffel_from_metric(g: np.ndarray, grid: Grid) -> tuple[np.ndarray, Grid]:
    """Levi-Civita coefficients of a metric sampled on a grid.

    ``g`` has shape ``grid.shape + (4, 4)``.  Returns the coefficients,
    indexed ``[..., beta, gamma, alpha]`` and symmetric in (beta, gamma),
    on the interior grid.  Only the metric at interior points is inverted.
    """
    g = np.ascontiguousarray(g, dtype=float)
    if g.shape != grid.shape + (4, 4):
        raise ValueError("metric shape %s does not match grid %s" % (g.shape, grid.shape))
    if not _allclose(g, np.swapaxes(g, -1, -2), atol=1e-12, equal_nan=True):
        raise ValueError("metric must be symmetric")
    ginv = _inverse_metric(g[_core(grid)], offset=[int(n > 1) for n in grid.shape])
    dg = _partials(g, grid)  # dg[..., b, c, d] = d_d g_{bc}
    # Gamma_{bc}^a = 1/2 g^{ad} (d_c g_{bd} + d_b g_{cd} - d_d g_{bc}); the
    # bracket [..., b, c, d] is g_{bd,c} + g_{cd,b} - g_{bc,d}, summed in place
    bracket = np.einsum("...bdc->...bcd", dg) + np.einsum("...cdb->...bcd", dg)
    bracket -= dg
    # [..., (b c), d] @ [..., d, a]: one (16x4)@(4x4) product per point, of
    # C-ordered operands, written as C-ordered [..., b, c, a] over dg, which
    # is no longer needed: one array of this size fewer is allocated
    rows = dg.shape[:-3] + (16, 4)
    ginv_t = np.ascontiguousarray(np.swapaxes(ginv, -1, -2))
    gamma = dg
    np.matmul(bracket.reshape(rows), ginv_t, out=gamma.reshape(rows))
    gamma *= 0.5
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


def _index_product(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``t_{mu nu r} m_{r s}`` for C-ordered ``t``: one (16x4)@(4x4) product
    per point, whose rows are the pairs (mu, nu)."""
    out = t.reshape(t.shape[:-3] + (16, 4)) @ m
    return out.reshape(out.shape[:-2] + (4, 4, 4))


def contorsion_from_torsion(torsion: np.ndarray, g: np.ndarray) -> ContorsionTensor:
    """Contorsion from the torsion tensor and the metric.

    K_{mu nu}^rho = 1/2 g^{rho sigma} (T_{mu sigma nu} + T_{nu sigma mu}
    - T_{mu nu sigma}), all T indices lowered with ``g``.
    """
    torsion = np.ascontiguousarray(torsion, dtype=float)
    g = np.ascontiguousarray(g, dtype=float)
    if not _allclose(torsion, -np.swapaxes(torsion, -3, -2), atol=1e-12):
        raise ValueError("torsion must be antisymmetric in its first two indices")
    if not _allclose(g, np.swapaxes(g, -1, -2), atol=1e-12, equal_nan=True):
        raise ValueError("metric must be symmetric")
    ginv = _inverse_metric(g)
    t_low = _index_product(torsion, g)  # T_{mu nu sigma}
    bracket = (
        np.einsum("...msn->...mns", t_low)
        + np.einsum("...nsm->...mns", t_low)
        - t_low
    )
    lower = 0.5 * bracket  # K_{mu nu sigma}
    mixed = _index_product(lower, ginv)
    return ContorsionTensor(mixed=mixed, lower=lower)


def assemble_connection(christoffel: np.ndarray, contorsion: np.ndarray) -> np.ndarray:
    """Full connection Gamma = {} + K from a symmetric part and a contorsion."""
    christoffel = np.asarray(christoffel, dtype=float)
    contorsion = np.asarray(contorsion, dtype=float)
    if not _allclose(christoffel, np.swapaxes(christoffel, -3, -2), atol=1e-10):
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
    term1 = _divergence(conn, grid)  # d_rho Gamma_{mu nu}^rho
    # Gamma_{mu rho}^rho: trace over the connection's last two indices.
    tr = np.einsum("...mrr->...m", conn)
    term2 = _partials(tr, grid)  # d_nu Gamma_{mu rho}^rho
    core = _core(grid)
    conn, tr = conn[core], tr[core]
    # [..., (m n), r] @ [..., r, 1]: one (16x4)@(4x1) product per point
    term3 = (conn.reshape(conn.shape[:-3] + (16, 4)) @ tr[..., None]).reshape(conn.shape[:-1])
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
