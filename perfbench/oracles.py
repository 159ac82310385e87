"""Independent oracles for every benchmark job.

Each check recomputes the expected answer from the job's own inputs with
closed forms, exact symmetries or structural rules, never by calling the
naqlab function under test.  A check returns ``None`` when the output is
right and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import math

import numpy as np

from workloads import REFERENCE_ETA0, Job

# Pointwise closed forms: the loosest relative tolerance the charge tests use.
FIELD_RTOL = 1e-12
FIELD_ENERGY_RTOL = 1e-8
SELF_ENERGY_RTOL = 1e-6
# |eta0*(lambda, m) - eta0*(1, m)|: the default bisection tolerance.
SCALING_TOL = 1e-5
REFERENCE_TOL = {("0.1", None): 5e-4, ("0.15", "1e-12"): 1e-8}
TORSION_MAX_RESIDUAL = 1e-10
# error <= C h^2 for theta spans <= 0.6 around 1 rad (measured worst cases
# are about 0.75 h^2 and 3.3 h^2).
CHRISTOFFEL_C = 2.0
RICCI_C = 8.0


def flags(argv: tuple[str, ...]) -> dict[str, str]:
    """``--name value`` pairs of a command line; bare flags map to ''."""
    out = {}
    i = 1
    while i < len(argv):
        name = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[name] = argv[i + 1]
            i += 2
        else:
            out[name] = ""
            i += 1
    return out


def _csv(text: str, header: str) -> np.ndarray | str:
    """Data rows of a ``# config`` + header + rows table, or why it is malformed."""
    parts = text.split("\n", 2)
    if len(parts) < 3 or not parts[0].startswith("# config: ") or parts[1] != header:
        return "malformed csv header"
    cols = header.count(",") + 1
    rows = parts[2].count("\n")
    values = np.fromstring(parts[2].rstrip("\n").replace("\n", ","), sep=",")
    if values.size != rows * cols:
        return "csv body is not %d rows of %d numbers" % (rows, cols)
    return values.reshape(rows, cols)


def _mismatch(name: str, got: np.ndarray, want: np.ndarray, rtol: float) -> str | None:
    if got.shape != want.shape:
        return "%s: %d values, expected %d" % (name, got.size, want.size)
    if not np.allclose(got, want, rtol=rtol, atol=0.0):
        worst = int(np.argmax(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)))
        return "%s[%d] = %r, closed form %r" % (name, worst, got[worst], want[worst])
    return None


def check_exact_csv(job: Job, text: str) -> str | None:
    f = flags(job.argv)
    rows = _csv(text, "r,phi,E_r,rho")
    if isinstance(rows, str):
        return rows
    a, b, n = (float(v) for v in f["grid"].split(":"))
    r = np.geomspace(a, b, int(n)) if f["grid-scale"] == "log" else np.linspace(a, b, int(n))
    q, g, c = float(f["q"]), float(f["G"]), float(f["c"])
    x = q * math.sqrt(g) / c**2 / r
    with np.errstate(over="ignore"):
        want = {
            "r": r,
            "phi": c**2 / math.sqrt(g) * np.sinh(x),
            "E_r": q / (r * r * np.cosh(x)),
            "rho": math.sqrt(g) / (4 * math.pi * c**2) * np.tanh(x) / np.cosh(x) * q * q / r**4,
        }
    for col, name in enumerate(("r", "phi", "E_r", "rho")):
        bad = _mismatch(name, rows[:, col], want[name], FIELD_RTOL)
        if bad:
            return bad
    return None


def check_exact_json(job: Job, text: str) -> str | None:
    f = flags(job.argv)
    out = json.loads(text)
    q, g, c, rmin = float(f["q"]), float(f["G"]), float(f["c"]), float(f["rmin"])
    alpha = q * math.sqrt(g) / c**2
    cap = alpha / rmin
    closed_field = abs(q) * c**2 / (2 * math.sqrt(g))
    closed_self = q * q / (2 * alpha) * (cap - math.tanh(cap))
    for key, want, rtol in (
        ("closed_form_field_energy", closed_field, 1e-12),
        ("closed_form_self_energy", closed_self, 1e-12),
        ("field_energy", closed_field, FIELD_ENERGY_RTOL),
        ("self_energy", closed_self, SELF_ENERGY_RTOL),
    ):
        if not math.isclose(out[key], want, rel_tol=rtol):
            return "%s = %r, closed form %r" % (key, out[key], want)
    return None


def check_profile(job: Job, text: str) -> str | None:
    rows = _csv(text, "r,eta,deta_dr,phi_scaled,E_scaled,rho_scaled")
    if isinstance(rows, str):
        return rows
    if rows.shape[0] < 5:
        return "profile table has %d rows" % rows.shape[0]
    r, eta, deta, phi, e_field = rows[:, 0], rows[:, 1], rows[:, 2], rows[:, 3], rows[:, 4]
    if not np.all(np.diff(r) > 0):
        return "profile radii not increasing"
    return _mismatch("phi_scaled", phi, np.sinh(eta / 2), FIELD_RTOL) or _mismatch(
        "E_scaled", e_field, -deta / (2 * np.cosh(eta / 2)), FIELD_RTOL
    )


def check_shoot(job: Job, text: str) -> str | None:
    f = flags(job.argv)
    out = json.loads(text)
    m = float(f["m"])
    if not math.isclose(out["eta_vacuum"], math.acosh(1 + 2 * m * m), rel_tol=1e-12):
        return "eta_vacuum = %r" % out["eta_vacuum"]
    tol = REFERENCE_TOL.get((f["m"], f.get("tol"))) if f["lambda"] == "1" else None
    if tol is not None and abs(out["eta0_star"] - REFERENCE_ETA0[m]) > tol:
        return "eta0* = %r, frozen oracle %r +- %g" % (out["eta0_star"], REFERENCE_ETA0[m], tol)
    return None


def check_torsion(job: Job, text: str) -> str | None:
    f = flags(job.argv)
    out = json.loads(text)
    if out["config"]["seed"] != int(f["seed"]) or out["config"]["trials"] != int(f["trials"]):
        return "config does not echo the command line"
    if len(out["residuals"]) != 4 or out["max_residual"] != max(out["residuals"].values()):
        return "max_residual is not the maximum of the residuals"
    if not out["max_residual"] <= TORSION_MAX_RESIDUAL:
        return "max_residual = %r" % out["max_residual"]
    return None


def _core(n: int) -> str:
    """Rendering of the right-nested core f(b(f(b(... |psi>))))."""
    text = "b |psi>"
    for k in range(2 * n - 1):
        text = "(%s.%s)" % ("fb"[k % 2 == 1], text)
    return text


def check_assoc(job: Job, text: str) -> str | None:
    f = flags(job.argv)
    n = int(f["power"])
    lines = text.splitlines()
    if "vacuum" in f:
        # terms (k, j): optional m^{2j} then optional <core_k>; k = 1 drops out
        want = {(n - 2 * j, j) for j in range(n // 2 + 1) if n - 2 * j != 1}
        got = set()
        for term in lines[0].split(" + ") if lines != ["0"] else ():
            j, k = 0, 0
            for factor in term.split(" "):
                if factor.startswith("m^"):
                    j = int(factor[2:]) // 2
                elif factor.startswith("<core_"):
                    k = int(factor[6:-1])
            got.add((k, j))
        if len(lines) != 1 or got != want:
            return "vacuum terms %s, expected %s" % (sorted(got), sorted(want))
        return None
    if lines[0] != "core: " + _core(n):
        return "core line %r" % lines[0][:60]
    residual = {"": 0, "phi": 1}
    terms = []
    for line in lines[1:]:
        coeff, _, rest = line.partition(" ")
        j = int(coeff[2:]) // 2
        k = residual[rest] if rest in residual else int(rest[len("core_"):])
        if k + 2 * j != n:
            return "term %r breaks k + 2j = n" % line
        terms.append(j)
    if terms != list(range(1, n // 2 + 1)):
        return "correction exponents %s" % terms
    return None


def check_geometry(job: Job, result) -> str | None:
    gamma, igrid, ricci, rgrid = result
    n, span = job.grid
    h = span / (n - 1)
    th = igrid.axes[2][None, None, :, None]
    err = max(
        float(np.max(np.abs(gamma[..., 3, 3, 2] + np.sin(th) * np.cos(th)))),
        float(np.max(np.abs(gamma[..., 2, 3, 3] - np.cos(th) / np.sin(th)))),
        float(np.max(np.abs(gamma[..., 3, 2, 3] - np.cos(th) / np.sin(th)))),
    )
    if err > CHRISTOFFEL_C * h * h:
        return "Christoffel error %.3g > %g h^2" % (err, CHRISTOFFEL_C)
    want = np.zeros(ricci.shape)
    want[..., 2, 2] = 1.0
    want[..., 3, 3] = np.sin(rgrid.axes[2])[None, None, :, None] ** 2
    err = float(np.max(np.abs(ricci - want)))
    if err > RICCI_C * h * h:
        return "Ricci error %.3g > %g h^2" % (err, RICCI_C)
    return None


CHECKS = {
    "shoot": check_shoot,
    "exact-csv": check_exact_csv,
    "exact-json": check_exact_json,
    "profile": check_profile,
    "torsion-check": check_torsion,
    "assoc": check_assoc,
    "geometry": check_geometry,
}


def check_job(job: Job, code: int, output) -> str | None:
    if code != 0:
        return "exit code %d" % code
    try:
        return CHECKS[job.kind](job, output)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return "unparseable output: %r" % exc


def check_scaling(jobs: list[Job], eta0: dict[int, float]) -> dict[int, str]:
    """eta0*(lambda, m) equals its lambda = 1 partner: the exact scaling symmetry.

    ``eta0`` maps the index of every shoot job that passed its own check to
    its eta0*; returns the failing job indices with reasons.
    """
    partner = {}
    for i, value in eta0.items():
        f = flags(jobs[i].argv)
        if f["lambda"] == "1":
            partner[(f["m"], f.get("tol"))] = value
    failures = {}
    for i, value in eta0.items():
        f = flags(jobs[i].argv)
        if f["lambda"] == "1":
            continue
        ref = partner.get((f["m"], f.get("tol")))
        if ref is None:
            failures[i] = "lambda = 1 partner missing or failed"
        elif abs(value - ref) > SCALING_TOL:
            failures[i] = "eta0* = %r, lambda = 1 partner %r" % (value, ref)
    return failures
