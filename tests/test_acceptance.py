"""End-to-end acceptance checks.

Each test prints exactly one PASS/FAIL line (run pytest with -s to see them
as they happen; under the default capture they appear for failing tests).
"""

import json
import math
import time

import numpy as np
import pytest
from lab_oracles import decay_rate, gauss_residual

from naqlab import algebra, geometry, shooting
from naqlab.charge import ChargeModel, energy_report, exact_solution
from naqlab.cli import main as cli_main


def report(label: str, ok: bool, detail: str) -> None:
    print("%s: %s (%s)" % ("PASS" if ok else "FAIL", label, detail))
    assert ok, "%s: %s" % (label, detail)


def test_critical_starting_value(shot_m01_default):
    t0 = time.perf_counter()
    res = shooting.find_regular_eta0(shooting.CouplingParams(1.0, 0.1))
    wall = time.perf_counter() - t0
    err = abs(res.eta0 - 0.9083)
    report(
        "critical starting value",
        err <= 5e-4 and wall < 10.0,
        "eta0* = %.6f, |delta| = %.1e, %.2f s" % (res.eta0, err, wall),
    )


def test_tail_decay_rate(shot_m01_tight):
    mu = decay_rate(shot_m01_tight.trajectory, (20.0, 50.0))
    report(
        "tail decay rate",
        0.095 <= mu <= 0.105,
        "mu = %.6f, expected 0.1 within 5%%" % mu,
    )


def test_field_energy():
    rep = energy_report(ChargeModel(q=1.0), r_min=1e-3)
    err = abs(rep.field_energy - 0.5)
    report("field energy", err <= 1e-8, "value = %.12f, |delta| = %.1e" % (rep.field_energy, err))


def test_self_energy_cutoff_scan():
    worst = 0.0
    for r_min in (1e-2, 1e-3, 1e-4):
        rep = energy_report(ChargeModel(q=1.0), r_min=r_min)
        rel = abs(rep.self_energy - rep.closed_form_self_energy) / rep.closed_form_self_energy
        worst = max(worst, rel)
    report("self-energy cutoff scan", worst <= 1e-6, "worst relative error %.1e" % worst)


def test_origin_regularity():
    model = ChargeModel(q=1.0)
    s = exact_solution(model.alpha / 50.0, model)
    worst = max(abs(s.E_r), abs(s.rho))
    report("origin regularity", worst < 1e-12, "max(|E_r|, |rho|) = %.1e at r = alpha/50" % worst)


def test_gauss_law_convergence():
    res = [gauss_residual(ChargeModel(q=1.0), np.linspace(0.5, 5.0, n + 1)) for n in (200, 400)]
    ratio = res[0] / res[1]
    report("Gauss-law residual order", 3.5 <= ratio <= 4.5, "halving ratio = %.2f" % ratio)


def test_torsion_identity_suite():
    residuals = geometry.random_identity_suite(seed=20240901, trials=1000)
    worst = max(residuals.values())
    report("torsion identities (1000 random metrics)", worst <= 1e-10, "max residual %.1e" % worst)


def test_curvature_consistency():
    # flat check: zero connection gives exactly zero curvature
    one = np.array([0.0])
    th41 = geometry.Grid((one, one, 1.0 + 0.02 * (np.arange(41) - 20), one))
    ricci0, _ = geometry.ricci_from_connection(np.zeros(th41.shape + (4, 4, 4)), th41)
    flat_ok = np.abs(ricci0).max() == 0.0

    # sphere check: second-order convergence to the closed form at the center
    errs = []
    for n, h in ((41, 0.02), (81, 0.01)):
        grid = geometry.Grid((one, one, 1.0 + h * (np.arange(n) - n // 2), one))
        th = grid.axes[2]
        conn = np.zeros(grid.shape + (4, 4, 4))
        conn[..., 3, 3, 2] = (-np.sin(th) * np.cos(th))[None, None, :, None]
        cot = (np.cos(th) / np.sin(th))[None, None, :, None]
        conn[..., 2, 3, 3] = cot
        conn[..., 3, 2, 3] = cot
        ricci, ig = geometry.ricci_from_connection(conn, grid)
        mid = ig.axes[2].size // 2
        errs.append(abs(ricci[0, 0, mid, 0, 2, 2] - 1.0))
    ratio = errs[0] / errs[1]
    report(
        "curvature consistency",
        flat_ok and 3.5 <= ratio <= 4.5,
        "flat max %.1e, sphere halving ratio %.2f" % (np.abs(ricci0).max(), ratio),
    )


def test_correction_series_structure():
    ok = True
    detail = []
    for n in range(1, 11):
        _, series = algebra.normalize(algebra.build_power_expression(n))
        ok &= all(t.residual_power + 2 * t.m2_exponent == n for t in series.terms)
        ok &= all(t.m2_exponent >= 1 for t in series.terms)
        poly = algebra.vacuum_expectation_corrections(n)
        has_pure = any(k == 0 for k, _ in poly.terms)
        ok &= has_pure == (n % 2 == 0)
    rendered = algebra.vacuum_expectation_corrections(4).render()
    ok &= rendered == "<core_4> + m^2 <core_2> + m^4"
    report(
        "correction-series structure",
        bool(ok),
        "powers 1..10 conserve length, vanish at m^2 = 0; n=4 vacuum = %r" % rendered,
    )


def test_cli_determinism(capsys, tmp_path):
    cases = [
        ["assoc", "--power", "4", "--vacuum"],
        ["torsion-check", "--trials", "50"],
        ["exact", "--format", "csv", "--grid", "0.1:10:25"],
        ["exact", "--rmin", "1e-3"],
        ["shoot", "--tol", "1e-4"],
        ["profile", "--eta0", "0.9", "--grid", "1e-2:30:40"],
    ]
    ok = True
    for argv in cases:
        outs = []
        for _ in range(2):
            code = cli_main(argv)
            outs.append(capsys.readouterr().out)
            ok &= code == 0
        ok &= outs[0] == outs[1] and outs[0] != ""
    with capsys.disabled():
        report("CLI determinism", bool(ok), "%d subcommand invocations byte-identical" % len(cases))
