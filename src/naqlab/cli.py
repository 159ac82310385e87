"""Command-line front end.

Subcommands
-----------
assoc         print the right-nested core and correction polynomial of a power
torsion-check run the randomized torsion/contorsion identity suite
exact         closed-form point-charge fields (csv) or energy report (json)
shoot         bisect for the regular starting value eta_0*
profile       integrate one trajectory and emit the derived field profiles

Exit codes: 0 success, 1 usage error, 2 numerical ambiguity or
non-convergence.  Every output embeds the resolved configuration (a JSON
``config`` entry, or a ``# config: ...`` comment line above the CSV header)
so runs are self-describing and byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import algebra, geometry, shooting
from .charge import ChargeModel, UnitsConfig, energy_report, exact_fields
from .numerics import InvalidBracketError, QuadratureBudgetError

DEFAULT_SEED = 20240901

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("grid must be a:b:n")
    a, b, n = float(parts[0]), float(parts[1]), int(parts[2])
    if not (a < b and n >= 2):
        raise argparse.ArgumentTypeError("grid needs a < b and n >= 2")
    return a, b, n


def _parse_bracket(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("bracket must be lo:hi")
    lo, hi = float(parts[0]), float(parts[1])
    if not lo < hi:
        raise argparse.ArgumentTypeError("bracket needs lo < hi")
    return lo, hi


def _grid_points(bounds: tuple[float, float, int], scale: str) -> np.ndarray:
    a, b, n = bounds
    if scale == "log":
        if a <= 0:
            raise ValueError("log-spaced grids need a > 0")
        return np.geomspace(a, b, n)
    return np.linspace(a, b, n)


def _csv(config: dict, header: str, columns: tuple[np.ndarray, ...]) -> str:
    """``# config:`` line, header and one row per radius; each value in the
    shortest decimal form that round-trips its 64-bit float."""
    rows = ["# config: " + json.dumps(config, sort_keys=True), header]
    rows += (",".join(map(repr, row)) for row in zip(*(col.tolist() for col in columns)))
    return "\n".join(rows) + "\n"


def _emit(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="naqlab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("assoc", help="associator correction series")
    p.add_argument("--power", type=int, required=True, help="power n of the composite field (n >= 1)")
    p.add_argument("--vacuum", action="store_true", help="print the vacuum expectation polynomial")
    p.add_argument("--output", default=None, help="output path (default: stdout)")

    p = sub.add_parser("torsion-check", help="randomized torsion identity suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (default %(default)s)")
    p.add_argument("--trials", type=int, default=1000, help="number of random instances (default %(default)s)")
    p.add_argument("--output", default=None)

    p = sub.add_parser("exact", help="closed-form point-charge solution")
    p.add_argument("--q", type=float, default=1.0, help="total charge (default %(default)s)")
    p.add_argument("--G", type=float, default=1.0, help="Newton constant (default %(default)s)")
    p.add_argument("--c", type=float, default=1.0, help="speed of light (default %(default)s)")
    p.add_argument("--rmin", type=float, default=1e-3, help="self-energy lower cutoff in length units (default %(default)s)")
    p.add_argument("--grid", type=_parse_grid, default=(1e-2, 1e2, 200), metavar="A:B:N", help="radial grid for csv output (default 1e-2:1e2:200)")
    p.add_argument("--grid-scale", choices=("log", "linear"), default="log", help="grid spacing (default %(default)s)")
    p.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance (default %(default)s)")
    p.add_argument("--format", choices=("csv", "json"), default="json", help="csv: field samples; json: energy report (default %(default)s)")
    p.add_argument("--output", default=None)

    p = sub.add_parser("shoot", help="find the regular starting value")
    p.add_argument("--lambda", dest="lambda_tilde", type=float, default=1.0, help="scaled quartic coupling (default %(default)s)")
    p.add_argument("--m", type=float, default=0.1, help="mass parameter (default %(default)s)")
    p.add_argument("--bracket", type=_parse_bracket, default=shooting.DEFAULT_BRACKET, metavar="LO:HI", help="starting-value bracket (default 0.2:2.0)")
    p.add_argument("--tol", type=float, default=1e-5, help="bisection tolerance (default %(default)s)")
    p.add_argument("--rmax", type=float, default=shooting.DEFAULT_R_MAX, help="integration horizon (default %(default)s)")
    p.add_argument("--output", default=None)

    p = sub.add_parser("profile", help="field profiles of one trajectory")
    p.add_argument("--eta0", type=float, required=True, help="starting value eta(0)")
    p.add_argument("--lambda", dest="lambda_tilde", type=float, default=1.0, help="scaled quartic coupling (default %(default)s)")
    p.add_argument("--m", type=float, default=0.1, help="mass parameter (default %(default)s)")
    p.add_argument("--grid", type=_parse_grid, default=(1e-3, shooting.DEFAULT_R_MAX, 2000), metavar="A:B:N", help="output radial grid (default 1e-3:80:2000)")
    p.add_argument("--grid-scale", choices=("log", "linear"), default="log", help="grid spacing (default %(default)s)")
    p.add_argument("--output", default=None)

    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _run_assoc(args) -> int:
    if args.power < 1:
        sys.stderr.write("assoc: --power must be >= 1\n")
        return EXIT_USAGE
    lines = []
    if args.vacuum:
        poly = algebra.vacuum_expectation_corrections(args.power)
        lines.append(poly.render())
    else:
        expr = algebra.build_power_expression(args.power)
        core, series = algebra.normalize(expr)
        lines.append("core: " + algebra.render(core))
        for term in series.terms:
            coeff = "m^2" if term.m2_exponent == 1 else f"m^{2 * term.m2_exponent}"
            if term.residual_power == 0:
                lines.append(coeff)
            elif term.residual_power == 1:
                lines.append(f"{coeff} phi")
            else:
                lines.append(f"{coeff} core_{term.residual_power}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _run_torsion_check(args) -> int:
    config = {"subcommand": "torsion-check", "seed": args.seed, "trials": args.trials}
    residuals = geometry.random_identity_suite(args.seed, args.trials)
    worst = max(residuals.values())
    payload = {"config": config, "residuals": residuals, "max_residual": worst}
    _emit(_json_dumps(payload), args.output)
    return EXIT_OK if worst <= 1e-10 else EXIT_NUMERICAL


def _run_exact(args) -> int:
    config = {
        "subcommand": "exact",
        "q": args.q,
        "G": args.G,
        "c": args.c,
        "rmin": args.rmin,
        "grid": list(args.grid),
        "grid_scale": args.grid_scale,
        "tol": args.tol,
        "format": args.format,
    }
    model = ChargeModel(q=args.q, units=UnitsConfig(G=args.G, c=args.c))
    if args.format == "csv":
        rs = _grid_points(args.grid, args.grid_scale)
        fields = exact_fields(rs, model)
        columns = (fields["r"], fields["phi"], fields["E_r"], fields["rho"])
        _emit(_csv(config, "r,phi,E_r,rho", columns), args.output)
        return EXIT_OK
    try:
        report = energy_report(model, r_min=args.rmin, tol=args.tol)
    except QuadratureBudgetError as exc:
        sys.stderr.write(str(exc) + "\n")
        return EXIT_NUMERICAL
    payload = {
        "config": config,
        "field_energy": report.field_energy,
        "self_energy": report.self_energy,
        "closed_form_field_energy": report.closed_form_field_energy,
        "closed_form_self_energy": report.closed_form_self_energy,
    }
    _emit(_json_dumps(payload), args.output)
    return EXIT_OK


def _run_shoot(args) -> int:
    config = {
        "subcommand": "shoot",
        "lambda_tilde": args.lambda_tilde,
        "m": args.m,
        "bracket": list(args.bracket),
        "tol": args.tol,
        "rmax": args.rmax,
    }
    params = shooting.CouplingParams(lambda_tilde=args.lambda_tilde, m=args.m)
    try:
        result = shooting.find_regular_eta0(
            params, bracket=args.bracket, tol=args.tol, r_max=args.rmax
        )
    except (shooting.ClassifierAmbiguityError, InvalidBracketError) as exc:
        sys.stderr.write(str(exc) + "\n")
        return EXIT_NUMERICAL
    traj = result.trajectory
    payload = {
        "config": config,
        "eta0_star": result.eta0,
        "eta_vacuum": params.eta_vacuum,
        "termination": traj.reason.value,
        "r_final": float(traj.r[-1]),
        "eta_final": float(traj.eta[-1]),
        "samples": int(traj.r.size),
    }
    _emit(_json_dumps(payload), args.output)
    return EXIT_OK


def _run_profile(args) -> int:
    config = {
        "subcommand": "profile",
        "eta0": args.eta0,
        "lambda_tilde": args.lambda_tilde,
        "m": args.m,
        "grid": list(args.grid),
        "grid_scale": args.grid_scale,
    }
    params = shooting.CouplingParams(lambda_tilde=args.lambda_tilde, m=args.m)
    a, b, _ = args.grid
    traj = shooting.integrate_profile(args.eta0, params, r_max=b)
    rs = _grid_points(args.grid, args.grid_scale)
    rs = rs[(rs >= traj.r[0]) & (rs <= traj.r[-1])]
    if rs.size < 5:
        sys.stderr.write(
            "profile: trajectory terminated at r = %g (%s); grid too short\n"
            % (traj.r[-1], traj.reason.value)
        )
        return EXIT_NUMERICAL
    eta = np.interp(rs, traj.r, traj.eta)
    deta = np.interp(rs, traj.r, traj.deta)
    resampled = shooting.Trajectory(
        r=rs, eta=eta, deta=deta, reason=traj.reason,
        eta0=args.eta0, params=params, epsilon=traj.epsilon,
    )
    prof = shooting.derive_fields(resampled)
    columns = (prof.r, prof.eta, prof.deta, prof.phi_scaled, prof.E_scaled, prof.rho_scaled)
    _emit(_csv(config, "r,eta,deta_dr,phi_scaled,E_scaled,rho_scaled", columns), args.output)
    return EXIT_OK


_DISPATCH = {
    "assoc": _run_assoc,
    "torsion-check": _run_torsion_check,
    "exact": _run_exact,
    "shoot": _run_shoot,
    "profile": _run_profile,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _DISPATCH[args.subcommand](args)
    except ValueError as exc:
        sys.stderr.write("naqlab: %s\n" % exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
