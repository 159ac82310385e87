"""Command-line front end.

Subcommands
-----------
assoc         print the right-nested core and correction polynomial of a power
torsion-check run the randomized torsion/contorsion identity suite
exact         closed-form point-charge fields (csv) or energy report (json)
shoot         solve for the regular starting value eta_0* (Brent's method)
profile       integrate one trajectory and emit the derived field profiles

Exit codes: 0 success, 1 usage error (a nan or inf value, an ``--output``
path that cannot be opened, a ``shoot --tol`` not above 0, ``shoot``
couplings whose horizon 8/m or 8/(m sqrt(lambda)) is out of range,
``profile`` couplings whose default grid end, the horizon 8/(m
sqrt(lambda)), is no finite float above 1e-3, and a ``profile`` grid ending
at or below 0 included), 2 numerical failure: ``shoot`` finding no regular
solution because m is at or above the fold m_c, a ``shoot`` bracket whose
ends both overshoot (a wrong bound), a ``shoot`` trajectory unclassified by
its horizon, the ``exact`` quadrature budget exhausted, a ``torsion-check``
residual above 1e-10 (its report is still written), or a ``profile`` grid
outside the trajectory, whose one stderr line names where and why the
trajectory stopped: "overshoot", "undershoot", or the integrator's "step
underflow" or "step budget".  Every output embeds the resolved
configuration (a JSON ``config`` entry, or a ``# config: ...`` comment line
above the CSV header) so runs are self-describing and byte-reproducible.

numpy and orjson are imported only by the functions that build arrays:
``assoc``, ``shoot`` and ``exact --format json`` run without them.
``import naqlab.cli`` loads ``algebra``, ``charge``, ``numerics`` and
``shooting``; their records are named tuples, so it imports neither
``dataclasses`` nor ``inspect``.  In a fresh interpreter with no bytecode
cache, it and ``build_parser()`` take 68 ms, 40 ms of them the
interpreter's start-up (medians of 40 runs; Python 3.11.7, 2 shared vCPUs).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import stat
import sys

from . import algebra, shooting
from .charge import ChargeModel, energy_report, exact_fields
from .numerics import InvalidBracketError, QuadratureBudgetError

DEFAULT_SEED = 20240901

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2

# Rows of a CSV table formatted per orjson call; bounds the memory of a long table.
_CSV_BLOCK = 4096


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _finite_float(text: str) -> float:
    """argparse type: a float that is neither nan nor infinite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid float value: %r" % text) from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError("not a finite number: %r" % text)
    return value


def _grid_bounds(text: str) -> tuple:
    """argparse type for ``A:B:N``: two finite floats A < B and an integer
    count N >= 2."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected A:B:N, got %r" % text)
    a, b = _finite_float(parts[0]), _finite_float(parts[1])
    if not a < b:
        raise argparse.ArgumentTypeError("needs A < B")
    try:
        n = int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError("N is not an integer: %r" % parts[2]) from None
    if n < 2:
        raise argparse.ArgumentTypeError("needs N >= 2")
    return a, b, n


def _grid_points(bounds: tuple[float, float, int], scale: str):
    import numpy as np

    a, b, n = bounds
    if scale == "log":
        if a <= 0:
            raise ValueError("log-spaced grids need a > 0")
        return np.geomspace(a, b, n)
    return np.linspace(a, b, n)


def _config(args) -> dict:
    """The resolved options of a run, as its output embeds them."""
    return {k: v for k, v in vars(args).items() if k != "output"}


def _csv_blocks(config: dict, header: str, columns: tuple):
    """``# config:`` line, header and one row per radius, yielded block by
    block; each value in the shortest decimal digits that round-trip its
    64-bit float, as orjson writes them (Ryu's, the digits ``repr`` picks),
    and nan, inf and -inf as ``nan``, ``inf`` and ``-inf``."""
    import numpy as np

    yield "# config: " + json.dumps(config, sort_keys=True) + "\n" + header + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        yield _csv_rows(np.column_stack([col[start:start + _CSV_BLOCK] for col in columns]))


def _csv_rows(block) -> str:
    """The rows of one block: orjson dumps the block as one flat list, nan
    and inf as ``0.0`` and -inf as ``-0.0``; the comma that ends each row
    and the closing ``]`` become newlines, the opening ``[`` is dropped, and
    ``nan`` or ``inf`` overwrites the last three bytes of each stand-in."""
    import numpy as np
    import orjson

    values = block.ravel()
    special = np.flatnonzero(~np.isfinite(values))
    dumped = np.nan_to_num(values, nan=0.0, posinf=0.0, neginf=-0.0) if special.size else values
    text = bytearray(orjson.dumps(dumped, option=orjson.OPT_SERIALIZE_NUMPY))
    buf = np.frombuffer(text, np.uint8)
    buf[[0, -1]] = ord(",")  # with "[" and "]" read as commas, value k lies between bounds k and k + 1
    bounds = np.flatnonzero(buf == ord(","))
    buf[bounds[block.shape[1]::block.shape[1]]] = ord("\n")
    if special.size:
        words = np.frombuffer(b"infnan", np.uint8).reshape(2, 3)
        buf[bounds[special + 1, None] - (3, 2, 1)] = words[np.isnan(values[special]).astype(int)]
    return str(memoryview(text)[1:], "ascii")


def _emit(pieces, path: str | None) -> None:
    """Write each text piece as it comes, to stdout or to ``path``; a regular
    file whose pieces fail to come is removed, not left partial.  A device,
    pipe or symlink named by ``path`` is left in place.  A ``path`` that
    cannot be opened is a ValueError that names it."""
    if path is None or path == "-":
        sys.stdout.writelines(pieces)
        return
    try:
        fh = open(path, "w")
    except OSError as exc:
        raise ValueError("cannot write %s: %s" % (path, exc.strerror)) from None
    with fh:
        try:
            fh.writelines(pieces)
        except BaseException:
            fh.close()
            if stat.S_ISREG(os.lstat(path).st_mode):
                os.remove(path)
            raise


def _json_dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process and shared by every ``main``
    call: parsing reads it and never changes it."""
    parser = _Parser(prog="naqlab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)

    p = sub.add_parser("assoc", help="associator correction series")
    p.add_argument("--power", type=int, required=True, help="power n of the composite field (n >= 1)")
    p.add_argument("--vacuum", action="store_true", help="print the vacuum expectation polynomial")

    p = sub.add_parser("torsion-check", help="randomized torsion identity suite")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (default %(default)s)")
    p.add_argument("--trials", type=int, default=1000, help="number of random instances (default %(default)s)")

    p = sub.add_parser("exact", help="closed-form point-charge solution")
    p.add_argument("--q", type=_finite_float, default=1.0, help="total charge (default %(default)s)")
    p.add_argument("--G", type=_finite_float, default=1.0, help="Newton constant (default %(default)s)")
    p.add_argument("--c", type=_finite_float, default=1.0, help="speed of light (default %(default)s)")
    p.add_argument("--rmin", type=_finite_float, default=1e-3, help="self-energy lower cutoff in length units (default %(default)s)")
    grid = (1e-2, 1e2, 200)
    p.add_argument("--grid", type=_grid_bounds, default=grid, metavar="A:B:N", help="radial grid for csv output (default %g:%g:%d); a negative A needs the --grid=A:B:N form" % grid)
    p.add_argument("--grid-scale", choices=("log", "linear"), default="log", help="grid spacing (default %(default)s)")
    p.add_argument("--tol", type=_finite_float, default=1e-10, help="quadrature tolerance (default %(default)s)")
    p.add_argument("--format", choices=("csv", "json"), default="json", help="csv: field samples; json: energy report (default %(default)s)")

    p = sub.add_parser("shoot", help="find the regular starting value")
    p.add_argument("--lambda", dest="lambda_tilde", type=_finite_float, default=1.0, help="scaled quartic coupling (default %(default)s)")
    p.add_argument("--m", type=_finite_float, default=0.1, help="mass parameter (default %(default)s)")
    p.add_argument("--tol", type=_finite_float, default=1e-5, help="root tolerance (default %(default)s)")

    p = sub.add_parser("profile", help="field profiles of one trajectory")
    p.add_argument("--eta0", type=_finite_float, required=True, help="starting value eta(0)")
    p.add_argument("--lambda", dest="lambda_tilde", type=_finite_float, default=1.0, help="scaled quartic coupling (default %(default)s)")
    p.add_argument("--m", type=_finite_float, default=0.1, help="mass parameter (default %(default)s)")
    p.add_argument("--grid", type=_grid_bounds, metavar="A:B:N", help="output radial grid (default 0.001:8/(m sqrt(lambda)):2000, ending on the horizon of shoot); a negative A needs the --grid=A:B:N form")
    p.add_argument("--grid-scale", choices=("log", "linear"), default="log", help="grid spacing (default %(default)s)")

    for p in sub.choices.values():  # after every other option, as usage lines show it
        p.add_argument("--output", default=None, help="output path (default: stdout)")
    return parser


# ---------------------------------------------------------------------------
# Subcommand bodies
# ---------------------------------------------------------------------------


def _run_assoc(args) -> int:
    _emit((algebra.render_power(args.power, args.vacuum),), args.output)
    return EXIT_OK


def _run_torsion_check(args) -> int:
    from . import geometry

    residuals = geometry.random_identity_suite(args.seed, args.trials)
    worst = max(residuals.values())
    payload = {"config": _config(args), "residuals": residuals, "max_residual": worst}
    _emit((_json_dumps(payload),), args.output)
    return EXIT_OK if worst <= 1e-10 else EXIT_NUMERICAL


def _run_exact(args) -> int:
    model = ChargeModel(q=args.q, G=args.G, c=args.c)
    if args.format == "csv":
        rs = _grid_points(args.grid, args.grid_scale)
        fields = exact_fields(rs, model)
        columns = (fields["r"], fields["phi"], fields["E_r"], fields["rho"])
        _emit(_csv_blocks(_config(args), "r,phi,E_r,rho", columns), args.output)
        return EXIT_OK
    report = energy_report(model, r_min=args.rmin, tol=args.tol)
    _emit((_json_dumps({"config": _config(args), **report._asdict()}),), args.output)
    return EXIT_OK


def _run_shoot(args) -> int:
    params = shooting.CouplingParams(lambda_tilde=args.lambda_tilde, m=args.m)
    result = shooting.find_regular_eta0(params, tol=args.tol)
    traj = result.trajectory
    payload = {
        "config": _config(args),
        "eta0_star": result.eta0,
        "eta_vacuum": params.eta_vacuum,
        "termination": traj.stop,
        "r_final": traj.r[-1],
        "eta_final": traj.y[-1],
        "samples": len(traj.r),
    }
    _emit((_json_dumps(payload),), args.output)
    return EXIT_OK


def _run_profile(args) -> int:
    params = shooting.CouplingParams(lambda_tilde=args.lambda_tilde, m=args.m)
    if args.grid is None:
        if not 1e-3 < params.horizon < math.inf:
            raise ValueError("lambda_tilde = %g, m = %g: the horizon 8/(m sqrt(lambda_tilde)) is no finite float above 1e-3" % (params.lambda_tilde, params.m))
        args.grid = (1e-3, params.horizon, 2000)
    traj = shooting.integrate_profile(args.eta0, params, r_max=args.grid[1])
    rs = _grid_points(args.grid, args.grid_scale)
    rs = rs[(rs >= traj.r[0]) & (rs <= traj.r[-1])]
    if rs.size == 0:
        sys.stderr.write(
            "profile: trajectory terminated at r = %g (%s); grid too short\n"
            % (traj.r[-1], traj.stop)
        )
        return EXIT_NUMERICAL
    eta, deta = _resample(traj, rs)
    columns = (rs, eta, deta) + shooting.derive_fields(eta, deta, params)
    _emit(_csv_blocks(_config(args), "r,eta,deta_dr,phi_scaled,E_scaled,rho_scaled", columns), args.output)
    return EXIT_OK


def _resample(traj, rs) -> tuple:
    """(eta, eta') of a trajectory at the radii ``rs`` inside it, each by the
    cubic Hermite interpolant on its samples: eta with the slopes eta', and
    eta' with the slopes eta'' the integrator recorded at the samples."""
    import numpy as np

    r, eta, deta, ddeta = (np.asarray(buf) for buf in (traj.r, traj.y, traj.dy, traj.ddy))
    # the interval [r[i], r[j]] that holds each radius; a one-sample
    # trajectory gives i = j and t = 0
    i = np.clip(np.searchsorted(r, rs, side="right") - 1, 0, max(r.size - 2, 0))
    j = np.minimum(i + 1, r.size - 1)
    h = r[j] - r[i]
    t = (rs - r[i]) / np.where(h > 0, h, 1.0)
    s = 1.0 - t

    def hermite(f, df):
        return s * s * ((1.0 + 2.0 * t) * f[i] + t * h * df[i]) + t * t * ((3.0 - 2.0 * t) * f[j] - s * h * df[j])

    return hermite(eta, deta), hermite(deta, ddeta)


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
    except (shooting.ClassifierAmbiguityError, shooting.BracketBoundError, InvalidBracketError, QuadratureBudgetError) as exc:
        # before ValueError: InvalidBracketError is one
        sys.stderr.write(str(exc) + "\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write("naqlab: %s\n" % exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
