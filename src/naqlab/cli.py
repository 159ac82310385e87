"""Command-line front end.

Subcommands
-----------
assoc         print the right-nested core and correction polynomial of a power
torsion-check run the randomized torsion/contorsion identity suite
exact         closed-form point-charge fields (csv) or energy report (json)
shoot         solve for the regular starting value eta_0* (Brent's method)
profile       integrate one trajectory and emit the derived field profiles

Exit codes: 0 success, 1 usage error (a nan or inf value, an ``--output``
path that cannot be opened and a ``shoot --bracket`` with LO <= 0 included),
2 numerical failure: a ``shoot`` trajectory unclassified at r_max or bracket
whose ends get the same label, the ``exact`` quadrature budget exhausted, a
``torsion-check`` residual above 1e-10 (its report is still written), or a
``profile`` grid outside the trajectory.  Every output embeds the resolved
configuration (a JSON ``config`` entry, or a ``# config: ...`` comment line
above the CSV header) so runs are self-describing and byte-reproducible.

numpy and orjson are imported only by the functions that build arrays:
``assoc``, ``shoot`` and ``exact --format json`` run without them.
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


def _colon_list(form: str):
    """argparse type for ``LO:HI`` or ``A:B:N``: two finite floats in
    increasing order, then, in a three-field form, an integer count >= 2."""
    fields = form.split(":")

    def parse(text: str) -> tuple:
        parts = text.split(":")
        if len(parts) != len(fields):
            raise argparse.ArgumentTypeError("expected %s, got %r" % (form, text))
        lo, hi = _finite_float(parts[0]), _finite_float(parts[1])
        if not lo < hi:
            raise argparse.ArgumentTypeError("needs %s < %s" % tuple(fields[:2]))
        if len(parts) == 2:
            return lo, hi
        try:
            n = int(parts[2])
        except ValueError:
            raise argparse.ArgumentTypeError("%s is not an integer: %r" % (fields[2], parts[2])) from None
        if n < 2:
            raise argparse.ArgumentTypeError("needs %s >= 2" % fields[2])
        return lo, hi, n

    return parse


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
    block; each value in the shortest decimal form that round-trips its
    64-bit float, as ``repr`` writes it.

    orjson finds the same shortest digits as ``repr`` (Ryu), in another
    layout.  Each block of rows is dumped as one flat list, nan and +inf as
    ``0.0`` and -inf as ``-0.0``, and its bytes get these edits:

    - ``+`` inserted after the ``e`` of a positive exponent: ``1e16`` ->
      ``1e+16``;
    - ``0`` inserted before the digit of a one-digit negative exponent:
      ``1e-7`` -> ``1e-07``;
    - the band 1e-5 <= |x| < 1e-4 moved to exponent form: ``0.0000dr`` ->
      ``d.re-05`` and ``0.0000d`` -> ``de-05``;
    - the last three bytes of each stand-in zero overwritten by ``nan`` or
      ``inf``;
    - the comma before each row's first value and the closing ``]`` turned
      into newlines, and the opening ``[`` dropped.

    The edits are found by scanning for ``,`` and ``e``.  Insertions land in
    one ``np.insert``; deleted bytes are overwritten with NUL and removed by
    one ``bytes.replace``.  No array as long as the text holds more than one
    byte per entry, and no more than one block of text is held at a time.
    """
    import numpy as np

    yield "# config: " + json.dumps(config, sort_keys=True) + "\n" + header + "\n"
    for start in range(0, len(columns[0]), _CSV_BLOCK):
        yield _csv_rows(np.column_stack([col[start:start + _CSV_BLOCK] for col in columns]))


def _csv_rows(block) -> str:
    """The rows of one block, edited as ``_csv_blocks`` lists; the arrays of
    a block are freed before the next block is dumped."""
    import numpy as np
    import orjson

    values = block.ravel()
    mag = np.abs(values)
    band = np.flatnonzero((mag >= 1e-5) & (mag < 1e-4))
    special = np.flatnonzero(~np.isfinite(values))
    dumped = np.nan_to_num(values, nan=0.0, posinf=0.0, neginf=-0.0)
    buf = np.frombuffer(orjson.dumps(dumped, option=orjson.OPT_SERIALIZE_NUMPY), np.uint8).copy()
    buf[0] = ord(",")  # with the "[" read as a comma, value k lies between bounds k and k + 1
    commas = np.flatnonzero(buf == ord(","))
    bounds = np.append(commas, buf.size - 1)
    # exponents: "+" after a positive one's "e", "0" before a one-digit negative one's digit
    e = np.flatnonzero(buf == ord("e"))
    minus = buf[e + 1] == ord("-")
    after = buf[e[minus] + 3]
    at = [e[~minus] + 1, e[minus][(after == ord(",")) | (after == ord("]"))] + 2]
    new = [b"+" * at[0].size, b"0" * at[1].size]
    # the band: d over the first "0", NUL over "0000d" (and the "." if r is empty), then "e-05"
    lead = bounds[band] + 1 + (values[band] < 0)
    end = bounds[band + 1]
    buf[lead] = buf[lead + 6]
    buf[lead[:, None] + (2, 3, 4, 5, 6)] = 0
    buf[lead[end - lead == 7] + 1] = 0
    at.append(np.repeat(end, 4))
    new.append(b"e-05" * band.size)
    # nan and +-inf: "nan" or "inf" over the last three bytes of the stand-in zero
    words = np.frombuffer(b"infnan", np.uint8).reshape(2, 3)
    buf[bounds[special + 1, None] - (3, 2, 1)] = words[np.isnan(values[special]).astype(int)]
    buf[commas[block.shape[1]::block.shape[1]]] = ord("\n")
    buf[-1] = ord("\n")
    out = np.insert(buf, np.concatenate(at), np.frombuffer(b"".join(new), np.uint8))
    return out[1:].tobytes().replace(b"\0", b"").decode()


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
    p.add_argument("--grid", type=_colon_list("A:B:N"), default=grid, metavar="A:B:N", help="radial grid for csv output (default %g:%g:%d); a negative A needs the --grid=A:B:N form" % grid)
    p.add_argument("--grid-scale", choices=("log", "linear"), default="log", help="grid spacing (default %(default)s)")
    p.add_argument("--tol", type=_finite_float, default=1e-10, help="quadrature tolerance (default %(default)s)")
    p.add_argument("--format", choices=("csv", "json"), default="json", help="csv: field samples; json: energy report (default %(default)s)")

    p = sub.add_parser("shoot", help="find the regular starting value")
    p.add_argument("--lambda", dest="lambda_tilde", type=_finite_float, default=1.0, help="scaled quartic coupling (default %(default)s)")
    p.add_argument("--m", type=_finite_float, default=0.1, help="mass parameter (default %(default)s)")
    p.add_argument("--bracket", type=_colon_list("LO:HI"), default=shooting.DEFAULT_BRACKET, metavar="LO:HI", help="starting-value bracket (default %g:%g)" % shooting.DEFAULT_BRACKET)
    p.add_argument("--tol", type=_finite_float, default=1e-5, help="root tolerance (default %(default)s)")
    p.add_argument("--rmax", type=_finite_float, default=shooting.DEFAULT_R_MAX, help="integration horizon (default %(default)s)")

    p = sub.add_parser("profile", help="field profiles of one trajectory")
    p.add_argument("--eta0", type=_finite_float, required=True, help="starting value eta(0)")
    p.add_argument("--lambda", dest="lambda_tilde", type=_finite_float, default=1.0, help="scaled quartic coupling (default %(default)s)")
    p.add_argument("--m", type=_finite_float, default=0.1, help="mass parameter (default %(default)s)")
    grid = (1e-3, shooting.DEFAULT_R_MAX, 2000)
    p.add_argument("--grid", type=_colon_list("A:B:N"), default=grid, metavar="A:B:N", help="output radial grid (default %g:%g:%d); a negative A needs the --grid=A:B:N form" % grid)
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
    _emit((_json_dumps({"config": _config(args), **vars(report)}),), args.output)
    return EXIT_OK


def _run_shoot(args) -> int:
    params = shooting.CouplingParams(lambda_tilde=args.lambda_tilde, m=args.m)
    result = shooting.find_regular_eta0(params, bracket=args.bracket, tol=args.tol, r_max=args.rmax)
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
    import numpy as np

    params = shooting.CouplingParams(lambda_tilde=args.lambda_tilde, m=args.m)
    traj = shooting.integrate_profile(args.eta0, params, r_max=args.grid[1])
    rs = _grid_points(args.grid, args.grid_scale)
    rs = rs[(rs >= traj.r[0]) & (rs <= traj.r[-1])]
    if rs.size == 0:
        sys.stderr.write(
            "profile: trajectory terminated at r = %g (%s); grid too short\n"
            % (traj.r[-1], traj.stop)
        )
        return EXIT_NUMERICAL
    eta, deta = _resample(traj, rs, params)
    columns = (rs, eta, deta) + shooting.derive_fields(eta, deta, params)
    _emit(_csv_blocks(_config(args), "r,eta,deta_dr,phi_scaled,E_scaled,rho_scaled", columns), args.output)
    return EXIT_OK


def _resample(traj, rs, params) -> tuple:
    """(eta, eta') of a trajectory at the radii ``rs`` inside it, each by the
    cubic Hermite interpolant on its samples: eta with the slopes eta', and
    eta' with the slopes eta'' that ``ode_rhs`` gives at the samples."""
    import numpy as np

    r, eta, deta = np.asarray(traj.r), np.asarray(traj.y), np.asarray(traj.dy)
    ddeta = np.array([shooting.ode_rhs(*sample, params) for sample in zip(traj.r, traj.y, traj.dy)])
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
    except (shooting.ClassifierAmbiguityError, InvalidBracketError, QuadratureBudgetError) as exc:
        # before ValueError: InvalidBracketError is one
        sys.stderr.write(str(exc) + "\n")
        return EXIT_NUMERICAL
    except ValueError as exc:
        sys.stderr.write("naqlab: %s\n" % exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
