import contextlib
import errno
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import orjson
import pytest

from naqlab import algebra, charge, cli, shooting
from naqlab.charge import ChargeModel, exact_fields
from naqlab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, main

# a table that spans two full CSV blocks and part of a third
MULTI_BLOCK_ROWS = 2 * cli._CSV_BLOCK + 3


def per_value(v):
    """One CSV field as written alone: orjson's shortest round-trip digits
    for a finite float, ``repr``'s ``nan``, ``inf`` and ``-inf`` otherwise."""
    v = float(v)
    return orjson.dumps(v).decode() if math.isfinite(v) else repr(v)


def per_value_table(config, header, columns):
    """The CSV text written one value at a time, row by row, each value by
    ``per_value``."""
    rows = ["# config: " + json.dumps(config, sort_keys=True), header]
    for row in zip(*(np.asarray(col).tolist() for col in columns)):
        rows.append(",".join(per_value(v) for v in row))
    return "\n".join(rows) + "\n"


def csv_text(config, header, columns):
    """The whole table the CSV writer streams, as one string."""
    return "".join(cli._csv_blocks(config, header, columns))


def assert_same_text(got, expected):
    """``got == expected``; on a mismatch pytest shows the first differing
    line, not a diff of the whole (possibly megabyte) text."""
    got_lines, expected_lines = got.split("\n"), expected.split("\n")
    first = next(((i, g, e) for i, (g, e) in enumerate(zip(got_lines, expected_lines)) if g != e), None)
    assert first is None
    assert len(got_lines) == len(expected_lines)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    if captured.out.startswith("{"):
        # every JSON output parses strictly: no NaN or Infinity
        json.loads(captured.out, parse_constant=reject_constant)
    return code, captured.out, captured.err


def reject_constant(name):
    raise ValueError("non-JSON constant %s" % name)


class TestUsageErrors:
    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == EXIT_USAGE

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == EXIT_USAGE

    def test_unknown_format_rejected(self, capsys):
        code, _, _ = run(capsys, "exact", "--format", "xml")
        assert code == EXIT_USAGE

    def test_malformed_grid(self, capsys):
        code, _, _ = run(capsys, "exact", "--format", "csv", "--grid", "1:2")
        assert code == EXIT_USAGE

    def test_non_integer_point_count_names_its_reason(self, capsys):
        code, out, err = run(capsys, "exact", "--format", "csv", "--grid", "1:2:x")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.endswith("naqlab exact: error: argument --grid: N is not an integer: 'x'\n")

    @pytest.mark.parametrize(
        "argv, reason",
        (
            (("exact", "--format", "csv", "--grid", "2:1:5"), "needs A < B"),
            (("profile", "--eta0", "0", "--grid", "1:1:5"), "needs A < B"),
            (("exact", "--format", "csv", "--grid", "1:2:1"), "needs N >= 2"),
        ),
        ids=" ".join,
    )
    def test_grid_bounds_refusal_names_its_reason(self, capsys, argv, reason):
        # argparse's usage, then one error line
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err.startswith("usage: naqlab %s " % argv[0])
        assert [line for line in err.splitlines() if "error" in line] == [
            "naqlab %s: error: argument --grid: %s" % (argv[0], reason)]

    def test_shoot_bracket_is_gone(self, capsys):
        # the bracket is derived from m inside find_regular_eta0
        code, out, err = run(capsys, "shoot", "--bracket", "0.2:2")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.splitlines()[-1] == "naqlab: error: unrecognized arguments: --bracket 0.2:2"

    def test_bad_value_names_its_reason(self, capsys):
        code, out, err = run(capsys, "shoot", "--m", "abc")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage: naqlab shoot ")
        assert err.endswith("naqlab shoot: error: argument --m: invalid float value: 'abc'\n")

    def test_negative_grid_bound_names_its_reason(self, capsys):
        # without "=" argparse reads -1:1:5 as an option, not as the value
        code, out, err = run(capsys, "exact", "--grid", "-1:1:5")
        assert code == EXIT_USAGE
        assert out == ""
        assert err.startswith("usage: naqlab exact ")
        assert err.endswith("naqlab exact: error: argument --grid: expected one argument\n")

    def test_assoc_power_zero(self, capsys):
        for extra in ((), ("--vacuum",)):
            code, out, err = run(capsys, "assoc", "--power", "0", *extra)
            assert code == EXIT_USAGE
            assert out == ""
            assert err == "naqlab: empty product: power must be >= 1\n"

    @pytest.mark.parametrize(
        "argv",
        (
            ("shoot", "--tol", "nan"),
            ("shoot", "--m", "inf"),
            ("exact", "--tol", "nan"),
            ("exact", "--c", "inf"),
            ("exact", "--format", "csv", "--grid", "1:inf:5"),
            ("profile", "--eta0", "1", "--m", "nan"),
        ),
        ids=" ".join,
    )
    def test_non_finite_value_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "Traceback" not in err
        last = err.splitlines()[-1]
        assert last.startswith("naqlab %s: error: argument %s: not a finite number: " % (argv[0], argv[-2]))

    def test_grid_end_not_positive_names_it(self, capsys):
        # the trajectory starts at r = 0, so the grid has to end beyond it
        code, out, err = run(capsys, "profile", "--eta0", "0.9", "--grid=-2:-1:5", "--grid-scale", "linear")
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "naqlab: r_max = -1.0: sqrt(lambda_tilde) r_max is no finite positive float\n"

    @pytest.mark.parametrize(
        "argv, couplings",
        (
            (("shoot", "--m", "1e-200", "--lambda", "1e-250"), "lambda_tilde = 1e-250, m = 1e-200"),
            (("shoot", "--m", "1e-160", "--lambda", "1e-300"), "lambda_tilde = 1e-300, m = 1e-160"),
            (("shoot", "--m", "1e-310", "--lambda", "1e300"), "lambda_tilde = 1e+300, m = 1e-310"),
        ),
        ids=("mu-underflows", "horizon-overflows", "unit-horizon-overflows"),
    )
    def test_shoot_horizon_out_of_range_names_couplings(self, capsys, argv, couplings):
        # the horizon 8/(m sqrt(lambda)) divides by zero or is inf, or the
        # probes' horizon 8/m is inf: one line that names the couplings
        code, out, err = run(capsys, *argv)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("naqlab: %s: the horizon 8/m or 8/(m sqrt(lambda_tilde)) is no finite positive float\n"
                       % couplings)

    @pytest.mark.parametrize(
        "m, lambda_tilde",
        (("1e-200", "1e-250"), ("1e-160", "1e-300"), ("8000", "1"), ("1e4", "1")),
        ids=("mu-underflows", "horizon-overflows", "horizon-at-grid-start", "horizon-below-grid-start"),
    )
    def test_profile_horizon_out_of_range_names_couplings(self, capsys, m, lambda_tilde):
        # without --grid, the grid end is the horizon 8/(m sqrt(lambda))
        code, out, err = run(capsys, "profile", "--eta0", "0", "--m", m, "--lambda", lambda_tilde)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("naqlab: lambda_tilde = %g, m = %g: the horizon 8/(m sqrt(lambda_tilde)) is no finite float above 1e-3\n"
                       % (float(lambda_tilde), float(m)))

    def test_shoot_rmax_is_gone(self, capsys):
        code, out, err = run(capsys, "shoot", "--rmax", "80")
        assert (code, out) == (EXIT_USAGE, "")
        assert err.splitlines()[-1] == "naqlab: error: unrecognized arguments: --rmax 80"

    @pytest.mark.parametrize("argv", (("assoc", "--power", "2"), ("exact", "--format", "csv")), ids=("assoc", "exact-csv"))
    @pytest.mark.parametrize("target", ("missing-directory", "directory"))
    def test_unwritable_output_is_usage_error(self, capsys, tmp_path, argv, target):
        if target == "directory":
            path, reason = tmp_path / "dir", os.strerror(errno.EISDIR)
            path.mkdir()
        else:
            path, reason = tmp_path / "missing" / "x", os.strerror(errno.ENOENT)
        code, out, err = run(capsys, *argv, "--output", str(path))
        assert (code, out) == (EXIT_USAGE, "")
        assert err == "naqlab: cannot write %s: %s\n" % (path, reason)
        assert [p.name for p in tmp_path.rglob("*")] == (["dir"] if target == "directory" else [])


class TestAssoc:
    def test_vacuum_power_four(self, capsys):
        code, out, _ = run(capsys, "assoc", "--power", "4", "--vacuum")
        assert code == EXIT_OK
        assert out == "<core_4> + m^2 <core_2> + m^4\n"

    def test_vacuum_power_one_vanishes(self, capsys):
        code, out, _ = run(capsys, "assoc", "--power", "1", "--vacuum")
        assert code == EXIT_OK
        assert out == "0\n"

    def test_series_power_four(self, capsys):
        code, out, _ = run(capsys, "assoc", "--power", "4")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("core: ")
        assert lines[1:] == ["m^2 core_2", "m^4"]

    def test_series_power_three_has_linear_residual(self, capsys):
        code, out, _ = run(capsys, "assoc", "--power", "3")
        assert code == EXIT_OK
        assert out.strip().split("\n")[1:] == ["m^2 phi"]

    @pytest.mark.parametrize("vacuum", (False, True), ids=("series", "vacuum"))
    def test_power_past_recursion_limit(self, capsys, vacuum):
        # a power-2000 tree is about 4000 levels deep
        n = 2000
        code, out, _ = run(capsys, "assoc", "--power", str(n), *(("--vacuum",) if vacuum else ()))
        assert code == EXIT_OK
        if vacuum:
            terms = out.rstrip("\n").split(" + ")
        else:
            core, *terms = out.rstrip("\n").split("\n")
            assert core.startswith("core: (f.(b.") and core.endswith("(f.b |psi>)" + ")" * (2 * n - 2))
        powers = [term_powers(t) for t in terms]
        assert all(k + 2 * j == n for k, j in powers)
        assert [j for _, j in powers] == list(range(0 if vacuum else 1, n // 2 + 1))

    @pytest.mark.parametrize("vacuum", (False, True), ids=("series", "vacuum"))
    def test_bytes_match_former_renderer(self, capsys, vacuum):
        for n in range(1, 41):
            code, out, _ = run(capsys, "assoc", "--power", str(n), *(("--vacuum",) if vacuum else ()))
            assert code == EXIT_OK
            assert out == former_assoc_text(n, vacuum)


def term_powers(term):
    """(k, j) of a rendered term m^{2j} core_k: ``m^4 core_2``, ``m^2 phi``,
    ``m^6``, or as an expectation ``<core_4>``, ``m^2 <core_2>``."""
    k = j = 0
    for factor in term.split(" "):
        factor = factor.strip("<>")
        if factor.startswith("m^"):
            j = int(factor[2:]) // 2
        elif factor == "phi":
            k = 1
        else:
            k = int(factor.removeprefix("core_"))
    return k, j


def former_assoc_text(n, vacuum):
    """The assoc output as the CLI's own per-term branches and the former
    VacuumPolynomial.render wrote it; the reference for algebra.render_power."""
    if not vacuum:
        core, series = algebra.normalize(algebra.build_power_expression(n))
        lines = ["core: " + algebra.render(core)]
        for term in series.terms:
            coeff = "m^2" if term.m2_exponent == 1 else f"m^{2 * term.m2_exponent}"
            if term.residual_power == 0:
                lines.append(coeff)
            elif term.residual_power == 1:
                lines.append(f"{coeff} phi")
            else:
                lines.append(f"{coeff} core_{term.residual_power}")
        return "\n".join(lines) + "\n"
    parts = []
    for j in range(0, n // 2 + 1):
        k = n - 2 * j
        if k == 1:
            continue
        factors = []
        if j == 1:
            factors.append("m^2")
        elif j > 1:
            factors.append(f"m^{2 * j}")
        if k >= 2:
            factors.append(f"<core_{k}>")
        parts.append(" ".join(factors))
    return (" + ".join(parts) if parts else "0") + "\n"


class TestTorsionCheck:
    def test_passes_and_reports_residuals(self, capsys):
        code, out, _ = run(capsys, "torsion-check", "--trials", "50")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["max_residual"] <= 1e-10
        assert payload["config"]["trials"] == 50
        assert len(payload["residuals"]) == 4

    @pytest.mark.parametrize("trials", ("0", "-5"))
    def test_nonpositive_trials_is_usage_error(self, capsys, trials):
        code, out, err = run(capsys, "torsion-check", "--trials", trials)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "naqlab: trials must be >= 1\n"


class TestExact:
    def test_json_energy_report(self, capsys):
        code, out, _ = run(capsys, "exact", "--rmin", "1e-3")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["field_energy"] == pytest.approx(0.5, abs=1e-9)
        assert payload["self_energy"] == pytest.approx(
            payload["closed_form_self_energy"], rel=1e-8
        )
        assert payload["config"]["subcommand"] == "exact"

    def test_csv_fields(self, capsys):
        code, out, _ = run(capsys, "exact", "--format", "csv", "--grid", "0.1:10:20")
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[0].startswith("# config: ")
        assert lines[1] == "r,phi,E_r,rho"
        assert len(lines) == 22
        first = [float(v) for v in lines[2].split(",")]
        assert first[0] == pytest.approx(0.1)

    def test_quadrature_budget_is_numerical_error(self, capsys):
        code, out, err = run(capsys, "exact", "--tol", "1e-300")
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err.startswith("quadrature budget exceeded:")

    def test_nonpositive_radius_is_usage_error(self, capsys):
        # "--grid -1:1:5" would be read as an option; the = form passes it
        code, out, err = run(
            capsys, "exact", "--format", "csv", "--grid=-1:1:5", "--grid-scale", "linear"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "radius must be positive" in err

    def test_output_file(self, tmp_path, capsys):
        multi_block_csv = ("exact", "--format", "csv", "--grid", "1e-3:1e3:%d" % MULTI_BLOCK_ROWS)
        for i, argv in enumerate((("exact",), multi_block_csv)):
            path = tmp_path / ("out%d" % i)
            code, out, _ = run(capsys, *argv, "--output", str(path))
            assert code == EXIT_OK
            assert out == ""
            assert_same_text(path.read_text(), run(capsys, *argv)[1])

    @pytest.mark.parametrize(
        "units, grid",
        (
            # more rows than one block
            (("--q", "1", "--G", "1", "--c", "1"), (1e-3, 1e3, MULTI_BLOCK_ROWS)),
            # alpha/r past 710.47: phi = +-inf, E_r and rho down to subnormals and zeros
            (("--q", "1", "--G", "1", "--c", "1"), (1e-4, 1e-2, 300)),
            (("--q", "-1", "--G", "1", "--c", "1"), (1e-4, 1e-2, 300)),
            # every field exactly zero
            (("--q", "0", "--G", "1", "--c", "1"), (1e-2, 1e2, 50)),
            # E_r in [1e-5, 1e-4) at large r, phi past 1e16 at small r
            (("--q", "1", "--G", "1", "--c", "1"), (1e-2, 1e3, 400)),
        ),
        ids=("multi-block", "phi-plus-inf", "phi-minus-inf", "zero-charge", "exponent-layouts"),
    )
    def test_csv_bytes_match_repr_table(self, capsys, units, grid):
        argv = ("exact", "--format", "csv", *units, "--grid", "%r:%r:%d" % grid)
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        q, G, c = (float(v) for v in units[1::2])
        fields = exact_fields(np.geomspace(*grid), ChargeModel(q=q, G=G, c=c))
        config = {
            "subcommand": "exact", "q": q, "G": G, "c": c, "rmin": 1e-3, "grid": list(grid),
            "grid_scale": "log", "tol": 1e-10, "format": "csv",
        }
        columns = [fields[k] for k in ("r", "phi", "E_r", "rho")]
        assert_same_text(out, per_value_table(config, "r,phi,E_r,rho", columns))

    def test_csv_tables_reach_every_layout(self, capsys):
        # the tables above hold each value class the writer overwrites
        # (+-inf) or whose layout orjson and repr differ on (exponents of one
        # negative digit, the band [1e-5, 1e-4) and exponents of +16 and up),
        # and zeros and subnormals
        values = []
        for argv in (("--grid", "1e-4:1e-2:300"), ("--q", "-1", "--grid", "1e-4:1e-2:300"),
                     ("--grid", "1e-2:1e3:400")):
            out = run(capsys, "exact", "--format", "csv", *argv)[1]
            values += [float(v) for line in out.splitlines()[2:] for v in line.split(",")]
        mag = np.abs(values)
        assert np.isposinf(values).any() and np.isneginf(values).any()
        assert (mag == 0.0).any() and ((0.0 < mag) & (mag < np.finfo(float).tiny)).any()
        assert ((1e-9 <= mag) & (mag < 1e-5)).any()
        assert ((1e-5 <= mag) & (mag < 1e-4)).any()
        assert ((1e16 <= mag) & (mag < np.inf)).any()

    @pytest.mark.parametrize("fmt", ("json", "csv"))
    @pytest.mark.parametrize(
        "units, reason",
        (
            (("--c", "1e200"), "naqlab: G = 1.0, c = 1e+200: c^2 or c^2/sqrt(G) is out of float64 range\n"),
            (("--c", "1e-200"), "naqlab: G = 1.0, c = 1e-200: c^2 or c^2/sqrt(G) is out of float64 range\n"),
            (
                ("--q", "1e-300", "--c", "1e100"),
                "naqlab: q = 1e-300: alpha = q sqrt(G)/c^2 = 0.0 is out of float64 range\n",
            ),
        ),
        ids=("c-overflow", "c-underflow", "alpha-underflow"),
    )
    def test_extreme_units_are_usage_errors(self, capsys, fmt, units, reason):
        code, out, err = run(capsys, "exact", "--format", fmt, *units)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == reason

    @pytest.mark.parametrize(
        "argv, field_energy",
        (
            (("--q", "1e-160"), 5e-161),  # q^2 subnormal
            (("--q", "1e-170"), 5e-171),  # q^2 underflows
            (("--q", "1e200", "--rmin", "1e200"), 5e199),  # q^2 overflows
        ),
    )
    def test_extreme_charge_field_energy(self, capsys, argv, field_energy):
        code, out, _ = run(capsys, "exact", *argv)
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["closed_form_field_energy"] == field_energy
        assert payload["field_energy"] == pytest.approx(field_energy, rel=1e-14, abs=0.0)

    def test_energies_with_alpha_near_float64_top(self, capsys):
        # alpha = 1e308: the prefactor q^2 / (2 alpha) must not form 2 alpha
        code, out, _ = run(capsys, "exact", "--q", "1e154", "--G", "1e300", "--c", "1e-2", "--rmin", "1e300")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["closed_form_field_energy"] == 0.5000000000000001
        assert payload["closed_form_self_energy"] == 49999999.5
        for name in ("field_energy", "self_energy"):
            assert payload[name] == pytest.approx(payload["closed_form_" + name], rel=1e-14, abs=0.0)

    @pytest.mark.parametrize(
        "argv, reason",
        (
            (("--q", "1e200"), "naqlab: q = 1e+200, r_min = 0.001: self_energy is out of float64 range\n"),
            (("--rmin", "1e-320"), "naqlab: q = 1.0, r_min = 1e-320: self_energy is out of float64 range\n"),
        ),
    )
    def test_energy_overflow_is_usage_error(self, capsys, argv, reason):
        code, out, err = run(capsys, "exact", *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == reason

    def test_zero_charge_in_extreme_units_gives_zeros(self, capsys):
        code, out, _ = run(capsys, "exact", "--q", "0", "--c", "1e100")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert [payload[k] for k in ("field_energy", "self_energy")] == [0.0, 0.0]
        code, out, _ = run(capsys, "exact", "--q", "0", "--c", "1e100", "--format", "csv")
        assert code == EXIT_OK
        rows = [line.split(",")[1:] for line in out.splitlines()[2:]]
        assert len(rows) == 200
        assert all(row == ["0.0", "0.0", "0.0"] for row in rows)


class TestCsvWriter:
    """The CSV writer (``cli._csv_blocks``, joined) against the same values
    written one at a time (``per_value``), byte for byte, on float64 values
    of every class."""

    @staticmethod
    def random_bits():
        rng = np.random.default_rng(20240901)
        bits = rng.integers(0, 2**64, size=(5, MULTI_BLOCK_ROWS), dtype=np.uint64)
        table = bits.view(np.float64)
        table[:, :6] = (np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310)
        return table

    @staticmethod
    def layout_boundaries():
        # 200 float64 neighbours on each side of each point where the layout of
        # repr or of orjson changes, with both signs
        offsets = np.arange(-200, 201)
        edges = [(np.float64(x).view(np.int64) + offsets).view(np.float64)
                 for x in (1e-100, 1e-10, 1e-9, 1e-6, 1e-5, 1e-4, 1e16, 1e100)]
        return np.concatenate(edges + [-e for e in edges])

    def test_random_bits(self):
        table = self.random_bits()
        assert np.isnan(table).sum() > 6
        columns = tuple(table)
        assert_same_text(csv_text({"seed": 1}, "a,b,c,d,e", columns), per_value_table({"seed": 1}, "a,b,c,d,e", columns))

    def test_layout_boundaries(self):
        values = self.layout_boundaries()
        columns = (values, values[::-1], np.roll(values, 7))
        assert_same_text(csv_text({}, "x,y,z", columns), per_value_table({}, "x,y,z", columns))

    def test_every_value_parses_back_bit_for_bit(self):
        # float() of each field is the float64 written, sign of zero included:
        # subnormals, zeros, the last integers before and at 1e16, both edges
        # of [1e-5, 1e-4), exponents e-5 to e-9 and e+-308, nan and +-inf,
        # and the neighbours of each point where a layout changes
        classes = [0.0, -0.0, 5e-324, -5e-324, -2.5e-310, 2.2250738585072014e-308,
                   9999999999999998.0, -9999999999999998.0, 1e16, -1e16,
                   1e-5, np.nextafter(1e-5, 0.0), -1e-5, 1e-4, np.nextafter(1e-4, 0.0), -1e-4,
                   1.5e-5, -9.5e-5, 2.5e-6, -1e-7, 3e-8, 1e-9, np.nextafter(1e-9, 0.0),
                   1e308, -1.7976931348623157e308, 1e-308, -1e-308, np.nan, np.inf, -np.inf]
        values = np.concatenate((classes, self.layout_boundaries()))
        table = np.column_stack((values, values[::-1]))
        text = csv_text({}, "a,b", tuple(table.T))
        parsed = np.array([[float(f) for f in line.split(",")] for line in text.splitlines()[2:]])
        assert np.array_equal(parsed.view(np.uint64), table.view(np.uint64))

    # one value of each layout class: zeros, subnormals, one- and two-digit
    # negative exponents, the band [1e-5, 1e-4), plain decimals, +-inf, nan
    # and exponents of +16 and up
    SPECIALS = (0.0, -0.0, 5e-324, -2.5e-310, 1e-10, 3e-9, -1e-7, 2.5e-6, 1e-5,
                -9.5e-5, 1e-4, 0.5, -12.25, 1e15, np.inf, -np.inf, np.nan,
                1e16, -9999999999999998.0, 1.5e22, 1e308)

    @pytest.mark.parametrize("ncol", (1, 2, 4, 6))
    def test_column_counts(self, ncol):
        values = np.resize(np.array(self.SPECIALS), (ncol, 3 * len(self.SPECIALS) + 1))
        columns = tuple(np.roll(values[k], k) for k in range(ncol))
        header = ",".join("c%d" % k for k in range(ncol))
        assert_same_text(csv_text({"n": ncol}, header, columns), per_value_table({"n": ncol}, header, columns))

    @pytest.mark.parametrize("last", (1e-7, -3e-9, 2e-6, 1e16, 1.5e-5, np.inf, np.nan, 0.0))
    def test_last_value_of_the_table(self, last):
        # the last value of a block has no comma after it, only the end of the list
        for rows in (1, 5, cli._CSV_BLOCK, cli._CSV_BLOCK + 1):
            columns = (np.linspace(1.0, 2.0, rows), np.full(rows, last))
            assert_same_text(csv_text({}, "a,b", columns), per_value_table({}, "a,b", columns))
            assert_same_text(csv_text({}, "b", columns[1:]), per_value_table({}, "b", columns[1:]))

    @pytest.mark.parametrize("rows", (cli._CSV_BLOCK - 1, cli._CSV_BLOCK, cli._CSV_BLOCK + 1))
    def test_rows_around_one_block(self, rows):
        values = np.resize(np.array(self.SPECIALS), 3 * rows).reshape(3, rows)
        columns = (values[0], values[1][::-1], values[2] * 1e-3)
        text = csv_text({}, "x,y,z", columns)
        assert_same_text(text, per_value_table({}, "x,y,z", columns))
        assert text.count("\n") == rows + 2

    @pytest.mark.parametrize(
        "values",
        ([0.5], [1e16], [1e16, 1e-7], [0.5, 1.5e-5, 1e-5], [0.5, np.inf, -np.inf, np.nan],
         [0.5, 1e16, -1e100], [0.5, 1e-7, -3e-9], [0.5, -12.25, 1e-4]),
        ids=("none", "one", "two", "only-band", "only-nan-inf", "only-e+", "only-e-0", "no-edit"),
    )
    def test_blocks_with_few_insertions(self, values):
        # A block runs nan_to_num and the nan/inf overwrite only with a nan
        # or inf.  Each block here holds one class of value whose layout
        # orjson and repr differ on, or nan and inf, or none; as one column
        # each value ends its row, as two columns half of them end before a
        # comma.
        column = np.array(values)
        for columns in ((column,), (column, column[::-1])):
            header = ",".join("ab"[:len(columns)])
            assert_same_text(csv_text({}, header, columns), per_value_table({}, header, columns))

    def test_no_rows(self):
        columns = (np.zeros(0), np.zeros(0))
        assert csv_text({"grid": []}, "a,b", columns) == '# config: {"grid": []}\na,b\n'

    def test_redirected_stdout_gets_the_captured_text(self, capsys):
        # perfbench captures a job's output with redirect_stdout into a
        # StringIO, which has no binary buffer
        argv = ["exact", "--format", "csv", "--grid", "1e-4:1e2:300"]
        code, expected, _ = run(capsys, *argv)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == code == EXIT_OK
        assert out.getvalue() == expected
        assert capsys.readouterr().out == ""


class TestCsvStreaming:
    """A CSV table goes to its output block by block, as each is made."""

    def test_peak_memory_is_the_columns_and_one_block(self, monkeypatch, tmp_path):
        # Counted from the return of exact_fields: the column arrays and the
        # working set of one block.  Measured on 5e4 rows (4.07 MB of text):
        # 2.7 MB, against 9.8 MB when the blocks were joined and then written.
        fields = charge.exact_fields

        def then_reset_peak(*args):
            out = fields(*args)
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(charge, "exact_fields", then_reset_peak)
        path = tmp_path / "table.csv"

        def write_peak(rows):
            argv = ["exact", "--format", "csv", "--grid", "1e-3:1e3:%d" % rows, "--output", str(path)]
            assert main(argv) == EXIT_OK  # numpy and orjson load outside the trace
            tracemalloc.start()
            try:
                assert main(argv) == EXIT_OK
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one_block = write_peak(cli._CSV_BLOCK)
        rows = 50_000
        peak = write_peak(rows)
        text = path.stat().st_size
        assert peak < 4 * 8 * rows + one_block + text // 4 < 2 * text

    def test_failure_mid_table_leaves_no_file(self, monkeypatch, tmp_path):
        rows = cli._csv_rows
        made = []

        def second_block_fails(block):
            if made:
                raise MemoryError
            made.append(block.shape)
            return rows(block)

        monkeypatch.setattr(cli, "_csv_rows", second_block_fails)
        path = tmp_path / "table.csv"
        with pytest.raises(MemoryError):
            main(["exact", "--format", "csv", "--grid", "1e-3:1e3:%d" % MULTI_BLOCK_ROWS, "--output", str(path)])
        assert made == [(cli._CSV_BLOCK, 4)]
        assert not path.exists()

    @pytest.mark.parametrize("kind", ("fifo", "link-to-dev-null"))
    def test_failure_mid_table_keeps_a_path_that_is_no_regular_file(self, monkeypatch, tmp_path, kind):
        # The first block fails after the header went out; only a regular
        # file is removed, never the pipe or link --output named.
        def first_block_fails(block):
            raise MemoryError

        monkeypatch.setattr(cli, "_csv_rows", first_block_fails)
        path = tmp_path / kind
        if kind == "fifo":
            os.mkfifo(path)
            reader = os.open(path, os.O_RDONLY | os.O_NONBLOCK)  # lets the writer open without blocking
        else:
            path.symlink_to(os.devnull)
            reader = None
        try:
            with pytest.raises(MemoryError):
                main(["exact", "--format", "csv", "--grid", "1e-3:1e3:10", "--output", str(path)])
            if reader is not None:
                assert os.read(reader, 1 << 16).startswith(b"# config: ")
        finally:
            if reader is not None:
                os.close(reader)
        mode = os.lstat(path).st_mode
        assert stat.S_ISFIFO(mode) if kind == "fifo" else stat.S_ISLNK(mode)
        assert os.path.exists(os.devnull)

    @pytest.mark.parametrize(
        "argv, code",
        (
            (("exact", "--format", "csv", "--grid=-1:1:5", "--grid-scale", "linear"), EXIT_USAGE),
            (("exact", "--format", "csv", "--grid=-1:1:5"), EXIT_USAGE),
            (("profile", "--eta0", "5.0", "--grid", "60:80:100"), EXIT_NUMERICAL),
        ),
        ids=("nonpositive-radius", "log-grid-from-negative", "grid-too-short"),
    )
    def test_refusal_writes_nothing(self, capsys, tmp_path, argv, code):
        path = tmp_path / "table.csv"
        assert run(capsys, *argv, "--output", str(path))[:2] == (code, "")
        assert not path.exists()


class TestColdStart:
    """Which commands import numpy and orjson, and which naqlab modules they
    run, in a fresh interpreter; none imports dataclasses, and only those
    that import numpy (which imports it) may import inspect.  ``cli`` runs a
    module on its first attribute access, and a module counts as run when
    ``cli`` holds the one in ``sys.modules`` and it is a plain module, which
    the lazy one becomes when it runs; asking its type runs nothing."""

    SCRIPT = (
        "import sys, types\n"
        "from naqlab import cli\n"
        "cli.build_parser()\n"
        "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "loaded = [m for m in ('numpy', 'orjson', 'dataclasses', 'inspect') if m in sys.modules]\n"
        "ran = [m for m in ('algebra', 'charge', 'geometry', 'numerics', 'shooting')\n"
        "       if (mod := getattr(cli, m, None)) is sys.modules.get('naqlab.' + m) and type(mod) is types.ModuleType]\n"
        "sys.stderr.write(' '.join(loaded) + '; ran ' + ' '.join(ran))\n"
        "sys.exit(code)\n"
    )

    CASES = (
        ((), "", ""),
        (("assoc", "--power", "8"), "", "algebra"),
        (("exact",), "", "charge numerics"),
        (("shoot", "--lambda", "1", "--m", "0.1"), "", "numerics shooting"),
        (("shoot", "--lambda", "1", "--m", "0.15", "--tol", "1e-12"), "", "numerics shooting"),
        (("profile", "--eta0", "0.9083"), "numpy orjson", "numerics shooting"),
        (("exact", "--format", "csv", "--grid", "0.1:10:30", "--grid-scale", "linear",
          "--q", "2", "--G", "0.5", "--c", "1.5"), "numpy orjson", "charge numerics"),
        (("torsion-check", "--trials", "50"), "numpy", "geometry"),
    )

    def spawn(self, script, *argv):
        """(exit code, stdout, stderr before the report, imported modules
        but inspect, naqlab modules run) of ``script`` in a fresh interpreter."""
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        cut = proc.stderr.rfind("\n") + 1
        names, ran = proc.stderr[cut:].split("; ran ")
        names = names.split(" ")
        assert "inspect" not in names or "numpy" in names
        return proc.returncode, proc.stdout, proc.stderr[:cut], " ".join(m for m in names if m != "inspect"), ran

    @pytest.mark.parametrize("argv, loaded, ran", CASES, ids=[" ".join(argv) or "build_parser" for argv, _, _ in CASES])
    def test_loaded_modules_and_bytes(self, capsys, argv, loaded, ran):
        code, out, err, *modules = self.spawn(self.SCRIPT, *argv)
        assert (code, err, modules) == (EXIT_OK, "", [loaded, ran])
        if argv:
            assert out == run(capsys, *argv)[1]
        digest = dict(TestOutputPins.CASES).get(argv)
        if digest is not None:
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("argv, loaded, ran", (
        (("assoc", "--power", "2"), "", "algebra"),
        (("exact",), "", "charge numerics"),
        (("torsion-check", "--trials", "5"), "numpy", "geometry"),
    ), ids=("assoc", "exact", "torsion-check"))
    def test_usage_error_runs_only_the_subcommand_module(self, argv, loaded, ran):
        # main names the exception classes of numerics and shooting only
        # once each has run; none of these runs shooting, and only exact
        # (whose charge imports numerics) runs numerics
        assert self.spawn(self.SCRIPT, *argv, "--output", "/nonexistent/x") == (
            EXIT_USAGE, "", "naqlab: cannot write /nonexistent/x: %s\n" % os.strerror(errno.ENOENT), loaded, ran)

    def test_module_imported_first_is_the_one_cli_runs(self):
        # a second copy of shooting would raise exception classes that main
        # does not catch
        script = "import naqlab.shooting\n" + self.SCRIPT
        assert self.spawn(script)[3:] == ("", "numerics shooting")
        assert self.spawn(script, "shoot", "--m", "0.19") == (
            EXIT_NUMERICAL, "", "no regular solution: m = 0.19 is at or above the fold m_c = 0.185981376879\n",
            "", "numerics shooting")


class TestShoot:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, "shoot")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["eta0_star"] == pytest.approx(0.9083, abs=5e-4)
        assert payload["config"]["m"] == 0.1

    def test_bad_bracket_is_numerical_error(self, capsys):
        # above the fold both ends of the derived bracket undershoot
        code, out, err = run(capsys, "shoot", "--m", "0.19")
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err == "no regular solution: m = 0.19 is at or above the fold m_c = 0.185981376879\n"

    def test_wrong_bracket_bound_is_numerical_error(self, capsys, monkeypatch):
        # a low end that overshoots, as the high end does, is a bug in the
        # bracket: one line of its own, never the no-solution line.  The
        # prediction 1.2 lies between the two ends, so both ends of the
        # predicted bracket overshoot and the solve falls back to the low end
        monkeypatch.setattr(shooting, "TWO_Q0", 11.0)
        monkeypatch.setattr(shooting, "_predicted_root", lambda m: 1.2)
        code, out, err = run(capsys, "shoot")
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == "wrong bracket bound at m = 0.1: both ends of [%r, %r] classify as 'overshoot'\n" % (
            0.999 * 11.0 * 0.1, shooting.ETA_FOLD / shooting.M_FOLD * 0.1)

    def test_short_horizon_is_numerical_error(self, capsys):
        # m = 1e7 gives the horizon 8e-7, where a probe's step once
        # underflowed; its bracket is empty, so no probe is integrated
        code, out, err = run(capsys, "shoot", "--m", "1e7")
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == "no regular solution: m = 1e+07 is at or above the fold m_c = 0.185981376879\n"

    def test_unclassified_trajectory_is_numerical_error(self, capsys, monkeypatch):
        # a start 1e-3 above the false vacuum still climbs toward the true
        # one at the horizon 80, too far from zero for its growing mode to
        # decide; no start in the derived bracket does, so a solve is made to
        # probe it
        def probing_a_slow_climb(p, tol):
            return shooting._probe(1e-3, p, 1e-6)

        monkeypatch.setattr(shooting, "find_regular_eta0", probing_a_slow_climb)
        code, out, err = run(capsys, "shoot")
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err == "eta0 = 0.001 reached r = 80 unclassified\n"


class TestProfile:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run(
            capsys, "profile", "--eta0", "0.9083", "--grid", "1e-2:40:50"
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[1] == "r,eta,deta_dr,phi_scaled,E_scaled,rho_scaled"
        assert len(lines) == 52

    def test_help_states_the_default_horizon(self, capsys):
        # the default grid ends on shoot's horizon 8/(m sqrt(lambda)), which
        # is 80 only at the default couplings, so no number is stated
        code, out, _ = run(capsys, "profile", "--help")
        assert code == EXIT_OK
        assert "(default 0.001:8/(m sqrt(lambda)):2000, ending on the horizon of shoot)" in " ".join(out.split())

    @pytest.mark.parametrize(
        "lambda_tilde, m, eta0, rows",
        ((1.0, 0.1, 0.9083, 1958), (1.0, 0.01, 0.086783, 2000), (100.0, 0.1, 0.9083, 1948)),
        ids=("default", "m0.01", "lambda100"),
    )
    def test_default_grid_ends_on_the_horizon(self, capsys, lambda_tilde, m, eta0, rows):
        # without --grid the table is, byte for byte, that of --grid
        # 1e-3:H:2000 with H = 8/(m sqrt(lambda)), the float shoot uses; the
        # trajectory at lambda 100 undershoots at r = 6.343, short of H = 8
        argv = ("profile", "--lambda", repr(lambda_tilde), "--m", repr(m), "--eta0", repr(eta0))
        horizon = 8.0 / (m * math.sqrt(lambda_tilde))
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert run(capsys, *argv, "--grid", "1e-3:%r:2000" % horizon) == (EXIT_OK, out, "")
        assert json.loads(out.split("\n")[0][len("# config: "):])["grid"] == [1e-3, horizon, 2000]
        assert len(out.splitlines()) - 2 == rows

    @staticmethod
    def per_value_profile(points):
        # the table written one value at a time, rebuilt here
        params = shooting.CouplingParams(lambda_tilde=1.0, m=0.1)
        traj = shooting.integrate_profile(0.9083, params, r_max=40.0)
        rs = np.geomspace(1e-2, 40.0, points)
        rs = rs[(rs >= traj.r[0]) & (rs <= traj.r[-1])]
        eta, deta = cli._resample(traj, rs)
        config = {
            "subcommand": "profile", "eta0": 0.9083, "lambda_tilde": 1.0,
            "m": 0.1, "grid": [1e-2, 40.0, points], "grid_scale": "log",
        }
        columns = (rs, eta, deta) + shooting.derive_fields(eta, deta, params)
        return per_value_table(config, "r,eta,deta_dr,phi_scaled,E_scaled,rho_scaled", columns)

    def test_csv_bytes_match_per_element_rows(self, capsys):
        for points in (50, MULTI_BLOCK_ROWS):
            code, out, _ = run(capsys, "profile", "--eta0", "0.9083", "--grid", "1e-2:40:%d" % points)
            assert code == EXIT_OK
            assert_same_text(out, self.per_value_profile(points))

    def test_grid_ending_on_a_short_span_keeps_its_last_row(self, capsys):
        # the capped last step of this trajectory once rounded to one ulp
        # short of r_max and ended by step underflow there
        code, out, _ = run(capsys, "profile", "--eta0", "0", "--grid", "1e-3:3.61:50")
        assert code == EXIT_OK
        rows = out.strip().split("\n")[2:]
        assert len(rows) == 50
        assert rows[-1].startswith("3.61,")

    def test_grid_ending_on_a_rescaled_horizon_keeps_its_last_row(self, capsys):
        # eta0 = 0 is the static false vacuum, integrated to x = sqrt(0.665) 80,
        # which converts back to 79.99999999999999 unless the run ends on 80
        code, out, _ = run(capsys, "profile", "--eta0", "0", "--lambda", "0.665", "--grid", "1e-3:80:50")
        assert code == EXIT_OK
        rows = out.strip().split("\n")[2:]
        assert len(rows) == 50
        assert rows[-1].startswith("80.0,")

    def test_few_rows_inside_the_trajectory_are_written(self, capsys):
        code, out, _ = run(capsys, "profile", "--eta0", "0.9083", "--grid", "1e-2:40:4")
        assert code == EXIT_OK
        assert len(out.strip().split("\n")[2:]) == 4

    @pytest.mark.parametrize("lambda_tilde, m, eta0", ((1.0, 0.1, 0.9083), (1.0, 0.15, 1.4810965307), (4.0, 0.1, 0.9083)))
    def test_matches_dop853_dense_output(self, capsys, eta_form_dop853, lambda_tilde, m, eta0):
        # the default 2000-point grid against scipy's DOP853 interpolant of
        # the eta form from a series start: the conversion from w and the
        # Hermite resampling between the samples of the rtol-1e-11
        # trajectory are what the bounds measure
        code, out, _ = run(capsys, "profile", "--lambda", repr(lambda_tilde), "--m", repr(m), "--eta0", repr(eta0))
        assert code == EXIT_OK
        rows = np.array([line.split(",")[:3] for line in out.splitlines()[2:]], dtype=float)
        params = shooting.CouplingParams(lambda_tilde=lambda_tilde, m=m)
        eta, deta = eta_form_dop853(eta0, params, rows[-1, 0], atol=1e-16)(rows[:, 0])
        assert np.abs(rows[:, 1] - eta).max() <= 1e-5
        assert np.abs(rows[:, 2] - deta).max() <= 2e-5

    def test_rows_near_the_origin_follow_the_series(self, capsys):
        # eta' = (w_x - eta) / x cancels near the origin, and printed -1.44e-6
        # at r = 1e-9; these radii lie inside the series eta0 + a r^2 + b r^4,
        # a = -S(eta0) / 6 and b = -S'(eta0) a / 20, at lambda_tilde = 1
        code, out, _ = run(capsys, "profile", "--eta0", "0.9", "--grid=1e-9:1e-7:5")
        assert code == EXIT_OK
        r, eta, deta = np.array([line.split(",")[:3] for line in out.splitlines()[2:]], dtype=float).T
        m2, half = 0.01, math.sinh(0.45) ** 2
        a = -math.sinh(0.9) * (half - m2) / 6.0
        b = -(math.cosh(0.9) * (half - m2) + 0.5 * math.sinh(0.9) ** 2) * a / 20.0
        assert deta[0] == pytest.approx(-7.067334730425e-11, rel=1e-12)
        assert np.abs(deta - (2.0 * a * r + 4.0 * b * r ** 3)).max() <= 1e-15 * np.abs(deta).max()
        assert np.abs(eta - (0.9 + a * r * r)).max() <= 2e-16

    def test_short_trajectory_is_numerical_error(self, capsys):
        # a strongly overshooting start terminates long before the grid
        code, _, err = run(
            capsys, "profile", "--eta0", "5.0", "--grid", "60:80:100"
        )
        assert code == EXIT_NUMERICAL
        assert "grid too short" in err

    @pytest.mark.parametrize("eta0", ("50", "1000", "-1000"))
    def test_start_the_integrator_gives_up_on_is_numerical_error(self, capsys, eta0):
        # the first step from these starts underflows at r = 0, so no grid
        # radius lies inside the trajectory; at |eta0| = 1000 sinh overflows
        # and the series start takes its infinite slope
        code, out, err = run(capsys, "profile", "--eta0=" + eta0, "--grid", "1e-3:80:5")
        assert (code, out) == (EXIT_NUMERICAL, "")
        assert err == "profile: trajectory terminated at r = 0 (step underflow); grid too short\n"


class TestConfigBlock:
    # every option of each subcommand set away from its default
    CASES = (
        (
            ("shoot", "--lambda", "2.5", "--m", "0.12", "--tol", "1e-4"),
            {"lambda_tilde": 2.5, "m": 0.12, "tol": 1e-4},
        ),
        (
            ("profile", "--eta0", "0.95", "--lambda", "2", "--m", "0.12",
             "--grid", "0.01:30:40", "--grid-scale", "linear"),
            {"eta0": 0.95, "lambda_tilde": 2.0, "m": 0.12, "grid": [0.01, 30.0, 40],
             "grid_scale": "linear"},
        ),
        (
            ("exact", "--q", "2", "--G", "0.5", "--c", "1.5", "--rmin", "0.01",
             "--grid", "0.1:10:7", "--grid-scale", "linear", "--tol", "1e-9",
             "--format", "csv"),
            {"q": 2.0, "G": 0.5, "c": 1.5, "rmin": 0.01, "grid": [0.1, 10.0, 7],
             "grid_scale": "linear", "tol": 1e-9, "format": "csv"},
        ),
        (
            ("torsion-check", "--seed", "7", "--trials", "20"),
            {"seed": 7, "trials": 20},
        ),
    )
    REQUIRED = {"profile": ("--eta0", "0")}

    @pytest.mark.parametrize("argv, expected", CASES, ids=[argv[0] for argv, _ in CASES])
    def test_config_holds_exactly_the_options(self, capsys, tmp_path, argv, expected):
        parser = build_parser()
        defaults = vars(parser.parse_args(argv[:1] + self.REQUIRED.get(argv[0], ())))
        assert set(defaults) == set(expected) | {"subcommand", "output"}
        assert all(json.dumps(defaults[k]) != json.dumps(expected[k]) for k in expected)
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        if out.startswith("# config: "):
            config = json.loads(out.split("\n")[0][len("# config: "):])
        else:
            config = json.loads(out)["config"]
        assert config == dict(expected, subcommand=argv[0])
        path = tmp_path / "out"
        code, written, _ = run(capsys, *argv, "--output", str(path))
        assert (code, written) == (EXIT_OK, "")
        assert path.read_text() == out


class TestDeterminism:
    CASES = (
        ("assoc", "--power", "6", "--vacuum"),
        ("torsion-check", "--trials", "25"),
        ("exact", "--format", "csv", "--grid", "0.1:10:30"),
        ("exact", "--rmin", "1e-2"),
        ("shoot", "--tol", "1e-4"),
        ("profile", "--eta0", "0.9", "--grid", "1e-2:30:40"),
    )

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0])
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == EXIT_OK
        assert out1 == out2
        assert out1 != ""

    def test_shared_parser_gives_identical_rounds(self, capsys):
        # build_parser() is built once per process; a round of runs and
        # usage errors on a fresh tree and the same round on the reused one
        # print the same bytes and return the same codes
        argvs = (
            ("assoc", "--power", "3"),
            (),
            ("assoc", "--power", "x"),
            ("exact", "--format", "csv", "--grid", "0.1:10:5"),
            ("exact", "--q", "nan"),
            ("shoot", "--m", "0.19"),
            ("profile", "--eta0", "0.9", "--grid", "1e-2:5:5"),
            ("profile", "--m", "0.1"),
            ("torsion-check", "--trials", "3"),
            ("shoot", "--help"),
            ("frobnicate",),
        )
        build_parser.cache_clear()
        rounds = [[run(capsys, *argv) for argv in argvs] for _ in range(2)]
        assert build_parser.cache_info().misses == 1
        assert rounds[0] == rounds[1]
        assert {code for code, _, _ in rounds[0]} == {EXIT_OK, EXIT_USAGE, EXIT_NUMERICAL}
        shoot_help = " ".join(rounds[0][argvs.index(("shoot", "--help"))][1].split())
        assert "--tol TOL" in shoot_help and "--bracket" not in shoot_help


class TestOutputPins:
    """sha256 of the stdout of fixed runs: a change to the integrator, the
    shooting loop, the closed-form fields or the energy quadrature that moves
    one output bit fails here."""

    CASES = (
        (("shoot", "--lambda", "1", "--m", "0.1"),
         "1adf855df5a2d96834517694bd014c401e59f6a381bcac79caaa60c5b5069a5f"),
        (("shoot", "--lambda", "1", "--m", "0.15", "--tol", "1e-12"),
         "0cb82879da198b968033fa8597e740138bcd1f7a92ac1ba5a892de079abe8514"),
        (("shoot", "--lambda", "2.5", "--m", "0.07", "--tol", "1e-05"),
         "cfe2aa249b35ee75024df3022c36fcfd74b2145d9da68adbfe38b036ab5a9d34"),
        (("shoot", "--lambda", "0.6", "--m", "0.13", "--tol", "1e-05"),
         "91749bb48938c8c5a2c0aedbbb84af615411b2987bf5c0cf633723329e3053e1"),
        (("shoot", "--lambda", "3.2", "--m", "0.12", "--tol", "1e-12"),
         "45df28881f040565037caa75269f6a65e29187231835400806b419910fb9aa1a"),
        (("shoot", "--lambda", "1", "--m", "0.06", "--tol", "1e-12"),
         "920da8616c317592cd4f8d2dc242f2fc3e5fdf00deb7e9ff27bbc7acab7d645f"),
        (("profile", "--eta0", "0.9083"),
         "d3a9c59b32df28835cf7e6973b4854a3e9f35f9466c3b96e656aa3cb8c568ddd"),
        (("exact",),
         "598bbf156cb2e7c069be4913461cbdf587cdfbeb1f9b330e44ac7ddc75d4d101"),
        (("exact", "--q", "2", "--G", "0.5", "--c", "1.5", "--rmin", "0.01"),
         "6fbfa9f2d254d2d988ddd3df6ec40fff9e4b2bbebd3d1a21756f0c01364ea088"),
        # the Taylor branch of the closed-form self energy (alpha/r_min < 0.5)
        # and a quadrature whose heap sum rounds differently when compensated
        (("exact", "--q", "0.5", "--rmin", "10", "--tol", "1e-8"),
         "ff58b94bd7ac16c15b91806f3901b1c6cbd325f4f69d9aaf542066a7312c3028"),
        (("exact", "--format", "csv", "--grid", "0.1:10:30", "--grid-scale", "linear",
          "--q", "2", "--G", "0.5", "--c", "1.5"),
         "2f93bdaaf1c0a146864c0df28639dea8e29ea7c87ca972045d8e4a0c70035bdd"),
    )

    @pytest.mark.parametrize("argv, digest", CASES, ids=[" ".join(argv) for argv, _ in CASES])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest
