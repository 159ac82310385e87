import contextlib
import errno
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from naqlab import algebra, cli, shooting
from naqlab.charge import ChargeModel, exact_fields
from naqlab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, build_parser, main

# a table that spans two full CSV blocks and part of a third
MULTI_BLOCK_ROWS = 2 * cli._CSV_BLOCK + 3


def repr_table(config, header, columns):
    """The CSV text of the former writer: one ``repr`` per value, row by row."""
    rows = ["# config: " + json.dumps(config, sort_keys=True), header]
    for row in zip(*(np.asarray(col).tolist() for col in columns)):
        rows.append(",".join(repr(float(v)) for v in row))
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

    def test_malformed_bracket(self, capsys):
        code, _, _ = run(capsys, "shoot", "--bracket", "2.0:0.2")
        assert code == EXIT_USAGE

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
            ("shoot", "--bracket", "0.2:nan"),
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

    @pytest.mark.parametrize(
        "argv, r_end",
        (
            (("shoot", "--rmax", "1e-8"), "1e-08"),
            (("profile", "--eta0", "0.9", "--grid=1e-9:1e-7:5"), "1e-07"),
        ),
        ids=("shoot", "profile"),
    )
    def test_end_below_start_radius_names_both(self, capsys, argv, r_end):
        code, out, err = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert err == "naqlab: r_end must exceed the initial radius 1e-06, got %s\n" % r_end

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
        assert_same_text(out, repr_table(config, "r,phi,E_r,rho", columns))

    def test_csv_tables_reach_every_layout(self, capsys):
        # the tables above hold each value class whose layout the writer
        # rewrites or splices: +-inf, zeros, subnormals, exponents of one
        # negative digit, the band [1e-5, 1e-4) and exponents of +16 and up
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
    """The CSV writer (``cli._csv_blocks``, joined) against the repr writer,
    byte for byte, on float64 values of every class; a change in orjson's
    number layout fails here."""

    def test_random_bits(self):
        rng = np.random.default_rng(20240901)
        bits = rng.integers(0, 2**64, size=(5, MULTI_BLOCK_ROWS), dtype=np.uint64)
        table = bits.view(np.float64)
        table[:, :6] = (np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310)
        assert np.isnan(table).sum() > 6
        columns = tuple(table)
        assert_same_text(csv_text({"seed": 1}, "a,b,c,d,e", columns), repr_table({"seed": 1}, "a,b,c,d,e", columns))

    def test_layout_boundaries(self):
        # 200 float64 neighbours on each side of each point where the layout of
        # repr or of orjson changes, with both signs
        offsets = np.arange(-200, 201)
        edges = [(np.float64(x).view(np.int64) + offsets).view(np.float64)
                 for x in (1e-100, 1e-10, 1e-9, 1e-6, 1e-5, 1e-4, 1e16, 1e100)]
        values = np.concatenate(edges + [-e for e in edges])
        columns = (values, values[::-1], np.roll(values, 7))
        assert_same_text(csv_text({}, "x,y,z", columns), repr_table({}, "x,y,z", columns))

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
        assert_same_text(csv_text({"n": ncol}, header, columns), repr_table({"n": ncol}, header, columns))

    @pytest.mark.parametrize("last", (1e-7, -3e-9, 2e-6, 1e16, 1.5e-5, np.inf, np.nan, 0.0))
    def test_last_value_of_the_table(self, last):
        # the last value of a block has no comma after it, only the end of the list
        for rows in (1, 5, cli._CSV_BLOCK, cli._CSV_BLOCK + 1):
            columns = (np.linspace(1.0, 2.0, rows), np.full(rows, last))
            assert_same_text(csv_text({}, "a,b", columns), repr_table({}, "a,b", columns))
            assert_same_text(csv_text({}, "b", columns[1:]), repr_table({}, "b", columns[1:]))

    @pytest.mark.parametrize("rows", (cli._CSV_BLOCK - 1, cli._CSV_BLOCK, cli._CSV_BLOCK + 1))
    def test_rows_around_one_block(self, rows):
        values = np.resize(np.array(self.SPECIALS), 3 * rows).reshape(3, rows)
        columns = (values[0], values[1][::-1], values[2] * 1e-3)
        text = csv_text({}, "x,y,z", columns)
        assert_same_text(text, repr_table({}, "x,y,z", columns))
        assert text.count("\n") == rows + 2

    @pytest.mark.parametrize("values", ([0.5], [1e16], [1e16, 1e-7]), ids=("none", "one", "two"))
    def test_blocks_with_few_insertions(self, values):
        # 0.5 needs no inserted byte, 1e16 a "+" and 1e-7 a "0": numpy's
        # insert takes a separate path when exactly one index is given
        columns = (np.array(values),)
        assert_same_text(csv_text({}, "a", columns), repr_table({}, "a", columns))

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
        # working set of one block.  Measured on 5e4 rows (4.09 MB of text):
        # 4.5 MB, against 9.8 MB when the blocks were joined and then written.
        fields = cli.exact_fields

        def then_reset_peak(*args):
            out = fields(*args)
            tracemalloc.reset_peak()
            return out

        monkeypatch.setattr(cli, "exact_fields", then_reset_peak)
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
    """Which commands import numpy and orjson, in a fresh interpreter."""

    SCRIPT = (
        "import sys\n"
        "from naqlab import cli\n"
        "cli.build_parser()\n"
        "code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0\n"
        "sys.stderr.write(' '.join(m for m in ('numpy', 'orjson') if m in sys.modules))\n"
        "sys.exit(code)\n"
    )

    CASES = (
        ((), ""),
        (("assoc", "--power", "8"), ""),
        (("exact",), ""),
        (("shoot", "--lambda", "1", "--m", "0.1"), ""),
        (("shoot", "--lambda", "1", "--m", "0.15", "--tol", "1e-12"), ""),
        (("profile", "--eta0", "0.9083"), "numpy orjson"),
        (("exact", "--format", "csv", "--grid", "0.1:10:30", "--grid-scale", "linear",
          "--q", "2", "--G", "0.5", "--c", "1.5"), "numpy orjson"),
        (("torsion-check", "--trials", "50"), "numpy"),
    )

    @pytest.mark.parametrize("argv, loaded", CASES, ids=[" ".join(argv) or "build_parser" for argv, _ in CASES])
    def test_loaded_modules_and_bytes(self, capsys, argv, loaded):
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, *argv], env=env, capture_output=True, text=True, timeout=120
        )
        assert (proc.returncode, proc.stderr) == (EXIT_OK, loaded)
        if argv:
            assert proc.stdout == run(capsys, *argv)[1]
        digest = dict(TestOutputPins.CASES).get(argv)
        if digest is not None:
            assert hashlib.sha256(proc.stdout.encode()).hexdigest() == digest


class TestShoot:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, "shoot")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["eta0_star"] == pytest.approx(0.9083, abs=5e-4)
        assert payload["config"]["m"] == 0.1

    def test_bad_bracket_is_numerical_error(self, capsys):
        code, out, err = run(capsys, "shoot", "--bracket", "0.2:0.3")
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err == "invalid bracket: both ends classify as 'undershoot'\n"

    @pytest.mark.parametrize("bracket, lo", ((("--bracket", "0:0.5"), "0"), (("--bracket=-1:0.5",), "-1")))
    def test_bracket_start_not_above_zero_is_usage_error(self, capsys, bracket, lo):
        # eta0 = 0 is the false vacuum and eta0 < 0 overshoots at once: no
        # r_max classifies them, so the bracket is refused before integrating
        code, out, err = run(capsys, "shoot", *bracket)
        assert (code, out) == (EXIT_USAGE, "")
        assert err == ("naqlab: bracket needs LO > 0, got %s: eta0 = 0 is the static false vacuum"
                       " and eta0 < 0 overshoots at once\n" % lo)

    def test_unclassified_trajectory_is_numerical_error(self, capsys):
        code, out, err = run(capsys, "shoot", "--rmax", "5")
        assert code == EXIT_NUMERICAL
        assert out == ""
        assert err == ("eta0 = 0.2 reached r_max = 5 unclassified; enlarge r_max so the"
                       " overshoot/undershoot separation can develop\n")


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
        code, out, _ = run(capsys, "profile", "--help")
        assert code == EXIT_OK
        assert "(default 0.001:%g:2000)" % shooting.DEFAULT_R_MAX in " ".join(out.split())

    @staticmethod
    def repr_profile(points):
        # the table the former row-by-row writer produced, rebuilt here
        params = shooting.CouplingParams(lambda_tilde=1.0, m=0.1)
        traj = shooting.integrate_profile(0.9083, params, r_max=40.0)
        rs = np.geomspace(1e-2, 40.0, points)
        rs = rs[(rs >= traj.r[0]) & (rs <= traj.r[-1])]
        eta, deta = cli._resample(traj, rs, params)
        config = {
            "subcommand": "profile", "eta0": 0.9083, "lambda_tilde": 1.0,
            "m": 0.1, "grid": [1e-2, 40.0, points], "grid_scale": "log",
        }
        columns = (rs, eta, deta) + shooting.derive_fields(eta, deta, params)
        return repr_table(config, "r,eta,deta_dr,phi_scaled,E_scaled,rho_scaled", columns)

    def test_csv_bytes_match_per_element_rows(self, capsys):
        for points in (50, MULTI_BLOCK_ROWS):
            code, out, _ = run(capsys, "profile", "--eta0", "0.9083", "--grid", "1e-2:40:%d" % points)
            assert code == EXIT_OK
            assert_same_text(out, self.repr_profile(points))

    def test_grid_ending_on_a_short_span_keeps_its_last_row(self, capsys):
        # the capped last step of this trajectory once rounded to one ulp
        # short of r_max and ended in a step-underflow blow-up there
        code, out, _ = run(capsys, "profile", "--eta0", "0", "--grid", "1e-3:3.61:50")
        assert code == EXIT_OK
        rows = out.strip().split("\n")[2:]
        assert len(rows) == 50
        assert rows[-1].startswith("3.61,")

    def test_few_rows_inside_the_trajectory_are_written(self, capsys):
        code, out, _ = run(capsys, "profile", "--eta0", "0.9083", "--grid", "1e-2:40:4")
        assert code == EXIT_OK
        assert len(out.strip().split("\n")[2:]) == 4

    @pytest.mark.parametrize("lambda_tilde, m, eta0", ((1.0, 0.1, 0.9083), (1.0, 0.15, 1.4810965307), (4.0, 0.1, 0.9083)))
    def test_matches_dop853_dense_output(self, capsys, lambda_tilde, m, eta0):
        # the default 2000-point grid against scipy's DOP853 interpolant from
        # the same series start: the Hermite resampling between the samples
        # of the rtol-1e-10 trajectory is what the bounds measure
        pytest.importorskip("scipy")
        from scipy.integrate import solve_ivp

        code, out, _ = run(capsys, "profile", "--lambda", repr(lambda_tilde), "--m", repr(m), "--eta0", repr(eta0))
        assert code == EXIT_OK
        rows = np.array([line.split(",")[:3] for line in out.splitlines()[2:]], dtype=float)
        params = shooting.CouplingParams(lambda_tilde=lambda_tilde, m=m)
        r0, y0 = shooting.series_start(eta0, params, shooting.DEFAULT_EPSILON)
        ref = solve_ivp(
            lambda r, y: (y[1], shooting.ode_rhs(r, y[0], y[1], params)),
            (r0, rows[-1, 0]), y0, method="DOP853", rtol=1e-13, atol=1e-16, dense_output=True,
        )
        assert ref.success
        eta, deta = ref.sol(rows[:, 0])
        assert np.abs(rows[:, 1] - eta).max() <= 1e-5
        assert np.abs(rows[:, 2] - deta).max() <= 2e-5

    def test_short_trajectory_is_numerical_error(self, capsys):
        # a strongly overshooting start terminates long before the grid
        code, _, err = run(
            capsys, "profile", "--eta0", "5.0", "--grid", "60:80:100"
        )
        assert code == EXIT_NUMERICAL
        assert "grid too short" in err


class TestConfigBlock:
    # every option of each subcommand set away from its default
    CASES = (
        (
            ("shoot", "--lambda", "2.5", "--m", "0.12", "--bracket", "0.5:2.5",
             "--tol", "1e-4", "--rmax", "60"),
            {"lambda_tilde": 2.5, "m": 0.12, "bracket": [0.5, 2.5], "tol": 1e-4, "rmax": 60.0},
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
            ("shoot", "--bracket", "0.2:0.3"),
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
        assert "(default %g:%g)" % shooting.DEFAULT_BRACKET in shoot_help


class TestOutputPins:
    """sha256 of the stdout of fixed runs: a change to the integrator, the
    shooting loop, the closed-form fields or the energy quadrature that moves
    one output bit fails here."""

    CASES = (
        (("shoot", "--lambda", "1", "--m", "0.1"),
         "71c5fe6d64b8d9e570e1aa01e9e8d2ecc45f84c5b9e323afdabf216f234d7529"),
        (("shoot", "--lambda", "1", "--m", "0.15", "--tol", "1e-12"),
         "648a37f5b3557b4e7b415231393c73cc9588f0a9111ddfd12d8b12669dd309c2"),
        (("shoot", "--lambda", "2.5", "--m", "0.07", "--tol", "1e-05"),
         "622d16194fc37a53b4f4a07292e9531ab466593268154143f489da77240d7ada"),
        (("shoot", "--lambda", "0.6", "--m", "0.13", "--tol", "1e-05"),
         "f8e9df381400f581066cb43b1be8b34846265a71450d7a32451425b2efeb4bba"),
        (("shoot", "--lambda", "3.2", "--m", "0.12", "--tol", "1e-12"),
         "9bfe034c797b17961b04b10d71befb84cafc0e5862b1bb7ddcb82954602b14e3"),
        (("shoot", "--lambda", "1", "--m", "0.06", "--tol", "1e-12"),
         "12c7399c3c42b2024fd4a6d291e4c782d232c98257effe3e99325fe16f369be0"),
        (("profile", "--eta0", "0.9083"),
         "ba9f66f941c3cc4a57d1530255dd3be18972631c65d9b85f7542dad54028eec3"),
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
         "fcc6740c97edfa0ea53a679f68b6d6b05239784417cf750f352d83c9d01b91ed"),
    )

    @pytest.mark.parametrize("argv, digest", CASES, ids=[" ".join(argv) for argv, _ in CASES])
    def test_stdout_digest(self, capsys, argv, digest):
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest
