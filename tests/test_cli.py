import json

import numpy as np
import pytest

from naqlab import shooting
from naqlab.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
        code, _, _ = run(capsys, "assoc", "--power", "0")
        assert code == EXIT_USAGE


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

    def test_nonpositive_radius_is_usage_error(self, capsys):
        # "--grid -1:1:5" would be read as an option; the = form passes it
        code, out, err = run(
            capsys, "exact", "--format", "csv", "--grid=-1:1:5", "--grid-scale", "linear"
        )
        assert code == EXIT_USAGE
        assert out == ""
        assert "radius must be positive" in err

    def test_output_file(self, tmp_path, capsys):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "exact", "--output", str(path))
        assert code == EXIT_OK
        assert out == ""
        assert json.loads(path.read_text())["closed_form_field_energy"] == 0.5


class TestShoot:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, "shoot")
        assert code == EXIT_OK
        payload = json.loads(out)
        assert payload["eta0_star"] == pytest.approx(0.9083, abs=5e-4)
        assert payload["config"]["m"] == 0.1

    def test_bad_bracket_is_numerical_error(self, capsys):
        code, _, err = run(capsys, "shoot", "--bracket", "0.2:0.3")
        assert code == EXIT_NUMERICAL
        assert err != ""


class TestProfile:
    def test_csv_header_and_rows(self, capsys):
        code, out, _ = run(
            capsys, "profile", "--eta0", "0.9083", "--grid", "1e-2:40:50"
        )
        assert code == EXIT_OK
        lines = out.strip().split("\n")
        assert lines[1] == "r,eta,deta_dr,phi_scaled,E_scaled,rho_scaled"
        assert len(lines) == 52

    def test_csv_bytes_match_per_element_rows(self, capsys):
        # the table the former row-by-row writer produced, rebuilt here
        params = shooting.CouplingParams(lambda_tilde=1.0, m=0.1)
        traj = shooting.integrate_profile(0.9083, params, r_max=40.0)
        rs = np.geomspace(1e-2, 40.0, 50)
        rs = rs[(rs >= traj.r[0]) & (rs <= traj.r[-1])]
        prof = shooting.derive_fields(
            shooting.Trajectory(
                r=rs, eta=np.interp(rs, traj.r, traj.eta),
                deta=np.interp(rs, traj.r, traj.deta), reason=traj.reason,
                eta0=0.9083, params=params, epsilon=traj.epsilon,
            )
        )
        config = {
            "subcommand": "profile", "eta0": 0.9083, "lambda_tilde": 1.0,
            "m": 0.1, "grid": [1e-2, 40.0, 50], "grid_scale": "log",
        }
        rows = ["# config: " + json.dumps(config, sort_keys=True),
                "r,eta,deta_dr,phi_scaled,E_scaled,rho_scaled"]
        for i in range(rs.size):
            rows.append(",".join(repr(float(v)) for v in (
                prof.r[i], prof.eta[i], prof.deta[i],
                prof.phi_scaled[i], prof.E_scaled[i], prof.rho_scaled[i],
            )))
        code, out, _ = run(capsys, "profile", "--eta0", "0.9083", "--grid", "1e-2:40:50")
        assert code == EXIT_OK
        assert out == "\n".join(rows) + "\n"

    def test_short_trajectory_is_numerical_error(self, capsys):
        # a strongly overshooting start terminates long before the grid
        code, _, err = run(
            capsys, "profile", "--eta0", "5.0", "--grid", "60:80:100"
        )
        assert code == EXIT_NUMERICAL
        assert "grid too short" in err


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
