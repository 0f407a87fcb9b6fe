"""Command-line surface: parsing, reports, sweeps, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from renyi_risk import RiskSpec, dual_norm, evar, from_samples
from renyi_risk.cli import main


@pytest.fixture
def sample_csv(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("value,weight\n0,3\n1,1\n4,1\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def sample_json(tmp_path):
    path = tmp_path / "y.json"
    path.write_text(json.dumps({"atoms": [[0, 0.6], [1, 0.2], [4, 0.2]]}), encoding="utf-8")
    return str(path)


@pytest.fixture
def density_csv(tmp_path):
    path = tmp_path / "z.csv"
    path.write_text("value,weight,density\n0,1,1.0\n1,1,1.0\n", encoding="utf-8")
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRisk:
    def test_single_entry_report(self, capsys, sample_csv):
        code, out, _ = run(capsys, ["risk", "--input", sample_csv,
                                    "--alpha", "0.5", "--order", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["input"]["atoms"] == 3
        assert len(report["entries"]) == 1
        entry = report["entries"][0]
        d = from_samples([0, 1, 4], [3, 1, 1])
        assert entry["value"] == evar(d, RiskSpec(0.5, 2.0)).value
        assert entry["branch"] == "higher_order"

    def test_cartesian_product_order(self, capsys, sample_csv):
        code, out, _ = run(capsys, ["risk", "--input", sample_csv,
                                    "--alpha", "0.25", "0.75",
                                    "--order", "1", "inf"])
        assert code == 0
        entries = json.loads(out)["entries"]
        assert [(e["alpha"], e["order"]) for e in entries] == [
            (0.25, 1.0), (0.25, "inf"), (0.75, 1.0), (0.75, "inf")
        ]

    def test_emit_density(self, capsys, sample_csv):
        code, out, _ = run(capsys, ["risk", "--input", sample_csv, "--alpha", "0.95",
                                    "--order", "inf", "--emit-density"])
        assert code == 0
        entry = json.loads(out)["entries"][0]
        assert isinstance(entry["density"], list) and len(entry["density"]) == 3

    def test_round_trip_is_lossless(self, capsys, sample_csv):
        _, out1, _ = run(capsys, ["risk", "--input", sample_csv,
                                  "--alpha", "0.123456789", "--order", "2.5"])
        report = json.loads(out1)
        assert json.loads(json.dumps(report)) == report

    def test_deterministic(self, capsys, sample_csv):
        _, out1, _ = run(capsys, ["risk", "--input", sample_csv, "--alpha", "0.5", "--order", "-1"])
        _, out2, _ = run(capsys, ["risk", "--input", sample_csv, "--alpha", "0.5", "--order", "-1"])
        assert out1 == out2

    def test_json_input(self, capsys, sample_json, sample_csv):
        _, out_j, _ = run(capsys, ["risk", "--input", sample_json, "--alpha", "0.5", "--order", "2"])
        _, out_c, _ = run(capsys, ["risk", "--input", sample_csv, "--alpha", "0.5", "--order", "2"])
        assert json.loads(out_j)["entries"] == json.loads(out_c)["entries"]

    def test_csv_format(self, capsys, sample_csv):
        code, out, _ = run(capsys, ["risk", "--input", sample_csv, "--alpha", "0.5",
                                    "--order", "2", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["alpha", "order", "value", "t_star", "branch"]
        assert len(rows) == 2

    def test_invalid_alpha_exits_3(self, capsys, sample_csv):
        code, _, err = run(capsys, ["risk", "--input", sample_csv, "--alpha", "1.5", "--order", "2"])
        assert code == 3
        assert "alpha must lie in [0,1]" in err

    def test_zero_order_exits_3(self, capsys, sample_csv):
        code, _, _ = run(capsys, ["risk", "--input", sample_csv, "--alpha", "0.5", "--order", "0"])
        assert code == 3

    def test_parse_error_exits_2_with_line(self, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("value\n0\nxyz\n", encoding="utf-8")
        code, _, err = run(capsys, ["risk", "--input", str(bad), "--alpha", "0.5", "--order", "2"])
        assert code == 2
        assert "line 3" in err

    def test_missing_file_exits_2(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["risk", "--input", str(tmp_path / "nope.csv"),
                                  "--alpha", "0.5", "--order", "2"])
        assert code == 2

    def test_tolerance_env_override(self, capsys, sample_csv, monkeypatch):
        monkeypatch.setenv("RENYI_RISK_TOL", "1e-6")
        code, out, _ = run(capsys, ["risk", "--input", sample_csv, "--alpha", "0.5", "--order", "2"])
        assert code == 0
        loose = json.loads(out)["entries"][0]["value"]
        monkeypatch.delenv("RENYI_RISK_TOL")
        _, out2, _ = run(capsys, ["risk", "--input", sample_csv, "--alpha", "0.5", "--order", "2"])
        tight = json.loads(out2)["entries"][0]["value"]
        assert loose == pytest.approx(tight, rel=1e-5)

    def test_bad_env_tolerance_exits_3(self, capsys, sample_csv, monkeypatch):
        monkeypatch.setenv("RENYI_RISK_TOL", "-1")
        code, _, _ = run(capsys, ["risk", "--input", sample_csv, "--alpha", "0.5", "--order", "2"])
        assert code == 3


    def test_tail_mean_on_200k_rows_at_high_level(self, capsys, tmp_path):
        path = tmp_path / "big.csv"
        y = np.random.default_rng(0).normal(size=200_000)
        path.write_text("value\n" + "\n".join(map(repr, y.tolist())) + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["risk", "--input", str(path),
                                      "--alpha", "0.99", "--order", "1"])
        assert code == 0, err
        assert json.loads(out)["entries"][0]["branch"] == "avar"


class TestSweep:
    def test_monotone_values_plus_reference_rows(self, capsys, sample_csv, tmp_path):
        out_path = tmp_path / "sweep.csv"
        code, _, _ = run(capsys, ["sweep", "--input", sample_csv, "--alpha", "0.5",
                                  "--pprime", "1.1:10:20", "--output", str(out_path)])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out_path.read_text())))
        assert rows[0] == ["pprime", "p", "value", "t_star"]
        body = rows[1:]
        sweep_rows = body[:-2]
        assert len(sweep_rows) == 20
        values = [float(r[2]) for r in sweep_rows]
        for hi, lo in zip(values, values[1:]):
            assert lo <= hi + 1e-10
        avar_row, esssup_row = body[-2], body[-1]
        assert avar_row[0] == "inf" and float(avar_row[1]) == 1.0
        assert esssup_row[0] == "" and float(esssup_row[2]) == 4.0

    def test_single_point_matches_risk_call(self, capsys, sample_csv):
        code, out, _ = run(capsys, ["sweep", "--input", sample_csv, "--alpha", "0.5",
                                    "--pprime", "2:2:1"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        d = from_samples([0, 1, 4], [3, 1, 1])
        direct = evar(d, RiskSpec(0.5, 2.0)).value  # p' = 2 <-> p = 2
        assert float(rows[1][2]) == pytest.approx(direct, abs=1e-12)

    def test_default_preset_includes_limit_tag(self, capsys, sample_csv):
        code, out, _ = run(capsys, ["sweep", "--input", sample_csv, "--alpha", "0.5",
                                    "--pprime", "default"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[1][0] == "1.0" and rows[1][1] == "inf"

    def test_malformed_grid_exits_3(self, capsys, sample_csv):
        code, _, _ = run(capsys, ["sweep", "--input", sample_csv, "--alpha", "0.5",
                                  "--pprime", "a:b"])
        assert code == 3

    def test_grid_must_start_above_one(self, capsys, sample_csv):
        code, _, _ = run(capsys, ["sweep", "--input", sample_csv, "--alpha", "0.5",
                                  "--pprime", "0.5:3:4"])
        assert code == 3


class TestDualnormCommand:
    def test_constant_density_bounds(self, capsys, density_csv):
        code, out, _ = run(capsys, ["dualnorm", "--input", density_csv,
                                    "--alpha", "0.5", "--order", "2"])
        assert code == 0
        val = json.loads(out)["dual_norm"]
        assert 0.5 ** 0.5 - 1e-9 <= val <= 1.0 + 1e-9
        assert val == pytest.approx(1.0, abs=1e-9)

    def test_rejects_unit_order(self, capsys, density_csv):
        code, _, _ = run(capsys, ["dualnorm", "--input", density_csv,
                                  "--alpha", "0.5", "--order", "1"])
        assert code == 3

    def test_zero_density_at_negative_order_warns_nothing(self, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("value,weight,density\n0,1,0.0\n1,1,2.0\n2,2,1.0\n", encoding="utf-8")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "renyi_risk.cli", "dualnorm",
             "--input", str(path), "--alpha", "0.5", "--order", "-1"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert json.loads(proc.stdout)["dual_norm"] >= 1.0

    def test_invalid_density_exits_3(self, capsys, tmp_path):
        bad = tmp_path / "z.csv"
        bad.write_text("value,density\n0,2.0\n1,2.0\n", encoding="utf-8")
        code, _, _ = run(capsys, ["dualnorm", "--input", str(bad),
                                  "--alpha", "0.5", "--order", "2"])
        assert code == 3


class TestKusuokaCommand:
    def test_tail_mean_gives_point_mass_at_alpha(self, capsys, tmp_path):
        path = tmp_path / "u.csv"
        path.write_text("value\n0\n1\n", encoding="utf-8")
        code, out, _ = run(capsys, ["kusuoka", "--input", str(path),
                                    "--alpha", "0.5", "--order", "1"])
        assert code == 0
        payload = json.loads(out)
        assert payload["atoms"] == [[0.5, 1.0]]

    def test_rejects_regimes_without_density(self, capsys, sample_csv):
        code, _, _ = run(capsys, ["kusuoka", "--input", sample_csv,
                                  "--alpha", "0.5", "--order", "0.5"])
        assert code == 3


class TestEntropyCommand:
    def test_constant_density_entropy_is_zero(self, capsys, density_csv):
        code, out, _ = run(capsys, ["entropy", "--input", density_csv, "--q", "2"])
        assert code == 0
        assert json.loads(out)["entries"] == [{"q": 2.0, "entropy": 0.0}]

    def test_infinite_order_token(self, capsys, density_csv):
        code, out, _ = run(capsys, ["entropy", "--input", density_csv, "--q", "inf", "0"])
        assert code == 0
        entries = json.loads(out)["entries"]
        assert entries[0]["q"] == "inf"

    def test_negative_order_on_degenerate_density_exits_3(self, capsys, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("value,density\n0,0.0\n1,2.0\n", encoding="utf-8")
        code, _, _ = run(capsys, ["entropy", "--input", path.as_posix(), "--q", "-1"])
        assert code == 3
