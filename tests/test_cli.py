"""Command-line surface: parsing, reports, sweeps, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from renyi_risk import RiskSpec, dual_norm, evar, from_samples
from renyi_risk import cli
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

    @pytest.mark.parametrize("atoms,where", [
        ('[["a", 1.0], [2.0, 1.0]]', "atoms[0][0]"),
        ('[[1.0, 1.0], [null, 1.0]]', "atoms[1][0]"),
        ('[[1.0, [2]]]', "atoms[0][1]"),
        ('[[1' + '0' * 400 + ', 1.0]]', "atoms[0][0]"),
    ])
    def test_non_numeric_json_entry_exits_2(self, capsys, tmp_path, atoms, where):
        path = tmp_path / "y.json"
        path.write_text('{"atoms": %s}' % atoms, encoding="utf-8")
        code, _, err = run(capsys, ["risk", "--input", str(path), "--alpha", "0.5", "--order", "2"])
        assert (code, err) == (2, f"error: line 1: {where} is not a number\n")

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

    def test_huge_orders_give_strict_json(self, capsys, sample_csv):
        # a negative order in exponent notation is a value, not an option, and
        # an optimizer beyond the float range is null, never Infinity
        code, out, _ = run(capsys, ["risk", "--input", sample_csv, "--alpha", "0.5",
                                    "--order", "1e12", "-1e300", "1.7e308", "--emit-density"])
        assert code == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(out, parse_constant=reject)
        assert [e["order"] for e in report["entries"]] == [1e12, -1e300, 1.7e308]
        assert report["entries"][2]["t_star"] is None
        assert all(0.8 <= e["value"] <= 4.0 for e in report["entries"])

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

    @pytest.mark.parametrize("density", ['["x", 1.0]', '[1.0, null]'])
    def test_non_numeric_json_density_exits_2(self, capsys, tmp_path, density):
        path = tmp_path / "z.json"
        path.write_text('{"atoms": [[0, 0.5], [1, 0.5]], "density": %s}' % density,
                        encoding="utf-8")
        code, _, err = run(capsys, ["entropy", "--input", str(path), "--q", "2"])
        index = 0 if density.startswith('["x"') else 1
        assert (code, err) == (2, f"error: line 1: density[{index}] is not a number\n")

    @pytest.mark.parametrize("command", [["entropy", "--q", "2"],
                                         ["dualnorm", "--alpha", "0.5", "--order", "2"]])
    def test_non_finite_json_density_exits_2(self, capsys, tmp_path, command):
        path = tmp_path / "z.json"
        path.write_text('{"atoms": [[0, 0.5], [1, 0.5]], "density": [NaN, 1.0]}',
                        encoding="utf-8")
        code, _, err = run(capsys, [command[0], "--input", str(path), *command[1:]])
        assert (code, err) == (2, "error: line 1: density[0] has a non-finite entry\n")

    def test_negative_order_on_degenerate_density_exits_3(self, capsys, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("value,density\n0,0.0\n1,2.0\n", encoding="utf-8")
        code, _, _ = run(capsys, ["entropy", "--input", path.as_posix(), "--q", "-1"])
        assert code == 3


#: (id, file bytes, density file?) for the ingest parity checks
CSV_CORPUS = [
    ("plain", b"value\n1.5\n-2\n3e-5\n", False),
    ("weights", b"value,weight\n0,3\n1,1\n4,1\n", False),
    ("quoted_fields", b'value,weight\n"1.5",2\n3,"1"\n', False),
    ("quoted_header", b'"value","weight"\n1,2\n3,4\n', False),
    ("comma_in_quoted_unused_field", b'name,value\n"a,2,",1\n', False),
    ("blank_lines", b"value\n\n1\n\n\n2\n\n", False),
    ("whitespace_only_line", b"value\n1\n   \n2\n", False),
    ("whitespace_around_fields", b"value,weight\n 1.5 ,\t2\n", False),
    ("crlf", b"value,weight\r\n1,2\r\n3,4\r\n", False),
    ("bom", b"\xef\xbb\xbfvalue\n1\n2\n", False),
    ("bom_on_unused_column", b"\xef\xbb\xbfweight,value\n1,2\n3,4\n", False),
    ("duplicate_header", b"value,value\n1,2\n3,4\n", False),
    ("duplicate_unused_header", b"value,x,x\n1,2,3\n", False),
    ("extra_fields", b"value\n1,5\n2\n", False),
    ("missing_field", b"value,weight\n1,2\n3\n", False),
    ("empty_field", b"value,weight\n1,\n", False),
    ("nan", b"value\n1\nnan\n", False),
    ("inf", b"value\n-inf\n1\n", False),
    ("overflow", b"value\n1\n1e400\n", False),
    ("nan_weight", b"value,weight\n1,nan\n", False),
    ("negative_weight", b"value,weight\n1,2\n2,-1\n", False),
    ("negative_zero", b"value,weight\n-0.0,-0.0\n1,1\n", False),
    ("underscore_digits", b"value\n1_000\n2\n", False),
    ("non_ascii_digits", "value\n\u0661\u0662\n\uff13\n".encode("utf-8"), False),
    ("hex", b"value\n0x10\n", False),
    ("hash_in_field", b"value\n1#2\n", False),
    ("hash_in_unused_field", b"value,note\n1,#x\n", False),
    ("header_only", b"value\n", False),
    ("header_then_empty_lines", b"value\n\n\n", False),
    ("header_without_newline", b"value", False),
    ("empty_file", b"", False),
    ("no_value_column", b"x\n1\n", False),
    ("zero_weights", b"value,weight\n1,0\n2,0\n", False),
    ("bad_density_in_sample_file", b"value,density\n0,abc\n", False),
    ("density", b"value,weight,density\n0,1,1.0\n1,1,1.0\n", True),
    ("density_without_weight", b"value,density\n1,0.5\n0,1.5\n", True),
    ("density_missing_column", b"value,weight\n0,1\n", True),
    ("density_non_numeric", b"value,density\n0,x\n", True),
    ("density_non_finite", b"value,density\n0,inf\n1,1\n", True),
    ("density_duplicate_values", b"value,density\n0,1\n0,1\n", True),
]


def no_fast_path(monkeypatch):
    monkeypatch.setattr(cli, "_load_columns", lambda text, want_density: None)


def parse_outcome(text, want_density):
    """Parsed columns as raw bytes, or the parse error's message."""
    try:
        columns = cli._parse_csv(text, want_density)
    except cli.InputError as exc:
        return "error", str(exc)
    return "ok", [None if c is None else np.asarray(c, dtype=float).tobytes() for c in columns]


class TestCsvIngestParity:
    """The vectorized fast path and the row parser agree bit for bit, and
    every error keeps its message, line number and exit code."""

    @pytest.mark.parametrize("name,data,density", CSV_CORPUS, ids=[c[0] for c in CSV_CORPUS])
    def test_fast_path_matches_row_parser(self, capsys, monkeypatch, tmp_path, name, data,
                                          density):
        path = tmp_path / ("z.csv" if density else "y.csv")
        path.write_bytes(data)
        text = cli._read_text(str(path))
        argv = (["entropy", "--input", str(path), "--q", "2"] if density else
                ["risk", "--input", str(path), "--alpha", "0.5", "--order", "2"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the fast path warns about nothing
            fast = parse_outcome(text, density), run(capsys, argv)
        no_fast_path(monkeypatch)
        rows = parse_outcome(text, density), run(capsys, argv)
        assert fast == rows

    @pytest.mark.parametrize("name", ["plain", "weights", "blank_lines",
                                      "whitespace_around_fields", "crlf", "extra_fields",
                                      "negative_zero", "hash_in_unused_field", "density"])
    def test_well_formed_files_take_the_fast_path(self, tmp_path, name):
        data, density = next((d, z) for n, d, z in CSV_CORPUS if n == name)
        path = tmp_path / "y.csv"
        path.write_bytes(data)
        assert cli._load_columns(cli._read_text(str(path)), density) is not None

    def test_quoted_field_over_the_csv_limit_exits_2(self, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text('value,note\n1,"%s"\n2,x\n' % ("a" * 200_000), encoding="utf-8")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "renyi_risk.cli", "risk", "--input", str(path),
             "--alpha", "0.5", "--order", "2"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: line 2: field larger than field limit")

    def test_header_only_file_reports_no_data_rows(self, capsys, tmp_path):
        path = tmp_path / "y.csv"
        path.write_text("value\n", encoding="utf-8")
        code, _, err = run(capsys, ["risk", "--input", str(path), "--alpha", "0.5",
                                    "--order", "2"])
        assert (code, err) == (2, "error: line 2: no data rows\n")

    def test_report_is_byte_identical_through_either_parser(self, capsys, monkeypatch,
                                                            tmp_path):
        path = tmp_path / "y.csv"
        rng = np.random.default_rng(7)
        tail = rng.random(20_000) < 0.05
        y = np.where(tail, 1.5 + rng.lognormal(0.0, 0.75, 20_000), rng.normal(size=20_000))
        path.write_text("value\n" + "\n".join(map(repr, y.tolist())) + "\n", encoding="utf-8")
        argv = ["risk", "--input", str(path), "--alpha", "0.95",
                "--order", "1", "2", "inf", "-2", "--emit-density"]
        assert cli._load_columns(cli._read_text(str(path)), False) is not None
        fast = run(capsys, argv)
        no_fast_path(monkeypatch)
        assert fast[0] == 0
        assert run(capsys, argv) == fast
