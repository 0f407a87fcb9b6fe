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

from renyi_risk import Density, KusuokaMeasure, RiskSpec, dual_norm, evar, from_samples, kusuoka
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


@pytest.fixture
def uniform_10k_csv(tmp_path):
    # equal weights on 0..9999: at alpha 0.9990999999999064 a forward cdf and
    # the exact tail above the quantile atom disagree in the last bits
    path = tmp_path / "u.csv"
    path.write_text("value\n" + "\n".join(map(str, range(10_000))) + "\n", encoding="utf-8")
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

    def test_csv_format_rejects_emit_density(self, capsys, monkeypatch, sample_csv):
        # CSV rows have no density column: the densities were dropped silently
        def no_solve(*args):
            raise AssertionError("solved before the request was checked")

        monkeypatch.setattr(cli, "evar", no_solve)
        code, out, err = run(capsys, ["risk", "--input", sample_csv, "--alpha", "0.5",
                                      "--order", "2", "--format", "csv", "--emit-density"])
        assert (code, out) == (3, "")
        assert err == "error: --emit-density needs --format json\n"

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

    @pytest.mark.parametrize("command,text,message", [
        (["risk", "--alpha", "0.5", "--order", "2"], '{"atoms": [[0, 1],',
         "line 1: Expecting value"),
        (["risk", "--alpha", "0.5", "--order", "2"], '{"atoms":\n [[0, 1]],\n }',
         "line 3: Expecting property name enclosed in double quotes"),
        (["risk", "--alpha", "0.5", "--order", "2"], '[[0, 1]]',
         "line 1: expected an object with a nonempty 'atoms' list"),
        (["kusuoka", "--alpha", "0.5", "--order", "2"], '{"atoms": []}',
         "line 1: expected an object with a nonempty 'atoms' list"),
        (["risk", "--alpha", "0.5", "--order", "2"], '{"atoms": [[0, 0.5], [1, 0.2, 0.3]]}',
         "line 1: atoms[1] is not a [value, prob] pair"),
        (["risk", "--alpha", "0.5", "--order", "2"], '{"atoms": [5]}',
         "line 1: atoms[0] is not a [value, prob] pair"),
        (["risk", "--alpha", "0.5", "--order", "2"], '{"atoms": [[0, 0.5], [NaN, 0.5]]}',
         "line 1: atoms[1] has a non-finite entry"),
        (["sweep", "--alpha", "0.5", "--pprime", "2:3:2"], '{"atoms": [[0, Infinity]]}',
         "line 1: atoms[0] has a non-finite entry"),
        (["risk", "--alpha", "0.5", "--order", "2"], '{"atoms": [[0, 1.5], [1, -0.5]]}',
         "line 1: atoms[1] has a negative probability"),
        (["entropy", "--q", "2"], '{"atoms": [[0, 0.5], [1, 0.5]], "density": [1.0]}',
         "line 1: density files need a 'density' list matching atoms"),
        (["dualnorm", "--alpha", "0.5", "--order", "2"], '{"atoms": [[0, 0.5], [1, 0.5]]}',
         "line 1: density files need a 'density' list matching atoms"),
    ], ids=["truncated", "line_3", "not_an_object", "no_atoms", "triple", "scalar",
            "nan_value", "infinite_prob", "negative_prob", "short_density", "no_density"])
    def test_malformed_json_exits_2(self, capsys, tmp_path, command, text, message):
        path = tmp_path / "y.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, [command[0], "--input", str(path), *command[1:]])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_negative_orders_with_a_light_top_atom(self, capsys, tmp_path):
        # exited 3 with "density mean ... is not 1"
        path = tmp_path / "y.csv"
        path.write_text("value,weight\n0,0.5\n1,0.5\n2,1e-12\n", encoding="utf-8")
        code, out, err = run(capsys, ["risk", "--input", str(path), "--alpha", "0.5",
                                      "--order", "-0.5", "-0.1", "--emit-density"])
        assert code == 0, err
        # the raw weights sum to 1 + 1e-12, so E Z is taken under the
        # normalized ones
        weights = [0.5, 0.5, 1e-12]
        total = math.fsum(weights)
        for entry in json.loads(out)["entries"]:
            assert entry["branch"] == "negative_order"
            mean = math.fsum(w / total * z for w, z in zip(weights, entry["density"]))
            assert abs(mean - 1.0) <= 1e-13

    def test_csv_format(self, capsys, sample_csv):
        code, out, _ = run(capsys, ["risk", "--input", sample_csv, "--alpha", "0.5",
                                    "--order", "2", "--format", "csv"])
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["alpha", "order", "value", "t_star", "branch"]
        assert len(rows) == 2

    def test_invalid_alpha_exits_3(self, capsys, sample_csv):
        # a nan level said "alpha must be a finite real or 'inf'", offering 'inf'
        for token in ("1.5", "nan", "inf", "1e400"):
            code, out, err = run(capsys, ["risk", "--input", sample_csv, "--alpha", token,
                                          "--order", "2"])
            assert (code, out, err) == (3, "", "error: alpha must lie in [0,1]\n"), token

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

    def test_tolerance_environment_variable_changes_nothing(self, capsys, sample_csv,
                                                            monkeypatch):
        # each solve has one fixed stopping rule; no environment variable sets it
        argv = ["risk", "--input", sample_csv, "--alpha", "0.5", "0.95",
                "--order", "2", "inf", "-2", "--emit-density"]
        monkeypatch.delenv("RENYI_RISK_TOL", raising=False)
        code, unset, _ = run(capsys, argv)
        assert code == 0
        for raw in ("1e-6", "-1"):
            monkeypatch.setenv("RENYI_RISK_TOL", raw)
            assert run(capsys, argv) == (0, unset, "")

    def test_undecodable_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "y.csv"
        path.write_bytes(b"value\n\xff\xfe\n")
        code, _, err = run(capsys, ["risk", "--input", str(path), "--alpha", "0.5",
                                    "--order", "2"])
        assert code == 2
        assert err.startswith(f"error: cannot read {path}: ")

    def test_tail_mean_at_a_level_between_rounded_cdf_points(self, capsys, uniform_10k_csv):
        code, out, err = run(capsys, ["risk", "--input", uniform_10k_csv,
                                      "--alpha", "0.9990999999999064", "--order", "1",
                                      "--emit-density"])
        assert code == 0, err
        entry = json.loads(out)["entries"][0]
        assert abs(math.fsum(entry["density"]) / 10_000 - 1.0) <= 1e-12

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

    def test_tail_mean_row_at_a_level_between_rounded_cdf_points(self, capsys,
                                                                 uniform_10k_csv):
        code, out, err = run(capsys, ["sweep", "--input", uniform_10k_csv,
                                      "--alpha", "0.9990999999999064", "--pprime", "default"])
        assert code == 0, err
        avar_row = list(csv.reader(io.StringIO(out)))[-2]
        direct = evar(from_samples(np.arange(10_000.0)), RiskSpec(0.9990999999999064, 1.0))
        assert avar_row[:3] == ["inf", "1.0", repr(direct.value)]

    @pytest.mark.parametrize("alpha, grid, pprimes", [
        # lo:hi:n points stay Python floats, never np.float64(...)
        ("0.5", "1.5:20:7", ["1.5", "4.583333333333334", "7.666666666666667", "10.75",
                             "13.833333333333334", "16.916666666666668", "20.0"]),
        # no t* at the ends: an empty field, as in every other row, never None
        ("0", "2:2:1", ["2.0"]),
        ("1", "2:2:1", ["2.0"]),
    ])
    def test_output_byte_for_byte(self, capsys, sample_csv, alpha, grid, pprimes):
        code, out, _ = run(capsys, ["sweep", "--input", sample_csv, "--alpha", alpha,
                                    "--pprime", grid])
        d = from_samples([0, 1, 4], [3, 1, 1])

        def row(pp, p, res):
            return f"{pp},{p},{res.value!r},{'' if res.t_star is None else repr(res.t_star)}"

        lines = ["pprime,p,value,t_star"]
        for pp in pprimes:
            p = float(pp) / (float(pp) - 1.0)
            lines.append(row(pp, repr(p), evar(d, RiskSpec(float(alpha), p))))
        ref = evar(d, RiskSpec(float(alpha), 1.0))
        lines += [row("inf", "1.0", ref), ",,4.0,"]
        assert (code, out) == (0, "".join(line + "\r\n" for line in lines))
        assert (ref.t_star is None) == (alpha != "0.5")

    def test_unwritable_output_exits_2(self, capsys, sample_csv, tmp_path):
        target = tmp_path / "missing" / "s.csv"
        code, out, err = run(capsys, ["sweep", "--input", sample_csv, "--alpha", "0.5",
                                      "--pprime", "default", "--output", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ")
        assert not target.parent.exists()

    def test_malformed_grid_exits_3(self, capsys, sample_csv):
        code, _, _ = run(capsys, ["sweep", "--input", sample_csv, "--alpha", "0.5",
                                  "--pprime", "a:b"])
        assert code == 3
        code, out, err = run(capsys, ["sweep", "--input", sample_csv, "--alpha", "0.5",
                                      "--pprime", "1.5:3:x"])
        assert (code, out, err) == (3, "", "error: malformed grid '1.5:3:x'\n")

    def test_infinite_grid_end_exits_3_without_a_warning(self, capsys, sample_csv):
        # np.linspace warned and the sweep failed on order nan
        code, out, err = run(capsys, ["sweep", "--input", sample_csv, "--alpha", "0.5",
                                      "--pprime", "1.5:inf:3"])
        assert (code, out, err) == (3, "", "error: malformed grid '1.5:inf:3'\n")

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

    @pytest.mark.parametrize("alpha, order", [("0.5", "0.5"), ("0", "2"), ("1", "-1")])
    def test_levels_and_orders_outside_the_regimes_exit_3(self, capsys, density_csv,
                                                          alpha, order):
        code, out, err = run(capsys, ["dualnorm", "--input", density_csv,
                                      "--alpha", alpha, "--order", order])
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_order_near_one_on_a_spread_density(self, capsys, tmp_path):
        # p' = 1001: a witness scale of max |Z|^(p'-1) overflowed here
        path = tmp_path / "z.csv"
        path.write_text("value,weight,density\n0,0.4,0.5\n1,0.4,0.5\n2,0.2,3.0\n",
                        encoding="utf-8")
        code, out, _ = run(capsys, ["dualnorm", "--input", str(path),
                                    "--alpha", "0.5", "--order", "1.001"])
        assert code == 0
        assert json.loads(out)["dual_norm"] == pytest.approx(1.4986275652075494, rel=1e-12)

    def test_shannon_order_exits_0_with_the_library_value(self, capsys, tmp_path):
        # p = +inf has an entropy budget (p' = 1) like every order above 1
        path = tmp_path / "z.csv"
        path.write_text("value,weight,density\n0,0.4,0.5\n1,0.4,0.5\n2,0.2,3.0\n",
                        encoding="utf-8")
        code, out, err = run(capsys, ["dualnorm", "--input", str(path),
                                      "--alpha", "0.5", "--order", "inf"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        z = Density(from_samples([0.0, 1.0, 2.0], [0.4, 0.4, 0.2]), np.array([0.5, 0.5, 3.0]))
        assert report["order"] == "inf"
        assert report["dual_norm"] == dual_norm(z, 0.5, math.inf)

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

    def test_total_mass_is_one_on_200k_rows(self, capsys, tmp_path):
        path = tmp_path / "y.csv"
        y = np.random.default_rng(1).lognormal(size=200_000)
        path.write_text("value\n" + "\n".join(map(repr, y.tolist())) + "\n", encoding="utf-8")
        code, out, err = run(capsys, ["kusuoka", "--input", str(path),
                                      "--alpha", "0.5", "--order", "-2"])
        assert code == 0, err  # exited 3 with "total mass must be 1"
        assert abs(math.fsum(m for _, m in json.loads(out)["atoms"]) - 1.0) <= 1e-12

    @pytest.mark.parametrize("order", ["1", "2", "-2", "inf"])
    def test_tail_below_level_resolution(self, capsys, tmp_path, order):
        # the top atom's tail 1e-17 prints as level 1.0; orders 2, -2 and inf
        # exited 3 with "levels must lie in [0,1)"
        path = tmp_path / "y.csv"
        path.write_text("value,weight\n0,0.5\n1,0.5\n2,1e-17\n", encoding="utf-8")
        code, out, err = run(capsys, ["kusuoka", "--input", str(path),
                                      "--alpha", "0.5", "--order", order])
        assert code == 0, err
        atoms = json.loads(out)["atoms"]
        assert abs(math.fsum(m for _, m in atoms) - 1.0) <= 1e-12
        assert (atoms[-1][0] == 1.0) == (order != "1")

    def test_tails_rebuild_the_measure(self, capsys, tmp_path):
        # two tails below level resolution: atoms and distortion both show
        # the level 1.0 twice, and only the tails tell them apart
        path = tmp_path / "y.csv"
        path.write_text("value,weight\n0,0.5\n1,0.5\n2,1e-17\n3,1e-17\n", encoding="utf-8")
        code, out, err = run(capsys, ["kusuoka", "--input", str(path),
                                      "--alpha", "0.5", "--order", "-2"])
        assert code == 0, err
        payload = json.loads(out)
        assert [u for u, _ in payload["distortion"][-2:]] == [1.0, 1.0]
        rebuilt = KusuokaMeasure(payload["tails"], [h for _, h in payload["distortion"]])
        want = kusuoka(from_samples([0.0, 1.0, 2.0, 3.0], [0.5, 0.5, 1e-17, 1e-17]),
                       RiskSpec(0.5, -2.0))
        assert rebuilt.tails.tolist() == want.tails.tolist() == [1.0, 0.5, 2e-17, 1e-17]
        assert rebuilt.heights.tolist() == want.heights.tolist()

    def test_rejects_regimes_without_density(self, capsys, sample_csv):
        code, _, _ = run(capsys, ["kusuoka", "--input", sample_csv,
                                  "--alpha", "0.5", "--order", "0.5"])
        assert code == 3


class TestEntropyCommand:
    def test_constant_density_entropy_is_zero(self, capsys, density_csv):
        code, out, _ = run(capsys, ["entropy", "--input", density_csv, "--q", "2"])
        assert code == 0
        assert json.loads(out)["entries"] == [{"q": 2.0, "entropy": 0.0}]

    def test_order_zero_of_a_full_support_prints_positive_zero(self, capsys, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("value,weight,density\n1,1,1.0\n2,1,1.0\n", encoding="utf-8")
        code, out, _ = run(capsys, ["entropy", "--input", str(path), "--q", "0"])
        assert code == 0
        [entry] = json.loads(out)["entries"]
        assert math.copysign(1.0, entry["entropy"]) == 1.0  # printed -0.0

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

    @pytest.mark.parametrize("command", [["entropy", "--q", "1", "2"],
                                         ["dualnorm", "--alpha", "0.5", "--order", "2"]])
    def test_zero_weight_row_is_dropped_with_its_density(self, capsys, tmp_path, command):
        # the row carries no mass, so the file means what it does without it
        path, without = tmp_path / "z.csv", tmp_path / "w.csv"
        path.write_text("value,weight,density\n0,0,1.0\n1,1,1.0\n2,1,1.0\n",
                        encoding="utf-8")
        without.write_text("value,weight,density\n1,1,1.0\n2,1,1.0\n", encoding="utf-8")
        code, out, err = run(capsys, [command[0], "--input", str(path), *command[1:]])
        assert (code, err) == (0, "")  # exited 3: weights must match the atoms
        assert out == run(capsys, [command[0], "--input", str(without), *command[1:]])[1]

    def test_duplicate_value_next_to_a_zero_weight_row_exits_2(self, capsys, tmp_path):
        path = tmp_path / "z.csv"
        path.write_text("value,weight,density\n0,0,1.0\n0,1,1.0\n1,1,1.0\n",
                        encoding="utf-8")
        code, _, err = run(capsys, ["entropy", "--input", str(path), "--q", "2"])
        assert (code, err) == (2, "error: duplicate values in a density file are ambiguous\n")


class TestOneWriter:
    """``main`` reads the input and writes the report in one place each, so a
    file with no probability mass and output that cannot be written exit 2
    under every command."""

    @pytest.fixture
    def commands(self, sample_csv, density_csv):
        return {
            "risk": ["risk", "--input", sample_csv, "--alpha", "0.5", "--order", "2"],
            "sweep": ["sweep", "--input", sample_csv, "--alpha", "0.5", "--pprime", "default"],
            "kusuoka": ["kusuoka", "--input", sample_csv, "--alpha", "0.5", "--order", "2"],
            "dualnorm": ["dualnorm", "--input", density_csv, "--alpha", "0.5", "--order", "2"],
            "entropy": ["entropy", "--input", density_csv, "--q", "2"],
        }

    @pytest.mark.parametrize("suffix", [".csv", ".json"])
    @pytest.mark.parametrize("command", ["risk", "sweep", "kusuoka", "dualnorm", "entropy"])
    def test_file_with_no_mass_exits_2(self, capsys, commands, tmp_path, command, suffix):
        # dualnorm and entropy exited 3: from_samples raised outside the input check
        path = tmp_path / ("z" + suffix)
        path.write_text('{"atoms": [[0, 0], [1, 0]], "density": [1.0, 1.0]}' if suffix == ".json"
                        else "value,weight,density\n0,0,1.0\n1,0,1.0\n", encoding="utf-8")
        argv = list(commands[command])
        argv[argv.index("--input") + 1] = str(path)
        assert run(capsys, argv) == (2, "", "error: probabilities must have positive sum\n")

    @pytest.mark.parametrize("command", ["risk", "sweep", "kusuoka", "dualnorm", "entropy"])
    def test_failing_stdout_exits_2(self, capsys, monkeypatch, commands, command):
        class Full(io.StringIO):
            def write(self, text):
                raise OSError(28, "No space left on device")

        monkeypatch.setattr(sys, "stdout", Full())
        code = main(commands[command])  # raised OSError out of main
        assert (code, capsys.readouterr().err) == (
            2, "error: cannot write stdout: [Errno 28] No space left on device\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["risk", "sweep", "kusuoka", "dualnorm", "entropy"])
    def test_stdout_on_a_full_device_exits_2_without_traceback(self, commands, command,
                                                               unbuffered):
        # exited 1 with a traceback; buffered stdout (Python's default off a
        # terminal) then failed again at interpreter exit, with status 120
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            proc = subprocess.run([sys.executable, "-m", "renyi_risk.cli", *commands[command]],
                                  env=env, stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=120)
        assert (proc.returncode, proc.stderr) == (
            2, "error: cannot write stdout: [Errno 28] No space left on device\n")


class TestOrderTokens:
    """Every command reads its orders with one parser; which orders it
    accepts is the library's to say."""

    @pytest.fixture
    def commands(self, sample_csv, density_csv):
        return {
            "risk": ["risk", "--input", sample_csv, "--alpha", "0.5", "--order"],
            "kusuoka": ["kusuoka", "--input", sample_csv, "--alpha", "0.5", "--order"],
            "dualnorm": ["dualnorm", "--input", density_csv, "--alpha", "0.5", "--order"],
            "entropy": ["entropy", "--input", density_csv, "--q"],
        }

    @pytest.mark.parametrize("command", ["risk", "kusuoka", "dualnorm", "entropy"])
    @pytest.mark.parametrize("token", ["abc", "", "nan", "infinity", "1e400", "-1e400"])
    def test_unreadable_or_non_finite_tokens_exit_3(self, capsys, commands, command, token):
        code, out, err = run(capsys, commands[command] + [token])
        assert (code, out) == (3, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["kusuoka", "dualnorm"])
    def test_order_zero_exits_3(self, capsys, commands, command):
        # risk: TestRisk; the entropy takes order 0: TestEntropyCommand
        code, out, _ = run(capsys, commands[command] + ["0"])
        assert (code, out) == (3, "")

    @pytest.mark.parametrize("command", ["risk", "entropy"])
    def test_inf_in_any_case_and_padding(self, capsys, commands, command):
        outs = [run(capsys, commands[command] + [token]) for token in ("inf", "INF", " Inf ")]
        assert outs[0][0] == 0
        assert outs[1:] == outs[:1] * 2


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
    ("density_zero_weight_row", b"value,weight,density\n0,0,1.0\n1,1,1.0\n2,1,1.0\n", True),
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
