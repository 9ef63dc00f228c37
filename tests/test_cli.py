import csv
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import gnbp

from gnbp.cli import main, run_table1_study, run_validation_checks

FAST_CHAIN = [
    "--iterations", "60",
    "--burn-in", "20",
    "--thin", "2",
    "--a-grid-step", "0.005",
    "--p-grid-step", "0.005",
]


def run_cli(args):
    return main(list(args))


class TestEstimate:
    def test_report_and_draws(self, tmp_path, capsys):
        code = run_cli(
            ["estimate", "--dataset", "tcr-treg-diabetic-1", "--seed", "7",
             "--out", str(tmp_path)] + FAST_CHAIN
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["input"]["n"] == 97 and report["input"]["l"] == 14
        assert report["input"]["simpson_sample_estimate"] == pytest.approx(
            0.69351, abs=5e-5
        )
        assert report["draw_count"] == 20
        assert report["seed"] == 7
        for key in ("gamma0", "a", "p", "s_theta"):
            assert set(report["posterior"][key]) == {
                "mean", "median", "lo50", "hi50", "lo95", "hi95",
            }
        with (tmp_path / "draws.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "gamma0", "a", "p", "s_theta", "log_ecpf"]
        assert len(rows) == 21

    def test_report_json_round_trips(self, tmp_path):
        run_cli(
            ["estimate", "--dataset", "tcr-treg-healthy-1", "--seed", "3",
             "--out", str(tmp_path)] + FAST_CHAIN
        )
        text = (tmp_path / "report.json").read_text()
        report = json.loads(text)
        assert json.loads(json.dumps(report, sort_keys=True)) == report

    def test_deterministic_across_runs(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            code = run_cli(
                ["estimate", "--dataset", "tcr-treg-diabetic-1", "--seed", "11",
                 "--out", str(out)] + FAST_CHAIN
            )
            assert code == 0
        assert (out1 / "draws.csv").read_bytes() == (out2 / "draws.csv").read_bytes()

    def test_input_file(self, tmp_path):
        data = tmp_path / "counts.csv"
        data.write_text("1,2\n2,1\n3,2\n")
        code = run_cli(
            ["estimate", "--input", str(data), "--seed", "1",
             "--out", str(tmp_path)] + FAST_CHAIN
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["input"]["n"] == 10

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = run_cli(
            ["estimate", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)]
        )
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_dataset_exits_2(self, tmp_path):
        code = run_cli(
            ["estimate", "--dataset", "unknown", "--out", str(tmp_path)]
        )
        assert code == 2

    def test_malformed_file_exits_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1,2\n1,3\n")  # duplicate multiplicity
        code = run_cli(
            ["estimate", "--input", str(bad), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_invalid_init_exits_2_with_one_line(self, tmp_path, capsys):
        code = run_cli(
            ["estimate", "--dataset", "tcr-treg-diabetic-1", "--init-gamma0", "1",
             "--init-a", "2", "--init-p", "0.5", "--out", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("pair", ["[1, 3.7]", "[1, true]", "[2.5, 1]"])
    def test_non_integral_json_counts_exit_2(self, tmp_path, capsys, pair):
        data = tmp_path / "counts.json"
        data.write_text('{"counts": [' + pair + "]}")
        code = run_cli(["estimate", "--input", str(data), "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")

    # Both inputs below ran past 120 s while the diversity index was a
    # series over n; at 50 retained draws each now takes well under 1 s.
    def _check_bounded_cost(self, tmp_path, source):
        t0 = time.perf_counter()
        code = run_cli(
            ["estimate", *source, "--iterations", "100", "--burn-in", "50",
             "--out", str(tmp_path)]
        )
        elapsed = time.perf_counter() - t0
        assert code == 0
        with (tmp_path / "draws.csv").open() as fh:
            s_theta = [float(r["s_theta"]) for r in csv.DictReader(fh)]
        assert len(s_theta) == 50
        assert all(0.0 < s < 1.0 for s in s_theta)
        assert elapsed < 30.0

    def test_bounded_cost_est_tomato_fixed_discount(self, tmp_path):
        self._check_bounded_cost(tmp_path, ["--dataset", "est-tomato", "--a-mode", "fixed=-50"])

    def test_bounded_cost_one_huge_cluster(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("1000000,1\n")
        self._check_bounded_cost(tmp_path, ["--input", str(path)])

    @pytest.mark.slow
    def test_est_population_thinned_run(self, tmp_path):
        # the headline use case at full defaults: 2000 iterations thinned
        # by 5 over the last 1000 gives 200 retained draws, and the
        # posterior diversity should land near the population estimate
        code = run_cli(
            ["estimate", "--dataset", "est-tomato", "--thin", "5",
             "--seed", "1", "--out", str(tmp_path)]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["draw_count"] == 200
        s = report["posterior"]["s_theta"]
        assert abs(s["mean"] - 0.9993) < 5e-3


def test_import_leaves_scipy_integrate_unloaded():
    # scipy.integrate adds about 0.3 s to every command's start-up
    src = str(Path(gnbp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    code = "import sys, gnbp.cli; sys.exit('scipy.integrate' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestSimulate:
    def test_marginal_sampler_csv(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run_cli(
            ["simulate", "--gamma0", "1", "--a", "0.5", "--p", "0.5",
             "--count", "50", "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["draw", "n", "l", "sizes"]
        assert len(rows) == 51
        for row in rows[1:]:
            sizes = [int(s) for s in row[3].split()] if row[3] else []
            assert int(row[1]) == sum(sizes)
            assert int(row[2]) == len(sizes)

    def test_given_n_uses_sequential_sampler(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run_cli(
            ["simulate", "--gamma0", "1", "--a", "0", "--p", "0.5",
             "--count", "40", "--seed", "4", "--given-n", "10", "--out", str(out)]
        )
        assert code == 0
        with out.open() as fh:
            rows = list(csv.reader(fh))[1:]
        assert all(int(r[1]) == 10 for r in rows)

    def test_count_zero_emits_header_only(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = run_cli(
            ["simulate", "--gamma0", "1", "--a", "0.5", "--p", "0.5",
             "--count", "0", "--seed", "4", "--out", str(out)]
        )
        assert code == 0
        assert out.read_text().strip() == "draw,n,l,sizes"

    def test_invalid_discount_exits_2(self, tmp_path):
        code = run_cli(
            ["simulate", "--gamma0", "1", "--a", "1.5", "--p", "0.5",
             "--count", "1", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_deterministic_across_runs(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            run_cli(
                ["simulate", "--gamma0", "2", "--a", "-1", "--p", "0.4",
                 "--count", "200", "--seed", "21", "--out", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_stdout_default(self, capsys):
        code = run_cli(
            ["simulate", "--gamma0", "1", "--a", "0.5", "--p", "0.5",
             "--count", "2", "--seed", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("draw,n,l,sizes")


class TestValidate:
    def test_quick_level_passes(self, capsys):
        code = run_cli(["validate", "--level", "quick", "--seed", "0"])
        captured = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in captured
        assert "stirling-r-identity[n=500]" in captured

    def test_check_results_structure(self):
        checks = run_validation_checks(level="quick", seed=1)
        assert all({"name", "residual", "tol", "ok"} <= set(c) for c in checks)
        assert all(c["ok"] for c in checks)


class TestReproduceTable1:
    def test_single_replicate_smoke(self, tmp_path):
        code = run_cli(
            ["reproduce-table1", "--replicates", "1", "--size", "40",
             "--modes", "fixed=-1,free", "--seed", "5",
             "--iterations", "80", "--burn-in", "40", "--thin", "4",
             "--a-grid-step", "0.005", "--p-grid-step", "0.01",
             "--out", str(tmp_path)]
        )
        assert code == 0
        with (tmp_path / "table1.csv").open() as fh:
            agg = list(csv.DictReader(fh))
        assert [r["mode"] for r in agg] == ["fixed=-1", "free"]
        for r in agg:
            assert float(r["coverage95"]) in (0.0, 1.0)
            assert float(r["mean_bias"]) >= 0.0
        with (tmp_path / "table1_replicates.csv").open() as fh:
            detail = list(csv.DictReader(fh))
        assert len(detail) == 2
        assert all(int(r["n"]) == 40 for r in detail)

    def test_subsample_shared_across_modes(self):
        detail, _ = run_table1_study(
            replicates=1, size=30, modes=("fixed=-1", "free"), seed=9,
            iterations=40, burn_in=20, thin=2,
            a_grid_step=5e-3, p_grid_step=1e-2,
        )
        assert detail[0]["l"] == detail[1]["l"]

    def test_workers_do_not_change_results(self):
        kwargs = dict(
            replicates=2, size=25, modes=("free",), seed=13,
            iterations=40, burn_in=20, thin=2,
            a_grid_step=5e-3, p_grid_step=1e-2,
        )
        seq, agg_seq = run_table1_study(workers=1, **kwargs)
        par, agg_par = run_table1_study(workers=2, **kwargs)
        assert seq == par and agg_seq == agg_par

    def test_bad_modes_exit_2(self, tmp_path):
        code = run_cli(
            ["reproduce-table1", "--replicates", "1", "--modes", " ",
             "--out", str(tmp_path)]
        )
        assert code == 2
