"""End-to-end tests of the command-line front end."""

import csv
import json
import os
import subprocess
import sys
import xml.dom.minidom
from fractions import Fraction
from pathlib import Path

import pytest

from bayeskit.cli import build_parser, main

from oracles import log10_bayes_factor_oracle

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"

FAST_FIT = ["--grid", "60x40", "--alpha-range", "1,20", "--beta-range", "0.3,2"]


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestHelp:
    def test_top_level_lists_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for command in (
            "compare-outcomes",
            "compare-performance",
            "fit-defects",
            "estimate-total-bugs",
            "derived-plots",
        ):
            assert command in out

    @pytest.mark.parametrize(
        "command,flags",
        [
            (
                "compare-outcomes",
                ["--data", "--baselines", "--baseline-set", "--scheme", "--simplex-step",
                 "--rescale-b", "--rescale-r", "--hypothesis-group", "--out", "--config",
                 "0.05"],
            ),
            (
                "compare-performance",
                ["--primary", "--calib", "--metric", "--bandwidth", "--ci", "--out", "--plots"],
            ),
            (
                "fit-defects",
                ["--data", "--prior", "--alpha-range", "--beta-range", "--grid", "--pareto-xmax",
                 "0.1,40", "400x300"],
            ),
            (
                "estimate-total-bugs",
                ["--data", "--e-range", "--E-range", "--nmax", "--alpha", "--beta",
                 "0.15,0.5", "0.7,0.95", "max(100, 10*found)"],
            ),
            ("derived-plots", ["--data", "--at-most", "--prior", "--bins"]),
        ],
    )
    def test_subcommand_flags_documented(self, command, flags):
        parser = build_parser()
        sub = next(
            action for action in parser._actions if hasattr(action, "choices") and action.choices
        )
        # flags and the rendered defaults; help wraps lines at spaces
        text = " ".join(sub.choices[command].format_help().split())
        for flag in flags:
            assert flag in text

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().out


class TestCompareOutcomes:
    def test_full_grid_shape(self, tmp_path):
        code = run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--out", tmp_path,
             "--simplex-step", "0.05"]
        )
        assert code == 0
        rows = read_csv(tmp_path / "outcome_factors.csv")
        assert rows[0] == ["scheme", "A", "AIL", "AILT", "AIT", "AL", "ALT", "AT", "IT", "T"]
        assert [r[0] for r in rows[1:]] == ["uniform", "triangle", "power", "exp"]
        assert all(len(r) == 10 for r in rows)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["counts"]["agile"] == [1, 6, 22]

    def test_composed_baseline_from_singletons(self, tmp_path):
        # the file lacks a TA entry but holds the T and A singletons
        code = run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--out", tmp_path,
             "--baseline-set", "TA", "--scheme", "uniform", "--simplex-step", "0.05"]
        )
        assert code == 0
        factors = json.loads((tmp_path / "outcome_factors.json").read_text())
        assert "TA" in factors and "uniform" in factors["TA"]
        assert factors["TA"]["uniform"]["factor"] > 0

    def test_zero_factor_warned_and_labeled(self, tmp_path):
        # at step 0.25 no all-positive grid distribution beats this baseline,
        # so the better-hypothesis family cannot produce the data at all
        code = run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--out", tmp_path,
             "--baseline-set", "AT", "--scheme", "uniform", "--simplex-step", "0.25"]
        )
        assert code == 0
        factors = json.loads((tmp_path / "outcome_factors.json").read_text())
        assert factors["AT"]["uniform"]["factor"] == 0.0
        assert factors["AT"]["uniform"]["label"] == "negative"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["warnings"]

    def test_zero_factor_log10_written_as_null(self, tmp_path):
        code = run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--out", tmp_path,
             "--baseline-set", "AT", "--scheme", "uniform", "--simplex-step", "0.25"]
        )
        assert code == 0
        factors = json.loads((tmp_path / "outcome_factors.json").read_text())
        report = json.loads((tmp_path / "report.json").read_text())
        assert factors["AT"]["uniform"]["log10_factor"] is None
        assert report["results"]["factors"] == factors

    def test_underflowing_factor_keeps_log10_without_warning(self, tmp_path):
        # the bundled counts x200: the factor underflows to 0.0, but both
        # hypothesis families can produce the data, so nothing is wrong
        scale = 200
        counts = {"agile": (1, 6, 22), "structured": (0, 5, 13)}
        rows = ["project_id,group,category"]
        for group, per in counts.items():
            for category, c in enumerate(per):
                rows += [f"{group}{category}_{i},{group},{category}" for i in range(scale * c)]
        data = tmp_path / "big.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        code = run(
            ["compare-outcomes", "--data", data,
             "--baselines", DATA / "outcome_baselines.csv", "--out", out,
             "--baseline-set", "T", "--scheme", "uniform", "--simplex-step", "0.05"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["warnings"] == []
        got = json.loads((out / "outcome_factors.json").read_text())["T"]["uniform"]
        assert got["factor"] == 0.0 and got["label"] == "negative"
        want = log10_bayes_factor_oracle(
            tuple(scale * c for c in counts["agile"]),
            tuple(scale * c for c in counts["structured"]),
            (Fraction(18, 100), Fraction(32, 100), Fraction(50, 100)),
            "uniform",
            0.05,
        )
        assert got["log10_factor"] == pytest.approx(want, abs=1e-9)
        assert report["results"]["factors"]["T"]["uniform"] == got

    def test_unknown_baseline_fails(self, tmp_path, capsys):
        code = run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--out", tmp_path,
             "--baseline-set", "XQZ"]
        )
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_raw_outcomes_rescaled_end_to_end(self, tmp_path):
        raw = tmp_path / "raw.csv"
        rows = ["project_id,group,raw_outcome"]
        rows += [f"g{i},good,{score}" for i, score in enumerate([9, 10, 8, 7, 10])]
        rows += [f"b{i},bad,{score}" for i, score in enumerate([2, 5, 3])]
        raw.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        code = run(
            ["compare-outcomes", "--data", raw,
             "--baselines", DATA / "outcome_baselines.csv", "--out", out,
             "--baseline-set", "T", "--scheme", "uniform", "--rescale-b", "1",
             "--simplex-step", "0.05"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        # anchors 1/5.5/10: {2,3}->0, {5,7}->1, {8,9,10}->2
        assert report["results"]["counts"]["good"] == [0, 1, 4]
        assert report["results"]["counts"]["bad"] == [2, 1, 0]

    def test_rescale_r_conflicting_with_baselines_fails(self, tmp_path, capsys):
        code = run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--out", tmp_path,
             "--rescale-r", "4"]
        )
        assert code == 1
        assert "rescale-r" in capsys.readouterr().err


class TestComparePerformance:
    def test_demo_pairs_and_graph(self, tmp_path):
        code = run(
            ["compare-performance", "--primary", DATA / "demo_primary.csv",
             "--calib", DATA / "demo_bench.csv", "--metric", "time", "--out", tmp_path]
        )
        assert code == 0
        rows = read_csv(tmp_path / "summary.csv")
        assert rows[0] == ["pair", "ci_low", "ci_high", "median", "mean", "class"]
        assert len(rows) - 1 == 28  # C(8, 2) pairs
        dot = (tmp_path / "graph.dot").read_text()
        assert dot.startswith("digraph") and dot.rstrip().endswith("}")

    def test_summary_round_trips(self, tmp_path):
        run(
            ["compare-performance", "--primary", DATA / "demo_primary.csv",
             "--calib", DATA / "demo_bench.csv", "--metric", "memory", "--out", tmp_path]
        )
        rows = read_csv(tmp_path / "summary.csv")
        for row in rows[1:]:
            lang1, lang2 = row[0].split(" vs ")
            assert lang1 and lang2
            lo, hi, median, mean = map(float, row[1:5])
            assert lo <= hi
            assert row[5] in ("significant", "weak", "not")

    def test_plots_flag_writes_svgs(self, tmp_path):
        run(
            ["compare-performance", "--primary", DATA / "demo_primary.csv",
             "--calib", DATA / "demo_bench.csv", "--out", tmp_path, "--plots"]
        )
        svgs = sorted((tmp_path / "plots").glob("*.svg"))
        assert len(svgs) == 28
        xml.dom.minidom.parseString(svgs[0].read_text())

    def test_bad_bandwidth_fails(self, tmp_path, capsys):
        code = run(
            ["compare-performance", "--primary", DATA / "demo_primary.csv",
             "--calib", DATA / "demo_bench.csv", "--metric", "memory",
             "--out", tmp_path, "--bandwidth", "not-a-number"]
        )
        assert code == 1
        assert "bandwidth" in capsys.readouterr().err

    def test_missing_metric_fails(self, tmp_path, capsys):
        calib = tmp_path / "calib.csv"
        calib.write_text(
            "language,task,input_size,variant,metric,value\nC,t1,100,v1,time,1.0\n"
        )
        code = run(
            ["compare-performance", "--primary", DATA / "demo_primary.csv",
             "--calib", calib, "--metric", "memory", "--out", tmp_path]
        )
        assert code == 1
        assert "memory" in capsys.readouterr().err


class TestDefectCommands:
    def test_fit_defects_outputs(self, tmp_path):
        code = run(
            ["fit-defects", "--data", DATA / "demo_bugs.csv", "--out", tmp_path,
             "--pareto-xmax", "60", *FAST_FIT]
        )
        assert code == 0
        fit = json.loads((tmp_path / "weibull_fit.json").read_text())
        assert set(fit["map"]) == {"alpha", "beta"}
        assert set(fit["pareto"]["fractions"]) == {"low", "map", "high"}
        for name in ("marginal_alpha.svg", "marginal_beta.svg", "cdf_fan.svg"):
            # the cdf fan's axis label carries "<=", so parse rather than prefix-check
            xml.dom.minidom.parseString((tmp_path / name).read_text())

    def test_estimate_total_bugs_outputs(self, tmp_path):
        code = run(
            ["estimate-total-bugs", "--data", DATA / "demo_bugs.csv", "--out", tmp_path,
             "--alpha", "8", "--beta", "0.9", "--e-steps", "3", "--E-steps", "2"]
        )
        assert code == 0
        rows = read_csv(tmp_path / "total_bugs.csv")
        assert rows[0] == ["class_id", "median", "ci_low", "ci_high", "per_method"]
        assert len(rows) - 1 == 21
        for row in rows[1:]:
            assert float(row[2]) <= float(row[1]) <= float(row[3])

    def test_derived_plots_outputs(self, tmp_path):
        code = run(
            ["derived-plots", "--data", DATA / "demo_bugs.csv", "--out", tmp_path,
             "--at-most", "3", "--bins", "40"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "at_most_3.json").read_text())
        assert payload["at_most"] == 3
        assert (tmp_path / "at_most_3.svg").exists()


class TestConfigAndErrors:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": str(DATA / "demo_bugs.csv"),
            "alpha": 8.0,
            "beta": 0.9,
            "e_steps": 2,
            "strong_steps": 2,
        }))
        out = tmp_path / "out"
        code = run(["estimate-total-bugs", "--config", cfg, "--out", out])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["parameters"]["alpha"] == 8.0

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": str(DATA / "demo_bugs.csv"),
            "alpha": 8.0,
            "beta": 0.9,
            "e_steps": 2,
            "strong_steps": 2,
        }))
        out = tmp_path / "out"
        code = run(
            ["estimate-total-bugs", "--config", cfg, "--out", out, "--alpha", "5", "--beta", "1.1"]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["parameters"]["alpha"] == 5.0

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(DATA / "demo_bugs.csv"), "bogus": 1}))
        assert run(["derived-plots", "--config", cfg]) == 1
        assert "unknown option" in capsys.readouterr().err

    def test_invalid_config_value_reported(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(DATA / "demo_bugs.csv"), "prior": "flat"}))
        assert run(["derived-plots", "--config", cfg, "--out", tmp_path]) == 1
        assert "prior" in capsys.readouterr().err

    def test_config_values_parsed_like_flags(self, tmp_path):
        fixed = ["--data", DATA / "demo_bugs.csv", "--alpha", "8", "--beta", "0.9"]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"e_steps": "2", "strong_steps": "2"}))
        from_config, from_flags = tmp_path / "config", tmp_path / "flags"
        assert run(["estimate-total-bugs", *fixed, "--config", cfg, "--out", from_config]) == 0
        assert run(
            ["estimate-total-bugs", *fixed, "--e-steps", "2", "--E-steps", "2", "--out", from_flags]
        ) == 0
        assert (from_config / "total_bugs.csv").read_bytes() == (
            from_flags / "total_bugs.csv"
        ).read_bytes()
        params = [
            json.loads((out / "report.json").read_text())["parameters"]
            for out in (from_config, from_flags)
        ]
        assert params[0] == params[1]

    @pytest.mark.parametrize(
        "command,key,value,flag",
        [
            ("derived-plots", "at_most", 2.5, "--at-most"),
            ("derived-plots", "at_most", "five", "--at-most"),
            ("compare-performance", "plots", "no", "--plots"),
            ("compare-performance", "ci", "0.95x", "--ci"),
        ],
    )
    def test_bad_config_value_names_flag(self, tmp_path, capsys, command, key, value, flag):
        inputs = {
            "derived-plots": {"data": str(DATA / "demo_bugs.csv")},
            "compare-performance": {
                "primary": str(DATA / "demo_primary.csv"),
                "calib": str(DATA / "demo_bench.csv"),
            },
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**inputs[command], key: value}))
        out = tmp_path / "out"
        assert run([command, "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bayeskit: error:") and flag in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--at-most", "-3"], "at-most count must be nonnegative, got -3"),
            (["--at-most", "5", "--bins", "0"], "bin count must be at least 1, got 0"),
            (["--at-most", "5", "--bins", "-3"], "bin count must be at least 1, got -3"),
        ],
    )
    def test_derived_plots_rejects_bad_counts(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert run(["derived-plots", "--data", DATA / "demo_bugs.csv", "--out", out, *flags]) == 1
        assert capsys.readouterr().err == f"bayeskit: error: {message}\n"
        assert not out.exists()

    def test_malformed_config_reported(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["derived-plots", "--config", cfg, "--out", tmp_path]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file_exits_nonzero(self, tmp_path, capsys):
        code = run(["fit-defects", "--data", tmp_path / "nope.csv", "--out", tmp_path])
        assert code == 1
        assert "error" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["fit-defects"]) == 1
        assert "--data" in capsys.readouterr().err

    def test_report_traces_inputs(self, tmp_path):
        run(
            ["derived-plots", "--data", DATA / "demo_bugs.csv", "--out", tmp_path,
             "--at-most", "2"]
        )
        report = json.loads((tmp_path / "report.json").read_text())
        assert any(key.endswith("demo_bugs.csv") for key in report["inputs"])
        digest = next(iter(report["inputs"].values()))
        assert len(digest) == 64
        assert report["parameters"]["at_most"] == 2


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency; importing the program must not need it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bayeskit.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_thread_pool_out():
    # the kernel's thread pool is created, and its module imported, on first use only
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bayeskit.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "False"
