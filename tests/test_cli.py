"""End-to-end tests of the command-line front end."""

import csv
import enum
import errno
import hashlib
import importlib
import importlib.util
import json
import math
import os
import random
import subprocess
import sys
import warnings
import xml.dom.minidom
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayeskit import cli, datasets, defects, outcomes
from bayeskit.cli import _json, build_parser, main

from oracles import _log10_exact, log10_bayes_factor_oracle, normalised_factor_oracle

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"

FAST_FIT = ["--grid", "60x40", "--alpha-range", "1,20", "--beta-range", "0.3,2"]


def one_point(alpha, beta):
    """The flags that fix the Weibull parameters: a fit on the one-point grid (alpha, beta)."""
    return ["--alpha-range", f"{alpha},{alpha}", "--beta-range", f"{beta},{beta}", "--grid", "1x1"]


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
                 "--rescale-b", "--hypothesis-group", "--out", "--config",
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
                ["--data", "--e-range", "--E-range", "--nmax",
                 "0.15,0.5", "0.7,0.95", "max(100, 10*found)",
                 "--alpha-range", "--beta-range", "--grid", "0.1,40", "400x300"],
            ),
            (
                "derived-plots",
                ["--data", "--at-most", "--prior", "--bins",
                 "--alpha-range", "--beta-range", "--grid", "0.1,40", "400x300"],
            ),
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


class _Colour(str, enum.Enum):
    RED = "red"


class _Level(enum.IntEnum):
    HIGH = 3


class _Text(str):
    def __str__(self):
        return "not the text"


class _Float(float):
    pass


class TestJsonWriter:
    """`_json` gives the text of `json.dumps(obj, indent=2, sort_keys=True)`; files add a newline."""

    SCALARS = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.integers(min_value=-(2**300), max_value=2**300),
        st.floats(),  # with NaN, both infinities and -0.0
        st.sampled_from([0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, 1.7e308]),
        st.floats().map(np.float64),
        st.text(),  # non-ASCII and control characters included
        st.text(st.characters(max_codepoint=0x20)),
    )
    TREES = st.recursive(
        SCALARS,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=4).map(tuple),
            st.dictionaries(st.text(), children, max_size=4),
        ),
        max_leaves=25,
    )

    @staticmethod
    def expected(obj) -> bytes:
        return (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode("utf-8")

    @settings(max_examples=300, deadline=None)
    @given(obj=TREES)
    def test_bytes_equal_json_dumps(self, obj):
        assert (_json(obj) + "\n").encode("utf-8") == self.expected(obj)

    @pytest.mark.parametrize("obj", [
        {}, [], (), [[]], {"": {}}, {"b": 1, "a": [True, 1, False, 0]}, {"\u00e9\x00\n": ["\u00fc", None]},
        [-0.0, 0.0, float("nan"), float("inf"), float("-inf")], 2**200, -(2**200), "\ud800",
        {"rows": [{"ci": (1.5, 2.5), "class_id": "c1", "found": 3, "per_method": None}]},
    ])
    def test_edge_cases(self, obj):
        assert (_json(obj) + "\n").encode("utf-8") == self.expected(obj)

    @pytest.mark.parametrize("obj", [
        _Colour.RED, _Level.HIGH, _Text("\u00e9x"), _Float(2.5), _Float("nan"), _Float("-inf"),
        {"a": [_Colour.RED, _Level.HIGH, _Text("t")], "b": (_Float("inf"),)},
    ])
    def test_subclasses_written_as_their_base_type(self, obj):
        # a str subclass is written as its text even where its __str__ says otherwise
        assert (_json(obj) + "\n").encode("utf-8") == self.expected(obj)

    def test_bundled_report_reproduced(self, tmp_path):
        assert run(["estimate-total-bugs", "--data", DATA / "demo_bugs.csv", "--out", tmp_path]) == 0
        report = (tmp_path / "report.json").read_bytes()
        assert self.expected(json.loads(report)) == report

    @pytest.mark.parametrize("obj", [
        np.int64(1), np.bool_(True), np.array([1.0]), b"x", object(), 1 + 2j, {1, 2},
        [1, {"a": np.float32(0.5)}], {"a": {"b": frozenset()}},
    ])
    def test_other_types_raise_type_error(self, obj):
        with pytest.raises(TypeError):
            json.dumps(obj, indent=2, sort_keys=True)
        with pytest.raises(TypeError, match="is not JSON serializable"):
            _json(obj)

    @pytest.mark.parametrize("key", [1, 1.5, None, True, (1, 2)])
    def test_non_str_keys_raise_type_error(self, key):
        with pytest.raises(TypeError, match="^keys must be str, not "):
            _json({"a": [{key: 1}]})


def full_parser_command(argv):
    """The command and flags as the full parser of every command reads them."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
    return args.command, args


class TestCommandParser:
    """`main` adds only the named command's options to the one `bayeskit` parser; what it prints,
    in help, usage and every error, is what the parser of every command prints."""

    COMMAND_CASES = [
        (command, case)
        for command, flag in [
            ("compare-outcomes", "--scheme"),
            ("compare-performance", "--metric"),
            ("fit-defects", "--prior"),
            ("estimate-total-bugs", "--prior"),
            ("derived-plots", "--prior"),
        ]
        for case in (
            ["--help"],
            ["-h", "--data", "x.csv"],
            ["--data", "x.csv", "--no-such-flag", "1"],
            ["--data"],
            ["--out"],
            [flag, "bogus", "--data", "x.csv"],
            [flag],
            ["--da", "x.csv", "leftover"],
            ["--", "x.csv"],
            [],
        )
    ]
    TOP_CASES = [[], ["-h"], ["--help"], ["-h", "fit-defects"], ["bogus"], ["bogus", "--help"],
                 ["--data", "x.csv"], ["fit-defect"]]

    @staticmethod
    def outcome(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        return code, out, err

    @pytest.mark.parametrize("argv", [[c, *case] for c, case in COMMAND_CASES] + TOP_CASES)
    def test_same_output_as_the_full_parser(self, argv, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", "80")
        monkeypatch.chdir(tmp_path)  # a run that gets as far as writing stays in here
        got = self.outcome(argv, capsys)
        monkeypatch.setattr(cli, "_parse_command", full_parser_command)
        assert got == self.outcome(argv, capsys)

    # a known command's usage line names every command through an explicit metavar, so it must
    # also wrap as the full parser's does on narrow and wide terminals
    @pytest.mark.parametrize("columns", ["40", "200"])
    @pytest.mark.parametrize("argv", [[c, *case] for c, case in COMMAND_CASES
                                      if case[:1] in (["--help"], ["-h"], ["--da"])] + TOP_CASES)
    def test_same_output_at_any_width(self, argv, columns, capsys, monkeypatch, tmp_path):
        monkeypatch.setenv("COLUMNS", columns)
        monkeypatch.chdir(tmp_path)
        got = self.outcome(argv, capsys)
        monkeypatch.setattr(cli, "_parse_command", full_parser_command)
        assert got == self.outcome(argv, capsys)

    @pytest.mark.parametrize("argv, code, text", [
        (["fit-defects", "--help"], 0, "usage: bayeskit fit-defects [-h]"),
        (["fit-defects", "--data"], 2, "bayeskit fit-defects: error: argument --data: expected one argument"),
        (["fit-defects", "--data", "x", "extra"], 2, "bayeskit: error: unrecognized arguments: extra"),
        (["bogus"], 2, "bayeskit: error: argument command: invalid choice: 'bogus'"),
        (["-h", "fit-defects"], 0, "usage: bayeskit [-h]"),
    ])
    def test_outcomes_pinned(self, argv, code, text, capsys):
        got, out, err = self.outcome(argv, capsys)
        assert got == code
        assert text in out + err

    def test_known_command_builds_one_parser(self, tmp_path, monkeypatch):
        added = []
        add_options = cli._add_options

        def record(parser, cls):
            added.append(cls)
            add_options(parser, cls)

        monkeypatch.setattr(cli, "_add_options", record)
        assert run(["derived-plots", "--data", DATA / "demo_bugs.csv", "--bins", "20",
                    "--out", tmp_path]) == 0
        assert (tmp_path / "report.json").is_file()
        assert added == [cli.DerivedPlotsConfig]


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

    def test_bundled_run_computes_each_group_once(self, tmp_path, monkeypatch):
        # 9 baselines x 4 schemes x 2 factors share one log-multinomial vector per group,
        # and each (baseline, scheme) case makes one likelihood pass for both its factors
        calls, passes = [], []
        log_multinomial = outcomes._log_multinomial
        log_likelihoods = outcomes._log_likelihoods

        def counted(counts, probs):
            calls.append(counts)
            return log_multinomial(counts, probs)

        def counted_pass(*args):
            passes.append(args)
            return log_likelihoods(*args)

        monkeypatch.setattr(outcomes, "_log_multinomial", counted)
        monkeypatch.setattr(outcomes, "_log_likelihoods", counted_pass)
        outcomes._grid_log_likelihoods.cache_clear()
        assert run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--simplex-step", "0.01",
             "--out", tmp_path]
        ) == 0
        assert calls == [(1, 6, 22), (0, 5, 13)]
        assert len(passes) == 36  # two factors per case, one pass

    def test_coarse_simplex_that_cannot_hold_the_data_fails(self, tmp_path, capsys):
        # at a step of 1 every grid distribution is a point mass on one category
        out = tmp_path / "out"
        args = ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
                "--baselines", DATA / "outcome_baselines.csv", "--simplex-step", "1"]
        assert run([*args, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err == "bayeskit: error: likelihood under the no-difference hypothesis is zero\n"
        assert not out.exists()

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

    def test_normalised_factors_beside_the_papers(self, tmp_path):
        code = run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--out", tmp_path,
             "--simplex-step", "0.05"]
        )
        assert code == 0
        factors = json.loads((tmp_path / "outcome_factors.json").read_text())
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]["factors"] == factors
        paper = read_csv(tmp_path / "outcome_factors.csv")
        normalised = read_csv(tmp_path / "outcome_factors_normalised.csv")
        assert normalised[0] == paper[0] and [r[0] for r in normalised] == [r[0] for r in paper]
        for row in normalised[1:]:
            for name, cell in zip(normalised[0][1:], row[1:]):
                got = factors[name][row[0]]
                assert set(got) == {"factor", "label", "log10_factor", "normalised_factor",
                                    "normalised_label", "log10_normalised_factor"}
                assert cell == cli._fmt6(got["normalised_factor"])
                assert got["normalised_label"] == outcomes.jeffreys_label(got["normalised_factor"])
                assert got["log10_normalised_factor"] == pytest.approx(
                    math.log10(got["normalised_factor"]), rel=1e-12)
                assert got["normalised_factor"] > got["factor"]
        # agile against the survey's agile baseline, uniform weights: "barely" better
        assert factors["A"]["uniform"]["normalised_label"] == "barely"

    def test_zero_normalised_factor_written_as_null(self, tmp_path):
        code = run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--out", tmp_path,
             "--baseline-set", "AT", "--scheme", "uniform", "--simplex-step", "0.25"]
        )
        assert code == 0
        got = json.loads((tmp_path / "outcome_factors.json").read_text())["AT"]["uniform"]
        assert got["normalised_factor"] == 0.0 and got["normalised_label"] == "negative"
        assert got["log10_normalised_factor"] is None
        assert read_csv(tmp_path / "outcome_factors_normalised.csv")[1] == ["uniform", "0"]

    def test_underflowing_normalised_factor_keeps_log10(self, tmp_path):
        # structured ahead of agile, the counts x200: the normalised factor underflows
        counts = {"agile": (3, 2, 0), "structured": (0, 2, 6)}
        rows = ["project_id,group,category"]
        for group, per in counts.items():
            for category, c in enumerate(per):
                rows += [f"{group}{category}_{i},{group},{category}" for i in range(200 * c)]
        data = tmp_path / "big.csv"
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        code = run(
            ["compare-outcomes", "--data", data, "--hypothesis-group", "agile",
             "--baselines", DATA / "outcome_baselines.csv", "--out", out,
             "--baseline-set", "T", "--scheme", "exp", "--simplex-step", "0.1"]
        )
        assert code == 0
        got = json.loads((out / "outcome_factors.json").read_text())["T"]["exp"]
        assert got["normalised_factor"] == 0.0 and got["normalised_label"] == "negative"
        want = normalised_factor_oracle(
            tuple(200 * c for c in counts["agile"]), tuple(200 * c for c in counts["structured"]),
            (Fraction(18, 100), Fraction(32, 100), Fraction(50, 100)), "exp", 0.1)
        assert got["log10_normalised_factor"] == pytest.approx(_log10_exact(want), abs=1e-9)

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

    def test_rescale_r_is_refused(self, tmp_path, capsys):
        # the baselines fix the number of category steps, so there is no flag or config key for it
        args = ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
                "--baselines", DATA / "outcome_baselines.csv"]
        assert "--rescale-r" not in build_parser("compare-outcomes").format_help()
        with pytest.raises(SystemExit) as exc:
            run([*args, "--out", tmp_path / "flag", "--rescale-r", "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --rescale-r 2" in capsys.readouterr().err
        config = tmp_path / "config.json"
        config.write_text('{"rescale_r": 2}')
        assert run([*args, "--out", tmp_path / "config", "--config", config]) == 1
        assert capsys.readouterr().err == (
            "bayeskit: error: compare-outcomes: unknown option(s) ['rescale_r']\n"
        )
        assert not (tmp_path / "flag").exists() and not (tmp_path / "config").exists()

    def test_outputs_do_not_depend_on_which_group_comes_first(self, tmp_path):
        # the structured rows first, with agile named as the hypothesis group: the same counts
        # meet the same hypotheses, so every factor keeps its bits
        header, *lines = (DATA / "project_outcomes.csv").read_text().splitlines()
        rows = sorted(lines, key=lambda line: line.split(",")[1] != "structured")
        assert rows[0].split(",")[1] == "structured" and rows != lines
        reordered = tmp_path / "reordered.csv"
        reordered.write_text("".join(f"{line}\n" for line in [header, *rows]))
        common = ["compare-outcomes", "--baselines", DATA / "outcome_baselines.csv",
                  "--simplex-step", "0.01"]
        original, moved = tmp_path / "original", tmp_path / "moved"
        assert run([*common, "--data", DATA / "project_outcomes.csv", "--out", original]) == 0
        assert run([*common, "--data", reordered, "--hypothesis-group", "agile",
                    "--out", moved]) == 0
        for name in ("outcome_factors.json", "outcome_factors.csv",
                     "outcome_factors_normalised.csv"):
            assert (original / name).read_bytes() == (moved / name).read_bytes()


class TestRepeatedNames:
    """A repeated name in a list option fails naming the flag, so the CSV and the JSON agree."""

    def test_repeated_flag_names_fail_before_writing(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--out", out,
             "--baseline-set", "A,A,T", "--scheme", "uniform,uniform"]
        )
        assert code == 1
        assert capsys.readouterr().err == "bayeskit: error: --baseline-set: repeated name in 'A,A,T'\n"
        assert not out.exists()

    def test_repeated_scheme_fails(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--out", out,
             "--scheme", "uniform, exp,uniform"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            "bayeskit: error: --scheme: repeated name in 'uniform, exp,uniform'\n"
        )
        assert not out.exists()

    def test_repeated_config_list_names_fail(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": str(DATA / "project_outcomes.csv"),
            "baselines": str(DATA / "outcome_baselines.csv"),
            "baseline_set": ["T", "AL", "T"],
        }))
        out = tmp_path / "out"
        assert run(["compare-outcomes", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == "bayeskit: error: --baseline-set: repeated name in 'T,AL,T'\n"
        assert not out.exists()

    @pytest.mark.parametrize("names, first, second", [
        ("T,TT,AT,TA", "T", "TT"), ("A,TA,AT,ATA", "TA", "ATA"), ("AT,TAT,AAT", "TAT", "AAT"),
    ])
    def test_names_of_one_baseline_fail_before_writing(self, tmp_path, capsys, names, first, second):
        # a composed name averages the sorted set of its letters
        out = tmp_path / "out"
        code = run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--out", out,
             "--baseline-set", names, "--scheme", "uniform", "--simplex-step", "0.1"]
        )
        assert code == 1
        assert capsys.readouterr().err == (
            f"bayeskit: error: --baseline-set: {first!r} and {second!r} name the same baseline\n"
        )
        assert not out.exists()

    def test_file_row_and_composition_of_its_letters_are_distinct(self, tmp_path):
        # AT is a row of the file; TA averages the rows A and T
        code = run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--out", tmp_path,
             "--baseline-set", "AT,TA", "--scheme", "exp", "--simplex-step", "0.1"]
        )
        assert code == 0
        [header, row] = read_csv(tmp_path / "outcome_factors.csv")
        assert header == ["scheme", "AT", "TA"] and row[1] != row[2]

    def test_distinct_names_keep_their_order(self, tmp_path):
        code = run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--out", tmp_path,
             "--baseline-set", "T,A", "--scheme", "exp,uniform", "--simplex-step", "0.1"]
        )
        assert code == 0
        rows = read_csv(tmp_path / "outcome_factors.csv")
        assert rows[0] == ["scheme", "T", "A"]
        assert [r[0] for r in rows[1:]] == ["exp", "uniform"]

    def test_baselines_disagreeing_on_k_fail(self, tmp_path, capsys):
        baselines = tmp_path / "baselines.csv"
        baselines.write_text(
            "category,k,probability\nX,0,0.5\nX,1,0.5\nY,0,0.2\nY,1,0.3\nY,2,0.5\n"
        )
        out = tmp_path / "out"
        args = ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
                "--baselines", baselines, "--out", out]
        assert run(args) == 1
        assert capsys.readouterr().err == "bayeskit: error: baselines disagree on K: [2, 3]\n"
        assert not out.exists()


class TestEmptyNames:
    """A list option that holds no name fails naming the flag, from a flag or from a config."""

    @pytest.mark.parametrize("option, text", [
        ("--scheme", ","), ("--scheme", ""), ("--baseline-set", " , "), ("--baseline-set", ",,"),
    ])
    def test_empty_flag_list_fails_before_writing(self, tmp_path, capsys, option, text):
        out = tmp_path / "out"
        code = run(
            ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
             "--baselines", DATA / "outcome_baselines.csv", "--out", out, option, text]
        )
        assert code == 1
        assert capsys.readouterr().err == f"bayeskit: error: {option}: no name in {text!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, flag", [("schemes", "--scheme"), ("baseline_set", "--baseline-set")])
    def test_empty_config_list_fails(self, tmp_path, capsys, key, flag):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": str(DATA / "project_outcomes.csv"),
            "baselines": str(DATA / "outcome_baselines.csv"),
            key: [],
        }))
        out = tmp_path / "out"
        assert run(["compare-outcomes", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == f"bayeskit: error: {flag}: no name in ''\n"
        assert not out.exists()


class TestComparePerformance:
    @pytest.mark.parametrize("metric", ["time", "memory"])
    def test_outputs_do_not_depend_on_the_unit(self, tmp_path, metric):
        # every value times 1024: a power of two scales exactly, so every ratio keeps its bits
        scaled = {}
        for name in ("demo_primary.csv", "demo_bench.csv"):
            header, *lines = (DATA / name).read_text().splitlines()
            rows = [line.rsplit(",", 1) for line in lines]
            scaled[name] = tmp_path / name
            scaled[name].write_text("".join(f"{line}\n" for line in [header, *(
                f"{rest},{float(value) * 1024!r}" for rest, value in rows)]))
        original, moved = tmp_path / "original", tmp_path / "moved"
        for primary, calib, out in ((DATA / "demo_primary.csv", DATA / "demo_bench.csv", original),
                                    (scaled["demo_primary.csv"], scaled["demo_bench.csv"], moved)):
            assert run(["compare-performance", "--primary", primary, "--calib", calib,
                        "--metric", metric, "--plots", "--out", out]) == 0
        plots = sorted(f"plots/{p.name}" for p in (original / "plots").glob("*.svg"))
        assert len(plots) == 28
        for name in ["summary.csv", "graph.dot", *plots]:
            assert (original / name).read_bytes() == (moved / name).read_bytes()
        expected, got = (json.loads((out / "report.json").read_text())["results"]
                         for out in (original, moved))
        assert got == expected

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

    @staticmethod
    def _write_languages(tmp_path, langs):
        primary, calib = tmp_path / "primary.csv", tmp_path / "calib.csv"
        primary.write_text("language,task,metric,value\n" + "".join(
            f"{lang},t{t},time,{1.0 + i + 0.3 * t}\n" for i, lang in enumerate(langs) for t in (1, 2)
        ))
        calib.write_text("language,task,input_size,variant,metric,value\n" + "".join(
            f"{lang},t{t},{size},v{v},time,{(1.0 + i + 0.3 * t + 0.1 * v) * size / 100}\n"
            for i, lang in enumerate(langs) for t in (1, 2) for size in (100, 1000) for v in (1, 2)
        ))
        return ["compare-performance", "--primary", primary, "--calib", calib, "--plots"]

    @pytest.mark.parametrize("langs,first,second", [
        (["A B", "A_B", "C"], "'A B' vs 'C'", "'A_B' vs 'C'"),
        (["A", "A_vs_B", "B_vs_C", "C"], "'A' vs 'B_vs_C'", "'A_vs_B' vs 'C'"),
    ])
    def test_plot_name_collision_fails_before_writing(self, tmp_path, capsys, langs, first, second):
        out = tmp_path / "out"
        assert run([*self._write_languages(tmp_path, langs), "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bayeskit: error: --plots:")
        assert first in err and second in err
        assert not out.exists()

    def test_distinct_plot_names_write_one_svg_per_pair(self, tmp_path):
        out = tmp_path / "out"
        assert run([*self._write_languages(tmp_path, ["A B", "C#", "C"]), "--out", out]) == 0
        assert sorted(p.name for p in (out / "plots").iterdir()) == [
            "A_B_vs_C.svg", "A_B_vs_Csharp.svg", "C_vs_Csharp.svg"]
        assert len(read_csv(out / "summary.csv")) - 1 == 3

    @staticmethod
    def _write_failing_third_language(tmp_path):
        # A vs B fits; C's t3 ratio of 180 lies far outside the calibration prior's support
        factors = {"A": 1, "B": 2, "C": 3}
        primary, calib = tmp_path / "primary.csv", tmp_path / "calib.csv"
        primary.write_text("language,task,metric,value\n" + "".join(
            f"{lang},t{t},time,{180.0 if (lang, t) == ('C', 3) else float(f)}\n"
            for lang, f in factors.items() for t in (1, 2, 3)
        ))
        calib.write_text("language,task,input_size,variant,metric,value\n" + "".join(
            f"{lang},t{t},{size},v{v},time,{f * size * (1 + 0.01 * v + 0.02 * t)}\n"
            for lang, f in factors.items() for t in (1, 2, 3) for size in (10, 100) for v in (1, 2)
        ))
        return ["compare-performance", "--primary", primary, "--calib", calib, "--plots"]

    def test_later_failing_pair_leaves_no_plots(self, tmp_path):
        out = tmp_path / "out"
        assert run([*self._write_failing_third_language(tmp_path), "--out", out]) == 1
        assert not out.exists()

    def test_pair_error_names_the_pair(self, tmp_path, capsys):
        args = [*self._write_failing_third_language(tmp_path), "--out", tmp_path / "out"]
        assert run(args) == 1
        assert capsys.readouterr().err == (
            "bayeskit: error: A vs C: grid does not overlap the sample support\n"
        )

    def test_bad_bandwidth_fails(self, tmp_path, capsys):
        code = run(
            ["compare-performance", "--primary", DATA / "demo_primary.csv",
             "--calib", DATA / "demo_bench.csv", "--metric", "memory",
             "--out", tmp_path, "--bandwidth", "not-a-number"]
        )
        assert code == 1
        assert "bandwidth" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-0.2"])
    def test_non_positive_or_non_finite_bandwidth_names_flag(self, tmp_path, capsys, value):
        code = run(
            ["compare-performance", "--primary", DATA / "demo_primary.csv",
             "--calib", DATA / "demo_bench.csv", "--out", tmp_path, "--bandwidth", value]
        )
        assert code == 1
        assert f"--bandwidth: cannot parse '{value}'" in capsys.readouterr().err
        assert not (tmp_path / "summary.csv").exists()

    def test_numeric_bandwidth_reaches_the_posterior(self, tmp_path):
        from bayeskit import datasets, speedup

        code = run(
            ["compare-performance", "--primary", DATA / "demo_primary.csv",
             "--calib", DATA / "demo_bench.csv", "--metric", "memory",
             "--out", tmp_path, "--bandwidth", "0.5"]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["parameters"]["bandwidth"] == 0.5
        first = report["results"]["summaries"][0]
        calib = datasets.load_benchmarks(DATA / "demo_bench.csv")["memory"]
        primary = datasets.load_primary(DATA / "demo_primary.csv")["memory"]
        want = speedup.compare_pair(calib, primary, *first["pair"], 0.95, bandwidth=0.5)
        assert (first["median"], first["mean"]) == (want.median, want.mean)
        auto = speedup.compare_pair(calib, primary, *first["pair"], 0.95)
        assert auto.mean != want.mean

    def test_auto_bandwidth_is_the_default(self, tmp_path):
        args = ["compare-performance", "--primary", DATA / "demo_primary.csv",
                "--calib", DATA / "demo_bench.csv", "--metric", "memory"]
        assert run([*args, "--out", tmp_path / "default"]) == 0
        assert run([*args, "--bandwidth", "auto", "--out", tmp_path / "auto"]) == 0
        names = sorted(p.name for p in (tmp_path / "default").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "auto").iterdir())
        for name in names:
            assert (tmp_path / "auto" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()

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
             *one_point(8, 0.9), "--e-steps", "3", "--E-steps", "2"]
        )
        assert code == 0
        rows = read_csv(tmp_path / "total_bugs.csv")
        assert rows[0] == ["class_id", "median", "ci_low", "ci_high", "per_method"]
        assert len(rows) - 1 == 21
        for row in rows[1:]:
            assert float(row[2]) <= float(row[1]) <= float(row[3])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha, beta", [(8, 0.9), (20, 1), (3, 0.5), (1e300, 0.01)])
    def test_one_point_grid_fixes_the_weibull_parameters(self, tmp_path, alpha, beta):
        # the fit on a one-point grid puts all its mass there, so the totals are the library's
        # at those parameters
        data = DATA / "demo_bugs.csv"
        assert run(["estimate-total-bugs", "--data", data, "--out", tmp_path,
                    *one_point(alpha, beta)]) == 0
        estimates = defects.estimate_class_totals(
            datasets.load_bug_counts(data), defects.WeibullParams(alpha, beta),
            defects.EffectivenessGrid(),
        )
        lines = ["class_id,median,ci_low,ci_high,per_method"] + [
            ",".join([e.class_id, *map(cli._fmt6, (e.median, e.ci_low, e.ci_high, e.per_method))])
            for e in estimates
        ]
        assert (tmp_path / "total_bugs.csv").read_text() == "\n".join(lines) + "\n"

    def test_derived_plots_outputs(self, tmp_path):
        code = run(
            ["derived-plots", "--data", DATA / "demo_bugs.csv", "--out", tmp_path,
             "--at-most", "3", "--bins", "40"]
        )
        assert code == 0
        payload = json.loads((tmp_path / "at_most_3.json").read_text())
        assert payload["at_most"] == 3
        assert (tmp_path / "at_most_3.svg").exists()

    def test_derived_plots_report_names_the_default_bins(self, tmp_path):
        assert run(["derived-plots", "--data", DATA / "demo_bugs.csv", "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["parameters"]["bins"] == report["results"]["bins"] == 100

    def test_effectiveness_range_reaching_one(self, tmp_path, capsys):
        # the fitted beta exceeds 1, so the e = 1 cell cannot produce a class with 0 found
        # bugs: that cell gets no weight, and only a grid of that cell alone fails
        args = ["estimate-total-bugs", "--data", DATA / "demo_bugs.csv"]
        assert run([*args, "--e-range", "0.5,1", "--out", tmp_path / "reach"]) == 0
        report = json.loads((tmp_path / "reach" / "report.json").read_text())
        assert report["results"]["beta"] > 1 and report["warnings"] == []
        assert 0 in [row["found"] for row in report["results"]["rows"]]
        one = ["--e-range", "1,1", "--E-range", "1,1", "--e-steps", "1", "--E-steps", "1"]
        assert run([*args, *one, "--out", tmp_path / "empty"]) == 1
        assert capsys.readouterr().err == (
            "bayeskit: error: found count 0 is impossible in every effectiveness cell "
            "with totals capped at 100\n"
        )
        assert not (tmp_path / "empty").exists()

    def test_outputs_do_not_depend_on_row_order_or_class_names(self, tmp_path):
        # shuffle the classes and rename each one: the fit and the derived pmf read only the
        # multiset of counts, and each total-bug row follows its class
        rng = random.Random(7)
        header, *lines = (DATA / "demo_bugs.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines]
        names = [f"k{i:02d}" for i in range(len(rows))]
        rng.shuffle(names)
        renamed = dict(zip((row[0] for row in rows), names))
        back = {new: old for old, new in renamed.items()}
        rng.shuffle(rows)
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("".join(f"{line}\n" for line in
                                    [header, *(",".join([renamed[r[0]], *r[1:]]) for r in rows)]))

        runs = {
            "fit": (["fit-defects", "--pareto-xmax", "60"],
                    ["weibull_fit.json", "marginal_alpha.svg", "marginal_beta.svg", "cdf_fan.svg"]),
            "totals": (["estimate-total-bugs"], []),
            "derived": (["derived-plots", "--at-most", "5"], ["at_most_5.json", "at_most_5.svg"]),
        }
        for name, (args, same_bytes) in runs.items():
            original, moved = tmp_path / "original" / name, tmp_path / "moved" / name
            for data, out in ((DATA / "demo_bugs.csv", original), (shuffled, moved)):
                assert run([*args, "--data", data, "--out", out, *FAST_FIT]) == 0
            for file in same_bytes:
                assert (original / file).read_bytes() == (moved / file).read_bytes()
            expected, got = (json.loads((out / "report.json").read_text())["results"]
                             for out in (original, moved))
            if name == "totals":
                for row in got["rows"]:
                    row["class_id"] = back[row["class_id"]]
                for results in (expected, got):
                    results["rows"].sort(key=lambda row: row["class_id"])
                (head, *want), (same_head, *have) = (read_csv(out / "total_bugs.csv")
                                                     for out in (original, moved))
                assert same_head == head
                assert sorted([back[row[0]], *row[1:]] for row in have) == sorted(want)
            assert got == expected


class TestGridEdgeWarnings:
    """A Weibull fit with more than 1e-3 of a marginal in an end cell of its grid is reported."""

    # every command fits on its own grid, so each names its own flag
    COMMANDS = ["fit-defects", "derived-plots", "estimate-total-bugs"]

    @staticmethod
    def bugs_csv(path, counts):
        rows = [f"c{i},{c},{c},10,100" for i, c in enumerate(counts)]
        path.write_text("\n".join(["class_id,found_simple,found_strong,public_methods,loc", *rows]) + "\n")
        return path

    @pytest.mark.parametrize("counts, edges", [
        # the MAP sits at the top of the default alpha grid, alpha = 40
        ([200, 150, 300], [("alpha", "last", "0.0265", "40"), ("beta", "first", "0.00553", "0.1")]),
        ([0] * 30, [("beta", "last", "0.0924", "3")]),
    ], ids=["large-counts", "zero-counts"])
    @pytest.mark.parametrize("command", COMMANDS)
    def test_fit_at_the_grid_edge_warns(self, tmp_path, command, counts, edges):
        data = self.bugs_csv(tmp_path / "bugs.csv", counts)
        out = tmp_path / "out"
        assert run([command, "--data", data, "--out", out]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["warnings"] == [
            f"Weibull {axis} posterior holds {mass} in its {end} grid cell ({axis} = {value}): "
            f"the fit is cut off at the grid's edge; widen --{axis}-range"
            for axis, end, mass, value in edges
        ]

    def test_fixed_parameters_fit_nothing_and_do_not_warn(self, tmp_path):
        data = self.bugs_csv(tmp_path / "bugs.csv", [200, 150, 300])
        args = ["estimate-total-bugs", "--data", data, "--out", tmp_path, *one_point(40, 2)]
        assert run(args) == 0
        assert json.loads((tmp_path / "report.json").read_text())["warnings"] == []

    def test_one_point_axes_do_not_warn(self, tmp_path):
        # a one-point axis holds all its mass in its only cell: it is fixed, not cut off
        data = self.bugs_csv(tmp_path / "bugs.csv", [200, 150, 300])
        for command in self.COMMANDS:
            out = tmp_path / command
            args = [command, "--data", data, "--out", out, "--grid", "1x1",
                    "--alpha-range", "40,40", "--beta-range", "0.1,0.1"]
            assert run(args) == 0
            assert json.loads((out / "report.json").read_text())["warnings"] == []

    @pytest.mark.parametrize("command", COMMANDS)
    def test_bundled_fit_does_not_warn(self, tmp_path, command):
        assert run([command, "--data", DATA / "demo_bugs.csv", "--out", tmp_path]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["warnings"] == []

    def test_every_command_widens_its_own_grid(self, tmp_path):
        # the fit cut off at alpha = 40 on the default grid lies inside the wider one, and the
        # total-bug estimates build on the MAP of that wider fit
        data = self.bugs_csv(tmp_path / "bugs.csv", [200, 150, 300])
        wide = ["--alpha-range", "1,1000", "--beta-range", "0.02,10"]
        reports = {}
        for command in self.COMMANDS:
            out = tmp_path / command
            assert run([command, "--data", data, "--out", out, *wide]) == 0
            reports[command] = json.loads((out / "report.json").read_text())
            assert reports[command]["warnings"] == []
            assert reports[command]["parameters"]["alpha_range"] == [1.0, 1000.0]
        fit_map = reports["fit-defects"]["results"]["map"]
        totals = reports["estimate-total-bugs"]["results"]
        assert [totals["alpha"], totals["beta"]] == [fit_map["alpha"], fit_map["beta"]]


class TestTotalBugCapWarning:
    """A total-bug posterior with more than 1e-3 of its mass at its cap is reported."""

    @pytest.mark.parametrize("nmax, cut_off", [
        (30, [(4, "0.00196"), (5, "0.00401"), (12, "0.0526")]),
        (40, [(12, "0.0117")]),
        (60, []),  # 6.8e-4 left at the cap for the found-12 class
    ])
    def test_cap_that_cuts_off_a_posterior_warns(self, tmp_path, nmax, cut_off):
        args = ["estimate-total-bugs", "--data", DATA / "demo_bugs.csv", "--nmax", str(nmax),
                "--out", tmp_path]
        assert run(args) == 0
        assert json.loads((tmp_path / "report.json").read_text())["warnings"] == [
            f"total-bug posterior of the classes with {found} found bugs holds {mass} in its last "
            f"cell (total = {nmax}): the estimate is cut off at the cap; raise --nmax"
            for found, mass in cut_off
        ]


class TestConfigAndErrors:
    def test_config_file_supplies_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": str(DATA / "demo_bugs.csv"),
            "alpha_range": [8.0, 8.0],
            "beta_range": [0.9, 0.9],
            "grid": [1, 1],
            "e_steps": 2,
            "strong_steps": 2,
        }))
        out = tmp_path / "out"
        code = run(["estimate-total-bugs", "--config", cfg, "--out", out])
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["parameters"]["alpha_range"] == [8.0, 8.0]

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "data": str(DATA / "demo_bugs.csv"),
            "alpha_range": [8.0, 8.0],
            "beta_range": [0.9, 0.9],
            "grid": [1, 1],
            "e_steps": 2,
            "strong_steps": 2,
        }))
        out = tmp_path / "out"
        code = run(
            ["estimate-total-bugs", "--config", cfg, "--out", out, *one_point(5, 1.1)]
        )
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["parameters"]["alpha_range"] == [5.0, 5.0]

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
        fixed = ["--data", DATA / "demo_bugs.csv", *one_point(8, 0.9)]
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

    @pytest.mark.parametrize(
        "command,flags,message",
        [
            ("estimate-total-bugs", one_point("inf", 1), "bad parameter grid"),
            ("estimate-total-bugs", one_point(5, "inf"), "bad parameter grid"),
            ("fit-defects", ["--alpha-range", "1,inf"], "bad parameter grid"),
            ("fit-defects", ["--beta-range", "0.1,inf"], "bad parameter grid"),
            ("fit-defects", ["--pareto-xmax", "inf"], "x_max must be positive and finite"),
            # every fitting command checks the grid it shares with fit-defects
            ("derived-plots", ["--alpha-range", "1,inf"], "bad parameter grid"),
            ("estimate-total-bugs", ["--alpha-range", "1,inf"], "bad parameter grid"),
        ],
    )
    def test_non_finite_weibull_inputs_fail_before_writing(
        self, tmp_path, capsys, command, flags, message
    ):
        out = tmp_path / "out"
        args = [command, "--data", DATA / "demo_bugs.csv", "--out", out, "--grid", "20x10", *flags]
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err.startswith("bayeskit: error:") and message in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--grid", "1x300"], "alpha range (0.1, 40.0) needs at least 2 grid steps, got 1"),
            (["--grid", "0x5"], "alpha range (0.1, 40.0) needs at least 2 grid steps, got 0"),
            (["--grid", "3x3", "--alpha-range", "5,5"],
             "alpha range (5.0, 5.0) needs exactly 1 grid step, got 3"),
            (["--grid", "20x1"], "beta range (0.1, 3.0) needs at least 2 grid steps, got 1"),
        ],
    )
    def test_weibull_grid_steps_must_fit_the_range(self, tmp_path, capsys, flags, message):
        out = tmp_path / "out"
        assert run(["fit-defects", "--data", DATA / "demo_bugs.csv", "--out", out, *flags]) == 1
        assert capsys.readouterr().err == f"bayeskit: error: {message}\n"
        assert not out.exists()

    def test_tiny_alpha_range_fits_without_overflow_warning(self, tmp_path):
        # every power sum but the corner's overflows: a likelihood of 0, not a warning
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run(["fit-defects", "--data", DATA / "demo_bugs.csv", "--out", tmp_path,
                        "--grid", "20x10", "--alpha-range", "1e-300,1e-299"])
        assert code == 0
        fit = json.loads((tmp_path / "weibull_fit.json").read_text())
        assert fit["map"] == {"alpha": 1e-299, "beta": 0.1}
        assert fit["credible_interval"]["alpha"] == [1e-299, 1e-299]
        assert fit["credible_interval"]["beta"] == [0.1, 0.1]

    def test_nmax_zero_names_the_cap(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["estimate-total-bugs", "--data", DATA / "demo_bugs.csv", "--out", out, "--nmax", "0"]
        assert run(args) == 1
        assert capsys.readouterr().err == (
            "bayeskit: error: n_max=0 leaves the Weibull prior no mass on totals 0..0\n"
        )
        assert not out.exists()

    def test_fixed_parameter_flags_are_gone(self, tmp_path, capsys):
        # a one-point grid fixes the parameters; --alpha is neither an option nor, since flags
        # must be spelled in full, an abbreviation of --alpha-range
        out = tmp_path / "out"
        args = ["estimate-total-bugs", "--data", DATA / "demo_bugs.csv", "--out", out,
                "--alpha", "8", "--beta", "0.9"]
        with pytest.raises(SystemExit) as exc:
            run(args)
        assert exc.value.code == 2
        assert "unrecognized arguments: --alpha 8 --beta 0.9" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"data": str(DATA / "demo_bugs.csv"), "alpha": 8, "beta": 0.9}))
        assert run(["estimate-total-bugs", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == (
            "bayeskit: error: estimate-total-bugs: unknown option(s) ['alpha', 'beta']\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_abbreviated_flags_are_refused(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            run([command, "--ou", out])
        assert exc.value.code == 2
        assert "unrecognized arguments: --ou" in capsys.readouterr().err
        assert not out.exists()

    def test_blank_public_methods_give_no_per_method_value(self, tmp_path):
        bugs = tmp_path / "bugs.csv"
        bugs.write_text(
            "class_id,found_simple,found_strong,public_methods,loc\nc1,2,5,4,100\nc2,1,3,,\n"
        )
        out = tmp_path / "out"
        code = run(
            ["estimate-total-bugs", "--data", bugs, "--out", out, *one_point(8, 0.9),
             "--e-steps", "2", "--E-steps", "2"]
        )
        assert code == 0
        rows = read_csv(out / "total_bugs.csv")
        assert rows[1][-1] != "" and rows[2][-1] == ""
        report = json.loads((out / "report.json").read_text())
        assert report["results"]["rows"][0]["per_method"] > 0
        assert report["results"]["rows"][1]["per_method"] is None

    @pytest.mark.parametrize("text", ["[1, 2]", '"fit"', "3"])
    def test_config_must_be_a_json_object(self, tmp_path, capsys, text):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        out = tmp_path / "out"
        assert run(["derived-plots", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err == f"bayeskit: error: {cfg}: config must be a JSON object\n"
        assert not out.exists()

    def test_malformed_config_reported(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out"
        for content, reason in [
            (b"{not json", "Expecting property name enclosed in double quotes: line 1 column 2 (char 1)"),
            (b"\xff\xfe", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ]:
            cfg.write_bytes(content)
            assert run(["derived-plots", "--config", cfg, "--out", out]) == 1
            assert capsys.readouterr().err == f"bayeskit: error: {cfg}: {reason}\n"
            assert not out.exists()

    def test_report_parameters_reproduce_every_bundled_job(self, tmp_path, monkeypatch):
        # a report's parameters, fed back in as the only config, rewrite every file of its run
        monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ first
        spec = importlib.util.spec_from_file_location(
            "run_all_analyses", ROOT / "scripts" / "run_all_analyses.py"
        )
        script = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(script)
        assert script.run(tmp_path / "flags") == 0
        jobs = sorted((tmp_path / "flags").iterdir())
        assert len(jobs) == 6
        for job in jobs:
            report = json.loads((job / "report.json").read_text())
            cfg = tmp_path / f"{job.name}.json"
            cfg.write_text(json.dumps(report["parameters"]))
            again = tmp_path / "config" / job.name
            assert run([report["command"], "--config", cfg, "--out", again]) == 0
            files = sorted(p.relative_to(job) for p in job.rglob("*") if p.is_file())
            assert sorted(p.relative_to(again) for p in again.rglob("*") if p.is_file()) == files
            for name in files:
                assert (again / name).read_bytes() == (job / name).read_bytes(), (job.name, name)

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


class TestReportAndInputs:
    """Behaviour every command shares: empty inputs fail cleanly; the report names the inputs."""

    @pytest.mark.parametrize("command", ["fit-defects", "estimate-total-bugs", "derived-plots"])
    def test_header_only_bugs_fails_before_writing(self, tmp_path, capsys, command):
        bugs = tmp_path / "bugs.csv"
        bugs.write_text("class_id,found_simple,found_strong,public_methods,loc\n")
        out = tmp_path / "out"
        assert run([command, "--data", bugs, "--out", out]) == 1
        assert capsys.readouterr().err == f"bayeskit: error: {bugs}: no classes\n"
        assert not out.exists()

    def test_header_only_baselines_fails_before_writing(self, tmp_path, capsys):
        baselines = tmp_path / "baselines.csv"
        baselines.write_text("category,k,probability\n")
        out = tmp_path / "out"
        args = ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
                "--baselines", baselines, "--out", out]
        assert run(args) == 1
        assert capsys.readouterr().err == (
            f"bayeskit: error: {baselines}: no baseline distributions\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "args,inputs",
        [
            (["compare-outcomes", "--data", DATA / "project_outcomes.csv",
              "--baselines", DATA / "outcome_baselines.csv", "--simplex-step", "0.1"],
             [DATA / "project_outcomes.csv", DATA / "outcome_baselines.csv"]),
            (["compare-performance", "--primary", DATA / "demo_primary.csv",
              "--calib", DATA / "demo_bench.csv", "--metric", "memory"],
             [DATA / "demo_primary.csv", DATA / "demo_bench.csv"]),
            (["fit-defects", "--data", DATA / "demo_bugs.csv", *FAST_FIT],
             [DATA / "demo_bugs.csv"]),
            (["estimate-total-bugs", "--data", DATA / "demo_bugs.csv", *one_point(8, 0.9),
              "--e-steps", "3", "--E-steps", "2"],
             [DATA / "demo_bugs.csv"]),
            (["derived-plots", "--data", DATA / "demo_bugs.csv", "--bins", "20"],
             [DATA / "demo_bugs.csv"]),
        ],
    )
    def test_report_inputs_are_the_input_csvs(self, tmp_path, args, inputs):
        assert run([*args, "--out", tmp_path]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["command"] == args[0]
        assert sorted(report["inputs"]) == sorted(map(str, inputs))


#: per command: flags of a quick run, and the files its runner puts into `files`
OUTPUT_SETS = {
    "compare-outcomes": (
        ["--data", DATA / "project_outcomes.csv", "--baselines", DATA / "outcome_baselines.csv",
         "--simplex-step", "0.1"],
        ["outcome_factors.csv", "outcome_factors.json", "outcome_factors_normalised.csv"],
    ),
    "compare-performance": (
        ["--primary", DATA / "demo_primary.csv", "--calib", DATA / "demo_bench.csv",
         "--metric", "memory", "--plots"],
        ["graph.dot", "summary.csv"],  # and one plots/<pair>.svg for each of the 28 pairs
    ),
    "fit-defects": (
        ["--data", DATA / "demo_bugs.csv", "--pareto-xmax", "60", *FAST_FIT],
        ["cdf_fan.svg", "marginal_alpha.svg", "marginal_beta.svg", "weibull_fit.json"],
    ),
    "estimate-total-bugs": (
        ["--data", DATA / "demo_bugs.csv", *one_point(8, 0.9), "--e-steps", "3", "--E-steps", "2"],
        ["total_bugs.csv"],
    ),
    "derived-plots": (
        ["--data", DATA / "demo_bugs.csv", "--at-most", "3", "--bins", "20"],
        ["at_most_3.json", "at_most_3.svg"],
    ),
}


class TestOneOutputSet:
    """A runner fills a mapping of file texts; `main` writes it, and only once the report is built."""

    @pytest.mark.parametrize("command", OUTPUT_SETS)
    def test_failed_report_leaves_no_output(self, tmp_path, capsys, monkeypatch, command):
        def vanished(path):
            raise FileNotFoundError(f"{path}: gone")

        monkeypatch.setattr(cli, "_sha256", vanished)
        out = tmp_path / "out"
        assert run([command, *OUTPUT_SETS[command][0], "--out", out]) == 1
        assert capsys.readouterr().err.startswith("bayeskit: error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", OUTPUT_SETS)
    def test_runner_fills_files_and_writes_nothing(self, tmp_path, monkeypatch, command):
        flags, names = OUTPUT_SETS[command]
        work, out = tmp_path / "work", tmp_path / "out"
        work.mkdir()
        monkeypatch.chdir(work)
        parsed, args = cli._parse_command([command, *map(str, flags), "--out", str(out)])
        files = {}
        cli.COMMANDS[command][1](cli._config_for(parsed, args), files)
        assert list(tmp_path.rglob("*")) == [work]
        plots = [name for name in files if name.startswith("plots/")]
        assert sorted(set(files) - set(plots)) == names
        assert len(plots) == (28 if command == "compare-performance" else 0)
        # the command writes those texts, byte for byte, and its report
        assert run([command, *flags, "--out", out]) == 0
        written = {p.relative_to(out).as_posix(): p.read_bytes()
                   for p in out.rglob("*") if p.is_file()}
        assert sorted(written) == sorted([*files, "report.json"])
        assert all(written[name] == text.encode("utf-8") for name, text in files.items())


class TestExtremeValues:
    """Values beyond the float range end in `bayeskit: error:` or in their limit, warning-free."""

    BIG = str(10**400)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("args,message", [
        (["estimate-total-bugs", "--e-steps", BIG], f"e grid step count {BIG} is too large"),
        (["fit-defects", "--grid", f"{BIG}x300"], f"alpha grid step count {BIG} is too large"),
        (["derived-plots", "--at-most", BIG], f"at-most count {BIG} is too large for a float"),
        # exp overflows to 0 at every found count: the fit finds the counts impossible
        (["estimate-total-bugs", *one_point(1e-300, 3)],
         "all log-weights are -inf: data impossible under every hypothesis"),
        (["fit-defects", "--pareto-xmax", "1e-320", *FAST_FIT], "the 80% point over x_max = 1e-320 "
         "is not finite at beta = "),
    ])
    def test_rejected_with_an_error(self, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        assert run([args[0], "--data", DATA / "demo_bugs.csv", *args[1:], "--out", out]) == 1
        assert capsys.readouterr().err.startswith(f"bayeskit: error: {message}")
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("args,message", [
        pytest.param(["compare-outcomes", "--data", DATA / "project_outcomes.csv",
                      "--baselines", DATA / "outcome_baselines.csv", "--simplex-step", "1e-200"],
                     "the simplex grid at step 1e-200 (", id="simplex-size"),
        pytest.param(["compare-outcomes", "--data", DATA / "project_outcomes.csv",
                      "--baselines", DATA / "outcome_baselines.csv", "--simplex-step", "1e-320"],
                     "step 1e-320 is too small: 1/step is beyond the float range", id="simplex-step"),
        pytest.param(["estimate-total-bugs", "--data", DATA / "demo_bugs.csv", "--nmax", BIG],
                     f"the e x E x total-bug grid (8 x 6 x {10**400 + 1} float64) needs ", id="nmax"),
        pytest.param(["derived-plots", "--data", DATA / "demo_bugs.csv", "--bins", BIG],
                     f"the grid of bin edges ({10**400 + 1} float64) needs ", id="bins"),
        pytest.param(["fit-defects", "--data", DATA / "demo_bugs.csv", "--beta-range", "1e-300,1e300"],
                     "the CDF fan has no finite 99% point at the low pick, beta = 1e-300", id="cdf-fan"),
        # the Weibull density at 0 is 1/alpha, beyond the float range, but its log (713.8) is
        # not: all mass sits at 0 bugs, which no class with found-strong bugs can have
        pytest.param(["estimate-total-bugs", "--data", DATA / "demo_bugs.csv",
                      *one_point(1e-310, 1)],
                     "all log-weights are -inf: data impossible under every hypothesis",
                     id="prior-density"),
    ])
    def test_size_or_step_beyond_floats_in_one_line(self, tmp_path, capsys, args, message):
        out = tmp_path / "out"
        assert run([*args, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"bayeskit: error: {message}") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_prior_density_that_overflows_only_on_the_way(self, tmp_path):
        # pdf(0) at alpha 1e300, beta 0.01 is about 7.58e6; its direct product overflows
        args = ["estimate-total-bugs", "--data", DATA / "demo_bugs.csv", *one_point(1e300, 0.01)]
        assert run([*args, "--out", tmp_path]) == 0
        assert json.loads((tmp_path / "report.json").read_text())["warnings"] == []

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_at_most_power_overflow_is_probability_one(self, tmp_path):
        n = 10**110
        args = ["derived-plots", "--data", DATA / "demo_bugs.csv", "--at-most", n, "--bins", "20"]
        assert run([*args, "--out", tmp_path]) == 0
        payload = json.loads((tmp_path / f"at_most_{n}.json").read_text())
        assert payload["mass"][-1] == 1.0 and payload["support"][-1] == pytest.approx(0.975)


class TestSystemErrors:
    """A failed read, write or allocation ends in one `bayeskit: error:` line and exit 1."""

    BUGS = DATA / "demo_bugs.csv"
    HUGE = str(10**17)  # 10**17 eight-byte elements lie beyond any 64-bit address space

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("args,message,left", [
        (["fit-defects", "--data", DATA], os.strerror(errno.EISDIR), None),
        (["fit-defects", "--data", BUGS, "--config", DATA], os.strerror(errno.EISDIR), None),
        pytest.param(["estimate-total-bugs", "--data", BUGS, "--nmax", HUGE],
                     f"the e x E x total-bug grid (8 x 6 x {10**17 + 1} float64) needs ", None,
                     id="nmax-beyond-memory"),
        pytest.param(["derived-plots", "--data", BUGS, "--bins", HUGE],
                     f"the grid of bin edges ({10**17 + 1} float64) needs ", None,
                     id="bins-beyond-memory"),
        # the analysis succeeds, but at_most_<n>.svg is longer than a file name may be;
        # a failure while writing keeps what was written before it
        (["derived-plots", "--data", BUGS, "--at-most", 10**300],
         os.strerror(errno.ENAMETOOLONG), []),
    ])
    def test_one_error_line(self, tmp_path, capsys, args, message, left):
        out = tmp_path / "out"
        assert run([*args, "--out", out]) == 1
        err = capsys.readouterr().err
        assert err.startswith("bayeskit: error: ") and message in err
        assert err.count("\n") == 1
        assert (list(out.iterdir()) if out.exists() else None) == left

    def test_failed_allocation(self, tmp_path, capsys, monkeypatch):
        message = "Unable to allocate 358. GiB for an array with shape (8, 6, 1000000001)"

        def allocate(*args):
            raise MemoryError(message)

        monkeypatch.setattr(cli.defects, "_log_factorials", allocate)
        out = tmp_path / "out"
        assert run(["estimate-total-bugs", "--data", self.BUGS, "--out", out]) == 1
        assert capsys.readouterr().err == f"bayeskit: error: {message}\n"
        assert not out.exists()

    def test_error_without_text_is_named(self, tmp_path, capsys, monkeypatch):
        # a MemoryError raised by Python itself carries no message
        def allocate(cfg, files):
            raise MemoryError()

        cls, _, summary = cli.COMMANDS["estimate-total-bugs"]
        monkeypatch.setitem(cli.COMMANDS, "estimate-total-bugs", (cls, allocate, summary))
        out = tmp_path / "out"
        assert run(["estimate-total-bugs", "--data", self.BUGS, "--out", out]) == 1
        assert capsys.readouterr().err == "bayeskit: error: MemoryError\n"
        assert not out.exists()


class TestGridTooLargeForMemory:
    """A grid larger than this machine's memory ends in one error line naming it, before it is built.

    Each command runs in a child process whose address space is capped at 3 GB,
    so a grid that is built after all fails there with `MemoryError`.
    """

    BUGS = DATA / "demo_bugs.csv"
    CASES = [
        (["compare-outcomes", "--data", DATA / "project_outcomes.csv",
          "--baselines", DATA / "outcome_baselines.csv", "--simplex-step", "0.00001"],
         "the simplex grid at step 1e-05 (5000150001 x 3 int64)", 5_000_150_001 * 3 * 8),
        (["fit-defects", "--data", BUGS, "--grid", "1000000x1000000"],
         "the alpha x beta grid (1000000 x 1000000 float64)", 10**12 * 8),
        (["estimate-total-bugs", "--data", BUGS, "--nmax", "1000000000"],
         "the e x E x total-bug grid (8 x 6 x 1000000001 float64)", 8 * 6 * (10**9 + 1) * 8),
        (["derived-plots", "--data", BUGS, "--bins", "10000000000"],
         "the grid of bin edges (10000000001 float64)", (10**10 + 1) * 8),
    ]
    CAPPED_MAIN = (
        "import resource, sys\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "cap = 3 * 10**9 if hard == resource.RLIM_INFINITY else min(3 * 10**9, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from bayeskit.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )

    @pytest.mark.parametrize("args,grid,need", CASES)
    def test_refused_by_name(self, tmp_path, args, grid, need):
        pytest.importorskip("resource")
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if memory >= need:
            pytest.skip(f"this machine's {memory} bytes of memory hold the grid")
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", self.CAPPED_MAIN, *map(str, args), "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith(f"bayeskit: error: {grid} needs ")
        assert "more than this machine's" in proc.stderr and proc.stderr.count("\n") == 1
        assert not out.exists()

    def test_baseline_categories_counted_not_listed(self, tmp_path):
        # k = 10**9 would cover 0..10**9 only with 10**9 + 1 rows: the check counts the rows,
        # where a list of every category would fail to allocate with no message
        pytest.importorskip("resource")
        baselines = tmp_path / "baselines.csv"
        baselines.write_text("category,k,probability\nA,0,0.5\nA,1000000000,0.5\n")
        out = tmp_path / "out"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, "-c", self.CAPPED_MAIN, "compare-outcomes",
             "--data", str(DATA / "project_outcomes.csv"), "--baselines", str(baselines),
             "--out", str(out)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr == (
            f"bayeskit: error: {baselines}: baseline 'A' does not cover categories 0..1000000000\n"
        )
        assert not out.exists()


def test_cli_import_leaves_scipy_out():
    # scipy is a test-only dependency; importing the program must not need it
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, bayeskit.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "False"


def test_cli_import_loads_no_xml_network_or_rational_stack():
    # only numpy and a short stdlib list: no XML, URL, HTTP, e-mail or rational-number
    # modules, and no OpenSSL (input digests come from CPython's built-in SHA-256)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; before = set(sys.modules); import bayeskit.cli; "
         "print('\\n'.join(sorted(set(sys.modules) - before)))"],
        capture_output=True, text=True, env=env, check=True,
    )
    loaded = set(proc.stdout.split())
    assert "bayeskit.cli" in loaded and "numpy" in loaded
    banned = ("xml", "urllib.request", "http.client", "email", "fractions", "decimal", "scipy",
              "_hashlib", "ssl")
    assert sorted(m for m in loaded if m in banned or m.partition(".")[0] in banned) == []


def test_whole_job_leaves_openssl_out(tmp_path):
    # a fit-defects run digests its input for report.json without loading OpenSSL's bindings
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    script = ("import sys; from bayeskit.cli import main; "
              f"code = main(['fit-defects', '--data', {str(DATA / 'demo_bugs.csv')!r}, "
              f"'--out', {str(tmp_path)!r}, '--grid', '60x40']); "
              "print(code, '_hashlib' in sys.modules, 'ssl' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.split() == ["0", "False", "False"]
    report = json.loads((tmp_path / "report.json").read_text())
    digest = hashlib.sha256((DATA / "demo_bugs.csv").read_bytes()).hexdigest()
    assert list(report["inputs"].values()) == [digest]


class TestDigest:
    """`cli._sha256` gives hashlib's digests from CPython's built-in SHA-256."""

    @pytest.mark.parametrize("content", [b"", b"\x00", b"a", bytes(range(256)) * 12289])
    def test_matches_hashlib(self, tmp_path, content):
        path = tmp_path / "input.csv"
        path.write_bytes(content)
        assert cli._sha256(path) == hashlib.sha256(content).hexdigest()

    @pytest.mark.parametrize("blocked", [(), ("_sha2",), ("_sha2", "_sha256")])
    def test_fallback_chain(self, tmp_path, monkeypatch, blocked):
        for name in blocked:
            monkeypatch.setitem(sys.modules, name, None)  # import raises ImportError
        source = hashlib
        for name in ("_sha2", "_sha256"):
            if name not in blocked and importlib.util.find_spec(name) is not None:
                source = importlib.import_module(name)
                break
        assert type(cli._new_sha256()) is type(source.sha256())
        path = tmp_path / "input.csv"
        path.write_bytes(b"class_id,found_simple\n" * 1000)
        assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_jobs_build_no_large_support_tuple(tmp_path, monkeypatch):
    # charts and summaries read a posterior's support array; only the 100-bin
    # derived pmf, whose points go into its JSON, builds the tuple
    from bayeskit.pmf import Pmf

    built = []
    tuple_of = Pmf.support.fget

    def spy(self):
        built.append(len(self))
        return tuple_of(self)

    monkeypatch.setattr(Pmf, "support", property(spy))
    perf = ["compare-performance", "--primary", DATA / "demo_primary.csv",
            "--calib", DATA / "demo_bench.csv", "--metric", "time", "--plots"]
    bugs = ["--data", DATA / "demo_bugs.csv"]
    for args in (perf, ["fit-defects", *bugs], ["derived-plots", *bugs, "--at-most", "5"]):
        assert run([*args, "--out", tmp_path / args[0]]) == 0
    assert built and max(built) <= 100


def test_cli_import_leaves_thread_pool_out():
    # the kernel starts plain threads; nothing the CLI imports loads concurrent.futures
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, bayeskit.cli; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True,
    )
    assert proc.stdout.strip() == "False"


BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_python(code, **env):
    """Standard output of `code` in a new interpreter on src/, with the BLAS thread
    variables unset except those given in `env`."""
    base = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARIABLES}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(base, PYTHONPATH=str(ROOT / "src"), **env), check=True)
    return proc.stdout


class TestLazyPackage:
    """`import bayeskit` loads no submodule; each public name loads its own on first use."""

    PUBLIC = [
        "AUTO", "BayesFactor", "BenchmarkDataset", "BenchmarkRecord", "BugCounts",
        "ComparisonSummary", "CredibleInterval", "DensityGrid", "EffectivenessGrid", "JointPmf2D",
        "OutcomeCounts", "OutcomeDistribution", "Pmf", "RelationshipGraph", "WeibullParams",
        "baseline_distribution", "bayes_factor", "better_than", "binomial_pmf", "calib_deltas",
        "calib_speedups", "class_total_bugs", "classify", "compare_pair", "defects", "density",
        "derived_prob_at_most", "effectiveness_posterior", "enumerate_simplex", "errors",
        "exclude_interval", "fit_weibull_posterior", "graph_to_dot", "iterate_update",
        "jeffreys_label", "kde", "likelihood_better", "likelihood_equal", "mixture",
        "multinomial_pmf", "outcomes", "pareto_fraction", "pmf", "primary_speedups", "ratio",
        "relationship_graph", "rescale_outcome", "scheme_weight", "scott_bandwidth", "speedup",
        "speedup_posterior", "to_pmf", "total_bugs_posterior", "update", "weibull_cdf",
        "weibull_pdf",
    ]

    def test_import_leaves_numpy_out(self):
        code = "import sys, bayeskit; print(bayeskit.__version__, 'numpy' in sys.modules)"
        assert _fresh_python(code).split() == ["0.1.0", "False"]

    def test_every_public_name_resolves(self):
        code = (
            "import json, sys, types, bayeskit\n"
            "names = list(bayeskit.__all__)\n"
            "listed = set(dir(bayeskit))\n"
            "homes = {}\n"
            "for name in names:\n"
            "    ns = {}\n"
            "    exec(f'from bayeskit import {name}', ns)\n"
            "    obj = ns[name]\n"
            "    assert obj is getattr(bayeskit, name), name\n"
            "    if isinstance(obj, types.ModuleType):\n"
            "        homes[name] = obj.__name__\n"
            "    elif hasattr(obj, '__module__') and obj.__module__.startswith('bayeskit.'):\n"
            "        assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
            "print(json.dumps([names, sorted(set(names) - listed), homes]))\n"
        )
        names, unlisted, homes = json.loads(_fresh_python(code))
        assert names == self.PUBLIC and unlisted == []
        assert homes == {m: f"bayeskit.{m}" for m in
                         ("defects", "density", "errors", "outcomes", "pmf", "speedup")}

    def test_star_import_and_submodules_not_listed(self):
        code = ("from bayeskit import *\n"
                "import bayeskit, bayeskit.datasets\n"
                "print(Pmf.__module__, 'datasets' in bayeskit.__all__, bayeskit.datasets.__name__)")
        assert _fresh_python(code).split() == ["bayeskit.pmf", "False", "bayeskit.datasets"]

    def test_unknown_name_raises_attribute_error_naming_it(self):
        code = ("import bayeskit\n"
                "try:\n"
                "    bayeskit.no_such_name\n"
                "except AttributeError as exc:\n"
                "    print(exc)\n"
                "try:\n"
                "    from bayeskit import no_such_name\n"
                "except ImportError as exc:\n"
                "    print(type(exc).__name__)\n")
        assert _fresh_python(code).splitlines() == [
            "module 'bayeskit' has no attribute 'no_such_name'", "ImportError"]


class TestBlasThreads:
    """A process that imports the CLI loads OpenBLAS single-threaded unless its caller chose."""

    REPORT = ("import os, bayeskit.cli\n"
              "print([os.environ.get(v) for v in ('OPENBLAS_NUM_THREADS', 'GOTO_NUM_THREADS', "
              "'OMP_NUM_THREADS')])")

    def test_unset_becomes_one(self):
        assert _fresh_python(self.REPORT).strip() == "['1', None, None]"

    @pytest.mark.parametrize("variable", BLAS_THREAD_VARIABLES)
    def test_callers_setting_is_left_alone(self, variable):
        want = [("2" if v == variable else None) for v in BLAS_THREAD_VARIABLES]
        assert _fresh_python(self.REPORT, **{variable: "2"}).strip() == repr(want)

    def test_library_import_keeps_blas_threads(self):
        code = "import os, bayeskit, numpy; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        assert _fresh_python(code).strip() == "None"

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
    def test_cli_process_has_one_thread(self):
        code = ("import os, sys, bayeskit.cli\n"
                "print('numpy' in sys.modules, len(os.listdir('/proc/self/task')))")
        assert _fresh_python(code).split() == ["True", "1"]
