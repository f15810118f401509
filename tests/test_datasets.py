"""Tests for CSV ingestion and schema validation."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bayeskit.datasets import (
    OutcomeTable,
    load_baselines,
    load_benchmarks,
    load_bug_counts,
    load_outcomes,
    load_primary,
)
from bayeskit.errors import DuplicateKey, InvalidValue, SchemaMismatch

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestHeaderValidation:
    def test_empty_file_with_header_is_empty_dataset(self, tmp_path):
        path = write(tmp_path, "bench.csv", "language,task,input_size,variant,metric,value\n")
        assert load_benchmarks(path) == {}

    def test_header_mismatch(self, tmp_path):
        path = write(tmp_path, "bench.csv", "lang,task,value\nC,t,1\n")
        with pytest.raises(SchemaMismatch):
            load_benchmarks(path)

    def test_empty_file_rejected(self, tmp_path):
        path = write(tmp_path, "bench.csv", "")
        with pytest.raises(SchemaMismatch):
            load_benchmarks(path)


class TestRowValidation:
    def test_duplicate_benchmark_key_names_row(self, tmp_path):
        path = write(
            tmp_path,
            "bench.csv",
            "language,task,input_size,variant,metric,value\n"
            "C,t1,100,v1,time,1.0\n"
            "C,t1,100,v1,time,2.0\n",
        )
        with pytest.raises(DuplicateKey, match="line 3"):
            load_benchmarks(path)

    def test_nonpositive_measurement_names_row(self, tmp_path):
        path = write(
            tmp_path,
            "primary.csv",
            "language,task,metric,value\nC,t1,time,0.5\nGo,t1,time,-2\n",
        )
        with pytest.raises(InvalidValue, match="line 3"):
            load_primary(path)

    def test_outcome_raw_range_enforced(self, tmp_path):
        path = write(
            tmp_path,
            "outcomes.csv",
            "project_id,group,raw_outcome\np1,agile,11\n",
        )
        with pytest.raises(InvalidValue, match="line 2"):
            load_outcomes(path)

    def test_duplicate_project_rejected(self, tmp_path):
        path = write(
            tmp_path,
            "outcomes.csv",
            "project_id,group,raw_outcome\np1,agile,5\np1,agile,6\n",
        )
        with pytest.raises(DuplicateKey, match="line 3"):
            load_outcomes(path)

    def test_baseline_probability_bounds(self, tmp_path):
        path = write(
            tmp_path,
            "base.csv",
            "category,k,probability\nA,0,0.5\nA,1,1.5\n",
        )
        with pytest.raises(InvalidValue, match="line 3"):
            load_baselines(path)

    def test_baseline_missing_category_index(self, tmp_path):
        path = write(
            tmp_path,
            "base.csv",
            "category,k,probability\nA,0,0.4\nA,2,0.6\n",
        )
        with pytest.raises(InvalidValue):
            load_baselines(path)

    def test_bug_counts_optional_fields(self, tmp_path):
        path = write(
            tmp_path,
            "bugs.csv",
            "class_id,found_simple,found_strong,public_methods,loc\nc1,2,4,,\nc2,0,1,12,300\n",
        )
        rows = load_bug_counts(path)
        assert rows[0].public_methods is None and rows[0].loc is None
        assert rows[1].public_methods == 12


class TestSharedRowCheck:
    @pytest.mark.parametrize(
        "name,text,loader",
        [
            ("outcomes.csv", "project_id,group,raw_outcome\np1,agile,5\np2,agile\n", load_outcomes),
            ("base.csv", "category,k,probability\nA,0,0.5\nA,1,0.5,x\n", load_baselines),
            ("bench.csv", "language,task,input_size,variant,metric,value\n"
             "C,t1,100,v1,time,1.0\nC,t1,100,v2,time\n", load_benchmarks),
            ("primary.csv", "language,task,metric,value\nC,t1,time,1\nC,t2,time,1,9\n",
             load_primary),
            ("bugs.csv", "class_id,found_simple,found_strong,public_methods,loc\nc1,1,2,,\nc2,1\n",
             load_bug_counts),
        ],
    )
    def test_wrong_field_count_names_row_and_header_width(self, tmp_path, name, text, loader):
        width = len(text.splitlines()[0].split(","))
        with pytest.raises(InvalidValue, match=f"line 3: expected {width} fields"):
            loader(write(tmp_path, name, text))

    def test_fields_stripped_and_blank_rows_skipped(self, tmp_path):
        path = write(
            tmp_path,
            "primary.csv",
            "language, task ,metric,value\n C , t1 , time , 2.5 \n\n Go ,t1,time,1\n",
        )
        (record, other) = load_primary(path)["time"].records
        assert (record.language, record.task, record.value) == ("C", "t1", 2.5)
        assert (record.input_size, record.variant) == (1.0, "best")
        assert other.language == "Go"

    def test_primary_duplicate_names_file_columns_only(self, tmp_path):
        path = write(
            tmp_path,
            "primary.csv",
            "language,task,metric,value\nC,t1,time,1\nC,t1,time,2\n",
        )
        with pytest.raises(DuplicateKey) as exc:
            load_primary(path)
        assert str(exc.value).endswith("line 3: duplicate key ('C', 't1', 'time')")

    def test_bench_duplicate_names_file_columns(self, tmp_path):
        path = write(
            tmp_path,
            "bench.csv",
            "language,task,input_size,variant,metric,value\n"
            "C,t1,100,v1,time,1.0\nC,t1,1e2,v1,time,2.0\n",
        )
        with pytest.raises(DuplicateKey) as exc:
            load_benchmarks(path)
        assert str(exc.value).endswith("line 3: duplicate key ('C', 't1', 100.0, 'v1', 'time')")


class TestReaderRules:
    """Whitespace-only optional fields, range errors, and which offending line is reported."""

    BUGS = "class_id,found_simple,found_strong,public_methods,loc\n"
    PRIMARY = "language,task,metric,value\n"

    def test_whitespace_only_optional_fields_are_blank(self, tmp_path):
        (row,) = load_bug_counts(write(tmp_path, "bugs.csv", self.BUGS + "c1,1,2, , \n"))
        assert (row.found_simple, row.found_strong, row.public_methods, row.loc) == (1, 2, None, None)

    def test_range_error_carries_no_context(self, tmp_path):
        with pytest.raises(InvalidValue, match="line 2: loc='0' must be >= 1") as caught:
            load_bug_counts(write(tmp_path, "bugs.csv", self.BUGS + "c1,1,2,3,0\n"))
        assert caught.value.__context__ is None

    @pytest.mark.parametrize("loader, header, good, bad_value, short, value_message", [
        (load_bug_counts, BUGS, "c0,1,1,,", "c1,x,1,,", "c2,1",
         "found_simple='x' is not an integer"),
        (load_primary, PRIMARY, "C,t0,time,1", "C,t1,time,abc", "C,t2,time",
         "value='abc' is not a number"),
    ])
    def test_first_offending_line_wins(self, tmp_path, loader, header, good, bad_value, short,
                                       value_message):
        width = len(header.split(","))
        path = write(tmp_path, "a.csv", header + "\n".join([bad_value, short, good]) + "\n")
        with pytest.raises(InvalidValue) as caught:
            loader(path)
        assert str(caught.value) == f"{path} line 2: {value_message}"
        path = write(tmp_path, "b.csv", header + "\n".join([short, bad_value, good]) + "\n")
        with pytest.raises(InvalidValue) as caught:
            loader(path)
        assert str(caught.value) == f"{path} line 2: expected {width} fields, got {len(short.split(','))}"


def test_utf8_read_whatever_the_locale(tmp_path):
    # under the C locale without UTF-8 mode, Python's default encoding is ASCII
    rows = (DATA / "demo_bugs.csv").read_text(encoding="utf-8").splitlines()
    rows[1] = "Klasse_ä" + rows[1][rows[1].index(","):]
    data = write(tmp_path, "bugs.csv", "\n".join(rows) + "\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), LC_ALL="C", PYTHONUTF8="0",
               PYTHONCOERCECLOCALE="0")
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "bayeskit", "estimate-total-bugs", "--data", str(data),
         "--out", str(out)],
        capture_output=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    with open(out / "total_bugs.csv", newline="", encoding="utf-8") as fh:
        assert "Klasse_ä" in {row[0] for row in csv.reader(fh)}


class TestNonFiniteNumbers:
    @pytest.mark.parametrize("raw", ["inf", "-inf", "nan", "1e999"])
    def test_primary_value_names_line_and_field(self, tmp_path, raw):
        path = write(tmp_path, "primary.csv", f"language,task,metric,value\nC,t1,time,1\nC,t2,time,{raw}\n")
        with pytest.raises(InvalidValue, match=f"line 3: value={raw!r} is not finite"):
            load_primary(path)

    @pytest.mark.parametrize("field,row", [
        ("input_size", "C,t1,{},v1,time,1.0"),
        ("value", "C,t1,100,v1,time,{}"),
    ])
    @pytest.mark.parametrize("raw", ["inf", "nan", "NaN", "Infinity"])
    def test_bench_number_names_line_and_field(self, tmp_path, field, row, raw):
        path = write(
            tmp_path,
            "bench.csv",
            "language,task,input_size,variant,metric,value\n" + row.format(raw) + "\n",
        )
        with pytest.raises(InvalidValue, match=f"line 2: {field}={raw!r} is not finite"):
            load_benchmarks(path)

    def test_baseline_probability_names_line_and_field(self, tmp_path):
        path = write(tmp_path, "base.csv", "category,k,probability\nA,0,nan\n")
        with pytest.raises(InvalidValue, match="line 2: probability='nan' is not finite"):
            load_baselines(path)


class TestErrorsNameTheirPlace:
    """Each rejected row names its file, line and column (or, past the rows, what it checks)."""

    BUGS = "class_id,found_simple,found_strong,public_methods,loc\n"
    OUTCOMES = "project_id,group,category\np1,agile,2\np2,structured,{}\n"

    @pytest.mark.parametrize("name, text, loader, error, message", [
        ("bench.csv", "language,task,input_size,variant,metric,value\nC,t1,100,v1,time,1\nC,t2,abc,v1,time,1\n",
         load_benchmarks, InvalidValue, "line 3: input_size='abc' is not a number"),
        ("bugs.csv", BUGS + "c1,x,1,,\n", load_bug_counts, InvalidValue,
         "line 2: found_simple='x' is not an integer"),
        ("bugs.csv", BUGS + "c1,1,1,3,10\nc2,1,1,0,10\n", load_bug_counts, InvalidValue,
         "line 3: public_methods='0' must be >= 1"),
        ("bugs.csv", BUGS + "c1,1,2,3,0\n", load_bug_counts, InvalidValue, "line 2: loc='0' must be >= 1"),
        ("bugs.csv", BUGS + "c1,1,-2,3,10\n", load_bug_counts, InvalidValue,
         "line 2: found_strong='-2' must be >= 0"),
        # a blank line is skipped but still counted
        ("bugs.csv", BUGS + "c1,1,2,,\n\nc2,x,1,,\n", load_bug_counts, InvalidValue,
         "line 4: found_simple='x' is not an integer"),
        ("bugs.csv", BUGS + "c1,1,1,,\nc1,2,2,,\n", load_bug_counts, DuplicateKey,
         "line 3: duplicate class_id 'c1'"),
        ("base.csv", "category,k,probability\nT,0,0.5\nT,1,0.5\nT,0,0.25\n", load_baselines, DuplicateKey,
         "line 4: duplicate ('T', k=0)"),
    ])
    def test_row_errors_name_file_line_and_column(self, tmp_path, name, text, loader, error, message):
        path = write(tmp_path, name, text)
        with pytest.raises(error) as caught:
            loader(path)
        assert str(caught.value) == f"{path} {message}"

    def test_baseline_that_does_not_sum_to_one_names_file_and_baseline(self, tmp_path):
        path = write(tmp_path, "base.csv", "category,k,probability\nA,0,0.5\nA,1,0.5\nB,0,0.5\nB,1,0.4\n")
        with pytest.raises(InvalidValue) as caught:
            load_baselines(path)
        assert str(caught.value) == f"{path}: baseline 'B': probabilities sum to 0.9, not 1"

    def test_unknown_hypothesis_group_named(self, tmp_path):
        table = load_outcomes(write(tmp_path, "outcomes.csv", self.OUTCOMES.format(0)))
        with pytest.raises(InvalidValue, match=r"^hypothesis group 'waterfall' not among \('agile', 'structured'\)$"):
            table.to_counts(3, hypothesis_group="waterfall")

    def test_category_out_of_range_named(self, tmp_path):
        path = write(tmp_path, "outcomes.csv", self.OUTCOMES.format(5))
        table = load_outcomes(path)
        assert table.to_counts(6).counts_b == (0, 0, 0, 0, 0, 1)
        with pytest.raises(InvalidValue) as caught:
            table.to_counts(3)
        assert str(caught.value) == f"{path} line 3: project 'p2': category 5 outside 0..2"

    def test_category_line_skips_blank_rows(self, tmp_path):
        path = write(tmp_path, "outcomes.csv", "project_id,group,category\np1,agile,2\n\np2,structured,7\n")
        with pytest.raises(InvalidValue) as caught:
            load_outcomes(path).to_counts(3)
        assert str(caught.value) == f"{path} line 4: project 'p2': category 7 outside 0..2"

    def test_table_built_in_code_names_the_project(self):
        table = OutcomeTable((("p1", "agile", 2), ("p2", "structured", 5)), binned=True)
        assert table.to_counts(6).counts_a == (0, 0, 1, 0, 0, 0)
        with pytest.raises(InvalidValue) as caught:
            table.to_counts(3)
        assert str(caught.value) == "project 'p2': category 5 outside 0..2"

    def test_group_count_names_the_file(self, tmp_path):
        path = write(tmp_path, "outcomes.csv", "project_id,group,category\np1,agile,2\n")
        with pytest.raises(InvalidValue) as caught:
            load_outcomes(path).to_counts(3)
        assert str(caught.value) == f"{path}: expected exactly two groups, found ('agile',)"


class TestOutcomeBinning:
    def test_raw_rows_rescaled(self, tmp_path):
        path = write(
            tmp_path,
            "outcomes.csv",
            "project_id,group,raw_outcome\n"
            "p1,agile,10\np2,agile,5\np3,structured,1\np4,structured,9\n",
        )
        counts = load_outcomes(path).to_counts(3, rescale_b=1)
        assert counts.counts_a == (0, 1, 1)
        assert counts.counts_b == (1, 0, 1)
        assert counts.label_a == "agile"

    def test_hypothesis_group_selects_first_factor(self, tmp_path):
        path = write(
            tmp_path,
            "outcomes.csv",
            "project_id,group,category\np1,agile,2\np2,structured,0\n",
        )
        counts = load_outcomes(path).to_counts(3, hypothesis_group="structured")
        assert counts.label_a == "structured"
        assert counts.counts_a == (1, 0, 0)

    def test_two_groups_required(self, tmp_path):
        path = write(tmp_path, "outcomes.csv", "project_id,group,category\np1,agile,2\n")
        with pytest.raises(InvalidValue):
            load_outcomes(path).to_counts(3)


class TestBundledFixtures:
    def test_outcomes_fixture_counts(self):
        table = load_outcomes(DATA / "project_outcomes.csv")
        # independent tally straight from the file text
        lines = (DATA / "project_outcomes.csv").read_text().strip().splitlines()[1:]
        assert len(table.rows) == len(lines) == 47
        counts = table.to_counts(3)
        assert counts.label_a == "agile"
        assert sum(counts.counts_a) == 29
        assert sum(counts.counts_b) == 18

    def test_baselines_fixture(self):
        baselines = load_baselines(DATA / "outcome_baselines.csv")
        assert sorted(baselines) == ["A", "AIL", "AILT", "AIT", "AL", "ALT", "AT", "IT", "T"]
        assert baselines["A"].probs == pytest.approx((0.07, 0.30, 0.63))

    def test_bench_fixture_counts(self):
        tables = load_benchmarks(DATA / "demo_bench.csv")
        lines = (DATA / "demo_bench.csv").read_text().strip().splitlines()[1:]
        assert sum(len(t.records) for t in tables.values()) == len(lines)
        assert sorted(tables) == ["memory", "time"]
        assert len(tables["time"].languages()) == 8

    def test_primary_fixture_counts(self):
        tables = load_primary(DATA / "demo_primary.csv")
        lines = (DATA / "demo_primary.csv").read_text().strip().splitlines()[1:]
        assert sum(len(t.records) for t in tables.values()) == len(lines)

    def test_bugs_fixture_counts(self):
        rows = load_bug_counts(DATA / "demo_bugs.csv")
        assert len(rows) == 21
        assert all(r.found_strong >= 0 for r in rows)
