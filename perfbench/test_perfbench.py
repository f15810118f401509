"""Self-tests of the benchmark: generator, output checks, failure accounting, tracing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def reference(name: str) -> dict:
    return check.load_json(HERE / "reference" / f"{name}.json")


# -- generator -------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["speedup-scale", "defects-scale"])
def test_generator_is_byte_stable_for_a_seed(tmp_path, workload):
    first = gen.generate(workload, 7, tmp_path / "a")
    second = gen.generate(workload, 7, tmp_path / "b")
    other = gen.generate(workload, 8, tmp_path / "c")
    assert first == second
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert any((tmp_path / "a" / n).read_bytes() != (tmp_path / "c" / n).read_bytes()
               for n in names)
    assert other.keys() == first.keys()


def test_generator_shapes(tmp_path):
    speed = gen.generate("speedup-scale", 3, tmp_path)
    assert speed == {"languages": 4, "pairs": 6, "primary_per_pair": 30, "deltas_per_pair": 960}
    bugs = gen.generate("defects-scale", 3, tmp_path)
    assert bugs["classes"] == 2000
    assert bugs["distinct_strong_share"] < 0.1
    assert len((tmp_path / "scale_bugs.csv").read_text().splitlines()) == 2001


# -- reference comparison ------------------------------------------------------------


def test_reference_accepts_itself_and_flags_a_perturbed_factor():
    ref = reference("paper-demo")["outcomes"]
    found = copy.deepcopy(ref)
    assert check.reference_problems(found, ref) == []
    key = next(iter(found["factors"]))
    found["factors"][key][0] *= 1 + 1e-12
    assert check.reference_problems(found, ref) == []
    found["factors"][key][0] *= 1 + 1e-6
    assert check.reference_problems(found, ref)
    found = copy.deepcopy(ref)
    found["factors"][key][1] = "decisive" if ref["factors"][key][1] != "decisive" else "strong"
    assert check.reference_problems(found, ref)


def test_reference_flags_a_ci_endpoint_beyond_one_grid_step():
    ref = reference("speedup-scale-seed1")["performance_time"]
    found = {"pairs": {pair: v[:4] for pair, v in ref["pairs"].items()}}
    assert check.reference_problems(found, ref) == []
    pair, values = next(iter(ref["pairs"].items()))
    step = values[4]
    found["pairs"][pair][0] += 0.9 * step
    assert check.reference_problems(found, ref) == []
    found["pairs"][pair][0] += 0.2 * step
    assert check.reference_problems(found, ref)


def test_reference_flags_total_bug_median_and_weibull_map():
    refs = reference("defects-scale-seed1")
    ref = refs["total_bugs"]
    found = copy.deepcopy(ref)
    assert check.reference_problems(found, ref) == []
    d = next(iter(found["by_found"]))
    found["by_found"][d][0][0] += 1
    assert check.reference_problems(found, ref) == []
    found["by_found"][d][0][0] += 1
    assert check.reference_problems(found, ref)

    fit = refs["defect_fit"]
    moved = copy.deepcopy(fit)
    moved["map"][1] += 2 * (fit["beta_range"][1] - fit["beta_range"][0]) / (fit["grid"][1] - 1)
    assert check.reference_problems(copy.deepcopy(fit), fit) == []
    assert check.reference_problems(moved, fit)


def _demo_outputs(tmp_path, argv):
    from bayeskit.cli import main

    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    return out


def _edit_report(out: Path, edit) -> None:
    path = out / "report.json"
    report = json.loads(path.read_text())
    edit(report["results"])
    path.write_text(json.dumps(report))


def test_problems_on_real_outputs_flag_a_perturbed_total_bug_median(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = _demo_outputs(tmp_path, run.DEMO_JOBS["total_bugs"])
    ref = reference("paper-demo")["total_bugs"]
    assert check.problems(out, {"classes": 21}, ref) == []

    _edit_report(out, lambda r: r["rows"][0].update(median=r["rows"][0]["median"] + 2))
    assert any("reference" in p for p in check.problems(out, {"classes": 21}, ref))

    _edit_report(out, lambda r: r["rows"][1].update(median=r["rows"][1]["found"] - 1))
    assert any("found" in p for p in check.problems(out, {"classes": 21}, None))


def test_problems_on_real_outputs_flag_a_perturbed_ci_endpoint(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = _demo_outputs(tmp_path, run.DEMO_JOBS["performance_memory"])
    ref = reference("paper-demo")["performance_memory"]
    assert check.problems(out, {}, ref) == []
    step = next(iter(ref["pairs"].values()))[4]

    def widen(results):
        results["summaries"][0]["ci"][0] -= 2 * step

    _edit_report(out, widen)
    assert any("grid step" in p for p in check.problems(out, {}, ref))


def test_problems_flag_missing_outputs_and_warnings(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    out = _demo_outputs(tmp_path, run.DEMO_JOBS["derived"])
    report = json.loads((out / "report.json").read_text())
    report["warnings"] = ["grid too coarse"]
    (out / "report.json").write_text(json.dumps(report))
    assert any("warning" in p for p in check.problems(out, {}, None))
    (out / "at_most_5.svg").unlink()
    assert check.problems(out, {}, None) == ["missing or empty output at_most_5.svg"]


# -- failure accounting ----------------------------------------------------------------


def test_nonzero_job_exit_counts_toward_fail_ratio(tmp_path, capsys):
    bench = run.Bench("paper-demo", 1, time.monotonic() + 60, work=tmp_path / "work")
    bench.jobs = {
        "broken": ["fit-defects", "--data", "no/such/file.csv"],
        "fine": run.DEMO_JOBS["derived"],
    }
    records = bench.run_pass(0, traced=False)
    assert [r["ok"] for r in records] == [False, True]
    assert (bench.attempted, bench.failed) == (2, 1)
    values = run.end_to_end_values(bench, records)
    assert values["ok_ratio"] == 0.5
    assert "exit code 1" in capsys.readouterr().err


def test_cycle_runs_each_job_twice_then_fills_the_time(tmp_path, monkeypatch):
    bench = run.Bench("paper-demo", 1, time.monotonic() + 60, work=tmp_path / "work")
    bench.jobs = {"long": ["x"], "short": ["y"]}
    clock = [0.0]
    elapsed = {"long": 3.0, "short": 1.0}

    def fake_job(index, name, traced):
        clock[0] += elapsed[name]
        return {"name": name, "index": index, "elapsed": elapsed[name],
                "wall": elapsed[name], "cpu": elapsed[name] / 2}

    monkeypatch.setattr(bench, "run_job", fake_job)
    monkeypatch.setattr(run.time, "monotonic", lambda: clock[0])
    records = []
    bench.run_cycle(5.0, records)  # the first two passes run even past the time
    assert [(r["name"], r["index"]) for r in records] == [
        ("long", 0), ("short", 0), ("long", 1), ("short", 1)]
    records, clock[0] = [], 0.0
    bench.run_cycle(12.0, records)  # a third long job ends at 11 s, a short one at 12 s
    assert [r["name"] for r in records] == ["long", "short"] * 3
    records, clock[0] = [], 0.0
    bench.run_cycle(11.0, records)  # the third short job would end at 12 s
    assert [r["name"] for r in records] == ["long", "short"] * 2 + ["long"]
    # each job's mean, summed, so a job with an extra run does not count twice
    assert run.job_total(records, "wall") == 4.0
    assert run.job_total(records, "cpu") == 2.0


def test_changed_bytes_on_a_rerun_count_as_failure(tmp_path):
    bench = run.Bench("paper-demo", 1, time.monotonic() + 60, work=tmp_path / "work")
    out = tmp_path / "job"
    out.mkdir()
    (out / "a.txt").write_text("one")
    first = bench._verdict("job", out)
    assert bench._verdict("job", out) == first
    (out / "a.txt").write_text("two")
    assert bench._verdict("job", out) == first + ["output differs from the first run: ['a.txt']"]


# -- tracing -------------------------------------------------------------------------


def test_self_time_subtracts_child_spans():
    spans = [
        ["cli.fit-defects", 0.0, 10.0, -1, None],
        ["defects.fit", 1.0, 7.0, 0, {"classes": 3, "distinct": 2, "cells": 30}],
        ["pmf.joint", 5.0, 6.0, 1, None],
        ["cli.write", 8.0, 9.5, 0, {"bytes": 12}],
    ]
    assert tracer.self_times(spans) == {
        "cli.fit-defects": 2.5, "defects.fit": 5.0, "pmf.joint": 1.0, "cli.write": 1.5}
    metrics = tracer.pass_metrics([("fit-defects", spans)])
    assert metrics["defects.fit_cells"] == 30
    assert metrics["defects.fit_distinct_ratio"] == pytest.approx(2 / 3)
    assert metrics["cli.fit-defects_s"] == 10.0
    assert (metrics["cli.files"], metrics["cli.write_bytes"]) == (1, 12)


def test_importtime_totals_count_outermost_imports_per_package():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        300 |   numpy",
        "import time:        40 |         40 |     scipy._lib",
        "import time:        60 |        100 |   scipy",
        "import time:        10 |         70 |   scipy.special",
        "import time:        20 |        490 | bayeskit.defects",
    ])
    totals = run.importtime_totals(report)
    assert totals["numpy"] == pytest.approx(300e-6)
    assert totals["scipy"] == pytest.approx(170e-6)
