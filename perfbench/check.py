"""Output checks for benchmark jobs.

`problems(out_dir, inputs, reference)` lists everything wrong with one job's
output directory; an empty list means the job passed.  Three kinds of check:

* files: every expected output exists and is not empty;
* invariants, for any seed: no warnings in report.json, no NaN or empty
  field, Pmf mass summing to 1 within 1e-9, low <= median <= high, one
  summary per language pair, per-class median >= found;
* reference, when results of the same job and seed are stored: outcome
  factors to relative 1e-9 with identical Jeffreys labels; speedup CI
  endpoints and medians within one grid step with the same significance
  class; Weibull MAP within one grid step; total-bug median and CI within
  one unit.

`digest` extracts the results that the reference comparison reads.
"""

from __future__ import annotations

import csv
import json
import math
import re
from itertools import combinations
from pathlib import Path

JEFFREYS_BANDS = ((1.0, "negative"), (3.0, "barely"), (10.0, "substantial"),
                  (32.0, "strong"), (100.0, "very strong"), (math.inf, "decisive"))
SIGNIFICANCE = ("significant", "weak", "not")

WARNING = "warning: "
FACTOR_RTOL = 1e-9
#: slack on "within one grid step" for the rounding in computing the step
STEP_SLACK = 1e-9


def _reject_constant(name):
    raise ValueError(f"non-finite number {name}")


def load_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)


def expected_files(report: dict) -> list[str]:
    command = report["command"]
    if command == "compare-outcomes":
        return ["outcome_factors.csv", "outcome_factors.json"]
    if command == "compare-performance":
        names = ["summary.csv", "graph.dot"]
        if report["parameters"]["plots"]:
            names += [f"plots/{p.replace(' ', '_')}.svg" for p in _pair_names(report)]
        return names
    if command == "fit-defects":
        return ["weibull_fit.json", "marginal_alpha.svg", "marginal_beta.svg", "cdf_fan.svg"]
    if command == "estimate-total-bugs":
        return ["total_bugs.csv"]
    n = report["parameters"]["at_most"]
    return [f"at_most_{n}.svg", f"at_most_{n}.json"]


def _pair_names(report: dict) -> list[str]:
    def safe(name):  # as the CLI names plot files
        return re.sub(r"[^A-Za-z0-9.+-]", "_", name.replace("#", "sharp"))

    return [f"{safe(a)} vs {safe(b)}" for a, b in combinations(report["results"]["languages"], 2)]


def jeffreys(factor: float) -> str:
    return next(label for bound, label in JEFFREYS_BANDS if factor <= bound)


def digest(out_dir: Path) -> dict:
    """The job's results that a reference stores, keyed for comparison."""
    report = load_json(out_dir / "report.json")
    command, results = report["command"], report["results"]
    if command == "compare-outcomes":
        return {"factors": {f"{name}/{scheme}": [v["factor"], v["label"]]
                            for name, per in results["factors"].items()
                            for scheme, v in per.items()}}
    if command == "compare-performance":
        return {"pairs": {" vs ".join(s["pair"]): [*s["ci"], s["median"], s["class"]]
                          for s in results["summaries"]}}
    if command == "fit-defects":
        p = report["parameters"]
        return {"map": [results["map"]["alpha"], results["map"]["beta"]],
                "alpha_range": p["alpha_range"], "beta_range": p["beta_range"], "grid": p["grid"]}
    if command == "estimate-total-bugs":
        by_found: dict[str, list] = {}
        for r in results["rows"]:
            values = by_found.setdefault(str(r["found"]), [])
            if [r["median"], *r["ci"]] not in values:
                values.append([r["median"], *r["ci"]])
        return {"by_found": by_found}
    return {}


def invariant_problems(out_dir: Path, report: dict, inputs: dict) -> list[str]:
    command, results = report["command"], report["results"]
    out = [WARNING + w for w in report["warnings"]]
    for json_path in sorted(out_dir.glob("*.json")):
        load_json(json_path)  # raises ValueError on NaN or Infinity
    for csv_path in out_dir.glob("*.csv"):
        with csv_path.open(newline="", encoding="utf-8") as fh:
            for i, row in enumerate(csv.reader(fh), 1):
                if any(cell.strip() in ("", "nan", "inf", "-inf") for cell in row):
                    out.append(f"{csv_path.name} line {i}: empty or non-finite field")
    if command == "compare-outcomes":
        for name, per in results["factors"].items():
            for scheme, v in per.items():
                if not (v["factor"] > 0 and math.isfinite(v["factor"])):
                    out.append(f"factor {name}/{scheme} = {v['factor']!r}")
                elif v["label"] != jeffreys(v["factor"]):
                    out.append(f"label {name}/{scheme} {v['label']!r} for factor {v['factor']!r}")
    elif command == "compare-performance":
        pairs = [tuple(s["pair"]) for s in results["summaries"]]
        if pairs != list(combinations(results["languages"], 2)):
            out.append(f"summaries {pairs} are not one per language pair")
        for s in results["summaries"]:
            low, high = s["ci"]
            if not low <= s["median"] <= high:
                out.append(f"{s['pair']}: median {s['median']} outside [{low}, {high}]")
            if s["class"] not in SIGNIFICANCE:
                out.append(f"{s['pair']}: class {s['class']!r}")
    elif command == "fit-defects":
        for axis in ("alpha", "beta"):
            low, high = results["credible_interval"][axis]
            if not low <= results["marginal_median"][axis] <= high:
                out.append(f"{axis}: marginal median outside [{low}, {high}]")
    elif command == "estimate-total-bugs":
        rows = results["rows"]
        if len(rows) != inputs["classes"]:
            out.append(f"{len(rows)} estimates for {inputs['classes']} classes")
        for r in rows:
            low, high = r["ci"]
            if not (r["found"] <= low <= r["median"] <= high):
                out.append(f"class {r['class_id']}: found {r['found']}, "
                           f"median {r['median']}, ci [{low}, {high}]")
    elif command == "derived-plots":
        payload = load_json(out_dir / f"at_most_{results['at_most']}.json")
        mass = payload["mass"]
        if abs(math.fsum(mass) - 1.0) > 1e-9 or min(mass) < 0:
            out.append(f"derived pmf mass sums to {math.fsum(mass)!r}")
    return out


def reference_problems(found: dict, ref: dict) -> list[str]:
    """Differences between a job's digest and its stored reference."""
    out = []
    if "factors" in ref:
        for key, (factor, label) in ref["factors"].items():
            got = found["factors"].get(key)
            if got is None or abs(got[0] - factor) > FACTOR_RTOL * abs(factor) or got[1] != label:
                out.append(f"factor {key}: {got} against reference {[factor, label]}")
    if "pairs" in ref:
        for pair, (low, high, median, cls, step) in ref["pairs"].items():
            got = found["pairs"].get(pair)
            tol = step * (1 + STEP_SLACK)
            if (got is None or got[3] != cls
                    or any(abs(g - r) > tol for g, r in zip(got[:3], (low, high, median)))):
                out.append(f"{pair}: {got} against reference {[low, high, median, cls]} "
                           f"(grid step {step})")
    if "map" in ref:
        (a_lo, a_hi), (b_lo, b_hi), (n_a, n_b) = ref["alpha_range"], ref["beta_range"], ref["grid"]
        log_step = math.log(a_hi / a_lo) / (n_a - 1)
        b_step = (b_hi - b_lo) / (n_b - 1)
        (a, b), (ra, rb) = found["map"], ref["map"]
        if (abs(math.log(a / ra)) > log_step * (1 + STEP_SLACK)
                or abs(b - rb) > b_step * (1 + STEP_SLACK)):
            out.append(f"Weibull MAP {found['map']} against reference {ref['map']}")
    if "by_found" in ref:
        for d, rows in found["by_found"].items():
            want = ref["by_found"].get(d, [None])[0]
            for values in rows:
                if want is None or any(abs(g - r) > 1 for g, r in zip(values, want)):
                    out.append(f"total bugs at found={d}: {values} against reference {want}")
    return out


def problems(out_dir: Path, inputs: dict, reference: dict | None) -> list[str]:
    """Everything wrong with one job's outputs; `reference` is its stored digest or None."""
    try:
        report = load_json(out_dir / "report.json")
        missing = [name for name in expected_files(report)
                   if not (out_dir / name).is_file() or (out_dir / name).stat().st_size == 0]
        if missing:
            return [f"missing or empty output {name}" for name in missing]
        out = invariant_problems(out_dir, report, inputs)
        if reference is not None:
            out += reference_problems(digest(out_dir), reference)
        return out
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"]
