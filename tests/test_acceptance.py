"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Golden-number checks that depend on external study data run only when the
corresponding file is present under tests/data/ (they are skipped otherwise,
and each criterion's documented fallback runs unconditionally).
"""

import filecmp
import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from bayeskit.cli import main
from bayeskit.defects import (
    EffectivenessGrid,
    WeibullParams,
    class_total_bugs,
    fit_weibull_posterior,
)
from bayeskit.outcomes import (
    OutcomeCounts,
    OutcomeDistribution,
    bayes_factor,
    better_than,
    enumerate_simplex,
    jeffreys_label,
    likelihood_better,
    likelihood_equal,
    scheme_weight,
)
from bayeskit.pmf import Pmf, update
from bayeskit.speedup import ratio, speedup_posterior
from bayeskit.density import exclude_interval, kde, scott_bandwidth, to_pmf
from bayeskit.datasets import load_baselines, load_outcomes

from oracles import (
    bayes_factor_oracle,
    class_totals_oracle,
    lcg_uniforms,
    weibull_inverse_cdf,
)

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "data"
EXTERNAL = Path(__file__).resolve().parent / "data"

REPLICATION_OUTCOMES = EXTERNAL / "outcome_survey_replication.csv"
REPLICATION_CALIB = EXTERNAL / "benchmark_calibration_replication.csv"
REPLICATION_PRIMARY = EXTERNAL / "benchmark_primary_replication.csv"
REPLICATION_BUGS = EXTERNAL / "bug_count_replication.csv"


def report(criterion: int, message: str):
    print(f"ACCEPTANCE {criterion}: PASS - {message}")


def test_criterion_1_worked_example_posterior():
    """A 99%-reliable detector on a 1% base rate yields exactly 50% confidence."""
    prior = Pmf({"ok": 0.01, "err": 0.99})
    detector = lambda h: 0.99 if h == "ok" else 0.01  # noqa: E731

    posterior = update(prior, detector)
    assert abs(posterior.prob("ok") - 0.5) <= 1e-12

    start = time.perf_counter()
    for _ in range(200):
        update(prior, detector)
    per_call = (time.perf_counter() - start) / 200
    assert per_call < 1e-3
    report(1, f"posterior exactly 0.5 within 1e-12 ({per_call * 1e6:.0f} us/update)")


def test_criterion_2_jeffreys_bands():
    """All six interpretation bands, exact at the published boundaries."""
    expected = {
        0.5: "negative", 1.0: "negative",
        2.0: "barely", 3.0: "barely",
        5.0: "substantial", 10.0: "substantial",
        20.0: "strong", 32.0: "strong",
        50.0: "very strong", 100.0: "very strong",
        101.0: "decisive", 1e6: "decisive",
    }
    start = time.perf_counter()
    for value, label in expected.items():
        assert jeffreys_label(value) == label, value
    elapsed = time.perf_counter() - start
    assert elapsed < 1e-3 * len(expected)
    report(2, "six bands exact at boundaries {1, 3, 10, 32, 100}")


def _oracle_cases():
    """Deterministic spread of count vectors with entries up to 10."""
    stream = lcg_uniforms(99, 90)
    vectors = [tuple(int(u * 11) for u in stream[i : i + 3]) for i in range(0, 90, 3)]
    pairs = list(zip(vectors[0::2], vectors[1::2]))
    pairs += [((0, 0, 0), (0, 0, 0)), ((10, 10, 10), (0, 0, 10)), ((0, 0, 10), (10, 0, 0))]
    return pairs


def test_criterion_3_bayes_factor_oracle_equivalence():
    """Library factors equal brute-force enumeration within 1e-9 (K=3, step 0.25)."""
    baselines = {
        # includes a mean on the 0.25 grid so exact ties are exercised
        (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)): OutcomeDistribution((1 / 3, 1 / 3, 1 / 3)),
        (Fraction(18, 100), Fraction(32, 100), Fraction(50, 100)): OutcomeDistribution(
            (0.18, 0.32, 0.50)
        ),
    }
    start = time.perf_counter()
    checked = 0
    for counts_a, counts_b in _oracle_cases():
        data = OutcomeCounts(counts_a, counts_b)
        for exact, dist in baselines.items():
            for scheme in ("uniform", "triangle", "power", "exp"):
                want = bayes_factor_oracle(counts_a, counts_b, exact, scheme, 0.25)
                got = bayes_factor(data, dist, scheme, 0.25)
                assert got == pytest.approx(want, abs=1e-9)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(3, f"{checked} factors match the brute-force oracle within 1e-9 ({elapsed:.1f}s)")


def test_criterion_4_fallback_closed_forms():
    """Replication data is not bundleable; the documented replacement applies:
    oracle equivalence (criterion 3) plus closed-form empty-data likelihoods."""
    step = 0.25
    grid = enumerate_simplex(3, step)
    baseline = OutcomeDistribution((0.18, 0.32, 0.50))
    empty = OutcomeCounts((0, 0, 0), (0, 0, 0))
    for scheme in ("uniform", "triangle", "power", "exp"):
        weights = [scheme_weight(p, baseline, scheme) for p in grid]
        better = [better_than(p, baseline) for p in grid]
        sum_better = sum(w for w, b in zip(weights, better) if b)
        sum_rest = sum(w for w, b in zip(weights, better) if not b)
        assert likelihood_better(empty, baseline, scheme, step) == pytest.approx(
            sum_better * sum_rest, rel=1e-12
        )
        assert likelihood_equal(empty, baseline, scheme, step) == pytest.approx(
            sum(weights) ** 2, rel=1e-12
        )
        assert bayes_factor(empty, baseline, scheme, step) == pytest.approx(
            (sum_better * sum_rest) / sum(weights) ** 2, rel=1e-12
        )
    report(4, "empty-data likelihoods match closed forms for all four schemes")


PUBLISHED_FACTORS = {
    "uniform": {"A": 0.25, "AIL": 0.26, "AILT": 0.17, "AIT": 0.14, "AL": 0.29,
                "ALT": 0.12, "AT": 0.08, "IT": 0.10, "T": 0.01},
    "triangle": {"A": 0.25, "AIL": 0.26, "AILT": 0.17, "AIT": 0.14, "AL": 0.29,
                 "ALT": 0.13, "AT": 0.08, "IT": 0.10, "T": 0.02},
    "power": {"A": 0.25, "AIL": 0.26, "AILT": 0.17, "AIT": 0.14, "AL": 0.29,
              "ALT": 0.13, "AT": 0.09, "IT": 0.11, "T": 0.02},
    "exp": {"A": 0.25, "AIL": 0.26, "AILT": 0.19, "AIT": 0.16, "AL": 0.29,
            "ALT": 0.15, "AT": 0.10, "IT": 0.12, "T": 0.02},
}


def test_criterion_4_reconstructed_fixture_tracks_published_grid():
    """Supplementary regression: the bundled reconstructed outcome fixture
    reproduces the published 4x9 factor grid within +-0.03 per cell.

    Both the published factors and the baseline distributions are rounded to
    two decimals, which caps achievable agreement around +-0.017; a fine
    simplex step is required (coarse grids quantize the better-than split
    so hard that baselines with nearby means collapse to identical factors).
    """
    table = load_outcomes(DATA / "project_outcomes.csv")
    baselines = load_baselines(DATA / "outcome_baselines.csv")
    counts = table.to_counts(3)
    worst = 0.0
    for scheme, row in PUBLISHED_FACTORS.items():
        for name, target in row.items():
            got = bayes_factor(counts, baselines[name], scheme, step=0.01)
            worst = max(worst, abs(got - target))
            assert got == pytest.approx(target, abs=0.03)
    report(4, f"reconstructed fixture tracks the published grid (max dev {worst:.3f})")


def test_criterion_4_recovery_script_ranks_bundled_counts_first():
    """Provenance of the bundled outcome fixture: the recovery script's best
    assignment is exactly the per-group counts data/project_outcomes.csv holds."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "recover_outcome_counts.py")],
        capture_output=True, text=True, check=True,
    )
    top = proc.stdout.splitlines()[1].strip()
    assert top.startswith("#0: agile=(1, 6, 22) structured=(0, 5, 13) ")
    counts = load_outcomes(DATA / "project_outcomes.csv").to_counts(3)
    assert (counts.counts_a, counts.counts_b) == ((1, 6, 22), (0, 5, 13))
    report(4, f"recovery script ranks the bundled counts first ({top})")


@pytest.mark.skipif(
    not REPLICATION_OUTCOMES.exists(),
    reason="per-project replication outcomes are not redistributable here; "
    "drop the file at tests/data/outcome_survey_replication.csv to enable",
)
def test_criterion_4_golden_with_replication_data():
    table = load_outcomes(REPLICATION_OUTCOMES)
    baselines = load_baselines(DATA / "outcome_baselines.csv")
    counts = table.to_counts(3, rescale_b=1)
    for scheme, row in PUBLISHED_FACTORS.items():
        for name, target in row.items():
            got = bayes_factor(counts, baselines[name], scheme, step=0.05)
            assert got == pytest.approx(target, abs=0.03)
    report(4, "replication data reproduces the published grid at step 0.05")


def _speedup_cases():
    """Deterministic spread of (primary, calib, deltas) triples."""
    cases = []
    for seed in (3, 17, 31, 55, 71):
        us = lcg_uniforms(seed, 40)
        sign = 1.0 if us[0] > 0.4 else -1.0
        center = 1.2 + 9.0 * us[1]
        calib = [sign * (center + 3.0 * (u - 0.5)) for u in us[2:10]]
        calib = [c if abs(c) > 1 else sign * 1.05 for c in calib]
        deltas = [1.5 * (u - 0.5) for u in us[10:26]]
        primary = [sign * (center + 2.0 * (u - 0.5)) for u in us[26:32]]
        primary = [p if abs(p) > 1 else sign * 1.1 for p in primary]
        cases.append((primary, calib, deltas))
    return cases


def test_criterion_5_speedup_property_suite():
    """Fallback for unavailable benchmark snapshots: posterior normalization,
    zero mass on (-1, 1], flat-likelihood identity, ratio antisymmetry."""
    start = time.perf_counter()

    for primary, calib, deltas in _speedup_cases():
        post = speedup_posterior(primary, calib, deltas)
        assert post.probs.sum() == pytest.approx(1.0, abs=1e-9)
        banned = [p for x, p in post.items() if -1.0 < x <= 1.0]
        assert banned and max(banned) == 0.0

        bw = scott_bandwidth(calib)
        grid = (-30.0, 30.0, 2048)
        prior = to_pmf(exclude_interval(kde(calib, bw, grid), -1.0, 1.0))
        flat = speedup_posterior(primary, calib, deltas, grid_spec=grid, delta_bandwidth=1e9)
        np.testing.assert_allclose(flat.probs, prior.probs, atol=1e-6)

    checked = 0
    for u, v in zip(lcg_uniforms(5, 400), lcg_uniforms(6, 400)):
        a, b = 0.01 + 100 * u, 0.01 + 100 * v
        if a != b:
            assert ratio(a, b) == pytest.approx(-ratio(b, a), rel=1e-12)
        assert abs(ratio(a, b)) >= 1.0
        checked += 1

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(5, f"property suite over 5 posterior cases and {checked} ratio pairs ({elapsed:.1f}s)")


@pytest.mark.skipif(
    not (REPLICATION_CALIB.exists() and REPLICATION_PRIMARY.exists()),
    reason="benchmark study snapshots are not redistributable here; drop "
    "tests/data/benchmark_calibration_replication.csv and "
    "tests/data/benchmark_primary_replication.csv to enable",
)
def test_criterion_5_golden_with_replication_data():
    from bayeskit.datasets import load_benchmarks, load_primary
    from bayeskit.speedup import compare_pair

    calib = load_benchmarks(REPLICATION_CALIB)["time"]
    primary = load_primary(REPLICATION_PRIMARY)["time"]
    published = {("C#", "Ruby"): -16.96, ("F#", "Ruby"): 1.05, ("C", "C#"): -9.22}
    for (l1, l2), median in published.items():
        summary = compare_pair(calib, primary, l1, l2)
        assert summary.median == pytest.approx(median, rel=0.10)
    report(5, "replication medians within 10% of the published table")


def test_criterion_6_weibull_synthetic_recovery():
    """Fallback for the unavailable bug-count study data: parameters sampled
    from a known Weibull are recovered by the grid fit within 15%."""
    start = time.perf_counter()
    stream = lcg_uniforms(1, 200)
    draws = [weibull_inverse_cdf(u, 8.0, 0.9) for u in stream]
    # shift-by-one convention: the fitted likelihood evaluates pdf(d + 1)
    counts = [max(0, int(x + 0.5) - 1) for x in draws]
    joint = fit_weibull_posterior(counts, "uniform")
    map_a, map_b = joint.map_point()
    err_a = abs(map_a - 8.0) / 8.0
    err_b = abs(map_b - 0.9) / 0.9
    assert err_a < 0.15
    assert err_b < 0.15
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(
        6,
        f"LCG/inverse-cdf sample of 200 recovers (8, 0.9) to "
        f"({err_a * 100:.1f}%, {err_b * 100:.1f}%) ({elapsed:.1f}s)",
    )


@pytest.mark.skipif(
    not REPLICATION_BUGS.exists(),
    reason="per-class bug counts are not redistributable here; drop "
    "tests/data/bug_count_replication.csv to enable",
)
def test_criterion_6_golden_with_replication_data():
    from bayeskit.datasets import load_bug_counts

    rows = load_bug_counts(REPLICATION_BUGS)
    joint = fit_weibull_posterior([r.found_strong for r in rows], "uniform")
    assert joint.marginal_x().mean() == pytest.approx(8.53, rel=0.05)
    assert joint.marginal_y().mean() == pytest.approx(0.88, rel=0.05)
    report(6, "replication fit reproduces the published marginal means within 5%")


def test_criterion_7_hierarchical_estimates():
    """Degenerate effectiveness is exact; small instances match the
    triple-loop oracle within 1e-9."""
    start = time.perf_counter()
    params = WeibullParams(8.0, 0.9)

    perfect = EffectivenessGrid((1.0, 1.0), (1.0, 1.0), 1, 1)
    for d in range(21):
        post = class_total_bugs(params, d, perfect, n_max=40)
        assert post.prob(d) == 1.0

    instances = [
        (0, (0.2, 0.5), (0.7, 0.95), 2, 2),
        (3, (0.15, 0.5), (0.7, 0.95), 4, 3),
        (7, (0.2, 0.4), (0.8, 0.9), 3, 2),
        (12, (0.3, 0.5), (0.75, 0.95), 2, 4),
    ]
    for d, e_range, strong_range, n_e, n_s in instances:
        grid = EffectivenessGrid(e_range, strong_range, n_e, n_s)
        post = class_total_bugs(params, d, grid, n_max=50)
        e_pts = np.linspace(*e_range, n_e).tolist()
        s_pts = np.linspace(*strong_range, n_s).tolist()
        _, _, mixture = class_totals_oracle(8.0, 0.9, d, e_pts, s_pts, 50)
        np.testing.assert_allclose(post.probs, mixture, atol=1e-9)

    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(
        7,
        f"degenerate case exact for d in 0..20; {len(instances)} instances "
        f"match the triple-loop oracle within 1e-9 ({elapsed:.1f}s)",
    )


@pytest.mark.skipif(
    not REPLICATION_BUGS.exists(),
    reason="per-class bug counts are not redistributable here; drop "
    "tests/data/bug_count_replication.csv to enable",
)
def test_criterion_7_golden_with_replication_data():
    from bayeskit.datasets import load_bug_counts
    from bayeskit.defects import estimate_class_totals

    rows = load_bug_counts(REPLICATION_BUGS)
    joint = fit_weibull_posterior([r.found_strong for r in rows], "uniform")
    params = WeibullParams(*joint.map_point())
    grid = EffectivenessGrid((0.15, 0.5), (0.7, 0.95), 8, 6)
    estimates = estimate_class_totals(rows, params, grid)
    c20 = next(e for e in estimates if e.class_id.endswith("20"))
    assert c20.median == pytest.approx(67, rel=0.15)
    assert c20.ci_low == pytest.approx(49, rel=0.15)
    assert c20.ci_high == pytest.approx(100, rel=0.15)
    report(7, "replication class 20 summary within 15% of the published row")


def _run_everything(out_root: Path):
    jobs = [
        ["compare-outcomes", "--data", DATA / "project_outcomes.csv",
         "--baselines", DATA / "outcome_baselines.csv", "--out", out_root / "outcomes"],
        ["compare-performance", "--primary", DATA / "demo_primary.csv",
         "--calib", DATA / "demo_bench.csv", "--metric", "time",
         "--out", out_root / "perf_time", "--plots"],
        ["compare-performance", "--primary", DATA / "demo_primary.csv",
         "--calib", DATA / "demo_bench.csv", "--metric", "memory",
         "--out", out_root / "perf_memory"],
        ["fit-defects", "--data", DATA / "demo_bugs.csv", "--out", out_root / "fit",
         "--pareto-xmax", "60"],
        ["estimate-total-bugs", "--data", DATA / "demo_bugs.csv",
         "--out", out_root / "totals"],
        ["derived-plots", "--data", DATA / "demo_bugs.csv", "--at-most", "5",
         "--out", out_root / "derived"],
    ]
    for job in jobs:
        assert main([str(a) for a in job]) == 0


def test_criterion_8_full_run_determinism(tmp_path):
    """Two consecutive full CLI runs over all fixtures are byte-identical."""
    start = time.perf_counter()
    first, second = tmp_path / "run1", tmp_path / "run2"
    _run_everything(first)
    _run_everything(second)

    files_first = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    files_second = sorted(p.relative_to(second) for p in second.rglob("*") if p.is_file())
    assert files_first == files_second and files_first
    mismatches = [
        str(rel)
        for rel in files_first
        if not filecmp.cmp(first / rel, second / rel, shallow=False)
    ]
    assert mismatches == []

    # reports must not depend on when or where they ran (beyond input paths)
    reports = [json.loads((first / rel).read_text()) for rel in files_first
               if rel.name == "report.json"]
    assert len(reports) == 6

    elapsed = time.perf_counter() - start
    assert elapsed < 900.0
    report(8, f"{len(files_first)} output files byte-identical across reruns ({elapsed:.1f}s)")
