"""Tests for Bayes-factor comparison of categorical outcomes."""

import gc
import math
import os
import pickle
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayeskit.datasets import load_baselines
from bayeskit.errors import (
    DimensionMismatch,
    EmptyCategorySet,
    InvalidStep,
    NonPositiveK,
    OutOfRange,
    ZeroDenominator,
)
from bayeskit.outcomes import (
    OutcomeCounts,
    _compositions,
    _grid_log_likelihoods,
    _log_likelihoods,
    _simplex,
    OutcomeDistribution,
    baseline_distribution,
    bayes_factor,
    better_than,
    enumerate_simplex,
    jeffreys_label,
    likelihood_better,
    likelihood_equal,
    multinomial_pmf,
    normalised_bayes_factor,
    rescale_outcome,
    scheme_weight,
)

from oracles import (
    _log10_exact,
    bayes_factor_oracle,
    compositions_oracle,
    lcg_uniforms,
    log10_bayes_factor_oracle,
    normalised_factor_oracle,
    rescale_oracle,
)

SCHEMES = ("uniform", "triangle", "power", "exp")
BUNDLED_BASELINES = load_baselines(Path(__file__).resolve().parents[1] / "data" / "outcome_baselines.csv")

BUNDLED_COUNTS = OutcomeCounts((1, 6, 22), (0, 5, 13))  # agile, structured
BUNDLED_CASES = [(name, scheme) for name in sorted(BUNDLED_BASELINES) for scheme in SCHEMES]

SURVEY_A = OutcomeDistribution((0.07, 0.30, 0.63))
SURVEY_T = OutcomeDistribution((0.18, 0.32, 0.50))


class TestOutcomeDistribution:
    def test_empty_rejected(self):
        with pytest.raises(DimensionMismatch, match="at least one category"):
            OutcomeDistribution(())

    def test_negative_probability_rejected(self):
        with pytest.raises(ValueError, match="negative probability"):
            OutcomeDistribution((1.2, -0.2))

    @pytest.mark.parametrize("probs", [(0.5, 0.4), (0.6, 0.6), (0.5, 0.5 + 2e-6)])
    def test_probabilities_must_sum_to_one(self, probs):
        with pytest.raises(ValueError, match="not 1"):
            OutcomeDistribution(probs)

    def test_near_one_total_renormalized(self):
        dist = OutcomeDistribution((0.5, 0.5 + 5e-7))
        assert math.fsum(dist.probs) == pytest.approx(1.0, abs=1e-15)
        assert dist.k == 2


class TestRescaleOutcome:
    def test_top_maps_to_top(self):
        assert rescale_outcome(10, 1, 2) == 2

    def test_bottom_maps_to_bottom(self):
        assert rescale_outcome(1, 1, 2) == 0

    def test_middle_value(self):
        # anchors sit at 1, 5.5, 10
        assert rescale_outcome(5, 1, 2) == 1

    def test_full_map_default_anchors(self):
        bins = {raw: rescale_outcome(raw, 1, 2) for raw in range(1, 11)}
        assert bins == {1: 0, 2: 0, 3: 0, 4: 1, 5: 1, 6: 1, 7: 1, 8: 2, 9: 2, 10: 2}

    def test_tie_goes_to_smaller_category(self):
        # anchors at 2, 6, 10: raw 4 is equidistant from 2 and 6
        assert rescale_outcome(4, 2, 2) == 0

    @pytest.mark.parametrize("raw,b,r", [(0, 1, 2), (11, 1, 2), (5, 0, 2), (5, 10, 2), (5, 1, 0)])
    def test_out_of_range(self, raw, b, r):
        with pytest.raises(OutOfRange):
            rescale_outcome(raw, b, r)

    def test_matches_exact_rational_oracle_everywhere(self):
        keys = [(raw, b, r) for raw in range(1, 11) for b in range(1, 10) for r in range(1, 13)]
        want = {key: rescale_oracle(*key) for key in keys}
        assert {key: rescale_outcome(*key) for key in keys} == want
        # an integral float outcome lands in the same category, with exact tie-breaking
        assert {key: rescale_outcome(float(key[0]), *key[1:]) for key in keys} == want

    @pytest.mark.parametrize("raw,b,r,message", [
        (0, 1, 2, "raw outcome must be an integer in 1..10, got 0"),
        (2.5, 1, 2, "raw outcome must be an integer in 1..10, got 2.5"),
        (5, 10, 2, "lower bound must be in 1..9, got 10"),
        (5, 1, 0, "need at least one category step, got 0"),
    ])
    def test_out_of_range_messages(self, raw, b, r, message):
        with pytest.raises(OutOfRange) as info:
            rescale_outcome(raw, b, r)
        assert str(info.value) == message


class TestBaseline:
    def test_singleton_is_itself(self):
        got = baseline_distribution(["A"], {"A": SURVEY_A})
        assert got.probs == pytest.approx(SURVEY_A.probs)

    def test_pair_average(self):
        got = baseline_distribution(["A", "T"], {"A": SURVEY_A, "T": SURVEY_T})
        assert got.probs[0] == pytest.approx(0.125)

    def test_identical_singletons_idempotent(self):
        got = baseline_distribution(["A", "B"], {"A": SURVEY_A, "B": SURVEY_A})
        assert got.probs == pytest.approx(SURVEY_A.probs)

    def test_empty_set_rejected(self):
        with pytest.raises(EmptyCategorySet):
            baseline_distribution([], {"A": SURVEY_A})

    def test_mismatched_k_rejected(self):
        with pytest.raises(DimensionMismatch):
            baseline_distribution(
                ["A", "B"], {"A": SURVEY_A, "B": OutcomeDistribution((0.5, 0.5))}
            )


class TestOutcomeCounts:
    @pytest.mark.parametrize("counts", [(1, 2.5, 3), (1, -1, 3)])
    def test_non_integer_or_negative_count_rejected(self, counts):
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            OutcomeCounts(counts, (1, 1, 1))
        with pytest.raises(ValueError, match="counts must be nonnegative integers"):
            OutcomeCounts((1, 1, 1), counts)

    def test_groups_of_different_k_rejected(self):
        with pytest.raises(DimensionMismatch, match="groups disagree on K: 3 vs 2"):
            OutcomeCounts((1, 2, 3), (1, 2))


class TestBetterThan:
    def test_survey_columns_ordered(self):
        assert better_than(SURVEY_A, SURVEY_T)

    def test_not_better_than_itself(self):
        assert not better_than(SURVEY_A, SURVEY_A)

    def test_extremes(self):
        assert better_than(OutcomeDistribution((0, 0, 1)), OutcomeDistribution((1, 0, 0)))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            better_than(SURVEY_A, OutcomeDistribution((0.5, 0.5)))


class TestMultinomial:
    def test_single_draw(self):
        assert multinomial_pmf((1, 0, 0), SURVEY_A) == pytest.approx(0.07)

    def test_two_identical_draws(self):
        assert multinomial_pmf((2, 0, 0), SURVEY_A) == pytest.approx(0.07**2)

    def test_uniform_three_categories(self):
        uniform = OutcomeDistribution((1 / 3, 1 / 3, 1 / 3))
        assert multinomial_pmf((1, 1, 1), uniform) == pytest.approx(2 / 9)

    def test_zero_probability_zero_count(self):
        # 0^0 = 1: impossible categories with no observations cost nothing
        point = OutcomeDistribution((0.0, 1.0))
        assert multinomial_pmf((0, 2), point) == pytest.approx(1.0)
        assert multinomial_pmf((1, 1), point) == 0.0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            multinomial_pmf((1, 2), SURVEY_A)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="counts must be nonnegative"):
            multinomial_pmf((1, -1, 2), SURVEY_A)

    @pytest.mark.parametrize("counts", [(3, 4, 5), (0, 0, 7), (1, 0, 2), (10, 10, 10)])
    def test_matches_scipy_reference(self, counts):
        from scipy.stats import multinomial

        want = multinomial(sum(counts), SURVEY_A.probs).pmf(counts)
        assert multinomial_pmf(counts, SURVEY_A) == pytest.approx(want, rel=1e-12)


class TestEnumerateSimplex:
    @pytest.mark.parametrize(
        "k,step,expected",
        [(3, 0.5, 6), (2, 1.0, 2), (3, 1.0, 3), (3, 0.25, 15), (3, 0.05, 231)],
    )
    def test_counts(self, k, step, expected):
        assert len(enumerate_simplex(k, step)) == expected

    def test_entries_are_grid_points_summing_to_one(self):
        for dist in enumerate_simplex(3, 0.25):
            assert sum(dist.probs) == pytest.approx(1.0, abs=1e-12)
            for p in dist.probs:
                assert (p * 4) == pytest.approx(round(p * 4), abs=1e-12)

    def test_deterministic_and_deduplicated(self):
        first = enumerate_simplex(3, 0.5)
        second = enumerate_simplex(3, 0.5)
        assert first == second
        assert len({d.probs for d in first}) == len(first)

    @pytest.mark.parametrize("k,n", [(1, 5), (2, 7), (3, 100), (4, 20), (5, 10), (3, 0), (1, 0)])
    def test_compositions_match_recursive_oracle(self, k, n):
        rows = _compositions(k, n)
        assert rows.dtype == np.array([[n]]).dtype and rows.shape == (len(rows), k)
        assert not rows.flags.writeable
        assert rows.tolist() == [list(c) for c in compositions_oracle(k, n)]

    @pytest.mark.parametrize("step", [0.3, 0.0, -0.1, 1.5])
    def test_invalid_step(self, step):
        with pytest.raises(InvalidStep):
            enumerate_simplex(3, step)

    def test_no_category_rejected(self):
        with pytest.raises(InvalidStep, match="need at least one category, got K=0"):
            enumerate_simplex(0, 0.5)

    def test_grid_freed_once_dropped(self):
        # a fine grid's 125,751 distributions live only as long as their caller keeps them
        grid = enumerate_simplex(3, 0.002)
        assert len(grid) == 125_751
        ref = weakref.ref(grid[len(grid) // 2])
        del grid
        gc.collect()
        assert ref() is None

    def test_composition_grid_freed_by_the_next(self):
        # nothing keeps a grid: a step-0.002 grid (125,751 x 3 int64) goes once another is asked for
        comps, _ = _simplex(3, 0.002)
        ref = weakref.ref(comps)
        del comps
        _simplex(3, 0.01)
        gc.collect()
        assert ref() is None

    def test_step_with_no_finite_reciprocal_refused_by_name(self):
        with pytest.raises(InvalidStep, match=r"^step 1e-320 is too small: 1/step is beyond the float range"):
            enumerate_simplex(3, 1e-320)

    def test_grid_beyond_memory_refused_before_it_is_built(self, monkeypatch):
        _grid_log_likelihoods.cache_clear()  # an earlier test may have left these counts at 0.05
        sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}  # 4096 bytes of memory
        monkeypatch.setattr(os, "sysconf", lambda name: sizes[name])
        assert len(enumerate_simplex(3, 1 / 15)) == 136  # 136 x 3 x 8 = 3264 bytes
        with pytest.raises(InvalidStep, match=r"^the simplex grid at step 0\.05 \(231 x 3 int64\) needs "):
            enumerate_simplex(3, 0.05)
        with pytest.raises(InvalidStep, match="simplex grid at step 0.05"):
            bayes_factor(OutcomeCounts((4, 0, 2), (1, 5, 0)), SURVEY_A, "power", 0.05)


class TestGridLogLikelihoods:
    def test_one_counts_and_step_held(self):
        # the memo holds one (counts, step): the step-0.002 vectors (125,751 points) go once
        # another step is asked for
        vectors = _grid_log_likelihoods(BUNDLED_COUNTS, 0.002)
        assert [len(v) for v in vectors] == [125_751] * 3
        assert not any(v.flags.writeable for v in vectors)
        refs = [weakref.ref(v) for v in vectors]
        del vectors
        _grid_log_likelihoods(BUNDLED_COUNTS, 0.01)
        gc.collect()
        assert all(ref() is None for ref in refs)

    @staticmethod
    def factor_bits(cases):
        bits = {}
        for name, scheme in cases:
            args = (BUNDLED_COUNTS, BUNDLED_BASELINES[name], scheme, 0.005)
            bits[name, scheme] = tuple(
                (f.log10.hex(), float(f).hex())
                for f in (bayes_factor(*args), normalised_bayes_factor(*args))
            )
        return bits

    @pytest.fixture(scope="class")
    def in_order(self):
        _grid_log_likelihoods.cache_clear()
        return self.factor_bits(BUNDLED_CASES)

    @settings(max_examples=20, deadline=None)
    @given(order=st.permutations(BUNDLED_CASES))
    def test_factors_do_not_depend_on_the_order_of_the_cases(self, in_order, order):
        _grid_log_likelihoods.cache_clear()
        assert self.factor_bits(order) == in_order


class TestSchemeWeight:
    def test_zero_gap_all_schemes(self):
        for scheme in ("uniform", "triangle", "power", "exp"):
            assert scheme_weight(SURVEY_A, SURVEY_A, scheme) == pytest.approx(1.0)

    def test_power_at_unit_gap(self):
        p = OutcomeDistribution((0, 0, 1))
        q = OutcomeDistribution((0, 1, 0))
        assert scheme_weight(p, q, "power") == pytest.approx(0.5)

    def test_exp_at_unit_gap(self):
        p = OutcomeDistribution((0, 0, 1))
        q = OutcomeDistribution((0, 1, 0))
        assert scheme_weight(p, q, "exp") == pytest.approx(math.exp(-1))

    def test_triangle_hits_zero_at_max_gap(self):
        p = OutcomeDistribution((0, 0, 1))
        q = OutcomeDistribution((1, 0, 0))
        assert scheme_weight(p, q, "triangle") == pytest.approx(0.0)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            scheme_weight(SURVEY_A, SURVEY_A, "boxcar")

    def test_baseline_of_another_k_rejected(self):
        with pytest.raises(DimensionMismatch, match="K=3 against baseline K=2"):
            scheme_weight(SURVEY_A, OutcomeDistribution((0.5, 0.5)), "uniform")
        with pytest.raises(DimensionMismatch, match="counts K=3 against baseline K=2"):
            bayes_factor(OutcomeCounts((1, 2, 3), (3, 2, 1)), OutcomeDistribution((0.5, 0.5)))


class TestLikelihoods:
    def test_empty_counts_closed_form(self):
        empty = OutcomeCounts((0, 0, 0), (0, 0, 0))
        step = 0.25
        grid = enumerate_simplex(3, step)
        for scheme in ("uniform", "triangle", "power", "exp"):
            weights = [scheme_weight(p, SURVEY_T, scheme) for p in grid]
            better = [better_than(p, SURVEY_T) for p in grid]
            sum_better = sum(w for w, b in zip(weights, better) if b)
            sum_worse = sum(w for w, b in zip(weights, better) if not b)
            assert likelihood_better(empty, SURVEY_T, scheme, step) == pytest.approx(
                sum_better * sum_worse, rel=1e-12
            )
            assert likelihood_equal(empty, SURVEY_T, scheme, step) == pytest.approx(
                sum(weights) ** 2, rel=1e-12
            )

    @pytest.mark.parametrize("sizes", [(2, 2), (3, 1), (0, 2)])
    def test_prior_predictive_sums_to_the_prior_mass(self, sizes):
        # summed over every data set of these group sizes, each grid point's multinomial
        # probabilities add up to 1, so the "A better" likelihood adds up to W(better) W(not better)
        step = 0.25
        grid = enumerate_simplex(3, step)
        group_a, group_b = (_compositions(3, n).tolist() for n in sizes)
        pairs = [(a, b) for a in group_a for b in group_b]
        empty = OutcomeCounts((0, 0, 0), (0, 0, 0))
        for name, scheme in BUNDLED_CASES:
            baseline = BUNDLED_BASELINES[name]
            w_all = math.fsum(scheme_weight(p, baseline, scheme) for p in grid)
            total = math.fsum(
                likelihood_better(OutcomeCounts(a, b), baseline, scheme, step) for a, b in pairs
            )
            prior = math.exp(_log_likelihoods(empty, baseline, scheme, step)[2])
            assert total / w_all**2 == pytest.approx(prior, rel=1e-12), (name, scheme)

    def test_equal_hypothesis_symmetric_under_group_swap(self):
        data = OutcomeCounts((3, 4, 5), (1, 0, 7))
        swapped = OutcomeCounts((1, 0, 7), (3, 4, 5))
        assert likelihood_equal(data, SURVEY_A, "exp", 0.25) == pytest.approx(
            likelihood_equal(swapped, SURVEY_A, "exp", 0.25), rel=1e-12
        )

    def test_small_instance_matches_oracle(self):
        data = OutcomeCounts((1, 2, 3), (2, 1, 1))
        base = (Fraction(18, 100), Fraction(32, 100), Fraction(50, 100))
        got = bayes_factor(data, SURVEY_T, "uniform", 0.25)
        want = bayes_factor_oracle((1, 2, 3), (2, 1, 1), base, "uniform", 0.25)
        assert got == pytest.approx(want, abs=1e-9)


class TestBayesFactor:
    def test_empty_data_uniform_counting(self):
        empty = OutcomeCounts((0, 0, 0), (0, 0, 0))
        step = 0.25
        grid = enumerate_simplex(3, step)
        n_better = sum(better_than(p, SURVEY_A) for p in grid)
        n_rest = len(grid) - n_better
        expected = (n_better * n_rest) / len(grid) ** 2
        assert bayes_factor(empty, SURVEY_A, "uniform", step) == pytest.approx(expected, rel=1e-12)

    def test_empty_data_never_exceeds_prior_mass_bound(self):
        empty = OutcomeCounts((0, 0, 0), (0, 0, 0))
        for scheme in ("uniform", "triangle", "power", "exp"):
            grid = enumerate_simplex(3, 0.25)
            weights = [scheme_weight(p, SURVEY_A, scheme) for p in grid]
            better = [better_than(p, SURVEY_A) for p in grid]
            bound = (
                sum(w for w, b in zip(weights, better) if b)
                * sum(w for w, b in zip(weights, better) if not b)
                / sum(weights) ** 2
            )
            assert bayes_factor(empty, SURVEY_A, scheme, 0.25) <= bound + 1e-12

    def test_matches_oracle_on_sampled_counts(self):
        # deterministic spread of count vectors with entries up to 10
        stream = lcg_uniforms(11, 60)
        cases = [
            tuple(int(u * 11) for u in stream[i : i + 3]) for i in range(0, 30, 3)
        ]
        base_float = OutcomeDistribution((0.18, 0.32, 0.50))
        base_exact = (Fraction(18, 100), Fraction(32, 100), Fraction(50, 100))
        for i in range(0, len(cases) - 1, 2):
            data = OutcomeCounts(cases[i], cases[i + 1])
            for scheme in ("uniform", "exp"):
                got = bayes_factor(data, base_float, scheme, 0.25)
                want = bayes_factor_oracle(cases[i], cases[i + 1], base_exact, scheme, 0.25)
                assert got == pytest.approx(want, abs=1e-9)

    def test_invariant_under_enumeration_order(self):
        # the oracle enumerates in its own order; agreement covers permutation
        data = OutcomeCounts((5, 5, 5), (2, 2, 2))
        base_exact = (Fraction(7, 100), Fraction(30, 100), Fraction(63, 100))
        got = bayes_factor(data, SURVEY_A, "triangle", 0.25)
        want = bayes_factor_oracle((5, 5, 5), (2, 2, 2), base_exact, "triangle", 0.25)
        assert got == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("step", [0.5, 0.25])
    @pytest.mark.parametrize(
        "counts_a,counts_b", [((3, 5), (4, 2)), ((0, 6), (6, 0)), ((1, 1), (0, 0))]
    )
    def test_two_category_grid_matches_oracle(self, step, counts_a, counts_b):
        base = OutcomeDistribution((0.4, 0.6))
        base_exact = (Fraction(4, 10), Fraction(6, 10))
        data = OutcomeCounts(counts_a, counts_b)
        for scheme in ("uniform", "triangle", "power", "exp"):
            got = bayes_factor(data, base, scheme, step)
            want = bayes_factor_oracle(counts_a, counts_b, base_exact, scheme, step)
            assert got == pytest.approx(want, abs=1e-9)

    @pytest.mark.parametrize("step", [0.5, 0.25])
    def test_three_category_coarse_grid_matches_oracle(self, step):
        # zero-heavy counts keep both hypothesis families feasible at step 0.5
        counts_a, counts_b = (0, 0, 5), (5, 0, 0)
        base_exact = (Fraction(18, 100), Fraction(32, 100), Fraction(50, 100))
        data = OutcomeCounts(counts_a, counts_b)
        for scheme in ("uniform", "exp"):
            got = bayes_factor(data, SURVEY_T, scheme, step)
            want = bayes_factor_oracle(counts_a, counts_b, base_exact, scheme, step)
            assert got == pytest.approx(want, abs=1e-9)

    def test_best_explaining_mean_monotone_in_successes(self):
        # growing the top-category count never drags the best-explaining
        # better-than-baseline distribution toward a lower mean
        grid = [p for p in enumerate_simplex(3, 0.25) if better_than(p, SURVEY_T)]
        best_means = []
        for successes in range(9):
            counts = (2, 3, successes)
            best = max(
                grid,
                key=lambda p: scheme_weight(p, SURVEY_T, "uniform")
                * multinomial_pmf(counts, p),
            )
            best_means.append(best.mean())
        assert all(a <= b + 1e-12 for a, b in zip(best_means, best_means[1:]))



class TestLogSpace:
    # the bundled agile / structured counts, scaled up until the likelihoods
    # fall far below the smallest float
    BIG_A = tuple(1000 * c for c in (1, 6, 22))
    BIG_B = tuple(1000 * c for c in (0, 5, 13))

    def test_large_counts_match_exact_oracle(self):
        # both likelihoods underflow as floats; their ratio stays well defined
        data = OutcomeCounts(self.BIG_A, self.BIG_B)
        base = OutcomeDistribution((0.5, 0.25, 0.25))
        base_exact = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        got = bayes_factor(data, base, "uniform", 0.25)
        want = log10_bayes_factor_oracle(self.BIG_A, self.BIG_B, base_exact, "uniform", 0.25)
        assert got.log10 == pytest.approx(want, abs=1e-9)
        assert got == 0.0

    def test_empty_family_is_minus_infinity(self):
        # at step 0.25 no all-positive grid distribution beats SURVEY_T
        got = bayes_factor(OutcomeCounts(self.BIG_A, self.BIG_B), SURVEY_T, "uniform", 0.25)
        assert got == 0.0
        assert got.log10 == -math.inf

    def test_log10_agrees_with_factor(self):
        data = OutcomeCounts((1, 6, 22), (0, 5, 13))
        for scheme in ("uniform", "triangle", "power", "exp"):
            got = bayes_factor(data, SURVEY_T, scheme, 0.05)
            assert got.log10 == pytest.approx(math.log10(got), rel=1e-12)

    def test_factor_survives_pickling(self):
        got = bayes_factor(OutcomeCounts((1, 2, 3), (2, 1, 1)), SURVEY_T, "exp", 0.25)
        back = pickle.loads(pickle.dumps(got))
        assert back == got and back.log10 == got.log10
        assert back.normalised.log10 == got.normalised.log10
        assert back.normalised.normalised is None

class TestNormalisedFactor:
    """The paper's factor divided by the prior mass of "A better", against exact rationals."""

    SURVEY_T_EXACT = (Fraction(18, 100), Fraction(32, 100), Fraction(50, 100))

    def test_matches_exact_oracle_on_sampled_counts(self):
        stream = lcg_uniforms(23, 36)
        cases = [tuple(int(u * 11) for u in stream[i : i + 3]) for i in range(0, 36, 3)]
        cases[:2] = [(0, 0, 5), (5, 0, 0)]
        for counts_a, counts_b in zip(cases[::2], cases[1::2]):
            data = OutcomeCounts(counts_a, counts_b)
            for scheme in SCHEMES:
                want = normalised_factor_oracle(counts_a, counts_b, self.SURVEY_T_EXACT, scheme, 0.25)
                got = normalised_bayes_factor(data, SURVEY_T, scheme, 0.25)
                assert float(got) == pytest.approx(float(want), rel=1e-9, abs=1e-300)
                assert got.log10 == pytest.approx(_log10_exact(want), abs=1e-9)

    @pytest.mark.parametrize("step", [0.5, 0.25])
    @pytest.mark.parametrize("counts_a,counts_b", [((3, 5), (4, 2)), ((0, 6), (6, 0)), ((1, 1), (0, 0))])
    def test_two_category_grid_matches_oracle(self, step, counts_a, counts_b):
        base = OutcomeDistribution((0.4, 0.6))
        data = OutcomeCounts(counts_a, counts_b)
        for scheme in SCHEMES:
            want = normalised_factor_oracle(
                counts_a, counts_b, (Fraction(4, 10), Fraction(6, 10)), scheme, step)
            assert normalised_bayes_factor(data, base, scheme, step) == pytest.approx(
                float(want), rel=1e-9)

    @pytest.mark.parametrize("step", [0.5, 0.25, 0.05, 0.01])
    def test_empty_data_give_exactly_one(self, step):
        empty = OutcomeCounts((0, 0, 0), (0, 0, 0))
        for baseline in (*BUNDLED_BASELINES.values(), SURVEY_A):
            for scheme in SCHEMES:
                got = normalised_bayes_factor(empty, baseline, scheme, step)
                assert got == 1.0 and got.log10 == 0.0

    @pytest.mark.parametrize("step", [0.05, 0.01])
    def test_top_against_bottom_favours_a_better(self, step):
        # all of A's projects in the top category, all of B's in the bottom one:
        # the paper's factor stays below 1, the normalised one exceeds it
        data = OutcomeCounts((0, 0, 50), (50, 0, 0))
        for name, baseline in BUNDLED_BASELINES.items():
            for scheme in SCHEMES:
                assert bayes_factor(data, baseline, scheme, step) < 1.0
                got = normalised_bayes_factor(data, baseline, scheme, step)
                assert got > 1.0, (name, scheme, float(got))
                assert jeffreys_label(got) != "negative"

    def test_log10_stays_finite_where_the_factor_underflows(self):
        # A's projects all at the bottom, B's all at the top: far below the float range
        counts_a, counts_b = (3000, 0, 0), (0, 0, 3000)
        data = OutcomeCounts(counts_a, counts_b)
        for scheme in SCHEMES:
            got = normalised_bayes_factor(data, SURVEY_T, scheme, 0.25)
            want = normalised_factor_oracle(counts_a, counts_b, self.SURVEY_T_EXACT, scheme, 0.25)
            assert got == 0.0 and math.isfinite(got.log10) and got.log10 < -330
            assert got.log10 == pytest.approx(_log10_exact(want), abs=1e-9)

    def test_zero_where_nothing_weighted_is_better(self):
        # no grid distribution's mean exceeds the top category's
        top = OutcomeDistribution((0.0, 0.0, 1.0))
        for scheme in SCHEMES:
            got = normalised_bayes_factor(OutcomeCounts((1, 2, 3), (3, 2, 1)), top, scheme, 0.25)
            assert got == 0.0 and got.log10 == -math.inf
            assert normalised_factor_oracle((1, 2, 3), (3, 2, 1), (0, 0, 1), scheme, 0.25) == 0

    @given(
        counts=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40)),
                        min_size=2, max_size=2),
        scheme=st.sampled_from(SCHEMES),
        name=st.sampled_from(sorted(BUNDLED_BASELINES)),
    )
    def test_ratio_to_the_paper_factor_is_one_over_the_prior_mass(self, counts, scheme, name):
        # the correction depends on the baseline, scheme and grid only, never on the data
        baseline = BUNDLED_BASELINES[name]
        data = OutcomeCounts(*counts)
        empty = OutcomeCounts((0, 0, 0), (0, 0, 0))
        prior_log10 = bayes_factor(empty, baseline, scheme, 0.05).log10
        paper = bayes_factor(data, baseline, scheme, 0.05)
        got = normalised_bayes_factor(data, baseline, scheme, 0.05)
        assert prior_log10 < 0
        assert got.log10 == pytest.approx(paper.log10 - prior_log10, abs=1e-12)

    @given(
        counts=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12), st.integers(0, 12)),
                        min_size=2, max_size=2),
        scheme=st.sampled_from(SCHEMES),
        # the top point mass adds a baseline that no grid distribution beats
        baseline=st.sampled_from([*BUNDLED_BASELINES.values(), OutcomeDistribution((0, 0, 1))]),
        step=st.sampled_from([0.25, 0.1, 0.05]),
    )
    def test_one_likelihood_pass_gives_both_factors(self, counts, scheme, baseline, step):
        # the normalised factor built apart from the paper's, in its own order of operations
        args = (OutcomeCounts(*counts), baseline, scheme, step)
        log_num, log_den, log_prior = _log_likelihoods(*args)
        if log_prior == -math.inf:
            want = -math.inf
        else:
            want = (log_num - log_den) / math.log(10) - log_prior / math.log(10)
        for got in (normalised_bayes_factor(*args), bayes_factor(*args).normalised):
            assert got.log10 == want
            assert float(got) == 10.0**want
            assert got.normalised is None


@pytest.mark.parametrize("factor", [bayes_factor, normalised_bayes_factor])
def test_data_impossible_under_no_difference_raise(factor):
    # a step of 1 leaves only the three point masses, and each puts zero
    # likelihood on data that fill two categories
    data = OutcomeCounts((1, 2, 0), (0, 1, 0))
    with pytest.raises(ZeroDenominator, match="^likelihood under the no-difference hypothesis is zero$"):
        factor(data, SURVEY_T, "uniform", 1.0)


class TestJeffreysLabel:
    @pytest.mark.parametrize(
        "k,label",
        [
            (0.5, "negative"),
            (1.0, "negative"),
            (2.0, "barely"),
            (3.0, "barely"),
            (5.0, "substantial"),
            (10.0, "substantial"),
            (20.0, "strong"),
            (32.0, "strong"),
            (50.0, "very strong"),
            (100.0, "very strong"),
            (150.0, "decisive"),
        ],
    )
    def test_bands(self, k, label):
        assert jeffreys_label(k) == label

    @pytest.mark.parametrize("k", [0.0, -1.0])
    def test_nonpositive_rejected(self, k):
        with pytest.raises(NonPositiveK):
            jeffreys_label(k)

    @given(st.floats(min_value=0.01, max_value=1000), st.floats(min_value=0.01, max_value=1000))
    def test_monotone(self, k1, k2):
        order = [
            "negative", "barely", "substantial", "strong", "very strong", "decisive",
        ]
        lo, hi = sorted((k1, k2))
        assert order.index(jeffreys_label(lo)) <= order.index(jeffreys_label(hi))
