"""Tests for Weibull fitting and hierarchical total-bug estimation."""

import copy
import decimal
import inspect
import math
import os
import pickle
import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bayeskit.defects import (
    DEFAULT_ALPHA_RANGE,
    DEFAULT_BETA_RANGE,
    DEFAULT_GRID_STEPS,
    PDF_ZERO_EPS,
    PRIORS,
    BugCounts,
    ClassEstimate,
    EffectivenessGrid,
    WeibullParams,
    _log_binomials,
    _log_factorials,
    _log_scaled_priors,
    _total_bug_cells,
    _weibull_log_pdf,
    binomial_pmf,
    class_total_bugs,
    default_n_max,
    derived_prob_at_most,
    effectiveness_posterior,
    estimate_class_totals,
    fit_weibull_posterior,
    pareto_fraction,
    total_bugs_posterior,
    weibull_cdf,
    weibull_pdf,
)
from bayeskit.errors import AllZeroMass, InvalidProbability, InvalidValue, NonPositiveParams
from bayeskit.pmf import JointPmf2D, Pmf, _logsumexp

from oracles import class_totals_oracle, lcg_uniforms, weibull_fit_oracle, weibull_inverse_cdf

P_TYPICAL = WeibullParams(8.0, 0.9)


class TestWeibullPrimitives:
    def test_cdf_at_zero(self):
        assert weibull_cdf(0.0, P_TYPICAL) == 0.0

    @pytest.mark.parametrize("beta", [0.5, 0.9, 1.0, 2.3])
    def test_cdf_at_scale(self, beta):
        p = WeibullParams(7.0, beta)
        assert weibull_cdf(7.0, p) == pytest.approx(1 - math.exp(-1), abs=1e-12)

    def test_shape_one_is_exponential(self):
        p = WeibullParams(4.0, 1.0)
        for x in (0.5, 1.0, 3.0, 10.0):
            assert weibull_cdf(x, p) == pytest.approx(1 - math.exp(-x / 4.0), abs=1e-12)
            assert weibull_pdf(x, p) == pytest.approx(math.exp(-x / 4.0) / 4.0, abs=1e-12)

    def test_pdf_at_zero_conventions(self):
        assert weibull_pdf(0.0, WeibullParams(4.0, 2.0)) == 0.0
        assert weibull_pdf(0.0, WeibullParams(4.0, 1.0)) == 0.25
        diverging = weibull_pdf(0.0, WeibullParams(4.0, 0.5))
        assert math.isfinite(diverging) and diverging > 0

    def test_negative_x_zero(self):
        assert weibull_pdf(-1.0, P_TYPICAL) == 0.0
        assert weibull_cdf(-1.0, P_TYPICAL) == 0.0

    @pytest.mark.parametrize("alpha,beta", [(0, 1), (1, 0), (-2, 1), (1, -2)])
    def test_nonpositive_params_rejected(self, alpha, beta):
        with pytest.raises(NonPositiveParams):
            WeibullParams(alpha, beta)

    @pytest.mark.parametrize("alpha,beta", [(math.inf, 1), (1, math.inf), (math.nan, 1), (1, math.nan)])
    def test_non_finite_params_rejected(self, alpha, beta):
        with pytest.raises(NonPositiveParams, match="positive and finite"):
            WeibullParams(alpha, beta)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_power_beyond_the_float_range_is_the_limit(self):
        # (1e10 / 1) ** 40 is beyond the float range: the cdf there is exactly 1, the density 0;
        # so it is where x / alpha or beta / alpha is beyond the float range
        for x, far in [(1e10, WeibullParams(1.0, 40.0)), (1e300, WeibullParams(1e-10, 2.0)),
                       (1e-300, WeibullParams(1e-310, 0.5))]:
            assert weibull_cdf(x, far) == 1.0
            assert weibull_pdf(x, far) == 0.0

    def test_finite_density_whose_direct_product_overflows(self):
        # at x = 0 the density is taken at x = 1e-12, where z ** (beta - 1) overflows
        a, b = 1e300, 0.01
        with decimal.localcontext() as ctx:
            ctx.prec = 60
            z, bd = decimal.Decimal(1e-12) / decimal.Decimal(a), decimal.Decimal(b)  # the exact quotient
            exact = float(bd / decimal.Decimal(a) * z ** (bd - 1) * (-(z**bd)).exp())
        assert exact == pytest.approx(7.58e6, rel=1e-3)
        assert weibull_pdf(0.0, WeibullParams(a, b)) == pytest.approx(exact, rel=1e-12)

    def test_density_beyond_the_float_range_rejected(self):
        with pytest.raises(NonPositiveParams, match=(
            r"^the Weibull density at x = 5e-324 is beyond the float range at alpha = 1\.0, beta = 0\.001$"
        )):
            weibull_pdf(5e-324, WeibullParams(1.0, 1e-3))
        with pytest.raises(NonPositiveParams, match=(  # 1 / alpha at x = 0
            r"^the Weibull density at x = 0\.0 is beyond the float range at alpha = 1e-310, beta = 1\.0$"
        )):
            weibull_pdf(0.0, WeibullParams(1e-310, 1.0))

    @given(
        alpha=st.floats(min_value=0.1, max_value=50),
        beta=st.floats(min_value=0.2, max_value=4),
    )
    @settings(max_examples=50)
    def test_cdf_monotone_and_reaches_tail(self, alpha, beta):
        p = WeibullParams(alpha, beta)
        xs = np.linspace(0, alpha * 5, 50)
        values = [weibull_cdf(float(x), p) for x in xs]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))
        tail_x = alpha * math.log(1000.0) ** (1.0 / beta) * (1 + 1e-9)
        assert weibull_cdf(tail_x, p) > 0.999


class TestFitWeibull:
    def test_single_cell_grid_is_that_cell(self):
        joint = fit_weibull_posterior([3, 5], "uniform", ((8, 8), (0.9, 0.9), (1, 1)))
        assert joint.map_point() == (8.0, 0.9)
        assert joint.probs[0, 0] == pytest.approx(1.0)

    def test_uniform_vs_jeffreys_ratio(self):
        counts = [0, 1, 3, 5, 8, 13]
        grid = ((2, 20), (0.4, 1.6), (40, 30))
        uni = fit_weibull_posterior(counts, "uniform", grid)
        jef = fit_weibull_posterior(counts, "jeffreys", grid)
        # posteriors share the likelihood, so their log-ratio is
        # log(alpha * beta) plus a constant
        log_ratio = (
            np.log(uni.probs)
            - np.log(jef.probs)
            - np.log(uni.x_grid)[:, None]
            - np.log(uni.y_grid)[None, :]
        )
        assert np.nanmax(log_ratio) - np.nanmin(log_ratio) < 1e-6

    def test_synthetic_recovery(self):
        us = lcg_uniforms(1, 200)
        draws = [weibull_inverse_cdf(u, 8.0, 0.9) for u in us]
        counts = [max(0, int(x + 0.5) - 1) for x in draws]
        joint = fit_weibull_posterior(counts, "uniform")
        map_a, map_b = joint.map_point()
        assert abs(map_a - 8.0) / 8.0 < 0.15
        assert abs(map_b - 0.9) / 0.9 < 0.15

    def test_map_agrees_with_continuous_mle(self):
        # flat prior makes the grid MAP a discretized maximum-likelihood
        # estimate; scipy's continuous fit of the shifted data is an
        # independent reference (agreement bounded by the grid cell size)
        from scipy.stats import weibull_min

        us = lcg_uniforms(1, 200)
        counts = [max(0, int(weibull_inverse_cdf(u, 8.0, 0.9) + 0.5) - 1) for u in us]
        beta_hat, _, alpha_hat = weibull_min.fit([c + 1.0 for c in counts], floc=0)
        map_a, map_b = fit_weibull_posterior(counts, "uniform").map_point()
        assert map_a == pytest.approx(alpha_hat, rel=0.03)
        assert map_b == pytest.approx(beta_hat, rel=0.03)

    def test_survives_extreme_underflow(self):
        # every cell's likelihood underflows in linear space; log-space
        # normalization must still produce a proper posterior
        joint = fit_weibull_posterior([1000], "uniform", ((0.001, 0.002), (3, 3), (4, 1)))
        assert joint.probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert joint.map_point()[0] == pytest.approx(0.002)

    @pytest.mark.parametrize(
        "counts,prior_kind,grid",
        [
            ([0, 0, 1, 3, 3, 3, 5, 8, 13, 0], "uniform", ((2, 20), (0.4, 1.6), (12, 10))),
            ([0, 0, 1, 3, 3, 3, 5, 8, 13, 0], "jeffreys", ((2, 20), (0.4, 1.6), (12, 10))),
            ([3, 5, 5], "uniform", ((8, 8), (0.9, 0.9), (1, 1))),
            ([1000], "uniform", ((0.001, 0.002), (3, 3), (4, 1))),
            (
                [max(0, int(weibull_inverse_cdf(u, 8.0, 0.9) + 0.5) - 1) for u in lcg_uniforms(1, 200)],
                "jeffreys",
                ((0.5, 40), (0.1, 3.0), (30, 20)),
            ),
        ],
    )
    def test_matches_per_count_oracle(self, counts, prior_kind, grid):
        # the fit sums over distinct counts, the oracle over every count and
        # cell; only the summation order differs
        joint = fit_weibull_posterior(counts, prior_kind, grid)
        oracle = weibull_fit_oracle(counts, prior_kind, grid)
        np.testing.assert_allclose(joint.probs, oracle, rtol=0, atol=1e-9)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            fit_weibull_posterior([], "uniform")
        with pytest.raises(ValueError):
            fit_weibull_posterior([1], "flat")
        with pytest.raises(NonPositiveParams):
            fit_weibull_posterior([1], "uniform", ((0, 1), (1, 2), (4, 4)))

    @pytest.mark.parametrize("grid", [
        ((1, math.inf), (0.1, 3), (4, 4)),
        ((1, 20), (0.1, math.inf), (4, 4)),
        ((1, math.nan), (0.1, 3), (4, 4)),
    ])
    def test_non_finite_grid_bound_rejected(self, grid):
        with pytest.raises(NonPositiveParams, match="finite"):
            fit_weibull_posterior([1, 2, 3], "uniform", grid)


    @pytest.mark.parametrize("grid,message", [
        (((0.1, 40), (0.1, 3), (1, 300)), "alpha range (0.1, 40) needs at least 2 grid steps, got 1"),
        (((5, 5), (0.1, 3), (3, 3)), "alpha range (5, 5) needs exactly 1 grid step, got 3"),
        (((0.1, 40), (0.1, 3), (0, 5)), "alpha range (0.1, 40) needs at least 2 grid steps, got 0"),
        (((1, 20), (0.3, 2), (5, 1)), "beta range (0.3, 2) needs at least 2 grid steps, got 1"),
        (((1, 20), (0.9, 0.9), (5, 2)), "beta range (0.9, 0.9) needs exactly 1 grid step, got 2"),
        (((1, 20), (0.9, 0.9), (5, 0)), "beta range (0.9, 0.9) needs exactly 1 grid step, got 0"),
    ])
    def test_step_count_must_fit_the_range(self, grid, message):
        # a range cannot be covered by one step, nor a single point by several
        with pytest.raises(NonPositiveParams) as info:
            fit_weibull_posterior([1, 2, 3], "uniform", grid)
        assert str(info.value) == message

    @pytest.mark.parametrize("grid,message", [
        (((1, 9), (0.5, 2), (2.5, 3)), "alpha grid step count must be a whole number, got 2.5"),
        (((1, 9), (0.5, 2), (4, 3.7)), "beta grid step count must be a whole number, got 3.7"),
    ])
    def test_step_count_must_be_whole(self, grid, message):
        with pytest.raises(NonPositiveParams) as info:
            fit_weibull_posterior([1, 2, 3], "uniform", grid)
        assert str(info.value) == message

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match=r"bug counts must be nonnegative, got \[1, -2\]"):
            fit_weibull_posterior([1, -2], "uniform")

    def test_overflowing_power_sums_are_zero_likelihood(self):
        grid = ((1e-300, 1e-299), (0.1, 3.0), (20, 10))
        with np.errstate(over="raise"):
            joint = fit_weibull_posterior([0, 1, 2, 5, 9], "uniform", grid)
        want = np.zeros((20, 10))
        want[-1, 0] = 1.0  # alpha = 1e-299, beta = 0.1
        np.testing.assert_array_equal(joint.probs, want)

class TestParetoFraction:
    def test_shape_one_closed_form(self):
        p = WeibullParams(6.0, 1.0)
        assert pareto_fraction(p, 60.0) == pytest.approx(6.0 * math.log(5) / 60.0, abs=1e-9)

    @pytest.mark.parametrize("alpha,beta", [(3, 0.7), (8, 0.9), (12, 1.8)])
    def test_matches_closed_form(self, alpha, beta):
        p = WeibullParams(alpha, beta)
        b = alpha * math.log(5) ** (1.0 / beta)
        assert pareto_fraction(p, 100.0) == pytest.approx(b / 100.0, abs=1e-8)

    def test_monotone_in_alpha(self):
        values = [pareto_fraction(WeibullParams(a, 0.9), 100.0) for a in (2, 5, 9, 20)]
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_nonpositive_xmax_rejected(self):
        with pytest.raises(NonPositiveParams):
            pareto_fraction(P_TYPICAL, 0.0)

    @pytest.mark.parametrize("x_max", [math.inf, math.nan])
    def test_non_finite_xmax_rejected(self, x_max):
        with pytest.raises(NonPositiveParams, match="positive and finite"):
            pareto_fraction(P_TYPICAL, x_max)

    @pytest.mark.parametrize("params,x_max", [
        (WeibullParams(1.0, 1e-4), 60.0),  # ln(5) ** 1e4 is beyond the float range
        (P_TYPICAL, 1e-320),  # a finite 80% point over a tiny x_max
    ])
    def test_non_finite_fraction_rejected(self, params, x_max):
        with pytest.raises(NonPositiveParams, match=(
            rf"^the 80% point over x_max = {x_max!r} is not finite at beta = {params.beta!r}$"
        )):
            pareto_fraction(params, x_max)


class TestBinomial:
    def test_certain_detection(self):
        assert binomial_pmf(3, 1.0, 3) == 1.0

    def test_single_trial(self):
        assert binomial_pmf(2, 0.5, 1) == pytest.approx(0.5)

    def test_all_misses(self):
        assert binomial_pmf(4, 0.25, 0) == pytest.approx(0.75**4)

    def test_more_found_than_present(self):
        assert binomial_pmf(2, 0.5, 3) == 0.0

    @pytest.mark.parametrize("e", [0.0, -0.5, 1.5])
    def test_invalid_rate(self, e):
        with pytest.raises(InvalidProbability):
            binomial_pmf(2, e, 1)

    @pytest.mark.parametrize("h,d", [(-1, 0), (2, -1)])
    def test_negative_count_rejected(self, h, d):
        with pytest.raises(ValueError, match=f"^counts must be nonnegative, got h={h}, d={d}$"):
            binomial_pmf(h, 0.5, d)

    # C(1100, 550) and C(2000, 1000) are beyond the float range
    @pytest.mark.parametrize("h,e,d", [(10, 0.3, 4), (25, 0.9, 25), (7, 0.15, 0), (1100, 0.5, 550),
                                       (2000, 0.5, 1000)])
    def test_matches_scipy_reference(self, h, e, d):
        from scipy.stats import binom

        assert binomial_pmf(h, e, d) == pytest.approx(binom(h, e).pmf(d), rel=1e-12)


    @settings(max_examples=150, deadline=None)
    @given(
        rates=st.lists(st.one_of(st.floats(1e-6, 1.0), st.just(1.0)), min_size=1, max_size=6),
        d=st.integers(0, 40),
        extra=st.integers(0, 60),
    )
    def test_log_binomial_rows_match_the_scalar_formula(self, rates, d, extra):
        # every row of the broadcast is, bit for bit, the per-rate float arithmetic
        h = np.arange(d + extra + 1)
        rows = _log_binomials(h, np.array(rates), d)
        log_fact = [math.lgamma(i + 1) for i in range(h.size)]
        for e, row in zip(rates, rows):
            for i, got in enumerate(row.tolist()):
                if i < d:
                    want = -math.inf
                else:
                    coeff = log_fact[i] - math.lgamma(d + 1) - log_fact[i - d]
                    miss = (0.0 if i == d else -math.inf) if e == 1.0 else (i - d) * math.log1p(-e)
                    want = coeff + d * math.log(e) + miss
                assert got == want and math.copysign(1, got) == math.copysign(1, want)

    @settings(max_examples=100, deadline=None)
    @given(
        rates=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6),
        alpha=st.floats(0.1, 40.0),
        beta=st.floats(0.1, 3.0),
        n_max=st.integers(0, 300),
    )
    def test_log_prior_rows_do_not_depend_on_their_neighbours(self, rates, alpha, beta, n_max):
        params = WeibullParams(alpha, beta)
        rows = _log_scaled_priors(params, np.array(rates), n_max)
        for i, e in enumerate(rates):
            alone = _log_scaled_priors(params, np.array([e]), n_max)[0]
            assert rows[i].tobytes() == alone.tobytes()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("alpha", [4.0, 1e-310, 1e300])
    @pytest.mark.parametrize("beta", [0.01, 0.5, 1.0, 2.0])
    def test_log_prior_at_zero_bugs_is_the_limit_convention(self, alpha, beta):
        # one log density over h = 0..n_max: no 0 * log 0, and no exp/log round trip at h = 0
        params = WeibullParams(alpha, beta)
        column = _log_scaled_priors(params, np.array([0.7, 0.95]), 5)[:, 0].tolist()
        if beta > 1:
            want = -math.inf
        elif beta == 1:
            want = math.log(beta) - math.log(alpha)
        else:
            want = float(_weibull_log_pdf(PDF_ZERO_EPS, params))
        assert column == [want, want]


class TestScalarsAreViews:
    """Each scalar function is its array formula at one point, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        rates=st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=6),
        alpha=st.floats(1e-3, 1e3),
        beta=st.one_of(st.just(1.0), st.floats(0.05, 0.99), st.floats(1.01, 5.0)),
        n_max=st.integers(1, 300),
    )
    def test_weibull_pdf_is_the_log_prior(self, rates, alpha, beta, n_max):
        params = WeibullParams(alpha, beta)
        rows = _log_scaled_priors(params, np.array(rates), n_max)
        for s, row in zip(rates, rows.tolist()):
            for h in range(n_max + 1):
                assert weibull_pdf(h * s, params) == math.exp(row[h])

    @settings(max_examples=100, deadline=None)
    @given(
        rates=st.lists(st.one_of(st.floats(1e-6, 1.0), st.just(1.0)), min_size=1, max_size=6),
        d=st.integers(0, 40),
        extra=st.integers(0, 60),
    )
    def test_binomial_pmf_is_the_log_binomial(self, rates, d, extra):
        h = np.arange(d + extra + 1)
        rows = _log_binomials(h, np.array(rates), d)
        for e, row in zip(rates, rows.tolist()):
            for i in range(h.size):
                assert binomial_pmf(i, e, d) == math.exp(row[i])

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(0, 10**6),
        alpha=st.floats(1e-3, 1e3),
        beta=st.floats(0.05, 5.0),
    )
    @example(n=140, alpha=77.75, beta=0.5)  # sqrt(x) and pow(x, 0.5) differ in the last bit here
    def test_weibull_cdf_is_the_derived_value(self, n, alpha, beta):
        joint = JointPmf2D([alpha], [beta], np.array([[1.0]]))
        (value,) = derived_prob_at_most(n, joint).support
        assert weibull_cdf(n + 1, WeibullParams(alpha, beta)) == value


class TestTotalBugsPosterior:
    def test_perfect_detection_point_mass(self):
        post = total_bugs_posterior(P_TYPICAL, 7, 1.0, 0.8, 60)
        assert post.prob(7) == 1.0

    def test_no_mass_below_found_count(self):
        post = total_bugs_posterior(P_TYPICAL, 5, 0.4, 0.8, 80)
        assert all(post.prob(h) == 0.0 for h in range(5))
        assert post.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_zero_found_low_rate_matches_loop_oracle(self):
        e, strong, n_max = 0.2, 0.8, 50
        post = total_bugs_posterior(P_TYPICAL, 0, e, strong, n_max)
        cells, _, _ = class_totals_oracle(8.0, 0.9, 0, [e], [strong], n_max)
        np.testing.assert_allclose(post.probs, cells[(0, 0)], atol=1e-12)
        assert post.support[int(np.argmax(post.probs))] <= 2

    def test_nmax_below_found_rejected(self):
        with pytest.raises(ValueError):
            total_bugs_posterior(P_TYPICAL, 10, 0.5, 0.8, 5)

    def test_negative_found_count_rejected(self):
        with pytest.raises(ValueError, match="^found-bug count must be nonnegative, got -1$"):
            total_bugs_posterior(P_TYPICAL, -1, 0.5, 0.8, 10)

    def test_cap_without_prior_mass_named(self):
        # shape > 1 puts no density at 0, the only total a cap of 0 allows
        with pytest.raises(ValueError, match="n_max=0 leaves the Weibull prior no mass"):
            total_bugs_posterior(WeibullParams(8.0, 1.5), 0, 0.5, 0.8, 0)


class TestEffectivenessPosterior:
    def test_single_cell_point_mass(self):
        grid = EffectivenessGrid((0.3, 0.3), (0.8, 0.8), 1, 1)
        joint = effectiveness_posterior(P_TYPICAL, 4, grid, 50)
        assert joint.probs[0, 0] == pytest.approx(1.0)

    def test_two_by_two_matches_explicit_sum(self):
        e_pts, s_pts = [0.2, 0.4], [0.7, 0.9]
        grid = EffectivenessGrid((0.2, 0.4), (0.7, 0.9), 2, 2)
        joint = effectiveness_posterior(P_TYPICAL, 3, grid, 40)
        _, weights, _ = class_totals_oracle(8.0, 0.9, 3, e_pts, s_pts, 40)
        for i in range(2):
            for j in range(2):
                assert joint.probs[i, j] == pytest.approx(weights[(i, j)], abs=1e-12)

    def test_marginals_sum_to_one(self):
        grid = EffectivenessGrid((0.15, 0.5), (0.7, 0.95), 4, 3)
        joint = effectiveness_posterior(P_TYPICAL, 6, grid, 80)
        assert joint.marginal_x().probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert joint.marginal_y().probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_range_validation(self):
        with pytest.raises(InvalidProbability):
            EffectivenessGrid((0.5, 0.2), (0.7, 0.9), 2, 2)
        with pytest.raises(InvalidProbability):
            EffectivenessGrid((0.2, 0.5), (0.7, 0.9), 1, 2)
        with pytest.raises(InvalidProbability):
            EffectivenessGrid((0.2, 0.2), (0.7, 0.9), 3, 2)

    @pytest.mark.parametrize("kwargs,message", [
        ({"e_steps": 2.5}, "e grid step count must be a whole number, got 2.5"),
        ({"strong_steps": 3.7}, "E grid step count must be a whole number, got 3.7"),
        ({"e_steps": 1}, "e range (0.15, 0.5) needs at least 2 grid steps, got 1"),
        ({"strong_range": (0.9, 0.9)}, "E range (0.9, 0.9) needs exactly 1 grid step, got 6"),
        ({"e_steps": 10**400}, f"e grid step count {10**400} is too large"),  # beyond float
        ({"strong_range": (0.9, 1.5)},
         "E effectiveness range must satisfy 0 < lo <= hi <= 1, got (0.9, 1.5)"),
        ({"e_range": (0.5, 0.2)}, "e effectiveness range must satisfy 0 < lo <= hi <= 1, got (0.5, 0.2)"),
    ])
    def test_step_count_rejections_name_the_axis(self, kwargs, message):
        with pytest.raises(InvalidProbability) as info:
            EffectivenessGrid(**kwargs)
        assert str(info.value) == message

    def test_whole_float_step_count_is_stored_as_int(self):
        grid = EffectivenessGrid(e_steps=3.0)
        assert grid.e_steps == 3 and type(grid.e_steps) is int
        np.testing.assert_array_equal(grid.e_points(), np.linspace(0.15, 0.5, 3))


class TestClassTotalBugs:
    def test_perfect_grid_point_mass_at_found(self):
        grid = EffectivenessGrid((1.0, 1.0), (1.0, 1.0), 1, 1)
        for d in (0, 3, 11):
            post = class_total_bugs(P_TYPICAL, d, grid, 40)
            assert post.prob(d) == 1.0

    def test_impossible_cell_rejected(self):
        # beta > 1 puts no prior mass on zero bugs, and perfect detection of
        # zero found bugs allows only zero: the e = 1 cell has no mass at all,
        # so it gets no weight, and only a grid of such cells fails
        params = WeibullParams(8.0, 2.0)
        grid = EffectivenessGrid((0.5, 1.0), (1.0, 1.0), 2, 1)
        alone = EffectivenessGrid((0.5, 0.5), (1.0, 1.0), 1, 1)
        got = class_total_bugs(params, 0, grid, 40)
        want = class_total_bugs(params, 0, alone, 40)
        assert got.probs.tobytes() == want.probs.tobytes()
        posterior = effectiveness_posterior(params, 0, grid, 40)
        assert posterior.probs[1, 0] == 0.0 and posterior.probs[0, 0] == 1.0
        _, weights, mixture = class_totals_oracle(8.0, 2.0, 0, [0.5, 1.0], [1.0], 40)
        assert weights == {(0, 0): 1.0, (1, 0): 0.0}
        np.testing.assert_allclose(got.probs, mixture, atol=1e-9)
        message = "^found count 0 is impossible in every effectiveness cell with totals capped at 40$"
        with pytest.raises(AllZeroMass, match=message):
            total_bugs_posterior(params, 0, 1.0, 1.0, 40)

    def test_matches_triple_loop_oracle(self):
        grid = EffectivenessGrid((0.2, 0.5), (0.7, 0.95), 3, 2)
        for d in (0, 3, 7):
            post = class_total_bugs(P_TYPICAL, d, grid, 50)
            _, _, mixture = class_totals_oracle(
                8.0, 0.9, d, [0.2, 0.35, 0.5], [0.7, 0.95], 50
            )
            np.testing.assert_allclose(post.probs, mixture, atol=1e-9)

    def test_median_weakly_increasing_in_found(self):
        grid = EffectivenessGrid((0.15, 0.5), (0.7, 0.95), 4, 3)
        medians = [class_total_bugs(P_TYPICAL, d, grid, 150).median() for d in range(11)]
        assert all(a <= b for a, b in zip(medians, medians[1:]))

    def test_estimate_rows_carry_per_method(self):
        rows = [
            BugCounts("c1", 2, 5, public_methods=10),
            BugCounts("c2", 0, 1, public_methods=None),
            BugCounts("c3", 2, 7, public_methods=4),
        ]
        grid = EffectivenessGrid((0.2, 0.5), (0.7, 0.95), 2, 2)
        estimates = estimate_class_totals(rows, P_TYPICAL, grid, n_max=60)
        assert estimates[0].per_method == pytest.approx(estimates[0].median / 10)
        assert estimates[1].per_method is None
        # classes with the same found count share one summary, not per_method
        first, third = estimates[0], estimates[2]
        assert (third.class_id, third.found) == ("c3", 2)
        assert (third.median, third.ci_low, third.ci_high) == (
            first.median, first.ci_low, first.ci_high
        )
        assert third.per_method == pytest.approx(third.median / 4)
        assert third.per_method != first.per_method

    @pytest.mark.parametrize("n_max", [None, 12])
    def test_estimates_carry_each_counts_summary(self, n_max):
        rows = [BugCounts("c1", 2, 5), BugCounts("c2", 9, 11), BugCounts("c3", 2, 7)]
        grid = EffectivenessGrid((0.2, 0.5), (0.7, 0.95), 2, 2)
        estimates = estimate_class_totals(rows, P_TYPICAL, grid, n_max=n_max)
        want = {}
        for d in (2, 9):
            cap = default_n_max(d) if n_max is None else n_max
            post = class_total_bugs(P_TYPICAL, d, grid, cap)
            ci = post.credible_interval(0.9)
            want[d] = (post.median(), ci.low, ci.high, cap, float(post.probs[-1]))
        assert estimates.by_found == want
        # each row reads its count's summary
        assert [(e.found, e.median, e.ci_low, e.ci_high) for e in estimates] == [
            (d, *want[d][:3]) for d in (2, 9, 2)
        ]

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_prior_with_all_mass_at_zero_bugs(self):
        # the density at 0 is 1/alpha, beyond the float range, but its log (713.8) is not:
        # all prior mass sits at 0 bugs, which a class with found bugs cannot have
        message = "^found count 2 is impossible in every effectiveness cell with totals capped at 100$"
        with pytest.raises(AllZeroMass, match=message):
            class_total_bugs(WeibullParams(1e-310, 1.0), 2, EffectivenessGrid(), 100)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_prior_with_no_mass_below_the_cap(self):
        # (h / alpha)^beta overflows at every total h >= 1, and beta > 1 puts no mass at h = 0
        message = r"^n_max=100 leaves the Weibull prior no mass on totals 0\.\.100$"
        with pytest.raises(ValueError, match=message):
            class_total_bugs(WeibullParams(1e-300, 3.0), 2, EffectivenessGrid(), 100)

    def test_default_n_max_rule(self):
        assert default_n_max(0) == 100
        assert default_n_max(9) == 100
        assert default_n_max(25) == 250


class TestDerivedProbAtMost:
    def test_point_mass_parameters(self):
        joint = JointPmf2D([8.0], [0.9], np.array([[1.0]]))
        pmf = derived_prob_at_most(5, joint)
        assert len(pmf.support) == 1
        assert pmf.support[0] == weibull_cdf(6.0, P_TYPICAL)

    def test_huge_threshold_mass_near_one(self):
        joint = fit_weibull_posterior([2, 4, 6], "uniform", ((2, 15), (0.5, 1.5), (20, 15)))
        pmf = derived_prob_at_most(10_000, joint)
        assert pmf.mean() > 0.999

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_threshold_beyond_float_powers(self):
        joint = fit_weibull_posterior([2, 4, 6], "uniform", ((2, 15), (0.5, 3.0), (20, 15)))
        # (n + 1) / alpha ** beta overflows to inf: every cell's cdf is exactly 1
        assert derived_prob_at_most(10**110, joint).support == (1.0,)
        with pytest.raises(InvalidValue, match=f"^at-most count {10**400} is too large for a float$"):
            derived_prob_at_most(10**400, joint)

    def test_two_cell_hand_computation(self):
        joint = JointPmf2D([8.0], [0.5, 1.0], np.array([[0.3, 0.7]]))
        pmf = derived_prob_at_most(3, joint)
        w_first = 1 - math.exp(-((4.0 / 8.0) ** 0.5))
        w_second = 1 - math.exp(-0.5)
        assert sorted(pmf.support) == pytest.approx(sorted([w_first, w_second]))
        assert pmf.prob(w_first) == pytest.approx(0.3)
        assert pmf.prob(w_second) == pytest.approx(0.7)

    def test_binned_variant_lands_in_unit_interval(self):
        joint = fit_weibull_posterior([1, 2, 5], "uniform", ((2, 15), (0.5, 1.5), (10, 8)))
        pmf = derived_prob_at_most(5, joint, bins=20)
        assert len(pmf.support) <= 20
        assert all(0 <= x <= 1 for x in pmf.support)
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestBugCounts:
    @pytest.mark.parametrize("args,message", [
        (("c1", -1, 2), "bug counts must be nonnegative"),
        (("c1", 1, -2), "bug counts must be nonnegative"),
        (("c1", 1, 2, 0), "public method count must be positive"),
        (("c1", 1, 2, 3, -5), "loc must be positive"),
        (("c1", 1, 10**400), "bug counts must not exceed the float range"),
        (("c1", 1, 2, 3, 10**309), "bug counts must not exceed the float range"),
    ])
    def test_bad_values_rejected(self, args, message):
        with pytest.raises(ValueError, match=message):
            BugCounts(*args)

    def test_optional_fields_may_be_missing(self):
        rec = BugCounts("c1", 0, 0)
        assert rec.public_methods is None and rec.loc is None


# -- the records as they were: frozen dataclasses, the reference for parity -------


@dataclass(frozen=True)
class DataclassBugCounts:
    class_id: str
    found_simple: int
    found_strong: int
    public_methods: int | None = None
    loc: int | None = None

    def __post_init__(self):
        if self.found_simple < 0 or self.found_strong < 0:
            raise ValueError(f"bug counts must be nonnegative: {self}")
        if self.public_methods is not None and self.public_methods <= 0:
            raise ValueError(f"public method count must be positive: {self}")
        if self.loc is not None and self.loc <= 0:
            raise ValueError(f"loc must be positive: {self}")


@dataclass(frozen=True)
class DataclassClassEstimate:
    class_id: str
    found: int
    median: float
    ci_low: float
    ci_high: float
    per_method: float | None


DataclassBugCounts.__qualname__ = "BugCounts"  # the dataclass repr prints the qualified name
DataclassClassEstimate.__qualname__ = "ClassEstimate"

optional_count = st.one_of(st.none(), st.integers(-3, 3))
bug_args = st.tuples(st.text(max_size=4), st.integers(-3, 3), st.integers(-3, 3),
                     optional_count, optional_count)
number = st.floats(allow_nan=False)
estimate_args = st.tuples(st.text(max_size=4), st.integers(0, 5), number, number, number,
                          st.one_of(st.none(), number))


def built(cls, args):
    try:
        return cls(*args), None
    except ValueError as exc:
        return None, str(exc)


class TestRecordParity:
    """The tuple records behave as the frozen dataclasses they replace."""

    @settings(max_examples=300, deadline=None)
    @given(args=bug_args)
    def test_bug_counts_repr_and_messages(self, args):
        new, new_error = built(BugCounts, args)
        old, old_error = built(DataclassBugCounts, args)
        assert new_error == old_error
        if old is not None:
            assert repr(new) == repr(old)
            assert tuple(new) == args

    @settings(max_examples=100, deadline=None)
    @given(args=estimate_args)
    def test_class_estimate_repr(self, args):
        assert repr(ClassEstimate(*args)) == repr(DataclassClassEstimate(*args))

    @settings(max_examples=200, deadline=None)
    @given(a=bug_args, b=bug_args)
    def test_equality_and_hash(self, a, b):
        (new_a, _), (new_b, _) = built(BugCounts, a), built(BugCounts, b)
        (old_a, _), (old_b, _) = built(DataclassBugCounts, a), built(DataclassBugCounts, b)
        if old_a is None or old_b is None:
            return
        assert (new_a == new_b) == (old_a == old_b)
        assert (new_a != new_b) == (old_a != old_b)
        assert hash(new_a) == hash(old_a)

    @pytest.mark.parametrize("value", [
        ("c1", 1, 2, None, None), ["c1", 1, 2, None, None], ClassEstimate("c1", 1, 2, None, None, None),
        DataclassBugCounts("c1", 1, 2), None, "c1",
    ])
    def test_never_equal_to_other_types(self, value):
        rec = BugCounts("c1", 1, 2)
        assert rec != value and value != rec
        assert not (rec == value) and not (value == rec)
        assert len({rec, DataclassBugCounts("c1", 1, 2)}) == 2

    @pytest.mark.parametrize("rec", [BugCounts("c1", 1, 2, 3, 4), BugCounts("c2", 0, 0),
                                     ClassEstimate("c1", 2, 4.0, 1.0, 9.0, None),
                                     ClassEstimate("c1", 0, -0.0, 0.0, 1.5, 0.25)])
    def test_assignment_raises_attribute_error(self, rec):
        with pytest.raises(AttributeError):
            rec.class_id = "other"
        with pytest.raises(AttributeError):
            rec.extra = 1
        assert not hasattr(rec, "__dict__")

    @pytest.mark.parametrize("rec", [BugCounts("c1", 1, 2, 3, 4), BugCounts("c2", 0, 0),
                                     ClassEstimate("c1", 2, 4.0, 1.0, 9.0, None)])
    def test_pickle_and_copy_round_trip(self, rec):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(rec, protocol))
            assert type(back) is type(rec) and back == rec
        for twin in (copy.copy(rec), copy.deepcopy(rec)):
            assert type(twin) is type(rec) and twin == rec and repr(twin) == repr(rec)

    def test_signature_and_defaults(self):
        new = inspect.signature(BugCounts).parameters
        old = inspect.signature(DataclassBugCounts).parameters
        assert [(p.name, p.default, p.kind) for p in new.values()] == [
            (p.name, p.default, p.kind) for p in old.values()
        ]
        assert BugCounts(class_id="c", found_simple=1, found_strong=2) == BugCounts("c", 1, 2, None, None)
        assert list(inspect.signature(ClassEstimate).parameters) == list(
            inspect.signature(DataclassClassEstimate).parameters
        )

    def test_replace_validates(self):
        rec = BugCounts("c1", 1, 2)
        assert rec._replace(loc=7) == BugCounts("c1", 1, 2, None, 7)
        with pytest.raises(ValueError, match="^loc must be positive: BugCounts"):
            rec._replace(loc=0)


def _traced_peak(call):
    """The result of `call()` and the peak of memory traced while it ran, in bytes."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _expression_fit(counts, prior_kind, grid):
    """`fit_weibull_posterior`'s masses from the one-expression form it was first written in."""
    data = np.asarray([float(c) for c in counts])
    (a_lo, a_hi), (b_lo, b_hi), (n_a, n_b) = grid
    alphas = np.geomspace(a_lo, a_hi, n_a)
    log_a = np.log(alphas)[:, None]
    betas = np.linspace(b_lo, b_hi, n_b)
    x, m = np.unique(data + 1.0, return_counts=True)
    n, log_x = data.size, np.log(x)
    log_power_sum = _logsumexp(np.log(m) + np.outer(betas, log_x), axis=1)
    with np.errstate(over="ignore"):
        power_sum = np.exp(log_power_sum - betas * log_a)
    logw = n * (np.log(betas) - log_a) + (betas - 1.0) * (m @ log_x - n * log_a) - power_sum
    if prior_kind == "jeffreys":
        logw -= log_a + np.log(betas)
    w = np.exp(logw - logw.max())
    return w / w.sum()


def _expression_derived(n, joint, bins):
    """`derived_prob_at_most`'s binned pmf from the expressions it was first written with."""
    values = 1.0 - np.exp(-(((n + 1.0) / joint.x_grid[:, None]) ** joint.y_grid[None, :]))
    edges = np.linspace(0.0, 1.0, bins + 1)
    idx = np.clip(np.searchsorted(edges, values.ravel(), side="right") - 1, 0, bins - 1)
    mass = np.zeros(bins)
    np.add.at(mass, idx, joint.probs.ravel())
    return Pmf((edges[:-1] + edges[1:]) / 2.0, mass)


class TestInPlaceGrids:
    """The defect grids are built in place: the same bits, at most about two grid arrays."""

    GRID = (DEFAULT_ALPHA_RANGE, DEFAULT_BETA_RANGE, DEFAULT_GRID_STEPS)
    GRID_BYTES = DEFAULT_GRID_STEPS[0] * DEFAULT_GRID_STEPS[1] * 8

    @settings(max_examples=40, deadline=None)
    @given(
        counts=st.lists(st.integers(0, 400), min_size=1, max_size=30),
        prior=st.sampled_from(PRIORS),
        n_a=st.integers(2, 40),
        n_b=st.integers(2, 30),
        a_hi=st.floats(1.0, 1e4),
    )
    def test_fit_matches_expression_form(self, counts, prior, n_a, n_b, a_hi):
        grid = ((0.1, a_hi), (0.1, 3.0), (n_a, n_b))
        got = fit_weibull_posterior(counts, prior, grid)
        assert got.probs.tobytes() == _expression_fit(counts, prior, grid).tobytes()

    @pytest.mark.parametrize("prior", PRIORS)
    def test_fit_holds_at_most_two_and_a_half_grid_arrays(self, prior):
        counts = [0, 1, 1, 2, 3, 5, 8, 13, 0, 4] * 20
        fit_weibull_posterior(counts, prior)  # caches and first-use allocations out of the count
        joint, peak = _traced_peak(lambda: fit_weibull_posterior(counts, prior))
        assert joint.probs.tobytes() == _expression_fit(counts, prior, self.GRID).tobytes()
        assert peak < 2.5 * self.GRID_BYTES

    @pytest.mark.parametrize("n, bins", [(0, 100), (5, 100), (40, 7), (10_000, 1)])
    def test_derived_matches_expression_form(self, n, bins):
        joint = fit_weibull_posterior([0, 2, 3, 9, 1], "jeffreys", ((0.5, 60), (0.2, 3), (50, 40)))
        got = derived_prob_at_most(n, joint, bins=bins)
        want = _expression_derived(n, joint, bins)
        assert got.support == want.support and got.probs.tobytes() == want.probs.tobytes()

    def test_derived_holds_at_most_two_and_a_half_grid_arrays(self):
        joint = fit_weibull_posterior([0, 1, 1, 2, 3, 5, 8, 13, 0, 4] * 20)
        derived_prob_at_most(5, joint, bins=100)
        pmf, peak = _traced_peak(lambda: derived_prob_at_most(5, joint, bins=100))
        assert pmf.probs.tobytes() == _expression_derived(5, joint, 100).probs.tobytes()
        assert peak < 2.5 * self.GRID_BYTES

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 60),
        n_a=st.integers(1, 30),
        n_b=st.integers(1, 30),
        a_hi=st.floats(0.5, 1e4),
        b_hi=st.floats(0.2, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unbinned_matches_the_dict_route(self, n, n_a, n_b, a_hi, b_hi, seed):
        # spikes carry each distinct value's masses summed in cell order, as a dict would
        alphas = np.geomspace(0.1, a_hi, n_a) if n_a > 1 else np.array([a_hi])
        betas = np.linspace(0.1, b_hi, n_b) if n_b > 1 else np.array([b_hi])
        weights = np.random.default_rng(seed).random((alphas.size, betas.size))
        weights[weights < 0.2] = 0.0  # zero-mass cells stay in the support
        weights[0, 0] = 1.0
        joint = JointPmf2D(alphas, betas, weights)
        values = 1.0 - np.exp(-(((n + 1.0) / joint.x_grid[:, None]) ** joint.y_grid[None, :]))
        want = Pmf(list(zip(values.ravel().tolist(), joint.probs.ravel().tolist())))  # dict route
        got = derived_prob_at_most(n, joint)
        assert got.support == want.support and got.probs.tobytes() == want.probs.tobytes()

    def test_unbinned_holds_a_few_grid_arrays(self):
        # the dict route held about 26 grid arrays here
        joint = fit_weibull_posterior([0, 1, 1, 2, 3, 5, 8, 13, 0, 4] * 20)
        derived_prob_at_most(5, joint)
        pmf, peak = _traced_peak(lambda: derived_prob_at_most(5, joint))
        assert len(pmf) > 0.5 * joint.probs.size  # mostly distinct values
        assert peak < 8 * self.GRID_BYTES

    def test_log_factorials_build_no_list(self):
        ns = np.array([0, 1, 2, 170, 171, 10**6, 2**40, 2**53 - 1])
        assert _log_factorials(ns).tolist() == [math.lgamma(n + 1) for n in ns.tolist()]
        big = np.arange(10**6)
        got, peak = _traced_peak(lambda: _log_factorials(big))
        assert peak < 3 * got.nbytes  # a list of Python floats held about 9 result arrays

    def test_total_bug_cells_hold_under_three_grids(self):
        # the log cells are dropped once shifted into their copy, before the likelihood sum
        grid, n_max = EffectivenessGrid(), 10**5
        grid_bytes = grid.e_steps * grid.strong_steps * (n_max + 1) * 8
        _total_bug_cells(P_TYPICAL, 3, grid, 10)  # first-use allocations out of the count
        (_, _, cells, _), peak = _traced_peak(lambda: _total_bug_cells(P_TYPICAL, 3, grid, n_max))
        assert cells.nbytes == grid_bytes and peak < 3 * grid_bytes

    def test_public_constructors_leave_the_callers_arrays_alone(self):
        logw = np.linspace(-5.0, 0.0, 12).reshape(3, 4)
        weights = np.exp(logw)
        kept_logw, kept_weights = logw.copy(), weights.copy()
        from_logs = JointPmf2D.from_log_weights([1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0], logw)
        direct = JointPmf2D([1.0, 2.0, 3.0], [0.0, 1.0, 2.0, 3.0], weights)
        assert np.array_equal(logw, kept_logw) and np.array_equal(weights, kept_weights)
        assert logw.flags.writeable and weights.flags.writeable
        assert from_logs.probs is not logw and direct.probs is not weights
        shifted = np.exp(kept_logw - kept_logw.max())
        assert from_logs.probs.tobytes() == (shifted / shifted.sum()).tobytes()


class TestGridsBeyondMemory:
    """Each defect grid is refused, by name, before it is built when it exceeds memory."""

    @pytest.fixture(autouse=True)
    def memory(self, monkeypatch):
        sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 1}  # 4096 bytes of memory
        monkeypatch.setattr(os, "sysconf", lambda name: sizes[name])

    def test_weibull_grid(self):
        joint = fit_weibull_posterior([1, 2], "uniform", ((1, 9), (0.5, 2), (16, 32)))
        assert joint.probs.shape == (16, 32)  # 4096 bytes
        with pytest.raises(NonPositiveParams, match=r"^the alpha x beta grid \(16 x 33 float64\)"):
            fit_weibull_posterior([1, 2], "uniform", ((1, 9), (0.5, 2), (16, 33)))

    def test_total_bug_grid(self):
        grid = EffectivenessGrid((0.2, 0.4), (0.8, 0.9), 2, 2)
        assert len(class_total_bugs(P_TYPICAL, 3, grid, 127)) == 128  # 2 x 2 x 128 x 8 bytes
        with pytest.raises(ValueError, match=r"^the e x E x total-bug grid \(2 x 2 x 129 float64\)"):
            class_total_bugs(P_TYPICAL, 3, grid, 128)

    def test_bin_edges(self):
        joint = JointPmf2D([8.0], [0.9], np.array([[1.0]]))
        assert derived_prob_at_most(5, joint, bins=511).mean() > 0  # 512 edges
        with pytest.raises(ValueError, match=r"^the grid of bin edges \(513 float64\)"):
            derived_prob_at_most(5, joint, bins=512)
