"""Tests for the discrete probability engine."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayeskit.density import kde, to_pmf
from bayeskit.errors import AllZeroMass, InvalidMass, NonNumericSupport
from bayeskit.pmf import JointPmf2D, Pmf, iterate_update, mixture, update

from oracles import interval_oracle, quantile_oracle


def assert_same_pmf(got, want):
    # repr tells 0 from 0.0 and -0.0 from 0.0; tobytes compares the probabilities bit for bit
    assert repr(got.support) == repr(want.support)
    assert got.probs.tobytes() == want.probs.tobytes()


def assert_pmf_close(pmf, expected: dict, tol=1e-12):
    assert set(pmf.support) == set(expected)
    for point, p in expected.items():
        assert pmf.prob(point) == pytest.approx(p, abs=tol)


class TestConstruction:
    def test_equal_weights_split_evenly(self):
        assert_pmf_close(Pmf({1: 2, 2: 2}), {1: 0.5, 2: 0.5})

    def test_point_mass_identity(self):
        assert_pmf_close(Pmf({0: 1}), {0: 1.0})

    def test_hand_proportions(self):
        assert_pmf_close(Pmf({1: 1, 2: 3}), {1: 0.25, 2: 0.75})

    def test_duplicate_points_accumulate(self):
        assert_pmf_close(Pmf([(1, 1), (1, 1), (2, 2)]), {1: 0.5, 2: 0.5})

    def test_support_sorted_and_unique(self):
        pmf = Pmf({3: 1, 1: 1, 2: 1})
        assert pmf.support == (1, 2, 3)

    def test_all_zero_mass_raises(self):
        with pytest.raises(AllZeroMass):
            Pmf({1: 0, 2: 0})

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            Pmf({1: -0.5, 2: 1.0})

    def test_masses_always_normalized(self):
        pmf = Pmf({1: 0.2, 2: 17.3, 3: 4.0})
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-9)


class TestUpdate:
    def test_rare_condition_reliable_detector(self):
        # 99%-accurate detector, 1% base rate: one positive report is only
        # a coin flip.
        prior = Pmf({"ok": 0.01, "err": 0.99})
        posterior = update(prior, lambda h: 0.99 if h == "ok" else 0.01)
        assert posterior.prob("ok") == pytest.approx(0.5, abs=1e-12)

    def test_constant_likelihood_is_identity(self):
        prior = Pmf({1: 0.2, 2: 0.3, 3: 0.5})
        posterior = update(prior, lambda h: 0.7)
        assert_pmf_close(posterior, {1: 0.2, 2: 0.3, 3: 0.5}, tol=1e-12)

    def test_proportional_likelihood(self):
        prior = Pmf({1: 1, 2: 1, 3: 1})
        posterior = update(prior, lambda h: float(h))
        assert_pmf_close(posterior, {1: 1 / 6, 2: 2 / 6, 3: 3 / 6})

    def test_impossible_data_raises(self):
        prior = Pmf({1: 1, 2: 1})
        with pytest.raises(AllZeroMass):
            update(prior, lambda h: 0.0)

    def test_negative_likelihood_rejected(self):
        with pytest.raises(ValueError):
            update(Pmf({1: 1}), lambda h: -1.0)


class TestIterateUpdate:
    def test_empty_data_returns_prior(self):
        prior = Pmf({1: 0.25, 2: 0.75})
        posterior = iterate_update(prior, [], lambda d, h: 0.5)
        assert_pmf_close(posterior, {1: 0.25, 2: 0.75}, tol=1e-12)

    def test_order_independent(self):
        prior = Pmf({0.25: 1, 0.5: 1, 0.75: 1})

        def coin(d, h):
            return h if d == "H" else 1 - h

        forward = iterate_update(prior, ["H", "T", "H"], coin)
        backward = iterate_update(prior, ["H", "H", "T"], coin)
        np.testing.assert_allclose(forward.probs, backward.probs, atol=1e-15)

    def test_single_head_flip(self):
        prior = Pmf({0.25: 1, 0.5: 1, 0.75: 1})
        posterior = iterate_update(prior, ["H"], lambda d, h: h)
        assert_pmf_close(posterior, {0.25: 1 / 6, 0.5: 2 / 6, 0.75: 3 / 6})

    def test_batch_equals_sequential(self):
        prior = Pmf({0.25: 1, 0.5: 1, 0.75: 1})

        def coin(d, h):
            return h if d == "H" else 1 - h

        data = ["H", "T", "H", "H", "T"]
        batch = iterate_update(prior, data, coin)
        sequential = prior
        for d in data:
            sequential = iterate_update(sequential, [d], coin)
        np.testing.assert_allclose(batch.probs, sequential.probs, atol=1e-9)

    def test_impossible_data_raises(self):
        prior = Pmf({1: 1, 2: 1})
        with pytest.raises(AllZeroMass):
            iterate_update(prior, [0], lambda d, h: 0.0)


class TestSummaries:
    def test_mean_point_mass(self):
        assert Pmf({0: 1}).mean() == 0.0

    def test_mean_survey_column(self):
        assert Pmf({0: 0.07, 1: 0.30, 2: 0.63}).mean() == pytest.approx(1.56, abs=1e-12)

    def test_mean_symmetric(self):
        assert Pmf({-1: 0.5, 1: 0.5}).mean() == pytest.approx(0.0, abs=1e-15)

    def test_mean_non_numeric_support(self):
        with pytest.raises(NonNumericSupport):
            Pmf({"ok": 1, "err": 1}).mean()

    def test_mean_rejects_bool_support(self):
        with pytest.raises(NonNumericSupport, match="False"):
            Pmf([False, True, 2], [1, 1, 1]).mean()

    def test_mean_of_mixed_numbers(self):
        assert Pmf({Fraction(1, 2): 1, 1: 1, 2.5: 2}).mean() == pytest.approx(1.625, abs=1e-15)

    def test_median_point_mass(self):
        pmf = Pmf({3: 1})
        assert pmf.median() == 3
        ci = pmf.credible_interval(0.5)
        assert (ci.low, ci.high) == (3, 3)

    def test_symmetric_median_at_center(self):
        assert Pmf({1: 0.25, 2: 0.5, 3: 0.25}).median() == 2

    def test_uniform_interval_matches_cumsum_oracle(self):
        points = list(range(1, 101))
        pmf = Pmf({p: 1 for p in points})
        pairs = [(p, Fraction(1)) for p in points]
        lo, hi = interval_oracle(pairs, Fraction(95, 100))
        ci = pmf.credible_interval(0.95)
        assert (ci.low, ci.high) == (lo, hi)
        assert pmf.median() == quantile_oracle(pairs, Fraction(1, 2))

    @pytest.mark.parametrize("mass", [0.0, 1.0, -0.2, 1.5])
    def test_invalid_mass_rejected(self, mass):
        with pytest.raises(InvalidMass):
            Pmf({1: 1, 2: 1}).credible_interval(mass)

    @given(
        weights=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=12),
        mass_pct=st.integers(min_value=1, max_value=99),
    )
    def test_interval_coverage_at_least_mass(self, weights, mass_pct):
        pmf = Pmf({i: w for i, w in enumerate(weights)})
        mass = mass_pct / 100
        ci = pmf.credible_interval(mass)
        covered = sum(p for point, p in pmf.items() if ci.low <= point <= ci.high)
        assert covered >= mass - 1e-12

    @given(weights=st.lists(st.integers(min_value=1, max_value=50), min_size=1, max_size=12))
    def test_interval_widens_with_mass(self, weights):
        pmf = Pmf({i: w for i, w in enumerate(weights)})
        narrow = pmf.credible_interval(0.5)
        wide = pmf.credible_interval(0.95)
        assert wide.low <= narrow.low
        assert wide.high >= narrow.high


class TestMixture:
    def test_single_component_identity(self):
        base = Pmf({1: 0.3, 2: 0.7})
        assert_pmf_close(mixture([(1.0, base)]), {1: 0.3, 2: 0.7}, tol=1e-12)

    def test_equal_point_masses(self):
        m = mixture([(1.0, Pmf({0: 1})), (1.0, Pmf({1: 1}))])
        assert_pmf_close(m, {0: 0.5, 1: 0.5})

    def test_weighted_point_masses_mean(self):
        m = mixture([(0.25, Pmf({0: 1})), (0.75, Pmf({4: 1}))])
        assert m.mean() == pytest.approx(3.0, abs=1e-12)

    @given(weights=st.lists(st.floats(min_value=0.01, max_value=10), min_size=1, max_size=5))
    def test_mixture_of_identical_components(self, weights):
        base = Pmf({1: 0.2, 5: 0.8})
        m = mixture([(w, base) for w in weights])
        np.testing.assert_allclose(m.probs, base.probs, atol=1e-12)

    def test_all_zero_weights_raise(self):
        with pytest.raises(AllZeroMass):
            mixture([(0.0, Pmf({1: 1}))])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            mixture([(-1.0, Pmf({1: 1}))])


class TestJointPmf2D:
    def test_product_marginals_recover_factors(self):
        px = np.array([0.2, 0.8])
        py = np.array([0.1, 0.3, 0.6])
        joint = JointPmf2D([0, 1], [0, 1, 2], np.outer(px, py))
        np.testing.assert_allclose(joint.marginal_x().probs, px, atol=1e-12)
        np.testing.assert_allclose(joint.marginal_y().probs, py, atol=1e-12)

    def test_point_mass_map(self):
        w = np.zeros((3, 3))
        w[1, 2] = 1.0
        joint = JointPmf2D([1, 2, 3], [1, 2, 3], w)
        assert joint.map_point() == (2.0, 3.0)

    def test_uniform_joint_uniform_marginals(self):
        joint = JointPmf2D([0, 1], [0, 1], np.ones((2, 2)))
        np.testing.assert_allclose(joint.marginal_x().probs, [0.5, 0.5])
        np.testing.assert_allclose(joint.marginal_y().probs, [0.5, 0.5])

    def test_marginals_sum_to_one(self):
        w = np.arange(1, 7, dtype=float).reshape(2, 3)
        joint = JointPmf2D([0, 1], [0, 1, 2], w)
        assert joint.marginal_x().probs.sum() == pytest.approx(1.0, abs=1e-9)
        assert joint.marginal_y().probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_map_ties_break_to_smallest(self):
        joint = JointPmf2D([1, 2], [1, 2], np.ones((2, 2)))
        assert joint.map_point() == (1.0, 1.0)

    def test_all_zero_raises(self):
        with pytest.raises(AllZeroMass):
            JointPmf2D([0, 1], [0, 1], np.zeros((2, 2)))

    def test_log_weights_all_inf_raises(self):
        with pytest.raises(AllZeroMass):
            JointPmf2D.from_log_weights([0, 1], [0, 1], np.full((2, 2), -np.inf))


class TestIncreasingFastPath:
    """`Pmf._from_increasing` gives exactly what the general constructor gives."""

    @pytest.mark.parametrize("support", [
        np.linspace(-3.0, 3.0, 4096),
        np.array([-1.0, -0.0, 2.5]),
        np.arange(5),
        (0, 1.5, 2, 7),
        [-0.0, 1, 2],
        [False, True, 2],
    ])
    def test_matches_general_constructor(self, support):
        weights = np.random.default_rng(len(support)).random(len(support))
        points = support.tolist() if isinstance(support, np.ndarray) else support
        assert_same_pmf(Pmf._from_increasing(support, weights), Pmf(points, weights))

    @pytest.mark.parametrize("support", [
        [0.0, float("nan"), 2.0],
        [1.0, float("inf"), 3.0],
        [-0.0, 0.0, 1.0],
        [1.0, 1.0, 2.0],
        [3.0, 1.0, 2.0],
        ["a", "b", "c"],
        [(0, 1), (0, 2), (1, 0)],
        [(0,), (0, 2), (1,)],
        [2**70, 2**70 + 1, 2**71],
    ])
    def test_other_supports_take_general_path(self, support):
        weights = [0.2, 0.3, 0.5]
        assert_same_pmf(Pmf._from_increasing(support, weights), Pmf(support, weights))

    def test_weights_checked_like_general(self):
        with pytest.raises(ValueError):
            Pmf._from_increasing([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            Pmf._from_increasing([0.0, 1.0], [1.0, float("nan")])
        with pytest.raises(ValueError):
            Pmf._from_increasing([0.0, 1.0], [1.0])
        with pytest.raises(AllZeroMass):
            Pmf._from_increasing([0.0, 1.0], [0.0, 0.0])
        assert_same_pmf(Pmf._from_increasing([0.0, 1.0], [-0.0, 2.0]), Pmf([0.0, 1.0], [-0.0, 2.0]))

    @given(
        points=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60, unique=True),
        data=st.data(),
    )
    def test_random_increasing_supports(self, points, data):
        points = sorted(points)
        weights = data.draw(st.lists(st.floats(0.01, 10.0), min_size=len(points),
                                     max_size=len(points)))
        assert_same_pmf(Pmf._from_increasing(np.array(points), weights), Pmf(points, weights))
        assert_same_pmf(Pmf._from_increasing(tuple(points), weights), Pmf(points, weights))

    def test_callers_match_general_constructor(self):
        d = kde([0.0, 0.4, 2.0], 0.5, (-3, 5, 513))
        assert_same_pmf(to_pmf(d), Pmf(d.grid.tolist(), d.density * d.spacing))
        support = tuple(d.grid.tolist())
        logw = np.linspace(-50.0, 0.0, 513)
        assert_same_pmf(Pmf.from_log_weights(support, logw), Pmf(support, np.exp(logw)))
        joint = JointPmf2D([0.5, 1.0, 4.0], [-0.0, 2.0], np.arange(1.0, 7.0).reshape(3, 2))
        assert_same_pmf(joint.marginal_x(), Pmf([0.5, 1.0, 4.0], joint.probs.sum(axis=1)))
        assert_same_pmf(joint.marginal_y(), Pmf([-0.0, 2.0], joint.probs.sum(axis=0)))
