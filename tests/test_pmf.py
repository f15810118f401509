"""Tests for the discrete probability engine."""

import os
import pickle
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bayeskit.defects import (
    EffectivenessGrid,
    WeibullParams,
    class_total_bugs,
    derived_prob_at_most,
    fit_weibull_posterior,
    total_bugs_posterior,
)
from bayeskit.density import kde, to_pmf
from bayeskit.errors import AllZeroMass, InvalidGrid, InvalidMass, NonNumericSupport
from bayeskit.pmf import (
    JointPmf2D,
    Pmf,
    _check_memory,
    _check_steps,
    _logsumexp,
    _shift_exp,
    iterate_update,
    mixture,
    update,
)

from oracles import interval_oracle, quantile_oracle


def _mean_or_error(pmf):
    try:
        return repr(pmf.mean())
    except NonNumericSupport:
        return "non-numeric"


def assert_same_pmf(got, want):
    # repr tells 0 from 0.0 and -0.0 from 0.0; tobytes compares the probabilities bit for bit
    assert repr(got.support) == repr(want.support)
    assert got.probs.tobytes() == want.probs.tobytes()
    assert _mean_or_error(got) == _mean_or_error(want)


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

    def test_prob_of_absent_point_is_zero(self):
        pmf = Pmf({1: 1, 2: 3})
        assert pmf.prob(2) == 0.75
        assert pmf.prob(5) == 0.0
        assert pmf.prob("x") == 0.0

    def test_len_and_repr(self):
        pmf = Pmf({2: 3, 1: 1})
        assert len(pmf) == 2
        assert repr(pmf) == "Pmf({1: 0.25, 2: 0.75})"


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

    def test_is_iterate_update_over_one_datum(self):
        prior = Pmf({0.1: 1, 0.4: 2, 0.7: 3, 0.9: 0})
        got = update(prior, lambda h: h * h)
        want = iterate_update(prior, ["d"], lambda d, h: h * h)
        assert_same_pmf(got, want)


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

    def test_no_components_raise(self):
        with pytest.raises(AllZeroMass, match="^mixture of no components$"):
            mixture([])


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

    def test_weight_shape_must_match_grid(self):
        with pytest.raises(ValueError, match=r"^weights shape \(3, 2\) does not match grid \(2, 3\)$"):
            JointPmf2D([0, 1], [0, 1, 2], np.ones((3, 2)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="^weights must be finite and nonnegative$"):
            JointPmf2D([0, 1], [0, 1], [[1.0, -1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("axis", ["x", "y"])
    def test_non_finite_axis_point_rejected(self, bad, axis):
        grids = {"x": [0.0, 1.0, 2.0], "y": [0.0, 1.0, 2.0]}
        grids[axis][2 if bad != -np.inf else 0] = bad
        with pytest.raises(ValueError, match="grid axes must be 1-D, finite and strictly increasing"):
            JointPmf2D(grids["x"], grids["y"], np.ones((3, 3)))


class TestIncreasingFastPath:
    """`Pmf(support, weights)` on the array route gives exactly what the dict route gives.

    The reference is the pairs form ``Pmf(list(zip(points, weights)))``, which
    always takes the dict route.
    """

    @staticmethod
    def dict_route(support, weights):
        points = support.tolist() if isinstance(support, np.ndarray) else support
        return Pmf(list(zip(points, weights)))

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
        assert_same_pmf(Pmf(support, weights), self.dict_route(support, weights))

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
        assert_same_pmf(Pmf(support, weights), self.dict_route(support, weights))

    def test_weights_checked_like_general(self):
        with pytest.raises(ValueError):
            Pmf([0.0, 1.0], [1.0, -1.0])
        with pytest.raises(ValueError):
            Pmf([0.0, 1.0], [1.0, float("nan")])
        with pytest.raises(ValueError):
            Pmf([0.0, 1.0], [1.0])
        with pytest.raises(AllZeroMass):
            Pmf([0.0, 1.0], [0.0, 0.0])
        assert_same_pmf(Pmf([0.0, 1.0], [-0.0, 2.0]), self.dict_route([0.0, 1.0], [-0.0, 2.0]))
        assert_same_pmf(Pmf([0.0, 1.0], ["1", "3"]), self.dict_route([0.0, 1.0], ["1", "3"]))
        for empty in ([], np.array([])):
            with pytest.raises(AllZeroMass, match="empty support"):
                Pmf(empty, empty)

    @pytest.mark.parametrize("weights,error", [
        ([[1], [2, 3]], TypeError),  # ragged: float() of a list
        (["a", "b"], ValueError),
        ([None, 1.0], TypeError),
        ([2**1100, 1], OverflowError),
    ])
    def test_unusable_weights_raise_as_on_dict_route(self, weights, error):
        with pytest.raises(error):
            Pmf([0.0, 1.0], weights)
        with pytest.raises(error):
            self.dict_route([0.0, 1.0], weights)

    @pytest.mark.parametrize("support", [
        np.array([0.5, 1.0, 4.0]),
        np.array([4.0, 0.5, 1.0]),
        np.array([0.5, 0.5, 1.0]),
        np.array([0, 3, 7]),
        np.array([7, 0, 3]),
    ])
    def test_ndarray_support_gives_python_numbers(self, support):
        pmf = Pmf(support, [1.0, 2.0, 3.0])
        assert {type(p) for p in pmf.support} == {type(support.tolist()[0])}
        assert set(pmf.support) == set(support.tolist())

    def test_ndarray_pairs_give_python_numbers(self):
        pmf = Pmf(np.array([[0.5, 1.0], [0.25, 3.0]]))
        assert pmf.support == (0.25, 0.5)
        assert all(type(p) is float for p in pmf.support)

    @pytest.mark.parametrize("n", [1, 2, 101, 1001])
    def test_range_supports_match_dict_route(self, n):
        weights = np.random.default_rng(n).random(n)
        assert_same_pmf(Pmf(list(range(n)), weights), self.dict_route(range(n), weights))
        assert_same_pmf(Pmf(range(n), weights), self.dict_route(range(n), weights))

    @given(
        points=st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=60, unique=True),
        data=st.data(),
    )
    def test_random_increasing_supports(self, points, data):
        points = sorted(points)
        weights = data.draw(st.lists(st.floats(0.01, 10.0), min_size=len(points),
                                     max_size=len(points)))
        want = self.dict_route(points, weights)
        assert_same_pmf(Pmf(np.array(points), weights), want)
        assert_same_pmf(Pmf(tuple(points), weights), want)

    def test_callers_match_general_constructor(self):
        d = kde([0.0, 0.4, 2.0], 0.5, (-3, 5, 513))
        assert_same_pmf(to_pmf(d), self.dict_route(d.grid, d.density * d.spacing))
        support = tuple(d.grid.tolist())
        logw = np.linspace(-50.0, 0.0, 513)
        assert_same_pmf(Pmf.from_log_weights(support, logw), self.dict_route(support, np.exp(logw)))
        joint = JointPmf2D([0.5, 1.0, 4.0], [-0.0, 2.0], np.arange(1.0, 7.0).reshape(3, 2))
        assert_same_pmf(joint.marginal_x(), self.dict_route([0.5, 1.0, 4.0], joint.probs.sum(axis=1)))
        assert_same_pmf(joint.marginal_y(), self.dict_route([-0.0, 2.0], joint.probs.sum(axis=0)))

    def test_grid_callers_take_array_route(self, monkeypatch):
        """With the dict route's sort made to fail, every grid posterior still builds."""
        import bayeskit.pmf as pmf_module

        def no_sort(*args, **kwargs):
            raise AssertionError("dict route taken")

        monkeypatch.setattr(pmf_module, "sorted", no_sort, raising=False)
        with pytest.raises(AssertionError):
            Pmf([1.0, 0.0], [1.0, 1.0])
        to_pmf(kde([0.0, 0.4, 2.0], 0.5, (-3, 5, 513)))
        Pmf.from_log_weights((0, 1, 2), [0.0, -1.0, -2.0])
        joint = JointPmf2D([0.5, 1.0, 4.0], [-0.0, 2.0], np.arange(1.0, 7.0).reshape(3, 2))
        joint.marginal_x(), joint.marginal_y()
        params = WeibullParams(6.0, 0.9)
        total_bugs_posterior(params, 3, 0.3, 0.8, 50)
        class_total_bugs(params, 3, EffectivenessGrid(e_steps=3, strong_steps=2), 50)
        derived_prob_at_most(2, fit_weibull_posterior([0, 1, 3], grid=((1, 9), (0.5, 2), (5, 4))), bins=10)


class TestOneRepresentation:
    """An ndarray support is kept as one read-only copy; everything reads as on the dict route."""

    QS = (0.0, 1e-9, 0.05, 0.25, 0.5, 0.75, 0.95, 1.0 - 1e-12, 1.0, 1.5)

    @staticmethod
    def frozen(values):
        arr = np.array(values)
        arr.flags.writeable = False
        return arr

    def supports(self):
        return {
            "float array": np.linspace(-2.0, 3.0, 257),
            "read-only float array": self.frozen(np.linspace(-2.0, 3.0, 257)),
            "float32 array": np.linspace(-2.0, 3.0, 257, dtype=np.float32),
            "int array": np.arange(-100, 157),
            "uint8 array": np.arange(256, dtype=np.uint8),
            "range": range(-100, 157),
            "list": np.linspace(-2.0, 3.0, 257).tolist(),
        }

    @pytest.mark.parametrize("kind", ["float array", "read-only float array", "float32 array",
                                      "int array", "uint8 array", "range", "list"])
    def test_reads_as_the_dict_route(self, kind):
        support = self.supports()[kind]
        weights = np.random.default_rng(len(kind)).random(len(support))
        points = support.tolist() if isinstance(support, np.ndarray) else list(support)
        want = Pmf(dict(zip(points, weights.tolist())))
        got = Pmf(support, weights)
        for pmf in (got, pickle.loads(pickle.dumps(got)), Pmf(support, weights)):
            assert [type(q) for q in (pmf.quantile(q) for q in self.QS)] == [
                type(want.quantile(q)) for q in self.QS]
            assert [pmf.quantile(q) for q in self.QS] == [want.quantile(q) for q in self.QS]
            assert repr(pmf.mean()) == repr(want.mean()) and len(pmf) == len(want)
            assert repr(pmf) == repr(want)
            assert repr(pmf.support) == repr(want.support)
            assert [pmf.prob(p) for p in points[::17] + [7.25, "x"]] == [
                want.prob(p) for p in points[::17] + [7.25, "x"]]
            assert list(pmf.items()) == list(want.items())
            assert pmf.probs.tobytes() == want.probs.tobytes()
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(got, protocol))
            assert repr(back) == repr(want) and back.probs.tobytes() == want.probs.tobytes()
            assert np.array_equal(back.points, got.points) and back.points.dtype == got.points.dtype

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_read_only_through_pickle(self, protocol):
        joint = JointPmf2D([0.5, 1.0, 4.0], [-0.0, 2.0], np.arange(1.0, 7.0).reshape(3, 2))
        array_route = (Pmf(np.linspace(0.0, 1.0, 5), np.ones(5)), joint.marginal_x())
        for pmf in (*array_route, Pmf({2: 1.0, 0: 3.0})):
            back = pickle.loads(pickle.dumps(pmf, protocol))
            assert repr(back) == repr(pmf) and back.probs.tobytes() == pmf.probs.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                back.probs[0] = 1.0
            if pmf in array_route:  # the dict route's `points` is a new array each time
                assert not back.points.flags.writeable
        back = pickle.loads(pickle.dumps(joint, protocol))
        for got, want in ((back.probs, joint.probs), (back.x_grid, joint.x_grid),
                          (back.y_grid, joint.y_grid)):
            assert not got.flags.writeable and got.tobytes() == want.tobytes()
        assert back.map_point() == joint.map_point()

    def held_grid(self, kind):
        """A read-only grid that nothing else can write, and a pmf over it."""
        if kind == "frozen grid":
            grid = self.frozen(np.linspace(0.0, 1.0, 5))
            return grid, Pmf(grid, np.ones(5))
        if kind == "kde grid":
            d = kde([0.2, 0.6], 0.1, (0.0, 1.0, 65))
            return d.grid, to_pmf(d)
        joint = JointPmf2D([0.5, 1.0, 4.0], [-0.0, 2.0], np.ones((3, 2)))
        if kind == "joint x grid":
            return joint.x_grid, joint.marginal_x()
        return joint.y_grid, joint.marginal_y()

    @pytest.mark.parametrize("arr, read_only_view", [
        (np.arange(5.0), False),
        (np.arange(10.0)[::2], True),  # read-only, but its writeable base can still change it
        (np.arange(5), False),  # integers stay integers
        (np.arange(5.0, dtype=np.float32), False),
        # frozen arrays, the grids of kde and of a joint included, are copied all the same
        *(pytest.param(kind, False, id=kind.replace(" ", "-"))
          for kind in ("frozen grid", "kde grid", "joint x grid", "joint y grid")),
    ])
    def test_other_arrays_are_copied_read_only(self, arr, read_only_view):
        if isinstance(arr, str):
            arr, pmf = self.held_grid(arr)
        else:
            arr = arr.copy() if not read_only_view else np.arange(10.0)[::2]
            arr.flags.writeable = not read_only_view
            pmf = Pmf(arr, np.ones(5))
        before = pmf.support
        assert not np.shares_memory(pmf.points, arr) and not pmf.points.flags.writeable
        assert pmf.points.dtype == (arr.dtype if arr.dtype.kind == "i" else np.float64)
        assert pmf.points.tolist() == arr.tolist()
        if arr.flags.writeable or read_only_view:
            (arr.base if read_only_view else arr)[:] = 9
        assert pmf.support == before and pmf.points.tolist() == list(before)

    def test_support_tuple_is_built_once_on_first_access(self):
        grid, weights = self.frozen(np.linspace(0.0, 1.0, 4096)), np.ones(4096)
        Pmf(grid, weights).credible_interval(0.9)
        tracemalloc.start()
        try:
            pmf = Pmf(grid, weights)
            assert pmf.mean() == pytest.approx(0.5) and pmf.median() == pmf.points[2047]
            pmf.credible_interval(0.9)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * grid.nbytes  # a tuple of the 4096 floats alone takes about 4.5
        assert pmf.support is pmf.support and all(type(p) is float for p in pmf.support)

    def test_points_of_tuple_supports(self):
        assert Pmf({2: 1.0, 0: 1.0}).points.tolist() == [0.0, 2.0]
        assert Pmf(range(3), [1, 1, 1]).points.dtype == np.float64
        with pytest.raises(NonNumericSupport, match="'a'"):
            Pmf({"a": 1.0}).points


class TestCallerArraysUntouched:
    """Constructors copy their array inputs once: a caller's array keeps its bits and flags."""

    @pytest.mark.parametrize("read_only", [False, True])
    def test_inputs_keep_their_bits_and_flags(self, read_only):
        rng = np.random.default_rng(3)
        given = {"x": np.array([0.5, 1.0, 4.0]), "y": np.array([-0.0, 2.0]),
                 "w": rng.random((3, 2)), "logw": np.log(rng.random((3, 2))) - 700.0}
        for arr in given.values():
            arr.flags.writeable = not read_only
        saved = {k: (v.tobytes(), v.flags.writeable) for k, v in given.items()}
        weights = _shift_exp(given["logw"])
        rows = _shift_exp(given["logw"], axis=1)
        joint = JointPmf2D(given["x"], given["y"], given["w"])
        from_logs = JointPmf2D.from_log_weights(given["x"], given["y"], given["logw"])
        assert {k: (v.tobytes(), v.flags.writeable) for k, v in given.items()} == saved
        assert weights.max() == 1.0 and (rows.max(axis=1) == 1.0).all()
        assert not np.shares_memory(weights, given["logw"])
        for got, w in ((joint, given["w"]), (from_logs, weights)):
            assert got.probs.tobytes() == (w / w.sum()).tobytes()
            for arr in (got.x_grid, got.y_grid, got.probs):
                assert not arr.flags.writeable
                assert not any(np.shares_memory(arr, v) for v in (*given.values(), weights))


class TestNonFiniteInputs:
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_update_names_non_finite_likelihood(self, value):
        with pytest.raises(ValueError, match="likelihood values must be finite and nonnegative"):
            update(Pmf({1: 1, 2: 1}), lambda h: value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_iterate_update_names_non_finite_likelihood(self, value):
        with pytest.raises(ValueError, match="likelihood values must be finite and nonnegative"):
            iterate_update(Pmf({1: 1, 2: 1}), [0, 1], lambda d, h: value if d else 0.5)

    @pytest.mark.parametrize("logw", [[0.0, np.nan], [0.0, np.inf], [-np.inf, np.nan]])
    def test_pmf_log_weights_named(self, logw):
        with pytest.raises(ValueError, match=r"NaN or \+inf"):
            Pmf.from_log_weights([0.0, 1.0], logw)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_joint_log_weights_named(self, value):
        logw = np.zeros((2, 2))
        logw[1, 0] = value
        with pytest.raises(ValueError, match=r"NaN or \+inf"):
            JointPmf2D.from_log_weights([0, 1], [0, 1], logw)


class TestSharedHelpers:
    """The one log-sum-exp and the one grid step-count check every pipeline uses."""

    def test_logsumexp_is_the_max_shifted_sum_bit_for_bit(self):
        rng = np.random.default_rng(3)
        terms = rng.normal(0.0, 40.0, size=(6, 9))
        top = terms.max(axis=1)
        want = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
        assert _logsumexp(terms, axis=1).tobytes() == want.tobytes()
        flat = terms.ravel()
        assert _logsumexp(flat) == flat.max() + np.log(np.exp(flat - flat.max()).sum())

    def test_logsumexp_of_no_finite_term_is_minus_inf(self):
        rows = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
        np.testing.assert_array_equal(_logsumexp(rows, axis=1), [-np.inf, 0.0])
        assert _logsumexp(np.array([])) == -np.inf
        assert _logsumexp(np.full(3, -np.inf)) == -np.inf

    def test_logsumexp_does_not_overflow(self):
        assert _logsumexp(np.array([1000.0, 1000.0])) == pytest.approx(1000.0 + np.log(2.0))

    @pytest.mark.parametrize("steps", [2, 5, 5.0, np.int64(7), np.float64(3.0)])
    def test_whole_step_counts_become_ints(self, steps):
        n = _check_steps("x", 0.0, 1.0, steps, InvalidGrid)
        assert n == steps and type(n) is int

    @pytest.mark.parametrize("steps", [2.5, 3.7, float("nan"), float("inf"), "4", None])
    def test_non_whole_step_counts_rejected(self, steps):
        with pytest.raises(InvalidGrid) as info:
            _check_steps("x", 0.0, 1.0, steps, InvalidGrid)
        assert str(info.value) == f"x grid step count must be a whole number, got {steps!r}"

    @pytest.mark.parametrize("lo,hi,steps,need", [
        (0.0, 1.0, 1, "at least 2 grid steps"),
        (0.5, 0.5, 2, "exactly 1 grid step"),
        (0.5, 0.5, 0, "exactly 1 grid step"),
    ])
    def test_step_count_must_fit_the_range(self, lo, hi, steps, need):
        with pytest.raises(InvalidGrid) as info:
            _check_steps("x", lo, hi, steps, InvalidGrid)
        assert str(info.value) == f"x range ({lo}, {hi}) needs {need}, got {steps}"

    @staticmethod
    def _memory(monkeypatch, pages):
        """Make this machine report `pages` pages of 4096 bytes."""
        sizes = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": pages}
        monkeypatch.setattr(os, "sysconf", lambda name: sizes[name])

    def test_grid_beyond_memory_refused_by_name(self, monkeypatch):
        self._memory(monkeypatch, 2**18)  # 1 GiB
        with pytest.raises(InvalidGrid) as info:
            _check_memory("test grid", (2**14, 2**14 + 1), np.float64, InvalidGrid)
        assert str(info.value) == (
            "the test grid (16384 x 16385 float64) needs 2.0 GiB, "
            "more than this machine's 1.0 GiB of memory"
        )

    def test_grid_within_memory_passes(self, monkeypatch):
        self._memory(monkeypatch, 2)
        _check_memory("test grid", (1024,), np.float64, InvalidGrid)  # exactly the 8192 bytes
        _check_memory("test grid", (2, 1024), np.int32, InvalidGrid)
        with pytest.raises(InvalidGrid, match="1025 float64"):
            _check_memory("test grid", (1025,), np.float64, InvalidGrid)

    def test_size_beyond_the_float_range_worded_in_whole_gib(self, monkeypatch):
        self._memory(monkeypatch, 2**18)
        with pytest.raises(InvalidGrid) as info:
            _check_memory("test grid", (2**1100,), np.float64, InvalidGrid)  # 2**1103 bytes
        assert str(info.value) == (
            f"the test grid ({2**1100} float64) needs {2**1073:,} GiB, "
            "more than this machine's 1.0 GiB of memory"
        )

    @pytest.mark.parametrize("failure", [AttributeError, ValueError, OSError])
    def test_nothing_checked_where_memory_is_unknown(self, monkeypatch, failure):
        def sysconf(name):
            raise failure(name)

        monkeypatch.setattr(os, "sysconf", sysconf)
        _check_memory("test grid", (10**18,), np.float64, InvalidGrid)
        monkeypatch.delattr(os, "sysconf")
        _check_memory("test grid", (10**18,), np.float64, InvalidGrid)
