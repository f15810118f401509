"""Tests for pairwise speedup estimation and significance classification."""

import copy
import pickle
import warnings
from dataclasses import FrozenInstanceError, asdict, dataclass, fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bayeskit import density, speedup
from bayeskit.density import exclude_interval, gaussian_mixture_density, kde, scott_bandwidth, to_pmf
from bayeskit.errors import (
    AllZeroMass,
    DuplicateKey,
    EmptyCalibration,
    EmptyPrimary,
    EverythingExcluded,
    InvalidGrid,
    InvalidValue,
    NonPositiveInput,
)
from bayeskit.pmf import CredibleInterval
from bayeskit.speedup import (
    NOT_SIGNIFICANT,
    SIGNIFICANT,
    WEAK,
    BenchmarkDataset,
    BenchmarkRecord,
    calib_deltas,
    calib_speedups,
    classify,
    compare_pair,
    graph_to_dot,
    primary_speedups,
    ratio,
    ratio_grid,
    relationship_graph,
    speedup_posterior,
)

from oracles import (
    deltas_oracle,
    gaussian_mixture_oracle,
    log_kernel_sum_oracle,
    ratio_oracle,
    speedup_posterior_dense_oracle,
    speedup_posterior_log_oracle,
)

positive = st.floats(min_value=0.01, max_value=1e6, allow_nan=False)


def dataset(values: dict, metric="time") -> BenchmarkDataset:
    records = [
        BenchmarkRecord(lang, task, size, variant, value)
        for (lang, task, size, variant), value in values.items()
    ]
    return BenchmarkDataset(records, metric)


class TestRatio:
    def test_second_faster_positive(self):
        assert ratio(3, 1) == 3.0

    def test_first_faster_negative(self):
        assert ratio(1, 4) == -4.0

    def test_tie_maps_to_minus_one(self):
        assert ratio(5, 5) == -1.0

    @pytest.mark.parametrize("a,b", [(0, 1), (1, 0), (-2, 3)])
    def test_nonpositive_rejected(self, a, b):
        with pytest.raises(NonPositiveInput):
            ratio(a, b)

    @given(a=positive, b=positive)
    def test_antisymmetric_when_distinct(self, a, b):
        if a != b:
            assert ratio(a, b) == pytest.approx(-ratio(b, a), rel=1e-12)

    @given(a=positive, b=positive)
    def test_magnitude_at_least_one(self, a, b):
        assert abs(ratio(a, b)) >= 1.0


class TestSpeedupExtraction:
    def test_disjoint_tasks_empty(self):
        d = dataset({("X", "t1", 1, "best"): 1.0, ("Y", "t2", 1, "best"): 2.0})
        assert primary_speedups(d, "X", "Y") == []

    def test_single_common_task(self):
        d = dataset({("X", "t1", 1, "best"): 2.0, ("Y", "t1", 1, "best"): 1.0})
        assert primary_speedups(d, "X", "Y") == [2.0]

    def test_mirrored_pair_negates(self):
        d = dataset(
            {
                ("X", "t1", 1, "best"): 2.0,
                ("Y", "t1", 1, "best"): 1.0,
                ("X", "t2", 1, "best"): 3.0,
                ("Y", "t2", 1, "best"): 9.0,
            }
        )
        fwd = primary_speedups(d, "X", "Y")
        back = primary_speedups(d, "Y", "X")
        assert fwd == [-x for x in back]

    def test_calib_single_setup_plain_ratio(self):
        d = dataset({("X", "t1", 100, "v1"): 4.0, ("Y", "t1", 100, "v1"): 2.0})
        assert calib_speedups(d, "X", "Y") == [2.0]

    def test_calib_extra_slow_variant_ignored(self):
        base = {("X", "t1", 100, "v1"): 4.0, ("Y", "t1", 100, "v1"): 2.0}
        with_slow = dict(base)
        with_slow[("X", "t1", 100, "v9")] = 40.0
        assert calib_speedups(dataset(base), "X", "Y") == calib_speedups(
            dataset(with_slow), "X", "Y"
        )

    def test_calib_uses_largest_common_size(self):
        d = dataset(
            {
                ("X", "t1", 100, "v1"): 1.0,
                ("X", "t1", 200, "v1"): 3.0,
                ("Y", "t1", 100, "v1"): 2.0,
                ("Y", "t1", 200, "v1"): 12.0,
            }
        )
        # at the shared top size 200: ratio(3, 12) = -4
        assert calib_speedups(d, "X", "Y") == [-4.0]

    def test_calib_skips_tasks_without_shared_sizes(self):
        d = dataset(
            {
                ("X", "t1", 100, "v1"): 1.0,
                ("Y", "t1", 200, "v1"): 2.0,
                ("X", "t2", 50, "v1"): 5.0,
                ("Y", "t2", 50, "v1"): 1.0,
            }
        )
        assert calib_speedups(d, "X", "Y") == [5.0]

    def test_multi_size_fixture_matches_enumeration(self):
        values = {
            ("X", "t1", 100, "v1"): 1.0,
            ("X", "t1", 100, "v2"): 1.5,
            ("X", "t1", 200, "v1"): 2.0,
            ("X", "t1", 200, "v2"): 3.5,
            ("Y", "t1", 100, "v1"): 0.8,
            ("Y", "t1", 200, "v1"): 1.6,
            ("Y", "t1", 200, "v2"): 2.2,
        }
        d = dataset(values)
        best_x = min(values[("X", "t1", 200, v)] for v in ("v1", "v2"))
        best_y = min(values[("Y", "t1", 200, v)] for v in ("v1", "v2"))
        assert calib_speedups(d, "X", "Y") == [ratio_oracle(best_x, best_y)]


class TestCalibDeltas:
    def test_single_setup_zero_delta(self):
        d = dataset({("X", "t1", 100, "v1"): 4.0, ("Y", "t1", 100, "v1"): 2.0})
        assert calib_deltas(d, "X", "Y") == [0.0]

    def test_matches_exhaustive_oracle(self):
        values = {}
        value = 1.0
        for lang in ("X", "Y"):
            for task in ("t1", "t2"):
                for size in (100, 200):
                    for variant in ("v1", "v2"):
                        value += 0.7 if lang == "X" else 1.1
                        values[(lang, task, size, variant)] = value
        got = calib_deltas(dataset(values), "X", "Y")
        want = deltas_oracle(values, "X", "Y")
        assert got == pytest.approx(want, abs=1e-12)

    def test_length_counts_all_pairings(self):
        values = {
            ("X", "t1", 100, "v1"): 1.0,
            ("X", "t1", 100, "v2"): 1.2,
            ("X", "t1", 200, "v1"): 2.0,
            ("X", "t1", 200, "v2"): 2.4,
            ("Y", "t1", 100, "v1"): 0.9,
            ("Y", "t1", 200, "v1"): 1.8,
        }
        # sizes {100, 200} x |V_X|=2 x |V_Y|=1 per size
        assert len(calib_deltas(dataset(values), "X", "Y")) == 4


def shared_tasks_reference(values, lang1, lang2):
    tasks = [{t for (l, t, _, _) in values if l == lang} for lang in (lang1, lang2)]
    return sorted(tasks[0] & tasks[1])


def primary_speedups_reference(values, lang1, lang2):
    """Brute force: per shared task, the ratio of each language's smallest value."""
    out = []
    for task in shared_tasks_reference(values, lang1, lang2):
        best = [
            min(v for (l, t, _, _), v in values.items() if (l, t) == (lang, task))
            for lang in (lang1, lang2)
        ]
        out.append(ratio_oracle(*best))
    return out


def calib_speedups_reference(values, lang1, lang2):
    """Brute force: per shared task with a shared size, the best ratio at the top one."""
    out = []
    for task in shared_tasks_reference(values, lang1, lang2):
        sizes = [{n for (l, t, n, _) in values if (l, t) == (lang, task)} for lang in (lang1, lang2)]
        common = sizes[0] & sizes[1]
        if not common:
            continue
        best = [
            min(v for (l, t, n, _), v in values.items() if (l, t, n) == (lang, task, max(common)))
            for lang in (lang1, lang2)
        ]
        out.append(ratio_oracle(*best))
    return out


# tables where any task, size or variant may be missing for any language
sparse_tables = st.dictionaries(
    st.tuples(
        st.sampled_from(["X", "Y", "Z"]),
        st.sampled_from(["t1", "t2", "t3", "t4"]),
        st.sampled_from([10.0, 20.0, 50.0]),
        st.sampled_from(["v1", "v2", "v3"]),
    ),
    positive,
    max_size=60,
)


class TestBenchmarkIndex:
    @settings(max_examples=200, deadline=None)
    @given(values=sparse_tables)
    def test_extractors_match_brute_force(self, values):
        d = dataset(values)
        for lang1, lang2 in (("X", "Y"), ("Y", "X"), ("X", "Z"), ("X", "W")):
            assert calib_deltas(d, lang1, lang2) == deltas_oracle(values, lang1, lang2)
            assert calib_speedups(d, lang1, lang2) == calib_speedups_reference(values, lang1, lang2)
            assert primary_speedups(d, lang1, lang2) == primary_speedups_reference(
                values, lang1, lang2
            )

    def test_languages_sorted(self):
        d = dataset({("Y", "t1", 1, "v"): 1.0, ("X", "t1", 1, "v"): 2.0, ("Y", "t2", 1, "v"): 3.0})
        assert d.languages() == ("X", "Y")

    def test_duplicate_key_rejected(self):
        records = [BenchmarkRecord("X", "t1", 100.0, "v1", 1.0),
                   BenchmarkRecord("X", "t1", 100, "v1", 2.0)]
        with pytest.raises(DuplicateKey, match="duplicate measurement key"):
            BenchmarkDataset(records)

    @pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_value_rejected(self, value):
        with pytest.raises(InvalidValue, match="measurement .* must be positive and finite"):
            BenchmarkDataset([BenchmarkRecord("X", "t1", 100.0, "v1", value)])

    @pytest.mark.parametrize("size", [0.0, -1.0, float("nan"), float("inf")])
    def test_non_positive_or_non_finite_input_size_rejected(self, size):
        with pytest.raises(InvalidValue, match="input size .* must be positive and finite"):
            BenchmarkDataset([BenchmarkRecord("X", "t1", size, "v1", 1.0)])


@dataclass(frozen=True)
class DictBenchmarkRecord:
    """`BenchmarkRecord` as it was, with an instance dict: the reference for parity."""

    language: str
    task: str
    input_size: float
    variant: str
    value: float


class TestBenchmarkRecordParity:
    """`BenchmarkRecord` keeps no instance dict but behaves as the dict-backed dataclass did."""

    @given(
        language=st.text(max_size=5), task=st.text(max_size=5), input_size=positive,
        variant=st.text(max_size=3), value=st.floats(allow_nan=False),
    )
    def test_repr_equality_and_hash(self, language, task, input_size, variant, value):
        args = (language, task, input_size, variant, value)
        rec, old = BenchmarkRecord(*args), DictBenchmarkRecord(*args)
        assert repr(rec) == repr(old).replace("DictBenchmarkRecord", "BenchmarkRecord", 1)
        assert hash(rec) == hash(old) and rec == BenchmarkRecord(*args)
        assert rec != old and rec != args
        assert rec != BenchmarkRecord(language, task, input_size, variant + "x", value)

    def test_frozen_without_instance_dict(self):
        rec = BenchmarkRecord("C", "t1", 1000.0, "v1", 2.5)
        with pytest.raises(FrozenInstanceError):
            rec.value = 3.0
        with pytest.raises((FrozenInstanceError, AttributeError, TypeError)):
            rec.extra = 1
        assert not hasattr(rec, "__dict__")
        assert [f.name for f in fields(rec)] == [f.name for f in fields(DictBenchmarkRecord)]
        assert replace(rec, value=4.0) == BenchmarkRecord("C", "t1", 1000.0, "v1", 4.0)
        assert asdict(rec) == asdict(DictBenchmarkRecord("C", "t1", 1000.0, "v1", 2.5))

    def test_pickle_and_copy_round_trip(self):
        rec = BenchmarkRecord("C#", "t1", 1000.0, "v1", 2.5)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(rec, protocol))
            assert type(back) is BenchmarkRecord and back == rec
        for twin in (copy.copy(rec), copy.deepcopy(rec)):
            assert type(twin) is BenchmarkRecord and twin == rec and repr(twin) == repr(rec)


class TestSpeedupPosterior:
    CALIB = [1.8, 2.0, 2.2, 2.5, 1.6]
    DELTAS = [-0.3, -0.1, 0.0, 0.1, 0.2, 0.3, -0.2]
    PRIMARY = [1.9, 2.1, 2.3]

    def test_no_mass_in_impossible_band(self):
        post = speedup_posterior(self.PRIMARY, self.CALIB, self.DELTAS)
        inside = [p for x, p in post.items() if -1 < x <= 1]
        assert inside and max(inside) == 0.0

    def test_normalized(self):
        post = speedup_posterior(self.PRIMARY, self.CALIB, self.DELTAS)
        assert post.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_flat_likelihood_returns_prior(self):
        from bayeskit.density import exclude_interval, kde, to_pmf
        from bayeskit.speedup import ratio_grid
        from bayeskit.density import scott_bandwidth

        bw = scott_bandwidth(self.CALIB)
        grid = ratio_grid(self.PRIMARY + self.CALIB, bw)
        prior = to_pmf(exclude_interval(kde(self.CALIB, bw, grid), -1, 1))
        post = speedup_posterior(
            self.PRIMARY, self.CALIB, self.DELTAS, grid_spec=grid, delta_bandwidth=1e9
        )
        np.testing.assert_allclose(post.probs, prior.probs, atol=1e-6)

    def test_data_at_prior_peak_keeps_peak(self):
        post = speedup_posterior([2.0, 2.0], self.CALIB, [-0.02, 0.0, 0.02])
        peak = post.support[int(np.argmax(post.probs))]
        assert peak == pytest.approx(2.0, abs=0.1)

    def test_median_stays_near_observed_ratios(self):
        post = speedup_posterior(self.PRIMARY, self.CALIB, self.DELTAS)
        lo = min(self.PRIMARY + self.CALIB) - max(abs(d) for d in self.DELTAS)
        hi = max(self.PRIMARY + self.CALIB) + max(abs(d) for d in self.DELTAS)
        assert lo <= post.median() <= hi

    def test_agrees_with_generic_iterated_update(self):
        from bayeskit.density import exclude_interval, gaussian_mixture_density, kde, to_pmf
        from bayeskit.pmf import iterate_update

        grid = (-4, 4, 257)
        bw_d = 0.25
        post = speedup_posterior(
            self.PRIMARY, self.CALIB, self.DELTAS, grid_spec=grid, bandwidth=0.5,
            delta_bandwidth=bw_d,
        )
        prior = to_pmf(exclude_interval(kde(self.CALIB, 0.5, grid), -1, 1))
        want = iterate_update(
            prior,
            self.PRIMARY,
            lambda d, h: float(gaussian_mixture_density([d - h], self.DELTAS, bw_d)[0]),
        )
        np.testing.assert_allclose(post.probs, want.probs, atol=1e-12)

    def test_split_kernel_gives_the_same_bytes(self, monkeypatch):
        # demo-sized calls run inline; forcing every call into spans must not move a bit
        from bayeskit import density

        rng = np.random.default_rng(14)
        primary, calib = rng.normal(3.0, 0.8, 5), rng.normal(2.5, 0.6, 6)
        deltas = rng.normal(0.0, 0.3, 48)
        monkeypatch.setattr(density, "_usable_cpus", lambda: 1)
        inline = speedup_posterior(primary, calib, deltas)
        monkeypatch.setattr(density, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(density, "_SPAN_ELEMENTS", 1)
        split = speedup_posterior(primary, calib, deltas)
        assert split.probs.tobytes() == inline.probs.tobytes()
        assert np.array_equal(split.support, inline.support)

    def test_empty_calibration_raises(self):
        with pytest.raises(EmptyCalibration):
            speedup_posterior(self.PRIMARY, [], self.DELTAS)

    def test_empty_primary_raises(self):
        with pytest.raises(EmptyPrimary):
            speedup_posterior([], self.CALIB, self.DELTAS)

    @pytest.mark.parametrize("value", [-0.2, 0.0, float("nan"), float("inf")])
    @pytest.mark.parametrize("which", ["bandwidth", "delta_bandwidth"])
    def test_bad_bandwidth_named(self, which, value):
        with pytest.raises(InvalidValue, match=f"{which.replace('_', ' ')} must be positive"):
            speedup_posterior(self.PRIMARY, self.CALIB, self.DELTAS, **{which: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("which", ["primary", "calibration", "delta"])
    def test_non_finite_speedup_named(self, which, value):
        data = {"primary": list(self.PRIMARY), "calibration": list(self.CALIB),
                "delta": list(self.DELTAS)}
        data[which][1] = value
        with pytest.raises(InvalidValue, match=f"non-finite {which} speedup"):
            speedup_posterior(data["primary"], data["calibration"], data["delta"])


def signed_ratios(largest):
    return st.builds(lambda sign, mag: sign * mag, st.sampled_from([-1.0, 1.0]),
                     st.floats(1.0, largest))


def _dense_or_error(primary, calib, deltas, grid, bw, bw_delta):
    try:
        return speedup_posterior_dense_oracle(primary, calib, deltas, grid, bw, bw_delta)
    except (AllZeroMass, EverythingExcluded, InvalidGrid) as exc:
        return type(exc)


def _live_sums_underflow(primary, calib, deltas, grid, bw, bw_delta) -> bool:
    """Whether an exact kernel sum at a column the prior gives mass is 0.0 or subnormal."""
    prior = to_pmf(exclude_interval(kde(calib, bw, grid), -1, 1))
    live = np.asarray(prior.support)[prior.probs > 0]
    tiny = np.finfo(float).tiny
    return any((gaussian_mixture_oracle(d - live, deltas, bw_delta) < tiny).any() for d in primary)


def _check_against_oracles(primary, calib, deltas, grid, bw, bw_delta):
    """`speedup_posterior` bit for bit against the dense oracle where no live column's exact
    kernel sum underflows; where one does, against the log-domain oracle."""
    want = _dense_or_error(primary, calib, deltas, grid, bw, bw_delta)
    if isinstance(want, type) and want is not AllZeroMass:
        with pytest.raises(want):
            speedup_posterior(primary, calib, deltas, grid, bw, bw_delta)
        return
    got = speedup_posterior(primary, calib, deltas, grid, bw, bw_delta)
    if want is AllZeroMass or _live_sums_underflow(primary, calib, deltas, grid, bw, bw_delta):
        # far data: log weights reach 1e8 in size here, where one ulp of L is a 1e-8 mass error
        log_want = speedup_posterior_log_oracle(primary, calib, deltas, grid, bw, bw_delta)
        assert np.isfinite(got.probs).all()
        assert np.allclose(got.probs, log_want, rtol=1e-6, atol=1e-300)
    else:
        assert np.array_equal(got.support, want.support)
        assert np.array_equal(got.probs, want.probs)


class TestPriorSupportOnly:
    """The likelihood is evaluated only where the posterior can hold mass, with the same bits."""

    CALIB = [1.6, 1.8, 2.0, 2.2, 2.5]
    DELTAS = [-0.3, -0.1, 0.0, 0.1, 0.2, 0.3, -0.2]
    PRIMARY = [1.9, 2.1, 2.3]

    @settings(max_examples=80, deadline=None)
    @given(
        primary=st.lists(signed_ratios(40.0), min_size=1, max_size=5),
        calib=st.lists(signed_ratios(8.0), min_size=1, max_size=6),
        deltas=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=12),
        lo=st.floats(-60.0, -0.5),
        hi=st.floats(0.5, 60.0),
        n_points=st.integers(16, 400),
        bw=st.floats(0.02, 2.0),
        bw_delta=st.floats(0.005, 1.0),
    )
    # prior zero at both grid edges and in (-1, 1]; some live cells' likelihood underflows to 0
    @example(primary=[2.0, 2.2], calib=[2.0, 2.4], deltas=[-0.1, 0.0, 0.1], lo=-40.0, hi=40.0,
             n_points=401, bw=0.1, bw_delta=0.05)
    # a prior wide enough that data far from part of its support underflow there
    @example(primary=[30.0], calib=[-3.0, 5.0], deltas=[0.2, -0.2], lo=-60.0, hi=60.0,
             n_points=257, bw=2.0, bw_delta=0.01)
    def test_matches_dense_oracle(self, primary, calib, deltas, lo, hi, n_points, bw, bw_delta):
        _check_against_oracles(primary, calib, deltas, (lo, hi, n_points), bw, bw_delta)

    def test_example_has_dead_edges_band_and_underflowing_live_cells(self):
        # the first explicit example above really covers the three cases
        grid = (-40.0, 40.0, 401)
        prior = to_pmf(exclude_interval(kde([2.0, 2.4], 0.1, grid), -1, 1))
        live = prior.probs > 0
        support = np.asarray(prior.support)
        band = (support > -1) & (support <= 1)
        assert not live[0] and not live[-1] and band.any() and not live[band].any()
        lik = speedup.gaussian_mixture_density(2.0 - support[live], [-0.1, 0.0, 0.1], 0.05)
        assert (lik == 0).any() and (lik > 0).any()
        post = speedup_posterior([2.0, 2.2], [2.0, 2.4], [-0.1, 0.0, 0.1], grid, 0.1, 0.05)
        assert (np.asarray(post.probs)[live] == 0).any()

    def test_kernel_skips_only_zero_mass_columns(self, monkeypatch):
        seen = _spy_kernel(monkeypatch)
        primary = [2.0, 2.1, 2.05, 1.95, 2.02] * 4
        grid = (-8.0, 8.0, 321)
        speedup_posterior(primary, self.CALIB, self.DELTAS, grid, 0.1, 0.05)
        prior = to_pmf(exclude_interval(kde(self.CALIB, 0.1, grid), -1, 1))
        live = np.flatnonzero(prior.probs > 0)
        assert 0 < live.size < len(prior)
        cols = _likelihood_columns(seen, primary, np.asarray(prior.support))
        assert np.isin(cols, live).all() and (np.diff(cols) > 0).all()
        skipped = np.setdiff1d(live, cols)
        assert skipped.size > live.size // 2  # most of the prior's support is pruned here
        dense = speedup_posterior_dense_oracle(primary, self.CALIB, self.DELTAS, grid, 0.1, 0.05)
        assert (dense.probs[skipped] == 0.0).all()

    @settings(max_examples=60, deadline=None)
    @given(
        center=signed_ratios(20.0).filter(lambda c: abs(c) >= 1.5),
        offsets=st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=200),
        calib_offsets=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
        deltas=st.lists(st.floats(-0.1, 0.1), min_size=1, max_size=12),
        n_points=st.integers(64, 600),
        bw=st.floats(0.05, 1.0),
        bw_delta=st.floats(0.005, 0.2),
    )
    def test_concentrated_posteriors_match_dense_oracle(
        self, center, offsets, calib_offsets, deltas, n_points, bw, bw_delta
    ):
        # many data near one ratio with a narrow scatter: most live columns are pruned
        primary = [center + o for o in offsets]
        calib = [center + o for o in calib_offsets]
        _check_against_oracles(primary, calib, deltas, (-30.0, 30.0, n_points), bw, bw_delta)

    def test_underflowing_anchor_is_taken_in_log_form(self, monkeypatch):
        # no speedup explains both data: every column's exact kernel sum underflows, the
        # anchor's too; in log form the anchor is finite and prunes only zero-mass columns
        seen = _spy_kernel(monkeypatch)
        primary, calib, deltas, grid = [2.0, 40.0], [2.0, 40.0], [-0.1, 0.0, 0.1], (-60.0, 60.0, 481)
        with pytest.raises(AllZeroMass):
            speedup_posterior_dense_oracle(primary, calib, deltas, grid, 1.0, 0.05)
        got = speedup_posterior(primary, calib, deltas, grid, 1.0, 0.05)
        [anchor] = [p for p in seen if p.ndim == 1]
        assert (gaussian_mixture_oracle(anchor, deltas, 0.05) == 0).any()
        want = speedup_posterior_log_oracle(primary, calib, deltas, grid, 1.0, 0.05)
        assert np.allclose(got.probs, want, rtol=1e-9, atol=1e-300)
        prior = to_pmf(exclude_interval(kde(calib, 1.0, grid), -1, 1))
        cols = _likelihood_columns(seen, primary, np.asarray(prior.support))
        live = np.flatnonzero(prior.probs > 0)
        skipped = np.setdiff1d(live, cols)
        assert np.isin(cols, live).all() and skipped.size > 0
        assert (np.asarray(want)[skipped] == 0.0).all()


class TestFarData:
    """Kernel sums that underflow are taken in log form; the others keep their bits."""

    def test_spread_out_data_no_longer_impossible(self):
        # 38 delta bandwidths from every column, each exact kernel sum of one datum is 0.0
        deltas = np.random.default_rng(7).normal(0.0, 0.1, 200)
        primary, calib = [2.0, 40.0], [2.0, 5.0, 40.0]
        post = speedup_posterior(primary, calib, deltas)
        assert np.isfinite(post.probs).all() and post.probs.sum() == pytest.approx(1.0)
        bw, bw_delta = scott_bandwidth(calib), scott_bandwidth(deltas)
        grid = ratio_grid(primary + calib, bw)
        with pytest.raises(AllZeroMass):
            speedup_posterior_dense_oracle(primary, calib, deltas, grid, bw, bw_delta)
        want = speedup_posterior_log_oracle(primary, calib, deltas, grid, bw, bw_delta)
        assert np.allclose(post.probs, want, rtol=1e-9, atol=1e-300)
        assert 19.0 < post.median() < 23.0  # between the two data, as their likelihoods balance

    def test_log_sums_keep_bits_unless_they_underflow(self):
        deltas = np.linspace(-0.3, 0.3, 13)
        points = np.array([[0.0, 1.0, -2.5, 7.0], [7.9, 8.5, -30.0, 5e3]])  # 7.9: subnormal
        got = density._log_kernel_sums(
            gaussian_mixture_density(points, deltas, 0.2), points, deltas, 0.2)
        sums = gaussian_mixture_oracle(points.ravel(), deltas, 0.2).reshape(points.shape)
        low = sums < np.finfo(float).tiny
        assert low.any() and (sums[low] == 0).any() and (sums[low] > 0).any()
        with np.errstate(divide="ignore"):
            assert np.array_equal(got[~low], np.log(sums[~low]))
        want = [log_kernel_sum_oracle(x, deltas.tolist(), 0.2) for x in points[low]]
        assert np.allclose(got[low], want, rtol=1e-14, atol=0)

    def test_log_sums_in_blocks_and_overflow(self, monkeypatch):
        # underflowing points beyond one block, and one whose every z * z overflows
        monkeypatch.setattr(density, "_block_rows", lambda n: 3)
        deltas = [-0.1, 0.0, 0.2]
        points = np.array([50.0, 0.0, -60.0, 70.5, 1e3, 0.1, -2e3, 1e200])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sums = gaussian_mixture_density(points, deltas, 0.05)
            got = density._log_kernel_sums(sums, points, deltas, 0.05)
        want = [log_kernel_sum_oracle(x, deltas, 0.05) for x in points[:-1].tolist()]
        assert np.allclose(got[:-1], want, rtol=1e-14, atol=0)
        assert got[-1] == -np.inf

    @settings(max_examples=40, deadline=None)
    @given(
        first=signed_ratios(30.0),
        spreads=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=3),
        calib_offsets=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
        deltas=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=8),
        n_points=st.integers(16, 160),
        bw=st.floats(0.05, 2.0),
        bw_delta=st.floats(0.01, 1.0),
    )
    def test_spreads_up_to_a_thousand_bandwidths_match_log_oracle(
        self, first, spreads, calib_offsets, deltas, n_points, bw, bw_delta
    ):
        # primary data up to 1e3 delta bandwidths apart; deltas scaled to that bandwidth
        primary = [first] + [first + k * bw_delta for k in spreads]
        calib = [first + o for o in calib_offsets]
        deltas = [d * bw_delta for d in deltas]
        grid = ratio_grid(primary + calib, bw, n_points)
        try:
            post = speedup_posterior(primary, calib, deltas, grid, bw, bw_delta)
        except (EverythingExcluded, InvalidGrid):
            return  # a prior problem, not the likelihood's
        want = speedup_posterior_log_oracle(primary, calib, deltas, grid, bw, bw_delta)
        assert np.isfinite(post.probs).all()
        assert np.allclose(post.probs, want, rtol=1e-6, atol=1e-300)


def _spy_kernel(monkeypatch):
    """The points of every `gaussian_mixture_density` call `speedup_posterior` makes from now on."""
    seen = []
    real = speedup.gaussian_mixture_density

    def spy(points, samples, bandwidth):
        seen.append(np.array(points))
        return real(points, samples, bandwidth)

    monkeypatch.setattr(speedup, "gaussian_mixture_density", spy)
    return seen


def _likelihood_columns(seen, primary, grid):
    """Grid columns of the one two-dimensional (likelihood) call among the kernel calls seen."""
    [points] = [p for p in seen if p.ndim == 2]
    full = np.array(primary)[:, None] - grid[None, :]
    column = {full[:, j].tobytes(): j for j in range(grid.size)}
    return np.array([column[points[:, k].tobytes()] for k in range(points.shape[1])], dtype=int)


class TestClassify:
    def test_interval_straddling_zero_not_significant(self):
        ci = CredibleInterval(-1.4, 1.8, 0.95)
        assert classify(ci, mean=0.3, median=0.2) == NOT_SIGNIFICANT

    def test_wide_near_origin_weak(self):
        ci = CredibleInterval(1.0, 2.5, 0.95)
        assert classify(ci, mean=1.2, median=1.15) == WEAK

    def test_far_from_origin_significant(self):
        ci = CredibleInterval(-10.1, -8.7, 0.95)
        assert classify(ci, mean=-9.3, median=-9.22) == SIGNIFICANT

    def test_small_mean_band_not_significant(self):
        ci = CredibleInterval(1.0, 1.05, 0.95)
        assert classify(ci, mean=1.02, median=1.02) == NOT_SIGNIFICANT

    @given(
        lo=st.floats(min_value=-200, max_value=200, allow_nan=False),
        width=st.floats(min_value=0, max_value=100, allow_nan=False),
        mean=st.floats(min_value=-200, max_value=200, allow_nan=False),
        median=st.floats(min_value=-200, max_value=200, allow_nan=False),
    )
    def test_total_over_all_inputs(self, lo, width, mean, median):
        result = classify(CredibleInterval(lo, lo + width, 0.95), mean, median)
        assert result in (SIGNIFICANT, WEAK, NOT_SIGNIFICANT)


def summary(pair, lo, hi, median, significance):
    return type(
        "S", (), {"pair": pair, "ci": CredibleInterval(lo, hi, 0.95), "median": median,
                  "mean": median, "significance": significance},
    )


class TestRelationshipGraph:
    def test_all_inconclusive_no_edges(self):
        graph = relationship_graph(
            [summary(("X", "Y"), -1.5, 1.5, 0.3, NOT_SIGNIFICANT)]
        )
        assert graph.edges == ()
        assert {n for n, _ in graph.nodes} == {"X", "Y"}

    def test_single_significant_edge_direction(self):
        # positive median: second language faster, edge points at it
        graph = relationship_graph([summary(("X", "Y"), 2.5, 3.5, 3.0, SIGNIFICANT)])
        assert graph.edges == (("X", "Y", "solid"),)

    def test_negative_median_reverses_direction(self):
        graph = relationship_graph([summary(("X", "Y"), -3.5, -2.5, -3.0, SIGNIFICANT)])
        assert graph.edges == (("Y", "X", "solid"),)

    def test_weak_pairs_dotted(self):
        graph = relationship_graph([summary(("X", "Y"), 1.0, 2.5, 1.2, WEAK)])
        assert graph.edges == (("X", "Y", "dotted"),)

    def test_no_self_edges_one_edge_per_pair(self):
        summaries = [
            summary(("X", "Y"), 2.5, 3.5, 3.0, SIGNIFICANT),
            summary(("X", "Z"), 1.0, 2.5, 1.2, WEAK),
            summary(("Y", "Z"), -1.5, 1.5, 0.1, NOT_SIGNIFICANT),
        ]
        graph = relationship_graph(summaries)
        assert all(src != dst for src, dst, _ in graph.edges)
        assert len({(src, dst) for src, dst, _ in graph.edges}) == len(graph.edges)

    def test_fastest_node_at_ten(self):
        graph = relationship_graph([summary(("X", "Y"), 2.5, 3.5, 3.0, SIGNIFICANT)])
        positions = dict(graph.nodes)
        assert positions["Y"] == 10.0
        assert positions["X"] == 0.0

    def test_dot_rendering(self):
        graph = relationship_graph(
            [
                summary(("X", "Y"), 2.5, 3.5, 3.0, SIGNIFICANT),
                summary(("X", "Z"), 1.0, 2.5, 1.2, WEAK),
                summary(("Y", "Z"), -12.0, -8.0, -9.0, SIGNIFICANT),
            ]
        )
        dot = graph_to_dot(graph)
        assert dot.startswith("digraph")
        assert '"X" -> "Y";' in dot
        assert '"X" -> "Z" [style=dotted];' in dot
        assert '"Z" -> "Y";' in dot


class TestPairPipeline:
    def test_compare_pair_end_to_end(self):
        calib = {}
        value = 0.0
        for task in ("t1", "t2", "t3"):
            for size in (100, 200):
                for variant in ("v1", "v2"):
                    value += 0.13
                    calib[("X", task, size, variant)] = 3.0 + value
                    calib[("Y", task, size, variant)] = 1.0 + value / 3
        primary = {
            ("X", "p1", 1, "best"): 3.1,
            ("Y", "p1", 1, "best"): 1.05,
            ("X", "p2", 1, "best"): 3.4,
            ("Y", "p2", 1, "best"): 1.15,
        }
        s = compare_pair(dataset(calib), dataset(primary), "X", "Y")
        assert s.pair == ("X", "Y")
        assert s.median > 1.0  # Y is consistently faster
        assert s.significance in (SIGNIFICANT, WEAK, NOT_SIGNIFICANT)

    def test_pair_errors_keep_their_type_and_name_the_pair(self):
        calib = {
            (lang, "t1", size, variant): f * size * (1 + 0.01 * v)
            for lang, f in (("X", 1.0), ("Y", 3.0))
            for size in (10, 100)
            for v, variant in ((1, "v1"), (2, "v2"))
        }
        # a primary ratio of 60 lies far outside the calibration prior's support
        primary = {("X", "p1", 1, "best"): 3.0, ("Y", "p1", 1, "best"): 180.0}
        with pytest.raises(InvalidGrid, match="^X vs Y: grid does not overlap"):
            speedup.pair_posterior(dataset(calib), dataset(primary), "X", "Y")
        with pytest.raises(EmptyCalibration, match="^X vs Z: no calibration speedups"):
            speedup.pair_posterior(dataset(calib), dataset(primary), "X", "Z")
