"""Tests for kernel density estimation and interval exclusion."""

import os
import pickle
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bayeskit import density
from bayeskit.density import (
    AUTO,
    DensityGrid,
    exclude_interval,
    gaussian_mixture_density,
    kde,
    scott_bandwidth,
    to_pmf,
)
from bayeskit.errors import EmptySamples, EverythingExcluded, InvalidGrid, InvalidValue

from oracles import gaussian_mixture_oracle

samples_strategy = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=40
)


class TestKde:
    def test_single_sample_symmetric_peak(self):
        d = kde([0.0], bandwidth=1.0, grid_spec=(-4, 4, 81))
        assert d.grid[int(np.argmax(d.density))] == pytest.approx(0.0)
        np.testing.assert_allclose(d.density, d.density[::-1], atol=1e-12)

    def test_symmetric_samples_zero_mean(self):
        d = kde([-2.0, 2.0], bandwidth=0.5, grid_spec=(-5, 5, 501))
        assert to_pmf(d).mean() == pytest.approx(0.0, abs=1e-6)

    @given(samples=samples_strategy)
    @settings(max_examples=50, deadline=None)
    def test_riemann_sum_is_one(self, samples):
        d = kde(samples, bandwidth=AUTO)
        assert d.density.sum() * d.spacing == pytest.approx(1.0, abs=1e-6)

    @given(samples=samples_strategy)
    @settings(max_examples=30, deadline=None)
    def test_sample_order_irrelevant(self, samples):
        d1 = kde(samples, bandwidth=1.0, grid_spec=(-60, 60, 256))
        d2 = kde(list(reversed(samples)), bandwidth=1.0, grid_spec=(-60, 60, 256))
        np.testing.assert_allclose(d1.density, d2.density, rtol=1e-12)

    def test_wider_bandwidth_flattens_peak(self):
        samples = [0.0, 0.3, 1.0, 4.0, 4.2]
        grid = (-10, 14, 1024)
        peaks = [kde(samples, bw, grid).density.max() for bw in (0.2, 0.5, 1.0, 2.5)]
        assert all(a >= b for a, b in zip(peaks, peaks[1:]))

    def test_auto_bandwidth_is_scott(self):
        samples = [1.0, 2.0, 4.0, 4.5]
        auto = kde(samples, AUTO, (-5, 10, 128))
        explicit = kde(samples, scott_bandwidth(samples), (-5, 10, 128))
        np.testing.assert_allclose(auto.density, explicit.density)

    def test_scott_rule_formula(self):
        samples = [1.0, 2.0, 3.0, 4.0]
        sigma = np.std(samples, ddof=1)
        assert scott_bandwidth(samples) == pytest.approx(sigma * 4 ** (-0.2))

    def test_degenerate_samples_floor(self):
        # identical samples have zero spread; the floor keeps the kernel usable
        d = kde([3.0, 3.0, 3.0], AUTO, (2.999999, 3.000001, 64))
        assert d.density.sum() * d.spacing == pytest.approx(1.0, abs=1e-6)

    def test_empty_samples_raise(self):
        with pytest.raises(EmptySamples):
            kde([], 1.0, (0, 1, 16))

    @pytest.mark.parametrize("bandwidth", [0.0, -1.0, float("nan")])
    def test_bad_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            kde([0.5], bandwidth, (0, 1, 16))

    @pytest.mark.parametrize("spec", [(1, 0, 16), (0, 1, 1), (0, 0, 16)])
    def test_bad_grid_spec(self, spec):
        with pytest.raises(InvalidGrid):
            kde([0.5], 1.0, spec)

    def test_infinite_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="^bandwidth must be positive and finite, got inf$"):
            kde([0.5], float("inf"), (0, 1, 5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("bandwidth", [1.0, AUTO])
    def test_non_finite_sample_named(self, bad, bandwidth):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^kde samples must be finite, got {bad}$"):
                kde([0.5, bad], bandwidth, (0, 1, 5))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_scott_bandwidth_rejects_non_finite_sample(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^bandwidth samples must be finite, got {bad}$"):
                scott_bandwidth([1.0, bad])

    def test_scott_bandwidth_of_huge_spread_does_not_overflow(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            bw = scott_bandwidth([1e308, -1e308])
        assert bw == pytest.approx(2 ** 0.5 * 1e308 * 2 ** -0.2, rel=1e-12)

    def test_infinite_scott_bandwidth_names_the_spread(self):
        spread = r"^bandwidth of samples spread over \[-1\.7e\+308, 1\.7e\+308\] is not finite$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValue, match=spread):
                scott_bandwidth([1.7e308, -1.7e308])
            with pytest.raises(InvalidValue, match=spread):
                kde([1.7e308, -1.7e308], AUTO, (0, 1, 5))

    def test_range_wider_than_largest_float_named(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGrid, match=r"^kde range \(-1e\+308, 1e\+308\) spans more than the largest"):
                kde([1e308, -1e308], 1.0, (-1e308, 1e308, 5))

    @pytest.mark.parametrize("spec, text", [
        ((0, 5e-324, 3), r"\(0, 5e-324\) is too narrow for 3 distinct points"),
        ((1.0, 1.0000000000000002, 3), r"\(1\.0, 1\.0000000000000002\) is too narrow for 3 distinct points"),
        ((-1e-323, 0.0, 4.0), r"\(-1e-323, 0\.0\) is too narrow for 4 distinct points"),
    ])
    def test_range_too_narrow_for_its_points_named(self, spec, text):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGrid, match=f"^kde range {text}$"):
                kde([0.0], 1.0, spec)

    @pytest.mark.parametrize("spec, spacing", [((0, 1e-320, 1000), "1e-323"), ((0, 1e-310, 3), "5e-311")])
    def test_subnormal_spacing_named(self, spec, spacing):
        # the points are distinct, but a density over them would normalise to infinities
        text = f"kde range \\({spec[0]}, {spec[1]}\\) is too narrow for {spec[2]} points: "
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGrid, match=f"^{text}their spacing {spacing} is subnormal$"):
                kde([0.0], 1.0, spec)

    def test_smallest_normal_spacing_is_built(self):
        tiny = np.finfo(float).tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = kde([0.0], 1.0, (0.0, 2 * tiny, 3))
        assert np.isfinite(d.density).all() and d.spacing == tiny

    def test_range_one_float_apart_per_point_is_built(self):
        hi = np.nextafter(np.nextafter(1.0, 2.0), 2.0)
        d = kde([1.0], 1.0, (1.0, hi, 3))
        assert d.grid.tolist() == [1.0, np.nextafter(1.0, 2.0), hi]

    @pytest.mark.parametrize("bandwidth, bw_repr", [(AUTO, "1.2311444133449164e+308"), (1.0, "1.0")])
    def test_overflowing_default_grid_names_the_spread(self, bandwidth, bw_repr):
        spread = (r"^kde grid of samples spread over \[-1e\+308, 1e\+308\] plus 3 bandwidths of "
                  f"{re.escape(bw_repr)} each side is not finite$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGrid, match=spread):
                kde([1e308, -1e308], bandwidth)

    def test_near_limit_grid_is_built_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            d = kde([1.7e308, -1.7e308], 5e307, (-8e307, 8e307, 5))
        # x - s overflows for the outer points; their far sample adds exactly 0.0
        assert np.array_equal(d.grid, np.linspace(-8e307, 8e307, 5))
        assert d.density[0] == d.density[-1] > d.density[2] > 0.0

    @settings(max_examples=200, deadline=None)
    @given(samples=st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=30))
    def test_scott_bandwidth_bits_match_unscaled_rule(self, samples):
        # the power-of-two scaling is exact wherever the unscaled squares stay in range
        x = np.array(samples)
        sigma = x.std(ddof=1) if x.size > 1 else 0.0
        assert scott_bandwidth(samples) == max(float(sigma), density.SIGMA_FLOOR) * x.size ** -0.2

    @pytest.mark.parametrize("n_points", [3.7, 2.5, float("nan")])
    def test_grid_point_count_must_be_whole(self, n_points):
        with pytest.raises(InvalidGrid, match="kde grid step count must be a whole number"):
            kde([0.5], 1.0, (0, 1, n_points))

    def test_whole_float_point_count_accepted(self):
        assert kde([0.5], 1.0, (0, 1, 5.0)).grid.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_grid_missing_all_mass(self):
        with pytest.raises(InvalidGrid):
            kde([0.0], 0.001, (1000, 1001, 16))

    def test_matches_scipy_reference(self):
        from scipy.stats import gaussian_kde

        samples = [1.0, 1.4, 2.2, 3.7, 5.0, 5.1]
        bw = 0.6
        # grid wide enough that truncation renormalization is negligible
        d = kde(samples, bw, (-10, 16, 1024))
        sigma = np.std(samples, ddof=1)
        reference = gaussian_kde(samples, bw_method=bw / sigma)
        np.testing.assert_allclose(d.density, reference(d.grid), rtol=1e-5, atol=1e-8)


class TestDensityGrid:
    @pytest.mark.parametrize("grid", [[0.0, 1.0, np.inf], [0.0, np.nan, 2.0], [-np.inf, 0.0, 1.0]])
    def test_non_finite_grid_point_rejected(self, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGrid, match="grid must be 1-D, finite and strictly increasing"):
                DensityGrid(grid, np.ones(3))

    @pytest.mark.parametrize("grid", [[0.0], [[0.0, 1.0], [2.0, 3.0]], [0.0, 2.0, 1.0]])
    def test_short_nested_or_unsorted_grid_rejected(self, grid):
        with pytest.raises(InvalidGrid, match="grid must be 1-D"):
            DensityGrid(grid, np.ones(np.shape(grid)))

    @pytest.mark.parametrize("grid, density, spacing", [
        ([0.0, 1e-310, 2e-310], [1.0, 1.0, 1.0], "1e-310"),  # 1 / 3e-310 overflows
        ([0.0, 1e-309], [1.0, 0.0], "1e-309"),  # so does 1 / 1e-309
    ])
    def test_spacing_too_small_to_normalise_rejected(self, grid, density, spacing):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGrid, match=f"^grid spacing {spacing}"):
                DensityGrid(grid, density)

    def test_non_uniform_spacing_rejected(self):
        with pytest.raises(InvalidGrid, match="^grid spacing must be uniform$"):
            DensityGrid([0.0, 1.0, 3.0], np.ones(3))

    @pytest.mark.parametrize("density", [[1.0, -0.5, 1.0], [1.0, np.nan, 1.0], [1.0, 1.0]])
    def test_negative_non_finite_or_misshapen_density_rejected(self, density):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidGrid, match="^density must be finite, nonnegative, and match the grid$"):
                DensityGrid([0.0, 1.0, 2.0], density)

    def test_zero_mass_rejected(self):
        with pytest.raises(InvalidGrid, match="^density holds no mass on this grid$"):
            DensityGrid([0.0, 1.0, 2.0], np.zeros(3))

    @pytest.mark.parametrize("read_only", [False, True])
    def test_inputs_are_copied_once(self, read_only):
        grid, dens = np.linspace(0.0, 1.0, 5), np.array([1.0, 2.0, 0.0, 3.0, 2.0])
        for arr in (grid, dens):
            arr.flags.writeable = not read_only
        saved = [(a.tobytes(), a.flags.writeable) for a in (grid, dens)]
        d = DensityGrid(grid, dens)
        assert [(a.tobytes(), a.flags.writeable) for a in (grid, dens)] == saved
        assert d.density.tobytes() == (dens / (dens.sum() * d.spacing)).tobytes()
        for arr in (d.grid, d.density):
            assert not arr.flags.writeable
            assert not np.shares_memory(arr, grid) and not np.shares_memory(arr, dens)

    @pytest.mark.parametrize("protocol", range(2, pickle.HIGHEST_PROTOCOL + 1))
    def test_read_only_through_pickle(self, protocol):
        for d in (kde([0.0, 1.0, 2.0]), DensityGrid([0.0, 0.5, 1.0], [1.0, 3.0, 0.0])):
            back = pickle.loads(pickle.dumps(d, protocol))
            for got, want in ((back.grid, d.grid), (back.density, d.density)):
                assert not got.flags.writeable and got.tobytes() == want.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                back.density[0] = 1.0


class TestExcludeInterval:
    def test_uniform_split_renormalizes(self):
        grid = np.linspace(-2, 2, 401)
        d = exclude_interval(DensityGrid(grid, np.ones(401)), -1, 1, half_open=True)
        pmf = to_pmf(d)
        left = sum(p for x, p in pmf.items() if x <= -1)
        right = sum(p for x, p in pmf.items() if x > 1)
        # 101 surviving grid points on [-2, -1], 100 on (1, 2]
        assert left == pytest.approx(101 / 201, abs=1e-9)
        assert right == pytest.approx(100 / 201, abs=1e-9)
        assert left == pytest.approx(0.5, abs=0.01)

    def test_exclusion_outside_grid_is_identity(self):
        d = kde([0.0, 1.0], 0.5, (-3, 3, 128))
        kept = exclude_interval(d, 50, 60)
        np.testing.assert_allclose(kept.density, d.density, rtol=1e-12)

    def test_half_open_boundary(self):
        grid = np.linspace(-2, 2, 5)  # ..., -1, 0, 1, ...
        d = exclude_interval(DensityGrid(grid, np.ones(5)), -1, 1, half_open=True)
        pmf = to_pmf(d)
        assert pmf.prob(-1.0) > 0
        assert pmf.prob(1.0) == 0.0
        assert pmf.prob(0.0) == 0.0

    def test_closed_interval_variant(self):
        grid = np.linspace(-2, 2, 5)
        d = exclude_interval(DensityGrid(grid, np.ones(5)), -1, 1, half_open=False)
        pmf = to_pmf(d)
        assert pmf.prob(-1.0) == 0.0
        assert pmf.prob(1.0) == 0.0

    def test_everything_excluded_raises(self):
        grid = np.linspace(0, 1, 32)
        with pytest.raises(EverythingExcluded):
            exclude_interval(DensityGrid(grid, np.ones(32)), -1, 2)

    def test_disjoint_exclusions_commute(self):
        d = kde([0.0, 2.0, 5.0], 1.0, (-5, 10, 512))
        ab = exclude_interval(exclude_interval(d, 0, 1), 3, 4)
        ba = exclude_interval(exclude_interval(d, 3, 4), 0, 1)
        np.testing.assert_allclose(ab.density, ba.density, rtol=1e-12)


class TestToPmf:
    def test_constant_density_uniform_pmf(self):
        grid = np.linspace(0, 1, 11)
        pmf = to_pmf(DensityGrid(grid, np.ones(11)))
        np.testing.assert_allclose(pmf.probs, np.full(11, 1 / 11), atol=1e-12)

    def test_mass_sums_to_one(self):
        pmf = to_pmf(kde([1.0, 2.0, 2.5], AUTO))
        assert pmf.probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_peak_location_preserved(self):
        d = kde([3.0], 0.5, (0, 6, 241))
        pmf = to_pmf(d)
        assert pmf.support[int(np.argmax(pmf.probs))] == pytest.approx(3.0)


def _kernel_inputs(n_points, n_samples):
    rng = np.random.default_rng(n_points * 7919 + n_samples)
    return rng.normal(0.0, 4.0, n_points), rng.normal(0.0, 1.5, n_samples)


def _use_cpus(monkeypatch, workers):
    """Run the kernel as if on `workers` CPUs; with more than one, split every call into spans."""
    monkeypatch.setattr(density, "_usable_cpus", lambda: workers)
    if workers > 1:  # test-sized calls lie below the real grain
        monkeypatch.setattr(density, "_SPAN_ELEMENTS", 1)


class _SpanRecorder:
    """Wraps `density._mixture_rows`: records each span's address, point count and thread."""

    def __init__(self, monkeypatch):
        self.spans = []
        rows = density._mixture_rows

        def record(x, *args):
            self.spans.append((x.ctypes.data, x.size, threading.get_ident()))
            rows(x, *args)

        monkeypatch.setattr(density, "_mixture_rows", record)

    def sizes(self) -> list:
        """Point counts of the spans in the order they lie in the points."""
        return [size for _, size, _ in sorted(self.spans)]

    def threads(self) -> list:
        """The thread each span ran on, in the same order."""
        return [ident for *_, ident in sorted(self.spans)]


class TestGaussianMixtureKernel:
    """The blocked, threaded kernel against the dense one-liner, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n_samples", [1, 48, 960, density._BLOCK_ELEMENTS + 1])
    @pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
    def test_bit_identical_to_dense(self, monkeypatch, workers, n_samples, blocks, extra):
        _use_cpus(monkeypatch, workers)
        n_points = blocks * density._block_rows(n_samples) + extra
        points, samples = _kernel_inputs(n_points, n_samples)
        got = gaussian_mixture_density(points, samples, 0.37)
        assert got.shape == (n_points,)
        assert np.array_equal(got, gaussian_mixture_oracle(points, samples, 0.37))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_posterior_grid_points(self, monkeypatch, workers):
        # the (primary, grid) array that speedup_posterior passes in one call
        _use_cpus(monkeypatch, workers)
        primary, deltas = _kernel_inputs(7, 960)
        support = np.linspace(-40.0, 40.0, 1025)
        points = primary[:, None] - support[None, :]
        got = gaussian_mixture_density(points, deltas, 0.21)
        want = np.stack([gaussian_mixture_oracle(d - support, deltas, 0.21) for d in primary])
        assert got.shape == points.shape
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("workers", [1, 3])
    def test_points_on_samples_and_signed_zeros(self, monkeypatch, workers):
        # x - s is exactly +-0.0 wherever a point equals a sample
        _use_cpus(monkeypatch, workers)
        _, samples = _kernel_inputs(0, 960)
        samples[:4] = [0.0, -0.0, 5e-324, -5e-324]
        points = np.concatenate([samples[::3], [-0.0, 0.0, -5e-324], -samples[::7]])
        got = gaussian_mixture_density(points, samples, 0.29)
        assert np.array_equal(got, gaussian_mixture_oracle(points, samples, 0.29))

    @pytest.mark.parametrize("n_points, n_samples, spans", [
        (1, 1, [1]), (99, 10, [99]), (100, 10, [50, 50]), (149, 10, [74, 75]), (150, 10, [50, 50, 50]),
        (1000, 10, [250, 250, 250, 250]), (2, 1000, [1, 1]), (3, 5000, [1, 1, 1]),
    ])
    def test_spans_hold_at_least_the_grain(self, monkeypatch, n_points, n_samples, spans):
        # one span per _SPAN_ELEMENTS kernel terms, at most one per CPU and one per point
        monkeypatch.setattr(density, "_usable_cpus", lambda: 4)
        monkeypatch.setattr(density, "_SPAN_ELEMENTS", 500)
        recorder = _SpanRecorder(monkeypatch)
        points, samples = _kernel_inputs(n_points, n_samples)
        got = gaussian_mixture_density(points, samples, 0.37)
        assert recorder.sizes() == spans
        # the first span runs on the calling thread, every other on a thread of its own
        caller, *others = recorder.threads()
        assert caller == threading.get_ident() and caller not in others
        assert np.array_equal(got, gaussian_mixture_oracle(points, samples, 0.37))

    def test_demo_sized_calls_stay_on_the_calling_thread(self, monkeypatch):
        # a paper-demo likelihood (about 0.8 M terms), a prior, an anchor, and the largest
        # call that still runs inline: one row short of two grains
        monkeypatch.setattr(density, "_usable_cpus", lambda: 2)
        recorder = _SpanRecorder(monkeypatch)
        largest = 2 * density._SPAN_ELEMENTS // 1024 - 1
        calls = [((4, 4096), 48), (4096, 6), (5, 48), (largest, 1024)]
        for shape, n_samples in calls:
            gaussian_mixture_density(np.zeros(shape), np.linspace(-1.0, 1.0, n_samples), 0.3)
        assert recorder.threads() == [threading.get_ident()] * len(calls)

    @pytest.mark.parametrize("failing", ["calling", "worker"])
    def test_a_span_exception_reaches_the_caller(self, monkeypatch, failing):
        # a span that raises on either kind of thread: the call raises it once every thread is joined
        class SpanFailed(Exception):
            pass

        _use_cpus(monkeypatch, 3)
        caller = threading.get_ident()
        rows = density._mixture_rows

        def fail_on_one_kind(x, *args):
            if (threading.get_ident() == caller) == (failing == "calling"):
                raise SpanFailed(failing)
            rows(x, *args)

        monkeypatch.setattr(density, "_mixture_rows", fail_on_one_kind)
        before = threading.active_count()
        points, samples = _kernel_inputs(400, 48)
        with pytest.raises(SpanFailed, match=failing):
            gaussian_mixture_density(points, samples, 0.37)
        assert threading.active_count() == before

    def test_fresh_interpreter_keeps_one_thread_after_a_split_call(self):
        # the spans' threads end with the call, and nothing imports concurrent.futures
        script = """
import sys, threading, numpy as np
from bayeskit import density
density._usable_cpus = lambda: 3
density._SPAN_ELEMENTS = 1
x, s = np.linspace(-3, 3, 300), np.linspace(-1, 1, 100)
density.gaussian_mixture_density(x, s, 0.3)
print(threading.active_count(), "concurrent.futures" in sys.modules)
"""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=120, check=True,
        )
        assert proc.stdout.split() == ["1", "False"]

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("bandwidth", [1.0, 1e-300])
    def test_overflowing_terms_are_zero_without_warning(self, monkeypatch, workers, bandwidth):
        # x - s, z or z * z overflows to inf here; exp(-inf) is the 0.0 the term rounds to.
        # At |z| = 1.5e154 only z * z overflows, not the oracle's (-0.5 * z) * z; at
        # |z| <= 1e-155 the square is subnormal or 0 (with bandwidth 1.0): every exp is 0.0 or 1.0
        _use_cpus(monkeypatch, workers)
        points = np.array([0.0, 1.0, 8e307, -8e307, 1.7e308,
                           1.5e154 * bandwidth, -1.5e154 * bandwidth, 1e-155, -1e-160, 1e-170, 5e-324])
        samples = np.array([1.7e308, -1.7e308, 0.0, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gaussian_mixture_density(points, samples, bandwidth)
        with np.errstate(over="ignore"):
            want = gaussian_mixture_oracle(points, samples, bandwidth)
            z = (points[:, None] - samples) / bandwidth
            square, halved_first = z * z, -0.5 * z * z
        assert (np.isinf(square) & np.isfinite(halved_first)).any()
        if bandwidth == 1.0:
            assert ((square > 0) & (square < np.finfo(float).tiny)).any() and (square[z != 0] == 0).any()
        assert np.array_equal(got, want) and np.isfinite(got).all()

    def test_memory_stays_within_blocks(self):
        # a dense 4096 x 4800 evaluation would hold several 157 MB temporaries
        points, samples = _kernel_inputs(4096, 4800)
        tracemalloc.start()
        try:
            gaussian_mixture_density(points, samples, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16e6

    def test_one_scratch_block_per_span(self):
        # the rows of a span go through one reused block of _BLOCK_ELEMENTS doubles, no second
        points, samples = _kernel_inputs(4096, 4800)
        out = np.empty(points.size)
        block = density._block_rows(samples.size) * samples.size * 8
        tracemalloc.start()
        try:
            density._mixture_rows(points, samples, 0.5, out)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert block <= peak < 1.25 * block
        assert np.array_equal(out, gaussian_mixture_oracle(points, samples, 0.5))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_splits_calls_alike(self):
        # a child forked after a split call starts threads of its own and gets the same bits
        script = """
import os, signal, threading, numpy as np
from bayeskit import density
density._usable_cpus = lambda: 2
density._SPAN_ELEMENTS = 1000  # 4000 x 100 elements would otherwise run inline
x, s = np.linspace(-3, 3, 4000), np.linspace(-1, 1, 100)
want = density.gaussian_mixture_density(x, s, 0.3)
assert threading.active_count() == 1
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a hung child dies instead of outliving the test
    rows, threads = density._mixture_rows, []
    def record(*args):
        threads.append(threading.get_ident())
        rows(*args)
    density._mixture_rows = record
    got = density.gaussian_mixture_density(x, s, 0.3)
    split = len(threads) == 2 and threading.get_ident() in threads and len(set(threads)) == 2
    os._exit(0 if split and np.array_equal(got, want) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=120, check=True,
        )
        assert proc.stdout.strip() == "0"


def test_usable_cpus_without_affinity(monkeypatch):
    # where the OS reports no affinity mask, every CPU counts, and at least one
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert density._usable_cpus() == 3
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert density._usable_cpus() == 1
