"""Tests for kernel density estimation and interval exclusion."""

import os
import subprocess
import sys
import tracemalloc
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
from bayeskit.errors import EmptySamples, EverythingExcluded, InvalidGrid

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

    @pytest.mark.parametrize("spec", [(1, 0, 16), (0, 1, 1), (0, 0, 16)])
    def test_bad_grid_spec(self, spec):
        with pytest.raises(InvalidGrid):
            kde([0.5], 1.0, spec)

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


class TestGaussianMixtureKernel:
    """The blocked, threaded kernel against the dense one-liner, bit for bit."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("n_samples", [1, 48, 960, density._BLOCK_ELEMENTS + 1])
    @pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 7)])
    def test_bit_identical_to_dense(self, monkeypatch, workers, n_samples, blocks, extra):
        monkeypatch.setattr(density, "_usable_cpus", lambda: workers)
        n_points = blocks * density._block_rows(n_samples) + extra
        points, samples = _kernel_inputs(n_points, n_samples)
        got = gaussian_mixture_density(points, samples, 0.37)
        assert got.shape == (n_points,)
        assert np.array_equal(got, gaussian_mixture_oracle(points, samples, 0.37))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_posterior_grid_points(self, monkeypatch, workers):
        # the (primary, grid) array that speedup_posterior passes in one call
        monkeypatch.setattr(density, "_usable_cpus", lambda: workers)
        primary, deltas = _kernel_inputs(7, 960)
        support = np.linspace(-40.0, 40.0, 1025)
        points = primary[:, None] - support[None, :]
        got = gaussian_mixture_density(points, deltas, 0.21)
        want = np.stack([gaussian_mixture_oracle(d - support, deltas, 0.21) for d in primary])
        assert got.shape == points.shape
        assert np.array_equal(got, want)

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

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_gets_its_own_pool(self):
        # the child inherits the parent's executor object but none of its threads
        script = """
import os, signal, numpy as np
from bayeskit import density
density._usable_cpus = lambda: 2
x, s = np.linspace(-3, 3, 4000), np.linspace(-1, 1, 100)
want = density.gaussian_mixture_density(x, s, 0.3)
pid = os.fork()
if pid == 0:
    signal.alarm(30)  # a hung child dies instead of outliving the test
    os._exit(0 if np.array_equal(density.gaussian_mixture_density(x, s, 0.3), want) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-W", "ignore", "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(src)), timeout=120, check=True,
        )
        assert proc.stdout.strip() == "0"
