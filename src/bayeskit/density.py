"""Gaussian-kernel density estimation on uniform grids.

Densities are discretized onto evenly spaced grids and normalized so the
Riemann sum (density times spacing) is 1.  The one domain-specific twist is
`exclude_interval`, which zeroes an interval of impossible values and
renormalizes the remainder.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .errors import EmptySamples, EverythingExcluded, InvalidGrid
from .pmf import Pmf

AUTO = "auto"

#: smallest usable bandwidth / standard deviation for degenerate samples
SIGMA_FLOOR = 1e-6

DEFAULT_GRID_POINTS = 2048

#: kernel-matrix elements per row block: 64 K doubles, 512 KB, about one L2 cache
_BLOCK_ELEMENTS = 1 << 16


class DensityGrid:
    """Nonnegative density sampled on a uniform grid, normalized to unit mass."""

    __slots__ = ("_grid", "_density")

    def __init__(self, grid, density):
        g = np.asarray(grid, dtype=float)
        d = np.asarray(density, dtype=float)
        if g.ndim != 1 or g.size < 2:
            raise InvalidGrid("grid needs at least two points")
        steps = np.diff(g)
        if (steps <= 0).any():
            raise InvalidGrid("grid must be strictly increasing")
        scale = max(abs(float(g[0])), abs(float(g[-1])), 1.0)
        if not np.allclose(steps, steps[0], rtol=1e-6, atol=1e-9 * scale):
            raise InvalidGrid("grid spacing must be uniform")
        if d.shape != g.shape or (d < 0).any() or not np.isfinite(d).all():
            raise InvalidGrid("density must be finite, nonnegative, and match the grid")
        total = d.sum() * steps[0]
        if total <= 0.0:
            raise InvalidGrid("density holds no mass on this grid")
        d = d / total
        for arr in (g, d):
            arr.flags.writeable = False
        self._grid = g
        self._density = d

    @property
    def grid(self) -> np.ndarray:
        return self._grid

    @property
    def density(self) -> np.ndarray:
        return self._density

    @property
    def spacing(self) -> float:
        return float(self._grid[1] - self._grid[0])


def scott_bandwidth(samples) -> float:
    """Scott's rule n**(-1/5) * sigma, with sigma floored for degenerate data."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise EmptySamples("bandwidth of an empty sample set")
    sigma = x.std(ddof=1) if x.size > 1 else 0.0
    return max(float(sigma), SIGMA_FLOOR) * x.size ** (-1.0 / 5.0)


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS reports one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


#: (process id, executor); a forked child inherits the executor but none of its threads
_POOL = None
_POOL_LOCK = threading.Lock()


def _pool():
    """This process's thread pool, created on first use with one thread per usable CPU."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            from concurrent.futures import ThreadPoolExecutor  # not paid for at import

            _POOL = (os.getpid(), ThreadPoolExecutor(max_workers=_usable_cpus()))
        return _POOL[1]


def _block_rows(n_samples: int) -> int:
    """Rows of the point-by-sample kernel matrix evaluated per block."""
    return max(1, _BLOCK_ELEMENTS // max(n_samples, 1))


def _mixture_rows(x, s, bandwidth, out) -> None:
    """Kernel sums for the points `x` into `out`, one block of rows at a time.

    Two buffers of one block each are reused throughout; every element sees the
    same operations, in the same order, as the dense one-liner
    ``exp(-0.5 * z * z).sum(axis=1)`` with ``z = (x - s) / bandwidth``.
    """
    rows = _block_rows(s.size)
    z = np.empty((min(rows, x.size), s.size))
    k = np.empty_like(z)
    for start in range(0, x.size, rows):
        n = min(rows, x.size - start)
        zb, kb = z[:n], k[:n]
        np.subtract(x[start:start + n, None], s[None, :], out=zb)
        np.divide(zb, bandwidth, out=zb)
        np.multiply(-0.5, zb, out=kb)
        np.multiply(kb, zb, out=kb)
        np.exp(kb, out=kb)
        kb.sum(axis=1, out=out[start:start + n])


def gaussian_mixture_density(points, samples, bandwidth: float) -> np.ndarray:
    """Unnormalized Gaussian-kernel mixture evaluated at `points`.

    Returns sums of kernels without the 1/(n*bw*sqrt(2pi)) constant, one per
    point and in the shape of `points`; callers that need a proper density
    normalize afterwards.  The points are split into one contiguous span per
    usable CPU, evaluated on a thread pool (numpy releases the GIL), and each
    span is evaluated in cache-sized row blocks; the result is bit-identical
    to the dense point-by-sample evaluation.
    """
    x = np.atleast_1d(np.asarray(points, dtype=float))
    s = np.asarray(samples, dtype=float)
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    n = flat_x.size
    blocks = -(-n // _block_rows(s.size))
    n_spans = max(1, min(_usable_cpus(), blocks))
    spans = [(flat_x[a:b], s, bandwidth, flat_out[a:b])
             for a, b in ((i * n // n_spans, (i + 1) * n // n_spans) for i in range(n_spans))]
    pending = [_pool().submit(_mixture_rows, *span) for span in spans[1:]]
    try:
        _mixture_rows(*spans[0])
    finally:
        for future in pending:
            future.result()
    return out


def default_grid(samples, bandwidth: float, n_points: int = DEFAULT_GRID_POINTS):
    """Grid covering the samples plus three bandwidths of kernel tail."""
    x = np.asarray(samples, dtype=float)
    return float(x.min() - 3.0 * bandwidth), float(x.max() + 3.0 * bandwidth), n_points


def kde(samples, bandwidth=AUTO, grid_spec=None) -> DensityGrid:
    """Gaussian-kernel density estimate of `samples` on a uniform grid.

    `bandwidth` is a positive float or AUTO (Scott's rule).  `grid_spec` is a
    ``(lo, hi, n_points)`` triple; when omitted the grid spans the samples
    plus three bandwidths on each side with 2048 points.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise EmptySamples("kde of an empty sample set")
    bw = scott_bandwidth(x) if bandwidth == AUTO or bandwidth is None else float(bandwidth)
    if bw <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth!r}")
    if grid_spec is None:
        grid_spec = default_grid(x, bw)
    lo, hi, n_points = grid_spec
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi) or int(n_points) < 2:
        raise InvalidGrid(f"bad grid spec {grid_spec!r}")
    grid = np.linspace(lo, hi, int(n_points))
    dens = gaussian_mixture_density(grid, x, bw)
    if dens.sum() <= 0.0:
        raise InvalidGrid("grid does not overlap the sample support")
    return DensityGrid(grid, dens)


def exclude_interval(d: DensityGrid, lo: float, hi: float, half_open: bool = True) -> DensityGrid:
    """Zero out density on an interval of impossible values and renormalize.

    With `half_open` the interval is left-open/right-closed ``(lo, hi]``;
    otherwise it is closed ``[lo, hi]``.
    """
    if half_open:
        cut = (d.grid > lo) & (d.grid <= hi)
    else:
        cut = (d.grid >= lo) & (d.grid <= hi)
    kept = np.where(cut, 0.0, d.density)
    if kept.sum() <= 0.0:
        raise EverythingExcluded(f"excluding [{lo}, {hi}] removes the whole support")
    return DensityGrid(d.grid, kept)


def to_pmf(d: DensityGrid) -> Pmf:
    """Discretize a density grid: mass at each grid point is density * spacing."""
    return Pmf._from_increasing(d.grid, d.density * d.spacing)
