"""Gaussian-kernel density estimation on uniform grids.

Densities are discretized onto evenly spaced grids and normalized so the
Riemann sum (density times spacing) is 1.  The one domain-specific twist is
`exclude_interval`, which zeroes an interval of impossible values and
renormalizes the remainder.

The Gaussian kernel lives here only: `gaussian_mixture_density` sums its
terms and `_log_kernel_sums` takes the log of those sums, in log form where
they underflow; both build each term's exponent with `_exponents`.
`DensityGrid`, like the constructors of `pmf`, copies its inputs once.
"""

from __future__ import annotations

import os
import threading

import numpy as np

from .errors import EmptySamples, EverythingExcluded, InvalidGrid, InvalidValue
from .pmf import Pmf, _check_steps, _is_axis, _logsumexp

AUTO = "auto"

#: smallest usable bandwidth / standard deviation for degenerate samples
SIGMA_FLOOR = 1e-6

DEFAULT_GRID_POINTS = 2048

#: kernel-matrix elements per row block: 64 K doubles, 512 KB, about one L2 cache
_BLOCK_ELEMENTS = 1 << 16

#: fewest kernel-matrix elements worth a span of their own.  At 4-6 ns per
#: element, 4 M elements are 17-26 ms of one thread's work.  On a 2-core VM a
#: second span costs up to 32 % more CPU for a 28-47 % lower wall time (warm
#: pool, 2^18-2^25 elements), and the pool's first use in a process costs
#: about 10 ms of wall and 12-24 ms of CPU (imports, thread start).  At this
#: grain a call splits only when halving it saves at least twice that first use.
_SPAN_ELEMENTS = 1 << 22


class DensityGrid:
    """Nonnegative density sampled on a uniform grid, normalized to unit mass."""

    __slots__ = ("_grid", "_density")

    def __init__(self, grid, density):
        g = np.array(grid, dtype=float)
        d = np.array(density, dtype=float)
        if g.size < 2 or not _is_axis(g):
            raise InvalidGrid("grid must be 1-D, finite and strictly increasing, with at least two points")
        steps = np.diff(g)
        scale = max(abs(float(g[0])), abs(float(g[-1])), 1.0)
        if not np.allclose(steps, steps[0], rtol=1e-6, atol=1e-9 * scale):
            raise InvalidGrid("grid spacing must be uniform")
        if d.shape != g.shape or (d < 0).any() or not np.isfinite(d).all():
            raise InvalidGrid("density must be finite, nonnegative, and match the grid")
        total = d.sum() * steps[0]
        if total <= 0.0:
            raise InvalidGrid("density holds no mass on this grid")
        with np.errstate(over="ignore"):
            d /= total
        if not np.isfinite(d).all():
            raise InvalidGrid(f"grid spacing {float(steps[0])!r} is too small to normalise this density")
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


def _finite_samples(samples, what: str) -> np.ndarray:
    """`samples` as a float array, checked to be nonempty and finite."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise EmptySamples(f"{what} of an empty sample set")
    if not np.isfinite(x).all():
        raise ValueError(f"{what} samples must be finite, got {float(x[~np.isfinite(x)][0])}")
    return x


def scott_bandwidth(samples) -> float:
    """Scott's rule n**(-1/5) * sigma, with sigma floored for degenerate data.

    Sigma is taken of the samples scaled by a power of two that brings the
    largest magnitude into [0.5, 1), so no square overflows, and scaled back;
    both scalings are exact.  A spread whose bandwidth is not finite raises
    `InvalidValue`.
    """
    x = _finite_samples(samples, "bandwidth")
    exponent = int(np.frexp(np.abs(x).max())[1])
    with np.errstate(over="ignore"):
        sigma = np.ldexp(np.ldexp(x, -exponent).std(ddof=1), exponent) if x.size > 1 else 0.0
    bw = max(float(sigma), SIGMA_FLOOR) * x.size ** (-1.0 / 5.0)
    if bw == np.inf:
        lo, hi = float(x.min()), float(x.max())
        raise InvalidValue(f"bandwidth of samples spread over [{lo!r}, {hi!r}] is not finite")
    return bw


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


def _exponents(x, s, bandwidth, out) -> np.ndarray:
    """The kernel terms' logs ``-0.5 * (z * z)``, ``z = (x - s) / bandwidth``, into `out`.

    `out` holds one row per point of `x` and one column per sample of `s`.
    The caller sets `np.errstate`: where ``x - s``, ``z`` or ``z * z``
    overflows, the log is -inf, the term's ``exp`` 0.0.
    """
    np.copyto(out, x[:, None])  # a contiguous subtract beats the outer one
    np.subtract(out, s, out=out)
    np.divide(out, bandwidth, out=out)
    np.multiply(out, out, out=out)
    np.multiply(out, -0.5, out=out)
    return out


def _mixture_rows(x, s, bandwidth, out) -> None:
    """Kernel sums for the points `x` into `out`, one block of rows at a time.

    One buffer of one block is reused throughout.  Each term is
    ``exp(-0.5 * (z * z))`` with ``z = (x - s) / bandwidth``, the same float
    as the dense one-liner's ``exp(-0.5 * z * z)``: halving is exact wherever
    ``exp`` can tell the difference, and the two ``exp`` inputs part only where
    ``z * z`` overflows (both terms 0.0) or its half is subnormal (both 1.0).
    Where ``x - s``, ``z`` or ``z * z`` overflows, the term is ``exp(-inf)``:
    the 0.0 it rounds to anyway, so that overflow is not reported.
    """
    rows = _block_rows(s.size)
    block = np.empty((min(rows, x.size), s.size))
    with np.errstate(over="ignore"):  # per thread: each span sets its own
        for start in range(0, x.size, rows):
            n = min(rows, x.size - start)
            zb = _exponents(x[start:start + n], s, bandwidth, block[:n])
            np.exp(zb, out=zb)
            zb.sum(axis=1, out=out[start:start + n])


def gaussian_mixture_density(points, samples, bandwidth: float) -> np.ndarray:
    """Unnormalized Gaussian-kernel mixture evaluated at `points`.

    Returns sums of kernels without the 1/(n*bw*sqrt(2pi)) constant, one per
    point and in the shape of `points`; callers that need a proper density
    normalize afterwards.  The points are split into contiguous spans of at
    least `_SPAN_ELEMENTS` kernel terms each, at most one per usable CPU and
    one per point; a call too small for two spans runs on the calling thread
    and never starts the thread pool, larger ones run their spans on it
    (numpy releases the GIL).  Each span is evaluated in cache-sized row
    blocks; the result is bit-identical to the dense point-by-sample
    evaluation, whatever the number of spans.
    """
    x = np.atleast_1d(np.asarray(points, dtype=float))
    s = np.asarray(samples, dtype=float)
    out = np.empty(x.shape)
    flat_x, flat_out = x.reshape(-1), out.reshape(-1)
    n = flat_x.size
    n_spans = max(1, min(_usable_cpus(), n, n * s.size // _SPAN_ELEMENTS))
    spans = [(flat_x[a:b], s, bandwidth, flat_out[a:b])
             for a, b in ((i * n // n_spans, (i + 1) * n // n_spans) for i in range(n_spans))]
    pending = [_pool().submit(_mixture_rows, *span) for span in spans[1:]]
    try:
        _mixture_rows(*spans[0])
    finally:
        for future in pending:
            future.result()
    return out


def _log_kernel_sums(sums, points, samples, bandwidth) -> np.ndarray:
    """The logs of `sums` in place, also where those kernel sums underflow.

    `sums` is what `gaussian_mixture_density(points, samples, bandwidth)` returned.

    A sum of at least the smallest normal float keeps the bits of its `log`.
    One that came out 0.0 or subnormal, at a point tens of bandwidths from
    every sample, is recomputed from its terms' logs q as
    max q + log sum exp(q - max q), a block of points at a time; it is -inf
    only where every z * z overflows.  Returns `sums`.
    """
    x = np.asarray(points, dtype=float).reshape(-1)
    s = np.asarray(samples, dtype=float)
    flat = sums.reshape(-1)
    low = np.flatnonzero(flat < np.finfo(float).tiny)
    with np.errstate(divide="ignore"):
        np.log(sums, out=sums)
    rows = _block_rows(s.size)
    block = np.empty((min(rows, low.size), s.size))
    with np.errstate(over="ignore"):
        for start in range(0, low.size, rows):
            at = low[start:start + rows]
            flat[at] = _logsumexp(_exponents(x[at], s, bandwidth, block[:at.size]), axis=1)
    return sums


def kde(samples, bandwidth=AUTO, grid_spec=None) -> DensityGrid:
    """Gaussian-kernel density estimate of `samples` on a uniform grid.

    `bandwidth` is a positive float or AUTO (Scott's rule).  `grid_spec` is a
    ``(lo, hi, n_points)`` triple; when omitted the grid spans the samples
    plus three bandwidths on each side with 2048 points.
    """
    x = _finite_samples(samples, "kde")
    bw = scott_bandwidth(x) if bandwidth == AUTO or bandwidth is None else float(bandwidth)
    if not 0 < bw < np.inf:  # also rejects NaN
        raise ValueError(f"bandwidth must be positive and finite, got {bandwidth!r}")
    if grid_spec is None:
        lo, hi = float(x.min()), float(x.max())
        grid_spec = lo - 3.0 * bw, hi + 3.0 * bw, DEFAULT_GRID_POINTS  # Python floats: no warning
        if not grid_spec[1] - grid_spec[0] < np.inf:
            raise InvalidGrid(f"kde grid of samples spread over [{lo!r}, {hi!r}] "
                              f"plus 3 bandwidths of {bw!r} each side is not finite")
    lo, hi, n_points = grid_spec
    if not (np.isfinite(lo) and np.isfinite(hi) and lo < hi):
        raise InvalidGrid(f"bad grid spec {grid_spec!r}")
    steps = _check_steps("kde", lo, hi, n_points, InvalidGrid)
    if not float(hi) - float(lo) < np.inf:  # then the step (span / (steps - 1)) is finite too
        raise InvalidGrid(f"kde range ({lo!r}, {hi!r}) spans more than the largest float")
    grid = np.linspace(lo, hi, steps)
    if not (np.diff(grid) > 0).all():  # neighbouring points rounded to the same float
        raise InvalidGrid(f"kde range ({lo!r}, {hi!r}) is too narrow for {steps} distinct points")
    if grid[1] - grid[0] < np.finfo(float).tiny:  # a density over it would overflow to inf
        raise InvalidGrid(f"kde range ({lo!r}, {hi!r}) is too narrow for {steps} points: "
                          f"their spacing {float(grid[1] - grid[0])!r} is subnormal")
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
    return Pmf(d.grid, d.density * d.spacing)
