"""Discrete probability engine: pmfs, Bayes updates, mixtures, and 2-D joints.

All distributions live on finite, sorted supports.  Updates are computed in
log space and exponentiated once at normalization time, so products of many
small likelihoods do not underflow.  Instances are immutable after
construction and safe to share across threads.

`Pmf` has one constructor with two routes to the same result.  Strictly
increasing finite real points with finite, nonnegative weights (every grid
posterior) are normalized as given, with no dict and no sort; any other input
is accumulated in a dict and sorted.  An ndarray support's points are the
Python numbers that ``tolist`` gives; the array route keeps such a support as
an array only, and builds the tuple of `Pmf.support` on first access.

Every constructor here copies its array inputs once and then works in place
on those copies, which it makes read-only: no instance shares an array with
its caller, so none needs to know who else holds one.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from numbers import Number, Real
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import AllZeroMass, InvalidMass, NonNumericSupport


def _shift_exp(log_weights, axis=None) -> np.ndarray:
    """Weights exp(logw - max), so the largest is 1; shift-by-max keeps exp from underflowing.

    With `axis` each slice along that axis is shifted by its own maximum.
    The weights fill one new array; `log_weights` is left as it was.
    """
    logw = np.array(log_weights, dtype=float)
    top = logw.max(axis=axis, keepdims=True) if logw.size else -np.inf
    if not np.all(top < np.inf):  # a slice's max is NaN or +inf where the slice holds one
        raise ValueError("a log-weight is NaN or +inf")
    if not np.isfinite(top).all():
        raise AllZeroMass("all log-weights are -inf: data impossible under every hypothesis")
    logw -= top
    return np.exp(logw, out=logw)


def _logsumexp(x, axis=None):
    """log(sum(exp(x))) along `axis` (all of x by default), max-shifted; -inf where all terms are -inf."""
    top = np.max(x, axis=axis, keepdims=True, initial=-np.inf)
    top[top == -np.inf] = 0.0
    with np.errstate(divide="ignore"):
        return np.squeeze(top, axis) + np.log(np.exp(x - top).sum(axis=axis))


def _check_steps(axis: str, lo, hi, steps, error) -> int:
    """`steps` as an int: whole, at least 2 for a range, exactly 1 for a point; else `error`."""
    try:
        whole = isinstance(steps, Real) and float(steps).is_integer()
    except OverflowError:  # an int beyond the float range
        raise error(f"{axis} grid step count {steps!r} is too large") from None
    if not whole:
        raise error(f"{axis} grid step count must be a whole number, got {steps!r}")
    if (lo < hi and steps < 2) or (lo == hi and steps != 1):
        need = "at least 2 grid steps" if lo < hi else "exactly 1 grid step"
        raise error(f"{axis} range ({lo}, {hi}) needs {need}, got {steps}")
    return int(steps)


def _check_memory(grid: str, shape: tuple, dtype, error) -> None:
    """`error` naming `grid` where an array of `shape` and `dtype` would need more
    bytes than this machine's physical memory; nothing where `os.sysconf` cannot tell."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):  # no sysconf, or not these names
        return
    dtype = np.dtype(dtype)
    need = math.prod(shape) * dtype.itemsize
    if 0 < memory < need:
        raise error(
            f"the {grid} ({' x '.join(map(str, shape))} {dtype.name}) needs {need / 2**30:,.1f} GiB, "
            f"more than this machine's {memory / 2**30:,.1f} GiB of memory"
        )


def _is_axis(x: np.ndarray) -> bool:
    """Whether the float array `x` is a 1-D axis of finite, strictly increasing points."""
    return x.ndim == 1 and bool(np.isfinite(x).all()) and bool((np.diff(x) > 0).all())


def _array_weights(support, weights):
    """`weights` as a fresh float array if the array route takes the pair, else None.

    It does where the weights are finite and nonnegative and `support` is as
    many strictly increasing finite reals.  Whatever does not even make an
    array (ragged, non-numeric) is left for the dict route to reject.
    """
    try:
        w = np.asarray(weights, dtype=float) + 0.0  # a fresh array; -0.0 turns 0.0 as in the dict
        x = np.asarray(support)
    except (TypeError, ValueError, OverflowError):
        return None
    if x.dtype.kind not in "iuf" or x.shape != w.shape or not w.size:
        return None
    ok = _is_axis(x.astype(float, copy=False)) and np.isfinite(w).all() and (w >= 0).all()
    return w if ok else None


def _set_frozen_state(obj, state) -> None:
    """`__setstate__` for the slotted classes here and `density.DensityGrid`:
    unpickled arrays come back writeable, so they are made read-only again."""
    _, slots = state
    for name, value in slots.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        setattr(obj, name, value)


@dataclass(frozen=True)
class CredibleInterval:
    """Equal-tailed interval holding at least `mass` posterior probability."""

    low: Any
    high: Any
    mass: float


class Pmf:
    """Probability mass function over a sorted, deduplicated support.

    Accepts a mapping ``{point: weight}``, an iterable of ``(point, weight)``
    pairs, or separate ``support``/``weights`` sequences.  Weights must be
    nonnegative with a positive total; they are normalized on construction,
    so relative proportions are all that matters.  On the array route an
    ndarray support is kept only as a read-only copy (`points`); the
    `support` tuple is built from it on first access.
    """

    __slots__ = ("_support", "_points", "_probs")
    __setstate__ = _set_frozen_state

    def __init__(self, support, weights=None):
        probs = None if weights is None else _array_weights(support, weights)
        self._support = self._points = None
        if probs is None:
            points = support.tolist() if isinstance(support, np.ndarray) else support
            if weights is not None:
                items = list(zip(points, weights, strict=True))
            elif isinstance(points, Mapping):
                items = list(points.items())
            else:
                items = [(p, w) for p, w in points]
            if not items:
                raise AllZeroMass("cannot build a pmf from an empty support")
            acc: dict[Any, float] = {}
            for point, weight in items:
                w = float(weight)
                if not np.isfinite(w) or w < 0:
                    raise ValueError(f"weight for {point!r} must be finite and >= 0, got {weight!r}")
                acc[point] = acc.get(point, 0.0) + w
            self._support = tuple(sorted(acc))
            probs = np.array([acc[p] for p in self._support], dtype=float)
        elif isinstance(support, np.ndarray):
            # floats as float64 and integers in their own dtype, so `tolist` gives the points
            self._points = support.astype(float if support.dtype.kind == "f" else support.dtype)
            self._points.flags.writeable = False
        else:
            self._support = tuple(support)
        total = probs.sum()
        if total <= 0.0:
            raise AllZeroMass("all weights are zero")
        probs /= total
        probs.flags.writeable = False
        self._probs = probs

    @classmethod
    def from_log_weights(cls, support: Sequence, log_weights: np.ndarray) -> "Pmf":
        """Normalize log-domain weights into a pmf (shift-by-max for stability)."""
        return cls(support, _shift_exp(log_weights))

    # -- accessors --------------------------------------------------------

    @property
    def support(self) -> tuple:
        if self._support is None:  # two threads racing here build equal tuples
            self._support = tuple(self._points.tolist())
        return self._support

    @property
    def points(self) -> np.ndarray:
        """The support as a numeric array, without building the `support` tuple.

        On the array route with an ndarray support this is the read-only copy
        of that support made at construction; otherwise it is a new float
        array.  `NonNumericSupport` where a point is not a number.
        """
        if self._points is not None:
            return self._points
        bad = {t for t in set(map(type, self._support))
               if issubclass(t, bool) or not issubclass(t, Number)}
        if bad:
            p = next(p for p in self._support if type(p) in bad)
            raise NonNumericSupport(f"support point {p!r} is not numeric")
        return np.asarray(self._support, dtype=float)

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    def prob(self, point) -> float:
        """Probability of a single support point (0 if absent)."""
        try:
            return float(self._probs[self.support.index(point)])
        except ValueError:
            return 0.0

    def items(self):
        return zip(self.support, self._probs)

    def __len__(self) -> int:
        return len(self._probs)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p!r}: {w:.6g}" for p, w in self.items())
        return f"Pmf({{{inner}}})"

    # -- summaries ----------------------------------------------------------

    def mean(self) -> float:
        """Expected value over a numeric support."""
        return float(np.dot(self.points, self._probs))

    def quantile(self, q: float):
        """Smallest support point whose cumulative mass reaches ``q``."""
        cum = np.cumsum(self._probs)
        idx = min(int(np.searchsorted(cum, q, side="left")), len(self._probs) - 1)
        return self._support[idx] if self._points is None else self._points[idx].item()

    def median(self):
        return self.quantile(0.5)

    def credible_interval(self, mass: float) -> CredibleInterval:
        """Equal-tailed interval: each excluded tail holds at most (1-mass)/2."""
        if not 0.0 < mass < 1.0:
            raise InvalidMass(f"interval mass must be in (0, 1), got {mass!r}")
        tail = (1.0 - mass) / 2.0
        return CredibleInterval(self.quantile(tail), self.quantile(1.0 - tail), mass)


def update(prior: Pmf, likelihood: Callable[[Any], float]) -> Pmf:
    """Bayes update: posterior mass at h is proportional to prior[h] * likelihood(h)."""
    return iterate_update(prior, [None], lambda _, h: likelihood(h))


def iterate_update(prior: Pmf, data: Iterable, likelihood: Callable[[Any, Any], float]) -> Pmf:
    """Bayes update by each datum in turn; equals the one-shot product update.

    Log-likelihoods are accumulated and exponentiated once, so the result is
    independent of the order of the data.
    """
    with np.errstate(divide="ignore"):
        logw = np.log(prior.probs)
        for datum in data:
            lik = np.array([float(likelihood(datum, h)) for h in prior.support], dtype=float)
            if not ((lik >= 0) & (lik < np.inf)).all():  # NaN fails both comparisons
                raise ValueError("likelihood values must be finite and nonnegative")
            logw += np.log(lik)
    return Pmf.from_log_weights(prior.support, logw)


def mixture(components: Iterable[tuple[float, Pmf]]) -> Pmf:
    """Pointwise weighted sum of pmfs, renormalized."""
    acc: dict[Any, float] = {}
    for weight, component in components:
        w = float(weight)
        if w < 0:
            raise ValueError("mixture weights must be nonnegative")
        for point, p in component.items():
            acc[point] = acc.get(point, 0.0) + w * p
    if not acc:
        raise AllZeroMass("mixture of no components")
    return Pmf(acc)


class JointPmf2D:
    """Probability mass over a 2-D parameter grid with axis marginals."""

    __slots__ = ("_x_grid", "_y_grid", "_probs")
    __setstate__ = _set_frozen_state

    def __init__(self, x_grid, y_grid, weights):
        self._build(x_grid, y_grid, np.array(weights, dtype=float))

    def _build(self, x_grid, y_grid, w: np.ndarray) -> None:
        """Check the grids and the float weights `w`, a new array that is
        normalised in place and becomes `probs`; the grids are copied."""
        x = np.array(x_grid, dtype=float)
        y = np.array(y_grid, dtype=float)
        if not (_is_axis(x) and _is_axis(y)):
            raise ValueError("grid axes must be 1-D, finite and strictly increasing")
        if w.shape != (x.size, y.size):
            raise ValueError(f"weights shape {w.shape} does not match grid {(x.size, y.size)}")
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValueError("weights must be finite and nonnegative")
        total = w.sum()
        if total <= 0.0:
            raise AllZeroMass("all joint weights are zero")
        w /= total
        for arr in (x, y, w):
            arr.flags.writeable = False
        self._x_grid = x
        self._y_grid = y
        self._probs = w

    @classmethod
    def from_log_weights(cls, x_grid, y_grid, log_weights: np.ndarray) -> "JointPmf2D":
        """Normalize log-domain weights (shift-by-max); their one copy becomes `probs`."""
        joint = cls.__new__(cls)
        joint._build(x_grid, y_grid, _shift_exp(log_weights))
        return joint

    @property
    def x_grid(self) -> np.ndarray:
        return self._x_grid

    @property
    def y_grid(self) -> np.ndarray:
        return self._y_grid

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    def marginal_x(self) -> Pmf:
        return Pmf(self._x_grid, self._probs.sum(axis=1))

    def marginal_y(self) -> Pmf:
        return Pmf(self._y_grid, self._probs.sum(axis=0))

    def map_point(self) -> tuple[float, float]:
        """Highest-mass cell; ties resolve to the smallest x, then smallest y."""
        flat = int(np.argmax(self._probs))  # C order scans x then y: first hit wins
        i, j = divmod(flat, self._probs.shape[1])
        return float(self._x_grid[i]), float(self._y_grid[j])
