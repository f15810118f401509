"""Discrete probability engine: pmfs, Bayes updates, mixtures, and 2-D joints.

All distributions live on finite, sorted supports.  Updates are computed in
log space and exponentiated once at normalization time, so products of many
small likelihoods do not underflow.  Instances are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Number
from typing import Any, Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import AllZeroMass, InvalidMass, NonNumericSupport


def _shift_exp(log_weights, axis=None) -> np.ndarray:
    """Weights exp(logw - max), so the largest is 1; shift-by-max keeps exp from underflowing.

    With `axis` each slice along that axis is shifted by its own maximum.
    """
    logw = np.asarray(log_weights, dtype=float)
    top = logw.max(axis=axis, keepdims=True) if logw.size else -np.inf
    if not np.isfinite(top).all():
        raise AllZeroMass("all log-weights are -inf: data impossible under every hypothesis")
    return np.exp(logw - top)


def _increasing_reals(points, shape) -> bool:
    """Whether `points` make a 1-D array of `shape` holding strictly increasing finite reals."""
    try:
        x = np.asarray(points)
    except ValueError:  # ragged: not an array at all
        return False
    if x.dtype.kind not in "iuf" or x.shape != shape or x.ndim != 1:
        return False
    x = x.astype(float, copy=False)
    return bool(np.isfinite(x).all() and (np.diff(x) > 0).all())


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
    so relative proportions are all that matters.
    """

    __slots__ = ("_support", "_probs")

    def __init__(self, support, weights=None):
        if weights is None:
            if isinstance(support, Mapping):
                items = list(support.items())
            else:
                items = [(p, w) for p, w in support]
        else:
            items = list(zip(support, weights, strict=True))
        if not items:
            raise AllZeroMass("cannot build a pmf from an empty support")
        acc: dict[Any, float] = {}
        for point, weight in items:
            w = float(weight)
            if not np.isfinite(w) or w < 0:
                raise ValueError(f"weight for {point!r} must be finite and >= 0, got {weight!r}")
            acc[point] = acc.get(point, 0.0) + w
        points = sorted(acc)
        probs = np.array([acc[p] for p in points], dtype=float)
        total = probs.sum()
        if total <= 0.0:
            raise AllZeroMass("all weights are zero")
        probs /= total
        probs.flags.writeable = False
        self._support = tuple(points)
        self._probs = probs

    @classmethod
    def from_log_weights(cls, support: Sequence, log_weights: np.ndarray) -> "Pmf":
        """Normalize log-domain weights into a pmf (shift-by-max for stability)."""
        return cls._from_increasing(support, _shift_exp(log_weights))

    @classmethod
    def _from_increasing(cls, support, weights) -> "Pmf":
        """``cls(support, weights)``, without the dict and the sort where they change nothing.

        That is where `support` is strictly increasing finite real numbers, as an
        array (whose points become Python numbers, as ``tolist`` gives them) or a
        sequence (whose points are kept), and the weights are finite and
        nonnegative.  Anything else, such as NaN or repeated points, takes the
        general constructor.
        """
        points = support.tolist() if isinstance(support, np.ndarray) else support
        w = np.asarray(weights, dtype=float) + 0.0  # a fresh array; -0.0 turns 0.0 as in the dict
        if not (_increasing_reals(support, w.shape) and np.isfinite(w).all() and (w >= 0).all()):
            return cls(points, weights)
        total = w.sum()
        if total <= 0.0:
            raise AllZeroMass("all weights are zero")
        w /= total
        w.flags.writeable = False
        pmf = cls.__new__(cls)
        pmf._support = tuple(points)
        pmf._probs = w
        return pmf

    # -- accessors --------------------------------------------------------

    @property
    def support(self) -> tuple:
        return self._support

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    def prob(self, point) -> float:
        """Probability of a single support point (0 if absent)."""
        try:
            return float(self._probs[self._support.index(point)])
        except ValueError:
            return 0.0

    def items(self):
        return zip(self._support, self._probs)

    def __len__(self) -> int:
        return len(self._support)

    def __repr__(self) -> str:
        inner = ", ".join(f"{p!r}: {w:.6g}" for p, w in self.items())
        return f"Pmf({{{inner}}})"

    # -- summaries ----------------------------------------------------------

    def _numeric_support(self) -> np.ndarray:
        bad = {t for t in set(map(type, self._support))
               if issubclass(t, bool) or not issubclass(t, Number)}
        if bad:
            p = next(p for p in self._support if type(p) in bad)
            raise NonNumericSupport(f"support point {p!r} is not numeric")
        return np.asarray(self._support, dtype=float)

    def mean(self) -> float:
        """Expected value over a numeric support."""
        return float(np.dot(self._numeric_support(), self._probs))

    def quantile(self, q: float):
        """Smallest support point whose cumulative mass reaches ``q``."""
        cum = np.cumsum(self._probs)
        idx = int(np.searchsorted(cum, q, side="left"))
        return self._support[min(idx, len(self._support) - 1)]

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
    lik = np.array([float(likelihood(h)) for h in prior.support], dtype=float)
    if (lik < 0).any():
        raise ValueError("likelihood values must be nonnegative")
    with np.errstate(divide="ignore"):
        log_post = np.log(prior.probs) + np.log(lik)
    return Pmf.from_log_weights(prior.support, log_post)


def iterate_update(prior: Pmf, data: Iterable, likelihood: Callable[[Any, Any], float]) -> Pmf:
    """Fold `update` over a dataset; equals the one-shot product update.

    Log-likelihoods are accumulated and exponentiated once, so the result is
    independent of the order of the data.
    """
    with np.errstate(divide="ignore"):
        logw = np.log(prior.probs).copy()
        for datum in data:
            lik = np.array([float(likelihood(datum, h)) for h in prior.support], dtype=float)
            if (lik < 0).any():
                raise ValueError("likelihood values must be nonnegative")
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

    def __init__(self, x_grid, y_grid, weights):
        x = np.asarray(x_grid, dtype=float)
        y = np.asarray(y_grid, dtype=float)
        w = np.asarray(weights, dtype=float)
        if x.ndim != 1 or y.ndim != 1 or (np.diff(x) <= 0).any() or (np.diff(y) <= 0).any():
            raise ValueError("grid axes must be 1-D and strictly increasing")
        if w.shape != (x.size, y.size):
            raise ValueError(f"weights shape {w.shape} does not match grid {(x.size, y.size)}")
        if (w < 0).any() or not np.isfinite(w).all():
            raise ValueError("weights must be finite and nonnegative")
        total = w.sum()
        if total <= 0.0:
            raise AllZeroMass("all joint weights are zero")
        probs = w / total
        for arr in (x, y, probs):
            arr.flags.writeable = False
        self._x_grid = x
        self._y_grid = y
        self._probs = probs

    @classmethod
    def from_log_weights(cls, x_grid, y_grid, log_weights: np.ndarray) -> "JointPmf2D":
        return cls(x_grid, y_grid, _shift_exp(log_weights))

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
        return Pmf._from_increasing(self._x_grid, self._probs.sum(axis=1))

    def marginal_y(self) -> Pmf:
        return Pmf._from_increasing(self._y_grid, self._probs.sum(axis=0))

    def map_point(self) -> tuple[float, float]:
        """Highest-mass cell; ties resolve to the smallest x, then smallest y."""
        flat = int(np.argmax(self._probs))  # C order scans x then y: first hit wins
        i, j = divmod(flat, self._probs.shape[1])
        return float(self._x_grid[i]), float(self._y_grid[j])
