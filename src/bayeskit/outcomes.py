"""Bayes-factor comparison of categorical project outcomes.

Two groups of projects are compared by asking how strongly the observed
per-category counts support "the first group draws from better outcome
distributions than a baseline" over "both groups draw from the same family".
Both hypotheses are families of discretized outcome distributions, weighted
by a scheme that optionally down-weights distributions far from the baseline.

The family is one integer composition array per (K, 1/step), built once.
A Bayes factor takes one weighted log-multinomial vector per group over that
array; the hypotheses only mask which grid points each group's sum covers,
so the factor is a difference of four log-sum-exps.  The normalised factor
also divides out the prior mass of "A better", three more log-sum-exps over
the weights alone.  Working in log space keeps factors far below the float
range exact in `BayesFactor.log10` where the factor itself underflows to 0.0.

The grid means and each group's log-multinomial depend on neither the
baseline nor the scheme: they are computed once per (counts, step), which
is once per run.  The scheme weights, the baseline's tie mask and the
log-sum-exps are per case, and are computed once per case: `bayes_factor`
returns the normalised factor along with the paper's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyCategorySet,
    InvalidStep,
    NonPositiveK,
    OutOfRange,
    ZeroDenominator,
)
from .pmf import _check_memory, _logsumexp

WEIGHT_SCHEMES = ("uniform", "triangle", "power", "exp")

#: mean differences below this are treated as exact ties (the rational
#: arithmetic behind grid distributions never produces smaller true gaps)
MEAN_TIE_TOL = 1e-12


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probability vector over K ordered outcome categories 0..K-1."""

    probs: tuple[float, ...]

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probs)
        if not probs:
            raise DimensionMismatch("outcome distribution needs at least one category")
        if any(p < 0 for p in probs):
            raise ValueError(f"negative probability in {probs}")
        total = sum(probs)
        if abs(total - 1.0) > 1e-6:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", tuple(p / total for p in probs))

    @property
    def k(self) -> int:
        return len(self.probs)

    def mean(self) -> float:
        """Category-index expectation: sum of k * probs[k]."""
        return sum(k * p for k, p in enumerate(self.probs))


@dataclass(frozen=True)
class OutcomeCounts:
    """Per-category project counts for the two groups under comparison.

    `counts_a` is the group hypothesized to produce better outcomes.
    """

    counts_a: tuple[int, ...]
    counts_b: tuple[int, ...]
    label_a: str = "A"
    label_b: str = "B"

    def __post_init__(self):
        for counts in (self.counts_a, self.counts_b):
            if any(int(c) != c or c < 0 for c in counts):
                raise ValueError(f"counts must be nonnegative integers, got {counts}")
        if len(self.counts_a) != len(self.counts_b):
            raise DimensionMismatch(
                f"groups disagree on K: {len(self.counts_a)} vs {len(self.counts_b)}"
            )
        object.__setattr__(self, "counts_a", tuple(int(c) for c in self.counts_a))
        object.__setattr__(self, "counts_b", tuple(int(c) for c in self.counts_b))

    @property
    def k(self) -> int:
        return len(self.counts_a)


def rescale_outcome(raw: int, lower_bound: int = 1, top_category: int = 2) -> int:
    """Map a raw 1..10 outcome onto 0..top_category via nearest anchor point.

    Anchors are evenly spaced over [lower_bound, 10]; ties go to the smaller
    category.  Anchor k sits at b + k(10 - b)/r, so the integer
    |b r + k(10 - b) - raw r| is r times its distance from raw: comparing
    those is exact, and tie-breaking never depends on floating-point rounding.
    """
    if int(raw) != raw or not 1 <= raw <= 10:
        raise OutOfRange(f"raw outcome must be an integer in 1..10, got {raw!r}")
    b, r = int(lower_bound), int(top_category)
    if not 1 <= b < 10:
        raise OutOfRange(f"lower bound must be in 1..9, got {lower_bound!r}")
    if r < 1:
        raise OutOfRange(f"need at least one category step, got {top_category!r}")
    # min keeps the first of equal gaps: the smaller category
    return min(range(r + 1), key=lambda k: abs(b * r + k * (10 - b) - raw * r))


def baseline_distribution(
    categories: Iterable[str], singletons: Mapping[str, OutcomeDistribution]
) -> OutcomeDistribution:
    """Unweighted average of the singleton distributions named in `categories`."""
    names = sorted(set(categories))
    if not names:
        raise EmptyCategorySet("baseline over an empty category set")
    dists = [singletons[name] for name in names]
    k = dists[0].k
    if any(d.k != k for d in dists):
        raise DimensionMismatch("singleton distributions disagree on K")
    return OutcomeDistribution(
        tuple(sum(d.probs[i] for d in dists) / len(dists) for i in range(k))
    )


def better_than(p: OutcomeDistribution, q: OutcomeDistribution) -> bool:
    """True when p's mean outcome strictly exceeds q's; ties are not better."""
    if p.k != q.k:
        raise DimensionMismatch(f"cannot compare K={p.k} against K={q.k}")
    return p.mean() > q.mean() + MEAN_TIE_TOL


def _log_multinomial(counts: tuple[int, ...], probs: np.ndarray) -> np.ndarray:
    """log P(counts | p) for each distribution p along the last axis of `probs`.

    Categories with no observations are dropped before the multiply, so
    0 * log 0 counts as 0 and a zero probability under an observed category
    gives -inf, never NaN.
    """
    log_coeff = math.lgamma(sum(counts) + 1) - sum(math.lgamma(c + 1) for c in counts)
    seen = np.array(counts) > 0
    with np.errstate(divide="ignore"):
        log_p = np.log(probs[..., seen])
    return log_coeff + (log_p * np.array(counts)[seen]).sum(axis=-1)


def multinomial_pmf(counts, p: OutcomeDistribution) -> float:
    """Probability of the category counts under outcome distribution p (0**0 = 1)."""
    counts = tuple(int(c) for c in counts)
    if len(counts) != p.k:
        raise DimensionMismatch(f"{len(counts)} counts against K={p.k}")
    if any(c < 0 for c in counts):
        raise ValueError(f"counts must be nonnegative, got {counts}")
    return math.exp(_log_multinomial(counts, np.array(p.probs)))


def _compositions(k: int, n: int) -> np.ndarray:
    """All ways to split n into K nonnegative integer parts, one per row.

    Rows are in lexicographic order, which makes downstream sums
    reproducible.  The array is read-only.
    """
    rows = np.zeros((1, 0), dtype=int)
    used = np.zeros(1, dtype=int)
    for _ in range(k - 1):
        # each prefix row, in order, takes every next part 0..n-used in turn
        reps = n - used + 1
        starts = np.cumsum(reps) - reps
        part = np.arange(reps.sum()) - np.repeat(starts, reps)
        rows = np.column_stack([np.repeat(rows, reps, axis=0), part])
        used = np.repeat(used, reps) + part
    rows = np.column_stack([rows, n - used])
    rows.setflags(write=False)
    return rows


def _simplex(k: int, step: float) -> tuple[np.ndarray, int]:
    """The integer compositions behind the grid at `step`, and n = 1/step."""
    if k < 1:
        raise InvalidStep(f"need at least one category, got K={k}")
    if not 0 < step <= 1:
        raise InvalidStep(f"step must be in (0, 1], got {step!r}")
    inverse = 1.0 / step
    if not math.isfinite(inverse):
        raise InvalidStep(f"step {step!r} is too small: 1/step is beyond the float range")
    n = round(inverse)
    if abs(n * step - 1.0) > 1e-9:
        raise InvalidStep(f"1/{step} is not an integer")
    rows = math.comb(n + k - 1, k - 1)
    _check_memory(f"simplex grid at step {step!r}", (rows, k), np.int64, InvalidStep)
    return _compositions(k, n), n


def enumerate_simplex(k: int, step: float) -> tuple[OutcomeDistribution, ...]:
    """All K-category distributions whose entries are multiples of `step`.

    `1/step` must be an integer (within 1e-9).  The order is lexicographic
    in the category counts.
    """
    comps, n = _simplex(k, step)
    return tuple(OutcomeDistribution(tuple(c / n for c in row)) for row in comps.tolist())


def _scheme_weights(delta: np.ndarray, k: int, scheme: str) -> np.ndarray:
    """Prior weights of distributions whose means lie `delta` from the baseline's.

    Uniform ignores delta; triangle falls off linearly, hitting zero at the
    largest possible gap K-1; power decays like 1/(1+delta); exp like
    exp(-delta).
    """
    if scheme == "uniform" or (scheme == "triangle" and k == 1):
        return np.ones_like(delta)
    if scheme == "triangle":
        return np.maximum(0.0, 1.0 - delta / (k - 1))
    if scheme == "power":
        return 1.0 / (1.0 + delta)
    if scheme == "exp":
        return np.exp(-delta)
    raise ValueError(f"unknown weight scheme {scheme!r}; expected one of {WEIGHT_SCHEMES}")


def scheme_weight(p: OutcomeDistribution, baseline: OutcomeDistribution, scheme: str) -> float:
    """Prior weight of p under the named scheme, from its mean gap to the baseline."""
    if p.k != baseline.k:
        raise DimensionMismatch(f"K={p.k} against baseline K={baseline.k}")
    delta = np.array(abs(p.mean() - baseline.mean()))
    return float(_scheme_weights(delta, p.k, scheme))


@lru_cache(maxsize=1)  # a run compares one pair of groups at one step; the next frees the last
def _grid_log_likelihoods(data: OutcomeCounts, step: float) -> tuple[np.ndarray, ...]:
    """The grid points' mean outcomes and each group's log-multinomial there, read-only."""
    comps, n = _simplex(data.k, step)
    probs = comps / n
    means = comps @ np.arange(data.k) / n
    log_a, log_b = (_log_multinomial(counts, probs) for counts in (data.counts_a, data.counts_b))
    for vector in (means, log_a, log_b):
        vector.setflags(write=False)
    return means, log_a, log_b


def _log_likelihoods(
    data: OutcomeCounts, baseline: OutcomeDistribution, scheme: str, step: float
) -> tuple[float, float, float]:
    """Natural logs of the "A better" and "no difference" likelihoods, and of
    the prior mass W(better) W(not better) / W(all)^2 of "A better".

    Each group's weighted log-likelihood is computed once over the whole
    simplex; the two hypotheses differ only in which grid points each
    group's sum runs over.  W(R) sums the scheme weights over region R, and
    the prior mass is built in the likelihoods' order of operations, so it
    cancels their ratio exactly when the data are empty.
    """
    if data.k != baseline.k:
        raise DimensionMismatch(f"counts K={data.k} against baseline K={baseline.k}")
    means, log_like_a, log_like_b = _grid_log_likelihoods(data, step)
    base = baseline.mean()
    better = means > base + MEAN_TIE_TOL
    with np.errstate(divide="ignore"):
        log_w = np.log(_scheme_weights(np.abs(means - base), data.k, scheme))
    log_a = log_w + log_like_a
    log_b = log_w + log_like_b
    log_all = _logsumexp(log_w)
    return (
        float(_logsumexp(log_a[better]) + _logsumexp(log_b[~better])),
        float(_logsumexp(log_a) + _logsumexp(log_b)),
        float(_logsumexp(log_w[better]) + _logsumexp(log_w[~better]) - (log_all + log_all)),
    )


def likelihood_better(
    data: OutcomeCounts,
    baseline: OutcomeDistribution,
    scheme: str = "uniform",
    step: float = 0.05,
) -> float:
    """Likelihood of the data when group A beats the baseline and group B does not.

    Group A's counts are weighed over all grid distributions better than the
    baseline, group B's over the rest; the two sums multiply.
    """
    return math.exp(_log_likelihoods(data, baseline, scheme, step)[0])


def likelihood_equal(
    data: OutcomeCounts,
    baseline: OutcomeDistribution,
    scheme: str = "uniform",
    step: float = 0.05,
) -> float:
    """Likelihood of the data when both groups draw from the full family.

    The baseline only shapes the weights; with the uniform scheme it has no
    effect on the value.
    """
    return math.exp(_log_likelihoods(data, baseline, scheme, step)[1])


class BayesFactor(float):
    """A Bayes factor that also carries its log10.

    The log stays finite where the factor itself underflows to 0.0, and it is
    -inf only when the "A better" family cannot produce the data at all.
    `normalised` is the case's normalised factor from the same likelihood
    pass, itself a `BayesFactor`; it is None on a normalised factor.
    """

    def __new__(cls, log10: float, normalised: BayesFactor | None = None):
        self = super().__new__(cls, 10.0**log10)
        self.log10 = log10
        self.normalised = normalised
        return self

    def __getnewargs__(self):
        return (self.log10, self.normalised)


def bayes_factor(
    data: OutcomeCounts,
    baseline: OutcomeDistribution,
    scheme: str = "uniform",
    step: float = 0.05,
) -> BayesFactor:
    """How much the data favors "group A is better than baseline" over "no difference".

    This is the paper's factor.  Both hypotheses share the unnormalised
    scheme weights, so it is the posterior probability, under "no
    difference", that A's distribution is better and B's is not, and it
    never exceeds 1.  Its `normalised` attribute is `normalised_bayes_factor`
    of the same arguments.
    """
    log_num, log_den, log_prior = _log_likelihoods(data, baseline, scheme, step)
    if log_den == -math.inf:
        raise ZeroDenominator("likelihood under the no-difference hypothesis is zero")
    log10 = (log_num - log_den) / math.log(10)
    normalised = -math.inf if log_prior == -math.inf else log10 - log_prior / math.log(10)
    return BayesFactor(log10, BayesFactor(normalised))


def normalised_bayes_factor(
    data: OutcomeCounts,
    baseline: OutcomeDistribution,
    scheme: str = "uniform",
    step: float = 0.05,
) -> BayesFactor:
    """`bayes_factor` divided by the prior mass of "group A is better than baseline".

    This is the encompassing-prior Bayes factor (Klugkist, Kato & Hoijtink
    2005): posterior over prior mass of the hypothesis, so it exceeds 1
    where the data favour it, and empty data give exactly 1.  It is 0 where
    no grid distribution with weight is better than the baseline.
    """
    return bayes_factor(data, baseline, scheme, step).normalised


def jeffreys_label(k: float) -> str:
    """Conventional verbal band for a Bayes factor (left-exclusive bands)."""
    if not k > 0:
        raise NonPositiveK(f"Bayes factor must be positive, got {k!r}")
    if k <= 1.0:
        return "negative"
    if k <= 3.0:
        return "barely"
    if k <= 10.0:
        return "substantial"
    if k <= 32.0:
        return "strong"
    if k <= 100.0:
        return "very strong"
    return "decisive"
