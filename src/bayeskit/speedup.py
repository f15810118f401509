"""Posterior estimation of pairwise speedups from benchmark measurements.

A primary dataset supplies one observed speedup per task for a language
pair.  A calibration dataset (richer: several input sizes and program
variants per task) supplies both the prior over plausible speedups and, via
within-task measurement scatter, the likelihood of observing a speedup given
a true one.  Ratios are signed: magnitude at least 1, positive when the
second language is faster (or uses less memory).
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import (
    AnalysisError,
    DuplicateKey,
    EmptyCalibration,
    EmptyPrimary,
    InvalidValue,
    NonPositiveInput,
)
from .density import (
    AUTO,
    _log_kernel_sums,
    exclude_interval,
    gaussian_mixture_density,
    kde,
    scott_bandwidth,
)
from .pmf import CredibleInterval, Pmf, _logsumexp

SIGNIFICANT, WEAK, NOT_SIGNIFICANT = "significant", "weak", "not"

RATIO_GRID_POINTS = 4096

#: mean magnitudes below this leave a comparison inconclusive
_NO_EFFECT_BAND = 1.1
#: ceilings on the near endpoint and median for a merely weak comparison
_WEAK_CEILING = 2.0


@dataclass(frozen=True, slots=True)
class BenchmarkRecord:
    language: str
    task: str
    input_size: float
    variant: str
    value: float


class BenchmarkDataset:
    """Positive, finite measurements keyed uniquely by (language, task, input_size, variant).

    They are indexed once as language -> task -> input size -> variant -> value.
    """

    def __init__(self, records, metric: str = "time"):
        self.metric = metric
        self.records = tuple(records)
        self._index: dict[str, dict[str, dict[float, dict[str, float]]]] = {}
        for rec in self.records:
            if not 0 < rec.value < math.inf:
                raise InvalidValue(f"measurement {rec.value!r} must be positive and finite: {rec}")
            if not 0 < rec.input_size < math.inf:
                raise InvalidValue(f"input size {rec.input_size!r} must be positive and finite: {rec}")
            tasks = self._index.setdefault(rec.language, {})
            variants = tasks.setdefault(rec.task, {}).setdefault(rec.input_size, {})
            if rec.variant in variants:
                key = (rec.language, rec.task, rec.input_size, rec.variant)
                raise DuplicateKey(f"duplicate measurement key {key}")
            variants[rec.variant] = rec.value

    def languages(self) -> tuple[str, ...]:
        return tuple(sorted(self._index))


def ratio(a: float, b: float) -> float:
    """Signed speedup of b over a: sgn(a-b) * max/min, with sgn(0) = -1.

    The magnitude is always at least 1; a positive result means the second
    measurement is the smaller (faster) one.
    """
    if not (a > 0 and b > 0):
        raise NonPositiveInput(f"ratio needs positive inputs, got ({a!r}, {b!r})")
    sign = 1.0 if a - b > 0 else -1.0
    return sign * max(a, b) / min(a, b)


def _shared_tasks(data: BenchmarkDataset, lang1: str, lang2: str):
    """(sizes of lang1, sizes of lang2) per task both languages measured, in task order."""
    tasks1 = data._index.get(lang1, {})
    tasks2 = data._index.get(lang2, {})
    return [(tasks1[task], tasks2[task]) for task in sorted(tasks1.keys() & tasks2.keys())]


def primary_speedups(data: BenchmarkDataset, lang1: str, lang2: str) -> list[float]:
    """One ratio of best values per task shared by both languages."""

    def best(sizes):
        return min(value for variants in sizes.values() for value in variants.values())

    return [ratio(best(sizes1), best(sizes2)) for sizes1, sizes2 in _shared_tasks(data, lang1, lang2)]


def _calibration(data: BenchmarkDataset, lang1: str, lang2: str):
    """Calibration speedups and deltas of one pair from one pass over the shared tasks.

    A task's reference speedup is the ratio of the fastest variants at the
    largest shared input size; tasks without a shared size are skipped.  The
    deltas pool, over those tasks, the ratio of every lang1 variant against
    every lang2 variant at every shared size minus the task's reference.
    """
    speedups, deltas = [], []
    for sizes1, sizes2 in _shared_tasks(data, lang1, lang2):
        shared = sorted(sizes1.keys() & sizes2.keys())
        if not shared:
            continue
        top = shared[-1]
        ref = ratio(min(sizes1[top].values()), min(sizes2[top].values()))
        speedups.append(ref)
        for size in shared:
            right = [v2 for _, v2 in sorted(sizes2[size].items())]
            for _, v1 in sorted(sizes1[size].items()):
                deltas.extend(ratio(v1, v2) - ref for v2 in right)
    return speedups, deltas


def calib_speedups(data: BenchmarkDataset, lang1: str, lang2: str) -> list[float]:
    """Per shared task with a shared input size, the task's reference speedup."""
    return _calibration(data, lang1, lang2)[0]


def calib_deltas(data: BenchmarkDataset, lang1: str, lang2: str) -> list[float]:
    """Speedup scatter: every variant/size pairing's ratio minus its task's reference."""
    return _calibration(data, lang1, lang2)[1]


def ratio_grid(values, bandwidth: float, n_points: int = RATIO_GRID_POINTS):
    """Symmetric grid spanning all observed ratios plus three bandwidths."""
    span = max(abs(float(v)) for v in values) + 3.0 * bandwidth
    return (-span, span, n_points)


#: a column whose log-posterior bound lies this far below a reached log posterior has
#: mass exactly 0.0: the shift-by-max exp underflows below -745.14; the rest spares rounding
_ZERO_MASS_MARGIN = 760.0


def _can_hold_mass(log_prior, support, data, deltas, bandwidth) -> np.ndarray:
    """Mask of the columns `support` whose posterior mass is not provably 0.0.

    The bound ub(h) of `speedup_posterior` is one grid-length vector updated
    datum by datum, never a P x G temporary.
    """
    lo, hi = min(deltas), max(deltas)
    bound = log_prior + data.size * math.log(len(deltas))
    x, gap = np.empty_like(support), np.empty_like(support)
    with np.errstate(over="ignore"):
        for d in data:
            np.subtract(d, support, out=x)
            np.subtract(x, hi, out=gap)
            np.subtract(lo, x, out=x)
            np.maximum(gap, x, out=gap)
            np.maximum(gap, 0.0, out=gap)
            gap /= bandwidth
            gap *= gap
            gap *= 0.5
            bound -= gap
    best = int(np.argmax(bound))
    reached = log_prior[best]
    at_best = data - support[best]
    sums = gaussian_mixture_density(at_best, deltas, bandwidth)
    for log_lik in _log_kernel_sums(sums, at_best, deltas, bandwidth):
        reached += log_lik
    # rounding in the bound and in L grows with their size: 32 ulps of L per datum
    return bound >= reached - _ZERO_MASS_MARGIN - abs(reached) * data.size * 2.0**-48


def speedup_posterior(
    primary,
    calib,
    deltas,
    grid_spec=None,
    bandwidth=AUTO,
    delta_bandwidth=AUTO,
) -> Pmf:
    """Posterior over the true speedup for one language pair.

    The prior is the kernel density of the calibration speedups with the
    impossible band (-1, 1] excluded; each primary observation d updates it
    with a likelihood proportional to the delta-scatter density at d - h.
    Speedups must be finite and bandwidths positive and finite (`InvalidValue`).

    The likelihood is evaluated only where the posterior can hold mass: where
    the prior is positive, and there only in columns h whose log posterior
    may come within 760 of the largest.  A kernel sum over D deltas is at
    most D * exp(-(gap / bw)**2 / 2), with gap the distance from d - h to
    [min delta, max delta], so over P primary speedups
    ub(h) = log prior(h) + P log D - sum_d (gap / bw)**2 / 2 bounds the log
    posterior.  The exact log posterior L at the column of largest ub is a
    value the posterior reaches, and a column with ub(h) < L - 760 lies more
    than 745.14 below the maximum (15 to spare for rounding, and 32 units in
    the last place of L per datum for the far data below), where the
    shift-by-max `exp` gives exactly 0.0; it is skipped with log posterior
    -inf, and the output bytes are those of evaluating every column.  When L
    is -inf nothing is skipped.  Kernel sums that underflow are taken in log
    form (`density._log_kernel_sums`), so data tens of delta bandwidths from
    every column still have a finite likelihood instead of raising `AllZeroMass`.
    """
    primary = [float(v) for v in primary]
    calib = [float(v) for v in calib]
    deltas = [float(v) for v in deltas]
    if not calib or not deltas:
        raise EmptyCalibration("no calibration speedups for this pair")
    if not primary:
        raise EmptyPrimary("no primary speedups for this pair")

    for name, values in (("primary", primary), ("calibration", calib), ("delta", deltas)):
        bad = next((v for v in values if not math.isfinite(v)), None)
        if bad is not None:
            raise InvalidValue(f"non-finite {name} speedup {bad!r}")

    bw_prior = scott_bandwidth(calib) if bandwidth in (AUTO, None) else float(bandwidth)
    bw_delta = scott_bandwidth(deltas) if delta_bandwidth in (AUTO, None) else float(delta_bandwidth)
    for name, bw in (("bandwidth", bw_prior), ("delta bandwidth", bw_delta)):
        if not (math.isfinite(bw) and bw > 0):
            raise InvalidValue(f"{name} must be positive and finite, got {bw!r}")
    if grid_spec is None:
        grid_spec = ratio_grid(primary + calib, bw_prior)

    density = exclude_interval(kde(calib, bw_prior, grid_spec), -1.0, 1.0, half_open=True)
    prior = density.density * density.spacing
    prior /= prior.sum()  # the masses to_pmf gives, without building that pmf
    # where the prior is 0 the log posterior is -inf whatever the data say, so only
    # the prior's support is bounded, and the kernel sees only columns the bound keeps
    cols = np.flatnonzero(prior > 0)
    support = density.grid[cols]
    log_post = np.log(prior[cols])
    data = np.array(primary)
    keep = _can_hold_mass(log_post, support, data, deltas, bw_delta)
    cols, support, log_post = cols[keep], support[keep], log_post[keep]
    diffs = data[:, None] - support
    sums = gaussian_mixture_density(diffs, deltas, bw_delta)
    # row by row in data order, so the rounding matches iterate_update's
    for log_lik in _log_kernel_sums(sums, diffs, deltas, bw_delta):
        log_post += log_lik
    log_weights = np.full(prior.shape, -np.inf)
    log_weights[cols] = log_post
    return Pmf.from_log_weights(density.grid, log_weights)


@dataclass(frozen=True)
class ComparisonSummary:
    """Posterior digest for one ordered language pair."""

    pair: tuple[str, str]
    ci: CredibleInterval
    median: float
    mean: float
    significance: str


def classify(ci: CredibleInterval, mean: float, median: float) -> str:
    """Significance class of a ratio-posterior summary.

    Inconclusive when the interval straddles zero or the mean sits inside
    the +-1.1 no-effect band; weak when the interval is as wide as its
    distance from the origin and both that distance and the median stay
    within a factor of 2; significant otherwise.
    """
    low, high = float(ci.low), float(ci.high)
    if low < 0.0 < high or -_NO_EFFECT_BAND < mean < _NO_EFFECT_BAND:
        return NOT_SIGNIFICANT
    width = high - low
    near = min(abs(low), abs(high))
    if width >= near and near <= _WEAK_CEILING and abs(median) <= _WEAK_CEILING:
        return WEAK
    return SIGNIFICANT


def pair_posterior(
    calib_data: BenchmarkDataset,
    primary_data: BenchmarkDataset,
    lang1: str,
    lang2: str,
    bandwidth=AUTO,
) -> Pmf:
    """Speedup posterior for one pair straight from the two datasets.

    An `AnalysisError` keeps its type and gains the pair as a message prefix.
    """
    try:
        calib, deltas = _calibration(calib_data, lang1, lang2)
        return speedup_posterior(
            primary_speedups(primary_data, lang1, lang2), calib, deltas, bandwidth=bandwidth
        )
    except AnalysisError as exc:
        raise type(exc)(f"{lang1} vs {lang2}: {exc}") from None


def summarize_pair(pair: tuple[str, str], post: Pmf, ci_mass: float = 0.95) -> ComparisonSummary:
    """Digest a pair posterior into interval, median, mean, and significance."""
    ci = post.credible_interval(ci_mass)
    mean, median = post.mean(), float(post.median())
    return ComparisonSummary(pair, ci, median, mean, classify(ci, mean, median))


def compare_pair(
    calib_data: BenchmarkDataset,
    primary_data: BenchmarkDataset,
    lang1: str,
    lang2: str,
    ci_mass: float = 0.95,
    bandwidth=AUTO,
) -> ComparisonSummary:
    """Full pipeline for one pair: speedups, posterior, summary statistics."""
    post = pair_posterior(calib_data, primary_data, lang1, lang2, bandwidth)
    return summarize_pair((lang1, lang2), post, ci_mass)


@dataclass(frozen=True)
class RelationshipGraph:
    """Directed speed-relationship graph: edges point from slower to faster."""

    nodes: tuple[tuple[str, float], ...]  # (language, x position in [0, 10])
    edges: tuple[tuple[str, str, str], ...]  # (slower, faster, "solid" | "dotted")


def relationship_graph(summaries) -> RelationshipGraph:
    """Build the relationship graph from all pairwise summaries.

    Each node's x position is its accumulated log-median advantage over its
    opponents, rescaled to [0, 10] with the fastest language at 10.
    """
    scores: dict[str, float] = defaultdict(float)
    edges = []
    for s in sorted(summaries, key=lambda s: s.pair):
        l1, l2 = s.pair
        advantage = math.log(abs(s.median)) if abs(s.median) > 1.0 else 0.0
        if s.median > 0:  # second language faster
            slower, faster = l1, l2
        else:
            slower, faster = l2, l1
        scores[slower] -= advantage
        scores[faster] += advantage
        if s.significance == SIGNIFICANT:
            edges.append((slower, faster, "solid"))
        elif s.significance == WEAK:
            edges.append((slower, faster, "dotted"))
    lo = min(scores.values(), default=0.0)
    hi = max(scores.values(), default=0.0)
    span = hi - lo
    nodes = tuple(
        (lang, 10.0 * (scores[lang] - lo) / span if span > 0 else 0.0)
        for lang in sorted(scores)
    )
    return RelationshipGraph(nodes, tuple(edges))


def graph_to_dot(graph: RelationshipGraph) -> str:
    """Render the relationship graph as a Graphviz digraph (neato-style positions)."""
    lines = ["digraph speedups {", "  rankdir=LR;", "  node [shape=plaintext];"]
    for lang, x in graph.nodes:
        lines.append(f'  "{lang}" [pos="{x:.4f},0!"];')
    for slower, faster, style in graph.edges:
        attr = " [style=dotted]" if style == "dotted" else ""
        lines.append(f'  "{slower}" -> "{faster}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"
