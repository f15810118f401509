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
    DuplicateKey,
    EmptyCalibration,
    EmptyPrimary,
    InvalidValue,
    NonPositiveInput,
)
from .density import AUTO, exclude_interval, gaussian_mixture_density, kde, scott_bandwidth, to_pmf
from .pmf import CredibleInterval, Pmf

SIGNIFICANT, WEAK, NOT_SIGNIFICANT = "significant", "weak", "not"

RATIO_GRID_POINTS = 4096

#: mean magnitudes below this leave a comparison inconclusive
_NO_EFFECT_BAND = 1.1
#: ceilings on the near endpoint and median for a merely weak comparison
_WEAK_CEILING = 2.0


@dataclass(frozen=True)
class BenchmarkRecord:
    language: str
    task: str
    input_size: float
    variant: str
    value: float


class BenchmarkDataset:
    """Positive measurements keyed uniquely by (language, task, input_size, variant)."""

    def __init__(self, records, metric: str = "time"):
        self.metric = metric
        recs = tuple(records)
        seen = set()
        by_lang_task: dict[tuple[str, str], dict[tuple[float, str], float]] = defaultdict(dict)
        for rec in recs:
            if rec.value <= 0 or not math.isfinite(rec.value):
                raise InvalidValue(f"nonpositive measurement {rec.value!r} for {rec}")
            key = (rec.language, rec.task, rec.input_size, rec.variant)
            if key in seen:
                raise DuplicateKey(f"duplicate measurement key {key}")
            seen.add(key)
            by_lang_task[(rec.language, rec.task)][(rec.input_size, rec.variant)] = rec.value
        self.records = recs
        self._by_lang_task = dict(by_lang_task)

    def languages(self) -> tuple[str, ...]:
        return tuple(sorted({lang for lang, _ in self._by_lang_task}))

    def tasks(self, language: str) -> set[str]:
        return {task for lang, task in self._by_lang_task if lang == language}

    def best_value(self, language: str, task: str) -> float:
        return min(self._by_lang_task[(language, task)].values())

    def sizes(self, language: str, task: str) -> set[float]:
        return {size for size, _ in self._by_lang_task[(language, task)]}

    def values_at(self, language: str, task: str, size: float) -> dict[str, float]:
        return {
            variant: value
            for (sz, variant), value in self._by_lang_task[(language, task)].items()
            if sz == size
        }


def ratio(a: float, b: float) -> float:
    """Signed speedup of b over a: sgn(a-b) * max/min, with sgn(0) = -1.

    The magnitude is always at least 1; a positive result means the second
    measurement is the smaller (faster) one.
    """
    if not (a > 0 and b > 0):
        raise NonPositiveInput(f"ratio needs positive inputs, got ({a!r}, {b!r})")
    sign = 1.0 if a - b > 0 else -1.0
    return sign * max(a, b) / min(a, b)


def primary_speedups(data: BenchmarkDataset, lang1: str, lang2: str) -> list[float]:
    """One ratio of best values per task shared by both languages."""
    common = sorted(data.tasks(lang1) & data.tasks(lang2))
    return [ratio(data.best_value(lang1, t), data.best_value(lang2, t)) for t in common]


def _reference_speedup(data: BenchmarkDataset, lang1: str, lang2: str, task: str):
    """Ratio of fastest variants at the largest shared input size, or None."""
    shared = data.sizes(lang1, task) & data.sizes(lang2, task)
    if not shared:
        return None
    top = max(shared)
    return ratio(
        min(data.values_at(lang1, task, top).values()),
        min(data.values_at(lang2, task, top).values()),
    )


def calib_speedups(data: BenchmarkDataset, lang1: str, lang2: str) -> list[float]:
    """Per shared task, the best-variant ratio at the largest shared input size.

    Tasks without a shared input size are skipped.
    """
    out = []
    for task in sorted(data.tasks(lang1) & data.tasks(lang2)):
        ref = _reference_speedup(data, lang1, lang2, task)
        if ref is not None:
            out.append(ref)
    return out


def calib_deltas(data: BenchmarkDataset, lang1: str, lang2: str) -> list[float]:
    """Speedup scatter: every variant/size pairing's ratio minus the task reference.

    Pools, over all shared tasks, the difference between the ratio of any
    lang1 variant against any lang2 variant (at any shared size) and that
    task's reference speedup.
    """
    out = []
    for task in sorted(data.tasks(lang1) & data.tasks(lang2)):
        ref = _reference_speedup(data, lang1, lang2, task)
        if ref is None:
            continue
        for size in sorted(data.sizes(lang1, task) & data.sizes(lang2, task)):
            left = data.values_at(lang1, task, size)
            right = data.values_at(lang2, task, size)
            for _, v1 in sorted(left.items()):
                for _, v2 in sorted(right.items()):
                    out.append(ratio(v1, v2) - ref)
    return out


def ratio_grid(values, bandwidth: float, n_points: int = RATIO_GRID_POINTS):
    """Symmetric grid spanning all observed ratios plus three bandwidths."""
    span = max(abs(float(v)) for v in values) + 3.0 * bandwidth
    return (-span, span, n_points)


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
    """
    primary = [float(v) for v in primary]
    calib = [float(v) for v in calib]
    deltas = [float(v) for v in deltas]
    if not calib or not deltas:
        raise EmptyCalibration("no calibration speedups for this pair")
    if not primary:
        raise EmptyPrimary("no primary speedups for this pair")

    bw_prior = scott_bandwidth(calib) if bandwidth in (AUTO, None) else float(bandwidth)
    bw_delta = scott_bandwidth(deltas) if delta_bandwidth in (AUTO, None) else float(delta_bandwidth)
    if grid_spec is None:
        grid_spec = ratio_grid(primary + calib, bw_prior)

    prior = to_pmf(exclude_interval(kde(calib, bw_prior, grid_spec), -1.0, 1.0, half_open=True))
    support = np.asarray(prior.support, dtype=float)
    liks = gaussian_mixture_density(np.array(primary)[:, None] - support[None, :], deltas, bw_delta)
    with np.errstate(divide="ignore"):
        log_post = np.log(prior.probs)
        for lik in liks:  # row by row in data order, so the rounding matches iterate_update's
            log_post += np.log(lik)
    return Pmf.from_log_weights(prior.support, log_post)


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
    """Speedup posterior for one pair straight from the two datasets."""
    try:
        return speedup_posterior(
            primary_speedups(primary_data, lang1, lang2),
            calib_speedups(calib_data, lang1, lang2),
            calib_deltas(calib_data, lang1, lang2),
            bandwidth=bandwidth,
        )
    except (EmptyCalibration, EmptyPrimary) as exc:
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
