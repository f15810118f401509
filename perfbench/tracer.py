"""Spans around calls into bayeskit's public functions, and the layer metrics.

`install` wraps each traced function by replacing the attribute in the
namespace the caller looks it up in (for example `bayeskit.cli.line_chart_svg`
or `bayeskit.pmf.Pmf.__init__`), so the program itself is unchanged.  A span
is ``[layer, start, end, parent, attrs]``: `parent` indexes the enclosing
span (-1 for the job's root span) and `attrs` holds work counts derived from
the call's argument shapes.  Spans stay in memory until the job ends.

A layer's self time is the duration of its spans minus the time their child
spans cover.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, layer: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, time.monotonic(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.monotonic()
        self._stack.pop()

    def wrap(self, fn, layer: str, count=None):
        """`fn` recording one span per call; `count(result, *args, **kw)` gives its attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.spans[idx][4] = count(result, *args, **kwargs)
            return result

        return traced


# -- work counts from argument shapes ----------------------------------------


def _outcome_counts(_, data, baseline, scheme="uniform", step=0.05):
    n = round(1.0 / step)
    return {
        "k": data.k,
        "n": n,
        "points": math.comb(n + data.k - 1, data.k - 1),
        "counts": [list(data.counts_a), list(data.counts_b)],
    }


def _rows(result, *_):
    if isinstance(result, dict):  # benchmark datasets per metric, or baselines by name
        return {"rows": sum(len(v.records) if hasattr(v, "records") else v.k
                            for v in result.values())}
    return {"rows": len(result.rows) if hasattr(result, "rows") else len(result)}


def _posterior_shape(_, primary, calib, deltas, *args, **kwargs):
    return {"primary": len(primary), "calib": len(calib), "deltas": len(deltas)}


def _kernel_shape(_, points, samples, bandwidth):
    size = getattr(points, "size", None)
    return {"points": size if size is not None else len(points), "samples": len(samples)}


def _fit_shape(_, counts, prior_kind="uniform", grid=None):
    from bayeskit.defects import DEFAULT_GRID_STEPS

    n_a, n_b = grid[2] if grid is not None else DEFAULT_GRID_STEPS
    counts = list(counts)
    return {"classes": len(counts), "distinct": len(set(counts)),
            "cells": len(counts) * int(n_a) * int(n_b)}


def _totals_shape(_, classes, params, grid, n_max=None, ci_mass=0.9):
    from bayeskit.defects import default_n_max

    found = [c.found_simple for c in classes]
    per_support = sum((default_n_max(d) if n_max is None else n_max) + 1 for d in found)
    return {
        "classes": len(found),
        "distinct": len(set(found)),
        "cells": grid.e_steps * grid.strong_steps * per_support,
    }


def _pmf_points(_, self, *args, **kwargs):
    return {"points": len(self.support)}


def _svg_shape(result, series, *args, **kwargs):
    return {"points": sum(len(xs) for _, xs, _ in series), "bytes": len(result.encode("utf-8"))}


def _text_bytes(_, path, text):
    return {"bytes": len(text.encode("utf-8"))}


def install(tracer: Tracer) -> None:
    """Wrap the traced functions where their callers look them up."""
    from bayeskit import cli, datasets, defects, outcomes, pmf, speedup

    def patch(owner, name, layer, count=None):
        setattr(owner, name, tracer.wrap(getattr(owner, name), layer, count))

    def patch_classmethod(cls, name, layer):
        setattr(cls, name, classmethod(tracer.wrap(cls.__dict__[name].__func__, layer)))

    for loader in ("load_outcomes", "load_baselines", "load_benchmarks", "load_primary",
                   "load_bug_counts"):
        patch(datasets, loader, "datasets", _rows)
    patch(outcomes, "bayes_factor", "outcomes", _outcome_counts)
    patch(speedup, "pair_posterior", "speedup")
    patch(speedup, "speedup_posterior", "speedup", _posterior_shape)
    patch(speedup, "summarize_pair", "speedup.summarize")
    patch(speedup, "gaussian_mixture_density", "density.kernel", _kernel_shape)
    patch(speedup, "kde", "density.kde")
    patch(pmf.Pmf, "__init__", "pmf.construct", _pmf_points)
    patch_classmethod(pmf.Pmf, "from_log_weights", "pmf.construct")
    for method in ("mean", "quantile", "median", "credible_interval"):
        patch(pmf.Pmf, method, "pmf.summary")
    patch(pmf.JointPmf2D, "__init__", "pmf.joint")
    patch_classmethod(pmf.JointPmf2D, "from_log_weights", "pmf.joint")
    for method in ("marginal_x", "marginal_y", "map_point"):
        patch(pmf.JointPmf2D, method, "pmf.joint")
    patch(defects, "fit_weibull_posterior", "defects.fit", _fit_shape)
    patch(defects, "estimate_class_totals", "defects.totals", _totals_shape)
    patch(defects, "derived_prob_at_most", "defects.derived")
    patch(defects, "pareto_fraction", "defects.pareto")
    patch(cli, "line_chart_svg", "plots.svg", _svg_shape)
    patch(cli, "_write_text", "cli.write", _text_bytes)
    patch(cli, "_write_csv", "cli.write")
    patch(cli, "_write_report", "cli.write")


# -- layer metrics -------------------------------------------------------------

COMMANDS = ("compare-outcomes", "compare-performance", "fit-defects",
            "estimate-total-bugs", "derived-plots")


def self_times(spans) -> dict[str, float]:
    """Per layer: span durations minus the time their child spans cover."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    totals: dict[str, float] = defaultdict(float)
    for (layer, *_), t in zip(spans, own):
        totals[layer] += t
    return dict(totals)


def pass_metrics(jobs) -> dict[str, float]:
    """Per-layer metrics of one traced pass; `jobs` holds (command, spans) per job.

    Times are seconds; every other value is a count computed from argument
    shapes, so it repeats exactly from run to run.
    """
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, list] = defaultdict(list)
    wall = {cmd: 0.0 for cmd in COMMANDS}
    summarize_s = 0.0
    for command, spans in jobs:
        for layer, t in self_times(spans).items():
            own[layer] += t
        for layer, start, end, parent, attrs in spans:
            if parent < 0:
                wall[command] += end - start
            if layer == "speedup.summarize":
                summarize_s += end - start
            if attrs is not None:
                calls[layer].append(attrs)

    def total(layer, key):
        return sum(a[key] for a in calls[layer] if key in a)

    out = {f"cli.{cmd}_s": wall[cmd] for cmd in COMMANDS}
    out["cli.write_s"] = own["cli.write"]
    out["cli.write_bytes"] = total("cli.write", "bytes")
    out["cli.files"] = len([a for a in calls["cli.write"] if "bytes" in a])
    out["datasets.s"] = own["datasets"]
    out["datasets.rows"] = total("datasets", "rows")

    factors = calls["outcomes"]
    points = max((a["points"] for a in factors), default=0)
    evals = sum(3 * a["points"] for a in factors)
    distinct = {(a["k"], a["n"], tuple(map(tuple, a["counts"]))): a["points"] for a in factors}
    out["outcomes.s"] = own["outcomes"]
    out["outcomes.factors"] = len(factors)
    out["outcomes.simplex_points"] = points
    out["outcomes.pmf_evals"] = evals
    out["outcomes.distinct_eval_ratio"] = (
        2 * sum(distinct.values()) / evals if evals else 0.0
    )

    posteriors = [a for a in calls["speedup"] if "primary" in a]
    out["speedup.s"] = own["speedup"]
    out["speedup.pairs"] = len(posteriors)
    out["speedup.primary_per_pair"] = (
        statistics.fmean(a["primary"] for a in posteriors) if posteriors else 0.0
    )
    out["speedup.deltas_per_pair"] = (
        statistics.fmean(a["deltas"] for a in posteriors) if posteriors else 0.0
    )
    out["speedup.summarize_s"] = summarize_s

    kernels = calls["density.kernel"]
    out["density.kernel_s"] = own["density.kernel"]
    out["density.kernel_calls"] = len(kernels)
    out["density.kernel_evals"] = sum(a["points"] * a["samples"] for a in kernels)
    out["density.kernel_mb"] = max((8 * a["points"] * a["samples"] / 1e6 for a in kernels),
                                   default=0.0)
    out["density.kde_s"] = own["density.kde"]

    out["pmf.construct_s"] = own["pmf.construct"]
    out["pmf.constructs"] = len(calls["pmf.construct"])
    out["pmf.points"] = total("pmf.construct", "points")
    out["pmf.summary_s"] = own["pmf.summary"]
    out["pmf.joint_s"] = own["pmf.joint"]

    for stage in ("fit", "totals"):
        layer = f"defects.{stage}"
        classes = total(layer, "classes")
        out[f"{layer}_s"] = own[layer]
        out[f"{layer}_cells"] = total(layer, "cells")
        out[f"{layer}_distinct_ratio"] = total(layer, "distinct") / classes if classes else 0.0
    out["defects.fits"] = len(calls["defects.fit"])
    out["defects.derived_s"] = own["defects.derived"]
    out["defects.pareto_s"] = own["defects.pareto"]

    out["plots.svg_s"] = own["plots.svg"]
    out["plots.svgs"] = len(calls["plots.svg"])
    out["plots.svg_points"] = total("plots.svg", "points")
    out["plots.svg_bytes"] = total("plots.svg", "bytes")
    return out


def layer_self_times(jobs) -> dict[str, float]:
    """Self time per layer over a pass, the job roots counted as layer `cli`."""
    own: dict[str, float] = defaultdict(float)
    for _, spans in jobs:
        for layer, t in self_times(spans).items():
            own["cli" if layer.startswith("cli.") and layer != "cli.write" else layer] += t
    return dict(own)
