"""Command-line front end: ingestion, analysis orchestration, and reports.

Every subcommand reads CSV inputs, runs one analysis pipeline, and writes
its tables/graphs/plots plus a `report.json` tying each number to the exact
parameters and input digests that produced it.  All pipelines are
deterministic: identical inputs and flags give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import datasets, defects, outcomes, speedup
from .density import AUTO
from .errors import AnalysisError, InvalidValue
from .plots import line_chart_svg

REPORT_NAME = "report.json"


# -- small serialization helpers --------------------------------------------


def _fmt6(x) -> str:
    """CSV number formatting: 6 significant digits."""
    if x is None:
        return ""
    return format(float(x), ".6g")


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _write_report(out_dir: Path, command: str, cfg, inputs, results, warnings=()) -> dict:
    parameters = asdict(cfg)
    parameters.pop("out", None)  # run placement, not analysis configuration
    report = {
        "command": command,
        "parameters": _jsonable(parameters),
        "inputs": {str(p): _sha256(p) for p in inputs},
        "results": _jsonable(results),
        "warnings": list(warnings),
    }
    _write_text(out_dir / REPORT_NAME, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return report


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9.+-]", "_", name.replace("#", "sharp"))


# -- flag parsing helpers ----------------------------------------------------


def _as_pair(value, caster, flag):
    if isinstance(value, str):
        parts = value.split(",")
    else:
        parts = list(value)
    if len(parts) != 2:
        raise InvalidValue(f"{flag} expects two comma-separated values, got {value!r}")
    try:
        return caster(parts[0]), caster(parts[1])
    except ValueError:
        raise InvalidValue(f"{flag}: cannot parse {value!r}") from None


def _as_grid(value, flag):
    if isinstance(value, str):
        parts = value.lower().split("x")
    else:
        parts = list(value)
    if len(parts) != 2:
        raise InvalidValue(f"{flag} expects NxM, got {value!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise InvalidValue(f"{flag}: cannot parse {value!r}") from None


def _as_bandwidth(value):
    if value in (None, AUTO, "auto"):
        return AUTO
    try:
        return float(value)
    except ValueError:
        raise InvalidValue(f"--bandwidth must be 'auto' or a number, got {value!r}") from None


def _as_names(value):
    if value is None:
        return None
    if isinstance(value, str):
        return tuple(n.strip() for n in value.split(",") if n.strip())
    return tuple(value)


# -- subcommand configs ------------------------------------------------------


@dataclass
class CompareOutcomesConfig:
    data: str
    baselines: str
    out: str = "."
    baseline_set: tuple[str, ...] | None = None
    schemes: tuple[str, ...] = outcomes.WEIGHT_SCHEMES
    simplex_step: float = 0.05
    rescale_b: int = 1
    rescale_r: int | None = None
    hypothesis_group: str | None = None


@dataclass
class ComparePerformanceConfig:
    primary: str
    calib: str
    out: str = "."
    metric: str = "time"
    bandwidth: object = AUTO
    ci: float = 0.95
    plots: bool = False


@dataclass
class FitDefectsConfig:
    data: str
    out: str = "."
    prior: str = "uniform"
    alpha_range: tuple[float, float] = defects.DEFAULT_ALPHA_RANGE
    beta_range: tuple[float, float] = defects.DEFAULT_BETA_RANGE
    grid: tuple[int, int] = defects.DEFAULT_GRID_STEPS
    ci: float = 0.9
    pareto_xmax: float | None = None


@dataclass
class EstimateTotalBugsConfig:
    data: str
    out: str = "."
    prior: str = "uniform"
    e_range: tuple[float, float] = defects.DEFAULT_E_RANGE
    strong_range: tuple[float, float] = defects.DEFAULT_STRONG_RANGE
    e_steps: int = defects.DEFAULT_E_STEPS[0]
    strong_steps: int = defects.DEFAULT_E_STEPS[1]
    nmax: int | None = None
    ci: float = 0.9
    alpha: float | None = None
    beta: float | None = None


@dataclass
class DerivedPlotsConfig:
    data: str
    out: str = "."
    at_most: int = 5
    prior: str = "uniform"
    bins: int | None = None


# -- runners -----------------------------------------------------------------


def run_compare_outcomes(cfg: CompareOutcomesConfig) -> dict:
    table = datasets.load_outcomes(cfg.data)
    baselines = datasets.load_baselines(cfg.baselines)
    if not baselines:
        raise InvalidValue(f"{cfg.baselines}: no baseline distributions")
    k_values = {b.k for b in baselines.values()}
    if len(k_values) != 1:
        raise InvalidValue(f"baselines disagree on K: {sorted(k_values)}")
    k = k_values.pop()
    if cfg.rescale_r is not None and cfg.rescale_r != k - 1:
        raise InvalidValue(f"--rescale-r {cfg.rescale_r} conflicts with K={k} baselines")

    names = cfg.baseline_set or tuple(sorted(baselines))
    resolved = {}
    for name in names:
        if name in baselines:
            resolved[name] = baselines[name]
        elif len(name) > 1 and all(ch in baselines for ch in name):
            resolved[name] = outcomes.baseline_distribution(list(name), baselines)
        else:
            raise InvalidValue(f"unknown baseline {name!r} (not in file, not composable)")

    counts = table.to_counts(k, cfg.rescale_b, cfg.hypothesis_group)
    factors: dict[str, dict[str, dict]] = {}
    warnings = []
    for name in names:
        per = {}
        for scheme in cfg.schemes:
            factor = outcomes.bayes_factor(counts, resolved[name], scheme, cfg.simplex_step)
            # a factor below the float range underflows to 0.0 but keeps a finite log10
            label = outcomes.jeffreys_label(factor) if factor > 0 else "negative"
            log10 = None if factor.log10 == -math.inf else factor.log10
            if log10 is None:
                # coarse grids can starve one hypothesis family of the data
                warnings.append(
                    f"factor for baseline {name!r}, scheme {scheme!r} is 0; "
                    f"consider a finer --simplex-step"
                )
            per[scheme] = {"factor": float(factor), "label": label, "log10_factor": log10}
        factors[name] = per

    out_dir = Path(cfg.out)
    rows = [
        [scheme] + [_fmt6(factors[name][scheme]["factor"]) for name in names]
        for scheme in cfg.schemes
    ]
    _write_csv(out_dir / "outcome_factors.csv", ["scheme", *names], rows)
    _write_text(
        out_dir / "outcome_factors.json",
        json.dumps(_jsonable(factors), indent=2, sort_keys=True) + "\n",
    )
    results = {
        "groups": [counts.label_a, counts.label_b],
        "counts": {counts.label_a: counts.counts_a, counts.label_b: counts.counts_b},
        "factors": factors,
    }
    return _write_report(
        out_dir, "compare-outcomes", cfg, [cfg.data, cfg.baselines], results, warnings
    )


def run_compare_performance(cfg: ComparePerformanceConfig) -> dict:
    calib_all = datasets.load_benchmarks(cfg.calib)
    primary_all = datasets.load_primary(cfg.primary)
    for src, table in ((cfg.calib, calib_all), (cfg.primary, primary_all)):
        if cfg.metric not in table:
            raise InvalidValue(f"{src}: metric {cfg.metric!r} not present (has {sorted(table)})")
    calib = calib_all[cfg.metric]
    primary = primary_all[cfg.metric]
    bandwidth = _as_bandwidth(cfg.bandwidth)

    langs = sorted(set(calib.languages()) & set(primary.languages()))
    summaries = []
    out_dir = Path(cfg.out)
    for i, l1 in enumerate(langs):
        for l2 in langs[i + 1 :]:
            post = speedup.pair_posterior(calib, primary, l1, l2, bandwidth)
            summaries.append(speedup.summarize_pair((l1, l2), post, cfg.ci))
            if cfg.plots:
                name = f"{_safe_name(l1)}_vs_{_safe_name(l2)}.svg"
                chart = line_chart_svg(
                    [(f"{l1} vs {l2}", list(post.support), list(post.probs))],
                    f"Speedup posterior: {l1} vs {l2}",
                    "speedup ratio",
                    "probability",
                )
                _write_text(out_dir / "plots" / name, chart)

    rows = [
        [
            f"{s.pair[0]} vs {s.pair[1]}",
            _fmt6(s.ci.low),
            _fmt6(s.ci.high),
            _fmt6(s.median),
            _fmt6(s.mean),
            s.significance,
        ]
        for s in summaries
    ]
    _write_csv(
        out_dir / "summary.csv", ["pair", "ci_low", "ci_high", "median", "mean", "class"], rows
    )
    graph = speedup.relationship_graph(summaries)
    _write_text(out_dir / "graph.dot", speedup.graph_to_dot(graph))

    results = {
        "metric": cfg.metric,
        "languages": langs,
        "pairs": len(summaries),
        "summaries": [
            {
                "pair": list(s.pair),
                "ci": [s.ci.low, s.ci.high],
                "median": s.median,
                "mean": s.mean,
                "class": s.significance,
            }
            for s in summaries
        ],
    }
    return _write_report(
        out_dir, "compare-performance", cfg, [cfg.primary, cfg.calib], results
    )


def _fit_joint(bug_rows, prior, alpha_range, beta_range, grid):
    counts = [b.found_strong for b in bug_rows]
    return defects.fit_weibull_posterior(counts, prior, (alpha_range, beta_range, grid))


def run_fit_defects(cfg: FitDefectsConfig) -> dict:
    bugs = datasets.load_bug_counts(cfg.data)
    if not bugs:
        raise InvalidValue(f"{cfg.data}: no classes to fit")
    joint = _fit_joint(bugs, cfg.prior, cfg.alpha_range, cfg.beta_range, cfg.grid)
    marg_a = joint.marginal_x()
    marg_b = joint.marginal_y()
    map_a, map_b = joint.map_point()
    ci_a = marg_a.credible_interval(cfg.ci)
    ci_b = marg_b.credible_interval(cfg.ci)

    fit = {
        "prior": cfg.prior,
        "map": {"alpha": map_a, "beta": map_b},
        "marginal_mean": {"alpha": marg_a.mean(), "beta": marg_b.mean()},
        "marginal_median": {"alpha": marg_a.median(), "beta": marg_b.median()},
        "credible_interval": {
            "mass": cfg.ci,
            "alpha": [ci_a.low, ci_a.high],
            "beta": [ci_b.low, ci_b.high],
        },
    }

    picks = [
        ("low", ci_a.low, ci_b.low),
        ("map", map_a, map_b),
        ("high", ci_a.high, ci_b.high),
    ]
    if cfg.pareto_xmax is not None:
        fit["pareto"] = {
            "x_max": cfg.pareto_xmax,
            "fractions": {
                tag: defects.pareto_fraction(defects.WeibullParams(a, b), cfg.pareto_xmax)
                for tag, a, b in picks
            },
        }

    out_dir = Path(cfg.out)
    _write_text(out_dir / "weibull_fit.json", json.dumps(_jsonable(fit), indent=2, sort_keys=True) + "\n")
    _write_text(
        out_dir / "marginal_alpha.svg",
        line_chart_svg(
            [("scale posterior", list(marg_a.support), list(marg_a.probs))],
            "Marginal posterior of the Weibull scale",
            "alpha",
            "probability",
        ),
    )
    _write_text(
        out_dir / "marginal_beta.svg",
        line_chart_svg(
            [("shape posterior", list(marg_b.support), list(marg_b.probs))],
            "Marginal posterior of the Weibull shape",
            "beta",
            "probability",
        ),
    )
    x_hi = max(a * (np.log(100.0)) ** (1.0 / b) for _, a, b in picks)
    xs = np.linspace(0.0, float(x_hi), 200)
    series = [
        (f"{tag}: alpha={_fmt6(a)}, beta={_fmt6(b)}",
         xs.tolist(),
         [defects.weibull_cdf(float(x), defects.WeibullParams(a, b)) for x in xs])
        for tag, a, b in picks
    ]
    _write_text(
        out_dir / "cdf_fan.svg",
        line_chart_svg(series, "Fitted cumulative distributions", "bugs per class", "P[X <= x]"),
    )
    return _write_report(out_dir, "fit-defects", cfg, [cfg.data], fit)


def run_estimate_total_bugs(cfg: EstimateTotalBugsConfig) -> dict:
    bugs = datasets.load_bug_counts(cfg.data)
    if not bugs:
        raise InvalidValue(f"{cfg.data}: no classes to estimate")
    if (cfg.alpha is None) != (cfg.beta is None):
        raise InvalidValue("--alpha and --beta must be given together")
    if cfg.alpha is not None:
        params = defects.WeibullParams(cfg.alpha, cfg.beta)
    else:
        joint = _fit_joint(
            bugs, cfg.prior, defects.DEFAULT_ALPHA_RANGE, defects.DEFAULT_BETA_RANGE,
            defects.DEFAULT_GRID_STEPS,
        )
        map_a, map_b = joint.map_point()
        params = defects.WeibullParams(map_a, map_b)

    grid = defects.EffectivenessGrid(cfg.e_range, cfg.strong_range, cfg.e_steps, cfg.strong_steps)
    estimates = defects.estimate_class_totals(bugs, params, grid, cfg.nmax, cfg.ci)

    rows = [
        [e.class_id, _fmt6(e.median), _fmt6(e.ci_low), _fmt6(e.ci_high), _fmt6(e.per_method)]
        for e in estimates
    ]
    out_dir = Path(cfg.out)
    _write_csv(out_dir / "total_bugs.csv", ["class_id", "median", "ci_low", "ci_high", "per_method"], rows)

    results = {
        "alpha": params.alpha,
        "beta": params.beta,
        "classes": len(estimates),
        "rows": [
            {
                "class_id": e.class_id,
                "found": e.found,
                "median": e.median,
                "ci": [e.ci_low, e.ci_high],
                "per_method": e.per_method,
            }
            for e in estimates
        ],
    }
    return _write_report(out_dir, "estimate-total-bugs", cfg, [cfg.data], results)


def run_derived_plots(cfg: DerivedPlotsConfig) -> dict:
    bugs = datasets.load_bug_counts(cfg.data)
    if not bugs:
        raise InvalidValue(f"{cfg.data}: no classes to fit")
    joint = _fit_joint(
        bugs, cfg.prior, defects.DEFAULT_ALPHA_RANGE, defects.DEFAULT_BETA_RANGE,
        defects.DEFAULT_GRID_STEPS,
    )
    bins = cfg.bins if cfg.bins is not None else 100
    pmf = defects.derived_prob_at_most(cfg.at_most, joint, bins=bins)
    out_dir = Path(cfg.out)
    _write_text(
        out_dir / f"at_most_{cfg.at_most}.svg",
        line_chart_svg(
            [(f"at most {cfg.at_most} bugs", list(pmf.support), list(pmf.probs))],
            f"Posterior of P[class has at most {cfg.at_most} bugs]",
            "probability of at most N bugs",
            "posterior mass",
        ),
    )
    payload = {"at_most": cfg.at_most, "support": list(pmf.support), "mass": pmf.probs.tolist()}
    _write_text(
        out_dir / f"at_most_{cfg.at_most}.json",
        json.dumps(_jsonable(payload), indent=2, sort_keys=True) + "\n",
    )
    results = {"at_most": cfg.at_most, "bins": bins, "mean": pmf.mean()}
    return _write_report(out_dir, "derived-plots", cfg, [cfg.data], results)


# -- argument parsing ---------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bayeskit",
        description="Bayesian data analysis of project outcomes, benchmark speedups, and defect counts.",
    )
    sub = parser.add_subparsers(dest="command")

    def add_common(p):
        p.add_argument("--config", help="JSON file with defaults for these flags (flags win)")
        p.add_argument("--out", help="output directory (default: current directory)")

    p = sub.add_parser("compare-outcomes", help="Bayes factors for two-group categorical outcomes")
    add_common(p)
    p.add_argument("--data", help="outcomes CSV: project_id,group,raw_outcome|category")
    p.add_argument("--baselines", help="baseline CSV: category,k,probability")
    p.add_argument("--baseline-set", help="comma-separated baseline names (default: all in file)")
    p.add_argument("--scheme", help="comma-separated weight schemes (default: all four)")
    p.add_argument("--simplex-step", type=float, help="grid step for outcome distributions (default 0.05)")
    p.add_argument("--rescale-b", type=int, help="lower anchor for raw 1..10 rescaling (default 1)")
    p.add_argument("--rescale-r", type=int, help="number of category steps (default: from baselines)")
    p.add_argument("--hypothesis-group", help="group hypothesized better (default: first in file)")

    p = sub.add_parser("compare-performance", help="pairwise speedup posteriors from benchmarks")
    add_common(p)
    p.add_argument("--primary", help="primary CSV: language,task,metric,value")
    p.add_argument("--calib", help="calibration CSV: language,task,input_size,variant,metric,value")
    p.add_argument("--metric", choices=["time", "memory"], help="which metric to analyze (default time)")
    p.add_argument("--bandwidth", help="KDE bandwidth: auto or a number (default auto)")
    p.add_argument("--ci", type=float, help="credible-interval mass (default 0.95)")
    p.add_argument("--plots", action="store_true", default=None, help="also write per-pair posterior SVGs")

    p = sub.add_parser("fit-defects", help="Weibull posterior for per-class bug counts")
    add_common(p)
    p.add_argument("--data", help="bugs CSV: class_id,found_simple,found_strong,public_methods,loc")
    p.add_argument("--prior", choices=["uniform", "jeffreys"], help="parameter prior (default uniform)")
    p.add_argument("--alpha-range", help="scale grid bounds a,b (default 0.1,40)")
    p.add_argument("--beta-range", help="shape grid bounds a,b (default 0.1,3)")
    p.add_argument("--grid", help="grid resolution NxM (default 400x300)")
    p.add_argument("--ci", type=float, help="marginal credible-interval mass (default 0.9)")
    p.add_argument("--pareto-xmax", type=float, help="denominator for the 80%% concentration fraction")

    p = sub.add_parser("estimate-total-bugs", help="hierarchical total-bug estimates per class")
    add_common(p)
    p.add_argument("--data", help="bugs CSV: class_id,found_simple,found_strong,public_methods,loc")
    p.add_argument("--prior", choices=["uniform", "jeffreys"], help="prior for the internal fit")
    p.add_argument("--e-range", help="simple-spec effectiveness range lo,hi (default 0.15,0.5)")
    p.add_argument("--E-range", dest="strong_range", help="strong-spec effectiveness range lo,hi (default 0.7,0.95)")
    p.add_argument("--e-steps", type=int, help="grid steps on the e axis (default 8)")
    p.add_argument("--E-steps", dest="strong_steps", type=int, help="grid steps on the E axis (default 6)")
    p.add_argument("--nmax", type=int, help="cap on total bugs per class (default max(100, 10*found))")
    p.add_argument("--ci", type=float, help="credible-interval mass (default 0.9)")
    p.add_argument("--alpha", type=float, help="fix the Weibull scale instead of refitting")
    p.add_argument("--beta", type=float, help="fix the Weibull shape instead of refitting")

    p = sub.add_parser("derived-plots", help="posterior of P[class has at most N bugs]")
    add_common(p)
    p.add_argument("--data", help="bugs CSV: class_id,found_simple,found_strong,public_methods,loc")
    p.add_argument("--at-most", type=int, help="bug-count threshold N (default 5)")
    p.add_argument("--prior", choices=["uniform", "jeffreys"], help="parameter prior (default uniform)")
    p.add_argument("--bins", type=int, help="number of [0,1] bins for the derived pmf (default 100)")

    return parser


_REQUIRED = {
    "compare-outcomes": ("data", "baselines"),
    "compare-performance": ("primary", "calib"),
    "fit-defects": ("data",),
    "estimate-total-bugs": ("data",),
    "derived-plots": ("data",),
}


def _merge_config(command: str, args: argparse.Namespace) -> dict:
    merged: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        if not isinstance(file_cfg, dict):
            raise InvalidValue(f"{args.config}: config must be a JSON object")
        merged.update(file_cfg)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            merged[key] = value
    missing = [name for name in _REQUIRED[command] if not merged.get(name)]
    if missing:
        raise InvalidValue(f"{command}: missing required option(s): " + ", ".join(f"--{m}" for m in missing))
    return merged


def _config_for(command: str, args: argparse.Namespace):
    merged = _merge_config(command, args)
    if command == "compare-outcomes":
        merged["baseline_set"] = _as_names(merged.pop("baseline_set", None))
        scheme = merged.pop("scheme", None)
        if scheme is not None:
            names = _as_names(scheme)
            bad = [s for s in names if s not in outcomes.WEIGHT_SCHEMES]
            if bad:
                raise InvalidValue(f"unknown scheme(s) {bad}; expected {outcomes.WEIGHT_SCHEMES}")
            merged["schemes"] = names
        cls = CompareOutcomesConfig
    elif command == "compare-performance":
        if "bandwidth" in merged:
            merged["bandwidth"] = _as_bandwidth(merged["bandwidth"])
        cls = ComparePerformanceConfig
    elif command == "fit-defects":
        if "alpha_range" in merged:
            merged["alpha_range"] = _as_pair(merged["alpha_range"], float, "--alpha-range")
        if "beta_range" in merged:
            merged["beta_range"] = _as_pair(merged["beta_range"], float, "--beta-range")
        if "grid" in merged:
            merged["grid"] = _as_grid(merged["grid"], "--grid")
        cls = FitDefectsConfig
    elif command == "estimate-total-bugs":
        if "e_range" in merged:
            merged["e_range"] = _as_pair(merged["e_range"], float, "--e-range")
        if "strong_range" in merged:
            merged["strong_range"] = _as_pair(merged["strong_range"], float, "--E-range")
        cls = EstimateTotalBugsConfig
    else:
        cls = DerivedPlotsConfig
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(merged) - known)
    if unknown:
        raise InvalidValue(f"{command}: unknown option(s) {unknown}")
    return cls(**merged)


RUNNERS = {
    "compare-outcomes": run_compare_outcomes,
    "compare-performance": run_compare_performance,
    "fit-defects": run_fit_defects,
    "estimate-total-bugs": run_estimate_total_bugs,
    "derived-plots": run_derived_plots,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        cfg = _config_for(args.command, args)
        RUNNERS[args.command](cfg)
    except (AnalysisError, FileNotFoundError, ValueError) as exc:
        print(f"bayeskit: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
