"""Command-line front end: ingestion, analysis orchestration, and reports.

Every subcommand reads CSV inputs, runs one analysis pipeline, and writes
its tables/graphs/plots plus a `report.json` tying each number to the exact
parameters and input digests that produced it.  Nothing is written until the
analysis and its report have both succeeded.  All pipelines are
deterministic: identical inputs and flags give byte-identical outputs.
"""

from __future__ import annotations

import os

# OpenBLAS starts a worker thread when NumPy loads, and between a job's few
# small BLAS calls that worker spin-waits on a second core.  So a process
# that imports the CLI before NumPy loads OpenBLAS single-threaded, unless
# its caller chose a BLAS thread count; a plain `import bayeskit` is not
# affected, and neither are the kernel's own Python threads.
if not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & set(os.environ):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402 -- the BLAS setting above must come before NumPy loads
import json
import math
import re
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Callable

import numpy as np

from . import datasets, defects, outcomes, speedup
from .density import AUTO
from .errors import AnalysisError, InvalidValue, NonPositiveParams
from .plots import line_chart_svg

REPORT_NAME = "report.json"


# -- small serialization helpers --------------------------------------------


def _fmt6(x) -> str:
    """CSV number formatting: 6 significant digits."""
    if x is None:
        return ""
    return format(float(x), ".6g")


def _new_sha256():
    """An empty SHA-256 hash from CPython's built-in module, which maps no OpenSSL library.

    The module is `_sha2` on Python 3.12+ and `_sha256` before; a build
    without either gets `hashlib`'s.  All three give the same digests.
    """
    try:
        from _sha2 import sha256
    except ImportError:
        try:
            from _sha256 import sha256
        except ImportError:
            from hashlib import sha256
    return sha256()


def _sha256(path) -> str:
    digest = _new_sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_csv(files: dict, name: str, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(row) for row in rows)
    files[name] = "\n".join(lines) + "\n"


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _json(obj, newline: str = "\n") -> str:
    """The text of `json.dumps(obj, indent=2, sort_keys=True)` for what reports hold.

    Reports hold dicts with `str` keys, lists, tuples, `str`, `int`, `bool`,
    `None` and `float`; any other type raises `TypeError`.  `json.dumps`
    with an indent runs its pure-Python encoder; this does the same work with
    fewer calls, and leaves NaN and the infinities for `json` to spell.
    """
    kind = type(obj)
    if kind is str:
        return _quote(obj)
    if kind is float:
        return float.__repr__(obj) if obj - obj == 0 else json.dumps(obj)  # x - x is 0 if finite
    if kind is int:
        return int.__repr__(obj)
    if obj is None or kind is bool:
        return _JSON_CONSTANTS[obj]
    inner = newline + "  "
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return "[" + inner + ("," + inner).join([_json(v, inner) for v in obj]) + newline + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        for key in obj:
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
        items = [_quote(k) + ": " + _json(obj[k], inner) for k in sorted(obj)]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    # a subclass (NumPy's float64, an IntEnum) is written as its base type, whatever its __str__
    for base, exact in ((str, str.__str__), (int, int.__int__), (float, float.__float__)):
        if isinstance(obj, base):
            return _json(exact(obj))
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _write_json(files: dict, name: str, obj) -> None:
    files[name] = _json(obj) + "\n"


def _write_report(files: dict, command: str, cfg, results, warnings) -> None:
    parameters = asdict(cfg)
    parameters.pop("out", None)  # run placement, not analysis configuration
    # every required option is an input CSV
    inputs = [getattr(cfg, f.name) for f in fields(cfg) if f.default is MISSING]
    report = {
        "command": command,
        "parameters": parameters,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "results": results,
        "warnings": warnings,
    }
    _write_json(files, REPORT_NAME, report)


def _safe_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9.+-]", "_", name.replace("#", "sharp"))


def _plot_names(pairs) -> dict:
    """The SVG file name of each language pair; `InvalidValue` if two pairs would share one."""
    owners = {}
    for l1, l2 in pairs:
        name = f"{_safe_name(l1)}_vs_{_safe_name(l2)}.svg"
        if name in owners:
            o1, o2 = owners[name]
            raise InvalidValue(
                f"--plots: pairs {o1!r} vs {o2!r} and {l1!r} vs {l2!r} would both be written to {name}"
            )
        owners[name] = (l1, l2)
    return {pair: name for name, pair in owners.items()}


# -- options -----------------------------------------------------------------
#
# Each subcommand's config dataclass is the only declaration of its options.
# A field's metadata holds its help text and the parser that checks its value,
# whether the value comes as flag text or from a --config JSON file.


def _switch(text: str) -> bool:
    if text.lower() not in ("true", "false"):
        raise ValueError(text)
    return text.lower() == "true"


def _bandwidth(text: str):
    if text == AUTO:
        return AUTO
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(text)
    return value


def _names(text: str) -> tuple[str, ...]:
    names = tuple(n.strip() for n in text.split(",") if n.strip())
    if not names:
        raise InvalidValue(f"no name in {text!r}")
    if len(set(names)) < len(names):
        raise InvalidValue(f"repeated name in {text!r}")
    return names


@dataclass(frozen=True)
class _Pair:
    """Parser of two values joined by `sep` (in either case), each parsed by `cast`."""

    cast: Callable
    sep: str = ","

    def __call__(self, text: str) -> tuple:
        low, high = re.split(self.sep, text, flags=re.IGNORECASE)
        return self.cast(low), self.cast(high)


_pair = _Pair(float)
_grid = _Pair(int, "x")


def _as_text(value, parse, number=str) -> str:
    """The flag text for a value; lists and tuples join their items with the parser's `sep`."""
    if isinstance(value, (list, tuple)):
        return getattr(parse, "sep", ",").join(_as_text(v, parse, number) for v in value)
    return number(value) if isinstance(value, float) else str(value)


def _option(help, parse=str, default=MISSING, *, choices=(), flag=None, shown=None):
    """A config field that is also a flag; `shown` describes a default that is not a literal."""
    meta = {"help": help, "parse": parse, "choices": choices, "flag": flag, "shown": shown}
    return field(default=default, metadata=meta)


def _flag(f) -> str:
    return f.metadata["flag"] or "--" + f.name.replace("_", "-")


def _help(f) -> str:
    shown = f.metadata["shown"]
    if shown is None and f.default not in (MISSING, None):
        shown = _as_text(f.default, f.metadata["parse"], "{:g}".format)
    return f"{f.metadata['help']} (default: {shown})" if shown else f.metadata["help"]


def _parse_option(f, value):
    """Parse a flag's text, or a config value as the flag text that would give it."""
    parse, choices = f.metadata["parse"], f.metadata["choices"]
    try:
        parsed = parse(_as_text(value, parse))
    except ValueError:
        raise InvalidValue(f"{_flag(f)}: cannot parse {value!r} ({f.metadata['help']})") from None
    except InvalidValue as exc:
        raise InvalidValue(f"{_flag(f)}: {exc}") from None
    bad = [v for v in (parsed if isinstance(parsed, tuple) else (parsed,)) if v not in choices]
    if choices and bad:
        raise InvalidValue(f"{_flag(f)}: unknown value(s) {bad}; expected one of {choices}")
    return parsed


# -- subcommand configs ------------------------------------------------------

@dataclass(kw_only=True)
class _Common:
    out: str = _option("output directory", default=".", shown="current directory")


@dataclass
class CompareOutcomesConfig(_Common):
    data: str = _option("outcomes CSV: project_id,group,raw_outcome|category")
    baselines: str = _option("baseline CSV: category,k,probability")
    baseline_set: tuple[str, ...] | None = _option(
        "comma-separated baseline names", _names, None, shown="all in file"
    )
    schemes: tuple[str, ...] = _option(
        "comma-separated weight schemes", _names, outcomes.WEIGHT_SCHEMES,
        choices=outcomes.WEIGHT_SCHEMES, flag="--scheme",
    )
    simplex_step: float = _option("grid step for outcome distributions", float, 0.05)
    rescale_b: int = _option("lower anchor for raw 1..10 rescaling", int, 1)
    hypothesis_group: str | None = _option(
        "group hypothesized better", default=None, shown="first in file"
    )


@dataclass
class ComparePerformanceConfig(_Common):
    primary: str = _option("primary CSV: language,task,metric,value")
    calib: str = _option("calibration CSV: language,task,input_size,variant,metric,value")
    metric: str = _option("which metric to analyze", default="time", choices=("time", "memory"))
    bandwidth: object = _option("KDE bandwidth: auto or a positive number", _bandwidth, AUTO)
    ci: float = _option("credible-interval mass", float, 0.95)
    plots: bool = _option("also write per-pair posterior SVGs", _switch, False)


@dataclass
class _BugsConfig(_Common):
    data: str = _option("bugs CSV: class_id,found_simple,found_strong,public_methods,loc")
    prior: str = _option("Weibull parameter prior", default="uniform", choices=defects.PRIORS)
    alpha_range: tuple[float, float] = _option(
        "scale grid bounds a,b", _pair, defects.DEFAULT_ALPHA_RANGE
    )
    beta_range: tuple[float, float] = _option(
        "shape grid bounds a,b", _pair, defects.DEFAULT_BETA_RANGE
    )
    grid: tuple[int, int] = _option("grid resolution NxM", _grid, defects.DEFAULT_GRID_STEPS)


@dataclass
class FitDefectsConfig(_BugsConfig):
    ci: float = _option("marginal credible-interval mass", float, 0.9)
    pareto_xmax: float | None = _option(
        "denominator for the 80%% concentration fraction", float, None
    )


@dataclass
class EstimateTotalBugsConfig(_BugsConfig):
    e_range: tuple[float, float] = _option(
        "simple-spec effectiveness range lo,hi", _pair, defects.DEFAULT_E_RANGE
    )
    strong_range: tuple[float, float] = _option(
        "strong-spec effectiveness range lo,hi", _pair, defects.DEFAULT_STRONG_RANGE,
        flag="--E-range",
    )
    e_steps: int = _option("grid steps on the e axis", int, defects.DEFAULT_E_STEPS[0])
    strong_steps: int = _option(
        "grid steps on the E axis", int, defects.DEFAULT_E_STEPS[1], flag="--E-steps"
    )
    nmax: int | None = _option("cap on total bugs per class", int, None, shown="max(100, 10*found)")
    ci: float = _option("credible-interval mass", float, 0.9)


@dataclass
class DerivedPlotsConfig(_BugsConfig):
    at_most: int = _option("bug-count threshold N", int, 5)
    bins: int = _option("number of [0,1] bins for the derived pmf", int, 100)


# -- runners -----------------------------------------------------------------
#
# A runner computes its analysis, puts the text of each table and chart into
# `files` under its file name, and returns its report results and warnings.
# Only `main` touches the disk: it writes `files` once the report is built.


def _factor_fields(prefix: str, factor) -> dict:
    """A Bayes factor's report fields: its value, Jeffreys label and log10 (None at 0)."""
    # a factor below the float range underflows to 0.0 but keeps a finite log10
    return {
        f"{prefix}factor": float(factor),
        f"{prefix}label": outcomes.jeffreys_label(factor) if factor > 0 else "negative",
        f"log10_{prefix}factor": None if factor.log10 == -math.inf else factor.log10,
    }


def run_compare_outcomes(cfg: CompareOutcomesConfig, files: dict) -> tuple[dict, list]:
    table = datasets.load_outcomes(cfg.data)
    baselines = datasets.load_baselines(cfg.baselines)
    if not baselines:
        raise InvalidValue(f"{cfg.baselines}: no baseline distributions")
    k_values = {b.k for b in baselines.values()}
    if len(k_values) != 1:
        raise InvalidValue(f"baselines disagree on K: {sorted(k_values)}")
    k = k_values.pop()

    names = cfg.baseline_set or tuple(sorted(baselines))
    resolved, named = {}, {}
    for name in names:
        if name in baselines:
            key, resolved[name] = name, baselines[name]
        elif len(name) > 1 and all(ch in baselines for ch in name):
            # a composed name averages the sorted set of its letters: TT is T, and TAA is TA
            letters = "".join(sorted(set(name)))
            key = letters if len(letters) == 1 else ("composed", letters)
            resolved[name] = outcomes.baseline_distribution(letters, baselines)
        else:
            raise InvalidValue(f"unknown baseline {name!r} (not in file, not composable)")
        if key in named:
            raise InvalidValue(f"--baseline-set: {named[key]!r} and {name!r} name the same baseline")
        named[key] = name

    counts = table.to_counts(k, cfg.rescale_b, cfg.hypothesis_group)
    factors: dict[str, dict[str, dict]] = {}
    warnings = []
    for name in names:
        per = {}
        for scheme in cfg.schemes:
            factor = outcomes.bayes_factor(counts, resolved[name], scheme, cfg.simplex_step)
            if factor.log10 == -math.inf:
                # coarse grids can starve one hypothesis family of the data
                warnings.append(
                    f"factor for baseline {name!r}, scheme {scheme!r} is 0; "
                    f"consider a finer --simplex-step"
                )
            per[scheme] = {**_factor_fields("", factor),
                           **_factor_fields("normalised_", factor.normalised)}
        factors[name] = per

    for column, csv_name in (("factor", "outcome_factors.csv"),
                             ("normalised_factor", "outcome_factors_normalised.csv")):
        rows = [
            [scheme] + [_fmt6(factors[name][scheme][column]) for name in names]
            for scheme in cfg.schemes
        ]
        _write_csv(files, csv_name, ["scheme", *names], rows)
    _write_json(files, "outcome_factors.json", factors)
    results = {
        "groups": [counts.label_a, counts.label_b],
        "counts": {counts.label_a: counts.counts_a, counts.label_b: counts.counts_b},
        "factors": factors,
    }
    return results, warnings


def run_compare_performance(cfg: ComparePerformanceConfig, files: dict) -> tuple[dict, list]:
    calib_all = datasets.load_benchmarks(cfg.calib)
    primary_all = datasets.load_primary(cfg.primary)
    for src, table in ((cfg.calib, calib_all), (cfg.primary, primary_all)):
        if cfg.metric not in table:
            raise InvalidValue(f"{src}: metric {cfg.metric!r} not present (has {sorted(table)})")
    calib = calib_all[cfg.metric]
    primary = primary_all[cfg.metric]

    langs = sorted(set(calib.languages()) & set(primary.languages()))
    pairs = [(l1, l2) for i, l1 in enumerate(langs) for l2 in langs[i + 1 :]]
    plot_names = _plot_names(pairs) if cfg.plots else {}
    summaries = []
    for l1, l2 in pairs:
        post = speedup.pair_posterior(calib, primary, l1, l2, cfg.bandwidth)
        summaries.append(speedup.summarize_pair((l1, l2), post, cfg.ci))
        if cfg.plots:
            files["plots/" + plot_names[(l1, l2)]] = line_chart_svg(
                [(f"{l1} vs {l2}", post.points, post.probs)],
                f"Speedup posterior: {l1} vs {l2}",
                "speedup ratio",
                "probability",
            )

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
    _write_csv(files, "summary.csv", ["pair", "ci_low", "ci_high", "median", "mean", "class"], rows)
    files["graph.dot"] = speedup.graph_to_dot(speedup.relationship_graph(summaries))

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
    return results, []


def _load_bugs(cfg: _BugsConfig):
    bugs = datasets.load_bug_counts(cfg.data)
    if not bugs:
        raise InvalidValue(f"{cfg.data}: no classes")
    return bugs


#: mass in the first or last cell of a Weibull marginal, or in the last cell of a
#: total-bug posterior, above which that posterior is cut off at its grid's edge
_EDGE_MASS = 1e-3


def _fit_weibull(cfg: _BugsConfig, bugs) -> tuple:
    """The Weibull posterior of the classes' found-strong counts on the config's grid, and a
    warning per end of an axis whose marginal cell holds more than `_EDGE_MASS`."""
    joint = defects.fit_weibull_posterior(
        [b.found_strong for b in bugs], cfg.prior, (cfg.alpha_range, cfg.beta_range, cfg.grid)
    )
    warnings = []
    for axis, points, mass in (("alpha", joint.x_grid, joint.probs.sum(axis=1)),
                               ("beta", joint.y_grid, joint.probs.sum(axis=0))):
        for end, i in (("first", 0), ("last", -1)):
            if points.size > 1 and mass[i] > _EDGE_MASS:
                warnings.append(
                    f"Weibull {axis} posterior holds {float(mass[i]):.3g} in its {end} grid cell "
                    f"({axis} = {float(points[i]):g}): the fit is cut off at the grid's edge; "
                    f"widen --{axis}-range"
                )
    return joint, warnings


def run_fit_defects(cfg: FitDefectsConfig, files: dict) -> tuple[dict, list]:
    joint, warnings = _fit_weibull(cfg, _load_bugs(cfg))
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

    _write_json(files, "weibull_fit.json", fit)
    for axis, name, marg in (("alpha", "scale", marg_a), ("beta", "shape", marg_b)):
        files[f"marginal_{axis}.svg"] = line_chart_svg(
            [(f"{name} posterior", marg.points, marg.probs)],
            f"Marginal posterior of the Weibull {name}",
            axis,
            "probability",
        )
    x_hi = 0.0  # the largest 99% point of the three picks
    for tag, a, b in picks:
        x_99 = defects._tail_point(defects.WeibullParams(a, b), math.log(100.0))
        if not math.isfinite(x_99):
            raise NonPositiveParams(f"the CDF fan has no finite 99% point at the {tag} pick, beta = {b!r}")
        x_hi = max(x_hi, x_99)
    xs = np.linspace(0.0, x_hi, 200)
    series = [(f"{tag}: alpha={_fmt6(a)}, beta={_fmt6(b)}", xs, defects._weibull_cdf(xs, a, b))
              for tag, a, b in picks]
    files["cdf_fan.svg"] = line_chart_svg(
        series, "Fitted cumulative distributions", "bugs per class", "P[X <= x]"
    )
    return fit, warnings


def run_estimate_total_bugs(cfg: EstimateTotalBugsConfig, files: dict) -> tuple[dict, list]:
    bugs = _load_bugs(cfg)
    joint, warnings = _fit_weibull(cfg, bugs)
    params = defects.WeibullParams(*joint.map_point())

    grid = defects.EffectivenessGrid(cfg.e_range, cfg.strong_range, cfg.e_steps, cfg.strong_steps)
    estimates = defects.estimate_class_totals(bugs, params, grid, cfg.nmax, cfg.ci)
    for found, (*_, cap, mass) in sorted(estimates.by_found.items()):
        if mass > _EDGE_MASS:
            warnings.append(
                f"total-bug posterior of the classes with {found} found bugs holds {mass:.3g} "
                f"in its last cell (total = {cap}): the estimate is cut off at the cap; raise --nmax"
            )

    # classes with the same found count share their median and interval, so
    # those three cells are formatted once per count
    cells = {d: [_fmt6(x) for x in summary[:3]] for d, summary in estimates.by_found.items()}
    rows = [[e.class_id, *cells[e.found], _fmt6(e.per_method)] for e in estimates]
    _write_csv(files, "total_bugs.csv", ["class_id", "median", "ci_low", "ci_high", "per_method"], rows)

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
    return results, warnings


def run_derived_plots(cfg: DerivedPlotsConfig, files: dict) -> tuple[dict, list]:
    joint, warnings = _fit_weibull(cfg, _load_bugs(cfg))
    pmf = defects.derived_prob_at_most(cfg.at_most, joint, bins=cfg.bins)
    files[f"at_most_{cfg.at_most}.svg"] = line_chart_svg(
        [(f"at most {cfg.at_most} bugs", pmf.points, pmf.probs)],
        f"Posterior of P[class has at most {cfg.at_most} bugs]",
        "probability of at most N bugs",
        "posterior mass",
    )
    payload = {"at_most": cfg.at_most, "support": list(pmf.support), "mass": pmf.probs.tolist()}
    _write_json(files, f"at_most_{cfg.at_most}.json", payload)
    return {"at_most": cfg.at_most, "bins": cfg.bins, "mean": pmf.mean()}, warnings


# -- command line ------------------------------------------------------------

COMMANDS = {
    "compare-outcomes": (
        CompareOutcomesConfig, run_compare_outcomes,
        "Bayes factors for two-group categorical outcomes",
    ),
    "compare-performance": (
        ComparePerformanceConfig, run_compare_performance,
        "pairwise speedup posteriors from benchmarks",
    ),
    "fit-defects": (FitDefectsConfig, run_fit_defects, "Weibull posterior for per-class bug counts"),
    "estimate-total-bugs": (
        EstimateTotalBugsConfig, run_estimate_total_bugs,
        "hierarchical total-bug estimates per class",
    ),
    "derived-plots": (
        DerivedPlotsConfig, run_derived_plots, "posterior of P[class has at most N bugs]"
    ),
}


def _add_options(parser: argparse.ArgumentParser, cls) -> None:
    parser.add_argument("--config", help="JSON file with defaults for these flags (flags win)")
    for f in fields(cls):
        # values stay raw here: _config_for parses flags and config values alike
        kwargs = {"action": "store_const", "const": "true"} if f.metadata["parse"] is _switch else {}
        if f.metadata["choices"]:
            kwargs["metavar"] = "{" + ",".join(f.metadata["choices"]) + "}"
        parser.add_argument(_flag(f), dest=f.name, help=_help(f), **kwargs)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The `bayeskit` parser with every command, or with `command` alone under the same usage line."""
    parser = argparse.ArgumentParser(
        prog="bayeskit",
        description="Bayesian data analysis of project outcomes, benchmark speedups, and defect counts.",
        allow_abbrev=False,  # flags are spelled in full; an abbreviation is unrecognized
    )
    # an explicit prog spares argparse a usage line per call; the metavar names every command
    # in the usage line, and stays unset for the full parser, whose errors say `argument command`
    metavar = None if command is None else "{" + ",".join(COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", prog="bayeskit", metavar=metavar)
    for name in COMMANDS if command is None else [command]:
        cls, _, summary = COMMANDS[name]
        _add_options(sub.add_parser(name, help=summary, allow_abbrev=False), cls)
    return parser


def _parse_command(argv: list[str]) -> tuple[str | None, argparse.Namespace]:
    """The command named by `argv` and its flags; the command is None without one."""
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
    return args.command, args


def _config_for(command: str, args: argparse.Namespace):
    """The command's config: flags over the --config file, every value parsed by its field."""
    cls = COMMANDS[command][0]
    options = {f.name: f for f in fields(cls)}
    merged: dict = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                merged = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise InvalidValue(f"{args.config}: {exc}") from None
        if not isinstance(merged, dict):
            raise InvalidValue(f"{args.config}: config must be a JSON object")
    unknown = sorted(set(merged) - set(options))
    if unknown:
        raise InvalidValue(f"{command}: unknown option(s) {unknown}")
    merged.update((k, v) for k, v in vars(args).items() if k in options and v is not None)
    missing = [_flag(f) for f in options.values() if f.default is MISSING and not merged.get(f.name)]
    if missing:
        raise InvalidValue(f"{command}: missing required option(s): " + ", ".join(missing))
    return cls(**{k: _parse_option(options[k], v) for k, v in merged.items() if v is not None})


def main(argv=None) -> int:
    command, args = _parse_command(sys.argv[1:] if argv is None else list(argv))
    if command is None:
        return 2
    try:
        cfg = _config_for(command, args)
        files: dict[str, str] = {}
        results, warnings = COMMANDS[command][1](cfg, files)
        _write_report(files, command, cfg, results, warnings)  # added last, so written last
        for name, text in files.items():
            _write_text(Path(cfg.out) / name, text)
    except (AnalysisError, OSError, MemoryError, ValueError) as exc:
        print(f"bayeskit: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
