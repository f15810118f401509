"""Grid-based Bayesian analysis of software project data.

Three pipelines on top of one discrete probability engine: Bayes-factor
comparison of categorical project outcomes, posterior speedup estimation
between languages from benchmark data, and Weibull/hierarchical estimation
of per-class defect counts.

The package imports lazily (PEP 562): ``import bayeskit`` loads no
submodule, and so no NumPy; a public name imports its submodule on first
use.  That lets `bayeskit.cli` configure NumPy's BLAS before NumPy loads.
"""

import importlib

#: the public names each submodule re-exports here
_EXPORTS = {
    "pmf": ("CredibleInterval", "JointPmf2D", "Pmf", "iterate_update", "mixture", "update"),
    "density": ("AUTO", "DensityGrid", "exclude_interval", "kde", "scott_bandwidth", "to_pmf"),
    "outcomes": (
        "BayesFactor",
        "OutcomeCounts",
        "OutcomeDistribution",
        "baseline_distribution",
        "bayes_factor",
        "better_than",
        "enumerate_simplex",
        "jeffreys_label",
        "likelihood_better",
        "likelihood_equal",
        "multinomial_pmf",
        "rescale_outcome",
        "scheme_weight",
    ),
    "speedup": (
        "BenchmarkDataset",
        "BenchmarkRecord",
        "ComparisonSummary",
        "RelationshipGraph",
        "calib_deltas",
        "calib_speedups",
        "classify",
        "compare_pair",
        "graph_to_dot",
        "primary_speedups",
        "ratio",
        "relationship_graph",
        "speedup_posterior",
    ),
    "defects": (
        "BugCounts",
        "EffectivenessGrid",
        "WeibullParams",
        "binomial_pmf",
        "class_total_bugs",
        "derived_prob_at_most",
        "effectiveness_posterior",
        "fit_weibull_posterior",
        "pareto_fraction",
        "total_bugs_posterior",
        "weibull_cdf",
        "weibull_pdf",
    ),
    "errors": (),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])

__version__ = "0.1.0"


def __getattr__(name):
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")  # binds it here as well
    if name in _HOME:
        value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
        globals()[name] = value
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
