"""Grid-based Bayesian analysis of software project data.

Three pipelines on top of one discrete probability engine: Bayes-factor
comparison of categorical project outcomes, posterior speedup estimation
between languages from benchmark data, and Weibull/hierarchical estimation
of per-class defect counts.
"""

from .pmf import CredibleInterval, JointPmf2D, Pmf, iterate_update, mixture, update
from .density import AUTO, DensityGrid, exclude_interval, kde, scott_bandwidth, to_pmf
from .outcomes import (
    BayesFactor,
    OutcomeCounts,
    OutcomeDistribution,
    baseline_distribution,
    bayes_factor,
    better_than,
    enumerate_simplex,
    jeffreys_label,
    likelihood_better,
    likelihood_equal,
    multinomial_pmf,
    rescale_outcome,
    scheme_weight,
)
from .speedup import (
    BenchmarkDataset,
    BenchmarkRecord,
    ComparisonSummary,
    RelationshipGraph,
    calib_deltas,
    calib_speedups,
    classify,
    compare_pair,
    graph_to_dot,
    primary_speedups,
    ratio,
    relationship_graph,
    speedup_posterior,
)
from .defects import (
    BugCounts,
    EffectivenessGrid,
    WeibullParams,
    binomial_pmf,
    class_total_bugs,
    derived_prob_at_most,
    effectiveness_posterior,
    fit_weibull_posterior,
    pareto_fraction,
    total_bugs_posterior,
    weibull_cdf,
    weibull_pdf,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
