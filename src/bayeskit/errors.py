"""Exception types shared across the analysis modules."""


class AnalysisError(Exception):
    """Base class for all errors raised by this package."""


# --- discrete probability engine ---------------------------------------


class AllZeroMass(AnalysisError):
    """Every weight is zero: the model assigns no probability to any point.

    Raised instead of silently falling back to a uniform distribution,
    since an all-zero posterior signals an impossible model/data pair.
    """


class NonNumericSupport(AnalysisError):
    """A numeric summary was requested for a pmf with non-numeric support."""


class InvalidMass(AnalysisError):
    """Requested interval mass is outside the open interval (0, 1)."""


# --- density estimation -------------------------------------------------


class EmptySamples(AnalysisError):
    """Kernel density estimation needs at least one sample."""


class InvalidGrid(AnalysisError):
    """Evaluation grid is malformed or captures no probability mass."""


class EverythingExcluded(AnalysisError):
    """Interval exclusion removed the entire support."""


# --- outcome comparison -------------------------------------------------


class OutOfRange(AnalysisError):
    """Raw outcome or rescaling parameter outside its documented bounds."""


class EmptyCategorySet(AnalysisError):
    """A baseline was requested for an empty set of categories."""


class DimensionMismatch(AnalysisError):
    """Outcome vectors of different lengths were combined."""


class InvalidStep(AnalysisError):
    """Simplex step does not evenly divide 1."""


class ZeroDenominator(AnalysisError):
    """Bayes factor denominator is zero."""


class NonPositiveK(AnalysisError):
    """Bayes factors are ratios of likelihoods and must be positive."""


# --- speedup analysis ---------------------------------------------------


class NonPositiveInput(AnalysisError):
    """Measurements entering a ratio must be strictly positive."""


class EmptyCalibration(AnalysisError):
    """No calibration speedups available for a language pair."""


class EmptyPrimary(AnalysisError):
    """No primary speedups available for a language pair."""


# --- defect analysis ----------------------------------------------------


class NonPositiveParams(AnalysisError):
    """Weibull parameters (and related scale inputs) must be positive and finite."""


class InvalidProbability(AnalysisError):
    """Effectiveness values must lie in (0, 1]."""


# --- dataset ingestion --------------------------------------------------


class SchemaMismatch(AnalysisError):
    """CSV header does not match the expected schema."""


class DuplicateKey(AnalysisError):
    """Two rows share a key that must be unique."""


class InvalidValue(AnalysisError):
    """A row holds a value outside its documented domain."""
