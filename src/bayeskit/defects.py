"""Weibull modeling of per-class bug counts and hierarchical total-bug estimation.

Counts found by a strong testing configuration pin down a Weibull
shape/scale posterior on a 2-D grid, whose log-likelihood is built from the
distinct counts and their multiplicities.  Totals per class are then
estimated in two layers: for fixed detection effectiveness values (e, E) a
scaled-Weibull prior meets a binomial likelihood, and a second update over
an effectiveness grid absorbs the uncertainty about (e, E) into a posterior
mixture.  All (e, E) cells are one broadcast array, computed once per
distinct found count, and `estimate_class_totals` keeps each count's summary
in one `by_found` map that every class with that count reads.  Each formula
is written once, on arrays, the Weibull density's x = 0 convention included:
the scalar `weibull_pdf` (exp of the log density at every x >= 0, x = 0
included), `weibull_cdf` and `binomial_pmf` take that arithmetic at one point.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import AllZeroMass, InvalidProbability, InvalidValue, NonPositiveParams
from .pmf import JointPmf2D, Pmf, _check_memory, _check_steps, _logsumexp, _shift_exp

#: evaluation point standing in for x = 0 where the density diverges (shape < 1)
PDF_ZERO_EPS = 1e-12

PRIORS = ("uniform", "jeffreys")

DEFAULT_ALPHA_RANGE = (0.1, 40.0)
DEFAULT_BETA_RANGE = (0.1, 3.0)
DEFAULT_GRID_STEPS = (400, 300)

DEFAULT_E_RANGE = (0.15, 0.5)
DEFAULT_STRONG_RANGE = (0.7, 0.95)
DEFAULT_E_STEPS = (8, 6)


@dataclass(frozen=True)
class WeibullParams:
    """Scale alpha and shape beta, both positive and finite."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.beta < math.inf):
            raise NonPositiveParams(f"alpha and beta must be positive and finite, got {self}")


class _Record:
    """Equality of a frozen dataclass for a `NamedTuple` subclass.

    A record equals only records of its own type, never a plain tuple or
    another record type with the same values; it hashes as its tuple.  A
    subclass lists `_Record` first and sets ``__slots__ = ()``, so it keeps
    no instance dict and its fields stay read-only.  `_make`, and with it
    `_replace`, builds through the subclass's own `__new__`.
    """

    __slots__ = ()
    __hash__ = tuple.__hash__

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__ne__(self, other)
        return True if isinstance(other, tuple) else NotImplemented

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class _BugCountsFields(NamedTuple):
    class_id: str
    found_simple: int
    found_strong: int
    public_methods: int | None
    loc: int | None


class BugCounts(_Record, _BugCountsFields):
    """Bugs found in one class by the two testing configurations."""

    __slots__ = ()

    def __new__(
        cls,
        class_id: str,
        found_simple: int,
        found_strong: int,
        public_methods: int | None = None,
        loc: int | None = None,
    ):
        self = tuple.__new__(cls, (class_id, found_simple, found_strong, public_methods, loc))
        if found_simple < 0 or found_strong < 0:
            raise ValueError(f"bug counts must be nonnegative: {self}")
        if public_methods is not None and public_methods <= 0:
            raise ValueError(f"public method count must be positive: {self}")
        if loc is not None and loc <= 0:
            raise ValueError(f"loc must be positive: {self}")
        if max(found_simple, found_strong, public_methods or 0, loc or 0) > sys.float_info.max:
            raise ValueError(f"bug counts must not exceed the float range: {self}")
        return self


@dataclass(frozen=True)
class EffectivenessGrid:
    """Grid of detection-effectiveness pairs: e (simple specs) by E (strong specs).

    A degenerate axis (lo == hi) takes exactly one step, which is how the
    e = E = 1 sanity case is expressed.
    """

    e_range: tuple[float, float] = DEFAULT_E_RANGE
    strong_range: tuple[float, float] = DEFAULT_STRONG_RANGE
    e_steps: int = DEFAULT_E_STEPS[0]
    strong_steps: int = DEFAULT_E_STEPS[1]

    def __post_init__(self):
        axes = (("e", self.e_range, "e_steps"), ("E", self.strong_range, "strong_steps"))
        for axis, (lo, hi), name in axes:
            if not (0.0 < lo <= hi <= 1.0):
                raise InvalidProbability(
                    f"{axis} effectiveness range must satisfy 0 < lo <= hi <= 1, got ({lo}, {hi})"
                )
            steps = _check_steps(axis, lo, hi, getattr(self, name), InvalidProbability)
            object.__setattr__(self, name, steps)  # a whole float count becomes the int linspace needs

    def e_points(self) -> np.ndarray:
        return np.linspace(self.e_range[0], self.e_range[1], self.e_steps)

    def strong_points(self) -> np.ndarray:
        return np.linspace(self.strong_range[0], self.strong_range[1], self.strong_steps)


# -- Weibull primitives ----------------------------------------------------


def _weibull_log_pdf(x, params: WeibullParams) -> np.ndarray:
    """log pdf at x >= 0, log b - log a + (b - 1) log z - exp(b log z) with log z = log x - log a
    and the (b - 1) term 0 at b = 1, so no 0 * -inf arises; -inf where the power is beyond the
    float range.  At x = 0 that is -inf for b > 1 and log b - log a for b = 1; for b < 1, where
    the density diverges, x = 0 takes the value at PDF_ZERO_EPS, keeping grids finite."""
    a, b = params.alpha, params.beta
    if b < 1:
        x = np.where(x == 0, PDF_ZERO_EPS, x)
    with np.errstate(divide="ignore", over="ignore"):
        logz = np.log(x) - math.log(a)
        shape_term = (b - 1.0) * logz if b != 1 else 0.0
        return math.log(b) - math.log(a) + shape_term - np.exp(b * logz)


def _weibull_cdf(x, alpha, beta) -> np.ndarray:
    """1 - exp(-(x/alpha)^beta) at x >= 0, broadcast and built in place in one new array;
    1 where the power is beyond the float range."""
    with np.errstate(over="ignore"):
        values = np.power(np.divide(x, alpha), beta)
    np.negative(values, out=values)
    np.exp(values, out=values)
    return np.subtract(1.0, values, out=values)


def weibull_pdf(x: float, params: WeibullParams) -> float:
    """Weibull density (beta/alpha)(x/alpha)^(beta-1) exp(-(x/alpha)^beta); 0 for x < 0.

    At every x >= 0, x = 0 included, this is exp of `_weibull_log_pdf`, so at
    x = 0 it is 0 for beta > 1, 1/alpha for beta = 1 and the value at
    PDF_ZERO_EPS for beta < 1.  A density beyond the float range is refused.
    """
    a, b = params.alpha, params.beta
    if x < 0:
        return 0.0
    try:
        return math.exp(float(_weibull_log_pdf(x, params)))
    except OverflowError:
        raise NonPositiveParams(
            f"the Weibull density at x = {x!r} is beyond the float range at alpha = {a!r}, beta = {b!r}"
        ) from None


def weibull_cdf(x: float, params: WeibullParams) -> float:
    """P[X <= x] = 1 - exp(-(x/alpha)^beta); 0 for x <= 0."""
    if x <= 0:
        return 0.0
    # beta as an array, as on the grids: NumPy takes a scalar exponent of 0.5 as a square root
    return float(_weibull_cdf(np.array([x], dtype=float), params.alpha, np.array([params.beta]))[0])


def fit_weibull_posterior(counts, prior_kind: str = "uniform", grid=None) -> JointPmf2D:
    """Grid posterior over (alpha, beta) given per-class bug counts.

    Each count d contributes a likelihood factor pdf(d + 1); the shift by
    one lets zero-bug classes carry information.  `grid` is a triple
    ``(alpha_range, beta_range, (n_alpha, n_beta))`` and alpha is
    log-spaced.  The prior is flat or the reference prior proportional to
    1/(alpha*beta).

    With distinct shifted counts x of multiplicities m (N in total), the
    log-likelihood is N(log b - log a) + (b - 1)(sum m log x - N log a)
    - sum m (x/a)^b.  The last sum goes through a log-sum-exp over x, so it
    overflows only where a per-count sum would.  The grid terms are built in
    place, in that order, so at most two grid arrays are alive at once.
    """
    data = np.asarray([float(c) for c in counts])
    if not data.size:
        raise ValueError("need at least one bug count")
    if (data < 0).any():
        raise ValueError(f"bug counts must be nonnegative, got {counts!r}")
    if prior_kind not in PRIORS:
        raise ValueError(f"prior must be 'uniform' or 'jeffreys', got {prior_kind!r}")
    if grid is None:
        grid = (DEFAULT_ALPHA_RANGE, DEFAULT_BETA_RANGE, DEFAULT_GRID_STEPS)
    (a_lo, a_hi), (b_lo, b_hi), (n_a, n_b) = grid
    if not (0 < a_lo <= a_hi < math.inf and 0 < b_lo <= b_hi < math.inf):
        raise NonPositiveParams(
            f"bad parameter grid {grid!r}: bounds must be positive, finite and ordered"
        )
    n_a = _check_steps("alpha", a_lo, a_hi, n_a, NonPositiveParams)
    n_b = _check_steps("beta", b_lo, b_hi, n_b, NonPositiveParams)
    _check_memory("alpha x beta grid", (n_a, n_b), np.float64, NonPositiveParams)
    alphas = np.geomspace(a_lo, a_hi, n_a)
    log_a = np.log(alphas)[:, None]
    betas = np.linspace(b_lo, b_hi, n_b)

    x, m = np.unique(data + 1.0, return_counts=True)
    n, log_x = data.size, np.log(x)
    # log m + b log x, one row per beta
    log_power_sum = _logsumexp(np.log(m) + np.outer(betas, log_x), axis=1)
    log_b = np.log(betas)
    logw = np.subtract(log_b, log_a)
    logw *= n
    term = np.multiply(betas - 1.0, m @ log_x - n * log_a)
    logw += term
    np.multiply(betas, log_a, out=term)
    np.subtract(log_power_sum, term, out=term)
    # a power sum that overflows to inf is a likelihood of exactly 0 there
    with np.errstate(over="ignore"):
        logw -= np.exp(term, out=term)
    if prior_kind == "jeffreys":
        logw -= np.add(log_a, log_b, out=term)
    del term  # so only logw and its normalised copy are alive below
    return JointPmf2D.from_log_weights(alphas, betas, logw)


def _tail_point(params: WeibullParams, log_level: float) -> float:
    """alpha * log_level^(1/beta), where the cdf reaches 1 - exp(-log_level); inf beyond the float range."""
    try:
        return params.alpha * log_level ** (1.0 / params.beta)
    except OverflowError:  # log_level ** (1 / beta) beyond the float range
        return math.inf


def pareto_fraction(params: WeibullParams, x_max: float) -> float:
    """Fraction of `x_max` below which 80% of the distribution falls.

    cdf(b) = 0.8 solves to b = alpha * ln(5)^(1/beta); returns b / x_max.
    """
    if not 0 < x_max < math.inf:
        raise NonPositiveParams(f"x_max must be positive and finite, got {x_max!r}")
    fraction = _tail_point(params, math.log(5.0)) / x_max
    if not math.isfinite(fraction):
        raise NonPositiveParams(
            f"the 80% point over x_max = {x_max!r} is not finite at beta = {params.beta!r}"
        )
    return fraction


# -- hierarchical total-bug estimation --------------------------------------


def binomial_pmf(h: int, e: float, d: int) -> float:
    """Probability of d detections out of h bugs at per-bug detection rate e."""
    if not 0.0 < e <= 1.0:
        raise InvalidProbability(f"effectiveness must be in (0, 1], got {e!r}")
    if h < 0 or d < 0:
        raise ValueError(f"counts must be nonnegative, got h={h}, d={d}")
    return math.exp(_log_binomials(np.array([h]), [e], d)[0, 0])


def _log_factorials(ns: np.ndarray) -> np.ndarray:
    """log(n!) for each n of an integer vector, filled in place with no Python list."""
    return np.fromiter(map(math.lgamma, ns + 1.0), float, ns.size)


def _log_binomials(h: np.ndarray, e_pts: np.ndarray, d: int) -> np.ndarray:
    """log C(h, d) e^d (1-e)^(h-d), one row per rate e over an integer vector h; -inf where h < d.

    Each row holds the bits of the same float arithmetic done for its rate alone.
    """
    rates = [float(e) for e in e_pts]
    ok = h >= d
    hh = h[ok]
    log_coeff = _log_factorials(hh) - math.lgamma(d + 1) - _log_factorials(hh - d)
    head = np.array([d * math.log(e) for e in rates])
    log_miss = np.array([math.log1p(-e) if e < 1.0 else 0.0 for e in rates])
    tail = (hh - d) * log_miss[:, None]
    tail[np.array(rates) == 1.0] = np.where(hh == d, 0.0, -np.inf)  # a sure detection finds all
    out = np.full((len(rates), h.size), -np.inf)
    out[:, ok] = log_coeff + head[:, None] + tail
    return out


def _log_scaled_priors(params: WeibullParams, s_pts: np.ndarray, n_max: int) -> np.ndarray:
    """log pdf(h * s) for h = 0..n_max, one row per rate s: the priors over true totals."""
    return _weibull_log_pdf(np.arange(n_max + 1, dtype=float) * s_pts[:, None], params)


def total_bugs_posterior(
    params: WeibullParams, d: int, e: float, strong_e: float, n_max: int
) -> Pmf:
    """Posterior over a class's total bugs given d found at detection rate e.

    The prior over totals h follows the fitted Weibull evaluated at
    h * strong_e (the scale at which the fit's own detections were made);
    the likelihood of finding d of h bugs is binomial with rate e.
    """
    grid = EffectivenessGrid((e, e), (strong_e, strong_e), 1, 1)
    _, _, cells, _ = _total_bug_cells(params, d, grid, n_max)
    return Pmf(range(n_max + 1), cells[0, 0])


def _total_bug_cells(params: WeibullParams, d: int, grid: EffectivenessGrid, n_max: int):
    """Shared core: per-cell total posteriors plus the (e, E) log-likelihood.

    One broadcast over (e, E, h): each cell's posterior over h is its
    binomial row times its scaled-prior row, normalised along h, and the
    cell's likelihood is log sum_h binomial * posterior.  A cell where no
    total can produce the data is empty: its posterior row is all zeros and
    its log-likelihood -inf.  `AllZeroMass` only when every cell is empty.
    """
    if d < 0:
        raise ValueError(f"found-bug count must be nonnegative, got {d}")
    if n_max < d:
        raise ValueError(f"n_max={n_max} cannot be below the observed count {d}")
    shape = (grid.e_steps, grid.strong_steps, n_max + 1)
    _check_memory("e x E x total-bug grid", shape, np.float64, ValueError)
    e_pts = grid.e_points()
    s_pts = grid.strong_points()
    h = np.arange(n_max + 1)
    log_binom = _log_binomials(h, e_pts, d)
    log_prior = _log_scaled_priors(params, s_pts, n_max)
    if not np.isfinite(log_prior).any(axis=1).all():
        raise ValueError(f"n_max={n_max} leaves the Weibull prior no mass on totals 0..{n_max}")
    log_cells = log_binom[:, None, :] + log_prior[None, :, :]
    empty = log_cells.max(axis=2) == -np.inf
    if empty.all():
        raise AllZeroMass(
            f"found count {d} is impossible in every effectiveness cell with totals capped at {n_max}"
        )
    log_cells[empty] = 0.0  # a finite stand-in, so the shift does not raise; zeroed below
    cells = _shift_exp(log_cells, axis=2)
    del log_cells  # its shifted copy is all that is needed below
    cells /= cells.sum(axis=2, keepdims=True)
    cells[empty] = 0.0
    total = (np.exp(log_binom)[:, None, :] * cells).sum(axis=2)
    with np.errstate(divide="ignore"):
        loglik = np.log(total)
    return e_pts, s_pts, cells, loglik


def effectiveness_posterior(
    params: WeibullParams, d: int, grid: EffectivenessGrid, n_max: int
) -> JointPmf2D:
    """Posterior over (e, E) cells from a uniform prior.

    A cell's likelihood is the chance that testing at rate e finds d bugs
    when totals follow that very cell's total-bug posterior.
    """
    e_pts, s_pts, _, loglik = _total_bug_cells(params, d, grid, n_max)
    return JointPmf2D.from_log_weights(e_pts, s_pts, loglik)


def class_total_bugs(params: WeibullParams, d: int, grid: EffectivenessGrid, n_max: int) -> Pmf:
    """Total-bug estimate for one class: effectiveness-weighted posterior mixture."""
    _, _, cells, loglik = _total_bug_cells(params, d, grid, n_max)
    weights = _shift_exp(loglik)
    mix = np.tensordot(weights / weights.sum(), cells, axes=2)
    return Pmf(range(n_max + 1), mix)


def derived_prob_at_most(n: int, joint: JointPmf2D, bins: int | None = None) -> Pmf:
    """Distribution of cdf(n + 1) values induced by a parameter posterior.

    Each (alpha, beta) cell contributes its probability that a class has at
    most n bugs (under the same shift-by-one convention as the fit), weighted
    by the cell mass.  With `bins` the values are aggregated onto an even
    [0, 1] grid of bin centers; otherwise exact value spikes are returned,
    each distinct value's masses summed in cell order, as a dict would.  The
    values are built in place in one grid array; bins add one array of bin
    indices, spikes the arrays of `np.unique`'s sort and inverse.
    """
    if n < 0:
        raise ValueError(f"at-most count must be nonnegative, got {n}")
    if bins is not None and bins < 1:
        raise ValueError(f"bin count must be at least 1, got {bins}")
    try:
        shifted = n + 1.0
    except OverflowError:
        raise InvalidValue(f"at-most count {n!r} is too large for a float") from None
    values = _weibull_cdf(shifted, joint.x_grid[:, None], joint.y_grid[None, :])
    flat_vals = values.ravel()
    flat_mass = joint.probs.ravel()
    if bins is None:
        centers, idx = np.unique(flat_vals, return_inverse=True)
    else:
        _check_memory("grid of bin edges", (bins + 1,), np.float64, ValueError)
        edges = np.linspace(0.0, 1.0, bins + 1)
        centers = (edges[:-1] + edges[1:]) / 2.0
        idx = np.searchsorted(edges, flat_vals, side="right")
        idx -= 1
        np.clip(idx, 0, bins - 1, out=idx)
    mass = np.zeros(centers.size)
    np.add.at(mass, idx, flat_mass)
    return Pmf(centers, mass)


def default_n_max(d: int) -> int:
    """Per-class ceiling on total bugs: max(100, 10 * d)."""
    return max(100, 10 * d)


class _ClassEstimateFields(NamedTuple):
    class_id: str
    found: int
    median: float
    ci_low: float
    ci_high: float
    per_method: float | None


class ClassEstimate(_Record, _ClassEstimateFields):
    """Summary row for one class's total-bug posterior."""

    __slots__ = ()


class ClassEstimates(list):
    """`ClassEstimate` rows, one per class in input order.

    `by_found` maps each distinct found count to the summary its classes
    share: (median, ci_low, ci_high, cap, mass at cap), where the cap is
    `default_n_max(found)` or the given `n_max`; a large mass at the cap
    means the cap cuts the posterior off.
    """

    __slots__ = ("by_found",)


def estimate_class_totals(
    classes,
    params: WeibullParams,
    grid: EffectivenessGrid,
    n_max: int | None = None,
    ci_mass: float = 0.9,
) -> ClassEstimates:
    """Per-class total-bug summaries from simple-spec detection counts, one posterior per count."""
    out = ClassEstimates()
    out.by_found = by_found = {}
    for rec in classes:
        d = rec.found_simple
        if d not in by_found:
            cap = default_n_max(d) if n_max is None else n_max
            post = class_total_bugs(params, d, grid, cap)
            ci = post.credible_interval(ci_mass)
            by_found[d] = float(post.median()), float(ci.low), float(ci.high), cap, float(post.probs[-1])
        median, low, high, _, _ = by_found[d]
        per_method = median / rec.public_methods if rec.public_methods else None
        out.append(ClassEstimate(rec.class_id, d, median, low, high, per_method))
    return out
