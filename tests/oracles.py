"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with the standard library only
(explicit loops, Fractions, math.factorial) so the oracles share no code
path with the package under test.  The one exception is
`gaussian_mixture_oracle`, the dense NumPy form of the Gaussian-kernel sum,
which the blocked kernel must reproduce bit for bit.  (The speedup posterior
oracles take the package's prior and supply their own likelihood.)
"""

from __future__ import annotations

import math
from fractions import Fraction


# -- pmf summaries -----------------------------------------------------------


def quantile_oracle(pairs, q: Fraction):
    """Smallest point whose cumulative (exact) mass reaches q."""
    total = sum(w for _, w in pairs)
    cum = Fraction(0)
    for point, weight in sorted(pairs):
        cum += Fraction(weight) / total
        if cum >= q:
            return point
    return sorted(pairs)[-1][0]


def interval_oracle(pairs, mass: Fraction):
    """Equal-tailed interval by explicit cumulative sums."""
    tail = (1 - mass) / 2
    return quantile_oracle(pairs, tail), quantile_oracle(pairs, 1 - tail)


# -- outcome comparison -------------------------------------------------------


def multinomial_oracle(counts, probs) -> float:
    n = sum(counts)
    coeff = math.factorial(n)
    for c in counts:
        coeff //= math.factorial(c)
    value = float(coeff)
    for c, p in zip(counts, probs):
        value *= float(p) ** c
    return value


def simplex_oracle(k: int, step: float):
    """All K-vectors of multiples of `step` summing to 1, as Fraction tuples."""
    n = round(1.0 / step)
    out = []

    def rec(prefix, remaining):
        if len(prefix) == k - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for c in range(remaining + 1):
            rec(prefix + [c], remaining - c)

    rec([], n)
    return [tuple(Fraction(c, n) for c in comp) for comp in out]


def _mean(probs):
    return sum(i * p for i, p in enumerate(probs))


def _weight(probs, baseline, scheme):
    delta = abs(float(_mean(probs)) - float(_mean(baseline)))
    if scheme == "uniform":
        return 1.0
    if scheme == "triangle":
        return max(0.0, 1.0 - delta / (len(probs) - 1))
    if scheme == "power":
        return 1.0 / (1.0 + delta)
    if scheme == "exp":
        return math.exp(-delta)
    raise ValueError(scheme)


def bayes_factor_oracle(counts_a, counts_b, baseline, scheme, step) -> float:
    """Brute-force Bayes factor: explicit sums over the whole grid family.

    `baseline` is given as exact Fractions so the better/tied split never
    hinges on floating-point rounding.
    """
    base_mean = _mean(baseline)
    better_a = tied_or_worse_b = all_a = all_b = 0.0
    for probs in simplex_oracle(len(counts_a), step):
        w = _weight(probs, baseline, scheme)
        m_a = w * multinomial_oracle(counts_a, probs)
        m_b = w * multinomial_oracle(counts_b, probs)
        if _mean(probs) > base_mean:
            better_a += m_a
        else:
            tied_or_worse_b += m_b
        all_a += m_a
        all_b += m_b
    return (better_a * tied_or_worse_b) / (all_a * all_b)


def _log10_exact(x: Fraction) -> float:
    return math.log10(x.numerator) - math.log10(x.denominator) if x else -math.inf


def log10_bayes_factor_oracle(counts_a, counts_b, baseline, scheme, step) -> float:
    """log10 of the Bayes factor from exact rational sums over the whole grid.

    Multinomial masses are Fractions built from integer factorials, and each
    weight is the exact rational value of its float, so the sums never
    underflow; only the final numerator and denominator go through log10.
    """
    base_mean = _mean(baseline)
    better_a = tied_or_worse_b = all_a = all_b = Fraction(0)
    for probs in simplex_oracle(len(counts_a), step):
        w = Fraction(_weight(probs, baseline, scheme))
        masses = []
        for counts in (counts_a, counts_b):
            coeff = math.factorial(sum(counts))
            for c in counts:
                coeff //= math.factorial(c)
            mass = w * coeff
            for c, p in zip(counts, probs):
                mass *= p**c
            masses.append(mass)
        m_a, m_b = masses
        if _mean(probs) > base_mean:
            better_a += m_a
        else:
            tied_or_worse_b += m_b
        all_a += m_a
        all_b += m_b
    return _log10_exact(better_a * tied_or_worse_b) - _log10_exact(all_a * all_b)


def normalised_factor_oracle(counts_a, counts_b, baseline, scheme, step) -> Fraction:
    """The normalised Bayes factor as an exact rational.

    It is the paper's factor divided by W(better) W(not better) / W(all)^2,
    where W(R) sums the weights over region R of the grid.  Masses are exact
    as in `log10_bayes_factor_oracle`.  It is 0 where no weighted grid
    distribution is better than the baseline.
    """
    base_mean = _mean(baseline)
    better_a = tied_or_worse_b = all_a = all_b = w_better = w_rest = Fraction(0)
    for probs in simplex_oracle(len(counts_a), step):
        w = Fraction(_weight(probs, baseline, scheme))
        m_a, m_b = (w * _multinomial_exact(counts, probs) for counts in (counts_a, counts_b))
        if _mean(probs) > base_mean:
            better_a += m_a
            w_better += w
        else:
            tied_or_worse_b += m_b
            w_rest += w
        all_a += m_a
        all_b += m_b
    if not w_better:
        return Fraction(0)
    prior_mass = w_better * w_rest / (w_better + w_rest) ** 2
    return better_a * tied_or_worse_b / (all_a * all_b) / prior_mass


def _multinomial_exact(counts, probs) -> Fraction:
    coeff = math.factorial(sum(counts))
    for c in counts:
        coeff //= math.factorial(c)
    mass = Fraction(coeff)
    for c, p in zip(counts, probs):
        mass *= p**c
    return mass


# -- outcome rescaling ----------------------------------------------------------


def rescale_oracle(raw: int, b: int, r: int) -> int:
    """Category of the anchor b + k(10 - b)/r nearest raw, exact; ties to the smaller k."""
    gaps = [abs(Fraction(b) + Fraction(k * (10 - b), r) - raw) for k in range(r + 1)]
    return gaps.index(min(gaps))


# -- deterministic random stream ------------------------------------------------


def lcg_uniforms(seed: int, n: int) -> list[float]:
    """Fixed 32-bit linear congruential stream mapped to [0, 1)."""
    state = seed & 0xFFFFFFFF
    out = []
    for _ in range(n):
        state = (1664525 * state + 1013904223) & 0xFFFFFFFF
        out.append(state / 2**32)
    return out


def weibull_inverse_cdf(u: float, alpha: float, beta: float) -> float:
    return alpha * (-math.log(1.0 - u)) ** (1.0 / beta)


# -- speedup scatter -------------------------------------------------------------


def ratio_oracle(a: float, b: float) -> float:
    big, small = max(a, b), min(a, b)
    return (1.0 if a > b else -1.0) * big / small


def deltas_oracle(values: dict, lang1: str, lang2: str) -> list[float]:
    """Exhaustive speedup scatter over a {(lang, task, size, variant): value} table."""
    tasks = sorted(
        {t for (l, t, _, _) in values if l == lang1} & {t for (l, t, _, _) in values if l == lang2}
    )
    out = []
    for task in tasks:
        sizes1 = {n for (l, t, n, _) in values if l == lang1 and t == task}
        sizes2 = {n for (l, t, n, _) in values if l == lang2 and t == task}
        common = sorted(sizes1 & sizes2)
        if not common:
            continue
        top = max(common)
        best1 = min(v for (l, t, n, _), v in values.items() if l == lang1 and t == task and n == top)
        best2 = min(v for (l, t, n, _), v in values.items() if l == lang2 and t == task and n == top)
        ref = ratio_oracle(best1, best2)
        for n in common:
            left = sorted(
                (variant, v) for (l, t, sz, variant), v in values.items()
                if l == lang1 and t == task and sz == n
            )
            right = sorted(
                (variant, v) for (l, t, sz, variant), v in values.items()
                if l == lang2 and t == task and sz == n
            )
            for _, v1 in left:
                for _, v2 in right:
                    out.append(ratio_oracle(v1, v2) - ref)
    return out


# -- hierarchical defect estimation -----------------------------------------------


def weibull_pdf_oracle(x: float, alpha: float, beta: float) -> float:
    if x < 0:
        return 0.0
    if x == 0:
        if beta > 1:
            return 0.0
        if beta == 1:
            return 1.0 / alpha
        x = 1e-12
    return (beta / alpha) * (x / alpha) ** (beta - 1.0) * math.exp(-((x / alpha) ** beta))


def class_totals_oracle(alpha, beta, d, e_points, strong_points, n_max):
    """Triple-loop total-bug mixture: returns (cell posteriors, cell weights, mixture).

    cell posteriors: dict (i, j) -> list of n_max + 1 probabilities;
    cell weights:    dict (i, j) -> posterior mass of that (e, E) cell;
    mixture:         list of n_max + 1 probabilities.
    """
    cells = {}
    raw_lik = {}
    for i, e in enumerate(e_points):
        for j, strong in enumerate(strong_points):
            unnorm = []
            for h in range(n_max + 1):
                prior = weibull_pdf_oracle(h * strong, alpha, beta)
                lik = math.comb(h, d) * e**d * (1.0 - e) ** (h - d) if h >= d else 0.0
                unnorm.append(prior * lik)
            total = sum(unnorm)
            # a cell where no total can produce the data is empty: it gets no posterior mass
            post = [u / total for u in unnorm] if total else [0.0] * (n_max + 1)
            cells[(i, j)] = post
            raw_lik[(i, j)] = sum(
                (math.comb(h, d) * e**d * (1.0 - e) ** (h - d) if h >= d else 0.0) * post[h]
                for h in range(n_max + 1)
            )
    lik_total = sum(raw_lik.values())
    weights = {key: lik / lik_total for key, lik in raw_lik.items()}
    mixture = [
        sum(weights[key] * cells[key][n] for key in cells) for n in range(n_max + 1)
    ]
    return cells, weights, mixture


def weibull_fit_oracle(counts, prior_kind, grid):
    """Grid posterior over (alpha, beta) by explicit loops over cells and counts.

    Each count d adds log pdf(d + 1) to each cell, the prior is flat or
    1/(alpha*beta), and the weights are normalised after shifting by the
    largest log-weight.  The density is taken from `weibull_pdf_oracle`;
    where it underflows to 0 the same density is spelled out in log form,
    so likelihoods far below the float range still rank the cells.
    Returns a list of rows, one per alpha.
    """
    (a_lo, a_hi), (b_lo, b_hi), (n_a, n_b) = grid
    alphas = [a_lo * (a_hi / a_lo) ** (i / (n_a - 1)) if n_a > 1 else a_lo for i in range(n_a)]
    betas = [b_lo + (b_hi - b_lo) * j / (n_b - 1) if n_b > 1 else b_lo for j in range(n_b)]
    logw = []
    for alpha in alphas:
        row = []
        for beta in betas:
            total = -math.log(alpha * beta) if prior_kind == "jeffreys" else 0.0
            for d in counts:
                x = d + 1.0
                pdf = weibull_pdf_oracle(x, alpha, beta)
                if pdf > 0:
                    total += math.log(pdf)
                else:
                    total += math.log(beta / alpha) + (beta - 1.0) * math.log(x / alpha) - (x / alpha) ** beta
            row.append(total)
        logw.append(row)
    top = max(max(row) for row in logw)
    weights = [[math.exp(v - top) for v in row] for row in logw]
    norm = math.fsum(w for row in weights for w in row)
    return [[w / norm for w in row] for row in weights]


def gaussian_mixture_oracle(points, samples, bandwidth: float):
    """Kernel sums from one dense point-by-sample matrix, as first written."""
    import numpy as np

    x = np.atleast_1d(np.asarray(points, dtype=float))
    s = np.asarray(samples, dtype=float)
    z = (x[:, None] - s[None, :]) / bandwidth
    return np.exp(-0.5 * z * z).sum(axis=1)


def speedup_posterior_dense_oracle(primary, calib, deltas, grid_spec, bandwidth, delta_bandwidth):
    """The speedup posterior with the likelihood evaluated on every grid column.

    The prior and the normalisation are the package's; the kernel sums are
    `gaussian_mixture_oracle`'s, one primary datum at a time, and their logs
    are added to the log prior in data order, zero-prior columns included.
    """
    import numpy as np

    from bayeskit.density import exclude_interval, kde, to_pmf
    from bayeskit.pmf import Pmf

    prior = to_pmf(exclude_interval(kde(calib, bandwidth, grid_spec), -1.0, 1.0, half_open=True))
    support = np.asarray(prior.support, dtype=float)
    with np.errstate(divide="ignore"):
        log_post = np.log(prior.probs)
        for d in primary:
            log_post += np.log(gaussian_mixture_oracle(float(d) - support, deltas, delta_bandwidth))
    return Pmf.from_log_weights(prior.support, log_post)


def log_kernel_sum_oracle(x: float, samples, bandwidth: float) -> float:
    """log sum_i exp(-0.5 z_i**2), z_i = (x - s_i) / bandwidth, in Python floats.

    The terms are shifted by the largest before `exp` and added by
    `math.fsum`, so a sum far below the float range still has its log.
    """
    q = [-0.5 * (z * z) for z in ((x - s) / bandwidth for s in samples)]
    top = max(q)
    return top + math.log(math.fsum(math.exp(v - top) for v in q))


def speedup_posterior_log_oracle(primary, calib, deltas, grid_spec, bandwidth, delta_bandwidth):
    """The speedup posterior's masses with every kernel sum from `log_kernel_sum_oracle`.

    The prior is the package's; a column it gives no mass keeps none.  Log
    weights are shifted by their maximum, exponentiated and normalised by
    `math.fsum`.  Returns the masses as a list, one per grid point.
    """
    from bayeskit.density import exclude_interval, kde, to_pmf

    prior = to_pmf(exclude_interval(kde(calib, bandwidth, grid_spec), -1.0, 1.0, half_open=True))
    logw = []
    for h, p in zip(prior.support, prior.probs.tolist()):
        v = math.log(p) if p > 0 else -math.inf
        for d in primary if p > 0 else ():
            v += log_kernel_sum_oracle(float(d) - h, deltas, delta_bandwidth)
        logw.append(v)
    top = max(logw)
    weights = [math.exp(v - top) for v in logw]
    norm = math.fsum(weights)
    return [w / norm for w in weights]


def compositions_oracle(k: int, n: int):
    """All K-tuples of nonnegative integers summing to n, lexicographic, by recursion."""
    if k == 1:
        return [(n,)]
    return [(c,) + rest for c in range(n + 1) for rest in compositions_oracle(k - 1, n - c)]
