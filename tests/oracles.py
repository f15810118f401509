"""Independent reference implementations used to cross-check the library.

Everything here is deliberately written with the standard library only
(explicit loops, Fractions, math.factorial) so the oracles share no code
path with the package under test.  The one exception is
`gaussian_mixture_oracle`, the dense NumPy form of the Gaussian-kernel sum,
which the blocked kernel must reproduce bit for bit.
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
            post = [u / total for u in unnorm]
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
