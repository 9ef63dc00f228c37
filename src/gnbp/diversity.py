"""Simpson's index of diversity: the unbiased sample estimate, the
model-based pair-distinctness probabilities (at fixed and at random
sample size), and order-statistics summaries of posterior draws.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .distributions import ZERO_DISCOUNT_TOL, ClusterSizes, Params
# Unused here, but perfbench/tracing.py wraps this name in this module.
from .distributions import sample_cluster_structure  # noqa: F401
from .partitions import LogRTable


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """16-node Gauss-Legendre nodes and weights mapped to [0, 1].

    Built on first use: the eigen-solve inside leggauss starts the BLAS
    library, about 0.7 MB of resident memory that commands without a
    diversity index need not pay.
    """
    nodes, weights = leggauss(16)
    return (nodes + 1.0) / 2.0, weights / 2.0


def simpson_sample_estimate(sizes: ClusterSizes) -> float:
    """Unbiased sample estimate 1 - sum_k n_k (n_k - 1) / (n (n - 1))."""
    n = sizes.n
    if n < 2:
        raise ValueError("the sample estimate needs at least two individuals")
    same_pairs = sum(s * (s - 1) for s in sizes.sizes)
    return 1.0 - same_pairs / (n * (n - 1))


def prob_distinct_pair(n: int, params: Params, rtable: LogRTable) -> float:
    """Probability that two elements of a size-n sample fall in different
    clusters: gamma0 p^{-a} R(2, 2) / R(1, 1).  Constant in n only at
    a = 0, where it equals gamma0 / (1 + gamma0)."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    if rtable.n != n or rtable.params != params:
        raise ValueError("R table does not match the requested (n, params)")
    if not (rtable.has_row(1) and rtable.has_row(2)):
        raise ValueError("R table must retain rows 1 and 2")
    log_unit = math.log(params.gamma0) - params.a * math.log(params.p)
    return math.exp(log_unit + rtable.entry(2, 2) - rtable.entry(1, 1))


def _log_ratio_at_drop(level: float, log_gq: float, a: float) -> float:
    """log r at which g (1 - p)^a phi(r) first reaches ``level``, where
    phi(r) = ((1 + r)^a - 1) / a (log1p(r) at a = 0) and exp(log_gq) is
    g (1 - p)^a; +inf when it never does (for a < 0, phi stays below -1/a)."""
    log_c = math.log(level) - log_gq
    if log_c > 700.0:
        return math.inf
    c = math.exp(log_c)
    if c < 1e-300:
        return log_c  # phi(r) = r to first order
    if abs(a) < ZERO_DISCOUNT_TOL:
        y = c
    elif a * c > -1.0:
        y = math.log1p(a * c) / a
    else:
        return math.inf
    return math.log(math.expm1(y)) if y < 700.0 else math.inf


def simpson_theta(params: Params) -> float:
    """Diversity index at fixed parameters with the sample size random,

        sum_{n>=2} P(distinct | n) p_N(n) / P(N >= 2),

    in closed form as S_theta = N / (N + M).  With the cluster
    exponential generating function f(x) = (1 - (1 - x)^a) / a,
    g = gamma0 p^-a and E(x) = exp(g f(x) - gamma0 kappa), marking two
    individuals splits the second derivative of exp(g f) into a
    "different blocks" term (g f')^2 and a "same block" term g f''
    (exp-formula; Flajolet & Sedgewick, Analytic Combinatorics, 2009), so

        N = int_0^p (p - x) g^2 (1 - x)^(2a - 2) E(x) dx,
        M = int_0^p (p - x) g (1 - a) (1 - x)^(a - 2) E(x) dx.

    Both are integrated in u = log t, t = p - x, by a 16-node
    Gauss-Legendre rule on unit panels.  The panels start 25 below the
    log of the smallest scale of the integrands: the peak width
    1 / (g (1 - p)^(a - 1)), the power-law scale (1 - p) / (4 - 2a), or p.
    They stop at p, or earlier where the exponent
    g (f(p) - f(x)) exceeds 52 plus twice the log-range above that scale,
    past which the integrands are below e^-50 of their peak.  Powers of
    g and 1 - p are kept as logarithms, so the rule stays finite at
    discounts far below zero.
    """
    gamma0, a, p = params.gamma0, params.a, params.p
    log_p, log_q = math.log(p), math.log1p(-p)
    log_g = math.log(gamma0) - a * log_p
    log_gq = log_g + a * log_q
    zero = abs(a) < ZERO_DISCOUNT_TOL

    log_s = min(log_p, log_q - log_gq, log_q - math.log(4.0 - 2.0 * a))
    u_lo = log_s - 25.0
    level = 52.0 + 2.0 * (log_p - log_s)
    u_hi = min(log_p, log_q + _log_ratio_at_drop(level, log_gq, a))
    panels = max(1, math.ceil(u_hi - u_lo))
    width = (u_hi - u_lo) / panels
    nodes, weights = _gauss_legendre()
    u = (u_lo + width * (np.arange(panels)[:, None] + nodes)).ravel()

    log_r = u - log_q  # r = t / (1 - p)
    r = np.exp(log_r)
    with np.errstate(over="ignore", divide="ignore"):
        phi = np.log1p(r) if zero else np.expm1(a * np.log1p(r)) / a
        log_phi = np.where(r > 1e-200, np.log(phi), log_r)
        drop = np.exp(log_gq + log_phi)  # g (f(p) - f(x)) = g (1 - p)^a phi(r)
    log_1mx = np.logaddexp(log_q, u)  # log(1 - x) = log(1 - p + t)
    # Log integrands of N / g and M / g in u, whose Jacobian adds one t.
    base = 2.0 * u - drop
    log_n = base + log_g + (2.0 * a - 2.0) * log_1mx
    log_m = base + math.log1p(-a) + (a - 2.0) * log_1mx
    ref = max(log_n.max(), log_m.max())
    n_part = float(np.sum(np.exp(log_n - ref).reshape(panels, -1) @ weights))
    m_part = float(np.sum(np.exp(log_m - ref).reshape(panels, -1) @ weights))
    return n_part / (n_part + m_part)


@dataclass(frozen=True)
class PosteriorSummary:
    """Order-statistics summary of a set of posterior draws."""

    mean: float
    median: float
    lo50: float
    hi50: float
    lo95: float
    hi95: float

    def covers50(self, value: float) -> bool:
        return self.lo50 <= value <= self.hi50

    def covers95(self, value: float) -> bool:
        return self.lo95 <= value <= self.hi95


def summarize(values) -> PosteriorSummary:
    """Mean, median, and central 50% / 95% ranges with linear
    interpolation between order statistics."""
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot summarize an empty set of draws")
    lo95, lo50, med, hi50, hi95 = np.percentile(arr, [2.5, 25.0, 50.0, 75.0, 97.5])
    return PosteriorSummary(
        mean=float(np.mean(arr)),
        median=float(med),
        lo50=float(lo50),
        hi50=float(hi50),
        lo95=float(lo95),
        hi95=float(hi95),
    )


def posterior_simpson(draws) -> PosteriorSummary:
    """Summarize diversity values from posterior draws.

    Accepts an iterable of plain values or of (params, value) pairs.
    """
    values = []
    for d in draws:
        if isinstance(d, (tuple, list)):
            values.append(float(d[1]))
        else:
            values.append(float(d))
    return summarize(values)
