"""Count distributions and generative samplers of the generalized
negative binomial process (gNBP).

A cluster structure under this model has a Poisson distributed number of
clusters whose sizes are iid truncated negative binomial; the total count
then follows the generalized negative binomial distribution.  For a
strictly negative discount the same structure can alternatively be grown
from a finite-atom completely random measure thinned by Poisson counts,
which this module exposes as an independent sampling route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core_math import LogStirlingTable, log_gamma, log_gamma_ratio, log_sum_exp

# Discounts within this tolerance of zero are routed through the analytic
# a -> 0 limits; the raw formulas contain 1/a and Gamma(-a) factors that
# blow up numerically although the model itself is regular at a = 0.
ZERO_DISCOUNT_TOL = 1e-8


@dataclass(frozen=True)
class Params:
    """Model triple: mass gamma0 > 0, discount a < 1, probability p in (0, 1).

    The generalized gamma scale is derived, c = (1 - p) / p.
    """

    gamma0: float
    a: float
    p: float

    def __post_init__(self):
        object.__setattr__(self, "gamma0", float(self.gamma0))
        object.__setattr__(self, "a", float(self.a))
        object.__setattr__(self, "p", float(self.p))
        if not self.gamma0 > 0.0:
            raise ValueError(f"gamma0 must be positive, got {self.gamma0}")
        if not self.a < 1.0:
            raise ValueError(f"discount must satisfy a < 1, got {self.a}")
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"p must lie in (0, 1), got {self.p}")


@dataclass(frozen=True)
class ClusterSizes:
    """Sizes (n_1, ..., n_l) of a cluster structure; n = sum, l = count."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(map(int, self.sizes))
        object.__setattr__(self, "sizes", sizes)
        if sizes and min(sizes) < 1:
            raise ValueError("cluster sizes must be positive integers")

    @cached_property
    def n(self) -> int:
        return sum(self.sizes)

    @property
    def l(self) -> int:
        return len(self.sizes)

    @cached_property
    def size_multiplicities(self) -> tuple[np.ndarray, np.ndarray]:
        """Unique sizes and their multiplicities, ascending; computed once
        per instance and returned read-only."""
        uniq, mult = np.unique(np.asarray(self.sizes, dtype=int), return_counts=True)
        uniq.flags.writeable = False
        mult.flags.writeable = False
        return uniq, mult


def log_size_product(sizes: ClusterSizes, a):
    """log prod_k Gamma(n_k - a) / Gamma(1 - a), summed over the distinct
    sizes s with multiplicities m as -l LG(1 - a) + sum_s m LG(s - a).

    LG is math.lgamma for a scalar a and core_math.log_gamma for an array
    of discounts.  Every argument is at least 1 - a > 0, so every term is
    finite.
    """
    lg = log_gamma if isinstance(a, np.ndarray) else math.lgamma
    uniq, mult = sizes.size_multiplicities
    total = -sizes.l * lg(1.0 - a)
    for s, m in zip(uniq.tolist(), mult.tolist()):
        total += m * lg(s - a)
    return total


def kappa_formula(xp, a, log_p, log_q):
    """kappa(a, p) for a != 0 from log_p = log p and log_q = log(1 - p),
    with xp = math or numpy; see :func:`kappa_ap`."""
    return xp.exp(a * (log_q - log_p)) * xp.expm1(-a * log_q) / a


def kappa_ap(a, p):
    """(1 - (1 - p)^a) / (a p^a) by the one formula

        exp(a (log(1 - p) - log p)) * expm1(-a log(1 - p)) / a,

    with :mod:`math` for a float pair (an overflow gives inf) and with
    numpy for arrays, broadcast over a and p.  The second factor over a
    is positive for every a != 0, so nothing cancels; only the first,
    ((1 - p) / p)^a, can leave the double range, and only for very
    negative a.  Within ZERO_DISCOUNT_TOL of a = 0 the limit
    -log(1 - p) is substituted.
    """
    if isinstance(a, (int, float)) and isinstance(p, (int, float)):
        log_q = math.log1p(-p)
        if abs(a) < ZERO_DISCOUNT_TOL:
            return -log_q
        try:
            return kappa_formula(math, a, math.log(p), log_q)
        except OverflowError:
            return math.inf
    a, p = np.asarray(a, dtype=float), np.asarray(p, dtype=float)
    log_q = np.log1p(-p)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        formula = kappa_formula(np, a, np.log(p), log_q)
        out = np.where(np.abs(a) < ZERO_DISCOUNT_TOL, -log_q, formula)
    return float(out) if out.ndim == 0 else out


def kappa(params: Params) -> float:
    """Per-unit-mass rate of occupied clusters: l ~ Poisson(gamma0 * kappa)."""
    return kappa_ap(params.a, params.p)


def log_weighted_stirling_sum(n: int, params: Params, stirling: LogStirlingTable) -> float:
    """log sum_{l=0}^{n} gamma0^l p^{-a l} S_a(n, l).

    This is both the inner sum of the generalized negative binomial PMF
    and the normalizing constant of the conditional cluster-count law.
    """
    if stirling.a != params.a:
        raise ValueError(
            f"Stirling table discount {stirling.a} does not match params.a {params.a}"
        )
    if n == 0:
        return 0.0
    row = stirling.row(n)
    l = np.arange(n + 1, dtype=float)
    w = l * (math.log(params.gamma0) - params.a * math.log(params.p)) + row
    return log_sum_exp(w)


def gnb_log_pmf(n: int, params: Params, stirling: LogStirlingTable) -> float:
    """Log PMF of the generalized negative binomial distribution at n >= 0:

        p_N(n) = (p^n / n!) e^{-gamma0 kappa} sum_l gamma0^l p^{-a l} S_a(n, l)
    """
    if n < 0:
        raise ValueError(f"count must be nonnegative, got {n}")
    return (
        n * math.log(params.p)
        - math.lgamma(n + 1)
        - params.gamma0 * kappa(params)
        + log_weighted_stirling_sum(n, params, stirling)
    )


def gnb_mean(params: Params) -> float:
    """Mean of the generalized negative binomial: gamma0 (p/(1-p))^(1-a)."""
    return params.gamma0 * (params.p / (1.0 - params.p)) ** (1.0 - params.a)


def tnb_log_pmf(u: int, a: float, p: float) -> float:
    """Log PMF of the truncated negative binomial cluster-size law, u >= 1.

    Rearranged as Gamma(u - a) / (u! Gamma(1 - a)) * p^{u - a} / kappa(a, p),
    which cancels the simultaneous sign flips of Gamma(-a) and the raw
    normalizer at a = 0 analytically; at a = 0 it is the logarithmic
    distribution p^u / (-u log(1 - p)).
    """
    if u < 1:
        raise ValueError(f"cluster size must be >= 1, got {u}")
    if a >= 1.0:
        raise ValueError(f"discount must satisfy a < 1, got {a}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return (
        log_gamma_ratio(u, a)
        - math.lgamma(u + 1)
        + (u - a) * math.log(p)
        - math.log(kappa_ap(a, p))
    )


def tnb_sample(a: float, p: float, rng: np.random.Generator) -> int:
    """Exact truncated negative binomial draw by an inverse-CDF walk.

    Successive PMF values follow the ratio recursion
    p(u + 1) / p(u) = p (u - a) / (u + 1), so the walk needs one
    multiply-add per support point and no envelope tuning.

    The walk starts at pmf(1) = p^(1 - a) / kappa(a, p), which must be a
    positive double.  For very negative a it is not: at a = -9998,
    p = 0.1 both factors underflow to 0.  Such (a, p) raise ValueError.
    """
    if a >= 1.0:
        raise ValueError(f"discount must satisfy a < 1, got {a}")
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    u = 1
    kap = kappa_ap(a, p)
    pmf = p ** (1.0 - a) / kap if kap > 0.0 else math.nan
    if not 0.0 < pmf < math.inf:
        raise ValueError(
            f"truncated negative binomial at a={a}, p={p}: pmf(1) = p^(1-a) / kappa "
            f"is {pmf}, not a positive double"
        )
    target = rng.random()
    acc = pmf
    while target > acc:
        pmf *= p * (u - a) / (u + 1.0)
        u += 1
        acc += pmf
        if pmf <= 0.0:
            break
    return u


def sample_cluster_structure(params: Params, rng: np.random.Generator) -> ClusterSizes:
    """Compound-Poisson draw of a cluster structure.

    l ~ Poisson(gamma0 * kappa), then l iid truncated negative binomial
    sizes; the total n is marginally generalized negative binomial.
    """
    l = int(rng.poisson(params.gamma0 * kappa(params)))
    sizes = tuple(tnb_sample(params.a, params.p, rng) for _ in range(l))
    return ClusterSizes(sizes)


def sample_crm_counts(params: Params, rng: np.random.Generator) -> ClusterSizes:
    """Finite-atom random-measure route to the same cluster structure,
    valid only for strictly negative discounts.

    Draws K ~ Poisson(-gamma0 c^a / a) atoms with c = (1 - p) / p, gamma
    weights r_k ~ Gamma(-a, 1/c), Poisson counts n_k ~ Poisson(r_k), and
    discards the zero counts.  Distributed identically to
    :func:`sample_cluster_structure`, which makes the two samplers
    independent oracles for each other.
    """
    a = params.a
    if a >= 0.0:
        raise ValueError(
            f"finite-atom sampler requires a < 0 (atom count is a.s. infinite "
            f"for 0 <= a < 1), got a={a}"
        )
    c = (1.0 - params.p) / params.p
    nu_total = -params.gamma0 * c**a / a
    k = int(rng.poisson(nu_total))
    if k == 0:
        return ClusterSizes(())
    weights = rng.gamma(shape=-a, scale=1.0 / c, size=k)
    counts = rng.poisson(weights)
    return ClusterSizes(tuple(int(x) for x in counts if x > 0))
