"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the recursion-based code paths of
the package: Stirling numbers come from composition sums, permutation
cycle counts, or alternating gamma-ratio series; distributions are
checked against brute-force summation and Monte Carlo.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

import numpy as np
from scipy.special import gammaln, logsumexp

from gnbp import (
    ChainConfig,
    ClusterSizes,
    LogRTable,
    Params,
    PosteriorDraw,
    ecpf_log,
    kappa,
    parse_a_mode,
    simpson_theta,
)
from gnbp.distributions import ZERO_DISCOUNT_TOL, kappa_ap, log_size_product


def gamma_ratio_signed(n: int, x: float) -> tuple[int, float]:
    """Gamma(n + x) / Gamma(x) as (sign, log magnitude).

    Computed as the product prod_{i=0}^{n-1} (i + x), which stays well
    defined at nonpositive x where Gamma itself has poles.  A zero factor
    yields (0, -inf).
    """
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    sign = 1
    log_mag = 0.0
    for i in range(n):
        f = i + x
        if f == 0.0:
            return 0, float("-inf")
        if f < 0.0:
            sign = -sign
        log_mag += math.log(abs(f))
    return sign, log_mag


def _log_tnb_terms(u: np.ndarray, a: float, p: float) -> np.ndarray:
    # log of Gamma(u - a) / (u! Gamma(1 - a)) p^(u - a), all terms positive
    return gammaln(u - a) - gammaln(u + 1.0) - gammaln(1.0 - a) + (u - a) * math.log(p)


def kappa_series(a: float, p: float, chunk: int = 1 << 16,
                 rel_tail: float = 1e-20) -> float:
    """kappa(a, p) as the normalizer of the truncated negative binomial,
    sum_{u >= 1} Gamma(u - a) / (u! Gamma(1 - a)) p^(u - a), summed in
    log space chunk by chunk.  Terms rise while p (u - a) / (u + 1) > 1
    and fall geometrically after, so the sum stops once past that peak
    the last term is below ``rel_tail`` of the sum.  No closed form, no
    a = 0 limit: a = 0 is the series of -log(1 - p)."""
    parts = []
    start = 1
    while True:
        u = np.arange(start, start + chunk, dtype=float)
        logs = _log_tnb_terms(u, a, p)
        parts.append(logsumexp(logs))
        total = logsumexp(parts)
        falling = p * (u[-1] - a) / (u[-1] + 1.0) < 1.0
        if falling and logs[-1] < total + math.log(rel_tail):
            return math.exp(total)
        start += chunk
        if start > 100 * chunk:
            raise RuntimeError("kappa series did not reach its tail")


def signed_log_sum(signs, logs) -> tuple[int, float]:
    """Sum of sign_i * exp(log_i) returned as (sign, log magnitude)."""
    logs = np.asarray(logs, dtype=float)
    signs = np.asarray(signs, dtype=float)
    finite = np.isfinite(logs)
    if not np.any(finite):
        return 0, float("-inf")
    m = float(np.max(logs[finite]))
    total = float(np.sum(signs[finite] * np.exp(logs[finite] - m)))
    if total == 0.0:
        return 0, float("-inf")
    return (1 if total > 0 else -1), m + math.log(abs(total))


def compositions(n: int, l: int):
    """All ordered tuples of l positive integers summing to n."""
    if l == 1:
        yield (n,)
        return
    for first in range(1, n - l + 2):
        for rest in compositions(n - first, l - 1):
            yield (first,) + rest


def stirling_by_composition_sum(n: int, l: int, a: float) -> float:
    """S_a(n, l) via its definition as a sum over compositions:
    (n! / l!) sum prod_k Gamma(n_k - a) / (n_k! Gamma(1 - a))."""
    if l == 0:
        return 1.0 if n == 0 else 0.0
    total = 0.0
    for parts in compositions(n, l):
        term = 1.0
        for nk in parts:
            term *= math.exp(gammaln(nk - a) - gammaln(1.0 - a) - gammaln(nk + 1))
        total += term
    return math.exp(gammaln(n + 1) - gammaln(l + 1)) * total


def stirling_by_cycle_count(n: int) -> dict[int, int]:
    """Unsigned Stirling numbers of the first kind for one n, counted by
    enumerating permutations of [n] and tallying their cycle counts."""
    counts: dict[int, int] = {}
    for perm in itertools.permutations(range(n)):
        seen = [False] * n
        cycles = 0
        for i in range(n):
            if seen[i]:
                continue
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
        counts[cycles] = counts.get(cycles, 0) + 1
    return counts


def stirling_by_alternating_series(n: int, l: int, a: float) -> float:
    """S_a(n, l) = 1 / (l! a^l) sum_{k=0}^{l} (-1)^k C(l, k)
    Gamma(n - a k) / Gamma(-a k), valid for a != 0; suffers catastrophic
    cancellation at large n, hence restricted to oracle duty."""
    assert a != 0.0
    signs, logs = [], []
    for k in range(l + 1):
        ratio_sign, ratio_log = gamma_ratio_signed(n, -a * k)
        comb = math.comb(l, k)
        signs.append(((-1) ** k) * ratio_sign)
        logs.append(math.log(comb) + ratio_log)
    sign, log_mag = signed_log_sum(signs, logs)
    if sign == 0:
        return 0.0
    scale_sign = 1 if a > 0 or l % 2 == 0 else -1
    log_scale = -gammaln(l + 1) - l * math.log(abs(a))
    return sign * scale_sign * math.exp(log_mag + log_scale)


def gnb_pmf_by_alternating_series(n: int, params: Params) -> float:
    """Marginal count PMF via the alternating gamma-ratio expansion of
    the generating function, truncated once terms fall below 1e-18 of
    the largest magnitude seen.  Requires a != 0."""
    g0, a, p = params.gamma0, params.a, params.p
    assert a != 0.0
    log_x = math.log(g0) - math.log(abs(a)) - a * math.log(p)
    x_sign = 1 if a < 0 else -1  # sign of -gamma0 / (a p^a)
    signs, logs = [], []
    max_log = float("-inf")
    k = 0
    while True:
        if n == 0:
            ratio_sign, ratio_log = 1, 0.0  # empty product
        else:
            ratio_sign, ratio_log = gamma_ratio_signed(n, -a * k)
        term_log = k * log_x - gammaln(k + 1) + ratio_log
        signs.append((x_sign**k) * ratio_sign)
        logs.append(term_log)
        max_log = max(max_log, term_log)
        # Individual terms can be exactly zero (integer a k), so look at a
        # window of recent magnitudes before declaring convergence.
        if k > 10 and max(logs[-3:]) < max_log + math.log(1e-18):
            break
        if k > 100_000:
            raise RuntimeError("series did not converge")
        k += 1
    sign, log_mag = signed_log_sum(signs, logs)
    assert sign > 0
    prefactor = (
        n * math.log(p)
        - gammaln(n + 1)
        + g0 * math.exp(a * math.log1p(-p)) / (a * p**a)
    )
    return math.exp(prefactor + log_mag)


def exact_total_count_pmf(params: Params, upto: int) -> np.ndarray:
    """Marginal count PMF for n = 0..upto by direct series evaluation of
    the compound law: sum over cluster counts of Poisson(l) times the
    l-fold size-sum distribution, computed by convolution.  The rate and
    the size law both come from the series of :func:`kappa_series`."""
    kap = kappa_series(params.a, params.p)
    lam = params.gamma0 * kap
    size_pmf = np.zeros(upto + 1)
    u = np.arange(1, upto + 1, dtype=float)
    size_pmf[1:] = np.exp(_log_tnb_terms(u, params.a, params.p)) / kap
    out = np.zeros(upto + 1)
    conv = np.zeros(upto + 1)
    conv[0] = 1.0  # zero clusters: point mass at 0
    l = 0
    pois = math.exp(-lam)
    while True:
        out += pois * conv
        l += 1
        pois *= lam / l
        conv = np.convolve(conv, size_pmf)[: upto + 1]
        if l > 4 * lam + 40 and pois < 1e-16:
            break
    return out


def simpson_theta_series(params: Params, rel_tail: float = 1e-11,
                         n_max: int = 100_000) -> tuple[float, float]:
    """(S_theta, 1 - S_theta) as series over the sample size n, by a route
    that uses neither Stirling numbers, R tables nor quadrature.

    N is compound Poisson: Poisson(lam) clusters, lam = gamma0 kappa,
    with iid sizes of law q.  With
        b(u) = u lam q(u) = u gamma0 Gamma(u - a) p^(u - a) / (Gamma(1 - a) u!),
    Panjer's recursion gives n p_N(n) = sum_u b(u) p_N(n - u), and the
    factorial moment measures of the Poisson cluster process give the
    expected numbers of ordered pairs of individuals on {N = n}:
        same cluster:       sum_u (u - 1) b(u) p_N(n - u),
        different clusters: sum_m (b * b)(m) p_N(n - m).
    Divided by n (n - 1) these are P(same | n) p_N(n) and
    P(distinct | n) p_N(n).  Both are summed over n >= 2 until the mass
    summed is within a relative ``rel_tail`` of P(N >= 2), which is known
    in closed form, and the last term of each sum is below ``rel_tail``
    of that sum; each is then divided by the mass.  All terms are
    positive, so a tiny S_theta or 1 - S_theta keeps its relative
    precision.  Values are carried scaled by e^lam, so lam must stay
    below 600.
    """
    g0, a, p = params.gamma0, params.a, params.p
    x = a * math.log1p(-p)
    if abs(x) < 1e-6:
        # -expm1(x) / a by its series, which stays accurate when a and x
        # are subnormal and the quotient would lose most of its digits
        kap = -math.log1p(-p) * (1.0 + x / 2.0 + x * x / 6.0) * math.exp(-a * math.log(p))
    else:
        kap = -math.expm1(x) / a * math.exp(-a * math.log(p))
    lam = g0 * kap
    if not lam < 600.0:
        raise ValueError(f"lam = {lam} is too large for the scaled recursion")
    u = np.arange(1, n_max + 1, dtype=float)
    b = np.zeros(n_max + 1)
    b[1:] = np.exp(
        np.log(u) + math.log(g0) + gammaln(u - a) - gammaln(1.0 - a)
        - gammaln(u + 1.0) + (u - a) * math.log(p)
    )
    b_same = b * (np.arange(n_max + 1) - 1.0)
    b_pair = np.zeros(n_max + 1)
    pn = np.zeros(n_max + 1)  # e^lam p_N(n)
    pn[0] = 1.0
    target = (math.expm1(lam) - b[1]) * (1.0 - rel_tail)
    mass = same = distinct = 0.0
    for n in range(1, n_max + 1):
        pn[n] = np.dot(b[1 : n + 1], pn[n - 1 :: -1]) / n
        if n < 2:
            continue
        b_pair[n] = np.dot(b[1:n], b[n - 1 : 0 : -1])
        rest = pn[n - 2 :: -1]  # p_N(n - m) for m = 2..n
        pairs = n * (n - 1.0)
        same_n = np.dot(b_same[2 : n + 1], rest) / pairs
        distinct_n = np.dot(b_pair[2 : n + 1], rest) / pairs
        mass += pn[n]
        same += same_n
        distinct += distinct_n
        if (
            mass >= target
            and same_n <= rel_tail * same
            and distinct_n <= rel_tail * distinct
        ):
            return distinct / mass, same / mass
    raise RuntimeError(f"series did not reach its tail within n = {n_max}")


def sequential_sample_reference(
    n: int, params: Params, rtable: LogRTable, rng: np.random.Generator
) -> tuple[int, ...]:
    """One draw of the sequential allocation rule, element by element:
    the per-draw loop the lockstep sampler must reproduce bit for bit.
    Element i + 1 joins the first cluster k whose running sum of
    (n_j - a) R(i+1, l) / R(i, l) over j <= k exceeds one scalar uniform,
    or else opens a new cluster."""
    a = params.a
    labels = [1]
    counts = [1]
    for i in range(1, n):
        l = len(counts)
        base = rtable.entry(i, l)
        r_keep = math.exp(rtable.entry(i + 1, l) - base)
        u = rng.random()
        acc = 0.0
        chosen = -1
        for k in range(l):
            acc += (counts[k] - a) * r_keep
            if u < acc:
                chosen = k
                break
        if chosen >= 0:
            counts[chosen] += 1
            labels.append(chosen + 1)
        else:
            counts.append(1)
            labels.append(l + 1)
    return tuple(labels)


def _log_sum_exp_reference(values: np.ndarray) -> float:
    m = float(np.max(values))
    if math.isinf(m):
        return m
    return m + math.log(float(np.sum(np.exp(values - m))))


def _grid_draw_reference(values: np.ndarray, logw: np.ndarray, rng) -> float:
    norm = _log_sum_exp_reference(logw)
    if norm == float("-inf"):
        raise RuntimeError("every grid point has zero posterior mass")
    cdf = np.cumsum(np.exp(logw - norm))
    idx = int(np.searchsorted(cdf, rng.random()))
    return float(values[min(idx, len(values) - 1)])


def run_chain_reference(sizes: ClusterSizes, config: ChainConfig) -> list[PosteriorDraw]:
    """One Gibbs chain over (gamma0, a, p), one scalar update at a time:
    the per-chain loop the lockstep ``run_chains`` must reproduce draw
    for draw.  Each iteration draws gamma0 ~ Gamma(e0 + l, 1 / (f0 +
    kappa)), then a by inverse CDF over the discount grid (unless the
    mode fixes it), then p from Beta(1 + n, 1 + gamma0) at a = 0 or by
    inverse CDF over the p grid."""
    kind, fixed = parse_a_mode(config.a_mode)
    rng = np.random.default_rng(config.seed)
    if config.init is not None:
        params = config.init
    else:
        gamma0 = float(max(sizes.l, 1))
        a0 = fixed if kind == "fixed" else (-2.0 if kind == "neg" else 0.0)
        params = Params(gamma0, a0, sizes.n / (sizes.n + gamma0))
    m = int(round(1.0 / config.a_grid_step))
    a_values = 2.0 - 1.0 / (np.arange(1, m, dtype=float) * config.a_grid_step)
    if kind == "nonneg":
        a_values = a_values[a_values >= 0.0]
    elif kind == "neg":
        a_values = a_values[a_values < 0.0]
    data_term = log_size_product(sizes, a_values)
    m = int(round(1.0 / config.p_grid_step))
    p_values = np.arange(1, m, dtype=float) * config.p_grid_step
    log_p = np.log(p_values)
    draws = []
    for t in range(1, config.iterations + 1):
        scale = 1.0 / (config.f0 + kappa(params))
        params = replace(params, gamma0=float(rng.gamma(config.e0 + sizes.l, scale)))
        if kind != "fixed":
            with np.errstate(over="ignore", invalid="ignore"):
                logw = (
                    data_term
                    - params.gamma0 * kappa_ap(a_values, params.p)
                    - a_values * (sizes.l * math.log(params.p))
                )
            params = replace(params, a=_grid_draw_reference(a_values, logw, rng))
        a = params.a
        if abs(a) < ZERO_DISCOUNT_TOL:
            p = float(rng.beta(1.0 + sizes.n, 1.0 + params.gamma0))
        else:
            with np.errstate(over="ignore", invalid="ignore"):
                logw = -params.gamma0 * kappa_ap(a, p_values) + (sizes.n - a * sizes.l) * log_p
            p = _grid_draw_reference(p_values, logw, rng)
        params = replace(params, p=p)
        if t <= config.burn_in or (t - config.burn_in) % config.thin != 0:
            continue
        draws.append(
            PosteriorDraw(t, params, ecpf_log(sizes, params), simpson_theta(params))
        )
    return draws


def tv_distance_counts(emp: dict[int, int], total: int, exact: np.ndarray) -> float:
    """Total variation between an empirical counts dict and an exact PMF
    vector over 0..len(exact)-1 (exact tail mass beyond counts as-is)."""
    upto = len(exact) - 1
    tv = 0.5 * abs(1.0 - float(np.sum(exact)))
    for n in range(upto + 1):
        tv += 0.5 * abs(emp.get(n, 0) / total - float(exact[n]))
    tv += 0.5 * sum(c / total for n, c in emp.items() if n > upto)
    return tv


def tv_distance_vectors(p: np.ndarray, q: np.ndarray) -> float:
    return 0.5 * float(np.sum(np.abs(np.asarray(p) - np.asarray(q))))


def collect_counts(draws) -> tuple[dict[int, int], int]:
    emp: dict[int, int] = {}
    total = 0
    for d in draws:
        emp[d] = emp.get(d, 0) + 1
        total += 1
    return emp, total


BELL = {0: 1, 1: 1, 2: 2, 3: 5, 4: 15, 5: 52, 6: 203, 7: 877, 8: 4140, 9: 21147, 10: 115975}
