"""Independent reference implementations used as test oracles.

Everything here deliberately avoids the recursion-based code paths of
the package: Stirling numbers come from composition sums, permutation
cycle counts, or alternating gamma-ratio series; distributions are
checked against brute-force summation and Monte Carlo.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.special import gammaln

from gnbp import Params, gamma_ratio_signed, kappa


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
    l-fold size-sum distribution, computed by convolution."""
    import gnbp

    lam = params.gamma0 * kappa(params)
    size_pmf = np.zeros(upto + 1)
    for u in range(1, upto + 1):
        size_pmf[u] = math.exp(gnbp.tnb_log_pmf(u, params.a, params.p))
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
    if a == 0.0:
        kap = -math.log1p(-p)
    else:
        kap = -math.expm1(a * math.log1p(-p)) / a * math.exp(-a * math.log(p))
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
