"""Reference computations the benchmark checks the program against.

Nothing here imports the package under test: each quantity is computed
by a route that shares no recursion or stopping rule with the program.

- ``simpson_theta_quad``: Simpson's index at a parameter triple as a
  ratio of two one-dimensional integrals, by adaptive quadrature.
- ``simpson_theta_series``: the same index as a series over the sample
  size n, with the gNB law from the compound-Poisson (Panjer) recursion
  and a stopping rule on mass relative to P(N >= 2).  Used only to test
  the quadrature.
- ``truncation_allowance``: a bound on how far the program's series,
  capped at a maximum sample size, may lie from the full sum.
- ``log_ecpf``: the log joint likelihood of a cluster structure, summed
  directly with ``gammaln``.
- ``cluster_count_moments``: mean and variance of the number of clusters
  given n, from a log-space generalized Stirling recursion.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

# Below this |a| the discount is treated as exactly zero, where the
# a -> 0 limits of the formulas below are used.
_ZERO_A = 1e-12


def kappa(a: float, p: float) -> float:
    """(1 - (1 - p)^a) / (a p^a), with its a -> 0 limit -log(1 - p)."""
    if abs(a) < _ZERO_A:
        return -math.log1p(-p)
    return -math.expm1(a * math.log1p(-p)) / a * math.exp(-a * math.log(p))


def _log_pair_integrands(gamma0: float, a: float, p: float):
    """Log integrands of the "different blocks" (N) and "same block" (M)
    terms, as functions of t = p - x on [0, p], both divided by g.

    With g = gamma0 p^-a and f(x) = (1 - (1 - x)^a) / a,
        N = int_0^p (p - x) g^2 (1 - x)^(2a - 2) exp(g (f(x) - f(p))) dx,
        M = int_0^p (p - x) g (1 - a) (1 - x)^(a - 2) exp(g (f(x) - f(p))) dx,
    and S_theta = N / (N + M).  The exponent g (f(p) - f(x)) is written
    as g (1 - p)^a expm1(a log1p(t / (1 - p))) / a so that it keeps full
    relative precision near the peak at t = 0.
    """
    log_g = math.log(gamma0) - a * math.log(p)
    g = math.exp(log_g)
    q = 1.0 - p
    log_q = math.log1p(-p)

    def drop(t):
        u = np.log1p(t / q)
        if abs(a) < _ZERO_A:
            return g * u
        return g * math.exp(a * log_q) * np.expm1(a * u) / a

    def log_n(t):
        return log_g + np.log(t) + (2.0 * a - 2.0) * np.log(q + t) - drop(t)

    def log_m(t):
        return math.log1p(-a) + np.log(t) + (a - 2.0) * np.log(q + t) - drop(t)

    # The integrands rise like t and fall like exp(-t / width) near t = 0.
    width = 1.0 / (g * math.exp((a - 1.0) * log_q))
    return log_n, log_m, width


def simpson_theta_quad(gamma0: float, a: float, p: float) -> float:
    """S_theta = N / (N + M) by adaptive quadrature (see
    ``_log_pair_integrands``), with breakpoints at multiples of the peak
    width so that a narrow peak is not stepped over."""
    log_n, log_m, width = _log_pair_integrands(gamma0, a, p)
    points = [k * width for k in (0.5, 1, 2, 4, 8, 16, 32, 64, 128, 256) if k * width < p]
    grid = np.concatenate(([p * 1e-9], points, [p]))
    ref = float(max(np.max(log_n(grid)), np.max(log_m(grid))))

    def integrate(log_f):
        value, _ = quad(
            lambda t: math.exp(log_f(t) - ref),
            0.0,
            p,
            points=points or None,
            limit=500,
            epsabs=0.0,
            epsrel=1e-12,
        )
        return value

    n_part = integrate(log_n)
    m_part = integrate(log_m)
    return n_part / (n_part + m_part)


def _log_tnb_pmf(u: np.ndarray, a: float, p: float) -> np.ndarray:
    """Log truncated negative binomial pmf on u >= 1."""
    if abs(a) < _ZERO_A:
        return u * math.log(p) - np.log(u) - math.log(-math.log1p(-p))
    log_ratio = np.array([np.sum(np.log(np.arange(1, k) - a)) for k in u])
    return log_ratio - gammaln(u + 1.0) + (u - a) * math.log(p) - math.log(kappa(a, p))


_SERIES_REL_TAIL = 1e-13
_SERIES_N_MAX = 20000


def simpson_theta_series(gamma0: float, a: float, p: float) -> float:
    """S_theta summed over the sample size n, by a route independent of
    Stirling numbers and R tables.

    The total count is compound Poisson with rate lam = gamma0 kappa and
    TNB sizes q(u), so its law follows Panjer's recursion
        p_N(n) = (lam / n) sum_u u q(u) p_N(n - u),
    and, by the Poisson superposition property, the expected number of
    ordered same-cluster pairs on {N = n} is
        lam sum_u q(u) u (u - 1) p_N(n - u).
    The complement 1 - S_theta is the ratio of those pairs, each divided
    by n (n - 1), to P(N >= 2).  The sum stops once the included mass is
    within a relative 1e-13 of P(N >= 2), which is known in closed form.
    """
    lam = gamma0 * kappa(a, p)
    log_lam = math.log(lam)
    log_q = np.full(1, -np.inf)
    log_pn = [-lam]
    log_p1 = log_lam + float(_log_tnb_pmf(np.array([1.0]), a, p)[0]) - lam
    log_tail2 = math.log(-math.expm1(np.logaddexp(-lam, log_p1)))
    same_terms: list[float] = []
    mass_terms: list[float] = []
    for n in range(1, _SERIES_N_MAX + 1):
        u = np.arange(1.0, n + 1.0)
        log_q = np.append(log_q, _log_tnb_pmf(np.array([float(n)]), a, p))
        prev = np.array(log_pn[::-1])  # p_N(n - u) for u = 1..n
        log_pn.append(log_lam - math.log(n) + float(logsumexp(np.log(u) + log_q[1:] + prev)))
        if n < 2:
            continue
        mass_terms.append(log_pn[n])
        same = log_lam + logsumexp(np.log(u[1:]) + np.log(u[1:] - 1.0) + log_q[2:] + prev[1:])
        same_terms.append(float(same) - math.log(n) - math.log(n - 1.0))
        if logsumexp(mass_terms) >= log_tail2 + math.log1p(-_SERIES_REL_TAIL):
            return -math.expm1(float(logsumexp(same_terms)) - float(logsumexp(mass_terms)))
    raise RuntimeError(f"series did not reach its tail within n = {_SERIES_N_MAX}")


def truncation_allowance(gamma0: float, a: float, p: float, n_cap: int) -> float:
    """Largest change in S_theta from leaving out every n > n_cap.

    The full and the truncated index are both averages of
    P(distinct | n), which lies in [0, 1], over the gNB law restricted to
    n >= 2, so they differ by at most P(N > n_cap) / P(N >= 2).  The gNB
    probabilities come from inverting its generating function
    E z^N = exp(g (f(p z) - f(p))) by FFT on a circle of radius r < 1,
    where terms that alias onto n <= n_cap are damped by r^K <= 1e-14.
    """
    size = 1 << (4 * (n_cap + 1) - 1).bit_length()
    radius = 1e-14 ** (1.0 / size)
    z = radius * np.exp(2j * np.pi * np.arange(size) / size)
    g = gamma0 * math.exp(-a * math.log(p))
    if abs(a) < _ZERO_A:
        rise = np.log((1.0 - p) / (1.0 - p * z))
    else:
        rise = ((1.0 - p) ** a - (1.0 - p * z) ** a) / a
    pmf = np.fft.fft(np.exp(g * rise)).real[: n_cap + 1] / size
    pmf /= radius ** np.arange(n_cap + 1)
    tail = max(0.0, 1.0 - float(np.sum(pmf)))
    lam = gamma0 * kappa(a, p)
    at_least_two = -math.expm1(-lam) - g * p * math.exp(-lam)
    return min(1.0, tail / at_least_two + 1e-12)


def log_ecpf(counts: dict[int, int], gamma0: float, a: float, p: float) -> float:
    """Log joint probability of a labelled cluster structure with its
    sample size, from frequency counts {size: number of clusters}:
        -lgamma(n + 1) - gamma0 kappa + l log gamma0 + (n - a l) log p
            + sum_k [lgamma(n_k - a) - lgamma(1 - a)]."""
    n = sum(s * m for s, m in counts.items())
    l = sum(counts.values())
    sizes = np.array(list(counts), dtype=float)
    mult = np.array(list(counts.values()), dtype=float)
    size_term = float(np.sum(mult * (gammaln(sizes - a) - gammaln(1.0 - a))))
    return (
        -float(gammaln(n + 1.0))
        - gamma0 * kappa(a, p)
        + l * math.log(gamma0)
        + (n - a * l) * math.log(p)
        + size_term
    )


def cluster_count_moments(n: int, gamma0: float, a: float, p: float) -> tuple[float, float]:
    """Mean and variance of the number of clusters L given a sample of
    size n: P(L = l | n) is proportional to (gamma0 p^-a)^l S_a(n, l),
    with S_a(m + 1, l) = (m - a l) S_a(m, l) + S_a(m, l - 1) built here
    in log space."""
    log_row = np.array([0.0])  # log S_a(0, l), l = 0
    for m in range(n):
        l = np.arange(1, m + 1, dtype=float)
        nxt = np.full(m + 2, -np.inf)
        nxt[1 : m + 1] = np.logaddexp(np.log(m - a * l) + log_row[1:], log_row[:m])
        nxt[m + 1] = log_row[m]
        log_row = nxt
    l = np.arange(n + 1, dtype=float)
    w = log_row + l * (math.log(gamma0) - a * math.log(p))
    pmf = np.exp(w - logsumexp(w))
    mean = float(np.sum(l * pmf))
    return mean, float(np.sum((l - mean) ** 2 * pmf))
