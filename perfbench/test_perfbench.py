"""Tests of the benchmark's own reference code.

    python3 -m pytest perfbench/test_perfbench.py
"""

import math

import numpy as np
import pytest
from scipy.special import logsumexp

import oracle
from ess import effective_sample_size

MODERATE = [
    (1.0, 0.5, 0.5),
    (2.0, -1.0, 0.3),
    (0.5, 0.9, 0.2),
    (3.0, 0.3, 0.7),
    (1.5, 0.0, 0.4),
]


@pytest.mark.parametrize("theta", MODERATE)
def test_quadrature_matches_series(theta):
    series = oracle.simpson_theta_series(*theta)
    quad = oracle.simpson_theta_quad(*theta)
    assert abs(quad - series) <= 1e-11 * (1.0 - series)


@pytest.mark.parametrize("gamma0", [0.01, 0.7, 5.0, 300.0])
@pytest.mark.parametrize("p", [0.05, 0.5, 0.999])
def test_quadrature_zero_discount_identity(gamma0, p):
    assert abs(oracle.simpson_theta_quad(gamma0, 0.0, p) - gamma0 / (1.0 + gamma0)) <= 1e-12


def test_quadrature_stays_finite_at_large_means():
    # The EST posterior sits near gNB mean 2400; far larger means must
    # still give a value strictly inside (0, 1).
    for theta in [(1500.0, 0.6, 0.77), (10.0, 0.5, 0.999999)]:
        value = oracle.simpson_theta_quad(*theta)
        assert 0.0 < value < 1.0


def test_series_stops_on_mass_relative_to_two_or_more():
    # P(N >= 2) is about 2e-5 here, so a stop on unconditional mass
    # would end at n = 2; the relative rule keeps summing.
    theta = (0.001, -1.0, 0.2)
    assert abs(oracle.simpson_theta_series(*theta) - oracle.simpson_theta_quad(*theta)) <= 1e-10


def test_log_ecpf_matches_explicit_product():
    counts = {1: 3, 2: 1, 4: 2}
    gamma0, a, p = 1.7, 0.3, 0.6
    sizes = [1, 1, 1, 2, 4, 4]
    n, l = sum(sizes), len(sizes)
    direct = -math.lgamma(n + 1) - gamma0 * (1 - (1 - p) ** a) / (a * p**a)
    direct += l * math.log(gamma0) + (n - a * l) * math.log(p)
    for s in sizes:
        direct += sum(math.log(i - a) for i in range(1, s))
    assert abs(oracle.log_ecpf(counts, gamma0, a, p) - direct) <= 1e-12


def test_cluster_count_moments_crp_limit():
    # At a = 0 the count is a sum of independent Bernoulli(g / (g + i)).
    n, gamma0 = 200, 2.5
    probs = gamma0 / (gamma0 + np.arange(n))
    mean, var = oracle.cluster_count_moments(n, gamma0, 0.0, 0.4)
    assert abs(mean - probs.sum()) <= 1e-9
    assert abs(var - np.sum(probs * (1 - probs))) <= 1e-9


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9])
def test_ess_matches_ar1(phi):
    rng = np.random.default_rng(7)
    n = 20000
    noise = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = noise[0] / math.sqrt(1.0 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    analytic = n * (1.0 - phi) / (1.0 + phi)
    assert abs(effective_sample_size(x) - analytic) <= 0.1 * analytic


@pytest.mark.parametrize(
    "theta, n_cap",
    [((7.07, 0.427, 0.97), 200), ((5.0, 0.9, 0.99), 300), ((1.0, -1.0, 0.8), 40), ((1.5, 0.0, 0.9), 100)],
)
def test_truncation_allowance_is_tail_over_two_or_more(theta, n_cap):
    # Reference: the gNB law by Panjer's recursion, as in the series oracle.
    gamma0, a, p = theta
    lam = gamma0 * oracle.kappa(a, p)
    log_q = np.concatenate(([-np.inf], oracle._log_tnb_pmf(np.arange(1.0, n_cap + 1.0), a, p)))
    log_pn = [-lam]
    for n in range(1, n_cap + 1):
        u = np.arange(1.0, n + 1.0)
        log_pn.append(math.log(lam / n) + float(logsumexp(np.log(u) + log_q[1 : n + 1] + log_pn[::-1])))
    pn = np.exp(log_pn)
    expected = (1.0 - pn.sum()) / (1.0 - pn[0] - pn[1])
    assert abs(oracle.truncation_allowance(*theta, n_cap) - expected) <= 1e-9 + 1e-6 * expected


def test_ess_stays_positive_on_short_anticorrelated_chain():
    # Sampled lag-1 autocorrelation -0.8 would give tau < 0 uncapped.
    x = np.array([1.0, -1.0] * 5)
    assert 0.0 < effective_sample_size(x) <= 10.0
