import math
import re

import numpy as np
import pytest
from scipy.special import gammaln

from gnbp import (
    ClusterSizes,
    Params,
    build_stirling_table,
    gnb_log_pmf,
    gnb_mean,
    kappa,
    sample_cluster_structure,
    sample_crm_counts,
    tnb_log_pmf,
    tnb_sample,
)
from gnbp.distributions import kappa_ap, log_size_product

from oracles import (
    collect_counts,
    exact_total_count_pmf,
    gnb_pmf_by_alternating_series,
    kappa_series,
    tv_distance_counts,
)

KAPPA_A = [-50.0, -2.0, -1.0, -1e-7, 1e-7, 0.3, 0.5, 0.9, 0.999]
KAPPA_P = [1e-3, 0.1, 0.5, 0.9, 0.999]


class TestParams:
    def test_valid(self):
        p = Params(1, 0.5, 0.5)
        assert p.gamma0 == 1.0 and isinstance(p.gamma0, float)

    @pytest.mark.parametrize(
        "bad", [(0, 0.5, 0.5), (-1, 0.5, 0.5), (1, 1.0, 0.5), (1, 1.5, 0.5),
                (1, 0.5, 0.0), (1, 0.5, 1.0), (1, 0.5, -0.2)]
    )
    def test_invalid(self, bad):
        with pytest.raises(ValueError):
            Params(*bad)


class TestClusterSizes:
    def test_counts(self):
        s = ClusterSizes((1, 1, 2, 3, 3))
        assert s.n == 10 and s.l == 5

    def test_empty(self):
        s = ClusterSizes(())
        assert s.n == 0 and s.l == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ClusterSizes((1, 0))

    def test_entries_become_ints(self):
        s = ClusterSizes((np.int64(2), 3.0, "4"))
        assert s.sizes == (2, 3, 4) and all(type(x) is int for x in s.sizes)
        with pytest.raises(ValueError):
            ClusterSizes((1, "x"))

    def test_n_cached(self):
        s = ClusterSizes((3, 1, 3, 2, 3))
        assert "n" not in vars(s)
        assert s.n == 12
        assert vars(s)["n"] == 12

    def test_size_multiplicities_cached_read_only(self):
        s = ClusterSizes((3, 1, 3, 2, 3))
        uniq, mult = s.size_multiplicities
        assert uniq.tolist() == [1, 2, 3] and mult.tolist() == [1, 1, 3]
        assert s.size_multiplicities is s.size_multiplicities
        assert not uniq.flags.writeable and not mult.flags.writeable
        assert [x.tolist() for x in ClusterSizes(()).size_multiplicities] == [[], []]


class TestKappa:
    def test_zero_discount_limit(self):
        assert kappa(Params(1, 0.0, 0.5)) == pytest.approx(math.log(2), rel=1e-12)
        # just inside the tolerance window
        assert kappa(Params(1, 1e-9, 0.5)) == pytest.approx(math.log(2), rel=1e-7)

    def test_half_discount(self):
        expected = (1 - math.sqrt(0.5)) / (0.5 * math.sqrt(0.5))
        assert kappa(Params(1, 0.5, 0.5)) == pytest.approx(expected, rel=1e-12)

    def test_negative_one(self):
        assert kappa(Params(1, -1.0, 0.5)) == pytest.approx(0.5, rel=1e-12)

    def test_continuity_across_zero(self):
        for p in (0.1, 0.5, 0.9):
            left = kappa(Params(1, -1e-7, p))
            right = kappa(Params(1, 1e-7, p))
            assert left == pytest.approx(right, rel=1e-5)

    def test_extreme_negative_discount_never_nan(self):
        # the true value spans hundreds of orders of magnitude across p;
        # underflow to 0 and overflow to inf are the honest double limits
        for p in (0.1, 0.5, 0.9):
            val = kappa(Params(1, -9998.0, p))
            assert val >= 0.0
            assert not math.isnan(val)
        assert kappa(Params(1, -50.0, 0.5)) > 0.0

    @pytest.mark.parametrize("a", [0.3, 0.0, 1e-9, -1e-9, -1.0, -50.0, -9998.0])
    def test_scalar_discount_branch_matches_elementwise_choice(self, a):
        # a scalar a takes only its own branch; an array of copies of a
        # takes the elementwise choice among all three
        p = np.arange(1, 1000) * 1e-3
        assert np.array_equal(
            kappa_ap(a, p), kappa_ap(np.full_like(p, a), p), equal_nan=True
        )


    @pytest.mark.parametrize("a", KAPPA_A)
    def test_matches_series_oracle(self, a):
        for p in KAPPA_P:
            assert kappa_ap(a, p) == pytest.approx(kappa_series(a, p), rel=1e-11)

    def test_float_and_array_paths_agree(self):
        a, p = (np.array(x) for x in zip(*[(a, p) for a in KAPPA_A for p in KAPPA_P]))
        floats = np.array([kappa_ap(float(x), float(y)) for x, y in zip(a, p)])
        arrays = kappa_ap(a, p)
        assert np.max(np.abs(arrays - floats) / floats) <= 2e-15

    def test_float_overflow_is_inf(self):
        assert kappa_ap(-9998.0, 0.999) == math.inf
        assert kappa_ap(np.array([-9998.0]), 0.999)[0] == math.inf


class TestLogSizeProduct:
    SIZES = ClusterSizes((1, 1, 1, 2, 5, 5, 40, 300))

    @pytest.mark.parametrize("a", [-50.0, -1.0, 0.0, 0.5, 0.99])
    def test_matches_sum_of_logs(self, a):
        want = math.fsum(
            math.log(i - a) for s in self.SIZES.sizes for i in range(1, s)
        )
        assert log_size_product(self.SIZES, a) == pytest.approx(want, rel=1e-13, abs=1e-13)

    def test_array_matches_scalar(self):
        a = np.array([-50.0, -1.0, 0.0, 0.5, 0.99])
        got = log_size_product(self.SIZES, a)
        want = np.array([log_size_product(self.SIZES, float(x)) for x in a])
        assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 1e-13

    def test_empty_and_singletons_are_zero(self):
        assert log_size_product(ClusterSizes(()), 0.5) == 0.0
        assert log_size_product(ClusterSizes((1, 1, 1)), -3.0) == 0.0


class TestGnbLogPmf:
    def test_zero_count_is_neg_gamma0_kappa(self):
        params = Params(2.0, 0.5, 0.3)
        table = build_stirling_table(1, 0.5)
        assert gnb_log_pmf(0, params, table) == pytest.approx(
            -params.gamma0 * kappa(params), rel=1e-12
        )

    def test_zero_discount_zero_count(self):
        params = Params(1.0, 0.0, 0.5)
        table = build_stirling_table(1, 0.0)
        assert gnb_log_pmf(0, params, table) == pytest.approx(math.log(0.5), rel=1e-12)

    def test_normalizes(self):
        params = Params(2.0, 0.5, 0.3)
        table = build_stirling_table(200, 0.5)
        total = 0.0
        for n in range(201):
            total += math.exp(gnb_log_pmf(n, params, table))
            if 1.0 - total < 1e-10:
                break
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_zero_discount_reduces_to_negative_binomial(self):
        params = Params(1.5, 0.0, 0.4)
        table = build_stirling_table(100, 0.0)
        for n in range(101):
            nb = (
                float(gammaln(n + params.gamma0) - gammaln(params.gamma0) - gammaln(n + 1))
                + n * math.log(params.p)
                + params.gamma0 * math.log1p(-params.p)
            )
            assert abs(gnb_log_pmf(n, params, table) - nb) < 1e-10

    @pytest.mark.parametrize(
        "params",
        [Params(2.0, 0.5, 0.3), Params(1.0, -1.0, 0.5), Params(1.5, 0.8, 0.6)],
    )
    def test_alternating_series_oracle(self, params):
        table = build_stirling_table(25, params.a)
        for n in range(26):
            series = gnb_pmf_by_alternating_series(n, params)
            assert math.exp(gnb_log_pmf(n, params, table)) == pytest.approx(
                series, rel=1e-6
            )

    def test_rejects_mismatched_table(self):
        with pytest.raises(ValueError):
            gnb_log_pmf(3, Params(1, 0.5, 0.5), build_stirling_table(5, 0.3))


class TestGnbMean:
    def test_zero_discount(self):
        assert gnb_mean(Params(1, 0.0, 0.5)) == pytest.approx(1.0)

    def test_half_discount(self):
        assert gnb_mean(Params(2, 0.5, 0.5)) == pytest.approx(2.0)

    def test_monte_carlo_mean(self):
        params = Params(1.0, 0.5, 0.5)
        rng = np.random.default_rng(11)
        totals = np.array(
            [sample_cluster_structure(params, rng).n for _ in range(100_000)]
        )
        se = totals.std() / math.sqrt(len(totals))
        assert abs(totals.mean() - gnb_mean(params)) < 3 * se


class TestTnb:
    def test_zero_discount_is_logarithmic(self):
        val = tnb_log_pmf(1, 0.0, 0.5)
        assert val == pytest.approx(math.log(0.5 / math.log(2)), rel=1e-12)

    def test_negative_one_closed_form(self):
        # at a = -1 the law is geometric on {1, 2, ...}: p^(u-1) (1-p)
        assert tnb_log_pmf(1, -1.0, 0.3) == pytest.approx(math.log(0.7), rel=1e-12)
        assert tnb_log_pmf(4, -1.0, 0.3) == pytest.approx(
            math.log(0.3**3 * 0.7), rel=1e-12
        )

    @pytest.mark.parametrize("a,p", [(0.5, 0.4), (-1.0, 0.3), (0.0, 0.6), (-3.0, 0.7)])
    def test_normalizes(self, a, p):
        total = sum(math.exp(tnb_log_pmf(u, a, p)) for u in range(1, 2000))
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_ratio_recursion_consistency(self):
        a, p = 0.5, 0.4
        for u in range(1, 20):
            ratio = math.exp(tnb_log_pmf(u + 1, a, p) - tnb_log_pmf(u, a, p))
            assert ratio == pytest.approx(p * (u - a) / (u + 1), rel=1e-10)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            tnb_log_pmf(0, 0.5, 0.4)


class TestTnbSample:
    def test_empirical_matches_exact(self):
        a, p = 0.5, 0.4
        rng = np.random.default_rng(5)
        emp, total = collect_counts(tnb_sample(a, p, rng) for _ in range(100_000))
        exact = np.zeros(200)
        for u in range(1, 200):
            exact[u] = math.exp(tnb_log_pmf(u, a, p))
        assert tv_distance_counts(emp, total, exact) < 0.01

    def test_tiny_p_returns_one(self):
        rng = np.random.default_rng(2)
        draws = [tnb_sample(0.5, 1e-6, rng) for _ in range(2000)]
        assert np.mean([d == 1 for d in draws]) > 0.999

    def test_mean_matches_exact(self):
        a, p = -1.0, 0.3
        rng = np.random.default_rng(3)
        draws = np.array([tnb_sample(a, p, rng) for _ in range(100_000)])
        exact_mean = sum(u * math.exp(tnb_log_pmf(u, a, p)) for u in range(1, 400))
        se = draws.std() / math.sqrt(len(draws))
        assert abs(draws.mean() - exact_mean) < 3 * se

    @pytest.mark.parametrize("a, p", [(-9998.0, 0.1), (-1e300, 0.9)])
    def test_degenerate_first_mass_raises_value_error(self, a, p):
        # pmf(1) = p^(1-a) / kappa underflows to 0 / 0 at (-9998, 0.1);
        # kappa overflows at (-1e300, 0.9)
        with pytest.raises(ValueError, match=re.escape(f"a={a}, p={p}")):
            tnb_sample(a, p, np.random.default_rng(0))


class TestClusterStructureSampler:
    def test_vanishing_mass_gives_empty_structure(self):
        params = Params(1e-9, 0.5, 0.5)
        rng = np.random.default_rng(0)
        draws = [sample_cluster_structure(params, rng) for _ in range(500)]
        assert all(d.n == 0 for d in draws)

    def test_cluster_count_is_poisson(self):
        from scipy.stats import poisson

        params = Params(1.0, 0.5, 0.5)
        lam = params.gamma0 * kappa(params)
        rng = np.random.default_rng(7)
        emp, total = collect_counts(
            sample_cluster_structure(params, rng).l for _ in range(100_000)
        )
        exact = poisson.pmf(np.arange(40), lam)
        assert tv_distance_counts(emp, total, exact) < 0.01

    def test_total_count_matches_exact_pmf(self):
        params = Params(1.0, 0.5, 0.5)
        table = build_stirling_table(80, 0.5)
        rng = np.random.default_rng(13)
        emp, total = collect_counts(
            sample_cluster_structure(params, rng).n for _ in range(100_000)
        )
        exact = np.array([math.exp(gnb_log_pmf(n, params, table)) for n in range(81)])
        assert tv_distance_counts(emp, total, exact) < 0.015

    def test_total_count_matches_convolution_oracle(self):
        params = Params(1.0, 0.5, 0.5)
        table = build_stirling_table(60, 0.5)
        oracle = exact_total_count_pmf(params, 60)
        for n in range(61):
            assert math.exp(gnb_log_pmf(n, params, table)) == pytest.approx(
                float(oracle[n]), rel=1e-8, abs=1e-12
            )


class TestCrmCountsSampler:
    def test_rejects_nonnegative_discount(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_crm_counts(Params(1, 0.0, 0.5), rng)
        with pytest.raises(ValueError):
            sample_crm_counts(Params(1, 0.5, 0.5), rng)

    def test_empty_atom_set_gives_empty_structure(self):
        params = Params(1e-9, -1.0, 0.5)
        rng = np.random.default_rng(1)
        assert all(sample_crm_counts(params, rng).n == 0 for _ in range(200))

    def test_agrees_with_compound_poisson_route(self):
        params = Params(1.0, -1.0, 0.5)
        rng = np.random.default_rng(23)
        n_draws = 100_000
        emp_crm, t1 = collect_counts(
            sample_crm_counts(params, rng).n for _ in range(n_draws)
        )
        emp_cp, t2 = collect_counts(
            sample_cluster_structure(params, rng).n for _ in range(n_draws)
        )
        table = build_stirling_table(60, -1.0)
        exact = np.array([math.exp(gnb_log_pmf(n, params, table)) for n in range(61)])
        assert tv_distance_counts(emp_crm, t1, exact) < 0.02
        assert tv_distance_counts(emp_cp, t2, exact) < 0.02

    def test_mean_matches_model_mean(self):
        params = Params(1.0, -1.0, 0.5)
        rng = np.random.default_rng(29)
        totals = np.array([sample_crm_counts(params, rng).n for _ in range(100_000)])
        se = totals.std() / math.sqrt(len(totals))
        assert abs(totals.mean() - gnb_mean(params)) < 3 * se
