import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnbp import (
    ClusterSizes,
    Params,
    build_log_r_table,
    bundled_datasets,
    posterior_simpson,
    prob_distinct_pair,
    sample_cluster_structure,
    simpson_sample_estimate,
    simpson_theta,
    summarize,
    to_cluster_sizes,
)
from gnbp.inference import _a_grid

from oracles import simpson_theta_series
from test_acceptance import DISCOUNTS, GAMMAS, PS


class TestSampleEstimate:
    def test_est_population(self):
        sizes = to_cluster_sizes(bundled_datasets()["est-tomato"])
        assert simpson_sample_estimate(sizes) == pytest.approx(0.99931, abs=5e-5)

    def test_all_singletons(self):
        assert simpson_sample_estimate(ClusterSizes((1,) * 7)) == 1.0

    def test_single_cluster(self):
        assert simpson_sample_estimate(ClusterSizes((9,))) == 0.0

    def test_treg_healthy_hand_value(self):
        sizes = to_cluster_sizes(bundled_datasets()["tcr-treg-healthy-1"])
        assert simpson_sample_estimate(sizes) == pytest.approx(
            1.0 - 124.0 / 7656.0, rel=1e-12
        )

    def test_treg_diabetic_hand_value(self):
        sizes = to_cluster_sizes(bundled_datasets()["tcr-treg-diabetic-1"])
        assert simpson_sample_estimate(sizes) == pytest.approx(0.69351, abs=5e-5)

    def test_rejects_tiny_samples(self):
        with pytest.raises(ValueError):
            simpson_sample_estimate(ClusterSizes((1,)))

    def test_permutation_invariant(self):
        a = simpson_sample_estimate(ClusterSizes((3, 1, 2)))
        b = simpson_sample_estimate(ClusterSizes((2, 3, 1)))
        assert a == b


class TestProbDistinctPair:
    def test_constant_at_zero_discount(self):
        params = Params(1.5, 0.0, 0.4)
        expected = params.gamma0 / (1.0 + params.gamma0)
        for n in (2, 10, 100):
            rt = build_log_r_table(n, params, mode="frontier", i_min=2)
            assert abs(prob_distinct_pair(n, params, rt) - expected) < 1e-10

    def test_two_element_closed_form(self):
        for params in (Params(1.0, 0.5, 0.5), Params(2.0, -1.0, 0.3)):
            rt = build_log_r_table(2, params, mode="full")
            unit = params.gamma0 * params.p ** (-params.a)
            expected = unit / (unit + 1.0 - params.a)
            assert prob_distinct_pair(2, params, rt) == pytest.approx(
                expected, rel=1e-12
            )

    def test_depends_on_sample_size(self):
        params = Params(1.0, 0.5, 0.5)
        vals = {}
        for n in (10, 100):
            rt = build_log_r_table(n, params, mode="frontier", i_min=2)
            vals[n] = prob_distinct_pair(n, params, rt)
        assert abs(vals[10] - vals[100]) > 1e-4

    def test_complementary_form(self):
        params = Params(1.0, 0.5, 0.5)
        for n in (5, 30):
            rt = build_log_r_table(n, params, mode="frontier", i_min=2)
            direct = prob_distinct_pair(n, params, rt)
            unit = params.gamma0 * params.p ** (-params.a)
            ratio = math.exp(rt.entry(2, 1) - rt.entry(2, 2))
            complementary = 1.0 / (1.0 + (1.0 - params.a) / unit * ratio)
            assert abs(direct - complementary) < 1e-12

    def test_one_minus_probability_of_same_cluster(self):
        # same-cluster route: the occupied branch of the one-step rule at
        # i = 1 gives (1 - a) R(2, 1) / R(1, 1)
        params = Params(1.0, 0.5, 0.5)
        for n in (4, 25):
            rt = build_log_r_table(n, params, mode="frontier", i_min=2)
            p_same = (1.0 - params.a) * math.exp(rt.entry(2, 1) - rt.entry(1, 1))
            assert abs(prob_distinct_pair(n, params, rt) - (1.0 - p_same)) < 1e-12

    def test_in_open_unit_interval(self):
        for params in (Params(0.1, -2.0, 0.9), Params(10.0, 0.9, 0.1)):
            rt = build_log_r_table(20, params, mode="frontier", i_min=2)
            val = prob_distinct_pair(20, params, rt)
            assert 0.0 < val < 1.0

    def test_rejects_table_mismatch(self):
        params = Params(1.0, 0.5, 0.5)
        rt = build_log_r_table(10, params, mode="frontier", i_min=2)
        with pytest.raises(ValueError):
            prob_distinct_pair(9, params, rt)
        with pytest.raises(ValueError):
            prob_distinct_pair(10, Params(1.0, 0.5, 0.4), rt)


class TestSimpsonTheta:
    def test_zero_discount_identity(self):
        for gamma0, p in ((1.5, 0.4), (0.01, 0.99), (9999.0, 0.5), (3.0, 0.001)):
            val = simpson_theta(Params(gamma0, 0.0, p))
            assert abs(val - gamma0 / (1.0 + gamma0)) <= 1e-12

    @pytest.mark.parametrize(
        "params",
        [Params(g, a, p) for g in GAMMAS for a in DISCOUNTS for p in PS],
        ids=str,
    )
    def test_matches_series_oracle_on_acceptance_grid(self, params):
        ref, complement = simpson_theta_series(params)
        assert ref + complement == pytest.approx(1.0, abs=1e-12)
        assert simpson_theta(params) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize(
        "params",
        # where a series that stops on unconditional mass goes wrong:
        # P(N >= 2) is about 1e-6 and 5e-66 of the mass
        [Params(0.001, -1.0, 0.2), Params(3.0, -50.0, 0.05)],
        ids=str,
    )
    def test_matches_series_oracle_when_two_or_more_is_rare(self, params):
        ref, _ = simpson_theta_series(params)
        assert simpson_theta(params) == pytest.approx(ref, rel=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(
        gamma0=st.floats(0.05, 5.0),
        a=st.floats(-3.0, 0.9),
        p=st.floats(0.02, 0.8),
    )
    def test_matches_series_oracle_at_random_parameters(self, gamma0, a, p):
        params = Params(gamma0, a, p)
        ref, _ = simpson_theta_series(params)
        assert simpson_theta(params) == pytest.approx(ref, rel=1e-9)

    def test_finite_at_default_grid_corners(self):
        a_grid = _a_grid(1e-4)
        p_grid = np.arange(1, 1000, dtype=float) * 1e-3
        for gamma0 in (1e-3, 1.0, 1e4):
            for a in (a_grid[0], a_grid[-1]):
                for p in (p_grid[0], p_grid[-1]):
                    val = simpson_theta(Params(gamma0, a, p))
                    assert math.isfinite(val) and 0.0 <= val <= 1.0

    def test_exact_and_monte_carlo_agree(self):
        params = Params(1.0, 0.5, 0.3)
        exact = simpson_theta(params)

        # independent MC with a standard error estimate
        rng = np.random.default_rng(71)
        draws = []
        while len(draws) < 10_000:
            n = sample_cluster_structure(params, rng).n
            if n < 2:
                continue
            rt = build_log_r_table(n, params, mode="frontier", i_min=2)
            draws.append(prob_distinct_pair(n, params, rt))
        draws = np.asarray(draws)
        se = draws.std() / math.sqrt(len(draws))
        assert abs(exact - draws.mean()) < 3 * se


class TestPosteriorSummaries:
    def test_constant_draws(self):
        s = summarize([0.4] * 10)
        assert s.mean == s.median == 0.4
        assert s.lo50 == s.hi50 == s.lo95 == s.hi95 == 0.4

    def test_linear_interpolation_example(self):
        values = [round(0.1 * k, 10) for k in range(1, 11)]
        s = summarize(values)
        assert s.median == pytest.approx(0.55)
        assert s.lo95 == pytest.approx(0.1225)
        assert s.hi95 == pytest.approx(0.9775)
        assert s.lo50 == pytest.approx(0.325)
        assert s.hi50 == pytest.approx(0.775)

    def test_posterior_simpson_accepts_pairs(self):
        pairs = [(Params(g, 0.0, 0.5), g / (1 + g)) for g in (1.0, 2.0, 4.0)]
        s = posterior_simpson(pairs)
        assert s.mean == pytest.approx(np.mean([0.5, 2 / 3, 0.8]))

    def test_posterior_simpson_accepts_plain_values(self):
        s = posterior_simpson([0.2, 0.4])
        assert s.mean == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_coverage_helpers(self):
        s = summarize([0.1, 0.2, 0.3, 0.4])
        assert s.covers95(0.25)
        assert not s.covers50(0.9)
