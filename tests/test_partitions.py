import math
from collections import Counter

import numpy as np
import pytest
from scipy.special import gammaln

from gnbp import (
    Assignments,
    ClusterSizes,
    Params,
    addition_rule_residual,
    as_blocks,
    build_log_r_table,
    build_stirling_table,
    canonicalize_labels,
    cluster_count_pmf,
    ecpf_log,
    enumerate_set_partitions,
    gcrsf_log_eppf,
    gibbs_sweep,
    gnb_log_pmf,
    kappa,
    log_weighted_stirling_sum,
    sequential_sample,
    sequential_step_probs,
    subset_cluster_count_pmf,
    subset_marginal_log,
)

from oracles import BELL, sequential_sample_reference, tv_distance_vectors

THETA = Params(1.0, 0.5, 0.5)


def sizes_of(labels):
    return Assignments(labels).cluster_sizes()


class TestAssignments:
    def test_canonical_accepted(self):
        z = Assignments((1, 2, 3, 3, 4, 4, 4, 5, 5, 5))
        assert z.n == 10 and z.num_clusters == 5
        assert z.cluster_sizes().sizes == (1, 1, 2, 3, 3)

    def test_non_canonical_rejected(self):
        with pytest.raises(ValueError):
            Assignments((2, 1))
        with pytest.raises(ValueError):
            Assignments((1, 3))

    def test_prefix(self):
        z = Assignments((1, 2, 1, 3))
        assert z.prefix(2).labels == (1, 2)

    def test_blocks(self):
        z = Assignments((1, 2, 1))
        assert as_blocks(z) == (frozenset({0, 2}), frozenset({1}))


class TestCanonicalization:
    @pytest.mark.parametrize(
        "labels", [(5, 3, 5, 1), (1, 1, 1), (9, 9, 2, 9, 2, 7), (4,)]
    )
    def test_idempotent_and_size_preserving(self, labels):
        once = canonicalize_labels(labels)
        assert canonicalize_labels(once) == once
        before = sorted(Counter(labels).values())
        after = sorted(Counter(once).values())
        assert before == after
        Assignments(once)  # canonical by construction


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_counts_match_bell_numbers(self, n):
        parts = list(enumerate_set_partitions(n))
        assert len(parts) == BELL[n]
        assert len(set(parts)) == BELL[n]

    def test_cap(self):
        with pytest.raises(ValueError):
            list(enumerate_set_partitions(11))


class TestEcpf:
    def test_singleton_closed_form(self):
        for params in (THETA, Params(2.0, -1.0, 0.3)):
            expected = (
                -params.gamma0 * kappa(params)
                + math.log(params.gamma0)
                + (1 - params.a) * math.log(params.p)
            )
            assert ecpf_log(ClusterSizes((1,)), params) == pytest.approx(
                expected, rel=1e-12
            )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sums_to_marginal_count_pmf(self, n):
        table = build_stirling_table(n, THETA.a)
        total = sum(
            math.exp(ecpf_log(sizes_of(z), THETA))
            for z in enumerate_set_partitions(n)
        )
        assert total == pytest.approx(
            math.exp(gnb_log_pmf(n, THETA, table)), rel=1e-10
        )

    def test_zero_discount_factorization(self):
        # e^{gamma0 log(1-p)} gamma0^l p^n prod (n_k - 1)! / n!
        params = Params(1.5, 0.0, 0.4)
        sizes = ClusterSizes((3, 1, 2))
        expected = (
            params.gamma0 * math.log1p(-params.p)
            + sizes.l * math.log(params.gamma0)
            + sizes.n * math.log(params.p)
            + sum(float(gammaln(s)) for s in sizes.sizes)
            - float(gammaln(sizes.n + 1))
        )
        assert ecpf_log(sizes, params) == pytest.approx(expected, rel=1e-12)


class TestEppf:
    def test_single_element_is_certain(self):
        table = build_stirling_table(1, THETA.a)
        assert gcrsf_log_eppf(ClusterSizes((1,)), THETA, table) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_pair_probability_at_zero_discount(self):
        params = Params(2.0, 0.0, 0.5)
        table = build_stirling_table(2, 0.0)
        same = math.exp(gcrsf_log_eppf(ClusterSizes((2,)), params, table))
        assert same == pytest.approx(1.0 / (1.0 + params.gamma0), rel=1e-12)

    def test_normalizes_over_partitions_of_four(self):
        params = Params(2.0, 0.5, 0.3)
        table = build_stirling_table(4, params.a)
        total = sum(
            math.exp(gcrsf_log_eppf(sizes_of(z), params, table))
            for z in enumerate_set_partitions(4)
        )
        assert total == pytest.approx(1.0, abs=1e-10)

    def test_bayes_consistency_with_ecpf(self):
        table = build_stirling_table(10, THETA.a)
        for labels in ((1, 1, 2, 3, 1), (1, 2, 3, 4, 5), (1, 1, 1, 1)):
            sizes = sizes_of(labels)
            lhs = gcrsf_log_eppf(sizes, THETA, table)
            rhs = ecpf_log(sizes, THETA) - gnb_log_pmf(sizes.n, THETA, table)
            assert lhs == pytest.approx(rhs, abs=1e-10)


class TestLogRTable:
    def test_boundary_row_is_zero(self):
        rt = build_log_r_table(7, THETA, mode="full")
        for j in range(1, 8):
            assert rt.entry(7, j) == 0.0

    def test_zero_discount_closed_form(self):
        params = Params(1.5, 0.0, 0.4)
        n = 12
        rt = build_log_r_table(n, params, mode="full")
        for i in range(1, n + 1):
            expected = float(gammaln(n + params.gamma0) - gammaln(i + params.gamma0))
            for j in range(1, i + 1):
                assert rt.entry(i, j) == pytest.approx(expected, rel=1e-12)

    def test_weighted_stirling_sum_identity(self):
        params = Params(2.0, 0.5, 0.3)
        n = 50
        table = build_stirling_table(n, params.a)
        rt = build_log_r_table(n, params, mode="frontier", i_min=1)
        lhs = log_weighted_stirling_sum(n, params, table)
        rhs = math.log(params.gamma0) - params.a * math.log(params.p) + rt.entry(1, 1)
        assert abs(lhs - rhs) < 1e-8

    def test_recursion_residual(self):
        rt = build_log_r_table(20, THETA, mode="full")
        a = THETA.a
        log_new = math.log(THETA.gamma0) - a * math.log(THETA.p)
        for i in range(1, 19):
            for j in range(1, i + 1):
                rhs = np.logaddexp(
                    math.log(i - a * j) + rt.entry(i + 1, j),
                    log_new + rt.entry(i + 1, j + 1),
                )
                assert abs(math.expm1(rhs - rt.entry(i, j))) < 1e-12

    def test_frontier_mode_matches_full(self):
        rt_full = build_log_r_table(30, THETA, mode="full")
        rt_frontier = build_log_r_table(30, THETA, mode="frontier", i_min=2)
        for i in (1, 2):
            for j in range(1, i + 1):
                assert rt_frontier.entry(i, j) == rt_full.entry(i, j)
        assert not rt_frontier.has_row(5)
        with pytest.raises(ValueError):
            rt_frontier.entry(5, 1)


class TestSequentialSampler:
    def test_step_probabilities_sum_to_one(self):
        n = 12
        rt = build_log_r_table(n, THETA, mode="full")
        states = [[1], [1, 1], [2, 1], [3, 2, 1], [5, 3, 2, 1]]
        for counts in states:
            probs = sequential_step_probs(counts, n, THETA, rt)
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
            assert (probs >= 0).all()

    def test_zero_discount_steps_match_crp(self):
        params = Params(1.5, 0.0, 0.4)
        n = 10
        rt = build_log_r_table(n, params, mode="full")
        counts = [3, 2, 1]
        i = sum(counts)
        probs = sequential_step_probs(counts, n, params, rt)
        crp = np.append(
            np.array(counts, dtype=float) / (i + params.gamma0),
            params.gamma0 / (i + params.gamma0),
        )
        np.testing.assert_allclose(probs, crp, atol=1e-12)

    def test_cluster_count_distribution(self):
        n = 10
        table = build_stirling_table(n, THETA.a)
        rt = build_log_r_table(n, THETA, mode="full")
        exact = cluster_count_pmf(n, THETA, table)
        rng = np.random.default_rng(31)
        draws = 30_000
        labels = sequential_sample(n, THETA, rt, rng, draws)
        freq = np.bincount(labels.max(axis=1), minlength=n + 1)
        assert tv_distance_vectors(freq / draws, exact) < 0.02

    @pytest.mark.parametrize(
        "n, params, size, seed",
        [
            (12, Params(1.0, 0.0, 0.5), 400, 61),
            (12, Params(1.0, 0.5, 0.5), 400, 62),
            (12, Params(1.0, -1.0, 0.5), 400, 63),
            (300, Params(50.0, 0.9, 0.5), 20, 64),
            (12, Params(1.0, 0.5, 0.5), 0, 65),
            (1, Params(1.0, 0.5, 0.5), 5, 66),
        ],
    )
    def test_matches_per_draw_reference(self, n, params, size, seed):
        rt = build_log_r_table(n, params, mode="full")
        rng_ref, rng = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = [sequential_sample_reference(n, params, rt, rng_ref) for _ in range(size)]
        got = sequential_sample(n, params, rt, rng, size)
        assert got.dtype == np.int32 and got.shape == (size, n)
        assert np.array_equal(got, np.array(expected, dtype=np.int32).reshape(size, n))
        assert rng.random() == rng_ref.random()  # the same uniforms were used

    def test_rejects_negative_size(self):
        rt = build_log_r_table(10, THETA, mode="full")
        with pytest.raises(ValueError):
            sequential_sample(10, THETA, rt, np.random.default_rng(0), -1)

    def test_rejects_frontier_table(self):
        rt = build_log_r_table(10, THETA, mode="frontier", i_min=2)
        with pytest.raises(ValueError):
            sequential_sample(10, THETA, rt, np.random.default_rng(0), 1)

    def test_rejects_mismatched_table(self):
        rt = build_log_r_table(10, THETA, mode="full")
        with pytest.raises(ValueError):
            sequential_sample(9, THETA, rt, np.random.default_rng(0), 1)


class TestGibbsSweep:
    def test_single_element_fixed(self):
        z = Assignments((1,))
        out = gibbs_sweep(z, THETA, np.random.default_rng(0))
        assert out.labels == (1,)

    def test_pair_probability_at_zero_discount(self):
        # conditional for the second of two elements: join with weight 1,
        # split with weight gamma0, so P(same) = 1 / (1 + gamma0)
        params = Params(1.0, 0.0, 0.5)
        rng = np.random.default_rng(17)
        z = Assignments((1, 1))
        same = 0
        sweeps = 40_000
        for _ in range(sweeps):
            z = gibbs_sweep(z, params, rng)
            same += z.num_clusters == 1
        assert same / sweeps == pytest.approx(0.5, abs=0.02)

    def test_long_run_matches_partition_law(self):
        params = Params(2.0, 0.5, 0.3)
        table = build_stirling_table(4, params.a)
        exact = {
            z: math.exp(gcrsf_log_eppf(sizes_of(z), params, table))
            for z in enumerate_set_partitions(4)
        }
        rng = np.random.default_rng(41)
        z = Assignments((1, 1, 1, 1))
        counts = Counter()
        burn, keep = 500, 30_000
        for t in range(burn + keep):
            z = gibbs_sweep(z, params, rng)
            if t >= burn:
                counts[z.labels] += 1
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / keep - v) for k, v in exact.items()
        )
        assert tv < 0.03

    def test_agrees_with_sequential_sampler_on_partitions(self):
        params = Params(1.0, 0.5, 0.5)
        n = 4
        rng = np.random.default_rng(47)
        rt = build_log_r_table(n, params, mode="full")
        draws = 100_000
        seq_counts = Counter(map(tuple, sequential_sample(n, params, rt, rng, draws).tolist()))
        gibbs_counts = Counter()
        z = Assignments((1, 1, 1, 1))
        burn, keep = 1_000, 100_000
        for t in range(burn + keep):
            z = gibbs_sweep(z, params, rng)
            if t >= burn:
                gibbs_counts[z.labels] += 1
        keys = set(seq_counts) | set(gibbs_counts)
        tv = 0.5 * sum(
            abs(seq_counts.get(k, 0) / draws - gibbs_counts.get(k, 0) / keep)
            for k in keys
        )
        assert tv < 0.04


class TestClusterCountPmf:
    def test_sums_to_one(self):
        table = build_stirling_table(15, THETA.a)
        pmf = cluster_count_pmf(15, THETA, table)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert pmf[0] == 0.0

    def test_point_mass_for_single_element(self):
        table = build_stirling_table(1, THETA.a)
        pmf = cluster_count_pmf(1, THETA, table)
        np.testing.assert_allclose(pmf, [0.0, 1.0], atol=1e-15)

    def test_hand_computed_three_element_case(self):
        table = build_stirling_table(3, 0.5)
        pmf = cluster_count_pmf(3, THETA, table)
        unit = THETA.gamma0 * THETA.p ** (-0.5)
        raw = np.array([0.0, unit * 0.75, unit**2 * 1.5, unit**3 * 1.0])
        np.testing.assert_allclose(pmf, raw / raw.sum(), rtol=1e-12)


class TestSubsetMarginals:
    def test_full_prefix_equals_eppf(self):
        n = 6
        table = build_stirling_table(n, THETA.a)
        rt = build_log_r_table(n, THETA, mode="full")
        z = Assignments((1, 2, 1, 3, 2, 1))
        assert subset_marginal_log(z, n, THETA, table, rt) == pytest.approx(
            gcrsf_log_eppf(z.cluster_sizes(), THETA, table), abs=1e-12
        )

    def test_marginalization_consistency(self):
        n, i = 6, 3
        table = build_stirling_table(n, THETA.a)
        rt = build_log_r_table(n, THETA, mode="full")
        prefix = Assignments((1, 2, 1))
        target = math.exp(subset_marginal_log(prefix, n, THETA, table, rt))
        total = 0.0
        for k in (1, 2, 3):
            ext = Assignments(prefix.labels + (k,))
            total += math.exp(subset_marginal_log(ext, n, THETA, table, rt))
        assert total == pytest.approx(target, rel=1e-12)

    def test_zero_discount_is_size_independent(self):
        params = Params(1.5, 0.0, 0.4)
        prefix = Assignments((1, 2, 1))
        vals = []
        for n in (3, 5, 10, 40):
            table = build_stirling_table(n, 0.0)
            rt = build_log_r_table(n, params, mode="full")
            vals.append(subset_marginal_log(prefix, n, params, table, rt))
        for v in vals[1:]:
            assert v == pytest.approx(vals[0], abs=1e-10)

    def test_positive_discount_is_size_dependent(self):
        prefix = Assignments((1, 2))
        out = []
        for n in (2, 10):
            table = build_stirling_table(n, THETA.a)
            rt = build_log_r_table(n, THETA, mode="full")
            out.append(subset_marginal_log(prefix, n, THETA, table, rt))
        assert abs(out[0] - out[1]) > 1e-4


class TestSubsetClusterCountPmf:
    def test_reduces_to_cluster_count_at_full_sample(self):
        n = 8
        table = build_stirling_table(n, THETA.a)
        rt = build_log_r_table(n, THETA, mode="full")
        sub = subset_cluster_count_pmf(n, n, THETA, table, rt)
        np.testing.assert_allclose(sub, cluster_count_pmf(n, THETA, table), rtol=1e-12)

    def test_sums_to_one(self):
        n = 10
        table = build_stirling_table(n, THETA.a)
        rt = build_log_r_table(n, THETA, mode="full")
        for i in (1, 2, 5, 9):
            pmf = subset_cluster_count_pmf(i, n, THETA, table, rt)
            assert pmf.sum() == pytest.approx(1.0, abs=1e-12)

    def test_matches_sequential_sampler_frequencies(self):
        n, i = 10, 2
        table = build_stirling_table(n, THETA.a)
        rt = build_log_r_table(n, THETA, mode="full")
        exact = subset_cluster_count_pmf(i, n, THETA, table, rt)
        rng = np.random.default_rng(53)
        draws = 30_000
        labels = sequential_sample(n, THETA, rt, rng, draws)
        freq = np.bincount(labels[:, :i].max(axis=1), minlength=i + 1)
        assert tv_distance_vectors(freq / draws, exact) < 0.02


class TestAdditionRule:
    def test_zero_discount_satisfies_addition_rule(self):
        params = Params(1.5, 0.0, 0.4)
        table = build_stirling_table(12, 0.0)
        for sizes in (ClusterSizes((1, 1)), ClusterSizes((2, 1)), ClusterSizes((3,))):
            for n in (sizes.n + 1, 8, 12):
                res = addition_rule_residual(sizes, n, params, table)
                assert abs(res) < 1e-10

    def test_nonzero_discount_violates_addition_rule(self):
        table = build_stirling_table(10, THETA.a)
        res = addition_rule_residual(ClusterSizes((1, 1)), 10, THETA, table)
        assert abs(res) > 1e-3

    def test_self_consistency_under_common_sample_size(self):
        # extensions summed under the same n reproduce the prefix marginal
        n, m = 9, 3
        table = build_stirling_table(n, THETA.a)
        rt = build_log_r_table(n, THETA, mode="full")
        prefix = Assignments((1, 1, 2))
        base = math.exp(subset_marginal_log(prefix, n, THETA, table, rt))
        total = 0.0
        for k in (1, 2, 3):
            ext = Assignments(prefix.labels + (k,))
            total += math.exp(subset_marginal_log(ext, n, THETA, table, rt))
        assert total == pytest.approx(base, rel=1e-12)
