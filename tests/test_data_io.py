import math

import numpy as np
import pytest

from gnbp import (
    FrequencyCounts,
    bundled_datasets,
    format_frequency_counts,
    parse_frequency_counts,
    subsample_without_replacement,
    to_assignments,
    to_cluster_sizes,
)


class TestParse:
    def test_csv(self):
        fc = parse_frequency_counts("1,2\n2,1\n3,2")
        assert fc.entries == ((1, 2), (2, 1), (3, 2))
        assert fc.n == 10 and fc.l == 5

    def test_csv_with_header(self):
        fc = parse_frequency_counts("multiplicity,count\n1,2\n2,1\n3,2")
        assert fc.n == 10 and fc.l == 5

    def test_non_integral_first_row_rejected(self):
        # a first line with a number in it is data, never a header
        with pytest.raises(ValueError, match="line 1"):
            parse_frequency_counts("1,3.7\n2,1\n")
        with pytest.raises(ValueError, match="line 1"):
            parse_frequency_counts("size,3\n2,1\n")
        assert parse_frequency_counts("size,count\n2,1\n").entries == ((2, 1),)

    def test_json(self):
        fc = parse_frequency_counts('{"counts": [[1, 2], [2, 1], [3, 2]]}')
        assert fc.n == 10 and fc.l == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            parse_frequency_counts("")
        with pytest.raises(ValueError):
            parse_frequency_counts("   \n  ")

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            parse_frequency_counts("2,0")

    def test_duplicate_multiplicity_rejected(self):
        with pytest.raises(ValueError):
            parse_frequency_counts("1,2\n1,3")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            parse_frequency_counts("1,2\n3")
        with pytest.raises(ValueError):
            parse_frequency_counts("1,2\nx,y")

    def test_bad_json_rejected(self):
        with pytest.raises(ValueError):
            parse_frequency_counts('{"rows": [[1, 2]]}')
        with pytest.raises(ValueError):
            parse_frequency_counts('{"counts": []}')


class TestConversions:
    def test_worked_example(self):
        fc = FrequencyCounts(((1, 2), (2, 1), (3, 2)))
        assert to_cluster_sizes(fc).sizes == (1, 1, 2, 3, 3)
        assert to_assignments(fc).labels == (1, 2, 3, 3, 4, 4, 4, 5, 5, 5)

    def test_single_singleton(self):
        fc = FrequencyCounts(((1, 1),))
        assert to_cluster_sizes(fc).sizes == (1,)
        assert to_assignments(fc).labels == (1,)

    def test_round_trip(self):
        fc = FrequencyCounts(((1, 4), (3, 2), (7, 1)))
        again = parse_frequency_counts(format_frequency_counts(fc))
        assert again == fc
        assert to_cluster_sizes(again).sizes == to_cluster_sizes(fc).sizes

    def test_counts_consistent_with_expansion(self):
        for fc in bundled_datasets().values():
            sizes = to_cluster_sizes(fc)
            z = to_assignments(fc)
            assert fc.n == sizes.n == z.n
            assert fc.l == sizes.l == z.num_clusters
            assert sorted(sizes.sizes) == sorted(z.cluster_sizes().sizes)


class TestBundledDatasets:
    def test_names(self):
        assert set(bundled_datasets()) == {
            "est-tomato",
            "tcr-treg-healthy-1",
            "tcr-treg-diabetic-1",
        }

    def test_est(self):
        fc = bundled_datasets()["est-tomato"]
        assert fc.n == 2586 and fc.l == 1825

    def test_treg_healthy(self):
        fc = bundled_datasets()["tcr-treg-healthy-1"]
        assert fc.n == 88 and fc.l == 55

    def test_treg_diabetic(self):
        fc = bundled_datasets()["tcr-treg-diabetic-1"]
        assert fc.n == 97 and fc.l == 14


class TestSubsample:
    def test_full_subsample_preserves_sizes(self):
        z = to_assignments(FrequencyCounts(((1, 2), (2, 1), (3, 2))))
        rng = np.random.default_rng(0)
        sub = subsample_without_replacement(z, z.n, rng)
        assert sorted(sub.cluster_sizes().sizes) == sorted(z.cluster_sizes().sizes)

    def test_single_element(self):
        z = to_assignments(FrequencyCounts(((3, 2),)))
        rng = np.random.default_rng(1)
        sub = subsample_without_replacement(z, 1, rng)
        assert sub.labels == (1,)

    def test_rejects_oversized_requests(self):
        z = to_assignments(FrequencyCounts(((1, 3),)))
        rng = np.random.default_rng(2)
        with pytest.raises(ValueError):
            subsample_without_replacement(z, 4, rng)
        with pytest.raises(ValueError):
            subsample_without_replacement(z, 0, rng)

    def test_expected_distinct_species_matches_closed_form(self):
        # E[distinct] = sum_k (1 - C(n - n_k, m) / C(n, m)), an inclusion
        # probability computation independent of the sampler
        z = to_assignments(bundled_datasets()["est-tomato"])
        sizes = z.cluster_sizes().sizes
        n, m = z.n, 50

        def log_comb_ratio(nk):
            # C(n - nk, m) / C(n, m) = prod_{t=0}^{m-1} (n - nk - t)/(n - t)
            if n - nk < m:
                return -math.inf
            return sum(
                math.log(n - nk - t) - math.log(n - t) for t in range(m)
            )

        expected = sum(1.0 - math.exp(log_comb_ratio(nk)) for nk in sizes)

        rng = np.random.default_rng(3)
        reps = 10_000
        observed = np.array(
            [
                subsample_without_replacement(z, m, rng).num_clusters
                for _ in range(reps)
            ],
            dtype=float,
        )
        se = observed.std() / math.sqrt(reps)
        assert abs(observed.mean() - expected) < 3 * se
