import math

import numpy as np
import pytest
from scipy.special import gammaln

from gnbp import build_stirling_table, log_gamma_ratio, log_sum_exp
from gnbp.core_math import log_gamma

from oracles import gamma_ratio_signed, stirling_by_composition_sum, stirling_by_cycle_count

A_GRID = [-2.0, -1.0, -0.5, 0.0, 0.3, 0.5, 0.9]


class TestLogSumExp:
    def test_two_equal_terms(self):
        assert log_sum_exp([math.log(1), math.log(1)]) == pytest.approx(math.log(2))

    def test_singleton_is_exact(self):
        assert log_sum_exp([-3.7]) == -3.7

    def test_three_and_seven(self):
        assert log_sum_exp([math.log(3), math.log(7)]) == pytest.approx(math.log(10))

    def test_empty_and_all_neg_inf(self):
        assert log_sum_exp([]) == -math.inf
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf

    def test_neg_inf_entries_ignored(self):
        assert log_sum_exp([-math.inf, 0.0]) == pytest.approx(0.0)

    def test_large_shift(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + math.log(2))


class TestLogGamma:
    # geometric grid over [1e-8, 1e8] plus dense points around the zeros at 1 and 2
    X = np.concatenate(
        [
            np.geomspace(1e-8, 1e8, 4001),
            1.0 + np.linspace(-0.25, 0.25, 1001),
            2.0 + np.linspace(-0.25, 0.25, 1001),
        ]
    )

    def _assert_close(self, got, want):
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        assert float(np.max(err)) <= 1e-14

    def test_matches_scipy_gammaln(self):
        self._assert_close(log_gamma(self.X), gammaln(self.X))

    def test_matches_math_lgamma(self):
        self._assert_close(log_gamma(self.X), np.array([math.lgamma(x) for x in self.X]))


class TestLogGammaRatio:
    def test_n1_is_zero(self):
        for a in A_GRID:
            assert log_gamma_ratio(1, a) == 0.0

    def test_n3_a0(self):
        assert log_gamma_ratio(3, 0.0) == pytest.approx(math.log(2.0), abs=1e-14)

    def test_n4_a_half(self):
        # product 0.5 * 1.5 * 2.5 = 1.875
        assert log_gamma_ratio(4, 0.5) == pytest.approx(math.log(1.875), abs=1e-14)

    @pytest.mark.parametrize("n", [2, 10, 64, 65, 200, 2586])
    @pytest.mark.parametrize("a", A_GRID)
    def test_sum_and_lgamma_strategies_agree(self, n, a):
        s = math.fsum(math.log(i - a) for i in range(1, n))
        g = log_gamma_ratio(n, a)
        assert g == pytest.approx(s, rel=1e-12, abs=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            log_gamma_ratio(0, 0.5)
        with pytest.raises(ValueError):
            log_gamma_ratio(3, 1.0)


class TestGammaRatioSigned:
    def test_positive_case(self):
        sign, mag = gamma_ratio_signed(3, 1.0)
        assert sign == 1
        assert mag == pytest.approx(math.log(6.0))

    def test_negative_case(self):
        sign, mag = gamma_ratio_signed(2, -0.5)
        assert sign == -1
        assert mag == pytest.approx(math.log(0.25))

    def test_zero_factor(self):
        assert gamma_ratio_signed(1, 0.0) == (0, -math.inf)

    def test_matches_lgamma_on_positive_arguments(self):
        sign, mag = gamma_ratio_signed(5, 2.3)
        assert sign == 1
        assert mag == pytest.approx(float(gammaln(7.3) - gammaln(2.3)), rel=1e-12)


class TestStirlingTable:
    def test_diagonal_is_exactly_zero(self):
        for a in A_GRID:
            table = build_stirling_table(40, a)
            for n in range(1, 41):
                assert table.entry(n, n) == 0.0

    def test_first_column_is_gamma_ratio(self):
        for a in A_GRID:
            table = build_stirling_table(60, a)
            for n in range(1, 61):
                assert table.entry(n, 1) == pytest.approx(
                    log_gamma_ratio(n, a), rel=1e-12, abs=1e-12
                )

    def test_unsigned_stirling_numbers_at_zero_discount(self):
        table = build_stirling_table(4, 0.0)
        by_cycles = stirling_by_cycle_count(4)
        assert math.exp(table.entry(4, 2)) == pytest.approx(by_cycles[2], rel=1e-12)
        assert by_cycles[2] == 11

    def test_half_discount_hand_value(self):
        table = build_stirling_table(3, 0.5)
        assert math.exp(table.entry(3, 2)) == pytest.approx(1.5, rel=1e-12)

    @pytest.mark.parametrize("a", A_GRID)
    def test_composition_sum_oracle(self, a):
        table = build_stirling_table(8, a)
        for n in range(1, 9):
            for l in range(1, n + 1):
                expected = stirling_by_composition_sum(n, l, a)
                assert math.exp(table.entry(n, l)) == pytest.approx(
                    expected, rel=1e-9
                )

    @pytest.mark.parametrize("a", A_GRID)
    def test_recursion_residual(self, a):
        table = build_stirling_table(101, a)
        for n in range(1, 100):
            for l in range(1, n + 1):
                lhs = table.entry(n + 1, l)
                rhs = np.logaddexp(
                    math.log(n - a * l) + table.entry(n, l), table.entry(n, l - 1)
                )
                assert abs(math.expm1(rhs - lhs)) < 1e-10

    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_row_sums_give_rising_factorials_at_zero_discount(self, gamma):
        table = build_stirling_table(30, 0.0)
        for n in range(1, 31):
            row = table.row(n)
            weights = np.arange(n + 1) * math.log(gamma) + row
            total = log_sum_exp(weights)
            expected = float(gammaln(n + gamma) - gammaln(gamma))
            assert total == pytest.approx(expected, rel=1e-8, abs=1e-8)

    def test_incremental_extension_matches_fresh_build(self):
        grown = build_stirling_table(5, 0.3)
        grown.ensure(25)
        fresh = build_stirling_table(25, 0.3)
        for n in range(26):
            np.testing.assert_array_equal(grown.row(n), fresh.row(n))

    def test_entry_zero_zero_convention(self):
        table = build_stirling_table(3, 0.5)
        assert table.entry(0, 0) == 0.0

    def test_rejects_discount_of_one_or_more(self):
        with pytest.raises(ValueError):
            build_stirling_table(10, 1.0)
        with pytest.raises(ValueError):
            build_stirling_table(0, 0.5)

    def test_rejects_out_of_range_indices(self):
        table = build_stirling_table(5, 0.5)
        with pytest.raises(ValueError):
            table.entry(3, 4)
        with pytest.raises(ValueError):
            table.entry(-1, 0)
