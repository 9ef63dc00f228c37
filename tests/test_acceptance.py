"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with -s to see them live) and enforcing the stated tolerances
and runtime budgets.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest
from scipy.special import gammaln

from gnbp import (
    Assignments,
    ChainConfig,
    ClusterSizes,
    Params,
    addition_rule_residual,
    build_log_r_table,
    build_stirling_table,
    bundled_datasets,
    cluster_count_pmf,
    enumerate_set_partitions,
    gcrsf_log_eppf,
    gibbs_sweep,
    gnb_log_pmf,
    kappa,
    log_weighted_stirling_sum,
    prob_distinct_pair,
    sample_cluster_structure,
    sample_crm_counts,
    sequential_sample,
    sequential_step_probs,
    simpson_sample_estimate,
    to_cluster_sizes,
    update_gamma0,
    update_p,
)
from gnbp.cli import main, run_table1_study

from oracles import collect_counts, tv_distance_counts, tv_distance_vectors

GAMMAS = [0.1, 1.0, 10.0]
DISCOUNTS = [-2.0, -1.0, 0.0, 0.5, 0.9]
PS = [0.1, 0.5, 0.9]


def report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_sample_estimator_exactness():
    sizes = to_cluster_sizes(bundled_datasets()["est-tomato"])
    value = simpson_sample_estimate(sizes)  # warm caches
    t0 = time.perf_counter()
    value = simpson_sample_estimate(sizes)
    elapsed = time.perf_counter() - t0
    ok = abs(value - 0.99931) <= 5e-5 and elapsed < 1e-3
    report(1, ok, f"EST estimate {value:.6f} vs 0.99931, {elapsed * 1e6:.0f} us")


def test_criterion_02_eppf_normalization():
    t0 = time.perf_counter()
    profiles_by_n = {}
    for n in range(2, 9):
        counts = Counter()
        for z in enumerate_set_partitions(n):
            counts[tuple(sorted(Assignments(z).cluster_sizes().sizes))] += 1
        profiles_by_n[n] = counts
    worst = 0.0
    for a in DISCOUNTS:
        table = build_stirling_table(8, a)
        for g in GAMMAS:
            for p in PS:
                params = Params(g, a, p)
                for n, counts in profiles_by_n.items():
                    total = sum(
                        mult
                        * math.exp(gcrsf_log_eppf(ClusterSizes(prof), params, table))
                        for prof, mult in counts.items()
                    )
                    worst = max(worst, abs(total - 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 30.0
    report(2, ok, f"worst |sum - 1| = {worst:.2e} over 45 thetas x n=2..8, {elapsed:.1f}s")


def test_criterion_03_stirling_r_identity():
    t0 = time.perf_counter()
    worst = 0.0
    for a in DISCOUNTS:
        table = build_stirling_table(500, a)
        for g in GAMMAS:
            for p in PS:
                params = Params(g, a, p)
                for n in (10, 100, 500):
                    rt = build_log_r_table(n, params, mode="frontier", i_min=1)
                    lhs = log_weighted_stirling_sum(n, params, table)
                    rhs = (
                        math.log(g) - a * math.log(p) + rt.entry(1, 1)
                    )
                    worst = max(worst, abs(lhs - rhs))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    report(3, ok, f"worst identity residual {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_distributional_agreement():
    t0 = time.perf_counter()
    draws = 100_000
    params = Params(1.0, 0.5, 0.5)
    rng = np.random.default_rng(2024_04)
    table = build_stirling_table(80, params.a)
    exact = np.array([math.exp(gnb_log_pmf(n, params, table)) for n in range(81)])
    emp, total = collect_counts(
        sample_cluster_structure(params, rng).n for _ in range(draws)
    )
    tv_cp = tv_distance_counts(emp, total, exact)

    params_neg = Params(1.0, -1.0, 0.5)
    table_neg = build_stirling_table(60, params_neg.a)
    exact_neg = np.array(
        [math.exp(gnb_log_pmf(n, params_neg, table_neg)) for n in range(61)]
    )
    emp_crm, t1 = collect_counts(
        sample_crm_counts(params_neg, rng).n for _ in range(draws)
    )
    emp_cp, t2 = collect_counts(
        sample_cluster_structure(params_neg, rng).n for _ in range(draws)
    )
    tv_crm_exact = tv_distance_counts(emp_crm, t1, exact_neg)
    tv_cp_exact = tv_distance_counts(emp_cp, t2, exact_neg)
    tv_pair = 0.5 * sum(
        abs(emp_crm.get(n, 0) / t1 - emp_cp.get(n, 0) / t2)
        for n in set(emp_crm) | set(emp_cp)
    )
    elapsed = time.perf_counter() - t0
    ok = (
        tv_cp < 0.015
        and tv_crm_exact < 0.02
        and tv_cp_exact < 0.02
        and tv_pair < 0.02
        and elapsed < 20.0
    )
    report(
        4,
        ok,
        f"TV compound={tv_cp:.4f}, crm-exact={tv_crm_exact:.4f}, "
        f"cp-exact={tv_cp_exact:.4f}, crm-cp={tv_pair:.4f}, {elapsed:.1f}s",
    )


def test_criterion_05_sampler_correctness():
    t0 = time.perf_counter()
    params = Params(1.0, 0.5, 0.5)
    n = 10
    table = build_stirling_table(n, params.a)
    rt = build_log_r_table(n, params, mode="full")
    exact_l = cluster_count_pmf(n, params, table)
    rng = np.random.default_rng(2024_05)
    draws = 100_000
    labels = sequential_sample(n, params, rt, rng, draws)
    freq = np.bincount(labels.max(axis=1), minlength=n + 1)
    tv_seq = tv_distance_vectors(freq / draws, exact_l)

    params4 = Params(2.0, 0.5, 0.3)
    table4 = build_stirling_table(4, params4.a)
    exact_parts = {
        z: math.exp(gcrsf_log_eppf(Assignments(z).cluster_sizes(), params4, table4))
        for z in enumerate_set_partitions(4)
    }
    z = Assignments((1, 1, 1, 1))
    counts = Counter()
    burn, keep = 1_000, 100_000
    for t in range(burn + keep):
        z = gibbs_sweep(z, params4, rng)
        if t >= burn:
            counts[z.labels] += 1
    tv_gibbs = 0.5 * sum(
        abs(counts.get(k, 0) / keep - v) for k, v in exact_parts.items()
    )
    elapsed = time.perf_counter() - t0
    ok = tv_seq < 0.02 and tv_gibbs < 0.03 and elapsed < 60.0
    report(5, ok, f"TV sequential={tv_seq:.4f}, gibbs={tv_gibbs:.4f}, {elapsed:.1f}s")


def test_criterion_06_zero_discount_reductions():
    params = Params(1.5, 0.0, 0.4)
    worst_step = 0.0
    n = 10
    rt = build_log_r_table(n, params, mode="full")
    for counts in ([1], [1, 1], [3, 2, 1], [4, 2, 1, 1]):
        i = sum(counts)
        probs = sequential_step_probs(counts, n, params, rt)
        crp = np.append(
            np.asarray(counts, dtype=float) / (i + params.gamma0),
            params.gamma0 / (i + params.gamma0),
        )
        worst_step = max(worst_step, float(np.max(np.abs(probs - crp))))

    worst_pair = 0.0
    expected = params.gamma0 / (1.0 + params.gamma0)
    for m in (2, 10, 100):
        rtm = build_log_r_table(m, params, mode="frontier", i_min=2)
        worst_pair = max(worst_pair, abs(prob_distinct_pair(m, params, rtm) - expected))

    table = build_stirling_table(100, 0.0)
    worst_pmf = 0.0
    for m in range(101):
        nb = (
            float(gammaln(m + params.gamma0) - gammaln(params.gamma0) - gammaln(m + 1))
            + m * math.log(params.p)
            + params.gamma0 * math.log1p(-params.p)
        )
        worst_pmf = max(worst_pmf, abs(gnb_log_pmf(m, params, table) - nb))

    ok = worst_step < 1e-10 and worst_pair < 1e-10 and worst_pmf < 1e-10
    report(
        6,
        ok,
        f"step={worst_step:.2e}, pair={worst_pair:.2e}, pmf={worst_pmf:.2e}",
    )


def test_criterion_07_size_dependence():
    params0 = Params(1.5, 0.0, 0.4)
    table0 = build_stirling_table(12, 0.0)
    worst0 = 0.0
    for sizes in (ClusterSizes((1, 1)), ClusterSizes((2, 1)), ClusterSizes((2,))):
        for n in (sizes.n + 1, 8, 12):
            worst0 = max(
                worst0, abs(addition_rule_residual(sizes, n, params0, table0))
            )

    params = Params(1.0, 0.5, 0.5)
    table = build_stirling_table(10, params.a)
    res = addition_rule_residual(ClusterSizes((1, 1)), 10, params, table)
    ok = worst0 < 1e-10 and abs(res) > 1e-3
    report(
        7,
        ok,
        f"zero-discount residual {worst0:.2e}; residual at (1,0.5,0.5) m=2 n=10 "
        f"is {res:.4e}",
    )


@pytest.mark.slow
def test_criterion_08_table1_desk_scale():
    t0 = time.perf_counter()
    detail, aggregate = run_table1_study(
        replicates=20,
        size=50,
        modes=("fixed=-1", "free"),
        seed=2024_08,
        iterations=2000,
        burn_in=1000,
        thin=5,
        a_grid_step=1e-3,
        p_grid_step=5e-3,
        workers=1,
    )
    elapsed = time.perf_counter() - t0
    by_mode = {row["mode"]: row for row in aggregate}
    free_bias = by_mode["free"]["mean_bias"]
    fixed_bias = by_mode["fixed=-1"]["mean_bias"]
    free_cov = by_mode["free"]["coverage95"]
    ok = (
        free_bias <= 5e-3
        and free_bias < fixed_bias
        and free_cov >= 0.80
        and elapsed < 1800.0
    )
    report(
        8,
        ok,
        f"free: bias {free_bias * 1e3:.2f}e-3, cov95 {free_cov:.0%}; "
        f"fixed=-1: bias {fixed_bias * 1e3:.2f}e-3, "
        f"cov95 {by_mode['fixed=-1']['coverage95']:.0%}; {elapsed:.0f}s",
    )


def test_criterion_09_conjugate_update_moments():
    data = ClusterSizes((1, 1, 2, 3, 3))
    cfg = ChainConfig()
    n_draws = 100_000

    params = Params(2.0, 0.5, 0.4)
    rng = np.random.default_rng(2024_09)
    g_draws = np.array([update_gamma0(data, params, cfg, rng) for _ in range(n_draws)])
    shape = cfg.e0 + data.l
    scale = 1.0 / (cfg.f0 + kappa(params))
    mean_se = math.sqrt(shape) * scale / math.sqrt(n_draws)
    var_exact = shape * scale**2
    var_se = var_exact * math.sqrt((2.0 + 6.0 / shape) / n_draws)
    g_mean_ok = abs(g_draws.mean() - shape * scale) < 3 * mean_se
    g_var_ok = abs(g_draws.var() - var_exact) < 3 * var_se

    params0 = Params(2.0, 0.0, 0.4)
    p_draws = np.array([update_p(data, params0, cfg, rng) for _ in range(n_draws)])
    alpha, beta = 1.0 + data.n, 1.0 + params0.gamma0
    b_mean = alpha / (alpha + beta)
    b_var = alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1.0))
    b_mean_se = math.sqrt(b_var / n_draws)
    m4 = float(np.mean((p_draws - p_draws.mean()) ** 4))
    b_var_se = math.sqrt(max(m4 - b_var**2, 0.0) / n_draws)
    p_mean_ok = abs(p_draws.mean() - b_mean) < 3 * b_mean_se
    p_var_ok = abs(p_draws.var() - b_var) < 3 * b_var_se

    ok = g_mean_ok and g_var_ok and p_mean_ok and p_var_ok
    report(
        9,
        ok,
        f"gamma mean/var ok: {g_mean_ok}/{g_var_ok}; "
        f"beta mean/var ok: {p_mean_ok}/{p_var_ok}",
    )


def test_criterion_10_determinism(tmp_path):
    args = [
        "estimate", "--dataset", "tcr-treg-diabetic-1", "--seed", "7",
        "--iterations", "80", "--burn-in", "30", "--thin", "1",
        "--a-grid-step", "0.002", "--p-grid-step", "0.005",
    ]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1 = (out1 / "draws.csv").read_bytes()
    b2 = (out2 / "draws.csv").read_bytes()
    ok = b1 == b2 and len(b1) > 0
    report(10, ok, f"draws CSV identical across runs ({len(b1)} bytes)")
