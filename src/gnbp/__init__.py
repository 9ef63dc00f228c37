"""Generalized negative binomial process species models.

A library and CLI for sample-size-dependent species modeling: exact
log-space evaluation of the model's partition probabilities, samplers
for its cluster structures, MCMC inference of the parameter triple
(gamma0, a, p), and nonparametric Bayesian estimation of Simpson's index
of diversity from species frequency-count data.
"""

from .core_math import (
    LogStirlingTable,
    build_stirling_table,
    gamma_ratio_signed,
    log_gamma_ratio,
    log_sum_exp,
)
from .data_io import (
    FrequencyCounts,
    bundled_datasets,
    format_frequency_counts,
    parse_frequency_counts,
    subsample_without_replacement,
    to_assignments,
    to_cluster_sizes,
)
from .distributions import (
    ClusterSizes,
    Params,
    gnb_log_pmf,
    gnb_mean,
    kappa,
    log_weighted_stirling_sum,
    sample_cluster_structure,
    sample_crm_counts,
    tnb_log_pmf,
    tnb_sample,
)
from .diversity import (
    PosteriorSummary,
    posterior_simpson,
    prob_distinct_pair,
    simpson_sample_estimate,
    simpson_theta,
    summarize,
)
from .inference import (
    ChainConfig,
    PosteriorDraw,
    a_mode_allows,
    parse_a_mode,
    run_chain,
    update_a_griddy,
    update_gamma0,
    update_p,
)
from .partitions import (
    Assignments,
    LogRTable,
    addition_rule_residual,
    as_blocks,
    build_log_r_table,
    canonicalize_labels,
    cluster_count_pmf,
    ecpf_log,
    enumerate_set_partitions,
    gcrsf_log_eppf,
    gibbs_sweep,
    sequential_sample,
    sequential_step_probs,
    subset_cluster_count_pmf,
    subset_marginal_log,
)

__version__ = "0.1.0"

__all__ = [
    "Assignments",
    "ChainConfig",
    "ClusterSizes",
    "FrequencyCounts",
    "LogRTable",
    "LogStirlingTable",
    "Params",
    "PosteriorDraw",
    "PosteriorSummary",
    "a_mode_allows",
    "addition_rule_residual",
    "as_blocks",
    "build_log_r_table",
    "build_stirling_table",
    "bundled_datasets",
    "canonicalize_labels",
    "cluster_count_pmf",
    "ecpf_log",
    "enumerate_set_partitions",
    "format_frequency_counts",
    "gamma_ratio_signed",
    "gcrsf_log_eppf",
    "gibbs_sweep",
    "gnb_log_pmf",
    "gnb_mean",
    "kappa",
    "log_gamma_ratio",
    "log_sum_exp",
    "log_weighted_stirling_sum",
    "parse_a_mode",
    "parse_frequency_counts",
    "posterior_simpson",
    "prob_distinct_pair",
    "run_chain",
    "sample_cluster_structure",
    "sample_crm_counts",
    "sequential_sample",
    "sequential_step_probs",
    "simpson_sample_estimate",
    "simpson_theta",
    "subsample_without_replacement",
    "subset_cluster_count_pmf",
    "subset_marginal_log",
    "summarize",
    "tnb_log_pmf",
    "tnb_sample",
    "to_assignments",
    "to_cluster_sizes",
    "update_a_griddy",
    "update_gamma0",
    "update_p",
]
