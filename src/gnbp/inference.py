"""MCMC posterior inference of (gamma0, a, p) from an observed cluster
structure.

The fully factorized joint likelihood of the labels and the sample size
gives a conjugate gamma update for the mass parameter; the discount and
probability parameters are sampled by griddy Gibbs, i.e. exact draws
from their conditionals discretized onto fixed grids.  The discount grid
lives in the transformed variable atil = 1 / (2 - a), which maps all of
a < 1 onto (0, 1); at a = 0 the probability parameter instead gets a
conjugate beta draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.special import gammaln

from .core_math import log_sum_exp
# Unused here, but perfbench/tracing.py wraps this name in this module.
from .core_math import build_stirling_table  # noqa: F401
from .distributions import (
    ZERO_DISCOUNT_TOL,
    ClusterSizes,
    Params,
    kappa,
    kappa_ap,
)
from .diversity import simpson_theta
from .partitions import ecpf_log


def parse_a_mode(mode: str) -> tuple[str, float | None]:
    """Split an a-mode token into (kind, fixed_value).

    Tokens: "free" (a < 1), "nonneg" (0 <= a < 1), "neg" (a < 0), and
    "fixed=V" for a point mass at V < 1.
    """
    if mode in ("free", "nonneg", "neg"):
        return mode, None
    if mode.startswith("fixed="):
        value = float(mode[len("fixed="):])
        if not value < 1.0:
            raise ValueError(f"fixed discount must satisfy a < 1, got {value}")
        return "fixed", value
    raise ValueError(f"unknown a_mode {mode!r}")


def a_mode_allows(mode: str, a: float) -> bool:
    kind, value = parse_a_mode(mode)
    if kind == "free":
        return a < 1.0
    if kind == "nonneg":
        return 0.0 <= a < 1.0
    if kind == "neg":
        return a < 0.0
    return a == value


@dataclass(frozen=True)
class ChainConfig:
    """Gibbs chain settings.

    Defaults follow the standard protocol for these models: 2000
    iterations with the first 1000 discarded, no thinning, and diffuse
    Gamma(e0, 1/f0) mass prior with e0 = f0 = 0.01.  Grid steps apply to
    the transformed discount atil = 1/(2 - a) and to p directly.
    """

    iterations: int = 2000
    burn_in: int = 1000
    thin: int = 1
    seed: int = 0
    e0: float = 0.01
    f0: float = 0.01
    a_mode: str = "free"
    a_grid_step: float = 1e-4
    p_grid_step: float = 1e-3
    init: Params | None = None

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError("iterations must be positive")
        if not 0 <= self.burn_in < self.iterations:
            raise ValueError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ValueError("thin must be positive")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be a 64-bit unsigned integer")
        if self.e0 <= 0 or self.f0 <= 0:
            raise ValueError("e0 and f0 must be positive")
        for step in (self.a_grid_step, self.p_grid_step):
            if not 0.0 < step < 0.5:
                raise ValueError(f"grid steps must lie in (0, 0.5), got {step}")
        parse_a_mode(self.a_mode)
        if self.init is not None and not a_mode_allows(self.a_mode, self.init.a):
            raise ValueError(
                f"initial discount {self.init.a} violates a_mode {self.a_mode!r}"
            )


@dataclass(frozen=True)
class PosteriorDraw:
    """One retained draw: the parameter triple, its log joint
    cluster-structure likelihood, and its diversity index."""

    iteration: int
    params: Params
    log_ecpf: float
    s_theta: float


def update_gamma0(
    sizes: ClusterSizes, params: Params, config: ChainConfig, rng: np.random.Generator
) -> float:
    """Conjugate draw: Gamma(e0 + l, 1 / (f0 + kappa(a, p))).

    kappa already carries the a -> 0 limit -log(1 - p), so the same
    expression covers every discount.
    """
    shape = config.e0 + sizes.l
    scale = 1.0 / (config.f0 + kappa(params))
    return float(rng.gamma(shape, scale))


def _a_grid(step: float) -> np.ndarray:
    m = int(round(1.0 / step))
    atil = np.arange(1, m, dtype=float) * step
    return 2.0 - 1.0 / atil


def _discount_data_term(sizes: ClusterSizes, a_values: np.ndarray) -> np.ndarray:
    """sum_k [lgamma(n_k - a) - lgamma(1 - a)] over grid values, with size
    multiplicities so ties cost one lgamma each."""
    term = -sizes.l * gammaln(1.0 - a_values)
    uniq, mult = sizes.size_multiplicities()
    for s, m in zip(uniq, mult):
        term += m * gammaln(s - a_values)
    return term


def a_grid_log_target(
    sizes: ClusterSizes,
    gamma0: float,
    p: float,
    a_values: np.ndarray,
    data_term: np.ndarray | None = None,
) -> np.ndarray:
    """Unnormalized log conditional of the discount over grid values:

        -gamma0 kappa(a, p) - a l log p
            + sum_k [lgamma(n_k - a) - lgamma(1 - a)]

    The last sum depends only on the data and the grid; a chain computes
    it once and passes it as ``data_term``.
    """
    if data_term is None:
        data_term = _discount_data_term(sizes, a_values)
    with np.errstate(over="ignore", invalid="ignore"):
        return data_term - gamma0 * kappa_ap(a_values, p) - a_values * (sizes.l * math.log(p))


def _discount_grid(sizes: ClusterSizes, config: ChainConfig) -> tuple[np.ndarray, np.ndarray]:
    """The atil grid's discount values allowed by a non-fixed a_mode, and
    their data term (see a_grid_log_target)."""
    kind, _ = parse_a_mode(config.a_mode)
    a_values = _a_grid(config.a_grid_step)
    if kind == "nonneg":
        a_values = a_values[a_values >= 0.0]
    elif kind == "neg":
        a_values = a_values[a_values < 0.0]
    return a_values, _discount_data_term(sizes, a_values)


def _grid_draw(values: np.ndarray, logw: np.ndarray, rng: np.random.Generator) -> float:
    norm = log_sum_exp(logw)
    if norm == float("-inf"):
        raise RuntimeError("every grid point has zero posterior mass")
    cdf = np.cumsum(np.exp(logw - norm))
    idx = int(np.searchsorted(cdf, rng.random()))
    return float(values[min(idx, len(values) - 1)])


def update_a_griddy(
    sizes: ClusterSizes,
    params: Params,
    config: ChainConfig,
    rng: np.random.Generator,
    grid: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Griddy Gibbs draw of the discount over the atil = 1/(2 - a) grid,
    restricted to the active a_mode; identity under a fixed mode.

    ``grid`` is the chain's cached (values, data term) pair; it is built
    here when not given.
    """
    kind, _ = parse_a_mode(config.a_mode)
    if kind == "fixed":
        return params.a
    a_values, data_term = _discount_grid(sizes, config) if grid is None else grid
    logw = a_grid_log_target(sizes, params.gamma0, params.p, a_values, data_term)
    return _grid_draw(a_values, logw, rng)


def update_p(
    sizes: ClusterSizes, params: Params, config: ChainConfig, rng: np.random.Generator
) -> float:
    """Draw of the probability parameter.

    At |a| below the zero-discount tolerance the conditional is conjugate,
    Beta(1 + n, 1 + gamma0); otherwise griddy Gibbs over the p grid with
    log weights -gamma0 kappa(a, p) + (n - a l) log p.
    """
    a = params.a
    if abs(a) < ZERO_DISCOUNT_TOL:
        return float(rng.beta(1.0 + sizes.n, 1.0 + params.gamma0))
    m = int(round(1.0 / config.p_grid_step))
    p_values = np.arange(1, m, dtype=float) * config.p_grid_step
    with np.errstate(over="ignore", invalid="ignore"):
        logw = -params.gamma0 * kappa_ap(a, p_values) + (
            sizes.n - a * sizes.l
        ) * np.log(p_values)
    return _grid_draw(p_values, logw, rng)


def _initial_params(sizes: ClusterSizes, config: ChainConfig) -> Params:
    kind, value = parse_a_mode(config.a_mode)
    if config.init is not None:
        return config.init
    gamma0 = float(max(sizes.l, 1))
    if kind == "fixed":
        a0 = value
    elif kind == "neg":
        a0 = -2.0
    else:
        a0 = 0.0
    p0 = sizes.n / (sizes.n + gamma0)
    return Params(gamma0, a0, p0)


def run_chain(sizes: ClusterSizes, config: ChainConfig) -> list[PosteriorDraw]:
    """Systematic-scan Gibbs over (gamma0, a, p).

    Retains every thin-th iteration after burn-in, recording for each
    draw the log joint cluster-structure likelihood and the diversity
    index at that draw.  Bit-reproducible for a fixed seed and
    configuration.
    """
    if sizes.n < 1:
        raise ValueError("need at least one observed individual")
    rng = np.random.default_rng(config.seed)
    params = _initial_params(sizes, config)
    fixed = parse_a_mode(config.a_mode)[0] == "fixed"
    grid = None if fixed else _discount_grid(sizes, config)
    draws: list[PosteriorDraw] = []
    for t in range(1, config.iterations + 1):
        params = replace(params, gamma0=update_gamma0(sizes, params, config, rng))
        params = replace(params, a=update_a_griddy(sizes, params, config, rng, grid))
        params = replace(params, p=update_p(sizes, params, config, rng))
        if t <= config.burn_in or (t - config.burn_in) % config.thin != 0:
            continue
        assert a_mode_allows(config.a_mode, params.a)
        draws.append(
            PosteriorDraw(
                iteration=t,
                params=params,
                log_ecpf=ecpf_log(sizes, params),
                s_theta=simpson_theta(params),
            )
        )
    return draws
