"""MCMC posterior inference of (gamma0, a, p) from an observed cluster
structure.

The fully factorized joint likelihood of the labels and the sample size
gives a conjugate gamma update for the mass parameter; the discount and
probability parameters are sampled by griddy Gibbs, i.e. exact draws
from their conditionals discretized onto fixed grids.  The discount grid
lives in the transformed variable atil = 1 / (2 - a), which maps all of
a < 1 onto (0, 1); at a = 0 the probability parameter instead gets a
conjugate beta draw.

Chains run in lockstep blocks (:func:`run_chains`): chains that share
every setting but the seed advance together, with their state held as
one gamma0, a and p value per chain.  Each griddy update is one
(chains x grid) matrix of log weights, drawn from by a per-row
log-sum-exp, cumulative sum and search; the data term of the discount
weights is built once per block, log p and log(1 - p) over the p grid
once per block.  Every chain keeps its own generator and uses it in the
same order as a chain run alone (gamma, the discount uniform, then the
p uniform or beta draw), and every row sees the same arithmetic, so a
chain's draws do not depend on the block it runs in.  A single chain
(:func:`run_chain`) and the single updates are blocks of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .core_math import log_sum_exp_rows
# Unused here, but perfbench/tracing.py wraps this name in this module.
from .core_math import build_stirling_table  # noqa: F401
from .distributions import (
    ZERO_DISCOUNT_TOL,
    ClusterSizes,
    Params,
    kappa_ap,
    kappa_formula,
    log_size_product,
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
        if not -math.inf < value < 1.0:
            raise ValueError(f"fixed discount must be finite and below 1, got {value}")
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
        if not (0.0 < self.e0 < math.inf and 0.0 < self.f0 < math.inf):
            raise ValueError(f"e0 and f0 must be finite and positive, got {self.e0}, {self.f0}")
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


def _gamma0_step(
    config: ChainConfig, l: list, a: list, p: list, rngs: list
) -> list[float]:
    """Conjugate draws Gamma(e0 + l, 1 / (f0 + kappa(a, p))), one per
    chain; kappa already carries the a -> 0 limit -log(1 - p)."""
    return [
        float(rng.gamma(config.e0 + l_i, 1.0 / (config.f0 + kappa_ap(a_i, p_i))))
        for l_i, a_i, p_i, rng in zip(l, a, p, rngs)
    ]


def update_gamma0(
    sizes: ClusterSizes, params: Params, config: ChainConfig, rng: np.random.Generator
) -> float:
    """Conjugate draw: Gamma(e0 + l, 1 / (f0 + kappa(a, p)))."""
    return _gamma0_step(config, [sizes.l], [params.a], [params.p], [rng])[0]


def _a_grid(step: float) -> np.ndarray:
    m = int(round(1.0 / step))
    atil = np.arange(1, m, dtype=float) * step
    return 2.0 - 1.0 / atil


def _a_log_weights(a_values, data_term, gamma0, p, l_log_p):
    # gamma0, p and l_log_p = l log p are scalars, or columns of a block
    with np.errstate(over="ignore", invalid="ignore"):
        return data_term - gamma0 * kappa_ap(a_values, p) - a_values * l_log_p


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
        data_term = log_size_product(sizes, a_values)
    return _a_log_weights(a_values, data_term, gamma0, p, sizes.l * math.log(p))


def _discount_values(config: ChainConfig) -> np.ndarray:
    """The atil grid's discount values allowed by a non-fixed a_mode."""
    kind, _ = parse_a_mode(config.a_mode)
    a_values = _a_grid(config.a_grid_step)
    if kind == "nonneg":
        return a_values[a_values >= 0.0]
    if kind == "neg":
        return a_values[a_values < 0.0]
    return a_values


def _grid_draw(values: np.ndarray, logw: np.ndarray, rngs: list) -> list[float]:
    """One inverse-CDF draw from the grid law exp(logw[i]) / sum for each
    row i, with one uniform from rngs[i]."""
    norm = log_sum_exp_rows(logw)
    if -math.inf in norm:
        raise RuntimeError("every grid point has zero posterior mass")
    cdf = np.cumsum(np.exp(logw - np.array(norm)[:, None]), axis=1)
    last = len(values) - 1
    return [
        float(values[min(int(row.searchsorted(rng.random())), last)])
        for row, rng in zip(cdf, rngs)
    ]


def _a_step(
    a_values: np.ndarray, data_term: np.ndarray, l: list, gamma0: list, p: list, rngs: list
) -> list[float]:
    """Griddy draws of the discount, one per row of the (chains x grid)
    data term."""
    l_log_p = [l_i * math.log(p_i) for l_i, p_i in zip(l, p)]
    logw = _a_log_weights(
        a_values,
        data_term,
        np.array(gamma0)[:, None],
        np.array(p)[:, None],
        np.array(l_log_p)[:, None],
    )
    return _grid_draw(a_values, logw, rngs)


def update_a_griddy(
    sizes: ClusterSizes,
    params: Params,
    config: ChainConfig,
    rng: np.random.Generator,
    grid: tuple[np.ndarray, np.ndarray] | None = None,
) -> float:
    """Griddy Gibbs draw of the discount over the atil = 1/(2 - a) grid,
    restricted to the active a_mode; identity under a fixed mode.

    ``grid`` is a cached (values, data term) pair; it is built here when
    not given.
    """
    if parse_a_mode(config.a_mode)[0] == "fixed":
        return params.a
    if grid is None:
        a_values = _discount_values(config)
        grid = a_values, log_size_product(sizes, a_values)
    a_values, data_term = grid
    return _a_step(a_values, data_term[None, :], [sizes.l], [params.gamma0], [params.p], [rng])[0]


def _p_grid(config: ChainConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The p grid, log p and log(1 - p) over it."""
    m = int(round(1.0 / config.p_grid_step))
    p_values = np.arange(1, m, dtype=float) * config.p_grid_step
    return p_values, np.log(p_values), np.log1p(-p_values)


def _p_step(
    p_grid: tuple, n: list, l: list, gamma0: list, a: list, rngs: list
) -> list[float]:
    """Draws of the probability parameter, one per chain: Beta(1 + n,
    1 + gamma0) where |a| is below the zero-discount tolerance, else one
    griddy row of log weights -gamma0 kappa(a, p) + (n - a l) log p."""
    out = [
        float(rng.beta(1.0 + n_i, 1.0 + g_i)) if abs(a_i) < ZERO_DISCOUNT_TOL else None
        for n_i, g_i, a_i, rng in zip(n, gamma0, a, rngs)
    ]
    rows = [i for i, value in enumerate(out) if value is None]
    if not rows:
        return out
    if len(rows) < len(out):
        n, l, gamma0, a, rngs = ([seq[i] for i in rows] for seq in (n, l, gamma0, a, rngs))
    p_values, log_p, log_q = p_grid
    slope = np.array([n_i - a_i * l_i for n_i, a_i, l_i in zip(n, a, l)])[:, None]
    # every row has |a| >= ZERO_DISCOUNT_TOL, where kappa_ap is this formula
    with np.errstate(over="ignore", invalid="ignore"):
        logw = (
            -np.array(gamma0)[:, None] * kappa_formula(np, np.array(a)[:, None], log_p, log_q)
            + slope * log_p
        )
    for i, value in zip(rows, _grid_draw(p_values, logw, rngs)):
        out[i] = value
    return out


def update_p(
    sizes: ClusterSizes,
    params: Params,
    config: ChainConfig,
    rng: np.random.Generator,
    grid: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
) -> float:
    """Draw of the probability parameter.

    At |a| below the zero-discount tolerance the conditional is conjugate,
    Beta(1 + n, 1 + gamma0); otherwise griddy Gibbs over the p grid with
    log weights -gamma0 kappa(a, p) + (n - a l) log p.

    ``grid`` is a cached (p, log p, log(1 - p)) triple over the p grid;
    it is built here when a grid draw needs it.
    """
    if grid is None and abs(params.a) >= ZERO_DISCOUNT_TOL:
        grid = _p_grid(config)
    return _p_step(grid, [sizes.n], [sizes.l], [params.gamma0], [params.a], [rng])[0]


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


def run_chains(
    sizes_seq: list[ClusterSizes], configs: list[ChainConfig]
) -> list[list[PosteriorDraw]]:
    """Systematic-scan Gibbs over (gamma0, a, p) for a block of chains in
    lockstep, chain i on data ``sizes_seq[i]`` with ``configs[i]``.

    The configs may differ only in their seed.  Each chain retains every
    thin-th iteration after burn-in, recording for each draw the log
    joint cluster-structure likelihood and the diversity index at that
    draw.  A chain's draws are the same in any block, and bit-reproducible
    for a fixed seed and configuration.
    """
    if not configs or len(sizes_seq) != len(configs):
        raise ValueError("need one config per data set, and at least one chain")
    config = configs[0]
    if any(replace(c, seed=config.seed) != config for c in configs):
        raise ValueError("chains in one block may differ only in their seed")
    if any(sizes.n < 1 for sizes in sizes_seq):
        raise ValueError("need at least one observed individual")
    rngs = [np.random.default_rng(c.seed) for c in configs]
    start = [_initial_params(sizes, config) for sizes in sizes_seq]
    gamma0 = [q.gamma0 for q in start]
    a = [q.a for q in start]
    p = [q.p for q in start]
    n = [sizes.n for sizes in sizes_seq]
    l = [sizes.l for sizes in sizes_seq]
    free_a = parse_a_mode(config.a_mode)[0] != "fixed"
    if free_a:
        a_values = _discount_values(config)
        data_term = np.array([log_size_product(sizes, a_values) for sizes in sizes_seq])
    p_grid = _p_grid(config)
    draws: list[list[PosteriorDraw]] = [[] for _ in configs]
    for t in range(1, config.iterations + 1):
        gamma0 = _gamma0_step(config, l, a, p, rngs)
        if not min(gamma0) > 0.0:
            # the shape e0 + l is at least 1 + e0, so a zero draw means a
            # kappa too large for a double (a very negative discount)
            i = gamma0.index(min(gamma0))
            raise ValueError(
                f"gamma0 drew {gamma0[i]} at a={a[i]}, p={p[i]}, where "
                f"kappa(a, p) = {kappa_ap(a[i], p[i])}; the discount is too "
                "far below 0 for this data"
            )
        if free_a:
            a = _a_step(a_values, data_term, l, gamma0, p, rngs)
        p = _p_step(p_grid, n, l, gamma0, a, rngs)
        if t <= config.burn_in or (t - config.burn_in) % config.thin != 0:
            continue
        for i, sizes in enumerate(sizes_seq):
            params = Params(gamma0[i], a[i], p[i])
            assert a_mode_allows(config.a_mode, params.a)
            draws[i].append(
                PosteriorDraw(
                    iteration=t,
                    params=params,
                    log_ecpf=ecpf_log(sizes, params),
                    s_theta=simpson_theta(params),
                )
            )
    return draws


def run_chain(sizes: ClusterSizes, config: ChainConfig) -> list[PosteriorDraw]:
    """One chain: :func:`run_chains` on a block of one."""
    return run_chains([sizes], [config])[0]
