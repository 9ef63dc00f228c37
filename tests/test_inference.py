import math

import numpy as np
import pytest

from gnbp import (
    ChainConfig,
    ClusterSizes,
    Params,
    a_mode_allows,
    build_stirling_table,
    ecpf_log,
    kappa,
    parse_a_mode,
    run_chain,
    sample_cluster_structure,
    simpson_theta,
    update_a_griddy,
    update_gamma0,
    update_p,
)
from gnbp.inference import _a_grid, a_grid_log_target

DATA = ClusterSizes((1, 1, 2, 3, 3))


class TestAModes:
    def test_parse(self):
        assert parse_a_mode("free") == ("free", None)
        assert parse_a_mode("nonneg") == ("nonneg", None)
        assert parse_a_mode("neg") == ("neg", None)
        assert parse_a_mode("fixed=-1") == ("fixed", -1.0)
        assert parse_a_mode("fixed=0.5") == ("fixed", 0.5)

    def test_parse_rejects(self):
        with pytest.raises(ValueError):
            parse_a_mode("fixed=1.0")
        with pytest.raises(ValueError):
            parse_a_mode("anything")

    def test_allows(self):
        assert a_mode_allows("free", -5.0) and a_mode_allows("free", 0.9)
        assert a_mode_allows("nonneg", 0.0) and not a_mode_allows("nonneg", -0.1)
        assert a_mode_allows("neg", -0.1) and not a_mode_allows("neg", 0.0)
        assert a_mode_allows("fixed=-1", -1.0) and not a_mode_allows("fixed=-1", 0.0)


class TestChainConfig:
    def test_defaults(self):
        cfg = ChainConfig()
        assert cfg.iterations == 2000 and cfg.burn_in == 1000 and cfg.thin == 1
        assert cfg.e0 == 0.01 and cfg.f0 == 0.01

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"burn_in": 2000},
            {"thin": 0},
            {"a_grid_step": 0.6},
            {"p_grid_step": 0.0},
            {"e0": 0.0},
            {"seed": -1},
            {"a_mode": "bogus"},
            {"a_mode": "neg", "init": Params(1.0, 0.5, 0.5)},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ChainConfig(**kwargs)


class TestGamma0Update:
    def test_moments(self):
        params = Params(2.0, 0.5, 0.4)
        cfg = ChainConfig()
        rng = np.random.default_rng(5)
        draws = np.array(
            [update_gamma0(DATA, params, cfg, rng) for _ in range(100_000)]
        )
        shape = cfg.e0 + DATA.l
        scale = 1.0 / (cfg.f0 + kappa(params))
        mean_se = math.sqrt(shape) * scale / math.sqrt(len(draws))
        assert abs(draws.mean() - shape * scale) < 3 * mean_se
        # variance / mean = scale for a gamma law
        assert draws.var() / draws.mean() == pytest.approx(scale, rel=0.05)

    def test_zero_discount_scale(self):
        params = Params(2.0, 0.0, 0.5)
        cfg = ChainConfig()
        rng = np.random.default_rng(7)
        draws = np.array(
            [update_gamma0(DATA, params, cfg, rng) for _ in range(100_000)]
        )
        scale = 1.0 / (cfg.f0 + math.log(2.0))
        shape = cfg.e0 + DATA.l
        se = math.sqrt(shape) * scale / math.sqrt(len(draws))
        assert abs(draws.mean() - shape * scale) < 3 * se

    def test_empty_data_prior_like(self):
        params = Params(2.0, 0.5, 0.4)
        cfg = ChainConfig()
        rng = np.random.default_rng(11)
        draws = np.array(
            [update_gamma0(ClusterSizes(()), params, cfg, rng) for _ in range(200_000)]
        )
        scale = 1.0 / (cfg.f0 + kappa(params))
        se = math.sqrt(cfg.e0) * scale / math.sqrt(len(draws))
        assert abs(draws.mean() - cfg.e0 * scale) < 4 * se


class TestAGriddyUpdate:
    def test_grid_transform(self):
        grid = _a_grid(1e-4)
        assert len(grid) == 9999
        assert grid[0] == pytest.approx(2.0 - 1.0 / 1e-4)
        assert grid[-1] == pytest.approx(2.0 - 1.0 / 0.9999)
        assert 0.0 in grid  # the a = 0 point is hit exactly

    def test_weights_all_finite_on_moderate_data(self):
        grid = _a_grid(1e-3)
        logw = a_grid_log_target(DATA, 2.0, 0.4, grid)
        assert np.all(np.isfinite(logw[np.abs(grid) < 50]))

    def test_fixed_mode_is_identity(self):
        params = Params(2.0, 0.5, 0.4)
        cfg = ChainConfig(a_mode="fixed=0.5")
        rng = np.random.default_rng(3)
        assert update_a_griddy(DATA, params, cfg, rng) == 0.5

    def test_mode_masks_respected(self):
        params = Params(2.0, -1.0, 0.4)
        rng = np.random.default_rng(9)
        for _ in range(50):
            a_neg = update_a_griddy(DATA, params, ChainConfig(a_mode="neg", a_grid_step=1e-3), rng)
            assert a_neg < 0.0
            a_non = update_a_griddy(DATA, params, ChainConfig(a_mode="nonneg", a_grid_step=1e-3), rng)
            assert 0.0 <= a_non < 1.0

    def test_simulation_calibration(self):
        # pooling 50 structures drawn at gamma0 = 5 equals one structure
        # drawn at gamma0 = 250 (Poisson superposition); the posterior
        # mode over the grid must land near the generating discount
        true = Params(250.0, 0.5, 0.5)
        rng = np.random.default_rng(2024)
        pooled = sample_cluster_structure(true, rng)
        grid = _a_grid(1e-3)
        logw = a_grid_log_target(pooled, true.gamma0, true.p, grid)
        mode = grid[int(np.argmax(logw))]
        assert abs(mode - 0.5) <= 0.15


class TestPUpdate:
    def test_zero_discount_beta_moments(self):
        params = Params(2.0, 0.0, 0.4)
        cfg = ChainConfig()
        rng = np.random.default_rng(13)
        n = DATA.n
        draws = np.array([update_p(DATA, params, cfg, rng) for _ in range(100_000)])
        alpha, beta = 1.0 + n, 1.0 + params.gamma0
        mean = alpha / (alpha + beta)
        var = alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1.0))
        se = math.sqrt(var / len(draws))
        assert abs(draws.mean() - mean) < 3 * se

    def test_positive_discount_weights_finite(self):
        params = Params(2.0, 0.5, 0.4)
        cfg = ChainConfig(p_grid_step=1e-3)
        rng = np.random.default_rng(17)
        draws = [update_p(DATA, params, cfg, rng) for _ in range(200)]
        assert all(0.0 < p < 1.0 for p in draws)

    def test_griddy_near_zero_discount_matches_beta(self):
        # route a just outside the zero tolerance through the grid and
        # compare with the conjugate draw distribution
        params_grid = Params(2.0, 1e-6, 0.4)
        cfg = ChainConfig(p_grid_step=1e-3)
        rng = np.random.default_rng(19)
        griddy = np.array(
            [update_p(DATA, params_grid, cfg, rng) for _ in range(100_000)]
        )
        exact = rng.beta(1.0 + DATA.n, 1.0 + params_grid.gamma0, size=100_000)
        # compare binned distributions (grid discretization allows TV 0.02)
        bins = np.linspace(0.0, 1.0, 51)
        h1, _ = np.histogram(griddy, bins=bins)
        h2, _ = np.histogram(exact, bins=bins)
        tv = 0.5 * np.abs(h1 / len(griddy) - h2 / len(exact)).sum()
        assert tv < 0.02


class TestRunChain:
    def test_reproducible(self):
        cfg = ChainConfig(iterations=60, burn_in=20, seed=99, a_grid_step=1e-3,
                          p_grid_step=5e-3)
        d1 = run_chain(DATA, cfg)
        d2 = run_chain(DATA, cfg)
        assert [(d.params, d.log_ecpf) for d in d1] == [
            (d.params, d.log_ecpf) for d in d2
        ]

    def test_draw_counts_default_protocol(self):
        cfg = ChainConfig(iterations=100, burn_in=50, thin=1, seed=1,
                          a_grid_step=1e-2, p_grid_step=1e-2)
        assert len(run_chain(DATA, cfg)) == 50

    def test_draw_counts_thinned_protocol(self):
        cfg = ChainConfig(iterations=100, burn_in=50, thin=5, seed=1,
                          a_grid_step=1e-2, p_grid_step=1e-2)
        draws = run_chain(DATA, cfg)
        assert len(draws) == 10
        assert [d.iteration for d in draws] == list(range(55, 101, 5))

    def test_paper_scale_draw_counts(self):
        # 2000 iterations keeping the last 1000: 1000 draws; thin 5: 200
        cfg = ChainConfig()
        assert (cfg.iterations - cfg.burn_in) // cfg.thin == 1000
        cfg5 = ChainConfig(thin=5)
        assert (cfg5.iterations - cfg5.burn_in) // cfg5.thin == 200

    def test_a_mode_respected_in_draws(self):
        for mode in ("neg", "nonneg", "fixed=-1"):
            cfg = ChainConfig(iterations=40, burn_in=10, seed=3, a_mode=mode,
                              a_grid_step=1e-2, p_grid_step=1e-2)
            for d in run_chain(DATA, cfg):
                assert a_mode_allows(mode, d.params.a)

    def test_log_ecpf_recomputable(self):
        cfg = ChainConfig(iterations=30, burn_in=10, seed=5, a_grid_step=1e-2,
                          p_grid_step=1e-2)
        for d in run_chain(DATA, cfg):
            assert d.log_ecpf == pytest.approx(ecpf_log(DATA, d.params), abs=1e-12)

    def test_s_theta_on_every_draw(self):
        cfg = ChainConfig(iterations=30, burn_in=20, seed=7, a_grid_step=1e-2,
                          p_grid_step=1e-2)
        draws = run_chain(DATA, cfg)
        assert all(d.s_theta == simpson_theta(d.params) for d in draws)
        assert all(0.0 < d.s_theta < 1.0 for d in draws)

    def test_two_chain_stationarity_smoke(self):
        # with the discount pinned to zero both remaining updates are
        # conjugate; two independent long chains must agree on the
        # stationary p marginal, and the sampled p mean must match its
        # Rao-Blackwell estimate E[p | gamma0] = (1 + n)/(n + 2 + gamma0)
        data = ClusterSizes((2, 1, 1))
        cfg1 = ChainConfig(iterations=6000, burn_in=1000, seed=21, a_mode="fixed=0")
        cfg2 = ChainConfig(iterations=6000, burn_in=1000, seed=22, a_mode="fixed=0")
        p1 = np.array([d.params.p for d in run_chain(data, cfg1)])
        p2 = np.array([d.params.p for d in run_chain(data, cfg2)])
        assert abs(p1.mean() - p2.mean()) < 0.02
        g1 = np.array([d.params.gamma0 for d in run_chain(data, cfg1)])
        rb = np.mean((1.0 + data.n) / (data.n + 2.0 + g1))
        assert abs(p1.mean() - rb) < 0.02

    def test_rejects_empty_data(self):
        with pytest.raises(ValueError):
            run_chain(ClusterSizes(()), ChainConfig())
