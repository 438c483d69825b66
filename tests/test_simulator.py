from dataclasses import replace

import numpy as np
import pytest

from oracles import scalar_simulation
from specdist.errors import ConfigurationError
from specdist.simulator import (
    SimConfig,
    init_population,
    load_sim_config,
    run_simulation,
    step_market,
)


def manual_params(theta_buy, theta_sell, sensitivity):
    tb, ts, a = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (theta_buy, theta_sell, sensitivity))
    return tb, ts, a, 1.0 / (ts**2 + tb**2)


def quiet_step(params, history):
    """step_market with zero noise on hand-set parameters and history."""
    n, m = params[0].shape
    history = np.atleast_2d(np.asarray(history, dtype=float))
    cfg = SimConfig(n_agents=n, n_commodities=m, ma_span=len(history), sigma_xi=0.0, sigma_s=0.0)
    return step_market(params, history, cfg, np.random.default_rng(0))


class TestInitPopulation:
    def test_support_bounds(self):
        cfg = SimConfig(n_agents=200, n_commodities=5, seed=1)
        theta_buy, theta_sell, sensitivity, attention = init_population(cfg)
        assert theta_buy.min() >= 0.01 and theta_buy.max() <= 0.02
        assert theta_sell.min() >= -0.02 and theta_sell.max() <= -0.01
        a1, a2 = cfg.a_range
        assert sensitivity.min() >= a1 and sensitivity.max() <= a2
        assert np.array_equal(attention, 1.0 / (theta_sell**2 + theta_buy**2))

    def test_degenerate_width_collapses_sensitivity(self):
        cfg = SimConfig(n_agents=50, n_commodities=2, a_range=(1.0, 1.0 + 1e-9), seed=0)
        sensitivity = init_population(cfg)[2]
        assert np.allclose(sensitivity, 1.0, atol=2e-9)

    def test_same_seed_bit_identical(self):
        cfg = SimConfig(n_agents=100, n_commodities=4, seed=77)
        for one, two in zip(init_population(cfg), init_population(cfg)):
            assert np.array_equal(one, two)

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(a_range=(2.0, 1.0))


class TestPerceive:
    """Perception: attention-weighted mean recent return plus noise s."""

    def test_zero_history_zero_noise(self):
        # Thresholds of 1e-150 trade on any perception but an exact zero.
        tiny = np.full((3, 2), 1e-150)
        attitudes, returns = quiet_step(manual_params(tiny, -tiny, np.ones((3, 2))), np.zeros((1, 2)))
        assert np.all(attitudes == 0) and np.all(returns == 0.0)

    def test_single_commodity_analytic(self):
        # attention = 1/(0.5^2 + 0.5^2) = 2, so the perception is exactly
        # 2 * 0.25 = 0.5: a sensitivity of 1 meets the 0.5 buy threshold,
        # one ulp less misses it.
        below_one = np.nextafter(1.0, 0.0)
        params = manual_params([[0.5], [0.5]], [[-0.5], [-0.5]], [[1.0], [below_one]])
        attitudes, _ = quiet_step(params, [[0.25]])
        assert attitudes.tolist() == [[1], [0]]

    def test_matches_scalar_loop(self):
        cfg = SimConfig(n_agents=7, n_commodities=3, ma_span=4, seed=5)
        params = init_population(cfg)
        history = np.random.default_rng(6).normal(scale=1e-6, size=(4, 3))
        before = [a.copy() for a in (*params, history)]
        attitudes, returns = step_market(params, history, cfg, np.random.default_rng(5))
        for kept, now in zip(before, (*params, history)):
            assert np.array_equal(kept, now)  # inputs are not mutated

        noise = np.random.default_rng(5)
        s = noise.normal(0.0, cfg.sigma_s, 7)
        xi = noise.normal(0.0, cfg.sigma_xi, 7)
        theta_buy, theta_sell, sensitivity, _ = params
        for i in range(7):
            x = s[i]
            for k in range(3):
                c = 1.0 / (theta_sell[i, k] ** 2 + theta_buy[i, k] ** 2)
                x += c * sum(history[tau, k] for tau in range(4)) / 4
            for j in range(3):
                signal = sensitivity[i, j] * (x + xi[i])
                expected = int(signal >= theta_buy[i, j]) - int(signal <= theta_sell[i, j])
                assert attitudes[i, j] == expected
        assert np.array_equal(returns, cfg.gamma / 7 * attitudes.sum(axis=0))


class TestDecide:
    """Threshold rule: +1 at or above theta_buy, -1 at or below theta_sell."""

    def test_zero_signal_waits(self):
        attitudes, returns = quiet_step(manual_params([[0.01]], [[-0.01]], [[2.0]]), [[0.0]])
        assert attitudes.tolist() == [[0]] and returns.tolist() == [0.0]

    def test_buy_boundary_inclusive(self):
        # attention = 1/(0.25^2 + 0.25^2) = 8 and history +-1/32 put the
        # signal exactly on a threshold; both boundaries count as crossed.
        params = manual_params([[0.25]], [[-0.25]], [[1.0]])
        assert quiet_step(params, [[1 / 32]])[0].tolist() == [[1]]
        assert quiet_step(params, [[-1 / 32]])[0].tolist() == [[-1]]

    def test_sell_threshold_crossed(self):
        # attention 1250, history -8.8e-6: perception -0.011, signal -0.022.
        params = manual_params([[0.02]], [[-0.02]], [[2.0]])
        attitudes, returns = quiet_step(params, [[-8.8e-6]])
        assert attitudes.tolist() == [[-1]]
        assert returns[0] == -SimConfig().gamma


class TestStepMarket:
    def quiet_cfg(self, **kwargs):
        return SimConfig(
            n_agents=40, n_commodities=3, sigma_xi=0.0, sigma_s=0.0, seed=3, **kwargs
        )

    def test_all_waiting_fixed_point(self):
        cfg = self.quiet_cfg()
        rng = np.random.default_rng(0)
        params = init_population(cfg, rng)
        attitudes, returns = step_market(params, np.zeros((1, 3)), cfg, rng)
        assert np.all(attitudes == 0)
        assert np.all(returns == 0.0)

    def test_unanimous_buying_saturates(self):
        cfg = self.quiet_cfg()
        rng = np.random.default_rng(0)
        params = init_population(cfg, rng)
        history = np.full((1, 3), 1.0)  # huge shared return signal
        attitudes, returns = step_market(params, history, cfg, rng)
        assert np.all(attitudes == 1)
        assert np.all(returns == pytest.approx(cfg.gamma, rel=1e-12))
        assert np.all(np.abs(attitudes).sum(axis=0) == cfg.n_agents)

    def test_returns_bounded_by_gamma(self):
        cfg = SimConfig(n_agents=60, n_commodities=4, seed=9)
        rng = np.random.default_rng(9)
        params = init_population(cfg, rng)
        history = np.zeros((1, 4))
        for _ in range(200):
            attitudes, returns = step_market(params, history, cfg, rng)
            assert np.all(np.abs(returns) <= cfg.gamma * (1 + 1e-12))
            assert set(np.unique(attitudes)) <= {-1, 0, 1}
            history = returns[None, :]
        _, activity = run_simulation(replace(cfg, horizon=200, warmup=0, dt=2.5))
        counts = activity.values * 2.5
        assert np.all(counts == np.round(counts))
        assert np.all(counts <= cfg.n_agents)

    def test_rates_telescope_from_returns(self):
        cfg = SimConfig(n_agents=50, n_commodities=4, gamma=1e-3, a_range=(2.0, 4.0), seed=21,
                        horizon=10_000, warmup=0)
        rng = np.random.default_rng(21)
        params = init_population(cfg, rng)
        history = np.zeros((1, 4))
        total = np.zeros(4)
        for _ in range(cfg.horizon):
            _, history[0] = step_market(params, history, cfg, rng)
            total += history[0]
        rates, _ = run_simulation(cfg)
        assert np.allclose(rates.values[:, -1], np.exp(total), rtol=1e-9)

    def test_matches_scalar_reference_implementation(self):
        """Run the default-size market 10 steps against the pure-Python rebuild."""
        cfg = SimConfig(seed=12, horizon=10, warmup=0)
        rates, activity = run_simulation(cfg)
        ref_rates, ref_activity = scalar_simulation(cfg)
        assert np.array_equal(activity.values, np.array(ref_activity))
        assert np.allclose(rates.values, ref_rates, rtol=1e-12, atol=0)

    def test_resample_mode_draws_fresh_parameters(self):
        cfg = SimConfig(n_agents=30, n_commodities=2, resample_params=True, seed=4)
        rates1, act1 = run_simulation(cfg)
        rates2, act2 = run_simulation(cfg)
        assert np.array_equal(rates1.values, rates2.values)
        fixed = run_simulation(SimConfig(n_agents=30, n_commodities=2, seed=4))[0]
        assert not np.array_equal(rates1.values, fixed.values)


# The seed contract against the oracle: N <= 60, M <= 4, <= 40 steps each.
ORACLE_GRID = {
    "defaults": dict(n_agents=60, n_commodities=4, horizon=30, warmup=10, seed=12),
    "ma_span_3_feedback": dict(n_agents=40, n_commodities=3, horizon=32, warmup=8,
                               ma_span=3, gamma=5e-6, seed=1),
    "resample_ma_span_2": dict(n_agents=30, n_commodities=4, horizon=20, warmup=5,
                               ma_span=2, gamma=2e-6, resample_params=True, seed=2),
    "dt_2_5_no_warmup": dict(n_agents=50, n_commodities=2, horizon=40, warmup=0, dt=2.5, seed=3),
    "gamma_2e-6_ma_span_5": dict(n_agents=60, n_commodities=4, horizon=24, warmup=16,
                                 gamma=2e-6, ma_span=5, seed=4),
    "one_commodity_wide_a": dict(n_agents=25, n_commodities=1, horizon=36, warmup=4,
                                 a_range=(0.5, 6.0), sigma_s=0.01, seed=5),
}


class TestRunSimulation:
    def test_one_step_horizon_rejected(self):
        # A one-sample panel cannot exist, so the config fails before any step runs.
        with pytest.raises(ConfigurationError, match="horizon"):
            SimConfig(n_agents=5, n_commodities=2, horizon=1)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_zero_or_negative_horizon_rejected(self, horizon):
        with pytest.raises(ConfigurationError, match="horizon must be at least 2"):
            SimConfig(n_agents=5, n_commodities=2, horizon=horizon)

    @pytest.mark.parametrize("case", sorted(ORACLE_GRID))
    def test_matches_scalar_oracle(self, case):
        cfg = SimConfig(**ORACLE_GRID[case])
        rates, activity = run_simulation(cfg)
        ref_rates, ref_activity = scalar_simulation(cfg)
        assert np.array_equal(activity.values, np.array(ref_activity).reshape(activity.values.shape))
        assert np.allclose(rates.values, np.array(ref_rates).reshape(rates.values.shape),
                           rtol=1e-12, atol=0)

    def test_silent_market_stays_at_rest(self):
        cfg = SimConfig(n_agents=10, n_commodities=2, sigma_xi=0.0, sigma_s=0.0, horizon=20, warmup=5)
        rates, activity = run_simulation(cfg)
        assert np.all(rates.values == 1.0)
        assert np.all(activity.values == 0.0)

    def test_same_seed_bit_identical_panels(self):
        cfg = SimConfig(n_agents=80, n_commodities=3, horizon=50, warmup=10, seed=123)
        one = run_simulation(cfg)
        two = run_simulation(cfg)
        for a, b in zip(one, two):
            assert np.array_equal(a.values, b.values)

    def test_panel_metadata(self):
        cfg = SimConfig(n_agents=10, n_commodities=12, horizon=8, warmup=0, dt=2.0)
        rates, activity = run_simulation(cfg)
        assert rates.labels == activity.labels
        assert rates.labels[0] == "c01" and rates.labels[-1] == "c12"
        assert rates.dt == 2.0 and rates.length == 8


class TestConfigFile:
    def test_load_values_and_ranges(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text(
            "# comment\n"
            "seed = 7\n"
            "horizon = 100\n"
            "gamma = 3e-7\n"
            "a_range = 0.5 3.5\n"
            "theta_sell_range = -0.03, -0.02\n"
            "resample_params = true\n"
        )
        cfg = load_sim_config(path)
        assert cfg.seed == 7
        assert cfg.horizon == 100
        assert cfg.gamma == 3e-7
        assert cfg.a_range == (0.5, 3.5)
        assert cfg.theta_sell_range == (-0.03, -0.02)
        assert cfg.resample_params is True

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("volatility = 3\n")
        with pytest.raises(ConfigurationError, match="unknown key"):
            load_sim_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("seed = seven\n")
        with pytest.raises(ConfigurationError, match="bad value"):
            load_sim_config(path)

    def test_config_invariants(self):
        with pytest.raises(ConfigurationError):
            SimConfig(theta_buy_range=(-0.01, 0.02))
        with pytest.raises(ConfigurationError):
            SimConfig(theta_sell_range=(-0.02, 0.01))
        with pytest.raises(ConfigurationError):
            SimConfig(ma_span=0)
        with pytest.raises(ConfigurationError):
            SimConfig(gamma=0.0)
