import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import attitude_simulation, scalar_simulation
from specdist import simulator
from specdist.errors import ConfigurationError
from specdist.simulator import (
    READ_AHEAD_BYTES,
    SimConfig,
    break_even,
    break_even_levels,
    init_population,
    load_sim_config,
    run_simulation,
    run_simulations,
    step_market,
)


def levels_of(population):
    """step_market's (buy_at, sell_at, attention) for one population, in fresh buffers."""
    return break_even_levels(population, np.empty((2, *population[2].shape)))


def drawn_population(cfgs):
    """init_population of a group, from a fresh generator at the first config's seed."""
    return init_population(cfgs, np.random.default_rng(cfgs[0].seed))


def manual_params(theta_buy, theta_sell, sensitivity):
    """step_market's parameters for one member's hand-set (N, M) thresholds
    and sensitivities, given in init_population's layout: (M, N) rows for
    thresholds, (1, M, N) sensitivities, (N, M) attention."""
    tb, ts, a = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (theta_buy, theta_sell, sensitivity))
    return levels_of((tb.T.copy(), ts.T.copy(), a.T[None].copy(), 1.0 / (ts**2 + tb**2)))


def net_return(cfg, buyers, sellers):
    """The (R, M) log returns of one step's counts: gamma/N per net buyer."""
    return cfg.gamma / cfg.n_agents * (buyers - sellers)


def step(params, history, s, xi):
    """step_market with fresh work buffers."""
    members, m, n = params[0].shape
    return step_market(params, history, s, xi, (np.empty((m, n)), np.empty((2, members, m, n), dtype=bool)))


def quiet_step(params, history):
    """step_market with zero noise on one member's hand-set parameters and (ma_span, M) history."""
    n = params[2].shape[0]
    history = np.atleast_2d(np.asarray(history, dtype=float))[None]
    return step(params, history, np.zeros(n), np.zeros(n))


def drawn_step(params, history, cfg, rng):
    """step_market on one step's noise drawn from `rng` in the seed's order:
    s, then xi (the parameters are fixed)."""
    s = rng.normal(0.0, cfg.sigma_s, cfg.n_agents)
    xi = rng.normal(0.0, cfg.sigma_xi, cfg.n_agents)
    return step(params, history, s, xi)


class TestInitPopulation:
    def test_support_bounds(self):
        cfg = SimConfig(n_agents=200, n_commodities=5, seed=1)
        theta_buy, theta_sell, sensitivity, attention = drawn_population([cfg])
        for rows in (theta_buy, theta_sell, sensitivity[0]):
            assert rows.shape == (5, 200) and rows.flags.c_contiguous  # one row per commodity
        assert sensitivity.shape == (1, 5, 200) and sensitivity.flags.c_contiguous
        assert attention.shape == (200, 5)
        assert theta_buy.min() >= 0.01 and theta_buy.max() <= 0.02
        assert theta_sell.min() >= -0.02 and theta_sell.max() <= -0.01
        a1, a2 = cfg.a_range
        assert sensitivity.min() >= a1 and sensitivity.max() <= a2
        assert np.array_equal(attention, 1.0 / (theta_sell.T**2 + theta_buy.T**2))

    def test_degenerate_width_collapses_sensitivity(self):
        cfg = SimConfig(n_agents=50, n_commodities=2, a_range=(1.0, 1.0 + 1e-9), seed=0)
        sensitivity = drawn_population([cfg])[2]
        assert sensitivity.shape == (1, 2, 50)
        assert np.allclose(sensitivity, 1.0, atol=2e-9)

    def test_same_seed_bit_identical(self):
        cfg = SimConfig(n_agents=100, n_commodities=4, seed=77)
        for one, two in zip(drawn_population([cfg]), drawn_population([cfg])):
            assert np.array_equal(one, two)

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(a_range=(2.0, 1.0))

    def test_group_shares_thresholds_and_draws_each_range_alone(self):
        cfgs = [SimConfig(n_agents=30, n_commodities=4, seed=8, a_range=a_range)
                for a_range in [(1.0, 3.0), (5e-324, 1e-300), (0.5, 6.0)]]
        rng = np.random.default_rng(8)
        theta_buy, theta_sell, sensitivity, attention = init_population(cfgs, rng)
        assert sensitivity.shape == (3, 4, 30) and sensitivity.flags.c_contiguous
        for cfg, member in zip(cfgs, sensitivity, strict=True):
            alone = np.random.default_rng(8)
            alone_buy = alone.uniform(*cfg.theta_buy_range, (30, 4))
            alone_sell = alone.uniform(*cfg.theta_sell_range, (30, 4))
            assert member.tobytes() == alone.uniform(*cfg.a_range, (30, 4)).T.tobytes()
            # One shared draw of the thresholds and their attention.
            assert theta_buy.tobytes() == alone_buy.T.tobytes()
            assert theta_sell.tobytes() == alone_sell.T.tobytes()
            assert attention.tobytes() == (1.0 / (alone_sell**2 + alone_buy**2)).tobytes()
            # The group leaves the stream where one config's draw does.
            assert rng.bit_generator.state == alone.bit_generator.state
        assert (theta_buy.shape, theta_sell.shape, attention.shape) == ((4, 30), (4, 30), (30, 4))


# Sensitivities and threshold sizes as SimConfig accepts them: any positive
# finite double up to 1.7e308, subnormals included.
POSITIVE = st.floats(min_value=5e-324, max_value=1.7e308)


class TestBreakEven:
    """A break-even level decides as the product does, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(agents=st.lists(st.tuples(POSITIVE, POSITIVE, POSITIVE), min_size=1, max_size=12),
           noise=st.lists(st.floats(), max_size=6))
    # Quotients that overflow (only u = +inf buys) and underflow to 0, and
    # subnormal sensitivities beside ordinary ones in one array.
    @example(agents=[(5e-324, 0.01, 0.02), (1e-320, 0.015, 0.011)], noise=[1.7e308, np.inf])
    @example(agents=[(1e300, 5e-324, 1e-320), (1.7e308, 1e-310, 5e-324)], noise=[0.0, 5e-324])
    @example(agents=[(3e-320, 7e-320, 1e-319), (2.0, 0.015, 0.01), (1e-3, 2e-310, 0.02)], noise=[2.5])
    def test_level_decides_as_the_product(self, agents, noise):
        sensitivity, theta_buy, theta_sell = np.array(agents).T
        theta_sell = -theta_sell
        population = (theta_buy[None], theta_sell[None], sensitivity[None], np.ones((len(agents), 1)))
        buy_at, sell_at = (level[0] for level in levels_of(population)[:2])
        with np.errstate(over="ignore"):
            for level in (buy_at, sell_at):
                for u in (np.nextafter(level, -np.inf), level, np.nextafter(level, np.inf),
                          *(np.full_like(level, x) for x in noise)):
                    assert np.array_equal(u >= buy_at, sensitivity * u >= theta_buy)
                    assert np.array_equal(u <= sell_at, sensitivity * u <= theta_sell)

    def test_least_reaching_value(self):
        # The level is the least u whose product reaches the threshold, so
        # one ulp below it does not; +inf where no finite u reaches.
        a = np.array([[2.0, 3.0, 5e-324, 1e-320, 1e300]])
        theta = np.array([[0.5, 0.1, 0.01, 1e-319, 5e-324]])
        level = break_even(a, theta, np.empty_like(a), np.empty_like(a))
        assert level[0, 0] == 0.25 and level[0, 2] == np.inf
        with np.errstate(over="ignore"):
            assert np.all(a * level >= theta)
            assert not np.any(a * np.nextafter(level, 0.0) >= theta)


    def test_member_stack_equals_separate_calls(self):
        # Broadcast thresholds against three members' sensitivities, the
        # extreme ranges among them, and each member's levels alone.
        cfgs = [SimConfig(n_agents=200, n_commodities=6, seed=13, a_range=a_range)
                for a_range in [(1e-3, 1e300), (5e-324, 1e-300), (1.0, 3.0)]]
        theta_buy, theta_sell, sensitivity, attention = drawn_population(cfgs)
        buy_at, sell_at, shared = levels_of((theta_buy, theta_sell, sensitivity, attention))
        assert shared is attention
        for r, member in enumerate(sensitivity):
            alone = levels_of((theta_buy, theta_sell, member[None].copy(), attention))
            assert buy_at[r].tobytes() == alone[0][0].tobytes()
            assert sell_at[r].tobytes() == alone[1][0].tobytes()


class TestPerceive:
    """Perception: attention-weighted mean recent return plus noise s."""

    def test_zero_history_zero_noise(self):
        # Thresholds of 1e-150 trade on any perception but an exact zero.
        # No buyer and no seller on a commodity means every agent waits on it.
        tiny = np.full((3, 2), 1e-150)
        buyers, sellers = quiet_step(manual_params(tiny, -tiny, np.ones((3, 2))), np.zeros((1, 2)))
        assert buyers.tolist() == [[0, 0]] and sellers.tolist() == [[0, 0]]

    def test_single_commodity_analytic(self):
        # attention = 1/(0.5^2 + 0.5^2) = 2, so the perception is exactly
        # 2 * 0.25 = 0.5: a sensitivity of 1 meets the 0.5 buy threshold,
        # one ulp less misses it.  One agent: its counts are its attitude.
        below_one = np.nextafter(1.0, 0.0)
        buyers, sellers = quiet_step(manual_params([[0.5]], [[-0.5]], [[1.0]]), [[0.25]])
        assert buyers.tolist() == [[1]] and sellers.tolist() == [[0]]
        buyers, sellers = quiet_step(manual_params([[0.5]], [[-0.5]], [[below_one]]), [[0.25]])
        assert buyers.tolist() == [[0]] and sellers.tolist() == [[0]]

    def test_matches_scalar_loop(self):
        cfg = SimConfig(n_agents=7, n_commodities=3, ma_span=4, seed=5)
        population = drawn_population([cfg])
        history = np.random.default_rng(6).normal(scale=1e-6, size=(1, 4, 3))
        noise = np.random.default_rng(5)
        s = noise.normal(0.0, cfg.sigma_s, 7)
        xi = noise.normal(0.0, cfg.sigma_xi, 7)
        before = [a.copy() for a in population]
        params = levels_of(population)
        for kept, now in zip(before, population):
            assert np.array_equal(kept, now)  # the draws are not mutated
        before = [a.copy() for a in (*params, history, s, xi)]
        buyers, sellers = step(params, history, s, xi)
        for kept, now in zip(before, (*params, history, s, xi)):
            assert np.array_equal(kept, now)  # inputs are not mutated

        theta_buy, theta_sell, (sensitivity,), _ = population  # rows: [commodity, agent]
        expected_buyers, expected_sellers = [0, 0, 0], [0, 0, 0]
        for i in range(7):
            x = s[i]
            for k in range(3):
                c = 1.0 / (theta_sell[k, i] ** 2 + theta_buy[k, i] ** 2)
                x += c * sum(history[0, tau, k] for tau in range(4)) / 4
            for j in range(3):
                signal = sensitivity[j, i] * (x + xi[i])
                expected_buyers[j] += int(signal >= theta_buy[j, i])
                expected_sellers[j] += int(signal <= theta_sell[j, i])
        assert buyers.tolist() == [expected_buyers]
        assert sellers.tolist() == [expected_sellers]


class TestDecide:
    """Threshold rule: buy at or above theta_buy, sell at or below theta_sell.

    Each case is one agent, so its (buyers, sellers) counts are its attitude.
    """

    def test_zero_signal_waits(self):
        buyers, sellers = quiet_step(manual_params([[0.01]], [[-0.01]], [[2.0]]), [[0.0]])
        assert buyers.tolist() == [[0]] and sellers.tolist() == [[0]]

    def test_buy_boundary_inclusive(self):
        # attention = 1/(0.25^2 + 0.25^2) = 8 and history +-1/32 put the
        # signal exactly on a threshold; both boundaries count as crossed.
        params = manual_params([[0.25]], [[-0.25]], [[1.0]])
        buyers, sellers = quiet_step(params, [[1 / 32]])
        assert buyers.tolist() == [[1]] and sellers.tolist() == [[0]]
        buyers, sellers = quiet_step(params, [[-1 / 32]])
        assert buyers.tolist() == [[0]] and sellers.tolist() == [[1]]

    def test_sell_threshold_crossed(self):
        # attention 1250, history -8.8e-6: perception -0.011, signal -0.022.
        params = manual_params([[0.02]], [[-0.02]], [[2.0]])
        buyers, sellers = quiet_step(params, [[-8.8e-6]])
        assert buyers.tolist() == [[0]] and sellers.tolist() == [[1]]


class TestStepMarket:
    def quiet_cfg(self, **kwargs):
        return SimConfig(
            n_agents=40, n_commodities=3, sigma_xi=0.0, sigma_s=0.0, seed=3, **kwargs
        )

    def test_all_waiting_fixed_point(self):
        cfg = self.quiet_cfg()
        rng = np.random.default_rng(0)
        params = levels_of(init_population([cfg], rng))
        buyers, sellers = drawn_step(params, np.zeros((1, 1, 3)), cfg, rng)
        assert buyers.tolist() == [[0, 0, 0]] and sellers.tolist() == [[0, 0, 0]]

    def test_unanimous_buying_saturates(self):
        cfg = self.quiet_cfg()
        rng = np.random.default_rng(0)
        params = levels_of(init_population([cfg], rng))
        history = np.full((1, 1, 3), 1.0)  # huge shared return signal
        buyers, sellers = drawn_step(params, history, cfg, rng)
        # Every agent buys every commodity: N buyers, no seller.
        assert buyers.tolist() == [[cfg.n_agents] * 3] and sellers.tolist() == [[0, 0, 0]]
        assert np.all(net_return(cfg, buyers, sellers) == pytest.approx(cfg.gamma, rel=1e-12))

    def test_returns_bounded_by_gamma(self):
        # With one agent the counts are its attitude; with 60 they bound it.
        for n_agents in (1, 60):
            cfg = SimConfig(n_agents=n_agents, n_commodities=4, seed=9)
            rng = np.random.default_rng(9)
            params = levels_of(init_population([cfg], rng))
            history = np.zeros((1, 1, 4))
            for _ in range(200):
                buyers, sellers = drawn_step(params, history, cfg, rng)
                # Each agent buys, sells or waits: at most one action per commodity.
                assert np.all(buyers >= 0) and np.all(sellers >= 0)
                assert np.all(buyers + sellers <= n_agents)
                history = net_return(cfg, buyers, sellers)[:, None, :]
                assert np.all(np.abs(history) <= cfg.gamma * (1 + 1e-12))
            rates, activity = run_simulation(replace(cfg, horizon=200, warmup=0, dt=2.5))
            assert np.all(np.abs(np.diff(np.log(rates.values))) <= cfg.gamma * (1 + 1e-6))
            counts = activity.values * 2.5
            assert np.all(counts == np.round(counts))
            assert np.all(counts <= n_agents)

    def test_rates_telescope_from_returns(self):
        cfg = SimConfig(n_agents=50, n_commodities=4, gamma=1e-3, a_range=(2.0, 4.0), seed=21,
                        horizon=10_000, warmup=0)
        rng = np.random.default_rng(21)
        params = levels_of(init_population([cfg], rng))
        history = np.zeros((1, 1, 4))
        total = np.zeros((1, 4))
        for _ in range(cfg.horizon):
            history[:, 0] = net_return(cfg, *drawn_step(params, history, cfg, rng))
            total += history[:, 0]
        rates, _ = run_simulation(cfg)
        assert np.allclose(rates.values[:, -1], np.exp(total[0]), rtol=1e-9)

    def test_group_step_equals_member_steps(self):
        cfgs = [SimConfig(n_agents=60, n_commodities=4, ma_span=3, seed=14, a_range=a_range)
                for a_range in LOCKSTEP_A_RANGES]
        params = levels_of(drawn_population(cfgs))
        noise = np.random.default_rng(15)
        history = noise.normal(scale=1e-5, size=(3, 3, 4))
        s, xi = noise.normal(0.0, 0.005, (2, 60))
        buyers, sellers = step(params, history, s, xi)
        assert buyers.shape == sellers.shape == (3, 4)
        for r in range(3):
            alone = step((params[0][r:r + 1], params[1][r:r + 1], params[2]), history[r:r + 1], s, xi)
            assert buyers[r].tolist() == alone[0][0].tolist()
            assert sellers[r].tolist() == alone[1][0].tolist()

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

# Steps per read-ahead block of run_simulation: the byte budget over one
# step's float64 draws, 2 x N noise values plus, when resampling, the
# 4 x N x M parameter values.
BLOCK = READ_AHEAD_BYTES // (8 * 2 * 2000)  # 16 at the default 2000 agents
RESAMPLE_BLOCK = READ_AHEAD_BYTES // (8 * (2 * 30 + 4 * 30 * 4))  # 121 at 30 x 4

# The bit contract against the (N, M) int8-attitude loop: the oracle grid,
# two default-size (2000 x 20) runs, runs that end or change from warm-up
# to record at and around the edges of a read-ahead block, and extreme
# sensitivity ranges.
ATTITUDE_GRID = {
    **ORACLE_GRID,
    "default_size": dict(horizon=300, warmup=0, seed=0),
    "default_size_resampled": dict(horizon=300, warmup=0, seed=1, resample_params=True),
    "block_minus_one_step": dict(horizon=BLOCK - 4, warmup=3, seed=6),
    "block_exact": dict(horizon=BLOCK - 3, warmup=3, seed=7),
    "block_plus_one_step": dict(horizon=BLOCK - 2, warmup=3, seed=8),
    "warmup_ends_mid_block": dict(horizon=2 * BLOCK, warmup=BLOCK + BLOCK // 2, seed=9),
    "resampled_two_blocks": dict(n_agents=30, n_commodities=4, horizon=40,
                                 warmup=RESAMPLE_BLOCK - 20, ma_span=2, gamma=2e-6,
                                 resample_params=True, seed=10),
    # Sensitivities that put the break-even quotients threshold / a near the
    # bottom (about 1e-302) and the top (about 1e300) of the normal doubles.
    "a_up_to_1e300": dict(n_agents=200, n_commodities=6, horizon=40, warmup=8,
                          a_range=(1e-3, 1e300), seed=11),
    "a_subnormal_to_1e-300": dict(n_agents=200, n_commodities=6, horizon=40, warmup=8,
                                  a_range=(5e-324, 1e-300), seed=12),
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

    @pytest.mark.parametrize("case", sorted(ATTITUDE_GRID))
    def test_matches_attitude_oracle(self, case):
        cfg = SimConfig(**ATTITUDE_GRID[case])
        rates, activity = run_simulation(cfg)
        ref_rates, ref_activity = attitude_simulation(cfg)
        assert rates.values.tobytes() == ref_rates.tobytes()
        assert activity.values.tobytes() == ref_activity.tobytes()

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


class TestReadAhead:
    """The draw thread never outlives `run_simulation`, and its failure is the caller's."""

    def test_no_thread_outlives_a_run(self):
        before = threading.active_count()
        run_simulation(SimConfig(n_agents=50, n_commodities=3, horizon=100, warmup=10))
        assert threading.active_count() == before

    # 50 x 3 draws both failing steps in one block; at 2000 x 20 a resampled
    # block is one step, so the failure comes from the block drawn while the
    # main thread steps through the one before it.
    @pytest.mark.parametrize("n_agents, n_commodities", [(50, 3), (2000, 20)])
    def test_failed_draw_reaches_the_caller_and_leaves_no_thread(self, monkeypatch, n_agents,
                                                                 n_commodities):
        real = simulator.init_population
        calls = []
        failure = RuntimeError("third parameter draw")

        def third_call_fails(cfg, rng=None):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise failure
            return real(cfg, rng)

        monkeypatch.setattr(simulator, "init_population", third_call_fails)
        cfg = SimConfig(n_agents=n_agents, n_commodities=n_commodities, horizon=20, warmup=0,
                        resample_params=True)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            run_simulation(cfg)
        assert caught.value is failure
        assert threading.active_count() == before
        assert len(calls) == 3 and calls[0] is threading.main_thread()
        assert calls[2] is not threading.main_thread()  # drawn ahead, on the draw thread


# Lockstep groups: one config per case, run with each of these sensitivity
# ranges.  At 2000 x 20 a block is BLOCK steps whatever the group; resampled
# at 30 x 4, three members share a block of LOCKSTEP_RESAMPLE_BLOCK steps,
# whose parameters are two thresholds, their attention and three
# sensitivities, each N x M.
LOCKSTEP_A_RANGES = [(1.0, 3.0), (0.5, 6.0), (1.9, 2.1)]
LOCKSTEP_RESAMPLE_BLOCK = READ_AHEAD_BYTES // (8 * (2 * 30 + (3 + 3) * 30 * 4))  # 84
LOCKSTEP_GRID = {
    "defaults": dict(n_agents=60, n_commodities=4, horizon=30, warmup=10, seed=12),
    "ma_span_3": dict(n_agents=40, n_commodities=3, horizon=32, warmup=8, ma_span=3, gamma=5e-6, seed=1),
    "no_warmup": dict(n_agents=50, n_commodities=2, horizon=40, warmup=0, dt=2.5, seed=3),
    "ends_mid_block": dict(horizon=BLOCK + BLOCK // 2, warmup=3, seed=6),
    "resampled_two_blocks": dict(n_agents=30, n_commodities=4, horizon=40,
                                 warmup=LOCKSTEP_RESAMPLE_BLOCK - 20, ma_span=2, gamma=2e-6,
                                 resample_params=True, seed=10),
    "one_by_one": dict(n_agents=1, n_commodities=1, horizon=30, warmup=5, sigma_s=0.02, seed=4),
}


class TestLockstep:
    """`run_simulations` gives each member the panels of its config run alone."""

    @pytest.mark.parametrize("case", sorted(LOCKSTEP_GRID))
    def test_members_match_their_runs_alone(self, case):
        cfgs = [SimConfig(**LOCKSTEP_GRID[case], a_range=a_range) for a_range in LOCKSTEP_A_RANGES]
        panels = run_simulations(cfgs)
        for cfg, (rates, activity) in zip(cfgs, panels, strict=True):
            alone_rates, alone_activity = run_simulation(cfg)
            assert rates.values.tobytes() == alone_rates.values.tobytes()
            assert activity.values.tobytes() == alone_activity.values.tobytes()
            assert (rates.labels, rates.dt) == (alone_rates.labels, alone_rates.dt)
        # The ranges differ, so the members do too.
        assert panels[0][0].values.tobytes() != panels[1][0].values.tobytes()

    def test_group_of_one_is_run_simulation(self):
        cfg = SimConfig(**ATTITUDE_GRID["defaults"])
        (rates, activity), = run_simulations([cfg])
        ref_rates, ref_activity = attitude_simulation(cfg)
        assert rates.values.tobytes() == ref_rates.tobytes()
        assert activity.values.tobytes() == ref_activity.tobytes()

    @pytest.mark.parametrize("change, field", [
        (dict(seed=1), "seed"),
        (dict(horizon=31), "horizon"),
        (dict(resample_params=True), "resample_params"),
        (dict(theta_buy_range=(0.01, 0.03)), "theta_buy_range"),
        (dict(seed=1, gamma=1e-7), "gamma, seed"),
    ])
    def test_other_differences_refused_before_any_draw(self, monkeypatch, change, field):
        def no_draw(*args):
            raise AssertionError("drew for a group that cannot step together")

        monkeypatch.setattr(simulator, "init_population", no_draw)
        monkeypatch.setattr(simulator, "draw_steps", no_draw)
        cfg = SimConfig(n_agents=10, n_commodities=2, horizon=30, seed=0)
        other = replace(cfg, a_range=(0.5, 2.0), **change)
        with pytest.raises(ConfigurationError, match=f"may differ only in a_range, not in {field}$"):
            run_simulations([cfg, other])

    def test_failed_draw_reaches_the_caller_and_leaves_no_thread(self, monkeypatch):
        real = simulator.init_population
        calls = []
        failure = RuntimeError("the group's second step draw")

        def fails_on_the_draw_thread(cfgs, rng):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise failure
            return real(cfgs, rng)

        monkeypatch.setattr(simulator, "init_population", fails_on_the_draw_thread)
        cfgs = [SimConfig(n_agents=50, n_commodities=3, horizon=20, warmup=0, resample_params=True,
                          a_range=a_range) for a_range in LOCKSTEP_A_RANGES]
        before = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            run_simulations(cfgs)
        assert caught.value is failure
        assert threading.active_count() == before
        # One draw per group: the first on this thread, the failed one on the draw thread.
        assert len(calls) == 3 and calls[0] is threading.main_thread()
        assert calls[-1] is not threading.main_thread()


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

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        # numpy would refuse it only when the run draws its first number.
        with pytest.raises(ConfigurationError, match=f"seed must be a nonnegative integer, got {seed!r}"):
            SimConfig(seed=seed)
        assert SimConfig(seed=np.int64(3)).seed == 3

    def test_negative_seed_line_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("seed = -1\n")
        with pytest.raises(ConfigurationError, match="seed must be a nonnegative integer, got -1"):
            load_sim_config(path)

    @pytest.mark.parametrize("value", [2.0, True])
    @pytest.mark.parametrize("field", ["n_agents", "n_commodities", "horizon", "warmup", "ma_span"])
    def test_counts_must_be_integers(self, monkeypatch, field, value):
        # numpy refuses either as an array size, but only mid-run.
        def no_draw(*args):
            raise AssertionError("drew for a config whose count is not an integer")

        monkeypatch.setattr(simulator, "init_population", no_draw)
        monkeypatch.setattr(simulator, "draw_steps", no_draw)
        counts = dict(n_agents=20, n_commodities=2, horizon=10, warmup=0, ma_span=1)
        with pytest.raises(ConfigurationError, match=rf"^{field} must be an integer, got {value!r}$"):
            run_simulation(SimConfig(**{**counts, field: value}))
        assert getattr(SimConfig(**{**counts, field: np.int64(2)}), field) == 2

    def test_agent_count_beyond_int32_counts_rejected(self):
        # The step counts buyers and sellers in int32; the config is refused
        # before any array is built.
        for n_agents in (2**31, 2**40):
            with pytest.raises(ConfigurationError, match=r"n_agents must be between 1 and 2\*\*31 - 1"):
                SimConfig(n_agents=n_agents)
        assert SimConfig(n_agents=2**31 - 1).n_agents == 2**31 - 1
