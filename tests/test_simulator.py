import re
import threading
from dataclasses import fields, replace
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import attitude_simulation, loop_lockstep, scalar_simulation
from specdist import simulator
from specdist.errors import ConfigurationError
from specdist.ingest import MAX_CELLS
from specdist.simulator import (
    READ_AHEAD_BYTES,
    SimConfig,
    break_even,
    break_even_levels,
    init_population,
    load_sim_config,
    run_simulation,
    run_simulations,
    step_buffers,
    step_market,
)


def levels_of(population, r=0):
    """step_market's (buy_at, sell_at, attention) for member `r` of an
    init_population draw, in fresh buffers."""
    theta_buy, theta_sell, sensitivity, attention = population
    return break_even_levels((theta_buy, theta_sell, sensitivity[r], attention), np.empty((2, *theta_buy.shape)))


def drawn_population(cfg, a_ranges=None):
    """init_population of `cfg` at `a_ranges` (default: its own range), from a
    fresh generator at its seed."""
    return init_population(cfg, a_ranges or [cfg.a_range], np.random.default_rng(cfg.seed))


def manual_params(theta_buy, theta_sell, sensitivity):
    """step_market's parameters for one member's hand-set (N, M) thresholds
    and sensitivities, given in init_population's layout: (M, N) rows for
    thresholds, (1, M, N) sensitivities, (N, M) attention."""
    tb, ts, a = (np.atleast_2d(np.asarray(v, dtype=float)) for v in (theta_buy, theta_sell, sensitivity))
    return levels_of((tb.T.copy(), ts.T.copy(), a.T[None].copy(), 1.0 / (ts**2 + tb**2)))


def net_return(cfg, buyers, sellers):
    """The (M,) log returns of one step's counts: gamma/N per net buyer."""
    return cfg.gamma / cfg.n_agents * (buyers - sellers)


def step(params, history, s, xi, work=None):
    """step_market's (buyers, sellers), in fresh work buffers unless `work` is given."""
    m, n = params[0].shape
    work = step_buffers(m, n) if work is None else work
    return step_market(params, history, s, xi, work, np.empty((2, m), dtype=np.int32))


def quiet_step(params, history):
    """step_market with zero noise on one member's hand-set parameters and (ma_span, M) history."""
    n = params[2].shape[0]
    history = np.atleast_2d(np.asarray(history, dtype=float))
    return step(params, history, np.zeros(n), np.zeros(n))


def drawn_step(params, history, cfg, rng):
    """step_market on one step's noise drawn from `rng` in the seed's order:
    s, then xi (the parameters are fixed)."""
    s = rng.normal(0.0, cfg.sigma_s, cfg.n_agents)
    xi = rng.normal(0.0, cfg.sigma_xi, cfg.n_agents)
    return step(params, history, s, xi)


# Sensitivities and threshold sizes as SimConfig accepts them: any positive
# finite double up to 1.7e308, subnormals included.
POSITIVE = st.floats(min_value=5e-324, max_value=1.7e308)


# A range SimConfig accepts for the buy thresholds and the sensitivities:
# two positive finite doubles, lo < hi; negated, for the sell thresholds.
POSITIVE_RANGE = st.lists(POSITIVE, min_size=2, max_size=2, unique=True).map(sorted).map(tuple)


class TestInitPopulation:
    def test_support_bounds(self):
        cfg = SimConfig(n_agents=200, n_commodities=5, seed=1)
        theta_buy, theta_sell, sensitivity, attention = drawn_population(cfg)
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
        sensitivity = drawn_population(cfg)[2]
        assert sensitivity.shape == (1, 2, 50)
        assert np.allclose(sensitivity, 1.0, atol=2e-9)

    def test_same_seed_bit_identical(self):
        cfg = SimConfig(n_agents=100, n_commodities=4, seed=77)
        for one, two in zip(drawn_population(cfg), drawn_population(cfg)):
            assert np.array_equal(one, two)

    def test_invalid_range_rejected(self):
        with pytest.raises(ConfigurationError):
            SimConfig(a_range=(2.0, 1.0))

    def test_group_shares_thresholds_and_draws_each_range_alone(self):
        cfg = SimConfig(n_agents=30, n_commodities=4, seed=8)
        a_ranges = [(1.0, 3.0), (5e-324, 1e-300), (0.5, 6.0)]
        rng = np.random.default_rng(8)
        theta_buy, theta_sell, sensitivity, attention = init_population(cfg, a_ranges, rng)
        assert sensitivity.shape == (3, 4, 30) and sensitivity.flags.c_contiguous
        for a_range, member in zip(a_ranges, sensitivity, strict=True):
            alone = np.random.default_rng(8)
            alone_buy = alone.uniform(*cfg.theta_buy_range, (30, 4))
            alone_sell = alone.uniform(*cfg.theta_sell_range, (30, 4))
            assert member.tobytes() == alone.uniform(*a_range, (30, 4)).T.tobytes()
            # One shared draw of the thresholds and their attention.
            assert theta_buy.tobytes() == alone_buy.T.tobytes()
            assert theta_sell.tobytes() == alone_sell.T.tobytes()
            assert attention.tobytes() == (1.0 / (alone_sell**2 + alone_buy**2)).tobytes()
            # The group leaves the stream where one config's draw does.
            assert rng.bit_generator.state == alone.bit_generator.state
        assert (theta_buy.shape, theta_sell.shape, attention.shape) == ((4, 30), (4, 30), (30, 4))

    @settings(max_examples=200, deadline=None)
    @given(buy=POSITIVE_RANGE, sell=POSITIVE_RANGE, a_ranges=st.lists(POSITIVE_RANGE, min_size=1, max_size=4),
           n_agents=st.integers(1, 7), n_commodities=st.integers(1, 4), seed=st.integers(0, 2**64 - 1))
    # Subnormal ranges, and a width of one ulp.
    @example(buy=(5e-324, 1e-323), sell=(5e-324, 2e-323), a_ranges=[(5e-324, 1e-323), (1.0, 1.0000000000000002)],
             n_agents=5, n_commodities=3, seed=0)
    def test_one_unit_draw_is_three_uniform_draws(self, buy, sell, a_ranges, n_agents, n_commodities, seed):
        """Each affine map of the one (3, N, M) unit draw has the bits of its
        `rng.uniform` draw, and the generator ends where three such draws
        leave it.  A numpy that fused `lo + (hi - lo) * u` into one rounding
        would fail here rather than change the seed's bits unnoticed."""
        # The fields init_population reads, unchecked: SimConfig refuses
        # thresholds whose squares underflow or overflow, for their attention,
        # which is not what is tested here.
        cfg = SimpleNamespace(n_agents=n_agents, n_commodities=n_commodities, theta_buy_range=buy,
                              theta_sell_range=(-sell[1], -sell[0]))
        shape = (n_agents, n_commodities)
        rng = np.random.default_rng(seed)
        with np.errstate(divide="ignore", over="ignore"):
            theta_buy, theta_sell, sensitivity, _ = init_population(cfg, a_ranges, rng)
        for a_range, member in zip(a_ranges, sensitivity, strict=True):
            alone = np.random.default_rng(seed)
            assert theta_buy.tobytes() == alone.uniform(*cfg.theta_buy_range, shape).T.tobytes()
            assert theta_sell.tobytes() == alone.uniform(*cfg.theta_sell_range, shape).T.tobytes()
            assert member.tobytes() == alone.uniform(*a_range, shape).T.tobytes()
            assert rng.bit_generator.state == alone.bit_generator.state

    @settings(max_examples=200, deadline=None)
    @given(buy=POSITIVE_RANGE, sell=POSITIVE_RANGE, seed=st.integers(0, 2**64 - 1))
    def test_accepted_thresholds_give_every_agent_a_finite_positive_attention(self, buy, sell, seed):
        try:
            cfg = SimConfig(n_agents=7, n_commodities=3, theta_buy_range=buy, theta_sell_range=(-sell[1], -sell[0]),
                            seed=seed)
        except ConfigurationError as refused:
            assert "theta_buy_range" in str(refused) and "theta_sell_range" in str(refused)
            # Refused only where an agent at a corner of the ranges would have
            # an infinite or zero attention.
            with np.errstate(divide="ignore", over="ignore"):
                corners = 1.0 / (np.array([sell[0], sell[1]]) ** 2 + np.array(buy) ** 2)
            assert not (np.isfinite(corners[0]) and corners[1] > 0)
            return
        attention = drawn_population(cfg)[3]
        assert np.all(np.isfinite(attention)) and np.all(attention > 0)


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
        population = (theta_buy[None], theta_sell[None], sensitivity[None, None], np.ones((len(agents), 1)))
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


class TestPerceive:
    """Perception: attention-weighted mean recent return plus noise s."""

    def test_zero_history_zero_noise(self):
        # Thresholds of 1e-150 trade on any perception but an exact zero.
        # No buyer and no seller on a commodity means every agent waits on it.
        tiny = np.full((3, 2), 1e-150)
        buyers, sellers = quiet_step(manual_params(tiny, -tiny, np.ones((3, 2))), np.zeros((1, 2)))
        assert buyers.tolist() == [0, 0] and sellers.tolist() == [0, 0]

    def test_single_commodity_analytic(self):
        # attention = 1/(0.5^2 + 0.5^2) = 2, so the perception is exactly
        # 2 * 0.25 = 0.5: a sensitivity of 1 meets the 0.5 buy threshold,
        # one ulp less misses it.  One agent: its counts are its attitude.
        below_one = np.nextafter(1.0, 0.0)
        buyers, sellers = quiet_step(manual_params([[0.5]], [[-0.5]], [[1.0]]), [[0.25]])
        assert buyers.tolist() == [1] and sellers.tolist() == [0]
        buyers, sellers = quiet_step(manual_params([[0.5]], [[-0.5]], [[below_one]]), [[0.25]])
        assert buyers.tolist() == [0] and sellers.tolist() == [0]

    def test_matches_scalar_loop(self):
        cfg = SimConfig(n_agents=7, n_commodities=3, ma_span=4, seed=5)
        population = drawn_population(cfg)
        history = np.random.default_rng(6).normal(scale=1e-6, size=(4, 3))
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
                x += c * sum(history[tau, k] for tau in range(4)) / 4
            for j in range(3):
                signal = sensitivity[j, i] * (x + xi[i])
                expected_buyers[j] += int(signal >= theta_buy[j, i])
                expected_sellers[j] += int(signal <= theta_sell[j, i])
        assert buyers.tolist() == expected_buyers
        assert sellers.tolist() == expected_sellers


class TestDecide:
    """Threshold rule: buy at or above theta_buy, sell at or below theta_sell.

    Each case is one agent, so its (buyers, sellers) counts are its attitude.
    """

    def test_zero_signal_waits(self):
        buyers, sellers = quiet_step(manual_params([[0.01]], [[-0.01]], [[2.0]]), [[0.0]])
        assert buyers.tolist() == [0] and sellers.tolist() == [0]

    def test_buy_boundary_inclusive(self):
        # attention = 1/(0.25^2 + 0.25^2) = 8 and history +-1/32 put the
        # signal exactly on a threshold; both boundaries count as crossed.
        params = manual_params([[0.25]], [[-0.25]], [[1.0]])
        buyers, sellers = quiet_step(params, [[1 / 32]])
        assert buyers.tolist() == [1] and sellers.tolist() == [0]
        buyers, sellers = quiet_step(params, [[-1 / 32]])
        assert buyers.tolist() == [0] and sellers.tolist() == [1]

    def test_sell_threshold_crossed(self):
        # attention 1250, history -8.8e-6: perception -0.011, signal -0.022.
        params = manual_params([[0.02]], [[-0.02]], [[2.0]])
        buyers, sellers = quiet_step(params, [[-8.8e-6]])
        assert buyers.tolist() == [0] and sellers.tolist() == [1]


class TestCount:
    """The step counts a row's flags by the popcounts of its padded words."""

    @pytest.mark.parametrize("n_agents", [1, 7, 8, 9, 2001])
    def test_padded_popcount_is_the_flag_sum_and_the_padding_stays_zero(self, n_agents):
        cfg = SimConfig(n_agents=n_agents, n_commodities=3, ma_span=2, seed=n_agents)
        population = drawn_population(cfg, LOCKSTEP_A_RANGES)
        members = [levels_of(population, r) for r in range(3)]
        work = step_buffers(3, n_agents)  # shared by the three members, as in a lockstep group
        flags = work[1]
        assert flags.shape == (2, 3, -(-n_agents // 8) * 8)
        noise = np.random.default_rng(n_agents)
        history = np.zeros((3, 2, 3))
        last = []  # each member's flags of the last step
        for _ in range(20):
            # Noise wide enough that agents buy, sell and wait.
            s, xi = noise.normal(0.0, 0.02, (2, n_agents))
            last.clear()
            for params, past in zip(members, history):
                buyers, sellers = step(params, past, s, xi, work)
                assert buyers.tolist() == flags[0, :, :n_agents].sum(axis=-1).tolist()
                assert sellers.tolist() == flags[1, :, :n_agents].sum(axis=-1).tolist()
                assert not flags[..., n_agents:].any()
                last.append(flags[..., :n_agents].copy())
                past[1:] = past[:-1]
                past[0] = net_return(cfg, buyers, sellers)
        assert 0 < np.sum(last) < np.size(last)


class TestStepMarket:
    def quiet_cfg(self, **kwargs):
        return SimConfig(
            n_agents=40, n_commodities=3, sigma_xi=0.0, sigma_s=0.0, seed=3, **kwargs
        )

    def test_all_waiting_fixed_point(self):
        cfg = self.quiet_cfg()
        rng = np.random.default_rng(0)
        params = levels_of(init_population(cfg, [cfg.a_range], rng))
        buyers, sellers = drawn_step(params, np.zeros((1, 3)), cfg, rng)
        assert buyers.tolist() == [0, 0, 0] and sellers.tolist() == [0, 0, 0]

    def test_unanimous_buying_saturates(self):
        cfg = self.quiet_cfg()
        rng = np.random.default_rng(0)
        params = levels_of(init_population(cfg, [cfg.a_range], rng))
        history = np.full((1, 3), 1.0)  # huge shared return signal
        buyers, sellers = drawn_step(params, history, cfg, rng)
        # Every agent buys every commodity: N buyers, no seller.
        assert buyers.tolist() == [cfg.n_agents] * 3 and sellers.tolist() == [0, 0, 0]
        assert np.all(net_return(cfg, buyers, sellers) == pytest.approx(cfg.gamma, rel=1e-12))

    def test_returns_bounded_by_gamma(self):
        # With one agent the counts are its attitude; with 60 they bound it.
        for n_agents in (1, 60):
            cfg = SimConfig(n_agents=n_agents, n_commodities=4, seed=9)
            rng = np.random.default_rng(9)
            params = levels_of(init_population(cfg, [cfg.a_range], rng))
            history = np.zeros((1, 4))
            for _ in range(200):
                buyers, sellers = drawn_step(params, history, cfg, rng)
                # Each agent buys, sells or waits: at most one action per commodity.
                assert np.all(buyers >= 0) and np.all(sellers >= 0)
                assert np.all(buyers + sellers <= n_agents)
                history = net_return(cfg, buyers, sellers)[None]
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
        params = levels_of(init_population(cfg, [cfg.a_range], rng))
        history = np.zeros((1, 4))
        total = np.zeros(4)
        for _ in range(cfg.horizon):
            history[0] = net_return(cfg, *drawn_step(params, history, cfg, rng))
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
    """The draw thread never outlives `run_simulation`, and a failed draw or step is the caller's."""

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

        def third_call_fails(cfg, a_ranges, rng):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise failure
            return real(cfg, a_ranges, rng)

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

    def test_failed_step_reaches_the_caller_and_leaves_no_thread(self, monkeypatch):
        """A step that raises in the third block, while the draw thread fills
        the fourth, is the caller's error, and the thread is joined."""
        real = simulator.step_market
        steps = []
        failure = RuntimeError("step 40")

        def fails_at_step_40(*args):
            steps.append(threading.current_thread())
            if len(steps) == 40:
                raise failure
            return real(*args)

        monkeypatch.setattr(simulator, "step_market", fails_at_step_40)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            run_simulation(SimConfig(horizon=200, warmup=0))  # blocks of BLOCK = 16 steps
        assert caught.value is failure and len(steps) == 40
        assert threading.active_count() == before
        assert all(thread is threading.main_thread() for thread in steps)


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
    "warmup_ends_mid_block": dict(horizon=2 * BLOCK, warmup=BLOCK + BLOCK // 2, seed=9),
    "resampled_two_blocks": dict(n_agents=30, n_commodities=4, horizon=40,
                                 warmup=LOCKSTEP_RESAMPLE_BLOCK - 20, ma_span=2, gamma=2e-6,
                                 resample_params=True, seed=10),
    "one_by_one": dict(n_agents=1, n_commodities=1, horizon=30, warmup=5, sigma_s=0.02, seed=4),
}


class TestLockstep:
    """`run_simulations` gives each member the panels of its config run alone."""

    @pytest.mark.parametrize("case", sorted(LOCKSTEP_GRID))
    def test_members_match_their_runs_alone(self, case):
        cfg = SimConfig(**LOCKSTEP_GRID[case])
        panels = run_simulations(cfg, LOCKSTEP_A_RANGES)
        for a_range, (rates, activity) in zip(LOCKSTEP_A_RANGES, panels, strict=True):
            alone_rates, alone_activity = run_simulation(replace(cfg, a_range=a_range))
            assert rates.values.tobytes() == alone_rates.values.tobytes()
            assert activity.values.tobytes() == alone_activity.values.tobytes()
            assert (rates.labels, rates.dt) == (alone_rates.labels, alone_rates.dt)
        # The ranges differ, so the members do too.
        assert panels[0][0].values.tobytes() != panels[1][0].values.tobytes()

    def test_group_of_one_is_run_simulation(self):
        cfg = SimConfig(**ATTITUDE_GRID["defaults"])
        (rates, activity), = run_simulations(cfg, [cfg.a_range])
        ref_rates, ref_activity = attitude_simulation(cfg)
        assert rates.values.tobytes() == ref_rates.tobytes()
        assert activity.values.tobytes() == ref_activity.tobytes()

    @pytest.mark.parametrize("a_range, message", [
        ((1, 2, 3), "a_range must be two numbers, lo and hi, got (1, 2, 3)"),
        ((2.0, 1.0), "sensitivity range needs 0 < a1 < a2, got (2.0, 1.0)"),
        ((1.0, np.inf), "a_range must be finite numbers, got (1.0, inf)"),
    ])
    def test_each_range_is_checked_as_the_configs_before_any_draw(self, monkeypatch, a_range, message):
        def no_draw(*args):
            raise AssertionError("drew for a range the config would refuse")

        monkeypatch.setattr(simulator, "init_population", no_draw)
        monkeypatch.setattr(simulator, "draw_steps", no_draw)
        cfg = SimConfig(n_agents=10, n_commodities=2, horizon=30, seed=0)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            run_simulations(cfg, [(0.5, 2.0), a_range])

    def test_no_range_is_no_run(self, monkeypatch):
        def no_draw(*args):
            raise AssertionError("drew for an empty group")

        monkeypatch.setattr(simulator, "init_population", no_draw)
        monkeypatch.setattr(simulator, "draw_steps", no_draw)
        before = threading.active_count()
        assert run_simulations(SimConfig(n_agents=10, n_commodities=2, horizon=30, seed=0), []) == []
        assert threading.active_count() == before

    def test_failed_draw_reaches_the_caller_and_leaves_no_thread(self, monkeypatch):
        real = simulator.init_population
        calls = []
        failure = RuntimeError("the group's second step draw")

        def fails_on_the_draw_thread(cfg, a_ranges, rng):
            calls.append(threading.current_thread())
            if len(calls) == 3:
                raise failure
            return real(cfg, a_ranges, rng)

        monkeypatch.setattr(simulator, "init_population", fails_on_the_draw_thread)
        cfg = SimConfig(n_agents=50, n_commodities=3, horizon=20, warmup=0, resample_params=True)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as caught:
            run_simulations(cfg, LOCKSTEP_A_RANGES)
        assert caught.value is failure
        assert threading.active_count() == before
        # One draw per group: the first on this thread, the failed one on the draw thread.
        assert len(calls) == 3 and calls[0] is threading.main_thread()
        assert calls[-1] is not threading.main_thread()


class TestLoopOracle:
    """`_lockstep`, its rates and activity settled once per read-ahead block,
    against the loop that settles them one step at a time."""

    @settings(max_examples=60, deadline=None)
    @given(n_agents=st.integers(1, 41).filter(lambda n: n % 8), n_commodities=st.integers(1, 5),
           a_ranges=st.lists(st.sampled_from(LOCKSTEP_A_RANGES), min_size=1, max_size=3),
           ma_span=st.integers(1, 4), warmup=st.integers(0, 13), horizon=st.integers(2, 12),
           block=st.integers(1, 5), gamma=st.sampled_from([2e-7, 2e-5]), resample=st.booleans(),
           seed=st.integers(0, 2**32))
    # A warm-up that ends in the middle of a block of 4.
    @example(n_agents=9, n_commodities=3, a_ranges=LOCKSTEP_A_RANGES, ma_span=3, warmup=6, horizon=7,
             block=4, gamma=2e-5, resample=False, seed=1)
    def test_equals_the_step_by_step_loop(self, n_agents, n_commodities, a_ranges, ma_span, warmup, horizon,
                                          block, gamma, resample, seed):
        cfg = SimConfig(n_agents=n_agents, n_commodities=n_commodities, ma_span=ma_span, warmup=warmup,
                        horizon=horizon, gamma=gamma, resample_params=resample, seed=seed)
        # A byte budget of `block` steps' draws.
        step_bytes = 8 * (2 * n_agents + ((3 + len(a_ranges)) * n_agents * n_commodities if resample else 0))
        with mock.patch.object(simulator, "READ_AHEAD_BYTES", block * step_bytes):
            rates, activity = simulator._lockstep(cfg, a_ranges)
        loop_rates, loop_activity = loop_lockstep(cfg, a_ranges)
        assert rates.tobytes() == loop_rates.tobytes()
        assert activity.tobytes() == loop_activity.tobytes()


def accepted_reals(kind):
    """Strategy of (gamma, (sigma_xi, sigma_s), the ends of the three ranges,
    dt) as values of the number type `kind` that SimConfig accepts: integral
    ones for `int`.  Each range's ends are distinct as `kind` values, and a
    dt of at most 250 minutes puts the last of 2**24 samples before 10000."""
    if kind is int:
        bounds = ((1, 10), (0, 1), (1, 100), (1, 250))
        gamma, sigma, end, dt = (st.integers(lo, hi) for lo, hi in bounds)
    else:
        bounds = ((1e-12, 1e-3), (0, 1), (0.01, 100.0), (1e-3, 250.0))
        gamma, sigma, end, dt = (st.floats(lo, hi).map(kind) for lo, hi in bounds)
    ends = st.lists(end, min_size=2, max_size=2, unique=True)
    return st.tuples(gamma, st.tuples(sigma, sigma), st.tuples(ends, ends, ends), dt)


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

    @pytest.mark.parametrize(
        "line, reason",
        [
            ("seed 7", "line 2: expected `key = value`"),
            ("a_range = 1.5", "line 2: bad value for a_range: expected two numbers"),
            ("resample_params = yes", "line 2: bad value for resample_params: expected true/false"),
        ],
    )
    def test_unreadable_line_is_named(self, tmp_path, line, reason):
        path = tmp_path / "sim.cfg"
        path.write_text(f"horizon = 100\n{line}\n")
        with pytest.raises(ConfigurationError, match=f"^{re.escape(f'{path}: {reason}')}"):
            load_sim_config(path)

    @given(
        # n_commodities, then a horizon within the cell bound, which has its own tests.
        shape=st.integers(1, 10**6).flatmap(lambda m: st.tuples(st.just(m), st.integers(2, MAX_CELLS // m))),
        counts=st.tuples(*(st.integers(low, 10**6) for low in (1, 1, 0)), st.integers(0, 2**63 - 1)),
        reals=st.sampled_from([float, np.float64, np.float32, int]).flatmap(accepted_reals),
        resample=st.booleans(),
        int_type=st.sampled_from([int, np.int64, np.int32, np.uint32]),
        as_list=st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_accepted_config_reloads_from_its_provenance(
        self, tmp_path_factory, shape, counts, reals, resample, int_type, as_list
    ):
        """Whatever number types and sequence a config was given as, it holds
        plain ints, floats and pairs of floats, and its provenance lines,
        written as a config file, load back as the same config."""

        def pair(xs):
            lo, hi = sorted(xs)
            return [lo, hi] if as_list else (lo, hi)

        (n_commodities, horizon), (n_agents, ma_span, warmup, seed) = shape, counts
        gamma, sigmas, ranges, dt = reals
        cfg = SimConfig(
            n_agents=int_type(min(n_agents, 2**31 - 1)), n_commodities=int_type(n_commodities),
            horizon=int_type(horizon), ma_span=int_type(ma_span), warmup=int_type(warmup),
            seed=np.uint64(seed) if int_type is np.uint32 else int_type(seed % 2**31),
            gamma=gamma, sigma_xi=sigmas[0], sigma_s=sigmas[1],
            theta_buy_range=pair(ranges[0]), theta_sell_range=pair([-x for x in ranges[1]]),
            a_range=pair(ranges[2]), dt=dt, resample_params=np.bool_(resample),
        )
        for f in fields(SimConfig):
            value = getattr(cfg, f.name)
            assert type(value) is type(f.default), f.name
            assert not isinstance(value, tuple) or list(map(type, value)) == [float, float], f.name
        path = tmp_path_factory.mktemp("cfg") / "sim.cfg"
        path.write_text("".join(f"{key} = {text}\n" for key, text in cfg.provenance().items()))
        assert load_sim_config(path) == cfg

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(seed=True), "seed must be an integer, got True"),
            (dict(warmup=False), "warmup must be an integer, got False"),
            (dict(sigma_xi=-0.1), "noise scales must be nonnegative"),
            (dict(sigma_s=-1e-9), "noise scales must be nonnegative"),
            # A model tick below a stamp's 1 ms would write rows `read_panel_csv` cannot place.
            (dict(dt=1e-6), "dt must be a finite number of minutes of at least 1 ms, got 1e-06"),
            (dict(dt=0.0), "dt must be a finite number of minutes of at least 1 ms, got 0.0"),
            (dict(gamma="2e-7"), "gamma must be a finite number, got '2e-7'"),
            (dict(a_range=(1.0, np.nan)), "a_range must be finite numbers, got (1.0, nan)"),
            (dict(a_range=(1.0, 2.0, 3.0)), "a_range must be two numbers, lo and hi, got (1.0, 2.0, 3.0)"),
            (dict(theta_buy_range=(0.01,)), "theta_buy_range must be two numbers, lo and hi, got (0.01,)"),
            (dict(resample_params="false"), "resample_params must be true or false, got 'false'"),
            (dict(resample_params=2), "resample_params must be true or false, got 2"),
            # Squares that underflow give every agent an infinite attention,
            # squares that overflow a zero one: the market would never move.
            (dict(theta_buy_range=(1e-200, 2e-200), theta_sell_range=(-2e-200, -1e-200)),
             "theta_buy_range (1e-200, 2e-200) and theta_sell_range (-2e-200, -1e-200) give attentions "
             "1/(theta_sell^2 + theta_buy^2) from inf to inf; they must be finite and positive"),
            (dict(theta_buy_range=(1e200, 2e200), theta_sell_range=(-2e200, -1e200)),
             "theta_buy_range (1e+200, 2e+200) and theta_sell_range (-2e+200, -1e+200) give attentions "
             "1/(theta_sell^2 + theta_buy^2) from 0.0 to 0.0; they must be finite and positive"),
            # The last sample, (horizon - 1) * dt minutes after 1970, must have a stamp a file can hold.
            (dict(horizon=10, dt=469263520.0),
             "dt 469263520.0 puts sample 9 after t0 0.0 s past 9999-12-31T23:59:59.999999Z, the last time a file can hold"),
        ],
    )
    def test_refused_values_name_their_field(self, change, message):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
            SimConfig(**change)

    def test_panel_cells_are_bounded_like_a_resample(self):
        # A panel is held whole: n_commodities * horizon may not pass MAX_CELLS,
        # checked before the last stamp, so a horizon numpy cannot allocate is
        # refused up front.
        assert SimConfig(n_commodities=16, horizon=MAX_CELLS // 16).horizon == 2**20
        with pytest.raises(ConfigurationError, match=re.escape(
                f"16 channel(s) x {2**20 + 1} samples is {MAX_CELLS + 16} cells, "
                f"more than the {MAX_CELLS} a panel may hold")):
            SimConfig(n_commodities=16, horizon=2**20 + 1)
        with pytest.raises(ConfigurationError, match="^" + re.escape(f"20 channel(s) x {10**30} samples is ")):
            SimConfig(horizon=10**30)

    # The least |theta| whose attention 1/(2 theta^2) is finite, and the
    # greatest whose attention is positive: accepted, and one ulp beyond refused.
    @pytest.mark.parametrize("edge, beyond", [(5.273843307431502e-155, 0.0), (9.480751908109176e+153, np.inf)])
    def test_attention_boundary_pairs(self, edge, beyond):
        def ranges(theta):
            lo, hi = sorted((theta, 1.0))
            return dict(theta_buy_range=(lo, hi), theta_sell_range=(-hi, -lo))

        cfg = SimConfig(n_agents=5, n_commodities=2, **ranges(edge))
        attention = drawn_population(cfg)[3]
        assert np.all(np.isfinite(attention)) and np.all(attention > 0)
        with pytest.raises(ConfigurationError, match="theta_buy_range .* and theta_sell_range .* give attentions"):
            SimConfig(**ranges(np.nextafter(edge, beyond)))

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
        need = "at least 0" if seed == -1 else "an integer"
        with pytest.raises(ConfigurationError, match=f"^seed must be {need}, got {seed!r}$"):
            SimConfig(seed=seed)
        assert SimConfig(seed=np.int64(3)).seed == 3

    def test_negative_seed_line_rejected(self, tmp_path):
        path = tmp_path / "sim.cfg"
        path.write_text("seed = -1\n")
        with pytest.raises(ConfigurationError, match="seed must be at least 0, got -1"):
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
