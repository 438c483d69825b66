"""Threshold agent-based market model generating rate and activity panels.

N agents hold buy/sell thresholds and a sensitivity for each of M
commodities.  Each step an agent forms a scalar perception from
attention-weighted recent returns plus private exogenous noise, scales it
by its sensitivity, and acts on each commodity whose threshold the signal
crosses: buy, sell, or wait.  The step compares the noisy perception
itself with break-even levels, computed once per parameter draw, at which
the scaled signal reaches each threshold.  Buyers minus sellers move log
rates, buyers plus sellers are the quotation activity.  Runs are
deterministic given the seed: parameter draws, then per-step noise
draws, always in the same order, made by `draw_steps` on a second thread
one block ahead of the steps.  Runs whose configs differ only in the
sensitivity range consume the same stream, so `run_simulations` steps them
as one group along a member axis; `run_simulation` is a group of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .spectra import SignalPanel

# Return scale per net buyer.  The attention weights are of order
# 1/theta^2 ~ 2.5e3, so the loop gain of the endogenous feedback is roughly
# gamma * M * attention * response-density; gamma above ~1e-6 drives the
# market into permanently saturated herding.  The default keeps the
# feedback strong but subcritical.
DEFAULT_GAMMA = 2e-7
DEFAULT_NOISE_SIGMA = 0.005
DEFAULT_A_RANGE = (1.0, 3.0)
DEFAULT_WARMUP = 512
# Bytes of draws in one read-ahead block of `run_simulations`: 16 steps of
# noise at N = 2000.  Two blocks are alive at once.
READ_AHEAD_BYTES = 2**19


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters; invalid combinations raise ConfigurationError."""

    n_agents: int = 2000
    n_commodities: int = 20
    horizon: int = 8192
    ma_span: int = 1
    gamma: float = DEFAULT_GAMMA
    sigma_xi: float = DEFAULT_NOISE_SIGMA
    sigma_s: float = DEFAULT_NOISE_SIGMA
    theta_buy_range: tuple[float, float] = (0.01, 0.02)
    theta_sell_range: tuple[float, float] = (-0.02, -0.01)
    a_range: tuple[float, float] = DEFAULT_A_RANGE
    seed: int = 0
    dt: float = 1.0
    warmup: int = DEFAULT_WARMUP
    resample_params: bool = False

    @property
    def labels(self) -> tuple[str, ...]:
        """The panels' channel names c1, c2, ..., zero-padded to one width."""
        width = len(str(self.n_commodities))
        return tuple(f"c{j + 1:0{width}d}" for j in range(self.n_commodities))

    def __post_init__(self):
        def fail(msg: str) -> None:
            raise ConfigurationError(msg)

        for f in fields(self):
            value = getattr(self, f.name)
            numbers = value if isinstance(value, tuple) else (value,)
            if any(isinstance(x, float) and not math.isfinite(x) for x in numbers):
                fail(f"{f.name} must be finite, got {value!r}")
        # numpy refuses a float or bool count only mid-run; each count has a least value.
        for name, least in (("n_agents", 1), ("n_commodities", 1), ("horizon", 2), ("ma_span", 1), ("warmup", 0)):
            value = getattr(self, name)
            if not isinstance(value, Integral) or isinstance(value, bool):
                fail(f"{name} must be an integer, got {value!r}")
            if value < least:
                fail(f"{name} must be at least {least}, got {value}")
        if self.n_agents >= 2**31:
            fail(f"n_agents must be between 1 and 2**31 - 1 (int32 counts), got {self.n_agents}")
        if not self.gamma > 0:
            fail(f"return scale must be positive, got {self.gamma}")
        if self.sigma_xi < 0 or self.sigma_s < 0:
            fail("noise scales must be nonnegative")
        lo, hi = self.theta_buy_range
        if not (0 < lo < hi):
            fail(f"buy thresholds need 0 < lo < hi, got {self.theta_buy_range}")
        lo, hi = self.theta_sell_range
        if not (lo < hi < 0):
            fail(f"sell thresholds need lo < hi < 0, got {self.theta_sell_range}")
        a1, a2 = self.a_range
        if not (0 < a1 < a2):
            fail(f"sensitivity range needs 0 < a1 < a2, got {self.a_range}")
        if not self.dt > 0:
            fail(f"model tick must be positive, got {self.dt}")
        # numpy seeds only from nonnegative integers; refused here, not mid-run.
        if not isinstance(self.seed, Integral) or self.seed < 0:
            fail(f"seed must be a nonnegative integer, got {self.seed!r}")

    def provenance(self) -> dict[str, str]:
        """Each field as text `load_sim_config` reads back: ranges as `lo,hi`,
        everything else by repr."""
        text = {}
        for f in fields(self):
            value = getattr(self, f.name)
            text[f.name] = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        return text


def init_population(cfgs, rng: np.random.Generator):
    """Sample (theta_buy, theta_sell, sensitivity, attention) for a lockstep group of R configs.

    Thresholds and sensitivities are i.i.d. uniform over the configured
    ranges, drawn as (N, M) in that order, so the same seed gives the same
    bits, and kept as C-order (M, N) rows.  The thresholds are shared; each
    config draws its sensitivities into one (R, M, N) array from the same
    stream position, which a draw of any range advances alike, so `rng`
    ends where one config's draw leaves it.  `attention` is
    1/(theta_sell^2 + theta_buy^2); it stays (N, M), as a transposed matvec
    operand would change BLAS's summation order and so the panels' last bits.
    """
    cfg = cfgs[0]
    shape = (cfg.n_agents, cfg.n_commodities)
    theta_buy = rng.uniform(*cfg.theta_buy_range, shape)
    theta_sell = rng.uniform(*cfg.theta_sell_range, shape)
    start = rng.bit_generator.state
    sensitivity = np.empty((len(cfgs), cfg.n_commodities, cfg.n_agents))
    for member, one in zip(sensitivity, cfgs):
        rng.bit_generator.state = start
        member[:] = rng.uniform(*one.a_range, shape).T
    attention = 1.0 / (theta_sell**2 + theta_buy**2)
    return theta_buy.T.copy(), theta_sell.T.copy(), sensitivity, attention


def break_even(sensitivity: np.ndarray, threshold: np.ndarray, out: np.ndarray, scratch: np.ndarray):
    """Write into `out` the least float64 u with `sensitivity * u >= threshold`.

    Elementwise, for positive float64 arrays, subnormals included, with
    `threshold` broadcast along leading axes; `out` and `scratch` are
    C-order float64 arrays of `sensitivity`'s shape that share no memory
    with the inputs or each other, and `scratch` is overwritten.  The
    rounded product a * u never falls as u rises (a > 0), so it reaches
    the threshold exactly when u reaches this level, bit for bit; +inf
    means only u = +inf does.

    The search steps through the doubles' int64 bit patterns, which order
    the nonnegative ones, from the rounded quotient q = threshold / a.
    The double after q lies above the exact quotient, so where q does not
    reach, the level is q + 1 ulp.  Where q reaches, the level is q unless
    q - 1 ulp reaches too (about one element in twelve).  Those are
    searched downwards towards +0, which never reaches, by steps of 1, 2,
    4, ... ulps until a probe falls short, then by halving: one probe
    normally, at most 126 where the product lost bits to underflow.
    """
    with np.errstate(over="ignore"):
        np.divide(threshold, sensitivity, out=out)
        bits = out.view(np.int64)
        reaches = np.multiply(sensitivity, out, out=scratch) >= threshold
        bits += ~reaches
        np.subtract(bits, 1, out=scratch.view(np.int64))
        lower = np.flatnonzero((np.multiply(sensitivity, scratch, out=scratch) >= threshold) & reaches)
        # A flat index modulo the threshold's size skips its broadcast axes.
        a, theta = sensitivity.take(lower), threshold.take(lower % threshold.size)
        lo, hi = np.zeros_like(lower), bits.take(lower) - 1
        step = 1
        while np.any(hi - lo > 1):
            probe = hi - np.minimum(step, (hi - lo) // 2)
            reached = a * probe.view(np.float64) >= theta
            lo, hi = np.where(reached, lo, probe), np.where(reached, probe, hi)
            step = min(2 * step, 2**62)  # a step past half the bracket halves it; int64 holds 2**62
        np.put(bits, lower, hi)
    return out


def break_even_levels(population, out):
    """Fill `out`, an (R, M, N) buy and an (R, M, N) sell array, with the levels each agent acts at.

    An agent buys a commodity when its noisy perception u reaches the least
    value whose product with its sensitivity reaches theta_buy, and sells
    when u is at or below the greatest value whose product stays at or
    below theta_sell.  Rounding to nearest is symmetric in sign, so that
    greatest value is -break_even(a, -theta_sell).  The (M, N) thresholds
    broadcast against the (R, M, N) sensitivities.  Returns the step's
    parameters (buy_at, sell_at, attention).
    """
    theta_buy, theta_sell, sensitivity, attention = population
    buy_at, sell_at = out
    scratch = np.empty_like(buy_at)
    np.negative(theta_sell, out=buy_at)
    break_even(sensitivity, buy_at, sell_at, scratch)
    np.negative(sell_at, out=sell_at)
    break_even(sensitivity, theta_buy, buy_at, scratch)
    return buy_at, sell_at, attention


def step_market(params, history: np.ndarray, s: np.ndarray, xi: np.ndarray, work) -> tuple:
    """One tick of a lockstep group: return the (R, M) int32 counts of buyers and of sellers.

    `params` is `break_even_levels`' (buy_at, sell_at, attention);
    `history` holds each member's last `ma_span` returns, (R, ma_span, M),
    newest first; `s` and `xi` are the members' (N,) exogenous perception
    noise and interpretation noise.  Each agent perceives its
    attention-weighted mean recent return plus s, and buys where
    perception + xi is at or above buy_at, sells at or below sell_at, and
    waits otherwise.  `work` is an (M, N) float64 and a (2, R, M, N) bool
    buffer that the step overwrites; no other input is mutated.
    """
    buy_at, sell_at, attention = params
    u, flags = work
    # Member by member: a batched matvec would change BLAS's summation order,
    # and one member's perception stays in cache for both of its compares.
    for mean, buy, sell, buys, sells in zip(history.mean(axis=1), buy_at, sell_at, *flags):
        u[:] = attention @ mean + s + xi
        np.greater_equal(u, buy, out=buys)
        np.less_equal(u, sell, out=sells)
    # A uint8 view of the bools sums in int32 without a cast pass; integer
    # sums are exact in any order (SimConfig keeps N below 2**31).
    buyers, sellers = np.add.reduce(flags.view(np.uint8), axis=-1, dtype=np.int32)
    return buyers, sellers


def draw_steps(cfgs, rng: np.random.Generator, noise: np.ndarray) -> list:
    """Make every random draw of `len(noise)` steps of a lockstep group, in the seed's order.

    Per step: the group's fresh parameters (`init_population`) when
    `resample_params` is set, then the N values of s, then the N values of
    xi.  s and xi fill the (steps, 2, N) buffer `noise` in place; the fresh
    parameters, one population per step, are returned (an empty list
    without resampling).  `standard_normal` scaled by sigma gives
    `normal(0, sigma)`'s values up to the sign of a zero, which no
    threshold comparison can tell apart.
    """
    cfg = cfgs[0]
    fresh = []
    if cfg.resample_params:
        for one in noise:
            fresh.append(init_population(cfgs, rng))
            rng.standard_normal(out=one)
    else:
        rng.standard_normal(out=noise)
    noise *= np.array([[cfg.sigma_s], [cfg.sigma_xi]])
    return fresh


def run_simulation(cfg: SimConfig) -> tuple[SignalPanel, SignalPanel]:
    """Run warm-up plus horizon steps and return (rates, activity) panels.

    Rates start at 1 and grow each step by exp(gamma/N * (buyers -
    sellers)); activity is buyers plus sellers per unit time.  The warm-up
    is discarded; both panels share labels, dt, and length `cfg.horizon`.
    Same seed, same panels, bit for bit.  This is `run_simulations([cfg])[0]`.
    """
    return run_simulations([cfg])[0]


def run_simulations(cfgs) -> list[tuple[SignalPanel, SignalPanel]]:
    """Run configs that differ only in `a_range` in lockstep; return each one's panels.

    Each member's (rates, activity) are bit for bit `run_simulation`'s of
    that config alone.  A config that differs from the first in any other
    field raises ConfigurationError before any draw.  The members share
    every draw but their sensitivities (`init_population`), and each step
    runs `step_market` once for the group, along a member axis R.
    """
    first = cfgs[0]
    for cfg in cfgs[1:]:
        differ = [f.name for f in fields(SimConfig)
                  if f.name != "a_range" and getattr(cfg, f.name) != getattr(first, f.name)]
        if differ:
            raise ConfigurationError(f"lockstep runs may differ only in a_range, not in {', '.join(differ)}")
    # The step's buffers are freed on return, before the panels copy the values.
    rates, activity = _lockstep(cfgs)
    return [(SignalPanel(rates[r], cfg.labels, cfg.dt), SignalPanel(activity[r], cfg.labels, cfg.dt))
            for r, cfg in enumerate(cfgs)]


def _lockstep(cfgs) -> tuple[np.ndarray, np.ndarray]:
    """The (R, M, horizon) rates and activity of `run_simulations`.

    The draws do not depend on the market, so a second thread makes them
    (`draw_steps`, which releases the GIL inside numpy) one block of at
    most READ_AHEAD_BYTES, and at least one step, ahead of this thread's
    steps, alternating between two buffers.  This thread turns each
    parameter draw into break-even levels, in buffers allocated once.
    """
    # Imported here, not at the top, so that commands which do not
    # simulate do not pay its import time.
    from concurrent.futures import ThreadPoolExecutor

    first = cfgs[0]
    rng = np.random.default_rng(first.seed)
    n, m, members = first.n_agents, first.n_commodities, len(cfgs)
    levels = np.empty((2, members, m, n))
    work = np.empty((m, n)), np.empty((2, members, m, n), dtype=bool)
    params = break_even_levels(init_population(cfgs, rng), levels)
    steps = first.warmup + first.horizon
    # A resampled step draws two thresholds, their attention and R sensitivities, each (N, M).
    step_bytes = 8 * (2 * n + ((3 + members) * n * m if first.resample_params else 0))
    block = min(steps, max(1, READ_AHEAD_BYTES // step_bytes))
    buffers = [np.empty((block, 2, n)) for _ in range(2)]
    rate = np.ones((members, m))
    history = np.zeros((members, first.ma_span, m))
    rates = np.empty((members, m, first.horizon))
    activity = np.empty((members, m, first.horizon))
    # Leaving the `with` joins the thread, also when a draw raised: a
    # forked sweep worker must not inherit it, nor a caller find it alive.
    with ThreadPoolExecutor(1) as drawer:
        ahead = drawer.submit(draw_steps, cfgs, rng, buffers[0])
        for b, start in enumerate(range(0, steps, block)):
            fresh = ahead.result()
            if start + block < steps:
                ahead = drawer.submit(draw_steps, cfgs, rng, buffers[(b + 1) % 2][: steps - start - block])
            for j, (s, xi) in enumerate(buffers[b % 2][: steps - start]):
                i = start + j - first.warmup
                if fresh:
                    params = break_even_levels(fresh[j], levels)
                buyers, sellers = step_market(params, history, s, xi, work)
                returns = (first.gamma / n) * (buyers - sellers)
                rate *= np.exp(returns)
                history[:, 1:] = history[:, :-1]
                history[:, 0] = returns
                if i >= 0:
                    rates[..., i] = rate
                    activity[..., i] = (buyers + sellers) / first.dt
    return rates, activity


def load_sim_config(path: str | Path) -> SimConfig:
    """Read a `key = value` config file into a SimConfig.

    Each key is parsed by the type of its SimConfig default: ranges take
    two numbers (`a_range = 0.5 3.5` or `0.5,3.5`), booleans accept
    true/false/1/0, the rest are int or float.  Unknown keys raise
    ConfigurationError.
    """
    defaults = {f.name: f.default for f in fields(SimConfig)}
    overrides: dict = {}
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}: line {lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in defaults:
            raise ConfigurationError(f"{path}: line {lineno}: unknown key {key!r}")
        kind = type(defaults[key])
        try:
            if kind is tuple:
                parts = value.replace(",", " ").split()
                if len(parts) != 2:
                    raise ValueError("expected two numbers")
                overrides[key] = (float(parts[0]), float(parts[1]))
            elif kind is bool:
                if value.lower() not in ("true", "false", "1", "0"):
                    raise ValueError("expected true/false")
                overrides[key] = value.lower() in ("true", "1")
            else:
                overrides[key] = kind(value)
        except ValueError as exc:
            raise ConfigurationError(f"{path}: line {lineno}: bad value for {key}: {exc}") from None
    return SimConfig(**overrides)
