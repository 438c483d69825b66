"""Threshold agent-based market model generating rate and activity panels.

N agents hold buy/sell thresholds and a sensitivity for each of M
commodities.  Each step an agent forms a scalar perception from
attention-weighted recent returns plus private exogenous noise, scales it
by its sensitivity, and acts on each commodity whose threshold the signal
crosses: buy, sell, or wait.  Buyers minus sellers move log rates, buyers
plus sellers are the quotation activity.  Runs are deterministic given the
seed: parameter draws, then per-step noise draws, always in the same
order, made by `draw_steps` on a second thread one block ahead of the
steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
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
# Bytes of draws in one read-ahead block of `run_simulation`: 16 steps of
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
        if not 1 <= self.n_agents < 2**31:
            fail(f"n_agents must be between 1 and 2**31 - 1 (int32 counts), got {self.n_agents}")
        if self.n_commodities < 1:
            fail(f"need at least one commodity, got {self.n_commodities}")
        if self.horizon < 2:
            fail(f"horizon must be at least 2 steps, got {self.horizon}")
        if self.ma_span < 1:
            fail(f"moving-average span must be >= 1, got {self.ma_span}")
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
        if self.warmup < 0:
            fail(f"warm-up must be nonnegative, got {self.warmup}")

    def provenance(self) -> dict[str, str]:
        """Each field as text `load_sim_config` reads back: ranges as `lo,hi`,
        everything else by repr."""
        text = {}
        for f in fields(self):
            value = getattr(self, f.name)
            text[f.name] = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        return text


def init_population(cfg: SimConfig, rng: np.random.Generator | None = None):
    """Sample (theta_buy, theta_sell, sensitivity, attention).

    Thresholds and sensitivities are i.i.d. uniform over the configured
    ranges, drawn as (N, M) in that order, so the same seed gives the same
    bits, and returned as C-order (M, N) copies: one contiguous row per
    commodity.  `attention` is 1/(theta_sell^2 + theta_buy^2), the
    coupling of each agent's perception to each commodity's recent
    returns; it stays (N, M), as a transposed matvec operand would change
    BLAS's summation order and so the panels' last bits.
    """
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    shape = (cfg.n_agents, cfg.n_commodities)
    theta_buy = rng.uniform(*cfg.theta_buy_range, shape)
    theta_sell = rng.uniform(*cfg.theta_sell_range, shape)
    sensitivity = rng.uniform(*cfg.a_range, shape)
    attention = 1.0 / (theta_sell**2 + theta_buy**2)
    return theta_buy.T.copy(), theta_sell.T.copy(), sensitivity.T.copy(), attention


def step_market(params, history: np.ndarray, s: np.ndarray, xi: np.ndarray):
    """One tick on given draws: return the (M,) int32 counts of buyers and of sellers.

    `history` holds the last `ma_span` returns, newest first; `s` and `xi`
    are the (N,) exogenous perception noise and interpretation noise.  Each
    agent perceives its attention-weighted mean recent return plus s, and
    buys where sensitivity * (perception + xi) is at or above theta_buy,
    sells at or below theta_sell, and waits otherwise.  Inputs are not
    mutated.
    """
    theta_buy, theta_sell, sensitivity, attention = params
    perception = attention @ history.mean(axis=0) + s
    signal = sensitivity * (perception + xi)
    # A uint8 view of the bools sums in int32 without a cast pass; integer
    # sums are exact in any order (SimConfig keeps N below 2**31).
    buyers = np.add.reduce((signal >= theta_buy).view(np.uint8), axis=1, dtype=np.int32)
    sellers = np.add.reduce((signal <= theta_sell).view(np.uint8), axis=1, dtype=np.int32)
    return buyers, sellers


def draw_steps(cfg: SimConfig, rng: np.random.Generator, noise: np.ndarray) -> list:
    """Make every random draw of `len(noise)` steps, in the seed's order.

    Per step: fresh parameters when `cfg.resample_params` is set, then the
    N values of s, then the N values of xi.  s and xi fill the (steps, 2, N)
    buffer `noise` in place; the fresh parameters, one tuple per step, are
    returned (an empty list without resampling).  `standard_normal` scaled
    by sigma gives `normal(0, sigma)`'s values up to the sign of a zero,
    which no threshold comparison can tell apart.
    """
    fresh = []
    if cfg.resample_params:
        for one in noise:
            fresh.append(init_population(cfg, rng))
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
    Same seed, same panels, bit for bit.

    The draws do not depend on the market, so a second thread makes them
    (`draw_steps`, which releases the GIL inside numpy) one block of at
    most READ_AHEAD_BYTES, and at least one step, ahead of this thread's
    steps, alternating between two buffers.
    """
    # Imported here, not at the top, so that commands which do not
    # simulate do not pay its import time.
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(cfg.seed)
    params = init_population(cfg, rng)
    n, m = cfg.n_agents, cfg.n_commodities
    steps = cfg.warmup + cfg.horizon
    step_bytes = 8 * (2 * n + (4 * n * m if cfg.resample_params else 0))
    block = min(steps, max(1, READ_AHEAD_BYTES // step_bytes))
    buffers = [np.empty((block, 2, n)) for _ in range(2)]
    rate = np.ones(m)
    history = np.zeros((cfg.ma_span, m))
    rates = np.empty((m, cfg.horizon))
    activity = np.empty((m, cfg.horizon))
    # Leaving the `with` joins the thread, also when a draw raised: a
    # forked sweep worker must not inherit it, nor a caller find it alive.
    with ThreadPoolExecutor(1) as drawer:
        ahead = drawer.submit(draw_steps, cfg, rng, buffers[0])
        for b, start in enumerate(range(0, steps, block)):
            fresh = ahead.result()
            if start + block < steps:
                ahead = drawer.submit(draw_steps, cfg, rng, buffers[(b + 1) % 2][: steps - start - block])
            for j, (s, xi) in enumerate(buffers[b % 2][: steps - start]):
                if fresh:
                    params = fresh[j]
                buyers, sellers = step_market(params, history, s, xi)
                returns = (cfg.gamma / n) * (buyers - sellers)
                rate = rate * np.exp(returns)
                history[1:] = history[:-1]
                history[0] = returns
                i = start + j - cfg.warmup
                if i >= 0:
                    rates[:, i] = rate
                    activity[:, i] = (buyers + sellers) / cfg.dt
    return SignalPanel(rates, cfg.labels, cfg.dt), SignalPanel(activity, cfg.labels, cfg.dt)


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
