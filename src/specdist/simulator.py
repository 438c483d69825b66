"""Threshold agent-based market model generating rate and activity panels.

N agents hold buy/sell thresholds and a sensitivity for each of M
commodities.  Each step an agent forms a scalar perception from
attention-weighted recent returns plus private exogenous noise, scales it
by its sensitivity, and acts on each commodity whose threshold the signal
crosses: buy, sell, or wait.  Buyers minus sellers move log rates, buyers
plus sellers are the quotation activity.  Runs are deterministic given the
seed: parameter draws, then per-step noise draws, always in the same
order.
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


def step_market(params, history: np.ndarray, cfg: SimConfig, rng: np.random.Generator):
    """One tick: return the (M,) int32 counts of buyers and of sellers.

    `history` holds the last `ma_span` returns, newest first.  Draw order:
    fresh parameters when `cfg.resample_params` is set, then exogenous
    perception noise s, then interpretation noise xi.  Each agent perceives
    its attention-weighted mean recent return plus s, and buys where
    sensitivity * (perception + xi) is at or above theta_buy, sells at or
    below theta_sell, and waits otherwise.  Inputs are not mutated.
    """
    if cfg.resample_params:
        params = init_population(cfg, rng)
    theta_buy, theta_sell, sensitivity, attention = params
    s = rng.normal(0.0, cfg.sigma_s, cfg.n_agents)
    xi = rng.normal(0.0, cfg.sigma_xi, cfg.n_agents)
    perception = attention @ history.mean(axis=0) + s
    signal = sensitivity * (perception + xi)
    # A uint8 view of the bools sums in int32 without a cast pass; integer
    # sums are exact in any order (SimConfig keeps N below 2**31).
    buyers = np.add.reduce((signal >= theta_buy).view(np.uint8), axis=1, dtype=np.int32)
    sellers = np.add.reduce((signal <= theta_sell).view(np.uint8), axis=1, dtype=np.int32)
    return buyers, sellers


def run_simulation(cfg: SimConfig) -> tuple[SignalPanel, SignalPanel]:
    """Run warm-up plus horizon steps and return (rates, activity) panels.

    Rates start at 1 and grow each step by exp(gamma/N * (buyers -
    sellers)); activity is buyers plus sellers per unit time.  The warm-up
    is discarded; both panels share labels, dt, and length `cfg.horizon`.
    Same seed, same panels, bit for bit.
    """
    rng = np.random.default_rng(cfg.seed)
    params = init_population(cfg, rng)
    m = cfg.n_commodities
    rate = np.ones(m)
    history = np.zeros((cfg.ma_span, m))
    rates = np.empty((m, cfg.horizon))
    activity = np.empty((m, cfg.horizon))
    for step in range(cfg.warmup + cfg.horizon):
        buyers, sellers = step_market(params, history, cfg, rng)
        returns = (cfg.gamma / cfg.n_agents) * (buyers - sellers)
        rate = rate * np.exp(returns)
        history[1:] = history[:-1]
        history[0] = returns
        i = step - cfg.warmup
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
