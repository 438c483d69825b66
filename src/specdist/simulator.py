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
one block ahead of the steps.  The runs of one config at several
sensitivity ranges consume the same stream, so `run_simulations` steps them
as one group, a member at a time; `run_simulation` is a group of one.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields, replace
from numbers import Integral, Real
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .ingest import _read_ahead
from .spectra import SignalPanel, check_grid

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


def check_counts(cfg, least, error) -> None:
    """Store each `(name, least value)` field of the frozen `cfg` as an int; `error` naming
    it unless it is an integer (an `Integral`, numpy's too, not a bool) of at least that value."""
    for name, low in least:
        value = getattr(cfg, name)
        if not isinstance(value, Integral) or isinstance(value, bool):
            raise error(f"{name} must be an integer, got {value!r}")
        if value < low:
            raise error(f"{name} must be at least {low}, got {value}")
        object.__setattr__(cfg, name, int(value))


def finite_real(value) -> bool:
    """Whether `value` is a finite real number (a `Real`, numpy's too), not a bool."""
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


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

        # Numbers and ranges are stored as plain floats, so `provenance` writes
        # what `load_sim_config` reads back, whatever number type they came as.
        for f in fields(self):
            value, kind = getattr(self, f.name), type(f.default)
            if kind in (float, tuple):
                numbers = tuple(value) if kind is tuple else (value,)
                if kind is tuple and len(numbers) != 2:
                    fail(f"{f.name} must be two numbers, lo and hi, got {value!r}")
                if not all(map(finite_real, numbers)):
                    fail(f"{f.name} must be {'finite numbers' if kind is tuple else 'a finite number'}, got {value!r}")
                object.__setattr__(self, f.name, tuple(map(float, numbers)) if kind is tuple else float(value))
        if not isinstance(self.resample_params, (bool, np.bool_)):
            fail(f"resample_params must be true or false, got {self.resample_params!r}")
        object.__setattr__(self, "resample_params", bool(self.resample_params))
        # numpy refuses a float or bool count, and a negative seed, only mid-run.
        check_counts(self, (("n_agents", 1), ("n_commodities", 1), ("horizon", 2), ("ma_span", 1),
                            ("warmup", 0), ("seed", 0)), ConfigurationError)
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
        # Every draw lies within its range and rounding is monotone, so each
        # agent's attention lies between that of (theta_buy lo, theta_sell hi),
        # the most, and that of (theta_buy hi, theta_sell lo), the least.
        with np.errstate(over="ignore", divide="ignore"):
            most, least = 1.0 / (np.array(self.theta_sell_range[::-1]) ** 2 + np.array(self.theta_buy_range) ** 2)
        if not (np.isfinite(most) and least > 0):
            fail(f"theta_buy_range {self.theta_buy_range} and theta_sell_range {self.theta_sell_range} give "
                 f"attentions 1/(theta_sell^2 + theta_buy^2) from {float(least)!r} to {float(most)!r}; "
                 "they must be finite and positive")
        a1, a2 = self.a_range
        if not (0 < a1 < a2):
            fail(f"sensitivity range needs 0 < a1 < a2, got {self.a_range}")
        check_grid(self.dt, self.n_commodities, self.horizon)

    def provenance(self) -> dict[str, str]:
        """Each field as text `load_sim_config` reads back: ranges as `lo,hi`,
        everything else by repr."""
        text = {}
        for f in fields(self):
            value = getattr(self, f.name)
            text[f.name] = ",".join(map(repr, value)) if isinstance(value, tuple) else repr(value)
        return text


def init_population(cfg: SimConfig, a_ranges, rng: np.random.Generator):
    """Sample (theta_buy, theta_sell, sensitivity, attention) for `cfg` at each of R sensitivity ranges.

    One (3, N, M) draw of unit uniforms u gives the buy thresholds, the sell
    thresholds and the sensitivities, each `lo + (hi - lo) * u` over its
    range: the bits, and the stream position after, of three (N, M)
    `rng.uniform` draws in that order.  The thresholds are kept as C-order
    (M, N) rows and the sensitivities as one (R, M, N) array, every range
    mapping the same u.  `attention` is 1/(theta_sell^2 + theta_buy^2); it
    stays (N, M), as a transposed matvec operand would change BLAS's
    summation order and so the panels' last bits.
    """
    u = rng.random((3, cfg.n_agents, cfg.n_commodities))
    (buy_lo, buy_hi), (sell_lo, sell_hi) = cfg.theta_buy_range, cfg.theta_sell_range
    theta_buy = buy_lo + (buy_hi - buy_lo) * u[0]
    theta_sell = sell_lo + (sell_hi - sell_lo) * u[1]
    lo, hi = np.array(a_ranges).T[..., None, None]
    sensitivity = lo + (hi - lo) * np.ascontiguousarray(u[2].T)
    attention = 1.0 / (theta_sell**2 + theta_buy**2)
    return theta_buy.T.copy(), theta_sell.T.copy(), sensitivity, attention


def break_even(sensitivity: np.ndarray, threshold: np.ndarray, out: np.ndarray, scratch: np.ndarray):
    """Write into `out` the least float64 u with `sensitivity * u >= threshold`.

    Elementwise, for positive float64 arrays of one shape, subnormals
    included; `out` and `scratch` are C-order float64 arrays of that shape
    that share no memory with the inputs or each other, and `scratch` is
    overwritten.  The rounded product a * u never falls as u rises (a > 0),
    so it reaches the threshold exactly when u reaches this level, bit for
    bit; +inf means only u = +inf does.

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
        a, theta = sensitivity.take(lower), threshold.take(lower)
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
    """Fill `out`, an (M, N) buy and an (M, N) sell array, with the levels each agent of one member acts at.

    An agent buys a commodity when its noisy perception u reaches the least
    value whose product with its sensitivity reaches theta_buy, and sells
    when u is at or below the greatest value whose product stays at or
    below theta_sell.  Rounding to nearest is symmetric in sign, so that
    greatest value is -break_even(a, -theta_sell).  `population` is
    `init_population`'s with one member's (M, N) sensitivities.  Returns
    the member's step parameters (buy_at, sell_at, attention).
    """
    theta_buy, theta_sell, sensitivity, attention = population
    buy_at, sell_at = out
    scratch = np.empty_like(buy_at)
    np.negative(theta_sell, out=buy_at)
    break_even(sensitivity, buy_at, sell_at, scratch)
    np.negative(sell_at, out=sell_at)
    break_even(sensitivity, theta_buy, buy_at, scratch)
    return buy_at, sell_at, attention


def step_buffers(m: int, n: int) -> tuple:
    """`step_market`'s `work` for M commodities and N agents.

    An (M, N) float64 buffer for the perception, and a zeroed (2, M, N8)
    bool buffer for the buy and sell flags, N8 being N rounded up to a
    multiple of 8: each of its rows is then whole uint64 words, and as the
    steps write only the first N flags of a row, its padding stays zero.
    """
    return np.empty((m, n)), np.zeros((2, m, -(-n // 8) * 8), dtype=bool)


def step_market(params, history: np.ndarray, s: np.ndarray, xi: np.ndarray, work, out: np.ndarray):
    """One member's tick: write the (2, M) int32 counts of buyers and of sellers into `out`.

    `params` is its `break_even_levels` (buy_at, sell_at, attention);
    `history` its last `ma_span` returns, (ma_span, M), newest first; `s`
    and `xi` the (N,) exogenous perception noise and interpretation noise.
    Each agent perceives its attention-weighted mean recent return plus s,
    and buys where perception + xi is at or above buy_at, sells at or below
    sell_at, and waits otherwise.  The step overwrites the perception buffer
    of `work` (`step_buffers`) and the first N flags of each row, and counts
    a row's flags by the popcounts of its words, so the padding after them
    must stay zero; no other input is mutated.  Returns `out`.
    """
    buy_at, sell_at, attention = params
    u, flags = work
    perception = u[0]
    # np.mean's own arithmetic, without its Python wrapper.
    np.matmul(attention, np.add.reduce(history, axis=0) / history.shape[0], out=perception)
    np.add(perception, s, out=perception)
    np.add(perception, xi, out=perception)
    # Copied to every commodity's row, as numpy compares two (M, N) arrays
    # about twice as fast as an (N,) row broadcast against one.
    u[1:] = perception
    np.greater_equal(u, buy_at, out=flags[0, :, : perception.size])
    np.less_equal(u, sell_at, out=flags[1, :, : perception.size])
    # Integer sums are exact in any order (SimConfig keeps N below 2**31).
    return np.add.reduce(np.bitwise_count(flags.view(np.uint64)), axis=-1, dtype=np.int32, out=out)


def draw_steps(cfg: SimConfig, a_ranges, rng: np.random.Generator, noise: np.ndarray) -> list:
    """Make every random draw of `len(noise)` steps of a lockstep group, in the seed's order.

    Per step: the group's fresh parameters (`init_population`) when
    `resample_params` is set, then the N values of s, then the N values of
    xi.  s and xi fill the (steps, 2, N) buffer `noise` in place; the fresh
    parameters, one population per step, are returned (an empty list
    without resampling).  `standard_normal` scaled by sigma gives
    `normal(0, sigma)`'s values up to the sign of a zero, which no
    threshold comparison can tell apart.
    """
    fresh = []
    if cfg.resample_params:
        for one in noise:
            fresh.append(init_population(cfg, a_ranges, rng))
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
    Same seed, same panels, bit for bit: `run_simulations(cfg, [cfg.a_range])[0]`.
    """
    return run_simulations(cfg, [cfg.a_range])[0]


def run_simulations(cfg: SimConfig, a_ranges) -> list[tuple[SignalPanel, SignalPanel]]:
    """Run `cfg` at each sensitivity range in lockstep; return each range's panels.

    Each range is checked as `cfg.a_range` is, and its (rates, activity)
    are bit for bit `run_simulation`'s of `cfg` at that range alone: the
    members share the draws (`init_population`) and nothing else.  No range
    is no run: `[]`, with no draw and no thread.
    """
    a_ranges = [replace(cfg, a_range=a_range).a_range for a_range in a_ranges]
    if not a_ranges:
        return []
    # The step's buffers are freed on return, before the panels copy the values.
    rates, activity = _lockstep(cfg, a_ranges)
    return [(SignalPanel(member_rates, cfg.labels, cfg.dt), SignalPanel(member_activity, cfg.labels, cfg.dt))
            for member_rates, member_activity in zip(rates, activity)]


def _lockstep(cfg: SimConfig, a_ranges) -> tuple[np.ndarray, np.ndarray]:
    """The (R, M, horizon) rates and activity of `run_simulations`.

    The draws do not depend on the market, so a second thread makes them
    (`draw_steps`, which releases the GIL inside numpy) one block of at
    most READ_AHEAD_BYTES, and at least one step, ahead of this thread's
    steps, alternating between two buffers.  This thread steps one member
    through the block on its own break-even levels and `history`, as in its
    run alone, then the next; a step keeps only its counts, in a buffer of
    the block's, settled into rates and activity once all members are done.
    """
    # Imported here, not at the top, so that commands which do not
    # simulate do not pay its import time.
    from concurrent.futures import ThreadPoolExecutor

    rng = np.random.default_rng(cfg.seed)
    n, m, members = cfg.n_agents, cfg.n_commodities, len(a_ranges)
    theta_buy, theta_sell, sensitivity, attention = init_population(cfg, a_ranges, rng)
    params = [break_even_levels((theta_buy, theta_sell, a, attention), np.empty((2, m, n))) for a in sensitivity]
    del theta_buy, theta_sell, sensitivity  # not needed past the levels: 1.6 MB for three members at 2000 x 20
    work = step_buffers(m, n)
    steps = cfg.warmup + cfg.horizon
    # A resampled step draws two thresholds, their attention and R sensitivities, each (N, M).
    step_bytes = 8 * (2 * n + ((3 + members) * n * m if cfg.resample_params else 0))
    block = min(steps, max(1, READ_AHEAD_BYTES // step_bytes))
    buffers = [np.empty((block, 2, n)) for _ in range(2)]
    counts = np.empty((block, 2, members, m), dtype=np.int32)
    scale = cfg.gamma / n
    rate = np.ones((members, m))
    history = np.zeros((members, cfg.ma_span, m))
    rates, activity = np.empty((2, members, m, cfg.horizon))

    def draw(start):  # the steps from `start`, drawn into the buffer the block before did not fill
        noise = buffers[start // block % 2][: steps - start]
        return start, noise, draw_steps(cfg, a_ranges, rng, noise)

    # Closing the draws joins the thread, also when a draw or a step raised:
    # a forked sweep worker must not inherit it, nor a caller find it alive.
    with contextlib.closing(_read_ahead(ThreadPoolExecutor(1), draw, zip(range(0, steps, block)), 1)) as draws:
        for start, noise, fresh in draws:
            for r, (member, past) in enumerate(zip(params, history)):
                for j, (s, xi) in enumerate(noise):
                    if fresh:
                        theta_buy, theta_sell, sensitivity, attention = fresh[j]
                        member = break_even_levels((theta_buy, theta_sell, sensitivity[r], attention), member[:2])
                    buyers, sellers = step_market(member, past, s, xi, work, counts[j, :, r])
                    if cfg.ma_span > 1:  # an empty shift costs some 8% of a step at 2000 x 20
                        past[1:] = past[:-1]
                    np.multiply(np.subtract(buyers, sellers), scale, out=past[0])
            # The same returns again, and each rate the one before times its
            # step's growth, rounded in turn from the rate carried in.  exp
            # gets a contiguous array: on a strided view numpy may take its
            # scalar loop, not its SIMD one.
            done = counts[: len(noise)]
            growth = np.exp(scale * np.subtract(done[:, 0], done[:, 1]))
            growth[0] *= rate
            rate = np.multiply.accumulate(growth, axis=0, out=growth)[-1]
            first = max(cfg.warmup - start, 0)
            if first < len(noise):
                record = slice(start + first - cfg.warmup, start + len(noise) - cfg.warmup)
                rates[..., record] = growth[first:].transpose(1, 2, 0)
                activity[..., record] = (np.add(done[first:, 0], done[first:, 1]) / cfg.dt).transpose(1, 2, 0)
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
