"""Independent reference implementations used to cross-check the library.

Everything here is written from the defining formulas, deliberately
avoiding the code paths under test: no FFT, no vectorized KL, no shared
helpers.
"""

import csv
import math
import re
from array import array
from datetime import datetime

import numpy as np

from specdist.errors import FormatError
from specdist.ingest import MALFORMED_ABORT_FRACTION, SIDES, TICK_HEADER, ParsedTicks
from specdist.simulator import break_even_levels, draw_steps, init_population


_RFC3339 = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})[Tt ]([0-9]{2}:[0-9]{2}:[0-9]{2})(?:\.([0-9]{1,6}))?"
    r"([Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])?"
)


def parse_rfc3339(text: str) -> float:
    """Epoch seconds of `YYYY-MM-DD[Tt ]HH:MM:SS[.f{1,6}][Z|z|±HH:MM]` text,
    UTC when it has no zone; any other text is a `ValueError`.  A regex and
    `datetime.fromisoformat`, sharing no code with the library's parser."""
    match = _RFC3339.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"bad RFC-3339 time: {text!r}")
    date, time, fraction, zone = match.groups()
    zone = "+00:00" if zone in (None, "Z", "z") else zone
    # The one shape `fromisoformat` reads on every supported Python; it
    # still checks the ranges (month 13, hour 24, February 30).
    return datetime.fromisoformat(f"{date}T{time}.{fraction or '':0<6}{zone}").timestamp()


def direct_periodogram(segment, dt):
    """O(N^2) direct summation of the tapered DFT power estimate."""
    x = np.asarray(segment, dtype=np.float64)
    n = x.size
    k = np.arange(n)
    taper = np.array([0.5 * (1.0 - math.cos(2.0 * math.pi * kk / (n - 1))) for kk in k])
    tapered = taper * x
    out = np.empty(n)
    for bin_index in range(n):
        kernel = np.exp(-2j * np.pi * k * bin_index / n)
        amplitude = np.dot(tapered, kernel)
        out[bin_index] = abs(amplitude) ** 2 / n**2
    return out


def folded_periodogram(segment, dt):
    """The direct periodogram on the one-sided bins n = 0..N//2: DC, then
    P(n) + P(N-n), with the Nyquist bin n = N/2 of an even N taken once."""
    full = direct_periodogram(segment, dt)
    n = full.size
    return np.array([full[0]] + [full[k] + (full[n - k] if 2 * k != n else 0.0) for k in range(1, n // 2 + 1)])


def scalar_entropy(probs):
    """Plain-Python Shannon entropy in nats with the 0*log(0) = 0 convention."""
    total = 0.0
    for p in probs:
        if p > 0.0:
            total -= p * math.log(p)
    return total


def scalar_floor(p, floor):
    """A distribution clamped below by `floor` and renormalized (unchanged at 0)."""
    if floor == 0.0:
        return list(p)
    clamped = [max(v, floor) for v in p]
    total = sum(clamped)
    return [v / total for v in clamped]


def scalar_kl(p, q, floor):
    """Plain-Python KL distance with the clamp-and-renormalize floor."""
    if floor == 0.0:
        total = 0.0
        for pi, qi in zip(p, q):
            if pi > 0.0:
                if qi == 0.0:
                    return math.inf
                total += pi * math.log(pi / qi)
        return total
    pf, qf = scalar_floor(p, floor), scalar_floor(q, floor)
    return sum(a * math.log(a / b) for a, b in zip(pf, qf))


def folded_mode(p, width, dt):
    """Frequency of the largest of p[n] + p[N-n], n = 1..N/2, with the Nyquist
    bin n = N/2 of an even N counted once; ties to the lowest."""
    folded = [p[i] + (p[width - 2 - i] if 2 * i != width - 2 else 0.0) for i in range(width // 2)]
    return (folded.index(max(folded)) + 1) / (width * dt)


def two_pass_correlation(a, b):
    """Textbook two-pass Pearson coefficient with population variance."""
    n = len(a)
    ma = sum(a) / n
    mb = sum(b) / n
    cov = sum((x - ma) * (y - mb) for x, y in zip(a, b)) / n
    va = sum((x - ma) ** 2 for x in a) / n
    vb = sum((y - mb) ** 2 for y in b) / n
    return cov / math.sqrt(va * vb)


def double_loop_mean(matrix):
    """Naive double-loop mean of all M*M matrix entries."""
    m = len(matrix)
    total = 0.0
    for row in matrix:
        for value in row:
            total += value
    return total / (m * m)


def random_spectrum(rng, bins, sharpness=1.0):
    """A random probability vector; larger sharpness gives spikier shapes."""
    raw = rng.random(bins) ** sharpness
    if raw.sum() == 0:
        raw = np.ones(bins)
    return raw / raw.sum()


def scalar_resample(ticks, dt, side):
    """Plain-Python resample of (timestamp_ms, instrument, side, price) ticks.

    Written from the README's rules with integer bucket arithmetic, so dt
    must be a whole number of milliseconds: half-open buckets
    [k*dt, (k+1)*dt) from the first to the last bucket holding a tick of
    either side; activity is the side's quote count per minute; the best
    rate is the bucket minimum ask (maximum bid), repeated through empty
    buckets, from the first bucket where every instrument has quoted.
    Returns (labels, activity start ms, activity rows, rate start ms, rate
    rows).
    """
    width = round(dt * 60_000)
    assert width == dt * 60_000, "oracle needs a whole-millisecond bucket"
    first_bucket = min(ts // width for ts, _, _, _ in ticks)
    count = max(ts // width for ts, _, _, _ in ticks) - first_bucket + 1
    quotes = {}
    for ts, name, quote_side, price in ticks:
        if quote_side == side:
            quotes.setdefault(name, {}).setdefault(ts // width - first_bucket, []).append(price)
    labels = sorted(quotes)
    activity = [[len(quotes[name].get(k, [])) / dt for k in range(count)] for name in labels]
    pick = min if side == "ask" else max
    rates = []
    for name in labels:
        row, last = [], None
        for k in range(count):
            if k in quotes[name]:
                last = pick(quotes[name][k])
            row.append(last)
        rates.append(row)
    start = max((min(quotes[name]) for name in labels), default=0)
    if count - start < 2:
        start = count
    rates = [row[start:] for row in rates]
    return labels, first_bucket * width, activity, (first_bucket + start) * width, rates


def row_parse_ticks(stream):
    """`ingest.parse_ticks` one `csv.reader` row at a time, as it was before
    it read the file in columnar blocks.

    Each row is stripped and checked in order (field count, side, empty
    instrument, RFC-3339 stamp, price, positive price); the first failing
    check makes it malformed, and the first 20 are reported with the file
    line the record ends on.  More than 1% malformed aborts, as does any
    error of strict `csv`, named by the line its record starts on.
    """
    reader = csv.reader(stream, strict=True)

    def records():
        done = 0  # lines read by the records before the current one
        try:
            for record in reader:
                yield record
                done = reader.line_num
        except csv.Error as exc:
            raise FormatError(f"line {done + 1}: {exc}") from None

    rows = records()
    try:
        header = next(rows)
    except StopIteration:
        raise FormatError("empty tick file: missing header") from None
    if tuple(h.strip().lower() for h in header) != TICK_HEADER:
        raise FormatError(f"bad tick header {header!r}, expected {','.join(TICK_HEADER)}")

    stamps, codes, asks, prices = array("q"), array("q"), array("b"), array("d")
    names = {}
    malformed = 0
    problems = []

    def reject(reason):
        nonlocal malformed
        malformed += 1
        if len(problems) < 20:
            problems.append(f"line {reader.line_num}: {reason}")

    for row in rows:
        if not row:
            continue
        if len(row) != 4:
            reject(f"expected 4 fields, got {len(row)}")
            continue
        raw_ts, instrument, side, raw_price = (c.strip() for c in row)
        side = side.lower()
        if side not in SIDES:
            reject(f"unknown side {side!r}")
            continue
        if not instrument:
            reject("empty instrument")
            continue
        try:
            ts = round(parse_rfc3339(raw_ts) * 1000.0)
        except ValueError:
            reject(f"bad timestamp {raw_ts!r}")
            continue
        try:
            price = float(raw_price)
        except ValueError:
            reject(f"bad price {raw_price!r}")
            continue
        if not (math.isfinite(price) and price > 0):
            reject(f"price must be positive, got {raw_price!r}")
            continue
        stamps.append(ts)
        codes.append(names.setdefault(instrument, len(names)))
        asks.append(side == "ask")
        prices.append(price)

    total = len(stamps) + malformed
    if total and malformed / total > MALFORMED_ABORT_FRACTION:
        summary = "; ".join(problems[:5])
        raise FormatError(
            f"{malformed} of {total} rows malformed (>{MALFORMED_ABORT_FRACTION:.0%}): {summary}"
        )
    instruments = tuple(sorted(names))
    rank = {name: r for r, name in enumerate(instruments)}
    renumber = np.array([rank[name] for name in names], dtype=np.intp)
    return ParsedTicks(
        timestamp_ms=np.array(stamps, dtype=np.int64),
        instrument=renumber[np.array(codes, dtype=np.intp)],
        instruments=instruments,
        is_ask=np.array(asks, dtype=bool),
        price=np.array(prices, dtype=np.float64),
        malformed=malformed,
        problems=problems,
    )


def scalar_simulation(cfg):
    """Plain-Python rebuild of the threshold market from the README's rules.

    Consumes the same numpy random stream as the library, in the same
    order: (N, M) uniform buy thresholds, sell thresholds and
    sensitivities (redrawn at the start of every step when
    `cfg.resample_params` is set), then N exogenous noises s and N
    interpretation noises xi per step.  Returns (rates, activity) as M
    lists of `cfg.horizon` values each, the warm-up dropped.
    """
    n, m = cfg.n_agents, cfg.n_commodities
    rng = np.random.default_rng(cfg.seed)

    def draw():
        ranges = (cfg.theta_buy_range, cfg.theta_sell_range, cfg.a_range)
        return [rng.uniform(lo, hi, (n, m)).tolist() for lo, hi in ranges]

    theta_buy, theta_sell, sensitivity = draw()
    rate = [1.0] * m
    recent = [[0.0] * m for _ in range(cfg.ma_span)]  # newest first
    rates = [[] for _ in range(m)]
    activity = [[] for _ in range(m)]
    for step in range(cfg.warmup + cfg.horizon):
        if cfg.resample_params:
            theta_buy, theta_sell, sensitivity = draw()
        s = rng.normal(0.0, cfg.sigma_s, n).tolist()
        xi = rng.normal(0.0, cfg.sigma_xi, n).tolist()
        mean_return = [sum(row[k] for row in recent) / cfg.ma_span for k in range(m)]
        net = [0] * m
        gross = [0] * m
        for i in range(n):
            perception = s[i]
            for k in range(m):
                tb, ts = theta_buy[i][k], theta_sell[i][k]
                perception += mean_return[k] / (ts * ts + tb * tb)
            for j in range(m):
                signal = sensitivity[i][j] * (perception + xi[i])
                if signal >= theta_buy[i][j]:
                    net[j] += 1
                    gross[j] += 1
                elif signal <= theta_sell[i][j]:
                    net[j] -= 1
                    gross[j] += 1
        returns = [cfg.gamma / n * v for v in net]
        rate = [r * math.exp(d) for r, d in zip(rate, returns)]
        recent = [returns] + recent[:-1]
        if step >= cfg.warmup:
            for j in range(m):
                rates[j].append(rate[j])
                activity[j].append(gross[j] / cfg.dt)
    return rates, activity


def attitude_simulation(cfg):
    """The simulator as an (N, M) array loop over int8 attitudes.

    The same random stream as the library: (N, M) uniform buy thresholds,
    sell thresholds and sensitivities (redrawn at the start of every step
    when `cfg.resample_params` is set), then N noises s and N noises xi
    per step.  Each agent's attitude per commodity is +1 buy, -1 sell or
    0 wait; returns are gamma/N times the attitudes' column sums, activity
    their absolute column sums over dt.  The perception is the same
    (N, M) matvec as the library's, so the two agree bit for bit on any
    machine.  Returns (rates, activity) as (M, horizon) float64 arrays.
    """
    rng = np.random.default_rng(cfg.seed)
    shape = (cfg.n_agents, cfg.n_commodities)

    def draw():
        theta_buy = rng.uniform(*cfg.theta_buy_range, shape)
        theta_sell = rng.uniform(*cfg.theta_sell_range, shape)
        sensitivity = rng.uniform(*cfg.a_range, shape)
        return theta_buy, theta_sell, sensitivity, 1.0 / (theta_sell**2 + theta_buy**2)

    params = draw()
    rate = np.ones(cfg.n_commodities)
    history = np.zeros((cfg.ma_span, cfg.n_commodities))
    rates = np.empty((cfg.n_commodities, cfg.horizon))
    activity = np.empty((cfg.n_commodities, cfg.horizon))
    for step in range(cfg.warmup + cfg.horizon):
        if cfg.resample_params:
            params = draw()
        theta_buy, theta_sell, sensitivity, attention = params
        s = rng.normal(0.0, cfg.sigma_s, cfg.n_agents)
        xi = rng.normal(0.0, cfg.sigma_xi, cfg.n_agents)
        perception = attention @ history.mean(axis=0) + s
        signal = sensitivity * (perception + xi)[:, None]
        attitudes = (signal >= theta_buy).astype(np.int8) - (signal <= theta_sell).astype(np.int8)
        returns = (cfg.gamma / cfg.n_agents) * attitudes.sum(axis=0, dtype=np.float64)
        rate = rate * np.exp(returns)
        history[1:] = history[:-1]
        history[0] = returns
        if step >= cfg.warmup:
            rates[:, step - cfg.warmup] = rate
            activity[:, step - cfg.warmup] = np.abs(attitudes).sum(axis=0, dtype=np.float64) / cfg.dt
    return rates, activity


def loop_lockstep(cfg, a_ranges):
    """`simulator._lockstep` as one step at a time: each step's draws, then
    its counts, then its rate and activity, on one thread.

    It checks the stepping and the settling, not the draws: the draws and
    the break-even levels are the library's (`draw_steps` of one step
    consumes the stream as a block of steps does), and the perception is
    the same member-by-member matvec, so the two agree bit for bit.  The
    counts are one sum of the bool flags read as uint8, each rate is the
    last one times the step's `exp` of its returns, and the moving average
    is `np.mean`.  Returns the (R, M, horizon) rates and activity.
    """
    rng = np.random.default_rng(cfg.seed)
    n, m, members = cfg.n_agents, cfg.n_commodities, len(a_ranges)
    levels = np.empty((2, members, m, n))
    params = break_even_levels(init_population(cfg, a_ranges, rng), levels)
    u, flags = np.empty((m, n)), np.empty((2, members, m, n), dtype=bool)
    noise = np.empty((1, 2, n))
    rate = np.ones((members, m))
    history = np.zeros((members, cfg.ma_span, m))
    rates = np.empty((members, m, cfg.horizon))
    activity = np.empty((members, m, cfg.horizon))
    for step in range(cfg.warmup + cfg.horizon):
        fresh = draw_steps(cfg, a_ranges, rng, noise)
        if fresh:
            params = break_even_levels(fresh[0], levels)
        buy_at, sell_at, attention = params
        s, xi = noise[0]
        for mean, buy, sell, buys, sells in zip(history.mean(axis=1), buy_at, sell_at, *flags):
            u[:] = attention @ mean + s + xi
            np.greater_equal(u, buy, out=buys)
            np.less_equal(u, sell, out=sells)
        buyers, sellers = np.add.reduce(flags.view(np.uint8), axis=-1, dtype=np.int32)
        returns = (cfg.gamma / n) * (buyers - sellers)
        rate *= np.exp(returns)
        history[:, 1:] = history[:, :-1]
        history[:, 0] = returns
        if step >= cfg.warmup:
            rates[..., step - cfg.warmup] = rate
            activity[..., step - cfg.warmup] = (buyers + sellers) / cfg.dt
    return rates, activity
