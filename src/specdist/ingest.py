"""Tick-stream parsing and resampling into activity and best-rate panels.

Input is a quote-event CSV (`timestamp,instrument,side,price`), parsed row
by row into columns.  `resample` buckets the events on a uniform grid with
half-open buckets [k*dt, (k+1)*dt): the activity series counts
side-matching quotes per unit time, the best-rate series takes the bucket
minimum for asks (maximum for bids) and carries the previous value through
empty buckets.  Buckets before an instrument's first quote have no
defensible value and stay missing; rate panels are trimmed to the first
bucket where every instrument has one.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import heapq
import math
import os
import re
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import Mapping, TextIO

import numpy as np

from .errors import AnalysisError, ConfigurationError, FormatError, TransformError
from .spectra import SignalPanel

TICK_HEADER = ("timestamp", "instrument", "side", "price")
SIDES = ("ask", "bid")

# Abort parsing when more than this fraction of data rows is malformed.
MALFORMED_ABORT_FRACTION = 0.01
_MAX_REPORTED_PROBLEMS = 20


_RFC3339 = re.compile(
    r"([0-9]{4}-[0-9]{2}-[0-9]{2})[Tt ]([0-9]{2}:[0-9]{2}:[0-9]{2})(?:\.([0-9]{1,6}))?"
    r"([Zz]|[+-](?:[01][0-9]|2[0-3]):[0-5][0-9])?"
)


def parse_rfc3339(text: str) -> float:
    """Epoch seconds of `YYYY-MM-DD[Tt ]HH:MM:SS[.f{1,6}][Z|z|±HH:MM]` text,
    UTC when it has no zone; any other text is a `ValueError`."""
    match = _RFC3339.fullmatch(text.strip())
    if match is None:
        raise ValueError(f"bad RFC-3339 time: {text!r}")
    date, time, fraction, zone = match.groups()
    zone = "+00:00" if zone in (None, "Z", "z") else zone
    # The one shape `fromisoformat` reads on every supported Python; it
    # still checks the ranges (month 13, hour 24, February 30).
    return datetime.fromisoformat(f"{date}T{time}.{fraction or '':0<6}{zone}").timestamp()


def format_rfc3339(seconds: float) -> str:
    """RFC-3339 text with a Z suffix of epoch seconds, to the microsecond."""
    return datetime.fromtimestamp(seconds, tz=timezone.utc).isoformat().replace("+00:00", "Z")


@dataclass
class ParsedTicks:
    """Parse outcome: one array per column, in file order, plus a malformed-row tally.

    `timestamp_ms` is int64 epoch milliseconds, `instrument` holds codes
    into `instruments` (the distinct names, sorted), `is_ask` is the side
    and `price` the quoted rate.
    """

    timestamp_ms: np.ndarray
    instrument: np.ndarray
    instruments: tuple[str, ...]
    is_ask: np.ndarray
    price: np.ndarray
    malformed: int = 0
    problems: list[str] = field(default_factory=list)


def parse_ticks(stream: TextIO) -> ParsedTicks:
    """Read quote events from a tick CSV stream.

    Malformed rows are counted and reported, never silently dropped; when
    more than 1% of the data rows are bad the whole parse aborts with a
    summary.  An unrecognizable header aborts immediately.
    """
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty tick file: missing header") from None
    if tuple(h.strip().lower() for h in header) != TICK_HEADER:
        raise FormatError(
            f"bad tick header {header!r}, expected {','.join(TICK_HEADER)}"
        )

    # Columns are appended row by row; instruments get codes in order of
    # first appearance, renumbered to sorted order at the end.
    stamps, codes, asks, prices = array("q"), array("q"), array("b"), array("d")
    names: dict[str, int] = {}
    malformed = 0
    problems: list[str] = []

    def reject(reason: str) -> None:
        nonlocal malformed
        malformed += 1
        if len(problems) < _MAX_REPORTED_PROBLEMS:
            # The file line the record ends on: a quoted field may span lines.
            problems.append(f"line {reader.line_num}: {reason}")

    for row in reader:
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


def read_ticks(path: str | Path) -> ParsedTicks:
    """Parse a tick CSV file; gzip-compressed input is accepted by extension."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    with opener(path, "rt", encoding="utf-8", newline="") as fh:
        return parse_ticks(fh)


def resample(ticks: ParsedTicks, dt: float, side: str) -> tuple[SignalPanel, SignalPanel]:
    """Activity and best-rate panels of one side, on one grid of dt-minute buckets.

    The grid is the smallest dt-aligned one holding every tick of either
    side.  Channels are the instruments quoted on `side`, sorted.  Activity
    is the bucket's quote count divided by dt.  The best rate is the bucket
    minimum for asks (maximum for bids), carried forward through empty
    buckets; the rate panel starts at the first bucket where every channel
    has quoted, and is empty when fewer than two buckets remain.  Bucket
    assignment depends only on timestamps, so the input order is irrelevant.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"bucket width dt must be a positive number of minutes, got {dt!r}")
    if side not in SIDES:
        raise ConfigurationError(f"side must be one of {SIDES}, got {side!r}")
    t = ticks.timestamp_ms
    if t.size == 0:
        raise AnalysisError("no valid ticks to resample")
    dt_ms = dt * 60_000.0
    origin = round(math.floor(int(t.min()) / dt_ms) * dt_ms)
    # Counted from the same rounded origin as the buckets below, so the
    # last tick always falls inside the grid.
    count = math.floor((int(t.max()) - origin) / dt_ms) + 1
    on_side = ticks.is_ask == (side == "ask")
    if not on_side.any():
        raise AnalysisError(f"no {side} quotes to resample")
    bucket = np.floor((t[on_side] - origin) / dt_ms).astype(np.intp)
    present, channel = np.unique(ticks.instrument[on_side], return_inverse=True)
    m = present.size
    cell = channel * count + bucket
    activity = np.bincount(cell, minlength=m * count).reshape(m, count) / dt

    best = np.full(m * count, np.inf if side == "ask" else -np.inf)
    (np.minimum if side == "ask" else np.maximum).at(best, cell, ticks.price[on_side])
    best = best.reshape(m, count)
    quoted = np.isfinite(best)
    last = np.maximum.accumulate(np.where(quoted, np.arange(count), -1), axis=1)
    first = int(np.argmax(quoted, axis=1).max())
    if count - first < 2:
        first = count
    rates = np.take_along_axis(best, last[:, first:], axis=1)

    labels = tuple(ticks.instruments[i] for i in present.tolist())
    return (
        SignalPanel(activity, labels, dt, origin / 1000.0),
        SignalPanel(rates, labels, dt, (origin + first * dt_ms) / 1000.0),
    )


TRANSFORMS = ("raw", "log-return")


def transform_panel(panel: SignalPanel, transform: str) -> SignalPanel:
    """The panel itself ("raw") or its log-returns ("log-return")."""
    if transform not in TRANSFORMS:
        raise ConfigurationError(f"transform must be one of {TRANSFORMS}, got {transform!r}")
    # Log-returns are stamped at the start of the interval they span, so a
    # transformed panel stays on the raw panel's window grid.
    if transform == "raw":
        return panel
    if np.any(panel.values <= 0):
        raise TransformError("log-return requires strictly positive values")
    logs = np.log(panel.values)
    return SignalPanel(logs[:, 1:] - logs[:, :-1], panel.labels, panel.dt, panel.t0)


def _check_names(path, names, also: str = "") -> None:
    """`FormatError` for a name a reader could not split back out of a line: one
    with a comma, double quote, line break or character of `also` in it, or
    whitespace at either end."""
    for name in names:
        if name != name.strip() or any(c in name for c in ',"\r\n' + also):
            raise FormatError(f"{path}: column name {name!r} cannot be written to a table")


@contextlib.contextmanager
def _removed_on_failure():
    """Yield a list for the paths of the files the block has opened for
    writing; if the block raises, remove each of them and re-raise.  A file
    the block never opened is not in the list, so it stays untouched."""
    written: list = []
    try:
        yield written
    except BaseException:
        for path in written:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _write_table(path, header, times, rows, meta: Mapping[str, str], marks=()) -> None:
    """Write a stamped table: a `# key=value ...` line of `meta`, the header,
    and one `<time>,<repr of each float>` row per increasing epoch time in
    seconds.  Each `(key, seconds)` of `marks` becomes a `# key=<time>` line
    among the rows, in time order.  A header name `_check_names` refuses is
    a `FormatError`, raised before the file is opened; a failed write
    removes the file."""
    _check_names(path, header)
    body = ((t, f"{format_rfc3339(t)},{','.join(map(repr, row))}\n") for t, row in zip(times, rows))
    notes = ((t, f"# {key}={format_rfc3339(t)}\n") for key, t in marks)
    with _removed_on_failure() as written, open(path, "w", encoding="utf-8", newline="") as fh:
        written.append(path)
        fh.write("# " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(line for _, line in heapq.merge(body, notes, key=itemgetter(0)))


def _read_table(path, time_column: str):
    """Read a stamped table as (column names after the time column, epoch
    times in seconds, (rows, columns) values, the line of the header and of
    each row, (key, value, line) of each `key=value` token of the `#` lines).
    Blank lines are skipped and `#` lines may appear anywhere.  Any
    unreadable line is a `FormatError` naming the file and the line."""
    comments: list[tuple[str, str, int]] = []
    lineno = 0

    def data_lines(fh):
        nonlocal lineno
        for lineno, line in enumerate(fh, start=1):
            if line.startswith("#"):
                tokens = (token.partition("=") for token in line[1:].split())
                comments.extend((key, value, lineno) for key, eq, value in tokens if eq)
            elif line.strip():
                yield line

    times, rows = [], []
    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(data_lines(fh))
        # Any ValueError below, raised here or by a parser, is an unreadable line.
        try:
            header = [name.strip() for name in next(reader, [])]
            lines = [lineno]
            if len(header) < 2 or header[0].lower() != time_column:
                raise ValueError(f"expected header `{time_column},...`, got {header!r}")
            if len(set(header)) < len(header):
                raise ValueError(f"a column name repeats in {header!r}")
            for cells in reader:
                if len(cells) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(cells)}")
                t = parse_rfc3339(cells[0])
                rows.append([float(c) for c in cells[1:]])
                if times and t <= times[-1]:
                    raise ValueError(f"time {cells[0].strip()} does not strictly increase")
                times.append(t)
                lines.append(lineno)
        except UnicodeDecodeError as exc:  # decoded by the block, not by the line
            raise FormatError(f"{path}: not UTF-8 text: {exc}") from None
        except ValueError as exc:
            raise FormatError(f"{path}: line {lineno}: {exc}") from None
    values = np.array(rows, dtype=np.float64).reshape(len(rows), len(header) - 1)
    return header[1:], np.array(times), values, lines, comments


def write_panel_csv(
    panel: SignalPanel, path: str | Path, meta: Mapping[str, str] | None = None
) -> None:
    """Write a panel as `time,<channel>,...` rows with RFC-3339 timestamps.

    The `# key=value ...` line records `meta` and the sampling period `dt`.
    Panels shorter than two rows are refused: they could not be read back.
    """
    if panel.length < 2:
        raise AnalysisError(f"{path}: a panel needs at least two rows, got {panel.length}")
    ms = round(panel.t0 * 1000.0) + np.arange(panel.length) * (panel.dt * 60_000.0)
    rows = (column.tolist() for column in panel.values.T)
    meta = {**(meta or {}), "dt": repr(panel.dt)}
    _write_table(path, ("time", *panel.labels), (ms / 1000.0).tolist(), rows, meta)


def read_panel_csv(path: str | Path) -> SignalPanel:
    """Read a panel CSV; a `dt=` comment token agreeing with the spacing is the period."""
    labels, times, values, lines, comments = _read_table(path, "time")
    if len(times) < 2:
        raise FormatError(f"{path}: a panel needs at least two rows")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise FormatError(f"{path}: line {lines[bad[0] + 1]}: panel values must be finite")
    stamps = np.rint(times * 1000.0).astype(np.int64)
    deltas = np.diff(stamps)
    uneven = np.flatnonzero((deltas < 1) | (np.abs(deltas - deltas[0]) > 1))
    if uneven.size:
        raise FormatError(f"{path}: line {lines[uneven[0] + 2]}: rows are not uniformly spaced")
    dt = deltas[0] / 60_000.0
    for key, text, line in comments:
        if key == "dt":
            try:
                dt = float(text)
            except ValueError:
                dt = math.nan
            # Each stamp is off by at most half a millisecond.
            if not abs(dt * 60_000.0 - deltas[0]) < 2:
                raise FormatError(f"{path}: line {line}: dt={text} disagrees with the rows' spacing")
    return SignalPanel(values.T, tuple(labels), dt, stamps[0] / 1000.0)
