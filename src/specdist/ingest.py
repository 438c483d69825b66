"""Tick-stream parsing and resampling into activity and best-rate panels.

Input is a quote-event CSV (`timestamp,instrument,side,price`), parsed a
block of lines at a time into columns.  `resample` buckets the events on
a uniform grid with half-open buckets [k*dt, (k+1)*dt): the activity
series counts side-matching quotes per unit time, the best-rate series
takes the bucket minimum for asks (maximum for bids) and carries the
previous value through empty buckets.  Buckets before an instrument's
first quote have no defensible value and stay missing; rate panels are
trimmed to the first bucket where every instrument has one.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import heapq
import io
import itertools
import math
import os
import re
import zlib
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

    Lines end at `\r\n`, `\r` or `\n`, as in a file opened with
    `newline=""`.  Malformed rows are counted and reported, never silently
    dropped; when more than 1% of the data rows are bad the whole parse
    aborts with a summary.  A bad header, a field over csv's limit or a
    quote that does not open and close a whole field aborts.
    """
    reader = csv.reader(stream, strict=True)
    try:
        header = next(reader)
    except StopIteration:
        raise FormatError("empty tick file: missing header") from None
    except csv.Error as exc:
        raise FormatError(f"line 1: {exc}") from None
    if tuple(h.strip().lower() for h in header) != TICK_HEADER:
        raise FormatError(
            f"bad tick header {header!r}, expected {','.join(TICK_HEADER)}"
        )

    # The body is read a block of whole lines at a time and each block is
    # checked column by column.  Instruments get codes in order of first
    # appearance, renumbered to sorted order at the end.
    parts = [(np.zeros(0, np.int64), np.zeros(0, np.intp), np.zeros(0, bool), np.zeros(0))]
    names: dict[str, int] = {}
    malformed = 0
    problems: list[str] = []
    line = reader.line_num
    while chunk := stream.read(_BLOCK_CHARS):
        block = _nul_free(chunk + stream.readline())
        # Only `csv` knows where a quoted field ends.
        records = None if '"' in block else _split_records(block, line)
        line, records = records or _csv_records(block, stream, line)
        for lines, counts, fields in _runs(*records):
            room = _MAX_REPORTED_PROBLEMS - len(problems)
            bad, reasons, (stamps, instruments, asks, prices) = _check_records(lines, counts, fields, room)
            malformed += bad
            problems += reasons
            present, codes = np.unique(instruments, return_inverse=True)
            recode = [names.setdefault(name.replace(_NUL, "\0"), len(names)) for name in present.tolist()]
            parts.append((stamps, np.array(recode, np.intp)[codes], asks, prices))

    stamps, codes, asks, prices = (np.concatenate(column) for column in zip(*parts))
    total = stamps.size + malformed
    if total and malformed / total > MALFORMED_ABORT_FRACTION:
        summary = "; ".join(problems[:5])
        raise FormatError(
            f"{malformed} of {total} rows malformed (>{MALFORMED_ABORT_FRACTION:.0%}): {summary}"
        )
    instruments = tuple(sorted(names))
    rank = {name: r for r, name in enumerate(instruments)}
    renumber = np.array([rank[name] for name in names], dtype=np.intp)
    return ParsedTicks(
        timestamp_ms=stamps,
        instrument=renumber[codes],
        instruments=instruments,
        is_ask=asks,
        price=prices,
        malformed=malformed,
        problems=problems,
    )


# Tick text is parsed this many characters, and the rest of their last
# line, at a time (about 6,000 rows of a typical file), so memory does not
# grow with the file's length.
_BLOCK_CHARS = 1 << 18
# A block's records are checked in runs of consecutive records, each run
# one record or few enough that every field column, whose cells numpy pads
# to the widest, holds at most this many characters: one long cell does
# not widen the cells of the whole block.
_RUN_CHARS = 1 << 20
_FIELDS = len(TICK_HEADER)
# numpy's str cells drop trailing NULs, so a NUL is read as this lone
# surrogate, which UTF-8 text never holds, and put back in names and messages.
_NUL = "\udfff"


def _nul_free(text: str) -> str:
    """`text` with each NUL as `_NUL`; text that holds `_NUL` is a `FormatError`."""
    if _NUL in text:
        raise FormatError(f"tick text holds {_NUL!r}, which the parser reserves for NUL")
    return text.replace("\0", _NUL)


def _split_records(block: str, line: int):
    """The records of a block of whole lines without quotes, split as
    `csv.reader` splits them: `(last line number, the arguments of `_runs`)`.
    None when a line is longer than `csv`'s field size limit, which
    `csv.reader` refuses."""
    if "\r" in block:
        block = block.replace("\r\n", "\n").replace("\r", "\n")
    if not block.endswith("\n"):
        block += "\n"
    chars = np.array([block]).view(np.uint32)
    found = np.flatnonzero((chars == ord(",")) | (chars == ord("\n")))
    # Each comma and line end after a -1, the end of the line before the
    # block, and before `_FIELDS` entries that keep `at` below in bounds.
    delims = np.concatenate(([-1], found, np.zeros(_FIELDS, np.intp)))
    ends = np.flatnonzero(chars[found] == ord("\n")) + 1  # each line's end in `delims`
    counts = np.diff(ends, prepend=0)
    starts = delims[ends - counts] + 1
    widths = delims[ends] - starts
    if int(widths.max(initial=0)) > csv.field_size_limit():
        return None
    full = counts == _FIELDS
    # Field k of a line of four lies between its delimiters k and k + 1;
    # the other lines index the start of `delims` and get empty cells.
    at = np.where(full, ends - _FIELDS, 0)[:, None] + np.arange(_FIELDS)
    lo, hi = (delims[at] + 1) * full[:, None], delims[at + 1] * full[:, None]
    filled = widths > 0
    return line + ends.size, (line + 1 + np.flatnonzero(filled), counts[filled], chars, lo[filled], hi[filled])


def _cells(chars: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The text of `chars[lo:hi]` for each pair of bounds, as one str array;
    `chars` runs on for at least the widest cell past its last bound."""
    size = hi - lo
    width = max(int(size.max(initial=0)), 1)
    cells = chars[lo[:, None] + np.arange(width)]
    cells *= np.arange(width) < size[:, None]
    return cells.view(f"U{width}")[:, 0]


def _csv_records(block: str, stream: TextIO, line: int):
    """`_split_records` by `csv.reader`, for a block that may hold quoted
    fields.  A record still open at the block's end reads the rest of its
    lines on from `stream`; a `csv` error names the line its record starts on."""
    lines = io.StringIO(block, newline="").readlines()
    reader = csv.reader(itertools.chain(lines, map(_nul_free, stream)), strict=True)
    at, counts, cells = [], [], []
    done = 0  # lines read by the records before the current one
    try:
        for record in reader:
            if record:
                at.append(line + reader.line_num)
                counts.append(len(record))
                cells += record if len(record) == _FIELDS else [""] * _FIELDS
            done = reader.line_num
            if done >= len(lines):
                break
    except csv.Error as exc:
        raise FormatError(f"line {line + done + 1}: {exc}") from None
    sizes = np.fromiter(map(len, cells), np.intp, len(cells)).reshape(-1, _FIELDS)
    hi = np.cumsum(sizes).reshape(sizes.shape)
    chars = np.array(["".join(cells)]).view(np.uint32)
    return line + reader.line_num, (np.array(at, np.int64), np.array(counts, np.intp), chars, hi - sizes, hi)


def _runs(lines: np.ndarray, counts: np.ndarray, chars: np.ndarray, lo: np.ndarray, hi: np.ndarray):
    """Yield a block's records as runs `(line numbers, field counts, the
    four field columns)` of consecutive records, halving a run until
    `_RUN_CHARS` holds its widest cell once per record, or it holds one.
    Field k of record i is `chars[lo[i, k]:hi[i, k]]`, and a record without
    four fields has four empty cells."""
    sizes = hi - lo
    chars = np.concatenate((chars, np.zeros(int(sizes.max(initial=0)) + 1, np.uint32)))
    spans = [(0, counts.size)]
    while spans:
        a, b = spans.pop()
        if b - a > 1 and (b - a) * int(sizes[a:b].max()) > _RUN_CHARS:
            spans += [((a + b) // 2, b), (a, (a + b) // 2)]
        else:
            yield lines[a:b], counts[a:b], [_cells(chars, lo[a:b, k], hi[a:b, k]) for k in range(_FIELDS)]


def _check_records(lines: np.ndarray, counts: np.ndarray, fields: list[np.ndarray], room: int):
    """Validate a run's records column by column: `(the number of
    malformed records, a problem line for each of the first `room` of them,
    (stamps in ms, instrument names, is-ask, prices) of the good ones)`.  A
    record's problem is its first failing check, in the order field count,
    side, instrument, stamp, price.  The problem lines show `_NUL` as NUL."""
    raw_ts, instrument, side, raw_price = (np.char.strip(f) for f in fields)
    is_ask, is_bid = side == "ask", side == "bid"
    for i in np.flatnonzero(~(is_ask | is_bid)).tolist():
        lowered = str(side[i]).lower()
        is_ask[i], is_bid[i] = lowered == "ask", lowered == "bid"
    stamps, stamped = _epoch_ms(raw_ts)
    prices, priced = _floats(raw_price)
    positive = priced & np.isfinite(prices) & (prices > 0)
    checks = (counts == _FIELDS, is_ask | is_bid, np.char.str_len(instrument) > 0, stamped, priced, positive)
    # Per record: 0 if good, else 1 + the index of its first failing check.
    reason = np.zeros(counts.size, dtype=np.intp)
    for k, passed in reversed(list(enumerate(checks, start=1))):
        reason[~passed] = k
    bad = np.flatnonzero(reason)

    def cell(column: np.ndarray, i: int) -> str:
        return str(column[i]).replace(_NUL, "\0")

    messages = [
        f"line {lines[i]}: " + (
            f"expected {_FIELDS} fields, got {counts[i]}" if reason[i] == 1
            else f"unknown side {cell(side, i).lower()!r}" if reason[i] == 2
            else "empty instrument" if reason[i] == 3
            else f"bad timestamp {cell(raw_ts, i)!r}" if reason[i] == 4
            else f"bad price {cell(raw_price, i)!r}" if reason[i] == 5
            else f"price must be positive, got {cell(raw_price, i)!r}"
        )
        for i in bad[:max(room, 0)].tolist()
    ]
    good = reason == 0
    return bad.size, messages, (stamps[good], instrument[good], is_ask[good], prices[good])


# A plain stamp's body is this template's first 19 characters, or its
# first 21 to 26 (`_PLAIN_BODY`, by length), every digit written as 0; a Z
# may follow it.
_TEMPLATE = np.array([*map(ord, "0000-00-00T00:00:00.000000")], np.uint32)
_PLAIN_WIDTH = _TEMPLATE.size + 1  # YYYY-MM-DDTHH:MM:SS.ffffffZ
_PLAIN_BODY = np.isin(np.arange(_PLAIN_WIDTH + 2), [19, *range(21, _PLAIN_WIDTH)])


def _epoch_ms(stamps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch milliseconds of each stripped stamp, rounded as
    `round(parse_rfc3339(t) * 1000.0)` rounds them, and whether it parsed.

    Stamps of the plain shape `YYYY-MM-DDTHH:MM:SS[.f{1,6}][Z]` convert in
    one `datetime64[us]` cast.  The rest go through `parse_rfc3339` one by
    one, as do all of a run's stamps when the cast refuses one (a day or
    hour out of range), and stamps too far from 1970 for a float to hold
    their microseconds exactly (among them year 0000, which numpy reads
    and Python does not).
    """
    n, width = stamps.size, stamps.dtype.itemsize // 4
    code = np.zeros((n, _PLAIN_WIDTH), np.uint32)
    code[:, :min(width, _PLAIN_WIDTH)] = stamps.view(np.uint32).reshape(n, width)[:, :_PLAIN_WIDTH]
    length = np.minimum(np.char.str_len(stamps), _PLAIN_WIDTH + 1)
    zulu = code[np.arange(n), np.clip(length - 1, 0, _PLAIN_WIDTH - 1)] == ord("Z")
    body = length - zulu
    digits = np.where(code[:, :-1] - ord("0") < 10, ord("0"), code[:, :-1])
    # No character past the body (a Z, then NULs) matches the template.
    at = np.flatnonzero((np.count_nonzero(digits == _TEMPLATE, axis=1) == body) & _PLAIN_BODY[body])
    text = code[at, :-1] * (np.arange(_TEMPLATE.size) < body[at, None])  # the body alone
    text = text.view(f"U{_TEMPLATE.size}")[:, 0]
    try:
        us = text.astype("datetime64[us]").view(np.int64)
    except ValueError:
        at, us = at[:0], np.zeros(0, np.int64)
    exact = np.abs(us) <= 2**53
    ms = np.zeros(n, dtype=np.int64)
    ms[at[exact]] = np.rint(us[exact] / 1e6 * 1000.0)
    parsed = np.zeros(n, dtype=bool)
    parsed[at[exact]] = True
    for i in np.flatnonzero(~parsed).tolist():
        with contextlib.suppress(ValueError):
            ms[i] = round(parse_rfc3339(str(stamps[i])) * 1000.0)
            parsed[i] = True
    return ms, parsed


# The characters of decimal text, and NUL, which pads numpy's str cells;
# the last entry stands for every code point above 127.
_DECIMAL = np.isin(np.arange(129), [0, *map(ord, "0123456789.+-eE")])


def _floats(texts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`float` of each text, and whether it parsed.  Texts of decimal
    characters go through one `map(float, ...)`, which reads them faster
    than numpy's str-to-float cast; the others (an empty text among them),
    and all of them when that map raises, one at a time."""
    values = np.full(texts.size, math.nan)
    parsed = np.zeros(texts.size, dtype=bool)
    code = texts.view(np.uint32).reshape(texts.size, texts.dtype.itemsize // 4)
    decimal = np.flatnonzero(_DECIMAL[np.minimum(code, _DECIMAL.size - 1)].all(axis=1) & (code[:, 0] > 0))
    with contextlib.suppress(ValueError):
        values[decimal] = np.fromiter(map(float, texts[decimal].tolist()), np.float64, decimal.size)
        parsed[decimal] = True
    for i in np.flatnonzero(~parsed).tolist():
        with contextlib.suppress(ValueError):
            values[i] = float(texts[i])
            parsed[i] = True
    return values, parsed


def read_ticks(path: str | Path) -> ParsedTicks:
    """Parse a tick CSV file (gzip by `.gz` extension); an unreadable one is a `FormatError`."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(path, "rt", encoding="utf-8", newline="") as fh:
            try:
                return parse_ticks(fh)
            except UnicodeDecodeError as exc:  # `exc.object` is the decoder's input, read last
                raise FormatError(f"byte {fh.buffer.tell() - len(exc.object) + exc.start}: not UTF-8 text") from None
    except (FormatError, EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise FormatError(f"{path}: {exc}") from None


def resample(ticks: ParsedTicks, dt: float, side: str) -> tuple[SignalPanel, SignalPanel | None]:
    """Activity and best-rate panels of one side, on one grid of dt-minute buckets.

    The grid is the smallest dt-aligned one holding every tick of either
    side.  Channels are the instruments quoted on `side`, sorted.  Activity
    is the bucket's quote count divided by dt.  The best rate is the bucket
    minimum for asks (maximum for bids), carried forward through empty
    buckets; the rate panel starts at the first bucket where every channel
    has quoted, and is None when fewer than two buckets remain.  Ticks
    that all fall in one bucket are an `AnalysisError`: a panel needs two.  Bucket
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
    if count < 2:
        raise AnalysisError(f"every tick falls in one {dt!r}-minute bucket: a panel needs at least two")
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
    labels = tuple(ticks.instruments[i] for i in present.tolist())
    activity = SignalPanel(activity, labels, dt, origin / 1000.0)
    if count - first < 2:
        return activity, None
    rates = np.take_along_axis(best, last[:, first:], axis=1)
    return activity, SignalPanel(rates, labels, dt, (origin + first * dt_ms) / 1000.0)


TRANSFORMS = ("raw", "log-return")


def transform_panel(panel: SignalPanel, transform: str) -> SignalPanel:
    """The panel itself ("raw") or its log-returns ("log-return")."""
    if transform not in TRANSFORMS:
        raise ConfigurationError(f"transform must be one of {TRANSFORMS}, got {transform!r}")
    # Log-returns are stamped at the start of the interval they span, so a
    # transformed panel stays on the raw panel's window grid.
    if transform == "raw":
        return panel
    if panel.length == 2:
        raise TransformError("log-return of a 2-sample panel leaves one return: a panel needs two")
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
    """
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
