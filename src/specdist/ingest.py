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
import zlib
from array import array
from dataclasses import dataclass, field
from datetime import datetime, timezone
from operator import itemgetter
from pathlib import Path
from typing import Mapping, TextIO

import numpy as np

from .errors import AnalysisError, ConfigurationError, FormatError, TransformError
from .spectra import MAX_CELLS, SignalPanel, _times, check_grid  # noqa: F401 (re-exports MAX_CELLS)

TICK_HEADER = ("timestamp", "instrument", "side", "price")
SIDES = ("ask", "bid")

# Abort parsing when more than this fraction of data rows is malformed.
MALFORMED_ABORT_FRACTION = 0.01
_MAX_REPORTED_PROBLEMS = 20


def parse_rfc3339(text: str) -> float:
    """Epoch seconds of `YYYY-MM-DD[Tt ]HH:MM:SS[.f{1,6}][Z|z|±HH:MM]` text,
    UTC when it has no zone: the one-stamp form of `_epoch_seconds`.  Any
    other text is a `ValueError`."""
    seconds, parsed = _epoch_seconds(_stamp_array([text]))
    if not parsed[0]:
        raise ValueError(f"bad RFC-3339 time: {text!r}")
    return float(seconds[0])


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

    # This thread reads the body a block of whole lines at a time; up to one
    # thread per CPU, at most `_MAX_CHECK_THREADS`, checks the blocks, and at
    # most one block more than the threads is held.  Instruments get codes in
    # order of first appearance, renumbered to sorted order at the end.  The
    # pool is imported here, so that only commands that parse ticks pay for it.
    from concurrent.futures import ThreadPoolExecutor

    threads = min(len(os.sched_getaffinity(0)), _MAX_CHECK_THREADS)
    checked = _read_ahead(ThreadPoolExecutor(threads), _check_block, zip(_blocks(stream, reader.line_num)), threads)
    parts = [(np.zeros(0, np.int64), np.zeros(0, np.intp), np.zeros(0, bool), np.zeros(0))]
    names: dict[str, int] = {}
    malformed = 0
    problems: list[str] = []
    with contextlib.closing(checked):
        for runs in checked:
            for bad, reasons, (stamps, present, codes, asks, prices) in runs:
                malformed += bad
                problems += reasons[:_MAX_REPORTED_PROBLEMS - len(problems)]
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
# Most threads that check blocks, however many CPUs the process may use.
# Each holds a block's records and its check's arrays, a few MB: with a
# third, a parse of 200,000 rows with one 120,000-character name peaked
# above 40 MB.
_MAX_CHECK_THREADS = 2
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


def _read_ahead(pool, fn, args, depth: int):
    """Yield `fn(*a)` for each `a` of `args` in order, run on `pool` with up
    to `depth` calls submitted past the one waited on; a failed call raises
    at its place in the order.  However the generator ends or is closed, the
    pool is shut down and joined, its calls not yet started cancelled."""
    try:
        pending = []
        for a in args:
            pending.append(pool.submit(fn, *a))
            if len(pending) > depth:
                yield pending.pop(0).result()
        while pending:
            yield pending.pop(0).result()
    finally:
        pool.shutdown(cancel_futures=True)


def _blocks(stream: TextIO, line: int):
    """Yield the arguments of `_runs` for each block of whole lines of `stream`."""
    while chunk := stream.read(_BLOCK_CHARS):
        block = _nul_free(chunk + stream.readline())
        # Only `csv` knows where a quoted field ends.
        records = None if '"' in block else _split_records(block, line)
        line, records = records or _csv_records(block, stream, line)
        yield records


def _check_block(records) -> list:
    """`_check_records` of each run of a block's records, with the good
    records' instrument names as (the distinct names, each one's code)."""
    checked = []
    for run in _runs(*records):
        bad, reasons, (stamps, instruments, asks, prices) = _check_records(*run)
        present, codes = np.unique(instruments, return_inverse=True)
        checked.append((bad, reasons, (stamps, present, codes, asks, prices)))
    return checked


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
    cells = np.lib.stride_tricks.sliding_window_view(chars, width)[lo]
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


def _check_records(lines: np.ndarray, counts: np.ndarray, fields: list[np.ndarray]):
    """Validate a run's records column by column: `(the number of
    malformed records, a problem line for each of the first
    _MAX_REPORTED_PROBLEMS of them, (stamps in ms, instrument names,
    is-ask, prices) of the good ones)`.  A record's problem is its first
    failing check, in the order field count, side, instrument, stamp,
    price.  The problem lines show `_NUL` as NUL."""
    raw_ts, instrument, side, raw_price = (np.char.strip(f) for f in fields)
    is_ask, is_bid = side == "ask", side == "bid"
    for i in np.flatnonzero(~(is_ask | is_bid)).tolist():
        lowered = str(side[i]).lower()
        is_ask[i], is_bid[i] = lowered == "ask", lowered == "bid"
    seconds, stamped = _epoch_seconds(raw_ts)
    stamps = np.rint(seconds * 1000.0).astype(np.int64)
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
        for i in bad[:_MAX_REPORTED_PROBLEMS].tolist()
    ]
    good = reason == 0
    return bad.size, messages, (stamps[good], instrument[good], is_ask[good], prices[good])


# A stamp's body is this template's first 19 characters, or its first 21
# to 26, every digit written as 0 and the separator `T`, `t` or a space.
_TEMPLATE = np.array([*map(ord, "0000-00-00T00:00:00.000000")], np.uint32)
# The most characters of a stamp: the longest body and a `±HH:MM` zone.
_STAMP_CHARS = _TEMPLATE.size + 6
# The days of each month of a common year, and 0 for the months 0 and 13 to 99.
_MONTH_DAYS = np.array([0, 31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31, 0])


def _epoch_seconds(stamps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of each stripped stamp, and whether it is one of the
    grammar `YYYY-MM-DD[Tt ]HH:MM:SS[.f{1,6}][Z|z|±HH:MM]`, UTC when it has
    no zone, decoded from the stamps' character codes.

    A stamp not ending in `Z` or `z` has an offset when its sixth character
    from the end is a sign.  The body before the zone must match
    `_TEMPLATE` and its fields be in range (`_civil_us`), and an offset's
    hours must be at most 23 and its minutes at most 59.  The seconds are
    the microseconds over 10**6, one correctly rounded division as in
    `datetime.timestamp`: of floats within 2**53 microseconds (285 years)
    of 1970, of Python ints past that.
    """
    n = stamps.size
    rows = np.arange(n)
    length = np.char.str_len(stamps)
    code = stamps.view(np.uint32).reshape(n, stamps.dtype.itemsize // 4)
    end = code[rows, length - 1]  # an empty stamp's is its last code, NUL
    zulu = (end == ord("Z")) | (end == ord("z"))
    body = length - zulu
    rest = np.flatnonzero(~zulu & (length >= 19 + 6))
    tail = code[rest[:, None], length[rest, None] + np.arange(-6, 0)]  # sign, H, H, colon, M, M
    signed = (tail[:, 0] == ord("+")) | (tail[:, 0] == ord("-"))
    rest, tail = rest[signed], tail[signed]
    hhmm = tail[:, [1, 2, 4, 5]].astype(np.int64) - ord("0")
    hours, minutes = hhmm[:, 0] * 10 + hhmm[:, 1], hhmm[:, 2] * 10 + hhmm[:, 3]
    fine = (tail[:, 3] == ord(":")) & np.all((hhmm >= 0) & (hhmm < 10), axis=1) & (hours < 24) & (minutes < 60)
    offset = np.zeros(n, np.int64)  # minutes east of UTC
    offset[rest] = np.where(tail[:, 0] == ord("-"), -1, 1) * (hours * 60 + minutes)
    body[rest] = np.where(fine, length[rest] - 6, 0)  # a bad offset leaves no body
    chars = code[:, :_TEMPLATE.size]
    template = _TEMPLATE[:chars.shape[1]]
    digits = np.where(chars - ord("0") < 10, ord("0"), chars)
    separator = digits[:, 10:11]
    separator[(separator == ord("t")) | (separator == ord(" "))] = ord("T")
    # Past its body a stamp holds a Z, a z or NULs, none of which the
    # template holds, or an offset, whose matches are not counted.
    matched = np.count_nonzero(digits == template, axis=1)
    before = np.arange(template.size) < body[rest, None]
    matched[rest] = np.count_nonzero((digits[rest] == template) & before, axis=1)
    shaped = (body == 19) | ((body > 20) & (body <= _TEMPLATE.size))
    at = np.flatnonzero(shaped & (matched == body))
    us, valid = _civil_us(chars[at], body[at])
    at = at[valid]
    us = us[valid] - offset[at] * 60_000_000
    seconds, parsed = np.zeros(n), np.zeros(n, dtype=bool)
    seconds[at], parsed[at] = us / 1e6, True
    far = np.flatnonzero(np.abs(us) > 2**53)
    seconds[at[far]] = [int(u) / 10**6 for u in us[far].tolist()]
    return seconds, parsed


def _stamp_array(texts) -> np.ndarray:
    """Time cells as `_epoch_seconds` takes them: stripped, in one str array,
    with a text longer than a stamp cut to one character more and a text
    holding a NUL, which numpy's str cells drop at their end, emptied."""
    return np.array(["" if "\0" in text else text.strip()[:_STAMP_CHARS + 1] for text in texts], dtype=str)


def _civil_us(code: np.ndarray, length: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch microseconds of stamp bodies that match `_TEMPLATE`, from
    their (stamps, up to 26) character codes and lengths, and whether each
    field is in range: year at least 1, a day of its month by the
    Gregorian leap rule, hour below 24, minute and second below 60."""
    # One row per character position.
    digit = np.zeros((_TEMPLATE.size, code.shape[0]), np.int64)
    digit[:code.shape[1]] = code.T
    digit -= ord("0")
    digit[20:] *= np.arange(20, _TEMPLATE.size)[:, None] < length  # a short fraction's missing digits

    def number(start: int, stop: int) -> np.ndarray:
        value = digit[start]
        for k in range(start + 1, stop):
            value = value * 10 + digit[k]
        return value

    year, month, day = number(0, 4), number(5, 7), number(8, 10)
    hour, minute, second, micro = number(11, 13), number(14, 16), number(17, 19), number(20, 26)
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = _MONTH_DAYS[np.minimum(month, 13)] + (leap & (month == 2))
    valid = (year >= 1) & (day >= 1) & (day <= month_days) & (hour < 24) & (minute < 60) & (second < 60)
    # H. Hinnant's `days_from_civil`, on years counted from March.
    y = year - (month <= 2)
    era = y // 400
    yoe = y - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    days = era * 146_097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719_468
    return (((days * 24 + hour) * 60 + minute) * 60 + second) * 1_000_000 + micro, valid


# A price of at most this many digits converts from its digits' codes;
# 10**15 < 2**53, so its digits' integer and the powers of 10 are exact floats.
_PLAIN_DIGITS = 15
_POW10 = np.array([float(10**k) for k in range(_PLAIN_DIGITS)])


def _floats(texts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`float` of each text, and whether it parsed.  The text `nan`
    parses, so a failure is not marked by NaN.

    A text of 1 to 15 ASCII digits with at most one `.` between two of
    them is its digits' integer over 10**(the digits after the `.`): both
    are exact floats, so the one rounded division gives `float`'s bits
    (Clinger 1990).  Each other text is one `float` call.
    """
    n = texts.size
    length = np.char.str_len(texts)
    code = texts.view(np.uint32).reshape(n, texts.dtype.itemsize // 4)[:, :_PLAIN_DIGITS + 1]
    digit = code - ord("0")
    is_digit, is_dot = digit < 10, code == ord(".")
    count = np.count_nonzero(is_digit, axis=1)
    dots = np.count_nonzero(is_dot, axis=1)
    point = np.argmax(is_dot, axis=1)
    # Past its length a text's codes are NUL, neither a digit nor a dot.
    plain = (count >= 1) & (count <= _PLAIN_DIGITS) & (count + dots == length) & (
        (dots == 0) | ((dots == 1) & (point > 0) & (point < length - 1))
    )
    mantissa = np.zeros(n, np.int64)
    for k in range(code.shape[1]):
        mantissa = np.where(is_digit[:, k], mantissa * 10 + digit[:, k], mantissa)
    values = mantissa / _POW10[np.where(plain & (dots == 1), length - 1 - point, 0)]
    parsed = np.ones(n, dtype=bool)
    for i in np.flatnonzero(~plain).tolist():
        try:
            values[i] = float(str(texts[i]))
        except ValueError:
            values[i], parsed[i] = 0.0, False
    return values, parsed


def read_ticks(path: str | Path) -> ParsedTicks:
    """Parse a tick CSV file (gzip by `.gz` extension); an unreadable one is a `FormatError`."""
    path = Path(path)
    opener = gzip.open if path.suffix == ".gz" else open
    try:
        with opener(path, "rt", encoding="utf-8", newline="") as fh:
            try:
                return parse_ticks(fh)
            except UnicodeDecodeError as exc:
                raise FormatError(_undecodable(fh, exc)) from None
    except (FormatError, EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise FormatError(f"{path}: {exc}") from None


def _undecodable(fh, exc: UnicodeDecodeError) -> str:
    """The message naming `exc`'s bad byte by its offset in `fh`; `exc.object` is the decoder's input, read last."""
    return f"byte {fh.buffer.tell() - len(exc.object) + exc.start}: not UTF-8 text"


def resample(ticks: ParsedTicks, dt: float, side: str) -> tuple[SignalPanel, SignalPanel | None]:
    """Activity and best-rate panels of one side, on one grid of dt-minute buckets.

    The grid is the smallest dt-aligned one holding every tick of either
    side.  Channels are the instruments quoted on `side`, sorted.  Activity
    is the bucket's quote count divided by dt.  The best rate is the bucket
    minimum for asks (maximum for bids), carried forward through empty
    buckets; the rate panel starts at the first bucket where every channel
    has quoted, and is None when fewer than two buckets remain.  Ticks
    that all fall in one bucket are an `AnalysisError`: a panel needs two.  A grid
    `check_grid` refuses is a `ConfigurationError`, raised before it is
    allocated.  Bucket assignment depends only on timestamps, so the
    input order is irrelevant.
    """
    dt_ms = check_grid(dt)
    if side not in SIDES:
        raise ConfigurationError(f"side must be one of {SIDES}, got {side!r}")
    t = ticks.timestamp_ms
    if t.size == 0:
        raise AnalysisError("no valid ticks to resample")
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
    check_grid(dt, m, count, origin / 1000.0)
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
    return activity, SignalPanel(rates, labels, dt, activity.times(first))


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
    """Yield a list for the paths of the files the block opens for writing; if
    the block raises, remove each regular file of them (never a device such as
    /dev/full) and re-raise.  A file the block never opened stays untouched."""
    written: list = []
    try:
        yield written
    except BaseException:
        for path in filter(os.path.isfile, written):
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


# `_read_table` converts the times of this many rows at a time, so that the
# text and arrays of a conversion stay small beside the table's values.
_TABLE_BATCH = 4096


def _read_table(path, time_column: str):
    """Read a stamped table as (column names after the time column, epoch
    times in seconds, (rows, columns) values, the line of the header and of
    each row, (key, value, line) of each `key=value` token of the `#` lines).
    Blank lines are skipped and `#` lines may appear anywhere.  Values go
    into a typed array, with no Python object per cell, and times are
    converted `_TABLE_BATCH` rows at a time.  Any unreadable line is a
    `FormatError` naming the file and the line."""
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

    times, values, lines = array("d"), array("d"), array("q")
    stamps: list[str] = []  # the time cells of the last rows of `lines`, not yet in `times`

    def convert():
        """Move `stamps` into `times`; the first that is a bad time or does
        not strictly increase is a `FormatError` naming its line."""
        seconds, parsed = _epoch_seconds(_stamp_array(stamps))
        rising = seconds > np.concatenate(([times[-1] if times else -math.inf], seconds[:-1]))
        bad = np.flatnonzero(~(parsed & rising))
        if bad.size:
            i = int(bad[0])
            reason = (f"time {stamps[i].strip()} does not strictly increase" if parsed[i]
                      else f"bad RFC-3339 time: {stamps[i]!r}")
            raise FormatError(f"{path}: line {lines[len(lines) - len(stamps) + i]}: {reason}") from None
        times.frombytes(seconds.tobytes())
        stamps.clear()

    with open(path, encoding="utf-8", newline="") as fh:
        reader = csv.reader(data_lines(fh))
        # Any ValueError or csv.Error below, raised here or by a parser, is an
        # unreadable line, after any fault of the rows before it.
        try:
            header = [name.strip() for name in next(reader, [])]
            lines.append(lineno)
            if len(header) < 2 or header[0].lower() != time_column:
                raise ValueError(f"expected header `{time_column},...`, got {header!r}")
            if len(set(header)) < len(header):
                raise ValueError(f"a column name repeats in {header!r}")
            for cells in reader:
                if len(cells) != len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(cells)}")
                # Queued first: the handler's `convert` names a bad time before a bad number.
                stamps.append(cells[0])
                lines.append(lineno)
                values.extend(map(float, cells[1:]))
                if len(stamps) == _TABLE_BATCH:
                    convert()
            convert()
        except (ValueError, csv.Error) as exc:  # a UnicodeDecodeError is the block's, not the line's
            convert()
            at = _undecodable(fh, exc) if isinstance(exc, UnicodeDecodeError) else f"line {lineno}: {exc}"
            raise FormatError(f"{path}: {at}") from None
    values = np.frombuffer(values).reshape(len(times), len(header) - 1)
    return header[1:], np.frombuffer(times), values, lines, comments


def write_panel_csv(panel: SignalPanel, path: str | Path, meta: Mapping[str, str] | None = None) -> None:
    """Write a panel as `time,<channel>,...` rows, row k stamped `panel.times(k)`.

    The `# key=value ...` line records `meta` and the sampling period `dt`.
    """
    rows = (column.tolist() for column in panel.values.T)
    meta = {**(meta or {}), "dt": repr(panel.dt)}
    _write_table(path, ("time", *panel.labels), panel.times(np.arange(panel.length)).tolist(), rows, meta)


def read_panel_csv(path: str | Path) -> SignalPanel:
    """Read a panel CSV: t0 is the first row's time, dt the `dt=` token or else the rows' span over
    their count.  A token more than 1 ms from the first spacing, a dt under `check_grid`'s 1 ms, or a
    row more than half a ms from its time `SignalPanel.times`, is a `FormatError` naming its line."""
    labels, times, values, lines, comments = _read_table(path, "time")
    if len(times) < 2:
        raise FormatError(f"{path}: a panel needs at least two rows")
    bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
    if bad.size:
        raise FormatError(f"{path}: line {lines[bad[0] + 1]}: panel values must be finite")
    dt = (times[-1] - times[0]) / (len(times) - 1) / 60.0
    # Each time rounds its stamp's microseconds, so the floor allows the rows' span two ulps.
    floored, line = dt + 2 * np.spacing(max(abs(times[0]), abs(times[-1]))) / (len(times) - 1) / 60.0, lines[2]
    for key, text, at in comments:
        if key == "dt":
            try:
                dt = float(text)
            except ValueError:
                dt = math.nan
            if not (dt > 0 and abs(_times(0.0, dt, 1) - (times[1] - times[0])) <= 1e-3):
                raise FormatError(f"{path}: line {at}: dt={text} disagrees with the rows' spacing")
            floored, line = dt, at
    try:
        check_grid(floored)
    except ConfigurationError:
        raise FormatError(f"{path}: line {line}: dt={float(dt)!r} is {dt * 60_000.0:g} ms, under 1 ms") from None
    panel = SignalPanel(values.T, tuple(labels), dt, times[0])
    uneven = np.flatnonzero(np.abs(times - panel.times(np.arange(len(times)))) > 5e-4 + 4 * np.spacing(np.abs(times)))
    if uneven.size:
        raise FormatError(f"{path}: line {lines[uneven[0] + 1]}: rows are not uniformly spaced")
    return panel
