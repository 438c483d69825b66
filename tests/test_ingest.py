import concurrent.futures
import gzip
import io
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specdist import ingest, spectra
from specdist.errors import AnalysisError, ConfigurationError, FormatError, TransformError
from specdist.ingest import (
    ParsedTicks,
    format_rfc3339,
    parse_rfc3339,
    parse_ticks,
    read_panel_csv,
    read_ticks,
    resample,
    transform_panel,
    write_panel_csv,
)

from specdist.spectra import SignalPanel

from conftest import DATA_DIR
from oracles import parse_rfc3339 as oracle_rfc3339, row_parse_ticks, scalar_resample

MINUTE_MS = 60_000

# 2006-10-16T00:03:00Z in epoch seconds.
T_0003 = 1_160_956_980.0

# Times outside `YYYY-MM-DD[Tt ]HH:MM:SS[.f{1,6}][Z|z|±HH:MM]`.  `fromisoformat`
# alone takes several, and which depends on the Python version: 3.11 takes the
# first four, 3.10 does not.
GRAMMAR_REJECTS = [
    "2006-W42-1T00:03:00Z",  # week date
    "20061016T000300Z",  # basic format
    "2006-10-16T00:03:00,5Z",  # comma fraction
    "2006-10-16T00:03:00+0100",  # offset without a colon
    "2006-10-16",  # date only
    "2006-10-16T00",  # hour only
    "2006-10-16T00:03Z",  # no seconds
    "2006-10-16T00:03:00.1234567Z",  # 7 fraction digits
    "2006-10-16T00:03:00.Z",  # no fraction digit
    "2006-10-16X00:03:00Z",  # another separator
    "2006-10-16T00:03:00+01:60",  # offset minute out of range
    "2006-10-16T00:03:00+01:00:30",  # offset seconds
]


# Times of the grammar and its near misses: every separator, 0 to 7
# fraction digits, zones with and without a colon and out of range, months
# and days out of range, years 1 to 9999 and whitespace around them.
grammar_text = st.builds(
    "{}{:04d}-{:02d}-{:02d}{}{:02d}:{:02d}:{:02d}{}{}{}".format,
    st.sampled_from(["", "", " ", "\t", "\u3000"]),
    st.integers(1, 9999) | st.sampled_from([1684, 1685, 1969, 1970, 2255, 2256]),
    st.integers(0, 13),
    st.integers(0, 32),
    st.sampled_from("Tt X"),
    st.integers(0, 25),
    st.integers(0, 61),
    st.integers(0, 61),
    st.just("") | st.text("0123456789", max_size=7).map(".".__add__),
    st.sampled_from(["", "Z", "z"]) | st.builds(
        "{}{:02d}{}{:02d}".format, st.sampled_from("+-"), st.integers(0, 25) | st.sampled_from([23, 24, 25]),
        st.sampled_from([":", ":", ""]), st.integers(0, 61) | st.sampled_from([59, 60, 61]),
    ),
    st.sampled_from(["", "", " ", "\n"]),
)


def tick(minute_offset, instrument="EUR/USD", side="ask", price=1.0, second=0):
    return (minute_offset * MINUTE_MS + second * 1000, instrument, side, price)


def columns(ticks):
    """ParsedTicks holding (timestamp_ms, instrument, side, price) tuples."""
    names = sorted({t[1] for t in ticks})
    return ParsedTicks(
        timestamp_ms=np.array([t[0] for t in ticks], dtype=np.int64),
        instrument=np.array([names.index(t[1]) for t in ticks], dtype=np.intp),
        instruments=tuple(names),
        is_ask=np.array([t[2] == "ask" for t in ticks], dtype=bool),
        price=np.array([t[3] for t in ticks], dtype=np.float64),
    )


def activity_of(ticks, side="ask", dt=1.0):
    return resample(columns(ticks), dt, side)[0]


def rates_of(ticks, side="ask", dt=1.0):
    return resample(columns(ticks), dt, side)[1]


def row(panel, name="EUR/USD"):
    return panel.values[panel.channel_index(name)].tolist()


class TestParseTicks:
    def test_single_row(self):
        parsed = parse_ticks(
            io.StringIO("timestamp,instrument,side,price\n2006-10-16T00:00:01Z,EUR/USD,ask,1.2612\n")
        )
        assert parsed.malformed == 0
        assert parsed.instruments == ("EUR/USD",)
        assert parsed.instrument.tolist() == [0]
        assert parsed.is_ask.tolist() == [True]
        assert parsed.price.tolist() == [1.2612]
        assert parsed.timestamp_ms.tolist() == [1160956801000]
        assert parsed.timestamp_ms.dtype == np.int64

    def test_instrument_codes_follow_sorted_names(self):
        body = (
            "timestamp,instrument,side,price\n"
            "2006-10-16T00:00:01Z,USD/JPY,bid,116.2\n"
            "2006-10-16T00:00:02Z,EUR/USD,ask,1.26\n"
            "2006-10-16T00:00:03Z,USD/JPY,ask,116.3\n"
        )
        parsed = parse_ticks(io.StringIO(body))
        assert parsed.instruments == ("EUR/USD", "USD/JPY")
        assert parsed.instrument.tolist() == [1, 0, 1]
        assert parsed.is_ask.tolist() == [False, True, True]

    def test_empty_body(self):
        parsed = parse_ticks(io.StringIO("timestamp,instrument,side,price\n"))
        assert parsed.timestamp_ms.size == 0 and parsed.malformed == 0
        assert parsed.instruments == ()

    def test_empty_file_has_no_header(self, tmp_path):
        path = tmp_path / "ticks.csv"
        path.write_text("")
        with pytest.raises(FormatError, match=re.escape(f"{path}: empty tick file: missing header")):
            read_ticks(path)

    def test_negative_price_counted_and_excluded(self):
        body = (
            "timestamp,instrument,side,price\n"
            + "\n".join(
                f"2006-10-16T00:{k // 60:02d}:{k % 60:02d}Z,EUR/USD,ask,1.1" for k in range(99)
            )
            + "\n2006-10-16T01:59:00Z,EUR/USD,ask,-1\n"
        )
        parsed = parse_ticks(io.StringIO(body))
        assert parsed.malformed == 1
        assert parsed.timestamp_ms.size == 99
        assert parsed.problems and "price" in parsed.problems[0]

    def test_too_many_malformed_rows_abort(self):
        body = (
            "timestamp,instrument,side,price\n"
            "2006-10-16T00:00:00Z,EUR/USD,ask,1.1\n"
            "garbage,EUR/USD,ask,1.1\n"
        )
        with pytest.raises(FormatError, match="malformed"):
            parse_ticks(io.StringIO(body))

    def test_bad_header_rejected(self):
        with pytest.raises(FormatError, match="header"):
            parse_ticks(io.StringIO("time,pair,side,px\n"))

    def test_unknown_side_rejected(self):
        body = (
            "timestamp,instrument,side,price\n"
            + "\n".join(
                f"2006-10-16T00:{k // 60:02d}:{k % 60:02d}Z,EUR/USD,ask,1.1" for k in range(99)
            )
            + "\n2006-10-16T01:59:00Z,EUR/USD,mid,1.1\n"
        )
        parsed = parse_ticks(io.StringIO(body))
        assert parsed.malformed == 1

    def test_problem_names_the_file_line_after_a_quoted_line_break(self):
        rows = [f"2006-10-16T00:{k // 60:02d}:{k % 60:02d}Z,EUR/USD,ask,1.1\n" for k in range(201)]
        rows[0] = rows[0].replace("EUR/USD", '"EUR\nUSD"')
        body = "timestamp,instrument,side,price\n" + "".join(rows) + "2006-10-16T01:00:00Z,EUR/USD,mid,1.1\n"
        assert body.count("\n") == 204
        parsed = parse_ticks(io.StringIO(body))
        assert parsed.malformed == 1
        assert parsed.problems == ["line 204: unknown side 'mid'"]

    def test_gzip_by_extension(self, tmp_path):
        path = tmp_path / "ticks.csv.gz"
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("timestamp,instrument,side,price\n2006-10-16T00:00:01Z,USD/JPY,bid,116.2\n")
        parsed = read_ticks(path)
        assert parsed.instruments[parsed.instrument[0]] == "USD/JPY"

    @pytest.mark.parametrize("suffix", [".csv", ".csv.gz"])
    def test_a_byte_that_is_not_utf8_is_named_by_its_file_offset(self, tmp_path, suffix):
        """Far past the decoder's first chunk; in a `.gz` file, the offset
        in the decompressed text."""
        data = bytearray(f"{HEADER}\n{PLAIN_ROW}\n".encode() + f"{PLAIN_ROW}\n".encode() * 5_999)
        at = len(HEADER) + 1 + 4_000 * (len(PLAIN_ROW) + 1) + 26  # a letter of the instrument
        data[at] = 0xFF
        path = tmp_path / f"ticks{suffix}"
        path.write_bytes(gzip.compress(data) if suffix == ".csv.gz" else data)
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: byte {at}: not UTF-8 text$"):
            read_ticks(path)

    def test_timestamp_offsets_normalize_to_utc(self):
        body = (
            "timestamp,instrument,side,price\n"
            "2006-10-16T09:00:00+09:00,USD/JPY,ask,116.2\n"
            "2006-10-16T00:00:00Z,EUR/USD,ask,1.26\n"
        )
        parsed = parse_ticks(io.StringIO(body))
        assert parsed.timestamp_ms[0] == parsed.timestamp_ms[1]


HEADER = "timestamp,instrument,side,price"
PLAIN_ROW = "2006-10-16T00:03:00.250Z,EUR/USD,ask,1.2612"
ROWS = (PLAIN_ROW + "\n") * 20
# `csv` reads a NUL as any other character from Python 3.11 on; before
# that the row parser refuses the line, so NULs are only generated there.
NULS = sys.version_info >= (3, 11)

# Stamp text: mostly the plain shape, with days, hours and years out of
# range, every separator and zone the grammar takes and some it does not.
stamp_text = st.builds(
    "{}{:04d}-{:02d}-{:02d}{}{:02d}:{:02d}:{:02d}{}{}{}".format,
    st.sampled_from(["", "", "", " ", "\t", "\u3000"]),
    st.sampled_from([2006, 2024, 2024, 2024, 1970, 1969, 0, 1, 1500, 1900, 2000, 2100, 2300, 9999]),
    st.sampled_from([1, 2, 2, 10, 12, 0, 13]),
    st.sampled_from([1, 16, 28, 29, 30, 31, 0, 32]),
    st.sampled_from(["T", "T", "T", "t", " ", "X"]),
    st.sampled_from([0, 9, 23, 24]),
    st.sampled_from([0, 3, 59, 60]),
    st.sampled_from([0, 1, 59, 60]),
    st.sampled_from(["", "", ".5", ".25", ".0005", ".123456", ".000500", ".1234567", ".", "Z.5"]),
    st.sampled_from(["Z", "Z", "Z", "", "z", "+09:00", "-00:30", "+24:00", "+0100", "ZZ"]),
    st.sampled_from(["", "", "", " ", "\x1c", *["\0", "\0 "] * NULS]),
)
instrument_text = st.sampled_from(
    ["EUR/USD", "EUR/USD", "USD/JPY", " GBP/USD ", "", "  ", "é/ü", '"EUR\nUSD"', '"EUR\r\nUSD"',
     '"A,B"', '"Q""T"', 'EU"R', '"EUR/USD"', *["EUR/USD\0", "EUR\0/USD", "\0", "\0\0 "] * NULS]
)
side_text = st.sampled_from(
    ["ask", "ask", "bid", "bid", "ASK", " Bid ", "mid", "", "AS\u212a", '"ask"', *["ask\0", "\0bid"] * NULS]
)
# Prices: the digits-only shape (15 digits at most) and what falls outside
# it.  The 16 digits of 9.244696291370285 as an integer over 10**15 round
# twice, to a float next to `float`'s.
price_text = st.sampled_from(
    ["1.2612", "116.2", "1.5", " 1.5 ", "-1", "0", "n/a", "inf", "nan", "1_000", "1e-3", "", '"1.25"',
     "\uff11\uff12", "0x10", "123456789012.345", "9.244696291370285", "007.50", "1.", ".5", "1..5",
     *["1.5\0", "1\0.5", "\0"] * NULS]
)
row_text = st.one_of(
    st.builds(lambda *f: ",".join(f), stamp_text, instrument_text, side_text, price_text),
    st.builds(lambda *f: ",".join(f), stamp_text, instrument_text, price_text),  # a field short
    st.builds(lambda *f: ",".join(f), stamp_text, instrument_text, side_text, price_text, price_text),
    st.builds(lambda t: f"{t[:9]}x{t[10:]},EUR/USD,ask,1.1", stamp_text),
    st.sampled_from(["", "   ", PLAIN_ROW]),
)
line_end = st.sampled_from(["\n", "\n", "\r\n", "\r"])


def parse_outcome(parse, text):
    """The ParsedTicks of `parse` on `text` as a file opened with
    newline="" reads it, or the type and text of what it raised."""
    try:
        return parse(io.StringIO(text, newline=""))
    except Exception as exc:
        return type(exc), str(exc)


def outline(outcome):
    """A parse outcome as plain values, so that a mismatch is cheap to report."""
    if not isinstance(outcome, ParsedTicks):
        return outcome
    columns = (outcome.timestamp_ms, outcome.instrument, outcome.is_ask, outcome.price)
    return (
        outcome.instruments, outcome.malformed, outcome.problems,
        *((column.dtype.str, column.tolist()) for column in columns),
    )


def assert_same_parse(got, want):
    assert outline(got) == outline(want)


class TestColumnarParse:
    """`parse_ticks` reads blocks of lines column by column; the row parser
    it replaced is the oracle."""

    @given(
        rows=st.lists(st.tuples(row_text, line_end), max_size=30),
        bulk=st.sampled_from([0, 0, 0, 2100]),
        at=st.integers(0, 30),
        last_end=st.booleans(),
        block=st.sampled_from([8, 64, 300, 1 << 18]),
        run=st.sampled_from([1, 100, 1000, 1 << 20]),
    )
    @settings(max_examples=300, deadline=None)
    # 2100 is no leap year and lies within 2**53 microseconds of 1970.
    @example(rows=[("2100-02-29T00:00:00Z,EUR/USD,ask,1.5", "\n")], bulk=2100, at=0, last_end=True,
             block=1 << 18, run=1 << 20)
    # Prices on each side of the digits-only shape, among rows that do not abort the parse.
    @example(rows=[(f"2006-10-16T00:03:00Z,EUR/USD,ask,{p}", "\n") for p in
                   ["9.244696291370285", "123456789012.345", "007.50", "1.", ".5", "1..5"]],
             bulk=2100, at=0, last_end=True, block=1 << 18, run=1 << 20)
    def test_matches_the_row_parser(self, rows, bulk, at, last_end, block, run):
        if bulk:  # keep the number of blocks and runs, and the test's time, small
            block, run = max(block, 4096), max(run, 4096)
        body = [row + end for row, end in rows]
        # 2100 good rows let up to 21 malformed ones through the 1% abort.
        body.insert(min(at, len(body)), (PLAIN_ROW + "\n") * bulk)
        text = HEADER + "\r\n" + "".join(body)
        if not last_end:
            text = text.rstrip("\r\n")
        with mock.patch.object(ingest, "_BLOCK_CHARS", block), mock.patch.object(ingest, "_RUN_CHARS", run):
            got = parse_outcome(parse_ticks, text)
        assert_same_parse(got, parse_outcome(row_parse_ticks, text))

    @pytest.mark.parametrize("quote", ["", '"'])
    def test_a_nul_is_read_as_any_other_character(self, quote):
        """numpy's str cells drop trailing NULs; the parse must not: a
        name ending in NUL is a name of its own, and a NUL in any other
        field makes the row malformed, on every Python."""
        text = HEADER + "\n" + (PLAIN_ROW + "\n") * 500 + (
            f"{quote}2006-10-16T00:03:00Z{quote},EUR/USD\0,ask,1.5\n"
            "2006-10-16T00:03:00Z,EUR/USD,ask,1.5\0\n"
            "2006-10-16T00:03:00Z,EUR/USD,ask\0,1.5\n"
            "2006-10-16T00:03:00Z\0,EUR/USD,ask,1.5\n"
            "2006-10-16T00:03:00Z,\0,bid,1\0.5\n"
        )
        parsed = parse_ticks(io.StringIO(text, newline=""))
        assert parsed.instruments == ("EUR/USD", "EUR/USD\0")
        assert parsed.instrument.tolist() == [0] * 500 + [1]
        assert parsed.problems == [
            "line 503: bad price '1.5\\x00'",
            "line 504: unknown side 'ask\\x00'",
            "line 505: bad timestamp '2006-10-16T00:03:00Z\\x00'",
            "line 506: bad price '1\\x00.5'",
        ]

    def test_a_nul_in_a_line_read_past_the_block(self):
        text = HEADER + '\n2006-10-16T00:03:00Z,"EUR\n/USD\0",ask,1.5\n'
        with mock.patch.object(ingest, "_BLOCK_CHARS", 8):
            parsed = parse_ticks(io.StringIO(text, newline=""))
        assert parsed.instruments == ("EUR\n/USD\0",)

    @pytest.mark.parametrize("block", [8, 1 << 18])
    def test_the_nul_stand_in_is_refused(self, block):
        """A lone surrogate stands for NUL inside the parse; no UTF-8 file
        holds one, and a stream that does is refused, also in a line csv
        reads on from the stream past the block (block size 8)."""
        text = HEADER + '\n2006-10-16T00:03:00Z,"EUR\n/USD\udfff",ask,1.5\n'
        with mock.patch.object(ingest, "_BLOCK_CHARS", block), pytest.raises(FormatError, match="reserves for NUL"):
            parse_ticks(io.StringIO(text, newline=""))

    @pytest.mark.parametrize("block", [8, 300, 1 << 18])
    @pytest.mark.parametrize(
        "text, line",
        [
            (HEADER + "\n" + ROWS + '\n2006-10-16T00:03:00Z,"EUR\n/USD,ask,1.5\n' + ROWS, 23),
            ('"' + HEADER + "\n" + ROWS, 1),
        ],
        ids=["body", "header"],
    )
    def test_a_csv_error_names_the_line_its_record_starts_on(self, block, text, line):
        """An unclosed quote runs to the end of the file; the error names
        the line the quote opens on (after 20 rows and a blank line, or in
        the header), not the one `csv` stopped on."""
        with mock.patch.object(ingest, "_BLOCK_CHARS", block):
            got = parse_outcome(parse_ticks, text)
        assert got == (FormatError, f"line {line}: unexpected end of data")
        assert parse_outcome(row_parse_ticks, text) == got

    def test_an_empty_price_leaves_the_other_prices_in_one_conversion(self):
        """Plain prices convert from their digits, with no `float` call; an
        empty price is one failed call and one problem."""
        rows = [PLAIN_ROW] * 1000
        rows[500] = "2006-10-16T00:03:00Z,EUR/USD,ask,"
        calls = []

        def counted(text):
            calls.append(text)
            return float(text)

        with mock.patch.object(ingest, "float", counted, create=True):
            parsed = parse_ticks(io.StringIO(HEADER + "\n" + "\n".join(rows) + "\n"))
        assert parsed.problems == ["line 502: bad price ''"]
        assert parsed.price.tolist() == [1.2612] * 999
        assert calls == [""]

    @pytest.mark.parametrize("cpus", [1, 2, 64])
    def test_the_parse_does_not_depend_on_the_cpus(self, cpus):
        """Blocks are checked on one thread per CPU, at most
        `_MAX_CHECK_THREADS`, so on one CPU by a pool of one thread; the
        results are taken in block order, so problems, codes and columns are
        the row parser's."""
        rows = [PLAIN_ROW.replace("EUR/USD", f"FX{k % 7}") for k in range(3000)]
        for k in range(25):
            rows[k * 113 + 7] = ("2006-10-16T00:03:00Z,EUR/USD,mid,1.1", "x,EUR/USD,ask,1", "a,b,c")[k % 3]
        rows[1500] = '"2006-10-16T00:03:00Z","A,B",ask,"1.5"'
        text = HEADER + "\n" + "\n".join(rows) + "\n"
        pools = []
        real = concurrent.futures.ThreadPoolExecutor

        def counted(workers):
            pools.append(workers)
            return real(workers)

        before = threading.active_count()
        with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus))), \
                mock.patch.object(concurrent.futures, "ThreadPoolExecutor", counted), \
                mock.patch.object(ingest, "_BLOCK_CHARS", 4096):
            got = parse_outcome(parse_ticks, text)
        want = parse_outcome(row_parse_ticks, text)
        assert want.malformed == 25 and len(want.problems) == 20
        assert_same_parse(got, want)
        assert pools == [min(cpus, ingest._MAX_CHECK_THREADS)]
        assert threading.active_count() == before

    @pytest.mark.parametrize("block", [256, 1 << 18])
    def test_more_than_twenty_malformed_rows(self, block):
        rows = [PLAIN_ROW] * 2500
        for k in range(25):
            rows[k * 97 + 3] = ("2006-10-16T00:03:00Z,EUR/USD,mid,1.1", "x,EUR/USD,ask,1", "a,b,c")[k % 3]
        text = HEADER + "\n" + "\r\n".join(rows) + "\n"
        with mock.patch.object(ingest, "_BLOCK_CHARS", block):
            got = parse_outcome(parse_ticks, text)
        want = parse_outcome(row_parse_ticks, text)
        assert want.malformed == 25 and len(want.problems) == 20
        assert_same_parse(got, want)

    def test_out_of_range_stamps_in_a_long_file_are_counted_rows(self, tmp_path):
        """numpy 2.4 can crash the interpreter casting a bytes array of
        5,000 or more stamps that holds a bad one to datetime64.  The parse
        no longer casts; a parse of such a file, run in its own interpreter,
        must still count both bad stamps as the row parser does."""
        rows = [
            f"2024-02-01T{k // 3600:02d}:{k // 60 % 60:02d}:{k % 60:02d}.000Z,EUR/USD,ask,1.1"
            for k in range(9000)
        ]
        rows[4321] = "2024-02-30T00:00:00.000Z,EUR/USD,ask,1.1"
        rows[7000] = "2024-02-01X00:00:00.000Z,EUR/USD,bid,1.1"
        path = tmp_path / "ticks.csv"
        path.write_text(HEADER + "\n" + "\n".join(rows) + "\n")
        script = (
            "import sys; from specdist.ingest import read_ticks; p = read_ticks(sys.argv[1]); "
            "print(p.malformed, p.timestamp_ms.size); print(*p.problems, sep='\\n')"
        )
        run = subprocess.run(
            [sys.executable, "-c", script, str(path)], capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(Path(ingest.__file__).parents[1])},
        )
        assert run.returncode == 0, run.stderr
        with open(path, encoding="utf-8", newline="") as fh:
            want = row_parse_ticks(fh)
        assert want.problems == [
            "line 4323: bad timestamp '2024-02-30T00:00:00.000Z'",
            "line 7002: bad timestamp '2024-02-01X00:00:00.000Z'",
        ]
        assert run.stdout.splitlines() == [f"{want.malformed} {want.timestamp_ms.size}", *want.problems]

    @pytest.mark.parametrize(
        "wide, fields, cpus",
        [("", 4, None), ("W" * 120_000, 4, None), ('"' + "W" * 120_000 + '"', 4, None), ("W" * 120_000, 3, None),
         ("W" * 120_000, 4, 64)],
        ids=["", "wide", "quoted-wide", "wide-three-fields", "wide-64-cpus"],
    )
    def test_memory_does_not_grow_with_the_file(self, wide, fields, cpus):
        """Bound, fixed before measuring: parsing 200,000 rows (8.4 MB of
        text) allocates at most 40 MB at its peak beyond the file's bytes,
        also when one row's instrument is 120,000 characters long, in a row
        of four fields or in a malformed one of three, and with as many
        checking threads as 64 CPUs allow (the CPUs of the machine unless
        `cpus` is given).  The
        columns it returns take 5 MB.  A parse of the whole body at once
        holds the 34 MB of the text as UCS-4 and several index and cell
        arrays per row: 150 MB.  Cells padded to the long instrument for a
        whole block of about 6,000 rows would take 2.9 GB."""
        rows = [
            f"2006-10-16T{k // 3600 % 24:02d}:{k // 60 % 60:02d}:{k % 60:02d}.{k % 1000:03d}Z,"
            f"FX{k % 12:02d},{'ask' if k % 2 else 'bid'},{1 + k % 997 / 1000:.5f}\n"
            for k in range(200_000)
        ]
        if wide:
            side = ",bid" if fields == 4 else ""
            rows[100_000] = f"2006-10-16T00:03:00Z,{wide}{side},1.5\n"
        # Read as a file is: a StringIO would hold the whole text as UCS-4.
        stream = io.TextIOWrapper(io.BytesIO((HEADER + "\n" + "".join(rows)).encode()), encoding="utf-8", newline="")
        del rows
        affinity = os.sched_getaffinity(0) if cpus is None else set(range(cpus))
        tracemalloc.start()
        try:
            with mock.patch.object(os, "sched_getaffinity", lambda pid: affinity):
                parsed = parse_ticks(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        malformed = int(fields == 3)
        assert parsed.timestamp_ms.size == 200_000 - malformed and parsed.malformed == malformed
        if malformed:
            assert parsed.problems == ["line 100002: expected 4 fields, got 3"]
        elif wide:
            assert parsed.instruments[parsed.instrument[100_000]] == wide.strip('"')
        assert peak < 40e6, f"peak {peak / 1e6:.1f} MB"

    def test_a_failed_loop_body_leaves_no_thread(self):
        """The third checked block cannot be unpacked by the loop that
        gathers the blocks, while the check threads hold later ones: the
        error is the caller's and the threads are joined."""
        text = HEADER + "\n" + "\n".join([PLAIN_ROW] * 3000) + "\n"
        real = ingest._check_block
        blocks = []

        def third_is_garbage(records):
            blocks.append(records)
            return [None] if len(blocks) == 3 else real(records)

        before = threading.active_count()
        with mock.patch.object(os, "sched_getaffinity", lambda pid: {0, 1}), \
                mock.patch.object(ingest, "_check_block", third_is_garbage), \
                mock.patch.object(ingest, "_BLOCK_CHARS", 4096), pytest.raises(TypeError):
            parse_ticks(io.StringIO(text))
        assert threading.active_count() == before
        # Of the file's 32 blocks, at most the two checked past the third ran.
        assert 3 <= len(blocks) <= 5


class CountingPool:
    """A pool that runs each call when it is submitted, counting the calls
    submitted but not yet taken by the consumer, which reports each it takes."""

    def __init__(self):
        self.submitted, self.taken, self.most, self.shutdowns = 0, 0, 0, []

    def submit(self, fn, *args):
        self.submitted += 1
        self.most = max(self.most, self.submitted - self.taken)
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future

    def shutdown(self, **kwargs):
        self.shutdowns.append(kwargs)


class TestReadAhead:
    """`ingest._read_ahead`, the one bounded, ordered read-ahead of the tick
    checks, the simulator's draws and the sweep's groups."""

    def test_results_come_in_input_order_when_later_calls_finish_first(self):
        last_done = threading.Event()
        finished = []

        def call(k):
            if k < 3:
                assert last_done.wait(10)
            finished.append(k)
            if k == 3:
                last_done.set()
            return k * 10

        before = threading.active_count()
        got = list(ingest._read_ahead(concurrent.futures.ThreadPoolExecutor(4), call, zip(range(4)), 3))
        assert got == [0, 10, 20, 30]
        assert finished[0] == 3
        assert threading.active_count() == before

    @pytest.mark.parametrize("depth", [1, 2, 5])
    @pytest.mark.parametrize("calls", [0, 1, 3, 12])
    def test_at_most_depth_plus_one_calls_are_held(self, depth, calls):
        pool = CountingPool()
        args = ((k, 2) for k in range(calls))
        for k, result in enumerate(ingest._read_ahead(pool, lambda a, b: a * b, args, depth)):
            assert result == 2 * k
            pool.taken += 1
        assert pool.taken == pool.submitted == calls
        assert pool.most == min(calls, depth + 1)
        assert pool.shutdowns == [{"cancel_futures": True}]

    def test_a_failed_call_raises_at_its_place_and_the_calls_not_started_are_cancelled(self):
        failure = RuntimeError("call 1")
        started, futures, read = [], [], []
        real = concurrent.futures.ThreadPoolExecutor(1)

        class Recorded:
            def submit(self, fn, *args):
                futures.append(real.submit(fn, *args))
                return futures[-1]

            def shutdown(self, **kwargs):
                real.shutdown(**kwargs)

        def call(k):
            started.append(k)
            if k == 1:
                raise failure
            if k == 2:
                time.sleep(0.2)  # still running when the failure is taken
            return k

        def args():
            for k in range(10):
                read.append(k)
                yield (k,)

        before = threading.active_count()
        taken = []
        with pytest.raises(RuntimeError) as caught:
            for result in ingest._read_ahead(Recorded(), call, args(), 4):
                taken.append(result)
        assert caught.value is failure and taken == [0]
        # Waiting on call 1, calls 2 to 5 were submitted past it; 3 to 5 never ran.
        assert read == list(range(6)) and len(futures) == 6
        assert started in ([0, 1], [0, 1, 2])
        assert all(future.cancelled() for future in futures[3:])
        assert threading.active_count() == before


class TestRfc3339:
    @pytest.mark.parametrize(
        "text, seconds",
        [
            ("2006-10-16T00:03:00Z", T_0003),
            ("2006-10-16T00:03:00z", T_0003),
            ("2006-10-16t00:03:00Z", T_0003),
            ("2006-10-16 00:03:00Z", T_0003),
            ("2006-10-16T00:03:00", T_0003),  # no zone: UTC
            ("2006-10-16T09:03:00+09:00", T_0003),
            ("2006-10-15T23:03:00-01:00", T_0003),
            ("2006-10-16T00:03:00-00:00", T_0003),
            (" 2006-10-16T00:03:00Z ", T_0003),
            ("2006-10-16T00:03:00.5Z", T_0003 + 0.5),
            ("2006-10-16T00:03:00.25z", T_0003 + 0.25),
            ("2006-10-16T00:03:00.125", T_0003 + 0.125),
            ("2006-10-16T00:03:00.0625Z", T_0003 + 0.0625),
            ("2006-10-16T01:03:00.03125+01:00", T_0003 + 0.03125),
            ("2006-10-16T00:03:00.015625Z", T_0003 + 0.015625),
        ],
    )
    def test_grammar_accepts(self, text, seconds):
        assert parse_rfc3339(text) == seconds

    @pytest.mark.parametrize(
        "text",
        GRAMMAR_REJECTS + ["2006-13-16T00:03:00Z", "2006-02-30T00:03:00Z", "2006-10-16T24:00:00Z", ""],
    )
    def test_grammar_rejects(self, text):
        with pytest.raises(ValueError):
            parse_rfc3339(text)

    @pytest.mark.parametrize("text", GRAMMAR_REJECTS)
    def test_rejected_time_is_a_counted_malformed_row(self, text):
        body = "timestamp,instrument,side,price\n" + "".join(
            f"2006-10-16T00:{k // 60:02d}:{k % 60:02d}Z,EUR/USD,ask,1.1\n" for k in range(100)
        )
        parsed = parse_ticks(io.StringIO(body + f'"{text}",EUR/USD,ask,1.1\n'))
        assert parsed.malformed == 1 and parsed.timestamp_ms.size == 100
        assert parsed.problems == [f"line 102: bad timestamp {text!r}"]

    @given(st.lists(grammar_text, min_size=1, max_size=12))
    @settings(max_examples=400, deadline=None)
    @example(["1685-01-01T00:00:00.000001Z", "2255-06-05T23:47:34.740993Z", "9999-12-31T23:59:59.999999-23:59",
              "0001-01-01T00:00:00+23:59", "2024-02-29T12:00:00.5+05:30", "2023-02-29T12:00:00Z",
              "2006-10-16T00:03:00+24:00", "2006-10-16T00:03:00-00:60"])
    def test_matches_the_oracle_parser(self, texts):
        """The vectorized parser gives the regex-and-`fromisoformat`
        oracle's seconds bit for bit, or both refuse the text."""
        seconds, parsed = ingest._epoch_seconds(ingest._stamp_array(texts))
        for text, got, ok in zip(texts, seconds.tolist(), parsed.tolist()):
            try:
                want = oracle_rfc3339(text)
            except ValueError:
                assert not ok, text
            else:
                assert ok and got.hex() == want.hex(), text

    def test_round_trip_whole_seconds(self):
        text = "2006-10-16T00:03:00Z"
        assert format_rfc3339(parse_rfc3339(text)) == text

    def test_fractional_seconds_preserved(self):
        parsed = parse_rfc3339("2006-10-16T00:03:00.25Z")
        assert parsed == 1_160_956_980.25
        assert format_rfc3339(parsed) == "2006-10-16T00:03:00.250000Z"


# The grid covers the ticks of both sides, so an opposite-side tick can
# stretch it without touching the panel under test.


class TestQuotationFrequency:
    def test_counts_per_bucket(self):
        ticks = [tick(0, second=5), tick(0, second=30), tick(0, second=55), tick(1, side="bid")]
        assert row(activity_of(ticks)) == [3.0, 0.0]

    def test_boundary_tick_goes_to_next_bucket(self):
        ticks = [tick(0, side="bid"), tick(1, second=0), tick(2, side="bid", second=30)]
        assert row(activity_of(ticks)) == [0.0, 1.0, 0.0]

    def test_one_tick_per_minute_over_a_day(self):
        ticks = [tick(minute, second=30) for minute in range(1440)]
        panel = activity_of(ticks)
        assert panel.length == 1440
        assert np.all(panel.values == 1.0)

    def test_rate_is_per_time_unit(self):
        ticks = [tick(0), tick(0, second=90), tick(2, side="bid")]
        assert row(activity_of(ticks, dt=2.0)) == [1.0, 0.0]

    def test_side_filter(self):
        ticks = [tick(0, side="ask"), tick(0, side="bid"), tick(0, side="bid"), tick(1, side="bid")]
        assert row(activity_of(ticks, "ask")) == [1.0, 0.0]
        assert row(activity_of(ticks, "bid")) == [2.0, 1.0]

    @given(seed=st.integers(0, 2**16))
    @example(seed=14)  # fewer than two complete buckets: no rate panel
    @settings(max_examples=25, deadline=None)
    def test_count_conservation_and_order_invariance(self, seed):
        rng = np.random.default_rng(seed)
        names = ["A/B", "C/D", "E/F"]
        ticks = [tick(0, "A/B"), tick(9, "A/B", second=59)] + [
            (
                int(rng.integers(0, 10 * MINUTE_MS)),
                names[rng.integers(0, 3)],
                "ask" if rng.random() < 0.5 else "bid",
                float(rng.uniform(0.5, 2.0)),
            )
            for _ in range(rng.integers(1, 120))
        ]
        activity, rates = resample(columns(ticks), 1.0, "ask")
        for name in activity.labels:
            expected = sum(1 for t in ticks if t[1] == name and t[2] == "ask")
            assert float(activity.values[activity.channel_index(name)].sum()) * activity.dt == pytest.approx(expected)
        shuffled = list(ticks)
        rng.shuffle(shuffled)
        for before, after in zip((activity, rates), resample(columns(shuffled), 1.0, "ask")):
            if before is None:
                assert after is None
                continue
            assert after.labels == before.labels and after.t0 == before.t0
            assert np.array_equal(after.values, before.values)


class TestBestRates:
    def test_bucket_minimum_for_asks(self):
        ticks = [
            tick(0, price=1.2613, second=1),
            tick(0, price=1.2611, second=2),
            tick(0, price=1.2615, second=3),
            tick(1, price=1.27),
        ]
        assert row(rates_of(ticks)) == [1.2611, 1.27]

    def test_empty_bucket_forward_fills(self):
        ticks = [tick(0, price=1.2611), tick(2, side="bid")]
        assert row(rates_of(ticks)) == [1.2611, 1.2611, 1.2611]

    def test_bucket_maximum_for_bids(self):
        ticks = [
            tick(0, side="bid", price=116.21, second=1),
            tick(0, side="bid", price=116.25, second=2),
            tick(1, side="ask", price=116.3),
        ]
        assert row(rates_of(ticks, "bid")) == [116.25, 116.25]

    def test_leading_gap_stays_missing(self):
        # No rate is made up before the first quote: the panel starts there.
        ticks = [tick(0, side="bid"), tick(2, price=1.5), tick(3, side="bid")]
        panel = rates_of(ticks)
        assert row(panel) == [1.5, 1.5]
        assert panel.t0 == 2 * 60.0

    def test_values_are_extrema_or_exact_copies(self):
        rng = np.random.default_rng(4)
        ticks = [
            tick(int(rng.integers(0, 12)), price=float(rng.uniform(1, 2)), second=int(rng.integers(0, 60)))
            for _ in range(40)
        ]
        panel = rates_of(ticks)
        per_bucket = {}
        for t in ticks:
            per_bucket.setdefault(t[0] // MINUTE_MS, []).append(t[3])
        first = min(per_bucket)
        assert panel.t0 == first * 60.0
        previous = math.nan
        for k, value in enumerate(row(panel), start=first):
            if k in per_bucket:
                assert value == min(per_bucket[k])
            else:
                assert value == previous
            previous = value

    def test_fewer_than_two_complete_buckets_give_no_rate_panel(self):
        ticks = [tick(0, "A/B"), tick(1, "A/B"), tick(1, "X/Y")]
        activity, rates = resample(columns(ticks), 1.0, "ask")
        assert activity.length == 2 and activity.labels == ("A/B", "X/Y")
        assert rates is None


class TestBuildPanel:
    def test_raw_rates_pass_through(self):
        ticks = [tick(k, "X/Y", price=1.0) for k in range(3)] + [tick(k, "A/B", price=2.0) for k in range(3)]
        panel = rates_of(ticks)
        assert panel.labels == ("A/B", "X/Y")
        assert panel.values[1].tolist() == [1.0, 1.0, 1.0]
        assert transform_panel(panel, "raw") is panel

    def test_log_return_analytic(self):
        e = math.e
        ticks = [tick(k, "X/Y", price=p) for k, p in enumerate([1.0, e, e])]
        ticks += [tick(k, "A/B", price=1.0) for k in range(3)]
        panel = transform_panel(rates_of(ticks), "log-return")
        assert panel.length == 2
        assert panel.t0 == 0.0
        assert row(panel, "X/Y") == pytest.approx([1.0, 0.0], abs=1e-15)

    def test_leading_gap_trims_to_common_coverage(self):
        ticks = [
            tick(0, "A/B", side="bid"),
            tick(2, "X/Y", price=2.0),
            tick(3, "X/Y", price=2.5),
            tick(1, "A/B", price=1.0),
            tick(3, "A/B", price=1.1),
        ]
        panel = rates_of(ticks)
        assert panel.length == 2
        assert panel.t0 == 2 * 60.0
        assert row(panel, "X/Y") == [2.0, 2.5] and row(panel, "A/B") == [1.0, 1.1]

    def test_activity_panel_identity(self):
        ticks = [tick(k, name, price=1.0 + k) for k in range(2) for name in ("X/Y", "A/B")]
        panel = activity_of(ticks)
        assert panel.labels == ("A/B", "X/Y")
        assert np.all(panel.values == 1.0)
        assert panel.length == 2
        assert panel.t0 == 0.0

    def test_log_return_rejects_nonpositive(self):
        ticks = [tick(k, "X/Y", price=p) for k, p in enumerate([1.0, 0.0, 2.0])]
        ticks += [tick(k, "A/B", price=1.0) for k in range(3)]
        with pytest.raises(TransformError):
            transform_panel(rates_of(ticks), "log-return")

    @pytest.mark.parametrize("name", ["bogus", "Raw", "log_return", ""])
    def test_unknown_transform_is_config_error(self, name):
        panel = rates_of([tick(k, n, price=1.0) for k in range(3) for n in ("A/B", "X/Y")])
        with pytest.raises(ConfigurationError, match="transform must be one of"):
            transform_panel(panel, name)


class TestResample:
    def test_unknown_side_rejected(self):
        with pytest.raises(ConfigurationError, match="side"):
            resample(columns([tick(0), tick(1)]), 1.0, "mid")

    def test_no_ticks(self):
        with pytest.raises(AnalysisError, match="no valid ticks to resample"):
            resample(columns([]), 1.0, "ask")

    @pytest.mark.parametrize("dt", [1e-7, 0.99 / 60_000])
    def test_bucket_below_a_millisecond_is_config_error(self, dt):
        ticks = [(0, "EUR/USD", "ask", 1.0), (3, "EUR/USD", "ask", 1.0)]  # 3 ms apart
        with pytest.raises(ConfigurationError, match=re.escape(f"dt must be a finite number of minutes of at least 1 ms, got {dt!r}")):
            resample(columns(ticks), dt, "ask")
        assert resample(columns(ticks), 1 / 60_000, "ask")[0].length == 4

    def test_bucket_past_year_9999_is_config_error(self):
        """A tick stamped with an offset can lie past 9999-12-31: its bucket
        has no stamp a panel file can hold, so the grid is refused before a
        file is written, as a simulated one is."""
        end = 253_402_300_800_000  # 10000-01-01T00:00:00Z in epoch ms
        ticks = [(end - 120_000, "EUR/USD", "ask", 1.0), (end - 60_000, "EUR/USD", "ask", 1.0)]
        assert resample(columns(ticks), 1.0, "ask")[0].length == 2
        with pytest.raises(ConfigurationError, match=re.escape(
                "dt 1.0 puts sample 1 after t0 253402300740.0 s past 9999-12-31T23:59:59.999999Z")):
            resample(columns(ticks[1:] + [(end, "EUR/USD", "ask", 1.0)]), 1.0, "ask")

    def test_grid_over_the_cell_budget_is_config_error(self, monkeypatch):
        """Two days of ticks at a 6 ms bucket need 28.8 M cells per instrument.
        The grid is refused before it is built; without the check the patched
        allocators fail the test instead of exhausting memory."""
        day = 86_400_000
        ticks = [(0, "EUR/USD", "ask", 1.0), (2 * day, "EUR/USD", "ask", 1.0)]

        def allocated(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        with monkeypatch.context() as patch:
            patch.setattr(np, "bincount", allocated)
            patch.setattr(np, "full", allocated)
            with pytest.raises(ConfigurationError, match=r"1 channel\(s\) x 28800001 samples .* more than the 16777216"):
                resample(columns(ticks), 1e-4, "ask")
        # The budget counts cells over every instrument, and a grid of exactly
        # MAX_CELLS cells is built: 8 one-minute buckets pass for one
        # instrument and not for two.
        monkeypatch.setattr(spectra, "MAX_CELLS", 8)
        one = [(0, "EUR/USD", "ask", 1.0), (7 * 60_000, "EUR/USD", "ask", 1.0)]
        assert resample(columns(one), 1.0, "ask")[0].length == 8
        with pytest.raises(ConfigurationError, match="16 cells"):
            resample(columns(one + [(60_000, "USD/JPY", "ask", 1.0)]), 1.0, "ask")

    @given(
        ticks=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(0, 40).map(lambda k: k * 15_000),  # bucket boundaries
                    st.integers(0, 600_000),
                ).map(lambda ms: 1_160_956_800_000 + ms),
                st.sampled_from(["A/B", "C/D", "E/F"]),
                st.sampled_from(["ask", "bid"]),
                st.one_of(st.sampled_from([1.0, 1.25, 1.5]), st.floats(0.5, 2.0)),
            ),
            min_size=1,
            max_size=60,
        ),
        dt=st.sampled_from([0.25, 1.0, 2.5]),
        side=st.sampled_from(["ask", "bid"]),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_oracle(self, ticks, dt, side, order):
        if all(t[2] != side for t in ticks):
            with pytest.raises(AnalysisError, match=f"no {side} quotes to resample"):
                resample(columns(ticks), dt, side)
            return
        labels, a_start, activity_rows, r_start, rate_rows = scalar_resample(ticks, dt, side)
        if len(activity_rows[0]) < 2:
            with pytest.raises(AnalysisError, match="every tick falls in one"):
                resample(columns(ticks), dt, side)
            return
        shuffled = list(ticks)
        order.shuffle(shuffled)
        for panel_input in (ticks, shuffled):
            activity, rates = resample(columns(panel_input), dt, side)
            assert activity.labels == tuple(labels) and activity.dt == dt
            assert activity.values.tolist() == activity_rows
            assert activity.t0 == a_start / 1000
            if not rate_rows[0]:  # fewer than two buckets where every channel has quoted
                assert rates is None
                continue
            assert rates.labels == tuple(labels) and rates.dt == dt
            assert rates.values.tolist() == rate_rows
            assert rates.t0 == r_start / 1000


class TestPanelCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        panel, _ = resample(read_ticks(DATA_DIR / "ticks_fixture.csv"), 1.0, "ask")
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path, meta={"side": "ask"})
        loaded = read_panel_csv(path)
        assert loaded.labels == panel.labels
        assert loaded.dt == panel.dt
        assert loaded.t0 == panel.t0
        assert np.array_equal(loaded.values, panel.values)

    def test_sub_millisecond_t0_survives_round_trip(self, tmp_path):
        panel = SignalPanel(np.arange(8.0).reshape(2, 4) + 1.0, ("a", "b"), 1.0, t0=1_700_000_000.0004)
        assert panel.t0 == 1_700_000_000.0
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        assert read_panel_csv(path).t0 == panel.t0
        assert SignalPanel(panel.values, panel.labels, 1.0, t0=-0.0126).t0 == -0.013

    def test_reader_rejects_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("when,x\n2006-10-16T00:00:00Z,1.0\n")
        with pytest.raises(FormatError):
            read_panel_csv(path)

    def test_reader_rejects_irregular_spacing(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(
            "time,x,y\n"
            "2006-10-16T00:00:00Z,1.0,1.0\n"
            "2006-10-16T00:01:00Z,1.0,1.0\n"
            "2006-10-16T00:03:00Z,1.0,1.0\n"
        )
        with pytest.raises(FormatError, match="spaced"):
            read_panel_csv(path)

    @pytest.mark.parametrize(
        "stamps",
        [
            ("00:02:00", "00:01:00", "00:00:00"),  # descending
            ("00:01:00", "00:01:00", "00:01:00"),  # repeated
        ],
    )
    def test_reader_rejects_non_increasing_times(self, tmp_path, stamps):
        path = tmp_path / "bad.csv"
        path.write_text("time,x,y\n" + "".join(f"2006-10-16T{s}Z,1.0,2.0\n" for s in stamps))
        with pytest.raises(FormatError, match="line 3: time .* does not strictly increase"):
            read_panel_csv(path)


    @given(
        m=st.integers(1, 5),
        length=st.integers(2, 50),
        dt=st.sampled_from([1.0, 1 / 3, 1 / 7, 2.5]),
        t0_ms=st.integers(0, 4_000_000_000_000),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_is_exact(self, tmp_path_factory, m, length, dt, t0_ms, data):
        cell = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
            [5e-324, -2.2250738585072014e-308, 1.7976931348623157e308, -0.0]
        )
        values = np.array(data.draw(st.lists(cell, min_size=m * length, max_size=m * length)))
        labels = data.draw(
            st.lists(st.text("abcXYZ/_.", min_size=1, max_size=6), min_size=m, max_size=m, unique=True)
        )
        t0 = t0_ms / 1000
        panel = SignalPanel(values.reshape(m, length), labels, dt, t0)
        path = tmp_path_factory.mktemp("panel") / "panel.csv"
        write_panel_csv(panel, path)
        loaded = read_panel_csv(path)
        assert loaded.labels == panel.labels
        assert loaded.dt == dt
        assert loaded.t0 == t0
        assert np.array_equal(loaded.values, panel.values)

    PANEL = (
        "# side=ask dt=1.0 transform=raw\n"
        "time,a,b\n"
        "2006-10-16T00:00:00Z,1.0,2.0\n"
        "# a comment between rows\n"
        "2006-10-16T00:01:00Z,1.5,2.5\n"
        "\n"
        "2006-10-16T00:02:00Z,1.25,2.25\n"
    )

    @pytest.mark.parametrize(
        "line, text, reason",
        [
            (5, "2006-10-16T00:01:00Z,1.5,abc", "could not convert string to float: 'abc'"),
            (5, "2006-10-16T00:01:00Z,1.5,nan", "panel values must be finite"),
            (5, "2006-10-16T00:0x:00Z,1.5,2.5", "bad RFC-3339 time"),
            (7, "2006-10-16T00:02:00Z,1.25", "expected 3 fields, got 2"),
            (2, "time,a,a", "a column name repeats"),
            (2, "when,a,b", "expected header `time,...`"),
            (7, "2006-10-16T00:01:00Z,1.25,2.25", "does not strictly increase"),
            (7, "2006-10-16T00:03:00Z,1.25,2.25", "rows are not uniformly spaced"),
            (1, "# side=ask dt=2.0", "dt=2.0 disagrees with the rows' spacing"),
            (1, "# dt=one", "dt=one disagrees"),
        ],
    )
    def test_unreadable_line_is_named(self, tmp_path, line, text, reason):
        lines = self.PANEL.splitlines()
        lines[line - 1] = text
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as info:
            read_panel_csv(path)
        assert str(info.value).startswith(f"{path}: line {line}: ")
        assert reason in str(info.value)

    def test_cell_over_the_csv_field_limit_names_its_line(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text(self.PANEL.replace("1.5,2.5", "1.5," + "7" * 200_000))
        with pytest.raises(FormatError, match=re.escape(f"{path}: line 5: field larger than field limit (131072)")):
            read_panel_csv(path)

    def test_one_row_is_not_a_panel(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_text("time,a,b\n2006-10-16T00:00:00Z,1.0,2.0\n")
        with pytest.raises(FormatError, match=re.escape(f"{path}: a panel needs at least two rows")):
            read_panel_csv(path)

    def test_failed_write_removes_only_regular_files(self, tmp_path):
        # A device or pipe named as an output (/dev/full, /dev/null) is
        # written to, never removed, when the command fails.
        regular, fifo = tmp_path / "r.csv", tmp_path / "fifo"
        regular.write_text("partial\n")
        os.mkfifo(fifo)
        with pytest.raises(RuntimeError, match="boom"), ingest._removed_on_failure() as written:
            written.extend([str(regular), str(fifo)])
            raise RuntimeError("boom")
        assert not regular.exists() and fifo.is_fifo()

    def test_reader_memory_has_no_object_per_cell(self, tmp_path):
        """Bound, fixed before measuring: reading a 50,000 x 12 panel (600,000
        cells) allocates at most 32 bytes per cell at its peak.  The values'
        typed array, with its growth slack, and the C-order copy the panel
        keeps take 8 bytes a cell each.  A Python list of floats per row, as
        the reader once kept, takes about 40 bytes a cell before its copy into
        an array."""
        values = np.random.default_rng(6).normal(size=(12, 50_000))
        path = tmp_path / "panel.csv"
        write_panel_csv(SignalPanel(values, tuple(f"c{j}" for j in range(12)), 1.0), path)
        tracemalloc.start()
        try:
            loaded = read_panel_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(loaded.values, values)
        assert peak < 32 * 600_000, f"peak {peak / 600_000:.1f} bytes per cell"

    @pytest.mark.parametrize("batch", [1, 2, 3, 4096])
    @pytest.mark.parametrize(
        "faults, line, reason",
        [
            ({6: "2006-10-16T00:0x:00Z,1,2"}, 6, "bad RFC-3339 time: '2006-10-16T00:0x:00Z'"),
            ({5: "2006-10-16T00:01:00Z,1,2"}, 5, "time 2006-10-16T00:01:00Z does not strictly increase"),
            ({6: "2006-10-16T00:02:00Z,1,2"}, 6, "time 2006-10-16T00:02:00Z does not strictly increase"),
            ({9: " 2006-10-16T00:00:00Z ,1,2"}, 9, "time 2006-10-16T00:00:00Z does not strictly increase"),
            ({5: "2006-10-16T00:0x:00Z,1,2", 7: "2006-10-16T00:04:00Z,1"}, 5, "bad RFC-3339 time"),
            ({5: "2006-10-16T00:0x:00Z,1,abc"}, 5, "bad RFC-3339 time: '2006-10-16T00:0x:00Z'"),
            ({5: "2006-10-16T00:00:00Z,1,abc"}, 5, "time 2006-10-16T00:00:00Z does not strictly increase"),
            ({6: "2006-10-16T00:03:00Z,1,abc", 8: "2006-10-16T00:00:00Z,1,2"}, 6, "could not convert"),
            ({4: "2006-10-16T00:00:00Z,1,2", 7: "2006-10-16T00:04:00Z,1,abc"}, 4, "does not strictly increase"),
            ({4: "2006-10-16T00:0x:00Z,1,2", 8: '2006-10-16T00:05:00Z,1,"2'}, 4, "bad RFC-3339 time"),
        ],
    )
    def test_the_first_fault_is_named_across_time_batches(self, tmp_path, faults, line, reason, batch):
        """Times are converted a batch of rows at a time; whatever the batch,
        the error names the first faulty line, and a row's time, its increase
        included, is checked before its values."""
        lines = ["# dt=1.0", "time,a,b", *(f"2006-10-16T00:{k:02d}:00Z,1,2" for k in range(7))]
        for at, text in faults.items():
            lines[at - 1] = text
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(lines) + "\n")
        with mock.patch.object(ingest, "_TABLE_BATCH", batch), pytest.raises(FormatError) as info:
            read_panel_csv(path)
        assert str(info.value).startswith(f"{path}: line {line}: ")
        assert reason in str(info.value)

    @pytest.mark.parametrize("batch", [7, 4096])
    def test_a_bad_time_comes_before_a_later_undecodable_block(self, tmp_path, batch):
        rows = [f"2006-10-{1 + k // 1440:02d}T{k // 60 % 24:02d}:{k % 60:02d}:00Z,1.0,2.0\n" for k in range(2000)]
        rows[2] = "2006-10-01T00:0x:00Z,1.0,2.0\n"
        path = tmp_path / "panel.csv"
        path.write_bytes(("time,a,b\n" + "".join(rows)).encode() + b"\xff\n")
        with mock.patch.object(ingest, "_TABLE_BATCH", batch), pytest.raises(FormatError) as info:
            read_panel_csv(path)
        assert str(info.value) == f"{path}: line 4: bad RFC-3339 time: '2006-10-01T00:0x:00Z'"

    @pytest.mark.parametrize("text", GRAMMAR_REJECTS)
    def test_rejected_time_names_its_line(self, tmp_path, text):
        path = tmp_path / "panel.csv"
        path.write_text(self.PANEL.replace("2006-10-16T00:01:00Z", f'"{text}"'))
        with pytest.raises(FormatError, match=re.escape(f"{path}: line 5: bad RFC-3339 time: {text!r}")):
            read_panel_csv(path)

    @pytest.mark.parametrize("name", ["EUR,USD", 'EUR"USD', "EUR\nUSD", "EUR\rUSD", " EUR", "USD\t"])
    def test_unreadable_column_name_is_refused_before_writing(self, tmp_path, name):
        panel = SignalPanel(np.ones((2, 3)), ("A/B", name), 1.0)
        path = tmp_path / "panel.csv"
        with pytest.raises(FormatError, match=re.escape(f"column name {name!r} cannot be written")):
            write_panel_csv(panel, path)
        assert not path.exists()

    def test_undecodable_file_is_format_error(self, tmp_path):
        path = tmp_path / "panel.csv"
        path.write_bytes(self.PANEL.encode().replace(b"1.5,2.5", b"1.5,\xff"))
        with pytest.raises(FormatError, match="not UTF-8 text"):
            read_panel_csv(path)

    def test_an_undecodable_byte_is_named_by_its_file_offset(self, tmp_path):
        """Far past the decoder's first chunk, on the last of a panel's 3,002
        lines (176 KiB), the byte is named by its offset in the file, not in
        the chunk."""
        values = np.random.default_rng(3).normal(size=(2, 3000))
        path = tmp_path / "panel.csv"
        write_panel_csv(SignalPanel(values, ("a", "b"), 1.0), path)
        data = bytearray(path.read_bytes())
        at = data.rindex(b",") + 1  # the last value's first character
        data[at] = 0xFF
        path.write_bytes(data)
        assert len(data) > 64 * 1024 and data.count(b"\n", 0, at) == 3001
        with pytest.raises(FormatError) as info:
            read_panel_csv(path)
        assert str(info.value) == f"{path}: byte {at}: not UTF-8 text"

    def test_recorded_dt_more_than_a_millisecond_off_the_spacing_is_refused(self, tmp_path):
        """Rows 1 ms apart recorded as dt=4.8e-05 (2.88 ms, 1.88 ms off the
        spacing) are refused on the token's line; a token within 1 ms of the
        first spacing is the period."""
        rows = "".join(f"2006-10-16T00:00:00.{k:03d}Z,1.0,{k}.5\n" for k in range(4))
        path = tmp_path / "panel.csv"
        path.write_text("# dt=4.8e-05\ntime,a,b\n" + rows)
        with pytest.raises(FormatError, match=re.escape(f"{path}: line 1: dt=4.8e-05 disagrees with the rows' spacing")):
            read_panel_csv(path)
        path.write_text(f"# dt={1 / 60_000!r}\ntime,a,b\n" + rows)
        assert read_panel_csv(path).dt == 1 / 60_000

    @pytest.mark.parametrize("token, line", [("# dt=1.0\n", 5), ("", 3)])
    def test_drift_off_the_grid_is_refused_on_its_row(self, tmp_path, token, line):
        """3,000 rows 60 s and then 60.001 s apart: each spacing is within
        1 ms of the first, but row k >= 1 lies k - 1 ms off the dt = 1 grid,
        and 2.998 s at the last.  The first row more than half a ms off its
        grid time is named: row 2 on the recorded grid, and row 1 on the grid
        of the rows' span without a token."""
        stamps = [format_rfc3339((1_160_956_800_000 + 60_000 * k + max(k - 1, 0)) / 1000) for k in range(3000)]
        path = tmp_path / "panel.csv"
        path.write_text(token + "time,a\n" + "".join(f"{stamp},{k}.0\n" for k, stamp in enumerate(stamps)))
        with pytest.raises(FormatError, match=re.escape(f"{path}: line {line}: rows are not uniformly spaced")):
            read_panel_csv(path)

    def test_recorded_dt_is_exact_and_optional(self, tmp_path):
        path = tmp_path / "panel.csv"
        seventh = (
            self.PANEL.replace("dt=1.0", f"dt={1 / 7!r}")
            .replace(":01:00Z", ":00:08.571429Z")
            .replace(":02:00Z", ":00:17.142857Z")
        )
        path.write_text(seventh)
        assert read_panel_csv(path).dt == 1 / 7
        path.write_text(self.PANEL.replace(" dt=1.0", ""))
        assert read_panel_csv(path).dt == 1.0


class TestFixtureGoldens:
    """Library-level checks of the hand-computed golden panels."""

    def test_activity_matches_golden(self):
        parsed = read_ticks(DATA_DIR / "ticks_fixture.csv")
        assert parsed.malformed == 0
        assert parsed.timestamp_ms.size == 50
        panel, _ = resample(parsed, 1.0, "ask")
        assert panel.length == 10
        golden = read_panel_csv(DATA_DIR / "golden_activity_ask.csv")
        assert panel.labels == golden.labels
        assert np.array_equal(panel.values, golden.values)

    def test_rates_match_golden(self):
        _, panel = resample(read_ticks(DATA_DIR / "ticks_fixture.csv"), 1.0, "ask")
        golden = read_panel_csv(DATA_DIR / "golden_rates_ask.csv")
        assert panel.labels == golden.labels
        assert panel.t0 == golden.t0
        assert np.array_equal(panel.values, golden.values)
