import errno
import gzip
import io
import os
import re
import warnings

import numpy as np
import pytest

from specdist import cli, errors, ingest, pipeline
from specdist.cli import main
from specdist.distances import cross_correlation, fit_affine, fit_proportionality
from specdist.ingest import read_panel_csv, write_panel_csv
from specdist.spectra import SignalPanel

from conftest import DATA_DIR

TICKS = str(DATA_DIR / "ticks_fixture.csv")


def run(*argv):
    return main(list(argv))


class TestIngestCommand:
    def test_golden_activity_bytes(self, tmp_path):
        out = tmp_path / "activity.csv"
        assert run("ingest", TICKS, "--side", "ask", "--activity-out", str(out)) == 0
        assert out.read_bytes() == (DATA_DIR / "golden_activity_ask.csv").read_bytes()

    def test_golden_rates_bytes(self, tmp_path):
        out = tmp_path / "rates.csv"
        assert run("ingest", TICKS, "--side", "ask", "--rates-out", str(out)) == 0
        assert out.read_bytes() == (DATA_DIR / "golden_rates_ask.csv").read_bytes()

    def test_requires_an_output(self):
        assert run("ingest", TICKS) == 5

    def test_missing_file_is_io_error(self, tmp_path):
        assert run("ingest", str(tmp_path / "nope.csv"), "--activity-out", "x.csv") == 3

    def test_malformed_rows_are_warned_with_their_lines(self, tmp_path, capsys):
        # One bad row in 1,001 is under the 1% abort: it is skipped, counted
        # and named on stderr, and the panel is written from the rest.
        ticks, out = tmp_path / "t.csv", tmp_path / "a.csv"
        rows = THOUSAND_ROWS.splitlines(keepends=True)
        ticks.write_text(TICK_HEAD + "".join(rows[:500]) + "garbage\n" + "".join(rows[500:]))
        assert run("ingest", str(ticks), "--activity-out", str(out)) == 0
        assert capsys.readouterr().err.splitlines() == [
            "specdist: warning 1 malformed row(s) skipped",
            "specdist: warning   line 502: expected 4 fields, got 1",
        ]
        assert read_panel_csv(out).length == 17

    def test_bad_header_is_format_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert run("ingest", str(bad), "--activity-out", str(tmp_path / "o.csv")) == 4

    @pytest.mark.parametrize("dt", ["0", "-1", "nan", "inf"])
    def test_bad_bucket_width_is_config_error(self, tmp_path, capsys, dt):
        code = run("ingest", TICKS, f"--dt={dt}", "--activity-out", str(tmp_path / "o.csv"))
        err = capsys.readouterr().err
        assert code == 5
        assert "kind=ConfigurationError" in err and f"dt must be a finite number of minutes of at least 1 ms, got {float(dt)!r}" in err

    def test_bucket_below_a_millisecond_is_config_error(self, tmp_path, capsys):
        """A bucket narrower than a tick stamp's 1 ms is refused before the
        grid is built.  The ticks are 1 ms apart, so that without the check
        the grid is small and the test fails instead of exhausting memory."""
        ticks = tmp_path / "ms.csv"
        ticks.write_text(
            "timestamp,instrument,side,price\n"
            + "".join(f"2006-10-16T00:00:05.00{k}Z,EUR/USD,ask,1.26{k}\n" for k in range(5))
        )
        activity = tmp_path / "a.csv"
        assert run("ingest", str(ticks), "--dt", "1e-7", "--activity-out", str(activity)) == 5
        err = capsys.readouterr().err
        assert err.startswith("specdist: error code=5 kind=ConfigurationError ") and "dt must be a finite number of minutes of at least 1 ms, got 1e-07" in err
        assert len(err.splitlines()) == 1
        assert not activity.exists()

    @pytest.mark.parametrize("dt", ["11", "13", "17"])
    def test_grid_before_year_1_is_config_error(self, tmp_path, capsys, dt):
        """Ticks between 0001-01-01T00:01Z and 00:50Z: a dt-aligned grid of 11,
        13 or 17 minutes starts before 0001-01-01T00:00:00Z, the first time a
        file can hold, and is refused with one error line.  At 1 minute it fits."""
        ticks = tmp_path / "year1.csv"
        ticks.write_text("timestamp,instrument,side,price\n" + "".join(
            f"0001-01-01T00:{minute:02d}:00Z,EUR/USD,ask,1.2{k}\n" for k, minute in enumerate((1, 17, 33, 50))
        ))
        activity = tmp_path / "a.csv"
        assert run("ingest", str(ticks), "--dt", dt, "--activity-out", str(activity)) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("specdist: error code=5 kind=ConfigurationError ")
        assert "before 0001-01-01T00:00:00Z" in err[0]
        assert not activity.exists()
        assert run("ingest", str(ticks), "--dt", "1", "--activity-out", str(activity)) == 0
        assert activity.read_text().splitlines()[2].startswith("0001-01-01T00:01:00Z,")

    def test_grid_over_the_cell_budget_is_config_error(self, tmp_path, capsys, monkeypatch):
        """Two ticks two days apart at `--dt 1e-4` (6 ms) need 28.8 M buckets,
        more than `ingest.MAX_CELLS`: exit 5 with one error line and no
        output.  The allocators are patched to fail, so that without the
        check the test fails instead of exhausting memory."""
        ticks = tmp_path / "days.csv"
        ticks.write_text(
            "timestamp,instrument,side,price\n"
            "2006-10-16T00:00:05Z,EUR/USD,ask,1.2609\n"
            "2006-10-18T00:00:05Z,EUR/USD,ask,1.2610\n"
        )

        def allocated(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "bincount", allocated)
        monkeypatch.setattr(np, "full", allocated)
        activity = tmp_path / "a.csv"
        assert run("ingest", str(ticks), "--dt", "1e-4", "--activity-out", str(activity)) == 5
        err = capsys.readouterr().err
        assert err.startswith("specdist: error code=5 kind=ConfigurationError ") and "cells" in err
        assert len(err.splitlines()) == 1
        assert not activity.exists()

    def test_missing_side_is_data_error(self, tmp_path, capsys):
        bids = tmp_path / "bids.csv"
        bids.write_text(
            "timestamp,instrument,side,price\n"
            "2006-10-16T00:00:05Z,EUR/USD,bid,1.2609\n"
            "2006-10-16T00:01:05Z,EUR/USD,bid,1.2610\n"
        )
        code = run("ingest", str(bids), "--side", "ask", "--activity-out", str(tmp_path / "o.csv"))
        assert code == 6
        assert 'msg="no ask quotes to resample"' in capsys.readouterr().err

    def test_column_name_the_reader_cannot_read_is_format_error(self, tmp_path, capsys):
        ticks = tmp_path / "comma.csv"
        ticks.write_text(
            "timestamp,instrument,side,price\n"
            + "".join(f'2006-10-16T00:0{k}:05Z,"EUR,USD",ask,1.26{k}\n' for k in range(5))
        )
        activity, rates = tmp_path / "a.csv", tmp_path / "r.csv"
        code = run("ingest", str(ticks), "--activity-out", str(activity), "--rates-out", str(rates))
        assert code == 4
        assert "kind=FormatError" in capsys.readouterr().err
        assert not activity.exists() and not rates.exists()

    def test_rates_need_two_complete_buckets(self, tmp_path):
        late = tmp_path / "late.csv"
        late.write_text(
            "timestamp,instrument,side,price\n"
            "2006-10-16T00:00:05Z,EUR/USD,ask,1.2609\n"
            "2006-10-16T00:01:05Z,EUR/USD,ask,1.2610\n"
            "2006-10-16T00:01:10Z,USD/JPY,ask,116.2\n"
        )
        activity, rates = tmp_path / "a.csv", tmp_path / "r.csv"
        assert run("ingest", str(late), "--activity-out", str(activity)) == 0
        assert read_panel_csv(activity).length == 2
        assert run("ingest", str(late), "--rates-out", str(rates)) == 6

    def test_ticks_in_one_bucket_are_a_data_error(self, tmp_path, capsys):
        ticks = tmp_path / "one.csv"
        ticks.write_text(
            "timestamp,instrument,side,price\n"
            "2006-10-16T00:00:05Z,EUR/USD,ask,1.2609\n"
            "2006-10-16T00:00:15Z,EUR/USD,ask,1.2610\n"
        )
        activity = tmp_path / "a.csv"
        assert run("ingest", str(ticks), "--activity-out", str(activity)) == 6
        assert capsys.readouterr().err == (
            "specdist: error code=6 kind=AnalysisError "
            'msg="every tick falls in one 1.0-minute bucket: a panel needs at least two"\n'
        )
        assert not activity.exists()

    def test_refused_rate_series_writes_no_activity(self, tmp_path, capsys):
        late = tmp_path / "late.csv"
        late.write_text(
            "timestamp,instrument,side,price\n"
            "2006-10-16T00:00:05Z,EUR/USD,ask,1.2609\n"
            "2006-10-16T00:01:05Z,EUR/USD,ask,1.2610\n"
            "2006-10-16T00:01:10Z,USD/JPY,ask,116.2\n"
        )
        activity, rates = tmp_path / "a.csv", tmp_path / "r.csv"
        activity.write_text("kept\n")
        code = run("ingest", str(late), "--activity-out", str(activity), "--rates-out", str(rates))
        assert code == 6
        assert "no rate series" in capsys.readouterr().err
        assert activity.read_text() == "kept\n" and not rates.exists()


TICK_HEAD = "timestamp,instrument,side,price\n"
TICK_ROWS = "".join(
    f"2006-10-16T{k // 3600:02d}:{k // 60 % 60:02d}:{k % 60:02d}Z,EUR/USD,ask,1.26\n"
    for k in range(20_000)
)
THOUSAND_ROWS = "".join(TICK_ROWS.splitlines(keepends=True)[:1000])
# (file name, bytes, the message after the file name) of tick files that
# cannot be read row by row.
UNREADABLE_TICKS = {
    # The quote never closes, so its field runs on past csv's size limit.
    "unclosed_quote": (
        "t.csv",
        (TICK_HEAD + '2006-10-16T00:00:00Z,"EUR/USD,ask,1.26\n' + TICK_ROWS).encode(),
        "line 2: field larger than field limit",
    ),
    "field_over_csv_limit": (
        "t.csv",
        (TICK_HEAD + "x" * 200_000 + "\n" + TICK_ROWS).encode(),
        r"line 2: field larger than field limit",
    ),
    # Strict csv: a quote that never closes reaches the end of the file
    # inside its field, and a closing quote must end its field.
    "short_unclosed_quote": (
        "t.csv",
        (TICK_HEAD + THOUSAND_ROWS + '2020-01-01T01:00:00Z,"EUR,ask,1.5\n' + THOUSAND_ROWS[:3_800]).encode(),
        "line 1002: unexpected end of data",
    ),
    "text_after_a_closing_quote": (
        "t.csv",
        (TICK_HEAD + THOUSAND_ROWS + '2020-01-01T01:00:00Z,"EUR"x,ask,1.5\n' + THOUSAND_ROWS[:3_800]).encode(),
        "line 1002: ',' expected after",
    ),
    "not_utf8": (
        "t.csv",
        TICK_HEAD.encode() + b"2006-10-16T00:00:00Z,EUR\xff,ask,1.26\n" + TICK_ROWS.encode(),
        "byte 56: not UTF-8 text",
    ),
    "truncated_gzip": (
        "t.csv.gz",
        gzip.compress((TICK_HEAD + TICK_ROWS).encode())[:-100],
        "Compressed file ended before the end-of-stream marker",
    ),
    "not_gzip": ("t.csv.gz", (TICK_HEAD + TICK_ROWS).encode(), "Not a gzipped file"),
}


class TestUnreadableTickFile:
    @pytest.mark.parametrize("case", sorted(UNREADABLE_TICKS))
    def test_is_format_error_naming_the_file(self, tmp_path, capsys, case):
        name, content, message = UNREADABLE_TICKS[case]
        ticks = tmp_path / name
        ticks.write_bytes(content)
        activity, rates = tmp_path / "a.csv", tmp_path / "r.csv"
        code = run("ingest", str(ticks), "--activity-out", str(activity), "--rates-out", str(rates))
        assert code == 4
        err = capsys.readouterr().err
        assert re.search(f'kind=FormatError msg="{re.escape(str(ticks))}: {message}', err), err
        assert not activity.exists() and not rates.exists()


class TestAnalyzeCommand:
    def make_panel_csv(self, tmp_path, length=640, m=3, seed=0):
        rng = np.random.default_rng(seed)
        panel = SignalPanel(
            rng.normal(size=(m, length)), tuple(f"ch{i}" for i in range(m)), 1.0
        )
        path = tmp_path / "panel.csv"
        write_panel_csv(panel, path)
        return path

    def test_cell_over_the_csv_field_limit_is_format_error(self, tmp_path, capsys):
        # csv refuses a field of more than 131,072 characters: a bad line (exit
        # 4) naming where it is, not an internal error.
        panel_csv = self.make_panel_csv(tmp_path)
        lines = panel_csv.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace(",", "," + "7" * 200_000, 1)
        panel_csv.write_text("".join(lines))
        out = tmp_path / "m.csv"
        assert run("analyze", str(panel_csv), "--out", str(out)) == 4
        err = capsys.readouterr().err
        assert f'kind=FormatError msg="{panel_csv}: line 4: field larger than field limit (131072)"' in err
        assert not out.exists()

    def test_path_through_a_file_is_io_error(self, tmp_path, capsys):
        panel_csv = self.make_panel_csv(tmp_path)
        assert run("analyze", f"{panel_csv}/x", "--out", str(tmp_path / "m.csv")) == 3
        assert "code=3 kind=NotADirectoryError" in capsys.readouterr().err

    def test_window_starts_are_the_panel_stamps_to_the_microsecond(self, tmp_path):
        """A panel stamped 0.4 ms past each minute: each window start in the
        metrics file is the stamp of the panel row at the same index."""
        rng = np.random.default_rng(8)
        panel = tmp_path / "panel.csv"
        panel.write_text("time,a,b\n" + "".join(
            f"2024-01-01T00:{k:02d}:00.000400Z,{x!r},{y!r}\n" for k, (x, y) in enumerate(rng.normal(size=(8, 2)).tolist())
        ))
        out = tmp_path / "m.csv"
        assert run("analyze", str(panel), "--window", "4", "--stride", "2", "--out", str(out)) == 0
        starts = [line.split(",")[0] for line in out.read_text().splitlines()[2:]]
        assert starts == [f"2024-01-01T00:{k:02d}:00.000400Z" for k in (0, 2, 4)]

    def test_row_count_arithmetic(self, tmp_path):
        panel_csv = self.make_panel_csv(tmp_path, length=640)
        out = tmp_path / "metrics.csv"
        assert run(
            "analyze", str(panel_csv), "--window", "128", "--stride", "64",
            "--out", str(out),
        ) == 0
        table = pipeline.read_metrics_csv(out)
        assert table.js.size == (640 - 128) // 64 + 1

    def test_dump_flags(self, tmp_path):
        panel_csv = self.make_panel_csv(tmp_path, length=128, m=2)
        out = tmp_path / "metrics.csv"
        spectra = tmp_path / "spectra.csv"
        kl = tmp_path / "kl.csv"
        assert run(
            "analyze", str(panel_csv), "--window", "128", "--out", str(out),
            "--dump-spectra", str(spectra), "--dump-kl", str(kl),
        ) == 0
        assert spectra.read_text().startswith("window_start_time,channel,frequency,prob")
        assert kl.read_text().splitlines()[1] == "window_start_time,l,m,kl"

    def test_kl_dump_of_a_barred_label_is_format_error(self, tmp_path, capsys):
        panel_csv = self.make_panel_csv(tmp_path, length=128, m=2)
        panel_csv.write_text(panel_csv.read_text().replace("time,ch0,ch1", "time,c0|1,ch1"))
        kl = tmp_path / "kl.csv"
        code = run(
            "analyze", str(panel_csv), "--window", "128", "--out", str(tmp_path / "m.csv"),
            "--dump-kl", str(kl),
        )
        assert code == 4
        err = capsys.readouterr().err
        assert "kind=FormatError" in err and "'c0|1'" in err
        assert not kl.exists()
        assert not (tmp_path / "m.csv").exists()

    def test_unwritable_metrics_file_removes_the_dumps(self, tmp_path, capsys):
        panel_csv = self.make_panel_csv(tmp_path, length=256, m=2)
        kl, spectra = tmp_path / "kl.csv", tmp_path / "spectra.csv"
        code = run(
            "analyze", str(panel_csv), "--window", "64", "--out", str(tmp_path / "nodir" / "m.csv"),
            "--dump-kl", str(kl), "--dump-spectra", str(spectra),
        )
        assert code == 3
        assert "kind=FileNotFoundError" in capsys.readouterr().err
        assert not kl.exists() and not spectra.exists()

    @pytest.mark.parametrize("weights, code", [("-1,2", 5), ("0.5,0.25,0.25", 6)])
    def test_bad_weights(self, tmp_path, weights, code):
        panel_csv = self.make_panel_csv(tmp_path, length=128, m=2)
        out = tmp_path / "m.csv"
        argv = ("analyze", str(panel_csv), "--window", "64", f"--weights={weights}")
        assert run(*argv, "--out", str(out)) == code
        assert not out.exists()

    @pytest.mark.parametrize("transform", ["raw", "log-return"])
    def test_matches_library_analyze_bit_for_bit(self, tmp_path, transform):
        rng = np.random.default_rng(3)
        values = np.exp(rng.normal(scale=1e-2, size=(12, 2000)).cumsum(axis=1))
        panel = SignalPanel(values, tuple(f"ch{i}" for i in range(12)), 1.0)
        path, out = tmp_path / "panel.csv", tmp_path / "m.csv"
        write_panel_csv(panel, path)
        argv = ("analyze", str(path), "--window", "128", "--stride", "32", "--transform", transform)
        assert run(*argv, "--out", str(out)) == 0
        from_file = pipeline.read_metrics_csv(out)
        library = pipeline.analyze(
            panel, pipeline.AnalysisConfig(width=128, stride=32, transform=transform)
        )
        for name in ("timestamps", "js", "mean_kl", "entropies", "modes"):
            assert np.array_equal(getattr(from_file, name), getattr(library, name)), name

    def test_log_return_of_two_rows_is_data_error(self, tmp_path, capsys):
        path, out = tmp_path / "panel.csv", tmp_path / "m.csv"
        write_panel_csv(SignalPanel([[1.0, 2.0], [3.0, 4.0]], ("a", "b"), 1.0), path)
        code = run("analyze", str(path), "--window", "4", "--transform", "log-return", "--out", str(out))
        assert code == 6
        err = capsys.readouterr().err
        assert "kind=TransformError" in err and "2-sample panel leaves one return" in err
        assert not out.exists()

    def test_one_file_for_both_dumps_is_config_error(self, tmp_path, capsys):
        panel_csv = self.make_panel_csv(tmp_path, length=128, m=2)
        out, dump = tmp_path / "m.csv", tmp_path / "dump.csv"
        code = run(
            "analyze", str(panel_csv), "--window", "128", "--out", str(out),
            "--dump-kl", str(dump), "--dump-spectra", str(dump),
        )
        assert code == 5
        assert "kind=ConfigurationError" in capsys.readouterr().err
        assert not out.exists() and not dump.exists()

    def test_reruns_are_byte_identical(self, tmp_path):
        panel_csv = self.make_panel_csv(tmp_path, length=512, seed=13)
        first, second = tmp_path / "m1.csv", tmp_path / "m2.csv"
        argv = ("analyze", str(panel_csv), "--window", "128", "--stride", "64")
        assert run(*argv, "--out", str(first)) == 0
        assert run(*argv, "--out", str(second)) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_too_small_window_is_config_error(self, tmp_path):
        panel_csv = self.make_panel_csv(tmp_path, length=64, m=2)
        code = run("analyze", str(panel_csv), "--window", "2", "--out", str(tmp_path / "m.csv"))
        assert code == 5

    @pytest.mark.parametrize("floor", ["nan", "inf", repr(1 / 63), "2"])
    def test_bad_floor_is_config_error(self, tmp_path, capsys, floor):
        panel_csv = self.make_panel_csv(tmp_path, length=128, m=2)
        out = tmp_path / "m.csv"
        code = run("analyze", str(panel_csv), "--window", "64", "--floor", floor, "--out", str(out))
        err = capsys.readouterr().err
        assert code == 5
        assert "kind=ConfigurationError" in err and "KL floor" in err and f"got {floor}" in err
        assert not out.exists()

    @pytest.mark.parametrize("case", ["four tones, floor 0.0078", "twelve channels, skewed weights"])
    def test_former_bound_breaks_analyze(self, tmp_path, case):
        from specdist.ingest import write_panel_csv
        from specdist.spectra import SignalPanel

        if case.startswith("four"):
            t = np.arange(128)
            values = np.array([np.cos(2 * np.pi * b * t / 128) for b in (3, 9, 17, 30)])
            extra = ("--floor", "0.0078")
        else:
            rng = np.random.default_rng(0)
            a, b = rng.normal(size=128), rng.normal(size=128)
            values = np.vstack([a] + [b] * 11)
            extra = ("--weights", ",".join(["0.45"] + ["0.01"] * 10 + ["0.45"]))
        panel_csv = tmp_path / "panel.csv"
        labels = tuple(f"c{i:02d}" for i in range(len(values)))
        write_panel_csv(SignalPanel(values, labels, 1.0), panel_csv)
        out = tmp_path / "m.csv"
        assert run("analyze", str(panel_csv), "--window", "128", *extra, "--out", str(out)) == 0
        assert pipeline.read_metrics_csv(out).js.size == 1

    def test_bound_violation_is_internal_error(self, tmp_path, capsys, monkeypatch):
        panel_csv = self.make_panel_csv(tmp_path, length=128, m=2)
        monkeypatch.setattr(
            pipeline, "kl_matrices", lambda probs: np.zeros(probs.shape[:-1] + (2,))
        )
        out, kl = tmp_path / "m.csv", tmp_path / "kl.csv"
        code = run("analyze", str(panel_csv), "--window", "128", "--out", str(out), "--dump-kl", str(kl))
        assert code == 1
        assert "kind=RuntimeError" in capsys.readouterr().err
        assert not out.exists() and not kl.exists()

    def test_unknown_channel_is_config_error(self, tmp_path):
        panel_csv = self.make_panel_csv(tmp_path, length=128, m=2)
        code = run(
            "analyze", str(panel_csv), "--window", "64", "--channels", "ch0,zz",
            "--out", str(tmp_path / "m.csv"),
        )
        assert code == 5


SMALL_SIM = ("--agents", "40", "--commodities", "2", "--steps", "24", "--warmup", "4")


def header_fields(path):
    """The `# key=value ...` provenance line of a panel CSV as a dict."""
    line = path.read_text().splitlines()[0]
    assert line.startswith("# ")
    return dict(item.split("=", 1) for item in line[2:].split())


class TestSimulateCommand:
    def test_full_disk_is_io_error_and_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # The activity file's bytes cannot be written (ENOSPC, as on
        # /dev/full): exit 3, and neither panel file is left.
        rates, activity = tmp_path / "r.csv", tmp_path / "a.csv"

        class Full(io.RawIOBase):
            def writable(self):
                return True

            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def full_open(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            if path != str(activity):
                return fh
            fh.close()
            return io.TextIOWrapper(io.BufferedWriter(Full()), encoding="utf-8", newline="")

        monkeypatch.setattr(ingest, "open", full_open, raising=False)
        code = run("simulate", *SMALL_SIM, "--rates-out", str(rates), "--activity-out", str(activity))
        assert code == 3
        assert "code=3 kind=OSError" in capsys.readouterr().err
        assert not rates.exists() and not activity.exists()

    def test_same_seed_byte_identical(self, tmp_path):
        args = (
            "simulate", "--seed", "7", "--steps", "48", "--warmup", "8",
            "--agents", "60", "--commodities", "3",
        )
        a_rates, a_act = tmp_path / "r1.csv", tmp_path / "a1.csv"
        b_rates, b_act = tmp_path / "r2.csv", tmp_path / "a2.csv"
        assert run(*args, "--rates-out", str(a_rates), "--activity-out", str(a_act)) == 0
        assert run(*args, "--rates-out", str(b_rates), "--activity-out", str(b_act)) == 0
        assert a_rates.read_bytes() == b_rates.read_bytes()
        assert a_act.read_bytes() == b_act.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_agents = 40\nn_commodities = 2\nhorizon = 32\nwarmup = 4\nseed = 1\n")
        out = tmp_path / "act.csv"
        assert run("simulate", "--config", str(cfg), "--seed", "2", "--activity-out", str(out)) == 0
        panel = read_panel_csv(out)
        assert panel.n_channels == 2 and panel.length == 32

    def test_invalid_config_is_config_error(self, tmp_path):
        out = tmp_path / "x.csv"
        assert run("simulate", "--a-range", "3", "1", "--activity-out", str(out)) == 5

    def test_requires_an_output(self):
        assert run("simulate", "--seed", "1") == 5

    @pytest.mark.parametrize(
        "flags, field",
        [
            (("--sigma-xi", "nan"), "sigma_xi"),
            (("--sigma-s", "inf"), "sigma_s"),
            (("--a-range", "1", "inf"), "a_range"),
            (("--theta-buy", "0.01", "inf"), "theta_buy_range"),
            (("--steps", "1"), "horizon"),
            (("--agents", str(2**31)), "n_agents must be between 1 and 2**31 - 1"),
        ],
        ids=["sigma_xi_nan", "sigma_s_inf", "a_range_inf", "theta_buy_inf", "one_step", "agents_2_31"],
    )
    def test_non_finite_or_one_step_is_config_error(self, tmp_path, capsys, flags, field):
        out = tmp_path / "x.csv"
        argv = ("simulate", *SMALL_SIM, *flags, "--activity-out", str(out))
        assert run(*argv) == 5
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "buy, sell, shown",
        [
            ("1e-200 2e-200", "-2e-200 -1e-200", "from inf to inf"),
            ("1e200 2e200", "-2e200 -1e200", "from 0.0 to 0.0"),
        ],
        ids=["squares_underflow", "squares_overflow"],
    )
    def test_thresholds_without_a_finite_positive_attention_are_config_errors(self, tmp_path, capsys, buy, sell,
                                                                              shown):
        # An infinite or zero attention would leave the market at rest.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"theta_buy_range = {buy}\ntheta_sell_range = {sell}\n")
        out = tmp_path / "x.csv"
        assert run("simulate", *SMALL_SIM, "--config", str(cfg), "--activity-out", str(out)) == 5
        err = capsys.readouterr().err
        assert "kind=ConfigurationError" in err and shown in err
        assert "theta_buy_range" in err and "theta_sell_range" in err
        assert not out.exists()

    def test_attention_boundary_pair_runs(self, tmp_path):
        # The least |theta| whose attention 1/(2 theta^2) is still finite.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("theta_buy_range = 5.273843307431502e-155 1.0\n"
                       "theta_sell_range = -1.0 -5.273843307431502e-155\n")
        out = tmp_path / "x.csv"
        assert run("simulate", *SMALL_SIM, "--config", str(cfg), "--activity-out", str(out)) == 0
        assert read_panel_csv(out).length > 0

    @pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config_line"])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, via_config):
        # numpy refuses it only once the run starts; the config refuses it first.
        out = tmp_path / "x.csv"
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("seed = -1\n")
        seed = ("--config", str(cfg)) if via_config else ("--seed", "-1")
        assert run("simulate", *SMALL_SIM, *seed, "--activity-out", str(out)) == 5
        err = capsys.readouterr().err
        assert "kind=ConfigurationError" in err and "seed must be at least 0, got -1" in err
        assert not out.exists()

    def test_zero_steps_is_config_error_before_simulating(self, tmp_path, capsys, monkeypatch):
        def no_simulation(cfg):
            raise AssertionError("simulated a horizon that cannot be written")

        monkeypatch.setattr(cli, "run_simulation", no_simulation)
        out = tmp_path / "z.csv"
        assert run("simulate", *SMALL_SIM, "--steps", "0", "--activity-out", str(out)) == 5
        err = capsys.readouterr().err
        assert "kind=ConfigurationError" in err and "horizon" in err
        assert not out.exists()

    @pytest.mark.parametrize("dt", ["1e9", "1e300"])
    def test_last_sample_past_year_9999_is_config_error(self, tmp_path, capsys, monkeypatch, dt):
        # Its stamp could not be written: refused before any draw, naming both fields.
        def no_simulation(cfg):
            raise AssertionError("simulated a panel whose times cannot be written")

        monkeypatch.setattr(cli, "run_simulation", no_simulation)
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(f"n_agents = 20\nn_commodities = 2\nhorizon = 10\ndt = {dt}\n")
        rates, activity = tmp_path / "r.csv", tmp_path / "a.csv"
        code = run("simulate", "--config", str(cfg), "--rates-out", str(rates), "--activity-out", str(activity))
        assert code == 5
        err = capsys.readouterr().err
        assert "kind=ConfigurationError" in err and f"dt {float(dt)!r} puts sample 9 after t0 0.0 s past " in err
        assert not rates.exists() and not activity.exists()

    def test_panel_past_the_cell_bound_is_config_error(self, tmp_path, capsys, monkeypatch):
        # The cells are checked before the last stamp: the horizon alone is
        # refused, before any draw, where numpy used to fail allocating the panels.
        def no_simulation(cfg):
            raise AssertionError("simulated a panel past the cell bound")

        monkeypatch.setattr(cli, "run_simulation", no_simulation)
        rates, activity = tmp_path / "r.csv", tmp_path / "a.csv"
        code = run("simulate", "--steps", str(10**30), "--rates-out", str(rates), "--activity-out", str(activity))
        assert code == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "kind=ConfigurationError" in err[0]
        assert f"20 channel(s) x {10**30} samples is" in err[0]
        assert not rates.exists() and not activity.exists()

    def test_model_tick_below_a_millisecond_is_config_error(self, tmp_path, capsys):
        """A model tick of 1e-6 minutes would write rows 60 us apart, which
        `analyze` cannot read back: refused before any draw, with one error
        line and no file, while a 1 ms tick runs on through `analyze`."""
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_agents = 20\nn_commodities = 2\nhorizon = 64\nwarmup = 4\ndt = 1e-6\n")
        activity, metrics = tmp_path / "a.csv", tmp_path / "m.csv"
        assert run("simulate", "--config", str(cfg), "--activity-out", str(activity)) == 5
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("specdist: error code=5 kind=ConfigurationError ")
        assert "dt must be a finite number of minutes of at least 1 ms, got 1e-06" in err[0]
        assert not activity.exists()
        cfg.write_text(cfg.read_text().replace("1e-6", repr(1 / 60_000)))
        assert run("simulate", "--config", str(cfg), "--activity-out", str(activity)) == 0
        assert run("analyze", str(activity), "--window", "16", "--out", str(metrics)) == 0
        assert read_panel_csv(activity).dt == 1 / 60_000

    def test_last_writable_sample_runs(self, tmp_path):
        # The greatest dt whose 10th sample falls before 10000-01-01T00:00:00Z.
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("n_agents = 20\nn_commodities = 2\nhorizon = 10\nwarmup = 4\ndt = 469263519.99999994\n")
        out = tmp_path / "a.csv"
        assert run("simulate", "--config", str(cfg), "--activity-out", str(out)) == 0
        assert out.read_text().splitlines()[-1].startswith("9999-12-31T23:59:59.999969Z,")
        assert read_panel_csv(out).length == 10

    def test_unwritable_activity_file_removes_the_rates(self, tmp_path, capsys):
        rates = tmp_path / "r.csv"
        code = run(
            "simulate", *SMALL_SIM, "--rates-out", str(rates),
            "--activity-out", str(tmp_path / "nodir" / "a.csv"),
        )
        assert code == 3
        assert "kind=FileNotFoundError" in capsys.readouterr().err
        assert not rates.exists()

    def test_header_records_every_config_field(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run("simulate", *SMALL_SIM, "--gamma", "2e-7", "--activity-out", str(a)) == 0
        assert run("simulate", *SMALL_SIM, "--gamma", "3e-7", "--activity-out", str(b)) == 0
        header_a, header_b = header_fields(a), header_fields(b)
        assert header_a != header_b
        assert header_a["gamma"] == "2e-07" and header_b["gamma"] == "3e-07"
        assert header_a["source"] == "simulate" and header_a["transform"] == "raw"
        assert header_a["a_range"] == "1.0,3.0" and header_a["n_agents"] == "40"

    def test_header_alone_reproduces_the_panel(self, tmp_path):
        first = tmp_path / "first.csv"
        assert run(
            "simulate", *SMALL_SIM, "--gamma", "3e-7", "--ma-span", "3", "--a-range", "0.5", "2.5",
            "--resample-params", "--rates-out", str(first),
        ) == 0
        fields = header_fields(first)
        del fields["source"], fields["transform"]
        cfg = tmp_path / "sim.cfg"
        cfg.write_text("".join(f"{name} = {value}\n" for name, value in fields.items()))
        again = tmp_path / "again.csv"
        assert run("simulate", "--config", str(cfg), "--rates-out", str(again)) == 0
        assert again.read_bytes() == first.read_bytes()


class TestCompareCommand:
    def make_metrics(self, tmp_path, seed, name):
        from specdist.ingest import write_panel_csv
        from specdist.spectra import SignalPanel

        rng = np.random.default_rng(seed)
        panel = SignalPanel(rng.normal(size=(2, 512)), ("a", "b"), 1.0)
        panel_csv = tmp_path / f"{name}_panel.csv"
        write_panel_csv(panel, panel_csv)
        out = tmp_path / f"{name}.csv"
        assert run(
            "analyze", str(panel_csv), "--window", "128", "--stride", "64",
            "--out", str(out),
        ) == 0
        return out

    def test_output_matches_library_calls(self, tmp_path, capsys):
        left = self.make_metrics(tmp_path, 3, "left")
        right = self.make_metrics(tmp_path, 4, "right")
        assert run("compare", str(left), str(right)) == 0
        printed = capsys.readouterr().out.strip()
        a = pipeline.read_metrics_csv(left).js
        b = pipeline.read_metrics_csv(right).js
        expected_c = cross_correlation(a, b)
        expected_slope = fit_proportionality(a, b)
        assert printed == f"C={expected_c!r} slope={expected_slope!r}"

    def test_affine_fit_prints_its_intercept(self, tmp_path, capsys):
        left = self.make_metrics(tmp_path, 3, "left")
        right = self.make_metrics(tmp_path, 4, "right")
        assert run("compare", str(left), str(right), "--fit", "affine") == 0
        a = pipeline.read_metrics_csv(left).js
        b = pipeline.read_metrics_csv(right).js
        slope, intercept = fit_affine(a, b)
        want = f"C={cross_correlation(a, b)!r} slope={slope!r} intercept={intercept!r}"
        assert capsys.readouterr().out.strip() == want

    def test_js_vs_mean_kl_within_one_file(self, tmp_path, capsys):
        metrics = self.make_metrics(tmp_path, 5, "solo")
        assert run(
            "compare", str(metrics), str(metrics), "--field-a", "mean_kl", "--field-b", "js",
        ) == 0
        printed = capsys.readouterr().out
        assert printed.startswith("C=")

    def test_input_without_scored_windows_is_analysis_error(self, tmp_path, capsys):
        # Every window of a constant panel is skipped: its metrics file has no rows.
        panel_csv, empty = tmp_path / "constant_panel.csv", tmp_path / "empty.csv"
        write_panel_csv(SignalPanel(np.ones((2, 512)), ("a", "b"), 1.0), panel_csv)
        assert run("analyze", str(panel_csv), "--window", "128", "--stride", "64", "--out", str(empty)) == 0
        scored = self.make_metrics(tmp_path, 3, "scored")
        capsys.readouterr()
        assert run("compare", str(empty), str(empty)) == 6
        assert "left input has 0 scored window(s), need 2" in capsys.readouterr().err
        assert run("compare", str(scored), str(empty)) == 6
        assert "right input has 0 scored window(s), need 2" in capsys.readouterr().err

    def test_misaligned_inputs_rejected(self, tmp_path):
        left = self.make_metrics(tmp_path, 6, "left")
        # Different stride -> different grid -> refused.
        from specdist.ingest import write_panel_csv
        from specdist.spectra import SignalPanel

        rng = np.random.default_rng(7)
        panel = SignalPanel(rng.normal(size=(2, 512)), ("a", "b"), 1.0)
        panel_csv = tmp_path / "other_panel.csv"
        write_panel_csv(panel, panel_csv)
        right = tmp_path / "right.csv"
        assert run(
            "analyze", str(panel_csv), "--window", "128", "--stride", "128",
            "--out", str(right),
        ) == 0
        assert run("compare", str(left), str(right)) == 4

    def test_unreadable_cell_is_format_error(self, tmp_path, capsys):
        left = self.make_metrics(tmp_path, 3, "left")
        lines = left.read_text().splitlines()
        cells = lines[3].split(",")
        cells[1] = "abc"
        lines[3] = ",".join(cells)
        left.write_text("\n".join(lines) + "\n")
        right = self.make_metrics(tmp_path, 4, "right")
        assert run("compare", str(left), str(right)) == 4
        err = capsys.readouterr().err
        assert "kind=FormatError" in err and f"{left}: line 4: could not convert" in err

    def test_gap_time_with_a_space_separator_is_format_error(self, tmp_path, capsys):
        # `#` lines split on whitespace into key=value tokens, so a time in a
        # token takes the `T` separator the writer emits (README "File formats").
        left = self.make_metrics(tmp_path, 3, "left")
        lines = left.read_text().splitlines()
        lines.insert(4, "# gap=1970-01-01 00:02:00+00:00")
        left.write_text("\n".join(lines) + "\n")
        right = self.make_metrics(tmp_path, 4, "right")
        assert run("compare", str(left), str(right)) == 4
        err = capsys.readouterr().err
        assert "kind=FormatError" in err and f"{left}: line 5: bad gap time '1970-01-01'" in err

    def test_simulated_rates_vs_activity(self, tmp_path, capsys):
        rates, activity = tmp_path / "rates.csv", tmp_path / "activity.csv"
        assert run(
            "simulate", "--seed", "3", "--agents", "200", "--commodities", "3",
            "--steps", "640", "--warmup", "32",
            "--rates-out", str(rates), "--activity-out", str(activity),
        ) == 0
        js_a, js_r = tmp_path / "js_activity.csv", tmp_path / "js_rates.csv"
        window = ("--window", "64", "--stride", "64")
        assert run("analyze", str(activity), *window, "--out", str(js_a)) == 0
        assert run(
            "analyze", str(rates), *window, "--transform", "log-return", "--out", str(js_r)
        ) == 0
        capsys.readouterr()
        assert run("compare", str(js_r), str(js_a)) == 0
        out, err = capsys.readouterr()
        # 639 log-returns hold 9 windows of 64, 640 activity samples 10.
        res_r, res_a = pipeline.read_metrics_csv(js_r), pipeline.read_metrics_csv(js_a)
        assert (res_r.js.size, res_a.js.size) == (9, 10)
        x, y = res_r.js, res_a.js[:9]
        assert out == f"C={cross_correlation(x, y)!r} slope={fit_proportionality(x, y)!r}\n"
        assert err.count("specdist: warning") == 1
        assert "compared 9 windows" in err
        assert f"dropped 0 from {js_r} and 1 from {js_a}" in err

    def test_ingested_rates_vs_activity_out_of_phase(self, tmp_path, capsys):
        # Rates start at the first bucket every instrument quoted (00:04),
        # activity at 00:00: at stride 3 the two grids share no window start.
        activity, rates = tmp_path / "activity.csv", tmp_path / "rates.csv"
        assert run("ingest", TICKS, "--activity-out", str(activity), "--rates-out", str(rates)) == 0
        js_a, js_r = tmp_path / "js_activity.csv", tmp_path / "js_rates.csv"
        window = ("--window", "4", "--stride", "3")
        assert run("analyze", str(activity), *window, "--out", str(js_a)) == 0
        assert run(
            "analyze", str(rates), *window, "--transform", "log-return", "--out", str(js_r)
        ) == 0
        capsys.readouterr()
        assert run("compare", str(js_r), str(js_a)) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert "window grids differ between inputs: 0 common" in err


class TestSweepCommand:
    def test_table_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            "sweep", "--ha=-1,0", "--seeds", "1", "--steps", "96",
            "--agents", "30", "--commodities", "2", "--window", "32",
            "--center", "2.0", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "h_a,a1,a2,mean_js"
        assert len(lines) == 3

    def test_stdout_matches_out_file(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        argv = (
            "sweep", "--ha=0", "--seeds", "1", "--steps", "96", "--agents", "30",
            "--commodities", "2", "--window", "32", "--center", "2.0",
        )
        assert run(*argv, "--out", str(out)) == 0
        capsys.readouterr()
        assert run(*argv) == 0
        assert capsys.readouterr().out == out.read_text()

    def test_range_touching_zero_is_config_error(self, capsys):
        code = run(
            "sweep", "--ha=0,3", "--center", "1.0", "--steps", "96", "--seeds", "1",
            "--agents", "30", "--window", "16",
        )
        assert code == 5
        assert "touch zero" in capsys.readouterr().err
        for ha, center, message in [
            ("nan", "1.0", "H_a=nan gives the range (nan, nan)"),
            ("-inf", "1.0", "H_a=-inf gives the range (1.0, 1.0)"),
            ("-800", "1.0", "H_a=-800.0 gives the range (1.0, 1.0)"),
            ("0", "nan", "H_a=0.0 gives the range (nan, nan), which must be finite with 0 < a1 < a2 (center nan)"),
            ("800", "1.0", "H_a=800.0 gives the range (-inf, inf), which must be finite with 0 < a1 < a2"),
        ]:
            # Warnings are recorded, not shown by pytest: with none, the
            # error line is all the command writes to stderr.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                code = run(
                    "sweep", f"--ha={ha}", "--center", center, "--steps", "96", "--seeds", "1",
                    "--agents", "30", "--window", "16",
                )
            assert code == 5
            err = capsys.readouterr().err
            assert message in err
            assert [str(w.message) for w in caught] == [] and len(err.splitlines()) == 1

    def test_negative_seed_is_config_error_before_the_table_opens(self, tmp_path, capsys, monkeypatch):
        def no_simulation(cfg, a_ranges):
            raise AssertionError("simulated a run numpy cannot seed")

        monkeypatch.setattr(pipeline, "run_simulations", no_simulation)
        out = tmp_path / "sweep.csv"
        code = run("sweep", "--ha=0", "--seeds", "2", "--steps", "96", "--seed", "-1", "--out", str(out))
        assert code == 5
        err = capsys.readouterr().err
        assert "kind=ConfigurationError" in err and "seed must be at least 0, got -1" in err
        assert not out.exists()

    def test_bad_ha_list(self):
        assert run("sweep", "--ha", "abc") == 5

    def test_ha_list_of_no_value_is_config_error(self, capsys):
        assert run("sweep", "--ha=,") == 5
        assert "--ha needs at least one value" in capsys.readouterr().err

    def test_missing_directory_is_io_error_before_simulating(self, tmp_path, capsys, monkeypatch):
        def no_simulation(cfg, a_ranges):
            raise AssertionError("simulated for a table that cannot be written")

        monkeypatch.setattr(pipeline, "run_simulations", no_simulation)
        code = run("sweep", "--ha=0", "--seeds", "1", "--steps", "96", "--out", str(tmp_path / "nodir" / "s.csv"))
        assert code == 3
        assert "kind=FileNotFoundError" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("--window", "128"), "panel of 96 samples is shorter than window 128"),
            (("--commodities", "1", "--window", "32"), "need at least 2 channels, have 1"),
        ],
        ids=["window", "channels"],
    )
    def test_panel_the_analysis_refuses_is_refused_before_simulating(self, capsys, monkeypatch, argv, message):
        def no_simulation(cfg, a_ranges):
            raise AssertionError("simulated a panel the analysis cannot score")

        monkeypatch.setattr(pipeline, "run_simulations", no_simulation)
        assert run("sweep", "--ha=0", "--seeds", "1", "--steps", "96", *argv) == 6
        assert message in capsys.readouterr().err

    def test_failed_sweep_removes_the_table_it_opened(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        out.write_text("an earlier table\n")
        code = run(
            "sweep", "--ha=0", "--seeds", "1", "--steps", "96", "--agents", "30",
            "--commodities", "2", "--window", "128", "--center", "2.0", "--out", str(out),
        )
        assert code == 6
        assert "shorter than window 128" in capsys.readouterr().err
        assert not out.exists()


class TestDistinctFiles:
    @pytest.mark.parametrize(
        "argv",
        [
            ("ingest", TICKS, "--activity-out", "x.csv", "--rates-out", "./x.csv"),
            ("simulate", *SMALL_SIM, "--rates-out", "x.csv", "--activity-out", "{dir}/x.csv"),
            ("simulate", "--config", "sim.cfg", "--rates-out", "sim.cfg"),
            ("analyze", "panel.csv", "--out", "x.csv", "--dump-kl", "x.csv"),
            ("analyze", "panel.csv", "--out", "panel.csv"),
            ("analyze", "panel.csv", "--out", "m.csv", "--dump-kl", "{dir}/panel.csv"),
        ],
        ids=[
            "ingest_both_panels", "simulate_both_panels", "simulate_over_config",
            "analyze_out_and_kl_dump", "analyze_over_input",
            "analyze_kl_dump_over_input",
        ],
    )
    def test_clash_is_config_error_and_writes_nothing(self, tmp_path, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        write_panel_csv(SignalPanel(np.arange(256.0).reshape(2, 128) % 7, ("a", "b"), 1.0), "panel.csv")
        (tmp_path / "sim.cfg").write_text("n_agents = 40\nn_commodities = 2\nhorizon = 24\n")
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert run(*(arg.replace("{dir}", str(tmp_path)) for arg in argv)) == 5
        assert "kind=ConfigurationError" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run("frobnicate") == 2

    def test_no_arguments(self):
        assert run() == 2


# Each error class and the exit code of the failure class it belongs to.
EXIT_CODES = {
    errors.FormatError: 4,
    errors.AlignmentError: 4,
    errors.DimensionError: 4,
    errors.ConfigurationError: 5,
    errors.InvalidWindowError: 5,
    errors.AnalysisError: 6,
    errors.TransformError: 6,
    errors.UndefinedCorrelationError: 6,
    errors.DegenerateFitError: 6,
}


class TestExitCodes:
    def test_every_error_class_has_a_code(self):
        classes = {
            kind for kind in vars(errors).values()
            if isinstance(kind, type) and issubclass(kind, errors.SpecdistError)
        }
        assert classes - {errors.SpecdistError} == set(EXIT_CODES)

    @pytest.mark.parametrize("kind", list(EXIT_CODES), ids=lambda kind: kind.__name__)
    def test_error_class_exits_with_its_code(self, kind, monkeypatch, capsys):
        def fail(args):
            raise kind("boom")

        monkeypatch.setattr(cli, "_cmd_compare", fail)
        assert kind.exit_code == EXIT_CODES[kind]
        assert run("compare", "left.csv", "right.csv") == EXIT_CODES[kind]
        assert f'kind={kind.__name__} msg="boom"' in capsys.readouterr().err
