import io
import logging
import math
import multiprocessing
import os
import re
import tempfile
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from specdist import ingest, pipeline
from specdist.distances import cross_correlation, fit_proportionality, floored, kl_matrices
from specdist.errors import (
    AlignmentError,
    AnalysisError,
    ConfigurationError,
    FormatError,
    InvalidWindowError,
    TransformError,
)
from specdist.ingest import format_rfc3339, read_panel_csv, write_panel_csv
from specdist.pipeline import (
    AnalysisConfig,
    AnalysisResult,
    analyze,
    compare_metric_series,
    entropy_sweep,
    read_metrics_csv,
    write_metrics_csv,
    write_sweep_csv,
)
from specdist.simulator import SimConfig, run_simulation, run_simulations
from specdist.spectra import SignalPanel

from oracles import (
    direct_periodogram,
    double_loop_mean,
    folded_mode,
    scalar_entropy,
    scalar_floor,
    scalar_kl,
)


def noise_panel(m=2, length=512, seed=0, dt=1.0):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(m, length))
    return SignalPanel(values, tuple(f"ch{i}" for i in range(m)), dt)


def dumped(panel, cfg):
    """`analyze`'s result, KL matrices (W, M, M) and spectra (W, M, N-1), the
    last two read back from its dumps: `repr` floats, so exactly as scored."""
    with tempfile.TemporaryDirectory() as tmp:
        kl_path, spectra_path = Path(tmp, "kl.csv"), Path(tmp, "spectra.csv")
        result = analyze(panel, cfg, dump_kl=kl_path, dump_spectra=spectra_path)
        kl, spectra = (
            [float(line.rsplit(",", 1)[1]) for line in path.read_text().splitlines()[skip:]]
            for path, skip in ((kl_path, 2), (spectra_path, 1))
        )
    w, m = result.js.size, len(result.labels)
    return result, np.reshape(kl, (w, m, m)), np.reshape(spectra, (w, m, cfg.width - 1))


# Test ids of the dump keywords, kept from the writer functions they replaced.
DUMP_IDS = {"dump_kl": "write_kl_csv", "dump_spectra": "write_spectra_csv"}


class TestAnalyze:
    def test_single_window_when_length_equals_width(self):
        panel = noise_panel(length=128)
        result = analyze(panel, AnalysisConfig(width=128, stride=17))
        assert result.js.size == 1
        assert result.timestamps.tolist() == [panel.t0]

    def test_window_count_formula(self):
        panel = noise_panel(length=700)
        result = analyze(panel, AnalysisConfig(width=128, stride=64))
        assert result.js.size == (700 - 128) // 64 + 1

    def test_identical_channels_give_zero_distances(self):
        rng = np.random.default_rng(1)
        row = rng.normal(size=300)
        panel = SignalPanel(np.vstack([row, row, row]), ("a", "b", "c"), 1.0)
        result = analyze(panel, AnalysisConfig(width=64, stride=32))
        assert result.js.size
        assert np.all(result.js <= 1e-12)
        assert np.all(result.mean_kl <= 1e-12)

    def test_rows_respect_invariants(self):
        panel = noise_panel(m=2, length=6528, seed=5)
        result = analyze(panel, AnalysisConfig(width=128, stride=64))
        assert result.js.size == 101
        upper = math.log(127)
        assert np.all(result.mean_kl >= result.js - 1e-9)
        assert np.all(result.js >= 0.0)
        assert np.all(result.entropies >= 0.0)
        assert np.all(result.entropies <= upper + 1e-12)

    def test_degenerate_windows_skipped_with_gap(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(2, 256))
        values[1, :64] = 5.0  # first window of channel 1 is constant
        panel = SignalPanel(values, ("a", "b"), 1.0)
        result = analyze(panel, AnalysisConfig(width=64, stride=64))
        assert result.gap_times.tolist() == [panel.t0]
        assert result.js.size == 3

    def test_too_few_channels_rejected(self):
        panel = noise_panel(m=1, length=256)
        with pytest.raises(AnalysisError):
            analyze(panel, AnalysisConfig(width=64))

    def test_short_panel_rejected(self):
        panel = noise_panel(length=100)
        with pytest.raises(AnalysisError):
            analyze(panel, AnalysisConfig(width=128))

    def test_channel_selection(self):
        panel = noise_panel(m=4, length=256)
        result = analyze(panel, AnalysisConfig(width=64, channels=("ch3", "ch0")))
        assert result.labels == ("ch3", "ch0")
        assert result.entropies.shape == result.modes.shape == (result.js.size, 2)

    def test_log_return_transform_shortens_and_keeps_t0(self):
        rng = np.random.default_rng(8)
        values = np.exp(rng.normal(scale=1e-3, size=(2, 257)).cumsum(axis=1))
        panel = SignalPanel(values, ("a", "b"), 1.0)
        result = analyze(panel, AnalysisConfig(width=128, stride=64, transform="log-return"))
        assert result.timestamps[0] == panel.t0
        assert result.js.size == (256 - 128) // 64 + 1

    def test_log_return_of_two_samples_names_the_cause(self):
        panel = SignalPanel([[1.0, 2.0], [3.0, 4.0]], ("a", "b"), 1.0)
        with pytest.raises(TransformError, match="2-sample panel leaves one return"):
            analyze(panel, AnalysisConfig(width=4, transform="log-return"))

    def test_log_return_rejects_nonpositive(self):
        values = np.ones((2, 256))
        values[0, 3] = -1.0
        with pytest.raises(TransformError):
            analyze(SignalPanel(values, ("a", "b"), 1.0), AnalysisConfig(width=64, transform="log-return"))

    def test_custom_weights_change_js(self):
        panel = noise_panel(m=3, length=256, seed=11)
        uniform = analyze(panel, AnalysisConfig(width=128, stride=128))
        skewed = analyze(
            panel, AnalysisConfig(width=128, stride=128, weights=(0.8, 0.1, 0.1))
        )
        assert uniform.js[0] != skewed.js[0]

    def test_deterministic_over_reruns(self):
        panel = noise_panel(m=3, length=1024, seed=9)
        cfg = AnalysisConfig(width=128, stride=32)
        one = analyze(panel, cfg)
        two = analyze(panel, cfg)
        assert np.array_equal(one.js, two.js)
        assert np.array_equal(one.mean_kl, two.mean_kl)

    @pytest.mark.parametrize("transform", ["raw", "log-return"])
    def test_memory_layout_moves_no_bit(self, transform):
        # numpy's summation order follows the array's layout; the panel
        # stores C order, so a Fortran-order caller gets the same bits.
        rng = np.random.default_rng(12)
        values = np.exp(rng.normal(scale=1e-2, size=(12, 2000)).cumsum(axis=1))
        labels = tuple(f"ch{i}" for i in range(12))
        cfg = AnalysisConfig(width=128, stride=32, transform=transform)
        c_order = analyze(SignalPanel(values, labels, 1.0), cfg)
        f_order = analyze(SignalPanel(np.asfortranarray(values), labels, 1.0), cfg)
        for name in ("timestamps", "js", "mean_kl", "entropies", "modes", "gap_times"):
            assert np.array_equal(getattr(c_order, name), getattr(f_order, name)), name

    def test_window_geometry_validation(self):
        with pytest.raises(InvalidWindowError):
            AnalysisConfig(width=3)
        with pytest.raises(InvalidWindowError):
            AnalysisConfig(width=8, stride=0)
        result = analyze(noise_panel(length=10), AnalysisConfig(width=4, stride=2))
        assert result.timestamps.tolist() == [0.0, 120.0, 240.0, 360.0]

    def test_config_holds_the_resolved_stride_and_plain_numbers(self):
        assert AnalysisConfig().stride == 64
        assert AnalysisConfig(width=100).provenance()["stride"] == "50"
        # `replace` carries the resolved stride over; it is not re-derived.
        assert replace(AnalysisConfig(), width=256).stride == 64
        cfg = AnalysisConfig(width=np.int64(32), stride=np.int32(8), kl_floor=np.float64(1e-9))
        assert (type(cfg.width), type(cfg.stride), type(cfg.kl_floor)) == (int, int, float)
        assert cfg.provenance()["floor"] == "1e-09"

    @pytest.mark.parametrize("floor", ["0", None])
    def test_kl_floor_must_be_a_number(self, floor):
        with pytest.raises(ConfigurationError, match=f"^KL floor must be a number in .*, got {re.escape(repr(floor))}$"):
            AnalysisConfig(kl_floor=floor)

    @pytest.mark.parametrize(
        "change, message",
        [
            (dict(stride=True), "stride must be an integer, got True"),
            (dict(width=128.0), "width must be an integer, got 128.0"),
            (dict(width=True), "width must be an integer, got True"),
            (dict(stride=2.5), "stride must be an integer, got 2.5"),
            (dict(width=3), "width must be at least 4, got 3"),
        ],
    )
    def test_window_counts_follow_the_integer_rule(self, change, message):
        with pytest.raises(InvalidWindowError, match=f"^{re.escape(message)}$"):
            AnalysisConfig(**change)

    def test_unknown_transform_is_config_error(self):
        with pytest.raises(ConfigurationError, match="transform must be one of .* got 'bogus'"):
            AnalysisConfig(transform="bogus")

    def test_mean_kl_below_js_names_window(self):
        # JS on raw spectra and KL on floored ones once broke the bound on
        # this panel's noise window; both now see the floored spectra, so a
        # break can only come from a faulty kernel, as an internal error.
        rng = np.random.default_rng(4)
        t = np.arange(128)
        tones = np.array([np.cos(2 * np.pi * b * t / 128) for b in (8, 20, 37, 50)])
        panel = SignalPanel(
            np.hstack([tones, rng.normal(size=(4, 128))]), ("a", "b", "c", "d"), 1.0
        )
        cfg = AnalysisConfig(width=128, stride=128, kl_floor=0.005)
        result = analyze(panel, cfg)
        assert result.js.size == 2 and np.all(result.mean_kl >= result.js - 1e-9)

        def no_divergence(probs):
            return np.zeros(probs.shape[:-1] + probs.shape[-2:-1])

        with mock.patch.object(pipeline, "kl_matrices", no_divergence):
            with pytest.raises(RuntimeError, match=r"window at 0: JS .* exceeds the weighted mean KL 0\.0"):
                analyze(panel, cfg)

    def test_skipped_windows_log_one_summary(self, caplog):
        rng = np.random.default_rng(12)
        values = rng.normal(size=(3, 640))
        values[0, :128] = 2.0  # windows 0 and 64 see a constant channel
        values[2, 384:512] = -1.0  # and windows 384 and 448
        panel = SignalPanel(values, ("a", "b", "c"), 1.0)
        with caplog.at_level(logging.DEBUG, logger="specdist.pipeline"):
            result = analyze(panel, AnalysisConfig(width=64, stride=64))
        assert result.gap_times.tolist() == [0.0, 3840.0, 23040.0, 26880.0]
        warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert warnings == ["4 of 10 windows skipped: 4 constant channel"]
        debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
        assert debug == ["windows skipped (constant channel) at starts [0, 64, 384, 448]"]

    @pytest.mark.parametrize("m", [2, 5, 20])
    def test_js_noise_floor_of_independent_channels(self, m):
        """Independent N(0, 1) channels share one flat spectrum, so all of
        their JS is estimation noise, and it is not 0.  A periodogram bin
        scatters about its mean like an exponential variable (relative
        variance 1), so chi^2 of each member against the mixture is about 1
        and, to leading order, JS = (M - 1) / (2M).  The higher-order terms
        pull it below that law: the mean JS lies in [1/2, 1] of it."""
        js = analyze(noise_panel(m=m, length=6144, seed=m), AnalysisConfig(width=128, stride=64)).js
        law = (m - 1) / (2 * m)
        assert 0.5 * law <= js.mean() <= law


class TestMemory:
    def test_analyze_keeps_no_kl_matrices(self):
        # 1873 windows of 40 channels: their KL matrices alone take 24 MB,
        # the per-window rows a result keeps 1.2 MB.
        panel = noise_panel(m=40, length=2000, seed=1)
        tracemalloc.start()
        try:
            result = analyze(panel, AnalysisConfig(width=128, stride=1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.js.size == 1873
        assert peak < 6e6


class TestKernelOracle:
    """Every scored window of `analyze` against the scalar oracles."""

    @given(
        m=st.sampled_from([2, 5, 20]),
        width=st.sampled_from([15, 16, 127, 128]),
        floor=st.sampled_from([0.0, 1e-12, 1e-3]),
        n_windows=st.integers(1, 9),
        chunk_windows=st.sampled_from([None, 1, 2, 4]),
        uniform=st.booleans(),
        identical=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_scored_windows_match_oracles(
        self, m, width, floor, n_windows, chunk_windows, uniform, identical, seed
    ):
        rng = np.random.default_rng(seed)
        values = rng.normal(size=(m, n_windows * width))
        if identical:
            values[1] = values[0]
        flat = rng.random(n_windows) < 0.2
        for k in np.flatnonzero(flat):
            values[m - 1, k * width : (k + 1) * width] = 1.5
        raw = rng.random(m) + 0.05
        weights = None if uniform else tuple(raw / raw.sum())
        panel = SignalPanel(values, tuple(f"c{i}" for i in range(m)), 1.0)
        cfg = AnalysisConfig(width=width, stride=width, weights=weights, kl_floor=floor)
        # None keeps the module's chunk size; a small one puts chunk edges
        # inside the window range.
        chunk = pipeline.CHUNK_SAMPLES if chunk_windows is None else chunk_windows * m * width
        with mock.patch.object(pipeline, "CHUNK_SAMPLES", chunk):
            result, kls, spectra = dumped(panel, cfg)

        scored = np.flatnonzero(~flat)
        assert result.gap_times.tolist() == (np.flatnonzero(flat) * width * 60.0).tolist()
        assert result.timestamps.tolist() == (scored * width * 60.0).tolist()
        pi = np.full(m, 1.0 / m) if uniform else np.array(weights)
        for row, k in enumerate(scored):
            probs = []
            for ch in range(m):
                power = direct_periodogram(values[ch, k * width : (k + 1) * width], 1.0)[1:]
                expected = power / power.sum()
                got = spectra[row, ch]
                assert np.all(np.abs(got - expected) <= 1e-10 * np.maximum(expected, 1e-300))
                p = got.tolist()
                probs.append(p)
                assert result.entropies[row, ch] == pytest.approx(scalar_entropy(p), rel=1e-12)
                assert result.modes[row, ch] == folded_mode(p, width, 1.0)
            kl = kls[row]
            assert np.all(np.diag(kl) == 0.0) and np.all(kl >= 0.0)
            for l in range(m):
                for j in range(m):
                    if l != j:
                        expected = scalar_kl(probs[l], probs[j], floor)
                        assert kl[l, j] == pytest.approx(expected, rel=1e-10, abs=1e-15)
            if identical:
                assert kl[0, 1] == 0.0 and kl[1, 0] == 0.0
            assert result.mean_kl[row] == pytest.approx(double_loop_mean(kl.tolist()), rel=1e-12)
            dists = [scalar_floor(p, floor) for p in probs]
            mixture = [sum(w * p[b] for w, p in zip(pi, dists)) for b in range(width - 1)]
            js = scalar_entropy(mixture) - sum(w * scalar_entropy(p) for w, p in zip(pi, dists))
            assert result.js[row] == pytest.approx(js, rel=1e-10, abs=1e-12)

    @given(seed=st.integers(0, 2**16), m=st.integers(2, 6))
    @settings(max_examples=40, deadline=None)
    def test_literal_kl_on_empty_bins_matches_oracle(self, seed, m):
        rng = np.random.default_rng(seed)
        members = []
        for _ in range(m):
            raw = rng.random(12) * (rng.random(12) < 0.6)
            raw[rng.integers(12)] += 0.5
            members.append(raw / raw.sum())
        matrix = kl_matrices(floored(np.array(members), 0.0))
        for l in range(m):
            for j in range(m):
                expected = 0.0 if l == j else scalar_kl(members[l], members[j], 0.0)
                assert matrix[l, j] == pytest.approx(expected, rel=1e-10, abs=1e-15)

    def test_disjoint_support_with_zero_floor_is_infinite(self):
        p = [0.5, 0.5, 0.0, 0.0]
        q = [0.0, 0.0, 0.25, 0.75]
        matrix = kl_matrices(floored(np.array([p, q, p]), 0.0))
        assert matrix[0, 1] == math.inf and matrix[1, 0] == math.inf
        assert matrix[0, 2] == 0.0 and np.all(np.diag(matrix) == 0.0)


class TestLinBound:
    """JS <= sum_ij pi_i pi_j KL(p_i, p_j) on every window (Lin 1991)."""

    def test_four_tones_at_the_top_of_the_floor_range(self):
        # JS of the raw, disjoint tones is ln 4 = 1.386; the floored KL
        # mean was 1.217 below it.
        t = np.arange(128)
        tones = np.array([np.cos(2 * np.pi * b * t / 128) for b in (3, 9, 17, 30)])
        panel = SignalPanel(tones, ("a", "b", "c", "d"), 1.0)
        result = analyze(panel, AnalysisConfig(width=128, kl_floor=0.0078))
        assert result.js[0] < math.log(4) and result.mean_kl[0] >= result.js[0]

    def test_skewed_weights_bound_by_the_weighted_mean(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=128), rng.normal(size=128)
        panel = SignalPanel(np.vstack([a] + [b] * 11), tuple(f"c{i:02d}" for i in range(12)), 1.0)
        weights = (0.45,) + (0.01,) * 10 + (0.45,)
        cfg = AnalysisConfig(width=128, weights=weights)
        result, kl, _ = dumped(panel, cfg)
        w = np.array(weights)
        assert result.js[0] <= w @ kl[0] @ w
        # The uniform mean is no bound once the weights are skewed.
        assert result.mean_kl[0] < result.js[0]

    @given(
        m=st.integers(2, 6),
        width=st.sampled_from([8, 16, 33, 128]),
        floor_share=st.floats(0.0, 0.9999),
        uniform=st.booleans(),
        tones=st.booleans(),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_bound_holds_for_every_floor_and_weights(
        self, m, width, floor_share, uniform, tones, seed
    ):
        rng = np.random.default_rng(seed)
        t = np.arange(3 * width)
        if tones:  # nearly disjoint supports, where the floor matters most
            bins = rng.integers(1, width // 2, m)
            values = np.cos(2 * np.pi * bins[:, None] * t / width) + 1e-3 * rng.normal(size=(m, t.size))
        else:
            values = rng.normal(size=(m, t.size)) * rng.uniform(0.1, 10, (m, 1))
        values[rng.random(m) < 0.3] = values[0]
        raw = rng.random(m) ** 4 + 1e-3
        weights = None if uniform else tuple(raw / raw.sum())
        cfg = AnalysisConfig(
            width=width, stride=width, weights=weights, kl_floor=floor_share / (width - 1)
        )
        panel = SignalPanel(values, tuple(f"c{i}" for i in range(m)), 1.0)
        result, kl, _ = dumped(panel, cfg)
        w = np.full(m, 1 / m) if uniform else np.array(weights)
        assert np.all(result.js <= np.einsum("m,wmn,n->w", w, kl, w) + 1e-9)
        if uniform:
            assert np.all(result.mean_kl >= result.js - 1e-9)


class TestMetricsCsv:
    def test_an_undecodable_byte_is_named_by_its_file_offset(self, tmp_path):
        """In a metrics file over 64 KiB, a byte near its end that is not
        UTF-8 is named by its offset in the file."""
        result = analyze(noise_panel(m=3, length=8192, seed=4), AnalysisConfig(width=32, stride=16))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result, path)
        data = bytearray(path.read_bytes())
        at = len(data) - 10
        data[at] = 0xFF
        path.write_bytes(data)
        assert len(data) > 64 * 1024
        with pytest.raises(FormatError) as info:
            read_metrics_csv(path)
        assert str(info.value) == f"{path}: byte {at}: not UTF-8 text"

    def test_round_trip_exact(self, tmp_path):
        panel = noise_panel(m=3, length=640, seed=2)
        result = analyze(panel, AnalysisConfig(width=128, stride=64))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result, path)
        table = read_metrics_csv(path)
        assert table.labels == result.labels
        assert table.provenance["width"] == "128"
        assert table.provenance["stride"] == "64"
        assert np.array_equal(table.js, result.js)
        assert np.array_equal(table.mean_kl, result.mean_kl)
        assert np.array_equal(table.timestamps, result.timestamps)
        assert np.array_equal(table.entropies, result.entropies)
        assert np.array_equal(table.modes, result.modes)
        assert table.entropies.shape == (result.js.size, 3)

    @given(
        dt=st.sampled_from([1.0, 1 / 3, 1 / 7, 2.5, 1 / 13, 1 / 60_000]),
        t0_us=st.integers(0, 4_000_000_000_000_000),
    )
    @example(dt=1 / 7, t0_us=1_160_000_000_000_000)
    @settings(max_examples=30, deadline=None)
    def test_every_window_start_survives_the_file(self, tmp_path_factory, dt, t0_us):
        """A result read back from its metrics file holds every window start
        it was written with, so `compare_metric_series` pairs every window."""
        panel = SignalPanel(np.random.default_rng(9).normal(size=(3, 2000)), ("a", "b", "c"), dt, t0_us / 10**6)
        result = analyze(panel, AnalysisConfig(width=64, stride=32))
        path = tmp_path_factory.mktemp("metrics") / "metrics.csv"
        write_metrics_csv(result, path)
        table = read_metrics_csv(path)
        assert np.array_equal(table.timestamps, result.timestamps)
        assert compare_metric_series(result, table).windows == result.js.size == 61

    def test_header_records_the_weights(self, tmp_path):
        panel = noise_panel(m=3, length=256, seed=11)
        cfg = AnalysisConfig(width=128, stride=64, weights=(0.8, 0.1, 0.1))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(analyze(panel, cfg), path)
        header = read_metrics_csv(path).provenance
        assert header["weights"] == "0.8,0.1,0.1"
        again = AnalysisConfig(
            width=int(header["width"]),
            stride=int(header["stride"]),
            transform=header["transform"],
            weights=tuple(float(w) for w in header["weights"].split(",")),
            kl_floor=float(header["floor"]),
        )
        assert again == cfg and again.provenance() == header
        # Uniform weights keep their token, and so their digest.
        assert AnalysisConfig(width=128, stride=64).provenance() == {
            "cfg": "18a6825c7a7c", "width": "128", "stride": "64", "transform": "raw",
            "floor": "1e-12", "weights": "uniform",
        }

    def test_gap_rows_are_comments(self, tmp_path):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(2, 256))
        values[1, :64] = 1.0
        panel = SignalPanel(values, ("a", "b"), 1.0)
        result = analyze(panel, AnalysisConfig(width=64, stride=64))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result, path)
        text = path.read_text()
        assert "# gap=1970-01-01T00:00:00Z" in text
        table = read_metrics_csv(path)
        assert table.js.size == 3
        assert table.gap_times.tolist() == [0.0]

    def test_window_starts_must_increase(self, tmp_path):
        path = tmp_path / "metrics.csv"
        write_metrics_csv(analyze(noise_panel(m=2, length=384), AnalysisConfig(width=128)), path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines + [lines[-1]]) + "\n")
        with pytest.raises(FormatError, match="strictly increase"):
            read_metrics_csv(path)

    def test_round_trip_with_interleaved_gaps(self, tmp_path):
        rng = np.random.default_rng(5)
        result = AnalysisResult(
            timestamps=np.array([0.0, 120.0, 300.0, 1.5e9 + 0.125]),
            js=rng.random(4),
            mean_kl=np.array([0.5, np.inf, 1e-300, 2.0]),
            entropies=rng.random((4, 2)),
            modes=rng.random((4, 2)),
            labels=("a/b", "c"),
            provenance={"cfg": "abc", "width": "4", "stride": "2"},
            gap_times=np.array([60.0, 180.0, 240.0, 1.6e9]),
        )
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# cfg=abc width=4 stride=2"
        assert lines[1] == "window_start_time,js,mean_kl,H_a/b,H_c,mode_a/b,mode_c"
        starts = [line.split(",")[0] for line in lines[2:]]
        assert starts == [
            "1970-01-01T00:00:00Z",
            "# gap=1970-01-01T00:01:00Z",
            "1970-01-01T00:02:00Z",
            "# gap=1970-01-01T00:03:00Z",
            "# gap=1970-01-01T00:04:00Z",
            "1970-01-01T00:05:00Z",
            "2017-07-14T02:40:00.125000Z",
            "# gap=2020-09-13T12:26:40Z",
        ]
        back = read_metrics_csv(path)
        for name in ("timestamps", "js", "mean_kl", "entropies", "modes", "gap_times"):
            assert np.array_equal(getattr(back, name), getattr(result, name)), name
        assert back.labels == result.labels
        assert back.provenance == result.provenance

    @given(
        t0_ms=st.integers(0, 4_000_000_000_000),
        dt=st.sampled_from([1.0, 1 / 3, 1 / 7, 2.5, 1 / 60_000]),
        shape=st.integers(4, 48).flatmap(lambda w: st.tuples(st.just(w), st.integers(w, 64), st.integers(1, 64))),
    )
    @example(t0_ms=1_160_956_800_123, dt=1 / 7, shape=(4, 40, 1))
    @settings(max_examples=40, deadline=None)
    def test_window_starts_are_the_panel_row_stamps(self, tmp_path_factory, t0_ms, dt, shape):
        """Each window-start stamp of a metrics file is the stamp of the
        panel file's row at the window's first sample, whatever t0, dt,
        width and stride."""
        width, length, stride = shape
        values = np.random.default_rng(1).normal(size=(2, length))
        folder = tmp_path_factory.mktemp("grid")
        write_panel_csv(SignalPanel(values, ("a", "b"), dt, t0_ms / 1000), folder / "panel.csv")
        result = analyze(read_panel_csv(folder / "panel.csv"), AnalysisConfig(width=width, stride=stride))
        write_metrics_csv(result, folder / "metrics.csv")
        rows = [line.split(",")[0] for line in (folder / "panel.csv").read_text().splitlines()[2:]]
        starts = [line.split(",")[0] for line in (folder / "metrics.csv").read_text().splitlines()[2:]]
        assert starts == rows[: length - width + 1 : stride]

    METRICS = (
        "# cfg=abc width=4 stride=4 transform=raw floor=1e-12 weights=uniform\n"
        "window_start_time,js,mean_kl,H_a,H_b,mode_a,mode_b\n"
        "1970-01-01T00:00:00Z,0.1,0.2,1.0,1.1,0.25,0.5\n"
        "\n"
        "# gap=1970-01-01T00:04:00Z\n"
        "1970-01-01T00:08:00Z,0.3,0.4,1.2,1.3,0.25,0.25\n"
    )

    @pytest.mark.parametrize(
        "line, text, reason",
        [
            (3, "1970-01-01T00:00:00Z,0.1,abc,1.0,1.1,0.25,0.5", "could not convert string to float: 'abc'"),
            (6, "1970-01-0xT00:08:00Z,0.3,0.4,1.2,1.3,0.25,0.25", "bad RFC-3339 time"),
            (6, "1970-01-01T00:08:00Z,0.3,0.4,1.2,1.3,0.25", "expected 7 fields, got 6"),
            (2, "window_start_time,js,mean_kl,H_a,H_a,mode_a,mode_a", "a column name repeats"),
            (6, "1970-01-01T00:00:00Z,0.3,0.4,1.2,1.3,0.25,0.25", "does not strictly increase"),
            # A row's time, and its increase, is checked before its numbers.
            (6, "1970-01-01T00:00:00Z,0.3,abc,1.2,1.3,0.25,0.25", "time 1970-01-01T00:00:00Z does not strictly increase"),
            (5, "# gap=1970-01-01T00:04:00", None),  # naive time: read as UTC
            (5, "# gap=1970-13-01T00:04:00Z", "bad gap time '1970-13-01T00:04:00Z'"),
            (2, "window_start_time,js,mean_kl,H_a,H_b,mode_a,mode_c", "expected header"),
        ],
    )
    def test_unreadable_line_is_named(self, tmp_path, line, text, reason):
        lines = self.METRICS.splitlines()
        lines[line - 1] = text
        path = tmp_path / "metrics.csv"
        path.write_text("\n".join(lines) + "\n")
        if reason is None:
            assert read_metrics_csv(path).gap_times.tolist() == [240.0]
            return
        with pytest.raises(FormatError) as info:
            read_metrics_csv(path)
        assert str(info.value).startswith(f"{path}: line {line}: ")
        assert reason in str(info.value)

    @pytest.mark.parametrize("batch", [1, 4096])
    @pytest.mark.parametrize(
        "edits, line, reason",
        [
            ({5: "# gap=1970-01-01T00:02:00-00:00 gap=1970-01-01t00:04:00.5z gap=1970-01-01T01:06:00+01:00"},
             None, [120.0, 240.5, 360.0]),
            ({4: "# gap=1970-01-01T00:01:00Z gap=1970-01-01T00:02:0Z", 5: "# gap=1970-01-01T00:04:00+0100"},
             4, "bad gap time '1970-01-01T00:02:0Z'"),
            ({4: "# gap=1970-01-01T00:01:00Z", 5: "# gap=1970-01-01T00:04:00+0100"},
             5, "bad gap time '1970-01-01T00:04:00+0100'"),
            ({5: "# gap=1970-01-01T00:04:0Z", 6: "1970-01-01T00:08:0Z,0.3,0.4,1.2,1.3,0.25,0.25"},
             6, "bad RFC-3339 time: '1970-01-01T00:08:0Z'"),
        ],
    )
    def test_gap_tokens_after_the_rows(self, tmp_path, edits, line, reason, batch):
        """Every `gap=` token is converted in one call once the rows are
        read; the first bad one is named by its line, unless a row is bad."""
        lines = self.METRICS.splitlines()
        for at, text in edits.items():
            lines[at - 1] = text
        path = tmp_path / "metrics.csv"
        path.write_text("\n".join(lines) + "\n")
        with mock.patch.object(ingest, "_TABLE_BATCH", batch):
            if line is None:
                assert read_metrics_csv(path).gap_times.tolist() == reason
                return
            with pytest.raises(FormatError) as info:
                read_metrics_csv(path)
        assert str(info.value) == f"{path}: line {line}: {reason}"

    def test_kl_dump_long_format(self, tmp_path):
        panel = noise_panel(m=2, length=128)
        path = tmp_path / "kl.csv"
        result = analyze(panel, AnalysisConfig(width=128), dump_kl=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "# channels=ch0|ch1"
        assert lines[1] == "window_start_time,l,m,kl"
        assert len(lines) == 2 + 4  # one window, 2x2 matrix
        cells = [line.split(",") for line in lines[2:]]
        assert [c[:3] for c in cells] == [["1970-01-01T00:00:00Z", l, j] for l in "01" for j in "01"]
        kl = [float(c[3]) for c in cells]
        assert kl[0] == kl[3] == 0.0 and kl[1] > 0.0 and kl[2] > 0.0
        assert result.mean_kl[0] == pytest.approx(sum(kl) / 4, rel=1e-12)

    def test_spectra_dump(self, tmp_path):
        panel = noise_panel(m=2, length=128)
        path = tmp_path / "spectra.csv"
        analyze(panel, AnalysisConfig(width=128), dump_spectra=path)
        lines = path.read_text().splitlines()
        assert lines[0] == "window_start_time,channel,frequency,prob"
        assert len(lines) == 1 + 2 * 127
        stamp, channel, freq, prob = lines[1].split(",")
        assert (stamp, channel, freq) == ("1970-01-01T00:00:00Z", "ch0", repr(1 / 128))
        power = direct_periodogram(panel.values[0], 1.0)[1:]
        assert float(prob) == pytest.approx(power[0] / power.sum(), rel=1e-10)

    @pytest.mark.parametrize("width", [15, 128])
    def test_spectra_dump_mirror_rows_hold_one_text(self, tmp_path, width):
        # Bins n and N-n of a real window hold the same probability; an odd
        # width has no Nyquist bin, an even one has its own mirror there.
        panel = noise_panel(m=2, length=3 * width, seed=9)
        path = tmp_path / "spectra.csv"
        result = analyze(panel, AnalysisConfig(width=width, stride=width), dump_spectra=path)
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        assert len(rows) == result.js.size * 2 * (width - 1) == 3 * 2 * (width - 1)
        for lo in range(0, len(rows), width - 1):
            block = rows[lo : lo + width - 1]
            assert len({(stamp, channel) for stamp, channel, _, _ in block}) == 1
            assert [freq for _, _, freq, _ in block] == [repr(n / width) for n in range(1, width)]
            probs = [prob for _, _, _, prob in block]
            assert probs == probs[::-1]
        assert len({prob for *_, prob in rows[: width - 1]}) == width // 2

    @pytest.mark.parametrize("chunk_windows", [1, 2, 3])
    def test_dumps_stream_every_scored_window_once(self, tmp_path, chunk_windows):
        rng = np.random.default_rng(6)
        values = rng.normal(size=(3, 448))
        values[1, 96:224] = 0.5  # windows at 96, 128 and 160 are skipped
        panel = SignalPanel(values, ("a", "b", "c"), 1.0)
        cfg = AnalysisConfig(width=64, stride=32, channels=("c", "a", "b"))
        whole = tmp_path / "whole"
        whole.mkdir()
        result = analyze(panel, cfg, dump_kl=whole / "kl.csv", dump_spectra=whole / "spectra.csv")
        with mock.patch.object(pipeline, "CHUNK_SAMPLES", chunk_windows * 3 * 64):
            analyze(panel, cfg, dump_kl=tmp_path / "kl.csv", dump_spectra=tmp_path / "spectra.csv")
        for name in ("kl.csv", "spectra.csv"):
            assert (tmp_path / name).read_bytes() == (whole / name).read_bytes()
        assert result.js.size == 10 and result.gap_times.size == 3
        kl_lines = (tmp_path / "kl.csv").read_text().splitlines()
        assert kl_lines[0] == "# channels=c|a|b"
        kl_stamps = [line.split(",")[0] for line in kl_lines[2:]]
        spectra_lines = (tmp_path / "spectra.csv").read_text().splitlines()[1:]
        spectra_stamps = [line.split(",")[0] for line in spectra_lines]
        stamps = [format_rfc3339(t) for t in result.timestamps.tolist()]
        assert kl_stamps == [s for s in stamps for _ in range(9)]
        assert spectra_stamps == [s for s in stamps for _ in range(3 * 63)]

    @pytest.mark.parametrize("dump", DUMP_IDS, ids=DUMP_IDS.get)
    def test_refused_panel_leaves_no_dump(self, tmp_path, dump):
        path = tmp_path / "dump.csv"
        with pytest.raises(AnalysisError, match="need at least 2 channels"):
            analyze(noise_panel(m=1, length=128), AnalysisConfig(width=128), **{dump: path})
        with pytest.raises(AnalysisError, match="shorter than window"):
            analyze(noise_panel(m=2, length=100), AnalysisConfig(width=128), **{dump: path})
        assert not path.exists()

    @pytest.mark.parametrize(
        "dump, label",
        [("dump_kl", "a,b"), ("dump_kl", "a|b"), ("dump_spectra", "a,b"), ("dump_spectra", ' a"b')],
        ids=DUMP_IDS.get,
    )
    def test_unsplittable_label_is_refused_before_writing(self, tmp_path, dump, label):
        panel = SignalPanel(noise_panel(m=2, length=128).values, (label, "c"), 1.0)
        path = tmp_path / "dump.csv"
        other = {"dump_kl": "dump_spectra", "dump_spectra": "dump_kl"}[dump]
        with pytest.raises(FormatError, match=re.escape(f"column name {label!r} cannot be written")):
            analyze(panel, AnalysisConfig(width=128), **{dump: path, other: tmp_path / "other.csv"})
        assert list(tmp_path.iterdir()) == []

    def test_dump_labels_keep_inner_spaces_and_spectra_bars(self, tmp_path):
        panel = SignalPanel(noise_panel(m=2, length=128).values, ("a b", "c|d"), 1.0)
        analyze(panel, AnalysisConfig(width=128), dump_spectra=tmp_path / "spectra.csv")
        channels = {line.split(",")[1] for line in (tmp_path / "spectra.csv").read_text().splitlines()[1:]}
        assert channels == {"a b", "c|d"}
        spaced = SignalPanel(panel.values, ("a b", "c"), 1.0)
        analyze(spaced, AnalysisConfig(width=128), dump_kl=tmp_path / "kl.csv")
        assert (tmp_path / "kl.csv").read_text().startswith("# channels=a b|c\n")

    def test_both_dumps_score_each_window_once(self, tmp_path):
        panel = noise_panel(m=3, length=64 * 11, seed=4)
        cfg = AnalysisConfig(width=64, stride=64)
        spectra = mock.Mock(wraps=pipeline.power_spectra)
        with mock.patch.object(pipeline, "CHUNK_SAMPLES", 2 * 3 * 64), \
                mock.patch.object(pipeline, "power_spectra", spectra):
            result = analyze(panel, cfg, dump_kl=tmp_path / "kl.csv", dump_spectra=tmp_path / "s.csv")
        assert result.js.size == 11
        assert [call.args[0].shape for call in spectra.call_args_list] == [(2, 3, 64)] * 5 + [(1, 3, 64)]

    def test_one_file_for_both_dumps_is_refused(self, tmp_path):
        path = tmp_path / "dump.csv"
        with pytest.raises(ConfigurationError, match="need two files"):
            analyze(noise_panel(m=2, length=128), AnalysisConfig(width=128), dump_kl=path,
                    dump_spectra=tmp_path / "." / "dump.csv")
        assert not path.exists()

    @pytest.mark.parametrize("failure", ["Lin's bound", "write error"])
    def test_failure_after_opening_removes_the_dumps(self, tmp_path, failure):
        # The second of four chunks breaks Lin's bound or fills the disk.
        panel = noise_panel(m=2, length=512, seed=7)
        kl, spectra = tmp_path / "kl.csv", tmp_path / "spectra.csv"
        spectra.write_text("an older dump\n")
        chunks = []

        def zero_on_second_chunk(probs):
            chunks.append(probs.shape)
            out = kl_matrices(probs)
            return out * 0.0 if len(chunks) == 2 and failure == "Lin's bound" else out

        def full_disk(path, *args, **kwargs):
            fh = open(path, *args, **kwargs)
            write = fh.write

            def full_write(text):
                if len(chunks) == 2 and failure == "write error":
                    raise OSError(28, "No space left on device")
                return write(text)

            fh.write = full_write
            return fh

        # The second chunk's first window starts at sample 128.
        error, match = (RuntimeError, "window at 128: ") if failure == "Lin's bound" else (OSError, None)
        with mock.patch.object(pipeline, "CHUNK_SAMPLES", 2 * 2 * 64), \
                mock.patch.object(pipeline, "kl_matrices", zero_on_second_chunk), \
                mock.patch.object(pipeline, "open", full_disk, create=True):
            with pytest.raises(error, match=match):
                analyze(panel, AnalysisConfig(width=64, stride=64), dump_kl=kl, dump_spectra=spectra)
        assert len(chunks) == 2
        assert list(tmp_path.iterdir()) == []


def metric_result(js, stamps=None, mean_kl=None, stride="64"):
    """An `AnalysisResult` carrying only the columns `compare` reads."""
    js = np.asarray(js, dtype=float)
    stamps = np.arange(js.size) * 60.0 if stamps is None else np.asarray(stamps, dtype=float)
    return AnalysisResult(
        timestamps=stamps,
        js=js,
        mean_kl=js if mean_kl is None else np.asarray(mean_kl, dtype=float),
        entropies=np.zeros((js.size, 0)),
        modes=np.zeros((js.size, 0)),
        labels=(),
        provenance={"width": "128", "stride": stride},
        gap_times=np.empty(0),
    )


class TestCompare:
    def test_identity_comparison(self):
        a = metric_result([0.1, 0.4, 0.2, 0.9])
        report = compare_metric_series(a, a)
        assert report.correlation == pytest.approx(1.0, abs=1e-12)
        assert report.slope == pytest.approx(1.0, abs=1e-12)
        assert report.windows == 4

    def test_proportional_pair(self):
        a = metric_result([0.1, 0.4, 0.2, 0.9])
        b = metric_result([0.42 * v for v in [0.1, 0.4, 0.2, 0.9]])
        report = compare_metric_series(a, b)
        assert report.slope == pytest.approx(0.42, abs=1e-12)

    def test_fields_pick_columns(self):
        x = [0.1, 0.4, 0.2, 0.9]
        a = metric_result([1.0, 3.0, 2.0, 5.0], mean_kl=x)
        report = compare_metric_series(a, a, "mean_kl", "js")
        assert report.correlation == cross_correlation(x, a.js)
        assert report.slope == fit_proportionality(x, a.js)
        with pytest.raises(ValueError, match="unknown metric field"):
            compare_metric_series(a, a, "entropies", "js")

    def test_affine_fit_reports_intercept(self):
        a = metric_result([0.0, 1.0, 2.0, 3.0])
        b = metric_result([1.0, 1.5, 2.0, 2.5])
        report = compare_metric_series(a, b, fit="affine")
        assert report.intercept == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="fit must be"):
            compare_metric_series(a, b, fit="log")

    def test_windows_paired_by_start_time(self):
        # Left scored one window more at the end and skipped the one at 120;
        # right starts a window later.
        left = metric_result([0.5, 0.1, 0.4, 0.9, 0.3], stamps=[0.0, 60.0, 180.0, 240.0, 300.0])
        right = metric_result([0.7, 0.2, 0.6, 0.8, 0.4], stamps=[60.0, 120.0, 180.0, 240.0, 360.0])
        report = compare_metric_series(left, right)
        x, y = [0.1, 0.4, 0.9], [0.7, 0.6, 0.8]
        assert report.windows == 3
        assert report.correlation == cross_correlation(x, y)
        assert report.slope == fit_proportionality(x, y)

    def test_misaligned_grids_rejected(self):
        a = metric_result([1.0, 2.0, 3.0])
        b = metric_result([1.0, 2.0, 3.0], stamps=np.array([60.0, 150.0, 210.0]))
        with pytest.raises(AlignmentError, match="window grids differ between inputs: 1 common"):
            compare_metric_series(a, b)

    def test_input_with_too_few_windows_rejected(self):
        a = metric_result([1.0, 2.0, 3.0])
        with pytest.raises(AnalysisError, match=r"right input has 1 scored window\(s\), need 2"):
            compare_metric_series(a, metric_result([1.0]))
        with pytest.raises(AnalysisError, match=r"left input has 0 scored window\(s\), need 2"):
            compare_metric_series(metric_result([]), a)

    def test_non_finite_paired_value_rejected(self):
        a = metric_result([1.0, 2.0, 3.0, np.inf])
        b = metric_result([1.0, 2.5, 2.0])
        assert compare_metric_series(a, b).windows == 3  # the inf window is unpaired
        with pytest.raises(ValueError, match="must be finite"):
            compare_metric_series(a, metric_result([1.0, 2.5, 2.0, 4.0]))

    def test_different_geometry_rejected(self, tmp_path):
        panel = noise_panel(m=2, length=640, seed=6)
        res_a = analyze(panel, AnalysisConfig(width=128, stride=64))
        res_b = analyze(panel, AnalysisConfig(width=128, stride=128))
        path_a, path_b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(res_a, path_a)
        write_metrics_csv(res_b, path_b)
        # Every start of b is a start of a: only the provenance tells them apart.
        with pytest.raises(AlignmentError, match="stride differs between inputs: 64 vs 128"):
            compare_metric_series(read_metrics_csv(path_a), read_metrics_csv(path_b))


class TestEntropySweep:
    def test_sweep_shapes_and_ranges(self):
        base = SimConfig(n_agents=40, n_commodities=3, horizon=160, warmup=16, seed=0)
        points = entropy_sweep(
            [-1.0, 0.0],
            base,
            AnalysisConfig(width=32, stride=32),
            seeds=2,
            center=2.0,
        )
        assert len(points) == 2
        for point, h in zip(points, (-1.0, 0.0)):
            assert point.h_a == h
            width = point.a_range[1] - point.a_range[0]
            assert width == pytest.approx(math.exp(h), rel=1e-12)
            assert len(point.per_seed) == 2
            assert point.mean_js == pytest.approx(float(np.mean(point.per_seed)))

    def test_numpy_center_gives_a_table_of_plain_numbers(self):
        base = SimConfig(n_agents=40, n_commodities=3, horizon=160, warmup=16, seed=0)
        analysis = AnalysisConfig(width=32, stride=32)
        points = entropy_sweep([-1.0], base, analysis, seeds=1, center=np.float64(2.0))
        assert points == entropy_sweep([-1.0], base, analysis, seeds=1, center=2.0)
        assert list(map(type, points[0].a_range)) == [float, float]
        out = io.StringIO()
        write_sweep_csv(points, out)
        assert "np." not in out.getvalue()

    def test_pool_computes_what_each_run_computes_alone(self, monkeypatch):
        base = SimConfig(n_agents=40, n_commodities=3, horizon=160, warmup=16, seed=5)
        analysis = AnalysisConfig(width=32, stride=32)
        points = entropy_sweep([-1.0, 0.0], base, analysis, seeds=2, center=2.0)
        assert multiprocessing.active_children() == []
        # H_a first, then seed: a wrong slice of the runs would scramble these.
        for point in points:
            for k, got in enumerate(point.per_seed):
                cfg = replace(base, a_range=point.a_range, seed=base.seed + k)
                assert got == float(np.mean(analyze(run_simulation(cfg)[1], analysis).js))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # a pool of one
        assert entropy_sweep([-1.0, 0.0], base, analysis, seeds=2, center=2.0) == points
        assert entropy_sweep([], base, analysis, seeds=2) == []

    # Group sizes per seed on C CPUs for three H_a values: each seed is cut
    # into min(3, C // gcd(seeds, C)) contiguous slices.
    @pytest.mark.parametrize("seeds, sizes_by_cpus", [
        (1, {1: [3], 2: [1, 2], 4: [1, 1, 1]}),
        (2, {1: [3], 2: [3], 4: [1, 2]}),
        (3, {1: [3], 2: [1, 2], 4: [1, 1, 1]}),
    ])
    def test_points_do_not_depend_on_the_cpus(self, tmp_path, monkeypatch, seeds, sizes_by_cpus):
        groups = tmp_path / "groups"

        def simulate(cfg, a_ranges):
            with open(groups, "a") as fh:
                fh.write(f"{cfg.seed}:{len(a_ranges)}\n")
            return run_simulations(cfg, a_ranges)

        monkeypatch.setattr(pipeline, "run_simulations", simulate)
        base = SimConfig(n_agents=40, n_commodities=3, horizon=160, warmup=16, seed=5)
        analysis = AnalysisConfig(width=32, stride=32)
        h_a = [-1.0, 0.0, 0.5]
        alone = [[float(np.mean(analyze(run_simulation(replace(base, seed=5 + k, a_range=(
            2.0 - 0.5 * math.exp(h), 2.0 + 0.5 * math.exp(h))))[1], analysis).js)) for k in range(seeds)]
                 for h in h_a]
        for cpus, sizes in sizes_by_cpus.items():
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            points = entropy_sweep(h_a, base, analysis, seeds=seeds, center=2.0)
            assert [list(p.per_seed) for p in points] == alone
            cut = sorted(line.split(":") for line in groups.read_text().split())
            assert cut == sorted([str(5 + k), str(size)] for k in range(seeds) for size in sizes)
            assert multiprocessing.active_children() == []
            groups.unlink()

    def test_first_failed_run_in_input_order_fails_the_sweep(self, monkeypatch):
        """The reported error is that of the first failed run in (seed, H_a)
        order: a lockstep group is one seed's slice of H_a values."""
        # Seed 0 fails after a pause and seed 1 at once, so on a pool of two
        # the second group fails first in time.
        pause = {0: 0.5, 1: 0.0}

        def simulate(cfg, a_ranges):
            panels = run_simulations(cfg, a_ranges)
            time.sleep(pause[cfg.seed])
            # Constant panels: every window is skipped, none scores.
            return [(rates, SignalPanel(np.ones(activity.values.shape), activity.labels, activity.dt))
                    for rates, activity in panels]

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(pipeline, "run_simulations", simulate)
        base = SimConfig(n_agents=40, n_commodities=3, horizon=160, warmup=16, seed=0)
        with pytest.raises(AnalysisError) as raised:
            entropy_sweep([-1.0, 0.0], base, AnalysisConfig(width=32, stride=32), seeds=2, center=2.0)
        assert str(raised.value) == "no usable windows at H_a=-1.0 seed=0"
        assert multiprocessing.active_children() == []

    def test_failed_run_is_reported_in_seed_then_h_a_order(self, monkeypatch):
        # Only (H_a=0.0, seed 0) and (H_a=-1.0, seed 1) score no window: the
        # first in H_a order would be the second of them.
        silent = {(0.0, 0), (-1.0, 1)}

        def simulate(cfg, a_ranges):
            return [(rates, SignalPanel(np.ones(activity.values.shape), activity.labels, activity.dt))
                    if (round(math.log(a_range[1] - a_range[0]), 9), cfg.seed) in silent else (rates, activity)
                    for a_range, (rates, activity) in zip(a_ranges, run_simulations(cfg, a_ranges))]

        monkeypatch.setattr(pipeline, "run_simulations", simulate)
        base = SimConfig(n_agents=40, n_commodities=3, horizon=160, warmup=16, seed=0)
        for cpus in (1, 2):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: set(range(cpus)))
            with pytest.raises(AnalysisError) as raised:
                entropy_sweep([-1.0, 0.0], base, AnalysisConfig(width=32, stride=32), seeds=2, center=2.0)
            assert str(raised.value) == "no usable windows at H_a=0.0 seed=0"
        silent = {(-1.0, 1)}
        with pytest.raises(AnalysisError, match="no usable windows at H_a=-1.0 seed=1"):
            entropy_sweep([-1.0, 0.0], base, AnalysisConfig(width=32, stride=32), seeds=2, center=2.0)

    def test_failed_run_cancels_the_pending_runs(self, tmp_path, monkeypatch):
        started = tmp_path / "started"

        def simulate(cfg, a_ranges):
            with open(started, "a") as fh:
                fh.write(f"{cfg.seed}\n")
            if cfg.seed == 0:
                raise AnalysisError("the first run fails")
            time.sleep(0.3)
            return run_simulations(cfg, a_ranges)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        monkeypatch.setattr(pipeline, "run_simulations", simulate)
        base = SimConfig(n_agents=40, n_commodities=3, horizon=160, warmup=16, seed=0)
        with pytest.raises(AnalysisError, match="the first run fails"):
            entropy_sweep([0.0], base, AnalysisConfig(width=32, stride=32), seeds=12, center=2.0)
        assert multiprocessing.active_children() == []
        # The two workers' groups (one run each) and the three queued for
        # them finish; the rest never start.
        assert len(started.read_text().split()) < 12

    def test_no_thread_outlives_a_sweep(self, monkeypatch):
        """The pool's own threads are joined when a sweep returns and when
        one of its runs raises."""
        base = SimConfig(n_agents=40, n_commodities=3, horizon=160, warmup=16, seed=0)
        analysis = AnalysisConfig(width=32, stride=32)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        before = threading.active_count()
        assert len(entropy_sweep([-1.0, 0.0], base, analysis, seeds=2, center=2.0)) == 2
        assert threading.active_count() == before

        def fails(cfg, a_ranges):
            raise AnalysisError(f"seed {cfg.seed} fails")

        monkeypatch.setattr(pipeline, "run_simulations", fails)
        with pytest.raises(AnalysisError, match="^seed 0 fails$"):
            entropy_sweep([-1.0, 0.0], base, analysis, seeds=2, center=2.0)
        assert threading.active_count() == before
        assert multiprocessing.active_children() == []

    def test_the_preflight_check_holds_no_panel_of_the_horizon(self, monkeypatch):
        """Bound, fixed before measuring: with no H_a to run, a sweep of 20
        commodities over 800,000 steps allocates at most 4 MB at its peak.  A
        stand-in of the whole horizon takes 128 MB, and its panel's copy as
        much again."""
        def no_simulation(cfg, a_ranges):
            raise AssertionError("simulated with no H_a")

        monkeypatch.setattr(pipeline, "run_simulations", no_simulation)
        base = SimConfig(n_commodities=20, horizon=800_000)
        tracemalloc.start()
        try:
            assert entropy_sweep([], base, AnalysisConfig(), seeds=2) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6, f"peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("seeds", [0, -1, 2.0, 1.5])
    def test_seeds_must_be_a_positive_integer(self, monkeypatch, seeds):
        def no_simulation(cfg, a_ranges):
            raise AssertionError("simulated with a count of seeds that is not a positive integer")

        monkeypatch.setattr(pipeline, "run_simulations", no_simulation)
        base = SimConfig(n_agents=10, n_commodities=2, horizon=64, warmup=0)
        with pytest.raises(ValueError, match=f"^seeds must be a positive integer, got {re.escape(repr(seeds))}$"):
            entropy_sweep([0.0], base, AnalysisConfig(width=16), seeds=seeds, center=1.0)
        assert multiprocessing.active_children() == []

    def test_range_touching_zero_rejected(self, monkeypatch):
        def no_simulation(cfg, a_ranges):
            raise AssertionError("simulated before every H_a was checked")

        monkeypatch.setattr(pipeline, "run_simulations", no_simulation)
        base = SimConfig(n_agents=10, n_commodities=2, horizon=64, warmup=0)
        with pytest.raises(ConfigurationError, match="touch zero"):
            entropy_sweep([0.0, 3.0], base, AnalysisConfig(width=16), seeds=1, center=1.0)
        # A range that is not finite, or has no width, names the H_a and the center.
        for h_a, center, message in [
            (math.nan, 1.0, "H_a=nan gives the range (nan, nan), which must be finite with 0 < a1 < a2 (center 1.0)"),
            (-math.inf, 1.0, "H_a=-inf gives the range (1.0, 1.0)"),
            (-800.0, 1.0, "H_a=-800.0 gives the range (1.0, 1.0)"),
            (0.0, math.nan, "H_a=0.0 gives the range (nan, nan), which must be finite with 0 < a1 < a2 (center nan)"),
        ]:
            with pytest.raises(ConfigurationError, match=re.escape(message)):
                entropy_sweep([0.0, h_a], base, AnalysisConfig(width=16), seeds=1, center=center)
