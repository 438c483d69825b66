import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdist.errors import InvalidWindowError
from specdist.pipeline import AnalysisConfig, analyze
from specdist.spectra import (
    SignalPanel,
    bin_frequencies,
    bin_multiplicities,
    entropies,
    hanning_window,
    mode_frequencies,
    normalize_power,
    power_spectra,
)

from oracles import direct_periodogram, folded_mode, folded_periodogram, scalar_entropy


def make_panel(values, dt=1.0):
    values = np.atleast_2d(np.asarray(values, dtype=float))
    labels = tuple(f"ch{i}" for i in range(values.shape[0]))
    return SignalPanel(values, labels, dt)


class TestHanningWindow:
    def test_width_three_endpoints_and_peak(self):
        assert hanning_window(3).tolist() == [0.0, 1.0, 0.0]

    def test_width_five_quarter_point(self):
        w = hanning_window(5)
        assert w[1] == pytest.approx(0.5, abs=1e-15)

    def test_width_64_symmetry(self):
        w = hanning_window(64)
        assert np.max(np.abs(w - w[::-1])) <= 1e-15

    def test_bounds_and_zero_endpoints(self):
        for width in (2, 3, 8, 33, 100):
            w = hanning_window(width)
            assert w[0] == 0.0 and w[-1] == 0.0
            assert np.all(w >= 0.0) and np.all(w <= 1.0)

    def test_rejects_width_below_two(self):
        with pytest.raises(InvalidWindowError):
            hanning_window(1)


class TestPeriodogram:
    def test_zero_input_gives_zero_spectrum(self):
        ps = power_spectra(np.zeros(32))
        assert np.all(ps == 0.0)

    def test_constant_input_scales_window_leakage(self):
        n = 32
        unit = power_spectra(np.ones(n))
        scaled = power_spectra(np.full(n, 3.0))
        assert np.allclose(
            scaled, 9.0 * unit, rtol=1e-10, atol=1e-16 * unit.max()
        )

    def test_sinusoid_peaks_at_injected_bin(self):
        n = 128
        x = np.cos(2 * np.pi * np.arange(n) * 8 / n)
        ps = power_spectra(x)
        # One-sided: bin 8 holds the tone and its mirror 120 together.
        assert ps.size == n // 2 + 1
        assert int(np.argmax(ps[1:])) + 1 == 8
        oracle = direct_periodogram(x, 1.0)
        assert oracle[8] == pytest.approx(float(np.max(oracle[1:])), rel=1e-12)

    def test_fast_path_matches_direct_sum_on_noise(self):
        rng = np.random.default_rng(7)
        for n in (128, 127):
            x = rng.normal(size=n)
            ps = power_spectra(x)
            oracle = folded_periodogram(x, 1.0)
            assert ps.shape == oracle.shape == (n // 2 + 1,)
            rel = np.abs(ps - oracle) / np.maximum(oracle, 1e-300)
            assert np.max(rel) <= 1e-10

    def test_multiplicities_count_each_ac_bin_once(self):
        assert bin_multiplicities(8).tolist() == [2.0, 2.0, 2.0, 1.0]
        assert bin_multiplicities(7).tolist() == [2.0, 2.0, 2.0]
        for width in (4, 5, 15, 127, 128):
            assert bin_multiplicities(width).sum() == width - 1

    def test_offset_window_uses_the_right_samples(self):
        # Each segment of a stack is transformed on its own samples only.
        rng = np.random.default_rng(3)
        x = rng.normal(size=64)
        panel = make_panel(x)
        stacked = power_spectra(np.stack([panel.values[0, :32], panel.values[0, 20:52]]))
        fresh = power_spectra(x[20:52])
        assert np.array_equal(stacked[1], fresh)

    def test_bin_frequencies(self):
        panel = make_panel(np.sin(np.arange(64.0)), dt=2.0)
        probs, _ = normalize_power(power_spectra(panel.values[0]))
        freqs = bin_frequencies(64, panel.dt)
        assert freqs.size == 63 and probs.size == 32
        assert freqs[0] == pytest.approx(1.0 / 128.0)
        assert freqs[31] == 1.0 / (2 * panel.dt)

    @given(scale=st.floats(min_value=0.01, max_value=100.0), seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_scale_equivariance(self, scale, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=64)
        base = power_spectra(x)
        scaled = power_spectra(scale * x)
        assert np.allclose(scaled, scale**2 * base, rtol=1e-9, atol=1e-300)


class TestNormalizeSpectrum:
    def test_dc_dropped_uniform_remainder(self):
        probs, empty = normalize_power(np.array([5.0, 1.0, 1.0, 1.0]))
        assert np.allclose(probs, [1 / 3, 1 / 3, 1 / 3], rtol=0, atol=1e-15)
        assert not empty

    def test_single_bin_mass(self):
        probs, _ = normalize_power(np.array([0.0, 2.0, 0.0, 0.0]))
        assert probs.tolist() == [1.0, 0.0, 0.0]

    def test_degenerate_all_zero_ac(self):
        # A spectrum with no AC power is flagged and left as a zero row; the
        # other spectra of the stack normalize as usual.
        probs, empty = normalize_power(np.array([[7.0, 0.0, 0.0, 0.0], [0.0, 1.0, 1.0, 2.0]]))
        assert empty.tolist() == [True, False]
        assert probs.tolist() == [[0.0, 0.0, 0.0], [0.25, 0.25, 0.5]]

    @given(seed=st.integers(0, 2**16), bins=st.integers(2, 64))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, seed, bins):
        rng = np.random.default_rng(seed)
        probs, _ = normalize_power(rng.random(bins + 1))
        assert abs(float(probs.sum()) - 1.0) <= 1e-12

    def test_entropy_invariant_under_scaling(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=64)
        c = bin_multiplicities(64)
        h1 = entropies(normalize_power(power_spectra(x))[0], c)
        h2 = entropies(normalize_power(power_spectra(-2.5 * x))[0], c)
        assert h1 == pytest.approx(h2, rel=1e-12)


class TestSpectralEntropy:
    def test_uniform_reaches_log_bins(self):
        assert entropies(np.full(127, 1.0 / 127)) == pytest.approx(math.log(127), abs=1e-12)

    def test_delta_spectrum_is_zero(self):
        probs = np.zeros(127)
        probs[8] = 1.0
        assert entropies(probs) == 0.0

    def test_two_equal_bins(self):
        probs = np.zeros(16)
        probs[0] = probs[1] = 0.5
        assert entropies(probs) == pytest.approx(math.log(2), abs=1e-12)

    @given(seed=st.integers(0, 2**16), bins=st.integers(2, 100))
    @settings(max_examples=60, deadline=None)
    def test_bounds_with_uniform_as_the_only_maximum(self, seed, bins):
        rng = np.random.default_rng(seed)
        raw = rng.random(bins)
        probs = raw / raw.sum()
        h = entropies(probs)
        assert 0.0 <= h <= math.log(bins) + 1e-12
        if np.max(np.abs(probs - 1.0 / bins)) > 1e-3:
            assert h < math.log(bins)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(23)
        raw = rng.random(50)
        probs = raw / raw.sum()
        assert entropies(probs) == pytest.approx(scalar_entropy(probs), rel=1e-12)

    @pytest.mark.parametrize("width", [15, 128])
    def test_one_sided_entropy_is_that_of_all_ac_bins(self, width):
        # A flat spectrum over the N-1 AC bins folds to q = c/(N-1).
        c = bin_multiplicities(width)
        assert entropies(c / (width - 1), c) == pytest.approx(math.log(width - 1), abs=1e-12)
        x = np.random.default_rng(5).normal(size=width)
        power = direct_periodogram(x, 1.0)[1:]
        probs, _ = normalize_power(power_spectra(x))
        assert entropies(probs, c) == pytest.approx(scalar_entropy(power / power.sum()), rel=1e-12)


class TestModeFrequency:
    def test_delta_mode(self):
        probs = np.zeros(64)
        probs[7] = 1.0  # bin n=8 of a 128-wide window
        assert mode_frequencies(probs, 128, 1.0) == pytest.approx(8 / 128)

    def test_uniform_ties_break_to_lowest_frequency(self):
        assert mode_frequencies(np.full(64, 1.0 / 64), 128, 1.0) == pytest.approx(1 / 128)

    def test_sinusoid_panel_mode(self):
        n = 128
        x = np.cos(2 * np.pi * np.arange(n) * 8 / n)
        probs, _ = normalize_power(power_spectra(make_panel(x).values[0]))
        assert mode_frequencies(probs, n, 1.0) == pytest.approx(8 / 128)
        oracle = direct_periodogram(x, 1.0)
        assert oracle[8] == pytest.approx(float(np.max(oracle[1:])), rel=1e-12)

    def test_nyquist_bin_counts_once(self):
        # Nyquist holds 0.277 of the power and the tone at bin 20 0.385: the
        # Nyquist bin is its own mirror, so doubling it would make it the mode.
        n = 128
        k = np.arange(n)
        x = np.cos(2 * np.pi * 20 * k / n) + 0.6 * (-1.0) ** k
        probs, _ = normalize_power(power_spectra(x))
        assert probs[63] == pytest.approx(0.277, abs=1e-3)
        assert probs[19] == pytest.approx(0.385, abs=1e-3)
        assert mode_frequencies(probs, n, 1.0) == 20 / 128
        power = direct_periodogram(x, 1.0)[1:]
        assert folded_mode((power / power.sum()).tolist(), n, 1.0) == 20 / 128

    @given(
        width=st.integers(4, 65),
        dt=st.sampled_from([0.25, 1 / 7, 2.5, 3.0]),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_modes_at_or_below_nyquist(self, width, dt, seed):
        # White noise, odd and even widths, and a random one-sided distribution.
        rng = np.random.default_rng(seed)
        panel = SignalPanel(rng.normal(size=(4, 2 * width)), ("a", "b", "c", "d"), dt)
        result = analyze(panel, AnalysisConfig(width=width, stride=1))
        skewed = rng.dirichlet(np.ones(width // 2))
        modes = np.append(result.modes.ravel(), mode_frequencies(skewed, width, dt))
        # Bin n sits at n/(N*dt); Nyquist is n = N/2.
        assert np.all(np.rint(modes * width * dt) <= width // 2)


class TestPanelValidation:
    def test_rejects_single_sample(self):
        with pytest.raises(ValueError):
            SignalPanel(np.ones((2, 1)), ("a", "b"), 1.0)

    def test_rejects_empty_panel(self):
        with pytest.raises(ValueError, match=r"at least one channel and two samples, got \(2, 0\)"):
            SignalPanel(np.empty((2, 0)), ("a", "b"), 1.0)

    def test_rejects_values_that_are_not_2d(self):
        with pytest.raises(ValueError, match="panel values must be 2-D .* got ndim=3"):
            SignalPanel(np.ones((2, 3, 4)), ("a", "b"), 1.0)

    @pytest.mark.parametrize("dt", [0.0, -1.0, np.nan])
    def test_rejects_a_sampling_period_that_is_not_positive(self, dt):
        with pytest.raises(ValueError, match="sampling period must be positive"):
            SignalPanel(np.ones((2, 4)), ("a", "b"), dt)

    def test_values_are_a_c_order_float_copy(self):
        values = np.asfortranarray(np.arange(12).reshape(3, 4))
        panel = SignalPanel(values, ("a", "b", "c"), 1.0)
        assert panel.values.flags.c_contiguous and panel.values.dtype == np.float64
        assert not np.shares_memory(panel.values, values)
        assert np.array_equal(panel.values, values)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            SignalPanel([[1.0, np.nan]], ("a",), 1.0)

    @pytest.mark.parametrize("t0", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_start_time(self, t0):
        with pytest.raises(ValueError, match="t0 must be finite epoch seconds"):
            SignalPanel(np.ones((2, 4)), ("a", "b"), 1.0, t0)

    def test_start_time_is_float_epoch_seconds(self):
        assert make_panel(np.ones(4)).t0 == 0.0
        panel = SignalPanel(np.ones((1, 4)), ("a",), 1.0, 1_160_956_800)
        assert type(panel.t0) is float and panel.t0 == 1_160_956_800.0

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            SignalPanel(np.ones((2, 4)), ("only",), 1.0)

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            SignalPanel(np.ones((2, 4)), ("x", "x"), 1.0)

    def test_values_are_read_only(self):
        panel = make_panel(np.ones(8))
        with pytest.raises(ValueError):
            panel.values[0, 0] = 2.0
