"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete.  Simulator-backed criteria share session fixtures so the heavy
runs happen once.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from specdist.cli import main as cli_main
from specdist.distances import (
    cross_correlation,
    fit_proportionality,
    floored,
    js_divergences,
    kl_matrices,
    mean_kls,
)
from specdist.pipeline import AnalysisConfig, analyze, compare_metric_series, entropy_sweep
from specdist.simulator import SimConfig, run_simulation
from specdist.spectra import (
    SignalPanel,
    bin_multiplicities,
    entropies,
    mode_frequencies,
    normalize_power,
    power_spectra,
)

from conftest import DATA_DIR
from oracles import folded_periodogram, random_spectrum

WINDOW = AnalysisConfig(width=128, stride=64)


def report(criterion, ok, detail):
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


@pytest.fixture(scope="session")
def long_run_activity_metrics():
    """Long reference run: 20000 recorded steps, default market parameters."""
    cfg = SimConfig(horizon=20_000, seed=42)
    _, activity = run_simulation(cfg)
    return analyze(activity, WINDOW)


@pytest.fixture(scope="session")
def coupled_runs():
    """Three seeds of paired rates/activity metrics at a herding-strength gamma."""
    out = []
    for seed in (0, 1, 2):
        cfg = SimConfig(gamma=4e-7, horizon=8192, seed=seed)
        rates, activity = run_simulation(cfg)
        res_a = analyze(activity, WINDOW)
        res_r = analyze(rates, replace(WINDOW, transform="log-return"))
        out.append((res_a, res_r))
    return out


@pytest.fixture(scope="session")
def diurnal_metrics():
    """A 5-day panel whose cross-channel similarity cycles every 1440 minutes.

    During the day half of each cycle every channel carries a strong tone at
    its own frequency (spectra diverge); at night all channels are plain
    white noise (spectra agree).
    """
    rng = np.random.default_rng(1234)
    minutes = 5 * 1440
    channels = 20
    t = np.arange(minutes)
    envelope = np.maximum(0.0, np.sin(2 * np.pi * t / 1440.0))
    values = np.empty((channels, minutes))
    for j in range(channels):
        tone_bin = 5 + 3 * j
        phase = rng.uniform(0, 2 * np.pi)
        tone = np.sin(2 * np.pi * tone_bin * t / 128.0 + phase)
        values[j] = rng.normal(size=minutes) + 6.0 * envelope * tone
    panel = SignalPanel(values, tuple(f"s{j:02d}" for j in range(channels)), 1.0)
    return analyze(panel, AnalysisConfig(width=128, stride=16))


def test_criterion_1_mean_kl_dominates_js(
    long_run_activity_metrics, coupled_runs, diurnal_metrics
):
    """1000 random ensembles plus every pipeline window: <KL> >= JS - 1e-9."""
    rng = np.random.default_rng(2024)
    worst = math.inf
    checked = 0
    for i in range(1000):
        m = (2, 5, 20)[i % 3]
        bins = (15, 127)[i % 2]  # windows of width 16 and 128
        sharpness = rng.uniform(0.3, 6.0)
        members = np.array([random_spectrum(rng, bins, sharpness) for _ in range(m)])
        mean_kl = mean_kls(kl_matrices(floored(members, 1e-12)))
        gap = float(mean_kl - js_divergences(members, np.full(m, 1.0 / m)))
        worst = min(worst, gap)
        checked += 1

    results = [long_run_activity_metrics, diurnal_metrics]
    for res_a, res_r in coupled_runs:
        results.extend([res_a, res_r])
    windows = 0
    for result in results:
        worst = min(worst, float(np.min(result.mean_kl - result.js)))
        windows += result.js.size

    ok = worst >= -1e-9
    report(1, ok, f"worst <KL>-JS gap {worst:.3e} over {checked} ensembles + {windows} windows")


def test_criterion_2_proportionality_reproduction(long_run_activity_metrics):
    """Origin slope of JS vs <KL> in [0.27, 0.57] with correlation > 0.85.

    The report also gives the quartiles of the per-window JS/<KL>, which
    tends to 1/2 for spectra close to their mixture (see
    `test_half_the_weighted_mean_kl_for_close_members`).
    """
    res = long_run_activity_metrics
    assert res.js.size >= 300, f"only {res.js.size} windows"
    slope = fit_proportionality(res.mean_kl, res.js)
    corr = cross_correlation(res.js, res.mean_kl)
    q1, median, q3 = np.percentile(res.js / res.mean_kl, [25, 50, 75])
    ok = 0.27 <= slope <= 0.57 and corr > 0.85
    report(2, ok, f"slope={slope:.4f} (band [0.27, 0.57]) corr={corr:.4f} "
                  f"windows={res.js.size} JS/<KL> median={median:.4f} "
                  f"quartiles=[{q1:.4f}, {q3:.4f}]")


def test_criterion_3_parameter_entropy_sweep():
    """Seed-averaged mean JS non-decreasing in H_a, at most one violation."""
    h_a_values = [-1.4, -0.85, -0.3, 0.25, 0.8]
    base = SimConfig(horizon=6144, seed=0)
    points = entropy_sweep(h_a_values, base, WINDOW, seeds=3, center=2.0)
    means = [p.mean_js for p in points]
    violations = sum(1 for i in range(len(means) - 1) if means[i + 1] < means[i])
    span = h_a_values[-1] - h_a_values[0]
    ok = violations <= 1 and span >= 2.0
    detail = " ".join(f"{v:.6f}" for v in means)
    report(3, ok, f"mean JS by H_a: {detail} (span {span:.1f} nats, "
                  f"{violations} adjacent violations)")


def test_criterion_4_periodogram_oracle():
    """Fast transform matches direct O(N^2) summation, folded onto the
    one-sided bins, to 1e-10 relative."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for i in range(100):
        n = (8, 15, 64, 127, 128, 256)[i % 6]
        x = rng.normal(size=n)
        fast = power_spectra(x)
        direct = folded_periodogram(x, 1.0)
        rel = np.abs(fast - direct) / np.maximum(np.abs(direct), 1e-300)
        worst = max(worst, float(rel.max()))
    ok = worst <= 1e-10
    report(4, ok, f"worst bin-wise relative error {worst:.3e} over 100 signals")


def tone_stats(n, tone_bin):
    x = np.cos(2 * np.pi * np.arange(n) * tone_bin / n)
    probs, _ = normalize_power(power_spectra(x))
    return float(entropies(probs, bin_multiplicities(n))), float(mode_frequencies(probs, n, 1.0))


def test_criterion_5_entropy_extremes():
    """Delta entropy 0, uniform entropy log(N-1), sinusoid low-entropy mode.

    A real interior-bin sinusoid always carries a conjugate-mirror lobe, so
    its entropy floor over the n = 1..N-1 bins is ~1.56 nats; the quarter-
    of-maximum bound is met by the mirror-free Nyquist-centered tone at
    N = 128, and by an interior tone once N is large enough for the bound
    to clear the two-lobe floor.
    """
    delta = np.zeros(127)
    delta[8] = 1.0
    h_delta = float(entropies(delta))

    uniform = np.full(127, 1.0 / 127)
    h_uniform = float(entropies(uniform))

    h_nyq, mode_nyq = tone_stats(128, 64)
    h_big, mode_big = tone_stats(1024, 96)
    h_interior, mode_interior = tone_stats(128, 8)

    ok = (
        h_delta == 0.0
        and abs(h_uniform - math.log(127)) <= 1e-12
        and h_nyq < 0.25 * math.log(127)
        and mode_nyq == pytest.approx(64 / 128)
        and h_big < 0.25 * math.log(1023)
        and mode_big == pytest.approx(96 / 1024)
        and mode_interior == pytest.approx(8 / 128)
        and h_interior < 0.5 * math.log(127)
    )
    report(5, ok, f"H(delta)={h_delta} H(uniform)-log127={h_uniform - math.log(127):.2e} "
                  f"H(nyquist tone)={h_nyq:.4f} < {0.25 * math.log(127):.4f} "
                  f"H(1024 tone)={h_big:.4f} < {0.25 * math.log(1023):.4f} "
                  f"interior mode={mode_interior}")


def test_criterion_6_ingestion_golden_files(tmp_path):
    """CLI ingest reproduces the hand-computed panels byte for byte."""
    activity = tmp_path / "activity.csv"
    rates = tmp_path / "rates.csv"
    code = cli_main([
        "ingest", str(DATA_DIR / "ticks_fixture.csv"), "--side", "ask",
        "--activity-out", str(activity), "--rates-out", str(rates),
    ])
    assert code == 0
    act_ok = activity.read_bytes() == (DATA_DIR / "golden_activity_ask.csv").read_bytes()
    rate_ok = rates.read_bytes() == (DATA_DIR / "golden_rates_ask.csv").read_bytes()
    ok = act_ok and rate_ok
    report(6, ok, f"activity bytes equal: {act_ok}, rates bytes equal: {rate_ok}")


def test_criterion_7_synthetic_diurnal_cycle(diurnal_metrics):
    """The JS series itself has its spectral mode at one cycle per 1440 min."""
    js = diurnal_metrics.js
    assert js.size >= 360
    js_panel = SignalPanel(js[None, :360], ("js",), 16.0)  # stride 16 -> dt 16 min
    probs, empty = normalize_power(power_spectra(js_panel.values[0]))
    assert not empty
    mode = float(mode_frequencies(probs, js_panel.length, js_panel.dt))
    target = 1.0 / 1440.0
    bin_width = 1.0 / (360 * 16.0)
    ok = abs(mode - target) <= bin_width + 1e-15
    report(7, ok, f"JS-series mode {mode:.6f} per min vs 1/1440={target:.6f} "
                  f"(one bin = {bin_width:.2e})")


def test_criterion_8_rates_activity_coupling(coupled_runs):
    """JS of rate log-returns tracks JS of activity: C in (0.2, 1.0) per seed."""
    correlations = [
        compare_metric_series(res_r, res_a).correlation for res_a, res_r in coupled_runs
    ]
    ok = all(0.2 < c < 1.0 for c in correlations)
    report(8, ok, "C per seed: " + " ".join(f"{c:.4f}" for c in correlations))
