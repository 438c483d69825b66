"""Sliding-window orchestration: panels in, per-window distance metrics out.

The selected channels of every window are tapered, transformed and
normalized into spectra; each window then yields one row of metrics (JS,
the mean of its KL matrix, per-channel entropies and modes).  Windows
are scored in fixed-size chunks as (windows, channels, bins) arrays; a
result keeps only the rows, and the KL matrices and spectra are streamed
to their dumps one chunk at a time.
Windows where any channel is constant have no spectrum and are skipped
with a logged gap.  Metric CSVs carry a provenance line so downstream
comparisons can refuse rows computed with a different window geometry.
"""

from __future__ import annotations

import contextlib
import hashlib
import logging
import math
import os
from dataclasses import dataclass, replace
from numbers import Integral
from typing import TextIO

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distances import (
    cross_correlation,
    fit_affine,
    fit_proportionality,
    floored,
    js_divergences,
    kl_matrices,
    mean_kls,
    DEFAULT_KL_FLOOR,
)
from .errors import (
    AlignmentError,
    AnalysisError,
    ConfigurationError,
    FormatError,
    InvalidWindowError,
)
from .ingest import (
    TRANSFORMS,
    _check_names,
    _read_table,
    _removed_on_failure,
    _write_table,
    format_rfc3339,
    parse_rfc3339,
    transform_panel,
)
from .simulator import SimConfig, run_simulations
from .spectra import (
    SignalPanel,
    bin_frequencies,
    entropies,
    mode_frequencies,
    normalize_power,
    power_spectra,
)

log = logging.getLogger(__name__)

# Samples (windows x channels x width) scored per chunk.  Keeps the
# analysis temporaries (taper copy, complex FFT, probabilities, log terms)
# at a few hundred kB whatever the panel length; scoring every window at
# once would grow them with the panel.
CHUNK_SAMPLES = 1 << 14


@dataclass(frozen=True)
class AnalysisConfig:
    """Window geometry and metric options for a sliding-window run.

    Custom `weights` must be finite, strictly positive and sum to one within
    1e-12; `analyze` checks that there is one per analyzed channel.
    """

    width: int = 128
    stride: int | None = None
    channels: tuple[str, ...] | None = None
    transform: str = "raw"
    weights: tuple[float, ...] | None = None
    kl_floor: float = DEFAULT_KL_FLOOR

    def __post_init__(self):
        if int(self.width) != self.width or self.width < 4:
            raise InvalidWindowError(f"window width must be an integer >= 4, got {self.width}")
        if self.stride is not None and (int(self.stride) != self.stride or self.stride < 1):
            raise InvalidWindowError(f"stride must be an integer >= 1, got {self.stride}")
        if self.transform not in TRANSFORMS:
            raise ConfigurationError(f"transform must be one of {TRANSFORMS}, got {self.transform!r}")
        # From 1/(N-1), the mean probability over the N-1 bins, the floor lifts
        # every below-average bin to the mean or above: KL then measures the
        # floor, not the spectra (from 1 on, every spectrum is flat).
        if not (0 <= self.kl_floor < 1 / (self.width - 1)):
            raise ConfigurationError(
                f"KL floor must be in [0, 1/(width-1)) = [0, {1 / (self.width - 1)!r}), "
                f"got {self.kl_floor!r}"
            )
        if self.weights is not None:
            w = np.array([float(x) for x in self.weights])
            if not (np.all(np.isfinite(w)) and np.all(w > 0)):
                raise ConfigurationError(f"weights must be finite and positive, got {w.tolist()!r}")
            total = float(w.sum())
            if abs(total - 1.0) > 1e-12:
                raise ConfigurationError(f"weights must sum to 1 within 1e-12, got {total!r}")
            object.__setattr__(self, "weights", tuple(w.tolist()))
        object.__setattr__(self, "width", int(self.width))
        if self.stride is not None:
            object.__setattr__(self, "stride", int(self.stride))
        if self.channels is not None:
            object.__setattr__(self, "channels", tuple(self.channels))

    @property
    def effective_stride(self) -> int:
        return self.stride if self.stride is not None else max(1, self.width // 2)

    def provenance(self) -> dict[str, str]:
        fields = {
            "width": str(self.width),
            "stride": str(self.effective_stride),
            "transform": self.transform,
            "floor": repr(self.kl_floor),
            "weights": ",".join(map(repr, self.weights)) if self.weights else "uniform",
        }
        spec = " ".join(f"{k}={v}" for k, v in fields.items())
        return {"cfg": hashlib.sha256(spec.encode()).hexdigest()[:12], **fields}


@dataclass
class AnalysisResult:
    """Per-window metrics as arrays over the W scored windows, in window order:
    what a metrics CSV holds, so memory grows with windows x channels.

    `timestamps` are window starts in epoch seconds; `gap_times` are the
    starts of skipped windows.  The KL matrices and spectra are not kept:
    `analyze` streams them to its dumps.
    """

    timestamps: np.ndarray
    js: np.ndarray
    mean_kl: np.ndarray
    entropies: np.ndarray
    modes: np.ndarray
    labels: tuple[str, ...]
    provenance: dict[str, str]
    gap_times: np.ndarray


def _score_chunk(segments: np.ndarray, weights: np.ndarray, floor: float, dt: float):
    """Metrics of a (w, M, N) stack of windows.

    Returns the masks of windows skipped for a constant channel and for
    zero AC power, and the metric arrays of the windows left.
    """
    constant = np.any(segments.max(axis=-1) == segments.min(axis=-1), axis=-1)
    probs, empty = normalize_power(power_spectra(segments))
    silent = np.any(empty, axis=-1) & ~constant
    # A constant window only carries taper leakage, which would fake a
    # spectrum where the channel has no signal.
    probs = probs[~(constant | silent)]
    # JS and KL see the same floored distributions, which makes Lin's bound
    # checked in `analyze` a theorem.
    dists = floored(probs, floor)
    kl = kl_matrices(dists)
    return constant, silent, {
        "spectra": probs,
        "js": js_divergences(dists, weights),
        "kl": kl,
        "mean_kl": mean_kls(kl),
        # Lin (1991), IEEE Trans. Inf. Theory 37(1):145-151: JS <= sum_ij
        # pi_i pi_j KL(p_i, p_j); for uniform weights that is the mean KL.
        "bound": np.einsum("m,wmn,n->w", weights, kl, weights),
        "entropies": entropies(probs),
        "modes": mode_frequencies(probs, dt),
    }


def _prepared(panel: SignalPanel, cfg: AnalysisConfig) -> tuple[SignalPanel, np.ndarray]:
    """The panel as analyzed (channels selected and transformed) and its
    mixture weights; an `AnalysisError` for a panel `cfg` cannot score."""
    if cfg.channels is not None:
        rows = [panel.channel_index(name) for name in cfg.channels]
        panel = SignalPanel(panel.values[rows], cfg.channels, panel.dt, panel.t0)
    if panel.n_channels < 2:
        raise AnalysisError(f"need at least 2 channels, have {panel.n_channels}")
    panel = transform_panel(panel, cfg.transform)
    if panel.length < cfg.width:
        raise AnalysisError(f"panel of {panel.length} samples is shorter than window {cfg.width}")
    m = panel.n_channels
    weights = np.array(cfg.weights) if cfg.weights is not None else np.full(m, 1.0 / m)
    if weights.size != m:
        raise AnalysisError(f"{weights.size} weights for {m} channels")
    return panel, weights


def analyze(
    panel: SignalPanel, config: AnalysisConfig | None = None, *, dump_kl=None, dump_spectra=None
) -> AnalysisResult:
    """Slide a window across the panel and score each position.

    Returns the metrics of every scored window plus the start times of
    skipped (degenerate) windows.  Each chunk of windows is scored once; its
    KL matrices (window time, row, column, value) and normalized spectra
    (window time, channel, frequency, probability) go to the `dump_kl` and
    `dump_spectra` files before the next chunk is scored.  Every check, of
    the panel and of the labels (`_check_names`; the KL dump's `# channels=`
    line also refuses `|`), runs before a dump is opened, and a failure
    after that removes the dumps.
    """
    cfg = config if config is not None else AnalysisConfig()
    panel, weights = _prepared(panel, cfg)
    m = panel.n_channels
    dumps = {}  # kind -> (path, header lines, the row keys of a window)
    if dump_kl is not None:
        _check_names(dump_kl, panel.labels, also="|")
        head = "# channels=" + "|".join(panel.labels) + "\n"
        dumps["kl"] = (dump_kl, head + "window_start_time,l,m,kl\n",
                       [f"{l},{j}" for l in range(m) for j in range(m)])
    if dump_spectra is not None:
        _check_names(dump_spectra, panel.labels)
        if dump_kl is not None and os.path.abspath(dump_kl) == os.path.abspath(dump_spectra):
            raise ConfigurationError(f"{dump_spectra}: the KL and spectra dumps need two files")
        freqs = bin_frequencies(cfg.width, panel.dt).tolist()
        dumps["spectra"] = (dump_spectra, "window_start_time,channel,frequency,prob\n",
                            [f"{name},{f!r}" for name in panel.labels for f in freqs])
    stride = cfg.effective_stride
    windows = sliding_window_view(panel.values, cfg.width, axis=1)[:, ::stride].swapaxes(0, 1)
    starts = np.arange(len(windows)) * stride
    times = panel.t0 + starts * panel.dt * 60.0
    step = max(1, CHUNK_SAMPLES // (m * cfg.width))
    kept, files = [], []
    with _removed_on_failure() as written, contextlib.ExitStack() as opened:
        for kind, (path, head, keys) in dumps.items():
            fh = opened.enter_context(open(path, "w", encoding="utf-8", newline=""))
            written.append(path)
            fh.write(head)
            files.append((fh, kind, keys))
        for lo in range(0, len(windows), step):
            constant, silent, metrics = _score_chunk(windows[lo : lo + step], weights, cfg.kl_floor, panel.dt)
            scored = lo + np.flatnonzero(~(constant | silent))
            js, bound = metrics["js"], metrics["bound"]
            above = js > bound + 1e-9
            if above.any():
                i = int(np.argmax(above))
                raise RuntimeError(
                    f"window at {starts[scored[i]]}: JS {float(js[i])!r} exceeds "
                    f"the weighted mean KL {float(bound[i])!r} (Lin's bound)"
                )
            stamps = [format_rfc3339(t) for t in times[scored].tolist()] if files else []
            for fh, kind, keys in files:
                for stamp, row in zip(stamps, metrics[kind].reshape(len(stamps), len(keys)).tolist()):
                    fh.writelines(f"{stamp},{key},{v!r}\n" for key, v in zip(keys, row))
            kept.append((constant, silent, js, metrics["mean_kl"], metrics["entropies"], metrics["modes"]))

    constant, silent, js, mean_kl, ents, modes = map(np.concatenate, zip(*kept))
    skipped = constant | silent
    _log_skipped(starts, constant, silent)
    return AnalysisResult(
        timestamps=times[~skipped],
        js=js,
        mean_kl=mean_kl,
        entropies=ents,
        modes=modes,
        labels=panel.labels,
        provenance=cfg.provenance(),
        gap_times=times[skipped],
    )


def _log_skipped(starts: np.ndarray, constant: np.ndarray, silent: np.ndarray) -> None:
    """One WARNING per run with counts by reason; the window starts at DEBUG."""
    reasons = {"constant channel": constant, "zero AC power": silent}
    counts = {reason: int(mask.sum()) for reason, mask in reasons.items() if mask.any()}
    if not counts:
        return
    log.warning(
        "%d of %d windows skipped: %s",
        sum(counts.values()),
        len(starts),
        ", ".join(f"{n} {reason}" for reason, n in counts.items()),
    )
    for reason in counts:
        log.debug("windows skipped (%s) at starts %s", reason, starts[reasons[reason]].tolist())


METRIC_FIELDS = ("js", "mean_kl")

# The fewest paired windows a correlation needs.
MIN_COMMON_WINDOWS = 2


@dataclass(frozen=True)
class ComparisonReport:
    """Cross-correlation and fitted slope over the `windows` paired windows."""

    correlation: float
    slope: float
    windows: int
    intercept: float | None = None


def compare_metric_series(
    left: AnalysisResult,
    right: AnalysisResult,
    field_a: str = "js",
    field_b: str = "js",
    fit: str = "origin",
) -> ComparisonReport:
    """Correlate `left.<field_a>` with `right.<field_b>` and fit y ~ slope*x.

    Windows are paired by start time; windows scored on one side only
    (a skipped window, a shorter log-return panel) are left out, and the
    report counts the pairs.  Inputs computed with a different window
    width or stride, or sharing fewer than two window starts, raise
    `AlignmentError`, unless every window of one side paired: that side
    scored fewer than two windows, an `AnalysisError`.
    """
    for key in ("width", "stride"):
        a, b = left.provenance.get(key), right.provenance.get(key)
        if a is not None and b is not None and a != b:
            raise AlignmentError(f"{key} differs between inputs: {a} vs {b}")
    for name in (field_a, field_b):
        if name not in METRIC_FIELDS:
            raise ValueError(f"unknown metric field {name!r}")
    common, ia, ib = np.intersect1d(
        left.timestamps, right.timestamps, assume_unique=True, return_indices=True
    )
    if common.size < MIN_COMMON_WINDOWS:
        for side, result in (("left", left), ("right", right)):
            if result.timestamps.size == common.size:
                raise AnalysisError(f"{side} input has {common.size} scored window(s), need {MIN_COMMON_WINDOWS}")
        raise AlignmentError(
            f"window grids differ between inputs: {common.size} common window start(s) "
            f"of {left.timestamps.size} and {right.timestamps.size}, "
            f"need {MIN_COMMON_WINDOWS}"
        )
    x = getattr(left, field_a)[ia]
    y = getattr(right, field_b)[ib]
    correlation = cross_correlation(x, y)
    if fit == "origin":
        return ComparisonReport(correlation, fit_proportionality(x, y), common.size)
    if fit == "affine":
        slope, intercept = fit_affine(x, y)
        return ComparisonReport(correlation, slope, common.size, intercept)
    raise ValueError(f"fit must be 'origin' or 'affine', got {fit!r}")


# ---------------------------------------------------------------------------
# Metrics CSV round trip
# ---------------------------------------------------------------------------


def _metric_columns(labels) -> list[str]:
    return ["js", "mean_kl", *(f"H_{n}" for n in labels), *(f"mode_{n}" for n in labels)]


def write_metrics_csv(result: AnalysisResult, path) -> None:
    """One row per window: time, JS, mean KL, entropies, modes, after a
    provenance comment; skipped windows are `# gap=<time>` lines in time order."""
    header = ["window_start_time", *_metric_columns(result.labels)]
    values = np.column_stack([result.js, result.mean_kl, result.entropies, result.modes])
    gaps = [("gap", t) for t in result.gap_times.tolist()]
    _write_table(path, header, result.timestamps.tolist(), values.tolist(), result.provenance, gaps)


def read_metrics_csv(path) -> AnalysisResult:
    """Parse a metrics CSV back into a result."""
    columns, times, values, lines, comments = _read_table(path, "window_start_time")
    m = (len(columns) - 2) // 2
    labels = [name[2:] for name in columns[2 : 2 + m]]
    if columns != _metric_columns(labels):
        raise FormatError(
            f"{path}: line {lines[0]}: expected header "
            f"`window_start_time,js,mean_kl,H_<ch>...,mode_<ch>...`, got {columns!r}"
        )
    provenance: dict[str, str] = {}
    gaps: list[float] = []
    for key, value, line in comments:
        if key != "gap":
            provenance[key] = value
            continue
        try:
            gaps.append(parse_rfc3339(value))
        except ValueError:
            raise FormatError(f"{path}: line {line}: bad gap time {value!r}") from None
    return AnalysisResult(
        timestamps=times,
        js=values[:, 0],
        mean_kl=values[:, 1],
        entropies=values[:, 2 : 2 + m],
        modes=values[:, 2 + m :],
        labels=tuple(labels),
        provenance=provenance,
        gap_times=np.array(gaps, dtype=np.float64),
    )


# ---------------------------------------------------------------------------
# Parameter-diversity sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepPoint:
    """Mean windowed JS of the activity panel at one parameter-entropy value."""

    h_a: float
    a_range: tuple[float, float]
    mean_js: float
    per_seed: tuple[float, ...]


def entropy_sweep(
    h_a_values,
    base: SimConfig,
    analysis: AnalysisConfig | None = None,
    seeds: int = 3,
    center: float | None = None,
) -> list[SweepPoint]:
    """Sweep the sensitivity-range width over parameter-entropy values.

    Each H_a maps to a range of width exp(H_a) centered on `center`
    (default: the midpoint of the base range), so widening raises the
    parameter diversity without shifting the typical sensitivity.  For
    every value the simulator runs `seeds` independent seeds (base.seed,
    base.seed+1, ...), the activity panel is analyzed, and the
    time-averaged JS is averaged over seeds.

    The runs of one seed differ only in their sensitivity range, so they
    consume the same random stream: a contiguous slice of one seed's H_a
    values is one task, simulated in lockstep on one set of draws
    (`run_simulations`).  With C CPUs, each seed is cut into
    min(len(h_a_values), C // gcd(seeds, C)) slices, so the tasks fill the
    workers evenly.  The tasks go to a pool of forked worker processes;
    each run's panels are those of its seed alone, so the points do not
    depend on the number of workers.  A failure raises the error of the
    first failed run in (seed, H_a) order.
    """
    # Checked before the stand-in: the slicing below needs an integer count.
    if not isinstance(seeds, Integral) or seeds < 1:
        raise ValueError(f"seeds must be a positive integer, got {seeds!r}")
    mid = center if center is not None else 0.5 * (base.a_range[0] + base.a_range[1])
    # The analysis, on a stand-in of the activity panel, and every H_a are
    # checked before the first (slow) simulation starts.
    stand_in = SignalPanel(np.ones((base.n_commodities, base.horizon)), base.labels, base.dt)
    _prepared(stand_in, analysis if analysis is not None else AnalysisConfig())
    sweep: list[tuple[float, SimConfig]] = []
    for h_a in h_a_values:
        try:
            half = 0.5 * math.exp(h_a)
        except OverflowError:
            half = math.inf
        a_range = (mid - half, mid + half)
        if not 0 < a_range[0] < a_range[1] < math.inf:
            need = "must not touch zero" if -math.inf < a_range[0] <= 0 else "must be finite with 0 < a1 < a2"
            raise ConfigurationError(f"H_a={h_a!r} gives the range {a_range!r}, which {need} (center {mid!r})")
        sweep.append((h_a, replace(base, a_range=a_range)))
    if not sweep:
        return []
    # Imported here: at the top they would add their import time to every
    # command, and only `sweep` uses them.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    cpus = len(os.sched_getaffinity(0))
    slices = min(len(sweep), cpus // math.gcd(seeds, cpus))
    bounds = [len(sweep) * p // slices for p in range(slices + 1)]
    groups = [[(h_a, replace(swept, seed=base.seed + k)) for h_a, swept in sweep[lo:hi]]
              for k in range(seeds) for lo, hi in zip(bounds, bounds[1:])]
    # One worker per CPU this process may use, capped at the tasks.  Forked
    # workers inherit the imported modules instead of importing numpy
    # again.  `map` gives the results, and raises the first failed task's
    # error, in input order; `shutdown` then cancels the tasks not yet
    # handed to the workers.
    pool = ProcessPoolExecutor(min(len(groups), cpus), mp_context=multiprocessing.get_context("fork"))
    try:
        means = [js for part in pool.map(_sweep_group, groups, [analysis] * len(groups)) for js in part]
    finally:
        pool.shutdown(cancel_futures=True)
    per_seed = np.reshape(means, (seeds, len(sweep))).T
    return [SweepPoint(float(h_a), swept.a_range, float(np.mean(js)), tuple(js.tolist()))
            for (h_a, swept), js in zip(sweep, per_seed)]


def _sweep_group(group: list[tuple[float, SimConfig]], analysis: AnalysisConfig | None) -> list[float]:
    """Time-averaged JS of each activity panel of one lockstep group, in
    order (a pool task); the first run without a scored window fails it."""
    means = []
    for (h_a, cfg), (_, activity) in zip(group, run_simulations([cfg for _, cfg in group])):
        result = analyze(activity, analysis)
        if result.js.size == 0:
            raise AnalysisError(f"no usable windows at H_a={h_a!r} seed={cfg.seed}")
        means.append(float(np.mean(result.js)))
    return means


def write_sweep_csv(points: list[SweepPoint], out: TextIO) -> None:
    """Write the sweep table as CSV to an open text stream."""
    out.write("h_a,a1,a2,mean_js\n")
    for p in points:
        out.write(f"{p.h_a!r},{p.a_range[0]!r},{p.a_range[1]!r},{p.mean_js!r}\n")


__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "ComparisonReport",
    "METRIC_FIELDS",
    "SweepPoint",
    "analyze",
    "compare_metric_series",
    "entropy_sweep",
    "read_metrics_csv",
    "write_metrics_csv",
    "write_sweep_csv",
]
