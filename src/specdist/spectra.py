"""Windowed periodogram estimation and per-channel spectral statistics.

The estimator tapers a length-N segment with a raised-cosine (Hanning)
window and takes the squared magnitude of its DFT scaled by 1/N^2.  The
segments are real, so AC bin n and its mirror N-n carry the same power
(Oppenheim & Schafer, *Discrete-Time Signal Processing*, real-input DFT
symmetry): the estimator computes the one-sided bins n = 0..N//2 and
gives each AC bin its multiplicity c, 2 for an interior bin, which
stands for n and N-n, and 1 for the Nyquist bin of an even N, its own
mirror.  Dropping the DC bin and rescaling the rest to sum to one gives
the folded distribution q = c*p over the N//2 distinct frequencies,
where p is the distribution over all N-1 AC bins.  Ratios of two such
distributions are ratios of p, so divergences need no c; the spectral
entropy -sum q*log(q/c) (in nats) is that of p.  A flat spectrum
maximizes it at log(N-1), a single-bin spectrum has entropy zero.  The
mode frequency is the largest bin of q.

Each estimator is one array kernel whose last axis is the frequency
axis, so the same call scores one segment or a (windows, channels, bins)
stack of them: `power_spectra` (one-sided bins, DC first),
`normalize_power` (probabilities and a mask of spectra with no AC power),
`entropies` and `mode_frequencies`, with `bin_multiplicities` giving c.
The kernels take rows as `normalize_power` makes them and do not
re-check them; the checks guard outside input instead (`SignalPanel`,
`hanning_window`, `AnalysisConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidWindowError

# Probabilities at or below this are treated as exact zeros in entropy sums
# (the 0*log(0) = 0 convention, extended to denormal-range values).
ENTROPY_PROB_FLOOR = 1e-300

# Most (channel x sample) cells of a grid `check_grid` accepts.  A resample holds
# about 42 bytes a cell, so one stays near 0.7 GB: a year of one-minute buckets for
# a dozen instruments is 6.3 M cells, while ticks at a `dt` of a few ms can need GBs.
MAX_CELLS = 2**24
# 0001-01-01T00:00:00Z and 10000-01-01T00:00:00Z in epoch seconds: `ingest.format_rfc3339`
# writes every time from the first up to the second, the last as 9999-12-31T23:59:59.999999Z.
_STAMP_START = -62_135_596_800.0
_STAMP_END = 253_402_300_800.0


def _times(t0: float, dt: float, index):
    """`SignalPanel.times` of the grid from `t0` every `dt` minutes."""
    return np.rint(round(t0 * 1e6) + index * (dt * 60_000_000.0)) / 1e6


def check_grid(dt: float, channels: int = 1, samples: int = 1, t0: float = 0.0) -> float:
    """The step dt in ms; `ConfigurationError` unless `channels` x `samples` samples every
    `dt` minutes from `t0` fit a panel file: dt finite and at least 1 ms, at most MAX_CELLS
    cells, and every sample from 0001-01-01T00:00:00Z to 9999-12-31T23:59:59.999999Z."""
    step = dt * 60_000.0
    if not (np.isfinite(dt) and step >= 1):
        raise ConfigurationError(f"dt must be a finite number of minutes of at least 1 ms, got {dt!r}")
    if channels * samples > MAX_CELLS:
        raise ConfigurationError(f"{channels} channel(s) x {samples} samples is {channels * samples} cells, "
                                 f"more than the {MAX_CELLS} a panel may hold")
    if not _times(t0, dt, 0) >= _STAMP_START:
        raise ConfigurationError(f"dt {dt!r} puts sample 0 at t0 {t0!r} s, before "
                                 "0001-01-01T00:00:00Z, the first time a file can hold")
    if not _times(t0, dt, samples - 1) < _STAMP_END:
        raise ConfigurationError(f"dt {dt!r} puts sample {samples - 1} after t0 {t0!r} s past "
                                 "9999-12-31T23:59:59.999999Z, the last time a file can hold")
    return step


@dataclass(frozen=True)
class SignalPanel:
    """Uniformly sampled multi-channel real time series.

    Parameters
    ----------
    values : ndarray, shape (M, L)
        One row per channel, all sampled on the same grid.
    labels : tuple of str
        Channel names, length M, unique.
    dt : float
        Sampling period in minutes.
    t0 : float
        Time of the first sample in epoch seconds, kept to the whole microsecond
        (the resolution of every file stamp).  Defaults to the epoch.

    The panel holds at least one channel of at least two samples and is
    immutable.  Its values are a float64 copy in C order whatever the
    caller's layout, which sets numpy's summation order, so a panel gives
    the same bits however it was built.
    """

    values: np.ndarray
    labels: tuple[str, ...]
    dt: float
    t0: float = 0.0

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, order="C")
        if v.ndim != 2:
            raise ValueError(f"panel values must be 2-D (channels, samples), got ndim={v.ndim}")
        m, length = v.shape
        if m < 1 or length < 2:
            raise ValueError(f"panel needs at least one channel and two samples, got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("panel values must all be finite")
        labels = tuple(str(x) for x in self.labels)
        if len(labels) != m:
            raise ValueError(f"expected {m} labels, got {len(labels)}")
        if len(set(labels)) != m:
            raise ValueError("channel labels must be unique")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"sampling period must be positive, got {self.dt}")
        if not np.isfinite(self.t0):
            raise ValueError(f"start time t0 must be finite epoch seconds, got {self.t0}")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "dt", float(self.dt))
        object.__setattr__(self, "t0", round(float(self.t0) * 1e6) / 1e6)

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

    def times(self, index) -> np.ndarray | float:
        """Epoch seconds of samples `index`, as their stamps read: rint(t0 us + index * dt * 6e7 us) / 10**6."""
        return _times(self.t0, self.dt, index)

    def channel_index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no channel named {label!r}") from None


def hanning_window(width: int) -> np.ndarray:
    """Raised-cosine taper w(k) = (1 - cos(2*pi*k/(width-1)))/2, k = 0..width-1.

    Endpoints are exactly zero; the window is symmetric about its midpoint.
    """
    if int(width) != width or width < 2:
        raise InvalidWindowError(f"window width must be an integer >= 2, got {width}")
    k = np.arange(int(width))
    return 0.5 * (1.0 - np.cos(2.0 * np.pi * k / (width - 1)))


def bin_frequencies(width: int, dt: float) -> np.ndarray:
    """Frequencies f_n = n/(N*dt) of the AC bins n = 1..N-1.  The first N//2
    are the one-sided bins; those above N/2 mirror the negative frequencies
    (n - N)/(N*dt)."""
    return np.arange(1, width) / (width * dt)


def bin_multiplicities(width: int) -> np.ndarray:
    """Multiplicity c of each one-sided AC bin n = 1..N//2: 2 for a bin that
    stands for itself and its mirror N-n, 1 for the Nyquist bin of an even N."""
    c = np.full(width // 2, 2.0)
    if width % 2 == 0:
        c[-1] = 1.0
    return c


def power_spectra(segments: np.ndarray) -> np.ndarray:
    """One-sided tapered periodograms of segments stacked along the last axis.

    With P(f_n) = |sum_k w(k) x(k) e^{-2*pi*i*k*n/N}|^2 / N^2, returns the
    DC bin P(f_0) and c*P(f_n) for n = 1..N//2 (`bin_multiplicities`), via
    the real-input FFT.  For a real segment that is P(f_n) + P(f_{N-n}), so
    the result matches the folded direct summation to floating-point
    accuracy.
    """
    n = segments.shape[-1]
    power = np.abs(np.fft.rfft(hanning_window(n) * segments, axis=-1)) ** 2 / n**2
    power[..., 1:] *= bin_multiplicities(n)
    return power


def normalize_power(power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop the DC bin and rescale each spectrum's AC bins to sum to one.

    Returns the probabilities and a mask of the spectra whose AC bins carry
    no power at all (a constant window); their probability rows are zero.
    On `power_spectra` rows the probabilities are the folded q = c*p.
    """
    ac = power[..., 1:]
    total = ac.sum(axis=-1, keepdims=True)
    empty = total[..., 0] <= 0.0
    return ac / np.where(empty[..., None], 1.0, total), empty


def entropies(probs: np.ndarray, multiplicity=1.0) -> np.ndarray:
    """Shannon entropy -sum q*log(q/c) over the last axis, in nats.

    Bin b of `probs` stands for c = multiplicity[b] equal bins of q/c each
    (`bin_multiplicities` for one-sided spectra; the default 1 is the plain
    entropy -sum q*log(q)).  Bins at or below ENTROPY_PROB_FLOOR contribute
    nothing.  A distribution over B bins of multiplicity 1 scores in
    [0, log(B)], reaching the top exactly when it is uniform.
    """
    per_bin = np.where(probs > ENTROPY_PROB_FLOOR, probs / multiplicity, 1.0)
    return -(probs * np.log(per_bin)).sum(axis=-1) + 0.0


def mode_frequencies(probs: np.ndarray, width: int, dt: float) -> np.ndarray:
    """Frequency of each one-sided spectrum's largest bin, at most Nyquist.

    `probs` holds the width//2 folded AC bins of a width-N window, so bin n
    already holds n and its mirror N-n together.  Ties go to the lowest
    frequency.
    """
    return bin_frequencies(width, dt)[np.argmax(probs, axis=-1)]
