"""Windowed periodogram estimation and per-channel spectral statistics.

The estimator tapers a length-N segment with a raised-cosine (Hanning)
window, takes the squared magnitude of its DFT scaled by 1/N^2, drops the
DC bin, and rescales the N-1 AC bins, those above N/2 mirroring the
negative frequencies, into a probability distribution.  Spectral entropy
(in nats) and the mode frequency are statistics of that distribution: a
flat spectrum maximizes the entropy at log(N-1), a single-bin spectrum
has entropy zero.

Each estimator is one array kernel whose last axis is the frequency
axis, so the same call scores one segment or a (windows, channels, bins)
stack of them: `power_spectra` (raw bins, DC first), `normalize_power`
(probabilities and a mask of spectra with no AC power), `entropies` and
`mode_frequencies`.  The kernels take rows as `normalize_power` makes
them and do not re-check them; the checks guard outside input instead
(`SignalPanel`, `hanning_window`, `AnalysisConfig`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidWindowError

# Probabilities at or below this are treated as exact zeros in entropy sums
# (the 0*log(0) = 0 convention, extended to denormal-range values).
ENTROPY_PROB_FLOOR = 1e-300


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
        Time of the first sample in epoch seconds, kept to the whole ms (the
        resolution of ticks and of every file stamp).  Defaults to the epoch.

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
        object.__setattr__(self, "t0", round(float(self.t0) * 1000) / 1000)

    @property
    def n_channels(self) -> int:
        return self.values.shape[0]

    @property
    def length(self) -> int:
        return self.values.shape[1]

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
    """Frequencies f_n = n/(N*dt) of the AC bins n = 1..N-1; the bins above
    N/2 mirror the negative frequencies (n - N)/(N*dt)."""
    return np.arange(1, width) / (width * dt)


def power_spectra(segments: np.ndarray) -> np.ndarray:
    """Tapered periodograms of segments stacked along the last axis.

    Computes P(f_n) = |sum_k w(k) x(k) e^{-2*pi*i*k*n/N}|^2 / N^2 for
    n = 0..N-1 (DC and the mirrored half included) via the FFT, which
    matches the direct summation to floating-point accuracy.
    """
    n = segments.shape[-1]
    amplitude = np.fft.fft(hanning_window(n) * segments, axis=-1)
    return np.abs(amplitude) ** 2 / n**2


def normalize_power(power: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Drop the DC bin and rescale each spectrum's AC bins to sum to one.

    Returns the probabilities and a mask of the spectra whose AC bins carry
    no power at all (a constant window); their probability rows are zero.
    """
    ac = power[..., 1:]
    total = ac.sum(axis=-1, keepdims=True)
    empty = total[..., 0] <= 0.0
    return ac / np.where(empty[..., None], 1.0, total), empty


def entropies(probs: np.ndarray) -> np.ndarray:
    """Shannon entropy -sum p*log(p) over the last axis, in nats.

    Bins at or below ENTROPY_PROB_FLOOR contribute nothing.  A distribution
    over B bins scores in [0, log(B)], reaching the top exactly when it is
    uniform.
    """
    live = np.where(probs > ENTROPY_PROB_FLOOR, probs, 1.0)
    return -(probs * np.log(live)).sum(axis=-1) + 0.0


def mode_frequencies(probs: np.ndarray, dt: float) -> np.ndarray:
    """Frequency of each spectrum's largest bin, at or below Nyquist.

    Bin n and its mirror N-n (the same frequency for a real signal) are
    summed first, so the mode is never above 1/(2*dt); the Nyquist bin of
    an even N is its own mirror and counts once.  Ties go to the lowest
    frequency.
    """
    n = probs.shape[-1] + 1
    folded = probs[..., : n // 2].copy()
    folded[..., : (n - 1) // 2] += probs[..., ::-1][..., : (n - 1) // 2]
    return bin_frequencies(n, dt)[np.argmax(folded, axis=-1)]

