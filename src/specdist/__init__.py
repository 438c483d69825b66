"""Spectral-distance analytics for multi-channel time series.

Windowed periodogram spectra, spectral entropy, Jensen-Shannon and
Kullback-Leibler spectral distances, a tick-data ingestion layer, and a
threshold agent-based market simulator, glued together by a sliding-window
pipeline and a CLI.

The names exported here are the ones the README's Library section uses;
everything else is reached through its submodule.
"""

from .distances import (
    WeightVector,
    cross_correlation,
    fit_proportionality,
    js_spectral_divergence,
    kl_matrix,
    kl_spectral_distance,
    mean_kl,
)
from .errors import SpecdistError
from .pipeline import AnalysisConfig, AnalysisResult, analyze, compare_metric_series
from .simulator import SimConfig, run_simulation
from .spectra import (
    NormalizedSpectrum,
    SignalPanel,
    hanning_window,
    mode_frequency,
    normalize_spectrum,
    periodogram,
    spectral_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "NormalizedSpectrum",
    "SignalPanel",
    "SimConfig",
    "SpecdistError",
    "WeightVector",
    "analyze",
    "compare_metric_series",
    "cross_correlation",
    "fit_proportionality",
    "hanning_window",
    "js_spectral_divergence",
    "kl_matrix",
    "kl_spectral_distance",
    "mean_kl",
    "mode_frequency",
    "normalize_spectrum",
    "periodogram",
    "run_simulation",
    "spectral_entropy",
]
