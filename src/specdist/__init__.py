"""Spectral-distance analytics for multi-channel time series.

Windowed periodogram spectra, spectral entropy, Jensen-Shannon and
Kullback-Leibler spectral distances, a tick-data ingestion layer, and a
threshold agent-based market simulator, glued together by a sliding-window
pipeline and a CLI.

The names exported here are the ones the README's Library section uses;
everything else, the array kernels of `specdist.spectra` and
`specdist.distances` included, is reached through its submodule.
"""

from .distances import cross_correlation, fit_proportionality
from .errors import SpecdistError
from .pipeline import AnalysisConfig, AnalysisResult, analyze, compare_metric_series
from .simulator import SimConfig, run_simulation
from .spectra import SignalPanel, hanning_window

__version__ = "0.1.0"

__all__ = [
    "AnalysisConfig",
    "AnalysisResult",
    "SignalPanel",
    "SimConfig",
    "SpecdistError",
    "analyze",
    "compare_metric_series",
    "cross_correlation",
    "fit_proportionality",
    "hanning_window",
    "run_simulation",
]
