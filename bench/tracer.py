"""Spans around calls into specdist's public functions, taken from outside.

The package's modules import names directly (`from .ingest import
read_ticks`), so a function is wrapped at the module attribute where its
caller looks it up, not only where it is defined.  Each wrapped call
records a span (name, start, end, parent, repetition) in memory; counts
that describe the work (ticks read, steps simulated, windows scored) are
taken from the arguments and results at the same boundary.

`kl_spectral_distance` is deliberately not wrapped: it runs M*(M-1) times
per window, and `distances.kl_pairs` is computed from the window counts.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections import Counter
from time import perf_counter

# (module where the caller looks the name up, attribute, span name)
SITES = (
    ("specdist.cli", "main", "cli.main"),
    ("specdist.cli", "read_ticks", "ingest.read_ticks"),
    ("specdist.cli", "market_series", "ingest.market_series"),
    ("specdist.cli", "build_panel", "ingest.build_panel"),
    ("specdist.cli", "write_panel_csv", "ingest.write_panel_csv"),
    ("specdist.cli", "read_panel_csv", "ingest.read_panel_csv"),
    ("specdist.cli", "run_simulation", "simulator.run_simulation"),
    ("specdist.pipeline", "run_simulation", "simulator.run_simulation"),
    ("specdist.simulator", "step_market", "simulator.step_market"),
    ("specdist.pipeline", "periodogram", "spectra.periodogram"),
    ("specdist.pipeline", "normalize_spectrum", "spectra.normalize_spectrum"),
    ("specdist.pipeline", "spectral_entropy", "spectra.spectral_entropy"),
    ("specdist.pipeline", "kl_matrix", "distances.kl_matrix"),
    ("specdist.pipeline", "js_spectral_divergence", "distances.js_spectral_divergence"),
    ("specdist.pipeline", "analyze", "pipeline.analyze"),
    ("specdist.pipeline", "write_metrics_csv", "pipeline.write_metrics_csv"),
    ("specdist.pipeline", "write_kl_csv", "pipeline.write_kl_csv"),
    ("specdist.pipeline", "write_spectra_csv", "pipeline.write_spectra_csv"),
    ("specdist.pipeline", "read_metrics_csv", "pipeline.read_metrics_csv"),
    ("specdist.pipeline", "check_comparable", "pipeline.compare"),
    ("specdist.pipeline", "compare_metric_series", "pipeline.compare"),
    ("specdist.pipeline", "entropy_sweep", "pipeline.entropy_sweep"),
)

LAYERS = ("cli", "ingest", "simulator", "spectra", "distances", "pipeline")

# Per-layer metric -> unit, in report order.  `<span>_s` metrics are summed
# span durations; `<layer>.self_s` is the layer's time not covered by child
# spans.
LAYER_METRICS = {
    "cli.import_s": "s", "cli.calls": "count", "cli.failed_calls": "count", "cli.self_s": "s",
    "ingest.read_ticks_s": "s", "ingest.ticks": "count", "ingest.malformed": "count",
    "ingest.market_series_s": "s", "ingest.build_panel_s": "s",
    "ingest.write_panel_csv_s": "s", "ingest.read_panel_csv_s": "s",
    "ingest.panel_bytes_written": "bytes", "ingest.self_s": "s",
    "simulator.run_simulation_s": "s", "simulator.steps": "count",
    "simulator.step_market_calls": "count", "simulator.step_us": "us", "simulator.self_s": "s",
    "spectra.periodogram_s": "s", "spectra.periodogram_calls": "count",
    "spectra.fft_points": "count", "spectra.normalize_spectrum_s": "s",
    "spectra.spectral_entropy_s": "s", "spectra.self_s": "s",
    "distances.kl_matrix_s": "s", "distances.kl_pairs": "count",
    "distances.js_spectral_divergence_s": "s", "distances.self_s": "s",
    "pipeline.analyze_s": "s", "pipeline.analyze_self_s": "s",
    "pipeline.windows_scored": "count", "pipeline.windows_skipped": "count",
    "pipeline.write_metrics_csv_s": "s", "pipeline.write_kl_csv_s": "s",
    "pipeline.write_spectra_csv_s": "s", "pipeline.dump_bytes_written": "bytes",
    "pipeline.read_metrics_csv_s": "s", "pipeline.compare_s": "s",
    "pipeline.entropy_sweep_s": "s", "pipeline.sweep_runs": "count", "pipeline.self_s": "s",
}


def _file_bytes(args, kwargs) -> int:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return os.path.getsize(path)


def _analysis_counts(result) -> Counter:
    m = len(result.labels)
    scored = len(result.reports)
    return Counter({"pipeline.windows_scored": scored,
                    "pipeline.windows_skipped": len(result.gaps),
                    "distances.kl_pairs": scored * m * (m - 1)})


def _ticks_counts(parsed) -> Counter:
    return Counter({"ingest.ticks": len(parsed.records) + parsed.malformed,
                    "ingest.malformed": parsed.malformed})


def _steps(cfg) -> Counter:
    return Counter({"simulator.steps": cfg.warmup + cfg.horizon})


def _fft_points(window) -> Counter:
    return Counter({"spectra.fft_points": window.width})


# Span name -> function(args, kwargs, result) -> Counter of work counts.
COUNTERS = {
    "ingest.read_ticks": lambda a, k, r: _ticks_counts(r),
    "ingest.write_panel_csv": lambda a, k, r: Counter({"ingest.panel_bytes_written": _file_bytes(a, k)}),
    "simulator.run_simulation": lambda a, k, r: _steps(k.get("cfg", a[0] if a else None)),
    "spectra.periodogram": lambda a, k, r: _fft_points(k.get("window", a[3] if len(a) > 3 else None)),
    "pipeline.analyze": lambda a, k, r: _analysis_counts(r),
    "pipeline.write_kl_csv": lambda a, k, r: Counter({"pipeline.dump_bytes_written": _file_bytes(a, k)}),
    "pipeline.write_spectra_csv": lambda a, k, r: Counter({"pipeline.dump_bytes_written": _file_bytes(a, k)}),
}

# Metrics that need a particular wrapped function (other than `<span>_s`).
# Counts are read from the program's own data structures; if a later
# version drops the function or changes those structures, the metric is
# reported absent.
SOURCES = {
    "ingest.ticks": "ingest.read_ticks", "ingest.malformed": "ingest.read_ticks",
    "ingest.panel_bytes_written": "ingest.write_panel_csv",
    "simulator.steps": "simulator.run_simulation",
    "spectra.fft_points": "spectra.periodogram",
    "pipeline.windows_scored": "pipeline.analyze", "pipeline.windows_skipped": "pipeline.analyze",
    "distances.kl_pairs": "pipeline.analyze",
    "pipeline.dump_bytes_written": "pipeline.write_kl_csv",
    "simulator.step_market_calls": "simulator.step_market",
    "simulator.step_us": "simulator.run_simulation",
    "spectra.periodogram_calls": "spectra.periodogram",
    "pipeline.analyze_self_s": "pipeline.analyze",
    "pipeline.sweep_runs": "pipeline.entropy_sweep",
}


class Tracer:
    """Installs the wrappers and keeps spans and counts for one repetition."""

    def __init__(self, rep: int):
        self.rep = rep
        self.spans: list[list] = []  # [name, start, end, parent index, rep]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()  # span names with no function to wrap
        self.unreadable: set[str] = set()  # span names whose work counts could not be read

    def install(self) -> None:
        wrapped = set()
        for module_name, attr, name in SITES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is not None:
                setattr(module, attr, self._wrap(fn, name))
                wrapped.add(name)
        self.missing = {name for _, _, name in SITES} - wrapped

    def _wrap(self, fn, name: str):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            span = [name, perf_counter(), 0.0, parent, self.rep]
            self.spans.append(span)
            self.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                span[2] = perf_counter()
            if counter is not None:
                try:
                    self.counts += counter(args, kwargs, result)
                except (AttributeError, TypeError, IndexError, OSError):
                    self.unreadable.add(name)
            return result

        return traced

    def summary(self, import_s: float, calls: list[dict]) -> tuple[dict, list[str]]:
        """Per-layer metrics from the spans, and the names reported absent."""
        total: Counter = Counter()
        ncalls: Counter = Counter()
        span_self: Counter = Counter()
        layer_self: Counter = Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _, _), covered in zip(self.spans, child_time):
            total[name] += end - start
            ncalls[name] += 1
            span_self[name] += end - start - covered
            layer_self[name.split(".")[0]] += end - start - covered
        sweep_runs = sum(1 for name, _, _, parent, _ in self.spans
                         if name == "simulator.run_simulation" and parent >= 0
                         and self.spans[parent][0] == "pipeline.entropy_sweep")
        metrics = {
            "cli.import_s": import_s,
            "cli.calls": len(calls),
            "cli.failed_calls": sum(1 for c in calls if c["code"] != 0),
            "simulator.step_market_calls": ncalls["simulator.step_market"],
            "spectra.periodogram_calls": ncalls["spectra.periodogram"],
            "pipeline.analyze_self_s": span_self["pipeline.analyze"],
            "pipeline.sweep_runs": sweep_runs,
            **{f"{layer}.self_s": layer_self[layer] for layer in LAYERS},
        }
        for span_name in {name for _, _, name in SITES}:
            metrics[span_name + "_s"] = total[span_name]
        metrics.update(self.counts)
        steps = metrics.get("simulator.steps", 0)
        metrics["simulator.step_us"] = 1e6 * total["simulator.run_simulation"] / steps if steps else 0.0
        lost = self.missing | self.unreadable
        absent = [m for m in LAYER_METRICS if SOURCES.get(m, m.removesuffix("_s")) in lost]
        return {m: metrics.get(m, 0) for m in LAYER_METRICS}, absent
