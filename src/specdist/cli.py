"""Command-line interface: ingest, analyze, simulate, compare, sweep.

Each failure class maps to a fixed exit code and a single machine-parseable
line on stderr (`specdist: error code=<n> kind=<Type> msg="..."`):

    0  success
    1  unexpected internal error
    2  usage error (bad flags or arguments)
    3  input file missing or unreadable
    4  format or schema error (bad header, misaligned metric grids)
    5  invalid configuration or parameter values
    6  degenerate data (too few channels, zero variance, empty spectra)

Codes 4-6 are the `exit_code` of the error's class (see `specdist.errors`).

Log verbosity is controlled only by the SPECDIST_LOG environment variable
(DEBUG, INFO, WARNING, ...).
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import os
import sys
from dataclasses import fields, replace

from . import pipeline
from .errors import AnalysisError, ConfigurationError, SpecdistError
from .distances import DEFAULT_KL_FLOOR
from .ingest import (
    TRANSFORMS, _removed_on_failure, read_panel_csv, read_ticks, resample, write_panel_csv
)
from .simulator import SimConfig, load_sim_config, run_simulation

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_CONFIG = 5


def _fail(exc: Exception) -> int:
    if isinstance(exc, SpecdistError):
        code = exc.exit_code
    elif isinstance(exc, OSError):
        code = EXIT_IO
    elif isinstance(exc, (ValueError, KeyError)):
        code = EXIT_CONFIG
    else:
        code = EXIT_INTERNAL
    msg = str(exc).replace('"', "'")
    print(f'specdist: error code={code} kind={type(exc).__name__} msg="{msg}"', file=sys.stderr)
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specdist",
        description="Spectral-distance analytics for multi-channel market series.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Flags of two commands.  A flag setting a SimConfig field stores under its name.
    windows = argparse.ArgumentParser(add_help=False)
    windows.add_argument("--window", type=int, default=pipeline.AnalysisConfig.width,
                         help="window width in samples")
    windows.add_argument("--stride", type=int, default=None, help="samples between window starts")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--seed", type=int, help="seed (of the first run for sweep)")
    model.add_argument("--steps", type=int, dest="horizon", metavar="STEPS",
                       help="recorded steps after warm-up, per run")
    model.add_argument("--agents", type=int, dest="n_agents", metavar="AGENTS")
    model.add_argument("--commodities", type=int, dest="n_commodities", metavar="COMMODITIES")
    model.add_argument("--gamma", type=float)

    p = sub.add_parser("ingest", help="tick CSV -> activity/rate panel CSVs")
    p.add_argument("ticks", help="tick CSV file (gzip accepted by .gz extension)")
    p.add_argument("--side", choices=("ask", "bid"), default="ask")
    p.add_argument("--dt", type=float, default=1.0, help="bucket width in minutes")
    p.add_argument("--activity-out", help="write the quotation-frequency panel here")
    p.add_argument("--rates-out", help="write the best-rate panel here")
    p.set_defaults(func=_cmd_ingest, files=(("ticks",), ("--activity-out", "--rates-out")))

    p = sub.add_parser("analyze", parents=[windows], help="panel CSV -> windowed metrics CSV")
    p.add_argument("panel", help="panel CSV (`time,<channel>,...`)")
    p.add_argument("--out", required=True, help="metrics CSV destination")
    p.add_argument("--transform", choices=TRANSFORMS, default="raw")
    p.add_argument("--channels", help="comma-separated channel subset")
    p.add_argument("--weights", help="comma-separated mixture weights (default uniform)")
    p.add_argument("--floor", type=float, default=DEFAULT_KL_FLOOR, help="KL probability floor")
    p.add_argument("--dump-spectra", help="also write per-window spectra here")
    p.add_argument("--dump-kl", help="also write per-window KL matrices here")
    p.set_defaults(func=_cmd_analyze, files=(("panel",), ("--out", "--dump-spectra", "--dump-kl")))

    p = sub.add_parser("simulate", parents=[model], help="agent-based model -> panel CSVs")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--rates-out", help="write the simulated rate panel here")
    p.add_argument("--activity-out", help="write the simulated activity panel here")
    p.add_argument("--warmup", type=int)
    p.add_argument("--ma-span", type=int)
    p.add_argument("--sigma-xi", type=float)
    p.add_argument("--sigma-s", type=float)
    p.add_argument("--theta-buy", type=float, nargs=2, dest="theta_buy_range",
                   metavar=("LO", "HI"))
    p.add_argument("--theta-sell", type=float, nargs=2, dest="theta_sell_range",
                   metavar=("LO", "HI"))
    p.add_argument("--a-range", type=float, nargs=2, metavar=("A1", "A2"))
    p.add_argument("--resample-params", action="store_true", default=None,
                   help="redraw agent parameters every step")
    p.set_defaults(func=_cmd_simulate, files=(("--config",), ("--rates-out", "--activity-out")))

    p = sub.add_parser("compare", help="two metrics CSVs -> correlation and slope")
    p.add_argument("left", help="metrics CSV providing the x series")
    p.add_argument("right", help="metrics CSV providing the y series")
    p.add_argument("--field-a", choices=pipeline.METRIC_FIELDS, default="js",
                   help="column of LEFT to use")
    p.add_argument("--field-b", choices=pipeline.METRIC_FIELDS, default="js",
                   help="column of RIGHT to use")
    p.add_argument("--fit", choices=("origin", "affine"), default="origin")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep", parents=[model, windows],
                       help="parameter-entropy sweep -> (H_a, mean JS) table")
    p.add_argument("--ha", required=True,
                   help="comma-separated parameter-entropy values, e.g. -1,0,1")
    p.add_argument("--seeds", type=int, default=3, help="seeds averaged per value")
    p.add_argument("--center", type=float,
                   help="center of the swept sensitivity range")
    p.add_argument("--out", help="write the table as CSV instead of stdout")
    p.set_defaults(func=_cmd_sweep)

    return parser


def _check_files(args: argparse.Namespace) -> None:
    """`ConfigurationError` unless the command has an output and each output is
    a file of its own, by absolute path: no other output or input."""
    inputs, outputs = getattr(args, "files", ((), ()))
    paths = {name: getattr(args, name.lstrip("-").replace("-", "_")) for name in inputs + outputs}
    if outputs and not any(paths[name] for name in outputs):
        raise ConfigurationError(f"nothing to do: pass {' and/or '.join(outputs)}")
    taken = {}  # absolute path -> the argument that names it
    for name, path in paths.items():
        other = taken.setdefault(os.path.abspath(path), name) if path else name
        if other != name and name in outputs:
            raise ConfigurationError(f"{path}: {other} and {name} name one file")


def _cmd_ingest(args: argparse.Namespace) -> int:
    parsed = read_ticks(args.ticks)
    if parsed.malformed:
        print(
            f"specdist: warning {parsed.malformed} malformed row(s) skipped",
            file=sys.stderr,
        )
        for problem in parsed.problems:
            print(f"specdist: warning   {problem}", file=sys.stderr)
    activity, rates = resample(parsed, args.dt, args.side)
    if args.rates_out and rates is None:
        raise AnalysisError(
            f"{args.ticks}: no rate series: fewer than two buckets after every instrument quoted"
        )
    meta = {"side": args.side, "dt": repr(args.dt), "transform": "raw"}
    _write_panels(meta, (args.activity_out, activity), (args.rates_out, rates))
    return EXIT_OK


def _write_panels(meta, *outputs) -> None:
    """Write each `(path, panel)` of `outputs` that has a path, or none of
    them: a failed write removes the files written before it."""
    with _removed_on_failure() as written:
        for path, panel in outputs:
            if path:
                write_panel_csv(panel, path, meta)
                written.append(path)


def _cmd_analyze(args: argparse.Namespace) -> int:
    panel = read_panel_csv(args.panel)
    cfg = pipeline.AnalysisConfig(
        width=args.window,
        stride=args.stride,
        channels=args.channels.split(",") if args.channels else None,
        transform=args.transform,
        weights=args.weights.split(",") if args.weights else None,
        kl_floor=args.floor,
    )
    # The metrics file is written after `analyze` has closed its dumps, so
    # a failed write removes them too.
    with _removed_on_failure() as written:
        result = pipeline.analyze(
            panel, cfg, dump_kl=args.dump_kl, dump_spectra=args.dump_spectra
        )
        written.extend(path for path in (args.dump_kl, args.dump_spectra) if path)
        pipeline.write_metrics_csv(result, args.out)
    return EXIT_OK


def _sim_config(args: argparse.Namespace) -> SimConfig:
    """The config file's SimConfig (or the defaults) with every field whose
    flag was given replaced; each parser defines a subset of the flags."""
    config_file = getattr(args, "config", None)
    cfg = load_sim_config(config_file) if config_file else SimConfig()
    overrides = {field.name: getattr(args, field.name, None) for field in fields(SimConfig)}
    return replace(cfg, **{name: value for name, value in overrides.items() if value is not None})


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _sim_config(args)
    rates, activity = run_simulation(cfg)
    meta = {"source": "simulate", **cfg.provenance(), "transform": "raw"}
    _write_panels(meta, (args.rates_out, rates), (args.activity_out, activity))
    return EXIT_OK


def _cmd_compare(args: argparse.Namespace) -> int:
    left = pipeline.read_metrics_csv(args.left)
    right = pipeline.read_metrics_csv(args.right)
    report = pipeline.compare_metric_series(left, right, args.field_a, args.field_b, args.fit)
    dropped = (left.timestamps.size - report.windows, right.timestamps.size - report.windows)
    if any(dropped):
        print(
            f"specdist: warning compared {report.windows} windows paired by start time; "
            f"dropped {dropped[0]} from {args.left} and {dropped[1]} from {args.right}",
            file=sys.stderr,
        )
    line = f"C={report.correlation!r} slope={report.slope!r}"
    if report.intercept is not None:
        line += f" intercept={report.intercept!r}"
    print(line)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        h_a_values = [float(v) for v in args.ha.split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"bad --ha list: {exc}") from None
    if not h_a_values:
        raise ConfigurationError("--ha needs at least one value")
    base = _sim_config(args)
    analysis = pipeline.AnalysisConfig(width=args.window, stride=args.stride)
    # The table is opened before the first run, and removed if the sweep fails.
    with _removed_on_failure() as written, (
        open(args.out, "w", encoding="utf-8", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    ) as out:
        if args.out:
            written.append(args.out)
        points = pipeline.entropy_sweep(
            h_a_values, base, analysis, seeds=args.seeds, center=args.center
        )
        pipeline.write_sweep_csv(points, out)
    return EXIT_OK


def main(argv=None) -> int:
    level = os.environ.get("SPECDIST_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        _check_files(args)
        return args.func(args)
    except Exception as exc:  # every failure is one stderr line and its exit code
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
