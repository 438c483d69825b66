"""Workload definitions: seeded inputs, the README CLI calls, output checks.

Each workload is one closed loop: a single client issues the README's CLI
calls one after another, each waiting for the previous one.  Inputs are
generated from the workload seed before any timing starts; the program
sees only the generated files (and, for `simulate`/`sweep`, the seed as a
flag, as a user would pass it).

A workload exposes:

* `make_inputs(seed, workdir)` -> facts about the inputs (dict, JSON-able)
* `calls(seed)` -> list of CLI argv lists, run in `workdir`
* `observe(workdir)` -> values that must repeat exactly for a seed (panel
  digests, metric means); pinned per seed in `pinned.json`
* `check(workdir, facts, rep, observed)` -> Check results for one repetition,
  plus per-output window counts
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WIDTH = 128
KNOWN_3B = "window grids differ between inputs"
# Tolerances fixed before measuring: metric means may move in the last ulps
# when the analysis kernel is rewritten; entropies may exceed log(N-1) only
# by rounding.
MEAN_RTOL = 1e-9
ENTROPY_SLACK = 1e-12


@dataclass(frozen=True)
class Check:
    name: str
    ok: bool
    detail: str = ""
    call: int | None = None  # index of the CLI call the check belongs to


# ---------------------------------------------------------------------------
# Shared readers (the benchmark's own parsers, independent of specdist)
# ---------------------------------------------------------------------------


def read_panel(path: Path):
    """(labels, epoch-ms stamps, values (M, L)) of a panel CSV; comments skipped."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip() and not ln.startswith("#")]
    labels = tuple(lines[0].split(",")[1:])
    rows = [ln.split(",") for ln in lines[1:]]
    stamps = np.array([r[0].rstrip("Zz") for r in rows], dtype="datetime64[ms]")
    values = np.array([[float(c) for c in r[1:]] for r in rows], dtype=np.float64)
    return labels, stamps.astype(np.int64), values.T.reshape(len(labels), len(rows))


def panel_digest(labels, stamps, values) -> str:
    """sha256 over channel labels, int64 ms timestamps and float64 values."""
    h = hashlib.sha256(json.dumps(list(labels)).encode())
    h.update(np.ascontiguousarray(stamps, dtype="<i8").tobytes())
    h.update(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return h.hexdigest()


def read_metrics(path: Path) -> dict:
    """Scored rows of a metrics CSV as arrays, plus the `# gap=` line count."""
    gaps = 0
    header = None
    rows = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                gaps += line.startswith("# gap=")
                continue
            cells = line.split(",")
            if header is None:
                header = cells
            else:
                rows.append(cells)
    m = sum(1 for c in header if c.startswith("H_"))
    table = np.array([[float(c) for c in r[1:]] for r in rows], dtype=np.float64)
    table = table.reshape(len(rows), 2 + 2 * m)
    return {
        "js": table[:, 0],
        "mean_kl": table[:, 1],
        "entropies": table[:, 2 : 2 + m],
        "scored": len(rows),
        "gaps": gaps,
    }


def parse_compare(stdout: str) -> dict:
    """`C=<x> slope=<y> [intercept=<z>]` -> floats."""
    out = {}
    for token in stdout.split():
        key, _, value = token.partition("=")
        out[key] = float(value)
    return out


def expected_windows(length: int, stride: int) -> int:
    return 0 if length < WIDTH else (length - WIDTH) // stride + 1


def close(a: float, b: float, rtol: float = MEAN_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def metrics_checks(workdir: Path, call: int, out: str, panel: str, stride: int,
                   log_return: bool) -> tuple[list[Check], dict]:
    """Invariants and window geometry of one analyze output."""
    name = out.removesuffix(".csv")
    try:
        m = read_metrics(workdir / out)
        length = read_panel(workdir / panel)[1].size - (1 if log_return else 0)
    except (OSError, ValueError, TypeError) as exc:
        return [Check(f"{name}: readable", False, repr(exc), call)], {}
    js, kl, ent = m["js"], m["mean_kl"], m["entropies"]
    worst_gap = float(np.min(kl - js)) if js.size else math.inf
    h_top = math.log(WIDTH - 1)
    predicted = expected_windows(length, stride)
    checks = [
        Check(f"{name}: mean_kl >= js - 1e-9", worst_gap >= -1e-9,
              f"worst mean_kl - js = {worst_gap:.3e}", call),
        Check(f"{name}: 0 <= H <= log(N-1)",
              bool(ent.size == 0 or (ent.min() >= 0.0 and ent.max() <= h_top + ENTROPY_SLACK)),
              f"H in [{ent.min():.6f}, {ent.max():.6f}], log(N-1) = {h_top:.6f}"
              if ent.size else "no rows", call),
        Check(f"{name}: scored + skipped = geometry",
              m["scored"] + m["gaps"] == predicted and m["scored"] > 0,
              f"{m['scored']} + {m['gaps']} vs {predicted}", call),
    ]
    return checks, {name: {"windows": m["scored"] + m["gaps"], "scored": m["scored"],
                           "skipped": m["gaps"], "channels": ent.shape[1]}}


def known_3b_check(rep: dict, call: int) -> Check:
    """README `compare js_rates js_activity`: success, or the known grid defect."""
    c = rep["calls"][call]
    if c["code"] == 0:
        vals = parse_compare(c["stdout"])
        ok = math.isfinite(vals.get("C", math.nan)) and math.isfinite(vals.get("slope", math.nan))
        return Check("compare JS_R vs JS_A: ok or known defect", ok, c["stdout"].strip(), call)
    known = c["code"] == 4 and KNOWN_3B in c["stderr"]
    return Check("compare JS_R vs JS_A: ok or known defect", known,
                 f"exit {c['code']}: {c['stderr'].strip()[-160:]}", call)


def exit_checks(rep: dict, skip: set[int]) -> list[Check]:
    return [
        Check(f"call {i} ({c['argv'][0]}) exits 0", c["code"] == 0,
              f"exit {c['code']}: {c['stderr'].strip()[-160:]}" if c["code"] else "", i)
        for i, c in enumerate(rep["calls"]) if i not in skip
    ]


# ---------------------------------------------------------------------------
# ticks: ingest -> analyze x2 (with dumps) -> compare
# ---------------------------------------------------------------------------

T0_MS = 1_704_067_200_000  # 2024-01-01T00:00:00Z
TICK_INSTRUMENTS = 12
TICK_DAYS = 3
TICK_TARGET = 250_000
MALFORMED_SHARE = 0.002
# One instrument goes quiet for 7 hours on day 2, so both panels hold
# windows where that channel is constant (skipped, one WARNING each).
SILENT_INSTRUMENT = 5
SILENT_MINUTES = (1440 + 540, 1440 + 960)
TICKS_STRIDE = 64


def _tick_stream(seed: int):
    """Arrays of one seeded quote stream, in time order, before formatting."""
    rng = np.random.default_rng([seed, 1])
    minutes = TICK_DAYS * 1440
    day_phase = 2 * np.pi * (np.arange(minutes) % 1440) / 1440
    diurnal = 1.0 + 0.8 * np.sin(day_phase - np.pi / 2)  # trough at 00:00, peak at 12:00
    scale = rng.uniform(0.6, 1.4, TICK_INSTRUMENTS)
    scale /= scale.mean()  # the seed changes the mix, not the total load
    lam = TICK_TARGET / (TICK_INSTRUMENTS * minutes) * scale[:, None] * diurnal[None, :]
    lam[SILENT_INSTRUMENT, slice(*SILENT_MINUTES)] = 0.0
    counts = rng.poisson(lam).ravel()
    cell = np.repeat(np.arange(counts.size), counts)
    inst, minute = cell // minutes, cell % minutes
    n = cell.size
    ts = T0_MS + minute * 60_000 + rng.integers(0, 60_000, n)
    is_ask = rng.random(n) < 0.5
    log_mid = np.log(rng.uniform(0.5, 150.0, TICK_INSTRUMENTS))[:, None] + np.cumsum(
        rng.normal(0.0, 4e-4, (TICK_INSTRUMENTS, minutes)), axis=1
    )
    half_spread = 1e-4 * (1.0 + rng.random(n))
    price = np.exp(log_mid[inst, minute]) * (1.0 + np.where(is_ask, half_spread, -half_spread))
    order = np.argsort(ts, kind="stable")
    bad = rng.choice(n, round(n * MALFORMED_SHARE), replace=False)
    bad_kind = rng.integers(0, 5, bad.size)
    return ts[order], inst[order], is_ask[order], price[order], bad, bad_kind


def _reference_panels(ts, inst, is_ask, price, valid):
    """Ask-side activity and best-rate panels, computed without specdist."""
    origin = ts[valid].min() // 60_000 * 60_000
    buckets = int((ts[valid].max() - origin) // 60_000 + 1)
    a = valid & is_ask
    k = (ts[a] - origin) // 60_000
    present = np.unique(inst[a])
    activity = np.zeros((TICK_INSTRUMENTS, buckets))
    np.add.at(activity, (inst[a], k), 1.0)
    best = np.full((TICK_INSTRUMENTS, buckets), np.inf)
    np.minimum.at(best, (inst[a], k), price[a])
    activity, best = activity[present], best[present]
    quoted = np.isfinite(best)
    last = np.maximum.accumulate(np.where(quoted, np.arange(buckets), -1), axis=1)
    first_complete = int(np.argmax(quoted, axis=1).max())
    rates = np.take_along_axis(best, np.maximum(last, 0), axis=1)[:, first_complete:]
    stamps = origin + 60_000 * np.arange(buckets, dtype=np.int64)
    return activity, stamps, rates, stamps[first_complete:], present


def ticks_inputs(seed: int, workdir: Path) -> dict:
    ts, inst, is_ask, price, bad, bad_kind = _tick_stream(seed)
    stamps = np.char.add(np.datetime_as_string(ts.astype("datetime64[ms]"), unit="ms"), "Z")
    prices = [f"{p:.5f}" for p in price]
    names = [f"FX{j:02d}" for j in range(TICK_INSTRUMENTS)]
    rows = [
        f"{t},{names[i]},{'ask' if a else 'bid'},{p}"
        for t, i, a, p in zip(stamps.tolist(), inst.tolist(), is_ask.tolist(), prices)
    ]
    for idx, kind in zip(bad.tolist(), bad_kind.tolist()):
        t, name, p = stamps[idx], names[inst[idx]], prices[idx]
        rows[idx] = (
            f"{t[:9]}x{t[10:]},{name},ask,{p}",  # bad timestamp
            f"{t},{name},ask,n/a",  # bad price
            f"{t},{name},bid,-{p}",  # non-positive price
            f"{t},{name},mid,{p}",  # unknown side
            f"{t},{name},{p}",  # missing field
        )[kind]
    with open(workdir / "ticks.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("timestamp,instrument,side,price\n")
        fh.write("\n".join(rows))
        fh.write("\n")
    valid = np.ones(ts.size, dtype=bool)
    valid[bad] = False
    parsed = np.array([float(p) for p in prices])
    activity, a_stamps, rates, r_stamps, present = _reference_panels(ts, inst, is_ask, parsed, valid)
    labels = [names[j] for j in present]
    return {
        "ticks": int(ts.size),
        "malformed": int(bad.size),
        "activity_sha256": panel_digest(labels, a_stamps, activity),
        "rates_sha256": panel_digest(labels, r_stamps, rates),
    }


def ticks_calls(seed: int) -> list[list[str]]:
    s = str(TICKS_STRIDE)
    return [
        ["ingest", "ticks.csv", "--side", "ask", "--dt", "1",
         "--activity-out", "activity.csv", "--rates-out", "rates.csv"],
        ["analyze", "activity.csv", "--window", str(WIDTH), "--stride", s,
         "--out", "js_activity.csv"],
        ["analyze", "rates.csv", "--window", str(WIDTH), "--stride", s,
         "--transform", "log-return", "--out", "js_rates.csv",
         "--dump-kl", "kl_long.csv", "--dump-spectra", "spectra.csv"],
        ["compare", "js_rates.csv", "js_activity.csv"],
    ]


def _observe(workdir: Path, panels: tuple[str, ...], metrics: tuple[str, ...]) -> dict:
    """Panel digests and the means of each metrics file's JS and mean-KL series."""
    out = {f"{p}_sha256": panel_digest(*read_panel(workdir / f"{p}.csv")) for p in panels}
    for name in metrics:
        m = read_metrics(workdir / f"{name}.csv")
        out[f"{name}.mean_js"] = float(m["js"].mean())
        out[f"{name}.mean_kl"] = float(m["mean_kl"].mean())
    return out


def ticks_observe(workdir: Path) -> dict:
    return _observe(workdir, ("activity", "rates"), ("js_activity", "js_rates"))


def _count_lines(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


def ticks_check(workdir: Path, facts: dict, rep: dict, observed: dict) -> tuple[list[Check], dict]:
    checks = exit_checks(rep, skip={3})
    derived: dict = {}
    ingest = rep["calls"][0]
    if ingest["code"] == 0:
        for panel in ("activity", "rates"):
            got = observed.get(f"{panel}_sha256", "unreadable")
            checks.append(Check(f"{panel} panel sha256 = reference resample",
                                got == facts[f"{panel}_sha256"], got[:16], 0))
        reported = f"warning {facts['malformed']} malformed row(s) skipped" in ingest["stderr"]
        checks.append(Check("ingest reports every malformed row", reported,
                            f"{facts['malformed']} of {facts['ticks']} rows malformed", 0))
    for call, out, panel, log_ret in ((1, "js_activity.csv", "activity.csv", False),
                                      (2, "js_rates.csv", "rates.csv", True)):
        found, facts_out = metrics_checks(workdir, call, out, panel, TICKS_STRIDE, log_ret)
        checks += found
        derived.update(facts_out)
        if facts_out:
            name = out.removesuffix(".csv")
            checks.append(Check(f"{name}: constant windows skipped",
                                facts_out[name]["skipped"] > 0,
                                f"{facts_out[name]['skipped']} skipped", call))
    rates = derived.get("js_rates")
    if rates and rep["calls"][2]["code"] == 0:
        m = rates["channels"]
        kl_rows = _count_lines(workdir / "kl_long.csv") - 2
        spectra_rows = _count_lines(workdir / "spectra.csv") - 1
        checks.append(Check("kl dump rows = scored * M^2", kl_rows == rates["scored"] * m * m,
                            f"{kl_rows} rows", 2))
        checks.append(Check("spectra dump rows = scored * M * (N-1)",
                            spectra_rows == rates["scored"] * m * (WIDTH - 1),
                            f"{spectra_rows} rows", 2))
    checks.append(known_3b_check(rep, 3))
    return checks, derived


# ---------------------------------------------------------------------------
# model: simulate -> analyze x2 -> compare (criterion 2) -> compare (JS_R vs JS_A)
# ---------------------------------------------------------------------------

MODEL_STEPS = 4096
MODEL_STRIDE = 32
CRITERION_2_SLOPE = (0.27, 0.57)
CRITERION_2_MIN_C = 0.85


def model_inputs(seed: int, workdir: Path) -> dict:
    return {"steps": MODEL_STEPS}


def model_calls(seed: int) -> list[list[str]]:
    s = str(MODEL_STRIDE)
    return [
        ["simulate", "--seed", str(seed), "--steps", str(MODEL_STEPS),
         "--rates-out", "sim_rates.csv", "--activity-out", "sim_activity.csv"],
        ["analyze", "sim_activity.csv", "--window", str(WIDTH), "--stride", s,
         "--out", "m_activity.csv"],
        ["analyze", "sim_rates.csv", "--window", str(WIDTH), "--stride", s,
         "--transform", "log-return", "--out", "m_rates.csv", "--dump-kl", "m_kl_long.csv"],
        ["compare", "m_activity.csv", "m_activity.csv", "--field-a", "mean_kl", "--field-b", "js"],
        ["compare", "m_rates.csv", "m_activity.csv"],
    ]


def model_observe(workdir: Path) -> dict:
    return _observe(workdir, ("sim_rates", "sim_activity"), ("m_activity", "m_rates"))


def model_check(workdir: Path, facts: dict, rep: dict, observed: dict) -> tuple[list[Check], dict]:
    checks = exit_checks(rep, skip={4})
    derived: dict = {}
    for call, out, panel, log_ret in ((1, "m_activity.csv", "sim_activity.csv", False),
                                      (2, "m_rates.csv", "sim_rates.csv", True)):
        found, facts_out = metrics_checks(workdir, call, out, panel, MODEL_STRIDE, log_ret)
        checks += found
        derived.update(facts_out)
    crit = rep["calls"][3]
    if crit["code"] == 0:
        vals = parse_compare(crit["stdout"])
        lo, hi = CRITERION_2_SLOPE
        ok = lo <= vals["slope"] <= hi and vals["C"] > CRITERION_2_MIN_C
        checks.append(Check("criterion 2: js vs mean_kl slope in [0.27, 0.57], C > 0.85",
                            ok, f"slope={vals['slope']:.4f} C={vals['C']:.4f}", 3))
    checks.append(known_3b_check(rep, 4))
    return checks, derived


# ---------------------------------------------------------------------------
# sweep: 3 H_a values x 2 seeds of simulate + analyze in one call
# ---------------------------------------------------------------------------

SWEEP_HA = (-1.4, -0.3, 0.8)
SWEEP_SEEDS = 2
SWEEP_STEPS = 1024
SWEEP_STRIDE = 64
SWEEP_COMMODITIES = 20  # the simulator's default M


def sweep_inputs(seed: int, workdir: Path) -> dict:
    return {"steps": SWEEP_STEPS, "runs": len(SWEEP_HA) * SWEEP_SEEDS}


def sweep_calls(seed: int) -> list[list[str]]:
    return [[
        "sweep", "--ha=" + ",".join(repr(h) for h in SWEEP_HA), "--seeds", str(SWEEP_SEEDS),
        "--steps", str(SWEEP_STEPS), "--seed", str(seed), "--center", "2.0",
        "--window", str(WIDTH), "--stride", str(SWEEP_STRIDE), "--out", "sweep.csv",
    ]]


def sweep_observe(workdir: Path) -> dict:
    with open(workdir / "sweep.csv", encoding="utf-8") as fh:
        rows = fh.read().split()[1:]  # h_a,a1,a2,mean_js
    return {"mean_js": [float(row.split(",")[3]) for row in rows]}


def sweep_check(workdir: Path, facts: dict, rep: dict, observed: dict) -> tuple[list[Check], dict]:
    checks = exit_checks(rep, skip=set())
    if rep["calls"][0]["code"] == 0:
        mean_js = np.array(observed.get("mean_js", []), dtype=np.float64)
        top = math.log(SWEEP_COMMODITIES)
        checks.append(Check("sweep: one row per H_a", mean_js.size == len(SWEEP_HA),
                            f"{mean_js.size} rows", 0))
        checks.append(Check("sweep: mean_js finite and in [0, log M]",
                            bool(np.all(np.isfinite(mean_js)) and np.all(mean_js >= 0)
                                 and np.all(mean_js <= top)),
                            " ".join(f"{v:.6f}" for v in mean_js), 0))
    return checks, {}


@dataclass(frozen=True)
class Workload:
    name: str
    make_inputs: object
    calls: object
    observe: object
    check: object


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ticks", ticks_inputs, ticks_calls, ticks_observe, ticks_check),
        Workload("model", model_inputs, model_calls, model_observe, model_check),
        Workload("sweep", sweep_inputs, sweep_calls, sweep_observe, sweep_check),
    )
}
