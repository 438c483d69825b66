"""specdist benchmark: the README CLI flows on seeded inputs, timed end to end.

Usage, from the repository root:

    python3 bench/run.py --workload {ticks,model,sweep} --seed N --seconds S --trace {0,1}

The benchmark generates the workload's inputs from the seed, then runs
repetitions of the workload, each in a fresh interpreter, serially, until
`--seconds` have passed (at least three).  Between repetitions it times a
fresh interpreter's `import specdist.cli` + `build_parser()` (set-up).  After
each repetition it checks the outputs.  With `--trace 1` it then runs one
more repetition with spans around every public function and reports the
per-layer numbers.

Human-readable lines come first; the second-to-last stdout line is the full
report as JSON (also written under `.bench_results/`), and the last line
is the summary object `{"correct", "attempted", "failed", "metrics"}`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy

from tracer import LAYER_METRICS
from workloads import WORKLOADS, Check, close

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"
PINNED = BENCH / "pinned.json"

MIN_REPS = 3
MIN_SETUP_SAMPLES = 5
SETUP_CODE = "import specdist.cli as cli; cli.build_parser()"
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Defined only on the workloads whose flow has the stage (or, for
# failed_ops_frac, can be zero), so they are reported per layer.
FLOW = {"ticks_per_s": "1/s", "windows_per_s": "1/s", "sim_steps_per_s": "1/s",
        "failed_ops_frac": "fraction"}
TRACE_COST = {"trace.wall_s": "s", "trace.overhead_s": "s"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("SPECDIST_LOG", None)  # README default log level
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_once() -> float:
    start = perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], env=child_env(), check=True,
                   stdout=subprocess.DEVNULL)
    return perf_counter() - start


def _slice(path: Path, span) -> str:
    with open(path, "rb") as fh:
        fh.seek(span[0])
        return fh.read(span[1] - span[0]).decode("utf-8", "replace")


def run_rep(workload, seed: int, rep: int, trace: bool, workdir: Path) -> dict:
    """Run the workload's calls once in a child; return its result plus peak RSS."""
    rundir = workdir.parent
    spec = {"src": str(SRC), "workdir": str(workdir), "calls": workload.calls(seed),
            "rep": rep, "trace": trace, "result": str(rundir / "result.json")}
    spec_path = rundir / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    out_path, err_path = rundir / "stdout.txt", rundir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, str(BENCH / "rep.py"), str(spec_path)],
                                stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise RuntimeError(f"repetition {rep} exited {proc.returncode}:\n{tail}")
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    for call in result["calls"]:
        call["stdout"] = _slice(out_path, call["stdout"])
        call["stderr"] = _slice(err_path, call["stderr"])
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux
    return result


def flow_metrics(facts: dict, rep: dict, derived: dict, failed_calls: int) -> dict:
    """Throughputs of the stages this workload's calls run, and the failure share."""
    calls = rep["calls"]
    dur = [c["end"] - c["start"] for c in calls]
    out = {"failed_ops_frac": failed_calls / len(calls)}
    ingest = [i for i, c in enumerate(calls) if c["argv"][0] == "ingest"]
    if ingest:
        out["ticks_per_s"] = facts["ticks"] / dur[ingest[0]]
    analyze = [i for i, c in enumerate(calls) if c["argv"][0] == "analyze"]
    windows = sum(v["windows"] for v in derived.values())
    if analyze and windows:
        out["windows_per_s"] = windows / sum(dur[i] for i in analyze)
    sim = [i for i, c in enumerate(calls) if c["argv"][0] in ("simulate", "sweep")]
    if sim and rep["default_warmup"] is not None:
        steps = facts.get("runs", 1) * (rep["default_warmup"] + facts["steps"])
        out["sim_steps_per_s"] = steps / dur[sim[0]]
    return out


def compare_observed(observed: dict, expected: dict) -> list[str]:
    """Keys where observed values differ: digests exactly, means to 1e-9 relative."""
    bad = []
    for key, want in expected.items():
        got = observed.get(key)
        if isinstance(want, str):
            same = got == want
        elif isinstance(want, list):
            same = isinstance(got, list) and len(got) == len(want) and all(
                close(g, w) for g, w in zip(got, want))
        else:
            same = got is not None and close(got, want)
        if not same:
            bad.append(key)
    return bad


def summarize(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(values)
    out = {"n": n, "median": statistics.median(values)}
    if n >= 20:
        q = math.floor(100 * (1 - 10 / n))
        out[f"p{q}"] = statistics.quantiles(values, n=100, method="inclusive")[q - 1]
    else:
        out["max"] = max(values)
    return out


def machine_record() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
        "load": "one client, closed loop, serial repetitions in fresh child processes",
    }


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def measure(workload, seed: int, seconds: float, trace: bool, min_reps: int = MIN_REPS) -> dict:
    workdir = WORK / f"{workload.name}-{os.getpid()}" / "files"
    shutil.rmtree(workdir.parent, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        facts = workload.make_inputs(seed, workdir)
        inputs = {p.name for p in workdir.iterdir()}
        pinned = json.loads(PINNED.read_text()).get(workload.name, {}).get(str(seed))
        checks: dict[str, Check] = {}
        reps, setup, traced = [], [], None
        attempted = failed = 0
        first_observed = None

        def fresh_run(rep_id: int, traced: bool) -> dict:
            """One repetition, after removing the previous repetition's outputs."""
            for path in workdir.iterdir():
                if path.name not in inputs:
                    path.unlink()
            return run_rep(workload, seed, rep_id, traced, workdir)

        def record(rep: dict) -> dict:
            nonlocal attempted, failed, first_observed
            try:
                observed = workload.observe(workdir)
            except (OSError, ValueError, IndexError, TypeError) as exc:
                observed = {"error": repr(exc)}
            found, derived = workload.check(workdir, facts, rep, observed)
            if first_observed is None:
                first_observed = observed
            found.append(Check("outputs identical across repetitions",
                               observed == first_observed, "", None))
            if pinned is not None:
                bad = compare_observed(observed, pinned)
                found.append(Check(f"pinned digests and means for seed {seed}", not bad,
                                   "mismatch: " + ", ".join(bad) if bad else "", None))
            for c in found:
                if c.name not in checks or (checks[c.name].ok and not c.ok):
                    checks[c.name] = c
            bad_calls = {c.call for c in found if not c.ok and c.call is not None}
            n_failed = sum(1 for i, c in enumerate(rep["calls"])
                           if c["code"] != 0 or i in bad_calls)
            attempted += len(rep["calls"])
            failed += n_failed
            rep["flow"] = flow_metrics(facts, rep, derived, n_failed)
            rep["observed"] = observed
            return rep

        # Stop before a repetition that would overrun the budget, once
        # min_reps are done, so a run lasts about `seconds`.
        deadline = perf_counter() + seconds
        costs: list[float] = []
        while len(reps) < min_reps or perf_counter() + statistics.median(costs) <= deadline:
            started = perf_counter()
            setup.append(setup_once())
            reps.append(record(fresh_run(len(reps), False)))
            costs.append(perf_counter() - started)
        while len(setup) < MIN_SETUP_SAMPLES:
            setup.append(setup_once())
        if trace:
            traced = record(fresh_run(len(reps), True))
    finally:
        shutil.rmtree(workdir.parent, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    timings = {
        "wall_s": [r["wall_s"] for r in reps],
        "setup_s": setup,
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
    }
    for name in FLOW:
        values = [r["flow"][name] for r in reps if name in r["flow"]]
        if values:
            timings[name] = values
    report = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": machine_record(),
        "inputs": facts,
        "correct": all(c.ok for c in checks.values()),
        "attempted": attempted, "failed": failed,
        "checks": [{"name": c.name, "ok": c.ok, "detail": c.detail} for c in checks.values()],
        "summary": {k: summarize(v) for k, v in timings.items()},
        "reps": [{k: r[k] for k in ("wall_s", "import_s", "peak_rss_mb", "flow")}
                 | {"calls": [{"argv": c["argv"], "code": c["code"],
                               "seconds": c["end"] - c["start"]} for c in r["calls"]]}
                 for r in reps],
        "observed": first_observed,
    }
    if traced is not None:
        report["layers"] = traced["layers"]
        report["absent"] = traced["absent"]
        report["trace_cost"] = {
            "trace.wall_s": traced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - report["summary"]["wall_s"]["median"],
        }
        report["spans"] = {"fields": ["name", "start", "end", "parent", "rep"],
                           "spans": traced["spans"]}
    return report


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def print_report(report: dict) -> None:
    print(f"specdist benchmark  workload={report['workload']} seed={report['seed']} "
          f"trace={int(report['trace'])}")
    m = report["machine"]
    print(f"  machine: nproc={m['nproc']} cpu={m['cpu_model']!r} python={m['python']} "
          f"numpy={m['numpy']} blas_env={m['blas_env']} commit={m['git_commit']}")
    units = {**END_TO_END, **FLOW}
    for name, s in report["summary"].items():
        extra = " ".join(f"{k}={v:.6g}" for k, v in s.items() if k not in ("n", "median"))
        print(f"  {name:<16} median={s['median']:.6g} {units[name]}  {extra}  n={s['n']}")
    for name in FLOW:
        if name not in report["summary"]:
            print(f"  {name:<16} n/a (no such stage in this workload)")
    print(f"  CLI calls: {report['attempted']} attempted, {report['failed']} failed")
    for c in report["checks"]:
        print(f"  [{'PASS' if c['ok'] else 'FAIL'}] {c['name']}  {c['detail']}")
    if "layers" in report:
        for name, value in report["layers"].items():
            mark = "  (absent)" if name in report["absent"] else ""
            print(f"  {name:<36} {value:.6g} {LAYER_METRICS[name]}{mark}")
        for name, value in report["trace_cost"].items():
            print(f"  {name:<36} {value:.6g} s")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "specdist" / "cli.py").is_file():
        print(f"bench: no specdist sources under {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("bench: --seed must be nonnegative", file=sys.stderr)
        return 2
    report = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace))

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report), encoding="utf-8")
    report.pop("spans", None)
    print_report(report)
    print(json.dumps(report))
    if args.trace:
        metrics = {name: metric(report["layers"][name], unit)
                   for name, unit in LAYER_METRICS.items()}
        for name, unit in FLOW.items():
            value = report["summary"].get(name, {}).get("median", 0.0)
            metrics[name] = metric(value, unit)
        metrics.update({n: metric(v, TRACE_COST[n]) for n, v in report["trace_cost"].items()})
    else:
        metrics = {name: metric(report["summary"][name]["median"], unit)
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": report["correct"], "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
