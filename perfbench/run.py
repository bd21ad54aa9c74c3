#!/usr/bin/env python3
"""Nucleolus solve benchmark for nucnz.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a closed loop with one client: it issues
one full nucleolus solve at a time, with no threads or worker pools, and
starts no further solve once the next one would end after ``--seconds``.
Every allocation is checked at zero tolerance against the workload's
referee, which runs after the timed solves.

``--trace 0`` reports the end-to-end metrics:

* ``solve_s``: median wall time of one full solve;
* ``setup_s``: process start to ready-to-solve: the median time to import
  nucnz in three fresh interpreters, plus the median of three builds of
  the first instance (generation from the seed, game construction and,
  where the mode reads one, the value table);
* ``peak_rss_mib``: ``ru_maxrss`` after the timed solves, before the referee.

The share of failed solves (``failed_frac``) is printed with them and
carried by ``attempted`` and ``failed`` in the result.  It is not an
end-to-end metric of BENCHMARK.json, whose metrics must never read 0.

``--trace 1`` alternates untraced and traced solves of the run's first
instance and reports the per-layer metrics of tracer.METRICS: the lower
median over traced solves, plus ``trace.overhead_frac`` (median traced over
median untraced solve time, minus 1).  The spans are written to
``.perfbench_traces/<workload>-seed<seed>.json.gz`` when the run ends.

The last line of standard output is the JSON result.
"""

import argparse
import contextlib
import gc
import gzip
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".perfbench_traces"
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
    "import workloads; print(time.perf_counter() - t)"
)
END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mib": "MiB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    import networkx

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def solve_once(problem, wrap, around=contextlib.nullcontext):
    """Time one solve inside ``around()``; returns (seconds, result or None
    if it raised)."""
    gc.collect()
    with around():
        t = time.perf_counter()
        try:
            result = problem.solve(wrap)
        except Exception:
            traceback.print_exc()
            result = None
        dt = time.perf_counter() - t
    return dt, result


def import_seconds() -> float:
    """Median time to import the benchmark's workloads, and with them nucnz
    and networkx, in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        times.append(float(probe.stdout))
    return statistics.median(times)


def timed_run(workloads, wl, seed, seconds):
    import_s = import_seconds()
    builds = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        t = time.perf_counter()
        problem = wl.build(seed, 0)
        builds.append(time.perf_counter() - t)
    setup_s = import_s + statistics.median(builds)

    times, solved = [], []
    start = time.perf_counter()
    while True:
        if times and wl.seeded:
            problem = wl.build(seed, len(times))
        dt, result = solve_once(problem, workloads.identity)
        times.append(dt)
        solved.append((problem.players, result))
        if time.perf_counter() - start + dt > seconds:
            break
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = workloads.count_failures(wl, solved)
    metrics = {"solve_s": statistics.median(times), "setup_s": setup_s, "peak_rss_mib": rss_mib}
    print(f"{'solve_s':14s} {metrics['solve_s']:.4f} s    median of {len(times)} solves: "
          + " ".join(f"{t:.3f}" for t in times))
    print(f"{'setup_s':14s} {setup_s:.4f} s    median import {import_s:.4f} s + median "
          f"build {statistics.median(builds):.4f} s, {SETUP_REPEATS} of each")
    print(f"{'peak_rss_mib':14s} {rss_mib:.1f} MiB")
    print(f"{'failed_frac':14s} {failed / len(times):.4f} ratio  {failed} of {len(times)} solves")
    return metrics, len(times), failed


def traced_run(workloads, tracer, wl, seed, seconds):
    setup = tracer.Tracer(wl.game_class)
    with setup:
        problem = wl.build(seed, 0)
    untraced, traced, per_solve, solved, tracers = [], [], [], [], [setup]
    start = time.perf_counter()
    while True:
        dt, result = solve_once(problem, workloads.identity)
        untraced.append(dt)
        solved.append((problem.players, result))
        tr = tracer.Tracer(wl.game_class)
        with tr:
            tdt, result = solve_once(problem, tr.wrap_sep, lambda: tr.span("mps.solve"))
        traced.append(tdt)
        solved.append((problem.players, result))
        tracers.append(tr)
        if result is not None:
            per_solve.append(tr.solve_metrics(len(result.trace)))
        if time.perf_counter() - start + dt + tdt > seconds:
            break
    failed = workloads.count_failures(wl, solved)
    if not per_solve:
        raise RuntimeError("every traced solve failed")
    metrics = {k: statistics.median_low(m[k] for m in per_solve) for k in per_solve[0]}
    metrics["games.table_s"] = setup.totals()[1]["games.table"] * 1e-9
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1
    write_spans(wl.name, seed, tracers)

    print(f"traced solves {len(traced)}: median {statistics.median(traced):.4f} s, "
          f"untraced median {statistics.median(untraced):.4f} s")
    for layer in tracer.LAYERS:
        print(f"  {layer:9s} busy {metrics[f'{layer}.busy_s']:9.4f} s"
              f"  self {metrics[f'{layer}.self_s']:9.4f} s")
    for name, unit in tracer.METRICS.items():
        print(f"{name:24s} {metrics[name]:.6g} {unit}")
    return {k: metrics[k] for k in tracer.METRICS}, len(solved), failed


def write_spans(name, seed, tracers) -> None:
    """Spans of the traced set-up ("setup") and of each traced solve."""
    calls: dict[str, int] = {}
    for tr in tracers:
        for target, n in tr.calls.items():
            calls[target] = calls.get(target, 0) + n
    doc = {
        "workload": name,
        "seed": seed,
        "span_fields": ["name", "parent", "start_ns", "end_ns"],
        "wrapper_calls": calls,
        "setup": tracers[0].spans,
        "solves": [tr.spans for tr in tracers[1:]],
    }
    TRACE_DIR.mkdir(exist_ok=True)
    with gzip.open(TRACE_DIR / f"{name}-seed{seed}.json.gz", "wt") as f:
        json.dump(doc, f, separators=(",", ":"))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nucnz" / "__init__.py").is_file():
        print(f"perfbench: no nucnz sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import nucnz
    import workloads
    import tracer

    if Path(nucnz.__file__).resolve().parent != SRC / "nucnz":
        print(f"perfbench: nucnz imported from {nucnz.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    env = environment()
    print(f"workload {wl.name}  seed "
          + (str(args.seed) if wl.seeded else f"{args.seed} ignored: {wl.name} has no seed")
          + f"  python {env['python']}  networkx {env['networkx']}  nproc {env['nproc']}"
          + f"  cpu {env['cpu']}")
    if args.trace:
        metrics, attempted, failed = traced_run(workloads, tracer, wl, args.seed, args.seconds)
        units = tracer.METRICS
    else:
        metrics, attempted, failed = timed_run(workloads, wl, args.seed, args.seconds)
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
