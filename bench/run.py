"""Benchmark of graphck: one workload per process, a fixed list of operations.

Usage, from the repository root:

    python3 bench/run.py --workload verify --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

With ``--trace 0`` it times the run's fixed list of operations and
prints the end-to-end metrics; with ``--trace 1`` it wraps the
library's public functions, runs the same list and prints the
per-layer metrics.  Inputs are built and outputs are checked outside
the timed region, and operation times are scaled to a reference speed
of the machine (``speed.py``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the same
object, with the run's details, goes to ``bench/results/``.
``--workload all`` runs each workload in its own process, one after
another, and prints one line per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
NAMES = ("verify", "worst", "queries", "corner")
#: Fresh interpreters timed per run for ``setup_s``, after one untimed warm-up.
SETUP_SAMPLES = 15
#: Wall time, in seconds, of a bare interpreter start (``python3 -c pass``)
#: that ``setup_s`` refers to (its typical time on a quiet core of the
#: machine the reference figures come from).
NOMINAL_START_S = 0.08


def setup_seconds() -> float:
    """Median time for a fresh interpreter to finish ``import graphck.cli``.

    Each sample is scaled to the speed of a bare interpreter start timed
    just before it: the import's time times ``NOMINAL_START_S`` over the
    bare start's.  Over ten runs on shared cores, the interquartile spread
    of the raw median reached 0.32 of its median; that of the scaled one
    stayed within 0.04.
    """
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}

    def child(code: str) -> float:
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True)
        return perf_counter() - t0

    child("import graphck.cli")
    times = []
    for _ in range(SETUP_SAMPLES):
        bare = child("pass")
        times.append(child("import graphck.cli") * NOMINAL_START_S / bare)
    return statistics.median(times)


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    import workloads

    tracer = probe = None
    problems, errors = [], set()
    with tempfile.TemporaryDirectory(dir=RESULTS, prefix=f"work-{name}-") as work:
        ops, check, may_fail = workloads.WORKLOADS[name](seed, seconds, Path(work))
        spans = []  # (start, end) of each completed operation
        if trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        else:
            probe = SpeedProbe()
        gc.collect()
        with probe or contextlib.nullcontext():
            for i, op in enumerate(ops):
                if tracer:
                    tracer.op = i
                    tracer.active = True
                t0 = perf_counter()
                try:
                    result = op()
                except Exception as exc:  # noqa: BLE001 - a failed operation is counted
                    result = exc
                t1 = perf_counter()
                if tracer:
                    tracer.active = False
                # checked at once, untimed, so no result outlives its operation
                if isinstance(result, Exception):
                    errors.add(f"{type(result).__name__}: {result}")
                    if i not in may_fail:
                        problems.append(f"operation {i} raised {type(result).__name__}: {result}")
                else:
                    spans.append((t0, t1))
                    problems += check(i, result)
                del result
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            tracer.uninstall()
    for line in problems[:20] + sorted(errors):
        print(f"{name}: {line}", file=sys.stderr)
    if not spans:
        raise SystemExit(f"{name}: no operation completed")

    raw = sorted(t1 - t0 for t0, t1 in spans)
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "busy_s_raw": sum(raw),
        "op_p50_ms_raw": statistics.median(raw) * 1e3,
        "op_max_ms_raw": raw[-1] * 1e3,
        "errors": sorted(errors),
        "problems": len(problems),
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(ops) - len(spans),
    }
    if tracer:
        tracer.counts["cli.bytes_out"] = getattr(check, "bytes_out", 0)
        metrics = tracer.metrics()
        trace_path = RESULTS / f"{name}-seed{seed}.trace.json"
        tracer.write(trace_path)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    else:
        ok = sorted(probe.scaled(t0, t1) for t0, t1 in spans)
        record["probe_ms_median"] = statistics.median(probe.times) * 1e3
        metrics = {
            "setup_s": (setup_seconds(), "s"),
            "ops_per_s": (len(ok) / sum(ok), "1/s"),
            "op_p50_ms": (statistics.median(ok) * 1e3, "ms"),
            "op_p95_ms": (_percentile(ok, 0.95) * 1e3, "ms"),
            "op_max_ms": (ok[-1] * 1e3, "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    record["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    suffix = ".trace" if trace else ""
    (RESULTS / f"{name}-seed{seed}{suffix}.result.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    return record


def main(argv=None) -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        # a fixed string hash fixes set iteration order, and with it every
        # per-layer count (build_EH's any() over a frozenset stops early)
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10,
                        help="sizes the fixed operation list (10 is the nominal run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if args.workload == "all":
        status = 0
        for name in NAMES:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            print(f"{name} {lines[-1] if lines else '{}'}", flush=True)
            status = status or proc.returncode
        return status

    sys.path.insert(0, str(ROOT / "src"))
    RESULTS.mkdir(exist_ok=True)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
