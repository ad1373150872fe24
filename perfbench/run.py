"""RMB simulator benchmark: run one workload and report its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload ring_overload [--seed 7] \
        [--seconds 30] [--trace 0|1]

``--trace 0`` repeats the untraced job (generate, build, replay, run to
drained, read stats) for about ``--seconds`` host seconds and reports
the end-to-end metrics: host throughput medians, set-up and wall time
(all in reference seconds, see ``reference.py``), peak memory, and the
simulated latency/makespan/failure figures, which repeat exactly at a
fixed seed.  ``--trace 1`` alternates untraced and
traced jobs, wraps each layer's entry points (``tracing.py``) and
reports the per-layer split, the batch-engine comparator and the
tracing overhead.  Both modes check conservation and that repeats
(traced or not) agree bit for bit; any failed check exits 1 without
printing a result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Optional

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

WORKLOAD_NAMES = ("ring_overload", "hier_uniform", "ring_async")

#: Every end-to-end metric the command prints, with its unit.
END_TO_END = {
    "sim_ticks_per_s": "ticks/s",
    "msgs_per_s": "msg/s",
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "latency_p50_ticks": "ticks",
    "latency_p99_ticks": "ticks",
    "makespan_ticks": "ticks",
    "failed_frac": "fraction",
}
#: The subset in the result line (BENCHMARK.json's ``end_to_end``):
#: ``failed_frac`` is 0 on every workload, since unbounded retries
#: deliver every message, so it is printed and checked but not gated.
REPORTED = ("sim_ticks_per_s", "msgs_per_s", "setup_s", "wall_s",
            "peak_rss_mb", "latency_p50_ticks", "latency_p99_ticks",
            "makespan_ticks")

#: Every per-layer metric, with its unit (BENCHMARK.json's ``per_layer``).
PER_LAYER = {
    "kernel.events": "count",
    "kernel.events_per_tick": "events/tick",
    "kernel.self_s": "s",
    "routing.calls": "count",
    "routing.s": "s",
    "routing.stall_ticks": "ticks",
    "routing.retries": "count",
    "routing.nacks": "count",
    "compaction.calls": "count",
    "compaction.s": "s",
    "compaction.moves": "count",
    "compaction.moves_per_call": "moves/call",
    "invariants.calls": "count",
    "invariants.s": "s",
    "cycles.calls": "count",
    "cycles.s": "s",
    "probes.calls": "count",
    "probes.s": "s",
    "fabric.calls": "count",
    "fabric.s": "s",
    "fabric.reinjections": "count",
    "fabric.legs_per_journey": "legs/journey",
    "traffic.generate_s": "s",
    "traffic.replay_s": "s",
    "setup.build_s": "s",
    "stats.s": "s",
    "batch.run_s": "s",
    "batch.ratio": "ratio",
    "trace.overhead_frac": "fraction",
    "host.memory_reference_s": "s",
    "host.compute_reference_s": "s",
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="RMB simulator benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7,
                        help="workload seed (default 7, as in E28)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="host seconds of jobs to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Benchmark the checkout's own sources, never an installed copy.
    if not (SOURCES / "repro").is_dir():
        print(f"perfbench: no simulator sources at {SOURCES / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    from measure import end_to_end, per_layer
    from workloads import WORKLOADS, BenchmarkFailure

    workload = WORKLOADS[args.workload]
    try:
        if args.trace:
            spans = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.csv.gz"
            metrics, jobs = per_layer(workload, args.seed, args.seconds,
                                      spans)
            units, reported = PER_LAYER, tuple(PER_LAYER)
        else:
            metrics, jobs = end_to_end(workload, args.seed, args.seconds)
            units, reported = END_TO_END, REPORTED
    except BenchmarkFailure as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        return 1
    for name, value in metrics.items():
        print(f"{name:28s} {value!r:>24} {units[name]}")
    offered = sum(int(job.simulated["offered"]) for job in jobs)
    completed = sum(int(job.simulated["completed"]) for job in jobs)
    print(json.dumps({
        "correct": True,
        "attempted": offered,
        "failed": offered - completed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in reported},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
