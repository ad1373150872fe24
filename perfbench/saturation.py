"""Scan each benchmark workload's own configuration for its saturation rate.

``repro.traffic.saturation.SaturationConfig`` defaults to a bounded
retry policy and ``cycle_period=2`` and cannot express an asynchronous
ring, so it does not measure the networks the benchmark runs.  This
script bisects the per-node uniform Bernoulli rate on each workload's
exact network (its ``Workload.build``), with the stability rule of
``repro.traffic.saturation``: a point is stable when it drains within
ten windows, completes at least 99% of its messages and keeps mean
latency under ``20 * (flits + nodes)`` ticks.

Run from the repository root (takes a few minutes)::

    python3 perfbench/saturation.py [--seed 7] [--json perfbench/saturation.json]

The committed ``perfbench/saturation.json`` is the anchor the workloads'
``saturation`` fields and offered/saturation ratios come from.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.errors import ProtocolError  # noqa: E402

from workloads import DATA_FLITS, WORKLOADS, Workload  # noqa: E402

#: Scan brackets (floor rate, ceiling rate) and window length in ticks
#: per workload network.
SCANS = {
    "ring_overload": (0.0005, 0.02, 4000),
    "hier_uniform": (0.0005, 0.016, 3000),
    "ring_async": (0.0005, 0.02, 4000),
}
ITERATIONS = 7


def run_point(workload: Workload, seed: int, rate: float,
              window: int) -> dict:
    schedule = workload.arrivals(seed, window, rate)
    network = workload.build(seed)
    workload.replay(network, schedule)
    network.run(window + 1.0)
    drained = True
    try:
        network.drain(max_ticks=10.0 * window)
    except ProtocolError:
        drained = False
    if hasattr(network, "journey_run_stats"):
        stats = network.journey_run_stats()
    else:
        stats = network.stats()
    cap = 20.0 * (DATA_FLITS + workload.nodes)
    mean = stats.latency.mean
    if not drained:
        reason = "drain"
    elif stats.completion_rate < 0.99:
        reason = "completion"
    elif mean > cap:
        reason = "latency"
    else:
        reason = "ok"
    return {"rate": rate, "offered": stats.offered,
            "completed": stats.completed, "mean_latency": round(mean, 2),
            "stable": reason == "ok", "reason": reason}


def scan(workload: Workload, seed: int) -> dict:
    floor, ceiling, window = SCANS[workload.name]
    points = []

    def stable(rate: float) -> bool:
        point = run_point(workload, seed, rate, window)
        points.append(point)
        print(f"  {workload.name} rate {rate:.6f}: {point}", flush=True)
        return point["stable"]

    if not stable(floor):
        raise SystemExit(f"{workload.name}: floor rate {floor} unstable")
    if stable(ceiling):
        raise SystemExit(f"{workload.name}: ceiling rate {ceiling} stable")
    low, high = floor, ceiling
    for _ in range(ITERATIONS):
        mid = (low + high) / 2.0
        if stable(mid):
            low = mid
        else:
            high = mid
    return {"saturation_rate": low, "unstable_rate": high,
            "window_ticks": window, "seed": seed,
            "points": sorted(points, key=lambda p: p["rate"])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--json", default=None, metavar="PATH")
    parser.add_argument("workloads", nargs="*",
                        help=f"any of {', '.join(SCANS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = sorted(set(args.workloads) - set(SCANS))
    if unknown:
        parser.error(f"no scan for {', '.join(unknown)}")
    results = {name: scan(WORKLOADS[name], args.seed)
               for name in args.workloads or SCANS}
    text = json.dumps(results, indent=2)
    if args.json:
        pathlib.Path(args.json).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
