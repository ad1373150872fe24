"""Measurement loops of the benchmark: end-to-end and traced runs."""

from __future__ import annotations

import gc
import pathlib
import resource
import statistics
import time
from typing import Optional

from reference import HostSpeed
from tracing import SpanTracer
from workloads import (
    DRAIN_CAP_TICKS,
    PROBE_PERIOD,
    BenchmarkFailure,
    JobResult,
    Workload,
    run_job,
    setup_only,
)

#: Set-up alone is timed this many times after every untraced job, so
#: the samples spread over the run, and then again until there are at
#: least MIN_SETUPS samples in all (counting each job's own set-up).
SETUPS_PER_JOB = 4
MIN_SETUPS = 15
#: The batch comparator replays at most this many times, and starts a
#: further replay only while its runs so far took less than this.
BATCH_REPEATS = 3
BATCH_SECONDS = 5.0

#: One traced job with its per-layer totals and summed return values.
TracedJob = tuple[JobResult, dict[str, dict[str, float]], dict[str, int]]


def run_rounds(workload: Workload, seed: int, seconds: float, traced: bool,
               speed: HostSpeed, setups: Optional[list[float]] = None,
               ) -> tuple[list[JobResult], list[TracedJob],
                          Optional[SpanTracer]]:
    """Run rounds until the next would end more than half a round past
    ``seconds``; at least one round runs.

    A round is one untraced job, followed by one traced job when
    ``traced`` or by SETUPS_PER_JOB set-up samples appended to
    ``setups`` when that is given.  Returns the untraced jobs, the
    traced jobs and the last tracer (whose spans are written out).
    """
    plain: list[JobResult] = []
    traced_jobs: list[TracedJob] = []
    tracer: Optional[SpanTracer] = None
    start = time.perf_counter()
    rounds = 0
    while True:
        gc.collect()
        plain.append(run_job(workload, seed, speed))
        if setups is not None:
            setups.append(plain[-1].setup_s)
            for _ in range(SETUPS_PER_JOB):
                gc.collect()
                speed.maybe_sample()
                setups.append(setup_only(workload, seed))
        if traced:
            tracer = None  # free the previous job's spans first
            gc.collect()
            with SpanTracer() as tracer:
                job = run_job(workload, seed, speed)
            traced_jobs.append((job, tracer.layer_totals(),
                                dict(tracer.returned)))
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + 0.5 * elapsed / rounds > seconds:
            return plain, traced_jobs, tracer


def check_identical(jobs: list[JobResult], label: str) -> None:
    """Every repeat at one seed must reproduce job 0 bit for bit."""
    first = jobs[0]
    for index, job in enumerate(jobs[1:], start=1):
        for field in ("simulated", "exact", "summary"):
            if getattr(job, field) != getattr(first, field):
                raise BenchmarkFailure(
                    f"{label} job {index} {field} differs from job 0: "
                    f"{getattr(job, field)} != {getattr(first, field)}")


def end_to_end(workload: Workload, seed: int,
               seconds: float) -> tuple[dict[str, float], list[JobResult]]:
    """Untraced jobs: host medians plus the simulated metrics.

    Host times are in reference seconds: each job's by the memory
    task's scale over that job, set-up samples by the compute task's
    scale over the whole run.  The raw medians are printed beside them.
    """
    speed = HostSpeed()
    setups: list[float] = []
    jobs, _, _ = run_rounds(workload, seed, seconds, traced=False,
                            speed=speed, setups=setups)
    check_identical(jobs, f"{workload.name} untraced")
    while len(setups) < MIN_SETUPS:
        gc.collect()
        speed.maybe_sample()
        setups.append(setup_only(workload, seed))
    simulated = jobs[0].simulated
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setup_scale = speed.setup_scale()
    metrics = {
        "sim_ticks_per_s": statistics.median(
            [simulated["sim_ticks"] / (job.run_s * job.scale)
             for job in jobs]),
        "msgs_per_s": statistics.median(
            [simulated["completed"] / (job.run_s * job.scale)
             for job in jobs]),
        "setup_s": statistics.median(setups) * setup_scale,
        "wall_s": statistics.median([job.wall_s * job.scale
                                     for job in jobs]),
        "peak_rss_mb": peak_kib / 1024.0,
    }
    for name in ("latency_p50_ticks", "latency_p99_ticks", "makespan_ticks",
                 "failed_frac"):
        metrics[name] = simulated[name]
    print(f"# {workload.name} seed {seed}: rate {workload.rate} = "
          f"{workload.load_ratio:.2f}x saturation; {len(jobs)} jobs, "
          f"{len(setups)} set-ups; per job {int(simulated['offered'])} "
          f"messages, {int(simulated['sim_ticks'])} simulated ticks")
    print(f"# host speed: {len(speed.memory_samples)} reference samples, "
          f"memory task median "
          f"{statistics.median(speed.memory_samples):.6f} s (run scale "
          f"{speed.run_scale():.4f}), compute task median "
          f"{statistics.median(speed.compute_samples):.6f} s (set-up "
          f"scale {setup_scale:.4f}); raw medians: run_s "
          f"{statistics.median([job.run_s for job in jobs]):.4f}, "
          f"setup_s {statistics.median(setups):.4f}, wall_s "
          f"{statistics.median([job.wall_s for job in jobs]):.4f}")
    return metrics, jobs


def batch_comparator(workload: Workload, seed: int, event_job: JobResult,
                     event_run_s: float) -> tuple[float, float, str]:
    """Replay the event job's schedule through ``repro.batch.BatchRing``.

    Returns ``(batch run_s, event run_s / batch run_s, note)``; both
    numbers are 0 when the comparator does not apply.
    """
    if workload.topology != "ring" or not workload.synchronous:
        return 0.0, 0.0, "not run: repro.batch models synchronous flat rings"
    try:
        from repro.batch import BatchRing, replay_on_batch
    except ImportError as exc:
        return 0.0, 0.0, f"skipped: repro.batch is not importable ({exc})"
    runs: list[float] = []
    while len(runs) < BATCH_REPEATS and sum(runs) < BATCH_SECONDS:
        gc.collect()
        ring = BatchRing(workload.config(), seed=seed,
                         probe_period=PROBE_PERIOD)
        replay_on_batch(ring, event_job.schedule)
        start = time.perf_counter()
        ring.run(event_job.schedule.horizon() + 1.0)
        ring.drain(max_ticks=DRAIN_CAP_TICKS)
        runs.append(time.perf_counter() - start)
        summary = ring.stats().summary()
        if summary != event_job.summary:
            raise BenchmarkFailure(
                f"{workload.name}: batch stats {summary} differ from the "
                f"event engine's {event_job.summary}")
    batch_s = statistics.median(runs)
    return batch_s, event_run_s / batch_s, f"{len(runs)} replays"


def per_layer(workload: Workload, seed: int, seconds: float,
              spans_path: pathlib.Path,
              ) -> tuple[dict[str, float], list[JobResult]]:
    """Alternating untraced/traced jobs: the per-layer split.

    Layer times are raw host seconds; ``trace.overhead_frac`` compares
    run times in reference seconds.
    """
    speed = HostSpeed()
    plain, traced, tracer = run_rounds(workload, seed, seconds, traced=True,
                                       speed=speed)
    jobs = plain + [job for job, _, _ in traced]
    check_identical(jobs, f"{workload.name} untraced/traced")
    calls = {layer: totals["calls"]
             for layer, totals in traced[0][1].items()}
    for job, totals, returned in traced:
        repeat = {layer: t["calls"] for layer, t in totals.items()}
        if repeat != calls:
            raise BenchmarkFailure(
                f"{workload.name}: traced call counts differ across "
                f"repeats: {repeat} != {calls}")
        moves = returned.get("compaction", 0)
        if moves != job.exact["compaction.moves"]:
            raise BenchmarkFailure(
                f"{workload.name}: compaction passes returned {moves} "
                f"moves, the engines counted {job.exact['compaction.moves']}")
    exact = traced[0][0].exact
    simulated = traced[0][0].simulated

    def self_s(layer: str) -> float:
        return statistics.median(
            [totals[layer]["self_s"] for _, totals, _ in traced])

    def job_s(field: str) -> float:
        return statistics.median(
            [getattr(job, field) for job, _, _ in traced])

    plain_run_s = statistics.median([job.run_s for job in plain])
    batch_s, batch_ratio, batch_note = batch_comparator(
        workload, seed, plain[0], plain_run_s)
    offered = simulated["offered"]
    metrics: dict[str, float] = {
        "kernel.events": exact["kernel.events"],
        "kernel.events_per_tick": exact["kernel.events"]
        / simulated["sim_ticks"],
        "kernel.self_s": self_s("kernel"),
    }
    for layer in ("routing", "compaction", "invariants", "cycles", "probes",
                  "fabric"):
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.s"] = self_s(layer)
    metrics.update({
        "routing.stall_ticks": exact["routing.stall_ticks"],
        "routing.retries": exact["routing.retries"],
        "routing.nacks": exact["routing.nacks"],
        "compaction.moves": exact["compaction.moves"],
        "compaction.moves_per_call": (
            exact["compaction.moves"] / calls["compaction"]
            if calls["compaction"] else 0.0),
        "fabric.reinjections": exact["fabric.reinjections"],
        "fabric.legs_per_journey":
            (offered + exact["fabric.reinjections"]) / offered,
        "traffic.generate_s": job_s("generate_s"),
        "traffic.replay_s": job_s("replay_s"),
        "setup.build_s": job_s("build_s"),
        "stats.s": job_s("stats_s"),
        "batch.run_s": batch_s,
        "batch.ratio": batch_ratio,
        "trace.overhead_frac": statistics.median(
            [job.run_s * job.scale for job, _, _ in traced])
        / statistics.median([job.run_s * job.scale for job in plain]) - 1.0,
        "host.memory_reference_s": statistics.median(speed.memory_samples),
        "host.compute_reference_s":
            statistics.median(speed.compute_samples),
    })
    assert tracer is not None
    tracer.write(spans_path, workload.name)
    print(f"# {workload.name} seed {seed}: {len(plain)} untraced + "
          f"{len(traced)} traced jobs; batch comparator {batch_note}; "
          f"spans of the last traced job in {spans_path}")
    for name in ("latency_p50_ticks", "latency_p99_ticks", "makespan_ticks"):
        print(f"# simulated {name} = {simulated[name]!r} (traced == untraced)")
    return metrics, jobs
