"""The benchmark's workloads and the job that runs one of them.

Every workload is an open loop in simulated time: a seeded Bernoulli
uniform-traffic schedule is generated up front and replayed so each
arrival is submitted at its due tick, whatever the network is doing.
Latency therefore counts from the due tick and the generator is never
late by construction.  On the host side a job is a batch: generate,
build, replay, run until drained, read the statistics.

Every network runs with the ``RMBConfig`` defaults (``cycle_period=4``,
``check_level="full"``, unbounded retries with backoff 2.0, header
timeout 128), 8 data flits per message and probes every 16 ticks.  Flat
rings are built with the protocol event log off (``trace_kinds=set()``,
as in E28); ``HierRMB`` has no such switch, so its members keep the
default log.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.core import RMBConfig, RMBRing
from repro.hier import HierRMB
from repro.sim import RandomStream
from repro.traffic import (
    ArrivalSchedule,
    bernoulli_schedule,
    replay_on_fabric,
    replay_on_ring,
)

from reference import HostSpeed

DATA_FLITS = 8
LANES = 4
PROBE_PERIOD = 16.0
#: Every job must deliver this many messages, so that at least ten
#: latency samples lie beyond the p99.
MIN_DELIVERED = 1000
DRAIN_CAP_TICKS = 20_000_000.0
#: The run phase advances the kernel in slices of this many ticks, so
#: reference samples can be taken between them.  ``Simulator.run`` in
#: slices fires the same events in the same order as one call.
SLICE_TICKS = 256.0

Network = Union[RMBRing, HierRMB]


class BenchmarkFailure(Exception):
    """A correctness check of the benchmark failed."""


@dataclass(frozen=True)
class Workload:
    """One operating point: a network and its offered load.

    A job offers the first ``messages`` arrivals of the Bernoulli
    process; a fixed count offers the same work under every seed.
    ``saturation`` is the workload's own uniform saturation rate in
    messages per node per tick, as measured by ``perfbench/saturation.py``
    with this workload's configuration.
    """

    name: str
    topology: str            # "ring" or "hier"
    nodes: int
    rate: float
    saturation: float
    synchronous: bool = True
    messages: int = 1024

    @property
    def load_ratio(self) -> float:
        """Offered load over measured saturation."""
        return self.rate / self.saturation

    def window(self) -> int:
        """Ticks of Bernoulli arrivals to generate for one job.

        Long enough that falling short of :attr:`messages` arrivals
        takes a deviation of five standard deviations.
        """
        expected = self.messages + 5.0 * math.sqrt(self.messages) + 5.0
        return math.ceil(expected / (self.nodes * self.rate))

    def config(self) -> RMBConfig:
        """The flat ring's configuration (hier members derive theirs)."""
        return RMBConfig(nodes=self.nodes, lanes=LANES,
                         synchronous=self.synchronous)

    def arrivals(self, seed: int, window: int,
                 rate: float) -> ArrivalSchedule:
        """Every Bernoulli arrival of ``window`` ticks."""
        rng = RandomStream(seed, name=f"perfbench.{self.name}")
        return bernoulli_schedule(self.nodes, window, rate, DATA_FLITS, rng)

    def schedule(self, seed: int) -> ArrivalSchedule:
        """The job's first :attr:`messages` arrivals."""
        full = self.arrivals(seed, self.window(), self.rate)
        if len(full) < self.messages:
            raise BenchmarkFailure(
                f"{self.name} seed {seed}: window produced {len(full)} "
                f"arrivals, fewer than {self.messages}")
        return ArrivalSchedule(full.entries[:self.messages])

    def build(self, seed: int) -> Network:
        if self.topology == "hier":
            return HierRMB(locals=8, nodes_per_local=8, lanes=LANES,
                           seed=seed, probe_period=PROBE_PERIOD)
        return RMBRing(self.config(), seed=seed, probe_period=PROBE_PERIOD,
                       trace_kinds=set())

    def replay(self, network: Network, schedule: ArrivalSchedule) -> None:
        if isinstance(network, HierRMB):
            replay_on_fabric(network, schedule)
        else:
            replay_on_ring(network, schedule)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="ring_overload", topology="ring", nodes=16, rate=0.1,
        saturation=0.00583, messages=4096),
    Workload(
        name="hier_uniform", topology="hier", nodes=64, rate=0.0005,
        saturation=0.00704),
    Workload(
        name="ring_async", topology="ring", nodes=16, rate=0.0015,
        saturation=0.00629, synchronous=False),
)}


@dataclass
class JobResult:
    """Host timings, simulated metrics and exact counts of one job.

    Times are raw host seconds; ``run_s`` excludes the reference samples
    taken during the run.  ``scale`` converts them to reference seconds
    (see ``reference.py``).
    """

    generate_s: float
    build_s: float
    replay_s: float
    run_s: float
    stats_s: float
    simulated: dict[str, float]
    exact: dict[str, int]
    summary: dict[str, float]
    schedule: ArrivalSchedule
    scale: float

    @property
    def setup_s(self) -> float:
        return self.generate_s + self.build_s + self.replay_s

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s + self.stats_s


def run_job(workload: Workload, seed: int, speed: HostSpeed) -> JobResult:
    """Generate, build, replay, run to drained, read stats; then check.

    Reference samples are taken before the job, between kernel runs at
    least ``SAMPLE_EVERY_S`` apart, and after the job; the job's scale
    comes from those samples alone.
    """
    first = len(speed.memory_samples)
    speed.sample()
    clock = time.perf_counter
    start = clock()
    schedule = workload.schedule(seed)
    generated = clock()
    network = workload.build(seed)
    built = clock()
    workload.replay(network, schedule)
    replayed = clock()
    spent = speed.spent
    _run_sampled(network, schedule.horizon() + 1.0, speed)
    ran = clock()
    if isinstance(network, HierRMB):
        stats = network.journey_run_stats()
    else:
        stats = network.stats()
    done = clock()
    speed.sample()
    simulated, exact = _check_and_measure(
        f"{workload.name} seed {seed}", network, schedule, stats)
    return JobResult(
        generate_s=generated - start, build_s=built - generated,
        replay_s=replayed - built, run_s=ran - replayed - (speed.spent - spent),
        stats_s=done - ran, simulated=simulated, exact=exact,
        summary=stats.summary(), schedule=schedule,
        scale=speed.run_scale(first))


def _run_sampled(network: Network, ticks: float, speed: HostSpeed) -> None:
    """``network.run(ticks)`` then ``network.drain()``, sampling between
    kernel runs.

    The run phase is cut into SLICE_TICKS slices; the drain already
    calls ``Simulator.run`` once per chunk.  The instance attribute
    shadows the class method (wrapped or not by the tracer) for this
    network's simulator only.
    """
    sim = network.sim
    kernel_run = sim.run

    def run(until: Optional[float] = None,
            max_events: Optional[int] = None) -> None:
        kernel_run(until, max_events)
        speed.maybe_sample()

    sim.run = run  # type: ignore[method-assign]
    try:
        end = sim.now + ticks
        while sim.now < end:
            sim.run(min(sim.now + SLICE_TICKS, end))
        network.drain(max_ticks=DRAIN_CAP_TICKS)
    finally:
        del sim.run


def setup_only(workload: Workload, seed: int) -> float:
    """Time the set-up phase alone (generate, build, replay)."""
    start = time.perf_counter()
    schedule = workload.schedule(seed)
    network = workload.build(seed)
    workload.replay(network, schedule)
    return time.perf_counter() - start


def _check_and_measure(where: str, network: Network,
                       schedule: ArrivalSchedule,
                       stats: Any) -> tuple[dict[str, float], dict[str, int]]:

    def require(condition: bool, message: str) -> None:
        if not condition:
            raise BenchmarkFailure(f"{where}: {message}")

    hier = isinstance(network, HierRMB)
    rings = list(network.rings.values()) if hier else [network]
    for ring in rings:
        require(ring.monitor is not None and ring.check_level == "full",
                f"ring {ring.name} runs without the full invariant monitor")
    offered = stats.offered
    require(offered == len(schedule),
            f"offered {offered} != scheduled {len(schedule)}")
    require(stats.completed + stats.abandoned + stats.shed == offered,
            f"conservation: completed {stats.completed} + abandoned "
            f"{stats.abandoned} + shed {stats.shed} != offered {offered}")
    require(stats.completed >= MIN_DELIVERED,
            f"delivered {stats.completed} < {MIN_DELIVERED}")
    pending = network.pending() if hier else network.routing.pending()
    require(pending == 0, f"{pending} requests still pending after drain")
    legs = [record for ring in rings
            for record in ring.routing.records.values()]
    if hier:
        journeys = list(network.journeys.values())
        require(all(journey.finished for journey in journeys),
                "a journey did not finish")
        require(sum(len(j.trail) for j in journeys)
                == sum(len(j.plan) for j in journeys),
                "a journey leg was never injected")
        completions = [journey.completed_at for journey in journeys]
        reinjections = len(legs) - len(journeys)
    else:
        completions = [record.completed_at for record in legs
                       if record.finished]
        reinjections = 0
    simulated = {
        "offered": float(offered),
        "completed": float(stats.completed),
        "latency_p50_ticks": stats.latency_percentile(0.50),
        "latency_p99_ticks": stats.latency_percentile(0.99),
        "makespan_ticks": max(completions) - schedule.entries[0][0],
        "failed_frac": (offered - stats.completed) / offered,
        "sim_ticks": network.sim.now,
    }
    exact = {
        "kernel.events": network.sim.events_executed,
        "routing.stall_ticks": sum(r.head_stall_ticks for r in legs),
        "routing.retries": sum(r.retries for r in legs),
        "routing.nacks": sum(r.nacks for r in legs),
        "compaction.moves": sum(ring.compaction.stats.moves
                                for ring in rings),
        "fabric.reinjections": reinjections,
    }
    return simulated, exact
