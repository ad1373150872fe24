"""Host-speed references: the yardsticks that host times are measured in.

On a shared host the speed of one CPU swings by up to 1.8x, from one
few-second stretch to the next and for minutes at a time, so a median
over the jobs of one run does not average it out.  Two fixed reference
tasks, timed between slices of every job, slow down with the host, and
every gated host time is scaled by ``*_REFERENCE_S / (median duration
of the matching task over the same interval)``.  A scaled time reads as
seconds on a host running at the reference speed, and only a change in
the simulator itself moves it.

A task has to slow down in the same proportion as the phase it scales,
and the two phases of a job slow down differently:

* The run phase works through a heap of events, records and lanes that
  misses the caches.  The *memory* task follows a random cycle through
  ``NODES`` slotted objects and then reads attributes of ``RECORDS``
  ordinary objects in random order.  Against repeated jobs over five
  minutes its log-log slope was 1.0 (``ring_async``) and 1.07
  (``hier_uniform``); scaling by it cut the job-to-job spread of the
  run time from 13% to 5-8% (standard deviation of the log).  The
  compute task's slope against the run phase was only 0.5.
* Set-up is mostly random-number generation over a small working set.
  The *compute* task, a loop over a heap and a dict that stay in the
  first-level caches, tracked it with slopes 0.91-1.06 on all three
  workloads and cut the spread of set-up time from 24-28% to 8-9%; the
  memory task's slope against set-up was 1.7.

Neither task imports anything from the simulator, so no change to the
program can speed them up or slow them down.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time
from typing import Callable

#: Median durations of the two tasks on the host the bounds were set
#: on, a shared 2-vCPU Intel Xeon virtual machine with Python 3.11.7.
#: Over those runs the per-run medians ranged over 0.0125-0.023 s
#: (memory) and 0.0035-0.006 s (compute) as the host sped up and
#: slowed down.
MEMORY_REFERENCE_S = 0.015
COMPUTE_REFERENCE_S = 0.005
#: During a job, a reference sample is taken at the first kernel-run
#: boundary this many host seconds after the previous one.
SAMPLE_EVERY_S = 0.25
NODES = 100_000
RECORDS = 50_000
STEPS = 20_000
READS = 15_000
COMPUTE_ITEMS = 3_000


class _Node:
    __slots__ = ("next", "key", "value")


class _Record:
    def __init__(self, index: int) -> None:
        self.weight = index % 13
        self.tag = f"tag{index % 50}"


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def _compute_task() -> int:
    heap: list[tuple[int, int]] = []
    table: dict[int, int] = {}
    for i in range(COMPUTE_ITEMS):
        item = _Item(i, (i * 7919) % 1009)
        heapq.heappush(heap, (item.value, i))
        table[i % 97] = table.get(i % 97, 0) + item.key
    total = 0
    while heap:
        total += heapq.heappop(heap)[1]
    return total + sum(table.values())


class HostSpeed:
    """Reference samples taken over one run, and the scales they give.

    The memory task's structure (about 20 MiB) is built once, here, and
    stays resident for the run, so ``peak_rss_mb`` includes it.
    """

    def __init__(self) -> None:
        rng = random.Random(0)
        nodes = [_Node() for _ in range(NODES)]
        order = list(range(NODES))
        rng.shuffle(order)
        for here, there in zip(order, order[1:] + order[:1]):
            nodes[here].next = nodes[there]
            nodes[here].key = here
            nodes[here].value = there % 8
        self._start = nodes[order[0]]
        self._records = [_Record(index) for index in range(RECORDS)]
        self._reads = [rng.randrange(RECORDS) for _ in range(READS)]
        self.memory_samples: list[float] = []
        self.compute_samples: list[float] = []
        #: Host seconds spent in reference samples, to subtract from
        #: the timed phase they interrupt.
        self.spent = 0.0
        self._last = time.perf_counter()

    def _memory_task(self) -> int:
        node = self._start
        total = 0
        for _ in range(STEPS):
            total += node.key + node.value
            node = node.next
        records = self._records
        table: dict[str, int] = {}
        for index in self._reads:
            record = records[index]
            table[record.tag] = table.get(record.tag, 0) + record.weight
        return total + sum(table.values())

    def sample(self) -> None:
        """Time each task once, with the cyclic collector paused.

        The tasks free everything they allocate by reference counting;
        a collection one happened to trigger would time the simulator's
        heap instead.
        """
        self.memory_samples.append(self._timed(self._memory_task))
        self.compute_samples.append(self._timed(_compute_task))
        self._last = time.perf_counter()

    def _timed(self, task: Callable[[], int]) -> float:
        clock = time.perf_counter
        gc.disable()
        try:
            start = clock()
            task()
            elapsed = clock() - start
        finally:
            gc.enable()
        self.spent += elapsed
        return elapsed

    def maybe_sample(self) -> None:
        """Sample if SAMPLE_EVERY_S host seconds passed since the last."""
        if time.perf_counter() - self._last >= SAMPLE_EVERY_S:
            self.sample()

    def run_scale(self, first: int = 0) -> float:
        """Scale for run-phase times: the memory task's, from sample
        ``first`` on."""
        return MEMORY_REFERENCE_S / statistics.median(
            self.memory_samples[first:])

    def setup_scale(self) -> float:
        """Scale for set-up times: the compute task's, over the run."""
        return COMPUTE_REFERENCE_S / statistics.median(self.compute_samples)
