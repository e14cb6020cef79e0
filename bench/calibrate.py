"""Host-speed calibration: a fixed pure-Python kernel timed between children.

The sandbox this benchmark runs in is a small VM on a shared physical
core.  Identical work is slowed in two ways (measurements in
``bench/README.md``): bursts of a few hundred milliseconds to a few
seconds that hit single children, and phases of one to several minutes
in which everything — this kernel included — takes 30-70 % longer.  CPU
time moves with wall time, so ``process_time`` does not help, and two
back-to-back medians-of-5 of one commit at one seed differ by 30 %.

The median over a run's children answers the bursts.  This kernel
answers the phases: the parent times it a few times in every gap
between children, and each child's times are multiplied by
``NOMINAL_S`` over the median of the samples in the gaps before and
after it — the host's speed while that child ran.  The time metrics are
therefore *host seconds at the reference host speed*; the seconds as
measured are kept beside them in every result file.

The kernel touches what the simulator touches — a binary heap of
tuples, slotted objects, tuple-keyed dicts, generator resumption — with
a working set like ``grid28_update``'s, and nothing from ``repro``: a
change to the simulator cannot move it.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Dict, Generator, List, Tuple

#: Seconds one kernel run takes at the reference host speed (what it
#: takes on the 2-vCPU Xeon @ 2.10 GHz sandbox outside a slow phase).
NOMINAL_S = 0.0520
#: Kernel runs timed in every gap between two children.
SAMPLES_PER_GAP = 5
#: Heap pushes of one kernel run.
_PUSHES = 30_000


class _Record:
    __slots__ = ("key", "stamp", "pair", "links")


def _process() -> Generator[int, int, None]:
    total = 0
    while True:
        value = yield total
        total += value & 7


def kernel() -> int:
    """One fixed unit of interpreter work; returns a checksum."""
    heap: List[Tuple[float, int, int, _Record]] = []
    push, pop = heapq.heappush, heapq.heappop
    counts: Dict[int, int] = {}
    table: Dict[Tuple[int, int], float] = {}
    processes = [_process() for _ in range(800)]
    for process in processes:
        next(process)
    now = 0.0
    for i in range(_PUSHES):
        record = _Record()
        record.key = i
        record.stamp = now
        record.pair = (i, i + 1)
        record.links = [record]
        push(heap, (now + ((i * 7919) % 9973) / 100.0, 1, i, record))
        table[(i % 797, (i * 31) % 18)] = now
        if len(heap) > 5000:
            now, _, _, done = pop(heap)
            cell = done.key % 784
            counts[cell] = counts.get(cell, 0) + 1
            processes[done.key % 800].send(done.key)
            done.links = None
    return sum(counts.values())


def sample_gap() -> List[float]:
    """Wall seconds of ``SAMPLES_PER_GAP`` kernel runs."""
    out = []
    for _ in range(SAMPLES_PER_GAP):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out


def host_factor(samples: List[float]) -> float:
    """What to multiply a child's times by: reference speed over the
    host's speed around that child (median of the adjacent samples)."""
    return NOMINAL_S / statistics.median(samples)
