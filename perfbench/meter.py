"""Machine-speed sampler: host time corrected for how fast the host runs.

The benchmark runs on shared hosts whose speed changes, within seconds
and for minutes at a time, by a factor of two or more because of load
outside this machine.  Raw host seconds then measure that load as much
as the simulator.  So while a round runs, a timer signal interrupts it
every ``PERIOD_S`` and times a fixed chunk of pure-Python work on the
same CPU.  The median chunk time says how fast the host runs right now;
``REFERENCE_CHUNK_S`` is the median on an unloaded reference machine.

A round's *meter seconds* are its host seconds, less the time spent in
the chunks, times ``REFERENCE_CHUNK_S / median chunk time``.  On the
reference machine they equal host seconds; on a host running at half
speed they still read the same.
"""

from __future__ import annotations

import signal
import statistics
import time
from collections import deque

PERIOD_S = 0.01
CHUNK_TICKS = 200
# Median chunk time of the reference machine (2 vCPUs, Intel Xeon,
# Python 3.11.7) when not slowed by other load; see README.md.
REFERENCE_CHUNK_S = 0.00048


class _Node:
    __slots__ = ("ident", "inbox", "table", "sent", "acc")

    def __init__(self, ident: int):
        self.ident = ident
        self.inbox: deque = deque()
        self.table: dict = {}
        self.sent = 0
        self.acc = 0

    def step(self, tick: int, nodes: list) -> bool:
        moved = False
        if self.inbox:
            key, value = self.inbox.popleft()
            self.table[key] = self.table.get(key, 0) ^ value
            self.acc = (self.acc * 31 + value) & 0xFFFFFFFF
            moved = True
        if tick % (self.ident + 2) == 0:
            peer = nodes[(self.ident * 7 + tick) % len(nodes)]
            peer.inbox.append(((tick >> 3) & 63, (tick * 2654435761) & 0xFFFF))
            self.sent += 1
            moved = True
        return moved


def chunk(ticks: int = CHUNK_TICKS) -> int:
    """A fixed amount of interpreter work in the simulator's style:
    slotted objects, deques, dicts and method calls."""
    nodes = [_Node(i) for i in range(16)]
    moved = 0
    for tick in range(ticks):
        for node in nodes:
            moved += node.step(tick, nodes)
    return moved


class Sampler:
    """Times one chunk every ``PERIOD_S`` of wall time, from the main
    thread's signal handler, until ``stop``."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _sample(self, signum, frame) -> None:
        start = time.monotonic()
        chunk()
        self.samples.append((start, time.monotonic() - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def busy(self, start: float, end: float) -> float:
        """Time spent sampling between two monotonic times."""
        return sum(d for s, d in self.samples if start <= s < end)

    def speed(self) -> float:
        """Host speed as a share of the reference machine's."""
        return REFERENCE_CHUNK_S / statistics.median(d for _, d in self.samples)
