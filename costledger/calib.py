"""A fixed unit of host work that measures how fast the host is right now.

The shared host this benchmark runs on changes speed by up to 2x from
one second to the next, whatever else the benchmark does.  A child run
times a *burst* of this work between every two slices of kernel events,
and ``run.py`` scales each slice by the bursts around it, so a slice
measured while the host was slow counts as long as it would have taken
at the reference speed.

The work is a small discrete-event loop in plain Python — generators
resumed from a heap of event objects that carry callback lists, with
dict updates and small allocations — so that it slows down with the
host the way the simulator does.  It imports nothing from ``repro``:
a change to the program must never change the yardstick.
"""

from __future__ import annotations

import gc
import heapq
from time import perf_counter

#: Events one pass of the loop processes (about 1.5 ms on a 2 GHz Xeon).
BURST_EVENTS = 1000
#: Passes per burst; the fastest counts, so one interruption does not
#: make the host look slow.
BURST_PASSES = 2


class _Event:
    __slots__ = ("time", "callbacks", "value")

    def __init__(self, time: float) -> None:
        self.time = time
        self.callbacks: list = []
        self.value = None


def _worker(state: dict, key: str, rng: int):
    while True:
        yield
        rng = (rng * 1103515245 + 12345) & 0x7FFFFFFF
        state[key] = state.get(key, 0) + (rng & 7)


def _loop(events: int) -> float:
    started = perf_counter()
    heap: list = []
    state: dict = {}
    workers = []
    for index in range(64):
        worker = _worker(state, f"k{index % 16}", index + 1)
        next(worker)
        workers.append(worker)
        event = _Event(float(index))
        event.callbacks.append(worker)
        heapq.heappush(heap, (event.time, index, event))
    seq, rng = 64, 1
    for _ in range(events):
        now, _seq, event = heapq.heappop(heap)
        for worker in event.callbacks:
            rng = (rng * 1103515245 + 12345) & 0x7FFFFFFF
            delay = 1.0 + (rng % 97) / 7.0
            worker.send(None)
            later = _Event(now + delay)
            later.callbacks.append(worker)
            later.value = {"t": now, "d": delay}
            heapq.heappush(heap, (later.time, seq, later))
            seq += 1
    return perf_counter() - started


def burst() -> float:
    """Host seconds of the fastest of :data:`BURST_PASSES` passes.

    The cyclic garbage collector is off during the burst: a collection
    would walk the program's heap, and the yardstick must not depend on
    how much the program keeps alive.  The loop makes no cycles.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_loop(BURST_EVENTS) for _ in range(BURST_PASSES))
    finally:
        if enabled:
            gc.enable()
