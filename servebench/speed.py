"""How fast this machine runs right now, for reporting times in reference seconds.

The benchmark runs on a few virtual CPUs of a shared host whose speed
drifts.  A fixed loop of pure Python takes anywhere from 1.3 to 3 ms on
one of them, depending on the moment.  Such a drift persists for about a
second and still moves medians over 5 s by a third.  CPU time drifts with
it, because the virtual CPU itself runs slower, and the two CPUs drift
independently.  Wall and CPU times of the same work drift the same way,
so two sets of runs of the same code can differ by more than any bound a
regression gate could use.

So the benchmark measures the host's speed while the work runs.  A
CPU-time interval timer (``ITIMER_PROF``) interrupts the process after
every ``every`` seconds of CPU time it spends, wherever it is, and the
signal handler runs a fixed reference task: a heap-based Dijkstra over a
fixed 40 x 40 grid, pure Python like the searches the program runs.  Each
such probe gives the host's speed at that moment, as ``REFERENCE_S`` over
the probe's CPU time.  Because a probe follows each slice of work, the
mean over the probes taken in an interval is the host's speed averaged
over the work done in it.  The fork pool's workers inherit the handler
and restart the timer after the fork; they send their probes back over a
pipe.

The program does not slow down as much as the reference task does.  With
both timed in turn for 150 s and binned by the second, the logarithm of
the time of six fixed FSPQ queries on NYC x2.0 follows that of the
reference task with slope 0.64 (r = 0.89), and a larger Dijkstra over
the road graph itself gave 0.65.  Over two sets of ten 18-s runs of each
workload, the largest spread of CPU time per request was 0.16 and 0.30
unscaled, 0.078 and 0.098 scaled by the plain mean speed, and 0.072 and
0.048 scaled by its power ``EXPONENT`` = 0.75.  Powers from 0.65 to
0.85 did about as well (README.md, "End-to-end metrics").

So a CPU time multiplied by ``mean speed ** EXPONENT`` is reported in
*reference seconds*: about the time the work would have taken on a host
that runs the reference task in ``REFERENCE_S``.  A change to the
program moves these times as it moves CPU time; most of a change in the
host's speed cancels.  The reference task is benchmark code, so no change
to the program moves it.  The probes' own CPU time is counted and left
out of the work's.
"""

from __future__ import annotations

import contextlib
import heapq
import os
import signal
import struct
import time

import numpy as np

__all__ = ["REFERENCE_S", "Meter"]

#: the reference task's CPU time on the 2-CPU container the bounds were
#: measured on, in one of its fast spells
REFERENCE_S = 1.5e-3

#: how the program's CPU time follows the reference task's: as its power
#: 0.64-0.65 in a direct fit, 0.75 by the least run-to-run spread (module
#: docstring)
EXPONENT = 0.75

_SIDE = 40

#: one probe sent by a forked worker: when, the speed, its CPU seconds
_RECORD = struct.Struct("ddd")


def _grid() -> list[list[tuple[int, float]]]:
    rng = np.random.default_rng(0)
    adjacency: list[list[tuple[int, float]]] = [[] for _ in range(_SIDE * _SIDE)]
    for row in range(_SIDE):
        for col in range(_SIDE):
            v = row * _SIDE + col
            for u in ((v + 1) if col + 1 < _SIDE else None,
                      (v + _SIDE) if row + 1 < _SIDE else None):
                if u is not None:
                    w = float(rng.uniform(1.0, 10.0))
                    adjacency[v].append((u, w))
                    adjacency[u].append((v, w))
    return adjacency


def _reference(adjacency) -> float:
    dist = [float("inf")] * len(adjacency)
    dist[0] = 0.0
    heap = [(0.0, 0)]
    while heap:
        d, v = heapq.heappop(heap)
        if d > dist[v]:
            continue
        for u, w in adjacency[v]:
            nd = d + w
            if nd < dist[u]:
                dist[u] = nd
                heapq.heappush(heap, (nd, u))
    return dist[-1]


class Meter:
    """Speed probes taken through one run, and the times they scale.

    Use as a context manager: probing runs inside the ``with`` block, in
    this process and in every process it forks meanwhile.  One meter per
    process.
    """

    #: an interval with fewer probes inside borrows its nearest neighbours
    MIN_PROBES = 2

    def __init__(self, every: float) -> None:
        self.every = every
        self.adjacency = _grid()
        _reference(self.adjacency)  # first call: allocations, bytecode caches
        #: (perf_counter at the probe, the speed it measured)
        self.probes: list[tuple[float, float]] = []
        #: CPU seconds spent probing, here and in joined children, to take
        #: out of the work's
        self.cpu = 0.0
        self._pid = os.getpid()
        self._running = False
        self._busy = False
        self._read, self._write = os.pipe()
        os.set_blocking(self._read, False)
        os.set_blocking(self._write, False)
        os.register_at_fork(after_in_child=self._restart)

    def measure(self) -> float:
        """The speed one run of the reference task shows.

        One untimed run goes first: the first run after other work is about
        a fifth slower, as it pulls the task's data back into the caches,
        and how much slower depends on what ran before -- the program's
        business, not the host's.
        """
        start = time.thread_time()
        _reference(self.adjacency)
        begun = time.thread_time()
        _reference(self.adjacency)
        end = time.thread_time()
        self.cpu += end - start
        return REFERENCE_S / max(end - begun, 1e-6)

    def __enter__(self) -> "Meter":
        self._handler = signal.signal(signal.SIGPROF, self._on_tick)
        self._running = True
        self._probe()  # so that even the shortest interval has a neighbour
        self._restart()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, self._handler)
        self._running = False
        self.drain()
        os.close(self._read)
        os.close(self._write)

    def _restart(self) -> None:
        """Arm the timer; also runs in each forked child, which a fork
        leaves without one."""
        if self._running:
            signal.setitimer(signal.ITIMER_PROF, self.every, self.every)

    def _on_tick(self, signum, frame) -> None:
        if self._busy or not self._running:
            return
        self._busy = True
        try:
            self._probe()
        finally:
            self._busy = False

    def _probe(self) -> None:
        before = self.cpu
        speed = self.measure()
        at = time.perf_counter()
        if os.getpid() == self._pid:
            self.probes.append((at, speed))
            return
        # a forked worker: a write this small is never split, and a full
        # pipe drops the probe rather than stalling the worker
        with contextlib.suppress(BlockingIOError):
            os.write(self._write, _RECORD.pack(at, speed, self.cpu - before))

    def drain(self) -> None:
        """Take in the probes the forked workers have sent so far."""
        data = b""
        with contextlib.suppress(BlockingIOError):
            while chunk := os.read(self._read, 1 << 16):
                data += chunk
        for at, speed, cpu in _RECORD.iter_unpack(data):
            self.probes.append((at, speed))
            self.cpu += cpu

    def speed(self, start: float, end: float) -> float:
        """The mean speed the probes measured over ``[start, end]``."""
        inside = [speed for at, speed in self.probes if start <= at <= end]
        if len(inside) < self.MIN_PROBES:
            nearest = sorted(
                self.probes, key=lambda p: max(start - p[0], p[0] - end, 0.0)
            )
            inside = [speed for _, speed in nearest[:self.MIN_PROBES]]
        return sum(inside) / len(inside)

    def scale(self, start: float, end: float) -> float:
        """Reference seconds per second of work done in ``[start, end]``."""
        return self.speed(start, end) ** EXPONENT
