"""CPU load generation and overhead measurement (Section 4.6).

The measurement replicates the paper's method exactly, modulo substrate:

1. run the load loop alone on a real-clock main loop for ``T`` ms and
   count iterations (the "idle system" baseline),
2. run it again with a polling scope (and N signals) attached,
3. overhead = 1 − (loaded iterations / idle iterations).

Steps 1 and 2 run interleaved, in short slices of CPU time (see
:func:`measure_overhead`), so a change in machine speed hits both sides
alike.

The load loop is an idle source: the main loop dispatches it whenever no
timer is ready, which is the cooperative equivalent of the paper's
low-priority process.  Each dispatch performs a fixed *chunk* of integer
work so one callback costs microseconds and the polling timers stay
punctual.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.eventloop.clock import SystemClock
from repro.eventloop.loop import MainLoop

#: CPU milliseconds per interleaved slice of a measurement window.  A
#: change of core speed then skews one short slice of one side, not a
#: whole window, while switching sides stays far below the noise.
SLICE_MS = 40.0


class LoadGenerator:
    """The tight-loop CPU load program."""

    def __init__(self, chunk_iterations: int = 2000) -> None:
        if chunk_iterations <= 0:
            raise ValueError(f"chunk must be positive: {chunk_iterations}")
        self.chunk_iterations = int(chunk_iterations)
        self.iterations = 0
        self._sink = 0  # defeats any hypothetical constant folding

    def run_chunk(self) -> bool:
        """One idle-source dispatch: a fixed slab of integer work."""
        acc = self._sink
        for i in range(self.chunk_iterations):
            acc = (acc + i) & 0xFFFFFFFF
        self._sink = acc
        self.iterations += self.chunk_iterations
        return True  # stay installed

    def reset(self) -> None:
        self.iterations = 0


@dataclass
class OverheadResult:
    """Outcome of one overhead comparison."""

    idle_iterations: int
    loaded_iterations: int
    duration_ms: float

    @property
    def overhead_fraction(self) -> float:
        """1 − loaded/idle; the paper reports this as a percentage."""
        if self.idle_iterations <= 0:
            raise ValueError("baseline measured zero iterations")
        return 1.0 - self.loaded_iterations / self.idle_iterations

    @property
    def overhead_percent(self) -> float:
        return 100.0 * self.overhead_fraction


class _LoadRun(SystemClock):
    """One load loop, with or without the costed setup, run in slices.

    The run is also its loop's clock: wall time that stands still
    between slices, so the loop's timers keep one continuous timeline
    and a scope polls once per period of the run's own time, as in one
    unbroken window.  Each slice lasts a span of *process CPU time*
    rather than wall time, so that preemption by unrelated processes
    (the dominant noise source on a shared machine) cannot masquerade as
    scope overhead; the paper's low-priority-loop method has the same
    intent.
    """

    def __init__(
        self, setup: Optional[Callable[[MainLoop], None]], chunk_iterations: int
    ) -> None:
        super().__init__()
        self._parked_ms = 0.0
        self.loop = MainLoop(clock=self)
        self.load = LoadGenerator(chunk_iterations)
        self.loop.idle_add(self.load.run_chunk)
        if setup is not None:
            setup(self.loop)
        self._parked_at = super().now()

    def now(self) -> float:
        return super().now() - self._parked_ms

    def run(self, duration_ms: float) -> int:
        """Run one slice; returns the load iterations it completed."""
        self._parked_ms += super().now() - self._parked_at
        before = self.load.iterations
        deadline = time.process_time() + duration_ms / 1000.0
        while time.process_time() < deadline:
            self.loop.iteration(may_block=False)
        self._parked_at = super().now()
        return self.load.iterations - before


def measure_overhead(
    setup: Callable[[MainLoop], None],
    duration_ms: float = 1000.0,
    chunk_iterations: int = 2000,
    repeats: int = 3,
) -> OverheadResult:
    """Compare the load loop with and without the scope machinery.

    ``setup`` receives the measurement loop and attaches whatever is
    being costed (a polling scope, N signals...).  Each of ``repeats``
    idle/loaded pairs gives both sides ``duration_ms`` of CPU time, in
    slices of about :data:`SLICE_MS` that alternate between the sides
    (each loop's clock stands still while the other runs), and the
    median pair is reported.  On a shared machine the interleaving
    cancels drifts and core-speed changes that would otherwise swamp a
    sub-percent signal — the same care the paper's measurement needs.
    The cyclic garbage collector is paused while slices run — its pauses
    are an order of magnitude larger than the signal being measured.
    """
    if duration_ms <= 0:
        raise ValueError(f"duration must be positive: {duration_ms}")
    if repeats <= 0:
        raise ValueError(f"repeats must be positive: {repeats}")
    slices = max(1, round(duration_ms / SLICE_MS))
    slice_ms = duration_ms / slices
    idle_run = _LoadRun(None, chunk_iterations)
    loaded_run = _LoadRun(setup, chunk_iterations)
    pairs = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            gc.collect()
            idle = loaded = 0
            for _ in range(slices):
                idle += idle_run.run(slice_ms)
                loaded += loaded_run.run(slice_ms)
            pairs.append((idle, loaded))
    finally:
        if gc_was_enabled:
            gc.enable()
    pairs.sort(key=lambda p: p[1] / p[0])  # by overhead ratio
    idle, loaded = pairs[len(pairs) // 2]  # median pair
    return OverheadResult(
        idle_iterations=idle, loaded_iterations=loaded, duration_ms=duration_ms
    )
