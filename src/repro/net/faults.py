"""Deterministic fault injection for the telemetry plane.

Every distributed failure mode this package recovers from — lossy
links, partitions, wedged processes, reordered delivery, flipped bytes,
severed connections — is reproduced here as a *scripted, seedable
schedule* over the same virtual clock that drives everything else.  A
failure scenario is therefore a fixture: the same :class:`FaultPlan`
against the same traffic produces the same byte stream, the same
protocol errors, the same reconnects and the same recovery, run after
run.  That is what makes the failover equivalence suites meaningful —
"no accepted sample lost or duplicated under faults" is checked against
a bit-exact oracle, not eyeballed against a flaky chaos run.

The fault taxonomy follows the classes that dominate real-system
studies (*Faults in Linux 2.6*, PAPERS.md): omission (drop,
partition), timing (stall), ordering (reorder), value corruption
(corrupt) and crash (kill).  Each is injected at the link layer — a
:class:`FaultyLink` wraps the :class:`~repro.net.transport.LatencyLink`
inside a :func:`~repro.net.transport.memory_pair` — so the protocol,
server and client code under test is the production code, unmodified.

Semantics per fault kind, applied per *sent chunk* (one transport
``send``):

* ``drop`` / ``partition`` — the chunk vanishes.  Mid-frame drops tear
  the byte stream, which a correct receiver must surface as a protocol
  error, not misparse; that cascade (drop → desync → disconnect →
  reconnect) is the scenario, not a test artefact.
* ``stall`` — chunks are held and released *in order* when the window
  closes: a wedged path that resumes (long GC pause, flow-control
  freeze).  Nothing is lost.
* ``reorder`` — the chunk is held until the next chunk passes it: the
  minimal adjacent swap, the unit every larger reordering decomposes
  into.
* ``corrupt`` — one byte is XOR-flipped at a seeded position.
* ``kill`` — the link closes permanently; later sends raise
  :class:`~repro.net.transport.TransportClosed` and the endpoint
  reports ``peer_closed``.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.eventloop.clock import Clock
from repro.net.transport import (
    CHUNK_BYTES,
    LatencyLink,
    MemoryEndpoint,
    TransportClosed,
)

__all__ = ["FaultPlan", "FaultyLink", "faulty_pair"]


@dataclass(frozen=True)
class _Window:
    """A [start, end) interval during which a fault mode is active."""

    start: float
    end: float
    kind: str  # "partition" | "stall"


@dataclass
class _OneShot:
    """A counted fault armed at a clock instant, consumed by traffic."""

    at: float
    kind: str  # "drop" | "corrupt" | "reorder"
    remaining: int


@dataclass
class FaultPlan:
    """A scripted, seedable schedule of link faults.

    Windows (:meth:`partition`, :meth:`stall`) apply to every chunk
    sent while the clock is inside them; one-shots (:meth:`drop_next`,
    :meth:`corrupt_next`, :meth:`reorder_next`) arm at an instant and
    consume the next N chunks sent at or after it; :meth:`kill` severs
    the link permanently.  All methods return ``self`` so a scenario
    reads as one chained expression::

        plan = (FaultPlan(seed=7)
                .partition(100, 250)
                .stall(400, 600)
                .drop_next(at=700, count=2)
                .kill(at=900))

    The ``seed`` drives every random choice the plan ever makes (the
    corrupt byte position), so a plan is a replayable fixture: same
    plan + same traffic → same byte stream.
    """

    seed: int = 0
    _windows: List[_Window] = field(default_factory=list)
    _oneshots: List[_OneShot] = field(default_factory=list)
    _kill_at: Optional[float] = None
    _rng: Optional[random.Random] = None

    def _check_window(self, start: float, end: float) -> None:
        if not start < end:
            raise ValueError(f"fault window must have start < end: [{start}, {end})")

    def partition(self, start_ms: float, end_ms: float) -> "FaultPlan":
        """Drop every chunk sent in ``[start_ms, end_ms)``."""
        self._check_window(start_ms, end_ms)
        self._windows.append(_Window(start_ms, end_ms, "partition"))
        return self

    def stall(self, start_ms: float, end_ms: float) -> "FaultPlan":
        """Hold chunks sent in ``[start_ms, end_ms)``; release at the end."""
        self._check_window(start_ms, end_ms)
        self._windows.append(_Window(start_ms, end_ms, "stall"))
        return self

    def drop_next(self, at: float, count: int = 1) -> "FaultPlan":
        """Drop the next ``count`` chunks sent at or after ``at``."""
        if count <= 0:
            raise ValueError(f"count must be positive: {count}")
        self._oneshots.append(_OneShot(at, "drop", count))
        return self

    def corrupt_next(self, at: float, count: int = 1) -> "FaultPlan":
        """XOR-flip one seeded byte in each of the next ``count`` chunks."""
        if count <= 0:
            raise ValueError(f"count must be positive: {count}")
        self._oneshots.append(_OneShot(at, "corrupt", count))
        return self

    def reorder_next(self, at: float, count: int = 1) -> "FaultPlan":
        """Swap each of the next ``count`` chunks with its successor."""
        if count <= 0:
            raise ValueError(f"count must be positive: {count}")
        self._oneshots.append(_OneShot(at, "reorder", count))
        return self

    def kill(self, at: float) -> "FaultPlan":
        """Sever the link permanently at clock instant ``at``."""
        if self._kill_at is not None:
            raise ValueError(f"kill already scheduled at {self._kill_at}")
        self._kill_at = float(at)
        return self

    # -- queried by FaultyLink ------------------------------------------
    def rng(self) -> random.Random:
        if self._rng is None:
            self._rng = random.Random(self.seed)
        return self._rng

    def killed(self, now: float) -> bool:
        return self._kill_at is not None and now >= self._kill_at

    def window_at(self, now: float) -> Optional[str]:
        """Active window kind at ``now`` (latest-declared wins), or None."""
        for window in reversed(self._windows):
            if window.start <= now < window.end:
                return window.kind
        return None

    def stall_release(self, now: float) -> float:
        """End of the stall window covering ``now`` (caller checked one is)."""
        for window in reversed(self._windows):
            if window.kind == "stall" and window.start <= now < window.end:
                return window.end
        raise ValueError(f"no stall window covers {now}")

    def take_oneshot(self, now: float) -> Optional[str]:
        """Consume and return the earliest armed one-shot due at ``now``."""
        best: Optional[_OneShot] = None
        for shot in self._oneshots:
            if shot.remaining > 0 and shot.at <= now:
                if best is None or shot.at < best.at:
                    best = shot
        if best is None:
            return None
        best.remaining -= 1
        return best.kind


class FaultyLink:
    """A :class:`LatencyLink` with a :class:`FaultPlan` applied to sends.

    Drop-in for ``LatencyLink`` wherever a
    :class:`~repro.net.transport.MemoryEndpoint` expects one: it owns an
    inner ``LatencyLink`` for delivery/latency and decides, per sent
    chunk and per the plan at the *current clock instant*, whether the
    chunk passes, vanishes, is held, is swapped or is damaged.  Faults
    are applied on the send side — matching where real networks lose
    data — so receive-side code paths stay untouched production code.

    Counters (``dropped_chunks``, ``dropped_bytes``,
    ``corrupted_chunks``, ``stalled_chunks``, ``reordered_chunks``)
    record what the plan actually did, so a test can assert its scenario
    really happened rather than silently passing on a no-op plan.
    """

    def __init__(self, clock: Clock, plan: FaultPlan, delay_ms: float = 0.0) -> None:
        self._inner = LatencyLink(clock, delay_ms)
        self.clock = clock
        self.plan = plan
        # (release_ms, seq, chunk): stalled chunks awaiting their window end.
        self._stalled: List[Tuple[float, int, bytes]] = []
        self._stall_seq = 0
        self._held_for_swap: Optional[bytes] = None
        self.closed = False
        self.dropped_chunks = 0
        self.dropped_bytes = 0
        self.corrupted_chunks = 0
        self.stalled_chunks = 0
        self.reordered_chunks = 0

    # -- plan application -----------------------------------------------
    def _sync(self) -> None:
        """Apply clock-driven transitions: kills and stall releases."""
        now = self.clock.now()
        if not self.closed and self.plan.killed(now):
            # Chunks still held by a stall die with the link, and are
            # accounted as drops — a kill loses in-flight data.
            for _, _, chunk in self._stalled:
                self.dropped_chunks += 1
                self.dropped_bytes += len(chunk)
            self._stalled.clear()
            self.close()
        while self._stalled and self._stalled[0][0] <= now:
            _, _, chunk = self._stalled.pop(0)
            self._deliver(chunk)

    def _deliver(self, chunk: bytes) -> None:
        if self._held_for_swap is not None:
            held, self._held_for_swap = self._held_for_swap, None
            self._inner.send(chunk)
            self._inner.send(held)
            return
        self._inner.send(chunk)

    def send(self, data: bytes) -> None:
        self._sync()
        if self.closed:
            raise TransportClosed("link is closed (fault-injected kill)")
        now = self.clock.now()
        window = self.plan.window_at(now)
        if window == "partition":
            self.dropped_chunks += 1
            self.dropped_bytes += len(data)
            return
        if window == "stall":
            self.stalled_chunks += 1
            release = self.plan.stall_release(now)
            self._stall_seq += 1
            bisect.insort(self._stalled, (release, self._stall_seq, data))
            return
        shot = self.plan.take_oneshot(now)
        if shot == "drop":
            self.dropped_chunks += 1
            self.dropped_bytes += len(data)
            return
        if shot == "corrupt":
            position = self.plan.rng().randrange(len(data)) if data else 0
            data = data[:position] + bytes([data[position] ^ 0xFF]) + data[position + 1 :]
            self.corrupted_chunks += 1
        elif shot == "reorder":
            if self._held_for_swap is None:
                self._held_for_swap = data
                self.reordered_chunks += 1
                return
        self._deliver(data)

    # -- LatencyLink surface --------------------------------------------
    def readable(self) -> bool:
        self._sync()
        return self._inner.readable()

    def recv(self, max_bytes: int = CHUNK_BYTES) -> bytes:
        self._sync()
        return self._inner.recv(max_bytes)

    def close(self) -> None:
        self.closed = True
        self._inner.close()


def faulty_pair(
    clock: Clock,
    latency_ms: float = 0.0,
    client_plan: Optional[FaultPlan] = None,
    server_plan: Optional[FaultPlan] = None,
    labels: Tuple[str, str] = ("client", "server"),
) -> Tuple[MemoryEndpoint, MemoryEndpoint, FaultyLink, FaultyLink]:
    """A :func:`~repro.net.transport.memory_pair` with faultable links.

    ``client_plan`` governs the client→server direction (what the first
    endpoint sends), ``server_plan`` the reverse.  Either may be None
    for a clean direction.  Returns ``(client_end, server_end,
    client_link, server_link)`` — the links are returned so tests can
    read their injection counters.
    """
    a_to_b = FaultyLink(clock, client_plan or FaultPlan(), latency_ms)
    b_to_a = FaultyLink(clock, server_plan or FaultPlan(), latency_ms)
    a = MemoryEndpoint(outgoing=a_to_b, incoming=b_to_a, label=labels[0])
    b = MemoryEndpoint(outgoing=b_to_a, incoming=a_to_b, label=labels[1])
    return a, b, a_to_b, b_to_a
