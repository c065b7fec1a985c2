"""Transports: duplex byte channels the event loop can watch.

Both endpoint kinds satisfy the
:class:`~repro.eventloop.sources.Pollable` protocol (``readable()`` /
``writable()``), so either can sit behind an
:class:`~repro.eventloop.sources.IOWatch`:

* :func:`memory_pair` — two in-process endpoints joined by byte queues.
  Deterministic, works with a virtual clock, and supports an optional
  :class:`LatencyLink` that holds bytes for a configurable delay —
  the stand-in for the paper's wide-area network between mxtraf hosts.
* :func:`socket_pair` — a real non-blocking ``socket.socketpair``, used
  by integration tests to prove the code path works on actual sockets.

:class:`Outbox` is the one writer of queued frames in :mod:`repro.net`:
the client's send queue, the router→worker link and every subscriber
session's fan-out each write through one.
"""

from __future__ import annotations

import select
import socket
from collections import deque
from itertools import islice
from typing import Callable, Deque, List, Optional, Tuple

from repro.core.cells import Counter
from repro.eventloop.clock import Clock
from repro.eventloop.sources import IOCondition

#: The most bytes one endpoint ``recv`` returns, and so the most an
#: :class:`Outbox` joins into one ``send`` by default (a joined write is
#: one read at the far end).  A worker link writes at once when this
#: much waits.
CHUNK_BYTES = 1 << 16


class TransportClosed(ConnectionError):
    """Raised when sending on or reading from a closed endpoint."""


#: Delivery stamp for zero-delay sends: compares <= any clock reading.
_NOW = float("-inf")


class LatencyLink:
    """Byte conduit that delivers chunks after a fixed delay.

    Models transmission latency between a remote client and the scope
    server.  Bytes become visible to the receiving endpoint only once
    ``delay_ms`` has elapsed on the shared clock.
    """

    def __init__(self, clock: Clock, delay_ms: float = 0.0) -> None:
        if delay_ms < 0:
            raise ValueError(f"delay must be non-negative: {delay_ms}")
        self.clock = clock
        self.delay_ms = float(delay_ms)
        self._in_flight: Deque[Tuple[float, bytes]] = deque()
        # Delivered bytes live in one buffer with a read cursor, so a
        # deep receive backlog costs O(1) amortised per recv instead of
        # re-slicing the whole backlog (O(n^2) across a drain).
        self._delivered = bytearray()
        self._read_pos = 0
        self.closed = False
        # Readiness listeners (edge hints for the event loop): fired on
        # every send and on close, never on delivery — which is why only
        # zero-delay links are hint-eligible (see MemoryEndpoint).
        self._listeners: List = []

    def add_listener(self, callback) -> None:
        self._listeners.append(callback)

    def remove_listener(self, callback) -> None:
        try:
            self._listeners.remove(callback)
        except ValueError:
            pass

    def send(self, data: bytes) -> None:
        if self.closed:
            raise TransportClosed("link is closed")
        # Zero-delay chunks are deliverable immediately; skipping the
        # clock read matters on the fan-out hot path (one send per
        # subscriber per batch).
        self._in_flight.append(
            (
                self.clock.now() + self.delay_ms if self.delay_ms else _NOW,
                data,
            )
        )
        if self._listeners:
            for callback in self._listeners:
                callback()

    def _settle(self) -> None:
        now = self.clock.now()
        while self._in_flight and self._in_flight[0][0] <= now:
            self._delivered += self._in_flight.popleft()[1]

    def readable(self) -> bool:
        self._settle()
        return len(self._delivered) > self._read_pos

    def recv(self, max_bytes: int = CHUNK_BYTES) -> bytes:
        self._settle()
        start = self._read_pos
        end = min(start + max_bytes, len(self._delivered))
        chunk = bytes(memoryview(self._delivered)[start:end])
        self._read_pos = end
        if self._read_pos > 65536 and self._read_pos * 2 > len(self._delivered):
            del self._delivered[: self._read_pos]
            self._read_pos = 0
        return chunk

    def close(self) -> None:
        self.closed = True
        if self._listeners:
            for callback in self._listeners:
                callback()


class MemoryEndpoint:
    """One side of an in-memory duplex channel."""

    def __init__(self, outgoing: LatencyLink, incoming: LatencyLink, label: str = "") -> None:
        self._out = outgoing
        self._in = incoming
        self.label = label
        self.closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    # Pollable protocol -------------------------------------------------
    def readable(self) -> bool:
        if self.closed:
            return False
        # A dead incoming link reads as ready-with-EOF (recv() -> b""),
        # the socket convention — so a server's IN watch wakes up and
        # reaps the session instead of keeping a zombie forever.
        return self._in.readable() or self._in.closed

    def writable(self) -> bool:
        return not self.closed and not self._out.closed

    # Readiness hints ----------------------------------------------------
    def add_ready_listener(self, callback) -> bool:
        """Register an edge hint: ``callback()`` fires whenever incoming
        bytes are sent (or the incoming link closes), i.e. whenever
        ``readable()`` may have flipped true.

        Returns False when the incoming link cannot promise that edge —
        a delayed link becomes readable by clock advance, and a
        fault-injected link applies kills and stall releases lazily
        inside polled ``readable()``; both must stay level-polled.  The
        event loop uses the return value to choose between the hinted
        and the polled partitions.
        """
        if type(self._in) is not LatencyLink or self._in.delay_ms != 0.0:
            return False
        self._in.add_listener(callback)
        return True

    def remove_ready_listener(self, callback) -> None:
        if isinstance(self._in, LatencyLink):
            self._in.remove_listener(callback)

    @property
    def peer_closed(self) -> bool:
        """True once either direction of the duplex path is down.

        The peer closing its endpoint closes *its* outgoing link — this
        endpoint's incoming — and a fault-injected kill may sever the
        outgoing link instead.  Either way the conversation is over, and
        a reconnecting client uses this to notice without a send failing
        first (sends into a half-open pair would otherwise queue
        forever).
        """
        return self._in.closed or self._out.closed

    # Byte I/O -----------------------------------------------------------
    def send(self, data: bytes) -> int:
        if self.closed:
            raise TransportClosed(f"endpoint {self.label!r} is closed")
        self._out.send(data)
        self.bytes_sent += len(data)
        return len(data)

    def recv(self, max_bytes: int = CHUNK_BYTES) -> bytes:
        if self.closed:
            raise TransportClosed(f"endpoint {self.label!r} is closed")
        chunk = self._in.recv(max_bytes)
        self.bytes_received += len(chunk)
        return chunk

    def close(self) -> None:
        self.closed = True
        self._out.close()

    def __repr__(self) -> str:
        return f"MemoryEndpoint({self.label!r}, closed={self.closed})"


def memory_pair(
    clock: Clock, latency_ms: float = 0.0, labels: Tuple[str, str] = ("client", "server")
) -> Tuple[MemoryEndpoint, MemoryEndpoint]:
    """Create two connected in-memory endpoints with symmetric latency."""
    a_to_b = LatencyLink(clock, latency_ms)
    b_to_a = LatencyLink(clock, latency_ms)
    a = MemoryEndpoint(outgoing=a_to_b, incoming=b_to_a, label=labels[0])
    b = MemoryEndpoint(outgoing=b_to_a, incoming=a_to_b, label=labels[1])
    return a, b


class SocketEndpoint:
    """Non-blocking wrapper over a real socket.

    ``readable()`` uses a zero-timeout ``select`` so the event loop can
    poll without blocking — the same pattern glib's ``GIOChannel`` uses
    underneath.
    """

    def __init__(self, sock: socket.socket, label: str = "") -> None:
        sock.setblocking(False)
        self.sock = sock
        self.label = label
        self.closed = False
        self.peer_closed = False
        self.bytes_sent = 0
        self.bytes_received = 0

    def readable(self) -> bool:
        if self.closed:
            return False
        ready, _, _ = select.select([self.sock], [], [], 0)
        return bool(ready)

    def writable(self) -> bool:
        if self.closed:
            return False
        _, ready, _ = select.select([], [self.sock], [], 0)
        return bool(ready)

    def send(self, data: bytes) -> int:
        if self.closed:
            raise TransportClosed(f"socket endpoint {self.label!r} is closed")
        sent = self.sock.send(data)
        self.bytes_sent += sent
        return sent

    def recv(self, max_bytes: int = CHUNK_BYTES) -> bytes:
        if self.closed:
            raise TransportClosed(f"socket endpoint {self.label!r} is closed")
        try:
            chunk = self.sock.recv(max_bytes)
        except BlockingIOError:
            return b""
        if not chunk:
            self.peer_closed = True  # orderly shutdown from the peer
        self.bytes_received += len(chunk)
        return chunk

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self.sock.close()


def socket_pair(labels: Tuple[str, str] = ("client", "server")) -> Tuple[SocketEndpoint, SocketEndpoint]:
    """A connected non-blocking ``socketpair`` as two endpoints."""
    a, b = socket.socketpair()
    return SocketEndpoint(a, labels[0]), SocketEndpoint(b, labels[1])


class Outbox:
    """The one writer of queued frames to an endpoint.

    Frames queue whole, oldest first.  Each write (one
    ``endpoint.send``) joins whole frames while it stays within
    ``chunk_bytes``, one read at the far end; the first frame goes even
    when it is longer, alone and uncopied.  A short write leaves the cut
    frame at the head, whole, with the offset of its first unsent byte;
    every frame the transport took is popped.

    A frame comes in one of two ways, one per policy: :meth:`queue`
    corks it for the writable watch on ``loop``, which the outbox holds
    only while frames wait; :meth:`send` writes it at once (try-first).
    :meth:`flush` writes what waits on demand.  A write raising
    :class:`BlockingIOError` means the transport is full: nothing was
    taken, and the watch tries later.  Any other :class:`OSError`, or an
    endpoint reporting itself or its peer closed, means the link is
    down: the watch goes and ``on_down()`` runs.  What follows (a
    reconnect, or silence) is the owner's policy.

    Each frame carries a count for its owner: the client's sample
    count, 0 for a frame that counts nothing.  The ledger cells count
    the bytes the transport took and, for every counted frame written
    whole, the frame and its count.
    """

    def __init__(
        self,
        loop,
        endpoint,
        on_down: Callable[[], None],
        chunk_bytes: int = CHUNK_BYTES,
    ) -> None:
        self.loop = loop
        self.endpoint = endpoint
        self.on_down = on_down
        self.chunk_bytes = chunk_bytes
        self.frames: Deque[Tuple[bytes, int]] = deque()
        self.offset = 0  # bytes of the head frame already written
        self.lead = 0  # frames an ``ahead`` frame queues behind
        self.pending = 0  # bytes queued, not yet written
        self.counted = 0  # queued frames with a count
        self.count = 0  # the sum of their counts
        self.bytes_sent = Counter()
        self.frames_sent = Counter()
        self.count_sent = Counter()
        self._watch_id: Optional[int] = None

    @property
    def link_down(self) -> bool:
        # getattr-based: test doubles and exotic transports need only
        # the Pollable surface, not the full endpoint state machine.
        endpoint = self.endpoint
        return getattr(endpoint, "closed", False) or getattr(
            endpoint, "peer_closed", False
        )

    def queue(self, frame: bytes, count: int = 0, ahead: bool = False) -> None:
        """Queue one whole frame for the watch to write.

        Nothing is written here: the outbox holds its watch, or reports
        a link already down at once (a dead link may never read
        writable, so a watch would wait on it forever).  An ``ahead``
        frame goes before every frame not yet started, behind a cut head
        and the ahead frames queued before it (the client's control
        frames: a NAME_DEF precedes the data using its id, and nothing
        may land inside a cut frame).
        """
        if ahead:
            self.frames.insert(self.lead, (frame, count))
            self.lead += 1
        else:
            self.frames.append((frame, count))
        self.pending += len(frame)
        if count:
            self.counted += 1
            self.count += count
        endpoint = self.endpoint  # link_down, inline: this runs per frame
        if getattr(endpoint, "closed", False) or getattr(endpoint, "peer_closed", False):
            self._down()
        elif self._watch_id is None:
            self._watch()

    def send(self, frame: bytes) -> None:
        """Queue one frame and write at once (try-first): a link that
        keeps up takes it in this call, and only what it leaves waits
        for the watch."""
        self.frames.append((frame, 0))
        self.pending += len(frame)
        self.flush(writable=True)

    def drop_oldest(self) -> int:
        """Shed the oldest frame neither started nor queued ahead.

        Returns its count, or 0 when no frame qualifies: a cut head is
        never dropped, since the far end would lose its frame boundary.
        """
        if self.lead >= len(self.frames):
            return 0
        frame, count = self.frames[self.lead]
        del self.frames[self.lead]
        self.pending -= len(frame)
        if count:
            self.counted -= 1
            self.count -= count
        return count

    def flush(self, writable: bool = False) -> None:
        """Write what the transport takes now; the watch keeps the rest.

        Every write is preceded by a ``writable()`` probe except the
        first when ``writable`` is set: the caller has just seen the
        endpoint writable (the watch) or tries the write at once.  A
        short write means the transport is full.
        """
        if self.link_down:
            self._down()
            return
        try:
            while self.frames and (writable or self.endpoint.writable()):
                writable = False
                if not self._write():
                    break
        except BlockingIOError:
            pass  # full (a probe can go stale): nothing was taken
        except OSError:  # TransportClosed, or a reset/broken socket
            self._down()
            return
        if self.frames and self._watch_id is None:
            self._watch()

    def _watch(self) -> None:
        self._watch_id = self.loop.io_add_watch(
            self.endpoint, IOCondition.OUT, self._on_writable
        )

    def _on_writable(self, channel, condition) -> bool:
        self.flush(writable=True)
        if self.frames and self._watch_id is not None:
            return True
        self._watch_id = None  # written out, or torn down mid-dispatch
        return False

    def _write(self) -> bool:
        """One ``send``; True if the transport took all of it."""
        frames = self.frames
        offset = self.offset
        data = frames[0][0][offset:] if offset else frames[0][0]
        size = len(data)
        if size < self.pending:
            parts = [data]
            for frame, _ in islice(frames, 1, None):
                if size + len(frame) > self.chunk_bytes:
                    break
                parts.append(frame)
                size += len(frame)
            if len(parts) > 1:
                data = b"".join(parts)
        sent = self.endpoint.send(data)
        self.bytes_sent.inc(sent)
        self.pending -= sent
        if not self.pending:  # the whole queue went: no frame to walk
            frames.clear()
            self.offset = self.lead = 0
            if self.counted:
                self.frames_sent.inc(self.counted)
                self.count_sent.inc(self.count)
                self.counted = self.count = 0
            return True
        done = offset + sent
        popped = count = counted = 0
        while done >= len(frames[0][0]):
            frame, n = frames.popleft()
            done -= len(frame)
            popped += 1
            if n:
                count += n
                counted += 1
        self.offset = done
        lead = self.lead - popped
        self.lead = lead if lead > 0 else (1 if done else 0)
        if counted:
            self.counted -= counted
            self.count -= count
            self.count_sent.inc(count)
            self.frames_sent.inc(counted)
        return sent == size

    def unwatch(self) -> None:
        if self._watch_id is not None:
            self.loop.remove(self._watch_id)
            self._watch_id = None

    def clear(self) -> None:
        """Drop every queued frame, and the watch."""
        self.unwatch()
        self.frames.clear()
        self.offset = self.lead = self.pending = self.counted = self.count = 0

    def _down(self) -> None:
        self.unwatch()
        self.on_down()
