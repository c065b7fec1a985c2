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
"""

from __future__ import annotations

import select
import socket
from collections import deque
from typing import Deque, List, Optional, Tuple

from repro.eventloop.clock import Clock

#: The most bytes one endpoint ``recv`` returns, and so the most the
#: client's send queue joins into one ``send`` (a joined write is one
#: read at the server).  A worker link's pending buffer is written at
#: once when it reaches this size.
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
