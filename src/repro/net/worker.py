"""Process shard workers: one ShardHost per child process.

Every shard of :class:`~repro.net.shard.ShardedScopeManager` shares one
interpreter, so aggregate ingest is capped by one core and the GIL.
This module puts each shard on a real **process**:

* the child (:func:`worker_main`) runs a
  :class:`~repro.net.supervisor.ShardHost` — the same supervision unit
  the in-process plane uses, with its private event loop and virtual
  clock — and is driven *entirely* by messages from the router, so its
  timeline is deterministic and replayable;
* the transport is one ``socketpair`` speaking the binary protocol, the
  only path bytes take between router and worker: ``DELIVER`` frames
  carry the column batches (with their crc32) stamped with the router's
  push instant, and ``CONTROL`` frames carry the JSON supervision side
  channel (heartbeats, stats, snapshot/shutdown).

Router-side writes
------------------

The router queues and a watch writes, through the
:class:`~repro.net.transport.Outbox` that is the one writer of queued
frames, over a :class:`~repro.net.transport.SocketEndpoint` on the
link.  :meth:`WorkerHandle.deliver` and :meth:`~WorkerHandle.advance`
queue their frames and write nothing until
:data:`~repro.net.transport.CHUNK_BYTES` wait; then the queue is
written at once.  Otherwise the outbox's writable watch on the router
loop — the one the plane already runs, handed to every handle it spawns
— writes it once per loop iteration.  Each write joins whole frames up
to :data:`CHILD_RECV_BYTES`, one read in the child.
:meth:`~WorkerHandle.flush` and every request (``drain``, ``stats``,
``snapshot``, ``shutdown``) write the whole queue before they return or
wait, and past :data:`MAX_PENDING_BYTES` (4 MiB) a push blocks on the
socket (per-shard backpressure).  Queueing moves no byte: the stream
the child reads is the stream an unbuffered writer would send.  The
child's replies are blocking ``sendall`` calls of their own.

Delivery timeline
-----------------

The child's loop only advances when the router says so: a ``DELIVER``
frame carries the router clock's ``now``, and the child runs
``loop.run_through(now)`` before ingesting — exactly what the
in-process :meth:`ShardHost.deliver` does.  Idle shards advance via
periodic ``advance`` controls.  Because the timeline is message-driven,
a respawned worker that re-drives the same WAL reaches a byte-identical
state (the in-process equivalence argument carries over unchanged).

The socket is also the one total order of the exchange: the child
handles frames in stream order, so a control request is answered only
after every delivery sent before it.  A ``stats`` reply therefore
covers everything the router sent — :meth:`WorkerHandle.drain` is one
round trip, and a shortfall in it is lost data, not lag — and a
``snapshot`` covers every delivery (and WAL record) that preceded it.

Restart protocol
----------------

A worker spawned with ``wal_path``/``state_path`` restores itself before
accepting traffic with :meth:`ShardHost.restore` — the same catch-up an
in-process restart runs: load the snapshot (if any) over the fresh
factory host, replay the WAL segments through ``start_now`` — then
sends ``ready``.  The parent's :class:`WorkerHandle` blocks on
``ready``, so no live delivery can race the replay — everything the
router pushes after the handle exists is new traffic.  A child that
fails (a damaged state file, a poisoned batch) reports ``crashed`` with
the reason before exiting, and the handle raises it as
:class:`WorkerDied` ``("… crashed: …")``, even when the report is still
unread behind a send that already failed.

Shard state format
------------------

A snapshot travels in one checked format (:func:`encode_state` /
:func:`decode_state`): a magic, a format version, the payload length
and a crc32 guard the pickled state.  CONTROL frames carry no checksum
of their own, so the ``snapshot`` reply carries those bytes (base64
inside the JSON) and the supervisor's state file holds the same bytes:
a damaged reply raises
:class:`~repro.capture.format.CaptureFormatError` before any state file
is written or any WAL segment retired.

Fork start method: workers are forked, so the ``scope_factory`` is
inherited by reference and never pickled — test factories and closures
work unchanged.
"""

from __future__ import annotations

import base64
import os
import pickle
import select
import socket
import struct
import time
import zlib
from multiprocessing import get_context
from typing import Any, Dict, List, Optional

from repro.capture.format import CaptureFormatError
from repro.eventloop.loop import MainLoop
from repro.net.protocol import (
    _CONTROL,
    _DELIVER,
    _NAME_DEF,
    FrameDecoder,
    ProtocolError,
    as_columns,
    encode_columns,
    encode_control,
    encode_name_def,
)
from repro.net.transport import CHUNK_BYTES, Outbox, SocketEndpoint

__all__ = [
    "HEARTBEAT_S",
    "WorkerDied",
    "WorkerHandle",
    "decode_state",
    "encode_state",
    "worker_main",
]

_FORK = get_context("fork")

#: Real seconds of socket silence after which an idle child sends a
#: ``beat`` control, so the parent can tell "slow" from "gone".
HEARTBEAT_S = 1.0
#: High watermark of a handle's queued bytes: past it the router push
#: blocks on that worker's socket (per-shard backpressure).
MAX_PENDING_BYTES = 4 << 20
#: Real seconds a new handle waits for the child's ``ready`` (restore
#: and WAL replay included).
READY_TIMEOUT_S = 60.0
#: The most bytes the child reads at once, and so the most one router
#: write joins.  Joining at most 64 KiB per write cost the process plane
#: about a fifth of its throughput on a 2-vCPU guest.
CHILD_RECV_BYTES = 1 << 18

#: Shard state header: magic, format version, payload length, crc32 of
#: the payload (little-endian); the pickled snapshot dict follows.
_STATE_HEADER = struct.Struct("<4sHQI")
_STATE_MAGIC = b"GSST"
_STATE_VERSION = 1


class WorkerDied(RuntimeError):
    """The worker process is gone (or unresponsive past its deadline)."""


def encode_state(snap: dict) -> bytes:
    """A shard snapshot behind its checked header (state file bytes)."""
    payload = pickle.dumps(snap)
    header = _STATE_HEADER.pack(
        _STATE_MAGIC, _STATE_VERSION, len(payload), zlib.crc32(payload)
    )
    return header + payload


def decode_state(raw: bytes, source: str) -> dict:
    """Inverse of :func:`encode_state`.

    Any damage — truncation, a flipped byte, a foreign file — raises
    :class:`~repro.capture.format.CaptureFormatError` naming ``source``;
    the payload is unpickled only once its length and crc32 match.
    """
    if len(raw) < _STATE_HEADER.size:
        raise CaptureFormatError(f"{source}: truncated header")
    magic, version, length, crc = _STATE_HEADER.unpack_from(raw)
    if magic != _STATE_MAGIC:
        raise CaptureFormatError(f"{source}: bad magic {magic!r}")
    if version != _STATE_VERSION:
        raise CaptureFormatError(f"{source}: unsupported version {version}")
    payload = memoryview(raw)[_STATE_HEADER.size :]
    if len(payload) != length:
        raise CaptureFormatError(
            f"{source}: payload of {len(payload)} bytes, header says {length}"
        )
    if zlib.crc32(payload) != crc:
        raise CaptureFormatError(f"{source}: payload checksum mismatch")
    return pickle.loads(payload)


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def worker_main(
    sock: socket.socket,
    parent_fd: int,
    shard_id: int,
    scope_factory,
    wal_path: Optional[str],
    state_path: Optional[str],
    start_now: float,
) -> None:
    """Child entrypoint: host one shard, driven by the router socket."""
    from repro.net.supervisor import ShardHost

    try:
        os.close(parent_fd)  # drop the inherited copy of the parent's end
    except OSError:
        pass
    exit_code = 0

    def reply(op: str, **fields: Any) -> None:
        sock.sendall(encode_control({"op": op, **fields}))

    try:
        host = ShardHost(shard_id, scope_factory)
        host.restore(state_path, wal_path, start_now)
        sock.setblocking(True)
        sock.settimeout(HEARTBEAT_S)
        reply("ready", shard=shard_id, replayed=host.replayed_samples)
        names: Dict[int, str] = {}
        decoder = FrameDecoder()
        # Continuous queries attached over the control channel: qid →
        # LiveQuery tapping this worker's manager.  A quarantined query
        # detaches itself; the counter rides the stats reply so the
        # router-side ledger sees the loss.
        queries: Dict[str, Any] = {}

        def count_quarantine(_live, _exc) -> None:
            host.stats.query_quarantines += 1

        running = True
        while running:
            try:
                chunk = sock.recv(CHILD_RECV_BYTES)
            except socket.timeout:
                # Idle interval: heartbeat over the control channel so
                # the parent can tell "slow" from "gone" in real time.
                reply("beat")
                continue
            if not chunk:
                break  # router went away without a shutdown — exit clean
            for frame in decoder.feed(chunk):
                if frame.kind is _DELIVER:
                    name = names.get(frame.name_id)
                    if name is None:
                        raise ProtocolError(
                            f"delivery for undefined name id {frame.name_id}"
                        )
                    host.deliver(frame.now, name, frame.times, frame.values)
                elif frame.kind is _NAME_DEF:
                    names[frame.name_id] = frame.name
                elif frame.kind is _CONTROL:
                    op = frame.control.get("op")
                    if op == "advance":
                        host.advance(float(frame.control["now"]))
                    elif op == "stats":
                        reply(
                            "stats",
                            shard=shard_id,
                            offered=host.stats.offered,
                            accepted=host.stats.accepted,
                            dropped_late=host.stats.dropped_late,
                            query_quarantines=host.stats.query_quarantines,
                            queries=sorted(queries),
                            beats=host.beats,
                            now=host.loop.clock.now(),
                            replayed=host.replayed_samples,
                        )
                    elif op == "snapshot":
                        host.advance(float(frame.control["now"]))
                        blob = encode_state(host.snapshot_state())
                        reply(
                            "snapshot",
                            shard=shard_id,
                            blob=base64.b64encode(blob).decode("ascii"),
                        )
                    elif op == "query_attach":
                        # Compile-and-attach in the child: the query taps
                        # this shard's manager and pushes derived signals
                        # back into it (they live on this worker).
                        # Compile failures reply in-band — a bad query
                        # must not crash a healthy shard.
                        from repro.query import LiveQuery, QueryError

                        qid = str(frame.control["id"])
                        try:
                            live = LiveQuery(str(frame.control["text"]), host.manager)
                        except QueryError as exc:
                            reply("query_attached", id=qid, error=str(exc))
                        else:
                            live.on_quarantine(count_quarantine)
                            queries[qid] = live
                            reply(
                                "query_attached",
                                id=qid,
                                outputs=list(live.plan.output_names),
                            )
                    elif op == "query_detach":
                        qid = str(frame.control["id"])
                        live = queries.pop(qid, None)
                        if live is not None:
                            live.detach()
                        reply("query_detached", id=qid, known=live is not None)
                    elif op == "shutdown":
                        reply("bye")
                        running = False
                        break
                # HELLO and SAMPLES are not part of the worker protocol;
                # ignore them rather than die on a benign peer.
    except Exception as exc:  # noqa: BLE001 — includes ShardDown/ProtocolError
        # Quarantine semantics, process edition: report if the pipe is
        # still up, then exit nonzero so OS-level liveness sees a crash.
        exit_code = 1
        try:
            sock.settimeout(1.0)
            reply("crashed", error=repr(exc))
        except OSError:
            pass
    finally:
        try:
            sock.close()
        except OSError:
            pass
    os._exit(exit_code)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class WorkerHandle:
    """Router-side handle on one worker process.

    Owns the process, the socket and the per-connection name interning.
    Writes are corked (see the module notes): frames queue in an
    :class:`~repro.net.transport.Outbox` over ``endpoint``, written at
    once when :data:`~repro.net.transport.CHUNK_BYTES` wait, by the
    outbox's writable watch on ``loop`` (the router loop of the plane
    that spawns the handle) once per iteration, and by :meth:`flush` and
    every request.  Past :data:`MAX_PENDING_BYTES` the handle *blocks*
    on the socket (per-shard backpressure) instead of growing router
    memory without bound; a written frame leaves the queue at once.

    Construction is synchronous: the handle waits for the child's
    ``ready`` control — which arrives only after any snapshot restore
    and WAL replay — so a caller can never race fresh traffic against
    recovery.
    """

    def __init__(
        self,
        shard_id: int,
        scope_factory,
        loop: MainLoop,
        wal_path: Optional[str] = None,
        state_path: Optional[str] = None,
        start_now: float = 0.0,
    ) -> None:
        self.shard_id = shard_id
        parent_sock, child_sock = socket.socketpair()
        self.process = _FORK.Process(
            target=worker_main,
            args=(
                child_sock,
                parent_sock.fileno(),
                shard_id,
                scope_factory,
                str(wal_path) if wal_path is not None else None,
                str(state_path) if state_path is not None else None,
                float(start_now),
            ),
            daemon=True,
        )
        self.process.start()
        child_sock.close()
        self.sock = parent_sock  # the child's replies are read from here
        self.endpoint = SocketEndpoint(parent_sock, f"worker{shard_id}")
        self._out = Outbox(loop, self.endpoint, self._mark_down, CHILD_RECV_BYTES)
        self._decoder = FrameDecoder()
        self._inbox: List[Dict[str, Any]] = []
        self._name_ids: Dict[str, int] = {}
        self.link_down = False
        self._eof = False  # everything the child will ever send is read
        self.samples_sent = 0
        self.last_now = 0.0  # latest router instant sent to the worker
        self.last_beat_monotonic = time.monotonic()
        try:
            ready = self._wait_for("ready", timeout_s=READY_TIMEOUT_S)
        except BaseException:
            self.close(timeout_s=2.0)
            raise
        self.replayed_samples = int(ready.get("replayed", 0))

    # -- liveness -------------------------------------------------------
    def is_alive(self) -> bool:
        return self.process.is_alive()

    @property
    def exitcode(self) -> Optional[int]:
        return self.process.exitcode

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def beat_age_s(self) -> float:
        """Real seconds since the last sign of life on the control channel."""
        return time.monotonic() - self.last_beat_monotonic

    def failed(self) -> bool:
        """Poll, then True on a dead pid, a broken link or a crash report."""
        self.poll()  # drains beats; surfaces crash reports
        return (
            not self.is_alive()
            or self.link_down
            or any(msg.get("op") == "crashed" for msg in self._inbox)
        )

    @property
    def pending_bytes(self) -> int:
        """Bytes queued router-side, waiting for the worker socket."""
        return self._out.pending

    @property
    def bytes_sent(self) -> int:
        """Bytes the worker socket has taken."""
        return self._out.bytes_sent.value

    # -- outbound -------------------------------------------------------
    def _queue(self, data: bytes) -> None:
        if self.link_down:
            return  # child is gone; the WAL (if any) holds the truth
        out = self._out
        if out.pending + len(data) < CHUNK_BYTES:
            out.queue(data)
            return
        out.send(data)
        if out.pending > MAX_PENDING_BYTES:
            self._flush_until(MAX_PENDING_BYTES, timeout_s=60.0)

    def _flush_until(self, limit: int, timeout_s: float) -> None:
        """Block until at most ``limit`` bytes are pending (or the link dies).

        Reads are serviced while blocked (the child may be replying to
        an earlier request), so a full-duplex stall cannot deadlock.
        """
        deadline = time.monotonic() + timeout_s
        while self.pending_bytes > limit and not self.link_down:
            if time.monotonic() > deadline:
                raise WorkerDied(
                    f"worker {self.shard_id} stalled with "
                    f"{self.pending_bytes} bytes pending"
                )
            if not self.is_alive():
                self._mark_down()
                break
            readable, writable, _ = select.select(
                [self.sock], [self.sock], [], 0.2
            )
            if readable:
                self.poll()
            if writable:
                self._out.flush(writable=True)

    def _mark_down(self) -> None:
        self.link_down = True
        self._out.clear()

    def _intern(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = len(self._name_ids)
            self._name_ids[name] = name_id
            self._queue(encode_name_def(name_id, name))
        return name_id

    def deliver(self, now: float, name: str, times, values) -> int:
        """Queue one batch for the worker; returns the offered count."""
        t, v = as_columns(times, values)
        n = t.shape[0]
        if n == 0:
            return 0
        self.last_now = max(self.last_now, float(now))
        self._queue(encode_columns(self._intern(name), t, v, now=now))
        self.samples_sent += n
        return n

    def advance(self, now: float) -> None:
        self.last_now = max(self.last_now, float(now))
        self._queue(encode_control({"op": "advance", "now": float(now)}))

    def flush(self, timeout_s: float = 30.0) -> None:
        """Push every queued byte into the socket (blocking as needed)."""
        self._flush_until(0, timeout_s)

    # -- inbound --------------------------------------------------------
    def poll(self) -> None:
        """Drain whatever the child has sent; file control replies."""
        while not self._eof:
            try:
                chunk = self.sock.recv(CHUNK_BYTES)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                chunk = b""  # a reset arrives only after the last bytes
            if not chunk:
                self._eof = True
                self._mark_down()
                return
            for frame in self._decoder.feed(chunk):
                if frame.kind is not _CONTROL:
                    continue
                self.last_beat_monotonic = time.monotonic()
                if frame.control.get("op") != "beat":
                    self._inbox.append(frame.control)

    def _wait_for(self, op: str, timeout_s: float) -> Dict[str, Any]:
        """Block (real time) for a control reply with the given op.

        Death is declared only at EOF, once everything the child sent
        has been read: a send that failed because the child is gone can
        mark the link down while its crash report still sits unread in
        the socket, and that report — not a bare "died" — is the reason
        the caller gets.
        """
        deadline = time.monotonic() + timeout_s
        while True:
            for i, msg in enumerate(self._inbox):
                if msg.get("op") == op:
                    return self._inbox.pop(i)
                if msg.get("op") == "crashed":
                    self._inbox.pop(i)
                    raise WorkerDied(
                        f"worker {self.shard_id} crashed: {msg.get('error')}"
                    )
            if self._eof:
                raise WorkerDied(
                    f"worker {self.shard_id} died awaiting {op!r} "
                    f"(exitcode {self.exitcode})"
                )
            if time.monotonic() > deadline:
                raise WorkerDied(
                    f"worker {self.shard_id}: no {op!r} reply in {timeout_s}s"
                )
            readable, _, _ = select.select([self.sock], [], [], 0.2)
            if readable:
                self.poll()

    def request(self, payload: Dict[str, Any], reply_op: str, timeout_s: float) -> Dict[str, Any]:
        self._queue(encode_control(payload))
        self.flush(timeout_s=timeout_s)
        return self._wait_for(reply_op, timeout_s=timeout_s)

    # -- the worker protocol -------------------------------------------
    def stats(self, timeout_s: float = 10.0) -> Dict[str, Any]:
        """The child's ingest ledger (offered/accepted/dropped_late/...)."""
        return self.request({"op": "stats"}, "stats", timeout_s)

    def drain(self, target_offered: int, timeout_s: float = 30.0) -> Dict[str, Any]:
        """The child's ledger once it has ingested everything sent so far.

        One ``stats`` round trip: the request queues behind every
        delivery already sent on the socket and the child ingests in
        stream order, so the reply covers all of them.  An ``offered``
        other than ``target_offered`` is therefore lost (or invented)
        data, not lag, and raises :class:`WorkerDied`.
        """
        remote = self.stats(timeout_s=timeout_s)
        if int(remote["offered"]) != target_offered:
            raise WorkerDied(
                f"worker {self.shard_id} ingested {remote['offered']} samples, "
                f"{target_offered} were sent"
            )
        return remote

    def attach_query(
        self, qid: str, text: str, timeout_s: float = 10.0
    ) -> Dict[str, Any]:
        """Compile-and-attach a continuous query in the child.

        ``text`` must be fully bound (no ``$param`` placeholders — the
        router substitutes before shipping).  Returns the reply payload;
        a compile failure comes back with an ``error`` key rather than
        raising here, so callers decide the severity.
        """
        return self.request(
            {"op": "query_attach", "id": str(qid), "text": str(text)},
            "query_attached",
            timeout_s,
        )

    def detach_query(self, qid: str, timeout_s: float = 10.0) -> Dict[str, Any]:
        """Detach a previously attached continuous query (idempotent)."""
        return self.request(
            {"op": "query_detach", "id": str(qid)}, "query_detached", timeout_s
        )

    def snapshot_state(self, timeout_s: float = 30.0) -> Dict[str, Any]:
        """Fetch the child's full data-plane state.

        The child advances through the latest instant this handle has
        committed to (pushes and advances both carry the router clock)
        before capturing, so the snapshot is pinned to that ``now``.  A
        damaged reply raises
        :class:`~repro.capture.format.CaptureFormatError`.
        """
        reply = self.request(
            {"op": "snapshot", "now": self.last_now}, "snapshot", timeout_s
        )
        source = f"worker {self.shard_id} snapshot reply"
        try:
            raw = base64.b64decode(reply.get("blob"), validate=True)
        except (ValueError, TypeError) as exc:  # binascii.Error is a ValueError
            raise CaptureFormatError(f"{source}: blob is not base64 ({exc})") from None
        return decode_state(raw, source)

    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Graceful stop: shutdown op, ``bye`` reply, join."""
        if not self.link_down and self.is_alive():
            try:
                self.request({"op": "shutdown"}, "bye", timeout_s)
            except WorkerDied:
                pass
        self.process.join(timeout=timeout_s)

    def kill(self) -> None:
        """SIGKILL the worker (fault injection / last resort)."""
        if self.process.is_alive():
            self.process.kill()
        self.process.join(timeout=10.0)

    def close(self, timeout_s: float = 10.0) -> None:
        """Graceful shutdown, SIGKILL fallback, release every resource."""
        try:
            self.shutdown(timeout_s=timeout_s)
        finally:
            if self.process.is_alive():
                self.kill()
            self._out.unwatch()
            self.endpoint.close()
