"""Process shard workers: one ShardHost per child process.

Every shard of :class:`~repro.net.shard.ShardedScopeManager` shares one
interpreter, so aggregate ingest is capped by one core and the GIL.
This module puts each shard on a real **process**:

* the child (:func:`worker_main`) runs a
  :class:`~repro.net.supervisor.ShardHost` — the same supervision unit
  the in-process plane uses, with its private event loop and virtual
  clock — and is driven *entirely* by messages from the router, so its
  timeline is deterministic and replayable;
* the transport is a ``socketpair`` speaking the binary protocol:
  ``DELIVER`` frames carry the column batches stamped with the router's
  push instant, and ``CONTROL`` frames carry the JSON supervision side
  channel (heartbeats, stats, snapshot/shutdown);
* optionally, the column bytes travel through a same-host shared-memory
  ring (:class:`ShmRing`) instead of the socket; the socket then carries
  only a tiny ``shmrec`` token per batch, keeping *ordering* on the one
  stream while the bulk bytes skip the kernel copy.

Delivery timeline
-----------------

The child's loop only advances when the router says so: a ``DELIVER``
frame (or ring record) carries the router clock's ``now``, and the child
runs ``loop.run_through(now)`` before ingesting — exactly what the
in-process :meth:`ShardHost.deliver` does.  Idle shards advance via
periodic ``advance`` controls.  Because the timeline is message-driven,
a respawned worker that re-drives the same WAL reaches a byte-identical
state (the in-process equivalence argument carries over unchanged).

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
from multiprocessing import get_context
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional

import numpy as np

from repro.net.protocol import (
    FrameDecoder,
    FrameKind,
    MAX_FRAME_SAMPLES,
    ProtocolError,
    encode_control,
    encode_deliver,
    encode_name_def,
)

__all__ = ["ShmRing", "WorkerDied", "WorkerHandle", "worker_main"]

_FORK = get_context("fork")

#: Ring record header: name_id(u32) count(u32) now(f8) — 16 bytes, so
#: every record (header + two float64 columns) is 16-byte aligned and a
#: wrap marker always fits in the contiguous space left at the end.
_REC_HEADER = struct.Struct("<IId")
_RING_MARK = 0xFFFFFFFF  # name_id sentinel: jump back to offset 0
_CURSORS = struct.Struct("<QQ")  # tail (producer), head (consumer)
_DATA_OFF = 16

#: Shared-memory ring size per worker (``use_shm``).
RING_BYTES = 1 << 22
#: High watermark of a handle's unsent bytes: past it the router push
#: blocks on that worker's socket (per-shard backpressure).
MAX_PENDING_BYTES = 4 << 20
#: Real seconds a new handle waits for the child's ``ready`` (restore
#: and WAL replay included).
READY_TIMEOUT_S = 60.0
#: Sent-prefix size past which a backed-up pending buffer is compacted.
_COMPACT_BYTES = 1 << 16


class WorkerDied(RuntimeError):
    """The worker process is gone (or unresponsive past its deadline)."""


class ShmRing:
    """Single-producer single-consumer byte ring in shared memory.

    Carries DELIVER records (name_id, count, now, then the two float64
    columns) from router to worker without the socket's kernel copy.
    Ordering and wakeup are NOT the ring's job: the producer sends one
    ``shmrec`` token over the socket per record, *after* the record is
    fully written, so the socket stream stays the single total order of
    deliveries and the consumer never reads a half-written record (the
    token's send/recv pair is the happens-before edge).

    Layout: bytes ``[0, 16)`` hold the ``tail``/``head`` cursors; data
    lives in ``[16, 16 + cap)`` with ``cap`` a multiple of 16.  Cursors
    are byte offsets into the data region, always 16-aligned; one
    16-byte slot stays unused to distinguish full from empty.  A record
    that would straddle the end is preceded by a 16-byte wrap marker
    (``name_id == 0xFFFFFFFF``) and written at offset 0 instead.
    """

    def __init__(self, shm: shared_memory.SharedMemory, owner: bool) -> None:
        self.shm = shm
        self.owner = owner
        self.cap = (len(shm.buf) - _DATA_OFF) & ~15
        if self.cap < 4096:
            raise ValueError(f"ring too small: {len(shm.buf)} bytes")
        if owner:
            _CURSORS.pack_into(shm.buf, 0, 0, 0)
        self.records = 0
        self.fallbacks = 0  # producer-side: records that didn't fit

    @classmethod
    def create(cls, ring_bytes: int) -> "ShmRing":
        shm = shared_memory.SharedMemory(create=True, size=_DATA_OFF + ring_bytes)
        return cls(shm, owner=True)

    @classmethod
    def attach(cls, name: str) -> "ShmRing":
        return cls(shared_memory.SharedMemory(name=name), owner=False)

    @property
    def name(self) -> str:
        return self.shm.name

    def _cursors(self) -> tuple:
        return _CURSORS.unpack_from(self.shm.buf, 0)

    def used_bytes(self) -> int:
        """Bytes currently occupied by written-but-unconsumed records."""
        tail, head = self._cursors()
        return (tail - head) % self.cap

    def occupancy(self) -> float:
        """Ring fullness in ``[0, 1]`` (the backpressure signal)."""
        return self.used_bytes() / self.cap

    def try_push(self, name_id: int, now: float, tb: bytes, vb: bytes) -> bool:
        """Write one record; False (caller falls back to DELIVER) if full."""
        rec = _REC_HEADER.size + len(tb) + len(vb)
        tail, head = self._cursors()
        used = (tail - head) % self.cap
        free = self.cap - used - 16
        contig = self.cap - tail
        need = rec if contig >= rec else contig + rec
        if need > free:
            self.fallbacks += 1
            return False
        buf = self.shm.buf
        if contig < rec:
            _REC_HEADER.pack_into(buf, _DATA_OFF + tail, _RING_MARK, 0, 0.0)
            tail = 0
        pos = _DATA_OFF + tail
        _REC_HEADER.pack_into(buf, pos, name_id, len(tb) // 8, now)
        pos += _REC_HEADER.size
        buf[pos : pos + len(tb)] = tb
        pos += len(tb)
        buf[pos : pos + len(vb)] = vb
        new_tail = (tail + rec) % self.cap
        # Publish the tail last; the socket token provides the actual
        # cross-process ordering, this just keeps free-space accounting
        # coherent for the producer.
        struct.pack_into("<Q", buf, 0, new_tail)
        self.records += 1
        return True

    def pop(self) -> tuple:
        """Consume exactly one record: ``(name_id, now, times, values)``.

        Only called after a ``shmrec`` token arrived, so a record is
        guaranteed present and fully written.
        """
        buf = self.shm.buf
        tail, head = self._cursors()
        name_id, count, now = _REC_HEADER.unpack_from(buf, _DATA_OFF + head)
        if name_id == _RING_MARK:
            head = 0
            name_id, count, now = _REC_HEADER.unpack_from(buf, _DATA_OFF)
        pos = _DATA_OFF + head + _REC_HEADER.size
        times = np.frombuffer(buf, dtype="<f8", count=count, offset=pos).copy()
        values = np.frombuffer(
            buf, dtype="<f8", count=count, offset=pos + 8 * count
        ).copy()
        rec = _REC_HEADER.size + 16 * count
        struct.pack_into("<Q", buf, 8, (head + rec) % self.cap)
        self.records += 1
        return name_id, now, times, values

    def close(self) -> None:
        self.shm.close()
        if self.owner:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass


# ----------------------------------------------------------------------
# Child side
# ----------------------------------------------------------------------
def worker_main(
    sock: socket.socket,
    parent_fd: int,
    shard_id: int,
    scope_factory,
    heartbeat_s: float,
    wal_path: Optional[str],
    state_path: Optional[str],
    start_now: float,
    ring_name: Optional[str],
) -> None:
    """Child entrypoint: host one shard, driven by the router socket."""
    from repro.net.supervisor import ShardHost

    try:
        os.close(parent_fd)  # drop the inherited copy of the parent's end
    except OSError:
        pass
    ring = ShmRing.attach(ring_name) if ring_name else None
    exit_code = 0

    def reply(op: str, **fields: Any) -> None:
        sock.sendall(encode_control({"op": op, **fields}))

    try:
        host = ShardHost(shard_id, scope_factory)
        host.restore(state_path, wal_path, start_now)
        sock.setblocking(True)
        sock.settimeout(heartbeat_s)
        reply(
            "ready",
            shard=shard_id,
            restored=host.restored,
            replayed=host.replayed_samples,
        )
        names: Dict[int, str] = {}
        decoder = FrameDecoder()
        # Continuous queries attached over the control channel: qid →
        # LiveQuery tapping this worker's manager.  A quarantined query
        # detaches itself; the counter rides the stats reply so the
        # router-side ledger sees the loss.
        queries: Dict[str, Any] = {}

        def count_quarantine(_live, _exc) -> None:
            host.stats.query_quarantines += 1

        def deliver(name_id: int, now: float, times, values) -> None:
            name = names.get(name_id)
            if name is None:
                raise ProtocolError(f"delivery for undefined name id {name_id}")
            host.deliver(now, name, times, values)

        running = True
        while running:
            try:
                chunk = sock.recv(1 << 18)
            except socket.timeout:
                # Idle interval: heartbeat over the control channel so
                # the parent can tell "slow" from "gone" in real time.
                reply("beat", beats=host.beats)
                continue
            if not chunk:
                break  # router went away without a shutdown — exit clean
            for frame in decoder.feed(chunk):
                if frame.kind is FrameKind.DELIVER:
                    deliver(frame.name_id, frame.now, frame.times, frame.values)
                elif frame.kind is FrameKind.NAME_DEF:
                    names[frame.name_id] = frame.name
                elif frame.kind is FrameKind.CONTROL:
                    op = frame.control.get("op")
                    if op == "shmrec":
                        deliver(*ring.pop())
                    elif op == "advance":
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
                        blob = pickle.dumps(host.snapshot_state())
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
                    elif op == "ping":
                        reply("pong")
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
        if ring is not None:
            ring.shm.close()  # attach-side: close the mapping, never unlink
    os._exit(exit_code)


# ----------------------------------------------------------------------
# Parent side
# ----------------------------------------------------------------------
class WorkerHandle:
    """Router-side handle on one worker process.

    Owns the process, the socket, the optional shm ring and the
    per-connection name interning.  Writes are non-blocking with a
    bounded pending buffer: past :data:`MAX_PENDING_BYTES` the handle
    *blocks* on the socket (per-shard backpressure) instead of growing
    router memory without bound, and the already-sent prefix of a
    backed-up buffer is released as it accumulates.

    Construction is synchronous: the handle waits for the child's
    ``ready`` control — which arrives only after any snapshot restore
    and WAL replay — so a caller can never race fresh traffic against
    recovery.
    """

    def __init__(
        self,
        shard_id: int,
        scope_factory,
        heartbeat_s: float = 1.0,
        wal_path: Optional[str] = None,
        state_path: Optional[str] = None,
        start_now: float = 0.0,
        use_shm: bool = False,
    ) -> None:
        self.shard_id = shard_id
        self.heartbeat_s = float(heartbeat_s)
        self.ring = ShmRing.create(RING_BYTES) if use_shm else None
        parent_sock, child_sock = socket.socketpair()
        self.process = _FORK.Process(
            target=worker_main,
            args=(
                child_sock,
                parent_sock.fileno(),
                shard_id,
                scope_factory,
                self.heartbeat_s,
                str(wal_path) if wal_path is not None else None,
                str(state_path) if state_path is not None else None,
                float(start_now),
                self.ring.name if self.ring is not None else None,
            ),
            daemon=True,
        )
        self.process.start()
        child_sock.close()
        parent_sock.setblocking(False)
        self.sock = parent_sock
        self._pending = bytearray()
        self._pending_pos = 0
        self._decoder = FrameDecoder()
        self._inbox: List[Dict[str, Any]] = []
        self._name_ids: Dict[str, int] = {}
        self.link_down = False
        self._eof = False  # everything the child will ever send is read
        self.samples_sent = 0
        self.frames_sent = 0
        self.bytes_sent = 0
        self.beats_seen = 0
        self.last_now = 0.0  # latest router instant sent to the worker
        self.last_beat_monotonic = time.monotonic()
        try:
            ready = self._wait_for("ready", timeout_s=READY_TIMEOUT_S)
        except BaseException:
            self.close(timeout_s=2.0)
            raise
        self.replayed_samples = int(ready.get("replayed", 0))
        self.restored = bool(ready.get("restored", False))

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
        return len(self._pending) - self._pending_pos

    # -- outbound -------------------------------------------------------
    def _queue(self, data: bytes) -> None:
        if self.link_down:
            return  # child is gone; the WAL (if any) holds the truth
        self._pending += data
        self._flush_some()
        if self.pending_bytes > MAX_PENDING_BYTES:
            self._flush_until(MAX_PENDING_BYTES, timeout_s=60.0)

    def _flush_some(self) -> None:
        """Write as much pending as the socket takes without blocking."""
        while self._pending_pos < len(self._pending):
            try:
                sent = self.sock.send(
                    memoryview(self._pending)[self._pending_pos :]
                )
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self._mark_down()
                return
            self._pending_pos += sent
            self.bytes_sent += sent
        pos = self._pending_pos
        if pos == len(self._pending):
            self._pending = bytearray()
            self._pending_pos = 0
        elif pos > _COMPACT_BYTES and pos * 2 > len(self._pending):
            # A backed-up socket: release the sent prefix once it
            # dominates (the FrameDecoder/LatencyLink rule), so router
            # memory stays bounded while the worker lags.
            del self._pending[:pos]
            self._pending_pos = 0

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
                self._flush_some()

    def _mark_down(self) -> None:
        self.link_down = True
        self._pending = bytearray()
        self._pending_pos = 0

    def _intern(self, name: str) -> int:
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = len(self._name_ids)
            self._name_ids[name] = name_id
            self._queue(encode_name_def(name_id, name))
        return name_id

    def deliver(self, now: float, name: str, times, values) -> int:
        """Queue one batch for the worker; returns the offered count."""
        t = np.ascontiguousarray(times, dtype="<f8")
        v = np.ascontiguousarray(values, dtype="<f8")
        n = t.shape[0]
        if n == 0:
            return 0
        self.last_now = max(self.last_now, float(now))
        name_id = self._intern(name)
        if self.ring is not None and n <= MAX_FRAME_SAMPLES:
            if self.ring.try_push(name_id, float(now), t.tobytes(), v.tobytes()):
                self._queue(encode_control({"op": "shmrec"}))
                self.samples_sent += n
                self.frames_sent += 1
                return n
        self._queue(encode_deliver(name_id, float(now), t, v))
        self.samples_sent += n
        self.frames_sent += 1
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
                chunk = self.sock.recv(1 << 16)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                chunk = b""  # a reset arrives only after the last bytes
            if not chunk:
                self._eof = True
                self._mark_down()
                return
            for frame in self._decoder.feed(chunk):
                if frame.kind is not FrameKind.CONTROL:
                    continue
                self.last_beat_monotonic = time.monotonic()
                if frame.control.get("op") == "beat":
                    self.beats_seen = int(frame.control.get("beats", 0))
                else:
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
        """Block until the child has ingested ``target_offered`` samples."""
        deadline = time.monotonic() + timeout_s
        while True:
            remote = self.stats(timeout_s=max(1.0, deadline - time.monotonic()))
            if int(remote["offered"]) >= target_offered:
                return remote
            if time.monotonic() > deadline:
                raise WorkerDied(
                    f"worker {self.shard_id} drain stalled at "
                    f"{remote['offered']}/{target_offered}"
                )

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
        """Fetch the child's full data-plane state (pickled blob).

        The child advances through the latest instant this handle has
        committed to (pushes and advances both carry the router clock)
        before capturing, so the snapshot is pinned to that ``now``.
        """
        reply = self.request(
            {"op": "snapshot", "now": self.last_now}, "snapshot", timeout_s
        )
        return pickle.loads(base64.b64decode(reply["blob"]))

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
            try:
                self.sock.close()
            except OSError:
                pass
            if self.ring is not None:
                self.ring.close()
