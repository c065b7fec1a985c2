"""Unit tests for the process-worker plane: handle, lifecycle, drain.

Also home to the SHA-256 pins of the three outbound streams written
through :class:`~repro.net.transport.Outbox`: router→worker, client→
server and server→subscriber.
"""

import base64
import hashlib

import numpy as np
import pytest

from repro.capture.format import CaptureFormatError
from repro.core.manager import ScopeManager
from repro.core.signal import buffer_signal
from repro.eventloop.loop import MainLoop
from repro.net import (
    ProcessShardedScopeManager,
    ScopeClient,
    ScopeServer,
    WorkerDied,
    encode_control,
    memory_pair,
    shard_of,
)
from repro.net.protocol import FrameDecoder
from repro.net.worker import WorkerHandle

SIGNALS = ["alpha", "beta", "gamma", "delta"]
N = 2
#: SHA-256 of each worker's router→worker stream in
#: ``test_router_to_worker_stream_is_pinned``, taken from a router that
#: wrote every frame to the socket as it was queued.
PINNED_STREAMS = [
    "b02d9a7ad286665ab725f6daa884e8ebb69bda3b6eba71b016cab6e8628a2328",
    "aeafa125e18fdfba01764bb70d61b4a69af7a62c76e6eeb7428041970a5e3db5",
]
#: SHA-256 of what each link took in
#: ``test_client_to_server_stream_is_pinned`` (the link cut mid-frame,
#: then its replacement), taken from a client with its own writer.
PINNED_CLIENT_STREAMS = [
    "ddcb5cf093876d9942fbe8c10efaffa88ef5f9cc812a33be0091d10a9312582f",
    "ed55abc3f877b6db570f3c6ac73dc739978991794510860f197ee7a5330aa330",
]
#: SHA-256 of what each of the two viewers reads in
#: ``test_server_to_subscriber_streams_are_pinned``, taken from a server
#: whose sessions had their own writer.
PINNED_FANOUT_STREAMS = [
    "2b5c2668b68fbba141275a3b0fbc170b7d22428aa4694f16e9fc8fa38f17d624",
    "1b0288b32233daa43ab8cd47f943f3a4bc02b722f20caafac6c8ccaaac4cf132",
]
#: Bytes a :class:`CuttingEndpoint` takes, in turn, one per send.
CUTS = [1, 5, 12, 13, 100, 2063, 4096, 40_000]


def factory(manager, shard_id):
    scope = manager.scope_new(f"scope-{shard_id}", period_ms=50, delay_ms=150.0)
    for name in SIGNALS:
        scope.signal_new(buffer_signal(name))
    scope.set_polling_mode(50)
    scope.start_polling()


class RecordingSocket:
    """The router end of a worker link, keeping every byte it sends."""

    def __init__(self, sock) -> None:
        self._sock = sock
        self.stream = bytearray()

    def send(self, data) -> int:
        sent = self._sock.send(data)
        self.stream += memoryview(data)[:sent]
        return sent

    def __getattr__(self, name):
        return getattr(self._sock, name)


def poisoned_factory(manager, shard_id):
    # Normal scopes, but one magic signal name blows up ingest: the
    # worker must quarantine (crash report + nonzero exit), not wedge.
    factory(manager, shard_id)
    original = manager.push_samples

    def poisoned(name, times, values):
        if name == "poison":
            raise RuntimeError("poisoned batch")
        return original(name, times, values)

    manager.push_samples = poisoned


@pytest.mark.distributed
class TestWorkerHandle:
    def test_lifecycle_deliver_stats_snapshot_shutdown(self):
        handle = WorkerHandle(0, factory, loop=MainLoop())
        try:
            offered = handle.deliver(100.0, "alpha", [90.0, 95.0], [1.0, 2.0])
            assert offered == 2
            remote = handle.drain(2, timeout_s=30.0)
            assert remote["offered"] == 2
            snap = handle.snapshot_state(timeout_s=30.0)
            assert "scope-0" in snap["manager"]["scopes"]
            assert snap["stats"]["offered"] == 2
        finally:
            handle.close()
        assert handle.exitcode == 0  # graceful shutdown, not a kill

    def test_every_damaged_snapshot_reply_fails_closed(self):
        """A snapshot reply is checked like the state file it becomes:
        every flipped byte and every truncation of one real reply raises
        CaptureFormatError from snapshot_state, never a wrong state."""
        handle = WorkerHandle(0, factory, loop=MainLoop())
        try:
            handle.deliver(100.0, "alpha", [90.0, 95.0], [1.0, 2.0])
            reply = handle.request(
                {"op": "snapshot", "now": handle.last_now}, "snapshot", 30.0
            )
        finally:
            handle.close()
        raw = base64.b64decode(reply["blob"])
        damaged = [raw[:n] for n in range(len(raw))]
        for i in range(len(raw)):
            flipped = bytearray(raw)
            flipped[i] ^= 0xFF
            damaged.append(bytes(flipped))
        blobs = [base64.b64encode(case).decode("ascii") for case in damaged]
        blobs += [reply["blob"][:-1], "not base64!", None]
        for blob in blobs:
            handle.request = lambda *_args, blob=blob: {"op": "snapshot", "blob": blob}
            with pytest.raises(CaptureFormatError):
                handle.snapshot_state()

    def test_kill_detected_and_requests_fail_fast(self):
        handle = WorkerHandle(1, factory, loop=MainLoop())
        try:
            handle.kill()
            assert not handle.is_alive()
            with pytest.raises(WorkerDied):
                handle.stats(timeout_s=5.0)
        finally:
            handle.close()

    def test_child_crash_reported_not_wedged(self):
        handle = WorkerHandle(0, poisoned_factory, loop=MainLoop())
        try:
            handle.deliver(100.0, "poison", [90.0], [1.0])
            with pytest.raises(WorkerDied, match="crash"):
                handle.drain(1, timeout_s=30.0)
            handle.process.join(timeout=10.0)
            assert handle.exitcode == 1
        finally:
            handle.close()

    def test_crash_report_survives_a_failed_send(self):
        """The child is dead before the next request: that request's
        send fails first, yet the caller still gets the crash reason
        (still unread in the socket), not a bare "died awaiting"."""
        handle = WorkerHandle(0, poisoned_factory, loop=MainLoop())
        try:
            handle.deliver(100.0, "poison", [90.0], [1.0])
            handle.flush()
            handle.process.join(timeout=30.0)
            assert handle.exitcode == 1
            with pytest.raises(WorkerDied, match="crashed: .*poisoned batch"):
                handle.drain(1, timeout_s=30.0)
        finally:
            handle.close()

    def test_pending_buffer_bounded_while_socket_backed_up(self):
        """A socket that never takes the last byte keeps the queue
        non-empty forever; every frame it did take must still leave the
        queue, so router memory stays bounded."""

        class BackedUpSocket:
            def send(self, data):
                if len(data) <= 1:
                    raise BlockingIOError
                return len(data) - 1

        handle = WorkerHandle(0, factory, loop=MainLoop())
        real = handle.endpoint.sock
        try:
            handle.endpoint.sock = BackedUpSocket()
            batch = np.zeros(1024)
            peak = 0
            while handle.bytes_sent < 1 << 20:
                handle.deliver(100.0, "alpha", batch, batch)
                held = sum(len(frame) for frame, _ in handle._out.frames)
                peak = max(peak, held)
            assert handle.pending_bytes == 1
            assert peak < 256 << 10
        finally:
            handle.endpoint.sock = real
            handle.kill()
            handle.close()


@pytest.mark.distributed
class TestProcessShardedScopeManager:
    def test_routing_matches_in_process_ring_and_counts_settle(self):
        with ProcessShardedScopeManager(shards=N, scope_factory=factory) as mgr:
            for name in SIGNALS:
                assert mgr.shard_of(name) == shard_of(name, N)
            rng = np.random.default_rng(3)
            offered = 0
            for step in range(30):
                mgr.loop.run_for(20.0)
                now = mgr.loop.clock.now()
                for name in SIGNALS:
                    t = now - rng.uniform(0.0, 200.0, 2)
                    offered += mgr.push_samples(name, t, rng.normal(size=2))
            mgr.advance_all()
            mgr.drain(timeout_s=60.0)
            totals = mgr.totals()
            assert totals["offered"] == offered
            assert totals["accepted"] + totals["dropped_late"] == offered
            assert totals["dropped_late"] > 0

    def test_drain_shortfall_raises_after_one_stats_round_trip(self):
        """The stats reply covers every delivery sent before it, so a
        count that falls short is lost data: drain names both counts
        after one request instead of polling until its deadline."""
        with ProcessShardedScopeManager(shards=1, scope_factory=factory) as mgr:
            mgr.push_samples("alpha", [0.0], [1.0])
            handle = mgr.handle_of(0)
            handle.flush()
            handle.samples_sent += 1  # one sample the worker never saw
            sent = handle.bytes_sent
            with pytest.raises(WorkerDied, match="ingested 1 samples, 2 were sent"):
                mgr.drain(timeout_s=5.0)
            assert handle.bytes_sent - sent == len(encode_control({"op": "stats"}))

    def test_one_loop_iteration_writes_the_pending_buffer(self):
        """Pushes queue; the router loop's next iteration writes them,
        with nobody draining — and a full chunk goes out at once."""
        with ProcessShardedScopeManager(shards=1, scope_factory=factory) as mgr:
            handle = mgr.handle_of(0)
            mgr.push_samples("alpha", [0.0, 1.0], [1.0, 2.0])
            assert handle.pending_bytes > 0 and handle.bytes_sent == 0
            mgr.loop.iteration()
            assert handle.pending_bytes == 0
            sent = handle.bytes_sent
            assert sent > 0
            big = np.zeros(5000)  # 80 KiB of columns: past one chunk
            mgr.push_samples("beta", big, big)
            assert handle.bytes_sent - sent >= 16 * 5000
            mgr.drain(timeout_s=30.0)
            assert mgr.totals()["offered"] == 5002

    def test_router_to_worker_stream_is_pinned(self):
        """Corking moves no byte: for a seeded multi-signal sequence of
        pushes, advances, loop runs and a drain, each worker's stream is
        the one an unbuffered router wrote."""
        rng = np.random.default_rng(2026)
        with ProcessShardedScopeManager(shards=N, scope_factory=factory) as mgr:
            links = []
            for shard_id in mgr.shard_ids:
                handle = mgr.handle_of(shard_id)
                handle.endpoint.sock = RecordingSocket(handle.endpoint.sock)
                links.append(handle.endpoint.sock)
            for step in range(48):
                name = SIGNALS[int(rng.integers(0, len(SIGNALS)))]
                n = int(rng.choice([1, 7, 128, 2048, 6000]))
                now = mgr.loop.clock.now()
                times = now - rng.uniform(0.0, 200.0, n)
                mgr.push_samples(name, times, rng.standard_normal(n))
                if step % 8 == 7:
                    mgr.advance_all()
                mgr.loop.run_for(float(rng.integers(0, 30)))
            mgr.drain(timeout_s=60.0)
            digests = [hashlib.sha256(link.stream).hexdigest() for link in links]
        assert digests == PINNED_STREAMS


class CuttingEndpoint:
    """A client link that takes the next of ``CUTS`` bytes per send and
    keeps every byte it took, in order."""

    def __init__(self, turn: int = 0) -> None:
        self.turn = turn
        self.stream = bytearray()
        self.closed = False
        self.peer_closed = False

    def readable(self) -> bool:
        return False

    def writable(self) -> bool:
        return not self.closed

    def send(self, data) -> int:
        taken = min(CUTS[self.turn % len(CUTS)], len(data))
        self.turn += 1
        self.stream += bytes(data)[:taken]
        return taken

    def close(self) -> None:
        self.closed = True


class RecordingLink:
    """A subscriber's endpoint that keeps every byte it reads."""

    def __init__(self, inner) -> None:
        self._inner = inner
        self.stream = bytearray()

    def recv(self, max_bytes: int = 1 << 16) -> bytes:
        chunk = self._inner.recv(max_bytes)
        self.stream += chunk
        return chunk

    def __getattr__(self, name):
        return getattr(self._inner, name)


def test_client_to_server_stream_is_pinned():
    """A seeded multi-signal run of scalar, small, large and
    past-one-chunk frames over links that short-write at eight cut
    sizes, with the first link dying mid-frame: what each link took is
    the stream the client's own writer sent."""
    rng = np.random.default_rng(2027)
    loop = MainLoop()
    first, second = CuttingEndpoint(), CuttingEndpoint(turn=3)
    links = iter([second])
    client = ScopeClient(first, loop, connect=lambda: next(links), backoff_seed=5)
    names = ["cwnd", "rtt", "q.depth", "µs", "loss"]
    for step in range(60):
        name = names[int(rng.integers(0, len(names)))]
        n = int(rng.choice([1, 7, 128, 2048, 5000]))
        if n == 1 and step % 2:
            client.send_sample(name, float(rng.standard_normal()), time_ms=float(step))
        else:
            times = step + np.sort(rng.uniform(0.0, 1.0, n))
            client.send_samples(name, rng.standard_normal(n), times=times)
        for _ in range(int(rng.integers(0, 3))):
            loop.iteration()
        if step == 30:
            decoder = FrameDecoder()
            decoder.feed(bytes(first.stream))
            assert decoder.pending > 0  # the link dies mid-frame
            first.peer_closed = True
            loop.run_for(500.0)
            assert client.reconnects == 1 and first.closed
    while client.backlog:
        loop.iteration()
    decoder = FrameDecoder()
    frames = decoder.feed(bytes(second.stream))
    assert decoder.pending == 0 and frames
    digests = [hashlib.sha256(link.stream).hexdigest() for link in (first, second)]
    assert digests == PINNED_CLIENT_STREAMS


def test_server_to_subscriber_streams_are_pinned():
    """Two viewers share one view and each holds one more: over a
    seeded run, the bytes each session reads are the ones a server
    whose sessions wrote for themselves sent."""
    rng = np.random.default_rng(2028)
    loop = MainLoop()
    manager = ScopeManager(loop)
    scope = manager.scope_new("rig", delay_ms=1e12)
    for name in ("a", "b"):
        scope.signal_new(buffer_signal(name))
    server = ScopeServer(loop, manager)

    def connect():
        near, far = memory_pair(loop.clock)
        server.add_client(far)
        return near

    producer = ScopeClient(connect(), loop)
    views = [
        ["s = ewma(a, 0.7)", "d = a - 0.5*b"],
        ["s = ewma(a, 0.7)", "l = sum_over(b, 25)\nm = max(a, b)"],
    ]
    links = []
    for texts in views:
        link = RecordingLink(connect())
        viewer = ScopeClient(link, loop)
        for text in texts:
            viewer.subscribe(text)
        links.append(link)
    loop.run_for(20.0)
    t = 0.0
    for _ in range(80):
        name = "ab"[int(rng.integers(0, 2))]
        n = int(rng.integers(1, 300))
        times = t + np.cumsum(rng.uniform(0.01, 0.5, n))
        t = float(times[-1])
        producer.send_samples(name, rng.standard_normal(n), times=times)
        loop.run_for(float(rng.integers(0, 5)))
    assert len(server.queries.shared_queries()) == 3  # "s" is shared
    for shared in server.queries.shared_queries():
        shared.live.finish()
    loop.run_for(50.0)
    digests = [hashlib.sha256(link.stream).hexdigest() for link in links]
    assert digests == PINNED_FANOUT_STREAMS
