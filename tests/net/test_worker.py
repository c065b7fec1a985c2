"""Unit tests for the process-worker plane: handle, lifecycle, drain."""

import base64
import hashlib

import numpy as np
import pytest

from repro.capture.format import CaptureFormatError
from repro.core.signal import buffer_signal
from repro.eventloop.loop import MainLoop
from repro.net import ProcessShardedScopeManager, WorkerDied, encode_control, shard_of
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
        """A socket that never takes the last byte keeps the buffer
        non-empty forever; the already-sent prefix must still be
        released, so router memory stays bounded."""

        class BackedUpSocket:
            def send(self, data):
                if len(data) <= 1:
                    raise BlockingIOError
                return len(data) - 1

        handle = WorkerHandle(0, factory, loop=MainLoop())
        real = handle.sock
        try:
            handle.sock = BackedUpSocket()
            batch = np.zeros(1024)
            peak = 0
            while handle.bytes_sent < 1 << 20:
                handle.deliver(100.0, "alpha", batch, batch)
                peak = max(peak, len(handle._pending))
            assert handle.pending_bytes == 1
            assert peak < 256 << 10
        finally:
            handle.sock = real
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
                handle.sock = RecordingSocket(handle.sock)
                links.append(handle.sock)
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
