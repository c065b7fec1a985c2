"""Unit tests for the process-worker plane: handle, lifecycle, drain."""

import base64

import numpy as np
import pytest

from repro.capture.format import CaptureFormatError
from repro.core.signal import buffer_signal
from repro.net import ProcessShardedScopeManager, WorkerDied, encode_control, shard_of
from repro.net.worker import WorkerHandle

SIGNALS = ["alpha", "beta", "gamma", "delta"]
N = 2


def factory(manager, shard_id):
    scope = manager.scope_new(f"scope-{shard_id}", period_ms=50, delay_ms=150.0)
    for name in SIGNALS:
        scope.signal_new(buffer_signal(name))
    scope.set_polling_mode(50)
    scope.start_polling()


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
        handle = WorkerHandle(0, factory)
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
        handle = WorkerHandle(0, factory)
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
        handle = WorkerHandle(1, factory)
        try:
            handle.kill()
            assert not handle.is_alive()
            with pytest.raises(WorkerDied):
                handle.stats(timeout_s=5.0)
        finally:
            handle.close()

    def test_child_crash_reported_not_wedged(self):
        handle = WorkerHandle(0, poisoned_factory)
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
        handle = WorkerHandle(0, poisoned_factory)
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

        handle = WorkerHandle(0, factory)
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
