"""Unit tests for the process-worker plane: ring, handle, lifecycle."""

import numpy as np
import pytest

from repro.core.signal import SignalSpec, SignalType, buffer_signal
from repro.net import ProcessShardedScopeManager, ShmRing, WorkerDied, shard_of
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


class TestShmRing:
    def roundtrip(self, ring, name_id, now, n, seed):
        rng = np.random.default_rng(seed)
        t = rng.uniform(0, 1000, n)
        v = rng.normal(size=n)
        assert ring.try_push(name_id, now, t.tobytes(), v.tobytes())
        got_id, got_now, got_t, got_v = ring.pop()
        assert (got_id, got_now) == (name_id, now)
        np.testing.assert_array_equal(got_t, t)
        np.testing.assert_array_equal(got_v, v)

    def test_roundtrip_and_wraparound(self):
        ring = ShmRing.create(4096)
        try:
            # Many records through a small ring force the wrap marker
            # path repeatedly; every record must come back intact.
            for i in range(200):
                self.roundtrip(ring, i % 7, float(i), 1 + i % 50, seed=i)
        finally:
            ring.close()

    def test_full_ring_refuses_push(self):
        ring = ShmRing.create(4096)
        try:
            t = np.zeros(60).tobytes()
            pushed = 0
            while ring.try_push(0, 0.0, t, t):
                pushed += 1
            assert 0 < pushed < 5  # bounded by capacity, not accepted forever
            assert ring.fallbacks == 1
            # Draining frees the space again (one pop may not be enough:
            # a record that would straddle the end also burns the
            # contiguous tail gap on a wrap marker).
            for _ in range(pushed):
                ring.pop()
            assert ring.try_push(0, 0.0, t, t)
        finally:
            ring.close()

    def test_attach_sees_producer_records(self):
        producer = ShmRing.create(4096)
        try:
            consumer = ShmRing.attach(producer.name)
            t = np.array([1.0, 2.0])
            v = np.array([3.0, 4.0])
            assert producer.try_push(9, 55.0, t.tobytes(), v.tobytes())
            name_id, now, got_t, got_v = consumer.pop()
            assert (name_id, now) == (9, 55.0)
            np.testing.assert_array_equal(got_v, v)
            consumer.shm.close()
        finally:
            ring = producer
            ring.close()


@pytest.mark.distributed
class TestWorkerHandle:
    def test_lifecycle_deliver_stats_snapshot_shutdown(self):
        handle = WorkerHandle(0, factory, heartbeat_s=5.0)
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

    def test_kill_detected_and_requests_fail_fast(self):
        handle = WorkerHandle(1, factory, heartbeat_s=5.0)
        try:
            handle.kill()
            assert not handle.is_alive()
            with pytest.raises(WorkerDied):
                handle.stats(timeout_s=5.0)
        finally:
            handle.close()

    def test_child_crash_reported_not_wedged(self):
        handle = WorkerHandle(0, poisoned_factory, heartbeat_s=5.0)
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
        handle = WorkerHandle(0, poisoned_factory, heartbeat_s=5.0)
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

        handle = WorkerHandle(0, factory, heartbeat_s=5.0)
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
    @pytest.mark.parametrize("use_shm", (False, True))
    def test_routing_matches_in_process_ring_and_counts_settle(self, use_shm):
        with ProcessShardedScopeManager(
            shards=N, scope_factory=factory, use_shm=use_shm
        ) as mgr:
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
