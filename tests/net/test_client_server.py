"""End-to-end tests for the distributed client/server library (§4.4)."""

import numpy as np
import pytest

from repro.core.manager import ScopeManager
from repro.core.signal import buffer_signal
from repro.eventloop.loop import MainLoop
from repro.net import ScopeClient, ScopeServer, memory_pair, socket_pair
from repro.net.protocol import (
    encode_binary_samples,
    encode_hello,
    encode_name_def,
    encode_query,
)


class RecordingEndpoint:
    """A writable endpoint that takes at most ``accept`` bytes per send
    (all of them when None) and keeps every byte it took, in order."""

    def __init__(self, accept=None) -> None:
        self.accept = accept
        self.sends = []  # the length offered to each send call
        self.stream = bytearray()
        self.closed = False
        self.peer_closed = False

    def readable(self) -> bool:
        return False

    def writable(self) -> bool:
        return not self.closed

    def send(self, data) -> int:
        data = bytes(data)
        taken = len(data) if self.accept is None else min(self.accept, len(data))
        self.sends.append(len(data))
        self.stream += data[:taken]
        return taken

    def close(self) -> None:
        self.closed = True


class ResetOnSecondRecv:
    """An endpoint that hands out one chunk, still reports itself
    readable, then fails its next ``recv`` like a reset socket."""

    def __init__(self, chunk: bytes) -> None:
        self._chunks = [chunk]
        self.closed = False

    def readable(self) -> bool:
        return not self.closed

    def writable(self) -> bool:
        return not self.closed

    def recv(self, max_bytes: int = 65536) -> bytes:
        if self._chunks:
            return self._chunks.pop()
        raise ConnectionResetError("connection reset by peer")

    def send(self, data: bytes) -> int:
        return len(data)

    def close(self) -> None:
        self.closed = True


def make_world(delay_ms=100.0, latency_ms=0.0, auto_create=False):
    loop = MainLoop()
    manager = ScopeManager(loop)
    scope = manager.scope_new("remote", period_ms=50, delay_ms=delay_ms)
    scope.signal_new(buffer_signal("metric"))
    scope.set_polling_mode(50)
    scope.start_polling()
    server = ScopeServer(loop, manager, auto_create=auto_create)
    near, far = memory_pair(loop.clock, latency_ms=latency_ms)
    server.add_client(far)
    client = ScopeClient(near, loop)
    return loop, scope, server, client


class TestHappyPath:
    def test_sample_travels_to_scope(self):
        loop, scope, server, client = make_world()
        client.send_sample("metric", 42.0)
        loop.run_for(300)
        assert scope.value_of("metric") == 42.0
        assert server.totals()["accepted"] == 1

    def test_stream_of_samples(self):
        loop, scope, server, client = make_world()
        loop.timeout_add(
            10, lambda lost: client.send_sample("metric", loop.clock.now()) or True
        )
        loop.run_for(2000)
        channel = scope.channel("metric")
        assert len(channel.trace) > 150
        times = channel.times()
        assert times == sorted(times)

    def test_link_latency_tolerated_within_delay(self):
        """Samples older than the delay on arrival are kept as long as
        transmission latency < display delay."""
        loop, scope, server, client = make_world(delay_ms=100, latency_ms=60)
        client.send_sample("metric", 7.0)
        loop.run_for(400)
        assert scope.value_of("metric") == 7.0
        assert server.totals()["dropped_late"] == 0

    def test_multiple_clients_one_scope(self):
        loop = MainLoop()
        manager = ScopeManager(loop)
        scope = manager.scope_new("remote", period_ms=50, delay_ms=100)
        scope.signal_new(buffer_signal("a"))
        scope.signal_new(buffer_signal("b"))
        scope.set_polling_mode(50)
        scope.start_polling()
        server = ScopeServer(loop, manager)
        clients = []
        for _ in range(2):
            near, far = memory_pair(loop.clock)
            server.add_client(near_id := far)
            clients.append(ScopeClient(near, loop))
        clients[0].send_sample("a", 1.0)
        clients[1].send_sample("b", 2.0)
        loop.run_for(300)
        assert scope.value_of("a") == 1.0
        assert scope.value_of("b") == 2.0


class TestLateDrop:
    def test_latency_beyond_delay_drops(self):
        """Section 4.4: data arriving after the delay is dropped."""
        loop, scope, server, client = make_world(delay_ms=20, latency_ms=80)
        client.send_sample("metric", 9.0)
        loop.run_for(500)
        assert scope.value_of("metric") is None
        assert server.totals()["dropped_late"] == 1

    def test_larger_delay_rescues_slow_links(self):
        loop, scope, server, client = make_world(delay_ms=200, latency_ms=80)
        client.send_sample("metric", 9.0)
        loop.run_for(500)
        assert scope.value_of("metric") == 9.0


class TestProtocolErrors:
    def test_malformed_stream_disconnects_client(self):
        loop, scope, server, client = make_world()
        state = server.clients[0]
        client.endpoint.send(b"garbage line\n")
        loop.run_for(200)
        # The dead session is pruned from the live list, its counters
        # folded into the retained totals.
        assert not state.connected
        assert server.clients == []
        assert server.retired_clients == 1
        assert server.totals()["protocol_errors"] == 1

    def test_reset_mid_drain_disconnects_as_transport(self):
        loop, scope, server, _ = make_world(delay_ms=1e9)
        stub = ResetOnSecondRecv(
            encode_hello()
            + encode_name_def(0, "metric")
            + encode_binary_samples(0, [1.0, 2.0], [5.0, 6.0])
        )
        state = server.add_client(stub)
        loop.run_for(50)
        # The drain loop's second recv raised: the session ends with a
        # reason, inside the dispatch, and what arrived first counts.
        assert state not in server.clients
        assert state.disconnect_reason == "transport"
        assert server.disconnect_reasons == {"transport": 1}
        assert server.retired_clients == 1
        assert stub.closed
        assert server.totals()["accepted"] == 2

    def test_unknown_signal_counted_not_crashed(self):
        loop, scope, server, client = make_world()
        client.send_sample("ghost", 1.0)
        loop.run_for(200)
        totals = server.totals()
        assert totals["received"] == 1
        assert totals["accepted"] == 0

    def test_auto_create_registers_signal(self):
        loop, scope, server, client = make_world(auto_create=True)
        client.send_sample("surprise", 3.0)
        loop.run_for(300)
        assert "surprise" in scope
        assert scope.value_of("surprise") == 3.0


class TestClientBehaviour:
    def test_backlog_drains(self):
        loop, scope, server, client = make_world()
        for i in range(50):
            client.send_sample("metric", float(i))
        loop.run_for(500)
        assert client.backlog == 0
        assert client.sent == 50

    def test_queue_bound_drops_oldest(self):
        loop = MainLoop()
        near, _far = memory_pair(loop.clock)
        near.closed = False

        class NeverWritable:
            def __init__(self, inner):
                self.inner = inner

            def writable(self):
                return False

            def readable(self):
                return False

            def send(self, data):
                raise AssertionError("should not send")

            def close(self):
                pass

        client = ScopeClient(NeverWritable(near), loop, max_queue=5)
        for i in range(8):
            client.send_sample("m", float(i))
        assert client.backlog == 5
        assert client.dropped == 3

    def test_close_removes_watch(self):
        loop, scope, server, client = make_world()
        client.send_sample("metric", 1.0)
        client.close()
        # Any watches the client registered must be gone or inert.
        loop.run_for(200)


class TestSubscriberReadLoop:
    def test_reset_mid_drain_tears_down_and_reconnects(self):
        loop = MainLoop()
        manager = ScopeManager(loop)
        manager.scope_new("rig", delay_ms=1e9).signal_new(buffer_signal("a"))
        server = ScopeServer(loop, manager)
        stub = ResetOnSecondRecv(encode_query({"op": "compiled", "id": "q0"}))

        def connect():
            near, far = memory_pair(loop.clock)
            server.add_client(far)
            return near

        client = ScopeClient(stub, loop, connect=connect, backoff_seed=3)
        sub = client.subscribe("y = a")
        loop.run_for(1.0)
        # The first chunk was decoded; the reset on the second recv
        # tore the link down and armed a reconnect.
        assert sub.acked
        assert stub.closed
        assert client.reconnecting
        loop.run_for(500.0)
        assert client.reconnects == 1
        assert sub.subscribed and sub.error is None


class TestBatchedSend:
    def test_batched_frame_travels_to_scope(self):
        loop, scope, server, client = make_world()
        now = loop.clock.now()
        client.send_samples("metric", [1.0, 2.0, 3.0], times=[now, now + 1, now + 2])
        loop.run_for(300)
        assert server.totals()["accepted"] == 3
        assert scope.channel("metric").raw_values() == [1.0, 2.0, 3.0]

    def test_batched_send_counts_samples(self):
        loop, scope, server, client = make_world()
        client.send_samples("metric", [5.0] * 10)
        loop.run_for(300)
        assert client.sent == 10
        assert client.backlog == 0

    def test_batched_and_scalar_interleave(self):
        loop, scope, server, client = make_world()
        now = loop.clock.now()
        client.send_sample("metric", 1.0, time_ms=now)
        client.send_samples("metric", [2.0, 3.0], times=[now + 1, now + 2])
        client.send_sample("metric", 4.0, time_ms=now + 3)
        loop.run_for(300)
        assert scope.channel("metric").raw_values() == [1.0, 2.0, 3.0, 4.0]
        assert server.totals()["accepted"] == 4

    def test_empty_batch_is_noop(self):
        loop, scope, server, client = make_world()
        client.send_samples("metric", [])
        loop.run_for(100)
        assert client.backlog == 0
        assert client.sent == 0


class TestSocketTransport:
    def test_end_to_end_over_real_sockets(self):
        loop = MainLoop()
        manager = ScopeManager(loop)
        scope = manager.scope_new("remote", period_ms=50, delay_ms=100)
        scope.signal_new(buffer_signal("metric"))
        scope.set_polling_mode(50)
        scope.start_polling()
        server = ScopeServer(loop, manager)
        client_end, server_end = socket_pair()
        try:
            server.add_client(server_end)
            client = ScopeClient(client_end, loop)
            client.send_sample("metric", 13.0, time_ms=loop.clock.now())
            loop.run_for(300)
            assert scope.value_of("metric") == 13.0
        finally:
            client_end.close()
            server_end.close()

    def test_binary_batch_over_real_sockets(self):
        """Full binary path — hello, name interning, columnar frames —
        across an actual non-blocking socketpair."""
        loop = MainLoop()
        manager = ScopeManager(loop)
        scope = manager.scope_new("remote", period_ms=50, delay_ms=10_000)
        scope.signal_new(buffer_signal("metric"))
        scope.set_polling_mode(50)
        scope.start_polling()
        server = ScopeServer(loop, manager)
        client_end, server_end = socket_pair()
        try:
            server.add_client(server_end)
            client = ScopeClient(client_end, loop, mode="binary")
            now = loop.clock.now()
            total = 5000
            values = [float(i) for i in range(total)]
            times = [now + i * 0.01 for i in range(total)]
            client.send_samples("metric", values, times=times)
            for _ in range(50):
                loop.run_for(50)
                if server.totals()["received"] >= total:
                    break
            totals = server.totals()
            assert totals["received"] == total
            assert totals["accepted"] == total
            assert server.clients[0].mode == "binary"
            assert client.sent == total
        finally:
            client_end.close()
            server_end.close()


class TestBinaryWire:
    def test_default_mode_is_binary(self):
        loop, scope, server, client = make_world()
        assert client.mode == "binary"
        client.send_sample("metric", 42.0)
        loop.run_for(300)
        assert server.clients[0].mode == "binary"
        assert scope.value_of("metric") == 42.0

    def test_text_mode_negotiates_fallback(self):
        """An old-style text client keeps working against the same server."""
        loop = MainLoop()
        manager = ScopeManager(loop)
        scope = manager.scope_new("remote", period_ms=50, delay_ms=100)
        scope.signal_new(buffer_signal("metric"))
        scope.set_polling_mode(50)
        scope.start_polling()
        server = ScopeServer(loop, manager)
        near, far = memory_pair(loop.clock)
        server.add_client(far)
        client = ScopeClient(near, loop, mode="text")
        client.send_sample("metric", 9.5)
        loop.run_for(300)
        assert server.clients[0].mode == "text"
        assert scope.value_of("metric") == 9.5

    def test_mixed_mode_clients_one_server(self):
        loop = MainLoop()
        manager = ScopeManager(loop)
        scope = manager.scope_new("remote", period_ms=50, delay_ms=100)
        scope.signal_new(buffer_signal("a"))
        scope.signal_new(buffer_signal("b"))
        scope.set_polling_mode(50)
        scope.start_polling()
        server = ScopeServer(loop, manager)
        clients = []
        for mode in ("binary", "text"):
            near, far = memory_pair(loop.clock)
            server.add_client(far)
            clients.append(ScopeClient(near, loop, mode=mode))
        clients[0].send_sample("a", 1.0)
        clients[1].send_sample("b", 2.0)
        loop.run_for(300)
        assert [c.mode for c in server.clients] == ["binary", "text"]
        assert scope.value_of("a") == 1.0
        assert scope.value_of("b") == 2.0

    def test_ndarray_columns_travel_without_conversion(self):
        import numpy as np

        loop, scope, server, client = make_world(delay_ms=10_000)
        now = loop.clock.now()
        times = now + np.arange(100.0)
        values = np.sqrt(np.arange(100.0))
        client.send_samples("metric", values, times=times)
        loop.run_for(500)
        assert server.totals()["accepted"] == 100
        loop.run_for(11_000)  # past the display delay: samples drain
        assert scope.channel("metric").raw_values()[:3] == [0.0, 1.0, pytest.approx(2**0.5)]

    def test_malformed_binary_header_disconnects(self):
        loop, scope, server, client = make_world()
        # Starts with the binary magic byte, then garbage.
        client.endpoint.send(b"\xa5" + b"\x00" * 20)
        loop.run_for(200)
        assert server.clients == []
        assert server.totals()["protocol_errors"] == 1

    def test_samples_before_name_def_disconnect(self):
        from repro.net.protocol import encode_binary_samples

        loop, scope, server, client = make_world()
        client.endpoint.send(encode_binary_samples(5, [1.0], [2.0]))
        loop.run_for(200)
        assert server.clients == []
        assert server.totals()["protocol_errors"] == 1

    def test_empty_binary_batch_is_noop(self):
        import numpy as np

        loop, scope, server, client = make_world()
        client.send_samples("metric", np.empty(0))
        loop.run_for(100)
        assert client.backlog == 0
        assert client.sent == 0
        # No control traffic either: the name was never used on the wire.
        assert server.totals()["frames"] == 0

    def test_control_frames_never_interleave_partial_data(self):
        """A NAME_DEF queued while a data frame is half-transmitted must
        wait for the frame to finish — landing mid-frame would
        desynchronise the binary stream (real sockets short-write)."""
        import numpy as np

        loop = MainLoop()
        manager = ScopeManager(loop)
        scope = manager.scope_new("remote", period_ms=50, delay_ms=100_000)
        scope.signal_new(buffer_signal("a"))
        scope.signal_new(buffer_signal("b"))
        scope.set_polling_mode(50)
        scope.start_polling()
        server = ScopeServer(loop, manager)
        near, far = memory_pair(loop.clock)
        server.add_client(far)

        class Trickle:
            """Endpoint that short-writes: at most 7 bytes per send."""

            def __init__(self, inner):
                self.inner = inner

            def writable(self):
                return self.inner.writable()

            def readable(self):
                return self.inner.readable()

            def send(self, data):
                return self.inner.send(data[:7])

            def close(self):
                self.inner.close()

        client = ScopeClient(Trickle(near), loop, mode="binary")
        now = loop.clock.now()
        # Large frame for 'a': guaranteed mid-frame when 'b' is interned
        # below (its NAME_DEF enters the control queue while 'a' data is
        # partially transmitted).
        client.send_samples("a", np.arange(100.0), times=np.full(100, now))
        client.send_sample("b", 5.0, time_ms=now)
        loop.run_for(2000)
        totals = server.totals()
        assert totals["protocol_errors"] == 0
        assert totals["accepted"] == 101
        assert server.clients[0].connected
        assert client.sent == 101

    def test_name_defs_survive_queue_pressure(self):
        """Back-pressure drops data frames but never NAME_DEFs — every
        surviving frame must still decode against a defined id."""
        loop = MainLoop()
        manager = ScopeManager(loop)
        scope = manager.scope_new("remote", period_ms=50, delay_ms=100_000)
        for sig in ("a", "b", "c"):
            scope.signal_new(buffer_signal(sig))
        scope.set_polling_mode(50)
        scope.start_polling()
        server = ScopeServer(loop, manager)
        near, far = memory_pair(loop.clock)
        server.add_client(far)

        class Gate:
            """Endpoint wrapper whose writability can be toggled."""

            def __init__(self, inner):
                self.inner = inner
                self.open = False

            def writable(self):
                return self.open and self.inner.writable()

            def readable(self):
                return self.inner.readable()

            def send(self, data):
                return self.inner.send(data)

            def close(self):
                self.inner.close()

        gate = Gate(near)
        client = ScopeClient(gate, loop, max_queue=2, mode="binary")
        now = loop.clock.now()
        # Nine data frames across three names while unwritable: seven of
        # the data frames drop, all three NAME_DEFs must survive.
        for i in range(9):
            client.send_sample("abc"[i % 3], float(i), time_ms=now)
        assert client.backlog == 2
        assert client.dropped == 7
        gate.open = True
        loop.run_for(300)
        totals = server.totals()
        assert totals["protocol_errors"] == 0
        assert totals["accepted"] == 2
        assert server.clients[0].connected


class TestCorkedSend:
    """``send_samples`` queues; the writable watch writes once per loop
    iteration, joining whole frames up to one 64 KiB ``send``."""

    @staticmethod
    def batch(i, n=128):
        return np.arange(n, dtype=np.float64) + 1000.0 * i, np.full(n, float(i))

    def test_sixteen_small_frames_go_out_in_one_send(self):
        loop = MainLoop()
        stub = RecordingEndpoint()
        client = ScopeClient(stub, loop)
        expected = encode_hello() + encode_name_def(0, "metric")
        for i in range(16):
            values, times = self.batch(i)
            client.send_samples("metric", values, times=times)
            expected += encode_binary_samples(0, times, values)
        assert stub.sends == [] and client.backlog == 16  # queued, not written
        loop.iteration()
        assert stub.sends == [len(expected)]
        assert stub.stream == expected
        assert client.backlog == 0
        assert (client.sent, client.sent_frames) == (16 * 128, 16)
        assert client.bytes_sent == len(expected)

    def test_large_frames_join_only_while_the_write_fits(self):
        """Two 2048-sample frames overflow one 64 KiB write: each goes
        alone, except that the small preamble joins the first."""
        loop = MainLoop()
        stub = RecordingEndpoint()
        client = ScopeClient(stub, loop)
        frames = []
        for i in range(3):
            values, times = self.batch(i, n=2048)
            client.send_samples("metric", values, times=times)
            frames.append(encode_binary_samples(0, times, values))
        loop.iteration()
        preamble = len(encode_hello() + encode_name_def(0, "metric"))
        assert stub.sends == [preamble + len(frames[0]), len(frames[1]), len(frames[2])]
        assert client.sent_frames == 3

    @pytest.mark.parametrize("accept", [1, 5, 12, 13, 100, 2063, 4096, 40_000])
    def test_short_writes_deliver_the_same_frames(self, accept):
        """Cut anywhere — inside a header, a column, a crc or a control
        frame — the bytes the transport took are the unbuffered stream,
        and the server decodes every frame from them."""
        rng = np.random.default_rng(accept)
        loop = MainLoop()
        manager = ScopeManager(loop)
        scope = manager.scope_new("remote", period_ms=50, delay_ms=1e9)
        names = ["a", "b", "c"]
        for name in names:
            scope.signal_new(buffer_signal(name))
        server = ScopeServer(loop, manager)
        near, far = memory_pair(loop.clock)
        server.add_client(far)

        class Short(RecordingEndpoint):
            def send(self, data) -> int:
                taken = super().send(data)
                return near.send(bytes(data)[:taken])

        stub = Short(accept)
        client = ScopeClient(stub, loop)
        control = [encode_hello()]
        data = []
        total = 0
        for _ in range(12):
            name = names[int(rng.integers(0, 3))]
            n = int(rng.integers(1, 300))
            times = np.sort(rng.uniform(0.0, 100.0, n))
            values = rng.standard_normal(n)
            if name not in client._name_ids:
                control.append(encode_name_def(len(client._name_ids), name))
            client.send_samples(name, values, times=times)
            data.append(encode_binary_samples(client._name_ids[name], times, values))
            total += n
        while client.backlog or client._control:
            loop.iteration()
        loop.run_for(1.0)
        # Control first (NAME_DEFs may move ahead of queued data), then
        # every data frame in send order.
        assert stub.stream == b"".join(control + data)
        assert all(size <= 1 << 16 for size in stub.sends)
        totals = server.totals()
        assert totals["protocol_errors"] == 0
        assert totals["frames"] == len(control) + len(data)
        assert totals["received"] == totals["accepted"] == client.sent == total

    def test_reconnect_resends_the_cut_frame_from_byte_zero(self):
        loop = MainLoop()
        first = RecordingEndpoint()
        second = RecordingEndpoint()
        links = iter([second])
        client = ScopeClient(first, loop, connect=lambda: next(links), backoff_seed=4)
        frames = []
        for i in range(3):
            values, times = self.batch(i, n=4)
            client.send_samples("metric", values, times=times)
            frames.append(encode_binary_samples(0, times, values))
        preamble = encode_hello() + encode_name_def(0, "metric")
        # One coalesced write, cut 10 bytes into the second frame.
        first.accept = len(preamble) + len(frames[0]) + 10
        loop.iteration()
        assert first.stream == preamble + frames[0] + frames[1][:10]
        assert (client.sent_frames, client.backlog) == (1, 2)
        first.peer_closed = True  # the link dies with frame 1 half-sent
        loop.run_for(500.0)
        assert first.closed and client.reconnects == 1
        # The fresh session gets the preamble, the cut frame whole and
        # the rest — never the frame the old session finished.
        assert second.stream == preamble + frames[1] + frames[2]
        assert (client.sent_frames, client.backlog) == (3, 0)

    def test_reconnect_drops_the_old_sessions_control_frames(self):
        """Control frames still queued when the link dies were meant for
        the old session: the fresh one gets the replayed preamble once,
        never the old copies as well."""
        loop = MainLoop()
        first = RecordingEndpoint(accept=0)  # takes nothing
        second = RecordingEndpoint()
        links = iter([second])
        client = ScopeClient(first, loop, connect=lambda: next(links), backoff_seed=4)
        values, times = self.batch(0, n=4)
        client.send_samples("metric", values, times=times)
        loop.iteration()
        assert first.stream == b"" and client.backlog == 1
        first.peer_closed = True
        loop.run_for(500.0)
        assert client.reconnects == 1
        preamble = encode_hello() + encode_name_def(0, "metric")
        assert second.stream == preamble + encode_binary_samples(0, times, values)

    def test_a_full_socket_is_not_a_dead_link(self):
        """The watch's writable probe can go stale within one iteration
        (an earlier callback filled the socket), so its send may raise
        BlockingIOError: nothing was taken, the link stays up, and the
        next dispatch writes the queue."""

        class FullOnce(RecordingEndpoint):
            full = True

            def send(self, data) -> int:
                if self.full:
                    self.full = False
                    raise BlockingIOError
                return super().send(data)

        loop = MainLoop()
        stub = FullOnce()
        client = ScopeClient(stub, loop, connect=RecordingEndpoint, backoff_seed=3)
        values, times = self.batch(0, n=8)
        client.send_samples("metric", values, times=times)
        loop.iteration()
        assert stub.stream == b"" and client.backlog == 1
        assert not stub.closed and not client.reconnecting
        loop.iteration()
        assert stub.stream == (
            encode_hello()
            + encode_name_def(0, "metric")
            + encode_binary_samples(0, times, values)
        )
        assert (client.sent, client.backlog, client.reconnects) == (8, 0, 0)
        assert not stub.closed

    @pytest.mark.parametrize("accept", [None, 40])
    def test_close_hands_the_queue_to_the_transport(self, accept):
        loop = MainLoop()
        stub = RecordingEndpoint(accept)
        client = ScopeClient(stub, loop)
        values, times = self.batch(0, n=8)
        client.send_samples("metric", values, times=times)
        client.close()  # no loop iteration in between
        stream = encode_hello() + encode_name_def(0, "metric")
        stream += encode_binary_samples(0, times, values)
        assert stub.stream == stream[:accept]
        assert stub.closed
        assert client.sent == (8 if accept is None else 0)

    def test_dead_link_is_noticed_by_send_samples(self):
        """A link whose outgoing side died never reads writable, so the
        watch would never fire: the send itself starts the reconnect."""
        loop, scope, server, _ = make_world(delay_ms=1e9)

        def connect():
            near, far = memory_pair(loop.clock)
            server.add_client(far)
            return near

        near, far = memory_pair(loop.clock)
        server.add_client(far)
        client = ScopeClient(near, loop, connect=connect, backoff_seed=2)
        client.send_samples("metric", [1.0], times=[1.0])
        loop.run_for(1.0)
        near._out.close()  # the outgoing link dies under the client
        assert not near.writable()
        client.send_samples("metric", [2.0], times=[2.0])
        assert client.reconnecting  # no loop iteration was needed
        loop.run_for(500.0)
        assert client.reconnects == 1
        assert server.totals()["accepted"] == 2  # one sample per session

    def test_broken_socket_reconnects_from_the_watch(self):
        """A send on a socket whose peer is gone fails inside the watch
        dispatch; the client reconnects instead of raising out of the
        loop iteration."""
        loop = MainLoop()
        near, far = socket_pair()
        far.close()
        client = ScopeClient(near, loop, connect=lambda: None, backoff_seed=1)
        try:
            client.send_samples("metric", [1.0], times=[1.0])
            loop.iteration()
            assert client.reconnecting and near.closed
            assert client.backlog == 1  # kept for the next session
        finally:
            client.close()

    def test_overflow_tries_the_transport_before_dropping(self):
        loop = MainLoop()
        stub = RecordingEndpoint()
        client = ScopeClient(stub, loop, max_queue=4)
        for i in range(10):
            client.send_sample("metric", float(i), time_ms=0.0)
        # Every full queue was written, not shed.
        assert (client.dropped, client.dropped_frames) == (0, 0)
        assert stub.sends and client.sent + client.backlog == 10
        loop.iteration()
        assert client.sent == 10

    def test_subscribe_keeps_its_place_after_queued_data(self):
        """Control frames jump queued data, but a QUERY must not: the
        subscription covers the samples sent after it, as when every
        send went out at once."""
        loop = MainLoop()
        manager = ScopeManager(loop)
        manager.scope_new("rig", delay_ms=1e9).signal_new(buffer_signal("a"))
        server = ScopeServer(loop, manager, auto_create=True)
        near, far = memory_pair(loop.clock)
        server.add_client(far)
        client = ScopeClient(near, loop)
        client.send_samples("a", [1.0, 2.0, 3.0], times=[1.0, 2.0, 3.0])
        sub = client.subscribe("y = a * 10")
        client.send_samples("a", [4.0], times=[4.0])
        loop.run_for(100.0)
        assert sub.subscribed
        assert sub.columns()[1].tolist() == [40.0]
