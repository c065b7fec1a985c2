"""Continuous-query service: server-side compiled plans over the wire.

The QUERY channel ships query text to the server, which compiles it and
attaches one shared :class:`~repro.query.live.LiveQuery` per *canonical
plan* — N subscribers of the same derived view cost one evaluation plus
fan-out.  These tests pin the three load-bearing claims:

1. server-side derivation is **byte-identical** to batch execution over
   a capture of the same offered stream (8 randomized seeds);
2. subscriptions are multiplexed — same plan (however spelled) shares
   one evaluation, refcounted detach without replay, quarantine and
   compile failures reported in-band;
3. a killed session re-establishes its subscriptions on reconnect with
   **no duplicated derived samples** (the failover-equivalence story
   extended to the query plane).
"""

import numpy as np
import pytest

from repro.capture.reader import CaptureReader
from repro.capture.writer import CaptureWriter
from repro.core.manager import ScopeManager
from repro.core.signal import buffer_signal
from repro.eventloop.loop import MainLoop
from repro.net import ScopeClient, ScopeServer, memory_pair
from repro.net.faults import FaultPlan, faulty_pair
from repro.net.protocol import encode_hello, encode_query
from repro.query import compile_query, execute

SEEDS = range(8)

PROGRAM = """
diff = a - 0.5*b
smooth = ewma(a, 0.7)
load = sum_over(b, 25)
grid = resample(a, 10)
band = clip(min(a, b), -1.5, 1.5)
"""

SIGNALS = ("a", "b")


def make_rig(sources=SIGNALS, latency_ms=0.0):
    loop = MainLoop()
    manager = ScopeManager(loop)
    scope = manager.scope_new("rig", delay_ms=1e12)
    for name in sources:
        scope.signal_new(buffer_signal(name))
    server = ScopeServer(loop, manager)

    def connect():
        near, far = memory_pair(loop.clock, latency_ms=latency_ms)
        server.add_client(far)
        return near

    return loop, manager, server, connect


def make_streams(rng, n_per_signal, t0=0.0):
    streams = {}
    for name in SIGNALS:
        gaps = rng.uniform(0.05, 4.0, n_per_signal)
        times = t0 + np.cumsum(gaps) + rng.uniform(0, 2.0)
        values = rng.standard_normal(n_per_signal)
        streams[name] = (times, values)
    return streams


def feed_jittered(rng, streams, push):
    """Interleave signals in randomly sized batches through ``push``."""
    cursors = {name: 0 for name in streams}
    while any(cursors[n] < streams[n][0].shape[0] for n in streams):
        name = SIGNALS[int(rng.integers(len(SIGNALS)))]
        times, values = streams[name]
        cursor = cursors[name]
        if cursor >= times.shape[0]:
            continue
        n = int(rng.integers(1, 9))
        push(name, times[cursor : cursor + n], values[cursor : cursor + n])
        cursors[name] = cursor + n


# ----------------------------------------------------------------------
# 1. Byte-equivalence: wire-subscribed derivation vs batch-over-capture
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_server_side_derivation_matches_batch(tmp_path, seed):
    rng = np.random.default_rng(seed)
    plan = compile_query(PROGRAM)
    streams = make_streams(rng, n_per_signal=300)

    loop, manager, server, connect = make_rig()
    # The writer taps ahead of the query, so the capture records the raw
    # offered stream (and, after it, the derived feedback — which batch
    # execution ignores: it reads only the plan's sources).
    writer = CaptureWriter(tmp_path / "store", segment_samples=512)
    manager.add_tap(writer)

    client = ScopeClient(connect(), loop)
    sub = client.subscribe(PROGRAM)
    loop.run_for(20)
    assert sub.subscribed and sub.error is None

    feed_jittered(
        rng,
        streams,
        lambda name, t, v: client.send_samples(name, v, t),
    )
    loop.run_for(200)
    # Batch execution flushes watermarked tails and open windows at
    # end-of-stream; mirror that by finishing the server-side shared
    # evaluation — the tails fan out through the same subscriber path.
    server.queries.shared_queries()[0].live.finish()
    loop.run_for(100)
    writer.close()

    with CaptureReader(tmp_path / "store") as reader:
        batch = execute(reader, plan)
    assert set(sub.output_names) == set(batch)
    total = 0
    for name in sub.output_names:
        lt, lv = sub.columns(name)
        rt, rv = batch[name]
        assert lt.tobytes() == rt.tobytes(), f"{name}: times differ"
        assert lv.tobytes() == rv.tobytes(), f"{name}: values differ"
        total += lt.shape[0]
    assert total > 0  # the run actually derived something
    assert sub.stale_dropped == 0  # clean link: nothing deduplicated


# ----------------------------------------------------------------------
# 2. Multiplexing: shared evaluation, refcount, in-band failures
# ----------------------------------------------------------------------
class TestSharedEvaluation:
    def test_same_plan_different_spelling_shares_one_evaluation(self):
        loop, manager, server, connect = make_rig()
        c1 = ScopeClient(connect(), loop)
        c2 = ScopeClient(connect(), loop)
        s1 = c1.subscribe("smooth = ewma(a, $al)", params={"al": 0.9})
        s2 = c2.subscribe("smooth   = ewma(a,   0.9)  # same plan")
        loop.run_for(20)
        assert s1.subscribed and s2.subscribed
        shared = server.queries.shared_queries()
        assert len(shared) == 1
        assert shared[0].refcount == 2
        assert server.queries.stats()["queries_compiled"] == 2

        t = np.arange(40, dtype=np.float64)
        c1.send_samples("a", np.sqrt(t + 1.0), t)
        loop.run_for(100)
        lt, lv = s1.columns("smooth")
        rt, rv = s2.columns("smooth")
        assert lt.tobytes() == rt.tobytes() and lv.tobytes() == rv.tobytes()
        assert lt.shape[0] == 40

    def test_different_param_values_are_separate_evaluations(self):
        loop, manager, server, connect = make_rig()
        client = ScopeClient(connect(), loop)
        client.subscribe("s = ewma(a, $al)", params={"al": 0.9})
        client.subscribe("s = ewma(a, $al)", params={"al": 0.5})
        loop.run_for(20)
        assert len(server.queries.shared_queries()) == 2

    def test_last_unsubscribe_detaches_without_replay(self):
        loop, manager, server, connect = make_rig()
        c1 = ScopeClient(connect(), loop)
        c2 = ScopeClient(connect(), loop)
        s1 = c1.subscribe("s = ewma(a, 0.9)")
        s2 = c2.subscribe("s = ewma(a, 0.9)")
        loop.run_for(20)
        t = np.arange(10, dtype=np.float64)
        c1.send_samples("a", t * 2.0, t)
        loop.run_for(50)
        assert s1.received == 10 and s2.received == 10

        s1.unsubscribe()
        loop.run_for(20)
        assert server.queries.shared_queries()[0].refcount == 1
        s2.unsubscribe()
        loop.run_for(20)
        assert server.queries.stats()["active_queries"] == 0

        # A fresh subscriber sees only *new* input — no replay of the
        # first 10 samples through a re-attached evaluation.
        s3 = c1.subscribe("s = ewma(a, 0.9)")
        loop.run_for(20)
        c1.send_samples("a", [1.0], [100.0])
        loop.run_for(50)
        t3, _ = s3.columns("s")
        assert t3.tolist() == [100.0]

    def test_disconnect_drops_subscriptions(self):
        loop, manager, server, connect = make_rig()
        c1 = ScopeClient(connect(), loop)
        c1.subscribe("s = ewma(a, 0.9)")
        loop.run_for(20)
        assert server.queries.stats()["subscribers"] == 1
        server.disconnect(server.clients[0])
        assert server.queries.stats()["subscribers"] == 0
        assert server.queries.stats()["active_queries"] == 0


class TestFailures:
    def test_compile_error_replies_in_band_and_keeps_session(self):
        loop, manager, server, connect = make_rig()
        near = connect()
        near.send(
            encode_hello()
            + encode_query({"op": "query", "id": "q0", "text": "x = nosuchfn(a)"})
        )
        loop.run_for(20)
        assert len(server.clients) == 1  # bad query != bad session
        assert server.queries.stats()["compile_errors"] == 1
        from repro.net.protocol import FrameDecoder

        replies = []
        decoder = FrameDecoder()
        while near.readable():
            replies.extend(decoder.feed(near.recv()))
        errors = [f for f in replies if f.control and f.control.get("op") == "error"]
        assert errors and errors[0].control["id"] == "q0"

    def test_malformed_query_payload_disconnects(self):
        loop, manager, server, connect = make_rig()
        near = connect()
        near.send(encode_hello() + encode_query({"op": "bogus-op", "id": "q0"}))
        loop.run_for(20)
        assert len(server.clients) == 0
        assert server.disconnect_reasons.get("protocol") == 1

    def test_quarantine_notifies_subscribers_and_clears(self):
        loop, manager, server, connect = make_rig()
        client = ScopeClient(connect(), loop)
        sub = client.subscribe("d = ewma(a / b, 0.9)")
        loop.run_for(20)
        assert sub.subscribed
        client.send_samples("a", [1.0, 1.0], [0.0, 1.0])
        # b = 0 makes a/b infinite; ewma rejects it server-side — the
        # shared evaluation quarantines and every subscriber hears why.
        client.send_samples("b", [1.0, 0.0], [0.0, 1.0])
        loop.run_for(50)
        assert sub.error is not None
        assert not sub.active
        stats = server.queries.stats()
        assert stats["quarantined"] == 1
        assert stats["active_queries"] == 0
        assert len(server.clients) == 1  # the session itself survives


class ServerEnd:
    """The server's end of a subscriber session, keeping every byte its
    link took.  Its send can fail the way a socket's can: at most
    ``take`` bytes per call, a ``BlockingIOError`` on the first ``full``
    calls, or ``error`` raised on every call."""

    def __init__(self, inner, take=None, full=0, error=None) -> None:
        self._inner = inner
        self.take = take
        self.full = full
        self.error = error
        self.sends = 0
        self.stream = bytearray()

    def send(self, data) -> int:
        self.sends += 1
        if self.error is not None:
            raise self.error
        if self.full:
            self.full -= 1
            raise BlockingIOError
        data = data if self.take is None else data[: self.take]
        self.stream += data
        return self._inner.send(data)

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TestFanOutBacklog:
    """A session whose link short-writes or fills queues its frames and
    writes them through its writable watch, byte for byte."""

    @staticmethod
    def streams(**faults):
        """The server ends of two sessions subscribing the same view: a
        plain one, and one whose send fails as ``faults`` say."""
        rng = np.random.default_rng(11)
        loop, manager, server, connect = make_rig()
        ends = []
        for end_faults in ({}, faults):
            near, far = memory_pair(loop.clock)
            ends.append(ServerEnd(far, **end_faults))
            server.add_client(ends[-1])
            ScopeClient(near, loop).subscribe(PROGRAM)
        loop.run_for(20)
        producer = ScopeClient(connect(), loop)
        streams = make_streams(rng, n_per_signal=200)
        feed_jittered(rng, streams, lambda name, t, v: producer.send_samples(name, v, t))
        loop.run_for(200)
        server.queries.shared_queries()[0].live.finish()
        loop.run_for(100)
        return ends

    def test_short_writes_deliver_every_frame(self):
        plain, short = self.streams(take=7)
        assert len(plain.stream) > 10_000
        assert short.stream == plain.stream
        assert short.sends >= len(plain.stream) / 7  # 7 bytes per send, no more

    def test_a_full_link_is_not_a_dead_one(self):
        plain, full = self.streams(full=1)
        assert full.full == 0  # the first send raised BlockingIOError
        assert full.stream == plain.stream

    def test_failed_send_marks_the_session_down_once(self):
        loop, manager, server, connect = make_rig()
        near, far = memory_pair(loop.clock)
        end = ServerEnd(far, error=ConnectionResetError("reset by peer"))
        server.add_client(end)
        viewer = ScopeClient(near, loop)
        viewer.subscribe("y = a * 2")
        loop.run_for(20)
        # The "compiled" reply failed: the session is down, with no watch.
        (session,) = server.queries._sessions.values()
        tx = session.tx
        assert tx.down and not tx._out.frames and tx._out._watch_id is None
        assert end.sends == 1
        assert server.clients[0].connected  # the read path owns the disconnect
        producer = ScopeClient(connect(), loop)
        producer.send_samples("a", [1.0, 2.0], [0.0, 1.0])
        loop.run_for(20)
        assert server.queries.stats()["samples_fanned"] > 0
        assert end.sends == 1  # no send once down
        viewer.close()
        loop.run_for(20)
        assert server.disconnect_reasons == {"eof": 1}
        assert server.queries.stats()["subscribers"] == 0


# ----------------------------------------------------------------------
# 3. Reconnect: subscriptions survive a killed session, no duplicates
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", range(4))
def test_subscription_survives_session_kill(seed):
    loop, manager, server, connect_clean = make_rig()
    plans = iter(
        [FaultPlan(seed=seed).kill(at=400.0 + 40.0 * seed)]
    )

    def connect():
        plan = next(plans, None)
        if plan is None:
            return connect_clean()
        near, far, _, _ = faulty_pair(loop.clock, client_plan=plan)
        server.add_client(far)
        return near

    client = ScopeClient(
        connect(),
        loop,
        connect=connect,
        backoff_base_ms=20.0,
        backoff_seed=seed,
    )
    sub = client.subscribe("smooth = ewma(a, 0.8); hot = a > 0.5")

    i = [0]

    def feed(_lost):
        now = float(loop.clock.now())
        client.send_samples("a", [float(np.sin(i[0] / 9.0))], [now])
        i[0] += 1
        return True

    loop.timeout_add(10.0, feed)
    loop.run_until(2000.0)

    assert client.reconnects >= 1
    assert sub.subscribed and sub.error is None
    # The fresh session re-issued QUERY+SUBSCRIBE: two compiles total.
    assert server.queries.stats()["queries_compiled"] >= 2
    # No duplicated derived samples: strictly increasing times per
    # output, and the stream kept flowing after the kill.
    for name in sub.output_names:
        times, _ = sub.columns(name)
        assert times.shape[0] > 100
        assert bool((np.diff(times) > 0).all()), f"{name}: duplicated rows"


# ----------------------------------------------------------------------
# 4. Process plane: query attach/detach over the worker control channel
# ----------------------------------------------------------------------
class TestProcessPlane:
    def test_worker_query_attach_detach_and_quarantine(self):
        from repro.net.shard import ProcessShardedScopeManager

        with ProcessShardedScopeManager(shards=1, scope_factory=None) as pm:
            qid = pm.attach_query("out = ewma(sig, $al)", params={"al": 0.5})
            remote = pm.handle_of(0).stats()
            assert qid in remote["queries"]

            # A failing evaluation quarantines in the child and the
            # counter rides the stats reply into the router ledger.
            pm.attach_query("bad = ewma(x / y, 0.5)")
            pm.push_samples("x", [0.0, 1.0], [1.0, 1.0])
            pm.push_samples("y", [0.0, 1.0], [1.0, 0.0])
            pm.drain()
            assert pm.totals()["query_quarantines"] == 1

            pm.detach_query(qid)
            pm.detach_query(qid)  # idempotent
            remote = pm.handle_of(0).stats()
            assert qid not in remote["queries"]

    def test_cross_shard_sources_rejected(self):
        from repro.net.shard import ProcessShardedScopeManager

        with ProcessShardedScopeManager(shards=2, scope_factory=None) as pm:
            names = [f"sig{i}" for i in range(32)]
            by_home = {}
            for name in names:
                by_home.setdefault(pm.shard_of(name), name)
            assert len(by_home) == 2  # 32 names always straddle 2 shards
            left, right = sorted(by_home.values())
            with pytest.raises(ValueError, match="span shards"):
                pm.attach_query(f"x = {left} + {right}")

    def test_compile_error_raises_router_side(self):
        from repro.net.shard import ProcessShardedScopeManager
        from repro.query import QueryCompileError

        with ProcessShardedScopeManager(shards=1, scope_factory=None) as pm:
            with pytest.raises(QueryCompileError):
                pm.attach_query("x = nosuchfn(a)")
