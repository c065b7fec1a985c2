"""The systems under test, the tick loop and the correctness checks.

Load model (every tick workload): one process, at most two client
sessions, one shared :class:`~repro.eventloop.loop.MainLoop` on its
default virtual clock.  Tick ``k``'s frames go out as one burst at
virtual instant :func:`schedule.TickSchedule.now`; the benchmark then pumps
``MainLoop.iteration(may_block=False)`` until the server has ingested
the whole burst and nothing is left ready, so virtual time never moves
mid-tick and every accept/late-drop decision, derived column and capture
byte is a function of the seed alone.  Wall time is measured around the
virtual clock with ``time.perf_counter``.

Every tick system is built inside an :class:`~contextlib.ExitStack`;
whatever was opened is closed by its ``close``, also when a build fails
half-way or a signal interrupts the run.
"""

from __future__ import annotations

import shutil
import time
from contextlib import ExitStack
from functools import partial
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

import repro.query as rq
from repro.capture.reader import CaptureReader
from repro.capture.writer import CaptureWriter
from repro.core.signal import buffer_signal
from repro.eventloop.loop import MainLoop
from repro.net import ScopeClient, ScopeServer, memory_pair, socket_pair
from repro.net.shard import ProcessShardedScopeManager, ShardedScopeManager
from repro.obs.metrics import MetricsPublisher, MetricsRegistry
from repro.query import LiveQuery, compile_query

from schedule import ColumnDigest, TickSchedule, dashboard_schedule, digest_columns

SHARDS = 4
SCOPE_PERIOD_MS = 50.0
DISPLAY_DELAY_MS = 200.0
PUBLISH_PERIOD_MS = 100.0

#: The dashboard viewer's eight distinct derived views (and the
#: replay-analysis query set).
QUERIES = (
    "d = s01 - 0.5*s02",
    "e = ewma(s03, 0.9)",
    "r = rate(s04)",
    "w = sum_over(s05, 50)",
    "c = clip(abs(s06) * 2 - 1, -0.5, 0.5)",
    "m = max_over(s07, 25)",
    "x = edges(s08, 0, either)",
    "g = resample(s09, 1)",
)
#: Two of those views again, spelled differently, from the producer's own
#: session: the server must share their evaluations with the viewer's.
PRODUCER_QUERIES = (
    ("e = ewma(s03, $alpha)", {"alpha": 0.9}),
    ("r  =  rate( s04 )  # the producer's spelling", None),
)
#: Ticks of the replay store: 128 x 16 frames x 2048 = 4.2 M samples.
REPLAY_TICKS = 128
#: Duration every timing is scaled to for one run of :func:`calibrate`.
CAL_REF_S = 200e-6
_EMPTY = np.empty(0, dtype=np.float64)
_CAL_COLUMN = np.arange(2048, dtype=np.float64)


class Stalled(RuntimeError):
    """The system stopped making progress inside one tick."""


def vm_hwm_mib(pid: str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def private_mib(pid: int) -> float:
    """Resident memory a process does not share (``Private_*`` in smaps), in MiB."""
    total = 0
    with open(f"/proc/{pid}/smaps_rollup") as fh:
        for line in fh:
            if line.startswith(("Private_Clean:", "Private_Dirty:")):
                total += int(line.split()[1])
    return total / 1024.0


def same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def _reference_snippet() -> int:
    counts: Dict[int, int] = {}
    acc = 0
    for i in range(600):
        key = i & 31
        counts[key] = counts.get(key, 0) + i
        acc += key * i
    for _ in range(8):
        acc += int(np.concatenate((_CAL_COLUMN * 1.5 + 0.25, _CAL_COLUMN))[7])
    return acc


def calibrate() -> float:
    """Wall seconds of one run of a fixed reference snippet.

    Interpreter work (dict updates, integer arithmetic) and small numpy
    operations, like the program's own mix, and none of the program's
    code, so a change to the program cannot move it.  Run between timed
    units, it tells how fast the machine was at that moment.  The
    snippet runs once untimed first: on the caches a unit leaves behind
    it takes 10-35% longer, and that share would follow the program's
    memory footprint instead of the machine.
    """
    _reference_snippet()
    start = time.perf_counter()
    _reference_snippet()
    return time.perf_counter() - start


class Measure:
    """A timed phase, recorded per unit (a tick, or one batch query).

    Every timing is reported at reference speed: multiplied by
    ``CAL_REF_S / c``, where ``c`` is the mean of the :func:`calibrate`
    runs around the unit (two before it, two after).  The two-core
    machine the benchmark was set on runs a fixed loop at two speeds
    about 1.5x apart as co-tenants come and go, flipping within
    milliseconds and staying mostly slow or mostly fast for minutes;
    the program slows down with the snippet, so scaled timings hold
    still where raw ones follow the machine.  Raw figures go to the run
    record (:meth:`details`).
    """

    def __init__(self) -> None:
        self.walls: List[float] = []
        self.client: List[float] = []
        self.cals: List[float] = []  # cals[k] runs right after unit k
        self.latencies: List[np.ndarray] = []  # seconds, one array per unit
        self.samples = 0
        self.client_samples = 0

    def add(
        self,
        wall: float,
        samples: int,
        client_s: float,
        client_samples: int,
        latencies: List[float],
    ) -> None:
        """Record one unit, then calibrate (outside every timed unit)."""
        self.walls.append(wall)
        self.client.append(client_s)
        self.latencies.append(np.array(latencies, dtype=np.float64))
        self.samples += samples
        self.client_samples += client_samples
        self.cals.append(calibrate())

    @property
    def wall(self) -> float:
        """Raw wall seconds of every unit."""
        return float(sum(self.walls))

    def scales(self) -> np.ndarray:
        """Per unit, the factor taking its timings to reference speed."""
        padded = np.pad(np.array(self.cals), (2, 1), mode="edge")
        around = np.convolve(padded, np.full(4, 0.25), mode="valid")
        return CAL_REF_S / around

    @property
    def rate(self) -> float:
        """Samples per second at reference speed."""
        return self.summary()["samples_per_s"]

    def _summary(self, scales: np.ndarray) -> Dict[str, float]:
        lat_ms = np.concatenate([lat * s for lat, s in zip(self.latencies, scales)]) * 1e3
        return {
            "samples_per_s": self.samples / float(np.dot(self.walls, scales)),
            "latency_ms_p50": float(np.median(lat_ms)),
            "latency_ms_p99": float(np.percentile(lat_ms, 99)),
            "client_ns_per_sample": float(np.dot(self.client, scales))
            / self.client_samples
            * 1e9,
        }

    def summary(self) -> Dict[str, float]:
        return self._summary(self.scales())

    def details(self) -> Dict[str, object]:
        cal_us = np.array(self.cals) * 1e6
        return {
            "units": len(self.walls),
            "latency_samples": sum(lat.shape[0] for lat in self.latencies),
            "timed_wall_s": self.wall,
            "timed_samples": self.samples,
            "calibration_us": {
                "ref": CAL_REF_S * 1e6,
                "min": float(cal_us.min()),
                "median": float(np.median(cal_us)),
                "max": float(cal_us.max()),
            },
            "raw": self._summary(np.ones(len(self.walls))),
        }


class OfferProbe:
    """Benchmark-owned tap noting the instant each source frame is offered.

    Installed as the first tap on every shard manager (in front of the
    process router, which has no taps), so it sees a frame the moment its
    home shard is handed it.  Frames are matched to their send by
    ``(name, first timestamp)``; derived and ``__obs.`` pushes never
    match and pass through untouched.
    """

    benchmark_probe = True  # excluded from core.manager.tap_calls

    def __init__(self) -> None:
        self.pending: Dict[Tuple[str, float], Tuple[float, int]] = {}
        self.latencies: List[float] = []
        #: ``(send instant, frame id)`` of the frame being offered.
        self.current: Optional[Tuple[float, int]] = None
        self.tracer = None

    def __call__(self, name, times, values, now_ms) -> None:
        if not len(times):
            return
        hit = self.pending.pop((name, float(times[0])), None)
        if hit is not None:
            self.latencies.append(time.perf_counter() - hit[0])
            self.current = hit
            if self.tracer is not None:
                self.tracer.frame = hit[1]

    def take(self) -> List[float]:
        latencies, self.latencies = self.latencies, []
        return latencies


class ProbedRouter:
    """The process router seen by the server through an :class:`OfferProbe`."""

    def __init__(self, router: ProcessShardedScopeManager, probe: OfferProbe) -> None:
        self.router = router
        self.probe = probe

    def push_samples(self, name, times, values) -> int:
        self.probe(name, times, values, 0.0)
        return self.router.push_samples(name, times, values)


# ----------------------------------------------------------------------
# Tick-driven systems (ingest, dashboard, process-plane)
# ----------------------------------------------------------------------
class TickSystem:
    """A server plus client sessions driven by a :class:`TickSchedule`."""

    def __init__(self, root: Path, schedule: TickSchedule) -> None:
        self.root = root
        self.schedule = schedule
        self.probe = OfferProbe()
        self.tracer = None
        self.ticks = 0
        self.sent_samples = 0
        self.sent_frames = 0
        #: Every session's client; ``senders[k]`` sends schedule session k.
        self.clients: List[ScopeClient] = []
        self.senders: List[ScopeClient] = []
        self.stack = ExitStack()
        try:
            root.mkdir(parents=True)
            self.stack.callback(shutil.rmtree, root, ignore_errors=True)
            self._build()
        except BaseException:
            self.stack.close()
            raise

    def _build(self) -> None:
        raise NotImplementedError

    def close(self) -> None:
        self.stack.close()

    def _sessions(self, pair: Callable, count: int) -> List[ScopeClient]:
        clients = []
        for _ in range(count):
            near, far = pair()
            self.stack.callback(near.close)
            self.stack.callback(far.close)
            state = self.server.add_client(far)
            self.stack.callback(self.server.disconnect, state)
            client = ScopeClient(near, self.loop)
            self.stack.callback(client.close)
            clients.append(client)
        self.clients += clients
        return clients

    def _ingested(self) -> int:
        return self.server.totals()["received"]

    def pump(self, done: Callable[[], bool]) -> None:
        """Dispatch ready work until ``done()`` holds and nothing is ready."""
        iteration = self.loop.iteration
        idle = 0
        while True:
            if iteration(may_block=False):
                idle = 0
            elif done():
                return
            else:
                idle += 1
                if idle > 1000:
                    raise Stalled(
                        f"tick {self.ticks}: nothing ready, server has ingested "
                        f"{self._ingested()} of {self.sent_samples} samples"
                    )

    def drive(
        self,
        measure: Measure,
        until: Optional[float] = None,
        count: Optional[int] = None,
    ) -> None:
        """Run ticks until the wall deadline ``until`` or for ``count`` ticks."""
        perf = time.perf_counter
        sched = self.schedule
        senders = self.senders
        probe = self.probe
        tracer = probe.tracer = self.tracer
        clock = self.loop.clock
        stop_tick = None if count is None else self.ticks + count
        tick_samples = sched.samples_per_tick

        def ingested_all() -> bool:
            return self._ingested() >= self.sent_samples

        while (stop_tick is None or self.ticks < stop_tick) and (
            until is None or perf() < until
        ):
            tick = self.ticks
            start = perf()
            if tracer is not None:
                tracer.frame = -1
            # The burst goes out before anything due at this instant is
            # dispatched: a poll firing now runs ahead of the burst's
            # ingest (lower source id), as it would on a live server.
            clock.wait_until(sched.now(tick))
            before = self._ingested()
            client_s = 0.0
            for frame in sched.frames(tick):
                if tracer is not None:
                    tracer.frame = frame.fid
                t0 = perf()
                senders[frame.session].send_samples(frame.name, frame.values, frame.times)
                client_s += perf() - t0
                probe.pending[(frame.name, float(frame.times[0]))] = (t0, frame.fid)
            self.sent_samples += tick_samples
            self.sent_frames += sched.frames_per_tick
            if tracer is not None:
                tracer.frame = -1
            self.pump(ingested_all)
            self._hand_over()
            wall = perf() - start
            self.ticks = tick + 1
            measure.add(
                wall,
                self._ingested() - before,
                client_s,
                tick_samples,
                self._after_tick(),
            )

    def _hand_over(self) -> None:
        """Complete the tick past the server, where a plane needs it."""

    def _after_tick(self) -> List[float]:
        """Untimed per-tick bookkeeping; returns the tick's latencies."""
        return self.probe.take()

    def peak_rss_mib(self) -> float:
        return vm_hwm_mib()

    def finish(self) -> None:
        """End-of-run flush before the checks (untimed)."""

    def ledger(self) -> Dict[str, float]:
        """System-side counts for the traced run's per-layer report."""
        return {
            "net.client.dropped_frames": sum(
                c.totals()["dropped_frames"] for c in self.clients
            ),
            "net.server.frames": self.server.totals()["frames"],
            "net.server.disconnects": sum(self.server.disconnect_reasons.values()),
        }

    def _client_failures(self, problems: List[str]) -> int:
        dropped = sum(c.totals()["dropped_frames"] for c in self.clients)
        disconnects = sum(self.server.disconnect_reasons.values())
        if dropped:
            problems.append(f"{dropped} frames dropped by client backpressure")
        if disconnects:
            problems.append(f"sessions disconnected: {self.server.disconnect_reasons}")
        return dropped + disconnects

    def _late_ledger(self, problems: List[str], who: str, offered, accepted, late) -> int:
        """Compare one ``offered/accepted/dropped_late`` ledger with the schedule."""
        planned = self.schedule.late_samples(self.ticks)
        if offered != self.sent_samples:
            problems.append(f"{who}: offered {offered} != sent {self.sent_samples}")
        if late != planned or accepted != self.sent_samples - planned:
            problems.append(
                f"{who}: accepted {accepted} / dropped_late {late}, "
                f"schedule plans {self.sent_samples - planned} / {planned}"
            )
        return abs(late - planned)


class _ShardedSystem(TickSystem):
    """In-process plane: a 4-shard ``ShardedScopeManager`` on the shared loop."""

    def _sharded(self, carried: List[str]) -> None:
        self.loop = MainLoop()
        sharded = self.sharded = ShardedScopeManager(SHARDS, loop=self.loop)
        scopes = [
            sharded.scope_new(
                f"shard{i}", shard=i, period_ms=SCOPE_PERIOD_MS, delay_ms=DISPLAY_DELAY_MS
            )
            for i in range(SHARDS)
        ]
        for name in carried:
            scopes[sharded.shard_of(name)].signal_new(buffer_signal(name))
        sharded.add_tap(self.probe)
        self.capture_dir = self.root / "capture"
        self.writer = self.stack.enter_context(CaptureWriter(self.capture_dir))
        sharded.add_tap(self.writer)
        sharded.start_all()
        self.stack.callback(sharded.stop_all)
        self.server = ScopeServer(self.loop, sharded)

    def ledger(self) -> Dict[str, float]:
        out = super().ledger()
        offered = [s.offered for s in self.sharded.shard_stats()]
        out["shard.offered"] = offered
        out["capture.writer.bytes"] = self.writer.bytes_written
        return out


class Ingest(_ShardedSystem):
    """2 binary-v2 sessions over ``socket_pair`` into 4 in-process shards."""

    def _build(self) -> None:
        self._sharded(self.schedule.names)
        self.senders = self._sessions(socket_pair, 2)

    def check(self) -> Tuple[List[str], int, int]:
        problems: List[str] = []
        failed = self._client_failures(problems)
        srv = self.server.totals()
        failed += self._late_ledger(
            problems, "server", srv["received"], srv["accepted"], srv["dropped_late"]
        )
        # The shard ledgers see the samples the server counted: checked,
        # not counted twice.
        shard = self.sharded.totals()
        self._late_ledger(
            problems, "shards", shard["offered"], shard["accepted"], shard["dropped_late"]
        )
        sched = self.schedule
        expected = [0] * SHARDS
        for name, samples in sched.signal_samples(self.ticks).items():
            expected[self.sharded.shard_of(name)] += samples
        offered = [s.offered for s in self.sharded.shard_stats()]
        if offered != expected:
            problems.append(f"per-shard offered {offered} != schedule {expected}")
        self.writer.close()
        want = sched.signal_digests(self.ticks)
        with CaptureReader(self.capture_dir) as reader:
            got = {
                name: digest_columns(t, v)
                for name, (t, v) in reader.columns_for(reader.names).items()
            }
        bad = sorted(n for n in set(want) | set(got) if want.get(n) != got.get(n))
        if bad:
            problems.append(f"capture columns differ from the schedule for {bad[:5]}")
        failed += len(bad)
        return problems, self.sent_frames + len(self.clients), failed


class ProcessPlane(TickSystem):
    """The ingest job, routed into one forked worker over the DELIVER path."""

    def _build(self) -> None:
        self.loop = MainLoop()
        self.router = self.stack.enter_context(
            ProcessShardedScopeManager(
                shards=1,
                scope_factory=partial(_worker_scopes, list(self.schedule.names)),
                loop=self.loop,
            )
        )
        self.server = ScopeServer(self.loop, ProbedRouter(self.router, self.probe))
        self.senders = self._sessions(socket_pair, 2)

    def _hand_over(self) -> None:
        # A tick is ingested once the router has handed all of it to the
        # worker's socket.  Without this the router runs up to its 4 MiB
        # pending limit ahead of the worker, and while that queue never
        # empties its consumed prefix is never released (the router's
        # memory then grows with every byte sent).
        self.router.handle_of(0).flush()

    def peak_rss_mib(self) -> float:
        # The forked worker shares the router's pages until it writes
        # them; count only what it holds privately, at steady state.
        return vm_hwm_mib() + private_mib(self.router.handle_of(0).pid)

    def finish(self) -> None:
        self.router.drain()

    def ledger(self) -> Dict[str, float]:
        out = super().ledger()
        out["net.worker.bytes"] = self.router.handle_of(0).bytes_sent
        return out

    def check(self) -> Tuple[List[str], int, int]:
        problems: List[str] = []
        failed = self._client_failures(problems)
        srv = self.server.totals()
        if srv["received"] != self.sent_samples or srv["accepted"] != self.sent_samples:
            problems.append(
                f"server received {srv['received']} / routed {srv['accepted']}, "
                f"sent {self.sent_samples}"
            )
        worker = self.router.totals()
        failed += self._late_ledger(
            problems, "worker", worker["offered"], worker["accepted"], worker["dropped_late"]
        )
        return problems, self.sent_frames + len(self.clients), failed


def _worker_scopes(names: List[str], manager, shard_id: int) -> None:
    """The worker's shard: one polling scope carrying every signal, as in ``ingest``."""
    scope = manager.scope_new(
        f"shard{shard_id}", period_ms=SCOPE_PERIOD_MS, delay_ms=DISPLAY_DELAY_MS
    )
    for name in names:
        scope.signal_new(buffer_signal(name))
    manager.start_all()


class Dashboard(_ShardedSystem):
    """A producer streaming 16 signals; a viewer subscribed to 8 derived views."""

    def _build(self) -> None:
        outputs = [name for q in QUERIES for name in compile_query(q).output_names]
        self._sharded(self.schedule.names + outputs)
        registry = MetricsRegistry()
        self.server.register_metrics(registry)
        self.sharded.register_metrics(registry)
        self.writer.register_metrics(registry)
        publisher = MetricsPublisher(
            self.loop, self.sharded, registry, period_ms=PUBLISH_PERIOD_MS
        )
        self.stack.callback(publisher.close)
        producer, viewer = self._sessions(partial(memory_pair, self.loop.clock), 2)
        self.senders = [producer]
        self.viewer_subs = [viewer.subscribe(q) for q in QUERIES]
        self.subs = self.viewer_subs + [
            producer.subscribe(q, params) for q, params in PRODUCER_QUERIES
        ]
        self.pump(lambda: all(s.subscribed or s.error for s in self.subs))
        # Latency attribution: the probe names the frame being offered, each
        # shared evaluation's emissions are keyed to it, and the viewer's
        # callback closes the loop.
        self._emitted: Dict[Tuple[str, float], Tuple[float, int]] = {}
        self._delivered: Dict[Tuple[float, int], float] = {}
        for shared in self.server.queries.shared_queries():
            shared.live.on_output(self._on_emit)
        for sub in self.viewer_subs:
            sub.on_batch(self._on_view)
        self._digests = {
            id(sub): {name: ColumnDigest() for name in sub.output_names} for sub in self.subs
        }

    def _on_emit(self, name, times, values) -> None:
        if self.probe.current is not None:
            self._emitted[(name, float(times[-1]))] = self.probe.current

    def _on_view(self, name, times, values) -> None:
        hit = self._emitted.pop((name, float(times[-1])), None)
        if hit is not None:
            self._delivered[hit] = time.perf_counter()

    def _after_tick(self) -> List[float]:
        self.probe.take()
        latencies = [at - sent for (sent, _), at in self._delivered.items()]
        self._delivered.clear()
        self._emitted.clear()
        # Fold what the subscriptions received into running digests and
        # drop the buffers, so memory stays flat however long the run.
        for sub in self.subs:
            digests = self._digests[id(sub)]
            for name in sub.output_names:
                digests[name].update(*sub.columns(name))
            sub.clear()
        return latencies

    def ledger(self) -> Dict[str, float]:
        out = super().ledger()
        out["query.live.quarantined"] = self.server.queries.quarantined
        return out

    def finish(self) -> None:
        self.active_queries = self.server.queries.stats()["active_queries"]
        # End of stream: flush watermarked tails and open windows through
        # the same fan-out path, as batch execution does at its end.
        for shared in self.server.queries.shared_queries():
            shared.live.finish()
        self.pump(lambda: True)
        self._after_tick()

    def check(self) -> Tuple[List[str], int, int]:
        problems: List[str] = []
        failed = self._client_failures(problems)
        srv = self.server.totals()
        if not (
            srv["received"] == srv["accepted"] == self.sent_samples
            and srv["dropped_late"] == 0
        ):
            problems.append(f"server ledger {srv} != {self.sent_samples} sent, none late")
            failed += abs(self.sent_samples - srv["accepted"])
        if self.active_queries != len(QUERIES):
            problems.append(
                f"active_queries {self.active_queries} != {len(QUERIES)} distinct plans"
            )
        self.writer.close()
        with CaptureReader(self.capture_dir) as reader:
            for sub in self.subs:
                if sub.error is not None or not sub.subscribed:
                    problems.append(f"subscription {sub.text!r} failed: {sub.error}")
                    failed += 1
                    continue
                batch = rq.execute(reader, sub.plan)
                for name, (times, values) in batch.items():
                    live = self._digests[id(sub)][name]
                    if live.hexdigest() != digest_columns(times, values):
                        problems.append(
                            f"{sub.text!r} output {name}: {live.count} live samples are "
                            f"not the {times.shape[0]} batch samples"
                        )
                        failed += max(1, times.shape[0] - live.count)
        return problems, self.sent_frames + len(self.clients) + len(self.subs), failed


# ----------------------------------------------------------------------
# Replay analysis
# ----------------------------------------------------------------------
class ReplayInputs:
    """A multi-segment capture store and its reference query results.

    The store holds :data:`REPLAY_TICKS` ticks of the dashboard schedule;
    the references come from an incremental :class:`LiveQuery` pass over
    the store's blocks in stream order, so every batch pass is checked
    against the other execution mode.
    """

    def __init__(self, root: Path, seed: int) -> None:
        sched = dashboard_schedule(seed)
        self.store = root / "replay-store"
        with CaptureWriter(self.store) as writer:
            for tick in range(REPLAY_TICKS):
                now = sched.now(tick)
                for frame in sched.frames(tick):
                    writer.on_push(frame.name, frame.times, frame.values, now)
        lives = [LiveQuery(q) for q in QUERIES]
        parts = [{name: ([], []) for name in live.output_names} for live in lives]
        for live, chunks in zip(lives, parts):
            live.on_output(
                lambda name, t, v, chunks=chunks: (
                    chunks[name][0].append(t),
                    chunks[name][1].append(v),
                )
            )
        with CaptureReader(self.store) as reader:
            for _, block in reader.iter_blocks():
                for live in lives:
                    live(block.name, block.times, block.values, block.push_now)
            counts = reader.signal_sample_counts()
        self.reference = []
        for live, chunks in zip(lives, parts):
            live.finish()
            if live.error is not None:
                raise RuntimeError(f"reference pass failed: {live.error!r}")
            self.reference.append(
                {
                    name: (np.concatenate(ts or [_EMPTY]), np.concatenate(vs or [_EMPTY]))
                    for name, (ts, vs) in chunks.items()
                }
            )
        #: Samples each query reads in one pass (its sources' counts).
        self.samples_per_query = [
            sum(counts[name] for name in live.source_names) for live in lives
        ]


class Replay:
    """The eight dashboard queries, batch-executed over a reopened store."""

    def __init__(self, root: Path, inputs: ReplayInputs) -> None:
        self.inputs = inputs
        self.tracer = None
        self.plans = [compile_query(q) for q in QUERIES]
        self.passes = 0
        self.mismatches: List[str] = []

    def close(self) -> None:
        pass

    def drive(
        self,
        measure: Measure,
        until: Optional[float] = None,
        count: Optional[int] = None,
    ) -> None:
        """Run passes until the wall deadline ``until`` or for ``count`` passes.

        Each ``execute`` call is one unit of ``measure``; the pass's
        reader open is charged to its first.
        """
        perf = time.perf_counter
        inputs = self.inputs
        stop = None if count is None else self.passes + count
        while (stop is None or self.passes < stop) and (until is None or perf() < until):
            results = []
            start = perf()
            reader = CaptureReader(inputs.store)
            try:
                for plan, samples in zip(self.plans, inputs.samples_per_query):
                    q0 = perf()
                    results.append(rq.execute(reader, plan))
                    q1 = perf()
                    measure.add(q1 - start, samples, q1 - q0, samples, [q1 - q0])
                    start = perf()
            finally:
                reader.close()
            self.passes += 1
            self._verify(results)

    def _verify(self, results) -> None:
        for query, got, want in zip(QUERIES, results, self.inputs.reference):
            for name, (times, values) in want.items():
                lt, lv = got.get(name, (_EMPTY, _EMPTY))
                if not (same_bytes(lt, times) and same_bytes(lv, values)):
                    self.mismatches.append(f"pass {self.passes}: {query!r} output {name}")

    def peak_rss_mib(self) -> float:
        return vm_hwm_mib()

    def finish(self) -> None:
        pass

    def ledger(self) -> Dict[str, float]:
        return {}

    def check(self) -> Tuple[List[str], int, int]:
        problems = list(self.mismatches[:5])
        return problems, self.passes * len(self.plans), len(self.mismatches)
