"""Per-layer attribution for the traced run.

Class-level wrappers around each layer's public entry points (installed
from this file only, and only for the traced run) time every call on
``perf_counter``.  Each wrapped call is a span: name, start, end, parent
span and the source frame being processed when it closed.  A layer's
``busy_ms`` is self time: the span's duration minus the part its nested
spans cover, so a derive nested in a shard push counts once, under
``query.live``.

Event-loop callbacks (``Source.dispatch``) are spans of no layer: their
time is taken out of ``eventloop.loop`` (which is left with the loop's
own readiness scanning and bookkeeping) and, where no layer's entry
point covers it, lands in the ``unattributed.ms`` residual.

Spans are kept in memory, up to :data:`SPAN_CAP` of them, and written
out at the end as Chrome trace JSON; the aggregates cover every span.
The program's own virtual-time tracer (``repro.obs.trace``) is never
installed.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: Individual spans retained for the Chrome trace; aggregates are exact
#: regardless.
SPAN_CAP = 100_000

#: Layers reported by the traced run, in report order (``layer = module``).
LAYERS = (
    "net.client",
    "net.transport",
    "net.protocol",
    "net.server",
    "net.shard",
    "core.manager",
    "core.buffer",
    "core.scope",
    "capture.writer",
    "query.live",
    "net.queryservice",
    "obs",
    "capture.reader",
    "query.batch",
    "net.worker",
    "eventloop.loop",
)
#: Pseudo-layers: loop callbacks (no layer) and the router's drain wait on
#: worker processes (reported as ``net.worker.wait_ms``, not busy time).
_CALLBACK = "callback"
_WORKER_WAIT = "net.worker.wait"

#: Every per-layer metric, in report order (name, unit).
METRICS: Tuple[Tuple[str, str], ...] = (
    ("net.client.busy_ms", "ms"),
    ("net.client.frames", "count"),
    ("net.client.dropped_frames", "count"),
    ("net.transport.busy_ms", "ms"),
    ("net.transport.calls", "count"),
    ("net.transport.bytes_per_sample", "B/sample"),
    ("net.transport.partial_sends", "count"),
    ("net.protocol.busy_ms", "ms"),
    ("net.protocol.frames", "count"),
    ("net.protocol.crc_failures", "count"),
    ("net.server.busy_ms", "ms"),
    ("net.server.frames", "count"),
    ("net.server.disconnects", "count"),
    ("net.shard.busy_ms", "ms"),
    ("net.shard.pushes", "count"),
    ("net.shard.skew", "ratio"),
    ("core.manager.busy_ms", "ms"),
    ("core.manager.tap_calls", "count"),
    ("core.buffer.busy_ms", "ms"),
    ("core.buffer.accepted", "count"),
    ("core.buffer.dropped_late", "count"),
    ("core.scope.busy_ms", "ms"),
    ("core.scope.polls", "count"),
    ("core.scope.poll_ms_max", "ms"),
    ("capture.writer.busy_ms", "ms"),
    ("capture.writer.flush_ms_max", "ms"),
    ("capture.writer.bytes", "bytes"),
    ("query.live.busy_ms", "ms"),
    ("query.live.tap_calls", "count"),
    ("query.live.useful_ratio", "ratio"),
    ("query.live.quarantined", "count"),
    ("net.queryservice.busy_ms", "ms"),
    ("net.queryservice.samples_fanned", "count"),
    ("net.queryservice.encode_reuse_ratio", "ratio"),
    ("obs.busy_ms", "ms"),
    ("obs.samples_published", "count"),
    ("capture.reader.busy_ms", "ms"),
    ("capture.reader.bytes", "bytes"),
    ("query.batch.busy_ms", "ms"),
    ("query.batch.derived_samples", "count"),
    ("net.worker.busy_ms", "ms"),
    ("net.worker.wait_ms", "ms"),
    ("net.worker.bytes", "bytes"),
    ("eventloop.loop.busy_ms", "ms"),
    ("eventloop.loop.iterations", "count"),
    ("eventloop.loop.idle_ratio", "ratio"),
    ("unattributed.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)

Hook = Callable[["Tracer", tuple, object, float], None]


def _entry_points():
    """``(layer, owner, attribute, hook)`` for every timed entry point.

    Imported lazily: the wrappers are a traced-run concern only.
    """
    import repro.query as query_pkg
    import repro.query.batch as query_batch
    from repro.capture.reader import CaptureReader
    from repro.capture.writer import CaptureWriter
    from repro.core.manager import ScopeManager
    from repro.core.scope import Scope
    from repro.eventloop.loop import MainLoop
    from repro.eventloop.sources import IdleSource, IOWatch, TimeoutSource
    from repro.net.client import ScopeClient
    from repro.net.protocol import FrameDecoder, WireDecoder
    from repro.net.queryservice import SharedQuery
    from repro.net.server import ScopeServer
    from repro.net.shard import ProcessShardedScopeManager, ShardedScopeManager
    from repro.net.transport import MemoryEndpoint, SocketEndpoint
    from repro.net.worker import WorkerHandle
    from repro.obs.metrics import MetricsPublisher
    from repro.query.live import LiveQuery

    def count(key: str, amount: Callable[[tuple, object], float]) -> Hook:
        def hook(t: "Tracer", args: tuple, result: object, dur: float) -> None:
            t.counts[key] = t.counts.get(key, 0.0) + amount(args, result)

        return hook

    def keep_max(key: str) -> Hook:
        def hook(t: "Tracer", args: tuple, result: object, dur: float) -> None:
            if dur > t.counts.get(key, 0.0):
                t.counts[key] = dur

        return hook

    def on_send(t: "Tracer", args: tuple, result: object, dur: float) -> None:
        t.counts["transport.bytes"] = t.counts.get("transport.bytes", 0.0) + result
        if result < len(args[1]):
            t.counts["net.transport.partial_sends"] = (
                t.counts.get("net.transport.partial_sends", 0.0) + 1
            )

    def on_scope_push(t: "Tracer", args: tuple, result: object, dur: float) -> None:
        t.counts["core.buffer.accepted"] = t.counts.get("core.buffer.accepted", 0.0) + result
        t.counts["core.buffer.dropped_late"] = (
            t.counts.get("core.buffer.dropped_late", 0.0) + len(args[2]) - result
        )

    def on_fan_out(t: "Tracer", args: tuple, result: object, dur: float) -> None:
        shared, name, times = args[0], args[1], args[2]
        targets = shared._targets or []
        sends = len(targets)
        encodes = len({tx.name_ids.get(name) for tx in targets})
        c = t.counts
        c["net.queryservice.samples_fanned"] = (
            c.get("net.queryservice.samples_fanned", 0.0) + times.shape[0] * sends
        )
        c["fanout.sends"] = c.get("fanout.sends", 0.0) + sends
        c["fanout.encodes"] = c.get("fanout.encodes", 0.0) + encodes

    def program_taps(args: tuple, result: object) -> float:
        return sum(1 for tap in args[0]._taps if not getattr(tap, "benchmark_probe", False))

    entries = [
        ("net.client", ScopeClient, "send_samples", None),
        ("net.protocol", WireDecoder, "feed", None),
        ("net.protocol", FrameDecoder, "feed", count("net.protocol.frames", lambda a, r: len(r))),
        ("net.server", ScopeServer, "_on_readable", None),
        ("net.shard", ShardedScopeManager, "push_samples", None),
        ("core.manager", ScopeManager, "push_samples", count("core.manager.tap_calls", program_taps)),
        ("core.buffer", Scope, "push_samples", on_scope_push),
        ("core.scope", Scope, "_on_poll", keep_max("core.scope.poll_max")),
        ("capture.writer", CaptureWriter, "__call__", None),
        ("capture.writer", CaptureWriter, "on_push", None),
        ("capture.writer", CaptureWriter, "flush_segment", keep_max("capture.flush_max")),
        (
            "query.live",
            LiveQuery,
            "__call__",
            count("live.useful", lambda a, r: 1.0 if a[1] in a[0].plan.source_names else 0.0),
        ),
        ("net.queryservice", SharedQuery, "fan_out", on_fan_out),
        ("obs", MetricsPublisher, "publish", count("obs.samples_published", lambda a, r: r)),
        ("capture.reader", CaptureReader, "__init__", None),
        (
            "capture.reader",
            CaptureReader,
            "columns_for",
            count(
                "capture.reader.bytes",
                lambda a, r: sum(t.nbytes + v.nbytes for t, v in r.values()),
            ),
        ),
        (
            "query.batch",
            query_pkg,
            "execute",
            count("query.batch.derived_samples", lambda a, r: sum(t.shape[0] for t, _ in r.values())),
        ),
        ("query.batch", query_batch, "execute", None),
        ("net.worker", ProcessShardedScopeManager, "push_samples", None),
        (_WORKER_WAIT, ProcessShardedScopeManager, "drain", None),
        (_WORKER_WAIT, WorkerHandle, "flush", None),
        ("eventloop.loop", MainLoop, "iteration", count("loop.idle", lambda a, r: 0.0 if r else 1.0)),
        (_CALLBACK, TimeoutSource, "dispatch", None),
        (_CALLBACK, IdleSource, "dispatch", None),
        (_CALLBACK, IOWatch, "dispatch", None),
    ]
    for endpoint in (SocketEndpoint, MemoryEndpoint):
        entries.append(("net.transport", endpoint, "send", on_send))
        for attr in ("recv", "readable", "writable"):
            entries.append(("net.transport", endpoint, attr, None))
    return entries


class Tracer:
    """Installs the wrappers, keeps spans and per-layer aggregates."""

    def __init__(self) -> None:
        self._slots = list(LAYERS) + [_CALLBACK, _WORKER_WAIT]
        self._slot_of = {name: i for i, name in enumerate(self._slots)}
        self._names: List[str] = []  # entry point of each wrapper
        self._entry_layer: List[int] = []
        self._originals: List[Tuple[object, str, object]] = []
        self._stack: List[list] = []
        self.recording = False
        #: Source frame id being processed (set by the offer probe); -1
        #: outside frame processing.
        self.frame = -1
        self._fork_hook = False
        self.reset()

    # -- aggregates ---------------------------------------------------------
    def reset(self) -> None:
        self.busy = [0.0] * len(self._slots)
        self.calls = [0] * len(self._names)
        self.counts: Dict[str, float] = {}
        self._n = 0
        self._span_eid = np.zeros(SPAN_CAP, dtype=np.int32)
        self._span_start = np.zeros(SPAN_CAP)
        self._span_end = np.zeros(SPAN_CAP)
        self._span_parent = np.full(SPAN_CAP, -1, dtype=np.int64)
        self._span_frame = np.full(SPAN_CAP, -1, dtype=np.int64)
        self.epoch = time.perf_counter()

    # -- installation -------------------------------------------------------
    @property
    def span_count(self) -> int:
        """Spans recorded since the last :meth:`reset` (retained or not)."""
        return self._n

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        self._names, self._entry_layer = [], []
        for layer, owner, attr, hook in _entry_points():
            original = owner.__dict__[attr]
            eid = len(self._names)
            self._names.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            self._entry_layer.append(self._slot_of[layer])
            setattr(owner, attr, self._wrap(eid, self._slot_of[layer], original, hook))
            self._originals.append((owner, attr, original))
        self.calls = [0] * len(self._names)
        if not self._fork_hook:
            # A forked worker must run the program unwrapped: its spans
            # could never be reported and would only slow the child.
            os.register_at_fork(after_in_child=self.uninstall)
            self._fork_hook = True

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)
        self.recording = False

    def _wrap(self, eid: int, slot: int, fn, hook: Optional[Hook]):
        perf = time.perf_counter
        stack = self._stack
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._n
            tracer._n = idx + 1
            entry = [perf(), 0.0, idx]  # start, time in nested spans, span id
            parent = stack[-1][2] if stack else -1
            stack.append(entry)
            result = failed = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                failed = exc
                if (
                    isinstance(exc, Exception)
                    and "checksum" in str(exc)
                    and not getattr(exc, "_counted", False)
                ):
                    exc._counted = True  # nested decoder wrappers see it too
                    tracer.counts["net.protocol.crc_failures"] = (
                        tracer.counts.get("net.protocol.crc_failures", 0.0) + 1
                    )
                raise
            finally:
                end = perf()
                stack.pop()
                dur = end - entry[0]
                tracer.busy[slot] += dur - entry[1]
                if stack:
                    stack[-1][1] += dur
                tracer.calls[eid] += 1
                if idx < SPAN_CAP:
                    tracer._span_eid[idx] = eid
                    tracer._span_start[idx] = entry[0]
                    tracer._span_end[idx] = end
                    tracer._span_parent[idx] = parent
                    tracer._span_frame[idx] = tracer.frame
                if hook is not None and failed is None:
                    hook(tracer, args, result, dur)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- report -------------------------------------------------------------
    def _calls_of(self, layer: str) -> int:
        slot = self._slot_of[layer]
        return sum(c for c, s in zip(self.calls, self._entry_layer) if s == slot)

    def metrics(
        self, wall_s: float, samples: int, system: Dict[str, float]
    ) -> Dict[str, float]:
        """Every per-layer metric except ``trace.overhead_ratio``.

        ``samples`` is the number of source samples the pass sent (the
        base of ``net.transport.bytes_per_sample``); ``system`` supplies
        the counts read from the system's own ledgers.
        """
        c = self.counts
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.busy_ms"] = self.busy[self._slot_of[layer]] * 1e3
        out["net.client.frames"] = float(self._calls_of("net.client"))
        out["net.client.dropped_frames"] = float(system.get("net.client.dropped_frames", 0))
        out["net.transport.calls"] = float(self._calls_of("net.transport"))
        out["net.transport.bytes_per_sample"] = (
            c.get("transport.bytes", 0.0) / samples if samples else 0.0
        )
        out["net.transport.partial_sends"] = c.get("net.transport.partial_sends", 0.0)
        out["net.protocol.frames"] = c.get("net.protocol.frames", 0.0)
        out["net.protocol.crc_failures"] = c.get("net.protocol.crc_failures", 0.0)
        out["net.server.frames"] = float(system.get("net.server.frames", 0))
        out["net.server.disconnects"] = float(system.get("net.server.disconnects", 0))
        out["net.shard.pushes"] = float(self._calls_of("net.shard"))
        out["net.shard.skew"] = float(system.get("net.shard.skew", 0.0))
        out["core.manager.tap_calls"] = c.get("core.manager.tap_calls", 0.0)
        out["core.buffer.accepted"] = c.get("core.buffer.accepted", 0.0)
        out["core.buffer.dropped_late"] = c.get("core.buffer.dropped_late", 0.0)
        out["core.scope.polls"] = float(self._calls_of("core.scope"))
        out["core.scope.poll_ms_max"] = c.get("core.scope.poll_max", 0.0) * 1e3
        out["capture.writer.flush_ms_max"] = c.get("capture.flush_max", 0.0) * 1e3
        out["capture.writer.bytes"] = float(system.get("capture.writer.bytes", 0))
        taps = self._calls_of("query.live")
        out["query.live.tap_calls"] = float(taps)
        out["query.live.useful_ratio"] = c.get("live.useful", 0.0) / taps if taps else 0.0
        out["query.live.quarantined"] = float(system.get("query.live.quarantined", 0))
        out["net.queryservice.samples_fanned"] = c.get("net.queryservice.samples_fanned", 0.0)
        sends = c.get("fanout.sends", 0.0)
        out["net.queryservice.encode_reuse_ratio"] = (
            (sends - c.get("fanout.encodes", 0.0)) / sends if sends else 0.0
        )
        out["obs.samples_published"] = c.get("obs.samples_published", 0.0)
        out["capture.reader.bytes"] = c.get("capture.reader.bytes", 0.0)
        out["query.batch.derived_samples"] = c.get("query.batch.derived_samples", 0.0)
        out["net.worker.wait_ms"] = self.busy[self._slot_of[_WORKER_WAIT]] * 1e3
        out["net.worker.bytes"] = float(system.get("net.worker.bytes", 0))
        iterations = self._calls_of("eventloop.loop")
        out["eventloop.loop.iterations"] = float(iterations)
        out["eventloop.loop.idle_ratio"] = (
            c.get("loop.idle", 0.0) / iterations if iterations else 0.0
        )
        attributed = sum(out[f"{layer}.busy_ms"] for layer in LAYERS)
        out["unattributed.ms"] = wall_s * 1e3 - attributed - out["net.worker.wait_ms"]
        return out

    def write_chrome(self, path: Path) -> int:
        """Write the retained spans as Chrome trace JSON; returns the count."""
        n = min(self._n, SPAN_CAP)
        pid = os.getpid()
        layer_of = [self._slots[s] for s in self._entry_layer]
        events = [
            {
                "name": self._names[eid],
                "cat": layer_of[eid],
                "ph": "X",
                "ts": round((start - self.epoch) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "pid": pid,
                "tid": 1,
                "args": {"span": i, "parent": int(parent), "frame": int(frame)},
            }
            for i, (eid, start, end, parent, frame) in enumerate(
                zip(
                    self._span_eid[:n].tolist(),
                    self._span_start[:n].tolist(),
                    self._span_end[:n].tolist(),
                    self._span_parent[:n].tolist(),
                    self._span_frame[:n].tolist(),
                )
            )
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        return n
