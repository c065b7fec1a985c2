"""The capture writer: live columnar batches → segment files.

A :class:`CaptureWriter` is a *tap*: it is callable with the exact
``(name, times, values, now_ms)`` shape that
:meth:`~repro.core.manager.ScopeManager.push_samples` receives, so
attaching one to a manager (``manager.add_tap(writer)``) records every
offered sample — accepted *and* late-dropped — with near-zero hot-path
cost: one truthiness check when no tap is attached, two ``memcpy``-sized
array copies per pushed batch when one is.

Recording the offered stream (with its push instant) rather than the
displayed stream is what makes replay *checkable*: re-pushing the same
columns at the same clock instants reproduces every accept/late-drop
decision bit for bit (see :mod:`repro.capture.replay`).

Blocks accumulate in memory and are flushed as one self-contained
segment file every ``segment_samples`` samples.  Segments are written in
a single ``write`` call with the trailer last, so a writer killed
mid-segment leaves all previously flushed segments readable.
"""

from __future__ import annotations

import math
import time
import zlib
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.cells import Counter, Histogram, cell_property

from repro.capture.format import (
    HEADER_SIZE,
    FLAG_TIMES_SORTED,
    DIR_DTYPE,
    SEGMENT_SUFFIX,
    SegmentHeader,
    pack_header,
    pack_name_table,
    pack_trailer,
    segment_filename,
)

ArrayLike = Union[Sequence[float], np.ndarray]

#: name, times, values, push instant — one recorded push.
_PendingBlock = Tuple[str, np.ndarray, np.ndarray, float]

#: Writer ledger counters, cell-backed so ``register_metrics`` can mount
#: them; the legacy attributes read the same cells.
_COUNTER_FIELDS = (
    "samples_written",
    "blocks_written",
    "segments_written",
    "bytes_written",
)


class CaptureWriter:
    """Writes a segmented columnar capture store to a directory.

    Parameters
    ----------
    path:
        Capture directory (created if missing; must not already contain
        segment files — captures are append-once).
    segment_samples:
        Flush a segment once at least this many samples are pending.
        Blocks are never split across segments, so a segment can exceed
        the threshold by up to one batch.
    default_name:
        Signal name used by the :meth:`record`/:meth:`record_many`
        compatibility API when no name is given (mirrors
        :class:`~repro.core.tuples.Player.default_name`).
    """

    def __init__(
        self,
        path: Union[str, Path],
        segment_samples: int = 1 << 16,
        default_name: str = "signal",
    ) -> None:
        if segment_samples <= 0:
            raise ValueError(f"segment_samples must be positive: {segment_samples}")
        self.path = Path(path)
        self.path.mkdir(parents=True, exist_ok=True)
        existing = sorted(self.path.glob(f"*{SEGMENT_SUFFIX}"))
        if existing:
            raise ValueError(
                f"capture directory {self.path} already holds segments "
                f"(first: {existing[0].name}); captures are append-once"
            )
        self.segment_samples = int(segment_samples)
        self.default_name = default_name
        self._pending: List[_PendingBlock] = []
        self._pending_samples = 0
        self._next_segment = 0
        self._last_now: Optional[float] = None
        self._closed = False
        # Stats for tests and benchmarks — cell-backed, one source of
        # truth shared with register_metrics.  Flush latency is real
        # wall time, so its histogram is wall=True: scrape-only, never
        # published (publishing it would break bit-replay).
        self._cells = {k: Counter(k) for k in _COUNTER_FIELDS}
        self._flush_ms = Histogram("flush_ms", wall=True)
        self._perf = time.perf_counter

    # Legacy counter attributes, now views over the ledger cells.
    samples_written = cell_property("samples_written")
    blocks_written = cell_property("blocks_written")
    segments_written = cell_property("segments_written")
    bytes_written = cell_property("bytes_written")

    def register_metrics(self, registry, prefix: str = "capture.") -> None:
        """Mount the writer ledger plus a pending-backlog gauge."""
        for key in _COUNTER_FIELDS:
            registry.mount(prefix + key, self._cells[key])
        registry.mount(f"{prefix}flush_ms", self._flush_ms)
        registry.gauge(
            f"{prefix}pending_samples", fn=lambda: float(self._pending_samples)
        )

    # ------------------------------------------------------------------
    # The tap interface (what managers/scopes call on every push)
    # ------------------------------------------------------------------
    def on_push(
        self, name: str, times: ArrayLike, values: ArrayLike, now_ms: float
    ) -> None:
        """Record one pushed batch at push instant ``now_ms``.

        The columns are copied immediately — producers routinely reuse
        their batch buffers — so the capture is a stable snapshot.
        """
        if self._closed:
            raise ValueError(f"capture writer {self.path} is closed")
        t = np.array(times, dtype=np.float64, copy=True)
        v = np.array(values, dtype=np.float64, copy=True)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError(
                f"times and values must be equal-length 1-D: {t.shape} vs {v.shape}"
            )
        n = t.shape[0]
        if n == 0:
            return
        now = float(now_ms)
        if not math.isfinite(now):
            # Sample timestamps may be NaN (the buffer accepts them),
            # but the push instant is the replay schedule — a NaN here
            # would become a NaN event-loop deadline.
            raise ValueError(f"push instant must be finite: {now}")
        if self._last_now is not None and now < self._last_now:
            raise ValueError(
                f"push instant {now} precedes previous {self._last_now}; "
                "the capture clock must be monotonic"
            )
        self._last_now = now
        self._pending.append((name, t, v, now))
        self._pending_samples += n
        if self._pending_samples >= self.segment_samples:
            self.flush_segment()

    #: A writer *is* a tap: ``manager.add_tap(writer)`` just works.
    __call__ = on_push

    # ------------------------------------------------------------------
    # Recorder-compatible API (display-stream captures, text import)
    # ------------------------------------------------------------------
    def record(self, time_ms: float, value: float, name: Optional[str] = None) -> None:
        """Append one sample (:meth:`~repro.core.tuples.Recorder.record`).

        The push instant defaults to the sample's own timestamp, which
        replays such a capture as an always-on-time stream.  Non-finite
        timestamps fall back to the previous instant (the schedule must
        stay finite and monotone even where sample times are NaN).
        """
        t = float(time_ms)
        now = t if math.isfinite(t) else float("-inf")
        if self._last_now is not None:
            now = max(now, self._last_now)
        if not math.isfinite(now):
            now = 0.0
        self.on_push(name or self.default_name, (t,), (float(value),), now)

    def record_many(
        self,
        times: Sequence[float],
        values: Sequence[float],
        names: Optional[Sequence[Optional[str]]] = None,
    ) -> None:
        """Append a batch (:meth:`~repro.core.tuples.Recorder.record_many`).

        Consecutive same-name runs become one columnar block each, so a
        merged multi-signal recording costs one block per run, not per
        sample.
        """
        n = len(times)
        if n == 0:
            return
        if names is None:
            run_names: Sequence[Optional[str]] = [None] * n
        else:
            run_names = names
        i = 0
        while i < n:
            name = run_names[i] or self.default_name
            j = i + 1
            while j < n and (run_names[j] or self.default_name) == name:
                j += 1
            t = np.asarray(times[i:j], dtype=np.float64)
            finite = t[np.isfinite(t)]
            now = float(finite.max()) if finite.shape[0] else float("-inf")
            if self._last_now is not None:
                now = max(now, self._last_now)
            if not math.isfinite(now):
                now = 0.0
            self.on_push(name, t, np.asarray(values[i:j], dtype=np.float64), now)
            i = j

    # ------------------------------------------------------------------
    # Segment serialisation
    # ------------------------------------------------------------------
    def flush_segment(self) -> Optional[Path]:
        """Serialise pending blocks as one segment file; None when empty."""
        if not self._pending:
            return None
        blocks, self._pending = self._pending, []
        self._pending_samples = 0

        id_of_name = {}
        names: List[str] = []
        directory = np.zeros(len(blocks), dtype=DIR_DTYPE)
        body: List[bytes] = []
        rel_offset = 0
        for i, (name, t, v, now) in enumerate(blocks):
            name_id = id_of_name.get(name)
            if name_id is None:
                name_id = len(names)
                id_of_name[name] = name_id
                names.append(name)
            tb = t.tobytes()
            vb = v.tobytes()
            # NaN timestamps are recordable (the buffer keeps them on
            # the accept side) but must not poison the seek index: a
            # NaN never satisfies `time >= t`, so it is excluded from
            # the block's range (an all-NaN block indexes as -inf and
            # is never a seek target) and disables the sorted fast path.
            non_nan = t[~np.isnan(t)]
            if non_nan.shape[0]:
                t_min, t_max = float(non_nan.min()), float(non_nan.max())
            else:
                t_min = t_max = float("-inf")
            sorted_flag = (
                FLAG_TIMES_SORTED
                if non_nan.shape[0] == t.shape[0]
                and (t.shape[0] < 2 or bool(np.all(t[1:] >= t[:-1])))
                else 0
            )
            directory[i] = (
                name_id,
                t.shape[0],
                now,
                t_min,
                t_max,
                rel_offset,  # rebased below once the table size is known
                sorted_flag,
                zlib.crc32(vb, zlib.crc32(tb)),
            )
            body.append(tb)
            body.append(vb)
            rel_offset += len(tb) + len(vb)

        name_table = pack_name_table(names)
        body_offset = HEADER_SIZE + len(name_table)
        directory["offset"] += body_offset
        dir_bytes = directory.tobytes()
        header = SegmentHeader(
            segment_index=self._next_segment,
            name_count=len(names),
            block_count=len(blocks),
            t_min=float(directory["t_min"].min()),
            t_max=float(directory["t_max"].max()),
            now_first=float(directory["push_now"][0]),
            now_last=float(directory["push_now"][-1]),
            name_table_bytes=len(name_table),
        )
        head_no_crc = pack_header(header, 0)[: HEADER_SIZE - 4]
        payload = b"".join(
            [
                head_no_crc,
                zlib.crc32(head_no_crc).to_bytes(4, "little"),
                name_table,
                *body,
                dir_bytes,
                pack_trailer(body_offset + rel_offset, zlib.crc32(dir_bytes)),
            ]
        )
        # One write, trailer last: a killed writer leaves either a whole
        # segment or a torn one the reader rejects — never a silently
        # half-decoded one.  (Durability against OS crash would need an
        # fsync here; process death is the failure mode we recover.)
        target = self.path / segment_filename(self._next_segment)
        t0 = self._perf()
        with open(target, "wb") as fh:
            fh.write(payload)
        self._flush_ms.observe((self._perf() - t0) * 1000.0)
        self._next_segment += 1
        self._cells["segments_written"].inc()
        self._cells["blocks_written"].inc(len(blocks))
        self._cells["samples_written"].inc(int(directory["count"].sum()))
        self._cells["bytes_written"].inc(len(payload))
        return target

    def close(self) -> None:
        """Flush the partial segment and seal the writer."""
        if self._closed:
            return
        self.flush_segment()
        self._closed = True

    def __enter__(self) -> "CaptureWriter":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def capture_sharded(sharded, root: Union[str, Path], **writer_opts) -> List[CaptureWriter]:
    """Capture a sharded fan-in: one segment stream per shard.

    Attaches one :class:`CaptureWriter` (under ``root/shard-NN/``) as a
    tap on each per-shard manager of a
    :class:`~repro.net.shard.ShardedScopeManager`, so every shard's
    offered stream lands in its own store.  Replay each store into the
    matching (or a fresh) sharded manager — routing is a stable hash of
    the name, so the streams re-partition identically.
    """
    writers: List[CaptureWriter] = []
    for index, manager in enumerate(sharded.managers):
        writer = CaptureWriter(Path(root) / f"shard-{index:02d}", **writer_opts)
        manager.add_tap(writer)
        writers.append(writer)
    return writers
