"""The scope-wide timestamped sample buffer (Sections 3.1 and 4.4).

Buffered (``BUFFER``-type) signals decouple data *collection* from data
*display*: the application (or a remote client, via the client-server
library) enqueues ``(time, value, name)`` samples, and the scope drains
the buffer on each poll, displaying each sample once the user-specified
delay has elapsed after the sample's timestamp.

Two rules from the paper govern the buffer:

* **Display delay** — a sample stamped ``t`` becomes displayable at wall
  time ``t + delay`` (Section 3.1: "gscope displays these samples with a
  user-specified delay").
* **Late drop** — "Data arriving at the server after this delay is not
  buffered but dropped immediately" (Section 4.4): a sample whose display
  time has already passed when it is pushed is discarded, because the
  scope has already painted that x position.

Columnar layout
---------------

The buffer is a struct-of-arrays store, not a heap of objects: one *run*
per signal, each the window ``[head, tail)`` of three columns — ``float64``
time and value and an ``int64`` sequence number (the buffer-wide
push-order tie-break).  A run is kept in ``(time, seq)`` order.  Producers
push each signal in time order — the overwhelmingly common case, even
when signals interleave — so a push that starts at or after its run's
last time and is itself non-decreasing just appends.  Any other push
marks the run unordered, and that run alone is re-sorted (stably by time:
within a run, unsorted samples have seqs growing with position) at its
next pop.  Nothing sorts the buffer as a whole.

A poll visits only the runs holding samples, finds each one's due prefix
with one ``searchsorted`` and copies it out: :meth:`SampleBuffer.pop_due_runs`
and :meth:`SampleBuffer.pop_due_grouped` return those runs as they are,
ordered by each signal's first ``(time, seq)``.  The APIs that promise one
buffer-wide ``(time, seq)`` order — :meth:`~SampleBuffer.pop_due`,
:meth:`~SampleBuffer.pop_due_arrays`, :meth:`~SampleBuffer.pop_due_by_name`,
:meth:`~SampleBuffer.peek_next`, capacity eviction and
:meth:`~SampleBuffer.state_dict` — merge across runs, over only the samples
they return; with one signal involved they neither merge nor sort.

The scalar :meth:`push` / :meth:`pop_due` API preserves the seed
semantics exactly: the same late-drop comparison (``now > time + delay``),
the same oldest-first capacity eviction, and the same ``(time, seq)`` pop
order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[Sequence[float], np.ndarray]

_MIN_ALLOC = 16


@dataclass(frozen=True, order=True)
class Sample:
    """One timestamped sample of a named signal."""

    time_ms: float
    seq: int = field(compare=True)
    name: str = field(compare=False)
    value: float = field(compare=False)


@dataclass
class BufferStats:
    """Counters for buffer behaviour, exposed for tests and benchmarks."""

    pushed: int = 0
    dropped_late: int = 0
    evicted: int = 0
    popped: int = 0

    @property
    def buffered(self) -> int:
        """Samples currently held (accepted minus drained/evicted)."""
        return self.pushed - self.dropped_late - self.evicted - self.popped


class _Run:
    """One signal's buffered samples: ``[head, tail)`` of three columns,
    in ``(time, seq)`` order while ``ordered`` holds."""

    __slots__ = (
        "name", "name_id", "times", "values", "seqs", "head", "tail", "ordered"
    )

    def __init__(self, name: str, name_id: int) -> None:
        self.name, self.name_id = name, name_id
        self.times = np.empty(_MIN_ALLOC, dtype=np.float64)
        self.values = np.empty(_MIN_ALLOC, dtype=np.float64)
        self.seqs = np.empty(_MIN_ALLOC, dtype=np.int64)
        self.head = self.tail = 0
        self.ordered = True

    def room(self, n: int) -> int:
        """Make room for ``n`` appends, compacting or growing; return the tail."""
        alloc = self.times.shape[0]
        if self.tail + n > alloc:
            active = self.tail - self.head
            old = (self.times, self.values, self.seqs)
            new = old
            if active + n > alloc or self.head < alloc // 2:
                size = max(2 * alloc, active + n)
                new = tuple(np.empty(size, dtype=col.dtype) for col in old)
            for dst, src in zip(new, old):
                dst[:active] = src[self.head : self.tail]
            self.times, self.values, self.seqs = new
            self.head, self.tail = 0, active
        return self.tail

    def put(self, time_ms: float, value: float, seq: int) -> None:
        """Append one sample."""
        i = self.room(1)
        if self.ordered and i > self.head and not self.times[i - 1] <= time_ms:
            self.ordered = False
        self.times[i], self.values[i], self.seqs[i] = time_ms, value, seq
        self.tail = i + 1

    def append(self, times: np.ndarray, values: np.ndarray, seq: int) -> None:
        """Append a block, numbered from ``seq``."""
        n = times.shape[0]
        i = self.room(n)
        if self.ordered and not (
            (i == self.head or self.times[i - 1] <= times[0])
            and (n == 1 or bool((times[1:] >= times[:-1]).all()))
        ):
            self.ordered = False
        self.times[i : i + n] = times
        self.values[i : i + n] = values
        self.seqs[i : i + n] = np.arange(seq, seq + n, dtype=np.int64)
        self.tail = i + n

    def sort(self) -> None:
        """Restore ``(time, seq)`` order if a push broke it."""
        if not self.ordered:
            sl = slice(self.head, self.tail)
            order = np.argsort(self.times[sl], kind="stable") + self.head
            for col in (self.times, self.values, self.seqs):
                col[sl] = col[order]
            self.ordered = True

    def due(self, now_ms: float, delay_ms: float) -> int:
        """How many leading samples are due at ``now_ms``."""
        self.sort()
        # Same float comparison as the scalar rule: time + delay <= now.
        # The run is sorted, so its ends settle the none- and all-due cases.
        if self.times[self.head] + delay_ms > now_ms:
            return 0
        if self.times[self.tail - 1] + delay_ms <= now_ms:
            return self.tail - self.head
        active = self.times[self.head : self.tail]
        return int(np.searchsorted(active + delay_ms, now_ms, side="right"))


class SampleBuffer:
    """Columnar sample store with delay/late-drop semantics.

    Parameters
    ----------
    delay_ms:
        The user-specified display delay.  Larger delays tolerate more
        collection/transmission jitter at the cost of display latency.
    capacity:
        Optional bound on buffered samples; pushing past it drops the
        *oldest* buffered sample first (the scope would have displayed it
        soonest, and fresh data is more valuable on a live display).
    """

    def __init__(self, delay_ms: float = 0.0, capacity: Optional[int] = None) -> None:
        if delay_ms < 0:
            raise ValueError(f"delay must be non-negative: {delay_ms}")
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.delay_ms = float(delay_ms)
        self.capacity = capacity
        self._next_seq = 0
        self._name_of_id: List[str] = []
        self._runs: Dict[str, _Run] = {}  # every signal ever pushed
        self._live: Dict[str, _Run] = {}  # the runs holding samples
        self.stats = BufferStats()

    def __len__(self) -> int:
        return sum(run.tail - run.head for run in self._live.values())

    # ------------------------------------------------------------------
    # Run plumbing
    # ------------------------------------------------------------------
    def _run(self, name: str) -> _Run:
        """``name``'s run, registered as holding samples."""
        run = self._live.get(name)
        if run is None:
            run = self._runs.get(name)
            if run is None:
                run = self._runs[name] = _Run(name, len(self._name_of_id))
                self._name_of_id.append(name)
            self._live[name] = run
        return run

    def _take(self, run: _Run, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove ``run``'s first ``n`` samples; copies of their columns."""
        sl = slice(run.head, run.head + n)
        out = run.times[sl].copy(), run.values[sl].copy(), run.seqs[sl].copy()
        run.head += n
        if run.head == run.tail:
            run.head = run.tail = 0
            del self._live[run.name]
        return out

    def _oldest(self) -> _Run:
        """The run holding the globally earliest ``(time, seq)`` sample."""
        runs = list(self._live.values())
        for run in runs:
            run.sort()
        if len(runs) == 1:
            return runs[0]
        first = np.lexsort(
            ([r.seqs[r.head] for r in runs], [r.times[r.head] for r in runs])
        )[0]
        return runs[first]

    def _merge(self, parts: List[Tuple[_Run, np.ndarray, np.ndarray, np.ndarray]]):
        """``(times, values, seqs, name_ids)`` of per-run columns, merged
        into ``(time, seq)`` order."""
        if len(parts) == 1:
            run, times, values, seqs = parts[0]
            return times, values, seqs, np.full(times.shape[0], run.name_id, np.int64)
        if not parts:
            empty = np.empty(0, dtype=np.int64)
            return np.empty(0), np.empty(0), empty, empty.copy()
        times, values, seqs = (np.concatenate([p[k] for p in parts]) for k in (1, 2, 3))
        ids = np.repeat(
            np.array([p[0].name_id for p in parts], dtype=np.int64),
            [p[1].shape[0] for p in parts],
        )
        order = np.lexsort((seqs, times))
        return times[order], values[order], seqs[order], ids[order]

    def _evict_oldest(self) -> None:
        """Drop the globally oldest ``(time, seq)`` buffered sample."""
        self._take(self._oldest(), 1)
        self.stats.evicted += 1

    # ------------------------------------------------------------------
    # Push (scalar + bulk)
    # ------------------------------------------------------------------
    def push(self, name: str, time_ms: float, value: float, now_ms: float) -> bool:
        """Enqueue a sample; return False if it was dropped as late.

        ``now_ms`` is the current scope clock — the push is late exactly
        when ``now_ms > time_ms + delay_ms``, i.e. the sample's display
        slot has already gone by.
        """
        self.stats.pushed += 1
        time_ms = float(time_ms)
        if now_ms > time_ms + self.delay_ms:
            self.stats.dropped_late += 1
            return False
        if self.capacity is not None and len(self) >= self.capacity:
            self._evict_oldest()
        self._run(name).put(time_ms, float(value), self._next_seq)
        self._next_seq += 1
        return True

    def push_many(
        self, name: str, times: ArrayLike, values: ArrayLike, now_ms: float
    ) -> int:
        """Bulk-enqueue one signal's samples; return how many were accepted.

        Semantically identical to calling :meth:`push` per sample (same
        late-drop rule, same eviction order), but the accepted samples are
        appended to the signal's run as one vectorised block.
        """
        t = np.ascontiguousarray(times, dtype=np.float64)
        v = np.ascontiguousarray(values, dtype=np.float64)
        if t.shape != v.shape or t.ndim != 1:
            raise ValueError(
                f"times and values must be equal-length 1-D: {t.shape} vs {v.shape}"
            )
        n = t.shape[0]
        self.stats.pushed += n
        if n == 0:
            return 0
        # Same predicate as the scalar rule `now > t + delay`: a NaN
        # timestamp compares False, so it is accepted on both paths.
        late = t + self.delay_ms < now_ms
        dropped = int(np.count_nonzero(late))
        self.stats.dropped_late += dropped
        accepted = n - dropped
        if accepted == 0:
            return 0
        if dropped:
            t, v = t[~late], v[~late]
        if self.capacity is not None and len(self) + accepted > self.capacity:
            # Rare bounded-buffer overflow: replay the per-sample
            # evict-then-insert discipline so eviction order matches the
            # scalar path exactly (a pushed sample can itself be evicted
            # by a later sample in the same batch).
            for i in range(accepted):
                if len(self) >= self.capacity:
                    self._evict_oldest()
                self._run(name).put(float(t[i]), float(v[i]), self._next_seq)
                self._next_seq += 1
            return accepted
        self._run(name).append(t, v, self._next_seq)
        self._next_seq += accepted
        return accepted

    # ------------------------------------------------------------------
    # Pop (per-signal runs + merged wrappers)
    # ------------------------------------------------------------------
    def _pop_runs(
        self, now_ms: float
    ) -> List[Tuple[_Run, np.ndarray, np.ndarray, np.ndarray]]:
        """Remove every run's due prefix: ``(run, times, values, seqs)``."""
        out = []
        for run in list(self._live.values()):
            n = run.due(now_ms, self.delay_ms)
            if n:
                out.append((run, *self._take(run, n)))
                self.stats.popped += n
        return out

    def pop_due_runs(
        self, now_ms: float
    ) -> List[Tuple[str, np.ndarray, np.ndarray, np.ndarray]]:
        """Remove all due samples as one ``(name, times, values, seqs)``
        run per signal.

        Each run's columns are in ``(time, seq)`` order; runs follow each
        name's first occurrence in the ``(time, seq)``-ordered popped
        stream.  The arrays are private copies.
        """
        runs = [(run.name, t, v, s) for run, t, v, s in self._pop_runs(now_ms)]
        runs.sort(key=lambda r: (float(r[1][0]), int(r[3][0])))
        return runs

    def pop_due_grouped(
        self, now_ms: float
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Bulk drain grouped per signal: name → ``(times, values)`` arrays.

        Group order follows each name's first occurrence in the popped
        stream; within a group, samples keep ``(time, seq)`` order.
        """
        return {name: (t, v) for name, t, v, _ in self.pop_due_runs(now_ms)}

    def pop_due_arrays(
        self, now_ms: float
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Remove and return all due samples as ``(times, values, name_ids)``.

        Columns come back in ``(time, seq)`` order — the order the scope
        paints.  The returned arrays are private copies and stay valid
        across later pushes.
        """
        times, values, _, ids = self._merge(self._pop_runs(now_ms))
        return times, values, ids

    def pop_due(self, now_ms: float) -> List[Sample]:
        """Remove and return all samples displayable at ``now_ms``.

        A sample is due when ``time_ms + delay_ms <= now_ms``.  Samples
        come back in timestamp order (push order breaks ties), which is
        the order the scope paints them.  This is the object-per-sample
        compatibility wrapper; hot consumers use :meth:`pop_due_runs`.
        """
        times, values, seqs, ids = self._merge(self._pop_runs(now_ms))
        name_of_id = self._name_of_id
        return [
            Sample(time_ms=t, seq=s, name=name_of_id[i], value=v)
            for t, s, i, v in zip(
                times.tolist(), seqs.tolist(), ids.tolist(), values.tolist()
            )
        ]

    def pop_due_by_name(self, now_ms: float) -> Dict[str, List[Sample]]:
        """Like :meth:`pop_due` but grouped per signal name."""
        grouped: Dict[str, List[Sample]] = {}
        for sample in self.pop_due(now_ms):
            grouped.setdefault(sample.name, []).append(sample)
        return grouped

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def peek_next(self) -> Optional[Sample]:
        """The earliest buffered sample, without removing it."""
        if not self._live:
            return None
        run = self._oldest()
        i = run.head
        return Sample(
            time_ms=float(run.times[i]),
            seq=int(run.seqs[i]),
            name=run.name,
            value=float(run.values[i]),
        )

    def clear(self) -> int:
        """Drop everything buffered; return how many samples were dropped."""
        n = len(self)
        for run in self._live.values():
            run.head = run.tail = 0
            run.ordered = True
        self._live.clear()
        self.stats.evicted += n
        return n

    def set_delay(self, delay_ms: float) -> None:
        """Adjust the display delay (the scope's delay widget)."""
        if delay_ms < 0:
            raise ValueError(f"delay must be non-negative: {delay_ms}")
        self.delay_ms = float(delay_ms)

    def names(self) -> Tuple[str, ...]:
        """Names of signals currently holding buffered samples."""
        return tuple(sorted(self._live))

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Capture the buffer's observable state as plain data.

        Everything that shapes future behaviour is included: every
        buffered sample as ``(time, seq)``-ordered columns (so
        ``sorted_len`` is their count), the sequence counter, the name
        intern table and the stats ledger.  Allocation details are not
        state — a restore yields the same pops, evictions and late-drops
        forever after.
        """
        parts = []
        for run in self._live.values():
            run.sort()
            sl = slice(run.head, run.tail)
            parts.append((run, run.times[sl], run.values[sl], run.seqs[sl]))
        times, values, seqs, ids = self._merge(parts)
        return {
            "delay_ms": self.delay_ms,
            "capacity": self.capacity,
            "times": times.copy(),
            "values": values.copy(),
            "seqs": seqs.copy(),
            "ids": ids,
            "sorted_len": int(times.shape[0]),
            "next_seq": self._next_seq,
            "names": list(self._name_of_id),
            "stats": {
                "pushed": self.stats.pushed,
                "dropped_late": self.stats.dropped_late,
                "evicted": self.stats.evicted,
                "popped": self.stats.popped,
            },
        }

    def load_state(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`state_dict` capture, replacing current contents.

        Columns ordered only up to ``sorted_len`` (the rest in push order)
        are accepted too: they are split into runs and sorted here.
        """
        self.delay_ms = float(state["delay_ms"])  # type: ignore[arg-type]
        self.capacity = state["capacity"]  # type: ignore[assignment]
        self._next_seq = int(state["next_seq"])  # type: ignore[arg-type]
        names = list(state["names"])  # type: ignore[arg-type]
        self._name_of_id = names
        self._runs = {name: _Run(name, i) for i, name in enumerate(names)}
        self._live = {}
        times = np.asarray(state["times"], dtype=np.float64)
        values = np.asarray(state["values"], dtype=np.float64)
        seqs = np.asarray(state["seqs"], dtype=np.int64)
        ids = np.asarray(state["ids"], dtype=np.int64)
        # One sort groups the samples by signal, each in (time, seq) order.
        order = np.lexsort((seqs, times, ids))
        bounds = np.searchsorted(ids[order], np.arange(len(names) + 1))
        for name_id, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            if hi > lo:
                run = self._run(names[name_id])
                sel = order[lo:hi]
                run.times, run.values, run.seqs = times[sel], values[sel], seqs[sel]
                run.head, run.tail = 0, int(hi - lo)
        stats = dict(state["stats"])  # type: ignore[arg-type]
        self.stats = BufferStats(**stats)
