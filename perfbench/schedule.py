"""Seeded inputs: the tick schedules every tick workload sends.

Everything a workload feeds the system is a pure function of the seed,
so two runs with one seed offer identical frames at identical virtual
instants.  A schedule is generated once per run (outside every timed
phase) as small per-tick index tables; each frame's columns are derived
from those tables on demand by :meth:`TickSchedule.frame`, so the send
path and the correctness checks can never disagree about what was sent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List

import numpy as np

#: Virtual length of one tick; every tick's frames go out as one burst.
TICK_MS = 10.0
#: Virtual instant of tick 0's burst.  Far enough from 0 that planned-late
#: frames still carry positive timestamps.
T0_MS = 1000.0
#: How far a planned-late frame is stamped into the past: beyond the
#: ingest scopes' 200 ms display delay plus one tick, so the §4.4 rule
#: drops every sample of it and no other frame comes near the limit.
LATE_SHIFT_MS = 300.0
#: Rows of the per-tick tables; tick k uses row k % PERIOD_TICKS with its
#: own timestamps, so a run of any length needs only this much table.
PERIOD_TICKS = 1024
_POOL = 1 << 20


@dataclass(frozen=True)
class Frame:
    """One ``send_samples`` call of the schedule."""

    fid: int  # global frame id: tick * frames_per_tick + slot
    session: int
    name: str
    times: np.ndarray
    values: np.ndarray


class TickSchedule:
    """Which signal sends which columns on every tick.

    ``slot_signal[r, j]`` is the signal of burst slot ``j`` on table row
    ``r``; a signal sending ``m`` frames in one tick spreads ``m * L``
    evenly spaced timestamps over the tick that ends at the burst
    instant, so each signal's stream is strictly increasing across its
    frames (planned-late frames excepted: they are shifted
    :data:`LATE_SHIFT_MS` into the past and dropped whole).
    """

    def __init__(
        self,
        names: List[str],
        session_of: np.ndarray,
        slot_signal: np.ndarray,
        slot_late: np.ndarray,
        value_offset: np.ndarray,
        pool: np.ndarray,
        frame_len: int,
    ) -> None:
        self.names = names
        self.session_of = session_of
        self.slot_signal = slot_signal
        self.slot_late = slot_late
        self.value_offset = value_offset
        self.pool = pool
        self.frame_len = frame_len
        self.frames_per_tick = slot_signal.shape[1]
        # Per slot: index among this tick's frames of the same signal, and
        # how many frames that signal sends in the tick.
        rows, width = slot_signal.shape
        self._sub_index = np.zeros((rows, width), dtype=np.int64)
        self._sub_count = np.zeros((rows, width), dtype=np.int64)
        for r in range(rows):
            seen: Dict[int, int] = {}
            for j, sig in enumerate(slot_signal[r].tolist()):
                self._sub_index[r, j] = seen.get(sig, 0)
                seen[sig] = seen.get(sig, 0) + 1
            for j, sig in enumerate(slot_signal[r].tolist()):
                self._sub_count[r, j] = seen[sig]
        self._ramp = np.arange(frame_len, dtype=np.float64)
        # Late frames per row, for the planned-late ledger.
        self._late_per_row = slot_late.sum(axis=1)

    @property
    def samples_per_tick(self) -> int:
        return self.frames_per_tick * self.frame_len

    @staticmethod
    def now(tick: int) -> float:
        """Virtual instant of ``tick``'s burst."""
        return T0_MS + TICK_MS * tick

    def frame(self, tick: int, slot: int) -> Frame:
        row = tick % self.slot_signal.shape[0]
        sig = int(self.slot_signal[row, slot])
        count = int(self._sub_count[row, slot])
        first = int(self._sub_index[row, slot]) * self.frame_len
        step = TICK_MS / (count * self.frame_len)
        times = (self.now(tick) - TICK_MS) + (self._ramp + first) * step
        if self.slot_late[row, slot]:
            times -= LATE_SHIFT_MS
        off = int(self.value_offset[row, slot])
        return Frame(
            fid=tick * self.frames_per_tick + slot,
            session=int(self.session_of[sig]),
            name=self.names[sig],
            times=times,
            values=self.pool[off : off + self.frame_len],
        )

    def frames(self, tick: int) -> Iterator[Frame]:
        for slot in range(self.frames_per_tick):
            yield self.frame(tick, slot)

    def late_samples(self, ticks: int) -> int:
        """Planned-late samples among the first ``ticks`` ticks."""
        rows = self.slot_signal.shape[0]
        full, rest = divmod(ticks, rows)
        late_frames = full * int(self._late_per_row.sum()) + int(
            self._late_per_row[:rest].sum()
        )
        return late_frames * self.frame_len

    def signal_samples(self, ticks: int) -> Dict[str, int]:
        """Samples each signal sends in the first ``ticks`` ticks."""
        rows, n = self.slot_signal.shape[0], len(self.names)
        full, rest = divmod(ticks, rows)
        frames = full * np.bincount(self.slot_signal.ravel(), minlength=n) + np.bincount(
            self.slot_signal[:rest].ravel(), minlength=n
        )
        return {name: int(f) * self.frame_len for name, f in zip(self.names, frames) if f}

    def signal_digests(self, ticks: int) -> Dict[str, str]:
        """Per-signal :class:`ColumnDigest` of everything sent in ``ticks`` ticks.

        Frames are hashed in send order, which is each signal's order on
        the wire and therefore in any capture of the run.
        """
        digests: Dict[str, ColumnDigest] = {}
        for tick in range(ticks):
            for frame in self.frames(tick):
                digest = digests.get(frame.name)
                if digest is None:
                    digest = digests[frame.name] = ColumnDigest()
                digest.update(frame.times, frame.values)
        return {name: digest.hexdigest() for name, digest in digests.items()}


class ColumnDigest:
    """Running BLAKE2 digest of a stream of ``(times, values)`` column pairs.

    Split points do not matter: the digest of the concatenated columns
    equals the digest of any sequence of pieces of them.
    """

    def __init__(self) -> None:
        self._times = hashlib.blake2b(digest_size=16)
        self._values = hashlib.blake2b(digest_size=16)
        self.count = 0

    def update(self, times: np.ndarray, values: np.ndarray) -> None:
        self._times.update(np.ascontiguousarray(times))
        self._values.update(np.ascontiguousarray(values))
        self.count += len(times)

    def hexdigest(self) -> str:
        return self._times.hexdigest() + self._values.hexdigest()


def digest_columns(times: np.ndarray, values: np.ndarray) -> str:
    """The :class:`ColumnDigest` of one pair of recorded columns."""
    digest = ColumnDigest()
    digest.update(times, values)
    return digest.hexdigest()


def ingest_schedule(seed: int) -> TickSchedule:
    """256 signals, Zipf-skewed popularity, 32 frames of 128 samples a tick.

    Signal popularity follows ``1 / rank**1.1``; ranks are shuffled over
    the names so which shard is hot depends on the seed.  Signals
    alternate between the two client sessions.  About 2% of frames are
    planned-late.
    """
    rng = np.random.default_rng([seed, 1])
    n_signals, frames_per_tick, frame_len = 256, 32, 128
    names = [f"sig{i:03d}" for i in range(n_signals)]
    weights = 1.0 / np.arange(1, n_signals + 1) ** 1.1
    rank_to_signal = rng.permutation(n_signals)
    slot_rank = rng.choice(
        n_signals, size=(PERIOD_TICKS, frames_per_tick), p=weights / weights.sum()
    )
    slot_signal = rank_to_signal[slot_rank]
    slot_late = rng.random((PERIOD_TICKS, frames_per_tick)) < 0.02
    pool = rng.standard_normal(_POOL)
    value_offset = rng.integers(0, _POOL - frame_len, size=slot_signal.shape)
    session_of = np.arange(n_signals) % 2
    return TickSchedule(
        names, session_of, slot_signal, slot_late, value_offset, pool, frame_len
    )


def dashboard_schedule(seed: int) -> TickSchedule:
    """16 signals, one 2048-sample frame each per tick, from one producer.

    Values are a slow random walk, so level-crossing queries (``edges``)
    emit a few events per second instead of one per sample.  All signals
    share each tick's timestamps, so the two-signal join matches every
    sample.  No planned-late frames.
    """
    rng = np.random.default_rng([seed, 2])
    n_signals, frame_len = 16, 2048
    names = [f"s{i:02d}" for i in range(1, n_signals + 1)]
    slot_signal = np.tile(np.arange(n_signals), (PERIOD_TICKS, 1))
    slot_late = np.zeros(slot_signal.shape, dtype=bool)
    pool = np.cumsum(rng.standard_normal(_POOL)) * 0.02
    pool -= pool.mean()
    value_offset = rng.integers(0, _POOL - frame_len, size=slot_signal.shape)
    session_of = np.zeros(n_signals, dtype=np.int64)
    return TickSchedule(
        names, session_of, slot_signal, slot_late, value_offset, pool, frame_len
    )
