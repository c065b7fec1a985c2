"""Shard supervision: WAL-before-send, liveness monitor, replay catch-up.

The fault-tolerance story for the sharded telemetry plane.  One
supervision layer, :class:`SupervisedRouter`, runs on the *router* loop
over either shard backend — an in-process :class:`ShardHost` on a
private loop (:class:`ShardSupervisor`) or a worker process behind a
:class:`~repro.net.worker.WorkerHandle` (:class:`ProcessShardSupervisor`,
whose child runs a :class:`ShardHost` too).  It:

* **writes ahead** — every offered push is recorded to the shard's
  :class:`~repro.capture.writer.CaptureWriter` (a per-shard write-ahead
  log) *before* delivery, so samples sent into the void during an
  undetected crash window are never lost, only deferred;
* **detects** — a monitor timer on the router loop asks each backend
  for a one-tick liveness verdict.  An in-process host is dead when it
  has explicitly crashed (fault injection, or an exception quarantined
  during ingest) or when its heartbeat — a timer on its private loop —
  froze for ``miss_threshold`` consecutive ticks (wedged).  A worker is
  dead on a dead pid, a broken link, a crash report, or control-channel
  silence past :data:`BEAT_GRACE_S`;
* **restarts** — a fresh backend is built by the same ``scope_factory``
  and caught up by :meth:`ShardHost.restore`: the rotation snapshot (if
  any) is loaded, then the WAL suffix is re-driven by a
  :class:`~repro.capture.replay.ReplaySource` on the fresh private loop
  through the router's current instant.

Byte-identical recovery
-----------------------

The restarted shard is not approximately recovered — its traces,
filtered columns, aggregates and every Section 4.4 accept/late-drop
decision are *byte-identical* to a shard that never failed.  The
argument:

1. A live delivery advances the private loop *through* the router
   instant (:meth:`~repro.eventloop.loop.MainLoop.run_through`) and then
   pushes, so every source due at or before the push instant has
   dispatched first, and the manager reads a clock equal to the router
   clock.
2. The WAL records exactly the offered columns and their push instants
   (the same contract the capture equivalence suite already proves
   replayable bit-for-bit).
3. On restart the :class:`~repro.capture.replay.ReplaySource` re-pushes
   each batch at its recorded instant on the fresh loop.  The source is
   created after the host's own timers, so at any shared instant the
   poll/heartbeat timers dispatch before the replayed push — the same
   (priority, id) order the live path produced in (1).

A *stall* that clears before detection never restarts: deliveries
accumulate in the host's inbox and drain in order at their recorded
instants on :meth:`ShardHost.resume` — the same interleaving again.
For worker processes the socket's total order plays the inbox's role.

Snapshots and WAL rotation
--------------------------

:meth:`SupervisedRouter.snapshot_shard` pins a shard's data plane to the
router instant, writes it to a state file and retires every WAL segment
it covers, so recovery becomes ``snapshot + suffix replay`` and WAL disk
stays bounded by the snapshot cadence.  The state file is fail-closed:
it holds :func:`~repro.net.worker.encode_state` bytes — a magic, a
format version, the payload length and a crc32 guard the pickled
snapshot — and any mismatch raises
:class:`~repro.capture.format.CaptureFormatError` instead of restoring
wrong state (completed segments are already gone, so no fallback
exists).  A worker's ``snapshot`` reply carries the same bytes and is
checked the same way before the state file is written or any segment
retired.

Caveat: byte-identity covers signals registered by the
``scope_factory``.  Signals *auto-created* by the server on first
arrival are not re-created by replay (signal registration is not in the
WAL); they resume on their next live arrival instead.
"""

from __future__ import annotations

import enum
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Union

import numpy as np

from repro.capture.reader import CaptureReader
from repro.capture.replay import ReplaySource
from repro.capture.writer import CaptureWriter
from repro.core.manager import RESERVED_PREFIX, ScopeManager
from repro.eventloop.loop import MainLoop
from repro.net.shard import ShardRouter, ShardStats, WorkerPlane
from repro.net.worker import WorkerHandle, decode_state, encode_state

__all__ = [
    "BEAT_GRACE_S",
    "ProcessShardSupervisor",
    "ShardDown",
    "ShardHost",
    "ShardState",
    "ShardSupervisor",
    "SupervisedRouter",
    "SupervisionStats",
    "read_state_file",
    "write_state_file",
]

#: Builds one shard's scopes/signals on a fresh manager.  Called with
#: ``(manager, shard_id)`` at host construction *and again at every
#: restart* — it must be deterministic, and it should start polling
#: (replay re-drives the polls).
ScopeFactory = Callable[[ScopeManager, int], None]

#: Real seconds of control-channel silence after which a live worker is
#: declared wedged.  Generous on purpose: monitor ticks on a virtual
#: loop burn almost no wall clock, so only a genuinely silent child
#: trips it.
BEAT_GRACE_S = 60.0

#: The ingest ledger a snapshot carries and a restart rebuilds.
_LEDGER = ("offered", "accepted", "dropped_late")


def write_state_file(path: Path, snap: dict) -> None:
    """Atomically write a shard snapshot behind its checked header."""
    tmp = path.with_suffix(".state.tmp")
    tmp.write_bytes(encode_state(snap))
    os.replace(tmp, path)  # atomic: never a torn state file


def read_state_file(path: Union[str, Path]) -> dict:
    """Load a shard snapshot; any damage raises ``CaptureFormatError``."""
    return decode_state(Path(path).read_bytes(), f"state file {path}")


class ShardState(enum.Enum):
    RUNNING = "running"
    STALLED = "stalled"
    CRASHED = "crashed"


class ShardDown(RuntimeError):
    """Raised when delivering to a crashed shard host."""


class SupervisionStats(ShardStats):
    """:class:`~repro.net.shard.ShardStats` plus failover counters.

    ``lost_deliveries`` counts pushes that hit a dead backend
    (WAL-covered); ``replayed_samples`` counts samples re-driven by the
    latest restart's catch-up.  ``last_restart_at`` is a timestamp, not
    a counter (excluded from ``as_dict``/``fold``).
    """

    COUNTER_FIELDS = ShardStats.COUNTER_FIELDS + (
        "restarts",
        "missed_beats",
        "lost_deliveries",
        "replayed_samples",
    )
    SCALAR_FIELDS = ("last_restart_at",)


@dataclass
class _Delivery:
    """One push parked in a stalled host's inbox."""

    now: float
    name: str
    times: np.ndarray
    values: np.ndarray


class _HostTarget:
    """Replay adapter: ReplaySource pushes land as host ingests.

    Routing the replayed batches through :meth:`ShardHost.ingest` (not
    the bare manager) rebuilds the shard's offered/accepted/late-drop
    counters exactly as the live traffic built them.
    """

    def __init__(self, host: "ShardHost") -> None:
        self.host = host

    def push_samples(self, name: str, times, values) -> int:
        return self.host.ingest(name, times, values)


class ShardHost:
    """One shard's manager on a private loop, with a heartbeat.

    The host is the supervision unit: it can be stalled (deliveries
    park in an inbox; the private loop — and with it the heartbeat —
    stops advancing), crashed (deliveries raise :class:`ShardDown`), and
    resumed.  The supervisor detects the first two through the beat
    counter and replaces the host wholesale; a stall that clears first
    drains its inbox in recorded order and never diverges.  A worker
    child runs one too, driven by the router's messages.
    """

    def __init__(
        self,
        shard_id: int,
        scope_factory: Optional[ScopeFactory] = None,
        heartbeat_ms: float = 50.0,
        stats: Optional[SupervisionStats] = None,
    ) -> None:
        if heartbeat_ms <= 0:
            raise ValueError(f"heartbeat_ms must be positive: {heartbeat_ms}")
        self.shard_id = shard_id
        self.heartbeat_ms = float(heartbeat_ms)
        self.loop = MainLoop()  # private loop, private virtual clock at 0
        self.beats = 0
        # The heartbeat attaches before the factory's poll timers and
        # before any ReplaySource, so its dispatch order relative to
        # them is the same on the original host and on every restart.
        self.loop.timeout_add(self.heartbeat_ms, self._beat)
        self.manager = ScopeManager(self.loop)
        if scope_factory is not None:
            scope_factory(self.manager, shard_id)
        self.state = ShardState.RUNNING
        self.stats = stats if stats is not None else SupervisionStats()
        self._inbox: Deque[_Delivery] = deque()
        self.crash_error: Optional[BaseException] = None
        #: WAL samples re-driven by :meth:`restore`.
        self.replayed_samples = 0

    def _beat(self, lost: int = 0) -> bool:
        self.beats += 1
        return True

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def ingest(self, name: str, times, values) -> int:
        """Push at the current private-loop instant, with accounting.

        An exception out of the manager quarantines the host (state →
        CRASHED, error retained) and surfaces as :class:`ShardDown`: a
        poisoned batch must not wedge the router loop, and the WAL-based
        restart gets a chance to re-run history without it being
        re-offered live.

        Ingest is a *trusted* delivery edge (everything reaching it was
        validated at the router/server boundary): reserved ``__obs.``
        columns — live from a publisher upstream, or re-driven from the
        WAL during restart catch-up — enter through ``push_obs`` and
        deliver like any other signal.
        """
        try:
            if name.startswith(RESERVED_PREFIX):
                accepted = self.manager.push_obs(name, times, values)
            else:
                accepted = self.manager.push_samples(name, times, values)
        except Exception as exc:
            self.crash(exc)
            raise ShardDown(
                f"shard {self.shard_id} ingest raised: {exc!r}"
            ) from exc
        self.stats.tally(len(times), accepted)
        return accepted

    def deliver(self, now: float, name: str, times, values) -> int:
        """Deliver one routed push at router instant ``now``.

        RUNNING: advance the private loop through ``now`` (polls and
        heartbeats due at or before it dispatch first) and ingest.
        STALLED: park a copy in the inbox — acceptance unknown, report 0
        for now; :meth:`resume` settles the truth.  CRASHED: raise
        :class:`ShardDown` (the caller's WAL already holds the batch).
        """
        if self.state is ShardState.CRASHED:
            raise ShardDown(f"shard {self.shard_id} is down")
        if self.state is ShardState.STALLED:
            self._inbox.append(
                _Delivery(
                    float(now),
                    name,
                    np.array(times, dtype=np.float64, copy=True),
                    np.array(values, dtype=np.float64, copy=True),
                )
            )
            return 0
        self.loop.run_through(now)
        return self.ingest(name, times, values)

    def advance(self, now: float) -> None:
        """Advance the private loop to the router instant (monitor tick).

        Only a RUNNING host advances — that is precisely what makes a
        stalled or crashed host's heartbeat freeze and the failure
        detectable.
        """
        if self.state is ShardState.RUNNING:
            self.loop.run_through(now)

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """The data plane and ingest ledger at this host's current instant.

        Only a RUNNING host may snapshot: a stalled host's parked inbox
        (and a crashed host's lost one) holds WAL'd-but-unapplied
        deliveries the capture would silently drop.
        """
        if self.state is not ShardState.RUNNING:
            raise ShardDown(
                f"shard {self.shard_id} is {self.state.value}; only a RUNNING "
                "shard can snapshot (parked deliveries would be lost)"
            )
        return {
            "now": self.loop.clock.now(),
            "manager": self.manager.state_dict(),
            "stats": {key: getattr(self.stats, key) for key in _LEDGER},
        }

    def restore(
        self,
        state_path: Optional[Union[str, Path]],
        wal_path: Optional[Union[str, Path]],
        now: float,
    ) -> None:
        """Catch this fresh host up through router instant ``now``.

        The one restart path, in-process and in a worker child alike.
        A rotation snapshot at ``state_path`` holds everything up to its
        instant: dry-advance there (the factory's timers reproduce the
        polls and beats deterministically), load the captured data plane
        and ledger over it.  Then the WAL segments under ``wal_path``
        (only the post-rotation suffix; a torn tail from a real process
        kill is skipped by ``recover_tail``) replay at their recorded
        instants through ``now``.  A damaged state file raises
        :class:`~repro.capture.format.CaptureFormatError`.
        """
        if state_path is not None and Path(state_path).exists():
            snap = read_state_file(state_path)
            self.loop.run_through(float(snap["now"]))
            self.manager.load_state(snap["manager"])
            for key in _LEDGER:
                setattr(self.stats, key, int(snap["stats"][key]))
        if wal_path is not None and any(Path(wal_path).glob("*.gseg")):
            with CaptureReader(wal_path, recover_tail=True) as reader:
                source = ReplaySource(reader, _HostTarget(self))
                self.loop.attach(source)
                # Every WAL'd push happened at or before ``now``: the
                # source runs dry and detaches itself before the close.
                self.loop.run_through(float(now))
            self.replayed_samples = source.delivered_samples
        else:
            self.loop.run_through(float(now))

    # ------------------------------------------------------------------
    # Fault injection / recovery hooks
    # ------------------------------------------------------------------
    def stall(self) -> None:
        """Wedge the host: deliveries park, the heartbeat freezes."""
        if self.state is ShardState.RUNNING:
            self.state = ShardState.STALLED

    def resume(self) -> None:
        """Clear a stall, draining parked deliveries in recorded order.

        Each entry replays at its recorded router instant — the loop
        runs through it first, exactly as the live path would have — so
        a survived stall is byte-identical to no stall at all.
        """
        if self.state is not ShardState.STALLED:
            return
        self.state = ShardState.RUNNING
        while self._inbox:
            entry = self._inbox.popleft()
            self.loop.run_through(entry.now)
            self.ingest(entry.name, entry.times, entry.values)

    def crash(self, error: Optional[BaseException] = None) -> None:
        """Kill the host: inbox lost (WAL-covered), deliveries refused."""
        self.state = ShardState.CRASHED
        self.crash_error = error
        self._inbox.clear()


class SupervisedRouter(ShardRouter):
    """The supervision layer, over either shard backend.

    Owns the per-shard WALs (written before every send), the monitor
    timer on the router loop, :meth:`restart_shard` and
    :meth:`snapshot_shard` with WAL rotation.  A backend plugs in three
    hooks: :meth:`_send` (deliver, or count ``lost_deliveries`` when the
    backend is down), :meth:`_failed` (the one-tick liveness verdict)
    and :meth:`_spawn` (respawn: retire the old backend, build a fresh
    one caught up through the router instant).

    The :class:`SupervisionStats` ledgers belong to the router for the
    life of each shard: a restart resets the ingest ledger, the fresh
    backend rebuilds it from the snapshot and the WAL, and every metric
    mount stays live.
    """

    stats_cls = SupervisionStats
    #: Snapshot a shard right after its restart, retiring the replayed
    #: WAL history at once.
    rotate_on_restart = False

    def __init__(
        self,
        loop: MainLoop,
        wal_root: Union[str, Path],
        shards: int,
        scope_factory: Optional[ScopeFactory],
        monitor_interval_ms: float,
        segment_samples: int,
    ) -> None:
        self.wal_root = Path(wal_root)
        self.scope_factory = scope_factory
        self.monitor_interval_ms = float(monitor_interval_ms)
        self.segment_samples = int(segment_samples)
        self._monitor_id: Optional[int] = None
        self._restart_epoch = 0  # bumps topology_version on every restart
        self._wals = {i: self._new_wal(i) for i in range(shards)}
        super().__init__(shards, loop)

    def _new_wal(self, shard_id: int) -> CaptureWriter:
        return CaptureWriter(
            self.wal_root / f"shard-{shard_id:02d}",
            segment_samples=self.segment_samples,
        )

    # ------------------------------------------------------------------
    # Backend hooks
    # ------------------------------------------------------------------
    def _send(self, shard_id: int, now: float, name: str, times, values) -> int:
        """Deliver a WAL'd push; count it lost if the backend is down."""
        raise NotImplementedError

    def _failed(self, shard_id: int, now: float) -> bool:
        """One monitor tick's liveness verdict: True restarts the shard."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Monitor lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the liveness monitor on the router loop."""
        if self._monitor_id is None:
            self._monitor_id = self.loop.timeout_add(
                self.monitor_interval_ms, self._monitor
            )

    def stop(self) -> None:
        """Disarm the monitor (faults go undetected while stopped)."""
        if self._monitor_id is not None:
            self.loop.remove(self._monitor_id)
            self._monitor_id = None

    def _monitor(self, lost: int = 0) -> bool:
        now = self.loop.clock.now()
        for shard_id in sorted(self._backends):
            if self._failed(shard_id, now):
                self.restart_shard(shard_id)
        return True

    # ------------------------------------------------------------------
    # WAL-before-send
    # ------------------------------------------------------------------
    def push_obs(self, name: str, times, values) -> int:
        """Trusted reserved-namespace entry: WAL first, then deliver.

        A push that lands on a dead backend returns 0 to the caller, but
        the WAL already holds it: the restart replays it into the fresh
        backend at this exact instant, so nothing is lost end to end.
        """
        n = len(times)
        if n == 0:
            return 0
        shard_id = self.shard_of(name)
        now = self.loop.clock.now()
        self._wals[shard_id].on_push(name, times, values, now)
        self._stats[shard_id].wal_bytes += 16 * n  # two float64 columns
        return self._send(shard_id, now, name, times, values)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def restart_shard(self, shard_id: int):
        """Replace a dead backend and catch it up: snapshot + WAL replay.

        The WAL's partial segment is flushed first so the fresh backend
        sees every recorded push; the replacement is built at the
        router's current instant and caught up before this returns, so
        no new delivery can race the recovery.  Per the module argument,
        the result is byte-identical to a backend that never died.
        """
        self._wals[shard_id].flush_segment()
        now = self.loop.clock.now()
        stats = self._stats[shard_id]
        stats.restarts += 1
        stats.last_restart_at = now
        for key in _LEDGER:
            setattr(stats, key, 0)
        backend = self._backends[shard_id] = self._spawn(shard_id, now)
        stats.replayed_samples = backend.replayed_samples
        self._restart_epoch += 1
        if self.rotate_on_restart:
            self.snapshot_shard(shard_id)
        return backend

    def state_path(self, shard_id: int) -> Path:
        """Snapshot file for one shard (sibling of its WAL directory)."""
        return self.wal_root / f"shard-{shard_id:02d}.state"

    def snapshot_shard(self, shard_id: int) -> dict:
        """Snapshot one shard's data plane and retire its WAL segments.

        The backend advances through the router's current instant (so
        the state is pinned to *now*), its data plane and ingest ledger
        go atomically to :meth:`state_path`, and every WAL segment — all
        covered by the snapshot — is deleted, with a fresh writer
        continuing in the same directory (segment numbering restarts at
        zero, preserving the reader's contiguous-from-0 contract).  A
        backend that cannot pin its state — a stalled or crashed host, a
        dead worker, a damaged snapshot reply — raises, and the WAL is
        left intact.
        """
        backend = self._backends[shard_id]
        backend.advance(self.loop.clock.now())
        snap = backend.snapshot_state()
        write_state_file(self.state_path(shard_id), snap)
        wal = self._wals[shard_id]
        wal.close()  # flushes the live segment: nothing escapes the snapshot
        for segment in sorted(wal.path.glob("*.gseg")):
            segment.unlink()
        self._wals[shard_id] = self._new_wal(shard_id)
        return snap

    def close(self, timeout_s: float = 10.0) -> None:
        """Stop monitoring, release the backends, seal the WALs."""
        self.stop()
        super().close(timeout_s)
        for wal in self._wals.values():
            wal.close()


class ShardSupervisor(SupervisedRouter):
    """Supervised in-process shard hosts behind the router.

    Satisfies the manager protocol a
    :class:`~repro.net.server.ScopeServer` consumes (``push_samples``,
    ``carries``, ``auto_create``, ``topology_version``), so it slots in
    wherever a :class:`~repro.net.shard.ShardedScopeManager` does —
    routing on the same consistent-hash ring — while adding the WAL,
    the heartbeat monitor and replay-catch-up restart.

    Parameters
    ----------
    loop:
        The *router* loop — the one the server, clients and monitor
        share.  Its clock stamps WAL push instants.
    wal_root:
        Directory for the per-shard write-ahead logs
        (``wal_root/shard-NN/``).
    shards:
        Number of shard hosts (ids ``0..shards-1``; ids survive
        restarts, so ring routing never changes under failover).
    scope_factory:
        Deterministic builder ``(manager, shard_id) -> None`` run at
        construction and at every restart.  It should register signals
        and start polling.
    heartbeat_ms / monitor_interval_ms / miss_threshold:
        Failure-detection knobs.  The monitor interval defaults to the
        heartbeat interval and must not be shorter (a healthy host
        advances at least one beat per tick); a host whose beats freeze
        for ``miss_threshold`` consecutive ticks restarts.  Detection
        latency is therefore bounded by
        ``(miss_threshold + 1) * monitor_interval_ms``.
    segment_samples:
        WAL segment flush threshold (smaller = more, smaller segments).
    rotate_on_restart:
        Snapshot each restarted shard at once (see
        :attr:`SupervisedRouter.rotate_on_restart`).
    """

    def __init__(
        self,
        loop: MainLoop,
        wal_root: Union[str, Path],
        shards: int = 4,
        scope_factory: Optional[ScopeFactory] = None,
        heartbeat_ms: float = 50.0,
        monitor_interval_ms: Optional[float] = None,
        miss_threshold: int = 3,
        segment_samples: int = 1 << 12,
        auto_start: bool = True,
        rotate_on_restart: bool = False,
    ) -> None:
        if miss_threshold <= 0:
            raise ValueError(f"miss_threshold must be positive: {miss_threshold}")
        interval = heartbeat_ms if monitor_interval_ms is None else monitor_interval_ms
        if interval < heartbeat_ms:
            raise ValueError(
                "monitor interval shorter than the heartbeat would declare "
                f"healthy hosts dead: {interval} < {heartbeat_ms}"
            )
        self.heartbeat_ms = float(heartbeat_ms)
        self.miss_threshold = int(miss_threshold)
        self.rotate_on_restart = bool(rotate_on_restart)
        self._beats_seen: Dict[int, int] = {}
        self._frozen_ticks: Dict[int, int] = {}
        #: Replaced hosts, retained for post-mortem (``crash_error``).
        self.quarantined: List[ShardHost] = []
        super().__init__(
            loop, wal_root, shards, scope_factory, interval, segment_samples
        )
        if auto_start:
            self.start()

    def _spawn(self, shard_id: int, now: float) -> ShardHost:
        host = ShardHost(
            shard_id, self.scope_factory, self.heartbeat_ms, stats=self._stats[shard_id]
        )
        host.restore(self.state_path(shard_id), self._wals[shard_id].path, now)
        if shard_id in self._backends:
            self.quarantined.append(self._backends[shard_id])
        self._beats_seen[shard_id] = host.beats
        self._frozen_ticks[shard_id] = 0
        return host

    def _send(self, shard_id: int, now: float, name: str, times, values) -> int:
        try:
            return self._backends[shard_id].deliver(now, name, times, values)
        except ShardDown:
            self._stats[shard_id].lost_deliveries += 1
            return 0

    def _failed(self, shard_id: int, now: float) -> bool:
        host = self._backends[shard_id]
        if host.state is ShardState.CRASHED:
            # Explicit crash (injection or ingest quarantine): no need
            # to wait out missed beats.
            return True
        host.advance(now)
        if host.beats != self._beats_seen[shard_id]:
            self._beats_seen[shard_id] = host.beats
            self._frozen_ticks[shard_id] = 0
            return False
        self._stats[shard_id].missed_beats += 1
        self._frozen_ticks[shard_id] += 1
        return self._frozen_ticks[shard_id] >= self.miss_threshold

    # ------------------------------------------------------------------
    # Fault injection passthrough (shard-role faults)
    # ------------------------------------------------------------------
    def crash_shard(self, shard_id: int) -> None:
        self._backends[shard_id].crash()

    def stall_shard(self, shard_id: int) -> None:
        self._backends[shard_id].stall()

    def resume_shard(self, shard_id: int) -> None:
        self._backends[shard_id].resume()

    # ------------------------------------------------------------------
    # Hosts + manager protocol
    # ------------------------------------------------------------------
    @property
    def hosts(self) -> List[ShardHost]:
        return [self._backends[i] for i in sorted(self._backends)]

    def host(self, shard_id: int) -> ShardHost:
        """The current host for an explicit shard id."""
        return self._backend(shard_id)

    @property
    def topology_version(self) -> int:
        """Folds restarts in: a fresh manager invalidates carried caches."""
        return self._restart_epoch * 1_000_003 + sum(
            host.manager.topology_version for host in self._backends.values()
        )

    def carries(self, name: str) -> bool:
        return self._backends[self.shard_of(name)].manager.carries(name)

    def auto_create(self, name: str) -> bool:
        return self._backends[self.shard_of(name)].manager.auto_create(name)


class ProcessShardSupervisor(SupervisedRouter, WorkerPlane):
    """Supervised worker *processes* behind the router, with respawn.

    The process counterpart of :class:`ShardSupervisor`: the same ring
    and the same supervision layer, but the shard hosts live in child
    processes behind :class:`~repro.net.worker.WorkerHandle` links, so a
    worker can genuinely die (``kill -9``) and recovery is a real
    OS-level respawn:

    * every push is WAL'd on the router side *before* the non-blocking
      send, so bytes in flight to a dying process are never lost;
    * liveness is OS-truth first — ``Process.is_alive()`` (immediate for
      a SIGKILLed child), a broken pipe and a crash report all mark the
      worker dead — with control-channel silence past
      :data:`BEAT_GRACE_S` as a backstop for wedged-but-alive children;
    * respawn is synchronous: the WAL is flushed, a fresh worker starts
      with ``wal_path``/``state_path``, runs :meth:`ShardHost.restore`,
      and only then sends ``ready`` — the router cannot race new traffic
      past recovery, so the restarted worker is byte-identical to one
      that never died (the in-process equivalence argument, plus the
      socket's total order).

    :meth:`snapshot_shard` piggybacks on that same order: the snapshot
    request is queued *behind* every prior delivery, so the captured
    state provably covers everything WAL'd, and the segments can be
    retired the moment the state file lands.  :meth:`drain` rides it
    too: one ``stats`` round trip per worker.  The liveness monitor
    starts at construction.
    """

    def __init__(
        self,
        loop: MainLoop,
        wal_root: Union[str, Path],
        shards: int = 4,
        scope_factory: Optional[ScopeFactory] = None,
        monitor_interval_ms: float = 50.0,
        segment_samples: int = 1 << 12,
    ) -> None:
        super().__init__(
            loop, wal_root, shards, scope_factory, monitor_interval_ms, segment_samples
        )
        self.start()

    def _spawn(self, shard_id: int, now: float) -> WorkerHandle:
        old = self._backends.get(shard_id)
        if old is not None:
            old.kill()  # usually already dead
            old.close(timeout_s=2.0)
        return WorkerHandle(
            shard_id,
            self.scope_factory,
            wal_path=self._wals[shard_id].path,
            state_path=self.state_path(shard_id),
            start_now=now,
            loop=self.loop,
        )

    def _send(self, shard_id: int, now: float, name: str, times, values) -> int:
        handle = self._backends[shard_id]
        stats = self._stats[shard_id]
        if not self._live(handle):
            stats.lost_deliveries += 1
            return 0
        offered = handle.deliver(now, name, times, values)
        stats.offered += offered
        return offered

    def _failed(self, shard_id: int, now: float) -> bool:
        handle = self._backends[shard_id]
        if handle.failed():
            return True
        handle.advance(now)
        if handle.beat_age_s() > BEAT_GRACE_S:
            self._stats[shard_id].missed_beats += 1
            return True
        return False

    def ensure_alive(self) -> None:
        """Respawn any dead worker immediately (no waiting on a tick)."""
        for shard_id in sorted(self._backends):
            if self._backends[shard_id].failed():
                self.restart_shard(shard_id)

    def kill_shard(self, shard_id: int) -> None:
        """SIGKILL one worker process (the fault the WAL exists for)."""
        self._backends[shard_id].kill()

    @property
    def topology_version(self) -> int:
        return self._restart_epoch

    def drain(self, timeout_s: float = 60.0) -> None:
        """Respawn the dead, then block until every worker has ingested
        every sample the WAL holds.

        The drain target is the WAL ledger, not the live-send ledger: a
        respawned worker's ``offered`` covers replayed *and* live
        samples, and the WAL count is exactly that union.  A worker
        reporting any other count raises
        :class:`~repro.net.worker.WorkerDied`.
        """
        self.ensure_alive()
        self._drain_to(lambda sid: self._stats[sid].wal_bytes // 16, timeout_s)

    def snapshot_state(self, shard_id: int, timeout_s: float = 30.0) -> dict:
        """Fetch one worker's full data-plane state (ordered past all sends)."""
        return self._backends[shard_id].snapshot_state(timeout_s=timeout_s)
