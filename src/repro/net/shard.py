"""Sharded telemetry fan-in: partitioning the signal namespace.

One :class:`~repro.core.manager.ScopeManager` fans every sample out over
one set of scopes; at production fan-in scale (many clients, many
signals) that single registry becomes the ingest bottleneck.  The shard
planes split the *signal namespace* across N shards by a stable hash of
the signal name, so:

* routing is O(1) and deterministic — the same name lands on the same
  shard on every run and every host (a keyed BLAKE2 ring, not Python's
  salted ``hash``),
* per-shard counters expose the backpressure story: a shard whose
  scopes fall behind shows up as late-drops *on that shard*, mirroring
  the paper's Section 4.4 rule (data arriving after its display slot is
  dropped immediately, and the drop is counted, not hidden).

One router, several backends
----------------------------

:class:`ShardRouter` is the part every plane shares: the ring and its
route cache (:meth:`~ShardRouter.shard_of`), the ``__obs.`` gate on user
pushes, the per-shard ledgers with their retired fold, the metric mounts
and the close/context-manager lifecycle.  Each plane is a small
configuration of it over one kind of shard backend:

* :class:`ShardedScopeManager` — bare per-shard managers on the caller's
  loop (this module);
* :class:`ProcessShardedScopeManager` — one worker process per shard,
  fed DELIVER frames over a socketpair, the only path into a worker
  (this module, over :mod:`repro.net.worker`); its :meth:`drain
  <ProcessShardedScopeManager.drain>` is one ordered ``stats`` round
  trip per worker;
* :class:`~repro.net.supervisor.ShardSupervisor` and
  :class:`~repro.net.supervisor.ProcessShardSupervisor` — the same two
  backends behind one supervision layer (WAL-before-send, liveness
  monitor, restart by snapshot restore plus WAL replay).

Consistent hashing
------------------

Placement runs on a :class:`HashRing`: each shard owns
:data:`DEFAULT_REPLICAS` pseudo-random points on a 64-bit circle and a
name belongs to the shard owning the first point clockwise of the
name's hash.  Unlike ``hash mod N``, membership changes are *local*:
adding or removing one shard remaps only the keys that fall into the
changed arcs — about ``1/N`` of the namespace — instead of reshuffling
nearly everything.  That is what makes shard add/remove
(:meth:`ShardedScopeManager.add_shard` /
:meth:`~ShardedScopeManager.remove_shard`) and supervised failover
affordable on a live namespace.  Every membership change bumps
``topology_version``, which invalidates the router's own routing cache
and every downstream carried-name cache (the server's auto-create path
keys on it).

The in-process planes satisfy the manager protocol the
:class:`~repro.net.server.ScopeServer` consumes (``push_samples``,
``carries``, ``auto_create``, ``topology_version``), so a server can be
pointed at either interchangeably.

Placement contract: a signal lives on its home shard,
``shard_of(name)``.  ``scope_new`` places each scope on the shard of
the *scope's* name by default (override with ``shard=``); register a
signal on a scope whose shard matches the signal's home —
``signal_home`` tells you which that is — or simply let ``auto_create``
do it.  Pushes route to the home shard only; a scope on a foreign shard
never sees the signal, by design (that is what makes routing O(1)).
After a membership change, rebalancing migrates each *scope* to its
name's new home; a signal whose home moved away from its carrying scope
is re-registered on its new home by ``auto_create`` (or explicitly).
"""

from __future__ import annotations

import hashlib
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.cells import Counter, cell_property
from repro.core.manager import ScopeManager, check_user_name
from repro.core.scope import Scope, ScopeError
from repro.eventloop.loop import MainLoop
from repro.net.worker import WorkerHandle

try:  # optional self-instrumentation plane (absence changes no bytes)
    from repro.obs import trace as _trace
except ImportError:  # pragma: no cover - obs package absent
    _trace = None

__all__ = [
    "DEFAULT_REPLICAS",
    "HashRing",
    "ProcessShardedScopeManager",
    "ShardRouter",
    "ShardStats",
    "ShardedScopeManager",
    "shard_of",
]

#: Points per shard on the ring.  Enough that per-shard ownership stays
#: within ~±30% of 1/N (relative sd ≈ 1/sqrt(replicas) ≈ 8.8%), so a
#: single add/remove remaps well under 1.5/N of a random namespace.
DEFAULT_REPLICAS = 128


def _point(key: bytes) -> int:
    """Deterministic 64-bit ring coordinate (process/interpreter stable)."""
    return int.from_bytes(hashlib.blake2b(key, digest_size=8).digest(), "big")


class HashRing:
    """Consistent-hash ring mapping names to shard ids.

    Each shard id contributes :data:`DEFAULT_REPLICAS` points at
    ``blake2b(b"shard:<id>#<r>")``; a name lands on the shard owning the
    first point at or clockwise past ``blake2b(name)``.  Lookup is one
    hash plus one binary search over a sorted point array.
    """

    def __init__(self, shard_ids: Iterable[int] = ()) -> None:
        self._ids: List[int] = sorted(set(int(i) for i in shard_ids))
        self._build()

    def _build(self) -> None:
        points = [
            (_point(b"shard:%d#%d" % (sid, r)), sid)
            for sid in self._ids
            for r in range(DEFAULT_REPLICAS)
        ]
        points.sort()
        self._points = np.array([p for p, _ in points], dtype=np.uint64)
        self._owners = np.array([o for _, o in points], dtype=np.int64)

    # -- membership -----------------------------------------------------
    @property
    def shard_ids(self) -> List[int]:
        return list(self._ids)

    def __len__(self) -> int:
        return len(self._ids)

    def __contains__(self, shard_id: int) -> bool:
        return shard_id in self._ids

    def add(self, shard_id: int) -> None:
        if shard_id in self._ids:
            raise ValueError(f"shard {shard_id} already on the ring")
        self._ids.append(int(shard_id))
        self._ids.sort()
        self._build()

    def remove(self, shard_id: int) -> None:
        try:
            self._ids.remove(int(shard_id))
        except ValueError:
            raise ValueError(f"shard {shard_id} is not on the ring") from None
        self._build()

    # -- lookup ---------------------------------------------------------
    def locate(self, name: str) -> int:
        """Home shard id for ``name``."""
        if not self._ids:
            raise ValueError("cannot route on an empty ring")
        h = _point(name.encode("utf-8"))
        index = int(np.searchsorted(self._points, np.uint64(h), side="left"))
        if index == len(self._points):
            index = 0  # wrap: past the last point lands on the first
        return int(self._owners[index])


@lru_cache(maxsize=64)
def _default_ring(n_shards: int) -> HashRing:
    return HashRing(range(n_shards))


def shard_of(name: str, n_shards: int) -> int:
    """Stable shard index for a signal name on a fresh N-shard ring."""
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive: {n_shards}")
    return _default_ring(n_shards).locate(name)


class ShardStats:
    """Per-shard ingest accounting (the backpressure counters).

    ``tap_bytes`` and ``wal_bytes`` track the byte cost of the shard's
    durability plumbing: column bytes offered to capture taps and
    written ahead to the shard's WAL, respectively (16 bytes per sample
    — two float64 columns).  They ride the same ledger discipline as
    the sample counters: conserved across shard retirement/migration via
    :meth:`fold`.

    Each field is a façade over a :class:`~repro.core.cells.Counter`
    cell, so the same integers the public accessors expose can be
    mounted into a :class:`~repro.obs.metrics.MetricsRegistry`
    (:meth:`register_metrics`) and published as ``__obs.`` samples —
    one source of truth, zero double counting.  Field access semantics
    are dataclass-like: keyword construction, plain attribute
    read/increment/assign.
    """

    #: Integer counter fields, in declaration order.  ``query_quarantines``
    #: counts continuous queries attached on this shard that died
    #: mid-stream (operator failure, observer failure, manager push
    #: failure): a quarantined query detaches itself, and this counter
    #: is how the loss surfaces in shard/supervisor accounting instead
    #: of vanishing.
    COUNTER_FIELDS: Tuple[str, ...] = (
        "offered",
        "accepted",
        "dropped_late",
        "tap_bytes",
        "wal_bytes",
        "query_quarantines",
    )
    #: Non-counter fields (timestamps and the like): plain attributes,
    #: default ``None``, excluded from :meth:`as_dict`/:meth:`fold`.
    SCALAR_FIELDS: Tuple[str, ...] = ()

    def __init__(self, **fields) -> None:
        self._cells: Dict[str, Counter] = {
            name: Counter(name) for name in self.COUNTER_FIELDS
        }
        for name in self.SCALAR_FIELDS:
            setattr(self, name, None)
        for name, value in fields.items():
            if name not in self.COUNTER_FIELDS and name not in self.SCALAR_FIELDS:
                raise TypeError(
                    f"{type(self).__name__} has no field {name!r}"
                )
            setattr(self, name, value)

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._install_cell_properties()

    @classmethod
    def _install_cell_properties(cls) -> None:
        for field in cls.COUNTER_FIELDS:
            if not isinstance(getattr(cls, field, None), property):
                setattr(cls, field, cell_property(field))

    def cell(self, field: str) -> Counter:
        """The live counter cell behind ``field`` (for direct bridging)."""
        return self._cells[field]

    def register_metrics(self, registry, prefix: str) -> None:
        """Mount every counter cell into ``registry`` under ``prefix``.

        The mounted cells *are* the accounting cells — a publisher
        walking the registry sees exactly what :meth:`as_dict` reports.
        """
        for field in self.COUNTER_FIELDS:
            registry.mount(prefix + field, self._cells[field])

    def tally(self, offered: int, accepted: int) -> None:
        """Count one ingested batch: offered, accepted, and the late rest."""
        self.offered += offered
        self.accepted += accepted
        self.dropped_late += offered - accepted

    def as_dict(self) -> Dict[str, int]:
        """Every integer counter, by field name.

        Generic over :attr:`COUNTER_FIELDS` so subclasses adding
        counters (:class:`~repro.net.supervisor.SupervisionStats`) are
        covered without overriding; non-counter fields (timestamps) are
        skipped.
        """
        return {name: self._cells[name].value for name in self.COUNTER_FIELDS}

    def fold(self, other: "ShardStats") -> None:
        """Fold another ledger's counters into this one (retirement).

        Iterates the *shared* counter fields generically, so a counter
        added to any stats class is conserved by every fold site — a
        hardcoded field list here silently dropped new counters from
        retired totals.
        """
        mine = self._cells
        for name, value in other.as_dict().items():
            cell = mine.get(name)
            if cell is not None:
                cell.value += value

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.as_dict() == other.as_dict() and all(
            getattr(self, name) == getattr(other, name)
            for name in self.SCALAR_FIELDS
        )

    def __repr__(self) -> str:
        parts = [f"{name}={self._cells[name].value}" for name in self.COUNTER_FIELDS]
        parts.extend(f"{name}={getattr(self, name)!r}" for name in self.SCALAR_FIELDS)
        return f"{type(self).__name__}({', '.join(parts)})"


ShardStats._install_cell_properties()


class ShardRouter:
    """Routing and accounting shared by every shard plane.

    Owns the :class:`HashRing` and the name → shard route cache, the
    ``__obs.`` gate on user pushes, one :attr:`stats_cls` ledger per
    shard plus the ledger retired shards fold into, their metric mounts,
    and the close/context-manager lifecycle.  A plane supplies its
    backend through :meth:`_spawn` and its delivery through
    :meth:`push_obs`; ``self._backends`` maps shard id → backend.

    Subclasses set whatever :meth:`_spawn` reads before calling this
    constructor: it spawns one backend per shard (and closes the ones
    already up if a spawn fails).
    """

    stats_cls = ShardStats

    def __init__(self, shards: int, loop: Optional[MainLoop]) -> None:
        if shards <= 0:
            raise ValueError(f"shards must be positive: {shards}")
        self.loop = loop if loop is not None else MainLoop()
        self._ring = HashRing(range(shards))
        # name → shard id, invalidated wholesale on membership change.
        self._route_cache: Dict[str, int] = {}
        self._stats = {i: self.stats_cls() for i in range(shards)}
        self._retired = self.stats_cls()  # counters of removed shards
        self._metrics: Optional[Tuple[Any, str]] = None  # (registry, prefix)
        self._backends: Dict[int, Any] = {}
        self._closed = False
        try:
            for shard_id in range(shards):
                self._backends[shard_id] = self._spawn(shard_id, 0.0)
        except BaseException:
            self.close()
            raise

    def _spawn(self, shard_id: int, now: float):
        """A fresh backend for ``shard_id``, caught up through ``now``."""
        raise NotImplementedError

    def _backend(self, shard_id: int):
        try:
            return self._backends[shard_id]
        except KeyError:
            raise ValueError(f"unknown shard id: {shard_id}") from None

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._stats)

    @property
    def shard_ids(self) -> List[int]:
        """Live shard ids, ascending (contiguous until membership changes)."""
        return sorted(self._stats)

    def shard_of(self, name: str) -> int:
        """Home shard id for a signal (or scope) name."""
        shard_id = self._route_cache.get(name)
        if shard_id is None:
            shard_id = self._ring.locate(name)
            self._route_cache[name] = shard_id
        return shard_id

    def push_sample(self, name: str, time_ms: float, value: float) -> int:
        """One sample through :meth:`push_samples`."""
        return self.push_samples(name, (time_ms,), (value,))

    def push_samples(self, name: str, times, values) -> int:
        """Route one signal's columns to its home shard.

        Reserved ``__obs.`` names are rejected *here*, before any WAL
        write or send: shard backends treat their delivery edge as
        trusted, so an unchecked reserved push would become durable
        history or poison a worker instead of erroring at the caller.
        The self-instrumentation publisher enters through
        :meth:`push_obs`.
        """
        check_user_name(name)
        return self.push_obs(name, times, values)

    def push_obs(self, name: str, times, values) -> int:
        """Trusted reserved-namespace entry: same routing and accounting."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    def shard_stats(self) -> List[ShardStats]:
        """Per-shard counters, in shard-id order (live references)."""
        return [self._stats[i] for i in sorted(self._stats)]

    def totals(self) -> Dict[str, int]:
        """Counters summed across shards (including retired ones)."""
        out = self._retired.as_dict()
        for stats in self._stats.values():
            for key, value in stats.as_dict().items():
                out[key] = out.get(key, 0) + value
        return out

    def register_metrics(self, registry, prefix: str = "shard") -> None:
        """Mount per-shard ledgers as ``<prefix><id>.<field>`` cells.

        ``__obs.shard0.dropped_late`` — a typical derived-query source —
        is exactly shard 0's live ``dropped_late`` cell published by a
        :class:`~repro.obs.metrics.MetricsPublisher` walking this
        registry.  The ledgers live as long as their shard
        (restarts reuse them), so one mount stays live; membership
        changes re-mount, with the retired ledger under
        ``<prefix>_retired.`` so folded history stays visible.
        """
        self._metrics = (registry, prefix)
        for shard_id in sorted(self._stats):
            self._stats[shard_id].register_metrics(registry, f"{prefix}{shard_id}.")
        # Underscore, not a dot or dash: the query lexer's NAME token
        # accepts [A-Za-z0-9_.] so the retired ledger stays queryable.
        self._retired.register_metrics(registry, f"{prefix}_retired.")

    def _remount_metrics(self) -> None:
        if self._metrics is not None:
            registry, prefix = self._metrics
            registry.unmount_prefix(prefix)
            self.register_metrics(registry, prefix)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, timeout_s: float = 10.0) -> None:
        """Release the backends (idempotent)."""
        self._closed = True

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardedScopeManager(ShardRouter):
    """N per-shard :class:`ScopeManager`\\ s behind one routing facade.

    Every shard's manager rides the caller's ``loop`` (default: one
    fresh loop), so scope polls, taps and continuous queries all run on
    it.  The ring resizes live via :meth:`add_shard`/:meth:`remove_shard`.

    Parameters
    ----------
    shards:
        Initial number of partitions (shard ids ``0..shards-1``).
    loop:
        The main loop every shard shares.
    """

    def __init__(self, shards: int = 4, loop: Optional[MainLoop] = None) -> None:
        self._epoch = 0  # bumps on every ring membership change
        self._next_id = shards
        # Taps attached through this facade (for tap_bytes accounting).
        self._tap_count = 0
        super().__init__(shards, loop)

    def _spawn(self, shard_id: int, now: float) -> ScopeManager:
        return ScopeManager(self.loop)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @property
    def managers(self) -> List[ScopeManager]:
        """The per-shard managers, in shard-id order."""
        return [self._backends[i] for i in sorted(self._backends)]

    def manager_of(self, shard_id: int) -> ScopeManager:
        """The manager for an explicit shard id."""
        return self._backend(shard_id)

    def signal_home(self, name: str) -> ScopeManager:
        """The shard manager that owns signal ``name``."""
        return self._backends[self.shard_of(name)]

    # ------------------------------------------------------------------
    # Ring membership (rebalancing)
    # ------------------------------------------------------------------
    def _migrate_scopes(self) -> int:
        """Move every scope to its name's (possibly new) home shard.

        Returns the number of scopes that moved.
        """
        moved = 0
        for shard_id in sorted(self._backends):
            manager = self._backends[shard_id]
            for scope in manager.scopes:
                home = self.shard_of(scope.name)
                if home != shard_id:
                    self._backends[home].adopt_scope(manager.release_scope(scope.name))
                    moved += 1
        return moved

    def _bump_ring(self) -> None:
        self._epoch += 1
        self._route_cache.clear()

    def add_shard(self) -> int:
        """Add one shard; remap (and migrate) ~1/N of the namespace.

        Returns the new shard id.
        """
        shard_id = self._next_id
        self._next_id += 1
        self._backends[shard_id] = self._spawn(shard_id, self.loop.clock.now())
        self._stats[shard_id] = self.stats_cls()
        self._ring.add(shard_id)
        self._bump_ring()
        self._migrate_scopes()
        self._remount_metrics()
        return shard_id

    def remove_shard(self, shard_id: int) -> None:
        """Retire a shard; its ~1/N arc remaps to the survivors.

        The retired shard's scopes migrate to their names' new homes
        and its ingest counters fold into the retained totals, so
        :meth:`totals` keeps counting its traffic.
        """
        if shard_id not in self._backends:
            raise ValueError(f"unknown shard id: {shard_id}")
        if len(self._backends) == 1:
            raise ValueError("cannot remove the last shard")
        self._ring.remove(shard_id)
        self._bump_ring()
        retiring = self._backends.pop(shard_id)
        for scope in retiring.scopes:
            home = self.shard_of(scope.name)
            self._backends[home].adopt_scope(retiring.release_scope(scope.name))
        self._retired.fold(self._stats.pop(shard_id))
        self._migrate_scopes()
        self._remount_metrics()

    # ------------------------------------------------------------------
    # Scope lifecycle (delegated to the owning shard)
    # ------------------------------------------------------------------
    def scope_new(
        self, name: str, shard: Optional[int] = None, **kwargs: object
    ) -> Scope:
        """Create a scope on ``shard`` (default: the name's home shard)."""
        shard_id = self.shard_of(name) if shard is None else shard
        if shard_id not in self._backends:
            raise ValueError(f"shard id out of range: {shard_id}")
        return self._backends[shard_id].scope_new(name, **kwargs)

    def _owner(self, name: str) -> ScopeManager:
        for manager in self._backends.values():
            if name in manager:
                return manager
        raise ScopeError(f"unknown scope: {name!r}")

    def scope_remove(self, name: str) -> None:
        self._owner(name).scope_remove(name)

    def scope(self, name: str) -> Scope:
        return self._owner(name).scope(name)

    def __contains__(self, name: str) -> bool:
        return any(name in manager for manager in self._backends.values())

    def __len__(self) -> int:
        return sum(len(manager) for manager in self._backends.values())

    @property
    def scopes(self) -> List[Scope]:
        """Every scope across every shard, in shard-id order."""
        return [scope for manager in self.managers for scope in manager.scopes]

    # ------------------------------------------------------------------
    # Capture taps
    # ------------------------------------------------------------------
    def add_tap(self, tap) -> None:
        """Attach one push tap across every shard.

        A push routes to exactly one home shard, so the tap still sees
        each offered batch once; the capture interleaves all shards into
        one store.  For the scalable one-segment-stream-per-shard
        layout, :func:`repro.capture.capture_sharded` taps each
        per-shard manager with its own writer instead.
        """
        for manager in self._backends.values():
            manager.add_tap(tap)
        self._tap_count += 1

    def remove_tap(self, tap) -> None:
        for manager in self._backends.values():
            manager.remove_tap(tap)
        self._tap_count -= 1

    # ------------------------------------------------------------------
    # Continuous queries
    # ------------------------------------------------------------------
    def attach_query(
        self, query: str, params: Optional[Dict[str, float]] = None
    ):
        """Attach a continuous query as a facade-wide tap.

        The query taps every shard (pushes route to one home shard, so
        each offered batch is consumed once) and its derived outputs are
        pushed back through the facade, landing on *their* home shards —
        sources and outputs may therefore live on different shards.
        Bind-time ``$name`` parameters substitute before compilation.
        A mid-stream failure quarantines the query and is counted on the
        first source's home shard (``query_quarantines``).
        """
        from repro.query import LiveQuery, bind_params, compile_query

        plan = compile_query(bind_params(query, params))
        live = LiveQuery(plan, self)
        home = self.shard_of(sorted(plan.source_names)[0])

        def count_quarantine(_live, _exc, shard_id=home) -> None:
            stats = self._stats.get(shard_id)
            if stats is not None:
                stats.query_quarantines += 1

        live.on_quarantine(count_quarantine)
        return live

    # ------------------------------------------------------------------
    # Manager protocol (what ScopeServer consumes)
    # ------------------------------------------------------------------
    @property
    def topology_version(self) -> int:
        """Changes whenever any shard's scope set — or the ring — changes.

        Membership changes remap names across shards, so every cached
        name→carrier conclusion is stale even though no single manager's
        scope set changed; folding the ring epoch in makes downstream
        caches (the server's auto-create path, the routing cache) see
        one monotonic invalidation signal.
        """
        return self._epoch * 1_000_003 + sum(
            manager.topology_version for manager in self._backends.values()
        )

    def carries(self, name: str) -> bool:
        """True when the name's home shard carries the signal."""
        return self.signal_home(name).carries(name)

    def auto_create(self, name: str) -> bool:
        """Auto-register ``name`` on its home shard's first scope."""
        return self.signal_home(name).auto_create(name)

    def push_samples(self, name: str, times, values) -> int:
        """Route one signal's columns to its home shard.

        Returns how many samples a scope accepted; the shortfall is
        counted as that shard's late drops — the slow-consumer signal
        (a shard whose display loop lags sees samples arrive past their
        slot and sheds them, per Section 4.4).

        User pushes go through the home manager's own ``push_samples``,
        whose reserved-name check is the gate here; internal telemetry
        enters through :meth:`push_obs`.
        """
        if _trace is not None and _trace._tracer is not None:
            with _trace.span("route", signal=name, n=len(times)):
                return self._route(name, times, values, trusted=False)
        return self._route(name, times, values, trusted=False)

    def push_obs(self, name: str, times, values) -> int:
        """Trusted reserved-namespace entry: identical routing/accounting.

        This is what lets a :class:`~repro.obs.metrics.MetricsPublisher`
        sink straight into the sharded facade — ``__obs.`` samples ride
        the same ring, the same shard ledgers, the same taps.
        """
        return self._route(name, times, values, trusted=True)

    def _route(self, name: str, times, values, trusted: bool) -> int:
        shard_id = self.shard_of(name)
        manager = self._backends[shard_id]
        accepted = (manager.push_obs if trusted else manager.push_samples)(
            name, times, values
        )
        stats = self._stats[shard_id]
        offered = len(times)
        stats.tally(offered, accepted)
        if self._tap_count:
            stats.tap_bytes += 16 * offered * self._tap_count
        return accepted

    # ------------------------------------------------------------------
    # Coordinated control
    # ------------------------------------------------------------------
    def start_all(self) -> None:
        for manager in self._backends.values():
            manager.start_all()

    def stop_all(self) -> None:
        for manager in self._backends.values():
            manager.stop_all()

    def run_for(self, duration_ms: float) -> None:
        """Drive the shared loop for ``duration_ms``."""
        self.loop.run_for(duration_ms)


#: The ledger fields a worker's ``stats`` reply carries to the router.
_REMOTE_LEDGER = ("offered", "accepted", "dropped_late", "query_quarantines")


class WorkerPlane(ShardRouter):
    """What both process planes share: one :class:`WorkerHandle` per shard.

    Liveness-aware advance, the remote-ledger pull, drain-to-target,
    the per-worker wall gauge and worker shutdown.  The late-drop
    verdicts are made in the children, so :meth:`totals` is exact as of
    the last :meth:`refresh_stats` or drain.
    """

    def handle_of(self, shard_id: int) -> WorkerHandle:
        """The worker handle for an explicit shard id."""
        return self._backend(shard_id)

    def _live(self, handle: WorkerHandle) -> bool:
        return handle.is_alive() and not handle.link_down

    def advance_all(self, now: Optional[float] = None) -> None:
        """Advance every live worker's private clock to the router instant.

        Without traffic a worker's loop only moves on messages; this is
        the monitor-tick equivalent that keeps polls and heartbeats
        going on idle shards.
        """
        if now is None:
            now = self.loop.clock.now()
        for handle in self._backends.values():
            if self._live(handle):
                handle.advance(now)

    def _pull(self, shard_id: int, remote: Dict[str, Any]) -> None:
        stats = self._stats[shard_id]
        for key in _REMOTE_LEDGER:
            setattr(stats, key, int(remote[key]))

    def refresh_stats(self, timeout_s: float = 10.0) -> None:
        """Pull each worker's ingest ledger into the router-side stats."""
        for shard_id, handle in self._backends.items():
            self._pull(shard_id, handle.stats(timeout_s=timeout_s))

    def _drain_to(self, target: Callable[[int], int], timeout_s: float) -> None:
        """One ordered ``stats`` round trip per worker, into the ledgers.

        Raises :class:`~repro.net.worker.WorkerDied` when a worker died,
        stays silent past ``timeout_s``, or reports an ``offered`` other
        than ``target(shard_id)`` (see :meth:`WorkerHandle.drain`).
        """
        for shard_id in sorted(self._backends):
            handle = self._backends[shard_id]
            self._pull(shard_id, handle.drain(target(shard_id), timeout_s=timeout_s))

    def register_metrics(self, registry, prefix: str = "shard") -> None:
        """Mount the ledgers plus one scrape-only gauge per worker.

        ``worker_pending_bytes`` looks the *current* handle up by shard
        id, so it tracks respawns; it reflects socket timing, hence
        ``wall=True`` (never published).
        """
        super().register_metrics(registry, prefix)
        for shard_id in sorted(self._stats):
            registry.gauge(
                f"{prefix}{shard_id}.worker_pending_bytes",
                fn=lambda sid=shard_id: float(self._backends[sid].pending_bytes),
                wall=True,
            )

    def close(self, timeout_s: float = 10.0) -> None:
        """Shut every worker down (graceful, then SIGKILL on timeout)."""
        if not self._closed:
            for handle in self._backends.values():
                handle.close(timeout_s=timeout_s)
        super().close(timeout_s)


class ProcessShardedScopeManager(WorkerPlane):
    """N shards, each a real worker **process** behind the same ring.

    The multi-core counterpart of :class:`ShardedScopeManager`: routing
    is identical (the same :class:`HashRing`, the same placement
    contract), but each shard's scopes live in a child process running a
    :class:`~repro.net.supervisor.ShardHost` on its own event loop, fed
    over a socketpair with the binary protocol (DELIVER frames — see
    :mod:`repro.net.worker`).  Ingest therefore runs on as many cores as
    there are workers, while the router pays only encode + send.

    The push API is **asynchronous**: :meth:`push_samples` returns the
    *offered* count once the batch is queued to the home worker, and the
    accept/late-drop verdicts accumulate in the child.  :meth:`drain`
    makes one ordered ``stats`` round trip per worker, answered once the
    worker has ingested everything the router sent; then :meth:`totals`
    is exact.  Per-shard backpressure is the worker writer's bounded
    pending buffer: past its high watermark the router push *blocks* on
    that worker's socket instead of growing memory without bound.

    Supervision (WAL-before-send, liveness, respawn) is deliberately not
    here — that is :class:`~repro.net.supervisor.ProcessShardSupervisor`;
    this class is the fast path the scaling benchmark (X14a) measures.
    """

    def __init__(
        self,
        shards: int = 4,
        scope_factory: Optional[Callable] = None,
        loop: Optional[MainLoop] = None,
    ) -> None:
        self.scope_factory = scope_factory
        # Continuous queries attached through this router: qid → home
        # shard, so detach_query knows which worker to tell.
        self._query_homes: Dict[str, int] = {}
        self._next_qid = 0
        super().__init__(shards, loop)

    def _spawn(self, shard_id: int, now: float) -> WorkerHandle:
        return WorkerHandle(shard_id, self.scope_factory, loop=self.loop)

    # -- push (async) ---------------------------------------------------
    def push_samples(self, name: str, times, values) -> int:
        """Queue one signal's columns to its home worker; returns offered.

        The late-drop verdict is made in the child at this router
        instant (the DELIVER frame carries ``now``), so acceptance
        accounting catches up asynchronously — read it after
        :meth:`drain` / :meth:`refresh_stats`.  Reserved names are
        rejected router-side (:meth:`ShardRouter.push_samples`).
        """
        return super().push_samples(name, times, values)

    def push_obs(self, name: str, times, values) -> int:
        """Trusted reserved-namespace entry: same queueing/accounting."""
        shard_id = self.shard_of(name)
        offered = self._backends[shard_id].deliver(
            self.loop.clock.now(), name, times, values
        )
        self._stats[shard_id].offered += offered
        return offered

    # -- continuous queries ---------------------------------------------
    def attach_query(
        self,
        query: str,
        params: Optional[Dict[str, float]] = None,
        timeout_s: float = 10.0,
    ) -> str:
        """Compile-and-attach a continuous query on its home worker.

        The query text (with ``$name`` parameters bound router-side) is
        validated here, then shipped over the control channel to the
        single worker owning **all** of its source signals — a process
        shard sees only its own pushes, so a query whose sources hash to
        different workers would silently starve; that spelling is
        rejected up front.  Derived outputs are pushed back into that
        worker's manager and live there.  Returns the query id for
        :meth:`detach_query`.
        """
        from repro.query import QueryCompileError, bind_params, compile_query

        bound = bind_params(query, params)
        plan = compile_query(bound)
        homes = {self.shard_of(name) for name in plan.source_names}
        if len(homes) > 1:
            raise ValueError(
                f"query sources {sorted(plan.source_names)} span shards "
                f"{sorted(homes)}; process-plane queries need a single "
                f"home worker"
            )
        shard_id = homes.pop()
        qid = f"pq{self._next_qid}"
        self._next_qid += 1
        reply = self._backends[shard_id].attach_query(
            qid, bound, timeout_s=timeout_s
        )
        if reply.get("error"):
            raise QueryCompileError(str(reply["error"]))
        self._query_homes[qid] = shard_id
        return qid

    def detach_query(self, qid: str, timeout_s: float = 10.0) -> None:
        """Detach a continuous query from its home worker (idempotent)."""
        shard_id = self._query_homes.pop(qid, None)
        if shard_id is not None:
            self._backends[shard_id].detach_query(qid, timeout_s=timeout_s)

    # -- accounting -----------------------------------------------------
    def drain(self, timeout_s: float = 30.0) -> None:
        """Block until every worker has ingested every sample sent to it.

        Raises :class:`~repro.net.worker.WorkerDied` if a worker reports
        a count other than what was sent to it.
        """
        self._drain_to(lambda sid: self._backends[sid].samples_sent, timeout_s)
