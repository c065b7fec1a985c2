"""Multiple scopes on one main loop.

"Support for multiple scopes and signals, dynamic addition and removal of
scopes and signals" is the first feature Section 1 lists.  The manager is
a thin registry: it creates scopes bound to a shared main loop, routes
buffered samples to every scope carrying the named signal (one remote
stream can feed several displays, Section 4.4) and coordinates start/stop.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.pollhub import PollHub
from repro.core.scope import Scope, ScopeError
from repro.core.signal import SignalSpec, SignalType
from repro.eventloop.loop import MainLoop

try:  # optional self-instrumentation plane (absence changes no bytes)
    from repro.obs import trace as _trace
except ImportError:  # pragma: no cover - obs package absent
    _trace = None

#: Signal names under this prefix belong to the self-instrumentation
#: plane.  Kept as a local literal (not imported from ``repro.obs``) so
#: the reservation holds even when the obs package is never imported.
RESERVED_PREFIX = "__obs."


def check_user_name(name: str) -> None:
    """Reject a user push of a reserved ``__obs.`` name.

    Raises :class:`ScopeError`: user data can never masquerade as — or
    collide with — internal telemetry, which enters through the trusted
    ``push_obs`` entries instead.
    """
    if name.startswith(RESERVED_PREFIX):
        raise ScopeError(
            f"signal name {name!r} is reserved: the {RESERVED_PREFIX!r} "
            "namespace carries self-instrumentation samples "
            "(published via MetricsPublisher, not user pushes)"
        )


class ScopeManager:
    """Registry of scopes sharing one :class:`MainLoop`."""

    def __init__(self, loop: Optional[MainLoop] = None) -> None:
        self.loop = loop if loop is not None else MainLoop()
        self._scopes: Dict[str, Scope] = {}
        self._topology_version = 0
        self._taps: Tuple = ()

    # ------------------------------------------------------------------
    # Capture taps
    # ------------------------------------------------------------------
    def add_tap(self, tap) -> None:
        """Attach a push tap: ``tap(name, times, values, now_ms)``.

        Taps observe every *offered* sample stream — accepted and
        late-dropped alike — before fan-out, which is what a
        :class:`~repro.capture.writer.CaptureWriter` needs to make a
        live run replayable.  With no tap attached the hot path pays
        one truthiness check.

        The tap set is copy-on-write: every push iterates an immutable
        snapshot, so a tap may detach itself (or a sibling) mid-push —
        a quarantining :class:`~repro.query.live.LiveQuery` does —
        without skipping or double-invoking the remaining taps.
        """
        self._taps = (*self._taps, tap)

    def remove_tap(self, tap) -> None:
        taps = list(self._taps)
        taps.remove(tap)
        self._taps = tuple(taps)

    # ------------------------------------------------------------------
    # Scope lifecycle
    # ------------------------------------------------------------------
    def scope_new(self, name: str, **kwargs: object) -> Scope:
        """Create and register a scope (``gtk_scope_new`` equivalent)."""
        if name in self._scopes:
            raise ScopeError(f"duplicate scope name: {name!r}")
        scope = Scope(name, self.loop, **kwargs)  # type: ignore[arg-type]
        self._scopes[name] = scope
        self._topology_version += 1
        return scope

    def scope_remove(self, name: str) -> None:
        """Dynamically remove a scope, stopping its polling first."""
        scope = self.scope(name)
        scope.stop_polling()
        del self._scopes[name]
        self._topology_version += 1

    def adopt_scope(self, scope: Scope) -> None:
        """Register an existing scope (the rebalancing seam).

        A :class:`~repro.net.shard.ShardedScopeManager` migrating a
        scope between shards releases it from one manager and adopts it
        into another.  The scope keeps its loop, its polling state and
        every trace — adoption is pure registry bookkeeping, so it must
        only happen between managers sharing the scope's loop.
        """
        if scope.name in self._scopes:
            raise ScopeError(f"duplicate scope name: {scope.name!r}")
        if scope.loop is not self.loop:
            raise ScopeError(
                f"scope {scope.name!r} lives on a different loop; "
                "migration requires a shared loop"
            )
        self._scopes[scope.name] = scope
        self._topology_version += 1

    def release_scope(self, name: str) -> Scope:
        """Unregister and return a scope *without* stopping its polling.

        The counterpart of :meth:`adopt_scope`: the scope is expected to
        be adopted elsewhere immediately, display uninterrupted.
        """
        scope = self.scope(name)
        del self._scopes[name]
        self._topology_version += 1
        return scope

    @property
    def topology_version(self) -> int:
        """Bumped on every scope add/remove.

        Consumers caching carried-signal lookups (the server's
        auto-create path) compare this to invalidate their caches.
        """
        return self._topology_version

    def carries(self, name: str) -> bool:
        """True when any registered scope displays signal ``name``."""
        return any(name in scope for scope in self._scopes.values())

    def auto_create(self, name: str) -> bool:
        """Register ``name`` as a BUFFER signal on the first scope.

        Returns False when no scope exists to carry it.  This is the
        server's exploratory-monitoring hook; the paper's flow registers
        signals explicitly.
        """
        if not self._scopes:
            return False
        first = next(iter(self._scopes.values()))
        first.signal_new(SignalSpec(name=name, type=SignalType.BUFFER))
        return True

    def scope(self, name: str) -> Scope:
        try:
            return self._scopes[name]
        except KeyError:
            raise ScopeError(f"unknown scope: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._scopes

    def __len__(self) -> int:
        return len(self._scopes)

    @property
    def scopes(self) -> List[Scope]:
        return list(self._scopes.values())

    # ------------------------------------------------------------------
    # Coordinated control
    # ------------------------------------------------------------------
    def start_all(self) -> None:
        """Start every scope polling.

        All scopes start at the same clock instant, so the loop's
        :class:`PollHub` coalesces them onto one timer source per
        distinct period — N scopes at the default period cost the
        scheduler a single timer instead of N.
        """
        for scope in self._scopes.values():
            scope.start_polling()

    def stop_all(self) -> None:
        for scope in self._scopes.values():
            scope.stop_polling()

    def push_sample(self, name: str, time_ms: float, value: float) -> int:
        """Deliver a buffered sample to every scope displaying ``name``.

        Returns the number of scopes that accepted the sample.  This is
        how the server side of the client-server library fans a remote
        signal out to "one or more scopes" (Section 4.4).

        Names under ``__obs.`` are reserved for the self-instrumentation
        publisher (which enters through :meth:`push_obs`); pushing one
        here is an error, so user data can never masquerade as — or
        collide with — internal telemetry.
        """
        check_user_name(name)
        # One clock read serves the tap and every scope's late-drop
        # decision, so what the capture records is exactly what the
        # buffers compared against (bit-exact replay under any clock).
        now = self.loop.clock.now()
        for tap in self._taps:
            tap(name, (time_ms,), (value,), now)
        accepted = 0
        for scope in self._scopes.values():
            if name in scope and scope.channel(name).buffered:
                if scope.push_sample(name, time_ms, value, now_ms=now):
                    accepted += 1
        return accepted

    def push_samples(self, name: str, times, values) -> int:
        """Bulk fan-out of one signal's samples to every carrying scope.

        Returns the number of samples accepted by at least one scope.
        Late-drop sets nest by display delay (all scopes share the loop
        clock, and a sample late for a long delay is late for every
        shorter one), so that count is exactly the max over scopes.

        ``__obs.``-prefixed names are rejected like :meth:`push_sample`.
        """
        check_user_name(name)
        return self._deliver(name, times, values)

    def push_obs(self, name: str, times, values) -> int:
        """Trusted entry for reserved-namespace samples.

        Identical delivery semantics to :meth:`push_samples` — taps see
        the batch, carrying scopes buffer it — but without the
        reserved-prefix rejection.  Only the self-instrumentation
        publisher and replay of captured ``__obs.`` columns should call
        this.
        """
        return self._deliver(name, times, values)

    def _deliver(self, name: str, times, values) -> int:
        # Single clock read for tap and fan-out: see push_sample.
        now = self.loop.clock.now()
        if _trace is not None and _trace._tracer is not None:
            with _trace.span("deliver", signal=name, n=len(times)):
                return self._deliver_at(name, times, values, now)
        return self._deliver_at(name, times, values, now)

    def _deliver_at(self, name: str, times, values, now: float) -> int:
        for tap in self._taps:
            tap(name, times, values, now)
        accepted = 0
        for scope in self._scopes.values():
            if name in scope and scope.channel(name).buffered:
                accepted = max(
                    accepted, scope.push_samples(name, times, values, now_ms=now)
                )
        return accepted

    @property
    def poll_timer_count(self) -> int:
        """Shared timer sources driving this manager's polling scopes."""
        return PollHub.of(self.loop).timer_count

    def run_for(self, duration_ms: float) -> None:
        """Drive the shared loop for ``duration_ms``."""
        self.loop.run_for(duration_ms)

    # ------------------------------------------------------------------
    # Snapshot / restore (process shard supervision)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Per-scope data-plane state, keyed by scope name (plain data).

        See :meth:`Scope.state_dict` for what is and is not captured;
        the restoring side rebuilds the same scopes via its factory and
        loads this over them.
        """
        return {
            "scopes": {name: scope.state_dict() for name, scope in self._scopes.items()}
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` capture onto this (fresh) manager."""
        snap_scopes = state["scopes"]
        if set(snap_scopes) != set(self._scopes):
            raise ScopeError(
                f"snapshot scopes {sorted(snap_scopes)} do not match "
                f"registered scopes {sorted(self._scopes)}"
            )
        for name, scope_state in snap_scopes.items():
            self._scopes[name].load_state(scope_state)
