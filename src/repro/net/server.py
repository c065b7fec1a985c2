"""The gscope server library (Section 4.4).

"The server receives data from one or more clients asynchronously and
buffers the data.  It then displays these BUFFER signals to one or more
scopes with a user-specified delay ... Data arriving at the server after
this delay is not buffered but dropped immediately."

A :class:`ScopeServer` owns a set of client connections (each an I/O
watch on the shared single-threaded main loop) and forwards decoded
samples into a scope manager — either a plain
:class:`~repro.core.manager.ScopeManager` or a
:class:`~repro.net.shard.ShardedScopeManager` — which fans each sample
out to every scope carrying a BUFFER signal of that name.  The late-drop
rule lives in :class:`~repro.core.buffer.SampleBuffer`; the server just
counts what was dropped so experiments can report it.

Each connection negotiates its wire mode from its first byte (see
:class:`~repro.net.protocol.WireDecoder`): binary columnar frames take
the hot path — chunk → header → ``np.frombuffer`` columns →
``manager.push_samples`` with zero per-tuple objects — while text tuple
lines keep the paper's compatibility path for old clients and
``recorded_signals.tuples`` replay.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.cells import Counter
from repro.core.manager import RESERVED_PREFIX
from repro.core.tuples import Tuple3, TupleFormatError
from repro.eventloop.loop import MainLoop
from repro.eventloop.sources import IOCondition
from repro.net.protocol import _HELLO, _NAME_DEF, _QUERY, _SAMPLES
from repro.net.protocol import Frame, ProtocolError, WireDecoder
from repro.net.queryservice import QueryMultiplexer

try:  # optional self-instrumentation plane (absence changes no bytes)
    from repro.obs import trace as _trace
except ImportError:  # pragma: no cover - obs package absent
    _trace = None

#: Session disconnect reasons get one counter cell each, pre-created so
#: the instrument catalog is stable across runs.
_DISCONNECT_REASONS = ("eof", "protocol", "transport", "server")

#: Per-wakeup receive budget: one readable dispatch drains up to this
#: many bytes before yielding the loop, so one firehose client cannot
#: starve the other sources.
MAX_DRAIN_BYTES = 1 << 20

#: The server's ingest ledger: one aggregate counter cell each, summed
#: over every session, live or departed.
_COUNTER_FIELDS = (
    "received",
    "accepted",
    "dropped_late",
    "protocol_errors",
    "frames",
    "bytes_received",
)


@dataclass
class ClientState:
    """Per-connection session state."""

    endpoint: object
    wire: WireDecoder = field(default_factory=WireDecoder)
    watch_id: Optional[int] = None
    connected: bool = True
    #: Why the session ended (``None`` while connected): ``"eof"`` —
    #: orderly close from the peer; ``"protocol"`` — malformed stream;
    #: ``"transport"`` — the endpoint died underneath us; ``"server"`` —
    #: explicit server-side disconnect.
    disconnect_reason: Optional[str] = None
    #: Binary name interning table: wire id → signal name.
    names: Dict[int, str] = field(default_factory=dict)

    @property
    def mode(self) -> Optional[str]:
        """Negotiated wire mode: ``"binary"``, ``"text"``, or None."""
        return self.wire.mode


class ScopeServer:
    """Receives sample streams and displays them on registered scopes.

    Parameters
    ----------
    loop:
        The shared single-threaded main loop.
    manager:
        Scope registry; samples are fanned out to every scope holding a
        BUFFER signal with the sample's name.  Anything exposing the
        manager protocol works — a plain :class:`ScopeManager` or a
        :class:`~repro.net.shard.ShardedScopeManager`.
    auto_create:
        When a sample names a signal no scope carries, create a BUFFER
        signal for it (on the first registered scope / the name's home
        shard) — convenient for exploratory monitoring; off by default
        because the paper's flow registers signals explicitly.

    One readable dispatch drains at most :data:`MAX_DRAIN_BYTES` from a
    session before yielding the loop.
    """

    def __init__(self, loop: MainLoop, manager, auto_create: bool = False) -> None:
        self.loop = loop
        self.manager = manager
        self.auto_create = auto_create
        self._clients: List[ClientState] = []
        # The one ledger: aggregate cells, so a departed session's
        # traffic stays counted with no fold at disconnect.  totals(),
        # disconnect_reasons and retired_clients are views over them,
        # and register_metrics() mounts the very same cells — one
        # source of truth for accessors and the ``__obs.`` publisher.
        self._cells: Dict[str, Counter] = {k: Counter(k) for k in _COUNTER_FIELDS}
        self._reason_cells: Dict[str, Counter] = {
            r: Counter(f"disconnects.{r}") for r in _DISCONNECT_REASONS
        }
        # Carried-name cache for _ensure_signal: names known to be
        # carried (or auto-created), invalidated on scope add/remove via
        # the manager's topology version.
        self._seen_names: set = set()
        self._seen_version: Optional[int] = None
        #: The continuous-query plane: compiled plans, shared
        #: evaluations, subscriber fan-out (see repro.net.queryservice).
        self.queries = QueryMultiplexer(loop, manager)

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def add_client(self, endpoint) -> ClientState:
        """Register a connected client endpoint for asynchronous reads."""
        state = ClientState(endpoint=endpoint)
        state.watch_id = self.loop.io_add_watch(
            endpoint, IOCondition.IN, lambda ch, cond, s=state: self._on_readable(s)
        )
        self._clients.append(state)
        return state

    def disconnect(self, state: ClientState, reason: str = "server") -> None:
        """Drop a client; its counters stay in the retained totals.

        The ClientState is pruned from the live list — a long-running
        server with connection churn must not accumulate dead sessions —
        while :meth:`totals` keeps counting its traffic.  ``reason``
        (``"eof"``, ``"protocol"``, ``"transport"``, or the default
        explicit ``"server"``) is recorded on the state and tallied in
        :attr:`disconnect_reasons`, so post-fault accounting can tell an
        orderly goodbye from a torn stream.
        """
        if state.watch_id is not None:
            self.loop.remove(state.watch_id)
            state.watch_id = None
        # Refcounted detach of everything this client subscribed to —
        # the last subscriber leaving detaches the shared evaluation.
        self.queries.drop_session(state)
        state.connected = False
        if state.disconnect_reason is None:
            state.disconnect_reason = reason
        if hasattr(state.endpoint, "close"):
            state.endpoint.close()
        try:
            self._clients.remove(state)
        except ValueError:
            return  # already pruned (double disconnect)
        reason_cell = self._reason_cells.get(state.disconnect_reason)
        if reason_cell is None:
            reason_cell = Counter(f"disconnects.{state.disconnect_reason}")
            self._reason_cells[state.disconnect_reason] = reason_cell
        reason_cell.inc()

    @property
    def clients(self) -> List[ClientState]:
        """Live (connected) client sessions."""
        return list(self._clients)

    @property
    def disconnect_reasons(self) -> Dict[str, int]:
        """Departed sessions by disconnect reason (nonzero counts only) —
        the fault post-mortem ledger ("how many clients did we lose to
        torn streams vs orderly closes?")."""
        return {r: c.value for r, c in self._reason_cells.items() if c.value}

    @property
    def retired_clients(self) -> int:
        """Departed sessions, whatever the reason."""
        return sum(c.value for c in self._reason_cells.values())

    # ------------------------------------------------------------------
    # Receive path
    # ------------------------------------------------------------------
    def _on_readable(self, state: ClientState) -> bool:
        # Drain what is already buffered before yielding the loop: big
        # columnar frames span many transport chunks and one wakeup
        # should consume them all (up to the byte budget).
        endpoint = state.endpoint
        budget = MAX_DRAIN_BYTES
        while True:
            try:
                chunk = endpoint.recv()
            except OSError:
                # The transport died underneath the watch (fault-injected
                # kill, reset socket): not the peer's goodbye, not a
                # protocol violation — its own bucket.
                self.disconnect(state, reason="transport")
                return False
            if not chunk:
                # Peer closed (socket semantics); drop the watch.
                self.disconnect(state, reason="eof")
                return False
            self._cells["bytes_received"].inc(len(chunk))
            budget -= len(chunk)
            try:
                self._ingest_chunk(state, chunk)
            except (TupleFormatError, ProtocolError):
                # A malformed stream is a protocol violation: disconnect
                # rather than guess at framing.
                self._cells["protocol_errors"].inc()
                self.disconnect(state, reason="protocol")
                return False
            if budget <= 0 or not endpoint.readable():
                return True

    def _ingest_chunk(self, state: ClientState, chunk: bytes) -> None:
        tuples, frames = state.wire.feed(chunk)
        if tuples:
            self._ingest_tuples(state, tuples)
        for frame in frames:
            self._ingest_frame(state, frame)

    def _ingest_frame(self, state: ClientState, frame: Frame) -> None:
        """Binary hot path: decoded columns go straight to the manager."""
        cells = self._cells
        cells["frames"].inc()
        if frame.kind is _SAMPLES:
            name = state.names.get(frame.name_id)
            if name is None:
                raise ProtocolError(
                    f"SAMPLES frame references undefined name id {frame.name_id}"
                )
            if name.startswith(RESERVED_PREFIX):
                # Remote peers never publish internal telemetry; letting
                # the manager's ScopeError escape here would tear down
                # the loop dispatch, so the violation is classified at
                # the wire boundary and disconnects just this session.
                raise ProtocolError(
                    f"signal name {name!r} is reserved for server-side "
                    "self-instrumentation"
                )
            n = len(frame)
            cells["received"].inc(n)
            self._ensure_signal(name)
            if _trace is not None and _trace._tracer is not None:
                with _trace.span("ingest", signal=name, n=n):
                    accepted = self.manager.push_samples(
                        name, frame.times, frame.values
                    )
            else:
                accepted = self.manager.push_samples(name, frame.times, frame.values)
            cells["accepted"].inc(accepted)
            cells["dropped_late"].inc(n - accepted)
        elif frame.kind is _NAME_DEF:
            state.names[frame.name_id] = frame.name
        elif frame.kind is _QUERY:
            # The continuous-query channel: compile/subscribe requests.
            # Compile failures reply in-band; malformed payloads raise
            # ProtocolError through the caller and disconnect.
            self.queries.handle(state, frame.control)
        elif frame.kind is not _HELLO:  # HELLO: version already checked
            # DELIVER/CONTROL belong to the router↔worker link (see
            # repro.net.worker); a client session sending them is
            # confused or hostile either way — disconnect it.
            raise ProtocolError(
                f"{frame.kind.name} frame is not valid on a client session"
            )

    def _ingest_tuples(self, state: ClientState, tuples: List[Tuple3]) -> None:
        """Text compatibility path: regroup per-name runs, push columns."""
        # Batch the decoded tuples into per-name runs so one manager call
        # (one columnar buffer append) carries a whole run — a batched
        # client frame of N samples costs one push, not N.
        cells = self._cells
        cells["received"].inc(len(tuples))
        i = 0
        total = len(tuples)
        while i < total:
            name = tuples[i].name if tuples[i].name is not None else "signal"
            j = i + 1
            while j < total and (
                tuples[j].name if tuples[j].name is not None else "signal"
            ) == name:
                j += 1
            if name.startswith(RESERVED_PREFIX):
                raise ProtocolError(
                    f"signal name {name!r} is reserved for server-side "
                    "self-instrumentation"
                )
            self._ensure_signal(name)
            times = [t.time_ms for t in tuples[i:j]]
            values = [t.value for t in tuples[i:j]]
            accepted = self.manager.push_samples(name, times, values)
            cells["accepted"].inc(accepted)
            cells["dropped_late"].inc((j - i) - accepted)
            i = j

    def _ensure_signal(self, name: str) -> None:
        if not self.auto_create:
            return
        version = self.manager.topology_version
        if version != self._seen_version:
            # A scope was added or removed since the cache was built;
            # carried-ness may have changed for any name.
            self._seen_names.clear()
            self._seen_version = version
        if name in self._seen_names:
            return
        if self.manager.carries(name):
            self._seen_names.add(name)
        elif self.manager.auto_create(name):
            # auto_create bumped nothing topological, but re-read the
            # version in case the manager counts signal registration.
            self._seen_version = self.manager.topology_version
            self._seen_names.add(name)
        # else: no scope to create on yet; retry once one is registered
        # (which bumps the topology version and clears the cache).

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------
    def totals(self) -> Dict[str, int]:
        """Aggregate receive/accept/drop counters, live and departed.

        A view over the aggregate counter cells — the same cells
        :meth:`register_metrics` mounts — which count every session,
        live or departed.
        """
        return {key: self._cells[key].value for key in _COUNTER_FIELDS}

    def register_metrics(self, registry, prefix: str = "server.") -> None:
        """Mount the server's session/ingest counters into ``registry``.

        Cells: the six :meth:`totals` counters, one disconnect counter
        per reason (``<prefix>disconnects.<reason>``), and gauges for
        live/departed session counts.
        """
        for key in _COUNTER_FIELDS:
            registry.mount(prefix + key, self._cells[key])
        for reason in sorted(self._reason_cells):
            registry.mount(
                f"{prefix}disconnects.{reason}", self._reason_cells[reason]
            )
        registry.gauge(f"{prefix}sessions", fn=lambda: float(len(self._clients)))
        registry.gauge(
            f"{prefix}retired_sessions", fn=lambda: float(self.retired_clients)
        )
        self.queries.register_metrics(registry, prefix=f"{prefix}queries.")
