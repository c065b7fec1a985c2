"""Distributed gscope — the single-threaded I/O-driven client/server
library of Section 4.4.

Clients use :class:`~repro.net.client.ScopeClient` to connect to a
server built on :class:`~repro.net.server.ScopeServer`.  Clients
asynchronously send BUFFER signal data — by default as binary columnar
frames (contiguous ``float64`` time/value columns, names interned per
connection), with the paper's textual tuple format (Section 3.3) kept as
a negotiated compatibility mode.  The server receives from one or more
clients, buffers the samples and displays them on one or more scopes
after the user-specified delay.  Data arriving after its delay slot is
dropped immediately — the :class:`~repro.core.buffer.SampleBuffer`
enforces that rule.

Everything is single-threaded and event-driven: both ends attach
:class:`~repro.eventloop.sources.IOWatch` sources to the same main-loop
machinery that drives polling, exactly like the C library rides glib's
``GIOChannel`` watches.  Two transports are provided: an in-memory pair
(deterministic, virtual-clock friendly, can model network latency) and a
real non-blocking socket pair.  For fan-in beyond one scope registry,
:class:`~repro.net.shard.ShardedScopeManager` partitions the signal
namespace across per-shard managers by stable name hash — and its
multi-core counterpart :class:`~repro.net.shard.ProcessShardedScopeManager`
puts each shard in a worker *process* (see :mod:`repro.net.worker`).
:class:`~repro.net.supervisor.ShardSupervisor` and
:class:`~repro.net.supervisor.ProcessShardSupervisor` add WAL-backed
restart over the same two backends.  All four are configurations of one
:class:`~repro.net.shard.ShardRouter` (ring, ledgers, ``__obs.`` gate,
metric mounts) and, for the supervisors, one supervision layer.
"""

from repro.net.client import ScopeClient
from repro.net.faults import FaultPlan, FaultyLink, faulty_pair
from repro.net.protocol import (
    PROTOCOL_VERSION,
    Frame,
    FrameDecoder,
    FrameKind,
    LineDecoder,
    ProtocolError,
    WireDecoder,
    decode_lines,
    encode_binary_samples,
    encode_control,
    encode_deliver,
    encode_hello,
    encode_name_def,
    encode_query,
    encode_sample,
    encode_samples,
)
from repro.net.client import Subscription
from repro.net.queryservice import QueryMultiplexer, SharedQuery
from repro.net.server import ClientState, ScopeServer
from repro.net.shard import (
    HashRing,
    ProcessShardedScopeManager,
    ShardStats,
    ShardedScopeManager,
    shard_of,
)
from repro.net.supervisor import (
    ProcessShardSupervisor,
    ShardDown,
    ShardHost,
    ShardState,
    ShardSupervisor,
    SupervisionStats,
)
from repro.net.worker import WorkerDied, WorkerHandle
from repro.net.transport import (
    LatencyLink,
    MemoryEndpoint,
    SocketEndpoint,
    memory_pair,
    socket_pair,
)

__all__ = [
    "ClientState",
    "FaultPlan",
    "FaultyLink",
    "Frame",
    "FrameDecoder",
    "FrameKind",
    "HashRing",
    "LatencyLink",
    "LineDecoder",
    "MemoryEndpoint",
    "PROTOCOL_VERSION",
    "ProcessShardSupervisor",
    "ProcessShardedScopeManager",
    "ProtocolError",
    "QueryMultiplexer",
    "ScopeClient",
    "ScopeServer",
    "SharedQuery",
    "Subscription",
    "ShardDown",
    "ShardHost",
    "ShardState",
    "ShardStats",
    "ShardSupervisor",
    "ShardedScopeManager",
    "SocketEndpoint",
    "SupervisionStats",
    "WireDecoder",
    "WorkerDied",
    "WorkerHandle",
    "decode_lines",
    "encode_binary_samples",
    "encode_control",
    "encode_deliver",
    "encode_hello",
    "encode_name_def",
    "encode_query",
    "encode_sample",
    "encode_samples",
    "faulty_pair",
    "memory_pair",
    "shard_of",
    "socket_pair",
]
