"""Wire protocols: text tuple lines and the binary columnar format.

Two wire formats share the connection byte stream:

* **Text** — the paper's format (Section 3.3: "signal data is delivered,
  generated or stored in a textual tuple format"): one tuple per
  ``\\n``-terminated UTF-8 line.  This is the compatibility mode — it is
  what ``recorded_signals.tuples`` replay produces and what pre-binary
  clients speak.
* **Binary columnar** — a versioned, length-prefixed frame format that
  carries whole sample batches as contiguous ``float64`` columns, so the
  server ingest path goes chunk → header → ``np.frombuffer`` columns →
  manager push with no per-sample strings or objects.

Binary frame layout (all integers little-endian)::

    offset  size  field
    0       2     magic     0xA5 0x53
    2       1     version   2
    3       1     kind      0=HELLO 1=NAME_DEF 2=SAMPLES 3=DELIVER
                            4=CONTROL 5=QUERY
    4       4     name_id   uint32 (0 for HELLO/CONTROL/QUERY)
    8       4     count     uint32: SAMPLES/DELIVER → sample count,
                            HELLO/NAME_DEF/CONTROL/QUERY → payload bytes
    12      ...   payload   HELLO:    `count` reserved bytes (now empty)
                            NAME_DEF: `count` bytes of UTF-8 signal name,
                                      binding it to `name_id`
                            SAMPLES:  count*8 bytes float64 times, then
                                      count*8 bytes float64 values, then
                                      a uint32 crc32 of the two columns
                            DELIVER:  one float64
                                      delivery instant, then the SAMPLES
                                      columns and their crc32 — the
                                      router→worker push of the process
                                      shard plane
                            CONTROL:  `count` bytes of
                                      UTF-8 JSON — the supervision side
                                      channel (heartbeats, stats, snapshot
                                      and shutdown commands)
                            QUERY:    `count` bytes of
                                      UTF-8 JSON — the continuous-query
                                      channel: query/subscribe/unsubscribe
                                      requests client→server and their
                                      ack/error replies server→client

Names are interned once per connection: a ``NAME_DEF`` frame binds a
small integer id, and every subsequent ``SAMPLES`` frame carries only the
id.  The magic's first byte (0xA5) can never begin a valid text line
(tuple lines are printable ASCII), so a server sniffs the connection mode
from the first received byte — no out-of-band negotiation needed, and old
text clients keep working unchanged.

Every frame header carries the protocol version, and the decoder
accepts only :data:`PROTOCOL_VERSION` (2): every peer speaks it, and a
frame of any other version fails closed as a :class:`ProtocolError`.
Version 2 exists because version-1 SAMPLES payloads had no integrity
check — a fault flipping one byte of a float64 column delivered a
*wrong value* instead of an error.  The column bytes are covered by a
trailing crc32; a mismatch raises :class:`ProtocolError` and the
connection dies before a corrupt sample reaches a scope.  Encoder and
decoder take the CRC from :mod:`repro.core.checksum`: zlib's values,
computed by ``zlib`` for columns under its cutover (8 KiB) and by one
native call above it — the encoder over both columns without joining
them, the decoder straight from the received ``bytes`` chunk.

Columns are checked once per hop: :func:`as_columns` coerces and
checks them, and :func:`encode_columns` — the one SAMPLES/DELIVER
encoder — frames checked columns with a single ``b"".join``.  Callers
that already hold checked columns (the client's ``send_samples``, the
router's ``WorkerHandle.deliver``) call it directly;
:func:`encode_binary_samples` and :func:`encode_deliver` are the two
steps together.

Both decoders are incremental — network reads arrive in arbitrary
chunks, so stateful decoders carry partial lines / partial frames
between reads.  Malformed input raises :class:`ProtocolError` (or
:class:`~repro.core.tuples.TupleFormatError` on the text path); a
misbehaving client should be disconnected, not silently misread.
"""

from __future__ import annotations

import enum
import json
import struct
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.checksum import crc32, crc32_columns
from repro.core.tuples import Tuple3, format_tuple, parse_tuple

__all__ = [
    "FRAME_HEADER",
    "Frame",
    "FrameDecoder",
    "FrameKind",
    "LineDecoder",
    "MAGIC",
    "MAX_CONTROL_BYTES",
    "MAX_FRAME_SAMPLES",
    "MAX_LINE_BYTES",
    "MAX_NAME_BYTES",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "WireDecoder",
    "as_columns",
    "decode_lines",
    "encode_binary_samples",
    "encode_columns",
    "encode_control",
    "encode_deliver",
    "encode_hello",
    "encode_name_def",
    "encode_query",
    "encode_sample",
    "encode_samples",
]


class ProtocolError(ValueError):
    """Raised on malformed wire data (either protocol)."""


# ----------------------------------------------------------------------
# Text protocol (compatibility mode)
# ----------------------------------------------------------------------

#: Cap on a carried partial line.  A peer that never sends a newline
#: would otherwise grow server memory without bound; past this the
#: stream is a protocol error and the client is disconnected.
MAX_LINE_BYTES = 64 * 1024


def encode_sample(time_ms: float, value: float, name: Optional[str] = None) -> bytes:
    """Encode one sample as a text wire frame (tuple line + newline)."""
    return (format_tuple(time_ms, value, name) + "\n").encode("utf-8")


def encode_samples(
    times: Sequence[float],
    values: Sequence[float],
    name: Optional[str] = None,
) -> bytes:
    """Encode a batch of one signal's samples as a single text frame.

    The frame is just N tuple lines in one buffer — the on-wire format is
    unchanged (any decoder sees N ordinary tuples), but one send carries
    the whole batch, so the transport pays one syscall/queue entry per
    batch instead of per sample.
    """
    if len(times) != len(values):
        raise ValueError(
            f"times and values must be equal length: {len(times)} vs {len(values)}"
        )
    lines = [format_tuple(t, v, name) for t, v in zip(times, values)]
    if not lines:
        return b""
    return ("\n".join(lines) + "\n").encode("utf-8")


class LineDecoder:
    """Incremental splitter of byte chunks into complete lines.

    The carried partial line is bounded by ``max_line_bytes``; exceeding
    it raises :class:`ProtocolError` (and drops the oversized partial so
    a disconnecting server does not keep it alive).
    """

    def __init__(self, max_line_bytes: int = MAX_LINE_BYTES) -> None:
        if max_line_bytes <= 0:
            raise ValueError(f"max_line_bytes must be positive: {max_line_bytes}")
        self._partial = b""
        self.max_line_bytes = int(max_line_bytes)

    def feed(self, chunk: bytes) -> List[str]:
        """Add a chunk; return the complete lines it finishes."""
        data = self._partial + chunk
        *complete, self._partial = data.split(b"\n")
        if len(self._partial) > self.max_line_bytes:
            over = len(self._partial)
            self._partial = b""
            raise ProtocolError(
                f"unterminated line of {over} bytes exceeds the "
                f"{self.max_line_bytes}-byte cap"
            )
        return [line.decode("utf-8", errors="replace") for line in complete]

    @property
    def pending(self) -> bytes:
        """Bytes of the current incomplete line."""
        return self._partial


def decode_lines(
    chunk: bytes, decoder: Optional[LineDecoder] = None
) -> Tuple[List[Tuple3], LineDecoder]:
    """Decode a chunk into parsed tuples, skipping blanks and comments.

    Returns the tuples plus the (possibly fresh) decoder carrying any
    partial trailing line.  Malformed lines raise
    :class:`~repro.core.tuples.TupleFormatError` — a misbehaving client
    should be disconnected, not silently misread.
    """
    if decoder is None:
        decoder = LineDecoder()
    tuples: List[Tuple3] = []
    for line in decoder.feed(chunk):
        parsed = parse_tuple(line)
        if parsed is not None:
            tuples.append(parsed)
    return tuples, decoder


# ----------------------------------------------------------------------
# Binary columnar protocol
# ----------------------------------------------------------------------

MAGIC = b"\xa5\x53"
#: The one version every encoder speaks and the decoder accepts
#: (checksummed columns; DELIVER/CONTROL/QUERY kinds).
PROTOCOL_VERSION = 2

#: magic(2s) version(B) kind(B) name_id(I) count(I), little-endian.
FRAME_HEADER = struct.Struct("<2sBBII")

#: Trailing column checksum on SAMPLES/DELIVER payloads.
_CRC_TRAILER = struct.Struct("<I")
#: Leading float64 delivery instant on DELIVER payloads.
_DELIVER_NOW = struct.Struct("<d")

#: Sanity bounds: a corrupt header must not make the decoder wait on (or
#: allocate) gigabytes.  4 KiB of name is absurdly generous; 2**22
#: samples is a 64 MiB frame.
MAX_NAME_BYTES = 4096
MAX_FRAME_SAMPLES = 1 << 22
#: CONTROL frames carry JSON (snapshot blobs travel base64-inside-JSON),
#: so the cap is generous but still refuses a corrupt length field.
MAX_CONTROL_BYTES = 1 << 26


class FrameKind(enum.IntEnum):
    """Binary frame type tag."""

    HELLO = 0
    NAME_DEF = 1
    SAMPLES = 2
    DELIVER = 3  # router→worker push carrying the delivery instant
    CONTROL = 4  # JSON supervision side channel
    QUERY = 5  # JSON continuous-query channel (subscribe plane)


#: Kind byte → member, and the members every frame dispatch compares
#: against (this decoder, the server, the client and the worker import
#: them from here): a tuple index and a module global cost a fraction of
#: ``FrameKind(raw)`` and of an enum class-attribute read (~30 vs ~220
#: ns, timeit), once per decoded frame.
_KINDS = tuple(FrameKind)
_HELLO = FrameKind.HELLO
_NAME_DEF = FrameKind.NAME_DEF
_SAMPLES = FrameKind.SAMPLES
_DELIVER = FrameKind.DELIVER
_CONTROL = FrameKind.CONTROL
_QUERY = FrameKind.QUERY


@dataclass(slots=True)
class Frame:
    """One decoded binary frame.

    Not frozen: the decoder builds one per frame, and a frozen
    dataclass's ``__init__`` costs about twice as much.
    """

    kind: FrameKind
    name_id: int
    name: Optional[str] = None  # NAME_DEF only
    times: Optional[np.ndarray] = None  # SAMPLES/DELIVER only, float64
    values: Optional[np.ndarray] = None  # SAMPLES/DELIVER only, float64
    now: Optional[float] = None  # DELIVER only: the delivery instant
    control: Optional[Dict[str, Any]] = None  # CONTROL/QUERY: decoded JSON

    def __len__(self) -> int:
        return 0 if self.times is None else int(self.times.shape[0])


def encode_hello() -> bytes:
    """The handshake frame a binary client sends first.

    Carries the protocol version; the payload is reserved for future
    capability flags.  Servers detect binary mode from the magic of *any*
    frame, so a stream surviving queue pressure without its HELLO still
    decodes — the handshake pins the version early, nothing more.
    """
    return FRAME_HEADER.pack(MAGIC, PROTOCOL_VERSION, FrameKind.HELLO, 0, 0)


def encode_name_def(name_id: int, name: str) -> bytes:
    """Bind ``name_id`` to ``name`` for the rest of the connection."""
    if any(ch.isspace() for ch in name):
        # Same rule as the text format, so signals round-trip between
        # modes (and recordings of either stream stay parseable).
        raise ProtocolError(f"signal name may not contain whitespace: {name!r}")
    raw = name.encode("utf-8")
    if not raw:
        raise ProtocolError("signal name may not be empty")
    if len(raw) > MAX_NAME_BYTES:
        raise ProtocolError(
            f"signal name of {len(raw)} bytes exceeds the {MAX_NAME_BYTES}-byte cap"
        )
    header = FRAME_HEADER.pack(
        MAGIC, PROTOCOL_VERSION, FrameKind.NAME_DEF, name_id, len(raw)
    )
    return header + raw


def as_columns(times, values) -> Tuple[np.ndarray, np.ndarray]:
    """The one column check: ``(t, v)`` as little-endian float64 1-D
    columns of equal length, ready for :func:`encode_columns`."""
    t = np.ascontiguousarray(times, dtype="<f8")
    v = np.ascontiguousarray(values, dtype="<f8")
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError(
            f"times and values must be equal-length 1-D: {t.shape} vs {v.shape}"
        )
    return t, v


def encode_columns(
    name_id: int, t: np.ndarray, v: np.ndarray, now: Optional[float] = None
) -> bytes:
    """Frame checked columns (see :func:`as_columns`): SAMPLES, or
    DELIVER stamped with ``now`` when it is given.

    The one column encoder.  Returns ``b""`` for an empty batch; a
    batch beyond :data:`MAX_FRAME_SAMPLES` splits here into several
    frames so any caller-side batch size stays decodable.  Every other
    batch is one ``b"".join`` of header, delivery instant, the two
    columns and their crc32 — each column byte is copied once by
    ``tobytes`` and once by the join.
    """
    n = t.shape[0]
    if n > MAX_FRAME_SAMPLES:
        step = MAX_FRAME_SAMPLES
        return b"".join(
            encode_columns(name_id, t[i : i + step], v[i : i + step], now)
            for i in range(0, n, step)
        )
    if n == 0:
        return b""
    if now is None:
        kind, lead = FrameKind.SAMPLES, b""
    else:
        kind, lead = FrameKind.DELIVER, _DELIVER_NOW.pack(float(now))
    header = FRAME_HEADER.pack(MAGIC, PROTOCOL_VERSION, kind, name_id, n)
    tb = t.tobytes()
    vb = v.tobytes()
    crc = _CRC_TRAILER.pack(crc32_columns(tb, vb))
    return b"".join((header, lead, tb, vb, crc))


def encode_binary_samples(
    name_id: int,
    times: Sequence[float],
    values: Sequence[float],
) -> bytes:
    """Encode one signal's sample batch as contiguous float64 columns
    followed by their crc32 (:func:`as_columns` + :func:`encode_columns`)."""
    t, v = as_columns(times, values)
    return encode_columns(name_id, t, v)


def encode_deliver(
    name_id: int,
    now: float,
    times: Sequence[float],
    values: Sequence[float],
) -> bytes:
    """Encode a router→worker delivery: columns stamped with the push instant.

    The payload leads with the router's ``now`` as one float64 so the
    worker replays the exact delivery timeline (its virtual clock runs
    ``run_through(now)`` before ingesting), then carries the SAMPLES
    columns and their crc32.
    """
    t, v = as_columns(times, values)
    return encode_columns(name_id, t, v, now)


def _json_frame(kind: FrameKind, payload: Dict[str, Any]) -> bytes:
    raw = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    if len(raw) > MAX_CONTROL_BYTES:
        raise ProtocolError(
            f"{kind.name.lower()} payload of {len(raw)} bytes exceeds the "
            f"{MAX_CONTROL_BYTES}-byte cap"
        )
    return FRAME_HEADER.pack(MAGIC, PROTOCOL_VERSION, kind, 0, len(raw)) + raw


def encode_control(payload: Dict[str, Any]) -> bytes:
    """Encode one JSON control message (heartbeat, stats, snapshot, ...).

    Binary blobs travel base64-inside-JSON; the whole message is capped
    at :data:`MAX_CONTROL_BYTES`.
    """
    return _json_frame(FrameKind.CONTROL, payload)


def encode_query(payload: Dict[str, Any]) -> bytes:
    """Encode one JSON continuous-query message.

    Client→server these carry ``{"op": "query"|"subscribe"|
    "unsubscribe", "id": qid, ...}``; server→client they carry the
    ``compiled``/``error``/``end`` replies (see
    :mod:`repro.net.queryservice`).  The query *results* never travel
    this way — derived columns flow back as ordinary NAME_DEF + SAMPLES
    frames, the same bytes a raw signal would use.
    """
    return _json_frame(FrameKind.QUERY, payload)


class FrameDecoder:
    """Incremental binary frame decoder tolerating any fragmentation.

    The hot path is **zero-copy**: when no partial frame is carried
    over (the steady state — most reads deliver whole frames), frames
    decode straight out of the caller's ``bytes`` chunk and SAMPLES
    columns are read-only ``np.frombuffer`` views over it, no payload
    copy anywhere (the chunk is immutable, so the views can never be
    invalidated).  Only a trailing partial frame is copied into the
    carry buffer; frames completed *from* carried bytes pay one payload
    copy so their views stay valid across buffer compaction — that is
    the mutation boundary.

    Header validation (magic, version, kind, payload bounds) happens as
    soon as the 12 header bytes are present, so a corrupted stream
    fails fast instead of waiting for a phantom payload.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self._pos = 0

    @property
    def pending(self) -> int:
        """Bytes buffered toward the next (incomplete) frame."""
        return len(self._buf) - self._pos

    def feed(self, chunk: bytes) -> List[Frame]:
        """Add a chunk; return the frames it completes, in stream order."""
        frames: List[Frame] = []
        if self._pos == len(self._buf):
            # Zero-copy fast path: nothing carried — decode whole
            # frames directly from the chunk.
            if self._pos:
                self._buf = bytearray()
                self._pos = 0
            data = chunk if isinstance(chunk, bytes) else bytes(chunk)
            pos = 0
            while True:
                decoded = self._decode_at(data, pos, copy_payload=False)
                if decoded is None:
                    break
                frame, pos = decoded
                frames.append(frame)
            if pos < len(data):
                self._buf += data[pos:] if pos else data
            return frames
        self._buf += chunk
        while True:
            decoded = self._decode_at(self._buf, self._pos, copy_payload=True)
            if decoded is None:
                break
            frame, self._pos = decoded
            frames.append(frame)
        # Compact once per feed, not per frame: drop consumed bytes when
        # they dominate the buffer.
        if self._pos > 65536 and self._pos * 2 > len(self._buf):
            del self._buf[: self._pos]
            self._pos = 0
        return frames

    def _decode_at(
        self, buf, pos: int, copy_payload: bool
    ) -> Optional[Tuple[Frame, int]]:
        """Decode one frame at ``buf[pos:]``; ``(frame, end)`` or None.

        With ``copy_payload=False`` (immutable ``bytes`` source) SAMPLES
        columns are zero-copy views into ``buf``; with True (the mutable
        carry buffer) the payload is copied out first.
        """
        header_size = FRAME_HEADER.size
        if len(buf) - pos < header_size:
            return None
        magic, version, kind_raw, name_id, count = FRAME_HEADER.unpack_from(
            buf, pos
        )
        if magic != MAGIC:
            raise ProtocolError(f"bad frame magic: {bytes(magic)!r}")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"unsupported protocol version {version} "
                f"(speak {PROTOCOL_VERSION})"
            )
        try:
            kind = _KINDS[kind_raw]
        except IndexError:
            raise ProtocolError(f"unknown frame kind: {kind_raw}") from None
        columns = kind is _SAMPLES or kind is _DELIVER
        if columns:
            if count > MAX_FRAME_SAMPLES:
                raise ProtocolError(
                    f"{kind.name} frame of {count} samples exceeds the "
                    f"{MAX_FRAME_SAMPLES}-sample cap"
                )
            # Columns carry a trailing crc32; DELIVER also leads with
            # the float64 delivery instant.
            lead = _DELIVER_NOW.size if kind is _DELIVER else 0
            payload_size = lead + 16 * count + _CRC_TRAILER.size
        elif kind is _CONTROL or kind is _QUERY:
            if count > MAX_CONTROL_BYTES:
                raise ProtocolError(
                    f"{kind.name} payload of {count} bytes exceeds the "
                    f"{MAX_CONTROL_BYTES}-byte cap"
                )
            payload_size = count
        else:
            if count > MAX_NAME_BYTES:
                raise ProtocolError(
                    f"{kind.name} payload of {count} bytes exceeds the "
                    f"{MAX_NAME_BYTES}-byte cap"
                )
            payload_size = count
        start = pos + header_size
        end = start + payload_size
        if len(buf) < end:
            return None
        if columns:
            if copy_payload:
                # Detach from the carry buffer before it compacts.
                source: bytes = bytes(memoryview(buf)[start:end])
                offset = 0
            else:
                source = buf
                offset = start
            now: Optional[float] = None
            if lead:
                (now,) = _DELIVER_NOW.unpack_from(source, offset)
                offset += lead
            (expect,) = _CRC_TRAILER.unpack_from(source, offset + 16 * count)
            if crc32(source, 0, offset, 16 * count) != expect:
                raise ProtocolError(
                    f"{kind.name} column checksum mismatch "
                    f"(corrupt frame of {count} samples)"
                )
            times = np.frombuffer(source, dtype="<f8", count=count, offset=offset)
            values = np.frombuffer(
                source, dtype="<f8", count=count, offset=offset + 8 * count
            )
            return Frame(kind, name_id, None, times, values, now), end
        if kind is _CONTROL or kind is _QUERY:
            try:
                control = json.loads(bytes(memoryview(buf)[start:end]).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ProtocolError(
                    f"{kind.name} payload is not JSON: {exc}"
                ) from None
            if not isinstance(control, dict):
                raise ProtocolError(
                    f"{kind.name} payload must be a JSON object: "
                    f"{type(control).__name__}"
                )
            return (
                Frame(kind=kind, name_id=name_id, control=control),
                end,
            )
        if kind is _NAME_DEF:
            try:
                name = bytes(memoryview(buf)[start:end]).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError(f"NAME_DEF payload is not UTF-8: {exc}") from None
            if not name or any(ch.isspace() for ch in name):
                raise ProtocolError(f"invalid signal name on wire: {name!r}")
            return Frame(kind=kind, name_id=name_id, name=name), end
        return Frame(kind=kind, name_id=name_id), end


class WireDecoder:
    """Per-connection mode negotiation plus the matching decoder.

    The mode is sniffed from the first received byte: 0xA5 (the binary
    magic's first byte, impossible at the start of a text tuple line)
    selects binary; anything else selects text.  After the sniff, feeds
    delegate to the chosen incremental decoder, so arbitrary chunk
    fragmentation — including a 1-byte first read — is handled.
    """

    def __init__(self, max_line_bytes: int = MAX_LINE_BYTES) -> None:
        self.mode: Optional[str] = None  # None until the first byte arrives
        self._max_line_bytes = max_line_bytes
        self._lines: Optional[LineDecoder] = None
        self._frames: Optional[FrameDecoder] = None

    def feed(self, chunk: bytes) -> Tuple[List[Tuple3], List[Frame]]:
        """Add a chunk; return ``(text_tuples, binary_frames)``.

        Exactly one of the two lists can ever be non-empty — a
        connection speaks one protocol for its whole life.
        """
        if self.mode is None:
            if not chunk:
                return [], []
            if chunk[0] == MAGIC[0]:
                self.mode = "binary"
                self._frames = FrameDecoder()
            else:
                self.mode = "text"
                self._lines = LineDecoder(max_line_bytes=self._max_line_bytes)
        if self.mode == "binary":
            assert self._frames is not None
            return [], self._frames.feed(chunk)
        tuples, self._lines = decode_lines(chunk, self._lines)
        return tuples, []
