"""The capture reader: mmapped segments, one block table, O(log n) seek.

A :class:`CaptureReader` opens every segment of a capture directory,
validates its structure up front (magics, header CRC, directory CRC,
exact-size invariant, name-id and offset bounds) and memory-maps the
bodies, so reading a block is ``np.frombuffer`` over the mapping — no
parsing, no copies.

From the validated directories it builds one store-wide block table:
per block a global name id, its segment, offset, sample count and
stored CRC, plus one verified flag.  Each :class:`Segment` sees its own
slice of those flags, so a block's payload CRC is checked once per
reader, on first access, whichever path reads it first: the gather of
:meth:`CaptureReader.columns_for`, :meth:`~CaptureReader.iter_blocks` or
:meth:`~CaptureReader.seek`.  The table also holds each segment's base
address for the native gather; :meth:`CaptureReader.close` drops it, and
every read of a closed reader raises ``ValueError``.

Seeking by timestamp uses the directory as an index.  Captured sample
timestamps are *not* globally sorted (a jittered producer stamps samples
slightly in the past), but the running maximum of per-block ``t_max`` is
monotone in stream order, so "the first tuple with time >= t" is found
with two binary searches — segments, then blocks — plus one bounded
in-block scan: O(log n + block size).

Every structural failure raises the typed
:class:`~repro.capture.format.CaptureFormatError`; the reader never
returns wrong columns.  ``recover_tail=True`` additionally skips a
torn/corrupt *final* segment — the crash-recovery mode for stores whose
writer died mid-flush.
"""

from __future__ import annotations

import mmap
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.capture.format import (
    DIR_DTYPE,
    DIR_ENTRY_SIZE,
    FLAG_TIMES_SORTED,
    HEADER_CRC_SPAN,
    HEADER_SIZE,
    SEGMENT_SUFFIX,
    TRAILER_SIZE,
    CaptureFormatError,
    SegmentHeader,
    unpack_header,
    unpack_name_table,
    unpack_trailer,
)
from repro.core.checksum import Buffers, crc32, gather_verify


@dataclass(frozen=True, order=True)
class Position:
    """A seekable point in the capture stream.

    ``offset`` indexes into the block at ``(segment, block)`` — seeks
    can land mid-block, in which case replay delivers the block's tail.
    """

    segment: int = 0
    block: int = 0
    offset: int = 0


@dataclass(frozen=True)
class Block:
    """One recorded push: a signal's columns plus the push instant."""

    name: str
    times: np.ndarray
    values: np.ndarray
    push_now: float

    def __len__(self) -> int:
        return int(self.times.shape[0])


class Segment:
    """One validated, mmapped segment file."""

    def __init__(self, path: Path, expected_index: int) -> None:
        self.path = path
        size = path.stat().st_size
        if size < HEADER_SIZE + TRAILER_SIZE:
            raise CaptureFormatError(
                f"{path.name}: segment truncated to {size} bytes "
                f"(minimum is {HEADER_SIZE + TRAILER_SIZE})"
            )
        self._fh = open(path, "rb")
        self._base: Optional[np.ndarray] = None  # uint8 view of _mm
        try:
            self._mm = mmap.mmap(self._fh.fileno(), 0, access=mmap.ACCESS_READ)
        except BaseException:
            self._fh.close()
            raise
        try:
            self.header = self._validate(expected_index, size)
        except BaseException:
            self.close()
            raise
        self._base = np.frombuffer(self._mm, dtype=np.uint8)

    def _validate(self, expected_index: int, size: int) -> SegmentHeader:
        mm = self._mm
        header, stored_crc = unpack_header(mm[:HEADER_SIZE])
        actual_crc = zlib.crc32(mm[:HEADER_CRC_SPAN])
        if stored_crc != actual_crc:
            raise CaptureFormatError(
                f"{self.path.name}: header CRC mismatch "
                f"(stored {stored_crc:#010x}, computed {actual_crc:#010x})"
            )
        if header.segment_index != expected_index:
            raise CaptureFormatError(
                f"{self.path.name}: header claims segment "
                f"{header.segment_index}, expected {expected_index}"
            )
        if header.block_count == 0:
            raise CaptureFormatError(f"{self.path.name}: segment has no blocks")
        dir_offset, dir_crc = unpack_trailer(mm[-TRAILER_SIZE:])
        expected_size = dir_offset + header.block_count * DIR_ENTRY_SIZE + TRAILER_SIZE
        if expected_size != size:
            raise CaptureFormatError(
                f"{self.path.name}: size {size} does not match directory "
                f"({header.block_count} blocks at offset {dir_offset} "
                f"imply {expected_size}) — truncated or bogus block count"
            )
        table_end = HEADER_SIZE + header.name_table_bytes
        if table_end + TRAILER_SIZE > size or table_end > dir_offset:
            raise CaptureFormatError(
                f"{self.path.name}: name table ({header.name_table_bytes} bytes) "
                "runs past the segment body"
            )
        self.names = unpack_name_table(
            mm[HEADER_SIZE:table_end], header.name_count
        )
        dir_bytes = mm[dir_offset : dir_offset + header.block_count * DIR_ENTRY_SIZE]
        actual_dir_crc = zlib.crc32(dir_bytes)
        if actual_dir_crc != dir_crc:
            raise CaptureFormatError(
                f"{self.path.name}: directory CRC mismatch "
                f"(stored {dir_crc:#010x}, computed {actual_dir_crc:#010x})"
            )
        directory = np.frombuffer(dir_bytes, dtype=DIR_DTYPE).copy()
        counts = directory["count"].astype(np.int64)
        offsets = directory["offset"].astype(np.int64)
        if counts.min() < 1:
            raise CaptureFormatError(f"{self.path.name}: zero-sample block")
        if int(directory["name_id"].max()) >= header.name_count:
            raise CaptureFormatError(
                f"{self.path.name}: block references name id "
                f"{int(directory['name_id'].max())} but the table holds "
                f"{header.name_count} names"
            )
        # Blocks must tile [table_end, dir_offset) exactly, in order.
        ends = offsets + 16 * counts
        starts_ok = offsets[0] == table_end and bool(np.all(offsets[1:] == ends[:-1]))
        if not starts_ok or ends[-1] != dir_offset:
            raise CaptureFormatError(
                f"{self.path.name}: block offsets/counts do not tile the "
                "segment body — bogus count or offset"
            )
        push_now = directory["push_now"]
        if not bool(np.all(np.isfinite(push_now))):
            raise CaptureFormatError(
                f"{self.path.name}: non-finite push instant "
                "(would become a NaN replay deadline)"
            )
        if bool(np.any(push_now[1:] < push_now[:-1])):
            raise CaptureFormatError(
                f"{self.path.name}: push instants go backwards"
            )
        self.directory = directory
        #: Monotone seek key: running max of block t_max in stream order.
        self.cum_t_max = np.maximum.accumulate(directory["t_max"])
        self._verified = np.zeros(header.block_count, dtype=bool)
        return header

    # -- access --------------------------------------------------------
    @property
    def block_count(self) -> int:
        return int(self.header.block_count)

    def verify_block(self, index: int) -> None:
        """Check block ``index``'s payload CRC once (cached thereafter).

        The CRC runs over the mapping in place — no slice copy.  Inside a
        :class:`CaptureReader` the cache is this segment's slice of the
        store-wide verified flags, which the gather shares.
        """
        if self._verified[index]:
            return
        entry = self.directory[index]
        count = int(entry["count"])
        offset = int(entry["offset"])
        stored = int(entry["crc"])
        actual = crc32(self._base, 0, offset, 16 * count)
        if stored != actual:
            raise CaptureFormatError(
                f"{self.path.name}: block {index} payload CRC mismatch "
                f"(stored {stored:#010x}, computed {actual:#010x})"
            )
        self._verified[index] = True

    def block(self, index: int) -> Block:
        """Decode block ``index``, verifying its payload CRC once.

        The returned columns are read-only ``frombuffer`` views of the
        mapping — no copy; they stay valid until :meth:`close`.
        """
        self.verify_block(index)
        entry = self.directory[index]
        count = int(entry["count"])
        offset = int(entry["offset"])
        times = np.frombuffer(self._mm, dtype="<f8", count=count, offset=offset)
        values = np.frombuffer(
            self._mm, dtype="<f8", count=count, offset=offset + 8 * count
        )
        return Block(
            name=self.names[int(entry["name_id"])],
            times=times,
            values=values,
            push_now=float(entry["push_now"]),
        )

    def seek_block(self, t: float) -> Optional[Tuple[int, int]]:
        """First (block, offset) whose sample time is >= ``t``, else None."""
        index = int(np.searchsorted(self.cum_t_max, t, side="left"))
        while index < self.block_count:
            entry = self.directory[index]
            if entry["t_max"] >= t:
                block = self.block(index)
                if int(entry["flags"]) & FLAG_TIMES_SORTED:
                    offset = int(np.searchsorted(block.times, t, side="left"))
                    found = offset < len(block)
                else:
                    hits = np.flatnonzero(block.times >= t)
                    found = hits.size > 0
                    offset = int(hits[0]) if found else len(block)
                if found:
                    return index, offset
                # The directory promised a sample >= t that the payload
                # does not hold.  The one benign way here is the all-NaN
                # sentinel (t_max == -inf matched a -inf seek); anything
                # else is forged/corrupt metadata and must fail closed.
                if np.isfinite(entry["t_max"]) or np.isfinite(t):
                    raise CaptureFormatError(
                        f"{self.path.name}: block {index} directory t_max "
                        f"{float(entry['t_max'])} promises a sample >= {t} "
                        "the payload does not contain"
                    )
            index += 1
        return None

    def close(self) -> None:
        self._base = None
        try:
            self._mm.close()
        except BufferError:
            # Live zero-copy column views still reference the mapping;
            # it is unmapped when the last view is garbage-collected.
            pass
        self._fh.close()


class _BlockTable:
    """Every block of a store, one row each in stream order.

    Built once from the segments' validated directories.  ``bases``
    holds each segment's mapping with its address; the reader drops the
    whole table on close, so no address outlives the views it points
    into.
    """

    def __init__(self, segments: List[Segment]) -> None:
        index_of: Dict[str, int] = {}
        ids = [np.empty(0, dtype=np.int64)]
        for segment in segments:
            local = [index_of.setdefault(n, len(index_of)) for n in segment.names]
            ids.append(np.array(local, dtype=np.int64)[segment.directory["name_id"]])
        per_segment = [segment.block_count for segment in segments]

        def column(field: str) -> np.ndarray:
            parts = [segment.directory[field] for segment in segments]
            return np.concatenate(parts or [np.empty(0)]).astype(np.int64)

        #: Global name id of each name, in first-appearance (stream) order.
        self.index_of = index_of
        self.ids = np.concatenate(ids)
        self.segment_of = np.repeat(np.arange(len(segments)), per_segment)
        #: Row of each segment's first block; ``first[-1]`` is the row count.
        self.first = [0] + np.cumsum(per_segment, dtype=np.int64).tolist()
        self.offsets = column("offset")
        self.counts = column("count")
        self.crcs = column("crc")
        self.verified = np.zeros(self.first[-1], dtype=bool)
        for k, segment in enumerate(segments):
            segment._verified = self.verified[self.first[k] : self.first[k + 1]]
        self.bases = Buffers([segment._base for segment in segments])

    def locate(self, row: int) -> Tuple[int, int]:
        """``(segment, block)`` of table row ``row``."""
        k = int(self.segment_of[row])
        return k, row - self.first[k]


class CaptureReader:
    """Reads a segmented capture directory.

    Parameters
    ----------
    path:
        The capture directory written by a
        :class:`~repro.capture.writer.CaptureWriter`.
    recover_tail:
        When True, a structurally invalid *final* segment (the one a
        killed writer may have torn) is skipped instead of raising; its
        file name is recorded in :attr:`skipped_tail`.  Corruption in
        any earlier segment always raises — recovery never hides damage
        in the middle of a store.
    """

    def __init__(self, path: Union[str, Path], recover_tail: bool = False) -> None:
        self.path = Path(path)
        if not self.path.is_dir():
            raise CaptureFormatError(f"no capture directory at {self.path}")
        files = sorted(self.path.glob(f"*{SEGMENT_SUFFIX}"))
        self.segments: List[Segment] = []
        self.skipped_tail: Optional[str] = None
        self._table: Optional[_BlockTable] = None
        for ordinal, file in enumerate(files):
            try:
                try:
                    stem = int(file.stem)
                except ValueError:
                    raise CaptureFormatError(
                        f"{file.name}: segment file name is not an ordinal"
                    ) from None
                if stem != ordinal:
                    raise CaptureFormatError(
                        f"{file.name}: expected segment {ordinal} next — "
                        "the capture's segment sequence has a gap"
                    )
                self.segments.append(Segment(file, ordinal))
            except CaptureFormatError:
                if recover_tail and ordinal == len(files) - 1:
                    self.skipped_tail = file.name
                    break
                self.close()
                raise
            except BaseException:
                self.close()
                raise
        self._seg_cum_t_max = np.maximum.accumulate(
            np.array([s.cum_t_max[-1] for s in self.segments], dtype=np.float64)
        )
        self._table = _BlockTable(self.segments)

    def _live(self) -> _BlockTable:
        """The block table; raises ``ValueError`` once the reader is closed."""
        if self._table is None:
            raise ValueError(f"capture reader of {self.path} is closed")
        return self._table

    # ------------------------------------------------------------------
    # Store-level metadata
    # ------------------------------------------------------------------
    @property
    def sample_count(self) -> int:
        return int(self._live().counts.sum())

    @property
    def block_count(self) -> int:
        return self._live().first[-1]

    @property
    def names(self) -> List[str]:
        """Distinct signal names, in first-appearance (stream) order."""
        return list(self._live().index_of)

    @property
    def start_time_ms(self) -> float:
        """Earliest sample timestamp (0.0 for an empty capture)."""
        if not self.segments:
            return 0.0
        return min(s.header.t_min for s in self.segments)

    @property
    def end_time_ms(self) -> float:
        if not self.segments:
            return 0.0
        return max(s.header.t_max for s in self.segments)

    @property
    def duration_ms(self) -> float:
        """Timestamp span (:attr:`~repro.core.tuples.Player.duration_ms`)."""
        if not self.segments:
            return 0.0
        return self.end_time_ms - self.start_time_ms

    def end_position(self) -> Position:
        return Position(segment=len(self.segments), block=0, offset=0)

    # ------------------------------------------------------------------
    # Indexed seek
    # ------------------------------------------------------------------
    def seek(self, t: float) -> Position:
        """Position of the first sample (stream order) with time >= ``t``.

        Two binary searches (segments, then blocks within the segment)
        over running-max ``t_max`` keys, then one in-block search:
        O(log n) in the store size.  Returns :meth:`end_position` when
        every sample is older than ``t``.
        """
        self._live()
        start = int(np.searchsorted(self._seg_cum_t_max, t, side="left"))
        for seg_index in range(start, len(self.segments)):
            hit = self.segments[seg_index].seek_block(t)
            if hit is not None:
                block, offset = hit
                return Position(segment=seg_index, block=block, offset=offset)
        return self.end_position()

    # ------------------------------------------------------------------
    # Stream access
    # ------------------------------------------------------------------
    def iter_blocks(
        self,
        start: Optional[Position] = None,
        names: Optional[Iterable[str]] = None,
    ) -> Iterator[Tuple[Position, Block]]:
        """Yield ``(position, block)`` in stream (push) order from ``start``.

        A mid-block start position yields that block sliced from its
        offset; all later blocks come whole.  ``names`` restricts the
        stream to those signals — one vectorised test over the block
        table picks their rows *before* decoding, so a narrow read never
        pays payload CRC (or a Python step) for blocks it ignores.
        """
        table = self._live()
        pos = start or Position()
        first = table.first
        start_row = first[min(pos.segment, len(self.segments))] + pos.block
        rows = np.arange(start_row, first[-1])
        if names is not None:
            wanted = [table.index_of[n] for n in set(names) if n in table.index_of]
            rows = rows[np.isin(table.ids[start_row:], wanted)]
        for row, seg_index in zip(rows.tolist(), table.segment_of[rows].tolist()):
            block_index = row - first[seg_index]
            block = self.segments[seg_index].block(block_index)
            offset = pos.offset if row == start_row else 0
            if offset:
                if offset >= len(block):
                    continue
                block = Block(
                    name=block.name,
                    times=block.times[offset:],
                    values=block.values[offset:],
                    push_now=block.push_now,
                )
            yield Position(seg_index, block_index, offset), block

    def signal_sample_counts(self) -> Dict[str, int]:
        """Per-signal sample totals, straight from the block table.

        No payload is touched: the table already carries per-block name
        ids and counts, so this is metadata arithmetic.
        """
        table = self._live()
        names = table.index_of
        per_id = np.bincount(table.ids, weights=table.counts, minlength=len(names))
        return {name: int(per_id[i]) for name, i in names.items()}

    def columns_for(
        self, names: Iterable[str]
    ) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
        """Several signals' ``(times, values)`` columns in one pass.

        Each signal is one select over the block table (payloads of other
        signals are never touched, nor CRC-checked).  A signal recorded
        in a **single block** comes back as the direct read-only mmap
        views of that block — zero copy; the views stay valid even after
        :meth:`close` (the mapping is unmapped when the last view is
        garbage-collected).  A signal spanning several blocks is copied
        once into preallocated columns by one checked call,
        :func:`repro.core.checksum.gather_verify`, over every block of
        the signal in every segment: native when the checksum kernel
        built, else zlib and numpy.  It checks the CRC of each block not
        yet verified, and the verified flags it sets are the ones
        :meth:`iter_blocks` and :meth:`seek` consult.  Signals absent
        from the capture come back as empty columns (matching
        :meth:`read_signal`).  Raises ``ValueError`` after :meth:`close`.
        This is the batch query executor's read path.
        """
        table = self._live()
        out: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for name in dict.fromkeys(names):  # de-dup, preserve order
            rows = np.flatnonzero(table.ids == table.index_of.get(name, -1))
            if rows.size == 1:
                segment, index = table.locate(int(rows[0]))
                block = self.segments[segment].block(index)
                out[name] = (block.times, block.values)
                continue
            counts = table.counts[rows]
            times = np.empty(int(counts.sum()), dtype=np.float64)
            values = np.empty_like(times)
            crcs = np.where(table.verified[rows], -1, table.crcs[rows])
            segments, offsets = table.segment_of[rows], table.offsets[rows]
            rc = gather_verify(
                table.bases, segments, offsets, counts, crcs, times, values
            )
            if rc < 0:
                segment, index = table.locate(int(rows[-rc - 1]))
                raise CaptureFormatError(
                    f"{self.segments[segment].path.name}: block {index} "
                    "payload CRC mismatch"
                )
            table.verified[rows] = True
            out[name] = (times, values)
        return out

    def read_signal(self, name: str) -> Tuple[np.ndarray, np.ndarray]:
        """All of one signal's ``(times, values)`` in stream order.

        The longitudinal re-query path: one streaming pass over the
        matching blocks into preallocated columns (see
        :meth:`columns_for`).
        """
        return self.columns_for((name,))[name]

    def columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Whole-capture ``(times, values, name_indices)`` in stream order.

        ``name_indices`` indexes into :attr:`names`.
        """
        names = self.names
        index_of = {name: i for i, name in enumerate(names)}
        times: List[np.ndarray] = []
        values: List[np.ndarray] = []
        ids: List[np.ndarray] = []
        for _, block in self.iter_blocks():
            times.append(block.times)
            values.append(block.values)
            ids.append(np.full(len(block), index_of[block.name], dtype=np.int64))
        if not times:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty.copy(), np.empty(0, dtype=np.int64)
        return np.concatenate(times), np.concatenate(values), np.concatenate(ids)

    def sorted_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`columns` ordered by timestamp, stream order breaking ties.

        The one canonical tuple ordering of a capture — what
        :func:`repro.capture.export_text` writes and what
        :meth:`repro.core.tuples.Player.from_capture` loads, so the two
        adapters can never drift apart.
        """
        times, values, ids = self.columns()
        order = np.argsort(times, kind="stable")
        return times[order], values[order], ids[order]

    def close(self) -> None:
        """Drop the block table and its addresses, then unmap every segment."""
        self._table = None
        for segment in self.segments:
            segment.close()
        self.segments = []

    def __enter__(self) -> "CaptureReader":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
