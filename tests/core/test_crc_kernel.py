"""The column checksum kernel against zlib, on both backends.

:mod:`repro.core.checksum` must return exactly ``zlib.crc32``'s values
whichever path computes them: the native carry-less-multiply fold, zlib
under the cutover, or zlib everywhere under ``REPRO_NATIVE=0``.  Every
native entry must reject a span that does not fit its buffer before the
kernel runs.
"""

import zlib

import numpy as np
import pytest

from repro.core import checksum

RNG = np.random.default_rng(20)
DATA = RNG.integers(0, 256, (1 << 20) + 64, dtype=np.uint8).tobytes()
#: Seeded lengths up to 1 MiB, plus both sides of the cutover.
LENGTHS = sorted(
    {int(n) for n in RNG.integers(0, 1 << 20, 40)}
    | {checksum.CUTOVER + d for d in (-17, -1, 0, 1, 63)}
    | {1 << 20}
)


def expected(offset, length, value=0):
    return zlib.crc32(DATA[offset : offset + length], value)


class TestEqualsZlib:
    def test_every_length_and_offset_through_one_block_call(self, checksum_backend):
        """crc32_blocks has no cutover, so the kernel itself sees every
        length 0-1024 at every start offset 0-15."""
        offsets = np.repeat(np.arange(16), 1025)
        lengths = np.tile(np.arange(1025), 16)
        got = checksum.crc32_blocks(DATA, offsets, lengths)
        want = [expected(o, n) for o, n in zip(offsets.tolist(), lengths.tolist())]
        assert got.dtype == np.uint32
        assert got.tolist() == want

    @pytest.mark.parametrize("offset", [0, 1, 7, 15])
    def test_seeded_lengths_up_to_1mib(self, checksum_backend, offset):
        for length in LENGTHS:
            assert checksum.crc32(DATA, 0, offset, length) == expected(offset, length), length

    def test_chained_value(self, checksum_backend):
        for length in (0, 5, 100, checksum.CUTOVER, 50_000):
            for value in (1, 0xDEADBEEF, 0xFFFFFFFF):
                assert checksum.crc32(DATA, value, 3, length) == expected(3, length, value)
        # Chaining two halves equals one pass, on either side of the cutover.
        for split in (10, checksum.CUTOVER + 5):
            head = checksum.crc32(DATA, 0, 0, split)
            assert checksum.crc32(DATA, head, split, 70_000) == expected(0, split + 70_000)

    def test_zlib_contract_defaults(self, checksum_backend):
        for length in (0, 64, checksum.CUTOVER, 100_000):
            data = DATA[:length]
            assert checksum.crc32(data) == zlib.crc32(data)
            assert checksum.crc32(data, 42) == zlib.crc32(data, 42)

    def test_any_contiguous_buffer(self, checksum_backend):
        as_array = np.frombuffer(DATA, dtype=np.uint8)
        for data in (as_array, bytearray(DATA[:200_000]), memoryview(DATA), as_array.view(np.float64)):
            assert checksum.crc32(data, 0, 5, 100_000) == expected(5, 100_000)

    def test_columns_equal_one_pass_over_times_then_values(self, checksum_backend):
        for n in (1, 128, 511, 512, 2048, 4096):
            times = DATA[: 8 * n]
            values = DATA[8 * n : 16 * n]
            assert checksum.crc32_columns(times, values) == zlib.crc32(DATA[: 16 * n])

    def test_gather_verify_copies_and_names_the_bad_block(self, checksum_backend):
        """One call gathers a signal's blocks from several segments, in
        the order given, on either backend."""
        heads = (0, 100, 5)  # where each segment starts in DATA
        bases = checksum.Buffers([DATA[:70_000], DATA[100:60_000], DATA[5:20_000]])
        segments = np.array([1, 0, 2, 0, 1], dtype=np.int64)
        offsets = np.array([7, 32, 0, 48_000, 41_000], dtype=np.int64)
        counts = np.array([1, 64, 600, 3, 1_100], dtype=np.int64)
        starts = [heads[s] + o for s, o in zip(segments.tolist(), offsets.tolist())]
        crcs = np.array([expected(o, 16 * c) for o, c in zip(starts, counts.tolist())])
        out_t = np.empty(int(counts.sum()))
        out_v = np.empty_like(out_t)

        def gather(crcs):
            return checksum.gather_verify(bases, segments, offsets, counts, crcs, out_t, out_v)

        assert gather(crcs) == counts.sum()
        cursor = 0
        for o, c in zip(starts, counts.tolist()):
            assert out_t[cursor : cursor + c].tobytes() == DATA[o : o + 8 * c]
            assert out_v[cursor : cursor + c].tobytes() == DATA[o + 8 * c : o + 16 * c]
            cursor += c
        for bad in (2, 4):
            wrong = crcs.copy()
            wrong[bad] ^= 1
            assert gather(wrong) == -(bad + 1)
            wrong[bad] = -1  # already verified: its check is skipped
            assert gather(wrong) == counts.sum()
        none, empty = np.empty(0, dtype=np.int64), np.empty(0)
        assert checksum.gather_verify(bases, none, none, none, none, empty, empty) == 0


class _NoKernel:
    """Stands in for the loaded library: any native call fails the test."""

    def __getattr__(self, name):
        raise AssertionError(f"native {name} called with an out-of-range span")


@pytest.fixture
def guarded(monkeypatch):
    monkeypatch.setattr(checksum, "_lib", _NoKernel())
    monkeypatch.setattr(checksum, "_tried", True)


class TestBoundsCheckedBeforeNativeCall:
    @pytest.mark.parametrize(
        "offset,length",
        [(-1, 10_000), (0, len(DATA) + 1), (len(DATA) - 9_000, 10_000), (10, -1), (len(DATA) + 1, 0)],
    )
    def test_crc32_span(self, guarded, offset, length):
        with pytest.raises(ValueError, match="does not fit"):
            checksum.crc32(DATA, 0, offset, length)

    def test_short_out_of_range_span_raises_too(self):
        with pytest.raises(ValueError, match="does not fit"):
            checksum.crc32(b"abc", 0, 2, 5)

    @pytest.mark.parametrize(
        "offsets,lengths",
        [([0, -1], [8, 8]), ([0, len(DATA) - 4], [8, 8]), ([0, 16], [8, -8])],
    )
    def test_block_spans(self, guarded, offsets, lengths):
        with pytest.raises(ValueError, match="does not fit"):
            checksum.crc32_blocks(DATA, np.array(offsets), np.array(lengths))

    def test_gather_spans_and_output(self, guarded):
        bases = checksum.Buffers([DATA[:4096], DATA[:8192]])

        def gather(segments=(0,), offsets=(0,), counts=(100,), crcs=(-1,), out_t=None, out_v=None):
            total = sum(counts)
            columns = [np.zeros(total) if out is None else out for out in (out_t, out_v)]
            blocks = [np.array(x, dtype=np.int64) for x in (segments, offsets, counts, crcs)]
            return checksum.gather_verify(bases, *blocks, *columns)

        for bad in (
            dict(segments=(1,), offsets=(8150,)),  # runs past every segment
            dict(offsets=(4000,)),  # runs past segment 0, though segment 1 would hold it
            dict(offsets=(-16,)),
            dict(segments=(0, 0), offsets=(0, 0), counts=(-100, 100), crcs=(-1, -1)),
            dict(out_t=np.zeros(99), out_v=np.zeros(99)),  # the output must fit exactly
            dict(out_t=np.zeros(101), out_v=np.zeros(101)),
        ):
            with pytest.raises(ValueError, match="does not fit"):
                gather(**bad)
        for segment in (2, -1):  # no such segment
            with pytest.raises(ValueError, match="segment index"):
                gather(segments=(segment,))
        for bad in (dict(crcs=(-1, -1)), dict(segments=(0, 0))):
            with pytest.raises(ValueError, match="one segment, offset, count and crc"):
                gather(**bad)
        read_only = np.zeros(100)
        read_only.flags.writeable = False
        for out in (np.zeros(100, dtype=np.float32), np.zeros(200)[::2], read_only):
            with pytest.raises(ValueError, match="writable float64"):
                gather(out_v=out)

    def test_block_lengths_match_offsets(self, guarded):
        with pytest.raises(ValueError, match="one length per offset"):
            checksum.crc32_blocks(DATA, np.array([0, 16]), np.array([8]))
