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
        counts = np.array([1, 64, 600, 3], dtype=np.int64)
        offsets = np.concatenate(([32], 32 + np.cumsum(16 * counts)[:-1]))
        base = np.frombuffer(DATA, dtype=np.uint8)
        crcs = np.array([expected(o, 16 * c) for o, c in zip(offsets, counts)], dtype=np.int64)
        out_t = np.empty(int(counts.sum()) + 2)
        out_v = np.empty_like(out_t)
        rc = checksum.gather_verify(base, offsets, counts, crcs, out_t, out_v, 2)
        if checksum_backend == "zlib":
            assert rc is None  # the reader's own per-block path takes over
            return
        assert rc == counts.sum()
        cursor = 2
        for o, c in zip(offsets.tolist(), counts.tolist()):
            assert out_t[cursor : cursor + c].tobytes() == DATA[o : o + 8 * c]
            assert out_v[cursor : cursor + c].tobytes() == DATA[o + 8 * c : o + 16 * c]
            cursor += c
        crcs[2] ^= 1
        assert checksum.gather_verify(base, offsets, counts, crcs, out_t, out_v, 2) == -3
        crcs[2] = -1  # already verified: its check is skipped
        assert checksum.gather_verify(base, offsets, counts, crcs, out_t, out_v, 2) == counts.sum()


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
        base = np.frombuffer(DATA[:4096], dtype=np.uint8)
        out = np.zeros(300)
        ok = dict(offsets=np.array([0]), counts=np.array([100]), crcs=np.array([-1]))
        for bad in (
            dict(ok, offsets=np.array([4000])),  # block runs past the segment
            dict(ok, counts=np.array([300])),
            dict(ok, offsets=np.array([-16])),
        ):
            with pytest.raises(ValueError, match="does not fit"):
                checksum.gather_verify(base, bad["offsets"], bad["counts"], bad["crcs"], out, out, 0)
        with pytest.raises(ValueError, match="does not fit"):  # output too short
            checksum.gather_verify(base, ok["offsets"], ok["counts"], ok["crcs"], out, out, 250)
        with pytest.raises(ValueError, match="float64"):
            checksum.gather_verify(
                base, ok["offsets"], ok["counts"], ok["crcs"], out.astype(np.float32), out, 0
            )
