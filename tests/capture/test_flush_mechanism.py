"""How a segment flush does its work: whole-segment calls, not a block loop.

A flush computes every block's CRC in one native call and every
directory column with a fixed number of numpy calls, so its Python-side
work does not grow with the number of blocks.  Its directory must equal,
bit for bit, what a per-block loop computes (the reference below); the
bytes it writes are pinned separately
(``tests/integration/test_byte_identity.py``).
"""

import zlib

import numpy as np
import pytest

import repro.capture.writer as writer_module
from repro.capture import CaptureReader, CaptureWriter
from repro.capture.format import DIR_DTYPE, FLAG_TIMES_SORTED
from repro.core import checksum


class CountingNumpy:
    """Stands in for the writer module's ``np``: counts every call made
    through it, ufunc methods such as ``np.fmin.reduceat`` included."""

    def __init__(self, target, calls):
        self._target = target
        self._calls = calls

    def __getattr__(self, name):
        attr = getattr(self._target, name)
        if isinstance(attr, type) or not callable(attr):
            return attr  # dtypes and constants pass through untouched
        return CountingNumpy(attr, self._calls)

    def __call__(self, *args, **kwargs):
        self._calls[0] += 1
        return self._target(*args, **kwargs)


def flush_calls(root, blocks, monkeypatch):
    """``(zlib.crc32 calls, numpy calls)`` of one ``blocks``-block flush."""
    writer = CaptureWriter(root, segment_samples=1 << 40)
    rng = np.random.default_rng(blocks)
    for k in range(blocks):
        times = 1.0 + k + np.sort(rng.random(64))
        if k % 7 == 3:
            times[5] = np.nan
        if k % 11 == 4:
            times = times[::-1].copy()
        writer.on_push(f"s{k % 13}", times, rng.standard_normal(64), float(k))
    crc_calls, np_calls = [0], [0]
    real_crc32 = zlib.crc32

    def counting_crc32(*args):
        crc_calls[0] += 1
        return real_crc32(*args)

    with monkeypatch.context() as patch:
        patch.setattr(zlib, "crc32", counting_crc32)
        patch.setattr(writer_module, "np", CountingNumpy(np, np_calls))
        writer.flush_segment()
    writer.close()
    with CaptureReader(root) as reader:  # the segment is whole and valid
        assert reader.block_count == blocks
        for name in reader.names:
            reader.read_signal(name)
    return crc_calls[0], np_calls[0]


@pytest.fixture
def native_kernel():
    checksum.reset()  # forget a zlib-only state cached under REPRO_NATIVE=0
    if checksum._native() is None:
        pytest.skip("no native checksum kernel on this machine")


def test_block_crcs_take_one_native_call(native_kernel, tmp_path, monkeypatch):
    """Only the header and the directory CRC go through zlib (a
    per-block loop made 2 calls per block plus those 2)."""
    crc_calls, _ = flush_calls(tmp_path / "cap", 512, monkeypatch)
    assert crc_calls <= 2


def test_numpy_calls_do_not_grow_with_blocks(tmp_path, monkeypatch):
    _, small = flush_calls(tmp_path / "small", 64, monkeypatch)
    _, large = flush_calls(tmp_path / "large", 512, monkeypatch)
    assert 0 < large <= small


def reference_entry(times, values):
    """One block's ``(t_min, t_max, flags, crc)``, computed block by block."""
    non_nan = times[~np.isnan(times)]
    if non_nan.shape[0]:
        t_min, t_max = float(non_nan.min()), float(non_nan.max())
    else:
        t_min = t_max = float("-inf")
    ascending = times.shape[0] < 2 or bool(np.all(times[1:] >= times[:-1]))
    flags = FLAG_TIMES_SORTED if non_nan.shape[0] == times.shape[0] and ascending else 0
    return t_min, t_max, flags, zlib.crc32(values.tobytes(), zlib.crc32(times.tobytes()))


@pytest.mark.parametrize("seed", range(6))
def test_directory_matches_per_block_reference(tmp_path, seed):
    rng = np.random.default_rng(seed)
    specials = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1.5, -2.0])
    pushes = []
    for k in range(int(rng.integers(1, 400))):
        n = int(rng.choice([1, 2, 3, int(rng.integers(4, 200)), 2048]))
        times = k + np.sort(rng.random(n))
        mix = rng.random()
        if mix < 0.4:  # sprinkle NaN, signed zeros and infinities
            hit = rng.random(n) < rng.random()
            times[hit] = rng.choice(specials, int(hit.sum()))
        elif mix < 0.5:
            rng.shuffle(times)
        pushes.append((f"s{k % 5}", times, rng.standard_normal(n), float(k)))
    with CaptureWriter(tmp_path / "cap", segment_samples=1 << 40) as writer:
        for push in pushes:
            writer.on_push(*push)
    (segment,) = sorted((tmp_path / "cap").glob("*.gseg"))
    raw = segment.read_bytes()
    with CaptureReader(tmp_path / "cap") as reader:
        offset = int(reader.segments[0].directory["offset"][0])
        directory = reader.segments[0].directory
    for _, times, values, _ in pushes:
        width = 16 * times.shape[0]
        assert raw[offset : offset + width] == times.tobytes() + values.tobytes()
        offset += width
    want = np.zeros(len(pushes), dtype=DIR_DTYPE)
    fields = ("t_min", "t_max", "flags", "crc")
    for field, column in zip(fields, zip(*(reference_entry(t, v) for _, t, v, _ in pushes))):
        want[field] = column
        assert directory[field].tobytes() == want[field].tobytes(), field
