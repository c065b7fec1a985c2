"""Column checksums: one CRC-32 for the wire, the capture store and its reader.

Every column batch of the data path carries the CRC-32 of its
``times‖values`` bytes: SAMPLES and DELIVER frames on the wire
(:mod:`repro.net.protocol`), every block of a capture segment
(:mod:`repro.capture.writer`) and the reader's block check and verified
gather (:mod:`repro.capture.reader`).  This module computes all of them,
and it alone decides how.  The values are exactly ``zlib.crc32``'s.

**The kernel.**  One C translation unit, linked ``-lz`` and loaded
through the :mod:`repro.core.native` seam.  On x86 it folds 64-byte
stripes with carry-less multiplies (four 128-bit accumulators folded to
one, then 16-byte steps, then a Barrett reduction to 32 bits; constants
for zlib's reflected polynomial ``0xEDB88320`` from Intel's *Fast CRC
Computation for Generic Polynomials Using PCLMULQDQ*).  The fold is
compiled with a ``target`` attribute and chosen at run time from the
CPU; zlib's ``crc32_z`` takes tails, buffers under 64 bytes, CPUs
without PCLMULQDQ and non-x86 builds, where the fold is not compiled.

**Native or zlib.**  Python's ``zlib.crc32`` runs when
``REPRO_NATIVE=0``, when the machine has no compiler or the build
fails, and for any single payload under :data:`CUTOVER` bytes, where
one ctypes call costs more than it saves.  The block form is one native
call for a whole segment and the gather one for a whole store, so they
take no cutover; without the kernel the gather runs the same checks,
then zlib and numpy over the same blocks.

**Bounds.**  The kernel is foreign code, so every native entry checks
that each offset and length fits its buffer and raises ``ValueError``
before the call.  Callers pass a ``bytes`` object with an offset, or an
array; nothing is copied to reach the kernel.  The gather reads several
buffers through :class:`Buffers`, which keeps each buffer's view next to
its address, so no address outlives the memory it points into.
"""

from __future__ import annotations

import ctypes
import zlib
from itertools import repeat
from operator import add, gt
from typing import Iterable, List, Optional

import numpy as np

from repro.core import native

__all__ = [
    "CUTOVER",
    "Buffers",
    "crc32",
    "crc32_blocks",
    "crc32_columns",
    "gather_verify",
    "reset",
]

#: Payloads shorter than this many bytes are checksummed by Python's
#: ``zlib.crc32``: below it, the fixed cost of a ctypes call outweighs
#: the faster fold.  Measured one :func:`crc32` call at a time, best of
#: 30 runs (2-vCPU x86-64 KVM guest with PCLMULQDQ, Python 3.11.7,
#: zlib 1.2.13), zlib vs native: 1 KiB 0.53 vs 1.39 µs, 2 KiB 0.75 vs
#: 1.41, 4 KiB 1.33 vs 1.56, 8 KiB 2.59 vs 1.75, 16 KiB 4.95 vs 2.15,
#: 32 KiB 9.39 vs 3.05.
CUTOVER = 8192

_SOURCE = r"""
#include <stddef.h>
#include <stdint.h>
#include <string.h>

extern unsigned long crc32_z(unsigned long crc, const unsigned char* buf,
                             size_t len);

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#define HAVE_FOLD 1

#define FOLD_TARGET __attribute__((target("pclmul,sse4.1")))

/* acc * (k.hi, k.lo) folded 128 bits forward, then xor the next block */
static inline FOLD_TARGET __m128i fold16(__m128i acc, __m128i k, __m128i next)
{
    __m128i lo = _mm_clmulepi64_si128(acc, k, 0x00);
    __m128i hi = _mm_clmulepi64_si128(acc, k, 0x11);
    return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/* CRC of len bytes (len >= 64, a multiple of 16) from the inverted
   running value x; returns the result still inverted. */
static FOLD_TARGET uint32_t fold(uint32_t x, const unsigned char* p, size_t len)
{
    const __m128i k1k2 = _mm_set_epi64x(0x1c6e41596LL, 0x154442bd4LL);
    const __m128i k3k4 = _mm_set_epi64x(0x0ccaa009eLL, 0x1751997d0LL);
    const __m128i k5 = _mm_set_epi64x(0, 0x163cd6124LL);
    const __m128i poly = _mm_set_epi64x(0x1f7011641LL, 0x1db710641LL);
    const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);
    __m128i a0 = _mm_loadu_si128((const __m128i*)(p + 0));
    __m128i a1 = _mm_loadu_si128((const __m128i*)(p + 16));
    __m128i a2 = _mm_loadu_si128((const __m128i*)(p + 32));
    __m128i a3 = _mm_loadu_si128((const __m128i*)(p + 48));
    __m128i t;
    a0 = _mm_xor_si128(a0, _mm_cvtsi32_si128((int)x));
    p += 64;
    len -= 64;
    for (; len >= 64; p += 64, len -= 64) {
        a0 = fold16(a0, k1k2, _mm_loadu_si128((const __m128i*)(p + 0)));
        a1 = fold16(a1, k1k2, _mm_loadu_si128((const __m128i*)(p + 16)));
        a2 = fold16(a2, k1k2, _mm_loadu_si128((const __m128i*)(p + 32)));
        a3 = fold16(a3, k1k2, _mm_loadu_si128((const __m128i*)(p + 48)));
    }
    a0 = fold16(a0, k3k4, a1);
    a0 = fold16(a0, k3k4, a2);
    a0 = fold16(a0, k3k4, a3);
    for (; len >= 16; p += 16, len -= 16)
        a0 = fold16(a0, k3k4, _mm_loadu_si128((const __m128i*)p));
    /* 128 -> 64 bits */
    t = _mm_clmulepi64_si128(a0, k3k4, 0x10);
    a0 = _mm_xor_si128(_mm_srli_si128(a0, 8), t);
    /* 64 -> 32 bits */
    t = _mm_srli_si128(a0, 4);
    a0 = _mm_clmulepi64_si128(_mm_and_si128(a0, low32), k5, 0x00);
    a0 = _mm_xor_si128(a0, t);
    /* Barrett reduction */
    t = _mm_clmulepi64_si128(_mm_and_si128(a0, low32), poly, 0x10);
    t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly, 0x00);
    a0 = _mm_xor_si128(a0, t);
    return (uint32_t)_mm_extract_epi32(a0, 1);
}

static int fold_ok = -1;
#endif

/* zlib-contract update: crc is the previous (uninverted) CRC-32. */
static uint32_t crc_update(uint32_t crc, const unsigned char* p, size_t n)
{
#ifdef HAVE_FOLD
    if (n >= 64) {
        if (fold_ok < 0) {
            __builtin_cpu_init();
            fold_ok = __builtin_cpu_supports("pclmul")
                      && __builtin_cpu_supports("sse4.1");
        }
        if (fold_ok) {
            size_t body = n & ~(size_t)15;
            crc = ~fold(~crc, p, body);
            p += body;
            n -= body;
        }
    }
#endif
    return n ? (uint32_t)crc32_z(crc, p, n) : crc;
}

unsigned int crc32_at(unsigned int crc, const unsigned char* base,
                      long long offset, long long len)
{
    return crc_update(crc, base + offset, (size_t)len);
}

unsigned int crc32_pair(const unsigned char* a, long long alen,
                        const unsigned char* b, long long blen)
{
    return crc_update(crc_update(0, a, (size_t)alen), b, (size_t)blen);
}

void crc32_blocks(const unsigned char* base, const long long* offsets,
                  const long long* lengths, long long nblocks,
                  unsigned int* out)
{
    for (long long b = 0; b < nblocks; b++)
        out[b] = crc_update(0, base + offsets[b], (size_t)lengths[b]);
}

/* Verified gather: block b is counts[b] times then counts[b] values at
   offsets[b] of buffer bases[segs[b]].  Check each block's CRC (crcs[b]
   < 0: already verified, skip) and copy its columns out.  Returns the
   sample count copied, or -(b + 1) naming the first bad block. */
long long gather_verify(const unsigned long long* bases, const long long* segs,
                        const long long* offsets, const long long* counts,
                        const long long* crcs, long long nblocks,
                        double* out_t, double* out_v)
{
    long long cur = 0;
    for (long long b = 0; b < nblocks; b++) {
        long long c = counts[b];
        const unsigned char* p =
            (const unsigned char*)(uintptr_t)bases[segs[b]] + offsets[b];
        if (crcs[b] >= 0 && (long long)crc_update(0, p, (size_t)(16 * c)) != crcs[b])
            return -(b + 1);
        memcpy((char*)(out_t + cur), p, (size_t)(8 * c));
        memcpy((char*)(out_v + cur), p + 8 * c, (size_t)(8 * c));
        cur += c;
    }
    return cur;
}
"""

_lib: Optional[ctypes.CDLL] = None
_tried = False


def _native() -> Optional[ctypes.CDLL]:
    """The loaded kernel, or None: zlib computes every checksum."""
    global _lib, _tried
    if not _tried:
        _tried = True
        lib = native.build(_SOURCE, "crc32", ldflags=("-lz",))
        if lib is not None:
            u32, ll, ptr = ctypes.c_uint32, ctypes.c_longlong, ctypes.c_void_p
            lib.crc32_at.restype = u32
            lib.crc32_at.argtypes = [u32, ptr, ll, ll]
            lib.crc32_pair.restype = u32
            lib.crc32_pair.argtypes = [ptr, ll, ptr, ll]
            lib.crc32_blocks.restype = None
            lib.crc32_blocks.argtypes = [ptr, ptr, ptr, ll, ptr]
            lib.gather_verify.restype = ll
            lib.gather_verify.argtypes = [ptr, ptr, ptr, ptr, ptr, ll, ptr, ptr]
        _lib = lib
    return _lib


def reset() -> None:
    """Forget the loaded kernel (test hook, pairs with ``native.reset``)."""
    global _lib, _tried
    _lib = None
    _tried = False


def _check_spans(starts: List[int], lengths: List[int], sizes: Iterable[int]) -> None:
    """Raise ``ValueError`` unless every ``[start, start + length)`` fits
    its buffer, whose size ``sizes`` yields in span order.  Python ints,
    so a forged offset or length cannot overflow past the check."""
    if len(starts) != len(lengths):
        raise ValueError("checksum spans need one length per offset")
    if starts and (
        min(starts) < 0
        or min(lengths) < 0
        or any(map(gt, map(add, starts, lengths), sizes))
    ):
        raise ValueError("checksum span does not fit its buffer")


def crc32(data, value: int = 0, offset: int = 0, length: Optional[int] = None) -> int:
    """``zlib.crc32(data[offset:offset + length], value)``, without the slice.

    ``data`` is a ``bytes`` object or any contiguous buffer; ``length``
    defaults to the rest of it.  Raises ``ValueError`` when the span
    does not fit the buffer.
    """
    if type(data) is not bytes:
        data = np.frombuffer(data, dtype=np.uint8)
    size = len(data)
    if length is None:
        length = size - offset
    if offset < 0 or length < 0 or offset + length > size:
        raise ValueError(
            f"checksum span [{offset}, {offset}+{length}) does not fit "
            f"a buffer of {size} bytes"
        )
    if length < CUTOVER or _native() is None:
        return zlib.crc32(memoryview(data)[offset : offset + length], value)
    address = data if type(data) is bytes else data.ctypes.data
    return _lib.crc32_at(value & 0xFFFFFFFF, address, offset, length)


def crc32_columns(times: bytes, values: bytes) -> int:
    """The CRC-32 of ``times‖values`` (two ``bytes`` objects) without
    joining them.

    Under :data:`CUTOVER` this is exactly ``zlib.crc32(values,
    zlib.crc32(times))``; above it, one native call over both.
    """
    if len(times) + len(values) < CUTOVER or _native() is None:
        return zlib.crc32(values, zlib.crc32(times))
    return _lib.crc32_pair(times, len(times), values, len(values))


def crc32_blocks(base, offsets: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Every block's CRC-32 (uint32), in one native call.

    Block ``b`` is ``lengths[b]`` bytes of ``base``'s buffer from byte
    ``offsets[b]``.  Raises ``ValueError`` when a block does not fit.
    """
    view = np.frombuffer(base, dtype=np.uint8)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    lengths = np.ascontiguousarray(lengths, dtype=np.int64)
    _check_spans(offsets.tolist(), lengths.tolist(), repeat(view.shape[0]))
    out = np.empty(offsets.shape[0], dtype=np.uint32)
    lib = _native()
    if lib is None:
        for b, (start, n) in enumerate(zip(offsets.tolist(), lengths.tolist())):
            out[b] = zlib.crc32(view[start : start + n])
        return out
    lib.crc32_blocks(
        view.ctypes.data,
        offsets.ctypes.data,
        lengths.ctypes.data,
        out.shape[0],
        out.ctypes.data,
    )
    return out


class Buffers:
    """Byte buffers that :func:`gather_verify` reads by index.

    Holds a uint8 view of each buffer beside its address and size.  The
    views pin the memory the addresses point into, so the addresses are
    valid exactly as long as this object is referenced.
    """

    def __init__(self, buffers) -> None:
        self.views = [np.frombuffer(b, dtype=np.uint8) for b in buffers]
        self.addresses = np.array([v.ctypes.data for v in self.views], dtype=np.uint64)
        self.sizes = np.array([v.nbytes for v in self.views], dtype=np.int64)


def gather_verify(
    bases: Buffers,
    segments: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
    crcs: np.ndarray,
    out_t: np.ndarray,
    out_v: np.ndarray,
) -> int:
    """CRC-check and gather blocks from several buffers in one native pass.

    Block ``b`` holds ``counts[b]`` times then ``counts[b]`` values from
    byte ``offsets[b]`` of buffer ``segments[b]`` of ``bases``; the
    columns land in ``out_t`` / ``out_v`` in block order and fill them
    exactly.  ``crcs`` (int64) holds each block's stored CRC, or ``-1``
    for a block already verified (its check is skipped).  Returns the
    sample count copied, or ``-(b + 1)`` when block ``b`` fails its CRC —
    the caller raises.

    Before any native call it raises ``ValueError`` unless the four
    block arrays have one entry per block, every segment index names one
    of ``bases``, every block fits its own buffer, and both outputs are
    writable contiguous float64 columns of exactly the blocks' sample
    total.  Without the kernel, zlib and numpy do the same work.
    """
    segments = np.ascontiguousarray(segments, dtype=np.int64)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    crcs = np.ascontiguousarray(crcs, dtype=np.int64)
    if not len(segments) == len(offsets) == len(counts) == len(crcs):
        raise ValueError("gather needs one segment, offset, count and crc per block")
    starts, lengths = offsets.tolist(), counts.tolist()
    total = sum(lengths)
    for out in (out_t, out_v):
        if out.dtype != np.float64 or not out.flags.carray:
            raise ValueError("gather output must be a writable float64 C array")
        if out.shape[0] != total:
            raise ValueError(
                f"gather of {total} samples does not fit an output of {out.shape[0]}"
            )
    buffers = len(bases.views)
    if segments.size and not 0 <= segments.min() <= segments.max() < buffers:
        raise ValueError(f"gather segment index out of range for {buffers} buffers")
    _check_spans(starts, [16 * n for n in lengths], bases.sizes[segments].tolist())
    lib = _native()
    if lib is None:
        cursor = 0
        rows = zip(segments.tolist(), starts, lengths, crcs.tolist())
        for b, (segment, start, n, crc) in enumerate(rows):
            block = bases.views[segment][start : start + 16 * n]
            if crc >= 0 and zlib.crc32(block) != crc:
                return -(b + 1)
            out_t[cursor : cursor + n] = block[: 8 * n].view(np.float64)
            out_v[cursor : cursor + n] = block[8 * n :].view(np.float64)
            cursor += n
        return cursor
    addresses = bases.addresses
    return int(
        lib.gather_verify(
            addresses.ctypes.data,
            segments.ctypes.data,
            offsets.ctypes.data,
            counts.ctypes.data,
            crcs.ctypes.data,
            segments.shape[0],
            out_t.ctypes.data,
            out_v.ctypes.data,
        )
    )
