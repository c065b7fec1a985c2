"""Checksummed bytes pinned by SHA-256, under both checksum backends.

Every segment file and every SAMPLES/DELIVER frame must stay
byte-identical however its checksums and block metadata are computed:
native kernel or zlib, whole-segment array operations or a loop.  The
digests below were taken from a build that computed every checksum
with ``zlib.crc32`` and every block's time range, sorted flag and CRC
in a per-block Python loop.

The capture stream mixes what the block metadata must get exactly
right: NaN (excluded from a block's range), all-NaN blocks (indexed at
``-inf``), ``±inf``, unsorted blocks, mixtures of ``+0.0``, ``-0.0``
and NaN (where numpy's reductions disagree on which zero is the
extreme), and 1-sample and 2048-sample blocks.
"""

import hashlib

import numpy as np
import pytest

from repro.capture import CaptureWriter
from repro.net.protocol import MAX_FRAME_SAMPLES, encode_binary_samples, encode_deliver

NAMES = ["alpha", "beta.rate", "gamma-2", "µs"]


def capture_stream(seed=2026, blocks=600):
    """``(name, times, values, push_now)`` pushes, one of nine block kinds each."""
    rng = np.random.default_rng(seed)
    zeros = np.array([-0.0, 0.0, np.nan])
    now = 0.0
    out = []
    for k in range(blocks):
        kind = k % 9
        n = {6: 1, 7: 2048}.get(kind, int(rng.integers(2, 300)))
        t = now - 5.0 + np.cumsum(rng.random(n))
        if kind == 1:
            rng.shuffle(t)
        elif kind == 2:
            t[rng.random(n) < 0.2] = np.nan
        elif kind == 3:
            t[:] = np.nan
        elif kind == 4:
            t = rng.choice(np.array([-0.0, 0.0, np.nan, -1.5, 2.0]), n)
        elif kind == 8:
            t = rng.choice(zeros, n)
        elif kind == 5:
            t[rng.random(n) < 0.3] = rng.choice(np.array([np.inf, -np.inf]))
        elif kind == 6 and k % 2:
            t[:] = rng.choice(np.array([np.nan, -0.0, 0.0, np.inf]))
        v = rng.standard_normal(n)
        v[rng.random(n) < 0.05] = rng.choice(np.array([np.nan, -0.0, np.inf]))
        now += float(rng.random())
        out.append((NAMES[int(rng.integers(0, len(NAMES)))], t, v, now))
    return out


def segment_digests(root, segment_samples):
    with CaptureWriter(root, segment_samples=segment_samples) as writer:
        for name, t, v, now in capture_stream():
            writer.on_push(name, t, v, now)
    return [hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(root.glob("*.gseg"))]


def frame_columns(n):
    rng = np.random.default_rng(n)
    times = 1000.0 + np.arange(n, dtype=np.float64) * 0.25
    values = rng.standard_normal(n)
    values[::97] = -0.0
    return times, values


#: SHA-256 of each segment file, in segment order.
SEGMENTS = {
    20_000: [
        "d529af6a70ea7294a0b43024a5a6d1c042bd6358f35f4d9ffe174aef4cfabb74",
        "4a6da799155ae23b544f586071c3cf43d461a9e89a7f1c6edcbe00f76f2ee98a",
        "9ae11aed7ae3bc4778b83e8269c9945b5ed4683e8229cef1d93f5fa492ff7132",
        "6db9696acce446f4faf851a59fb000631acbe63fdaf76da9e5b7e853cf2edba9",
        "fe1c21495744a1adf87ed7c58929416d1d574c83ec8fcbb638f8a90472227798",
        "58495aa218dbd9d33ef86db3978267d6fa491580fa5f06eef304801d39c84f9b",
        "8db9e458fcde33bc1b3ef7f20da481f12372dcc26fae75c4654464245de212dd",
        "ebf80cca46c4c38cce90efc821509d8e5b28a29fae9a9c84e7ee6f4979f1ca5b",
        "df411a2f01081739fe336cee0ce45295bdb9f5dc2a4097070a7cbb67d1e29a13",
        "889eb274987717378faefb6d0b7b69fee9f80e39a56d93d1845a728e86105ab6",
    ],
    100_000: [
        "c1751472af86c9fbacad318bb0fbe1b1033d00c8f19fd7d11153f4d8fd78d50c",
        "c7eb59436aaba6bdfedb8b2f017a5336607cdee3e13326bb46624ab88339c83f",
        "1b65d96e31754e9fda24db7389c6de7f810bfb539a837d3888302da5ca75cec7",
    ],
}

#: SHA-256 of each frame encoding, by sample count.
FRAMES = {
    "samples": {
        1: "5a9ede8a3fa94ed007736151eb60c0d4178eca9496efdf3dd8256a1610f039d0",
        128: "b6a08981bc2852a8ed6a2620da01e271985bc5b61f150817bc82a6f5f51662f2",
        511: "91e4f455da9db99c2a6e14279fb5a8c64dbfb381c51df43b537b59f93dea9a73",
        512: "8a705a2d917523f4e37d6a462de688cc2333a17e04ffb104b0de00b238c45bac",
        2048: "4594f44e3420d9252eefbf3d1ffe62229e941f5cabacfa65501ff3d8d261f9c6",
        MAX_FRAME_SAMPLES + 1: "92c0d89f8ebd0c446fb7ec50a2f4b7f9718af47b04aa30a953d3a2868c63e140",
    },
    "deliver": {
        1: "a8431c436d43a9e171791b5efb99431d32d42f462bcbf97a3b19443ca217876d",
        128: "a2d727a8e0bf5377105fdedc09c3d378d2ece78cda34ce91e1590ec8f9bf5bb8",
        511: "6a13e0fafeeecd19cdbc5e516182f8d98351e91f07313393295de79942038428",
        512: "1b6553c49ea662df7da1da1a3df3a8a075267c06ec78f72a46cae53663190e53",
        2048: "7c3c11dc3f91c944b9414093df1ec1ac7e46b3e2c3370b8eb77d3d7ec2a5c472",
        MAX_FRAME_SAMPLES + 1: "de890aa752502313e3a094719e95b36231d5447896a3148fea22f7465075c80d",
    },
}


@pytest.mark.parametrize("segment_samples", sorted(SEGMENTS))
def test_segment_files(checksum_backend, tmp_path, segment_samples):
    assert segment_digests(tmp_path / "cap", segment_samples) == SEGMENTS[segment_samples]


@pytest.mark.parametrize("n", [1, 128, 511, 512, 2048, MAX_FRAME_SAMPLES + 1])
def test_frames(checksum_backend, n):
    times, values = frame_columns(n)
    samples = encode_binary_samples(3, times, values)
    deliver = encode_deliver(3, 123.5, times, values)
    got = {
        "samples": hashlib.sha256(samples).hexdigest(),
        "deliver": hashlib.sha256(deliver).hexdigest(),
    }
    assert got == {kind: FRAMES[kind][n] for kind in FRAMES}
