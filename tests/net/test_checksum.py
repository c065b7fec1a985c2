"""Frame-checksum corruption suite: corrupt bytes never become samples.

Version 2 of the binary protocol appends a crc32 over the contiguous
time/value columns to every SAMPLES (and DELIVER) payload.  The contract
under test: **a corrupted payload byte can disconnect the peer, but can
never deliver a wrong value** — for *every* single-byte flip in a
SAMPLES payload the decoder must raise :class:`ProtocolError`, and a
server receiving it must disconnect the session with the ``protocol``
reason having ingested zero samples from the corrupt frame.

Header bytes are a separate analysis (magic/version/kind/count flips hit
the structural validators; a name-id flip reroutes to an undefined id,
which is also a :class:`ProtocolError`) — the crc's job is the payload,
which previously decoded wrong float64s silently.

Every peer speaks version 2: a frame of any other version (v1 had no
trailer) fails closed as a protocol error, like any other bad header.
"""

import struct
import zlib

import numpy as np
import pytest

from repro.core.manager import ScopeManager
from repro.core.signal import buffer_signal
from repro.eventloop.loop import MainLoop
from repro.net import ScopeServer, memory_pair
from repro.net.protocol import (
    FRAME_HEADER,
    FrameDecoder,
    ProtocolError,
    encode_binary_samples,
    encode_deliver,
    encode_name_def,
)

HEADER = FRAME_HEADER.size


def sample_frame():
    times = np.array([100.0, 200.0, 300.0])
    values = np.array([1.5, -2.5, 42.0])
    return encode_binary_samples(7, times, values), times, values


class TestDecoderRejectsEveryPayloadFlip:
    def test_every_flipped_payload_byte_raises(self):
        """Exhaustive: flip each payload byte (columns AND crc trailer)."""
        frame, times, values = sample_frame()
        for offset in range(HEADER, len(frame)):
            corrupt = bytearray(frame)
            corrupt[offset] ^= 0xFF
            with pytest.raises(ProtocolError, match="checksum"):
                FrameDecoder().feed(bytes(corrupt))

    def test_every_flipped_bit_of_one_value_raises(self):
        """Per-bit granularity on one column byte, for good measure."""
        frame, _, _ = sample_frame()
        offset = HEADER + 8  # second float64 of the time column
        for bit in range(8):
            corrupt = bytearray(frame)
            corrupt[offset] ^= 1 << bit
            with pytest.raises(ProtocolError, match="checksum"):
                FrameDecoder().feed(bytes(corrupt))

    def test_deliver_payload_is_checksummed_too(self):
        frame = encode_deliver(3, 500.0, [1.0, 2.0], [10.0, 20.0])
        # Skip the leading float64 delivery instant: it is not covered
        # by the column crc (a flipped instant shifts the timeline, it
        # cannot forge a value); every column/crc byte must be caught.
        for offset in range(HEADER + 8, len(frame)):
            corrupt = bytearray(frame)
            corrupt[offset] ^= 0xFF
            with pytest.raises(ProtocolError, match="checksum"):
                FrameDecoder().feed(bytes(corrupt))

    def test_intact_frame_still_decodes(self):
        frame, times, values = sample_frame()
        (decoded,) = FrameDecoder().feed(frame)
        np.testing.assert_array_equal(decoded.times, times)
        np.testing.assert_array_equal(decoded.values, values)

    def test_corruption_detected_across_fragmentation(self):
        """A flip must be caught no matter how the stream fragments."""
        frame, _, _ = sample_frame()
        corrupt = bytearray(frame)
        corrupt[HEADER + 20] ^= 0x01
        dec = FrameDecoder()
        with pytest.raises(ProtocolError, match="checksum"):
            for i in range(len(corrupt)):
                dec.feed(bytes(corrupt[i : i + 1]))

    def test_crc_is_over_contiguous_columns(self):
        """The trailer equals crc32(times_bytes + values_bytes)."""
        frame, times, values = sample_frame()
        columns = times.astype("<f8").tobytes() + values.astype("<f8").tobytes()
        (crc,) = struct.unpack_from("<I", frame, len(frame) - 4)
        assert crc == zlib.crc32(columns)


class TestServerDisconnectsOnCorruptFrame:
    def make_rig(self):
        loop = MainLoop()
        manager = ScopeManager(loop)
        scope = manager.scope_new("remote", period_ms=50, delay_ms=100.0)
        scope.signal_new(buffer_signal("metric"))
        scope.set_polling_mode(50)
        scope.start_polling()
        server = ScopeServer(loop, manager)
        near, far = memory_pair(loop.clock)
        server.add_client(far)
        return loop, scope, server, near

    def test_every_payload_flip_disconnects_with_zero_samples(self):
        frame, _, _ = sample_frame()
        for offset in range(HEADER, len(frame)):
            loop, scope, server, near = self.make_rig()
            corrupt = bytearray(frame)
            corrupt[offset] ^= 0xFF
            near.send(encode_name_def(7, "metric"))
            near.send(bytes(corrupt))
            loop.run_for(300)
            assert server.disconnect_reasons == {"protocol": 1}, offset
            assert server.totals()["accepted"] == 0, offset
            assert server.totals()["received"] == 0, offset
            assert len(scope.channel("metric").trace) == 0, offset

    def test_corruption_after_good_traffic_keeps_only_good_samples(self):
        """A mid-stream flip drops the session, not history."""
        loop, scope, server, near = self.make_rig()
        near.send(encode_name_def(7, "metric"))
        now = loop.clock.now()
        near.send(encode_binary_samples(7, [now], [5.0]))
        loop.run_for(200)
        assert scope.value_of("metric") == 5.0
        frame, _, _ = sample_frame()
        corrupt = bytearray(frame)
        corrupt[HEADER + 3] ^= 0x40
        near.send(bytes(corrupt))
        loop.run_for(300)
        assert server.disconnect_reasons == {"protocol": 1}
        # The poisoned frame contributed nothing: one accepted sample.
        assert server.totals()["accepted"] == 1
        assert scope.channel("metric").raw_array().tolist() == [5.0]

    def test_worker_frames_rejected_on_client_sessions(self):
        """DELIVER/CONTROL are router↔worker frames; a client session
        sending one is disconnected, not silently ingested.  Neither is
        a version-1 SAMPLES frame (bare columns, no checksum)."""
        from repro.net.protocol import MAGIC, FrameKind, encode_control

        v1_samples = FRAME_HEADER.pack(MAGIC, 1, FrameKind.SAMPLES, 0, 1) + (
            np.array([1.0, 2.0]).tobytes()
        )
        for frame in (
            encode_deliver(0, 100.0, [1.0], [2.0]),
            encode_control({"op": "beat"}),
            v1_samples,
        ):
            loop, scope, server, near = self.make_rig()
            near.send(encode_name_def(0, "metric"))
            near.send(frame)
            loop.run_for(300)
            assert server.disconnect_reasons == {"protocol": 1}
            assert server.totals()["accepted"] == 0
