"""Tests for repro.core.scope — the central Scope object."""

import io

import pytest

from repro.core.scope import AcquisitionMode, Scope, ScopeError
from repro.core.signal import (
    Cell,
    SignalType,
    buffer_signal,
    func_signal,
    memory_signal,
)
from repro.core.tuples import Player, Recorder
from repro.eventloop.clock import KernelTimerModel, VirtualClock
from repro.eventloop.loop import MainLoop


def make_scope(**kwargs):
    loop = MainLoop()
    return Scope("s", loop, **kwargs), loop


class TestConstruction:
    def test_bad_dimensions(self):
        loop = MainLoop()
        with pytest.raises(ValueError):
            Scope("s", loop, width=0)
        with pytest.raises(ValueError):
            Scope("s", loop, height=-1)

    def test_bad_period(self):
        loop = MainLoop()
        with pytest.raises(ValueError):
            Scope("s", loop, period_ms=0)

    def test_visible_seconds(self):
        scope, _ = make_scope(width=200, period_ms=50)
        assert scope.visible_seconds == 10.0


class TestSignalManagement:
    def test_signal_new_and_lookup(self):
        scope, _ = make_scope()
        scope.signal_new(memory_signal("a", Cell(1)))
        assert "a" in scope
        assert scope.channel("a").name == "a"
        assert scope.signal_names == ["a"]

    def test_duplicate_signal_rejected(self):
        scope, _ = make_scope()
        scope.signal_new(memory_signal("a", Cell()))
        with pytest.raises(ScopeError):
            scope.signal_new(memory_signal("a", Cell()))

    def test_dynamic_remove(self):
        scope, _ = make_scope()
        scope.signal_new(memory_signal("a", Cell()))
        scope.signal_remove("a")
        assert "a" not in scope

    def test_remove_unknown(self):
        scope, _ = make_scope()
        with pytest.raises(ScopeError):
            scope.signal_remove("nope")

    def test_add_signal_while_polling(self):
        """Dynamic signal addition on a live scope (Section 1)."""
        scope, loop = make_scope()
        scope.signal_new(memory_signal("a", Cell(1)))
        scope.start_polling()
        loop.run_for(200)
        scope.signal_new(memory_signal("b", Cell(2)))
        loop.run_for(200)
        assert len(scope.channel("b").trace) > 0
        assert len(scope.channel("a").trace) > len(scope.channel("b").trace)


class TestPolling:
    def test_polls_at_period(self):
        scope, loop = make_scope(period_ms=50)
        cell = Cell(5)
        scope.signal_new(memory_signal("a", cell))
        scope.start_polling()
        loop.run_for(1000)
        assert scope.polls == 19  # t=50..950 inside the half-open window
        assert scope.value_of("a") == 5.0

    def test_stop_polling_freezes_display(self):
        scope, loop = make_scope()
        scope.signal_new(memory_signal("a", Cell(1)))
        scope.start_polling()
        loop.run_for(500)
        frozen = scope.polls
        scope.stop_polling()
        loop.run_for(500)
        assert scope.polls == frozen

    def test_start_polling_idempotent(self):
        scope, loop = make_scope()
        scope.start_polling()
        scope.start_polling()
        assert len(loop.sources) == 1

    def test_set_period_restarts_polling(self):
        scope, loop = make_scope(period_ms=50)
        scope.signal_new(memory_signal("a", Cell(1)))
        scope.start_polling()
        loop.run_for(500)
        scope.set_period(10)
        assert scope.polling
        before = scope.polls
        loop.run_for(500)
        assert scope.polls - before >= 45  # ~50 polls at 10 ms

    def test_func_signal_polled(self):
        scope, loop = make_scope()
        calls = []
        scope.signal_new(
            func_signal("f", lambda a, b: calls.append(1) or 42.0)
        )
        scope.start_polling()
        loop.run_for(500)
        assert scope.value_of("f") == 42.0
        assert len(calls) == scope.polls

    def test_event_routing(self):
        from repro.core.aggregate import AggregateKind
        from repro.core.signal import SignalSpec

        scope, loop = make_scope()
        scope.signal_new(
            SignalSpec(name="ev", type=SignalType.FLOAT, aggregate=AggregateKind.EVENTS)
        )
        scope.event("ev")
        scope.event("ev")
        scope.start_polling()
        loop.run_for(100)
        assert scope.value_of("ev") == 2.0


class TestDisplayControls:
    def test_zoom_validation(self):
        scope, _ = make_scope()
        with pytest.raises(ValueError):
            scope.set_zoom(0)
        scope.set_zoom(2.0)
        assert scope.zoom == 2.0

    def test_bias(self):
        scope, _ = make_scope()
        scope.set_bias(-25.0)
        assert scope.bias == -25.0

    def test_delay_reaches_buffer(self):
        scope, _ = make_scope()
        scope.set_delay(300)
        assert scope.buffer.delay_ms == 300

    def test_bad_period(self):
        scope, _ = make_scope()
        with pytest.raises(ValueError):
            scope.set_period(-5)


class TestBufferedSignals:
    def test_push_and_display_after_delay(self):
        scope, loop = make_scope(delay_ms=100, period_ms=50)
        scope.signal_new(buffer_signal("b"))
        scope.start_polling()
        scope.push_sample("b", time_ms=0.0, value=3.0)
        loop.run_for(99)
        assert scope.channel("b").trace == scope.channel("b").trace.__class__(
            maxlen=scope.channel("b").trace.maxlen
        )
        loop.run_for(101)
        assert scope.value_of("b") == 3.0

    def test_late_push_dropped(self):
        scope, loop = make_scope(delay_ms=50)
        scope.signal_new(buffer_signal("b"))
        loop.clock.advance(1000)
        assert scope.push_sample("b", time_ms=0.0, value=1.0) is False

    def test_push_to_unbuffered_rejected(self):
        scope, _ = make_scope()
        scope.signal_new(memory_signal("a", Cell()))
        with pytest.raises(ScopeError):
            scope.push_sample("a", 0, 1.0)

    def test_push_to_unknown_rejected(self):
        scope, _ = make_scope()
        with pytest.raises(ScopeError):
            scope.push_sample("zzz", 0, 1.0)

    def test_samples_removed_signal_discarded(self):
        scope, loop = make_scope(period_ms=50)
        scope.signal_new(buffer_signal("b"))
        scope.push_sample("b", time_ms=loop.clock.now(), value=1.0)
        scope.signal_remove("b")
        scope.start_polling()
        loop.run_for(200)  # must not raise


class TestLostTimeoutCompensation:
    def test_column_advances_past_lost_polls(self):
        """Section 4.5: the scope advances the refresh by lost timeouts."""
        spikes = {50.0: 175.0}  # swallow ~3 poll intervals
        clock = KernelTimerModel(
            VirtualClock(), tick_ms=10.0, latency=lambda t: spikes.pop(t, 0.0)
        )
        loop = MainLoop(clock=clock)
        scope = Scope("s", loop, period_ms=50)
        scope.signal_new(memory_signal("a", Cell(1)))
        scope.start_polling()
        loop.run_until(1000)
        assert scope.lost_timeouts >= 3
        assert scope.column == scope.polls + scope.lost_timeouts

    def test_no_latency_no_lost(self):
        scope, loop = make_scope()
        scope.signal_new(memory_signal("a", Cell(1)))
        scope.start_polling()
        loop.run_for(1000)
        assert scope.lost_timeouts == 0


class TestPlayback:
    def record_sine(self):
        text = io.StringIO()
        rec = Recorder(text)
        for i in range(20):
            rec.record(i * 50.0, float(i), "sig")
        return text.getvalue()

    def test_playback_replays_all_points(self):
        data = self.record_sine()
        scope, loop = make_scope(period_ms=50)
        scope.set_playback_mode(Player(io.StringIO(data)))
        scope.start_polling()
        loop.run_for(2000)
        assert scope.mode is AcquisitionMode.PLAYBACK
        assert len(scope.channel("sig").trace) == 20

    def test_playback_creates_channels_automatically(self):
        scope, loop = make_scope()
        scope.set_playback_mode(Player(io.StringIO("0 1 x\n10 2 y\n")))
        assert "x" in scope and "y" in scope

    def test_playback_preserves_recorded_timestamps(self):
        """The Section 3.3 spacing rule depends on file timestamps being
        carried through to the display verbatim."""
        data = "0 1 sig\n100 2 sig\n200 3 sig\n"
        scope, loop = make_scope(period_ms=50)
        scope.set_playback_mode(Player(io.StringIO(data)))
        scope.start_polling()
        loop.run_for(1000)
        assert scope.channel("sig").times() == [0.0, 100.0, 200.0]

    def test_switching_back_to_polling_clears_player(self):
        scope, loop = make_scope()
        scope.set_playback_mode(Player(io.StringIO("0 1 x\n")))
        scope.set_polling_mode(50)
        assert scope.player is None
        assert scope.mode is AcquisitionMode.POLLING


class TestRecording:
    def test_polled_data_recorded(self):
        scope, loop = make_scope(period_ms=50)
        cell = Cell(5)
        scope.signal_new(memory_signal("a", cell))
        sink = io.StringIO()
        scope.record_to(Recorder(sink))
        scope.start_polling()
        loop.run_for(500)
        lines = sink.getvalue().splitlines()
        assert len(lines) == scope.polls
        assert lines[0] == "50 5 a"

    def test_record_then_replay_roundtrip(self):
        scope, loop = make_scope(period_ms=50)
        cell = Cell(0)
        scope.signal_new(memory_signal("a", cell))
        sink = io.StringIO()
        scope.record_to(Recorder(sink))
        scope.start_polling()
        for i in range(5):
            cell.value = i
            loop.run_for(100)
        scope.record_to(None)

        replay_scope, replay_loop = make_scope(period_ms=50)
        replay_scope.set_playback_mode(Player(io.StringIO(sink.getvalue())))
        replay_scope.start_polling()
        replay_loop.run_for(2000)
        original = scope.channel("a").raw_values()
        replayed = replay_scope.channel("a").raw_values()
        assert replayed == original

    def test_recording_stops_when_detached(self):
        scope, loop = make_scope()
        scope.signal_new(memory_signal("a", Cell(1)))
        sink = io.StringIO()
        scope.record_to(Recorder(sink))
        scope.start_polling()
        loop.run_for(200)
        scope.record_to(None)
        size = len(sink.getvalue())
        loop.run_for(200)
        assert len(sink.getvalue()) == size

    def test_equal_buffered_times_recorded_in_push_order(self):
        """Ties between signals follow push order, as ``pop_due`` does."""
        scope, loop = make_scope(period_ms=50)
        scope.signal_new(buffer_signal("A"))
        scope.signal_new(buffer_signal("B"))
        sink = io.StringIO()
        scope.record_to(Recorder(sink))
        scope.push_sample("A", 1.0, 10.0)
        scope.push_sample("B", 5.0, 20.0)
        scope.push_sample("A", 5.0, 30.0)
        scope.start_polling()
        loop.run_for(60)
        assert scope.polls == 1
        assert sink.getvalue().splitlines() == ["1 10 A", "5 20 B", "5 30 A"]

    def test_polled_points_recorded_first_among_equal_times(self):
        scope, loop = make_scope(period_ms=50)
        scope.signal_new(buffer_signal("B"))
        scope.signal_new(memory_signal("p", Cell(7)))
        sink = io.StringIO()
        scope.record_to(Recorder(sink))
        scope.push_sample("B", 50.0, 40.0)
        scope.push_sample("B", 5.0, 20.0)
        scope.start_polling()
        loop.run_for(60)
        assert sink.getvalue().splitlines() == ["5 20 B", "50 7 p", "50 40 B"]


class TestManualTick:
    def test_tick_drives_one_poll(self):
        scope, _ = make_scope()
        scope.signal_new(memory_signal("a", Cell(9)))
        scope.tick()
        assert scope.polls == 1
        assert scope.value_of("a") == 9.0
