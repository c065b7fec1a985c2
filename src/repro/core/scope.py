"""The scope — gscope's ``GtkScope`` minus the pixels.

This class owns everything Figure 1 shows except the actual drawing
(done by :mod:`repro.gui.scope_widget`): the registered signals, the
acquisition mode (polling or playback, Section 3.1), the sampling period,
the buffered-signal display delay, the zoom and bias settings, recording,
and the lost-timeout accounting of Section 4.5.

Every GUI action has a programmatic equivalent here, matching the paper's
"programmatic interface for every action that can be performed from the
GUI".  The scope drives itself from a
:class:`~repro.eventloop.loop.MainLoop` timeout source, exactly as the C
library drives itself from a GTK timeout.
"""

from __future__ import annotations

import enum
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.buffer import SampleBuffer
from repro.core.channel import Channel, TracePoint
from repro.core.pollhub import PollHub, PollSubscription
from repro.core.signal import SignalSpec, SignalType
from repro.core.tuples import Player, Recorder
from repro.eventloop.loop import MainLoop


class AcquisitionMode(enum.Enum):
    """Where samples come from (Section 3.1)."""

    POLLING = "polling"
    PLAYBACK = "playback"


class ScopeError(RuntimeError):
    """Raised for invalid scope operations (duplicate signals, etc.)."""


class Scope:
    """An oscilloscope for software signals.

    Parameters
    ----------
    name:
        Scope title (window caption in the GUI).
    loop:
        The main loop that drives polling.  One loop can drive many
        scopes (the paper supports "multiple scopes").
    width, height:
        Canvas dimensions in pixels.  At default zoom the scope displays
        one sample per pixel column, so ``width`` bounds the visible
        history to ``width * period_ms`` milliseconds.
    period_ms:
        Sampling (polling) period; the paper's default examples use 50 ms.
    delay_ms:
        Display delay for buffered signals (Section 3.1).
    trace_capacity:
        Retained points per channel; defaults to 8x the width so zooming
        out has history to show.
    """

    DEFAULT_PERIOD_MS = 50.0

    def __init__(
        self,
        name: str,
        loop: MainLoop,
        width: int = 512,
        height: int = 256,
        period_ms: float = DEFAULT_PERIOD_MS,
        delay_ms: float = 0.0,
        trace_capacity: Optional[int] = None,
    ) -> None:
        if width <= 0 or height <= 0:
            raise ValueError(f"scope dimensions must be positive: {width}x{height}")
        if period_ms <= 0:
            raise ValueError(f"polling period must be positive: {period_ms}")
        self.name = name
        self.loop = loop
        self.width = int(width)
        self.height = int(height)
        self.period_ms = float(period_ms)
        self.buffer = SampleBuffer(delay_ms=delay_ms)
        self.trace_capacity = trace_capacity or max(8 * self.width, 1024)

        self.mode = AcquisitionMode.POLLING
        self.zoom = 1.0  # vertical scale factor
        self.bias = 0.0  # vertical translation, in signal-percent units
        self._channels: Dict[str, Channel] = {}
        self._taps: Tuple = ()
        self._poll_sub: Optional[PollSubscription] = None
        self.player: Optional[Player] = None
        self.recorder: Optional[Recorder] = None
        self._playback_time: float = 0.0

        # Statistics (Section 4.5 lost-timeout accounting included).
        self.polls = 0
        self.lost_timeouts = 0
        self.column = 0  # current x paint position, advanced per poll

    # ------------------------------------------------------------------
    # Signal management (gtk_scope_signal_new / dynamic add-remove)
    # ------------------------------------------------------------------
    def signal_new(self, spec: SignalSpec) -> Channel:
        """Register a signal; the library creates its channel object."""
        if spec.name in self._channels:
            raise ScopeError(f"scope {self.name!r}: duplicate signal {spec.name!r}")
        channel = Channel(spec, capacity=self.trace_capacity)
        self._channels[spec.name] = channel
        return channel

    def signal_remove(self, name: str) -> None:
        """Dynamically remove a signal (a headline feature, Section 1)."""
        if name not in self._channels:
            raise ScopeError(f"scope {self.name!r}: unknown signal {name!r}")
        del self._channels[name]

    def channel(self, name: str) -> Channel:
        try:
            return self._channels[name]
        except KeyError:
            raise ScopeError(f"scope {self.name!r}: unknown signal {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._channels

    @property
    def channels(self) -> List[Channel]:
        """All channels in registration order."""
        return list(self._channels.values())

    @property
    def signal_names(self) -> List[str]:
        return list(self._channels)

    def value_of(self, name: str) -> Optional[float]:
        """The live value readout (the ``Value`` button in Figure 1)."""
        return self.channel(name).last_value

    def event(self, name: str, value: float = 1.0) -> None:
        """Report an application event on an aggregated signal (§4.2)."""
        self.channel(name).event(value)

    # ------------------------------------------------------------------
    # Display controls (zoom / bias / period / delay widgets)
    # ------------------------------------------------------------------
    def set_zoom(self, zoom: float) -> None:
        """Vertical scaling widget; 1.0 maps [min, max] onto full height."""
        if zoom <= 0:
            raise ValueError(f"zoom must be positive: {zoom}")
        self.zoom = float(zoom)

    def set_bias(self, bias: float) -> None:
        """Vertical translation widget, in percent-of-range units."""
        self.bias = float(bias)

    def set_delay(self, delay_ms: float) -> None:
        """Display delay for buffered signals (the delay widget)."""
        self.buffer.set_delay(delay_ms)

    def set_period(self, period_ms: float) -> None:
        """Sampling-period widget; restarts polling if it is running."""
        if period_ms <= 0:
            raise ValueError(f"polling period must be positive: {period_ms}")
        was_polling = self.polling
        if was_polling:
            self.stop_polling()
        self.period_ms = float(period_ms)
        if was_polling:
            self.start_polling()

    @property
    def visible_seconds(self) -> float:
        """Span of the x-axis ruler at default zoom (width px * period)."""
        return self.width * self.period_ms / 1000.0

    # ------------------------------------------------------------------
    # Acquisition: polling mode
    # ------------------------------------------------------------------
    def set_polling_mode(self, period_ms: Optional[float] = None) -> None:
        """Switch to polling acquisition (``gtk_scope_set_polling_mode``)."""
        self.stop_polling()
        if period_ms is not None:
            self.period_ms = float(period_ms)
            if self.period_ms <= 0:
                raise ValueError(f"polling period must be positive: {period_ms}")
        self.mode = AcquisitionMode.POLLING
        self.player = None

    def start_polling(self) -> None:
        """Attach the polling timeout (``gtk_scope_start_polling``).

        Polling is coalesced through the loop's :class:`PollHub`: scopes
        started at the same instant with the same period share one timer
        source, so a manager full of scopes costs the scheduler one timer
        per distinct period instead of one per scope.
        """
        if self._poll_sub is not None:
            return
        self._poll_sub = PollHub.of(self.loop).subscribe(self.period_ms, self._on_poll)

    def stop_polling(self) -> None:
        """Detach the polling timeout (pauses the display)."""
        if self._poll_sub is not None:
            PollHub.of(self.loop).unsubscribe(self._poll_sub)
            self._poll_sub = None

    @property
    def polling(self) -> bool:
        return self._poll_sub is not None

    # ------------------------------------------------------------------
    # Acquisition: playback mode
    # ------------------------------------------------------------------
    def set_playback_mode(self, player: Player, period_ms: Optional[float] = None) -> None:
        """Switch to playback from a recorded tuple file (Section 3.1).

        Channels for names in the recording that are not yet registered
        are created automatically as buffered signals, so any recorded
        file is viewable without prior setup.
        """
        self.stop_polling()
        self.mode = AcquisitionMode.PLAYBACK
        self.player = player
        self._playback_time = player.start_time_ms
        if period_ms is not None:
            self.period_ms = float(period_ms)
        for name in player.names:
            if name not in self._channels:
                self.signal_new(SignalSpec(name=name, type=SignalType.BUFFER))
        for channel in self._channels.values():
            channel.clear()

    # ------------------------------------------------------------------
    # Buffered signal input (push interface, Sections 3.1 / 4.4)
    # ------------------------------------------------------------------
    def push_sample(
        self, name: str, time_ms: float, value: float, now_ms: Optional[float] = None
    ) -> bool:
        """Enqueue a timestamped sample for a BUFFER signal.

        Returns False when the sample was dropped as late (it arrived
        after its display slot had passed; Section 4.4).  ``now_ms``
        lets a caller that already read the clock (the manager's tapped
        fan-out) pin the late-drop decision to that same instant.
        """
        channel = self.channel(name)
        if not channel.buffered:
            raise ScopeError(f"signal {name!r} is not a BUFFER signal")
        now = self.loop.clock.now() if now_ms is None else now_ms
        if self._taps:
            for tap in self._taps:
                tap(name, (time_ms,), (value,), now)
        return self.buffer.push(name, time_ms, value, now)

    def push_samples(
        self,
        name: str,
        times: Union[Sequence[float], np.ndarray],
        values: Union[Sequence[float], np.ndarray],
        now_ms: Optional[float] = None,
    ) -> int:
        """Bulk-enqueue timestamped samples for a BUFFER signal.

        Columnar fast path: one call buffers N samples with the same
        late-drop semantics as N :meth:`push_sample` calls.  Returns how
        many samples were accepted (the rest arrived past their display
        slot and were dropped, Section 4.4).  ``now_ms`` pins the
        late-drop comparison to a clock instant the caller already read.
        """
        channel = self.channel(name)
        if not channel.buffered:
            raise ScopeError(f"signal {name!r} is not a BUFFER signal")
        now = self.loop.clock.now() if now_ms is None else now_ms
        if self._taps:
            for tap in self._taps:
                tap(name, times, values, now)
        return self.buffer.push_many(name, times, values, now)

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record_to(self, recorder: Optional[Recorder]) -> None:
        """Start (or with None, stop) recording displayed samples."""
        self.recorder = recorder

    def add_tap(self, tap) -> None:
        """Attach a push tap ``tap(name, times, values, now_ms)``.

        Scope-level counterpart of
        :meth:`~repro.core.manager.ScopeManager.add_tap`, for capturing
        a single scope's offered stream when pushes bypass a manager.
        Taps see samples before the late-drop decision.  Copy-on-write
        like the manager's tap set: a tap detaching mid-push never
        perturbs its siblings' delivery.
        """
        self._taps = (*self._taps, tap)

    def remove_tap(self, tap) -> None:
        taps = list(self._taps)
        taps.remove(tap)
        self._taps = tuple(taps)

    # ------------------------------------------------------------------
    # The poll tick
    # ------------------------------------------------------------------
    def _on_poll(self, lost: int = 0) -> bool:
        """One polling period: sample, drain buffers, advance the display.

        ``lost`` counts timeouts the kernel never delivered (Section 4.5);
        the scope "keeps track of lost timeouts and advances the scope
        refresh appropriately" — here by advancing the paint column past
        the missing periods so the time axis stays truthful.
        """
        now = self.loop.clock.now()
        self.polls += 1
        self.lost_timeouts += lost
        self.column += 1 + lost

        painted: List[tuple[str, TracePoint]] = []
        # Buffer drains arrive as columnar runs: (name, times, raws, seqs).
        batches: List[tuple[str, np.ndarray, np.ndarray, np.ndarray]] = []
        if self.mode is AcquisitionMode.POLLING:
            for channel in self._channels.values():
                if channel.buffered:
                    continue
                point = channel.poll(now, self.period_ms)
                if point is not None:
                    painted.append((channel.name, point))
            for name, times, values, seqs in self.buffer.pop_due_runs(now):
                channel = self._channels.get(name)
                if channel is None:
                    continue  # signal was removed while data was in flight
                t, raws, _filtered = channel.accept_samples(times, values)
                batches.append((name, t, raws, seqs))
        else:
            assert self.player is not None
            self._playback_time += (1 + lost) * self.period_ms
            for tup in self.player.advance_to(self._playback_time):
                name = tup.name or self.player.default_name
                if name not in self._channels:
                    self.signal_new(SignalSpec(name=name, type=SignalType.BUFFER))
                painted.append(
                    (name, self._channels[name].accept_sample(tup.time_ms, tup.value))
                )

        if self.recorder is not None and (painted or batches):
            # Raw (unfiltered) data is recorded so replay can re-filter, in
            # (time, seq) order.  Polled points take negative seqs: they go
            # first among equal times, in channel order.
            runs = [
                (name, [p.time_ms], [p.raw], [i - len(painted)])
                for i, (name, p) in enumerate(painted)
            ] + batches
            names, times, raws, seqs = zip(*runs)
            labels = np.repeat(np.array(names, dtype=object), [len(t) for t in times])
            times, raws = np.concatenate(times), np.concatenate(raws)
            order = np.lexsort((np.concatenate(seqs), times))
            self.recorder.record_many(
                times[order].tolist(), raws[order].tolist(), labels[order].tolist()
            )
        return True

    def tick(self, lost: int = 0) -> None:
        """Manually run one poll (for tests and synchronous harnesses)."""
        self._on_poll(lost)

    # ------------------------------------------------------------------
    # Snapshot / restore (process shard supervision)
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Capture the scope's data-plane state as plain picklable data.

        Configuration (signals, period, mode, recording) is *not*
        captured: a restore happens onto a scope freshly built by the
        same deterministic factory, which reproduces it.  What is
        captured is everything the stream of pushes and polls has
        accumulated: the sample buffer, every channel's trace/filter/
        aggregator/hold state, and the poll/column counters.  Playback
        mode has a file position instead of a buffer and is not
        snapshot-supported.
        """
        if self.mode is not AcquisitionMode.POLLING:
            raise ScopeError(
                f"scope {self.name!r}: only polling-mode scopes are snapshotable"
            )
        return {
            "buffer": self.buffer.state_dict(),
            "channels": {
                name: ch.state_dict() for name, ch in self._channels.items()
            },
            "polls": self.polls,
            "lost_timeouts": self.lost_timeouts,
            "column": self.column,
            "zoom": self.zoom,
            "bias": self.bias,
        }

    def load_state(self, state: dict) -> None:
        """Restore a :meth:`state_dict` capture onto this (fresh) scope.

        The scope must hold exactly the snapshot's signals — the restore
        factory registers them before loading.
        """
        snap_channels = state["channels"]
        if set(snap_channels) != set(self._channels):
            raise ScopeError(
                f"scope {self.name!r}: snapshot signals {sorted(snap_channels)} "
                f"do not match registered signals {sorted(self._channels)}"
            )
        self.buffer.load_state(state["buffer"])
        for name, ch_state in snap_channels.items():
            self._channels[name].load_state(ch_state)
        self.polls = int(state["polls"])
        self.lost_timeouts = int(state["lost_timeouts"])
        self.column = int(state["column"])
        self.zoom = float(state["zoom"])
        self.bias = float(state["bias"])
