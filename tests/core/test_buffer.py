"""Tests for the scope-wide sample buffer (delay + late-drop rules)."""

import heapq
import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_columnar_equivalence import HeapModel

from repro.core.buffer import SampleBuffer


class TestValidation:
    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            SampleBuffer(delay_ms=-1)

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            SampleBuffer(capacity=0)

    def test_set_delay_validates(self):
        buf = SampleBuffer()
        with pytest.raises(ValueError):
            buf.set_delay(-5)


class TestDelaySemantics:
    def test_sample_not_due_before_delay(self):
        buf = SampleBuffer(delay_ms=100)
        buf.push("s", time_ms=50, value=1.0, now_ms=50)
        assert buf.pop_due(now_ms=149) == []

    def test_sample_due_at_time_plus_delay(self):
        buf = SampleBuffer(delay_ms=100)
        buf.push("s", time_ms=50, value=1.0, now_ms=50)
        due = buf.pop_due(now_ms=150)
        assert len(due) == 1
        assert due[0].value == 1.0

    def test_zero_delay_is_immediately_due(self):
        buf = SampleBuffer(delay_ms=0)
        buf.push("s", time_ms=10, value=1.0, now_ms=10)
        assert len(buf.pop_due(now_ms=10)) == 1

    def test_pop_is_destructive(self):
        buf = SampleBuffer()
        buf.push("s", 0, 1.0, 0)
        buf.pop_due(10)
        assert buf.pop_due(10) == []


class TestLateDrop:
    def test_late_sample_dropped(self):
        """Section 4.4: data arriving after the delay is dropped."""
        buf = SampleBuffer(delay_ms=100)
        accepted = buf.push("s", time_ms=0, value=1.0, now_ms=101)
        assert accepted is False
        assert buf.stats.dropped_late == 1
        assert len(buf) == 0

    def test_exactly_on_time_accepted(self):
        buf = SampleBuffer(delay_ms=100)
        assert buf.push("s", time_ms=0, value=1.0, now_ms=100) is True

    def test_larger_delay_tolerates_more_lag(self):
        tight = SampleBuffer(delay_ms=10)
        loose = SampleBuffer(delay_ms=500)
        assert tight.push("s", 0, 1.0, now_ms=100) is False
        assert loose.push("s", 0, 1.0, now_ms=100) is True


class TestOrdering:
    def test_pop_returns_time_order(self):
        buf = SampleBuffer()
        buf.push("a", 30, 3.0, 0)
        buf.push("a", 10, 1.0, 0)
        buf.push("a", 20, 2.0, 0)
        assert [s.value for s in buf.pop_due(100)] == [1.0, 2.0, 3.0]

    def test_equal_times_keep_push_order(self):
        buf = SampleBuffer()
        buf.push("a", 10, 1.0, 0)
        buf.push("a", 10, 2.0, 0)
        assert [s.value for s in buf.pop_due(100)] == [1.0, 2.0]

    def test_grouped_by_name(self):
        buf = SampleBuffer()
        buf.push("x", 10, 1.0, 0)
        buf.push("y", 20, 2.0, 0)
        buf.push("x", 30, 3.0, 0)
        grouped = buf.pop_due_by_name(100)
        assert [s.value for s in grouped["x"]] == [1.0, 3.0]
        assert [s.value for s in grouped["y"]] == [2.0]

    def test_partial_pop_leaves_rest(self):
        buf = SampleBuffer(delay_ms=0)
        buf.push("a", 10, 1.0, 0)
        buf.push("a", 200, 2.0, 0)
        assert len(buf.pop_due(50)) == 1
        assert len(buf) == 1


class TestCapacity:
    def test_capacity_evicts_oldest(self):
        buf = SampleBuffer(capacity=2)
        buf.push("a", 10, 1.0, 0)
        buf.push("a", 20, 2.0, 0)
        buf.push("a", 30, 3.0, 0)
        assert buf.stats.evicted == 1
        assert [s.value for s in buf.pop_due(100)] == [2.0, 3.0]


class TestIntrospection:
    def test_peek_next(self):
        buf = SampleBuffer()
        assert buf.peek_next() is None
        buf.push("a", 20, 2.0, 0)
        buf.push("a", 10, 1.0, 0)
        assert buf.peek_next().time_ms == 10

    def test_names_sorted_unique(self):
        buf = SampleBuffer()
        buf.push("b", 1, 0, 0)
        buf.push("a", 2, 0, 0)
        buf.push("b", 3, 0, 0)
        assert buf.names() == ("a", "b")

    def test_clear(self):
        buf = SampleBuffer()
        buf.push("a", 1, 0, 0)
        buf.push("a", 2, 0, 0)
        assert buf.clear() == 2
        assert len(buf) == 0

    def test_stats_buffered_occupancy(self):
        buf = SampleBuffer(delay_ms=50)
        buf.push("a", 0, 1.0, 0)
        buf.push("a", 10, 1.0, 0)
        buf.push("a", 0, 1.0, now_ms=200)  # late
        assert buf.stats.buffered == 2
        buf.pop_due(100)
        assert buf.stats.buffered == 0


class TestProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e4),  # timestamp
                st.floats(min_value=-1e3, max_value=1e3),  # value
            ),
            max_size=60,
        ),
        st.floats(min_value=0, max_value=500),  # delay
        st.floats(min_value=0, max_value=2e4),  # pop time
    )
    def test_every_sample_dropped_buffered_or_popped(self, samples, delay, pop_at):
        buf = SampleBuffer(delay_ms=delay)
        for t, v in samples:
            buf.push("s", t, v, now_ms=50.0)  # some pushes will be late
        due = buf.pop_due(max(pop_at, 50.0))
        stats = buf.stats
        assert stats.pushed == len(samples)
        assert stats.dropped_late + len(due) + len(buf) == len(samples)

    @given(
        st.lists(st.floats(min_value=0, max_value=1e4), min_size=1, max_size=60),
        st.floats(min_value=0, max_value=2e4),
    )
    def test_popped_samples_are_sorted_and_due(self, times, pop_at):
        buf = SampleBuffer(delay_ms=0)
        for t in times:
            buf.push("s", t, 0.0, now_ms=0)
        due = buf.pop_due(pop_at)
        popped_times = [s.time_ms for s in due]
        assert popped_times == sorted(popped_times)
        assert all(t <= pop_at for t in popped_times)
        remaining = buf.pop_due(1e9)
        assert all(s.time_ms > pop_at for s in remaining)


# ----------------------------------------------------------------------
# Per-signal runs: no buffer-wide sort, and the oracle's order kept
# ----------------------------------------------------------------------
@pytest.fixture
def sort_calls(monkeypatch):
    """Names of the numpy sort functions called while the test runs."""
    calls = []
    for fn in ("lexsort", "argsort", "sort"):
        real = getattr(np, fn)

        def counted(*args, _real=real, _fn=fn, **kwargs):
            calls.append(_fn)
            return _real(*args, **kwargs)

        monkeypatch.setattr(np, fn, counted)
    return calls


def model_runs(popped):
    """HeapModel pops as ``{name: [(time, value), ...]}``, keyed in
    first-occurrence order."""
    runs = {}
    for t, _seq, name, value in popped:
        runs.setdefault(name, []).append((t, value))
    return runs


def grouped_runs(grouped):
    """``pop_due_grouped`` output as ``{name: [(time, value), ...]}``."""
    return {name: list(zip(t.tolist(), v.tolist())) for name, (t, v) in grouped.items()}


class TestDrainWithoutSorting:
    def test_interleaved_in_order_signals_never_sort(self, sort_calls):
        """64 signals push 128-sample blocks, each in time order, that
        start before the other signals' blocks end; polls every 50 ms at
        a 200 ms delay pop each signal's due prefix with no sort."""
        buf = SampleBuffer(delay_ms=200)
        model = HeapModel(delay_ms=200)

        def drain(at):
            got = grouped_runs(buf.pop_due_grouped(at))
            want = model_runs(model.pop_due(at))
            assert list(got) == list(want)
            assert got == want
            return got

        rng = random.Random(5)
        signals = list(range(64))
        value = 0.0
        for rnd in range(8):
            now = rnd * 50.0
            rng.shuffle(signals)
            for k in signals:
                name = f"s{k}"
                times = [rnd * 64.0 + k * 0.25 + i * 0.5 for i in range(128)]
                values = [value + i for i in range(128)]
                value += 128
                assert buf.push_many(name, times, values, now) == 128
                for t, v in zip(times, values):
                    assert model.push(name, t, v, now)
            drain(now + 50.0)
        assert len(drain(1e9)) == 64 and len(buf) == 0
        assert sort_calls == []

    def test_one_signal_pop_due_arrays_never_sorts(self, sort_calls):
        buf = SampleBuffer(delay_ms=200)
        model = HeapModel(delay_ms=200)
        for rnd in range(8):
            now = rnd * 50.0
            times = [rnd * 64.0 + i * 0.5 for i in range(128)]
            buf.push_many("s", times, times, now)
            for t in times:
                model.push("s", t, t, now)
            for at in (now + 50.0, now + 50.0):  # the second finds nothing due
                t, v, ids = buf.pop_due_arrays(at)
                want = model.pop_due(at)
                assert t.tolist() == v.tolist() == [row[0] for row in want]
                assert ids.tolist() == [0] * len(want)
        assert sort_calls == []


def op_strategy():
    """Per-signal chunks (in time order or not) with pops interleaved.

    Times come from a small integer range, so equal timestamps across
    signals are common."""
    chunk = st.tuples(
        st.sampled_from("abcd"),
        st.lists(st.integers(0, 60).map(float), min_size=1, max_size=8),
        st.booleans(),  # the chunk is pushed in time order
    )
    pop = st.integers(0, 90).map(float)
    return st.lists(st.one_of(chunk, pop), max_size=40)


def replay(buf, ops, now=0.0, model=None, counter=None):
    """Apply ``ops`` to ``buf`` (and ``model``); each pop's samples as
    ``(time, seq, name, value)`` tuples, and the final clock."""
    counter = counter if counter is not None else itertools.count()
    pops = []
    for op in ops:
        if isinstance(op, float):
            now = max(now, op)
            got = [(s.time_ms, s.seq, s.name, s.value) for s in buf.pop_due(now)]
            if model is not None:
                assert got == model.pop_due(now)
            pops.append(got)
            continue
        name, times, in_order = op
        times = sorted(times) if in_order else times
        values = [float(next(counter)) for _ in times]
        accepted = buf.push_many(name, times, values, now)
        if model is not None:
            want = [model.push(name, t, v, now) for t, v in zip(times, values)]
            assert accepted == sum(want)
    return pops, now


def state_equal(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert a[key].dtype == b[key].dtype
            assert a[key].tolist() == b[key].tolist()
        else:
            assert a[key] == b[key]


class TestRunsMatchHeapModel:
    @given(op_strategy(), st.floats(min_value=0, max_value=20))
    @settings(max_examples=80, deadline=None)
    def test_grouped_pop_order_and_contents(self, ops, delay):
        buf = SampleBuffer(delay_ms=delay)
        model = HeapModel(delay_ms=delay)
        counter = itertools.count()
        now = 0.0
        for op in ops + [1e9]:
            if isinstance(op, float):
                now = max(now, op)
                got = grouped_runs(buf.pop_due_grouped(now))
                want = model_runs(model.pop_due(now))
                assert list(got) == list(want)
                assert got == want
                head = buf.peek_next()
                if model._heap:
                    t, seq, name, value = model._heap[0]
                    assert (head.time_ms, head.seq, head.name, head.value) == (
                        t, seq, name, value
                    )
                else:
                    assert head is None
                continue
            replay(buf, [op], now, model, counter)
        assert buf.stats.popped == model.popped
        assert buf.stats.dropped_late == model.dropped_late
        assert len(buf) == 0 and buf.names() == ()

    @given(op_strategy(), st.floats(min_value=0, max_value=20), st.integers(0, 40))
    @settings(max_examples=80, deadline=None)
    def test_snapshot_mid_stream_continues_identically(self, ops, delay, cut):
        cut = min(cut, len(ops))
        whole = SampleBuffer(delay_ms=delay)
        pops, _ = replay(whole, ops)
        first = SampleBuffer(delay_ms=delay)
        counter = itertools.count()
        before, now = replay(first, ops[:cut], counter=counter)
        restored = SampleBuffer()
        restored.load_state(first.state_dict())
        after, _ = replay(restored, ops[cut:], now, counter=counter)
        assert before + after == pops
        assert restored.stats == whole.stats
        state_equal(restored.state_dict(), whole.state_dict())

    def test_state_dict_columns_are_time_seq_ordered(self):
        buf = SampleBuffer(delay_ms=100)
        buf.push_many("b", [5.0, 1.0], [50.0, 10.0], 0.0)
        buf.push("a", 5.0, 51.0, 0.0)
        buf.push("a", 0.0, 1.0, 0.0)
        state = buf.state_dict()
        assert state["times"].tolist() == [0.0, 1.0, 5.0, 5.0]
        assert state["seqs"].tolist() == [3, 1, 0, 2]
        assert state["ids"].tolist() == [1, 0, 0, 1]
        assert state["names"] == ["b", "a"]
        assert state["sorted_len"] == 4
        assert state["times"].dtype == np.float64
        assert state["ids"].dtype == state["seqs"].dtype == np.int64

    def test_parent_format_state_with_unsorted_tail(self):
        """Columns sorted by (time, seq) for the first ``sorted_len``
        samples, then an append tail in push order."""
        times = [1.0, 3.0, 3.0, 7.0, 2.0, 3.0, 1.5, 9.0]
        seqs = [0, 2, 3, 4, 5, 6, 7, 8]
        ids = [0, 1, 0, 1, 1, 0, 0, 1]
        names = ["a", "b"]
        state = {
            "delay_ms": 10.0,
            "capacity": None,
            "times": np.array(times),
            "values": np.array([10.0 * s for s in seqs]),
            "seqs": np.array(seqs, dtype=np.int64),
            "ids": np.array(ids, dtype=np.int64),
            "sorted_len": 4,
            "next_seq": 9,
            "names": names,
            "stats": {"pushed": 10, "dropped_late": 1, "evicted": 0, "popped": 1},
        }
        buf = SampleBuffer()
        buf.load_state(state)
        model = HeapModel(delay_ms=10.0)
        model._seq = itertools.count(9)
        for t, s, i in sorted(zip(times, seqs, ids), key=lambda row: row[1]):
            heapq.heappush(model._heap, (t, s, names[i], 10.0 * s))
        assert len(buf) == 8 and buf.names() == ("a", "b")
        assert buf.stats.buffered == 8
        for at in (11.0, 13.0):
            got = [(s.time_ms, s.seq, s.name, s.value) for s in buf.pop_due(at)]
            assert got == model.pop_due(at)
        for name, t in (("a", 4.0), ("b", 3.5), ("a", 3.5)):
            assert buf.push(name, t, -t, 13.0) == model.push(name, t, -t, 13.0)
        got = [(s.time_ms, s.seq, s.name, s.value) for s in buf.pop_due(1e9)]
        assert got == model.pop_due(1e9)
