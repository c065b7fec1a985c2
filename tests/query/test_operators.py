"""Operator semantics: each operator family against a hand-computed or
core-module oracle, plus runtime plumbing (sinks, finish, errors)."""

import numpy as np
import pytest

from repro.core.lowpass import LowPassFilter
from repro.core.trigger import Edge, Trigger
from repro.query import QueryError, Runtime, compile_query, execute


def run(query, **columns):
    """Batch-execute ``query`` over keyword columns ``name=(times, values)``."""
    return execute({k: (np.asarray(t, float), np.asarray(v, float))
                    for k, (t, v) in columns.items()}, query)


class TestElementwise:
    def test_scalar_arithmetic(self):
        out = run("x * 2 + 1", x=([0, 1, 2], [1.0, 2.0, 3.0]))
        t, v = out["query"]
        assert t.tolist() == [0, 1, 2]
        assert v.tolist() == [3.0, 5.0, 7.0]

    def test_comparison_yields_indicator(self):
        _, v = run("x > 0.5", x=([0, 1, 2], [0.2, 0.5, 0.9]))["query"]
        assert v.tolist() == [0.0, 0.0, 1.0]

    def test_abs_neg_clip(self):
        _, v = run("abs(-x)", x=([0, 1], [-2.0, 3.0]))["query"]
        assert v.tolist() == [2.0, 3.0]
        _, v = run("clip(x, -1, 1)", x=([0, 1, 2], [-5.0, 0.5, 5.0]))["query"]
        assert v.tolist() == [-1.0, 0.5, 1.0]

    def test_scalar_on_left(self):
        _, v = run("10 / x", x=([0, 1], [2.0, 5.0]))["query"]
        assert v.tolist() == [5.0, 2.0]

    def test_division_by_zero_is_numpy_semantics(self):
        _, v = run("x / y", x=([0, 1], [1.0, 0.0]), y=([0, 1], [0.0, 0.0]))[
            "query"
        ]
        # t=0: y's first sample lands at 0, so the point is defined; 1/0 = inf
        assert v[0] == np.inf


class TestJoin:
    def test_sample_and_hold_union_timeline(self):
        out = run(
            "a + b", a=([0, 10, 20], [1.0, 2.0, 3.0]), b=([5, 15], [10.0, 20.0])
        )
        t, v = out["query"]
        # Nothing before both sides initialise (t=5); then the union grid.
        assert t.tolist() == [5, 10, 15, 20]
        assert v.tolist() == [11.0, 12.0, 22.0, 23.0]

    def test_coalesced_equal_timestamps(self):
        out = run("a - b", a=([0, 10], [5.0, 7.0]), b=([0, 10], [1.0, 2.0]))
        t, v = out["query"]
        assert t.tolist() == [0, 10]
        assert v.tolist() == [4.0, 5.0]

    def test_elementwise_min_max(self):
        t, v = run("max(a, b)", a=([0, 1], [1.0, 5.0]), b=([0, 1], [3.0, 2.0]))[
            "query"
        ]
        assert v.tolist() == [3.0, 5.0]

    def test_one_sided_stream_emits_nothing(self):
        out = run("a + b", a=([0, 1, 2], [1.0, 1.0, 1.0]), b=([], []))
        t, v = out["query"]
        assert t.shape[0] == 0


class TestZeroCopySource:
    """A source operator passes a monotone batch through as read-only
    views of the caller's buffers; only a batch it must filter is
    copied."""

    @staticmethod
    def emitted(times, values):
        runtime = Runtime(compile_query("y = x"))
        got = []
        runtime.add_sink("y", lambda t, v: got.append((t, v)))
        runtime.feed("x", times, values)
        return got

    @staticmethod
    def frozen(column):
        return np.frombuffer(np.asarray(column, dtype=np.float64).tobytes())

    def test_monotone_batch_is_emitted_without_a_copy(self):
        times = self.frozen([1.0, 2.0, 3.0, 5.0])
        values = self.frozen([0.5, -1.0, 2.0, 4.0])
        assert not times.flags.writeable
        ((t, v),) = self.emitted(times, values)
        assert np.shares_memory(t, times) and np.shares_memory(v, values)
        assert not t.flags.writeable and not v.flags.writeable
        assert t.tolist() == times.tolist() and v.tolist() == values.tolist()

    def test_non_monotone_batch_is_copied(self):
        times = self.frozen([1.0, 3.0, 2.0, 5.0])
        values = self.frozen([0.5, -1.0, 2.0, 4.0])
        ((t, v),) = self.emitted(times, values)
        assert t.tolist() == [1.0, 3.0, 5.0] and v.tolist() == [0.5, -1.0, 4.0]
        assert not np.shares_memory(t, times)
        assert not np.shares_memory(v, values)


class TestMonotonicity:
    def test_out_of_order_samples_dropped_and_counted(self):
        plan = compile_query("x + 0")
        runtime = Runtime(plan)
        got = []
        runtime.add_sink("query", lambda t, v: got.append((t, v)))
        runtime.feed("x", [0.0, 10.0, 5.0, 20.0], [1.0, 2.0, 3.0, 4.0])
        runtime.finish()
        times = np.concatenate([t for t, _ in got])
        assert times.tolist() == [0.0, 10.0, 20.0]
        assert runtime.dropped == {"x": 1}
        assert runtime.accepted == {"x": 3}

    def test_equal_timestamps_dropped(self):
        runtime = Runtime(compile_query("x + 0"))
        runtime.feed("x", [1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert runtime.dropped == {"x": 2}

    def test_nan_timestamps_dropped_without_poisoning(self):
        runtime = Runtime(compile_query("x + 0"))
        got = []
        runtime.add_sink("query", lambda t, v: got.append(t))
        runtime.feed("x", [0.0, float("nan"), 5.0], [1.0, 2.0, 3.0])
        assert np.concatenate(got).tolist() == [0.0, 5.0]
        assert runtime.dropped == {"x": 1}


class TestRateDelta:
    def test_rate_is_per_second(self):
        t, v = run("rate(x)", x=([0, 1000, 1500], [0.0, 500.0, 600.0]))["query"]
        assert t.tolist() == [1000, 1500]
        assert v.tolist() == [500.0, 200.0]

    def test_delta(self):
        t, v = run("delta(x)", x=([0, 10, 20], [5.0, 3.0, 8.0]))["query"]
        assert v.tolist() == [-2.0, 5.0]


class TestEwma:
    def test_matches_core_lowpass(self):
        values = np.array([1.0, 5.0, 2.0, 8.0, 3.0])
        times = np.arange(5.0)
        expected = LowPassFilter(0.7).apply_many(values)
        _, v = run("ewma(x, 0.7)", x=(times, values))["query"]
        assert v.tobytes() == expected.tobytes()

    def test_non_finite_input_is_a_typed_query_error(self):
        # Upstream arithmetic can produce Inf (division by zero); the
        # reused LowPassFilter rejects it, surfaced as a QueryError.
        with pytest.raises(QueryError, match="not finite"):
            run(
                "ewma(a / b, 0.9)",
                a=([0, 1], [1.0, 1.0]),
                b=([0, 1], [1.0, 0.0]),
            )

    def test_lowpass_alias(self):
        cols = {"x": (np.arange(4.0), np.array([1.0, 2.0, 3.0, 4.0]))}
        assert (
            execute(cols, "ewma(x, 0.5)")["query"][1].tobytes()
            == execute(cols, "lowpass(x, 0.5)")["query"][1].tobytes()
        )


class TestResample:
    def test_grid_and_hold(self):
        t, v = run("resample(x, 10)", x=([3, 12, 25], [1.0, 2.0, 3.0]))["query"]
        # grid 10 holds the t=3 sample; grid 20 holds t=12; grid 30 is
        # beyond the last sample and must not be emitted.
        assert t.tolist() == [10.0, 20.0]
        assert v.tolist() == [1.0, 2.0]

    def test_sample_exactly_on_grid(self):
        t, v = run("resample(x, 10)", x=([10, 20], [7.0, 9.0]))["query"]
        assert t.tolist() == [10.0, 20.0]
        assert v.tolist() == [7.0, 9.0]

    def test_unit_suffix_period(self):
        t, _ = run("resample(x, 1s)", x=([0, 2500], [1.0, 2.0]))["query"]
        assert t.tolist() == [0.0, 1000.0, 2000.0]


class TestWindows:
    def test_sum_over_tumbling_windows(self):
        t, v = run("sum_over(x, 10)", x=([1, 5, 12], [1.0, 2.0, 4.0]))["query"]
        # window [0,10) closes when t=12 arrives; [10,20) closes at finish
        assert t.tolist() == [10.0, 20.0]
        assert v.tolist() == [3.0, 4.0]

    def test_kinds_match_aggregator_semantics(self):
        x = ([1, 2, 3, 11], [4.0, 6.0, 2.0, 9.0])
        assert run("max_over(x, 10)", x=x)["query"][1][0] == 6.0
        assert run("min_over(x, 10)", x=x)["query"][1][0] == 2.0
        assert run("avg_over(x, 10)", x=x)["query"][1][0] == 4.0
        assert run("events_over(x, 10)", x=x)["query"][1][0] == 3.0
        assert run("any_over(x, 10)", x=x)["query"][1][0] == 1.0
        # rate_over: sum / (window in seconds) = 12 / 0.01s
        assert run("rate_over(x, 10)", x=x)["query"][1][0] == 12.0 / 0.01

    def test_empty_windows_emit_nothing(self):
        t, _ = run("events_over(x, 10)", x=([1, 95], [1.0, 1.0]))["query"]
        assert t.tolist() == [10.0, 100.0]


class TestEdges:
    def test_rising_and_falling_marks(self):
        t, v = run(
            "edges(x, 0, either)", x=([0, 1, 2, 3], [-1.0, 1.0, -1.0, 1.0])
        )["query"]
        assert t.tolist() == [1, 2, 3]
        assert v.tolist() == [1.0, -1.0, 1.0]

    def test_default_is_rising_only(self):
        t, v = run("edges(x, 0)", x=([0, 1, 2], [-1.0, 1.0, -1.0]))["query"]
        assert t.tolist() == [1]
        assert v.tolist() == [1.0]

    def test_matches_trigger_detect(self):
        rng = np.random.default_rng(3)
        values = rng.standard_normal(200)
        times = np.arange(200.0)
        events = Trigger(0.3, Edge.EITHER).detect(values)
        t, v = run("edges(x, 0.3, either)", x=(times, values))["query"]
        assert t.tolist() == [float(e.index) for e in events]
        assert v.tolist() == [
            1.0 if e.edge is Edge.RISING else -1.0 for e in events
        ]


class TestRuntimePlumbing:
    def test_identity_rename_republishes_a_source(self):
        out = run("mirror = x", x=([0, 1], [4.0, 5.0]))
        assert out["mirror"][1].tolist() == [4.0, 5.0]

    def test_unknown_sink_name_rejected(self):
        runtime = Runtime(compile_query("x + 1"))
        with pytest.raises(QueryError, match="publishes no output"):
            runtime.add_sink("nope", lambda t, v: None)

    def test_feed_after_finish_rejected(self):
        runtime = Runtime(compile_query("x + 1"))
        runtime.finish()
        with pytest.raises(QueryError, match="finished"):
            runtime.feed("x", [0.0], [1.0])

    def test_feed_unknown_name_is_ignored(self):
        runtime = Runtime(compile_query("x + 1"))
        assert runtime.feed("other", [0.0], [1.0]) is False

    def test_missing_capture_signal_rejected(self):
        with pytest.raises(QueryError, match="not provided"):
            execute({"a": (np.zeros(1), np.zeros(1))}, "a + b")

    def test_mismatched_columns_rejected(self):
        with pytest.raises(QueryError, match="equal-length"):
            execute({"x": (np.zeros(3), np.zeros(2))}, "x + 1")

    def test_finish_is_idempotent(self):
        out = []
        runtime = Runtime(compile_query("sum_over(x, 10)"))
        runtime.add_sink("query", lambda t, v: out.append(v))
        runtime.feed("x", [1.0], [2.0])
        runtime.finish()
        runtime.finish()
        assert len(out) == 1
