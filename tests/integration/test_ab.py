"""Tests for ``benchmarks/ab.py``'s verdict logic, on canned run records."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[2] / "benchmarks" / "ab.py"

RATE = {"name": "samples_per_s", "unit": "samples/s", "better": "higher", "bound": 0.24}
P99 = {"name": "latency_ms_p99", "unit": "ms", "better": "lower", "bound": 0.24}


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", _PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(correct=True, attempted=100, failed=0, **metrics):
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": "-"} for name, value in metrics.items()},
    }


def pairs_of(parent_values, change_values, name="samples_per_s"):
    return [
        (run(**{name: p}), run(**{name: c}))
        for p, c in zip(parent_values, change_values)
    ]


class TestJudge:
    def test_quiet_equal_runs_are_within_bound(self, ab):
        row = ab.judge(RATE, pairs_of([100, 101, 99, 100], [100, 99, 101, 100]))
        assert row["verdict"] == "within bound"
        assert row["parent"] == (99.75, 100, 100.25)
        assert row["ratio"] == 1.0
        assert row["wins"] == 1  # ties count for neither side
        assert not row["gain"]

    def test_worse_beyond_bound_in_the_metric_direction(self, ab):
        slower = ab.judge(RATE, pairs_of([100] * 4, [70] * 4))
        assert slower["verdict"] == "WORSE"
        later = ab.judge(P99, pairs_of([2.0] * 4, [2.6] * 4, "latency_ms_p99"))
        assert later["verdict"] == "WORSE"
        faster = ab.judge(P99, pairs_of([2.0] * 4, [1.0] * 4, "latency_ms_p99"))
        assert faster["verdict"] == "within bound"

    def test_noisy_parent_is_unresolved_unless_dominated(self, ab):
        parent = [50, 100, 150, 200]  # IQR / median far above 0.24
        row = ab.judge(RATE, pairs_of(parent, [120, 125, 130, 135]))
        assert row["verdict"] == "unresolved"
        row = ab.judge(RATE, pairs_of(parent, [210, 220, 230, 240]))
        assert row["verdict"] == "within bound"  # every change run is better

    def test_gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_iqr(self, ab):
        parent = [100, 101, 102, 103, 104, 100, 101, 102, 103, 104]
        clear = ab.judge(RATE, pairs_of(parent, [110] * 10))
        assert clear["wins"] == 10 and clear["gain"]
        lost_two = ab.judge(RATE, pairs_of(parent, [110] * 8 + [90] * 2))
        assert lost_two["wins"] == 8 and not lost_two["gain"]
        inside_iqr = ab.judge(RATE, pairs_of(parent, [p + 1.5 for p in parent]))
        assert inside_iqr["wins"] == 10 and not inside_iqr["gain"]
        too_few = ab.judge(RATE, pairs_of(parent[:9], [110] * 9))
        assert too_few["wins"] == 9 and not too_few["gain"]

    def test_missing_metric(self, ab):
        row = ab.judge(RATE, [(run(), run(samples_per_s=1.0))])
        assert row["verdict"] == "missing"


class TestVerdict:
    def test_clean_comparison_exits_zero(self, ab):
        rows, claim, status = ab.verdict([RATE], pairs_of([100] * 3, [101] * 3), None)
        assert status == 0 and claim is None
        assert [row["verdict"] for row in rows] == ["within bound"]

    def test_incorrect_run_exits_one(self, ab):
        pairs = pairs_of([100] * 3, [100] * 3)
        pairs[1] = (pairs[1][0], run(correct=False, samples_per_s=100))
        assert ab.verdict([RATE], pairs, None)[2] == 1

    def test_worse_metric_exits_one(self, ab):
        assert ab.verdict([RATE], pairs_of([100] * 3, [50] * 3), None)[2] == 1

    def test_higher_failed_share_exits_one_and_voids_a_gain(self, ab):
        pairs = [
            (run(samples_per_s=100, attempted=100, failed=1),
             run(samples_per_s=200, attempted=100, failed=2))
            for _ in range(10)
        ]
        _, claim, status = ab.verdict([RATE], pairs, "samples_per_s")
        assert status == 1 and claim is False
        pairs = [(p, dict(c, failed=1)) for p, c in pairs]
        _, claim, status = ab.verdict([RATE], pairs, "samples_per_s")
        assert status == 0 and claim is True

    def test_quartiles_of_one_run(self, ab):
        assert ab.quartiles([3.0]) == (3.0, 3.0, 3.0)


PER_LAYER = [
    {"name": "core.scope.busy_ms", "unit": "ms", "better": "lower"},
    {"name": "core.scope.polls", "unit": "count", "better": "higher"},
    {"name": "core.scope.poll_ms_max", "unit": "ms", "better": "lower"},
    {"name": "capture.writer.bytes", "unit": "bytes", "better": "lower"},
    {"name": "net.transport.bytes_per_sample", "unit": "B/sample", "better": "lower"},
    {"name": "net.shard.skew", "unit": "ratio", "better": "lower"},
    {"name": "net.worker.wait_ms", "unit": "ms", "better": "lower"},
    {"name": "unattributed.ms", "unit": "ms", "better": "lower"},
]


def traced(correct=True, **overrides):
    metrics = {
        "core.scope.busy_ms": 400.0,
        "core.scope.polls": 48,
        "core.scope.poll_ms_max": 20.0,
        "capture.writer.bytes": 1000,
        "net.transport.bytes_per_sample": 22.5,
        "net.shard.skew": 1.8,
        "net.worker.wait_ms": 0.0,
        "unattributed.ms": 20.0,
    }
    metrics.update(overrides)
    return run(correct=correct, **metrics)


class TestCounts:
    def test_equal_counts_exit_zero_and_timings_are_ratios(self, ab):
        change = traced(**{"core.scope.busy_ms": 100.0, "net.shard.skew": 1.2})
        differences, timings, status = ab.counts(PER_LAYER, traced(), change)
        assert differences == [] and status == 0
        by_name = {name: (p, c, ratio) for name, p, c, ratio in timings}
        timed = ["core.scope.busy_ms", "net.worker.wait_ms", "unattributed.ms"]
        assert list(by_name) == timed
        assert by_name["core.scope.busy_ms"] == (400.0, 100.0, 0.25)
        assert math.isnan(by_name["net.worker.wait_ms"][2])  # 0 / 0

    def test_every_exact_unit_difference_is_reported_and_fails(self, ab):
        change = traced(**{
            "core.scope.polls": 47,
            "capture.writer.bytes": 1001,
            "net.transport.bytes_per_sample": 22.25,
        })
        differences, _, status = ab.counts(PER_LAYER, traced(), change)
        assert differences == [
            ("core.scope.polls", 48.0, 47.0),
            ("capture.writer.bytes", 1000.0, 1001.0),
            ("net.transport.bytes_per_sample", 22.5, 22.25),
        ]
        assert status == 1

    def test_a_count_missing_on_one_side_differs(self, ab):
        parent = traced()
        del parent["metrics"]["core.scope.polls"]
        differences, _, status = ab.counts(PER_LAYER, parent, traced())
        assert differences == [("core.scope.polls", None, 48.0)] and status == 1

    def test_incorrect_run_exits_one(self, ab):
        assert ab.counts(PER_LAYER, traced(), traced(correct=False))[2] == 1
        assert ab.counts(PER_LAYER, traced(correct=False), traced())[2] == 1
