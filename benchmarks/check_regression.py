"""Performance regression gates (opt-in).

Two committed floors, each deliberately ~10-20x under what a healthy
build posts on a developer container, so only a genuine algorithmic
regression trips them — CI jitter does not:

* **eventloop-dispatch-1k** — quick-mode timer dispatch at 1k sources
  (the PR-2 indexed scheduler; a decay back to the linear scan trips it).
* **net-wire-binary** — quick-mode binary columnar wire ingest over
  ``memory_pair`` (the PR-3 binary protocol; a decay back to per-sample
  strings or per-tuple objects trips it).
* **capture-write-1m** — capture-store write throughput at 1M samples
  (the PR-4 segmented columnar store; a decay back to per-tuple text
  recording trips it).
* **query-arith-1m** — end-to-end batch query throughput for a 2-op
  arithmetic expression over a 1M-sample capture (the PR-5 derived-
  signal engine; a decay to per-sample interpretation trips it).
* **failover-recovery-200k** — supervised shard restart with WAL replay
  catch-up at 200k samples (the PR-6 fault-tolerance plane; a decay to
  per-sample replay, or a restart path that re-reads the store per
  block, trips it).
* **query-fused-1m** — the X12a arithmetic query again, but gated at a
  floor only the fused native data path clears (the PR-7 fusion pass +
  single-pass kernels + zero-copy read; losing fusion or the compiled
  backend trips it).  Skipped entirely when the machine has no native
  backend — the other gates still run.
* **distributed-ingest-4p** — X14a process-worker ingest scaling (the
  PR-8 multi-process shard plane): 4 workers must post at least 2x the
  1-worker rate.  A serialized router (blocking flushes, a drain that
  round-trips per batch) trips it.  The ratio is core-bound, so the
  gate only runs on machines with >= 4 CPUs — 1-core containers skip
  it (the JSON still records both rates and the core count).
* **query-fanout-1k** — X12e continuous-query subscriber scaling (the
  PR-9 multiplexed subscription plane): with 1000 subscribers sharing
  one derived view, each subscriber past the first may add at most
  20 µs of wall time per fanned batch, ``(t_1k - t_1) / (999 *
  batches)``.  A decay to per-subscriber evaluation or per-subscriber
  encoding trips it.  The cost is the minimum over paired attempts —
  scheduler noise only ever inflates one side of a wall-clock pair.
* **obs-overhead** — X15a self-instrumentation cost (the PR-10
  observability plane): the fully instrumented 1M-sample ingest run
  (registry, loop profiler, live publisher, installed tracer) must
  post >= 95% of the bare run's throughput.  A per-sample guard, an
  allocation on the span fast path, or a publisher pass that walks
  clean instruments expensively trips it.

Opt-in, so tier-1 stays fast:

* as pytest markers::

    REPRO_BENCH=1 PYTHONPATH=src python -m pytest benchmarks/check_regression.py -q

  (without ``REPRO_BENCH=1`` the tests are skipped; they also carry the
  ``benchmark`` marker so ``-m "not benchmark"`` deselects them wholesale)

* as a script, for CI pipelines that want the JSON::

    PYTHONPATH=src python benchmarks/check_regression.py
"""

from __future__ import annotations

import json
import os
import sys
import time

import pytest

from bench_capture import bench_write
from bench_distributed import bench_process_ingest
from bench_eventloop import ACCEPTANCE_SOURCES, bench_dispatch
from bench_failover import bench_recovery
from bench_net import bench_wire
from bench_query import bench_batch, fanout_marginal
from repro.eventloop.loop import MainLoop

# Committed floor: dispatches/second at 1k attached timer sources.  A
# healthy indexed loop posts ~300-550k/s; the seed scan loop posted ~5k/s.
DISPATCH_FLOOR_1K = 50_000.0
QUICK_TARGET_DISPATCHES = 1_000

# Committed floor: server-ingested samples/second for the binary
# columnar wire path at the quick size.  A healthy build posts ~8-11M/s;
# the text-tuple path posts ~170k/s.
WIRE_FLOOR_BINARY = 500_000.0
WIRE_QUICK_SAMPLES = 100_000

# Committed floor: capture-store write throughput at 1M samples pushed
# in 1k batches.  A healthy build posts ~12-16M/s; text-tuple recording
# posts well under 1M/s.
CAPTURE_WRITE_FLOOR = 5_000_000.0
CAPTURE_WRITE_SAMPLES = 1_000_000

# Committed floor: end-to-end batch query throughput (capture read +
# time-aligning join + arithmetic) for a 2-op expression at 1M samples.
# A healthy build posts ~7-11M/s.
QUERY_ARITH_FLOOR = 5_000_000.0
QUERY_ARITH_SAMPLES = 1_000_000

# Committed floor: the same 2-op batch query, gated at a level only the
# fused native path reaches (one compiled kernel per chain, one-pass
# verified gather, run-span join merge).  A healthy native build posts
# ~45-60M/s; the unfused per-operator path posts ~7-11M/s, so a lost
# fusion pass or broken kernel build trips this long before correctness
# suites notice.  Native-less machines skip the gate.
QUERY_FUSED_FLOOR = 30_000_000.0

# Committed floor: WAL replay catch-up throughput during a supervised
# shard restart at 200k samples.  A healthy build posts ~3-5M/s (the
# columnar replay path); per-sample re-pushes would post well under it.
RECOVERY_FLOOR = 300_000.0
RECOVERY_SAMPLES = 200_000

# Committed floor: 4 process workers over 1 worker on the X14a ingest
# benchmark.  The ISSUE target is >= 3x on a dedicated 4-core box; the
# committed gate is 2x so shared-CI core stealing does not trip it while
# a serialized router still does.  Core-bound, hence the cpu guard.
DISTRIBUTED_SPEEDUP_FLOOR = 2.0
DISTRIBUTED_MIN_CPUS = 4

# Committed ceiling: the wall time each of 1000 subscribers on one
# shared derived view adds per fanned batch (X12e), in µs, minimum over
# paired attempts.  A healthy build posts ~0.7-1.2 µs and reads within a
# few µs of 0 at a tenth of the size; encoding once per subscriber posts
# ~250 µs.
FANOUT_MARGINAL_CEILING_US = 20.0

# Committed floor: instrumented-over-bare ingest throughput ratio on
# the X15a run (best seconds each side).  The ISSUE acceptance is 95%;
# a healthy build posts ~0.98-1.0 — the obs plane costs one branch per
# batch, not per sample.
OBS_OVERHEAD_FLOOR = 0.95

ATTEMPTS = 3  # best-of-N damps scheduler noise on shared machines

pytestmark = [
    pytest.mark.benchmark,
    pytest.mark.skipif(
        not os.environ.get("REPRO_BENCH"),
        reason="perf regression gate is opt-in: set REPRO_BENCH=1",
    ),
]


def measure_best_dispatch() -> dict:
    best: dict = {"rate_per_sec": 0.0}
    for _ in range(ATTEMPTS):
        result = bench_dispatch(MainLoop, ACCEPTANCE_SOURCES, QUICK_TARGET_DISPATCHES)
        if result["rate_per_sec"] > best["rate_per_sec"]:
            best = result
    return best


def measure_best_wire() -> dict:
    best: dict = {"rate_per_sec": 0.0}
    for _ in range(ATTEMPTS):
        result = bench_wire("binary", WIRE_QUICK_SAMPLES)
        if result["rate_per_sec"] > best["rate_per_sec"]:
            best = result
    return best


def measure_best_capture() -> dict:
    best: dict = {"rate_per_sec": 0.0}
    for _ in range(ATTEMPTS):
        result = bench_write(CAPTURE_WRITE_SAMPLES)
        if result["rate_per_sec"] > best["rate_per_sec"]:
            best = result
    return best


def measure_best_query() -> dict:
    best: dict = {"rate_per_sec": 0.0}
    for _ in range(ATTEMPTS):
        result = bench_batch(QUERY_ARITH_SAMPLES)
        if result["rate_per_sec"] > best["rate_per_sec"]:
            best = result
    return best


def test_query_fused_floor():
    from repro.core import native

    if not native.available():
        pytest.skip("no native backend on this machine")
    best = measure_best_query()
    assert best["rate_per_sec"] >= QUERY_FUSED_FLOOR, (
        f"fused query data path regressed: "
        f"{best['rate_per_sec']:.0f} samples/s < floor {QUERY_FUSED_FLOOR:.0f}/s "
        f"(backend {native.mode()})"
    )


def measure_best_distributed() -> dict:
    """Best-of-N 1-worker and 4-worker X14a rates, paired per attempt."""
    best: dict = {"speedup": 0.0}
    for _ in range(ATTEMPTS):
        one = bench_process_ingest(1)
        four = bench_process_ingest(4)
        speedup = four["rate_per_sec"] / one["rate_per_sec"]
        if speedup > best["speedup"]:
            best = {
                "speedup": speedup,
                "rate_1p": one["rate_per_sec"],
                "rate_4p": four["rate_per_sec"],
                "samples": one["samples"],
                "cpu_count": os.cpu_count(),
            }
    return best


@pytest.mark.distributed
def test_distributed_ingest_floor():
    if (os.cpu_count() or 1) < DISTRIBUTED_MIN_CPUS:
        pytest.skip(
            f"process-scaling gate needs >= {DISTRIBUTED_MIN_CPUS} CPUs "
            f"(machine has {os.cpu_count()})"
        )
    best = measure_best_distributed()
    assert best["speedup"] >= DISTRIBUTED_SPEEDUP_FLOOR, (
        f"process-worker ingest scaling regressed: 4 workers posted "
        f"x{best['speedup']:.2f} over 1 worker "
        f"({best['rate_4p']:.0f}/s vs {best['rate_1p']:.0f}/s), "
        f"floor x{DISTRIBUTED_SPEEDUP_FLOOR:.1f} on {best['cpu_count']} CPUs"
    )


def measure_best_fanout() -> dict:
    """Min-over-paired-attempts marginal cost of one more subscriber."""
    runs, marginal = fanout_marginal(ATTEMPTS)
    return {
        "marginal_us": marginal,
        "seconds_1": min(s["seconds"] for s, _ in runs),
        "seconds_1k": min(m["seconds"] for _, m in runs),
        "samples": runs[0][0]["samples"],
    }


def test_query_fanout_floor():
    best = measure_best_fanout()
    assert best["marginal_us"] < FANOUT_MARGINAL_CEILING_US, (
        f"subscriber fan-out scaling regressed: each of 1k subscribers "
        f"added {best['marginal_us']:.2f} µs per batch "
        f"({best['seconds_1k']*1e3:.0f} ms vs {best['seconds_1']*1e3:.0f} ms), "
        f"ceiling {FANOUT_MARGINAL_CEILING_US:.0f} µs"
    )


def measure_best_obs() -> dict:
    from bench_obs import ingest_overhead

    # The bench's own attempt count: the ratio estimator needs more
    # interleaved pairs than a single-rate best-of-N to damp drift.
    return ingest_overhead()


def test_obs_overhead_floor():
    best = measure_best_obs()
    assert best["ratio"] >= OBS_OVERHEAD_FLOOR, (
        f"self-instrumentation overhead regressed: instrumented ingest "
        f"posted {best['ratio']:.3f}x the bare throughput "
        f"({best['instrumented']['rate_per_sec']:.0f}/s vs "
        f"{best['bare']['rate_per_sec']:.0f}/s), "
        f"floor {OBS_OVERHEAD_FLOOR:.2f}"
    )


def measure_best_recovery() -> dict:
    best: dict = {"rate_per_sec": 0.0}
    for _ in range(ATTEMPTS):
        result = bench_recovery(RECOVERY_SAMPLES)
        if result["rate_per_sec"] > best["rate_per_sec"]:
            best = result
    return best


def test_dispatch_throughput_floor():
    best = measure_best_dispatch()
    assert best["rate_per_sec"] >= DISPATCH_FLOOR_1K, (
        f"dispatch throughput at {ACCEPTANCE_SOURCES} sources regressed: "
        f"{best['rate_per_sec']:.0f}/s < floor {DISPATCH_FLOOR_1K:.0f}/s"
    )


def test_wire_throughput_floor():
    best = measure_best_wire()
    assert best["rate_per_sec"] >= WIRE_FLOOR_BINARY, (
        f"binary wire ingest throughput regressed: "
        f"{best['rate_per_sec']:.0f} samples/s < floor {WIRE_FLOOR_BINARY:.0f}/s"
    )


def test_capture_write_floor():
    best = measure_best_capture()
    assert best["rate_per_sec"] >= CAPTURE_WRITE_FLOOR, (
        f"capture write throughput regressed: "
        f"{best['rate_per_sec']:.0f} samples/s < floor {CAPTURE_WRITE_FLOOR:.0f}/s"
    )


def test_query_arith_floor():
    best = measure_best_query()
    assert best["rate_per_sec"] >= QUERY_ARITH_FLOOR, (
        f"batch query throughput regressed: "
        f"{best['rate_per_sec']:.0f} samples/s < floor {QUERY_ARITH_FLOOR:.0f}/s"
    )


def test_failover_recovery_floor():
    best = measure_best_recovery()
    assert best["rate_per_sec"] >= RECOVERY_FLOOR, (
        f"restart replay catch-up throughput regressed: "
        f"{best['rate_per_sec']:.0f} samples/s < floor {RECOVERY_FLOOR:.0f}/s"
    )


def main() -> int:
    from repro.core import native

    t0 = time.perf_counter()
    dispatch = measure_best_dispatch()
    wire = measure_best_wire()
    capture = measure_best_capture()
    query = measure_best_query()
    recovery = measure_best_recovery()
    gates = [
        {
            "gate": "eventloop-dispatch-1k",
            "floor_per_sec": DISPATCH_FLOOR_1K,
            "measured_per_sec": dispatch["rate_per_sec"],
            "dispatches": dispatch["dispatches"],
            "passed": dispatch["rate_per_sec"] >= DISPATCH_FLOOR_1K,
        },
        {
            "gate": "net-wire-binary",
            "floor_per_sec": WIRE_FLOOR_BINARY,
            "measured_per_sec": wire["rate_per_sec"],
            "samples": wire["samples"],
            "passed": wire["rate_per_sec"] >= WIRE_FLOOR_BINARY,
        },
        {
            "gate": "capture-write-1m",
            "floor_per_sec": CAPTURE_WRITE_FLOOR,
            "measured_per_sec": capture["rate_per_sec"],
            "samples": capture["samples"],
            "passed": capture["rate_per_sec"] >= CAPTURE_WRITE_FLOOR,
        },
        {
            "gate": "query-arith-1m",
            "floor_per_sec": QUERY_ARITH_FLOOR,
            "measured_per_sec": query["rate_per_sec"],
            "samples": query["samples"],
            "passed": query["rate_per_sec"] >= QUERY_ARITH_FLOOR,
        },
        {
            "gate": "failover-recovery-200k",
            "floor_per_sec": RECOVERY_FLOOR,
            "measured_per_sec": recovery["rate_per_sec"],
            "samples": recovery["samples"],
            "restart_seconds": recovery["restart_seconds"],
            "passed": recovery["rate_per_sec"] >= RECOVERY_FLOOR,
        },
    ]
    if native.available():
        gates.append(
            {
                "gate": "query-fused-1m",
                "floor_per_sec": QUERY_FUSED_FLOOR,
                "measured_per_sec": query["rate_per_sec"],
                "samples": query["samples"],
                "backend": native.mode(),
                "passed": query["rate_per_sec"] >= QUERY_FUSED_FLOOR,
            }
        )
    fanout = measure_best_fanout()
    gates.append(
        {
            "gate": "query-fanout-1k",
            "ceiling_marginal_us": FANOUT_MARGINAL_CEILING_US,
            "measured_marginal_us": fanout["marginal_us"],
            "seconds_1": fanout["seconds_1"],
            "seconds_1k": fanout["seconds_1k"],
            "samples": fanout["samples"],
            "passed": fanout["marginal_us"] < FANOUT_MARGINAL_CEILING_US,
        }
    )
    obs = measure_best_obs()
    gates.append(
        {
            "gate": "obs-overhead",
            "floor_ratio": OBS_OVERHEAD_FLOOR,
            "measured_ratio": obs["ratio"],
            "rate_bare_per_sec": obs["bare"]["rate_per_sec"],
            "rate_instrumented_per_sec": obs["instrumented"]["rate_per_sec"],
            "samples": obs["samples"],
            "passed": obs["ratio"] >= OBS_OVERHEAD_FLOOR,
        }
    )
    distributed = measure_best_distributed()
    gate = {
        "gate": "distributed-ingest-4p",
        "floor_speedup": DISTRIBUTED_SPEEDUP_FLOOR,
        "measured_speedup": distributed["speedup"],
        "rate_1p_per_sec": distributed["rate_1p"],
        "rate_4p_per_sec": distributed["rate_4p"],
        "samples": distributed["samples"],
        "cpu_count": distributed["cpu_count"],
    }
    if (distributed["cpu_count"] or 1) < DISTRIBUTED_MIN_CPUS:
        # The speedup is core-bound: on fewer than 4 CPUs the rates are
        # recorded for the ledger but the ratio cannot gate anything.
        gate["passed"] = True
        gate["skipped"] = f"machine has < {DISTRIBUTED_MIN_CPUS} CPUs"
    else:
        gate["passed"] = distributed["speedup"] >= DISTRIBUTED_SPEEDUP_FLOOR
    gates.append(gate)
    passed = all(g["passed"] for g in gates)
    print(
        json.dumps(
            {
                "attempts": ATTEMPTS,
                "wall_seconds": time.perf_counter() - t0,
                "gates": gates,
                "passed": passed,
            },
            indent=2,
        )
    )
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
