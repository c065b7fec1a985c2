"""X2 and X14 — distributed-plane benchmarks.

X2 (Section 4.4 ablation): the server displays remote BUFFER samples
after the configured delay and drops samples that arrive later than
their slot.  The trade-off the user tunes with the delay widget: a small
delay gives a fresher display but drops more of a laggy client's data; a
large delay keeps everything at the cost of display latency.  We sweep
the delay against a fixed 60 ms transmission latency and report
acceptance rates, plus throughput of the full decode-buffer-display
path.

X14 (process-model scaling): ingest throughput of
:class:`ProcessShardedScopeManager` — real worker processes fed DELIVER
frames over socketpairs.  X14a sweeps 1 → 2 → 4 workers at a fixed
offered load.  Speedups track the machine's core
count (``os.cpu_count()`` is emitted alongside every row — on a 1-core
container all three X14a points post the same rate, by design).  Gated
behind ``REPRO_BENCH=1`` like the regression gates; carries the
``distributed`` marker because it forks real workers.
"""

import os
import time

import numpy as np
import pytest
from conftest import report

from repro.core.manager import ScopeManager
from repro.core.signal import buffer_signal
from repro.eventloop.loop import MainLoop
from repro.net import (
    ProcessShardedScopeManager,
    ScopeClient,
    ScopeServer,
    memory_pair,
)

LINK_LATENCY_MS = 60.0
SAMPLE_EVERY_MS = 10.0
RUN_MS = 5_000.0


def run_with_delay(delay_ms: float):
    loop = MainLoop()
    manager = ScopeManager(loop)
    scope = manager.scope_new("remote", period_ms=50, delay_ms=delay_ms)
    scope.signal_new(buffer_signal("metric"))
    scope.set_polling_mode(50)
    scope.start_polling()
    server = ScopeServer(loop, manager)
    near, far = memory_pair(loop.clock, latency_ms=LINK_LATENCY_MS)
    server.add_client(far)
    client = ScopeClient(near, loop)
    loop.timeout_add(
        SAMPLE_EVERY_MS,
        lambda lost: client.send_sample("metric", loop.clock.now() % 100) or True,
    )
    loop.run_until(RUN_MS)
    totals = server.totals()
    displayed = len(scope.channel("metric").trace)
    return totals, displayed


def test_delay_vs_drop_tradeoff(benchmark):
    sweep = benchmark.pedantic(
        lambda: {d: run_with_delay(d) for d in (20.0, 60.0, 100.0, 200.0)},
        rounds=1,
        iterations=1,
    )

    # Delay below the link latency: everything arrives late and drops.
    tight_totals, tight_displayed = sweep[20.0]
    assert tight_totals["dropped_late"] == tight_totals["received"]
    assert tight_displayed == 0
    # Delay comfortably above the latency: nothing drops.
    loose_totals, loose_displayed = sweep[200.0]
    assert loose_totals["dropped_late"] == 0
    assert loose_displayed > 400
    # Monotone: larger delay never drops more.
    drops = [sweep[d][0]["dropped_late"] for d in (20.0, 60.0, 100.0, 200.0)]
    assert drops == sorted(drops, reverse=True)

    report(
        "X2: display delay vs late drops (Section 4.4, 60 ms link)",
        [
            (
                f"delay {d:5.0f} ms",
                f"received {sweep[d][0]['received']:4d}  "
                f"dropped {sweep[d][0]['dropped_late']:4d}  "
                f"displayed {sweep[d][1]:4d}",
            )
            for d in (20.0, 60.0, 100.0, 200.0)
        ]
        + [("paper rule", "data arriving after the delay is dropped immediately")],
    )


# -- X14: multi-process shard-worker ingest scaling -----------------------

X14_SIGNALS = [f"sig-{i:02d}" for i in range(32)]
X14_FANOUT = 3  # scopes per worker sharing every signal: weights child work
X14_SAMPLES = 200_000
X14_BATCH = 512

x14_marks = pytest.mark.skipif(
    not os.environ.get("REPRO_BENCH"),
    reason="process-scaling benchmark is opt-in: set REPRO_BENCH=1",
)


def _x14_factory(manager, shard_id):
    # Several scopes subscribe to every signal, so each delivered sample
    # is ingested FANOUT times in the child: the work we are scaling out
    # lives on the worker side, not in the router's encode loop.
    for k in range(X14_FANOUT):
        scope = manager.scope_new(
            f"scope-{shard_id}-{k}", period_ms=50, delay_ms=150.0
        )
        for name in X14_SIGNALS:
            scope.signal_new(buffer_signal(name))
        scope.set_polling_mode(50)
        scope.start_polling()


def bench_process_ingest(workers: int, total_samples: int = X14_SAMPLES) -> dict:
    """Offer ``total_samples`` round-robin across signals, drain, time it.

    The clock never advances, so every sample lands at its slot (nothing
    drops) and the measurement is pure ingest: router encode + wire +
    child decode + FANOUT-way buffer insert.  The drain is
    inside the timed window — the rate is end-to-end samples per wall
    second, not enqueue speed.
    """
    rng = np.random.default_rng(7)
    values = rng.normal(size=X14_BATCH)
    times = np.zeros(X14_BATCH)
    with ProcessShardedScopeManager(shards=workers, scope_factory=_x14_factory) as mgr:
        pushed = 0
        batch_i = 0
        t0 = time.perf_counter()
        while pushed < total_samples:
            name = X14_SIGNALS[batch_i % len(X14_SIGNALS)]
            pushed += mgr.push_samples(name, times, values)
            batch_i += 1
        mgr.drain(timeout_s=600.0)
        wall = time.perf_counter() - t0
        totals = mgr.totals()
    assert totals["accepted"] == pushed, totals
    return {
        "workers": workers,
        "samples": pushed,
        "wall_seconds": wall,
        "rate_per_sec": pushed / wall,
        "child_inserts": pushed * X14_FANOUT,
        "cpu_count": os.cpu_count(),
    }


@pytest.mark.benchmark
@pytest.mark.distributed
@x14_marks
def test_x14a_worker_scaling(benchmark):
    sweep = benchmark.pedantic(
        lambda: {w: bench_process_ingest(w) for w in (1, 2, 4)},
        rounds=1,
        iterations=1,
    )
    for w, result in sweep.items():
        assert result["samples"] == X14_SAMPLES + (-X14_SAMPLES % X14_BATCH)
        assert result["rate_per_sec"] > 0
    report(
        f"X14a: process-worker ingest scaling ({os.cpu_count()} cpu(s))",
        [
            (
                f"{w} worker(s)",
                f"{sweep[w]['rate_per_sec']:>12,.0f} samples/s  "
                f"(x{sweep[w]['rate_per_sec'] / sweep[1]['rate_per_sec']:.2f})",
            )
            for w in (1, 2, 4)
        ]
        + [("note", "speedup tracks cores; 1-core machines post flat rates")],
    )
