"""X12 — derived-signal query engine: batch and incremental throughput.

Derived signals only compound the system's scale if querying costs less
than acquiring: the capture store writes ~15M samples/s and the binary
wire ingests ~10M/s, so re-deriving signals from a recorded run must
run at the same order of magnitude.  Three measurements over a
two-signal store (samples split evenly between ``a`` and ``b``):

* **X12a `arith`** — the 2-op arithmetic query ``a - 0.5*b``
  end-to-end over a :class:`~repro.capture.reader.CaptureReader`
  (``columns_for`` read + time-aligning join + arithmetic), 1M samples.
  Acceptance: **≥ 5M samples/s**.
* **X12b `pipeline`** — a deeper mixed pipeline (join, one-pole ewma,
  rate, windowed sum) over the same store.
* **X12c `incremental`** — the same arithmetic query fed as a live tap
  in 1k-sample batches through :class:`~repro.query.live.LiveQuery`
  (no manager round-trip), whole store.
* **X12d `fused_map` / `fused_state`** — single-signal operator chains
  that the fusion pass collapses into one kernel: a pure elementwise
  chain (``clip(2*a - 1, -2.5, 2.5)``) and a stateful one
  (``clip(ewma(2*a + 1, 0.9), -5, 5)``).  These isolate the fused
  single-pass path: no join, so the rate is the kernel plus the
  zero-copy read path and nothing else.
* **X12e `fanout`** — the continuous-query service's subscriber
  scaling: N raw wire sessions (1/10/100/1k) SUBSCRIBE to the *same*
  derived view on one server, a driving client streams the source
  signal, and the wall time of the whole ingest+derive+fan-out run is
  measured per N.  The server evaluates the shared plan **once** and
  ships each derived frame as one encode per distinct wire id with the
  bytes shared by reference across transmit queues, so the marginal
  subscriber costs a queue append.  Subscribers are raw injected
  endpoints (no client-side decoders) — the measurement is the
  server-side multiplexing cost, which is what the acceptance bounds.
  Acceptance: **each of 1k subscribers adds < 20 µs per batch**
  (:func:`fanout_marginal`).

Batch measurements are best-of-:data:`ATTEMPTS` with a **fresh reader
per attempt** — payload CRC verification is paid every time (the
per-reader cache never carries over), while first-touch costs (shared
object loads, page cache) wash out.

Run stand-alone for machine-readable JSON (``--json PATH`` writes it,
otherwise it lands on stdout)::

    PYTHONPATH=src python benchmarks/bench_query.py [--quick] [--json out.json]

or through pytest for the acceptance assertions::

    PYTHONPATH=src python -m pytest benchmarks/bench_query.py -q -s
"""

from __future__ import annotations

import gc
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np
from conftest import report

from repro.capture import CaptureReader, CaptureWriter
from repro.query import LiveQuery, compile_query, execute

ACCEPTANCE_ARITH_RATE = 5_000_000.0
TOTAL_SAMPLES = 1_000_000
QUICK_SAMPLES = 200_000
BATCH = 1_000
ATTEMPTS = 5

ARITH_QUERY = "a - 0.5*b"
PIPELINE_QUERY = (
    "d = a - 0.5*b; "
    "smooth = ewma(d, 0.9); "
    "slope = rate(a); "
    "per_win = sum_over(b, 5)"
)
#: X12d: chains the fusion pass collapses to a single kernel each.
FUSED_MAP_QUERY = "clip(2*a - 1, -2.5, 2.5)"
FUSED_STATE_QUERY = "clip(ewma(2*a + 1, 0.9), -5, 5)"
#: X12e: the shared derived view every subscriber watches.  Batches are
#: the wire's bulk-transfer size (10k samples/frame, the regime the 10M/s
#: ingest figure is quoted at): the fan-out's per-batch per-subscriber
#: cost is one shared-bytes enqueue, so bulk frames are what the
#: marginal-subscriber claim is about — at tiny frames per-batch Python
#: overhead dominates any transport.
FANOUT_QUERY = "smooth = ewma(src, 0.9)"
FANOUT_SAMPLES = 2_000_000
FANOUT_BATCH = 20_000
#: Ceiling on the wall time one more subscriber adds per fanned batch,
#: in µs.  A healthy build posts ~1 µs (one shared-bytes enqueue) and
#: reads within a few µs of 0 at a tenth of the size; encoding once per
#: subscriber posts ~250 µs.
ACCEPTANCE_FANOUT_MARGINAL_US = 20.0


def build_store(
    path: Path,
    total: int,
    batch: int = BATCH,
    signals: tuple = ("a", "b"),
) -> None:
    """Write ``total`` samples, blocks cycling through ``signals``."""
    rng = np.random.default_rng(7)
    values = rng.standard_normal(batch)
    writer = CaptureWriter(path)
    now = 0.0
    sent = 0
    index = 0
    while sent < total:
        n = min(batch, total - sent)
        now += 1.0
        times = np.linspace(now - 1.0, now, n, endpoint=False)
        writer.on_push(signals[index % len(signals)], times, values[:n], now)
        sent += n
        index += 1
    writer.close()


def bench_batch(
    total: int,
    query: str = ARITH_QUERY,
    signals: tuple = ("a", "b"),
) -> Dict[str, float]:
    """End-to-end batch query over a capture store: read + execute.

    Best of :data:`ATTEMPTS` runs, each over a **fresh** reader so the
    payload CRC pass is inside every measurement (the per-reader
    verification cache never carries between attempts).
    """
    root = Path(tempfile.mkdtemp(prefix="bench_query_"))
    try:
        build_store(root / "store", total, signals=signals)
        # Flush the freshly written store before timing: on small
        # machines the kernel's asynchronous writeback of those dirty
        # pages otherwise lands *inside* the measurement.
        os.sync()
        plan = compile_query(query)
        # Warm the numpy ufunc/import paths and native kernel builds so
        # the measurement reflects steady-state engine throughput.
        warm = np.arange(1024, dtype=np.float64)
        execute(
            {name: (warm + i, warm) for i, name in enumerate(signals)}, plan
        )
        best = float("inf")
        results: Dict = {}
        for _ in range(ATTEMPTS):
            with CaptureReader(root / "store") as reader:
                t0 = time.perf_counter()
                results = execute(reader, plan)
                elapsed = time.perf_counter() - t0
            best = min(best, elapsed)
        out_samples = sum(t.shape[0] for t, _ in results.values())
        return {
            "samples": total,
            "derived_samples": out_samples,
            "outputs": len(results),
            "seconds": best,
            "rate_per_sec": total / best,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_incremental(
    total: int, batch: int = BATCH, query: str = ARITH_QUERY
) -> Dict[str, float]:
    """The same query consumed as a live tap in ``batch``-sized pushes."""
    root = Path(tempfile.mkdtemp(prefix="bench_query_"))
    try:
        build_store(root / "store", total)
        with CaptureReader(root / "store") as reader:
            # Copies: block columns are views into the reader's mapping.
            blocks = [
                (block.name, block.times.copy(), block.values.copy())
                for _, block in reader.iter_blocks()
            ]
        live = LiveQuery(query)
        derived = 0

        def count(name, times, values) -> None:
            nonlocal derived
            derived += times.shape[0]

        live.on_output(count)
        t0 = time.perf_counter()
        for name, times, values in blocks:
            live(name, times, values, 0.0)
        live.finish()
        elapsed = time.perf_counter() - t0
        return {
            "samples": total,
            "derived_samples": derived,
            "batches": len(blocks),
            "seconds": elapsed,
            "rate_per_sec": total / elapsed,
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


def bench_fanout(
    subscribers: int,
    total: int = FANOUT_SAMPLES,
    batch: int = FANOUT_BATCH,
) -> Dict[str, float]:
    """X12e: one shared derived view fanned to N wire subscribers.

    Subscribers are raw injected sessions — HELLO + QUERY + SUBSCRIBE
    bytes, never read back — so the measured wall time is the server's
    ingest + single shared evaluation + encode-once fan-out, not N
    client-side decoders.  The driving client's frames are pre-encoded
    outside the timing for the same reason.
    """
    from repro.core.manager import ScopeManager
    from repro.core.signal import buffer_signal
    from repro.eventloop.loop import MainLoop
    from repro.net import ScopeServer, memory_pair
    from repro.net.protocol import (
        encode_binary_samples,
        encode_hello,
        encode_name_def,
        encode_query,
    )

    loop = MainLoop()
    manager = ScopeManager(loop)
    scope = manager.scope_new("rig", delay_ms=1e12)
    scope.signal_new(buffer_signal("src"))
    server = ScopeServer(loop, manager)

    preamble = (
        encode_hello()
        + encode_query({"op": "query", "id": "q", "text": FANOUT_QUERY})
        + encode_query({"op": "subscribe", "id": "q"})
    )
    for _ in range(subscribers):
        near, far = memory_pair(loop.clock)
        server.add_client(far)
        near.send(preamble)
    loop.run_for(50.0)
    assert server.queries.stats()["subscribers"] == subscribers
    assert len(server.queries.shared_queries()) == 1  # one evaluation

    source, far = memory_pair(loop.clock)
    server.add_client(far)
    source.send(encode_hello() + encode_name_def(0, "src"))
    loop.run_for(10.0)

    rng = np.random.default_rng(12)
    frames = []
    now = 100.0
    sent = 0
    while sent < total:
        n = min(batch, total - sent)
        times = np.linspace(now, now + 1.0, n, endpoint=False)
        frames.append(encode_binary_samples(0, times, rng.standard_normal(n)))
        now += 1.0
        sent += n

    # Collect the previous rig's cyclic garbage (loop/sources/links)
    # now, not inside the timed window.
    gc.collect()
    t0 = time.perf_counter()
    for frame in frames:
        source.send(frame)
        loop.run_for(1.0)
    elapsed = time.perf_counter() - t0
    fanned = server.queries.stats()["samples_fanned"]
    assert fanned == total * subscribers
    return {
        "subscribers": subscribers,
        "samples": total,
        "fanned_samples": fanned,
        "seconds": elapsed,
        "rate_per_sec": total / elapsed,
    }


def fanout_marginal(
    attempts: int = 3,
    subscribers: int = 1000,
    total: int = FANOUT_SAMPLES,
    batch: int = FANOUT_BATCH,
) -> Tuple[list, float]:
    """Paired 1-vs-N-subscriber runs; returns (runs, best marginal cost).

    The marginal cost is the wall time one more subscriber adds per
    fanned batch, ``(t_N - t_1) / ((N - 1) * batches)``, in µs.  Unlike
    the N-over-1 wall-time ratio it does not rise when the shared
    ingest and evaluation path gets faster.  Scheduling noise on a
    shared machine only ever *inflates* one side of a wall-clock pair,
    so the minimum across paired attempts is the faithful estimate —
    the same reasoning as best-of-N for a single rate.  One untimed rig
    runs first: the first rig's timed window pays one-time loads, which
    would inflate the first ``t_1`` and drag the minimum below zero.
    """
    batches = -(-total // batch)
    bench_fanout(1, total, batch)
    runs = []
    best = float("inf")
    for _ in range(attempts):
        single = bench_fanout(1, total, batch)
        many = bench_fanout(subscribers, total, batch)
        runs.append((single, many))
        extra = many["seconds"] - single["seconds"]
        best = min(best, extra / ((subscribers - 1) * batches) * 1e6)
    return runs, best


def run_suite(total: int) -> dict:
    from repro.core import native

    arith = bench_batch(total)
    pipeline = bench_batch(total, PIPELINE_QUERY)
    incremental = bench_incremental(total)
    fused_map = bench_batch(total, FUSED_MAP_QUERY, signals=("a",))
    fused_state = bench_batch(total, FUSED_STATE_QUERY, signals=("a",))
    fanout = {str(n): bench_fanout(n) for n in (1, 10, 100, 1000)}
    _, fanout["marginal_us_1k"] = fanout_marginal(attempts=2)
    return {
        "benchmark": "query",
        "backend": native.mode(),
        "acceptance": {
            "min_arith_rate_per_sec": ACCEPTANCE_ARITH_RATE,
            "max_fanout_marginal_us": ACCEPTANCE_FANOUT_MARGINAL_US,
        },
        "arith": arith,
        "pipeline": pipeline,
        "incremental": incremental,
        "fused_map": fused_map,
        "fused_state": fused_state,
        "fanout": fanout,
    }


# ----------------------------------------------------------------------
# pytest entry points
# ----------------------------------------------------------------------
def test_batch_arith_throughput():
    result = bench_batch(TOTAL_SAMPLES)
    report(
        f"X12a: batch 2-op arithmetic query ({result['samples']} samples)",
        [
            ("query", ARITH_QUERY),
            ("rate", f"{result['rate_per_sec']:,.0f} samples/s "
                     f"(acceptance >= {ACCEPTANCE_ARITH_RATE:,.0f})"),
            ("derived", f"{result['derived_samples']}"),
        ],
    )
    assert result["rate_per_sec"] >= ACCEPTANCE_ARITH_RATE


def test_batch_pipeline_throughput():
    result = bench_batch(TOTAL_SAMPLES, PIPELINE_QUERY)
    report(
        f"X12b: batch mixed pipeline ({result['samples']} samples, "
        f"{result['outputs']} outputs)",
        [("rate", f"{result['rate_per_sec']:,.0f} samples/s"),
         ("derived", f"{result['derived_samples']}")],
    )
    assert result["rate_per_sec"] > 0


def test_incremental_throughput():
    result = bench_incremental(QUICK_SAMPLES)
    report(
        f"X12c: incremental tap feed ({result['samples']} samples, "
        f"batches of {BATCH})",
        [("rate", f"{result['rate_per_sec']:,.0f} samples/s"),
         ("derived", f"{result['derived_samples']}")],
    )
    assert result["rate_per_sec"] > 0


def test_fused_elementwise_throughput():
    from repro.core import native

    result = bench_batch(TOTAL_SAMPLES, FUSED_MAP_QUERY, signals=("a",))
    report(
        f"X12d: fused elementwise chain ({result['samples']} samples, "
        f"backend {native.mode()})",
        [("query", FUSED_MAP_QUERY),
         ("rate", f"{result['rate_per_sec']:,.0f} samples/s"),
         ("derived", f"{result['derived_samples']}")],
    )
    assert result["rate_per_sec"] > 0


def test_fused_stateful_throughput():
    from repro.core import native

    result = bench_batch(TOTAL_SAMPLES, FUSED_STATE_QUERY, signals=("a",))
    report(
        f"X12d: fused stateful chain ({result['samples']} samples, "
        f"backend {native.mode()})",
        [("query", FUSED_STATE_QUERY),
         ("rate", f"{result['rate_per_sec']:,.0f} samples/s"),
         ("derived", f"{result['derived_samples']}")],
    )
    assert result["rate_per_sec"] > 0


def test_fanout_subscriber_scaling():
    results = {n: bench_fanout(n) for n in (10, 100)}
    runs, marginal = fanout_marginal()
    base = min(single["seconds"] for single, _ in runs)
    results[1] = min((s for s, _ in runs), key=lambda r: r["seconds"])
    results[1000] = min((m for _, m in runs), key=lambda r: r["seconds"])
    report(
        f"X12e: subscriber fan-out, one shared view "
        f"({FANOUT_SAMPLES} samples, {FANOUT_BATCH}/frame)",
        [("query", FANOUT_QUERY)]
        + [
            (f"{n} subs", f"{r['seconds']*1e3:8.1f} ms  "
                          f"({r['seconds']/base:4.2f}x, "
                          f"{r['fanned_samples']:>13,} fanned)")
            for n, r in sorted(results.items())
        ]
        + [("marginal", f"{marginal:.2f} µs per subscriber per batch, paired "
                        f"best-of-{len(runs)} (acceptance < "
                        f"{ACCEPTANCE_FANOUT_MARGINAL_US:.0f} µs)")],
    )
    assert marginal < ACCEPTANCE_FANOUT_MARGINAL_US


# ----------------------------------------------------------------------
# stand-alone JSON mode
# ----------------------------------------------------------------------
def main(argv) -> int:
    quick = "--quick" in argv
    out_path: Optional[str] = None
    if "--json" in argv:
        out_path = argv[argv.index("--json") + 1]
    total = QUICK_SAMPLES if quick else TOTAL_SAMPLES
    result = run_suite(total)
    result["mode"] = "quick" if quick else "full"
    text = json.dumps(result, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    print(text)
    return 0 if result["arith"]["rate_per_sec"] >= ACCEPTANCE_ARITH_RATE else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
