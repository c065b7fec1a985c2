"""Every regression gate's measurement runs once, at toy size.

``benchmarks/check_regression.py`` and the ``bench_*`` modules run only
on request (``REPRO_BENCH=1``), so an API change could break a gate or
a benchmark and no tier-1 test would notice — one gate stayed dead that
way for several changes.  This suite imports every ``bench_*`` module,
runs each gate's bench function once on a toy input, and runs the
capture reader's seek and replay benchmarks once.  No timing is
asserted.
"""

import importlib
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"


@pytest.fixture(scope="module")
def gates():
    """``check_regression``, imported the way its script run does: with
    ``benchmarks/`` (and its ``conftest``) first on the import path."""
    saved = sys.modules.pop("conftest", None)
    sys.path.insert(0, str(BENCHMARKS))
    try:
        yield importlib.import_module("check_regression")
    finally:
        sys.path.remove(str(BENCHMARKS))
        sys.modules.pop("conftest", None)
        if saved is not None:
            sys.modules["conftest"] = saved


@pytest.mark.parametrize("module", sorted(p.stem for p in BENCHMARKS.glob("bench_*.py")))
def test_bench_module_imports(gates, module):
    importlib.import_module(module)


def test_dispatch(gates):
    from repro.eventloop.loop import MainLoop

    assert gates.bench_dispatch(MainLoop, 20, 200)["rate_per_sec"] > 0


def test_wire(gates):
    assert gates.bench_wire("binary", 4096)["samples"] == 4096


def test_wire_socket(gates):
    """X10b: a real socketpair, pumped as the client sends."""
    result = gates.bench_wire("binary", 4096, transport="socket")
    assert result["samples"] == 4096


def test_wire_sharded(gates):
    """X10c: 16 signals into 4 in-process shards."""
    assert gates.bench_wire("binary", 4096, signals=16, shards=4)["samples"] == 4096


def test_capture_write(gates):
    assert gates.bench_write(4000)["samples"] == 4000


def test_capture_seek(gates):
    from bench_capture import bench_seek

    assert bench_seek(20_000, 200)["seeks"] == 200


def test_capture_replay(gates):
    from bench_capture import bench_replay

    assert bench_replay(20_000)["samples"] == 20_000


def test_batch_query(gates):
    assert gates.bench_batch(4000)["rate_per_sec"] > 0


def test_recovery(gates):
    assert gates.bench_recovery(2048)["samples"] > 0


def test_fanout(gates):
    from bench_query import bench_fanout

    assert bench_fanout(2, 4096, 1024)["fanned_samples"] == 2 * 4096


def test_fanout_marginal(gates):
    ((single, many),), marginal = gates.fanout_marginal(1, 2, 4096, 1024)
    assert many["fanned_samples"] == 2 * 4096
    # One extra subscriber over four batches.
    extra = many["seconds"] - single["seconds"]
    assert marginal == pytest.approx(extra / 4 * 1e6)


def test_process_ingest(gates):
    result = gates.bench_process_ingest(1, total_samples=2048)
    assert result["samples"] == 2048


def test_obs_overhead(gates):
    from bench_obs import ingest_overhead

    assert ingest_overhead(attempts=1)["ratio"] > 0
