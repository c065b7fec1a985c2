"""Every regression gate's measurement runs once, at toy size.

``benchmarks/check_regression.py`` and the six ``bench_*`` modules it
imports run only on request (``REPRO_BENCH=1``), so an API change could
break a gate and no tier-1 test would notice — one gate stayed dead
that way for several changes.  This suite imports them all and runs each
gate's bench function once on a toy input.  No timing is asserted.
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


def test_dispatch(gates):
    from repro.eventloop.loop import MainLoop

    assert gates.bench_dispatch(MainLoop, 20, 200)["rate_per_sec"] > 0


def test_wire(gates):
    assert gates.bench_wire("binary", 4096)["samples"] == 4096


def test_capture_write(gates):
    assert gates.bench_write(4000)["samples"] == 4000


def test_batch_query(gates):
    assert gates.bench_batch(4000)["rate_per_sec"] > 0


def test_recovery(gates):
    assert gates.bench_recovery(2048)["samples"] > 0


def test_fanout(gates):
    from bench_query import bench_fanout

    assert bench_fanout(2, 4096, 1024)["fanned_samples"] == 2 * 4096


def test_process_ingest(gates):
    result = gates.bench_process_ingest(1, total_samples=2048)
    assert result["samples"] == 2048


def test_obs_overhead(gates):
    from bench_obs import ingest_overhead

    assert ingest_overhead(attempts=1)["ratio"] > 0
