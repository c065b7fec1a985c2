"""Fixtures shared by the suites."""

import pytest

from repro.core import checksum, native


@pytest.fixture(params=["native", "zlib"])
def checksum_backend(request, monkeypatch):
    """Run a test on the native checksum kernel, then under
    ``REPRO_NATIVE=0`` (zlib computes every checksum)."""
    if request.param == "zlib":
        monkeypatch.setenv("REPRO_NATIVE", "0")
    else:
        monkeypatch.delenv("REPRO_NATIVE", raising=False)
    native.reset()
    checksum.reset()
    if request.param == "native" and checksum._native() is None:
        pytest.skip("no native checksum kernel on this machine")
    yield request.param
    native.reset()
    checksum.reset()
