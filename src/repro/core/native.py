"""Native-code seam: compile generated C once, load it through ctypes.

The query engine's fused kernels (:mod:`repro.query.kernels`) generate
small C translation units — one per fused-chain signature — and hand
them here.  This module owns the *mechanism* only:

* **compiler detection** — ``cc`` (or ``$CC``) probed once at first
  use; a toolchain-less install simply reports no native backend and
  every caller falls back to its numpy path;
* **build cache** — each source is compiled at most once per
  interpreter lifetime *and* at most once per machine: shared objects
  land in a per-user cache directory keyed by the SHA-256 of the
  source text, so a warm cache loads without invoking the compiler;
* **strict float semantics** — kernels are compiled with
  ``-fno-fast-math -ffp-contract=off``, which forbids FMA contraction
  and reassociation.  Byte-identical results against the numpy oracle
  are only possible because both sides execute the same IEEE-754
  double operations in the same order.

Backend selection is environment-driven and resolved once:

* ``REPRO_NATIVE=0``  — numpy only; no fusion, no compiled kernels.
* unset / ``1`` / ``c`` — generated C when a compiler exists, else
  numpy.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Dict, Optional, Sequence, Tuple

__all__ = [
    "available",
    "build",
    "compiler",
    "mode",
    "reset",
]

#: Flags every kernel is compiled with.  ``-ffp-contract=off`` and
#: ``-fno-fast-math`` are load-bearing: they pin the generated code to
#: the exact IEEE double operations the numpy oracle performs.
CFLAGS = [
    "-O2",
    "-fPIC",
    "-shared",
    "-fno-fast-math",
    "-ffp-contract=off",
]

_lock = threading.Lock()
_compiler: Optional[str] = None
_compiler_probed = False
_mode: Optional[str] = None
_libs: Dict[str, Optional[ctypes.CDLL]] = {}
_build_errors: Dict[str, str] = {}


def compiler() -> Optional[str]:
    """Path of the C compiler, or None when the machine has none."""
    global _compiler, _compiler_probed
    if not _compiler_probed:
        _compiler = shutil.which(os.environ.get("CC", "") or "cc") or shutil.which(
            "gcc"
        )
        _compiler_probed = True
    return _compiler


def _resolve_mode() -> str:
    raw = os.environ.get("REPRO_NATIVE", "").strip().lower()
    if raw in ("0", "off", "numpy"):
        return "numpy"
    # "", "1", "c", "auto", anything else: C if a compiler exists.
    return "c" if compiler() is not None else "numpy"


def mode() -> str:
    """Resolved backend: ``"c"`` or ``"numpy"``.

    Read from ``REPRO_NATIVE`` once and cached; tests changing the
    environment call :func:`reset`.
    """
    global _mode
    if _mode is None:
        _mode = _resolve_mode()
    return _mode


def available() -> bool:
    """True when the compiled (C) backend is active."""
    return mode() != "numpy"


def fusion_enabled() -> bool:
    """Whether the compiler should run its fusion pass by default.

    ``REPRO_NATIVE=0`` restores the pure per-operator numpy plan
    everywhere; any other setting keeps fusion on — even the numpy
    interpretation of a fused chain skips per-operator dispatch.
    """
    return mode() != "numpy" or os.environ.get(
        "REPRO_NATIVE", ""
    ).strip().lower() not in ("0", "off", "numpy")


def reset() -> None:
    """Forget cached mode/compiler/library state (test hook).

    Compiled shared objects stay on disk — only the in-process caches
    are dropped, so the next call re-reads the environment.
    """
    global _mode, _compiler_probed, _compiler
    with _lock:
        _mode = None
        _compiler_probed = False
        _compiler = None
        _libs.clear()
        _build_errors.clear()


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_NATIVE_CACHE")
    if override:
        path = Path(override)
    else:
        path = Path(tempfile.gettempdir()) / f"repro-native-{os.getuid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def build_error(tag: str) -> Optional[str]:
    """The failure that disabled native for ``tag``, if any."""
    return _build_errors.get(tag)


def build(
    source: str, tag: str, ldflags: Sequence[str] = ()
) -> Optional[ctypes.CDLL]:
    """Compile ``source`` (a C translation unit) and load it.

    Returns the loaded library, or None when no compiler is present or
    the build fails — callers must treat None as "use the numpy path".
    Results (including failures) are cached per source hash, so a
    broken toolchain costs one attempt, not one per query.  ``ldflags``
    (e.g. ``("-lz",)``) participate in the cache key: the same source
    linked differently is a different artifact.
    """
    digest = hashlib.sha256(
        "\x00".join((source, *ldflags)).encode("utf-8")
    ).hexdigest()[:16]
    key = f"{tag}-{digest}"
    with _lock:
        if key in _libs:
            return _libs[key]
        lib = _build_locked(source, tag, key, tuple(ldflags))
        _libs[key] = lib
        return lib


def _build_locked(
    source: str, tag: str, key: str, ldflags: Tuple[str, ...]
) -> Optional[ctypes.CDLL]:
    if mode() != "c":
        return None
    cc = compiler()
    if cc is None:  # pragma: no cover - mode() == "c" implies a compiler
        return None
    cache = _cache_dir()
    lib_path = cache / f"lib{key}.so"
    if not lib_path.exists():
        src_path = cache / f"{key}.c"
        tmp_path = cache / f".{key}.{os.getpid()}.so"
        try:
            src_path.write_text(source)
            subprocess.run(
                [cc, *CFLAGS, "-o", str(tmp_path), str(src_path), *ldflags],
                check=True,
                capture_output=True,
                timeout=120,
            )
            os.replace(tmp_path, lib_path)  # atomic: racers see whole files
        except (OSError, subprocess.SubprocessError) as exc:
            detail = ""
            if isinstance(exc, subprocess.CalledProcessError) and exc.stderr:
                detail = f": {exc.stderr.decode('utf-8', 'replace')[:500]}"
            _build_errors[tag] = f"{type(exc).__name__}{detail or f': {exc}'}"
            try:
                tmp_path.unlink(missing_ok=True)
            except OSError:
                pass
            return None
    try:
        return ctypes.CDLL(str(lib_path))
    except OSError as exc:
        _build_errors[tag] = f"dlopen failed: {exc}"
        return None
