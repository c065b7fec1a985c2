"""Single-pass fused kernels: generated C behind ctypes.

The compiler's fusion pass (:func:`repro.query.compile.fuse_plan`)
collapses maximal chains of elementwise and simple stateful operators
into one ``fused`` plan node; this module executes those nodes in a
single pass over each batch.  Two backends, the C one winning when the
machine has a compiler (see :mod:`repro.core.native` for the
``REPRO_NATIVE`` gate):

* **generated C** — one tiny translation unit per fused-chain
  *signature* (the sequence of step shapes, constants excluded),
  compiled once through the :mod:`repro.core.native` seam and cached
  on disk, so ``x*2`` and ``x*3`` share a kernel and a warm cache
  never invokes the compiler;
* **numpy** — no kernel at all: the fused node falls back to running
  the original per-operator numpy chain (see
  :class:`repro.query.ops.FusedOp`), which is also the always-on
  oracle every kernel must match byte for byte.

Byte-identity is engineered, not hoped for: kernels are compiled with
``-fno-fast-math -ffp-contract=off`` so every step performs exactly
the IEEE-754 double operations of its numpy counterpart, in the same
order — including numpy's NaN rules (``minimum``/``maximum`` propagate
via ``(a OP b || a != a) ? a : b``; comparisons yield 0.0 on NaN;
``clip`` keeps ``-0.0`` and lets NaN through) and scipy's one-pole
``lfilter`` recursion for ``ewma`` (commutes bit-for-bit with
``a*y + (1-a)*x``).

Beyond fused chains, the shared *support* library carries the other
hot-loop kernels of the data path: the two-pointer sample-and-hold
**join merge** (replacing sort + two ``searchsorted`` gathers), the
**strict-monotonicity probe** used by source operators, and the plain
**block gather** that :meth:`repro.capture.reader.Segment.gather` falls
back to when the checksum kernel (:mod:`repro.core.checksum`, which
verifies and gathers in one pass) did not build.  All of them degrade
to numpy when no native backend exists.
"""

from __future__ import annotations

import ctypes
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core import native
from repro.query.errors import QueryError

__all__ = [
    "FUSABLE_OPS",
    "FusedKernel",
    "JoinKernel",
    "fusable_steps",
    "gather_blocks",
    "get_fused",
    "is_elementwise",
    "join_kernel",
    "monotone_strict",
    "params_vector",
    "signature_of",
    "state_size",
]

#: Operator kinds the fusion pass may collapse into one kernel.  Joins,
#: windows, resampling and edge detection are *barriers*: they change
#: the timeline (or need cross-input alignment) and always stay their
#: own nodes.
FUSABLE_OPS = frozenset({"map1", "maps", "clip", "ewma", "rate", "delta"})

Step = Tuple[str, Tuple]

_C_LL = ctypes.c_longlong
_C_D = ctypes.c_double
_C_P = ctypes.c_void_p


# ----------------------------------------------------------------------
# Step model: signature, params, state
# ----------------------------------------------------------------------
def fusable_steps(steps: Sequence[Step]) -> bool:
    """True when every step can live inside one fused kernel.

    A ``clip`` with a non-finite bound is excluded: numpy's compound
    NaN-bound behaviour has no single-comparison equivalent, so such a
    node stays a standalone :class:`~repro.query.ops.ClipOp`.
    """
    import math

    for op, params in steps:
        if op not in FUSABLE_OPS:
            return False
        if op == "clip" and not (
            math.isfinite(params[0]) and math.isfinite(params[1])
        ):
            return False
    return True


def signature_of(steps: Sequence[Step]) -> Tuple:
    """Shape key of a chain: step kinds and flags, constants excluded."""
    sig: List[Tuple] = []
    for op, params in steps:
        if op == "map1":
            sig.append(("map1", params[0]))
        elif op == "maps":
            sig.append(("maps", params[0], bool(params[2])))
        else:
            sig.append((op,))
    return tuple(sig)


def params_vector(steps: Sequence[Step]) -> np.ndarray:
    """The chain's constants, flattened in step order."""
    flat: List[float] = []
    for op, params in steps:
        if op == "maps":
            flat.append(float(params[1]))
        elif op == "clip":
            flat.extend((float(params[0]), float(params[1])))
        elif op == "ewma":
            flat.append(float(params[0]))
    return np.asarray(flat, dtype=np.float64)


def state_size(steps: Sequence[Step]) -> int:
    """Doubles of cross-batch state the chain carries."""
    total = 0
    for op, _ in steps:
        if op == "ewma":
            total += 2  # has, y
        elif op in ("rate", "delta"):
            total += 3  # has, t_prev, v_prev
    return total


def is_elementwise(steps: Sequence[Step]) -> bool:
    """True when the chain keeps the input timeline sample for sample.

    Only ``rate``/``delta`` swallow a sample (their seed); every other
    fusable step is 1:1, so the kernel can skip the times column
    entirely and the operator passes the input times through zero-copy.
    """
    return not any(op in ("rate", "delta") for op, _ in steps)


# ----------------------------------------------------------------------
# Codegen: each step emitted as C
# ----------------------------------------------------------------------
_CMP_C = {"lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!="}


def _binary_expr(fn: str, a: str, b: str) -> str:
    """The elementwise combine, mirroring numpy's exact semantics."""
    if fn == "add":
        return f"{a} + {b}"
    if fn == "sub":
        return f"{a} - {b}"
    if fn == "mul":
        return f"{a} * {b}"
    if fn == "div":
        return f"{a} / {b}"
    if fn == "min":
        return f"((({a} < {b}) || ({a} != {a})) ? ({a}) : ({b}))"
    if fn == "max":
        return f"((({a} > {b}) || ({a} != {a})) ? ({a}) : ({b}))"
    return f"(({a} {_CMP_C[fn]} {b}) ? 1.0 : 0.0)"


def _emit_steps(steps: Sequence[Step]) -> Tuple[List[str], List[str], List[str]]:
    """Generate (state_loads, loop_body, state_stores) for one chain.

    The loop body manipulates locals ``t`` and ``v``; a step that
    swallows the current sample (a rate/delta seed) issues ``continue``.
    ``p`` is the constants vector, ``state`` the cross-batch state.
    """
    loads: List[str] = []
    body: List[str] = []
    stores: List[str] = []
    k = 0  # params cursor
    s = 0  # state cursor
    for index, (op, params) in enumerate(steps):
        if op == "map1":
            body.append("v = fabs(v);" if params[0] == "abs" else "v = -v;")
        elif op == "maps":
            fn, on_left = params[0], params[2]
            sname = f"c{index}"
            loads.append(f"double {sname} = p[{k}];")
            expr = (
                _binary_expr(fn, sname, "v")
                if on_left
                else _binary_expr(fn, "v", sname)
            )
            body.append(f"v = {expr};")
            k += 1
        elif op == "clip":
            lo, hi = f"lo{index}", f"hi{index}"
            loads.append(f"double {lo} = p[{k}];")
            loads.append(f"double {hi} = p[{k + 1}];")
            body.append(f"if (v < {lo}) v = {lo};")
            body.append(f"if (v > {hi}) v = {hi};")
            k += 2
        elif op == "ewma":
            al, has, y = f"al{index}", f"has{index}", f"y{index}"
            loads.append(f"double {al} = p[{k}];")
            loads.append(f"double {has} = state[{s}];")
            loads.append(f"double {y} = state[{s + 1}];")
            body.append(f"if (!isfinite(v)) return -(i + 1);")
            body.append(f"if ({has} == 0.0) {{ {has} = 1.0; {y} = v; }}")
            body.append(
                f"else if ({al} != 0.0 && {al} != 1.0) "
                f"{y} = {al} * {y} + (1.0 - {al}) * v;"
            )
            body.append(f"else if ({al} == 0.0) {y} = v;")
            body.append(f"v = {y};")
            stores.append(f"state[{s}] = {has};")
            stores.append(f"state[{s + 1}] = {y};")
            k += 1
            s += 2
        elif op in ("rate", "delta"):
            has, tp, vp = f"has{index}", f"tp{index}", f"vp{index}"
            loads.append(f"double {has} = state[{s}];")
            loads.append(f"double {tp} = state[{s + 1}];")
            loads.append(f"double {vp} = state[{s + 2}];")
            body.append(
                f"if ({has} == 0.0) {{ {has} = 1.0; {tp} = t; {vp} = v; continue; }}"
            )
            body.append(f"double dt{index} = t - {tp};")
            body.append(f"double dv{index} = v - {vp};")
            body.append(f"{tp} = t; {vp} = v;")
            if op == "rate":
                body.append(f"v = dv{index} / (dt{index} / 1000.0);")
            else:
                body.append(f"v = dv{index};")
            stores.append(f"state[{s}] = {has};")
            stores.append(f"state[{s + 1}] = {tp};")
            stores.append(f"state[{s + 2}] = {vp};")
            s += 3
        else:  # pragma: no cover - fusable_steps() guards this
            raise ValueError(f"cannot fuse operator {op!r}")
    return loads, body, stores


def _c_source(steps: Sequence[Step]) -> str:
    loads, body, stores = _emit_steps(steps)
    body_text = "\n        ".join(body)
    load_text = "\n".join("    " + line for line in loads).lstrip()
    store_text = "\n".join("    " + line for line in stores).lstrip()
    if is_elementwise(steps):
        # 1:1 chain: no times column at all — the caller reuses the
        # input times array, so the kernel touches half the memory.
        return f"""\
#include <math.h>

long long fused_map(long long n, const double* v_in, double* v_out,
                    const double* p, double* state)
{{
    {load_text}
    for (long long i = 0; i < n; i++) {{
        double v = v_in[i];
        {body_text}
        v_out[i] = v;
    }}
    {store_text}
    return n;
}}
"""
    return f"""\
#include <math.h>

long long fused_run(long long n, const double* t_in, const double* v_in,
                    double* t_out, double* v_out,
                    const double* p, double* state)
{{
    {load_text}
    long long m = 0;
    for (long long i = 0; i < n; i++) {{
        double t = t_in[i];
        double v = v_in[i];
        {body_text}
        t_out[m] = t;
        v_out[m] = v;
        m++;
    }}
    {store_text}
    return m;
}}
"""


# ----------------------------------------------------------------------
# Fused-chain kernel
# ----------------------------------------------------------------------
class FusedKernel:
    """One compiled single-pass kernel for a fused-chain signature.

    ``run`` consumes a batch and returns the emitted ``(times, values)``
    columns; cross-batch state lives in the caller-owned ``state``
    vector (see :func:`state_size`), so one kernel object is shared by
    every runtime instance of the same signature.
    """

    #: Reported by ``Plan.explain`` (``fused[c]``).
    backend = "c"

    def __init__(self, signature: Tuple, fn, elementwise: bool = False) -> None:
        self.signature = signature
        self.elementwise = elementwise
        self._fn = fn

    def run(
        self,
        times: np.ndarray,
        values: np.ndarray,
        params: np.ndarray,
        state: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        n = times.shape[0]
        if not values.flags.c_contiguous:
            values = np.ascontiguousarray(values)
        if self.elementwise:
            # 1:1 chain: the input times flow through untouched
            # (zero-copy); only a fresh values column is written.
            out_v = np.empty(n, dtype=np.float64)
            m = self._fn(
                n, values.ctypes.data, out_v.ctypes.data,
                params.ctypes.data, state.ctypes.data,
            )
            if m < 0:
                raise QueryError(
                    f"ewma input is not finite (batch sample {-int(m) - 1})"
                )
            return times, out_v
        out_t = np.empty(n, dtype=np.float64)
        out_v = np.empty(n, dtype=np.float64)
        if not times.flags.c_contiguous:
            times = np.ascontiguousarray(times)
        m = self._fn(
            n,
            times.ctypes.data,
            values.ctypes.data,
            out_t.ctypes.data,
            out_v.ctypes.data,
            params.ctypes.data,
            state.ctypes.data,
        )
        if m < 0:
            raise QueryError(
                f"ewma input is not finite (batch sample {-int(m) - 1})"
            )
        return out_t[:m], out_v[:m]


_fused_cache: Dict[Tuple, Optional[FusedKernel]] = {}


def get_fused(steps: Sequence[Step]) -> Optional[FusedKernel]:
    """The compiled kernel for ``steps``, or None (use the numpy chain).

    Kernels are cached per signature; constants travel in the params
    vector at run time, so structurally identical chains share one
    compilation.
    """
    if native.mode() == "numpy" or not fusable_steps(steps):
        return None
    sig = signature_of(steps)
    if sig in _fused_cache:
        return _fused_cache[sig]
    kernel: Optional[FusedKernel] = None
    elementwise = is_elementwise(steps)
    if native.mode() == "c":
        lib = native.build(_c_source(steps), "fused")
        if lib is not None:
            if elementwise:
                fn = lib.fused_map
                fn.restype = _C_LL
                fn.argtypes = [_C_LL, _C_P, _C_P, _C_P, _C_P]
            else:
                fn = lib.fused_run
                fn.restype = _C_LL
                fn.argtypes = [_C_LL, _C_P, _C_P, _C_P, _C_P, _C_P, _C_P]
            kernel = FusedKernel(sig, fn, elementwise)
    _fused_cache[sig] = kernel
    return kernel


# ----------------------------------------------------------------------
# Support library: join merge, monotone probe, block gather
# ----------------------------------------------------------------------
_JOIN_FNS = ("add", "sub", "mul", "div", "min", "max", "lt", "le", "gt", "ge", "eq", "ne")


def _join_c(fn: str) -> str:
    expr = _binary_expr(fn, "hold0", "hold1")
    expr_l = _binary_expr(fn, "v0[q]", "hold1")
    expr_r = _binary_expr(fn, "hold0", "v1[q]")
    return f"""\
long long join_{fn}(long long n0, const double* t0, const double* v0,
                    long long n1, const double* t1, const double* v1,
                    double* state, double* out_t, double* out_v)
{{
    double has0 = state[0], hold0 = state[1];
    double has1 = state[2], hold1 = state[3];
    long long i = 0, j = 0, m = 0;
    while (i < n0 || j < n1) {{
        if (has0 != 0.0 && has1 != 0.0) {{
            /* Steady state: both holds primed.  Consume a maximal run
               of one side strictly below the other side's head in one
               go — memcpy the timestamps and combine against the
               constant opposite hold in a tight vectorizable loop —
               instead of one branchy step per sample.  Batched pushes
               make long runs the common case; perfectly interleaved
               streams degrade to runs of one, i.e. the scalar merge. */
            if (i < n0 && (j >= n1 || t0[i] < t1[j])) {{
                long long k;
                if (j >= n1) k = n0;
                else {{ k = i + 1; while (k < n0 && t0[k] < t1[j]) k++; }}
                if (k - i < 16) {{  /* interleaved: memcpy call costs more */
                    for (long long q = i; q < k; q++) {{
                        out_t[m + (q - i)] = t0[q];
                        out_v[m + (q - i)] = {expr_l};
                    }}
                }} else {{
                    memcpy(out_t + m, t0 + i, (size_t)(8 * (k - i)));
                    for (long long q = i; q < k; q++)
                        out_v[m + (q - i)] = {expr_l};
                }}
                m += k - i; hold0 = v0[k - 1]; i = k;
            }} else if (j < n1 && (i >= n0 || t1[j] < t0[i])) {{
                long long k;
                if (i >= n0) k = n1;
                else {{ k = j + 1; while (k < n1 && t1[k] < t0[i]) k++; }}
                if (k - j < 16) {{
                    for (long long q = j; q < k; q++) {{
                        out_t[m + (q - j)] = t1[q];
                        out_v[m + (q - j)] = {expr_r};
                    }}
                }} else {{
                    memcpy(out_t + m, t1 + j, (size_t)(8 * (k - j)));
                    for (long long q = j; q < k; q++)
                        out_v[m + (q - j)] = {expr_r};
                }}
                m += k - j; hold1 = v1[k - 1]; j = k;
            }} else {{ /* tie: both streams sample this instant */
                hold0 = v0[i]; hold1 = v1[j];
                out_t[m] = t0[i];
                out_v[m] = {expr};
                m++; i++; j++;
            }}
            continue;
        }}
        /* One side never seen: no output is possible, only the other
           hold advances — swallow the whole batch remainder at once. */
        if (j >= n1 && has1 == 0.0) {{
            hold0 = v0[n0 - 1]; has0 = 1.0; i = n0; continue;
        }}
        if (i >= n0 && has0 == 0.0) {{
            hold1 = v1[n1 - 1]; has1 = 1.0; j = n1; continue;
        }}
        /* Warm-up: scalar sample-and-hold step until both sides prime. */
        double tm;
        if (j >= n1) tm = t0[i];
        else if (i >= n0) tm = t1[j];
        else tm = (t0[i] < t1[j]) ? t0[i] : t1[j];
        if (i < n0 && t0[i] == tm) {{ hold0 = v0[i]; has0 = 1.0; i++; }}
        if (j < n1 && t1[j] == tm) {{ hold1 = v1[j]; has1 = 1.0; j++; }}
        if (has0 != 0.0 && has1 != 0.0) {{
            out_t[m] = tm;
            out_v[m] = {expr};
            m++;
        }}
    }}
    state[0] = has0; state[1] = hold0;
    state[2] = has1; state[3] = hold1;
    return m;
}}
"""


_SUPPORT_SOURCE = (
    "#include <math.h>\n#include <string.h>\n\n"
    + "\n".join(_join_c(fn) for fn in _JOIN_FNS)
    + """
long long monotone_strict(long long n, const double* t, double last)
{
    if (n == 0) return 1;
    if (!(t[0] > last)) return 0;
    for (long long i = 1; i < n; i++)
        if (!(t[i] > t[i - 1])) return 0;
    return 1;
}

long long gather_blocks(const char* base, const long long* offsets,
                        const long long* counts, long long nblocks,
                        double* out_t, double* out_v)
{
    long long cur = 0;
    for (long long b = 0; b < nblocks; b++) {
        long long c = counts[b];
        memcpy((char*)(out_t + cur), base + offsets[b], (size_t)(8 * c));
        memcpy((char*)(out_v + cur), base + offsets[b] + 8 * c, (size_t)(8 * c));
        cur += c;
    }
    return cur;
}
"""
)

_support_lib: Optional[ctypes.CDLL] = None
_support_tried = False


def _support() -> Optional[ctypes.CDLL]:
    global _support_lib, _support_tried
    if not _support_tried:
        _support_tried = True
        if native.mode() == "c":
            lib = native.build(_SUPPORT_SOURCE, "support")
            if lib is not None:
                for fn_name in _JOIN_FNS:
                    fn = getattr(lib, f"join_{fn_name}")
                    fn.restype = _C_LL
                    fn.argtypes = [_C_LL, _C_P, _C_P, _C_LL, _C_P, _C_P, _C_P, _C_P, _C_P]
                lib.monotone_strict.restype = _C_LL
                lib.monotone_strict.argtypes = [_C_LL, _C_P, _C_D]
                lib.gather_blocks.restype = _C_LL
                lib.gather_blocks.argtypes = [_C_P, _C_P, _C_P, _C_LL, _C_P, _C_P]
            _support_lib = lib
    return _support_lib


def reset_cache() -> None:
    """Drop per-process kernel caches (test hook, pairs with native.reset)."""
    global _support_lib, _support_tried
    _fused_cache.clear()
    _support_lib = None
    _support_tried = False


class JoinKernel:
    """Two-pointer sample-and-hold merge of two strictly-monotone streams.

    One pass replaces the numpy path's concatenate + timsort + dedup +
    two ``searchsorted`` gathers; the held-value state rides in a
    4-double vector ``[has0, hold0, has1, hold1]`` owned by the
    :class:`~repro.query.ops.JoinOp`.
    """

    def __init__(self, fn) -> None:
        self._fn = fn

    def merge(
        self,
        t0: np.ndarray,
        v0: np.ndarray,
        t1: np.ndarray,
        v1: np.ndarray,
        state: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        n0, n1 = t0.shape[0], t1.shape[0]
        out_t = np.empty(n0 + n1, dtype=np.float64)
        out_v = np.empty(n0 + n1, dtype=np.float64)
        arrays = []
        for arr in (t0, v0, t1, v1):
            if not arr.flags.c_contiguous:
                arr = np.ascontiguousarray(arr)
            arrays.append(arr)
        m = self._fn(
            n0,
            arrays[0].ctypes.data,
            arrays[1].ctypes.data,
            n1,
            arrays[2].ctypes.data,
            arrays[3].ctypes.data,
            state.ctypes.data,
            out_t.ctypes.data,
            out_v.ctypes.data,
        )
        return out_t[:m], out_v[:m]


def join_kernel(fn_name: str) -> Optional[JoinKernel]:
    """The native merge kernel for one combine fn, or None (numpy path)."""
    lib = _support()
    if lib is None or fn_name not in _JOIN_FNS:
        return None
    return JoinKernel(getattr(lib, f"join_{fn_name}"))


def monotone_strict(times: np.ndarray, last: float) -> Optional[bool]:
    """Native strict-monotonicity probe; None when no native backend.

    True iff ``times`` is strictly increasing and its head strictly
    exceeds ``last`` (NaNs fail both, matching the numpy slow path).
    """
    lib = _support()
    if lib is None:
        return None
    if not times.flags.c_contiguous:
        return None
    return bool(lib.monotone_strict(times.shape[0], times.ctypes.data, last))


def gather_blocks(
    base: np.ndarray,
    offsets: np.ndarray,
    counts: np.ndarray,
    out_t: np.ndarray,
    out_v: np.ndarray,
    start: int,
) -> Optional[int]:
    """Native block gather into preallocated columns; None → numpy path.

    ``base`` is a uint8 view of one mmapped segment; ``offsets`` and
    ``counts`` (int64) describe the signal's blocks in stream order;
    the copy lands at ``out_t[start:]``/``out_v[start:]``.
    """
    lib = _support()
    if lib is None:
        return None
    copied = lib.gather_blocks(
        base.ctypes.data,
        np.ascontiguousarray(offsets, dtype=np.int64).ctypes.data,
        np.ascontiguousarray(counts, dtype=np.int64).ctypes.data,
        offsets.shape[0],
        out_t.ctypes.data + 8 * start,
        out_v.ctypes.data + 8 * start,
    )
    return int(copied)
