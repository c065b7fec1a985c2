"""End-to-end pipeline benchmark for the gscope reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seconds 10

``--trace 0`` reports the end-to-end metrics of a timed, untraced run;
``--trace 1`` reports the per-layer metrics of a fixed amount of work
run twice, untraced then traced.  ``--workload all`` runs every workload
in both modes, one child process per run.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value", "unit"}``).  The exit code is nonzero when
a correctness check fails, on SIGTERM/SIGINT (``128 + signal``, no
result printed) and when the program's sources are missing.

Everything the benchmark writes stays under ``.perfbench/`` in the
checkout: the native-kernel build cache, traced runs' Chrome trace JSON,
and one temporary directory per run, removed when the run ends.  See
``README.md`` beside this file for the metric catalogue.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
STATE = CHECKOUT / ".perfbench"
WORKLOADS = ("ingest", "dashboard", "replay-analysis", "process-plane")

#: Builds timed per run; ``setup_s`` is their median.
SETUP_REPEATS = 9
#: Ticks (passes for replay-analysis) of warm-up before anything is timed.
WARM_UNITS = {"ingest": 40, "dashboard": 20, "replay-analysis": 1, "process-plane": 40}
#: Nominal ticks (passes) per second; the traced mode runs a fixed
#: ``rate * seconds / 4`` of them, so its counts repeat exactly.
TRACE_RATE = {"ingest": 200, "dashboard": 60, "replay-analysis": 6, "process-plane": 200}

E2E_UNITS = {
    "samples_per_s": "samples/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "client_ns_per_sample": "ns/sample",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class Terminated(BaseException):
    """SIGTERM or SIGINT: unwind through every ``finally`` and exit."""

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


class Signals:
    """SIGTERM and SIGINT run the same cleanup as a normal exit.

    The first signal raises :class:`Terminated` in the main thread; later
    ones are only remembered, so cleanup runs once and uninterrupted.  A
    forked worker inherits the handler and simply dies of the signal.
    """

    def __init__(self) -> None:
        self.owner = os.getpid()
        self.received: Optional[int] = None
        self.deferred = False

    def install(self) -> None:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, self._handle)

    def _handle(self, signum, frame) -> None:
        if os.getpid() != self.owner:
            signal.signal(signum, signal.SIG_DFL)
            os.kill(os.getpid(), signum)
            return
        if self.received is None:
            self.received = signum
        if not self.deferred:
            self.deferred = True
            raise Terminated(signum)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` (no subprocess)."""
    git = CHECKOUT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args, native_mode: str) -> Dict[str, object]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count(),
        "native_backend": native_mode,
    }


# ----------------------------------------------------------------------
# One workload, one mode
# ----------------------------------------------------------------------
def _inputs(workload: str, seed: int, root: Path):
    """Seeded inputs; generated before, and excluded from, every timing."""
    import schedule
    import workloads

    if workload in ("ingest", "process-plane"):
        return schedule.ingest_schedule(seed)
    if workload == "dashboard":
        return schedule.dashboard_schedule(seed)
    return workloads.ReplayInputs(root, seed)


def _build(workload: str, inputs, path: Path):
    import workloads

    cls = {
        "ingest": workloads.Ingest,
        "dashboard": workloads.Dashboard,
        "process-plane": workloads.ProcessPlane,
        "replay-analysis": workloads.Replay,
    }[workload]
    return cls(path, inputs)


def _warm(workload: str, inputs, root: Path) -> None:
    """Fill the native-kernel cache and every lazy path before timing.

    The first run in a checkout compiles the fused query kernels here;
    later runs load them from ``.perfbench/native-cache``.
    """
    import workloads

    system = _build(workload, inputs, root / "warm")
    try:
        system.drive(workloads.Measure(), count=WARM_UNITS[workload])
    finally:
        system.close()


def timed(workload: str, args, root: Path):
    """``--trace 0``: the end-to-end metrics of one timed run."""
    import workloads

    inputs = _inputs(workload, args.seed, root)
    _warm(workload, inputs, root)
    setups: List[float] = []
    raw_setups: List[float] = []
    system = None
    try:
        for i in range(SETUP_REPEATS):
            if system is not None:
                # Run each build but the last for a warm-up's worth of work
                # before closing it, so the builds sample the machine at
                # different moments.
                system.drive(workloads.Measure(), count=WARM_UNITS[workload])
                system.close()
                system = None
            gc.collect()  # every build starts from the same collector state
            before = workloads.calibrate()
            start = time.perf_counter()
            system = _build(workload, inputs, root / f"system{i}")
            raw_setups.append(time.perf_counter() - start)
            # At reference speed, like every other timing (see Measure).
            cal = (before + workloads.calibrate()) / 2
            setups.append(raw_setups[-1] * workloads.CAL_REF_S / cal)
        measure = workloads.Measure()
        system.drive(measure, until=time.perf_counter() + args.seconds)
        peak_rss = system.peak_rss_mib()
        system.finish()
        problems, attempted, failed = system.check()
    finally:
        if system is not None:
            system.close()
    metrics = measure.summary()
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss
    details = measure.details()
    details["setup_runs_s"] = setups
    details["raw"]["setup_s"] = statistics.median(raw_setups)
    units = {name: E2E_UNITS[name] for name in metrics}
    return metrics, units, problems, attempted, failed, details


def _ledger_delta(before: Dict, after: Dict) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for key, value in after.items():
        if key == "shard.offered":
            offered = [a - b for a, b in zip(value, before[key])]
            mean = sum(offered) / len(offered)
            out["net.shard.skew"] = max(offered) / mean if mean else 0.0
        else:
            out[key] = value - before.get(key, 0)
    return out


def _fixed_pass(workload: str, inputs, path: Path, count: int, tracer):
    import workloads

    system = _build(workload, inputs, path)
    try:
        system.tracer = tracer
        measure = workloads.Measure()
        before = system.ledger()
        if tracer is not None:
            tracer.reset()
            tracer.recording = True
        try:
            system.drive(measure, count=count)
            # The end-of-run flush (the process plane's drain) is part of
            # the traced work: it is where the router waits on its worker.
            start = time.perf_counter()
            system.finish()
            finish_s = time.perf_counter() - start
        finally:
            if tracer is not None:
                tracer.recording = False
        ledger = _ledger_delta(before, system.ledger())
        problems, attempted, failed = system.check()
    finally:
        system.close()
    return measure, finish_s, ledger, problems, attempted, failed


def traced(workload: str, args, root: Path):
    """``--trace 1``: per-layer metrics of a fixed amount of work."""
    from tracing import METRICS, Tracer

    inputs = _inputs(workload, args.seed, root)
    _warm(workload, inputs, root)
    count = max(1, round(TRACE_RATE[workload] * args.seconds / 4))
    plain, _, _, problems, attempted, failed = _fixed_pass(
        workload, inputs, root / "untraced", count, None
    )
    tracer = Tracer()
    try:
        tracer.install()
        measure, finish_s, ledger, more, attempted2, failed2 = _fixed_pass(
            workload, inputs, root / "traced", count, tracer
        )
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(measure.wall + finish_s, measure.samples, ledger)
    metrics["trace.overhead_ratio"] = measure.rate / plain.rate
    trace_path = STATE / "traces" / f"{workload}.json"
    spans = tracer.write_chrome(trace_path)
    details = {
        "units": count,
        "traced_wall_s": measure.wall + finish_s,
        "untraced_wall_s": plain.wall,
        "spans": tracer.span_count,
        "spans_written": spans,
        "chrome_trace": str(trace_path.relative_to(CHECKOUT)),
    }
    units = dict(METRICS)
    return (
        metrics,
        units,
        problems + more,
        attempted + attempted2,
        failed + failed2,
        details,
    )


def run_one(args, root: Path) -> Dict[str, object]:
    from repro.core import native

    record = run_record(args, native.mode())
    if record["native_backend"] != "c":
        print(
            f"perfbench: WARNING native backend is {record['native_backend']!r}, "
            "not 'c'; these figures are not comparable with C-backend runs",
            file=sys.stderr,
        )
    mode = traced if args.trace else timed
    metrics, units, problems, attempted, failed, details = mode(args.workload, args, root)
    record.update(details)
    record["problems"] = problems
    print(json.dumps({"run_record": record}))
    for name, value in metrics.items():
        print(f"{args.workload:16s} {name:40s} {value:14.6g} {units[name]}")
    for problem in problems:
        print(f"perfbench: CHECK FAILED: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": float(value), "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def run_all(args) -> Dict[str, object]:
    """Every workload, untraced then traced, one child process per run."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [
                sys.executable,
                str(Path(__file__).resolve()),
                "--workload",
                workload,
                "--seed",
                str(args.seed),
                "--seconds",
                str(args.seconds),
                "--trace",
                str(trace),
            ]
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
            try:
                out, _ = proc.communicate()
            finally:
                if proc.poll() is None:
                    proc.terminate()
                    try:
                        proc.wait(timeout=60)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()
            lines = out.splitlines()
            print("\n".join(lines[:-1]))
            try:
                child = json.loads(lines[-1])
            except (IndexError, ValueError):
                child = None
            if proc.returncode != 0 or child is None:
                print(
                    f"perfbench: {workload} --trace {trace} exited {proc.returncode}",
                    file=sys.stderr,
                )
                result["correct"] = False
                if child is None:
                    continue
            result["correct"] = result["correct"] and child["correct"]
            result["attempted"] += child["attempted"]
            result["failed"] += child["failed"]
            for name, metric in child["metrics"].items():
                result["metrics"][f"{workload}.{name}"] = metric
    return result


def _reap_children() -> None:
    """Backstop: no worker process outlives the run, whatever happened."""
    import multiprocessing

    for child in multiprocessing.active_children():
        child.kill()
        child.join(timeout=10)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (CHECKOUT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program sources at {CHECKOUT / 'src' / 'repro'}",
            file=sys.stderr,
        )
        return 2

    signals = Signals()
    signals.install()
    STATE.mkdir(exist_ok=True)
    root = Path(tempfile.mkdtemp(prefix="run-", dir=STATE))
    # Keep every file the program might create inside the checkout.
    os.environ["TMPDIR"] = str(root)
    tempfile.tempdir = str(root)
    os.environ["REPRO_NATIVE_CACHE"] = str(STATE / "native-cache")
    sys.path.insert(0, str(CHECKOUT / "src"))
    result = None
    try:
        result = run_all(args) if args.workload == "all" else run_one(args, root)
    except Terminated:
        pass
    finally:
        signals.deferred = True
        _reap_children()
        shutil.rmtree(root, ignore_errors=True)
    if signals.received is not None:
        print(f"perfbench: stopped by signal {signals.received}", file=sys.stderr)
        return 128 + signals.received
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
