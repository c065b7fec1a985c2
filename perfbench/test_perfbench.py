"""The benchmark's own tests: outputs checked, nothing left behind.

Run from the repository root::

    python3 -m pytest perfbench -q

Every run starts in a new session; afterwards ``/proc/*/stat`` is
scanned for any process still in that session, and the benchmark's
per-run temporary directories and ``/dev/shm`` are compared with their
state before the run.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
RUN = HERE / "run.py"
STATE = CHECKOUT / ".perfbench"


def session_members(sid):
    """Pids of every process (zombies included) in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we looked
        # Fields after the parenthesised command: state ppid pgrp session ...
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[3]) == sid:
            members.append(int(entry))
    return members


def leftovers():
    run_dirs = set(STATE.glob("run-*")) if STATE.exists() else set()
    return run_dirs, set(os.listdir("/dev/shm"))


def start(args, code=None):
    cmd = [sys.executable, str(RUN), *args] if code is None else [sys.executable, "-c", code]
    return subprocess.Popen(
        cmd,
        cwd=CHECKOUT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )


def finish(proc, timeout=600):
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return out, err


def assert_nothing_left(proc, before):
    deadline = time.monotonic() + 10
    while session_members(proc.pid) and time.monotonic() < deadline:
        time.sleep(0.1)
    assert session_members(proc.pid) == []
    run_dirs, shm = leftovers()
    assert run_dirs - before[0] == set()
    assert shm - before[1] == set()


def result_of(out):
    lines = out.strip().splitlines()
    assert lines, "no output"
    return json.loads(lines[-1])


def test_short_pass_over_every_workload():
    before = leftovers()
    proc = start(["--workload", "all", "--seed", "3", "--seconds", "1"])
    out, err = finish(proc)
    assert proc.returncode == 0, err
    result = result_of(out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    metrics = result["metrics"]
    for workload in ("ingest", "dashboard", "replay-analysis", "process-plane"):
        for name in ("samples_per_s", "latency_ms_p99", "setup_s", "unattributed.ms"):
            assert metrics[f"{workload}.{name}"]["value"] > 0
    # The workloads separate the layers.
    assert metrics["ingest.query.live.busy_ms"]["value"] == 0
    assert metrics["ingest.query.batch.busy_ms"]["value"] == 0
    assert metrics["dashboard.query.live.busy_ms"]["value"] > 0
    assert metrics["replay-analysis.query.batch.busy_ms"]["value"] > 0
    assert metrics["process-plane.net.worker.busy_ms"]["value"] > 0
    assert_nothing_left(proc, before)


def test_sigterm_mid_process_plane_leaves_nothing():
    before = leftovers()
    proc = start(["--workload", "process-plane", "--seed", "1", "--seconds", "60"])
    deadline = time.monotonic() + 120
    while len(session_members(proc.pid)) < 2:  # the forked worker is up
        assert proc.poll() is None and time.monotonic() < deadline
        time.sleep(0.05)
    time.sleep(3.0)  # past warm-up and set-up, into the timed run
    assert proc.poll() is None
    proc.send_signal(signal.SIGTERM)
    out, err = finish(proc, timeout=120)
    assert proc.returncode == 128 + signal.SIGTERM, err
    assert '"correct"' not in out
    assert_nothing_left(proc, before)


def test_failed_check_exits_nonzero_and_cleans_up():
    # One planned-late sample too many in the reference: the ledger
    # checks must catch the disagreement.
    code = (
        "import sys; sys.path.insert(0, {here!r}); import schedule, run\n"
        "orig = schedule.TickSchedule.late_samples\n"
        "schedule.TickSchedule.late_samples = lambda self, t: orig(self, t) + 1\n"
        "sys.exit(run.main(['--workload', 'ingest', '--seconds', '1']))\n"
    ).format(here=str(HERE))
    before = leftovers()
    proc = start(None, code=code)
    out, err = finish(proc)
    assert proc.returncode == 1, err
    result = result_of(out)
    assert result["correct"] is False and result["failed"] > 0
    assert "CHECK FAILED" in err
    assert_nothing_left(proc, before)


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        proc = start(["--workload", "dashboard", "--seed", "5", "--seconds", "1", "--trace", "1"])
        out, err = finish(proc)
        assert proc.returncode == 0, err
        metrics = result_of(out)["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["net.client.frames"] > 0


def test_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(CHECKOUT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert not (tmp_path / ".perfbench").exists()
