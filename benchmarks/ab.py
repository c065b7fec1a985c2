"""Run the end-to-end benchmark on a parent and a change checkout, in pairs.

Usage::

    python3 benchmarks/ab.py PARENT_DIR CHANGE_DIR --workload ingest \\
        --pairs 10 --seconds 10 --seed 1 [--claim samples_per_s]

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, one
after the other; the side that runs first flips on every pair.  For each
end-to-end metric declared in ``BENCHMARK.json`` the report gives each
side's median and quartiles, the change/parent ratio of the medians and
how many pairs the change won (ties count for neither side), plus the
operations attempted and failed per side.

Verdict per metric, in this order:

* ``WORSE`` — the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved`` — the parent's interquartile range exceeds the bound
  (relative to its median), unless every change run beats every parent
  run;
* ``within bound`` — otherwise.

``--claim METRIC`` also checks the gain rule: at least ten pairs, the
change wins at least nine tenths of them, its median beats the parent's
by more than the parent's interquartile range, and its failed share is
no higher.

Exit status 1 when any run is not correct, any metric is WORSE, or the
change fails a larger share of operations than the parent.

``--counts`` instead runs ``perfbench/run.py --trace 1`` once per side::

    python3 benchmarks/ab.py PARENT_DIR CHANGE_DIR --workload dashboard \\
        --seconds 4 --seed 101 --counts

It compares every per-layer metric of ``BENCHMARK.json`` whose unit is
``count``, ``bytes`` or ``B/sample`` for exact equality and prints each
difference with both values.  Every ``busy_ms``, ``wait_ms`` and
``unattributed.ms`` metric is printed side by side with the
change/parent ratio, for information only: traced timings are not
scaled to reference speed.  Exit status 1 when a count differs or a run
is not correct.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"
#: Real seconds one perfbench run may take on top of ``--seconds``.
RUN_GRACE_S = 600.0
SIDES = ("parent", "change")
#: Per-layer units that identical work must reproduce exactly.
EXACT_UNITS = ("count", "bytes", "B/sample")


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile) of the values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def better(a: float, b: float, higher: bool) -> bool:
    """Whether ``a`` reads strictly better than ``b``."""
    return a > b if higher else a < b


def value(run: dict, name: str) -> Optional[float]:
    """The run's value of metric ``name``, or None when it lacks it."""
    metric = run.get("metrics", {}).get(name)
    return None if metric is None else float(metric["value"])


def failed_share(runs: Sequence[dict]) -> float:
    attempted = sum(run["attempted"] for run in runs)
    return sum(run["failed"] for run in runs) / attempted if attempted else 0.0


def judge(spec: dict, pairs: Sequence[Tuple[dict, dict]]) -> dict:
    """Compare one end-to-end metric over (parent run, change run) pairs.

    ``spec`` is the metric's ``BENCHMARK.json`` entry; a run is the JSON
    object perfbench prints last.  Runs missing the metric are left out
    of the statistics and win no pair.
    """
    name, bound = spec["name"], float(spec["bound"])
    higher = spec["better"] == "higher"

    parent = [v for v in (value(p, name) for p, _ in pairs) if v is not None]
    change = [v for v in (value(c, name) for _, c in pairs) if v is not None]
    out = {"name": name, "unit": spec["unit"], "bound": bound, "pairs": len(pairs)}
    if not parent or not change:
        out["verdict"] = "missing"
        return out
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = 0
    for p, c in pairs:
        pv, cv = value(p, name), value(c, name)
        if pv is not None and cv is not None and better(cv, pv, higher):
            wins += 1
    worse_by = (pm - cm if higher else cm - pm) / abs(pm) if pm else 0.0
    spread = (p3 - p1) / abs(pm) if pm else 0.0
    dominates = all(better(c, p, higher) for c in change for p in parent)
    if worse_by > bound:
        verdict = "WORSE"
    elif spread > bound and not dominates:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    out.update(
        parent=(p1, pm, p3),
        change=(c1, cm, c3),
        ratio=cm / pm if pm else float("nan"),
        wins=wins,
        verdict=verdict,
        gain=(
            len(pairs) >= 10
            and wins >= 0.9 * len(pairs)
            and better(cm, pm, higher)
            and abs(cm - pm) > p3 - p1
        ),
    )
    return out


def verdict(specs: Sequence[dict], pairs: Sequence[Tuple[dict, dict]], claim: Optional[str]):
    """Every metric's judgement, the claim's outcome and the exit status."""
    rows = [judge(spec, pairs) for spec in specs]
    parents = [p for p, _ in pairs]
    changes = [c for _, c in pairs]
    more_failures = failed_share(changes) > failed_share(parents)
    claim_holds = None
    if claim is not None:
        row = next(row for row in rows if row["name"] == claim)
        claim_holds = bool(row.get("gain")) and not more_failures
    bad = (
        not all(run["correct"] for run in parents + changes)
        or any(row["verdict"] in ("WORSE", "missing") for row in rows)
        or more_failures
    )
    return rows, claim_holds, 1 if bad else 0


def counts(specs: Sequence[dict], parent: dict, change: dict):
    """Compare one traced run per side on the per-layer metrics.

    Returns ``(differences, timings, status)``: each exact-unit metric
    whose values differ as ``(name, parent, change)`` (``None`` where a
    side lacks it), each ``busy_ms``, ``wait_ms`` and ``unattributed.ms``
    metric as ``(name, parent, change, change/parent)``, and the exit
    status: 1 when a count differs or a run is not correct.
    """
    differences, timings = [], []
    for spec in specs:
        name = spec["name"]
        p, c = value(parent, name), value(change, name)
        if spec["unit"] in EXACT_UNITS:
            if p != c:
                differences.append((name, p, c))
        elif name.endswith(("busy_ms", "wait_ms")) or name == "unattributed.ms":
            ratio = c / p if p and c is not None else float("nan")
            timings.append((name, p, c, ratio))
    bad = differences or not (parent["correct"] and change["correct"])
    return differences, timings, 1 if bad else 0


def report_counts(specs, parent: dict, change: dict, differences, timings) -> None:
    exact = [spec for spec in specs if spec["unit"] in EXACT_UNITS]
    print(f"parent  correct {parent['correct']}  change  correct {change['correct']}")
    print(f"exact metrics ({', '.join(EXACT_UNITS)}): {len(exact)} compared, "
          f"{len(differences)} differ")
    for name, p, c in differences:
        print(f"  DIFFERS {name:40s} parent {p}  change {c}")
    print("timings (informational: traced, not scaled to reference speed):")
    print(f"  {'metric':32s} {'parent':>12s} {'change':>12s} {'ratio':>7s}")
    for name, p, c, ratio in timings:
        cells = ["-" if x is None else f"{x:.4g}" for x in (p, c)]
        print(f"  {name:32s} {cells[0]:>12s} {cells[1]:>12s} {ratio:7.3f}")


def run_once(checkout: Path, command: List[str], args, trace: int = 0) -> dict:
    """One perfbench run in ``checkout``; its last JSON line."""
    cmd = command + [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.Popen(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    out = ""
    try:
        out, _ = proc.communicate(timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired:
        print(f"ab: {checkout} ran past {args.seconds + RUN_GRACE_S:.0f}s", file=sys.stderr)
    finally:
        if proc.poll() is None:  # timed out or interrupted: let it clean up
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    try:
        record = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        record = None
    if proc.returncode != 0 or record is None:
        print(f"ab: {checkout} exited {proc.returncode}", file=sys.stderr)
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return record


def report(rows: List[dict], pairs, claim: Optional[str], claim_holds) -> None:
    for side, runs in zip(SIDES, zip(*pairs)):
        print(
            f"{side:7s} runs {len(runs)}  correct {sum(r['correct'] for r in runs)}  "
            f"attempted {sum(r['attempted'] for r in runs)}  "
            f"failed {sum(r['failed'] for r in runs)}"
        )
    print(
        f"{'metric':22s} {'parent median [q1, q3]':>34s} "
        f"{'change median [q1, q3]':>34s} {'ratio':>7s} {'wins':>6s}  verdict"
    )
    for row in rows:
        if row["verdict"] == "missing":
            print(f"{row['name']:22s} missing on a side")
            continue
        cells = [
            f"{m:.4g} [{q1:.4g}, {q3:.4g}]" for q1, m, q3 in (row["parent"], row["change"])
        ]
        print(
            f"{row['name']:22s} {cells[0]:>34s} {cells[1]:>34s} {row['ratio']:7.3f} "
            f"{row['wins']:>3d}/{row['pairs']:<2d}  {row['verdict']} "
            f"(bound {row['bound']:.0%})"
        )
    if claim is not None:
        print(f"claim {claim}: {'holds' if claim_holds else 'NOT MET'}")
    print("every run, in pair order:")
    for row in rows:
        for side, runs in zip(SIDES, zip(*pairs)):
            values = [
                f"{r['metrics'][row['name']]['value']:.4g}" if row["name"] in r["metrics"] else "-"
                for r in runs
            ]
            print(f"  {row['name']:22s} {side:7s} {' '.join(values)}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--claim")
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text())
    if args.counts:
        if args.claim is not None:
            parser.error("--claim compares untraced pairs; it does not go with --counts")
        parent, change = (
            run_once(getattr(args, side), bench["command"], args, 1) for side in SIDES
        )
        differences, timings, status = counts(bench["per_layer"], parent, change)
        print(f"workload {args.workload}  traced  seconds {args.seconds}  seed {args.seed}")
        report_counts(bench["per_layer"], parent, change, differences, timings)
        return status
    specs = bench["end_to_end"]
    if args.claim is not None and args.claim not in {s["name"] for s in specs}:
        parser.error(f"--claim must name an end-to-end metric: {args.claim}")
    if args.pairs <= 0:
        parser.error("--pairs must be positive")
    pairs = []
    for i in range(args.pairs):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        got = {
            side: run_once(getattr(args, side), bench["command"], args) for side in order
        }
        pairs.append((got["parent"], got["change"]))
        print(f"pair {i + 1}/{args.pairs} done ({order[0]} first)", file=sys.stderr)
    rows, claim_holds, status = verdict(specs, pairs, args.claim)
    print(f"workload {args.workload}  pairs {args.pairs}  seconds {args.seconds}  seed {args.seed}")
    report(rows, pairs, args.claim, claim_holds)
    return status


if __name__ == "__main__":
    sys.exit(main())
