"""The hermstab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; hermstab is imported from its ``src``.
Workloads (see workloads.py): examples, deep_conj, deep_orth, queries.
All four, one after another:

    for w in examples deep_conj deep_orth queries; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 25 --trace 0
    done

Every job runs in a worker process (worker.py), one worker at a time.
``examples`` and ``deep_*`` start a fresh worker per job, so each job is
cold (empty certificate cache), as every CLI invocation is; ``queries``
keeps one worker and its warm cache for the whole run.  A fixed
calibration kernel (calib.py) runs just before, during and just after
each job, and the gated times are in calibration units: job time over
the time of one pass of the kernel.

``--trace 0`` starts jobs until S seconds are used (at least MIN_JOBS) and
prints the end-to-end metrics.  ``--trace 1`` runs the same job once
untraced and once traced in fresh workers, then the fields kernel, and
prints the per-layer metrics; the spans go to
``.bench_traces/<workload>-seed<N>.jsonl``.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  Outputs
are checked, and a wrong output counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".bench_traces")

MIN_JOBS = 2  # timed jobs (query rounds) per untraced run, whatever S is
MIN_SETUPS = 5  # set-up samples per run; extra workers only set up
TRACE_ROUNDS = 3  # query rounds per worker in a traced run
START_LIMIT_S = 140.0  # no job starts after this
KILL_AFTER_S = 165.0  # a job still running then is killed and counts as failed
READY_TIMEOUT_S = 60.0


class WorkerFailed(RuntimeError):
    pass


class Worker:
    """A worker process and the line protocol to it."""

    def __init__(self, workload, seed, trace_file=None):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC,
               "--workload", workload, "--seed", str(seed)]
        if trace_file:
            cmd += ["--trace", trace_file]
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT
        )
        self.lines = queue.Queue()
        self.reader = threading.Thread(target=self._pump, daemon=True)
        self.reader.start()
        self._read(READY_TIMEOUT_S)
        self.setup_s = time.perf_counter() - t0

    def _pump(self):
        for line in self.proc.stdout:
            self.lines.put(line)
        self.lines.put(None)

    def _read(self, timeout):
        try:
            line = self.lines.get(timeout=max(timeout, 1.0))
        except queue.Empty:
            self.close()
            raise WorkerFailed(f"no reply within {timeout:.0f} s") from None
        if line is None:
            self.close()
            raise WorkerFailed(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def ask(self, cmd, timeout):
        self.proc.stdin.write(json.dumps({"cmd": cmd}) + "\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def close(self):
        try:
            if self.proc.poll() is None:
                self.proc.stdin.write(json.dumps({"cmd": "quit"}) + "\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            self.proc.kill()
            self.proc.wait()
        self.reader.join(timeout=10)
        self.proc.stdout.close()


def percentile(values, q):
    """Linear-interpolated percentile, q in [0, 1]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


class Tally:
    """Attempted and failed operations, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def add(self, attempted, errors):
        self.attempted += attempted
        self.failed += len(errors)
        self.reasons.extend(errors[: max(0, 10 - len(self.reasons))])


def _job(worker, tally, kill_at):
    """One job; a dead or hung worker counts as one failed operation."""
    try:
        r = worker.ask("job", kill_at - time.monotonic())
    except WorkerFailed as exc:
        tally.add(1, [f"worker failed: {exc}"])
        return None
    tally.add(r["attempted"], r["errors"])
    return r


def measure(workload, seed, seconds):
    """Untraced run: end-to-end metrics."""
    start = time.monotonic()
    deadline = start + seconds
    kill_at = start + KILL_AFTER_S
    tally = Tally()
    setups, jobs, spans, peaks = [], [], [], []
    persistent = None
    if workload == "queries":
        persistent = Worker(workload, seed)
        setups.append(persistent.setup_s)
    try:
        while time.monotonic() < start + START_LIMIT_S:
            t0 = time.monotonic()
            if persistent is None:
                worker = Worker(workload, seed)
                setups.append(worker.setup_s)
                r = _job(worker, tally, kill_at)
                worker.close()
            else:
                r = _job(persistent, tally, kill_at)
            if r is None:
                break
            jobs.append(r)
            if persistent is None:
                peaks.append(r["rss_mb"])
            spans.append(time.monotonic() - t0)
            if len(jobs) >= MIN_JOBS and time.monotonic() + statistics.median(spans) > deadline:
                break
    finally:
        if persistent is not None:
            persistent.close()
    if persistent is not None and jobs:
        peaks.append(max(r["rss_mb"] for r in jobs))
    while len(setups) < MIN_SETUPS:
        worker = Worker(workload, seed)
        setups.append(worker.setup_s)
        worker.close()
    if not jobs:
        raise WorkerFailed("no job completed: " + "; ".join(tally.reasons))
    norms = [r["wall_s"] / r["calib_s"] for r in jobs]
    items = [lat / r["calib_s"] for r in jobs for lat in r["latencies"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "job_norm": (statistics.median(norms), "calib"),
        "item_p50_norm": (percentile(items, 0.5), "calib"),
        "item_p90_norm": (percentile(items, 0.9), "calib"),
        "peak_rss_mb": (statistics.median(peaks), "MB"),
    }
    raw = {
        "jobs": len(jobs),
        "items": len(items),
        "setups": len(setups),
        "job_wall_s": statistics.median(r["wall_s"] for r in jobs),
        "calib_s": statistics.median(r["calib_s"] for r in jobs),
    }
    return metrics, raw, tally


def trace(workload, seed):
    """Traced run: per-layer metrics, and what tracing costs."""
    tally = Tally()
    kill_at = time.monotonic() + KILL_AFTER_S
    count = TRACE_ROUNDS if workload == "queries" else 1
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_file = os.path.join(TRACE_DIR, f"{workload}-seed{seed}.jsonl")
    runs = {}
    for label, path in (("plain", None), ("traced", trace_file)):
        worker = Worker(workload, seed, path)
        try:
            jobs = [_job(worker, tally, kill_at) for _ in range(count)]
            if None in jobs:
                raise WorkerFailed("a job failed: " + "; ".join(tally.reasons))
            runs[label] = jobs
            if path:
                kernel = worker.ask("kernel", kill_at - time.monotonic())
                tally.add(1, kernel["errors"])
                layers = worker.ask("layers", kill_at - time.monotonic())["metrics"]
        finally:
            worker.close()

    def norm(jobs):
        return sum(r["wall_s"] for r in jobs) / sum(r["calib_s"] for r in jobs)

    plain = runs["plain"]
    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
    metrics.update({name: (value, "us") for name, value in kernel["metrics"].items()})
    metrics["harness.calib_s"] = (statistics.median(r["calib_s"] for r in plain), "s")
    metrics["harness.job_wall_s"] = (sum(r["wall_s"] for r in plain) / count, "s")
    metrics["harness.trace_overhead_ratio"] = (norm(runs["traced"]) / norm(plain), "ratio")
    raw = {"jobs": count, "trace_file": os.path.relpath(trace_file, ROOT)}
    return metrics, raw, tally


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hermstab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hermstab", "__init__.py")):
        print(f"error: no hermstab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        if args.trace:
            metrics, raw, tally = trace(args.workload, args.seed)
        else:
            metrics, raw, tally = measure(args.workload, args.seed, args.seconds)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for key, value in raw.items():
        print(f"  {key:<40} {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:.6g} {unit}")
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"  {'failed_ratio':<40} {ratio:.6g} ratio"
          f"  ({tally.failed} of {tally.attempted})")
    for reason in tally.reasons:
        print(f"  FAILED: {reason}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
